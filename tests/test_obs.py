"""Tests for repro.obs: tracer, metrics registry, Chrome export, and the
traced serve run covering every instrumented layer."""

import json
import sys
import threading

import pytest

from repro.obs import (
    CATEGORIES,
    Counters,
    MetricsRegistry,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    active,
    chrome_trace,
    chrome_trace_json,
    write_chrome_trace,
)


class TestTracer:
    def test_span_records_duration_and_category(self):
        tracer = Tracer()
        with tracer.span("work", category="session", detail="x"):
            pass
        (span,) = tracer.spans()
        assert span.name == "work"
        assert span.category == "session"
        assert span.duration >= 0.0
        assert span.args["detail"] == "x"
        assert span.parent_id is None
        assert not span.instant

    def test_nesting_tracks_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer", category="serve"):
            with tracer.span("inner", category="plan"):
                pass
        inner = next(s for s in tracer.spans() if s.name == "inner")
        outer = next(s for s in tracer.spans() if s.name == "outer")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_instant_nests_under_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.instant("tick", category="runtime", fault="transient")
        tick = next(s for s in tracer.spans() if s.name == "tick")
        outer = next(s for s in tracer.spans() if s.name == "outer")
        assert tick.instant
        assert tick.duration == 0.0
        assert tick.parent_id == outer.span_id
        assert tick.args["fault"] == "transient"

    def test_record_appends_explicit_timestamps(self):
        tracer = Tracer()
        tracer.record("queue-wait", category="serve", start=1.5, duration=0.25,
                      request_id="r-1")
        (span,) = tracer.spans()
        assert span.start == 1.5
        assert span.duration == 0.25
        assert span.args["request_id"] == "r-1"

    def test_span_error_annotation(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.args["error"] == "ValueError"

    def test_note_attaches_args(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.note(provenance="built")
        assert tracer.spans()[0].args["provenance"] == "built"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("invisible") as span:
            span.note(ignored=True)
        tracer.instant("invisible")
        tracer.record("invisible", start=0.0, duration=1.0)
        assert len(tracer) == 0
        # The disabled path hands out one shared no-op span: no
        # allocation per call.
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b") is NULL_SPAN

    def test_truthiness_is_identity_not_span_count(self):
        # __len__ would otherwise make an empty enabled tracer falsy and
        # `tracer or NULL_TRACER` defaults would silently discard it.
        assert bool(Tracer())
        assert bool(NULL_TRACER)
        assert active(None) is NULL_TRACER
        tracer = Tracer()
        assert active(tracer) is tracer

    def test_categories_and_counts(self):
        tracer = Tracer()
        with tracer.span("a", category="session"):
            pass
        with tracer.span("b", category="session"):
            pass
        tracer.instant("c", category="runtime")
        assert tracer.categories() == {"session", "runtime"}
        assert tracer.counts() == {"session": 2, "runtime": 1}
        tracer.clear()
        assert len(tracer) == 0

    def test_thread_safety_and_per_thread_parenthood(self):
        tracer = Tracer()
        spans_per_thread = 50
        threads = 8
        barrier = threading.Barrier(threads)

        def work(index):
            barrier.wait()
            for i in range(spans_per_thread):
                with tracer.span(f"outer-{index}", category="serve"):
                    with tracer.span(f"inner-{index}", category="plan"):
                        pass

        workers = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        spans = tracer.spans()
        assert len(spans) == threads * spans_per_thread * 2
        # Parenthood is per-thread: every inner span's parent is an outer
        # span from the same thread, never from a sibling thread.
        by_id = {span.span_id: span for span in spans}
        assert len(by_id) == len(spans)  # ids unique across threads
        for span in spans:
            if span.name.startswith("inner"):
                parent = by_id[span.parent_id]
                assert parent.name == span.name.replace("inner", "outer")
                assert parent.thread_name == span.thread_name


class TestChromeExport:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("compile", category="session"):
            with tracer.span("DCE", category="passes"):
                pass
            tracer.instant("fault", category="runtime", fault="transient")
        return tracer

    def test_chrome_trace_structure(self):
        tracer = self._traced()
        doc = chrome_trace(tracer)
        events = doc["traceEvents"]
        phases = [event["ph"] for event in events]
        assert "M" in phases  # process/thread metadata
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 2
        assert len(instants) == 1
        for event in complete + instants:
            assert event["ts"] >= 0
            assert isinstance(event["pid"], int)
            assert "name" in event and "cat" in event
        for event in complete:
            assert event["dur"] >= 0
        assert instants[0]["s"] == "t"
        assert doc["displayTimeUnit"] == "ms"

    def test_chrome_trace_json_round_trips(self):
        text = chrome_trace_json(self._traced())
        doc = json.loads(text)
        assert {e["cat"] for e in doc["traceEvents"] if e["ph"] != "M"} == {
            "session", "passes", "runtime"
        }

    def test_write_chrome_trace_to_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._traced(), str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestCounters:
    """The one counter mechanism: declared and open groups."""

    FIELDS = ("hits", "misses", "seconds")

    def test_threads_times_bumps_conserve(self):
        # More threads than cores and a short switch interval: a lost
        # read-modify-write would break the totals.
        declared, opened = Counters(self.FIELDS), Counters()
        threads_n, bumps = 16, 500

        def work():
            for _ in range(bumps):
                declared.bump(hits=1, seconds=0.5)
                declared.bump("misses")
                opened.bump("set/rule.matches")
                opened.bump("set/rule.rewrites", 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = threads_n * bumps
        assert declared.to_dict() == {
            "hits": total, "misses": total, "seconds": total * 0.5,
        }
        assert opened.to_dict() == {
            "set/rule.matches": total, "set/rule.rewrites": 2 * total,
        }

    def test_declared_group_rejects_unknown_names(self):
        stats = Counters(self.FIELDS)
        with pytest.raises(AttributeError):
            stats.bump(evictions=1)
        with pytest.raises(AttributeError):
            stats.bump("evictions")
        with pytest.raises(AttributeError):
            stats.merge({"hits": 1, "evictions": 1})
        with pytest.raises(AttributeError):
            stats.evictions
        assert stats.hits == 0

    def test_open_group_accepts_any_key_and_lists_sorted(self):
        stats = Counters()
        stats.bump("zeta/rule.matches")
        stats.bump("alpha.sweeps", 3)
        stats.bump(plain=2)
        assert list(stats.to_dict()) == [
            "alpha.sweeps", "plain", "zeta/rule.matches",
        ]
        assert stats.plain == 2
        with pytest.raises(AttributeError):
            stats.never_bumped

    def test_both_call_shapes_land_on_the_same_counter(self):
        stats = Counters(self.FIELDS)
        stats.bump(hits=1)
        stats.bump("hits")
        stats.bump("hits", 3)
        assert stats.hits == 5

    @pytest.mark.parametrize("fields", [FIELDS, None])
    def test_reset_equals_a_new_instance(self, fields):
        stats = Counters(fields)
        stats.bump(hits=4)
        stats.bump("misses", 2)
        assert stats != Counters(fields)
        assert stats.reset() is stats
        assert stats == Counters(fields)
        assert stats.to_dict() == Counters(fields).to_dict()

    def test_snapshot_is_an_equal_independent_copy(self):
        stats = Counters(self.FIELDS)
        stats.bump(hits=2)
        before = stats.snapshot()
        assert before == stats and before.hits == 2
        stats.bump(hits=1)
        after = stats.snapshot()
        assert before != after
        assert after.hits - before.hits == 1

    def test_merging_snapshots_is_their_keywise_sum(self):
        shards = []
        for index in range(1, 5):
            shard = Counters()
            shard.bump("shared", index)
            shard.bump(f"only-{index}", 10 * index)
            shards.append(shard.to_dict())
        merged = Counters()
        for shard in shards:
            merged.merge(shard)
        expected = {}
        for shard in shards:
            for key, value in shard.items():
                expected[key] = expected.get(key, 0) + value
        assert merged.to_dict() == dict(sorted(expected.items()))
        assert merged.shared == 1 + 2 + 3 + 4


class TestMetricsRegistry:
    def test_snapshot_namespaces_groups_and_sources_alike(self):
        registry = MetricsRegistry()
        group = registry.counters("plan", ("graphs_planned",))
        assert registry.counters("plan") is group
        group.bump(graphs_planned=2)
        registry.register("pool", lambda: {"alive": 3})
        assert registry.snapshot() == {
            "plan.graphs_planned": 2, "pool.alive": 3,
        }
        assert registry.sources() == ["plan", "pool"]
        registry.reset()
        assert registry.snapshot() == {
            "plan.graphs_planned": 0, "pool.alive": 3,
        }

    def test_merged_and_included_snapshots_add_to_live_ones(self):
        # A parent's view of its own live group plus what two retired
        # worker processes shipped home.
        session = MetricsRegistry()
        session.counters("plan", ("graphs_planned",)).bump(graphs_planned=1)
        server = MetricsRegistry().include(session)
        server.register("pool", lambda: {"alive": 2})
        for child_built in (3, 4):
            child = MetricsRegistry()
            child.counters("plan", ("graphs_planned",)).bump(
                graphs_planned=child_built
            )
            server.merge(child.snapshot())
        assert server.snapshot() == {
            "plan.graphs_planned": 8, "pool.alive": 2,
        }
        assert session.snapshot() == {"plan.graphs_planned": 1}
        assert server.sources() == ["plan", "pool"]

    def test_register_snapshot_flattens_namespaces(self):
        registry = MetricsRegistry()
        registry.register("alpha", lambda: {"x": 1, "y": 2})
        registry.register("beta", lambda: {"x": 10})
        snap = registry.snapshot()
        assert snap == {"alpha.x": 1, "alpha.y": 2, "beta.x": 10}
        assert sorted(registry.sources()) == ["alpha", "beta"]

    def test_bump_and_get(self):
        registry = MetricsRegistry()
        registry.bump("requests")
        registry.bump("requests", 4)
        assert registry.get("requests") == 5
        assert registry.get("missing", default=-1) == -1
        assert registry.snapshot()["requests"] == 5

    def test_reset_zeroes_counters_and_calls_source_resets(self):
        state = {"value": 7}
        registry = MetricsRegistry()
        registry.register(
            "src",
            lambda: {"value": state["value"]},
            lambda: state.update(value=0),
        )
        registry.bump("own", 3)
        registry.reset()
        assert registry.get("own") == 0
        assert registry.snapshot()["src.value"] == 0

    def test_latest_registration_wins(self):
        registry = MetricsRegistry()
        registry.register("src", lambda: {"v": 1})
        registry.register("src", lambda: {"v": 2})
        assert registry.snapshot() == {"src.v": 2}
        assert len(registry) == 1

    def test_rejects_non_callables(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.register("bad", {"not": "callable"})
        with pytest.raises(TypeError):
            registry.register("bad", dict, reset="nope")

    def test_render_lists_sorted_counters(self):
        registry = MetricsRegistry()
        registry.register("b", lambda: {"n": 2})
        registry.bump("a", 1)
        lines = registry.render().splitlines()
        assert lines[0].startswith("a")
        assert lines[1].startswith("b.n")

    def test_source_snapshot_may_reenter_registry(self):
        # Sources run outside the registry lock, so a source that reads
        # the registry back (e.g. to report its own counter) must not
        # deadlock.
        registry = MetricsRegistry()
        registry.bump("own", 1)
        registry.register("echo", lambda: {"own": registry.get("own")})
        assert registry.snapshot()["echo.own"] == 1


class TestTracedServe:
    def test_serve_run_covers_all_five_layers(self, tmp_path):
        from repro.serve import Request, Server, replay, synth_trace

        tracer = Tracer()
        trace = list(
            synth_trace(requests=3, workloads=("MobileRobot",), max_steps=2)
        )
        # One transient-fault request routes through the HostManager so
        # runtime-layer events appear on the same timeline.
        trace.append(
            Request(workload="MobileRobot", steps=1, inject=("transient",))
        )
        server = Server(workers=2, tracer=tracer)
        with server:
            responses, _ = replay(server, trace)
        assert all(response.ok for response in responses)
        assert set(CATEGORIES) <= tracer.categories()

        # The export is loadable JSON with events from every layer.
        path = tmp_path / "serve-trace.json"
        write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert set(CATEGORIES) <= cats

        # Request spans and their queue-wait companions both made it.
        names = [span.name for span in tracer.spans(category="serve")]
        assert any(name.startswith("request ") for name in names)
        assert "queue-wait" in names

        # The unified registry sees every counter system at once.
        registry = server.metrics_registry()
        snap = registry.snapshot()
        assert snap["serve.completed"] == len(trace)
        assert snap["scheduler.admitted"] == len(trace)
        assert snap["plan.graphs_planned"] >= 1
        assert "cache.hits" in snap
        assert "pool.handler_faults" in snap

    def test_untraced_serve_records_nothing(self):
        from repro.serve import Server, replay, synth_trace

        trace = synth_trace(requests=2, workloads=("MobileRobot",), max_steps=1)
        server = Server(workers=2)
        with server:
            responses, _ = replay(server, trace)
        assert all(response.ok for response in responses)
        assert server.tracer is NULL_TRACER
        assert len(NULL_TRACER) == 0
