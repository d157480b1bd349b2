"""Suite for long-lived stateful serving sessions (repro.serve.Session).

The contracts under test:

* a >=50-step session builds exactly one plan per shape bucket
  (``plan`` group counter-asserted) and its outputs are bit-identical to
  one-shot requests that thread state/step_offset client-side — the
  session path skips work, never changes math,
* shape-mismatched dims, step inputs, and initial state are refused at
  admission with a descriptive :class:`ShapeError` before any worker is
  occupied (counted as ``invalid``, outside the conservation identity),
* sessions are strictly sequential and refuse steps after close,
* per-step deadlines ride the existing scheduler machinery, and an
  expired step does not advance session state,
* dim overrides are rounded by the server's bucket policy, and a
  session at rounded dims matches one-shot requests at the raw dims,
* every session renders as one trace lane (``track``) and shows up in
  the ServeReport with its bucket, step count, and latency quantiles.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.errors import ServeError, ShapeError
from repro.obs import Tracer
from repro.serve import DEFAULT_MIX, Request, Server, result_signature
from repro.workloads import get_workload


def _chain_signatures(server, name, steps, dims=None, start_state=None):
    """One-shot requests threading state/step_offset client-side."""
    signatures, state = [], start_state
    for index in range(steps):
        response = server.request(
            Request(
                name, steps=1, dims=dims,
                step_offset=index, initial_state=state,
            )
        )
        assert response.ok, response.error
        signatures.append(response.signature)
        state = response.state
    return signatures


# ---------------------------------------------------------------------------
# The headline contract: 50 steps, one plan, bit-identical.
# ---------------------------------------------------------------------------


def test_fifty_step_session_builds_one_plan_and_is_bit_identical():
    steps = 50
    with Server(workers=2) as server:
        # The server's own registry: no other test's plans can leak in.
        registry = server.metrics_registry()
        with server.open_session("MobileRobot") as session:
            signatures = []
            for _ in range(steps):
                response = session.step()
                assert response.ok, response.error
                signatures.append(response.signature)
        assert session.steps_done == steps
        # Exactly one plan was built for the session's (single) bucket,
        # however many steps ran.
        assert registry.snapshot()["plan.graphs_planned"] == 1

        # The one-shot twin threads state client-side; the plan tier
        # serves it, so still no new plan.
        assert _chain_signatures(server, "MobileRobot", steps) == signatures
        assert registry.snapshot()["plan.graphs_planned"] == 1

    report = server.report()
    # Steps 2..N reused the pinned app and plan without cache lookups.
    assert report.provenance["compile"].get("session", 0) == steps - 1
    assert report.provenance["plan"].get("session", 0) == steps - 1
    (summary,) = report.sessions
    assert summary["workload"] == "MobileRobot"
    assert summary["steps"] == steps
    assert summary["closed"] is True
    assert "sessions: 1 opened" in report.render()


@pytest.mark.parametrize("pool", ["thread", "process"])
def test_four_ways_to_run_four_steps_agree(pool):
    # One Trajectory behind every consumer: the reference driver, a
    # session, a state-threading one-shot chain and one multi-step
    # request end on the same bits, whichever pool runs the body.
    steps = 4
    with Server(workers=2, pool=pool) as server:
        for name in DEFAULT_MIX:
            reference = result_signature(
                get_workload(name).run_functional(steps=steps)[-1].outputs
            )
            with server.open_session(name) as session:
                for _ in range(steps):
                    stepped = session.step()
                    assert stepped.ok, stepped.error
            whole = server.request(Request(name, steps=steps))
            assert whole.ok, whole.error
            assert {
                stepped.signature,
                _chain_signatures(server, name, steps)[-1],
                whole.signature,
            } == {reference}, name


def _provenances(response):
    return response.metrics.compile_provenance, response.metrics.plan_provenance


def test_sessions_and_one_shots_read_one_bound_config():
    with Server(workers=2) as server:

        def lookups():
            return (
                len(server.session.records),
                server.session.cache.stats.to_dict(),
            )

        # A one-shot request binds the config; the session opened on it
        # afterwards never sees the compiler, not even on its first step.
        assert server.request(Request("MobileRobot")).ok
        before = lookups()
        with server.open_session("MobileRobot") as session:
            assert _provenances(session.step()) == ("session", "session")
        assert lookups() == before

        # The other way round: a session's first step binds, and a
        # one-shot request of that config finds it bound the same way.
        with server.open_session("Hexacopter") as session:
            assert _provenances(session.step()) == ("built", "built")
            before = lookups()
            reply = server.request(Request("Hexacopter"))
            assert reply.ok and _provenances(reply) == ("cache", "cache")
            assert lookups() == before
            assert server.executor.resolve("Hexacopter") is session.config


def test_process_mode_session_binds_in_the_parent_from_the_disk_tier(tmp_path):
    # One-shots run in children, session steps in the parent: the
    # parent's executor binds the config on the session's first step,
    # its compile from the disk entry a child published, its plan built
    # once more (plans have no disk form) — and the reuse identity holds.
    from repro.driver import CompilerSession

    compiler = CompilerSession(cache_dir=str(tmp_path / "shared"))
    with Server(session=compiler, workers=2, pool="process") as server:
        assert server.request(Request("MobileRobot")).ok
        with server.open_session("MobileRobot") as session:
            assert _provenances(session.step()) == ("cache", "built")
            assert _provenances(session.step()) == ("session", "session")
            assert session.config.plan is not None
    report = server.report()
    assert report.plan_reuse_ok and report.conservation_ok
    assert report.sessions[0]["plan_provenance"] == "built"


# ---------------------------------------------------------------------------
# Admission: descriptive ShapeErrors before a worker is occupied.
# ---------------------------------------------------------------------------


def test_admission_rejects_unknown_dim_before_enqueue():
    with Server(workers=1) as server:
        with pytest.raises(ShapeError) as info:
            server.open_session("MobileRobot", dims={"batch": 4})
        assert "batch" in str(info.value)
        report = server.report()
    # Never submitted: invalid admissions sit outside the conservation
    # identity instead of leaking an unaccounted request.
    assert report.submitted == 0
    assert report.invalid == 1


def test_admission_rejects_bad_step_inputs_and_state():
    with Server(workers=1) as server:
        session = server.open_session("MobileRobot")
        good = session.step()
        assert good.ok

        shapes = {
            name: np.asarray(value).shape
            for name, value in session.config.workload.inputs(
                1, session.trajectory.previous
            ).items()
        }
        name, shape = next(iter(shapes.items()))
        with pytest.raises(ShapeError) as info:
            session.step(inputs={name: np.zeros(tuple(shape) + (2,))})
        assert info.value.name == name
        assert info.value.expected == tuple(shape)
        # The refused step did not advance the session.
        assert session.steps_done == 1

        with pytest.raises(ShapeError):
            server.submit(
                Request(
                    "MobileRobot", steps=1,
                    initial_state={"no_such_state": np.zeros(3)},
                )
            )
        report = server.report()
    assert report.invalid == 2
    assert report.submitted == report.accounted
    assert "admission: 2 refused" in report.render()


# ---------------------------------------------------------------------------
# Lifecycle: sequential steps, closed sessions.
# ---------------------------------------------------------------------------


def test_sessions_are_sequential_and_close_refuses_steps():
    with Server(workers=2) as server:
        session = server.open_session("MobileRobot")
        ticket = session.submit_step()
        # The first step compiles, so it is still outstanding here.
        with pytest.raises(ServeError):
            session.submit_step()
        assert ticket.wait(timeout=120).ok

        summary = session.close()
        assert summary["closed"] is True
        with pytest.raises(ServeError):
            session.step()


def test_racing_submit_steps_admit_exactly_one():
    # Check-then-submit is one critical section: of two clients released
    # together exactly one gets the slot, the other a ServeError, and the
    # retained state is stepped once. The server starts only after the
    # race, so the admitted step is still outstanding throughout it.
    server = Server(workers=2)
    sessions = [server.open_session("MobileRobot") for _ in range(10)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        admitted = []
        for session in sessions:
            barrier = threading.Barrier(2)
            tickets, refused = [], []

            def client():
                barrier.wait(timeout=30)
                try:
                    tickets.append(session.submit_step())
                except ServeError as exc:
                    refused.append(exc)

            clients = [threading.Thread(target=client) for _ in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert (len(tickets), len(refused)) == (1, 1)
            admitted += tickets
    finally:
        sys.setswitchinterval(interval)
    with server:
        assert all(ticket.wait(timeout=120).ok for ticket in admitted)
    assert [session.steps_done for session in sessions] == [1] * 10


def test_expired_step_does_not_advance_state():
    with Server(workers=1) as server:
        with server.open_session("MobileRobot") as session:
            assert session.step().ok
            state_before = {
                key: np.array(value)
                for key, value in session.trajectory.state.items()
            }

            expired = session.step(deadline_s=1e-9)
            assert not expired.ok
            assert expired.error_kind == "DeadlineExceededError"
            assert session.steps_done == 1
            for key, value in state_before.items():
                np.testing.assert_array_equal(
                    session.trajectory.state[key], value
                )

            # The client retries the same step and the stream continues.
            retry = session.step()
            assert retry.ok
            assert session.steps_done == 2


# ---------------------------------------------------------------------------
# Dim overrides and bucket rounding.
# ---------------------------------------------------------------------------


def test_session_at_rounded_dims_matches_one_shot_at_raw_dims():
    steps = 6
    with Server(workers=2, bucket_policy="pow2") as server:
        with server.open_session("FFT-8192", dims={"n": 1000}) as session:
            # pow2 rounds the requested 1000 up into a valid FFT size.
            assert session.dims() == {"n": 1024}
            signatures = []
            for _ in range(steps):
                response = session.step()
                assert response.ok, response.error
                signatures.append(response.signature)

        # One-shot requests at the *raw* dims round to the same bucket:
        # the config the session bound, so the chain looks nothing up.
        assert (
            _chain_signatures(server, "FFT-8192", steps, dims={"n": 1000})
            == signatures
        )
        # Raw dims 1000 and 1024 are one Config, and the one bucketed
        # binding cost one plan (it used to read bucket_stores == 1, a
        # count of entries in a tier that is gone: the plan tier's own
        # counters say the same thing).
        for raw in (1000, 1024):
            assert (
                server.executor.resolve("FFT-8192", {"n": raw})
                is session.config
            )
        snapshot = server.session.metrics.snapshot()
    assert snapshot["plan.graphs_planned"] == 1
    assert snapshot["cache.plan_stores"] == 1
    assert snapshot["cache.plan_hits"] == 0


def test_structural_violation_survives_exact_policy():
    with Server(workers=1) as server:  # exact: no rounding to hide behind
        with pytest.raises(ShapeError):
            server.open_session("FFT-8192", dims={"n": 1000})


# ---------------------------------------------------------------------------
# Observability: one session, one trace lane, reported quantiles.
# ---------------------------------------------------------------------------


def test_session_spans_share_one_track():
    tracer = Tracer()
    with Server(workers=2, tracer=tracer) as server:
        with server.open_session("MobileRobot") as session:
            for _ in range(3):
                assert session.step().ok
        track = session.track

    tracked = [span for span in tracer.spans() if span.track == track]
    assert any(span.name == "session-open" for span in tracked)
    assert any(span.name.startswith("request") for span in tracked)
    assert any(span.name == "session-close" for span in tracked)

    from repro.obs import chrome_trace

    events = chrome_trace(tracer)["traceEvents"]
    names = {
        event["args"]["name"]
        for event in events
        if event.get("ph") == "M" and event.get("name") == "thread_name"
    }
    assert track in names


def test_session_summary_reports_latency_quantiles():
    with Server(workers=1) as server:
        session = server.open_session("MobileRobot")
        for _ in range(4):
            assert session.step().ok
        summary = session.close()
    assert summary["steps"] == 4
    assert summary["step_seconds"]["p50"] > 0
    assert summary["step_seconds"]["p99"] >= summary["step_seconds"]["p50"]
    assert summary["bucket"] is not None
