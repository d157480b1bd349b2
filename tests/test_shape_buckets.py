"""Suite for shape-bucketed planning on the content-addressed plan tier.

There is no bucket tier: a workload re-instantiated at bucketed dims
compiles to a graph with those extents, and the plan tier keys on the
graph. The tests that put, counted and evicted ``BUCKET`` entries went
with that tier (evicting a bucket freed nothing — the plan tier still
held the plan); what a bucket *means* is restated here on the counters
that are left:

* one plan is built per bucketed binding (``plan.graphs_planned``), and
  a recompiled, structurally identical app is a ``PLAN`` hit returning
  the same object (``cache.plan_hits``),
* plans for different dims of one workload are genuinely different
  programs,
* two different programs presented under one workload name and binding
  get two plans — the collision a name-keyed tier invited,
* the server's ``Config`` table is the one by-name table in front of the
  plan tier: raw dims that round to one binding share one ``Config``,
  and a request whose dims equal the workload's defaults is a second
  ``Config`` on the default config's plan.
"""

from __future__ import annotations

import pytest

from repro.driver import CompilerSession
from repro.srdfg.shapes import ShapeBinding
from repro.targets import default_accelerators
from repro.workloads import get_workload


@pytest.fixture()
def session():
    return CompilerSession(default_accelerators())


def _compile(session, workload):
    return session.compile(
        workload.source(),
        domain=workload.domain,
        data_hints=workload.hints(),
    )


def _planned(session):
    return session.metrics.snapshot()["plan.graphs_planned"]


def test_one_plan_per_bucket_counter_asserted(session):
    fft = get_workload("FFT-8192")
    small = fft.with_dims(n=1024)
    large = fft.with_dims(n=2048)

    plan_small = session.plan_for(_compile(session, small))
    assert _planned(session) == 1
    assert session.cache.stats.plan_hits == 0

    # The same binding again: a PLAN hit, no new plan built — even for a
    # freshly rebuilt (structurally identical) app from another session.
    rebuilt = _compile(CompilerSession(default_accelerators()), small)
    assert rebuilt.graph is not _compile(session, small).graph
    for app in (_compile(session, small), rebuilt):
        assert session.plan_for(app) is plan_small
    assert _planned(session) == 1
    assert session.cache.stats.plan_hits == 2

    # A different binding of the same template is its own plan.
    plan_large = session.plan_for(_compile(session, large))
    assert plan_large is not plan_small
    assert _planned(session) == 2
    assert session.cache.stats.plan_stores == 2


def test_specialized_plans_execute_at_their_dims(session):
    fft = get_workload("FFT-8192")
    for size in (1024, 2048):
        workload = fft.with_dims(n=size)
        plan = session.plan_for(_compile(session, workload))
        result = plan.execute(
            workload.inputs(0, None),
            params=workload.params(),
            state=workload.initial_state(),
        )
        values = result.outputs if hasattr(result, "outputs") else result
        lengths = {len(value) for value in values.values()}
        assert lengths == {size}


def test_one_name_and_binding_two_programs_two_plans(session):
    # The hazard a (name, binding)-keyed tier carried: the fuzz oracles
    # present minimized clones under the seed and sizes of the program
    # they were cut from, and had to salt their key with a source digest
    # to keep them off its plan. The graph is the key, so the second
    # program cannot be answered with the first one's plan.
    full = """
    main(input float x[8], output float y[8]) {
        index i[0:7];
        y[i] = x[i] * 2.0 + 1.0;
    }
    """
    clone = full.replace(" + 1.0", "")
    plans = [
        session.plan_for(session.compile(source, domain="DA"))
        for source in (full, clone)
    ]
    assert plans[0] is not plans[1]
    assert _planned(session) == 2
    assert session.cache.stats.plan_hits == 0

    x = {"x": [1.0] * 8}
    assert plans[0].execute(x).outputs["y"][0] == 3.0
    assert plans[1].execute(x).outputs["y"][0] == 2.0


def test_server_bucket_policy_rounds_requests():
    from repro.serve import Server

    with Server(workers=1, bucket_policy="pow2") as server:
        config = server.executor.resolve("FFT-8192", dims={"n": 1000})
        # Raw dims 1000 and 1024 round to one binding: one Config.
        assert server.executor.resolve("FFT-8192", dims={"n": 1024}) is config
    assert config.workload.dims() == {"n": 1024}
    assert config.binding == ShapeBinding(n=1024)

    with Server(workers=1, bucket_policy="multiple:512") as server:
        config = server.executor.resolve("DCT-1024", dims={"size": 1000})
    assert config.binding == ShapeBinding(size=1024)


def test_default_dims_request_shares_the_default_configs_plan():
    from repro.serve import Request, Server

    with Server(workers=1) as server:
        executor = server.executor
        default = executor.serve(Request(workload="FFT-8192"))
        assert default.error is None, default.error
        built = _planned(server.session)

        explicit = executor.serve(
            Request(workload="FFT-8192", dims={"n": 8192})
        )
        assert explicit.error is None, explicit.error
        # Two by-name configs, one compiled app, one plan: the second
        # config's first request is a COMPILE hit and a PLAN hit.
        assert (explicit.compile_provenance, explicit.plan_provenance) == (
            "cache", "cache"
        )
        assert _planned(server.session) == built
        base = executor.resolve("FFT-8192")
        other = executor.resolve("FFT-8192", dims={"n": 8192})
        assert other is not base
        assert other.plan is base.plan
        assert len(executor.configs()) == 2
        assert explicit.signature == default.signature
