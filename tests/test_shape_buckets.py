"""Suite for the ArtifactCache shape-bucket tier and specialized planning.

The contracts under test:

* the bucket tier keys plans as ``template digest -> bucket digest``:
  distinct bindings (or plan configs) of one template never collide,
  and distinct templates never share a group,
* evicting one bucket leaves sibling buckets of the same template
  untouched, and emptying a template removes it from the summary,
* every bucket operation is counted (``bucket_hits`` / ``bucket_misses``
  / ``bucket_stores`` / ``bucket_evictions``) and surfaced by
  ``CacheStats.render``,
* ``CompilerSession.plan_for(..., specialization=)`` builds one plan
  per bucket — a repeat lookup is a bucket hit that skips planning
  entirely (``plan`` group counter-asserted, not timing-based) — and plans
  for different dims of one workload are genuinely different programs.
"""

from __future__ import annotations

import pytest

from repro.driver import CompilerSession
from repro.driver.cache import BUCKET, ArtifactCache
from repro.srdfg.shapes import ShapeBinding, SpecializationKey
from repro.targets import default_accelerators
from repro.workloads import get_workload


# ---------------------------------------------------------------------------
# Bucket tier: keying, eviction, counters.
# ---------------------------------------------------------------------------


def _spec(template, **dims):
    return SpecializationKey(template, ShapeBinding(dims), ("f64",))


def test_bucket_tier_keys_do_not_collide():
    cache = ArtifactCache()
    keys = [
        _spec("FFT", n=1024),
        _spec("FFT", n=2048),
        SpecializationKey("FFT", ShapeBinding(n=1024), ("f32",)),
        _spec("DCT", n=1024),
    ]
    for index, key in enumerate(keys):
        cache.put(BUCKET, (key.template_digest(), key.bucket_digest()), index)

    # Every (template, binding, config) triple reads back its own plan.
    for index, key in enumerate(keys):
        assert cache.get(
            BUCKET, (key.template_digest(), key.bucket_digest())
        ) == index

    # Two templates, three buckets under FFT and one under DCT.
    assert cache.bucket_count() == 4
    assert cache.bucket_count(keys[0].template_digest()) == 3
    assert cache.bucket_count(keys[3].template_digest()) == 1
    assert sorted(cache.bucket_summary().values()) == [1, 3]


def test_bucket_eviction_is_sibling_safe():
    cache = ArtifactCache()
    small, large = _spec("FFT", n=1024), _spec("FFT", n=2048)
    template = small.template_digest()
    cache.put(BUCKET, (template, small.bucket_digest()), "small-plan")
    cache.put(BUCKET, (template, large.bucket_digest()), "large-plan")

    assert cache.evict(BUCKET, (template, small.bucket_digest()))
    # The sibling bucket survives the eviction.
    assert cache.get(BUCKET, (template, large.bucket_digest())) == "large-plan"
    assert cache.get(BUCKET, (template, small.bucket_digest())) is None
    assert cache.buckets_for(template) == (large.bucket_digest(),)

    # Re-evicting is a no-op; emptying the template removes its group.
    assert not cache.evict(BUCKET, (template, small.bucket_digest()))
    assert cache.evict(BUCKET, (template, large.bucket_digest()))
    assert cache.bucket_summary() == {}
    assert cache.stats.bucket_evictions == 2


def test_bucket_counters_and_render():
    cache = ArtifactCache()
    key = _spec("FFT", n=1024)
    template, bucket = key.template_digest(), key.bucket_digest()

    assert cache.get(BUCKET, (template, bucket)) is None
    cache.put(BUCKET, (template, bucket), "plan")
    assert cache.get(BUCKET, (template, bucket)) == "plan"

    stats = cache.stats
    assert stats.bucket_misses == 1
    assert stats.bucket_hits == 1
    assert stats.bucket_stores == 1
    assert "buckets: 1 hit(s) / 1 miss(es), 1 store(s)" in stats.render()

    cache.clear()
    assert cache.bucket_count() == 0


# ---------------------------------------------------------------------------
# Specialized planning through a CompilerSession.
# ---------------------------------------------------------------------------


@pytest.fixture()
def session():
    return CompilerSession(default_accelerators())


def _compile(session, workload):
    return session.compile(
        workload.source(),
        domain=workload.domain,
        data_hints=workload.hints(),
    )


def test_one_plan_per_bucket_counter_asserted(session):
    fft = get_workload("FFT-8192")
    small = fft.with_dims(n=1024)
    large = fft.with_dims(n=2048)

    def planned():
        return session.metrics.snapshot()["plan.graphs_planned"]

    spec_small = SpecializationKey(
        "FFT-8192", small.shape_binding(), ("f64",)
    )
    plan_small = session.plan_for(
        _compile(session, small), specialization=spec_small
    )
    assert planned() == 1

    # Identical specialization: bucket hit, no new plan built — even for
    # a freshly recompiled (structurally identical) app.
    again = session.plan_for(
        _compile(session, small), specialization=spec_small
    )
    assert again is plan_small
    assert planned() == 1

    # A different binding of the same template is its own bucket.
    spec_large = SpecializationKey(
        "FFT-8192", large.shape_binding(), ("f64",)
    )
    plan_large = session.plan_for(
        _compile(session, large), specialization=spec_large
    )
    assert plan_large is not plan_small
    assert planned() == 2

    cache = session.cache
    template = spec_small.template_digest()
    assert cache.bucket_count(template) == 2
    assert set(cache.buckets_for(template)) == {
        spec_small.bucket_digest(),
        spec_large.bucket_digest(),
    }
    assert cache.stats.bucket_stores == 2
    assert cache.stats.bucket_hits == 1


def test_specialized_plans_execute_at_their_dims(session):
    fft = get_workload("FFT-8192")
    for size in (1024, 2048):
        workload = fft.with_dims(n=size)
        spec = SpecializationKey(
            "FFT-8192", workload.shape_binding(), ("f64",)
        )
        plan = session.plan_for(
            _compile(session, workload), specialization=spec
        )
        result = plan.execute(
            workload.inputs(0, None),
            params=workload.params(),
            state=workload.initial_state(),
        )
        values = result.outputs if hasattr(result, "outputs") else result
        lengths = {len(value) for value in values.values()}
        assert lengths == {size}


def test_bucket_eviction_forces_rebuild(session):
    fft = get_workload("FFT-8192").with_dims(n=1024)
    spec = SpecializationKey("FFT-8192", fft.shape_binding(), ("f64",))
    app = _compile(session, fft)
    session.plan_for(app, specialization=spec)

    assert session.cache.evict(
        BUCKET, (spec.template_digest(), spec.bucket_digest())
    )
    baseline = session.metrics.snapshot()["plan.graphs_planned"]
    session.plan_for(_compile(session, fft), specialization=spec)
    # The structural plan tier may still satisfy the rebuild without
    # re-planning, but the bucket must be re-filed either way.
    assert session.cache.bucket_count(spec.template_digest()) == 1
    assert session.metrics.snapshot()["plan.graphs_planned"] - baseline <= 1


def test_server_bucket_policy_rounds_requests():
    from repro.serve import Server

    with Server(workers=1, bucket_policy="pow2") as server:
        config = server.executor.resolve("FFT-8192", dims={"n": 1000})
    assert config.workload.dims() == {"n": 1024}
    assert config.specialization.binding == ShapeBinding(n=1024)

    with Server(workers=1, bucket_policy="multiple:512") as server:
        config = server.executor.resolve("DCT-1024", dims={"size": 1000})
    assert config.specialization.binding == ShapeBinding(size=1024)
