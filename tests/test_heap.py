"""The serving heap policy and the per-request fault counter.

* :func:`repro.serve.heap.keep_heap` is idempotent, a no-op where the C
  library has no ``mallopt``, and applied only where serving runs
  kernels: a thread-pool Server's host process (at ``start``) and a
  process pool's children — never by compiling, planning or running a
  kernel outside a Server, and never in a process-mode parent.
* Every request reports the minor page faults its executing thread took
  over the step loop, from a child as from a thread; on glibc a warm
  MovieL-100K request keeps the pages its last request freed.
"""

from __future__ import annotations

import pickle
import platform
import resource
import types

import pytest

from repro.driver import CompilerSession
from repro.serve import Outcome, Request, Server
from repro.serve import heap
from repro.workloads import Trajectory, get_workload

GLIBC = platform.libc_ver()[0] == "glibc"


@pytest.fixture
def policy_calls(monkeypatch):
    """Every :func:`keep_heap` call this process makes, recorded and
    applied to nothing."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    library = types.SimpleNamespace(mallopt=mallopt)
    monkeypatch.setattr(heap, "_libc", lambda: library)
    return calls


@pytest.mark.skipif(not GLIBC, reason="mallopt is glibc's")
def test_keep_heap_is_idempotent():
    assert heap.keep_heap() is True
    assert heap.keep_heap() is True


def test_keep_heap_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(heap, "_libc", lambda: object())
    assert heap.keep_heap() is False


def test_keep_heap_sets_the_three_parameters(policy_calls):
    assert heap.keep_heap() is True
    # glibc's M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and M_ARENA_MAX.
    assert sorted(policy_calls) == [(-8, 1), (-3, 32 << 20), (-1, 64 << 20)]


def test_kernels_outside_a_server_leave_the_heap_alone(policy_calls):
    """``compile-cold`` and ``execute-steady`` start no Server: the
    process they measure keeps glibc's defaults."""
    session = CompilerSession()
    workload = get_workload("MovieL-100K")
    app, _ = session.compile_workload(workload)
    plan = session.plan_for(app, codegen=True)
    assert plan.kernel is not None
    trajectory = Trajectory(workload)
    for _ in range(2):
        trajectory.step(plan.execute)
    assert policy_calls == []

    with Server(workers=1, pool="process") as server:
        assert server.submit(Request(workload="MobileRobot")).wait(120).ok
    # The children set the policy in their own address space.
    assert policy_calls == []

    with Server(workers=1) as server:
        assert server.submit(Request(workload="MobileRobot")).wait(120).ok
    assert len(policy_calls) == len(heap._POLICY)


def test_minor_faults_survive_the_pickle():
    shipped = pickle.loads(pickle.dumps(Outcome(minor_faults=6164)))
    assert shipped.minor_faults == 6164


#: A warm-up mix: the ledger's serve round's programs, heavy and light.
WARM_UP = (
    "MovieL-100K", "ElecUse", "FFT-8192", "BrainStimul", "MobileRobot",
    "OptionPricing", "MovieL-100K",
)


@pytest.mark.skipif(
    not GLIBC or not hasattr(resource, "RUSAGE_THREAD"),
    reason="needs glibc's mallopt and per-thread fault counts",
)
@pytest.mark.parametrize("pool", ["thread", "process"])
def test_warm_movielens_requests_keep_their_pages(pool, tmp_path):
    """MovieL-100K's ``pred`` allocates two 12.7 MB buffers a step. With
    glibc's defaults, a worker of a process that has run other programs
    faults them in again every step: 1,000 to 12,300 faults a request,
    by pool and BLAS threading."""
    with Server(workers=1, pool=pool, cache_dir=str(tmp_path)) as server:
        def serve(name):
            response = server.submit(Request(workload=name, steps=2)).wait(120)
            assert response.ok, response.error
            return response.metrics

        # One run on this thread, as a session step or an inline request
        # runs in a serving parent, then a mixed warm-up on the pool.
        outcome = server.executor.serve(Request(workload="MovieL-100K", steps=2))
        assert outcome.error is None
        first = [serve(name) for name in WARM_UP][0]
        warm = [serve("MovieL-100K") for _ in range(6)]
    assert {m.site for m in warm} == {"parent" if pool == "thread" else "child"}
    assert [m.minor_faults for m in warm] == [
        min(m.minor_faults, 200) for m in warm
    ]
    if pool == "process":
        # The child's first steps faulted its heap in, and the count
        # came home in the Outcome.
        assert first.minor_faults > 0
