"""Per-workload fragment profiles: where each accelerator spends time.

Not a paper figure — a supporting artifact (results/profile_*.txt) that
explains the Figure 7 numbers: which fragments dominate each benchmark on
its accelerator.
"""

import pytest

PROFILED = ["MobileRobot", "Twitter-BFS", "MovieL-100K", "FFT-8192", "ResNet-18"]


@pytest.mark.parametrize("name", PROFILED)
def test_profile_artifact(name, harness, emit):
    workload, app, _ = harness.compiled(name)
    report = app.profile_report(top=8)
    emit(f"profile_{name}", f"Fragment profile: {name}\n{report}")
    assert "total accelerator time" in report


def test_profiles_explain_runtime(benchmark, harness):
    def total_profile_time():
        total = 0.0
        for name in PROFILED:
            _, app, _ = harness.compiled(name)
            _, t = app.profile(top=1000)
            total += t
        return total

    total = benchmark.pedantic(total_profile_time, rounds=1, iterations=1)
    assert total > 0
