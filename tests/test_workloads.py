"""Integration tests: every Table III/IV workload validates functionally."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.srdfg import Executor
from repro.workloads import (
    END_TO_END,
    SINGLE_DOMAIN,
    Trajectory,
    count_loc,
    get_workload,
    workload_names,
)

#: Fast workloads checked individually; the heavyweights run in one
#: parametrised sweep marked for clarity.
FAST = [
    "MobileRobot",
    "Hexacopter",
    "Wiki-BFS",
    "MovieL-100K",
    "ElecUse",
    "FFT-8192",
    "ResNet-18",
    "MobileNet",
    "BrainStimul",
    "OptionPricing",
]
HEAVY = sorted(set(SINGLE_DOMAIN + END_TO_END) - set(FAST))


class TestRegistry:
    def test_all_table_iii_workloads_registered(self):
        assert set(SINGLE_DOMAIN) <= set(workload_names())

    def test_all_table_iv_workloads_registered(self):
        assert set(END_TO_END) <= set(workload_names())

    def test_unknown_name_raises(self):
        with pytest.raises(WorkloadError):
            get_workload("Quicksort")

    def test_count_loc_skips_comments_and_blanks(self):
        assert count_loc("// c\n\n a = 1;\n # py\n") == 1

    @pytest.mark.parametrize("name", SINGLE_DOMAIN + END_TO_END)
    def test_metadata_present(self, name):
        workload = get_workload(name)
        assert workload.domain in ("RBT", "GA", "DA", "DSP", "DL")
        assert workload.algorithm
        assert workload.config
        assert workload.pmlang_loc > 0
        assert workload.perf_iterations >= 1


@pytest.mark.parametrize("name", FAST)
def test_functional_fast(name):
    workload = get_workload(name)
    check = workload.check_functional()
    assert check.ok, f"{name}: max rel err {check.error} {check.detail}"


@pytest.mark.parametrize("name", HEAVY)
def test_functional_heavy(name):
    workload = get_workload(name)
    check = workload.check_functional()
    assert check.ok, f"{name}: max rel err {check.error} {check.detail}"


class TestGraphWorkloadDetails:
    def test_hints_expose_sparsity(self):
        workload = get_workload("Twitter-BFS")
        hints = workload.hints()
        assert hints["edges"] < hints["vertices"] ** 2
        assert 0 < hints["op_scale"] < 1

    def test_bfs_converges_to_reference_levels(self):
        from repro.workloads import reference

        workload = get_workload("Wiki-BFS")
        results = workload.run_functional(steps=workload.functional_steps)
        dist = results[-1].state["dist"]
        source = workload.graph_data.source
        assert dist[source] == 0
        # Distances never exceed the sweep count except unreached marks.
        reached = dist < reference.UNREACHED
        assert reached.sum() > 1


class TestDnnDetails:
    def test_resnet_block_structure(self):
        workload = get_workload("ResNet-18")
        source = workload.source()
        assert source.count("conv3x3(") >= 17  # component + 16 block convs + stem
        assert "add_relu" in source
        assert "global_pool" in source

    def test_mobilenet_uses_depthwise(self):
        workload = get_workload("MobileNet")
        assert "dwconv3x3" in workload.source()

    def test_logits_match_reference_closely(self):
        workload = get_workload("MobileNet")
        results = workload.run_functional()
        measured = workload.extract(results)
        expected = workload.reference()
        assert np.allclose(measured, expected, rtol=1e-6, atol=1e-6)


class TestEndToEndDetails:
    def test_brainstimul_three_domains(self):
        workload = get_workload("BrainStimul")
        assert set(workload.kernels_by_domain) == {"DSP", "DA", "RBT"}

    def test_optionpricing_split_accelerators(self):
        workload = get_workload("OptionPricing")
        assert workload.component_domains == {"black_scholes": "DA-BLKS"}
        assert workload.accelerator_overrides["DA-BLKS"] == "hyperstreams"

    def test_option_prices_satisfy_no_arbitrage(self):
        from scipy import special as sp_special

        workload = get_workload("OptionPricing")
        results = workload.run_functional(steps=1)
        prices = results[0].outputs["call"]
        assert np.all(prices >= 0)
        # Deep in-the-money calls are worth at least S - K discounted at
        # the sentiment-adjusted rate actually used by the pricing kernel.
        chain = workload.chain
        inputs = workload.inputs(0, None)
        score = float(
            sp_special.expit(np.dot(workload.weights, inputs["x"]) + workload.bias)
        )
        rate = chain.rate + 0.02 * (score - 0.5)
        intrinsic = np.maximum(
            chain.spot - chain.strike * np.exp(-rate * chain.maturity), 0
        )
        assert np.all(prices >= intrinsic - 1e-6)
        # And never exceed the spot price.
        assert np.all(prices <= chain.spot + 1e-9)


class TestTrainingConvergence:
    """Training workloads must actually learn, not just execute."""

    def test_lrmf_loss_decreases(self):
        workload = get_workload("MovieL-100K")
        results = workload.run_functional(steps=4)
        losses = [float(result.outputs["loss"]) for result in results]
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < losses[0]

    def test_kmeans_inertia_decreases(self):
        workload = get_workload("ElecUse")
        results = workload.run_functional(steps=4)
        inertia = [float(result.outputs["inertia"]) for result in results]
        assert inertia[-1] <= inertia[0]

    def test_kmeans_explains_most_variance(self):
        # Lloyd iterations must drive inertia far below the one-cluster
        # baseline (the blobs are separable; K-means may still merge a
        # couple from a bad init, so we check explained variance, not
        # exact centre recovery).
        workload = get_workload("ElecUse")
        results = workload.run_functional(steps=8)
        inertia = float(results[-1].outputs["inertia"])
        points = workload.data.points
        one_cluster = float(((points - points.mean(axis=0)) ** 2).sum())
        assert inertia < one_cluster / 4

    def test_mpc_tracks_reference_direction(self):
        # Control signals stay bounded over a long closed run.
        workload = get_workload("MobileRobot")
        results = workload.run_functional(steps=30)
        signals = np.array([r.outputs["ctrl_sgnl"] for r in results])
        assert np.all(np.isfinite(signals))


class TestTrajectory:
    """State advances only on success — the invariant every consumer of
    the stack (requests, sessions, chaos, the reference driver) inherits
    from the one loop."""

    @settings(max_examples=25, deadline=None)
    @given(total=st.integers(1, 8), data=st.data())
    def test_a_raising_step_commits_nothing(self, total, data):
        fail_at = data.draw(st.integers(0, total - 1))
        workload = get_workload("MobileRobot")
        executor = Executor(workload.cached_graph())
        trajectory = Trajectory(workload)

        def refuse(**values):
            raise RuntimeError("device lost")

        for step in range(total):
            if step == fail_at:
                before = (
                    trajectory.state, trajectory.index, trajectory.previous
                )
                with pytest.raises(RuntimeError):
                    trajectory.step(refuse)
                after = (
                    trajectory.state, trajectory.index, trajectory.previous
                )
                assert all(a is b for a, b in zip(before, after))
            # The retry (or the next step) carries on from what was
            # committed.
            result = trajectory.step(executor.run)
            assert trajectory.previous is result
            assert trajectory.state is result.state
            assert trajectory.index == step + 1

        # The interrupted run ends where an uninterrupted one does.
        expected = workload.run_functional(steps=total)[-1]
        for name, value in expected.outputs.items():
            np.testing.assert_array_equal(result.outputs[name], value)

    def test_seeded_trajectory_replays_from_the_middle(self):
        workload = get_workload("MobileRobot")
        executor = Executor(workload.cached_graph())
        whole = workload.run_functional(steps=3)
        resumed = Trajectory(workload, state=whole[0].state, index=1)
        assert resumed.index == 1 and resumed.previous is None
        result = resumed.step(executor.run)
        for name, value in whole[1].outputs.items():
            np.testing.assert_array_equal(result.outputs[name], value)

    def test_explicit_inputs_override_the_generator(self):
        workload = get_workload("MobileRobot")
        seen = []

        def record(inputs, params, state):
            seen.append(inputs)
            return Executor(workload.cached_graph()).run(
                inputs=inputs, params=params, state=state
            )

        given_inputs = workload.inputs(0, None)
        Trajectory(workload).step(record, given_inputs)
        assert seen == [given_inputs]

    @pytest.mark.parametrize("name", ["FFT-8192", "BrainStimul", "MovieL-100K"])
    def test_params_are_computed_once_and_read_only(self, name):
        workload = get_workload(name)
        first, second = Trajectory(workload), Trajectory(workload)
        assert first.params is second.params is workload.shared_params()
        arrays = {
            key: value for key, value in first.params.items()
            if isinstance(value, np.ndarray)
        }
        assert arrays
        for key, value in arrays.items():
            assert not value.flags.writeable, key
            with pytest.raises(ValueError):
                value[...] = 0
        # The values are params()'s, and what params() hands out (the
        # workload's own arrays among them) stays writeable.
        fresh = workload.params()
        assert sorted(fresh) == sorted(first.params)
        for key, value in arrays.items():
            np.testing.assert_array_equal(value, fresh[key])
            assert fresh[key].flags.writeable, key
        # A re-specialized instance computes its own.
        if workload.symbolic_dims:
            other = workload.with_dims(
                **{dim: 2 * size for dim, size in workload.dims().items()}
            )
            assert other.shared_params() is not first.params
