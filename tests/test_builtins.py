"""Direct tests for PMLang's built-in function/reduction library."""

import numpy as np
import pytest

from repro.pmlang import builtins


class TestScalarFunctions:
    def test_every_function_has_impl_arity_cost(self):
        for name, (impl, arity, cost, stand_in) in builtins.SCALAR_FUNCTIONS.items():
            assert callable(impl), name
            assert arity in (1, 2), name
            assert cost in ("alu", "mul", "div", "nonlinear"), name
            assert stand_in is None or isinstance(stand_in, np.ufunc), name

    def test_gaussian_kernel(self):
        x = np.array([0.0, 1.0, -2.0])
        impl = builtins.SCALAR_FUNCTIONS["gaussian"][0]
        assert np.allclose(impl(x), np.exp(-x**2))

    def test_phi_is_normal_cdf(self):
        impl = builtins.SCALAR_FUNCTIONS["phi"][0]
        assert impl(np.array(0.0)) == pytest.approx(0.5)
        assert impl(np.array(3.0)) == pytest.approx(0.99865, abs=1e-4)

    def test_rsqrt(self):
        impl = builtins.SCALAR_FUNCTIONS["rsqrt"][0]
        assert impl(np.array(4.0)) == pytest.approx(0.5)

    def test_relu_is_alu_class(self):
        assert builtins.function_cost_class("relu") == "alu"
        assert builtins.function_cost_class("sigmoid") == "nonlinear"

    def test_atan2_two_arguments(self):
        impl, arity, _, _ = builtins.SCALAR_FUNCTIONS["atan2"]
        assert arity == 2
        assert impl(np.array(1.0), np.array(1.0)) == pytest.approx(np.pi / 4)


#: The shadows a kernel build pushes through a builtin: 0-d arrays,
#: numpy scalars and Python floats, at f32 and f64.
SHADOWS = (
    np.zeros((), np.float32), np.zeros((), np.float64),
    np.float32(0.5), np.float64(0.5), 0.5,
)


class TestStandIns:
    @pytest.mark.parametrize("name", ["sigmoid", "phi"])
    @pytest.mark.parametrize("shadow", SHADOWS, ids=lambda s: f"{type(s).__name__}-{np.asarray(s).dtype}")
    def test_stand_in_result_dtype_is_the_real_one(self, name, shadow):
        impl, _, _, stand_in = builtins.SCALAR_FUNCTIONS[name]
        assert stand_in is not None
        assert np.asarray(stand_in(shadow)).dtype == np.asarray(impl(shadow)).dtype

    @pytest.mark.parametrize("program", ["OptionPricing", "BrainStimul"])
    def test_kernel_builds_without_scipy(self, program, monkeypatch):
        from repro.codegen import build_kernel
        from repro.eval import Harness

        harness = Harness()
        _, app, _ = harness.compiled(program)
        plan = harness.session.plan_for(app)

        def unavailable():
            raise ImportError("scipy.special is not loaded at kernel build")

        monkeypatch.setattr(builtins, "special", unavailable)
        artifact = build_kernel(plan)
        assert artifact is not None
        # The kernel still calls the real function.
        assert any(value is builtins._sigmoid or value is builtins._phi
                   for value in artifact.constants.values())


class TestGroupReductions:
    def test_argmax_flattens_multiple_axes(self):
        impl = builtins.GROUP_REDUCTIONS["argmax"][0]
        values = np.array([[[1.0, 9.0], [3.0, 2.0]], [[0.0, 4.0], [8.0, 5.0]]])
        # Reduce over the last two axes of each leading row.
        picks = impl(values, (1, 2))
        assert picks.tolist() == [1, 2]

    def test_identities(self):
        assert builtins.GROUP_REDUCTIONS["sum"][1] == 0.0
        assert builtins.GROUP_REDUCTIONS["prod"][1] == 1.0
        assert builtins.GROUP_REDUCTIONS["max"][1] is None

    def test_reduce_over_multiple_axes(self):
        impl = builtins.GROUP_REDUCTIONS["sum"][0]
        values = np.arange(24.0).reshape(2, 3, 4)
        assert np.allclose(impl(values, (1, 2)), values.reshape(2, -1).sum(axis=1))

    def test_is_builtin_queries(self):
        assert builtins.is_builtin_function("sin")
        assert not builtins.is_builtin_function("sinh")
        assert builtins.is_builtin_reduction("argmin")
        assert not builtins.is_builtin_reduction("median")


class TestCostTables:
    def test_binop_cost_classes(self):
        assert builtins.BINOP_COST["*"] == "mul"
        assert builtins.BINOP_COST["/"] == "div"
        assert builtins.BINOP_COST["+"] == "alu"
        assert builtins.BINOP_COST["^"] == "nonlinear"
