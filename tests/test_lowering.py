"""Unit tests for Algorithm 1 (lowering) and component inlining."""

import numpy as np
import pytest

from repro.driver import CompilerSession
from repro.errors import LoweringError
from repro.rewrite import lower, supported_summary
from repro.srdfg import Executor, build
from repro.workloads import get_workload

ALL_SCALAR = {"alu", "mul", "div", "nonlinear"}


class TestSupportDecisions:
    def test_supported_group_op_kept(self, matvec_source):
        graph = build(matvec_source, domain="DA")
        lower(graph, {"DA": {"matvec"}}, {"DA": ALL_SCALAR})
        [node] = graph.compute_nodes()
        assert node.attrs["lowered"] == "group"

    def test_unsupported_group_op_marked_scalar(self, matvec_source):
        graph = build(matvec_source, domain="DA")
        lower(graph, {"DA": set()}, {"DA": ALL_SCALAR})
        [node] = graph.compute_nodes()
        assert node.attrs["lowered"] == "scalar"

    def test_unsupported_scalar_class_fails(self):
        source = (
            "main(input float x[4], output float y[4]) {"
            " index i[0:3]; y[i] = sigmoid(x[i]); }"
        )
        graph = build(source, domain="DA")
        with pytest.raises(LoweringError, match="nonlinear"):
            lower(graph, {"DA": set()}, {"DA": {"alu", "mul"}})

    def test_macro_component_kept_whole(self, mpc_source):
        graph = build(mpc_source, domain="RBT")
        om = {"RBT": {"predict_trajectory", "compute_ctrl_grad",
                      "update_ctrl_model", "copy"}}
        lower(graph, om, {"RBT": ALL_SCALAR})
        names = {node.name for node in graph.component_nodes()}
        assert {"predict_trajectory", "compute_ctrl_grad", "update_ctrl_model"} <= names

    def test_supported_summary(self, mpc_source):
        graph = build(mpc_source, domain="RBT")
        lower(
            graph,
            {"RBT": {"matvec", "copy", "elemwise_sub", "elemwise_add", "contract"}},
            {"RBT": ALL_SCALAR},
        )
        summary = supported_summary(graph)
        assert summary.get("group", 0) > 0


class TestInliningCorrectness:
    def test_everything_inlined(self, mpc_source):
        graph = build(mpc_source, domain="RBT")
        lower(graph, {"RBT": set()}, {"RBT": ALL_SCALAR})
        assert graph.component_nodes() == []
        assert graph.depth() == 0
        graph.validate()

    def test_inlined_execution_identical(
        self, mpc_source, mpc_data, mpc_reference_result
    ):
        graph = build(mpc_source, domain="RBT")
        lower(graph, {"RBT": set()}, {"RBT": ALL_SCALAR})
        result = Executor(graph).run(**mpc_data)
        assert np.allclose(
            result.outputs["ctrl_sgnl"], mpc_reference_result["ctrl_sgnl"]
        )
        assert np.allclose(
            result.state["ctrl_mdl"], mpc_reference_result["ctrl_mdl"]
        )

    def test_nested_inlining(self):
        source = (
            "inner(input float a[4], output float b[4]) {"
            " index i[0:3]; b[i] = a[i] * 2.0; }\n"
            "outer(input float a[4], output float b[4]) {"
            " float t[4]; index i[0:3];"
            " inner(a, t);"
            " b[i] = t[i] + 1.0; }\n"
            "main(input float x[4], output float y[4]) { outer(x, y); }"
        )
        graph = build(source)
        lower(graph, {"DA": set()}, {"DA": ALL_SCALAR})
        assert graph.component_nodes() == []
        result = Executor(graph).run(inputs={"x": np.arange(4.0)})
        assert np.allclose(result.outputs["y"], np.arange(4.0) * 2 + 1)

    def test_state_survives_inlining(self):
        source = (
            "accumulate(input float x, state float acc, output float y) {"
            " acc = acc + x; y = acc; }\n"
            "main(input float x, state float acc, output float y) {"
            " accumulate(x, acc, y); }"
        )
        graph = build(source)
        lower(graph, {"DA": set()}, {"DA": ALL_SCALAR})
        executor = Executor(graph)
        state = {}
        for expected in (1.0, 2.0, 3.0):
            result = executor.run(inputs={"x": 1.0}, state=state)
            state = result.state
            assert float(result.outputs["y"]) == expected

    def test_output_passthrough_when_never_written(self):
        source = (
            "noop(input float a[2], output float b[2]) { }\n"
            "main(input float x[2], output float y[2]) { noop(x, y); }"
        )
        graph = build(source)
        lower(graph, {"DA": set()}, {"DA": ALL_SCALAR})
        result = Executor(graph).run(inputs={"x": np.ones(2)})
        assert np.allclose(result.outputs["y"], 0.0)

    def test_domains_preserved_across_inlining(self):
        source = (
            "f(input float a[2], output float b[2]) {"
            " index i[0:1]; b[i] = a[i] * 2.0; }\n"
            "g(input float a[2], output float b[2]) {"
            " index i[0:1]; b[i] = a[i] + 1.0; }\n"
            "main(input float x[2], output float y[2]) {"
            " float t[2];"
            " DSP: f(x, t);"
            " DA: g(t, y); }"
        )
        graph = build(source, domain="DA")
        lower(graph, {"DA": set(), "DSP": set()},
              {"DA": ALL_SCALAR, "DSP": ALL_SCALAR})
        domains = {node.domain for node in graph.compute_nodes()}
        assert domains == {"DSP", "DA"}
        result = Executor(graph).run(inputs={"x": np.array([1.0, 2.0])})
        assert np.allclose(result.outputs["y"], [3.0, 5.0])

    def test_per_domain_support_sets(self):
        # The same op name can be supported in one domain, not another.
        source = (
            "f(input float a[2], output float b[2]) {"
            " index i[0:1]; b[i] = a[i] * 2.0; }\n"
            "main(input float x[2], output float y[2]) {"
            " float t[2];"
            " DSP: f(x, t);"
            " DA: f(t, y); }"
        )
        graph = build(source, domain="DA")
        lower(
            graph,
            {"DA": {"f"}, "DSP": set()},
            {"DA": ALL_SCALAR, "DSP": ALL_SCALAR},
        )
        remaining = graph.component_nodes()
        assert len(remaining) == 1
        assert remaining[0].domain == "DA"


#: What Algorithm 1 makes of each paper program on its own accelerators:
#: the annotation counts and the lowered graph's fingerprint (the root of
#: every plan-cache key). A change here is a change to what lowering does.
_LOWERED = {
    "MobileRobot": (
        {"group": 9},
        "dcb5116ebae4e305a1eba5289eae05d3e4f5352ace5330175dd08950a2593558",
    ),
    "Hexacopter": (
        {"group": 12},
        "884bed012f5a3aedf3d9c15586fe7037a46ed826642dc5d219264e06ff068045",
    ),
    "Twitter-BFS": (
        {"group": 3},
        "c5a866fe6049ca13bad1cc3fb030b10de18263295ca706001e04c9041790a768",
    ),
    "Wiki-BFS": (
        {"group": 3},
        "71ff883729ccb158c39b9b04ab1a07ae0b3581554aaed0ab55742c9afa49be52",
    ),
    "LiveJourn-SSP": (
        {"group": 3},
        "e5fba47aacb25c6303db17473e8121a11c173e73a257e5fe5d42e2626cb642d4",
    ),
    "MovieL-20M": (
        {"scalar": 7},
        "56902716236fbff81b2e5ec53d901d578e9f4f75a906ab38449156a6671dbb85",
    ),
    "MovieL-100K": (
        {"scalar": 7},
        "82336a59e5e8eaf93149cbf4d43c322b4d566b5776a1aca25d42c2fad26ac02e",
    ),
    "DigitCluster": (
        {"scalar": 7},
        "382d8e24db52ed66b302d6c616b4c36922d5b3fc6abae678885fb07762419158",
    ),
    "ElecUse": (
        {"scalar": 7},
        "29635db5521f8d7842492cf7573205892b03a53f40fce7e26d8a278ae961b512",
    ),
    "FFT-8192": (
        {"group": 30},
        "2353978a754da3498f6445db221a7d28e8f755d076265532f4c7d01ed704ce58",
    ),
    "FFT-16384": (
        {"group": 32},
        "7d80262a722da322180d3d8289a64d510978b98cfce7458c330d4eb2039ba17e",
    ),
    "DCT-1024": (
        {"group": 2},
        "4d8368f47fe41babc909f50d0aa0b5e61b30b4092e14749878ac1fc5e5de308e",
    ),
    "DCT-2048": (
        {"group": 2},
        "2a8329cfc89bcce4ab54dccced6601e2901eef2194bec1f0891aad66b831de29",
    ),
    "ResNet-18": (
        {"group": 56},
        "1c4de285ee039dc70d6948f684d4226a803a36e3ba5f71049960ad201bb77b49",
    ),
    "MobileNet": (
        {"group": 45},
        "b061807799de3a13a61760abd8c0ac3d5be97a06e40be7b92a9f30b542e918ff",
    ),
    "BrainStimul": (
        {"group": 37, "scalar": 2},
        "4631b6f23c137d7ab5b17de9231d96ede02c83da8b65e62f4245a434ac69f070",
    ),
    "OptionPricing": (
        {"group": 4, "scalar": 1},
        "4d000544e70cdb5b4cd891ff1516cc3fd1cf1f96426813ab31c27f6fcf96fdeb",
    ),
}


@pytest.mark.parametrize("name", sorted(_LOWERED))
def test_paper_program_lowering_is_pinned(name):
    summary, fingerprint = _LOWERED[name]
    app, _ = CompilerSession().compile_workload(get_workload(name))
    assert supported_summary(app.graph) == summary
    assert app.graph_fingerprint == fingerprint
