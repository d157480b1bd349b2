"""Extending the stack: a custom rewrite rule and a custom accelerator.

The paper positions PolyMath as "the very first extensible, modular, and
open-source computation stack" for cross-domain acceleration. This example
shows both extension points:

* a user-defined rule set (strength reduction: ``x * -1`` -> ``-x``, a
  negation instead of a multiply) appended to the standard pipeline;
* a user-defined accelerator backend (a fictional vector DSP) given its
  own AcceleratorSpec and hardware parameters, then used as a lowering and
  translation target.

Run with::

    python examples/custom_pass_and_target.py
"""

import numpy as np

from repro import CompilerSession, Pipeline
from repro.hw import HardwareParams
from repro.pmlang import ast_nodes as ast
from repro.rewrite import DEFAULT_RULESETS, Any, Bin, ExprRule, Lit, RuleSet
from repro.srdfg import Executor, build
from repro.targets import Accelerator, AcceleratorSpec

SOURCE = """
main(input float x[1024], param float gain, output float y[1024]) {
  index i[0:1023];
  float t[1024];
  t[i] = x[i] * -1.0;
  y[i] = tanh(t[i] * gain);
}
"""


def _negate(expr, bindings, ctx):
    return ast.UnaryOp(op="-", operand=bindings["x"], line=expr.line)


#: One expression rule. Like every rule it keeps the value (``x * -1`` is
#: exactly ``-x`` in IEEE arithmetic) and strictly lowers (expression
#: size, ``Name`` count) where it fires: three nodes become two.
STRENGTH_REDUCTION = RuleSet(
    name="strength-reduction",
    expr_rules=(
        ExprRule(
            "mul-minus-one-to-neg",
            Bin(op="*", left=Any(name="x"), right=Lit(value=-1, numeric=True),
                commutative=True),
            _negate,
        ),
    ),
)

#: The standard pipeline with the rule set appended; constant folding runs
#: first and turns the source's ``-1.0`` (a negated literal) into the
#: literal the rule matches.
PIPELINE = Pipeline(DEFAULT_RULESETS + (STRENGTH_REDUCTION,))


class VectorDsp(Accelerator):
    """A fictional 64-lane vector DSP at 500 MHz with tanh hardware."""

    name = "vdsp"
    domain = "DSP"
    spec = AcceleratorSpec(
        supported_ops=frozenset(
            {"copy", "elemwise", "elemwise_add", "elemwise_mul", "map_tanh"}
        ),
        scalar_classes=frozenset({"alu", "mul", "nonlinear"}),
    )
    params = HardwareParams(
        name="VectorDSP (custom)",
        frequency_hz=500e6,
        throughput={"alu": 64.0, "mul": 64.0, "div": 4.0, "nonlinear": 64.0},
        power_w=2.0,
        dram_bw=8e9,
        onchip_bw=128e9,
        dispatch_overhead_s=1e-7,
        efficiency=0.8,
    )


def main():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1024)

    # Reference execution, no custom rule set.
    plain = Executor(build(SOURCE, domain="DSP")).run(
        inputs={"x": x}, params={"gain": 0.5}
    )

    # The pipeline with the custom rule set appended.
    graph = PIPELINE.run(build(SOURCE, domain="DSP")).graph
    tuned = Executor(graph).run(inputs={"x": x}, params={"gain": 0.5})
    assert np.array_equal(plain.outputs["y"], tuned.outputs["y"])

    muls_before = sum(
        node.attrs["descriptor"].op_counts.get("mul", 0)
        for node in build(SOURCE, domain="DSP").compute_nodes()
    )
    muls_after = sum(
        node.attrs["descriptor"].op_counts.get("mul", 0)
        for node in graph.compute_nodes()
    )
    print(f"strength reduction: multiplies {muls_before} -> {muls_after}")

    # Compile for the custom accelerator through the same pipeline. Its
    # fingerprint is part of the artifact cache key, so this never aliases
    # a default-pipeline compile of the same source.
    session = CompilerSession({"DSP": VectorDsp()}, pipeline=PIPELINE)
    app = session.compile(SOURCE, domain="DSP")
    print("\nVectorDSP program:")
    print(app.programs["DSP"].listing())
    result, stats, _ = app.run(inputs={"x": x}, params={"gain": 0.5})
    assert np.allclose(result.outputs["y"], plain.outputs["y"])
    print(f"\nestimated runtime on VectorDSP: {stats.seconds * 1e6:.3f} us")


if __name__ == "__main__":
    main()
