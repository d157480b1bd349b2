"""Unit suite for shape bindings and bucket policies.

The contracts under test:

* :class:`ShapeBinding` is immutable, canonically ordered, and rejects
  non-positive or non-integer extents with a :class:`ShapeError` that
  names the offending dim,
* :class:`BucketPolicy` only ever rounds *up* (a bucketed program can
  serve any request whose dims fit inside it) and parses round-trip
  from its spec string,
* workload ``with_dims`` re-instantiates at the new extents (the MPC
  matrices and FFT signal follow the dims) and ``validate_dims`` /
  ``validate_dim_names`` split raw-name checks from structural
  constraints so bucket rounding can happen in between.
"""

from __future__ import annotations

import pytest

from repro.errors import ShapeError
from repro.srdfg.shapes import BucketPolicy, ShapeBinding
from repro.workloads import get_workload


# ---------------------------------------------------------------------------
# ShapeBinding
# ---------------------------------------------------------------------------


def test_binding_is_canonical_and_hashable():
    a = ShapeBinding({"n": 8, "m": 3})
    b = ShapeBinding(m=3, n=8)
    assert a == b
    assert hash(a) == hash(b)
    assert a.key() == (("m", 3), ("n", 8))
    assert a.names() == ("m", "n")
    assert a.as_dict() == {"m": 3, "n": 8}
    assert a["n"] == 8 and a.get("q") is None
    assert "m" in a and "q" not in a
    assert len(a) == 2 and list(a) == ["m", "n"]
    assert a.describe() == "m=3 n=8"
    assert a.fingerprint() == b.fingerprint()


def test_binding_is_immutable_and_merge_derives():
    binding = ShapeBinding(n=4)
    with pytest.raises(AttributeError):
        binding._dims = ()
    merged = binding.merge({"n": 16}, m=2)
    assert merged == ShapeBinding(n=16, m=2)
    assert binding == ShapeBinding(n=4)  # original untouched
    assert not ShapeBinding()
    assert binding


@pytest.mark.parametrize("bad", [0, -3, 2.5, "8", True])
def test_binding_rejects_bad_extents(bad):
    with pytest.raises(ShapeError) as info:
        ShapeBinding(n=bad)
    assert info.value.name == "n"


# ---------------------------------------------------------------------------
# BucketPolicy
# ---------------------------------------------------------------------------


def test_policy_parse_round_trips():
    for spec in ("exact", "pow2", "multiple:16"):
        policy = BucketPolicy.parse(spec)
        assert policy.describe() == spec
        assert BucketPolicy.parse(policy) is policy
    assert BucketPolicy.parse(None) == BucketPolicy("exact")
    with pytest.raises(ShapeError):
        BucketPolicy.parse("fibonacci")
    with pytest.raises(ShapeError):
        BucketPolicy.parse("multiple:x")
    with pytest.raises(ShapeError):
        BucketPolicy("multiple", 0)


@pytest.mark.parametrize(
    ("spec", "value", "expected"),
    [
        ("exact", 1000, 1000),
        ("pow2", 1, 1),
        ("pow2", 2, 2),
        ("pow2", 1000, 1024),
        ("pow2", 1024, 1024),
        ("pow2", 1025, 2048),
        ("multiple:16", 1, 16),
        ("multiple:16", 16, 16),
        ("multiple:16", 17, 32),
    ],
)
def test_policy_rounds_up_never_down(spec, value, expected):
    assert BucketPolicy.parse(spec).round_dim(value) == expected
    assert expected >= value


def test_policy_buckets_bindings():
    binding = ShapeBinding(n=1000, m=5)
    assert BucketPolicy.parse("exact").bucket(binding) is binding
    assert BucketPolicy.parse("pow2").bucket(binding) == ShapeBinding(
        n=1024, m=8
    )
    assert BucketPolicy.parse("multiple:6").bucket(binding) == ShapeBinding(
        n=1002, m=6
    )


# ---------------------------------------------------------------------------
# ShapeError payload
# ---------------------------------------------------------------------------


def test_shape_error_mismatch_carries_expected_and_got():
    error = ShapeError.mismatch("x0", (3, 30), (4, 30), kind="state")
    assert error.name == "x0"
    assert error.expected == (3, 30)
    assert error.got == (4, 30)
    assert "(3, 30)" in str(error) and "(4, 30)" in str(error)
    assert "state" in str(error)


# ---------------------------------------------------------------------------
# Workload dims: with_dims / validate split
# ---------------------------------------------------------------------------


def test_with_dims_reinstantiates_at_new_extents():
    base = get_workload("FFT-8192")
    small = base.with_dims(n=1024)
    assert base.dims() == {"n": 8192}
    assert small.dims() == {"n": 1024}
    assert small.shape_binding() == ShapeBinding(n=1024)
    # The derived input signal follows the dims.
    assert len(small.inputs(0, None)["sig"]) == 1024
    assert base.with_dims() is base


def test_validate_dim_names_vs_validate_dims():
    fft = get_workload("FFT-8192")
    # Raw-name check passes for any positive extent of a declared dim...
    type(fft).validate_dim_names({"n": 1000})
    # ...while the structural check rejects a non-power-of-two,
    with pytest.raises(ShapeError):
        type(fft).validate_dims({"n": 1000})
    # and both reject undeclared names, listing what is declared.
    with pytest.raises(ShapeError) as info:
        type(fft).validate_dim_names({"batch": 4})
    assert "batch" in str(info.value) and "n" in str(info.value)


def test_validate_values_reports_expected_vs_got():
    import numpy as np

    robot = get_workload("MobileRobot")
    good = robot.initial_state()
    robot.validate_values(dict(good), modifier="state")

    name, value = next(iter(good.items()))
    bad = dict(good)
    bad[name] = np.zeros(np.asarray(value).shape + (2,))
    with pytest.raises(ShapeError) as info:
        robot.validate_values(bad, modifier="state")
    assert info.value.name == name
    assert info.value.expected == tuple(np.asarray(value).shape)

    with pytest.raises(ShapeError):
        robot.validate_values({"no_such_tensor": np.zeros(3)}, modifier="state")
