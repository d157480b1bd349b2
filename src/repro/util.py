"""Small shared utilities used across the stack."""

from __future__ import annotations

import numpy as np


def geomean(values):
    """Geometric mean over the positive entries of *values*.

    Non-positive entries are ignored (a speedup of zero is a measurement
    artefact, not a data point); an empty or all-non-positive input yields
    0.0. This is the single geomean implementation — the evaluation
    figures, tables, and benchmarks all import it from here.
    """
    array = np.asarray([value for value in values if value > 0], dtype=np.float64)
    if array.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(array))))


class ReadOnlyDict(dict):
    """A ``dict`` that refuses every mutation after construction.

    The mapping fields of the frozen configuration values
    (``HardwareParams.throughput``, ``AcceleratorSpec.translations``) hold
    one: those values compute their cache-key text once, so an in-place
    edit must raise instead of leaving a stale key. Being a ``dict``, it
    reprs, compares and serialises exactly like the plain dict it wraps.
    """

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # Rebuild through the constructor: unpickling and ``copy`` would
        # otherwise refill the dict through the refused ``__setitem__``.
        return type(self), (dict(self),)
