"""Built-in scalar functions and group reductions of PMLang.

§II-C of the paper lists non-linear operations (sine/cosine, gaussian,
sigmoid/ReLU, ...) and group reductions (sum, prod, max, ...). Each entry
here pairs the language-level name with a vectorised numpy implementation
used by the srDFG interpreter and with a cost class consumed by the
hardware models (a ``sigmoid`` costs more than an ``add`` on every target
that lacks a dedicated unit).

``sigmoid`` and ``phi`` are the only entries backed by ``scipy.special``
(``expit``, ``ndtr``). They reach it through :func:`special`, which imports
it on first call, so a process that only compiles, plans and builds
kernels never loads scipy. Their rows name a numpy stand-in with the same
result dtype, which the kernel emitter runs on its build-time shadows in
place of the real function.
"""

from __future__ import annotations

import functools

import numpy as np

#: Cost classes let hardware models price operations without knowing
#: language-level names: "alu" (add/sub/cmp/...), "mul", "div", and
#: "nonlinear" (transcendentals, usually a lookup table or multi-cycle unit).
COST_ALU = "alu"
COST_MUL = "mul"
COST_DIV = "div"
COST_NONLINEAR = "nonlinear"


def _gaussian(x):
    """The Gaussian kernel exp(-x^2) used by robotics/DSP workloads."""
    return np.exp(-np.square(x))


def _relu(x):
    return np.maximum(x, 0.0)


@functools.cache
def special():
    """``scipy.special``, imported on the first call."""
    from scipy import special as module

    return module


def _sigmoid(x):
    return special().expit(x)


def _phi(x):
    """Standard normal CDF (Black-Scholes uses this heavily)."""
    return special().ndtr(x)


def _rsqrt(x):
    return 1.0 / np.sqrt(x)


#: name -> (implementation, arity, cost class, dtype stand-in). The
#: stand-in is a numpy function with the implementation's result dtype on
#: float operands, or None when the implementation is plain numpy itself.
SCALAR_FUNCTIONS = {
    "sin": (np.sin, 1, COST_NONLINEAR, None),
    "cos": (np.cos, 1, COST_NONLINEAR, None),
    "tan": (np.tan, 1, COST_NONLINEAR, None),
    "asin": (np.arcsin, 1, COST_NONLINEAR, None),
    "acos": (np.arccos, 1, COST_NONLINEAR, None),
    "atan": (np.arctan, 1, COST_NONLINEAR, None),
    "atan2": (np.arctan2, 2, COST_NONLINEAR, None),
    "exp": (np.exp, 1, COST_NONLINEAR, None),
    "ln": (np.log, 1, COST_NONLINEAR, None),
    "log": (np.log, 1, COST_NONLINEAR, None),
    "log2": (np.log2, 1, COST_NONLINEAR, None),
    "sqrt": (np.sqrt, 1, COST_NONLINEAR, None),
    "rsqrt": (_rsqrt, 1, COST_NONLINEAR, None),
    "sigmoid": (_sigmoid, 1, COST_NONLINEAR, np.exp),
    "tanh": (np.tanh, 1, COST_NONLINEAR, None),
    "relu": (_relu, 1, COST_ALU, None),
    "gaussian": (_gaussian, 1, COST_NONLINEAR, None),
    "phi": (_phi, 1, COST_NONLINEAR, np.exp),
    "abs": (np.abs, 1, COST_ALU, None),
    "floor": (np.floor, 1, COST_ALU, None),
    "ceil": (np.ceil, 1, COST_ALU, None),
    "sign": (np.sign, 1, COST_ALU, None),
    "pow": (np.power, 2, COST_NONLINEAR, None),
    "fmin": (np.minimum, 2, COST_ALU, None),
    "fmax": (np.maximum, 2, COST_ALU, None),
}


#: Built-in group reductions: name -> (reduce-over-axes implementation,
#: identity element or None when the reduction needs at least one element).
def _reduce_sum(values, axes):
    return np.sum(values, axis=axes)


def _reduce_prod(values, axes):
    return np.prod(values, axis=axes)


def _reduce_max(values, axes):
    return np.max(values, axis=axes)


def _reduce_min(values, axes):
    return np.min(values, axis=axes)


def _flatten_axes(values, axes):
    """Move *axes* to the back and flatten them into one axis."""
    kept = [axis for axis in range(values.ndim) if axis not in axes]
    rearranged = np.transpose(values, kept + list(axes))
    lead = rearranged.shape[: len(kept)]
    return rearranged.reshape(lead + (-1,))


def _reduce_argmax(values, axes):
    return np.argmax(_flatten_axes(values, axes), axis=-1)


def _reduce_argmin(values, axes):
    return np.argmin(_flatten_axes(values, axes), axis=-1)


GROUP_REDUCTIONS = {
    "sum": (_reduce_sum, 0.0),
    "prod": (_reduce_prod, 1.0),
    "max": (_reduce_max, None),
    "min": (_reduce_min, None),
    "argmax": (_reduce_argmax, None),
    "argmin": (_reduce_argmin, None),
}


#: Cost class per binary operator text.
BINOP_COST = {
    "+": COST_ALU,
    "-": COST_ALU,
    "*": COST_MUL,
    "/": COST_DIV,
    "%": COST_DIV,
    "^": COST_NONLINEAR,
    "==": COST_ALU,
    "!=": COST_ALU,
    "<": COST_ALU,
    ">": COST_ALU,
    "<=": COST_ALU,
    ">=": COST_ALU,
    "&&": COST_ALU,
    "||": COST_ALU,
}


def is_builtin_function(name):
    """True when *name* is a built-in scalar function."""
    return name in SCALAR_FUNCTIONS


def is_builtin_reduction(name):
    """True when *name* is a built-in group reduction."""
    return name in GROUP_REDUCTIONS


def function_cost_class(name):
    """Cost class for built-in function *name* ("alu"/"mul"/"div"/"nonlinear")."""
    return SCALAR_FUNCTIONS[name][2]
