"""Workload abstraction shared by all benchmarks (Table III / Table IV).

A workload bundles a PMLang program, its parameter data (synthetic
datasets), a driver that threads state across invocations, a reference
implementation, and the data hints the cost models need; its datasets
materialize on first read (:class:`once`). The evaluation harness
consumes workloads uniformly:

* ``check_functional()`` — compile, execute a few invocations through the
  srDFG interpreter, and compare against the numpy reference;
* ``perf_iterations`` — how many invocations one *paper-scale* run
  performs (an MPC run is 1024 control steps; a k-means run is 20 Lloyd
  iterations; an FFT is a single transform), used to scale per-invocation
  PerfStats analytically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from ..errors import ShapeError, WorkloadError
from ..srdfg.builder import build
from ..srdfg.interpreter import Executor
from ..srdfg.shapes import ShapeBinding


def substitute(template, **values):
    """Fill ``{name}`` placeholders without disturbing code braces.

    Unlike ``str.format``, only placeholders whose names are passed are
    replaced, so PMLang's ``{``/``}`` block delimiters need no escaping.
    """
    import re

    def replace(match):
        key = match.group(1)
        if key in values:
            return str(values[key])
        return match.group(0)

    return re.sub(r"\{(\w+)\}", replace, template)


def count_loc(source):
    """Lines of code of a PMLang/Python source (non-blank, non-comment)."""
    total = 0
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(("//", "#")):
            continue
        total += 1
    return total


#: Guards the creation of each instance's :class:`once` lock (only).
_ONCE_GUARD = threading.Lock()


class once:
    """A per-instance attribute computed on its first read, exactly once.

    The method runs under its instance's reentrant lock (so one ``once``
    attribute may read another), and its value lands in the instance
    ``__dict__``, where it shadows this non-data descriptor: every later
    read is a plain instance-dict read. Concurrent first reads of one
    instance compute once and share the object; different instances
    never wait on each other — unlike ``functools.cached_property``,
    which locks per descriptor on 3.11 and not at all on 3.12+. A method
    that raises stores nothing.
    """

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        values = instance.__dict__
        lock = values.get("_once_lock")
        if lock is None:
            with _ONCE_GUARD:
                lock = values.setdefault("_once_lock", threading.RLock())
        with lock:
            if self.name not in values:
                values[self.name] = self.method(instance)
            return values[self.name]


@dataclass
class CheckResult:
    """Outcome of a functional validation run."""

    ok: bool
    error: float
    detail: str = ""


class Workload:
    """One benchmark: program + data + driver + oracle.

    Subclasses declare their data as :class:`once` attributes and define
    no ``__init__``: constructing a workload, reading its ``source()``,
    ``dims()`` or ``shape_binding()``, and specializing it with
    :meth:`with_dims` generate nothing.
    """

    #: Table III metadata.
    name = "workload"
    domain = "DA"
    algorithm = ""
    config = ""

    #: Invocations for one paper-scale run (scales PerfStats).
    perf_iterations = 1
    #: Invocations actually executed during functional validation.
    functional_steps = 1
    #: Relative tolerance for the reference comparison.
    rtol = 1e-6
    atol = 1e-8

    #: Accelerator overrides, e.g. {"DA": "hyperstreams"}.
    accelerator_overrides: Dict[str, str] = {}

    #: Names of class attributes that are symbolic dims — the extents a
    #: request may rebind (``Request(dims=...)`` / ``with_dims``). Empty
    #: means the workload is static-shape only.
    symbolic_dims: tuple = ()

    def source(self):
        """PMLang program text."""
        raise NotImplementedError

    def params(self):
        """Constant ``param`` values for every invocation."""
        return {}

    def shared_params(self):
        """:meth:`params`, computed once per instance, arrays read-only.

        Every :class:`Trajectory` of this instance steps these same
        values, so tables such as the FFT's twiddles are built once, not
        per request; the read-only views make a step that writes into one
        raise instead of corrupting every later request.
        """
        return self._shared_params

    @once
    def _shared_params(self):
        params = {}
        for name, value in self.params().items():
            if isinstance(value, np.ndarray):
                value = value.view()
                value.flags.writeable = False
            params[name] = value
        return params

    def initial_state(self):
        """Initial ``state`` values (zeros by default)."""
        return {}

    def inputs(self, step, previous):
        """``input`` values for invocation *step* (*previous* is the last
        ExecutionResult, None on the first call)."""
        return {}

    def hints(self):
        """Cost-model hints: op_scale, vertices/edges for graph targets."""
        return {}

    def reference(self):
        """Reference result to compare the functional run against."""
        raise NotImplementedError

    def extract(self, results):
        """Observable value from the invocation history for comparison."""
        raise NotImplementedError

    # -- symbolic dims ----------------------------------------------------------

    def dims(self) -> Dict[str, int]:
        """Concrete extents of the declared symbolic dims."""
        return {name: int(getattr(self, name)) for name in self.symbolic_dims}

    def shape_binding(self) -> ShapeBinding:
        """This instance's dims as an immutable :class:`ShapeBinding`."""
        return ShapeBinding(self.dims())

    @classmethod
    def validate_dims(cls, dims):
        """Reject dim overrides the workload cannot compile.

        The base check is membership + positivity; workloads with
        structural constraints (FFT sizes must be powers of two, DCT
        block multiples) override this and raise :class:`ShapeError`.
        The server checks only :meth:`validate_dim_names` on the *raw*
        request dims, then runs this on the *bucketed* dims — so a pow2
        bucket policy may round a request into validity (n=1000 into a
        1024 FFT) and the constraint applies to what actually compiles.
        """
        cls.validate_dim_names(dims)

    @classmethod
    def validate_dim_names(cls, dims):
        """The bucket-policy-independent half of :meth:`validate_dims`:
        every override must name a declared symbolic dim and be a
        positive int."""
        unknown = sorted(set(dims) - set(cls.symbolic_dims))
        if unknown:
            declared = ", ".join(cls.symbolic_dims) or "none"
            raise ShapeError(
                f"workload {cls.name!r} declares no symbolic dim "
                f"{unknown[0]!r} (declared: {declared})",
                name=unknown[0],
            )
        for name, value in dims.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ShapeError(
                    f"dim {name!r} must be an int, "
                    f"got {type(value).__name__}",
                    name=name,
                )
            if value < 1:
                raise ShapeError(
                    f"dim {name!r} must be >= 1, got {value}", name=name
                )

    def with_dims(self, **overrides):
        """A new instance specialized at the overridden dims.

        The overrides become class attributes of a throwaway subclass, so
        the new instance's data — the MPC problem matrices, the FFT input
        signal — is generated at the new extents on its first read, and
        nothing is generated here. ``with_dims()`` with no overrides
        returns ``self``.
        """
        if not overrides:
            return self
        cls = type(self)
        cls.validate_dims(overrides)
        specialized = type(cls.__name__, (cls,), dict(overrides))
        specialized.__module__ = cls.__module__
        return specialized()

    def _declared_shapes(self, modifier):
        shapes = {}
        for node in self.cached_graph().var_nodes():
            if node.attrs.get("modifier") == modifier:
                shapes[node.name] = tuple(node.attrs.get("shape", ()))
        return shapes

    def validate_values(self, values, modifier="input"):
        """Check user-supplied arrays against declared shapes.

        Raises a descriptive :class:`ShapeError` (expected vs got) on the
        first mismatch or unknown name; silently accepts names the
        program does not declare a shape for. Used by the serving layer
        at admission, before a worker is occupied.
        """
        declared = self._declared_shapes(modifier)
        for name, value in values.items():
            expected = declared.get(name)
            if expected is None:
                known = ", ".join(sorted(declared)) or "none"
                raise ShapeError(
                    f"workload {self.name!r} declares no {modifier} "
                    f"{name!r} (declared: {known})",
                    name=name,
                )
            got = tuple(np.shape(value))
            if got != expected:
                raise ShapeError.mismatch(
                    name, expected, got, kind=modifier
                )

    # -- shared machinery -------------------------------------------------------

    @property
    def pmlang_loc(self):
        return count_loc(self.source())

    def build_graph(self):
        return build(self.source(), domain=self.domain)

    def cached_graph(self):
        """The workload's srDFG, built once per workload instance.

        Combined with the per-graph execution-plan memo this means a
        workload's reference driver plans its program exactly once, no
        matter how many validation or chaos runs reuse the instance.
        """
        return self._graph

    @once
    def _graph(self):
        return self.build_graph()

    def run_functional(self, graph=None, steps=None):
        """Execute the program for *steps* invocations, threading state.

        Returns the list of ExecutionResults. All steps share one
        execution plan (the Executor plans lazily on the first step and
        reuses the plan after that).
        """
        if graph is None:
            graph = self.cached_graph()
        executor = Executor(graph)
        trajectory = Trajectory(self)
        if steps is None:
            steps = self.functional_steps
        return [trajectory.step(executor.run) for _ in range(steps)]

    def check_functional(self, graph=None):
        """Validate srDFG execution against the reference implementation."""
        results = self.run_functional(graph=graph)
        measured = self.extract(results)
        expected = self.reference()
        measured = np.asarray(measured, dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        if measured.shape != expected.shape:
            return CheckResult(
                ok=False,
                error=float("inf"),
                detail=f"shape mismatch {measured.shape} vs {expected.shape}",
            )
        denom = np.maximum(np.abs(expected), 1.0)
        error = float(np.max(np.abs(measured - expected) / denom))
        ok = bool(
            np.allclose(measured, expected, rtol=self.rtol, atol=self.atol)
        )
        return CheckResult(ok=ok, error=error)


class Trajectory:
    """One stateful run of a workload: PMLang's ``state`` modifier as an
    explicit container handed from one invocation to the next, and the
    only place a prior result is threaded into :meth:`Workload.inputs`.

    A one-shot request steps a fresh one (seeded from *state* / *index*
    to replay a trajectory mid-way), a serving session retains one, and
    :meth:`Workload.run_functional`, ``repro chaos`` and the tier
    comparisons step the same object.
    """

    __slots__ = ("workload", "params", "state", "index", "previous")

    def __init__(self, workload, state=None, index=0):
        self.workload = workload
        self.params = workload.shared_params()
        #: Live ``state`` arrays: *state* or the workload's own initial.
        self.state = {
            key: np.asarray(value)
            for key, value in (state or workload.initial_state()).items()
        }
        #: Index of the next invocation (what ``inputs`` is asked for).
        self.index = index
        #: The last committed ExecutionResult (None before the first).
        self.previous = None

    def step(self, invoke, inputs=None):
        """Run the next invocation through *invoke*; returns its result.

        *invoke* is called as ``invoke(inputs=, params=, state=)`` and
        returns an ExecutionResult (``plan.execute``, ``Executor.run``, a
        HostManager closure). *inputs* overrides the workload's generator
        for this step. State advances only on success: ``state``,
        ``index`` and ``previous`` are committed after *invoke* returns,
        so a step that raises can be retried.
        """
        if inputs is None:
            inputs = self.workload.inputs(self.index, self.previous)
        result = invoke(inputs=inputs, params=self.params, state=self.state)
        self.state = result.state
        self.previous = result
        self.index += 1
        return result


#: Global registry: name -> factory.
_REGISTRY: Dict[str, Callable[[], Workload]] = {}


def register(factory):
    """Class decorator registering a workload under its ``name``."""
    instance_name = factory.name
    if instance_name in _REGISTRY:
        raise WorkloadError(f"duplicate workload {instance_name!r}")
    _REGISTRY[instance_name] = factory
    return factory


def get_workload(name, dims=None, **kwargs):
    """Resolve *name*, optionally specialized at the *dims* binding."""
    factory = _REGISTRY.get(name)
    if factory is None:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        )
    workload = factory(**kwargs)
    if dims:
        workload = workload.with_dims(**dict(dims))
    return workload


def workload_names():
    return sorted(_REGISTRY)
