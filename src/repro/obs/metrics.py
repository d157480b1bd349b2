"""The stack's one counter mechanism: :class:`Counters` groups in registries.

Every layer counts the same way. A :class:`Counters` is a locked group
of named counters — *declared* (a fixed field tuple; an unknown name
raises) or *open* (any key, e.g. one ``ruleset/rule.matches`` per rewrite
rule). A :class:`MetricsRegistry` owns groups by name next to *sources*
(callables returning a flat ``{counter: number}`` dict, for gauges and
state read under the owner's own lock) and answers one flat, namespaced
``snapshot()``.

There are two kinds of registry owner. Each
:class:`~repro.driver.CompilerSession` owns one (``plan``, ``cache``,
``session`` groups), and :data:`DEFAULT_REGISTRY` is what a layer bumps
when it is handed nothing: ``rewrite``, ``lowering`` and ``codegen`` live
there because a pipeline is a value shared by every session that runs it
and kernels are artifacts shared across sessions. See the "Observability" section of
``docs/ARCHITECTURE.md`` for the group table.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple


class Counters:
    """A locked group of named counters.

    ``Counters(fields)`` declares its counters (all start at zero and an
    unknown name raises :class:`AttributeError`); ``Counters()`` is open.
    Counter values read as attributes (``stats.plan_hits``); a
    :meth:`snapshot` is an independent copy that compares equal by value.
    """

    def __init__(self, fields=None, values=None):
        self._lock = threading.Lock()
        self._fields = None if fields is None else tuple(fields)
        self._values = dict.fromkeys(self._fields or (), 0)
        if values:
            self.merge(values)

    def bump(self, key=None, amount=1, **deltas):
        """``bump("ruleset/rule.matches")``, ``bump(key, n)`` or
        ``bump(hits=1, disk_hits=1)`` — keys need not be identifiers."""
        if deltas or key is None:
            if key is not None:
                deltas[key] = amount
            self.merge(deltas)
            return
        # One key, the per-call case (a kernel step counts itself): about
        # half of what merge's two passes over a mapping cost.
        with self._lock:
            values = self._values
            if self._fields is not None and key not in values:
                raise AttributeError(f"unknown counter {key!r}")
            values[key] = values.get(key, 0) + amount

    def merge(self, mapping):
        """Add every ``{name: delta}`` of *mapping* (e.g. a ``to_dict``);
        all of it or, on an unknown name, none of it."""
        with self._lock:
            values = self._values
            if self._fields is not None:
                for name in mapping:
                    if name not in values:
                        raise AttributeError(f"unknown counter {name!r}")
            for name, delta in mapping.items():
                values[name] = values.get(name, 0) + delta
        return self

    def to_dict(self):
        """``{name: value}`` — declared order, or sorted keys when open."""
        with self._lock:
            names = sorted(self._values) if self._fields is None else self._fields
            return {name: self._values[name] for name in names}

    def snapshot(self):
        return Counters(self._fields, self.to_dict())

    def reset(self):
        """Back to a new instance: declared fields at zero, open keys gone."""
        with self._lock:
            self._values = dict.fromkeys(self._fields or (), 0)
        return self

    def __getattr__(self, name):
        # Only reached for names that are not real attributes. Private
        # names must fail fast: copy/pickle probe them on instances whose
        # ``_values`` does not exist yet.
        if not name.startswith("_"):
            with self._lock:
                if name in self._values:
                    return self._values[name]
        raise AttributeError(name)

    def __eq__(self, other):
        if not isinstance(other, Counters):
            return NotImplemented
        return self._fields == other._fields and self.to_dict() == other.to_dict()

    __hash__ = None

    def __repr__(self):
        return f"Counters({self.to_dict()})"


class MetricsRegistry:
    """Named counter groups and sources behind one snapshot/reset API.

    ``snapshot()`` is the key-wise sum of everything the registry holds:
    its groups and sources (namespaced ``name.counter``), the registries
    it includes, and flat snapshots merged into it — which is how a
    retired worker process's counts join the live ones of its parent.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._own = Counters()
        self._groups: Dict[str, Counters] = {}
        self._sources: Dict[str, Tuple[Callable, Optional[Callable]]] = {}
        self._included: List["MetricsRegistry"] = []

    # -- groups and sources ------------------------------------------------

    def counters(self, name, fields=None):
        """The group *name*, created (declared by *fields*) on first use."""
        with self._lock:
            group = self._groups.get(name)
            if group is None:
                group = self._groups[name] = Counters(fields)
                self._sources[name] = (group.to_dict, group.reset)
            return group

    def register(self, name, snapshot, reset=None):
        """Attach a counter source under *name*.

        *snapshot* must be a callable returning a ``{counter: number}``
        dict; *reset*, when given, zeroes the source. Registering the same
        name again replaces the source (the latest wiring wins).
        """
        if not callable(snapshot):
            raise TypeError(f"snapshot for {name!r} is not callable")
        if reset is not None and not callable(reset):
            raise TypeError(f"reset for {name!r} is not callable")
        with self._lock:
            self._sources[name] = (snapshot, reset)
        return self

    def include(self, registry):
        """Add *registry*'s snapshot (un-prefixed) to this one's."""
        with self._lock:
            self._included.append(registry)
        return self

    def sources(self):
        """Sorted names of every group and source, included ones too."""
        with self._lock:
            names = set(self._sources)
            included = list(self._included)
        return sorted(names.union(*(r.sources() for r in included)))

    # -- un-namespaced counters --------------------------------------------

    def bump(self, name, delta=1):
        """Increment the registry-owned counter *name* by *delta*."""
        self._own.bump(name, delta)
        return self

    def merge(self, flat):
        """Add a flat snapshot (another registry's, another process's)."""
        self._own.merge(flat)
        return self

    def get(self, name, default=0):
        return self._own.to_dict().get(name, default)

    # -- snapshot / reset --------------------------------------------------

    def snapshot(self):
        """One flat dict; values landing on the same key add.

        Source snapshots run outside the registry lock (they take their
        own locks; holding ours while calling theirs invites the exact
        lock-ordering bugs this layer exists to retire).
        """
        flat = self._own.to_dict()
        with self._lock:
            sources = list(self._sources.items())
            included = list(self._included)
        parts = [
            {f"{name}.{key}": value for key, value in snapshot().items()}
            for name, (snapshot, _) in sources
        ]
        parts += [registry.snapshot() for registry in included]
        for part in parts:
            for key, value in part.items():
                flat[key] = flat[key] + value if key in flat else value
        return flat

    def reset(self):
        """Reset the own counters, every group, every source that offered
        a reset, and every included registry."""
        self._own.reset()
        with self._lock:
            sources = list(self._sources.values())
            included = list(self._included)
        for _, reset in sources:
            if reset is not None:
                reset()
        for registry in included:
            registry.reset()
        return self

    # -- output ------------------------------------------------------------

    def render(self):
        """Sorted ``name = value`` lines of the current snapshot."""
        snapshot = self.snapshot()
        width = max((len(name) for name in snapshot), default=0)
        return "\n".join(
            f"{name:{width}s} = {snapshot[name]}" for name in sorted(snapshot)
        )

    def __len__(self):
        return len(self._own.to_dict()) + len(self.sources())


#: The process-default registry: what a layer bumps when handed nothing.
DEFAULT_REGISTRY = MetricsRegistry()
