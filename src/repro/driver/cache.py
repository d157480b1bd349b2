"""Content-addressed artifact cache for compiled applications.

Compiling the same workload repeatedly is the harness's common case (each
figure recompiles its workloads, ``bench_ablation`` recompiles per
configuration), so the session keys every compile on

    (source hash, entry, domain annotations,
     accelerator config fingerprint, pass-pipeline fingerprint)

and serves repeats from memory — or, when a ``cache_dir`` is given, from a
pickle-per-key on-disk tier that survives across processes. The disk tier
degrades gracefully in both directions: an artifact that will not pickle
(or a disk that will not accept it) stays memory-only, and a corrupt,
truncated, or unreadable on-disk entry is treated as a miss — evicted and
reported through the session's diagnostics — never raised out of ``get``.

Plans and generated kernels are cached the same way: each is one declared
:class:`Tier` (counters, optional disk codec, siblings evicted with it)
behind the one ``get`` / ``put`` / ``evict`` of :class:`ArtifactCache`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..codegen import KernelArtifact, kernel_cache_key
from ..obs import Counters
from .lease import Lease


def fingerprint(*parts):
    """sha256 hex digest over the stable repr of *parts*."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def accelerator_fingerprint(accelerators):
    """Stable fingerprint of an accelerator configuration dict.

    Captures everything translation and cost modelling depend on: the
    backend class, its name, the AccSpec capability sets, and the full
    hardware parameter set (so a DSE-configured variant never aliases the
    stock backend). Workload ``data_hints`` are deliberately excluded —
    they are bound per compile and do not change the compiled artifact.
    """
    parts = []
    for domain in sorted(accelerators):
        accelerator = accelerators[domain]
        spec = accelerator.spec
        parts.append(
            (
                domain,
                type(accelerator).__name__,
                accelerator.name,
                tuple(sorted(spec.supported_ops)),
                tuple(sorted(spec.scalar_classes)),
                tuple(sorted(spec.macro_components)),
                tuple(sorted(spec.translations)),
                repr(accelerator.params),
            )
        )
    return fingerprint(*parts)


#: Counter attribute names, in render order.
_STAT_FIELDS = (
    "hits",
    "misses",
    "stores",
    "disk_hits",
    "disk_errors",
    "plan_hits",
    "plan_misses",
    "plan_stores",
    "kernel_hits",
    "kernel_misses",
    "kernel_stores",
    "kernel_disk_hits",
    "kernel_evictions",
    "lease_acquired",
    "lease_waited",
    "lease_reclaimed",
    "lease_timeouts",
)


class CacheStats(Counters):
    """The ``cache`` counter group of one cache instance (hit/miss
    accounting), plus its one-line rendering.

    The ``lease_*`` fields count cross-process single-flight (see
    :meth:`ArtifactCache.build_once`): leases this process won (it
    built), waits that ended with another process's artifact, stale
    leases reclaimed from dead builders, and waits that timed out into a
    defensive local build.
    """

    def __init__(self):
        super().__init__(_STAT_FIELDS)

    def render(self):
        line = f"{self.hits} hit(s) / {self.misses} miss(es), {self.stores} store(s)"
        if self.disk_hits or self.disk_errors:
            line += f"; disk: {self.disk_hits} hit(s), {self.disk_errors} error(s)"
        for tier in (PLAN, KERNEL):
            hits, misses, stores, evicted = (
                getattr(self, tier.prefix + event, 0)
                for event in ("hits", "misses", "stores", "evictions")
            )
            if hits or misses or stores or evicted:
                line += (
                    f"; {tier.name}s: {hits} hit(s) / {misses} miss(es), "
                    f"{stores} store(s)"
                )
                if evicted:
                    line += f", {evicted} evicted"
        return line


@dataclass(frozen=True, eq=False)
class Tier:
    """One kind of cached thing — all that differs between the tiers."""

    #: Labels the tier's memory table and its diagnostics.
    name: str
    #: Selects its counters: ``<prefix>hits``, ``<prefix>misses``, ... —
    #: those of them that :data:`_STAT_FIELDS` declares.
    prefix: str = ""
    #: ``(encode, decode)`` between a value and its picklable disk record;
    #: None for a memory-only tier.
    codec: Optional[tuple] = None
    #: ``(tier, key -> sibling key)`` entries that go when one of this
    #: tier's does.
    evicts: tuple = ()


def _same(value):
    return value


#: What the disk keeps of a kernel — its *source record*, which is
#: ``KernelArtifact``'s own constructor arguments: code objects and exec'd
#: functions do not pickle, the source does, and a disk hit recompiles it
#: (raising, like any undecodable entry, on truncated or stale source).
_KERNEL_RECORD = ("plan_key", "source", "constants", "scratch_specs", "report")

#: Compiled applications, keyed by :meth:`CompilerSession.cache_key`.
COMPILE = Tier("compile", codec=(_same, _same))
#: Generated kernels, keyed by :func:`repro.codegen.kernel_cache_key` — a
#: pure derivation of the owning plan's key, so plan eviction can always
#: find its sibling. A disk hit recompiles the stored source record.
KERNEL = Tier(
    "kernel",
    "kernel_",
    codec=(
        lambda kernel: {name: getattr(kernel, name) for name in _KERNEL_RECORD},
        lambda record: KernelArtifact(**record),
    ),
)
#: Execution plans, keyed by :func:`repro.srdfg.plan.plan_cache_key` (the
#: graph's *structure*, so a replay that rebuilt an identical graph still
#: hits). Memory-only: plans hold live numpy closures. A stale plan must
#: never leave its kernel behind — the kernel bakes its shapes in.
PLAN = Tier("plan", "plan_", evicts=((KERNEL, kernel_cache_key),))

TIERS = (COMPILE, PLAN, KERNEL)


@dataclass
class ArtifactCache:
    """Memory + optional disk cache over the declared tiers (:data:`TIERS`).

    Thread-safe: one cache instance is shared by every worker of the
    serving layer. Tier tables and stats mutate under an internal RLock,
    and disk entries are written via temp-file + ``os.replace`` so a
    concurrent reader (same process or another one sharing the directory)
    can never observe a truncated pickle.
    """

    cache_dir: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional :class:`~repro.driver.diagnostics.Diagnostics` sink for
    #: disk-tier degradation warnings (the session wires its own in).
    diagnostics: Optional[object] = None
    _tables: Dict[str, Dict[object, object]] = field(
        default_factory=lambda: {tier.name: {} for tier in TIERS}
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    _lease_warned: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key):
        return self.cache_dir / f"{key}.pkl"

    def _warn(self, message):
        if self.diagnostics is not None:
            self.diagnostics.warning(message, stage="cache")

    def _on_disk(self, tier):
        return tier.codec is not None and self.cache_dir is not None

    def _count(self, tier, *events):
        names = (tier.prefix + event for event in events)
        self.stats.merge({name: 1 for name in names if name in _STAT_FIELDS})

    def get(self, tier, key):
        """Cached value of *key* in *tier*, or None (counts a hit/miss).

        Memory first, then — for a tier with a codec, under a
        ``cache_dir`` — the disk entry decoded. A corrupt, truncated,
        unreadable or undecodable entry is a *miss*: it is evicted (best
        effort) and reported, and the caller simply rebuilds. No
        disk-tier failure ever escapes this method.
        """
        with self._lock:
            table = self._tables[tier.name]
            value = table.get(key)
            if value is not None:
                self._count(tier, "hits")
                return value
            if self._on_disk(tier):
                stage = "cache"
                try:
                    path = self._path(key)
                    if path.exists():
                        record = pickle.loads(path.read_bytes())
                        stage = "source"
                        value = tier.codec[1](record)
                except Exception as exc:
                    self.stats.bump(disk_errors=1)
                    self._unlink(key)
                    self._warn(
                        f"evicted corrupt {tier.name} {stage} entry "
                        f"{key[:12]}… ({type(exc).__name__}); "
                        f"treating as a miss"
                    )
                if value is not None:
                    table[key] = value
                    self._count(tier, "hits", "disk_hits")
                    return value
            self._count(tier, "misses")
            return None

    def put(self, tier, key, value):
        """Publish *value*; False when the tier has a disk form that this
        value cannot take (it will not pickle: it stays memory-only,
        counted and reported)."""
        with self._lock:
            self._tables[tier.name][key] = value
            self._count(tier, "stores")
            if not self._on_disk(tier):
                return True
            try:
                payload = pickle.dumps(tier.codec[0](value))
            except Exception as exc:
                self.stats.bump(disk_errors=1)
                self._warn(
                    f"{tier.name} {key[:12]}… is not picklable "
                    f"({type(exc).__name__}: {exc}); entry is memory-only"
                )
                return False
            self._write_disk(key, payload)
            return True

    def evict(self, tier, key):
        """Drop *key* from *tier* — memory and disk — and, with it, the
        sibling entries the tier declares. True if the entry existed."""
        with self._lock:
            existed = self._tables[tier.name].pop(key, None) is not None
            if self._on_disk(tier) and self._unlink(key):
                existed = True
            if existed:
                self._count(tier, "evictions")
            for sibling, sibling_key in tier.evicts:
                self.evict(sibling, sibling_key(key))
            return existed

    def _unlink(self, key):
        try:
            self._path(key).unlink()
        except OSError:
            return False
        return True

    def _write_disk(self, key, payload):
        """Atomically publish *payload* at the key's path.

        Write-to-temp + ``os.replace`` means a reader racing this write
        sees either the complete old entry or the complete new one, never
        a truncated pickle — so the corrupt-evict path in :meth:`get`
        only ever fires for genuine disk corruption, not for in-progress
        writes by a sibling process.
        """
        path = self._path(key)
        tmp = path.with_name(
            f".{key}.{os.getpid()}-{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        except OSError as exc:
            # A full/read-only disk degrades to the memory tier.
            self.stats.bump(disk_errors=1)
            self._warn(
                f"disk cache write failed for {key[:12]}… "
                f"({type(exc).__name__}); entry is memory-only"
            )
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- build and publish, once across processes ---------------------------

    def _lease_path(self, key):
        return self.cache_dir / f"{key}.lease"

    def _published(self, key):
        """Stats-free existence check for the disk entry of *key* — the
        predicate polled while waiting on another process's lease, which
        must not inflate hit/miss counters."""
        try:
            return self._path(key).exists()
        except OSError:
            return False

    def build_once(self, tier, key, builder, wait_timeout_s=120.0):
        """Run *builder* for a *key* that just missed and publish its
        value (None — a declined build — is returned unpublished).

        For a tier with a disk form under a ``cache_dir``, the build is
        coordinated with every process sharing the directory. Returns
        ``(value, provenance)``: ``"built"`` (this process ran
        *builder*, holding the lease when there is one) or
        ``"coalesced"`` (another process built it while we waited on the
        artifact). *builder* runs **without** the cache lock held.

        The lease protocol never deadlocks: a crashed holder's lease is
        reclaimed (pid probe or ttl), and a wait that times out degrades
        to building locally — the atomic disk publish makes the
        duplicate build harmless. A directory that cannot hold a lease
        at all (removed, unwritable) builds locally at once.
        """

        def build():
            value = builder()
            if value is not None:
                self.put(tier, key, value)
            return value, "built"

        if not self._on_disk(tier):
            return build()
        lease = Lease(self._lease_path(key))
        deadline = time.monotonic() + wait_timeout_s
        while True:
            try:
                acquired = lease.acquire()
            except OSError as exc:
                # Not contention: nobody can lease here, so there is no
                # one to wait for either.
                self.stats.bump(disk_errors=1)
                if not self._lease_warned:
                    self._lease_warned = True
                    self._warn(
                        f"cannot lease builds under {self.cache_dir} "
                        f"({type(exc).__name__}); building uncoordinated"
                    )
                return build()
            if acquired:
                self.stats.bump(lease_acquired=1)
                try:
                    # A sibling may have published while we raced for the
                    # lease; re-check before paying for the build (the
                    # miss that brought us here is already counted).
                    if self._published(key):
                        value = self.get(tier, key)
                        if value is not None:
                            return value, "coalesced"
                    return build()
                finally:
                    lease.release()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                outcome = "timeout"
            else:
                outcome = lease.wait(
                    lambda: self._published(key), timeout_s=remaining
                )
            if outcome == "published":
                value = self.get(tier, key)
                if value is not None:
                    self.stats.bump(lease_waited=1)
                    return value, "coalesced"
                # Published entry was corrupt/evicted on read: fall
                # through and race for the lease ourselves.
            elif outcome == "reclaim":
                self.stats.bump(lease_reclaimed=1)
            elif outcome == "timeout":
                # Never deadlock on a wedged (live but stuck) holder:
                # duplicate the build; atomic publish keeps it harmless.
                self.stats.bump(lease_timeouts=1)
                return build()
            # "free" (holder vanished without publishing) loops back to
            # the acquire race.

    def clear(self):
        """Empty every memory table (disk entries stay)."""
        with self._lock:
            for table in self._tables.values():
                table.clear()
