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
    "bucket_hits",
    "bucket_misses",
    "bucket_stores",
    "bucket_evictions",
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
    :meth:`ArtifactCache.get_or_build`): leases this process won (it
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
        if self.plan_hits or self.plan_misses or self.plan_stores:
            line += (
                f"; plans: {self.plan_hits} hit(s) / "
                f"{self.plan_misses} miss(es), {self.plan_stores} store(s)"
            )
        if (
            self.bucket_hits
            or self.bucket_misses
            or self.bucket_stores
            or self.bucket_evictions
        ):
            line += (
                f"; buckets: {self.bucket_hits} hit(s) / "
                f"{self.bucket_misses} miss(es), "
                f"{self.bucket_stores} store(s)"
            )
            if self.bucket_evictions:
                line += f", {self.bucket_evictions} evicted"
        if self.kernel_hits or self.kernel_misses or self.kernel_stores:
            line += (
                f"; kernels: {self.kernel_hits} hit(s) / "
                f"{self.kernel_misses} miss(es), "
                f"{self.kernel_stores} store(s)"
            )
            if self.kernel_evictions:
                line += f", {self.kernel_evictions} evicted"
        return line


@dataclass
class ArtifactCache:
    """Two-tier (memory, optional disk) cache keyed by content hash.

    Thread-safe: one cache instance is shared by every worker of the
    serving layer. Tier dictionaries and stats mutate under an internal
    RLock, and disk entries are written via temp-file + ``os.replace`` so
    a concurrent reader (same process or another one sharing the
    directory) can never observe a truncated pickle.
    """

    cache_dir: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional :class:`~repro.driver.diagnostics.Diagnostics` sink for
    #: disk-tier degradation warnings (the session wires its own in).
    diagnostics: Optional[object] = None
    _memory: Dict[str, object] = field(default_factory=dict)
    #: Execution-plan tier, keyed on (graph fingerprint, plan config).
    #: Memory-only: plans hold live numpy closures and weak graph refs,
    #: so they are cheap to rebuild but pointless to pickle.
    _plans: Dict[str, object] = field(default_factory=dict)
    #: Shape-bucket tier: ``template digest -> bucket digest -> plan``.
    #: Groups every specialization compiled from one source template so
    #: sibling buckets can be listed and evicted independently; plans are
    #: memory-only for the same reason as ``_plans``.
    _buckets: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Generated-kernel tier, keyed by
    #: :func:`repro.codegen.kernel_cache_key` — a pure derivation of the
    #: owning plan's key, so plan eviction can always find its sibling.
    #: Memory holds live :class:`~repro.codegen.KernelArtifact` objects;
    #: the disk tier persists the generated *source record* (source text,
    #: constants, scratch specs, report) and recompiles on load, because
    #: code objects and exec'd functions do not pickle.
    _kernels: Dict[str, object] = field(default_factory=dict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self):
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key):
        return self.cache_dir / f"{key}.pkl"

    def _warn(self, message):
        if self.diagnostics is not None:
            self.diagnostics.warning(message, stage="cache")

    def get(self, key):
        """Cached artifact for *key*, or None (counts a hit/miss).

        A corrupt/truncated/unreadable disk entry is a *miss*: the entry
        is evicted (best effort) and reported, and the compile simply
        re-runs. No disk-tier failure ever escapes this method.
        """
        with self._lock:
            if key in self._memory:
                self.stats.bump(hits=1)
                return self._memory[key]
            if self.cache_dir is not None:
                try:
                    path = self._path(key)
                    exists = path.exists()
                except OSError:
                    self.stats.bump(disk_errors=1)
                    exists = False
                if exists:
                    try:
                        with open(path, "rb") as handle:
                            artifact = pickle.load(handle)
                    except Exception as exc:
                        self.stats.bump(disk_errors=1)
                        self._evict_disk(key)
                        self._warn(
                            f"evicted corrupt disk cache entry {key[:12]}… "
                            f"({type(exc).__name__}); treating as a miss"
                        )
                    else:
                        self._memory[key] = artifact
                        self.stats.bump(hits=1, disk_hits=1)
                        return artifact
            self.stats.bump(misses=1)
            return None

    def _evict_disk(self, key):
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def put(self, key, artifact):
        with self._lock:
            self._memory[key] = artifact
            self.stats.bump(stores=1)
            if self.cache_dir is not None:
                try:
                    payload = pickle.dumps(artifact)
                except Exception:
                    # Unpicklable artifacts (exotic user extensions) stay
                    # memory-resident; the session reports this as a warning.
                    self.stats.bump(disk_errors=1)
                    return False
                self._write_disk(key, payload)
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
            return False
        return True

    # -- cross-process single-flight ----------------------------------------

    def _lease_path(self, key):
        return self.cache_dir / f"{key}.lease"

    def disk_probe(self, key):
        """Stats-free existence check for the disk entry of *key*.

        Used as the ``published()`` predicate while waiting on another
        process's lease — polling must not inflate hit/miss counters.
        """
        if self.cache_dir is None:
            return False
        try:
            return self._path(key).exists()
        except OSError:
            return False

    def get_or_build(
        self, key, builder, lease_ttl_s=60.0, wait_timeout_s=120.0, poll_s=0.005
    ):
        """Fetch *key*, or run *builder* under a cross-process lease.

        Returns ``(artifact, provenance)`` with provenance one of
        ``"cache"`` (hit before any coordination), ``"built"`` (this
        process held the lease and ran *builder*), or ``"coalesced"``
        (another process built it while we waited on the artifact).

        *builder* is called **without** the cache lock held (it is the
        full compile pipeline) and is expected to publish its result via
        :meth:`put` itself (as ``CompilerSession._compile_stages`` does);
        a builder that does not is published here as a fallback.

        The lease protocol never deadlocks: a crashed holder's lease is
        reclaimed (pid probe or ttl), and a wait that times out degrades
        to building locally — the atomic disk publish makes the
        duplicate build harmless.
        """
        artifact = self.get(key)
        if artifact is not None:
            return artifact, "cache"
        if self.cache_dir is None:
            # No shared tier to coordinate over; plain local build.
            artifact = builder()
            self._publish_if_missing(key, artifact)
            return artifact, "built"
        lease = Lease(self._lease_path(key), ttl_s=lease_ttl_s)
        deadline = time.monotonic() + wait_timeout_s
        while True:
            if lease.acquire():
                self.stats.bump(lease_acquired=1)
                try:
                    # A sibling may have published while we raced for the
                    # lease; re-check before paying for the build.
                    artifact = self.get(key)
                    if artifact is not None:
                        return artifact, "coalesced"
                    artifact = builder()
                    self._publish_if_missing(key, artifact)
                    return artifact, "built"
                finally:
                    lease.release()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                outcome = "timeout"
            else:
                outcome = lease.wait(
                    lambda: self.disk_probe(key),
                    timeout_s=remaining,
                    poll_s=poll_s,
                )
            if outcome == "published":
                artifact = self.get(key)
                if artifact is not None:
                    self.stats.bump(lease_waited=1)
                    return artifact, "coalesced"
                # Published entry was corrupt/evicted on read: fall
                # through and race for the lease ourselves.
            elif outcome == "reclaim":
                self.stats.bump(lease_reclaimed=1)
            elif outcome == "timeout":
                # Never deadlock on a wedged (live but stuck) holder:
                # duplicate the build; atomic publish keeps it harmless.
                self.stats.bump(lease_timeouts=1)
                artifact = builder()
                self._publish_if_missing(key, artifact)
                return artifact, "built"
            # "free" (holder vanished without publishing) loops back to
            # the acquire race.

    def _publish_if_missing(self, key, artifact):
        with self._lock:
            if key not in self._memory:
                self.put(key, artifact)

    # -- execution-plan tier -----------------------------------------------

    def plan_get(self, key):
        """Cached ExecutionPlan for *key*, or None (counts a hit/miss).

        Keys come from :func:`repro.srdfg.plan.plan_cache_key`, which
        hashes the graph's *structure* — so a session replay that rebuilt
        a structurally identical graph still hits this tier and skips
        planning entirely.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.stats.bump(plan_misses=1)
                return None
            self.stats.bump(plan_hits=1)
            return plan

    def plan_put(self, key, plan):
        with self._lock:
            self._plans[key] = plan
            self.stats.bump(plan_stores=1)
        return True

    # -- shape-bucket tier ---------------------------------------------------

    def bucket_get(self, template, bucket):
        """Specialized plan for (*template*, *bucket*), or None.

        *template* is a :class:`~repro.srdfg.shapes.SpecializationKey`
        template digest (one per source template, whatever its dims);
        *bucket* is its bucket digest (bucketed binding + plan config).
        Counts ``bucket_hits``/``bucket_misses``.
        """
        with self._lock:
            plan = self._buckets.get(template, {}).get(bucket)
            if plan is None:
                self.stats.bump(bucket_misses=1)
                return None
            self.stats.bump(bucket_hits=1)
            return plan

    def bucket_put(self, template, bucket, plan):
        with self._lock:
            self._buckets.setdefault(template, {})[bucket] = plan
            self.stats.bump(bucket_stores=1)
        return True

    def buckets_for(self, template):
        """Digests of every bucket cached for *template*."""
        with self._lock:
            return tuple(self._buckets.get(template, ()))

    def bucket_count(self, template=None):
        with self._lock:
            if template is not None:
                return len(self._buckets.get(template, ()))
            return sum(len(group) for group in self._buckets.values())

    def evict_bucket(self, template, bucket):
        """Drop one bucket's plan; sibling buckets are untouched.

        Returns True if something was evicted. An emptied template group
        is removed so ``bucket_summary`` never lists ghost templates.
        """
        with self._lock:
            group = self._buckets.get(template)
            if not group or bucket not in group:
                return False
            del group[bucket]
            if not group:
                del self._buckets[template]
            self.stats.bump(bucket_evictions=1)
            return True

    # -- generated-kernel tier -----------------------------------------------

    def kernel_get(self, key):
        """Cached KernelArtifact for *key*, or None (counts a hit/miss).

        The disk tier stores source records, not artifacts: a disk hit
        recompiles the generated source. A record that fails to load *or
        to recompile* (corrupt pickle, truncated source, bad constants)
        is evicted and reported exactly like a corrupt artifact entry —
        a counted miss, never a raise; the session just regenerates.
        """
        with self._lock:
            artifact = self._kernels.get(key)
            if artifact is not None:
                self.stats.bump(kernel_hits=1)
                return artifact
            if self.cache_dir is not None:
                record = None
                try:
                    path = self._path(key)
                    if path.exists():
                        with open(path, "rb") as handle:
                            record = pickle.load(handle)
                except Exception as exc:
                    self.stats.bump(disk_errors=1)
                    self._evict_disk(key)
                    self._warn(
                        f"evicted corrupt kernel cache entry {key[:12]}… "
                        f"({type(exc).__name__}); treating as a miss"
                    )
                if record is not None:
                    try:
                        from ..codegen import KernelArtifact

                        artifact = KernelArtifact(
                            record["plan_key"],
                            record["source"],
                            record["constants"],
                            record["scratch_specs"],
                            report=record.get("report"),
                        )
                    except Exception as exc:
                        self.stats.bump(disk_errors=1)
                        self._evict_disk(key)
                        self._warn(
                            f"evicted corrupt kernel source entry "
                            f"{key[:12]}… ({type(exc).__name__}); "
                            f"treating as a miss"
                        )
                    else:
                        self._kernels[key] = artifact
                        self.stats.bump(kernel_hits=1, kernel_disk_hits=1)
                        return artifact
            self.stats.bump(kernel_misses=1)
            return None

    def kernel_put(self, key, artifact):
        with self._lock:
            self._kernels[key] = artifact
            self.stats.bump(kernel_stores=1)
            if self.cache_dir is not None:
                record = {
                    "plan_key": artifact.plan_key,
                    "source": artifact.source,
                    "constants": getattr(artifact, "constants", {}),
                    "scratch_specs": list(artifact.scratch_specs),
                    "report": dict(artifact.report),
                }
                try:
                    payload = pickle.dumps(record)
                except Exception as exc:
                    self.stats.bump(disk_errors=1)
                    self._warn(
                        f"kernel {key[:12]}… is not picklable "
                        f"({type(exc).__name__}: {exc}); entry is memory-only"
                    )
                    return False
                self._write_disk(key, payload)
            return True

    def evict_kernel(self, key):
        """Drop one kernel entry from memory and disk.

        Returns True if anything was evicted."""
        with self._lock:
            evicted = self._kernels.pop(key, None) is not None
            if self.cache_dir is not None:
                try:
                    path = self._path(key)
                    if path.exists():
                        path.unlink()
                        evicted = True
                except OSError:
                    pass
            if evicted:
                self.stats.bump(kernel_evictions=1)
            return evicted

    def evict_plan(self, key):
        """Drop a plan *and its sibling generated kernel* together.

        Mirrors ``evict_bucket``'s sibling safety in the other
        direction: a stale plan must never leave its generated kernel
        behind (the kernel bakes the plan's shapes and constants in), so
        eviction derives the kernel key from the plan key and clears
        both tiers. Returns True if the plan entry existed.
        """
        from ..codegen import kernel_cache_key

        with self._lock:
            existed = self._plans.pop(key, None) is not None
            self.evict_kernel(kernel_cache_key(key))
            return existed

    def bucket_summary(self):
        """``template digest (12 chars) -> bucket count``, for reports."""
        with self._lock:
            return {
                template[:12]: len(group)
                for template, group in sorted(self._buckets.items())
            }

    def clear(self):
        with self._lock:
            self._memory.clear()
            self._plans.clear()
            self._buckets.clear()
            self._kernels.clear()

    def __len__(self):
        with self._lock:
            return len(self._memory)

    def __contains__(self, key):
        with self._lock:
            return key in self._memory
