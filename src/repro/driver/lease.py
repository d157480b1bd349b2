"""Cross-process single-flight via lock/lease files.

The disk tier of :class:`~repro.driver.cache.ArtifactCache` already makes
compiled artifacts *shareable* across processes (atomic temp-file +
``os.replace`` publishes, corrupt-entry eviction on read). What it does
not prevent is *duplicated work*: two worker processes missing on the
same key both run the full compile pipeline and race to publish. A
:class:`Lease` is the coordination half — a sidecar lock file next to the
cache entry, published complete and exclusively (temp file + hard link),
whose payload names the holder (``pid:wallclock stamp``).

The protocol (driven by ``ArtifactCache.build_once``):

* the first process to miss *acquires* the lease and builds; everyone
  else *waits on the artifact* (polling the published cache entry), not
  on a lock — so a lease holder that finishes-and-releases or a publish
  racing ahead of the release both unblock waiters immediately;
* a **crashed** holder is detected (its pid no longer exists) or, as a
  backstop across machines sharing a network filesystem where pids are
  meaningless, the lease simply goes **stale** after ``ttl_s``; either
  way exactly one waiter *reclaims* it (atomic rename — losers get
  ``ENOENT``) and becomes the new builder;
* a waiter that exhausts its patience builds anyway. Duplicate work is a
  performance bug; a deadlocked service is an outage. The cache's atomic
  publish makes the duplicate harmless.
"""

from __future__ import annotations

import os
import threading
import time


class Lease:
    """One lock/lease file guarding a build for one cache key."""

    def __init__(self, path, ttl_s=60.0):
        self.path = str(path)
        #: Age (seconds) past which a lease is stale even when its
        #: holder pid cannot be probed (e.g. a different host).
        self.ttl_s = ttl_s
        self._owned = False

    #: The payload write, a seam for tests that hold an acquire open.
    _write = staticmethod(os.write)

    # -- acquisition -------------------------------------------------------

    def acquire(self):
        """Try to take the lease; True when this process is the builder,
        False when someone else holds it.

        Atomic and exclusive *with its payload*: the payload is written
        to a private temp file which is then hard-linked to the lease
        path — ``link`` fails if the path exists (someone else holds the
        lease) and otherwise makes the complete file visible in one step.
        A lease that exists is therefore never empty or half-written; a
        waiter polling :meth:`holder` sees nothing or the whole truth.

        Only ``FileExistsError`` is contention. Any other ``OSError``
        (directory gone or unwritable, no hard links) propagates: this
        directory cannot coordinate anyone, and there is no holder to
        wait for.
        """
        tmp = f"{self.path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
            try:
                self._write(fd, f"{os.getpid()}:{time.time()}".encode("ascii"))
            finally:
                os.close(fd)
            os.link(tmp, self.path)
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._owned = True
        return True

    def release(self):
        """Drop an owned lease (no-op for leases we never acquired)."""
        if not self._owned:
            return
        self._owned = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # -- inspection --------------------------------------------------------

    def holder(self):
        """``(pid, stamp)`` of the current holder, or None.

        None means the lease is gone *or unreadable*. A torn payload
        reads as ``(0, 0.0)``, which :meth:`stale` lets a waiter reclaim
        at once — safe only because :meth:`acquire` publishes the lease
        with its payload in one step, so a torn payload is real
        corruption and can never be a live holder caught mid-write.
        """
        try:
            with open(self.path, "rb") as handle:
                payload = handle.read()
        except OSError:
            return None
        try:
            pid_text, stamp_text = payload.decode("ascii").split(":", 1)
            return int(pid_text), float(stamp_text)
        except (ValueError, UnicodeDecodeError):
            return 0, 0.0

    def stale(self):
        """Is the lease safe to reclaim?

        True when the holder pid no longer exists (a crashed builder —
        detected immediately, not after a timeout) or the lease is older
        than ``ttl_s`` (the cross-host backstop). A live holder within
        its ttl is never stale.
        """
        info = self.holder()
        if info is None:
            return False
        pid, stamp = info
        if stamp and time.time() - stamp > self.ttl_s:
            return True
        if pid <= 0:
            return True
        if pid == os.getpid():
            # Our own pid: we hold it, or a dead previous incarnation of
            # this pid wrote it (pid reuse) — the ttl is the backstop.
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            # The pid exists but belongs to someone else's process tree.
            return False
        except OSError:
            return False
        return False

    def reclaim(self):
        """Atomically take over a stale lease; True for exactly one caller.

        Renames the lease aside (losers of the race get ``ENOENT``) and
        unlinks the tombstone, leaving the path free for a fresh
        :meth:`acquire` race.
        """
        tombstone = f"{self.path}.reclaim.{os.getpid()}.{time.monotonic_ns()}"
        try:
            os.rename(self.path, tombstone)
        except OSError:
            return False
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        return True

    def wait(self, published, timeout_s=120.0, poll_s=0.005):
        """Wait for *published()* (the artifact landing) or a lease change.

        Returns ``"published"`` when the artifact appeared, ``"reclaim"``
        when the lease went stale and this process won the reclaim race
        (caller should retry :meth:`acquire` / build), ``"free"`` when
        the lease disappeared without the artifact appearing (holder
        failed; retry acquire), or ``"timeout"``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            if published():
                return "published"
            if self.holder() is None:
                return "free"
            if self.stale() and self.reclaim():
                return "reclaim"
            if time.monotonic() >= deadline:
                return "timeout"
            time.sleep(poll_s)
