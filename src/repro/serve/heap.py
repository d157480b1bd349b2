"""The heap policy of a process whose workers serve kernels.

A served kernel allocates the same buffers every step — MovieL-100K's
``pred`` matmul makes two 12.7 MB arrays — and frees them when the step
ends. Under glibc's defaults, whether those pages stay depends on the
heap's history: the dynamic mmap threshold moves with what the process
freed before, a worker thread gets an arena of its own, and a heap whose
free top passes the trim threshold gives it all back. Measured warm on
a 2-core x86-64 host, the same two-step MovieL-100K request took no
faults on a process's main thread, 1,300 to 12,300 on a thread-pool
worker (by what the process had run before) and 10,900 to 12,300 in a
process-pool child, where every step faulted its buffers in again.

:func:`keep_heap` fixes the threshold and the trim point where glibc's
own dynamic policy would end up, and caps the process at one arena, so
the pages a step frees are the pages the next step reuses and the heap
does not grow an arena per worker started after it:

* ``M_MMAP_THRESHOLD`` 32 MiB — the ceiling glibc's dynamic threshold
  rises to (``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit);
* ``M_TRIM_THRESHOLD`` 64 MiB — twice that, the ratio glibc keeps when it
  raises the threshold itself;
* ``M_ARENA_MAX`` 1 — binds threads that have not allocated yet, so it is
  set before a pool starts its workers.

The policy is the process's, for the life of the process: it is applied
where serving runs kernels (a thread-pool :class:`~repro.serve.Server`'s
host process, a process pool's children), never on import and never by
compiling, planning or running a kernel outside a server.
"""

from __future__ import annotations

import ctypes

__all__ = ["keep_heap"]

# glibc's <malloc.h> parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

_MIB = 1 << 20
_POLICY = (
    (_M_MMAP_THRESHOLD, 32 * _MIB),
    (_M_TRIM_THRESHOLD, 64 * _MIB),
    (_M_ARENA_MAX, 1),
)


def _libc():
    """The C library this process already runs on."""
    return ctypes.CDLL(None)


def keep_heap():
    """Make freed heap pages stay with this process; True when applied.

    Idempotent. A no-op returning False where the C library has no
    ``mallopt`` (not glibc) or refuses a parameter.
    """
    try:
        mallopt = _libc().mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _POLICY)
