"""The engine's thread pool: one thread per CPU this process may run on.

`os.sched_getaffinity(0)` gives the thread count, `THREADS`, once, at
import; the calling thread is one of them, so the pool keeps THREADS - 1
helper threads, started on first use. With two or more CPUs, the import
also sets the OpenBLAS that numpy loaded to one thread (its
`*openblas_set_num_threads*` setter, found through ctypes). A GEMM that
runs its own BLAS threads next to a busy helper shares a CPU with it,
which can multiply its time by about 20, so each GEMM runs on the one
pool thread that calls it.

`map_parts(fn, parts, make=None)` runs `fn` on each of a kernel's
independent parts: the caller and the helpers take the parts one at a time
from a shared iterator until none is left, so a thread that a busy CPU
slows takes fewer of them. A kernel that needs scratch passes `make`, and
each thread that runs a part makes its own once. `map_parts` returns the
results in part order and re-raises in the caller the exception of the
first part that raised.

Every kernel cuts its work into parts by bytes alone, never by the thread
count: `by_samples` cuts an elementwise kernel's batch into slices of
about PART_BYTES, and the conv cuts its batch into blocks of about 2 MB of
patch matrix (`network._blocks`). Each part computes exactly what the
serial kernel computes on the same elements (rows of one GEMM, slices of
an elementwise pass); the one reduction that is split, the conv's weight
gradient, adds its blocks' products in one fixed order. The thread count
only sets how many threads take the parts, so every result is the same
at any thread count by construction.

With one CPU, or without the BLAS setter, THREADS is 1: `map_parts` runs
the same parts in order on the calling thread, and BLAS keeps its own
thread count.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading

import numpy as np  # noqa: F401  (loads the OpenBLAS whose thread count is set)

# Bytes of operand per slice of an elementwise kernel, so that a slice's
# passes run over data that stays in the core's 2 MB L2 cache; an operand
# below twice this runs as one slice on the calling thread, as waking a
# helper takes about 60 us on a 2-vCPU VM. Timed on a vgg-mini float32 train
# step plus EVAL forward on 2 vCPU, against one thread: with a 1 MB floor
# for a split the 10-image step stayed within 2% (47.6 against 47.1 ms) and
# the batch-100 step fell from 425 to 306 ms; 256 KB to 2 MB slices timed
# within noise of each other, and a 4 MB floor lost 8% on the batch-100 step.
PART_BYTES = 1 << 19


def _blas_setter():
    """The thread-count setter of the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


def _thread_count() -> int:
    """The CPUs this process may run on; with more than one, BLAS is set to
    one thread, and without a setter for that the count is 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2:
        return 1
    setter = _blas_setter()
    if setter is None:
        return 1
    setter(1)
    return cpus


THREADS = _thread_count()

_inbox = queue.SimpleQueue()     # jobs for the helpers
_helpers: list[threading.Thread] = []
_start_lock = threading.Lock()


def _serve():
    while True:
        _inbox.get()()


def _ensure_helpers(count: int) -> None:
    with _start_lock:
        while len(_helpers) < count:
            t = threading.Thread(target=_serve, name=f"maqd-pool-{len(_helpers)}", daemon=True)
            t.start()
            _helpers.append(t)


def _forget_helpers():  # a forked child has none of its parent's threads
    global _inbox, _start_lock
    _helpers.clear()
    _inbox, _start_lock = queue.SimpleQueue(), threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


def map_parts(fn, parts, make=None) -> list:
    """[fn(part) for part in parts], the parts run by the calling thread and
    up to THREADS - 1 helpers at once (see the module docstring). With
    `make`, fn(part, scratch) instead: each thread that runs a part calls
    make() once, before its first part, so no two parts that run at once
    share a scratch, which comes from the thread's own allocator arena and
    stays in its core's cache from part to part."""
    parts = list(parts)
    n_helpers = min(THREADS, len(parts)) - 1
    if n_helpers < 1 or threading.current_thread() in _helpers:
        scratch = (make(),) if make is not None and parts else ()
        return [fn(p, *scratch) for p in parts]
    _ensure_helpers(n_helpers)
    results = [None] * len(parts)
    errors = []
    todo = iter(enumerate(parts))
    lock = threading.Lock()
    done = queue.SimpleQueue()

    def work():
        scratch = ()  # (make(),) from this thread's first part on
        while not errors:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            i, part = item
            try:
                if make is not None and not scratch:
                    scratch = (make(),)
                results[i] = fn(part, *scratch)
            except BaseException as exc:  # re-raised in the caller
                errors.append((i, exc))

    def helper():
        try:
            work()
        finally:
            done.put(None)

    for _ in range(n_helpers):
        _inbox.put(helper)
    work()
    for _ in range(n_helpers):
        done.get()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def even(n: int, count: int) -> list[slice]:
    """range(n) cut into `count` consecutive slices of as even sizes as may be."""
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def by_samples(n: int, nbytes: int) -> list[slice]:
    """Even slices of a batch of n samples for an elementwise kernel whose
    operand is `nbytes`: one per PART_BYTES of it, at least one and at most
    n. They depend on bytes alone, not on the thread count."""
    return even(n, max(1, min(n, nbytes // PART_BYTES)))
