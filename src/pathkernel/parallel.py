"""Block-wise worker pool for ensemble computations.

Samples are split into fixed-size blocks by sample index and each block
is computed on its own substreams, so the assembled per-sample arrays
are identical for any worker count (including serial).  Workers are
forked, which lets tasks close over arbitrary callables without
pickling them.
"""

from __future__ import annotations

import multiprocessing
import os

BLOCK_SIZE = 32768

_TASK = None


def _call(args):
    return _TASK(*args)


def run_blocks(task, n_total, first_index=0, workers=1, block_size=BLOCK_SIZE):
    """Evaluate task(start_index, count) over fixed blocks; results in block order."""
    blocks = []
    start = 0
    while start < n_total:
        count = min(block_size, n_total - start)
        blocks.append((first_index + start, count))
        start += count
    # more processes than usable CPUs only add forks; blocks and bits stay the same
    workers = min(workers or 1, len(blocks), _usable_cpus())
    if workers <= 1:
        return [task(a, c) for a, c in blocks]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: stay serial, results identical
        return [task(a, c) for a, c in blocks]
    global _TASK
    _TASK = task
    try:
        with ctx.Pool(processes=workers) as pool:
            return pool.map(_call, blocks)
    finally:
        _TASK = None


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(requested=None):
    """Effective worker count; the PATHKERNEL_WORKERS env var wins."""
    env = os.environ.get("PATHKERNEL_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"PATHKERNEL_WORKERS must be an integer, got {env!r}") from None
    if requested is None:
        return 1
    return max(1, int(requested))
