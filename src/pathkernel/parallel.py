"""Block-wise worker pool for ensemble computations.

Samples are split into fixed-size blocks by sample index and each block
is computed on its own substreams, so the assembled per-sample arrays
are identical for any worker count (including serial).  The one caller,
``feynman_kac.over_paths``, sizes the blocks; every sampling command
draws through it and so forks at most one pool, whose blocks may belong
to several estimates (a curve's t values, a covering sum's terms) laid
on one contiguous sample range.  Workers are forked, which lets tasks
close over arbitrary callables without pickling them.  Each worker
starts on its own CPU of the parent's affinity set and is then handed
the whole set back, so two workers do not begin on one CPU while
another idles, yet the scheduler may still move them under outside load.
"""

from __future__ import annotations

import multiprocessing
import os

_TASK = None


def _call(args):
    return _TASK(*args)


def run_blocks(task, n_total, block_size, first_index=0, workers=1, jobs=1):
    """Evaluate task(start_index, count) over fixed blocks; results in block order.

    The range holds ``jobs`` estimates of n_total samples each, estimate j
    starting at first_index + j * n_total, so a task finds its estimate
    as (start_index - first_index) // n_total.  Each estimate is cut into
    blocks on its own, so no block straddles two, and all blocks share
    one pool.
    """
    blocks = [(first_index + j * n_total + start, min(block_size, n_total - start))
              for j in range(jobs) for start in range(0, n_total, block_size)]
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
        with ctx.Pool(processes=workers, **_placement(ctx)) as pool:
            return pool.map(_call, blocks)
    finally:
        _TASK = None


def _placement(ctx):
    """Pool arguments whose initializer starts worker k on the k-th usable CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return {}
    return {"initializer": _place, "initargs": (ctx.Value("i", 0), sorted(os.sched_getaffinity(0)))}


def _place(counter, cpus):
    """Move this worker onto its own CPU, then release it to the whole set."""
    with counter.get_lock():
        k = counter.value
        counter.value += 1
    try:
        os.sched_setaffinity(0, [cpus[k % len(cpus)]])
        os.sched_setaffinity(0, cpus)
    except OSError:  # placement is only a hint; an initializer that raised would respawn forever
        pass


def per_job(parts, jobs):
    """``run_blocks`` results split into one list per estimate, in block order."""
    n = len(parts) // max(jobs, 1)
    return [parts[j * n:(j + 1) * n] for j in range(jobs)]


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
