"""Block-wise forked workers for ensemble computations.

``run_blocks`` runs a task over a list of blocks, each a pure function of
its own (start, count), and returns the results in list order, so they
are the same for any worker count (including serial).  The blocks are
laid out by the one caller, ``feynman_kac.over_paths``.  With N workers
the command's own process runs blocks 0, N, 2N, ... and each of N - 1
plain forked children runs its own fixed share, so no block's process
depends on timing.  Forking lets a task close over arbitrary callables
without pickling them; only results come back, pickled through one pipe
per child.  Each process starts on its own CPU of the parent's affinity
set and is then handed the whole set back, so two do not begin on one
CPU while another idles, yet the scheduler may still move them under
outside load.  A child that dies without a result is a
``WorkerLostError``; no child outlives ``run_blocks``.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import WorkerLostError


def run_blocks(task, blocks, workers=1):
    """task(start, count) for each (start, count) of blocks; results in list order."""
    # more processes than usable CPUs only add forks; blocks and bits stay the same
    workers = min(workers or 1, len(blocks), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [task(a, c) for a, c in blocks]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork(task, blocks[k::workers], cpus, k))
        _place(cpus, 0)
        out = [None] * len(blocks)
        out[::workers] = [task(a, c) for a, c in blocks[::workers]]
        for k in range(1, workers):
            out[k::workers] = children.pop(0)()
        return out
    finally:
        for join in children:  # only when something raised: stop and reap the rest
            join(kill=True)


def _fork(task, share, cpus, k):
    """Fork child k to run its share of blocks.  Returns join(): it reaps the
    child and returns its results, re-raises its exception, or raises
    WorkerLostError if it left without a result; join(kill=True) stops and
    reaps it and returns None."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns, and leaves through os._exit alone
        status = 1
        try:
            os.close(rfd)
            _place(cpus, k)
            try:
                msg = (True, [task(a, c) for a, c in share])
            except BaseException as exc:
                msg = (False, exc)
            with open(wfd, "wb") as fh:
                pickle.dump(msg, fh, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:  # no atexit hooks, and no flush of stdio buffers copied from the parent
            os._exit(status)
    os.close(wfd)

    def join(kill=False):
        msg = None
        try:
            with open(rfd, "rb") as fh:
                msg = None if kill else pickle.load(fh)
        except Exception:  # a cut-off stream: the wait status says why
            pass
        finally:
            if msg is None:  # a child given up on is stopped before it is reaped
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
        if kill:
            return None
        if msg is None:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise WorkerLostError(f"worker {k} (pid {pid}) left without a result: {how}")
        ok, value = msg
        if not ok:
            raise value
        return value

    return join


def _place(cpus, k):
    """Move this process onto cpus[k], then release it to the whole set."""
    if not cpus:
        return
    try:
        os.sched_setaffinity(0, [cpus[k % len(cpus)]])
        os.sched_setaffinity(0, cpus)
    except OSError:  # placement is only a hint
        pass


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
