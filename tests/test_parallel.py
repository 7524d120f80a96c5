import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from pathkernel import feynman_kac, parallel
from pathkernel.cli import main, parse_args
from pathkernel.errors import NonFiniteSampleError, WorkerLostError
from pathkernel.rng import RngContract


class FakeForks:
    """Stands in for ``parallel._fork`` and ``parallel._place``: runs each child's
    share in this process when it is joined, and records each fork's k and share
    and each placement, none of which moves this process."""

    def __init__(self):
        self.forks = []
        self.places = []

    def fork(self, task, share, cpus, k):
        self.forks.append((k, list(share)))
        self.places.append((cpus, k))  # a real child places itself first
        return lambda kill=False: None if kill else [task(a, c) for a, c in share]

    def place(self, cpus, k):
        self.places.append((cpus, k))


def fake_forks(monkeypatch, cpus):
    fake = FakeForks()
    monkeypatch.setattr(parallel, "_fork", fake.fork)
    monkeypatch.setattr(parallel, "_place", fake.place)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    return fake


def blocks_of(n_total, first, size):
    return [(first + a, min(size, n_total - a)) for a in range(0, n_total, size)]


def test_workers_are_capped_at_the_usable_cpus(monkeypatch):
    fake = fake_forks(monkeypatch, 3)
    out = parallel.run_blocks(lambda a, c: (a, c), blocks_of(70, 5, 7), workers=10 ** 6)
    assert [k for k, _ in fake.forks] == [1, 2]  # three processes: this one and two children
    assert out == blocks_of(70, 5, 7)


def test_env_worker_count_is_capped_too(monkeypatch):
    fake = fake_forks(monkeypatch, 2)
    monkeypatch.setenv("PATHKERNEL_WORKERS", "5000")
    workers = parse_args(["curve", "--model", "euclidean:1", "--t-grid", "1:1:1", "--workers", "1"]).options["workers"]
    assert workers == 5000  # the variable wins over --workers
    assert parallel.run_blocks(lambda a, c: (a, c), blocks_of(40, 0, 4), workers=workers) == blocks_of(40, 0, 4)
    assert [k for k, _ in fake.forks] == [1]


def test_fewer_blocks_than_cpus_size_the_worker_set(monkeypatch):
    fake = fake_forks(monkeypatch, 64)
    assert parallel.run_blocks(lambda a, c: (a, c), blocks_of(10, 0, 4), workers=8) == blocks_of(10, 0, 4)
    assert [k for k, _ in fake.forks] == [1, 2]


def test_one_usable_cpu_runs_serially(monkeypatch):
    fake = fake_forks(monkeypatch, 1)
    assert parallel.run_blocks(lambda a, c: (a, c), blocks_of(10, 0, 4), workers=8) == blocks_of(10, 0, 4)
    assert fake.forks == []
    assert fake.places == []  # the serial path makes no placement


def test_usable_cpus_is_the_affinity_set():
    want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert parallel._usable_cpus() == want


def test_blocks_share_one_set_of_forks_and_keep_list_order(monkeypatch):
    fake = fake_forks(monkeypatch, 2)
    blocks = blocks_of(10, 3, 4) + blocks_of(10, 13, 4) + blocks_of(10, 23, 4)
    assert parallel.run_blocks(lambda a, c: (a, c), blocks, workers=2) == blocks
    assert fake.forks == [(1, blocks[1::2])]  # this process ran the other five


def test_over_paths_lays_jobs_end_to_end_in_blocks_of_their_own(monkeypatch):
    fake = fake_forks(monkeypatch, 2)
    calls = []
    real = feynman_kac.run_blocks

    def spy(task, blocks, workers=1):
        calls.append((list(blocks), workers))
        return real(task, blocks, workers)

    def rows(kernel, x0, y0, grid, seed, count, first_index):  # each sample's substream index, and its job
        return np.arange(first_index, first_index + count), kernel

    monkeypatch.setattr(feynman_kac, "run_blocks", spy)
    monkeypatch.setattr(feynman_kac, "sample_rows", rows)
    monkeypatch.setattr(feynman_kac, "BLOCK_SIZE", 4)
    jobs = [(j, None, None, None, lambda index, job: (index, np.full(index.shape, job))) for j in range(3)]
    out = list(feynman_kac.over_paths(jobs, 10, RngContract(7, sample_index=3), 2))
    # job j runs on substreams 3 + 10 j on, cut on its own: no block straddles two jobs
    blocks = blocks_of(10, 3, 4) + blocks_of(10, 13, 4) + blocks_of(10, 23, 4)
    assert calls == [(blocks, 2)] and fake.forks == [(1, blocks[1::2])]
    for j, (index, job) in enumerate(out):  # each job's blocks joined in block order
        assert index.tolist() == list(range(3 + 10 * j, 13 + 10 * j)) and job.tolist() == [j] * 10


PLACES = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity here")
TWO_CPUS = pytest.mark.skipif(parallel._usable_cpus() < 2 or not hasattr(os, "fork"),
                              reason="needs two usable CPUs and fork")


@PLACES
def test_each_process_is_placed_on_its_own_cpu(monkeypatch):
    fake = fake_forks(monkeypatch, 2)
    parallel.run_blocks(lambda a, c: (a, c), blocks_of(10, 0, 4), workers=2)
    cpus = sorted(os.sched_getaffinity(0))
    assert fake.places == [(cpus, 1), (cpus, 0)]  # the child on cpus[1], then this process on cpus[0]


def _cpu_now():
    """The CPU this process runs on: field 39 of /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


@PLACES
@TWO_CPUS
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc/self/stat here")
def test_parent_and_child_start_on_distinct_cpus(monkeypatch, tmp_path):
    log = tmp_path / "moves"
    log.touch()
    real = os.sched_setaffinity

    def spy(pid, cpus):  # runs in both processes: logs each move and the CPU it lands on
        real(pid, cpus)
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), sorted(cpus), _cpu_now()]) + "\n")

    def task(start, count):  # holds the blocks until both processes logged their two moves
        deadline = time.monotonic() + 60.0
        while len(log.read_text().splitlines()) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        return start

    parent = os.sched_getaffinity(0)
    cpus = sorted(parent)
    monkeypatch.setattr(os, "sched_setaffinity", spy)
    assert parallel.run_blocks(task, blocks_of(4, 0, 1), workers=2) == [0, 1, 2, 3]
    moves = [json.loads(line) for line in log.read_text().splitlines()]
    pids = {pid for pid, _, _ in moves}
    assert len(moves) == 4 and len(pids) == 2 and os.getpid() in pids
    for pid in pids:
        (placed, on), (released, _) = [(want, got) for p, want, got in moves if p == pid]
        assert placed == [on]  # it ran on the one CPU it was placed on
        assert released == cpus  # then was handed the whole set back
    assert sorted(want[0] for _, want, _ in moves if len(want) == 1) == cpus[:2]
    assert os.sched_getaffinity(0) == parent


def test_a_refused_placement_is_skipped(monkeypatch):
    def refuse(pid, cpus):
        raise OSError("not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    parallel._place([0, 1], 1)
    if parallel._usable_cpus() >= 2 and hasattr(os, "fork"):  # and the blocks still run
        assert parallel.run_blocks(lambda a, c: (a, c), blocks_of(4, 0, 1), workers=2) == blocks_of(4, 0, 1)


@contextlib.contextmanager
def deadline(seconds):
    """Fail, not hang, if the body runs past ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _reaped(pid):
    """True once pid is no child of this process and no process at all."""
    try:
        os.waitpid(pid, os.WNOHANG)
        return False
    except ChildProcessError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@TWO_CPUS
def test_a_child_exception_reaches_the_caller_unchanged():
    parent = os.getpid()

    def task(start, count):
        if os.getpid() != parent:
            raise NonFiniteSampleError(f"block {start} overflowed")
        return start

    with deadline(60), pytest.raises(NonFiniteSampleError) as info:
        parallel.run_blocks(task, blocks_of(4, 0, 1), workers=2)
    assert type(info.value) is NonFiniteSampleError
    assert str(info.value) == "block 1 overflowed"  # the child's first block


@TWO_CPUS
def test_a_killed_child_is_a_lost_worker():
    parent = os.getpid()

    def task(start, count):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return start

    with deadline(60), pytest.raises(WorkerLostError, match=r"^worker 1 \(pid \d+\) .*signal 9"):
        parallel.run_blocks(task, blocks_of(4, 0, 1), workers=2)


@TWO_CPUS
def test_a_failing_parent_share_leaves_no_child(tmp_path):
    parent = os.getpid()
    pids = tmp_path / "pids"

    def task(start, count):
        if os.getpid() != parent:
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(120)
            return start
        while not (pids.exists() and pids.read_text().endswith("\n")):  # fail once the child runs
            time.sleep(0.01)
        raise ValueError("the parent's share failed")

    with deadline(60), pytest.raises(ValueError, match="the parent's share failed"):
        parallel.run_blocks(task, blocks_of(4, 0, 1), workers=2)
    [child] = [int(pid) for pid in pids.read_text().split()]
    assert child != parent and _reaped(child)


@TWO_CPUS
def test_a_child_leaves_without_flushing_stdio_or_running_atexit(tmp_path):
    script = (
        "import atexit, sys\n"
        "from pathkernel import parallel\n"
        "atexit.register(lambda: sys.stdout.write('atexit\\n'))\n"
        "sys.stdout.write('unflushed ')\n"
        "print(parallel.run_blocks(lambda a, c: a, [(a, 1) for a in range(4)], workers=2))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "unflushed [0, 1, 2, 3]\natexit\n"


def test_importing_the_cli_loads_no_multiprocessing():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, pathkernel.cli; print(sorted(m for m in sys.modules"
                               " if m.split('.')[0] == 'multiprocessing'))"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


CURVE = ["curve", "--model", "euclidean:1", "--t-grid", "0.25:1:0.25", "--samples", "40000"]
COVERING = ["fk", "covering-sum", "--model", "circle:6.283185307179586", "--potential", "cos",
            "--y0", "3.14159265", "--t", "0.5", "--steps", "4", "--samples", "100", "--windings", "2"]
SAMPLE = ["sample", "--model", "compactified:dirichlet:3.14159265", "--x0", "1", "--T", "1",
          "--steps", "2", "--samples", "40000", "--sample-index", "39999"]
BRIDGE = ["bridge", "--model", "circle:1.0", "--x0", "0", "--y0", "0.5", "--T", "0.5",
          "--steps", "2", "--samples", "40000"]


def count_blocks(monkeypatch):
    """Record the number of blocks of each ``run_blocks`` call the commands make."""
    calls = []
    real = feynman_kac.run_blocks

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(len(out))
        return out

    monkeypatch.setattr(feynman_kac, "run_blocks", spy)
    return calls


@pytest.mark.parametrize("argv, blocks", [
    (CURVE, 8),  # 4 t values of 2 blocks each
    (COVERING, 6),  # the base kernel and 2 * 2 + 1 line kernels, one block each
    (SAMPLE, 2),
    (BRIDGE, 2),
], ids=["curve", "covering-sum", "sample", "bridge"])
def test_a_command_forks_once(monkeypatch, capsys, argv, blocks):
    monkeypatch.delenv("PATHKERNEL_WORKERS", raising=False)
    assert main(argv) == 0
    serial = capsys.readouterr().out
    fake = fake_forks(monkeypatch, 2)
    calls = count_blocks(monkeypatch)
    assert main(argv + ["--workers", "2"]) == 0
    assert calls == [blocks]
    assert [(k, len(share)) for k, share in fake.forks] == [(1, blocks // 2)]
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "euclidean:1", "--x0", "0", "--T", "1", "--steps", "2", "--samples", "100"],
    ["curve", "--model", "euclidean:1", "--t-grid", "0.5:0.5:1", "--samples", "100"],
], ids=["sample", "curve"])
def test_a_one_block_command_forks_none(monkeypatch, argv, capsys):
    monkeypatch.delenv("PATHKERNEL_WORKERS", raising=False)
    fake = fake_forks(monkeypatch, 2)
    assert main(argv + ["--workers", "2"]) == 0
    assert fake.forks == [] and fake.places == []
