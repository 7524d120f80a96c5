import json
import multiprocessing
import os
import time
import types

import pytest

from pathkernel import parallel
from pathkernel.cli import main


class RecordingContext:
    """Stands in for a fork context: records each pool's size, its worker
    initializer and the shared values made for it, and maps serially (the
    initializer is not run, as it would move this process)."""

    def __init__(self):
        self.processes = []
        self.tasks = []
        self.initializers = []
        self.values = []

    def Pool(self, processes, initializer=None, initargs=()):
        self.processes.append(processes)
        self.initializers.append((initializer, initargs))
        return self

    def Value(self, typecode, value):
        self.values.append((typecode, value))
        return types.SimpleNamespace(value=value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.tasks.append(len(items))
        return [fn(item) for item in items]


def fake_pool(monkeypatch, cpus):
    ctx = RecordingContext()
    monkeypatch.setattr(parallel.multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    return ctx


def blocks_of(n_total, first, size):
    return [(first + a, min(size, n_total - a)) for a in range(0, n_total, size)]


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    ctx = fake_pool(monkeypatch, 3)
    out = parallel.run_blocks(lambda a, c: (a, c), 70, first_index=5, workers=10 ** 6, block_size=7)
    assert ctx.processes == [3]
    assert out == blocks_of(70, 5, 7)


def test_env_worker_count_is_capped_too(monkeypatch):
    ctx = fake_pool(monkeypatch, 2)
    monkeypatch.setenv("PATHKERNEL_WORKERS", "5000")
    workers = parallel.worker_count(1)
    assert workers == 5000
    assert parallel.run_blocks(lambda a, c: (a, c), 40, workers=workers, block_size=4) == blocks_of(40, 0, 4)
    assert ctx.processes == [2]


def test_fewer_blocks_than_cpus_size_the_pool(monkeypatch):
    ctx = fake_pool(monkeypatch, 64)
    assert parallel.run_blocks(lambda a, c: (a, c), 10, workers=8, block_size=4) == blocks_of(10, 0, 4)
    assert ctx.processes == [3]


def test_one_usable_cpu_runs_serially(monkeypatch):
    ctx = fake_pool(monkeypatch, 1)
    assert parallel.run_blocks(lambda a, c: (a, c), 10, workers=8, block_size=4) == blocks_of(10, 0, 4)
    assert ctx.processes == []
    assert ctx.values == []  # the serial path makes no placement


def test_usable_cpus_is_the_affinity_set():
    want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert parallel._usable_cpus() == want


def test_jobs_share_one_pool_and_keep_task_order(monkeypatch):
    ctx = fake_pool(monkeypatch, 2)
    out = parallel.run_blocks(lambda a, c: (a, c), 10, first_index=3, workers=2, block_size=4, jobs=3)
    # each estimate is cut on its own: no block straddles two of them
    assert out == blocks_of(10, 3, 4) + blocks_of(10, 13, 4) + blocks_of(10, 23, 4)
    assert ctx.processes == [2] and ctx.tasks == [9]
    assert parallel.per_job(out, 3) == [blocks_of(10, 3 + 10 * j, 4) for j in range(3)]


PLACES = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity here")


@PLACES
def test_each_pool_places_its_workers(monkeypatch):
    ctx = fake_pool(monkeypatch, 2)
    parallel.run_blocks(lambda a, c: (a, c), 10, workers=2, block_size=4)
    [(initializer, (counter, cpus))] = ctx.initializers
    assert initializer is parallel._place
    assert cpus == sorted(os.sched_getaffinity(0))
    assert ctx.values == [("i", 0)] and counter.value == 0


def _cpu_now():
    """The CPU this process runs on: field 39 of /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


@PLACES
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc/self/stat here")
@pytest.mark.skipif(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_forked_workers_start_on_distinct_cpus(monkeypatch, tmp_path):
    log = tmp_path / "moves"
    log.touch()
    real = os.sched_setaffinity

    def spy(pid, cpus):  # runs in the workers: logs each move and the CPU it lands on
        real(pid, cpus)
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), sorted(cpus), _cpu_now()]) + "\n")

    def task(start, count):  # holds the blocks until both workers logged their two moves
        deadline = time.monotonic() + 60.0
        while len(log.read_text().splitlines()) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        return start

    parent = os.sched_getaffinity(0)
    cpus = sorted(parent)
    monkeypatch.setattr(os, "sched_setaffinity", spy)
    assert parallel.run_blocks(task, 4, workers=2, block_size=1) == [0, 1, 2, 3]
    moves = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(moves) == 4 and len({pid for pid, _, _ in moves}) == 2
    for pid in {pid for pid, _, _ in moves}:
        (placed, on), (released, _) = [(want, got) for p, want, got in moves if p == pid]
        assert placed == [on]  # it ran on the one CPU it was placed on
        assert released == cpus  # then was handed the whole set back
    assert sorted(want[0] for _, want, _ in moves if len(want) == 1) == cpus[:2]
    assert os.sched_getaffinity(0) == parent


def test_a_refused_placement_is_skipped(monkeypatch):
    def refuse(pid, cpus):
        raise OSError("not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    counter = multiprocessing.Value("i", 0)
    parallel._place(counter, [0, 1])
    assert counter.value == 1


CURVE = ["curve", "--model", "euclidean:1", "--t-grid", "0.25:1:0.25", "--samples", "40000"]
COVERING = ["fk", "covering-sum", "--model", "circle:6.283185307179586", "--potential", "cos",
            "--y0", "3.14159265", "--t", "0.5", "--steps", "4", "--samples", "100", "--windings", "2"]
SAMPLE = ["sample", "--model", "compactified:dirichlet:3.14159265", "--x0", "1", "--T", "1",
          "--steps", "2", "--samples", "40000", "--sample-index", "39999"]
BRIDGE = ["bridge", "--model", "circle:1.0", "--x0", "0", "--y0", "0.5", "--T", "0.5",
          "--steps", "2", "--samples", "40000"]


@pytest.mark.parametrize("argv, tasks", [
    (CURVE, 8),  # 4 t values of 2 blocks each
    (COVERING, 6),  # the base kernel and 2 * 2 + 1 line kernels, one block each
    (SAMPLE, 2),
    (BRIDGE, 2),
], ids=["curve", "covering-sum", "sample", "bridge"])
def test_a_command_forks_one_pool(monkeypatch, capsys, argv, tasks):
    monkeypatch.delenv("PATHKERNEL_WORKERS", raising=False)
    assert main(argv) == 0
    serial = capsys.readouterr().out
    ctx = fake_pool(monkeypatch, 2)
    assert main(argv + ["--workers", "2"]) == 0
    assert ctx.processes == [2] and ctx.tasks == [tasks]
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "euclidean:1", "--x0", "0", "--T", "1", "--steps", "2", "--samples", "100"],
    ["curve", "--model", "euclidean:1", "--t-grid", "0.5:0.5:1", "--samples", "100"],
], ids=["sample", "curve"])
def test_a_one_block_command_forks_none(monkeypatch, argv, capsys):
    monkeypatch.delenv("PATHKERNEL_WORKERS", raising=False)
    ctx = fake_pool(monkeypatch, 2)
    assert main(argv + ["--workers", "2"]) == 0
    assert ctx.processes == []
