import os

from pathkernel import parallel


class RecordingContext:
    """Stands in for a fork context: records each pool's size and maps serially."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes):
        self.processes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
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


def test_usable_cpus_is_the_affinity_set():
    want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert parallel._usable_cpus() == want
