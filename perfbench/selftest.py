"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that:

* a real op of every workload passes its checks, and that a copy with one
  byte changed, or with its estimate moved 10 standard errors off the
  reference value, is counted as a failed op;
* a short run prints every metric of BENCHMARK.json, by name with its unit,
  in both the untraced and the traced mode, and that a traced run's counts
  show the expected layer shares;
* in a directory holding only BENCHMARK.json and the benchmark, a run exits
  non-zero without printing a result.

Exits 1 if any check fails.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time

import run
from workloads import KILLED_SURVIVAL, WORKLOADS

FAILURES = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def flip_one_byte(text):
    i = max(j for j, c in enumerate(text) if c.isdigit())
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


def off_by_ten_se(name, stdout):
    """The op's stdout with its estimate moved 10 standard errors off the target."""
    if name == "curve-h3":
        lines = stdout.splitlines()
        t, analytic, _, se = (float(v) for v in lines[-1].split(","))
        lines[-1] = f"{t!r},{analytic!r},{analytic + 10.0 * se!r},{se!r}"
        return "\n".join(lines) + "\n"
    rec = json.loads(stdout.splitlines()[-1])
    if name == "fk-circle":
        rec["value"] = rec["oracle"] + 10.0 * rec["std_error"]
    elif name == "sample-killed":
        p = KILLED_SURVIVAL
        rec["survival_fraction"] = p + 10.0 * math.sqrt(p * (1.0 - p) / rec["n_samples"])
    else:
        rec["max_residual"] = 10.0 * rec["tol"]
    return json.dumps(rec) + "\n"


def judged(workload, op, reference):
    run.judge(workload, op, reference)
    return op.failure


def check_outputs():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as work_dir:
        for name, workload in WORKLOADS.items():
            op = run.run_op(workload, 7, "w1", 1, work_dir, time.monotonic() + 120.0)
            expect(op.failure is None and judged(workload, op, op) is None, f"{name}: a real op passes")
            changed = run.Op(kind="w1", stdout=flip_one_byte(op.stdout), out_text=op.out_text)
            expect(judged(workload, changed, op) is not None, f"{name}: one changed stdout byte fails the op")
            if op.out_text is not None:
                changed = run.Op(kind="w1", stdout=op.stdout, out_text=flip_one_byte(op.out_text))
                expect(judged(workload, changed, op) is not None, f"{name}: one changed file byte fails the op")
            off = run.Op(kind="w1", stdout=off_by_ten_se(name, op.stdout), out_text=op.out_text)
            expect(judged(workload, off, off) is not None, f"{name}: an estimate 10 SE off fails the op")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metric_names():
    spec = run.load_spec()
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names the workloads run.py knows")
    for workload, trace in (("fk-circle", 0), ("verify-ck", 0),
                            ("fk-circle", 1), ("curve-h3", 1), ("verify-ck", 1)):
        section = "per_layer" if trace else "end_to_end"
        done = run_bench(run.ROOT, workload, trace)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in spec[section]}
        expect(done.returncode == 0 and result["correct"] and printed == declared
               and all(f" {name} " in done.stderr for name in declared),
               f"{workload} --trace {trace} prints every {section} metric with its unit")
        if trace:
            check_shares(workload, {k: v["value"] for k, v in result["metrics"].items()})


def check_shares(workload, m):
    layers = [k for k in m if k.endswith(".self_s")] + ["feynman_kac.reduce_s"]
    largest = max(layers, key=m.get)
    if workload == "fk-circle":
        expect(largest == "rng.self_s", f"fk-circle: rng is the largest layer ({largest})")
        expect(m["parallel.pools"] == 1 and m["parallel.blocks"] == 2, "fk-circle: one pool of 2 blocks")
    elif workload == "curve-h3":
        expect(largest == "path_sampler.self_s", f"curve-h3: path_sampler is the largest layer ({largest})")
        expect(m["parallel.pools"] == 4 and m["path_sampler.rejection_rounds"] > 0,
               "curve-h3: one pool per t value, rejection rounds counted")
    else:
        expect(m["rng.uniform_slots"] == 0 and m["parallel.pools"] == 0,
               "verify-ck: no rng slots and no pool")
        expect(m["quadrature.integrand_points"] > 0, "verify-ck: quadrature evaluates its integrands")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "fk-circle", 0)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        expect(done.returncode != 0 and '"correct"' not in last[0],
               "without the sources the benchmark exits non-zero and prints no result")


def main():
    check_outputs()
    check_metric_names()
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
