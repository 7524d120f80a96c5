"""The benchmark's workloads: one pathkernel CLI command each, with its output check.

Every command runs at either worker count; its stdout (and the file it
writes, if any) must come out byte-identical across repeats and between
``--workers 1`` and ``--workers 2``.  On top of that each workload has a
statistical check against a value computed independently of the program.
The bands are 4 standard errors and stay there: a run that lands outside
is a failed op, never retried, re-seeded or resized.

Sizes are cut down from the README commands so that one op takes about a
second at one worker, but every op keeps its shape: the pool-using
workloads keep at least two 32768-sample blocks so that ``--workers 2``
really forks a pool.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

SE_BAND = 4.0
DIRICHLET_L = 3.14159265
DIRICHLET_X0 = 1.5707963

FK_SAMPLES = 65536
CURVE_T_GRID = "0.25:7:2.25"
CURVE_ROWS = 4
CURVE_SAMPLES = 65536
KILLED_SAMPLES = 32768
KILLED_STEPS = 32
CK_TUPLES = 300


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI arguments; "{seed}" and "{out}" are filled in per op
    check: object  # check(stdout, out_text) -> None if right, else a reason

    @property
    def writes_file(self):
        return "{out}" in self.args

    def argv(self, seed, out_path):
        return [a.format(seed=seed, out=out_path) for a in self.args]


def _last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_fk(stdout, out_text):
    rec = _last_json(stdout)
    value, se, oracle = rec.get("value"), rec.get("std_error"), rec.get("oracle")
    if not _finite(value, se, oracle) or not se > 0:
        return f"non-finite or missing estimate: {rec}"
    if rec.get("n_samples") != FK_SAMPLES:
        return f"n_samples {rec.get('n_samples')} != {FK_SAMPLES}"
    z = abs(value - oracle) / se
    if z > SE_BAND:
        return f"estimate {value} is {z:.2f} SE from the oracle {oracle}"
    return None


def check_curve(stdout, out_text):
    lines = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "t,analytic,mc,mc_stderr":
        return "missing curve header"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != CURVE_ROWS:
        return f"{len(rows)} curve rows, want {CURVE_ROWS}"
    for t, analytic, mc, se in rows:
        if not _finite(t, analytic, mc, se) or not se > 0:
            return f"non-finite row at t={t}"
        z = abs(mc - analytic) / se
        if z > SE_BAND:
            return f"row t={t}: mc {mc} is {z:.2f} SE from analytic {analytic}"
    return None


def dirichlet_survival(length, t, x, terms=200):
    """Probability that Brownian motion (generator the Laplacian) started at x
    stays inside (0, length) up to time t, by the odd-mode sine series."""
    total = 0.0
    for k in range(1, 2 * terms, 2):
        lam = (k * math.pi / length) ** 2
        total += 4.0 / (k * math.pi) * math.sin(k * math.pi * x / length) * math.exp(-lam * t)
    return total


KILLED_SURVIVAL = dirichlet_survival(DIRICHLET_L, 1.0, DIRICHLET_X0)


def check_killed(stdout, out_text):
    rec = _last_json(stdout)
    n, frac = rec.get("n_samples"), rec.get("survival_fraction")
    if n != KILLED_SAMPLES or not _finite(frac):
        return f"bad summary: {rec}"
    p = KILLED_SURVIVAL
    z = abs(frac - p) / math.sqrt(p * (1.0 - p) / n)
    if z > SE_BAND:
        return f"survival fraction {frac} is {z:.2f} binomial SE from {p}"
    lines = (out_text or "").splitlines()
    if len(lines) != KILLED_STEPS + 3 or not lines[0].startswith("#") or lines[1] != "t,coord0,killed":
        return "path file does not hold a header and one row per grid time"
    return None


def check_ck(stdout, out_text):
    rec = _last_json(stdout)
    residual, tol = rec.get("max_residual"), rec.get("tol")
    if "error" in rec or not _finite(residual, tol):
        return f"verification failed: {rec}"
    if rec.get("tuples") != CK_TUPLES:
        return f"tuples {rec.get('tuples')} != {CK_TUPLES}"
    if residual > tol:
        return f"max_residual {residual} > tol {tol}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fk-circle",
            ("fk", "expectation", "--model", "circle:6.283185307179586", "--potential", "cos",
             "--t", "1", "--steps", "64", "--samples", str(FK_SAMPLES), "--oracle-m", "512",
             # trapezoid so the estimate can be held to 4 SE of the oracle; the
             # default right-endpoint rule carries a known ~8 SE Trotter bias
             "--rule", "trapezoid", "--seed", "{seed}"),
            check_fk,
        ),
        Workload(
            "curve-h3",
            ("curve", "--model", "hyperbolic3", "--t-grid", CURVE_T_GRID,
             "--samples", str(CURVE_SAMPLES), "--seed", "{seed}"),
            check_curve,
        ),
        Workload(
            "sample-killed",
            ("sample", "--model", f"compactified:dirichlet:{DIRICHLET_L}", "--x0", str(DIRICHLET_X0),
             "--T", "1", "--steps", str(KILLED_STEPS), "--samples", str(KILLED_SAMPLES),
             "--out", "{out}", "--seed", "{seed}"),
            check_killed,
        ),
        Workload(
            "verify-ck",
            ("verify", "chapman-kolmogorov", "--model", f"dirichlet:{DIRICHLET_L}",
             "--tuples", str(CK_TUPLES), "--seed", "{seed}"),
            check_ck,
        ),
    )
}
