"""Command-line front end: seeded, reproducible runs with CSV/JSON output.

Exit codes: 0 success, 1 numeric failure or failed verification (with a
JSON error record), 2 usage errors.  Output files start with a comment
line recording the tool version, subcommand and effective configuration
(execution-resource knobs like the worker count are excluded so that
runs differing only in parallelism stay byte-identical).  The
PATHKERNEL_WORKERS environment variable overrides --workers.

Model specs are read by the law table (``heat_kernel.model_of``), and
every model rule lives on the laws, so a new model needs no edit here.
``verify covering`` is ``fk covering-sum`` without a potential.  ``sample`` and
``bridge`` keep the kill flags or windings of ``feynman_kac.over_paths``
and draw the dumped sample again on its own substream, the same bits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .diagnostics import (
    brownian_dyadic_ensemble,
    curve_to_csv,
    distance_curve,
    holder_exponent,
    strided_dyadic_ensemble,
)
from .errors import PathkernelError
from .feynman_kac import (
    FKProblem,
    Potential,
    const_potential,
    constant_one,
    cos_potential,
    fk_covering_sum_check,
    fk_expectation,
    fk_kernel,
    fk_monotonicity_check,
    last_row,
    over_paths,
    spectral_oracle,
    step_potential,
    zero_potential,
)
from .heat_kernel import (
    MomentCheckConfig,
    TransitionKernel,
    TruncationPolicy,
    chapman_kolmogorov_residuals,
    check_task,
    delta_family_residuals,
    evaluate,
    model_of,
    moment_check,
    total_mass,
)
from .manifold import CEMETERY, Euclidean, Point, validate_point
from .parallel import worker_count
from .path_sampler import (
    TimeGrid,
    path_to_csv,
    sample_bridges,
    sample_paths,
)
from .rng import RngContract, StreamCursor

DEFAULT_SEED = 1729

# resource knobs and file destinations stay out of the recorded config so
# reruns that differ only in parallelism or target path stay byte-identical
_SKIP_IN_HEADER = {"workers", "config", "func", "out", "summary_out"}


@dataclass
class RunConfig:
    subcommand: str
    options: dict


# ---------------------------------------------------------------------------
# value parsers (argparse types raise ArgumentTypeError -> exit 2)


def _positive_float(text):
    v = float(text)
    if not (v > 0 and math.isfinite(v)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return v


def _seed(text):
    v = int(text)
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text}")
    return v


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return v


def _windings(text):
    v = _positive_int(text)
    if v > MAX_WINDINGS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_WINDINGS}, got {text}")
    return v


def parse_model(text):
    """(model, kind) of a spec of the law table, such as circle:L (heat_kernel.model_of)."""
    try:
        return model_of(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_potential(text):
    """zero | const:c | cos | step:a,b,v"""
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "zero":
            return zero_potential()
        if name == "const":
            return const_potential(float(rest))
        if name == "cos":
            return cos_potential()
        if name == "step":
            a, b, v = (float(s) for s in rest.split(","))
            return step_potential(a, b, v)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad potential spec {text!r}: {exc}")
    raise argparse.ArgumentTypeError(f"unknown potential {text!r}")


def _point_option(config, key, model, default=None):
    """The point given as --key, checked against the model; default if absent."""
    text = config.options[key]
    if not text:
        return default
    name = f"--{key}"
    if text.strip().lower() in ("inf", "cemetery"):
        p = CEMETERY
    else:
        try:
            p = Point(coords=tuple(float(s) for s in text.split(",")))
        except ValueError:
            raise ValueError(f"{name} {text!r} is not a comma-separated list of numbers") from None
    validate_point(model, p, name)  # dimension, box, hyperboloid, cemetery
    return p


# the largest grid, the finest dyadic level and the most windings a run may
# ask for; the README's grids have 11 and 28 points, its finest level is 12
# and it asks for 3 windings
MAX_GRID_POINTS = 10 ** 4
MAX_LEVEL = 20
MAX_WINDINGS = 10 ** 4


def _parse_grid_spec(text):
    """a:b:step inclusive grid of at most MAX_GRID_POINTS points."""
    try:
        a, b, step = (float(s) for s in text.split(":"))
    except ValueError:
        raise ValueError(f"bad grid spec {text!r}, want a:b:step") from None
    if not (step > 0 and a <= b and math.isfinite(b - a)):
        raise ValueError(f"bad grid spec {text!r}")
    if not (b - a) / step + 1e-9 < MAX_GRID_POINTS:  # an overflowing count too
        raise ValueError(f"grid spec {text!r} has over {MAX_GRID_POINTS} points")
    n = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + i * step for i in range(n)]


def _parse_level_range(text):
    lo, _, hi = text.partition(":")
    lo, hi = int(lo), int(hi)
    if not 1 <= lo < hi <= MAX_LEVEL:
        raise ValueError(f"bad level range {text!r}, want lo:hi with 1 <= lo < hi <= {MAX_LEVEL}")
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats (round-trip exact)


def _json17(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return f"{obj:.17g}"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _json17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json17(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json17(v)}" for k, v in obj.items()) + "}"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _format_option(val):
    if isinstance(val, Potential):
        return val.name
    if isinstance(val, tuple) and len(val) == 2 and isinstance(val[1], str):
        model, kind = val
        return f"{model}/{kind}"
    return str(val)


def _header_line(config):
    parts = []
    for key in sorted(config.options):
        if key in _SKIP_IN_HEADER or config.options[key] is None:
            continue
        parts.append(f"{key}={_format_option(config.options[key])}")
    return f"# pathkernel {__version__} {config.subcommand} " + " ".join(parts)


def _verdict(config, payload, error=None, out_key="out"):
    """Print payload as JSON, mirror it under the header line to the file
    named by option out_key, and return the exit code: 1 for a failed
    check named by error, else 0.  A NaN or infinity in a successful
    payload, lists included, is a PathkernelError naming its key."""
    if error is None:
        for key, val in payload.items():
            for x in val if isinstance(val, list) else [val]:
                if isinstance(x, float) and not math.isfinite(x):
                    raise PathkernelError(f"the result {key!r} is {x}, not a finite number")
    else:
        payload = {"error": error, **payload}
    text = _json17(payload) + "\n"
    sys.stdout.write(text)
    if config.options.get(out_key):
        with open(config.options[out_key], "w") as fh:
            fh.write(_header_line(config) + "\n")
            fh.write(text)
    return 0 if error is None else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p, *, seeded=True):
    p.add_argument("--config", help="key = value file merged under the flags")
    p.add_argument("--out", help="output file path")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes (PATHKERNEL_WORKERS overrides)")
    p.add_argument("--tail-tol", type=_positive_float, default=1e-12, dest="tail_tol")
    p.add_argument("--quad-tol", type=_positive_float, default=1e-10, dest="quad_tol")
    if seeded:
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathkernel",
        description="Sample heat-kernel paths and estimate Schrodinger semigroups on model spaces.",
    )
    parser.add_argument("--version", action="version", version=f"pathkernel {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("kernel", help="evaluate the transition density p_t(x, y)")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--t", type=_positive_float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_common(p, seeded=False)

    p = subs.add_parser("mass", help="total mass of p_t(x, .)")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--t", type=_positive_float, required=True)
    p.add_argument("--x", required=True)
    _add_common(p, seeded=False)

    p = subs.add_parser("verify", help="numeric checks of the kernel properties")
    p.add_argument("check", choices=["chapman-kolmogorov", "moments", "covering", "delta-family"])
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--tuples", type=_positive_int, default=20)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--a", type=_positive_float, default=4.0)
    p.add_argument("--b", type=_positive_float, default=1.0)
    p.add_argument("--mode", choices=["integrated", "pointwise"], default="integrated")
    p.add_argument("--tau-grid", dest="tau_grid", default="0.001:0.1:0.0099",
                   help="a:b:step grid of short times")
    p.add_argument("--t", type=_positive_float, default=0.5)
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--windings", type=_windings, default=6)
    _add_common(p)

    p = subs.add_parser("sample", help="sample paths; dump one as CSV, summarize the ensemble")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--T", type=_positive_float, required=True)
    p.add_argument("--steps", type=_positive_int, default=32)
    p.add_argument("--samples", type=_positive_int, default=1)
    p.add_argument("--sample-index", dest="sample_index", type=int, default=0)
    p.add_argument("--summary-out", dest="summary_out", default=None)
    _add_common(p)

    p = subs.add_parser("bridge", help="sample pinned bridges; dump one as CSV")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--T", type=_positive_float, required=True)
    p.add_argument("--steps", type=_positive_int, default=32)
    p.add_argument("--samples", type=_positive_int, default=1)
    p.add_argument("--sample-index", dest="sample_index", type=int, default=0)
    p.add_argument("--summary-out", dest="summary_out", default=None)
    _add_common(p)

    p = subs.add_parser("fk", help="Feynman-Kac estimators and structure checks")
    p.add_argument("task", choices=["expectation", "kernel", "monotonicity", "covering-sum"])
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--potential", type=parse_potential, default=zero_potential())
    p.add_argument("--potential2", type=parse_potential, default=None)
    p.add_argument("--terminal", type=parse_potential, default=None,
                   help="terminal data g as a named potential; default g = 1")
    p.add_argument("--x0", default=None, help="start point; defaults to the model origin")
    p.add_argument("--y0", default=None)
    p.add_argument("--t", type=_positive_float, required=True)
    p.add_argument("--steps", type=_positive_int, default=64)
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--rule", choices=["right", "trapezoid"], default="right")
    p.add_argument("--oracle-m", dest="oracle_m", type=_positive_int, default=None)
    p.add_argument("--windings", type=_windings, default=3)
    _add_common(p)

    p = subs.add_parser("curve", help="expected-distance curve, analytic vs Monte Carlo")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--x0", default=None)
    p.add_argument("--t-grid", dest="t_grid", required=True, help="a:b:step")
    p.add_argument("--samples", type=_positive_int, default=100000)
    _add_common(p)

    p = subs.add_parser("holder", help="dyadic regularity exponent of sampled paths")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--paths", type=_positive_int, default=200)
    p.add_argument("--levels", default="4:12")
    p.add_argument("--x0", default=None)
    _add_common(p)

    return parser


def _merge_config_file(argv, parser):
    """Inject key=value pairs from --config FILE under the explicit flags.
    The file is found as argparse finds it: --config FILE, --config=FILE
    or an abbreviation, the last one winning."""
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # no FILE: the full parser says so
        return argv
    if path is None:
        return argv
    injected = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"argument --config: cannot read {path!r}: {exc.strerror}")
    for number, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"argument --config: {path}:{number}: want 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        injected.extend([f"--{key.strip()}", value.strip()])
    # subcommand (and any positional task) stays first; file pairs go before
    # the explicit flags so the flags win on repeat
    head = []
    rest = list(argv)
    while rest and not rest[0].startswith("-"):
        head.append(rest.pop(0))
    return head + injected + rest


def parse_args(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    argv = _merge_config_file(argv, parser)
    ns = parser.parse_args(argv)
    try:
        worker_count()  # PATHKERNEL_WORKERS is part of the command line
    except ValueError as exc:
        parser.error(str(exc))
    index = getattr(ns, "sample_index", None)
    if index is not None and not 0 <= index < ns.samples:
        parser.error(f"argument --sample-index: must be in [0, {ns.samples}), got {index}")
    options = vars(ns)
    sub = options.pop("subcommand")
    return RunConfig(subcommand=sub, options=options)


# ---------------------------------------------------------------------------
# subcommand runners


def _kernel_for(config):
    model, kind = config.options["model"]
    policy = TruncationPolicy(tail_tolerance=config.options.get("tail_tol", 1e-12))
    return TransitionKernel(model, kind=kind, truncation=policy)


def _run_kernel(config):
    k = _kernel_for(config)
    model = k.model
    x = _point_option(config, "x", model)
    y = _point_option(config, "y", model)
    return _verdict(config, {"value": evaluate(k, config.options["t"], x, y)})


def _run_mass(config):
    k = _kernel_for(config)
    x = _point_option(config, "x", k.model)
    value = total_mass(k, config.options["t"], x, quad_tol=config.options["quad_tol"])
    return _verdict(config, {"value": value})


def _run_verify(config):
    check = config.options["check"]
    k = _kernel_for(config)
    if check == "chapman-kolmogorov":
        # tuple i draws s, t, x and z, in this order, from substream i of the seed
        cursor = StreamCursor(config.options["seed"], np.arange(config.options["tuples"], dtype=np.uint64))
        s, t = (0.2 + 0.6 * cursor.uniforms(2)).T.tolist()
        x = k.model.random_interior(cursor)
        z = k.model.random_interior(cursor)
        worst = float(np.max(chapman_kolmogorov_residuals(k, s, t, x, z)))
        payload = {"max_residual": worst, "tuples": config.options["tuples"],
                   "tol": config.options["tol"], "seed": config.options["seed"]}
        failed = not worst <= config.options["tol"]  # a NaN residual fails too
        return _verdict(config, payload, "VerificationFailed" if failed else None)
    if check == "moments":
        taus = _parse_grid_spec(config.options["tau_grid"])
        cfg = MomentCheckConfig(
            a=config.options["a"], b=config.options["b"], tau_grid=tuple(taus),
            mode=config.options["mode"], quad_tol=config.options["quad_tol"],
        )
        report = moment_check(k, cfg)
        payload = {
            "mode": report.mode, "a": report.a, "b": report.b, "taus": report.taus,
            "ratios": report.ratios, "divergent": report.divergent,
            "worst_constant": report.worst_constant,
        }
        if report.any_divergent:
            payload = {"message": "moment integral diverges on the tau grid", **payload}
        return _verdict(config, payload, "DivergentIntegralError" if report.any_divergent else None)
    if check == "covering":
        # the covering sum without a potential: every weight is 1, so one
        # 1-step bridge per term reads the kernels themselves, draws nothing
        # that reaches the result and forks no worker
        check_task(k, "covering")
        (length,) = k.model.periods
        x = _point_option(config, "x", k.model, k.model.default_point())
        y = _point_option(config, "y", k.model, Point((length / 3.0,)))
        w = config.options["windings"]
        rep = fk_covering_sum_check(k, zero_potential(), x, y, config.options["t"], w, 1, 1, RngContract(0))
        payload = {"kernel_value": rep.base_estimate.value, "image_sum": rep.line_sum,
                   "residual": rep.residual, "tail_bound": rep.tail_bound, "windings": w}
        return _verdict(config, payload, None if rep.within_tolerance else "VerificationFailed")
    # delta-family
    y = _point_option(config, "y", k.model, k.model.default_point())
    t_seq = [0.05 * 2.0 ** -j for j in range(10)]
    residuals = delta_family_residuals(k, y, t_seq, quad_tol=config.options["quad_tol"])
    payload = {"t": t_seq, "residuals": residuals, "seed": config.options["seed"]}
    decreasing = all(b <= a * 1.1 for a, b in zip(residuals, residuals[1:]))
    failed = not decreasing or residuals[-1] > residuals[0] / 50.0
    return _verdict(config, payload, "VerificationFailed" if failed else None)


def _write_csv(config, text):
    """CSV text goes to --out if given, else to stdout."""
    if config.options.get("out"):
        with open(config.options["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_path(config, path, summary):
    """Dump the path as CSV, then print the summary and mirror it to --summary-out."""
    _write_csv(config, path_to_csv(path, comment=_header_line(config)[2:]))
    return _verdict(config, summary, out_key="summary_out")


def _run_sample(config):
    k = _kernel_for(config)
    x0 = _point_option(config, "x0", k.model)
    check_task(k, "paths")
    grid = TimeGrid.uniform(config.options["T"], config.options["steps"])
    seed, n = config.options["seed"], config.options["samples"]
    [(killed,)] = over_paths([(k, x0, None, grid, lambda rows, _: (np.isnan(last_row(rows)[:, 0]),))], n,
                             RngContract(seed), worker_count(config.options["workers"]))
    path = sample_paths(k, x0, grid, seed, 1, first_index=config.options["sample_index"]).path(0)
    return _emit_path(config, path, {
        "n_samples": n,
        "survival_fraction": (n - int(np.count_nonzero(killed))) / n,
        "seed": seed,
        "horizon": grid.horizon,
        "n_steps": grid.n_steps,
    })


def _run_bridge(config):
    k = _kernel_for(config)
    x0 = _point_option(config, "x0", k.model)
    y0 = _point_option(config, "y0", k.model)
    check_task(k, "bridges")
    grid = TimeGrid.uniform(config.options["T"], config.options["steps"])
    seed = config.options["seed"]

    def reduce(rows, windings):
        last_row(rows)  # every step is drawn: one that leaves the float range raises
        return () if windings is None else (windings[:, 0],)

    [kept] = over_paths([(k, x0, y0, grid, reduce)], config.options["samples"], RngContract(seed),
                        worker_count(config.options["workers"]))
    path = sample_bridges(k, x0, y0, grid, seed, 1, first_index=config.options["sample_index"]).path(0)
    summary = {
        "n_samples": config.options["samples"],
        "seed": seed,
        "horizon": grid.horizon,
        "n_steps": grid.n_steps,
    }
    if kept:
        vals, counts = np.unique(kept[0], return_counts=True)
        summary["winding_histogram"] = {str(int(v)): int(c) for v, c in zip(vals, counts)}
    return _emit_path(config, path, summary)


def _oracle_value(config, task, kernel, pot, t, g, x0, y0):
    """The spectral oracle's value for `fk expectation` or `fk kernel`, if
    --oracle-m asks for it.  It is computed before any path is drawn, so
    its matrices are freed before the paths take their memory."""
    m = config.options["oracle_m"]
    if not m:
        return None
    orc = spectral_oracle(kernel, m, pot, t)
    if task == "expectation":
        return orc.value_at(g, x0.coords[0])
    return orc.kernel_entry(x0.coords[0], y0.coords[0])


# fk options with no default -> the tasks that read them
_FK_TASK_OPTIONS = {
    "terminal": ("expectation", "monotonicity"),
    "potential2": ("monotonicity",),
    "oracle_m": ("expectation", "kernel"),
    "y0": ("kernel", "monotonicity", "covering-sum"),
}


def _run_fk(config):
    task = config.options["task"]
    for key, tasks in _FK_TASK_OPTIONS.items():
        if config.options[key] is not None and task not in tasks:
            raise ValueError(f"fk {task} does not read --{key.replace('_', '-')}")
    k = _kernel_for(config)
    model = k.model
    pot = config.options["potential"]
    x0 = _point_option(config, "x0", model, model.default_point())
    t = config.options["t"]
    steps = config.options["steps"]
    samples = config.options["samples"]
    seed = config.options["seed"]
    rule = config.options["rule"]
    workers = worker_count(config.options["workers"])
    rng = RngContract(seed)
    g = config.options["terminal"] or constant_one
    y0 = _point_option(config, "y0", model)
    if task in ("kernel", "covering-sum") and y0 is None:
        raise ValueError(f"fk {task} needs --y0")
    if task in ("expectation", "kernel"):
        # refused runs build no oracle: a cemetery point, or a law without the oracle, paths or bridges
        if config.options["oracle_m"] and CEMETERY in (x0, y0):
            raise ValueError("the spectral oracle has no cemetery row; --x0 and --y0 must lie inside the interval")
        if config.options["oracle_m"]:
            check_task(k, "oracle")
        check_task(k, "bridges" if task == "kernel" else "paths")
        oracle = _oracle_value(config, task, k, pot, t, g, x0, y0)
        if task == "expectation":
            est = fk_expectation(FKProblem(k, pot, g, x0, t, steps, samples, rng), rule=rule, workers=workers)
        else:
            est = fk_kernel(k, pot, x0, y0, t, steps, samples, rng, rule=rule, workers=workers)
        payload = {"value": est.value, "std_error": est.std_error,
                   "n_samples": est.n_samples, "n_steps": steps, "seed": seed}
        if oracle is not None:
            payload["oracle"] = oracle
        return _verdict(config, payload)

    if task == "monotonicity":
        check_task(k, "paths" if y0 is None else "bridges")
        pot2 = config.options["potential2"]
        if pot2 is None:
            raise ValueError("fk monotonicity needs --potential2")
        rep = fk_monotonicity_check(k, pot, pot2, x0, t, steps, samples, rng, y0=y0,
                                    terminal=config.options["terminal"], rule=rule, workers=workers)
        payload = {
            "passed": rep.passed, "n_violations": rep.n_violations,
            "value_low": rep.estimate_low.value, "value_high": rep.estimate_high.value,
            "std_error_low": rep.estimate_low.std_error,
            "std_error_high": rep.estimate_high.std_error,
            "n_samples": rep.n_samples, "n_steps": steps, "seed": seed,
        }
        return _verdict(config, payload, None if rep.passed else "MonotonicityViolated")

    # covering-sum
    rep = fk_covering_sum_check(k, pot, x0, y0, t, config.options["windings"], steps, samples, rng,
                                rule=rule, workers=workers)
    payload = {
        "value": rep.base_estimate.value,
        "std_error": rep.base_estimate.std_error,
        "line_sum": rep.line_sum,
        "combined_std_error": rep.combined_std_error,
        "tail_bound": rep.tail_bound,
        "residual": rep.residual,
        "within_tolerance": rep.within_tolerance,
        "n_samples": samples, "n_steps": steps, "seed": seed,
    }
    # a non-finite estimate is the numeric failure every fk command reports, not a mismatch
    mismatch = not rep.within_tolerance and math.isfinite(rep.residual)
    return _verdict(config, payload, "CoveringSumMismatch" if mismatch else None)


def _run_curve(config):
    k = _kernel_for(config)
    x0 = _point_option(config, "x0", k.model, k.model.default_point())
    t_grid = _parse_grid_spec(config.options["t_grid"])
    rows = distance_curve(
        k, x0, t_grid, config.options["samples"], RngContract(config.options["seed"]),
        workers=worker_count(config.options["workers"]),
    )
    _write_csv(config, curve_to_csv(rows, comment=_header_line(config)[2:]))
    return 0


def _run_holder(config):
    levels = _parse_level_range(config.options["levels"])
    n_paths = config.options["paths"]
    seed = config.options["seed"]
    k = _kernel_for(config)
    check_task(k, "increments")
    if k.kind == "heat" and k.model == Euclidean(1):
        ensemble = brownian_dyadic_ensemble(n_paths, levels, seed)
        rep = holder_exponent(ensemble)
    else:
        x0 = _point_option(config, "x0", k.model, k.model.default_point())
        ensemble = strided_dyadic_ensemble(k, x0, levels, n_paths, seed)
        rep = holder_exponent(ensemble, model=k.model)
    payload = {
        "levels": rep.levels,
        "median_max_increments": rep.median_max_increments,
        "fitted_exponent": rep.fitted_exponent,
        "r_squared": rep.r_squared,
        "paths": n_paths,
        "seed": seed,
    }
    return _verdict(config, payload)


_RUNNERS = {
    "kernel": _run_kernel,
    "mass": _run_mass,
    "verify": _run_verify,
    "sample": _run_sample,
    "bridge": _run_bridge,
    "fk": _run_fk,
    "curve": _run_curve,
    "holder": _run_holder,
}


def run(config):
    """Execute a parsed configuration; returns the process exit code.

    Numeric failures (PathkernelError) and a run too large for memory
    (MemoryError) exit 1 with a JSON record on stdout; input the run
    cannot use (ValueError, TypeError, OSError) exits 2 with a message on
    stderr, as argparse does for bad flags.
    """
    try:
        return _RUNNERS[config.subcommand](config)
    except (ValueError, TypeError, OSError) as exc:
        sys.stderr.write(f"pathkernel {config.subcommand}: error: {exc}\n")
        return 2
    except (PathkernelError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # numpy raises a private subclass
            record = {"error": "MemoryError", "message": str(exc) or "out of memory"}
        else:
            record = {"error": type(exc).__name__, "message": str(exc)}
        if "seed" in config.options:
            record["seed"] = config.options["seed"]
        sys.stdout.write(_json17(record) + "\n")
        return 1


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
