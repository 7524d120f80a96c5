import argparse
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathkernel
from pathkernel import heat_kernel
from pathkernel.cli import (
    DEFAULT_SEED,
    MAX_WINDINGS,
    main,
    parse_args,
    parse_model,
    parse_potential,
    run,
)
from pathkernel.feynman_kac import cos_potential, fk_covering_sum_check
from pathkernel.heat_kernel import TransitionKernel, TruncationPolicy, delta_family_residuals, evaluate
from pathkernel.manifold import Circle, Compactified, DirichletInterval, Euclidean, point
from pathkernel.rng import RngContract, StreamCursor


def run_cli(args, env=None):
    import os

    full_env = dict(os.environ)
    full_env.pop("PATHKERNEL_WORKERS", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "pathkernel.cli", *args],
        capture_output=True, text=True, env=full_env,
    )


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private MemoryError subclass; range() raises a bare MemoryError."""


def read_payload(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# pathkernel ")
    return "\n".join(lines[1:])


class TestParsing:
    def test_model_specs(self):
        from pathkernel.manifold import FlatTorus

        assert parse_model("euclidean:3") == (Euclidean(3), "heat")
        assert parse_model("circle:1.5") == (Circle(1.5), "heat")
        assert parse_model("torus:1,2.5") == (FlatTorus((1.0, 2.5)), "heat")
        assert parse_model("cauchy") == (Euclidean(1), "cauchy")
        assert parse_model("compactified:dirichlet:3.14") == (
            Compactified(DirichletInterval(3.14)), "heat",
        )

    def test_potential_specs(self):
        assert parse_potential("zero").name == "zero"
        assert parse_potential("const:2.5").sup_bound == 2.5
        assert parse_potential("cos").name == "cos"
        assert parse_potential("step:0,1,3").sup_bound == 3.0

    def test_kernel_flag_mapping(self):
        cfg = parse_args(["kernel", "--model", "euclidean:1", "--t", "0.0795775",
                          "--x", "0", "--y", "0"])
        assert cfg.subcommand == "kernel"
        assert cfg.options["t"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-5)

    def test_fk_flag_mapping(self):
        cfg = parse_args(["fk", "expectation", "--model", "circle:6.283185",
                          "--potential", "cos", "--t", "1", "--steps", "64",
                          "--samples", "200000", "--seed", "42"])
        assert cfg.options["task"] == "expectation"
        assert cfg.options["samples"] == 200000
        assert cfg.options["seed"] == 42

    def test_seed_defaults_to_fixed_constant(self):
        cfg = parse_args(["sample", "--model", "euclidean:1", "--x0", "0", "--T", "1"])
        assert cfg.options["seed"] == DEFAULT_SEED

    def test_config_file_merges_under_flags(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("seed = 7\nsteps = 16   # comment\n")
        cfg = parse_args(["sample", "--model", "euclidean:1", "--x0", "0", "--T", "1",
                          "--config", str(f), "--steps", "32"])
        assert cfg.options["seed"] == 7       # from the file
        assert cfg.options["steps"] == 32     # explicit flag wins

    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_config_file_found_in_either_form(self, tmp_path, form):
        f = tmp_path / "run.cfg"
        flag = ["--config", str(f)] if form == "separate" else [f"--config={f}"]
        f.write_text("samples = 5\n")
        cfg = parse_args(["fk", "expectation", "--model", "circle:1.0", "--t", "1", "--steps", "2", *flag])
        assert cfg.options["samples"] == 5
        f.write_text("t = 2\n")  # a required flag may come from the file
        cfg = parse_args(["kernel", "--model", "euclidean:1", "--x", "0", "--y", "0", *flag])
        assert cfg.options["t"] == 2.0

    @pytest.mark.parametrize("command", [["verify", "covering", "--model", "circle:1.0"],
                                         ["fk", "covering-sum", "--model", "circle:1.0", "--t", "1"]],
                             ids=["verify", "fk"])
    def test_windings_are_capped(self, command, capsys):
        assert parse_args(command + ["--windings", str(MAX_WINDINGS)]).options["windings"] == MAX_WINDINGS
        with pytest.raises(SystemExit) as exc:
            parse_args(command + ["--windings", str(MAX_WINDINGS + 1)])
        assert exc.value.code == 2
        assert f"--windings: must be at most {MAX_WINDINGS}" in capsys.readouterr().err


class TestExitCodes:
    def test_negative_time_is_usage_error(self):
        res = run_cli(["kernel", "--model", "euclidean:1", "--t", "-1", "--x", "0", "--y", "0"])
        assert res.returncode == 2
        assert "--t" in res.stderr

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_is_usage_error(self, seed):
        res = run_cli(["bridge", "--model", "circle:1.0", "--x0", "0", "--y0", "0", "--T", "0.5",
                       "--steps", "2", "--samples", "10", "--seed", seed])
        assert res.returncode == 2
        assert "--seed" in res.stderr and "Traceback" not in res.stderr

    def test_infinite_time_is_usage_error(self):
        res = run_cli(["fk", "expectation", "--model", "circle:6.283185307179586", "--potential", "cos",
                       "--t", "inf", "--steps", "4", "--samples", "10"])
        assert res.returncode == 2
        assert "--t" in res.stderr and "Traceback" not in res.stderr

    def test_non_integer_worker_env_is_usage_error(self):
        res = run_cli(["fk", "expectation", "--model", "circle:6.283185307179586", "--potential", "cos",
                       "--t", "1", "--steps", "4", "--samples", "10"], env={"PATHKERNEL_WORKERS": "abc"})
        assert res.returncode == 2
        assert "PATHKERNEL_WORKERS" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", ["sample", "bridge"])
    @pytest.mark.parametrize("index", ["-1", "3"])
    def test_sample_index_outside_samples_is_usage_error(self, command, index):
        ends = ["--x0", "0"] + (["--y0", "0"] if command == "bridge" else [])
        res = run_cli([command, "--model", "euclidean:1", *ends, "--T", "1", "--steps", "2",
                       "--samples", "3", "--sample-index", index])
        assert res.returncode == 2
        assert "--sample-index" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("args, code", [
        (["sample", "--model", "euclidean:1", "--x0", "0", "--T", "1e308", "--steps", "1"], 1),
        (["sample", "--model", "circle:1", "--x0", "0", "--T", "1e308", "--steps", "1"], 1),
        (["sample", "--model", "hyperbolic3", "--x0", "1,0,0,0", "--T", "1e308", "--steps", "1"], 1),
        (["bridge", "--model", "euclidean:1", "--x0", "0", "--y0", "1", "--T", "1e200", "--steps", "2"], 1),
        (["curve", "--model", "euclidean:1", "--t-grid", "1e308:1e308:1"], 1),
        (["sample", "--model", "cauchy", "--x0", "0", "--T", "1e305", "--steps", "1", "--samples", "20000"], 1),
        (["bridge", "--model", "euclidean:1", "--x0", "0", "--y0", "1", "--T", "1e308", "--steps", "2"], 2),
        # past the image budget a winding is a rounded normal, here of deviation 1.4e20
        (["bridge", "--model", "circle:1", "--x0", "0", "--y0", "0.5", "--T", "1e40", "--steps", "2"], 1),
    ], ids=["euclidean", "circle", "h3", "bridge-variance", "curve", "cauchy", "bridge-grid", "bridge-winding"])
    def test_overflowing_step_writes_nothing(self, tmp_path, args, code):
        out = tmp_path / "out.csv"
        res = run_cli(args + ["--out", str(out)])
        assert res.returncode == code and not out.exists()
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr
        if code == 1:
            assert json.loads(res.stdout)["error"] == "NonFiniteSampleError"
        else:
            assert "grid times must be finite" in res.stderr and res.stdout == ""

    def test_killed_paths_at_an_overflowing_step_are_all_killed(self, tmp_path):
        res = run_cli(["sample", "--model", "compactified:dirichlet:3", "--x0", "1", "--T", "1e308", "--steps", "1",
                       "--samples", "100", "--out", str(tmp_path / "out.csv")])
        assert res.returncode == 0 and res.stderr == ""
        assert json.loads(res.stdout)["survival_fraction"] == 0

    @pytest.mark.parametrize("args", [
        ["--potential", "zero", "--t", "2"], ["--potential", "const:0.7", "--t", "2"],
        ["--potential", "zero", "--t", "1000"], ["--potential", "zero", "--t", "1e5"],
        ["--potential", "zero", "--t", "1e6"],
    ], ids=["zero-t2", "const-t2", "zero-t1000", "zero-t1e5", "zero-t1e6"])
    def test_covering_sum_with_constant_weights_is_exit_0(self, args):
        res = run_cli(["fk", "covering-sum", "--model", "circle:6.283185307179586", "--y0", "3.14159265",
                       "--windings", "3", "--steps", "4", "--samples", "2000", *args])
        assert res.returncode == 0 and res.stderr == ""
        assert json.loads(res.stdout)["within_tolerance"] is True

    def test_hyperbolic_overflow_is_numeric_failure(self, tmp_path):
        out = tmp_path / "path.csv"
        res = run_cli(["sample", "--model", "hyperbolic3", "--x0", "1,0,0,0", "--T", "400",
                       "--steps", "2", "--samples", "4", "--out", str(out)])
        assert res.returncode == 1
        assert json.loads(res.stdout)["error"] == "NonFiniteSampleError"
        assert "Traceback" not in res.stderr and not out.exists()

    def test_a_two_block_overflow_is_the_same_failure_at_any_worker_count(self):
        args = ["sample", "--model", "hyperbolic3", "--x0", "1,0,0,0", "--T", "1e300", "--steps", "2",
                "--samples", "65536", "--seed", "1"]
        runs = [run_cli(args + ["--workers", workers]) for workers in ("1", "2")]
        for res in runs:
            assert res.returncode == 1 and "Traceback" not in res.stderr
            assert json.loads(res.stdout)["error"] == "NonFiniteSampleError"
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize("exc", [MemoryError(), _ArrayMemoryError("Unable to allocate 24.6 GiB")],
                             ids=["bare", "numpy"])
    def test_out_of_memory_is_numeric_failure(self, monkeypatch, capsys, exc):
        def runner(config):
            raise exc

        monkeypatch.setitem(pathkernel.cli._RUNNERS, "sample", runner)
        cfg = parse_args(["sample", "--model", "euclidean:1", "--x0", "0", "--T", "1"])
        assert run(cfg) == 1
        record = json.loads(capsys.readouterr().out)
        assert record == {"error": "MemoryError", "message": str(exc) or "out of memory", "seed": DEFAULT_SEED}

    def test_far_hyperboloid_points_checked_without_overflow(self):
        res = run_cli(["kernel", "--model", "hyperbolic3", "--t", "1", "--x", "1e200,0,0,0", "--y", "1,0,0,0"])
        assert res.returncode == 2
        assert "--x is off the hyperboloid" in res.stderr and "Warning" not in res.stderr
        far = f"{math.cosh(400.0)!r},{math.sinh(400.0)!r},0,0"
        res = run_cli(["kernel", "--model", "hyperbolic3", "--t", "1", "--x", far, "--y", "1,0,0,0"])
        assert res.returncode == 0 and res.stderr == ""

    @pytest.mark.parametrize("args", [
        ["kernel", "--model", "hyperbolic3", "--t", "1e-300", "--x", "1,0,0,0", "--y", "1,0,0,0"],
        ["kernel", "--model", "euclidean:3", "--t", "1e-300", "--x", "0,0,0", "--y", "0,0,0"],
        ["mass", "--model", "hyperbolic3", "--t", "1e-300", "--x", "1,0,0,0"],
    ], ids=["kernel-h3", "kernel-euclidean", "mass-h3"])
    def test_tiny_time_is_numeric_failure(self, args):
        res = run_cli(args)
        assert res.returncode == 1
        record = json.loads(res.stdout)
        assert record["error"] == "PathkernelError" and "t = 1e-300" in record["message"]
        assert "Traceback" not in res.stderr

    def test_infinite_kernel_value_is_numeric_failure(self):
        # t * t underflows, so the Cauchy density divides by zero
        res = run_cli(["kernel", "--model", "cauchy", "--t", "1e-200", "--x", "0", "--y", "0"])
        assert res.returncode == 1
        record = json.loads(res.stdout)
        assert record["error"] == "PathkernelError" and "t = 1e-200" in record["message"]
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("args, error, message", [
        (["fk", "kernel", "--model", "circle:1.0", "--potential", "const:-800", "--t", "1", "--steps", "4",
          "--samples", "16", "--y0", "0.5"], "PathkernelError", "'value' is inf"),
        (["fk", "kernel", "--model", "circle:1.0", "--potential", "const:-800", "--t", "1", "--steps", "4",
          "--samples", "16", "--y0", "0.5", "--oracle-m", "16"], "PathkernelError", "'value' is inf"),
        (["fk", "monotonicity", "--model", "circle:1.0", "--potential", "const:-800", "--potential2", "const:1",
          "--t", "1", "--steps", "4", "--samples", "16"], "PathkernelError", "'value_low' is inf"),
        (["fk", "expectation", "--model", "circle:1.0", "--potential", "const:-800", "--t", "1", "--steps", "4",
          "--samples", "16"], "PathkernelError", "'value' is inf"),
        (["fk", "covering-sum", "--model", "circle:6.283185307179586", "--potential", "const:1e308", "--y0", "3",
          "--t", "0.5", "--steps", "4", "--samples", "16"], "PathkernelError", "'tail_bound' is inf"),
        (["verify", "moments", "--model", "euclidean:1", "--b", "1e308"], "PathkernelError",
         "at tau = 0.001, b = 1e+308"),
        (["verify", "moments", "--model", "euclidean:1", "--b", "1e308", "--tau-grid", "2:3:1"],
         "PathkernelError", "at tau = 2.0, b = 1e+308"),
        (["verify", "moments", "--model", "hyperbolic3", "--a", "1000"], "PathkernelError",
         "at tau = 0.0109, b = 1.0 is out of the float range"),
        (["mass", "--model", "hyperbolic3", "--t", "170", "--x", "1,0,0,0"], "QuadratureError", "65536"),
        (["mass", "--model", "dirichlet:3.14159265", "--t", "1", "--x", "1.5707963", "--quad-tol", "1e-300"],
         "QuadratureError", "65536"),
    ], ids=["fk-kernel-inf", "fk-kernel-oracle", "fk-monotonicity-inf", "fk-expectation-inf",
            "fk-covering-tail-inf", "moments-tau-underflow", "moments-tau-overflow", "moments-h3-a1000",
            "mass-h3-nan", "mass-quad-tol"])
    def test_numeric_failure_exits_1_with_record(self, tmp_path, args, error, message):
        out = tmp_path / "out.json"
        res = run_cli(args + ["--out", str(out)])
        assert res.returncode == 1
        record = json.loads(res.stdout)
        assert record["error"] == error and message in record["message"]
        assert "Traceback" not in res.stderr and not out.exists()

    @pytest.mark.parametrize("args", [
        ["--model", "hyperbolic3", "--a", "30"],
        ["--model", "hyperbolic3", "--a", "100"],
        ["--model", "hyperbolic3", "--a", "100", "--tau-grid", "2:2:1"],
        ["--model", "euclidean:1", "--a", "100"],
    ], ids=["moments-h3-a30", "moments-h3-a100", "moments-h3-a100-tau2", "moments-euclidean-a100"])
    def test_high_order_moment_is_exit_0(self, args):
        # finite moments whose integrals once stopped at the quadrature cap
        res = run_cli(["verify", "moments", *args])
        assert res.returncode == 0 and res.stderr == ""
        out = json.loads(res.stdout)
        assert not any(out["divergent"]) and all(math.isfinite(r) for r in out["ratios"])
        if args[1] == "euclidean:1":  # E|Y|^100 for Y ~ N(0, 2 tau)
            for tau, ratio in zip(out["taus"], out["ratios"]):
                want = math.exp(50.0 * math.log(4.0 * tau) + math.lgamma(50.5) - math.lgamma(0.5)) / tau ** 2
                assert ratio == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("args, moment", [
        (["--model", "euclidean:1", "--a", "14"],
         lambda tau: math.exp(7.0 * math.log(4.0 * tau) + math.lgamma(7.5) - math.lgamma(0.5))),
        (["--model", "euclidean:2", "--a", "300", "--mode", "pointwise"],
         lambda tau: math.exp(150.0 * (math.log(600.0 * tau) - 1.0) - math.log(4.0 * math.pi * tau))),
        (["--model", "cauchy", "--a", "0.5", "--b", "0.1", "--tau-grid", "0.01:0.1:0.09"],
         lambda tau: tau ** 0.5 / math.cos(0.25 * math.pi)),
        (["--model", "cauchy", "--a", "0.9", "--b", "0.1", "--tau-grid", "0.01:0.1:0.09"],
         lambda tau: tau ** 0.9 / math.cos(0.45 * math.pi)),
    ], ids=["euclidean1-a14", "euclidean2-a300-pointwise", "cauchy-a0.5", "cauchy-a0.9"])
    def test_closed_form_moments(self, args, moment):
        res = run_cli(["verify", "moments", *args])
        assert res.returncode == 0 and res.stderr == ""
        out = json.loads(res.stdout)
        assert out["divergent"] == [False] * len(out["taus"])
        for tau, ratio in zip(out["taus"], out["ratios"]):
            assert ratio == pytest.approx(moment(tau) / tau ** (1.0 + out["b"]), rel=1e-12)

    @pytest.mark.parametrize("args", [
        ["--a", "1"],
        ["--a", "30", "--tau-grid", "0.001:0.1:0.0495"],
    ], ids=["a1", "a30"])
    def test_cauchy_moment_from_a_1_diverges(self, args):
        res = run_cli(["verify", "moments", "--model", "cauchy", *args])
        assert res.returncode == 1 and res.stderr == ""
        out = json.loads(res.stdout)
        assert out["error"] == "DivergentIntegralError" and all(out["divergent"])

    @pytest.mark.parametrize("args", [
        ["--x0", "5e149", "--T", "1e-300", "--steps", "2"],
        ["--x0", "1", "--T", "1e-30", "--steps", "4"],
    ], ids=["mid", "near-wall"])
    def test_killed_steps_at_extreme_lengths_are_quiet(self, args):
        # the survival ratio's exponents overflow to inf, which is exp(-inf) = 0
        res = run_cli(["sample", "--model", "compactified:dirichlet:1e150", *args, "--samples", "500"])
        assert res.returncode == 0 and res.stderr == ""

    @pytest.mark.parametrize("t", ["1e-300", "1e-12"])
    def test_cemetery_row_at_tiny_t_is_exit_0(self, t):
        # the source at 2 has lost no mass to the walls of (0, pi) yet
        res = run_cli(["kernel", "--model", "compactified:dirichlet:3.14159265", "--t", t, "--x", "inf", "--y", "2"])
        assert res.returncode == 0 and res.stderr == ""
        assert json.loads(res.stdout)["value"] == 0.0

    @pytest.mark.parametrize("task, extra, message", [
        ("expectation", [], "'value' is inf"),
        ("expectation", ["--terminal", "step:0,1,1", "--x0", "2"], "'value' is nan"),
        ("kernel", ["--y0", "1"], "'value' is inf"),
        ("monotonicity", ["--potential2", "const:-700"], "'value_low' is inf"),
        ("covering-sum", ["--y0", "1"], "'value' is inf"),
    ], ids=["expectation", "expectation-g-zero", "kernel", "monotonicity", "covering-sum"])
    def test_overflowing_weights_are_one_quiet_numeric_failure(self, task, extra, message):
        # e^800 overflows (times g = 0 it is NaN): no RuntimeWarning, and the
        # covering sum reports the infinite estimate as the other fk commands do
        res = run_cli(["fk", task, "--model", "circle:6.283185307179586", "--potential", "const:-800",
                       "--t", "1", "--steps", "2", "--samples", "4", *extra])
        assert res.returncode == 1 and res.stderr == ""
        record = json.loads(res.stdout)
        assert record["error"] == "PathkernelError" and message in record["message"]

    @pytest.mark.parametrize("rule", ["right", "trapezoid"])
    def test_overflowing_exponent_is_a_quiet_zero(self, rule):
        # the Riemann sum of 1e308 overflows to inf, whose weight e^-inf is the limit 0
        res = run_cli(["fk", "expectation", "--model", "circle:6.283185307179586", "--potential", "const:1e308",
                       "--t", "10", "--steps", "2", "--samples", "4", "--rule", rule])
        assert res.returncode == 0 and res.stderr == ""
        out = json.loads(res.stdout)
        assert out["value"] == 0.0 and out["std_error"] == 0.0

    def test_underflowing_weight_is_exit_0(self):
        # e^(t sup|V|) overflows, so the a-priori cap is infinite and never
        # exceeded; every weight e^(-t 1e308) rounds to 0
        res = run_cli(["fk", "expectation", "--model", "euclidean:1", "--potential", "const:1e308",
                       "--t", "1", "--steps", "4", "--samples", "10"])
        assert res.returncode == 0 and "Traceback" not in res.stderr
        out = json.loads(res.stdout)
        assert out["value"] == 0.0 and out["std_error"] == 0.0

    @pytest.mark.parametrize("model", ["circle:1e300", "euclidean:1"])
    def test_kernel_at_the_largest_times_is_one_gaussian(self, model):
        # 4 t log(1/tol) and 4 pi t overflow at t = 1e308, though the Gaussian
        # is narrow against the period (t / L^2 = 1e-292): one image, no dual series
        res = run_cli(["kernel", "--model", model, "--t", "1e308", "--x", "0", "--y", "0"])
        assert res.returncode == 0 and res.stderr == ""
        value = json.loads(res.stdout)["value"]
        assert value == pytest.approx((4.0 * math.pi) ** -0.5 * 1e-154, rel=1e-15)

    def test_h3_bridge_beyond_three_steps(self):
        res = run_cli(["bridge", "--model", "hyperbolic3", "--x0", "1,0,0,0",
                       "--y0", "1.3374349463048447,0.888105982187623,0,0", "--T", "1",
                       "--steps", "4", "--samples", "4096"])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[-2] == "1,1.3374349463048447,0.88810598218762304,0,0,0"
        assert json.loads(lines[-1])["n_steps"] == 4

    def test_unknown_flag_rejected(self):
        res = run_cli(["kernel", "--model", "euclidean:1", "--t", "1", "--x", "0",
                       "--y", "0", "--frobnicate", "1"])
        assert res.returncode == 2

    def test_verify_ck_succeeds(self):
        res = run_cli(["verify", "chapman-kolmogorov", "--model", "euclidean:1",
                       "--tuples", "3"])
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["max_residual"] < 1e-9

    @pytest.mark.parametrize("seed", ["90", "403"])
    def test_verify_ck_dirichlet_within_tol(self, seed, capsys):
        assert main(["verify", "chapman-kolmogorov", "--model", "dirichlet:3.14159265",
                     "--tuples", "300", "--seed", seed]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_residual"] <= out["tol"]

    def test_cauchy_moment_divergence_is_numeric_failure(self):
        res = run_cli(["verify", "moments", "--model", "cauchy", "--a", "4", "--b", "1",
                       "--tau-grid", "0.01:0.1:0.09"])
        assert res.returncode == 1
        out = json.loads(res.stdout)
        assert out["error"] == "DivergentIntegralError"

    def test_kernel_value(self):
        res = run_cli(["kernel", "--model", "cauchy", "--t", "1", "--x", "0", "--y", "0"])
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_verify_covering(self):
        res = run_cli(["verify", "covering", "--model", "circle:1.0", "--t", "0.5",
                       "--x", "0.2", "--y", "0.7", "--windings", "8"])
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["residual"] < 1e-10
        assert out["residual"] <= out["tail_bound"] + 1e-10

    @pytest.mark.parametrize("command", [
        ["verify", "covering", "--t", "0.5", "--x", "0.2", "--y", "0.7", "--windings", "8"],
        ["fk", "covering-sum", "--potential", "cos", "--t", "0.5", "--steps", "4", "--samples", "64",
         "--x0", "0.2", "--y0", "0.7", "--windings", "2"],
    ], ids=["verify", "fk"])
    def test_one_period_torus_covers_as_the_circle(self, capsys, command):
        outputs = []
        for spec in ("circle:1.0", "torus:1.0"):
            assert main(command[:2] + ["--model", spec] + command[2:]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("spec, x, y", [("circle:1.0", "0.2", "0.7"), ("circle:6.283185307179586", "0", "3")],
                             ids=["circle-1", "circle-2pi"])
    def test_verify_covering_is_the_potential_free_covering_sum(self, capsys, spec, x, y):
        assert main(["verify", "covering", "--model", spec, "--t", "0.5", "--x", x, f"--y={y}",
                     "--windings", "6"]) == 0
        check = json.loads(capsys.readouterr().out)
        assert main(["fk", "covering-sum", "--model", spec, "--potential", "zero", "--t", "0.5", "--x0", x,
                     f"--y0={y}", "--windings", "6", "--steps", "4", "--samples", "64"]) == 0
        fk = json.loads(capsys.readouterr().out)
        pairs = [("kernel_value", "value"), ("image_sum", "line_sum"), ("tail_bound", "tail_bound"),
                 ("residual", "residual")]
        assert [check[a] for a, _ in pairs] == [fk[b] for _, b in pairs]

    def test_verify_covering_forks_nothing_and_ignores_the_seed(self, capsys, monkeypatch):
        def no_fork(*args):
            raise AssertionError("verify covering forked a worker")

        monkeypatch.setattr(pathkernel.parallel, "_fork", no_fork)
        monkeypatch.setenv("PATHKERNEL_WORKERS", "2")
        outputs = []
        for seed in ("1", "2"):
            assert main(["verify", "covering", "--model", "circle:1.0", "--t", "0.5", "--seed", seed]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_covering_sum_reads_tail_tol(self, capsys):
        command = ["fk", "covering-sum", "--model", "circle:1.0", "--potential", "cos", "--t", "0.5",
                   "--x0", "0.2", "--y0=0.7", "--windings", "2", "--steps", "4", "--samples", "64"]
        values = []
        for extra, tol in (([], 1e-12), (["--tail-tol", "1e-3"], 1e-3)):  # the default, then a loose one
            assert main(command + extra) == 0
            value = json.loads(capsys.readouterr().out)["value"]
            kernel = TransitionKernel(Circle(1.0), truncation=TruncationPolicy(tail_tolerance=tol))
            rep = fk_covering_sum_check(kernel, cos_potential(), point(0.2), point(0.7), 0.5, 2, 4, 64,
                                        RngContract(DEFAULT_SEED))
            assert value == rep.base_estimate.value
            values.append(value)
        assert values[0] != values[1]  # the tolerance reaches the check's kernel

    def test_verify_delta_family(self):
        res = run_cli(["verify", "delta-family", "--model", "euclidean:1"])
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["residuals"][-1] < out["residuals"][0]

    def test_verify_delta_family_reads_quad_tol(self):
        res = run_cli(["verify", "delta-family", "--model", "euclidean:1", "--quad-tol", "1e-3"])
        assert res.returncode == 0
        out = json.loads(res.stdout)
        want = delta_family_residuals(TransitionKernel(Euclidean(1)), point(0.0), out["t"], quad_tol=1e-3)
        assert out["residuals"] == want

    def test_cemetery_kernel_row(self):
        res = run_cli(["kernel", "--model", "compactified:dirichlet:3.141592653589793",
                       "--t", "1", "--x", "inf", "--y", "1.5707963267948966"])
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == pytest.approx(0.5317, abs=5e-4)


DIRICHLET = ["--model", "dirichlet:3.14159265"]
KILLED = ["--model", "compactified:dirichlet:3.14159265"]
FK_SHORT = ["--potential", "const:1", "--t", "0.5", "--steps", "8", "--samples", "200"]
FK_CIRCLE = ["--model", "circle:6.283185307179586", *FK_SHORT]
# runs whose series are cut at a thousandth of --tail-tol
TAIL_TOL_RUNS = {
    "kernel-circle": ["kernel", "--model", "circle:1.0", "--t", "0.5", "--x", "0.2", "--y", "0.7"],
    "kernel-torus": ["kernel", "--model", "torus:1,2", "--t", "0.5", "--x", "0.2,0.5", "--y", "0.7,1.5"],
    "kernel-dirichlet": ["kernel", *DIRICHLET, "--t", "0.5", "--x", "1", "--y", "2"],
    "sample-killed": ["sample", *KILLED, "--x0", "1", "--T", "1", "--steps", "4", "--samples", "64"],
    "verify-ck-circle": ["verify", "chapman-kolmogorov", "--model", "circle:1.0"],
}


class TestInputErrors:
    """Input the run cannot use exits 2 with a message, never a traceback."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["fk", "expectation", *DIRICHLET, *FK_SHORT], "and compactified:dirichlet:L, not DirichletInterval("),
            (["fk", "monotonicity", *DIRICHLET, *FK_SHORT, "--potential2", "const:2"],
             "and compactified:dirichlet:L, not DirichletInterval("),
            (["fk", "kernel", *DIRICHLET, *FK_SHORT, "--y0", "1"], "bridges"),
            (["sample", *DIRICHLET, "--x0", "1", "--T", "1", "--steps", "4"],
             "and compactified:dirichlet:L, not DirichletInterval("),
            (["bridge", *DIRICHLET, "--x0", "1", "--y0", "1", "--T", "1", "--steps", "4"], "bridges"),
            (["holder", *DIRICHLET, "--paths", "10", "--levels", "2:4"],
             "holder runs on euclidean:N, cauchy, hyperbolic3, circle:L and torus:L1,L2,..., not DirichletInterval("),
            (["curve", *DIRICHLET, "--t-grid", "0.1:0.2:0.1", "--samples", "100"], "DirichletInterval"),
            (["kernel", *DIRICHLET, "--t", "1", "--x", "5", "--y", "1"], "--x must lie in"),
            (["kernel", "--model", "euclidean:1", "--t", "1", "--x", "abc", "--y", "0"], "--x 'abc'"),
            (["mass", "--model", "euclidean:2", "--t", "1", "--x", "0"], "--x has 1 coordinates, expected 2"),
            (["fk", "expectation", "--model", "euclidean:1", "--potential", "cos", "--t", "1",
              "--steps", "4", "--samples", "100", "--oracle-m", "64"], "spectral oracle"),
            (["verify", "moments", "--model", "torus:1,2"],
             "the integrated moment check runs on euclidean:N, cauchy, hyperbolic3, circle:L and dirichlet:L, "
             "not FlatTorus("),
            (["holder", "--model", "compactified:dirichlet:3.14159265", "--paths", "16", "--levels", "2:4"],
             "holder runs on euclidean:N, cauchy, hyperbolic3, circle:L and torus:L1,L2,..., not Compactified("),
            (["curve", "--model", "euclidean:1", "--t-grid", "0:1e300:1e-300", "--samples", "2"],
             "over 10000 points"),
            (["verify", "moments", "--model", "euclidean:1", "--tau-grid", "0.001:1e300:1e-300"],
             "over 10000 points"),
            (["curve", "--model", "euclidean:1", "--t-grid", "0:1:1e-9", "--samples", "2"], "over 10000 points"),
            (["holder", "--model", "euclidean:2", "--paths", "2", "--levels", "4:70"], "bad level range"),
            (["fk", "kernel", *FK_CIRCLE, "--y0", "1", "--terminal", "cos"], "fk kernel does not read --terminal"),
            (["fk", "covering-sum", *FK_CIRCLE, "--y0", "1", "--terminal", "cos"],
             "fk covering-sum does not read --terminal"),
            (["fk", "monotonicity", *FK_CIRCLE, "--potential2", "const:2", "--y0", "1", "--terminal", "cos"],
             "takes no terminal data"),
            (["fk", "monotonicity", *FK_CIRCLE, "--potential2", "const:2", "--terminal", "cos"],
             "nonnegative terminal data"),
            (["fk", "expectation", *FK_CIRCLE, "--potential2", "const:2"], "fk expectation does not read --potential2"),
            (["fk", "kernel", *FK_CIRCLE, "--y0", "1", "--potential2", "const:2"],
             "fk kernel does not read --potential2"),
            (["fk", "covering-sum", *FK_CIRCLE, "--y0", "1", "--potential2", "const:2"],
             "fk covering-sum does not read --potential2"),
            (["fk", "monotonicity", *FK_CIRCLE, "--potential2", "const:2", "--oracle-m", "64"],
             "fk monotonicity does not read --oracle-m"),
            (["fk", "covering-sum", *FK_CIRCLE, "--y0", "1", "--oracle-m", "64"],
             "fk covering-sum does not read --oracle-m"),
            (["fk", "expectation", *FK_CIRCLE, "--y0", "1"], "fk expectation does not read --y0"),
            (["curve", "--model", "compactified:dirichlet:3", "--t-grid", "0.5:1:0.5", "--samples", "10"],
             "curve runs on the heat kernels of euclidean:N, hyperbolic3, circle:L and torus:L1,L2,..., "
             "not Compactified("),
            (["curve", "--model", "cauchy", "--t-grid", "0.5:1:0.5", "--samples", "10"],
             "curve runs on the heat kernels of euclidean:N"),
            (["fk", "expectation", *KILLED, "--t", "0.5", "--oracle-m", "63", "--x0", "inf"],
             "the spectral oracle has no cemetery row"),
            (["fk", "kernel", *KILLED, "--t", "0.5", "--x0", "1.570796325", "--y0", "inf", "--oracle-m", "63"],
             "the spectral oracle has no cemetery row"),
            (["fk", "expectation", "--model", "hyperbolic3", "--t", "0.5", "--oracle-m", "64"],
             "the spectral oracle runs on circle:L, dirichlet:L and compactified:dirichlet:L, not Hyperbolic3()"),
            (["verify", "covering", "--model", "torus:1,2"],
             "the covering check runs on circle:L and torus:L, not FlatTorus(periods=(1.0, 2.0))"),
            (["fk", "covering-sum", "--model", "torus:1,2", *FK_SHORT, "--y0", "0.5,0.5"],
             "the covering check runs on circle:L and torus:L, not FlatTorus(periods=(1.0, 2.0))"),
            (["verify", "covering", "--model", "euclidean:1"],
             "the covering check runs on circle:L and torus:L, not Euclidean(dim=1)/heat"),
            *[(args + ["--tail-tol", "1e-322"], "its thousandth underflows to 0") for args in TAIL_TOL_RUNS.values()],
        ],
        ids=["fk-expectation", "fk-monotonicity", "fk-kernel", "sample", "bridge", "holder", "curve",
             "kernel-off-interval", "kernel-unparsable", "mass-wrong-dim", "fk-oracle", "verify",
             "holder-killed", "grid-overflow", "tau-grid-overflow", "grid-too-fine", "level-too-deep",
             "fk-kernel-terminal", "fk-covering-terminal", "fk-monotonicity-bridge-terminal",
             "fk-monotonicity-terminal-cos", "fk-expectation-potential2", "fk-kernel-potential2",
             "fk-covering-potential2", "fk-monotonicity-oracle", "fk-covering-oracle", "fk-expectation-y0",
             "curve-compactified", "curve-cauchy", "fk-oracle-cemetery-x0", "fk-oracle-cemetery-y0",
             "fk-oracle-models", "verify-covering-torus", "fk-covering-torus", "verify-covering-line",
             *[f"tail-tol-{name}" for name in TAIL_TOL_RUNS]],
    )
    def test_exits_2_with_message(self, args, message):
        res = run_cli(args)
        assert res.returncode == 2
        assert message in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("name", list(TAIL_TOL_RUNS))
    def test_the_smallest_tail_tol_still_runs(self, capsys, name):
        """4e-321 is about the smallest tolerance whose thousandth is not 0."""
        assert main(TAIL_TOL_RUNS[name] + ["--tail-tol", "4e-321"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("args, code, message", [
        (["fk", "kernel", *KILLED, "--y0", "1.570796325"], 2,
         "bridges are drawn on euclidean:N, hyperbolic3, circle:L and torus:L1,L2,..., not Compactified("),
        (["fk", "expectation", *DIRICHLET], 2, "and compactified:dirichlet:L, not DirichletInterval("),
        (["fk", "expectation", *KILLED], 0, ""),
    ], ids=["kernel-killed", "expectation-dirichlet", "expectation-killed"])
    def test_a_refused_run_builds_no_oracle(self, monkeypatch, capsys, args, code, message):
        import pathkernel.cli as cli

        built = []
        real = cli.spectral_oracle

        def spy(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "spectral_oracle", spy)
        argv = args + ["--t", "0.5", "--x0", "1.570796325", "--steps", "4", "--samples", "100", "--oracle-m", "63"]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert len(built) == (code == 0)  # the accepted run shows the spy is in place

    @pytest.mark.parametrize("args, code, message", [
        (["bridge", "--model", "cauchy", "--x0", "0", "--y0", "1", "--T", "1", "--steps", "4"], 2,
         "bridges are drawn on euclidean:N, hyperbolic3, circle:L and torus:L1,L2,..., not Euclidean(dim=1)/cauchy"),
        (["fk", "kernel", "--model", "cauchy", *FK_SHORT, "--y0", "1"], 2,
         "bridges are drawn on euclidean:N, hyperbolic3, circle:L and torus:L1,L2,..., not Euclidean(dim=1)/cauchy"),
        (["bridge", *DIRICHLET, "--x0", "1", "--y0", "2", "--T", "1", "--steps", "4"], 2,
         "bridges are drawn on euclidean:N, hyperbolic3, circle:L and torus:L1,L2,..., not DirichletInterval("),
        (["sample", *DIRICHLET, "--x0", "1", "--T", "1", "--steps", "4"], 2,
         "and compactified:dirichlet:L, not DirichletInterval("),
        (["fk", "monotonicity", *DIRICHLET, *FK_SHORT, "--potential2", "const:2"], 2,
         "and compactified:dirichlet:L, not DirichletInterval("),
        (["fk", "monotonicity", *KILLED, *FK_SHORT, "--potential2", "const:2", "--y0", "1"], 2,
         "bridges are drawn on euclidean:N, hyperbolic3, circle:L and torus:L1,L2,..., not Compactified("),
        (["sample", *KILLED, "--x0", "1", "--T", "1", "--steps", "4"], 0, ""),
        (["fk", "monotonicity", *FK_CIRCLE, "--potential2", "const:2", "--y0", "1"], 0, ""),
    ], ids=["bridge-cauchy", "fk-kernel-cauchy", "bridge-dirichlet", "sample-dirichlet",
            "fk-monotonicity-dirichlet", "fk-monotonicity-bridge-killed", "sample-killed",
            "fk-monotonicity-bridge-circle"])
    def test_a_refused_run_draws_no_block(self, monkeypatch, capsys, args, code, message):
        import pathkernel.feynman_kac as feynman_kac

        calls = []
        real = feynman_kac.run_blocks

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(feynman_kac, "run_blocks", spy)  # the one caller of run_blocks
        argv = args if "--samples" in args else args + ["--samples", "100"]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert len(calls) == (code == 0)  # the accepted runs show the spy is in place

    @pytest.mark.parametrize("args, code, message", [
        (["verify", "moments", *KILLED], 2, "the integrated moment check runs on euclidean:N, cauchy, hyperbolic3, "
         "circle:L and dirichlet:L, not Compactified("),
        (["verify", "moments", *DIRICHLET, "--mode", "pointwise"], 2,
         "the pointwise moment check runs on euclidean:N, cauchy, hyperbolic3 and circle:L, not DirichletInterval("),
        (["verify", "delta-family", "--model", "euclidean:2"], 2, "the delta-family check runs on euclidean:1, "
         "cauchy, hyperbolic3, circle:L and dirichlet:L, not Euclidean(dim=2)/heat"),
        (["verify", "delta-family", *KILLED], 2, "the delta-family check runs on euclidean:1, cauchy, hyperbolic3, "
         "circle:L and dirichlet:L, not Compactified("),
        (["verify", "covering", "--model", "hyperbolic3"], 2,
         "the covering check runs on circle:L and torus:L, not Hyperbolic3()/heat"),
        (["fk", "covering-sum", "--model", "cauchy", *FK_SHORT, "--y0", "1"], 2,
         "the covering check runs on circle:L and torus:L, not Euclidean(dim=1)/cauchy"),
        (["fk", "expectation", "--model", "cauchy", *FK_SHORT, "--oracle-m", "64"], 2,
         "the spectral oracle runs on circle:L, dirichlet:L and compactified:dirichlet:L, not Euclidean(dim=1)/cauchy"),
        (["fk", "kernel", "--model", "cauchy", *FK_SHORT, "--y0", "1", "--oracle-m", "64"], 2,
         "the spectral oracle runs on circle:L, dirichlet:L and compactified:dirichlet:L, not Euclidean(dim=1)/cauchy"),
        (["fk", "expectation", *FK_CIRCLE, "--oracle-m", "16"], 0, ""),
        (["fk", "covering-sum", *FK_CIRCLE, "--y0", "1", "--windings", "1"], 0, ""),
    ], ids=["moments-killed", "pointwise-dirichlet", "delta-euclidean2", "delta-killed", "covering-h3",
            "covering-sum-cauchy", "oracle-cauchy", "kernel-oracle-cauchy", "oracle-circle", "covering-sum-circle"])
    def test_a_refused_task_builds_no_oracle_and_draws_no_block(self, monkeypatch, capsys, args, code, message):
        import pathkernel.cli as cli
        import pathkernel.feynman_kac as feynman_kac

        built, calls = [], []
        real_oracle, real_blocks = cli.spectral_oracle, feynman_kac.run_blocks

        def oracle_spy(*args):
            built.append(args)
            return real_oracle(*args)

        def blocks_spy(*args, **kwargs):
            calls.append(args)
            return real_blocks(*args, **kwargs)

        monkeypatch.setattr(cli, "spectral_oracle", oracle_spy)
        monkeypatch.setattr(feynman_kac, "run_blocks", blocks_spy)  # the one caller of run_blocks
        assert main(args) == code
        assert message in capsys.readouterr().err
        # the accepted runs show the spies are in place
        assert len(built) == ("--oracle-m" in args and code == 0) and len(calls) == (code == 0)

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"),
        ("seed = 7\ngarbage line\n", ":2: want 'key = value'"),
    ], ids=["missing", "malformed"])
    def test_bad_config_file(self, tmp_path, content, message):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_text(content)
        res = run_cli(["kernel", "--model", "euclidean:1", "--t", "1", "--x", "0", "--y", "0",
                       "--config", str(cfg)])
        assert res.returncode == 2
        assert "--config" in res.stderr and message in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("spec", [
        "circle:inf", "circle:nan", "torus:1,inf", "torus:nan,2", "dirichlet:inf", "dirichlet:1e300",
        "dirichlet:1e-300", "compactified:dirichlet:inf", "compactified:dirichlet:1e300",
        "compactified:dirichlet:1e-300",
    ])
    def test_uncomputable_model_parameters_rejected(self, spec):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_model(spec)

    @pytest.mark.parametrize("args", [
        ["kernel", "--model", "circle:inf", "--t", "1", "--x", "0", "--y", "0"],
        ["mass", "--model", "dirichlet:1e300", "--t", "1", "--x", "1"],
        ["kernel", "--model", "dirichlet:1e-300", "--t", "1", "--x", "1e-301", "--y", "2e-301"],
    ], ids=["circle-inf", "dirichlet-huge", "dirichlet-tiny"])
    def test_uncomputable_model_exits_2(self, args):
        res = run_cli(args)
        assert res.returncode == 2
        assert "--model" in res.stderr and "Traceback" not in res.stderr and res.stdout == ""


class TestOutputs:
    def test_sample_csv_schema(self, tmp_path):
        out = tmp_path / "path.csv"
        res = run_cli(["sample", "--model", "compactified:dirichlet:3.14159",
                       "--x0", "1.5", "--T", "2", "--steps", "4", "--samples", "8",
                       "--seed", "3", "--out", str(out)])
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# pathkernel ")
        assert lines[1] == "t,coord0,killed"
        assert len(lines) == 7
        summary = json.loads(res.stdout)
        assert summary["seed"] == 3 and summary["n_samples"] == 8

    def test_bridge_winding_summary(self):
        res = run_cli(["bridge", "--model", "circle:1.0", "--x0", "0.0", "--y0", "0.0",
                       "--T", "0.5", "--steps", "4", "--samples", "64", "--seed", "9"])
        assert res.returncode == 0
        body = res.stdout.splitlines()
        summary = json.loads(body[-1])
        assert "winding_histogram" in summary

    def test_lattice_bridge_past_the_image_budget(self, tmp_path, capsys):
        # past 10^6 images the winding is a rounded normal, whose mean -gap/L
        # and variance 2T/L^2 are those of the image weights
        out = tmp_path / "path.csv"
        n, horizon, length, gap = 4096, 1e12, 1.0, 0.5
        assert main(["bridge", "--model", "circle:1.0", "--x0", "0", "--y0", "0.5", "--T", "1e12",
                     "--steps", "2", "--samples", str(n), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == "1000000000000,0.5,0"
        hist = json.loads(capsys.readouterr().out)["winding_histogram"]
        k = np.repeat([float(v) for v in hist], list(hist.values()))
        mean, var = -gap / length, 2.0 * horizon / length ** 2
        assert len(k) == n
        assert abs(np.mean(k) - mean) < 4.0 * math.sqrt(var / n)
        assert abs(np.var(k, ddof=1) - var) < 4.0 * var * math.sqrt(2.0 / (n - 1))

    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        res = run_cli(["curve", "--model", "euclidean:3", "--t-grid", "0.5:1.0:0.5",
                       "--samples", "2000", "--seed", "5", "--out", str(out)])
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# pathkernel ")
        assert lines[1] == "t,analytic,mc,mc_stderr"
        assert len(lines) == 4

    def test_fk_json_fields(self, tmp_path):
        out = tmp_path / "fk.json"
        res = run_cli(["fk", "expectation", "--model", "circle:6.283185307179586",
                       "--potential", "cos", "--t", "1", "--steps", "8",
                       "--samples", "2000", "--seed", "42", "--oracle-m", "64",
                       "--out", str(out)])
        assert res.returncode == 0
        payload = json.loads(read_payload(out))
        assert list(payload) == ["value", "std_error", "n_samples", "n_steps", "seed", "oracle"]
        assert payload["seed"] == 42 and payload["n_steps"] == 8

    def test_fk_oracle_on_the_compactified_interval(self):
        res = run_cli(["fk", "expectation", *KILLED, "--potential", "cos", "--t", "0.5",
                       "--rule", "trapezoid", "--samples", "65536", "--oracle-m", "63",
                       "--x0", "1.570796325", "--seed", "7"])
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert abs(out["value"] - out["oracle"]) <= 3.0 * out["std_error"]

    @pytest.mark.parametrize("args", [
        ["fk", "expectation", "--model", "circle:6.283185307179586", "--potential", "cos", "--t", "1",
         "--steps", "4", "--samples", "100", "--oracle-m", "512", "--x0", "0.05"],
        ["fk", "kernel", "--model", "circle:6.283185307179586", "--potential", "cos", "--t", "1",
         "--steps", "4", "--samples", "100", "--oracle-m", "512", "--x0", "0.05", "--y0", "1"],
        ["fk", "expectation", *KILLED, "--potential", "cos", "--t", "0.5", "--steps", "4",
         "--samples", "100", "--oracle-m", "63", "--x0", "1.0"],
    ], ids=["circle-expectation", "circle-kernel", "compactified-expectation"])
    def test_fk_oracle_at_any_point(self, args):
        # the Galerkin oracle has no grid: points that no finite-difference grid held run
        res = run_cli(args)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert math.isfinite(out["oracle"])

    def test_fk_monotonicity_honours_rule(self):
        args = ["fk", "monotonicity", "--model", "circle:6.283185307179586", "--potential", "cos",
                "--potential2", "const:1", "--t", "0.5", "--steps", "8", "--samples", "256"]
        right = run_cli(args + ["--rule", "right"])
        trap = run_cli(args + ["--rule", "trapezoid"])
        assert right.returncode == trap.returncode == 0
        assert json.loads(right.stdout)["value_low"] != json.loads(trap.stdout)["value_low"]

    def test_holder_runs(self):
        res = run_cli(["holder", "--model", "euclidean:1", "--paths", "32",
                       "--levels", "4:8", "--seed", "1"])
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert 0.2 < rep["fitted_exponent"] < 0.6

    def test_main_entry_returns_exit_code(self, capsys):
        rc = main(["mass", "--model", "euclidean:2", "--t", "1", "--x", "0,0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1.0


class TestDeterminismAcrossWorkers:
    @staticmethod
    def assert_worker_invariant(tmp_path, args):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        c = tmp_path / "c.json"
        assert run_cli(args + ["--workers", "1", "--out", str(a)]).returncode == 0
        assert run_cli(args + ["--workers", "4", "--out", str(b)]).returncode == 0
        assert run_cli(args + ["--workers", "1", "--out", str(c)],
                       env={"PATHKERNEL_WORKERS": "3"}).returncode == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_fk_outputs_byte_identical(self, tmp_path):
        self.assert_worker_invariant(tmp_path, [
            "fk", "expectation", "--model", "circle:6.283185307179586",
            "--potential", "cos", "--t", "0.5", "--steps", "16",
            "--samples", "40000", "--seed", "77"])

    def test_h3_fk_kernel_outputs_byte_identical(self, tmp_path):
        self.assert_worker_invariant(tmp_path, [
            "fk", "kernel", "--model", "hyperbolic3", "--potential", "cos",
            "--y0", "1.3374349463048447,0.888105982187623,0,0", "--t", "1", "--steps", "16",
            "--samples", "40000", "--seed", "78"])

    def test_curve_outputs_byte_identical(self, tmp_path):
        args = ["curve", "--model", "hyperbolic3", "--t-grid", "0.5:1.0:0.5",
                "--samples", "20000", "--seed", "13"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + ["--workers", "1", "--out", str(a)]).returncode == 0
        assert run_cli(args + ["--workers", "4", "--out", str(b)]).returncode == 0
        assert a.read_bytes() == b.read_bytes()


    # each command makes at least two pool tasks, so --workers 2 really forks
    @pytest.mark.parametrize("args", [
        ["curve", "--model", "hyperbolic3", "--t-grid", "0.5:1.0:0.5", "--samples", "5000"],
        ["fk", "covering-sum", "--model", "circle:6.283185307179586", "--potential", "cos",
         "--y0", "3.14159265", "--t", "0.5", "--steps", "8", "--samples", "2000", "--windings", "1"],
        ["sample", "--model", "compactified:dirichlet:3.14159265", "--x0", "1", "--T", "1", "--steps", "4",
         "--samples", "40000", "--sample-index", "39000"],
        ["bridge", "--model", "circle:1.0", "--x0", "0", "--y0", "0.5", "--T", "0.5", "--steps", "4",
         "--samples", "40000"],
    ], ids=["curve", "covering-sum", "sample", "bridge"])
    def test_stdout_and_out_identical_at_two_workers(self, tmp_path, args):
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.out"
            res = run_cli(args + ["--seed", "21", "--workers", workers, "--out", str(out)])
            assert res.returncode == 0 and res.stderr == ""
            runs.append((res.stdout, out.read_bytes()))
        assert runs[0] == runs[1]


class TestOneRandomSource:
    """verify chapman-kolmogorov draws its tuples from the Philox substreams."""

    def test_verify_ck_leaves_numpy_random_unloaded(self):
        code = ("import sys; from pathkernel.cli import main; "
                "code = main(['verify', 'chapman-kolmogorov', '--model', 'hyperbolic3', '--tuples', '3']); "
                "print(code, 'numpy.random' in sys.modules)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.stdout.splitlines()[-1] == "0 False"

    def test_tuple_i_depends_only_on_the_seed_and_i(self, monkeypatch, capsys):
        """Tuple i is s, t, x and z drawn in that order from substream i of the seed, whatever the count."""
        import pathkernel.cli as cli

        drawn = []
        real = cli.chapman_kolmogorov_residuals

        def spy(kernel, s, t, x, z):
            drawn.append(list(zip(s, t, x, z)))
            return real(kernel, s, t, x, z)

        monkeypatch.setattr(cli, "chapman_kolmogorov_residuals", spy)
        for n in (6, 2):
            assert main(["verify", "chapman-kolmogorov", "--model", "torus:1,2", "--seed", "3", "--tuples", str(n)]) == 0
        capsys.readouterr()
        model = parse_model("torus:1,2")[0]
        for i, tup in enumerate(drawn[0]):
            cursor = StreamCursor(3, np.array([i], dtype=np.uint64))
            (s, t), = (0.2 + 0.6 * cursor.uniforms(2)).tolist()
            assert tup == (s, t, *model.random_interior(cursor), *model.random_interior(cursor))
        assert drawn[1] == drawn[0][:2]


class TestNumpyRngFallback:
    """The compiled draw kernel and the numpy body give byte-identical runs."""

    COMMANDS = {
        "fk": ["fk", "expectation", "--model", "circle:6.283185307179586", "--potential", "cos",
               "--t", "0.5", "--steps", "8", "--samples", "40000", "--seed", "5"],
        "curve": ["curve", "--model", "hyperbolic3", "--t-grid", "0.5:1.0:0.5", "--samples", "40000",
                  "--seed", "6"],
        "sample": ["sample", "--model", "compactified:dirichlet:3.14159265", "--x0", "1", "--T", "1",
                   "--steps", "8", "--samples", "4000", "--seed", "7"],
    }

    @pytest.fixture(scope="class")
    def numpy_src(self, tmp_path_factory):
        """A copy of the package with no cached kernel; run with an empty PATH, no compiler is found."""
        src = tmp_path_factory.mktemp("numpy-rng") / "src"
        shutil.copytree(Path(pathkernel.__file__).parent, src / "pathkernel",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return src

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_outputs_identical_without_the_kernel(self, tmp_path, numpy_src, command, workers):
        runs = []
        for name, env in (("kernel", None), ("numpy", {"PYTHONPATH": str(numpy_src), "PATH": ""})):
            out = tmp_path / f"{name}.out"
            res = run_cli(self.COMMANDS[command] + ["--workers", workers, "--out", str(out)], env=env)
            assert res.returncode == 0 and res.stderr == ""
            runs.append((res.stdout, out.read_bytes()))
        assert runs[0] == runs[1]


@dataclasses.dataclass(frozen=True)
class Fast:
    """A toy model: a line whose heat flows `rate` times as fast."""

    rate: float
    dim = 1  # not a field

    def check_coords(self, x, name):
        """Every finite point lies on the line."""

    def distance_arrays(self, x, y):
        return np.abs(x[..., 0] - y[..., 0])

    def default_point(self):
        return point(0.0)

    def random_interior(self, cursor):
        return [point(z) for z in cursor.normals(1)[:, 0].tolist()]


class _FastLaw(heat_kernel._Law):
    spec = "fast:R"
    parse = staticmethod(lambda rest: Fast(float(rest)))

    def density(self, t, x, y, owner=None):
        return heat_kernel.gauss_profile(self.model.rate * t, np.sum((x - y) ** 2, axis=-1), 1)

    def step(self, cursor, current, dt):
        return current + math.sqrt(2.0 * self.model.rate * dt) * cursor.normals(1)


class TestOneDispatch:
    """A model class, a law and one _LAWS entry make a model of the command line."""

    @pytest.fixture(autouse=True)
    def fast_law(self, monkeypatch):
        monkeypatch.setitem(heat_kernel._LAWS, (Fast, "heat"), _FastLaw)

    def test_kernel_and_sample_run_on_the_new_model(self, capsys, tmp_path):
        assert parse_model("fast:2") == (Fast(2.0), "heat")
        assert main(["kernel", "--model", "fast:2", "--t", "0.25", "--x", "0", "--y", "1"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert value == evaluate(TransitionKernel(Euclidean(1)), 0.5, point(0.0), point(1.0))
        out = tmp_path / "path.csv"
        assert main(["sample", "--model", "fast:2", "--x0", "0", "--T", "1", "--steps", "4",
                     "--samples", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "model=Fast(rate=2.0)/heat" in lines[0] and lines[1] == "t,coord0,killed" and len(lines) == 7
        assert json.loads(capsys.readouterr().out)["n_samples"] == 8

    def test_refusals_name_the_new_spec(self, capsys):
        assert main(["bridge", "--model", "fast:2", "--x0", "0", "--y0", "1", "--T", "1"]) == 2
        assert "bridges are drawn on" in capsys.readouterr().err
        assert main(["sample", "--model", "dirichlet:1", "--x0", "0.5", "--T", "1"]) == 2
        err = capsys.readouterr().err
        assert "paths are drawn on" in err and "fast:R" in err

    def test_specs_outside_the_table_stay_unknown(self, capsys):
        with pytest.raises(argparse.ArgumentTypeError, match="unknown model 'slow:2'"):
            parse_model("slow:2")
        with pytest.raises(argparse.ArgumentTypeError, match="bad model spec 'fast:x'"):
            parse_model("fast:x")
