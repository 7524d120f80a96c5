import argparse
import json
import math
import subprocess
import sys

import pytest

from pathkernel.cli import (
    DEFAULT_SEED,
    main,
    parse_args,
    parse_model,
    parse_potential,
)
from pathkernel.manifold import Circle, Compactified, DirichletInterval, Euclidean


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

    def test_hyperbolic_overflow_is_numeric_failure(self, tmp_path):
        out = tmp_path / "path.csv"
        res = run_cli(["sample", "--model", "hyperbolic3", "--x0", "1,0,0,0", "--T", "200",
                       "--steps", "2", "--samples", "4", "--out", str(out)])
        assert res.returncode == 1
        assert json.loads(res.stdout)["error"] == "NonFiniteSampleError"
        assert "Traceback" not in res.stderr and not out.exists()

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

    def test_verify_delta_family(self):
        res = run_cli(["verify", "delta-family", "--model", "euclidean:1"])
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["residuals"][-1] < out["residuals"][0]

    def test_cemetery_kernel_row(self):
        res = run_cli(["kernel", "--model", "compactified:dirichlet:3.141592653589793",
                       "--t", "1", "--x", "inf", "--y", "1.5707963267948966"])
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == pytest.approx(0.5317, abs=5e-4)


DIRICHLET = ["--model", "dirichlet:3.14159265"]
FK_SHORT = ["--potential", "const:1", "--t", "0.5", "--steps", "8", "--samples", "200"]


class TestInputErrors:
    """Input the run cannot use exits 2 with a message, never a traceback."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["fk", "expectation", *DIRICHLET, *FK_SHORT], "compactified:dirichlet:3.14159265"),
            (["fk", "monotonicity", *DIRICHLET, *FK_SHORT, "--potential2", "const:2"],
             "compactified:dirichlet:3.14159265"),
            (["fk", "kernel", *DIRICHLET, *FK_SHORT, "--y0", "1"], "bridges"),
            (["sample", *DIRICHLET, "--x0", "1", "--T", "1", "--steps", "4"],
             "compactified:dirichlet:3.14159265"),
            (["bridge", *DIRICHLET, "--x0", "1", "--y0", "1", "--T", "1", "--steps", "4"], "bridges"),
            (["holder", *DIRICHLET, "--paths", "10", "--levels", "2:4"],
             "compactified:dirichlet:3.14159265"),
            (["curve", *DIRICHLET, "--t-grid", "0.1:0.2:0.1", "--samples", "100"], "DirichletInterval"),
            (["kernel", *DIRICHLET, "--t", "1", "--x", "5", "--y", "1"], "--x must lie in"),
            (["kernel", "--model", "euclidean:1", "--t", "1", "--x", "abc", "--y", "0"], "--x 'abc'"),
            (["mass", "--model", "euclidean:2", "--t", "1", "--x", "0"], "--x has 1 coordinates, expected 2"),
            (["fk", "expectation", "--model", "euclidean:1", "--potential", "cos", "--t", "1",
              "--steps", "4", "--samples", "100", "--oracle-m", "64"], "spectral oracle"),
            (["verify", "moments", "--model", "torus:1,2"], "not implemented"),
        ],
        ids=["fk-expectation", "fk-monotonicity", "fk-kernel", "sample", "bridge", "holder", "curve",
             "kernel-off-interval", "kernel-unparsable", "mass-wrong-dim", "fk-oracle", "verify"],
    )
    def test_exits_2_with_message(self, args, message):
        res = run_cli(args)
        assert res.returncode == 2
        assert message in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

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
