"""Print a sha256 digest of every output of the README's CLI commands
and of a fixed model-by-command matrix.

Each `pathkernel ...` line in the README's "Command line" block runs once,
then each run of the matrix (every model spec in MODELS under every
command in MATRIX, at small sizes) and each command of one model in
SINGLE, in a fresh temporary directory, as
`python -m pathkernel.cli` with `src/` of the chosen checkout on
PYTHONPATH.  The script prints one line per captured stream and per
`--out` file:

    <name>.stdout <sha256>
    <name>.exit <code>
    <file> <sha256>

where <name> is the subcommand, joined with the task for `verify` and
`fk` and numbered from its second use on; a matrix or SINGLE run's name
is `<model spec>/<command>` and its `--out` file is `<name>/out`.  Stderr is
not digested, so messages may change.  Run it on two checkouts and diff
the results; byte-identical outputs give identical lines:

    python tools/readme_digests.py > after.txt
    python tools/readme_digests.py --root ../parent > before.txt
    diff before.txt after.txt

`--numpy-rng` runs every command on a copy of the checkout's `src/` with
no `__pycache__` and an empty PATH, so that no C compiler is found and
every draw, normal and `cos` potential value takes its numpy body in
`rng`; a diff against the plain output checks the compiled draw kernel on
every command:

    python tools/readme_digests.py > kernel.txt
    python tools/readme_digests.py --numpy-rng > numpy.txt
    diff kernel.txt numpy.txt

`--workers N` runs every command with PATHKERNEL_WORKERS=N (by default the
variable is removed); output files must not depend on the worker count, so
a diff against the plain output checks that on every command:

    python tools/readme_digests.py --workers 2 > workers2.txt
    diff kernel.txt workers2.txt

`--no-avx512` runs every command with numpy's AVX-512 dispatch turned off
(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), standing in for
a host without AVX-512; the lines that move belong to outputs that pass
through a numpy transcendental function whose bits depend on the SIMD level:

    python tools/readme_digests.py --no-avx512 > no_avx512.txt
    diff kernel.txt no_avx512.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# short names for the tasks whose full names make long keys
_TASK_NAMES = {"chapman-kolmogorov": "ck", "covering-sum": "covering"}

# model spec -> (x, y): the points of the matrix commands.  The kernel
# command of the compactified model starts at the cemetery ("inf"), so the
# cemetery row of the density is digested too.
MODELS = {
    "euclidean:1": ("0.3", "-0.4"),
    "euclidean:2": ("0.3,0.1", "-0.4,0.2"),
    "hyperbolic3": ("1,0,0,0", "1.3374349463048447,0.888105982187623,0,0"),
    "circle:1.0": ("0.2", "0.7"),
    "torus:1,2": ("0.2,0.5", "0.7,1.5"),
    "dirichlet:3.14159265": ("1", "2"),
    "compactified:dirichlet:3.14159265": ("1", "2"),
    # two points 1e-9 and 3e-9 from the wall at L: the kernel at t = 0.5 runs
    # the sine series (the switch is 1/pi^2), the moment grid the images
    "dirichlet:1.0": ("0.999999999", "0.999999997"),
    "cauchy": ("0.3", "-0.4"),
}
_CEMETERY_SOURCE = {"compactified:dirichlet:3.14159265"}

_FK = "--t 0.5 --steps 4 --samples 64 --x0 {x}"
# command name -> arguments after `--model <spec>`; {x}, {y} are the points.
# A point is joined to its flag by "=", as argparse would read a point that
# starts with "-" (euclidean:2's y) as a flag.
MATRIX = {
    "kernel": "kernel --t 0.5 --x {kx} --y={y}",
    # past the lattice laws' image budget, where they sum the dual series
    "kernel_long": "kernel --t 1e12 --x {kx} --y={y}",
    "mass": "mass --t 0.5 --x {x}",
    "verify_ck": "verify chapman-kolmogorov --tuples 3",
    "verify_moments_integrated": "verify moments --mode integrated --tau-grid 0.01:0.05:0.02",
    "verify_moments_pointwise": "verify moments --mode pointwise --tau-grid 0.01:0.05:0.02",
    "verify_moments_a30": "verify moments --a 30 --tau-grid 0.001:0.1:0.0495",
    "verify_delta": "verify delta-family --y {x}",
    "verify_covering": "verify covering --t 0.5 --x {x} --y={y}",
    "sample": "sample --x0 {x} --T 1 --steps 4 --samples 64",
    # steps of length 2, past the interval's switch time L^2/pi^2 = 1
    "sample_long": "sample --x0 {x} --T 4 --steps 2 --samples 64",
    # a long dumped path, read from the walk's transposed rows; on the
    # compactified interval it ends in the cemetery
    "sample_fine": "sample --x0 {x} --T 1 --steps 300 --samples 64 --sample-index 63",
    "bridge": "bridge --x0 {x} --y0={y} --T 1 --steps 4 --samples 64",
    # 17 moves, an odd-length walk
    "bridge_long": "bridge --x0 {x} --y0={y} --T 1 --steps 18 --samples 64",
    "fk_expectation": "fk expectation --potential cos " + _FK,
    "fk_kernel": "fk kernel --potential cos --y0={y} " + _FK,
    "fk_trapezoid": "fk expectation --potential cos --rule trapezoid " + _FK,
    # the oracle at a cap of 20 modes: it doubles from 16 and stops at 20
    "fk_kernel_oracle": "fk kernel --potential cos --y0={y} --oracle-m 20 " + _FK,
    # free paths reach the oracle's refusal on every model that draws them
    "fk_expectation_oracle": "fk expectation --potential cos --oracle-m 20 " + _FK,
    # 512 and 256 slices of 20,000 samples: one block, folded row by row
    "fk_expectation_fine": "fk expectation --potential cos --t 0.5 --steps 512 --samples 20000 --x0 {x}",
    "fk_kernel_fine": "fk kernel --potential cos --y0={y} --t 0.5 --steps 256 --samples 20000 --x0 {x}",
    "fk_monotonicity": "fk monotonicity --potential const:0.5 --potential2 const:1 " + _FK,
    "fk_monotonicity_bridge": "fk monotonicity --potential const:0.5 --potential2 const:1 --y0={y} " + _FK,
    "fk_covering": "fk covering-sum --potential cos --y0={y} --windings 2 " + _FK,
    "curve": "curve --x0 {x} --t-grid 0.5:1.0:0.5 --samples 64",
    "holder": "holder --x0 {x} --paths 64 --levels 2:4",
    # levels as strided views of 512-step walks
    "holder_fine": "holder --x0 {x} --paths 64 --levels 2:9",
}

# name -> a command of one model at a size the matrix does not reach
SINGLE = {
    # 40,000 samples: two blocks of at most 32,768, and the dumped sample lies in the last
    "hyperbolic3/sample_blocks":
        "sample --model hyperbolic3 --x0 1,0,0,0 --T 1 --steps 64 --samples 40000 --sample-index 39000",
    # two blocks of bridges, windings kept, and the dumped bridge the last
    "torus:1,2/bridge_blocks":
        "bridge --model torus:1,2 --x0 0.2,0.5 --y0=0.7,1.5 --T 1 --steps 64 --samples 40000 --sample-index 39999",
    # past the image budget, where the winding is drawn as a rounded normal
    "circle:1.0/bridge_past_budget": "bridge --model circle:1.0 --x0 0 --y0 0.5 --T 1e12 --steps 2 --samples 64",
    # the oracle at points that lie on no grid of its mode counts
    "circle:6.283185307179586/fk_oracle_off_grid":
        "fk kernel --model circle:6.283185307179586 --potential cos --t 1 --steps 4 --samples 100 --oracle-m 512 "
        "--x0 0.05 --y0 1",
    "compactified:dirichlet:3.14159265/fk_oracle_off_grid":
        "fk expectation --model compactified:dirichlet:3.14159265 --potential step:1,2,1 --t 0.5 --steps 4 "
        "--samples 100 --oracle-m 63 --x0 1.0",
    # the draw kernel's vector body takes 8 rows whose start slots share a
    # parity: the killed step draws 3 slots per alive row, so every other
    # step starts odd, and 1,003 rows leave a 3-row tail
    "compactified:dirichlet:3.14159265/sample_odd_tail":
        "sample --model compactified:dirichlet:3.14159265 --x0 1 --T 1 --steps 8 --samples 1003",
    # steps of 100: the dumped path reaches coordinates near 3e176, whose
    # squares overflow, so the exp map's rescaled x0 reaches the output
    "hyperbolic3/far_sample": "sample --model hyperbolic3 --x0 1,0,0,0 --T 200 --steps 2 --samples 1000",
    # one 8-slot draw per H3 bridge move, 1,001 rows: a 1-row tail
    "hyperbolic3/bridge_tail":
        "bridge --model hyperbolic3 --x0 1,0,0,0 --y0=1.3374349463048447,0.888105982187623,0,0 --T 1 --steps 4 "
        "--samples 1001",
    # one walk of 4,096 Gaussian steps dumped whole: its --out file carries
    # 4,096 normals, so a normal whose bits depend on the host moves a line
    "euclidean:1/sample_normals": "sample --model euclidean:1 --x0 0 --T 1 --steps 4096 --samples 2 --sample-index 1",
    # the cos potential on rows of 4 coordinates, read 4 doubles apart, in
    # two blocks of at most 32,768 samples
    "hyperbolic3/fk_cos_blocks":
        "fk expectation --model hyperbolic3 --potential cos --x0 1,0,0,0 --t 0.5 --steps 4 --samples 40000",
    # a start at the cos kernel's reduction bound, 2**20 times pi/2's leading
    # 33 bits = 1647099.3291...: about half the positions lie past it, where
    # np.cos takes over
    "cauchy/fk_cos_far":
        "fk expectation --model cauchy --potential cos --x0 1647099.33 --t 0.5 --steps 4 --samples 1000",
}


def readme_commands(readme):
    """The `pathkernel ...` lines of the README's "Command line" code block."""
    lines = readme.read_text().splitlines()
    start = lines.index("## Command line")
    fence = [i for i in range(start, len(lines)) if lines[i].startswith("```")][:2]
    block = lines[fence[0] + 1:fence[1]]
    return [shlex.split(line, comments=True) for line in block if line.startswith("pathkernel ")]


def command_name(argv):
    sub = argv[1]
    if sub in ("verify", "fk"):
        task = argv[2]
        return f"{sub}_{_TASK_NAMES.get(task, task)}"
    return sub


def out_files(argv):
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--summary-out")]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def matrix_commands():
    """(name, argv) of every matrix and SINGLE run; each writes its --out file to `out`."""
    runs = []
    for spec, (x, y) in MODELS.items():
        kx = "inf" if spec in _CEMETERY_SOURCE else x
        for name, args in MATRIX.items():
            words = args.format(x=x, y=y, kx=kx).split()
            # the subcommand (and its task) come before the model
            head = 2 if words[0] in ("verify", "fk") else 1
            argv = ["pathkernel", *words[:head], "--model", spec, *words[head:], "--out", "out"]
            runs.append((f"{spec}/{name}", argv))
    for name, args in SINGLE.items():
        runs.append((name, ["pathkernel", *args.split(), "--out", "out"]))
    return runs


def run_digest(env, name, argv, outs):
    """The digest lines of one run, in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "pathkernel.cli", *argv[1:]],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
        lines = [f"{name}.stdout {sha256(proc.stdout)}", f"{name}.exit {proc.returncode}"]
        for label, out in outs:
            path = Path(tmp) / out
            digest = sha256(path.read_bytes()) if path.exists() else "missing"
            lines.append(f"{label} {digest}")
    return lines


# numpy's dispatch targets that need AVX-512 on x86-64
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def digests(root, src=None, path=None, workers=None, disable=None):
    """Digest lines of every run, yielded as each run ends, with ``src`` (default: the checkout's)
    on PYTHONPATH; ``path`` replaces PATH, ``workers``, if given, is PATHKERNEL_WORKERS and
    ``disable``, if given, is NPY_DISABLE_CPU_FEATURES."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str((src or root / "src").resolve())
    env.pop("PATHKERNEL_WORKERS", None)
    if workers is not None:
        env["PATHKERNEL_WORKERS"] = str(workers)
    if path is not None:
        env["PATH"] = path
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    seen = {}
    for argv in readme_commands(root / "README.md"):
        name = command_name(argv)
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:  # a repeated command gets its own key
            name = f"{name}_{seen[name]}"
        yield from run_digest(env, name, argv, [(out, out) for out in out_files(argv)])
    for name, argv in matrix_commands():
        yield from run_digest(env, name, argv, [(f"{name}/out", "out")])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose README and src/ to use (default: this one)")
    parser.add_argument("--numpy-rng", action="store_true",
                        help="run on a copy of src/ without __pycache__ and with an empty PATH, "
                             "so that no C draw kernel is built or loaded")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run every command with PATHKERNEL_WORKERS=N")
    parser.add_argument("--no-avx512", action="store_true",
                        help=f'run every command with NPY_DISABLE_CPU_FEATURES="{NO_AVX512}"')
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        src = None
        if args.numpy_rng:
            src = Path(tmp) / "src"
            shutil.copytree(args.root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for line in digests(args.root, src, "" if args.numpy_rng else None, args.workers,
                            NO_AVX512 if args.no_avx512 else None):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
