"""Print a sha256 digest of every output of the README's CLI commands.

Each `pathkernel ...` line in the README's "Command line" block runs once,
in a fresh temporary directory, as `python -m pathkernel.cli` with `src/`
of the chosen checkout on PYTHONPATH.  The script prints one line per
captured stream and per `--out` file:

    <name>.stdout <sha256>
    <name>.exit <code>
    <file> <sha256>

where <name> is the subcommand, joined with the task for `verify` and
`fk` and numbered from its second use on.  Run it on two checkouts and
diff the results; byte-identical outputs give identical lines:

    python tools/readme_digests.py > after.txt
    python tools/readme_digests.py --root ../parent > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# short names for the tasks whose full names make long keys
_TASK_NAMES = {"chapman-kolmogorov": "ck", "covering-sum": "covering"}


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


def digests(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str((root / "src").resolve())
    env.pop("PATHKERNEL_WORKERS", None)
    lines = []
    seen = {}
    for argv in readme_commands(root / "README.md"):
        name = command_name(argv)
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:  # a repeated command gets its own key
            name = f"{name}_{seen[name]}"
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, "-m", "pathkernel.cli", *argv[1:]],
                cwd=tmp, env=env, capture_output=True, check=False,
            )
            lines.append(f"{name}.stdout {sha256(proc.stdout)}")
            lines.append(f"{name}.exit {proc.returncode}")
            for out in out_files(argv):
                path = Path(tmp) / out
                digest = sha256(path.read_bytes()) if path.exists() else "missing"
                lines.append(f"{out} {digest}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose README and src/ to use (default: this one)")
    args = parser.parse_args(argv)
    for line in digests(args.root):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
