"""Bounded argv fuzzing of the exit contract.

Each example takes one README command, shrinks its sizes, replaces one
option value with a hostile token and runs ``cli.main`` in-process.  Every
run must end in exit 0, 1 or 2, never in an escaping exception, and an
exit 1 must print a JSON record on stdout.
"""

import contextlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathkernel.cli import main

TOKENS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e308", "", "abc", "1,2"]
SIZE_FLAGS = {"--samples", "--steps", "--tuples", "--paths"}
SIZE_CAP = 64


def readme_commands():
    """The README's `pathkernel ...` lines with every size clamped to SIZE_CAP."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("## Command line")
    fence = [i for i in range(start, len(lines)) if lines[i].startswith("```")][:2]
    commands = []
    for line in lines[fence[0] + 1:fence[1]]:
        if not line.startswith("pathkernel "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        for i, arg in enumerate(argv[:-1]):
            if arg in SIZE_FLAGS:
                argv[i + 1] = str(min(int(argv[i + 1]), SIZE_CAP))
        commands.append(argv)
    return commands


COMMANDS = readme_commands()


def value_positions(argv):
    return [i + 1 for i, arg in enumerate(argv[:-1]) if arg.startswith("--") and not argv[i + 1].startswith("--")]


@st.composite
def fuzzed_argv(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    i = draw(st.sampled_from(value_positions(argv)))
    argv[i] = draw(st.sampled_from(TOKENS))
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # --out files land here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue()


def test_readme_commands_are_fuzzable():
    assert len(COMMANDS) >= 10
    assert all(value_positions(argv) for argv in COMMANDS)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_argv())
def test_exit_contract_holds(argv):
    code, stdout = run_main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        record = json.loads(stdout.splitlines()[-1])
        assert isinstance(record, dict) and "error" in record, argv
