"""Bounded argv fuzzing of the exit contract.

Each example takes one README command, shrinks its sizes, replaces one or
two option values and runs ``cli.main`` in-process.  A replacement is a
hostile token or, as often, a plausible number in place of a number, so
that many runs get far enough to print or write their CSV.
Every run must end in exit 0, 1 or 2, never in an escaping exception; an
exit 1 must print a JSON record on stdout, and the JSON last line of an
exit 0 must hold only finite numbers.  Every path or curve CSV a run prints
or writes must parse, with NaN only in a killed row's coordinates and in
the curve's ``analytic`` column (a missing closed form).
"""

import contextlib
import io
import json
import math
import os
import shlex
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathkernel.cli import main

TOKENS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e200", "1e308", "", "abc", "1,2",
          "0:1e300:1e-300", "0:1:1e-9", "4:70", "const:-800", "const:1e308"]
PLAUSIBLE = ["0.5", "2", "1e-3"]
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


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def fuzzed_argv(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    for i in draw(st.lists(st.sampled_from(value_positions(argv)), min_size=1, max_size=2, unique=True)):
        pool = draw(st.sampled_from([TOKENS, PLAUSIBLE]))
        if pool is TOKENS or is_number(argv[i]):  # a plausible value replaces only a number
            argv[i] = draw(st.sampled_from(pool))
    return argv


def run_main(argv):
    """The exit code, the stdout and the text of every file the run wrote."""
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
        files = [(Path(tmp) / name).read_text() for name in sorted(os.listdir(tmp))]
    return code, out.getvalue(), files


def csv_tables(text):
    """(header, rows) of each path or curve CSV in text: a header line that
    starts with "t," and the rows up to the next comment or JSON line."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("t,"):
            rows = []
            for row in lines[i + 1:]:
                if not row or row.startswith(("#", "{")):
                    break
                rows.append(row.split(","))
            yield line.split(","), rows


def check_csv(header, rows, argv):
    """Each row has one number per column; NaN only in a killed row's
    coordinates and in the analytic column; no infinity anywhere."""
    assert header[-1] == "killed" or header == ["t", "analytic", "mc", "mc_stderr"], (argv, header)
    for row in rows:
        assert len(row) == len(header), (argv, row)
        killed = header[-1] == "killed" and row[-1] == "1"
        for key, text in zip(header, row):
            value = float(text)
            nan_allowed = key == "analytic" or (killed and key.startswith("coord"))
            assert math.isfinite(value) or (math.isnan(value) and nan_allowed), (argv, key, row)


def reject_constant(name):
    raise AssertionError(f"non-finite {name} in the output of an exit-0 run")


def test_readme_commands_are_fuzzable():
    assert len(COMMANDS) >= 10
    assert all(value_positions(argv) for argv in COMMANDS)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_argv())
def test_exit_contract_holds(argv):
    code, stdout, files = run_main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        record = json.loads(stdout.splitlines()[-1])
        assert isinstance(record, dict) and "error" in record, argv
    last = stdout.splitlines()[-1] if stdout else ""
    if code == 0 and last.startswith("{"):
        # json.loads accepts NaN and Infinity; an exit-0 run must not print them
        json.loads(last, parse_constant=reject_constant)
    for text in [stdout, *files]:
        for header, rows in csv_tables(text):
            check_csv(header, rows, argv)
