"""One benchmark op: a pathkernel CLI command run in this fresh interpreter.

    python3 perfbench/op.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory holding the pathkernel package to
measure), ``argv`` (the CLI arguments), ``out`` (the file the command
writes, or null) and ``trace`` (wrap the layers with ``tracing.Tracer``).

The CLI entry point runs in-process with its stdout captured, so the
timing covers the command and nothing of the interpreter around it.
Prints one JSON line: the CLOCK_MONOTONIC reading when ``import
pathkernel.cli`` finished (the parent took one just before spawning this
process), the command's wall time, the mean time of ``probe.probe_s()``
just before and just after it, the exit code, stdout and output file,
the peak resident set of this process and of its largest waited-for child
(the pool workers), and the trace report when traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import pathkernel.cli as cli

    import_done = time.monotonic()
    import probe  # after the set-up timestamp, which covers the package alone

    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(src + os.sep):
        sys.exit(f"pathkernel.cli was imported from {origin}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    probe_before = probe.probe_s()
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the op failed; the parent counts it and carries on
        code = None
        error = traceback.format_exc()
    solve_s = time.perf_counter() - t0
    probe_after = probe.probe_s()

    out_text = None
    if spec["out"] and os.path.exists(spec["out"]):
        with open(spec["out"]) as fh:
            out_text = fh.read()
        os.remove(spec["out"])
    record = {
        "import_done": import_done,
        "solve_s": solve_s,
        "probe_s": 0.5 * (probe_before + probe_after),
        "exit": code,
        "error": error,
        "stdout": buf.getvalue(),
        "out_text": out_text,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
