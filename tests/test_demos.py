"""Every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathkernel

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(pathkernel.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
