import os
import subprocess
import sys
from pathlib import Path

import pytest

import opineq

# Make the helper modules next to the tests importable regardless of the
# directory pytest is invoked from.
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def fresh_python():
    """Run `python *args` in a fresh interpreter that imports this process's
    opineq source tree; returns the CompletedProcess with text output."""
    src_root = str(Path(opineq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env)
    return run
