"""Start-up cost: what importing a module pulls in, each in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

import dunkl_lab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dunkl_lab.__file__)))


@pytest.mark.parametrize("module, absent", [
    ("dunkl_lab.verify", ["scipy.stats"]),
    ("dunkl_lab.cli", ["scipy.stats", "scipy.special"]),
    ("dunkl_lab", ["concurrent.futures.process", "multiprocessing"]),
])
def test_import_leaves_out(module, absent):
    code = (f"import sys, json, {module}; "
            f"print(json.dumps([m for m in {absent!r} if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert json.loads(proc.stdout) == []
