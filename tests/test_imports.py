"""Start-up cost: what importing a module pulls in, each in a fresh interpreter;
and the entry points the benchmark's traced run wraps, which must exist."""

import importlib
import importlib.util
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


def _entry_points():
    """perfbench's traced entry points, read from ``perfbench/spans.py``."""
    path = os.path.join(os.path.dirname(SRC), "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.ENTRY_POINTS


@pytest.mark.parametrize("span, module, attribute", [e[:3] for e in _entry_points()])
def test_benchmark_entry_points_exist(span, module, attribute):
    # A traced run drops the metrics of an entry point it cannot find.
    assert hasattr(importlib.import_module(f"dunkl_lab.{module}"), attribute), span
