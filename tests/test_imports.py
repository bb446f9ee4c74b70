"""Start-up cost: what importing a module or running the suite pulls in, each
in a fresh interpreter; and the entry points the benchmark's traced run
wraps, which must exist."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import dunkl_lab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dunkl_lab.__file__)))


def _fresh(code):
    """stdout of ``code`` run in a fresh interpreter on this checkout's ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


@pytest.mark.parametrize("module, absent", [
    ("dunkl_lab.verify", ["scipy.stats"]),
    ("dunkl_lab.cli", ["scipy.stats", "scipy.special"]),
    ("dunkl_lab", ["concurrent.futures.process", "multiprocessing"]),
])
def test_import_leaves_out(module, absent):
    code = (f"import sys, json, {module}; "
            f"print(json.dumps([m for m in {absent!r} if m in sys.modules]))")
    assert json.loads(_fresh(code)) == []


def test_run_suite_leaves_out_scipy_stats():
    # the quick suite's size: every check runs, and none loads scipy.stats
    code = ("import sys, dunkl_lab as d; from dunkl_lab import verify; b2 = d.build_type_b(2); "
            "verify.run_suite(b2, d.multiplicity(b2, 1.0), [2.0, 1.0], horizon=0.5, "
            "dt=0.005, n_paths=400, seed=314); print('scipy.stats' in sys.modules)")
    assert _fresh(code).split() == ["False"]


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
