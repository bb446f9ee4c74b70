"""Tests of the benchmark itself: metric names, the gate and its control,
digest stability, the tracer, and the refusal to run without sources."""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert list(run.WORKLOADS) == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()


def test_benchmark_json_metric_names_and_bounds_are_valid(spec):
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


class _Case:
    """Stand-in with just what the gate reads."""

    def __init__(self, system, k, x0, horizon):
        self.system, self.k, self.x0, self.kind = system, k, np.asarray(x0), "radial"
        self.config = type("Config", (), {"horizon": horizon})()


def _exact_sample(dim, x0, horizon, n, seed):
    """Final states whose squared norms follow BESQ(dim) exactly."""
    from scipy import stats

    rng = np.random.default_rng(seed)
    sq = horizon * stats.ncx2(df=dim, nc=float(np.dot(x0, x0)) / horizon).rvs(
        size=n, random_state=rng)
    direction = rng.standard_normal((n, len(x0)))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return np.sqrt(sq)[:, None] * direction


@pytest.mark.parametrize("rank,x0,horizon", [(2, (2.0, 1.0), 1.0),
                                             (4, (4.0, 3.0, 2.0, 1.0), 0.2)])
def test_gate_passes_the_exact_law_and_rejects_its_control(rank, x0, horizon):
    import dunkl_lab as dl

    system = dl.build_type_b(rank)
    case = _Case(system, dl.multiplicity(system, 1.0), x0, horizon)
    final = _exact_sample(workloads.besq_dimension(case), case.x0, horizon, 4096, 7)
    finished = np.full(len(final), "horizon", dtype=object)
    out = workloads.gate(case, {"final": final, "termination": finished})
    assert out["law"]["passed"]
    assert not out["control"]["passed"]
    assert out["passed"]
    # Paths that end early drop out of the law check, so they fail the gate.
    finished[:len(final) // 100] = "step_failure"
    out = workloads.gate(case, {"final": final, "termination": finished})
    assert out["law"]["passed"] and not out["unfinished"]["passed"]
    assert not out["passed"]


def test_gate_passes_a_simulation_and_rejects_its_control():
    case = workloads.build("radial-wide", 3)
    case.config = dataclasses.replace(case.config, n_paths=4096)
    data = workloads.gate_data(case, case.call())
    out = workloads.gate(case, data)
    assert out["law"]["passed"] and not out["control"]["passed"]


@pytest.mark.parametrize("name", ["lift-shortcut", "lift-general"])
def test_events_check_ties_the_jump_log_to_the_paths(name):
    case = workloads.build(name, 3)
    paths = case.run(dataclasses.replace(case.config, n_paths=200, horizon=0.2),
                     1).trajectories
    assert workloads.events_check(case.system, case.x0, paths)["passed"]
    j = next(i for i, p in enumerate(paths) if p.events)
    first, rest = paths[j].events[0], paths[j].events[1:]

    def with_events(events):
        return paths[:j] + [dataclasses.replace(paths[j], events=events)] + paths[j + 1:]

    dt = case.config.dt
    broken = {
        "dropped": rest,
        "moved one step later": (dataclasses.replace(first, time=first.time + dt),)
        + rest,
        "wrong post": (dataclasses.replace(first, post=first.post + 1e-6),) + rest,
    }
    for what, events in broken.items():
        out = workloads.events_check(case.system, case.x0, with_events(events))
        assert not out["passed"], what


@pytest.mark.parametrize("name", ["radial-wide", "lift-general", "verify-b2"])
def test_digest_is_stable_across_repeats_and_threads(name):
    case = workloads.build(name, 11)
    first = workloads.digest(case, case.run(case.check_config, 1))
    again = workloads.digest(case, case.run(case.check_config, 1))
    assert first == again
    assert workloads.check_digests(case) == [first] * 3
    other = workloads.build(name, 12)
    result = other.run(other.check_config, 1)
    assert workloads.digest(other, result) != first
    if name == "verify-b2":
        assert len(result.reports) == workloads.VERIFY_REPORTS


def test_tracer_records_spans_and_reports_missing_entry_points():
    import dunkl_lab as dl
    from dunkl_lab import rng

    original, original_run = rng.stream, dl.run_radial
    tracer = spans.Tracer()
    entries = spans.ENTRY_POINTS + [("engine.gone", "_engine", "no_such_fn", None)]
    tracer.install(entries)
    try:
        assert rng.stream is not original
        case = workloads.build("radial-wide", 1)
        tracer.enabled = True
        case.run(case.check_config, 1)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert rng.stream is original and dl.run_radial is original_run
    values, notes = spans.layer_metrics([], tracer.take(), tracer.missing, {})
    assert values["rng.streams"] == workloads.THREADS_CHECK_PATHS
    assert values["engine.run_paths.calls"] == 1
    assert values["engine.self_s"] > 0
    assert "engine.gone.calls" in notes and "engine.gone.s" in notes


def test_self_time_subtracts_child_spans():
    S = spans.Span
    trace = [S("engine.run_paths", 0.0, 10.0, -1, True, None),
             S("rng.stream", 1.0, 3.0, 0, True, None),
             S("engine.cover_interval", 4.0, 8.0, 0, True, None),
             S("engine.cover_interval", 5.0, 6.0, 2, False, None)]
    out = spans.summarize(trace)
    assert out["engine.run_paths"]["self_s"] == 4.0
    assert out["engine.cover_interval"]["self_s"] == 4.0
    assert out["engine.cover_interval"]["incl_s"] == 4.0
    assert out["engine.cover_interval"]["outer_calls"] == 1
    assert out["rng.stream"]["self_s"] == 2.0


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radial-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout


def test_run_fails_when_a_call_raises(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    radial = tmp_path / "src" / "dunkl_lab" / "radial.py"
    radial.write_text(radial.read_text() + """

def run_radial(*args, **kwargs):
    raise ValueError("broken on purpose")
""")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radial-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "INCORRECT: call 0 raised ValueError" in proc.stdout
    assert "INCORRECT: no call returned" in proc.stdout


def _fake_bench(monkeypatch, capsys, call_records, speed=1.0):
    """Run ``run.bench`` on canned worker records, on a host ``speed`` times
    slower than the reference host; return (code, result)."""
    gate = {"passed": True, "unfinished": {"passed": True}, "law": {"passed": True},
            "control": {"passed": False}}
    ref = [speed * run.REF_NOMINAL_S]
    calls = iter(call_records)
    clock = [0.0]

    def fake_worker(args, mode, timeout, extra=()):
        if mode == "check":
            return {"setup_s": 9.0, "check_digests": ["d"] * 3}
        if mode == "setup":
            return {"setup_s": 0.5 * speed, "ref_s": ref}
        wall, error = next(calls)
        clock[0] += wall
        rec = {"setup_s": 0.5 * speed, "wall_s": wall * speed, "peak_rss_mb": 100.0,
               "attempted": 10, "failed": 10 if error else 0, "error": error,
               "capped": bool(error), "digest": "d", "versions": {}, "ref_s": ref * 2}
        if not error and "--gate" in extra and extra[extra.index("--gate") + 1] == "1":
            rec["gate"] = gate
        return rec

    monkeypatch.setattr(run, "run_worker", fake_worker)
    monkeypatch.setattr(run, "call_count", lambda workload, seconds: len(call_records))
    monkeypatch.setattr(run, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    args = run.argparse.Namespace(workload="radial-wide", seed=1, seconds=0.0, trace=0)
    code = run.bench(args)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_capped_call_counts_as_the_slowest(monkeypatch, capsys):
    code, result = _fake_bench(monkeypatch, capsys, [
        (30.0, "CallTimeout: over"), (2.0, None), (3.0, None), (2.5, None)])
    assert code == 0 and result["correct"]
    assert result["metrics"]["wall_s"]["value"] == 2.75
    assert result["metrics"]["setup_s"]["value"] == 0.5   # no check-process sample
    assert (result["attempted"], result["failed"]) == (40, 10)


def test_a_run_whose_calls_hit_the_cap_is_incorrect(monkeypatch, capsys):
    code, result = _fake_bench(monkeypatch, capsys, [
        (30.0, "MemoryError: "), (2.0, None)] + [(30.0, "CallTimeout: over")] * 20)
    assert code == 1 and not result["correct"]
    assert result["metrics"]["wall_s"]["value"] == 30.0


def test_times_are_reported_at_the_reference_host_speed(monkeypatch, capsys):
    code, result = _fake_bench(monkeypatch, capsys, [(2.0, None), (3.0, None),
                                                     (2.5, None)], speed=1.5)
    assert code == 0
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(2.5)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.5)


def test_call_count_depends_only_on_the_run_length():
    for name in run.WORKLOADS:
        assert run.call_count(name, 1) == run.MIN_CALLS
        assert run.call_count(name, 600) == 30 * run.CALLS_PER_20_S[name]


def test_verify_reports_that_fail_are_verdicts_not_failed_paths():
    case = workloads.build("verify-b2", 1)

    def paths(n, failures):
        termination = np.array(["horizon"] * n, dtype=object)
        termination[:failures] = "step_failure"
        return types.SimpleNamespace(termination=termination)

    def report(name, passed):
        return types.SimpleNamespace(name=name, passed=passed, skipped=False)

    result = workloads.VerifyRun([report("moment", True), report("martingale", False)],
                                 paths(2000, 0), paths(1000, 3))
    assert workloads.outcome(case, result) == (3000, 3)
    assert workloads.failed_checks(case, result) == ["martingale"]
    assert workloads.failed_call(case) == (3000, 3000)


def test_percentile_note_needs_ten_samples_beyond():
    assert "too few" in run.percentile_note([1.0] * 19)
    assert "p50 10 s" in run.percentile_note([float(v) for v in range(1, 21)])


def test_a_call_that_raises_counts_all_its_paths_as_failed():
    import worker

    case = workloads.build("radial-wide", 1)

    def out_of_memory(cfg, threads):
        raise MemoryError

    case.run = out_of_memory
    rec, result = worker.timed_call(case, budget=1e9, tracer=None)
    assert result is None and rec["error"].startswith("MemoryError")
    assert rec["attempted"] == rec["failed"] == case.config.n_paths
