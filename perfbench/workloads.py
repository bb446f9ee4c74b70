"""The benchmark's workloads, output digests and correctness gate.

Every workload is one call into the public Python API of ``dunkl_lab`` with
``threads=1``; its seed is a benchmark argument.  ``import_layer`` and
``build`` are separate so a tracer can be installed between them.

Why these four (each stresses a different layer):

* ``radial-wide``: large N, few steps, no lift; the engine's vector step and
  per-path stream setup do almost all the work.
* ``lift-shortcut``: B2 in auto mode, where all four stages are shortcut flip
  stages over recorded paths; flip stages and the additive clock dominate.
  Its cost is heavy-tailed across seeds: the shortcut clock gives a path
  that passes close to a wall thousands of flips, and later flip stages are
  quadratic in them, so about one seed in ten takes 1.3 to 20 times the
  median.  It runs at N=2000 so that a run fits several calls (and seeds)
  and its median is steady.
* ``lift-general``: B4 in general mode, where all sixteen stages run as
  engine clocks and there is no flip stage; the scalar bisection path
  (``cover_interval``) carries a large share.  A flip-stage change should
  not move it.
* ``verify-b2``: the radial checks of ``verify.run_suite`` on B2 at its
  default ``n_paths=2000``, made with the same calls and seeds as
  ``run_suite`` (see ``_verify_radial``): the harmonicity identities, an
  unrecorded radial run for the BESQ moment and the Bessel-oracle norm
  check with its control, and recorded radial paths (the engine at small N,
  building trajectories) for the martingale battery under the radial
  generator (``calculus``).  All of ``run_suite`` is not a workload: one call
  takes 36 to 62 s (157 s when the flip-clock defect strikes one of its
  lifts), so a run fits one call and one seed, and its runs spread by 0.30
  of their median, more than the largest allowed bound (0.25).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import zlib
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

NAMES = ("radial-wide", "lift-shortcut", "lift-general", "verify-b2")

# Reduced instance for the threads=1 vs threads=2 check: more paths than one
# engine chunk (4096), so two workers really split the batch, and few steps.
THREADS_CHECK_PATHS = 4608
THREADS_CHECK_HORIZON = {"radial-wide": 0.02, "lift-shortcut": 0.01,
                         "lift-general": 0.01, "verify-b2": 0.02}

SHORTCUT_PATHS = 2000
VERIFY_PATHS = 2000
VERIFY_REPORTS = 11      # reports of one verify-b2 call
# The gate runs on every benchmark run, hundreds of times per comparison, so
# its false-alarm rate must be negligible: both levels are about 1e-5 (the
# mean test two-sided).  The controls miss by 7 SE or more at p below 1e-8.
KS_ALPHA = 1e-5          # KS level of the BESQ gate
MEAN_SE = 4.42           # the mean of ‖X_T‖² must lie within this many SE
EVENT_TOL = 1e-9         # relative tolerance of post = pre − (α·pre)α
# Share of a call's paths that may end before the horizon (step failures).
# No path did in the benchmark's own runs; the BESQ law is checked on the
# paths that reached the horizon, so a defect that ends paths early must
# fail here instead of dropping out of the law check.
MAX_UNFINISHED = 1e-3

# Output of a verify-b2 call: its reports, the radial run of the norm checks
# and the recorded run of the martingale battery.
VerifyRun = namedtuple("VerifyRun", "reports radial recorded")


@dataclass
class Case:
    """One workload, built and ready to call."""

    name: str
    kind: str                      # "radial", "lift" or "verify"
    system: object
    k: object
    x0: np.ndarray
    run: Callable                  # run(config, threads) -> result
    config: object                 # SimulationConfig of the timed call
    check_config: object           # reduced instance for the threads check

    def call(self, threads=1):
        return self.run(self.config, threads)


def call_seed(seed, call):
    """Seed of call ``call`` of a run with seed ``seed``.

    Each call of a run gets its own seed, so a run's median samples the
    spread of cost across seeds instead of repeating one seed's outlier.
    Call 0 uses the run seed itself.
    """
    if call == 0:
        return seed
    return zlib.crc32(f"{seed}:{call}".encode())


def import_layer(name):
    """Import what the workload needs (its import cost is part of setup)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    dl = importlib.import_module("dunkl_lab")
    if name == "verify-b2":
        importlib.import_module("dunkl_lab.verify")
    return dl


def _verify_radial(dl, system, k, x0, cfg, threads):
    """The radial checks of ``run_suite``, made with the calls it makes:

    the harmonicity identities; a ``record=False`` run of ``n_paths`` for the
    BESQ moment, the KS norm check and its off-by-one control; the bias
    calibration and a ``record=True`` run of ``max(800, n_paths // 2)`` paths
    for the martingale battery under the radial generator.  Each takes its
    seed from ``derived_seed`` with the tag ``run_suite`` uses.
    """
    verify = importlib.import_module("dunkl_lab.verify")
    seed, horizon, dt, n_paths = cfg.seed, cfg.horizon, cfg.dt, cfg.n_paths
    n = system.dimension
    dim = n + 2.0 * k.gamma
    start = float(np.linalg.norm(x0))

    def sim(tag, paths):
        return dl.SimulationConfig(horizon=horizon, dt=dt, n_paths=paths,
                                   seed=verify.derived_seed(seed, tag))

    reports = [verify.harmonicity_check(
        system, k, which="delta", seed=verify.derived_seed(seed, "harmonic-delta"))]
    if 0.5 in k.by_orbit:
        reports.append(verify.harmonicity_check(
            system, k, which="delta_bar",
            seed=verify.derived_seed(seed, "harmonic-deltabar")))
    reports.append(verify.harmonicity_check(
        system, k, which="pi", tol=1e-6, seed=verify.derived_seed(seed, "harmonic-pi")))
    reports.append(verify.harmonicity_check(
        system, 0.8, which="pi_power", tol=1e-6,
        seed=verify.derived_seed(seed, "harmonic-pipow"), name="harmonic-pi_power"))

    radial = dl.run_radial(system, k, x0, sim("radial", n_paths), record=False,
                           threads=threads)
    sq = np.einsum("ij,ij->i", radial.final_states, radial.final_states)
    reports.append(verify.moment_besq(sq, x0, k.gamma, n, horizon,
                                      name="moment-besq-radial"))
    norms = np.sqrt(sq)
    reports.append(verify.norm_is_bessel(
        norms, dim, start, horizon, seed=verify.derived_seed(seed, "bessel-radial"),
        name="ks-norm-radial"))
    control = verify.norm_is_bessel(
        norms, dim - 1.0, start, horizon, seed=verify.derived_seed(seed, "bessel-ctrl"),
        name="ks-norm:control")
    control.passed = not control.passed
    reports.append(control)

    allowance = dt * verify.calibrate_bias_coefficient(
        system, horizon, 4000, verify.derived_seed(seed, "bias"))
    recorded = dl.run_radial(system, k, x0, sim("mart", max(800, n_paths // 2)),
                             record=True, threads=threads)
    spec = verify.GeneratorSpec.radial(system, k)
    reports += [verify.martingale_residual(
        lambda: recorded.trajectories, spec, u, bias_allowance=allowance,
        name=f"martingale-radial-{u.name}")
        for u in verify.function_battery(n)]
    return VerifyRun(reports, radial, recorded)


def build(name, seed):
    """Build the system, multiplicity, plan and config of workload ``name``."""
    dl = import_layer(name)
    if name == "lift-general":
        system = dl.build_type_b(4)
        x0 = np.array([4.0, 3.0, 2.0, 1.0])
    else:
        system = dl.build_type_b(2)
        x0 = np.array([2.0, 1.0])
    k = dl.multiplicity(system, 1.0)

    def config(horizon, n_paths):
        return dl.SimulationConfig(horizon=horizon, dt=1e-3, n_paths=n_paths,
                                   seed=seed)

    reduced = config(THREADS_CHECK_HORIZON[name], THREADS_CHECK_PATHS)
    if name == "radial-wide":
        def run(cfg, threads):
            return dl.run_radial(system, k, x0, cfg, record=False, threads=threads)
        return Case(name, "radial", system, k, x0, run, config(0.2, 16384), reduced)
    if name == "verify-b2":
        def run(cfg, threads):
            return _verify_radial(dl, system, k, x0, cfg, threads)
        return Case(name, "verify", system, k, x0, run, config(1.0, VERIFY_PATHS),
                    reduced)
    mode = "auto" if name == "lift-shortcut" else "general"
    plan = dl.build_lift_plan(system, k, mode=mode)

    def run(cfg, threads):
        return dl.simulate_dunkl(plan, x0, cfg, threads=threads)
    if name == "lift-shortcut":
        return Case(name, "lift", system, k, x0, run, config(1.0, SHORTCUT_PATHS),
                    reduced)
    return Case(name, "lift", system, k, x0, run, config(0.2, 4096), reduced)


# ---------------------------------------------------------------------------
# outcome counts and digests


def _paths(case, result):
    """The simulated paths the gate checks inside a call's result."""
    return result.radial if case.kind == "verify" else result


def outcome(case, result):
    """(attempted, failed) operations of one call that returned: simulated
    paths, and those that ended in a step failure.  For verify-b2 these are
    the paths of both its radial runs."""
    runs = [result.radial, result.recorded] if case.kind == "verify" else [result]
    return (sum(len(r.termination) for r in runs),
            sum(int(np.sum(r.termination == "step_failure")) for r in runs))


def failed_call(case):
    """(attempted, failed) of a call that raised: all of its paths."""
    n = case.config.n_paths
    if case.kind == "verify":
        n += max(800, n // 2)      # the recorded run of the martingale battery
    return n, n


def failed_checks(case, result):
    """Names of the verify-b2 reports that did not pass (controls included).

    They are the program's verdicts, not failed operations: each check is a
    test at 3 standard errors or a fixed level, so a correct program fails
    one now and then (one call in 37 failed a radial martingale check).
    The run prints them and the traced run counts them."""
    if case.kind != "verify":
        return []
    return [r.name for r in result.reports if not r.skipped and not r.passed]


def _hash_run(h, run):
    h.update(np.ascontiguousarray(run.final_states, dtype=float).tobytes())
    h.update("\n".join(map(str, run.termination)).encode())
    if hasattr(run, "n_jumps"):
        h.update(np.array([len(t.times) - 1 for t in run.trajectories]).tobytes())
        h.update(np.asarray(run.n_jumps, dtype=np.int64).tobytes())
    else:
        h.update(np.ascontiguousarray(run.t0_times, dtype=float).tobytes())


def digest(case, result):
    """SHA-256 of a call's outputs: final states, stops, terminations, jumps,
    and for verify-b2 both radial runs and each report's name, estimate and
    verdict."""
    h = hashlib.sha256()
    _hash_run(h, _paths(case, result))
    if case.kind == "verify":
        _hash_run(h, result.recorded)
        rows = [[r.name, repr(float(r.estimate)), bool(r.passed), bool(r.skipped)]
                for r in result.reports]
        h.update(json.dumps(rows).encode())
    return h.hexdigest()


def check_digests(case):
    """Digests of the reduced instance: threads=1, a repeat, threads=2."""
    return [digest(case, case.run(case.check_config, threads))
            for threads in (1, 1, 2)]


# ---------------------------------------------------------------------------
# correctness gate


def gate_data(case, result):
    """The part of a call's result the gate needs."""
    paths = _paths(case, result)
    data = {"final": np.asarray(paths.final_states),
            "termination": np.asarray(paths.termination)}
    if case.kind == "lift":
        data["paths"] = paths.trajectories
    if case.kind == "verify":
        data["reports_ok"] = reports_well_formed(result.reports)
    return data


def besq_dimension(case):
    """n + 2γ, the dimension of the squared-Bessel law of ‖X_T‖²."""
    return case.system.dimension + 2.0 * case.k.gamma


def control_dimension(case):
    """A dimension wrong by about a tenth: far enough off to be detectable
    at the workload sizes (off by one is not, on B4 where n + 2γ = 36)."""
    dim = besq_dimension(case)
    return dim - max(1.0, round(0.1 * dim))


def besq_check(final, x0, dim, horizon):
    """‖X_T‖² against the BESQ(dim) law: the mean within ``MEAN_SE`` standard
    errors of ‖x₀‖² + dim·T, and a KS test at level ``KS_ALPHA``.

    ‖X_T‖²/T follows the noncentral χ² with ``dim`` degrees of freedom and
    noncentrality ‖x₀‖²/T (Revuz–Yor, ch. XI).
    """
    from scipy import stats

    sq = np.einsum("ij,ij->i", final, final)
    x0sq = float(np.dot(x0, x0))
    target = x0sq + dim * horizon
    se = float(sq.std(ddof=1) / np.sqrt(len(sq)))
    z = float((sq.mean() - target) / se)
    p = float(stats.kstest(sq / horizon, stats.ncx2(df=dim, nc=x0sq / horizon).cdf).pvalue)
    return {"dim": dim, "mean": float(sq.mean()), "target": target, "z": z,
            "ks_p": p, "passed": abs(z) <= MEAN_SE and p >= KS_ALPHA}


def events_check(system, x0, paths):
    """Tie every logged jump to its recorded path.

    Each jump must satisfy post = pre − (α·pre)α for a positive root α, and
    the jump log must account for the chamber the path is in: with w the
    composition of the reflections logged up to time t, w⁻¹ maps the path's
    grid state at t, and the ``pre`` of the next jump, into the chamber of
    x₀.  (The radial part never reaches a wall, so between jumps a path
    stays in one chamber.)  A missing, extra or misplaced flip puts some
    grid state in the wrong chamber.  Jump times must increase and lie in
    (0, T].
    """
    roots = system.positive_roots
    m, n = roots.shape
    base = np.sign(roots @ np.asarray(x0, dtype=float))
    out = {"events": 0, "paths": len(paths), "worst_reflection": 0.0,
           "bad_order": 0, "bad_root": 0, "bad_chamber": 0}

    def outside(inv, states):
        y = np.atleast_2d(states) @ inv.T
        slack = EVENT_TOL * (1.0 + np.abs(y).max(axis=1))
        return int(np.sum(((y @ roots.T) * base).min(axis=1) <= -slack))

    for traj in paths:
        times = np.asarray(traj.times)
        states = np.asarray(traj.states)
        events = traj.events
        out["events"] += len(events)
        ev_times = np.array([ev.time for ev in events], dtype=float)
        if len(events) and (np.any(np.diff(ev_times) < 0) or ev_times[0] <= 0.0
                            or ev_times[-1] > times[-1]):
            out["bad_order"] += 1
            continue
        cuts = np.concatenate([[0], np.searchsorted(times, ev_times, side="left"),
                               [len(times)]])
        inv = np.eye(n)               # w⁻¹ for the jumps logged so far
        for i, ev in enumerate(events):
            out["bad_chamber"] += outside(inv, states[cuts[i]:cuts[i + 1]])
            if not 0 <= ev.root < m:
                out["bad_root"] += 1
                break
            alpha = roots[ev.root]
            pre = np.asarray(ev.pre, dtype=float)
            err = np.abs(np.asarray(ev.post) - (pre - (alpha @ pre) * alpha)).max()
            out["worst_reflection"] = max(out["worst_reflection"],
                                          float(err / (1.0 + np.abs(pre).max())))
            out["bad_chamber"] += outside(inv, pre)
            inv = inv - np.outer(inv @ alpha, alpha)
        else:
            out["bad_chamber"] += outside(inv, states[cuts[-2]:])
    out["passed"] = (out["worst_reflection"] <= EVENT_TOL and out["bad_order"] == 0
                     and out["bad_root"] == 0 and out["bad_chamber"] == 0)
    return out


def gate(case, data):
    """The correctness gate of one call's output, with its control.

    Returns a dict whose ``passed`` is true when at most ``MAX_UNFINISHED``
    of the paths ended before the horizon, the law check on the paths that
    reached it passes, the control (the same law check at a wrong dimension)
    is rejected, the jump log agrees with the paths (lift workloads) and the
    reports are well formed (verify-b2).
    """
    horizon = case.config.horizon
    finished = data["termination"] == "horizon"
    final = data["final"][finished]
    law = besq_check(final, case.x0, besq_dimension(case), horizon)
    control = besq_check(final, case.x0, control_dimension(case), horizon)
    share = 1.0 - float(finished.mean())
    unfinished = {"share": share, "passed": share <= MAX_UNFINISHED}
    out = {"unfinished": unfinished, "law": law, "control": control,
           "passed": (unfinished["passed"] and law["passed"]
                      and not control["passed"])}
    if case.kind == "lift":
        out["events"] = events_check(case.system, case.x0, data["paths"])
        out["passed"] = out["passed"] and out["events"]["passed"]
    if case.kind == "verify":
        out["reports_ok"] = data["reports_ok"]
        out["passed"] = out["passed"] and data["reports_ok"]
    return out


def reports_well_formed(reports):
    """Verify reports are a non-empty list of uniquely named reports, each
    with a finite estimate unless it was skipped."""
    names = [r.name for r in reports]
    return (len(reports) > 0 and len(set(names)) == len(names)
            and all(r.skipped or np.isfinite(r.estimate) for r in reports))
