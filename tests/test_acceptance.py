"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and sample size is pinned here; the master seed makes the
whole battery reproducible bit for bit.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import sys
import time

import numpy as np
import pytest

from dunkl_lab import (
    SimulationConfig,
    build_lift_plan,
    build_rank_one,
    build_type_a,
    build_type_b,
    chamber_labels,
    check_invariance_condition,
    multiplicity,
    run_radial,
    simulate_dunkl,
)
from dunkl_lab import calculus
from dunkl_lab.calculus import (GeneratorSpec, generator_terms, rotate_system,
                                sample_interior_points)
from dunkl_lab.rng import CHECK, keys, stream
from dunkl_lab.root_systems import project_batch, reflect, validate_root_system
from dunkl_lab.verify import (
    calibrate_bias_coefficient,
    control_function,
    derived_seed,
    function_battery,
    harmonicity_check,
    label_law,
    martingale_residual,
    haar_orthogonal,
    norm_is_bessel,
    wall_hitting_profile,
)
from test_lift import reachable_labels

ACC_SEED = 20170406


def report(num, ok, text):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {text}"
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def b2():
    return build_type_b(2)


@pytest.fixture(scope="module")
def k_one(b2):
    return multiplicity(b2, 1.0)


@pytest.fixture(scope="module")
def radial_5k(b2, k_one):
    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=5000,
                           seed=derived_seed(ACC_SEED, "radial-5k"))
    return run_radial(b2, k_one, [2.0, 1.0], cfg, record=False)


@pytest.fixture(scope="module")
def full_5k(b2, k_one):
    plan = build_lift_plan(b2, k_one, mode="auto")
    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=5000,
                           seed=derived_seed(ACC_SEED, "full-5k"))
    return simulate_dunkl(plan, [2.0, 1.0], cfg)


def test_criterion_01_reflection_algebra():
    t0 = time.perf_counter()
    expected_orders = {("A", 3): 6, ("A", 4): 24, ("B", 2): 8, ("B", 3): 48}
    ok = True
    for (kind, n), order in expected_orders.items():
        system = build_type_a(n) if kind == "A" else build_type_b(n)
        validate_root_system(system.roots)
        ok &= len(system.weyl_group) == order
        # involution + isometry on random points, exhaustive over roots
        rng = stream(keys(ACC_SEED, 4, 10))
        x = rng.standard_normal((20, system.dimension))
        for alpha in system.roots:
            ok &= bool(np.max(np.abs(reflect(alpha, reflect(alpha, x)) - x)) <= 1e-14)
            ok &= bool(np.max(np.abs(
                np.linalg.norm(reflect(alpha, x), axis=1)
                - np.linalg.norm(x, axis=1))) <= 1e-12)
            for image in reflect(alpha, system.roots):
                ok &= bool(np.max(np.abs(system.roots - image), axis=1).min() <= 1e-9)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"axioms + Weyl orders 6/24/8/48 in {elapsed:.2f}s (< 1s)")


def test_criterion_02_harmonicity():
    t0 = time.perf_counter()
    a2 = build_type_a(3)
    b2 = build_type_b(2)
    worst = {}
    checks = [
        ("A2 k=0.8 delta", a2, multiplicity(a2, 0.8), "delta", 1e-5),
        ("A2 k=1.5 delta", a2, multiplicity(a2, 1.5), "delta", 1e-5),
        ("B2 (0.75,1.25) delta", b2, multiplicity(b2, [0.75, 1.25]), "delta", 1e-5),
        ("B2 (1,0.5) delta_bar", b2, multiplicity(b2, {0: 1.0, 1: 0.5}),
         "delta_bar", 1e-5),
        ("A2 pi", a2, None, "pi", 1e-6),
        ("B2 pi", b2, None, "pi", 1e-6),
        ("B2 pi_power k=0.8", b2, 0.8, "pi_power", 1e-6),
    ]
    ok = True
    for label, system, k, which, tol in checks:
        rep = harmonicity_check(system, k, which=which, n_points=100,
                                seed=derived_seed(ACC_SEED, label), tol=tol)
        worst[label] = rep.estimate
        ok &= rep.passed
    # control: δ_k under the drift of k + ½ is not harmonic at any point
    k = multiplicity(b2, [0.75, 1.25])
    pts = sample_interior_points(b2, 100, stream(keys(ACC_SEED, 4, 20)))
    t = generator_terms(GeneratorSpec.radial(b2, multiplicity(b2, [1.25, 1.75])),
                        calculus._delta_times(b2, k, False), pts)
    control = np.min(np.abs(t["half_laplacian"] + t["drift"])
                     / (np.abs(t["half_laplacian"]) + np.abs(t["drift"])))
    ok &= control >= 0.1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    peak = max(worst.values())
    report(2, ok, f"max relative residual {peak:.2e} over {len(checks)} identities, "
                  f"control (drift of k + 1/2) reads {control:.2f} (≥ 0.1), "
                  f"in {elapsed:.2f}s (< 5s)")


def test_criterion_03_besq_moment(b2, k_one):
    t0 = time.perf_counter()
    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=20000,
                           seed=derived_seed(ACC_SEED, "besq-moment"))
    run = run_radial(b2, k_one, [2.0, 1.0], cfg, record=False)
    sq = np.einsum("ij,ij->i", run.final_states, run.final_states)
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    target = 15.0  # |x0|² + (n + 2γ)T = 5 + 10
    dev = abs(sq.mean() - target)
    elapsed = time.perf_counter() - t0
    ok = dev <= 3 * se and elapsed < 120.0
    report(3, ok, f"E|X_1|² = {sq.mean():.4f} vs 15 (|Δ| = {dev:.4f} ≤ 3·SE = "
                  f"{3 * se:.4f}), N = 20000, {elapsed:.1f}s (< 2min)")


def test_criterion_04_norm_ks(radial_5k):
    # The lift's norm is its radial path's (criterion 06), so the law is
    # checked on the radial run only.
    t0 = time.perf_counter()
    radial_norms = np.linalg.norm(radial_5k.final_states, axis=1)
    rep_r = norm_is_bessel(radial_norms, 10.0, np.sqrt(5.0), 1.0,
                           seed=derived_seed(ACC_SEED, "ks-r"),
                           name="radial")
    ctrl = norm_is_bessel(radial_norms, 9.0, np.sqrt(5.0), 1.0,
                          seed=derived_seed(ACC_SEED, "ks-c"),
                          name="control")
    elapsed = time.perf_counter() - t0
    ok = rep_r.passed and not ctrl.passed and elapsed < 180.0
    report(4, ok, f"KS vs Bessel(10): radial p = {rep_r.estimate:.3f} (≥ 0.01); "
                  f"off-by-one control p = {ctrl.estimate:.2e} rejected; "
                  f"{elapsed:.1f}s (< 3min)")


def test_criterion_05_mode_equivalence(b2, k_one, full_5k):
    # Both lift modes against one exact law: the chamber label given each
    # path's own radial part, each with rates ×0.5 as the control.
    t0 = time.perf_counter()
    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=5000,
                           seed=derived_seed(ACC_SEED, "label-general"))
    general = simulate_dunkl(build_lift_plan(b2, k_one, mode="general"), [2.0, 1.0], cfg)
    ok, parts = True, []
    for mode, run in (("auto", full_5k), ("general", general)):
        rep = label_law(run, build_lift_plan(b2, k_one, mode=mode))
        ctrl = label_law(run, build_lift_plan(b2, k_one, rates=multiplicity(b2, 0.5),
                                              mode=mode))
        ok &= rep.passed and not ctrl.passed
        parts.append(f"{mode} max|z| = {rep.estimate:.2f} (×0.5 control "
                     f"{ctrl.estimate:.1f})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180.0
    report(5, ok, f"label law given the radial path: {'; '.join(parts)}, bound "
                  f"{rep.tolerance:.2f}, N = 5000, {elapsed:.1f}s (< 3min)")


def test_criterion_06_end_to_end(b2, k_one, radial_5k, full_5k):
    t0 = time.perf_counter()
    # the skew product's radial part: π(X_1) is the radial run of the same
    # config to rounding; radial_5k, an independent seed, is the control
    projected = project_batch(b2, full_5k.final_states)

    def off(radial):
        z = radial.final_states
        return np.max(np.abs(projected - z).max(axis=1) / (1.0 + np.linalg.norm(z, axis=1)))

    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=5000,
                           seed=derived_seed(ACC_SEED, "full-5k"))
    same = off(run_radial(b2, k_one, [2.0, 1.0], cfg, record=False))
    ctrl = off(radial_5k)

    # every logged jump is exactly a root reflection
    jumps_ok = True
    n_events = 0
    for traj in full_5k.trajectories:
        for ev in traj.events:
            alpha = b2.positive_roots[ev.root]
            jumps_ok &= np.array_equal(ev.post,
                                       ev.pre - (ev.pre @ alpha) * alpha)
            n_events += 1

    # stage confinement, pointwise on every path of one run per stage prefix:
    # each grid state and each jump's post keeps a chamber label reachable
    # from x0's by the prefix's reflections
    plan = build_lift_plan(b2, k_one, mode="auto")
    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=500,
                           seed=derived_seed(ACC_SEED, "confine"))
    confined = True
    for stage in range(plan.n_stages + 1):
        staged = simulate_dunkl(plan, [2.0, 1.0], cfg, stages=stage)
        allowed = reachable_labels(b2, plan, [2.0, 1.0], stage)
        for traj in staged.trajectories:
            confined &= bool(np.isin(chamber_labels(b2, traj.states), allowed).all())
            if traj.events:
                confined &= bool(np.isin(chamber_labels(
                    b2, np.array([ev.post for ev in traj.events])), allowed).all())
    elapsed = time.perf_counter() - t0
    ok = same <= 1e-12 and ctrl > 1e-12 and jumps_ok and confined and elapsed < 300.0
    report(6, ok, f"π(Y⁴_1) = X^W_1 of the same config within {same:.1e}·(1 + |x|) "
                  f"(≤ 1e-12; independent-seed control {ctrl:.2f} rejected); "
                  f"{n_events} jumps all exact reflections; stage confinement "
                  f"pointwise on 500×5 paths; {elapsed:.1f}s (< 5min)")


def test_criterion_07_folding(b2, k_one):
    # The label law at each stage prefix.  On B2 the prefix-(j−1) law, which
    # drops the mass reflected by stage j, is the control; A2 (whose auto
    # plan mixes modes) and rank one run in both modes, with rates ×0.5 as
    # the control.
    t0 = time.perf_counter()
    ok, worst, controls = True, 0.0, []
    plan = build_lift_plan(b2, k_one, mode="auto")
    for j in (1, 2, 3):
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=2000,
                               seed=derived_seed(ACC_SEED, f"label-b2-{j}"))
        run = simulate_dunkl(plan, [2.0, 1.0], cfg, stages=j)
        rep = label_law(run, plan, stages=j)
        ctrl = label_law(run, plan, stages=j - 1)
        ok &= rep.passed and not ctrl.passed
        worst = max(worst, rep.estimate)
        controls.append(ctrl.estimate)
    a2 = build_type_a(3)
    cases = [("A2", a2, 0.7 * a2.positive_roots.sum(axis=0) + [0.3, 0.1, -0.2], 2000),
             ("rank one", build_rank_one(), [1.0], 4000)]
    for label, system, x0, n_paths in cases:
        k = multiplicity(system, 1.0)
        for mode in ("auto", "general"):
            plan = build_lift_plan(system, k, mode=mode)
            half = build_lift_plan(system, k, rates=multiplicity(system, 0.5), mode=mode)
            for j in range(1, plan.n_stages + 1):
                cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=n_paths,
                                       seed=derived_seed(ACC_SEED, f"label-{label}-{mode}-{j}"))
                run = simulate_dunkl(plan, x0, cfg, stages=j)
                rep = label_law(run, plan, stages=j)
                ok &= rep.passed
                worst = max(worst, rep.estimate)
            ctrl = label_law(run, half)  # on the run of all stages
            ok &= not ctrl.passed
            controls.append(ctrl.estimate)
    elapsed = time.perf_counter() - t0
    report(7, ok, f"label law at every stage prefix, B2 auto (N = 2000), A2 and rank "
                  f"one in both modes: worst max|z| = {worst:.2f}; controls (B2 "
                  f"prefix j−1, then ×0.5) min max|z| = {min(controls):.2f}; "
                  f"{elapsed:.1f}s")


def test_criterion_08_wall_profile():
    t0 = time.perf_counter()
    rep = wall_hitting_profile(1500, derived_seed(ACC_SEED, "wall"))
    elapsed = time.perf_counter() - t0
    fr = ", ".join(f"{f:.3f}" for f in rep.details["hit_fractions"])
    report(8, rep.passed,
           f"hit fractions over k = (0.1, 0.3, 0.45, 0.5, 0.6, 1.0): [{fr}] "
           f"nonincreasing, ≥ 0.5 at k = 0.1, ≤ 0.01 for k ≥ 0.6; {elapsed:.1f}s")


def test_criterion_09_invariance_tables():
    b2 = build_type_b(2)
    a2 = build_type_a(3)
    a3 = build_type_a(4)
    ok = all(check_invariance_condition(b2, i) for i in range(1, 5))
    a2_values = [check_invariance_condition(a2, i) for i in range(1, 4)]
    ok &= not all(a2_values)
    rng = stream(keys(ACC_SEED, 4, 30))
    for system in (b2, a3):
        m = system.n_positive
        for _ in range(20):
            enum = tuple(int(v) for v in rng.permutation(m))
            ok &= check_invariance_condition(system, 1, enum)
            ok &= check_invariance_condition(system, m, enum)
    report(9, ok, "B2 table all true; A2 default table has a false entry "
                  f"({a2_values}); stages 1 and m true over 20 random "
                  "enumerations of B2 and A3")


def test_criterion_10_rotation_covariance(b2, k_one):
    # a lift of θB2 from θx₀ against its exact label law, as ``run_suite``
    # draws it; rates k + ½ are the control
    t0 = time.perf_counter()
    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=2000,
                           seed=derived_seed(ACC_SEED, "label-rotated"))
    theta = haar_orthogonal(2, stream(keys(cfg.seed, CHECK, 0)))
    rotated = rotate_system(b2, theta)
    plan = build_lift_plan(rotated, multiplicity(rotated, 1.0), mode="auto")
    run = simulate_dunkl(plan, theta @ [2.0, 1.0], cfg)
    rep = label_law(run, plan)
    ctrl = label_law(run, build_lift_plan(rotated, plan.k, rates=multiplicity(rotated, 1.5)))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and not ctrl.passed
    report(10, ok, f"rotated lift's label law max|z| = {rep.estimate:.2f} "
                   f"(rates k + ½ control {ctrl.estimate:.1f}), bound "
                   f"{rep.tolerance:.2f}, N = 2000; {elapsed:.1f}s")


def test_criterion_11_martingale_battery(b2, k_one):
    t0 = time.perf_counter()
    horizon, dt, n_paths = 1.0, 1e-3, 1000
    bias_c = calibrate_bias_coefficient(b2, horizon, 4000,
                                        derived_seed(ACC_SEED, "bias"))
    allowance = bias_c * dt
    k_prime = multiplicity(b2, [1.5, 0.75])

    cfg_r = SimulationConfig(horizon=horizon, dt=dt, n_paths=n_paths,
                             seed=derived_seed(ACC_SEED, "mart-r"))
    radial = run_radial(b2, k_one, [2.0, 1.0], cfg_r, record=True).trajectories
    plan = build_lift_plan(b2, k_one, mode="auto")
    cfg_f = SimulationConfig(horizon=horizon, dt=dt, n_paths=n_paths,
                             seed=derived_seed(ACC_SEED, "mart-f"))
    full = simulate_dunkl(plan, [2.0, 1.0], cfg_f).trajectories
    plan_kp = build_lift_plan(b2, k_one, rates=k_prime, mode="auto")
    cfg_kp = SimulationConfig(horizon=horizon, dt=dt, n_paths=n_paths,
                              seed=derived_seed(ACC_SEED, "mart-kp"))
    two_param = simulate_dunkl(plan_kp, [2.0, 1.0], cfg_kp).trajectories

    cases = [("radial", radial, GeneratorSpec.radial(b2, k_one)),
             ("full", full, GeneratorSpec.full(b2, k_one)),
             ("two-param", two_param,
              GeneratorSpec.full(b2, k_one, jump_k=k_prime))]
    # a W-invariant u has u(X) = u(Z) and no jump terms: lifted runs take
    # only the non-invariant members, linear and sine
    invariant = ("sq_norm", "gauss", "inv_quad")
    ok = True
    worst_z = 0.0
    for tag, paths, spec in cases:
        for u in function_battery(2):
            if tag != "radial" and u.name in invariant:
                continue
            rep = martingale_residual(lambda: paths, spec, u,
                                      bias_allowance=allowance,
                                      name=f"{tag}-{u.name}")
            worst_z = max(worst_z, abs(rep.estimate) / rep.stderr)
            ok &= rep.passed
    ctrl = martingale_residual(lambda: full, GeneratorSpec.radial(b2, k_one),
                               control_function(2), bias_allowance=allowance)
    ok &= not ctrl.passed
    elapsed = time.perf_counter() - t0
    report(11, ok, f"9 residuals within 3·SE + {allowance:.2e} (worst z = "
                   f"{worst_z:.2f}); mismatched-generator control rejected "
                   f"(|est| = {abs(ctrl.estimate):.2f} > tol = {ctrl.tolerance:.2f}); "
                   f"{elapsed:.1f}s")
