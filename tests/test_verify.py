import dataclasses
import json

import numpy as np
import pytest

from dunkl_lab import SimulationConfig, build_lift_plan, multiplicity, run_radial
from dunkl_lab.calculus import GeneratorSpec
from dunkl_lab import verify
from dunkl_lab.lift import simulate_dunkl
from dunkl_lab.verify import (
    Report,
    bessel_em_oracle,
    calibrate_bias_coefficient,
    control_function,
    default_rectangles,
    derived_seed,
    folding_identity,
    harmonicity_check,
    martingale_residual,
    mode_equivalence,
    norm_is_bessel,
    projection_agreement,
    render_table,
    reports_to_json,
    rotation_covariance_generator,
    rotation_covariance_paths,
    function_battery,
    wall_hitting_profile,
)
from dunkl_lab.rng import stream


class TestReportPlumbing:
    def test_json_round_trip(self):
        rep = Report(name="x", estimate=1.0, stderr=0.1, tolerance=0.3,
                     alpha=None, sample_size=10, passed=True,
                     details={"arr": np.arange(3), "np": np.float64(2.5)})
        text = reports_to_json([rep])
        back = json.loads(text)
        assert back[0]["details"]["arr"] == [0, 1, 2]
        assert back[0]["passed"] is True

    def test_table_contains_status(self):
        rep = Report(name="check", estimate=0.5, stderr=None, tolerance=1.0,
                     alpha=None, sample_size=5, passed=False)
        text = render_table([rep])
        assert "FAIL" in text
        skipped = Report(name="s", estimate=float("nan"), stderr=None,
                         tolerance=None, alpha=None, sample_size=0,
                         passed=True, skipped=True)
        assert "SKIP" in render_table([skipped])

    def test_derived_seed_stable(self):
        assert derived_seed(5, "x") == derived_seed(5, "x")
        assert derived_seed(5, "x") != derived_seed(5, "y")
        assert derived_seed(5, "x") != derived_seed(6, "x")


class TestBesselOracle:
    def test_moments(self):
        rng = stream(1, 4, 99)
        finals, hit = bessel_em_oracle(10.0, np.sqrt(5.0), 1.0, 1e-3, 4000, rng)
        assert hit.sum() == 0
        sq = finals**2
        se = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(sq.mean() - 15.0) <= 3 * se

    def test_low_dimension_hits(self):
        rng = stream(2, 4, 99)
        _, hit = bessel_em_oracle(1.2, 0.2, 1.0, 1e-3, 500, rng)
        assert hit.mean() > 0.3


@pytest.fixture(scope="module")
def radial_norms(b2):
    k = multiplicity(b2, 1.0)
    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=1500, seed=100)
    run = run_radial(b2, k, [2.0, 1.0], cfg, record=False)
    return np.linalg.norm(run.final_states, axis=1)


class TestNormBessel:

    def test_correct_dimension_passes(self, radial_norms):
        rep = norm_is_bessel(radial_norms, 10.0, np.sqrt(5.0), 1.0,
                             seed=4, dt_oracle=1e-3)
        assert rep.passed
        assert rep.details["mean_within_3se"]

    def test_off_by_one_fails(self, radial_norms):
        rep = norm_is_bessel(radial_norms, 9.0, np.sqrt(5.0), 1.0,
                             seed=4, dt_oracle=1e-3)
        assert not rep.passed


class TestMartingale:
    def test_bias_coefficient_is_small(self, b2):
        c = calibrate_bias_coefficient(b2, 1.0, 2000, 7)
        assert 0 < c < 10.0

    def test_radial_battery_passes(self, b2):
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=0.5, dt=1e-3, n_paths=600, seed=42)
        paths = run_radial(b2, k, [2.0, 1.0], cfg, record=True).trajectories
        spec = GeneratorSpec.radial(b2, k)
        for u in function_battery(2):
            rep = martingale_residual(lambda: paths, spec, u,
                                      bias_allowance=0.001)
            assert rep.passed, (u.name, rep.estimate, rep.tolerance)

    def test_mismatched_spec_fails(self, b2):
        k = multiplicity(b2, 1.0)
        plan = build_lift_plan(b2, k)
        cfg = SimulationConfig(horizon=0.5, dt=1e-3, n_paths=600, seed=43)
        paths = simulate_dunkl(plan, [2.0, 1.0], cfg).trajectories
        rep = martingale_residual(lambda: paths, GeneratorSpec.radial(b2, k),
                                  control_function(2), bias_allowance=0.001)
        assert not rep.passed

    def test_constant_function_zero_residual(self, b2):
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=0.2, dt=1e-3, n_paths=50, seed=44)
        paths = run_radial(b2, k, [2.0, 1.0], cfg, record=True).trajectories
        from dunkl_lab.calculus import TestFunction
        const = TestFunction(lambda x: np.full(x.shape[:-1], 2.0), name="const")
        rep = martingale_residual(lambda: paths, GeneratorSpec.radial(b2, k),
                                  const, bias_allowance=1e-9)
        assert abs(rep.estimate) <= 1e-8


class TestProjectionAgreement:
    def test_matched_passes_mismatched_fails(self, b2):
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=1500, seed=50)
        radial = run_radial(b2, k, [2.0, 1.0], cfg, record=False)
        plan = build_lift_plan(b2, k)
        cfg2 = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=1500, seed=51)
        full = simulate_dunkl(plan, [2.0, 1.0], cfg2)
        rep = projection_agreement(full.final_states, radial.final_states, b2)
        assert rep.passed

        k_wrong = multiplicity(b2, 1.5)
        cfg3 = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=1500, seed=52)
        wrong = run_radial(b2, k_wrong, [2.0, 1.0], cfg3, record=False)
        rep = projection_agreement(full.final_states, wrong.final_states, b2)
        assert not rep.passed


class TestFolding:
    def test_rectangles_inside_chamber(self, b2):
        pos_t = b2.positive_roots.T
        for rect in default_rectangles():
            (x_lo, x_hi), (y_lo, y_hi) = rect
            corners = np.array([[x, y] for x in (x_lo, x_hi)
                                for y in (y_lo, y_hi)])
            assert np.all(corners @ pos_t >= 0)

    def test_identity_holds_and_control_fails(self, b2):
        k = multiplicity(b2, 1.0)
        plan = build_lift_plan(b2, k)
        cfg = SimulationConfig(horizon=1.0, dt=2e-3, n_paths=3000, seed=60)
        rep = folding_identity(plan, 1, [2.0, 1.0], cfg)
        assert rep.passed
        ctrl = folding_identity(plan, 1, [2.0, 1.0], cfg,
                                drop_reflected_mass=True)
        assert not ctrl.passed

    def test_skip_when_not_disjoint(self, b2):
        k = multiplicity(b2, 1.0)
        plan = build_lift_plan(b2, k)
        rep = folding_identity(plan, 4, [2.0, 1.0],
                               SimulationConfig(horizon=0.1, dt=0.01,
                                                n_paths=10, seed=1))
        assert rep.skipped

    def test_zero_rate_lift_is_trivially_consistent(self, b2):
        k = multiplicity(b2, 1.0)
        plan = build_lift_plan(b2, k, rates=multiplicity(b2, 0.0))
        cfg = SimulationConfig(horizon=0.5, dt=2e-3, n_paths=1000, seed=61)
        rep = folding_identity(plan, 1, [2.0, 1.0], cfg)
        assert rep.passed


class TestModeEquivalence:
    def test_b2_first_stage(self, b2):
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=1.0, dt=2e-3, n_paths=1200, seed=70)
        rep = mode_equivalence(b2, k, [2.0, 1.0], 0, cfg)
        assert rep.passed
        assert len(rep.details["pvalues"]) == 3

    def test_zero_rate_equivalence(self, b2):
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=0.5, dt=2e-3, n_paths=500, seed=71)
        rep = mode_equivalence(b2, k, [2.0, 1.0], 0, cfg, rate=0.0)
        assert rep.passed


class TestCallerSettings:
    def test_simulations_keep_the_callers_wall_settings(self, b2, monkeypatch):
        """Checks that run their own lifts change only the seed of the
        caller's config: its wall policy, halving budget and wall epsilon
        reach ``simulate_dunkl`` unchanged."""
        received = []

        def recording(plan, x0, config, **kwargs):
            received.append(config)
            return simulate_dunkl(plan, x0, config, **kwargs)

        monkeypatch.setattr(verify, "simulate_dunkl", recording)
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=0.1, dt=0.01, n_paths=20, seed=5,
                               wall_policy="reject_halve", max_halvings=3,
                               eps_wall=1e-6)
        folding_identity(build_lift_plan(b2, k), 1, [2.0, 1.0], cfg)
        mode_equivalence(b2, k, [2.0, 1.0], 0, cfg)
        rotation_covariance_paths(b2, k, [2.0, 1.0], cfg)
        assert len(received) == 6
        assert len({c.seed for c in received}) == 6
        for got in received:
            assert dataclasses.replace(got, seed=cfg.seed) == cfg


class TestWallProfile:
    def test_profile_and_control(self):
        rep = wall_hitting_profile(600, 80)
        assert rep.passed
        fr = rep.details["hit_fractions"]
        assert fr == sorted(fr, reverse=True)
        ctrl = wall_hitting_profile(600, 80, mislabel_shift=5)
        assert not ctrl.passed


class TestRotation:
    def test_generator_identity_and_control(self, b2):
        k = multiplicity(b2, [0.75, 1.25])
        rep = rotation_covariance_generator(b2, k, trials=25, seed=90)
        assert rep.passed
        ctrl = rotation_covariance_generator(b2, k, trials=25, seed=90,
                                             wrong_transport=True)
        assert not ctrl.passed


class TestHarmonicityCheck:
    def test_reports(self, b2):
        k = multiplicity(b2, [0.75, 1.25])
        assert harmonicity_check(b2, k, which="delta", seed=1).passed
        assert harmonicity_check(b2, k, which="pi", tol=1e-6, seed=1).passed
        assert harmonicity_check(b2, 0.8, which="pi_power", tol=1e-6,
                                 seed=1).passed


class TestReproducibility:
    def test_reports_bitwise_reproducible(self, radial_norms):
        reps = [norm_is_bessel(radial_norms, 10.0, np.sqrt(5.0), 1.0,
                               seed=4, dt_oracle=1e-3) for _ in range(2)]
        a, b = (r.to_dict() for r in reps)
        a.pop("runtime"), b.pop("runtime")  # wall time is the one free field
        assert a == b
