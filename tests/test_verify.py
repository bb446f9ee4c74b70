import dataclasses
import json
import tracemalloc
import types

import numpy as np
import pytest

from dunkl_lab import (SimulationConfig, SingularClockError, Trajectory, build_lift_plan,
                       multiplicity, run_radial)
from dunkl_lab.calculus import GeneratorSpec, apply_generator
from dunkl_lab import verify
from dunkl_lab.lift import simulate_dunkl
from dunkl_lab.verify import (
    Report,
    bessel_em_oracle,
    calibrate_bias_coefficient,
    control_function,
    derived_seed,
    harmonicity_check,
    label_law,
    martingale_residual,
    norm_is_bessel,
    projection_agreement,
    render_table,
    reports_to_json,
    rotation_covariance_generator,
    rotation_covariance_paths,
    function_battery,
    wall_hitting_profile,
)
from dunkl_lab.rng import CHECK, keys, stream
from dunkl_lab.root_systems import chamber_labels


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
        rng = stream(keys(1, 4, 99))
        finals, hit = bessel_em_oracle(10.0, np.sqrt(5.0), 1.0, 1e-3, 4000, rng)
        assert hit.sum() == 0
        sq = finals**2
        se = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(sq.mean() - 15.0) <= 3 * se

    def test_low_dimension_hits(self):
        rng = stream(keys(2, 4, 99))
        _, hit = bessel_em_oracle(1.2, 0.2, 1.0, 1e-3, 500, rng)
        assert hit.mean() > 0.3

    @pytest.mark.parametrize("dim, x0", [(10.0, np.sqrt(5.0)), (1.2, 0.2)],
                             ids=["no-absorption", "absorption"])
    def test_matches_the_indexed_loop(self, dim, x0):
        # the oracle with a gather and a scatter of the alive paths per step
        def indexed(n_paths, rng, dt=1e-3, absorb_eps=1e-8):
            x = np.full(n_paths, float(x0))
            alive = np.ones(n_paths, dtype=bool)
            coef = 0.5 * (dim - 1.0)
            for _ in range(int(round(1.0 / dt))):
                idx = np.nonzero(alive)[0]
                if not len(idx):
                    break
                xi = rng.standard_normal(len(idx))
                prop = x[idx] + coef / x[idx] * dt + np.sqrt(dt) * xi
                hit = prop <= absorb_eps
                x[idx[~hit]] = prop[~hit]
                if hit.any():
                    x[idx[hit]] = np.maximum(prop[hit], 0.0)
                    alive[idx[hit]] = False
            return x, ~alive

        rng, ref_rng = stream(keys(3, 4, 99)), stream(keys(3, 4, 99))
        finals, hit = bessel_em_oracle(dim, x0, 1.0, 1e-3, 500, rng)
        ref_finals, ref_hit = indexed(500, ref_rng)
        assert finals.tobytes() == ref_finals.tobytes()
        assert np.array_equal(hit, ref_hit)
        assert rng.standard_normal() == ref_rng.standard_normal()
        assert (0 < hit.sum() < 500) if dim < 2 else not hit.any()


@pytest.fixture(scope="module")
def radial_norms(b2):
    k = multiplicity(b2, 1.0)
    cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=1500, seed=100)
    run = run_radial(b2, k, [2.0, 1.0], cfg, record=False)
    return np.linalg.norm(run.final_states, axis=1)


# (dim, ‖x₀‖, T): rank one at k = 0.3, B2 at k ≡ 1, B4 at k ≡ 1
EXACT_NORM_CASES = [(1.6, 0.5, 1.0), (10.0, np.sqrt(5.0), 1.0),
                    (36.0, np.sqrt(30.0), 0.2)]


def exact_norms(dim, start, horizon, n=2000):
    """‖X_T‖ drawn from its exact law, √(T·ncx2(dim, ‖x₀‖²/T))."""
    rng = stream(keys(1, CHECK, 20))
    return np.sqrt(horizon * rng.noncentral_chisquare(dim, start**2 / horizon, n))


class TestNormBessel:

    def test_correct_dimension_passes(self, radial_norms):
        rep = norm_is_bessel(radial_norms, 10.0, np.sqrt(5.0), 1.0, seed=4)
        assert rep.passed
        assert rep.details["mean_within_3se"]

    def test_off_by_one_fails(self, radial_norms):
        rep = norm_is_bessel(radial_norms, 9.0, np.sqrt(5.0), 1.0, seed=4)
        assert not rep.passed

    @pytest.mark.parametrize("dim, start, horizon", EXACT_NORM_CASES,
                             ids=["rank-one", "B2", "dim-36"])
    def test_exact_samples_pass_and_shifted_dimension_fails(self, dim, start, horizon):
        norms = exact_norms(dim, start, horizon)
        rep = norm_is_bessel(norms, dim, start, horizon)
        assert rep.passed
        assert rep.details["mean_within_3se"]
        assert rep.details["dim"] == dim
        assert rep.details["noncentrality"] == start**2 / horizon
        shift = max(1.0, dim / 10)
        for wrong in (dim - shift, dim + shift):
            assert not norm_is_bessel(norms, wrong, start, horizon).passed

    def test_seed_is_unused(self):
        reps = [norm_is_bessel(exact_norms(10.0, np.sqrt(5.0), 1.0), 10.0,
                               np.sqrt(5.0), 1.0, seed=s) for s in (0, 7)]
        a, b = (r.to_dict() for r in reps)
        a.pop("runtime"), b.pop("runtime")
        assert a == b


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

    @pytest.mark.parametrize("spec_kind", ["radial", "full", "two-param"])
    def test_blocks_change_no_bit(self, b2, spec_kind):
        # 997 steps, uneven: path counts around and between generator blocks
        k = multiplicity(b2, 1.0)
        spec = {"radial": GeneratorSpec.radial(b2, k),
                "full": GeneratorSpec.full(b2, k),
                "two-param": GeneratorSpec.full(
                    b2, k, jump_k=multiplicity(b2, [0.25, 2.0]))}[spec_kind]
        steps = 997
        block = verify._RESIDUAL_POINTS // steps
        assert block > 2
        rng = np.random.default_rng(46)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(5e-4, 1.5e-3, steps))])
        for n_paths in (1, block - 1, block + 1, 3 * block + 5):
            states = np.stack([3.0 + rng.random((n_paths, steps + 1)),
                               1.0 + 0.5 * rng.random((n_paths, steps + 1))], axis=-1)
            for u in function_battery(2) + [control_function(2)]:
                au = apply_generator(spec, u, states[:, :-1, :])
                one_shot = (u(states[:, -1, :]) - u(states[:, 0, :])
                            - au @ np.diff(times))
                got = verify._path_residuals(states, times, spec, u)
                assert got.tobytes() == one_shot.tobytes(), (n_paths, u.name)

    def test_memory_stays_bounded(self, b2):
        # 1,000 recorded paths of 1,000 steps: the stacked states take 16 MB,
        # and the generator's temporaries over all 10⁶ points at once ~200 MB
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=1000, seed=45)
        paths = run_radial(b2, k, [2.0, 1.0], cfg, record=True).trajectories
        tracemalloc.start()
        try:
            martingale_residual(lambda: paths, GeneratorSpec.radial(b2, k),
                                function_battery(2)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

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


class TestLabelLaw:
    def test_rank_one_closed_form(self, rank1):
        """On one fixed path the law's probability of the start label is the
        flip parity (1 + e^{−2cΣh/(d₀d₁)})/2, with d = α·x on the grid."""
        times = np.linspace(0.0, 1.0, 51)
        x = 1.0 + 0.5 * np.sin(7.0 * times)
        path = Trajectory(path_id=0, times=times, states=x[:, None])
        run = types.SimpleNamespace(trajectories=[path])
        k = multiplicity(rank1, 1.3)
        d = np.sqrt(2.0) * x
        exact = 0.5 * (1.0 + np.exp(-2.6 * np.sum(np.diff(times) / (d[:-1] * d[1:]))))
        rep = label_law(run, build_lift_plan(rank1, k))
        assert abs(rep.details["expected"][0] - exact) <= 1e-12
        assert abs(rep.details["expected"][1] - (1.0 - exact)) <= 1e-12

    def test_zero_rates_give_a_point_mass(self, b2, k_one):
        # from a start outside C, the mass sits on the start's label
        plan = build_lift_plan(b2, k_one, rates=multiplicity(b2, 0.0))
        cfg = SimulationConfig(horizon=0.5, dt=1e-2, n_paths=100, seed=61)
        rep = label_law(simulate_dunkl(plan, [-1.0, 2.0], cfg), plan)
        assert rep.passed and rep.estimate == 0.0
        start = int(chamber_labels(b2, [-1.0, 2.0]))
        assert start != 0
        assert rep.details["expected"].tolist() == [100.0 * (w == start) for w in range(8)]
        assert rep.details["observed"].tolist() == [100 * (w == start) for w in range(8)]

    @pytest.mark.parametrize("mode", ["auto", "general"])
    def test_b2_passes_and_half_rates_fail(self, b2, k_one, mode):
        plan = build_lift_plan(b2, k_one, mode=mode)
        cfg = SimulationConfig(horizon=1.0, dt=2e-3, n_paths=600, seed=70)
        run = simulate_dunkl(plan, [2.0, 1.0], cfg)
        rep = label_law(run, plan)
        assert rep.passed, rep.details["z"]
        assert rep.tolerance == pytest.approx(3.227, abs=1e-3)
        half = build_lift_plan(b2, k_one, rates=multiplicity(b2, 0.5), mode=mode)
        assert not label_law(run, half).passed

    def test_rates_follow_the_enumeration(self, b2, k_one):
        # only the long roots jump, and they are the last two stages
        plan = build_lift_plan(b2, k_one, rates=multiplicity(b2, [1.0, 0.0]),
                               enumeration=(3, 2, 1, 0))
        cfg = SimulationConfig(horizon=0.5, dt=1e-2, n_paths=300, seed=73)
        rep = label_law(simulate_dunkl(plan, [2.0, 1.0], cfg), plan)
        assert rep.passed, rep.details["z"]

    def test_missing_stage_is_infinitely_unlikely(self, b2, k_one):
        plan = build_lift_plan(b2, k_one)
        cfg = SimulationConfig(horizon=0.5, dt=1e-2, n_paths=200, seed=72)
        run = simulate_dunkl(plan, [2.0, 1.0], cfg, stages=1)
        assert label_law(run, plan, stages=1).passed
        rep = label_law(run, plan, stages=0)
        assert not rep.passed and rep.estimate == np.inf

    def test_path_on_a_wall_is_refused(self, rank1):
        times = np.linspace(0.0, 1.0, 3)
        path = Trajectory(path_id=0, times=times, states=np.array([[1.0], [0.0], [1.0]]))
        with pytest.raises(SingularClockError):
            label_law(types.SimpleNamespace(trajectories=[path]),
                      build_lift_plan(rank1, multiplicity(rank1, 1.0)))


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
        rotation_covariance_paths(b2, k, [2.0, 1.0], cfg)
        assert len(received) == 2
        assert len({c.seed for c in received}) == 2
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
        reps = [norm_is_bessel(radial_norms, 10.0, np.sqrt(5.0), 1.0, seed=4)
                for _ in range(2)]
        a, b = (r.to_dict() for r in reps)
        a.pop("runtime"), b.pop("runtime")  # wall time is the one free field
        assert a == b
