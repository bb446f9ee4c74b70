import dataclasses
import json
import tracemalloc
import types

import numpy as np
import pytest

from dunkl_lab import (InvalidArgumentError, SimulationConfig, SingularClockError, Trajectory,
                       build_lift_plan, build_type_b, multiplicity, run_radial)
from dunkl_lab.calculus import (GeneratorSpec, _coordinate_sum, apply_generator,
                                generator_terms, sample_interior_points)
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
    render_table,
    reports_to_json,
    function_battery,
    wall_hitting_profile,
)
from dunkl_lab.rng import CHECK, keys, stream
from dunkl_lab.root_systems import chamber_labels
from helpers import _fd_scheme, with_differences


class TestReportPlumbing:
    def test_json_round_trip(self):
        rep = Report(name="x", estimate=1.0, stderr=0.1, tolerance=0.3,
                     alpha=None, sample_size=10, passed=True,
                     details={"arr": np.arange(3), "np": np.float64(2.5)})
        text = reports_to_json([rep])
        back = json.loads(text)
        assert back[0]["details"]["arr"] == [0, 1, 2]
        assert back[0]["passed"] is True

    def test_json_is_strict_for_non_finite_numbers(self):
        # a skipped check reads NaN; strict parsers refuse a bare NaN token
        skipped = Report(name="label-law", estimate=float("nan"), stderr=None,
                         tolerance=None, alpha=None, sample_size=0, passed=True,
                         skipped=True, details={"z": np.array([1.0, np.inf]),
                                                "p": np.float64(-np.inf)})

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        back = json.loads(reports_to_json([skipped]), parse_constant=refuse)
        assert back[0]["estimate"] is None and back[0]["skipped"] is True
        assert back[0]["details"] == {"z": [1.0, None], "p": None}

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

    def test_suite_control_is_rejected_on_b4(self):
        """``run_suite``'s radial run on B4 at 400 paths: at n + 2γ = 36 its
        control moves the dimension by 4 and is rejected, where off by one
        was not (p = 0.208).  On B2 (n + 2γ = 10) it stays off by one."""
        b4 = build_type_b(4)
        k = multiplicity(b4, 1.0)
        x0 = np.array([4.0, 3.0, 2.0, 1.0])
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=400,
                               seed=derived_seed(1, "radial"))
        norms = np.linalg.norm(run_radial(b4, k, x0, cfg, record=False).final_states, axis=1)
        dim, start = 4 + 2.0 * k.gamma, float(np.linalg.norm(x0))
        offset = verify._norm_control_offset(dim)
        assert (dim, offset, verify._norm_control_offset(10.0)) == (36.0, 4, 1)
        assert norm_is_bessel(norms, dim, start, 1.0).passed
        assert norm_is_bessel(norms, dim - 1, start, 1.0).passed
        assert not norm_is_bessel(norms, dim - offset, start, 1.0).passed

    def test_seed_is_unused(self):
        reps = [norm_is_bessel(exact_norms(10.0, np.sqrt(5.0), 1.0), 10.0,
                               np.sqrt(5.0), 1.0, seed=s) for s in (0, 7)]
        a, b = (r.to_dict() for r in reps)
        a.pop("runtime"), b.pop("runtime")
        assert a == b

    @pytest.mark.parametrize("n", [400, 2000, 10000])
    def test_agrees_with_kstest(self, n):
        """The statistic is kstest's bit for bit; the doubled one-sided tail
        is at least kstest's two-sided p-value, within 1e-4 of it below 0.05,
        and gives the same verdict; on exact samples (dim 10) and on shifted
        dimensions.

        kstest's p-value at n > 140 and n·D² < 2.2 comes from the Pelz–Good
        series, which overshoots the exact (Durbin matrix) value by about
        1e-6 relative, so "at least" is checked to within 1e-5.
        """
        from scipy import stats as sps

        start, horizon = np.sqrt(5.0), 1.0
        norms = exact_norms(10.0, start, horizon, n)
        for dim in (10.0, 9.8, 10.2, 9.0, 11.0):
            rep = norm_is_bessel(norms, dim, start, horizon)
            ref = sps.kstest(norms**2 / horizon, sps.ncx2(df=dim, nc=start**2 / horizon).cdf)
            exact = float(ref.pvalue)
            assert rep.details["ks_statistic"] == float(ref.statistic)
            assert rep.estimate >= exact * (1.0 - 1e-5)
            if exact < 0.05:
                assert rep.estimate <= exact * (1.0 + 1e-4)
            assert rep.passed == (exact >= 0.01)


class TestMartingale:
    def test_an_unrecorded_run_is_refused(self, b2, k_one):
        cfg = SimulationConfig(horizon=0.1, dt=1e-2, n_paths=5, seed=1)
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0], cfg)
        unrecorded = run_radial(b2, k_one, [2.0, 1.0], cfg, record=False)
        with pytest.raises(InvalidArgumentError, match="record=True"):
            martingale_residual(lambda: unrecorded.trajectories,
                                GeneratorSpec.radial(b2, k_one), function_battery(2)[0])
        with pytest.raises(InvalidArgumentError, match="record=True"):
            label_law(unrecorded, build_lift_plan(b2, k_one))
        assert label_law(run, build_lift_plan(b2, k_one)).sample_size == 5

    def test_no_paths_are_refused(self, b2, k_one):
        # max() over no paths raised a bare ValueError
        with pytest.raises(InvalidArgumentError, match="no recorded paths"):
            martingale_residual(lambda: [], GeneratorSpec.radial(b2, k_one),
                                function_battery(2)[0])

    def test_bias_coefficient_is_small(self, b2):
        c = calibrate_bias_coefficient(b2, 1.0, 2000, 7)
        assert 0 < c < 10.0

    @pytest.mark.parametrize("n_paths", [1, 0, -3, True, 2.0, 2000.5])
    def test_bias_coefficient_needs_two_paths(self, b2, n_paths):
        # one path has no standard error: max(c, nan) kept c = 0, a zero allowance
        with pytest.raises(InvalidArgumentError, match="at least 2"):
            calibrate_bias_coefficient(b2, 1.0, n_paths, 7)

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

    @pytest.mark.parametrize("system, spec_kind", [
        pytest.param(system, kind, id=kind if system == "b2" else f"{system}-{kind}")
        for system in ("b2", "b3") for kind in ("radial", "full", "two-param")])
    def test_blocks_change_no_bit(self, system, spec_kind, request):
        # 997 steps, uneven: path counts around and between generator blocks;
        # rank 3 puts a third term in every coordinate sum and product
        system = request.getfixturevalue(system)
        n = system.dimension
        k = multiplicity(system, 1.0)
        spec = {"radial": GeneratorSpec.radial(system, k),
                "full": GeneratorSpec.full(system, k),
                "two-param": GeneratorSpec.full(
                    system, k, jump_k=multiplicity(system, [0.25, 2.0]))}[spec_kind]
        steps = 997
        block = verify._RESIDUAL_POINTS // steps
        assert block > 2
        rng = np.random.default_rng(46)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(5e-4, 1.5e-3, steps))])
        for n_paths in (1, block - 1, block + 1, 3 * block + 5):
            # x₁ > … > x_n > 0: B2's points as before, B3 puts 5 + U in front
            states = np.stack([2.0 * (n - i) - 1.0 + (0.5 if i else 1.0)
                               * rng.random((n_paths, steps + 1)) for i in range(n)], axis=-1)
            for u in function_battery(n) + [control_function(n)]:
                au = apply_generator(spec, u, states[:, :-1, :])
                one_shot = (u(states[:, -1, :]) - u(states[:, 0, :])
                            - au @ np.diff(times))
                for paths in (states, [s.copy() for s in states]):
                    got = verify._path_residuals(paths, times, spec, u)
                    assert got.tobytes() == one_shot.tobytes(), (n_paths, u.name)

    @staticmethod
    def _residual_peak(b2):
        """tracemalloc peak of one residual over 1,000 recorded paths of
        1,000 steps, and the bytes of the run's states."""
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=1000, seed=45)
        run = run_radial(b2, k, [2.0, 1.0], cfg, record=True)
        paths = run.trajectories
        tracemalloc.start()
        try:
            martingale_residual(lambda: paths, GeneratorSpec.radial(b2, k),
                                function_battery(2)[0])
            return tracemalloc.get_traced_memory()[1], run.states.nbytes
        finally:
            tracemalloc.stop()

    def test_memory_stays_bounded(self, b2):
        # the stacked states take 16 MB, and the generator's temporaries over
        # all 10⁶ points at once ~200 MB
        assert self._residual_peak(b2)[0] <= 64e6

    def test_residual_makes_no_whole_run_copy(self, b2):
        # one stacked copy of the states is 16.0 MB; each block is copied alone
        peak, states_bytes = self._residual_peak(b2)
        assert states_bytes == 16_016_000
        assert peak < states_bytes

    def test_constant_function_zero_residual(self, b2):
        k = multiplicity(b2, 1.0)
        cfg = SimulationConfig(horizon=0.2, dt=1e-3, n_paths=50, seed=44)
        paths = run_radial(b2, k, [2.0, 1.0], cfg, record=True).trajectories
        const = with_differences(lambda x: np.full(x.shape[:-1], 2.0), name="const")
        rep = martingale_residual(lambda: paths, GeneratorSpec.radial(b2, k),
                                  const, bias_allowance=1e-9)
        assert abs(rep.estimate) <= 1e-8


def _matches_differences(u, pts):
    """u's closed-form gradient and Laplacian agree with Richardson differences."""
    grad, second = _fd_scheme(u, pts)
    closed_grad, closed_lap = u.derivatives(pts)
    return (np.allclose(closed_grad, grad, rtol=1e-8, atol=1e-8)
            and np.allclose(closed_lap, _coordinate_sum(second),
                            rtol=1e-8, atol=1e-8))


class TestClosedForms:
    @pytest.mark.parametrize("system", ["rank1", "b2", "b3"])
    def test_battery_matches_differences(self, system, request, rng):
        system = request.getfixturevalue(system)
        n = system.dimension
        pts = sample_interior_points(system, 50, rng)
        for u in function_battery(n) + [control_function(n)]:
            assert _matches_differences(u, pts), u.name
            grad, lap = u.derivatives(pts[0])
            assert grad.shape == (n,) and np.shape(lap) == ()

    def test_laplacian_off_by_a_constant_fails(self, b2, rng):
        pts = sample_interior_points(b2, 50, rng)
        for u in function_battery(2) + [control_function(2)]:
            def off_by_a_constant(x, derivatives=u.derivatives):
                grad, lap = derivatives(x)
                return grad, lap + 1e-6

            off = dataclasses.replace(u, derivatives=off_by_a_constant)
            assert not _matches_differences(off, pts), u.name

    @pytest.mark.parametrize("full", [False, True], ids=["radial", "full"])
    def test_generator_evaluates_no_stencil(self, b2, k_one, rng, full):
        spec = (GeneratorSpec.full if full else GeneratorSpec.radial)(b2, k_one)
        pts = sample_interior_points(b2, 6, rng).reshape(2, 3, 2)
        for u in function_battery(2) + [control_function(2)]:
            calls, closed = [], []
            counted = dataclasses.replace(
                u, fn=lambda x, fn=u.fn: calls.append(x.shape) or fn(x),
                derivatives=lambda x, d=u.derivatives: closed.append(x.shape) or d(x))
            generator_terms(spec, counted, pts)
            assert len(calls) == (1 + len(spec.active) if full else 0), u.name
            assert closed == [pts.shape], u.name


def _run_of(paths):
    """A recorded run of ``paths`` as the arrays ``label_law`` reads: its
    grid, states, stop indices and termination labels."""
    return types.SimpleNamespace(times=paths[0].times,
                                 states=np.stack([p.states for p in paths]),
                                 stop_index=np.array([len(p.times) - 1 for p in paths]),
                                 termination=np.array([p.termination for p in paths]))


class TestLabelLaw:
    def test_rank_one_closed_form(self, rank1):
        """On one fixed path the law's probability of the start label is the
        flip parity (1 + e^{−2cΣh/(d₀d₁)})/2, with d = α·x on the grid."""
        times = np.linspace(0.0, 1.0, 51)
        x = 1.0 + 0.5 * np.sin(7.0 * times)
        path = Trajectory(path_id=0, times=times, states=x[:, None])
        run = _run_of([path])
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

    @pytest.mark.parametrize("stages", [3.7, True])
    def test_stages_must_be_an_integer(self, b2, k_one, stages):
        plan = build_lift_plan(b2, k_one)
        cfg = SimulationConfig(horizon=0.1, dt=1e-2, n_paths=5, seed=1)
        with pytest.raises(InvalidArgumentError, match="stages"):
            label_law(simulate_dunkl(plan, [2.0, 1.0], cfg), plan, stages=stages)

    def test_rare_label_reads_its_poisson_tail(self, rank1):
        # Ten fixed paths far from the wall: the flipped label's expected
        # count is about 0.0056.  One path in it is no surprise at level
        # 0.01/4 (P ≈ 0.0056), though z = 1/√expected ≈ 13; two paths are.
        times = np.linspace(0.0, 1.0, 11)
        far = np.full((11, 1), 30.0)
        flipped = far.copy()
        flipped[-1] = -30.0
        plan = build_lift_plan(rank1, multiplicity(rank1, 1.0))

        def rep(n_flipped):
            paths = [Trajectory(path_id=i, times=times, states=flipped if i < n_flipped else far)
                     for i in range(10)]
            return label_law(_run_of(paths), plan)

        one, two = rep(1), rep(2)
        assert one.details["expected"][1] == pytest.approx(0.0056, rel=0.01)
        assert one.passed and 2.4 < one.estimate < 2.7
        assert not two.passed

    def test_normal_quantiles_match_scipy_stats(self, rank1, b3):
        """The bound and the Poisson scores equal their ``norm.isf`` forms bit for bit."""
        from scipy import special
        from scipy import stats as sps

        times = np.linspace(0.0, 1.0, 11)
        for system, x0 in ((rank1, 1.0), (b3, (3.0, 2.0, 1.0))):
            path = Trajectory(path_id=0, times=times,
                              states=np.tile(np.asarray(x0, dtype=float), (11, 1)))
            rep = label_law(_run_of([path]),
                            build_lift_plan(system, multiplicity(system, 1.0)))
            bound = sps.norm.isf(0.01 / (2 * len(system.weyl_group)))
            assert rep.tolerance == float(bound)
        count = np.arange(12)[:, None]
        mean = np.array([1e-3, 0.03, 0.7, 3.0, 9.5])
        upper = np.where(count > 0, special.pdtrc(np.maximum(count - 1, 0), mean), 1.0)
        score = np.maximum(sps.norm.isf(np.minimum(upper, special.pdtr(count, mean))), 0.0)
        z = np.where(upper < special.pdtr(count, mean), score, -score)
        assert verify._poisson_z(count, mean).tobytes() == z.tobytes()

    @pytest.mark.parametrize("seed", [5, 6, 8])
    def test_b3_rare_labels_pass(self, b3, seed):
        # General mode on B3 at prefix 4: under z = (count − expected)/sd,
        # one path in a label of expected count about 0.02 failed these seeds.
        plan = build_lift_plan(b3, multiplicity(b3, 1.0), mode="general")
        cfg = SimulationConfig(horizon=0.5, dt=1e-3, n_paths=2000, seed=seed)
        run = simulate_dunkl(plan, [3.0, 2.0, 1.0], cfg, stages=4)
        rep = label_law(run, plan, stages=4)
        assert rep.passed, rep.estimate

    def test_dropped_paths_are_left_out(self, rank1):
        # one path of 21 stopped early: the law reads the other 20 rows of the states
        times = np.linspace(0.0, 1.0, 11)
        paths = [Trajectory(path_id=i, times=times, states=np.full((11, 1), 1.0 + 0.1 * i),
                            termination="step_failure" if i == 3 else "horizon")
                 for i in range(21)]
        plan = build_lift_plan(rank1, multiplicity(rank1, 1.0))
        rep = label_law(_run_of(paths), plan)
        kept = label_law(_run_of(paths[:3] + paths[4:]), plan)
        assert (rep.sample_size, rep.details["dropped_paths"]) == (20, 1)
        assert rep.details["expected"].tobytes() == kept.details["expected"].tobytes()

    def test_path_on_a_wall_is_refused(self, rank1):
        times = np.linspace(0.0, 1.0, 3)
        path = Trajectory(path_id=0, times=times, states=np.array([[1.0], [0.0], [1.0]]))
        with pytest.raises(SingularClockError):
            label_law(_run_of([path]),
                      build_lift_plan(rank1, multiplicity(rank1, 1.0)))


class TestWallProfile:
    def test_profile_and_control(self):
        rep = wall_hitting_profile(600, 80)
        assert rep.passed
        fr = rep.details["hit_fractions"]
        assert fr == sorted(fr, reverse=True)
        ctrl = wall_hitting_profile(600, 80, mislabel_shift=5)
        assert not ctrl.passed


class TestHarmonicityCheck:
    def test_reports(self, b2):
        k = multiplicity(b2, [0.75, 1.25])
        assert harmonicity_check(b2, k, which="delta", seed=1).passed
        assert harmonicity_check(b2, k, which="pi", tol=1e-6, seed=1).passed
        assert harmonicity_check(b2, 0.8, which="pi_power", tol=1e-6,
                                 seed=1).passed

    @pytest.mark.parametrize("n_points", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_n_points_must_be_a_count(self, b2, k_one, n_points):
        # 2.5 and True raised a bare TypeError inside the point sampler
        with pytest.raises(InvalidArgumentError, match="n_points"):
            harmonicity_check(b2, k_one, n_points=n_points)


class TestReproducibility:
    def test_reports_bitwise_reproducible(self, radial_norms):
        reps = [norm_is_bessel(radial_norms, 10.0, np.sqrt(5.0), 1.0, seed=4)
                for _ in range(2)]
        a, b = (r.to_dict() for r in reps)
        a.pop("runtime"), b.pop("runtime")  # wall time is the one free field
        assert a == b
