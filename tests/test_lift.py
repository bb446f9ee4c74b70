import numpy as np
import pytest

from dunkl_lab import (
    InvalidArgumentError,
    InvalidPlanError,
    SimulationConfig,
    UnsupportedRegimeError,
    build_lift_plan,
    cumulative_time_change,
    fold_check_regions,
    multiplicity,
    simulate_dunkl,
)
from dunkl_lab import lift
from dunkl_lab.root_systems import project_batch


def small_cfg(n_paths=50, seed=3, horizon=0.5, dt=1e-3):
    return SimulationConfig(horizon=horizon, dt=dt, n_paths=n_paths, seed=seed)


class TestPlans:
    def test_auto_modes_b2(self, b2, k_one):
        plan = build_lift_plan(b2, k_one, mode="auto")
        assert plan.modes == ("shortcut",) * 4
        assert plan.rates == (1.0,) * 4
        assert plan.enumeration == (0, 1, 2, 3)

    def test_auto_modes_a2(self, a2):
        k = multiplicity(a2, 1.0)
        plan = build_lift_plan(a2, k, mode="auto")
        assert plan.modes[0] == "shortcut"
        assert plan.modes[1] == "general"
        assert plan.modes[2] == "shortcut"

    def test_shortcut_rejected_where_condition_fails(self, a2):
        k = multiplicity(a2, 1.0)
        with pytest.raises(InvalidPlanError):
            build_lift_plan(a2, k, mode="shortcut")

    def test_rates_from_k_prime(self, b2, k_one):
        kp = multiplicity(b2, [0.0, 2.5])
        plan = build_lift_plan(b2, k_one, rates=kp)
        assert plan.rates == (0.0, 0.0, 2.5, 2.5)

    def test_enumeration_must_be_permutation(self, b2, k_one):
        with pytest.raises(InvalidArgumentError):
            build_lift_plan(b2, k_one, enumeration=(0, 1))
        with pytest.raises(InvalidArgumentError):
            build_lift_plan(b2, k_one, enumeration=(0, 0, 1, 2))

    def test_plan_serialization(self, b2, k_one):
        plan = build_lift_plan(b2, k_one, mode="auto")
        doc = plan.to_dict()
        assert doc == {"enumeration": [0, 1, 2, 3],
                       "modes": ["shortcut"] * 4,
                       "rates": [1.0] * 4}


class TestFoldRegions:
    def test_b2_chamber_sequence(self, b2, k_one):
        plan = build_lift_plan(b2, k_one)
        fr = fold_check_regions(plan)
        sizes = [len(r.elements) for r in fr.regions]
        assert sizes[0] == 1
        assert sizes[-1] == len(b2.weyl_group)
        assert fr.covers_space
        assert fr.disjoint[0] is True

    def test_region_membership(self, b2, k_one):
        plan = build_lift_plan(b2, k_one)
        fr = fold_check_regions(plan)
        c0 = fr.regions[0]
        assert c0.contains(b2, np.array([[2.0, 1.0]]))[0]
        assert not c0.contains(b2, np.array([[1.0, 2.0]]))[0]
        # FULL region contains everything
        assert fr.regions[-1].contains(b2, np.array([[1.0, 2.0], [-3.0, 0.5]])).all()

    def test_a2_regions(self, a2):
        k = multiplicity(a2, 1.0)
        fr = fold_check_regions(build_lift_plan(a2, k))
        assert fr.covers_space
        assert len(fr.regions[-1].elements) == 6


class TestTimeChange:
    def test_constant_path(self, b2):
        states = np.tile([2.0, 1.0], (11, 1))
        times = np.linspace(0, 1, 11)
        alpha = np.array([1.0, -1.0])  # dot = 1 -> integrand 1
        a_t = cumulative_time_change(times, states, alpha)
        assert np.allclose(a_t, times)
        alpha2 = np.array([1.0, 1.0]) * (2.0 / 3.0)  # dot = 2 -> t/4
        a_t2 = cumulative_time_change(times, states, alpha2)
        assert np.allclose(a_t2, times / 4.0)

    def test_strictly_increasing_and_invertible(self, b2, k_one):
        cfg = small_cfg(n_paths=5)
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0], cfg, stages=0)
        for traj in run.trajectories:
            a_t = cumulative_time_change(traj.times, traj.states, b2.positive_roots[0])
            assert np.all(np.diff(a_t) > 0)
            back = np.interp(a_t, a_t, traj.times)
            assert np.allclose(back, traj.times)

    def test_growth_over_long_horizon(self, b2, k_one):
        cfg = SimulationConfig(horizon=4.0, dt=2e-3, n_paths=5, seed=9)
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0], cfg, stages=0)
        for traj in run.trajectories:
            a_t = cumulative_time_change(traj.times, traj.states, b2.positive_roots[0])
            mid = np.searchsorted(traj.times, 2.0)
            assert a_t[-1] > a_t[mid] > a_t[0]

    def test_batch_matches_single_paths(self, b2, k_one):
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0],
                             small_cfg(n_paths=7), stages=0)
        times = run.trajectories[0].times
        states = np.stack([t.states for t in run.trajectories])
        alpha = b2.positive_roots[2]
        batch = cumulative_time_change(times, states, alpha)
        assert batch.shape == states.shape[:2]
        for row, traj in zip(batch, run.trajectories):
            assert np.array_equal(row, cumulative_time_change(times, traj.states, alpha))


class TestSimulateDunkl:
    def test_preconditions(self, b2, k_one):
        cfg = small_cfg()
        plan = build_lift_plan(b2, k_one)
        with pytest.raises(InvalidArgumentError):
            simulate_dunkl(plan, [1.0, 1.0], cfg)  # on a wall
        low = multiplicity(b2, 0.3)
        with pytest.raises(UnsupportedRegimeError):
            simulate_dunkl(build_lift_plan(b2, low), [2.0, 1.0], cfg)

    def test_zero_rate_means_no_jumps(self, b2, k_one):
        kp = multiplicity(b2, 0.0)
        plan = build_lift_plan(b2, k_one, rates=kp)
        run = simulate_dunkl(plan, [2.0, 1.0], small_cfg())
        assert run.n_jumps.sum() == 0
        # and the paths coincide with the radial dynamics under the same seed
        base = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0],
                              small_cfg(), stages=0)
        for a, b in zip(run.trajectories, base.trajectories):
            assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("mode", ["auto", "general"])
    def test_jump_log_exactness(self, b2, k_one, mode):
        plan = build_lift_plan(b2, k_one, mode=mode)
        run = simulate_dunkl(plan, [2.0, 1.0], small_cfg(n_paths=200, horizon=1.0))
        total = 0
        for traj in run.trajectories:
            for ev in traj.events:
                alpha = b2.positive_roots[ev.root]
                expected = ev.pre - (ev.pre @ alpha) * alpha
                assert np.array_equal(ev.post, expected)
                disp = ev.post - ev.pre
                proj = (disp @ alpha) / 2.0 * alpha
                assert np.max(np.abs(disp - proj)) <= 1e-12 * max(
                    1.0, np.max(np.abs(disp)))
                total += 1
        assert total > 50

    @pytest.mark.parametrize("system_name, x0", [("b2", [2.0, 1.0]),
                                                 ("a2", [3.0, 2.0, 1.0])])
    def test_jump_log_accounts_for_chamber(self, request, system_name, x0):
        # With w the product of the reflections logged up to time t, w⁻¹
        # maps the grid state at t, and the pre-state of the next jump, into
        # the chamber of x0.  A missing, extra or misplaced flip breaks this.
        system = request.getfixturevalue(system_name)
        plan = build_lift_plan(system, multiplicity(system, 1.0), mode="auto")
        run = simulate_dunkl(plan, x0, small_cfg(n_paths=200, horizon=1.0))
        roots = system.positive_roots
        base = np.sign(roots @ np.asarray(x0))

        def outside(inv, states):
            y = np.atleast_2d(states) @ inv.T
            slack = 1e-9 * (1.0 + np.abs(y).max(axis=1))
            return int(np.sum(((y @ roots.T) * base).min(axis=1) <= -slack))

        bad = total = 0
        for traj in run.trajectories:
            ev_times = [ev.time for ev in traj.events]
            cuts = np.concatenate([[0], np.searchsorted(traj.times, ev_times),
                                   [len(traj.times)]])
            inv = np.eye(system.dimension)
            for i, ev in enumerate(traj.events):
                bad += outside(inv, traj.states[cuts[i]:cuts[i + 1]])
                bad += outside(inv, ev.pre)
                alpha = roots[ev.root]
                inv = inv - np.outer(inv @ alpha, alpha)
            bad += outside(inv, traj.states[cuts[-2]:])
            total += len(traj.events)
        assert total > 50
        assert bad == 0

    def test_no_jump_after_step_failure(self, b2, k_one):
        cfg = SimulationConfig(horizon=2.0, dt=0.05, n_paths=200, seed=5,
                               max_halvings=1)
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0], cfg)
        grid = cfg.time_grid()
        failed = [t for t in run.trajectories if t.termination == "step_failure"]
        assert failed
        for traj in failed:
            stop = len(traj.times) - 1
            assert stop < len(grid) - 1
            assert np.array_equal(traj.times, grid[:stop + 1])
            assert len(traj.states) == stop + 1
            assert all(ev.time <= traj.times[-1] for ev in traj.events)

    def test_events_sorted_and_within_horizon(self, b2, k_one):
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0],
                             small_cfg(n_paths=100, horizon=1.0))
        for traj in run.trajectories:
            times = [ev.time for ev in traj.events]
            assert times == sorted(times)
            assert all(0 <= t <= 1.0 for t in times)

    def test_projection_continuity_at_jumps(self, b2, k_one):
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0],
                             small_cfg(n_paths=150, horizon=1.0))
        pres, posts = [], []
        for traj in run.trajectories:
            for ev in traj.events:
                pres.append(ev.pre)
                posts.append(ev.post)
        assert pres
        proj_pre = project_batch(b2, np.array(pres))
        proj_post = project_batch(b2, np.array(posts))
        assert np.max(np.abs(proj_pre - proj_post)) <= 1e-9

    def test_stage_confinement(self, b2, k_one):
        plan = build_lift_plan(b2, k_one)
        run = simulate_dunkl(plan, [2.0, 1.0], small_cfg(n_paths=100, horizon=1.0),
                             keep_stage_paths=True)
        fr = fold_check_regions(plan)
        for stage, trajs in run.stage_trajectories.items():
            region = fr.regions[stage]
            for traj in trajs:
                assert region.contains(b2, traj.states).all()
                for ev in traj.events:
                    assert region.contains(b2, np.array([ev.post]))[0]

    def test_norm_preserved_through_stages(self, b2, k_one):
        # jumps are reflections, so |Y| over stages matches the radial norm
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0],
                             small_cfg(n_paths=30), keep_stage_paths=True)
        base = run.stage_trajectories[0]
        last = run.stage_trajectories[4]
        for a, b in zip(base, last):
            na = np.einsum("ij,ij->i", a.states, a.states)
            nb = np.einsum("ij,ij->i", b.states, b.states)
            assert np.max(np.abs(na - nb)) <= 1e-10 * np.max(na)

    def test_mixed_plan_on_a2(self, a2):
        k = multiplicity(a2, 1.0)
        plan = build_lift_plan(a2, k, mode="auto")
        run = simulate_dunkl(plan, [3.0, 2.0, 1.0], small_cfg(n_paths=80, horizon=1.0))
        assert run.n_jumps.sum() > 0
        for traj in run.trajectories:
            for ev in traj.events:
                alpha = a2.positive_roots[ev.root]
                assert np.array_equal(ev.post,
                                      ev.pre - (ev.pre @ alpha) * alpha)

    def test_partial_stages(self, b2, k_one):
        plan = build_lift_plan(b2, k_one)
        run = simulate_dunkl(plan, [2.0, 1.0], small_cfg(n_paths=60, horizon=1.0),
                             stages=1)
        roots_seen = {ev.root for t in run.trajectories for ev in t.events}
        assert roots_seen <= {0}

    def test_deterministic_replay(self, b2, k_one):
        plan = build_lift_plan(b2, k_one)
        r1 = simulate_dunkl(plan, [2.0, 1.0], small_cfg(n_paths=20))
        r2 = simulate_dunkl(plan, [2.0, 1.0], small_cfg(n_paths=20))
        for a, b in zip(r1.trajectories, r2.trajectories):
            assert np.array_equal(a.states, b.states)
            assert len(a.events) == len(b.events)

    def test_start_in_any_chamber(self, b2, k_one):
        plan = build_lift_plan(b2, k_one)
        run = simulate_dunkl(plan, [-2.0, 1.0], small_cfg(n_paths=20))
        assert run.final_states.shape == (20, 2)


class TestChunking:
    # A flip stage works on blocks of CLOCK_BLOCK grid points; on this case's
    # 11-point grid, 1 and 3 paths per block.
    @pytest.mark.parametrize("clock_block", [1, 33])
    def test_flip_stages_do_not_depend_on_blocks(self, monkeypatch, clock_block):
        from test_contract import STAGE_CONTRACT, _digest, _stage_digest

        simulate, expected = STAGE_CONTRACT["b2_general_then_flips"]
        monkeypatch.setattr(lift, "CLOCK_BLOCK", clock_block)
        run = simulate(keep_stage_paths=True)
        assert _digest(run) == expected[:3]
        assert _stage_digest(run) == expected[4]


class TestLawInvariants:
    def test_lift_norm_moment(self, b2, k_one):
        # the jump reconstruction leaves |Y| a Bessel process: E|Y_T|² matches
        cfg = SimulationConfig(horizon=1.0, dt=2e-3, n_paths=3000, seed=77)
        run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0], cfg)
        sq = np.einsum("ij,ij->i", run.final_states, run.final_states)
        se = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(sq.mean() - 15.0) <= 3 * se

    def test_law_agrees_across_enumerations(self, b2, k_one):
        from scipy import stats as sps

        from dunkl_lab.root_systems import project_batch

        base = build_lift_plan(b2, k_one, enumeration=(0, 1, 2, 3))
        other = build_lift_plan(b2, k_one, enumeration=(3, 2, 1, 0))
        assert other.modes == ("shortcut",) * 4
        cfg_a = SimulationConfig(horizon=1.0, dt=2e-3, n_paths=2500, seed=88)
        cfg_b = SimulationConfig(horizon=1.0, dt=2e-3, n_paths=2500, seed=89)
        run_a = simulate_dunkl(base, [2.0, 1.0], cfg_a)
        run_b = simulate_dunkl(other, [2.0, 1.0], cfg_b)
        na = np.linalg.norm(run_a.final_states, axis=1)
        nb = np.linalg.norm(run_b.final_states, axis=1)
        assert sps.ks_2samp(na, nb).pvalue >= 0.01 / 3
        pa = project_batch(b2, run_a.final_states)
        pb = project_batch(b2, run_b.final_states)
        for i in range(2):
            assert sps.ks_2samp(pa[:, i], pb[:, i]).pvalue >= 0.01 / 3


class TestComposition:
    def test_one_stage_pipeline(self, b2, k_one):
        plan = build_lift_plan(b2, k_one, enumeration=(0, 1, 2, 3),
                               mode=("shortcut",) + ("general",) * 3)
        run = simulate_dunkl(plan, [2.0, 1.0], small_cfg(n_paths=50, horizon=1.0),
                             stages=1)
        roots_seen = {ev.root for t in run.trajectories for ev in t.events}
        assert roots_seen <= {0}

    def test_shortcut_requires_condition(self, a2):
        k = multiplicity(a2, 1.0)
        with pytest.raises(InvalidPlanError):
            build_lift_plan(a2, k, enumeration=(0, 1, 2),
                            mode=("shortcut", "shortcut", "general"))
        # general mode is always available
        build_lift_plan(a2, k, enumeration=(0, 1, 2),
                        mode=("shortcut", "general", "general"))

    def test_double_lift_rejected(self, b2, k_one):
        with pytest.raises(InvalidArgumentError):
            build_lift_plan(b2, k_one, enumeration=(0, 0, 2, 3),
                            mode=("shortcut",) + ("general",) * 3)
