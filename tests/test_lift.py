import dataclasses
import tracemalloc

import numpy as np
import pytest

from scipy import stats as sps

from dunkl_lab import (
    InvalidArgumentError,
    InvalidPlanError,
    SimulationConfig,
    SingularClockError,
    UnsupportedRegimeError,
    build_lift_plan,
    build_type_a,
    build_type_b,
    cumulative_time_change,
    multiplicity,
    run_radial,
    simulate_dunkl,
)
from dunkl_lab import _engine, lift
from dunkl_lab.root_systems import chamber_labels, project_batch, reflect
from dunkl_lab.verify import label_law


def reachable_labels(system, plan, x0, stages):
    """Labels of the chambers g·w₀(C), for g in the group generated by the
    plan's first ``stages`` reflections and w₀ the label of ``x0``."""
    x0 = np.asarray(x0, dtype=float)
    found = {int(chamber_labels(system, x0)): x0}
    frontier = [x0]
    while frontier:
        y = frontier.pop()
        for position in plan.enumeration[:stages]:
            image = reflect(system.positive_roots[position], y)
            label = int(chamber_labels(system, image))
            if label not in found:
                found[label] = image
                frontier.append(image)
    return sorted(found)


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

    def test_exact_on_a_straight_segment(self):
        # Y = (1 + t, 0): d = 1 + t along α = (1, 1), so Ã_t = 1 − 1/(1 + t)
        # at every grid point, however coarse the grid.
        times = np.array([0.0, 0.5, 2.0, 3.0])
        states = np.stack([1.0 + times, np.zeros(4)], axis=1)
        a_t = cumulative_time_change(times, states, np.array([1.0, 1.0]))
        assert np.allclose(a_t, 1.0 - 1.0 / (1.0 + times), rtol=1e-15, atol=0)

    def test_a_segment_across_the_hyperplane_is_refused(self):
        # no grid point is on the wall, but the segment between two crosses it
        states = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(SingularClockError):
            cumulative_time_change(np.array([0.0, 0.1]), states, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("n_times, alpha", [
        (2, [1.0, 1.0]),            # one step would broadcast over 10 segments
        (5, [1.0, 1.0]),
        (11, [1.0, 0.0, 0.0]),      # 3 coordinates against 2-D states
        (11, [0.0, 0.0, 1.0]),
        (11, [[1.0, 1.0]]),
    ])
    def test_shapes_that_do_not_fit_are_refused(self, n_times, alpha):
        states = np.stack([2.0 + np.linspace(0.0, 1.0, 11), np.ones(11)], axis=1)
        with pytest.raises(InvalidArgumentError, match="cumulative_time_change"):
            cumulative_time_change(np.linspace(0.0, 1.0, n_times), states, alpha)

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


class TestClockRule:
    """The lift's block clocks and ``cumulative_time_change`` are one rule:
    ``_Clocks`` grid values are c(β)·Ã_β bit for bit, for every positive
    root β, and a zero-rate root has a zero clock and no wall check."""

    @staticmethod
    def _check(plan, x0, cfg):
        res = lift._run_engine(plan.system, plan.k, x0, cfg, record=True, threads=1,
                               any_chamber=True)
        rate = np.asarray(plan.rates)[np.argsort(plan.enumeration)]
        pos = plan.system.positive_roots
        clocks = lift._Clocks(res.tgrid, res.states, res.stop_index, pos, rate)
        assert clocks.values.shape == (len(res.tgrid), len(pos), cfg.n_paths)
        for q, beta in enumerate(pos):
            want = (rate[q] * cumulative_time_change(res.tgrid, res.states, beta) if rate[q]
                    else np.zeros(res.states.shape[:2]))
            assert (clocks.values[:, q] * rate[q]).T.tobytes() == want.tobytes(), q
        return res, rate

    @pytest.mark.parametrize("system, x0, mode, rates", [
        (build_type_b(2), [2.0, 1.0], "auto", None),
        (build_type_b(2), [2.0, 1.0], "auto", (0.7, 2.5)),
        (build_type_b(4), [4.0, 3.0, 2.0, 1.0], "general", None),
        (build_type_a(3), [1.0, 0.0, -1.0], "auto", None),
    ])
    def test_block_clocks_are_the_public_clocks(self, system, x0, mode, rates):
        k = multiplicity(system, 1.0)
        plan = build_lift_plan(system, k, mode=mode,
                               rates=None if rates is None else multiplicity(system, rates))
        self._check(plan, x0, small_cfg(n_paths=40, horizon=0.2))

    def test_a_zero_rate_orbit(self, b2, k_one):
        plan = build_lift_plan(b2, k_one, rates=multiplicity(b2, (1.0, 0.0)))
        res, rate = self._check(plan, [2.0, 1.0], small_cfg(n_paths=20, horizon=0.1))
        assert np.array_equal(rate, [1.0, 1.0, 0.0, 0.0])
        # Path 3 touches the wall of the short root (0, √2) at grid index 5.
        states = res.states.copy()
        states[3, 5] = [2.0, 0.0]
        pos, args = b2.positive_roots, (res.tgrid, states, res.stop_index)
        assert not lift._Clocks(*args, pos, rate).values[:, 2:].any()
        with pytest.raises(SingularClockError, match="hyperplane"):
            lift._Clocks(*args, pos, np.ones(4))

    @staticmethod
    def _b2_radial(b2, k, n_paths):
        """A recorded B2 radial run over M + 1 = 201 grid points."""
        res = lift._run_engine(b2, k, [2.0, 1.0], small_cfg(n_paths=n_paths, horizon=0.2),
                               record=True, threads=1, any_chamber=True)
        assert len(res.tgrid) == 201
        return res, b2.positive_roots

    @pytest.mark.parametrize("tile", [1, 7, 201])
    def test_the_tile_moves_no_bit(self, b2, k_one, monkeypatch, tile):
        res, pos = self._b2_radial(b2, k_one, n_paths=30)
        args = (res.tgrid, res.states, res.stop_index, pos, np.array([1.0, 0.7, 0.0, 2.5]))
        want = lift._Clocks(*args).values.tobytes()
        monkeypatch.setattr(lift, "CLOCK_TILE", tile)
        assert lift._Clocks(*args).values.tobytes() == want

    @pytest.mark.parametrize("wall", ["touch", "cross"])
    def test_a_wall_at_the_first_point_of_a_tile(self, b2, k_one, wall):
        res, pos = self._b2_radial(b2, k_one, n_paths=20)
        # Tiles open at grid points 1 + i·CLOCK_TILE; the segment into the
        # first point of a tile reads its d₀ from the row carried over.
        j = 1 + lift.CLOCK_TILE
        states = res.states.copy()
        if wall == "touch":
            states[3, j] = [2.0, 0.0]      # on the wall of the short root (0, √2)
        else:
            states[3, j:, 1] *= -1.0       # only segment j − 1 → j crosses that wall
        args = (res.tgrid, states, res.stop_index, pos)
        assert not lift._Clocks(*args, np.array([1.0, 1.0, 1.0, 0.0])).values[:, 3].any()
        with pytest.raises(SingularClockError, match="hyperplane"):
            lift._Clocks(*args, np.ones(4))

    def test_paths_stopped_by_a_step_failure(self, b2, k_one, monkeypatch):
        # The run of TestSimulateDunkl.test_no_jump_after_step_failure.
        monkeypatch.setattr(_engine, "MAX_HALVINGS", 1)
        cfg = SimulationConfig(horizon=2.0, dt=0.05, n_paths=200, seed=5)
        res, _ = self._check(build_lift_plan(b2, k_one), [2.0, 1.0], cfg)
        assert set(res.stop_index.tolist()) == {3, 40}


class TestSimulateDunkl:
    def test_preconditions(self, b2, k_one):
        cfg = small_cfg()
        plan = build_lift_plan(b2, k_one)
        with pytest.raises(InvalidArgumentError):
            simulate_dunkl(plan, [1.0, 1.0], cfg)  # on a wall
        low = multiplicity(b2, 0.3)
        with pytest.raises(UnsupportedRegimeError):
            simulate_dunkl(build_lift_plan(b2, low), [2.0, 1.0], cfg)

    @pytest.mark.parametrize("stages", [2.9, True, 5, -1])
    def test_stages_must_be_a_whole_prefix(self, b2, k_one, stages):
        with pytest.raises(InvalidArgumentError, match="stages"):
            simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0], small_cfg(), stages=stages)

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

    def test_no_jump_after_step_failure(self, b2, k_one, monkeypatch):
        monkeypatch.setattr(_engine, "MAX_HALVINGS", 1)
        cfg = SimulationConfig(horizon=2.0, dt=0.05, n_paths=200, seed=5)
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
        for stage in range(plan.n_stages + 1):
            run = simulate_dunkl(plan, [2.0, 1.0], small_cfg(n_paths=100, horizon=1.0),
                                 stages=stage)
            allowed = reachable_labels(b2, plan, [2.0, 1.0], stage)
            assert len(allowed) == (1, 2, 4, 8, 8)[stage]
            states = np.concatenate([t.states for t in run.trajectories])
            posts = np.array([ev.post for t in run.trajectories for ev in t.events])
            assert np.isin(chamber_labels(b2, states), allowed).all()
            if stage:
                assert np.isin(chamber_labels(b2, posts), allowed).all()

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


class TestBlocking:
    # The engine splits paths into chunks, runs them across workers, and the
    # lift takes the recorded paths in blocks of LIFT_BLOCK clock values;
    # none of it may change the output.  A block of 500 values holds 11
    # paths of the B2 case (11 grid points, 4 roots, step failures) and 3 of
    # the A2 case (51 grid points, 3 roots); a block of 1 value, one path.
    @pytest.mark.parametrize("case", ["a2_mixed", "b2_general_then_flips"])
    def test_lift_does_not_depend_on_blocks_or_workers(self, monkeypatch, case):
        from test_contract import STAGE_CONTRACT, _digest, _stage_digest

        simulate, stages, _ = STAGE_CONTRACT[case]
        expected = _digest(simulate()), _stage_digest(simulate, stages)
        for threads, chunk, block in ((2, 4096, lift.LIFT_BLOCK), (1, 64, 1), (2, 64, 500)):
            with monkeypatch.context() as mp:
                mp.setattr(_engine, "DEFAULT_CHUNK", chunk)
                mp.setattr(lift, "LIFT_BLOCK", block)
                got = (_digest(simulate(threads=threads)),
                       _stage_digest(lambda **kw: simulate(threads=threads, **kw), stages))
            assert got == expected, (threads, chunk, block)

    @pytest.mark.parametrize("case", ["a2_mixed", "b2_general_then_flips"])
    def test_unrecorded_lift_matches_the_recorded_one(self, monkeypatch, case):
        """A lift kept unrecorded, each engine block lifted where it ran,
        ends with the recorded run's final states, stops and jump table."""
        from test_contract import STAGE_CONTRACT

        simulate = STAGE_CONTRACT[case][0]
        recorded = simulate()
        for threads in (1, 2):
            for chunk in (4096, 64):
                for block in (lift.LIFT_BLOCK, 500):
                    with monkeypatch.context() as mp:
                        mp.setattr(_engine, "DEFAULT_CHUNK", chunk)
                        mp.setattr(lift, "LIFT_BLOCK", block)
                        run = simulate(threads=threads, record=False)
                    assert run.states is None and run.trajectories is None
                    for name in ("final_states", "stop_index", "termination", "n_jumps"):
                        assert np.array_equal(getattr(run, name), getattr(recorded, name)), (
                            name, threads, chunk, block)
                    for name, a, b in zip(run.jumps._fields, run.jumps, recorded.jumps):
                        assert a.dtype == b.dtype and np.array_equal(a, b), (
                            name, threads, chunk, block)
                        assert not a.flags.writeable

    def test_jump_table_of_blocks_is_one_sorted_log(self, b2, k_one, monkeypatch):
        """Blocks of 3 paths merge into one table sorted by (path, time) with
        run-wide path numbers; every row reflects pre across its root and
        falls inside the horizon."""
        monkeypatch.setattr(lift, "LIFT_BLOCK", 3 * 501 * 4)
        cfg = SimulationConfig(horizon=0.5, dt=1e-3, n_paths=150, seed=17)
        plan = build_lift_plan(b2, k_one, mode=("general", "shortcut", "general", "shortcut"))
        path, time, root, pre, post = simulate_dunkl(plan, [0.6, 0.2], cfg).jumps
        assert path.dtype == root.dtype == np.int64 and pre.shape == post.shape
        assert path[-1] >= 140
        assert np.array_equal(np.lexsort((time, path)), np.arange(len(path)))
        alpha = b2.positive_roots[root]
        assert np.array_equal(post, pre - np.vecdot(pre, alpha)[:, None] * alpha)
        assert np.all((time > 0) & (time <= 0.5))


class TestMemory:
    # 256 recorded B2 paths of 2,000 steps: the (N, M+1, n) states take 8.2 MB.
    @staticmethod
    def _recorded_peak(b2, k_one):
        params = _engine.EngineParams(
            positive_roots=b2.positive_roots, kvec=k_one.per_positive(),
            x0=np.array([2.0, 1.0]), tgrid=np.arange(2001) * 1e-3, seed=5, record=True)
        tracemalloc.start()
        try:
            res = _engine.run_paths(params, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / res.states.nbytes

    def test_recorded_run_holds_one_path_array(self, b2, k_one):
        """The engine draws a recorded run's noise into its states, so the
        run's peak is the states and little else."""
        assert self._recorded_peak(b2, k_one) <= 1.25

    def test_recorded_blocks_fill_one_path_array(self, b2, k_one, monkeypatch):
        """Each of four blocks writes its rows into the run's one array, so
        no block's states and no concatenation sit beside it."""
        monkeypatch.setattr(_engine, "DEFAULT_CHUNK", 64)
        assert self._recorded_peak(b2, k_one) <= 1.25

    def test_lift_holds_one_block_of_clocks(self, b2, k_one, monkeypatch):
        """Past the states it returns, the lift holds one block's clocks and
        their scratch at a time: blocks of 50 paths here."""
        monkeypatch.setattr(lift, "LIFT_BLOCK", 50 * 2001 * 4)
        cfg = SimulationConfig(horizon=2.0, dt=1e-3, n_paths=256, seed=5)
        plan = build_lift_plan(b2, k_one)
        tracemalloc.start()
        try:
            run = simulate_dunkl(plan, [2.0, 1.0], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - run.states.nbytes <= 1.6 * lift.LIFT_BLOCK * 8

    def test_unrecorded_lift_holds_one_block_of_states(self, b2, k_one, monkeypatch):
        """Unrecorded, the lift runs on engine blocks of 64 paths' states as
        they finish and keeps only their final states and jumps: its peak
        is one block's states and one lift block's clocks, not the 8.2 MB
        of the run's states."""
        budget = 64 * 2001 * 2 * 8
        monkeypatch.setattr(_engine, "STATES_BUDGET", budget)
        cfg = SimulationConfig(horizon=2.0, dt=1e-3, n_paths=256, seed=5)
        plan = build_lift_plan(b2, k_one)
        tracemalloc.start()
        try:
            run = simulate_dunkl(plan, [2.0, 1.0], cfg, record=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.states is None and run.n_jumps.sum() > 0
        assert peak <= budget + 1.6 * lift.LIFT_BLOCK * 8

    def test_flip_stage_holds_paths_plus_jumps(self, b2, k_one, monkeypatch):
        """A flip stage's label path is flat: one path of 12,860 jumps costs
        its own jumps, not that many per path of the block.  Each stage's
        peak is bounded by 32 doubles per path and output jump."""
        flip_stage, ratios = lift._flip_stage, []

        def traced(gens, *args):
            tracemalloc.start()
            try:
                out = flip_stage(gens, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ratios.append(peak / (8 * (len(gens) + len(out[0]))))
            return out

        monkeypatch.setattr(lift, "_flip_stage", traced)
        cfg = SimulationConfig(horizon=1.0, dt=1e-2, n_paths=4000, seed=4)
        run = simulate_dunkl(build_lift_plan(b2, k_one, mode="auto"), [2.0, 1.0], cfg)
        assert run.n_jumps.max() >= 10_000
        assert len(ratios) == 8 and max(ratios) <= 32, ratios


class TestLabelChain:
    """The lift against exact laws given the radial path, at every stage
    prefix and in both modes, each with rates ×1.25 as the control."""

    # Prefixes run on 1,000 paths and the last stage on more, where the
    # control must fail: on 2,000 paths the ×1.25 law was rejected at only 5
    # to 8 of 8 seeds on A2 and B2.
    @pytest.mark.parametrize("name, x0, horizon, dt, full_paths", [
        ("b2", [2.0, 1.0], 1.0, 1e-3, 5000),
        ("a2", [1.0, 0.3, -0.5], 1.0, 1e-3, 5000),
        ("b3", [3.0, 2.0, 1.0], 0.5, 2e-3, 2000),
    ])
    def test_label_law_at_every_prefix(self, request, name, x0, horizon, dt, full_paths):
        system = request.getfixturevalue(name)
        k = multiplicity(system, 1.0)
        for mode in ("general", "auto"):
            plan = build_lift_plan(system, k, mode=mode)
            for j in range(1, plan.n_stages + 1):
                if mode == "auto" and plan.modes[j - 1] == "general":
                    continue  # stages 1..j run as joint clocks: general mode's run
                cfg = SimulationConfig(horizon=horizon, dt=dt, seed=42,
                                       n_paths=full_paths if j == plan.n_stages else 1000)
                run = simulate_dunkl(plan, x0, cfg, stages=j)
                rep = label_law(run, plan, stages=j)
                assert rep.passed, (mode, j, rep.estimate)
            heavy = build_lift_plan(system, k, rates=multiplicity(system, 1.25), mode=mode)
            assert not label_law(run, heavy).passed, mode

    def test_b4_mean_is_the_start_point(self):
        # X is a martingale: E X_T = x₀ per coordinate, Bonferroni over the
        # four coordinates at level 0.01.  Jumps at rates ×1.25 leave a drift.
        b4 = build_type_b(4)
        k, x0 = multiplicity(b4, 1.0), np.array([4.0, 3.0, 2.0, 1.0])
        cfg = SimulationConfig(horizon=0.2, dt=1e-3, n_paths=2000, seed=43)
        bound = sps.norm.isf(0.01 / 8)

        def worst(rates, mode):
            plan = build_lift_plan(b4, k, rates=multiplicity(b4, rates), mode=mode)
            final = simulate_dunkl(plan, x0, cfg).final_states
            se = final.std(axis=0, ddof=1) / np.sqrt(len(final))
            return np.max(np.abs(final.mean(axis=0) - x0) / se)

        for mode in ("general", "auto"):
            assert worst(1.0, mode) <= bound, mode
            assert worst(1.25, mode) > bound, mode


class TestClockTotals:
    def test_near_wall_call_completes(self, b2, k_one):
        # A benchmark call (lift-shortcut --seed 4, call 4) whose radial path
        # comes within 5e-6 of a wall at a grid point; its clock integrated
        # with the trapezoid rule reached 4.7e7 on one path.
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=2000, seed=3627990674)
        run = simulate_dunkl(build_lift_plan(b2, k_one, mode="auto"), [2.0, 1.0], cfg)
        assert np.all(run.termination == "horizon")
        assert run.n_jumps.max() < 10_000

    def test_a_path_of_many_jumps_completes_in_auto_mode(self, b2, k_one):
        # Near the walls one path takes 28,247 jumps; the flip stages hold
        # O(paths + jumps), not (paths × most jumps), so auto mode completes.
        # General mode draws other arrivals, so its counts differ slightly.
        cfg = SimulationConfig(horizon=1.0, dt=1e-2, n_paths=4000, seed=2)
        most = {mode: simulate_dunkl(build_lift_plan(b2, k_one, mode=mode), [0.6, 0.2],
                                     cfg).n_jumps.max() for mode in ("auto", "general")}
        assert most["general"] >= 10_000
        assert abs(most["auto"] - most["general"]) <= 0.01 * most["general"], most

    @pytest.mark.parametrize("mode", ["auto", "general"])
    def test_an_absurd_clock_is_refused(self, b2, k_one, monkeypatch, mode):
        monkeypatch.setattr(lift, "MAX_CLOCK", 0.05)
        plan = build_lift_plan(b2, k_one, mode=mode)
        with pytest.raises(SingularClockError, match=r"path \d+: the clock of root \d "
                                                     r"reaches [0-9.e+-]+, above MAX_CLOCK"):
            simulate_dunkl(plan, [2.0, 1.0], small_cfg(n_paths=20))


class TestLawInvariants:
    def test_law_agrees_across_enumerations(self, b2, k_one):
        # With all stages lifted, the chamber label's law given the radial
        # path does not depend on the enumeration: each run passes under
        # both plans' laws, and fails at rates ×0.5.
        plans = [build_lift_plan(b2, k_one, enumeration=e) for e in ((0, 1, 2, 3), (3, 2, 1, 0))]
        assert plans[1].modes == ("shortcut",) * 4
        for plan, seed in zip(plans, (88, 89)):
            cfg = SimulationConfig(horizon=1.0, dt=2e-3, n_paths=2500, seed=seed)
            run = simulate_dunkl(plan, [2.0, 1.0], cfg)
            for law in plans:
                assert label_law(run, law).passed, (plan.enumeration, law.enumeration)
            half = build_lift_plan(b2, k_one, rates=multiplicity(b2, 0.5),
                                   enumeration=plan.enumeration)
            assert not label_law(run, half).passed, plan.enumeration


class TestSkewProduct:
    @pytest.mark.parametrize("name, x0, mode, horizon", [
        ("b2", [2.0, 1.0], "auto", 1.0),
        ("b2", [2.0, 1.0], "general", 1.0),
        ("a2", [1.0, 0.3, -0.5], "auto", 1.0),
        ("b4", [4.0, 3.0, 2.0, 1.0], "general", 0.2),
    ])
    def test_projection_is_the_radial_path(self, request, name, x0, mode, horizon):
        """X = v·Z, so π(X_t) = Z_t at every grid point to rounding, with Z
        the radial run of the same config; stages=0 is Z bit for bit."""
        system = build_type_b(4) if name == "b4" else request.getfixturevalue(name)
        k = multiplicity(system, 1.0)
        cfg = SimulationConfig(horizon=horizon, dt=1e-3, n_paths=300, seed=11)
        plan = build_lift_plan(system, k, mode=mode)
        lifted = simulate_dunkl(plan, x0, cfg)
        assert lifted.n_jumps.sum() > 0

        pi = project_batch(system, lifted.states.reshape(-1, len(x0))).reshape(lifted.states.shape)

        def off(run):
            z = run.states
            return np.max(np.abs(pi - z).max(axis=-1) / (1.0 + np.linalg.norm(z, axis=-1)))

        radial = run_radial(system, k, x0, cfg, record=True)
        assert off(radial) <= 1e-12
        assert simulate_dunkl(plan, x0, cfg, stages=0).states.tobytes() == radial.states.tobytes()
        other = run_radial(system, k, x0, dataclasses.replace(cfg, seed=12), record=True)
        assert off(other) > 1e-3   # the control: an independent radial path


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
