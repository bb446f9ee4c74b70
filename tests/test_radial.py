import concurrent.futures
import hashlib
import io
import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from dunkl_lab import (
    InvalidArgumentError,
    Run,
    SimulationConfig,
    multiplicity,
    run_radial,
    write_trajectories_csv,
)
from dunkl_lab import _engine, radial, rng
from dunkl_lab.lift import build_lift_plan, simulate_dunkl
from dunkl_lab.radial import read_trajectories_csv


def _same_coordinate_laws(a, b, alpha=0.01):
    """Two-sample KS of each coordinate of ``a`` against ``b``, Bonferroni
    across the coordinates at level ``alpha``."""
    from scipy import stats

    return all(stats.ks_2samp(a[:, i], b[:, i]).pvalue >= alpha / a.shape[1]
               for i in range(a.shape[1]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(horizon=0.0, dt=0.1, n_paths=1, seed=0)
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(horizon=1.0, dt=2.0, n_paths=1, seed=0)
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(horizon=1.0, dt=0.1, n_paths=0, seed=0)
        for bad in (dict(horizon=math.inf), dict(dt=math.inf), dict(horizon=math.nan),
                    dict(dt=math.nan), dict(n_paths=2.5), dict(n_paths=2.0),
                    dict(seed=1.5), dict(seed=-1), dict(n_paths=True), dict(seed=True),
                    dict(seed=False)):
            with pytest.raises(InvalidArgumentError):
                SimulationConfig(**{**dict(horizon=1.0, dt=0.1, n_paths=1, seed=0), **bad})
        cfg = SimulationConfig(horizon=1.0, dt=0.1, n_paths=np.int64(3), seed=np.uint32(7))
        assert cfg.n_paths == 3 and cfg.seed == 7

    def test_time_grid_hits_horizon(self):
        cfg = SimulationConfig(horizon=1.0, dt=0.3, n_paths=1, seed=0)
        grid = cfg.time_grid()
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)


class TestSimulateRadial:
    def test_requires_interior_start(self, b2, k_one):
        cfg = SimulationConfig(horizon=0.1, dt=0.01, n_paths=2, seed=0)
        with pytest.raises(InvalidArgumentError):
            run_radial(b2, k_one, [1.0, 1.0], cfg)
        with pytest.raises(InvalidArgumentError):
            run_radial(b2, k_one, [1.0, 2.0], cfg)

    def test_first_step_is_drift_plus_noise(self, rank1):
        """On the line, ∇log ϖ_k(x) = k/x: one accepted step from 0.5 is
        0.5 + (1/0.5)·h + √h·ξ with ξ the path's first diffusion draw."""
        cfg = SimulationConfig(horizon=0.01, dt=0.01, n_paths=3, seed=7)
        run = run_radial(rank1, multiplicity(rank1, 1.0), [0.5], cfg)
        assert run.n_rejected.sum() == 0
        for p, traj in enumerate(run.trajectories):
            xi = rng.stream(rng.keys(7, rng.DIFFUSION, p)).standard_normal(1)[0]
            assert traj.states[1, 0] == pytest.approx(0.52 + math.sqrt(0.01) * xi,
                                                      rel=1e-12)

    def test_wall_crossings_are_retried_inside(self, rank1):
        """From 0.1 with h = 0.01 some proposals cross the wall; they are
        rejected and the interval covered by bisection, so every path
        reaches the horizon and every recorded state stays positive."""
        cfg = SimulationConfig(horizon=0.2, dt=0.01, n_paths=200, seed=1)
        run = run_radial(rank1, multiplicity(rank1, 1.0), [0.1], cfg)
        assert run.n_rejected.sum() > 0
        assert np.all(run.termination == "horizon")
        assert all(np.all(t.states > 0) for t in run.trajectories)

    def test_paths_stay_in_chamber(self, b2, k_one):
        cfg = SimulationConfig(horizon=0.5, dt=1e-3, n_paths=30, seed=3)
        trajs = run_radial(b2, k_one, [2.0, 1.0], cfg).trajectories
        pos_t = b2.positive_roots.T
        for traj in trajs:
            assert np.all(traj.states @ pos_t > 0)
            assert traj.events == ()
            assert np.all(np.diff(traj.times) > 0)

    def test_deterministic_replay(self, b2, k_one):
        cfg = SimulationConfig(horizon=0.3, dt=1e-3, n_paths=10, seed=11)
        t1 = run_radial(b2, k_one, [2.0, 1.0], cfg).trajectories
        t2 = run_radial(b2, k_one, [2.0, 1.0], cfg).trajectories
        for a, b in zip(t1, t2):
            assert np.array_equal(a.states, b.states)

    def test_path_reproducible_in_isolation(self, b2, k_one):
        cfg_big = SimulationConfig(horizon=0.2, dt=1e-3, n_paths=8, seed=21)
        cfg_small = SimulationConfig(horizon=0.2, dt=1e-3, n_paths=1, seed=21)
        big = run_radial(b2, k_one, [2.0, 1.0], cfg_big).trajectories
        small = run_radial(b2, k_one, [2.0, 1.0], cfg_small).trajectories
        # path 0 does not depend on how many other paths were requested
        assert np.array_equal(big[0].states, small[0].states)

    def test_rank_one_mean_square(self, rank1):
        # E X_t² = x0² + (1 + 2k)t for the line process
        k = multiplicity(rank1, 1.0)
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=4000, seed=5)
        run = run_radial(rank1, k, [1.0], cfg, record=False)
        sq = run.final_states[:, 0] ** 2
        target = 1.0 + 3.0
        se = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(sq.mean() - target) <= 3 * se

    def test_radial_run_is_the_zero_stage_lift(self, b2, k_one):
        """``run_radial`` and ``simulate_dunkl(stages=0)`` reach the engine
        through one front end: the same paths, byte for byte, rejected
        proposals included."""
        cfg = SimulationConfig(horizon=1.0, dt=0.05, n_paths=200, seed=3)
        radial = run_radial(b2, k_one, [2.0, 1.0], cfg)
        lifted = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0], cfg, stages=0)
        assert radial.n_rejected.sum() > 0
        for name in ("final_states", "termination", "n_rejected"):
            a, b = getattr(radial, name), getattr(lifted, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for a, b in zip(radial.trajectories, lifted.trajectories, strict=True):
            assert a.states.tobytes() == b.states.tobytes()

    def test_equivariance_under_weyl(self, b2, k_one):
        """The law of X_T from w·x₀ is w·(the law from x₀), for the
        extended radial dynamics (stages=0) and for the full lift, by
        per-coordinate KS on independent seeds; the unrotated states fail."""
        x0 = np.array([2.0, 1.0])
        plan = build_lift_plan(b2, k_one, mode="general")
        for w in b2.weyl_group[1:]:
            for stages in (0, None):
                def finals(start, seed):
                    cfg = SimulationConfig(horizon=0.5, dt=1e-2, n_paths=1000, seed=seed)
                    return simulate_dunkl(plan, start, cfg, stages=stages).final_states
                moved, base = finals(w @ x0, 21), finals(x0, 22)
                assert _same_coordinate_laws(moved, base @ w.T)
                assert not _same_coordinate_laws(moved, base)

    def test_interior_preservation_diagnostics(self, b2, k_one):
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=500, seed=13)
        run = run_radial(b2, k_one, [2.0, 1.0], cfg, record=False)
        flagged = np.mean((run.termination != "horizon") | run.wall_contact)
        assert flagged <= 1e-3
        cfg_half = SimulationConfig(horizon=1.0, dt=5e-4, n_paths=500, seed=13)
        run_half = run_radial(b2, k_one, [2.0, 1.0], cfg_half, record=False)
        flagged_half = np.mean(
            (run_half.termination != "horizon") | run_half.wall_contact)
        assert flagged_half <= flagged

    @staticmethod
    def _engine_params(b2, k_one, near_walls):
        return _engine.EngineParams(
            positive_roots=b2.positive_roots, kvec=k_one.per_positive(),
            x0=np.array([0.6, 0.2]) if near_walls else np.array([2.0, 1.0]),
            tgrid=SimulationConfig(horizon=0.2, dt=1e-2 if near_walls else 1e-3,
                                   n_paths=150, seed=17).time_grid(),
            seed=17, record=True)

    @staticmethod
    def _assert_blocking_invariant(params):
        """Blocks of 64 paths across one and two workers, and one block of
        4096, give the same engine output, and each block's last tile of
        states is written back."""
        runs = []
        for threads, chunk in ((1, 64), (2, 64), (1, 4096)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_engine, "DEFAULT_CHUNK", chunk)
                runs.append(_engine.run_paths(params, 150, threads=threads))
        for other in runs[1:]:
            for name in ("tgrid", "final", "stop_index", "termination", "t0_time",
                         "wall_contact", "min_wall_distance", "n_rejected", "states"):
                assert np.array_equal(getattr(runs[0], name), getattr(other, name),
                                      equal_nan=name == "t0_time"), name
        assert np.array_equal(runs[0].states[:, -1], runs[0].final)
        return runs[0]

    def test_worker_count_independent(self, b2, k_one):
        self._assert_blocking_invariant(self._engine_params(b2, k_one, near_walls=False))

    def test_worker_count_independent_near_walls(self, b2, k_one):
        """From near the walls steps reject, so the per-path retry streams
        are exercised."""
        run = self._assert_blocking_invariant(self._engine_params(b2, k_one, near_walls=True))
        assert run.n_rejected.sum() > 0


def _simulate(system, k, x0, cfg):
    return simulate_dunkl(build_lift_plan(system, k), x0, cfg)


ENTRY_POINTS = {"run_radial": run_radial, "simulate_dunkl": _simulate}


class TestRun:
    """Radial and lifted paths come back as one ``Run`` of engine arrays."""

    CFG = SimulationConfig(horizon=0.5, dt=0.01, n_paths=40, seed=2)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_trajectories_built_on_first_read(self, b2, k_one, monkeypatch, entry):
        calls = []
        build = radial._trajectories_from_engine
        monkeypatch.setattr(radial, "_trajectories_from_engine",
                            lambda run: calls.append(run) or build(run))
        run = ENTRY_POINTS[entry](b2, k_one, [2.0, 1.0], self.CFG)
        assert isinstance(run, Run) and calls == []
        first = run.trajectories
        assert calls == [run] and len(first) == 40
        assert run.trajectories is first and len(calls) == 1

    def test_n_jumps_counts_the_jump_table(self, b2, k_one):
        run = _simulate(b2, k_one, [2.0, 1.0], self.CFG)
        assert run.n_jumps.sum() > 0
        assert run.n_jumps.tolist() == [len(t.events) for t in run.trajectories]
        assert np.array_equal(run.n_jumps, np.bincount(run.jumps.path, minlength=40))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_recorded_arrays_are_read_only(self, b2, k_one, entry):
        run = ENTRY_POINTS[entry](b2, k_one, [2.0, 1.0], self.CFG)
        for a in (run.states, *run.jumps):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            run.states[0, 0, 0] = 0.0

    def test_unrecorded_run_holds_no_paths(self, b2, k_one):
        run = run_radial(b2, k_one, [2.0, 1.0], self.CFG, record=False)
        assert run.states is None and run.jumps is None and run.trajectories is None
        assert not hasattr(run, "n_jumps")
        with pytest.raises(AttributeError):
            run.n_jumps

    def test_unrecorded_run_holds_one_noise_segment(self, b2, k_one):
        """2,000 B2 paths of 1,000 steps draw 4,000,000 doubles of noise in
        16 MB segments, each released before the next is allocated: the
        peak stays within 1.25 segments (one 32 MB segment read 33 MB)."""
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=2000, seed=3)
        tracemalloc.start()
        try:
            run_radial(b2, k_one, [2.0, 1.0], cfg, record=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20_000_000

    def test_unrecorded_blocks_hold_little_noise(self, b2, k_one):
        """16,384 B2 paths of 200 steps run in blocks of ``DEFAULT_CHUNK``
        paths, each holding one block-sized noise segment and tile: blocks
        of 2,048 paths peak at about 8 MiB, blocks of 4,096 at 15.5 MiB."""
        cfg = SimulationConfig(horizon=0.2, dt=1e-3, n_paths=16384, seed=1)
        tracemalloc.start()
        try:
            run_radial(b2, k_one, [2.0, 1.0], cfg, record=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("x0", [[2.0], [2.0, 1.0, 0.5], [2.0, np.nan],
                                    [2.0, np.inf], [np.inf, 1.0]])
    def test_x0_must_be_finite_and_of_the_system_dimension(self, b2, k_one, entry, x0):
        with pytest.raises(InvalidArgumentError):
            ENTRY_POINTS[entry](b2, k_one, x0, self.CFG)


class TestWallHitting:
    def test_low_multiplicity_hits(self, rank1):
        k = multiplicity(rank1, 0.3)
        cfg = SimulationConfig(horizon=1.0, dt=1e-4, n_paths=300, seed=7)
        run = run_radial(rank1, k, [0.2], cfg, record=False)
        assert run.hit_fraction > 0.2
        hit = run.termination == "T0"
        assert np.all(np.isfinite(run.t0_times[hit]))
        assert np.all(run.t0_times[hit] <= 1.0)

    def test_high_multiplicity_does_not_hit(self, rank1):
        k = multiplicity(rank1, 1.0)
        cfg = SimulationConfig(horizon=1.0, dt=1e-4, n_paths=300, seed=7)
        run = run_radial(rank1, k, [0.2], cfg, record=False)
        assert run.hit_fraction == 0.0

    def test_t0_trajectory_is_truncated(self, rank1):
        k = multiplicity(rank1, 0.1)
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=50, seed=3)
        trajs = run_radial(rank1, k, [0.1], cfg).trajectories
        hit = [t for t in trajs if t.termination == "T0"]
        assert hit
        for t in hit:
            assert t.times[-1] <= 1.0
            assert t.t0_time is not None
            assert len(t.times) == len(t.states)


def _hand_built_run():
    """Two paths whose rows tie: path 0 jumps at grid time 0.5 and twice at
    0.7, by roots 2 and 10 (so "jump:10" sorts first); path 1 stops at T₀
    after two jumps at one time by one root, which keep their table order."""
    times = np.array([0.0, 0.5, 1.0])
    states = np.array([[[2.0, 1.0], [2.5, 0.5], [3.0, 0.25]],
                       [[1.0, 0.5], [0.75, 0.125], [0.0, 0.0]]])
    post = np.array([[1.0, 2.0], [0.5, 2.5], [-1.0, 3.0], [4.0, 0.0], [0.1, 0.2]])
    jumps = radial.JumpTable(path=np.array([0, 0, 0, 1, 1]),
                             time=np.array([0.5, 0.7, 0.7, 0.25, 0.25]),
                             root=np.array([2, 2, 10, 1, 1]), pre=np.zeros((5, 2)), post=post)
    return Run(times=times, final_states=states[[0, 1], [2, 1]], stop_index=np.array([2, 1]),
               termination=np.array(["horizon", "T0"]), t0_times=np.array([math.nan, 0.5]),
               wall_contact=np.array([False, True]), min_wall_distance=np.array([0.5, 0.0]),
               n_rejected=np.zeros(2, dtype=np.int64), states=states, jumps=jumps)


def _csv_text(run):
    buf = io.StringIO()
    write_trajectories_csv(run, buf)
    return buf.getvalue()


class TestCsv:
    def test_round_trip(self, b2, k_one):
        cfg = SimulationConfig(horizon=0.05, dt=0.01, n_paths=3, seed=4)
        run = run_radial(b2, k_one, [2.0, 1.0], cfg)
        text = _csv_text(run)
        assert text.splitlines()[0] == "path_id,t,x_1,x_2,event"
        back = read_trajectories_csv(io.StringIO(text))
        assert set(back) == {0, 1, 2}
        assert np.array_equal(back[0]["x"], run.states[0])
        assert np.array_equal(back[2]["t"], run.times)

    def test_t0_marker_written(self, rank1):
        k = multiplicity(rank1, 0.1)
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=20, seed=3)
        assert ",T0" in _csv_text(run_radial(rank1, k, [0.1], cfg))

    def test_byte_identical_export(self, b2, k_one):
        cfg = SimulationConfig(horizon=0.05, dt=0.01, n_paths=3, seed=4)
        out = [_csv_text(run_radial(b2, k_one, [2.0, 1.0], cfg)) for _ in range(2)]
        assert out[0] == out[1]

    def test_an_unrecorded_run_is_refused(self, b2, k_one, tmp_path):
        cfg = SimulationConfig(horizon=0.05, dt=0.01, n_paths=3, seed=4)
        run = run_radial(b2, k_one, [2.0, 1.0], cfg, record=False)
        with pytest.raises(InvalidArgumentError, match="record=True"):
            write_trajectories_csv(run, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_tied_rows_sort_by_time_then_event_string(self):
        rows = [line.split(",") for line in _csv_text(_hand_built_run()).splitlines()[1:]]
        assert [(r[0], r[1], r[-1]) for r in rows] == [
            ("0", "0", ""), ("0", "0.5", ""), ("0", "0.5", "jump:2"),
            ("0", "0.69999999999999996", "jump:10"), ("0", "0.69999999999999996", "jump:2"),
            ("0", "1", ""), ("1", "0", ""), ("1", "0.25", "jump:1"), ("1", "0.25", "jump:1"),
            ("1", "0.5", "T0")]
        assert rows[2][2:4] == ["1", "2"] and rows[3][2:4] == ["-1", "3"]
        assert rows[7][2:4] == ["4", "0"] and rows[8][2] == "0.10000000000000001"

    # SHA-256 of each run's CSV, as written from its ``Trajectory`` objects
    # before the writer read the run's arrays
    PINNED = {
        "b2-lift": "1405c2a085843d3125b2cb81b5dffa0a665bf3be23ad18e642825b92d8f81803",
        "rank-one-t0": "267017b4b564d24ca105c53722dbf6edfb3c82ece9cd9d8f157b9e1d0d88aa37",
        "hand-built": "97cd7253c682dc402a41b1be6997ad7be1e1d4fcd9d13351d2c4a2792d621030",
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_bytes_are_pinned(self, b2, k_one, rank1, case):
        if case == "b2-lift":
            cfg = SimulationConfig(horizon=0.5, dt=0.01, n_paths=20, seed=3)
            run = simulate_dunkl(build_lift_plan(b2, k_one), [2.0, 1.0], cfg)
            assert run.n_jumps.sum() == 22
        elif case == "rank-one-t0":
            cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=20, seed=3)
            run = run_radial(rank1, multiplicity(rank1, 0.1), [0.1], cfg)
            assert np.sum(run.termination == "T0") == 13
        else:
            run = _hand_built_run()
        assert hashlib.sha256(_csv_text(run).encode()).hexdigest() == self.PINNED[case]

    @pytest.mark.parametrize("bad", ["0,nan,2,1,", "0,0.2,2,inf,", "1,0.2,-inf,1,"],
                             ids=["nan-time", "inf-coordinate", "minus-inf-coordinate"])
    def test_reader_refuses_a_value_that_is_not_finite(self, bad):
        text = f"path_id,t,x_1,x_2,event\n0,0,2,1,\n{bad}\n0,0.3,2,1,\n"
        with pytest.raises(InvalidArgumentError, match="line 3: a value is not finite"):
            read_trajectories_csv(io.StringIO(text))


class TestEngineHelpers:
    @pytest.mark.parametrize("rows", [0, 1, 4097])
    @pytest.mark.parametrize("cols", [1, 2, 4, 16])
    def test_row_min_is_numpys(self, rows, cols, rng):
        a = rng.standard_normal((rows, cols))
        a[rng.random(a.shape) < 0.3] = 0.0
        a[rng.random(a.shape) < 0.3] = -0.0
        a[rng.random(a.shape) < 0.05] = np.nan
        assert _engine._row_min(a).tobytes() == a.min(axis=1).tobytes()

    @staticmethod
    def _stack_cover(k, gen, x, S, h, xi):
        """One row of ``cover_interval`` as a depth-first bisection over a
        list stack of depths."""
        stack, proposals, rejected = [_engine.MAX_HALVINGS], 0, 0
        while stack:
            if proposals == _engine.PROPOSAL_BUDGET:
                return False, rejected
            depth = stack.pop()
            hs = h * 0.5 ** (_engine.MAX_HALVINGS - depth)
            proposals += 1
            xi = gen.standard_normal(len(x)) if xi is None else xi
            prop = x + (S.T @ (k / (x @ S.T))) * hs + math.sqrt(hs) * xi
            xi = None
            if (prop @ S.T > 0).all():
                x[...] = prop
                continue
            rejected += 1
            if depth == 0:
                return False, rejected
            stack += [depth - 1] * 2
        return True, rejected

    @pytest.mark.parametrize("halvings, budget", [(20, 100_000), (2, 100_000), (20, 5)])
    def test_cover_interval_is_a_depth_first_stack(self, b2, monkeypatch, halvings, budget):
        """Each row's dyadic position walks the sub-intervals of a
        depth-first stack, with the same draws, states and outcome."""
        monkeypatch.setattr(_engine, "MAX_HALVINGS", halvings)
        monkeypatch.setattr(_engine, "PROPOSAL_BUDGET", budget)
        S = b2.positive_roots     # the chamber x₁ > x₂ > 0
        x = np.sort(np.abs(np.random.default_rng(5).standard_normal((400, 2))), axis=1)[:, ::-1]
        x = 0.3 * x[(x @ S.T > 0).all(axis=1)]
        k = np.ones((len(x), len(S)))
        xi = np.random.default_rng(6).standard_normal(x.shape)
        keys = rng.keys(3, rng.RETRY, np.arange(len(x)))
        got = x.copy()
        covered, rejected = _engine.cover_interval(
            k, [rng.stream(key) for key in keys], got, S, 0.05, xi)
        want = x.copy()
        for r, key in enumerate(keys):
            assert (covered[r], rejected[r]) == self._stack_cover(
                k[r], rng.stream(key), want[r], S, 0.05, xi[r])
        assert got.tobytes() == want.tobytes()
        assert rejected.sum() > 0 and covered.any()
        assert covered.all() == ((halvings, budget) == (20, 100_000))


class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and
    runs each submitted block in this process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestWorkers:
    @staticmethod
    def _params(b2, k_one):
        return _engine.EngineParams(
            positive_roots=b2.positive_roots, kvec=k_one.per_positive(),
            x0=np.array([2.0, 1.0]), tgrid=np.arange(4) * 1e-3, seed=3)

    @pytest.mark.parametrize("threads, chunk, workers", [
        (500, 5, [3]), (2, 5, [2]), (1, 5, []), (4, 4096, []), (0, 4096, [])])
    def test_at_most_one_worker_per_block(self, b2, k_one, monkeypatch, threads, chunk,
                                          workers):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "made", [])
        params = self._params(b2, k_one)
        monkeypatch.setattr(_engine, "DEFAULT_CHUNK", chunk)
        res = _engine.run_paths(params, 12, threads=threads)
        assert _RecordingPool.made == workers
        monkeypatch.setattr(_engine, "DEFAULT_CHUNK", 5)
        assert res.final.tobytes() == _engine.run_paths(params, 12).final.tobytes()

    def test_negative_threads_rejected(self, b2, k_one, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        with pytest.raises(InvalidArgumentError, match="threads"):
            _engine.run_paths(self._params(b2, k_one), 12, threads=-1)

    @pytest.mark.parametrize("threads", [1.5, True])
    def test_threads_must_be_an_integer(self, b2, k_one, monkeypatch, threads):
        """Refused before any worker starts, on two blocks of paths."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "made", [])
        monkeypatch.setattr(_engine, "DEFAULT_CHUNK", 5)
        with pytest.raises(InvalidArgumentError, match="threads"):
            _engine.run_paths(self._params(b2, k_one), 12, threads=threads)
        assert _RecordingPool.made == []
