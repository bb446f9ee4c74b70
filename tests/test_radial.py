import io
import math
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
from dunkl_lab import _engine, radial, rng, verify
from dunkl_lab.lift import build_lift_plan, simulate_dunkl
from dunkl_lab.radial import read_trajectories_csv


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
                    dict(seed=1.5), dict(seed=-1)):
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
                assert verify._coordinate_ks(moved, base @ w.T, "equivariance", 1000).passed
                assert not verify._coordinate_ks(moved, base, "control", 1000).passed

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
    def _engine_params(b2, k_one, clocks):
        kvec = k_one.per_positive()
        return _engine.EngineParams(
            positive_roots=b2.positive_roots, kvec=kvec,
            x0=np.array([0.6, 0.2]) if clocks else np.array([2.0, 1.0]),
            tgrid=SimulationConfig(horizon=0.2, dt=1e-2 if clocks else 1e-3,
                                   n_paths=150, seed=17).time_grid(),
            seed=17, record=True,
            clock_positions=(0, 1, 2, 3) if clocks else (),
            clock_rates=kvec if clocks else np.zeros(0))

    @staticmethod
    def _assert_blocking_invariant(params):
        """Blocks of 64 paths across one and two workers, and one block of
        4096, give the same engine output, jump table included."""
        runs = [_engine.run_paths(params, 150, threads=t, chunk_size=c)
                for t, c in ((1, 64), (2, 64), (1, 4096))]
        for other in runs[1:]:
            for name in ("tgrid", "final", "stop_index", "termination", "t0_time",
                         "wall_contact", "min_wall_distance", "n_rejected", "states"):
                assert np.array_equal(getattr(runs[0], name), getattr(other, name),
                                      equal_nan=name == "t0_time"), name
            for a, b in zip(runs[0].jumps, other.jumps):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        return runs[0]

    def test_worker_count_independent(self, b2, k_one):
        self._assert_blocking_invariant(self._engine_params(b2, k_one, clocks=False))

    def test_worker_count_independent_with_clocks(self, b2, k_one):
        """General-mode clocks from near the walls: clocks fire and steps
        reject, so the per-path retry and clock streams are exercised."""
        run = self._assert_blocking_invariant(self._engine_params(b2, k_one, clocks=True))
        assert len(run.jumps.time) > 0
        assert run.n_rejected.sum() > 0

    def test_jump_table_of_blocks_is_one_sorted_log(self, b2, k_one):
        """Blocks of 64 paths merge into one table sorted by (path, time)
        with run-wide path numbers; every row reflects pre across its root
        and falls inside the horizon."""
        res = _engine.run_paths(self._engine_params(b2, k_one, clocks=True), 150,
                                chunk_size=64)
        path, time, root, pre, post = res.jumps
        assert path.dtype == root.dtype == np.int64 and pre.shape == post.shape
        assert path[-1] >= 128
        assert np.array_equal(np.lexsort((time, path)), np.arange(len(path)))
        alpha = b2.positive_roots[root]
        assert np.array_equal(post, pre - np.vecdot(pre, alpha)[:, None] * alpha)
        assert np.all((time > 0) & (time <= res.tgrid[-1]))


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


class TestCsv:
    def test_round_trip(self, b2, k_one):
        cfg = SimulationConfig(horizon=0.05, dt=0.01, n_paths=3, seed=4)
        trajs = run_radial(b2, k_one, [2.0, 1.0], cfg).trajectories
        buf = io.StringIO()
        write_trajectories_csv(trajs, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "path_id,t,x_1,x_2,event"
        back = read_trajectories_csv(io.StringIO(text))
        assert set(back) == {0, 1, 2}
        assert np.allclose(back[0]["x"], trajs[0].states)

    def test_t0_marker_written(self, rank1):
        k = multiplicity(rank1, 0.1)
        cfg = SimulationConfig(horizon=1.0, dt=1e-3, n_paths=20, seed=3)
        trajs = run_radial(rank1, k, [0.1], cfg).trajectories
        buf = io.StringIO()
        write_trajectories_csv(trajs, buf)
        assert ",T0" in buf.getvalue()

    def test_byte_identical_export(self, b2, k_one):
        cfg = SimulationConfig(horizon=0.05, dt=0.01, n_paths=3, seed=4)
        out = []
        for _ in range(2):
            buf = io.StringIO()
            run = run_radial(b2, k_one, [2.0, 1.0], cfg)
            write_trajectories_csv(run.trajectories, buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]


class TestEngineHelpers:
    @pytest.mark.parametrize("rows", [0, 1, 4097])
    @pytest.mark.parametrize("cols", [1, 2, 4, 16])
    def test_row_min_is_numpys(self, rows, cols, rng):
        a = rng.standard_normal((rows, cols))
        a[rng.random(a.shape) < 0.3] = 0.0
        a[rng.random(a.shape) < 0.3] = -0.0
        a[rng.random(a.shape) < 0.05] = np.nan
        assert _engine._row_min(a).tobytes() == a.min(axis=1).tobytes()


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
        monkeypatch.setattr(_engine, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "made", [])
        params = self._params(b2, k_one)
        res = _engine.run_paths(params, 12, threads=threads, chunk_size=chunk)
        assert _RecordingPool.made == workers
        assert res.final.tobytes() == _engine.run_paths(params, 12, chunk_size=5).final.tobytes()

    def test_negative_threads_rejected(self, b2, k_one, monkeypatch):
        monkeypatch.setattr(_engine, "ProcessPoolExecutor", _RecordingPool)
        with pytest.raises(InvalidArgumentError, match="threads"):
            _engine.run_paths(self._params(b2, k_one), 12, threads=-1)
