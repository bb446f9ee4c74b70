"""Simulation of the chamber-valued radial process.

The radial process solves dX = dβ + ∇ log ϖ_k(X) dt inside the chamber C,
with ∇ log ϖ_k(x) = Σ_{α∈R₊} k(α) α/(x·α).  When every multiplicity is at
least 1/2 the solution never reaches ∂C and proposals that cross a wall
are pure discretization error (rejected and bisected).  When some
multiplicity is below 1/2 the process genuinely hits the wall in finite
time; paths then terminate at the first time the wall distance drops
below ``_engine.EPS_WALL``·(1 + ‖x‖), reported as the hitting time T₀.
The multiplicity alone decides which of the two holds.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _engine
from .errors import InvalidArgumentError
from .root_systems import Multiplicity, RootSystem, chamber_contains


@dataclass(frozen=True)
class SimulationConfig:
    """Horizon, grid, path count and seed for one run.

    How a path meets the walls is not a setting: it follows from the
    multiplicity (see ``run_radial``).
    """

    horizon: float
    dt: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not (self.dt > 0 and self.dt <= self.horizon < math.inf):
            raise InvalidArgumentError("need 0 < dt ≤ horizon < ∞")
        if not isinstance(self.n_paths, numbers.Integral) or self.n_paths < 1:
            raise InvalidArgumentError("need an integral number of paths, at least one")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise InvalidArgumentError("seed must be a nonnegative integer")

    def time_grid(self):
        n_steps = int(math.ceil(self.horizon / self.dt - 1e-12))
        grid = np.minimum(np.arange(n_steps + 1) * self.dt, self.horizon)
        grid[-1] = self.horizon
        return grid


@dataclass(frozen=True)
class JumpEvent:
    """One reflection jump: ``post`` is exactly pre − (α·pre)α for root α."""

    time: float
    root: int          # position in the positive enumeration
    pre: np.ndarray
    post: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """A recorded path: grid times, states, jump log, and how it ended."""

    path_id: int
    times: np.ndarray
    states: np.ndarray
    events: tuple = ()
    termination: str = "horizon"
    t0_time: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Run:
    """A batch of paths, radial or lifted, as the engine's arrays.

    ``states`` (N, M+1, n) and the flat jump table ``jumps``, sorted by
    (path, time), are read-only, and both are None for an unrecorded run.
    A path's grid states are valid up to ``stop_index``.
    """

    times: np.ndarray
    final_states: np.ndarray
    stop_index: np.ndarray
    termination: np.ndarray      # label per path
    t0_times: np.ndarray         # NaN unless the path hit the wall
    wall_contact: np.ndarray
    min_wall_distance: np.ndarray
    n_rejected: np.ndarray
    states: Optional[np.ndarray]
    jumps: Optional[_engine.JumpTable]

    @property
    def hit_fraction(self):
        """Fraction of paths whose wall distance dipped below threshold."""
        return float(np.mean(self.wall_contact | (self.termination == "T0")))

    @property
    def n_jumps(self):
        """Jumps per path; an unrecorded run has no jump table."""
        return np.bincount(self.jumps.path, minlength=len(self.stop_index))

    @functools.cached_property
    def trajectories(self):
        """One ``Trajectory`` per path, built on first read; None unrecorded."""
        return None if self.states is None else _trajectories_from_engine(self)


def _run_engine(system: RootSystem, k: Multiplicity, x0, config: SimulationConfig, *,
                record, threads, any_chamber=False, **clocks) -> _engine.EngineResult:
    """Run ``config``'s paths of drift k from ``x0``; ``clocks`` holds the
    optional jump-clock fields of ``EngineParams``.

    ``x0`` must be finite and lie in the open chamber, or with
    ``any_chamber`` off every reflecting hyperplane.  Paths stop at T₀
    exactly when min k < 1/2.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dimension,) or not np.isfinite(x0).all():
        raise InvalidArgumentError(f"x0 must be {system.dimension} finite coordinates")
    if any_chamber:
        if np.any(system.positive_roots @ x0 == 0.0):
            raise InvalidArgumentError("x0 lies on a reflecting hyperplane")
    elif chamber_contains(system.positive_roots, x0) != "interior":
        raise InvalidArgumentError("x0 must lie in the open chamber")
    params = _engine.EngineParams(
        positive_roots=system.positive_roots,
        kvec=k.per_positive(),
        x0=x0,
        tgrid=config.time_grid(),
        seed=config.seed,
        stop_at_t0=k.min_value < 0.5,
        record=record,
        **clocks,
    )
    return _engine.run_paths(params, config.n_paths, threads=threads)


def _run(res: _engine.EngineResult, states, jumps) -> Run:
    """The run of ``res`` whose paths end as ``states`` with jump log
    ``jumps`` (both None when not recorded); freezes the arrays it holds."""
    if states is not None:
        for a in (res.tgrid, states, *jumps):
            a.flags.writeable = False
    return Run(
        times=res.tgrid, stop_index=res.stop_index, t0_times=res.t0_time,
        final_states=(res.final if states is None
                      else states[np.arange(len(states)), res.stop_index]),
        termination=np.array([_engine.TERMINATION_LABELS[int(c)]
                              for c in res.termination]),
        wall_contact=res.wall_contact, min_wall_distance=res.min_wall_distance,
        n_rejected=res.n_rejected, states=states, jumps=jumps)


def _trajectories_from_engine(run: Run):
    """One ``Trajectory`` per path of a recorded run, viewing its arrays."""
    jumps = run.jumps
    events = [
        JumpEvent(time=t, root=r, pre=pre, post=post)
        for t, r, pre, post in zip(jumps.time.tolist(), jumps.root.tolist(),
                                   jumps.pre, jumps.post)
    ]
    bounds = np.searchsorted(jumps.path, np.arange(len(run.states) + 1)).tolist()
    return [
        Trajectory(
            path_id=j,
            times=run.times[: stop + 1],
            states=run.states[j, : stop + 1],
            events=tuple(events[bounds[j]:bounds[j + 1]]),
            termination=label,
            t0_time=t0 if math.isfinite(t0) else None,
        )
        for j, (stop, label, t0) in enumerate(zip(
            run.stop_index.tolist(), run.termination.tolist(), run.t0_times.tolist()))
    ]


def run_radial(system: RootSystem, k: Multiplicity, x0, config: SimulationConfig,
               *, record=True, threads=1) -> Run:
    """Euler–Maruyama paths of the radial process on [0, horizon].

    Paths with min k < 1/2 terminate at the first wall contact (T₀); with
    min k ≥ 1/2 early termination can only be a discretization artifact
    (termination "step_failure", and ``wall_contact`` marks near misses).
    With ``record`` the run also holds the grid states and an empty jump
    table.
    """
    res = _run_engine(system, k, x0, config, record=record, threads=threads)
    return _run(res, res.states, res.jumps if record else None)


# ---------------------------------------------------------------------------
# CSV trajectory exchange format
#
# Header: path_id,t,x_1,...,x_n,event with event in {"", "jump:<root>", "T0"};
# floats are written with 17 significant digits so replays are byte-identical.


def _fmt(v):
    return f"{float(v):.17g}"


def write_trajectories_csv(trajectories, fileobj_or_path):
    if isinstance(fileobj_or_path, (str,)) or hasattr(fileobj_or_path, "__fspath__"):
        with open(fileobj_or_path, "w", newline="") as f:
            _write_csv(trajectories, f)
    else:
        _write_csv(trajectories, fileobj_or_path)


def _write_csv(trajectories, f):
    if not trajectories:
        raise InvalidArgumentError("no trajectories to export")
    n = trajectories[0].states.shape[1]
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(["path_id", "t"] + [f"x_{i+1}" for i in range(n)] + ["event"])
    for traj in trajectories:
        rows = [(float(t), [_fmt(v) for v in state], "")
                for t, state in zip(traj.times, traj.states)]
        for ev in traj.events:
            rows.append((float(ev.time), [_fmt(v) for v in ev.post],
                         f"jump:{ev.root}"))
        rows.sort(key=lambda r: (r[0], r[2]))
        if traj.termination == "T0" and rows:
            t_last, coords, _ = rows[-1]
            rows[-1] = (t_last, coords, "T0")
        for t, coords, event in rows:
            writer.writerow([str(traj.path_id), _fmt(t)] + coords + [event])


def read_trajectories_csv(fileobj_or_path):
    """Parse the CSV format back into plain per-path dicts (for tooling)."""
    if isinstance(fileobj_or_path, (str,)) or hasattr(fileobj_or_path, "__fspath__"):
        with open(fileobj_or_path, newline="") as f:
            return _read_csv(f)
    return _read_csv(fileobj_or_path)


def _read_csv(f):
    reader = csv.reader(f)
    header = next(reader, [])
    if header[:2] != ["path_id", "t"] or header[-1] != "event":
        raise InvalidArgumentError("not a trajectory CSV (bad header)")
    n = len(header) - 3
    paths = {}
    for row in reader:
        pid = int(row[0])
        rec = paths.setdefault(pid, {"t": [], "x": [], "event": []})
        rec["t"].append(float(row[1]))
        rec["x"].append([float(v) for v in row[2:2 + n]])
        rec["event"].append(row[-1])
    if not paths:
        raise InvalidArgumentError("trajectory CSV has no rows")
    for rec in paths.values():
        rec["t"] = np.array(rec["t"])
        rec["x"] = np.array(rec["x"])
    return paths
