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
import math
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
        if not (self.horizon > 0 and self.dt > 0 and self.dt <= self.horizon):
            raise InvalidArgumentError("need 0 < dt ≤ horizon")
        if self.n_paths < 1:
            raise InvalidArgumentError("need at least one path")
        if self.seed < 0:
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


@dataclass
class RadialRun:
    """Batch output: summary arrays always, trajectories when recorded."""

    tgrid: np.ndarray
    final_states: np.ndarray
    termination: np.ndarray      # label per path
    t0_times: np.ndarray         # NaN unless the path hit the wall
    wall_contact: np.ndarray
    min_wall_distance: np.ndarray
    n_rejected: np.ndarray
    trajectories: Optional[list] = None

    @property
    def hit_fraction(self):
        """Fraction of paths whose wall distance dipped below threshold."""
        return float(np.mean(self.wall_contact | (self.termination == "T0")))


def _run_engine(system: RootSystem, k: Multiplicity, x0, config: SimulationConfig, *,
                record, threads, **clocks) -> _engine.EngineResult:
    """Run ``config``'s paths of drift k from ``x0``; ``clocks`` holds the
    optional ``EngineParams`` fields (jump clocks, a noise transform).

    Paths stop at T₀ exactly when min k < 1/2.
    """
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


def _trajectories_from_engine(res: _engine.EngineResult, states,
                              jumps: _engine.JumpTable):
    """One ``Trajectory`` per path; freezes the batch arrays it views."""
    for a in (res.tgrid, states, jumps.pre, jumps.post):
        a.flags.writeable = False
    events = [
        JumpEvent(time=t, root=r, pre=pre, post=post)
        for t, r, pre, post in zip(jumps.time.tolist(), jumps.root.tolist(),
                                   jumps.pre, jumps.post)
    ]
    bounds = np.searchsorted(jumps.path, np.arange(len(states) + 1)).tolist()
    return [
        Trajectory(
            path_id=j,
            times=res.tgrid[: stop + 1],
            states=states[j, : stop + 1],
            events=tuple(events[bounds[j]:bounds[j + 1]]),
            termination=_engine.TERMINATION_LABELS[int(res.termination[j])],
            t0_time=(float(res.t0_time[j])
                     if np.isfinite(res.t0_time[j]) else None),
        )
        for j, stop in enumerate(res.stop_index.tolist())
    ]


def run_radial(system: RootSystem, k: Multiplicity, x0, config: SimulationConfig,
               *, record=True, threads=1) -> RadialRun:
    """Euler–Maruyama paths of the radial process on [0, horizon].

    Paths with min k < 1/2 terminate at the first wall contact (T₀); with
    min k ≥ 1/2 early termination can only be a discretization artifact
    (termination "step_failure", and ``wall_contact`` marks near misses).
    With ``record`` the run also holds one ``Trajectory`` per path.
    """
    x0 = np.asarray(x0, dtype=float)
    if chamber_contains(system.positive_roots, x0) != "interior":
        raise InvalidArgumentError("x0 must lie in the open chamber")
    res = _run_engine(system, k, x0, config, record=record, threads=threads)
    return RadialRun(
        tgrid=res.tgrid,
        final_states=res.final,
        termination=np.array([_engine.TERMINATION_LABELS[int(c)]
                              for c in res.termination]),
        t0_times=res.t0_time,
        wall_contact=res.wall_contact,
        min_wall_distance=res.min_wall_distance,
        n_rejected=res.n_rejected,
        trajectories=(_trajectories_from_engine(res, res.states, res.jumps)
                      if record else None),
    )


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
    header = next(reader)
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
    for rec in paths.values():
        rec["t"] = np.array(rec["t"])
        rec["x"] = np.array(rec["x"])
    return paths
