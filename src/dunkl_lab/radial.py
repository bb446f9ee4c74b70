"""Simulation of the chamber-valued radial process.

The radial process solves dX = dβ + ∇ log ϖ_k(X) dt inside the chamber C,
with ∇ log ϖ_k(x) = Σ_{α∈R₊} k(α) α/(x·α).  When every multiplicity is at
least 1/2 the solution never reaches ∂C and proposals that cross a wall
are pure discretization error (rejected and bisected).  When some
multiplicity is below 1/2 the process genuinely hits the wall in finite
time; paths then terminate at the first time the wall distance drops
below ε_wall·(1 + ‖x‖), reported as the hitting time T₀.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _engine
from .errors import InvalidArgumentError
from .root_systems import Multiplicity, RootSystem, chamber_contains


@dataclass(frozen=True)
class SimulationConfig:
    """Horizon, grid, path count, seed, and wall policy for one run.

    ``wall_policy``: "reject_halve" rejects and bisects wall-crossing
    proposals; "stop_at_t0" terminates the path instead; "auto" picks
    reject_halve when min k ≥ 1/2 and stop_at_t0 otherwise.
    """

    horizon: float
    dt: float
    n_paths: int
    seed: int
    wall_policy: str = "auto"
    max_halvings: int = 20
    eps_wall: float = 1e-8

    def __post_init__(self):
        if not (self.horizon > 0 and self.dt > 0 and self.dt <= self.horizon):
            raise InvalidArgumentError("need 0 < dt ≤ horizon")
        if self.n_paths < 1:
            raise InvalidArgumentError("need at least one path")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be a nonnegative integer")
        if self.wall_policy not in ("auto", "reject_halve", "stop_at_t0"):
            raise InvalidArgumentError(f"unknown wall policy {self.wall_policy!r}")
        if self.max_halvings < 1:
            raise InvalidArgumentError("max_halvings must be ≥ 1")

    def time_grid(self):
        n_steps = int(math.ceil(self.horizon / self.dt - 1e-12))
        grid = np.minimum(np.arange(n_steps + 1) * self.dt, self.horizon)
        grid[-1] = self.horizon
        return grid

    def resolve_policy(self, k: Multiplicity) -> str:
        if self.wall_policy != "auto":
            return self.wall_policy
        return "reject_halve" if k.min_value >= 0.5 else "stop_at_t0"


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


class _JumpTable(NamedTuple):
    """The jump log of a batch as flat arrays, sorted by (path, time)."""

    path: np.ndarray    # (E,)
    time: np.ndarray    # (E,)
    root: np.ndarray    # (E,) position in the positive enumeration
    pre: np.ndarray     # (E, n)
    post: np.ndarray    # (E, n)


def _jump_table(res: _engine.EngineResult):
    rows = [ev for path_events in res.events for ev in path_events]
    n = res.final.shape[1]
    return _JumpTable(
        path=np.repeat(np.arange(len(res.events)), [len(e) for e in res.events]),
        time=np.array([ev[0] for ev in rows], dtype=float),
        root=np.array([ev[1] for ev in rows], dtype=np.int64),
        pre=np.array([ev[2] for ev in rows], dtype=float).reshape(-1, n),
        post=np.array([ev[3] for ev in rows], dtype=float).reshape(-1, n),
    )


def _trajectories_from_engine(res: _engine.EngineResult, states, jumps: _JumpTable):
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
    params = _engine.EngineParams(
        positive_roots=system.positive_roots,
        kvec=k.per_positive(),
        x0=x0,
        tgrid=config.time_grid(),
        seed=config.seed,
        policy=config.resolve_policy(k),
        t0_detect=k.min_value < 0.5,
        eps_wall=config.eps_wall,
        max_halvings=config.max_halvings,
        record=record,
    )
    res = _engine.run_paths(params, config.n_paths, threads=threads)
    return RadialRun(
        tgrid=res.tgrid,
        final_states=res.final,
        termination=np.array([_engine.TERMINATION_LABELS[int(c)]
                              for c in res.termination]),
        t0_times=res.t0_time,
        wall_contact=res.wall_contact,
        min_wall_distance=res.min_wall_distance,
        n_rejected=res.n_rejected,
        trajectories=(_trajectories_from_engine(res, res.states, _jump_table(res))
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
