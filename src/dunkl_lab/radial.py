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

import contextlib
import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _engine
from .errors import InvalidArgumentError, _integral
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
        if not _integral(self.n_paths) or self.n_paths < 1:
            raise InvalidArgumentError("need an integral number of paths, at least one")
        if not _integral(self.seed) or self.seed < 0:
            raise InvalidArgumentError("seed must be a nonnegative integer")

    def time_grid(self):
        n_steps = int(math.ceil(self.horizon / self.dt - 1e-12))
        grid = np.minimum(np.arange(n_steps + 1) * self.dt, self.horizon)
        grid[-1] = self.horizon
        return grid


class JumpTable(NamedTuple):
    """A jump log as flat arrays, sorted by (path, time)."""

    path: np.ndarray    # (E,)
    time: np.ndarray    # (E,)
    root: np.ndarray    # (E,) position in the positive enumeration
    pre: np.ndarray     # (E, n)
    post: np.ndarray    # (E, n)


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
    (path, time), are read-only.  An unrecorded run has no ``states``; an
    unrecorded radial run has no ``jumps`` either, while an unrecorded
    lift keeps its jump table.  A path's grid states are valid up to
    ``stop_index``.
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
    jumps: Optional[JumpTable]

    @property
    def hit_fraction(self):
        """Fraction of paths whose wall distance dipped below threshold."""
        return float(np.mean(self.wall_contact | (self.termination == "T0")))

    @property
    def n_jumps(self):
        """Jumps per path; an unrecorded radial run has no jump table, so
        this raises ``AttributeError`` there."""
        return np.bincount(self.jumps.path, minlength=len(self.stop_index))

    @functools.cached_property
    def trajectories(self):
        """One ``Trajectory`` per path, built on first read; None unrecorded."""
        return None if self.states is None else _trajectories_from_engine(self)


def _run_engine(system: RootSystem, k: Multiplicity, x0, config: SimulationConfig, *,
                record, threads, any_chamber=False, lift=None) -> _engine.EngineResult:
    """Run ``config``'s paths of drift k from ``x0``, their blocks lifted
    by ``lift`` as ``_engine.run_paths`` says.

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
    )
    return _engine.run_paths(params, config.n_paths, threads=threads, lift=lift)


def _no_jumps(n):
    """An empty jump table of points with ``n`` coordinates."""
    return JumpTable(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64),
                     np.zeros((0, n)), np.zeros((0, n)))


def _run(res: _engine.EngineResult) -> Run:
    """The run of ``res``; a recorded run without a jump table gets an
    empty one.  Freezes the arrays it holds."""
    states, jumps = res.states, res.jumps
    if states is not None:
        jumps = _no_jumps(states.shape[-1]) if jumps is None else jumps
        res.tgrid.flags.writeable = states.flags.writeable = False
    for a in jumps or ():
        a.flags.writeable = False
    return Run(
        times=res.tgrid, stop_index=res.stop_index, t0_times=res.t0_time,
        final_states=(res.final if states is None
                      else states[np.arange(len(states)), res.stop_index]),
        termination=_engine.TERMINATION_LABELS[res.termination],
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
    return _run(res)


# ---------------------------------------------------------------------------
# CSV trajectory exchange format
#
# Header: path_id,t,x_1,...,x_n,event with event in {"", "jump:<root>", "T0"};
# floats are written with 17 significant digits so replays are byte-identical.


def _opened(fileobj_or_path, mode):
    """A path opened in ``mode``, or a file object, which is left open."""
    if isinstance(fileobj_or_path, str) or hasattr(fileobj_or_path, "__fspath__"):
        return open(fileobj_or_path, mode, newline="")
    return contextlib.nullcontext(fileobj_or_path)


def write_trajectories_csv(run: Run, fileobj_or_path):
    """Write a recorded run's paths in turn, each path's rows (its grid points
    up to its stop and the states just after its jumps) in one stable sort
    by (t, event), the last row of a path stopped at T₀ marked ``T0``.  An
    unrecorded run is refused."""
    if run.states is None:
        raise InvalidArgumentError("the run holds no recorded paths; simulate it with record=True")
    jumps, n = run.jumps, run.states.shape[-1]
    # events sort as strings, a grid row's "" first: root 10 before root 2
    names, rank = np.unique(["", *(f"jump:{r}" for r in jumps.root.tolist())],
                            return_inverse=True)
    bounds = np.searchsorted(jumps.path, np.arange(len(run.states) + 1)).tolist()
    with _opened(fileobj_or_path, "w") as f:
        f.write(",".join(["path_id", "t", *(f"x_{i + 1}" for i in range(n)), "event"]) + "\n")
        for p, (stop, label) in enumerate(zip(run.stop_index.tolist(), run.termination.tolist())):
            lo, hi = bounds[p], bounds[p + 1]
            key = np.concatenate((np.zeros(stop + 1, int), rank[lo + 1:hi + 1]))
            t = np.concatenate((run.times[: stop + 1], jumps.time[lo:hi]))
            order = np.lexsort((key, t))
            x = np.concatenate((run.states[p, : stop + 1], jumps.post[lo:hi]))
            ends = names[key[order]].tolist()
            if label == "T0":
                ends[-1] = "T0"
            head = f"{p}," + "%.17g," * (n + 1)
            f.write("".join([f"{head}{e}\n" for e in ends])
                    % tuple(np.column_stack((t, x))[order].ravel().tolist()))


def read_trajectories_csv(fileobj_or_path):
    """Parse the CSV format back into plain per-path dicts (for tooling); a
    malformed row, or a time or coordinate that is not finite, is refused."""
    from array import array    # only here, so that importing the package loads no more modules

    with _opened(fileobj_or_path, "r") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if header[:2] != ["path_id", "t"] or header[-1] != "event":
            raise InvalidArgumentError("not a trajectory CSV (bad header)")
        n = len(header) - 3
        paths = {}
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError
                pid, t, x = int(row[0]), float(row[1]), [float(v) for v in row[2:2 + n]]
            except ValueError:
                raise InvalidArgumentError(
                    f"trajectory CSV line {reader.line_num}: malformed row") from None
            if not (math.isfinite(t) and all(map(math.isfinite, x))):
                raise InvalidArgumentError(
                    f"trajectory CSV line {reader.line_num}: a value is not finite")
            rec = paths.get(pid)
            if rec is None:     # values go to flat arrays of doubles, not to float objects
                rec = paths[pid] = {"t": array("d"), "x": array("d"), "event": []}
            rec["t"].append(t)
            rec["x"].extend(x)
            rec["event"].append(row[-1])
    if not paths:
        raise InvalidArgumentError("trajectory CSV has no rows")
    for rec in paths.values():
        rec["t"] = np.array(rec["t"])
        rec["x"] = np.array(rec["x"]).reshape(len(rec["t"]), n)
    return paths
