"""Reconstruction of the full jump process from its radial part.

Jumps are added one positive root at a time.  For the enumeration
(α_1, …, α_m) the i-th lift turns a process Y^{i−1} into Y^i whose
generator gains the term k(α_i)(u(σ_{α_i}x) − u(x))/(x·α_i)².  Two
equivalent-in-law realizations are provided:

* general-clock: the process is simulated stepwise while the integrated
  intensity Λ_i(t) = c_i ∫ ds/(Y_s·α_i)² accumulates; when Λ_i crosses an
  independent Exp(1) threshold the state reflects across α_i and the same
  dynamics continue from the reflected point.

* shortcut: when σ_{α_i} maps {±α_1, …, ±α_{i−1}} onto itself, the lift
  is an independent unit-rate Poisson flip evaluated along the additive
  clock, Y^i_t = σ_{α_i}^{N(c_i·Ã_t)} Y^{i−1}_t with
  Ã_t = ∫_0^t ds/(Y^{i−1}_s·α_i)².

A plan mixing modes is realized in two phases: every stage up to the last
general-mode stage runs inside one stepwise engine as a clock (legal for
the shortcut-marked stages among them because their invariance condition
makes the two realizations agree in law), and the remaining shortcut
stages are applied as Poisson flips over the recorded paths.  Flipping a
recorded path is only lawful under the invariance condition, which is why
general mode can never be realized on top of a frozen path.

A flipped path's inherited jumps change direction: a jump across α_j seen
through σ_{α_i} is a jump across ±σ_{α_i}(α_j), which the invariance
condition keeps inside the already-lifted roots.  The jump log re-labels
such events accordingly, so every logged event satisfies
post = pre − (α·pre)α for its recorded root exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import _engine
from .errors import (
    InvalidArgumentError,
    InvalidPlanError,
    SingularClockError,
    UnsupportedRegimeError,
)
from .radial import Run, SimulationConfig, _run, _run_engine
from .rng import FLIP, keys, stream
from .root_systems import (
    Multiplicity,
    RootSystem,
    _as_enumeration,
    _match_root,
    check_invariance_condition,
    reflect,
)

CLOCK_BLOCK = 1 << 18  # grid points per batch of clocks; bounds flip-stage temporaries


@dataclass(frozen=True)
class LiftPlan:
    """A full lift recipe: enumeration of R₊, per-stage rates and modes."""

    system: RootSystem
    k: Multiplicity
    enumeration: tuple
    rates: tuple
    modes: tuple

    @property
    def n_stages(self):
        return len(self.enumeration)

    def to_dict(self):
        return {
            "enumeration": [int(i) for i in self.enumeration],
            "modes": list(self.modes),
            "rates": [float(r) for r in self.rates],
        }


def build_lift_plan(system, k, *, rates=None, enumeration=None, mode="auto"):
    """Assemble and validate a ``LiftPlan``.

    ``rates`` is the multiplicity family feeding the jump intensities (the
    drift multiplicity ``k`` itself for the standard process, k′ for the
    two-parameter variant); ``mode`` is "auto", "shortcut", "general", or
    one mode string per stage.  Shortcut stages must satisfy the
    invariance condition σ_{α_i}({±α_1, …, ±α_{i−1}}) = {±α_1, …, ±α_{i−1}}.
    """
    enumeration = _as_enumeration(system, enumeration)
    m = system.n_positive
    if len(enumeration) != m:
        raise InvalidArgumentError("enumeration must order all positive roots")
    rate_mult = k if rates is None else rates
    per_pos = rate_mult.per_positive()
    stage_rates = tuple(float(per_pos[i]) for i in enumeration)
    if isinstance(mode, str):
        if mode == "auto":
            modes = tuple(
                "shortcut" if check_invariance_condition(system, i + 1, enumeration)
                else "general"
                for i in range(m)
            )
        elif mode in ("shortcut", "general"):
            modes = (mode,) * m
        else:
            raise InvalidArgumentError(f"unknown lift mode {mode!r}")
    else:
        modes = tuple(mode)
        if len(modes) != m or any(md not in ("shortcut", "general") for md in modes):
            raise InvalidArgumentError("modes must list 'shortcut'/'general' per stage")
    for i, md in enumerate(modes):
        if md == "shortcut" and not check_invariance_condition(system, i + 1, enumeration):
            raise InvalidPlanError(
                f"stage {i + 1}: shortcut requested but σ_α does not preserve "
                "the previously lifted roots"
            )
    return LiftPlan(system=system, k=k, enumeration=enumeration,
                    rates=stage_rates, modes=modes)


def cumulative_time_change(times, states, alpha):
    """Trapezoidal Ã_t = ∫_0^t ds/(Y_s·α)² along recorded paths.

    ``states`` has shape (..., M+1, n) over the grid ``times``; the result
    has shape (..., M+1).  Strictly increasing; raises
    ``SingularClockError`` if a path touches the hyperplane of α on the grid.
    """
    dots = states @ alpha
    if np.any(dots == 0.0):
        raise SingularClockError("(Y·α)² vanishes at a grid point")
    inv2 = np.power(dots, -2.0, out=dots)
    seg = np.add(inv2[..., :-1], inv2[..., 1:])
    seg *= 0.5
    seg *= np.diff(times)
    lam = np.zeros(inv2.shape)
    np.cumsum(seg, axis=-1, out=lam[..., 1:])
    return lam


def _arrivals(rng, first, total):
    """Arrival times below ``total`` of a unit-rate Poisson process whose
    first arrival ``first`` was drawn from ``rng``.

    Running sums of Exp(1) draws, added in draw order, so the values are
    the same as adding one draw at a time.
    """
    size = int(total + 4.0 * np.sqrt(total)) + 8
    arrivals, more = np.array([first]), size - 1
    while arrivals[-1] < total:
        draws = rng.standard_exponential(more)
        draws[0] += arrivals[-1]
        arrivals = np.concatenate([arrivals, np.cumsum(draws)])
        more = size
    return arrivals[:np.searchsorted(arrivals, total)]


def _merge_ranks(flip_path, flip_times, jump_path, jump_time):
    """Flips and logged jumps, each sorted by (path, time), merged in that
    order with flips first on ties.  Returns, per flip, the number of jumps
    before it and, per jump, the number of its path's flips at or before it.
    """
    # numpy orders complex numbers lexicographically: path + i·time.
    flip_key, jump_key = flip_path + 1j * flip_times, jump_path + 1j * jump_time
    return (np.searchsorted(jump_key, flip_key),
            np.searchsorted(flip_key, jump_key, side="right")
            - np.searchsorted(flip_path, jump_path))


def _flip_jumps(times, rows, stop, lo, hi, owner, flip_times, jumps, k, alpha):
    """(pre, post) of a block's new flips, read off the paths before the stage.

    Flip i belongs to the path of row ``owner[i]`` of ``rows``, ``stop``,
    ``lo`` and ``hi``: its grid states, its stop index and its logged jumps
    ``lo:hi``; ``k[i]`` is the first of these at or after the flip.  The
    state at a flip time is interpolated linearly between the nearest grid
    times, or logged jumps when one falls in between (the path jumps
    there).  Every second flip of a path starts from the reflected path.
    """
    j = np.clip(np.searchsorted(times, flip_times), 1, stop[owner])
    t_lo, x_lo = times[j - 1], rows[owner, j - 1]
    t_hi, x_hi = times[j], rows[owner, j]
    use = np.flatnonzero(k > lo[owner])
    use = use[jumps.time[k[use] - 1] > t_lo[use]]
    t_lo[use], x_lo[use] = jumps.time[k[use] - 1], jumps.post[k[use] - 1]
    use = np.flatnonzero(k < hi[owner])
    use = use[jumps.time[k[use]] < t_hi[use]]
    t_hi[use], x_hi[use] = jumps.time[k[use]], jumps.pre[k[use]]
    pre = x_hi - x_lo
    pre *= ((flip_times - t_lo) / (t_hi - t_lo))[:, None]
    pre += x_lo
    # owner is sorted, so searchsorted finds the first flip of each path.
    second = (np.arange(len(owner)) - np.searchsorted(owner, owner)) % 2 == 1
    # np.vecdot matches a 1-D ``pre @ alpha``, so post = pre − (α·pre)α exactly.
    pre[second] -= np.vecdot(pre[second], alpha)[:, None] * alpha
    return pre, pre - np.vecdot(pre, alpha)[:, None] * alpha


def _flip_stage(states, stop_index, jumps, times, system, root_position, rate,
                seed, stage_index):
    """Apply the independent-Poisson lift to a batch of recorded paths.

    Only lawful when the invariance condition holds at this stage (the
    plan builder enforces that).  Flip times are the crossings of the
    additive clock by cumulative Exp(1) draws from the per-path flip
    stream.  Every path's stream is opened, but only a path whose first
    arrival falls below its clock total draws more; everything else runs
    over all flips of a block of paths at once.  ``states`` (N, M+1, n) is
    reflected in place wherever a path has flipped an odd number of times;
    returns the new jump table.
    """
    pos = system.positive_roots
    alpha = pos[root_position]
    n_paths, n_times = states.shape[:2]
    bounds = np.searchsorted(jumps.path, np.arange(n_paths + 1))
    flipped = np.zeros(len(jumps.time), dtype=bool)
    new = []

    def flip(paths, counts, flip_times):
        """Flip ``paths[i]`` at its ``counts[i]`` sorted ``flip_times``.

        A function, so that a block's temporaries, sized by its flips, are
        freed before the next block and the final jump table.
        """
        owner = np.repeat(np.arange(len(paths)), counts)
        rows = states[paths]  # as before this stage
        jl, jh = bounds[paths[0]], bounds[paths[-1] + 1]
        k, flips_before = _merge_ranks(paths[owner], flip_times,
                                       jumps.path[jl:jh], jumps.time[jl:jh])
        flipped[jl:jh] = flips_before % 2 == 1
        pre, post = _flip_jumps(times, rows, stop_index[paths], bounds[paths],
                                bounds[paths + 1], owner, flip_times, jumps, jl + k,
                                alpha)
        new.append((paths[owner], flip_times, np.full(len(owner), root_position),
                    pre, post))
        # A grid point is reflected when an odd number of its path's flips
        # come at or before it, up to the path's stop.  uint8 sums wrap at
        # 256, which keeps their parity.
        at = owner * (n_times + 1) + np.searchsorted(times, flip_times)
        flips = np.bincount(at, minlength=len(paths) * (n_times + 1))
        odd = np.cumsum(flips.reshape(len(paths), -1)[:, :-1], axis=1, dtype=np.uint8)
        odd = (odd & 1).view(bool)
        odd &= np.arange(n_times) <= stop_index[paths][:, None]
        # A stacked ``rows @ alpha`` matches each path's 2-D product, as a
        # flipping path has two grid points or more (numpy computes a
        # one-row product as a dot, which can differ in the last bit).
        dots = (rows @ alpha)[odd]
        for i, a in enumerate(alpha):
            rows[..., i][odd] -= dots * a
        states[paths] = rows

    flip_keys = keys(seed, FLIP, stage_index, np.arange(n_paths))
    block = max(1, CLOCK_BLOCK // n_times)
    for first in range(0, n_paths, block):
        stop = stop_index[first:first + block]
        clocks = cumulative_time_change(times, states[first:first + block], alpha)
        clocks *= rate
        paths, flip_times = [], []
        for p, total in enumerate(clocks[np.arange(len(stop)), stop].tolist()):
            rng = stream(flip_keys[first + p])
            arrival = rng.standard_exponential()
            if arrival < total:
                end = int(stop[p]) + 1
                flip_times.append(np.interp(_arrivals(rng, arrival, total),
                                            clocks[p, :end], times[:end]))
                paths.append(first + p)
        if paths:
            flip(np.array(paths), [len(f) for f in flip_times],
                 np.concatenate(flip_times))

    # A jump across β made while the path was flipped is, seen through σ_α,
    # a jump across ±σ_α(β), a positive root since R is closed under its
    # reflections.  Every logged post is pre − (β·pre)β exactly.
    relabel = np.array([max(_match_root(pos, im), _match_root(pos, -im))
                        for im in reflect(alpha, pos)])
    root = np.where(flipped, relabel[jumps.root], jumps.root)
    pre = jumps.pre.copy()
    pre[flipped] -= np.vecdot(pre[flipped], alpha)[:, None] * alpha
    beta = pos[root]
    post = pre - np.vecdot(pre, beta)[:, None] * beta
    columns = [np.concatenate(c)
               for c in zip((jumps.path, jumps.time, root, pre, post), *new)]
    order = np.lexsort((columns[1], columns[0]))  # path, then time; stable
    return _engine.JumpTable(*(c[order] for c in columns))


def simulate_dunkl(plan, x0, config: SimulationConfig, *, stages=None, threads=1) -> Run:
    """Simulate Y^i for i = ``stages`` (default: all m) under a lift plan.

    The start point may sit in any chamber; the recipe starts from the
    extended radial dynamics at x0 and adds jumps stage by stage.  All
    drift multiplicities must be ≥ 1/2 (below that the radial part can
    reach the walls and the construction does not apply).  The run's
    ``jumps`` log every stage's jumps.
    """
    system = plan.system
    if plan.k.min_value < 0.5:
        raise UnsupportedRegimeError(
            "the jump reconstruction requires every k(α) ≥ 1/2"
        )
    if any(r < 0 for r in plan.rates):
        raise InvalidArgumentError("jump rates must be ≥ 0")
    m = plan.n_stages
    n_stages = m if stages is None else int(stages)
    if not 0 <= n_stages <= m:
        raise InvalidArgumentError(f"stages must lie in 0..{m}")
    # Stages 1..g, up to the last general-mode one, run as engine clocks.
    g = max((i for i, md in enumerate(plan.modes[:n_stages], start=1)
             if md == "general"), default=0)

    res = _run_engine(system, plan.k, x0, config, record=True, threads=threads,
                      any_chamber=True,
                      clock_positions=tuple(plan.enumeration[:g]),
                      clock_rates=np.asarray(plan.rates[:g], dtype=float))
    states, jumps = res.states, res.jumps
    for s in range(g + 1, n_stages + 1):
        jumps = _flip_stage(states, res.stop_index, jumps, res.tgrid, system,
                            plan.enumeration[s - 1], plan.rates[s - 1], config.seed, s)
    return _run(res, states, jumps)
