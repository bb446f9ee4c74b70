"""Reconstruction of the full jump process from its radial part.

The full process is the skew product X = v·Z: Z is the radial path in x₀'s
chamber, as the engine records it, and the chamber label v ∈ W starts at 1.
For the enumeration (α_1, …, α_m), stage i adds the jumps across α_i at rate
c_i/(X·α_i)².  Seen from Z, a jump across α = ±v·β moves v to v·σ_β at rate
c(β)/(β·Z)² (the rates are W-invariant).  Z stays in its open chamber, so
each positive root β has a radial clock Λ_β(t) = c(β)∫ds/(β·Z_s)², exact
along each straight segment of the recorded path: c·h/(d₀·d₁), d = β·Z at
its ends.  The lift is one pass over Z, in blocks of paths, in two phases:

* stages 1..g, up to the last general-mode one, run jointly as competing
  clocks: each β carries a unit Poisson process on Λ_β, and an arrival at τ
  is a jump iff ±v(τ−)·β is among α_1..α_g (thinning by a predictable
  indicator, exact given the straight segments);
* each later (shortcut) stage i flips at the arrivals of a unit Poisson
  process on its additive clock Ã_t = c_i∫ds/(Y^{i−1}_s·α_i)², which along
  Y^{i−1} = v·Z is the radial clock of the β with ±v·β = α_i, piece by
  piece of the label path.  The flips are lawful only under the invariance
  condition σ_{α_i}({±α_1..±α_{i−1}}) = {±α_1..±α_{i−1}}, which the plan
  builder enforces: general mode cannot be realized by flipping a frozen
  Y^{i−1}, but it can on Z read together with its label, as above.

X on the grid is v·Z, written over the recorded states.  A jump is logged
with pre = v·Z(τ), Z interpolated along its segment, and post = σ_α·pre,
so post = pre − (α·pre)α exactly.  Each path draws from one ``FLIP``
stream, so neither blocking nor the engine's workers change the output.

A block's clocks are held time-major, as (grid point, root, path), and are
built in one sweep over tiles of ``CLOCK_TILE`` grid points: each tile's
dots, increments and running sums are formed while the tile is in cache.
They are freed before X = v·Z is written over its states and before the
next block's are built.  The label path is a flat table of pieces, one at each
path's start and one per jump, so the pass holds the recorded paths, one
block of clocks, and O(N + J) for the label path of N paths, J jumps.  An
unrecorded lift runs the pass on each engine block as soon as it exists
and keeps only its final states and jumps, so it holds one engine block's
states in place of all N paths'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidPlanError,
    SingularClockError,
    UnsupportedRegimeError,
    _integral,
)
from .radial import JumpTable, Run, SimulationConfig, _no_jumps, _run, _run_engine
from .rng import FLIP, keys, stream
from .root_systems import (
    Multiplicity,
    RootSystem,
    _as_enumeration,
    chamber_labels,
    check_invariance_condition,
    reflect,
)

MAX_CLOCK = 1e5        # a path's clock total above this is refused as absurd
LIFT_BLOCK = 1 << 20   # root-clock grid values per block of paths; bounds the pass's memory
CLOCK_TILE = 32        # grid points per tile of a block's clock sweep


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


def _stage_prefix(plan, stages):
    """``stages`` as a prefix of the plan's stages, all of them for None."""
    if stages is None:
        return plan.n_stages
    if not _integral(stages) or not 0 <= stages <= plan.n_stages:
        raise InvalidArgumentError(f"stages must be an integer in 0..{plan.n_stages}, "
                                   f"got {stages!r}")
    return int(stages)


def label_table(plan, stages):
    """The label chain's moves at stage prefix ``stages``, over group
    elements w (indices into ``weyl_group``) and positive roots β_b:
    ``root[w, b]`` is the position in R₊ of ±w·β_b, and ``flip[w, b]`` is
    the index of w·σ_b where that root is active, one of the first
    ``stages`` of the plan's enumeration, and w elsewhere."""
    pos, group = plan.system.positive_roots, plan.system.weyl_group
    root = np.abs(pos @ group @ np.ascontiguousarray(pos.T)).argmax(axis=1)
    flip = np.stack([chamber_labels(plan.system, group @ reflect(beta, pos.sum(axis=0)))
                     for beta in pos], axis=1)
    active = np.argsort(plan.enumeration)[root] < stages
    return root, np.where(active, flip, np.arange(len(group))[:, None])


def _dots(coord, alphas, out, scratch=None):
    """x·α into ``out[i]`` for each row α of ``alphas``, from the coordinate
    arrays ``coord(c)`` of x, each taken once: over α's nonzero coordinates,
    the first product sets ``out[i]`` and each later one is added, in
    coordinate order, so that every layout gets the same bits.  ``scratch``
    takes the later products."""
    started = np.zeros(len(alphas), dtype=bool)
    for c in np.flatnonzero(alphas.any(axis=0)):
        x = coord(c)
        for i in np.flatnonzero(alphas[:, c]):
            if started[i]:
                out[i] += np.multiply(x, alphas[i, c], out=scratch)
            else:
                np.multiply(x, alphas[i, c], out=out[i])
                started[i] = True
        del x   # one coordinate's copy at a time
    return out


def _increments(h, d, out):
    """The clock's increments h/(d₀·d₁) into ``out``, one per straight
    segment between consecutive grid points (axis 0) of the dots ``d`` =
    Y·α, d₀ and d₁ its dots.  Raises ``SingularClockError`` if a segment
    meets the hyperplane of α."""
    seg = np.multiply(d[:-1], d[1:], out=out)
    if not seg.min(initial=np.inf) > 0.0:
        raise SingularClockError("a path meets the hyperplane of α")
    return np.divide(h, seg, out=seg)


def cumulative_time_change(times, states, alpha):
    """Ã_t = ∫_0^t ds/(Y_s·α)² along recorded paths, exact on each straight
    segment between grid points: h/(d₀·d₁), with d = Y·α at its ends.

    ``states`` has shape (..., M+1, n) over the grid ``times`` (M+1,) and
    ``alpha`` has n coordinates; the result has shape (..., M+1).  Raises
    ``InvalidArgumentError`` for shapes that do not fit, and
    ``SingularClockError`` if a segment meets the hyperplane of α.
    """
    times, states = np.asarray(times), np.asarray(states)
    alpha = np.asarray(alpha, dtype=float)
    if states.ndim < 2 or times.shape != states.shape[-2:-1] or alpha.shape != states.shape[-1:]:
        raise InvalidArgumentError(
            f"cumulative_time_change needs times (M+1,), states (..., M+1, n) and alpha "
            f"(n,), got {times.shape}, {states.shape} and {alpha.shape}")
    d = np.empty(states.shape[:-1])
    _dots(lambda c: states[..., c], alpha[None], [d])
    inc = np.moveaxis(d, -1, 0)   # written over its own dots: ufuncs buffer an overlap
    _increments(np.diff(times).reshape(-1, *(1,) * (d.ndim - 1)), inc, inc[1:])
    inc[0] = 0.0
    return np.cumsum(d, axis=-1)


def _draws(gens, totals, first, path, root):
    """Each row's unit Poisson arrivals below its clock total, as (row,
    value) arrays: running sums of Exp(1) draws from its generator, from
    its first arrival on, until one passes the total.  A total above
    ``MAX_CLOCK`` raises ``SingularClockError``, naming the row's ``path``
    and ``root``, before any further draw."""
    for i in np.flatnonzero(totals > MAX_CLOCK)[:1]:
        raise SingularClockError(f"path {path[i]}: the clock of root {root[i]} reaches "
                                 f"{totals[i]:.6g}, above MAX_CLOCK = {MAX_CLOCK:g}")
    rows, values = [], []
    for i in np.flatnonzero(first < totals).tolist():
        arrival, total = first[i].item(), totals[i].item()
        while arrival < total:
            rows.append(i)
            values.append(arrival)
            arrival += gens[i].standard_exponential()
    return np.array(rows, dtype=np.int64), np.array(values)


def _search(column, value, lo, hi):
    """Per entry i, the largest j in lo[i]..hi[i] with column(j)[i] ≤ value[i],
    for a column nondecreasing in j and ≤ value at lo, where it is not read."""
    while np.any(lo < hi):
        mid = (lo + hi + 1) // 2
        up = column(mid) <= value
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid - 1)
    return lo


class _Clocks:
    """The radial clocks Λ_β of one block of recorded paths Z, for the
    positive ``roots`` β at ``rate`` c(β): ``values`` (M+1, m, P), by grid
    point, root and path, holds the sums Σ h/(d₀·d₁) and ``on_grid`` scales
    them by c(β) as it reads them.

    One sweep over tiles of ``CLOCK_TILE`` grid points builds them.  Each
    tile copies each coordinate of Z for its points into a time-major
    (T, P) array, puts the dots β·Z into a ring whose row 0 carries the
    dots at the point before the tile, forms its increments with one
    multiply, one wall check and one divide, and adds slab j − 1 into slab
    j.  So each (root, path) adds its increments in time order, as
    ``np.cumsum`` does, and the read values are c(β)·
    ``cumulative_time_change`` bit for bit.  A zero-rate root's ring rows
    stay +inf: its increments are 0 and it is never checked."""

    def __init__(self, times, states, stop, roots, rate):
        self.times, self.states, self.stop, self.roots, self.rate = times, states, stop, roots, rate
        n_times, n_paths = len(times), len(states)
        self.values = np.empty((n_times, len(roots), n_paths))
        self.values[0] = 0.0
        live = np.flatnonzero(rate)
        ring = np.full((CLOCK_TILE + 1, len(roots), n_paths), np.inf)
        slots = [ring[:, q] for q in live]
        scratch = np.empty((CLOCK_TILE, n_paths))
        h = np.diff(times)[:, None, None]

        def dots(lo, hi, rows):
            _dots(lambda c: states[:, lo:hi, c].T.copy(), roots[live],
                  [d[rows] for d in slots], scratch[:hi - lo])

        dots(0, 1, slice(0, 1))   # the row carried into the first tile
        for lo in range(1, n_times, CLOCK_TILE):
            hi = min(lo + CLOCK_TILE, n_times)
            dots(lo, hi, slice(1, hi - lo + 1))
            _increments(h[lo - 1:hi - 1], ring[:hi - lo + 1], self.values[lo:hi])
            for j in range(lo, hi):
                self.values[j] += self.values[j - 1]
            ring[0] = ring[hi - lo]

    def on_grid(self, j, q, path):
        """Λ_q of each path at grid point j."""
        return self.values[j, q, path] * self.rate[q]

    def _segment(self, path, q, j):
        """Step, d₀ and d₁ of grid segment j of each path for root q."""
        alpha = self.roots[q]
        return (self.times[j + 1] - self.times[j], np.vecdot(self.states[path, j], alpha),
                np.vecdot(self.states[path, j + 1], alpha))

    def at(self, path, q, t):
        """Λ_q of each path at time t ≤ its stop, exact on its segment:
        Λ(t_j + θh) = Λ(t_j) + c·h·θ/(d₀·d_θ), d_θ = d₀ + θ(d₁ − d₀)."""
        j = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 2)
        h, d0, d1 = self._segment(path, q, j)
        theta = (t - self.times[j]) / h
        return self.on_grid(j, q, path) + self.rate[q] * h * theta / (d0 * (d0 + theta * (d1 - d0)))

    def time_of(self, path, q, value):
        """The time at which Λ_q of each path reaches ``value``: on its segment
        θ = ρ·d₀²/(h − ρ·d₀·(d₁ − d₀)) for the remaining unit clock ρ."""
        j = _search(lambda j: self.on_grid(j, q, path), value, 0 * path, self.stop[path] - 1)
        h, d0, d1 = self._segment(path, q, j)
        rho = (value - self.on_grid(j, q, path)) / self.rate[q]
        theta = np.clip(rho * d0 * d0 / (h - rho * d0 * (d1 - d0)), 0.0, 1.0)
        return self.times[j] + theta * h


def _scan(opens, step, out):
    """out[i] = step(out[i − 1], i) for each piece i past the first of its
    path (path p's are opens[p]..opens[p + 1] − 1), all paths' rank r at once."""
    rank = np.arange(opens[-1]) - np.repeat(opens[:-1], np.diff(opens))
    order = np.argsort(rank, kind="stable")
    cuts = np.searchsorted(rank[order], np.arange(1, rank.max(initial=0) + 2)).tolist()
    prev = order - 1
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        i = order[lo:hi]
        out[i] = step(out[prev[lo:hi]], i)
    return out


def _walk(path, q, n_paths, start, flip):
    """The label path of events sorted by path, then time, as (label per
    piece, opens, at): path p has pieces opens[p]..opens[p + 1] − 1, the
    first at label ``start`` and one opened by each of its events e, at[e],
    where an event q moves w to flip[w, q]."""
    opens = np.searchsorted(path, np.arange(n_paths + 1)) + np.arange(n_paths + 1)
    at = np.arange(len(path)) + path + 1
    move = np.zeros(opens[-1], dtype=np.int64)
    move[at] = q
    label = _scan(opens, lambda w, i: flip[w, move[i]], np.full(opens[-1], start))
    return label, opens, at


def _act(group, w, x):
    """Each row of ``x`` mapped by the group element w of that row, summed
    in coordinate order."""
    out = np.empty(x.shape)
    for r in range(x.shape[1]):
        out[:, r] = group[:, r, 0][w] * x[:, 0]
        for c in range(1, x.shape[1]):
            out[:, r] += group[:, r, c][w] * x[:, c]
    return out


def _joint_stages(gens, clocks, first_path, start, flip):
    """Jumps (path, time, β) of the general-clock stages: each root's unit
    Poisson arrivals on Λ_β, kept where ``flip`` moves the label."""
    n_paths, m = len(gens), len(clocks.roots)
    totals = clocks.on_grid(clocks.stop[:, None], np.arange(m), np.arange(n_paths)[:, None])
    first = np.array([gen.standard_exponential(m) for gen in gens])
    # row i·m + β draws after row i·m + β − 1, from path i's stream
    rows, value = _draws([gen for gen in gens for _ in range(m)], totals.ravel(),
                         first.ravel(), np.repeat(first_path + np.arange(n_paths), m),
                         np.tile(np.arange(m), n_paths))
    path, q = np.divmod(rows, m)
    time = clocks.time_of(path, q, value)
    order = np.lexsort((time, path))
    label, _, at = _walk(path[order], q[order], n_paths, start, flip)
    moved = order[label[at] != label[at - 1]]
    return path[moved], time[moved], q[moved]


def _flip_stage(gens, clocks, first_path, jumps, start, flip, root, alpha):
    """Add the flips of a shortcut stage across root ``alpha`` to the jumps
    (path, time, β) of the stages before it.  On each piece of the label
    path v, the stage's additive clock is the radial clock of the β with
    ±v·β = α; a flip there is a jump across that β."""
    path, time, q = jumps
    n_paths = len(gens)
    label, opens, at = _walk(path, q, n_paths, start, flip)
    owner = np.repeat(np.arange(n_paths), np.diff(opens))
    # Piece i runs from its path's start or its jump to the next jump or the stop.
    begin = np.zeros(len(label))
    begin[at] = time
    end = np.append(begin[1:], 0.0)
    end[opens[1:] - 1] = clocks.times[clocks.stop]
    beta = np.argmax(root == alpha, axis=1)[label]
    lo = clocks.at(owner, beta, begin)
    ends = clocks.at(owner, beta, end) - lo
    _scan(opens, lambda e, i: e + ends[i], ends)   # increments to running totals, in place
    first = np.array([gen.standard_exponential() for gen in gens])
    fpath, value = _draws(gens, ends[opens[1:] - 1], first, first_path + np.arange(n_paths),
                          np.full(n_paths, alpha))
    # piece k of the path is the last to begin (at ends[k − 1], or 0) at or below value
    k = _search(lambda j: ends[j - 1], value, opens[fpath], opens[fpath + 1] - 1)
    rest = value - np.where(k > opens[fpath], ends[k - 1], 0.0)
    fq = beta[k]
    ftime = np.clip(clocks.time_of(fpath, fq, lo[k] + rest), begin[k], end[k])
    # A piece's flips follow its jump: keys 2·rank + 1 and 2·piece rank, as ranks in the path.
    key = np.concatenate([2 * (at - opens[path]) - 1, 2 * (k - opens[fpath])])
    path, time, q = (np.concatenate(c) for c in zip(jumps, (fpath, ftime, fq)))
    order = np.lexsort((time, key, path))
    return path[order], time[order], q[order]


def _relabel(times, states, roots, first_path, jumps, start, flip, root, group):
    """The jump table of a block's jumps (path, time, β), and X = v·Z on its
    grid, written over the block's states."""
    path, time, q = jumps
    n_times = len(times)
    # Grid point j of path p is row p·(M+1) + j of the block's points; a
    # reshape that copied would drop the writes below.
    points = states.reshape(-1, states.shape[-1], copy=False)
    label, _, piece = _walk(path, q, len(states), start, flip)
    labels, before = label[piece], label[piece - 1]
    j = np.clip(np.searchsorted(times, time, side="right") - 1, 0, n_times - 2)
    theta = ((time - times[j]) / (times[j + 1] - times[j]))[:, None]
    at = path * n_times + j
    z = np.take(points, at, axis=0)
    pre = _act(group, before, z + theta * (np.take(points, at + 1, axis=0) - z))
    alpha = roots[root[before, q]]
    # np.vecdot matches a 1-D ``pre @ alpha``, so post = pre − (α·pre)α exactly.
    post = pre - np.vecdot(pre, alpha)[:, None] * alpha
    # A jump's label holds on the grid points from its time to the path's
    # next jump.
    begin = np.searchsorted(times, time)
    end = np.append(begin[1:], 0)
    end[np.append(path[1:] != path[:-1], True)] = n_times
    moved = (labels != start) & (end > begin)
    count = (end - begin)[moved]
    flat = np.repeat(path[moved] * n_times + begin[moved] - (np.cumsum(count) - count),
                     count) + np.arange(count.sum())
    points[flat] = _act(group, np.repeat(labels[moved], count), np.take(points, flat, axis=0))
    return JumpTable(first_path + path, time, root[before, q], pre, post)


class _BlockLift:
    """The lift pass of the first ``n_stages`` stages of ``plan`` over the
    recorded radial paths Z of an engine result, in blocks of
    ``LIFT_BLOCK`` root-clock values.  It holds only arrays, so a worker
    process can run it on a block of an unrecorded run."""

    def __init__(self, plan, n_stages, seed):
        system = plan.system
        # Stages 1..g, up to the last general-mode one, run as joint clocks.
        g = max((i for i, md in enumerate(plan.modes[:n_stages], start=1)
                 if md == "general"), default=0)
        self.roots, self.group, self.seed = system.positive_roots, system.weyl_group, seed
        (self.root, self.flip), joint = label_table(plan, plan.n_stages), label_table(plan, g)[1]
        self.joint = joint if g else None
        self.shortcut = plan.enumeration[g:n_stages]
        self.start = int(chamber_labels(system, self.roots.sum(axis=0)))   # the identity
        self.rate = np.asarray(plan.rates)[np.argsort(plan.enumeration)]

    def __call__(self, res, first_path):
        """Write X = v·Z over ``res.states``, paths ``first_path`` on, and
        return their jump table."""
        states, times = res.states, res.tgrid
        n_paths, n_times = states.shape[:2]
        if self.joint is None and not self.shortcut:     # stage 0: X = Z
            return _no_jumps(states.shape[-1])
        flip_keys = keys(self.seed, FLIP, first_path + np.arange(n_paths))
        step = max(1, LIFT_BLOCK // (n_times * len(self.roots)))
        tables = []
        for first in range(0, n_paths, step):
            block = slice(first, first + step)
            clocks = _Clocks(times, states[block], res.stop_index[block], self.roots, self.rate)
            gens = [stream(key) for key in flip_keys[block]]
            jumps = (_joint_stages(gens, clocks, first_path + first, self.start, self.joint)
                     if self.joint is not None else _no_jumps(0)[:3])
            for alpha in self.shortcut:
                jumps = _flip_stage(gens, clocks, first_path + first, jumps, self.start,
                                    self.flip, self.root, alpha)
            del clocks   # freed before the relabel and the next block's clocks
            tables.append(_relabel(times, states[block], self.roots, first_path + first, jumps,
                                   self.start, self.flip, self.root, self.group))
        return JumpTable(*map(np.concatenate, zip(*tables)))


def simulate_dunkl(plan, x0, config: SimulationConfig, *, stages=None, threads=1,
                   record=True) -> Run:
    """Simulate Y^i for i = ``stages`` (default: all m) under a lift plan.

    The start point may sit in any chamber; the engine records the radial
    path Z in x₀'s chamber, and one pass over it adds the jumps of the
    first ``stages`` stages (see the module docstring).  All drift
    multiplicities must be ≥ 1/2 (below that the radial part can reach the
    walls and the construction does not apply).  The run's ``jumps`` log
    every stage's jumps.  Raises ``SingularClockError`` if a path's clock
    total exceeds ``MAX_CLOCK``.

    With ``record=False`` each engine block is lifted as soon as it has
    run, in blocks whose states fit ``_engine.STATES_BUDGET`` bytes, and
    only its final states X_T and its jumps are kept: the run's ``states``
    and ``trajectories`` are None, and memory is one block's states and
    clocks whatever N and the grid are; with ``threads`` > 1 each block
    is lifted in the worker that ran it.  A recorded run is lifted in one
    pass after the engine.  Every output is the same bit for bit either
    way.
    """
    system = plan.system
    if plan.k.min_value < 0.5:
        raise UnsupportedRegimeError(
            "the jump reconstruction requires every k(α) ≥ 1/2"
        )
    if any(r < 0 for r in plan.rates):
        raise InvalidArgumentError("jump rates must be ≥ 0")
    lift = _BlockLift(plan, _stage_prefix(plan, stages), config.seed)
    res = _run_engine(system, plan.k, x0, config, record=record, threads=threads,
                      any_chamber=True, lift=None if record else lift)
    if record:   # one pass over the run's states, after the engine
        res.jumps = lift(res, 0)
    return _run(res)
