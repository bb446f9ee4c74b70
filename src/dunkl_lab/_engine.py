"""Vectorized Euler–Maruyama engine with reflection-jump clocks.

One engine drives both the chamber-valued diffusion and the full jump
process: paths follow dX = dβ + Σ k(α) α/(X·α) dt between events, and an
optional set of root clocks accumulates the integrated intensities
Λ_j = c_j ∫ ds/(X_s·α_j)²; clock j fires when Λ_j crosses an independent
Exp(1) threshold, the state reflects across α_j, and the same dynamics
continue from the reflected point.

Paths are independent and vectorized in blocks; the paths a grid step
does not accept (a proposal that crosses a wall, a capped clock increment,
a firing clock) go to ``cover_interval``, which advances all of them
together in rounds, each path through its own stack of bisected and
post-firing sub-intervals.  All randomness is drawn from per-path
streams, so results are independent of blocking and worker count.

A vector step is one fused accept test.  The block carries A·x of every
path from the proposal it accepted, so a step computes A·x once: the
smallest signed distance (A·x)·sign both tests that the proposal keeps its
chamber and is the wall distance of an accepted path.  Norms for the
contact threshold are taken only for paths a cheap bound cannot clear.  A
block derives its paths' ``DIFFUSION`` keys in one ``rng.keys`` call; the
streams for retries and firings exist only for paths that needed them:
their keys come from one call when a path first needs one, and a path's
generator is built on its first draw.

Proposals that would cross a reflecting hyperplane are never accepted.
Without ``stop_at_t0`` the interval is bisected with fresh noise, at most
``MAX_HALVINGS`` times (walls repel the continuous part, so crossings are
discretization error).  With ``stop_at_t0`` the path terminates at the
crossing or when its wall distance drops below ``EPS_WALL``·(1 + ‖x‖),
which is the faithful reading when some multiplicity sits below 1/2 and
the first wall-hitting time is a genuine feature.  The jump log of a run
is one ``JumpTable`` sorted by (path, time).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import rng as rngmod
from .errors import InvalidArgumentError

TERM_HORIZON = 0
TERM_T0 = 1
TERM_STEP_FAILURE = 2

TERMINATION_LABELS = {TERM_HORIZON: "horizon", TERM_T0: "T0",
                      TERM_STEP_FAILURE: "step_failure"}

LAMBDA_CAP = 50.0          # max clock increment per accepted sub-step
MAX_HALVINGS = 20          # bisections of a grid interval before a step failure
EPS_WALL = 1e-8            # wall contact: distance below EPS_WALL·(1 + ‖x‖)
PROPOSAL_BUDGET = 100_000  # hard cap on sub-step proposals per grid interval
DEFAULT_CHUNK = 4096
NOISE_BUFFER = 8_000_000   # doubles of buffered noise per block segment


@dataclass
class EngineParams:
    positive_roots: np.ndarray      # (m, n), α·α = 2
    kvec: np.ndarray                # (m,) drift multiplicities per positive root
    x0: np.ndarray                  # (n,) common start point
    tgrid: np.ndarray               # (M+1,)
    seed: int
    stop_at_t0: bool = False        # terminate at a wall crossing or contact
    clock_positions: tuple = ()     # positions (into positive order) with live clocks
    clock_rates: np.ndarray = field(default_factory=lambda: np.zeros(0))  # (g,)
    record: bool = False
    noise_transform: Optional[np.ndarray] = None  # orthogonal map applied to dW


class JumpTable(NamedTuple):
    """A jump log as flat arrays, sorted by (path, time)."""

    path: np.ndarray    # (E,)
    time: np.ndarray    # (E,)
    root: np.ndarray    # (E,) position in the positive enumeration
    pre: np.ndarray     # (E, n)
    post: np.ndarray    # (E, n)


@dataclass
class EngineResult:
    tgrid: np.ndarray
    final: np.ndarray               # (N, n) state at termination time
    stop_index: np.ndarray          # (N,) index of the last valid grid time
    termination: np.ndarray         # (N,) TERM_* codes
    t0_time: np.ndarray             # (N,) NaN unless terminated at the wall
    wall_contact: np.ndarray        # (N,) wall distance dipped below threshold
    min_wall_distance: np.ndarray   # (N,)
    n_rejected: np.ndarray          # (N,) rejected proposals (diagnostics)
    jumps: JumpTable
    states: Optional[np.ndarray]    # (N, M+1, n) when recording, frozen after stop


class _PathState:
    """Streams, event log and rejection count of a path that needed
    ``cover_interval``.  A stream is held as its Philox key until its first
    draw builds the generator."""

    __slots__ = ("events", "rejected", "_retry", "_clock")

    def __init__(self, retry, clock):
        self.events = []
        self.rejected = 0
        self._retry = retry
        self._clock = clock

    def retry_rng(self):
        if not isinstance(self._retry, np.random.Generator):
            self._retry = rngmod.stream(self._retry)
        return self._retry

    def clock_rng(self):
        if not isinstance(self._clock, np.random.Generator):
            self._clock = rngmod.stream(self._clock)
        return self._clock


def cover_interval(params, paths, x, signs, lam, thr, h, t_start, xi):
    """Advance the rows ``x`` (R, n) of ``paths`` across an interval of
    length ``h`` from ``t_start``; ``xi`` (R, n) is each row's first noise.

    Each row works through a stack of (h, t_start, depth) sub-intervals in
    the order a depth-first bisection visits them, and every round takes
    the top task of each unfinished row.  A proposal that changes the
    chamber sign pattern, or whose clock increment exceeds the cap, is
    replaced by its two halves with fresh noise.  A clock crossing fires a
    reflection jump at the linearly interpolated crossing time, and the
    remainder continues from the reflected point with fresh noise.  Fresh
    noise and thresholds come from the path's own streams, so no row's
    draws depend on the others.  ``x``, ``signs``, ``lam`` and ``thr`` are
    updated in place.  Returns the rows that covered the interval; a row
    fails when a rejection finds no halving left or when it would start
    proposal ``PROPOSAL_BUDGET + 1``.
    """
    A = params.positive_roots
    cols = np.asarray(params.clock_positions, dtype=np.int64)
    stacks = [[(h, t_start, MAX_HALVINGS)] for _ in paths]
    proposals = np.zeros(len(paths), dtype=np.int64)
    covered = np.ones(len(paths), dtype=bool)
    rows = np.arange(len(paths))
    while rows.size:
        hs, ts, depth = map(np.array, zip(*[stacks[r].pop() for r in rows]))
        proposals[rows] += 1
        if xi is None:
            xi = np.array([paths[r].retry_rng().standard_normal(x.shape[1]) for r in rows])
            if params.noise_transform is not None:
                xi = np.matmul(params.noise_transform, xi[:, :, None])[:, :, 0]
        xr = x[rows]
        d = xr @ A.T
        # A stacked matmul runs the 1-D product's gemv on each row; one
        # (kvec / d) @ A gemm would differ in the last bit.
        drift = np.matmul(A.T, (params.kvec / d)[:, :, None])[:, :, 0]
        prop = xr + drift * hs[:, None] + np.sqrt(hs)[:, None] * xi
        xi = None
        pd = prop @ A.T
        dlam = params.clock_rates * hs[:, None] * 0.5 * (d[:, cols]**-2.0
                                                         + pd[:, cols]**-2.0)
        total = lam[rows] + dlam
        bad = (np.sign(pd) != signs[rows]).any(axis=1) \
            | (dlam > LAMBDA_CAP).any(axis=1)
        cross = ~bad & (total >= thr[rows]).any(axis=1)
        calm = ~bad & ~cross
        x[rows[calm]], lam[rows[calm]] = prop[calm], total[calm]

        for i in np.flatnonzero(bad):
            r = rows[i]
            paths[r].rejected += 1
            if depth[i] <= 0:
                covered[r], stacks[r] = False, []
                continue
            half = 0.5 * hs[i]
            stacks[r] += [(half, ts[i] + half, depth[i] - 1), (half, ts[i], depth[i] - 1)]

        if cross.any():
            fired = rows[cross]
            dl, lam0, thr0 = dlam[cross], lam[fired], thr[fired]
            theta = np.where(dl > 0, (thr0 - lam0) / np.where(dl > 0, dl, 1.0), np.inf)
            j = np.where(total[cross] >= thr0, theta, np.inf).argmin(axis=1)
            th = np.clip(theta[np.arange(len(fired)), j], 0.0, 1.0)
            pre = xr[cross] + th[:, None] * (prop[cross] - xr[cross])
            lam[fired] = lam0 + th[:, None] * dl
            lam[fired, j] = 0.0
            alpha = A[cols[j]]
            post = pre - np.vecdot(pre, alpha)[:, None] * alpha
            x[fired], signs[fired] = post, np.sign(post @ A.T)
            t_fire = ts[cross] + th * hs[cross]
            h_rest, d_rest = (1.0 - th) * hs[cross], depth[cross]
            for a, r in enumerate(fired):
                paths[r].events.append((float(t_fire[a]), params.clock_positions[j[a]],
                                        pre[a], post[a]))
                thr[r, j[a]] = paths[r].clock_rng().standard_exponential()
                if th[a] < 1.0:
                    stacks[r].append((h_rest[a], t_fire[a], d_rest[a]))

        left = np.array([bool(stacks[r]) for r in rows], dtype=bool)
        covered[rows[left & (proposals[rows] >= PROPOSAL_BUDGET)]] = False
        rows = rows[left & (proposals[rows] < PROPOSAL_BUDGET)]
    return covered


def _row_min(a):
    """``a.min(axis=1)`` column-wise; numpy reduces a short last axis row by row."""
    return np.ascontiguousarray(a.T).min(axis=0)


def _run_block(params: EngineParams, first_path: int, n_paths: int) -> EngineResult:
    A = params.positive_roots
    m, nd = A.shape
    g = len(params.clock_positions)
    clock_cols = list(params.clock_positions)
    tgrid = params.tgrid
    n_steps = len(tgrid) - 1
    seed = params.seed

    paths = first_path + np.arange(n_paths)
    gens = [rngmod.stream(key) for key in rngmod.keys(seed, rngmod.DIFFUSION, paths)]
    # Per-path streams are consumed one grid step at a time; buffering them
    # in segments keeps memory bounded without changing any draw.
    seg_len = max(1, min(n_steps, NOISE_BUFFER // max(1, n_paths * nd)))
    xi_buf = np.empty((n_paths, 0, nd))
    seg_start = 0

    def _xi(step):
        nonlocal xi_buf, seg_start
        if not seg_start <= step < seg_start + xi_buf.shape[1]:
            seg_start = step
            xi_buf = np.empty((n_paths, min(seg_len, n_steps - step), nd))
            for gen, buf in zip(gens, xi_buf):
                gen.standard_normal(out=buf)
            if params.noise_transform is not None:
                xi_buf = xi_buf @ params.noise_transform.T
        return xi_buf[:, step - seg_start]

    cur = np.tile(np.asarray(params.x0, dtype=float), (n_paths, 1))
    signs_mat = np.tile(np.sign(A @ params.x0), (n_paths, 1))
    lam_mat = np.zeros((n_paths, g))
    thr_mat = np.zeros((n_paths, g))
    for row, key in zip(thr_mat, rngmod.keys(seed, rngmod.CLOCK, paths, 0) if g else ()):
        rngmod.stream(key).standard_exponential(out=row)
    path_states = {}   # only paths that needed cover_interval
    retry_keys = None

    def _path_state(j):
        nonlocal retry_keys
        if j not in path_states:
            if retry_keys is None:
                retry_keys = (rngmod.keys(seed, rngmod.RETRY, paths),
                              rngmod.keys(seed, rngmod.CLOCK, paths, 1))
            path_states[j] = _PathState(retry_keys[0][j], retry_keys[1][j])
        return path_states[j]

    active = np.ones(n_paths, dtype=bool)
    termination = np.full(n_paths, TERM_HORIZON, dtype=np.int8)
    stop_index = np.full(n_paths, n_steps, dtype=np.int64)
    t0_time = np.full(n_paths, np.nan)
    wall_contact = np.zeros(n_paths, dtype=bool)
    states = None
    if params.record:
        states = np.empty((n_paths, n_steps + 1, nd))
        states[:, 0] = cur

    rates = np.asarray(params.clock_rates, dtype=float)

    def _terminate(j, code, t_end, index):
        active[j] = False
        termination[j] = code
        stop_index[j] = index
        if code == TERM_T0:
            t0_time[j] = t_end

    # d_cur holds A·x of every active path, carried over from the accepted
    # proposal, and inv_cur its clock columns' (A·x)⁻²; matmuls over a subset
    # of rows give the same bits per row.
    d_cur = cur @ A.T
    inv_cur = d_cur[:, clock_cols]**-2.0
    min_wd = _row_min(d_cur * signs_mat)

    for step in range(n_steps):
        if not active.any():
            if params.record:
                states[:, step + 1:] = cur[:, None, :]
            break
        xi_step = _xi(step)
        act = np.nonzero(active)[0]
        full = len(act) == n_paths
        sel = slice(None) if full else act
        t0s, t1s = float(tgrid[step]), float(tgrid[step + 1])
        h = t1s - t0s
        d = d_cur[sel]
        drift = (params.kvec / d) @ A
        prop = cur[sel] + drift * h + math.sqrt(h) * xi_step[sel]
        pd = prop @ A.T
        # A proposal keeps its sign pattern iff every signed distance is > 0;
        # the smallest one is then its wall distance.
        wd = _row_min(pd * signs_mat[sel])
        ok = wd > 0
        plain = ok.copy()
        lam, inv = lam_mat[sel], pd[:, clock_cols]**-2.0
        if g:
            dlam = rates * h * 0.5 * (inv_cur[sel] + inv)
            lam = lam + dlam
            if not dlam.max() <= LAMBDA_CAP:
                plain &= np.all(dlam <= LAMBDA_CAP, axis=1)
            plain[np.flatnonzero(lam >= thr_mat[sel]) // g] = False

        if full and plain.all():
            cur, d_cur, lam_mat, inv_cur = prop, pd, lam, inv
        elif full:
            for dst, src in ((cur, prop), (d_cur, pd), (lam_mat, lam), (inv_cur, inv)):
                np.copyto(dst, src, where=plain[:, None])
        else:
            rows = act[plain]
            cur[rows], d_cur[rows] = prop[plain], pd[plain]
            lam_mat[rows], inv_cur[rows] = lam[plain], inv[plain]

        redo = np.flatnonzero(~plain)
        if params.stop_at_t0:
            for j in act[redo[~ok[redo]]]:
                _terminate(j, TERM_T0, t1s, step)
            redo = redo[ok[redo]]
        if redo.size:
            rows = act[redo]
            x, signs, lam_r, thr_r = cur[rows], signs_mat[rows], lam_mat[rows], thr_mat[rows]
            covered = cover_interval(params, [_path_state(j) for j in rows], x, signs,
                                     lam_r, thr_r, h, t0s, xi_step[rows])
            for j in rows[~covered]:
                _terminate(j, TERM_STEP_FAILURE, t1s, step)
            rows, redo = rows[covered], redo[covered]
            cur[rows], signs_mat[rows] = x[covered], signs[covered]
            lam_mat[rows], thr_mat[rows] = lam_r[covered], thr_r[covered]
            d_cur[rows] = cur[rows] @ A.T
            inv_cur[rows] = d_cur[rows][:, clock_cols]**-2.0
            wd[redo] = _row_min(d_cur[rows] * signs_mat[rows])

        if full and active.all():
            np.minimum(min_wd, wd, out=min_wd)
        else:
            live = active[act]
            act, wd = act[live], wd[live]
            min_wd[act] = np.minimum(min_wd[act], wd)
        # ‖x‖ ≤ n·max|x_i| bounds every path's contact threshold from above,
        # so only paths below that bound need their own norm.
        near = wd < EPS_WALL * (1.0 + 2.0 * nd * np.abs(cur).max())
        if near.any():
            rows = act[near]
            eps = EPS_WALL * (1.0 + np.linalg.norm(cur[rows], axis=1))
            hit = rows[wd[near] < eps]
            wall_contact[hit] = True
            if params.stop_at_t0:
                for j in hit:
                    _terminate(int(j), TERM_T0, t1s, step + 1)

        if params.record:
            states[:, step + 1] = cur

    rejected = np.zeros(n_paths, dtype=np.int64)
    logged = []
    for j, ps in sorted(path_states.items()):
        rejected[j] = ps.rejected
        logged += [(paths[j], *event) for event in ps.events]
    path, time, root, pre, post = zip(*logged) if logged else ((),) * 5
    return EngineResult(
        tgrid=tgrid,
        final=cur,
        stop_index=stop_index,
        termination=termination,
        t0_time=t0_time,
        wall_contact=wall_contact,
        min_wall_distance=min_wd,
        n_rejected=rejected,
        jumps=JumpTable(np.array(path, dtype=np.int64), np.array(time, dtype=float),
                        np.array(root, dtype=np.int64),
                        np.array(pre, dtype=float).reshape(-1, nd),
                        np.array(post, dtype=float).reshape(-1, nd)),
        states=states,
    )


def _merge(results, tgrid):
    return EngineResult(
        tgrid=tgrid,
        final=np.concatenate([r.final for r in results]),
        stop_index=np.concatenate([r.stop_index for r in results]),
        termination=np.concatenate([r.termination for r in results]),
        t0_time=np.concatenate([r.t0_time for r in results]),
        wall_contact=np.concatenate([r.wall_contact for r in results]),
        min_wall_distance=np.concatenate([r.min_wall_distance for r in results]),
        n_rejected=np.concatenate([r.n_rejected for r in results]),
        jumps=JumpTable(*map(np.concatenate, zip(*(r.jumps for r in results)))),
        states=(np.concatenate([r.states for r in results])
                if results[0].states is not None else None),
    )


def run_paths(params: EngineParams, n_paths: int, threads: int = 1,
              chunk_size: int = DEFAULT_CHUNK) -> EngineResult:
    """Run ``n_paths`` independent paths, optionally across worker processes.

    Blocking is fixed by ``chunk_size`` and path randomness is path-keyed,
    so the output is identical for any ``threads`` (0 = one per CPU; at
    most one worker per block).
    """
    if threads < 0:
        raise InvalidArgumentError(f"threads must be ≥ 0, got {threads}")
    ranges = [(start, min(chunk_size, n_paths - start))
              for start in range(0, n_paths, chunk_size)]
    threads = min(threads or os.cpu_count() or 1, len(ranges))
    if threads <= 1:
        results = [_run_block(params, s, c) for s, c in ranges]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_block, params, s, c) for s, c in ranges]
            results = [f.result() for f in futures]
    return _merge(results, params.tgrid)
