"""Vectorized Euler–Maruyama engine with reflection-jump clocks.

One engine drives both the chamber-valued diffusion and the full jump
process: paths follow dX = dβ + Σ k(α) α/(X·α) dt between events, and an
optional set of root clocks accumulates the integrated intensities
Λ_j = c_j ∫ ds/(X_s·α_j)²; clock j fires when Λ_j crosses an independent
Exp(1) threshold, the state reflects across α_j, and the same dynamics
continue from the reflected point.

Paths are independent and vectorized in blocks; anything rare (a proposal
that crosses a wall, a capped clock increment, a firing clock) drops to a
per-path bisection routine.  All randomness is drawn from per-path
streams, so results are independent of blocking and worker count.

A vector step is one fused accept test.  The block carries A·x of every
path from the proposal it accepted, so a step computes A·x once: the
smallest signed distance (A·x)·sign both tests that the proposal keeps its
chamber and is the wall distance of an accepted path.  Norms for the
contact threshold are taken only for paths a cheap bound cannot clear, and
per-path bisection state exists only for paths that needed it.

Proposals that would cross a reflecting hyperplane are never accepted:
under the reject-and-halve policy the interval is bisected with fresh
noise (walls repel the continuous part, so crossings are discretization
error); under the stop-at-T0 policy the path terminates, which is the
faithful reading when some multiplicity sits below 1/2 and the first
wall-hitting time is a genuine feature.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng as rngmod
from .errors import StepFailureError

TERM_HORIZON = 0
TERM_T0 = 1
TERM_STEP_FAILURE = 2

TERMINATION_LABELS = {TERM_HORIZON: "horizon", TERM_T0: "T0",
                      TERM_STEP_FAILURE: "step_failure"}

LAMBDA_CAP = 50.0          # max clock increment per accepted sub-step
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
    eps_wall: float
    max_halvings: int
    policy: str = "reject_halve"    # or "stop_at_t0"
    t0_detect: bool = False         # terminate when wall distance < ε_wall·(1+‖x‖)
    clock_positions: tuple = ()     # positions (into positive order) with live clocks
    clock_rates: np.ndarray = field(default_factory=lambda: np.zeros(0))  # (g,)
    lambda_cap: float = LAMBDA_CAP
    record: bool = False
    noise_transform: Optional[np.ndarray] = None  # orthogonal map applied to dW


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
    events: list                    # per path: [(time, root_position, pre, post)]
    states: Optional[np.ndarray]    # (N, M+1, n) when recording, frozen after stop


class _PathState:
    """Mutable per-path context for the scalar bisection routine."""

    __slots__ = ("signs", "lam", "thresholds", "events", "proposals",
                 "_retry", "_clock", "_seed", "_index", "rejected")

    def __init__(self, seed, index, signs=None, lam=None, thresholds=None):
        self.signs = signs
        self.lam = lam
        self.thresholds = thresholds
        self.events = []
        self.proposals = 0
        self.rejected = 0
        self._retry = None
        self._clock = None
        self._seed = seed
        self._index = index

    def retry_rng(self):
        if self._retry is None:
            self._retry = rngmod.stream(self._seed, rngmod.RETRY, self._index)
        return self._retry

    def clock_rng(self):
        if self._clock is None:
            self._clock = rngmod.stream(self._seed, rngmod.CLOCK, self._index, 1)
        return self._clock


def cover_interval(params, ps, x, h, t_start, depth, first_xi=None):
    """Advance one path across a full interval of length ``h``.

    Proposals that change the chamber sign pattern, or whose clock
    increment exceeds the cap, bisect the interval with fresh noise.
    Clock crossings fire a reflection jump at the linearly interpolated
    crossing time and the remainder of the interval continues from the
    reflected point.  Returns the state at ``t_start + h``.
    """
    ps.proposals += 1
    if ps.proposals > PROPOSAL_BUDGET:
        raise StepFailureError("per-interval proposal budget exhausted")
    n = x.shape[0]
    if first_xi is None:
        first_xi = ps.retry_rng().standard_normal(n)
        if params.noise_transform is not None:
            first_xi = params.noise_transform @ first_xi
    dots = params.positive_roots @ x
    drift = params.positive_roots.T @ (params.kvec / dots)
    prop = x + drift * h + math.sqrt(h) * first_xi
    pdots = params.positive_roots @ prop

    def bisect():
        ps.rejected += 1
        if depth <= 0:
            raise StepFailureError("max step halvings exhausted")
        mid = cover_interval(params, ps, x, 0.5 * h, t_start, depth - 1)
        return cover_interval(params, ps, mid, 0.5 * h, t_start + 0.5 * h, depth - 1)

    if np.any(np.sign(pdots) != ps.signs):
        return bisect()

    g = len(params.clock_positions)
    if g:
        clock_cols = list(params.clock_positions)
        d0 = dots[clock_cols]
        d1 = pdots[clock_cols]
        dlam = params.clock_rates * h * 0.5 * (d0**-2 + d1**-2)
        if np.any(dlam > params.lambda_cap):
            return bisect()
        crossing = ps.lam + dlam >= ps.thresholds
        if crossing.any():
            with np.errstate(divide="ignore"):
                theta = np.where(dlam > 0,
                                 (ps.thresholds - ps.lam) / np.where(dlam > 0, dlam, 1.0),
                                 np.inf)
            theta = np.where(crossing, theta, np.inf)
            j = int(np.argmin(theta))
            th = float(min(max(theta[j], 0.0), 1.0))
            x_star = x + th * (prop - x)
            ps.lam = ps.lam + th * dlam
            alpha = params.positive_roots[params.clock_positions[j]]
            post = x_star - (x_star @ alpha) * alpha
            ps.events.append((t_start + th * h, params.clock_positions[j], x_star, post))
            ps.lam[j] = 0.0
            ps.thresholds[j] = ps.clock_rng().standard_exponential()
            ps.signs = np.sign(params.positive_roots @ post)
            if th >= 1.0:
                return post
            return cover_interval(params, ps, post, (1.0 - th) * h,
                                  t_start + th * h, depth)
        ps.lam = ps.lam + dlam
    return prop


def _run_block(params: EngineParams, first_path: int, n_paths: int) -> EngineResult:
    A = params.positive_roots
    m, nd = A.shape
    g = len(params.clock_positions)
    clock_cols = list(params.clock_positions)
    tgrid = params.tgrid
    n_steps = len(tgrid) - 1
    seed = params.seed

    gens = [rngmod.stream(seed, rngmod.DIFFUSION, first_path + j)
            for j in range(n_paths)]
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
    for j in range(n_paths if g else 0):
        clock = rngmod.stream(seed, rngmod.CLOCK, first_path + j, 0)
        thr_mat[j] = clock.standard_exponential(g)
    path_states = {}   # only paths that needed the scalar routine

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
    # proposal; matmuls over a subset of rows give the same bits per row.
    d_cur = cur @ A.T
    min_wd = (d_cur * signs_mat).min(axis=1)

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
        wd = (pd * signs_mat[sel]).min(axis=1)
        ok = plain = wd > 0
        lam = lam_mat[sel]
        if g:
            dlam = rates * h * 0.5 * (d[:, clock_cols]**-2.0 + pd[:, clock_cols]**-2.0)
            lam = lam + dlam
            plain = ok & np.all(dlam <= params.lambda_cap, axis=1) \
                       & np.all(lam < thr_mat[sel], axis=1)

        if full and plain.all():
            cur, d_cur, lam_mat = prop, pd, lam
        else:
            rows = act[plain]
            cur[rows], d_cur[rows], lam_mat[rows] = prop[plain], pd[plain], lam[plain]

        redo = []
        for local_j in np.nonzero(~plain)[0]:
            j = int(act[local_j])
            if not ok[local_j] and params.policy == "stop_at_t0":
                _terminate(j, TERM_T0, t1s, step)
                continue
            ps = path_states.get(j)
            if ps is None:
                ps = path_states[j] = _PathState(seed, first_path + j)
            ps.signs = signs_mat[j].copy()
            ps.lam = lam_mat[j].copy()
            ps.thresholds = thr_mat[j].copy()
            ps.proposals = 0
            try:
                cur[j] = cover_interval(params, ps, cur[j].copy(), h, t0s,
                                        params.max_halvings,
                                        first_xi=xi_step[j])
            except StepFailureError:
                _terminate(j, TERM_STEP_FAILURE, t1s, step)
                continue
            signs_mat[j] = ps.signs
            lam_mat[j] = ps.lam
            thr_mat[j] = ps.thresholds
            redo.append(local_j)
        if redo:
            rows = act[redo]
            d_cur[rows] = cur[rows] @ A.T
            wd[redo] = (d_cur[rows] * signs_mat[rows]).min(axis=1)

        if full and active.all():
            np.minimum(min_wd, wd, out=min_wd)
        else:
            live = active[act]
            act, wd = act[live], wd[live]
            min_wd[act] = np.minimum(min_wd[act], wd)
        # ‖x‖ ≤ n·max|x_i| bounds every path's contact threshold from above,
        # so only paths below that bound need their own norm.
        near = wd < params.eps_wall * (1.0 + 2.0 * nd * np.abs(cur).max())
        if near.any():
            rows = act[near]
            eps = params.eps_wall * (1.0 + np.linalg.norm(cur[rows], axis=1))
            hit = rows[wd[near] < eps]
            wall_contact[hit] = True
            if params.t0_detect:
                for j in hit:
                    _terminate(int(j), TERM_T0, t1s, step + 1)

        if params.record:
            states[:, step + 1] = cur

    events = [[] for _ in range(n_paths)]
    rejected = np.zeros(n_paths, dtype=np.int64)
    for j, ps in path_states.items():
        events[j] = ps.events
        rejected[j] = ps.rejected
    return EngineResult(
        tgrid=tgrid,
        final=cur,
        stop_index=stop_index,
        termination=termination,
        t0_time=t0_time,
        wall_contact=wall_contact,
        min_wall_distance=min_wd,
        n_rejected=rejected,
        events=events,
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
        events=[e for r in results for e in r.events],
        states=(np.concatenate([r.states for r in results])
                if results[0].states is not None else None),
    )


def run_paths(params: EngineParams, n_paths: int, threads: int = 1,
              chunk_size: int = DEFAULT_CHUNK) -> EngineResult:
    """Run ``n_paths`` independent paths, optionally across worker processes.

    Blocking is fixed by ``chunk_size`` and path randomness is path-keyed,
    so the output is identical for any ``threads``.
    """
    ranges = [(start, min(chunk_size, n_paths - start))
              for start in range(0, n_paths, chunk_size)]
    if threads == 0:
        import os
        threads = min(len(ranges), os.cpu_count() or 1)
    if threads <= 1 or len(ranges) == 1:
        results = [_run_block(params, s, c) for s, c in ranges]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_block, params, s, c) for s, c in ranges]
            results = [f.result() for f in futures]
    return _merge(results, params.tgrid)
