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

    def __init__(self, seed, index, signs, lam, thresholds):
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
    seg_len = max(1, min(n_steps, int(8_000_000 // max(1, n_paths * nd))))
    xi_buf = np.empty((n_paths, 0, nd))
    seg_start = 0

    def _xi(step):
        nonlocal xi_buf, seg_start
        if not seg_start <= step < seg_start + xi_buf.shape[1]:
            seg_start = step
            count = min(seg_len, n_steps - step)
            xi_buf = np.stack([gen.standard_normal((count, nd)) for gen in gens])
            if params.noise_transform is not None:
                xi_buf = xi_buf @ params.noise_transform.T
        return xi_buf[:, step - seg_start]

    cur = np.tile(np.asarray(params.x0, dtype=float), (n_paths, 1))
    base_signs = np.sign(A @ params.x0)
    path_states = []
    for j in range(n_paths):
        lam = np.zeros(g)
        if g:
            thr = rngmod.stream(seed, rngmod.CLOCK, first_path + j, 0).standard_exponential(g)
        else:
            thr = np.zeros(0)
        path_states.append(_PathState(seed, first_path + j, base_signs.copy(), lam, thr))

    active = np.ones(n_paths, dtype=bool)
    termination = np.full(n_paths, TERM_HORIZON, dtype=np.int8)
    stop_index = np.full(n_paths, n_steps, dtype=np.int64)
    t0_time = np.full(n_paths, np.nan)
    wall_contact = np.zeros(n_paths, dtype=bool)
    min_wd = np.full(n_paths, np.inf)
    lam_mat = np.zeros((n_paths, g))
    thr_mat = (np.stack([ps.thresholds for ps in path_states])
               if g else np.zeros((n_paths, 0)))
    signs_mat = np.tile(base_signs, (n_paths, 1))
    states = None
    if params.record:
        states = np.empty((n_paths, n_steps + 1, nd))
        states[:, 0] = cur

    rates = np.asarray(params.clock_rates, dtype=float)

    def _terminate(j, code, t_end):
        active[j] = False
        termination[j] = code
        if code == TERM_T0:
            t0_time[j] = t_end

    d_cur = cur @ A.T
    wd = (d_cur * signs_mat).min(axis=1)
    min_wd = np.minimum(min_wd, wd)

    for step in range(n_steps):
        if not active.any():
            if params.record:
                states[:, step + 1:] = cur[:, None, :]
            break
        xi_step = _xi(step)
        act = np.nonzero(active)[0]
        t0s, t1s = float(tgrid[step]), float(tgrid[step + 1])
        h = t1s - t0s
        x = cur[act]
        d = x @ A.T
        drift = (params.kvec / d) @ A
        prop = x + drift * h + math.sqrt(h) * xi_step[act]
        pd = prop @ A.T
        ok = np.all(np.sign(pd) == signs_mat[act], axis=1)
        if g:
            d0 = d[:, clock_cols]
            d1 = pd[:, clock_cols]
            dlam = rates * h * 0.5 * (d0**-2.0 + d1**-2.0)
            plain = ok & np.all(dlam <= params.lambda_cap, axis=1) \
                       & np.all(lam_mat[act] + dlam < thr_mat[act], axis=1)
        else:
            plain = ok

        idx_plain = act[plain]
        cur[idx_plain] = prop[plain]
        if g and len(idx_plain):
            lam_mat[idx_plain] += dlam[plain]

        for local_j in np.nonzero(~plain)[0]:
            j = int(act[local_j])
            ps = path_states[j]
            ps.signs = signs_mat[j].copy()
            ps.lam = lam_mat[j].copy()
            ps.thresholds = thr_mat[j].copy()
            ps.proposals = 0
            exited = not ok[local_j]
            if exited and params.policy == "stop_at_t0":
                _terminate(j, TERM_T0, t1s)
                stop_index[j] = step
                continue
            try:
                cur[j] = cover_interval(params, ps, cur[j].copy(), h, t0s,
                                        params.max_halvings,
                                        first_xi=xi_step[j])
                signs_mat[j] = ps.signs
                lam_mat[j] = ps.lam
                thr_mat[j] = ps.thresholds
            except StepFailureError:
                _terminate(j, TERM_STEP_FAILURE, t1s)
                stop_index[j] = step

        act2 = np.nonzero(active)[0]
        if len(act2):
            d2 = cur[act2] @ A.T
            wd = (d2 * signs_mat[act2]).min(axis=1)
            min_wd[act2] = np.minimum(min_wd[act2], wd)
            eps = params.eps_wall * (1.0 + np.linalg.norm(cur[act2], axis=1))
            contact = wd < eps
            if contact.any():
                hit = act2[contact]
                wall_contact[hit] = True
                if params.t0_detect:
                    for j in hit:
                        _terminate(int(j), TERM_T0, t1s)
                        stop_index[j] = step + 1

        if params.record:
            states[:, step + 1] = cur

    events = [list(ps.events) for ps in path_states]
    rejected = np.array([ps.rejected for ps in path_states])
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
