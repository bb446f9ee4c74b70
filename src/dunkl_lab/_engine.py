"""Vectorized Euler–Maruyama engine for the chamber-valued radial process.

Paths follow dX = dβ + Σ k(α) α/(X·α) dt inside the chamber of their start
point.  The engine holds no jump clocks: the full process is rebuilt from
the recorded radial path by ``lift``, which ``run_paths`` applies to
each block of an unrecorded run in the process that ran it.

Paths run in blocks of ``DEFAULT_CHUNK``, and all randomness is drawn from
per-path streams, so results are independent of blocking and worker count.
The paths a grid step does not accept (a proposal that crosses a wall) go
to ``cover_interval``, which advances all of them together in rounds, each
from its own dyadic position in the interval.

A vector step is one fused accept test.  The roots are oriented to the
start chamber, S = sign(A·x₀)·A, so x·Sᵀ > 0 inside it.  The block carries
x·Sᵀ from each accepted proposal, and its smallest entry both tests that a
proposal keeps its chamber and is the wall distance of an accepted path.
k is repeated to the block's full width, so k / (x·Sᵀ) is one equal-shape
loop; Sᵀ is a C-contiguous copy, as products against the transposed view
ran 3–4× slower (numpy 2.4, OpenBLAS 0.3.31; same bits).  While every path
of the block is active and every proposal accepted, a step keeps no index
sets and tests one scalar, the smallest wall distance.  Norms for the
contact threshold are taken only for paths a cheap bound cannot clear.

A block derives its paths' ``DIFFUSION`` keys in one ``rng.keys`` call and
draws their streams through one loader, in segments of grid steps: a
recorded run's one segment is its rows of the run's (N, M+1, n) states,
and an unrecorded run's segments hold at most ``NOISE_BUFFER`` doubles
(16 MB), each released before the next is allocated, so a block holds
one segment at a time.
Every ``TILE`` grid steps the block copies the next rows of its segment
into a time-major (TILE, N, n) tile, so a step reads its noise as one
contiguous (N, n) row; a recorded step writes its state into the tile
row it has just read, and the tile is copied back before the next one is
loaded.  A path's ``RETRY`` generator is built when the path first needs
``cover_interval``, from the block's retry keys, which one call derives
when its first path needs them.

Proposals that would cross a reflecting hyperplane are never accepted.
Without ``stop_at_t0`` the interval is bisected with fresh noise, at most
``MAX_HALVINGS`` times (walls repel the continuous part, so crossings are
discretization error).  With ``stop_at_t0`` the path terminates at the
crossing or when its wall distance drops below ``EPS_WALL``·(1 + ‖x‖),
which is the faithful reading when some multiplicity sits below 1/2 and
the first wall-hitting time is a genuine feature.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import rng as rngmod
from .errors import InvalidArgumentError, _integral

TERM_HORIZON = 0
TERM_T0 = 1
TERM_STEP_FAILURE = 2

TERMINATION_LABELS = np.array(["horizon", "T0", "step_failure"])   # by TERM_* code

MAX_HALVINGS = 20          # bisections of a grid interval before a step failure
EPS_WALL = 1e-8            # wall contact: distance below EPS_WALL·(1 + ‖x‖)
PROPOSAL_BUDGET = 100_000  # hard cap on sub-step proposals per grid interval
DEFAULT_CHUNK = 4096
NOISE_BUFFER = 2_000_000   # doubles of buffered noise per block segment (16 MB), unrecorded runs
TILE = 16                  # grid steps per time-major tile of noise and states
STATES_BUDGET = 1 << 26    # bytes of states per block of a run lifted unrecorded (64 MiB)


@dataclass
class EngineParams:
    positive_roots: np.ndarray      # (m, n), α·α = 2
    kvec: np.ndarray                # (m,) drift multiplicities per positive root
    x0: np.ndarray                  # (n,) common start point
    tgrid: np.ndarray               # (M+1,)
    seed: int
    stop_at_t0: bool = False        # terminate at a wall crossing or contact
    record: bool = False


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
    states: Optional[np.ndarray]    # (N, M+1, n) when recording, frozen after stop
    jumps: Optional[tuple] = None   # jump table of blocks lifted where they ran


def cover_interval(k, retry, x, S, h, xi):
    """Advance the rows ``x`` (R, n), multiplicities ``k`` (R, m), in place
    across an interval of length ``h`` inside x·Sᵀ > 0, bisecting depth
    first with fresh noise from each row's ``retry`` generator after the
    first noise ``xi``; returns which rows covered it and their rejections."""
    done = np.zeros(len(retry), dtype=np.int64)   # units of h·2^−MAX_HALVINGS covered
    depth = np.full(len(retry), MAX_HALVINGS)     # next proposal: h·2^(depth − MAX_HALVINGS)
    proposals = np.zeros(len(retry), dtype=np.int64)
    rejected = np.zeros(len(retry), dtype=np.int64)
    covered = np.ones(len(retry), dtype=bool)
    rows = np.arange(len(retry))
    while rows.size:
        hs = h * 0.5 ** (MAX_HALVINGS - depth[rows])
        proposals[rows] += 1
        if xi is None:
            xi = np.array([retry[r].standard_normal(x.shape[1]) for r in rows])
        xr = x[rows]
        d = xr @ S.T
        # A stacked matmul runs the 1-D product's gemv on each row; one
        # (k / d) @ S gemm would differ in the last bit.
        drift = np.matmul(S.T, (k[rows] / d)[:, :, None])[:, :, 0]
        prop = xr + drift * hs[:, None] + np.sqrt(hs)[:, None] * xi
        xi = None
        ok = (prop @ S.T > 0).all(axis=1)     # a NaN distance is a crossing too
        acc, rej = rows[ok], rows[~ok]
        x[acc] = prop[ok]
        # a depth-first bisection goes on with the lowest set bit of done,
        # or halves a rejected proposal; at depth 0 or past the budget it fails
        done[acc] += 1 << depth[acc]
        depth[acc] = np.bitwise_count((done[acc] & -done[acc]) - 1)
        rejected[rej] += 1
        covered[rej[depth[rej] == 0]] = False
        depth[rej] -= 1

        left = covered[rows] & (done[rows] < 1 << MAX_HALVINGS)
        covered[rows[left & (proposals[rows] >= PROPOSAL_BUDGET)]] = False
        rows = rows[left & (proposals[rows] < PROPOSAL_BUDGET)]
    return covered, rejected


def _row_min(a):
    """``a.min(axis=1)`` column-wise; numpy reduces a short last axis row by row."""
    return np.ascontiguousarray(a.T).min(axis=0)


def _points(a):
    """``a`` (..., n) as one void element per point: a transpose moves whole points."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))[..., 0]


def _run_block(params: EngineParams, first_path: int, n_paths: int,
               states=None) -> EngineResult:
    """Run paths ``first_path`` .. ``first_path + n_paths − 1``.  A recorded
    block writes its grid states into ``states``, its rows of the run's
    array, or into an array of its own when none is given."""
    A = params.positive_roots
    nd = A.shape[1]
    tgrid = params.tgrid
    n_steps = len(tgrid) - 1
    seed = params.seed
    record = params.record
    # First: after the generators it raised some 16,384-path runs' peak RSS ~3 MB (heap layout).
    tile = np.empty((min(TILE, n_steps), n_paths, nd))
    if record and states is None:
        states = np.empty((n_paths, n_steps + 1, nd))

    paths = first_path + np.arange(n_paths)
    path_keys = rngmod.keys(seed, rngmod.DIFFUSION, paths)
    # A recorded run's one noise segment is its rows of ``states``: step j's
    # tile row takes grid point j + 1's noise, then the state.  No tile
    # straddles two segments.  A path's generator is opened on its first
    # draw and kept only while a later segment remains.
    seg_len = max(1, min(n_steps, NOISE_BUFFER // max(1, n_paths * nd)))
    seg = np.empty((n_paths, 0, nd))
    gens = [None] * n_paths
    seg_start = tile_start = tile_len = 0

    def _load(step):
        nonlocal seg, seg_start, tile_start, tile_len
        if step == seg_start + seg.shape[1]:
            seg_start, n = step, min(seg_len, n_steps - step)
            seg = None   # the spent segment goes before the next is allocated
            seg = states[:, 1:] if record else np.empty((n_paths, n, nd))
            last = step + seg.shape[1] == n_steps
            for p, buf in enumerate(seg):
                gen = gens[p] or rngmod.stream(path_keys[p])
                gen.standard_normal(out=buf)
                gens[p] = None if last else gen
        tile_start, tile_len = step, min(TILE, seg_start + seg.shape[1] - step)
        _points(tile[:tile_len])[...] = _points(seg[:, step - seg_start:][:, :tile_len]).T

    def _flush(n_rows):     # a recorded tile's first n_rows states back to their grid points
        if record:
            _points(states[:, tile_start + 1:][:, :n_rows])[...] = _points(tile[:n_rows]).T

    cur = np.tile(np.asarray(params.x0, dtype=float), (n_paths, 1))
    S = np.sign(A @ params.x0)[:, None] * A
    ST = np.ascontiguousarray(S.T)
    # A full-width copy: (N, m) / (N, m) runs one inner loop, where an (m,)
    # row broadcast over (N, m) runs one per path.
    k_rows = np.tile(params.kvec, (n_paths, 1))
    h_steps = np.diff(tgrid)
    all_rows = np.arange(n_paths)
    retry = {}   # RETRY generators of the paths that needed cover_interval
    rejected = np.zeros(n_paths, dtype=np.int64)

    active = np.ones(n_paths, dtype=bool)
    n_active = n_paths
    termination = np.full(n_paths, TERM_HORIZON, dtype=np.int8)
    stop_index = np.full(n_paths, n_steps, dtype=np.int64)
    t0_time = np.full(n_paths, np.nan)
    wall_contact = np.zeros(n_paths, dtype=bool)

    def _terminate(rows, code, t_end, index):
        nonlocal n_active
        active[rows] = False
        n_active -= len(rows)
        termination[rows], stop_index[rows] = code, index
        if code == TERM_T0:
            t0_time[rows] = t_end

    # d_cur holds x·Sᵀ of every active path, carried over from the accepted
    # proposal; matmuls over a subset of rows give the same bits per row.
    # A root's sign flips its distance and k / d exactly, so no bit moves.
    d_cur = cur @ ST
    min_wd = _row_min(d_cur)

    for step in range(n_steps):
        if not n_active:
            break
        if step == tile_start + tile_len:
            _flush(tile_len)
            _load(step)
        xi_step = tile[step - tile_start]
        full = n_active == n_paths
        act = all_rows if full else np.flatnonzero(active)
        sel = slice(None) if full else act
        h, t1s = h_steps[step], float(tgrid[step + 1])
        prop = (k_rows[:n_active] / d_cur[sel]) @ S
        prop *= h
        prop += cur[sel]
        prop += math.sqrt(h) * xi_step[sel]
        pd = prop @ ST
        # A proposal keeps its chamber iff every oriented distance is > 0;
        # the smallest one is then its wall distance.
        wd = _row_min(pd)
        wd_min = wd.min()

        if full and wd_min > 0:
            # every path active and every proposal accepted
            cur, d_cur = prop, pd
            np.minimum(min_wd, wd, out=min_wd)
        else:
            ok = wd > 0
            if full:
                for dst, src in ((cur, prop), (d_cur, pd)):
                    np.copyto(dst, src, where=ok[:, None])
            else:
                rows = act[ok]
                cur[rows], d_cur[rows] = prop[ok], pd[ok]

            redo = np.flatnonzero(~ok)
            if params.stop_at_t0:
                _terminate(act[redo], TERM_T0, t1s, step)
            elif redo.size:
                rows = act[redo]
                if not retry:
                    retry_keys = rngmod.keys(seed, rngmod.RETRY, paths)
                retry.update((j, rngmod.stream(retry_keys[j])) for j in rows if j not in retry)
                x = cur[rows]
                covered, rej = cover_interval(k_rows[rows], [retry[j] for j in rows], x, S,
                                              h, xi_step[rows])
                rejected[rows] += rej
                _terminate(rows[~covered], TERM_STEP_FAILURE, t1s, step)
                rows, redo = rows[covered], redo[covered]
                cur[rows] = x[covered]
                d_cur[rows] = cur[rows] @ ST
                wd[redo] = _row_min(d_cur[rows])

            live = active[act]
            act, wd = act[live], wd[live]
            min_wd[act] = np.minimum(min_wd[act], wd)
            wd_min = wd.min(initial=np.inf)
        # ‖x‖ ≤ n·max|x_i| bounds every path's contact threshold from above,
        # so only paths below that bound need their own norm.
        bound = EPS_WALL * (1.0 + 2.0 * nd * max(cur.max(), -cur.min()))
        if wd_min < bound:
            near = wd < bound
            rows = act[near]
            eps = EPS_WALL * (1.0 + np.linalg.norm(cur[rows], axis=1))
            hit = rows[wd[near] < eps]
            wall_contact[hit] = True
            if params.stop_at_t0:
                _terminate(hit, TERM_T0, t1s, step + 1)

        if record:
            xi_step[...] = cur
    else:
        step = n_steps
    # the last tile's states back, the start, and a stopped block's final states
    _flush(step - tile_start)
    if record:
        states[:, 0] = params.x0
        states[:, step + 1:] = cur[:, None, :]

    return EngineResult(
        tgrid=tgrid,
        final=cur,
        stop_index=stop_index,
        termination=termination,
        t0_time=t0_time,
        wall_contact=wall_contact,
        min_wall_distance=min_wd,
        n_rejected=rejected,
        states=states,
    )


def _lifted_block(params: EngineParams, first_path: int, n_paths: int, lift) -> EngineResult:
    """Run a block of an unrecorded run with its states recorded, lift it
    (``lift(result, first_path)`` writes the full process over the states
    and returns the block's jump table), and keep only the lifted final
    states and the jumps."""
    res = _run_block(replace(params, record=True), first_path, n_paths)
    res.jumps = lift(res, first_path)
    res.final = res.states[np.arange(n_paths), res.stop_index]
    res.states = None
    return res


def _merge(results, tgrid, states):
    """One result of the blocks' results, in path order; ``states`` holds
    every block's recorded rows already."""
    fields = ("final", "stop_index", "termination", "t0_time", "wall_contact",
              "min_wall_distance", "n_rejected")
    jumps = results[0].jumps
    if jumps is not None:
        jumps = type(jumps)(*map(np.concatenate, zip(*(r.jumps for r in results))))
    return EngineResult(tgrid=tgrid, states=states, jumps=jumps,
                        **{f: np.concatenate([getattr(r, f) for r in results]) for f in fields})


def run_paths(params: EngineParams, n_paths: int, threads: int = 1, lift=None) -> EngineResult:
    """Run ``n_paths`` independent paths in blocks of ``DEFAULT_CHUNK``,
    optionally across worker processes.

    Path randomness is path-keyed, so the output is identical for any
    ``threads`` (0 = one per CPU; at most one worker per block) and any
    block size.  A recorded run fills one (N, M+1, n) array: a block run
    here writes its own rows, and a worker's rows are copied in and dropped.

    ``lift(result, first_path)``, given only for an unrecorded run, lifts
    each block to the full process in the process that ran it (see
    ``_lifted_block``), in blocks whose states fit ``STATES_BUDGET`` bytes,
    so no process holds more than one block's states; the result's
    ``jumps`` joins the blocks' tables.
    """
    if not _integral(threads) or threads < 0:
        raise InvalidArgumentError(f"threads must be an integer ≥ 0, got {threads!r}")
    n_times, nd = len(params.tgrid), params.positive_roots.shape[1]
    chunk = DEFAULT_CHUNK
    if lift is not None:
        chunk = max(1, min(chunk, STATES_BUDGET // (8 * n_times * nd)))
    ranges = [(start, min(chunk, n_paths - start)) for start in range(0, n_paths, chunk)]
    threads = min(threads or os.cpu_count() or 1, len(ranges))
    states = np.empty((n_paths, n_times, nd)) if params.record else None
    if threads <= 1:
        if lift is not None:
            results = [_lifted_block(params, s, c, lift) for s, c in ranges]
        else:
            results = [_run_block(params, s, c, None if states is None else states[s:s + c])
                       for s, c in ranges]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_block, params, s, c) if lift is None
                       else pool.submit(_lifted_block, params, s, c, lift) for s, c in ranges]
            results = []
            for (s, c), future in zip(ranges, futures):
                results.append(future.result())
                if states is not None:
                    states[s:s + c] = results[-1].states
                    results[-1].states = None
    return _merge(results, params.tgrid, states)
