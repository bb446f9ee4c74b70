"""The reproducibility contract: outputs for a fixed (config, seed) never change.

Each case hashes the final states, the stop index, the termination labels
and the jump table of a small run.  A deliberate change to the contract
(a new step rule, new streams) updates these digests and says so in
CHANGES.md; anything else that moves them is a regression.
"""

import hashlib

import numpy as np
import pytest

from dunkl_lab import (SimulationConfig, _engine, build_type_a, build_type_b,
                       multiplicity, run_radial)
from dunkl_lab.calculus import GeneratorSpec
from dunkl_lab.lift import build_lift_plan, simulate_dunkl
from dunkl_lab.verify import control_function, function_battery, martingale_residual


def _digest(run):
    trajs = run.trajectories
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(run.final_states, dtype=float).tobytes())
    h.update(np.array([len(t.times) - 1 for t in trajs], dtype=np.int64).tobytes())
    h.update("\n".join(run.termination.tolist()).encode())
    events = [(p, e) for p, t in enumerate(trajs) for e in t.events]
    h.update(np.array([p for p, _ in events], dtype=np.int64).tobytes())
    h.update(np.array([e.time for _, e in events], dtype=float).tobytes())
    h.update(np.array([e.root for _, e in events], dtype=np.int64).tobytes())
    for _, e in events:
        h.update(np.ascontiguousarray(e.pre, dtype=float).tobytes())
        h.update(np.ascontiguousarray(e.post, dtype=float).tobytes())
    return h.hexdigest(), sum(len(t.events) for t in trajs), int(run.n_rejected.sum())


def _b2_radial():
    b2 = build_type_b(2)
    cfg = SimulationConfig(horizon=0.5, dt=1e-2, n_paths=200, seed=3)
    return run_radial(b2, multiplicity(b2, 1.0), [0.6, 0.2], cfg, record=True)


def _b2_auto():
    b2 = build_type_b(2)
    plan = build_lift_plan(b2, multiplicity(b2, 1.0), mode="auto")
    cfg = SimulationConfig(horizon=0.5, dt=1e-2, n_paths=200, seed=4)
    return simulate_dunkl(plan, [2.0, 1.0], cfg)


def _b4_general():
    b4 = build_type_b(4)
    plan = build_lift_plan(b4, multiplicity(b4, 1.0), mode="general")
    cfg = SimulationConfig(horizon=0.2, dt=1e-2, n_paths=100, seed=5)
    return simulate_dunkl(plan, [4.0, 3.0, 2.0, 1.0], cfg)


# case -> (SHA-256, jumps, rejected proposals)
CONTRACT = {
    "b2_radial": (_b2_radial, (
        "500856a5622707b0dbdd4d2faac26dcc0fc48fcf894ed7d38c76e7e1ec8c7d0e", 0, 33)),
    "b2_auto": (_b2_auto, (
        "75b1d29f6596020e8d1a17682ae731cc09e8e845607b744fc0a7d7584bab4663", 281, 3)),
    "b4_general": (_b4_general, (
        "d2f7ed735795fe063195e9e4defd7391a8b8e8a64c4a7b0338cebcff8f937430", 127, 2)),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_outputs_match_contract(case):
    run, expected = CONTRACT[case]
    digest, jumps, rejected = _digest(run())
    assert (digest, jumps, rejected) == expected


# Flip stages beyond the all-shortcut B2 plan: flips after an engine-clock
# stage, and flips over paths that stopped early.  Each case also hashes the
# trajectories of the runs with ``stages=s``, for every stage from the last
# engine-clock one on.
def _stage_digest(simulate, stages):
    h = hashlib.sha256()
    for stage in stages:
        h.update(np.int64(stage).tobytes())
        for t in simulate(stages=stage).trajectories:
            h.update(np.ascontiguousarray(t.states, dtype=float).tobytes())
            for e in t.events:
                h.update(np.array([e.root], dtype=np.int64).tobytes())
                h.update(np.array([e.time, *e.pre, *e.post], dtype=float).tobytes())
    return h.hexdigest()


def _a2_mixed(**kwargs):
    a2 = build_type_a(3)
    plan = build_lift_plan(a2, multiplicity(a2, 1.0), mode="auto")
    assert plan.modes == ("shortcut", "general", "shortcut")
    x0 = 0.7 * a2.positive_roots.sum(axis=0) + 0.01
    cfg = SimulationConfig(horizon=0.5, dt=1e-2, n_paths=200, seed=6)
    return simulate_dunkl(plan, x0, cfg, **kwargs)


def _b2_general_then_flips(**kwargs):
    b2 = build_type_b(2)
    plan = build_lift_plan(b2, multiplicity(b2, 1.0),
                           mode=("general", "shortcut", "shortcut", "shortcut"))
    cfg = SimulationConfig(horizon=0.5, dt=0.05, n_paths=300, seed=8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "MAX_HALVINGS", 1)
        return simulate_dunkl(plan, [0.6, 0.2], cfg, **kwargs)


# case -> (stages hashed by stage, (SHA-256, jumps, rejected proposals, paths
# ended by a step failure, SHA-256 of those stages' trajectories))
STAGE_CONTRACT = {
    "a2_mixed": (_a2_mixed, (2, 3), (
        "03ed7047afdbeaa2e52b16631568f4c2080f462a4984e3503ac4c9ac53c91853", 135, 0, 0,
        "0655e1f32325c8b6a3d3e51d74376d4a79ac7a36e780b666cf68af374c19fdd8")),
    "b2_general_then_flips": (_b2_general_then_flips, (1, 2, 3, 4), (
        "ea9197801062a76a5729a928cf0d38a8623e7fe5fa49fff60012a1b3879ed47c", 13965, 131,
        20, "e359d7b6c8d45c4013c73c0a0e65789fb75825ec4efc526411d9818deb285327")),
}


@pytest.mark.parametrize("keep", [False, True], ids=["final", "stages"])
@pytest.mark.parametrize("case", sorted(STAGE_CONTRACT))
def test_flip_stages_match_contract(case, keep):
    simulate, stages, expected = STAGE_CONTRACT[case]
    run = simulate()
    got = (*_digest(run), int(np.sum(run.termination == "step_failure")))
    assert got == expected[:4]
    if keep:
        assert _stage_digest(simulate, stages) == expected[4]


# The engine's own branches, on B2 clocks at all four roots from near the
# walls: every ``EngineResult`` field is hashed, the jump table included.
ENGINE_FIELDS = ("tgrid", "final", "stop_index", "termination", "t0_time",
                 "wall_contact", "min_wall_distance", "n_rejected", "states")


def _engine_digest(res):
    h = hashlib.sha256()
    for name in ENGINE_FIELDS:
        h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
    for p, time, root, pre, post in zip(*res.jumps):
        h.update(np.array([p, root], dtype=np.int64).tobytes())
        h.update(np.array([time, *pre, *post], dtype=float).tobytes())
    return h.hexdigest()


def _engine_params(k=1.0, dt=1e-2, **overrides):
    b2 = build_type_b(2)
    params = dict(
        positive_roots=b2.positive_roots, kvec=multiplicity(b2, k).per_positive(),
        x0=np.array([0.6, 0.2]),
        tgrid=SimulationConfig(horizon=0.5, dt=dt, n_paths=300, seed=11).time_grid(),
        seed=11, record=True,
        clock_positions=(0, 1, 2, 3),
        clock_rates=multiplicity(b2, 1.0).per_positive())
    params.update(overrides)
    return _engine.EngineParams(**params)

# case -> (params, engine constants, (SHA-256, jumps, rejected proposals,
# paths per termination code (horizon, T0, step failure)))
ENGINE_CONTRACT = {
    # clock increments above the cap subdivide the interval
    "lambda_cap": (dict(), dict(LAMBDA_CAP=0.05), (
        "cb5fc2c581aee5fbbeb44ae1812452b0b0d63be10417886cbde39ef2cae9e2a6",
        783, 5181, (300, 0, 0))),
    # one halving allowed: some paths fail in an interval where a clock fired
    "max_halvings": (dict(dt=0.05), dict(MAX_HALVINGS=1), (
        "adaee407aeaded0d301569d13100219b699932a344911f9204bf187a2fb97e4b",
        1121, 138, (291, 0, 9))),
    # three proposals per interval: paths fail on the proposal budget
    "budget": (dict(), dict(PROPOSAL_BUDGET=3), (
        "d76822d0689201001d17d45fcb75004a053779d175d296fe3ad04c386bcd566e",
        1217, 51, (271, 0, 29))),
    # k below 1/2: wall crossings stop paths at T0, while clocks still fire
    "stop_at_t0": (dict(k=0.3, stop_at_t0=True), dict(), (
        "75a628773975789a3b97953a6f3aec211dad2a99b452f1ef9028e57e1388922e",
        1973, 100, (118, 182, 0))),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CONTRACT))
def test_engine_outputs_match_contract(case, monkeypatch):
    overrides, constants, expected = ENGINE_CONTRACT[case]
    for name, value in constants.items():
        monkeypatch.setattr(_engine, name, value)
    res = _engine.run_paths(_engine_params(**overrides), 300, chunk_size=128)
    got = (_engine_digest(res), len(res.jumps.time), int(res.n_rejected.sum()),
           tuple(np.bincount(res.termination, minlength=3).tolist()))
    assert got == expected
    if case in ("max_halvings", "budget"):
        # some paths fail in an interval after a clock fired in it
        failed = np.flatnonzero(res.termination == _engine.TERM_STEP_FAILURE)
        after = res.jumps.time > res.tgrid[res.stop_index[res.jumps.path]]
        assert np.any(after & np.isin(res.jumps.path, failed))


# Martingale residuals of 17 recorded B2 paths of 997 steps: one path more
# than a generator block, so the last block holds a single path.  The
# estimate and standard error of every function under the radial and a
# two-parameter full generator are hashed.
def test_martingale_residuals_match_contract():
    b2 = build_type_b(2)
    k = multiplicity(b2, 1.0)
    cfg = SimulationConfig(horizon=0.997, dt=1e-3, n_paths=17, seed=12)
    paths = run_radial(b2, k, [2.0, 1.0], cfg, record=True).trajectories
    assert len(paths[0].times) == 998
    h = hashlib.sha256()
    for spec in (GeneratorSpec.radial(b2, k),
                 GeneratorSpec.full(b2, k, jump_k=multiplicity(b2, [0.25, 2.0]))):
        for u in function_battery(2) + [control_function(2)]:
            rep = martingale_residual(lambda: paths, spec, u)
            h.update(np.array([rep.estimate, rep.stderr]).tobytes())
    assert h.hexdigest() == (
        "c5ab1a4a3e78650b98fe9c6610710deef14391ba64c62992e5b2cd8d161dc85d")
