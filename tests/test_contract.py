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
        "4b3c1007dded313548fa847ed74be21736ec3558765bf4e406d03e6ca1ff62cd", 0, 36)),
    "b2_auto": (_b2_auto, (
        "3d75ca54e78e92a9f4667684b049cfcd0ef33ef59fcea6a238ad133578ca25e7", 163, 3)),
    "b4_general": (_b4_general, (
        "1dda9d1f2d1cb581a59081c681f18288106efa2fb8523756ecfa95075e5a8bf5", 163, 2)),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_outputs_match_contract(case):
    run, expected = CONTRACT[case]
    digest, jumps, rejected = _digest(run())
    assert (digest, jumps, rejected) == expected


# Flip stages beyond the all-shortcut B2 plan: flips after joint-clock
# stages, and flips over paths that stopped early.  Each case also hashes the
# trajectories of the runs with ``stages=s``, for every stage from the last
# general-mode one on.
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
        "d5ea625745592d21c3b095dd5b865fb7ab74177c0f002fcf8e04f951561aec09", 133, 0, 0,
        "af940341bc9f951659394de102c71af0994d4acba853088adb0d2aaf48af912d")),
    "b2_general_then_flips": (_b2_general_then_flips, (1, 2, 3, 4), (
        "fe78c936f4e176f4afb5f4a6f7f62824493c15970e77446d261f5ab75b95473f", 1282, 134,
        27, "e501e7d4112742bb9a0dd0add55d0bec3a00ee682169e21076d126868794a791")),
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


# The engine's own branches, on B2 from near the walls, where proposals are
# rejected and bisected: every ``EngineResult`` field is hashed.
ENGINE_FIELDS = ("tgrid", "final", "stop_index", "termination", "t0_time",
                 "wall_contact", "min_wall_distance", "n_rejected", "states")


def _engine_digest(res):
    h = hashlib.sha256()
    for name in ENGINE_FIELDS:
        value = getattr(res, name)
        if value is not None:     # ``states`` of an unrecorded run
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _engine_params(k=1.0, dt=1e-2, **overrides):
    b2 = build_type_b(2)
    params = dict(
        positive_roots=b2.positive_roots, kvec=multiplicity(b2, k).per_positive(),
        x0=np.array([0.6, 0.2]),
        tgrid=SimulationConfig(horizon=0.5, dt=dt, n_paths=300, seed=11).time_grid(),
        seed=11, record=True)
    params.update(overrides)
    return _engine.EngineParams(**params)

# case -> (params, engine constants, (SHA-256, rejected proposals, paths per
# termination code (horizon, T0, step failure)))
ENGINE_CONTRACT = {
    # one halving allowed: some paths fail
    "max_halvings": (dict(dt=0.05), dict(MAX_HALVINGS=1), (
        "783c2e7eed7376f946c68b5d830eb0e63d649373ed1ab830318ad3e79734f9d1",
        149, (268, 0, 32))),
    # three proposals per interval: paths fail on the proposal budget
    "budget": (dict(), dict(PROPOSAL_BUDGET=3), (
        "d387974d1bdae989fee338c25397da34cb5c0abc4a9896a90aafc61fe86aafca",
        52, (296, 0, 4))),
    # k below 1/2: wall crossings stop paths at T0
    "stop_at_t0": (dict(k=0.3, stop_at_t0=True), dict(), (
        "f72e762c2f4fd9590a0570989f8aee69d4394388203519e9959c70ea0cc36255",
        0, (102, 198, 0))),
    # a wide contact threshold: 12 paths touch a wall, none stops
    "wall_contact": (dict(), dict(EPS_WALL=1e-2), (
        "f1f81ab79f5db60ea8230e42573e0402270ca101fe5813d6a6fbe43299096a7d",
        56, (300, 0, 0))),
    # contacts and crossings both stop paths at T0
    "contact_stops": (dict(k=0.3, stop_at_t0=True), dict(EPS_WALL=1e-2), (
        "158c0e374bcebde7b224303c616ba33807dbf3260959b9066117978970f44ab7",
        0, (85, 215, 0))),
    # no states kept, as in an unrecorded radial run
    "unrecorded": (dict(record=False), dict(), (
        "375924c79492c2f3164aef3744de52ad8d9c60c6f682fb9f1e65fa54c7ca9da5",
        56, (300, 0, 0))),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CONTRACT))
def test_engine_outputs_match_contract(case, monkeypatch):
    overrides, constants, expected = ENGINE_CONTRACT[case]
    for name, value in {"DEFAULT_CHUNK": 128, **constants}.items():
        monkeypatch.setattr(_engine, name, value)
    res = _engine.run_paths(_engine_params(**overrides), 300)
    got = (_engine_digest(res), int(res.n_rejected.sum()),
           tuple(np.bincount(res.termination, minlength=3).tolist()))
    assert got == expected


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
        "b75824ea6be602ed55d866e2afea52e60b5dc77d372c2f258928cd38bf62e5c2")


# The engine's per-path diagnostics alone, over the plain run and the cases
# that stop paths: a change to how they are computed moves this digest even
# where the states hold.
DIAGNOSTICS = ("stop_index", "t0_time", "wall_contact", "min_wall_distance", "n_rejected")
DIAGNOSTICS_SHA256 = (
    "8bb67c5605f187ed3902cf4a23305a6869b35219cf87e6e3055cf3b51dfc2b69")


def test_engine_diagnostics_match_contract():
    h = hashlib.sha256()
    for overrides, constants in ((dict(), dict()), ENGINE_CONTRACT["stop_at_t0"][:2],
                                 ENGINE_CONTRACT["max_halvings"][:2]):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in {"DEFAULT_CHUNK": 128, **constants}.items():
                mp.setattr(_engine, name, value)
            res = _engine.run_paths(_engine_params(**overrides), 300)
        for name in DIAGNOSTICS:
            h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
    assert h.hexdigest() == DIAGNOSTICS_SHA256
