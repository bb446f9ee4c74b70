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
        "0d80bf88d332bc0ad8572dcc78d640ecdf3f7b30f7b5f9016ddd1466f805b837", 215, 3)),
    "b4_general": (_b4_general, (
        "ee1ad1240b9f77dae88c2dedadadab2e78322cfd5a4d19337981f186b711ac7e", 118, 1)),
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
        "2dbad75deff34d115f18d74cb4cca9c6f8bad302b6febd011bef6ecd2b5f6b48", 164, 1, 0,
        "4aa98f87c09352e7533c9b24e7a17f199d60afacf37bc58c5628da70305c8465")),
    "b2_general_then_flips": (_b2_general_then_flips, (1, 2, 3, 4), (
        "389184fb7c9a89255e72d91b8948602015b97de2a624aa4831e17700d5796aa4", 1229, 145,
        29, "c2b33428ff484cdc0b91fc09b3f5197db0863e3106ffa8fcd7b7bedda3761215")),
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
        "684a9183aadb48a9e30e63154ba690359cfb3e752506f152d3d62cf64b9a9e3f",
        137, (277, 0, 23))),
    # three proposals per interval: paths fail on the proposal budget
    "budget": (dict(), dict(PROPOSAL_BUDGET=3), (
        "3a5e8535ac7623961c16351816c722c1a85da3fd41982ac4c3355005ac0e46c4",
        56, (294, 0, 6))),
    # k below 1/2: wall crossings stop paths at T0
    "stop_at_t0": (dict(k=0.3, stop_at_t0=True), dict(), (
        "a0a0f9e7a0cbba2a3170f81c61930332b1105cd085fb348ad7afef3a5b5c157e",
        0, (99, 201, 0))),
    # a wide contact threshold: 16 paths touch a wall, none stops
    "wall_contact": (dict(), dict(EPS_WALL=1e-2), (
        "daae5afcaaeb966d7b2e910e5eb162021ea9c9944b8f204457b341d1b2888b3e",
        59, (300, 0, 0))),
    # contacts and crossings both stop paths at T0
    "contact_stops": (dict(k=0.3, stop_at_t0=True), dict(EPS_WALL=1e-2), (
        "0753c4e5197e320cad257dd4b1abc64dedb42e174d57afd3bc0ecdd2f34a298d",
        0, (75, 225, 0))),
    # no states kept, as in an unrecorded radial run
    "unrecorded": (dict(record=False), dict(), (
        "c15a222507067d625aad08f7fc7f21dd9a01ab8965e594bd1a0b2f548848d84b",
        59, (300, 0, 0))),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CONTRACT))
def test_engine_outputs_match_contract(case, monkeypatch):
    overrides, constants, expected = ENGINE_CONTRACT[case]
    for name, value in constants.items():
        monkeypatch.setattr(_engine, name, value)
    res = _engine.run_paths(_engine_params(**overrides), 300, chunk_size=128)
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
        "c5ab1a4a3e78650b98fe9c6610710deef14391ba64c62992e5b2cd8d161dc85d")


# The engine's per-path diagnostics alone, over the plain run and the cases
# that stop paths: a change to how they are computed moves this digest even
# where the states hold.
DIAGNOSTICS = ("stop_index", "t0_time", "wall_contact", "min_wall_distance", "n_rejected")
DIAGNOSTICS_SHA256 = (
    "6df1fc17f10e050a61a92229dbcea88ccd3780750c064080c9f3575538adb7b3")


def test_engine_diagnostics_match_contract():
    h = hashlib.sha256()
    for overrides, constants in ((dict(), dict()), ENGINE_CONTRACT["stop_at_t0"][:2],
                                 ENGINE_CONTRACT["max_halvings"][:2]):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in constants.items():
                mp.setattr(_engine, name, value)
            res = _engine.run_paths(_engine_params(**overrides), 300, chunk_size=128)
        for name in DIAGNOSTICS:
            h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
    assert h.hexdigest() == DIAGNOSTICS_SHA256
