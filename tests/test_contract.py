"""The reproducibility contract: outputs for a fixed (config, seed) never change.

Each case hashes the final states, the stop index, the termination labels
and the jump table of a small run.  A deliberate change to the contract
(a new step rule, new streams) updates these digests and says so in
CHANGES.md; anything else that moves them is a regression.
"""

import hashlib

import numpy as np
import pytest

from dunkl_lab import SimulationConfig, build_type_b, multiplicity, run_radial
from dunkl_lab.lift import build_lift_plan, simulate_dunkl


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
