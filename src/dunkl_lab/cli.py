"""Command-line surface for batch simulation and verification runs.

Subcommands: describe, simulate-radial, simulate-dunkl, verify-harmonic,
verify-suite, export-plot-data.  Batch runs are driven by a JSON
configuration (see ``config.SCHEMA``); ``--set key.path=value`` overrides
entries, and the environment variable DUNKL_LAB_SEED overrides the
configured seed.  All diagnostics go to stderr; exit status is nonzero on
any error or failed check.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import verify as verify_mod
from ._engine import DEFAULT_CHUNK
from .config import load_run_config
from .errors import DunklLabError, InvalidArgumentError
from .lift import build_lift_plan, simulate_dunkl
from .radial import read_trajectories_csv, run_radial, write_trajectories_csv
from .root_systems import (
    build_type_a,
    build_type_b,
    check_invariance_condition,
    multiplicity,
)
from .verify import harmonicity_check, render_table, reports_to_json, run_suite


def _env_seed():
    raw = os.environ.get("DUNKL_LAB_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise DunklLabError(f"DUNKL_LAB_SEED must be an integer, got {raw!r}")


def _build_system(kind, n):
    if kind == "A":
        return build_type_a(n)
    if kind == "B":
        return build_type_b(n)
    raise DunklLabError(f"unknown system type {kind!r}")


def _parse_k(text, system):
    values = [float(v) for v in text.split(",")]
    return multiplicity(system, values[0] if len(values) == 1 else values)


def cmd_describe(args):
    system = _build_system(args.system, args.n)
    pos = system.positive_roots
    print(f"type {args.system} root system in R^{system.dimension}: "
          f"{len(system.roots)} roots, {len(pos)} positive")
    print(f"Weyl group order: {len(system.weyl_group)}")
    for oi, orbit in enumerate(system.orbits):
        rep = system.roots[orbit[0]]
        print(f"orbit {oi}: {len(orbit)} roots, e.g. {np.array2string(rep, precision=6)}")
    print("positive enumeration and chamber C = {x : x·alpha_i > 0}:")
    orbit_of = system.positive_orbit_index()
    for i, alpha in enumerate(pos):
        print(f"  alpha_{i+1} = {np.array2string(alpha, precision=6)}   (orbit {orbit_of[i]})")
    print("invariance condition sigma_i({±alpha_1..±alpha_(i-1)}) preserved:")
    for i in range(1, len(pos) + 1):
        ok = check_invariance_condition(system, i)
        print(f"  i={i}: {'true' if ok else 'false'}")
    return 0


def _summary_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _report_run(cfg, run, **fields):
    """Write the run's CSV if the config asks for one and print its summary."""
    if cfg.output:
        write_trajectories_csv(run.trajectories, cfg.output["path"])
    sq = np.einsum("ij,ij->i", run.final_states, run.final_states)
    print(_summary_json({
        "paths": cfg.sim.n_paths,
        "horizon": cfg.sim.horizon,
        "mean_sq_norm_T": float(sq.mean()),
        "step_failure_fraction": float(np.mean(run.termination == "step_failure")),
        "output": cfg.output["path"] if cfg.output else None,
        **fields,
    }))
    return 0


def cmd_radial(args):
    cfg = load_run_config(args.config, args.set or (), seed_override=_env_seed())
    run = run_radial(cfg.system, cfg.k, cfg.x0, cfg.sim, record=True,
                     threads=args.threads)
    target = cfg.x0 @ cfg.x0 + (cfg.system.dimension + 2 * cfg.k.gamma) * cfg.sim.horizon
    return _report_run(cfg, run, mean_sq_norm_target=float(target),
                       hit_fraction=run.hit_fraction,
                       t0_fraction=float(np.mean(run.termination == "T0")),
                       rejected_proposals=int(run.n_rejected.sum()))


def cmd_simulate_dunkl(args):
    cfg = load_run_config(args.config, args.set or (), seed_override=_env_seed())
    plan = build_lift_plan(cfg.system, cfg.k, rates=cfg.k_prime,
                           enumeration=cfg.enumeration, mode=args.mode)
    run = simulate_dunkl(plan, cfg.x0, cfg.sim, threads=args.threads)
    jumps = run.n_jumps
    return _report_run(cfg, run, modes=list(plan.modes), rates=list(plan.rates),
                       mean_jumps_per_path=float(jumps.mean()),
                       total_jumps=int(jumps.sum()), max_jumps_path=int(jumps.max()))


def cmd_verify_harmonic(args):
    system = _build_system(args.system, args.n)
    k = _parse_k(args.k, system)
    seed = _env_seed()
    if seed is None:
        seed = args.seed
    reports = [
        harmonicity_check(system, k, n_points=args.points, seed=seed,
                          which="delta"),
        harmonicity_check(system, k, n_points=args.points, seed=seed,
                          which="pi", tol=1e-6),
        harmonicity_check(system, 0.8, n_points=args.points, seed=seed,
                          which="pi_power", tol=1e-6, name="harmonic-pi_power"),
    ]
    if 0.5 in k.by_orbit:
        reports.insert(1, harmonicity_check(system, k, n_points=args.points,
                                            seed=seed, which="delta_bar"))
    print(render_table(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify_suite(args):
    cfg = load_run_config(args.config, args.set or (), seed_override=_env_seed())
    reports = run_suite(
        cfg.system, cfg.k, cfg.x0,
        horizon=cfg.sim.horizon, dt=cfg.sim.dt, n_paths=cfg.sim.n_paths,
        seed=cfg.sim.seed, k_prime=cfg.k_prime, threads=args.threads,
    )
    print(render_table(reports))
    print(reports_to_json(reports, indent=2))
    return 0 if verify_mod.suite_passed(reports) else 1


def cmd_export_plot_data(args):
    if args.bins < 1:
        raise InvalidArgumentError(f"--bins must be at least 1, got {args.bins}")
    try:
        paths = read_trajectories_csv(getattr(args, "in"))
    except OSError as exc:
        raise DunklLabError(f"cannot read trajectory CSV: {exc}") from exc
    all_t = np.concatenate([rec["t"] for rec in paths.values()])
    t_max = float(all_t.max())
    edges = np.linspace(0.0, t_max, args.bins + 1)
    dim = next(iter(paths.values()))["x"].shape[1]
    rows = []
    for b in range(args.bins):
        lo, hi = edges[b], edges[b + 1]
        states, jumps, t0s = [], 0, 0
        for rec in paths.values():
            inside = (rec["t"] >= lo) & ((rec["t"] < hi) | (b == args.bins - 1) & (rec["t"] <= hi))
            states.append(rec["x"][inside])
            events = [e for e, m in zip(rec["event"], inside) if m]
            jumps += sum(1 for e in events if e.startswith("jump:"))
            t0s += sum(1 for e in events if e == "T0")
        block = np.concatenate(states) if states else np.zeros((0, dim))
        row = {
            "t_lo": lo, "t_hi": hi, "count": len(block),
            "jumps": jumps, "t0_events": t0s,
            "mean_sq_norm": float(np.mean(np.einsum("ij,ij->i", block, block)))
            if len(block) else float("nan"),
        }
        for i in range(dim):
            row[f"mean_x_{i+1}"] = float(block[:, i].mean()) if len(block) else float("nan")
            row[f"std_x_{i+1}"] = float(block[:, i].std(ddof=1)) if len(block) > 1 else float("nan")
        rows.append(row)
    fieldnames = list(rows[0].keys())
    with open(args.out, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (f"{v:.17g}" if isinstance(v, float) else v)
                             for k, v in row.items()})
    print(f"wrote {len(rows)} bins to {args.out}")
    return 0


def build_parser():
    threads_help = f"worker processes, at most one per {DEFAULT_CHUNK} paths (0 = one per CPU)"
    parser = argparse.ArgumentParser(
        prog="dunkl-lab",
        description="Simulate and verify multidimensional Dunkl Markov processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print a root system and its invariance table")
    p.add_argument("--system", required=True, choices=["A", "B"])
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(fn=cmd_describe)

    for name, fn, extra in [
        ("simulate-radial", cmd_radial, False),
        ("simulate-dunkl", cmd_simulate_dunkl, True),
    ]:
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} from a JSON config")
        p.add_argument("--config", required=True)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")
        p.add_argument("--threads", type=int, default=1, help=threads_help)
        if extra:
            p.add_argument("--mode", default="auto",
                           choices=["auto", "shortcut", "general"],
                           help="lift realization; auto picks the Poisson "
                                "shortcut wherever the invariance condition holds")
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify-harmonic", help="harmonicity residual spot checks")
    p.add_argument("--system", required=True, choices=["A", "B"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True,
                   help="multiplicity: one value, or per-orbit comma list")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_harmonic)

    p = sub.add_parser("verify-suite", help="run the full statistical battery")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.set_defaults(fn=cmd_verify_suite)

    p = sub.add_parser("export-plot-data",
                       help="time-binned statistics from a trajectory CSV")
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(fn=cmd_export_plot_data)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DunklLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
