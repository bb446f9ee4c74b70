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
import json
import os
import sys

import numpy as np

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


def _env_seed():
    raw = os.environ.get("DUNKL_LAB_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise DunklLabError(f"DUNKL_LAB_SEED must be an integer, got {raw!r}")


def _build_system(kind, n):
    return {"A": build_type_a, "B": build_type_b}[kind](n)    # kind is one of --system's choices


def _parse_k(text, system):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidArgumentError(
            f"--k must be numbers separated by commas, got {text!r}") from None
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


def _check_output_path(path):
    """Refuse an output path in a missing directory, or one that is a
    directory, before any work is done."""
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise InvalidArgumentError(f"output directory {folder!r} does not exist")
    if os.path.isdir(path):
        raise InvalidArgumentError(f"output path {path!r} is a directory")


def _load_simulation(args):
    """The run config of a simulate command, its output path checked."""
    cfg = load_run_config(args.config, args.set or (), seed_override=_env_seed())
    if cfg.output:
        _check_output_path(cfg.output["path"])
    return cfg


def _report_run(cfg, run, **fields):
    """Write the run's CSV if the config asks for one and print its summary."""
    if cfg.output:
        write_trajectories_csv(run, cfg.output["path"])
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
    cfg = _load_simulation(args)
    run = run_radial(cfg.system, cfg.k, cfg.x0, cfg.sim, record=bool(cfg.output),
                     threads=args.threads)
    target = cfg.x0 @ cfg.x0 + (cfg.system.dimension + 2 * cfg.k.gamma) * cfg.sim.horizon
    return _report_run(cfg, run, mean_sq_norm_target=float(target),
                       hit_fraction=run.hit_fraction,
                       t0_fraction=float(np.mean(run.termination == "T0")),
                       rejected_proposals=int(run.n_rejected.sum()))


def cmd_simulate_dunkl(args):
    cfg = _load_simulation(args)
    plan = build_lift_plan(cfg.system, cfg.k, rates=cfg.k_prime,
                           enumeration=cfg.enumeration, mode=args.mode)
    run = simulate_dunkl(plan, cfg.x0, cfg.sim, threads=args.threads,
                         record=bool(cfg.output))
    jumps = run.n_jumps
    return _report_run(cfg, run, modes=list(plan.modes), rates=list(plan.rates),
                       mean_jumps_per_path=float(jumps.mean()),
                       total_jumps=int(jumps.sum()), max_jumps_path=int(jumps.max()))


def cmd_verify_harmonic(args):
    from .verify import harmonic_identities, harmonicity_check, render_table

    system = _build_system(args.system, args.n)
    k = _parse_k(args.k, system)
    seed = _env_seed()
    if seed is None:
        seed = args.seed
    reports = [harmonicity_check(system, k_id, n_points=args.points, seed=seed,
                                 which=which, tol=tol, name=name)
               for which, k_id, tol, name, _ in harmonic_identities(k)]
    print(render_table(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify_suite(args):
    from .verify import render_table, reports_to_json, run_suite, suite_passed

    cfg = load_run_config(args.config, args.set or (), seed_override=_env_seed())
    reports = run_suite(
        cfg.system, cfg.k, cfg.x0,
        horizon=cfg.sim.horizon, dt=cfg.sim.dt, n_paths=cfg.sim.n_paths,
        seed=cfg.sim.seed, k_prime=cfg.k_prime, threads=args.threads,
    )
    print(render_table(reports))
    print(reports_to_json(reports, indent=2))
    return 0 if suite_passed(reports) else 1


def cmd_export_plot_data(args):
    if args.bins < 1:
        raise InvalidArgumentError(f"--bins must be at least 1, got {args.bins}")
    _check_output_path(args.out)
    try:
        paths = read_trajectories_csv(getattr(args, "in"))
    except OSError as exc:
        raise DunklLabError(f"cannot read trajectory CSV: {exc}") from exc
    t = np.concatenate([rec["t"] for rec in paths.values()])
    x = np.concatenate([rec["x"] for rec in paths.values()])
    t_max = float(t.max())
    edges = np.linspace(0.0, t_max, args.bins + 1)
    # bin b holds edges[b] ≤ t < edges[b + 1], the last bin its right edge too;
    # a row before 0 goes to the extra bin args.bins, which is not reported
    bin_of = np.searchsorted(edges, t, side="right") - 1
    bin_of[t == t_max] = args.bins - 1
    bin_of[t < 0.0] = args.bins
    order = np.argsort(bin_of, kind="stable")    # rows of a bin keep the reader's path order
    bounds = np.concatenate(([0], np.cumsum(np.bincount(bin_of, minlength=args.bins + 1))))
    events = np.concatenate([rec["event"] for rec in paths.values()])
    jumps, t0s = (np.bincount(bin_of[rows], minlength=args.bins + 1)
                  for rows in (np.strings.startswith(events, "jump:"), events == "T0"))
    rows = []
    for b in range(args.bins):
        block = x[order[bounds[b]:bounds[b + 1]]]
        row = {
            "t_lo": edges[b], "t_hi": edges[b + 1], "count": len(block),
            "jumps": int(jumps[b]), "t0_events": int(t0s[b]),
            "mean_sq_norm": float(np.mean(np.einsum("ij,ij->i", block, block)))
            if len(block) else float("nan"),
        }
        for i in range(x.shape[1]):
            row[f"mean_x_{i+1}"] = float(block[:, i].mean()) if len(block) else float("nan")
            row[f"std_x_{i+1}"] = float(block[:, i].std(ddof=1)) if len(block) > 1 else float("nan")
        rows.append(row)
    with open(args.out, "w", newline="") as f:
        f.write(",".join(rows[0]) + "\n")
        f.writelines(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row.values())
                     + "\n" for row in rows)
    print(f"wrote {len(rows)} bins to {args.out}")
    return 0


def build_parser():
    threads_help = "worker processes, at most one per block of paths (0 = one per CPU)"
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
