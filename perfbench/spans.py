"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps layer entry points of ``dunkl_lab`` at run time, in every
``dunkl_lab`` module namespace that holds them (modules that import a
function by name keep their own reference).  Each wrapped call records a
span (name, start, end, parent) in memory.  A layer's self time is the
duration of its spans minus the time their child spans cover, so time spent
in ``rng`` streams opened by the engine counts for ``rng``, not ``engine``.

An entry point that no longer exists (say, after a refactor deletes it) is
skipped: the metrics that depend on it are reported as absent with a note,
and the run still succeeds.  A module that no longer exists is not loaded,
so its entry points report zero calls.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from time import perf_counter

Span = namedtuple("Span", "name start end parent outer info")


def _engine_info(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    n_paths = args[1] if len(args) > 1 else kwargs["n_paths"]
    failure = getattr(sys.modules["dunkl_lab._engine"], "TERM_STEP_FAILURE", 2)
    return {"path_steps": int(n_paths) * (len(params.tgrid) - 1),
            "rejected": int(result.n_rejected.sum()),
            "step_failures": int((result.termination == failure).sum())}


def _lift_info(args, kwargs, result):
    jumps = result.n_jumps
    return {"paths": len(jumps), "jumps": int(jumps.sum()),
            "max_jumps": int(jumps.max()) if len(jumps) else 0}


def _paths_info(args, kwargs, result):
    return {"paths": len(args[0])}


def _points_info(args, kwargs, result):
    x = args[2] if len(args) > 2 else kwargs["x"]
    shape = getattr(x, "shape", None) or (len(x),)
    return {"points": math.prod(shape[:-1]) if len(shape) > 1 else 1}


# (span name, module under dunkl_lab, attribute, info extractor).  The span's
# layer is the part of its name before the first dot.  Two private helpers
# are wrapped so that building trajectories (radial) and flip stages (lift)
# can be told apart inside ``simulate_dunkl``.
ENTRY_POINTS = [
    ("rng.stream", "rng", "stream", None),
    ("engine.run_paths", "_engine", "run_paths", _engine_info),
    ("engine.cover_interval", "_engine", "cover_interval", None),
    ("radial.run_radial", "radial", "run_radial", None),
    ("radial.build_trajectories", "radial", "_trajectories_from_engine", None),
    ("lift.simulate_dunkl", "lift", "simulate_dunkl", _lift_info),
    ("lift.flip_stage", "lift", "_flip_stage", _paths_info),
    ("lift.cumulative_time_change", "lift", "cumulative_time_change", None),
    ("lift.build_lift_plan", "lift", "build_lift_plan", None),
    ("root_systems.generate_weyl_group", "root_systems", "generate_weyl_group", None),
    ("root_systems.check_invariance_condition", "root_systems",
     "check_invariance_condition", None),
    ("calculus.generator_terms", "calculus", "generator_terms", _points_info),
] + [
    (f"verify.{fn}", "verify", fn, None)
    for fn in ("harmonicity_check", "norm_is_bessel", "bessel_em_oracle",
               "calibrate_bias_coefficient", "martingale_residual")
]

LAYERS = ("root_systems", "rng", "engine", "radial", "lift", "calculus", "verify")

# Setup-phase spans that make up building the system, group and plan.
BUILD_SPANS = ("root_systems.generate_weyl_group",
               "root_systems.check_invariance_condition", "lift.build_lift_plan")

# name -> (unit, entry points it needs; empty means it needs none).  A metric
# whose entry points are all missing is reported as absent.
NAMED_METRICS = {
    "root_systems.build_s": ("s", BUILD_SPANS),
    "rng.streams": ("count", ("rng.stream",)),
    "rng.stream_us": ("us", ("rng.stream",)),
    "rng.self_s": ("s", ("rng.stream",)),
    "engine.self_s": ("s", ("engine.run_paths", "engine.cover_interval")),
    "engine.ns_per_path_step": ("ns", ("engine.run_paths",)),
    "engine.scalar_calls": ("count", ("engine.cover_interval",)),
    "engine.scalar_s": ("s", ("engine.cover_interval",)),
    "engine.rejected": ("count", ("engine.run_paths",)),
    "engine.step_failures": ("count", ("engine.run_paths",)),
    "radial.self_s": ("s", ("radial.run_radial", "radial.build_trajectories")),
    "lift.self_s": ("s", ("lift.simulate_dunkl", "lift.flip_stage",
                          "lift.cumulative_time_change", "lift.build_lift_plan")),
    "lift.flip_us_per_path_stage": ("us", ("lift.flip_stage",)),
    "lift.time_change_s": ("s", ("lift.cumulative_time_change",)),
    "lift.jumps_per_path": ("1/path", ("lift.simulate_dunkl",)),
    "lift.max_jumps_path": ("count", ("lift.simulate_dunkl",)),
    "calculus.generator_s": ("s", ("calculus.generator_terms",)),
    "calculus.points": ("count", ("calculus.generator_terms",)),
    "verify.norm_oracle_s": ("s", ("verify.norm_is_bessel",)),
    "verify.martingale_s": ("s", ("verify.martingale_residual",
                                  "verify.calibrate_bias_coefficient")),
    "verify.failed_checks": ("count", ()),
    "failed_frac": ("1", ()),
    "trace.wall_s": ("s", ()),
}


# Generic span metrics left out because a named metric reports the same
# number.  (``engine.cover_interval.calls`` stays: it counts the recursive
# calls too, ``engine.scalar_calls`` only the outermost ones.)
DUPLICATES = {
    "rng.stream.calls": "rng.streams",
    "rng.stream.s": "rng.self_s",
    "engine.cover_interval.s": "engine.scalar_s",
    "lift.cumulative_time_change.s": "lift.time_change_s",
    "calculus.generator_terms.s": "calculus.generator_s",
    "verify.norm_is_bessel.s": "verify.norm_oracle_s",
}


def span_metrics():
    """(name, unit, span, kind) of the generic ``<span>.calls``/``<span>.s``
    metrics that no named metric duplicates."""
    out = []
    for span, *_ in ENTRY_POINTS:
        for kind, unit in (("calls", "count"), ("s", "s")):
            name = f"{span}.{kind}"
            if name not in DUPLICATES:
                out.append((name, unit, span, kind))
    return out


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: unit for name, (unit, _) in NAMED_METRICS.items()}
    units.update((name, unit) for name, unit, _, _ in span_metrics())
    return units


class Tracer:
    """Records spans around wrapped entry points while ``enabled`` is set."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.missing = {}       # span name -> note
        self._stack = []
        self._active = {}       # span name -> open spans of that name
        self._patches = []

    def _wrap(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            outer = not tracer._active.get(name)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._active[name] = tracer._active.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                tracer.spans[idx] = Span(name, start, end, parent, outer, None)
            if info is not None:
                tracer.spans[idx] = tracer.spans[idx]._replace(
                    info=info(args, kwargs, result))
            return result

        return wrapper

    def install(self, entry_points=ENTRY_POINTS):
        """Wrap every entry point in each loaded ``dunkl_lab`` namespace.

        Modules the workload has not imported are left alone: the workload
        cannot call into them, and importing them would change its set-up.
        """
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "dunkl_lab"
                                            or key.startswith("dunkl_lab."))]
        for name, module, attr, info in entry_points:
            mod = sys.modules.get(f"dunkl_lab.{module}")
            if mod is None:
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing[name] = f"dunkl_lab.{module}.{attr} not found"
                continue
            wrapper = self._wrap(name, original, info)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per span name: calls, outermost inclusive time, self time, info sums."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {}
    for i, s in enumerate(spans):
        rec = out.setdefault(s.name, {"calls": 0, "outer_calls": 0, "incl_s": 0.0,
                                      "self_s": 0.0, "info": {}})
        dur = s.end - s.start
        rec["calls"] += 1
        rec["self_s"] += dur - child[i]
        if s.outer:
            rec["outer_calls"] += 1
            rec["incl_s"] += dur
        for key, value in (s.info or {}).items():
            if key.startswith("max_"):
                rec["info"][key] = max(rec["info"].get(key, 0), value)
            else:
                rec["info"][key] = rec["info"].get(key, 0) + value
    return out


def outermost_s(spans, names):
    """Total time of spans in ``names`` not nested inside another of them."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def layer_metrics(setup_spans, call_spans, missing, extra):
    """Per-layer metrics of one traced workload call.

    ``extra`` supplies the metrics measured outside the spans
    (``verify.failed_checks``, ``failed_frac``, ``trace.wall_s``).  Returns
    (metrics, notes): metrics maps name -> value; notes maps each absent
    metric to the reason.
    """
    calls = summarize(call_spans)
    empty = {"calls": 0, "outer_calls": 0, "incl_s": 0.0, "self_s": 0.0, "info": {}}

    def get(name):
        return calls.get(name, empty)

    def incl(*names):
        return sum(get(n)["incl_s"] for n in names)

    def info(name, key):
        return get(name)["info"].get(key, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, rec in calls.items():
        layer_self[name.split(".")[0]] += rec["self_s"]

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    path_steps = info("engine.run_paths", "path_steps")
    flip_paths = info("lift.flip_stage", "paths")
    lift_paths = info("lift.simulate_dunkl", "paths")
    values = {
        "root_systems.build_s": outermost_s(setup_spans, BUILD_SPANS),
        "rng.streams": get("rng.stream")["calls"],
        "rng.stream_us": ratio(layer_self["rng"], get("rng.stream")["calls"], 1e6),
        "rng.self_s": layer_self["rng"],
        "engine.self_s": layer_self["engine"],
        "engine.ns_per_path_step": ratio(layer_self["engine"], path_steps, 1e9),
        "engine.scalar_calls": get("engine.cover_interval")["outer_calls"],
        "engine.scalar_s": incl("engine.cover_interval"),
        "engine.rejected": info("engine.run_paths", "rejected"),
        "engine.step_failures": info("engine.run_paths", "step_failures"),
        "radial.self_s": layer_self["radial"],
        "lift.self_s": layer_self["lift"],
        "lift.flip_us_per_path_stage": ratio(get("lift.flip_stage")["incl_s"],
                                             flip_paths, 1e6),
        "lift.time_change_s": incl("lift.cumulative_time_change"),
        "lift.jumps_per_path": ratio(info("lift.simulate_dunkl", "jumps"),
                                     lift_paths, 1.0),
        "lift.max_jumps_path": info("lift.simulate_dunkl", "max_jumps"),
        "calculus.generator_s": incl("calculus.generator_terms"),
        "calculus.points": info("calculus.generator_terms", "points"),
        "verify.norm_oracle_s": incl("verify.norm_is_bessel"),
        "verify.martingale_s": incl("verify.martingale_residual",
                                    "verify.calibrate_bias_coefficient"),
    }
    values.update(extra)
    for name, _, span, kind in span_metrics():
        values[name] = get(span)["calls"] if kind == "calls" else incl(span)

    notes = {}
    for name, (_, needs) in NAMED_METRICS.items():
        if needs and all(n in missing for n in needs):
            notes[name] = "; ".join(missing[n] for n in needs)
    for span, note in missing.items():
        for name in (f"{span}.calls", f"{span}.s"):
            if name not in DUPLICATES:
                notes[name] = note
    return {k: v for k, v in values.items() if k not in notes}, notes
