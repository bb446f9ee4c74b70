"""Benchmark of dunkl-lab: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload radial-wide --seed 1 --seconds 12 --trace 0

Workloads: radial-wide, lift-shortcut, lift-general, verify-b2 (see
``workloads.py`` for what each one calls and why).  The program under test is
the package in ``src/``, run from source.

A run starts fresh processes one after another, each with BLAS and OpenMP
pinned to one thread:

1. ``check``: runs a reduced instance of the workload with threads=1, again
   with threads=1 and with threads=2, and requires the three output
   digests to be equal;
2. ``call`` processes, one per workload call: each times set-up and one
   call.  The number of calls (``call_count``) is fixed by the workload
   and ``--seconds`` alone, so a seed gives the same calls on any host.
   Call i uses its own seed, derived from ``--seed`` and i, so a run
   samples the spread of cost across seeds.  The correctness gate runs on
   the first call that returns;
3. ``setup`` processes between the calls, until there are
   ``MIN_SETUP_SAMPLES`` set-up samples with those of the call processes.

Every set-up and call process also times a fixed reference kernel that
calls nothing in ``dunkl_lab``: right after set-up and, in a call process,
again after the call.  The host is a share of a machine whose speed drifts
by 15-50% over seconds to minutes, and the kernel drifts with the
workloads, so times are reported at the reference host's speed: each is
divided by its process's mean kernel time over ``REF_NOMINAL_S``, the
kernel's time on that host.  A change to the program moves the times but
not the kernel.  The run prints the measured times and each process's
speed factor too.

``setup_s`` is the median of the corrected set-up times of the call and
setup processes (the cold check process is left out), ``wall_s`` the median
corrected call time and ``peak_rss_mb`` the median over call processes of
their peak resident memory, taken before the gate runs.  A call that ran
past the time budget or the address-space cap counts as the slowest call of
the run.  With ``--trace 1`` every call runs under the span tracer and the
run reports, for each per-layer metric, its median over the calls (span
times as measured); ``trace.wall_s`` against the ``wall_s`` of an untraced
run with the same seed is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is
the number of simulated paths, ``failed`` those that ended in a step
failure plus every path of a call that hit a cap.  The verdicts of
verify-b2's reports are printed, not counted as failed paths.  The command
exits with 1 when an output is wrong: the correctness gate failed or no
call returned for it to check, its control was not rejected, a digest
differed, a call raised anything but the time or memory cap, or half the
calls or more hit a cap.  It exits with 2 when the benchmark cannot run at
all, for example when ``src/dunkl_lab`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from spans import per_layer_units  # noqa: E402  (stdlib only)

# Kept in step with workloads.NAMES (a test checks it); run.py imports no
# numpy before the thread pins below are in its environment.
WORKLOADS = ("radial-wide", "lift-shortcut", "lift-general", "verify-b2")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

TOTAL_BUDGET_S = 170.0    # the whole command must finish within 180 s
SETUP_TIMEOUT_S = 40.0
# A call still running after this long is interrupted and counts as failed.
# It is ten times a typical lift-shortcut call: the flip-clock defect makes
# a few calls in a hundred run for minutes and take gigabytes.
CALL_TIMEOUT_S = 30.0
# Calls per 20 s of ``--seconds``: as many as fit on a 2-vCPU Xeon VM, with
# their share of set-up-only processes, except for lift-shortcut.  Its cost
# varies most across seeds (call medians of 5-call runs spread by 0.14 of
# their median over ten runs), so it makes 8 calls and its run takes about
# 1.5 times as long.
CALLS_PER_20_S = {"radial-wide": 6, "lift-shortcut": 8, "lift-general": 4,
                  "verify-b2": 3}
MIN_CALLS = 3
# Set-up samples of a run: the call processes and set-up-only processes.
# Corrected for host speed, six samples put the median of ten runs within a
# few percent; each set-up-only process costs 0.5 to 1.5 s.
MIN_SETUP_SAMPLES = 6
# Seconds of the worker's reference kernel on the same VM: times are
# reported at that speed (see the module docstring).
REF_NOMINAL_S = 0.2


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, mode, timeout, extra=()):
    """Run one worker process to completion; return its JSON record."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=str(ROOT), start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed nothing")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args):
    """Machine and settings this run was measured on."""
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "loadavg": os.getloadavg(), "python": platform.python_version(),
        "blas_threads": THREAD_PINS["OPENBLAS_NUM_THREADS"],
    }


def percentile_note(walls):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(walls)
    if n < 20:
        return (f"wall_s: median {statistics.median(walls):.6g} s over {n} calls; "
                "too few calls for a percentile above the median")
    p = 100.0 * (n - 10) / n
    value = sorted(walls)[n - 11]
    return (f"wall_s: median {statistics.median(walls):.6g} s, "
            f"p{p:.0f} {value:.6g} s over {n} calls")


def call_count(workload, seconds):
    """Calls of a run of ``seconds``.

    The count depends on nothing measured, so a seed and a run length give
    the same calls, inputs and outcome counts on every host."""
    return max(MIN_CALLS, round(seconds / 20.0 * CALLS_PER_20_S[workload]))


def host_speed(ref_s):
    """How slowly the host ran: the mean of reference kernel times over the
    kernel's time on the reference host."""
    return statistics.fmean(ref_s) / REF_NOMINAL_S


def bench(args):
    started = time.monotonic()
    record = run_record(args)
    problems = []

    def remaining():
        return TOTAL_BUDGET_S - (time.monotonic() - started)

    def setup_sample():
        return run_worker(args, "setup", SETUP_TIMEOUT_S)

    check = run_worker(args, "check", SETUP_TIMEOUT_S)
    n_calls = call_count(args.workload, args.seconds)
    calls, setups, gate = [], [], None
    while len(calls) < n_calls:
        budget = min(CALL_TIMEOUT_S, remaining() - 5.0)
        call = run_worker(args, "call", remaining(),
                          ["--call", str(len(calls)), "--trace", str(args.trace),
                           "--gate", str(int(gate is None)), "--budget", str(budget)])
        calls.append(call)
        setups.append(call)
        gate = gate or call.get("gate")
        if call["error"] is not None and not call["capped"]:
            break
        # Set-up-only processes go between the calls, one after each of the
        # first calls, until the call and set-up samples reach the minimum.
        if len(setups) + n_calls - len(calls) < MIN_SETUP_SAMPLES:
            setups.append(setup_sample())
        if remaining() < 1.5 * (call["setup_s"] + call["wall_s"]) + 10.0:
            print(f"note: the time limit stopped the run after {len(calls)} "
                  f"of {n_calls} calls")
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample())

    record["versions"] = calls[0]["versions"]
    print("record " + json.dumps(record))
    print("setup_s samples (measured/host speed): " + " ".join(
        f"{p['setup_s']:.4f}/{host_speed(p['ref_s'][:1]):.3f}" for p in setups))
    print("calls (wall, host speed, memory): " + ", ".join(
        f"{c['wall_s']:.3f} s/{host_speed(c['ref_s']):.3f}/{c['peak_rss_mb']:.0f} MB"
        for c in calls))
    if "check_error" in check:
        problems.append(f"the reduced instance raised {check['check_error']}")
    else:
        digests = check["check_digests"]
        print("reduced instance digests (threads=1, repeat, threads=2): "
              + " ".join(d[:16] for d in digests))
        if len(set(digests)) != 1:
            problems.append("reduced instance output differs across repeats or threads")
    for i, c in enumerate(calls):
        if c["error"] is None:
            print(f"call {i} digest {c['digest']}")
            for name in c.get("failed_checks", ()):
                print(f"call {i} verify report did not pass: {name}")
        elif c["capped"]:
            print(f"call {i} failed: {c['error']}")
        else:
            problems.append(f"call {i} raised {c['error']}")
    capped = sum(1 for c in calls if c["error"] is not None and c["capped"])
    if capped and capped >= len(calls) - capped:
        problems.append(f"{capped} of {len(calls)} calls ran past the time or "
                        "memory cap")
    if gate is None:
        problems.append("no call returned, so no output was checked")
    else:
        print("gate " + json.dumps(gate))
        if not gate["unfinished"]["passed"]:
            problems.append("too many paths ended before the horizon")
        if not gate["law"]["passed"]:
            problems.append("BESQ law check failed")
        if gate["control"]["passed"]:
            problems.append("BESQ control (wrong dimension) was not rejected")
        if not gate.get("events", {"passed": True})["passed"]:
            problems.append("the jump log does not agree with the paths")
        if gate.get("reports_ok") is False:
            problems.append("malformed verify reports")
    for p in problems:
        print("INCORRECT: " + p)

    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    # Times at the reference host's speed.  A call that raised did not
    # finish: it counts as the slowest call, so it can only raise the
    # median, never lower it.
    walls = [c["wall_s"] / host_speed(c["ref_s"]) for c in calls]
    slowest = max(walls)
    walls = [w if c["error"] is None else slowest for w, c in zip(walls, calls)]
    print(percentile_note(walls))
    print("measured wall_s (median, not corrected for host speed): "
          f"{statistics.median(c['wall_s'] for c in calls):.6g} s")
    if args.trace:
        for name, note in sorted(calls[0]["absent"].items()):
            print(f"absent: {name} ({note})")
        values = {name: statistics.median(c["per_layer"][name] for c in calls)
                  for name in calls[0]["per_layer"]}
        values["failed_frac"] = failed / attempted
        values["trace.wall_s"] = statistics.median(walls)
        units = per_layer_units()
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(p["setup_s"] / host_speed(p["ref_s"][:1])
                                         for p in setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dunkl_lab" / "__init__.py").is_file():
        print(f"error: no dunkl_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
