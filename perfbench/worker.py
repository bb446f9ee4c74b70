"""One benchmark process: set up a workload and, in ``call`` mode, time it.

``run.py`` starts this script in fresh processes; it is not meant to be run
by hand.  Modes:

* ``setup``: time import plus building the workload, then time the
  reference kernel once;
* ``check``: the same, then run the reduced instance with threads=1, again
  with threads=1 and with threads=2, and return the three digests (or the
  error one of them raised);
* ``call``: the same set-up for the seed of call ``--call``, then one timed
  workload call between two timings of the reference kernel.  A call
  that raises is reported with its error, and ``capped`` tells whether it
  hit the time budget or the address-space cap (``CallTimeout`` or
  ``MemoryError``).  With ``--trace 1`` the layer
  entry points are wrapped before set-up and the call's per-layer metrics
  are returned; with ``--gate 1`` the correctness gate runs on the call's
  output.

The reference kernel (``reference_s``) is fixed code that uses nothing
from ``dunkl_lab``; its times (``ref_s``) tell ``run.py`` how fast the host
ran around each set-up and call.

The last line of standard output is one JSON object.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# Address-space cap: a path with millions of flips (a known defect of the
# shortcut clock) ends its call with MemoryError instead of exhausting a
# shared machine.
ADDRESS_SPACE_BYTES = 2 << 30
# Rounds of the two parts of the reference kernel: together about 0.2 s on
# a 2-vCPU Xeon VM, each part about half.
REFERENCE_ROUNDS = 225
REFERENCE_BLOCKS = 3


class CallTimeout(Exception):
    """A workload call ran past the process's time budget."""


def _on_alarm(signum, frame):
    raise CallTimeout("workload call exceeded the time budget")


def reference_s():
    """Time the reference kernel, in two parts like the workloads' time:
    Philox draws, ufuncs over 16384 doubles and an interpreted loop, all in
    cache; and 8 MB blocks of fresh Philox draws copied with a stride, which
    go to memory.  It calls nothing in ``dunkl_lab``, so only the host's
    speed moves it.  On a noisy host the log of a workload call's time rose
    0.98 (radial-wide) and 1.02 (lift-general) times as fast as the log of
    this kernel's time; with the first part alone, 0.91 and 1.21."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(7))
    x = np.ones(16384)
    acc = 0.0
    t0 = perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        x = np.abs(x + 0.03 * gen.standard_normal(x.size))
        acc += float(np.sqrt(x * x + 1.0).sum())
        for j in range(200):
            acc += (j * 0.5) % 3
    for _ in range(REFERENCE_BLOCKS):
        block = gen.standard_normal((4096, 128, 2))
        acc += float(np.stack([block[:, i] for i in range(0, 128, 2)]).sum())
    return perf_counter() - t0


def timed_call(case, budget, tracer):
    """Run one workload call under a deadline; return its record and result."""
    rec = {"error": None}
    result = None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(budget - (perf_counter() - T_START), 1.0))
    if tracer is not None:
        tracer.enabled = True
    t0 = perf_counter()
    try:
        result = case.call()
    except Exception as exc:  # reported; run.py decides what it means
        # No traceback: after a MemoryError, formatting one can raise again.
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["capped"] = isinstance(exc, (CallTimeout, MemoryError))
    finally:
        rec["wall_s"] = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.enabled = False
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if result is None:
        rec["attempted"], rec["failed"] = workloads.failed_call(case)
    else:
        rec["attempted"], rec["failed"] = workloads.outcome(case, result)
        rec["digest"] = workloads.digest(case, result)
        rec["failed_checks"] = workloads.failed_checks(case, result)
    return rec, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "check", "call"), required=True)
    ap.add_argument("--call", type=int, default=0,
                    help="index of the call; its seed derives from --seed and it")
    ap.add_argument("--budget", type=float, default=30.0,
                    help="seconds from process start after which the call is "
                         "interrupted and counted as failed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))

    tracer = None
    workloads.import_layer(args.workload)
    if args.trace and args.mode == "call":
        tracer = spans.Tracer()
        tracer.install()
        tracer.enabled = True
    seed = workloads.call_seed(args.seed, args.call)
    case = workloads.build(args.workload, seed)
    out = {"setup_s": perf_counter() - T_START}
    if tracer is not None:
        tracer.enabled = False
        setup_spans = tracer.take()

    if args.mode in ("setup", "call"):
        out["ref_s"] = [reference_s()]
    if args.mode == "check":
        try:
            out["check_digests"] = workloads.check_digests(case)
        except Exception as exc:  # a wrong program, reported as such
            out["check_error"] = f"{type(exc).__name__}: {exc}"
    if args.mode == "call":
        rec, result = timed_call(case, args.budget, tracer)
        out.update(rec)
        out["ref_s"].append(reference_s())
        if args.gate and result is not None:
            out["gate"] = workloads.gate(case, workloads.gate_data(case, result))
        del result
        if tracer is not None:
            tracer.uninstall()
            out["per_layer"], out["absent"] = spans.layer_metrics(
                setup_spans, tracer.take(), tracer.missing,
                {"verify.failed_checks": len(out.get("failed_checks", ()))})
        import numpy
        import scipy
        out["versions"] = {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(out, default=float))


if __name__ == "__main__":
    main()
