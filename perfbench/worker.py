"""One benchmark process: set up one workload, then (role `measure`) time
whole passes of it.  Started by run.py; prints one JSON object as its last
line of output.

Thread counts are fixed before numpy loads and the process is pinned to a
single CPU, so every figure is a single-threaded one.  Times are wall
seconds.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--role", choices=("setup", "measure"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def pin_to_one_cpu():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_program(root):
    src = root / "src"
    sys.path.insert(0, str(src))
    import quasinv
    if not Path(quasinv.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"quasinv was found outside {src}: {quasinv.__file__}")
    sys.path.insert(0, str(root / "perfbench"))
    import workloads
    return workloads


class Raised:
    """The output of an operation that raised instead of returning."""

    def __init__(self, exc):
        self.exc = exc


def timed_pass(workload):
    """One pass, its operations back to back.  Returns (outputs, wall
    seconds from the first call to the last return)."""
    outputs = []
    t = time.perf_counter()
    for label, op in workload.ops:
        try:
            outputs.append((label, op()))
        except Exception as exc:
            outputs.append((label, Raised(exc)))
    return outputs, time.perf_counter() - t


def check_outputs(workload, outputs):
    """The benchmark's verdict on every output of a pass, untimed: one
    message per operation that raised or whose output is wrong."""
    errors = []
    for label, out in outputs:
        if isinstance(out, Raised):
            errors.append(f"{label}: raised {out.exc!r}")
            continue
        try:
            workload.check_op(label, out)
        except Exception as exc:
            errors.append(f"{label}: {exc}")
    return errors


def measure_passes(workload, seconds):
    """Whole passes until `seconds` of pass time is spent (at least one).
    Returns the pass times and the messages of the failed operations."""
    passes, errors = [], []
    while not passes or sum(passes) < seconds:
        outputs, wall = timed_pass(workload)
        passes.append(wall)
        errors += check_outputs(workload, outputs)
    return passes, errors


def main(argv=None):
    args = parse_args(argv)
    pin_to_one_cpu()
    root = Path(__file__).resolve().parents[1]
    result = {"error": None, "errors": []}
    try:
        workloads = import_program(root)
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(args.seed, args.tmp)
        try:
            result["warm_digests"] = workload.warm_up()
        except Exception as exc:
            result["errors"].append(f"warm-up: {exc}")
        result["setup_s"] = time.perf_counter() - T0
        if args.role == "measure":
            passes, errors = measure_passes(workload, args.seconds)
            result["pass_s"] = passes
            result["attempted"] = len(passes) * len(workload.ops)
            result["failed"] = len(errors)
            result["errors"] += errors
            if args.trace:
                result["layers"] = traced_passes(workloads, cls, args, result,
                                                 statistics.median(passes))
    except Exception:  # the workload could not be built or run at all
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def traced_passes(workloads, cls, args, result, untraced_median):
    """Rebuild the inputs and run as many passes as were timed untraced,
    with every public quasinv function wrapped; returns the per-layer
    metrics."""
    import tracing
    tracer = tracing.Tracer()
    # traced: building the inputs and each pass; untraced: the small-size
    # warm-up and the benchmark's own checks
    with tracer.active(extra_modules=[workloads]):
        workload = cls(args.seed, args.tmp)
    workload.warm_up()
    passes = []
    for _ in range(len(result["pass_s"])):
        with tracer.active(extra_modules=[workloads]):
            outputs, wall = timed_pass(workload)
        passes.append(wall)
        result["errors"] += check_outputs(workload, outputs)
    summary = tracer.summary()
    metrics = tracing.layer_metrics(summary, tracer.law_pairs)
    metrics["trace.overhead_s"] = statistics.median(passes) - untraced_median
    metrics["trace.spans"] = len(tracer.name)
    stem = Path(args.out) / f"trace-{args.workload}-seed{args.seed}"
    tracer.save(f"{stem}.npz")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "spans": summary}, fh, indent=1, sort_keys=True)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
