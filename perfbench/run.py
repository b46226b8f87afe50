"""quasinv benchmark: one workload, one result line.

    python3 perfbench/run.py --workload probe-scenarios --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; quasinv is imported from its
`src/` directory.  With `--trace 0` the last line of output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {"verdict_s": ..., "setup_s": ..., "peak_rss_mb": ...}}

and with `--trace 1` the metrics are the per-layer ones listed in
BENCHMARK.json.  The workloads are described in perfbench/README.md.

Set-up is measured in SETUP_REPEATS fresh processes and reported as their
median; the last of them goes on to time whole passes of the workload.
`failed` counts the timed operations that raised or whose output failed
the benchmark's checks; any failure makes `correct` false.  The exit code
is 2, with no result line, only when a worker could not run at all.  Each
process's raw result is kept in
perfbench/out/run-<workload>-seed<n>-trace<0|1>.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("probe-scenarios", "group-action", "gns-dense")
SETUP_REPEATS = 9
DEADLINE_S = 170.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_worker(args, role, tmp, deadline):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role,
           "--trace", str(args.trace), "--tmp", tmp, "--out", str(OUT)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("out of time before the measuring process")
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stop(signum, frame):
    # raising inside subprocess.run makes it kill and reap the running worker
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, stop)
    args = parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "quasinv" / "__init__.py").is_file():
        return fail(f"no quasinv sources under {ROOT / 'src'}; run from a source checkout")
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    repeats = 1 if args.trace else SETUP_REPEATS
    results = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="reports-") as tmp:
        try:
            for k in range(repeats):
                role = "measure" if k == repeats - 1 else "setup"
                results.append(start_worker(args, role, tmp, deadline))
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
            return fail(str(exc))

    for r in results:
        if r["error"]:
            return fail(f"{args.workload}: a worker could not run:\n{r['error']}")
        for message in r["errors"]:
            print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    measured = results[-1]
    correct = not any(r["errors"] for r in results)
    # the warm-up reports of every process must agree byte for byte
    digests = [r.get("warm_digests") for r in results]
    if any(d != digests[0] for d in digests):
        print("perfbench: warm-up reports differ between processes", file=sys.stderr)
        correct = False

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in measured["layers"].items()}
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(measured["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in results), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    # every process's raw result, for readers
    detail = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(results, indent=1), encoding="utf-8")
    line = {"correct": correct, "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": metrics}
    print(json.dumps(line))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".per_evaluate"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
