"""Steadiness check: two independent sets of runs of the same code.

    python3 perfbench/steady.py                 # 2 sets x 10 seeds x every workload
    python3 perfbench/steady.py --runs 5 --workloads gns-dense

Each run is `perfbench/run.py --trace 0` with its own seed: set 1 uses
seeds 1..runs and set 2 the next `runs` seeds.  For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(q3 - q1) / median, and whether the two sets agree within the bound in
BENCHMARK.json: both spreads within the bound, and the two medians apart
by no more than the bound, as a share of set 1's median.  Every run must
be correct, and the share of failed operations must be the same in both
sets.  The raw results go to perfbench/out/.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(spec, sets, workloads):
    """Rows of (workload, metric, bound, per-set quartiles, spreads, shift, verdict)."""
    rows, ok = [], True
    for w in workloads:
        shares = [{r["failed"] / r["attempted"] for r in s[w]} for s in sets]
        if any(len(sh) != 1 for sh in shares) or shares[0] != shares[1] or not all(
                r["correct"] for s in sets for r in s[w]):
            ok = False
            print(f"{w}: failed shares {shares} or an incorrect run")
        for m in spec["end_to_end"]:
            stats = [quartiles([r["metrics"][m["name"]]["value"] for r in s[w]]) for s in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            first, second = stats[0][1], stats[1][1]
            shift = abs(second - first) / first
            agree = shift <= m["bound"] and all(sp <= m["bound"] for sp in spreads)
            ok &= agree
            rows.append((w, m["name"], m["bound"], stats, spreads, shift, "yes" if agree else "NO"))
    return rows, ok


def stop(signum, frame):
    # raising inside subprocess.run makes it kill and reap the running run.py
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, stop)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    p.add_argument("--workloads", default=",".join(names))
    args = p.parse_args(argv)
    chosen = args.workloads.split(",")
    seconds = spec["run_seconds"]

    sets = []
    for k in range(SETS):
        results = {w: [] for w in chosen}
        for w in chosen:
            for r in range(args.runs):
                seed = 1 + k * args.runs + r
                t = time.monotonic()
                results[w].append(run_once(w, seed, seconds))
                m = results[w][-1]["metrics"]
                print(f"set {k + 1} {w} seed {seed}: "
                      + " ".join(f"{n}={v['value']:.4g}" for n, v in m.items())
                      + f" ({time.monotonic() - t:.1f} s)", flush=True)
        sets.append(results)

    rows, ok = compare(spec, sets, chosen)
    print(f"\n{'workload':16} {'metric':12} " + " ".join(
        f"{'set ' + str(k + 1) + ' q1/median/q3':>30} {'spread':>7}" for k in range(SETS))
        + f" {'shift':>7} {'bound':>6} agree")
    for w, name, bound, stats, spreads, shift, verdict in rows:
        cells = " ".join(f"{q1:9.4g} /{med:9.4g} /{q3:9.4g} {sp:7.2%}"
                         for (q1, med, q3), sp in zip(stats, spreads))
        print(f"{w:16} {name:12} {cells} {shift:7.2%} {bound:6.2f} {verdict}")
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"args": vars(args), "sets": sets}, indent=1), encoding="utf-8")
    print(f"\n{'all agree' if ok else 'NOT steady'}; raw results in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
