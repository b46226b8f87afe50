"""Print the traced breakdown that a `run.py --trace 1` run left behind.

    python3 perfbench/run.py --workload gns-dense --seed 1 --trace 1
    python3 perfbench/breakdown.py perfbench/out/trace-gns-dense-seed1.json

Shows self time per layer and the functions with the most self time, with
their call counts and inclusive time.
"""

import argparse
import json
import sys

from tracing import LAYERS

TOP = 12  # functions listed, by self time


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trace", help="trace-<workload>-seed<n>.json written by a traced run")
    args = p.parse_args(argv)
    with open(args.trace, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = {k: v for k, v in doc["spans"].items() if not k.startswith("_")}
    metrics = doc["metrics"]
    total = sum(v["self_s"] for v in spans.values())
    print(f"{doc['workload']} (seed {doc['seed']}): {total:.2f} s in traced calls, "
          f"{metrics['trace.spans']} spans; tracing overhead {metrics['trace.overhead_s']:.2f} s")
    print("\n| layer | self s | share |\n|---|---:|---:|")
    for layer in LAYERS:
        s = metrics[f"{layer}.self_s"]
        if s > 0:
            print(f"| {layer} | {s:.3f} | {s / total:.1%} |")
    print("\n| function | calls | self s | inclusive s |\n|---|---:|---:|---:|")
    top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:TOP]
    for name, v in top:
        print(f"| {name} | {v['calls']} | {v['self_s']:.3f} | {v['incl_s']:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
