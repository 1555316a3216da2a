#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs `python3 perfbench/run.py --trace 0` once per seed (first-seed,
first-seed + 1, ...) for each workload (default: all in BENCHMARK.json) and
prints, per end-to-end metric, the median and the distance between the first
and third quartiles as a share of the median (statistics.quantiles, n=4).
A spread above a third of the metric's bound is marked, and makes the exit
status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    ok = True
    for w in a.workloads:
        rows = []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            rows.append(json.loads(out.strip().split("\n")[-1]))
        print(f"== {w}: {a.runs} runs, failed ops {sum(r['failed'] for r in rows)}")
        for m in bench["end_to_end"]:
            v = [r["metrics"][m["name"]]["value"] for r in rows]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            flag = ""
            if spread >= m["bound"] / 3:
                flag = "  <-- above bound/3"
                ok = False
            print(f"  {m['name']:18s} median {med:.6g} {m['unit']:6s} spread {spread:.4f} "
                  f"(bound {m['bound']}){flag}")
        ok = ok and all(r["correct"] for r in rows)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
