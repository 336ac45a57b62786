#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how much each
end-to-end metric spreads: the distance between the first and third
quartile of its values, as a share of their median, next to the metric's
bound in BENCHMARK.json.

    python3 e2ebench/steady.py --workloads road-cold,gnp-hot --seeds 10 [--first-seed 1]

Run from the repository root.  Every result line is also appended to
`.bench_data/steady.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_data", exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            started = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            wall_s = time.monotonic() - started
            if out.returncode != 0:
                print(f"{workload} seed {seed} failed:\n{out.stderr}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            diagnostics = dict(
                kv.split("=") for line in lines if line.startswith("diagnostics ")
                for kv in line.split()[1:]
            )
            with open(".bench_data/steady.jsonl", "a") as log:
                record = {"workload": workload, "seed": seed, "wall_s": wall_s,
                          "diagnostics": diagnostics, **result}
                log.write(json.dumps(record) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            runs.append(result["metrics"])
        print(f"{workload} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            worst = max(worst, spread / bound)
            print(f"  {name:16} median {med:14.4f}  spread {spread:7.4f}  bound {bound:5.2f}{flag}")
    print(f"worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
