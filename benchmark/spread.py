#!/usr/bin/env python3
"""Cross-seed spread of every end-to-end metric, as the driver measures it.

Runs the built benchmark ten times per workload, each with another --seed,
and prints for each metric the interquartile range of its ten values
(statistics.quantiles, n=4) as a share of their median, beside the bound in
BENCHMARK.json. A spread above a third of its bound is flagged.

    python3 benchmark/spread.py [--runs 10] [--workload W] [--bin PATH]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--bin", help="a built scdn-benchmark; default: cargo run")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    command = [args.bin] if args.bin else manifest["command"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    flagged = 0
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.time()
            out = subprocess.run(
                command
                + ["--workload", workload, "--seed", str(seed)]
                + ["--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed}: {time.time() - start:.1f} s", file=sys.stderr)
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(q2) if q2 else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
                flagged += 1
            print(f"{workload}/{name} median {q2:.6g} spread {spread:.4f} "
                  f"bound {bound} min {min(vs):.6g} max {max(vs):.6g}{flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
