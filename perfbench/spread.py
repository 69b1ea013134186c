#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json with tracing off once per seed, 1 to
--seeds, on each workload and prints, per metric, the median over the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. A spread above a third of its bound is flagged.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--out runs.jsonl]

Every result line is appended to --out (JSON lines) when given, so two
sets of runs can be compared afterwards.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            provenance = next(
                (json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance ")), None
            )
            if not result["correct"]:
                failed = True
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
            if args.out:
                with open(args.out, "a") as f:
                    record = {"workload": workload, "seed": seed, "provenance": provenance, **result}
                    f.write(json.dumps(record) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload} ({args.seeds} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds[name]
            flag = " <-- above a third of the bound" if spread > bound / 3 else ""
            print(f"  {name:<36} median {med:<14.6g} spread {spread:8.4f}  bound {bound}{flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
