"""Run the benchmark over several seeds and summarize it in one JSON file.

Run from the repository root, for example:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/out/bench.json

For each workload of ``BENCHMARK.json`` this runs ``run.py --trace 0`` once
per seed, for that file's ``run_seconds``, and reports, per end-to-end
metric, the median, the quartiles and the spread (interquartile range over
median, as ``statistics.quantiles(values, n=4)`` gives them).
Then one ``--trace 1`` run per workload at the first seed gives the
per-layer split.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("# environment: "))
    return json.loads(lines[-1]), json.loads(env[len("# environment: "):])


def summarize(runs: list[dict]) -> dict:
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        median = statistics.median(values)
        metrics[name] = {"value": median, "unit": first["unit"], "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None, "runs": values}
    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = seed_list(args.seeds)

    result = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            run, result["environment"] = bench(workload, seed, seconds, 0)
            runs.append(run)
            print(workload, seed, json.dumps(run["metrics"]), flush=True)
        traced, _ = bench(workload, seeds[0], seconds, 1)
        result["workloads"][workload] = {"end_to_end": summarize(runs), "per_layer": traced}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for workload, data in result["workloads"].items():
        for name, m in data["end_to_end"]["metrics"].items():
            print(f"{workload:15s} {name:12s} median {m['value']:12.6g} {m['unit']:5s} "
                  f"spread {m['spread'] if m['spread'] is not None else float('nan'):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
