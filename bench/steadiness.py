"""Steadiness record: run every workload of BENCHMARK.json on several seeds
and summarise each end-to-end metric by its median and quartiles.

    python3 bench/steadiness.py --first-seed 1 --out bench/steadiness.json

Run from the repository root.  Each workload runs once on each of RUNS
consecutive seeds, as `bench/run.py --trace 0` for the `run_seconds` that
BENCHMARK.json sets, one run after another.  The spread of a metric is (q3 - q1) / median over the runs, with the quartiles of
`statistics.quantiles(values, n=4)`; a steady metric keeps it below a third of
its bound (`setup_s` is judged on its median alone).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
        summary["workloads"][workload] = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {m["name"]: summarise([r["metrics"][m["name"]]["value"]
                                              for r in results], m["bound"])
                        for m in bench["end_to_end"]},
        }
        for name, s in summary["workloads"][workload]["metrics"].items():
            print(f"{workload} {name}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']})", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
