#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric the median of the runs and the distance between
their first and third quartile (``statistics.quantiles(values, n=4)``) as
a share of that median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload chain --seeds 1-10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", type=Path, help="also write the runs and the summary here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed:>3}  correct={result['correct']}  failed {result['failed']}/"
              f"{result['attempted']}  {values}", flush=True)

    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"]}
        flag = "" if spread < metric["bound"] / 3 else "  <-- above a third of the bound"
        print(f"  {name:<16} median {med:>12.5g} {metric['unit']:<4} spread {spread:7.4f}"
              f"  bound {metric['bound']}{flag}")
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"  failed {failed}/{attempted} requests; correct on {sum(r['correct'] for r in runs)}/{len(runs)} runs")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs,
                                         "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
