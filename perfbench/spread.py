"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload batch_small_n --runs 10 [--first-seed 1]

For each end-to-end metric of BENCHMARK.json it prints the runs' values, their
median and (q3 - q1) / median, with quartiles as statistics.quantiles(n=4)
gives them, next to the metric's bound.  The benchmark is steady when every
spread but setup_s stays below a third of its bound.  Also prints each run's
wall time, which sets the benchmark's total run budget.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    walls, correct = [], True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        walls.append(time.perf_counter() - t0)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit code {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall, correct={result['correct']}, "
              + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)

    print(f"{args.workload}: {args.runs} runs, wall per run median {statistics.median(walls):.1f} s,"
          f" max {max(walls):.1f} s")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals)
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  ABOVE bound/3"
        print(f"  {m['name']:22s} median {statistics.median(vals):<12.6g} spread {spread:.4f}"
              f"  bound {m['bound']}{flag}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
