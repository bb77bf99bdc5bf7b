"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``perfbench/run.py`` once per seed (one process each, one after
the other) and prints, per metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the first and third quartile as a share of the
median. This is how the bounds in ``BENCHMARK.json`` were checked.
The timing metrics' spreads are also printed as measured, before the
rescaling to the reference host speed.

Usage (from the repository root):

    python3 perfbench/spread.py --workload multi_churn --runs 10 \\
        --first-seed 1 --seconds 15 [--json perfbench/out/spread.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("inf"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        report = json.loads((HERE / "out" / f"{args.workload}-seed{seed}"
                             "-trace0.json").read_text())["report"]
        result["as_measured"] = report.get("as_measured", {})
        runs.append(result)
        print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = spread([r["metrics"][name]["value"] for r in runs])
        s = summary[name]
        bound = bounds.get(name)
        mark = "" if bound is None else (
            "  ok" if name == "setup_s" or s["spread"] <= bound / 3
            else ("  within bound" if s["spread"] <= bound else "  OVER")
        )
        print(f"{name:<18} median {s['median']:>12.5g}  q1 {s['q1']:>12.5g}"
              f"  q3 {s['q3']:>12.5g}  spread {s['spread']:.4f}"
              f"  (bound {bound}){mark}")
    as_measured = {}
    for name in runs[0]["as_measured"]:
        as_measured[name] = spread([r["as_measured"][name] for r in runs])
        s = as_measured[name]
        print(f"{name:<18} as measured: median {s['median']:>12.5g}"
              f"  spread {s['spread']:.4f}")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "workload": args.workload,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "seconds": seconds,
            "metrics": summary,
            "as_measured": as_measured,
        }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
