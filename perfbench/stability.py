"""Run one workload K times with different seeds and summarise its spread.

Usage, from the repository root::

    python3 perfbench/stability.py --workload recursive_scan --runs 10 --seconds 25

Each run is a separate untraced ``perfbench/run.py`` process with seed
``first-seed + i``.  For every metric the tool prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the relative
spread ``(q3 - q1) / median``, which is what the regression bounds in
``BENCHMARK.json`` are set from.  Runs whose effective configuration
differs from the first run's are refused: their numbers are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    config = next(line for line in lines if line.startswith("config "))
    return {"result": json.loads(lines[-1]), "config": json.loads(config[len("config "):])}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median) if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        run = run_once(args.workload, seed, args.seconds)
        if runs and run["config"] != runs[0]["config"]:
            raise SystemExit(f"seed {seed}: configuration differs from the first run's")
        result = run["result"]
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        runs.append(run)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"config {json.dumps(runs[0]['config'], sort_keys=True)}")
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median, q1, q3, spread = summarise(values)
        print(f"{name:<40} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
