"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload working_set --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes the
traced run and prints every per-layer metric instead, and writes its
spans to ``perfbench/out/spans-<workload>-<seed>.jsonl``.  Each metric is
printed by name with its unit and sample count, then the effective
configuration, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check exits with status 1; a missing program source exits with status 2.

Every ``REPRO_*`` environment variable is removed before the program is
imported, so the run measures the default configuration, and the process
is pinned to one vCPU (the lowest it may use; printed as ``pinned_cpu``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("working_set", "recursive_scan", "wire_oltp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One vCPU for every thread of the run: on a shared host, waking a
    # thread on another, idle vCPU took longer the busier the host was, so
    # wire requests (a few thread hand-offs each) slowed far more than
    # the host-speed correction accounts for.
    pinned_cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned_cpu})
    scrubbed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import END_TO_END, run_benchmark
    from perfbench.layers import LAYER_METRICS

    spans = None
    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans = str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    out = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans
    )
    for line in out.lines:
        print(line)
    if not out.correct:
        print(f"FAILED {out.workload} seed={out.seed}: {out.error}", file=sys.stderr)
    names = LAYER_METRICS if args.trace else END_TO_END
    metrics = {}
    for name in names:
        if name not in out.metrics:
            continue
        value, unit = out.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        if args.trace:
            _, _, moves, where = LAYER_METRICS[name]
            print(f"{name:<40} {value:14.6g} {unit:<6} -> {moves} ({where})")
        else:
            print(f"{name:<16} {value:14.6g} {unit:<4} samples={out.samples[name]}")
    fail_ratio = out.failed / out.attempted if out.attempted else 0.0
    print(f"fail_ratio {fail_ratio:.6g} ({out.failed} of {out.attempted} ops)")
    print(f"checksum {out.checksum}")
    print("config " + json.dumps(
        {**out.config, "scrubbed_env": scrubbed, "pinned_cpu": pinned_cpu}, sort_keys=True
    ))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
