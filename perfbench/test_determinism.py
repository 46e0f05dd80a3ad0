"""Determinism self-check of the benchmark.

The same seed must give the same op schedule and the same result
checksums; another seed must give another schedule.  That is what lets a
later change confirm a claim on a seed it was not tuned on.  Run from the
repository root (takes about a minute)::

    python3 -m pytest perfbench/test_determinism.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import END_TO_END, run_benchmark  # noqa: E402
from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: iterations after warm-up; enough for every op class
ITERATIONS = {"working_set": 12, "recursive_scan": 2, "wire_oltp": 4}
#: schedule items compared between seeds
PREFIX = 200


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_schedule_depends_on_the_seed_alone(name):
    workload = WORKLOADS[name]()

    def prefix(seed):
        return list(itertools.islice(workload.schedule(seed), PREFIX))

    assert prefix(7) == prefix(7)
    assert prefix(7) != prefix(8)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_results(name):
    def run(seed):
        out = run_benchmark(
            name, seed, None, setups=1, iterations=ITERATIONS[name]
        )
        assert out.correct, out.error
        assert out.failed == 0
        return out.checksum

    first = run(7)
    assert run(7) == first
    assert run(8) != first


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: spec_[:2] for name, spec_ in LAYER_METRICS.items()
    }
