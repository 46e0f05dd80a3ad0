"""Run one workload: set-up, warm-up, the timed phase and its metrics.

End-to-end metrics come from an untraced run.  ``trace=True`` makes the
traced run instead: one set-up, then an untraced quarter, a traced half
and another untraced quarter of the run over the continuing schedule of
the same seed, and the per-layer metrics of the traced half (see
:mod:`perfbench.layers`).  Splitting the untraced time around the traced
time keeps drift over the run (a growing database) out of the tracing
overhead.

Every time is corrected for the host's speed.  On a shared host the same
code runs up to twice as slow in one stretch of minutes as in the
next, and a whole run can fall in a slow stretch.  So the driving thread
times a fixed pure-Python kernel every :data:`SAMPLE_EVERY_S` seconds
between its iterations (set-up: before and after each build), and each
latency and the phase's length are divided by the kernel's slowness
against the reference box in the same :data:`WINDOW_S` window.  The
uncorrected figures are printed beside the metrics.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.relational import plancache

from perfbench.layers import LAYER_METRICS, SELF_TIME_METRICS, Installed, SpanLog
from perfbench.workloads import OP_CLASSES, WORKLOADS, CheckFailed, Workload, effective_config, expect

#: set-ups per untraced run (``setup_s`` is their median)
SETUPS = 3
P90_MIN_BEYOND = 10

#: CPU time of one :func:`_reference_kernel` call on the reference box
#: (2-vCPU Xeon, Python 3.11) in a fast stretch of the host
REFERENCE_KERNEL_S = 1.5e-3
#: seconds between host-speed samples in a timed phase
SAMPLE_EVERY_S = 0.25
#: the timed phase is corrected for host speed window by window
WINDOW_S = 2.0
#: host-speed samples taken before and after each set-up
SETUP_SAMPLES = 8

#: end-to-end metric -> unit (every workload reports every one).  The
#: central latency is the mean: on a host whose speed switches between two
#: modes every few seconds, the median of an op class jumps from one mode
#: to the other with the share of the run the host spent in each, while
#: the mean moves in proportion to it.  The median is printed as well.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    **{f"{cls}_ms.{q}": "ms" for cls in OP_CLASSES for q in ("mean", "p90")},
    "peak_rss_mb": "MB",
}


class OpFailed(Exception):
    """The program raised on an op; the rest of its iteration is skipped."""


def _reference_kernel() -> int:
    """Fixed interpreter-bound work (tuples, dicts, str, sort), like the
    program's own; it never changes, so its time measures the host."""
    table: Dict[tuple, int] = {}
    acc = 0
    for i in range(1500):
        key = (i % 97, "k%d" % (i % 13))
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    return acc + len(sorted(table.items()))


def host_slowness() -> float:
    """How many times slower than the reference box the host runs now:
    the thread CPU time of the fastest of three kernel calls over
    :data:`REFERENCE_KERNEL_S`.  Thread CPU time leaves out the time
    another thread holds the GIL."""
    best = math.inf
    for _ in range(3):
        started = time.thread_time()
        _reference_kernel()
        best = min(best, time.thread_time() - started)
    return best / REFERENCE_KERNEL_S


class HostClock:
    """Host-speed samples of one timed phase, taken between iterations, at
    times relative to the phase's start."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.samples: List[Tuple[float, float]] = []
        self._next = 0.0

    def maybe_sample(self) -> None:
        at = time.perf_counter() - self.origin
        if at >= self._next:
            self.samples.append((at, host_slowness()))
            self._next = at + SAMPLE_EVERY_S

    def windows(self, elapsed: float) -> List[float]:
        """Mean slowness per :data:`WINDOW_S` window of the phase; a window
        without a sample takes the phase's mean."""
        count = max(1, math.ceil(elapsed / WINDOW_S))
        sums, ns = [0.0] * count, [0] * count
        for at, slow in self.samples:
            w = window_of(at, count)
            sums[w] += slow
            ns[w] += 1
        overall = statistics.fmean(slow for _, slow in self.samples)
        return [sums[w] / ns[w] if ns[w] else overall for w in range(count)]


def window_of(at: float, count: int) -> int:
    return min(count - 1, max(0, int(at / WINDOW_S)))


class ClientRun:
    """Samples, checks and counters of one phase."""

    def __init__(self, log: Optional[SpanLog] = None, origin: float = 0.0):
        self.log = log
        self.origin = origin
        self.latencies: Dict[str, List[float]] = {cls: [] for cls in OP_CLASSES}
        #: each op's start, relative to *origin* (parallel to ``latencies``)
        self.started: Dict[str, List[float]] = {cls: [] for cls in OP_CLASSES}
        self.failed: Dict[str, int] = {cls: 0 for cls in OP_CLASSES}
        self.nav_steps = 0
        self.attempts = 0
        self.retried_ops = 0
        self._digest = hashlib.blake2b(digest_size=16)

    def op(self, cls: str, fn: Callable[[], Any], layer: Optional[str] = None) -> Any:
        """Time one call into the program; a traced run also opens the op's
        root span (and *layer* when the call enters no wrapped layer)."""
        log = self.log
        spans = []
        if log is not None:
            spans.append(log.begin_op(cls))
            if layer is not None:
                spans.append(log.open(layer))
        start = time.perf_counter()
        self.started[cls].append(start - self.origin)
        try:
            result = fn()
        except (ReproError, OSError) as exc:
            self.failed[cls] += 1
            self.latencies[cls].append(math.inf)
            raise OpFailed(f"{cls}: {exc!r}") from exc
        finally:
            elapsed = time.perf_counter() - start
            for span in reversed(spans):
                log.close(span)
        self.latencies[cls].append(elapsed)
        return result

    def check(self, cls: str, got: Any, want: Any) -> None:
        expect(cls, got, want)
        self._digest.update(repr((cls, got)).encode())

    def digest(self) -> str:
        return self._digest.hexdigest()


def run_phase(
    wl: Workload,
    schedule: Iterator[tuple],
    *,
    seconds: Optional[float] = None,
    iterations: Optional[int] = None,
    log: Optional[SpanLog] = None,
    clock: Optional[HostClock] = None,
) -> Tuple[ClientRun, float]:
    """Drive the workload in a closed loop on the calling thread until
    *seconds* pass (or it has run *iterations*), with inputs from
    *schedule*, which the next phase continues.  With a *clock*, sample
    the host's speed between iterations."""
    start = time.perf_counter()
    if clock is not None:
        clock.origin = start
    run = ClientRun(log, start)
    deadline = start + seconds if seconds is not None else math.inf
    if log is not None:
        wl.bind_driver(log)
    done = 0
    while time.perf_counter() < deadline and (iterations is None or done < iterations):
        if clock is not None:
            clock.maybe_sample()
        item = next(schedule)
        done += 1
        try:
            wl.iteration(run, item)
        except OpFailed:
            pass
    return run, time.perf_counter() - start


@dataclass
class Outcome:
    workload: str
    seed: int
    correct: bool = True
    error: str = ""
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: end-to-end metric -> the number of samples behind it
    samples: Dict[str, int] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    checksum: str = ""
    lines: List[str] = field(default_factory=list)


def _p90(ordered: List[float]) -> float:
    """Nearest-rank 90th percentile."""
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _sorted(run: ClientRun) -> Dict[str, List[float]]:
    return {cls: sorted(run.latencies[cls]) for cls in OP_CLASSES}


def _completed(run: ClientRun) -> int:
    return sum(1 for v in run.latencies.values() for x in v if x != math.inf)


def _corrected(
    run: ClientRun, elapsed: float, clock: HostClock
) -> Tuple[Dict[str, List[float]], float]:
    """Each op's latency (sorted per class) and the phase's length, every
    time divided by the host's slowness in the window it falls in, so that
    it reads as on the reference box."""
    slow = clock.windows(elapsed)
    count = len(slow)
    last = elapsed - (count - 1) * WINDOW_S
    seconds = sum(WINDOW_S / s for s in slow[:-1]) + last / slow[-1]
    merged = {
        cls: sorted(
            x / slow[window_of(at, count)]
            for x, at in zip(run.latencies[cls], run.started[cls])
        )
        for cls in OP_CLASSES
    }
    return merged, seconds


def _end_to_end(
    run: ClientRun,
    elapsed: float,
    clock: HostClock,
    setup_times: List[float],
    out: Outcome,
) -> None:
    merged, corrected_s = _corrected(run, elapsed, clock)
    completed = _completed(run)
    raw = _sorted(run)
    out.lines.append(
        f"host slowness {statistics.fmean(s for _, s in clock.samples):.4g} "
        f"(mean of {len(clock.samples)} samples); uncorrected: ops_per_s "
        f"{completed / elapsed:.6g}, "
        + ", ".join(
            f"{cls}_ms.mean {statistics.fmean(raw[cls]) * 1e3:.6g} "
            f"{cls}_ms.p90 {_p90(raw[cls]) * 1e3:.6g}"
            for cls in OP_CLASSES if raw[cls]
        )
    )
    out.metrics["setup_s"] = (statistics.median(setup_times), "s")
    out.samples["setup_s"] = len(setup_times)
    out.metrics["ops_per_s"] = (completed / corrected_s, "1/s")
    out.samples["ops_per_s"] = completed
    for cls in OP_CLASSES:
        ms = [x * 1e3 for x in merged[cls]]
        if not ms:
            raise RuntimeError(f"no {cls} op completed; run longer")
        out.metrics[f"{cls}_ms.mean"] = (statistics.fmean(ms), "ms")
        out.metrics[f"{cls}_ms.p90"] = (_p90(ms), "ms")
        out.samples[f"{cls}_ms.mean"] = out.samples[f"{cls}_ms.p90"] = len(ms)
        out.lines.append(f"{cls}_ms.p50 {statistics.median(ms):.6g} ms samples={len(ms)}")
        beyond = len(ms) - math.ceil(0.9 * len(ms))
        if beyond < P90_MIN_BEYOND:
            out.lines.append(
                f"note: {cls}_ms.p90 has {beyond} samples beyond it "
                f"(fewer than {P90_MIN_BEYOND}); run longer for a firm tail"
            )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    out.samples["peak_rss_mb"] = 1


def _counters(db) -> Dict[str, int]:
    snap = db.metrics_snapshot()
    io = db.io_stats()
    cache = plancache.snapshot_global_stats()
    return {
        "buffer_hits": io["buffer_hits"],
        "fetches": io["buffer_hits"] + io["buffer_misses"],
        "disk_reads": io["disk_reads"],
        "disk_writes": io["disk_writes"],
        "commits": snap["txn"]["commits"],
        "txn_retries": snap["txn"]["retries"],
        "wal_flushes": snap["wal"]["flushes"],
        "wal_bytes": snap["wal"]["bytes_flushed"],
        "lock_conflicts": snap["locks"]["conflicts"],
        "pruned": snap["sharding"]["shards_pruned"],
        "scatter_queries": snap["sharding"]["scatter_queries"],
        "net_bytes": snap["network"]["bytes_in"] + snap["network"]["bytes_out"],
        "plan_hits": cache["hits"],
        "plan_misses": cache["misses"],
    }


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def _per_layer(
    log: SpanLog,
    run: ClientRun,
    delta: Dict[str, int],
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
    out: Outcome,
) -> None:
    merged = _sorted(run)
    ops = sum(len(v) for v in merged.values())
    per_class = {cls: len(merged[cls]) for cls in OP_CLASSES}
    self_s, calls, total_s, op_wall = log.self_times()
    denominators = {
        "op": ops,
        "take": per_class["take"],
        "write": per_class["write"],
        "request": calls["client.roundtrip"],
        "commit": delta["commits"],
    }
    m: Dict[str, float] = {}
    for name, (metric, denominator) in SELF_TIME_METRICS.items():
        m[metric] = _per(self_s[name] * 1e3, denominators[denominator])
    rows = log.row_counts()
    retries = run.attempts - run.retried_ops + delta["txn_retries"]
    plans = delta["plan_hits"] + delta["plan_misses"]
    takes = per_class["take"]
    m.update({
        "client.rtt_ms.mean": _per(total_s["client.roundtrip"] * 1e3, calls["client.roundtrip"]),
        "client.requests_per_op": _per(calls["client.roundtrip"], ops),
        "server.bytes_per_op": _per(delta["net_bytes"], ops),
        "plancache.hit_ratio": _per(delta["plan_hits"], plans),
        "compile.plans_per_op": _per(calls["compile"], ops),
        "executor.ms.per_op": _per(
            (self_s["executor.query"] + self_s["executor.write"]) * 1e3, ops),
        "executor.rows_examined_per_row_out": _per(rows["query"], log.rows_out),
        "executor.rows_examined_per_row_written": _per(rows["write"], log.rows_written),
        "storage.fetches_per_op": _per(delta["fetches"], ops),
        "storage.buffer_hit_ratio": _per(delta["buffer_hits"], delta["fetches"]),
        "storage.disk_reads_per_op": _per(delta["disk_reads"], ops),
        "storage.disk_writes_per_op": _per(delta["disk_writes"], ops),
        "txn.wal_flushes_per_commit": _per(delta["wal_flushes"], delta["commits"]),
        "txn.wal_bytes_per_commit": _per(delta["wal_bytes"], delta["commits"]),
        "txn.retries_per_commit": _per(retries, delta["commits"]),
        "txn.lock_conflicts_per_op": _per(delta["lock_conflicts"], ops),
        "xnf.queries_per_take": _per(log.take_stats[0], takes),
        "xnf.scratch_tables_per_take": _per(log.take_stats[1], takes),
        "xnf.fixpoint_rounds_per_take": _per(log.take_stats[2], takes),
        "xnf.shards_pruned_ratio": _per(
            delta["pruned"], delta["pruned"] + delta["scatter_queries"]),
        "xnf.nav_steps_per_op": _per(run.nav_steps, per_class["nav"]),
        "xnf.sql_per_flushed_change": _per(log.flushed[0], log.flushed[1]),
        "obs.spans_per_op": _per(log.program_spans, ops),
        "unattributed_share": _per(self_s["op"], op_wall),
        "trace.overhead_ratio": _per(untraced_ops_per_s, traced_ops_per_s) - 1.0,
    })
    for name in LAYER_METRICS:
        out.metrics[name] = (m[name], LAYER_METRICS[name][0])
    out.lines.append(f"self time per op over {ops} traced ops (share of op wall time):")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        out.lines.append(
            f"  {name:<22} {self_s[name] * 1e3 / ops:10.4f} ms/op "
            f"{_per(self_s[name], op_wall):7.1%}  calls={calls[name]}"
        )


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    *,
    setups: int = SETUPS,
    iterations: Optional[int] = None,
    spans_path: Optional[str] = None,
) -> Outcome:
    """Run workload *name*; ``iterations`` replaces the time limit with a
    fixed number of iterations (the determinism self-check)."""
    out = Outcome(workload=name, seed=seed)
    wl = WORKLOADS[name]()
    setup_times: List[float] = []
    try:
        for _ in range(1 if trace else setups):
            if setup_times:
                wl.close()
                gc.collect()
            slow = [host_slowness() for _ in range(SETUP_SAMPLES)]
            started = time.perf_counter()
            wl.build()
            build_s = time.perf_counter() - started
            if not setup_times:
                wl.make_oracle()
            schedule = wl.schedule(seed)
            started = time.perf_counter()
            run_phase(wl, schedule, iterations=wl.warm_iterations)
            setup_s = build_s + time.perf_counter() - started
            slow += [host_slowness() for _ in range(SETUP_SAMPLES)]
            setup_times.append(setup_s / statistics.fmean(slow))
        out.config = {
            **effective_config(wl.db),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
        if not trace:
            clock = HostClock()
            run, elapsed = run_phase(
                wl, schedule, seconds=seconds, iterations=iterations, clock=clock
            )
            _end_to_end(run, elapsed, clock, setup_times, out)
            phase_runs = [run]
        else:
            quarter = seconds / 4.0
            clocks = [HostClock() for _ in range(3)]
            before_plain, before_s = run_phase(
                wl, schedule, seconds=quarter, clock=clocks[0]
            )
            log = SpanLog()
            before = _counters(wl.db)
            installed = Installed(log, wl.db)
            try:
                traced, traced_s = run_phase(
                    wl, schedule, seconds=2 * quarter, log=log, clock=clocks[1]
                )
            finally:
                installed.remove()
            after = _counters(wl.db)
            after_plain, after_s = run_phase(
                wl, schedule, seconds=quarter, clock=clocks[2]
            )
            delta = {key: after[key] - before[key] for key in before}
            _per_layer(
                log, traced, delta,
                (_completed(before_plain) + _completed(after_plain)) / (
                    _corrected(before_plain, before_s, clocks[0])[1]
                    + _corrected(after_plain, after_s, clocks[2])[1]
                ),
                _completed(traced) / _corrected(traced, traced_s, clocks[1])[1],
                out,
            )
            if spans_path:
                log.write_jsonl(spans_path)
                out.lines.append(f"spans: {len(log.spans)} written to {spans_path}")
            phase_runs = [before_plain, traced, after_plain]
        digest = hashlib.blake2b(digest_size=16)
        for run in phase_runs:
            out.attempted += sum(len(v) for v in run.latencies.values())
            out.failed += sum(run.failed.values())
            digest.update(run.digest().encode())
        out.checksum = digest.hexdigest()
    except CheckFailed as exc:
        out.correct = False
        out.error = f"output check failed: {exc}"
    finally:
        wl.close()
    return out
