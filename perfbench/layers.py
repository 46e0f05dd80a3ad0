"""Per-layer attribution for the traced run.

The benchmark times the calls *into* each layer of ``repro`` from its own
files: :class:`Installed` swaps a timing wrapper in for each layer entry
point where its callers look it up (a module global such as
``repro.relational.engine.parse_statements``, or a class attribute such as
``Database._execute_plan``), and :meth:`Installed.remove` puts the
originals back.
Nothing inside the program changes, and the untraced run never sees a
wrapper.

Every wrapper records one span ``[name, start, end, parent, op]`` in
memory.  A span opened on a thread with no open span of its own is linked
to the op that caused it: a wire-server worker finds the client's open
round trip through the wire session id, and a shard-scatter worker finds
the single in-process driver's innermost open span.  A layer's self time
is its span's duration minus the part of that interval its child spans
cover, so the per-layer self times of an op add up to its wall time; what
no layer span covers is the op's own self time (``unattributed_share``).

Storage and executor row counts come from counters (the program's own
``io_stats()``/``metrics_snapshot()`` and row counts taken at the heap-file
read methods), not from per-fetch spans, so that tracing does not distort
the layers it measures.
"""

from __future__ import annotations

import itertools
import json
import operator
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.relational.engine as engine
import repro.xnf.api as xnf_api
import repro.xnf.sharding as sharding
from repro.client.client import WireClient
from repro.relational.engine import Database
from repro.relational.storage.heap import HeapFile
from repro.relational.txn.manager import TransactionManager
from repro.xnf.api import CompositeObject, XNFSession
from repro.xnf.cache import COCache
from repro.xnf.semantic_rewrite import XNFCompiler

_now = time.perf_counter

#: span name -> (per-layer self-time metric, denominator).  Denominators:
#: op = every timed op, take/write = ops of that class, request = client
#: round trips, commit = committed transactions.
SELF_TIME_METRICS: Dict[str, Tuple[str, str]] = {
    "client.roundtrip": ("server.overhead_ms.mean", "request"),
    "engine.sql": ("engine.sql.self_ms.per_op", "op"),
    "engine.xnf": ("engine.xnf.self_ms.per_op", "op"),
    "sql.parse": ("sql.parse_ms.per_op", "op"),
    "plancache.normalize": ("plancache.normalize_ms.per_op", "op"),
    "compile": ("compile.ms.per_op", "op"),
    "executor.query": ("executor.query.self_ms.per_op", "op"),
    "executor.write": ("executor.write.self_ms.per_op", "op"),
    "txn.commit": ("txn.commit_ms.mean", "commit"),
    "xnf.parse": ("xnf.parse_ms.per_take", "take"),
    "xnf.instantiate": ("xnf.instantiate_ms.per_take", "take"),
    "xnf.scatter": ("xnf.scatter_ms.per_take", "take"),
    "xnf.cache_load": ("xnf.cache_load_ms.per_take", "take"),
    "xnf.nav": ("xnf.nav.self_ms.per_op", "op"),
    "xnf.manipulate": ("xnf.manipulate.self_ms.per_op", "op"),
    "xnf.flush": ("xnf.flush_ms.per_write", "write"),
}

#: Every per-layer metric the traced run prints: name -> (unit, better,
#: the end-to-end metric it should move, the workloads where it should).
LAYER_METRICS: Dict[str, Tuple[str, str, str, str]] = {
    "client.rtt_ms.mean": ("ms", "lower", "all wire metrics", "wire_oltp"),
    "client.requests_per_op": ("count", "lower", "all wire metrics", "wire_oltp"),
    "server.overhead_ms.mean": ("ms", "lower", "read_ms.mean", "wire_oltp"),
    "server.bytes_per_op": ("bytes", "lower", "ops_per_s", "wire_oltp"),
    "engine.sql.self_ms.per_op": ("ms", "lower", "read_ms.mean", "all"),
    "engine.xnf.self_ms.per_op": ("ms", "lower", "take_ms.mean", "all"),
    "sql.parse_ms.per_op": ("ms", "lower", "read_ms.mean", "wire_oltp working_set"),
    "xnf.parse_ms.per_take": ("ms", "lower", "take_ms.mean", "working_set"),
    "plancache.hit_ratio": ("ratio", "higher", "read_ms take_ms", "working_set wire_oltp"),
    "plancache.normalize_ms.per_op": (
        "ms", "lower", "read_ms take_ms", "working_set wire_oltp"),
    "compile.ms.per_op": ("ms", "lower", "take_ms.mean", "working_set"),
    "compile.plans_per_op": ("count", "lower", "take_ms.mean", "working_set"),
    "executor.ms.per_op": ("ms", "lower", "take_ms.mean", "recursive_scan"),
    "executor.query.self_ms.per_op": ("ms", "lower", "take_ms.mean read_ms.mean", "all"),
    "executor.write.self_ms.per_op": ("ms", "lower", "write_ms.mean", "all"),
    "executor.rows_examined_per_row_out": ("ratio", "lower", "take_ms.mean", "recursive_scan"),
    "executor.rows_examined_per_row_written": (
        "ratio", "lower", "write_ms.mean", "wire_oltp working_set"),
    "storage.fetches_per_op": ("count", "lower", "take_ms.p90", "recursive_scan"),
    "storage.buffer_hit_ratio": ("ratio", "higher", "take_ms.p90", "recursive_scan"),
    "storage.disk_reads_per_op": ("count", "lower", "take_ms.p90", "recursive_scan"),
    "storage.disk_writes_per_op": ("count", "lower", "take_ms.p90", "recursive_scan"),
    "txn.commit_ms.mean": ("ms", "lower", "write_ms.mean", "wire_oltp working_set"),
    "txn.wal_flushes_per_commit": ("count", "lower", "write_ms.mean", "wire_oltp working_set"),
    "txn.wal_bytes_per_commit": ("bytes", "lower", "write_ms.mean", "wire_oltp working_set"),
    "txn.retries_per_commit": ("count", "lower", "write_ms.p90", "wire_oltp"),
    "txn.lock_conflicts_per_op": ("count", "lower", "write_ms.p90", "wire_oltp"),
    "xnf.instantiate_ms.per_take": (
        "ms", "lower", "take_ms.mean", "working_set recursive_scan"),
    "xnf.queries_per_take": ("count", "lower", "take_ms.mean", "working_set recursive_scan"),
    "xnf.scratch_tables_per_take": (
        "count", "lower", "take_ms.mean", "working_set recursive_scan"),
    "xnf.fixpoint_rounds_per_take": (
        "count", "lower", "take_ms.mean", "working_set recursive_scan"),
    "xnf.scatter_ms.per_take": ("ms", "lower", "take_ms.mean", "recursive_scan"),
    "xnf.shards_pruned_ratio": ("ratio", "higher", "take_ms.mean", "recursive_scan"),
    "xnf.cache_load_ms.per_take": ("ms", "lower", "take_ms.mean", "working_set"),
    "xnf.nav.self_ms.per_op": ("ms", "lower", "nav_ms.mean", "recursive_scan working_set"),
    "xnf.nav_steps_per_op": ("count", "lower", "nav_ms.mean", "recursive_scan working_set"),
    "xnf.manipulate.self_ms.per_op": ("ms", "lower", "write_ms.mean", "working_set"),
    "xnf.flush_ms.per_write": ("ms", "lower", "write_ms.mean", "working_set"),
    "xnf.sql_per_flushed_change": ("count", "lower", "write_ms.mean", "working_set"),
    "obs.spans_per_op": ("count", "lower", "ops_per_s", "all"),
    "unattributed_share": ("ratio", "lower", "all latencies", "all"),
    "trace.overhead_ratio": ("ratio", "lower", "(traced vs untraced ops_per_s)", "all"),
}


class SpanLog:
    """In-memory spans of one traced run, plus the row counters."""

    def __init__(self) -> None:
        #: [name, start, end, parent span or None, op id or None]
        self.spans: List[list] = []
        self.op_class: Dict[int, str] = {}
        self._ops = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: wire session id -> the client thread's span stack
        self.session_stacks: Dict[int, List[list]] = {}
        #: the in-process driver thread's span stack (single-client runs)
        self.driver_stack: Optional[List[list]] = None
        self.db: Optional[Database] = None
        #: per-thread row counters, summed by :meth:`row_counts`
        self._thread_counts: List[Dict[str, int]] = []
        self._lazy_counts: List[Tuple[str, Any]] = []
        #: counters read inside wrapped calls
        self.rows_out = 0
        self.rows_written = 0
        self.take_stats = [0, 0, 0]  # queries, scratch tables, rounds
        self.flushed = [0, 0]  # statements, changes
        self.program_spans = 0

    # -- span stacks ------------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def bind_driver(self) -> None:
        """The calling thread is the only op driver (in-process runs)."""
        self.driver_stack = self._stack()

    def bind_session(self, session_id: int) -> None:
        """Server work for *session_id* belongs to the calling thread's op."""
        self.session_stacks[session_id] = self._stack()

    def _foreign_parent(self) -> Optional[list]:
        if self.session_stacks:
            sid = self.db._session_id if self.db is not None else None
            stack = self.session_stacks.get(sid)
        else:
            stack = self.driver_stack
        return stack[-1] if stack else None

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._foreign_parent()
        span = [name, _now(), None, parent, parent[4] if parent else None]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = _now()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    def begin_op(self, cls: str) -> list:
        op = next(self._ops)
        self.op_class[op] = cls
        span = ["op", _now(), None, None, op]
        self.spans.append(span)
        self._stack().append(span)
        return span

    # -- counters ---------------------------------------------------------------

    def _counts(self) -> Dict[str, int]:
        counts = getattr(self._tls, "counts", None)
        if counts is None:
            counts = self._tls.counts = defaultdict(int)
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def _exec_kind(self) -> str:
        for span in reversed(self._stack()):
            if span[0].startswith("executor."):
                return span[0][len("executor."):]
        return "other"

    def row_counts(self) -> Dict[str, int]:
        total: Dict[str, int] = defaultdict(int)
        for counts in self._thread_counts:
            for kind, n in counts.items():
                total[kind] += n
        for kind, counter in self._lazy_counts:
            total[kind] += next(counter)
        return total

    # -- analysis ---------------------------------------------------------------

    def self_times(
        self,
    ) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float], float]:
        """Per span name, over the spans that belong to an op: summed self
        seconds, call count and summed duration; plus the ops' wall time."""
        children: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        total_s: Dict[str, float] = defaultdict(float)
        op_wall = 0.0
        for span in self.spans:
            name, start, end, _, op = span
            if op is None or end is None:
                continue
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(
                (max(c[1], start), min(c[2], end))
                for c in children.get(id(span), ())
                if c[2] is not None
            ):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_s[name] += (end - start) - covered
            calls[name] += 1
            total_s[name] += end - start
        return self_s, calls, total_s, total_s["op"]

    def write_jsonl(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                name, start, end, parent, op = span
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": index.get(id(parent)) if parent else None,
                    "op": op,
                    "op_class": self.op_class.get(op) if op is not None else None,
                }) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _spanned(log: SpanLog, name: str, fn: Callable, after=None) -> Callable:
    def wrapper(*args, **kwargs):
        span = log.open(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        finally:
            log.close(span)

    wrapper.__wrapped__ = fn
    return wrapper


def _count_rows(log: SpanLog, fn: Callable, shape: str) -> Callable:
    """Count heap rows read by *fn*: ``row`` generators are counted in C
    (zip with an itertools counter, read once at the end), ``chunk`` and
    ``page`` generators per page, ``list`` results and ``one`` row fetches
    per call."""

    def wrapper(*args, **kwargs):
        kind = log._exec_kind()
        result = fn(*args, **kwargs)
        if shape == "row":
            counter = itertools.count()
            with log._lock:
                log._lazy_counts.append((kind, counter))
            return map(operator.itemgetter(0), zip(result, counter))
        counts = log._counts()
        if shape == "one":
            counts[kind] += 1
            return result
        if shape == "list":
            counts[kind] += len(result)
            return result

        def pages():
            for item in result:
                counts[kind] += len(item if shape == "chunk" else item[1])
                yield item

        return pages()

    wrapper.__wrapped__ = fn
    return wrapper


class _ProgramSpanCounter:
    """A ``Tracer.exporter`` that counts the program's own spans."""

    def __init__(self, log: SpanLog):
        self.log = log

    def export(self, root) -> None:
        n, todo = 0, [root]
        while todo:
            span = todo.pop()
            n += 1
            todo.extend(span.children)
        with self.log._lock:
            self.log.program_spans += n


class Installed:
    """The wrappers of one traced run; :meth:`remove` restores everything."""

    def __init__(self, log: SpanLog, db: Database):
        self.log = log
        self.db = db
        self._saved: List[Tuple[Any, str, Any]] = []
        self._saved_exporter = db.tracer.exporter
        log.db = db
        db.tracer.exporter = _ProgramSpanCounter(log)

        def rows_out(args, result):
            log.rows_out += len(result)

        def rows_written(args, result):
            log.rows_written += result.rowcount

        def take_stats(args, result):
            stats = args[0].stats
            with log._lock:
                log.take_stats[0] += stats.queries_issued
                log.take_stats[1] += stats.temp_tables_created
                log.take_stats[2] += stats.iterations

        points = [
            (WireClient, "_roundtrip", "client.roundtrip", None),
            (Database, "execute", "engine.sql", None),
            (XNFSession, "execute", "engine.xnf", None),
            (engine, "parse_statements", "sql.parse", None),
            (engine, "normalize_statement", "plancache.normalize", None),
            (Database, "_compile_statement", "compile", None),
            (Database, "compile_box", "compile", None),
            (Database, "_execute_plan", "executor.query", rows_out),
            (Database, "_do_insert", "executor.write", rows_written),
            (Database, "_do_update", "executor.write", rows_written),
            (Database, "_do_delete", "executor.write", rows_written),
            (TransactionManager, "commit", "txn.commit", None),
            (xnf_api, "parse_xnf_statements", "xnf.parse", None),
            (xnf_api, "resolve", "xnf.parse", None),
            (XNFCompiler, "instantiate", "xnf.instantiate", take_stats),
            (sharding, "scatter_candidates", "xnf.scatter", None),
            (XNFCompiler, "_derive_children_partitioned", "xnf.scatter", None),
            (COCache, "load", "xnf.cache_load", None),
            (CompositeObject, "path", "xnf.nav", None),
            (CompositeObject, "update", "xnf.manipulate", None),
        ]
        for owner, attr, name, after in points:
            self._swap(owner, attr, lambda fn, n=name, a=after: _spanned(log, n, fn, a))
        self._swap(CompositeObject, "flush", self._flush_wrapper)
        for attr, shape in (
            ("scan", "row"),
            ("scan_row_chunks", "chunk"),
            ("scan_page_rows", "page"),
            ("scan_page_pairs", "list"),
            ("fetch_row", "one"),
        ):
            self._swap(HeapFile, attr, lambda fn, s=shape: _count_rows(log, fn, s))

    def _flush_wrapper(self, fn: Callable) -> Callable:
        log, db = self.log, self.db

        def flush(co):
            before = db.statements_executed
            span = log.open("xnf.flush")
            try:
                applied = fn(co)
            finally:
                log.close(span)
            with log._lock:
                log.flushed[0] += db.statements_executed - before
                log.flushed[1] += applied
            return applied

        return flush

    def _swap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.db.tracer.exporter = self._saved_exporter
