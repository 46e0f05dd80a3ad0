"""The benchmark's three workloads.

Each workload builds its data with the program's own generators, derives
the expected results of its ops once (the checks), and turns a seed into a
fixed, endless op schedule.  One *iteration* of a schedule runs a few dependent ops
(a take, navigation over what it took, a read, sometimes a write); every op
is timed on its own and checked before the next one starts.

==================  =====================================================
``working_set``     one in-process client over ``build_design_database(300)``
``recursive_scan``  one in-process client over ``build_parts_database(10000,
                    shards=4)`` plus a full parts CO in the cache
``wire_oltp``       two ``WireClient`` connections, taking turns in one
                    closed loop, to a loopback ``ServerThread`` over
                    ``demo_database(num_parts=2000)``
==================  =====================================================
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro import XNFSession
from repro.client.client import WireClient
from repro.relational.engine import Database
from repro.server.bootstrap import STAFF_CO, demo_database
from repro.server.server import ServerThread
from repro.workloads import design, oo1
from repro.workloads.company import FIGURE1_CO

#: op classes, in the order the metrics are reported
OP_CLASSES = ("take", "nav", "read", "write")


class CheckFailed(Exception):
    """An op returned a result that differs from the expected one."""


def expect(what: str, got: Any, want: Any) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def co_shape(nodes: Dict[str, int], edges: Dict[str, int]) -> Tuple:
    return tuple(sorted(nodes.items())), tuple(sorted(edges.items()))


def local_shape(co) -> Tuple:
    return co_shape(
        {name: len(co.node(name)) for name in co.nodes()},
        {name: len(co.connections(name)) for name in co.edges()},
    )


class Workload:
    """Base class; ``runner`` is a :class:`perfbench.harness.ClientRun`."""

    name = ""
    #: iterations run untimed as warm-up, part of ``setup_s``
    warm_iterations = 0
    db: Database

    def build(self) -> None:
        raise NotImplementedError

    def make_oracle(self) -> None:
        """Derive the expected results from the first build's data."""

    def schedule(self, seed: int) -> Iterator[tuple]:
        """An endless stream of iteration inputs, generated from *seed*
        alone as the run consumes it."""
        raise NotImplementedError

    def bind_driver(self, log) -> None:
        """Tell a traced run's span log that the calling thread drives
        the ops."""
        log.bind_driver()

    def iteration(self, runner, item: tuple) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Drop the build, so that the next one does not share the
        process's peak memory with it."""
        self.db = self.session = None


# ---------------------------------------------------------------------------
# working_set
# ---------------------------------------------------------------------------


class WorkingSet(Workload):
    """Small, index-driven working sets out of a big design database."""

    name = "working_set"
    DOCUMENTS = 300
    warm_iterations = 30
    WRITE_EVERY = 10

    def build(self) -> None:
        self.db = design.build_design_database(self.DOCUMENTS)
        self.session = XNFSession(self.db, deferred_propagation=True)

    def make_oracle(self) -> None:
        # Plain-SQL oracle: component and subcomponent counts per
        # (document, version number).
        comps = self.db.execute(
            "SELECT v.vdid, v.vnum, COUNT(*) FROM VERSION v, COMPONENT c "
            "WHERE c.cvid = v.vid GROUP BY v.vdid, v.vnum"
        ).rows
        subs = dict(
            ((doc, ver), n)
            for doc, ver, n in self.db.execute(
                "SELECT v.vdid, v.vnum, COUNT(*) FROM VERSION v, COMPONENT c, "
                "SUBCOMP s WHERE c.cvid = v.vid AND s.scid = c.cid "
                "GROUP BY v.vdid, v.vnum"
            ).rows
        )
        self.expected: Dict[Tuple[int, int], Tuple] = {}
        for doc, ver, n_comp in comps:
            n_sub = subs[(doc, ver)]
            self.expected[(doc, ver)] = co_shape(
                {"Xdoc": 1, "Xver": 1, "Xcomp": n_comp, "Xsub": n_sub},
                {"has_version": 1, "has_component": n_comp, "has_subcomp": n_sub},
            )

    def schedule(self, seed: int) -> Iterator[tuple]:
        rng = random.Random(seed)
        n_subcomps = self.DOCUMENTS * design.VERSIONS_PER_DOCUMENT * (
            design.COMPONENTS_PER_VERSION * design.SUBCOMPS_PER_COMPONENT
        )
        for i in itertools.count():
            doc = rng.randint(1, self.DOCUMENTS)
            ver = rng.randint(1, design.VERSIONS_PER_DOCUMENT)
            sid = rng.randint(1, n_subcomps)
            write = None
            if i % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                write = (
                    rng.randrange(design.COMPONENTS_PER_VERSION),
                    float(rng.randint(1, 500)),
                )
            yield doc, ver, sid, write

    @staticmethod
    def _walk(co) -> Tuple[int, int]:
        comps = subs = 0
        cursor = co.cursor("Xcomp")
        while cursor.fetch() is not None:
            comps += 1
            dependent = co.dependent_cursor(cursor, "has_subcomp")
            while dependent.fetch() is not None:
                subs += 1
        return comps, subs

    def iteration(self, runner, item: tuple) -> None:
        doc, ver, sid, write = item
        text = design.working_set_co(doc, ver)
        co = runner.op("take", lambda: self.session.query(text))
        want = self.expected[(doc, ver)]
        runner.check("take", local_shape(co), want)
        steps = co.cache.navigations
        walked = runner.op("nav", lambda: self._walk(co), layer="xnf.nav")
        runner.nav_steps += co.cache.navigations - steps
        nodes = dict(want[0])
        runner.check("nav", walked, (nodes["Xcomp"], nodes["Xsub"]))
        sql = f"SELECT * FROM SUBCOMP WHERE sid = {sid}"
        rows = runner.op("read", lambda: self.db.execute(sql).rows)
        expect("read", len(rows), 1)
        runner.check("read", rows[0][:2], (sid, (sid - 1) // design.SUBCOMPS_PER_COMPONENT + 1))
        if write is None:
            return
        index, weight = write
        comp = sorted(co.node("Xcomp"), key=lambda t: t["cid"])[index]

        def edit_and_flush():
            co.update(comp, weight=weight)
            return co.flush()

        runner.op("write", edit_and_flush)
        stored = self.db.execute(
            f"SELECT weight FROM COMPONENT WHERE cid = {comp['cid']}"
        ).scalar()
        runner.check("write", (comp["cid"], stored), (comp["cid"], weight))


# ---------------------------------------------------------------------------
# recursive_scan
# ---------------------------------------------------------------------------

#: bench_sharding's recursive working-set CO over a seeded x window
WINDOW_CO = """
OUT OF
 Xlib AS DESIGNLIB,
 Xpart AS (SELECT * FROM PART
           WHERE x >= {lo} AND x < {hi} AND y < 2500
             AND ptype IN ('part-type1', 'part-type2',
                           'part-type3', 'part-type4')),
 contains AS (RELATE Xlib, Xpart WHERE Xlib.lid = Xpart.lib),
 connects AS (RELATE Xpart source, Xpart target
              WITH ATTRIBUTES c.ctype AS ctype, c.clength AS clength
              USING CONN c
              WHERE source.pid = c.cfrom AND target.pid = c.cto)
TAKE *
"""
WINDOW_TYPES = {"part-type1", "part-type2", "part-type3", "part-type4"}


class RecursiveScan(Workload):
    """Scan- and fixpoint-bound extraction over sharded OO1 data."""

    name = "recursive_scan"
    PARTS = 10_000
    SHARDS = 4
    WINDOW = 10_000
    NAV_DEPTH = 7
    READ_DEPTH = 3
    #: setwise reads per iteration: a read costs twice a take, so one per
    #: iteration left too few reads in a run for a steady p90
    READS = 2
    warm_iterations = 3

    def build(self) -> None:
        self.db = oo1.build_parts_database(self.PARTS, shards=self.SHARDS)
        self.session = XNFSession(self.db)
        self.parts_co = oo1.load_parts_co(self.session)
        self.next_pid = self.PARTS + 1

    def close(self) -> None:
        self.parts_co = None
        super().close()

    def make_oracle(self) -> None:
        # Reference data for the checks, read once with plain SQL.
        self.parts = self.db.execute("SELECT pid, ptype, x, y FROM PART").rows
        conns = self.db.execute("SELECT cfrom, cto, ctype, clength FROM CONN").rows
        self.conn_rows: Dict[int, List[tuple]] = defaultdict(list)
        for row in conns:
            self.conn_rows[row[0]].append(row)
        # CO connections are DISTINCT rows, so the cache holds each
        # (cfrom, cto, ctype, clength) once.
        self.cache_targets = {
            pid: [row[1] for row in dict.fromkeys(rows)]
            for pid, rows in self.conn_rows.items()
        }
        self._visits: Dict[Tuple[int, int], int] = {}

    def expected_take(self, lo: int, hi: int) -> Tuple:
        members = {
            pid for pid, ptype, x, y in self.parts
            if lo <= x < hi and y < 2500 and ptype in WINDOW_TYPES
        }
        connects = {
            row for pid in members for row in self.conn_rows.get(pid, ())
            if row[1] in members
        }
        return co_shape(
            {"Xlib": 1, "Xpart": len(members)},
            {"contains": len(members), "connects": len(connects)},
        )

    def cache_visits(self, pid: int, depth: int) -> int:
        """Reference for ``oo1.traverse_cache``: raw visits to *depth*."""
        key = (pid, depth)
        if key not in self._visits:
            self._visits[key] = 1 + (
                sum(self.cache_visits(t, depth - 1) for t in self.cache_targets.get(pid, ()))
                if depth else 0
            )
        return self._visits[key]

    def setwise_visits(self, start: int, depth: int) -> int:
        """Reference for ``oo1.traverse_setwise_sql`` (``cfrom IN (...)``
        matches each CONN row once however often its source repeats)."""
        frontier, visits = [start], 1
        for _ in range(depth):
            frontier = [row[1] for pid in set(frontier) for row in self.conn_rows.get(pid, ())]
            visits += len(frontier)
            if not frontier:
                break
        return visits

    def schedule(self, seed: int) -> Iterator[tuple]:
        rng = random.Random(seed)
        while True:
            lo = rng.randint(0, 100_000 - self.WINDOW)
            nav_start = rng.randint(1, self.PARTS)
            read_starts = tuple(rng.randint(1, self.PARTS) for _ in range(self.READS))
            insert = (
                rng.randint(0, 99_999),
                rng.randint(0, 99_999),
                tuple((rng.randint(1, self.PARTS), rng.randint(0, 99))
                      for _ in range(oo1.CONNECTIONS_PER_PART)),
            )
            yield lo, nav_start, read_starts, insert

    def iteration(self, runner, item: tuple) -> None:
        lo, nav_start, read_starts, insert = item
        hi = lo + self.WINDOW
        text = WINDOW_CO.format(lo=lo, hi=hi)
        co = runner.op("take", lambda: self.session.query(text))
        runner.check("take", local_shape(co), self.expected_take(lo, hi))
        steps = self.parts_co.cache.navigations
        visits = runner.op(
            "nav",
            lambda: oo1.traverse_cache(self.parts_co, nav_start, self.NAV_DEPTH),
            layer="xnf.nav",
        )
        runner.nav_steps += self.parts_co.cache.navigations - steps
        runner.check("nav", visits, self.cache_visits(nav_start, self.NAV_DEPTH))
        for start in read_starts:
            visits = runner.op(
                "read", lambda: oo1.traverse_setwise_sql(self.db, start, self.READ_DEPTH)
            )
            runner.check("read", visits, self.setwise_visits(start, self.READ_DEPTH))
        # OO1 insert: a new part (a type the take's window never selects)
        # and its connections, in one transaction.  Nothing the other ops
        # read can reach it, so their expected results stay fixed.
        pid = self.next_pid
        self.next_pid += 1
        x, y, targets = insert
        db = self.db

        def insert_part():
            db.begin()
            try:
                db.execute(f"INSERT INTO PART VALUES ({pid}, 'part-type0', {x}, {y}, 1)")
                for cto, clength in targets:
                    db.execute(
                        f"INSERT INTO CONN VALUES ({pid}, {cto}, 'conn-type0', {clength})"
                    )
                db.commit()
            finally:
                if db.in_transaction:
                    db.rollback()

        runner.op("write", insert_part)
        stored = (
            db.execute(f"SELECT ptype FROM PART WHERE pid = {pid}").scalar(),
            db.execute(f"SELECT COUNT(*) FROM CONN WHERE cfrom = {pid}").scalar(),
        )
        runner.check("write", (pid, stored), (pid, ("part-type0", len(targets))))


# ---------------------------------------------------------------------------
# wire_oltp
# ---------------------------------------------------------------------------


class WireOLTP(Workload):
    """Two wire sessions mixing extraction, navigation, reads and writes.

    One thread drives both connections, which take turns by iteration.
    With one thread per connection, the client threads, the server's event
    loop and its workers all contended for the GIL inside this process, and
    small requests waited for GIL hand-offs: from one stretch of runs to the
    next, nav and read latencies doubled with the host's speed unchanged.
    A real client does not share the server's interpreter.
    """

    name = "wire_oltp"
    CONNECTIONS = 2
    PARTS = 2000
    DEPARTMENTS = ("d1", "d2", "d3")
    RETRIES = 8
    warm_iterations = 10

    def build(self) -> None:
        self.db = demo_database(num_parts=self.PARTS)
        self.server = ServerThread(self.db).start()
        self.conns = [WireClient(port=self.server.port) for _ in range(self.CONNECTIONS)]

    def make_oracle(self) -> None:
        # The in-process result of the same XNF text is the reference for
        # what comes over the wire.
        session = XNFSession(self.db)
        e1 = session.query(FIGURE1_CO)
        self.e1_shape = local_shape(e1)
        self.e1_path = {
            dname: len(e1.path(e1.find("Xdept", dname=dname), "employment"))
            for dname in self.DEPARTMENTS
        }
        self.e6_shape = local_shape(session.query(STAFF_CO))
        self.parts = {
            row[0]: row for row in self.db.execute("SELECT pid, ptype, x FROM PART").rows
        }

    def schedule(self, seed: int) -> Iterator[tuple]:
        rng = random.Random(seed)
        n = self.CONNECTIONS
        owned = [range(1 + c, self.PARTS + 1, n) for c in range(n)]
        for i in itertools.count():
            c = i % n
            yield (
                c,
                (i // n) % 2 == 0,
                rng.choice(self.DEPARTMENTS),
                rng.randint(1, self.PARTS),
                rng.choice(owned[c]),
                rng.randint(0, 99_999),
                rng.randint(1, self.PARTS),
                i,
            )

    def bind_driver(self, log) -> None:
        for conn in self.conns:
            log.bind_session(conn.session_id)

    def iteration(self, runner, item: tuple) -> None:
        c, e1, dname, read_pid, write_pid, y, cto, tag = item
        conn = self.conns[c]
        rng = random.Random(tag)

        def retrying(fn: Callable[[], Any]) -> Callable[[], Any]:
            def attempt():
                runner.attempts += 1
                return fn()

            def run():
                runner.retried_ops += 1
                return conn.run_retryable(attempt, retries=self.RETRIES, rng=rng)

            return run

        def take():
            co = conn.take(FIGURE1_CO if e1 else STAFF_CO)
            return co, (co.path("Xdept", "employment", dname=dname) if e1 else None)

        co, path = runner.op("take", retrying(take))
        if e1:
            runner.check("take", (co_shape(co.nodes, co.edges), len(path)),
                         (self.e1_shape, self.e1_path[dname]))
        else:
            runner.check("take", co_shape(co.nodes, co.edges), self.e6_shape)

        def drain():
            cursor, n = co.cursor("Xemp"), 0
            while cursor.fetch() is not None:
                n += 1
            co.close()
            return n

        runner.check("nav", runner.op("nav", retrying(drain)), co.nodes["Xemp"])
        sql = f"SELECT pid, ptype, x FROM PART WHERE pid = {read_pid}"
        rows = runner.op("read", retrying(lambda: conn.execute(sql).rows()))
        runner.check("read", rows, [self.parts[read_pid]])

        def txn():
            conn.begin()
            conn.execute(f"UPDATE PART SET y = {y} WHERE pid = {write_pid}")
            conn.execute(f"INSERT INTO CONN VALUES ({write_pid}, {cto}, 'bench', {tag})")
            conn.commit()

        runner.op("write", retrying(txn))
        stored = conn.execute(
            f"SELECT y FROM PART WHERE pid = {write_pid}"
        ).scalar(), conn.execute(
            f"SELECT COUNT(*) FROM CONN WHERE cfrom = {write_pid} AND ctype = 'bench' "
            f"AND clength = {tag}"
        ).scalar()
        runner.check("write", (write_pid, stored), (write_pid, (y, 1)))

    def close(self) -> None:
        for conn in getattr(self, "conns", ()):
            conn.close()
        if getattr(self, "server", None) is not None:
            self.server.stop()
        self.conns, self.server = [], None
        super().close()


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (WorkingSet, RecursiveScan, WireOLTP)
}


def effective_config(db: Database) -> Dict[str, Any]:
    """The program configuration a run measured (compare only equal ones)."""
    shards = {
        name: table.partition.num_shards
        for name, table in sorted(db.catalog.tables.items())
        if getattr(table, "partition", None) is not None
        and not getattr(table, "is_shard_view", False)
    }
    return {
        "executor": db.executor_mode,
        "mvcc": db.mvcc is not None,
        "default_shards": db.default_shards,
        "table_shards": shards,
        "trace_sample_rate": db.tracer.sample_rate,
        "tracing": db.tracer.enabled,
        "buffer_frames": db.buffer_pool.capacity,
    }
