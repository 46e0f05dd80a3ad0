"""Sharded scatter/gather extraction must be bit-identical to unsharded.

The scatter stage splits the candidate query across per-shard views and the
delta stage partitions fixpoint deltas by the USING table's partition key —
both are pure re-arrangements of the same relational work, so every node's
rows and every edge's connection set must come out exactly equal, on cyclic
graphs, skewed partitions, and when pruning eliminates every shard.
"""

import pytest

from repro.relational.engine import Database
from repro.workloads import oo1
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler
from repro.xnf.views import XNFViewCatalog, resolve

RESTRICTED_CO = """
OUT OF
 Xlib AS DESIGNLIB,
 Xpart AS (SELECT * FROM PART WHERE x < 30000 AND y < 60000),
 contains AS (RELATE Xlib, Xpart WHERE Xlib.lid = Xpart.lib),
 connects AS (RELATE Xpart source, Xpart target
              WITH ATTRIBUTES c.ctype AS ctype, c.clength AS clength
              USING CONN c
              WHERE source.pid = c.cfrom AND target.pid = c.cto)
TAKE *
"""

IMPOSSIBLE_CO = """
OUT OF
 Xlib AS DESIGNLIB,
 Xpart AS (SELECT * FROM PART WHERE x < -1),
 contains AS (RELATE Xlib, Xpart WHERE Xlib.lid = Xpart.lib)
TAKE *
"""


def _schema(text):
    return resolve(parse_xnf(text), XNFViewCatalog())


def _canonical(instance):
    return (
        {name: sorted(rows, key=repr) for name, rows in instance.rows.items()},
        {
            name: sorted(conns, key=repr)
            for name, conns in instance.connections.items()
        },
    )


def _extract(db, text, scatter=True):
    compiler = XNFCompiler(db, scatter=scatter)
    instance = compiler.instantiate(_schema(text))
    return compiler, instance


class TestShardedFixpointEquivalence:
    """The OO1 connection graph is cyclic (parts connect back into earlier
    parts), so the fixpoint genuinely iterates; 300 parts keeps it fast."""

    @pytest.fixture(scope="class")
    def dbs(self):
        plain = oo1.build_parts_database(300, seed=11)
        sharded = oo1.build_parts_database(300, seed=11, shards=4)
        return plain, sharded

    def test_full_parts_co_identical(self, dbs):
        plain, sharded = dbs
        _, base = _extract(plain, oo1.PARTS_CO)
        _, shard = _extract(sharded, oo1.PARTS_CO)
        assert _canonical(base) == _canonical(shard)
        assert base.total_tuples() == shard.total_tuples() > 0
        assert base.total_connections() == shard.total_connections() > 0

    def test_restricted_co_identical_and_pruned(self, dbs):
        plain, sharded = dbs
        _, base = _extract(plain, RESTRICTED_CO)
        before = sharded.metrics.counter("xnf.scatter.pruned").value
        compiler, shard = _extract(sharded, RESTRICTED_CO)
        assert _canonical(base) == _canonical(shard)
        # x < 30000 on a 4-way range partition of [0, 100000) must prove at
        # least the top two shards empty at candidate time
        assert sharded.metrics.counter("xnf.scatter.pruned").value - before >= 2
        assert compiler.shard_stats["Xpart"]

    def test_scatter_ablation_matches(self, dbs):
        _, sharded = dbs
        _, scattered = _extract(sharded, RESTRICTED_CO, scatter=True)
        _, serial = _extract(sharded, RESTRICTED_CO, scatter=False)
        assert _canonical(scattered) == _canonical(serial)

    def test_all_shards_pruned_yields_empty_instance(self, dbs):
        plain, sharded = dbs
        _, base = _extract(plain, IMPOSSIBLE_CO)
        _, shard = _extract(sharded, IMPOSSIBLE_CO)
        assert _canonical(base) == _canonical(shard)
        assert shard.rows["Xpart"] == []
        # the facade fallback must still produce the node's column header
        assert shard.columns["Xpart"] == base.columns["Xpart"]


class TestSkewedPartitions:
    def test_everything_on_one_shard(self):
        """Degenerate range bounds: every part lands on shard 3."""
        plain = oo1.build_parts_database(150, seed=5)
        skewed = oo1.build_parts_database(150, seed=5)
        skewed.repartition(
            "PART", 4, kind="range", column="x", bounds=[-3, -2, -1]
        )
        skewed.repartition("CONN", 4, kind="hash", column="cfrom")
        table = skewed.catalog.get_table("PART")
        assert table.heap.shards[3].row_count == 150
        _, base = _extract(plain, oo1.PARTS_CO)
        _, shard = _extract(skewed, oo1.PARTS_CO)
        assert _canonical(base) == _canonical(shard)

    def test_shard_stats_expose_skew(self):
        db = oo1.build_parts_database(150, seed=5)
        db.repartition("PART", 4, kind="range", column="x", bounds=[-3, -2, -1])
        compiler, instance = _extract(db, RESTRICTED_CO)
        per_shard = compiler.shard_stats["Xpart"]
        # every part routed to shard 3: the skew is visible as one bucket
        assert set(per_shard) == {3}
        assert per_shard[3] == len(instance.rows["Xpart"]) > 0
        rows = db.execute(
            "SELECT component, cardinality FROM SYS_CO_STATS WHERE kind = 'shard'"
        ).rows
        assert ("Xpart#s3", per_shard[3]) in rows


class TestScatterInsideTransactions:
    def test_extraction_in_snapshot_still_identical(self):
        db = oo1.build_parts_database(120, seed=9, shards=2)
        _, outside = _extract(db, oo1.PARTS_CO)
        db.execute("BEGIN")
        try:
            _, inside = _extract(db, oo1.PARTS_CO)
        finally:
            db.execute("ROLLBACK")
        assert _canonical(outside) == _canonical(inside)
