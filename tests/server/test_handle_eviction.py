"""Per-connection handle caps: LRU eviction with a typed, non-retryable error.

A wire session's prepared statements, fetch cursors, composite objects and
CO cursors used to accumulate until disconnect.  With
``max_session_handles`` set, the oldest handle of a kind is evicted when the
cap is exceeded, and touching an evicted handle raises
:class:`~repro.errors.HandleEvictedError` — distinguishable on the client
from a plain unknown-handle :class:`CursorError`, and never retryable (the
handle cannot be replayed; the client must re-create it).
"""

import pytest

from repro.client.client import WireClient
from repro.errors import CursorError, HandleEvictedError
from repro.server.server import ServerThread
from repro.workloads.company import figure1_database

XNF_TAKE = """
OUT OF Xdept AS DEPT, Xemp AS EMP,
 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
TAKE *
"""


@pytest.fixture
def tight_server():
    """A server that only keeps 3 live handles per kind per connection."""
    db = figure1_database()
    with ServerThread(db, max_connections=8, max_session_handles=3) as server:
        yield server


@pytest.fixture
def client(tight_server):
    with WireClient(port=tight_server.port) as c:
        yield c


class TestPreparedEviction:
    def test_oldest_prepared_statement_evicted(self, client):
        handles = [client.prepare("SELECT * FROM DEPT") for _ in range(4)]
        with pytest.raises(HandleEvictedError) as exc:
            handles[0].execute()
        assert exc.value.retryable is False
        # the survivors still execute
        assert handles[1].execute().rows()
        assert handles[3].execute().rows()

    def test_lru_order_respects_recent_use(self, client):
        handles = [client.prepare("SELECT * FROM DEPT") for _ in range(3)]
        handles[0].execute()  # touch: now handles[1] is the LRU entry
        client.prepare("SELECT * FROM EMP")
        assert handles[0].execute().rows()
        with pytest.raises(HandleEvictedError):
            handles[1].execute()

    def test_error_survives_wire_roundtrip_as_typed(self, client):
        for _ in range(4):
            client.prepare("SELECT * FROM DEPT")
        with pytest.raises(HandleEvictedError):
            client.request(op="EXECUTE", stmt=1, params=[])
        # and an id that never existed still reports the generic error
        with pytest.raises(CursorError):
            client.request(op="CO_FETCH", cursor=99999)


class TestCOEviction:
    def test_evicted_co_and_cascaded_cursors(self, client):
        first = client.take(XNF_TAKE)
        # open but do not drain: an exhausted cursor closes itself server-side
        cursor = first.cursor("Xemp")
        for _ in range(3):
            client.take(XNF_TAKE)  # push the first CO out of the LRU
        with pytest.raises(HandleEvictedError):
            first.path("Xdept", "employment", dname="d1")
        # the CO's cursor was cascaded out with it
        with pytest.raises(HandleEvictedError):
            client.request(op="CO_FETCH", cursor=cursor.cursor_id, n=10)

    def test_explicit_close_still_reports_unknown(self, client):
        co = client.take(XNF_TAKE)
        co.close()
        with pytest.raises(CursorError) as exc:
            client.request(op="CO_PATH", co=co.co_id, start="Xdept",
                           path="employment")
        assert not isinstance(exc.value, HandleEvictedError)

    def test_eviction_counter_visible_in_network_stats(self, tight_server):
        with WireClient(port=tight_server.port) as c:
            for _ in range(5):
                c.prepare("SELECT * FROM DEPT")
        snap = tight_server.server.db.network.snapshot()
        assert snap.get("handles_evicted", 0) >= 2


class TestDefaultCapIsRoomy:
    def test_default_server_keeps_many_handles(self):
        db = figure1_database()
        with ServerThread(db, max_connections=4) as server:
            assert server.server.max_session_handles == 256
            with WireClient(port=server.port) as c:
                handles = [c.prepare("SELECT * FROM DEPT") for _ in range(20)]
                assert all(h.execute().rows() for h in handles)
