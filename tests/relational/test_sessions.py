"""Multiple sessions over one database: lock conflicts and snapshot
isolation."""

import pytest

from repro.errors import DeadlockError


@pytest.fixture
def shared(people_db):
    return people_db, people_db.connect(), people_db.connect()


class TestSessionIndependence:
    def test_sessions_have_own_transactions(self, shared):
        db, a, b = shared
        a.begin()
        assert a.in_transaction
        assert not b.in_transaction
        assert not db.in_transaction
        a.rollback()

    def test_autocommit_sessions_share_data(self, shared):
        _, a, b = shared
        a.execute("INSERT INTO PEOPLE VALUES (9, 'zed', 1, 'NY', 0.0)")
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 6

    def test_session_rollback_only_undoes_own_work(self, shared):
        _, a, b = shared
        b.execute("INSERT INTO PEOPLE VALUES (8, 'yak', 1, 'NY', 0.0)")
        a.begin()
        a.execute("INSERT INTO PEOPLE VALUES (9, 'zed', 1, 'NY', 0.0)")
        a.rollback()
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 6

    def test_default_database_acts_as_a_session(self, shared):
        db, a, _ = shared
        db.begin()
        db.execute("DELETE FROM PEOPLE WHERE id = 1")
        db.rollback()
        assert a.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5


class TestLockConflicts:
    def test_writer_blocks_reader(self, shared):
        """Snapshot isolation: the writer does not block the reader, which
        sees the pre-delete state until the writer commits."""
        _, a, b = shared
        a.begin()
        a.execute("DELETE FROM PEOPLE WHERE id = 1")
        b.begin()
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        a.commit()
        # b's snapshot predates a's commit: still 5 rows.
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        b.commit()
        assert b.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 4

    def test_autocommit_reader_never_sees_uncommitted_write(self, people_db):
        """No dirty reads: an autocommit SELECT in one session must not
        see another session's uncommitted UPDATE, before or after it
        rolls back."""
        a, b = people_db.connect(), people_db.connect()
        query = "SELECT age FROM PEOPLE WHERE id = 1"
        original = b.execute(query).scalar()
        a.begin()
        a.execute("UPDATE PEOPLE SET age = 99 WHERE id = 1")
        assert a.execute(query).scalar() == 99  # a sees its own write
        assert b.execute(query).scalar() == original
        a.rollback()
        assert b.execute(query).scalar() == original

    def test_writer_blocks_writer(self, shared):
        _, a, b = shared
        a.begin()
        a.execute("UPDATE PEOPLE SET age = 1 WHERE id = 1")
        b.begin()
        with pytest.raises(DeadlockError):
            b.execute("UPDATE PEOPLE SET age = 2 WHERE id = 2")
        a.rollback()
        b.execute("UPDATE PEOPLE SET age = 2 WHERE id = 2")
        b.commit()

    def test_readers_share(self, shared):
        _, a, b = shared
        a.begin()
        b.begin()
        a.execute("SELECT * FROM PEOPLE")
        b.execute("SELECT * FROM PEOPLE")
        a.commit()
        b.commit()

    def test_repeatable_read_blocks_writer_until_commit(self, shared):
        """Readers hold no locks, so the writer proceeds; the reader's
        reads stay repeatable because they come from its snapshot."""
        _, a, b = shared
        a.begin()
        a.execute("SELECT * FROM PEOPLE")
        b.begin()
        b.execute("DELETE FROM PEOPLE WHERE id = 1")
        b.commit()
        assert a.execute("SELECT COUNT(*) FROM PEOPLE").scalar() == 5
        a.commit()

    def test_autocommit_reads_never_hold_locks(self, shared):
        _, a, b = shared
        a.execute("SELECT * FROM PEOPLE")  # autocommit: no txn, no lock
        b.begin()
        b.execute("DELETE FROM PEOPLE WHERE id = 1")
        b.commit()
