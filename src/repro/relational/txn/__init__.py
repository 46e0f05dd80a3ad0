"""Transactions: locking, snapshots, write-ahead logging, rollback, recovery.

The paper's architecture argument is that "transaction, recovery and storage
management ... are completely shared between XNF and regular DBMS users".
This package provides that shared substrate with one concurrency mode,
snapshot isolation: readers see the snapshot their transaction (or
autocommit statement) began with and take no locks; writers take no-wait
table X locks and lose to the first committer on a write-write conflict.
Logical undo serves ROLLBACK, and a write-ahead log whose replay
reconstructs committed state after a simulated crash gives durability.
"""

from repro.relational.txn.locks import LockManager
from repro.relational.txn.wal import WriteAheadLog, LogRecord
from repro.relational.txn.manager import Transaction, TransactionManager

__all__ = [
    "LockManager",
    "WriteAheadLog",
    "LogRecord",
    "Transaction",
    "TransactionManager",
]
