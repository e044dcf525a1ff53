"""Reference models for the differential oracle.

Pure Python (and optionally sqlite3) models of what a keyed store must
contain after an operation sequence.  The
state machines in :mod:`repro.oracle.machines` apply every operation to
both the engine under test and one of these models, then compare reads;
the models are therefore deliberately dumb — dicts and lists, no paging,
no caching — so a disagreement always indicts the engine.

Nothing in this module imports hypothesis: the models are usable from
plain unit tests and from the serve-layer replay referee.
"""

from __future__ import annotations

import pickle
import sqlite3
from typing import Any, Dict, List, Optional, Tuple

Record = Tuple[Any, ...]


class KeyedModel:
    """Dict model of a keyed store (btree / hash): key -> its one record."""

    def __init__(self) -> None:
        self.data: Dict[Any, Record] = {}

    def __len__(self) -> int:
        return len(self.data)

    def insert(self, key: Any, record: Record) -> bool:
        """Add ``record`` under ``key``; False if the key exists."""
        if key in self.data:
            return False
        self.data[key] = record
        return True

    def delete(self, key: Any) -> Optional[Record]:
        """Remove and return the record under ``key`` (or None)."""
        return self.data.pop(key, None)

    def replace(self, key: Any, record: Record) -> bool:
        """Overwrite the record under ``key``; False if absent."""
        if key not in self.data:
            return False
        self.data[key] = record
        return True

    def get(self, key: Any) -> Optional[Record]:
        return self.data.get(key)

    def clear(self) -> None:
        self.data.clear()

    def records(self) -> List[Record]:
        """Every record, in key order (the order a sorted scan yields)."""
        return [self.data[key] for key in sorted(self.data)]

    def range(self, lo: Any, hi: Any) -> List[Record]:
        """Records with ``lo <= key <= hi``, in key order."""
        return [self.data[key] for key in sorted(self.data) if lo <= key <= hi]

    def copy(self) -> "KeyedModel":
        dup = KeyedModel()
        dup.data = dict(self.data)
        return dup


class SqliteMirror:
    """A second, independent referee for integer-keyed unique stores.

    Backed by an in-memory sqlite3 table; records travel as pickled
    blobs so comparisons are exact tuple equality.  Cheap enough to run
    inside the QUICK profile, and structurally unrelated to both the
    engines and :class:`KeyedModel` — a bug would have to fool all
    three implementations identically to slip through.
    """

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")
        self._conn.execute(
            "CREATE TABLE store (k INTEGER PRIMARY KEY, rec BLOB NOT NULL)"
        )

    def close(self) -> None:
        self._conn.close()

    def insert(self, key: int, record: Record) -> bool:
        try:
            self._conn.execute(
                "INSERT INTO store (k, rec) VALUES (?, ?)",
                (key, pickle.dumps(record)),
            )
        except sqlite3.IntegrityError:
            return False
        return True

    def delete(self, key: int) -> bool:
        cursor = self._conn.execute("DELETE FROM store WHERE k = ?", (key,))
        return cursor.rowcount > 0

    def replace(self, key: int, record: Record) -> bool:
        cursor = self._conn.execute(
            "UPDATE store SET rec = ? WHERE k = ?", (pickle.dumps(record), key)
        )
        return cursor.rowcount > 0

    def clear(self) -> None:
        self._conn.execute("DELETE FROM store")

    def get(self, key: int) -> Optional[Record]:
        row = self._conn.execute(
            "SELECT rec FROM store WHERE k = ?", (key,)
        ).fetchone()
        return None if row is None else pickle.loads(row[0])

    def records(self) -> List[Record]:
        rows = self._conn.execute("SELECT rec FROM store ORDER BY k").fetchall()
        return [pickle.loads(row[0]) for row in rows]

    def range(self, lo: int, hi: int) -> List[Record]:
        rows = self._conn.execute(
            "SELECT rec FROM store WHERE k BETWEEN ? AND ? ORDER BY k", (lo, hi)
        ).fetchall()
        return [pickle.loads(row[0]) for row in rows]
