"""Numpy references every benchmark answer is checked against.

* :class:`ReadOracle` — rows and grouped aggregates of a ``ts`` range over
  the served table (``ts`` is strictly increasing, so a range is a row
  slice).
* :class:`ChurnOracle` — the ``churn_fixture`` op stream replayed onto
  plain arrays with ``MutableTable`` semantics: deletes drop matching
  live rows in place, updates move the matching rows to the tail with
  the new values, appends go to the tail.
"""

from __future__ import annotations

import hashlib

import numpy as np


class ReadOracle:
    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns
        self.ts = columns["ts"]

    def row_slice(self, lo: int, hi: int) -> slice:
        """Rows with ``lo <= ts < hi``."""
        return slice(int(np.searchsorted(self.ts, lo, "left")),
                     int(np.searchsorted(self.ts, hi, "left")))

    def rows_match(self, result: dict, lo: int, hi: int) -> bool:
        """A decoded ``ServeClient.query`` row result equals the rows of
        ``[lo, hi)``: ids, every column, count, nothing truncated."""
        rows = self.row_slice(lo, hi)
        expected_ids = np.arange(rows.start, rows.stop, dtype=np.int64)
        if result.get("truncated") or \
                result["n_rows"] != len(expected_ids) or \
                not np.array_equal(result["row_ids"], expected_ids):
            return False
        return set(result["columns"]) == set(self.columns) and all(
            np.array_equal(result["columns"][name], values[rows])
            for name, values in self.columns.items())

    def groups(self, lo: int, hi: int, key: str = "sensor_id",
               value: str = "reading") -> dict[int, dict]:
        """``{key: {"s": sum, "c": count, "m": max}}`` of ``value`` over
        the rows of ``[lo, hi)``."""
        rows = self.row_slice(lo, hi)
        keys = self.columns[key][rows]
        vals = self.columns[value][rows]
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        starts = np.flatnonzero(np.r_[True, np.diff(keys) != 0])
        sums = np.add.reduceat(vals, starts)
        maxes = np.maximum.reduceat(vals, starts)
        counts = np.diff(np.r_[starts, len(keys)])
        return {int(keys[s]): {"s": int(sums[j]), "c": int(counts[j]),
                               "m": int(maxes[j])}
                for j, s in enumerate(starts)}

    @staticmethod
    def groups_match(result: dict, expected: dict[int, dict]) -> bool:
        got = result.get("groups")
        if got is None:
            return False
        return {int(key): row for key, row in got} == expected


def digest(columns: dict[str, np.ndarray], names) -> tuple:
    """(row count, sha1 over the columns' int64 bytes in ``names``
    order) — equal digests mean equal tables row for row."""
    h = hashlib.sha1()
    n = 0
    for name in names:
        values = np.ascontiguousarray(columns[name], dtype=np.int64)
        n = len(values)
        h.update(values.tobytes())
    return n, h.hexdigest()


class ChurnOracle:
    """The live rows of a mutated table, in scan order."""

    def __init__(self, base: dict[str, np.ndarray]):
        self.names = tuple(base)
        self.columns = {k: np.asarray(v, dtype=np.int64).copy()
                        for k, v in base.items()}
        #: leading rows that belong to the last published snapshot; the
        #: rest is the memtable tail the next flush encodes
        self.published = self.n_rows

    @property
    def n_rows(self) -> int:
        return len(self.columns[self.names[0]])

    def _keep(self, mask: np.ndarray) -> None:
        self.published = int(mask[:self.published].sum())
        self.columns = {k: v[mask] for k, v in self.columns.items()}

    def _push(self, batch: dict[str, np.ndarray]) -> None:
        self.columns = {k: np.concatenate([self.columns[k], batch[k]])
                        for k in self.names}

    def apply(self, op: dict) -> int:
        """Replay one churn op; returns the rows it touched (what the
        matching ``MutableTable`` call returns)."""
        if op["op"] == "append":
            batch = {k: np.asarray(op["batch"][k], dtype=np.int64)
                     for k in self.names}
            self._push(batch)
            return len(batch[self.names[0]])
        if op["op"] == "delete":
            column, lo, hi = op["where"]
            values = self.columns[column]
            hit = (values >= lo) & (values < hi)
            self._keep(~hit)
            return int(hit.sum())
        hit = self.columns[op["key_column"]] == op["key"]
        moved = {k: v[hit].copy() for k, v in self.columns.items()}
        for name, value in op["values"].items():
            moved[name][:] = value
        self._keep(~hit)
        self._push(moved)
        return int(hit.sum())

    def flushed(self) -> dict[str, np.ndarray]:
        """Mark a flush; returns the tail rows it encoded."""
        tail = {k: v[self.published:] for k, v in self.columns.items()}
        self.published = self.n_rows
        return tail

    def digest(self) -> tuple:
        return digest(self.columns, self.names)
