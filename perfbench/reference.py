"""Reference answers: an evaluator that shares no code with the mediator.

Every generated query carries, next to its SQL text, a structured form
(:class:`Query`).  :class:`Reference` computes its expected row multiset
from the generated source rows with a fixed-order nested-loop join:
the first table's rows are filtered by its own predicates, and each
later table is joined by an index nested loop (a per-column dict over
the source rows, built once per run) whose inner rows are then checked
against their own predicates and the remaining join conditions.  A
range predicate on the first table is answered from a sorted copy of
that column.  The indexes only keep the evaluator fast enough to check
thousands of queries per run; the join order and the operators are the
naive ones.

Answers are compared as digests of the canonical multiset, so the
benchmark keeps thousands of expected answers without holding their
rows.
"""

from __future__ import annotations

import bisect
import hashlib
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

Row = Mapping[str, Any]

_OPS = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "between": lambda value, bounds: bounds[0] <= value <= bounds[1],
}


@dataclass(frozen=True)
class Query:
    """One generated query: SQL text plus the structure the reference
    evaluator reads.

    ``tables`` is the join order; every table after the first must be
    joined to an earlier one.  ``output`` lists projected
    ``(table, column)`` pairs (``None`` = every column of the single
    table).  ``group_by`` names a ``(table, column)`` grouped with
    ``COUNT(*) AS n``.
    """

    label: str
    sql: str
    tables: tuple[str, ...]
    filters: tuple[tuple[str, str, str, Any], ...] = ()
    joins: tuple[tuple[str, str, str, str], ...] = ()
    output: tuple[tuple[str, str], ...] | None = None
    group_by: tuple[str, str] | None = None


def digest(rows: Iterable[Row]) -> tuple[int, str]:
    """``(row count, hash)`` of a row multiset, independent of order."""
    canonical = sorted(repr(sorted(row.items())) for row in rows)
    return len(canonical), hashlib.sha1("\n".join(canonical).encode()).hexdigest()


class Reference:
    """Evaluates :class:`Query` objects over ``data`` (table -> rows)."""

    def __init__(self, data: Mapping[str, Sequence[Row]]) -> None:
        self.data = data
        self._groups: dict[tuple[str, str], dict[Any, list[Row]]] = {}
        self._sorted: dict[tuple[str, str], tuple[list[Any], list[Row]]] = {}

    def digest(self, query: Query) -> tuple[int, str]:
        return digest(self.evaluate(query))

    def _group(self, table: str, column: str) -> dict[Any, list[Row]]:
        key = (table, column)
        if key not in self._groups:
            groups: dict[Any, list[Row]] = {}
            for row in self.data[table]:
                groups.setdefault(row[column], []).append(row)
            self._groups[key] = groups
        return self._groups[key]

    def _range(self, table: str, column: str, low: Any, high: Any) -> list[Row]:
        """Rows with ``low <= column <= high`` (either bound may be None)."""
        key = (table, column)
        if key not in self._sorted:
            rows = sorted(self.data[table], key=lambda row: row[column])
            self._sorted[key] = ([row[column] for row in rows], rows)
        values, rows = self._sorted[key]
        start = 0 if low is None else bisect.bisect_left(values, low)
        stop = len(values) if high is None else bisect.bisect_right(values, high)
        return rows[start:stop]

    def _candidates(self, table: str, filters: list) -> list[Row]:
        """A superset of ``table``'s rows passing ``filters``."""
        for _, column, op, value in filters:
            if op == "=":
                return self._group(table, column).get(value, [])
            if op == "between":
                return self._range(table, column, *value)
            if op == "<=":
                return self._range(table, column, None, value)
            if op == ">=":
                return self._range(table, column, value, None)
        return list(self.data[table])

    def evaluate(self, query: Query) -> list[dict]:
        """The expected answer of ``query``."""
        own = {
            table: [f for f in query.filters if f[0] == table]
            for table in query.tables
        }

        def passes(table: str, row: Row) -> bool:
            return all(
                _OPS[op](row[column], value) for _, column, op, value in own[table]
            )

        first, *rest = query.tables
        bindings: list[dict[str, Row]] = [
            {first: row}
            for row in self._candidates(first, own[first])
            if passes(first, row)
        ]
        bound = {first}
        for table in rest:
            conditions = [
                (column, other, other_column)
                for (left, left_column, right, right_column) in query.joins
                for (mine, column, other, other_column) in (
                    (left, left_column, right, right_column),
                    (right, right_column, left, left_column),
                )
                if mine == table and other in bound
            ]
            if not conditions:
                raise ValueError(f"{query.label}: {table} is not joined to {bound}")
            (key_column, key_table, key_other), *others = conditions
            inner = self._group(table, key_column)
            joined = []
            for binding in bindings:
                for row in inner.get(binding[key_table][key_other], ()):
                    if passes(table, row) and all(
                        row[column] == binding[other][other_column]
                        for (column, other, other_column) in others
                    ):
                        joined.append({**binding, table: row})
            bindings = joined
            bound.add(table)
        if query.group_by is not None:
            table, column = query.group_by
            counts = Counter(binding[table][column] for binding in bindings)
            return [{column: key, "n": count} for key, count in counts.items()]
        if query.output is None:
            return [dict(binding[first]) for binding in bindings]
        return [
            {column: binding[table][column] for (table, column) in query.output}
            for binding in bindings
        ]
