"""Seeded query generators for the three workloads.

Each template draws its literals from the seeded generator and returns a
:class:`~reference.Query` whose SQL text is rendered from the same
structure the reference evaluator reads, so the two cannot disagree on
what was asked.  Templates are used in a fixed round-robin order and
only the literals are random: every seed gets the same mix of query
shapes, which keeps medians and tails comparable across seeds.

Projections never repeat a bare column name: the mediator names output
columns by their bare names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from reference import Query


@dataclass(frozen=True)
class Domains:
    """Value ranges the templates draw literals from."""

    atomic_ids: int  # AtomicParts.Id is 0 .. atomic_ids - 1
    composite_ids: int  # CompositeParts.Id is 0 .. composite_ids - 1
    tag_ids: Sequence[int] = ()  # Tags.partId values (real-fed only)


def _literal(value: Any) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


def make_query(
    label: str,
    tables: Sequence[str],
    filters: Sequence[tuple[str, str, str, Any]] = (),
    joins: Sequence[tuple[str, str, str, str]] = (),
    output: Sequence[tuple[str, str]] | None = None,
    group_by: tuple[str, str] | None = None,
    from_order: Sequence[str] | None = None,
) -> Query:
    """Render SQL for a query structure (``from_order`` = FROM list
    order when it differs from the reference join order)."""
    qualified = len(tables) > 1

    def name(table: str, column: str) -> str:
        return f"{table}.{column}" if qualified else column

    if group_by is not None:
        select = f"{name(*group_by)}, COUNT(*) AS n"
    elif output is None:
        select = "*"
    else:
        select = ", ".join(name(table, column) for table, column in output)
    conditions = [f"{name(a, x)} = {name(b, y)}" for a, x, b, y in joins]
    for table, column, op, value in filters:
        if op == "between":
            low, high = value
            conditions.append(f"{name(table, column)} BETWEEN {low} AND {high}")
        else:
            conditions.append(f"{name(table, column)} {op} {_literal(value)}")
    sql = f"SELECT {select} FROM {', '.join(from_order or tables)}"
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    if group_by is not None:
        sql += f" GROUP BY {name(*group_by)}"
    return Query(
        label=label,
        sql=sql,
        tables=tuple(tables),
        filters=tuple(filters),
        joins=tuple(joins),
        output=tuple(output) if output is not None else None,
        group_by=group_by,
    )


Template = Callable[[random.Random, Domains], Query]


def _span(rng: random.Random, size: int, low: int, high: int) -> tuple[int, int]:
    width = rng.randint(low, high)
    start = rng.randrange(0, max(1, size - width))
    return start, start + width


# -- the 4-source blended federation (plan-mix, serve-churn) -------------------
#
# oo7 {AtomicParts, CompositeParts}, sales {Suppliers 200, Orders 5000},
# api {Tickets 400}, files {AuditLog 6000}.  Supplier ids are 0..199.


def atomic_point(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "atomic-point",
        ["AtomicParts"],
        [("AtomicParts", "Id", "=", rng.randrange(d.atomic_ids))],
    )


def order_point(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "order-point",
        ["Orders"],
        [("Orders", "oid", "=", rng.randrange(5000))],
        output=[("Orders", "oid"), ("Orders", "supplier"), ("Orders", "qty")],
    )


def atomic_range(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "atomic-range",
        ["AtomicParts"],
        [("AtomicParts", "Id", "between", _span(rng, d.atomic_ids, 5, 40))],
        output=[("AtomicParts", "Id"), ("AtomicParts", "type"), ("AtomicParts", "buildDate")],
    )


def atomic_suppliers(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "atomic-suppliers",
        ["AtomicParts", "Suppliers"],
        [
            ("Suppliers", "city", "=", f"city{rng.randrange(5)}"),
            ("AtomicParts", "Id", "between", _span(rng, d.atomic_ids, 8, 14)),
        ],
        joins=[("AtomicParts", "type", "Suppliers", "partType")],
        output=[("AtomicParts", "Id"), ("Suppliers", "sid")],
    )


def orders_suppliers(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "orders-suppliers",
        ["Orders", "Suppliers"],
        [
            ("Orders", "oid", "between", _span(rng, 5000, 40, 60)),
            ("Suppliers", "city", "=", f"city{rng.randrange(5)}"),
        ],
        joins=[("Orders", "supplier", "Suppliers", "sid")],
        output=[("Orders", "oid"), ("Suppliers", "partType")],
    )


def audit_suppliers(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "audit-suppliers",
        ["Suppliers", "AuditLog"],
        [
            ("AuditLog", "severity", "=", rng.randrange(4)),
            ("Suppliers", "sid", "between", _span(rng, 200, 3, 15)),
        ],
        joins=[("AuditLog", "supplier", "Suppliers", "sid")],
        output=[("AuditLog", "entry"), ("Suppliers", "partType")],
        from_order=["AuditLog", "Suppliers"],
    )


def tickets_suppliers(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "tickets-suppliers",
        ["Suppliers", "Tickets"],
        [
            ("Tickets", "status", "=", rng.choice(("open", "closed"))),
            ("Suppliers", "sid", "between", _span(rng, 200, 20, 40)),
        ],
        joins=[("Tickets", "supplier", "Suppliers", "sid")],
        output=[("Tickets", "tid"), ("Suppliers", "city")],
        from_order=["Tickets", "Suppliers"],
    )


def three_way(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "three-way",
        ["Suppliers", "Orders", "Tickets"],
        [
            ("Tickets", "status", "=", "closed"),
            ("Orders", "qty", "<", rng.randint(20, 100)),
            ("Suppliers", "sid", "between", _span(rng, 200, 5, 30)),
        ],
        joins=[
            ("Orders", "supplier", "Suppliers", "sid"),
            ("Tickets", "supplier", "Suppliers", "sid"),
        ],
        output=[("Orders", "oid"), ("Tickets", "tid")],
        from_order=["Orders", "Suppliers", "Tickets"],
    )


def four_way(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "four-way",
        ["AtomicParts", "Suppliers", "Orders", "Tickets"],
        [
            ("AtomicParts", "Id", "between", _span(rng, d.atomic_ids, 3, 4)),
            ("Suppliers", "sid", "between", _span(rng, 200, 20, 25)),
            ("Orders", "qty", "<", rng.randint(150, 200)),
            ("Tickets", "status", "=", rng.choice(("open", "closed"))),
        ],
        joins=[
            ("AtomicParts", "type", "Suppliers", "partType"),
            ("Orders", "supplier", "Suppliers", "sid"),
            ("Tickets", "supplier", "Suppliers", "sid"),
        ],
        output=[("AtomicParts", "Id"), ("Orders", "oid"), ("Tickets", "tid")],
        from_order=["Orders", "Suppliers", "Tickets", "AtomicParts"],
    )


def composite_atomic(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "composite-atomic",
        ["CompositeParts", "AtomicParts"],
        [("CompositeParts", "Id", "between", _span(rng, d.composite_ids, 2, 10))],
        joins=[("CompositeParts", "rootPart", "AtomicParts", "Id")],
        output=[("CompositeParts", "docId"), ("AtomicParts", "x")],
    )


#: plan-mix: every join shape once per cycle.  The single-source
#: lookups (~2 ms) are the lowest third and the 7 ms two-way joins the
#: middle third, so the median sits in the middle of one tight cluster
#: rather than on the edge between two; the four-way join (1/12) holds
#: the p99.
PLAN_MIX: tuple[Template, ...] = (
    atomic_point,
    atomic_suppliers,
    order_point,
    orders_suppliers,
    atomic_range,
    tickets_suppliers,
    atomic_point,
    atomic_suppliers,
    three_way,
    audit_suppliers,
    composite_atomic,
    four_way,
)

#: serve-churn analytics: the ad-hoc joins only.
ANALYTICS: tuple[Template, ...] = (
    atomic_suppliers,
    orders_suppliers,
    three_way,
    audit_suppliers,
    tickets_suppliers,
    four_way,
    composite_atomic,
)

#: serve-churn dashboards: the cheap single-source reads.
DASHBOARDS: tuple[Template, ...] = (atomic_point, order_point, atomic_range)


# -- the real federation (real-fed) ---------------------------------------------
#
# sqlite {AtomicParts, Connections} (oo7), web {Tags}.


def real_point(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "sqlite-point",
        ["AtomicParts"],
        [("AtomicParts", "Id", "=", rng.randrange(d.atomic_ids))],
    )


def real_range(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "sqlite-range",
        ["AtomicParts"],
        [("AtomicParts", "Id", "between", _span(rng, d.atomic_ids, 20, 60))],
        output=[("AtomicParts", "Id"), ("AtomicParts", "type")],
    )


def real_connections(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "sqlite-connections",
        ["Connections"],
        [("Connections", "fromId", "between", _span(rng, d.atomic_ids, 10, 30))],
        output=[("Connections", "fromId"), ("Connections", "toId")],
    )


def fig12_select(rng: random.Random, d: Domains) -> Query:
    """The Fig. 12 shape: an index-scan select over AtomicParts at a
    seeded selectivity (1-5 %)."""
    width = int(d.atomic_ids * rng.uniform(0.01, 0.05))
    return make_query(
        "fig12-select",
        ["AtomicParts"],
        [("AtomicParts", "Id", "between", _span(rng, d.atomic_ids, width, width))],
    )


def pushed_group(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "sqlite-group",
        ["AtomicParts"],
        [("AtomicParts", "Id", "between", _span(rng, d.atomic_ids, 480, 520))],
        group_by=("AtomicParts", "type"),
    )


def shipped_join(rng: random.Random, d: Domains) -> Query:
    """Joins stay at the mediator: both inputs are shipped from SQLite."""
    return make_query(
        "sqlite-join",
        ["AtomicParts", "Connections"],
        [("AtomicParts", "Id", "between", _span(rng, d.atomic_ids, 40, 100))],
        joins=[("AtomicParts", "Id", "Connections", "fromId")],
        output=[("AtomicParts", "Id"), ("Connections", "toId")],
    )


def web_point(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "web-point",
        ["Tags"],
        [("Tags", "partId", "=", rng.choice(d.tag_ids))],
        output=[("Tags", "partId"), ("Tags", "tag")],
    )


def web_join(rng: random.Random, d: Domains) -> Query:
    return make_query(
        "web-join",
        ["AtomicParts", "Tags"],
        [("AtomicParts", "Id", "between", _span(rng, d.atomic_ids, 50, 150))],
        joins=[("AtomicParts", "Id", "Tags", "partId")],
        output=[("AtomicParts", "Id"), ("Tags", "tag")],
    )


#: real-fed: the ~2-3 ms lookups and selects fill the lower 7/12, so
#: the latency median sits in the middle of the range lookups; the
#: q-error median sits in the middle of the GROUP BY class (2/12, its
#: width held near 500 rows so its q-error is tight); the shipped join
#: (1/12) holds the p99.
REAL_FED: tuple[Template, ...] = (
    real_point,
    fig12_select,
    real_range,
    pushed_group,
    real_connections,
    shipped_join,
    real_point,
    fig12_select,
    real_range,
    web_point,
    pushed_group,
    web_join,
)


def stream(
    templates: Sequence[Template],
    rng: random.Random,
    domains: Domains,
    count: int,
    seen: set[str] | None = None,
) -> list[Query]:
    """``count`` queries cycling through ``templates``; a literal draw
    whose SQL text was already generated (in ``seen``) is redrawn, so
    every text in the stream is new."""
    seen = set() if seen is None else seen
    queries = []
    for index in range(count):
        template = templates[index % len(templates)]
        for _ in range(1000):
            query = template(rng, domains)
            if query.sql not in seen:
                break
        else:
            raise ValueError(f"template {template.__name__} ran out of literals")
        seen.add(query.sql)
        queries.append(query)
    return queries
