"""Work-counter gate for rule dispatch (no wall time).

One query per plan-mix template shape runs on the TINY blended
federation; ``CostRule.match`` calls are counted by patching the class
in the test, so the program carries no counter of its own.  The chosen
plans and their estimates must equal those of a mediator whose
repository scans linearly (``use_dispatch_index=False``).
"""

from __future__ import annotations

import pytest

from repro.algebra.logical import PlanNode
from repro.bench.federation import build_engines, build_mediator
from repro.core.rules import CostRule
from repro.oo7 import TINY

#: One query per plan-mix template shape (literals fixed, TINY ranges).
PLAN_MIX_SHAPES = (
    # atomic-point
    "SELECT * FROM AtomicParts WHERE Id = 17",
    # atomic-suppliers
    "SELECT AtomicParts.Id, Suppliers.sid FROM AtomicParts, Suppliers "
    "WHERE AtomicParts.type = Suppliers.partType AND Suppliers.city = 'city2' "
    "AND AtomicParts.Id BETWEEN 40 AND 52",
    # order-point
    "SELECT oid, supplier, qty FROM Orders WHERE oid = 1234",
    # orders-suppliers
    "SELECT Orders.oid, Suppliers.partType FROM Orders, Suppliers "
    "WHERE Orders.supplier = Suppliers.sid AND Orders.oid BETWEEN 300 AND 350 "
    "AND Suppliers.city = 'city4'",
    # atomic-range
    "SELECT Id, type, buildDate FROM AtomicParts WHERE Id BETWEEN 10 AND 35",
    # tickets-suppliers
    "SELECT Tickets.tid, Suppliers.city FROM Tickets, Suppliers "
    "WHERE Tickets.supplier = Suppliers.sid AND Tickets.status = 'open' "
    "AND Suppliers.sid BETWEEN 20 AND 50",
    # three-way
    "SELECT Orders.oid, Tickets.tid FROM Orders, Suppliers, Tickets "
    "WHERE Orders.supplier = Suppliers.sid AND Tickets.supplier = Suppliers.sid "
    "AND Tickets.status = 'closed' AND Orders.qty < 60 "
    "AND Suppliers.sid BETWEEN 5 AND 25",
    # audit-suppliers
    "SELECT AuditLog.entry, Suppliers.partType FROM AuditLog, Suppliers "
    "WHERE AuditLog.supplier = Suppliers.sid AND AuditLog.severity = 2 "
    "AND Suppliers.sid BETWEEN 30 AND 40",
    # composite-atomic
    "SELECT CompositeParts.docId, AtomicParts.x FROM CompositeParts, AtomicParts "
    "WHERE CompositeParts.rootPart = AtomicParts.Id "
    "AND CompositeParts.Id BETWEEN 3 AND 9",
    # four-way
    "SELECT AtomicParts.Id, Orders.oid, Tickets.tid "
    "FROM Orders, Suppliers, Tickets, AtomicParts "
    "WHERE AtomicParts.type = Suppliers.partType "
    "AND Orders.supplier = Suppliers.sid AND Tickets.supplier = Suppliers.sid "
    "AND AtomicParts.Id BETWEEN 100 AND 103 AND Suppliers.sid BETWEEN 50 AND 72 "
    "AND Orders.qty < 180 AND Tickets.status = 'open'",
)

#: ``CostRule.match`` calls for the shapes above with the earlier
#: (source, operator) dispatch index and no per-optimize memo.
MATCH_CALLS_BEFORE = 5414


def federation(indexed: bool = True):
    mediator = build_mediator("blended", build_engines(TINY))
    mediator.repository.use_dispatch_index = indexed
    return mediator


def count_matches(monkeypatch, mediator) -> int:
    calls = 0
    original = CostRule.match

    def counted(self, node):
        nonlocal calls
        calls += 1
        return original(self, node)

    monkeypatch.setattr(CostRule, "match", counted)
    try:
        for sql in PLAN_MIX_SHAPES:
            mediator.query(sql)
    finally:
        monkeypatch.setattr(CostRule, "match", original)
    return calls


def shape(plan: PlanNode) -> tuple:
    return (plan.describe(), tuple(shape(child) for child in plan.children))


def test_match_calls_cut_five_fold(monkeypatch):
    calls = count_matches(monkeypatch, federation())
    assert 0 < calls <= MATCH_CALLS_BEFORE // 5


@pytest.mark.parametrize("sql", PLAN_MIX_SHAPES)
def test_plans_equal_linear_scan(sql):
    indexed = federation(indexed=True).plan(sql)
    linear = federation(indexed=False).plan(sql)
    assert shape(indexed.plan) == shape(linear.plan)
    assert indexed.estimate.total_time == linear.estimate.total_time
    assert indexed.stats == linear.stats
