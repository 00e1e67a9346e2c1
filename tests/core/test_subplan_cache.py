"""Tests for the cross-candidate subplan cache."""

import pytest

from repro.algebra.builders import scan
from repro.algebra.logical import Join
from repro.core.estimator import CostEstimator, EstimatorOptions
from repro.core.generic import CoefficientSet, standard_repository
from repro.core.rules import rule, scan_pattern
from repro.core.statistics import AttributeStats, CollectionStats, StatisticsCatalog


def make_estimator(cache=True):
    catalog = StatisticsCatalog()
    for name, count in (("R", 1000), ("S", 500)):
        catalog.put(
            CollectionStats.from_extent(
                name,
                count,
                100,
                attributes=[AttributeStats("a", indexed=True, count_distinct=count)],
            )
        )
    return CostEstimator(
        standard_repository(),
        catalog,
        options=EstimatorOptions(cache_subplans=cache),
        coefficients=CoefficientSet(),
    )


class TestCaching:
    def test_disabled_by_default(self):
        catalog = StatisticsCatalog()
        estimator = CostEstimator(standard_repository(), catalog)
        assert estimator.subplan_cache is None

    def test_shared_subplan_costs_once(self):
        estimator = make_estimator(cache=True)
        access = scan("R").where_eq("a", 5).submit_to("w").build()
        # Two candidate plans sharing the same access subplan object.
        plan_a = access
        plan_b = (
            scan("S").submit_to("w").join(access, "a", "a").build()
        )
        estimator.estimate(plan_a)
        first_formulas = estimator.last_counters.formulas_evaluated
        estimator.estimate(plan_b)
        second_formulas = estimator.last_counters.formulas_evaluated
        # The shared subtree was served from the cache: costing the bigger
        # plan evaluated barely more formulas than the join itself needs.
        assert second_formulas < first_formulas + 25

    def test_same_plan_reestimated_free(self):
        estimator = make_estimator(cache=True)
        plan = scan("R").where_eq("a", 5).submit_to("w").build()
        first = estimator.estimate(plan).total_time
        count_before = estimator.last_counters.formulas_evaluated
        second = estimator.estimate(plan).total_time
        assert second == first
        assert estimator.last_counters.formulas_evaluated == 0
        assert count_before > 0

    def test_cached_values_match_uncached(self):
        plan = scan("R").where_eq("a", 5).submit_to("w").build()
        cached = make_estimator(cache=True)
        uncached = make_estimator(cache=False)
        assert cached.estimate(plan).total_time == pytest.approx(
            uncached.estimate(plan).total_time
        )

    def test_invalidate_cache_picks_up_new_rules(self):
        estimator = make_estimator(cache=True)
        plan = scan("R").submit_to("w").build()
        before = estimator.estimate(plan).total_time
        estimator.repository.add_wrapper_rule(
            "w", rule(scan_pattern("R"), ["TotalTime = 1"])
        )
        # Stale until invalidated.
        assert estimator.estimate(plan).total_time == before
        estimator.invalidate_cache()
        after = estimator.estimate(plan).total_time
        assert after < before

    def test_pruning_honoured_on_cache_hits(self):
        estimator = make_estimator(cache=True)
        plan = scan("R").submit_to("w").build()
        estimator.estimate(plan)  # warm the cache
        pruned = estimator.estimate(plan, bound_ms=1.0)
        assert pruned.pruned

    def test_registration_invalidates(self):
        from repro.mediator.mediator import Mediator
        from tests.federation_fixtures import build_oo7_wrapper

        mediator = Mediator(
            estimator_options=EstimatorOptions(cache_subplans=True)
        )
        mediator.register(build_oo7_wrapper(export_rules=False))
        sql = "SELECT * FROM AtomicParts WHERE Id = 7"
        before = mediator.plan(sql).estimated_total_ms
        mediator.register(build_oo7_wrapper(export_rules=True))
        after = mediator.plan(sql).estimated_total_ms
        assert after != before  # new rules visible despite the cache


def ad_hoc_query(index: int) -> str:
    """Query ``index`` of a stream of distinct ad-hoc queries (five
    shapes, literals drawn from the index)."""
    shapes = (
        f"SELECT * FROM AtomicParts WHERE Id = {index}",
        f"SELECT oid, supplier, qty FROM Orders WHERE oid = {100 + index}",
        "SELECT Orders.oid, Suppliers.partType FROM Orders, Suppliers "
        "WHERE Orders.supplier = Suppliers.sid "
        f"AND Orders.oid BETWEEN {10 * index} AND {10 * index + 50}",
        "SELECT Orders.oid, Tickets.tid FROM Orders, Suppliers, Tickets "
        "WHERE Orders.supplier = Suppliers.sid AND Tickets.supplier = Suppliers.sid "
        f"AND Orders.qty < {20 + index}",
        "SELECT AtomicParts.Id, Suppliers.sid FROM AtomicParts, Suppliers "
        "WHERE AtomicParts.type = Suppliers.partType "
        f"AND AtomicParts.Id BETWEEN {index} AND {index + 10}",
    )
    return shapes[index % len(shapes)]


class TestBoundedAcrossQueries:
    """Entries are keyed on node ids, which never recur across queries;
    the cache must not keep earlier queries' entries (and plan trees)."""

    @staticmethod
    def cached_federation():
        from repro.bench.federation import build_engines, build_mediator
        from repro.oo7 import TINY

        mediator = build_mediator("blended", build_engines(TINY))
        mediator.estimator.options.cache_subplans = True
        mediator.estimator.subplan_cache = {}
        return mediator

    def test_cache_holds_one_query_of_entries(self):
        mediator = self.cached_federation()
        sizes = []
        for index in range(50):
            mediator.query(ad_hoc_query(index))
            sizes.append(len(mediator.estimator.subplan_cache))
        alone = []
        for index in range(5):
            fresh = self.cached_federation()
            fresh.query(ad_hoc_query(index))
            alone.append(len(fresh.estimator.subplan_cache))
        assert min(alone) > 0
        assert max(sizes) <= max(alone)
        # The last query's entries and nothing older.
        assert sizes[-1] == alone[49 % 5]
