"""The mediator query optimizer (§2.2).

"From a declarative query, the mediator can generate multiple access plans
involving local operations at the data source level and global ones at the
mediator level.  The plans can differ widely in execution time."

The optimizer enumerates, System-R style over a :class:`QuerySpec`:

* **access plans** per collection — filters pushed into the wrapper when
  its capabilities allow, applied mediator-side otherwise;
* **join orders** — dynamic programming over collection subsets (bushy),
  falling back to a greedy chain beyond ``max_exhaustive_collections``;
* **join placement** — cross-wrapper joins run at the mediator; a subset
  served by a single join-capable wrapper may instead be pushed down as
  one subquery (one Submit);
* **decorations** — grouping, distinct, ordering and projection above the
  join tree (pushed into the wrapper for single-collection queries when
  capable, both variants costed).

Every candidate is costed by the blended estimator; with
``use_pruning=True`` the §4.3.2 branch-and-bound extension aborts the
estimation of any candidate as soon as a partial cost exceeds the best
complete plan so far.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.algebra.expressions import (
    AttributeRef,
    Comparison,
    Literal,
    Predicate,
    conjunction,
)
from repro.algebra.logical import (
    Aggregate,
    BindJoin,
    Distinct,
    Join,
    PlanNode,
    Project,
    Scan,
    Scatter,
    Select,
    Sort,
    Submit,
    clone_plan,
)
from repro.algebra.logical import Union
from repro.core.estimator import CostEstimator, PlanEstimate
from repro.core.scopes import MatchMemo
from repro.errors import QueryError
from repro.mediator.catalog import MediatorCatalog, PartitionScheme
from repro.mediator.queryspec import QuerySpec, UnionSpec
from repro.obs.hotpath import NULL_HOTPATH, HotpathProfiler
from repro.obs.trace import NULL_TRACER, SpanTracer


@dataclass
class OptimizerOptions:
    """Knobs for the enumeration (ablation points of DESIGN.md).

    ``objective`` selects which §2.3 time form the optimizer minimizes:
    ``"total_time"`` (throughput, the default) or ``"time_first"``
    (first-tuple response time — interactive clients).  Branch-and-bound
    pruning only applies to the total-time objective, since partial
    TotalTime sums do not bound TimeFirst.
    """

    use_pruning: bool = True
    push_joins_to_wrappers: bool = True
    push_filters: bool = True
    #: Consider dependent (bind) joins: probe an indexed inner collection
    #: with the outer side's join keys instead of shipping it whole.
    use_bind_join: bool = True
    bind_join_batch_size: int = 50
    max_exhaustive_collections: int = 7
    objective: str = "total_time"
    #: Cost plans for a concurrently-dispatching executor: ``True``/``False``
    #: forces the estimator's parallel-aware TotalTime combinator on/off
    #: (see ``EstimatorOptions.parallel_submits``); ``None`` leaves the
    #: estimator's own setting alone.  With the combinator on, the
    #: enumerator's candidates whose submits overlap genuinely cost less,
    #: so the optimizer prefers them.
    parallel_submits: "bool | None" = None
    max_concurrency: "int | None" = None

    def __post_init__(self) -> None:
        if self.objective not in ("total_time", "time_first"):
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass
class OptimizerStats:
    """Work counters for the overhead experiments."""

    candidates_considered: int = 0
    candidates_pruned: int = 0
    variables_computed: int = 0
    formulas_evaluated: int = 0


@dataclass
class OptimizationResult:
    """The chosen plan with its estimate and enumeration statistics."""

    plan: PlanNode
    estimate: PlanEstimate
    stats: OptimizerStats = field(default_factory=OptimizerStats)

    @property
    def estimated_total_ms(self) -> float:
        return self.estimate.total_time


@dataclass
class _Planning:
    """State of one ``optimize`` call, handed to every costing in it.

    ``matches`` memoizes rule resolution: the enumeration shares subplan
    objects across candidates, so most (node, variable) lookups repeat.
    It lives here rather than on the shared estimator or repository
    because concurrent tenants optimize on their own threads.
    """

    matches: MatchMemo
    stats: OptimizerStats = field(default_factory=OptimizerStats)


@dataclass
class _Candidate:
    plan: PlanNode
    estimate: PlanEstimate
    cost: float = 0.0


class Optimizer:
    """Cost-based plan selection for one mediator."""

    def __init__(
        self,
        catalog: MediatorCatalog,
        estimator: CostEstimator,
        options: OptimizerOptions | None = None,
    ) -> None:
        self.catalog = catalog
        self.estimator = estimator
        self.options = options or OptimizerOptions()
        #: Telemetry sink; defaults to the shared no-op tracer.
        self.tracer: SpanTracer = NULL_TRACER
        #: Wall-clock phase timers; defaults to the shared no-op profiler.
        self.hotpath: HotpathProfiler = NULL_HOTPATH
        #: Scheduler-fed health view: a callable returning the wrapper
        #: names whose circuit breakers are currently not closed.  The
        #: mediator wires in ``scheduler.open_breaker_wrappers``; replica
        #: binding excludes those members at costing time.
        self.health_view: Callable[[], Iterable[str]] | None = None
        if self.options.parallel_submits is not None:
            estimator.options.parallel_submits = self.options.parallel_submits
            estimator.options.max_concurrency = self.options.max_concurrency

    # -- public entry point ---------------------------------------------------

    def optimize(self, spec: QuerySpec | UnionSpec) -> OptimizationResult:
        """Choose the cheapest complete plan for a query."""
        # Subplan-cache entries are keyed on node ids, and a new query
        # builds new nodes: older entries could never hit again.
        self.estimator.invalidate_cache()
        result = self._optimize_any(spec, {})
        if not self.catalog.has_replicas():
            # No replica sets: the chosen plan and estimate pass through
            # untouched — the replica layer is entirely inert.
            return result
        return self._bind_replicas(result)

    def _optimize_any(
        self, spec: QuerySpec | UnionSpec, matches: MatchMemo
    ) -> OptimizationResult:
        if isinstance(spec, UnionSpec):
            return self._optimize_union(spec, matches)
        run = _Planning(matches)
        join_plan = self._best_join_plan(spec, run)
        candidates = self._decorated_candidates(spec, join_plan, run)
        best = min(candidates, key=lambda c: c.cost)
        return OptimizationResult(
            plan=best.plan, estimate=best.estimate, stats=run.stats
        )

    def _optimize_union(self, spec: UnionSpec, matches: MatchMemo) -> OptimizationResult:
        """Optimize each branch independently, then combine (§2.2's union
        operator runs at the mediator)."""
        run = _Planning(matches)
        stats = run.stats
        branch_results = [
            self._optimize_any(branch, matches) for branch in spec.branches
        ]
        plan: PlanNode = branch_results[0].plan
        for result in branch_results[1:]:
            plan = Union(plan, result.plan)
        if spec.distinct:
            plan = Distinct(plan)
        for result in branch_results:
            stats.candidates_considered += result.stats.candidates_considered
            stats.candidates_pruned += result.stats.candidates_pruned
            stats.variables_computed += result.stats.variables_computed
            stats.formulas_evaluated += result.stats.formulas_evaluated
        candidate = self._cost(plan, run, None)
        assert candidate is not None
        return OptimizationResult(
            plan=candidate.plan, estimate=candidate.estimate, stats=stats
        )

    # -- replica binding ----------------------------------------------------------

    def _healthy_members(self, members: Sequence[str]) -> list[str]:
        """Members whose breaker is closed; all of them when every member
        is open (runtime failover and partial mode then take over)."""
        open_wrappers = (
            set(self.health_view()) if self.health_view is not None else set()
        )
        healthy = [m for m in members if m not in open_wrappers]
        return healthy if healthy else list(members)

    def _price_replica(self, submit: Submit, member: str) -> float:
        """Estimated TotalTime of the submit's subtree served by one
        replica member.  The subtree is cloned with fresh node ids: the
        estimator's subplan cache keys on (node_id, variable) and cached
        values depend on the owning source, so re-pricing a shared
        subtree under a different wrapper would poison the cache."""
        clone = Submit(
            clone_plan(submit.child),
            member,
            shard=submit.shard,
            shard_of=submit.shard_of,
        )
        return self.estimator.estimate(clone).total_time

    def rank_replicas(
        self, submit: Submit, candidates: tuple[str, ...]
    ) -> list[str]:
        """Candidates ordered cheapest-first by estimated TotalTime (the
        scheduler's failover/hedge ranker; stable on ties)."""
        priced = []
        for index, member in enumerate(candidates):
            try:
                cost = self._price_replica(submit, member)
            except Exception:
                cost = float("inf")
            priced.append((cost, index, member))
        priced.sort()
        return [member for _, _, member in priced]

    def _bind_replicas(self, result: OptimizationResult) -> OptimizationResult:
        """Re-target each Submit of a replicated source at the cheapest
        healthy member, tagging the choice in the estimate's provenance.

        Submits of unreplicated sources — and the plan/estimate objects
        themselves when nothing rebinds — pass through untouched.
        """
        catalog = self.catalog
        rebound: dict[int, Submit] = {}
        for node in result.plan.walk():
            if not isinstance(node, Submit):
                continue
            members = catalog.replica_members(node.wrapper)
            if len(members) == 1:
                continue
            best_name: str | None = None
            best_cost = float("inf")
            for member in self._healthy_members(members):
                try:
                    cost = self._price_replica(node, member)
                except Exception:
                    continue
                if cost < best_cost:
                    best_cost, best_name = cost, member
            if best_name is not None and best_name != node.wrapper:
                rebound[node.node_id] = Submit(
                    clone_plan(node.child),
                    best_name,
                    shard=node.shard,
                    shard_of=node.shard_of,
                )
                if self.tracer.enabled:
                    self.tracer.event(
                        "replica.bound",
                        kind="replica",
                        wrapper=node.wrapper,
                        replica=best_name,
                        cost_ms=best_cost,
                    )
        estimate = result.estimate
        plan = result.plan
        if rebound:
            plan = self._replace_submits(plan, rebound)
            variables: tuple[str, ...] = ("TotalTime", "CountObject", "TotalSize")
            if self.options.objective == "time_first":
                variables = ("TimeFirst",) + variables
            estimate = self.estimator.estimate(plan, variables=variables)
        self._tag_replica_provenance(plan, estimate)
        if not rebound:
            return result
        return OptimizationResult(plan=plan, estimate=estimate, stats=result.stats)

    def _tag_replica_provenance(self, plan: PlanNode, estimate) -> None:
        """Append ``| replica <name>`` to the TotalTime provenance of
        every Submit bound against a replicated source — the EXPLAIN
        trail of which member the optimizer chose."""
        for node in plan.walk():
            if not isinstance(node, Submit):
                continue
            if len(self.catalog.replica_members(node.wrapper)) == 1:
                continue
            node_estimate = estimate.nodes.get(node.node_id)
            if node_estimate is None:
                continue
            provenance = node_estimate.provenance.get("TotalTime")
            if provenance is None or " | replica " in provenance:
                continue
            node_estimate.provenance["TotalTime"] = (
                f"{provenance} | replica {node.wrapper}"
            )

    def _replace_submits(
        self, node: PlanNode, rebound: dict[int, Submit]
    ) -> PlanNode:
        """Rebuild the plan spine over rebound submits, sharing every
        untouched subtree (their node ids keep their cached estimates)."""
        if isinstance(node, Submit):
            return rebound.get(node.node_id, node)
        if isinstance(node, Select):
            child = self._replace_submits(node.child, rebound)
            return node if child is node.child else Select(child, node.predicate)
        if isinstance(node, Project):
            child = self._replace_submits(node.child, rebound)
            if child is node.child:
                return node
            return Project(child, node.attributes, node.renames)
        if isinstance(node, Sort):
            child = self._replace_submits(node.child, rebound)
            return node if child is node.child else Sort(child, node.keys, node.descending)
        if isinstance(node, Distinct):
            child = self._replace_submits(node.child, rebound)
            return node if child is node.child else Distinct(child)
        if isinstance(node, Aggregate):
            child = self._replace_submits(node.child, rebound)
            if child is node.child:
                return node
            return Aggregate(child, node.group_by, node.aggregates)
        if isinstance(node, Join):
            left = self._replace_submits(node.left, rebound)
            right = self._replace_submits(node.right, rebound)
            if left is node.left and right is node.right:
                return node
            return Join(left, right, node.predicate)
        if isinstance(node, BindJoin):
            outer = self._replace_submits(node.outer, rebound)
            if outer is node.outer:
                return node
            return BindJoin(
                outer,
                node.outer_attribute,
                node.inner_collection,
                node.inner_attribute,
                node.wrapper,
                node.inner_filters,
                node.batch_size,
            )
        if isinstance(node, Union):
            left = self._replace_submits(node.left, rebound)
            right = self._replace_submits(node.right, rebound)
            if left is node.left and right is node.right:
                return node
            return Union(left, right)
        if isinstance(node, Scatter):
            branches = [
                self._replace_submits(branch, rebound) for branch in node.branches
            ]
            if all(new is old for new, old in zip(branches, node.branches)):
                return node
            return Scatter(
                branches,  # type: ignore[arg-type]
                node.collection,
                node.shard_key,
                node.total_shards,
            )
        return node

    # -- costing helper ----------------------------------------------------------

    def _cost(
        self, plan: PlanNode, run: _Planning, bound: float | None
    ) -> _Candidate | None:
        """Estimate one candidate; None when pruned by the §4.3.2 bound."""
        hotpath = self.hotpath
        if hotpath.enabled:
            with hotpath.phase("candidate"):
                return self._cost_traced(plan, run, bound)
        return self._cost_traced(plan, run, bound)

    def _cost_traced(
        self, plan: PlanNode, run: _Planning, bound: float | None
    ) -> _Candidate | None:
        tracer = self.tracer
        if not tracer.enabled:
            return self._cost_inner(plan, run, bound)
        with tracer.span(
            f"candidate:{plan.operator_name}",
            kind="candidate",
            plan=plan.describe(),
            bound_ms=bound,
        ) as span:
            candidate = self._cost_inner(plan, run, bound)
            span.set(
                pruned=candidate is None,
                cost_ms=candidate.cost if candidate is not None else None,
            )
        return candidate

    def _cost_inner(
        self, plan: PlanNode, run: _Planning, bound: float | None
    ) -> _Candidate | None:
        stats = run.stats
        stats.candidates_considered += 1
        first_tuple = self.options.objective == "time_first"
        bound_ms = bound if self.options.use_pruning and not first_tuple else None
        variables = ("TotalTime", "CountObject", "TotalSize")
        if first_tuple:
            variables = ("TimeFirst",) + variables
        estimate = self.estimator.estimate(
            plan, bound_ms=bound_ms, variables=variables, match_memo=run.matches
        )
        stats.variables_computed += self.estimator.last_counters.variables_computed
        stats.formulas_evaluated += self.estimator.last_counters.formulas_evaluated
        if estimate.pruned:
            stats.candidates_pruned += 1
            return None
        cost_value = (
            float(estimate.root.values["TimeFirst"])
            if first_tuple
            else estimate.total_time
        )
        return _Candidate(plan=plan, estimate=estimate, cost=cost_value)

    # -- access plans ------------------------------------------------------------------

    def _access_plan(self, spec: QuerySpec, collection: str) -> PlanNode:
        """Scan + filters for one collection, submitted to its wrapper.

        Filters go inside the Submit when the wrapper supports selection
        (and ``push_filters`` is on), above it otherwise.  Partitioned
        collections fan out to their shards instead.
        """
        if self.catalog.is_partitioned(collection):
            return self._scatter_access_plan(spec, collection)
        wrapper = self.catalog.wrapper_of(collection)
        filters = spec.filters_for(collection)
        inner: PlanNode = Scan(collection)
        outer_filters: list[Predicate] = []
        if filters:
            if self.options.push_filters and "select" in wrapper.capabilities:
                inner = Select(inner, conjunction(list(filters)))
            else:
                outer_filters = list(filters)
        plan: PlanNode = Submit(inner, wrapper.name)
        if outer_filters:
            plan = Select(plan, conjunction(outer_filters))
        return plan

    def _scatter_access_plan(self, spec: QuerySpec, collection: str) -> PlanNode:
        """Scatter the per-collection subquery over the shards that can
        hold matching rows.

        Shard pruning: an equality predicate on the shard key routes to
        the owning shard; under range partitioning, range predicates keep
        only overlapping shards.  Filters push into each branch's Submit
        when that shard's wrapper supports selection; if any branch
        cannot push, the full conjunction is (re-)applied mediator-side
        above the scatter — selections are idempotent, so pushed
        branches stay correct.
        """
        scheme = self.catalog.partition(collection)
        filters = list(spec.filters_for(collection))
        indices = self._pruned_shards(scheme, filters)
        branches: list[Submit] = []
        needs_outer = False
        for index in indices:
            shard = scheme.shards[index]
            wrapper = self.catalog.wrapper(shard.wrapper)
            inner: PlanNode = Scan(shard.collection)
            if filters:
                if self.options.push_filters and "select" in wrapper.capabilities:
                    inner = Select(inner, conjunction(filters))
                else:
                    needs_outer = True
            branches.append(
                Submit(inner, wrapper.name, shard=index, shard_of=collection)
            )
        plan: PlanNode = Scatter(
            branches, collection, scheme.shard_key, len(scheme.shards)
        )
        if filters and needs_outer:
            plan = Select(plan, conjunction(filters))
        return plan

    def _pruned_shards(
        self, scheme: PartitionScheme, filters: list[Predicate]
    ) -> tuple[int, ...]:
        """Shard indices that can hold rows satisfying the filters.

        Only top-level conjuncts comparing the shard key to a literal
        prune (a disjunct might match any shard).  Contradictory
        predicates leave one arbitrary shard — its branch then filters
        every row out, which keeps the plan well-formed.
        """
        keep = set(range(len(scheme.shards)))
        for predicate in filters:
            for conjunct in predicate.conjuncts():
                if not isinstance(conjunct, Comparison):
                    continue
                comparison = conjunct.normalized()
                if not comparison.is_attr_value:
                    continue
                attribute = comparison.left
                literal = comparison.right
                assert isinstance(attribute, AttributeRef)
                assert isinstance(literal, Literal)
                if attribute.name != scheme.shard_key:
                    continue
                if attribute.collection not in (None, scheme.collection):
                    continue
                if comparison.op == "=":
                    keep &= set(scheme.shards_for_equality(literal.value))
                elif comparison.op in ("<", "<="):
                    keep &= set(scheme.shards_for_range(None, literal.value))
                elif comparison.op in (">", ">="):
                    keep &= set(scheme.shards_for_range(literal.value, None))
        if not keep:
            return (0,)
        return tuple(sorted(keep))

    def _single_wrapper_for(self, collection: str) -> str | None:
        """The wrapper able to answer for the *whole* collection, or None.

        For a partitioned collection this exists only in the 1-shard
        overlay layout (the scheme's lone shard is the logical collection
        itself); a true fan-out has no single answering wrapper, so
        whole-subquery pushdown and bind-join probing do not apply.
        """
        if self.catalog.is_partitioned(collection):
            scheme = self.catalog.partition(collection)
            if len(scheme.shards) > 1:
                return None
            shard = scheme.shards[0]
            if shard.collection != collection:
                return None
            return shard.wrapper
        return self.catalog.wrapper_for(collection)

    def _wrapper_side_join_tree(
        self, spec: QuerySpec, collections: list[str]
    ) -> PlanNode | None:
        """A left-deep join tree entirely inside one wrapper, or None when
        the join graph does not connect the collections."""
        plan: PlanNode | None = None
        placed: set[str] = set()
        remaining = list(collections)
        while remaining:
            progressed = False
            for collection in list(remaining):
                leaf: PlanNode = Scan(collection)
                filters = spec.filters_for(collection)
                if filters:
                    leaf = Select(leaf, conjunction(list(filters)))
                if plan is None:
                    plan, placed = leaf, {collection}
                    remaining.remove(collection)
                    progressed = True
                    break
                connecting = spec.joins_between(placed, {collection})
                if not connecting:
                    continue
                plan = Join(plan, leaf, connecting[0])
                for extra in connecting[1:]:
                    plan = Select(plan, extra)
                placed.add(collection)
                remaining.remove(collection)
                progressed = True
                break
            if not progressed:
                return None
        return plan

    # -- join enumeration --------------------------------------------------------------

    def _best_join_plan(self, spec: QuerySpec, run: _Planning) -> _Candidate:
        collections = spec.collections
        if len(collections) == 1:
            plan = self._access_plan(spec, collections[0])
            candidate = self._cost(plan, run, None)
            assert candidate is not None
            return candidate
        if len(collections) <= self.options.max_exhaustive_collections:
            return self._dynamic_programming(spec, run)
        return self._greedy_chain(spec, run)

    def _dynamic_programming(
        self, spec: QuerySpec, run: _Planning
    ) -> _Candidate:
        collections = spec.collections
        best: dict[frozenset[str], _Candidate] = {}
        for collection in collections:
            plan = self._access_plan(spec, collection)
            candidate = self._cost(plan, run, None)
            assert candidate is not None
            best[frozenset([collection])] = candidate

        for size in range(2, len(collections) + 1):
            for subset in itertools.combinations(collections, size):
                key = frozenset(subset)
                current: _Candidate | None = None
                # Pushed-down whole-subset subquery at a single wrapper.
                if self.options.push_joins_to_wrappers:
                    current = self._pushed_candidate(spec, list(subset), run, current)
                # Mediator joins over every split with a connecting predicate.
                for left_size in range(1, size):
                    for left_subset in itertools.combinations(subset, left_size):
                        left_key = frozenset(left_subset)
                        right_key = key - left_key
                        if left_key not in best or right_key not in best:
                            continue
                        connecting = spec.joins_between(set(left_key), set(right_key))
                        if not connecting:
                            continue
                        plan: PlanNode = Join(
                            best[left_key].plan,
                            best[right_key].plan,
                            connecting[0],
                        )
                        for extra in connecting[1:]:
                            plan = Select(plan, extra)
                        bound = current.cost if current is not None else None
                        candidate = self._cost(plan, run, bound)
                        if candidate is not None and (
                            current is None or candidate.cost < current.cost
                        ):
                            current = candidate
                        bind_plan = self._bind_join_plan(
                            spec, best[left_key].plan, right_key, connecting
                        )
                        if bind_plan is not None:
                            bound = current.cost if current is not None else None
                            candidate = self._cost(bind_plan, run, bound)
                            if candidate is not None and (
                                current is None or candidate.cost < current.cost
                            ):
                                current = candidate
                if current is not None:
                    best[key] = current

        full = frozenset(collections)
        if full not in best:
            # Disconnected join graph: fall back to cartesian chaining.
            return self._cartesian_fallback(spec, best, run)
        return best[full]

    def _pushed_candidate(
        self,
        spec: QuerySpec,
        subset: list[str],
        run: _Planning,
        current: _Candidate | None,
    ) -> _Candidate | None:
        wrappers = {self._single_wrapper_for(c) for c in subset}
        if len(wrappers) != 1 or None in wrappers:
            return current
        wrapper = self.catalog.wrapper(next(iter(wrappers)))
        if "join" not in wrapper.capabilities:
            return current
        inner = self._wrapper_side_join_tree(spec, subset)
        if inner is None:
            return current
        bound = current.cost if current is not None else None
        candidate = self._cost(Submit(inner, wrapper.name), run, bound)
        if candidate is not None and (
            current is None or candidate.cost < current.cost
        ):
            return candidate
        return current

    def _bind_join_plan(
        self,
        spec: QuerySpec,
        outer_plan: PlanNode,
        inner_group: frozenset[str],
        connecting: list,
    ) -> PlanNode | None:
        """A dependent-join candidate, when the inner side is a single
        collection with an indexed join attribute (catalog statistics) and
        a selection-capable wrapper."""
        if not self.options.use_bind_join or len(inner_group) != 1:
            return None
        inner = next(iter(inner_group))
        join = connecting[0]
        inner_attr = join.right
        outer_attr = join.left
        wrapper_name = self._single_wrapper_for(inner)
        if wrapper_name is None:
            return None
        wrapper = self.catalog.wrapper(wrapper_name)
        if "select" not in wrapper.capabilities:
            return None
        if inner not in self.catalog.statistics:
            return None
        stats = self.catalog.statistics.get(inner)
        try:
            attr_stats = stats.attribute(inner_attr.name)
        except Exception:
            return None
        if not attr_stats.indexed:
            return None
        filters = spec.filters_for(inner)
        plan: PlanNode = BindJoin(
            outer=outer_plan,
            outer_attribute=outer_attr,
            inner_collection=inner,
            inner_attribute=inner_attr,
            wrapper=wrapper.name,
            inner_filters=conjunction(list(filters)) if filters else None,
            batch_size=self.options.bind_join_batch_size,
        )
        for extra in connecting[1:]:
            plan = Select(plan, extra)
        return plan

    def _greedy_chain(self, spec: QuerySpec, run: _Planning) -> _Candidate:
        """Greedy join ordering for very wide queries: start from the
        cheapest access plan, repeatedly join the cheapest connected
        extension."""
        pending = {
            collection: self._cost(self._access_plan(spec, collection), run, None)
            for collection in spec.collections
        }
        placed_name, current = min(
            pending.items(), key=lambda item: item[1].cost  # type: ignore[union-attr]
        )
        assert current is not None
        placed = {placed_name}
        del pending[placed_name]
        while pending:
            extension: tuple[str, _Candidate] | None = None
            for name, access in pending.items():
                assert access is not None
                connecting = spec.joins_between(placed, {name})
                if not connecting:
                    continue
                plan: PlanNode = Join(current.plan, access.plan, connecting[0])
                for extra in connecting[1:]:
                    plan = Select(plan, extra)
                bound = extension[1].cost if extension is not None else None
                candidate = self._cost(plan, run, bound)
                if candidate is not None and (
                    extension is None or candidate.cost < extension[1].cost
                ):
                    extension = (name, candidate)
            if extension is None:
                raise QueryError(
                    f"join graph does not connect {sorted(placed)} to "
                    f"{sorted(pending)} (cartesian products need an explicit "
                    "join predicate)"
                )
            placed.add(extension[0])
            del pending[extension[0]]
            current = extension[1]
        return current

    def _cartesian_fallback(
        self,
        spec: QuerySpec,
        best: dict[frozenset[str], _Candidate],
        run: _Planning,
    ) -> _Candidate:
        raise QueryError(
            "the join graph is disconnected; add join predicates "
            f"connecting {spec.collections}"
        )

    # -- decorations -------------------------------------------------------------------

    def _decorated_candidates(
        self, spec: QuerySpec, join_candidate: _Candidate, run: _Planning
    ) -> list[_Candidate]:
        """Apply grouping/distinct/sort/projection; for single-collection
        queries also try pushing the whole pipeline into the wrapper."""
        candidates: list[_Candidate] = []
        mediator_plan = self._decorate(spec, join_candidate.plan)
        candidate = self._cost(mediator_plan, run, None)
        assert candidate is not None
        candidates.append(candidate)

        if spec.is_single_collection and self._has_decorations(spec):
            collection = spec.collections[0]
            wrapper_name = self._single_wrapper_for(collection)
            if wrapper_name is None:
                return candidates
            wrapper = self.catalog.wrapper(wrapper_name)
            needed = {"select"} if spec.filters_for(collection) else set()
            if spec.aggregates or spec.group_by:
                needed.add("aggregate")
            if spec.distinct:
                needed.add("distinct")
            if spec.order_by:
                needed.add("sort")
            if spec.projection is not None:
                needed.add("project")
            if needed <= wrapper.capabilities:
                inner: PlanNode = Scan(collection)
                filters = spec.filters_for(collection)
                if filters:
                    inner = Select(inner, conjunction(list(filters)))
                pushed = Submit(self._decorate(spec, inner), wrapper.name)
                candidate = self._cost(pushed, run, candidates[0].cost)
                if candidate is not None:
                    candidates.append(candidate)
        return candidates

    @staticmethod
    def _has_decorations(spec: QuerySpec) -> bool:
        return bool(
            spec.aggregates
            or spec.group_by
            or spec.distinct
            or spec.order_by
            or spec.projection is not None
        )

    @staticmethod
    def _decorate(spec: QuerySpec, plan: PlanNode) -> PlanNode:
        # SQL evaluation order: GROUP BY → SELECT list → DISTINCT → ORDER
        # BY.  ORDER BY may reference non-projected columns (standard SQL)
        # unless DISTINCT is present, in which case the sort keys must
        # survive projection; when they would not, sorting happens before
        # the projection discards them.
        if spec.aggregates or spec.group_by:
            plan = Aggregate(plan, spec.group_by, spec.aggregates)
        project = spec.projection is not None and not (
            spec.aggregates or spec.group_by
        )
        sort_keys_projected = spec.projection is None or all(
            key in spec.projection for key in spec.order_by
        )
        if spec.order_by and not sort_keys_projected:
            if spec.distinct:
                raise QueryError(
                    "ORDER BY columns must appear in SELECT DISTINCT "
                    f"output: {spec.order_by} vs {spec.projection}"
                )
            plan = Sort(plan, spec.order_by, spec.order_descending)
        if project:
            plan = Project(
                plan, spec.projection, spec.projection_renames  # type: ignore[arg-type]
            )
        if spec.distinct:
            plan = Distinct(plan)
        if spec.order_by and sort_keys_projected:
            plan = Sort(plan, spec.order_by, spec.order_descending)
        return plan
