"""The cost evaluation algorithm (§4, Figure 11).

Estimating a plan is a recursive tree traversal with two phases: "a
top-down traversal from the root to the leaves and then a bottom-up
traversal from the leaves to the root.  During the first phase cost
formulas are associated with nodes.  During the second phase the cost of
each operator is computed."

This module implements that algorithm with the paper's two Step-1
optimizations — "(i) at each node the required variables are analyzed ...
only formula that compute required variables are associated with a node;
(ii) if no variables required from a child node, the recursive call to the
child is cut" — realized as demand-driven evaluation: the estimator asks
the root node for the variables the caller wants, and each formula pulls
exactly the child variables it references.  Setting
``EstimatorOptions.propagate_required = False`` restores the unoptimized
full traversal (every node computes all five variables), which the
ablation benchmark compares against.

Step 3's conflict resolution — "all formulas are invoked and the lowest
value is assigned to the variable" — is the default
:data:`ConflictPolicy.LOWEST`; :data:`ConflictPolicy.FIRST` implements the
§3.3.2 declaration-order alternative for the ablation.

Section 4.3.2's branch-and-bound extension is available through the
``bound_ms`` argument of :meth:`CostEstimator.estimate`: as soon as any
computed (sub)plan ``TotalTime`` exceeds the bound, estimation aborts with
a pruned result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping

from repro.algebra.logical import PlanNode, Submit
from repro.core.formulas import (
    BUILTIN_FUNCTIONS,
    DERIVED_VARIABLES,
    Formula,
    RESULT_VARIABLES,
    Value,
)
from repro.core.scopes import MatchMemo, RuleMatch, RuleRepository
from repro.core.statistics import (
    ATTRIBUTE_STATISTICS,
    COLLECTION_STATISTICS,
    AttributeStats,
    CollectionStats,
    Constant,
    StatisticsCatalog,
)
from repro.errors import (
    FormulaError,
    NoApplicableRuleError,
    UnknownStatisticError,
)
from repro.obs.hotpath import NULL_HOTPATH, HotpathProfiler
from repro.obs.trace import NULL_TRACER, SpanTracer


class ConflictPolicy(Enum):
    """How to resolve several same-level formulas for one variable."""

    LOWEST = "lowest"
    FIRST = "first"


@dataclass
class EstimatorOptions:
    """Tunable behaviour of the estimator (ablation knobs of DESIGN.md)."""

    conflict_policy: ConflictPolicy = ConflictPolicy.LOWEST
    #: Step-1 optimization: propagate required variables / cut child calls.
    propagate_required: bool = True
    #: Mirror the executor's concurrent submit dispatch: mediator-side
    #: binary operators whose children all reach wrappers through Submits
    #: combine child TotalTimes as max-of-wrapper-waits plus serialized
    #: communication instead of the paper's additive sum, so the optimizer
    #: prefers plans whose submits overlap.  Off by default (the §2.3
    #: additive formulas).
    parallel_submits: bool = False
    #: Concurrency slots assumed by the parallel combinator (None = unbounded);
    #: should match ``ExecutorOptions.max_concurrency``.
    max_concurrency: int | None = None
    #: Cache computed (node, variable) values across estimate() calls.
    #: Sound because a node's estimate never depends on its parents, and
    #: the optimizer reuses subplan objects across candidate plans (the
    #: dynamic-programming table), so shared subtrees cost once.  The
    #: cache must be invalidated when rules, statistics or coefficients
    #: change — registration does this automatically.
    cache_subplans: bool = False
    #: Statistics assumed for collections absent from the catalog (§6:
    #: "In case they are not provided, standard values are given").
    default_count_object: int = 1000
    default_object_size: int = 100
    default_count_distinct: int = 100


class PlanPruned(Exception):
    """Raised internally when §4.3.2 pruning rejects the plan early."""

    def __init__(self, exceeded_ms: float) -> None:
        self.exceeded_ms = exceeded_ms
        super().__init__(f"plan pruned at {exceeded_ms:.3f} ms")


@dataclass
class NodeEstimate:
    """Computed variables of one plan node, with provenance.

    ``provenance`` maps each variable to a human-readable description of
    the rule that produced it (``"predicate[oo7]: select(AtomicParts, Id
    = V)"``), which ``explain`` output uses to show the blending at work.
    """

    node: PlanNode
    values: dict[str, Value] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def value(self, variable: str) -> Value:
        return self.values[variable]

    @property
    def total_time(self) -> float:
        return float(self.values.get("TotalTime", math.nan))

    @property
    def count_object(self) -> float:
        return float(self.values.get("CountObject", math.nan))


@dataclass
class PlanEstimate:
    """The result of costing one plan."""

    plan: PlanNode
    root: NodeEstimate
    nodes: dict[int, NodeEstimate]
    pruned: bool = False

    @property
    def total_time(self) -> float:
        """Estimated TotalTime of the whole plan, in milliseconds.

        For a pruned plan this is the partial cost at which estimation
        stopped — by construction it already exceeds the caller's bound.
        """
        return self.root.total_time

    def estimate_for(self, node: PlanNode) -> NodeEstimate:
        return self.nodes[node.node_id]

    def to_dict(self) -> dict:
        """Machine-readable plan estimate (the `explain(format="json")`
        payload): the plan tree with per-node values and provenance."""

        def node_dict(node: PlanNode) -> dict:
            estimate = self.nodes.get(node.node_id)
            payload: dict[str, Any] = {
                "operator": node.operator_name,
                "describe": node.describe(),
            }
            if estimate is not None:
                payload["values"] = {
                    variable: (
                        float(value) if isinstance(value, (int, float)) else value
                    )
                    for variable, value in estimate.values.items()
                }
                payload["provenance"] = dict(estimate.provenance)
            payload["children"] = [node_dict(child) for child in node.children]
            return payload

        return {
            "pruned": self.pruned,
            "total_time_ms": self.total_time,
            "plan": node_dict(self.plan),
        }

    def explain(self) -> str:
        """Indented plan rendering with costs and rule provenance."""
        lines: list[str] = []
        self._explain_node(self.plan, 0, lines)
        return "\n".join(lines)

    def _explain_node(self, node: PlanNode, indent: int, lines: list[str]) -> None:
        pad = "  " * indent
        estimate = self.nodes.get(node.node_id)
        if estimate is None:
            lines.append(f"{pad}{node.describe()}  [not costed]")
        else:
            parts = []
            for variable in ("CountObject", "TotalSize", "TotalTime"):
                if variable in estimate.values:
                    value = estimate.values[variable]
                    parts.append(f"{variable}={float(value):.1f}")  # type: ignore[arg-type]
            lines.append(f"{pad}{node.describe()}  [{', '.join(parts)}]")
            for variable in sorted(estimate.provenance):
                lines.append(
                    f"{pad}    {variable} <- {estimate.provenance[variable]}"
                )
        for child in node.children:
            self._explain_node(child, indent + 1, lines)


@dataclass
class SourceEnvironment:
    """Per-source evaluation extras: wrapper variables and functions (§3.3.1:
    "wrapper implementors may define their own local variables or functions
    to parameterize their formulas")."""

    name: str
    variables: dict[str, Value] = field(default_factory=dict)
    functions: dict[str, Callable[..., Value]] = field(default_factory=dict)
    context_functions: dict[str, Callable[..., Value]] = field(default_factory=dict)


@dataclass
class EstimatorCounters:
    """Work counters for the overhead benchmarks."""

    nodes_visited: int = 0
    variables_computed: int = 0
    formulas_evaluated: int = 0
    match_attempts: int = 0


class _NodeContext:
    """The :class:`EvaluationContext` a formula sees for one rule at one
    node.  Implements the Figure 7 path-resolution scheme."""

    def __init__(
        self,
        estimation: "_Estimation",
        node: PlanNode,
        source: str | None,
        match: RuleMatch,
    ) -> None:
        self.estimation = estimation
        self.node = node
        self.source = source
        self.match = match
        self.locals: dict[str, Value] = {}
        self._locals_in_progress: set[str] = set()

    # -- EvaluationContext ---------------------------------------------------

    def resolve_path(self, parts: tuple[str, ...]) -> Value:
        if len(parts) == 1:
            return self._resolve_single(parts[0])
        if len(parts) == 2:
            return self._resolve_double(parts[0], parts[1])
        return self._resolve_triple(parts[0], parts[1], parts[2])

    def resolve_function(self, name: str) -> Callable[..., Value]:
        env = self.estimation.estimator.source_environment(self.source)
        if name in env.functions:
            return env.functions[name]
        if name in env.context_functions:
            fn = env.context_functions[name]
            return lambda *args: fn(self, *args)
        if name in BUILTIN_FUNCTIONS:
            return BUILTIN_FUNCTIONS[name]
        raise FormulaError(
            f"unknown function {name!r} (source {self.source or 'mediator'})"
        )

    # -- resolution helpers -----------------------------------------------------

    def _resolve_single(self, name: str) -> Value:
        # 1. rule-local assignment (e.g. CountPage in the Figure 13 rule)
        local = self._maybe_local(name)
        if local is not None:
            return local
        # 2. pattern variable binding
        bindings = self.match.bindings
        if name in bindings:
            bound = bindings[name]
            if isinstance(bound, PlanNode):
                # A bare child reference has no scalar value; expose its
                # estimated cardinality, the most common intent.
                return self.estimation.value_of(bound, "CountObject")
            if isinstance(bound, (int, float, str, bool, Constant)):
                return bound if not isinstance(bound, Constant) else bound
            return bound  # predicates, attribute tuples: for functions
        # 3. the node's own result variable ("Variables without a
        #    collection name refer to the result of the formula")
        if name in RESULT_VARIABLES or name in DERIVED_VARIABLES:
            return self.estimation.value_of(self.node, name)
        # 4. wrapper-defined variable (PageSize = 4000)
        env = self.estimation.estimator.source_environment(self.source)
        if name in env.variables:
            return env.variables[name]
        raise FormulaError(f"unbound reference {name!r}")

    def _resolve_double(self, first: str, second: str) -> Value:
        subject = self._subject(first)
        if isinstance(subject, PlanNode):
            if second in RESULT_VARIABLES or second in DERIVED_VARIABLES:
                return self.estimation.value_of(subject, second)
            raise FormulaError(
                f"{first}.{second}: {second!r} is not a result variable"
            )
        if isinstance(subject, CollectionStats):
            if second in COLLECTION_STATISTICS:
                return subject.lookup(second)
            raise FormulaError(
                f"{first}.{second}: {second!r} is not a collection statistic"
            )
        if isinstance(subject, str) and second in ATTRIBUTE_STATISTICS:
            # ``A.Min`` where A is a bound attribute name: resolve against
            # the node's primary collection ("Attribute and Collection may
            # be omitted in non-ambiguous cases").
            stats = self._primary_stats()
            return stats.attribute(subject).lookup(second)
        raise FormulaError(f"cannot resolve {first}.{second}")

    def _resolve_triple(self, first: str, second: str, third: str) -> Value:
        subject = self._subject(first)
        if isinstance(subject, PlanNode):
            stats = self._stats_for_node(subject)
        elif isinstance(subject, CollectionStats):
            stats = subject
        else:
            raise FormulaError(f"cannot resolve {first}.{second}.{third}")
        attribute = second
        bindings = self.match.bindings
        if attribute in bindings and isinstance(bindings[attribute], str):
            attribute = bindings[attribute]
        if third not in ATTRIBUTE_STATISTICS:
            raise FormulaError(f"{third!r} is not an attribute statistic")
        return stats.attribute(attribute).lookup(third)

    def _subject(self, name: str) -> Any:
        """Resolve the first path component: binding, collection, or child."""
        bindings = self.match.bindings
        if name in bindings:
            bound = bindings[name]
            if isinstance(bound, PlanNode):
                return bound
            if isinstance(bound, str):
                # Collection name or attribute name; try collection first.
                catalog_stats = self.estimation.estimator.stats_or_none(bound)
                if catalog_stats is not None:
                    return catalog_stats
                return bound
            return bound
        catalog_stats = self.estimation.estimator.stats_or_none(name)
        if catalog_stats is not None:
            return catalog_stats
        return name

    def _primary_stats(self) -> CollectionStats:
        return self._stats_for_node(self.node)

    def _stats_for_node(self, node: PlanNode) -> CollectionStats:
        collection = node.primary_collection()
        if collection is None:
            raise FormulaError(
                f"node {node.describe()} has no unique base collection for "
                "attribute-statistic lookup"
            )
        return self.estimation.estimator.stats_for(collection)

    def _maybe_local(self, name: str) -> Value | None:
        if name in self.locals:
            return self.locals[name]
        rule = self.match.rule
        if name not in rule.locals_:
            return None
        if name in self._locals_in_progress:
            raise FormulaError(f"cyclic local variable {name!r} in rule {rule.name}")
        self._locals_in_progress.add(name)
        try:
            candidates = [
                formula.evaluate(self) for formula in rule.formulas_for(name)
            ]
        finally:
            self._locals_in_progress.discard(name)
        value = candidates[0] if len(candidates) == 1 else min(
            float(v) for v in candidates  # type: ignore[arg-type]
        )
        self.locals[name] = value
        return value

    # -- conveniences for native (generic-model) formulas -------------------------

    def child(self, index: int = 0) -> PlanNode:
        children = self.node.children
        if not children:
            raise FormulaError(f"{self.node.describe()} has no children")
        return children[index]

    def child_value(self, variable: str, index: int = 0) -> float:
        return float(self.estimation.value_of(self.child(index), variable))  # type: ignore[arg-type]

    def own_value(self, variable: str) -> float:
        return float(self.estimation.value_of(self.node, variable))  # type: ignore[arg-type]

    def stats_or_none(self, collection: str) -> CollectionStats | None:
        return self.estimation.estimator.stats_or_none(collection)

    def primary_stats_or_none(self) -> CollectionStats | None:
        collection = self.node.primary_collection()
        if collection is None:
            return None
        return self.estimation.estimator.stats_for(collection)

    def attribute_stats(
        self, collection: str | None, attribute: str
    ) -> AttributeStats | None:
        if collection is None:
            stats = self.primary_stats_or_none()
        else:
            stats = self.estimation.estimator.stats_for(collection)
        if stats is None:
            return None
        try:
            return stats.attribute(attribute)
        except UnknownStatisticError:
            return None

    @property
    def coefficients(self) -> Any:
        return self.estimation.estimator.coefficients

    @property
    def options(self) -> EstimatorOptions:
        return self.estimation.estimator.options


class _Estimation:
    """State of one estimate() run: memo tables, counters, prune bound."""

    def __init__(
        self,
        estimator: "CostEstimator",
        sources: Mapping[int, str | None],
        bound_ms: float | None,
        match_memo: MatchMemo | None,
    ) -> None:
        self.estimator = estimator
        self.sources = sources
        self.bound_ms = bound_ms
        self.match_memo = match_memo
        self.estimates: dict[int, NodeEstimate] = {}
        self.in_progress: set[tuple[int, str]] = set()
        self.counters = EstimatorCounters()

    def estimate_node(self, node: PlanNode) -> NodeEstimate:
        if node.node_id not in self.estimates:
            self.counters.nodes_visited += 1
            self.estimates[node.node_id] = NodeEstimate(node=node)
        return self.estimates[node.node_id]

    def value_of(self, node: PlanNode, variable: str) -> Value:
        """Demand-driven Step-2/3 evaluation with memoization."""
        estimate = self.estimate_node(node)
        if variable in estimate.values:
            return estimate.values[variable]
        cache = self.estimator.subplan_cache
        if cache is not None:
            cached = cache.get((node.node_id, variable))
            if cached is not None:
                value, provenance = cached
                estimate.values[variable] = value
                estimate.provenance[variable] = provenance
                # Count the variable before the §4.3.2 bound check, exactly
                # like the non-cached path below: a cached TotalTime that
                # trips the bound must leave the same counter trail, or
                # OptimizerStats undercounts pruned work on warm caches.
                self.counters.variables_computed += 1
                if (
                    variable == "TotalTime"
                    and self.bound_ms is not None
                    and isinstance(value, (int, float))
                    and value > self.bound_ms
                ):
                    raise PlanPruned(float(value))
                return value
        if variable in DERIVED_VARIABLES:
            value = self._derived(node, variable)
            estimate.values[variable] = value
            estimate.provenance[variable] = "derived"
            return value
        key = (node.node_id, variable)
        if key in self.in_progress:
            raise FormulaError(
                f"cyclic dependency computing {variable} of {node.describe()}"
            )
        self.in_progress.add(key)
        try:
            value, provenance = self._compute(node, variable)
        finally:
            self.in_progress.discard(key)
        estimate.values[variable] = value
        estimate.provenance[variable] = provenance
        cache = self.estimator.subplan_cache
        if cache is not None:
            cache[(node.node_id, variable)] = (value, provenance)
        self.counters.variables_computed += 1
        if (
            variable == "TotalTime"
            and self.bound_ms is not None
            and isinstance(value, (int, float))
            and value > self.bound_ms
        ):
            raise PlanPruned(float(value))
        return value

    def _derived(self, node: PlanNode, variable: str) -> Value:
        assert variable == "ObjectSize"
        count = float(self.value_of(node, "CountObject"))  # type: ignore[arg-type]
        size = float(self.value_of(node, "TotalSize"))  # type: ignore[arg-type]
        return size / max(1.0, count)

    def _compute(self, node: PlanNode, variable: str) -> tuple[Value, str]:
        source = self.sources.get(node.node_id)
        self.counters.match_attempts += 1
        memo = self.match_memo
        memo_key = (node.node_id, source, variable)
        matches = memo.get(memo_key) if memo is not None else None
        if matches is None:
            matches = self.estimator.repository.matches_providing(node, source, variable)
            if memo is not None:
                memo[memo_key] = matches
        if not matches:
            raise NoApplicableRuleError(
                f"no rule provides {variable} for {node.describe()} "
                f"(source {source or 'mediator'}) — is the generic model installed?"
            )
        policy = self.estimator.options.conflict_policy
        best_value: Value | None = None
        best_provenance = ""
        best_scope = ""
        for match in matches:
            ctx = _NodeContext(self, node, source, match)
            for formula in match.rule.formulas_for(variable):
                self.counters.formulas_evaluated += 1
                value = formula.evaluate(ctx)
                improves = best_value is None or (
                    policy is ConflictPolicy.LOWEST
                    and isinstance(value, (int, float))
                    and isinstance(best_value, (int, float))
                    and value < best_value
                )
                if improves:
                    best_value = value
                    best_scope = str(match.scope)
                    best_provenance = (
                        f"{match.scope}[{match.scoped.source}]: {match.rule.name}"
                    )
                if policy is ConflictPolicy.FIRST:
                    break
            if policy is ConflictPolicy.FIRST and best_value is not None:
                break
        assert best_value is not None
        # Online calibration overlay: wrapper-owned predictions are
        # multiplied by the active coefficient for (wrapper, scope,
        # variable).  Mediator-side nodes (source None) are never
        # calibrated — the drift tracker only measures wrapper work.
        calibration = self.estimator.calibration
        if (
            calibration is not None
            and source is not None
            and isinstance(best_value, (int, float))
            and calibration.active.multipliers
        ):
            multiplier = calibration.multiplier_for(source, best_scope, variable)
            if multiplier != 1.0:
                best_value = float(best_value) * multiplier
                best_provenance += (
                    f" | calibrated x{multiplier:.4g}"
                    f" (v{calibration.active_version})"
                )
        return best_value, best_provenance


class CostEstimator:
    """Costs plans against a rule repository, a statistics catalog, and
    per-source environments.

    This is the "cost computation module in the mediator" of §4: rules are
    integrated once (into ``repository``), then :meth:`estimate` is called
    for every candidate plan the optimizer generates.
    """

    def __init__(
        self,
        repository: RuleRepository,
        catalog: StatisticsCatalog,
        options: EstimatorOptions | None = None,
        coefficients: Any = None,
    ) -> None:
        self.repository = repository
        self.catalog = catalog
        self.options = options or EstimatorOptions()
        self.coefficients = coefficients
        self._environments: dict[str, SourceEnvironment] = {}
        self._default_stats_cache: dict[str, CollectionStats] = {}
        self.last_counters = EstimatorCounters()
        #: Telemetry sink; defaults to the shared no-op tracer.
        self.tracer: SpanTracer = NULL_TRACER
        #: Wall-clock phase timers; defaults to the shared no-op profiler.
        self.hotpath: HotpathProfiler = NULL_HOTPATH
        #: Online calibration overlay (duck-typed
        #: :class:`repro.mediator.calibration.CalibrationState`); the
        #: mediator wires the catalog's state in.  None = seed behaviour.
        self.calibration: Any = None
        #: (node_id, variable) -> (value, provenance); None when disabled.
        self.subplan_cache: dict[tuple[int, str], tuple[Value, str]] | None = (
            {} if self.options.cache_subplans else None
        )

    def invalidate_cache(self) -> None:
        """Drop cached subplan values.  Call after anything the estimates
        depend on changes: rule (re)registration, statistics updates,
        coefficient adjustment."""
        if self.subplan_cache is not None:
            self.subplan_cache.clear()

    # -- environments ------------------------------------------------------------

    def source_environment(self, source: str | None) -> SourceEnvironment:
        key = source or "__mediator__"
        if key not in self._environments:
            self._environments[key] = SourceEnvironment(name=key)
        return self._environments[key]

    def register_environment(self, env: SourceEnvironment) -> None:
        self._environments[env.name] = env

    # -- statistics ---------------------------------------------------------------

    def stats_or_none(self, collection: str) -> CollectionStats | None:
        if collection in self.catalog:
            return self.catalog.get(collection)
        return None

    def stats_for(self, collection: str) -> CollectionStats:
        """Statistics with the §6 "standard values" fallback."""
        if collection in self.catalog:
            return self.catalog.get(collection)
        if collection not in self._default_stats_cache:
            options = self.options
            self._default_stats_cache[collection] = CollectionStats.from_extent(
                collection,
                count_object=options.default_count_object,
                object_size=options.default_object_size,
            )
        return self._default_stats_cache[collection]

    def default_attribute_stats(self, attribute: str) -> AttributeStats:
        return AttributeStats(
            name=attribute,
            indexed=False,
            count_distinct=self.options.default_count_distinct,
        )

    # -- the algorithm ---------------------------------------------------------------

    def estimate(
        self,
        plan: PlanNode,
        *,
        default_source: str | None = None,
        bound_ms: float | None = None,
        variables: tuple[str, ...] = ("TotalTime", "CountObject", "TotalSize"),
        match_memo: MatchMemo | None = None,
    ) -> PlanEstimate:
        """Cost a plan.

        Args:
            plan: the root of the logical plan tree.
            default_source: which wrapper owns nodes not under a Submit;
                ``None`` means the mediator (nodes under a Submit always
                belong to that Submit's wrapper).
            bound_ms: §4.3.2 pruning bound — estimation aborts as soon as
                any computed TotalTime exceeds it.
            variables: which root variables the caller needs.
            match_memo: rule matches already resolved for these plan
                nodes (see :data:`~repro.core.scopes.MatchMemo`); filled
                in as nodes are resolved.  The optimizer passes one per
                ``optimize`` call, so subplans shared by its candidates
                resolve their rules once.

        Returns:
            A :class:`PlanEstimate`; ``pruned`` is True when the bound cut
            the estimation short.
        """
        hotpath = self.hotpath
        if hotpath.enabled:
            with hotpath.phase("estimate"):
                return self._estimate_traced(
                    plan, default_source, bound_ms, variables, match_memo
                )
        return self._estimate_traced(
            plan, default_source, bound_ms, variables, match_memo
        )

    def _estimate_traced(
        self,
        plan: PlanNode,
        default_source: str | None,
        bound_ms: float | None,
        variables: tuple[str, ...],
        match_memo: MatchMemo | None,
    ) -> PlanEstimate:
        tracer = self.tracer
        if not tracer.enabled:
            return self._estimate(
                plan, default_source, bound_ms, variables, match_memo
            )
        span = tracer.start("estimate", kind="estimate", plan=plan.describe())
        try:
            result = self._estimate(
                plan, default_source, bound_ms, variables, match_memo
            )
        except Exception:
            tracer.end(span, error=True)
            raise
        counters = self.last_counters
        tracer.end(
            span,
            total_ms=result.total_time,
            pruned=result.pruned,
            nodes_visited=counters.nodes_visited,
            formulas_evaluated=counters.formulas_evaluated,
        )
        return result

    def _estimate(
        self,
        plan: PlanNode,
        default_source: str | None,
        bound_ms: float | None,
        variables: tuple[str, ...],
        match_memo: MatchMemo | None,
    ) -> PlanEstimate:
        sources = self._assign_sources(plan, default_source)
        estimation = _Estimation(self, sources, bound_ms, match_memo)
        pruned = False
        try:
            if self.options.propagate_required:
                for variable in variables:
                    estimation.value_of(plan, variable)
            else:
                # Unoptimized Figure 11: every node computes every variable.
                self._estimate_eagerly(plan, estimation)
        except PlanPruned:
            pruned = True
        self.last_counters = estimation.counters
        root = estimation.estimate_node(plan)
        if pruned and "TotalTime" not in root.values:
            # Surface the partial cost that tripped the bound.
            exceeded = max(
                (
                    float(e.values["TotalTime"])  # type: ignore[arg-type]
                    for e in estimation.estimates.values()
                    if "TotalTime" in e.values
                ),
                default=math.inf,
            )
            root.values["TotalTime"] = exceeded
            root.provenance["TotalTime"] = "pruned (§4.3.2 bound exceeded)"
        return PlanEstimate(
            plan=plan, root=root, nodes=estimation.estimates, pruned=pruned
        )

    def _estimate_eagerly(self, node: PlanNode, estimation: _Estimation) -> None:
        for child in node.children:
            self._estimate_eagerly(child, estimation)
        for variable in RESULT_VARIABLES:
            estimation.value_of(node, variable)

    @staticmethod
    def _assign_sources(
        plan: PlanNode, default_source: str | None
    ) -> dict[int, str | None]:
        """Map node ids to owning sources: below a Submit, the wrapper;
        elsewhere the default."""
        sources: dict[int, str | None] = {}

        def walk(node: PlanNode, current: str | None) -> None:
            if isinstance(node, Submit):
                # The Submit node itself is costed mediator-side (it models
                # the communication step); its subtree runs at the wrapper.
                sources[node.node_id] = None
                walk(node.child, node.wrapper)
                return
            sources[node.node_id] = current
            for child in node.children:
                walk(child, current)

        walk(plan, default_source)
        return sources


def estimate_once(
    plan: PlanNode,
    repository: RuleRepository,
    catalog: StatisticsCatalog,
    **kwargs: Any,
) -> PlanEstimate:
    """One-shot convenience: build an estimator and cost a single plan."""
    estimator = CostEstimator(repository, catalog)
    return estimator.estimate(plan, **kwargs)
