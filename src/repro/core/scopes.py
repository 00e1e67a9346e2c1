"""The scope specialization hierarchy and the rule repository (§4.1).

Rules are grouped "into three scopes based on their applicability domain:
wrapper-scope, collection-scope and predicate-scope ... Furthermore, the
mediator has two additional scopes, the default-scope and the local-scope"
(Figure 10).  Section 4.3.1 adds a sixth, most-specific **query scope**
holding rules recorded from actual executions.

Matching order (§4.2, Step 1): query > predicate > collection > wrapper >
(local) > default.  Within one scope, rules are ordered by pattern
specificity (:meth:`OperatorPattern.specificity`), and ties fall back to
the order "given by the wrapper implementor".

The paper notes that naive rule lookup "tends to slow down the cost
estimate process ... That is why we do not use the standard overriding
mechanism of Java, but implement our own efficient one based on kind of
virtual tables."  :class:`RuleRepository` reproduces that with candidate
lists built lazily per *dispatch key*: (source, operator, the node's input
collection names, and — for an ``attribute op literal`` select — the
predicate's attribute and op).  Keys never hold literal values, so there
are at most as many as the schema allows.  Each list keeps only the rules
the node's scope can see whose bound collections, attribute and op agree
with the key; heads that are not plain :class:`OperatorPattern` (the
query scope's exact-subplan heads) stay in every list of their operator.
A list is sorted once, by precomputed priority, and every repository
write drops all lists.  Rules pinned to a literal value hash on it
directly and are merged in at lookup.  The linear-scan alternative is
kept (``use_dispatch_index=False``) for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Iterable

from repro.algebra.expressions import AttributeRef, Comparison, Literal
from repro.algebra.logical import PlanNode, Select
from repro.core.rules import (
    Bindings,
    CostRule,
    OperatorPattern,
    SelectPredPattern,
    Var,
)
from repro.errors import CostModelError


class Scope(IntEnum):
    """Scopes of Figure 10, ordered by increasing specificity."""

    DEFAULT = 0
    LOCAL = 1
    WRAPPER = 2
    COLLECTION = 3
    PREDICATE = 4
    QUERY = 5

    def __str__(self) -> str:
        return self.name.lower()


#: The mediator's own pseudo-source name for LOCAL/DEFAULT scope rules.
MEDIATOR_SOURCE = "__mediator__"


def classify_wrapper_rule(rule: CostRule) -> Scope:
    """Derive the scope of a wrapper-exported rule from its head (§4.1).

    * no bound collection → wrapper-scope (applies to any collection of
      the source);
    * bound collection, free predicate → collection-scope;
    * bound attribute or value → predicate-scope.
    """
    collections_bound, _shape_bound, attributes_bound, values_bound = (
        rule.specificity()
    )
    if attributes_bound or values_bound:
        return Scope.PREDICATE
    if collections_bound:
        return Scope.COLLECTION
    return Scope.WRAPPER


@dataclass(frozen=True)
class ScopedRule:
    """A rule placed in the hierarchy: who exported it and at which scope.

    ``level``, ``sort_key`` and ``provides`` are computed once, when the
    rule is placed: lookups compare them on every candidate.
    """

    rule: CostRule
    scope: Scope
    source: str
    #: The paper's "matching level": scope plus pattern specificity.
    level: tuple[int, int, int, int, int] = field(
        init=False, repr=False, compare=False
    )
    #: Descending match priority: scope, then the specificity levels,
    #: then declaration order (ascending).
    sort_key: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: The result variables the rule's body assigns.
    provides: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = self.rule.specificity()
        level = (int(self.scope), *spec)
        object.__setattr__(self, "level", level)
        object.__setattr__(
            self,
            "sort_key",
            (*(-part for part in level), self.rule.order),
        )
        object.__setattr__(self, "provides", frozenset(self.rule.provides))


def _sort_key(scoped: ScopedRule) -> tuple[int, ...]:
    return scoped.sort_key


@dataclass(frozen=True)
class RuleMatch:
    """A successful unification of a scoped rule with a plan node."""

    scoped: ScopedRule
    bindings: Bindings

    @property
    def rule(self) -> CostRule:
        return self.scoped.rule

    @property
    def scope(self) -> Scope:
        return self.scoped.scope

    @property
    def level(self) -> tuple[int, int, int, int, int]:
        """The paper's "matching level": scope plus pattern specificity.

        Rules at the same level are *all* associated with a node and their
        formulas race to the lowest value (§4.2, Step 3).
        """
        return self.scoped.level


#: One memo of :meth:`RuleRepository.matches_providing` results, keyed on
#: (node_id, source, variable).  Valid while the repository and the plan
#: nodes are unchanged — the optimizer keeps one per ``optimize`` call.
MatchMemo = dict[tuple[int, "str | None", str], list[RuleMatch]]


def _visible(scoped: ScopedRule, source: str | None) -> bool:
    """Whether a node owned by ``source`` (``None`` = mediator-local) may
    use ``scoped``: mediator-local nodes must not see a wrapper's rules,
    and a wrapper node must not use LOCAL-scope rules (the mediator runs
    a physical algebra locally, §4.1 footnote)."""
    if source is None:
        return scoped.source == MEDIATOR_SOURCE and scoped.scope in (
            Scope.LOCAL,
            Scope.DEFAULT,
        )
    return scoped.source in (source, MEDIATOR_SOURCE) and scoped.scope is not Scope.LOCAL


def _attr_value(node: PlanNode) -> tuple[str, str, Any] | None:
    """(attribute, op, literal) of an ``attribute op literal`` select,
    the only shape a :class:`SelectPredPattern` unifies with."""
    if not isinstance(node, Select) or not isinstance(node.predicate, Comparison):
        return None
    predicate = node.predicate.normalized()
    if not predicate.is_attr_value:
        return None
    attribute = predicate.left
    literal = predicate.right
    assert isinstance(attribute, AttributeRef)
    assert isinstance(literal, Literal)
    return attribute.name, predicate.op, literal.value


def _head_admits(
    head: OperatorPattern,
    inputs: tuple[str | None, ...] | None,
    select: tuple[str, str] | None,
) -> bool:
    """False when ``head`` cannot unify with a node of this dispatch key;
    literal values are left to :meth:`OperatorPattern.match`."""
    if type(head) is not OperatorPattern:
        return True  # exact-subplan heads and other subclasses: wildcard
    if inputs is None or len(inputs) != len(head.collections):
        return False
    for arg, name in zip(head.collections, inputs):
        if not isinstance(arg, Var) and arg != name:
            return False
    pattern = head.predicate
    if isinstance(pattern, SelectPredPattern):
        if select is None or pattern.op != select[1]:
            return False
        if not isinstance(pattern.attribute, Var) and pattern.attribute != select[0]:
            return False
    return True


class RuleRepository:
    """All scoped rules known to one mediator.

    Wrapper rules are integrated at registration time (§4.1: "Integration
    consists of compiling the rules ... and transmitting the results of
    compilation to the mediator"); formula compilation happened when the
    :class:`~repro.core.formulas.Formula` objects were built, so adding a
    rule here only indexes it.
    """

    def __init__(self, use_dispatch_index: bool = True) -> None:
        self.use_dispatch_index = use_dispatch_index
        self._rules: list[ScopedRule] = []
        # The "virtual tables": dispatch key -> sorted candidate rules,
        # filled on first use.  Writes replace the dict, so a list built
        # concurrently with a write lands in the discarded one.
        self._dispatch: dict[tuple, list[ScopedRule]] = {}
        # Fully pinned select rules (bound collection, attribute, op and
        # value) hash directly on their constants, so a thousand
        # query-specific rules cost one dict probe, not a scan — the
        # §3.3.2 "virtual tables" point.
        self._pinned: dict[tuple, list[ScopedRule]] = {}
        self._orders: dict[tuple[str, Scope], int] = {}

    # -- registration -----------------------------------------------------------

    def _next_order(self, source: str, scope: Scope) -> int:
        key = (source, scope)
        order = self._orders.get(key, 0)
        self._orders[key] = order + 1
        return order

    def _place(self, rule: CostRule, scope: Scope, source: str) -> ScopedRule:
        rule.order = self._next_order(source, scope)
        scoped = ScopedRule(rule, scope, source)
        self._rules.append(scoped)
        pinned_key = self._pinned_key_for_rule(scoped)
        if pinned_key is not None:
            bucket = self._pinned.setdefault(pinned_key, [])
            bucket.append(scoped)
            bucket.sort(key=_sort_key)
        self._dispatch = {}
        return scoped

    @staticmethod
    def _pinned_key_for_rule(scoped: ScopedRule) -> tuple | None:
        """Hash key for a fully bound select rule, or None."""
        head = scoped.rule.head
        if type(head) is not OperatorPattern or head.operator != "select":
            return None
        pred = head.predicate
        if not isinstance(pred, SelectPredPattern):
            return None
        collection = head.collections[0]
        if (
            isinstance(collection, Var)
            or isinstance(pred.attribute, Var)
            or isinstance(pred.value, Var)
        ):
            return None
        try:
            hash(pred.value)
        except TypeError:
            return None
        return (scoped.source, collection, pred.attribute, pred.op, pred.value)

    def add_default_rule(self, rule: CostRule) -> ScopedRule:
        """Install a generic-model rule (default-scope)."""
        return self._place(rule, Scope.DEFAULT, MEDIATOR_SOURCE)

    def add_local_rule(self, rule: CostRule) -> ScopedRule:
        """Install a mediator local-scope rule (physical mediator operators)."""
        return self._place(rule, Scope.LOCAL, MEDIATOR_SOURCE)

    def add_wrapper_rule(self, source: str, rule: CostRule) -> ScopedRule:
        """Install a wrapper-exported rule, deriving its scope from the head."""
        if source == MEDIATOR_SOURCE:
            raise CostModelError(
                f"wrapper rules cannot use the reserved source {source!r}"
            )
        return self._place(rule, classify_wrapper_rule(rule), source)

    def add_wrapper_rules(self, source: str, rules: Iterable[CostRule]) -> None:
        for rule in rules:
            self.add_wrapper_rule(source, rule)

    def add_query_rule(self, source: str, rule: CostRule) -> ScopedRule:
        """Install a query-scope rule (§4.3.1 historical costs)."""
        return self._place(rule, Scope.QUERY, source)

    def remove_source(self, source: str) -> int:
        """Drop every rule of a source (wrapper re-registration).  Returns
        the number of rules removed."""
        before = len(self._rules)
        self._rules = [s for s in self._rules if s.source != source]
        for key in [k for k in self._pinned if k[0] == source]:
            del self._pinned[key]
        for key in [k for k in self._orders if k[0] == source]:
            del self._orders[key]
        self._dispatch = {}
        return before - len(self._rules)

    # -- lookup --------------------------------------------------------------------

    def _candidate_rules(
        self, node: PlanNode, source: str | None
    ) -> list[ScopedRule]:
        """Scoped rules that could match ``node`` owned by ``source``
        (``None`` = a mediator-local node), most specific first."""
        operator = node.operator_name
        if not self.use_dispatch_index:
            return sorted(
                (
                    s
                    for s in self._rules
                    if s.rule.head.operator == operator and _visible(s, source)
                ),
                key=_sort_key,
            )
        raw_inputs = OperatorPattern._node_inputs(node)
        inputs = (
            None
            if raw_inputs is None
            else tuple(
                item if isinstance(item, str) else item.primary_collection()
                for item in raw_inputs
            )
        )
        attr_value = _attr_value(node)
        select = None if attr_value is None else attr_value[:2]
        key = (source, operator, inputs, select)
        dispatch = self._dispatch
        candidates = dispatch.get(key)
        if candidates is None:
            candidates = dispatch[key] = self._build_candidates(key)
        if attr_value is None or not self._pinned or inputs is None:
            return candidates
        attribute, op, value = attr_value
        try:
            hash(value)
        except TypeError:
            return candidates
        owners = (MEDIATOR_SOURCE,) if source is None else (source, MEDIATOR_SOURCE)
        pinned = [
            s
            for owner in owners
            for s in self._pinned.get((owner, inputs[0], attribute, op, value), ())
            if _visible(s, source)
        ]
        if not pinned:
            return candidates
        return sorted(candidates + pinned, key=_sort_key)

    def _build_candidates(self, key: tuple) -> list[ScopedRule]:
        source, operator, inputs, select = key
        found = [
            s
            for s in self._rules
            if s.rule.head.operator == operator
            and _visible(s, source)
            and self._pinned_key_for_rule(s) is None
            and _head_admits(s.rule.head, inputs, select)
        ]
        found.sort(key=_sort_key)
        return found

    def matches(self, node: PlanNode, source: str | None) -> list[RuleMatch]:
        """All rules matching ``node``, most specific first."""
        found: list[RuleMatch] = []
        for scoped in self._candidate_rules(node, source):
            bindings = scoped.rule.match(node)
            if bindings is not None:
                found.append(RuleMatch(scoped, bindings))
        return found

    def matches_providing(
        self, node: PlanNode, source: str | None, variable: str
    ) -> list[RuleMatch]:
        """The matches to use for one variable: every match at the highest
        matching level that provides the variable (§4.2 Steps 1 & 3)."""
        best_level: tuple[int, int, int, int, int] | None = None
        selected: list[RuleMatch] = []
        for scoped in self._candidate_rules(node, source):
            if variable not in scoped.provides:
                continue
            bindings = scoped.rule.match(node)
            if bindings is None:
                continue
            if best_level is None:
                best_level = scoped.level
            elif scoped.level != best_level:
                # Candidates are sorted, so the first lower level ends it.
                break
            selected.append(RuleMatch(scoped, bindings))
        return selected

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def rules_for_source(self, source: str) -> list[ScopedRule]:
        return [s for s in self._rules if s.source == source]

    def describe(self) -> str:
        """Render the hierarchy, outermost (default) scope first —
        a textual Figure 10."""
        lines: list[str] = []
        by_scope: dict[Scope, list[ScopedRule]] = {}
        for scoped in self._rules:
            by_scope.setdefault(scoped.scope, []).append(scoped)
        for scope in sorted(by_scope, key=int):
            lines.append(f"{scope}:")
            for scoped in by_scope[scope]:
                lines.append(f"  [{scoped.source}] {scoped.rule}")
        return "\n".join(lines)
