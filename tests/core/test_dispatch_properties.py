"""Property test: the dispatch index answers exactly like the linear scan.

``RuleRepository`` resolves rules through lazily built, pre-filtered
candidate lists (plus hashed buckets for value-pinned rules).  Whatever
the rule set and the node, :meth:`RuleRepository.matches` and
:meth:`RuleRepository.matches_providing` must return the same rules, in
the same order, with the same bindings as ``use_dispatch_index=False`` —
including after repository writes made between lookups.
"""

from __future__ import annotations

import sys
import threading
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    AttributeRef,
    Comparison,
    Literal,
    conjunction,
)
from repro.algebra.logical import (
    BindJoin,
    Join,
    PlanNode,
    Project,
    Scan,
    Scatter,
    Select,
    Submit,
)
from repro.core.formulas import parse_formula
from repro.core.history import ExactSubplanPattern
from repro.core.rules import (
    CostRule,
    OperatorPattern,
    join_pattern,
    rule,
    scan_pattern,
    select_eq_pattern,
    select_pattern,
    unary_pattern,
    var,
)
from repro.core.scopes import RuleRepository, _attr_value

# Small domains, and selects drawn more often than other operators, so
# that value-pinned rules and attr-value select nodes meet often.
COLLECTIONS = ("R", "S")
ATTRIBUTES = ("a", "b")
OPS = ("=", "<")
VALUES = (1, "x")
SOURCES = ("w", "v")
VARIABLES = ("TotalTime", "CountObject", "TotalSize")


def collection_args():
    return st.sampled_from((*COLLECTIONS, var("C")))


@st.composite
def heads(draw) -> OperatorPattern:
    operator = draw(
        st.sampled_from(
            ("scan", "select", "select", "select", "join", "submit", "bindjoin",
             "scatter", "project")
        )
    )
    if operator == "scan":
        return scan_pattern(draw(collection_args()))
    if operator == "select":
        collection = draw(collection_args())
        shape = draw(st.sampled_from(("any", "none", "attr-value", "attr-value")))
        if shape == "any":
            return select_pattern(collection)
        if shape == "none":
            return OperatorPattern("select", (collection,))
        return select_eq_pattern(
            collection,
            draw(st.sampled_from((*ATTRIBUTES, var("A")))),
            draw(st.sampled_from((*VALUES, var("V")))),
            op=draw(st.sampled_from(OPS)),
        )
    if operator == "join":
        left = draw(st.sampled_from((*COLLECTIONS, var("C1"))))
        right = draw(st.sampled_from((*COLLECTIONS, var("C2"))))
        attribute = st.sampled_from((None, *ATTRIBUTES, var("A1")))
        return join_pattern(left, right, draw(attribute), draw(attribute))
    return unary_pattern(operator, draw(collection_args()))


def formulas(draw) -> list[str]:
    provided = draw(
        st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3, unique=True)
    )
    return [f"{name} = {index + 1}" for index, name in enumerate(provided)]


def comparisons():
    attribute = st.sampled_from(ATTRIBUTES).map(AttributeRef)
    literal = st.sampled_from(VALUES).map(Literal)
    op = st.sampled_from(OPS)
    attr_value = st.builds(Comparison, op, attribute, literal)
    # ``literal op attribute`` normalizes to the attr-value shape.
    value_attr = st.builds(Comparison, op, literal, attribute)
    attr_attr = st.builds(Comparison, op, attribute, attribute)
    return st.one_of(attr_value, value_attr, attr_attr)


@st.composite
def nodes(draw) -> PlanNode:
    collection = draw(st.sampled_from(COLLECTIONS))
    kind = draw(
        st.sampled_from(
            (
                "scan",
                "select",
                "select",
                "select",
                "conjunction",
                "select-over-join",
                "join",
                "submit-over-join",
                "bindjoin",
                "scatter",
                "project",
            )
        )
    )
    base: PlanNode = Scan(collection)
    if draw(st.booleans()):
        base = Submit(base, draw(st.sampled_from(SOURCES)))

    def join() -> Join:
        other = draw(st.sampled_from(COLLECTIONS))
        return Join(
            base,
            Scan(other),
            Comparison("=", AttributeRef("a", collection), AttributeRef("b", other)),
        )

    if kind == "scan":
        return Scan(collection)
    if kind == "select":
        return Select(base, draw(comparisons()))
    if kind == "conjunction":
        parts = draw(st.lists(comparisons(), min_size=2, max_size=3))
        return Select(base, conjunction(parts))
    if kind == "select-over-join":
        return Select(join(), draw(comparisons()))
    if kind == "join":
        return join()
    if kind == "submit-over-join":
        return Submit(join(), draw(st.sampled_from(SOURCES)))
    if kind == "bindjoin":
        return BindJoin(
            base,
            AttributeRef("a"),
            draw(st.sampled_from(COLLECTIONS)),
            AttributeRef("b"),
            draw(st.sampled_from(SOURCES)),
        )
    if kind == "scatter":
        return Scatter(
            [Submit(Scan(f"{collection}_{i}"), "w", shard=i) for i in range(2)],
            collection,
            "a",
            2,
        )
    return Project(base, ["a"])


def head_for(draw, node: PlanNode) -> OperatorPattern:
    """A select-predicate head aimed at an attr-value select node, each
    argument bound to the node's own value or left free."""
    attr_value = _attr_value(node)
    collection = node.primary_collection()
    if attr_value is None or collection is None:
        return draw(heads())
    attribute, op, value = attr_value
    return select_eq_pattern(
        draw(st.sampled_from((collection, var("C")))),
        draw(st.sampled_from((attribute, var("A")))),
        draw(st.sampled_from((value, var("V")))),
        op=op,
    )


def add_rule(draw, repository: RuleRepository, pool: list[PlanNode]) -> None:
    body = formulas(draw)
    placement = draw(
        st.sampled_from(("wrapper", "default", "local", "query", "history"))
    )
    subplan = draw(st.sampled_from(pool))
    if placement == "history":
        history = CostRule(
            head=ExactSubplanPattern(subplan),
            formulas=[parse_formula(text) for text in body],
        )
        repository.add_query_rule(draw(st.sampled_from(SOURCES)), history)
        return
    head = head_for(draw, subplan) if draw(st.booleans()) else draw(heads())
    new = rule(head, body)
    if placement == "default":
        repository.add_default_rule(new)
    elif placement == "local":
        repository.add_local_rule(new)
    elif placement == "query":
        repository.add_query_rule(draw(st.sampled_from(SOURCES)), new)
    else:
        repository.add_wrapper_rule(draw(st.sampled_from(SOURCES)), new)


def resolve(repository: RuleRepository, node: PlanNode, source, indexed: bool):
    repository.use_dispatch_index = indexed
    try:
        found = [repository.matches(node, source)]
        found += [repository.matches_providing(node, source, v) for v in VARIABLES]
    finally:
        repository.use_dispatch_index = True
    return [[(id(m.scoped), m.bindings) for m in matches] for matches in found]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_indexed_lookup_equals_linear_scan(data):
    draw = data.draw
    repository = RuleRepository()
    pool = draw(st.lists(nodes(), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 16))):
        add_rule(draw, repository, pool)
    for _ in range(draw(st.integers(1, 10))):
        step = draw(st.sampled_from(("lookup", "lookup", "add", "remove")))
        if step == "add":
            add_rule(draw, repository, pool)
        elif step == "remove":
            repository.remove_source(draw(st.sampled_from(SOURCES)))
        else:
            node = draw(st.sampled_from(pool))
            source = draw(st.sampled_from((*SOURCES, None)))
            indexed = resolve(repository, node, source, indexed=True)
            linear = resolve(repository, node, source, indexed=False)
            assert indexed == linear


def test_lookups_racing_writes_leave_no_stale_list():
    """Service tenants resolve rules on their own threads while a
    re-registration rewrites the repository: after each write, lookups
    must see the rules now registered, never a candidate list a reader
    built from an earlier rule set and stored after the write."""
    repository = RuleRepository()
    pool = [
        Select(Scan(collection), Comparison("=", AttributeRef(attribute), Literal(1)))
        for collection in COLLECTIONS
        for attribute in ATTRIBUTES
    ] + [Scan(collection) for collection in COLLECTIONS]
    # Rules of another source lengthen every list build, widening the
    # window in which a reader can race a write.
    for index in range(300):
        repository.add_wrapper_rule("v", rule(scan_pattern(f"X{index}"), ["TotalTime = 3"]))

    def register() -> None:
        repository.remove_source("w")
        for collection in COLLECTIONS:
            repository.add_wrapper_rule("w", rule(scan_pattern(collection), ["TotalTime = 1"]))
            for attribute in ATTRIBUTES:
                head = select_eq_pattern(collection, attribute, var("V"))
                repository.add_wrapper_rule("w", rule(head, ["TotalTime = 2"]))

    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                for node in pool:
                    repository.matches_providing(node, "w", "TotalTime")
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers:
            thread.start()
        for _ in range(300):
            register()
            time.sleep(0.0005)  # let readers finish lists they began earlier
            live = {id(scoped) for scoped in repository.rules_for_source("w")}
            for node in pool:
                for match in repository.matches(node, "w"):
                    assert id(match.scoped) in live, "stale candidate list"
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors
    for node in pool:
        assert resolve(repository, node, "w", indexed=True) == resolve(
            repository, node, "w", indexed=False
        )
