"""Reference checks made apart from the program.

* :func:`evaluate` answers a :class:`gen.CQ` by backtracking over plain sets
  of tuples, with hash indices built on first use;
* :func:`violations` checks an instance against access constraints given as
  ``(relation, X positions, Y positions, N)``;
* :func:`fetch_bound` derives, from a plan's operators and the access
  constraints its fetches use, an upper bound on the tuples it can fetch.
"""

from __future__ import annotations

import itertools

from gen import CQ, Var

State = dict[str, frozenset[tuple]]


Indices = dict[tuple[str, tuple[int, ...]], dict[tuple, list[tuple]]]


def evaluate(query: CQ, state: State, indices: Indices | None = None) -> frozenset[tuple]:
    """The answer of ``query`` over ``state`` (set semantics).

    ``indices`` caches the hash indices built over ``state``; pass the same
    dict to every evaluation over one state to build each index once.
    """
    if indices is None:
        indices = {}

    def candidates(relation: str, terms: tuple, binding: dict[Var, object]) -> list[tuple]:
        positions = tuple(
            i for i, t in enumerate(terms) if not isinstance(t, Var) or t in binding
        )
        key = tuple(binding[t] if isinstance(t, Var) else t for t in (terms[i] for i in positions))
        index = indices.get((relation, positions))
        if index is None:
            index = {}
            for row in state[relation]:
                index.setdefault(tuple(row[i] for i in positions), []).append(row)
            indices[(relation, positions)] = index
        return index.get(key, [])

    results: set[tuple] = set()
    remaining = list(query.atoms)

    def solve(binding: dict[Var, object]) -> None:
        if not remaining:
            results.add(tuple(binding[v] for v in query.head))
            return
        # Most-bound atom next.
        best = max(
            range(len(remaining)),
            key=lambda i: sum(
                1 for t in remaining[i][1] if not isinstance(t, Var) or t in binding
            ),
        )
        relation, terms = remaining.pop(best)
        for row in candidates(relation, terms, binding):
            extended = dict(binding)
            if all(
                extended.setdefault(t, value) == value if isinstance(t, Var) else t == value
                for t, value in zip(terms, row)
            ):
                solve(extended)
        remaining.insert(best, (relation, terms))

    solve({})
    return frozenset(results)


def violations(state: State, access: tuple) -> list[str]:
    """Access constraints ``R(X -> Y, N)`` that ``state`` breaks."""
    found = []
    for relation, xs, ys, bound in access:
        groups: dict[tuple, set[tuple]] = {}
        for row in state[relation]:
            groups.setdefault(tuple(row[i] for i in xs), set()).add(tuple(row[i] for i in ys))
        worst = max((len(v) for v in groups.values()), default=0)
        if worst > bound:
            found.append(f"{relation}{xs}->{ys}: a key has {worst} > {bound} values")
    return found


INF = float("inf")


def fetch_bound(plan, access_schema) -> float:
    """An upper bound on the tuples ``plan`` fetches on any instance of A.

    ``distinct(node, attrs)`` bounds the number of distinct values of
    ``attrs`` in a node's output: constant scans give one, view scans are
    unbounded, a product multiplies its sides, projections and renames keep
    their child's bound, and a fetch through ``R(X -> Y, N)`` gives at most
    ``N`` values per distinct ``X`` key of its input.  Below a selection, an
    attribute equated to a constant has one value and one equated to
    another attribute may be counted through either (a semi-join of a view
    against fetched keys is bounded by the keys).  A fetch
    then reads at most ``distinct(input, X) · N`` tuples; the bound of the
    plan is the sum over its fetches.  Reads of view rows are not fetches.
    The analysis uses only the operators' documented semantics, not the
    program's conformance or bounded-output procedures.
    """
    def distinct(node, attrs: frozenset[str]) -> float:
        kind = type(node).__name__
        if not attrs:
            return 1
        if kind == "ConstantScan":
            return 1
        if kind == "ViewScan":
            return INF
        if kind == "SelectNode":
            return _select_distinct(node, attrs, distinct)
        if kind in ("ProjectNode", "DifferenceNode"):
            return distinct(node.children[0], attrs)
        if kind == "RenameNode":
            back = {new: old for old, new in node.mapping}
            return distinct(node.child, frozenset(back.get(a, a) for a in attrs))
        if kind == "ProductNode":
            left, right = node.children
            return distinct(left, attrs & frozenset(left.attributes)) * distinct(
                right, attrs & frozenset(right.attributes)
            )
        if kind == "UnionNode":
            return sum(distinct(child, attrs) for child in node.children)
        if kind == "FetchNode":
            keys = distinct(node.child, frozenset(node.x_attrs))
            if attrs <= frozenset(node.x_attrs):
                return distinct(node.child, attrs)
            return keys * node.covering_constraint(access_schema).bound
        raise ValueError(f"no bound rule for plan operator {kind}")

    total = 0.0
    for fetch in plan.fetch_nodes():
        constraint = fetch.covering_constraint(access_schema)
        total += distinct(fetch.child, frozenset(fetch.x_attrs)) * constraint.bound
    return total


def _select_distinct(node, attrs: frozenset[str], distinct) -> float:
    """Distinct values of ``attrs`` below the equalities of a selection."""
    equal: dict[str, set[str]] = {}
    fixed: set[str] = set()
    for predicate in node.predicates:
        if predicate.negated:
            continue
        if type(predicate).__name__ == "AttributeEqualsConstant":
            fixed.add(predicate.attribute)
        else:
            group = equal.get(predicate.left, {predicate.left}) | equal.get(predicate.right, {predicate.right})
            for attribute in group:
                equal[attribute] = group
    free = sorted(attrs - fixed)
    choices = [sorted(equal.get(a, {a})) for a in free]
    return min(
        distinct(node.child, frozenset(pick)) for pick in itertools.product(*choices)
    )
