"""Correctness checks, run after the timed section.

Every check compares the program against the benchmark's own model of the
data (the states the generated batches lead to) and its own reference
evaluator, never against stored output of the program.
"""

from __future__ import annotations

import naive


def _database_state(database, relations) -> dict[str, frozenset[tuple]]:
    return {name: frozenset(database.relation(name)) for name in relations}


def run_all(workload, database, service, results, later) -> list[str]:
    """All checks of one run; returns the failures (empty when correct).

    ``results`` holds the outcomes of the first rounds in full, ``later``
    the distinct outcomes of each op in the rounds after them.
    """
    errors: list[str] = []
    reference: dict[tuple, frozenset[tuple]] = {}
    indices: dict[int, naive.Indices] = {}  # per state id
    bounds: dict[int, float] = {}
    for index, op in enumerate(workload.round):
        outcomes = [r[index] for r in results] + list(later[index])
        if op.kind == "apply":
            for inserted, deleted, skipped in outcomes:
                if (inserted, deleted) != op.expect or skipped:
                    errors.append(
                        f"op {index}: apply reported +{inserted}/-{deleted}/skipped {skipped}, "
                        f"model says +{op.expect[0]}/-{op.expect[1]}/skipped 0"
                    )
            continue
        done = [o for o in outcomes if o is not None]
        if not done:
            continue
        # Repeated reads of one query on one state: identical rows and work.
        if len({summary for _, summary in done}) > 1:
            errors.append(f"op {index}: rows/Dξ differ between rounds: {sorted({s for _, s in done})}")
        full = [answer for answer, _ in done if answer is not None]
        if any(answer.rows != full[0].rows for answer in full[1:]):
            errors.append(f"op {index}: rows differ between rounds for {op.text}")
        answer = full[0] if full else None
        if answer is None:
            continue
        key = (op.query, op.state)
        if key not in reference:
            reference[key] = naive.evaluate(op.query, workload.states[op.state], indices.setdefault(op.state, {}))
        if answer.rows != reference[key]:
            errors.append(
                f"op {index}: {len(answer.rows)} rows, reference evaluator {len(reference[key])}: {op.text}"
            )
        if answer.used_bounded_plan:
            plan = answer.plan
            if id(plan) not in bounds:
                bounds[id(plan)] = naive.fetch_bound(plan, workload.access_schema)
            if bounds[id(plan)] == naive.INF:
                errors.append(f"op {index}: no finite fetch bound derivable for the plan of {op.text}")
            elif answer.tuples_fetched > bounds[id(plan)]:
                errors.append(
                    f"op {index}: Dξ {answer.tuples_fetched} exceeds the static fetch bound "
                    f"{bounds[id(plan)]}: {op.text}"
                )

    # Replay the round's writes once more (a round starts and ends in state
    # 0): after every batch the database must equal the model and satisfy A.
    relations = sorted(workload.rows)
    for index, op in enumerate(workload.round):
        if op.kind != "apply":
            continue
        service.apply(op.batch)
        if op.expect != (0, 0):
            state = _database_state(database, relations)
            if state != workload.states[op.state]:
                errors.append(f"op {index}: database differs from the model after the batch")
            errors.extend(f"op {index}: D ⊭ A: {v}" for v in naive.violations(state, workload.access))
    state = _database_state(database, relations)
    if state != workload.states[0]:
        errors.append("database differs from its initial state after whole rounds")
    # Every maintained view equals its definition evaluated from scratch.
    for name, definition in sorted(workload.view_defs.items()):
        expected = naive.evaluate(definition, state)
        if service.view_cache[name] != expected:
            errors.append(
                f"view {name}: {len(service.view_cache[name])} rows maintained, {len(expected)} by definition"
            )
    return errors
