"""The four workloads: their inputs, their rounds of operations, their model.

A run repeats one *round* — a fixed list of operations generated from the
seed — until its time is up, so every round does the same work on the same
states, and per-operation counts and the share of failed operations do not
depend on how many rounds fit.  Writes in a round are undone within it (the
read-only workloads only redeliver batches already applied), so each round
starts from the state the previous one started from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import gen
from gen import CQ, Var

from repro.storage.updates import Deletion, Insertion, UpdateBatch
from repro.workloads import cdr, graph_search, skewed

# The two adhoc_cdr queries whose planning does not finish within the
# workload's latency limit (greedy planning re-decides bounded output for
# every fetch of every candidate; see README.md).  They are fixed, so they
# fail on every seed and in every round.
SLOW_PLANNING = (
    CQ(
        (Var("v1"), Var("v2")),
        (
            ("call", (Var("v0"), Var("v0"), 1, Var("v0"), Var("v0"))),
            ("cell", (Var("v0"), Var("v1"), Var("v1"))),
            ("plan", ("plan_2", "premium", Var("v2"))),
            ("customer", ("ph_000094", Var("v1"), "basic", "centre")),
        ),
    ),
    CQ(
        (Var("v0"),),
        (
            ("customer", (Var("v0"), Var("v0"), Var("v0"), "north")),
            ("call", (Var("v0"), Var("v0"), 7, Var("v0"), Var("v0"))),
            ("cell", (Var("v0"), Var("v0"), "city_13")),
            ("cell", (Var("v0"), Var("v0"), Var("v0"))),
        ),
    ),
)

# adhoc_cdr: a read still running after this many seconds is abandoned and
# counted as failed.  Every other query of the workload plans in under
# 0.35 s on a 2-core machine, the faster slow-planning query takes ~2 s.
ADHOC_LIMIT_S = 0.75


@dataclass
class Op:
    """One operation of a round.

    ``kind`` is ``"text"`` (``QueryService.query`` on query text),
    ``"prepared"`` (``PreparedQuery.execute`` with ``params``) or
    ``"apply"`` (``QueryService.apply``).  Reads carry the query for the
    reference evaluator and the id of the state they see; applies carry the
    counts of rows the model says they insert and delete.
    """

    kind: str
    text: str = ""
    query: CQ | None = None
    params: dict[str, object] = field(default_factory=dict)
    batch: UpdateBatch | None = None
    state: int = 0
    expect: tuple[int, int] = (0, 0)


@dataclass
class Workload:
    name: str
    schema: object
    access_schema: object
    views: object
    access: tuple  # the same constraints as (relation, X, Y, N), for the checks
    view_defs: dict[str, CQ]
    rows: gen.Rows
    prepared: dict[str, str]  # name -> text of the prepared queries
    warmup: list[Op]
    round: list[Op]
    states: list[dict[str, frozenset[tuple]]]
    limit_s: float | None = None

    def digest(self) -> str:
        """Digest of every input: rows, query texts, parameters, batches."""
        ops = [
            (op.kind, op.text, sorted(op.params.items()), op.batch and [(type(u).__name__, u.relation, u.row) for u in op.batch])
            for op in self.warmup + self.round
        ]
        return gen.digest(([(r, self.rows[r]) for r in sorted(self.rows)], sorted(self.prepared.items()), ops))


def _batch(updates: list[tuple[bool, str, tuple]]) -> UpdateBatch:
    return UpdateBatch(Insertion(r, row) if ins else Deletion(r, row) for ins, r, row in updates)


def _read(query: CQ) -> Op:
    return Op("text", text=gen.text(query), query=query)


def _prepared(name: str, params: dict[str, object]) -> Op:
    return Op("prepared", text=name, query=gen.bind(gen.PREPARED[name], params), params=params)


def _with_replays(
    generator: random.Random, rows: gen.Rows, reads: list[Op], every: int, per_relation: int
) -> list[Op]:
    """Interleave a redelivered batch after every ``every`` reads."""
    ops: list[Op] = []
    for index, op in enumerate(reads):
        ops.append(op)
        if index % every == every - 1:
            ops.append(Op("apply", batch=_batch(gen.replay_batch(generator, rows, per_relation, index))))
    return ops


def _frozen(rows: gen.Rows) -> dict[str, frozenset[tuple]]:
    return {relation: frozenset(values) for relation, values in rows.items()}


def _graph(name: str, rows: gen.Rows, warmup: list[Op], round_: list[Op], states: list) -> Workload:
    return Workload(
        name=name,
        schema=graph_search.schema(),
        access_schema=graph_search.access_schema(),
        views=graph_search.views(),
        access=gen.GRAPH_ACCESS,
        view_defs=gen.GRAPH_VIEWS,
        rows=rows,
        prepared={name: gen.text(query) for name, query in gen.PREPARED.items()},
        warmup=warmup,
        round=round_,
        states=states,
    )


class _GraphReads:
    """The hot_reads query set, also read by write_mix.

    Texts: Q0 for each of the 77 (studio, year) groups and 40 seeded
    studio/year lookups; the lookup is also prepared and executed with fresh
    parameters.  The 118 plans fit the 128-entry plan cache.  Latency is
    multi-modal (prepared lookups < text lookups < Q0); a round reads each
    mode about a third of the time, so the median sits inside the text
    lookup mode and p90 inside the Q0 mode, away from the boundaries where
    a small shift of the mix would move them.
    """

    def __init__(self, seed: int, generator: random.Random) -> None:
        q0s, lookups = gen.graph_read_set(seed, 40)
        self.q0 = [_read(q) for q in q0s]
        self.lookups = [_read(q) for q in lookups]
        self.prepared = [_prepared("lookup", gen.lookup_params(generator)) for _ in range(74)]
        self.warmup = [op for op in self.q0 + self.lookups + self.prepared[:1] for _ in range(3)]


def hot_reads(seed: int) -> Workload:
    """Warm reads of a working set that fits the plan cache, at ~58k tuples."""
    rows = gen.graph_rows(seed, persons=10_000, movies=2_000)
    generator = random.Random(seed + 1)
    reads = _GraphReads(seed, generator)
    # Each entry is planned, passes the codegen warm-up and runs compiled.
    round_reads = reads.q0 + reads.lookups * 2 + reads.prepared
    generator.shuffle(round_reads)
    round_ = _with_replays(generator, rows, round_reads, every=8, per_relation=3)
    return _graph("hot_reads", rows, reads.warmup, round_, [_frozen(rows)])


def write_mix(seed: int) -> Workload:
    """Update batches alternating with reads that re-plan after eviction."""
    rows = gen.graph_rows(seed, persons=1_000, movies=500)
    generator = random.Random(seed + 1)
    reads = _GraphReads(seed, generator)
    batches = gen.graph_write_batches(seed + 2, rows, batches=8)
    q0s, lookups, prepared = (
        generator.sample(ops, len(ops)) * copies
        for ops, copies in ((reads.q0, 3), (reads.lookups, 2), (reads.prepared, 2))
    )
    model = {relation: set(values) for relation, values in rows.items()}
    states = [_frozen(rows)]
    round_: list[Op] = []
    for index, updates in enumerate(batches):
        inserted = deleted = 0
        for is_insert, relation, row in updates:
            if is_insert and row not in model[relation]:
                model[relation].add(row)
                inserted += 1
            elif not is_insert and row in model[relation]:
                model[relation].remove(row)
                deleted += 1
        state = index + 1 if index < 8 else 15 - index
        if state == len(states):
            states.append({r: frozenset(v) for r, v in model.items()})
        round_.append(Op("apply", batch=_batch(updates), state=state, expect=(inserted, deleted)))
        # Every batch evicts every plan.  Ten Q0s, five lookups and five
        # prepared lookups are then read three times each: a text's first
        # read re-plans, and each query runs interpreted, interpreted, then
        # compiled again.  Over the 16 batches of a round every Q0 and every
        # lookup of the read set is read (in a seeded order), so the mix of
        # queries and modes does not depend on the seed's picks.  Latency
        # modes, slowest first: Q0 re-plans (1/6 of the reads), Q0
        # compiles with lookup re-plans (1/4), Q0 second reads with lookup
        # compiles (1/4), lookup second reads (1/12), prepared reads (1/4).
        # p90 sits 40 % into the slowest mode and p50 two thirds into the
        # third, each at least 6 % of the reads away from a mode boundary.
        chosen = (
            q0s[10 * index:10 * index + 10]
            + lookups[5 * index:5 * index + 5]
            + prepared[5 * index:5 * index + 5]
        )
        for op in chosen:
            round_.extend(replace(op, state=state) for _ in range(3))
    # Warm-up: the read set until compiled, then one whole round, so the
    # measured rounds start from the cyclic steady state.
    return _graph("write_mix", rows, reads.warmup + round_, round_, states)


def adhoc_cdr(seed: int) -> Workload:
    """A stream of distinct cold queries over the CDR instance."""
    rows = gen.cdr_rows(seed)
    generator = random.Random(seed + 1)
    queries = gen.cdr_query_stream(generator, rows, per_shape=60)
    warm = [q for q in gen.cdr_query_stream(random.Random(seed + 2), rows, per_shape=3) if q not in queries]
    reads = [_read(q) for q in queries + list(SLOW_PLANNING)]
    generator.shuffle(reads)
    return Workload(
        name="adhoc_cdr",
        schema=cdr.schema(),
        access_schema=cdr.access_schema(),
        views=cdr.views(),
        access=gen.CDR_ACCESS,
        view_defs=gen.CDR_VIEWS,
        rows=rows,
        prepared={},
        warmup=[_read(q) for q in warm[:10]],
        # A batch after every fourth read: 76 per round, enough for a steady
        # apply p90 in a window of one round.
        round=_with_replays(generator, rows, reads, every=4, per_relation=3),
        states=[_frozen(rows)],
        limit_s=ADHOC_LIMIT_S,
    )


def skewed_feed(seed: int) -> Workload:
    """Feed reads for a celebrity with 2,000 fans and for cold celebrities."""
    rows = gen.skewed_rows(seed)
    generator = random.Random(seed + 1)
    hot = [_read(gen.feed(gen.HOT_CELEB, team)) for team in ("t0", "t1")]
    pairs: dict[tuple[str, str], None] = {}
    while len(pairs) < 6:
        pairs[(f"c{generator.randrange(50)}", f"t{generator.randrange(2, 50)}")] = None
    cold = [_read(gen.feed(celeb, team)) for celeb, team in pairs]
    reads = hot + cold
    # Each query four times per round, a small redelivered batch after every
    # read: garbage collections (a full one scans the whole heap) then land
    # on many different operations of a round instead of phase-locking onto
    # one of a few.
    round_reads = [op for op in reads for _ in range(4)]
    generator.shuffle(round_reads)
    return Workload(
        name="skewed_feed",
        schema=skewed.schema(),
        access_schema=skewed.access_schema(),
        views=skewed.views(),
        access=gen.SKEWED_ACCESS,
        view_defs={},
        rows=rows,
        prepared={},
        # Eight executions each: planned, re-planned up to three times on
        # warm hits, then the last entry's codegen warm-up and compilation.
        warmup=[op for op in reads for _ in range(8)],
        round=_with_replays(generator, rows, round_reads, every=1, per_relation=3),
        states=[_frozen(rows)],
    )


WORKLOADS = {
    "hot_reads": hot_reads,
    "adhoc_cdr": adhoc_cdr,
    "write_mix": write_mix,
    "skewed_feed": skewed_feed,
}
