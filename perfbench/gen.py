"""Seeded input generators for the serving benchmark.

Everything a run feeds the program (rows, query texts, prepared-query
parameters, update batches) is produced here from ``random.Random(seed)``.
Every draw picks from a list whose order is fixed by construction or by
sorting, never from set or dict iteration order, so the inputs are
byte-identical under any ``PYTHONHASHSEED``.  Nothing here imports the
program: its own generators are not used (see README.md for why).

A query is a :class:`CQ` over plain Python values; :func:`text` renders it in
the program's Datalog-style syntax and :mod:`naive` evaluates it directly.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass

# --------------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Par:
    """A named parameter of a prepared query (``:name`` in the text)."""

    name: str


@dataclass(frozen=True)
class CQ:
    """``head :- atoms``; a term is a :class:`Var`, a :class:`Par` or a value."""

    head: tuple[Var, ...]
    atoms: tuple[tuple[str, tuple[object, ...]], ...]


def _term_text(term: object) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Par):
        return ":" + term.name
    if isinstance(term, str):
        return "'" + term + "'"
    return str(term)


def text(query: CQ) -> str:
    """The query in the program's text syntax."""
    head = ", ".join(v.name for v in query.head)
    body = ", ".join(
        f"{relation}({', '.join(_term_text(t) for t in terms)})"
        for relation, terms in query.atoms
    )
    return f"Q({head}) :- {body}"


def bind(query: CQ, params: dict[str, object]) -> CQ:
    """Substitute parameter values (for the naive evaluator)."""
    return CQ(
        query.head,
        tuple(
            (rel, tuple(params[t.name] if isinstance(t, Par) else t for t in terms))
            for rel, terms in query.atoms
        ),
    )


def _v(*names: str) -> tuple[Var, ...]:
    return tuple(Var(n) for n in names)


# --------------------------------------------------------------------------- #
# Sampling helpers
# --------------------------------------------------------------------------- #


def zipf_cumulative(n: int, skew: float) -> list[float]:
    """Cumulative Zipf weights over ``[0, n)``, built once per population."""
    return list(itertools.accumulate(1.0 / (i + 1) ** skew for i in range(n)))


def zipf_draw(generator: random.Random, cumulative: list[float]) -> int:
    index = bisect.bisect_left(cumulative, generator.random() * cumulative[-1])
    return min(index, len(cumulative) - 1)


def digest(obj: object) -> str:
    """A short digest of the repr of nested lists/tuples of plain values."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


Rows = dict[str, list[tuple]]

# --------------------------------------------------------------------------- #
# Graph search (Example 1.1): person / movie / rating / like
# --------------------------------------------------------------------------- #

STUDIOS = ("Disney", "Lionsgate", "MGM", "Paramount", "Sony", "Universal", "Warner")
YEARS = tuple(str(year) for year in range(2005, 2016))
AFFILIATIONS = ("Beihang", "CERN", "EPFL", "ESA", "Edinburgh", "MIT", "NASA")
OTHER_AFFILIATIONS = tuple(a for a in AFFILIATIONS if a != "NASA")
N0 = 100


def graph_rows(seed: int, persons: int, movies: int, likes_per_person: int = 5) -> Rows:
    """A graph-search instance satisfying A0, with three planted Q0 answers.

    Exactly 2 % of the persons work at NASA.  Movies are dealt round-robin
    to the (studio, release) groups in a seeded order, so every group holds
    the same number of movies (±1) and the instance satisfies A0 up to
    77·(N0 - 3) movies.  Likes follow a Zipf law over movies, drawn by
    bisection on precomputed weights.  Counts that the work of a query
    depends on are fixed, so seeds change which rows exist, not how many.
    """
    generator = random.Random(seed)
    rows: Rows = {"person": [], "movie": [], "rating": [], "like": []}
    pids = [f"p_{i:06d}" for i in range(persons)]
    nasa = set(generator.sample(range(persons), persons // 50))
    for i, pid in enumerate(pids):
        affiliation = "NASA" if i in nasa else generator.choice(OTHER_AFFILIATIONS)
        rows["person"].append((pid, f"name_{i}", affiliation))
    groups = [(s, y) for s in STUDIOS for y in YEARS]
    generator.shuffle(groups)
    mids = [f"m_{i:06d}" for i in range(movies)]
    for i, mid in enumerate(mids):
        studio, year = groups[i % len(groups)]
        rows["movie"].append((mid, f"title_{i}", studio, year))
        rows["rating"].append((mid, generator.randint(1, 5)))
    cumulative = zipf_cumulative(movies, 1.2)
    for pid in pids:
        liked = dict.fromkeys(mids[zipf_draw(generator, cumulative)] for _ in range(likes_per_person))
        rows["like"].extend((pid, mid, "movie") for mid in liked)
    planted = f"p_{persons:06d}"
    rows["person"].append((planted, "planted_nasa", "NASA"))
    for index in range(3):
        mid = f"m_{movies + index:06d}"
        rows["movie"].append((mid, f"planted_title_{index}", "Universal", "2014"))
        rows["rating"].append((mid, 5))
        rows["like"].append((planted, mid, "movie"))
    return rows


GRAPH_VIEWS = {
    # V1(mid): movies liked by people at NASA; V2(pid): people at NASA.
    "V1": CQ(
        _v("mid"),
        (
            ("person", (Var("xp"), Var("xn"), "NASA")),
            ("movie", (Var("mid"), Var("ym"), Var("z1"), Var("z2"))),
            ("like", (Var("xp"), Var("mid"), "movie")),
        ),
    ),
    "V2": CQ(_v("pid"), (("person", (Var("pid"), Var("name"), "NASA")),)),
}

# (relation, X positions, Y positions, N): the access schema A0.
GRAPH_ACCESS = (("movie", (2, 3), (0,), N0), ("rating", (0,), (1,), 1))


def q0(studio: str, year: str, rank: object) -> CQ:
    """Q0 with its studio, year and rank constants (or parameters)."""
    return CQ(
        _v("mid"),
        (
            ("person", (Var("xp"), Var("xn"), "NASA")),
            ("movie", (Var("mid"), Var("ym"), studio, year)),
            ("like", (Var("xp"), Var("mid"), "movie")),
            ("rating", (Var("mid"), rank)),
        ),
    )


def lookup(studio: object, year: object) -> CQ:
    """Movies of one studio and year with their rating."""
    return CQ(
        _v("m", "r"),
        (("movie", (Var("m"), Var("t"), studio, year)), ("rating", (Var("m"), Var("r")))),
    )


def graph_read_set(seed: int, lookups: int) -> tuple[list[CQ], list[CQ]]:
    """Q0 (rated 5) for every studio and year, and distinct seeded lookups."""
    generator = random.Random(seed)
    q0s = [q0(s, y, 5) for s in STUDIOS for y in YEARS]
    return q0s, generator.sample([lookup(s, y) for s in STUDIOS for y in YEARS], lookups)


# The prepared query of the graph workloads, executed with fresh parameters.
PREPARED = {"lookup": lookup(Par("studio"), Par("year"))}


def lookup_params(generator: random.Random) -> dict[str, object]:
    return {"studio": generator.choice(STUDIOS), "year": generator.choice(YEARS)}


def graph_write_batches(seed: int, rows: Rows, batches: int) -> list[list[tuple[bool, str, tuple]]]:
    """``batches`` update batches, then their inverses in reverse order.

    Each forward batch has the same make-up: 8 new persons with a like each,
    5 new movies with their rating, 8 new likes, 10 deleted likes and 6
    deleted persons (50 updates).  Inserted movies go to groups with room under
    ``N0``, so every update is admissible under A0.  Replaying the inverses
    returns the database to its initial state, so every round of a run
    applies exactly the same transactions to exactly the same states.
    """
    generator = random.Random(seed)
    fill = {(s, y): 0 for s in STUDIOS for y in YEARS}
    for _, _, studio, year in rows["movie"]:
        fill[(studio, year)] += 1
    open_groups = [g for g in fill if fill[g] < N0 - 3]
    mids = [row[0] for row in rows["movie"]]
    pids = [row[0] for row in rows["person"]]
    people = list(rows["person"])
    likes = list(rows["like"])
    present = set(likes)  # inserted likes must be new rows
    deleted: set[tuple] = set()  # ... and no row is deleted twice
    forward: list[list[tuple[bool, str, tuple]]] = []
    for b in range(batches):
        batch: list[tuple[bool, str, tuple]] = []
        # Every batch touches all four relations, in the same proportions.
        kinds = ["new_person"] * 8 + ["new_movie"] * 5 + ["like"] * 8 + ["unlike"] * 10 + ["gone"] * 6
        generator.shuffle(kinds)
        for kind in kinds:
            tag = f"{b:03d}_{len(batch):03d}"
            if kind == "new_person":
                pid = f"pw_{tag}"
                batch.append((True, "person", (pid, f"writer_{tag}", generator.choice(AFFILIATIONS))))
                batch.append((True, "like", (pid, generator.choice(mids), "movie")))
            elif kind == "new_movie":
                group = generator.choice(open_groups)
                fill[group] += 1
                if fill[group] >= N0 - 3:
                    open_groups.remove(group)
                mid = f"mw_{tag}"
                batch.append((True, "movie", (mid, f"new_title_{tag}", group[0], group[1])))
                batch.append((True, "rating", (mid, generator.randint(1, 5))))
            else:
                # Every update changes the state, so the inverses undo it:
                # inserted likes are new rows, no row is deleted twice.
                while True:
                    if kind == "like":
                        update = (True, "like", (generator.choice(pids), generator.choice(mids), "movie"))
                    elif kind == "unlike":
                        update = (False, "like", likes[generator.randrange(len(likes))])
                    else:
                        update = (False, "person", people[generator.randrange(len(people))])
                    seen = present if update[0] else deleted
                    if update[2] not in seen:
                        seen.add(update[2])
                        batch.append(update)
                        break
        forward.append(batch)
    backward = [[(not ins, rel, row) for ins, rel, row in reversed(batch)] for batch in reversed(forward)]
    return forward + backward


# --------------------------------------------------------------------------- #
# CDR: customer / call / cell / plan
# --------------------------------------------------------------------------- #

REGIONS = ("centre", "east", "north", "south", "west")
PLANS = ("basic", "standard", "premium", "business")
MAX_CALLS_PER_DAY = 20
MAX_INCOMING_PER_DAY = 30


def cdr_rows(seed: int, customers: int = 500, days: int = 7, cells: int = 50) -> Rows:
    """A CDR instance satisfying the CDR access schema (keys, per-day caps)."""
    generator = random.Random(seed)
    rows: Rows = {"customer": [], "call": [], "cell": [], "plan": []}
    rows["plan"] = [(f"plan_{i}", name, 10 + 5 * i) for i, name in enumerate(PLANS)]
    cell_ids = [f"cell_{i:04d}" for i in range(cells)]
    rows["cell"] = [(cid, REGIONS[i % len(REGIONS)], f"city_{i % 20}") for i, cid in enumerate(cell_ids)]
    phones = [f"ph_{i:06d}" for i in range(customers)]
    plan_weights = zipf_cumulative(len(PLANS), 1.0)
    for i, phone in enumerate(phones):
        plan = PLANS[zipf_draw(generator, plan_weights)]
        rows["customer"].append((phone, f"customer_{i}", plan, REGIONS[i % len(REGIONS)]))
    phone_weights = zipf_cumulative(customers, 1.1)
    cell_weights = zipf_cumulative(cells, 1.1)
    incoming: dict[tuple[str, int], int] = {}
    for phone in phones:
        for day in range(1, days + 1):
            callees: set[str] = set()
            for _ in range(generator.randint(0, 4)):
                callee = phones[zipf_draw(generator, phone_weights)]
                if callee == phone or callee in callees or incoming.get((callee, day), 0) >= MAX_INCOMING_PER_DAY:
                    continue
                callees.add(callee)
                incoming[(callee, day)] = incoming.get((callee, day), 0) + 1
                cell = cell_ids[zipf_draw(generator, cell_weights)]
                rows["call"].append((phone, callee, day, generator.randint(10, 3600), cell))
    return rows


CDR_VIEWS = {
    "V_premium": CQ(_v("phone"), (("customer", (Var("phone"), Var("n"), "premium", Var("r"))),)),
    "V_north": CQ(_v("phone"), (("customer", (Var("phone"), Var("n"), Var("p"), "north")),)),
    "V_daily": CQ(
        _v("caller", "day"),
        (("call", (Var("caller"), Var("callee"), Var("day"), Var("d"), Var("c"))),),
    ),
}

CDR_ACCESS = (
    ("customer", (0,), (1, 2, 3), 1),
    ("call", (0, 2), (1,), MAX_CALLS_PER_DAY),
    ("call", (0, 2), (1, 3, 4), MAX_CALLS_PER_DAY),
    ("call", (1, 2), (0,), MAX_INCOMING_PER_DAY),
    ("cell", (0,), (1, 2), 1),
    ("plan", (0,), (1, 2), 1),
)


# The domain of each CDR column: a client joins a phone with a phone, a day
# with a day, and so on.
CDR_DOMAINS = {
    "customer": ("phone", "name", "plan_name", "region"),
    "call": ("phone", "phone", "day", "duration", "cell"),
    "cell": ("cell", "region", "city"),
    "plan": ("plan_id", "plan_name", "rate"),
}


def _call(caller: object, callee: object, day: object, suffix: str = "") -> tuple[str, tuple]:
    return ("call", (caller, callee, day, Var("d" + suffix), Var("c" + suffix)))


def _customer(phone: object, suffix: str = "", region: object = None) -> tuple[str, tuple]:
    region = region if region is not None else Var("r" + suffix)
    return ("customer", (phone, Var("n" + suffix), Var("p" + suffix), region))


# Query shapes a CDR client sends, anchored on a phone and a day: callees
# with the region of the cell used, callee profiles, both together, both with
# the callee's plan rate, and two-hop call chains.
CDR_SHAPES = {
    "calls_region": lambda ph, day: CQ(
        _v("y", "reg"), (_call(ph, Var("y"), day), ("cell", (Var("c"), Var("reg"), Var("city"))))
    ),
    "callee_profile": lambda ph, day: CQ(_v("y", "p"), (_call(ph, Var("y"), day), _customer(Var("y")))),
    "callee_cell": lambda ph, day: CQ(
        _v("y", "city"),
        (_call(ph, Var("y"), day), _customer(Var("y")), ("cell", (Var("c"), Var("reg"), Var("city")))),
    ),
    "callee_rate": lambda ph, day: CQ(
        _v("y", "rate"),
        (
            _call(ph, Var("y"), day),
            _customer(Var("y")),
            ("cell", (Var("c"), Var("reg"), Var("city"))),
            ("plan", (Var("pid"), Var("p"), Var("rate"))),
        ),
    ),
    "two_hop": lambda ph, day: CQ(_v("z"), (_call(ph, Var("y"), day), _call(Var("y"), Var("z"), day, "2"))),
}


def region_analysis(region_a: str, region_b: str) -> CQ:
    """All calls from customers of one region to customers of another."""
    return CQ(
        _v("x", "y"),
        (
            _call(Var("x"), Var("y"), Var("day")),
            _customer(Var("x"), "1", region=region_a),
            _customer(Var("y"), "2", region=region_b),
        ),
    )


def cdr_query_stream(generator: random.Random, rows: Rows, per_shape: int) -> list[CQ]:
    """``per_shape`` distinct queries of each shape with constants drawn from
    the data, then the five region-to-next-region analytics (full scans)."""
    phones = [row[0] for row in rows["customer"]]
    queries: dict[CQ, None] = {}
    for name in sorted(CDR_SHAPES):
        made = 0
        while made < per_shape:
            query = CDR_SHAPES[name](generator.choice(phones), generator.randint(1, 7))
            if query not in queries:
                queries[query] = None
                made += 1
    for i, region in enumerate(REGIONS):
        queries[region_analysis(region, REGIONS[(i + 1) % len(REGIONS)])] = None
    return list(queries)


# --------------------------------------------------------------------------- #
# Skewed social feed: follows / staff / contacted
# --------------------------------------------------------------------------- #

HOT_CELEB = "c_hot"
HOT_TEAM = "t0"


def skewed_rows(
    seed: int,
    hot_fans: int = 2000,
    cold_celebs: int = 50,
    cold_fans_each: int = 4,
    teams: int = 50,
    team_size: int = 5,
    users: int = 5000,
    contacts_per_user: int = 8,
) -> Rows:
    """One celebrity with ``hot_fans`` followers, cold ones with a handful.

    Users contact agents round-robin with a seeded stride, which keeps every
    agent's book near ``users · contacts_per_user / agents`` and so within
    the ``contacted(agent -> user, 200)`` bound.
    """
    generator = random.Random(seed)
    rows: Rows = {"follows": [], "staff": [], "contacted": []}
    rows["follows"] = [(HOT_CELEB, f"fan{i}") for i in range(hot_fans)]
    for c in range(cold_celebs):
        fans = sorted({generator.randrange(users) for _ in range(cold_fans_each)})
        rows["follows"].extend((f"c{c}", f"fan{f}") for f in fans)
    agents = teams * team_size
    rows["staff"] = [(f"t{a // team_size}", f"agent{a}") for a in range(agents)]
    for user in range(users):
        stride = generator.randrange(1, 7)
        chosen = dict.fromkeys((user + k * stride) % agents for k in range(contacts_per_user))
        rows["contacted"].extend((f"fan{user}", f"agent{a}") for a in chosen)
    return rows


SKEWED_ACCESS = (
    ("follows", (0,), (1,), 4000),
    ("staff", (0,), (1,), 10),
    ("contacted", (0,), (1,), 20),
    ("contacted", (1,), (0,), 200),
)


def feed(celeb: str, team: str) -> CQ:
    """Q(fan, agent): fans of ``celeb`` who contacted an agent of ``team``."""
    return CQ(
        _v("fan", "agent"),
        (
            ("follows", (celeb, Var("fan"))),
            ("staff", (team, Var("agent"))),
            ("contacted", (Var("fan"), Var("agent"))),
        ),
    )


def replay_batch(generator: random.Random, rows: Rows, per_relation: int, tag: int) -> list[tuple[bool, str, tuple]]:
    """A redelivered batch: inserts of present rows, deletes of absent ones.

    At-least-once delivery resends batches the database already holds; the
    program must treat them as no-ops (nothing applied, nothing evicted).
    Each relation contributes ``per_relation`` inserts and as many deletes,
    so every batch costs about the same whatever rows the seed picks.
    """
    batch = []
    for relation in sorted(rows):
        for k in range(per_relation):
            row = rows[relation][generator.randrange(len(rows[relation]))]
            batch.append((True, relation, row))
            batch.append((False, relation, (f"gone_{tag}_{k}",) + row[1:]))
    return batch
