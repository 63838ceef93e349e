"""The four BENCH_e2e workloads: datasets, services, request sequences.

Imported by both the harness (``run.py``) and the server subprocess
(``serve.py``), so the two sides build byte-identical datasets and services
from nothing but a workload name.  The *dataset* of a workload is pinned
(``DATASET_SEED``): runs are comparable only when their instance hashes
match.  ``--seed`` drives the *request sequence* alone — order, literals,
written rows — so the program receives only generated inputs.

Each workload exists to put a different set of layers on the critical path
(see ``README.md``); ``why`` is the one-line version that ``BENCHMARK.json``
carries.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import QueryService  # noqa: E402
from repro.core.sharded_service import ShardedQueryService  # noqa: E402
from repro.data.database import Database  # noqa: E402
from repro.data.sailors import random_sailors_database, sailors_database  # noqa: E402
from repro.queries.catalog import CANONICAL_QUERIES  # noqa: E402

#: Every generated dataset uses this seed; the instance hash pins the result.
DATASET_SEED = 9


@dataclass(frozen=True)
class Request:
    """One distinct wire request.  ``tag`` names what the request exercises
    (``sql:Q3``, ``view``, ``scatter``, ...) for per-layer attribution;
    ``group`` ties together requests whose answers must be bag-equal."""

    kind: str                 # "read" | "write"
    body: dict[str, Any]
    tag: str
    group: "str | None" = None

    @property
    def path(self) -> str:
        return "/query" if self.kind == "read" else "/write"

    def encode(self) -> bytes:
        body = json.dumps(self.body).encode("utf-8")
        head = (f"POST {self.path} HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        return head + body


@dataclass
class Sequence:
    """A seeded request sequence: ``order`` indexes into ``distinct``."""

    distinct: list[Request]
    order: list[int]
    warmup: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class View:
    name: str
    text: str
    language: str = "sql"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (n_sailors, n_boats, n_reserves), or None for the tutorial's
    #: canonical 10-sailor instance.
    size: "tuple[int, int, int] | None"
    #: Measured requests per second of ``--seconds``: sized on the reference
    #: sandbox so the fixed-count window lasts about ``--seconds``.
    rate: float
    build_service: Callable[[Database], Any]
    build_sequence: Callable[[Database, int, int], Sequence]
    views: tuple[View, ...] = ()

    def requests_for(self, seconds: float, scale: float) -> int:
        return max(20, int(round(self.rate * seconds * scale)))

    def build_db(self, data_scale: float = 1.0) -> Database:
        if self.size is None:
            return sailors_database()
        n_sailors, n_boats, n_reserves = (
            max(10, int(n * data_scale)) for n in self.size)
        return random_sailors_database(
            n_sailors=n_sailors, n_boats=n_boats, n_reserves=n_reserves,
            seed=DATASET_SEED)

    def open_service(self, db: Database) -> Any:
        """The served configuration: service built, views registered."""
        service = self.build_service(db)
        for view in self.views:
            service.register_view(view.text, language=view.language,
                                  name=view.name)
        return service


def _read(text: str, language: str, tag: str,
          group: "str | None" = None) -> Request:
    return Request("read", {"text": text, "language": language}, tag, group)


def _blocks(rng: random.Random, n_items: int, n: int) -> list[int]:
    """``n`` indices in shuffled blocks: every item equally often."""
    order: list[int] = []
    while len(order) < n:
        block = list(range(n_items))
        rng.shuffle(block)
        order.extend(block)
    return order[:n]


# ---------------------------------------------------------------------------
# hot-read: every request a result-cache or fresh-view hit
# ---------------------------------------------------------------------------

HOT_VIEWS = (
    View("color_counts",
         "SELECT B.color, COUNT(*) AS n FROM Reserves R, Boats B "
         "WHERE R.bid = B.bid GROUP BY B.color"),
    View("rating_ages",
         "SELECT S.rating, AVG(S.age) AS avg_age, COUNT(*) AS n "
         "FROM Sailors S GROUP BY S.rating"),
)


def _hot_sequence(db: Database, seed: int, n: int) -> Sequence:
    bids = sorted(row[0] for row in db.relation("Boats").rows())
    page_bid = bids[min(5, len(bids) - 1)]  # 5 boats of ~n_reserves/n_boats rows
    distinct = [
        _read("SELECT COUNT(*) AS n FROM Reserves R", "sql", "small"),
        _read("SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid "
              f"AND R.bid = {bids[0]} AND S.rating = 10", "sql", "small"),
        _read("project[sname, age](select[age > 69](Sailors))", "ra", "small"),
        _read("{ s.sname | Sailors(s) and s.rating = 10 and s.age > 60 }",
              "trc", "small"),
        *(_read(view.text, view.language, "view") for view in HOT_VIEWS),
        _read("SELECT S.sid, S.sname, S.age FROM Sailors S WHERE S.rating > 5",
              "sql", "page"),
        _read("SELECT R.sid, R.bid, R.day FROM Reserves R "
              f"WHERE R.bid < {page_bid}", "sql", "page"),
    ]
    order = _blocks(random.Random(seed), len(distinct), n)
    return Sequence(distinct, order, warmup=list(range(len(distinct))))


# ---------------------------------------------------------------------------
# five-lang-cold: catalog Q1-Q5 x five languages, a fresh literal each time
# ---------------------------------------------------------------------------

#: Distinct ``age > a`` literals per (query, language): 25 x 100 = 2500
#: distinct texts, cycled in one fixed seeded permutation — so the reuse
#: distance (2500) exceeds result_cache_size (1024) and plan_cache_size
#: (256) and every request parses, lowers, optimizes and executes.
FIVE_LANG_LITERALS = 100


def five_language_texts(query: Any, literal: str) -> dict[str, str]:
    """Catalog query ``query`` restricted to sailors with ``age > literal``,
    in all five languages (the same restriction, so answers stay equal)."""
    datalog = "\n".join(
        line.replace("sailors(S, N, R, A),",
                     f"sailors(S, N, R, A), A > {literal},")
        if line.startswith("ans(") else line
        for line in query.datalog.split("\n"))
    return {
        "sql": query.sql.replace("WHERE ", f"WHERE S.age > {literal} AND ", 1),
        "ra": query.ra.replace(
            "project[sname](Sailors njoin",
            f"project[sname](select[age > {literal}](Sailors) njoin"),
        "trc": query.trc.replace(
            "Sailors(s) and", f"Sailors(s) and s.age > {literal} and", 1),
        "drc": query.drc.replace(
            "Sailors(s, n, r, a) and",
            f"Sailors(s, n, r, a) and a > {literal} and", 1),
        "datalog": datalog,
    }


def _five_lang_sequence(db: Database, seed: int, n: int) -> Sequence:
    del db
    rng = random.Random(seed)
    distinct: list[Request] = []
    cycle: list[int] = []
    literals = list(range(FIVE_LANG_LITERALS))
    rng.shuffle(literals)
    for k in literals:
        literal = f"{10 + 0.6 * k:.2f}"   # 10.00 .. 69.40 spans every age
        block = []
        for query in CANONICAL_QUERIES:
            texts = five_language_texts(query, literal)
            for language, text in texts.items():
                block.append(len(distinct))
                distinct.append(_read(text, language, f"{language}:{query.id}",
                                      group=f"{query.id}@{literal}"))
        # Each block of 25 holds every (query, language) once, so any whole
        # number of blocks is the same mix of work whatever the seed.
        rng.shuffle(block)
        cycle.extend(block)
    per_block = len(cycle) // FIVE_LANG_LITERALS      # 5 queries x 5 languages
    n = max(per_block, n - n % per_block)
    order = (cycle * (n // len(cycle) + 1))[:n]
    # Warm up on the cycle's tail: those texts recur 2475 requests into the
    # window, long after the LRU result cache (1024) has dropped them.
    return Sequence(distinct, order, warmup=cycle[-per_block:])


# ---------------------------------------------------------------------------
# analytic-cold: execution-bound literal-varied templates
# ---------------------------------------------------------------------------

ANALYTIC_TEMPLATES = (
    ("minmax",
     "SELECT R.bid, MIN(R.day) AS first_day, MAX(R.day) AS last_day, "
     "COUNT(*) AS n FROM Reserves R WHERE R.sid > {k} GROUP BY R.bid"),
    ("chain4",
     "SELECT S.sname, B.bname FROM Sailors S, Reserves R, Boats B, "
     "Reserves R2 WHERE S.sid = R.sid AND R.bid = B.bid AND R2.sid = S.sid "
     "AND R2.bid = B.bid AND B.color = 'red' AND S.rating > 8 "
     "AND S.age > {a}"),
    ("joinavg",
     "SELECT B.color, AVG(S.age) AS avg_age, COUNT(*) AS n FROM Sailors S, "
     "Reserves R, Boats B WHERE S.sid = R.sid AND R.bid = B.bid "
     "AND S.age > {a} GROUP BY B.color"),
    ("distinct",
     "SELECT DISTINCT S.sid, S.sname FROM Sailors S, Reserves R "
     "WHERE S.sid = R.sid AND S.age > {a}"),
)


def _analytic_sequence(db: Database, seed: int, n: int) -> Sequence:
    del db
    if n > 4000:
        raise ValueError("analytic-cold has 4000 distinct literal pairs")
    rng = random.Random(seed)
    # Every request carries a literal no earlier request had, so nothing is
    # ever cached.  a sweeps 16.000..25.999 and k 0..999 — both below the
    # bulk of the data, so selectivity (and with it the work per template)
    # moves by a few percent, not by factors.
    ages = rng.sample(range(10000), n)
    sids = rng.sample(range(1000), -(-n // len(ANALYTIC_TEMPLATES)))
    distinct = []
    for i in range(n):
        tag, template = ANALYTIC_TEMPLATES[i % len(ANALYTIC_TEMPLATES)]
        text = template.format(k=sids[i // len(ANALYTIC_TEMPLATES)],
                               a=f"{16 + ages[i] / 1000:.3f}")
        distinct.append(_read(text, "sql", tag))
    return Sequence(distinct, list(range(n)))


# ---------------------------------------------------------------------------
# sharded-write-mix: writes beside reads over the process backend
# ---------------------------------------------------------------------------

MIX_VIEWS = (
    View("boat_counts",
         "SELECT R.bid, COUNT(*) AS n FROM Reserves R GROUP BY R.bid"),
    View("color_counts",
         "SELECT B.color, COUNT(*) AS n FROM Reserves R, Boats B "
         "WHERE R.bid = B.bid GROUP BY B.color"),
)
MIX_SCATTER = (
    "SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS avg_age "
    "FROM Sailors S, Reserves R WHERE S.sid = R.sid GROUP BY S.rating")
MIX_WRITE_ROWS = 10
#: One cycle: the write first, so the six view reads and the first scatter
#: of the cycle pay for it (refresh / recompute) and the second scatter hits.
MIX_CYCLE = ("write", "view0", "scatter", "view1", "view0", "point",
             "view1", "scatter", "view0", "view1")


def _mix_sequence(db: Database, seed: int, n: int) -> Sequence:
    rng = random.Random(seed)
    sids = sorted(row[0] for row in db.relation("Sailors").rows())
    bids = sorted(row[0] for row in db.relation("Boats").rows())
    # A different sailor every cycle (while they last): a repeated lookup
    # text would hit the plan cache, and the counts would move with the seed.
    point_sids = rng.sample(sids, len(sids))
    fixed = {
        "view0": _read(MIX_VIEWS[0].text, "sql", "view"),
        "view1": _read(MIX_VIEWS[1].text, "sql", "view"),
        "scatter": _read(MIX_SCATTER, "sql", "scatter"),
    }
    distinct = list(fixed.values())
    slot = {name: i for i, name in enumerate(fixed)}
    order: list[int] = []
    cycle = 0
    while len(order) < n:
        for step in MIX_CYCLE:
            if step == "write":
                rows = [[rng.choice(sids), rng.choice(bids),
                         f"2001-{1 + cycle % 12:02d}-{1 + i:02d}#{cycle}"]
                        for i in range(MIX_WRITE_ROWS)]
                distinct.append(Request(
                    "write", {"relation": "Reserves", "rows": rows}, "write"))
                order.append(len(distinct) - 1)
            elif step == "point":
                distinct.append(_read(
                    "SELECT R.bid, R.day FROM Reserves R "
                    f"WHERE R.sid = {point_sids[cycle % len(point_sids)]}",
                    "sql", "point"))
                order.append(len(distinct) - 1)
            else:
                order.append(slot[step])
        cycle += 1
    # Whole cycles only: the per-write counts (one recompute, one hit) hold.
    n_whole = max(len(MIX_CYCLE), n - n % len(MIX_CYCLE))
    return Sequence(distinct, order[:n_whole],
                    warmup=[slot["view0"], slot["view1"], slot["scatter"]])


def _mix_service(db: Database) -> Any:
    return ShardedQueryService(db, backend="process", n_shards=2,
                               workers=min(2, os.cpu_count() or 1))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="hot-read",
        why="8 hot texts, every request a result-cache or fresh-view hit: "
            "server.* and the cache lookup do all the work, the engine none",
        size=(2400, 100, 24000), rate=2200.0,
        build_service=QueryService, build_sequence=_hot_sequence,
        views=HOT_VIEWS),
    Workload(
        name="five-lang-cold",
        why="catalog Q1-Q5 in five languages with 2500 distinct literals: "
            "every request parses, lowers, optimizes; execution is trivial",
        size=None, rate=740.0,
        build_service=QueryService, build_sequence=_five_lang_sequence),
    Workload(
        name="analytic-cold",
        why="literal-varied 25-45 ms aggregates and joins over 48k rows: "
            "vectorized execution is >=80% of the time, front-end a sliver",
        size=(4800, 100, 48000), rate=30.0,
        build_service=lambda db: QueryService(db, backend="vectorized"),
        build_sequence=_analytic_sequence),
    Workload(
        name="sharded-write-mix",
        why="writes beside view reads, scatter-gather and routed lookups on "
            "the process backend: caches, segments, view partials churn",
        size=(2400, 100, 24000), rate=140.0,
        build_service=_mix_service, build_sequence=_mix_sequence,
        views=MIX_VIEWS),
)}
