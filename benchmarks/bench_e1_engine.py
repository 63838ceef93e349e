"""Experiment E1: the unified plan engine vs. the reference interpreters.

The engine compiles all five languages into one logical plan IR, optimizes it
(pushdown, join reordering, CSE), and executes it with hash joins — replacing
the interpreters' nested-loop products on the hot path.  This harness
measures that replacement on two workload families and emits a JSON artifact
(machine-readable, one blob per table) alongside the usual tables:

* **join-heavy**: an n-way equi-join chain where the interpreter's FROM
  expansion is a materialized cross product;
* **recursive**: transitive closure, naive fixpoint vs. the engine's
  semi-naive evaluation.

The catalog matrix also reports the **five-language grid**: the engine's
execution time for each of the 25 catalog texts on a 24,000-reservation
instance, on the ``vectorized`` and ``row`` backends, with each query's
slowest/fastest ratio across its five spellings.  One query should cost
about the same whatever language it is written in.  The grid is reported,
not gated: its cells carry no ``speedup``.

Shape to reproduce: the engine wins by orders of magnitude and the gap grows
with both the join arity and the data size, while both sides return
identical answers (asserted, not assumed).
"""

from __future__ import annotations

import gc
import json
import time

from conftest import print_table

from repro.data.database import Database
from repro.data.relation import relation_from_rows
from repro.data.sailors import random_sailors_database
from repro.datalog.evaluate import evaluate_datalog
from repro.engine import execute_plan, lower, optimize, run_query
from repro.queries import CANONICAL_QUERIES
from repro.sql.evaluate import evaluate_sql


def _chain_sql(n_reserves_refs: int) -> str:
    tables = ["Sailors S", "Boats B"] + [f"Reserves R{i}" for i in range(n_reserves_refs)]
    conditions = ["B.color = 'red'"]
    for i in range(n_reserves_refs):
        conditions.append(f"S.sid = R{i}.sid")
        conditions.append(f"R{i}.bid = B.bid")
    return (f"SELECT DISTINCT S.sname FROM {', '.join(tables)} "
            f"WHERE {' AND '.join(conditions)}")


def _edge_db(n: int) -> Database:
    edges = [(i, i + 1) for i in range(1, n)] + [(n // 2, 2), (n - 1, n // 3)]
    return Database([
        relation_from_rows("edge", [("src", "int"), ("dst", "int")], edges)
    ])


TC_PROGRAM = ("tc(X, Y) :- edge(X, Y).\n"
              "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
              "ans(X, Y) :- tc(X, Y).")


def _timed(fn):
    # Start from a collected heap: a ~1 ms cell timed once must not absorb a
    # collection owed by earlier allocations (one import more or less moves
    # where it lands).
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_e1_join_heavy_artifact(capsys):
    # Sized so the interpreter's materialized FROM product (sailors x boats x
    # reserves^n) stays CI-friendly while still losing by orders of magnitude.
    db = random_sailors_database(n_sailors=12, n_boats=5, n_reserves=12, seed=9)
    rows = []
    artifact = {"experiment": "E1-join-heavy",
                "database": {"sailors": 12, "boats": 5, "reserves": 12},
                "cells": []}
    run_query(_chain_sql(1), db, "sql")  # warm both code paths before timing
    evaluate_sql(_chain_sql(1), db)
    for refs in (1, 2, 3):
        sql = _chain_sql(refs)
        interp, interp_s = _timed(lambda: evaluate_sql(sql, db))
        engine, engine_s = _timed(lambda: run_query(sql, db, "sql"))
        assert engine.bag_equal(interp), f"{refs}-reference chain disagrees"
        speedup = interp_s / engine_s if engine_s > 0 else float("inf")
        rows.append([refs + 2, len(engine),
                     f"{interp_s * 1000:.1f}", f"{engine_s * 1000:.1f}",
                     f"{speedup:.0f}x"])
        artifact["cells"].append({
            "tables": refs + 2, "answer_rows": len(engine),
            "interpreter_ms": round(interp_s * 1000, 2),
            "engine_ms": round(engine_s * 1000, 2),
            "speedup": round(speedup, 1),
        })
    with capsys.disabled():
        print_table(
            "E1: n-way join chain, SQL interpreter vs unified engine",
            ["tables", "answers", "interpreter ms", "engine ms", "speedup"],
            rows,
        )
        print("E1-JSON " + json.dumps(artifact))


def test_e1_catalog_artifact(db, capsys):
    """Engine vs interpreter on every catalog query, every language."""
    from repro.translate.equivalence import answer_relation

    rows = []
    artifact = {"experiment": "E1-catalog", "cells": []}
    for query in CANONICAL_QUERIES:
        for language, text in query.languages().items():
            interp, interp_s = _timed(lambda: answer_relation(text, db))
            engine, engine_s = _timed(lambda: run_query(text, db, language.lower()))
            assert engine.bag_equal(interp), f"{query.id}/{language} disagrees"
            rows.append([query.id, language, len(engine),
                         f"{interp_s * 1000:.2f}", f"{engine_s * 1000:.2f}"])
            artifact["cells"].append({
                "query": query.id, "language": language,
                "interpreter_ms": round(interp_s * 1000, 3),
                "engine_ms": round(engine_s * 1000, 3),
            })
    grid_rows, artifact["grid"] = _catalog_grid()
    with capsys.disabled():
        print_table(
            "E1: 5x5 catalog matrix, interpreter vs engine (cow-book instance)",
            ["query", "language", "answers", "interpreter ms", "engine ms"],
            rows,
        )
        print_table(
            "E1: five-language grid, engine execution ms (best of "
            f"{GRID_REPEATS}, {GRID_DB['n_reserves']} reservations)",
            ["query", "backend", *CANONICAL_QUERIES[0].languages(),
             "slowest / fastest"],
            grid_rows,
        )
        print("E1-JSON " + json.dumps(artifact))


#: The grid's instance (the five-language comparison in ROADMAP.md).
GRID_DB = {"n_sailors": 2400, "n_boats": 100, "n_reserves": 24000, "seed": 13}
GRID_REPEATS = 5


def _catalog_grid() -> tuple[list[list[str]], dict]:
    """Each catalog text's optimized plan executed on both backends (the
    answers asserted equal), best of ``GRID_REPEATS``: table rows and the
    artifact's ``grid`` (no ``speedup`` key, so nothing is gated)."""
    db = random_sailors_database(**GRID_DB)
    rows, cells = [], []
    for query in CANONICAL_QUERIES:
        plans = {language: optimize(lower(text, db.schema, language.lower()), db)
                 for language, text in query.languages().items()}
        answers = {}
        for backend in ("vectorized", "row"):
            times = {}
            for language, plan in plans.items():
                best = float("inf")
                for _ in range(GRID_REPEATS):
                    answer, seconds = _timed(
                        lambda: execute_plan(plan, db, backend=backend))
                    best = min(best, seconds)
                answers.setdefault(language, answer)
                assert answer.bag_equal(answers[language]), \
                    f"{query.id}/{language}: backends disagree"
                times[language] = best * 1000
            ratio = max(times.values()) / max(min(times.values()), 1e-9)
            rows.append([query.id, backend,
                         *(f"{ms:.2f}" for ms in times.values()),
                         f"{ratio:.1f}x"])
            cells.append({"query": query.id, "backend": backend,
                          "engine_ms": {k: round(v, 3)
                                        for k, v in times.items()},
                          "slowest_over_fastest": round(ratio, 2)})
    return rows, {"database": GRID_DB, "repeats": GRID_REPEATS,
                  "cells": cells}


def test_e1_recursive_artifact(capsys):
    rows = []
    artifact = {"experiment": "E1-recursive", "program": "transitive closure",
                "cells": []}
    for nodes in (15, 30, 45):
        db = _edge_db(nodes)
        naive, naive_s = _timed(lambda: evaluate_datalog(TC_PROGRAM, db))
        engine, engine_s = _timed(lambda: run_query(TC_PROGRAM, db, "datalog"))
        assert engine.bag_equal(naive), f"TC({nodes}) disagrees"
        speedup = naive_s / engine_s if engine_s > 0 else float("inf")
        rows.append([nodes, len(engine), f"{naive_s * 1000:.1f}",
                     f"{engine_s * 1000:.1f}", f"{speedup:.1f}x"])
        artifact["cells"].append({
            "nodes": nodes, "tc_facts": len(engine),
            "naive_ms": round(naive_s * 1000, 2),
            "semi_naive_ms": round(engine_s * 1000, 2),
            "speedup": round(speedup, 1),
        })
    with capsys.disabled():
        print_table(
            "E1: transitive closure, naive fixpoint vs semi-naive engine",
            ["graph nodes", "tc facts", "naive ms", "semi-naive ms", "speedup"],
            rows,
        )
        print("E1-JSON " + json.dumps(artifact))


def test_e1_engine_latency_q4(benchmark, db):
    """Engine latency on the hardest catalog query (Q4, double negation)."""
    sql = CANONICAL_QUERIES[3].sql
    result = benchmark(lambda: run_query(sql, db, "sql"))
    assert {row[0] for row in result.distinct_rows()} == {"Dustin", "Lubber"}


def test_e1_engine_latency_recursion(benchmark):
    db = _edge_db(30)
    result = benchmark(lambda: run_query(TC_PROGRAM, db, "datalog"))
    assert len(result) > 30
