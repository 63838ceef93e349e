"""Experiment E2: the columnar executor.

**Row vs vectorized**, emitted as a table and a JSON artifact (printed
with an ``E2-JSON`` prefix and written under ``benchmarks/artifacts/``):
the batch-at-a-time backend against the row reference backend on the two
hot workload families: an n-way equi-join chain and a grouped
aggregation.  Both backends run the *same* optimized plan; answers are
asserted bag-equal.  Timings are steady-state (one warm-up run per
backend, then best of three), which is the serving regime the caches
target.  (A warm cached read is measured end to end by the ``hot-read``
workload of ``benchmarks/e2e``.)

Reduced-size mode for CI: set ``REPRO_BENCH_REDUCED=1``.
"""

from __future__ import annotations

import json
import os
import time

from conftest import print_table

from repro.data.sailors import random_sailors_database
from repro.engine import execute_plan, lower, optimize

REDUCED = os.environ.get("REPRO_BENCH_REDUCED", "") not in ("", "0")

#: (n_sailors, n_boats, n_reserves) scales, smallest → largest.
#: The reduced run's 4k size crosses ``KERNEL_MIN_ROWS``, so its cells run
#: on the columnar executor and gate it (the smaller ones run on rows).
SIZES = [(100, 10, 1000), (200, 20, 2000), (400, 30, 4000)] if REDUCED \
    else [(200, 20, 2000), (400, 30, 4000), (800, 40, 8000)]

ARTIFACT_DIR = os.environ.get(
    "REPRO_BENCH_ARTIFACTS",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts"))


def _chain_sql(n_reserves_refs: int) -> str:
    tables = ["Sailors S", "Boats B"] + [f"Reserves R{i}" for i in range(n_reserves_refs)]
    conditions = ["B.color = 'red'"]
    for i in range(n_reserves_refs):
        conditions.append(f"S.sid = R{i}.sid")
        conditions.append(f"R{i}.bid = B.bid")
    return (f"SELECT DISTINCT S.sname FROM {', '.join(tables)} "
            f"WHERE {' AND '.join(conditions)}")


JOIN_CHAIN_SQL = _chain_sql(3)

AGGREGATION_SQL = (
    "SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS avg_age, MAX(S.age) AS oldest "
    "FROM Sailors S, Reserves R WHERE S.sid = R.sid GROUP BY S.rating"
)

WORKLOADS = [("join-chain", JOIN_CHAIN_SQL), ("aggregation", AGGREGATION_SQL)]


def _best_of(fn, reps: int = 5):
    result = fn()  # warm-up: key indexes, compiled closures, column stores
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _write_artifact(name: str, artifact: dict) -> None:
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")


def test_e2_row_vs_vectorized_artifact(capsys):
    rows = []
    artifact = {"experiment": "E2-row-vs-vectorized",
                "reduced": REDUCED, "cells": []}
    largest = SIZES[-1]
    for n_sailors, n_boats, n_reserves in SIZES:
        db = random_sailors_database(n_sailors=n_sailors, n_boats=n_boats,
                                     n_reserves=n_reserves, seed=7)
        for workload, sql in WORKLOADS:
            plan = optimize(lower(sql, db.schema, "sql"), db)
            row_rel, row_s = _best_of(lambda: execute_plan(plan, db, backend="row"))
            vec_rel, vec_s = _best_of(
                lambda: execute_plan(plan, db, backend="vectorized"))
            assert row_rel.bag_equal(vec_rel), f"{workload} backends disagree"
            speedup = row_s / vec_s if vec_s > 0 else float("inf")
            if (n_sailors, n_boats, n_reserves) == largest and not REDUCED:
                # Wall-clock gates only run at full size; reduced (CI) mode
                # records the numbers in the artifact without a flaky gate.
                assert speedup >= 3.0, (
                    f"{workload} at the largest size: vectorized must be ≥3x "
                    f"the row backend, measured {speedup:.2f}x"
                )
            rows.append([workload, n_reserves, len(row_rel),
                         f"{row_s * 1000:.2f}", f"{vec_s * 1000:.2f}",
                         f"{speedup:.1f}x"])
            artifact["cells"].append({
                "workload": workload,
                "sailors": n_sailors, "boats": n_boats, "reserves": n_reserves,
                "answer_rows": len(row_rel),
                "row_ms": round(row_s * 1000, 3),
                "vectorized_ms": round(vec_s * 1000, 3),
                "speedup": round(speedup, 2),
                "largest_size": (n_sailors, n_boats, n_reserves) == largest,
            })
    _write_artifact("bench_e2_backends.json", artifact)
    with capsys.disabled():
        print_table(
            "E2: row vs vectorized backend (same optimized plan, steady state)",
            ["workload", "reserves", "answers", "row ms", "vectorized ms", "speedup"],
            rows,
        )
        print("E2-JSON " + json.dumps(artifact))


def test_e2_vectorized_latency_join_chain(benchmark):
    n_sailors, n_boats, n_reserves = SIZES[0]
    db = random_sailors_database(n_sailors=n_sailors, n_boats=n_boats,
                                 n_reserves=n_reserves, seed=7)
    plan = optimize(lower(JOIN_CHAIN_SQL, db.schema, "sql"), db)
    execute_plan(plan, db, backend="vectorized")  # warm caches
    result = benchmark(lambda: execute_plan(plan, db, backend="vectorized"))
    assert len(result) > 0
