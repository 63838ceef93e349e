"""Experiment E5: sharded scatter-gather execution across shard counts.

Measures the ``"sharded"`` backend (:mod:`repro.engine.sharded`) at 1, 2,
and 4 shards against the single-node ``"vectorized"`` baseline on three
workload families:

* **join-chain** — the E4 five-relation chain: co-partitioned
  Sailors⋈Reserves legs with the small Boats side broadcast;
* **aggregation** — a group-by off the partition key, exercising the
  partial→final aggregation split;
* **point-lookup** — a shard-key equality query, exercising single-shard
  routing: the gather step disappears and only ``1/k`` of the data is
  scanned, so wall time genuinely improves as the shard count grows.

Answers are asserted bag-equal against ``"vectorized"`` for every cell, so
every reported number compares identical results.  Two ratios are
recorded per cell: ``speedup`` (vectorized over sharded, the
cross-backend view ``run_all.py`` normalizes into ``BENCH_e5.json``) and
``vs_one_shard`` (the same workload at one shard over this cell — the
gather-path scaling curve).  Scatter workloads run their per-shard
subplans inline, one shard after another on the calling thread, so their
scaling is reported honestly rather than gated (more shards add gather work
but no concurrency; the ``"process"`` backend, E6, is the one that spreads
shards over cores) — the routed point-lookup path is the cell where
sharding must and does win single-process, and :func:`check_gates` holds
it to **>= 1.2x** over one shard at 4 shards.

Runs standalone (the CI smoke job) or under pytest::

    PYTHONPATH=../src python bench_e5_sharded.py --smoke
    PYTHONPATH=../src python -m pytest bench_e5_sharded.py -q

Artifacts: a table on stdout, an ``E5-JSON`` line, and
``benchmarks/artifacts/bench_e5_sharded.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from conftest import print_table

from repro.data.sharded import ShardedDatabase
from repro.data.sailors import random_sailors_database
from repro.engine import execute_plan, lower, optimize
from repro.engine.sharded import ShardedBackend, shard_plan
from repro.engine.stats import StatsCatalog

REDUCED = os.environ.get("REPRO_BENCH_REDUCED", "") not in ("", "0")

#: (n_sailors, n_boats, n_reserves) scales, smallest → largest.
FULL_SIZES = [(1200, 50, 12000), (2400, 90, 24000), (4800, 150, 48000)]
SMOKE_SIZES = [(400, 30, 4000), (1200, 50, 12000)]

SHARD_COUNTS = (1, 2, 4)

#: The routed point lookup at 4 shards over the same lookup at 1 shard.
GATE_VS_ONE_SHARD = 1.2

ARTIFACT_DIR = os.environ.get(
    "REPRO_BENCH_ARTIFACTS",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts"))

JOIN_CHAIN_SQL = (
    "SELECT DISTINCT S.sname FROM Sailors S, Boats B, Reserves R0, "
    "Reserves R1, Reserves R2 WHERE B.color = 'red' "
    "AND S.sid = R0.sid AND R0.bid = B.bid "
    "AND S.sid = R1.sid AND R1.bid = B.bid "
    "AND S.sid = R2.sid AND R2.bid = B.bid"
)

AGGREGATION_SQL = (
    "SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS avg_age, MAX(S.age) AS oldest "
    "FROM Sailors S, Reserves R WHERE S.sid = R.sid GROUP BY S.rating"
)

POINT_LOOKUP_SQL = "SELECT S.sname, S.age FROM Sailors S WHERE S.sid = {sid}"

#: How many distinct point lookups one point-lookup measurement serves.
POINT_BATCH = 24

WORKLOADS = ("join-chain", "aggregation", "point-lookup")


def _best_of(fn, reps: int = 5):
    result = fn()  # warm-up: shard plans, key indexes, column stores
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


def _point_plans(db, n_sailors: int):
    plans = []
    for i in range(POINT_BATCH):
        sid = (i * 97) % n_sailors + 1
        sql = POINT_LOOKUP_SQL.format(sid=sid)
        plans.append(optimize(lower(sql, db.schema, "sql"), db))
    return plans


def _measure_size(size: tuple[int, int, int]) -> list[dict]:
    n_sailors, n_boats, n_reserves = size
    db = random_sailors_database(n_sailors=n_sailors, n_boats=n_boats,
                                 n_reserves=n_reserves, seed=21)
    plans = {
        "join-chain": optimize(lower(JOIN_CHAIN_SQL, db.schema, "sql"), db),
        "aggregation": optimize(lower(AGGREGATION_SQL, db.schema, "sql"), db),
    }
    point_plans = _point_plans(db, n_sailors)

    baselines = {}
    for workload, plan in plans.items():
        relation, seconds = _best_of(
            lambda plan=plan: execute_plan(plan, db, backend="vectorized"))
        baselines[workload] = (relation, seconds)
    point_base, point_base_s = _best_of(
        lambda: [execute_plan(p, db, backend="vectorized")
                 for p in point_plans])

    cells = []
    one_shard_ms: dict[str, float] = {}
    for shards in SHARD_COUNTS:
        sharded = ShardedDatabase.from_database(db, shards)
        backend = ShardedBackend()
        for workload, plan in plans.items():
            compiled = shard_plan(plan, sharded, StatsCatalog(sharded))
            relation, seconds = _best_of(
                lambda plan=plan, sharded=sharded, backend=backend:
                execute_plan(plan, sharded, backend=backend))
            assert baselines[workload][0].bag_equal(relation), (
                f"{workload}@{shards}: sharded disagrees with vectorized")
            cells.append(_cell(workload, size, shards, seconds,
                               baselines[workload][1], one_shard_ms,
                               compiled.describe()))
        # Summarize the routing of the WHOLE batch, not just the first
        # plan: each lookup pins a different sid, so the batch fans out
        # over the shards while every individual query touches only one.
        point_stats = StatsCatalog(sharded)
        routed = [shard_plan(p, sharded, point_stats).route(sharded)
                  for p in point_plans]
        assert all(index is not None for index in routed), \
            "a point lookup failed to route to a single shard"
        shape = (f"routed({len(point_plans)} lookups over "
                 f"{len(set(routed))}/{shards} shards)")
        point_rel, seconds = _best_of(
            lambda sharded=sharded, backend=backend:
            [execute_plan(p, sharded, backend=backend) for p in point_plans])
        for want, got in zip(point_base, point_rel):
            assert want.bag_equal(got), "point-lookup disagrees"
        cells.append(_cell("point-lookup", size, shards, seconds,
                           point_base_s, one_shard_ms, shape))
    return cells


def _cell(workload: str, size: tuple[int, int, int], shards: int,
          seconds: float, baseline_s: float, one_shard_ms: dict[str, float],
          shape: str) -> dict:
    ms = seconds * 1000
    if shards == 1:
        one_shard_ms[workload] = ms
    reference = one_shard_ms.get(workload)
    return {
        "workload": f"{workload}@{shards}sh",
        "family": workload,
        "shards": shards,
        "sailors": size[0], "boats": size[1], "reserves": size[2],
        "plan_shape": shape,
        "sharded_ms": round(ms, 3),
        "vectorized_ms": round(baseline_s * 1000, 3),
        "speedup": round(baseline_s * 1000 / ms, 2) if ms > 0 else None,
        "vs_one_shard": round(reference / ms, 2)
        if reference and ms > 0 else None,
        "largest_size": False,  # stamped by run_experiment
    }


def run_experiment(smoke: bool) -> dict:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    cells: list[dict] = []
    for size in sizes:
        cells.extend(_measure_size(size))
    largest = sizes[-1]
    for cell in cells:
        cell["largest_size"] = \
            (cell["sailors"], cell["boats"], cell["reserves"]) == largest
    artifact = {
        "experiment": "E5-sharded-scatter-gather",
        "reduced": smoke,
        "shard_counts": list(SHARD_COUNTS),
        "point_batch": POINT_BATCH,
        "cells": cells,
    }
    _write_artifact("bench_e5_sharded.json", artifact)
    rows = [
        [cell["family"], cell["reserves"], cell["shards"],
         f"{cell['vectorized_ms']:.2f}", f"{cell['sharded_ms']:.2f}",
         f"{cell['speedup']:.2f}x", f"{cell['vs_one_shard']:.2f}x"]
        for cell in cells
    ]
    print_table(
        "E5: sharded scatter-gather vs single-node vectorized "
        "(bag-equal asserted per cell)",
        ["workload", "reserves", "shards", "vectorized ms", "sharded ms",
         "vs vectorized", "vs 1 shard"],
        rows,
    )
    print("E5-JSON " + json.dumps(artifact))
    return artifact


def check_gates(artifact: dict) -> list[str]:
    """The E5 routing gate over a measured artifact; [] when green.

    At the largest size the 4-shard point lookup is routed (one shard, no
    gather) and ``GATE_VS_ONE_SHARD``x faster than the same lookup at one
    shard: 4 shards scan a quarter of the rows per lookup.
    """
    routed = [c for c in artifact["cells"] if c["family"] == "point-lookup"
              and c["largest_size"] and c["shards"] == 4]
    if not routed:
        return ["no 4-shard point-lookup cell at the largest size"]
    failures = []
    for cell in routed:
        if cell["vs_one_shard"] < GATE_VS_ONE_SHARD:
            failures.append(f"point-lookup at 4 shards only "
                            f"{cell['vs_one_shard']}x vs 1 shard "
                            f"(gate: >={GATE_VS_ONE_SHARD}x)")
        if not cell["plan_shape"].startswith("routed"):
            failures.append(f"point-lookup at 4 shards not routed: "
                            f"{cell['plan_shape']}")
    return failures


# -- pytest entry points -----------------------------------------------------

def test_e5_sharded_artifact(capsys):
    with capsys.disabled():
        artifact = run_experiment(smoke=REDUCED)
    cells = artifact["cells"]
    assert cells, "no cells measured"
    families = {c["family"] for c in cells}
    assert families == set(WORKLOADS)
    routed = [c for c in cells
              if c["family"] == "point-lookup" and c["largest_size"]]
    assert all(c["plan_shape"].startswith("routed(") for c in routed), routed
    failures = check_gates(artifact)
    assert not failures, "\n".join(failures)


# -- standalone entry point --------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (the CI configuration)")
    args = parser.parse_args(argv)
    artifact = run_experiment(smoke=args.smoke or REDUCED)
    failures = check_gates(artifact)
    for failure in failures:
        print(f"E5 GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
