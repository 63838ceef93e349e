"""Experiment E10: shard-aware view maintenance vs full scatter-gather.

The composition ISSUE 10 closes: materialized views (E4) now work on the
sharded service, maintained as one delta-driven partial per shard with a
gather-side combine.  For each workload and shard count the experiment
measures, over the same stream of routed insert batches,

* **full** — answering the query through a sharded service with no views
  and no result cache: every batch forces a full scatter-gather
  recomputation (what serving looked like before shard-aware IVM), and
* **incremental** — refreshing the registered
  :class:`~repro.core.service.MaterializedView`, which applies each
  touched shard's delta plans to its part and re-combines.

Answers are asserted bag-equal after every batch, so the speedup is
honest: both sides produce identical results at every version.
``join-chain`` and ``aggregation`` are gated at the largest size on
``GATE_SPEEDUP``: **>= 5x** at 1 and 2 shards, **>= 3x** at 4.

Runs standalone (the CI smoke job) or under pytest::

    PYTHONPATH=../src python bench_e10_sharded_ivm.py --smoke
    PYTHONPATH=../src python -m pytest bench_e10_sharded_ivm.py -q

Artifacts: a table on stdout, an ``E10-JSON`` line, and
``benchmarks/artifacts/bench_e10_sharded_ivm.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from conftest import print_table

from repro.core.sharded_service import ShardedQueryService
from repro.data.sailors import random_sailors_database

REDUCED = os.environ.get("REPRO_BENCH_REDUCED", "") not in ("", "0")

SHARD_COUNTS = (1, 2, 4)

#: (n_sailors, n_boats, n_reserves) scales.  Incremental refresh cost is
#: per-delta (constant); the full side re-scatters the whole database, so
#: the gap widens with size — the gate is asserted at the largest.  Smoke
#: keeps only the largest size so the gated cells measure the same point.
FULL_SIZES = [(1200, 50, 12000), (2400, 90, 24000)]
SMOKE_SIZES = [(2400, 90, 24000)]

#: Insert batches applied per measurement (each batch = one routed write).
BATCHES = 10
BATCH_ROWS = 10

#: shard count → required speedup.  5x everywhere until PR 15; the 4-shard
#: floor is lower because the side the refresh is divided by got faster, not
#: because the refresh got slower: full scatter-gather at 4 shards now runs
#: the 600-row Sailors shards on the Python loops instead of paying numpy's
#: fixed costs per shard (178 → 56 ms per 10 recomputes), so the same
#: 13.5 ms of join-chain refreshes read 4.1-4.5x instead of 12.7-13.1x.
GATE_SPEEDUP = {1: 5.0, 2: 5.0, 4: 3.0}

ARTIFACT_DIR = os.environ.get(
    "REPRO_BENCH_ARTIFACTS",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts"))

#: Sailors co-partitions with Reserves on sid; Boats rides along as a
#: broadcast alias — so the view exercises both scatter shapes while the
#: write stream lands on partitioned delta logs.
JOIN_CHAIN_SQL = (
    "SELECT DISTINCT S.sname FROM Sailors S, Boats B, Reserves R0, "
    "Reserves R1 WHERE B.color = 'red' "
    "AND S.sid = R0.sid AND R0.bid = B.bid "
    "AND S.sid = R1.sid AND R1.bid = B.bid"
)

#: AVG forces the partial→final split (per-shard SUM + COUNT, recombined
#: at gather), the shape the ISSUE names.
AGGREGATION_SQL = (
    "SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS avg_age "
    "FROM Sailors S, Reserves R WHERE S.sid = R.sid GROUP BY S.rating"
)

WORKLOADS = [
    ("join-chain", JOIN_CHAIN_SQL),
    ("aggregation", AGGREGATION_SQL),
]


def _write_artifact(name: str, artifact: dict) -> None:
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")


def _batch(i: int, n_sailors: int, n_boats: int) -> list[tuple]:
    return [((i * BATCH_ROWS + j) % n_sailors + 1,
             (i * 3 + j) % n_boats + 101,
             f"2025-{(i % 12) + 1:02d}-{(j % 28) + 1:02d}")
            for j in range(BATCH_ROWS)]


def _measure_cell(size: tuple[int, int, int], n_shards: int, workload: str,
                  text: str) -> dict:
    n_sailors, n_boats, n_reserves = size

    def database():
        return random_sailors_database(n_sailors=n_sailors, n_boats=n_boats,
                                       n_reserves=n_reserves, seed=10)

    # Incremental side: the sharded service with the registered view.
    service = ShardedQueryService(database(), n_shards=n_shards)
    view = service.register_view(text, name=workload)
    view.answer()  # settle the initial materialization

    # Full side: the same deployment without views or result cache —
    # every batch forces a full scatter-gather recomputation.
    full = ShardedQueryService(database(), n_shards=n_shards,
                               result_cache_size=0)
    full.answer(text)  # warm plan cache + probe structures

    # Steady-state warm-up: both sides absorb one unmeasured batch so the
    # first measured refresh reuses the join indexes built on the first.
    warmup = _batch(BATCHES, n_sailors, n_boats)
    service.add_rows("Reserves", warmup, validate=False)
    full.add_rows("Reserves", warmup, validate=False)
    view.answer()
    full.answer(text)

    incremental_s = 0.0
    full_s = 0.0
    # Like ``timeit``: no collector during the timed loop.  A full
    # collection over the earlier cells' databases costs ~20 ms and lands on
    # whichever side happens to allocate the object that trips it — four
    # times a whole 4-shard incremental column.
    gc.collect()
    gc.disable()
    try:
        for i in range(BATCHES):
            rows = _batch(i, n_sailors, n_boats)
            service.add_rows("Reserves", rows, validate=False)
            full.add_rows("Reserves", rows, validate=False)

            start = time.perf_counter()
            incremental_answers = view.answer()
            incremental_s += time.perf_counter() - start

            start = time.perf_counter()
            full_answers = full.answer(text)
            full_s += time.perf_counter() - start

            assert incremental_answers.bag_equal(full_answers), (
                f"{workload}@{n_shards}sh: view diverged from recomputation "
                f"at batch {i}"
            )
    finally:
        gc.enable()

    info = view.info()
    service.close()
    full.close()
    return {
        "workload": f"{workload}-{n_shards}sh",
        "base_workload": workload,
        "n_shards": n_shards,
        "sailors": n_sailors, "boats": n_boats, "reserves": n_reserves,
        "batches": BATCHES, "rows_per_batch": BATCH_ROWS,
        "strategy": info["strategy"],
        "answer_rows": info["rows"],
        "incremental_refreshes": info["incremental_refreshes"],
        "shard_rebuilds": info["shard_rebuilds"],
        "rebuilds": info["rebuilds"],
        "full_ms": round(full_s * 1000, 3),
        "incremental_ms": round(incremental_s * 1000, 3),
        "speedup": round(full_s / incremental_s, 2)
                   if incremental_s > 0 else None,
    }


def run_experiment(smoke: bool) -> dict:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    artifact: dict = {"experiment": "E10-sharded-ivm", "reduced": smoke,
                      "cells": []}
    for workload, text in WORKLOADS:
        for n_shards in SHARD_COUNTS:
            for size in sizes:
                cell = _measure_cell(size, n_shards, workload, text)
                cell["largest_size"] = size == sizes[-1]
                artifact["cells"].append(cell)
    _write_artifact("bench_e10_sharded_ivm.json", artifact)
    print_table(
        "E10: sharded view refresh vs full scatter-gather recomputation "
        f"({BATCHES} batches x {BATCH_ROWS} rows, answers asserted equal)",
        ["workload", "shards", "reserves", "strategy", "answers",
         "full ms", "incremental ms", "full/incremental"],
        [[c["base_workload"], c["n_shards"], c["reserves"], c["strategy"],
          c["answer_rows"], f"{c['full_ms']:.2f}",
          f"{c['incremental_ms']:.2f}", f"{c['speedup']:.1f}x"]
         for c in artifact["cells"]],
    )
    print("E10-JSON " + json.dumps(artifact))
    return artifact


def check_gates(artifact: dict) -> list[str]:
    """Failure strings for every gated cell below ``GATE_SPEEDUP``, that
    rebuilt past its initial materialization, or that recomputed a
    shard's part."""
    failures = []
    gated = [c for c in artifact["cells"] if c["largest_size"]]
    for cell in gated:
        if cell["rebuilds"] > 1:
            failures.append(f"{cell['workload']}: fell back to rebuild "
                            f"({cell['rebuilds']} rebuilds)")
        if cell["shard_rebuilds"]:
            failures.append(f"{cell['workload']}: recomputed a shard's part "
                            f"({cell['shard_rebuilds']} shard rebuilds)")
        gate = GATE_SPEEDUP[cell["n_shards"]]
        if cell["speedup"] is None or cell["speedup"] < gate:
            failures.append(
                f"{cell['workload']}: incremental refresh only "
                f"{cell['speedup']}x faster at the largest size "
                f"(gate: >={gate:.0f}x)")
    return failures


# -- pytest entry points -----------------------------------------------------

def test_e10_sharded_ivm_artifact(capsys):
    with capsys.disabled():
        artifact = run_experiment(smoke=REDUCED)
    assert artifact["cells"], "no cells measured"
    gated = [c for c in artifact["cells"] if c["largest_size"]]
    assert {(c["base_workload"], c["n_shards"]) for c in gated} \
        == {(w, n) for w, _ in WORKLOADS for n in SHARD_COUNTS}
    failures = check_gates(artifact)
    assert not failures, "\n".join(failures)


# -- standalone entry point --------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for CI smoke runs")
    args = parser.parse_args(argv)
    artifact = run_experiment(smoke=args.smoke or REDUCED)
    failures = check_gates(artifact)
    if failures:
        print("E10 GATE FAILED:\n" + "\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
