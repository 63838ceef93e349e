"""Experiment E6: multi-process scatter-gather over shared-memory pages.

Measures the ``"process"`` backend (:mod:`repro.engine.process`) at 1, 2,
and 4 worker processes on two workload families, against two single-node
denominators: the pure-Python loops (``"vectorized"`` under
``REPRO_KERNELS=0`` — what ``"vectorized"`` *was* until the kernels were
folded into it, and the denominator every committed E6 baseline used) and
today's ``"vectorized"`` on the same numpy kernels the workers run.

* **join-chain** — the E4/E5 five-relation chain: co-partitioned
  Sailors⋈Reserves legs with the small Boats side broadcast; the chain
  runs kernel-resident (sorted-code probes over encodings cached per
  column, DISTINCT pre-reduction on packed codes) and is **gated**:
  ≥1.5x over the Python loops at 4 workers on the largest size;
* **aggregation** — a full-table group-by rollup over the fact table,
  the shape the compiled kernels (:mod:`repro.engine.kernels`) and the
  partial→final aggregation split were built for.  Per-shard partial
  aggregates run numpy-resident in the workers over zero-copy page
  views; only a few hundred partial rows cross the pipe back.  Gated:
  ≥1.8x over the Python loops at 4 workers on the largest size.

``speedup`` (gated here and tracked by ``compare_bench.py``) is therefore
the same quantity as before — loops ÷ process — so the floor under the
process backend did not move when its old denominator got fast.
``vs_vectorized`` is recorded beside it and not gated: a single process on
the same kernels skips the publish/pickle/pipe round trip, which a 0.5 ms
aggregate cannot repay on one or two cores.

Both gated families must also show a monotonically non-decreasing
1→2→4 worker curve, checked only between cells whose *pinned* worker
counts actually differ — on a core-starved runner the cells collapse to
identical configurations and comparing them would gate on timer noise.

Answers are asserted bag-equal against ``"vectorized"`` for every cell.
Worker counts are pinned to the runner's core count (``effective_workers
= min(requested, cpu_count)``): oversubscribing a small CI box would
measure scheduler thrash, not the backend, and is the flake the pin
avoids.  ``vs_one_worker`` records the worker-scaling curve; on a
single-core runner all three cells collapse to the same 1-worker
configuration and the curve is flat by construction (recorded as such —
the kernels carry the speedup there, the processes carry it on real
cores).

Runs standalone (the CI smoke job) or under pytest::

    PYTHONPATH=../src python bench_e6_process.py --smoke
    PYTHONPATH=../src python -m pytest bench_e6_process.py -q

Artifacts: a table on stdout, an ``E6-JSON`` line, and
``benchmarks/artifacts/bench_e6_process.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from conftest import print_table, python_loops

from repro.data.sailors import random_sailors_database
from repro.data.sharded import ShardedDatabase
from repro.engine import execute_plan, lower, optimize
from repro.engine.kernels import kernels_enabled
from repro.engine.process import ProcessBackend

REDUCED = os.environ.get("REPRO_BENCH_REDUCED", "") not in ("", "0")

#: (n_sailors, n_boats, n_reserves) scales, smallest → largest.  The
#: largest smoke size matches the middle full size so the gated cell is
#: comparable between the CI smoke run and a full run.
FULL_SIZES = [(1200, 50, 12000), (4800, 150, 48000), (19200, 600, 192000)]
SMOKE_SIZES = [(1200, 50, 12000), (4800, 150, 48000)]

N_SHARDS = 4
WORKER_COUNTS = (1, 2, 4)

#: The acceptance gate: aggregation at 4 workers on the largest size must
#: beat the single-node Python loops by this factor.
GATE_SPEEDUP = 1.8
#: The join-chain gate at 4 workers on the largest size: the dictionary
#: probe structures make the chain kernel-resident, so it must beat the
#: single-node Python loops even on a single core.
JOIN_GATE_SPEEDUP = 1.5
#: family → required speedup at ``WORKER_COUNTS[-1]`` on the largest size.
GATED_FAMILIES = {"join-chain": JOIN_GATE_SPEEDUP, "aggregation": GATE_SPEEDUP}
#: Tolerance for the 1→2→4 monotonicity check: each step may dip at most
#: this fraction below the previous one (timer noise on shared runners;
#: on a core-starved box the steps are the same configuration entirely).
MONOTONE_TOLERANCE = 0.10

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
    "SELECT R.bid, COUNT(*) AS n, MIN(R.sid) AS first_sailor, "
    "MAX(R.sid) AS last_sailor FROM Reserves R GROUP BY R.bid"
)

WORKLOADS = ("join-chain", "aggregation")


def effective_workers(requested: int) -> int:
    """``requested`` pinned to the runner's core count (≥1)."""
    return max(1, min(requested, os.cpu_count() or 1))


def _best_of(fn, reps: int = 5, warm: int = 2):
    result = None
    for _ in range(warm):  # shard plans, page publication, worker attach
        result = fn()
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


def _measure_size(size: tuple[int, int, int]) -> list[dict]:
    n_sailors, n_boats, n_reserves = size
    db = random_sailors_database(n_sailors=n_sailors, n_boats=n_boats,
                                 n_reserves=n_reserves, seed=21)
    plans = {
        "join-chain": optimize(lower(JOIN_CHAIN_SQL, db.schema, "sql"), db),
        "aggregation": optimize(lower(AGGREGATION_SQL, db.schema, "sql"), db),
    }
    baselines = {}
    for workload, plan in plans.items():
        run = lambda plan=plan: execute_plan(plan, db, backend="vectorized")
        relation, seconds = _best_of(run, warm=1)
        with python_loops():
            loops_relation, loops_seconds = _best_of(run, warm=1)
        assert relation.bag_equal(loops_relation), (
            f"{workload}: kernels disagree with the Python loops")
        baselines[workload] = (relation, seconds, loops_seconds)

    sharded = ShardedDatabase.from_database(db, N_SHARDS)
    cells = []
    one_worker_ms: dict[str, float] = {}
    try:
        for requested in WORKER_COUNTS:
            pinned = effective_workers(requested)
            backend = ProcessBackend(workers=pinned)
            try:
                for workload, plan in plans.items():
                    # Extra warm-up proportional to the pool width: every
                    # (worker, shard) pair must attach its segments once
                    # before steady state is measurable.
                    relation, seconds = _best_of(
                        lambda plan=plan, backend=backend:
                        execute_plan(plan, sharded, backend=backend),
                        warm=1 + 2 * pinned)
                    assert baselines[workload][0].bag_equal(relation), (
                        f"{workload}@{requested}w: process disagrees "
                        "with vectorized")
                    cells.append(_cell(workload, size, requested, pinned,
                                       seconds, baselines[workload][1],
                                       baselines[workload][2],
                                       one_worker_ms))
            finally:
                backend.close()
    finally:
        sharded.close()
    return cells


def _cell(workload: str, size: tuple[int, int, int], requested: int,
          pinned: int, seconds: float, vectorized_s: float, loops_s: float,
          one_worker_ms: dict[str, float]) -> dict:
    ms = seconds * 1000
    if requested == 1:
        one_worker_ms[workload] = ms
    reference = one_worker_ms.get(workload)
    return {
        "workload": f"{workload}@{requested}w",
        "family": workload,
        "workers": requested,
        "effective_workers": pinned,
        "sailors": size[0], "boats": size[1], "reserves": size[2],
        "process_ms": round(ms, 3),
        "loops_ms": round(loops_s * 1000, 3),
        "vectorized_ms": round(vectorized_s * 1000, 3),
        "speedup": round(loops_s * 1000 / ms, 2) if ms > 0 else None,
        "vs_vectorized": round(vectorized_s * 1000 / ms, 2)
        if ms > 0 else None,
        "vs_one_worker": round(reference / ms, 2)
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
        "experiment": "E6-process-scatter-gather",
        "reduced": smoke,
        "n_shards": N_SHARDS,
        "worker_counts": list(WORKER_COUNTS),
        "cpu_count": os.cpu_count() or 1,
        "kernels": kernels_enabled(),
        "gate_speedup": GATE_SPEEDUP,
        "join_gate_speedup": JOIN_GATE_SPEEDUP,
        "cells": cells,
    }
    _write_artifact("bench_e6_process.json", artifact)
    rows = [
        [cell["family"], cell["reserves"],
         f"{cell['workers']} ({cell['effective_workers']})",
         f"{cell['loops_ms']:.2f}", f"{cell['vectorized_ms']:.2f}",
         f"{cell['process_ms']:.2f}", f"{cell['speedup']:.2f}x",
         f"{cell['vs_vectorized']:.2f}x", f"{cell['vs_one_worker']:.2f}x"]
        for cell in cells
    ]
    print_table(
        "E6: process scatter-gather vs the single-node Python loops (gated) "
        "and vs vectorized on the same kernels (bag-equal asserted per cell)",
        ["workload", "reserves", "workers (pinned)", "loops ms",
         "vectorized ms", "process ms", "vs loops", "vs vectorized",
         "vs 1 worker"],
        rows,
    )
    print("E6-JSON " + json.dumps(artifact))
    return artifact


def check_gates(artifact: dict) -> list[str]:
    """The E6 acceptance gates over a measured artifact; [] when green.

    * each family in ``GATED_FAMILIES`` at 4 workers on the largest size
      beats the single-node Python loops by its gate factor (aggregation
      ``GATE_SPEEDUP``, join-chain ``JOIN_GATE_SPEEDUP``);
    * speedup is monotonically non-decreasing 1→2→4 workers (within
      ``MONOTONE_TOLERANCE`` for timer noise), comparing only cells
      whose pinned worker counts differ — cells that collapsed to the
      same configuration on a core-starved runner measure only noise.
    """
    failures: list[str] = []
    for family, gate in GATED_FAMILIES.items():
        gated = {c["workers"]: c for c in artifact["cells"]
                 if c["family"] == family and c["largest_size"]}
        if set(gated) != set(WORKER_COUNTS):
            failures.append(
                f"missing gated {family} cells: have {sorted(gated)}")
            continue
        top = gated[WORKER_COUNTS[-1]]
        if top["speedup"] < gate:
            failures.append(
                f"{family}@{WORKER_COUNTS[-1]}w at the largest size: "
                f"{top['speedup']:.2f}x < {gate}x over the Python loops")
        for lo, hi in zip(WORKER_COUNTS, WORKER_COUNTS[1:]):
            if gated[hi]["effective_workers"] <= \
                    gated[lo]["effective_workers"]:
                continue  # same pinned configuration: noise, not scaling
            slow, fast = gated[lo]["speedup"], gated[hi]["speedup"]
            if fast < slow * (1.0 - MONOTONE_TOLERANCE):
                failures.append(
                    f"{family} speedup not monotone: {lo}w {slow:.2f}x → "
                    f"{hi}w {fast:.2f}x (tolerance "
                    f"{MONOTONE_TOLERANCE:.0%})")
    return failures


# -- pytest entry points -----------------------------------------------------

def test_e6_process_artifact(capsys):
    with capsys.disabled():
        artifact = run_experiment(smoke=REDUCED)
    cells = artifact["cells"]
    assert cells, "no cells measured"
    assert {c["family"] for c in cells} == set(WORKLOADS)
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
        print(f"E6 GATE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
