"""Experiment K1: kernel microbenchmarks — probe, DISTINCT, group-by and
string MIN/MAX vs the row executor.

Isolates the numpy kernels of :mod:`repro.engine.kernels` from the
backend transports the E-series experiments measure.  Each cell runs one
plan twice: once as the plan's columnar program,
:func:`~repro.engine.vectorized.compile_batches`, as served (every
table here is above ``KERNEL_MIN_ROWS``: dictionary encodings, cached
probe structures, packed-code DISTINCT, code-space MIN/MAX), and once on
the row executor (the plan's row program,
:func:`~repro.engine.execute.compile_rows`) — the one Python
implementation of each operator, which a declined kernel runs and which
the ``"vectorized"`` backend is when numpy is absent — on a synthetic
star schema:

* **probe-int-key** — fact⋈dim on an int64 key column;
* **probe-str-key** — fact⋈dim on a dictionary-encoded string key: the
  probe maps probe-side dictionary codes onto the build-side domain, so
  no string comparison happens per row;
* **probe-multi-key** — fact⋈dim on (int, string): both columns lower to
  codes and pack into one int64 lexicographic key per row;
* **distinct** — ``SELECT DISTINCT`` over a low-cardinality string
  column: the DISTINCT kernel deduplicates dictionary codes without
  touching a single string (the packed multi-column path is pinned by
  the fuzz suite and E6's join chain);
* **minmax-str** — grouped ``MIN``/``MAX`` over a high-cardinality string
  column: dictionary codes are order-preserving, so the extrema reduce on
  int codes and only one string per group is decoded;
* **probe-filtered-build-10 / -90** — fact⋈σ(dim) keeping 2 and 21 of the
  23 regions: σ(dim) is a new batch every query and ``fact`` keeps its
  structure, so the optimizer seats σ(dim) on the probe side, and it
  probes ``fact``'s cached structure from the dim columns' encodings at
  the filter's selection — no Python hash table;
* **probe-fanout** — a 100-row table probing the whole fact table on a
  97-value key, counted per value: the probe reads 100 rows and emits
  every fact row, so it is offered to the kernel for what it emits (the
  fan-out is read off the fact table's maintained ``key_index``) and the
  group-by consumes index arrays (emitting the rows themselves would time
  48k tuple allocations on both sides and little else);
* **groupby-int-dense** — ``COUNT``/``MIN``/``MAX`` per value of a 97-value
  int key over a filtered fact table: offset codes and one radix sort
  serve the group ids and the MIN/MAX segments alike;
* **probe-after-append** — probe-int-key after a 10-row write to ``dim``,
  both timed: the cached structure is carried over to the extended key
  encoding and grows by the ten rows (``build_extended``) instead of being
  lowered and sorted again, while the row executor's ``key_index`` is
  maintained row by row;
* **groupby-wide** — ``COUNT``/``MAX`` per ``(fk, bucket)``: a packed
  domain of ~1M slots over fewer rows, so the group ids come from one
  radix sort (``group_sorted``), where groupby-int-dense's 97 slots are
  addressed (``group_direct``);
* **probe-cached-small** — 1.9k ``(k, tag)`` pairs probing ``dim``'s
  cached two-column structure, about one row each (probe-after-append's
  writes repeat a few keys): ~1.9k probe rows, under
  ``KERNEL_MIN_ROWS``, whose ~1.9k emitted rows, at
  ``EMITTED_ROW_COST`` each, put over 7.6k rows at stake
  (``repro.engine.stats.probe_at_stake``): a probe that pays only a cache
  lookup for its structure takes the kernel with fewer probe rows than
  one that lowers its build (the shape of ``analytic-cold``'s ``chain4``
  last join);
* **distinct-one-side** — ``SELECT DISTINCT`` over two ``dim`` columns of
  the fact⋈dim join: both read ``dim`` through one selection and ``dim``
  is shorter than the join, so ``dim`` positions are deduplicated first
  (``distinct_positions``) and only their first rows' values after.

Gated: every family must beat the row executor by ``GATE_SPEEDUP`` at the
largest size (answers are bag-equal asserted per cell), every append
of **probe-after-append** must extend the structure, never relower it, and
each family in ``PATHS`` must take the path it is named for.
The artifact also snapshots :func:`repro.engine.kernels.cache_stats` after
the run — probe structures for the shared dim table must be cache hits
across iterations, which is the "cached probe tables" half of what this
suite pins.

Runs standalone (the CI smoke job) or under pytest::

    PYTHONPATH=../src python bench_k1_kernels.py --smoke
    PYTHONPATH=../src python -m pytest bench_k1_kernels.py -q

Artifacts: a table on stdout, a ``K1-JSON`` line, and
``benchmarks/artifacts/bench_k1_kernels.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from conftest import print_table

from repro.data.database import Database
from repro.data.relation import relation_from_rows
from repro.engine import lower, optimize
from repro.engine.execute import compile_rows
from repro.engine.kernels import (
    cache_stats,
    clear_cache,
    kernels_enabled,
    path_counts,
)
from repro.engine.vectorized import compile_batches

REDUCED = os.environ.get("REPRO_BENCH_REDUCED", "") not in ("", "0")

#: Fact-table row counts, smallest → largest; the dim table scales 1:16.
FULL_SIZES = [12000, 48000, 192000]
SMOKE_SIZES = [12000, 48000]

#: Every family must beat the row executor by this factor at the largest
#: size.  Deliberately below the measured headroom: the gate
#: catches "kernel silently declined", not single-digit noise.
GATE_SPEEDUP = 1.5

ARTIFACT_DIR = os.environ.get(
    "REPRO_BENCH_ARTIFACTS",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts"))

#: The probe families join bare scans: a ``ScanP`` build side is what the
#: probe-structure cache keys on, so iteration two onward the kernel
#: executor reuses the sorted-key structure while the row executor probes
#: the relation's maintained ``key_index`` row by row — the "cached probe
#: tables" contrast this suite exists to pin.
WORKLOADS = {
    "probe-int-key": (
        "SELECT d.k FROM fact f, dim d WHERE f.fk = d.k"),
    "probe-str-key": (
        "SELECT d.k FROM fact f, dim d WHERE f.tag = d.tag"),
    "probe-multi-key": (
        "SELECT d.k FROM fact f, dim d "
        "WHERE f.fk = d.k AND f.tag = d.tag"),
    "distinct": "SELECT DISTINCT f.cat FROM fact f",
    "minmax-str": (
        "SELECT f.cat, MIN(f.tag) AS lo, MAX(f.tag) AS hi FROM fact f "
        "GROUP BY f.cat"),
    "probe-filtered-build-10": (
        "SELECT d.k FROM fact f, dim d WHERE f.fk = d.k "
        "AND d.region < 'r02'"),
    "probe-filtered-build-90": (
        "SELECT d.k FROM fact f, dim d WHERE f.fk = d.k "
        "AND d.region < 'r21'"),
    "probe-fanout": (
        "SELECT b.b, COUNT(*) AS n, MAX(f.fk) AS hi FROM buckets b, fact f "
        "WHERE b.b = f.bucket GROUP BY b.b"),
    "groupby-int-dense": (
        "SELECT f.bucket, COUNT(*) AS n, MIN(f.fk) AS lo, MAX(f.fk) AS hi "
        "FROM fact f WHERE f.fk > 10 GROUP BY f.bucket"),
    "probe-after-append": (
        "SELECT d.k FROM fact f, dim d WHERE f.fk = d.k"),
    "groupby-wide": (
        "SELECT f.fk, f.bucket, COUNT(*) AS n, MAX(f.cat) AS hi "
        "FROM fact f WHERE f.bucket > 10 GROUP BY f.fk, f.bucket"),
    "probe-cached-small": (
        "SELECT d.region FROM probes p, dim d "
        "WHERE p.pk = d.k AND p.ptag = d.tag"),
    "distinct-one-side": (
        "SELECT DISTINCT d.k, d.region FROM fact f, dim d "
        "WHERE f.fk = d.k"),
}

#: Families pinned to one side of a run-time choice: the path counter
#: (:func:`repro.engine.kernels.path_counts`) each must bump.
PATHS = {
    "groupby-int-dense": "group_direct",
    "groupby-wide": "group_sorted",
    "probe-cached-small": "probe_kernel",
    "distinct-one-side": "distinct_positions",
}

#: ``probes`` rows: distinct ``(k, tag)`` pairs of ``dim`` (7919 is prime,
#: so ``i * 7919 % n_dim`` repeats no key below ``n_dim``), each matching
#: about one row: ~1.9k probe rows, under ``KERNEL_MIN_ROWS``, and ~3.8k
#: rows at stake with the rows they emit.
N_PROBES = 1900

#: Families whose timed step first appends this many ``dim`` rows, each
#: repeating a key ``dim`` already holds.
APPEND_ROWS = {"probe-after-append": 10}


def synthetic_star(n_fact: int, seed: int = 7) -> Database:
    """A fact⋈dim star with int, string, and low-cardinality columns, and
    the 100 candidate values of ``fact.bucket`` (97 occur).

    Deterministic congruential mixing instead of :mod:`random`: the rows
    only need to be well-shuffled, and arithmetic keeps generation far
    cheaper than the measurement it feeds.
    """
    n_dim = max(16, n_fact // 4)
    dim = relation_from_rows(
        "dim", [("k", "int"), ("tag", "string"), ("region", "string")],
        [(i, f"tag{i:06d}", f"r{i % 23:02d}") for i in range(n_dim)])
    fact_rows = []
    state = seed
    for _ in range(n_fact):
        state = (state * 1103515245 + 12345) % (1 << 31)
        fk = state % n_dim
        fact_rows.append(
            (fk, f"tag{fk:06d}", f"c{state % 13:02d}", state % 97))
    fact = relation_from_rows(
        "fact",
        [("fk", "int"), ("tag", "string"), ("cat", "string"),
         ("bucket", "int")],
        fact_rows)
    buckets = relation_from_rows("buckets", [("b", "int")],
                                 [(i,) for i in range(100)])
    probes = relation_from_rows(
        "probes", [("pk", "int"), ("ptag", "string")],
        [(k, f"tag{k:06d}") for k in (i * 7919 % n_dim
                                      for i in range(N_PROBES))])
    return Database([dim, fact, buckets, probes])


def _best_of(fn, reps: int = 5, warm: int = 2):
    result = None
    for _ in range(warm):  # column encodings + probe-structure cache fill
        result = fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _row_executor(plan, db):
    """``plan``'s rows from the row executor, the kernels' reference."""
    return compile_rows(plan)(db)


def _write_artifact(name: str, artifact: dict) -> None:
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")


def _appending(db: Database, n_rows: int, run):
    """``run`` preceded by a write of ``n_rows`` in-domain ``dim`` rows."""
    dim = db.relation("dim")
    n_dim = max(16, len(db.relation("fact")) // 4)
    written = [0]

    def step():
        start = written[0]
        written[0] += n_rows
        dim.add_rows([(i % n_dim, f"tag{i % n_dim:06d}", f"r{i % 23:02d}")
                      for i in range(start, start + n_rows)])
        return run()
    return step


def _measure_size(n_fact: int) -> list[dict]:
    db = synthetic_star(n_fact)
    cells = []
    for family, sql in WORKLOADS.items():
        plan = optimize(lower(sql, db.schema, "sql"), db)

        def kernel(plan=plan):
            return compile_batches(plan)(db).rows()

        def rows(plan=plan):
            return _row_executor(plan, db)

        appends = APPEND_ROWS.get(family)
        before = path_counts()
        fast_rows, fast_s = _best_of(
            _appending(db, appends, kernel) if appends else kernel)
        paths = {key: n - before[key] for key, n in path_counts().items()}
        slow_rows, slow_s = _best_of(
            _appending(db, appends, rows) if appends else rows, warm=1)
        if appends:
            fast_rows = kernel()  # at the state the row run's writes left
        assert Counter(map(tuple, fast_rows)) == \
            Counter(map(tuple, slow_rows)), (
            f"{family}@{n_fact}: kernel disagrees with the row executor")
        cell = {
            "workload": family,
            "family": family,
            "reserves": n_fact,  # record-schema size key (fact rows)
            "rows_out": len(fast_rows),
            "kernel_ms": round(fast_s * 1000, 3),
            "row_ms": round(slow_s * 1000, 3),
            "speedup": round(slow_s / fast_s, 2) if fast_s > 0 else None,
            "largest_size": False,  # stamped by run_experiment
        }
        if appends:
            cell.update(build_extended=paths["build_extended"],
                        build_relowered=paths["build_relowered"])
        if family in PATHS:
            cell["path_runs"] = paths[PATHS[family]]
        cells.append(cell)
    return cells


def run_experiment(smoke: bool) -> dict:
    clear_cache()
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    cells: list[dict] = []
    for n_fact in sizes:
        cells.extend(_measure_size(n_fact))
    for cell in cells:
        cell["largest_size"] = cell["reserves"] == sizes[-1]
    artifact = {
        "experiment": "K1-kernel-microbench",
        "reduced": smoke,
        "kernels": kernels_enabled(),
        "gate_speedup": GATE_SPEEDUP,
        "cache": cache_stats(),
        "cells": cells,
    }
    _write_artifact("bench_k1_kernels.json", artifact)
    rows = [
        [cell["family"], cell["reserves"], cell["rows_out"],
         f"{cell['row_ms']:.2f}", f"{cell['kernel_ms']:.2f}",
         f"{cell['speedup']:.2f}x"]
        for cell in cells
    ]
    print_table(
        "K1: numpy kernels vs the row executor "
        "(bag-equal asserted per cell)",
        ["workload", "fact rows", "out rows", "row ms", "kernel ms",
         "speedup"],
        rows,
    )
    print("K1-JSON " + json.dumps(artifact))
    return artifact


def check_gates(artifact: dict) -> list[str]:
    """The K1 acceptance gates over a measured artifact; [] when green.

    Every workload family at the largest size must beat the row executor
    by ``GATE_SPEEDUP``, and the probe-structure cache must
    have registered hits (the dim-side build is shared across probe
    iterations — zero hits would mean the cache key is broken).
    """
    if not artifact.get("kernels", False):
        return []  # numpy absent: the row executor ran against itself
    failures: list[str] = []
    largest = {c["family"]: c for c in artifact["cells"]
               if c["largest_size"]}
    if set(largest) != set(WORKLOADS):
        failures.append(f"missing gated K1 cells: have {sorted(largest)}")
    for family, cell in sorted(largest.items()):
        if cell["speedup"] < artifact["gate_speedup"]:
            failures.append(
                f"{family} at the largest size: {cell['speedup']:.2f}x < "
                f"{artifact['gate_speedup']}x over the row executor")
    if artifact["cache"]["hits"] <= 0:
        failures.append("probe-structure cache recorded zero hits")
    for cell in artifact["cells"]:
        if cell["family"] in PATHS and not cell["path_runs"]:
            failures.append(
                f"{cell['family']}@{cell['reserves']}: never took "
                f"{PATHS[cell['family']]}")
    for cell in artifact["cells"]:
        if cell["family"] in APPEND_ROWS and (
                cell["build_relowered"] or not cell["build_extended"]):
            failures.append(
                f"{cell['family']}@{cell['reserves']}: "
                f"{cell['build_extended']} extended / "
                f"{cell['build_relowered']} relowered build structures "
                "after in-domain appends")
    return failures


# -- pytest entry points -----------------------------------------------------

def test_k1_kernel_artifact(capsys):
    with capsys.disabled():
        artifact = run_experiment(smoke=REDUCED)
    assert artifact["cells"], "no cells measured"
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
        print(f"K1 GATE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
