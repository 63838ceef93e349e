#!/usr/bin/env python
"""Run every benchmark suite and emit unified ``BENCH_<suite>.json`` artifacts.

Each suite keeps its own detailed artifact (``bench_e*_*.json`` and the
``E*-JSON`` stdout lines), but nothing compared those across runs.  This
driver runs the suites — reduced sizes with ``--smoke`` — and normalizes
every measured cell into one shared record schema::

    {"suite": "e4", "workload": "join-chain", "size": 48000,
     "backend": "view", "wall_ms": 9.1, "speedup": 19.6}

written to ``benchmarks/artifacts/BENCH_<suite>.json``.  The companion
``compare_bench.py`` diffs those files against the committed baselines in
``benchmarks/baselines/`` and fails CI when a tracked speedup ratio
regresses — speedups, not wall-clock, so the gate is hardware-portable.

Usage::

    PYTHONPATH=../src python run_all.py --smoke
    PYTHONPATH=../src python run_all.py --suite e4
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ARTIFACT_DIR = os.environ.get("REPRO_BENCH_ARTIFACTS",
                              os.path.join(HERE, "artifacts"))

#: Which per-cell field is the suite's headline wall-clock measurement, and
#: what to call the measured configuration.
_WALL_MS_KEYS = ("engine_ms", "process_ms", "sharded_ms", "kernel_ms",
                 "vectorized_ms", "incremental_ms",
                 "semi_naive_ms", "serving_ms")
_BACKEND_LABELS = {
    "E1-join-heavy": "engine",
    "E1-catalog": "engine",
    "E1-recursive": "engine",
    "E2-row-vs-vectorized": "vectorized",
    "E4-ivm-vs-recompute": "view",
    "E5-sharded-scatter-gather": "sharded",
    "E6-process-scatter-gather": "process",
    "K1-kernel-microbench": "kernel",
    "E9-async-serving": "server",
    "E10-sharded-ivm": "sharded-view",
}


def _normalize_cell(experiment: str, cell: dict) -> dict | None:
    """One suite cell → the shared record schema (None if unmeasurable)."""
    speedup = cell.get("speedup")
    wall_ms = next((cell[k] for k in _WALL_MS_KEYS if k in cell), None)
    if speedup is None or wall_ms is None:
        return None
    workload = cell.get("workload") or cell.get("query") \
        or (f"{cell['tables']}-table-chain" if "tables" in cell else None) \
        or experiment
    size = cell.get("clients") or cell.get("reserves") or cell.get("tables") \
        or cell.get("nodes") or cell.get("rounds") or cell.get("answer_rows") \
        or 0
    return {
        "workload": str(workload),
        "size": int(size),
        "backend": _BACKEND_LABELS.get(experiment, "engine"),
        "wall_ms": float(wall_ms),
        "speedup": float(speedup),
    }


def _records_from_artifacts(artifacts: list[dict]) -> list[dict]:
    records = []
    for artifact in artifacts:
        experiment = artifact.get("experiment", "unknown")
        for cell in artifact.get("cells", []):
            record = _normalize_cell(experiment, cell)
            if record is not None:
                records.append(record)
    return records


def _pytest_json_lines(script: str, marker: str, smoke: bool) -> list[dict]:
    """Run a pytest-style suite, harvesting its ``E*-JSON`` stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(HERE, "..", "src") \
        + os.pathsep + env.get("PYTHONPATH", "")
    if smoke:
        env["REPRO_BENCH_REDUCED"] = "1"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", script, "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=HERE, env=env, capture_output=True, text=True)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        raise SystemExit(f"{script} failed with exit code {result.returncode}")
    artifacts = []
    for line in result.stdout.splitlines():
        if line.startswith(marker):
            artifacts.append(json.loads(line[len(marker):].strip()))
    return artifacts


def _run_e1(smoke: bool) -> list[dict]:
    return _pytest_json_lines("bench_e1_engine.py", "E1-JSON", smoke)


def _run_e2(smoke: bool) -> list[dict]:
    return _pytest_json_lines("bench_e2_vectorized.py", "E2-JSON", smoke)


def _run_e4(smoke: bool) -> list[dict]:
    import bench_e4_ivm

    return [bench_e4_ivm.run_experiment(smoke=smoke)]


def _run_e5(smoke: bool) -> list[dict]:
    import bench_e5_sharded

    return [bench_e5_sharded.run_experiment(smoke=smoke)]


def _run_e6(smoke: bool) -> list[dict]:
    import bench_e6_process

    artifact = bench_e6_process.run_experiment(smoke=smoke)
    failures = bench_e6_process.check_gates(artifact)
    if failures:
        raise SystemExit("E6 gate failed:\n" + "\n".join(failures))
    return [artifact]


def _run_e9(smoke: bool) -> list[dict]:
    import bench_e9_serving

    artifact = bench_e9_serving.run_experiment(smoke=smoke)
    failures = bench_e9_serving.check_gates(artifact)
    if failures:
        raise SystemExit("E9 gate failed:\n" + "\n".join(failures))
    return [artifact]


def _run_e10(smoke: bool) -> list[dict]:
    import bench_e10_sharded_ivm

    artifact = bench_e10_sharded_ivm.run_experiment(smoke=smoke)
    failures = bench_e10_sharded_ivm.check_gates(artifact)
    if failures:
        raise SystemExit("E10 gate failed:\n" + "\n".join(failures))
    return [artifact]


def _run_k1(smoke: bool) -> list[dict]:
    import bench_k1_kernels

    artifact = bench_k1_kernels.run_experiment(smoke=smoke)
    failures = bench_k1_kernels.check_gates(artifact)
    if failures:
        raise SystemExit("K1 gate failed:\n" + "\n".join(failures))
    return [artifact]


SUITES = {
    "e1": _run_e1,
    "e2": _run_e2,
    "e4": _run_e4,
    "e5": _run_e5,
    "e6": _run_e6,
    "e9": _run_e9,
    "e10": _run_e10,
    "k1": _run_k1,
}


def run_suite(suite: str, smoke: bool) -> dict:
    artifacts = SUITES[suite](smoke)
    unified = {
        "suite": suite,
        "reduced": smoke,
        "schema": ["suite", "workload", "size", "backend", "wall_ms",
                   "speedup"],
        "records": [dict(record, suite=suite)
                    for record in _records_from_artifacts(artifacts)],
    }
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, f"BENCH_{suite}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(unified, handle, indent=2)
        handle.write("\n")
    print(f"[run_all] {path}: {len(unified['records'])} record(s)")
    return unified


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (the CI gate configuration)")
    parser.add_argument("--suite", action="append", choices=sorted(SUITES),
                        help="run only the given suite(s); default: all")
    args = parser.parse_args(argv)
    for suite in (args.suite or sorted(SUITES)):
        run_suite(suite, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
