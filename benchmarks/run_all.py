#!/usr/bin/env python
"""Run every benchmark suite and emit unified ``BENCH_<suite>.json`` artifacts.

Each suite keeps its own detailed artifact (``bench_e*_*.json`` and the
``E*-JSON`` stdout lines), but nothing compared those across runs.  This
driver runs the suites — reduced sizes with ``--smoke`` — and normalizes
every measured cell into one shared record schema::

    {"suite": "e4", "workload": "join-chain", "size": 48000,
     "backend": "view", "wall_ms": 9.1, "speedup": 19.6}

written to ``benchmarks/artifacts/BENCH_<suite>.json`` (untracked).  Every
selected suite runs, and its gates (``check_gates``, or a pytest suite's
own assertions) are applied as it finishes; every failing gate is listed
at the end and the exit status is non-zero if there was one.  The
companion ``compare_bench.py`` diffs those files against the committed
baselines in ``benchmarks/baselines/`` and fails CI when a tracked
speedup ratio regresses — speedups, not wall-clock, so the gate is
hardware-portable.

Usage::

    PYTHONPATH=../src python run_all.py --smoke
    PYTHONPATH=../src python run_all.py --suite e4
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import traceback

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


def _pytest_json_lines(script: str, marker: str,
                       smoke: bool) -> tuple[list[dict], list[str]]:
    """Run a pytest-style suite, harvesting its ``E*-JSON`` stdout lines.

    Its assertions are its gates: a failing run is one failure.
    """
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
    failures = [] if result.returncode == 0 else \
        [f"{script} failed with exit code {result.returncode}"]
    artifacts = []
    for line in result.stdout.splitlines():
        if line.startswith(marker):
            artifacts.append(json.loads(line[len(marker):].strip()))
    return artifacts, failures


def _measured_in_process(module: str, smoke: bool) -> tuple[list[dict],
                                                            list[str]]:
    """Run a suite module's ``run_experiment``, then its ``check_gates``."""
    bench = importlib.import_module(module)
    artifact = bench.run_experiment(smoke=smoke)
    return [artifact], bench.check_gates(artifact)


#: suite -> how to run it: ``(runner, *args)``, where the runner returns the
#: suite's artifacts and the failure strings of its gates.
SUITES = {
    "e1": (_pytest_json_lines, "bench_e1_engine.py", "E1-JSON"),
    "e2": (_pytest_json_lines, "bench_e2_vectorized.py", "E2-JSON"),
    "e4": (_measured_in_process, "bench_e4_ivm"),
    "e5": (_measured_in_process, "bench_e5_sharded"),
    "e6": (_measured_in_process, "bench_e6_process"),
    "e9": (_measured_in_process, "bench_e9_serving"),
    "e10": (_measured_in_process, "bench_e10_sharded_ivm"),
    "k1": (_measured_in_process, "bench_k1_kernels"),
}


def run_suite(suite: str, smoke: bool) -> list[str]:
    """Run one suite, write its ``BENCH_<suite>.json``, return its failures."""
    runner, *args = SUITES[suite]
    artifacts, failures = runner(*args, smoke)
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
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (the CI gate configuration)")
    parser.add_argument("--suite", action="append", choices=sorted(SUITES),
                        help="run only the given suite(s); default: all")
    args = parser.parse_args(argv)
    failures = []
    for suite in (args.suite or sorted(SUITES)):
        try:
            failed = run_suite(suite, args.smoke)
        except Exception as exc:  # a failure like a red gate: run the rest
            traceback.print_exc()
            failed = [f"raised {exc!r}"]
        failures.extend(f"{suite.upper()}: {failure}" for failure in failed)
    for failure in failures:
        print(f"[run_all] GATE FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
