#!/usr/bin/env python
"""Fail CI when a tracked benchmark speedup regresses vs the baselines.

``run_all.py`` writes one unified ``BENCH_<suite>.json`` per suite; the
committed snapshots live in ``benchmarks/baselines/``.  This gate compares
the **speedup ratios** (engine vs interpreter, vectorized vs row,
incremental view refresh vs recompute, warm vs cold cache) —
ratios, not wall-clock, so the gate holds across CI hardware generations.

A record regresses when its speedup falls more than ``--threshold`` (default
30%) below the committed baseline for the same ``(workload, size, backend)``
key.  A baseline record with no matching fresh measurement also fails — a
silently vanished benchmark is a regression of coverage.  Fresh records with
no baseline are reported as new and pass (commit updated baselines to start
tracking them), and a whole **suite** present in the artifacts but absent
from the committed baselines is the new-suite bootstrap case: it is reported
as informational (with its record count) and never fails the build — a
freshly landed benchmark must be able to ride one CI cycle before its
baseline is promoted with ``--update``.

Usage::

    PYTHONPATH=../src python run_all.py --smoke
    python compare_bench.py                 # gate against baselines/
    python compare_bench.py --update        # rewrite baselines from artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ARTIFACTS = os.environ.get("REPRO_BENCH_ARTIFACTS",
                                   os.path.join(HERE, "artifacts"))
DEFAULT_BASELINES = os.path.join(HERE, "baselines")
DEFAULT_THRESHOLD = 0.30

#: Baseline speedups below this are treated as informational, not gated: a
#: ratio hovering around 1.0x (e.g. scatter-gather against the one columnar
#: executor on tiny smoke inputs) moves with runner noise, and a 30% band
#: around "roughly break-even" would flake on shared CI hardware.
GATE_FLOOR = 1.5


def _load_records(path: str) -> dict[tuple, dict]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    records = {}
    for record in payload.get("records", []):
        key = (record["workload"], record["size"], record["backend"])
        records[key] = record
    return records


def compare_suite(suite: str, baseline_path: str, artifact_path: str,
                  threshold: float) -> tuple[list[str], list[str]]:
    """``(failures, notes)`` for one suite's baseline vs fresh artifact."""
    failures: list[str] = []
    notes: list[str] = []
    if not os.path.exists(artifact_path):
        return ([f"{suite}: no fresh artifact at {artifact_path} "
                 "(did run_all.py run?)"], notes)
    baseline = _load_records(baseline_path)
    fresh = _load_records(artifact_path)
    for key, base_record in sorted(baseline.items()):
        workload, size, backend = key
        label = f"{suite}/{workload}@{size}[{backend}]"
        fresh_record = fresh.get(key)
        if fresh_record is None:
            failures.append(f"{label}: tracked benchmark disappeared")
            continue
        base_speedup = base_record.get("speedup")
        new_speedup = fresh_record.get("speedup")
        if base_speedup is None or new_speedup is None:
            continue
        if base_speedup < GATE_FLOOR:
            notes.append(f"{label}: {new_speedup:.2f}x (baseline "
                         f"{base_speedup:.2f}x, near break-even: not gated)")
            continue
        floor = base_speedup * (1.0 - threshold)
        if new_speedup < floor:
            failures.append(
                f"{label}: speedup {new_speedup:.2f}x regressed more than "
                f"{threshold:.0%} below baseline {base_speedup:.2f}x "
                f"(floor {floor:.2f}x)")
        else:
            notes.append(f"{label}: {new_speedup:.2f}x "
                         f"(baseline {base_speedup:.2f}x) ok")
    for key in sorted(set(fresh) - set(baseline)):
        workload, size, backend = key
        notes.append(f"{suite}/{workload}@{size}[{backend}]: new, untracked")
    return failures, notes


def update_baselines(artifacts: str, baselines: str) -> int:
    os.makedirs(baselines, exist_ok=True)
    copied = 0
    for name in sorted(os.listdir(artifacts)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            shutil.copyfile(os.path.join(artifacts, name),
                            os.path.join(baselines, name))
            print(f"[compare_bench] baseline updated: {name}")
            copied += 1
    return copied


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifacts", default=DEFAULT_ARTIFACTS)
    parser.add_argument("--baselines", default=DEFAULT_BASELINES)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed fractional speedup regression "
                             "(default 0.30)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from the fresh artifacts "
                             "instead of comparing")
    args = parser.parse_args(argv)

    if args.update:
        if update_baselines(args.artifacts, args.baselines) == 0:
            print("[compare_bench] no BENCH_*.json artifacts to promote",
                  file=sys.stderr)
            return 1
        return 0

    if not os.path.isdir(args.baselines):
        print(f"[compare_bench] no baselines directory at {args.baselines}; "
              "run with --update to create it", file=sys.stderr)
        return 1

    def _suite_files(directory: str) -> set[str]:
        if not os.path.isdir(directory):
            return set()
        return {name for name in os.listdir(directory)
                if name.startswith("BENCH_") and name.endswith(".json")}

    baseline_files = _suite_files(args.baselines)
    artifact_files = _suite_files(args.artifacts)
    all_failures: list[str] = []
    compared = 0
    for name in sorted(baseline_files | artifact_files):
        suite = name[len("BENCH_"):-len(".json")]
        if name not in baseline_files:
            # New-suite bootstrap: measured but not yet tracked.  This is
            # informational, never a failure — promote with --update once
            # the suite has landed to start gating it.
            records = _load_records(os.path.join(args.artifacts, name))
            print(f"[compare_bench] {suite}: new suite, {len(records)} "
                  "record(s) with no committed baseline — informational "
                  "(bootstrap; run compare_bench.py --update to track)")
            continue
        failures, notes = compare_suite(
            suite, os.path.join(args.baselines, name),
            os.path.join(args.artifacts, name), args.threshold)
        for note in notes:
            print(f"[compare_bench] {note}")
        all_failures.extend(failures)
        compared += 1
    if compared == 0 and not artifact_files:
        print("[compare_bench] no BENCH_*.json baselines or artifacts found",
              file=sys.stderr)
        return 1
    if all_failures:
        print(f"\n[compare_bench] {len(all_failures)} regression(s):",
              file=sys.stderr)
        for failure in all_failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    print(f"[compare_bench] all tracked speedups within {args.threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
