"""``--selfcheck`` and ``--compare``: is the benchmark steady enough to use?

``selfcheck`` does to the working tree what the PR driver does to a
benchmark: two sets of full runs of *identical* code, every run with
another ``--seed``, interleaved so both sets see the same machine weather.
For every (workload, end-to-end metric) it reports each set's median, the
spread inside each set (IQR / median, ``statistics.quantiles(n=4)``) and how
much worse the second median is than the first, against the metric's bound
in ``BENCHMARK.json``; it also checks that the request, hit and write/flush/
scatter counts are identical across all runs and that nothing failed.  The
table is written to ``NOISE.md``.  If a metric misses: lengthen the run or
fix the harness — never widen the bound to fit.

``compare`` diffs two run records (``out/run-*.json``) and refuses when
their instance hashes differ: numbers from different datasets or request
sequences are not comparable.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
#: Runs per set: what the PR driver makes per workload.
RUNS = 10


def _spread(values: "list[float]") -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def _one_run(workload: str, seed: int, seconds: int) -> dict[str, Any]:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.DEVNULL)
    with open(HERE / "out" / f"run-{workload}-seed{seed}-trace0.json",
              encoding="utf-8") as handle:
        return json.load(handle)


def selfcheck(seconds: int) -> int:
    runs = RUNS
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    records: dict[tuple[str, str], list[dict[str, Any]]] = {}
    began = time.time()
    for i in range(runs):
        for workload in workloads:
            for label, seed in (("A", 100 + 2 * i), ("B", 101 + 2 * i)):
                record = _one_run(workload, seed, seconds)
                records.setdefault((workload, label), []).append(record)
                print(f"# {label}{i} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in record["end_to_end"].items()),
                    flush=True)

    lines = [
        "# BENCH_e2e noise table", "",
        "`python3 benchmarks/e2e/run.py --selfcheck`: two "
        f"interleaved sets (A, B) of {runs} full runs of the same working "
        f"tree, {seconds} s each, every run with another `--seed`; "
        f"{time.strftime('%Y-%m-%d', time.gmtime(began))}, "
        f"{(time.time() - began) / 60:.0f} min.", "",
        "`spread` is IQR/median inside one set; `B worse by` compares the two "
        "medians; both must stay within `bound` (a spread under a third of "
        "the bound is the target; `setup_s` spread is reported, not gated).",
        "",
        "| workload | metric | median A | median B | B worse by | spread A "
        "| spread B | bound | verdict |",
        "|---|---|---:|---:|---:|---:|---:|---:|---|",
    ]
    misses = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["end_to_end"][name] for r in records[workload, "A"]]
            b = [r["end_to_end"][name] for r in records[workload, "B"]]
            worse = _worse_by(statistics.median(a), statistics.median(b),
                              metric["better"])
            spreads = (_spread(a), _spread(b))
            ok = worse <= bound and (name == "setup_s"
                                     or max(spreads) <= bound)
            verdict = "ok" if ok else "MISS"
            if ok and name != "setup_s" and max(spreads) > bound / 3:
                verdict = "ok (spread > bound/3)"
            misses += not ok
            lines.append(
                f"| {workload} | {name} | {statistics.median(a):.4g} "
                f"| {statistics.median(b):.4g} | {worse:+.1%} "
                f"| {spreads[0]:.1%} | {spreads[1]:.1%} | {bound:.0%} "
                f"| {verdict} |")
    lines += ["", "## Counts", "",
              "Identical across all runs of a workload unless listed:", ""]
    for workload in workloads:
        both = records[workload, "A"] + records[workload, "B"]
        failed = sum(r["failed"] for r in both)
        varying = sorted(
            key for key in both[0]["counts"]
            if len({r["counts"][key] for r in both}) > 1)
        hashes = {r["instance"]["dataset_hash"] for r in both}
        lines.append(
            f"- `{workload}`: {len(both)} runs, dataset "
            f"`{sorted(hashes)[0][:16]}`{' (VARIES)' if len(hashes) > 1 else ''}"
            f", {failed} failed operations, counts "
            f"`{json.dumps(both[0]['counts'], sort_keys=True)}`"
            + (f"; **varying: {varying}**" if varying else ""))
        misses += bool(failed) + bool(varying) + (len(hashes) > 1)
    text = "\n".join(lines) + "\n"
    (HERE / "NOISE.md").write_text(text, encoding="utf-8")
    print(text)
    return 1 if misses else 0


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    for key in ("dataset_hash", "sequence_hash"):
        if a["instance"][key] != b["instance"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['instance'][key][:16]} vs {b['instance'][key][:16]}); "
                  "runs are comparable only on the same instance",
                  file=sys.stderr)
            return 2
    print(f"# {a['workload']} dataset {a['instance']['dataset_hash'][:16]} "
          f"sequence {a['instance']['sequence_hash'][:16]}")
    for section in ("end_to_end", "per_layer"):
        for name, value in a[section].items():
            other = b[section].get(name, 0.0)
            change = f"{(other - value) / value:+.1%}" if value else "n/a"
            print(f"{name:40s} {value:14.4f} {other:14.4f} {change:>8s}")
    return 0
