"""Smoke test: every workload at 1/100 size, every declared metric printed.

Runs the real command line (server subprocess, sockets, replay) with the
request count at 1/100, the dataset at 1/10 and one set-up cycle, so the
four workloads finish in under ten seconds.  It checks the contract, not the
numbers: the last line is the result object, ``--trace 1`` carries exactly
the per-layer names of ``BENCHMARK.json`` and ``--trace 0`` exactly the
end-to-end names, every metric is listed by name with its declared unit,
nothing failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import selfcheck

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> "tuple[dict, dict[str, str]]":
    """``(result object, {metric name: unit} from the listing lines)``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    listed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            listed[parts[0]] = parts[2]
    return json.loads(lines[-1]), listed


def _check(result: dict, declared: "list[dict]") -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS[1:])
def test_traced_run_prints_every_metric(workload: str) -> None:
    result, listed = _run(workload, trace=1)
    _check(result, SPEC["per_layer"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert listed.get(metric["name"]) == metric["unit"], metric["name"]
    assert result["metrics"]["server.app.residual_us"]["value"] != 0


def test_untraced_run_and_compare(
        tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    # The first workload untraced, so the five runs fit the 10 s budget.
    result, listed = _run(WORKLOADS[0], trace=0)
    _check(result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert listed.get(metric["name"]) == metric["unit"], metric["name"]

    # --compare diffs a record with itself and refuses another instance.
    record = json.loads(
        (HERE / "out" / f"run-{WORKLOADS[0]}-seed7-trace0.json").read_text())
    other = json.loads(json.dumps(record))
    other["instance"]["sequence_hash"] = "0" * 64
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record))
    b.write_text(json.dumps(other))
    assert selfcheck.compare(str(a), str(a)) == 0
    assert "throughput_rps" in capsys.readouterr().out
    assert selfcheck.compare(str(a), str(b)) == 2
    assert "refusing" in capsys.readouterr().err
