"""BENCH_e2e: one command, four workloads, every metric by name and unit.

    python3 benchmarks/e2e/run.py --workload hot-read --seed 13 \\
        --seconds 15 --trace 0

``--trace 0`` measures the five end-to-end metrics over real sockets
against a server subprocess; ``--trace 1`` runs a shorter wire pass (for
the counts and the wire latencies) and then the in-process staged replay
(``replay.py``) that yields the per-layer timings.  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it name every metric with its unit.  ``README.md`` defines
each metric; ``--selfcheck`` and ``--compare`` live in ``selfcheck.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

import check
import instance
import selfcheck
import wire
from workloads import WORKLOADS, Workload

#: name -> unit, in report order: ``BENCHMARK.json`` is the one declaration
#: of what this benchmark reports.
with open(wire.HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as _spec:
    _SPEC = json.load(_spec)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: The traced run's wire pass covers this share of the untraced count and
#: its replay that one, so a traced invocation fits the same wall budget.
TRACE_WIRE_SHARE = 0.5
TRACE_REPLAY_SHARE = 0.1
#: Spawn-to-ready cycles per run; ``setup_s`` is their median.
SETUP_CYCLES = 3
#: ``--smoke``: (request-count scale, dataset scale, set-up cycles).
SMOKE = (0.01, 0.1, 1)
#: Speed probes taken right after each set-up cycle, to calibrate it.
SETUP_PROBES = 40
#: A window running this many times ``--seconds`` is cut (driver wall limit).
DEADLINE_FACTOR = 2.5


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _whole(n: float) -> int:
    """``n`` cut to whole write cycles (10) and five-language blocks (25)."""
    return max(50, int(n) // 50 * 50)


def _warm_up(client: wire.Client, encoded: "list[bytes]",
             warmup: "list[int]") -> None:
    for index in warmup:
        ok, body = client.exchange(encoded[index])
        if not ok:
            raise RuntimeError(f"warm-up request failed: {body[:300]!r}")


def run_workload(workload: Workload, *, seed: int, seconds: float,
                 trace: bool, smoke: bool = False) -> dict[str, Any]:
    """One full run; returns the run record ``main`` writes to ``out/``."""
    scale, data_scale, setup_cycles = SMOKE if smoke else (1.0, 1.0,
                                                           SETUP_CYCLES)
    cpu, spare = wire.pick_cpus()
    os.sched_setaffinity(0, {cpu})

    start = time.perf_counter()
    db = workload.build_db(data_scale)
    datagen_s = time.perf_counter() - start
    n_full = workload.requests_for(seconds, scale)
    sequence = workload.build_sequence(db, seed, n_full)
    n_full = len(sequence.order)
    encoded = [request.encode() for request in sequence.distinct]
    is_read = [request.kind == "read" for request in sequence.distinct]
    n = _whole(n_full * TRACE_WIRE_SHARE) if trace else n_full
    order = sequence.order[:n]
    n = len(order)
    inst = dict(instance.dataset_record(db),
                sequence_hash=instance.sequence_hash(encoded, order),
                requests=n, seed=seed)
    sampled, groups = check.pick_positions(sequence, n, seed)
    keep = set(sampled).union(*groups.values())

    # -- set-up: spawn -> imports -> service -> views -> warm-up, N times --
    setups: list[float] = []
    server = client = None
    try:
        for cycle in range(setup_cycles):
            server = wire.ServerProcess(workload.name, cpu, data_scale)
            client = wire.Client(server.port)
            _warm_up(client, encoded, sequence.warmup)
            took = (time.perf_counter() - server.spawned_at
                    - server.datagen_s)
            setups.append(took * wire.speed_factor(
                [wire.probe() for _ in range(SETUP_PROBES)]))
            if cycle < setup_cycles - 1:
                client.close()
                server.close()
        tree = wire.process_tree(server.pid)
        wire.repin(tree[1:], spare)

        # -- the measured window ------------------------------------------
        before = client.get_json("/metrics")
        window = wire.run_window(client, encoded, order, is_read, keep, tree,
                                 deadline_s=seconds * DEADLINE_FACTOR)
        after = client.get_json("/metrics")
        views = client.get_json("/views")["views"]
        view_replies = check.read_views(workload, client)
        segments_live = wire.live_segments(server.pid)
    finally:
        if client is not None:
            client.close()
        exit_code = server.close() if server is not None else None
    stderr_lines = server.stderr_lines()

    # -- correctness, off the clock ---------------------------------------
    done = len(window.ends)
    reference = check.Reference(db, sequence)
    checks, problems = check.check_window(reference, sequence, window.kept,
                                          sampled, groups)
    view_checks, view_problems = check.check_views(
        reference, workload, view_replies, done)
    problems += view_problems
    if exit_code != 0:
        problems.append(f"server exited with code {exit_code}")
    for problem in problems:
        print(f"# MISMATCH {problem}", file=sys.stderr)
    failed_requests = window.ok.count(False)
    attempted = done + checks + view_checks
    failed = failed_requests + len(problems)

    # -- end-to-end metrics ------------------------------------------------
    read_positions = [p for p in range(done) if is_read[order[p]]]
    write_positions = [p for p in range(done) if not is_read[order[p]]]
    slices = wire.slices_of(window)
    latency_ms = wire.calibrated_ms(window, slices)
    read_ms = [latency_ms[p] for p in read_positions]
    write_ms = [latency_ms[p] for p in write_positions]
    end_to_end = {
        "throughput_rps": statistics.median(s.throughput for s in slices),
        "read_p50_ms": wire.percentile(read_ms, 0.50),
        "server_cpu_ms_per_req": statistics.median(
            s.cpu_ms_per_req for s in slices),
        "server_peak_rss_mb": window.peak_pss_mb,
        "setup_s": statistics.median(setups),
    }

    # /metrics is flat: counters are ints, the rest (version vectors, the
    # backend name) is not subtracted.
    delta = {key: value - before[key] for key, value in after.items()
             if isinstance(value, int) and isinstance(before.get(key), int)}
    counts = {
        "requests": done,
        "reads": len(read_positions),
        "writes": len(write_positions),
        "failed_requests": failed_requests,
        "service_requests": delta.get("requests", 0),
        "result_hits": delta.get("result_hits", 0),
        "view_hits": delta.get("view_hits", 0),
        "result_misses": delta.get("result_misses", 0),
        "plan_hits": delta.get("plan_hits", 0),
        "plan_misses": delta.get("plan_misses", 0),
        "write_rows": delta.get("write_rows", 0),
        "write_flushes": delta.get("write_flushes", 0),
        "scatter": delta.get("exec_scatter", 0),
        "single_shard": delta.get("exec_single_shard", 0),
        "sharded_fallback": delta.get("exec_fallback", 0),
        "fallback_replies": window.warned,
    }

    per_layer: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    per_layer.update({
        "client.write_p50_ms": wire.percentile(write_ms, 0.50),
        "client.read_p99_ms": wire.percentile(read_ms, 0.99),
        "core.service.result_hit_share": _share(
            counts["result_hits"] + counts["view_hits"],
            counts["service_requests"]),
        "core.pipeline.plan_hit_share": _share(
            counts["plan_hits"], counts["plan_hits"] + counts["plan_misses"]),
        "core.pipeline.fallback_share": _share(window.warned, counts["reads"]),
        "engine.kernels.cache_hit_share": _share(
            delta.get("kernel_cache_hits", 0),
            delta.get("kernel_cache_hits", 0)
            + delta.get("kernel_cache_misses", 0)),
        "engine.sharded.scatter_share": _share(
            counts["scatter"], counts["scatter"] + counts["single_shard"]
            + counts["sharded_fallback"]),
        "server.worker.rows_per_flush": _share(
            counts["write_rows"], counts["write_flushes"]),
        "core.service.validation_retries": delta.get("validation_retries", 0),
        "core.service.serialized_runs": delta.get("serialized_runs", 0),
        "engine.delta.shard_rebuilds": sum(
            view.get("shard_rebuilds", 0) for view in views),
        "engine.process.pool_recovery": delta.get("exec_pool_recovery", 0),
        "server.admission.shed": delta.get("admission_shed", 0),
        "data.sharded.segments_live": segments_live,
        "server.stderr_lines": stderr_lines,
        "client.slice_spread": wire.quartile_spread(
            [s.throughput for s in slices]),
        "client.raw_throughput_rps":
            done / (window.ends[-1] - window.starts[0]),
        "client.raw_read_p50_ms": wire.percentile(
            [(window.ends[p] - window.starts[p]) * 1e3
             for p in read_positions], 0.50),
        "harness.probe_us": statistics.median(
            took for _at, took in window.probes) * 1e6,
        "harness.datagen_s": datagen_s,
    })

    if trace:
        per_layer.update(_traced_replay(
            workload, seed, n_full,
            min(_whole(n_full * TRACE_REPLAY_SHARE), done), data_scale, cpu,
            spare, latency_ms))
    undeclared = set(per_layer) - set(PER_LAYER)
    if undeclared:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {undeclared}")

    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "instance": inst, "counts": counts,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def _traced_replay(workload: Workload, seed: int, n_full: int, n_replay: int,
                   data_scale: float, cpu: int, spare: "list[int]",
                   latency_ms: "list[float]") -> dict[str, float]:
    """Run ``replay.py`` in a process of the server's shape; returns its
    per-layer medians plus ``server.app.residual_us``."""
    stderr_path = wire.OUT_DIR / f"replay-{workload.name}.stderr"
    with open(stderr_path, "wb") as stderr:
        done = subprocess.run(
            [sys.executable, str(wire.HERE / "replay.py"),
             "--workload", workload.name, "--seed", str(seed),
             "--requests", str(n_full), "--replay", str(n_replay),
             "--data-scale", repr(data_scale), "--cpu", str(cpu),
             "--spare", ",".join(map(str, spare))],
            stdout=subprocess.PIPE, stderr=stderr, cwd=str(wire.HERE),
            env=wire.child_env())
    if done.returncode != 0:
        raise RuntimeError(
            f"replay failed (exit {done.returncode}): "
            + stderr_path.read_text(errors="replace")[-2000:])
    summary = json.loads(done.stdout.splitlines()[-1])
    metrics = dict(summary["metrics"])
    # Wire latency minus the in-process stages of the *same* request, both
    # at reference speed: what the event loop, the executor hop and the
    # sockets add.
    residuals = [latency_ms[int(p)] * 1e3 - served
                 for p, served in summary["served_us"].items()
                 if int(p) < len(latency_ms)
                 and latency_ms[int(p)] != float("inf")]
    if residuals:
        metrics["server.app.residual_us"] = statistics.median(residuals)
    return metrics


def print_report(record: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's last line."""
    inst = record["instance"]
    print(f"# workload {record['workload']} seed {record['seed']} "
          f"requests {inst['requests']} trace {record['trace']}")
    print(f"# dataset {inst['dataset_hash'][:16]} "
          f"sequence {inst['sequence_hash'][:16]}")
    print("# counts " + json.dumps(record["counts"], sort_keys=True))
    for section, units in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
        for name, unit in units.items():
            value = record[section][name]
            print(f"{name:40s} {value:14.4f} {unit}")
    chosen, units = (("per_layer", PER_LAYER) if record["trace"]
                     else ("end_to_end", END_TO_END))
    # min(): a latency that reads +inf (every reply failed) must still be
    # a JSON number.
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": min(record[chosen][name], 1e12),
                           "unit": unit} for name, unit in units.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float,
                        default=float(_SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/100 of the requests on 1/10 of the dataset, "
                             "one set-up cycle (test_smoke.py)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two interleaved sets of full runs -> NOISE.md")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="diff two run records (same instance only)")
    args = parser.parse_args()
    if args.compare:
        return selfcheck.compare(*args.compare)
    if args.selfcheck:
        return selfcheck.selfcheck(int(args.seconds))
    if args.workload is None:
        parser.error("--workload is required")
    record = run_workload(
        WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke)
    path = wire.OUT_DIR / (f"run-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print_report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
