"""The traced run: an in-process staged replay with spans.

Per-layer *timings* cannot come from the wire run — the program has no span
layer yet (ROADMAP open item) and the end-to-end run must stay untraced.  So
the harness replays the first N requests of the same sequence in a process
of the server's shape (dataset + service, nothing else on the heap; pinned
to the same CPU) and calls each layer's public function itself, recording
one span per call.  Per request::

    as served   protocol.read_request (fed StreamReader) + Request.json
                AdmissionController.slot
                service.query                  (hit, view hit or miss)
                QueryResult.to_payload
                protocol.render_response
    then, for a request that missed, the same text one layer at a time
                parse_<lang> -> lower -> optimize -> execute_plan
                (Datalog: parse_datalog -> execute_datalog, which plans per
                stratum itself; sharded scatter: ... -> shard_plan ->
                ProcessBackend.execute), and verify_plan beside them
    writes      WriteWorker.submit, then what the write leaves behind for
                later reads, made explicit: Relation.add_rows on a scratch
                copy, SharedPagePublisher.publish + attach_segment per
                touched shard, view.refresh per registered view.

The served path runs first, so it sees exactly the state the server saw;
the staged stages that follow find the literal's compiled predicate cached,
which is why ``core.service.miss_overhead_us`` (miss minus the stage sum)
is an upper bound.  Spans are ``[name, start, end, parent, request_id]``
rows kept in memory and written to ``out/trace-<workload>.json`` at exit;
the summary (medians at reference speed, see ``wire.probe``) goes to stdout
as one JSON line for ``run.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Sequence

import wire
from workloads import WORKLOADS, Request
from workloads import Sequence as RequestSequence

from repro.data.relation import Relation
from repro.data.sharded import attach_segment, detach_segment
from repro.datalog.parser import parse_datalog
from repro.drc.parser import parse_drc
from repro.engine import (
    execute_datalog,
    execute_plan,
    lower,
    optimize,
    shard_plan,
    verify_plan,
)
from repro.engine.stats import StatsCatalog
from repro.ra.parser import parse_ra
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.worker import WriteWorker
from repro.sql.parser import parse_sql
from repro.trc.parser import parse_trc

_clock = time.perf_counter
_PARSERS = {"sql": parse_sql, "ra": parse_ra, "trc": parse_trc,
            "drc": parse_drc, "datalog": parse_datalog}

#: span name -> (metric name, seconds -> metric unit)
_SPAN_METRICS = {
    "server.protocol.parse": ("server.protocol.parse_us", 1e6),
    "server.protocol.render": ("server.protocol.render_us", 1e6),
    "server.admission.slot": ("server.admission.slot_us", 1e6),
    "core.service.payload": ("core.service.payload_us", 1e6),
    "frontend.parse.sql": ("frontend.parse_us.sql", 1e6),
    "frontend.parse.ra": ("frontend.parse_us.ra", 1e6),
    "frontend.parse.trc": ("frontend.parse_us.trc", 1e6),
    "frontend.parse.drc": ("frontend.parse_us.drc", 1e6),
    "frontend.parse.datalog": ("frontend.parse_us.datalog", 1e6),
    "engine.lower": ("engine.lower.lower_us", 1e6),
    "engine.optimize": ("engine.optimize.optimize_us", 1e6),
    "engine.verify": ("engine.verify.verify_us", 1e6),
    "engine.execute.datalog": ("engine.execute.datalog_us", 1e6),
    "engine.vectorized.execute": ("engine.vectorized.execute_ms", 1e3),
    "engine.sharded.compile": ("engine.sharded.compile_ms", 1e3),
    "engine.process.execute": ("engine.process.execute_ms", 1e3),
    "data.sharded.publish": ("data.sharded.publish_ms", 1e3),
    "data.sharded.attach": ("data.sharded.attach_ms", 1e3),
    "engine.delta.refresh": ("engine.delta.refresh_ms", 1e3),
    "server.worker.submit": ("server.worker.submit_ms", 1e3),
}


class Tracer:
    """Spans in memory: ``[name, start, end, parent, request_id]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []

    def open(self, name: str, parent: "int | None", request_id: int) -> int:
        self.spans.append([name, _clock(), 0.0, parent, request_id])
        return len(self.spans) - 1

    def close(self, span: int) -> float:
        row = self.spans[span]
        row[2] = _clock()
        return row[2] - row[1]

    def call(self, name: str, parent: "int | None", request_id: int,
             fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        span = self.open(name, parent, request_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def medians(self) -> dict[str, float]:
        """Median duration in seconds per span name."""
        by_name: dict[str, list[float]] = {}
        for name, start, end, _parent, _rid in self.spans:
            by_name.setdefault(name, []).append(end - start)
        return {name: statistics.median(v) for name, v in by_name.items()}


class Replay:
    """Replays a sequence prefix against an in-process service."""

    def __init__(self, service: Any, sequence: RequestSequence,
                 encoded: Sequence[bytes]) -> None:
        self.service = service
        self.sequence = sequence
        self.encoded = encoded
        self.tracer = Tracer()
        #: position -> seconds in the stages the server also runs (parse,
        #: slot, service call, payload, render): the in-process share of
        #: that request's wire latency.
        self.served_s: dict[int, float] = {}
        #: per staged request: (whole miss seconds, sum of stage seconds)
        self.staged: list[tuple[float, float]] = []
        self.outcomes: dict[str, list[float]] = {
            "hit": [], "view_hit": [], "miss": []}
        self.rows_added = 0
        self.add_rows_s = 0.0
        #: speed probes interleaved with the replayed requests
        self.probes: list[float] = []
        self.sharded = hasattr(service, "sharded_db")
        if self.sharded:
            # A private copy of Reserves: data.relation's share of a write,
            # measured without writing the served database twice.
            live = service.db.relation("Reserves")
            self._scratch = Relation(live.schema, live.rows(), validate=False)

    # -- the replay loop ---------------------------------------------------

    def run(self, n: int) -> None:
        asyncio.run(self._run(n))

    async def _run(self, n: int) -> None:
        self.admission = AdmissionController()
        self.worker = WriteWorker(self.service)
        self.worker.start()
        self.reader = asyncio.StreamReader()
        next_probe = 0.0
        try:
            for position in range(n):
                if _clock() >= next_probe:
                    self.probes.append(wire.probe())
                    next_probe = _clock() + wire.PROBE_EVERY_S
                index = self.sequence.order[position]
                request = self.sequence.distinct[index]
                if request.kind == "read":
                    await self._read(position, request, self.encoded[index])
                else:
                    await self._write(position, self.encoded[index])
        finally:
            await self.worker.close()

    async def _front(self, root: int, rid: int,
                     raw: bytes) -> "tuple[Any, float]":
        """HTTP parse + admission: ``(decoded body, seconds spent)``."""
        self.reader.feed_data(raw)
        span = self.tracer.open("server.protocol.parse", root, rid)
        parsed = await protocol.read_request(self.reader)
        body = parsed.json()
        spent = self.tracer.close(span)
        span = self.tracer.open("server.admission.slot", root, rid)
        async with self.admission.slot():
            pass
        return body, spent + self.tracer.close(span)

    async def _read(self, rid: int, request: Request, raw: bytes) -> None:
        tracer, service = self.tracer, self.service
        root = tracer.open("request", None, rid)
        body, served = await self._front(root, rid, raw)
        text, language = protocol.query_request(body)

        stats = service.stats
        before = (stats.result_hits, stats.view_hits)
        span = tracer.open("core.service.query", root, rid)
        result = service.query(text, language=language)
        query_s = tracer.close(span)
        if stats.view_hits > before[1]:
            outcome = "view_hit"
        elif stats.result_hits > before[0]:
            outcome = "hit"
        else:
            outcome = "miss"
        self.outcomes[outcome].append(query_s)

        span = tracer.open("core.service.payload", root, rid)
        payload = result.to_payload()
        served += query_s + tracer.close(span)
        span = tracer.open("server.protocol.render", root, rid)
        protocol.render_response(200, payload)
        self.served_s[rid] = served + tracer.close(span)
        tracer.close(root)

        # Routed point lookups miss too, but run in the parent on a handful
        # of rows; the staged breakdown is kept for the scatter path.
        if outcome == "miss" and request.tag != "point":
            self.staged.append(
                (query_s, self._staged(rid, text, language)))

    def _staged(self, rid: int, text: str, language: str) -> float:
        """The miss path one public function at a time: the stage sum."""
        tracer, service, db = self.tracer, self.service, self.service.db
        span = tracer.open("staged", None, rid)
        query = tracer.call(f"frontend.parse.{language}", span, rid,
                            _PARSERS[language], text)
        if language == "datalog":
            tracer.call("engine.execute.datalog", span, rid,
                        execute_datalog, query, db)
            return tracer.close(span)
        plan = tracer.call("engine.lower", span, rid,
                           lower, query, db.schema, language)
        plan = tracer.call("engine.optimize", span, rid, optimize, plan, db)
        if self.sharded:
            tracer.call("engine.sharded.compile", span, rid, shard_plan,
                        plan, service.sharded_db,
                        StatsCatalog(service.sharded_db))
            tracer.call("engine.process.execute", span, rid,
                        execute_plan, plan, db, backend=service.backend)
        else:
            tracer.call("engine.vectorized.execute", span, rid,
                        execute_plan, plan, db, backend=service.backend)
        staged_s = tracer.close(span)
        # Off in production (REPRO_VERIFY_PLANS): what certifying one
        # optimized plan would cost.  Outside the stage sum.
        tracer.call("engine.verify", None, rid, verify_plan, plan, db)
        return staged_s

    async def _write(self, rid: int, raw: bytes) -> None:
        tracer, service = self.tracer, self.service
        root = tracer.open("request", None, rid)
        body, _spent = await self._front(root, rid, raw)
        relation, rows = protocol.write_request(body)
        span = tracer.open("server.worker.submit", root, rid)
        version = await self.worker.submit(relation, rows)
        tracer.close(span)
        span = tracer.open("server.protocol.render", root, rid)
        protocol.render_response(200, {"relation": relation,
                                       "rows": len(rows), "version": version,
                                       "batched": True})
        tracer.close(span)
        tracer.close(root)

        span = tracer.open("data.relation.add_rows", None, rid)
        self._scratch.add_rows(rows)
        self.add_rows_s += tracer.close(span)
        self.rows_added += len(rows)
        sharded = service.sharded_db
        publisher = sharded.page_publisher()
        for shard in sorted({sharded.shard_of_row(relation, row)
                             for row in rows}):
            # The slot name the process backend itself uses, so its next
            # scatter finds the segment already published.
            segment = tracer.call(
                "data.sharded.publish", None, rid, publisher.publish,
                f"{shard}/{relation.lower()}",
                sharded.shard(shard).relation(relation))
            attached, shm = tracer.call("data.sharded.attach", None, rid,
                                        attach_segment, segment)
            del attached
            detach_segment(shm)
        for view in service.views():
            tracer.call("engine.delta.refresh", None, rid, view.refresh)

    # -- the summary ---------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Per-layer medians at reference speed, plus the per-position
        served microseconds ``run.py`` subtracts from wire latencies."""
        factor = wire.speed_factor(self.probes)
        metrics: dict[str, float] = {}
        for span_name, seconds in self.tracer.medians().items():
            if span_name in _SPAN_METRICS:
                name, unit = _SPAN_METRICS[span_name]
                metrics[name] = seconds * unit * factor
        for outcome, name in (("hit", "core.service.hit_us"),
                              ("view_hit", "core.service.view_hit_us")):
            if self.outcomes[outcome]:
                metrics[name] = statistics.median(
                    self.outcomes[outcome]) * 1e6 * factor
        if self.staged:
            metrics["core.service.miss_us"] = statistics.median(
                whole for whole, _stages in self.staged) * 1e6 * factor
            metrics["core.service.miss_overhead_us"] = statistics.median(
                whole - stages for whole, stages in self.staged) * 1e6 * factor
        if self.rows_added:
            metrics["data.relation.add_rows_us_per_row"] = (
                self.add_rows_s / self.rows_added * 1e6 * factor)
        return {
            "metrics": metrics,
            "served_us": {str(position): seconds * 1e6 * factor
                          for position, seconds in self.served_s.items()},
            "probe_us": statistics.median(self.probes) * 1e6,
            "spans": len(self.tracer.spans),
        }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True,
                        help="length of the sequence the wire run built")
    parser.add_argument("--replay", type=int, required=True,
                        help="how many of its first positions to replay")
    parser.add_argument("--data-scale", type=float, default=1.0)
    parser.add_argument("--cpu", type=int, default=-1)
    parser.add_argument("--spare", default="",
                        help="comma-separated CPUs for pool workers")
    args = parser.parse_args()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    spare = [int(cpu) for cpu in args.spare.split(",") if cpu]

    workload = WORKLOADS[args.workload]
    db = workload.build_db(args.data_scale)
    sequence = workload.build_sequence(db, args.seed, args.requests)
    encoded = [request.encode() for request in sequence.distinct]
    service = workload.open_service(db)
    try:
        for index in sequence.warmup:
            body = sequence.distinct[index].body
            service.query(body["text"], language=body["language"])
        wire.repin(wire.process_tree(os.getpid())[1:], spare)
        replay = Replay(service, sequence, encoded)
        replay.run(min(args.replay, len(sequence.order)))
    finally:
        service.close()
    wire.OUT_DIR.mkdir(exist_ok=True)
    with open(wire.OUT_DIR / f"trace-{args.workload}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "replayed": args.replay,
                   "columns": ["name", "start", "end", "parent",
                               "request_id"],
                   "spans": replay.tracer.spans}, handle)
        handle.write("\n")
    sys.stdout.write(json.dumps(replay.summary()) + "\n")


if __name__ == "__main__":
    main()
