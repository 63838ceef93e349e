"""The server subprocess of BENCH_e2e: one workload's service over HTTP.

Spawned by the harness (``wire.ServerProcess``) with ``PYTHONHASHSEED=0``.
Pins itself — before any thread exists, so threads inherit — to ``--cpu``,
builds the workload's dataset and service, binds an ephemeral port and
prints one ``READY {json}`` line; serves until SIGTERM, then closes the app
and the service (worker pool, page segments) and exits 0.

``datagen_s`` in the READY line lets the harness cut dataset generation out
of ``setup_s``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import time


async def _serve(service: object, ready: dict) -> None:
    from repro.server.app import ServingApp

    app = ServingApp(service)
    ready["port"] = await app.start("127.0.0.1", 0)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print("READY " + json.dumps(ready), flush=True)
    try:
        await stop.wait()
    finally:
        await app.close()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--cpu", type=int, default=-1)
    parser.add_argument("--data-scale", type=float, default=1.0)
    args = parser.parse_args()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    db = workload.build_db(args.data_scale)
    datagen_s = time.perf_counter() - start
    service = workload.open_service(db)
    try:
        asyncio.run(_serve(service, {"pid": os.getpid(),
                                     "datagen_s": datagen_s}))
    finally:
        service.close()


if __name__ == "__main__":
    main()
