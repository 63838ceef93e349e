"""An asyncio HTTP/1.1 serving tier over the unified service API.

Everything below :mod:`repro.core.service_api` is in-process; this package
is the protocol boundary the roadmap's "millions of users" needs.  It is
dependency-free (stdlib ``asyncio`` only) and written against the
:class:`~repro.core.service_api.ServiceAPI` protocol, so one code path
fronts :class:`~repro.core.service.QueryService`,
:class:`~repro.core.sharded_service.ShardedQueryService` (thread or
process backend), and test doubles alike.

Layout:

* :mod:`repro.server.protocol` — HTTP/1.1 request parsing, JSON wire
  formats, request-body validators;
* :mod:`repro.server.admission` — semaphore-based admission control with
  queue-depth shedding (503 + ``Retry-After``, never an unbounded queue);
* :mod:`repro.server.worker` — the background write worker batching
  concurrent ``POST /write`` bodies into shared
  :meth:`~repro.core.service_api.ServiceAPI.add_rows` calls, so one flush
  window costs one version bump no matter how many clients write;
* :mod:`repro.server.app` — the request router and endpoint handlers,
  plus :class:`~repro.server.app.ServerThread` for embedding a server in
  tests and benchmarks.

The event loop parses, routes, frames, and serves hits that are already
encoded; everything that can block or encode runs off it: reads that
``try_hit`` declines go through ``loop.run_in_executor`` and writes through
the worker (``tools/check_invariants.py`` enforces this statically via the
``server-nonblocking`` rule, including that ``ServiceAPI.identify`` and
``try_hit``, the two calls the loop makes, never wait).
"""

from repro.server.admission import AdmissionController
from repro.server.app import ServerThread, ServingApp
from repro.server.protocol import Request, render_response
from repro.server.worker import WriteWorker

__all__ = [
    "AdmissionController",
    "Request",
    "ServerThread",
    "ServingApp",
    "WriteWorker",
    "render_response",
]
