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

Connection model: each client connection is one ``asyncio.Protocol``
(:class:`~repro.server.app._Connection`) over one receive buffer.  Its
``data_received`` callback takes each complete request off the buffer
(:func:`~repro.server.protocol.parse_request`) and answers a cached read
whose JSON body is already encoded right there: the reply is written
before the callback returns, with no task and no await.  Any other
request becomes the connection's one task, and the connection parses
nothing more until that reply is written, so pipelined requests are
answered in order.  Reading pauses while the client takes no replies
(the transport's ``pause_writing``) or while a large backlog waits
behind a task.

The event loop parses, routes, frames, and serves hits that are already
encoded; everything that can block or encode runs off it: reads that
``try_hit`` declines go through ``loop.run_in_executor`` and writes through
the worker (``tools/check_invariants.py`` enforces this statically via the
``server-nonblocking`` rule — over coroutines, the protocol's synchronous
callbacks and the ``ServingApp`` methods they reach — including that
``ServiceAPI.identify`` and ``try_hit``, the two calls the loop makes,
never wait).
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
