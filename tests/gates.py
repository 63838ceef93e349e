"""The kernels' crossover, pinned for a test.

Production offers a batch to the numpy kernels where its rows at stake
reach ``stats.KERNEL_MIN_ROWS`` (:func:`repro.engine.stats.reaches_kernels`):
a selection's, group-by's or DISTINCT's batch, a probe's priced rows
(:func:`repro.engine.stats.probe_at_stake`).  The price is read on every
call of a compiled program, so pinning the crossover reaches programs
compiled before.  ``0`` offers every batch to the kernels (the only way
few-row relations reach them), ``None`` offers none (the row
implementations, the reference the kernels are pinned against: the
columnar program runs every operator's row function).

The same price picks the program: the ``"vectorized"`` backend runs a
plan none of whose operators has that many rows at stake — every few-row
test instance — as its row program.  A test of the columnar program
itself calls it through :data:`COLUMNAR`, past that decision, and a
service leg built by :func:`service_on` serves its queries and refreshes
its views on it.

The scatter-gather backends run over a sharded database only; a test that
drives one over a plain database wraps it in :class:`OnShards`.
"""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

import repro.engine.stats as stats
from repro.data.sharded import ShardedDatabase
from repro.engine.sharded import ShardedBackend
from repro.engine.vectorized import compile_batches

#: The one crossover every physical choice prices against.
GATES = ("KERNEL_MIN_ROWS",)


@contextlib.contextmanager
def pinned_gates(min_rows: "int | None"):
    value = sys.maxsize if min_rows is None else min_rows
    with contextlib.ExitStack() as stack:
        for name in GATES:
            stack.enter_context(mock.patch.object(stats, name, value))
        yield


class _Columnar:
    """The columnar program as a backend, whatever its inputs' sizes."""

    name = "columnar"

    def execute(self, plan, db, params=()):
        return compile_batches(plan)(db, params).rows()


COLUMNAR = _Columnar()


class OnShards:
    """A scatter-gather ``backend`` run over any database: each call
    hash-partitions a plain one into ``n_shards`` (and unlinks what the
    call published from it); a sharded one runs as it is.  Other
    attributes are the backend's."""

    def __init__(self, backend, n_shards: int = 2) -> None:
        self.backend = backend
        self.n_shards = n_shards

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def execute(self, plan, db, params=()):
        if isinstance(db, ShardedDatabase):
            return self.backend.execute(plan, db, params)
        sharded = ShardedDatabase.from_database(db, self.n_shards)
        try:
            return self.backend.execute(plan, sharded, params)
        finally:
            sharded.close()


def executor(name: str):
    """The executor a test leg called ``name`` drives: ``"vectorized"`` is
    the columnar program itself (:data:`COLUMNAR`), ``"sharded"`` a
    :class:`~repro.engine.sharded.ShardedBackend` on two shards, any other
    name its backend."""
    if name == "sharded":
        return OnShards(ShardedBackend())
    return COLUMNAR if name == "vectorized" else name


def service_on(db, name: str):
    """A service for the test leg called ``name``: a
    :class:`~repro.core.QueryService` whose queries and views' refreshes
    run on :func:`executor` ``(name)``, or for ``"sharded"`` a
    :class:`~repro.core.ShardedQueryService` on two shards."""
    from repro.core import QueryService, ShardedQueryService

    if name == "sharded":
        return ShardedQueryService(db, n_shards=2)
    return QueryService(db, backend=executor(name))
