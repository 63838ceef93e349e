"""The columnar program's kernel gates, pinned for a test.

Production offers a batch to the numpy kernels from
``kernels.KERNEL_MIN_ROWS`` rows up, and the probe of a relation's cached
build structure from ``kernels.CACHED_PROBE_MIN_ROWS`` rows at stake.  Both
are read from the live batch on every call of a compiled program, so
pinning them reaches programs compiled before.  The differential tests pin
both at once: ``0`` offers every batch to the kernels (the only way
few-row relations reach them), ``None`` offers none (the row
implementations, the reference the kernels are pinned against: the
columnar program runs every operator's row function).

The same gate picks the program: the ``"vectorized"`` backend runs a plan
whose every input holds fewer than ``KERNEL_MIN_ROWS`` rows — every few-row
test instance — as its row program.  A test of the columnar program
itself calls it through :data:`COLUMNAR`, past that decision, and a
service leg built by :func:`service_on` serves its queries and refreshes
its views on it.
"""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

import repro.engine.kernels as kernels
from repro.engine.vectorized import compile_batches

GATES = ("KERNEL_MIN_ROWS", "CACHED_PROBE_MIN_ROWS")


@contextlib.contextmanager
def pinned_gates(min_rows: "int | None"):
    value = sys.maxsize if min_rows is None else min_rows
    with contextlib.ExitStack() as stack:
        for name in GATES:
            stack.enter_context(mock.patch.object(kernels, name, value))
        yield


class _Columnar:
    """The columnar program as a backend, whatever its inputs' sizes."""

    name = "columnar"

    def execute(self, plan, db, params=()):
        return compile_batches(plan)(db, params).rows()


COLUMNAR = _Columnar()


def executor(name: str):
    """The executor a test leg called ``name`` drives: ``"vectorized"`` is
    the columnar program itself (:data:`COLUMNAR`), any other name its
    backend."""
    return COLUMNAR if name == "vectorized" else name


def service_on(db, name: str):
    """A :class:`~repro.core.QueryService` for the test leg called
    ``name``: its queries and its views' refreshes run on
    :func:`executor` ``(name)``."""
    from repro.core import QueryService

    served = QueryService(db, backend=name)
    served.backend = served.pipeline.backend = executor(name)
    return served
