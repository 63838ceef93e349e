"""The columnar executor's kernel gates, pinned for a test.

Production offers a batch to the numpy kernels from
``kernels.KERNEL_MIN_ROWS`` rows up, and the probe of a relation's cached
build structure from ``kernels.CACHED_PROBE_MIN_ROWS`` rows at stake.  The
differential tests pin both at once: ``0`` offers every batch to the
kernels (the only way few-row relations reach them), ``None`` offers none
(the pure-Python loops, the reference the kernels are pinned against).
"""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

import repro.engine.kernels as kernels

GATES = ("KERNEL_MIN_ROWS", "CACHED_PROBE_MIN_ROWS")


@contextlib.contextmanager
def pinned_gates(min_rows: "int | None"):
    value = sys.maxsize if min_rows is None else min_rows
    with contextlib.ExitStack() as stack:
        for name in GATES:
            stack.enter_context(mock.patch.object(kernels, name, value))
        yield
