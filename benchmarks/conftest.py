"""Shared fixtures for the benchmark / experiment harness."""

from __future__ import annotations

import contextlib
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.data import sailors_database  # noqa: E402


@pytest.fixture(scope="session")
def db():
    return sailors_database()


@pytest.fixture(scope="session")
def schema(db):
    return db.schema


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Print an experiment artifact the way the paper would tabulate it."""
    widths = [max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows
              else len(str(headers[i])) for i in range(len(headers))]
    print(f"\n=== {title} ===")
    print(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@contextlib.contextmanager
def python_loops():
    """Every kernel declines inside the block (``REPRO_KERNELS=0``)."""
    saved = os.environ.get("REPRO_KERNELS")
    os.environ["REPRO_KERNELS"] = "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_KERNELS"]
        else:
            os.environ["REPRO_KERNELS"] = saved
