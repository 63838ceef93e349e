"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# The static plan verifier is on by default under the test suite (and in the
# fuzz harness): every optimizer rewrite, delta rewrite, and sharded-plan
# compilation is certified as it happens.  Export REPRO_VERIFY_PLANS=0 to
# time the suite without verification.
os.environ.setdefault("REPRO_VERIFY_PLANS", "1")

from repro.data import Database, sailors_database, empty_sailors_database  # noqa: E402
from repro.queries import CANONICAL_QUERIES  # noqa: E402


@pytest.fixture()
def db() -> Database:
    """A fresh copy of the cow-book sailors database."""
    return sailors_database()


@pytest.fixture()
def empty_db() -> Database:
    """The sailors schema with no rows."""
    return empty_sailors_database()


@pytest.fixture()
def schema(db):
    """The sailors database schema."""
    return db.schema


@pytest.fixture()
def kernel_gate(monkeypatch):
    """Pin the kernels' crossover for the rest of the test.

    ``kernel_gate(0)`` offers every batch to the numpy kernels — the only
    way the few-row relations of the differential tests reach them, since
    production offers only batches whose rows at stake reach
    ``stats.KERNEL_MIN_ROWS``; ``kernel_gate(None)`` offers none (the row
    implementations, the reference the kernels are pinned against).
    ``tests/gates.py`` is the same pin as a context manager.
    """
    import repro.engine.stats as stats
    from gates import GATES

    def pin(min_rows: "int | None") -> None:
        for name in GATES:
            monkeypatch.setattr(stats, name,
                                sys.maxsize if min_rows is None else min_rows)

    return pin


@pytest.fixture(params=[q.id for q in CANONICAL_QUERIES])
def canonical_query(request):
    """Parametrised fixture running a test once per canonical query."""
    from repro.queries import query_by_id

    return query_by_id(request.param)


def names_of(relation) -> set[str]:
    """The set of first-column values of a result relation (helper for assertions)."""
    return {row[0] for row in relation.distinct_rows()}
