"""Instance records: what a run ran on, by content hash.

Following Iser et al., *Collaborative Management of Benchmark Instances and
their Attributes*: a benchmark instance is identified by a hash of its
content and carries queryable attributes, and two runs are comparable only
when their instance hashes match.  A BENCH_e2e instance is the pair
(dataset, request sequence).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Iterable


def _sort_key(row: tuple) -> tuple:
    # NULLs sort first; columns are typed, so the rest compare natively.
    return tuple((value is not None, value if value is not None else 0)
                 for value in row)


def relation_attributes(relation: Any) -> dict[str, Any]:
    """rows / key cardinality / skew / NULL rate of one relation.

    The *key* is the first attribute — the default shard key.  Skew is the
    most frequent key's row count over the mean rows per key (1.0 = uniform).
    """
    rows = list(relation.rows())
    keys = Counter(row[0] for row in rows)
    cells = sum(len(row) for row in rows)
    nulls = sum(value is None for row in rows for value in row)
    return {
        "rows": len(rows),
        "key": relation.schema.attribute_names[0],
        "key_cardinality": len(keys),
        "skew": round(max(keys.values()) * len(keys) / len(rows), 4)
                if rows else 0.0,
        "null_rate": nulls / cells if cells else 0.0,
    }


def dataset_record(db: Any) -> dict[str, Any]:
    """sha256 over the sorted rows of every relation, plus attributes."""
    digest = hashlib.sha256()
    attributes = {}
    for name in sorted(db.relation_names):
        relation = db.relation(name)
        digest.update(f"{name}{relation.schema.attribute_names}\n".encode())
        for row in sorted(relation.rows(), key=_sort_key):
            digest.update(repr(row).encode())
        attributes[name] = relation_attributes(relation)
    return {"dataset_hash": digest.hexdigest(), "relations": attributes}


def sequence_hash(encoded: list[bytes], order: Iterable[int]) -> str:
    """sha256 over the request bytes in the order they are sent."""
    digests = [hashlib.sha256(raw).digest() for raw in encoded]
    digest = hashlib.sha256()
    for index in order:
        digest.update(digests[index])
    return digest.hexdigest()
