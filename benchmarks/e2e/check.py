"""Correctness on the clock's edge.

The timed loop never decodes a reply; it only retains the bodies at a
seeded sample of positions.  After the window closes, this module decodes
them and checks, against an in-process reference ``QueryService`` over a
private copy of the dataset:

* **wire == in-process at the same version** — the reference applies the
  sequence's writes up to each sampled position before answering, which is
  exact because the loop is closed (a write's reply precedes the next send);
* **five languages agree** — for sampled (query, literal) groups of
  ``five-lang-cold``, the five replies are bag-equal;
* **views equal a fresh recompute after the last write** — every registered
  view is read once more over the wire and compared with the reference,
  which has no views registered and therefore recomputes.

Every mismatch is a failed operation.
"""

from __future__ import annotations

import json
import random
from typing import Any, Sequence

from workloads import Request, Workload
from workloads import Sequence as RequestSequence

from repro.core import QueryService

SAMPLED_READS = 40
SAMPLED_GROUPS = 20


def _bag(rows: Any) -> list[str]:
    """Rows as a sorted bag of canonical JSON strings (tuples == lists)."""
    return sorted(json.dumps(list(row)) for row in rows)


def pick_positions(sequence: RequestSequence, n: int,
                   seed: int) -> "tuple[list[int], dict[str, list[int]]]":
    """``(sampled read positions, group -> positions)`` within ``[0, n)``."""
    rng = random.Random(seed ^ 0x5EED)
    reads = [p for p in range(n)
             if sequence.distinct[sequence.order[p]].kind == "read"]
    sampled = sorted(rng.sample(reads, min(SAMPLED_READS, len(reads))))
    by_group: dict[str, list[int]] = {}
    seen: set[int] = set()
    for position in reads:
        index = sequence.order[position]
        group = sequence.distinct[index].group
        if group is not None and index not in seen:
            seen.add(index)
            by_group.setdefault(group, []).append(position)
    # Only groups whose five members all fall inside the window.
    whole = sorted(g for g, members in by_group.items() if len(members) == 5)
    chosen = rng.sample(whole, min(SAMPLED_GROUPS, len(whole)))
    return sampled, {group: by_group[group] for group in chosen}


class Reference:
    """The in-process oracle, advanced through the sequence's writes."""

    def __init__(self, db: Any, sequence: RequestSequence) -> None:
        self.service = QueryService(db.copy())
        self.sequence = sequence
        self._applied = 0       # sequence positions whose writes are in

    def advance(self, position: int) -> None:
        sequence = self.sequence
        for p in range(self._applied, position):
            request = sequence.distinct[sequence.order[p]]
            if request.kind == "write":
                self.service.add_rows(request.body["relation"],
                                      request.body["rows"])
        self._applied = max(self._applied, position)

    def rows(self, text: str, language: str) -> list[str]:
        return _bag(self.service.answer(text, language=language).rows())


def check_window(reference: Reference, sequence: RequestSequence,
                 kept: "dict[int, bytes]", sampled: Sequence[int],
                 groups: "dict[str, list[int]]") -> "tuple[int, list[str]]":
    """``(checks made, mismatch descriptions)`` for one window's sample."""
    checks = 0
    problems: list[str] = []
    for position in sampled:
        if position not in kept:
            continue            # the window was cut before this position
        request = sequence.distinct[sequence.order[position]]
        reference.advance(position)
        checks += 1
        wire_rows = _bag(json.loads(kept[position]).get("rows", ()))
        text, language = request.body["text"], request.body["language"]
        if wire_rows != reference.rows(text, language):
            problems.append(f"position {position} ({request.tag}): wire rows "
                            "differ from the in-process answer")
    for group, members in groups.items():
        if not all(position in kept for position in members):
            continue
        checks += 1
        bags = [_bag(json.loads(kept[position]).get("rows", ()))
                for position in members]
        if any(bag != bags[0] for bag in bags[1:]):
            problems.append(f"group {group}: the five languages disagree")
    return checks, problems


def read_views(workload: Workload, client: Any) -> "list[tuple[bool, bytes]]":
    """One more wire read of every registered view (server still up)."""
    return [client.exchange(Request(
        "read", {"text": view.text, "language": view.language},
        "check").encode()) for view in workload.views]


def check_views(reference: Reference, workload: Workload,
                replies: "list[tuple[bool, bytes]]",
                n: int) -> "tuple[int, list[str]]":
    """After the last write: every view read equals a fresh recompute."""
    reference.advance(n)
    problems = []
    for view, (ok, body) in zip(workload.views, replies):
        if not ok or _bag(json.loads(body).get("rows", ())) \
                != reference.rows(view.text, view.language):
            problems.append(f"view {view.name}: wire read differs from a "
                            "fresh recompute after the last write")
    return len(replies), problems
