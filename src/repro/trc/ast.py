"""Tuple Relational Calculus (TRC) queries.

A TRC query has the shape ``{ s.sname, s.age | Sailors(s) ∧ φ(s) }``: the
head lists attribute references of free tuple variables (or constants), and
the body is a first-order formula of :mod:`repro.logic.formula`, the same
node classes a DRC body uses.  A tuple variable is a
:class:`~repro.logic.terms.Var`, a constant a
:class:`~repro.logic.terms.Const`, and the relation atom ``Sailors(s)`` —
"tuple variable s ranges over Sailors" — is ``Atom("Sailors", (Var("s"),))``.
The one term TRC adds to first-order logic is the attribute reference
:class:`~repro.logic.terms.AttrRef` ``s.sname``.

A TRC body is the fragment of those formulas without ``Iff``, whose atoms
have exactly one variable and whose comparisons read attribute references
and constants; :func:`check_trc` says so, and the formatter, the evaluator
and the safety check raise :class:`TRCError` outside it.

TRC is the language closest to QueryVis and Relational Diagrams: each table
box in those diagrams is precisely one tuple variable, which is why the
tutorial contrasts TRC-based diagrams with DRC-based Peirce graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.formula import Atom, Compare, Formula, Iff, atoms_of
from repro.logic.terms import AttrRef, Const, Term, Var


class TRCError(Exception):
    """Raised for malformed or unsafe TRC queries."""


@dataclass(frozen=True)
class HeadItem:
    """One output column of a TRC query: an attribute reference or a constant."""

    term: Term
    alias: str | None = None

    def output_name(self, position: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.term, AttrRef):
            return self.term.attr
        return f"col{position + 1}"


@dataclass(frozen=True)
class TRCQuery:
    """``{ head | body }``: a full TRC query."""

    head: tuple[HeadItem, ...]
    body: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(self.head))
        if not self.head:
            raise TRCError("a TRC query needs at least one head item")

    def head_variables(self) -> list[Var]:
        """The tuple variables used in the head, in order, without duplicates."""
        out: list[Var] = []
        for item in self.head:
            if isinstance(item.term, AttrRef) and item.term.var not in out:
                out.append(item.term.var)
        return out

    def to_text(self) -> str:
        from repro.trc.format import format_trc_query

        return format_trc_query(self)


def atom_variable(atom: Atom) -> Var:
    """The tuple variable of the relation atom ``R(t)``."""
    if len(atom.terms) != 1 or not isinstance(atom.terms[0], Var):
        raise TRCError(f"{atom} is not a TRC relation atom R(t) over one tuple variable")
    return atom.terms[0]


def check_trc(formula: Formula) -> None:
    """Raise :class:`TRCError` unless ``formula`` is a TRC body: no ``Iff``,
    every atom ``R(t)``, every comparison between attribute references and
    constants."""
    for node in formula.walk():
        if isinstance(node, Atom):
            atom_variable(node)
        elif isinstance(node, Compare):
            for term in (node.left, node.right):
                if not isinstance(term, (AttrRef, Const)):
                    raise TRCError(f"{node}: a TRC comparison reads var.attribute "
                                   "or a constant")
        elif isinstance(node, Iff):
            raise TRCError("TRC has no biconditional; write two implications")


def variable_ranges(formula: Formula) -> dict[str, str]:
    """Map each tuple variable to the relation of its (first) relation atom.

    Safe TRC in the style used by the tutorial requires every tuple variable
    to range over exactly one relation; this function recovers that range.
    A variable used with two different relations raises :class:`TRCError`.
    """
    ranges: dict[str, str] = {}
    for atom in atoms_of(formula):
        name = atom_variable(atom).name
        existing = ranges.get(name)
        if existing is not None and existing.lower() != atom.predicate.lower():
            raise TRCError(
                f"tuple variable {name!r} ranges over both "
                f"{existing!r} and {atom.predicate!r}"
            )
        ranges.setdefault(name, atom.predicate)
    return ranges
