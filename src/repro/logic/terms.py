"""Terms of first-order logic: variables, constants and attribute references.

The tutorial grounds every visual formalism in first-order logic (FOL):
Relational Calculus is FOL over a database signature, and Peirce's beta
existential graphs are a diagrammatic syntax for FOL.  We only need
function-free FOL (no function symbols), which is exactly the fragment
relevant to relational queries.

Both calculi are this logic.  In DRC a variable ranges over domain values;
in TRC it ranges over tuples, and TRC adds one term, the attribute
reference :class:`AttrRef` ``s.sname``.  Every reader of a term's variable
goes through :func:`variable_of`, so a tuple variable that occurs only
inside an attribute reference is still seen (free, renamed, substituted).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Iterable, Iterator


@dataclass(frozen=True)
class Var:
    """A first-order variable (domain variable in DRC terminology)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant symbol, interpreted as itself (Herbrand-style)."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class AttrRef:
    """An attribute of a tuple variable: ``s.sname`` (TRC's one own term)."""

    var: Var
    attr: str

    def __str__(self) -> str:
        return f"{self.var.name}.{self.attr}"


#: A term is a variable, a constant, or an attribute of a tuple variable.
Term = Var | Const | AttrRef


#: The six comparison operators, as functions that serve Python values and
#: numpy arrays alike: the calculi, Datalog and the engine's selection
#: kernels.
COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compare(left: Any, op: str, right: Any) -> bool:
    """Two-valued comparison of the calculi and Datalog: NULL on either side,
    or an ordering of values of unlike types, compares FALSE."""
    if left is None or right is None:
        return False
    try:
        return COMPARISONS[op](left, right)
    except TypeError:
        return False


def is_term(obj: object) -> bool:
    """True iff ``obj`` is a term."""
    return isinstance(obj, (Var, Const, AttrRef))


def term_of(value: Any) -> Term:
    """Lift a Python value or existing term into a term."""
    if isinstance(value, (Var, Const, AttrRef)):
        return value
    return Const(value)


def variable_of(term: Term) -> Var | None:
    """The variable ``term`` reads: the variable itself, the tuple variable
    of an attribute reference, or None for a constant."""
    if isinstance(term, AttrRef):
        return term.var
    return term if isinstance(term, Var) else None


def with_variable(term: Term, var: Var) -> Term:
    """``term`` reading ``var`` in place of its own variable."""
    return AttrRef(var, term.attr) if isinstance(term, AttrRef) else var


def variables_in(terms: Iterable[Term]) -> list[Var]:
    """The variables occurring in ``terms``, in order, without duplicates."""
    seen: set[str] = set()
    out: list[Var] = []
    for var in map(variable_of, terms):
        if var is not None and var.name not in seen:
            seen.add(var.name)
            out.append(var)
    return out


def fresh_variable(base: str, taken: Iterable[str]) -> Var:
    """Return a variable named ``base`` or ``base1``, ``base2``, ... not in ``taken``."""
    taken_set = set(taken)
    if base not in taken_set:
        return Var(base)
    for i in itertools.count(1):
        candidate = f"{base}{i}"
        if candidate not in taken_set:
            return Var(candidate)
    raise AssertionError("unreachable")  # pragma: no cover


def fresh_variables(count: int, base: str, taken: Iterable[str]) -> list[Var]:
    """Return ``count`` pairwise-distinct fresh variables."""
    taken_set = set(taken)
    out: list[Var] = []
    for _ in range(count):
        var = fresh_variable(base, taken_set)
        taken_set.add(var.name)
        out.append(var)
    return out


def variable_names(terms: Iterable[Term]) -> Iterator[str]:
    """Yield the names of all variables among ``terms``."""
    for var in map(variable_of, terms):
        if var is not None:
            yield var.name
