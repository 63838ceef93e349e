"""Terms of first-order logic: variables and constants.

The tutorial grounds every visual formalism in first-order logic (FOL):
Relational Calculus is FOL over a database signature, and Peirce's beta
existential graphs are a diagrammatic syntax for FOL.  We only need
function-free FOL (no function symbols), which is exactly the fragment
relevant to relational queries.
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


#: A term is either a variable or a constant (function-free FOL).
Term = Var | Const


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
    return isinstance(obj, (Var, Const))


def term_of(value: Any) -> Term:
    """Lift a Python value or existing term into a term."""
    if isinstance(value, (Var, Const)):
        return value
    return Const(value)


def variables_in(terms: Iterable[Term]) -> list[Var]:
    """The variables occurring in ``terms``, in order, without duplicates."""
    seen: set[str] = set()
    out: list[Var] = []
    for term in terms:
        if isinstance(term, Var) and term.name not in seen:
            seen.add(term.name)
            out.append(term)
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
    for term in terms:
        if isinstance(term, Var):
            yield term.name
