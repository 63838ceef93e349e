"""Non-recursive Datalog with stratified negation: rules and programs.

The tutorial uses Datalog as one of its five textual languages because its
dataflow-style, multi-rule decomposition of universal quantification (the
"division pattern") is exactly what QBE mimics with temporary relations.  The
engine here actually supports recursion and full stratified negation — the
tutorial's scope (non-recursive programs) is a subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.logic.terms import Const, Term, Var


class DatalogError(Exception):
    """Raised for malformed or unsafe Datalog programs."""


@dataclass(frozen=True)
class Literal:
    """A (possibly negated) predicate literal ``[not] p(t1, ..., tn)``."""

    predicate: str
    terms: tuple[Term, ...] = ()
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicate", self.predicate)
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> list[Var]:
        out = []
        for term in self.terms:
            if isinstance(term, Var) and term not in out:
                out.append(term)
        return out

    def __str__(self) -> str:
        inner = ", ".join(_term_text(t) for t in self.terms)
        text = f"{self.predicate}({inner})"
        return f"not {text}" if self.negated else text


@dataclass(frozen=True)
class BuiltinComparison:
    """A comparison literal ``t1 op t2`` used in rule bodies."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        op = {"!=": "<>", "==": "="}.get(self.op, self.op)
        object.__setattr__(self, "op", op)
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            raise DatalogError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> list[Var]:
        return [t for t in (self.left, self.right) if isinstance(t, Var)]

    def __str__(self) -> str:
        return f"{_term_text(self.left)} {self.op} {_term_text(self.right)}"


BodyItem = Literal | BuiltinComparison


@dataclass(frozen=True)
class Rule:
    """``head :- body``; a rule with an empty body is a fact."""

    head: Literal
    body: tuple[BodyItem, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if self.head.negated:
            raise DatalogError("a rule head cannot be negated")

    @property
    def is_fact(self) -> bool:
        return not self.body

    def positive_literals(self) -> list[Literal]:
        return [b for b in self.body if isinstance(b, Literal) and not b.negated]

    def negative_literals(self) -> list[Literal]:
        return [b for b in self.body if isinstance(b, Literal) and b.negated]

    def comparisons(self) -> list[BuiltinComparison]:
        return [b for b in self.body if isinstance(b, BuiltinComparison)]

    def check_safety(self) -> list[str]:
        """Range-restriction violations (empty list = safe rule)."""
        bound = {v.name for lit in self.positive_literals() for v in lit.variables()}
        problems = []
        for var in self.head.variables():
            if var.name not in bound:
                problems.append(
                    f"head variable {var.name} of {self.head.predicate} is not bound "
                    "by a positive body literal"
                )
        for literal in self.negative_literals():
            for var in literal.variables():
                if var.name not in bound:
                    problems.append(
                        f"variable {var.name} in negated literal {literal.predicate} "
                        "is not bound by a positive body literal"
                    )
        for comparison in self.comparisons():
            for var in comparison.variables():
                if var.name not in bound:
                    problems.append(
                        f"variable {var.name} in comparison {comparison} "
                        "is not bound by a positive body literal"
                    )
        return problems

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        body = ", ".join(str(b) for b in self.body)
        return f"{self.head} :- {body}."


@dataclass(frozen=True)
class Program:
    """A Datalog program: an ordered list of rules (and facts)."""

    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def idb_predicates(self) -> list[str]:
        """Predicates defined by some rule head (intensional predicates)."""
        out: list[str] = []
        for rule in self.rules:
            name = rule.head.predicate.lower()
            if name not in out:
                out.append(name)
        return out

    def edb_predicates(self) -> list[str]:
        """Predicates used only in bodies (extensional / database predicates)."""
        idb = set(self.idb_predicates())
        out: list[str] = []
        for rule in self.rules:
            for literal in rule.body:
                if isinstance(literal, Literal) and literal.predicate.lower() not in idb:
                    name = literal.predicate.lower()
                    if name not in out:
                        out.append(name)
        return out

    def rules_for(self, predicate: str) -> list[Rule]:
        return [r for r in self.rules if r.head.predicate.lower() == predicate.lower()]

    def check_safety(self) -> list[str]:
        problems = []
        for rule in self.rules:
            problems.extend(rule.check_safety())
        return problems

    def is_recursive(self) -> bool:
        """True iff some IDB predicate (transitively) depends on itself."""
        from repro.datalog.stratify import dependency_graph

        graph = dependency_graph(self)
        # Depth-first search for a cycle among IDB predicates.
        visiting: set[str] = set()
        visited: set[str] = set()

        def has_cycle(node: str) -> bool:
            if node in visiting:
                return True
            if node in visited:
                return False
            visiting.add(node)
            for successor, _negated in graph.get(node, ()):
                if has_cycle(successor):
                    return True
            visiting.discard(node)
            visited.add(node)
            return False

        return any(has_cycle(p) for p in self.idb_predicates())

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def _term_text(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        if isinstance(term.value, str):
            escaped = term.value.replace("'", "''")
            return f"'{escaped}'"
        return str(term.value)
    raise DatalogError(f"not a term: {term!r}")


def make_program(rules: Iterable[Rule]) -> Program:
    """Build a program and raise on safety violations."""
    program = Program(tuple(rules))
    problems = program.check_safety()
    if problems:
        raise DatalogError("unsafe program: " + "; ".join(problems))
    return program


def names_from_heads(rules: "list[Rule]") -> list[str]:
    """Output column names from the query predicate's rules: the variable
    names of the first head that is all variables, else ``col1..colN`` with
    ``N`` the heads' arity."""
    for rule in rules:
        terms = rule.head.terms
        if terms and all(isinstance(term, Var) for term in terms):
            return [term.name.lower() for term in terms]
    return [f"col{i + 1}" for i in range(rules[0].head.arity if rules else 1)]
