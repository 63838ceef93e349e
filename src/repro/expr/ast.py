"""Shared scalar / boolean expression AST.

SQL ``WHERE`` clauses, Relational Algebra selection conditions, and the
condition boxes of several visual formalisms all speak the same expression
language: column references, constants, arithmetic, comparisons, boolean
connectives, and (for SQL) subquery predicates.  This module defines that
language once; :mod:`repro.expr.eval` evaluates it and
:mod:`repro.expr.format` renders it back to SQL-ish text.

The tree has one rewriter, :func:`map_children`, which rebuilds a node over
new children.  Every rewrite decides only what happens at the nodes it owns
and hands the rest to it: :func:`map_columns` owns a :class:`Col`, the SQL
lowering and the SQL interpreter each own an aggregate call.

Subquery-bearing nodes (:class:`Exists`, :class:`InSubquery`,
:class:`QuantifiedComparison`, :class:`ScalarSubquery`) hold the subquery as
an opaque object — in practice a :class:`repro.sql.ast.SelectQuery` — so that
this package does not depend on the SQL package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

#: Equality with NULL equal to NULL (natural and calculus joins); plans
#: carry it, no parser reads it.
NOT_DISTINCT = "IS NOT DISTINCT FROM"

#: Comparison operators in their canonical spelling.
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=", NOT_DISTINCT)

#: Arithmetic operators supported in scalar expressions.
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")

#: Aggregate function names recognised by SQL and extended RA.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


class ExprError(Exception):
    """Raised for malformed expressions or evaluation failures."""


class Expr:
    """Base class of every expression node."""

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (not descending into subqueries)."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def columns(self) -> list["Col"]:
        """All column references in this expression (not inside subqueries)."""
        return [node for node in self.walk() if isinstance(node, Col)]

    def subqueries(self) -> list[Any]:
        """All opaque subquery objects referenced by this expression."""
        out = []
        for node in self.walk():
            query = getattr(node, "query", None)
            if query is not None:
                out.append(query)
        return out

    def is_predicate(self) -> bool:
        """True for nodes that denote truth values rather than scalars."""
        return isinstance(
            self,
            (Comparison, And, Or, Not, IsNull, InList, Between, Like,
             Exists, InSubquery, QuantifiedComparison, BoolConst),
        )


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (int, float, string, bool, or None for NULL).

    ``slot`` is ``None`` except inside a cached plan *template*
    (:mod:`repro.engine.bind`), where it numbers the literal of the query
    text this constant came from; ``value`` is then the first-seen literal,
    which each request's own literal replaces.  The slot takes part in
    equality, so two slots that happen to hold equal values never merge.
    So does the value's type: ``2``, ``2.0`` and ``True`` compare equal in
    Python but are different literals, and merging them would hand one the
    other's compiled closure or memoized rows.
    """

    value: Any
    slot: int | None = None

    def __eq__(self, other: object) -> bool:
        if type(other) is not Const:
            return NotImplemented
        return (type(self.value), self.value, self.slot) \
            == (type(other.value), other.value, other.slot)

    def __hash__(self) -> int:
        # Not the type: a type hashes by its address, which moves from one
        # process to the next, and so would every hash-ordered iteration
        # over constants.  2 and 2.0 share a bucket; __eq__ tells them apart.
        return hash((self.value, self.slot))


@dataclass(frozen=True)
class BoolConst(Expr):
    """A literal truth value used as a predicate (e.g. WHERE TRUE)."""

    value: bool


@dataclass(frozen=True)
class Col(Expr):
    """A column reference, optionally qualified: ``S.sname`` or ``sname``."""

    name: str
    qualifier: str | None = None

    def qualified(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def with_qualifier(self, qualifier: str | None) -> "Col":
        return Col(self.name, qualifier)


@dataclass(frozen=True)
class Star(Expr):
    """The ``*`` of ``COUNT(*)`` or ``SELECT *`` (optionally ``T.*``)."""

    qualifier: str | None = None


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic binary operation."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITHMETIC_OPS:
            raise ExprError(f"unknown arithmetic operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Neg(Expr):
    """Unary arithmetic negation."""

    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; aggregates (COUNT, SUM, ...) and scalar functions."""

    name: str
    args: tuple[Expr, ...] = ()
    distinct: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "args", tuple(self.args))

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS

    def children(self) -> tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A subquery used as a scalar value (must return one row, one column)."""

    query: Any = None

    def children(self) -> tuple[Expr, ...]:
        return ()


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison(Expr):
    """``left op right`` with op in =, <>, <, <=, >, >=, IS NOT DISTINCT FROM."""

    left: Expr
    op: str
    right: Expr

    def __post_init__(self) -> None:
        op = {"!=": "<>", "==": "="}.get(self.op, self.op)
        object.__setattr__(self, "op", op)
        if op not in COMPARISON_OPS:
            raise ExprError(f"unknown comparison operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def flipped(self) -> "Comparison":
        """The same comparison with sides exchanged (e.g. ``a < b`` → ``b > a``)."""
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
        return Comparison(self.right, flip.get(self.op, self.op), self.left)

    def negated(self) -> "Comparison":
        """The complementary comparison (e.g. ``a < b`` → ``a >= b``)."""
        flip = {"=": "<>", "<>": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}
        return Comparison(self.left, flip[self.op], self.right)


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction."""

    operands: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))

    def children(self) -> tuple[Expr, ...]:
        return self.operands


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction."""

    operands: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))

    def children(self) -> tuple[Expr, ...]:
        return self.operands


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr = field(default_factory=lambda: BoolConst(True))

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal values."""

    operand: Expr
    items: tuple[Expr, ...] = ()
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, *self.items)


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.low, self.high)


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern`` with SQL ``%`` and ``_`` wildcards."""

    operand: Expr
    pattern: str
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (subquery)``."""

    query: Any = None
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (subquery)``."""

    operand: Expr
    query: Any = None
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class QuantifiedComparison(Expr):
    """``expr op ALL|ANY|SOME (subquery)``."""

    left: Expr
    op: str
    quantifier: str
    query: Any = None

    def __post_init__(self) -> None:
        op = {"!=": "<>", "==": "="}.get(self.op, self.op)
        object.__setattr__(self, "op", op)
        quantifier = self.quantifier.lower()
        if quantifier == "some":
            quantifier = "any"
        object.__setattr__(self, "quantifier", quantifier)
        if op not in COMPARISON_OPS:
            raise ExprError(f"unknown comparison operator {self.op!r}")
        if quantifier not in ("all", "any"):
            raise ExprError(f"unknown quantifier {self.quantifier!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left,)


# ---------------------------------------------------------------------------
# Construction and rewriting helpers
# ---------------------------------------------------------------------------

def conjunction(parts: Sequence[Expr]) -> Expr:
    """AND together ``parts``, flattening and simplifying trivial cases."""
    flat: list[Expr] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.operands)
        elif isinstance(part, BoolConst) and part.value:
            continue
        else:
            flat.append(part)
    if not flat:
        return BoolConst(True)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(parts: Sequence[Expr]) -> Expr:
    """OR together ``parts``, flattening and simplifying trivial cases."""
    flat: list[Expr] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.operands)
        elif isinstance(part, BoolConst) and not part.value:
            continue
        else:
            flat.append(part)
    if not flat:
        return BoolConst(False)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def conjuncts(expr: Expr) -> list[Expr]:
    """Split a predicate into its top-level conjuncts."""
    if isinstance(expr, And):
        out: list[Expr] = []
        for part in expr.operands:
            out.extend(conjuncts(part))
        return out
    if isinstance(expr, BoolConst) and expr.value:
        return []
    return [expr]


def disjuncts(expr: Expr) -> list[Expr]:
    """Split a predicate into its top-level disjuncts."""
    if isinstance(expr, Or):
        out: list[Expr] = []
        for part in expr.operands:
            out.extend(disjuncts(part))
        return out
    return [expr]


#: Nodes with no subexpression in their own scope: a subquery node's query
#: is a scope of its own, which no rewrite of this expression enters.
_LEAVES = (Const, BoolConst, Col, Star, ScalarSubquery, Exists)


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """``expr`` rebuilt with ``fn`` applied to each direct subexpression, in
    :meth:`Expr.children` order; a leaf is returned as it is.

    This is the one rebuild of an expression tree: a rewrite decides what
    happens at the nodes it owns and hands every other node here.  A node
    class this module does not define raises :class:`ExprError`.
    """
    if isinstance(expr, _LEAVES):
        return expr
    if isinstance(expr, (And, Or)):
        return type(expr)(tuple(fn(o) for o in expr.operands))
    if isinstance(expr, (Neg, Not)):
        return type(expr)(fn(expr.operand))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, Comparison):
        return Comparison(fn(expr.left), expr.op, fn(expr.right))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(fn(a) for a in expr.args), expr.distinct)
    if isinstance(expr, IsNull):
        return IsNull(fn(expr.operand), expr.negated)
    if isinstance(expr, InList):
        return InList(fn(expr.operand), tuple(fn(i) for i in expr.items), expr.negated)
    if isinstance(expr, Between):
        return Between(fn(expr.operand), fn(expr.low), fn(expr.high), expr.negated)
    if isinstance(expr, Like):
        return Like(fn(expr.operand), expr.pattern, expr.negated)
    if isinstance(expr, InSubquery):
        return InSubquery(fn(expr.operand), expr.query, expr.negated)
    if isinstance(expr, QuantifiedComparison):
        return QuantifiedComparison(fn(expr.left), expr.op, expr.quantifier, expr.query)
    raise ExprError(f"map_children: unhandled node {type(expr).__name__}")


def map_columns(expr: Expr, fn: Callable[[Col], Expr]) -> Expr:
    """Return a copy of ``expr`` with every :class:`Col` replaced by ``fn(col)``.

    Subqueries are left untouched (they have their own scopes).
    """
    if isinstance(expr, Col):
        return fn(expr)
    return map_children(expr, lambda child: map_columns(child, fn))


def rename_qualifiers(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rewrite column qualifiers according to ``mapping`` (missing keys kept)."""
    def rename(col: Col) -> Col:
        if col.qualifier and col.qualifier in mapping:
            return Col(col.name, mapping[col.qualifier])
        return col

    return map_columns(expr, rename)


def contains_aggregate(expr: Expr) -> bool:
    """True iff the expression contains an aggregate function call."""
    return any(isinstance(n, FuncCall) and n.is_aggregate for n in expr.walk())


def contains_subquery(expr: Expr) -> bool:
    """True iff the expression contains any subquery node."""
    return any(
        isinstance(n, (Exists, InSubquery, QuantifiedComparison, ScalarSubquery))
        for n in expr.walk()
    )
