"""Expression evaluation with SQL three-valued logic.

Predicates evaluate to ``True``, ``False``, or ``None`` (UNKNOWN); scalar
expressions evaluate to a Python value or ``None`` (NULL).  A ``WHERE``
clause keeps a row only when its predicate evaluates to ``True``.

Evaluation happens against a :class:`Scope`, which resolves column
references, possibly through a chain of outer scopes (correlated
subqueries).  Subqueries themselves are evaluated through a callback so that
this package stays independent of the SQL evaluator.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.expr.ast import (
    NOT_DISTINCT,
    And,
    Between,
    BinOp,
    BoolConst,
    Col,
    Comparison,
    Const,
    Exists,
    Expr,
    ExprError,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Neg,
    Not,
    Or,
    QuantifiedComparison,
    ScalarSubquery,
    Star,
)

#: Type of the callback used to evaluate subqueries: it receives the opaque
#: query object and the current scope, and returns an iterable of row tuples.
SubqueryEvaluator = Callable[[Any, "Scope"], Iterable[tuple]]


class NameResolutionError(ExprError):
    """Raised when a column reference cannot be resolved in any scope."""


class Scope:
    """Resolves column references to values.

    A scope holds a set of *bindings*: (alias, attribute names, row values).
    Unqualified names are looked up across all bindings and must be
    unambiguous.  If a name is not found locally, the lookup continues in the
    ``outer`` scope, which is how correlated subqueries see the outer row.
    """

    def __init__(self, outer: "Scope | None" = None) -> None:
        self.outer = outer
        self._bindings: list[tuple[str, tuple[str, ...], tuple]] = []

    def bind(self, alias: str, names: Sequence[str], row: Sequence[Any]) -> "Scope":
        """Add a binding; returns self for chaining."""
        self._bindings.append((alias, tuple(names), tuple(row)))
        return self

    @classmethod
    def from_mapping(cls, values: Mapping[str, Any], alias: str = "_row",
                     outer: "Scope | None" = None) -> "Scope":
        """Scope over a single dict row."""
        scope = cls(outer)
        names = tuple(values.keys())
        scope.bind(alias, names, tuple(values[n] for n in names))
        return scope

    def child(self) -> "Scope":
        """A new empty scope whose outer scope is this one."""
        return Scope(self)

    @property
    def aliases(self) -> list[str]:
        return [alias for alias, _, _ in self._bindings]

    def lookup(self, name: str, qualifier: str | None = None) -> Any:
        """Resolve a (possibly qualified) column name to its value."""
        matches = []
        for alias, names, row in self._bindings:
            if qualifier is not None and alias.lower() != qualifier.lower():
                continue
            for i, attr in enumerate(names):
                if attr.lower() == name.lower():
                    matches.append(row[i])
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise NameResolutionError(
                f"ambiguous column reference {qualifier + '.' if qualifier else ''}{name}"
            )
        if self.outer is not None:
            return self.outer.lookup(name, qualifier)
        target = f"{qualifier}.{name}" if qualifier else name
        raise NameResolutionError(f"unknown column reference {target}")

    def row_dict(self) -> dict[str, Any]:
        """Flatten all local bindings into a single dict (qualified keys win)."""
        out: dict[str, Any] = {}
        for alias, names, row in self._bindings:
            for attr, value in zip(names, row):
                out.setdefault(attr, value)
                out[f"{alias}.{attr}"] = value
        return out


def _like_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _compare(left: Any, op: str, right: Any) -> bool | None:
    """Three-valued comparison of two scalar values."""
    if op == NOT_DISTINCT:
        return left == right
    if left is None or right is None:
        return None
    if isinstance(left, bool) != isinstance(right, bool):
        # bool only compares with bool; mixed bool/number comparisons are errors
        raise ExprError(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, str) != isinstance(right, str):
        raise ExprError(f"cannot compare {left!r} with {right!r}")
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExprError(f"unknown comparison operator {op!r}")  # pragma: no cover


def _and3(values: Iterable[bool | None]) -> bool | None:
    result: bool | None = True
    for v in values:
        if v is False:
            return False
        if v is None:
            result = None
    return result


def _or3(values: Iterable[bool | None]) -> bool | None:
    result: bool | None = False
    for v in values:
        if v is True:
            return True
        if v is None:
            result = None
    return result


def _not3(value: bool | None) -> bool | None:
    if value is None:
        return None
    return not value


def _first_column(rows: Iterable[tuple]) -> list[Any]:
    return [row[0] for row in rows]


def eval_expr(
    expr: Expr,
    scope: Scope,
    subquery_eval: SubqueryEvaluator | None = None,
) -> Any:
    """Evaluate ``expr`` in ``scope``.

    Scalar expressions return a value or ``None``; predicates return
    ``True``/``False``/``None``.
    """
    def need_subquery(node_name: str) -> SubqueryEvaluator:
        if subquery_eval is None:
            raise ExprError(f"{node_name} requires a subquery evaluator")
        return subquery_eval

    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, Col):
        return scope.lookup(expr.name, expr.qualifier)
    if isinstance(expr, Star):
        raise ExprError("'*' can only appear inside COUNT(*) or a SELECT list")
    if isinstance(expr, Neg):
        value = eval_expr(expr.operand, scope, subquery_eval)
        return None if value is None else -value
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, scope, subquery_eval)
        right = eval_expr(expr.right, scope, subquery_eval)
        if left is None or right is None:
            return None
        return binary_operator(expr.op)(left, right)
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            raise ExprError(
                f"aggregate {expr.name.upper()} cannot be evaluated on a single row; "
                "it must appear in a SELECT list or HAVING clause"
            )
        args = [eval_expr(a, scope, subquery_eval) for a in expr.args]
        return scalar_function(expr.name)(args)
    if isinstance(expr, ScalarSubquery):
        rows = list(need_subquery("scalar subquery")(expr.query, scope))
        if not rows:
            return None
        if len(rows) > 1 or len(rows[0]) != 1:
            raise ExprError("scalar subquery must return at most one row with one column")
        return rows[0][0]

    if isinstance(expr, Comparison):
        left = eval_expr(expr.left, scope, subquery_eval)
        right = eval_expr(expr.right, scope, subquery_eval)
        return _compare(left, expr.op, right)
    if isinstance(expr, And):
        return _and3(eval_expr(o, scope, subquery_eval) for o in expr.operands)
    if isinstance(expr, Or):
        return _or3(eval_expr(o, scope, subquery_eval) for o in expr.operands)
    if isinstance(expr, Not):
        return _not3(eval_expr(expr.operand, scope, subquery_eval))
    if isinstance(expr, IsNull):
        value = eval_expr(expr.operand, scope, subquery_eval)
        result = value is None
        return not result if expr.negated else result
    if isinstance(expr, InList):
        value = eval_expr(expr.operand, scope, subquery_eval)
        items = [eval_expr(i, scope, subquery_eval) for i in expr.items]
        result = in_membership(value, items)
        return _not3(result) if expr.negated else result
    if isinstance(expr, Between):
        value = eval_expr(expr.operand, scope, subquery_eval)
        low = eval_expr(expr.low, scope, subquery_eval)
        high = eval_expr(expr.high, scope, subquery_eval)
        result = _and3([_compare(value, ">=", low), _compare(value, "<=", high)])
        return _not3(result) if expr.negated else result
    if isinstance(expr, Like):
        value = eval_expr(expr.operand, scope, subquery_eval)
        if value is None:
            return None
        result = bool(_like_to_regex(expr.pattern).match(str(value)))
        return not result if expr.negated else result
    if isinstance(expr, Exists):
        rows = list(need_subquery("EXISTS")(expr.query, scope))
        result = bool(rows)
        return not result if expr.negated else result
    if isinstance(expr, InSubquery):
        value = eval_expr(expr.operand, scope, subquery_eval)
        rows = list(need_subquery("IN")(expr.query, scope))
        items = _first_column(rows)
        result = in_membership(value, items)
        return _not3(result) if expr.negated else result
    if isinstance(expr, QuantifiedComparison):
        value = eval_expr(expr.left, scope, subquery_eval)
        rows = list(need_subquery("ALL/ANY")(expr.query, scope))
        items = _first_column(rows)
        comparisons = [_compare(value, expr.op, item) for item in items]
        if expr.quantifier == "all":
            return _and3(comparisons)
        return _or3(comparisons)
    raise ExprError(f"cannot evaluate node {type(expr).__name__}")


def in_membership(value: Any, items: Sequence[Any]) -> bool | None:
    """SQL IN semantics: TRUE if equal to some item, UNKNOWN if nulls interfere."""
    if value is None:
        return None if items else False
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
            continue
        try:
            if _compare(value, "=", item) is True:
                return True
        except ExprError:
            continue
    return None if saw_null else False


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExprError("division by zero")
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExprError("division by zero")
    return left % right


#: Arithmetic on two non-NULL values; a NULL operand makes the result NULL
#: before the operator is reached.
BINARY_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _modulo,
}


def _null_or(fn: Callable[[Any], Any]) -> Callable[[list], Any]:
    return lambda args: None if args[0] is None else fn(args[0])


def _coalesce(args: list) -> Any:
    return next((value for value in args if value is not None), None)


#: The scalar (non-aggregate) functions, each over its list of argument values.
SCALAR_FUNCTIONS: dict[str, Callable[[list], Any]] = {
    "abs": _null_or(abs),
    "lower": _null_or(lambda value: str(value).lower()),
    "upper": _null_or(lambda value: str(value).upper()),
    "length": _null_or(lambda value: len(str(value))),
    "coalesce": _coalesce,
}


def binary_operator(op: str) -> Callable[[Any, Any], Any]:
    """The :data:`BINARY_OPERATORS` entry for ``op``, or raise ExprError."""
    try:
        return BINARY_OPERATORS[op]
    except KeyError:
        raise ExprError(f"unknown operator {op!r}") from None


def scalar_function(name: str) -> Callable[[list], Any]:
    """The :data:`SCALAR_FUNCTIONS` entry for ``name``, or raise ExprError."""
    try:
        return SCALAR_FUNCTIONS[name]
    except KeyError:
        raise ExprError(f"unknown function {name!r}") from None


class ReverseKey:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "ReverseKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReverseKey) and self.key == other.key


def sort_key(value: Any, ascending: bool) -> "tuple | ReverseKey":
    """The ORDER BY key of one value: NULLs sort last ascending (first
    descending), and values of unlike types apart, by type name."""
    base = (value is None, type(value).__name__, value if value is not None else 0)
    return base if ascending else ReverseKey(base)


def eval_predicate(
    expr: Expr,
    scope: Scope,
    subquery_eval: SubqueryEvaluator | None = None,
) -> bool:
    """Evaluate a predicate under WHERE-clause semantics (UNKNOWN → False)."""
    return eval_expr(expr, scope, subquery_eval) is True


def compute_aggregate(call: FuncCall, rows: Sequence[Scope],
                      subquery_eval: SubqueryEvaluator | None = None) -> Any:
    """Compute an aggregate over a group of row scopes.

    ``COUNT(*)`` counts rows; other aggregates skip NULL inputs, per SQL.
    """
    if not call.is_aggregate:
        raise ExprError(f"{call.name} is not an aggregate function")
    if call.name == "count" and call.args and isinstance(call.args[0], Star):
        return len(rows)
    if not call.args:
        raise ExprError(f"aggregate {call.name.upper()} needs an argument")
    values = []
    for scope in rows:
        value = eval_expr(call.args[0], scope, subquery_eval)
        if value is not None:
            values.append(value)
    if call.distinct:
        seen = []
        for v in values:
            if v not in seen:
                seen.append(v)
        values = seen
    if call.name == "count":
        return len(values)
    if not values:
        return None
    if call.name == "sum":
        return sum(values)
    if call.name == "avg":
        return sum(values) / len(values)
    if call.name == "min":
        return min(values)
    if call.name == "max":
        return max(values)
    raise ExprError(f"unknown aggregate {call.name!r}")  # pragma: no cover
