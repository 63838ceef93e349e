"""Static verification of logical plans (the plan-IR type/shape checker).

Four rewrite layers produce plans — the five-language lowering, the
rule-based optimizer, the insert-delta rewriting, and the scatter-gather
distribution analysis — and four backends execute them.  Before this module
the only guard against a subtly-wrong rewrite was differential fuzzing *at
execution time*; :func:`verify_plan` moves that check to rewrite time by
proving, bottom-up over the plan tree, that

* every column reference (``Col``, positional pick, join key, sort key)
  resolves against its input's output columns;
* scalar/predicate operand types are consistent with the executors'
  runtime semantics (numeric cross-compares, string with string, bool with
  bool; ``+`` adds numbers or concatenates strings; SUM/AVG need numeric
  inputs) — column types come from the database schema when one is given,
  and a column whose type cannot be trusted statically degrades to
  *unknown*, which every check accepts (the verifier never rejects a plan
  the executors would run);
* structural invariants hold: projection names are unique (renames stay
  bijective), aggregates appear only in ``AggregateP.aggregates`` and never
  nest, a ``DeltaScanP`` window is anchored at a slot or a non-negative
  version, scans match their relation's arity, semi/anti joins have
  well-typed keys.

:func:`verify_sharded_plan` extends this to scatter-gather compilations: it
*independently re-derives* the shard-key equivalence classes over the
scatter subplan (it shares no code with the distribution analysis in
:mod:`repro.engine.sharded`) and certifies that every duplicate-sensitive
operator in the scatter is co-partitioned, that broadcast reads use their
aliases, that the partial→final aggregation split is sound (AVG = SUM +
COUNT pairing, trailing ``__rows`` presence counter, layout positions), and
that the gather seed matches the scatter's output width.  A sharded
materialized view maintains such a compiled plan's scatter on every shard,
so the one view-specific check is :func:`verify_view_terms`: the same
derivation over the delta terms its refreshes run on the shards' live
relations.

Failures raise :class:`PlanVerificationError` naming the offending node and
the rewrite rule that produced the plan.  The hooks in ``optimize`` /
``delta`` / ``shard_plan`` / the sharded view call :func:`maybe_verify` /
:func:`maybe_verify_sharded` / :func:`maybe_verify_view_terms`, which are
gated by the ``REPRO_VERIFY_PLANS`` environment variable (off by default in
production, on by default under the test suite) and keep process-wide
pass/fail counters surfaced through :func:`verification_counts` and
``ShardedBackend.execution_counts()``.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Mapping

from repro.data.database import Database
from repro.data.schema import RelationSchema, SchemaError
from repro.data.types import DataType
from repro.expr import ast as e
from repro.engine.bind import slot_of
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
    DistinctP,
    DivideP,
    FilterP,
    FixpointP,
    JoinP,
    Plan,
    PlanError,
    PositionCol,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
    resolve_column,
)
from repro.engine.stats import working_predicate

__all__ = [
    "PlanVerificationError",
    "maybe_verify",
    "maybe_verify_sharded",
    "maybe_verify_view_terms",
    "reset_verification_counts",
    "verification_counts",
    "verification_enabled",
    "verify_plan",
    "verify_sharded_plan",
    "verify_view_terms",
]


class PlanVerificationError(PlanError):
    """A plan failed static verification.

    ``node`` is the offending plan node; ``rule`` names the rewrite step
    (or construction site) that produced the plan.  Subclassing
    :class:`~repro.engine.plan.PlanError` keeps the serving pipeline's
    interpreter fallback intact: a plan the verifier rejects is handled
    exactly like one the executor rejects.
    """

    def __init__(self, message: str, *, node: Plan | None = None,
                 rule: str | None = None) -> None:
        detail = _describe(node) if node is not None else "plan"
        prefix = f"[{rule}] " if rule else ""
        super().__init__(f"{prefix}{detail}: {message}")
        self.node = node
        self.rule = rule


def _describe(node: Plan) -> str:
    label = type(node).__name__
    if isinstance(node, (ScanP, DeltaScanP)):
        return f"{label}({node.relation})"
    return label


# ---------------------------------------------------------------------------
# The type lattice
# ---------------------------------------------------------------------------
#
# Types are the strings "int" / "float" / "string" / "bool", with ``None``
# as *unknown* (top).  Unknown is infectious and every check accepts it:
# the verifier only rejects what it can prove wrong.

_NUMERIC = ("int", "float")

_DTYPE_TO_TYPE = {
    DataType.INT: "int",
    DataType.FLOAT: "float",
    DataType.STRING: "string",
    DataType.BOOL: "bool",
}

#: Scalar (non-aggregate) functions the executors implement, with their
#: minimum/maximum argument counts.
_SCALAR_FUNCTIONS = {
    "abs": (1, 1),
    "lower": (1, 1),
    "upper": (1, 1),
    "length": (1, 1),
    "coalesce": (1, None),
}


def _comparable(a: "str | None", b: "str | None") -> bool:
    """Mirror of the runtime ``_compare`` type rules (unknown passes)."""
    if a is None or b is None or a == b:
        return True
    return a in _NUMERIC and b in _NUMERIC


def _unify(a: "str | None", b: "str | None") -> "str | None":
    if a == b:
        return a
    if a in _NUMERIC and b in _NUMERIC:
        return "float"
    return None


def _widen(old: "tuple[str | None, ...] | None",
           new: "tuple[str | None, ...]") -> "tuple[str | None, ...]":
    return new if old is None else tuple(_unify(a, b) for a, b in zip(old, new))


def _const_type(value: Any) -> "str | None":
    if value is None:
        return None  # NULL: compares as unknown (3-valued logic)
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "string"
    return None


SchemaLookup = Callable[[str], "RelationSchema | None"]


def _schema_lookup(db: "Database | Mapping[str, RelationSchema] | None"
                   ) -> SchemaLookup:
    if db is None:
        return lambda name: None
    if isinstance(db, Database):
        # The schema view, never ``db.relation(name).schema``: on a sharded
        # database that materializes the merged row copy of every relation
        # the plan scans just to read an attribute list (``schema`` reads
        # shard 0's).
        schema = db.schema

        def lookup(name: str) -> "RelationSchema | None":
            try:
                return schema.relation(name)
            except SchemaError:
                return None
        return lookup
    mapping = {key.lower(): value for key, value in db.items()}
    return lambda name: mapping.get(name.lower())


# ---------------------------------------------------------------------------
# Expression typing
# ---------------------------------------------------------------------------

class _Checker:
    """One verification pass: schema lookup + error context + memo."""

    def __init__(self, lookup: SchemaLookup, rule: "str | None",
                 working: "Mapping[str, tuple[str | None, ...]] | None"
                 = None) -> None:
        self.lookup = lookup
        self.rule = rule
        #: Column types of the working relations of the fixpoints whose
        #: rule bodies are being checked, by predicate.
        self.working = working or {}
        self.memo: dict[int, tuple["str | None", ...]] = {}

    def fail(self, node: Plan, message: str) -> PlanVerificationError:
        return PlanVerificationError(message, node=node, rule=self.rule)

    # -- expressions -------------------------------------------------------

    def resolve(self, node: Plan, columns: tuple[str, ...],
                types: "tuple[str | None, ...]", col: e.Col) -> "str | None":
        try:
            return types[resolve_column(columns, col.name, col.qualifier)]
        except PlanError as exc:
            raise self.fail(node, f"unresolved column reference "
                            f"{col.qualified()!r}: {exc}") from exc

    def expr_type(self, expr: e.Expr, node: Plan, columns: tuple[str, ...],
                  types: "tuple[str | None, ...]") -> "str | None":
        """The static type of ``expr`` over an input typed ``types``.

        Raises on unresolved columns, aggregate calls outside an
        ``AggregateP``, unknown functions, and provably ill-typed operands.
        Predicates type as ``"bool"``; opaque subquery nodes as unknown.
        """
        if isinstance(expr, e.Col):
            return self.resolve(node, columns, types, expr)
        if isinstance(expr, PositionCol):
            position = expr.position
            if not 0 <= position < len(columns):
                raise self.fail(node, f"positional column pick {position} out "
                                f"of range for {len(columns)} columns")
            return types[position]
        if isinstance(expr, e.BoolConst):
            return "bool"
        if isinstance(expr, e.Const):
            return _const_type(expr.value)
        if isinstance(expr, e.Neg):
            inner = self.expr_type(expr.operand, node, columns, types)
            if inner is not None and inner not in _NUMERIC:
                raise self.fail(node, f"negation of non-numeric "
                                f"({inner}) operand")
            return inner
        if isinstance(expr, e.BinOp):
            return self._binop_type(expr, node, columns, types)
        if isinstance(expr, e.Comparison):
            left = self.expr_type(expr.left, node, columns, types)
            right = self.expr_type(expr.right, node, columns, types)
            if not _comparable(left, right):
                raise self.fail(node, f"type-inconsistent comparison: "
                                f"{left} {expr.op} {right}")
            return "bool"
        if isinstance(expr, (e.And, e.Or)):
            for operand in expr.operands:
                self.expr_type(operand, node, columns, types)
            return "bool"
        if isinstance(expr, e.Not):
            self.expr_type(expr.operand, node, columns, types)
            return "bool"
        if isinstance(expr, e.IsNull):
            self.expr_type(expr.operand, node, columns, types)
            return "bool"
        if isinstance(expr, e.InList):
            operand = self.expr_type(expr.operand, node, columns, types)
            for item in expr.items:
                item_type = self.expr_type(item, node, columns, types)
                if not _comparable(operand, item_type):
                    raise self.fail(node, f"type-inconsistent IN list: "
                                    f"{operand} vs {item_type}")
            return "bool"
        if isinstance(expr, e.Between):
            operand = self.expr_type(expr.operand, node, columns, types)
            for bound in (expr.low, expr.high):
                bound_type = self.expr_type(bound, node, columns, types)
                if not _comparable(operand, bound_type):
                    raise self.fail(node, f"type-inconsistent BETWEEN: "
                                    f"{operand} vs {bound_type}")
            return "bool"
        if isinstance(expr, e.Like):
            self.expr_type(expr.operand, node, columns, types)
            return "bool"
        if isinstance(expr, e.FuncCall):
            if expr.is_aggregate:
                raise self.fail(node, f"aggregate {expr.name}() outside an "
                                f"aggregation operator")
            return self._scalar_call_type(expr, node, columns, types)
        if isinstance(expr, e.Star):
            raise self.fail(node, "* is only meaningful inside COUNT(*)")
        if isinstance(expr, (e.Exists, e.InSubquery, e.QuantifiedComparison,
                             e.ScalarSubquery)):
            # Opaque subquery nodes: lowered away before execution (the
            # dependent-join compilation) or rejected by the executor —
            # nothing to prove statically here.
            return None if isinstance(expr, e.ScalarSubquery) else "bool"
        raise self.fail(node, f"unknown expression node "
                        f"{type(expr).__name__}")

    def _binop_type(self, expr: e.BinOp, node: Plan, columns: tuple[str, ...],
                    types: "tuple[str | None, ...]") -> "str | None":
        left = self.expr_type(expr.left, node, columns, types)
        right = self.expr_type(expr.right, node, columns, types)
        if expr.op == "+" and left == "string" and right == "string":
            return "string"  # runtime + concatenates strings
        for side in (left, right):
            if side is not None and side not in _NUMERIC:
                raise self.fail(node, f"arithmetic {expr.op!r} on "
                                f"non-numeric ({side}) operand")
        if expr.op == "/":
            return "float"
        if left == "float" or right == "float":
            return "float"
        if left is None or right is None:
            return None
        return "int"

    def _scalar_call_type(self, expr: e.FuncCall, node: Plan,
                          columns: tuple[str, ...],
                          types: "tuple[str | None, ...]") -> "str | None":
        bounds = _SCALAR_FUNCTIONS.get(expr.name)
        if bounds is None:
            raise self.fail(node, f"unknown function {expr.name!r}")
        low, high = bounds
        if len(expr.args) < low or (high is not None and len(expr.args) > high):
            raise self.fail(node, f"{expr.name}() takes "
                            f"{low if high == low else f'{low}+'} argument(s), "
                            f"got {len(expr.args)}")
        arg_types = [self.expr_type(a, node, columns, types)
                     for a in expr.args]
        if expr.name == "abs":
            if arg_types[0] is not None and arg_types[0] not in _NUMERIC:
                raise self.fail(node, f"abs() of non-numeric "
                                f"({arg_types[0]}) operand")
            return arg_types[0]
        if expr.name in ("lower", "upper"):
            return "string"
        if expr.name == "length":
            return "int"
        unified = arg_types[0]  # coalesce
        for arg_type in arg_types[1:]:
            unified = _unify(unified, arg_type)
        return unified

    def predicate(self, expr: e.Expr, node: Plan, columns: tuple[str, ...],
                  types: "tuple[str | None, ...]") -> None:
        """Check a condition: well-typed and statically bool-compatible."""
        result = self.expr_type(expr, node, columns, types)
        if result is not None and result != "bool":
            raise self.fail(node, f"condition has non-boolean type {result}")

    def aggregate_type(self, call: e.FuncCall, node: Plan,
                       columns: tuple[str, ...],
                       types: "tuple[str | None, ...]") -> "str | None":
        if not call.is_aggregate:
            raise self.fail(node, f"{call.name}() is not an aggregate "
                            f"function")
        if call.name == "count" and len(call.args) == 1 \
                and isinstance(call.args[0], e.Star):
            return "int"
        if len(call.args) != 1:
            raise self.fail(node, f"aggregate {call.name}() takes exactly "
                            f"one argument, got {len(call.args)}")
        if e.contains_aggregate(call.args[0]):
            raise self.fail(node, f"nested aggregate inside {call.name}()")
        arg = self.expr_type(call.args[0], node, columns, types)
        if call.name == "count":
            return "int"
        if call.name in ("sum", "avg"):
            if arg is not None and arg not in _NUMERIC:
                raise self.fail(node, f"{call.name}() over non-numeric "
                                f"({arg}) column")
            if call.name == "avg":
                return None if arg is None else "float"
            return arg
        return arg  # min / max keep their operand's type

    # -- plan nodes --------------------------------------------------------

    def check(self, plan: Plan) -> tuple["str | None", ...]:
        cached = self.memo.get(id(plan))
        if cached is not None:
            return cached
        types = self._check(plan)
        if len(types) != len(plan.columns):
            raise self.fail(plan, f"inferred {len(types)} column types for "
                            f"{len(plan.columns)} output columns")
        self.memo[id(plan)] = types
        return types

    def _scan_types(self, plan: "ScanP | DeltaScanP"
                    ) -> tuple["str | None", ...]:
        types = self.working.get(working_predicate(plan.relation)) \
            if isinstance(plan, ScanP) else None
        if types is None:
            schema = self.lookup(plan.relation)
            if schema is None:
                return (None,) * len(plan.columns)
            types = tuple(_DTYPE_TO_TYPE.get(a.dtype)
                          for a in schema.attributes)
        if len(types) != len(plan.columns):
            raise self.fail(plan, f"scan of {plan.relation!r} expects arity "
                            f"{len(types)}, plan declares "
                            f"{len(plan.columns)} columns")
        return types

    def _check_fixpoint(self, plan: FixpointP) -> tuple["str | None", ...]:
        """Type the stratum's working relations while checking its bodies.

        A predicate's types are the union (:func:`_unify`) of its facts'
        and its rule bodies' types, computed to a fixpoint.  A body is
        checked once every predicate it reads has rows to type (one that
        never does is empty, and so is the body); typing only ever widens
        a column, so the loop ends.
        """
        types = dict.fromkeys(plan.arities())
        for head, consts in plan.facts:
            types[head] = _widen(types[head], tuple(
                _const_type(c.value) for c in consts))
        while True:
            checker = _Checker(self.lookup, self.rule,
                               {**self.working, **{p: t for p, t
                                                   in types.items() if t}})
            found = dict(types)
            for head, body in plan.rules + plan.variants:
                if all(types.get(working_predicate(node.relation), ())
                       is not None for node in body.walk()
                       if isinstance(node, ScanP)):
                    found[head] = _widen(found[head], checker.check(body))
            if found == types:
                return types[plan.predicate] or (None,) * len(plan.columns)
            types = found

    def _check(self, plan: Plan) -> tuple["str | None", ...]:
        if isinstance(plan, ScanP):
            if not plan.columns:
                raise self.fail(plan, "scan declares no output columns")
            return self._scan_types(plan)
        if isinstance(plan, DeltaScanP):
            if not plan.columns:
                raise self.fail(plan, "delta scan declares no output columns")
            since = plan.since
            if slot_of(since) is None and (since is None or since < 0):
                raise self.fail(plan, f"delta-scan window anchored at "
                                f"{since!r}: neither a slot nor a version")
            return self._scan_types(plan)
        if isinstance(plan, FilterP):
            types = self.check(plan.input)
            self.predicate(plan.condition, plan, plan.input.columns, types)
            return types
        if isinstance(plan, ProjectP):
            return self._check_project(plan)
        if isinstance(plan, DistinctP):
            return self.check(plan.input)
        if isinstance(plan, JoinP):
            return self._check_join(plan)
        if isinstance(plan, SetOpP):
            return self._check_setop(plan)
        if isinstance(plan, AggregateP):
            return self._check_aggregate(plan)
        if isinstance(plan, DivideP):
            return self._check_divide(plan)
        if isinstance(plan, FixpointP):
            return self._check_fixpoint(plan)
        if isinstance(plan, SortLimitP):
            types = self.check(plan.input)
            for key_expr, _ascending in plan.keys:
                self.expr_type(key_expr, plan, plan.input.columns, types)
            if plan.limit is not None and plan.limit < 0:
                raise self.fail(plan, f"negative LIMIT {plan.limit}")
            return types
        raise self.fail(plan, f"unknown plan node {type(plan).__name__}")

    def _check_project(self, plan: ProjectP) -> tuple["str | None", ...]:
        types = self.check(plan.input)
        seen: dict[str, str] = {}
        for name in plan.names:
            if not name:
                raise self.fail(plan, "empty projection column name")
            lowered = name.lower()
            if lowered in seen:
                raise self.fail(plan, f"projection output names collide on "
                                f"{name!r} (renames must stay bijective)")
            seen[lowered] = name
        return tuple(self.expr_type(expr, plan, plan.input.columns, types)
                     for expr in plan.exprs)

    def _check_join(self, plan: JoinP) -> tuple["str | None", ...]:
        left = self.check(plan.left)
        right = self.check(plan.right)
        for left_key, right_key in zip(plan.left_keys, plan.right_keys):
            left_type = self._key_type(plan, plan.left.columns, left,
                                       left_key, "left")
            right_type = self._key_type(plan, plan.right.columns, right,
                                        right_key, "right")
            if not _comparable(left_type, right_type):
                raise self.fail(plan, f"join keys {left_key!r} ({left_type}) "
                                f"and {right_key!r} ({right_type}) are not "
                                f"comparable")
        if plan.kind in ("semi", "anti"):
            output_columns = plan.left.columns
            output = left
        else:
            output_columns = plan.left.columns + plan.right.columns
            output = left + right
        if plan.residual is not None:
            self.predicate(plan.residual, plan,
                           plan.left.columns + plan.right.columns,
                           left + right)
        assert len(output) == len(output_columns)
        return output

    def _key_type(self, plan: JoinP, columns: tuple[str, ...],
                  types: "tuple[str | None, ...]", key: str,
                  side: str) -> "str | None":
        name, qualifier = _split_column(key)
        try:
            return types[resolve_column(columns, name, qualifier)]
        except PlanError as exc:
            raise self.fail(plan, f"{side} join key {key!r} does not resolve "
                            f"on the {side} input: {exc}") from exc

    def _check_setop(self, plan: SetOpP) -> tuple["str | None", ...]:
        left = self.check(plan.left)
        right = self.check(plan.right)
        out = []
        for position, (left_type, right_type) in enumerate(zip(left, right)):
            if not _comparable(left_type, right_type):
                raise self.fail(plan, f"{plan.op} column {position} pairs "
                                f"incompatible types {left_type} and "
                                f"{right_type}")
            out.append(_unify(left_type, right_type))
        return tuple(out)

    def _check_aggregate(self, plan: AggregateP) -> tuple["str | None", ...]:
        types = self.check(plan.input)
        columns = plan.input.columns
        for group_expr in plan.group_exprs:
            if e.contains_aggregate(group_expr):
                raise self.fail(plan, "aggregate call inside a grouping "
                                "expression")
            self.expr_type(group_expr, plan, columns, types)
        agg_types = []
        for entry in plan.aggregates:
            call, name = entry
            if not isinstance(call, e.FuncCall):
                raise self.fail(plan, f"aggregate entry {name!r} is not a "
                                f"function call")
            agg_types.append(self.aggregate_type(call, plan, columns, types))
        return types + tuple(agg_types)

    def _check_divide(self, plan: DivideP) -> tuple["str | None", ...]:
        left = self.check(plan.left)
        right = self.check(plan.right)
        left_names = [c.lower() for c in plan.left.columns]
        for position, name in enumerate(plan.right.columns):
            dividend = left[left_names.index(name.lower())]
            if not _comparable(dividend, right[position]):
                raise self.fail(plan, f"division column {name!r} pairs "
                                f"incompatible types {dividend} and "
                                f"{right[position]}")
        kept = {c.lower() for c in plan.right.columns}
        return tuple(t for c, t in zip(plan.left.columns, left)
                     if c.lower() not in kept)


def _split_column(column: str) -> tuple[str, "str | None"]:
    if "." in column:
        qualifier, name = column.split(".", 1)
        return name, qualifier
    return column, None


def verify_plan(plan: Plan,
                db: "Database | Mapping[str, RelationSchema] | None" = None,
                *, rule: "str | None" = None) -> tuple["str | None", ...]:
    """Statically verify ``plan``; return its inferred column types.

    ``db`` (a database or a ``{name: RelationSchema}`` mapping) enables
    scan-arity checks and seeds column types; without it, verification
    covers reference resolution and structure only.  Raises
    :class:`PlanVerificationError` naming the offending node and ``rule``.
    """
    return _Checker(_schema_lookup(db), rule).check(plan)


# ---------------------------------------------------------------------------
# Sharded-plan certification
# ---------------------------------------------------------------------------
#
# The distribution analysis in repro.engine.sharded *constructs* scatter
# plans; the code below *re-derives* the shard-key equivalence classes from
# scratch (sharing no helpers with the constructor) and certifies that the
# compiled ShardedPlan is distribution-safe.  An equivalence class is a
# frozenset of output-column positions that provably all carry one shard-key
# component's value; the derived key is one class per component, or None
# when the subtree's outputs are scattered without tracked co-partitioning.


class _ShardDerivation:
    """``(key, scattered)`` for one scatter subtree.

    ``key`` — the re-derived shard-key image (one position class per
    shard-key attribute) or ``None``; ``scattered`` — whether the subtree
    reads any shard-local (non-broadcast) relation.
    """

    __slots__ = ("key", "scattered")

    def __init__(self, key: "tuple | None", scattered: bool) -> None:
        self.key = key
        self.scattered = scattered


def _column_pick(expr: e.Expr, columns: tuple[str, ...]) -> "int | None":
    """The input position a pure column-pick expression reads, else None."""
    if isinstance(expr, PositionCol):
        position = expr.position
        return position if 0 <= position < len(columns) else None
    if isinstance(expr, e.Col):
        try:
            return resolve_column(columns, expr.name, expr.qualifier)
        except PlanError:
            return None
    return None


def _close_key(key: "tuple | None",
               pairs: "list[tuple[int, int]]") -> "tuple | None":
    if key is None or not pairs:
        return key
    classes = [set(component) for component in key]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            for component in classes:
                if a in component and b not in component:
                    component.add(b)
                    changed = True
                elif b in component and a not in component:
                    component.add(a)
                    changed = True
    return tuple(frozenset(component) for component in classes)


class _ShardChecker:
    """Re-derives shard-key classes over a scatter subplan and certifies it."""

    def __init__(self, sharded: Any, rule: "str | None",
                 root: Plan, root_prereduced: bool,
                 partial_root: "Plan | None",
                 allow_delta: bool = False) -> None:
        self.sharded = sharded
        self.rule = rule
        self.root = root
        self.root_prereduced = root_prereduced
        self.partial_root = partial_root
        self.allow_delta = allow_delta
        self.broadcast_suffix = _broadcast_suffix()

    def fail(self, node: Plan, message: str) -> PlanVerificationError:
        return PlanVerificationError(message, node=node, rule=self.rule)

    def derive(self, plan: Plan) -> _ShardDerivation:
        if isinstance(plan, ScanP):
            name = plan.relation
            if name.lower().endswith(self.broadcast_suffix):
                return _ShardDerivation(None, False)
            try:
                schema = self.sharded.shard(0).relation(name).schema
                shard_key = self.sharded.shard_key(name.lower())
            except Exception as exc:
                raise self.fail(plan, f"scattered scan of unknown relation "
                                f"{name!r}: {exc}") from exc
            key = tuple(frozenset((schema.index_of(attr),))
                        for attr in shard_key)
            return _ShardDerivation(key, True)
        if isinstance(plan, DeltaScanP):
            # Backend scatter plans execute against the rebuilt merged
            # views, which have no delta logs; view-maintenance scatter
            # plans (``rule="sharded_view"``) execute against the *live*
            # shard-local relations, whose logs are real — a delta window
            # there is a subset of the shard's partition and carries the
            # same shard-key classes as a full scan.  Broadcast aliases are
            # rebuilt merged copies either way: never a valid delta source.
            name = plan.relation
            if name.lower().endswith(self.broadcast_suffix):
                if self.allow_delta and plan.mode == "asof":
                    # The "old state" of an unwritten broadcast alias is its
                    # full current contents — same rows on every shard,
                    # exactly like a broadcast scan.
                    return _ShardDerivation(None, False)
                raise self.fail(plan, "delta window on a broadcast alias "
                                "(rebuilt merged copies have no delta log)")
            if not self.allow_delta:
                raise self.fail(plan, "delta scans cannot appear in a "
                                "scatter subplan (request execution reads "
                                "the merged views, which have no logs)")
            try:
                schema = self.sharded.shard(0).relation(name).schema
                shard_key = self.sharded.shard_key(name.lower())
            except Exception as exc:
                raise self.fail(plan, f"delta scan of unknown relation "
                                f"{name!r}: {exc}") from exc
            key = tuple(frozenset((schema.index_of(attr),))
                        for attr in shard_key)
            return _ShardDerivation(key, True)
        if isinstance(plan, FilterP):
            return self.derive(plan.input)
        if isinstance(plan, ProjectP):
            return self._derive_project(plan)
        if isinstance(plan, DistinctP):
            derived = self.derive(plan.input)
            if derived.scattered and derived.key is None \
                    and not (plan is self.root and self.root_prereduced):
                raise self.fail(plan, "distribution-unsafe scatter: DISTINCT "
                                "over non-co-partitioned input (equal rows "
                                "could straddle shards)")
            return derived
        if isinstance(plan, JoinP):
            return self._derive_join(plan)
        if isinstance(plan, SetOpP):
            return self._derive_setop(plan)
        if isinstance(plan, AggregateP):
            return self._derive_aggregate(plan)
        if isinstance(plan, DivideP):
            return self._derive_divide(plan)
        if isinstance(plan, SortLimitP):
            derived = self.derive(plan.input)
            if derived.scattered:
                raise self.fail(plan, "sort/limit over scattered data "
                                "(per-shard runs would interleave the global "
                                "order; the gather step must replay it)")
            # Broadcast-only subtree: every shard sorts/limits the same
            # whole relation, so the result is identical per shard.
            return derived
        raise self.fail(plan, f"{type(plan).__name__} cannot appear in a "
                        f"scatter subplan")

    def _derive_project(self, plan: ProjectP) -> _ShardDerivation:
        derived = self.derive(plan.input)
        if derived.key is None:
            return derived
        out_positions: dict[int, set[int]] = {}
        for j, expr in enumerate(plan.exprs):
            position = _column_pick(expr, plan.input.columns)
            if position is not None:
                out_positions.setdefault(position, set()).add(j)
        mapped = []
        for component in derived.key:
            survivors: set[int] = set()
            for position in component:
                survivors.update(out_positions.get(position, ()))
            if not survivors:
                return _ShardDerivation(None, derived.scattered)
            mapped.append(frozenset(survivors))
        return _ShardDerivation(tuple(mapped), derived.scattered)

    def _equi_pairs(self, plan: JoinP) -> list[tuple[int, int]]:
        pairs = []
        for left_key, right_key in zip(plan.left_keys, plan.right_keys):
            try:
                pairs.append(
                    (resolve_column(plan.left.columns,
                                    *_split_column(left_key)),
                     resolve_column(plan.right.columns,
                                    *_split_column(right_key))))
            except PlanError as exc:
                raise self.fail(plan, f"join key does not resolve: "
                                f"{exc}") from exc
        return pairs

    def _derive_join(self, plan: JoinP) -> _ShardDerivation:
        left = self.derive(plan.left)
        if plan.kind in ("semi", "anti"):
            right = self.derive(plan.right)
            if right.scattered:
                raise self.fail(plan, f"distribution-unsafe scatter: "
                                f"{plan.kind} join's right side must be "
                                f"broadcast, not scattered")
            return left
        right = self.derive(plan.right)
        width = len(plan.left.columns)
        pairs = self._equi_pairs(plan)
        output_pairs = [(lp, rp + width) for lp, rp in pairs]
        if left.scattered and right.scattered:
            key = self._co_partitioned_key(plan, pairs, left.key, right.key,
                                           width)
            return _ShardDerivation(_close_key(key, output_pairs), True)
        if left.scattered or right.scattered:
            if left.scattered:
                key = left.key
            else:
                key = None if right.key is None else tuple(
                    frozenset(position + width for position in component)
                    for component in right.key)
            return _ShardDerivation(_close_key(key, output_pairs), True)
        return _ShardDerivation(None, False)

    def _co_partitioned_key(self, plan: JoinP, pairs: list[tuple[int, int]],
                            left_key: "tuple | None",
                            right_key: "tuple | None",
                            width: int) -> tuple:
        if left_key is None or right_key is None \
                or len(left_key) != len(right_key) or not pairs or not all(
                    any(lp in lcomp and rp in rcomp for lp, rp in pairs)
                    for lcomp, rcomp in zip(left_key, right_key)):
            raise self.fail(plan, "distribution-unsafe scatter: both join "
                            "inputs are scattered but the equi-keys do not "
                            "pair the shard keys component by component")
        return tuple(
            lcomp | frozenset(rp + width for rp in rcomp)
            for lcomp, rcomp in zip(left_key, right_key))

    def _derive_setop(self, plan: SetOpP) -> _ShardDerivation:
        left = self.derive(plan.left)
        right = self.derive(plan.right)
        scattered = left.scattered or right.scattered
        aligned: "tuple | None" = None
        if left.key is not None and right.key is not None \
                and len(left.key) == len(right.key):
            shared = tuple(lcomp & rcomp
                           for lcomp, rcomp in zip(left.key, right.key))
            if all(shared):
                aligned = shared
        duplicate_sensitive = plan.op != "union" or plan.distinct
        if duplicate_sensitive and scattered and aligned is None:
            raise self.fail(plan, f"distribution-unsafe scatter: {plan.op} "
                            f"needs both sides co-partitioned on shared "
                            f"positions")
        return _ShardDerivation(aligned, scattered)

    def _derive_aggregate(self, plan: AggregateP) -> _ShardDerivation:
        derived = self.derive(plan.input)
        if plan is self.partial_root:
            # The partial half of a split group-by: the gather-side combine
            # re-groups globally, so per-shard grouping need not be exact.
            return derived
        if derived.scattered:
            grouped: set[int] = set()
            for expr in plan.group_exprs:
                position = _column_pick(expr, plan.input.columns)
                if position is not None:
                    grouped.add(position)
            if derived.key is None \
                    or not all(component & grouped
                               for component in derived.key):
                raise self.fail(plan, "distribution-unsafe scatter: group-by "
                                "does not group on the partition key (a "
                                "group could straddle shards)")
        return derived

    def _derive_divide(self, plan: DivideP) -> _ShardDerivation:
        left = self.derive(plan.left)
        right = self.derive(plan.right)
        if right.scattered:
            raise self.fail(plan, "distribution-unsafe scatter: division's "
                            "divisor must be broadcast")
        if not left.scattered:
            return _ShardDerivation(None, False)
        if left.key is None:
            raise self.fail(plan, "distribution-unsafe scatter: division "
                            "over a non-co-partitioned dividend")
        right_names = {c.lower() for c in plan.right.columns}
        quotient = [i for i, c in enumerate(plan.left.columns)
                    if c.lower() not in right_names]
        mapped = []
        for component in left.key:
            survivors = frozenset(quotient.index(position)
                                  for position in component
                                  if position in quotient)
            if not survivors:
                raise self.fail(plan, "distribution-unsafe scatter: division "
                                "does not partition on the quotient")
            mapped.append(survivors)
        return _ShardDerivation(tuple(mapped), True)


def _broadcast_suffix() -> str:
    from repro.data.sharded import BROADCAST_SUFFIX
    return BROADCAST_SUFFIX.lower()


def _shard_schemas(compiled: Any, sharded: Any) -> dict[str, RelationSchema]:
    """Schemas visible to a scatter subplan: shard-local + broadcast alias."""
    suffix = _broadcast_suffix()
    schemas: dict[str, RelationSchema] = {}
    shard0 = sharded.shard(0)
    for name in compiled.partitioned:
        try:
            schemas[name] = shard0.relation(name).schema
        except Exception:
            continue  # missing relation is reported by the scan check
    for name in compiled.broadcast:
        try:
            base = sharded.relation(name).schema
        except Exception:
            continue
        schemas[name + suffix] = base.renamed(base.name + suffix)
    return schemas


def _check_aggregate_split(checker: "_ShardChecker", compiled: Any) -> None:
    """Certify the partial→final split layout of a split group-by."""
    core, partial = compiled.core, compiled.scatter
    if not isinstance(core, AggregateP) or not isinstance(partial, AggregateP):
        raise checker.fail(compiled.scatter or compiled.plan,
                           "combine step without an aggregate core/partial "
                           "pair")
    if partial.group_exprs != core.group_exprs:
        raise checker.fail(partial, "partial aggregation changes the "
                           "grouping expressions")
    expected: list[tuple[e.FuncCall, str]] = []
    for j, (call, _name) in enumerate(core.aggregates):
        if call.distinct:
            raise checker.fail(partial, f"DISTINCT aggregate "
                               f"{call.name}() cannot be split into "
                               f"partial states")
        if call.name == "avg":
            expected.append((e.FuncCall("sum", call.args), f"__p{j}_sum"))
            expected.append((e.FuncCall("count", call.args), f"__p{j}_cnt"))
        elif call.name in ("count", "sum", "min", "max"):
            expected.append((call, f"__p{j}"))
        else:
            raise checker.fail(partial, f"aggregate {call.name}() has no "
                               f"partial→final combine rule")
    expected.append((e.FuncCall("count", (e.Star(),)), "__rows"))
    actual = list(partial.aggregates)
    if len(actual) != len(expected):
        raise checker.fail(partial, f"partial aggregation emits "
                           f"{len(actual)} states, expected {len(expected)} "
                           f"(including the __rows presence counter)")
    for (want_call, want_name), (got_call, got_name) in zip(expected, actual):
        if got_name != want_name or got_call != want_call:
            if want_name.endswith(("_sum", "_cnt")):
                raise checker.fail(partial, f"mispaired AVG split: expected "
                                   f"{want_call.name}() as {want_name!r}, "
                                   f"got {got_call.name}() as {got_name!r} "
                                   f"(AVG must split into SUM + COUNT)")
            raise checker.fail(partial, f"partial state {got_name!r} does "
                               f"not match the original aggregate "
                               f"({want_call.name}() as {want_name!r})")


def verify_sharded_plan(compiled: Any, sharded: Any,
                        *, rule: "str | None" = "shard_plan") -> None:
    """Certify one compiled :class:`~repro.engine.sharded.ShardedPlan`.

    Verifies the scatter subplan like any plan (against the shard-0 view's
    schemas), independently re-derives the shard-key equivalence classes to
    certify distribution safety, checks the partial→final aggregation
    split layout, gather-seed consistency, and that a routed plan's pins
    cover every scattered read's full shard key.  Fallback-mode plans
    verify against the merged view only.
    """
    if compiled.mode == "fallback":
        verify_plan(compiled.plan, sharded, rule=rule)
        return
    scatter, core = compiled.scatter, compiled.core
    checker = _ShardChecker(sharded, rule, scatter,
                            compiled.prereduced,
                            scatter if compiled.combine is not None else None)
    if scatter is None or core is None:
        raise checker.fail(compiled.plan, f"{compiled.mode} plan without a "
                           f"scatter/core pair")
    verify_plan(scatter, _shard_schemas(compiled, sharded), rule=rule)
    derived = checker.derive(scatter)
    if not derived.scattered:
        raise checker.fail(scatter, "scatter subplan reads no shard-local "
                           "relation (should have compiled to fallback)")
    if compiled.combine is not None:
        _check_aggregate_split(checker, compiled)
    seed = compiled.gather if compiled.gather is not None else core
    if not any(node == seed for node in compiled.plan.walk()):
        raise checker.fail(seed, "gather seed is not a node of the original "
                           "plan (finishers could not replay)")
    produced = core.columns if compiled.combine is not None else scatter.columns
    if len(produced) != len(seed.columns):
        raise checker.fail(seed, f"gather seed expects "
                           f"{len(seed.columns)} columns but the scatter "
                           f"side produces {len(produced)}")
    if compiled.pins:
        _check_pins(checker, compiled, sharded)


def _check_pins(checker: _ShardChecker, compiled: Any, sharded: Any) -> None:
    """A routed plan's pins cover every scattered read's full shard key:
    each read of a scattered relation, found here afresh in plan order,
    sits under a filter equating each shard-key column to its pin's
    constant, or a call's pins could send it to a shard missing rows."""
    reads: list[tuple[Plan | None, ScanP]] = []
    pending: list[tuple[Plan, Plan | None]] = [(compiled.scatter, None)]
    while pending:
        node, parent = pending.pop()
        if isinstance(node, ScanP) \
                and not node.relation.lower().endswith(checker.broadcast_suffix):
            reads.append((parent, node))
        pending.extend((child, node) for child in reversed(node.children()))
    if len(reads) != len(compiled.pins):
        raise checker.fail(compiled.scatter, f"routed plan has "
                           f"{len(compiled.pins)} pins for {len(reads)} "
                           f"reads of scattered relations")
    for (parent, scan), pin in zip(reads, compiled.pins):
        schema = sharded.shard(0).relation(scan.relation).schema
        key = [schema.index_of(attr)
               for attr in sharded.shard_key(scan.relation.lower())]
        equated = set()
        if isinstance(parent, FilterP) and parent.input is scan:
            for c in e.conjuncts(parent.condition):
                if isinstance(c, e.Comparison) and c.op == "=":
                    equated.add((_column_pick(c.left, scan.columns), c.right))
                    equated.add((_column_pick(c.right, scan.columns), c.left))
        if len(pin) != len(key) or not equated.issuperset(zip(key, pin)):
            raise checker.fail(scan, f"pin {pin!r} does not equate the shard "
                               f"key {key} of {scan.relation!r} in the "
                               f"filter over its scan")


def verify_view_terms(compiled: Any, sharded: Any,
                      *, rule: "str | None" = "sharded_view") -> None:
    """Certify the delta terms a sharded view's refreshes run on its shards.

    A sharded view's recipe is the :class:`~repro.engine.sharded.ShardedPlan`
    that ``shard_plan`` compiles — and :func:`verify_sharded_plan`
    certifies — for the view's core.  Every shard maintains its
    ``scatter`` over the shard's **live** relations by running the delta
    terms of the scatter's bag input, which, unlike request-time scatter
    plans, legitimately contain delta scans.  This re-derives the
    shard-key classes over every term a refresh can activate: one per
    occurrence of a relation in ``compiled.partitioned`` (a write to a
    broadcast-read relation re-initializes every shard instead, so terms
    anchored on a broadcast alias never run).  As-of windows on broadcast
    aliases are accepted; a delta window on one is rejected.
    """
    from repro.engine.delta import delta_terms, term_delta_relation

    bag = compiled.scatter
    if isinstance(bag, (DistinctP, AggregateP)):
        bag = bag.input
    checker = _ShardChecker(sharded, rule, bag, root_prereduced=False,
                            partial_root=None, allow_delta=True)
    schemas = _shard_schemas(compiled, sharded)
    for term in delta_terms(bag):
        if term_delta_relation(term) in compiled.partitioned:
            verify_plan(term, schemas, rule=rule)
            checker.derive(term)


# ---------------------------------------------------------------------------
# Debug-mode hooks and counters
# ---------------------------------------------------------------------------

_COUNT_LOCK = threading.Lock()
_COUNTS = {"plans_verified": 0, "plans_failed": 0}


def verification_enabled() -> bool:
    """Whether the ``REPRO_VERIFY_PLANS`` debug hooks are active."""
    flag = os.environ.get("REPRO_VERIFY_PLANS", "").strip().lower()
    return flag not in ("", "0", "off", "false", "no")


def verification_counts() -> dict[str, int]:
    """Process-wide ``{"plans_verified": ..., "plans_failed": ...}``."""
    with _COUNT_LOCK:
        return dict(_COUNTS)


def reset_verification_counts() -> None:
    """Zero the pass/fail counters (test isolation)."""
    with _COUNT_LOCK:
        for key in _COUNTS:
            _COUNTS[key] = 0


def _bump(key: str) -> None:
    with _COUNT_LOCK:
        _COUNTS[key] += 1


def _certify(check: Callable[..., None], *args: Any, **kwargs: Any) -> None:
    """Run one verifier, counting whether it passed."""
    try:
        check(*args, **kwargs)
    except PlanVerificationError:
        _bump("plans_failed")
        raise
    _bump("plans_verified")


def maybe_verify(plan: Plan,
                 db: "Database | Mapping[str, RelationSchema] | None" = None,
                 *, rule: "str | None" = None) -> Plan:
    """Debug-mode hook: verify ``plan`` when ``REPRO_VERIFY_PLANS`` is on.

    Returns ``plan`` unchanged so rewrite pipelines can chain through it.
    """
    if verification_enabled():
        _certify(verify_plan, plan, db, rule=rule)
    return plan


def maybe_verify_sharded(compiled: Any, sharded: Any,
                         *, rule: "str | None" = "shard_plan") -> Any:
    """Debug-mode hook for :class:`ShardedPlan` construction."""
    if verification_enabled():
        _certify(verify_sharded_plan, compiled, sharded, rule=rule)
    return compiled


def maybe_verify_view_terms(compiled: Any, sharded: Any) -> None:
    """Debug-mode hook for a sharded view's recipe
    (:func:`verify_view_terms`)."""
    if verification_enabled():
        _certify(verify_view_terms, compiled, sharded)
