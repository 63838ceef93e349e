"""Lowering of all five query languages onto the logical plan IR.

One compiler per frontend:

* :func:`lower_sql` — the SQL select/project/join fragment with set
  operations, DISTINCT, GROUP BY / HAVING aggregates, ORDER BY / LIMIT, and
  (possibly correlated) EXISTS / IN subqueries.  Correlated subqueries are
  decorrelated with *dependent joins*, built like the calculus' ¬∃: the
  subquery's FROM list is crossed onto the distinct values of the outer
  columns it names, its predicates applied, and the result semi- or
  anti-joined back on those columns.  The outer plan appears inside the
  dependent side, so the compiled program's shared result slot evaluates
  it once.
* :func:`lower_ra` — a structural mapping of the RA operator tree, with the
  reference evaluator's set/bag mode switching (``GroupBy`` inputs are bags,
  set mode adds a final duplicate elimination).
* :func:`lower_drc` — safe-calculus compilation: bound variables are
  renamed apart by :func:`repro.logic.transform.standardize_apart`, ∀ and →
  are rewritten away (∀x φ ⇒ ¬∃x ¬φ), negations pushed to quantifiers and
  leaves, positive atoms become joined scans, negated existentials become
  dependent anti-joins keyed on the columns their bodies read.
  :func:`lower_trc` is the same compiler behind the textbook TRC → DRC
  translation (:func:`repro.translate.trc_to_drc.trc_to_drc`): a tuple
  variable is one domain variable per attribute.
* :func:`lower_datalog` — a program is one plan, read at its query
  predicate.  A rule body is a DRC conjunction (:func:`lower_datalog_rule`):
  its positive literals as atoms (in body order), its comparisons, and its
  negated literals as negated atoms, lowered by the DRC compiler and
  projected onto the head.  A non-recursive IDB predicate is inlined at
  each use as the DISTINCT union of its rules' bodies; a recursive stratum,
  or a predicate that carries facts, is one :class:`FixpointP` holding its
  rule bodies and their semi-naive delta variants (the same conjunction
  with one atom over ``pred@delta``; the loop lives in
  :mod:`repro.engine.execute`).

Anything outside a frontend's supported fragment raises
:class:`LoweringError`; callers (the pipeline) fall back to the reference
interpreter for those, so lowering never has to guess at semantics.

``x NOT IN (subquery)`` is one anti join whose right side is the keyed
matches (``x = item``) plus two NULL-guard branches (``item IS NULL``,
``x IS NULL``), so it is exact under NULLs.  Known, documented deviation
from the reference interpreters (not observable on the generated test
batteries): comparisons between incompatible types behave as the target
calculus' evaluator does only when no rows exercise them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Mapping, Sequence

from repro.data.relation import unique_names
from repro.data.schema import DatabaseSchema, SchemaError
from repro.expr import ast as e
from repro.engine.plan import (
    AggregateP,
    DistinctP,
    DivideP,
    FilterP,
    FixpointP,
    JoinP,
    Plan,
    PositionCol,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
    has_column,
    resolve_column,
)
from repro.engine.stats import DELTA_SUFFIX, working_predicate


class LoweringError(Exception):
    """Raised when a query lies outside the engine's supported fragment."""


#: Maps a calculus atom's predicate to a plan over its rows (any column names).
Scan = Callable[[str], Plan]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _cross(left: Plan | None, right: Plan) -> Plan:
    if left is None:
        return right
    return JoinP(left, right, "cross")


def _filter(plan: Plan, condition: e.Expr) -> Plan:
    if isinstance(condition, e.BoolConst) and condition.value:
        return plan
    return FilterP(plan, condition)


def _filter_last(plan: Plan, condition: e.Expr) -> Plan:
    """``plan`` filtered by ``condition`` after its own top filter's
    conjuncts, so a leading ``col = const`` there stays an index lookup."""
    if isinstance(plan, FilterP):
        return FilterP(plan.input, e.conjunction(
            e.conjuncts(plan.condition) + [condition]))
    return FilterP(plan, condition)


def _project_to(plan: Plan, columns: Sequence[str]) -> Plan:
    """Project ``plan`` onto the named columns (by resolution), keeping names."""
    if tuple(plan.columns) == tuple(columns):
        return plan
    exprs = tuple(e.Col(name) for name in columns)
    # Column names may be dotted ("S.sid"); build Col refs that resolve by
    # exact spelling: resolve_column tries the bare spelling first.
    return ProjectP(plan, exprs, tuple(columns))


def _dependent_join(plan: Plan, kind: str, reads: Sequence[e.Col],
                    dependent: Callable[[Plan | None], Plan]) -> Plan:
    """``plan`` semi- or anti-joined to the side ``dependent`` builds, for
    SQL's [NOT] EXISTS / IN and the calculus' ¬∃ alike: keyed, NULL
    matching NULL, on the columns of ``plan`` some reference in ``reads``
    may name, and starting from their distinct values (from nothing when
    there are none: the side is uncorrelated)."""
    keys = tuple(c for c in plan.columns if any(
        has_column((c,), col.name, col.qualifier, strict=True) for col in reads))
    base = None if not keys else plan if keys == plan.columns \
        else DistinctP(_project_to(plan, keys))
    return JoinP(plan, dependent(base), kind, left_keys=keys,
                 right_keys=keys, null_matches=True)


def detect_language(text: str) -> str:
    """Guess the language of a textual query (same heuristic as the
    equivalence harness)."""
    stripped = text.strip()
    if stripped.lower().startswith("select") or stripped.startswith("("):
        return "sql"
    if stripped.startswith("{"):
        head = stripped.split("|", 1)[0]
        return "trc" if "." in head else "drc"
    if ":-" in stripped or stripped.endswith("."):
        return "datalog"
    return "ra"


def lower(query: Any, schema: DatabaseSchema, language: str | None = None) -> Plan:
    """Lower a query of any of the five languages to one plan.

    ``query`` may be text (language auto-detected unless given) or a parsed
    AST of any frontend; a Datalog program is read at its ``ans`` predicate
    (:func:`lower_datalog`).
    """
    from repro.datalog.ast import Program
    from repro.drc.ast import DRCQuery
    from repro.ra.ast import RAExpr
    from repro.sql.ast import SelectQuery, SetOpQuery
    from repro.trc.ast import TRCQuery

    if isinstance(query, str):
        language = (language or detect_language(query)).lower()
        lowerer = {"sql": lower_sql, "ra": lower_ra, "trc": lower_trc,
                   "drc": lower_drc, "datalog": lower_datalog}.get(language)
        if lowerer is None:
            raise LoweringError(f"unknown language {language!r}")
        return lowerer(query, schema)
    if isinstance(query, (SelectQuery, SetOpQuery)):
        return lower_sql(query, schema)
    if isinstance(query, RAExpr):
        return lower_ra(query, schema)
    if isinstance(query, TRCQuery):
        return lower_trc(query, schema)
    if isinstance(query, DRCQuery):
        return lower_drc(query, schema)
    if isinstance(query, Program):
        return lower_datalog(query, schema)
    raise LoweringError(f"cannot lower query of type {type(query).__name__}")


# ---------------------------------------------------------------------------
# SQL
# ---------------------------------------------------------------------------

def lower_sql(query: "Any | str", schema: DatabaseSchema) -> Plan:
    """Lower a SQL query (text or AST) to a plan (bag semantics)."""
    if isinstance(query, str):
        from repro.sql.parser import parse_sql

        query = parse_sql(query)
    return _lower_sql_query(query, schema)


def _lower_sql_query(query: Any, schema: DatabaseSchema) -> Plan:
    from repro.sql.ast import SelectQuery, SetOpQuery

    if isinstance(query, SetOpQuery):
        left = _lower_sql_query(query.left, schema)
        right = _lower_sql_query(query.right, schema)
        plan: Plan = SetOpP(query.op, left, right, distinct=not query.all)
        if query.order_by or query.limit is not None:
            plan = _sql_sort_limit(plan, query.order_by, query.limit)
        return plan
    if isinstance(query, SelectQuery):
        plan, _from_cols = _lower_select(query, schema, base=None)
        return plan
    raise LoweringError(f"unsupported SQL node {type(query).__name__}")


def _lower_select(query: Any, schema: DatabaseSchema, base: Plan | None,
                  *, project: bool = True) -> tuple[Plan, tuple[str, ...]]:
    """Lower one SELECT block.

    ``base`` is the dependent-join prefix: the outer plan whose columns a
    correlated subquery may reference.  With ``project=False`` the plan stops
    before the SELECT list (used for EXISTS subqueries, where only row
    existence matters); the second return value is the columns contributed by
    this block's own FROM list.
    """
    plan = base
    from_cols: list[str] = []
    outer_aliases = set()
    if base is not None:
        outer_aliases = {c.split(".", 1)[0].lower() for c in base.columns if "." in c}
    for item in query.from_items:
        item_plan = _lower_from_item(item, schema)
        for col in item_plan.columns:
            # A correlated subquery that reuses an outer alias would make the
            # outer column shadow the inner one (the inverse of SQL scoping);
            # those queries go to the reference interpreter instead.
            if "." in col and col.split(".", 1)[0].lower() in outer_aliases:
                raise LoweringError(
                    f"correlated subquery reuses outer alias {col.split('.', 1)[0]!r}"
                )
            from_cols.append(col)
        plan = _cross(plan, item_plan)
    if plan is None:
        raise LoweringError("a FROM clause is required")

    if query.where is not None:
        plan = _apply_sql_predicates(plan, query.where, schema)

    if not project:
        return plan, tuple(from_cols)

    grouped = bool(query.group_by) or query.having is not None or any(
        e.contains_aggregate(item.expr) for item in query.select_items
    )
    if grouped:
        plan = _lower_grouped(query, plan, from_cols)
    else:
        plan = _sql_projection(query, plan, from_cols)

    if query.distinct:
        plan = DistinctP(plan)
    if query.order_by or query.limit is not None:
        plan = _sql_sort_limit(plan, query.order_by, query.limit)
    return plan, tuple(from_cols)


def _lower_from_item(item: Any, schema: DatabaseSchema) -> Plan:
    from repro.sql.ast import DerivedTable, Join, TableRef

    if isinstance(item, TableRef):
        try:
            rel = schema.relation(item.name)
        except SchemaError as exc:
            raise LoweringError(str(exc)) from exc
        binding = item.binding_name
        return ScanP(rel.name, tuple(f"{binding}.{a.name}" for a in rel.attributes))
    if isinstance(item, DerivedTable):
        sub = _lower_sql_query(item.query, schema)
        names = tuple(f"{item.alias}.{c.split('.')[-1]}" for c in sub.columns)
        return ProjectP(sub, tuple(e.Col(c) for c in sub.columns), unique_names(names))
    if isinstance(item, Join):
        if item.natural or item.using:
            raise LoweringError("NATURAL JOIN / USING are not lowered; write the condition")
        if item.kind not in ("inner", "cross"):
            raise LoweringError(f"{item.kind.upper()} JOIN is not in the engine fragment")
        left = _lower_from_item(item.left, schema)
        right = _lower_from_item(item.right, schema)
        plan: Plan = JoinP(left, right, "cross")
        if item.condition is not None:
            if e.contains_subquery(item.condition):
                raise LoweringError("subqueries in JOIN conditions are not lowered")
            plan = FilterP(plan, item.condition)
        return plan
    raise LoweringError(f"unknown FROM item {type(item).__name__}")


def _apply_sql_predicates(plan: Plan, where: e.Expr, schema: DatabaseSchema) -> Plan:
    plain: list[e.Expr] = []
    for conjunct in e.conjuncts(where):
        if not e.contains_subquery(conjunct):
            plain.append(conjunct)
    if plain:
        plan = _filter(plan, e.conjunction(plain))
    for conjunct in e.conjuncts(where):
        if e.contains_subquery(conjunct):
            plan = _apply_subquery_conjunct(plan, conjunct, schema)
    return plan


def _apply_subquery_conjunct(plan: Plan, conjunct: e.Expr,
                             schema: DatabaseSchema) -> Plan:
    from repro.sql.ast import SelectQuery

    if not isinstance(conjunct, (e.Exists, e.InSubquery)):
        raise LoweringError(f"predicate {type(conjunct).__name__} with a "
                            "subquery is not in the engine fragment")
    word = "EXISTS" if isinstance(conjunct, e.Exists) else "IN"
    sub = conjunct.query
    if not isinstance(sub, SelectQuery):
        raise LoweringError(f"{word} over set operations is not lowered")
    if sub.group_by or sub.having is not None or any(
            e.contains_aggregate(item.expr) for item in sub.select_items):
        # A grouped subquery's row count is not its FROM/WHERE row count
        # (an ungrouped aggregate yields one row even over empty input),
        # so a plain existence check would be wrong.
        raise LoweringError(f"aggregating {word} subqueries are not lowered")
    if word == "IN" and (sub.select_star or sub.star_qualifiers
                         or len(sub.select_items) != 1):
        raise LoweringError("IN subqueries must select exactly one column")

    def matches(base: Plan | None) -> Plan:
        dependent, _ = _lower_select(sub, schema, base=base, project=False)
        if word == "EXISTS":
            return dependent
        item = sub.select_items[0].expr
        out = _filter(dependent, e.Comparison(conjunct.operand, "=", item))
        if conjunct.negated:
            # x NOT IN S is UNKNOWN, never TRUE, when S holds a NULL or when
            # x is NULL and S is nonempty, so those rows join the anti side.
            # Each IS NULL test reads one side of the product and pushes
            # below it: on data without NULLs both branches are empty.
            for null_side in (item, conjunct.operand):
                out = SetOpP("union", out,
                             _filter_last(dependent, e.IsNull(null_side)),
                             distinct=False)
        return out

    operand = () if word == "EXISTS" else (conjunct.operand,)
    return _dependent_join(plan, "anti" if conjunct.negated else "semi",
                           _outer_reads(sub, *operand), matches)


def _outer_reads(query: Any, *exprs: e.Expr) -> list[e.Col]:
    """The column references of ``exprs`` and ``query``, nested subqueries
    included: those an outer column may be named by."""
    from repro.sql.ast import SelectQuery, walk_queries

    exprs += tuple(x for q in walk_queries(query)
                   if isinstance(q, SelectQuery) for x in q._expressions())
    return [col for x in exprs for col in x.columns()]


def _sql_projection(query: Any, plan: Plan, from_cols: Sequence[str]) -> Plan:
    exprs: list[e.Expr] = []
    names: list[str] = []
    if query.select_star or query.star_qualifiers:
        for col in from_cols:
            alias, _, bare = col.rpartition(".")
            if query.select_star or alias in query.star_qualifiers:
                exprs.append(e.Col(col))
                names.append(bare)
    for i, item in enumerate(query.select_items):
        if e.contains_subquery(item.expr):
            raise LoweringError("subqueries in the SELECT list are not lowered")
        exprs.append(item.expr)
        names.append(item.output_name(i))
    if not exprs:
        raise LoweringError("empty SELECT list")
    return ProjectP(plan, tuple(exprs), unique_names(names))


def _collect_aggregates(expr: e.Expr) -> list[e.FuncCall]:
    return [n for n in expr.walk() if isinstance(n, e.FuncCall) and n.is_aggregate]


def _replace_aggregates(expr: e.Expr, mapping: Mapping[e.FuncCall, str]) -> e.Expr:
    """``expr`` over the aggregate node's output: each aggregate call read
    as the column it was computed into."""
    if isinstance(expr, e.FuncCall) and expr.is_aggregate:
        return e.Col(mapping[expr])
    return e.map_children(expr, lambda child: _replace_aggregates(child, mapping))


def _lower_grouped(query: Any, plan: Plan, from_cols: Sequence[str]) -> Plan:
    if query.select_star or query.star_qualifiers:
        raise LoweringError("SELECT * cannot be combined with GROUP BY / aggregates")
    for expr in query.group_by:
        if e.contains_subquery(expr) or e.contains_aggregate(expr):
            raise LoweringError("GROUP BY expressions must be plain")

    calls: list[e.FuncCall] = []
    for item in query.select_items:
        if e.contains_subquery(item.expr):
            raise LoweringError("subqueries in the SELECT list are not lowered")
        calls.extend(_collect_aggregates(item.expr))
    if query.having is not None:
        if e.contains_subquery(query.having):
            raise LoweringError("subqueries in HAVING are not lowered")
        calls.extend(_collect_aggregates(query.having))
    mapping: dict[e.FuncCall, str] = {}
    aggregates: list[tuple[e.FuncCall, str]] = []
    for call in calls:
        if call not in mapping:
            name = f"__agg{len(mapping)}"
            mapping[call] = name
            aggregates.append((call, name))

    out: Plan = AggregateP(plan, tuple(query.group_by), tuple(aggregates))
    if query.having is not None:
        out = FilterP(out, _replace_aggregates(query.having, mapping))
    exprs = tuple(_replace_aggregates(item.expr, mapping) for item in query.select_items)
    names = unique_names([item.output_name(i) for i, item in enumerate(query.select_items)])
    return ProjectP(out, exprs, names)


def _sql_sort_limit(plan: Plan, order_by: Sequence[Any], limit: int | None) -> Plan:
    keys = []
    for item in order_by:
        expr = item.expr
        if e.contains_subquery(expr) or e.contains_aggregate(expr):
            raise LoweringError("ORDER BY expressions must be plain")
        # The reference orders over *output* columns, retrying a qualified
        # reference by its bare name; mirror that by stripping qualifiers
        # that do not resolve against the output.
        for col in expr.columns():
            if not has_column(plan.columns, col.name, col.qualifier):
                if col.qualifier and has_column(plan.columns, col.name):
                    expr = e.map_columns(
                        expr, lambda c: e.Col(c.name) if c == col else c)  # noqa: B023
                else:
                    raise LoweringError(
                        f"ORDER BY column {col.qualified()} does not resolve "
                        "against the output"
                    )
        keys.append((expr, item.ascending))
    return SortLimitP(plan, tuple(keys), limit)


# ---------------------------------------------------------------------------
# Relational Algebra
# ---------------------------------------------------------------------------

def lower_ra(expr: "Any | str", schema: DatabaseSchema, *, bag: bool = False) -> Plan:
    """Lower an RA expression (text or AST); set semantics by default."""
    from repro.ra.ast import RAError

    if isinstance(expr, str):
        from repro.ra.parser import parse_ra

        expr = parse_ra(expr)
    try:
        plan = _lower_ra(expr, schema, bag=bag)
    except (RAError, SchemaError) as exc:
        raise LoweringError(str(exc)) from exc
    duplicate_free = isinstance(plan, DistinctP) or (
        isinstance(plan, SetOpP) and plan.distinct)
    return plan if bag or duplicate_free else DistinctP(plan)


def _lower_ra(expr: Any, schema: DatabaseSchema, *, bag: bool) -> Plan:
    from repro.ra import ast as ra
    from repro.ra.ast import output_schema

    def names_of(node: Any) -> tuple[str, ...]:
        return output_schema(node, schema).attribute_names

    if isinstance(expr, ra.RelationRef):
        return ScanP(schema.relation(expr.name).name, names_of(expr))
    if isinstance(expr, ra.Rename):
        inner = _lower_ra(expr.input, schema, bag=bag)
        return ProjectP(inner, tuple(e.Col(c) for c in inner.columns), names_of(expr))
    if isinstance(expr, ra.Selection):
        return FilterP(_lower_ra(expr.input, schema, bag=bag), expr.condition)
    if isinstance(expr, ra.Projection):
        inner = _lower_ra(expr.input, schema, bag=bag)
        exprs = []
        for column in expr.columns:
            qualifier, name = ra._split_reference(column)
            exprs.append(e.Col(name, qualifier))
        plan: Plan = ProjectP(inner, tuple(exprs), names_of(expr))
        return plan if bag else DistinctP(plan)
    if isinstance(expr, ra.ThetaJoin):
        joined = JoinP(_lower_ra(expr.left, schema, bag=bag),
                       _lower_ra(expr.right, schema, bag=bag), "cross")
        # The concatenated schema prefixes clashing attribute names; re-expose
        # every position under those names before filtering (positional, since
        # the raw concatenation may contain duplicates).
        renamed = _project_positions(joined, range(len(joined.columns)), names_of(expr))
        return FilterP(renamed, expr.condition)
    if isinstance(expr, ra.Product):
        joined = JoinP(_lower_ra(expr.left, schema, bag=bag),
                       _lower_ra(expr.right, schema, bag=bag), "cross")
        names = names_of(expr)
        if joined.columns == names:
            return joined
        return _project_positions(joined, range(len(joined.columns)), names)
    if isinstance(expr, ra.NaturalJoin):
        left = _lower_ra(expr.left, schema, bag=bag)
        right = _lower_ra(expr.right, schema, bag=bag)
        shared = [c for c in left.columns if c in right.columns]
        kept = [c for c in right.columns if c not in shared]
        joined = JoinP(left, right, "inner",
                       left_keys=tuple(shared), right_keys=tuple(shared),
                       null_matches=True)
        if not kept:
            return _project_positions(joined, range(len(left.columns)), left.columns)
        return _project_positions(
            joined,
            list(range(len(left.columns)))
            + [len(left.columns) + right.columns.index(c) for c in kept],
            names_of(expr),
        )
    if isinstance(expr, (ra.SemiJoin, ra.AntiJoin)):
        left = _lower_ra(expr.left, schema, bag=bag)
        right = _lower_ra(expr.right, schema, bag=bag)
        kind = "semi" if isinstance(expr, ra.SemiJoin) else "anti"
        if expr.condition is None:
            shared = [c for c in left.columns if c in right.columns]
            return JoinP(left, right, kind,
                         left_keys=tuple(shared), right_keys=tuple(shared),
                         null_matches=True)
        return JoinP(left, right, kind, residual=expr.condition)
    if isinstance(expr, ra.Union):
        plan = SetOpP("union", _lower_ra(expr.left, schema, bag=bag),
                      _lower_ra(expr.right, schema, bag=bag), distinct=not bag)
        return plan
    if isinstance(expr, ra.Intersection):
        return SetOpP("intersect", _lower_ra(expr.left, schema, bag=bag),
                      _lower_ra(expr.right, schema, bag=bag), distinct=True)
    if isinstance(expr, ra.Difference):
        return SetOpP("except", _lower_ra(expr.left, schema, bag=bag),
                      _lower_ra(expr.right, schema, bag=bag), distinct=True)
    if isinstance(expr, ra.Division):
        return DivideP(_lower_ra(expr.left, schema, bag=False),
                       _lower_ra(expr.right, schema, bag=False))
    if isinstance(expr, ra.Distinct):
        return DistinctP(_lower_ra(expr.input, schema, bag=bag))
    if isinstance(expr, ra.GroupBy):
        # The reference evaluator always feeds GroupBy a bag.
        inner = _lower_ra(expr.input, schema, bag=True)
        group_exprs = []
        group_positions = []
        for column in expr.group_columns:
            qualifier, name = ra._split_reference(column)
            group_exprs.append(e.Col(name, qualifier))
            group_positions.append(resolve_column(inner.columns, name, qualifier))
        agg = AggregateP(inner, tuple(group_exprs), tuple(expr.aggregates))
        return _project_positions(
            agg,
            group_positions
            + list(range(len(inner.columns), len(inner.columns) + len(expr.aggregates))),
            names_of(expr),
        )
    raise LoweringError(f"unhandled RA node {type(expr).__name__}")


def _project_positions(plan: Plan, positions: Sequence[int],
                       names: Sequence[str]) -> Plan:
    return ProjectP(plan, tuple(PositionCol(p) for p in positions),
                    unique_names(names))


# ---------------------------------------------------------------------------
# Relational calculus (TRC through its DRC translation)
# ---------------------------------------------------------------------------

def lower_trc(query: "Any | str", schema: DatabaseSchema) -> Plan:
    """Lower a safe TRC query (text or AST) to a plan (set semantics).

    The query is translated to DRC by
    :func:`repro.translate.trc_to_drc.trc_to_drc` (a tuple variable becomes
    one domain variable per attribute) and the translation is compiled like
    any DRC query; the output columns keep the TRC head's names.
    """
    from repro.translate.trc_to_drc import TRCToDRCError, trc_to_drc

    if isinstance(query, str):
        from repro.trc.parser import parse_trc

        query = parse_trc(query)
    try:
        drc = trc_to_drc(query, schema)
    except (TRCToDRCError, SchemaError) as exc:
        raise LoweringError(str(exc)) from exc
    return _lower_calculus(drc, schema,
                           [item.output_name(i) for i, item in enumerate(query.head)])


def lower_drc(query: "Any | str", schema: DatabaseSchema) -> Plan:
    """Lower a safe (guarded) DRC query (text or AST) to a plan."""
    if isinstance(query, str):
        from repro.drc.parser import parse_drc

        query = parse_drc(query)
    return _lower_calculus(query, schema, query.output_names())


def _lower_calculus(query: Any, schema: DatabaseSchema, names: Sequence[str]) -> Plan:
    """Compile a DRC query whose output columns are called ``names``."""
    from repro.logic.formula import LogicError
    from repro.logic.transform import standardize_apart, to_existential_nnf

    try:
        body = to_existential_nnf(standardize_apart(query.body))
    except LogicError as exc:
        raise LoweringError(str(exc)) from exc

    plan = _apply_drc(None, body, lambda predicate: _scan(schema, predicate))
    if plan is None:
        raise LoweringError("DRC query has no positive relation atoms")
    return _project_head(plan, query.head, names)


def _scan(schema: DatabaseSchema, predicate: str) -> Plan:
    """A scan of the base relation ``predicate`` names."""
    try:
        rel = schema.relation(predicate)
    except SchemaError as exc:
        raise LoweringError(str(exc)) from exc
    return ScanP(rel.name, rel.attribute_names)


def _project_head(plan: Plan, head: Sequence[Any], names: Sequence[str]) -> Plan:
    """The distinct projection of ``plan`` onto head terms (variables, constants)."""
    from repro.logic.terms import Const as LConst, Var as LVar

    exprs: list[e.Expr] = []
    for term in head:
        if isinstance(term, LVar):
            if not has_column(plan.columns, term.name):
                raise LoweringError(
                    f"head variable {term.name!r} is not bound by a positive atom"
                )
            exprs.append(e.Col(term.name))
        elif isinstance(term, LConst):
            exprs.append(e.Const(term.value))
        else:
            raise LoweringError(f"unsupported head term {term!r}")
    return DistinctP(ProjectP(plan, tuple(exprs), unique_names(names)))


class _NotLocal(Exception):
    """Internal: a formula is not a plain predicate over bound columns."""


def _apply_drc(plan: Plan | None, formula: Any, scan: Scan) -> Plan | None:
    from repro.logic import formula as f

    conjuncts = _drc_conjuncts(formula)

    # Positive atoms first: they bind variables.
    for conjunct in conjuncts:
        if isinstance(conjunct, f.Atom):
            plan = _drc_join_atom(plan, conjunct, scan)

    deferred: list[Any] = []
    local_parts: list[e.Expr] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, f.Atom):
            continue
        try:
            local_parts.append(_drc_local_expr(conjunct, () if plan is None else plan.columns))
        except _NotLocal:
            deferred.append(conjunct)
    if local_parts:
        if plan is None:
            raise LoweringError("comparison over unguarded variables (unsafe DRC)")
        plan = _filter(plan, e.conjunction(local_parts))

    for conjunct in deferred:
        plan = _apply_drc_quantified(plan, conjunct, scan)
    return plan


def _drc_conjuncts(formula: Any) -> list[Any]:
    from repro.logic import formula as f

    if isinstance(formula, f.And):
        out: list[Any] = []
        for operand in formula.operands:
            out.extend(_drc_conjuncts(operand))
        return out
    if isinstance(formula, f.Truth) and formula.value:
        return []
    return [formula]


def _drc_atom_plan(atom: Any, scan: Scan) -> tuple[Plan, list[str]]:
    """A plan for one positive atom, projected onto its variables."""
    from repro.logic.terms import Const as LConst, Var as LVar

    source = scan(atom.predicate)
    arity = len(source.columns)
    if arity != len(atom.terms):
        raise LoweringError(
            f"atom {atom.predicate} has {len(atom.terms)} terms but the relation "
            f"has arity {arity}"
        )
    # A delta occurrence names its columns after the predicate it is a delta of.
    label = working_predicate(atom.predicate)
    temp = tuple(f"__{label}.{i}" for i in range(arity))
    plan: Plan
    if isinstance(source, (ScanP, FixpointP)):
        plan = replace(source, columns=temp)
    else:
        plan = _project_positions(source, range(arity), temp)
    conditions: list[e.Expr] = []
    var_first: dict[str, int] = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, LConst):
            conditions.append(e.Comparison(e.Col(temp[i]), "=", e.Const(term.value)))
        elif isinstance(term, LVar):
            if term.name in var_first:
                # A variable repeated in one atom matches like one shared
                # by two atoms: NULL equals NULL.
                conditions.append(e.Comparison(e.Col(temp[i]), e.NOT_DISTINCT,
                                               e.Col(temp[var_first[term.name]])))
            else:
                var_first[term.name] = i
        else:
            raise LoweringError(f"unsupported atom term {term!r}")
    if conditions:
        plan = FilterP(plan, e.conjunction(conditions))
    variables = list(var_first)
    if not variables:
        # A fully-constant atom: keep a single marker column so the plan has
        # a schema; membership is what matters.
        return ProjectP(plan, (e.Col(temp[0]) if temp else e.Const(1),),
                        (f"__{label}_witness",)), []
    plan = ProjectP(plan, tuple(e.Col(temp[var_first[v]]) for v in variables),
                    tuple(variables))
    return plan, variables


def _drc_join_atom(plan: Plan | None, atom: Any, scan: Scan) -> Plan:
    atom_plan, variables = _drc_atom_plan(atom, scan)
    if plan is None:
        return atom_plan
    shared = [v for v in variables if has_column(plan.columns, v)]
    new = [v for v in variables if v not in shared]
    joined = JoinP(plan, atom_plan, "inner" if new else "semi",
                   left_keys=tuple(shared), right_keys=tuple(shared),
                   null_matches=True)
    if not new or not shared:
        # A pure membership test, or already ``plan.columns + variables``: a
        # projection here would hide the join from the optimizer's key
        # promotion.
        return joined
    positions = list(range(len(plan.columns))) + [
        len(plan.columns) + variables.index(v) for v in new
    ]
    return _project_positions(joined, positions, tuple(plan.columns) + tuple(new))


def _drc_local_expr(formula: Any, columns: Sequence[str]) -> e.Expr:
    from repro.logic import formula as f
    from repro.logic.terms import Const as LConst, Var as LVar

    if isinstance(formula, f.Truth):
        return e.BoolConst(formula.value)
    if isinstance(formula, f.Compare):
        def term(x: Any) -> e.Expr:
            if isinstance(x, LVar):
                if not has_column(columns, x.name):
                    raise _NotLocal()
                return e.Col(x.name)
            if isinstance(x, LConst):
                return e.Const(x.value)
            raise _NotLocal()
        return e.Comparison(term(formula.left), formula.op, term(formula.right))
    if isinstance(formula, f.And):
        return e.conjunction([_drc_local_expr(o, columns) for o in formula.operands])
    if isinstance(formula, f.Or):
        return e.disjunction([_drc_local_expr(o, columns) for o in formula.operands])
    if isinstance(formula, f.Not):
        inner = _drc_local_expr(formula.operand, columns)
        if isinstance(inner, e.BoolConst):
            return e.BoolConst(not inner.value)
        return e.Not(inner)
    raise _NotLocal()


def _apply_drc_quantified(plan: Plan | None, conjunct: Any,
                          scan: Scan) -> Plan:
    from repro.logic import formula as f

    if isinstance(conjunct, f.Exists):
        extended = _apply_drc(plan, conjunct.body, scan)
        if extended is None:
            raise LoweringError("existential body binds no variables (unsafe DRC)")
        return extended
    if isinstance(conjunct, f.Not):
        if plan is None:
            raise LoweringError("top-level negation is unsafe DRC")
        inner = conjunct.operand
        if isinstance(inner, f.Exists):
            def body(base: Plan | None) -> Plan:
                dependent = _apply_drc(base, inner.body, scan)
                if dependent is None:
                    raise LoweringError("negated existential binds no "
                                        "variables (unsafe DRC)")
                return dependent

            return _dependent_join(plan, "anti", [
                e.Col(v.name) for v in f.free_variables(inner)], body)
        if isinstance(inner, f.Atom):
            atom_plan, variables = _drc_atom_plan(inner, scan)
            if variables and not all(has_column(plan.columns, v) for v in variables):
                raise LoweringError(
                    f"negated atom {inner.predicate} has unguarded variables"
                )
            return JoinP(plan, atom_plan, "anti",
                         left_keys=tuple(variables), right_keys=tuple(variables),
                         null_matches=True)
        raise LoweringError(
            f"negation of {type(inner).__name__} is not in the guarded DRC fragment"
        )
    if isinstance(conjunct, f.Or):
        if plan is None:
            branches = [_apply_drc(None, operand, scan) for operand in conjunct.operands]
            if any(b is None for b in branches):
                raise LoweringError("disjunct binds no variables (unsafe DRC)")
            shared = [c for c in branches[0].columns
                      if all(has_column(b.columns, c) for b in branches[1:])]
            if not shared:
                raise LoweringError("disjuncts share no variables (unsafe DRC)")
            out = _project_to(branches[0], shared)
            for branch in branches[1:]:
                out = SetOpP("union", out, _project_to(branch, shared), distinct=True)
            return out
        branches = []
        for operand in conjunct.operands:
            branch = _apply_drc(plan, operand, scan)
            assert branch is not None
            branches.append(_project_to(branch, plan.columns))
        out = branches[0]
        for branch in branches[1:]:
            out = SetOpP("union", out, branch, distinct=True)
        return out
    raise LoweringError(f"cannot lower DRC conjunct {type(conjunct).__name__}")


# ---------------------------------------------------------------------------
# Datalog: one plan per program
# ---------------------------------------------------------------------------

def lower_datalog(program: "Any | str", schema: DatabaseSchema,
                  query: str = "ans") -> Plan:
    """Lower a stratified Datalog program (text or AST) to the one plan of
    its ``query`` predicate, its columns named after that predicate's rule
    heads (:func:`repro.datalog.ast.names_from_heads`).

    A non-recursive IDB predicate without facts is inlined at each use as
    the DISTINCT union of its rules' bodies.  Each other component of the
    dependency graph, a recursive stratum or a predicate carrying facts, is
    one :class:`FixpointP`: its rule bodies read the component's predicates
    as working relations, and each positive occurrence of one gives a delta
    variant.  Unsafe or unstratifiable programs, predicates that are neither
    defined by a rule nor a relation, and rule heads that name a relation
    raise :class:`LoweringError`.
    """
    from functools import cache

    from repro.datalog.ast import DatalogError, Literal, Program, names_from_heads
    from repro.datalog.stratify import dependency_graph, stratify

    if isinstance(program, str):
        from repro.datalog.parser import parse_datalog

        program = parse_datalog(program)
    assert isinstance(program, Program)
    problems = program.check_safety()
    if problems:
        raise LoweringError("unsafe program: " + "; ".join(problems))
    try:
        stratify(program)
    except DatalogError as exc:
        raise LoweringError(str(exc)) from exc
    rules = {p: program.rules_for(p) for p in program.idb_predicates()}
    relations = {name.lower() for name in schema.relation_names}
    for predicate, defining in rules.items():
        if predicate in relations:
            raise LoweringError(
                f"rule head {predicate!r} names a relation of the database")
        if len({rule.head.arity for rule in defining}) != 1:
            raise LoweringError(f"predicate {predicate!r} has rules of "
                                "different arities")
    if query.lower() not in rules:
        raise LoweringError(f"program defines no predicate {query!r}")
    graph = dependency_graph(program)
    reach: dict[str, set[str]] = {}
    for start in rules:
        seen, stack = set(), [start]
        while stack:
            for successor, _negated in graph.get(stack.pop(), ()):
                if successor in rules and successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        reach[start] = seen

    def names(predicate: str) -> tuple[str, ...]:
        return tuple(f"col{i + 1}"
                     for i in range(rules[predicate][0].head.arity))

    def scan(predicate: str) -> Plan:
        predicate = predicate.lower()
        if predicate in rules:
            return plan_of(predicate, names(predicate))
        if predicate not in relations:
            raise LoweringError(f"predicate {predicate!r} is neither "
                                "defined by a rule nor a relation")
        return _scan(schema, predicate)

    @cache
    def plan_of(predicate: str, columns: tuple[str, ...]) -> Plan:
        if predicate in reach[predicate] or any(
                rule.is_fact for rule in rules[predicate]):
            members = tuple(p for p in rules if p == predicate or (
                p in reach[predicate] and predicate in reach[p]))
            return replace(fixpoint(members), predicate=predicate,
                           columns=columns)
        bodies = [lower_datalog_rule(rule, scan, columns)
                  for rule in rules[predicate]]
        out = bodies[0]
        for body in bodies[1:]:
            out = SetOpP("union", out, body)
        return out

    @cache
    def fixpoint(members: tuple[str, ...]) -> FixpointP:
        def stratum_scan(predicate: str) -> Plan:
            base = working_predicate(predicate)
            if base in members:
                return ScanP(predicate.lower(), names(base))
            return scan(predicate)

        bodies, variants, facts = [], [], []
        for head in members:
            for rule in rules[head]:
                if rule.is_fact:
                    facts.append((head, tuple(e.Const(term.value)
                                              for term in rule.head.terms)))
                    continue
                bodies.append((head, lower_datalog_rule(
                    rule, stratum_scan, names(head))))
                for position, item in enumerate(rule.body):
                    if isinstance(item, Literal) and not item.negated \
                            and item.predicate.lower() in members:
                        delta = replace(item, predicate=item.predicate.lower()
                                        + DELTA_SUFFIX)
                        body = rule.body[:position] + (delta,) \
                            + rule.body[position + 1:]
                        variants.append((head, lower_datalog_rule(
                            replace(rule, body=body), stratum_scan,
                            names(head))))
        return FixpointP(members[0], names(members[0]), tuple(bodies),
                         tuple(variants), tuple(facts))

    return plan_of(query.lower(), tuple(unique_names(
        names_from_heads(rules[query.lower()]))))


def lower_datalog_rule(rule: Any, scan: Scan, names: Sequence[str]) -> Plan:
    """Lower one Datalog rule body to a plan of head rows named ``names``:
    the DRC conjunction of its atoms (joined in body order), negated atoms
    and comparisons, lowered by :func:`_apply_drc`.  ``scan`` gives the
    plan an atom reads: a relation, an inlined IDB predicate, or a
    fixpoint's working relation (``pred`` or its delta ``pred@delta``)."""
    from repro.datalog.ast import BuiltinComparison
    from repro.logic import formula as f

    conjuncts: list[Any] = []
    for item in rule.body:
        if isinstance(item, BuiltinComparison):
            conjuncts.append(f.Compare(item.left, item.op, item.right))
        else:
            atom = f.Atom(item.predicate, item.terms)
            conjuncts.append(f.Not(atom) if item.negated else atom)
    plan = _apply_drc(None, f.And(tuple(conjuncts)), scan)
    assert plan is not None  # a safe rule with a body has a positive atom
    return _project_head(plan, rule.head.terms, names)
