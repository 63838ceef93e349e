"""Rule-based optimization of logical plans.

Three families of rewrites, applied in order by :func:`optimize`:

1. **Predicate pushdown** — filters move through projections (when the
   referenced columns are pure renamings), below distinct, into both branches
   of set operations, and into the inputs of joins; conjuncts that straddle a
   join stay at the join as its residual condition.
2. **Join planning** — equality conjuncts ``left.col = right.col`` left at a
   join are promoted to hash keys, and maximal trees of inner/cross joins are
   flattened and re-ordered greedily by *estimated cost*: each step joins the
   leaf whose (statistics-driven) estimated result is smallest, using the
   per-attribute distinct counts and min/max profiles of
   :mod:`repro.engine.stats`, with a final projection restoring the original
   column order.  Delta relations of the semi-naive Datalog fixpoint are
   estimated tiny, which seeds each delta-variant plan at the delta
   occurrence — the semi-join reduction of classical semi-naive evaluation.
3. **Common subexpression elimination** — structurally identical subtrees are
   interned to a single object.  The executor memoizes results per plan
   value, so a deduplicated subtree (for example the outer plan that a
   dependent join embeds in its right side) is evaluated exactly once.

All rewrites are semantics-preserving for the plans the lowerers emit; the
differential tests in ``tests/test_engine.py`` check optimized and
unoptimized plans against all five reference interpreters.
"""

from __future__ import annotations


from repro.data.database import Database
from repro.expr import ast as e
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
    DistinctP,
    DivideP,
    FilterP,
    JoinP,
    Plan,
    PlanError,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
    has_column,
    resolve_column,
)
from repro.engine.stats import StatsCatalog, estimate_rows
from repro.engine.verify import maybe_verify

__all__ = [
    "common_subplan_count",
    "eliminate_common_subexpressions",
    "estimate_rows",
    "optimize",
    "promote_hash_keys",
    "push_down_filters",
    "reorder_joins",
]


def optimize(plan: Plan, db: Database | None = None, *,
             stats: StatsCatalog | None = None) -> Plan:
    """Apply all rewrite families; ``db`` enables cost-based reordering.

    ``stats`` names the catalog (and through it the database) to estimate
    against when it is not ``db`` itself; it is not a speed knob — table
    profiles are cached on the relations, so a bare ``optimize(plan, db)``
    per query re-profiles nothing.
    """
    # Under REPRO_VERIFY_PLANS each rewrite's output is statically verified,
    # so a rule that breaks a plan is caught here naming the rule instead of
    # surfacing later as a wrong answer or executor error.
    plan = maybe_verify(push_down_filters(plan), db,
                        rule="push_down_filters")
    plan = maybe_verify(promote_hash_keys(plan), db,
                        rule="promote_hash_keys")
    if stats is None and db is not None:
        stats = StatsCatalog(db)
    if stats is not None:
        plan = maybe_verify(reorder_joins(plan, stats.db, stats=stats),
                            stats.db, rule="reorder_joins")
        plan = maybe_verify(promote_hash_keys(plan), stats.db,
                            rule="promote_hash_keys")
    plan = maybe_verify(eliminate_common_subexpressions(plan), db,
                        rule="eliminate_common_subexpressions")
    return plan


# ---------------------------------------------------------------------------
# Generic reconstruction
# ---------------------------------------------------------------------------

def _rebuild(plan: Plan, children: list[Plan]) -> Plan:
    if isinstance(plan, (ScanP, DeltaScanP)):
        return plan
    if isinstance(plan, FilterP):
        return FilterP(children[0], plan.condition)
    if isinstance(plan, ProjectP):
        return ProjectP(children[0], plan.exprs, plan.names)
    if isinstance(plan, DistinctP):
        return DistinctP(children[0])
    if isinstance(plan, JoinP):
        return JoinP(children[0], children[1], plan.kind, plan.left_keys,
                     plan.right_keys, plan.residual, plan.null_matches)
    if isinstance(plan, SetOpP):
        return SetOpP(plan.op, children[0], children[1], plan.distinct)
    if isinstance(plan, AggregateP):
        return AggregateP(children[0], plan.group_exprs, plan.aggregates)
    if isinstance(plan, DivideP):
        return DivideP(children[0], children[1])
    if isinstance(plan, SortLimitP):
        return SortLimitP(children[0], plan.keys, plan.limit)
    raise PlanError(f"cannot rebuild {type(plan).__name__}")


# ---------------------------------------------------------------------------
# Predicate pushdown
# ---------------------------------------------------------------------------

def _references_only(expr: e.Expr, columns: tuple[str, ...]) -> bool:
    return all(has_column(columns, col.name, col.qualifier, strict=True)
               for col in expr.columns())


def _remap_by_position(expr: e.Expr, from_cols: tuple[str, ...],
                       to_cols: tuple[str, ...]) -> e.Expr:
    """Rewrite column refs positionally (for pushing into set-op branches)."""
    def remap(col: e.Col) -> e.Col:
        idx = resolve_column(from_cols, col.name, col.qualifier, strict=True)
        qualifier, _, name = to_cols[idx].rpartition(".")
        return e.Col(name if qualifier else to_cols[idx], qualifier or None)

    return e.map_columns(expr, remap)


def push_down_filters(plan: Plan) -> Plan:
    children = [push_down_filters(c) for c in plan.children()]
    plan = _rebuild(plan, children)
    if not isinstance(plan, FilterP):
        return plan
    return _push_filter(plan.input, plan.condition)


def _push_filter(target: Plan, condition: e.Expr) -> Plan:
    conjuncts = e.conjuncts(condition)
    if not conjuncts:
        return target

    if isinstance(target, FilterP):
        return _push_filter(target.input, e.conjunction(
            e.conjuncts(condition) + e.conjuncts(target.condition)))

    if isinstance(target, DistinctP):
        return DistinctP(_push_filter(target.input, condition))

    if isinstance(target, ProjectP):
        # Push through pure column renamings only.
        mapping: dict[int, e.Col] = {}
        renaming = True
        for i, expr in enumerate(target.exprs):
            if isinstance(expr, e.Col):
                mapping[i] = expr
            else:
                renaming = False
        pushable: list[e.Expr] = []
        kept: list[e.Expr] = []
        for conjunct in conjuncts:
            ok = renaming or all(
                isinstance(target.exprs[resolve_column(target.names, c.name, c.qualifier,
                                                       strict=True)],
                           e.Col)
                for c in conjunct.columns()
                if has_column(target.names, c.name, c.qualifier, strict=True)
            )
            if ok and _references_only(conjunct, target.names):
                def remap(col: e.Col) -> e.Col:
                    idx = resolve_column(target.names, col.name, col.qualifier,
                                         strict=True)
                    replacement = target.exprs[idx]
                    assert isinstance(replacement, e.Col)
                    return replacement
                try:
                    pushable.append(e.map_columns(conjunct, remap))
                except (PlanError, e.ExprError):
                    kept.append(conjunct)
            else:
                kept.append(conjunct)
        out: Plan = target
        if pushable:
            out = ProjectP(_push_filter(target.input, e.conjunction(pushable)),
                           target.exprs, target.names)
        if kept:
            out = FilterP(out, e.conjunction(kept))
        return out

    if isinstance(target, SetOpP):
        try:
            right_condition = _remap_by_position(condition, target.columns,
                                                 target.right.columns)
        except PlanError:
            return FilterP(target, condition)
        return SetOpP(target.op,
                      _push_filter(target.left, condition),
                      _push_filter(target.right, right_condition),
                      target.distinct)

    if isinstance(target, JoinP):
        left_cols = target.left.columns
        right_cols = target.right.columns
        to_left: list[e.Expr] = []
        to_right: list[e.Expr] = []
        residual: list[e.Expr] = []
        for conjunct in conjuncts:
            if _references_only(conjunct, left_cols):
                to_left.append(conjunct)
            elif target.kind in ("inner", "cross") and _references_only(conjunct, right_cols):
                to_right.append(conjunct)
            else:
                residual.append(conjunct)
        left = _push_filter(target.left, e.conjunction(to_left)) if to_left else target.left
        right = _push_filter(target.right, e.conjunction(to_right)) if to_right else target.right
        new_residual = list(residual)
        if target.residual is not None:
            new_residual.extend(e.conjuncts(target.residual))
        kind = target.kind
        if kind == "cross" and new_residual:
            kind = "inner"
        return JoinP(left, right, kind, target.left_keys, target.right_keys,
                     e.conjunction(new_residual) if new_residual else None,
                     target.null_matches)

    return FilterP(target, condition)


# ---------------------------------------------------------------------------
# Hash-key promotion
# ---------------------------------------------------------------------------

def _column_of(expr: e.Expr, columns: tuple[str, ...]) -> str | None:
    if isinstance(expr, e.Col) and has_column(columns, expr.name, expr.qualifier,
                                              strict=True):
        return columns[resolve_column(columns, expr.name, expr.qualifier, strict=True)]
    return None


def promote_hash_keys(plan: Plan) -> Plan:
    children = [promote_hash_keys(c) for c in plan.children()]
    plan = _rebuild(plan, children)
    if not (isinstance(plan, JoinP) and plan.residual is not None):
        return plan
    left_keys = list(plan.left_keys)
    right_keys = list(plan.right_keys)
    residual: list[e.Expr] = []
    # An equality *predicate* is never NULL-true, but promoted hash keys
    # follow the join's ``null_matches``.  On a NULL-matching join that
    # already has keys, promotion would change semantics either way, so
    # conjuncts stay residual; on a keyless NULL-matching join the promoted
    # join simply becomes a SQL-equality (``null_matches=False``) join.
    can_promote = not plan.null_matches or not plan.left_keys
    for conjunct in e.conjuncts(plan.residual):
        promoted = False
        if can_promote and isinstance(conjunct, e.Comparison) \
                and conjunct.op == "=":
            for a, b in ((conjunct.left, conjunct.right),
                         (conjunct.right, conjunct.left)):
                lcol = _column_of(a, plan.left.columns)
                rcol = _column_of(b, plan.right.columns)
                if lcol is not None and rcol is not None:
                    left_keys.append(lcol)
                    right_keys.append(rcol)
                    promoted = True
                    break
        if not promoted:
            residual.append(conjunct)
    null_matches = plan.null_matches
    if null_matches and not plan.left_keys and left_keys:
        null_matches = False
    kind = plan.kind
    if kind == "cross" and (left_keys or residual):
        kind = "inner"
    return JoinP(plan.left, plan.right, kind, tuple(left_keys), tuple(right_keys),
                 e.conjunction(residual) if residual else None, null_matches)


# ---------------------------------------------------------------------------
# Cost-based greedy join reordering (estimation lives in repro.engine.stats)
# ---------------------------------------------------------------------------


def _substitute(plan: Plan, old: Plan, new: Plan) -> Plan:
    """Rebuild ``plan`` with every subtree equal to ``old`` replaced by ``new``."""
    if plan == old:
        return new
    children = [_substitute(c, old, new) for c in plan.children()]
    return _rebuild(plan, children)


def _flatten_join_tree(plan: Plan, protected: tuple[Plan, ...] = ()
                       ) -> tuple[list[Plan], list[e.Expr]] | None:
    """Flatten a maximal inner/cross join tree into leaves and conjuncts."""
    if not (isinstance(plan, JoinP) and plan.kind in ("inner", "cross")
            and not plan.null_matches):
        return None
    leaves: list[Plan] = []
    conjuncts: list[e.Expr] = []

    def visit(node: Plan) -> None:
        if any(node == p for p in protected):
            leaves.append(node)
        elif (isinstance(node, JoinP) and node.kind in ("inner", "cross")
                and not node.null_matches):
            visit(node.left)
            visit(node.right)
            for lk, rk in zip(node.left_keys, node.right_keys):
                conjuncts.append(e.Comparison(e.Col(lk), "=", e.Col(rk)))
            if node.residual is not None:
                conjuncts.extend(e.conjuncts(node.residual))
        else:
            leaves.append(node)

    visit(plan)
    return leaves, conjuncts


def reorder_joins(plan: Plan, db: Database,
                  protected: tuple[Plan, ...] = (),
                  *, stats: StatsCatalog | None = None) -> Plan:
    if stats is None:
        stats = StatsCatalog(db)
    if any(plan == p for p in protected):
        return plan
    if isinstance(plan, JoinP) and plan.kind in ("semi", "anti"):
        # Dependent joins embed their left plan inside the right side; keep
        # that embedded copy atomic while reordering around it, then swap in
        # the reordered left so both sides stay structurally shared (the
        # executor's CSE memo depends on it).
        left = reorder_joins(plan.left, db, protected, stats=stats)
        right = reorder_joins(plan.right, db, protected + (plan.left,),
                              stats=stats)
        if left != plan.left:
            right = _substitute(right, plan.left, left)
        return JoinP(left, right, plan.kind, plan.left_keys, plan.right_keys,
                     plan.residual, plan.null_matches)
    children = [reorder_joins(c, db, protected, stats=stats)
                for c in plan.children()]
    plan = _rebuild(plan, children)
    flat = _flatten_join_tree(plan, protected)
    if flat is None:
        return plan
    leaves, conjuncts = flat
    if len(leaves) < 3:
        return plan
    original_columns = plan.columns
    all_columns: list[str] = [c for leaf in leaves for c in leaf.columns]
    if len(set(c.lower() for c in all_columns)) != len(all_columns):
        return plan  # duplicated names: restoring column order would be ambiguous

    remaining = list(leaves)
    pending = list(conjuncts)
    current = min(remaining, key=lambda leaf: stats.estimate(leaf))
    remaining.remove(current)

    def attachable(cols: tuple[str, ...]) -> tuple[list[e.Expr], list[e.Expr]]:
        now, later = [], []
        for conjunct in pending:
            (now if _references_only(conjunct, cols) else later).append(conjunct)
        return now, later

    def trial_join(leaf: Plan) -> Plan:
        # The candidate subplan exactly as the loop would build it, so the
        # cost compared across leaves is the cost of the plan actually run.
        joined, _ = attachable(current.columns + leaf.columns)
        trial: Plan = JoinP(current, leaf, "cross")
        if joined:
            trial = FilterP(trial, e.conjunction(joined))
            trial = promote_hash_keys(push_down_filters(trial))
        return trial

    while remaining:
        best = None
        best_trial = None
        best_cost = None
        for leaf in remaining:
            trial = trial_join(leaf)
            cost = (stats.estimate(trial), stats.estimate(leaf))
            if best_cost is None or cost < best_cost:
                best, best_trial, best_cost = leaf, trial, cost
        assert best is not None and best_trial is not None
        remaining.remove(best)
        current = best_trial
        _, pending = attachable(current.columns)
    if pending:
        current = FilterP(current, e.conjunction(pending))

    if current.columns != original_columns:
        positions = [resolve_column(current.columns, *_split(c), strict=True)
                     for c in original_columns]
        current = ProjectP(current,
                           tuple(e.Col(current.columns[p]) for p in positions),
                           original_columns)
    return current


def _split(column: str) -> tuple[str, str | None]:
    if "." in column:
        qualifier, name = column.split(".", 1)
        return name, qualifier
    return column, None


# ---------------------------------------------------------------------------
# Common subexpression elimination
# ---------------------------------------------------------------------------

def eliminate_common_subexpressions(plan: Plan) -> Plan:
    """Intern structurally identical subtrees to a single shared object."""
    interned: dict[Plan, Plan] = {}

    def visit(node: Plan) -> Plan:
        children = [visit(c) for c in node.children()]
        rebuilt = _rebuild(node, children)
        return interned.setdefault(rebuilt, rebuilt)

    return visit(plan)


def common_subplan_count(plan: Plan) -> int:
    """How many subtree evaluations CSE saves (for benchmarks/diagnostics)."""
    counts: dict[Plan, int] = {}
    for node in plan.walk():
        counts[node] = counts.get(node, 0) + 1
    return sum(c - 1 for c in counts.values())
