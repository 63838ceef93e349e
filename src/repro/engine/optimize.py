"""Rule-based optimization of logical plans.

Three families of rewrites, applied in order by :func:`optimize`:

1. **Predicate pushdown** — filters move below column picks (named or
   positional, respelled by position), below distinct, into both branches
   of set operations, and into the inputs of joins; conjuncts that straddle a
   join stay at the join as its residual condition.
2. **Join planning** — equality conjuncts ``left.col = right.col`` (or
   ``IS NOT DISTINCT FROM``, NULL matching NULL) left at a join are promoted
   to hash keys, all of one kind per join.  With statistics, join shape is
   then decided here and only here, in three steps:

   a. :func:`hoist_projections` bubbles pure column-pick projections (from
      lowering) above inner/cross joins and filters, so none splits a tree;
   b. :func:`reorder_joins` flattens each maximal inner/cross join tree at
      its root (a NULL-matching join's keys become ``IS NOT DISTINCT FROM``
      conjuncts), plans its leaves recursively, and re-orders the tree
      once, greedily by the *estimated* result of each step
      (:mod:`repro.engine.stats`); a lone join is only seated, the
      cheaper build (:meth:`StatsCatalog.build_price`) on the right.  One
      positional projection restores the tree's column order;
   c. :func:`hoist_projections` again, so that projection and the picks
      above it merge into one.

   The delta relations of a Datalog fixpoint's rule bodies and the delta
   windows of a view's delta terms are estimated tiny and built on every
   execution, so each delta-variant plan starts at its delta, which probes
   the kept relation it meets — the semi-join reduction of semi-naive
   evaluation.  :mod:`repro.engine.delta` plans nothing itself.
3. **Common subexpression elimination** — structurally identical subtrees are
   interned to a single object.  The compiler gives a subplan that occurs
   more than once one result slot per call, so a deduplicated subtree (for
   example the outer plan that a dependent join embeds in its right side)
   is evaluated exactly once.

All rewrites are semantics-preserving for the plans the lowerers emit; the
differential tests in ``tests/test_engine.py`` check optimized and
unoptimized plans against all five reference interpreters.
"""

from __future__ import annotations

from typing import Iterable

from repro.data.database import Database
from repro.expr import ast as e
from repro.engine.plan import (
    DistinctP,
    FilterP,
    JoinP,
    Plan,
    PlanError,
    PositionCol,
    ProjectP,
    SetOpP,
    column_position,
    has_column,
    resolve_column,
)
from repro.engine.stats import StatsCatalog, estimate_rows
from repro.engine.verify import maybe_verify

__all__ = [
    "common_subplan_count",
    "eliminate_common_subexpressions",
    "estimate_rows",
    "hoist_projections",
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
        plan = maybe_verify(hoist_projections(plan), stats.db,
                            rule="hoist_projections")
        plan = maybe_verify(reorder_joins(plan, stats.db, stats=stats),
                            stats.db, rule="reorder_joins")
        plan = maybe_verify(hoist_projections(plan), stats.db,
                            rule="hoist_projections")
        plan = maybe_verify(promote_hash_keys(plan), stats.db,
                            rule="promote_hash_keys")
    plan = maybe_verify(eliminate_common_subexpressions(plan), db,
                        rule="eliminate_common_subexpressions")
    return plan


# ---------------------------------------------------------------------------
# Predicate pushdown
# ---------------------------------------------------------------------------

def _references_only(expr: e.Expr, columns: tuple[str, ...]) -> bool:
    return all(has_column(columns, col.name, col.qualifier, strict=True)
               for col in expr.columns())


def _remap_by_position(expr: e.Expr, from_cols: tuple[str, ...],
                       to_cols: tuple[str, ...],
                       positions: "list[int | None] | None" = None) -> e.Expr:
    """Rewrite column refs positionally from one layout to another.

    Column ``i`` of ``from_cols`` becomes ``to_cols[positions[i]]`` (or
    ``to_cols[i]``): pushing a filter into a set-op branch or below a pick
    projection, or hoisting a join's pick projections above it.  A column
    without a position, or a spelling that would resolve elsewhere in
    ``to_cols``, raises :class:`PlanError`.
    """
    def remap(col: e.Col) -> e.Col:
        idx = resolve_column(from_cols, col.name, col.qualifier, strict=True)
        if positions is not None:
            idx = positions[idx]
            if idx is None:
                raise PlanError(f"column {col.qualified()} is not a pick")
        qualifier, _, name = to_cols[idx].rpartition(".")
        new = e.Col(name if qualifier else to_cols[idx], qualifier or None)
        if resolve_column(to_cols, new.name, new.qualifier, strict=True) != idx:
            raise PlanError(f"column {to_cols[idx]!r} is ambiguous in {to_cols}")
        return new

    return e.map_columns(expr, remap)


def push_down_filters(plan: Plan) -> Plan:
    children = [push_down_filters(c) for c in plan.children()]
    plan = plan.with_children(children)
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
        # A conjunct that reads only column picks, named or positional,
        # moves below them, respelled by position onto the input.
        positions = [column_position(x, target.input.columns)
                     for x in target.exprs]
        pushable: list[e.Expr] = []
        kept: list[e.Expr] = []
        for conjunct in conjuncts:
            try:
                pushable.append(_remap_by_position(
                    conjunct, target.names, target.input.columns, positions))
            except (PlanError, e.ExprError):
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

def _key_pair(conjunct: e.Expr, left: tuple[str, ...], right: tuple[str, ...]
              ) -> tuple[str, str] | None:
    """``(left column, right column)`` of an equality between the sides."""
    if not (isinstance(conjunct, e.Comparison)
            and conjunct.op in ("=", e.NOT_DISTINCT)):
        return None
    for a, b in ((conjunct.left, conjunct.right),
                 (conjunct.right, conjunct.left)):
        if isinstance(a, e.Col) and isinstance(b, e.Col) \
                and has_column(left, a.name, a.qualifier, strict=True) \
                and has_column(right, b.name, b.qualifier, strict=True):
            return (left[resolve_column(left, a.name, a.qualifier, strict=True)],
                    right[resolve_column(right, b.name, b.qualifier,
                                         strict=True)])
    return None


def promote_hash_keys(plan: Plan) -> Plan:
    children = [promote_hash_keys(c) for c in plan.children()]
    plan = plan.with_children(children)
    if not (isinstance(plan, JoinP) and plan.residual is not None):
        return plan
    left_keys = list(plan.left_keys)
    right_keys = list(plan.right_keys)
    residual: list[e.Expr] = []
    # All keys of a join share one comparison: ``=`` (NULL never matches)
    # or IS NOT DISTINCT FROM (``null_matches``).  A keyless join takes the
    # comparison of the first equality it promotes; an equality of the other
    # kind stays residual.
    null_matches = plan.null_matches
    for conjunct in e.conjuncts(plan.residual):
        pair = _key_pair(conjunct, plan.left.columns, plan.right.columns)
        if pair is None or (left_keys and (conjunct.op == e.NOT_DISTINCT)
                            != null_matches):
            residual.append(conjunct)
            continue
        null_matches = conjunct.op == e.NOT_DISTINCT
        left_keys.append(pair[0])
        right_keys.append(pair[1])
    kind = plan.kind
    if kind == "cross" and (left_keys or residual):
        kind = "inner"
    return JoinP(plan.left, plan.right, kind, tuple(left_keys), tuple(right_keys),
                 e.conjunction(residual) if residual else None, null_matches)


# ---------------------------------------------------------------------------
# Join planning: projection hoisting and cost-based greedy join reordering
# (estimation lives in repro.engine.stats)
# ---------------------------------------------------------------------------

def _pick_positions(plan: Plan) -> list[int] | None:
    """Input positions of a pure column-pick projection, else ``None``."""
    if not isinstance(plan, ProjectP):
        return None
    positions = [column_position(x, plan.input.columns) for x in plan.exprs]
    return None if None in positions else positions


def _key_spelling(key: str, columns: tuple[str, ...], positions: list[int],
                  inner: tuple[str, ...]) -> str:
    """Respell a join key over a pick projection onto the projection's input."""
    position = positions[resolve_column(columns, key)]
    if resolve_column(inner, inner[position]) != position:
        raise PlanError(f"column {inner[position]!r} is ambiguous in {inner}")
    return inner[position]


def hoist_projections(plan: Plan) -> Plan:
    """Bubble pure column-pick projections above inner/cross joins and filters.

    Lowering emits pick projections between joins (and so does a join
    tree's restoring projection); each one would split a join tree in two
    for :func:`reorder_joins`.  Hoisting remaps join keys and residuals
    positionally onto the projection's input and stacks the picks into one
    projection above the tree; a filter passes a pick by the pushdown rule.
    Any remapping ambiguity leaves the node as it is (slower, correct).
    """
    children = plan.children()
    hoisted = [hoist_projections(child) for child in children]
    if any(new is not old for new, old in zip(hoisted, children)):
        plan = plan.with_children(hoisted)
    if isinstance(plan, FilterP) and isinstance(plan.input, ProjectP):
        return _push_filter(plan.input, plan.condition)
    if isinstance(plan, ProjectP):
        outer = _pick_positions(plan)
        inner = _pick_positions(plan.input)
        if outer is None or inner is None:
            return plan
        assert isinstance(plan.input, ProjectP)
        return ProjectP(plan.input.input,
                        tuple(PositionCol(inner[p]) for p in outer), plan.names)
    if not (isinstance(plan, JoinP) and plan.kind in ("inner", "cross")):
        return plan
    left_positions = _pick_positions(plan.left)
    right_positions = _pick_positions(plan.right)
    if left_positions is None and right_positions is None:
        return plan
    left = plan.left.input if left_positions is not None else plan.left
    right = plan.right.input if right_positions is not None else plan.right
    if left_positions is None:
        left_positions = list(range(len(left.columns)))
    if right_positions is None:
        right_positions = list(range(len(right.columns)))
    width = len(left.columns)
    positions = left_positions + [width + p for p in right_positions]
    try:
        left_keys = tuple(_key_spelling(key, plan.left.columns,
                                        left_positions, left.columns)
                          for key in plan.left_keys)
        right_keys = tuple(_key_spelling(key, plan.right.columns,
                                         right_positions, right.columns)
                           for key in plan.right_keys)
        residual = plan.residual
        if residual is not None:
            residual = _remap_by_position(residual, plan.columns,
                                          left.columns + right.columns,
                                          positions)
    except PlanError:
        return plan
    joined = JoinP(left, right, plan.kind, left_keys, right_keys, residual,
                   plan.null_matches)
    return ProjectP(joined, tuple(PositionCol(p) for p in positions),
                    plan.columns)


def _substitute(plan: Plan, old: Plan, new: Plan) -> Plan:
    """Rebuild ``plan`` with every subtree equal to ``old`` replaced by ``new``."""
    if plan == old:
        return new
    children = [_substitute(c, old, new) for c in plan.children()]
    return plan.with_children(children)


def _flatten_join_tree(plan: Plan, protected: tuple[Plan, ...] = ()
                       ) -> tuple[list[Plan], list[e.Expr]] | None:
    """Flatten a maximal inner/cross join tree into leaves and conjuncts."""
    if not (isinstance(plan, JoinP) and plan.kind in ("inner", "cross")):
        return None
    leaves: list[Plan] = []
    conjuncts: list[e.Expr] = []

    def visit(node: Plan) -> None:
        if any(node == p for p in protected):
            leaves.append(node)
        elif isinstance(node, JoinP) and node.kind in ("inner", "cross"):
            visit(node.left)
            visit(node.right)
            op = e.NOT_DISTINCT if node.null_matches else "="
            for lk, rk in zip(node.left_keys, node.right_keys):
                conjuncts.append(e.Comparison(e.Col(lk), op, e.Col(rk)))
            if node.residual is not None:
                conjuncts.extend(e.conjuncts(node.residual))
        else:
            leaves.append(node)

    visit(plan)
    return leaves, conjuncts


def reorder_joins(plan: Plan, db: Database,
                  protected: tuple[Plan, ...] = (),
                  *, stats: StatsCatalog | None = None) -> Plan:
    """Order each maximal inner/cross join tree greedily by estimated cost.

    A tree is flattened at its root and planned once; only its leaves are
    planned recursively, so no inner reorder splits it.
    """
    if stats is None:
        stats = StatsCatalog(db)
    if any(plan == p for p in protected):
        return plan
    if isinstance(plan, JoinP) and plan.kind in ("semi", "anti"):
        # Dependent joins embed their left plan inside the right side; keep
        # that embedded copy atomic while reordering around it, then swap in
        # the reordered left so both sides stay structurally shared (the
        # compiler's shared result slots depend on it).
        left = reorder_joins(plan.left, db, protected, stats=stats)
        right = reorder_joins(plan.right, db, protected + (plan.left,),
                              stats=stats)
        if left != plan.left:
            right = _substitute(right, plan.left, left)
        return JoinP(left, right, plan.kind, plan.left_keys, plan.right_keys,
                     plan.residual, plan.null_matches)
    flat = _flatten_join_tree(plan, protected)
    lone = flat is not None and len(flat[0]) == 2
    if flat is None or (lone and not plan.left_keys) or (not lone and len(
            {c.lower() for c in plan.columns}) != len(plan.columns)):
        # Not a join tree, a lone product, or a larger tree with duplicated
        # names (conjuncts could not be placed by name): plan the parts.
        rebuilt = plan.with_children(
            [reorder_joins(c, db, protected, stats=stats)
             for c in plan.children()])
        picks = _pick_positions(rebuilt)
        if picks is not None:
            # A pick over a lone join seats it, reading the swapped join's
            # positions: no projection could restore duplicated names.
            join = rebuilt.children()[0]
            below = _flatten_join_tree(join, protected)
            if isinstance(join, JoinP) and below is not None \
                    and len(below[0]) == 2 \
                    and not any(join == p for p in protected):
                return _seat_build(join, picks, rebuilt.columns, stats) \
                    or rebuilt
        return rebuilt
    leaves = [reorder_joins(leaf, db, protected, stats=stats)
              for leaf in flat[0]]
    if lone:  # only seated; duplicated names by the pick above it
        joined = plan.with_children(leaves)
        assert isinstance(joined, JoinP)
        unique = len({c.lower() for c in plan.columns}) == len(plan.columns)
        return (_seat_build(joined, range(len(plan.columns)), plan.columns,
                            stats) if unique else None) or joined
    pending = flat[1]
    order = [min(leaves, key=lambda leaf: stats.estimate(leaf))]
    current = order[0]

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

    while len(order) < len(leaves):
        best = None
        best_trial = None
        best_cost = None
        for leaf in leaves:
            if any(leaf is chosen for chosen in order):
                continue
            trial = trial_join(leaf)
            cost = (stats.estimate(trial), stats.estimate(leaf))
            if best_cost is None or cost < best_cost:
                best, best_trial, best_cost = leaf, trial, cost
        assert best is not None and best_trial is not None
        order.append(best)
        current = best_trial
        _, pending = attachable(current.columns)
    if pending:
        current = FilterP(current, e.conjunction(pending))

    # One positional projection restores the tree's column order.
    offsets: dict[int, int] = {}
    width = 0
    for leaf in order:
        offsets[id(leaf)] = width
        width += len(leaf.columns)
    positions = [offsets[id(leaf)] + i
                 for leaf in leaves for i in range(len(leaf.columns))]
    if positions == list(range(width)):
        return current
    return ProjectP(current, tuple(PositionCol(p) for p in positions),
                    plan.columns)


def _seat_build(join: JoinP, picks: Iterable[int], names: tuple[str, ...],
                stats: StatsCatalog) -> "ProjectP | None":
    """The columns ``picks`` of the lone hash join ``join``, as ``names``,
    read off ``join`` with its children and keys swapped to seat the
    cheaper build (:meth:`StatsCatalog.build_price`) on the right; ``None``
    for a tie or a residual (read by name): the written order stays."""
    if join.residual is not None or not join.left_keys \
            or not stats.build_price(join.left) < stats.build_price(join.right):
        return None
    width = len(join.right.columns)
    positions = [*range(width, width + len(join.left.columns)), *range(width)]
    swapped = JoinP(join.right, join.left, join.kind, join.right_keys,
                    join.left_keys, None, join.null_matches)
    return ProjectP(swapped, tuple(PositionCol(positions[p]) for p in picks),
                    names)


# ---------------------------------------------------------------------------
# Common subexpression elimination
# ---------------------------------------------------------------------------

def eliminate_common_subexpressions(plan: Plan) -> Plan:
    """Intern structurally identical subtrees to a single shared object."""
    interned: dict[Plan, Plan] = {}

    def visit(node: Plan) -> Plan:
        children = [visit(c) for c in node.children()]
        rebuilt = node.with_children(children)
        return interned.setdefault(rebuilt, rebuilt)

    return visit(plan)


def common_subplan_count(plan: Plan) -> int:
    """How many subtree evaluations CSE saves (for benchmarks/diagnostics)."""
    counts: dict[Plan, int] = {}
    for node in plan.walk():
        counts[node] = counts.get(node, 0) + 1
    return sum(c - 1 for c in counts.values())
