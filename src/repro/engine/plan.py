"""The logical plan IR shared by all five query-language frontends.

Every frontend (SQL, RA, TRC, DRC, Datalog) compiles — via
:mod:`repro.engine.lower` — into the small operator algebra defined here;
:mod:`repro.engine.optimize` rewrites plans and :mod:`repro.engine.execute`
runs them with hash-based physical operators.  This is the raco-style
logical→physical split: the per-language evaluators remain the semantic
oracles, the plan IR is the single hot path.

Plans are immutable, hashable trees.  Hashability is load-bearing: the
compiler shares one closure, and one result per execution, among the equal
subplans of a plan *by plan value*, which is what makes common
subexpression elimination (and the dependent-join compilation of
correlated subqueries, which duplicates the outer plan structurally) cheap
at runtime.

Every node exposes ``columns``, its ordered output column names.  Scalar and
boolean expressions attached to nodes reuse :mod:`repro.expr.ast`; column
references are resolved against ``columns`` with the same qualified /
suffix-matching rules as :func:`repro.ra.ast.resolve_attribute`, but case-
insensitively (SQL identifiers and calculus attributes both compare that
way).  What the executors resolve on every run — a join's key positions, a
projection's column picks, a filter's compared columns, a join's output
columns — is resolved once and kept on the node (``cached_property``), like
its hash: a cached template's nodes are executed request after request.
Such a property depends on the node's columns only, never on a constant,
so the copy :func:`repro.engine.bind.bind_node` makes of a node with its
constants bound takes the template node's values.  A plan's compiled
programs (:func:`repro.engine.execute.compile_rows`,
:func:`repro.engine.vectorized.compile_batches`) are kept on it the same
way; none of it is pickled with the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from repro.expr.ast import (
    BoolConst,
    Col,
    Comparison,
    Const,
    Expr,
    FuncCall,
    IsNull,
    conjuncts,
)


class PlanError(Exception):
    """Raised for malformed plans or unresolvable column references."""


class DeltaUnavailable(PlanError):
    """A delta scan's window is no longer covered by the relation's log.

    Raised at execution time when a :class:`DeltaScanP` anchors below the
    relation's bounded delta-log floor; the view-maintenance layer catches it
    and rebuilds the view from scratch instead.
    """


class Plan:
    """Base class of logical plan nodes."""

    columns: tuple[str, ...]

    def children(self) -> tuple["Plan", ...]:
        return ()

    def walk(self) -> Iterator["Plan"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def operator_count(self) -> int:
        return sum(1 for _ in self.walk())

    @cached_property
    def base_relations(self) -> tuple[str, ...]:
        """Lower-cased names of the relations the plan's scans and windows
        read, in first-occurrence order.  A fixpoint's rule bodies scan its
        working predicates, so their names are here too, though no
        database holds them."""
        seen: dict[str, None] = {}
        for node in self.walk():
            if isinstance(node, (ScanP, DeltaScanP)):
                seen.setdefault(node.relation.lower())
        return tuple(seen)

    def __reduce__(self) -> "tuple[type, tuple]":
        """Pickle a node by its fields only: what this process kept on it
        (its hash, resolved positions, compiled programs, binders) is
        rebuilt wherever it is unpickled."""
        return type(self), tuple(map(self.__getattribute__,
                                     self.__dataclass_fields__))

    def with_children(self, children: Sequence["Plan"]) -> "Plan":
        """This node over ``children``, given in :meth:`children` order."""
        if not children:
            return self
        pending = iter(children)
        return type(self)(*[  # type: ignore[call-arg]
            next(pending) if isinstance(part, Plan) else part
            for part in map(self.__getattribute__, self.__dataclass_fields__)])


@dataclass(frozen=True)
class ScanP(Plan):
    """Read one base relation, exposing its rows under ``columns``."""

    relation: str
    columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))


#: Window modes understood by :class:`DeltaScanP`.
DELTA_SCAN_MODES = ("delta", "asof")


@dataclass(frozen=True)
class DeltaScanP(Plan):
    """Read one *window* of a base relation relative to a version anchor.

    The storage layer only ever appends, so both windows are slices of the
    bag:

    * ``mode="delta"`` — the rows appended after the relation's version was
      ``since`` (the Δ side of an insert-delta plan);
    * ``mode="asof"`` — the rows as of version ``since`` (the "old state"
      side, a prefix of the bag).

    In a view's delta terms ``since`` is a slot, ``Const(None, slot=i)``,
    bound to the view's version anchors at execution like any slotted
    constant (:mod:`repro.engine.bind`).  Executing an unbound window is a
    :class:`PlanError`; executing an anchor the relation's bounded delta
    log no longer covers raises :class:`DeltaUnavailable` (the view
    rebuilds).
    """

    relation: str
    columns: tuple[str, ...] = ()
    since: "int | Const | None" = None
    mode: str = "delta"

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.mode not in DELTA_SCAN_MODES:
            raise PlanError(f"unknown delta-scan mode {self.mode!r}")
        since = self.since
        if isinstance(since, Const) and since == Const(since.value):
            # A plain constant (a bound slot) is the version it holds, so
            # a window's ``since`` is a version, a slot, or ``None``.
            object.__setattr__(self, "since", since.value)

    @property
    def version(self) -> int | None:
        """The version the window is anchored at; ``None`` while unbound."""
        return self.since if isinstance(self.since, int) else None


@dataclass(frozen=True)
class FilterP(Plan):
    """Keep rows whose predicate evaluates to TRUE (3-valued logic)."""

    input: Plan
    condition: Expr = field(default_factory=lambda: BoolConst(True))

    @property
    def columns(self) -> tuple[str, ...]:
        return self.input.columns

    @cached_property
    def operand_positions(self) -> dict[Expr, int | None]:
        """The input position of each column a conjunct compares or tests
        for NULL: what the index lookup, the selection kernels and the
        row test read."""
        columns = self.input.columns
        return {x: column_position(x, columns)
                for c in conjuncts(self.condition)
                for x in ((c.left, c.right) if isinstance(c, Comparison)
                          else (c.operand,) if isinstance(c, IsNull) else ())
                if isinstance(x, (Col, PositionCol))}

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)


class PositionCol(Expr):
    """Fetch an input column by position: the column picks of a
    :class:`ProjectP` that lowering and join planning emit."""

    __slots__ = ("position",)

    def __init__(self, position: int) -> None:
        self.position = position

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PositionCol) and other.position == self.position

    def __hash__(self) -> int:
        return hash(("PositionCol", self.position))

    def __repr__(self) -> str:
        return f"PositionCol({self.position})"


@dataclass(frozen=True)
class ProjectP(Plan):
    """Evaluate one expression per output column (projection + rename)."""

    input: Plan
    exprs: tuple[Expr, ...] = ()
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "exprs", tuple(self.exprs))
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.exprs) != len(self.names):
            raise PlanError("projection exprs and names must have the same length")
        if not self.exprs:
            raise PlanError("projection needs at least one column")

    @property
    def columns(self) -> tuple[str, ...]:
        return self.names

    @cached_property
    def pick_positions(self) -> tuple[int | None, ...]:
        """Per expression, the input position a column pick reads; ``None``
        for a computed expression or a column that does not resolve (its
        compiled closure raises)."""
        columns = self.input.columns
        return tuple(column_position(x, columns) for x in self.exprs)

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)


@dataclass(frozen=True)
class DistinctP(Plan):
    """Hash-based duplicate elimination."""

    input: Plan

    @property
    def columns(self) -> tuple[str, ...]:
        return self.input.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)


#: Join kinds understood by the executor.
JOIN_KINDS = ("inner", "cross", "semi", "anti")


@dataclass(frozen=True)
class JoinP(Plan):
    """A join; with equi-keys it executes as a hash join.

    ``kind``:

    * ``inner`` / ``cross`` — output is ``left.columns + right.columns``;
    * ``semi`` — left rows with at least one match on the right;
    * ``anti`` — left rows with no match on the right.

    ``left_keys`` / ``right_keys`` name equi-join columns (hashed).  The
    optional ``residual`` condition is evaluated over the concatenated row.
    All keys of a join share one comparison, ``null_matches``: ``False``
    is ``=`` (NULL never matches); ``True`` is ``IS NOT DISTINCT FROM``,
    plain Python equality (natural, calculus variable and dependent joins,
    mirroring the reference evaluators).
    """

    left: Plan
    right: Plan
    kind: str = "inner"
    left_keys: tuple[str, ...] = ()
    right_keys: tuple[str, ...] = ()
    residual: Expr | None = None
    null_matches: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_keys", tuple(self.left_keys))
        object.__setattr__(self, "right_keys", tuple(self.right_keys))
        if self.kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {self.kind!r}")
        if len(self.left_keys) != len(self.right_keys):
            raise PlanError("left and right join keys must have the same length")

    @cached_property
    def columns(self) -> tuple[str, ...]:  # type: ignore[override]
        if self.kind in ("semi", "anti"):
            return self.left.columns
        return self.left.columns + self.right.columns

    @cached_property
    def key_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions of ``left_keys`` in the left input's columns and of
        ``right_keys`` in the right's."""
        return (tuple(resolve_column(self.left.columns, k)
                      for k in self.left_keys),
                tuple(resolve_column(self.right.columns, k)
                      for k in self.right_keys))

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class SetOpP(Plan):
    """Union / intersection / difference, positionally, with bag or set semantics.

    ``distinct=False`` gives the SQL ``ALL`` variants (bag union,
    multiplicity-respecting intersect/except); ``distinct=True`` the set
    variants.  Output columns are the left input's.
    """

    op: str
    left: Plan
    right: Plan
    distinct: bool = True

    def __post_init__(self) -> None:
        if self.op not in ("union", "intersect", "except"):
            raise PlanError(f"unknown set operation {self.op!r}")
        if len(self.left.columns) != len(self.right.columns):
            raise PlanError(
                f"{self.op}: operands have different arities "
                f"({len(self.left.columns)} vs {len(self.right.columns)})"
            )

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class AggregateP(Plan):
    """Group by ``group_exprs`` and compute ``aggregates`` per group.

    The output row is the group's *first input row* (representative values
    for every input column) followed by one value per aggregate; projections
    above pick out the columns a query actually asked for.  With no grouping
    expressions and empty input, one all-NULL representative row is emitted
    (``COUNT`` → 0, other aggregates → NULL), matching SQL.
    """

    input: Plan
    group_exprs: tuple[Expr, ...] = ()
    aggregates: tuple[tuple[FuncCall, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_exprs", tuple(self.group_exprs))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))

    @property
    def columns(self) -> tuple[str, ...]:
        return self.input.columns + tuple(name for _call, name in self.aggregates)

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)


@dataclass(frozen=True)
class DivideP(Plan):
    """Relational division: left ÷ right (set semantics)."""

    left: Plan
    right: Plan

    def __post_init__(self) -> None:
        right_names = {c.lower() for c in self.right.columns}
        kept = tuple(c for c in self.left.columns if c.lower() not in right_names)
        if not kept:
            raise PlanError("division result would have an empty schema")
        missing = right_names - {c.lower() for c in self.left.columns}
        if missing:
            raise PlanError(f"division: divisor columns {sorted(missing)} not in dividend")

    @property
    def columns(self) -> tuple[str, ...]:
        right_names = {c.lower() for c in self.right.columns}
        return tuple(c for c in self.left.columns if c.lower() not in right_names)

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class SortLimitP(Plan):
    """ORDER BY (over the input's own columns) and/or LIMIT."""

    input: Plan
    keys: tuple[tuple[Expr, bool], ...] = ()  # (expression, ascending)
    limit: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(tuple(k) for k in self.keys))

    @property
    def columns(self) -> tuple[str, ...]:
        return self.input.columns

    def children(self) -> tuple[Plan, ...]:
        return (self.input,)


@dataclass(frozen=True)
class FixpointP(Plan):
    """The least fixpoint of one recursive Datalog stratum, read at its
    ``predicate`` under ``columns``.

    ``rules`` pair a head predicate with a rule body, ``variants`` with a
    semi-naive delta variant of one (a positive occurrence of a stratum
    predicate reading its delta), ``facts`` with a row of constants.  The
    bodies read each stratum predicate as a *working relation* of its name,
    held only by the loop (:func:`repro.engine.execute.fixpoint_rows`).
    They are the node's children, so every rewrite reaches them.  A
    non-recursive predicate that carries facts is a fixpoint without
    variants.
    """

    predicate: str
    columns: tuple[str, ...] = ()
    rules: tuple[tuple[str, Plan], ...] = ()
    variants: tuple[tuple[str, Plan], ...] = ()
    facts: tuple[tuple[str, tuple[Const, ...]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))

    def arities(self) -> dict[str, int]:
        """The arity of each stratum predicate (its working relation)."""
        out = {head: len(row) for head, row in self.facts}
        out.update((head, len(plan.columns)) for head, plan in self.rules)
        return out

    def children(self) -> tuple[Plan, ...]:
        return tuple(plan for _head, plan in self.rules + self.variants)

    def with_children(self, plans: Sequence[Plan]) -> "FixpointP":
        heads = [head for head, _plan in self.rules + self.variants]
        pairs = tuple(zip(heads, plans))
        cut = len(self.rules)
        return FixpointP(self.predicate, self.columns, pairs[:cut],
                         pairs[cut:], self.facts)


# ---------------------------------------------------------------------------
# Column resolution
# ---------------------------------------------------------------------------

def _install_cached_hashes() -> None:
    """Memoize each plan node's hash on first use.

    Plans are immutable trees and the compiler shares subplans *by plan
    value*, so every node lookup re-hashes its whole subtree — O(size) per
    node, O(size²) per compile for deep plans.  Caching the hash on the
    instance makes those lookups O(1) after the first touch, and a plan
    looked up again (a cached template's programs, a view's delta terms)
    never hashes twice; equality is untouched (still field-based).
    """
    for cls in (ScanP, DeltaScanP, FilterP, ProjectP, DistinctP, JoinP,
                SetOpP, AggregateP, DivideP, SortLimitP, FixpointP):
        generated = cls.__hash__

        def cached(self, _generated=generated):  # type: ignore[no-untyped-def]
            try:
                return object.__getattribute__(self, "_cached_hash")
            except AttributeError:
                value = _generated(self)
                object.__setattr__(self, "_cached_hash", value)
                return value

        cls.__hash__ = cached  # type: ignore[method-assign]


_install_cached_hashes()


def resolve_column(columns: Sequence[str], name: str, qualifier: str | None = None,
                   *, strict: bool = False) -> int:
    """Resolve a possibly-qualified column reference to a position.

    Resolution order mirrors :func:`repro.ra.ast.resolve_attribute` (so RA
    conditions behave identically on the engine and on the reference
    interpreter), case-insensitively:

    1. a column spelled (or suffixed) ``qualifier.name``;
    2. a column spelled exactly ``name``;
    3. a unique column suffixed ``.name``.

    With ``strict=True`` a qualified reference never falls back to rules 2–3:
    the optimizer uses strict mode to decide which side of a join a predicate
    belongs to (where the lenient fallback would mis-place it), while the
    executor compiles with the lenient, reference-compatible rules.
    """
    lowered = [c.lower() for c in columns]
    if qualifier:
        qualified = f"{qualifier}.{name}".lower()
        for i, c in enumerate(lowered):
            if c == qualified:
                return i
        suffix_hits = [i for i, c in enumerate(lowered) if c.endswith(qualified)]
        if len(suffix_hits) == 1:
            return suffix_hits[0]
        if strict:
            raise PlanError(
                f"column {qualifier}.{name} not found in {tuple(columns)}"
            )
    target = name.lower()
    for i, c in enumerate(lowered):
        if c == target:
            return i
    suffix = f".{target}"
    suffix_hits = [i for i, c in enumerate(lowered) if c.endswith(suffix)]
    if len(suffix_hits) == 1:
        return suffix_hits[0]
    if len(suffix_hits) > 1:
        raise PlanError(f"ambiguous column reference {name!r} in {tuple(columns)}")
    raise PlanError(
        f"column {qualifier + '.' if qualifier else ''}{name} not found in {tuple(columns)}"
    )


def column_position(expr: Expr, columns: Sequence[str]) -> int | None:
    """The position a bare column reference reads in ``columns`` (a
    positional pick, or a ``Col`` that resolves); ``None`` for any other
    expression or a column that does not resolve."""
    if isinstance(expr, PositionCol):
        return expr.position
    if isinstance(expr, Col):
        try:
            return resolve_column(columns, expr.name, expr.qualifier)
        except PlanError:
            return None
    return None


def has_column(columns: Sequence[str], name: str, qualifier: str | None = None,
               *, strict: bool = False) -> bool:
    """True iff :func:`resolve_column` would succeed."""
    try:
        resolve_column(columns, name, qualifier, strict=strict)
        return True
    except PlanError:
        return False


def explain(plan: Plan, *, indent: int = 0) -> str:
    """A compact, indented rendering of a plan tree (for debugging/benchmarks)."""
    pad = "  " * indent
    label = type(plan).__name__.removesuffix("P")
    details = ""
    if isinstance(plan, ScanP):
        details = f" {plan.relation}"
    elif isinstance(plan, DeltaScanP):
        from repro.engine.bind import slot_of

        slot = slot_of(plan.since)
        anchor = plan.since if slot is None else f"${slot}"
        details = f" {plan.relation} [{plan.mode} @ {anchor}]"
    elif isinstance(plan, JoinP):
        keys = ", ".join(f"{l}={r}" for l, r in zip(plan.left_keys, plan.right_keys))
        details = f" [{plan.kind}{': ' + keys if keys else ''}]"
    elif isinstance(plan, SetOpP):
        details = f" [{plan.op}{'' if plan.distinct else ' all'}]"
    elif isinstance(plan, ProjectP):
        details = f" -> ({', '.join(plan.names)})"
    elif isinstance(plan, FixpointP):
        details = (f" {plan.predicate} [{len(plan.rules)} rules, "
                   f"{len(plan.variants)} delta variants, "
                   f"{len(plan.facts)} facts]")
    lines = [f"{pad}{label}{details}"]
    for child in plan.children():
        lines.append(explain(child, indent=indent + 1))
    return "\n".join(lines)
