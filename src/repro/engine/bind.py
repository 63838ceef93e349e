"""Compile once, bind many: a query's *shape*, its literal slots, and binding.

The serving loop sees the same few query shapes with fresh literals, so the
pipeline caches one optimized plan per shape and executes it with each
request's literals.  A materialized view does the same with time: it keeps
its delta terms and executes them on every refresh with the view's version
anchors, which the terms' :class:`~repro.engine.plan.DeltaScanP` windows
hold as slots (:mod:`repro.engine.delta`).  Four pieces, all
language-agnostic:

* :func:`scan_literals` blanks the number and single-quoted string literals
  of a query text to typed holes (int / float / string — ``10`` and
  ``10.00`` are different shapes) and returns the shape with the literal
  values, in text order.
* :func:`attach_slots` finds out which :class:`~repro.expr.ast.Const` leaves
  of a lowered plan each literal ended up in — by *provenance*, never by
  matching values.  :func:`discover_slots` lowers the same shape filled
  with :func:`sentinel_text` beside the real text; the two results are
  walked in lockstep
  and must differ exactly at ``Const`` leaves whose two values are (literal
  *i*, sentinel *i*).  Those leaves become ``Const(value, slot=i)``.  Any
  other difference — a ``LIMIT``, a ``LIKE`` pattern, a literal the scanner
  lifted from a comment, a value some parser transformed — *refuses* the
  shape (``None``), and the caller serves it under its exact text.
* A plan with slots is executed as it is, with the values as the
  executor's ``params``, on every backend.  Both executors compile a
  template once, to a row program or a columnar one
  (:class:`repro.engine.execute._Compiler`), and
  read a slot in a lookup key or a column-op-constant filter conjunct from
  the values directly (:func:`param_reader`), and re-makes any other
  slotted conjunct (an ``OR``, ``IN`` or ``BETWEEN``) alone per call
  (:func:`expr_binder`).  Anywhere else — a join residual, project exprs,
  aggregate args, sort keys, a fixpoint's facts, a window's anchor — the
  program re-makes the node whose *own* fields hold the slot per call by
  :func:`bind_node`, as a shallow copy with those
  fields bound; its children stay the template's objects, so everything
  cached on them (hashes, column positions, compiled programs) carries
  over from execution to execution.  The operators see plain constants,
  exactly as in a plan that never had slots, and a node whose own fields
  hold no slot is never bound (:func:`holds_slots` decides at compile
  time).
  The scatter-gather backends compile a template once per database layout
  too, and route each call by reading its pinned shard-key slots through
  :func:`param_reader`.
* :func:`bind_plan` binds a whole plan the same way, node by node, giving a
  plan of plain ``Const``s.  Only the cold consumers pay for it, none of
  them an executor: a prepared view's plan, ``run()``'s
  :class:`PipelineResult` plan, and the ``REPRO_VERIFY_PLANS``
  certificates.

This module is the one home of parameter substitution: nothing else under
``repro.engine`` or ``repro.core`` reads a constant's ``slot`` (the
``one-bind`` rule of ``tools/check_invariants.py``).

The scanner only has to be *conservative*: whatever it gets wrong (it knows
no language's comment syntax) shows up as a difference that is not a slot,
and discovery refuses.  What it must get right is that two texts of one
accepted shape tokenize alike in every parser.  That holds because the
literal syntax lives in one place, :data:`repro.syntax.NUMBER` and
:data:`repro.syntax.STRING`, which every language's lexer and the pattern
scanned here are built from (never adjacent to an identifier).  Datalog's
lexer also reads a ``-`` signed number and a double-quoted string, and
neither is a shared literal: the scanner lifts only the digits of ``-5``,
so the sentinel comes back negated and discovery refuses the shape, and it
keeps a double-quoted span in the shape verbatim.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import re
from typing import Any, Callable, Sequence

from repro.expr import ast as e
from repro.engine.plan import Plan
from repro.syntax import NUMBER, QUOTED, STRING

__all__ = ["attach_slots", "bind_node", "bind_plan", "discover_slots",
           "expr_binder", "holds_slots", "param_reader",
           "scan_literals", "sentinel_text", "sentinels_for", "slot_of"]

#: What a text may contain that the scanner must step over as one unit: a
#: single-quoted string, a double-quoted identifier/string (kept verbatim),
#: and a number that does not continue an identifier (``col1``, ``S2``).
_LITERAL_RE = re.compile(rf"{STRING}|{QUOTED}|(?<![A-Za-z_0-9])(?:{NUMBER})")

#: Hole markers.  NUL occurs in no query language here; a text that contains
#: one anyway is simply not scanned (its shape is itself).
_HOLES = {int: "\x00i", float: "\x00f", str: "\x00s"}
_HOLE_RE = re.compile("\x00[ifs]")


def scan_literals(text: str) -> tuple[str, tuple[Any, ...]]:
    """``(shape, literals)`` of one query text.

    ``shape`` is the stripped text with each lifted literal replaced by a
    typed hole; a text without literals is its own shape.  Double-quoted
    spans stay in the shape verbatim.
    """
    text = text.strip()
    if "\x00" in text:
        return text, ()
    literals: list[Any] = []

    def hole(match: "re.Match[str]") -> str:
        token = match.group()
        if token[0] == '"':
            return token
        value: Any
        if token[0] == "'":
            value = token[1:-1].replace("''", "'")
        else:
            value = float(token) if "." in token else int(token)
        literals.append(value)
        return _HOLES[type(value)]

    return _LITERAL_RE.sub(hole, text), tuple(literals)


def sentinels_for(literals: Sequence[Any]) -> tuple[Any, ...]:
    """One probe value per literal, of the literal's own type.

    Pairwise distinct, and shaped to expose a parser that would transform a
    value (case folding, trimming, a missed ``''``): such a shape is refused
    because the probe does not come back as written.
    """
    out: list[Any] = []
    for slot, literal in enumerate(literals):
        if isinstance(literal, str):
            out.append(f" Zq'{slot} ")
        elif isinstance(literal, float):
            out.append(900_000_001.5 + slot)
        else:
            out.append(900_000_001 + slot)
    return tuple(out)


def sentinel_text(shape: str, values: Sequence[Any]) -> str:
    """``shape`` with its holes filled by ``values`` written as literals."""
    pending = iter(values)

    def fill(_match: "re.Match[str]") -> str:
        value = next(pending)
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return repr(value)

    return _HOLE_RE.sub(fill, shape)


# ---------------------------------------------------------------------------
# Walking plans and expressions generically
# ---------------------------------------------------------------------------

_FIELDS: dict[type, "tuple[str, ...] | None"] = {}


def _walked_fields(cls: type) -> "tuple[str, ...] | None":
    """Field names of a node the walkers descend into and may rebuild
    (plan and expression dataclasses), ``None`` for a leaf."""
    try:
        return _FIELDS[cls]
    except KeyError:
        names = None
        if issubclass(cls, (Plan, e.Expr)) and dataclasses.is_dataclass(cls):
            names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELDS[cls] = names
        return names


def _rebuilt(node: Any, parts: list[Any], originals: Sequence[Any]) -> Any:
    """``node`` if no part changed, else a copy built from ``parts``."""
    if all(new is old for new, old in zip(parts, originals)):
        return node
    return tuple(parts) if isinstance(node, tuple) else type(node)(*parts)


class _Refused(Exception):
    """Internal: the two lowerings differ somewhere that is not a slot."""


def attach_slots(real: Any, probe: Any, literals: Sequence[Any],
                 sentinels: Sequence[Any]) -> Any:
    """``real`` with ``Const(value, slot=i)`` where literal *i* landed, or
    ``None`` when the shape must be refused.

    ``real`` and ``probe`` are what lowering made of the text and of its
    :func:`sentinel_text`; every literal has to be found at least once.
    """
    slot_of = {(type(s), s): i for i, s in enumerate(sentinels)}
    seen: set[int] = set()

    def walk(a: Any, b: Any) -> Any:
        cls = type(a)
        if cls is not type(b):
            raise _Refused
        if cls is e.Const:
            slot = slot_of.get((type(b.value), b.value))
            if slot is None:
                if a == b and type(a.value) is type(b.value):
                    return a
                raise _Refused
            literal = literals[slot]
            if type(a.value) is not type(literal) or a.value != literal:
                raise _Refused
            seen.add(slot)
            return e.Const(a.value, slot)
        if isinstance(a, tuple):
            if len(a) != len(b):
                raise _Refused
            return _rebuilt(a, [walk(x, y) for x, y in zip(a, b)], a)
        names = _walked_fields(cls)
        if names is None:
            if a == b:
                return a
            raise _Refused
        originals = [getattr(a, name) for name in names]
        return _rebuilt(a, [walk(x, getattr(b, name))
                            for x, name in zip(originals, names)], originals)

    try:
        slotted = walk(real, probe)
    except _Refused:
        return None
    return slotted if len(seen) == len(literals) else None


def discover_slots(lowered: Any, shape: str, literals: Sequence[Any],
                   lower_text: "Callable[[str], Any]") -> Any:
    """Two-point discovery: ``lowered`` with its literal slots attached, or
    ``None`` to refuse the shape.

    ``lower_text`` parses and lowers a text of the query's language; it is
    given the shape filled with sentinel literals, and whatever it raises —
    any parser's or lowerer's error — means the probe is not this shape with
    other literals, so the shape is refused.
    """
    sentinels = sentinels_for(literals)
    try:
        probe = lower_text(sentinel_text(shape, sentinels))
    except Exception:
        return None
    return attach_slots(lowered, probe, literals, sentinels)


# ---------------------------------------------------------------------------
# Binding a template: one node's own fields, bound per execution
# ---------------------------------------------------------------------------

def expr_binder(part: Any) -> "Callable[[Sequence[Any]], Any] | None":
    """A function of one execution's values that rebuilds ``part`` down to
    its slotted constants, bound to them; ``None`` when ``part`` holds no
    slot outside the plan nodes it contains (a child plan is bound on its
    own).  Only the spine above each slot is rebuilt per call."""
    if type(part) is e.Const:
        slot = part.slot
        return None if slot is None else lambda values: e.Const(values[slot])
    if isinstance(part, Plan):
        return None
    if isinstance(part, tuple):
        parts: Sequence[Any] = part
        make: Callable[[list[Any]], Any] = tuple
    else:
        names = _walked_fields(type(part))
        if names is None:
            return None
        parts = [getattr(part, name) for name in names]
        make = lambda rebuilt: type(part)(*rebuilt)  # noqa: E731
    binders = [expr_binder(x) for x in parts]
    if not any(binders):
        return None
    pairs = list(zip(parts, binders))
    return lambda values: make([x if bind is None else bind(values)
                                for x, bind in pairs])


def _node_binder(node: Plan) -> "Callable[[Sequence[Any]], Plan] | None":
    """How a node is re-made with its own fields (not its children) bound
    through their :func:`expr_binder`, ``None`` when none holds a slot.  The
    copy carries the node's resolved column positions.  Worked out on
    first use and kept on the node, like its hash: a cached template's
    nodes are executed request after request."""
    try:
        return node.__dict__["_binder"]
    except KeyError:
        pass
    parts = [getattr(node, name) for name in _walked_fields(type(node)) or ()]
    binders = [expr_binder(part) for part in parts]
    node_binder = None
    if any(binders):
        pairs = list(zip(parts, binders))
        cls = type(node)
        # What the node resolved against its columns (plan.py's cached
        # properties), never against a constant: the copy's are the same.
        resolved = {name: getattr(node, name)
                    for name, attr in vars(cls).items()
                    if isinstance(attr, functools.cached_property)}

        def node_binder(values: Sequence[Any]) -> Plan:
            copy = cls(*[x if bind is None else bind(values)
                         for x, bind in pairs])
            copy.__dict__.update(resolved)
            return copy

    object.__setattr__(node, "_binder", node_binder)
    return node_binder


def holds_slots(node: Plan) -> bool:
    """Whether one of ``node``'s own fields (not its children) holds a
    slotted constant."""
    return _node_binder(node) is not None


def param_reader(const: Any) -> "Callable[[Sequence[Any]], Any] | None":
    """How a compiled operator reads a template constant's value from one
    call's values; ``None`` for a plain constant (its value is the
    constant's own)."""
    slot = slot_of(const)
    return None if slot is None else operator.itemgetter(slot)


def bind_node(node: Plan, values: Sequence[Any]) -> Plan:
    """``node`` with its own slotted expressions bound to ``values``.

    ``node`` itself when none of its own expressions holds a slot (or there
    are no values), else a shallow copy whose children are still
    ``node``'s: a compiled program runs the copy's operator over the
    template's child results, for one call.
    """
    binder = _node_binder(node) if values else None
    return node if binder is None else binder(values)


def bind_plan(plan: Plan, values: Sequence[Any]) -> Plan:
    """``plan`` with every slotted constant bound to ``values``: each node
    bound as :func:`bind_node` binds it, over its bound children.

    A plan of plain constants, for what keeps or shows a plan rather than
    executing a template: a prepared view, ``run()``'s plan, a
    ``REPRO_VERIFY_PLANS`` certificate.  A subtree
    without slots is the template's own; a subplan shared after CSE is
    bound once.
    """
    memo: dict[int, Plan] = {}

    def walk(node: Plan) -> Plan:
        done = memo.get(id(node))
        if done is None:
            binder = _node_binder(node)
            done = node if binder is None else binder(values)
            children = node.children()
            bound = [walk(child) for child in children]
            if any(new is not old for new, old in zip(bound, children)):
                done = done.with_children(bound)
            memo[id(node)] = done
        return done

    return walk(plan)


def slot_of(const: Any) -> "int | None":
    """The literal number of a template constant; ``None`` for anything
    else (a plain constant, a version, ``None``)."""
    return const.slot if type(const) is e.Const else None
