#!/usr/bin/env python3
"""Repo-specific invariant lint: machine-check the conventions the engine
relies on but no general-purpose linter knows about.

Rules (see tools/README.md for how to add one):

``lock-guarded-cache``
    Shared mutable caches — the entries and byte total of the one cache
    class (``repro.engine.cache.LRUCache``), the optimizer's per-relation
    table profiles (the ``profile_cache`` slot ``repro.engine.stats``
    keeps on each relation), the engine's path counters, the query
    service's materialized-
    view registry (``_views`` / ``_views_by_name``), and the shared-memory
    page publisher's slot table (``_slots``) — may only be mutated
    inside a ``with <their lock>:`` block or the body of an ``if
    <their lock>.acquire(blocking=False):`` try-lock (class ``__init__``
    excepted: the object is not shared yet).

``shm-finalizer``
    Any module creating ``multiprocessing.shared_memory`` segments
    (``SharedMemory(create=True)``) must also register a
    ``weakref.finalize`` hook and call ``.unlink()`` somewhere, so segments
    cannot leak past the owning object's lifetime.

``kernel-fallback``
    Every numpy kernel entry point (module-level ``kernel_*`` function in
    ``repro/engine/kernels.py``) must contain a reachable ``return None``
    decline path — the executor treats ``None`` as "use the pure-Python
    fallback", which is what keeps the numpy-absent CI leg green.

``silent-except``
    Engine/serving code must not swallow exceptions silently: an ``except
    Exception:`` / bare ``except:`` handler whose body is only
    ``pass``/``...`` needs an inline ``#`` comment justifying the swallow
    (or should be narrowed / made to re-raise).

``server-nonblocking``
    Code on the event loop in ``src/repro/server`` never calls a
    ``ServiceAPI`` method (``query``, ``add_rows``, ``stats_snapshot``, …)
    directly — every such call must be routed through
    ``loop.run_in_executor`` (reference the method, don't call it) or
    through the write worker, or the event loop stalls every connection
    behind one query.  On the loop means: an ``async def`` body, any method
    of an asyncio protocol class (``data_received`` and the other
    callbacks are synchronous but run on the loop), and every synchronous
    ``ServingApp`` method one of those references, transitively.
    Synchronous closures defined inside a coroutine are exempt: they are
    the executor-offload idiom.  The methods the loop may
    call are ``identify`` and ``try_hit``, and the rule's second clause
    holds them to that: no function of either name under
    ``src/repro/core`` — nor any function there or in the cache class's
    module it names, transitively — may contain a ``with <lock>:`` or an
    ``.acquire()`` without ``blocking=False``.

``one-lexer``
    Tokenizers are built in one place: ``re.compile`` of a token-rule
    pattern (one with a ``(?P<ws>`` group) anywhere under ``src/repro``
    but ``src/repro/syntax.py`` is a violation — a language hands its
    ``(kind, pattern)`` rules to ``repro.syntax.Lexer`` instead.

``one-access-path``
    The engine reaches a base relation by one rule: a call to
    ``.key_index(`` or ``.held_key_index(`` under ``src/repro/engine``
    outside the access-path functions of ``engine/execute.py``
    (``scan_lookup``, ``join_table``), ``kernels.RelationBuild`` and the
    price's read of what a relation holds (``stats.relation_probe``) is a
    violation, and so is a call to ``.delta_count_since(``, ``.rows_at(``
    or ``.delta_since(`` there outside ``execute.resolve_window``, the one
    function that binds a version window's anchor — an executor asks the
    rule instead of choosing its own path.

``one-operator``
    Each operator has one Python implementation: under ``src/repro/engine``
    outside ``engine/execute.py``, a call to the bare name ``fold`` is a
    violation — an executor calls ``execute``'s operator functions
    (``aggregate_rows``, ``sort_limit_rows``, ``setop_rows``, …) instead of
    writing its own loop around their pieces.

``one-fixpoint``
    Recursion is one plan operator: under ``src/repro``, a reference to
    ``DELTA_SUFFIX`` (an imported name, a bare name or an attribute) or a
    string literal containing ``"@delta"`` (docstrings aside) outside
    ``engine/lower.py``, ``engine/execute.py`` and ``engine/stats.py`` is a
    violation — only the lowering that writes a fixpoint's delta variants,
    the loop that fills them and the statistics that estimate them name a
    working delta relation.

``one-bind``
    Parameter substitution has one home: under ``src/repro/engine`` and
    ``src/repro/core``, reading a ``.slot`` attribute (a template
    constant's literal number) outside ``engine/bind.py`` is a violation —
    executors reach a plan's parameters through ``bind.bind_node`` (and the
    compiler through ``bind.param_reader`` / ``bind.expr_binder``), the
    cold consumers through ``bind.bind_plan``.  An executor module
    (``engine/execute.py``, ``vectorized.py``, ``sharded.py``,
    ``process.py``) calling ``bind_plan`` is a violation too: a backend
    runs the cached template with its ``params``, never a bound copy.
    Under ``src/repro`` so is a ``replace(…, since=…)`` call: a view's
    delta windows take their version anchors as slots, never as a rebuilt
    copy of the plan.

``one-expr-rewriter``
    An expression tree is rebuilt in one place: under ``src/repro``
    outside ``expr/ast.py`` and ``expr/parser.py``, a construction of
    ``Between``, ``InList`` or ``Like`` (bare or qualified, as in
    ``e.Like(…)``) is a violation — a rewrite decides what happens at the
    nodes it owns and hands the rest to ``repro.expr.ast.map_children``,
    which rebuilds every composite node over new children.

``no-oracle-imports``
    The five reference interpreters (``repro.{sql,ra,trc,drc,datalog}
    .evaluate``) stay a separate implementation of the semantics the
    engine is checked against: under ``src/repro/engine`` an import of
    one of them is a violation, and anywhere under ``src/repro`` so is an
    import of a ``_``-prefixed name from one of them outside that module.
    A helper both sides need lives in a neutral module
    (``data/relation.py``, ``logic/terms.py``, ``logic/transform.py``,
    ``expr/eval.py``, ``datalog/ast.py``).

``one-join-planner``
    Join shape is decided in one place: under ``src/repro`` outside
    ``engine/optimize.py``, an import of, or a call to, ``reorder_joins``
    or ``hoist_projections`` is a violation — a caller hands its plan to
    ``optimize``, which plans each join tree once.  A package
    ``__init__.py`` may re-export the names, and a function may call
    itself.

``one-pattern-walker``
    A TRC query's pattern is read in one place: under ``src/repro/core``
    and ``src/repro/diagrams`` outside ``core/patterns.py``, a reference (an
    import, a name, an attribute) to ``AttrRef``, the one TRC-only node, is
    a violation, and so is one to the logic nodes ``Atom`` or ``Compare``
    outside the two first-order-logic drawers ``diagrams/peirce_alpha.py``
    and ``diagrams/peirce_beta.py`` — a diagram lays out ``pattern_of``'s
    pattern instead of walking the formula again.

``one-cost-model``
    Every physical choice reads one price: under ``src/repro`` outside
    ``engine/stats.py``, a reference to a row-count gate — a name,
    attribute, definition or import ending in ``min_rows``, any case, such
    as ``KERNEL_MIN_ROWS`` — is a violation, and so is an ordering
    comparison of a size (``len(...)``, a batch's ``.length``) with an
    integer literal of three or more or an upper-case name ending in
    ``_ROWS``.  A size is compared with the kernels' crossover by
    ``stats.reaches_kernels``, and a probe's size is
    ``stats.probe_at_stake``, so no module tunes a gate of its own.

Usage: ``python tools/check_invariants.py [--root REPO_ROOT]``.
Exits 0 when clean, 1 with one ``path:line: [rule] message`` per violation.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Rule: lock-guarded-cache
# ---------------------------------------------------------------------------

#: Method names that mutate a dict / OrderedDict / list / set in place.
_MUTATING_METHODS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "move_to_end",
    "pop", "popitem", "remove", "setdefault", "update", "__setitem__",
})

#: (relative path, scope, protected attribute/global names, lock expression).
#: Scope "class:Name" protects ``self.<attr>`` inside that class (lock
#: ``self.<lock>``); scope "module" protects module globals and, for state
#: the module keeps on other objects, ``<anything>.<name>`` slots (lock a
#: global).
CACHE_RULES: tuple[tuple[str, str, frozenset, str], ...] = (
    # The one cache class: every bounded cache is an instance of it.
    ("src/repro/engine/cache.py", "class:LRUCache",
     frozenset({"_data", "_bytes"}), "_lock"),
    # Table profiles live on the relations, below every StatsCatalog; the
    # lock also makes concurrent optimizer calls share one profiling pass.
    ("src/repro/engine/stats.py", "module",
     frozenset({"profile_cache"}), "_PROFILE_LOCK"),
    ("src/repro/engine/cache.py", "module",
     frozenset({"_PATH_TOTALS"}), "_PATH_LOCK"),
    # The view registry: registration, unregistration, and every refresh
    # mutate maintained state that lock-free readers validate by version,
    # so all registry mutations must hold the service write lock.
    ("src/repro/core/service.py", "class:QueryService",
     frozenset({"_views", "_views_by_name"}), "_write_lock"),
    # The page publisher's slot table: which runs are linked.  A slot
    # replaced outside the lock could strand a chain's segments unlinked.
    ("src/repro/data/sharded.py", "class:SharedPagePublisher",
     frozenset({"_slots"}), "_lock"),
)


def _is_self_attr(node: ast.AST, names: frozenset) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr in names)


def _is_trylock(node: ast.AST) -> bool:
    """``<x>.acquire(blocking=False)`` (the keyword form only)."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and any(kw.arg == "blocking"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in node.keywords))


def _is_lock_expr(node: ast.AST, scope: str, lock: str) -> bool:
    if scope == "module":
        return isinstance(node, ast.Name) and node.id == lock
    return _is_self_attr(node, frozenset({lock}))


class _LockChecker(ast.NodeVisitor):
    """Flags mutations of protected names outside their lock's ``with``."""

    def __init__(self, path: str, scope: str, names: frozenset,
                 lock: str) -> None:
        self.path = path
        self.scope = scope
        self.names = names
        self.lock = lock
        self.locked = 0
        self.function_depth = 0
        self.violations: list[Violation] = []

    def _protected(self, node: ast.AST) -> "str | None":
        """The protected name ``node`` refers to, if any."""
        if self.scope == "module":
            if isinstance(node, ast.Name) and node.id in self.names:
                return node.id
            if isinstance(node, ast.Attribute) and node.attr in self.names:
                return node.attr
        elif _is_self_attr(node, self.names):
            return node.attr  # type: ignore[union-attr]
        return None

    def _flag(self, node: ast.AST, name: str, what: str) -> None:
        lock = self.lock if self.scope == "module" else f"self.{self.lock}"
        self.violations.append(Violation(
            self.path, getattr(node, "lineno", 0), "lock-guarded-cache",
            f"{what} of shared cache {name!r} outside `with {lock}:`"))

    def _check_target(self, node: ast.AST, target: ast.AST,
                     what: str) -> None:
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        name = self._protected(base)
        if name is not None and not self.locked:
            # Module-level initialization (the original binding) is allowed;
            # rebinding or item mutation inside a function is not.
            if self.scope == "module" and self.function_depth == 0 \
                    and isinstance(target, ast.Name):
                return
            self._flag(node, name, what)

    def visit_With(self, node: ast.With) -> None:
        held = any(_is_lock_expr(item.context_expr, self.scope, self.lock)
                   for item in node.items)
        if held:
            self.locked += 1
        self.generic_visit(node)
        if held:
            self.locked -= 1

    def visit_If(self, node: ast.If) -> None:
        # The try-lock idiom: `if <lock>.acquire(blocking=False): try: ...
        # finally: <lock>.release()` — the lock is held in the if-body.
        test = node.test
        held = (_is_trylock(test)
                and _is_lock_expr(test.func.value, self.scope, self.lock))
        self.visit(test)
        if held:
            self.locked += 1
        for stmt in node.body:
            self.visit(stmt)
        if held:
            self.locked -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def _visit_function(self, node: ast.AST) -> None:
        if self.scope.startswith("class:") \
                and getattr(node, "name", "") == "__init__":
            return  # construction: the object is not shared yet
        self.function_depth += 1
        self.generic_visit(node)
        self.function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(node, target, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node, node.target, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(node, target, "deletion")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _MUTATING_METHODS:
            name = self._protected(func.value)
            if name is not None and not self.locked:
                self._flag(node, name, f".{func.attr}() call")
        self.generic_visit(node)


def check_lock_guarded_caches(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for rel_path, scope, names, lock in CACHE_RULES:
        path = os.path.join(root, rel_path)
        tree = _parse(path)
        if tree is None:
            continue  # a deleted module fails imports long before this lint
        if scope == "module":
            scopes: Iterable[ast.AST] = (tree,)
        else:
            wanted = scope.split(":", 1)[1]
            scopes = tuple(n for n in ast.walk(tree)
                           if isinstance(n, ast.ClassDef) and n.name == wanted)
            if not scopes:
                violations.append(Violation(
                    rel_path, 0, "lock-guarded-cache",
                    f"configured class {wanted!r} not found"))
        for scope_node in scopes:
            checker = _LockChecker(rel_path, scope, names, lock)
            checker.generic_visit(scope_node)
            violations.extend(checker.violations)
    return violations


# ---------------------------------------------------------------------------
# Rule: shm-finalizer
# ---------------------------------------------------------------------------

def _creates_shared_memory(tree: ast.AST) -> "int | None":
    """Line of the first ``SharedMemory(..., create=True)`` call, if any."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if callee != "SharedMemory":
            continue
        for kw in node.keywords:
            if kw.arg == "create" and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is False):
                return node.lineno
    return None


def check_shm_finalizers(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro",)):
        line = _creates_shared_memory(tree)
        if line is None:
            continue
        has_finalize = any(
            isinstance(n, ast.Attribute) and n.attr == "finalize"
            for n in ast.walk(tree))
        has_unlink = any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "unlink" for n in ast.walk(tree))
        if not has_finalize:
            violations.append(Violation(
                rel_path, line, "shm-finalizer",
                "SharedMemory(create=True) without a weakref.finalize "
                "registration in the module (segments would outlive their "
                "owner on abnormal exit)"))
        if not has_unlink:
            violations.append(Violation(
                rel_path, line, "shm-finalizer",
                "SharedMemory(create=True) without any .unlink() call in "
                "the module (no release path for the OS segment)"))
    return violations


# ---------------------------------------------------------------------------
# Rule: kernel-fallback
# ---------------------------------------------------------------------------

_KERNELS_PATH = "src/repro/engine/kernels.py"


def _has_return_none(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Return):
            value = node.value
            if value is None or (isinstance(value, ast.Constant)
                                 and value.value is None):
                return True
    return False


def check_kernel_fallbacks(root: str) -> list[Violation]:
    tree = _parse(os.path.join(root, _KERNELS_PATH))
    if tree is None:
        return []  # a deleted module fails imports long before this lint
    violations = []
    for node in tree.body:  # module-level entry points only
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name.startswith("kernel_") \
                and not _has_return_none(node):
            violations.append(Violation(
                _KERNELS_PATH, node.lineno, "kernel-fallback",
                f"kernel entry point {node.name}() has no `return None` "
                f"decline path (pure-Python fallback unreachable)"))
    return violations


# ---------------------------------------------------------------------------
# Rule: silent-except
# ---------------------------------------------------------------------------

#: Packages where exception swallowing must be justified.
_SERVING_PACKAGES = ("src/repro/engine", "src/repro/core", "src/repro/data",
                     "src/repro/server")


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [e.id for e in handler.type.elts if isinstance(e, ast.Name)]
    elif isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    return any(name in ("Exception", "BaseException") for name in names)


def _is_silent_body(body: list) -> bool:
    return all(isinstance(stmt, ast.Pass)
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant)
                   and stmt.value.value is ...)
               for stmt in body)


def check_silent_excepts(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for path, rel_path, tree in _walk_sources(root, _SERVING_PACKAGES):
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            lines = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node) or not _is_silent_body(node.body):
                continue
            # A swallow is acceptable only when some line of the handler
            # carries an inline comment saying why.
            start = node.lineno - 1
            end = max(stmt.end_lineno or stmt.lineno for stmt in node.body)
            commented = any("#" in line for line in lines[start:end])
            if not commented:
                violations.append(Violation(
                    rel_path, node.lineno, "silent-except",
                    "broad except handler swallows exceptions with a bare "
                    "pass and no justifying comment"))
    return violations


# ---------------------------------------------------------------------------
# Rule: server-nonblocking
# ---------------------------------------------------------------------------

_SERVER_PACKAGE = ("src/repro/server",)

#: Where the loop-side call graph is followed: the service layer and the
#: cache class its hits read through.
_LOOP_SOURCES = ("src/repro/core", "src/repro/engine/cache.py")

#: The ServiceAPI methods the event loop may call directly.  Every other
#: one may take service locks, run plans or touch storage, and would stall
#: every connection; these are held to never waiting by
#: :func:`check_try_hit_never_waits`.
_LOOP_SAFE_SERVICE_METHODS = ("identify", "try_hit")


def _is_service_rooted(node: ast.AST) -> bool:
    """``service.<m>`` / ``self.service.<m>`` / ``<x>.service.<m>`` receivers."""
    return (isinstance(node, ast.Name) and node.id == "service") \
        or (isinstance(node, ast.Attribute) and node.attr == "service")


#: The asyncio protocol classes whose methods run as loop callbacks.
_LOOP_PROTOCOL_BASES = ("Protocol", "BufferedProtocol")

#: The server's application class: its synchronous methods a protocol
#: callback reaches run on the loop too.
_APP_CLASS = "ServingApp"


class _LoopCallChecker(ast.NodeVisitor):
    """Flags direct blocking service calls in the loop-side body of one
    function, and records the attribute names that body references.

    Nested ``def``/``lambda`` scopes are skipped: a synchronous closure
    defined inside a coroutine is the executor-offload idiom (its body runs
    via ``run_in_executor``, not on the loop).  Nested ``async def`` scopes
    are checked on their own by the outer walk.
    """

    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.violations: list[Violation] = []
        self.attributes: set[str] = set()

    def _skip(self, node: ast.AST) -> None:
        del node  # a nested scope: not this function's loop-side body

    visit_FunctionDef = _skip
    visit_AsyncFunctionDef = _skip
    visit_Lambda = _skip

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr not in _LOOP_SAFE_SERVICE_METHODS \
                and _is_service_rooted(func.value):
            self.violations.append(Violation(
                self.rel_path, node.lineno, "server-nonblocking",
                f"blocking service call .{func.attr}() on the event loop; "
                "route it through run_in_executor or the write worker"))
        self.generic_visit(node)


def _methods(node: ast.ClassDef) -> "list[ast.FunctionDef | ast.AsyncFunctionDef]":
    return [item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]


def check_server_nonblocking(root: str) -> list[Violation]:
    """Every coroutine and every method of an asyncio protocol class under
    the server package runs on the loop, and so does every synchronous
    ``ServingApp`` method one of them references (by attribute name,
    transitively — the safe over-approximation)."""
    pending: list[tuple[str, ast.AST]] = []
    app_methods: dict[str, tuple[str, ast.AST]] = {}
    for _path, rel_path, tree in _walk_sources(root, _SERVER_PACKAGE):
        callbacks = {id(fn) for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) and any(
                         _base_name(b) in _LOOP_PROTOCOL_BASES
                         for b in node.bases)
                     for fn in _methods(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef) or id(node) in callbacks:
                pending.append((rel_path, node))
            elif isinstance(node, ast.ClassDef) and node.name == _APP_CLASS:
                app_methods.update((fn.name, (rel_path, fn))
                                   for fn in _methods(node)
                                   if isinstance(fn, ast.FunctionDef))
    violations: list[Violation] = []
    reached: set[str] = set()
    while pending:
        rel_path, fn = pending.pop()
        checker = _LoopCallChecker(rel_path)
        for stmt in fn.body:  # type: ignore[attr-defined]
            checker.visit(stmt)
        violations.extend(checker.violations)
        for name in sorted(checker.attributes & app_methods.keys() - reached):
            reached.add(name)
            pending.append(app_methods[name])
    return violations


def _names_lock(node: ast.AST) -> bool:
    """``self._lock`` / ``service._write_lock`` / ``_CACHE_LOCK``: by name."""
    name = node.attr if isinstance(node, ast.Attribute) else (
        node.id if isinstance(node, ast.Name) else "")
    return "lock" in name.lower()


def _builtin_container_attrs(trees: Iterable[ast.AST]) -> set[str]:
    """``self.<attr>`` names bound to a dict/list/set display or builtin
    container call: a method call on one is not a call into the repo."""
    containers = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}
    attrs: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            builtin = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in containers)
            if builtin:
                attrs.update(t.attr for t in targets
                             if isinstance(t, ast.Attribute))
    return attrs


def check_try_hit_never_waits(root: str) -> list[Violation]:
    """The clause that earns ``identify`` and ``try_hit`` their place on
    the event loop."""
    sources = list(_walk_sources(root, _LOOP_SOURCES))
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    for _path, rel_path, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((rel_path, node))
    containers = _builtin_container_attrs(tree for _p, _r, tree in sources)

    violations: list[Violation] = []
    # Callees resolve by bare name — an over-approximation (every function
    # of that name under core/ is held to the rule), which is the safe side.
    reached = set(_LOOP_SAFE_SERVICE_METHODS)
    pending = list(_LOOP_SAFE_SERVICE_METHODS)
    while pending:
        for rel_path, fn in defs.get(pending.pop(), ()):
            where = (f"{fn.name}() runs on the event loop (reachable from "
                     f"{'() / '.join(_LOOP_SAFE_SERVICE_METHODS)}())")
            for node in ast.walk(fn):
                if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                        _names_lock(item.context_expr) for item in node.items):
                    violations.append(Violation(
                        rel_path, node.lineno, "server-nonblocking",
                        f"{where} but waits in a `with <lock>:`; try the "
                        "lock with acquire(blocking=False) and decline"))
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "acquire" \
                        and not _is_trylock(node):
                    violations.append(Violation(
                        rel_path, node.lineno, "server-nonblocking",
                        f"{where} but calls .acquire() without "
                        "blocking=False"))
                if isinstance(func, ast.Attribute):
                    receiver = func.value
                    if isinstance(receiver, ast.Attribute) \
                            and receiver.attr in containers:
                        continue  # dict.get and friends, not a repo helper
                    callee = func.attr
                elif isinstance(func, ast.Name):
                    callee = func.id
                else:
                    continue
                if callee in defs and callee not in reached:
                    reached.add(callee)
                    pending.append(callee)
    return violations


# ---------------------------------------------------------------------------
# Rule: one-lexer
# ---------------------------------------------------------------------------

#: The one module that compiles token rules into a tokenizer.
_LEXER_MODULE = "src/repro/syntax.py"


def _compiles_token_rules(node: ast.AST) -> bool:
    """``re.compile(...)`` / ``compile(...)`` whose pattern has a ``(?P<ws>``
    group, written as a literal, an f-string or a concatenation."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name == "compile" and any(
        isinstance(part, ast.Constant) and isinstance(part.value, str)
        and "(?P<ws>" in part.value
        for arg in node.args for part in ast.walk(arg))


def check_one_lexer(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro",)):
        if rel_path.replace(os.sep, "/") == _LEXER_MODULE:
            continue
        for node in ast.walk(tree):
            if _compiles_token_rules(node):
                violations.append(Violation(
                    rel_path, node.lineno, "one-lexer",
                    "token-rule regex compiled outside src/repro/syntax.py; "
                    "pass the (kind, pattern) rules to repro.syntax.Lexer"))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-access-path
# ---------------------------------------------------------------------------

#: Where the engine may read a relation's hash index, and where it may read
#: a version window against the delta log: method names -> the
#: ``(module, scope)`` pairs, a function or a class, whose bodies may call
#: them.
_ACCESS_PATH_SCOPES = {
    ("key_index", "held_key_index"): {
        ("src/repro/engine/execute.py", "scan_lookup"),
        ("src/repro/engine/execute.py", "join_table"),
        ("src/repro/engine/kernels.py", "RelationBuild"),
        ("src/repro/engine/stats.py", "relation_probe"),
    },
    ("delta_count_since", "rows_at", "delta_since"): {
        ("src/repro/engine/execute.py", "resolve_window"),
    },
}


def check_one_access_path(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro/engine",)):
        module = rel_path.replace(os.sep, "/")
        allowed: dict[str, set[int]] = {}  # method -> nodes that may call it
        for methods, scopes in _ACCESS_PATH_SCOPES.items():
            inside = {id(inner) for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef, ast.ClassDef))
                      and (module, node.name) in scopes
                      for inner in ast.walk(node)}
            allowed.update(dict.fromkeys(methods, inside))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in allowed \
                    and id(node) not in allowed[node.func.attr]:
                violations.append(Violation(
                    rel_path, node.lineno, "one-access-path",
                    f".{node.func.attr}() outside the access-path rule; "
                    "call repro.engine.execute.resolve_window / scan_lookup "
                    "/ join_table"))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-operator
# ---------------------------------------------------------------------------

#: The one module that implements the engine's operators in Python.
_OPERATOR_MODULE = "src/repro/engine/execute.py"


def check_one_operator(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro/engine",)):
        if rel_path.replace(os.sep, "/") == _OPERATOR_MODULE:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "fold":
                violations.append(Violation(
                    rel_path, node.lineno, "one-operator",
                    "fold() outside engine/execute.py; group and fold "
                    "through repro.engine.execute.aggregate_rows"))
    return violations


# ---------------------------------------------------------------------------
# Rule: no-oracle-imports
# ---------------------------------------------------------------------------

#: The reference interpreters, one per language.
_ORACLE_MODULES = frozenset(
    f"repro.{language}.evaluate"
    for language in ("sql", "ra", "trc", "drc", "datalog"))


def _oracle_imports(node: ast.AST) -> "list[tuple[str, list[str]]]":
    """``(oracle module, names imported from it)`` per oracle ``node`` imports."""
    if isinstance(node, ast.Import):
        return [(alias.name, []) for alias in node.names
                if alias.name in _ORACLE_MODULES]
    if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
        return []
    if node.module in _ORACLE_MODULES:
        return [(node.module, [alias.name for alias in node.names])]
    return [(f"{node.module}.{alias.name}", []) for alias in node.names
            if f"{node.module}.{alias.name}" in _ORACLE_MODULES]


def check_no_oracle_imports(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro",)):
        module = rel_path.replace(os.sep, "/")
        in_engine = module.startswith("src/repro/engine/")
        for node in ast.walk(tree):
            for oracle, names in _oracle_imports(node):
                private = [name for name in names if name.startswith("_")]
                if in_engine:
                    message = (f"the engine imports the reference interpreter "
                               f"{oracle}; import the helper from its neutral "
                               "home instead")
                elif private and module != \
                        "src/" + oracle.replace(".", "/") + ".py":
                    message = (f"{', '.join(private)} imported from {oracle}; "
                               "a helper two modules share is public, in a "
                               "neutral module")
                else:
                    continue
                violations.append(Violation(
                    rel_path, node.lineno, "no-oracle-imports", message))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-join-planner
# ---------------------------------------------------------------------------

#: The one module that plans join trees, and its join-planning steps.
_PLANNER_MODULE = "src/repro/engine/optimize.py"
_PLANNER_STEPS = frozenset({"reorder_joins", "hoist_projections"})


def check_one_join_planner(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro",)):
        module = rel_path.replace(os.sep, "/")
        if module == _PLANNER_MODULE:
            continue
        recursive: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in _PLANNER_STEPS:
                recursive.update(
                    id(call) for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and not module.endswith("/__init__.py"):
                names = [(alias.lineno, alias.name) for alias in node.names
                         if alias.name in _PLANNER_STEPS]
            elif isinstance(node, ast.Call) and id(node) not in recursive:
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", "")
                names = [(node.lineno, name)] if name in _PLANNER_STEPS else []
            else:
                continue
            for line, name in names:
                violations.append(Violation(
                    rel_path, line, "one-join-planner",
                    f"{name} used outside engine/optimize.py; hand the plan "
                    "to repro.engine.optimize.optimize, which plans each "
                    "join tree once"))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-pattern-walker
# ---------------------------------------------------------------------------

#: The one module that reads a TRC query's pattern; the TRC-only term no
#: other module there may read; the logic nodes a TRC pattern is read off,
#: which only the first-order-logic drawers may read besides.
_PATTERN_MODULE = "src/repro/core/patterns.py"
_TRC_NODES = frozenset({"AttrRef"})
_LOGIC_NODES = frozenset({"Atom", "Compare"})
_LOGIC_DRAWERS = frozenset({"src/repro/diagrams/peirce_alpha.py",
                            "src/repro/diagrams/peirce_beta.py"})


def check_one_pattern_walker(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(
            root, ("src/repro/core", "src/repro/diagrams")):
        module = rel_path.replace(os.sep, "/")
        if module == _PATTERN_MODULE:
            continue
        flagged = _TRC_NODES if module in _LOGIC_DRAWERS else _TRC_NODES | _LOGIC_NODES
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [(alias.lineno, alias.name) for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [(node.lineno, node.id)]
            elif isinstance(node, ast.Attribute):
                names = [(node.lineno, node.attr)]
            else:
                continue
            for line, name in names:
                if name in flagged:
                    violations.append(Violation(
                        rel_path, line, "one-pattern-walker",
                        f"{name} read outside core/patterns.py; lay out "
                        "repro.core.patterns.pattern_of's pattern instead of "
                        "walking the TRC formula"))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-fixpoint
# ---------------------------------------------------------------------------

#: The modules that may name a fixpoint's delta working relations.
_FIXPOINT_MODULES = frozenset({"src/repro/engine/lower.py",
                               "src/repro/engine/execute.py",
                               "src/repro/engine/stats.py"})


def check_one_fixpoint(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro",)):
        if rel_path.replace(os.sep, "/") in _FIXPOINT_MODULES:
            continue
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found = [alias.lineno for alias in node.names
                         if alias.name == "DELTA_SUFFIX"]
            elif isinstance(node, ast.Name):
                found = [node.lineno] if node.id == "DELTA_SUFFIX" else []
            elif isinstance(node, ast.Attribute):
                found = [node.lineno] if node.attr == "DELTA_SUFFIX" else []
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and "@delta" in node.value and id(node) not in docstrings:
                found = [node.lineno]
            else:
                continue
            for line in found:
                violations.append(Violation(
                    rel_path, line, "one-fixpoint",
                    "a fixpoint's delta relation named outside "
                    "engine/lower.py, engine/execute.py and engine/stats.py; "
                    "reach working relations through "
                    "repro.engine.stats.working_predicate or the FixpointP "
                    "node"))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-bind
# ---------------------------------------------------------------------------

#: The module that reads template constants' slots.
_BIND_MODULE = "src/repro/engine/bind.py"
#: The executors: they run a template with its params, never bound.
_EXECUTOR_MODULES = frozenset(
    f"src/repro/engine/{name}.py"
    for name in ("execute", "vectorized", "sharded", "process"))


def check_one_bind(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(
            root, ("src/repro/engine", "src/repro/core")):
        if rel_path.replace(os.sep, "/") == _BIND_MODULE:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "slot" \
                    and isinstance(node.ctx, ast.Load):
                violations.append(Violation(
                    rel_path, node.lineno, "one-bind",
                    "a template constant's slot read outside "
                    "engine/bind.py; pass the values as params and bind "
                    "through repro.engine.bind (bind_node, bind_plan)"))
    for _path, rel_path, tree in _walk_sources(root, ("src/repro",)):
        executor = rel_path.replace(os.sep, "/") in _EXECUTOR_MODULES
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", "")
            if executor and name == "bind_plan":
                violations.append(Violation(
                    rel_path, node.lineno, "one-bind",
                    "an executor binds a whole plan; run the template with "
                    "the values as params (compile once, bind many)"))
            if name == "replace" \
                    and any(kw.arg == "since" for kw in node.keywords):
                violations.append(Violation(
                    rel_path, node.lineno, "one-bind",
                    "a delta window's anchor substituted by replace(); "
                    "anchor it at a slot and pass the versions as params "
                    "(repro.engine.bind)"))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-expr-rewriter
# ---------------------------------------------------------------------------

#: The modules that may build the composite predicates no rewrite owns:
#: the tree's one rebuild and the expression parser.
_EXPR_BUILDERS = frozenset({"src/repro/expr/ast.py",
                            "src/repro/expr/parser.py"})
_REBUILT_ONLY_NODES = frozenset({"Between", "InList", "Like"})


def check_one_expr_rewriter(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro",)):
        if rel_path.replace(os.sep, "/") in _EXPR_BUILDERS:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", "")
            if name in _REBUILT_ONLY_NODES:
                violations.append(Violation(
                    rel_path, node.lineno, "one-expr-rewriter",
                    f"{name} built outside expr/ast.py and expr/parser.py; "
                    "rebuild an expression through "
                    "repro.expr.ast.map_children"))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-compile
# ---------------------------------------------------------------------------

#: The module whose compiler both executors subclass, and which keeps no
#: cache of compiled closures beside the programs kept on plan nodes.
_COMPILER_MODULE = "src/repro/engine/execute.py"
#: What a module-level cache is built from.
_CACHE_FACTORIES = frozenset({"LRUCache", "dict", "OrderedDict",
                              "WeakKeyDictionary", "WeakValueDictionary",
                              "lru_cache", "cache"})


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _compiler_classes(trees: "list[ast.AST]") -> set[str]:
    """``_Compiler`` and every class under it, by base name, transitively."""
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    names = {"_Compiler"}
    grown = True
    while grown:
        grown = False
        for node in classes:
            if node.name not in names \
                    and any(_base_name(b) in names for b in node.bases):
                names.add(node.name)
                grown = True
    return names


def _is_cache(value: "ast.expr | None") -> bool:
    """Whether ``value`` starts a cache: an empty ``{}`` or a cache
    factory, called or as a decorator."""
    if isinstance(value, ast.Dict):
        return not value.keys
    call = value.func if isinstance(value, ast.Call) else value
    return call is not None and _base_name(call) in _CACHE_FACTORIES


def check_one_compile(root: str) -> list[Violation]:
    violations: list[Violation] = []
    sources = list(_walk_sources(root, ("src/repro/engine",)))
    compilers = _compiler_classes([tree for _p, _r, tree in sources])
    for _path, rel_path, tree in sources:
        exempt = [(node.lineno, node.end_lineno or node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name in compilers]

        def outside(node: ast.AST) -> bool:
            return not any(lo <= node.lineno <= hi for lo, hi in exempt)

        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == "_compute" and outside(node):
                violations.append(Violation(
                    rel_path, node.lineno, "one-compile",
                    "a _compute plan walker outside a _Compiler subclass; "
                    "compile the plan once (subclass "
                    "repro.engine.execute._Compiler) and call its program"))
            elif isinstance(node, ast.Attribute) and node.attr == "_memo" \
                    and outside(node):
                violations.append(Violation(
                    rel_path, node.lineno, "one-compile",
                    "a per-execution plan memo outside a _Compiler "
                    "subclass; shared subplans get the compiler's result "
                    "slots, and rows handed in go through its given node"))
        if rel_path.replace(os.sep, "/") != _COMPILER_MODULE:
            continue
        for node in getattr(tree, "body", []):
            cached = False
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                cached = _is_cache(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cached = any(_is_cache(d) for d in node.decorator_list)
            if cached:
                violations.append(Violation(
                    rel_path, node.lineno, "one-compile",
                    "a module-level cache in engine/execute.py; a compiled "
                    "closure lives in the program kept on its plan node "
                    "(_Compiler.program), compiled once per plan"))
    return violations


# ---------------------------------------------------------------------------
# Rule: one-cost-model
# ---------------------------------------------------------------------------

#: The module that prices every physical choice: the kernels' crossover
#: is defined there, and only there is a size compared with it.
_PRICE_MODULE = "src/repro/engine/stats.py"


def _named(node: ast.AST) -> str:
    """The identifier a name, attribute, definition or import names."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name
    if isinstance(node, ast.alias):
        return node.name
    return ""


def _is_size(node: ast.AST) -> bool:
    """``len(...)`` or a batch's ``.length``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len") \
        or (isinstance(node, ast.Attribute) and node.attr == "length")


def _is_gate(node: ast.AST) -> bool:
    """An integer literal of three or more (none, one or two test
    emptiness or plurality; a larger count is a threshold), or an
    upper-case constant naming rows."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value >= 3
    name = _named(node)
    return name.isupper() and name.endswith("_ROWS")


def _sized_gate(node: ast.AST) -> bool:
    """Whether ``node`` orders a size against a gate."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
               and ((_is_size(a) and _is_gate(b))
                    or (_is_size(b) and _is_gate(a)))
               for op, a, b in zip(node.ops, operands, operands[1:]))


def check_one_cost_model(root: str) -> list[Violation]:
    violations: list[Violation] = []
    for _path, rel_path, tree in _walk_sources(root, ("src/repro",)):
        if rel_path.replace(os.sep, "/") == _PRICE_MODULE:
            continue
        for node in ast.walk(tree):
            name = _named(node)
            if name.lower().endswith("min_rows"):
                what = f"row-count gate {name}"
            elif _sized_gate(node):
                what = f"size gate {ast.unparse(node)}"
            else:
                continue
            violations.append(Violation(
                rel_path, node.lineno, "one-cost-model",
                f"{what} outside {_PRICE_MODULE}; price the choice with "
                "repro.engine.stats (probe_at_stake, reaches_kernels)"))
    return violations


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

ALL_RULES = (
    check_lock_guarded_caches,
    check_shm_finalizers,
    check_kernel_fallbacks,
    check_silent_excepts,
    check_server_nonblocking,
    check_try_hit_never_waits,
    check_one_lexer,
    check_one_access_path,
    check_one_operator,
    check_no_oracle_imports,
    check_one_join_planner,
    check_one_pattern_walker,
    check_one_fixpoint,
    check_one_bind,
    check_one_expr_rewriter,
    check_one_compile,
    check_one_cost_model,
)


def _parse(path: str) -> "ast.AST | None":
    try:
        with open(path, encoding="utf-8") as fh:
            return ast.parse(fh.read(), filename=path)
    except (OSError, SyntaxError):
        return None


def _walk_sources(root: str, packages: tuple
                  ) -> Iterator[tuple[str, str, ast.AST]]:
    for package in packages:
        base = os.path.join(root, package)
        if os.path.isfile(base):
            tree = _parse(base)
            if tree is not None:
                yield base, os.path.relpath(base, root), tree
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                tree = _parse(path)
                if tree is not None:
                    yield path, os.path.relpath(path, root), tree


def run_checks(root: str) -> list[Violation]:
    """All violations across every rule, sorted by location."""
    violations: list[Violation] = []
    for rule in ALL_RULES:
        violations.extend(rule(root))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's parent's parent)")
    args = parser.parse_args(argv)
    violations = run_checks(args.root)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("invariant lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
