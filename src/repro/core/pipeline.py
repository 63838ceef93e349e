"""The query-visualization pipeline of Figs. 1 and 2 — for all five languages.

The paper's two figures sketch the intended interaction: a user states a
query (spoken, typed, or LLM-generated), the system parses it, *shows the
query back* as a diagram (and in other textual languages), and returns the
answers, so the user can verify that the system understood the right query.
This module is that loop, minus the microphone: text in, diagram + answers +
explanation out.

Queries may be stated in any of the five textual languages of the tutorial
(SQL, RA, TRC, DRC, Datalog).  Answers are computed by the unified plan
engine (:mod:`repro.engine`) — parse → lower → optimize → execute — with the
per-language reference interpreters as a fallback for constructs outside the
engine fragment, so ``run`` never rejects a query the interpreters accept.
Compiled plans are cached here, by query shape; answers are cached only by
:class:`~repro.core.service.QueryService`, after snapshot validation.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.diagram import Diagram
from repro.core.patterns import QueryPattern, pattern_of
from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.sailors import sailors_database
from repro.engine import (
    ExecutorBackend,
    LoweringError,
    PlanError,
    detect_language,
    execute_plan,
    get_backend,
    lower,
    optimize,
)
from repro.engine.bind import bind_plan, discover_slots, scan_literals
from repro.engine.cache import LRUCache
from repro.engine.verify import maybe_verify, verification_enabled
from repro.expr.ast import ExprError
from repro.logic.formula import atoms_of
from repro.trc.ast import TRCQuery
from repro.trc.format import format_trc_query

#: The languages ``QueryVisualizationPipeline.run`` accepts.
PIPELINE_LANGUAGES = ("sql", "ra", "trc", "drc", "datalog")

_logger = logging.getLogger(__name__)

#: Cache-miss sentinel.  ``None`` (or any falsy value) must be a cacheable
#: value — using it as the miss marker would re-miss legitimate entries
#: forever and miscount the hits.
_MISS = object()

#: Plan-cache entry of a shape whose literals could not be traced to slots.
_REFUSED = object()

#: Default diagram formalism per input language (only formalisms that can
#: represent that language's ASTs directly).
_DEFAULT_FORMALISMS = {
    "sql": "queryvis",
    "ra": "dfql",
    "trc": "queryvis",
    "drc": "peirce_beta",
    "datalog": "dfql",
}


def fingerprint_query(text: str, language: str) -> str:
    """A stable fingerprint of one query: language + *exact* query text.

    Only outer whitespace is stripped — interior whitespace can be
    significant (string literals), so two texts share a fingerprint only if
    they are byte-identical apart from leading/trailing space.  This is the
    identity of an *answer*: the service's result cache keys on
    ``(fingerprint, version token)`` — so any write to the database (which
    moves :attr:`repro.data.database.Database.version_token`) invalidates
    results — and registered views and prepared handles are filed under it.
    The plan cache does **not** use it: plans are keyed on the query's
    *shape* (:func:`repro.engine.bind.scan_literals`), so texts that differ
    only in their literals share one compiled plan.
    """
    digest = hashlib.sha256(f"{language.lower()}\n{text.strip()}".encode())
    return digest.hexdigest()[:24]


class Counters:
    """Named integer counters, read as attributes.

    The pipeline counts its plan cache in one (``plan_*``), the query
    service its serving in another (``requests``, ``result_hits``, ...).
    Updates go through :meth:`bump` under an internal lock, so concurrent
    requests never lose increments.
    """

    def __init__(self, *names: str) -> None:
        self._lock = threading.Lock()
        self._names = names
        self.reset()

    def bump(self, *names: str) -> None:
        """Add one to each named counter, atomically together."""
        with self._lock:
            self._add(names)

    def try_bump(self, *names: str) -> bool:
        """:meth:`bump` without waiting; ``False`` (nothing counted) when
        another thread holds the lock."""
        if not self._lock.acquire(blocking=False):
            return False
        try:
            self._add(names)
        finally:
            self._lock.release()
        return True

    def _add(self, names: tuple[str, ...]) -> None:
        for name in names:
            setattr(self, name, getattr(self, name) + 1)

    def reset(self) -> None:
        """Zero every counter in place."""
        with self._lock:
            for name in self._names:
                setattr(self, name, 0)


class _Source:
    """One request's text, with its AST parsed at most once — and only when
    a plan miss or the interpreter fallback needs it."""

    __slots__ = ("text", "language", "_query")

    def __init__(self, text: str, language: str, query: Any = None) -> None:
        self.text = text
        self.language = language
        self._query = query

    def ast(self) -> Any:
        if self._query is None:
            self._query = _parse(self.text, self.language)
        return self._query


@dataclass
class PipelineResult:
    """Everything the pipeline produces for one query."""

    sql: str  # the original query text (named for backward compatibility)
    query: Any
    diagram: Diagram
    language: str = "sql"
    answers: Relation | None = None
    trc: TRCQuery | None = None
    pattern: QueryPattern | None = None
    languages: dict[str, str] = field(default_factory=dict)
    explanation: str = ""
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    plan: Any = None  # the optimized engine plan, when the engine was used

    @property
    def text(self) -> str:
        """The query text as given (alias of the legacy ``sql`` field)."""
        return self.sql

    @property
    def used_engine(self) -> bool:
        return self.plan is not None

    def summary(self, *, max_rows: int = 10) -> str:
        """A terminal-friendly rendering of the whole interaction (Fig. 1)."""
        label = self.language.upper() if self.language != "datalog" else "Datalog"
        parts = [f"{label}: {self.sql}", ""]
        if self.explanation:
            parts.append("Interpretation:")
            parts.append(self.explanation)
            parts.append("")
        parts.append(self.diagram.to_ascii())
        if self.answers is not None:
            parts.append("")
            parts.append(f"Answers ({len(self.answers)} rows):")
            parts.append(self.answers.to_table(max_rows=max_rows))
        if self.warnings:
            parts.append("")
            parts.extend(f"note: {w}" for w in self.warnings)
        return "\n".join(parts)


class QueryVisualizationPipeline:
    """Parse → lower → optimize → execute → visualize, per Figs. 1–2.

    ``backend`` picks the physical executor (``"vectorized"`` — the default
    columnar engine — or ``"row"``, the reference executor), or is an
    instance that runs every plan (a sharded service's).  Every request
    executes: answers are cached by :class:`~repro.core.service.QueryService`,
    which publishes them only after snapshot validation.

    **Plans** are cached, bounded by ``plan_cache_size`` (0 disables), and
    keyed on the query's *shape* and the schema:
    ``(language, shape, db.structure_version)`` → one optimized plan, where
    the shape is the text with its number and string literals blanked to
    typed holes (:func:`repro.engine.bind.scan_literals`).  The cached plan
    is a template compiled from the *first-seen* literals whose constants
    remember which literal they came from; a later text of the same shape
    skips parse/lower/optimize: the template itself is executed, with the
    text's literals as the executor's ``params``
    (:func:`repro.engine.bind.bind_node`).  ``plan_cache_size`` therefore
    bounds shapes, not texts.  A Datalog program is one plan
    like any other query, its recursion one operator
    (:class:`~repro.engine.plan.FixpointP`), cached the same way.

    A shape is **refused** when the literals cannot be traced to constants
    of the lowered plan and nothing else (``LIMIT 5``, a ``LIKE`` pattern, a
    digit in a comment): it is remembered as refused, counted
    (``plan_refused``) and served as before — each exact text is then a
    shape of its own, without holes, in the same cache.

    There is **no selectivity guard**: a template keeps the join order
    chosen for the first-seen literals.  A cached plan already outlived the
    statistics it was optimized under (the key has the structure version,
    not the data version), so plan choice has never been allowed to affect
    rows, only speed; the literal is one more stale estimate (measurements
    in ``CHANGES.md``, PR 17).
    """

    def __init__(self, db: Database | None = None, *, formalism: str = "queryvis",
                 backend: "str | ExecutorBackend" = "vectorized",
                 plan_cache_size: int = 128) -> None:
        self.db = db if db is not None else sailors_database()
        self.formalism = formalism
        self.backend = get_backend(backend)
        self._plan_cache = LRUCache(plan_cache_size)
        self.cache_stats = Counters("plan_hits", "plan_misses", "plan_binds",
                                    "plan_refused")

    # -- cache plumbing --------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Plan-cache size and counters.  ``plan_entries`` counts shapes,
        refused ones included; ``plan_hits`` / ``plan_misses`` count
        lookups for which lower + optimize did not / did run;
        ``plan_binds`` the hits that executed a cached template with at
        least one literal as a parameter; ``plan_refused`` the shapes slot
        discovery refused, which are served under their exact text."""
        stats = self.cache_stats
        return {
            "plan_entries": len(self._plan_cache),
            "plan_hits": stats.plan_hits,
            "plan_misses": stats.plan_misses,
            "plan_binds": stats.plan_binds,
            "plan_refused": stats.plan_refused,
        }

    def clear_caches(self) -> None:
        self._plan_cache.clear()
        self.cache_stats.reset()

    def run(self, text: str, *, language: str = "sql", evaluate: bool = True,
            formalism: str | None = None) -> PipelineResult:
        """Run the full pipeline for one query in any of the five languages."""
        language = language.lower()
        if language not in PIPELINE_LANGUAGES:
            raise ValueError(
                f"unknown language {language!r}; expected one of {PIPELINE_LANGUAGES}"
            )
        timings: dict[str, float] = {}
        warnings: list[str] = []

        start = time.perf_counter()
        query = _parse(text, language)
        timings["parse"] = time.perf_counter() - start

        start = time.perf_counter()
        trc, pattern, languages, explanation = self._interpret(
            text, query, language, warnings)
        timings["translate"] = time.perf_counter() - start

        start = time.perf_counter()
        diagram = self._build_diagram(query, language, formalism, warnings)
        timings["diagram"] = time.perf_counter() - start

        answers: Relation | None = None
        plan = None
        if evaluate:
            start = time.perf_counter()
            answers, planned = self._evaluate(
                _Source(text, language, query), warnings, timings)
            timings["evaluate"] = time.perf_counter() - start
            if planned is not None:
                plan = bind_plan(*planned)

        return PipelineResult(
            sql=text, query=query, diagram=diagram, language=language,
            answers=answers, trc=trc, pattern=pattern, languages=languages,
            explanation=explanation, warnings=warnings, timings=timings,
            plan=plan,
        )

    # -- stages ----------------------------------------------------------

    def _interpret(self, text: str, query: Any, language: str,
                   warnings: list[str]):
        """Recover the TRC form / query pattern and the textual explanation."""
        from repro.translate.sql_to_trc import UnsupportedSQL, sql_to_trc

        trc: TRCQuery | None = None
        pattern: QueryPattern | None = None
        label = {"sql": "SQL", "ra": "RA", "trc": "TRC", "drc": "DRC",
                 "datalog": "Datalog"}[language]
        languages: dict[str, str] = {label: text}
        explanation = ""
        if language == "sql":
            try:
                trc = sql_to_trc(query, self.db.schema)
                languages["TRC"] = format_trc_query(trc)
                pattern = pattern_of(trc)
            except UnsupportedSQL as exc:
                warnings.append(f"TRC translation unavailable: {exc}")
            explanation = explain_query(query, trc)
        elif language == "trc":
            trc = query
            try:
                pattern = pattern_of(trc)
            except Exception as exc:  # pattern extraction is best-effort
                warnings.append(f"pattern extraction unavailable: {exc}")
            explanation = explain_calculus(trc)
        elif language == "drc":
            from repro.logic.formula import atoms_of

            atoms = atoms_of(query.body)
            relations = sorted({a.predicate for a in atoms})
            explanation = (
                f"- ranges over {len(relations)} relation(s): {', '.join(relations)}\n"
                f"- the query pattern has {len(atoms)} relation atom(s)"
            )
        elif language == "ra":
            explanation = f"- an RA operator tree with {query.operator_count()} node(s)"
        elif language == "datalog":
            explanation = (
                f"- a Datalog program with {len(query)} rule(s)"
                + (" (recursive)" if query.is_recursive() else "")
            )
        return trc, pattern, languages, explanation

    def _build_diagram(self, query: Any, language: str, formalism: str | None,
                       warnings: list[str]) -> Diagram:
        from repro.diagrams import build_diagram

        if formalism is None:
            formalism = self.formalism if language == "sql" \
                else _DEFAULT_FORMALISMS[language]
        target: Any = query
        if language == "datalog":
            # DFQL draws RA trees; non-recursive programs translate exactly.
            from repro.translate.ra_datalog import datalog_to_ra

            try:
                target = datalog_to_ra(query, self.db.schema)
            except Exception as exc:
                warnings.append(f"diagram unavailable: {exc}")
                return Diagram("datalog program", formalism="dfql")
        if language == "sql":
            # Preserve the original single-language behavior: SQL diagram
            # failures (including CannotRepresent) are real errors, not
            # degradable warnings.
            return build_diagram(formalism, target, self.db.schema)
        try:
            return build_diagram(formalism, target, self.db.schema)
        except Exception as exc:  # CannotRepresent, translation gaps, builder bugs
            warnings.append(f"{formalism} diagram unavailable: {exc}")
            return Diagram(f"{language} query", formalism=formalism)

    def _evaluate(self, source: _Source, warnings: list[str],
                  timings: dict[str, float]) -> tuple[Relation, Any]:
        """Answer the query: unified engine first, reference interpreter
        fallback.  Returns the answers with the ``(template, literals)`` the
        engine ran, or ``None`` after a fallback."""
        try:
            return self._evaluate_engine(source, timings)
        except (LoweringError, PlanError, ExprError) as exc:
            # ExprError covers runtime divergences (the engine compiles
            # comparisons with SQL's raising semantics; the calculi treat
            # type mismatches as FALSE) — the reference decides.
            for stage in ("lower", "optimize", "execute"):
                timings.pop(stage, None)  # stages of the failed attempt
            warnings.append(
                f"engine fallback to the {source.language.upper()} "
                f"interpreter: {exc}"
            )
        return self._evaluate_reference(source.ast(), source.language), None

    def _evaluate_engine(self, source: _Source,
                         timings: dict[str, float]) -> tuple[Relation, Any]:
        template, literals = self._plan(source, timings)
        start = time.perf_counter()
        answers = execute_plan(template, self.db, backend=self.backend,
                               params=literals)
        timings["execute"] = time.perf_counter() - start
        return answers, (template, literals)

    def _plan(self, source: _Source, timings: dict[str, float]) -> Any:
        """The one plan-cache lookup: ``(template, literals)``, the optimized
        template of ``source``'s shape and the literals of its text, which
        the template is executed with.

        Plans depend on the schema (column resolution) but not on row
        contents, so the key carries the coarser structure version:
        add_relation/drop_relation invalidates plans, plain adds do not.  A
        miss parses (unless the caller already did), lowers, discovers the
        literal slots and optimizes; racing misses of one shape each compile
        and the last equal entry stays.
        """
        language = source.language
        version = self.db.structure_version
        # The exact text is a shape of its own, without holes: what a
        # refused shape is served under (and every text when nothing is
        # kept, so there are no slots worth discovering).
        exact: tuple[str, tuple] = (source.text.strip(), ())
        shape, literals = scan_literals(source.text) \
            if self._plan_cache.capacity > 0 else exact
        template = self._plan_cache.get((language, shape, version), _MISS)
        if template is _REFUSED:
            shape, literals = exact
            template = self._plan_cache.get((language, shape, version), _MISS)
        if template is not _MISS:
            if literals:
                self.cache_stats.bump("plan_hits", "plan_binds")
            else:
                self.cache_stats.bump("plan_hits")
        else:
            query = source.ast()
            self.cache_stats.bump("plan_misses")
            start = time.perf_counter()
            lowered = lower(query, self.db.schema, language)
            if literals:
                slotted = discover_slots(
                    lowered, shape, literals,
                    lambda text: lower(_parse(text, language),
                                       self.db.schema, language))
                if slotted is None:
                    self._plan_cache.put((language, shape, version), _REFUSED)
                    self.cache_stats.bump("plan_refused")
                    shape, literals = exact
                else:
                    lowered = slotted
            timings["lower"] = time.perf_counter() - start
            start = time.perf_counter()
            template = optimize(lowered, self.db)
            timings["optimize"] = time.perf_counter() - start
            self._plan_cache.put((language, shape, version), template)
        if literals and verification_enabled():
            # The plan the literals bind to is certified like any other
            # rewrite under REPRO_VERIFY_PLANS.
            maybe_verify(bind_plan(template, literals), self.db, rule="bind")
        return template, literals

    def answer(self, text: str, *, language: str | None = None,
               warnings: list[str] | None = None) -> Relation:
        """The serving path: any-language text in, answers out — no diagram.

        Warm requests never parse: a plan-cache hit — any text of a shape
        seen before — skips parse/lower/optimize and hands the cached
        template to the executor, with its literals as parameters.  A miss
        parses once, for lowering and for the fallback alike.  Falls back
        to the reference interpreter exactly like :meth:`run` for queries
        outside the engine fragment.
        The fallback *reason* is never swallowed: it is appended to the
        optional ``warnings`` out-list (same format as
        :attr:`PipelineResult.warnings`) and logged on this module's logger,
        so serving-path divergences stay diagnosable.
        """
        resolved = (language or detect_language(text)).lower()
        if resolved not in PIPELINE_LANGUAGES:
            raise ValueError(
                f"unknown language {resolved!r}; expected one of {PIPELINE_LANGUAGES}"
            )
        reasons: list[str] = []
        answers, _plan = self._evaluate(_Source(text, resolved), reasons, {})
        for message in reasons:
            _logger.info("%s", message)
        if warnings is not None:
            warnings.extend(reasons)
        return answers

    def prepare_plan(self, text: str, language: str) -> Any | None:
        """Compile one query into the plan cache ahead of serving.

        Parses eagerly (syntax errors surface here, not on the first
        request) and goes through the same shape lookup as serving: one
        text seeds its shape's entry, and every literal variant of it is a
        plan hit from then on.  Returns the optimized plan bound to *this*
        text's literals (plain constants — views and maintainers are built
        from it), or ``None`` when the query is outside the engine fragment
        (its requests will use the interpreter fallback).
        ``QueryService.prepare`` builds its prepared-query handles on this.
        """
        source = _Source(text, language.lower())
        source.ast()
        try:
            return bind_plan(*self._plan(source, {}))
        except (LoweringError, PlanError):
            return None

    def _evaluate_reference(self, query: Any, language: str) -> Relation:
        del language  # dispatch is by AST type
        from repro.translate.equivalence import answer_relation

        return answer_relation(query, self.db)

    def round_trip_consistent(self, sql_a: str, sql_b: str) -> bool:
        """Fig. 2's verification step: do two phrasings show the same pattern?"""
        from repro.core.patterns import isomorphic

        result_a = self.run(sql_a, evaluate=False)
        result_b = self.run(sql_b, evaluate=False)
        if result_a.pattern is None or result_b.pattern is None:
            return False
        return isomorphic(result_a.pattern, result_b.pattern)


def _parse(text: str, language: str) -> Any:
    if language == "sql":
        from repro.sql.parser import parse_sql

        return parse_sql(text)
    if language == "ra":
        from repro.ra.parser import parse_ra

        return parse_ra(text)
    if language == "trc":
        from repro.trc.parser import parse_trc

        return parse_trc(text)
    if language == "drc":
        from repro.drc.parser import parse_drc

        return parse_drc(text)
    from repro.datalog.parser import parse_datalog

    return parse_datalog(text)


def explain_query(query: Any, trc: TRCQuery | None = None) -> str:
    """A short natural-language-ish reading of the query structure.

    This is the textual complement of the diagram: which tables participate,
    how deep the nesting goes, and which quantifier pattern is in play.
    """
    from repro.sql.ast import SetOpQuery, base_tables, count_table_occurrences

    lines: list[str] = []
    tables = base_tables(query)
    occurrences = count_table_occurrences(query)
    lines.append(
        f"- uses {len(tables)} table(s): {', '.join(tables)}"
        + (f" ({occurrences} table references in total)" if occurrences != len(tables) else "")
    )
    if isinstance(query, SetOpQuery):
        lines.append(f"- combines two subqueries with {query.op.upper()}")
    depth = query.nesting_depth()
    if depth > 1:
        lines.append(f"- contains nested subqueries ({depth} levels)")
    if trc is not None:
        atoms = atoms_of(trc.body)
        negations = format_trc_query(trc).count("not ")
        if negations >= 2:
            lines.append(
                "- double negation detected: this is the classic encoding of "
                "universal quantification (\"for all ...\")"
            )
        elif negations == 1:
            lines.append("- contains one negated subquery (\"... and not ...\")")
        lines.append(f"- the query pattern has {len(atoms)} table variable(s)")
    return "\n".join(lines)


def explain_calculus(trc: TRCQuery) -> str:
    """The TRC-side analogue of :func:`explain_query`."""
    atoms = atoms_of(trc.body)
    relations = sorted({a.predicate for a in atoms})
    lines = [f"- ranges over {len(relations)} relation(s): {', '.join(relations)}"]
    negations = format_trc_query(trc).count("not ")
    if negations >= 2:
        lines.append("- double negation: universal quantification in disguise")
    elif negations == 1:
        lines.append("- contains one negated subformula")
    lines.append(f"- the query pattern has {len(atoms)} table variable(s)")
    return "\n".join(lines)


def visualize_sql(sql: str, db: Database | None = None, *,
                  formalism: str = "queryvis") -> Diagram:
    """One-call convenience: SQL text in, diagram out (Fig. 1's visual reply)."""
    pipeline = QueryVisualizationPipeline(db, formalism=formalism)
    return pipeline.run(sql, evaluate=False).diagram


def explain_sql(sql: str, db: Database | None = None) -> str:
    """One-call convenience: SQL text in, textual interpretation out."""
    pipeline = QueryVisualizationPipeline(db)
    return pipeline.run(sql, evaluate=False).explanation


def answer_any(text: str, db: Database | None = None, *,
               language: str | None = None) -> Relation:
    """One-call convenience: any-language text in, answers out (engine path)."""
    return QueryVisualizationPipeline(db).answer(text, language=language)
