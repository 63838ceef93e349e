"""Compile once, bind many: the shape-keyed plan cache and literal binding.

The oracle here is the five *naive interpreters*
(``translate.equivalence.answer_relation`` over a text parsed on its own),
never a second pipeline or service — those would share the cache under test.
Variants of a text are rendered from its shape (``scan_literals`` →
``sentinel_text``), and every variant is parsed from scratch by the oracle,
so a scanner, slot or bind mistake shows up as a wrong bag.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gates import executor
from repro.core import QueryService, QueryVisualizationPipeline
from repro.core.pipeline import _parse
from repro.core.service_api import QueryParseError
from repro.data import Database
from repro.data.relation import relation_from_rows
from repro.data.sailors import random_sailors_database, sailors_database
from repro.engine import (
    DeltaScanP,
    FixpointP,
    JoinP,
    SetOpP,
    bind_plan,
    explain,
    lower,
    optimize,
    scan_literals,
)
from repro.engine.bind import attach_slots, sentinel_text, sentinels_for
from repro.expr import ast as e
from repro.queries import CANONICAL_QUERIES
from repro.sql.lexer import SQLSyntaxError
from repro.translate.equivalence import answer_relation

#: What each literal of a catalog text is swept through, by type.
SWEEP = {
    int: (101, 102, 103, 104, 0, 1),
    float: (35.0, 10.5, 63.5, 0.25),
    str: ("red", "green", "blue", "it's", ""),
}

#: The benchmark's ``analytic-cold`` templates (copied, not imported).
ANALYTIC_TEMPLATES = (
    "SELECT R.bid, MIN(R.day) AS first_day, MAX(R.day) AS last_day, "
    "COUNT(*) AS n FROM Reserves R WHERE R.sid > {k} GROUP BY R.bid",
    "SELECT S.sname, B.bname FROM Sailors S, Reserves R, Boats B, "
    "Reserves R2 WHERE S.sid = R.sid AND R.bid = B.bid AND R2.sid = S.sid "
    "AND R2.bid = B.bid AND B.color = 'red' AND S.rating > 8 "
    "AND S.age > {a}",
    "SELECT B.color, AVG(S.age) AS avg_age, COUNT(*) AS n FROM Sailors S, "
    "Reserves R, Boats B WHERE S.sid = R.sid AND R.bid = B.bid "
    "AND S.age > {a} GROUP BY B.color",
    "SELECT DISTINCT S.sid, S.sname FROM Sailors S, Reserves R "
    "WHERE S.sid = R.sid AND S.age > {a}",
)


def catalog_texts() -> list[tuple[str, str]]:
    """``(language, text)`` for the catalog, each Sailors atom additionally
    restricted by an ``age`` literal (the benchmark's five-language sweep)."""
    out = []
    for query in CANONICAL_QUERIES:
        datalog = "\n".join(
            line.replace("sailors(S, N, R, A),", "sailors(S, N, R, A), A > 30.5,")
            if line.startswith("ans(") else line
            for line in query.datalog.split("\n"))
        out.extend([
            ("sql", query.sql.replace("WHERE ", "WHERE S.age > 30.5 AND ", 1)),
            ("ra", query.ra.replace(
                "project[sname](Sailors njoin",
                "project[sname](select[age > 30.5](Sailors) njoin")),
            ("trc", query.trc.replace(
                "Sailors(s) and", "Sailors(s) and s.age > 30.5 and", 1)),
            ("drc", query.drc.replace(
                "Sailors(s, n, r, a) and",
                "Sailors(s, n, r, a) and a > 30.5 and", 1)),
            ("datalog", datalog),
        ])
    return out


def variants(text: str, n: int = 6) -> list[str]:
    """``text`` and ``n - 1`` literal variants of the same shape."""
    shape, literals = scan_literals(text)
    out = [text]
    for step in range(1, n):
        values = [SWEEP[type(v)][(step + i) % len(SWEEP[type(v)])]
                  for i, v in enumerate(literals)]
        out.append(sentinel_text(shape, values))
    return out


def oracle(text: str, language: str, db):
    return answer_relation(_parse(text, language), db)


def plan_counters(pipeline) -> dict[str, int]:
    return {key.removeprefix("plan_"): value
            for key, value in pipeline.cache_info().items()
            if key.startswith("plan_")}


@pytest.fixture
def pipeline():
    return QueryVisualizationPipeline(sailors_database())


class TestScanner:
    def test_typed_holes(self):
        shape, literals = scan_literals(
            " SELECT x FROM T WHERE a > 10 AND b > 10.00 AND c = 'it''s' ")
        assert literals == (10, 10.0, "it's")
        assert [type(v) for v in literals] == [int, float, str]
        assert shape == ("SELECT x FROM T WHERE a > \x00i AND b > \x00f "
                         "AND c = \x00s")

    def test_identifiers_and_double_quotes_are_not_literals(self):
        text = 'SELECT T.col1, "name 7" FROM T2 WHERE T2.a1 = R9.b'
        assert scan_literals(text) == (text, ())

    def test_trailing_dot_is_not_a_float(self):
        shape, literals = scan_literals("ans(N) :- sailors(S, N, R, A), A > 30.")
        assert literals == (30,) and shape.endswith("A > \x00i.")

    def test_bracketed_strings_and_nul_texts_stay_verbatim(self):
        text = "select[sname = 'a]b' and age > 3](Sailors)"
        shape, literals = scan_literals(text)
        assert literals == ("a]b", 3) and "'a]b'" not in shape
        assert scan_literals("SELECT 1 \x00i") == ("SELECT 1 \x00i", ())

    def test_rendering_round_trips(self):
        for _language, text in catalog_texts():
            shape, literals = scan_literals(text)
            assert literals
            assert scan_literals(sentinel_text(shape, literals)) == (
                shape, literals)


class TestLiteralSweep:
    def test_catalog_sweep_matches_the_interpreters(self, pipeline):
        """(a): every catalog query x five languages x a literal sweep
        through one pipeline; one miss per shape, everything else bound."""
        db = pipeline.db
        texts = catalog_texts()
        served = 0
        for language, text in texts:
            for variant in variants(text):
                warnings: list[str] = []
                answers = pipeline.answer(variant, language=language,
                                          warnings=warnings)
                assert not warnings, (language, variant, warnings)
                assert answers.bag_equal(oracle(variant, language, db)), (
                    language, variant)
                served += 1
        shapes = {(language, scan_literals(text)[0])
                  for language, text in texts}
        assert len(shapes) == len(texts) == 25
        assert plan_counters(pipeline) == {
            "entries": len(shapes), "misses": len(shapes), "refused": 0,
            "hits": served - len(shapes), "binds": served - len(shapes)}

    def test_plan_hit_share_of_a_five_language_sweep_stays_high(self):
        """The number the benchmark reports (``core.pipeline.plan_hit_share``
        on ``five-lang-cold``) cannot silently return to 0."""
        service = QueryService(sailors_database())
        for language, text in catalog_texts():
            for k in range(40):
                variant = text.replace("30.5", f"{10 + 1.5 * k:.2f}")
                assert variant != text
                service.query(variant, language=language)
        info = service.cache_info()
        assert info["result_hits"] == 0          # every text is new
        share = info["plan_hits"] / (info["plan_hits"] + info["plan_misses"])
        assert share >= 0.95, info
        assert info["plan_binds"] == info["plan_hits"]
        assert info["plan_refused"] == 0

    def test_first_seen_literals_bind_to_the_fresh_compile(self):
        """(c): for the literals a template was compiled from, the bound
        plan *is* the fresh compile (so ``explain`` agrees too)."""
        db = random_sailors_database(n_sailors=60, n_boats=12,
                                     n_reserves=300, seed=3)
        pipeline = QueryVisualizationPipeline(db)
        texts = catalog_texts() + [
            ("sql", template.format(k=17, a="21.500"))
            for template in ANALYTIC_TEMPLATES]
        for language, text in texts:
            bound = pipeline.prepare_plan(text, language)
            fresh = optimize(lower(text, db.schema, language), db)
            assert explain(bound) == explain(fresh)
            assert bound == fresh, (language, text)
            assert not any(isinstance(node, e.Const) and node.slot is not None
                           for node in _leaves(bound))
        assert pipeline.cache_info()["plan_binds"] == 0  # all first-seen


def _leaves(node):
    """Every node of a plan / expression tree."""
    yield node
    if isinstance(node, tuple):
        parts = node
    elif dataclasses.is_dataclass(node):
        parts = [getattr(node, f.name) for f in dataclasses.fields(node)]
    else:
        return
    for part in parts:
        yield from _leaves(part)


class TestSlotHygiene:
    """(b): slots follow provenance, and what cannot be bound is refused."""

    def serve(self, pipeline, text, language="sql"):
        answers = pipeline.answer(text, language=language)
        assert answers.bag_equal(oracle(text, language, pipeline.db)), text
        return answers

    def test_two_equal_literals_are_two_slots(self, pipeline):
        self.serve(pipeline, "SELECT S.sname FROM Sailors S "
                             "WHERE S.age > 7 AND S.rating > 7")
        after = self.serve(pipeline, "SELECT S.sname FROM Sailors S "
                                     "WHERE S.age > 40 AND S.rating > 2")
        assert 0 < len(after) < 10
        assert plan_counters(pipeline)["binds"] == 1

    def test_a_literal_equal_to_a_synthetic_constant(self, pipeline):
        # The select-list 1 and the predicate's 1 are different slots; the
        # values lowering itself tends to write (1, 0) bind like any other.
        self.serve(pipeline, "SELECT S.sname, 1 AS one FROM Sailors S "
                             "WHERE S.rating > 1")
        rows = self.serve(pipeline, "SELECT S.sname, 0 AS one FROM Sailors S "
                                    "WHERE S.rating > 9").rows()
        assert rows and {row[1] for row in rows} == {0}
        self.serve(pipeline, "ans(N) :- sailors(S, N, R, A), "
                             "boats(101, BN, C), R > 1.", "datalog")
        self.serve(pipeline, "ans(N) :- sailors(S, N, R, A), "
                             "boats(0, BN, C), R > 0.", "datalog")
        assert plan_counters(pipeline) == {
            "entries": 2, "misses": 2, "hits": 2, "binds": 2, "refused": 0}

    def test_quotes_in_strings(self, pipeline):
        pipeline.db.relation("Sailors").add((99, "O'Brien", 5, 41.0))
        for language, template in (
                ("sql", "SELECT S.sid FROM Sailors S WHERE S.sname = {}"),
                ("ra", "project[sid](select[sname = {}](Sailors))"),
                ("trc", "{{ s.sid | Sailors(s) and s.sname = {} }}"),
                ("drc", "{{ s | exists r, a (Sailors(s, {}, r, a)) }}"),
                ("datalog", "ans(S) :- sailors(S, {}, R, A).")):
            self.serve(pipeline, template.format("'Dustin'"), language)
            found = self.serve(pipeline, template.format("'O''Brien'"),
                               language)
            assert found.rows() == [(99,)], language
        assert plan_counters(pipeline)["binds"] == 5

    def test_negative_numbers(self, pipeline):
        # SQL's minus is an operator above the literal: one shape, bound.
        self.serve(pipeline, "SELECT S.sname FROM Sailors S WHERE S.rating > -5")
        self.serve(pipeline, "SELECT S.sname FROM Sailors S WHERE S.rating > -9")
        assert plan_counters(pipeline)["binds"] == 1
        # Datalog's is part of the token: the probe does not come back as
        # (literal, sentinel), so the shape is refused — and still right.
        self.serve(pipeline, "ans(N) :- sailors(S, N, R, A), R > -5.", "datalog")
        self.serve(pipeline, "ans(N) :- sailors(S, N, R, A), R > -1.", "datalog")
        assert plan_counters(pipeline)["refused"] == 1
        assert plan_counters(pipeline)["binds"] == 1

    def test_in_lists_and_between(self, pipeline):
        self.serve(pipeline, "SELECT S.sname FROM Sailors S "
                             "WHERE S.rating IN (7, 8, 9)")
        self.serve(pipeline, "SELECT S.sname FROM Sailors S "
                             "WHERE S.rating IN (1, 3, 10)")
        self.serve(pipeline, "SELECT S.sname FROM Sailors S "
                             "WHERE S.age BETWEEN 30.5 AND 40.0")
        self.serve(pipeline, "SELECT S.sname FROM Sailors S "
                             "WHERE S.age BETWEEN 16.0 AND 35.5")
        assert plan_counters(pipeline) == {
            "entries": 2, "misses": 2, "hits": 2, "binds": 2, "refused": 0}

    def test_int_float_and_string_are_three_shapes(self, pipeline):
        from repro.expr.ast import ExprError

        template = "SELECT S.sname FROM Sailors S WHERE S.age > {}"
        self.serve(pipeline, template.format("40"))
        self.serve(pipeline, template.format("40.5"))
        self.serve(pipeline, template.format("25"))
        assert plan_counters(pipeline) == {
            "entries": 2, "misses": 2, "hits": 1, "binds": 1, "refused": 0}
        # The string shape is a third one.  The engine rejects it (the
        # verifier when it is on, as under this suite; the comparison at
        # execution otherwise), the request falls back, and the interpreter
        # raises the same comparison error — exactly as before.
        for _ in range(2):
            with pytest.raises(ExprError):
                pipeline.answer(template.format("'x'"))
        assert plan_counters(pipeline)["binds"] == 1
        assert plan_counters(pipeline)["refused"] == 0

    @pytest.mark.parametrize("first, second", [
        ("SELECT S.sname FROM Sailors S WHERE S.sname LIKE 'D%'",
         "SELECT S.sname FROM Sailors S WHERE S.sname LIKE '%o%'"),
        ("SELECT S.sname FROM Sailors S ORDER BY S.sname LIMIT 2",
         "SELECT S.sname FROM Sailors S ORDER BY S.sname LIMIT 5"),
        ("SELECT S.sname FROM Sailors S -- the top 5\n WHERE S.rating > 7",
         "SELECT S.sname FROM Sailors S -- the top 9\n WHERE S.rating > 7"),
    ], ids=["like", "limit", "comment"])
    def test_refused_shapes_are_counted_and_still_correct(
            self, pipeline, first, second):
        assert scan_literals(first)[0] == scan_literals(second)[0]
        a = self.serve(pipeline, first)
        b = self.serve(pipeline, second)
        assert plan_counters(pipeline) == {
            "entries": 3, "misses": 2, "hits": 0, "binds": 0, "refused": 1}
        self.serve(pipeline, first)      # its exact text is a plan hit
        assert plan_counters(pipeline)["hits"] == 1
        assert plan_counters(pipeline)["binds"] == 0
        if "LIMIT" in first:
            assert (len(a), len(b)) == (2, 5)

    def test_a_digit_in_a_quoted_identifier_is_not_lifted(self, pipeline):
        self.serve(pipeline, 'SELECT S.sname AS "name 1" FROM Sailors S '
                             'WHERE S.rating > 7')
        renamed = self.serve(pipeline, 'SELECT S.sname AS "name 2" '
                                       'FROM Sailors S WHERE S.rating > 7')
        assert renamed.attribute_names == ("name 2",)
        self.serve(pipeline, 'SELECT S.sname AS "name 2" FROM Sailors S '
                             'WHERE S.rating > 3')
        assert plan_counters(pipeline) == {
            "entries": 2, "misses": 2, "hits": 1, "binds": 1, "refused": 0}


class TestLookup:
    def test_schema_changes_invalidate_shapes(self, pipeline):
        """(d): add_relation / drop_relation invalidate shapes as they
        invalidated plans."""
        sql = "SELECT T.b FROM T WHERE T.a > {}"
        db = pipeline.db
        db.add_relation(relation_from_rows(
            "T", [("a", "int"), ("b", "str")], [(1, "x"), (5, "y")]))
        assert pipeline.answer(sql.format(0)).rows() == [("x",), ("y",)]
        assert pipeline.answer(sql.format(3)).rows() == [("y",)]
        db.add_relation(relation_from_rows(
            "T", [("b", "str"), ("a", "int")], [("z", 9)]))
        assert pipeline.answer(sql.format(3)).rows() == [("z",)]
        assert plan_counters(pipeline)["misses"] == 2
        db.drop_relation("T")
        from repro.data.schema import SchemaError
        from repro.sql.evaluate import SQLEvaluationError

        with pytest.raises((SchemaError, SQLEvaluationError)):
            pipeline.answer(sql.format(4))   # not the stale plan's rows

    def test_concurrent_misses_publish_one_usable_entry(self, pipeline):
        """(e): eight threads missing one shape at once."""
        sql = "SELECT S.sname FROM Sailors S WHERE S.rating > {}"
        expected = {n: oracle(sql.format(n), "sql", pipeline.db)
                    for n in range(8)}
        barrier = threading.Barrier(8)
        failures: list[str] = []

        def miss(n: int) -> None:
            barrier.wait(timeout=30)
            for _ in range(5):
                if not pipeline.answer(sql.format(n)).bag_equal(expected[n]):
                    failures.append(f"rating > {n}")

        threads = [threading.Thread(target=miss, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        counters = plan_counters(pipeline)
        assert counters["entries"] == 1 and counters["refused"] == 0
        assert counters["hits"] + counters["misses"] == 40
        assert pipeline.answer(sql.format(9)).bag_equal(
            oracle(sql.format(9), "sql", pipeline.db))
        assert plan_counters(pipeline)["misses"] == counters["misses"]

    def test_a_fallback_parses_once_and_syntax_errors_still_surface(
            self, monkeypatch):
        import repro.core.pipeline as pipeline_module

        parsed: list[str] = []
        real_parse = pipeline_module._parse

        def counting_parse(text, language):
            parsed.append(text)
            return real_parse(text, language)

        monkeypatch.setattr(pipeline_module, "_parse", counting_parse)
        fallback = ("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
                    "ON S.sid = R.sid WHERE R.sid IS NULL AND S.rating > 7")
        service = QueryService(sailors_database())
        result = service.query(fallback)
        assert result.warnings and "fallback" in result.warnings[0]
        assert parsed == [fallback]      # once, for lowering and fallback
        del parsed[:]
        served = service.pipeline.run(fallback, formalism="sqlvis")
        assert not served.used_engine and parsed == [fallback]
        with pytest.raises(QueryParseError):
            service.query("SELEC oops FROM", language="sql")
        with pytest.raises(SQLSyntaxError):
            service.prepare("SELEC oops FROM", language="sql")


class TestPreparedShapes:
    def test_prepared_plans_hold_plain_constants(self):
        pipeline = QueryVisualizationPipeline(sailors_database())
        sql = "SELECT S.sname FROM Sailors S WHERE S.rating > {}"
        for n in (7, 3):
            plan = pipeline.prepare_plan(sql.format(n), "sql")
            consts = [node for node in _leaves(plan)
                      if isinstance(node, e.Const)]
            assert [(c.value, c.slot) for c in consts] == [(n, None)]
        # A view built on a literal variant maintains the variant's rows.
        service = QueryService(sailors_database())
        service.prepare(sql.format(7))
        view = service.register_view(sql.format(3), name="above_3")
        service.add_row("Sailors", (98, "Nemo", 4, 30.0))
        assert view.answer().bag_equal(
            oracle(sql.format(3), "sql", service.db))
        assert view.strategy == "bag"


# ---------------------------------------------------------------------------
# A plan hit executes the cached template, its literals as parameters
# ---------------------------------------------------------------------------

def _template_of(pipeline, text: str, language: str):
    shape, _literals = scan_literals(text)
    return pipeline._plan_cache.get(
        (language, shape, pipeline.db.structure_version))


@pytest.mark.parametrize("backend", ["row", "vectorized"])
@pytest.mark.parametrize("language, first, second", [
    ("sql",
     "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid "
     "AND R.bid = 103 AND S.age > 30.5",
     "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid "
     "AND R.bid = 102 AND S.age > 20.5"),
    ("datalog",
     "ans(N) :- sailors(S, N, R, A), reserves(S, 103, D), A > 30.5.",
     "ans(N) :- sailors(S, N, R, A), reserves(S, 102, D), A > 20.5."),
], ids=["sql", "datalog"])
def test_a_hit_memoizes_under_the_templates_own_nodes(
        monkeypatch, backend, language, first, second):
    """No copy of the spine above the slotted nodes is built: either
    program is compiled from the cached template's own nodes, once, by the
    miss, and a hit compiles nothing."""
    from repro.engine.execute import _Compiler
    from repro.engine.vectorized import _BatchCompiler

    pipeline = QueryVisualizationPipeline(sailors_database(), backend=backend)
    pipeline.backend = executor(backend)
    cls = _Compiler if backend == "row" else _BatchCompiler
    real = cls._operator
    keys: list = []

    def spy(self, plan):
        keys.append(plan)
        return real(self, plan)

    monkeypatch.setattr(cls, "_operator", spy)
    pipeline.answer(first, language=language)
    template = _template_of(pipeline, first, language)
    own = {id(node) for node in _leaves(template)}
    assert keys and all(id(plan) in own for plan in keys), [
        type(plan).__name__ for plan in keys if id(plan) not in own]
    assert len({id(plan) for plan in keys}) == len(keys)
    del keys[:]
    answers = pipeline.answer(second, language=language)
    assert answers.bag_equal(oracle(second, language, pipeline.db))
    assert plan_counters(pipeline)["binds"] == 1
    assert keys == []


#: A shape whose only slotted node is an index lookup's filter, and one
#: whose filter also compares a column (a comparison at the filter's
#: resolved position, on either executor).
LOOKUP_SHAPE = ("SELECT S.sname, R.day FROM Sailors S, Reserves R "
                "WHERE S.sid = R.sid AND R.bid = {}")
COMPARE_SHAPE = ("SELECT S.sname FROM Sailors S, Reserves R WHERE "
                 "S.sid = R.sid AND R.bid = {} AND S.age > {}.5")


@pytest.mark.parametrize("backend, shape, literals", [
    ("row", LOOKUP_SHAPE, [(101,), (102,), (103,), (104,)]),
    ("vectorized", LOOKUP_SHAPE, [(101,), (102,), (103,), (104,)]),
    ("vectorized", COMPARE_SHAPE, [(101, 20), (102, 30), (103, 40),
                                   (104, 16)]),
    ("row", COMPARE_SHAPE, [(101, 20), (102, 30), (103, 40), (104, 16)]),
], ids=["row-lookup", "vectorized-lookup", "vectorized-compare",
        "row-compare"])
def test_hits_resolve_no_columns(monkeypatch, backend, shape, literals):
    """A bound copy takes its template node's resolved column positions, so
    after the first hit of a shape no further hit resolves a column (the
    REPRO_VERIFY_PLANS certificate of each bind, which resolves them all,
    is off here)."""
    import sys

    from repro.engine.plan import resolve_column

    monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
    pipeline = QueryVisualizationPipeline(sailors_database(), backend=backend)
    pipeline.backend = executor(backend)
    pipeline.answer(shape.format(103, 35))   # the miss
    pipeline.answer(shape.format(102, 25))   # the first hit
    texts = [shape.format(*values) for values in literals]
    expected = [oracle(text, "sql", pipeline.db) for text in texts]
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return resolve_column(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "resolve_column", None) is resolve_column:
            monkeypatch.setattr(module, "resolve_column", counted)
    answers = [pipeline.answer(text) for text in texts]
    monkeypatch.undo()
    assert all(a.bag_equal(b) for a, b in zip(answers, expected)), texts
    assert plan_counters(pipeline)["binds"] == 1 + len(literals)
    assert calls == []


@pytest.mark.parametrize("backend", ["row", "vectorized"])
@pytest.mark.parametrize("shape, literals", [
    (LOOKUP_SHAPE, [(101,), (102,), (103,), (104,)]),
    (COMPARE_SHAPE, [(101, 20), (102, 30), (103, 40), (104, 16)]),
], ids=["lookup", "compare"])
def test_row_hits_bind_no_node(monkeypatch, backend, shape, literals):
    """A hit calls the template's compiled program, row or columnar, with
    its literals: the lookup key and the compared constant are read from
    them, and no node is bound (the REPRO_VERIFY_PLANS certificate of each
    bind, which binds the whole plan, is off here)."""
    import sys

    from repro.engine.bind import bind_node

    monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
    pipeline = QueryVisualizationPipeline(sailors_database(), backend=backend)
    pipeline.backend = executor(backend)
    pipeline.answer(shape.format(103, 35))   # the miss
    texts = [shape.format(*values) for values in literals]
    expected = [oracle(text, "sql", pipeline.db) for text in texts]
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return bind_node(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "bind_node", None) is bind_node:
            monkeypatch.setattr(module, "bind_node", counted)
    answers = [pipeline.answer(text) for text in texts]
    monkeypatch.undo()
    assert all(a.bag_equal(b) for a, b in zip(answers, expected)), texts
    assert plan_counters(pipeline)["binds"] == len(literals)
    assert calls == []


def test_a_five_language_sweep_compiles_once_per_template():
    """25 shapes x 100 literals through one service: each template is
    compiled to its row program by its miss, and every hit calls it."""
    from repro.engine.cache import path_counts

    service = QueryService(sailors_database())
    before = path_counts()["plan_compile"]
    served = 0
    for language, text in catalog_texts():
        for k in range(100):
            variant = text.replace("30.5", f"{10 + 0.5 * k:.2f}")
            service.query(variant, language=language)
            served += 1
    compiles = path_counts()["plan_compile"] - before
    info = service.cache_info()
    assert info["result_hits"] == 0 and info["plan_misses"] == 25
    assert compiles == 25
    assert (served - compiles) / served >= 0.99


@pytest.mark.parametrize("backend", ["row", "vectorized"])
def test_fresh_literals_compile_nothing(backend):
    """A stream of fresh literals through one shape calls the program its
    miss compiled: the nodes bound to one request's literals are bound per
    call, and no plan compiles again."""
    from repro.engine.cache import path_counts

    pipeline = QueryVisualizationPipeline(sailors_database(), backend=backend)
    pipeline.backend = executor(backend)
    text = ("SELECT S.sname, S.age * {} AS scaled FROM Sailors S "
            "WHERE S.rating > {} OR S.sname = 'Dustin'")
    pipeline.answer(text.format(2, 7))
    pipeline.answer(text.format(3, 6))
    compiles = path_counts()["plan_compile"]
    for k in range(4, 10):
        answers = pipeline.answer(text.format(k, 10 - k))
        assert answers.bag_equal(
            oracle(text.format(k, 10 - k), "sql", pipeline.db))
    assert path_counts()["plan_compile"] == compiles
    assert plan_counters(pipeline)["binds"] == 7


#: ``(id, language, text, first literals, second literals)``: slots where
#: the five-language sweep never puts one — aggregates, projections, the
#: first conjunct a point lookup reads, ``OR``, ``IN`` and ``BETWEEN``.
EDGE_SHAPES = [
    ("quoted", "sql", "SELECT S.sid FROM Sailors S WHERE S.sname <> {}",
     ("'O''Brien'",), ("'Dustin'",)),
    ("between", "sql",
     "SELECT S.sname FROM Sailors S WHERE S.age BETWEEN {} AND {}",
     ("30.5", "40.0"), ("16.0", "35.5")),
    ("in-list", "sql",
     "SELECT S.sname FROM Sailors S WHERE S.rating IN ({}, {})",
     ("7", "9"), ("1", "10")),
    ("having", "sql",
     "SELECT S.rating, COUNT(*) AS n FROM Sailors S GROUP BY S.rating "
     "HAVING COUNT(*) > {}", ("1",), ("0",)),
    ("projected", "sql",
     "SELECT S.sname, S.age + {} AS older FROM Sailors S WHERE S.rating > {}",
     ("1.5", "7"), ("10.25", "2")),
    ("or", "sql",
     "SELECT S.sname FROM Sailors S WHERE S.rating = {} OR S.rating = {}",
     ("7", "10"), ("8", "9")),
    ("atom", "datalog", "ans(S, D) :- reserves(S, {}, D).",
     ("103",), ("101",)),
    ("drc", "drc",
     "{{ n | exists s, r, a (Sailors(s, n, r, a) and r = {}) }}",
     ("7",), ("10",)),
    ("trc", "trc", "{{ s.sname | Sailors(s) and s.rating = {} }}",
     ("7",), ("10",)),
]


@pytest.mark.parametrize("backend", ["row", "vectorized"])
@pytest.mark.parametrize("language, text, first, second",
                         [case[1:] for case in EDGE_SHAPES],
                         ids=[case[0] for case in EDGE_SHAPES])
def test_edge_shapes_bind_node_by_node(backend, language, text, first,
                                       second):
    pipeline = QueryVisualizationPipeline(sailors_database(), backend=backend)
    pipeline.backend = executor(backend)
    pipeline.db.relation("Sailors").add((99, "O'Brien", 10, 41.0))
    for literals in (first, second):
        variant = text.format(*literals)
        warnings: list[str] = []
        answers = pipeline.answer(variant, language=language,
                                  warnings=warnings)
        assert not warnings, warnings
        assert answers.bag_equal(oracle(variant, language, pipeline.db)), (
            variant, answers.rows())
    assert plan_counters(pipeline) == {
        "entries": 1, "misses": 1, "hits": 1, "binds": 1, "refused": 0}


@pytest.mark.parametrize("backend", ["sharded", "process"])
def test_routed_point_lookups_answer_their_own_literal(backend, monkeypatch):
    """A routed lookup's shard is picked from its constant: a hit must
    route by the request's literal, not the template's first-seen one."""
    from repro.core.sharded_service import ShardedQueryService
    from repro.engine.sharded import ShardedPlan

    real_route = ShardedPlan.route
    routes: list = []

    def route(compiled, sharded, params=()):
        routes.append(real_route(compiled, sharded, params))
        return routes[-1]

    monkeypatch.setattr(ShardedPlan, "route", route)
    db = sailors_database()
    service = ShardedQueryService(db, backend=backend, n_shards=2,
                                  workers=2 if backend == "process" else None)
    try:
        text = "SELECT R.bid, R.day FROM Reserves R WHERE R.sid = {}"
        sids = sorted({row[0] for row in db.relation("Reserves").rows()})
        assert len(sids) > 2
        for sid in sids:
            answers = service.query(text.format(sid)).relation
            assert answers.bag_equal(oracle(text.format(sid), "sql", db)), sid
            assert len(answers) > 0
        info = service.cache_info()
        assert info["plan_misses"] == 1
        assert info["plan_binds"] == len(sids) - 1
        assert service.backend.execution_counts()["single_shard"] == len(sids)
        assert None not in routes and len(set(routes)) >= 2
    finally:
        service.close()


# ---------------------------------------------------------------------------
# The assumption discovery rests on, kept as a test: lowering is literal-blind
# ---------------------------------------------------------------------------

def _skeleton(node):
    """A lowered plan with every constant's value blanked to its type:
    what may not depend on the literals."""
    if isinstance(node, e.Const):
        return ("Const", type(node.value).__name__)
    if isinstance(node, tuple):
        return tuple(_skeleton(part) for part in node)
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(
            _skeleton(getattr(node, f.name))
            for f in dataclasses.fields(node))
    return node


_LITERALS = {
    int: st.integers(min_value=0, max_value=10**6),
    float: st.floats(min_value=0, max_value=10**6, allow_nan=False).map(
        lambda x: round(x, 3)),
    str: st.text(alphabet="abRZ '%_-.", max_size=6),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pick=st.integers(min_value=0, max_value=24), data=st.data())
def test_lowering_is_literal_blind(pick, data):
    """Perturbing the literals of a text changes its lowered plan only at
    ``Const`` leaves, and there to exactly the perturbed values — so the
    slots found for the first-seen literals are the slots of every variant."""
    db = sailors_database()
    language, text = catalog_texts()[pick]
    shape, literals = scan_literals(text)
    values = tuple(data.draw(_LITERALS[type(v)]) for v in literals)
    variant = sentinel_text(shape, values)
    assert scan_literals(variant) == (shape, values)

    def lowered(source: str):
        return lower(source, db.schema, language)

    first, second = lowered(text), lowered(variant)
    assert _skeleton(first) == _skeleton(second)
    sentinels = sentinels_for(literals)
    slotted = attach_slots(first, lowered(sentinel_text(shape, sentinels)),
                           literals, sentinels)
    assert slotted is not None
    assert bind_plan(slotted, values) == second


class TestOneDatalogPlan:
    """A Datalog program lowers to one plan like the other four languages;
    recursion is one operator in it."""

    #: E1's transitive-closure program (copied, not imported).
    TC_PROGRAM = ("tc(X, Y) :- edge(X, Y).\n"
                  "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
                  "ans(X, Y) :- tc(X, Y).")

    @staticmethod
    def fixpoints(plan):
        return [node for node in plan.walk() if isinstance(node, FixpointP)]

    @pytest.mark.parametrize("query", CANONICAL_QUERIES[:2],
                             ids=lambda query: query.id)
    def test_datalog_and_drc_optimize_to_one_skeleton(self, query):
        db = sailors_database()
        datalog = optimize(lower(query.datalog, db.schema, "datalog"), db)
        drc = optimize(lower(query.drc, db.schema, "drc"), db)
        assert _skeleton(datalog) == _skeleton(drc)

    def test_catalog_programs_have_no_fixpoint(self):
        db = sailors_database()
        for query in CANONICAL_QUERIES:
            assert self.fixpoints(lower(query.datalog, db.schema)) == [], \
                query.id

    def test_transitive_closure_is_one_fixpoint(self):
        db = Database([relation_from_rows(
            "edge", [("src", "int"), ("dst", "int")], [(1, 2), (2, 3)])])
        plan = optimize(lower(self.TC_PROGRAM, db.schema), db)
        (fixpoint,) = self.fixpoints(plan)
        assert (len(fixpoint.rules), len(fixpoint.variants)) == (2, 1)
        assert plan.columns == ("x", "y")
        assert "Fixpoint tc [2 rules, 1 delta variants, 0 facts]" \
            in explain(plan)


# ---------------------------------------------------------------------------
# One join rule: the spellings of a catalog query optimize to one skeleton
# ---------------------------------------------------------------------------

def _operators(node):
    """A plan's operator skeleton: node classes, join kinds, key counts,
    whether a join keeps a residual, set operators and their ``distinct``.
    Names, literals and key semantics (``null_matches``) are ignored."""
    detail = ()
    if isinstance(node, JoinP):
        detail = (node.kind, len(node.left_keys), node.residual is not None)
    elif isinstance(node, SetOpP):
        detail = (node.op, node.distinct)
    return (type(node).__name__, *detail,
            *(_operators(child) for child in node.children()))


#: The spellings of each catalog query that optimize to one skeleton.  RA's
#: duplicate-named natural-join trees and Datalog's rule-per-disjunct Q5
#: are planned apart.
ONE_SKELETON = {
    "Q1": ("SQL", "RA", "TRC", "DRC", "Datalog"),
    "Q2": ("SQL", "TRC", "DRC", "Datalog"),
    "Q3": ("TRC", "DRC"),
    "Q4": ("TRC", "DRC"),
    "Q5": ("SQL", "TRC", "DRC"),
}


@pytest.fixture(scope="module")
def skeleton_instances():
    return {"tutorial": sailors_database(),
            "24k": random_sailors_database(n_sailors=2400, n_boats=100,
                                           n_reserves=24000, seed=13)}


@pytest.mark.parametrize("instance", ["tutorial", "24k"])
@pytest.mark.parametrize("query", CANONICAL_QUERIES, ids=lambda q: q.id)
def test_spellings_optimize_to_one_skeleton(skeleton_instances, instance,
                                            query):
    """A NULL-matching join is planned like any equi-join, filters pass
    positional picks, and SQL subqueries are keyed like the calculus' ¬∃:
    so one query is one operator tree in each spelling listed."""
    db = skeleton_instances[instance]
    skeletons = {
        language: _operators(optimize(lower(text, db.schema,
                                            language.lower()), db))
        for language, text in query.languages().items()
        if language in ONE_SKELETON[query.id]}
    groups: dict = {}
    for language, skeleton in skeletons.items():
        groups.setdefault(skeleton, []).append(language)
    assert len(groups) == 1, f"{query.id}: {list(groups.values())}"


# ---------------------------------------------------------------------------
# One price seats every build: the side built on every execution probes
# ---------------------------------------------------------------------------

#: E4's five-way join-chain view (copied, like the analytic templates).
E4_JOIN_CHAIN = (
    "SELECT DISTINCT S.sname FROM Sailors S, Boats B, Reserves R0, "
    "Reserves R1, Reserves R2 WHERE B.color = 'red' "
    "AND S.sid = R0.sid AND R0.bid = B.bid "
    "AND S.sid = R1.sid AND R1.bid = B.bid "
    "AND S.sid = R2.sid AND R2.bid = B.bid")


def _first_join(plan):
    return next(node for node in plan.walk() if isinstance(node, JoinP))


class TestBuildSeats:
    """:meth:`~repro.engine.stats.StatsCatalog.build_price` seats a join's
    cheaper build on the right: a relation's kept structure costs an
    execution nothing, a build made on every execution its rows."""

    def test_a_star_join_builds_the_dimension(self):
        """K1's ``fact ⋈ dim``: both kept, a tie, so the lone join keeps
        its written order and ``dim`` stays the build that a write to it
        extends.  Filtered, ``dim`` is built on every execution, so it
        probes ``fact``'s kept structure instead."""
        dim = relation_from_rows("dim", [("k", "int"), ("r", "int")],
                                 [(i, i % 7) for i in range(100)])
        fact = relation_from_rows("fact", [("fk", "int")],
                                  [(i % 100,) for i in range(400)])
        db = Database([dim, fact])
        for text, build in (
                ("SELECT d.k FROM fact f, dim d WHERE f.fk = d.k", "dim"),
                ("SELECT d.k FROM fact f, dim d WHERE f.fk = d.k "
                 "AND d.r < 2", "fact")):
            join = _first_join(optimize(lower(text, db.schema, "sql"), db))
            assert join.right.relation == build, text

    def test_a_delta_window_probes_the_asof_relation(self):
        """E4's aggregation term, ``asof(Sailors) ⋈ Δ(Reserves)``: the
        delta window is built on every refresh and ``Sailors`` is kept,
        so the delta is the probe side, whichever way it is written."""
        db = random_sailors_database(n_sailors=240, n_boats=30,
                                     n_reserves=2400, seed=4)
        sailors = DeltaScanP("Sailors", ("S.sid", "S.sname", "S.rating",
                                         "S.age"), 1, "asof")
        delta = DeltaScanP("Reserves", ("R.sid", "R.bid", "R.day"), 1,
                           "delta")
        for left, right in ((sailors, delta), (delta, sailors)):
            written = JoinP(left, right, "inner",
                            ("S.sid" if left is sailors else "R.sid",),
                            ("R.sid" if left is sailors else "S.sid",))
            join = _first_join(optimize(written, db))
            assert (join.left, join.right) == (delta, sailors)

    def test_join_chain_refreshes_run_on_rows(self):
        """E4's join-chain terms probe with the written rows at every
        join: no operator has the kernels' rows at stake, so the
        ``"vectorized"`` backend refreshes the view on the row program,
        which reads each kept build through its key index and copies no
        window."""
        from repro.engine.kernels import path_counts

        db = random_sailors_database(n_sailors=480, n_boats=30,
                                     n_reserves=4800, seed=4)
        service = QueryService(db)
        view = service.register_view(E4_JOIN_CHAIN)
        view.answer()
        before = path_counts()
        for i in range(3):
            service.add_rows("Reserves", [
                ((i * 7 + j) % 480 + 1, (i * 3 + j) % 30 + 101,
                 f"2031-04-{j + 1:02d}") for j in range(10)])
            answer = view.answer()
        after = path_counts()
        assert (after["plan_rows"] - before["plan_rows"],
                after["plan_columnar"] - before["plan_columnar"]) == (3, 0)
        # A from-scratch recompute: the interpreters would materialize a
        # five-way product.
        assert answer.bag_equal(
            QueryVisualizationPipeline(db).answer(E4_JOIN_CHAIN))
