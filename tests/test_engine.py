"""Differential tests: the unified plan engine vs. the five reference interpreters.

The engine (`repro.engine`) compiles SQL, RA, TRC, DRC, and Datalog into one
logical plan IR and executes it with hash-based physical operators.  The
per-language evaluators remain the semantic oracles: every test here asserts
bag-equality (set-equality for the calculi, whose outputs are sets by
construction) between the engine and the reference on the full canonical
catalog, with and without the optimizer, on the cow-book instance and on
random instances.
"""

from __future__ import annotations

from collections import Counter

import pytest

from gates import executor
from repro.data.database import Database
from repro.data.relation import relation_from_rows
from repro.data.sailors import random_sailors_database, sailors_database
from repro.datalog.evaluate import evaluate_datalog
from repro.engine import (
    DistinctP,
    FilterP,
    JoinP,
    LoweringError,
    ProjectP,
    ScanP,
    common_subplan_count,
    estimate_rows,
    execute_plan,
    kernels,
    lower,
    optimize,
    run_query,
)
from repro.expr import ast as e
from repro.queries import CANONICAL_QUERIES, LANGUAGES
from repro.translate.equivalence import answer_relation, standard_database_battery

pytestmark = []


def nulls_database() -> Database:
    """The tutorial instance plus a NULL in every column the catalog joins
    or filters on: what a ``POST /write`` may add even under validation."""
    db = sailors_database()
    for relation, row in (("Reserves", (None, 103, "2024-01-01")),
                          ("Reserves", (22, None, "2024-01-02")),
                          ("Sailors", (None, "Nil", None, None)),
                          ("Sailors", (77, None, 7, 20.0)),
                          ("Boats", (None, "Ghost", None))):
        db.relation(relation).add(row)
    return db


ALL_CELLS = [
    pytest.param(query, language, id=f"{query.id}-{language}")
    for query in CANONICAL_QUERIES
    for language in LANGUAGES
]

#: The catalog on the tutorial instance (bare ids) and on ``nulls_database``.
CATALOG_INSTANCES = [
    pytest.param(make_db, query, language, id=f"{prefix}{query.id}-{language}")
    for prefix, make_db in (("", sailors_database), ("nulls-", nulls_database))
    for query in CANONICAL_QUERIES
    for language in LANGUAGES
]


class TestDifferentialCatalog:
    """Engine results match all five interpreters over the whole catalog."""

    @pytest.mark.parametrize("make_db,query,language", CATALOG_INSTANCES)
    def test_catalog_matches_reference(self, make_db, query, language):
        db = make_db()
        text = query.languages()[language]
        engine = run_query(text, db, language.lower())
        reference = answer_relation(text, db)
        assert engine.bag_equal(reference), (
            f"{query.id}/{language}: engine {sorted(map(repr, engine.rows()))} "
            f"!= reference {sorted(map(repr, reference.rows()))}"
        )

    @pytest.mark.parametrize("query,language", ALL_CELLS)
    def test_catalog_matches_without_optimizer(self, db, query, language):
        text = query.languages()[language]
        engine = run_query(text, db, language.lower(), use_optimizer=False)
        reference = answer_relation(text, db)
        assert engine.bag_equal(reference)

    @pytest.mark.parametrize("query,language", ALL_CELLS)
    def test_catalog_matches_on_random_instances(self, query, language):
        text = query.languages()[language]
        for instance in standard_database_battery(extra_random=2, rows=8):
            engine = run_query(text, instance, language.lower())
            reference = answer_relation(text, instance)
            assert engine.bag_equal(reference), f"{query.id}/{language} disagrees"

    def test_expected_names(self, db, canonical_query):
        for language, text in canonical_query.languages().items():
            result = run_query(text, db, language.lower())
            assert {row[0] for row in result.distinct_rows()} == set(
                canonical_query.expected_names), f"{canonical_query.id}/{language}"


def shared_nulls_database() -> Database:
    """The tutorial instance plus a reservation whose sailor and boat are
    both NULL, and one whose sailor and boat are the same value."""
    db = sailors_database()
    for row in ((None, None, "2024-01-01"), (7, 7, "2024-01-02")):
        db.relation("Reserves").add(row)
    return db


#: A variable shared by two atoms, repeated in one atom, or guarded only
#: under ∃: the engine and the interpreters all let it take NULL.
VARIABLE_JOINS = [
    pytest.param("datalog", "ans(S) :- reserves(S, S, D).", id="within-atom-datalog"),
    pytest.param("drc", "{ s | exists d (Reserves(s, s, d)) }", id="within-atom-drc"),
    pytest.param("datalog", "ans(S) :- reserves(S, B, D), reserves(B, S, D).",
                 id="cross-atom-datalog"),
    pytest.param("drc", "{ s | exists b, d (Reserves(s, b, d) and "
                 "Reserves(b, s, d)) }", id="cross-atom-under-exists-drc"),
    pytest.param("drc", "{ s | exists b, d (Reserves(s, b, d)) }",
                 id="under-exists-drc"),
    pytest.param("drc", "{ s, b, d | Reserves(s, b, d) }", id="head-drc"),
]


@pytest.mark.parametrize("backend", ["row", "vectorized"])
@pytest.mark.parametrize("language,text", VARIABLE_JOINS)
def test_variable_joins_match_nulls(language, text, backend):
    db = shared_nulls_database()
    reference = answer_relation(text, db)
    assert any(None in row for row in reference.rows()), text
    engine = run_query(text, db, language, backend=executor(backend))
    assert engine.bag_equal(reference), (
        f"engine {sorted(map(repr, engine.rows()))} != "
        f"reference {sorted(map(repr, reference.rows()))}")


class TestSQLFragment:
    """Engine coverage of SQL beyond the catalog queries."""

    EXTRA_SQL = [
        "SELECT B.color, COUNT(*) AS n FROM Boats B GROUP BY B.color",
        "SELECT B.color, COUNT(*) AS n FROM Boats B GROUP BY B.color HAVING COUNT(*) > 1",
        "SELECT S.sname FROM Sailors S WHERE S.rating > 7 ORDER BY S.sname LIMIT 3",
        "SELECT S.sname, S.age FROM Sailors S ORDER BY S.age DESC, S.sname",
        "SELECT S.sid FROM Sailors S INTERSECT SELECT R.sid FROM Reserves R",
        "SELECT S.sid FROM Sailors S EXCEPT SELECT R.sid FROM Reserves R",
        "SELECT R.sid FROM Reserves R UNION ALL SELECT R2.sid FROM Reserves R2",
        "SELECT * FROM Boats B WHERE B.color = 'red'",
        "SELECT DISTINCT S.sname FROM Sailors S JOIN Reserves R ON S.sid = R.sid",
        "SELECT MAX(S.age) AS m, MIN(S.rating) AS lo FROM Sailors S",
        "SELECT AVG(S.age) AS a FROM Sailors S WHERE S.rating > 100",
        "SELECT T.sname FROM (SELECT S.sname, S.rating FROM Sailors S) T "
        "WHERE T.rating >= 9",
        "SELECT COUNT(*) AS n FROM Sailors S, Reserves R WHERE S.sid = R.sid",
        "SELECT S.sname FROM Sailors S WHERE S.age BETWEEN 20 AND 30",
        "SELECT S.sname FROM Sailors S WHERE S.sname LIKE 'H%'",
        "SELECT S.sname FROM Sailors S WHERE S.rating IN (9, 10)",
    ]

    @pytest.mark.parametrize("sql", EXTRA_SQL)
    def test_extra_sql_matches_reference(self, db, sql):
        assert run_query(sql, db, "sql").bag_equal(answer_relation(sql, db))

    #: ``x NOT IN S`` is UNKNOWN when S holds a NULL, or when x is NULL
    #: and S is nonempty: a WHERE clause drops the row either way.
    NOT_IN_UNDER_NULLS = [
        # a NULL in the subquery
        "SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
        "(SELECT R.sid FROM Reserves R)",
        # a NULL operand
        "SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
        "(SELECT R.sid FROM Reserves R WHERE R.sid IS NOT NULL)",
        # a correlated subquery that holds a NULL for one outer row only
        "SELECT S.sname FROM Sailors S WHERE S.rating NOT IN "
        "(SELECT R.bid FROM Reserves R WHERE R.sid = S.sid)",
    ]

    @pytest.mark.parametrize("backend", ["row", "vectorized", "sharded"])
    @pytest.mark.parametrize("sql", NOT_IN_UNDER_NULLS)
    def test_not_in_is_exact_under_nulls(self, sql, backend):
        db = nulls_database()
        reference = answer_relation(sql, db)
        assert run_query(sql, db, "sql", backend=executor(backend)
                         ).bag_equal(reference)
        assert run_query(sql, db, "sql", use_optimizer=False).bag_equal(reference)

    #: (NOT IN, the NOT EXISTS it equals on data without NULLs).
    NOT_IN_WITHOUT_NULLS = [
        ("SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
         "(SELECT R.sid FROM Reserves R, Boats B "
         "WHERE R.bid = B.bid AND B.color = 'green')",
         "SELECT S.sname FROM Sailors S WHERE NOT EXISTS "
         "(SELECT R.sid FROM Reserves R, Boats B "
         "WHERE R.bid = B.bid AND B.color = 'green' AND R.sid = S.sid)"),
        ("SELECT S.sname FROM Sailors S WHERE S.rating NOT IN "
         "(SELECT R.bid FROM Reserves R WHERE R.sid = S.sid)",
         "SELECT S.sname FROM Sailors S WHERE NOT EXISTS "
         "(SELECT R.bid FROM Reserves R WHERE R.sid = S.sid "
         "AND R.bid = S.rating)"),
    ]

    @pytest.mark.parametrize("not_in,not_exists", NOT_IN_WITHOUT_NULLS,
                             ids=["uncorrelated", "correlated"])
    def test_not_in_null_guards_join_by_keys(self, not_in, not_exists):
        # Each NULL guard tests one side below the product; a residual on the
        # product would run once per (outer row, subquery row) pair.
        big = random_sailors_database(n_sailors=2400, n_boats=100,
                                      n_reserves=24000, seed=13)
        plan = optimize(lower(not_in, big.schema, "sql"), big)
        assert not [node for node in plan.walk()
                    if isinstance(node, JoinP) and node.residual is not None]
        expected = run_query(not_exists, big, "sql")
        for backend in ("row", "vectorized"):
            assert run_query(not_in, big, "sql", backend=backend).bag_equal(expected)

    def test_subqueries_key_on_the_outer_columns_they_read(self, db):
        # Q3's IN and NOT IN, and Q4's outer NOT EXISTS, read S.sid only;
        # Q4's inner NOT EXISTS reads S.sid and B.bid.
        def keys(query):
            plan = lower(query.sql, db.schema, "sql")
            return {(node.kind, node.left_keys) for node in plan.walk()
                    if isinstance(node, JoinP)
                    and node.kind in ("semi", "anti")}

        q3, q4 = CANONICAL_QUERIES[2], CANONICAL_QUERIES[3]
        assert keys(q3) == {("semi", ("S.sid",)), ("anti", ("S.sid",))}
        assert keys(q4) == {("anti", ("S.sid",)),
                            ("anti", ("S.sid", "B.bid"))}

    def test_unsupported_sql_raises_lowering_error(self, db):
        with pytest.raises(LoweringError):
            run_query("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
                      "ON S.sid = R.sid", db, "sql")

    def test_subquery_reusing_outer_alias_is_rejected_not_mislowered(self, db):
        # SQL scoping says the inner S shadows the outer S; the flat dependent
        # join cannot express that, so the engine must refuse (and the
        # pipeline falls back) rather than silently bind to the outer alias.
        sql = ("SELECT S.sname FROM Sailors S WHERE EXISTS "
               "(SELECT S.rating FROM Sailors S WHERE S.rating > 9)")
        with pytest.raises(LoweringError):
            run_query(sql, db, "sql")
        from repro.core import QueryVisualizationPipeline
        from repro.sql.evaluate import evaluate_sql

        result = QueryVisualizationPipeline(db).run(sql)
        assert not result.used_engine
        assert result.answers is not None
        assert result.answers.bag_equal(evaluate_sql(sql, db))


#: ``HAVING`` with an aggregate under each composite expression node; the
#: engine reads each aggregate as the column the aggregate node computed.
HAVING_LOWERED = {
    "like": "HAVING MAX(S.sname) LIKE 'H%'",
    "between": "HAVING AVG(S.age) BETWEEN 30 AND 50",
    "in-list": "HAVING COUNT(*) IN (1, 3)",
    "not": "HAVING NOT (COUNT(*) > 1)",
    "is-null": "HAVING MAX(S.age) IS NULL",
    "arithmetic": "HAVING MAX(S.age) - MIN(S.age) > 10",
    "function": "HAVING ABS(MIN(S.age) - 40) < 10",
}

#: The subquery forms, which lowering refuses in ``HAVING``: the interpreter
#: answers them.  Rows worked by hand from the tutorial instance, then from
#: ``nulls_database``, whose rating-7 group gains an age of 20.0, whose NULL
#: rating forms a group of its own with a NULL age, and whose ``Sailors.age``
#: column holds a NULL that leaves every ``>= ALL`` UNKNOWN.
HAVING_SUBQUERIES = [
    pytest.param(make_db, having, rows, id=f"{instance}-{form}")
    for form, having, tutorial_rows, nulls_rows in (
        ("in-subquery", "HAVING MAX(S.age) IN "
         "(SELECT S2.age FROM Sailors S2 WHERE S2.rating = 10)",
         [(9,), (10,)], [(9,), (10,)]),
        ("all", "HAVING MAX(S.age) >= ALL (SELECT S2.age FROM Sailors S2)",
         [(3,)], []),
        ("any", "HAVING MIN(S.age) = ANY "
         "(SELECT S2.age FROM Sailors S2 WHERE S2.rating > 8)",
         [(7,), (9,), (10,)], [(9,), (10,)]))
    for instance, make_db, rows in (("tutorial", sailors_database, tutorial_rows),
                                    ("nulls", nulls_database, nulls_rows))
]

class TestHavingDifferential:
    """The service answers ``HAVING`` over every composite node as the SQL
    interpreter does."""

    @staticmethod
    def _served(text, db):
        from repro.core import QueryService
        from repro.sql.evaluate import evaluate_sql

        warnings: list[str] = []
        answer = QueryService(db).answer(text, warnings=warnings)
        assert answer.bag_equal(evaluate_sql(text, db))
        return answer, warnings

    @pytest.mark.parametrize("make_db", [sailors_database, nulls_database],
                             ids=["tutorial", "nulls"])
    @pytest.mark.parametrize("having", HAVING_LOWERED.values(),
                             ids=HAVING_LOWERED.keys())
    def test_lowered_forms_match_the_interpreter(self, make_db, having):
        text = ("SELECT S.rating, MAX(S.sname) AS m, COUNT(*) AS n "
                f"FROM Sailors S GROUP BY S.rating {having}")
        _answer, warnings = self._served(text, make_db())
        assert warnings == []

    @pytest.mark.parametrize("make_db,having,rows", HAVING_SUBQUERIES)
    def test_subquery_forms_match_hand_computed_rows(self, make_db, having,
                                                     rows):
        text = f"SELECT S.rating FROM Sailors S GROUP BY S.rating {having}"
        answer, _warnings = self._served(text, make_db())
        assert sorted(answer.rows()) == rows

    def test_a_grouped_select_list_subquery_is_refused_at_lowering(self):
        """As in an ungrouped SELECT list: lowering refuses it, so the
        fallback's reason names the lowering rule, never the compiler."""
        db = sailors_database()
        text = ("SELECT S.rating, MAX(S.age) IN (SELECT S2.age FROM "
                "Sailors S2 WHERE S2.rating = 10) AS hit FROM Sailors S "
                "GROUP BY S.rating")
        with pytest.raises(LoweringError,
                           match="subqueries in the SELECT list"):
            lower(text, db.schema, "sql")
        _answer, warnings = self._served(text, db)
        assert len(warnings) == 1
        assert "subqueries in the SELECT list are not lowered" in warnings[0]
        assert "compile" not in warnings[0]


class TestDRCFragment:
    """Engine coverage of DRC scoping beyond the catalog queries."""

    EXTRA_DRC = [
        # An inner quantifier rebinds the head variable's name.
        "{ n | exists s, r, a (Sailors(s, n, r, a) and "
        "exists n, c (Boats(102, n, c))) }",
        # Sibling scopes reuse a name: the two days are unrelated.
        "{ n | exists s, r, a (Sailors(s, n, r, a) and "
        "exists d (Reserves(s, 102, d)) and exists d (Reserves(s, 103, d))) }",
    ]

    @pytest.mark.parametrize("drc", EXTRA_DRC)
    def test_extra_drc_matches_reference(self, db, drc):
        engine = run_query(drc, db, "drc")
        assert not engine.is_empty()
        assert engine.bag_equal(answer_relation(drc, db))

    def test_a_repeated_head_variable_names_its_columns_apart(self, db):
        drc = "{ x, x | exists n, r, a (Sailors(x, n, r, a)) }"
        for answer in (run_query(drc, db, "drc"), answer_relation(drc, db)):
            assert answer.attribute_names == ("x", "x_2")
            assert len(answer) == len(db.relation("Sailors"))


class TestTRCFragment:
    """Engine coverage of TRC (lowered through its DRC translation) beyond
    the catalog queries."""

    EXTRA_TRC = [
        # Sibling scopes reuse a name over one relation.
        "{ s.sname | Sailors(s) and exists r (Reserves(r) and r.sid = s.sid "
        "and r.bid = 102) and exists r (Reserves(r) and r.sid = s.sid and r.bid = 103) }",
        # The same, with attributes spelled in another case than the schema's.
        "{ s.sname | Sailors(s) and exists r (Reserves(r) and r.SID = s.sid "
        "and r.bid = 102) and exists r (Reserves(r) and r.SID = s.sid and r.bid = 103) }",
        # `implies` without `forall`.
        "{ s.sname | Sailors(s) and (s.rating > 7 implies "
        "exists r (Reserves(r) and r.sid = s.sid)) }",
        # `forall` over a disjunctive body.
        "{ s.sname | Sailors(s) and forall b (not Boats(b) or b.color = 'green' "
        "or exists r (Reserves(r) and r.sid = s.sid and r.bid = b.bid)) }",
        # A two-variable head.
        "{ s.sname, b.bname | Sailors(s) and Boats(b) and "
        "exists r (Reserves(r) and r.sid = s.sid and r.bid = b.bid) }",
        # A negated conjunction.
        "{ s.sname | Sailors(s) and not (s.rating > 7 and "
        "exists r (Reserves(r) and r.sid = s.sid)) }",
    ]
    #: Queries that reuse a name over another relation, each with the same
    #: query renamed apart (the form the TRC interpreter accepts).
    SCOPED_TRC = [
        ("{ s.sname | Sailors(s) and exists r (Reserves(r) and r.sid = s.sid) "
         "and exists r (Boats(r) and r.color = 'red') }",
         "{ s.sname | Sailors(s) and exists r (Reserves(r) and r.sid = s.sid) "
         "and exists b (Boats(b) and b.color = 'red') }"),
        ("{ s.sname | Sailors(s) and exists s (Reserves(s) and s.bid = 101) }",
         "{ s.sname | Sailors(s) and exists r (Reserves(r) and r.bid = 101) }"),
    ]

    @pytest.mark.parametrize("trc,reference", [(t, t) for t in EXTRA_TRC] + SCOPED_TRC)
    def test_extra_trc_matches_reference(self, db, trc, reference):
        assert not run_query(trc, db, "trc").is_empty()
        for instance in standard_database_battery(extra_random=2, rows=8):
            engine = run_query(trc, instance, "trc")
            assert engine.bag_equal(answer_relation(reference, instance))

    @pytest.mark.parametrize("query", [q for q in CANONICAL_QUERIES
                                       if q.id in ("Q1", "Q2", "Q5")],
                             ids=lambda q: q.id)
    def test_catalog_joins_are_keyed(self, db, query):
        plan = optimize(lower(query.trc, db.schema, "trc"), db)
        joins = [n for n in plan.walk() if isinstance(n, JoinP)]
        assert joins and all(join.left_keys for join in joins)


class TestSemiNaiveDatalog:
    def _edge_db(self, n: int, extra=()) -> Database:
        edges = [(i, i + 1) for i in range(1, n)] + list(extra)
        return Database([
            relation_from_rows("edge", [("src", "int"), ("dst", "int")], edges)
        ])

    def test_transitive_closure_matches_naive(self):
        db = self._edge_db(25, extra=[(10, 2), (20, 5)])
        program = ("tc(X, Y) :- edge(X, Y).\n"
                   "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
                   "ans(X, Y) :- tc(X, Y).")
        engine = run_query(program, db, "datalog")
        reference = evaluate_datalog(program, db)
        assert engine.bag_equal(reference)

    def test_nonlinear_recursion(self):
        db = self._edge_db(12)
        program = ("tc(X, Y) :- edge(X, Y).\n"
                   "tc(X, Z) :- tc(X, Y), tc(Y, Z).\n"
                   "ans(X, Y) :- tc(X, Y).")
        engine = run_query(program, db, "datalog")
        reference = evaluate_datalog(program, db)
        assert engine.bag_equal(reference)

    def test_stratified_negation_over_recursion(self):
        db = self._edge_db(10, extra=[(30, 31)])
        program = ("reach(Y) :- edge(1, Y).\n"
                   "reach(Z) :- reach(Y), edge(Y, Z).\n"
                   "isolated(X) :- edge(X, Y), not reach(X).\n"
                   "ans(X) :- isolated(X).")
        engine = run_query(program, db, "datalog")
        reference = evaluate_datalog(program, db)
        assert engine.bag_equal(reference)

    def test_facts_and_constants(self, db):
        program = ("special(102).\n"
                   "ans(N) :- sailors(S, N, R, A), reserves(S, B, D), special(B).")
        engine = run_query(program, db, "datalog")
        reference = evaluate_datalog(program, db)
        assert engine.bag_equal(reference)


class TestDatalogAnswers:
    EMPTY = "ans(N, 1) :- sailors(S, N, R, A), R > 99."
    UNDEFINED = "ans(X) :- nothere(X)."

    def test_an_empty_answer_keeps_the_heads_arity(self, db):
        from repro.core import QueryService

        for answer in (evaluate_datalog(self.EMPTY, db),
                       run_query(self.EMPTY, db, "datalog"),
                       QueryService(db).answer(self.EMPTY,
                                               language="datalog")):
            assert len(answer) == 0
            assert answer.schema.attribute_names == ("col1", "col2")

    def test_an_undefined_predicate_is_outside_the_engine(self, db):
        from repro.core import QueryService

        with pytest.raises(LoweringError, match="nothere"):
            lower(self.UNDEFINED, db.schema)
        with pytest.raises(LoweringError, match="nothere"):
            run_query(self.UNDEFINED, db, "datalog")
        # The service falls back to the interpreter, which reads an
        # undefined predicate as empty.
        answer = QueryService(db).answer(self.UNDEFINED, language="datalog")
        assert answer.bag_equal(evaluate_datalog(self.UNDEFINED, db))
        assert len(answer) == 0 and answer.schema.arity == 1


class TestOptimizer:
    def test_pushdown_and_key_promotion_produce_hash_joins(self, db):
        sql = ("SELECT DISTINCT S.sname FROM Sailors S, Reserves R, Boats B "
               "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'")
        plan = optimize(lower(sql, db.schema, "sql"), db)
        keyed_joins = [n for n in plan.walk()
                       if isinstance(n, JoinP) and n.left_keys]
        assert keyed_joins, "expected equi-joins to be promoted to hash joins"
        # The constant selection must sit on (or below) the Boats scan, not
        # above a product.
        for node in plan.walk():
            if isinstance(node, FilterP):
                assert not isinstance(node.input, JoinP) or node.input.kind != "cross"

    def test_optimizer_preserves_results_on_random_instances(self):
        for seed in range(3):
            instance = random_sailors_database(
                n_sailors=12, n_boats=5, n_reserves=30, seed=seed)
            for query in CANONICAL_QUERIES:
                for language, text in query.languages().items():
                    plain = execute_plan(lower(text, instance.schema,
                                               language.lower()), instance)
                    tuned = execute_plan(
                        optimize(lower(text, instance.schema, language.lower()),
                                 instance), instance)
                    assert plain.bag_equal(tuned), f"{query.id}/{language} seed={seed}"

    def test_cse_dedupes_dependent_join_copies(self, db):
        # Q4's nested NOT EXISTS embeds the outer plan twice; after CSE the
        # shared subtrees are literally the same object.
        plan = lower(CANONICAL_QUERIES[3].sql, db.schema, "sql")
        assert common_subplan_count(optimize(plan, db)) > 0

    def test_reordering_keeps_dependent_joins_shared(self, db):
        # Join reordering must not flatten through the outer plan embedded in
        # a dependent join's right side — the left plan has to stay a
        # structural subtree of the right so the executor evaluates it once.
        sql = ("SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid "
               "AND EXISTS (SELECT B.bid FROM Boats B WHERE B.bid = R.bid "
               "AND B.color = 'red')")
        optimized = optimize(lower(sql, db.schema, "sql"), db)
        dependent = [n for n in optimized.walk()
                     if isinstance(n, JoinP) and n.kind == "semi"]
        assert dependent
        join = dependent[0]
        assert any(sub == join.left for sub in join.right.walk())
        assert execute_plan(optimized, db).bag_equal(answer_relation(sql, db))

    def test_optimized_plan_repr_repeats_across_processes(self):
        # Column picks print by position, not by object address, so a plan's
        # repr (in hypothesis reports) is reproducible.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
        code = ("from repro.data.sailors import sailors_database; "
                "from repro.engine import lower, optimize; "
                "from repro.queries import CANONICAL_QUERIES; "
                "db = sailors_database(); "
                "print(repr(optimize(lower(CANONICAL_QUERIES[1].drc, "
                "db.schema, 'drc'), db)))")
        outputs = {subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout for _ in range(2)}
        assert len(outputs) == 1
        assert "PositionCol(" in outputs.pop()

    def test_aggregating_exists_is_rejected_not_mislowered(self, db):
        # An ungrouped aggregate subquery yields a row even over empty input,
        # so a plain existence check would be wrong; the engine must refuse.
        sql = ("SELECT S.sid FROM Sailors S WHERE EXISTS "
               "(SELECT COUNT(*) FROM Reserves R WHERE R.sid = S.sid "
               "HAVING COUNT(*) > 1)")
        with pytest.raises(LoweringError):
            run_query(sql, db, "sql")

    def test_scalar_function_over_aggregate(self, db):
        sql = "SELECT ABS(COUNT(*)) AS n FROM Sailors S"
        assert run_query(sql, db, "sql").bag_equal(answer_relation(sql, db))

    def test_estimates_are_positive_and_monotone_in_data(self):
        small = random_sailors_database(n_sailors=5, n_boats=3, n_reserves=10, seed=0)
        large = random_sailors_database(n_sailors=50, n_boats=10, n_reserves=150, seed=0)
        plan = lower("SELECT S.sname FROM Sailors S, Reserves R "
                     "WHERE S.sid = R.sid", small.schema, "sql")
        assert 0 < estimate_rows(plan, small) <= estimate_rows(plan, large)


class TestDataLayer:
    def test_contains_uses_cached_set(self):
        rel = relation_from_rows("R", [("a", "int")], [(i,) for i in range(100)])
        assert (5,) in rel
        assert (200,) not in rel
        rel.add((200,))
        assert (200,) in rel  # cache is maintained incrementally

    def test_distinct_rows_cached_and_consistent(self):
        rel = relation_from_rows("R", [("a", "int")], [(1,), (1,), (2,)])
        first = rel.distinct_rows()
        assert first == [(1,), (2,)]
        assert rel.cardinality(distinct=True) == 2
        rel.add((3,))
        assert rel.distinct_rows() == [(1,), (2,), (3,)]
        assert rel.cardinality(distinct=True) == 3
        first.append((99,))  # callers get a copy, the cache is unaffected
        assert rel.distinct_rows() == [(1,), (2,), (3,)]


class TestAccessPath:
    """Both executors reach a base relation by one rule: a filter over a
    scan whose *first* conjunct is ``col = const`` reads one ``key_index``
    bucket (:func:`repro.engine.execute.scan_lookup`)."""

    BACKENDS = ("row", "vectorized")

    @staticmethod
    def _outcome(answer):
        try:
            return "rows", Counter(answer().rows())
        except Exception as exc:  # compared across backends, never swallowed
            return "raises", type(exc).__name__

    @pytest.mark.parametrize("where", [
        "S.sname > 5 AND S.sid = 999999",
        "S.sid = 999999 AND S.sname > 5",
        "S.sid = 22 AND S.sname > 5",
    ])
    def test_conjunct_order_decides_errors_as_in_the_reference(
            self, db, where, monkeypatch):
        # The static verifier would refuse the str/int comparison before
        # any backend runs; serving runs without it.
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        text = f"SELECT S.sname FROM Sailors S WHERE {where}"
        want = self._outcome(lambda: answer_relation(text, db))
        for backend in self.BACKENDS:
            got = self._outcome(
                lambda: run_query(text, db, "sql", backend=executor(backend)))
            assert got == want, (backend, where)

    @staticmethod
    def _lookup(sid):
        scan = ScanP("Sailors", ("S.sid", "S.sname", "S.rating", "S.age"))
        return FilterP(scan, e.conjunction([
            e.Comparison(e.Col("sid", "S"), "=", e.Const(sid)),
            e.Comparison(e.Col("age", "S"), ">", e.Const(-1)),
        ]))

    @pytest.fixture()
    def rows_read(self, monkeypatch):
        """How many rows each pass of a filter visited: the calls of the
        row test both programs compile (the columnar one per conjunct),
        one pass per call that runs it."""
        from repro.engine import execute, vectorized

        passes: list[int] = []
        real_row_test = execute._row_test

        def row_test(plan, conjuncts):
            make = real_row_test(plan, conjuncts)
            if make is None:
                return None

            def counted_make(params):
                test = make(params)
                passes.append(0)
                slot = len(passes) - 1

                def counted(row):
                    passes[slot] += 1
                    return test(row)
                return counted
            return counted_make

        monkeypatch.setattr(execute, "_row_test", row_test)
        monkeypatch.setattr(vectorized, "_row_test", row_test)
        return passes

    def _run(self, db, plan, backend, passes):
        passes.clear()
        before = kernels.path_counts()["scan_lookup"]
        rows = execute_plan(plan, db, backend=executor(backend))
        lookups = kernels.path_counts()["scan_lookup"] - before
        return rows, max(passes), lookups

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_point_lookup_reads_one_bucket_at_any_size(self, backend,
                                                      rows_read):
        read_per_size = []
        for n in (300, 1200):
            db = random_sailors_database(n_sailors=n, n_reserves=10, seed=3)
            sid = db.relation("Sailors")[n // 2][0]
            rows, read, lookups = self._run(db, self._lookup(sid), backend,
                                            rows_read)
            assert lookups == 1
            assert [row[0] for row in rows] == [sid]
            read_per_size.append(read)
        assert read_per_size == [1, 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_frozen_relation_looks_up_only_through_a_held_index(
            self, backend, rows_read):
        live = random_sailors_database(n_sailors=200, n_reserves=10, seed=3)
        sailors = live.relation("Sailors")
        sid = sailors[7][0]
        scanned = Database([sailors.copy().freeze()])
        rows, read, lookups = self._run(scanned, self._lookup(sid), backend,
                                        rows_read)
        assert (lookups, read, len(rows)) == (0, len(sailors), 1)
        snapshot = sailors.copy()
        snapshot.key_index((0,))  # an index held before the freeze
        indexed = Database([snapshot.freeze()])
        assert self._run(indexed, self._lookup(sid), backend,
                         rows_read) == (rows, 1, 1)


class TestTypedLiterals:
    """``2`` and ``2.0`` are different literals: closures, CSE and the
    compiled programs must never merge them, though Python calls them
    equal."""

    BACKENDS = ("row", "vectorized")
    INT = "SELECT S.sid % 2 AS m FROM Sailors S WHERE S.rating > 9"
    FLOAT = "SELECT S.sid % 2.0 AS m FROM Sailors S WHERE S.rating > 9"

    @staticmethod
    def _typed(relation):
        return Counter(tuple((type(v).__name__, v) for v in row)
                       for row in relation.rows())

    def test_constants_compare_by_type(self):
        assert e.Const(2) != e.Const(2.0)
        assert e.Const(1) != e.Const(True)
        assert e.Const(2) == e.Const(2)
        assert len({e.Const(2), e.Const(2.0), e.Const(True)}) == 3

    def test_slot_constant_hash_repeats_across_processes(self):
        # A served literal's hash must not depend on where the interpreter
        # happened to load: hash-ordered work would differ run to run.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
        code = ("from repro.expr.ast import Const; "
                "print(hash(Const(2, 0)), hash(Const(2.5, 1)))")
        outputs = {subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout for _ in range(3)}
        assert len(outputs) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closure_cache_keeps_int_and_float_apart(self, db, backend):
        run_query(self.FLOAT, db, "sql", backend=executor(backend))
        got = run_query(self.INT, db, "sql", backend=executor(backend))
        want = answer_relation(self.INT, db)
        assert self._typed(got) == self._typed(want) \
            == Counter({(("int", 0),): 1, (("int", 1),): 1})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_union_all_of_int_and_float_twins_keeps_both(self, db, backend):
        text = f"{self.INT} UNION ALL {self.FLOAT}"
        want = answer_relation(text, db)
        assert self._typed(want) == Counter({
            (("int", 0),): 1, (("int", 1),): 1,
            (("float", 0.0),): 1, (("float", 1.0),): 1})
        assert self._typed(run_query(text, db, "sql",
                                     backend=executor(backend))) \
            == self._typed(want)


class TestMultiLanguagePipeline:
    def test_pipeline_runs_sql_ra_and_datalog_with_diagrams(self, db):
        from repro.core import QueryVisualizationPipeline

        pipeline = QueryVisualizationPipeline(db)
        for query in CANONICAL_QUERIES:
            for language in ("sql", "ra", "datalog"):
                text = query.languages()[
                    {"sql": "SQL", "ra": "RA", "datalog": "Datalog"}[language]]
                result = pipeline.run(text, language=language)
                assert result.answers is not None
                names = {row[0] for row in result.answers.distinct_rows()}
                assert names == set(query.expected_names), f"{query.id}/{language}"
                assert result.diagram.nodes, f"{query.id}/{language} has no diagram"

    def test_pipeline_runs_the_calculi(self, db, canonical_query):
        from repro.core import QueryVisualizationPipeline

        pipeline = QueryVisualizationPipeline(db)
        for language, key in (("trc", "TRC"), ("drc", "DRC")):
            result = pipeline.run(canonical_query.languages()[key], language=language)
            assert result.answers is not None
            assert {row[0] for row in result.answers.distinct_rows()} == set(
                canonical_query.expected_names)

    def test_pipeline_records_engine_plan_and_timings(self, db):
        from repro.core import QueryVisualizationPipeline

        result = QueryVisualizationPipeline(db).run(CANONICAL_QUERIES[0].sql)
        assert result.used_engine
        assert {"parse", "lower", "optimize", "execute", "evaluate"} <= set(result.timings)

    def test_pipeline_falls_back_outside_the_fragment(self, db):
        from repro.core import QueryVisualizationPipeline

        sql = ("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
               "ON S.sid = R.sid WHERE R.sid IS NULL")
        result = QueryVisualizationPipeline(db, formalism="sqlvis").run(sql)
        assert result.answers is not None
        assert not result.used_engine
        assert any("fallback" in w for w in result.warnings)
        from repro.sql.evaluate import evaluate_sql

        assert result.answers.bag_equal(evaluate_sql(sql, db))

    def test_answer_any_autodetects_language(self, db):
        from repro.core import answer_any

        for query in CANONICAL_QUERIES:
            for text in query.languages().values():
                names = {row[0] for row in answer_any(text, db).distinct_rows()}
                assert names == set(query.expected_names)


class TestPlanStructure:
    def test_scan_filter_project_roundtrip(self, db):
        from repro.expr.ast import Col, Comparison, Const

        plan = DistinctP(ProjectP(
            FilterP(ScanP("Boats", ("bid", "bname", "color")),
                    Comparison(Col("color"), "=", Const("red"))),
            (Col("bid"),),
            ("bid",),
        ))
        result = execute_plan(plan, db)
        assert {row[0] for row in result.rows()} == {102, 104}

    def test_hand_built_hash_join(self, db):
        from repro.expr.ast import Col

        join = JoinP(ScanP("Sailors", ("sid", "sname", "rating", "age")),
                     ScanP("Reserves", ("rsid", "bid", "day")),
                     "inner", left_keys=("sid",), right_keys=("rsid",))
        plan = DistinctP(ProjectP(join, (Col("sname"),), ("sname",)))
        result = execute_plan(plan, db)
        reference = answer_relation(
            "SELECT DISTINCT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid",
            db)
        assert result.bag_equal(reference)
