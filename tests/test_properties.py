"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.data import Relation, RelationSchema, Attribute, DataType, random_sailors_database
from repro.diagrams.peirce_alpha import formula_of, graph_of, graphs_equivalent
from repro.diagrams.syllogism import CategoricalProposition, Syllogism, entails
from repro.expr import (
    And,
    Col,
    Comparison,
    Const,
    Not,
    Or,
    Scope,
    eval_expr,
    format_expr,
)
from repro.expr.parser import parse_expression
from repro.logic import (
    Atom,
    Exists,
    ForAll,
    Implies,
    Not as LNot,
    Or as LOr,
    And as LAnd,
    Structure,
    Var,
    evaluate,
    free_variables,
    is_propositional,
    prop,
    propositionally_equivalent,
    to_exists_and_not,
    to_nnf,
    to_prenex,
)
from repro.core.patterns import isomorphic, pattern_of
from repro.ra import evaluate as evaluate_ra, parse_ra
from repro.sql import evaluate_sql
from repro.translate import answer_set, sql_to_trc
from repro.trc import evaluate_trc

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

values = st.one_of(st.integers(-20, 20), st.booleans(), st.text(max_size=4), st.none())

rows = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12)


def make_relation(pairs) -> Relation:
    schema = RelationSchema("T", (Attribute("a", DataType.INT), Attribute("b", DataType.INT)))
    return Relation(schema, pairs, validate=False)


prop_names = st.sampled_from(["p", "q", "r"])


@st.composite
def propositional_formulas(draw, depth=3):
    if depth == 0:
        return prop(draw(prop_names))
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return prop(draw(prop_names))
    if choice == 1:
        return LNot(draw(propositional_formulas(depth=depth - 1)))
    left = draw(propositional_formulas(depth=depth - 1))
    right = draw(propositional_formulas(depth=depth - 1))
    if choice == 2:
        return LAnd((left, right))
    if choice == 3:
        return LOr((left, right))
    return Implies(left, right)


@st.composite
def fol_formulas(draw, depth=2, variables=("x", "y")):
    """Small first-order formulas over unary predicates P, Q and variables x, y."""
    if depth == 0:
        predicate = draw(st.sampled_from(["P", "Q"]))
        var = Var(draw(st.sampled_from(variables)))
        return Atom(predicate, (var,))
    choice = draw(st.integers(0, 5))
    if choice == 0:
        predicate = draw(st.sampled_from(["P", "Q"]))
        var = Var(draw(st.sampled_from(variables)))
        return Atom(predicate, (var,))
    if choice == 1:
        return LNot(draw(fol_formulas(depth=depth - 1, variables=variables)))
    if choice in (2, 3):
        left = draw(fol_formulas(depth=depth - 1, variables=variables))
        right = draw(fol_formulas(depth=depth - 1, variables=variables))
        return LAnd((left, right)) if choice == 2 else LOr((left, right))
    var = Var(draw(st.sampled_from(variables)))
    body = draw(fol_formulas(depth=depth - 1, variables=variables))
    return Exists((var,), body) if choice == 4 else ForAll((var,), body)


SMALL_STRUCTURE = Structure(domain=[1, 2, 3], relations={"P": [(1,), (2,)], "Q": [(2,), (3,)]})


# ---------------------------------------------------------------------------
# Relation invariants
# ---------------------------------------------------------------------------

class TestRelationProperties:
    @given(rows)
    def test_distinct_is_idempotent(self, pairs):
        relation = make_relation(pairs)
        once = relation.distinct()
        twice = once.distinct()
        assert once.rows() == twice.rows()
        assert len(once) <= len(relation)

    @given(rows)
    def test_projection_never_grows_set(self, pairs):
        relation = make_relation(pairs)
        projected = relation.project_columns(["a"])
        assert len(projected) <= len(relation.distinct())
        assert set(projected.rows()) == {(a,) for a, _ in pairs}

    @given(rows, rows)
    def test_bag_equality_is_order_insensitive(self, left, right):
        a = make_relation(left)
        b = make_relation(list(reversed(left)))
        assert a.bag_equal(b)
        if sorted(left) != sorted(right):
            assert not make_relation(left).bag_equal(make_relation(right))


# ---------------------------------------------------------------------------
# Expression evaluation invariants
# ---------------------------------------------------------------------------

class TestExpressionProperties:
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_comparison_trichotomy(self, a, b):
        scope = Scope.from_mapping({"a": a, "b": b})
        less = eval_expr(Comparison(Col("a"), "<", Col("b")), scope)
        equal = eval_expr(Comparison(Col("a"), "=", Col("b")), scope)
        greater = eval_expr(Comparison(Col("a"), ">", Col("b")), scope)
        assert [less, equal, greater].count(True) == 1

    @given(st.one_of(st.integers(-9, 9), st.none()), st.one_of(st.integers(-9, 9), st.none()))
    def test_de_morgan_three_valued(self, a, b):
        scope = Scope.from_mapping({"a": a, "b": b})
        left = Comparison(Col("a"), ">", Const(0))
        right = Comparison(Col("b"), ">", Const(0))
        lhs = eval_expr(Not(And((left, right))), scope)
        rhs = eval_expr(Or((Not(left), Not(right))), scope)
        assert lhs == rhs

    @given(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99))
    def test_format_parse_round_trip_comparisons(self, a, b, c):
        expr = Or((And((Comparison(Col("x"), "<", Const(a)),
                        Comparison(Col("y"), ">=", Const(b)))),
                   Comparison(Col("z"), "<>", Const(c))))
        assert parse_expression(format_expr(expr)) == expr


# ---------------------------------------------------------------------------
# Logic invariants
# ---------------------------------------------------------------------------

class TestLogicProperties:
    @settings(max_examples=60)
    @given(propositional_formulas())
    def test_nnf_preserves_propositional_meaning(self, formula):
        assert propositionally_equivalent(formula, to_nnf(formula))

    @settings(max_examples=60)
    @given(propositional_formulas())
    def test_alpha_graph_round_trip(self, formula):
        graph = graph_of(formula)
        assert is_propositional(formula_of(graph))
        assert propositionally_equivalent(formula, formula_of(graph))
        assert graphs_equivalent(graph, graph_of(formula_of(graph)))

    @settings(max_examples=40)
    @given(fol_formulas())
    def test_fol_transforms_preserve_truth(self, formula):
        closed = formula
        free = free_variables(closed)
        if free:
            closed = ForAll(tuple(free), closed)
        original = evaluate(closed, SMALL_STRUCTURE)
        assert evaluate(to_nnf(closed), SMALL_STRUCTURE) == original
        assert evaluate(to_prenex(closed), SMALL_STRUCTURE) == original
        assert evaluate(to_exists_and_not(closed), SMALL_STRUCTURE) == original


# ---------------------------------------------------------------------------
# Query engine invariants
# ---------------------------------------------------------------------------

class TestEngineProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sql_trc_ra_agree_on_random_databases(self, seed):
        db = random_sailors_database(n_sailors=8, n_boats=4, n_reserves=16, seed=seed)
        sql = ("SELECT DISTINCT S.sname FROM Sailors S, Reserves R, Boats B "
               "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'")
        ra = "project[sname](Sailors njoin Reserves njoin select[color = 'red'](Boats))"
        trc = sql_to_trc(sql, db.schema)
        assert (set(evaluate_sql(sql, db).distinct_rows())
                == set(evaluate_ra(parse_ra(ra), db).rows())
                == set(evaluate_trc(trc, db).rows()))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_universal_ra_matches_double_negation(self, seed):
        """The expanded (division-free) RA form of Q4 agrees with the SQL double
        negation on every database, including ones with no red boat at all."""
        from repro.queries import Q4_ALL_RED

        db = random_sailors_database(n_sailors=6, n_boats=5, n_reserves=15, seed=seed)
        assert answer_set(Q4_ALL_RED.ra, db) == answer_set(Q4_ALL_RED.sql, db)

    def test_division_diverges_on_empty_divisor(self):
        """The textbook division form is *not* equivalent to FOR ALL when the
        divisor is empty — the vacuous-truth subtlety the tutorial's discussion
        of universal quantification turns on."""
        from repro.data import Database, Relation
        from repro.data.sailors import BOATS_SCHEMA, RESERVES_SCHEMA, SAILORS_SCHEMA, SAILORS_ROWS, RESERVES_ROWS
        from repro.queries import Q4_ALL_RED, Q4_ALL_RED_DIVISION_RA

        no_red = Database([
            Relation(SAILORS_SCHEMA, SAILORS_ROWS),
            Relation(BOATS_SCHEMA, [(101, "Interlake", "blue"), (103, "Clipper", "green")]),
            Relation(RESERVES_SCHEMA, RESERVES_ROWS),
        ])
        division_answer = answer_set(Q4_ALL_RED_DIVISION_RA, no_red)
        forall_answer = answer_set(Q4_ALL_RED.sql, no_red)
        assert division_answer < forall_answer  # strictly fewer sailors
        assert len(forall_answer) == 9          # vacuously, every (distinct) name qualifies


# ---------------------------------------------------------------------------
# The wire envelope
# ---------------------------------------------------------------------------

_cells = st.one_of(
    st.none(), st.integers(-2**40, 2**40), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-50, 50).map(float))          # integral floats: "3.0"
_versions = st.one_of(st.integers(0, 10**6),
                      st.lists(st.integers(0, 99), min_size=2, max_size=5)
                      .map(tuple))


class TestEnvelopeProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda arity: st.lists(
        st.tuples(*[_cells] * arity), max_size=8)), _versions,
        st.lists(st.text(max_size=12), max_size=2))
    def test_encode_is_the_payload_dumped(self, rows, version, warnings):
        """``encode()`` serializes the row tuples as they are; the bytes are
        those of the list-copying ``to_payload()`` (NULLs, floats, non-ASCII
        text, an empty result, tuple version tokens)."""
        import json

        from repro.core.service_api import QueryResult
        from repro.engine import build_result_relation

        columns = tuple(f"c{i}" for i in range(len(rows[0]) if rows else 2))
        relation = build_result_relation(columns, list(rows)).freeze()
        result = QueryResult(
            columns=columns, rows=tuple(relation.rows()), language="sql",
            fingerprint="ünï", version=version, warnings=tuple(warnings),
            relation=relation)
        payload = result.to_payload()
        assert all(type(row) is list for row in payload["rows"])
        assert result.encode() == json.dumps(payload).encode("utf-8")
        assert result.encode() is result.encoded


# ---------------------------------------------------------------------------
# Pattern and syllogism invariants
# ---------------------------------------------------------------------------

class TestPatternProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.permutations(["S.sid = R.sid", "R.bid = B.bid", "B.color = 'red'"]))
    def test_conjunct_order_never_changes_the_pattern(self, conjuncts):
        from repro.data.sailors import SAILORS_DATABASE_SCHEMA

        base = ("SELECT S.sname FROM Sailors S, Reserves R, Boats B WHERE "
                + " AND ".join(["S.sid = R.sid", "R.bid = B.bid", "B.color = 'red'"]))
        shuffled = ("SELECT S.sname FROM Sailors S, Reserves R, Boats B WHERE "
                    + " AND ".join(conjuncts))
        a = pattern_of(sql_to_trc(base, SAILORS_DATABASE_SCHEMA))
        b = pattern_of(sql_to_trc(shuffled, SAILORS_DATABASE_SCHEMA))
        assert isomorphic(a, b)


    @settings(max_examples=25, deadline=None)
    @given(st.permutations(["Sailors(s)", "s.rating > 7",
                            "not exists r (Reserves(r) and r.sid = s.sid and r.bid = 103)"]))
    def test_conjunct_order_never_changes_a_diagram(self, conjuncts):
        from repro.data.sailors import SAILORS_DATABASE_SCHEMA
        from repro.diagrams import build_diagram

        def shape(diagram) -> tuple:
            def labels(group_id) -> tuple:
                path = []
                while group_id is not None:
                    path.append(diagram.groups[group_id].label)
                    group_id = diagram.groups[group_id].parent
                return tuple(path)

            nodes = {n.id: (n.label, tuple(sorted(n.rows)), labels(n.group))
                     for n in diagram.nodes.values()}
            return (sorted(nodes.values()),
                    sorted((nodes[e.source], nodes[e.target]) for e in diagram.edges))

        base = ("{ s.sname | Sailors(s) and s.rating > 7 and not exists r "
                "(Reserves(r) and r.sid = s.sid and r.bid = 103) }")
        shuffled = "{ s.sname | " + " and ".join(conjuncts) + " }"
        for formalism in ("queryvis", "relational_diagrams", "conceptual", "qbe"):
            assert shape(build_diagram(formalism, shuffled, SAILORS_DATABASE_SCHEMA)) \
                == shape(build_diagram(formalism, base, SAILORS_DATABASE_SCHEMA)), formalism


class TestSyllogismProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["A", "E", "I", "O"]), st.sampled_from(["A", "E", "I", "O"]),
           st.sampled_from(["A", "E", "I", "O"]), st.integers(1, 4))
    def test_existential_import_only_adds_validities(self, major, minor, conclusion, figure):
        syllogism = Syllogism(major + minor + conclusion, figure)
        if syllogism.is_valid():
            assert syllogism.is_valid(existential_import=True)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["A", "E", "I", "O"]))
    def test_every_proposition_entails_itself(self, form):
        proposition = CategoricalProposition(form, "A", "B")
        assert entails([proposition], proposition)
