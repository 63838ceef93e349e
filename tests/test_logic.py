"""Tests for the first-order / propositional logic core."""

from __future__ import annotations

import pytest

from repro.logic import (
    And,
    Atom,
    Compare,
    Const,
    Exists,
    ForAll,
    Iff,
    Implies,
    LogicError,
    Not,
    Or,
    Structure,
    Truth,
    Var,
    all_variables,
    atoms_of,
    bound_variables,
    eliminate_implications,
    entails,
    eval_propositional,
    evaluate,
    free_variables,
    fresh_variable,
    fresh_variables,
    is_propositional,
    is_satisfiable,
    is_sentence,
    is_tautology,
    models_of,
    negation_depth,
    predicates_of,
    prop,
    propositionally_equivalent,
    quantifier_depth,
    quantifier_prefix,
    rename_variables,
    satisfying_assignments,
    simplify,
    standardize_apart,
    substitute,
    term_of,
    to_exists_and_not,
    to_existential_nnf,
    to_nnf,
    to_prenex,
    truth_table,
    variables_in,
)

x, y, z = Var("x"), Var("y"), Var("z")
P = lambda *terms: Atom("P", terms)  # noqa: E731
Q = lambda *terms: Atom("Q", terms)  # noqa: E731


class TestTermsAndFormulas:
    def test_term_of_lifts_values(self):
        assert term_of(3) == Const(3)
        assert term_of(x) is x

    def test_variables_in_dedupes(self):
        assert variables_in([x, Const(1), y, x]) == [x, y]

    def test_fresh_variable_avoids_taken_names(self):
        assert fresh_variable("x", {"y"}).name == "x"
        assert fresh_variable("x", {"x", "x1"}).name == "x2"
        names = [v.name for v in fresh_variables(3, "v", {"v"})]
        assert len(set(names)) == 3 and "v" not in names

    def test_free_and_bound_variables(self):
        formula = Exists((y,), And((P(x, y), Not(Q(z)))))
        assert [v.name for v in free_variables(formula)] == ["x", "z"]
        assert [v.name for v in bound_variables(formula)] == ["y"]
        assert {v.name for v in all_variables(formula)} == {"x", "y", "z"}
        assert not is_sentence(formula)
        assert is_sentence(Exists((x, z, y), And((P(x, y), Q(z)))))

    def test_compare_normalises_operator(self):
        assert Compare(x, "!=", y).op == "<>"
        with pytest.raises(LogicError):
            Compare(x, "~", y)

    def test_substitute_respects_binding(self):
        formula = And((P(x), Exists((x,), Q(x))))
        result = substitute(formula, {"x": Const(1)})
        assert result == And((P(Const(1)), Exists((x,), Q(x))))

    def test_rename_variables(self):
        formula = Exists((x,), P(x, y))
        renamed = rename_variables(formula, {"x": "a", "y": "b"})
        assert str(renamed) == "∃a. P(a, b)"

    def test_atoms_and_predicates(self):
        formula = And((P(x), Q(y), P(z)))
        assert len(atoms_of(formula)) == 3
        assert predicates_of(formula) == ["P", "Q"]

    def test_operator_sugar(self):
        formula = P(x) & ~Q(y) | P(y)
        assert isinstance(formula, Or)


class TestTransforms:
    def test_eliminate_implications(self):
        formula = eliminate_implications(Implies(P(x), Q(x)))
        assert isinstance(formula, Or)
        iff = eliminate_implications(Iff(P(x), Q(x)))
        assert isinstance(iff, And)

    def test_nnf_pushes_negations(self):
        formula = Not(And((P(x), Not(Q(x)))))
        nnf = to_nnf(formula)
        assert isinstance(nnf, Or)
        assert nnf == Or((Not(P(x)), Q(x)))

    def test_nnf_swaps_quantifiers(self):
        formula = Not(ForAll((x,), P(x)))
        assert to_nnf(formula) == Exists((x,), Not(P(x)))

    def test_standardize_apart_renames_duplicates(self):
        formula = And((Exists((x,), P(x)), Exists((x,), Q(x))))
        apart = standardize_apart(formula)
        bound = [v.name for v in bound_variables(apart)]
        assert len(bound) == len(set(bound)) == 2

    def test_prenex_does_not_capture_free_variables(self):
        prenex = to_prenex(And((P(x), Exists((x,), Q(x)))))
        assert [v.name for v in free_variables(prenex)] == ["x"]
        (_kind, bound), = quantifier_prefix(prenex)
        assert bound.name != "x"

    def test_prenex_produces_leading_quantifiers(self):
        formula = And((Exists((x,), P(x)), ForAll((y,), Q(y))))
        prenex = to_prenex(formula)
        prefix = quantifier_prefix(prenex)
        assert len(prefix) == 2
        assert {kind for kind, _ in prefix} == {"exists", "forall"}

    def test_to_exists_and_not_removes_forall_and_or(self):
        formula = ForAll((x,), Or((P(x), Q(x))))
        rewritten = to_exists_and_not(formula)
        assert "ForAll" not in repr(type_walk(rewritten))
        assert "Or" not in repr(type_walk(rewritten))

    def test_simplify_drops_double_negation_and_constants(self):
        assert simplify(Not(Not(P(x)))) == P(x)
        assert simplify(And((P(x), Truth(True)))) == P(x)
        assert simplify(And((P(x), Truth(False)))) == Truth(False)
        assert simplify(Or((P(x), Truth(True)))) == Truth(True)

    def test_existential_nnf_keeps_negation_above_exists(self):
        formula = Not(ForAll((x,), Implies(P(x), Exists((y,), Q(x, y)))))
        assert to_existential_nnf(formula) == Exists(
            (x,), And((P(x), Not(Exists((y,), Q(x, y))))))
        assert to_existential_nnf(ForAll((x,), P(x))) == \
            Not(Exists((x,), Not(P(x))))
        assert to_existential_nnf(Not(And((P(x), Not(Q(x)))))) == \
            to_nnf(Not(And((P(x), Not(Q(x))))))

    def test_depth_measures(self):
        formula = Exists((x,), Not(ForAll((y,), Not(P(x, y)))))
        assert quantifier_depth(formula) == 2
        assert negation_depth(formula) == 2


def type_walk(formula):
    return [type(node).__name__ for node in formula.walk()]


class TestSemantics:
    def setup_method(self):
        self.structure = Structure(
            domain=[1, 2, 3],
            relations={"P": [(1,), (2,)], "R": [(1, 2), (2, 3)]},
        )

    def test_atom_evaluation(self):
        assert evaluate(Atom("P", (Const(1),)), self.structure)
        assert not evaluate(Atom("P", (Const(3),)), self.structure)

    def test_unbound_variable_raises(self):
        with pytest.raises(LogicError):
            evaluate(Atom("P", (x,)), self.structure)

    def test_quantifiers(self):
        some = Exists((x,), Atom("P", (x,)))
        every = ForAll((x,), Atom("P", (x,)))
        assert evaluate(some, self.structure)
        assert not evaluate(every, self.structure)
        chain = ForAll((x,), Implies(Atom("P", (x,)),
                                     Exists((y,), Atom("R", (x, y)))))
        assert evaluate(chain, self.structure)

    def test_comparisons_in_formulas(self):
        formula = Exists((x,), And((Atom("P", (x,)), Compare(x, ">", Const(1)))))
        assert evaluate(formula, self.structure)

    @pytest.mark.parametrize("left,op,right,holds", [
        (None, "=", None, False),
        (None, "<>", 1, False),
        (1, "<", "a", False),
        (1, "<>", "a", True),
        (2, ">=", 1, True),
    ])
    def test_first_order_evaluators_compare_alike(self, db, left, op, right,
                                                  holds):
        """NULL, or an ordering of unlike types, compares FALSE in both
        first-order evaluators of one formula."""
        from repro.drc import evaluate_drc_boolean

        formula = Compare(Const(left), op, Const(right))
        assert evaluate(formula, self.structure) is holds
        assert evaluate_drc_boolean(formula, db) is holds

    def test_satisfying_assignments(self):
        formula = Atom("R", (x, y))
        assignments = satisfying_assignments(formula, self.structure)
        assert {(a["x"], a["y"]) for a in assignments} == {(1, 2), (2, 3)}

    def test_structure_from_database(self, db):
        structure = Structure.from_database(db)
        assert structure.has_fact("Boats", (102, "Interlake", "red"))
        formula = Exists((x, y, z), Atom("Reserves", (Const(22), x, y)))
        # arity mismatch on purpose: Reserves has 3 attributes, so use 2 bound vars
        formula = Exists((x, y), Atom("Reserves", (Const(22), x, y)))
        assert evaluate(formula, structure)


class TestPropositional:
    def test_truth_table_size(self):
        p, q = prop("p"), prop("q")
        table = truth_table(Implies(p, q))
        assert len(table) == 4

    def test_tautology_and_contradiction(self):
        p = prop("p")
        assert is_tautology(Or((p, Not(p))))
        assert not is_satisfiable(And((p, Not(p))))
        assert is_satisfiable(p)

    def test_equivalence_de_morgan(self):
        p, q = prop("p"), prop("q")
        assert propositionally_equivalent(Not(And((p, q))), Or((Not(p), Not(q))))
        assert not propositionally_equivalent(p, q)

    def test_entailment_modus_ponens(self):
        p, q = prop("p"), prop("q")
        assert entails([p, Implies(p, q)], q)
        assert not entails([Implies(p, q)], q)

    def test_models_of(self):
        p, q = prop("p"), prop("q")
        models = models_of(And((p, Not(q))))
        assert models == [{"p": True, "q": False}]

    def test_is_propositional(self):
        assert is_propositional(And((prop("p"), prop("q"))))
        assert not is_propositional(Exists((x,), P(x)))
        assert not is_propositional(P(x))

    def test_eval_propositional_requires_valuation(self):
        with pytest.raises(LogicError):
            eval_propositional(prop("p"), {})
        with pytest.raises(LogicError):
            eval_propositional(P(x), {"P": True})
