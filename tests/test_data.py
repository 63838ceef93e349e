"""Tests for the relational data substrate (types, schemas, relations, databases)."""

from __future__ import annotations

import pytest

from repro.data import (
    Attribute,
    Database,
    DataType,
    Relation,
    RelationError,
    RelationSchema,
    SchemaError,
    check_value,
    coerce_value,
    comparable,
    database_family,
    empty_sailors_database,
    format_value,
    infer_type,
    make_schema,
    merge_databases,
    parse_type,
    random_database,
    random_relation,
    random_sailors_database,
    relation_from_rows,
    sailors_database,
    union_compatible,
)
from repro.data.sailors import BOATS_SCHEMA, RESERVES_SCHEMA, SAILORS_SCHEMA


class TestTypes:
    def test_parse_type_aliases(self):
        assert parse_type("integer") is DataType.INT
        assert parse_type("varchar") is DataType.STRING
        assert parse_type("real") is DataType.FLOAT
        assert parse_type("boolean") is DataType.BOOL
        assert parse_type(DataType.INT) is DataType.INT

    def test_parse_type_unknown(self):
        with pytest.raises(ValueError):
            parse_type("blob")

    def test_infer_type(self):
        assert infer_type(3) is DataType.INT
        assert infer_type(3.5) is DataType.FLOAT
        assert infer_type("x") is DataType.STRING
        assert infer_type(True) is DataType.BOOL

    def test_infer_type_rejects_unknown(self):
        with pytest.raises(ValueError):
            infer_type([1, 2])

    def test_check_value_null_handling(self):
        assert check_value(None, DataType.INT)
        assert not check_value(None, DataType.INT, allow_null=False)

    def test_check_value_bool_is_not_int(self):
        assert not check_value(True, DataType.INT)
        assert check_value(True, DataType.BOOL)

    def test_check_value_int_widens_to_float(self):
        assert check_value(3, DataType.FLOAT)
        assert not check_value("3", DataType.FLOAT)

    def test_coerce_value(self):
        assert coerce_value("12", DataType.INT) == 12
        assert coerce_value(12, DataType.STRING) == "12"
        assert coerce_value("true", DataType.BOOL) is True
        assert coerce_value(None, DataType.INT) is None

    def test_coerce_value_failure(self):
        with pytest.raises(ValueError):
            coerce_value("abc", DataType.INT)

    def test_format_value(self):
        assert format_value(None) == "NULL"
        assert format_value(True) == "TRUE"
        assert format_value("o'brien") == "'o''brien'"
        assert format_value(45.0) == "45.0"
        assert format_value(7) == "7"

    def test_comparable(self):
        assert comparable(1, 2.5)
        assert comparable("a", "b")
        assert not comparable(1, "a")
        assert not comparable(None, 3)
        assert comparable(True, False)
        assert not comparable(True, 1)


class TestSchema:
    def test_attribute_requires_name(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_schema_basic_accessors(self):
        assert SAILORS_SCHEMA.arity == 4
        assert SAILORS_SCHEMA.attribute_names == ("sid", "sname", "rating", "age")
        assert SAILORS_SCHEMA.index_of("rating") == 2
        assert SAILORS_SCHEMA.dtype_of("age") is DataType.FLOAT
        assert "sid" in SAILORS_SCHEMA
        assert "color" not in SAILORS_SCHEMA

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", (Attribute("a"), Attribute("a")))

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaError):
            SAILORS_SCHEMA.attribute("color")

    def test_project_and_rename(self):
        projected = SAILORS_SCHEMA.project(["sname", "sid"])
        assert projected.attribute_names == ("sname", "sid")
        renamed = SAILORS_SCHEMA.rename_attributes({"sid": "id"})
        assert renamed.attribute_names[0] == "id"
        assert SAILORS_SCHEMA.renamed("S").name == "S"

    def test_concat_prefixes_clashing_names(self):
        combined = SAILORS_SCHEMA.concat(RESERVES_SCHEMA)
        assert "Sailors.sid" in combined.attribute_names
        assert "Reserves.sid" in combined.attribute_names
        assert "bid" in combined.attribute_names

    def test_union_compatibility(self):
        assert SAILORS_SCHEMA.is_union_compatible(SAILORS_SCHEMA)
        assert not SAILORS_SCHEMA.is_union_compatible(BOATS_SCHEMA)

    def test_make_schema(self):
        schema = make_schema("T", [("a", "int"), ("b", "text")])
        assert schema.arity == 2
        assert schema.dtype_of("b") is DataType.STRING

    def test_database_schema_lookup_case_insensitive(self):
        db = sailors_database()
        assert db.schema.relation("sailors").name == "Sailors"
        with pytest.raises(SchemaError):
            db.schema.relation("Pirates")


class TestRelation:
    def test_rows_and_dicts(self):
        rel = relation_from_rows("T", [("a", "int"), ("b", "string")], [(1, "x"), (2, "y")])
        assert len(rel) == 2
        assert rel.to_dicts()[0] == {"a": 1, "b": "x"}
        assert rel.column("b") == ["x", "y"]

    def test_add_from_mapping(self):
        rel = Relation(make_schema("T", [("a", "int"), ("b", "string")]))
        rel.add({"b": "x", "a": 1})
        assert rel.rows() == [(1, "x")]

    def test_arity_mismatch_rejected(self):
        rel = Relation(make_schema("T", [("a", "int")]))
        with pytest.raises(RelationError):
            rel.add((1, 2))

    def test_type_validation(self):
        rel = Relation(make_schema("T", [("a", "int")]))
        with pytest.raises(RelationError):
            rel.add(("not an int",))
        rel.add((None,))  # NULL is allowed
        assert rel.rows() == [(None,)]

    def test_bag_vs_set_semantics(self):
        rel = relation_from_rows("T", [("a", "int")], [(1,), (1,), (2,)])
        assert rel.cardinality() == 3
        assert rel.cardinality(distinct=True) == 2
        assert rel.distinct().rows() == [(1,), (2,)]

    def test_equality_is_bag_based(self):
        a = relation_from_rows("T", [("a", "int")], [(1,), (1,)])
        b = relation_from_rows("T", [("a", "int")], [(1,)])
        assert not a.bag_equal(b)
        assert a.set_equal(b)
        assert a != b

    def test_projection_and_filter(self):
        db = sailors_database()
        sailors = db.relation("Sailors")
        names = sailors.project_columns(["sname"])
        assert ("Dustin",) in names.rows()
        old = sailors.filter(lambda row: row["age"] > 50)
        assert set(old.column("sname")) == {"Lubber", "Bob"}

    def test_to_table_renders(self):
        db = sailors_database()
        text = db.relation("Boats").to_table()
        assert "Interlake" in text
        assert text.count("\n") >= 6

    def test_to_table_truncation(self):
        rel = relation_from_rows("T", [("a", "int")], [(i,) for i in range(30)])
        text = rel.to_table(max_rows=5)
        assert "more row(s)" in text

    def test_union_compatibility_helpers(self):
        a = relation_from_rows("A", [("x", "int")], [])
        b = relation_from_rows("B", [("y", "int")], [])
        c = relation_from_rows("C", [("z", "string")], [])
        assert union_compatible(a, b)
        assert not union_compatible(a, c)

    def test_relations_are_not_hashable(self):
        rel = relation_from_rows("T", [("a", "int")], [])
        with pytest.raises(TypeError):
            hash(rel)


class TestBulkConstruction:
    """``Relation(schema, rows)`` ≡ an empty relation plus one ``add`` per row.

    The constructor adopts an already-normalized row list in one pass; these
    pin everything a per-row build leaves behind (version, delta log, floor,
    freezing, validation) so the bulk path cannot drift from it.
    """

    SCHEMA = make_schema("T", [("a", "int"), ("b", "string")])

    @staticmethod
    def _by_add(rows):
        rel = Relation(TestBulkConstruction.SCHEMA)
        for row in rows:
            rel.add(row, validate=False)
        return rel

    @pytest.mark.parametrize("n", [0, 1, 7, Relation.DELTA_LOG_LIMIT,
                                   Relation.DELTA_LOG_LIMIT + 5])
    def test_matches_per_row_adds(self, n):
        rows = [(i, f"v{i % 3}") for i in range(n)]
        bulk = Relation(self.SCHEMA, rows, validate=False)
        slow = self._by_add(rows)
        assert bulk.version == slow.version == n
        assert bulk.rows() == slow.rows() == rows
        assert bulk._delta_floor == slow._delta_floor
        assert list(bulk._delta_log) == list(slow._delta_log)
        for anchor in (0, n // 2, max(0, n - 3), n):
            assert bulk.delta_since(anchor) == slow.delta_since(anchor)
            assert bulk.delta_count_since(anchor) == \
                slow.delta_count_since(anchor)
            assert bulk.rows_at(anchor) == slow.rows_at(anchor)

    def test_delta_log_tail_is_bounded(self):
        n = Relation.DELTA_LOG_LIMIT + 5
        rel = Relation(self.SCHEMA, [(i, "x") for i in range(n)],
                       validate=False)
        assert len(rel._delta_log) == Relation.DELTA_LOG_LIMIT
        assert rel.delta_since(4) is None          # evicted: rebuild required
        assert rel.delta_since(5) == [(i, "x") for i in range(5, n)]

    def test_an_answer_keeps_no_delta_log(self):
        """An engine result is frozen at publication: it is built with an
        empty log whose floor is its version, so a window into it says
        "rebuild" like any evicted anchor — and it is still a relation."""
        from repro.engine import build_result_relation

        rows = [(i, "x") for i in range(9)]
        answer = build_result_relation(("a", "b"), rows)
        assert answer.rows() == rows and answer.version == 9
        assert not answer._delta_log and answer._delta_floor == 9
        assert answer.delta_since(8) is None and answer.rows_at(3) is None
        assert answer.delta_since(9) == [] and answer.delta_count_since(9) == 0
        rows.append((9, "y"))
        assert len(answer) == 9                      # not aliased either
        answer.add((9, "y"))
        assert answer.delta_since(9) == [(9, "y")] and answer.version == 10

    @pytest.mark.parametrize("language", ["sql", "ra", "trc", "drc", "datalog"])
    def test_an_interpreter_answer_keeps_no_delta_log(self, db, language):
        """The reference interpreters package answers like the engine, so a
        cached fallback answer carries no log either."""
        from repro.queries import CANONICAL_QUERIES
        from repro.translate.equivalence import answer_relation

        answer = answer_relation(getattr(CANONICAL_QUERIES[0], language), db)
        assert len(answer) > 0 and answer.version == len(answer)
        assert not answer._delta_log and answer._delta_floor == answer.version

    def test_adopted_list_is_not_aliased(self):
        rows = [(1, "a"), (2, "b")]
        rel = Relation(self.SCHEMA, rows, validate=False)
        rows.append((3, "c"))
        assert len(rel) == 2
        rel.add((4, "d"))
        assert rows == [(1, "a"), (2, "b"), (3, "c")]
        assert rel.version == 3 and rel.delta_since(2) == [(4, "d")]

    def test_caches_follow_later_adds(self):
        rel = Relation(self.SCHEMA, [(1, "a"), (1, "a")], validate=False)
        assert rel.distinct_rows() == [(1, "a")]
        assert rel.key_index([0]) == {1: [0, 1]}
        assert rel.column_store().arrays[0] == [1, 1]
        rel.add((2, "b"))
        assert rel.distinct_rows() == [(1, "a"), (2, "b")]
        assert rel.key_index([0]) == {1: [0, 1], 2: [2]}
        assert rel.column_store().arrays[1] == ["a", "a", "b"]

    def test_unnormalized_rows_still_normalize(self):
        rel = Relation(self.SCHEMA, [[1, "a"], {"a": 2, "b": "b"}, (3, "c")],
                       validate=False)
        assert rel.rows() == [(1, "a"), (2, "b"), (3, "c")]
        assert rel.version == 3
        gen = Relation(self.SCHEMA, ((i, "g") for i in range(3)),
                       validate=False)
        assert gen.rows() == [(0, "g"), (1, "g"), (2, "g")]

    def test_arity_still_checked_without_validation(self):
        with pytest.raises(RelationError, match="arity"):
            Relation(self.SCHEMA, [(1, "a"), (2,)], validate=False)

    def test_validate_true_still_type_checks(self):
        with pytest.raises(RelationError, match="not a valid"):
            Relation(self.SCHEMA, [(1, "a"), ("x", "b")])
        assert Relation(self.SCHEMA, [(1, "a")]).version == 1

    def test_freeze_after_bulk_build(self):
        rel = Relation(self.SCHEMA, [(1, "a")], validate=False)
        assert not rel.is_frozen
        assert rel.freeze() is rel and rel.is_frozen
        with pytest.raises(RelationError, match="frozen"):
            rel.add((2, "b"))
        copy = rel.copy()
        copy.add((2, "b"))
        assert not copy.is_frozen and copy.version == 2 and len(rel) == 1


class TestPartitionBy:
    def test_rows_with_equal_keys_share_a_partition(self):
        rel = relation_from_rows(
            "R", [("k", "int"), ("v", "int")],
            [(i % 7, i) for i in range(100)])
        parts = rel.partition_by(["k"], 3)
        assert sum(len(p) for p in parts) == len(rel)
        owner: dict[int, int] = {}
        for which, part in enumerate(parts):
            for key, _v in part.rows():
                assert owner.setdefault(key, which) == which, (
                    f"key {key} straddles partitions"
                )

    def test_partitions_preserve_relative_bag_order(self):
        rel = relation_from_rows("R", [("k", "int"), ("v", "int")],
                                 [(i % 3, i) for i in range(30)])
        for part in rel.partition_by(["k"], 4):
            values = [v for _k, v in part.rows()]
            assert values == sorted(values)

    def test_multi_attribute_keys_and_bad_counts(self):
        rel = relation_from_rows("R", [("a", "int"), ("b", "str")],
                                 [(1, "x"), (1, "y"), (2, "x"), (1, "x")])
        parts = rel.partition_by(["a", "b"], 2)
        assert sum(len(p) for p in parts) == 4
        with pytest.raises(ValueError):
            rel.partition_by(["a"], 0)


class TestFreeze:
    def test_frozen_relation_rejects_add(self):
        rel = relation_from_rows("R", [("a", "int")], [(1,)])
        assert not rel.is_frozen
        assert rel.freeze() is rel
        assert rel.is_frozen
        with pytest.raises(RelationError):
            rel.add((2,))
        assert rel.rows() == [(1,)]

    def test_copy_of_frozen_is_mutable(self):
        rel = relation_from_rows("R", [("a", "int")], [(1,)]).freeze()
        copy = rel.copy()
        assert not copy.is_frozen
        copy.add((2,))
        assert copy.rows() == [(1,), (2,)]
        assert rel.rows() == [(1,)]  # the frozen original is untouched


class TestDatabase:
    def test_sailors_instance_shape(self):
        db = sailors_database()
        assert set(db.relation_names) == {"Sailors", "Boats", "Reserves"}
        assert len(db.relation("Sailors")) == 10
        assert len(db.relation("Boats")) == 4
        assert len(db.relation("Reserves")) == 10
        assert db.total_rows() == 24

    def test_lookup_case_insensitive(self):
        db = sailors_database()
        assert db["sailors"].schema.name == "Sailors"
        assert "RESERVES" in db

    def test_active_domain(self):
        db = sailors_database()
        domain = db.active_domain()
        assert 102 in domain
        assert "red" in domain
        assert "Dustin" in domain

    def test_copy_is_independent(self):
        db = sailors_database()
        copy = db.copy()
        copy.relation("Boats").add((105, "Dinghy", "white"))
        assert len(db.relation("Boats")) == 4
        assert len(copy.relation("Boats")) == 5

    def test_drop_relation(self):
        db = sailors_database()
        db.drop_relation("Boats")
        assert "Boats" not in db
        with pytest.raises(SchemaError):
            db.drop_relation("Boats")

    def test_merge_databases(self):
        merged = merge_databases(empty_sailors_database(), sailors_database())
        assert len(merged.relation("Sailors")) == 10

    def test_from_dict(self):
        db = Database.from_dict({"T": ([("a", "int")], [(1,), (2,)])})
        assert len(db.relation("T")) == 2

    def test_summary(self):
        assert "Sailors: 4 columns, 10 rows" in sailors_database().summary()


class TestGenerators:
    def test_random_sailors_database_sizes(self):
        db = random_sailors_database(n_sailors=20, n_boats=5, n_reserves=40, seed=1)
        assert len(db.relation("Sailors")) == 20
        assert len(db.relation("Boats")) == 5
        assert len(db.relation("Reserves")) == 40

    def test_random_sailors_database_reproducible(self):
        a = random_sailors_database(seed=7, n_sailors=10, n_boats=4, n_reserves=20)
        b = random_sailors_database(seed=7, n_sailors=10, n_boats=4, n_reserves=20)
        assert a.relation("Sailors").rows() == b.relation("Sailors").rows()

    def test_reserves_reference_existing_keys(self):
        db = random_sailors_database(seed=3, n_sailors=8, n_boats=4, n_reserves=30)
        sids = set(db.relation("Sailors").column("sid"))
        bids = set(db.relation("Boats").column("bid"))
        for sid, bid, _day in db.relation("Reserves").rows():
            assert sid in sids
            assert bid in bids

    def test_random_relation_and_database(self):
        rel = random_relation(SAILORS_SCHEMA, n_rows=12, seed=0)
        assert len(rel) == 12
        db = random_database(sailors_database().schema, rows_per_relation=5, seed=2)
        assert all(len(r) == 5 for r in db)

    def test_database_family_distinct_seeds(self):
        family = database_family(sailors_database().schema, count=3, seed=0)
        assert len(family) == 3
        assert family[0].relation("Sailors").rows() != family[1].relation("Sailors").rows()
