"""A database is a named collection of relations plus its schema."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.data.relation import Relation
from repro.data.schema import DatabaseSchema, RelationSchema, SchemaError


class Database:
    """An in-memory relational database instance.

    The database owns one :class:`~repro.data.relation.Relation` per relation
    in its :class:`~repro.data.schema.DatabaseSchema`.  Relation lookup is
    case-insensitive (SQL identifiers are case-insensitive) but preserves the
    declared capitalisation.
    """

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self._relations: dict[str, Relation] = {}
        self._structure_version = 0
        for rel in relations:
            self.add_relation(rel)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        tables: Mapping[str, tuple[Sequence[tuple[str, str]], Iterable[Sequence[Any]]]],
    ) -> "Database":
        """Build a database from ``{name: (columns, rows)}``."""
        db = cls()
        for name, (columns, rows) in tables.items():
            schema = RelationSchema(name, tuple(columns))
            db.add_relation(Relation(schema, rows))
        return db

    def add_relation(self, relation: Relation) -> None:
        """Add or replace a relation."""
        key = relation.schema.name.lower()
        replaced = self._relations.get(key)
        if replaced is not None:
            # Fold the outgoing relation's contribution into the structural
            # counter so `version` never moves backwards when a relation is
            # replaced by one with fewer rows.
            self._structure_version += replaced.version
        self._relations[key] = relation
        self._structure_version += 1

    def drop_relation(self, name: str) -> None:
        """Remove a relation; raises if it does not exist."""
        key = name.lower()
        if key not in self._relations:
            raise SchemaError(f"database has no relation {name!r}")
        self._structure_version += self._relations[key].version + 1
        del self._relations[key]

    @property
    def version(self) -> int:
        """A monotonic database version: changes whenever any content does.

        Combines the structural counter (relations added/replaced/dropped —
        each absorbing the departing relation's own counter, so the sum can
        only grow) with every live relation's
        :attr:`~repro.data.relation.Relation.version` counter (rows added).
        """
        return self._structure_version + sum(
            rel.version for rel in self._relations.values())

    @property
    def version_token(self) -> Any:
        """What a cached answer is keyed and stamped with: it moves on
        every write.  :attr:`version` here; a sharded database's token
        names the shard states too."""
        return self.version

    @property
    def structure_version(self) -> int:
        """Bumped only by :meth:`add_relation` / :meth:`drop_relation`.

        Plans depend on the schema but not on row contents, so the
        pipeline's plan cache keys on this coarser counter.
        """
        return self._structure_version

    # -- lookup ----------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        return DatabaseSchema(tuple(rel.schema for rel in self._relations.values()))

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(rel.schema.name for rel in self._relations.values())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def relation(self, name: str) -> Relation:
        """Return the relation called ``name`` (case-insensitive)."""
        key = name.lower()
        if key not in self._relations:
            raise SchemaError(f"database has no relation {name!r}")
        return self._relations[key]

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def relation_version(self, name: str) -> int:
        """The version of one relation, without materializing read views.

        Equivalent to ``self.relation(name).version`` here; sharded
        databases override it to sum per-shard versions so version probes
        stay O(shards) instead of rebuilding the merged relation.
        """
        return self.relation(name).version

    # -- writes ------------------------------------------------------------
    def add_row(self, relation: str, row: Sequence[Any], *,
                validate: bool = True) -> None:
        self.relation(relation).add(row, validate=validate)

    def add_rows(self, relation: str, rows: Iterable[Sequence[Any]], *,
                 validate: bool = True) -> None:
        """Append a batch to ``relation`` as **one** version bump."""
        self.relation(relation).add_rows(rows, validate=validate)

    # -- whole-database properties ----------------------------------------
    def active_domain(self) -> set[Any]:
        """The set of all values appearing anywhere in the database.

        The active domain is what makes safe relational calculus evaluable:
        quantifiers in DRC range over it rather than an infinite universe.
        """
        domain: set[Any] = set()
        for rel in self._relations.values():
            for row in rel.rows():
                domain.update(v for v in row if v is not None)
        return domain

    def total_rows(self) -> int:
        """Total number of rows across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def copy(self) -> "Database":
        """A deep-enough copy: new Relation objects sharing immutable rows."""
        return Database(
            Relation(rel.schema, rel.rows(), validate=False)
            for rel in self._relations.values()
        )

    def summary(self) -> str:
        """One line per relation: name, arity, cardinality."""
        lines = []
        for rel in self._relations.values():
            lines.append(f"{rel.schema.name}: {rel.schema.arity} columns, {len(rel)} rows")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Database({', '.join(self.relation_names)})"


def merge_databases(*databases: Database) -> Database:
    """Union the relations of several databases (later ones win on clashes)."""
    merged = Database()
    for db in databases:
        for rel in db:
            merged.add_relation(rel)
    return merged
