"""Column batches: the data structures the columnar executor moves.

A :class:`Batch` is an ordered bag of rows stored column-wise; each column
is a :class:`Vector` — a base array plus an optional selection vector, so
filters and joins compose index vectors instead of copying columns (late
materialization).  The module sits below both the numpy kernels
(:mod:`repro.engine.kernels`) and the executor that drives them
(:mod:`repro.engine.vectorized`), which is what lets the executor import
its kernels rather than the other way round.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine.execute import Row

try:  # only needed to compose numpy selections the kernel layer emits
    import numpy as _np
except Exception:  # pragma: no cover - the numpy-absent leg
    _np = None  # type: ignore[assignment]


class Vector:
    """One column of a batch: a base array plus an optional selection vector.

    ``sel is None`` means the column *is* ``data``; otherwise position ``i``
    of the column is ``data[sel[i]]``.  Selections compose without touching
    the base arrays, which is what keeps multi-join pipelines cheap.  A
    selection is a Python list of ints below the kernels' crossover and a
    numpy index array from it up: the kernels hand back index arrays, and
    the positions a row test keeps at that size are converted where they are
    produced (:func:`repro.engine.kernels.index_array`), so no consumer
    converts them again.  Index arrays compose in C (:func:`_take`) and become Python
    ints only when a column is materialized.

    ``nd`` is the kernel layer's hook: scans set it to ``(store, index)``
    naming the backing :class:`~repro.data.relation.ColumnStore` column, and
    selection composition carries it along (the composed ``sel`` still
    indexes the same base array).  :mod:`repro.engine.kernels` resolves it
    lazily into a cached numpy encoding; everything else ignores it.
    """

    __slots__ = ("data", "sel", "nd")

    def __init__(self, data: list[Any], sel: "list[int] | Any" = None,
                 nd: Any = None) -> None:
        self.data = data
        self.sel = sel
        self.nd = nd

    def materialize(self) -> list[Any]:
        if self.sel is None:
            return self.data
        data = self.data
        sel = self.sel
        if type(sel) is not list:  # numpy index array from a kernel
            sel = sel.tolist()
        return [data[i] for i in sel]


class Batch:
    """An ordered bag of rows stored column-wise."""

    __slots__ = ("columns", "vectors", "length")

    def __init__(self, columns: tuple[str, ...], vectors: list[Vector],
                 length: int) -> None:
        self.columns = columns
        self.vectors = vectors
        self.length = length

    @classmethod
    def from_rows(cls, columns: tuple[str, ...], rows: Sequence[Row]) -> "Batch":
        if rows:
            arrays = [list(column) for column in zip(*rows)]
        else:
            arrays = [[] for _ in columns]
        return cls(columns, [Vector(a) for a in arrays], len(rows))

    def rows(self) -> list[Row]:
        """Materialize the row view (the backend's final output)."""
        if not self.vectors:
            return [()] * self.length
        columns = [v.materialize() for v in self.vectors]
        if columns and len(columns[0]) != self.length:
            # Length-limited batch (an as-of window shares the relation's
            # full arrays): truncate to the logical length.
            return list(zip(*(column[:self.length] for column in columns)))
        return list(zip(*columns))

    def take(self, sel: list[int]) -> "Batch":
        """The sub-batch at positions ``sel`` (late: composes selections)."""
        return Batch(self.columns, _take(self.vectors, sel), len(sel))


def _take(vectors: list[Vector], sel: "list[int] | Any") -> list[Vector]:
    """Compose ``sel`` onto each vector, once per *distinct* source selection.

    Columns that came from the same operator share one selection list, so an
    n-column side of a join costs one composition, not n.  When either side
    is a numpy index array (kernel probe/DISTINCT output) the composition
    is a fancy index instead of a Python loop.
    """
    composed: dict[int, Any] = {}
    out = []
    for v in vectors:
        if v.sel is None:
            out.append(Vector(v.data, sel, v.nd))
            continue
        new_sel = composed.get(id(v.sel))
        if new_sel is None:
            base = v.sel
            if type(base) is list and type(sel) is list:
                new_sel = [base[i] for i in sel]
            else:  # numpy is importable: kernel selections only exist then
                new_sel = _np.asarray(base, dtype=_np.intp)[sel]
            composed[id(v.sel)] = new_sel
        out.append(Vector(v.data, new_sel, v.nd))
    return out


def _exact(vector: Vector, length: int) -> list[Any]:
    """Materialize a vector cut to the batch's logical length.

    Length-limited batches (as-of windows) share over-long base arrays;
    cutting keeps out-of-window rows invisible to array-level consumers.
    """
    data = vector.materialize()
    return data if len(data) == length else data[:length]


def _key_columns(batch: Batch, idx: list[int]) -> list[list[Any]]:
    return [_exact(batch.vectors[i], batch.length) for i in idx]


def _iter_key_list(key_columns: list[list[Any]], length: int):
    if len(key_columns) == 1:
        return key_columns[0]
    if not key_columns:
        return [()] * length
    return zip(*key_columns)
