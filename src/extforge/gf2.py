"""Bit-packed dense linear algebra over GF(2).

Everything downstream (resolutions, Hom complexes, the cobar oracle)
reduces to rank/kernel/solve computations over the two-element field.
They all run on one elimination, :class:`Solver`, which holds each row as
a Python int (bit c is column c), so a row operation is a single int XOR.

Forward reduction keys every row by its lowest set bit: while that bit is
already the pivot of a stored row, the stored row is XORed in.  The row
then either owns a new pivot or vanishes, leaving a relation among the
original rows.  The pivots found are the columns at which the rank of the
leading columns grows, whatever order the rows come in.  Back-substitution
clears each pivot column outside its own row and so reaches the reduced
row echelon form, which is unique.  Hence everything the canonical pivot
rule (pivot on the lowest-index nonzero column) defines -- the pivot
columns, the free-variable kernel basis ordered by free column, and the
solution with every free variable zero -- depends only on the matrix,
never on the elimination order, and is reproducible across runs,
platforms and worker counts.

:class:`BitMatrix` stores its rows in the same format, one Python int per
row, so the engine assembles matrices by XORing shifted int rows and hands
them to the elimination without converting; uint8 0/1 arrays appear only
at the edges (``from_dense``/``to_dense``, solve right sides and results).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

def _vector_int(vector, length: int) -> int:
    """A 0/1 vector as an int, bit c = entry c."""
    vec = np.asarray(vector, dtype=np.uint8).reshape(-1) & 1
    if vec.shape[0] != length:
        raise ValueError(f"vector length {vec.shape[0]} does not match {length}")
    return int.from_bytes(np.packbits(vec, bitorder="little").tobytes(), "little")


def _unpack_ints(rows: Sequence[int], cols: int) -> np.ndarray:
    """0/1 uint8 array with one row per int; the ints must be below 2**cols."""
    width = (cols + 7) // 8
    raw = b"".join(r.to_bytes(width, "little") for r in rows)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def _set_bits(x: int):
    """Positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class BitMatrix:
    """Immutable rows x cols matrix over GF(2), one Python int per row.

    Bit c of ``row_bits[r]`` is entry (r, c).  The constructor rejects a
    wrong row count and any bit at or above ``cols``, so equal matrices
    have equal payloads and hash alike.
    """

    __slots__ = ("rows", "cols", "row_bits")

    def __init__(self, rows: int, cols: int, row_bits: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        row_bits = tuple(row_bits)
        if len(row_bits) != rows:
            raise ValueError(f"{len(row_bits)} rows given for a {rows}x{cols} matrix")
        if row_bits and (min(row_bits) < 0 or max(row_bits).bit_length() > cols):
            raise ValueError(f"a row has a bit outside {cols} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_bits", row_bits)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BitMatrix is immutable")

    @staticmethod
    def zeros(rows: int, cols: int) -> "BitMatrix":
        return BitMatrix(rows, cols, (0,) * rows)

    @staticmethod
    def identity(n: int) -> "BitMatrix":
        return BitMatrix(n, n, [1 << i for i in range(n)])

    @staticmethod
    def from_dense(dense) -> "BitMatrix":
        arr = np.asarray(dense, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("dense payload must be 2-dimensional")
        packed = np.packbits(arr, axis=1, bitorder="little")
        return BitMatrix(*arr.shape, [int.from_bytes(row.tobytes(), "little") for row in packed])

    @staticmethod
    def from_support(rows: int, cols: int, support: Iterable[Iterable[int]]) -> "BitMatrix":
        """Build from an iterable of per-row column-index iterables; a
        column listed twice in one row cancels."""
        out = [0] * rows
        for r, row_cols in enumerate(support):
            for c in row_cols:
                if not 0 <= c < cols:
                    raise ValueError(f"column {c} out of range")
                out[r] ^= 1 << int(c)
        return BitMatrix(rows, cols, out)

    def to_dense(self) -> np.ndarray:
        return _unpack_ints(self.row_bits, self.cols)

    def int_rows(self) -> list[int]:
        """The rows as ints, bit c = column c."""
        return list(self.row_bits)

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        return (self.row_bits[r] >> c) & 1

    def row_support(self, r: int) -> tuple[int, ...]:
        return tuple(_set_bits(self.row_bits[r]))

    def is_zero(self) -> bool:
        return not any(self.row_bits)

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_dense(self.to_dense().T)

    def xor(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return BitMatrix(self.rows, self.cols, [a ^ b for a, b in zip(self.row_bits, other.row_bits)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_bits == other.row_bits
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_bits))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _reduce(pivots: dict[int, int], row: int) -> int:
    """XOR pivot rows into ``row`` until its lowest set bit is no pivot.

    ``pivots`` maps a column to the stored row whose lowest set bit it is.
    The result is 0 exactly when ``row`` lies in the span of those rows.
    """
    while row:
        pivot = pivots.get((row & -row).bit_length() - 1)
        if pivot is None:
            break
        row ^= pivot
    return row


class Solver:
    """The one elimination of a fixed matrix: rank, pivots, kernel, solutions.

    Row i enters tagged with bit ``cols + i``, so every reduced row also
    records which original rows it sums.  Rows whose matrix part vanishes
    are relations: m x = b is solvable exactly when b is orthogonal to
    every relation.  Back-substitution to the reduced echelon form runs
    once, on the first call that needs it.
    """

    def __init__(self, m: BitMatrix):
        self.matrix = m
        self._pivots: dict[int, int] = {}
        self._relations: list[int] = []
        self._reduced: Optional[list[tuple[int, int]]] = None
        cols = m.cols
        for i, row in enumerate(m.row_bits):
            row = _reduce(self._pivots, row | (1 << (cols + i)))
            low = (row & -row).bit_length() - 1
            if low < cols:
                self._pivots[low] = row
            else:
                self._relations.append(row >> cols)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    def _rref(self) -> list[tuple[int, int]]:
        """(pivot column, fully reduced tagged row), by ascending pivot."""
        if self._reduced is None:
            done: dict[int, int] = {}
            mask = 0  # pivot columns above the current one
            for p in sorted(self._pivots, reverse=True):
                row = self._pivots[p]
                hits = row & mask
                while hits:
                    low = hits & -hits
                    row ^= done[low.bit_length() - 1]
                    hits ^= low
                done[p] = row
                mask |= 1 << p
            self._reduced = sorted(done.items())
        return self._reduced

    def kernel(self) -> BitMatrix:
        """Canonical basis of the right kernel, one vector per row.

        The basis is the free-variable basis read off the RREF, ordered by
        free column index: the vector for free column f has a 1 at f and
        the pivot-row entries of column f at the pivot columns.
        """
        cols = self.matrix.cols
        reduced = self._rref()
        pivots = [p for p, _ in reduced]
        is_free = np.ones(cols, dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
        dense = np.zeros((free.size, cols), dtype=np.uint8)
        dense[np.arange(free.size), free] = 1
        if reduced:
            mask = (1 << cols) - 1
            rref = _unpack_ints([row & mask for _, row in reduced], cols)
            dense[:, pivots] = rref[:, free].T
        return BitMatrix.from_dense(dense)

    def solve(self, b) -> Optional[np.ndarray]:
        """Canonical solution of m x = b (free variables zero), or None."""
        m = self.matrix
        rhs = _vector_int(b, m.rows)
        if any((rel & rhs).bit_count() & 1 for rel in self._relations):
            return None
        x = np.zeros(m.cols, dtype=np.uint8)
        for p, row in self._rref():
            x[p] = ((row >> m.cols) & rhs).bit_count() & 1
        return x


def rank(m: BitMatrix) -> int:
    return Solver(m).rank


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Canonical basis of the right kernel; see :meth:`Solver.kernel`."""
    return Solver(m).kernel()


def solve(m: BitMatrix, b) -> Optional[np.ndarray]:
    """Canonical solution of m x = b (free variables zero), or None."""
    return Solver(m).solve(b)


def multiply(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product a @ b."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch {a.cols} vs {b.rows}")
    rows = b.row_bits
    out = []
    for row in a.row_bits:
        acc = 0
        for k in _set_bits(row):
            acc ^= rows[k]
        out.append(acc)
    return BitMatrix(a.rows, b.cols, out)


def sparse_rank(columns: Iterable[Iterable], pivot_rows: Optional[set] = None) -> int:
    """Rank over GF(2) of a matrix given as column supports.

    Row labels may be any hashable values; columns never need a row count
    up front, which lets callers hash image vectors on the fly.  Each
    column is reduced as it arrives, persistence style: while its lowest
    row (the row that first appeared latest in the stream) is already the
    pivot of an earlier column, that column is added in.  On the
    near-triangular sparse matrices the cobar oracle produces this needs
    few column additions (dense elimination is hopeless at those sizes).
    The rank itself is basis-independent, so the row order only affects
    speed.

    When pivot_rows is given, the label of every pivot row is added to it.
    The reduced columns are triangular on those rows, so the column space
    projects isomorphically onto them, which is what the cobar oracle's
    clearing relies on.
    """
    intern: dict = {}
    pivot_col: dict[int, set[int]] = {}
    for support in columns:
        col: set[int] = set()
        for key in support:
            r = intern.setdefault(key, len(intern))
            if r in col:
                col.remove(r)
            else:
                col.add(r)
        while col:
            low = max(col)
            pivot = pivot_col.get(low)
            if pivot is None:
                pivot_col[low] = col
                break
            col ^= pivot
    if pivot_rows is not None:
        labels = list(intern)
        pivot_rows.update(labels[r] for r in pivot_col)
    return len(pivot_col)


class IncrementalSpan:
    """Row space that grows by vectors, held as int rows keyed by pivot bit.

    Each stored row's lowest set bit is its pivot, distinct across rows;
    vectors are reduced by the same step as :class:`Solver` rows.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self._pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def rows(self) -> tuple[np.ndarray, ...]:
        """Echelon rows currently spanning the space, by ascending pivot."""
        return tuple(_unpack_ints([self._pivots[p] for p in sorted(self._pivots)], self.cols))

    def copy(self) -> "IncrementalSpan":
        other = IncrementalSpan(self.cols)
        other._pivots = dict(self._pivots)
        return other

    def contains(self, vector) -> bool:
        return not _reduce(self._pivots, _vector_int(vector, self.cols))

    def _insert(self, row: int) -> bool:
        row = _reduce(self._pivots, row)
        if row:
            self._pivots[(row & -row).bit_length() - 1] = row
        return bool(row)

    def add(self, vector) -> bool:
        """Add a vector; returns True when it enlarged the span."""
        return self._insert(_vector_int(vector, self.cols))

    def extend(self, rows) -> np.ndarray:
        """Add the rows of a BitMatrix or a 0/1 array in order; a mask of
        those that enlarged the span."""
        m = rows if isinstance(rows, BitMatrix) else BitMatrix.from_dense(rows)
        if m.cols != self.cols:
            raise ValueError(f"rows have {m.cols} columns, the span {self.cols}")
        return np.array([self._insert(row) for row in m.row_bits], dtype=bool)
