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
them to the elimination without converting.  Vectors use the same format:
a vector is one Python int, bit c = coordinate c, whether it is a right
side, a solution, a kernel row or a span member.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


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

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        return (self.row_bits[r] >> c) & 1

    def row_support(self, r: int) -> tuple[int, ...]:
        return tuple(_set_bits(self.row_bits[r]))

    def is_zero(self) -> bool:
        return not any(self.row_bits)

    def transpose(self) -> "BitMatrix":
        out = [0] * self.cols
        for r, row in enumerate(self.row_bits):
            bit = 1 << r
            # _set_bits inlined: this loop runs once per entry of every
            # differential the engine assembles
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= bit
                row ^= low
        return BitMatrix(self.cols, self.rows, out)

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
        free = {c: 1 << c for c in range(cols)}  # free column -> its vector
        for p, _ in reduced:
            del free[p]
        mask = (1 << cols) - 1
        for p, row in reduced:
            # off its own pivot, a reduced row is nonzero only at free columns
            for f in _set_bits((row & mask) ^ (1 << p)):
                free[f] |= 1 << p
        return BitMatrix(len(free), cols, free.values())

    def solve(self, b: int) -> Optional[int]:
        """Canonical solution of m x = b (free variables zero), or None."""
        m = self.matrix
        if b < 0 or b >> m.rows:
            raise ValueError(f"right side has a bit outside {m.rows} rows")
        if any((rel & b).bit_count() & 1 for rel in self._relations):
            return None
        x = 0
        for p, row in self._rref():
            x |= (((row >> m.cols) & b).bit_count() & 1) << p
        return x


def rank(m: BitMatrix) -> int:
    return Solver(m).rank


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Canonical basis of the right kernel; see :meth:`Solver.kernel`."""
    return Solver(m).kernel()


def solve(m: BitMatrix, b: int) -> Optional[int]:
    """Canonical solution of m x = b (free variables zero), or None."""
    return Solver(m).solve(b)


def combine(rows: Sequence[int], x: int) -> int:
    """The XOR of ``rows[k]`` over the set bits k of x: x^T times the matrix
    with those rows."""
    acc = 0
    for k in _set_bits(x):
        acc ^= rows[k]
    return acc


def matvec(m: BitMatrix, x: int) -> int:
    """m x for a vector x over m's columns; bit r of the result is row r."""
    out = 0
    for r, row in enumerate(m.row_bits):
        out |= ((row & x).bit_count() & 1) << r
    return out


def multiply(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product a @ b."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch {a.cols} vs {b.rows}")
    return BitMatrix(a.rows, b.cols, [combine(b.row_bits, row) for row in a.row_bits])


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
    def rows(self) -> tuple[int, ...]:
        """Echelon rows currently spanning the space, by ascending pivot."""
        return tuple(self._pivots[p] for p in sorted(self._pivots))

    def copy(self) -> "IncrementalSpan":
        other = IncrementalSpan(self.cols)
        other._pivots = dict(self._pivots)
        return other

    def _check(self, vector: int) -> int:
        if vector < 0 or vector >> self.cols:
            raise ValueError(f"vector has a bit outside {self.cols} columns")
        return vector

    def contains(self, vector: int) -> bool:
        return not _reduce(self._pivots, self._check(vector))

    def _insert(self, row: int) -> bool:
        row = _reduce(self._pivots, self._check(row))
        if row:
            self._pivots[(row & -row).bit_length() - 1] = row
        return bool(row)

    def add(self, vector: int) -> bool:
        """Add a vector; returns True when it enlarged the span."""
        return self._insert(vector)

    def extend(self, rows: Iterable[int]) -> list[bool]:
        """Add vectors in order; for each, whether it enlarged the span."""
        return [self._insert(row) for row in rows]
