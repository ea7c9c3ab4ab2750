"""Bit-packed dense linear algebra over GF(2).

Everything downstream (resolutions, Hom complexes, the cobar oracle)
reduces to rank/kernel/solve computations over the two-element field.
They all run on one elimination, :class:`IncrementalSpan`, which holds each
vector as a Python int (bit c is coordinate c), so adding one vector to
another is a single int XOR.  :class:`Solver` is that elimination run over
the columns of a matrix; :func:`rank` runs its reduction step untagged,
since a rank needs no relations or solutions.

The elimination works on columns.  For a matrix with ``rows`` rows, column
j enters tagged with bit ``rows + j`` and is reduced by its lowest set bit:
while that bit is the pivot of a stored column, the stored column is XORed
in.  The column then either owns a new pivot and is stored, or its vector
part vanishes and only its tag is left: a relation with a 1 at j and
otherwise only at stored columns, all earlier than j.  So one pass gives

- the pivot columns: those outside the span of the earlier columns, which
  are exactly the pivot columns of the reduced row echelon form (RREF)
  under the canonical rule (pivot on the lowest-index nonzero column);
- the kernel: the relation of free column j is a kernel vector with a 1 at
  j and a 0 at every other free column.  Only one kernel vector has that
  shape, so it is the RREF's free-variable basis vector for j, and the
  relations in column order are the RREF basis ordered by free column;
- solutions: b reduces to 0 exactly when it is in the column space, and
  its tag is then a solution supported on the pivot columns.  Only one
  solution has every free variable zero, so it is the RREF's canonical
  solution.

All three depend only on the matrix, never on the elimination order, and
are reproducible across runs, platforms and worker counts; no
back-substitution runs.  A vector added later becomes the next column when
it enlarges the span and is dropped when it does not, so the resolver can
reduce the columns of d_s, add the kernel vectors of d_{s-1} as candidate
generators, and read the next level's kernel off the relations.

:class:`BitMatrix` stores its rows in the same format, one Python int per
row.  :class:`Solver` takes its matrix in column form, a ``BitMatrix``
whose row j is column j, which is how the engine assembles its matrices,
so nothing is converted.  Vectors use the same format: a vector is one
Python int, bit c = coordinate c, whether it is a right side, a solution,
a kernel row or a span member.
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

    ``pivots`` maps a bit to the stored row whose lowest set bit it is.
    Stored rows carry their tags above the vector bits, so the vector part
    of the result is 0 exactly when the vector part of ``row`` lies in the
    span, and the tag part then records the stored rows XORed in.
    """
    while row:
        pivot = pivots.get((row & -row).bit_length() - 1)
        if pivot is None:
            break
        row ^= pivot
    return row


def rank(m: BitMatrix) -> int:
    # m and its transpose have one rank, so m's rows are eliminated as they
    # are stored, untagged: the rank needs no relations, pivots or solutions
    pivots: dict[int, int] = {}
    for row in m.row_bits:
        row = _reduce(pivots, row)
        if row:
            pivots[(row & -row).bit_length() - 1] = row
    return len(pivots)


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Canonical basis of the right kernel; see :meth:`Solver.kernel`."""
    return Solver(m.transpose()).kernel()


def solve(m: BitMatrix, b: int) -> Optional[int]:
    """Canonical solution of m x = b (free variables zero), or None."""
    return Solver(m.transpose()).solve(b)


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

    Row labels may be any hashable, mutually orderable values (ints, or
    tuples of them); columns never need a row count up front, which lets
    callers hash image vectors on the fly.  Each column is reduced as it
    arrives, persistence style: while its largest row label is already the
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
    pivot_col: dict = {}
    for support in columns:
        col: set = set()
        for r in support:
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
        pivot_rows.update(pivot_col)
    return len(pivot_col)


class IncrementalSpan:
    """Span that grows by vectors, held as tagged int rows keyed by pivot bit.

    A vector of ``cols`` bits that enlarges the span is stored as inserted
    vector k = ``size``: tagged with bit ``cols + k``, then reduced, so the
    bits of a stored row above ``cols`` record which inserted vectors it
    sums.  Each stored row's lowest set bit is its pivot, distinct across
    rows.  A vector already in the span is dropped and takes no tag.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.size = 0  # vectors inserted, so the next one's tag is bit cols + size
        self._mask = (1 << cols) - 1
        self._pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def rows(self) -> tuple[int, ...]:
        """Echelon rows currently spanning the space, by ascending pivot."""
        return tuple(self._pivots[p] & self._mask for p in sorted(self._pivots))

    def copy(self) -> "IncrementalSpan":
        other = IncrementalSpan(self.cols)
        other.size = self.size
        other._pivots = dict(self._pivots)
        return other

    def _check(self, vector: int) -> int:
        if vector < 0 or vector >> self.cols:
            raise ValueError(f"vector has a bit outside {self.cols} columns")
        return vector

    def contains(self, vector: int) -> bool:
        return not _reduce(self._pivots, self._check(vector)) & self._mask

    def _insert(self, vector: int) -> int:
        """Reduce ``vector`` tagged as inserted vector ``size``, and store it
        when it enlarges the span.  Returns the reduced row: its vector part
        is 0 exactly when nothing was stored, and its tag part then records
        the inserted vectors that sum to ``vector``."""
        row = _reduce(self._pivots, vector | (1 << (self.cols + self.size)))
        if row & self._mask:
            self._pivots[(row & -row).bit_length() - 1] = row
            self.size += 1
        return row

    def add(self, vector: int) -> bool:
        """Add a vector; returns True when it enlarged the span."""
        return bool(self._insert(self._check(vector)) & self._mask)

    def extend(self, rows: Iterable[int]) -> list[bool]:
        """Add vectors in order; for each, whether it enlarged the span."""
        mask = self._mask
        return [bool(self._insert(self._check(row)) & mask) for row in rows]


class Solver(IncrementalSpan):
    """The one elimination of a fixed matrix: rank, pivots, kernel, solutions.

    Built from the matrix in column form: row j of ``columns`` is column j.
    The span of those columns, inserted in order, so column j is inserted
    vector j; here ``cols`` is the length of a column (the matrix's row
    count) and ``size`` the number of columns.  A column already in the
    span of the earlier ones keeps its index and leaves its tag as a
    relation.  Vectors added later become further columns when they enlarge
    the span.
    """

    def __init__(self, columns: BitMatrix):
        n = columns.cols
        super().__init__(n)
        self._relations: list[int] = []
        mask = self._mask
        for col in columns.row_bits:
            row = self._insert(col)
            if not row & mask:
                self._relations.append(row >> n)
                self.size += 1

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        # a stored column's highest tag bit is its own index
        return tuple(sorted(row.bit_length() - 1 - self.cols for row in self._pivots.values()))

    def kernel(self) -> BitMatrix:
        """Canonical basis of the right kernel, one vector per row.

        The free-variable basis of the RREF, ordered by free column index:
        the vector for free column f has a 1 at f and is otherwise supported
        on pivot columns before f.
        """
        return BitMatrix(len(self._relations), self.size, self._relations)

    def solve(self, b: int) -> Optional[int]:
        """Canonical solution of m x = b (free variables zero), or None."""
        row = _reduce(self._pivots, self._check(b))
        if row & self._mask:
            return None
        return row >> self.cols
