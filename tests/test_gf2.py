"""Bit-packed GF(2) linear algebra against a plain elimination reference.

The references work on numpy 0/1 arrays; ``dense`` converts them to and
from the package's int vectors and ``BitMatrix`` rows.
"""

from typing import Optional

import numpy as np
import pytest
from dense import to_array, to_dense, to_int, to_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extforge import gf2

# shapes reach 20 x 140, so rows run past 64 columns
_FEW = settings(max_examples=60, deadline=None)


def reference_rref(dense: np.ndarray, pivot_limit: Optional[int] = None):
    """Textbook Gauss-Jordan over GF(2), no packing tricks.

    Pivots on the lowest-index nonzero column, in the topmost available
    row, among the first ``pivot_limit`` columns; later columns (say an
    augmented right side) are carried along.  Returns the reduced matrix
    and its pivot columns.
    """
    work = dense.copy() % 2
    rows, cols = work.shape
    limit = cols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    for c in range(limit):
        rank = len(pivots)
        pivot = None
        for r in range(rank, rows):
            if work[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(rows):
            if r != rank and work[r, c]:
                work[r] ^= work[rank]
        pivots.append(c)
    return work, pivots


def reference_rank(dense: np.ndarray) -> int:
    return len(reference_rref(dense)[1])


def reference_kernel(dense: np.ndarray) -> np.ndarray:
    """Free-variable kernel basis read off the RREF, by free column."""
    reduced, pivots = reference_rref(dense)
    cols = dense.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.uint8)
    for k, f in enumerate(free):
        out[k, f] = 1
        for j, p in enumerate(pivots):
            out[k, p] = reduced[j, f]
    return out


def reference_solve(dense: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solution of dense x = b with every free variable zero, or None."""
    rows, cols = dense.shape
    reduced, pivots = reference_rref(np.concatenate([dense, b.reshape(rows, 1)], axis=1), cols)
    if reduced[len(pivots) :, cols].any():
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for j, p in enumerate(pivots):
        x[p] = reduced[j, cols]
    return x


@st.composite
def bit_arrays(draw, rows: int, cols: int) -> np.ndarray:
    """Uniform, sparse, left-padded or low-rank 0/1 arrays of a fixed shape.

    Left padding with zero columns pushes the pivots past column 64.
    """
    kind = draw(st.sampled_from(("uniform", "sparse", "padded", "low-rank")))

    def uniform(r: int, c: int, below: int = 128) -> np.ndarray:
        raw = draw(st.binary(min_size=r * c, max_size=r * c))
        return (np.frombuffer(raw, dtype=np.uint8).reshape(r, c) < below).astype(np.uint8)

    if kind == "uniform":
        return uniform(rows, cols)
    if kind == "sparse":
        return uniform(rows, cols, below=24)
    if kind == "padded":
        out = uniform(rows, cols)
        out[:, : draw(st.integers(0, cols))] = 0
        return out
    inner = draw(st.integers(0, 4))
    return (uniform(rows, inner).astype(int) @ uniform(inner, cols).astype(int) % 2).astype(np.uint8)


@st.composite
def dense_matrices(draw, max_rows: int = 20, max_cols: int = 140):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    return draw(bit_arrays(rows, cols))


EMPTY_SHAPES = (np.zeros((0, 70), dtype=np.uint8), np.ones((5, 0), dtype=np.uint8))


def with_empty_shapes(test):
    for dense in EMPTY_SHAPES:
        test = example(dense)(test)
    return test


@_FEW
@with_empty_shapes
@given(dense_matrices())
def test_dense_roundtrip(dense):
    m = to_matrix(dense)
    assert np.array_equal(to_dense(m), dense)
    assert m.rows == dense.shape[0] and m.cols == dense.shape[1]
    assert list(m.row_bits) == [sum(int(bit) << c for c, bit in enumerate(row)) for row in dense]


@_FEW
@with_empty_shapes
@given(dense_matrices())
def test_rank_matches_reference(dense):
    m = to_matrix(dense)
    assert gf2.rank(m) == reference_rank(dense)
    assert list(gf2.Solver(m.transpose()).pivot_columns) == reference_rref(dense)[1]


@_FEW
@given(dense_matrices())
def test_rank_transpose_invariant(dense):
    m = to_matrix(dense)
    assert gf2.rank(m) == gf2.rank(m.transpose())
    assert np.array_equal(to_dense(m.transpose().transpose()), dense)


@_FEW
@with_empty_shapes
@given(dense_matrices())
def test_transpose_matches_numpy(dense):
    t = to_matrix(dense).transpose()
    assert (t.rows, t.cols) == (dense.shape[1], dense.shape[0])
    assert np.array_equal(to_dense(t), dense.T)


@_FEW
@with_empty_shapes
@given(dense_matrices())
def test_kernel_is_kernel(dense):
    m = to_matrix(dense)
    kernel = gf2.kernel_basis(m)
    # the canonical basis: the reference's rows, in the same order
    assert np.array_equal(to_dense(kernel), reference_kernel(dense))
    assert kernel.rows + gf2.rank(m) == m.cols
    if kernel.rows and m.rows:
        prod = (dense.astype(int) @ to_dense(kernel).T) % 2
        assert not prod.any()


@_FEW
@given(dense_matrices(), st.data())
def test_solve_finds_preimages(dense, data):
    m = to_matrix(dense)
    x = data.draw(bit_arrays(1, m.cols))[0]
    b = (dense.astype(int) @ x) % 2
    y = gf2.solve(m, to_int(b))
    assert y is not None
    y = to_array(y, m.cols)
    assert np.array_equal((dense.astype(int) @ y) % 2, b)
    assert np.array_equal(y, reference_solve(dense, b))
    assert gf2.matvec(m, to_int(x)) == to_int(b)


@_FEW
@given(dense_matrices(), st.data())
def test_solver_agrees_with_solve(dense, data):
    m = to_matrix(dense)
    solver = gf2.Solver(m.transpose())
    expected = None
    for rhs in data.draw(bit_arrays(3, m.rows)):
        expected = reference_solve(dense, rhs)
        for got in (gf2.solve(m, to_int(rhs)), solver.solve(to_int(rhs))):
            assert (got is None) == (expected is None)
            if got is not None:
                assert np.array_equal(to_array(got, m.cols), expected)


def _check_elimination(solver, dense, rhs_rows):
    """Rank, pivots, kernel and solutions of ``solver`` against the RREF of dense."""
    rows, cols = dense.shape
    assert (solver.cols, solver.size) == (rows, cols)
    assert solver.rank == reference_rank(dense)
    assert list(solver.pivot_columns) == reference_rref(dense)[1]
    kernel = solver.kernel()
    assert (kernel.rows, kernel.cols) == (cols - solver.rank, cols)
    assert np.array_equal(to_dense(kernel), reference_kernel(dense))
    for rhs in rhs_rows:
        expected = reference_solve(dense, rhs)
        got = solver.solve(to_int(rhs))
        assert (got is None) == (expected is None)
        if got is not None:
            assert np.array_equal(to_array(got, cols), expected)


@_FEW
@given(dense_matrices(), st.data())
def test_column_elimination_matches_reference(dense, data):
    """Columns handed over directly, then more columns added one by one."""
    rows, cols = dense.shape
    solver = gf2.Solver(to_matrix(dense.T))
    image = (dense.astype(int) @ data.draw(bit_arrays(1, cols))[0].astype(int)) % 2
    _check_elimination(solver, dense, [image, *data.draw(bit_arrays(2, rows))])
    # candidates: drawn vectors, one inside the column space, a repeat
    extra = list(data.draw(bit_arrays(data.draw(st.integers(0, 6)), rows)))
    extra.insert(data.draw(st.integers(0, len(extra))), image)
    if extra:
        extra.append(extra[0])
    grown = dense
    for vec in extra:
        wider = np.concatenate([grown, vec.reshape(rows, 1)], axis=1)
        grows = reference_rank(wider) > reference_rank(grown)
        assert solver.add(to_int(vec)) == grows
        if grows:
            grown = wider
    # the span now eliminates the matrix with the growing vectors as columns
    _check_elimination(solver, grown, data.draw(bit_arrays(3, rows)))
    assert gf2.Solver(to_matrix(grown.T)).kernel() == solver.kernel()


@_FEW
@given(dense_matrices(), st.data())
def test_multiply_matches_numpy(a_dense, data):
    b_dense = data.draw(bit_arrays(a_dense.shape[1], data.draw(st.integers(0, 140))))
    prod = gf2.multiply(to_matrix(a_dense), to_matrix(b_dense))
    assert (prod.rows, prod.cols) == (a_dense.shape[0], b_dense.shape[1])
    assert np.array_equal(to_dense(prod), (a_dense.astype(int) @ b_dense.astype(int)) % 2)


@given(dense_matrices())
def test_sparse_rank_matches_dense(dense):
    columns = [tuple(np.nonzero(dense[:, c])[0]) for c in range(dense.shape[1])]
    assert gf2.sparse_rank(columns) == reference_rank(dense)


@given(dense_matrices())
def test_sparse_rank_pivot_rows_carry_the_rank(dense):
    # the column space projects isomorphically onto the reported pivot rows
    columns = [tuple(np.nonzero(dense[:, c])[0]) for c in range(dense.shape[1])]
    pivots: set = set()
    rank = gf2.sparse_rank(columns, pivots)
    assert len(pivots) == rank
    assert reference_rank(dense[sorted(pivots), :]) == rank


def test_sparse_rank_hashable_row_labels():
    # rows may be labeled by arbitrary hashables, not only integers
    cols = [
        [("a", 1), ("b", 2)],
        [("b", 2), ("c", 3)],
        [("a", 1), ("c", 3)],  # sum of the first two
    ]
    assert gf2.sparse_rank(cols) == 2


@_FEW
@with_empty_shapes
@given(dense_matrices())
def test_row_space_contains_own_rows(dense):
    span = gf2.IncrementalSpan(dense.shape[1])
    span.extend(to_matrix(dense).row_bits)
    for r in range(dense.shape[0]):
        assert span.contains(to_int(dense[r]))
        assert span.contains(to_int(dense[r] ^ dense[0]))


@_FEW
@given(dense_matrices(), st.data())
def test_incremental_span_rank(dense, data):
    cols = dense.shape[1]
    span = gf2.IncrementalSpan(cols)
    grew = [span.add(to_int(row)) for row in dense]
    assert span.rank == reference_rank(dense)
    # a row enlarges the span exactly when it raises the rank of the rows so far
    assert grew == [reference_rank(dense[: r + 1]) > reference_rank(dense[:r]) for r in range(len(dense))]
    batch = gf2.IncrementalSpan(cols)
    assert batch.extend(to_matrix(dense).row_bits) == grew
    assert batch.rank == span.rank
    echelon = np.array([to_array(row, cols) for row in span.rows], dtype=np.uint8)
    assert reference_rank(echelon.reshape(span.rank, cols)) == span.rank
    for row in dense:
        assert span.contains(to_int(row))
    for probe in data.draw(bit_arrays(3, cols)):
        in_span = reference_solve(dense.T, probe) is not None
        assert span.contains(to_int(probe)) == in_span == batch.contains(to_int(probe))
        assert batch.copy().add(to_int(probe)) != in_span


def test_from_support_and_get_bounds():
    m = gf2.BitMatrix.from_support(2, 3, [[0, 2], [1]])
    assert m.get(0, 2) == 1 and m.get(1, 1) == 1 and m.get(1, 2) == 0
    assert m.row_support(0) == (0, 2)
    try:
        m.get(2, 0)
    except IndexError:
        pass
    else:
        raise AssertionError("out-of-range get must raise")


def test_constructor_rejects_bad_payloads():
    gf2.BitMatrix(2, 3, [0b101, 0b010])
    for rows, cols, payload in (
        (2, 3, [0b101]),  # too few rows
        (1, 3, [0b1, 0b1]),  # too many rows
        (1, 3, [0b1000]),  # bit at column 3
        (2, 70, [0, 1 << 70]),  # bit past the last column, beyond one word
        (1, 0, [1]),  # any bit of a zero-column row
        (1, 3, [-1]),
        (-1, 3, []),
    ):
        try:
            gf2.BitMatrix(rows, cols, payload)
        except ValueError:
            continue
        raise AssertionError(f"accepted {rows}x{cols} payload {payload}")


def test_vectors_outside_the_columns_are_rejected():
    solver = gf2.Solver(gf2.BitMatrix.identity(3))
    span = gf2.IncrementalSpan(3)
    for bad in (1 << 3, -1):
        for call in (solver.solve, span.add, span.contains, lambda v: span.extend([v])):
            with pytest.raises(ValueError):
                call(bad)
    assert solver.solve(0b101) == 0b101 and span.add(0b101) and span.contains(0b101)


@_FEW
@with_empty_shapes
@given(dense_matrices())
def test_equal_matrices_compare_and_hash_equal(dense):
    rows, cols = dense.shape
    built = (
        to_matrix(dense),
        gf2.BitMatrix.from_support(rows, cols, [np.flatnonzero(row).tolist() for row in dense]),
        to_matrix(dense.T).transpose(),
        to_matrix(dense).transpose().transpose(),
    )
    for m in built:
        assert m == built[0] and hash(m) == hash(built[0])
    if rows and cols:
        flipped = dense.copy()
        flipped[rows - 1, cols - 1] ^= 1
        assert to_matrix(flipped) != built[0]
    assert gf2.BitMatrix.zeros(rows, cols + 1) != gf2.BitMatrix.zeros(rows, cols)


@pytest.mark.parametrize("n", [0, 1, 5, 64, 65, 140])
def test_zeros_and_identity(n):
    zero = gf2.BitMatrix.zeros(n, n + 3)
    assert (zero.rows, zero.cols) == (n, n + 3)
    assert zero.is_zero() and not to_dense(zero).any()
    assert zero == to_matrix(np.zeros((n, n + 3), dtype=np.uint8))
    eye = gf2.BitMatrix.identity(n)
    assert np.array_equal(to_dense(eye), np.eye(n, dtype=np.uint8))
    assert eye.is_zero() == (n == 0)
    m = to_matrix(np.arange(n * 7).reshape(n, 7) % 3 == 1)
    assert gf2.multiply(eye, m) == m
    assert gf2.multiply(m.transpose(), eye) == m.transpose()
    assert gf2.multiply(zero.transpose(), m).is_zero()
