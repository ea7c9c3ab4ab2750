"""numpy 0/1 arrays to and from the package's GF(2) format.

The package holds a vector as one Python int (bit c = coordinate c) and a
matrix as a ``gf2.BitMatrix`` of such rows.  The tests' independent
references are plain numpy uint8 arrays; these helpers convert between the
two and nothing else.
"""

import numpy as np

from extforge import gf2


def to_int(vec) -> int:
    """A 0/1 vector as an int, bit c = entry c."""
    bits = np.packbits(np.asarray(vec, dtype=np.uint8).reshape(-1) & 1, bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


def to_array(x: int, n: int) -> np.ndarray:
    """An int below 2**n as a 0/1 uint8 vector of length n."""
    assert 0 <= x < 1 << n, (x, n)
    raw = np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def to_matrix(dense) -> gf2.BitMatrix:
    """A 2-dimensional 0/1 array as a BitMatrix."""
    arr = np.asarray(dense, dtype=np.uint8) & 1
    assert arr.ndim == 2, arr.shape
    return gf2.BitMatrix(*arr.shape, [to_int(row) for row in arr])


def to_dense(m: gf2.BitMatrix) -> np.ndarray:
    """A BitMatrix as a rows x cols 0/1 uint8 array."""
    out = np.zeros((m.rows, m.cols), dtype=np.uint8)
    for r, row in enumerate(m.row_bits):
        out[r] = to_array(row, m.cols)
    return out
