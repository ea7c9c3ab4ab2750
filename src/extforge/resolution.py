"""Minimal free resolutions, Ext charts, chain maps, and mapping cones.

Grading conventions used throughout:

- A free complex stores, per homological level s, a list of generators with
  internal degrees t; differentials lower s by one and preserve t.
- The minimal resolution of the trivial module has Ext dimensions equal to
  generator counts; for other coefficients, Ext^{s,t} is the cohomology of
  the Hom complex whose (s,t)-cochains assign to a level-s generator g an
  element of the coefficient module in degree t - t_g, with differential
  (delta phi)(g') = sum a_{h,g'} * phi(h) through the degree-lowering module
  action.
- A cone over a class theta at (s0, t0) doubles the complex: level s becomes
  block1 (the base) plus block2 (the base from level s - (s0-1), internal
  degrees raised by t0), with differential d(x, y) = (dx, phi(x) + dy) for a
  chain map phi lifting theta.  Each base cell (stem, filt) reappears in
  block2 at (stem + t0 - s0 + 1, filt + s0 - 1).
- Charts are indexed by (s, t); renderers translate to (stem, filtration) =
  (t - s, s).

Class provenance on cone charts uses the cell filtration of the Hom complex
(the differential never lowers the cell index, so cochains vanishing above a
cell form a subcomplex): a class is carried by the lowest cell j such that
some representative vanishes on all generators of higher cells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from . import gf2
from .milnor import MilnorElement, Profile, _degree_products, basis_in_degree
from .modules import FiniteModule
from .records import record

if TYPE_CHECKING:
    from fractions import Fraction

RESOLUTION_FORMAT_VERSION = 1


class ResolutionError(ValueError):
    pass


class LiftError(RuntimeError):
    pass


# ----- multiplication tables on the algebra -----

_mul_cache: dict[tuple, tuple[int, ...]] = {}


def _mul_cols(algebra: Profile, side: str, a: MilnorElement, d: int) -> tuple[int, ...]:
    """Matrix of x -> x * a (side "r") or x -> a * x (side "l") from degree d.

    Layout: one Python int per column, column j for the j-th basis monomial
    of degree d; bit k of a column is the coefficient of the k-th basis
    monomial of degree d + |a|.  A column is the XOR of the product masks of
    its monomial with each term of ``a``, read from the one Milnor product
    table of degree d + |a|.  Tables are keyed by the whole element, so a
    block of a differential is one lookup however many terms it has.
    """
    key = (side, algebra.exponents, a.terms, d)
    out = _mul_cache.get(key)
    if out is None:
        products = _degree_products(algebra, d + (a.degree or 0)).get
        cols = []
        for m in basis_in_degree(algebra, d):
            col = 0
            for term in a.terms:
                col ^= products((m, term), 0) if side == "r" else products((term, m), 0)
            cols.append(col)
        out = _mul_cache[key] = tuple(cols)
    return out


def _segments(bits: int, offsets: Sequence[int], total: int):
    """(block index, block bits) for each nonzero block of a packed vector
    laid out by ``block_layout`` offsets."""
    last = len(offsets) - 1
    for i, lo in enumerate(offsets):
        high = bits >> lo
        if not high:
            return
        hi = offsets[i + 1] if i < last else total
        seg = high & ((1 << (hi - lo)) - 1)
        if seg:
            yield i, seg


# ----- free complexes -----


@record
class Cell(NamedTuple):
    label: str
    stem: int
    filt: int


@record
class Gen(NamedTuple):
    t: int
    cell: int


DiffRow = tuple[tuple[int, MilnorElement], ...]


@record
class AttachingRecord(NamedTuple):
    s0: int
    t0: int
    class_coords: tuple[int, ...]
    chart_dim: int


class FreeComplex:
    """A bounded free complex with cell bookkeeping.

    ``gens[s]`` lists the level-s generators; ``diff[s][i]`` gives the rows
    of d(gens[s][i]) as (target index at level s-1, MilnorElement) pairs.
    """

    def __init__(
        self,
        algebra: Profile,
        max_s: int,
        max_t: int,
        cells: Sequence[Cell],
        gens: Sequence[Sequence[Gen]],
        diff: Sequence[Sequence[DiffRow]],
        attachings: Sequence[AttachingRecord] = (),
    ):
        self.algebra = algebra
        self.max_s = max_s
        self.max_t = max_t
        self.cells = tuple(cells)
        self.gens = [list(level) for level in gens]
        self.diff = [list(level) for level in diff]
        self.attachings = tuple(attachings)
        self._coords_cache: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
        self._columns_cache: dict[tuple[int, int], gf2.BitMatrix] = {}
        self._solver_cache: dict[tuple[int, int], gf2.Solver] = {}

    # --- free module coordinates at (s, t): per-generator blocks ---

    def level_gens(self, s: int) -> tuple[Gen, ...]:
        return tuple(self.gens[s]) if 0 <= s < len(self.gens) else ()

    def block_layout(self, s: int, t: int) -> tuple[tuple[int, ...], int]:
        """Offsets of each generator's coordinate block and the total size."""
        key = (s, t)
        got = self._coords_cache.get(key)
        if got is None:
            offsets = []
            total = 0
            for g in self.level_gens(s):
                offsets.append(total)
                d = t - g.t
                if d >= 0:
                    total += len(basis_in_degree(self.algebra, d))
            got = (tuple(offsets), total)
            self._coords_cache[key] = got
        return got

    def free_dim(self, s: int, t: int) -> int:
        return self.block_layout(s, t)[1]

    def vector_to_rows(self, s: int, t: int, vec: int) -> DiffRow:
        """Read a coordinate vector back as (generator, element) pairs."""
        offsets, total = self.block_layout(s, t)
        row: list[tuple[int, MilnorElement]] = []
        for h, seg in _segments(vec, offsets, total):
            monos = basis_in_degree(self.algebra, t - self.gens[s][h].t)
            row.append((h, MilnorElement(self.algebra, frozenset(monos[j] for j in gf2._set_bits(seg)))))
        return tuple(row)

    def diff_dense(self, s: int, t: int) -> gf2.BitMatrix:
        """Matrix of d: level s -> level s-1 in internal degree t, in column
        form: row j of the result is column j of d (the image of the j-th
        basis vector of level s), so the result is d's transpose.

        Assembled column by column from the element tables, never cached.
        The name is kept for ``perfbench/traced.py``, which times it.
        """
        rows_off, rows_total = self.block_layout(s - 1, t)
        cols_off, cols_total = self.block_layout(s, t)
        cols = [0] * cols_total
        ends = cols_off[1:] + (cols_total,)
        for i, g in enumerate(self.level_gens(s)):
            if ends[i] == cols_off[i]:
                # below the generator, or above the top of a finite algebra
                continue
            for h, a in self.diff[s][i]:
                r0 = rows_off[h]
                for j, col in enumerate(_mul_cols(self.algebra, "r", a, t - g.t), cols_off[i]):
                    cols[j] ^= col << r0
        return gf2.BitMatrix(cols_total, rows_total, cols)

    def diff_columns(self, s: int, t: int) -> gf2.BitMatrix:
        """``diff_dense``, cached: d in column form (row j is column j)."""
        key = (s, t)
        got = self._columns_cache.get(key)
        if got is None:
            got = self._columns_cache[key] = self.diff_dense(s, t)
        return got

    def diff_solver(self, s: int, t: int) -> gf2.Solver:
        """The elimination of d's columns, cached."""
        key = (s, t)
        got = self._solver_cache.get(key)
        if got is None:
            got = self._solver_cache[key] = gf2.Solver(self.diff_columns(s, t))
        return got

    def apply_element(self, a: MilnorElement, s: int, t: int, vec: int) -> int:
        """Left-multiply a degree-t coordinate vector of level s by a.

        Vectors are ints, bit c = coordinate c.  The name is kept for
        ``perfbench/traced.py``, which times it.
        """
        offs_in, total_in = self.block_layout(s, t)
        offs_out = self.block_layout(s, t + (a.degree or 0))[0]
        acc = 0
        if not a.is_zero:
            for i, seg in _segments(vec, offs_in, total_in):
                table = _mul_cols(self.algebra, "l", a, t - self.gens[s][i].t)
                part = 0
                for j in gf2._set_bits(seg):
                    part ^= table[j]
                acc ^= part << offs_out[i]
        return acc

    def verify_d_squared(self) -> None:
        for s in range(2, len(self.gens)):
            for t in range(self.max_t + 1):
                if self.free_dim(s, t) == 0:
                    continue
                # in column form: the transpose of d_{s-1} d_s
                prod = gf2.multiply(self.diff_columns(s, t), self.diff_columns(s - 1, t))
                if not prod.is_zero():
                    raise ResolutionError(f"d^2 != 0 at level {s}, degree {t}")

    def to_json_dict(self) -> dict:
        return {
            "format_version": RESOLUTION_FORMAT_VERSION,
            "algebra": list(self.algebra.exponents) if self.algebra.exponents is not None else None,
            "max_s": self.max_s,
            "max_t": self.max_t,
            "cells": [[c.label, c.stem, c.filt] for c in self.cells],
            "gens": [[[g.t, g.cell] for g in level] for level in self.gens],
            "diff": [
                [
                    [[h, [list(m) for m in sorted(a.terms)]] for h, a in row]
                    for row in level
                ]
                for level in self.diff
            ],
            "attachings": [
                [r.s0, r.t0, list(r.class_coords), r.chart_dim] for r in self.attachings
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FreeComplex":
        if doc.get("format_version") != RESOLUTION_FORMAT_VERSION:
            raise ResolutionError(f"unsupported resolution format {doc.get('format_version')}")
        algebra = Profile(tuple(doc["algebra"]) if doc["algebra"] is not None else None)
        gens = [[Gen(t, c) for t, c in level] for level in doc["gens"]]
        diff = [
            [
                tuple(
                    (h, MilnorElement(algebra, frozenset(tuple(m) for m in monos)))
                    for h, monos in row
                )
                for row in level
            ]
            for level in doc["diff"]
        ]
        cells = [Cell(lbl, stem, filt) for lbl, stem, filt in doc["cells"]]
        attach = [AttachingRecord(s0, t0, tuple(cc), cd) for s0, t0, cc, cd in doc["attachings"]]
        klass: type = FreeResolution if len(cells) == 1 and not attach else FreeComplex
        return klass(algebra, doc["max_s"], doc["max_t"], cells, gens, diff, attach)


class FreeResolution(FreeComplex):
    """Minimal resolution of the trivial module (single 0-cell)."""

    def verify_minimal(self) -> None:
        for s in range(1, len(self.gens)):
            for i, g in enumerate(self.gens[s]):
                for h, a in self.diff[s][i]:
                    if not a.is_zero and self.gens[s - 1][h].t == g.t:
                        raise ResolutionError(
                            f"unit coefficient from level-{s} generator t={g.t}"
                        )

    def verify_exact(self) -> None:
        """dim F_{s,t} = rank d_{s,t} + rank d_{s+1,t} for 0 <= s < max_s and
        t <= max_t, plus one at (0, 0) for the augmentation.  Unlike d^2 = 0
        and minimality, this catches a missed generator."""
        for t in range(self.max_t + 1):
            rank_below = 0  # d_{0,t} maps to nothing
            for s in range(self.max_s):
                rank_above = gf2.rank(self.diff_columns(s + 1, t))
                dim = self.free_dim(s, t)
                if dim != rank_below + rank_above + (s == t == 0):
                    raise ResolutionError(
                        f"not exact at level {s}, degree {t}: dim {dim}, "
                        f"ranks {rank_below} below and {rank_above} above"
                    )
                rank_below = rank_above


def minimal_resolution(algebra: Profile, max_s: int, max_t: int) -> FreeResolution:
    """Minimal free resolution of the trivial module through (max_s, max_t).

    Generators are created in ascending internal degree, then ascending
    level; within one (s, t), new generators are the canonical kernel basis
    vectors not already reached by the differential, in kernel-basis order.
    Each (s, t) runs one elimination: the columns of d_s, then the kernel
    vectors of d_{s-1} as candidate columns.  A candidate that enlarges the
    span is a new generator, and the relations among d_s's columns are the
    canonical kernel the next level draws its candidates from.
    """
    if max_s <= 0 or max_t < 0:
        raise ResolutionError("bounds must be positive")
    gens: list[list[Gen]] = [[Gen(0, 0)]] + [[] for _ in range(max_s)]
    diff: list[list[DiffRow]] = [[()]] + [[] for _ in range(max_s)]
    res = FreeResolution(algebra, max_s, max_t, [Cell("0", 0, 0)], gens, diff)

    for t in range(1, max_t + 1):
        # the canonical kernel of d_{s-1} at this degree; d_0 is zero
        kernel_rows = gf2.BitMatrix.identity(res.free_dim(0, t)).row_bits
        for s in range(1, max_s + 1):
            elim = gf2.Solver(res.diff_dense(s, t))
            new_rows = [v for v in kernel_rows if elim.add(v)]
            if new_rows:
                for v in new_rows:
                    res.gens[s].append(Gen(t, 0))
                    res.diff[s].append(res.vector_to_rows(s - 1, t, v))
                # only level s gained generators, so only its layouts moved
                for key in [k for k in res._coords_cache if k[0] == s]:
                    del res._coords_cache[key]
            kernel_rows = elim.kernel().row_bits
    return res


# ----- Ext charts -----


class ExtChart:
    """Ext dimensions, class labels, cell provenance and product matrices by
    bidegree (s, t); the maps start empty and the builders fill them."""

    def __init__(
        self,
        algebra: str,
        coefficients: str,
        max_s: int,
        max_t: int,
        cells: tuple[Cell, ...] = (),
        source: Optional[FreeComplex] = None,
        module: Optional[FiniteModule] = None,
    ):
        self.algebra = algebra
        self.coefficients = coefficients
        self.max_s = max_s
        self.max_t = max_t
        self.dims: dict[tuple[int, int], int] = {}
        self.labels: dict[tuple[int, int], tuple[str, ...]] = {}
        self.provenance: dict[tuple[int, int], tuple[int, ...]] = {}
        self.cells = cells
        self.products: dict[str, dict[tuple[int, int], gf2.BitMatrix]] = {}
        self.notes: dict = {}
        # runtime-only handles for product installation and class arithmetic;
        # reps holds class representatives by spot: ext_over_complex builds
        # them for multi-cell charts with provenance, and products build the
        # rest on demand (_class_reps)
        self.source = source
        self.module = module
        self.reps: dict[tuple[int, int], CohomologyLocal] = {}

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "coefficients": self.coefficients,
            "max_s": self.max_s,
            "max_t": self.max_t,
            "dims": [[s, t, d] for (s, t), d in sorted(self.dims.items())],
            "labels": [[s, t, list(v)] for (s, t), v in sorted(self.labels.items())],
            "provenance": [[s, t, list(v)] for (s, t), v in sorted(self.provenance.items())],
            "cells": [[c.label, c.stem, c.filt] for c in self.cells],
            "products": {
                name: [
                    [s, t, [sorted(m.row_support(r)) for r in range(m.rows)], m.cols]
                    for (s, t), m in sorted(mats.items())
                ]
                for name, mats in self.products.items()
            },
            "notes": self.notes,
        }


def shown_dims(chart, stem_range: Optional[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """The nonzero dims of a chart whose stems lie in ``stem_range`` (all if
    None), in (stem, filtration) order: the one window step that the chart
    renderers and the ``ext`` command's class count share."""
    return {
        (s, t): chart.dims[(s, t)]
        for s, t in sorted(chart.dims, key=lambda k: (k[1] - k[0], k[0]))
        if chart.dims[(s, t)] and (stem_range is None or stem_range[0] <= t - s <= stem_range[1])
    }


class CohomologyLocal:
    """Coboundaries and canonical class representatives at (s,t); vectors
    are ints, bit c = coordinate c."""

    def __init__(self, boundary_span: gf2.IncrementalSpan, rep_vectors: tuple[int, ...]):
        self.boundary_span = boundary_span
        self.rep_vectors = rep_vectors

    @property
    def dim(self) -> int:
        return len(self.rep_vectors)

    def class_coords(self, vec: int) -> int:
        """Coordinates of a cocycle's class in the representative basis,
        bit i for representative i."""
        if self.dim == 0:
            if self.boundary_span.rank and not self.boundary_span.contains(vec):
                raise ResolutionError("vector is not a coboundary at a zero spot")
            return 0
        nb = self.boundary_span.rank
        # columns: the boundary's echelon rows, then the representatives
        stacked = self.boundary_span.rows + self.rep_vectors
        columns = gf2.BitMatrix(len(stacked), self.boundary_span.cols, stacked)
        sol = gf2.Solver(columns).solve(vec)
        if sol is None:
            raise ResolutionError("vector is not a cocycle class in range")
        return sol >> nb


def _hom_layout(cplx: FreeComplex, M: FiniteModule, s: int, t: int):
    """Coordinate offsets of Hom^{s,t}: per-generator blocks of M at t - t_g."""
    dim_of = M.dims_by_degree
    offsets = []
    total = 0
    for g in cplx.level_gens(s):
        offsets.append(total)
        total += dim_of.get(t - g.t, 0)
    return offsets, total


def _hom_delta(
    cplx: FreeComplex, M: FiniteModule, s: int, t: int, cache: Optional[dict] = None
) -> gf2.BitMatrix:
    """Matrix of delta: Hom^{s,t} -> Hom^{s+1,t}, in column form: row j of
    the result is column j of delta.

    In the column of coordinate c of source generator h, the block of
    target generator g' is the XOR, over the terms (h, a) of d(g'), of
    column c of the action of a on M.  ``cache`` may hold those action
    columns across calls.
    """
    if cache is None:
        cache = {}
    dim_of = M.dims_by_degree
    src_off, src_total = _hom_layout(cplx, M, s, t)
    targets = cplx.level_gens(s + 1)
    if not src_total:
        return gf2.BitMatrix(0, sum(dim_of.get(t - g.t, 0) for g in targets), ())
    gens_s = cplx.gens[s]
    diff = cplx.diff[s + 1] if targets else ()
    # keyed by module identity too: callers may share one cache across charts
    # with different coefficients.  Held in the cache, M keeps its id to itself
    m_id = id(M)
    cache.setdefault(m_id, M)
    cols = [0] * src_total
    r0 = 0  # first row of target generator g'
    for gp, g in enumerate(targets):
        n_rows = dim_of.get(t - g.t)
        if not n_rows:
            continue
        for h, a in diff[gp]:
            d_src = t - gens_s[h].t
            n_cols = dim_of.get(d_src)
            if not n_cols:
                continue
            key = (m_id, a.terms, d_src)
            act = cache.get(key)
            if act is None:
                rows = [0] * n_rows
                for mono in a.terms:
                    for r, row in enumerate(M.monomial_action_matrix(mono, d_src).row_bits):
                        rows[r] ^= row
                act = cache[key] = gf2.BitMatrix(n_rows, n_cols, rows).transpose().row_bits
            for j, col in enumerate(act, src_off[h]):
                cols[j] ^= col << r0
        r0 += n_rows
    return gf2.BitMatrix(src_total, r0, cols)


def _canonical_reps(delta_cur: gf2.Solver, prev_columns: Optional[gf2.BitMatrix]) -> CohomologyLocal:
    """Cohomology data from the eliminated outgoing delta and the incoming
    one in column form (row j is its column j)."""
    cocycles = delta_cur.kernel().row_bits
    boundary = gf2.IncrementalSpan(delta_cur.size)
    if prev_columns is not None:
        boundary.extend(prev_columns.row_bits)
    grew = boundary.copy().extend(cocycles)
    return CohomologyLocal(boundary, tuple(v for v, g in zip(cocycles, grew) if g))


def _provenance_of_class(
    cplx: FreeComplex,
    M: FiniteModule,
    s: int,
    t: int,
    delta_cur: gf2.BitMatrix,
    local: CohomologyLocal,
) -> tuple[int, ...]:
    """Lowest carrying cell per representative, via the cell filtration;
    ``delta_cur`` is delta in column form."""
    n_cells = len(cplx.cells)
    offsets, total = _hom_layout(cplx, M, s, t)
    blocks = [
        (g.cell, range(offsets[i], offsets[i] + M.dimension_in(t - g.t)))
        for i, g in enumerate(cplx.level_gens(s))
    ]
    out = [n_cells - 1] * local.dim
    pending = set(range(local.dim))
    for j in range(n_cells - 1):
        if not pending:
            break
        # cocycles vanishing above cell j: the kernel of delta with a unit
        # row appended for every column of a higher cell
        higher = [c for cell, cols in blocks if cell > j for c in cols]
        if len(higher) == total:
            continue
        columns = list(delta_cur.row_bits)
        for r, c in enumerate(higher, delta_cur.cols):
            columns[c] |= 1 << r
        stacked = gf2.BitMatrix(total, delta_cur.cols + len(higher), columns)
        span = local.boundary_span.copy()
        span.extend(gf2.Solver(stacked).kernel().row_bits)
        for idx in sorted(pending):
            if span.contains(local.rep_vectors[idx]):
                out[idx] = j
                pending.discard(idx)
    return tuple(out)


def ext_over_complex(
    cplx: FreeComplex,
    M: FiniteModule,
    coefficients: str,
    max_s: Optional[int] = None,
    max_t: Optional[int] = None,
) -> ExtChart:
    """Cohomology of Hom(cplx, M), with labels and cell provenance.

    Dimensions come from the ranks of the deltas.  A one-cell complex's
    classes all come from its one cell, so its chart takes ranks only:
    provenance is 0 everywhere and ``chart.reps`` is left empty, to be
    filled on demand by the products that read it.  A multi-cell chart
    builds the class representatives at every nonzero spot, since cell
    provenance reads them.
    """
    if M.algebra != cplx.algebra:
        raise ResolutionError("algebra mismatch between complex and coefficients")
    s_hi = min(cplx.max_s - 1, max_s if max_s is not None else cplx.max_s - 1)
    t_hi = min(cplx.max_t, max_t if max_t is not None else cplx.max_t)
    chart = ExtChart(
        algebra=cplx.algebra.describe(),
        coefficients=coefficients,
        max_s=s_hi,
        max_t=t_hi,
        cells=cplx.cells,
        source=cplx,
        module=M,
    )
    multi_cell = len(cplx.cells) > 1
    cache: dict = {}
    for t in range(t_hi + 1):
        prev_delta: Optional[gf2.BitMatrix] = None  # in column form
        prev_rank = 0
        for s in range(s_hi + 1):
            delta = _hom_delta(cplx, M, s, t, cache)
            cur_total = delta.rows
            if cur_total == 0:
                prev_delta, prev_rank = None, 0
                continue
            if multi_cell:
                solver = gf2.Solver(delta)
                rank_cur = solver.rank
            else:
                rank_cur = gf2.rank(delta)
            dim = (cur_total - rank_cur) - prev_rank
            if dim:
                chart.dims[(s, t)] = dim
                stem = t - s
                if multi_cell:
                    local = _canonical_reps(solver, prev_delta)
                    chart.reps[(s, t)] = local
                    prov = _provenance_of_class(cplx, M, s, t, delta, local)
                    chart.provenance[(s, t)] = prov
                    chart.labels[(s, t)] = tuple(
                        f"x_{{{stem},{s}}}({i + 1})[{cplx.cells[c].label}]"
                        for i, c in enumerate(prov)
                    )
                else:
                    chart.provenance[(s, t)] = (0,) * dim
                    chart.labels[(s, t)] = tuple(
                        f"x_{{{stem},{s}}}({i + 1})" for i in range(dim)
                    )
            prev_delta = delta
            prev_rank = rank_cur
    return chart


def ext_dim_at(
    cplx: FreeComplex,
    M: FiniteModule,
    s: int,
    t: int,
    cache: Optional[dict] = None,
) -> int:
    """Dimension of a single Hom-cohomology spot via two boundary ranks.

    Much cheaper than a full chart when only a handful of bidegrees are
    needed; the optional cache shares module action rows across calls.
    """
    if M.algebra != cplx.algebra:
        raise ResolutionError("algebra mismatch between complex and coefficients")
    if s < 0 or s + 1 > cplx.max_s or t > cplx.max_t:
        raise ResolutionError(f"spot ({s},{t}) outside the resolved range")
    _, cur_total = _hom_layout(cplx, M, s, t)
    if cur_total == 0:
        return 0
    rank_out = gf2.rank(_hom_delta(cplx, M, s, t, cache))
    rank_in = gf2.rank(_hom_delta(cplx, M, s - 1, t, cache)) if s > 0 else 0
    return (cur_total - rank_out) - rank_in


def ext_f2(res: FreeResolution, install_products: Iterable[str] = ("h0", "h1", "h2")) -> ExtChart:
    """Chart of the trivial module: dimensions are generator counts."""
    if not isinstance(res, FreeResolution):
        raise ResolutionError("generator counting needs a minimal resolution")
    chart = ExtChart(
        algebra=res.algebra.describe(),
        coefficients="F2",
        max_s=res.max_s,
        max_t=res.max_t,
        cells=res.cells,
        source=res,
        module=None,
    )
    for s in range(len(res.gens)):
        counter: dict[int, int] = {}
        for g in res.gens[s]:
            counter[g.t] = counter.get(g.t, 0) + 1
        for t in sorted(counter):
            d = counter[t]
            chart.dims[(s, t)] = d
            chart.labels[(s, t)] = tuple(f"x_{{{t - s},{s}}}({i + 1})" for i in range(d))
            chart.provenance[(s, t)] = tuple(0 for _ in range(d))
    for name in install_products:
        install_named_product(chart, name)
    return chart


# named classes on the chart of the trivial module: (s, t) bidegrees
NAMED_CLASS_BIDEGREES = {
    "h0": (1, 1),
    "h1": (1, 2),
    "h2": (1, 4),
    "h3": (1, 8),
    "h4": (1, 16),
    "g": (4, 24),
    "v14": (4, 12),
    "v18": (8, 24),
    "v28": (8, 56),
}


def install_named_product(chart: ExtChart, name: str) -> bool:
    """Install multiplication matrices for a named class on a chart over the
    minimal resolution.  Returns False (with a note) when the class's
    bidegree is not 1-dimensional in this resolution."""
    res = chart.source
    if not isinstance(res, FreeResolution):
        raise ResolutionError("named products install on resolution charts")
    s0, t0 = NAMED_CLASS_BIDEGREES[name]
    found = len(_trivial_layout(res, s0, t0))
    if found != 1:
        chart.notes[f"product_{name}"] = (
            f"not installed: class {name} needs dim 1 at ({s0},{t0}); found {found}"
        )
        return False
    chart.products[name] = _product_matrices(chart, _lift_class(res, s0, t0)[0])
    return True


def _product_matrices(chart: ExtChart, lifted: "ChainMap") -> dict[tuple[int, int], gf2.BitMatrix]:
    """Multiplication matrices of a lifted class, keyed by source bidegree,
    for every chart spot whose product stays in range."""
    return {
        spot: _product_matrix_at(chart, lifted, spot)
        for spot in sorted(chart.dims)
        if spot[0] + lifted.s0 <= chart.max_s and spot[1] + lifted.t0 <= chart.max_t
    }


def _product_matrix_at(
    chart: ExtChart, lifted: "ChainMap", spot: tuple[int, int]
) -> gf2.BitMatrix:
    """Multiplication matrix chart^{spot} -> chart^{spot + (s0,t0)}."""
    cplx = chart.source
    M = chart.module
    s, t = spot
    s0, t0 = lifted.s0, lifted.t0
    dim = chart.dim(s, t)
    tdim = chart.dim(s + s0, t + t0)
    if M is None:
        # trivial coefficients over a minimal resolution: unit coefficients
        # of the lifted chain map
        tgt_idx = _trivial_layout(cplx, s + s0, t + t0)
        src_idx = _trivial_layout(cplx, s, t)
        offsets, _ = cplx.block_layout(s, t)
        rows = []
        for gi in tgt_idx:
            vec = lifted.rows.get((s + s0, gi), 0)
            rows.append(sum(((vec >> offsets[hi]) & 1) << c for c, hi in enumerate(src_idx)))
        return gf2.BitMatrix(len(rows), len(src_idx), rows)
    if tdim == 0:
        return gf2.BitMatrix.zeros(0, dim)
    local = _class_reps(chart, s, t)
    tgt_local = _class_reps(chart, s + s0, t + t0)
    cols = [
        tgt_local.class_coords(_precompose(cplx, M, lifted, s, t, rep))
        for rep in local.rep_vectors
    ]
    return gf2.BitMatrix(len(cols), tdim, cols).transpose()


def _class_reps(chart: ExtChart, s: int, t: int) -> CohomologyLocal:
    """``chart.reps[(s, t)]``, built from the chart's complex and module and
    kept there when ``ext_over_complex`` did not build it: the same data as
    its eager path, from the deltas out of and into Hom^{s,t}."""
    got = chart.reps.get((s, t))
    if got is None:
        cplx, M = chart.source, chart.module
        prev = _hom_delta(cplx, M, s - 1, t) if s > 0 else None
        got = _canonical_reps(gf2.Solver(_hom_delta(cplx, M, s, t)), prev)
        chart.reps[(s, t)] = got
    return got


def _precompose(
    cplx: FreeComplex, M: FiniteModule, lifted: "ChainMap", s: int, t: int, cochain: int
) -> int:
    """Pull a Hom^{s,t} cochain back along a chain map of bidegree (s0,t0)."""
    s0, t0 = lifted.s0, lifted.t0
    src_off, _ = _hom_layout(cplx, M, s, t)
    tgt_off, _ = _hom_layout(cplx, M, s + s0, t + t0)
    out = 0
    for gi, g in enumerate(cplx.level_gens(s + s0)):
        if M.dimension_in(t + t0 - g.t) == 0:
            continue
        vec = lifted.rows.get((s + s0, gi))
        if not vec:
            continue
        d_here = g.t - t0
        offs, total = cplx.block_layout(s, d_here)
        acc = 0
        for hi, seg in _segments(vec, offs, total):
            h = cplx.gens[s][hi]
            src_d = t - h.t
            width_in = M.dimension_in(src_d)
            if width_in == 0:
                continue
            phi_h = (cochain >> src_off[hi]) & ((1 << width_in) - 1)
            if not phi_h:
                continue
            monos = basis_in_degree(cplx.algebra, d_here - h.t)
            for j in gf2._set_bits(seg):
                acc ^= gf2.matvec(M.monomial_action_matrix(monos[j], src_d), phi_h)
        out ^= acc << tgt_off[gi]
    return out


# ----- chain maps and lifting -----


class ChainMap:
    """Chain self-map of bidegree (s0, t0), stored per generator.

    ``rows[(s, i)]`` is the coordinate vector (an int, bit c = coordinate c)
    of the image of generator i of level s inside level s - s0 at internal
    degree t_i - t0.
    """

    def __init__(self, source: FreeComplex, s0: int, t0: int, rows: dict[tuple[int, int], int]):
        self.source = source
        self.s0 = s0
        self.t0 = t0
        self.rows = rows

    def verify(self) -> None:
        cplx = self.source
        for s in range(self.s0 + 1, len(cplx.gens)):
            for i, g in enumerate(cplx.level_gens(s)):
                lhs = 0
                vec = self.rows.get((s, i))
                if vec:
                    lhs = gf2.combine(cplx.diff_columns(s - self.s0, g.t - self.t0).row_bits, vec)
                if lhs != _lift_rhs(self, s, i):
                    raise ResolutionError(f"chain map fails to commute at level {s}, gen {i}")


def lift_cocycle(cplx: FreeComplex, s0: int, t0: int, seed: dict[int, int]) -> ChainMap:
    """Lift a trivial-coefficient cocycle to a chain map of bidegree (s0,t0).

    ``seed`` maps level-s0 generator indices of internal degree t0 to bits.
    Levels above s0 are solved generator by generator with the canonical
    rule; when a level fails, the previous level is adjusted by cycle-valued
    corrections that keep its own equations (and, at the seed level, the
    represented class) intact, and the level is re-solved jointly.

    A level's rows are final only after the next level is solved: a
    corrected level rewrites the rows of the level below it, and nothing
    lower.  So the rows at the top level of ``cplx`` may differ from those of
    the same lift over a deeper complex; every level below it agrees.
    """
    if len(cplx.level_gens(0)) != 1 or cplx.level_gens(0)[0].t != 0:
        raise ResolutionError("complex must have a single bottom generator in degree 0")
    rows: dict[tuple[int, int], int] = {}
    for i, g in enumerate(cplx.level_gens(s0)):
        bit = 1 if seed.get(i, 0) else 0
        if bit and g.t != t0:
            raise ResolutionError("seed supported outside internal degree t0")
        rows[(s0, i)] = bit
    cm = ChainMap(cplx, s0, t0, rows)
    for s in range(s0 + 1, len(cplx.gens)):
        failed = False
        for i, g in enumerate(cplx.level_gens(s)):
            rhs = _lift_rhs(cm, s, i)
            tgt_s, tgt_t = s - s0, g.t - t0
            if cplx.free_dim(tgt_s, tgt_t) == 0:
                if rhs:
                    failed = True
                    break
                rows[(s, i)] = 0
                continue
            sol = cplx.diff_solver(tgt_s, tgt_t).solve(rhs)
            if sol is None:
                failed = True
                break
            rows[(s, i)] = sol
        if failed:
            _lift_level_with_correction(cm, s)
    return cm


def _lift_rhs(cm: ChainMap, s: int, i: int) -> int:
    cplx = cm.source
    rhs = 0
    for h, a in cplx.diff[s][i]:
        hv = cm.rows.get((s - 1, h))
        if hv:
            rhs ^= cplx.apply_element(a, s - 1 - cm.s0, cplx.gens[s - 1][h].t - cm.t0, hv)
    return rhs


def _correction_kernel(cm: ChainMap, s_prev: int, h: int) -> tuple[int, ...]:
    """Admissible adjustments of the level-s_prev image of generator h: rows
    spanning the cycle subspace, with seed-functional changes excluded."""
    cplx = cm.source
    ts = s_prev - cm.s0
    tt = cplx.gens[s_prev][h].t - cm.t0
    dim = cplx.free_dim(ts, tt)
    if dim == 0 or (ts, tt) == (0, 0):
        # at (0, 0) only the unit coordinate lives; changing it would change
        # the represented class
        return ()
    if ts == 0:
        return gf2.BitMatrix.identity(dim).row_bits
    return cplx.diff_solver(ts, tt).kernel().row_bits


def _lift_level_with_correction(cm: ChainMap, s: int) -> None:
    """Joint solve of one lifting level together with cycle-valued
    adjustments of the previous level."""
    cplx = cm.source
    s0, t0 = cm.s0, cm.t0
    gens_s = cplx.level_gens(s)
    gens_prev = cplx.level_gens(s - 1)
    kernels = [_correction_kernel(cm, s - 1, h) for h in range(len(gens_prev))]

    x_off = [0]
    for g in gens_s:
        x_off.append(x_off[-1] + cplx.free_dim(s - s0, g.t - t0))
    psi_off = [x_off[-1]]
    for kern in kernels:
        psi_off.append(psi_off[-1] + len(kern))
    n_unknowns = psi_off[-1]

    # the joint system in column form: one column per unknown, with the
    # equations of generator i in the rows from r0
    cols = [0] * n_unknowns
    b = 0
    r0 = 0
    for i, g in enumerate(gens_s):
        rhs = _lift_rhs(cm, s, i)
        n_rows = cplx.free_dim(s - s0 - 1, g.t - t0)
        if n_rows == 0:
            if rhs:
                raise LiftError(f"lift obstructed at level {s}: no target for a nonzero image")
            continue
        b |= rhs << r0
        for j, col in enumerate(cplx.diff_columns(s - s0, g.t - t0).row_bits, x_off[i]):
            cols[j] = col << r0
        for h, a in cplx.diff[s][i]:
            for k, kv in enumerate(kernels[h], psi_off[h]):
                cols[k] ^= cplx.apply_element(a, s - 1 - s0, cplx.gens[s - 1][h].t - t0, kv) << r0
        r0 += n_rows
    sol = gf2.Solver(gf2.BitMatrix(n_unknowns, r0, cols)).solve(b)
    if sol is None:
        raise LiftError(f"lift obstructed at level {s}: the seed class does not lift")
    for h, kern in enumerate(kernels):
        combo = (sol >> psi_off[h]) & ((1 << len(kern)) - 1)
        if combo:
            cm.rows[(s - 1, h)] ^= gf2.combine(kern, combo)
    for i in range(len(gens_s)):
        cm.rows[(s, i)] = (sol >> x_off[i]) & ((1 << (x_off[i + 1] - x_off[i])) - 1)


# ----- chart classes and Yoneda products -----


@record
class ChartClass(NamedTuple):
    chart: ExtChart
    s: int
    t: int
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coords)


def chart_class(chart: ExtChart, s: int, t: int, coords: Sequence[int]) -> ChartClass:
    dim = chart.dim(s, t)
    if len(coords) != dim:
        raise ResolutionError(f"class coords length {len(coords)} != dim {dim}")
    return ChartClass(chart, s, t, tuple(int(c) & 1 for c in coords))


def yoneda_product(a: ChartClass, b: ChartClass) -> ChartClass:
    """Product of a trivial-coefficient resolution class with any class over
    the same resolution."""
    res = a.chart.source
    if not isinstance(res, FreeResolution) or a.chart.module is not None:
        raise ResolutionError("left factor must be a trivial-coefficient resolution class")
    if b.chart.source is not res:
        raise ResolutionError("classes live over different resolutions")
    s_new, t_new = a.s + b.s, a.t + b.t
    if s_new > b.chart.max_s or t_new > b.chart.max_t:
        raise ResolutionError("product lands outside the computed bound")
    tdim = b.chart.dim(s_new, t_new)
    if a.is_zero() or tdim == 0:
        return ChartClass(b.chart, s_new, t_new, (0,) * tdim)
    lifted = _lift_class(res, a.s, a.t, a.coords)[0]
    mat = _product_matrix_at(b.chart, lifted, (b.s, b.t))
    vec = gf2.matvec(mat, sum(c << i for i, c in enumerate(b.coords)))
    return ChartClass(b.chart, s_new, t_new, tuple((vec >> i) & 1 for i in range(tdim)))


# ----- trivial-coefficient cochain complex of any free complex -----


def _trivial_layout(cplx: FreeComplex, s: int, t: int) -> list[int]:
    """Indices of level-s generators sitting exactly in internal degree t."""
    return [i for i, g in enumerate(cplx.level_gens(s)) if g.t == t]


def _trivial_delta(cplx: FreeComplex, s: int, t: int) -> gf2.BitMatrix:
    """Trivial-coefficient delta, functionals on level s to level s+1, in
    column form: row p is the column of the p-th source functional.

    Not a ``_hom_delta`` call with F2: class lifts also run over the full
    algebra, which has no finite trivial module."""
    src_pos = {i: p for p, i in enumerate(_trivial_layout(cplx, s, t))}
    tgt = _trivial_layout(cplx, s + 1, t)
    cols = [0] * len(src_pos)
    for r, gi in enumerate(tgt):
        for h, a in cplx.diff[s + 1][gi]:
            if h in src_pos and a.augmentation():
                cols[src_pos[h]] ^= 1 << r
    return gf2.BitMatrix(len(cols), len(tgt), cols)


def _local_cohomology(cplx: FreeComplex, s: int, t: int) -> CohomologyLocal:
    """Trivial-coefficient cohomology of the complex at one spot; vectors are
    indexed by the level-s generators of internal degree t."""
    cur = gf2.Solver(_trivial_delta(cplx, s, t))
    return _canonical_reps(cur, _trivial_delta(cplx, s - 1, t) if s >= 1 else None)


def _lift_class(
    cplx: FreeComplex, s0: int, t0: int, class_coords: Optional[Sequence[int]] = None
) -> tuple[ChainMap, tuple[int, ...], int]:
    """Chain map lifting a trivial-coefficient class of the complex at
    (s0,t0), given and checked as in ``cone``; returned with the class
    coordinates and the dimension of the spot."""
    local = _local_cohomology(cplx, s0, t0)
    if local.dim == 0:
        raise ResolutionError(f"no class at ({s0},{t0})")
    if class_coords is None:
        if local.dim != 1:
            raise ResolutionError(
                f"attaching class ambiguous: dim {local.dim} at ({s0},{t0}); pass class_coords"
            )
        class_coords = (1,)
    coords = tuple(int(c) & 1 for c in class_coords)
    if len(coords) != local.dim or not any(coords):
        raise ResolutionError("attaching class must be a nonzero class in range")
    cocycle_vec = gf2.combine(local.rep_vectors, sum(c << i for i, c in enumerate(coords)))
    seed = {i: (cocycle_vec >> p) & 1 for p, i in enumerate(_trivial_layout(cplx, s0, t0))}
    return lift_cocycle(cplx, s0, t0, seed), coords, local.dim


# ----- cones -----


def cone(
    base: FreeComplex,
    s0: int,
    t0: int,
    class_coords: Optional[Sequence[int]] = None,
) -> FreeComplex:
    """Mapping cone over a trivial-coefficient class of the base at (s0,t0).

    The class is given in the canonical representative basis of the base's
    chart at that spot; it defaults to the unique nonzero class when the
    spot is 1-dimensional.  Zero and ambiguous attaching classes are
    rejected.
    """
    phi, coords, dim = _lift_class(base, s0, t0, class_coords)

    shift_stem, shift_filt = t0 - s0 + 1, s0 - 1
    new_cells = list(base.cells) + [
        Cell(str(c.stem + shift_stem), c.stem + shift_stem, c.filt + shift_filt)
        for c in base.cells
    ]
    order = sorted(range(len(new_cells)), key=lambda i: (new_cells[i].stem, new_cells[i].filt))
    cell_rank = {old: new for new, old in enumerate(order)}
    cells_sorted = [new_cells[i] for i in order]
    n_base = len(base.cells)

    max_s, max_t = base.max_s, base.max_t
    gens: list[list[Gen]] = [[] for _ in range(max_s + 1)]
    diff: list[list[DiffRow]] = [[] for _ in range(max_s + 1)]
    b1_index: dict[tuple[int, int], int] = {}
    b2_index: dict[tuple[int, int], int] = {}
    for s in range(max_s + 1):
        for i, g in enumerate(base.level_gens(s)):
            b1_index[(s, i)] = len(gens[s])
            gens[s].append(Gen(g.t, cell_rank[g.cell]))
        s_src = s - (s0 - 1)
        if s_src >= 0:
            for i, g in enumerate(base.level_gens(s_src)):
                b2_index[(s, i)] = len(gens[s])
                gens[s].append(Gen(g.t + t0, cell_rank[n_base + g.cell]))
    for s in range(max_s + 1):
        for i, g in enumerate(base.level_gens(s)):
            row = [(b1_index[(s - 1, h)], a) for h, a in base.diff[s][i]]
            vec = phi.rows.get((s, i))
            if vec:
                for h, a in base.vector_to_rows(s - s0, g.t - t0, vec):
                    row.append((b2_index[(s - 1, h)], a))
            diff[s].append(tuple(row))
        s_src = s - (s0 - 1)
        if s_src >= 0:
            for i in range(len(base.level_gens(s_src))):
                row = [(b2_index[(s - 1, h)], a) for h, a in base.diff[s_src][i]]
                diff[s].append(tuple(row))
    record = AttachingRecord(s0, t0, coords, dim)
    return FreeComplex(
        base.algebra,
        max_s,
        max_t,
        cells_sorted,
        gens,
        diff,
        attachings=base.attachings + (record,),
    )


def cells_of_tensor(x: FreeComplex, y: FreeComplex) -> tuple[tuple[int, int], ...]:
    """Multiset of pairwise cell-bidegree sums (stem, filt), sorted."""
    return tuple(
        sorted((a.stem + b.stem, a.filt + b.filt) for a in x.cells for b in y.cells)
    )


# ----- self-map selection -----


@record
class SelfMapSelection(NamedTuple):
    """Outcome of picking a self-map class by bottom-cell restriction.

    ``candidate_dim`` and ``window_matching_dim`` describe the windowed
    Hom bicomplex (the matching family there includes artifacts from
    cochains whose constraints fall outside the window).  ``ambiguity_dim``
    is the certified bound: the total chart dimension at the flanking spots
    of the non-bottom cells.  When it vanishes, chain maps with the same
    bottom restriction are homotopic and the selection is canonical.
    """

    s0: int
    t0: int
    window_s: int
    window_t: int
    candidate_dim: int
    match_found: bool
    window_matching_dim: int
    ambiguity_dim: int
    chosen_seed: tuple[tuple[int, int], ...]
    attach_coords: tuple[int, ...]
    note: str

    @property
    def unique(self) -> bool:
        return self.match_found and self.ambiguity_dim == 0


def select_self_map(
    X: FreeComplex,
    s0: int,
    t0: int,
    sphere_res: FreeResolution,
    window_s: int,
    window_t: int,
) -> SelfMapSelection:
    """Self-map candidates of X at (s0, t0), selected by bottom restriction.

    Candidates are cohomology classes of the Hom(X, X) bicomplex inside the
    window of generators at levels <= window_s and internal degrees <=
    window_t; the canonical choice is the unique candidate whose
    bottom-cell restriction equals the pullback of the nonzero class of the
    sphere chart at (s0, t0), which must be 1-dimensional there.  Ambiguity
    and misses are reported, never silently resolved.
    """

    def layout(k: int):
        entries = []
        total = 0
        for s in range(max(k, 0), window_s + 1):
            for i, g in enumerate(X.level_gens(s)):
                if g.t > window_t:
                    continue
                size = X.free_dim(s - k, g.t - t0)
                entries.append((s, i, total, size))
                total += size
        return entries, total

    def dmat(k: int) -> gf2.BitMatrix:
        """The bicomplex differential out of column k, in column form."""
        src, src_total = layout(k)
        tgt, tgt_total = layout(k + 1)
        src_pos = {(s, i): (off, size) for s, i, off, size in src}
        cols = [0] * src_total
        for s, i, off, size in tgt:
            g = X.gens[s][i]
            rows_here = X.free_dim(s - k - 1, g.t - t0)
            if rows_here == 0:
                continue
            # term phi(d g)
            for h, a in X.diff[s][i]:
                hp = src_pos.get((s - 1, h))
                if hp is None or hp[1] == 0:
                    continue
                hg = X.gens[s - 1][h]
                offs_in, _ = X.block_layout(s - 1 - k, hg.t - t0)
                offs_out, _ = X.block_layout(s - 1 - k, g.t - t0)
                for bi, bg in enumerate(X.level_gens(s - 1 - k)):
                    d = hg.t - t0 - bg.t
                    if d < 0 or not basis_in_degree(X.algebra, d):
                        continue
                    r0 = off + offs_out[bi]
                    for j, col in enumerate(_mul_cols(X.algebra, "l", a, d), hp[0] + offs_in[bi]):
                        cols[j] ^= col << r0
            # term d(phi g)
            gp = src_pos.get((s, i))
            if gp is not None and gp[1]:
                for j, col in enumerate(X.diff_columns(s - k, g.t - t0).row_bits, gp[0]):
                    cols[j] ^= col << off
        return gf2.BitMatrix(src_total, tgt_total, cols)

    d_cur = gf2.Solver(dmat(s0))
    d_prev = dmat(s0 - 1) if s0 >= 1 else None
    local = _canonical_reps(d_cur, d_prev)

    sphere_n = len(_trivial_layout(sphere_res, s0, t0))
    if sphere_n != 1:
        raise ResolutionError(
            f"sphere chart at ({s0},{t0}) has dimension {sphere_n}; selection undefined"
        )
    bottom = min(range(len(X.cells)), key=lambda i: (X.cells[i].stem, X.cells[i].filt))
    x_local = _local_cohomology(X, s0, t0)
    spot_gens = _trivial_layout(X, s0, t0)
    target_vec = sum(1 << p for p, i in enumerate(spot_gens) if X.gens[s0][i].cell == bottom)
    target_coords = x_local.class_coords(target_vec)

    # bottom restriction: unit coefficient of phi at generators of (s0, t0)
    entries, _ = layout(s0)
    entry_pos = {(s, i): (off, size) for s, i, off, size in entries}
    br_cols = []
    for rep in local.rep_vectors:
        vec = 0
        for p, i in enumerate(spot_gens):
            got = entry_pos.get((s0, i))
            if got is not None and got[1]:
                vec |= ((rep >> got[0]) & 1) << p
        br_cols.append(x_local.class_coords(vec))
    br = gf2.Solver(gf2.BitMatrix(len(br_cols), x_local.dim, br_cols))
    sol = br.solve(target_coords)
    window_matching = br.size - br.rank

    # certified ambiguity: a map with vanishing bottom restriction factors
    # through the non-bottom cells of the target, so its classes are bounded
    # by the chart at the upward-flanking spots
    bottom_cell = X.cells[bottom]
    ambiguity = 0
    for c in X.cells:
        if c is bottom_cell:
            continue
        fs = s0 + (c.filt - bottom_cell.filt)
        ft = t0 + (c.stem + c.filt - bottom_cell.stem - bottom_cell.filt)
        if ft > X.max_t or fs > X.max_s - 1:
            raise ResolutionError(
                f"complex too small to certify uniqueness: need spot ({fs},{ft})"
            )
        ambiguity += _local_cohomology(X, fs, ft).dim

    combo = gf2.combine(x_local.rep_vectors, target_coords)
    seed = [(i, 1) for p, i in enumerate(spot_gens) if (combo >> p) & 1]
    if sol is None:
        note = "no candidate restricts to the sphere class"
    elif ambiguity:
        note = f"ambiguous: flanking cells contribute dimension {ambiguity}"
    else:
        note = "unique"
    return SelfMapSelection(
        s0,
        t0,
        window_s,
        window_t,
        local.dim,
        sol is not None,
        window_matching,
        ambiguity,
        tuple(seed),
        tuple((target_coords >> i) & 1 for i in range(x_local.dim)),
        note,
    )


def attaching_action(
    chart: ExtChart, s0: int, t0: int, class_coords: Optional[Sequence[int]] = None
) -> dict[tuple[int, int], gf2.BitMatrix]:
    """Multiplication matrices of a trivial-coefficient class of the chart's
    own complex, keyed by source bidegree.  The class is given and checked
    as in ``cone``.  Used to feed the long exact sequence check for a cone
    over that class."""
    cplx = chart.source
    if cplx is None:
        raise ResolutionError("attaching action needs a chart with runtime handles")
    return _product_matrices(chart, _lift_class(cplx, s0, t0, class_coords)[0])


# ----- long exact sequence consistency -----


@record
class LesReport(NamedTuple):
    checked: int
    failures: tuple[tuple[int, int, int, int], ...]  # (s, t, cone dim, predicted)

    @property
    def ok(self) -> bool:
        return not self.failures


def les_consistency(
    base_chart: ExtChart,
    cone_chart: ExtChart,
    mult: dict[tuple[int, int], gf2.BitMatrix],
    s0: int,
    t0: int,
) -> LesReport:
    """dim(cone)^{s,t} = dim coker(theta)^{s,t} + dim ker(theta)^{s-s0+1,t-t0}.

    ``mult`` holds the attaching-class multiplication matrices on the base
    chart keyed by source bidegree (source (s,t) mapping to (s+s0, t+t0)).
    """

    def theta_rank(spot: tuple[int, int]) -> int:
        m = mult.get(spot)
        return gf2.rank(m) if m is not None else 0

    failures = []
    checked = 0
    t_hi = min(cone_chart.max_t, base_chart.max_t)
    for t in range(t_hi + 1):
        for s in range(cone_chart.max_s + 1):
            if s + 1 > base_chart.max_s:
                continue
            coker = base_chart.dim(s, t) - theta_rank((s - s0, t - t0))
            ker = 0
            if s - s0 + 1 >= 0 and t - t0 >= 0:
                ker = base_chart.dim(s - s0 + 1, t - t0) - theta_rank((s - s0 + 1, t - t0))
            predicted = coker + ker
            actual = cone_chart.dim(s, t)
            checked += 1
            if predicted != actual:
                failures.append((s, t, actual, predicted))
    return LesReport(checked, tuple(failures))


def vanishing_edge(chart: ExtChart, slope: Optional[Fraction] = None, min_stem: int = 0) -> Fraction:
    """Largest s - slope*(t-s) over nonzero bidegrees: the chart's support
    satisfies s <= slope*stem + edge for stems past min_stem.  The slope
    defaults to 1/5."""
    from fractions import Fraction

    if slope is None:
        slope = Fraction(1, 5)
    best: Optional[Fraction] = None
    for (s, t) in chart.dims:
        stem = t - s
        if stem < min_stem:
            continue
        val = Fraction(s) - slope * stem
        if best is None or val > best:
            best = val
    if best is None:
        raise ResolutionError("chart has no classes past the requested stem")
    return best
