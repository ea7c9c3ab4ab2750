"""Resolution engine: minimality, cones, products, LES, self-map selection."""

import gc
import hashlib
import itertools
import json
import weakref

import numpy as np
import pytest
from dense import to_array, to_dense, to_int
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gf2 import reference_kernel, reference_solve

from extforge import charts, gf2, milnor, modules
from extforge import resolution as R


@pytest.fixture(scope="module")
def res_a1_small():
    res = R.minimal_resolution(milnor.A1, 7, 18)
    res.verify_d_squared()
    res.verify_minimal()
    return res


@pytest.fixture(scope="module")
def res_a2_small():
    res = R.minimal_resolution(milnor.A2, 13, 34)
    res.verify_d_squared()
    res.verify_minimal()
    return res


def test_level_one_generators(res_a1_small, res_a2_small):
    assert sorted(g.t for g in res_a1_small.gens[1]) == [1, 2]
    assert sorted(g.t for g in res_a2_small.gens[1]) == [1, 2, 4]


def test_level_zero_is_one_generator(res_a1_small):
    assert [g.t for g in res_a1_small.gens[0]] == [0]


def test_ext_f2_matches_module_route(res_a1_small):
    # the Hom route stops one level short: it needs the next differential
    by_counting = R.ext_f2(res_a1_small, install_products=())
    by_hom = R.ext_over_complex(res_a1_small, modules.trivial(milnor.A1), "F2")
    assert by_hom.dims == {
        k: v for k, v in by_counting.dims.items() if k[0] <= by_hom.max_s
    }


def test_resolution_json_roundtrip(res_a1_small):
    doc = res_a1_small.to_json_dict()
    back = R.FreeComplex.from_json_dict(doc)
    assert isinstance(back, R.FreeResolution)
    assert R.ext_f2(back, install_products=()).dims == R.ext_f2(
        res_a1_small, install_products=()
    ).dims
    assert back.to_json_dict() == doc


def test_resolution_deterministic():
    a = R.minimal_resolution(milnor.A1, 6, 14)
    b = R.minimal_resolution(milnor.A1, 6, 14)
    assert a.to_json_dict() == b.to_json_dict()


def test_cached_layouts_match_the_final_generators():
    # minimal_resolution drops only the layouts of a level that gains
    # generators; every layout it leaves behind must still be current
    res = R.minimal_resolution(milnor.A2, 6, 20)
    cached = dict(res._coords_cache)
    assert len({s for s, _ in cached}) > 1
    for (s, t), (offsets, total) in cached.items():
        assert (list(offsets), total) == _reference_offsets(res, s, t), (s, t)


def test_cone_cells(res_a2_small):
    h8 = R.cone(res_a2_small, 3, 3)
    assert [(c.stem, c.filt) for c in h8.cells] == [(0, 0), (1, 2)]
    assert [c.label for c in h8.cells] == ["0", "1"]
    h8.verify_d_squared()


def test_cone_of_cone_cells(res_a2_small):
    h8 = R.cone(res_a2_small, 3, 3)
    sel = R.select_self_map(h8, 8, 24, res_a2_small, window_s=11, window_t=30)
    assert sel.unique
    assert sel.candidate_dim == 1
    assert list(sel.attach_coords) == [1]
    h8v = R.cone(h8, 8, 24, sel.attach_coords)
    assert [(c.stem, c.filt) for c in h8v.cells] == [(0, 0), (1, 2), (17, 7), (18, 9)]
    assert [c.label for c in h8v.cells] == ["0", "1", "17", "18"]


def test_cells_of_tensor():
    base = R.Cell("0", 0, 0), R.Cell("1", 1, 2)
    x = R.FreeComplex(milnor.A2, 1, 1, list(base), [[R.Gen(0, 0)], []], [[()], []])
    pairs = R.cells_of_tensor(x, x)
    assert pairs == ((0, 0), (1, 2), (1, 2), (2, 4))


def test_h0_cube_les(res_a2_small):
    sphere = R.ext_f2(res_a2_small)
    h8 = R.cone(res_a2_small, 3, 3)
    chart = R.ext_over_complex(h8, modules.trivial(milnor.A2), "F2", max_s=11)
    theta = R.attaching_action(sphere, 3, 3)
    report = R.les_consistency(sphere, chart, theta, 3, 3)
    assert report.ok, report.failures[:5]
    assert report.checked > 100


def test_attaching_action_shapes(res_a2_small):
    sphere = R.ext_f2(res_a2_small)
    theta = R.attaching_action(sphere, 3, 3)
    for (s, t), m in theta.items():
        assert m.cols == sphere.dims.get((s, t), 0)
        assert m.rows == sphere.dims.get((s + 3, t + 3), 0)


def test_yoneda_products(res_a2_small):
    sphere = R.ext_f2(res_a2_small)
    h0 = R.chart_class(sphere, 1, 1, [1])
    h1 = R.chart_class(sphere, 1, 2, [1])
    h2 = R.chart_class(sphere, 1, 4, [1])
    sq = R.yoneda_product(h0, h0)
    assert (sq.s, sq.t) == (2, 2) and any(sq.coords)
    assert any(R.yoneda_product(h1, h1).coords)
    # adjacent one-line classes multiply to zero
    assert not any(R.yoneda_product(h0, h1).coords)
    assert not any(R.yoneda_product(h1, h2).coords)


def test_attaching_action_validates_its_class(res_a2_small):
    sphere = R.ext_f2(res_a2_small, install_products=())
    assert sphere.dim(3, 3) == 1 and sphere.dim(3, 4) == 0
    for bad in ((0,), (1, 0), ()):
        with pytest.raises(R.ResolutionError, match="nonzero class in range"):
            R.attaching_action(sphere, 3, 3, bad)
    with pytest.raises(R.ResolutionError, match=r"no class at \(3,4\)"):
        R.attaching_action(sphere, 3, 4)


# ----- class lifting against the seeds built by generator index -----


def _reference_seed(res, s0, t0, coords):
    """Seed of a class of a minimal resolution, coordinate k on the k-th
    generator of internal degree t0 at level s0."""
    idx = [i for i, g in enumerate(res.level_gens(s0)) if g.t == t0]
    assert len(idx) == len(coords)
    return dict(zip(idx, coords))


def _reference_yoneda(a, b):
    """Coordinates of a * b, lifting a's index seed whatever the class."""
    res = a.chart.source
    lifted = R.lift_cocycle(res, a.s, a.t, _reference_seed(res, a.s, a.t, a.coords))
    mat = R._product_matrix_at(b.chart, lifted, (b.s, b.t))
    tdim = b.chart.dim(a.s + b.s, a.t + b.t)
    if tdim == 0:
        return ()
    vec = gf2.matvec(mat, sum(c << i for i, c in enumerate(b.coords)))
    return tuple((vec >> i) & 1 for i in range(tdim))


def test_lift_class_matches_index_seeds(res_a2_small):
    full = R.minimal_resolution(milnor.FULL, 4, 18)
    for res, names in ((res_a2_small, ("h0", "h1", "h2")), (full, ("h0", "h4"))):
        for name in names:
            s0, t0 = R.NAMED_CLASS_BIDEGREES[name]
            lifted, coords, dim = R._lift_class(res, s0, t0)
            assert (coords, dim) == ((1,), 1)
            assert lifted.rows == R.lift_cocycle(res, s0, t0, _reference_seed(res, s0, t0, (1,))).rows
    # h3 is no class over A(2): its spot is empty, and no seed is built
    assert not R._trivial_layout(res_a2_small, *R.NAMED_CLASS_BIDEGREES["h3"])
    with pytest.raises(R.ResolutionError, match=r"no class at \(1,8\)"):
        R._lift_class(res_a2_small, 1, 8)


def test_yoneda_product_matches_index_seed_products(res_a2_small):
    sphere = R.ext_f2(res_a2_small, install_products=())
    one_line = [t for s, t in sorted(sphere.dims) if s == 1]
    assert one_line == [1, 2, 4]
    checked = nonzero = 0
    for t0 in one_line:
        for x_coords in ((0,), (1,)):
            x = R.chart_class(sphere, 1, t0, x_coords)
            for s, t in sorted(sphere.dims):
                if s + 1 > sphere.max_s or t + t0 > sphere.max_t:
                    continue
                for y_coords in itertools.product((0, 1), repeat=sphere.dim(s, t)):
                    y = R.chart_class(sphere, s, t, y_coords)
                    got = R.yoneda_product(x, y)
                    assert (got.s, got.t) == (s + 1, t + t0)
                    assert got.coords == _reference_yoneda(x, y), (t0, x_coords, s, t, y_coords)
                    checked += 1
                    nonzero += any(got.coords)
    assert checked > 100 and nonzero > 10


def test_lifted_chain_maps_commute(res_a2_small, h8_small, monkeypatch):
    for name in ("h0", "h1", "h2"):
        lifted = R._lift_class(res_a2_small, *R.NAMED_CLASS_BIDEGREES[name])[0]
        lifted.verify()
    key = next(k for k, v in sorted(lifted.rows.items()) if k[0] > lifted.s0 and v)
    lifted.rows[key] ^= 1
    with pytest.raises(R.ResolutionError):
        lifted.verify()
    # the v1^8 self-map class on the h0^3 cone needs a corrected level
    corrected = []
    joint = R._lift_level_with_correction
    monkeypatch.setattr(R, "_lift_level_with_correction", lambda cm, s: corrected.append(s) or joint(cm, s))
    sel = R.select_self_map(h8_small, 8, 24, res_a2_small, window_s=11, window_t=30)
    R.lift_cocycle(h8_small, 8, 24, dict(sel.chosen_seed)).verify()
    assert corrected


def test_levels_below_the_top_do_not_depend_on_depth(res_a2_small, h8_small, monkeypatch):
    """What the chart pipeline's resolution depth rests on: a resolution to
    depth n agrees with a deeper one through level n, and a lift over it
    agrees below level n, including a lift that corrects a level."""
    deep = res_a2_small
    corrected = []
    joint = R._lift_level_with_correction
    monkeypatch.setattr(R, "_lift_level_with_correction", lambda cm, s: corrected.append(s) or joint(cm, s))
    seed = dict(R.select_self_map(h8_small, 8, 24, deep, window_s=11, window_t=30).chosen_seed)
    h0_cube_deep = R._lift_class(deep, 3, 3)[0].rows
    v18_deep = R.lift_cocycle(h8_small, 8, 24, seed).rows

    def at(rows, levels):
        return {k: v for k, v in rows.items() if k[0] in levels}

    for n in (10, 11):
        res = R.minimal_resolution(milnor.A2, n, deep.max_t)
        for s in range(n + 1):
            assert (res.gens[s], res.diff[s]) == (deep.gens[s], deep.diff[s]), (n, s)
        below = range(n)
        assert at(R._lift_class(res, 3, 3)[0].rows, below) == at(h0_cube_deep, below)
        h8 = R.cone(res, 3, 3)
        for s in below:
            assert (h8.gens[s], h8.diff[s]) == (h8_small.gens[s], h8_small.diff[s]), (n, s)
        corrected.clear()
        v18 = R.lift_cocycle(h8, 8, 24, seed).rows
        assert at(v18, below) == at(v18_deep, below)
        if n == 10:
            # the deep lift corrects level 11, which rewrites level 10: the
            # top level of a shallow lift is not final
            assert not corrected and at(v18, {10}) != at(v18_deep, {10})
        else:
            assert corrected == [11]


def test_ext_dim_at_consistent(res_a2_small):
    bo1 = modules.bo(1)
    chart = R.ext_over_complex(res_a2_small, bo1, "bo1", max_s=8, max_t=24)
    for spot in ((3, 15), (5, 11), (6, 18)):
        assert R.ext_dim_at(res_a2_small, bo1, *spot) == chart.dims.get(spot, 0)


def test_shared_action_cache_keeps_its_modules_alive(res_a2_small):
    # the cache is keyed per module; were a key's module freed, its identity
    # could pass to the next module, which would then read stale columns
    cache: dict = {}
    M = modules.bo(1)
    R.ext_dim_at(res_a2_small, M, 3, 15, cache)
    alive = weakref.ref(M)
    del M
    gc.collect()
    assert alive() is not None


def test_change_of_rings(res_a1_small, res_a2_small):
    """Ext_{A(2)}(dual of A(2)//A(1)) agrees with Ext_{A(1)}(F2)."""
    qm = modules.dualize(modules.quotient_hopf_module(milnor.A2, milnor.A1))
    cor = R.ext_over_complex(res_a2_small, qm, "cor", max_s=6, max_t=17)
    sphere = R.ext_f2(res_a1_small, install_products=())
    for s in range(7):
        for t in range(18):
            assert cor.dims.get((s, t), 0) == sphere.dims.get((s, t), 0), (s, t)


def test_vanishing_edge_is_supremum(res_a2_small):
    from fractions import Fraction

    slope = Fraction(1, 5)
    chart = R.ext_over_complex(res_a2_small, modules.bo(1), "bo1")
    c = R.vanishing_edge(chart, slope, 0)
    tight = 0
    for (s, t), d in chart.dims.items():
        if d and t - s >= 0:
            assert Fraction(s) <= slope * (t - s) + c
            tight += Fraction(s) == slope * (t - s) + c
    assert tight > 0


def test_chart_labels_and_cells(res_a2_small):
    h8 = R.cone(res_a2_small, 3, 3)
    chart = R.ext_over_complex(h8, modules.trivial(milnor.A2), "F2", max_s=10)
    for (s, t), labels in chart.labels.items():
        assert len(labels) == chart.dims[(s, t)]
        for lbl in labels:
            assert lbl.startswith(f"x_{{{t - s},{s}}}(")
            assert lbl.endswith("[0]") or lbl.endswith("[1]")


def test_chart_json_roundtrip(res_a1_small):
    chart = R.ext_f2(res_a1_small)
    doc = json.loads(json.dumps(chart.to_json_dict()))
    back = charts.TsvChart(
        dims={(s, t): d for s, t, d in doc["dims"]},
        labels={(s, t): tuple(v) for s, t, v in doc["labels"]},
        products={
            name: {
                (s, t): gf2.BitMatrix.from_support(len(rows), cols, rows)
                for s, t, rows, cols in entries
            }
            for name, entries in doc["products"].items()
        },
    )
    assert back.dims == chart.dims
    assert back.labels == chart.labels
    assert back.products == chart.products
    assert charts.render_tsv(back) == charts.render_tsv(chart)


def _permute_module_in_degree(M: modules.FiniteModule, degree: int):
    """Swap the labels of the first two basis vectors in one degree.

    FiniteModule orders its basis by (degree, label), so the two vectors
    trade places: every label keeps its position and the coaction is
    rewritten in the permuted basis.  Swapping the vectors themselves would
    be undone by that ordering and give back M.
    """
    basis = list(M.basis)
    a, b = [i for i, e in enumerate(basis) if e.degree == degree][:2]
    basis[a], basis[b] = basis[a]._replace(label=basis[b].label), basis[b]._replace(label=basis[a].label)
    permuted = modules.FiniteModule(M.algebra, basis, M.coaction)
    assert permuted.basis == M.basis
    assert permuted.coaction != M.coaction, "the permutation left the coaction unchanged"
    return permuted


def test_permuted_basis_gives_identical_chart(res_a2_small):
    bo11 = modules.tensor(modules.bo(1), modules.bo(1))
    assert bo11.dimension_in(11) >= 2
    permuted = _permute_module_in_degree(bo11, 11)
    permuted.verify_action()
    a = R.ext_over_complex(res_a2_small, bo11, "m", max_s=8, max_t=24)
    b = R.ext_over_complex(res_a2_small, permuted, "m", max_s=8, max_t=24)
    assert a.dims == b.dims
    assert charts.render_tsv(a) == charts.render_tsv(b)


# ----- element tables against the per-monomial assembly -----

_REF_BLOCKS: dict = {}


def _reference_block(algebra, side, mono, d):
    """Matrix of x -> x * mono (side "r") or mono * x (side "l") from degree
    d, built one product at a time."""
    key = (side, algebra, mono, d)
    if key not in _REF_BLOCKS:
        src = milnor.basis_in_degree(algebra, d)
        tgt = milnor.basis_in_degree(algebra, d + milnor.monomial_degree(mono))
        pos = {m: k for k, m in enumerate(tgt)}
        fixed = milnor.MilnorElement(algebra, frozenset([mono]))
        block = np.zeros((len(tgt), len(src)), dtype=np.uint8)
        for j, m in enumerate(src):
            x = milnor.MilnorElement(algebra, frozenset([m]))
            prod = milnor.milnor_product(x, fixed) if side == "r" else milnor.milnor_product(fixed, x)
            for term in prod.terms:
                block[pos[term], j] ^= 1
        _REF_BLOCKS[key] = block
    return _REF_BLOCKS[key]


def _reference_offsets(cplx, s, t):
    offsets, total = [], 0
    for g in cplx.level_gens(s):
        offsets.append(total)
        total += len(milnor.basis_in_degree(cplx.algebra, t - g.t))
    return offsets, total


def _reference_diff(cplx, s, t):
    rows_off, rows_total = _reference_offsets(cplx, s - 1, t)
    cols_off, cols_total = _reference_offsets(cplx, s, t)
    dense = np.zeros((rows_total, cols_total), dtype=np.uint8)
    for i, g in enumerate(cplx.level_gens(s)):
        for h, a in cplx.diff[s][i]:
            for mono in a.terms:
                block = _reference_block(cplx.algebra, "r", mono, t - g.t)
                r0, c0 = rows_off[h], cols_off[i]
                dense[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] ^= block
    return dense


def _reference_apply(cplx, a, s, t, vec):
    offs_in, _ = _reference_offsets(cplx, s, t)
    offs_out, total_out = _reference_offsets(cplx, s, t + (a.degree or 0))
    out = np.zeros(total_out, dtype=np.uint8)
    for i, g in enumerate(cplx.level_gens(s)):
        width = len(milnor.basis_in_degree(cplx.algebra, t - g.t))
        seg = vec[offs_in[i] : offs_in[i] + width]
        for mono in a.terms:
            block = _reference_block(cplx.algebra, "l", mono, t - g.t)
            out[offs_out[i] : offs_out[i] + block.shape[0]] ^= (block @ seg) % 2
    return out


@pytest.fixture(scope="module")
def h8_small(res_a2_small):
    return R.cone(res_a2_small, 3, 3)


def test_diff_dense_matches_per_monomial_assembly(res_a1_small, res_a2_small, h8_small):
    for cplx in (res_a1_small, res_a2_small, h8_small):
        for s in range(len(cplx.gens)):
            for t in range(cplx.max_t + 1):
                got = cplx.diff_dense(s, t)
                assert isinstance(got, gf2.BitMatrix)
                assert np.array_equal(to_dense(got), _reference_diff(cplx, s, t).T), (s, t)


def test_diff_solver_matches_reference_on_every_spot(res_a2_small, h8_small):
    rng = np.random.default_rng(13)
    for cplx in (res_a2_small, h8_small):
        for s in range(len(cplx.gens)):
            for t in range(cplx.max_t + 1):
                dense = _reference_diff(cplx, s, t)
                rows, cols = dense.shape
                solver = cplx.diff_solver(s, t)
                assert np.array_equal(to_dense(solver.kernel()), reference_kernel(dense)), (s, t)
                image = (dense.astype(int) @ rng.integers(0, 2, cols)) % 2
                for b in (image, rng.integers(0, 2, rows)):
                    want = reference_solve(dense, b)
                    got = solver.solve(to_int(b))
                    assert (got is None) == (want is None), (s, t)
                    if got is not None:
                        assert np.array_equal(to_array(got, cols), want), (s, t)


# sha256 of the sorted-key JSON of minimal_resolution(...).to_json_dict(),
# as computed before resolutions ran on column eliminations
PINNED_RESOLUTIONS = [
    ("A1", 8, 22, "1978b6f3256df58e213ef7507d9cd6ff0c374436370a74a9f671b81674816e96"),
    ("A2", 22, 100, "415f0d61e75fdfcfb6ae5bc7706b0354c4be1f1ca01d256fceb740ca1c04c238"),
    ("FULL", 6, 30, "8ea0812738b449f8f053649babbfd995618acc848500d776ad019a8aac465aeb"),
]


@pytest.mark.parametrize("algebra, max_s, max_t, digest", PINNED_RESOLUTIONS)
def test_resolution_bytes_are_pinned(algebra, max_s, max_t, digest):
    doc = R.minimal_resolution(getattr(milnor, algebra), max_s, max_t).to_json_dict()
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_element_matches_per_monomial_assembly(res_a2_small, data):
    cplx = res_a2_small
    s = data.draw(st.integers(0, len(cplx.gens) - 1), label="s")
    # source degrees run past 23, where A(2) has no basis
    t = data.draw(st.integers(0, cplx.max_t + 6), label="t")
    k = data.draw(st.integers(0, 23), label="|a|")
    basis = milnor.basis_in_degree(milnor.A2, k)
    terms = data.draw(st.sets(st.sampled_from(basis)), label="terms") if basis else set()
    a = milnor.MilnorElement(milnor.A2, frozenset(terms))
    n = cplx.free_dim(s, t)
    bits = data.draw(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)), label="vec")
    got = cplx.apply_element(a, s, t, bits)
    assert isinstance(got, int)
    n_out = cplx.free_dim(s, t + (a.degree or 0))
    assert np.array_equal(to_array(got, n_out), _reference_apply(cplx, a, s, t, to_array(bits, n)))


def test_apply_element_edge_cases(res_a2_small):
    cplx = res_a2_small
    sq4 = milnor.MilnorElement.sq(milnor.A2, 4)
    s, t = 5, 30
    assert any(t - g.t > 23 for g in cplx.level_gens(s))
    n = cplx.free_dim(s, t)
    for vec in (np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8)):
        for a in (sq4, milnor.MilnorElement(milnor.A2, frozenset()), milnor.MilnorElement.unit(milnor.A2)):
            got = cplx.apply_element(a, s, t, to_int(vec))
            n_out = cplx.free_dim(s, t + (a.degree or 0))
            assert np.array_equal(to_array(got, n_out), _reference_apply(cplx, a, s, t, vec))
    assert cplx.apply_element(sq4, s, t, 0) == 0


# ----- Hom-complex deltas against the dense block assembly -----


def _reference_hom_delta(cplx, M, s, t):
    """delta: Hom^{s,t} -> Hom^{s+1,t} from uint8 action blocks XORed into slices."""
    src_off, src_total = R._hom_layout(cplx, M, s, t)
    tgt_off, tgt_total = R._hom_layout(cplx, M, s + 1, t)
    dense = np.zeros((tgt_total, src_total), dtype=np.uint8)
    for gp, g in enumerate(cplx.level_gens(s + 1)):
        for h, a in cplx.diff[s + 1][gp]:
            d_src = t - cplx.gens[s][h].t
            for mono in a.terms:
                block = to_dense(M.monomial_action_matrix(mono, d_src))
                r0, c0 = tgt_off[gp], src_off[h]
                dense[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] ^= block
    return dense


def test_hom_delta_matches_dense_assembly(res_a2_small, h8_small):
    bo1 = modules.bo(1)
    # one cache for both complexes and both modules, as ext_dim_at callers share it
    cache: dict = {}
    for M in (bo1, modules.tensor(bo1, bo1)):
        for cplx in (res_a2_small, h8_small):
            for t in range(cplx.max_t + 1):
                deltas = []
                for s in range(len(cplx.gens) - 1):
                    got = R._hom_delta(cplx, M, s, t, cache)
                    assert isinstance(got, gf2.BitMatrix)
                    assert np.array_equal(to_dense(got), _reference_hom_delta(cplx, M, s, t).T), (s, t)
                    assert got == R._hom_delta(cplx, M, s, t)
                    deltas.append(got)
                for s in range(len(deltas) - 1):
                    assert gf2.multiply(deltas[s], deltas[s + 1]).is_zero(), (s, t)


def test_trivial_delta_matches_hom_delta_with_f2(res_a2_small, h8_small):
    # the class lifts keep their own trivial-coefficient assembly (it also
    # runs over the full algebra); over A(2) it must be the F2 Hom delta
    f2 = modules.trivial(milnor.A2)
    cache: dict = {}
    for cplx in (res_a2_small, h8_small):
        for t in range(cplx.max_t + 1):
            for s in range(len(cplx.gens) - 1):
                assert R._trivial_delta(cplx, s, t) == R._hom_delta(cplx, f2, s, t, cache), (s, t)


# ----- one-cell charts take ranks; representatives are built on demand -----


@pytest.fixture(scope="module")
def res_a2_10_30():
    return R.minimal_resolution(milnor.A2, 10, 30)


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("s0, t0", [(1, 1), (1, 2), (3, 3)])
def test_module_cone_les(res_a2_10_30, i, s0, t0):
    """The long exact sequence of a cone with bo(i) coefficients, whose
    attaching action multiplies on a module chart."""
    M = modules.bo(i)
    base = R.ext_over_complex(res_a2_10_30, M, f"bo{i}")
    theta = R.attaching_action(base, s0, t0)
    assert any(not m.is_zero() for m in theta.values())
    cone_chart = R.ext_over_complex(R.cone(res_a2_10_30, s0, t0), M, "cone")
    report = R.les_consistency(base, cone_chart, theta, s0, t0)
    assert report.ok, report.failures[:5]


def _local_key(local):
    return local.boundary_span.rows, local.rep_vectors


def test_on_demand_reps_equal_the_eager_ones(res_a2_small):
    bo1 = modules.bo(1)
    chart = R.ext_over_complex(res_a2_small, bo1, "bo1", max_s=8, max_t=24)
    # the same complex with a second, empty cell takes the eager multi-cell path
    twin = R.FreeComplex(
        res_a2_small.algebra, res_a2_small.max_s, res_a2_small.max_t,
        res_a2_small.cells + (R.Cell("99", 99, 0),), res_a2_small.gens, res_a2_small.diff,
    )
    eager = R.ext_over_complex(twin, bo1, "bo1", max_s=8, max_t=24)
    assert eager.dims == chart.dims and set(eager.reps) == set(chart.dims)
    assert chart.reps == {}
    for spot in chart.dims:
        assert _local_key(R._class_reps(chart, *spot)) == _local_key(eager.reps[spot]), spot
    assert set(chart.reps) == set(chart.dims)


def test_one_cell_charts_build_no_solver(res_a2_small, h8_small, monkeypatch):
    built = []
    real = gf2.Solver.__init__

    def counting(self, columns):
        built.append(columns.rows)
        real(self, columns)

    monkeypatch.setattr(gf2.Solver, "__init__", counting)
    bo1 = modules.bo(1)
    chart = R.ext_over_complex(res_a2_small, bo1, "bo1", max_s=8, max_t=24)
    assert built == []
    assert chart.dims and chart.reps == {}
    assert chart.provenance == {spot: (0,) * d for spot, d in chart.dims.items()}
    # a cone chart builds representatives for its cell provenance
    cone_chart = R.ext_over_complex(h8_small, bo1, "bo1", max_s=6, max_t=20)
    assert built
    assert set(cone_chart.provenance) == set(cone_chart.reps) == set(cone_chart.dims)
    assert {c for prov in cone_chart.provenance.values() for c in prov} == {0, 1}
