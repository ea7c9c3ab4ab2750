"""Reduced-cobar oracle: coalgebra identities, Cotor examples, Adem pairing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extforge import cobar, milnor, modules, resolution


def test_dual_basis_counts():
    # the dual basis of A(1) has 8 monomials spread over degrees 0..6
    basis = cobar.dual_basis(milnor.A1, 6)
    assert len(basis) == 8
    assert basis[0] == ()
    degs = sorted(cobar.monomial_degree(m) for m in basis)
    assert degs == [0, 1, 2, 3, 3, 4, 5, 6]


def test_truncated_multiplication():
    # xi1^2 * xi1^2 = xi1^4, but xi1^2 * xi1^2 = 0 in A(1)* (bound 4)
    assert cobar.multiply(milnor.A2, (2,), (2,)) == (4,)
    assert cobar.multiply(milnor.A1, (2,), (2,)) is None


def test_coproduct_of_xi2():
    # psi(xi2bar) = xi2bar (x) 1 + 1 (x) xi2bar + xi1bar (x) xi1bar^2
    terms = cobar.psi((0, 1))
    assert set(terms) == {((0, 1), ()), ((), (0, 1)), ((1,), (2,))}


def test_reduced_coproduct_drops_primitives():
    assert cobar.reduced_coproduct(milnor.A2, (1,)) == ()
    assert cobar.reduced_coproduct(milnor.A2, (0, 1)) == (((1,), (2,)),)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10))
def test_coassociativity_on_a2_basis(seed):
    """(psi (x) 1) psi = (1 (x) psi) psi on the dual basis of A(2)."""
    basis = cobar.dual_basis(milnor.A2, 23)
    mono = basis[seed % len(basis)]
    left: dict = {}
    for a, b in cobar.psi(mono):
        for a1, a2 in cobar.psi(a):
            key = (a1, a2, b)
            left[key] = left.get(key, 0) ^ 1
    right: dict = {}
    for a, b in cobar.psi(mono):
        for b1, b2 in cobar.psi(b):
            key = (a, b1, b2)
            right[key] = right.get(key, 0) ^ 1
    assert {k for k, v in left.items() if v} == {k for k, v in right.items() if v}


def test_comodule_from_monomials_closure_check():
    # xi2bar needs xi1bar^2 as a coaction target: {1, xi2bar} is not closed
    with pytest.raises(ValueError, match="closed under the coaction"):
        cobar.comodule_from_monomials(milnor.A2, [(), (0, 1)])
    # adding xi1bar^2 closes it
    cobar.comodule_from_monomials(milnor.A2, [(), (2,), (0, 1)])
    # frobenius squares of primitives stay primitive: {1, xi1bar^2} is closed
    cobar.comodule_from_monomials(milnor.A2, [(), (2,)])


def test_bo1_comodule_matches_module_bridge():
    direct = cobar.bo1_comodule(milnor.A2)
    bridged = cobar.comodule_from_module(modules.bo(1))
    assert direct.degrees == bridged.degrees
    assert direct.coaction == bridged.coaction


def test_budget_guard():
    with pytest.raises(cobar.CobarBudgetError, match="bound too large"):
        cobar.cotor(milnor.A1, max_s=8, max_stem=12)
    with pytest.raises(cobar.CobarBudgetError, match="bound too large"):
        cobar.cotor(milnor.A1, max_s=6, max_stem=15)


COEFFICIENTS = {"trivial": cobar.trivial_comodule, "bo1": cobar.bo1_comodule}


def _reference_apply_d(cx, elem):
    # the differential on element tuples (w_1, ..., w_s, j), with every term
    # parity-reduced through a dict, in the order the terms are generated;
    # it unpacks the complex's own split and coaction tables, so a broken
    # table breaks both routes alike
    words = elem[:-1]
    acc: dict = {}
    for pos in range(len(words)):
        head = elem[:pos]
        tail = elem[pos + 1 :]
        for pair in cx.splits[elem[pos]]:
            b = head + divmod(pair, 1 << cx.letter_bits) + tail
            acc[b] = acc.get(b, 0) ^ 1
    for pair in cx.coaction[elem[-1]]:
        b = words + divmod(pair, 1 << cx.index_bits)
        acc[b] = acc.get(b, 0) ^ 1
    return tuple(b for b, bit in acc.items() if bit)


def _reference_d_squared_nonzero(cx, s, t):
    # d(d(x)) by brute force, one element at a time
    for code in cx.elements(s, t):
        acc: dict = {}
        for term in _reference_apply_d(cx, cx.decode(code)):
            for term2 in _reference_apply_d(cx, term):
                acc[term2] = acc.get(term2, 0) ^ 1
        if any(acc.values()):
            return True
    return False


@pytest.mark.parametrize("coeff", sorted(COEFFICIENTS))
@pytest.mark.parametrize("algebra", [milnor.A1, milnor.A2], ids=["A1", "A2"])
def test_apply_d_matches_parity_reduced_reference(algebra, coeff):
    """apply_d lists each image term once, in the reference's order."""
    cx = cobar.CobarComplex(algebra, COEFFICIENTS[coeff](algebra), max_t=12)
    checked = 0
    for s in range(0, 5):
        for t in range(0, 13):
            for code in cx.elements(s, t):
                image = tuple(cx.decode(term) for term in cx.apply_d(code))
                assert image == _reference_apply_d(cx, cx.decode(code))
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("coeff", sorted(COEFFICIENTS))
@pytest.mark.parametrize("algebra", [milnor.A1, milnor.A2], ids=["A1", "A2"])
def test_elements_decode_to_the_slice_basis_in_order(algebra, coeff):
    """Codes decode to distinct elements of the right degree, ordered by
    comodule index, then letter-degree sequence, then letter ids."""
    cx = cobar.CobarComplex(algebra, COEFFICIENTS[coeff](algebra), max_t=12)
    degree = cx.letter_degree
    for s in range(0, 5):
        for t in range(0, 13):
            elems = [cx.decode(code) for code in cx.elements(s, t)]
            assert len(set(elems)) == len(elems) == cx.dimension(s, t)
            for e in elems:
                assert len(e) == s + 1
                assert sum(degree[w] for w in e[:-1]) + cx.comodule.degrees[e[-1]] == t
            order = sorted(elems, key=lambda e: (e[-1], [degree[w] for w in e[:-1]], e[:-1]))
            assert elems == order


def test_parity_rule_pairs_off_sorted_codes():
    """d(d(x)) vanishes exactly when every code occurs an even number of times."""
    for odd in ([5, 5, 5], [3, 9], [7, 7, 2], [4]):
        assert not cobar._cancels(list(odd))
    for even in ([9, 2, 2, 9], [6, 6, 6, 6], [], [1 << 40, 3, 3, 1 << 40]):
        assert cobar._cancels(list(even))


def test_d_squared_vanishes_on_small_slices():
    for algebra in (milnor.A1, milnor.A2):
        for comodule in COEFFICIENTS.values():
            cx = cobar.CobarComplex(algebra, comodule(algebra), max_t=12)
            for s in (1, 2, 3):
                for t in range(s, 10):
                    cx.verify_d_squared(s, t)


def _drop_xi2_split(cx):
    # forget the one splitting xibar_2 -> [xibar_1 | xibar_1^2], so that
    # d no longer squares to zero
    xi2 = cx.letters.index((0, 1))
    assert len(cx.splits[xi2]) == 1
    cx.splits[xi2] = ()


def test_d_squared_check_catches_a_broken_differential(monkeypatch):
    trivial = cobar.trivial_comodule(milnor.A1)
    cx = cobar.CobarComplex(milnor.A1, trivial, max_t=8)
    cx.verify_d_squared(1, 4)
    _drop_xi2_split(cx)
    assert _reference_d_squared_nonzero(cx, 1, 4)
    with pytest.raises(AssertionError, match=r"d\^2 != 0 .* at \(s,t\)=\(1,4\)"):
        cx.verify_d_squared(1, 4)

    build = cobar.CobarComplex.__init__

    def broken_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        _drop_xi2_split(self)

    monkeypatch.setattr(cobar.CobarComplex, "__init__", broken_init)
    with pytest.raises(AssertionError, match=r"d\^2 != 0"):
        cobar.cotor(milnor.A1, max_s=2, max_stem=4)


def test_d_squared_check_catches_a_broken_coaction():
    # drop xibar_2 (x) n_1 from the coaction of n_3 = xibar_3 in bo1, so
    # that the coaction is no longer coassociative
    bo1 = cobar.bo1_comodule(milnor.A1)
    rows = list(bo1.coaction)
    rows[3] = tuple(term for term in rows[3] if term != ((0, 1), 1))
    assert len(rows[3]) == len(bo1.coaction[3]) - 1
    broken = bo1._replace(coaction=tuple(rows))
    cx = cobar.CobarComplex(milnor.A1, broken, max_t=10)
    assert _reference_d_squared_nonzero(cx, 0, 7)
    with pytest.raises(AssertionError, match=r"d\^2 != 0 on \(3,\) at \(s,t\)=\(0,7\)"):
        cx.verify_d_squared(0, 7)
    with pytest.raises(AssertionError, match=r"d\^2 != 0"):
        cobar.cotor(milnor.A1, broken, max_s=2, max_stem=8)


# the slices whose d^2 the oracle checks at (max_s, max_stem) = (5, 8),
# recorded while each t's loop still started at s_lo - 1, which starting
# from s = 0 must not move: for t = 0..13 the first s checked, each t being
# checked up to s = min(t, 5)
_D2_FIRST_S = {
    ("A1", "trivial"): (0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 4),
    ("A1", "bo1"): (0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 2, 3, 4),
    ("A2", "trivial"): (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4),
    ("A2", "bo1"): (0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 2, 3, 4),
}


def test_d_squared_coverage_and_clearing_at_the_suite_bounds(monkeypatch):
    """Each element is differentiated at most once, clearing from level 0
    keeps the d^2 check on the same slices in the same order, and almost no
    column is left to reduce to zero."""
    checked: list = []
    check = cobar.CobarComplex.verify_d_squared

    def recorded_check(self, s, t, *args):
        checked.append((s, t))
        return check(self, s, t, *args)

    zero_columns = 0
    rank = cobar.gf2.sparse_rank

    def counted_rank(columns, pivot_rows=None):
        nonlocal zero_columns
        columns = list(columns)
        r = rank(columns, pivot_rows)
        zero_columns += len(columns) - r
        return r

    differentiated: list = []
    apply_d = cobar.CobarComplex.apply_d

    def recorded_apply_d(self, code):
        differentiated.append(code)
        return apply_d(self, code)

    monkeypatch.setattr(cobar.CobarComplex, "verify_d_squared", recorded_check)
    monkeypatch.setattr(cobar.CobarComplex, "apply_d", recorded_apply_d)
    monkeypatch.setattr(cobar.gf2, "sparse_rank", counted_rank)
    expected = []
    for alg_name, algebra in (("A1", milnor.A1), ("A2", milnor.A2)):
        for coeff in ("trivial", "bo1"):
            differentiated.clear()
            cobar.cotor(algebra, COEFFICIENTS[coeff](algebra), max_s=5, max_stem=8)
            # a code names one element of one slice, so no element was
            # differentiated twice
            assert len(set(differentiated)) == len(differentiated)
            first = _D2_FIRST_S[(alg_name, coeff)]
            expected += [(s, t) for t in range(14) for s in range(first[t], min(t, 5) + 1)]
    assert len(expected) == 202
    assert checked == expected
    # 1,345 while each t started uncleared at s_lo - 1
    assert zero_columns <= 100


# the slices of A(1)'s bo1 complex at verify's default bounds (6, 12) that
# are over _D2_CHECK_CAP while their index-0 part is not
_A1_CAPPED_SLICES = {(5, 17): (1835, 3546), (5, 18): (1775, 4245)}


@pytest.mark.parametrize(
    "algebra, bounds",
    [(milnor.A1, (5, 8)), (milnor.A2, (5, 8)), (milnor.A1, (6, 12))],
    ids=["A1-5-8", "A2-5-8", "A1-6-12"],
)
def test_bottom_row_is_the_trivial_cotor_from_one_pass(algebra, bounds, monkeypatch):
    """cotor(bo1, bottom=...) fills bottom with cotor(F2), differentiates
    each element once, and d^2-checks every element the trivial run does."""
    checked: set = set()
    check = cobar.CobarComplex.verify_d_squared

    def recorded_check(self, s, t, images=None, bottom=False):
        # the index-0 elements of the slice, which the check covers either way
        checked.update(map(self.decode, self.elements(s, t, True)))
        return check(self, s, t, images, bottom)

    differentiated: list = []
    apply_d = cobar.CobarComplex.apply_d

    def recorded_apply_d(self, code):
        differentiated.append(code)
        return apply_d(self, code)

    monkeypatch.setattr(cobar.CobarComplex, "verify_d_squared", recorded_check)
    monkeypatch.setattr(cobar.CobarComplex, "apply_d", recorded_apply_d)
    trivial = cobar.cotor(algebra, None, *bounds)
    # the trivial comodule's codes have no index bits, so its elements
    # decode to the same tuples as the index-0 elements of the bo1 complex
    checked_trivial, checked = checked, set()
    differentiated.clear()
    bottom: dict = {}
    assert cobar.cotor(algebra, cobar.bo1_comodule(algebra), *bounds, bottom=bottom)
    assert bottom == trivial
    assert len(set(differentiated)) == len(differentiated)
    assert checked_trivial <= {x for x in checked if x[-1] == 0}
    if bounds == (6, 12):
        cx = cobar.CobarComplex(algebra, cobar.bo1_comodule(algebra), sum(bounds))
        for (s, t), sizes in _A1_CAPPED_SLICES.items():
            assert (cx.dimension(s, t, True), cx.dimension(s, t)) == sizes
            assert sizes[0] <= cobar._D2_CHECK_CAP < sizes[1]
            # the index-0 elements lead the slice
            part = list(cx.elements(s, t, True))
            assert part == list(cx.elements(s, t))[: sizes[0]]
            assert {cx.decode(x) for x in part} <= checked


@pytest.mark.parametrize(
    "comodule",
    [
        cobar.comodule_from_monomials(milnor.A1, [(4,), (), (0, 2), (0, 0, 1)]),
        cobar.bo1_comodule(milnor.A1)._replace(degrees=(1, 5, 7, 8)),
    ],
    ids=["reordered-bo1", "suspended-bo1"],
)
def test_bottom_row_needs_a_bottom_class_first(comodule):
    # both rank without a bottom row
    assert cobar.cotor(milnor.A1, comodule, max_s=2, max_stem=4)
    with pytest.raises(ValueError, match="degree-0 class with an empty coaction"):
        cobar.cotor(milnor.A1, comodule, max_s=2, max_stem=4, bottom={})


def test_bottom_row_keeps_the_d_squared_check():
    # the broken coaction of test_d_squared_check_catches_a_broken_coaction
    # leaves n_0 alone, so a call with a bottom row runs and must still fail
    bo1 = cobar.bo1_comodule(milnor.A1)
    rows = list(bo1.coaction)
    rows[3] = tuple(term for term in rows[3] if term != ((0, 1), 1))
    broken = bo1._replace(coaction=tuple(rows))
    with pytest.raises(AssertionError, match=r"d\^2 != 0"):
        cobar.cotor(milnor.A1, broken, max_s=2, max_stem=8, bottom={})


def test_cotor_line_one_a2():
    """Cotor^{1,t}(F2) over A(2) detects exactly the three generators."""
    dims = cobar.cotor(milnor.A2, max_s=1, max_stem=8)
    line1 = sorted(t for (s, t) in dims if s == 1)
    assert line1 == [1, 2, 4]


def test_cotor_line_one_a1():
    dims = cobar.cotor(milnor.A1, max_s=1, max_stem=6)
    line1 = sorted(t for (s, t) in dims if s == 1)
    assert line1 == [1, 2]


def test_cotor_a1_matches_classical_chart():
    """The A(1) answer in low stems: the familiar 8-periodic pattern."""
    dims = cobar.cotor(milnor.A1, max_s=4, max_stem=8)
    expected = {
        (0, 0): 1,
        (1, 1): 1,
        (1, 2): 1,
        (2, 2): 1,
        (2, 4): 1,
        (3, 3): 1,
        (3, 7): 1,
        (4, 4): 1,
        (4, 8): 1,
        (4, 12): 1,
    }
    assert dims == expected


def test_cotor_bo1_bottom_line():
    """bo1 coefficients: Cotor^0 is the primitive part, one class per degree 0 and 4."""
    dims = cobar.cotor(milnor.A1, cobar.bo1_comodule(milnor.A1), max_s=0, max_stem=8)
    line0 = sorted(t for (s, t) in dims if s == 0)
    assert line0 == [0, 4]


def test_cotor_matches_the_engine_on_bo1_tensor_square():
    """The module bridge reads one comodule element per basis vector: bo1 (x) bo1
    has 16 of them in 10 degrees."""
    M = modules.tensor(modules.bo(1, milnor.A1), modules.bo(1, milnor.A1))
    assert M.dimension == 16 and len(M.degrees()) == 10
    dims = cobar.cotor(milnor.A1, M, max_s=5, max_stem=10)
    res = resolution.minimal_resolution(milnor.A1, 6, 15)
    chart = resolution.ext_over_complex(res, M, "m")
    engine = {(s, t): d for (s, t), d in chart.dims.items() if t - s <= 10 and d}
    assert len(dims) == 24 and dims == engine


def test_adem_straighten_examples():
    assert cobar.adem_straighten((1, 1)) == frozenset()
    assert cobar.adem_straighten((1, 2)) == frozenset({(3,)})
    assert cobar.adem_straighten((2, 2)) == frozenset({(3, 1)})
    assert cobar.adem_straighten((2, 4)) == frozenset({(6,), (5, 1)})
    assert cobar.adem_straighten((4,)) == frozenset({(4,)})


def test_adem_known_relations():
    # Sq^3 Sq^2 = 0 and Sq^2 Sq^3 = Sq^5 + Sq^4 Sq^1
    assert cobar.adem_straighten((3, 2)) == frozenset()
    assert cobar.adem_straighten((2, 3)) == frozenset({(5,), (4, 1)})


def test_pairing_convention():
    # <Sq^1, xi1bar> = 1; <Sq^2 Sq^1, xi1bar^3> pairs through the coproduct
    assert cobar._pairing((1,), (1,)) == 1
    assert cobar._pairing((2,), (2,)) == 1
    # Sq(0,1) is dual to xi2bar; Sq^2 Sq^1 = Sq^3 + Sq(0,1) hits both deg-3 monomials
    assert cobar._pairing((2, 1), (0, 1)) == 1
    assert cobar._pairing((2, 1), (3,)) == 1
    # Sq^1 Sq^2 = Sq^3 only
    assert cobar._pairing((1, 2), (3,)) == 1
    assert cobar._pairing((1, 2), (0, 1)) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3))
def test_words_pair_like_their_admissible_expansions(word):
    """Pairing against monomials agrees with the Adem-straightened expansion."""
    word_t = tuple(word)
    degree = sum(word)
    if degree > 12:
        return
    direct = cobar.word_milnor_coordinates(word_t)
    via_adem = cobar.admissible_milnor_coordinates(cobar.adem_straighten(word_t))
    assert direct == via_adem


def test_adem_check_2_4():
    # Sq^2 Sq^4 = Sq^6 + Sq^5 Sq^1? Adem: a=2,b=4: binom(3,2)Sq^6 + binom(2,0)Sq^5Sq^1
    expanded = cobar.adem_straighten((2, 4))
    assert expanded == frozenset({(6,), (5, 1)})
