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
    # the differential with every term parity-reduced through a dict, in the
    # order the terms are generated
    words = elem[:-1]
    acc: dict = {}
    for pos in range(len(words)):
        head = elem[:pos]
        tail = elem[pos + 1 :]
        for pair in cx.splits[elem[pos]]:
            b = head + pair + tail
            acc[b] = acc.get(b, 0) ^ 1
    for pair in cx.coaction[elem[-1]]:
        b = words + pair
        acc[b] = acc.get(b, 0) ^ 1
    return tuple(b for b, bit in acc.items() if bit)


def _reference_d_squared_nonzero(cx, s, t):
    # d(d(x)) by brute force, one element at a time
    for elem in cx.elements(s, t):
        acc: dict = {}
        for term in _reference_apply_d(cx, elem):
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
            for elem in cx.elements(s, t):
                assert cx.apply_d(elem) == _reference_apply_d(cx, elem)
                checked += 1
    assert checked > 100


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
        cobar.cotor(milnor.A1, max_s=2, max_stem=4, check_d_squared=True)


@pytest.mark.parametrize("coeff", sorted(COEFFICIENTS))
@pytest.mark.parametrize("algebra", [milnor.A1, milnor.A2], ids=["A1", "A2"])
def test_d_squared_check_leaves_dims_unchanged(algebra, coeff):
    comodule = COEFFICIENTS[coeff](algebra)
    checked = cobar.cotor(algebra, comodule, max_s=5, max_stem=8, check_d_squared=True)
    unchecked = cobar.cotor(algebra, comodule, max_s=5, max_stem=8, check_d_squared=False)
    assert checked == unchecked
    assert checked


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
    chart = resolution.ext_over_complex(res, M, "m", with_reps=False)
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
