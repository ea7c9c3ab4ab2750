"""Milnor-basis arithmetic: profiles, bases, and the product."""

import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extforge import milnor, resolution
from extforge.milnor import MilnorElement, Profile


def _dimension(profile):
    return sum(len(milnor.basis_in_degree(profile, n)) for n in range(profile.top_degree() + 1))


def test_profile_dimensions():
    assert _dimension(milnor.A1) == 8
    assert _dimension(milnor.A2) == 64
    assert _dimension(milnor.A3) == 2 ** (4 + 3 + 2 + 1)
    assert milnor.A1.top_degree() == 6
    assert milnor.A2.top_degree() == 23
    assert milnor.FULL.is_full


def test_profile_containment_chain():
    assert milnor.A2.contains(milnor.A1)
    assert milnor.A3.contains(milnor.A2)
    assert milnor.FULL.contains(milnor.A3)
    assert not milnor.A1.contains(milnor.A2)


def test_profile_exponents():
    # A(n) has profile (n+1, n, ..., 1): xi_i truncated at height 2^(n+2-i)
    assert milnor.A2.exponents == (3, 2, 1)
    assert milnor.A2.r_bound(1) == 8
    assert milnor.A2.r_bound(2) == 4
    assert milnor.A2.r_bound(3) == 2
    assert milnor.A2.r_bound(4) == 1
    assert milnor.FULL.exponent(1) is None
    assert milnor.A2.admits((7, 3, 1)) and not milnor.A2.admits((8,))


def _admits_reference(profile: Profile, mono) -> bool:
    """Profile.admits as first written, through Profile.exponent."""
    if profile.exponents is None:
        return True
    return all(r < (1 << profile.exponent(i + 1)) for i, r in enumerate(mono))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.just(milnor.FULL),
        st.lists(st.integers(1, 4), max_size=4).map(lambda hs: Profile(tuple(hs))),
    ),
    st.lists(st.integers(-3, 20), max_size=7).map(tuple),
)
def test_admits_matches_reference(profile, mono):
    # tails longer than the profile and negative entries included
    assert profile.admits(mono) == _admits_reference(profile, mono)


def test_basis_counts_by_degree():
    total = sum(len(milnor.basis_in_degree(milnor.A2, n)) for n in range(24))
    assert total == 64
    assert milnor.basis_in_degree(milnor.A2, 0) == ((),)
    assert milnor.basis_in_degree(milnor.A2, 1) == ((1,),)
    # degree 3: Sq(3) and Sq(0,1)
    assert set(milnor.basis_in_degree(milnor.A2, 3)) == {(3,), (0, 1)}


def test_known_small_products():
    A = milnor.FULL
    sq = lambda *e: MilnorElement.sq(A, *e)
    # Sq(1)Sq(1) = 0, Sq(1)Sq(2) = Sq(3), Sq(2)Sq(2) = Sq(1,1)
    assert milnor.milnor_product(sq(1), sq(1)).is_zero
    assert milnor.milnor_product(sq(1), sq(2)).sorted_terms() == ((3,),)
    assert milnor.milnor_product(sq(2), sq(2)).sorted_terms() == ((1, 1),)
    # Sq(2)Sq(1) = Sq(3) + Sq(0,1)
    assert set(milnor.milnor_product(sq(2), sq(1)).sorted_terms()) == {(3,), (0, 1)}


def test_product_respects_profile_truncation():
    # in A(1) the product Sq(3) * Sq(3) truncates away the xi_1^6 part
    full = milnor.milnor_product(
        MilnorElement.sq(milnor.FULL, 3), MilnorElement.sq(milnor.FULL, 3)
    )
    small = milnor.milnor_product(
        MilnorElement.sq(milnor.A1, 3), MilnorElement.sq(milnor.A1, 3)
    )
    assert set(small.sorted_terms()) <= set(full.sorted_terms())
    for mono in small.sorted_terms():
        assert milnor.A1.admits(mono)


@st.composite
def homogeneous_elements(draw, algebra: Profile, max_degree: int):
    """A single-degree mod-2 sum of basis monomials, possibly zero."""
    degree = draw(st.integers(0, max_degree))
    monos = milnor.basis_in_degree(algebra, degree)
    if not monos:
        return MilnorElement(algebra, frozenset())
    picked = draw(st.sets(st.sampled_from(monos), min_size=0, max_size=3))
    return MilnorElement(algebra, frozenset(picked))


@settings(max_examples=60, deadline=None)
@given(homogeneous_elements(milnor.A2, 8), homogeneous_elements(milnor.A2, 8))
def test_product_is_degree_additive(a, b):
    prod = milnor.milnor_product(a, b)
    if not prod.is_zero:
        assert prod.degree == a.degree + b.degree


@settings(max_examples=40, deadline=None)
@given(
    homogeneous_elements(milnor.A2, 6),
    homogeneous_elements(milnor.A2, 6),
    homogeneous_elements(milnor.A2, 6),
)
def test_product_associative(a, b, c):
    left = milnor.milnor_product(milnor.milnor_product(a, b), c)
    right = milnor.milnor_product(a, milnor.milnor_product(b, c))
    assert left.sorted_terms() == right.sorted_terms()


@settings(max_examples=60, deadline=None)
@given(homogeneous_elements(milnor.A2, 10))
def test_unit_laws(a):
    one = MilnorElement.unit(milnor.A2)
    assert milnor.milnor_product(one, a).sorted_terms() == a.sorted_terms()
    assert milnor.milnor_product(a, one).sorted_terms() == a.sorted_terms()


def test_monomial_degree_and_weight():
    # xi_i has degree 2^i - 1 and weight 2^(i-1)
    assert milnor.xi_degree(1) == 1 and milnor.xi_degree(3) == 7
    assert milnor.xi_weight(1) == 1 and milnor.xi_weight(3) == 4
    assert milnor.monomial_degree((2, 1)) == 2 * 1 + 3
    assert milnor.monomial_weight((2, 1)) == 2 * 1 + 2


def test_normalize_strips_trailing_zeros():
    assert milnor.normalize_monomial([1, 0, 2, 0, 0]) == (1, 0, 2)
    assert milnor.normalize_monomial([0, 0]) == ()


def test_mixed_degree_sums_rejected():
    try:
        MilnorElement(milnor.A1, frozenset([(), (1,)]))
    except ValueError:
        pass
    else:
        raise AssertionError("mixed-degree element must be rejected")


def test_augmentation_counts_unit():
    assert MilnorElement.unit(milnor.A1).augmentation() == 1
    assert MilnorElement.sq(milnor.A1, 1).augmentation() == 0
    assert MilnorElement(milnor.A1, frozenset()).augmentation() == 0


def reference_product(r: tuple[int, ...], s: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Milnor's matrix formula checked only on complete matrices: every
    matrix x_{ij} with row sums sum_j 2^j x_{ij} = r_i and column sums
    sum_i x_{ij} = s_j is enumerated, and kept when each diagonal's
    multinomial coefficient is odd, i.e. its sum equals its OR."""
    R, S = len(r), len(s)
    if R == 0:
        return frozenset([s])
    if S == 0:
        return frozenset([r])
    result: set[tuple[int, ...]] = set()
    # submatrix entries x[i][j] for i in 1..R, j in 1..S;
    # x_{i0} and x_{0j} are the row/column remainders
    col_used = [0] * (S + 1)

    def finish(x: list[list[int]]):
        x0 = [0] + [s[j - 1] - col_used[j] for j in range(1, S + 1)]
        if any(v < 0 for v in x0[1:]):
            return
        t = [0] * (R + S + 1)
        for n in range(1, R + S + 1):
            parts = []
            for i in range(0, n + 1):
                j = n - i
                if i == 0:
                    if 1 <= j <= S:
                        parts.append(x0[j])
                elif 1 <= i <= R and 0 <= j <= S:
                    parts.append(x[i][j])
            if sum(parts) != functools.reduce(operator.or_, parts, 0):
                return
            t[n] = sum(parts)
        result.symmetric_difference_update({milnor.normalize_monomial(t[1:])})

    x = [[0] * (S + 1) for _ in range(R + 1)]

    def rec_row(i: int):
        if i > R:
            finish(x)
            return

        def rec_col(j: int, remaining: int):
            if j > S:
                x[i][0] = remaining
                rec_row(i + 1)
                return
            step = 1 << j
            for v in range(remaining // step + 1):
                if col_used[j] + v > s[j - 1]:
                    break
                x[i][j] = v
                col_used[j] += v
                rec_col(j + 1, remaining - v * step)
                col_used[j] -= v
            x[i][j] = 0

        rec_col(1, r[i - 1])

    rec_row(1)
    return frozenset(result)


def _basis(algebra: Profile, max_degree: int) -> list[tuple[int, ...]]:
    return [m for n in range(max_degree + 1) for m in milnor.basis_in_degree(algebra, n)]


A2_BASIS = _basis(milnor.A2, milnor.A2.top_degree())
A3_BASIS = _basis(milnor.A3, milnor.A3.top_degree())


def test_product_formula_matches_reference_on_all_of_a2():
    assert len(A2_BASIS) == 64
    for r in A2_BASIS:
        for s in A2_BASIS:
            assert milnor._product_monomials.__wrapped__(milnor.A2, r, s) == reference_product(r, s), (r, s)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(A3_BASIS), st.sampled_from(A3_BASIS))
def test_product_formula_matches_reference_on_a3(r, s):
    assert milnor._product_monomials.__wrapped__(milnor.A3, r, s) == reference_product(r, s)


@st.composite
def full_pairs(draw, max_degree: int):
    """Two full-algebra monomials of total degree at most max_degree."""
    d1 = draw(st.integers(0, max_degree))
    d2 = draw(st.integers(0, max_degree - d1))
    r = draw(st.sampled_from(milnor.basis_in_degree(milnor.FULL, d1)))
    s = draw(st.sampled_from(milnor.basis_in_degree(milnor.FULL, d2)))
    return r, s


@settings(max_examples=150, deadline=None)
@given(full_pairs(48))
def test_product_formula_matches_reference_on_full_algebra(pair):
    r, s = pair
    assert milnor._product_monomials.__wrapped__(milnor.FULL, r, s) == reference_product(r, s)


def test_product_mask_matches_reference_on_a1_and_a2():
    for algebra in (milnor.A1, milnor.A2):
        basis = _basis(algebra, algebra.top_degree())
        for r, s in itertools.product(basis, basis):
            monos = milnor.basis_in_degree(algebra, milnor.monomial_degree(r) + milnor.monomial_degree(s))
            mask = milnor.product_mask(algebra, r, s)
            assert mask.bit_length() <= len(monos)
            decoded = {monos[k] for k in range(len(monos)) if mask >> k & 1}
            assert decoded == reference_product(r, s), (algebra.describe(), r, s)


def test_sub_hopf_predicate_on_named_profiles():
    for profile in (milnor.A1, milnor.A2, milnor.A3, milnor.FULL, Profile((1,))):
        assert profile.is_sub_hopf, profile.describe()
    assert not Profile((1, 2)).is_sub_hopf


@pytest.mark.parametrize("exponents", [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1)])
def test_sub_hopf_predicate_matches_closure_under_products(exponents):
    # closure read from full-algebra products, which never consult the predicate
    profile = Profile(exponents)
    basis = _basis(profile, profile.top_degree())
    closed = all(
        profile.admits(t) for r in basis for s in basis for t in milnor._product_monomials(milnor.FULL, r, s)
    )
    assert profile.is_sub_hopf == closed


def test_a2_products_are_stored_once():
    for r in A2_BASIS:
        for s in A2_BASIS:
            milnor.product_mask(milnor.A2, r, s)
    tables = [milnor._degree_products(milnor.A2, n) for n in range(2 * milnor.A2.top_degree() + 1)]
    assert sum(len(table) for table in tables) == 1229
    assert all(mask for table in tables for mask in table.values())


def test_resolving_decodes_no_products():
    milnor._product_monomials.cache_clear()
    milnor._degree_products.cache_clear()
    resolution._mul_cache.clear()
    resolution.minimal_resolution(milnor.A2, 6, 30)
    assert milnor._product_monomials.cache_info().currsize == 0


def test_product_escaping_profile_names_factors():
    # (1, 2) is not sub-Hopf: Sq(0,2) * Sq(1) has the term Sq(0,0,1)
    with pytest.raises(ValueError, match=r"Sq\(0,2\) \* Sq\(1\) escapes profile A\[1, 2\]: \(0, 0, 1\)"):
        milnor._product_monomials(Profile((1, 2)), (0, 2), (1,))
