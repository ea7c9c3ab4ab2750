"""Weight polynomials f_i: recursion, the dyadic lemma, and the vanishing filter."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from extforge import bgpoly
from extforge.bgpoly import BGPolynomial, f, f_multi


def test_first_polynomials_verbatim():
    assert str(f(0)) == "1"
    assert str(f(1)) == "x"
    assert str(f(2)) == "t x + s t^2"
    assert str(f(3)) == "t x^2"
    assert str(f_multi([1, 1])) == "x^2"


def test_next_polynomials():
    # f_4 = t^2 f_2 + s t^3 f_1, f_5 = t^2 x f_2
    assert f(4) == BGPolynomial.variable(l=2) * f(2) + BGPolynomial.variable(k=1, l=3) * f(1)
    assert f(5) == BGPolynomial.variable(l=2, m=1) * f(2)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 200))
def test_recursion_identities(j):
    even = BGPolynomial.variable(l=j) * f(j) + BGPolynomial.variable(k=1, l=j + 1) * f(j - 1)
    assert f(2 * j) == even
    assert f(2 * j + 1) == BGPolynomial.variable(l=j, m=1) * f(j)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 256))
def test_lemma_items(i):
    report = bgpoly.check_lemma(i)
    assert report.ok, report


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 128))
def test_weight_homogeneity(i):
    # every monomial s^k t^l x^m of f_i has l + m = i
    for (k, l, m), c in f(i).coefficients:
        assert l + m == i and c > 0


def test_polynomial_arithmetic():
    x = BGPolynomial.variable(m=1)
    t = BGPolynomial.variable(l=1)
    assert (x + x).as_dict() == {(0, 0, 1): 2}
    assert (x * t).as_dict() == {(0, 1, 1): 1}
    assert BGPolynomial(()) + x == x
    assert str(BGPolynomial(())) == "0"


def test_negative_coefficients_rejected():
    try:
        BGPolynomial.from_dict({(0, 0, 0): -1})
    except ValueError:
        pass
    else:
        raise AssertionError("negative coefficients must be rejected")


def test_vanishing_filter_examples():
    assert bgpoly.a1_vanishing_filter(112, 26)
    # boundary at stem 112: edge s = 112/7 + 51/7 = 163/7, so 23 is out, 24 in
    assert Fraction(112, 7) + Fraction(51, 7) == Fraction(163, 7)
    assert not bgpoly.a1_vanishing_filter(112, 23)
    assert bgpoly.a1_vanishing_filter(112, 24)
    # the exact boundary point is NOT above the line
    assert not bgpoly.a1_vanishing_filter(19, 10)  # 19/7 + 51/7 = 10 exactly


def test_vanishing_filter_matches_the_rational_inequality():
    # the integer form 7s > stem + 51 against s > stem/7 + 51/7 in fractions,
    # on a grid holding every point the line passes through up to stem 200,
    # (19, 10) among them
    for stem in range(201):
        for s in range(61):
            want = Fraction(s) > Fraction(stem, 7) + Fraction(51, 7)
            assert bgpoly.a1_vanishing_filter(stem, s) == want, (stem, s)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 300), st.integers(0, 80))
def test_vanishing_filter_monotone_in_s(stem, s):
    if bgpoly.a1_vanishing_filter(stem, s):
        assert bgpoly.a1_vanishing_filter(stem, s + 1)


def test_summand_bottom_bidegrees():
    # f_2 = t x + s t^2: summands S^8 bo_1 and S^17 F2 with shift 1
    bottoms = sorted(
        bgpoly.SummandDescriptor(
            suspension=8 * l + k, tensor_power=m, homological_shift=k, multiplicity=c
        ).bottom_bidegree
        for (k, l, m), c in f(2).coefficients
    )
    assert bottoms == [(0, 8), (1, 18)]
