"""Brown-Gitler polynomials, their dyadic lemma, and the A(1) vanishing line.

The polynomial f_i(s, t, x) records how Ext groups with i-th bo-Brown-Gitler
coefficients decompose: a monomial a * s^k t^l x^m stands for a summand

    Sigma^{8l+k} bo_1^{(x)m} [-k] (x) M     (multiplicity a)

of the E1-page of the exact-sequence spectral sequences, plus residual terms
computed over the smaller subalgebra A(1) which the polynomial bookkeeping
deliberately drops; a1_vanishing_filter says where those residual terms
provably vanish.  ``ext-forge bgpoly`` reads each monomial as its chart
summand.  Everything here is exact integer arithmetic; no chart
computation happens in this module.

Conventions: s is the homological shift variable, t the 8-fold suspension
variable, x counts bo_1 tensor factors.  A class of Ext^{s',t'}(N) appears
for Sigma^d N[-c] at (s'+c, t'+d+c), so a monomial s^k t^l x^m moves a chart
spot (s, t) to (s-k, t-8l-k) on the bo_1^{(x)m} chart.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .records import record

Monomial = tuple[int, int, int]  # (k, l, m): s^k t^l x^m


def _digits(i: int) -> int:
    return i.bit_length()


def _popcount(i: int) -> int:
    return bin(i).count("1")


def _ones_left_of_rightmost_zero(i: int) -> int:
    """Number of 1s strictly above the lowest 0 bit (leading zeros count)."""
    pos = 0
    while (i >> pos) & 1:
        pos += 1
    return _popcount(i >> (pos + 1))


@record
class BGPolynomial(NamedTuple):
    """Finitely supported non-negative integer combination of s^k t^l x^m."""

    coefficients: tuple[tuple[Monomial, int], ...]

    @staticmethod
    def from_dict(d: dict[Monomial, int]) -> "BGPolynomial":
        items = tuple(sorted((k, v) for k, v in d.items() if v))
        if any(v < 0 for _, v in items):
            raise ValueError("coefficients must be non-negative")
        return BGPolynomial(items)

    @staticmethod
    def one() -> "BGPolynomial":
        return BGPolynomial((((0, 0, 0), 1),))

    @staticmethod
    def variable(k: int = 0, l: int = 0, m: int = 0) -> "BGPolynomial":
        return BGPolynomial((((k, l, m), 1),))

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.coefficients)

    def __add__(self, other: "BGPolynomial") -> "BGPolynomial":
        out = self.as_dict()
        for mono, c in other.coefficients:
            out[mono] = out.get(mono, 0) + c
        return BGPolynomial.from_dict(out)

    def __mul__(self, other: "BGPolynomial") -> "BGPolynomial":
        out: dict[Monomial, int] = {}
        for (k1, l1, m1), c1 in self.coefficients:
            for (k2, l2, m2), c2 in other.coefficients:
                mono = (k1 + k2, l1 + l2, m1 + m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return BGPolynomial.from_dict(out)

    def max_power(self, axis: int) -> int:
        """Largest exponent of s (axis 0), t (1) or x (2); 0 when empty."""
        return max((mono[axis] for mono, _ in self.coefficients), default=0)

    def set_s_to_zero(self) -> "BGPolynomial":
        return BGPolynomial.from_dict(
            {mono: c for mono, c in self.coefficients if mono[0] == 0}
        )

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for (k, l, m), c in self.coefficients:
            factors = [] if c == 1 and (k or l or m) else [str(c)]
            for name, e in (("s", k), ("t", l), ("x", m)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append(" ".join(factors))
        return " + ".join(parts)


@lru_cache(maxsize=None)
def f(i: int) -> BGPolynomial:
    """The i-th bo-Brown-Gitler polynomial.

    f_0 = 1, f_1 = x, f_{2j} = t^j f_j + s t^{j+1} f_{j-1},
    f_{2j+1} = t^j x f_j.
    """
    if i < 0:
        raise ValueError("index must be non-negative")
    if i == 0:
        return BGPolynomial.one()
    if i == 1:
        return BGPolynomial.variable(m=1)
    j, r = divmod(i, 2)
    if r == 0:
        return BGPolynomial.variable(l=j) * f(j) + BGPolynomial.variable(
            k=1, l=j + 1
        ) * f(j - 1)
    return BGPolynomial.variable(l=j, m=1) * f(j)


def f_multi(I: Sequence[int]) -> BGPolynomial:
    """Product polynomial f_I for a multi-index; the empty product is 1."""
    out = BGPolynomial.one()
    for i in I:
        if i <= 0:
            raise ValueError("multi-index entries must be positive")
        out = out * f(i)
    return out


@record
class LemmaReport(NamedTuple):
    """Pass/fail record of the four dyadic facts about f_i."""

    i: int
    weight_ok: bool  # every monomial has l + m = i
    mod_s_ok: bool  # f_i = t^{i-m} x^m mod (s), m = popcount(i)
    x_degree_ok: bool  # max x power <= number of dyadic digits
    s_degree_ok: bool  # max s power = ones left of the rightmost 0

    @property
    def ok(self) -> bool:
        return self.weight_ok and self.mod_s_ok and self.x_degree_ok and self.s_degree_ok


def check_lemma(i: int) -> LemmaReport:
    """Verify the four dyadic properties of f_i on the computed polynomial."""
    poly = f(i)
    weight_ok = all(l + m == i for (k, l, m), _ in poly.coefficients)
    m = _popcount(i)
    mod_s_ok = poly.set_s_to_zero() == BGPolynomial.variable(l=i - m, m=m)
    x_degree_ok = poly.max_power(2) <= _digits(i)
    s_degree_ok = poly.max_power(0) == _ones_left_of_rightmost_zero(i)
    return LemmaReport(i, weight_ok, mod_s_ok, x_degree_ok, s_degree_ok)


def a1_vanishing_filter(t_minus_s: int, s: int) -> bool:
    """True exactly when s > (1/7)(t-s) + 51/7, compared exactly as
    7s > (t-s) + 51."""
    return 7 * s > t_minus_s + 51
