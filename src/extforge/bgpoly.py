"""Brown-Gitler polynomials and E1-page summand bookkeeping.

The polynomial f_i(s, t, x) records how Ext groups with i-th bo-Brown-Gitler
coefficients decompose: a monomial a * s^k t^l x^m stands for a summand

    Sigma^{8l+k} bo_1^{(x)m} [-k] (x) M     (multiplicity a)

of the E1-page of the exact-sequence spectral sequences, plus residual terms
computed over the smaller subalgebra A(1) which the polynomial bookkeeping
deliberately drops.  Everything here is exact integer and rational
arithmetic; no chart computation happens in this module.

Conventions: s is the homological shift variable, t the 8-fold suspension
variable, x counts bo_1 tensor factors.  A class of Ext^{s',t'}(N) appears
for Sigma^d N[-c] at (s'+c, t'+d+c), so a monomial s^k t^l x^m moves a chart
spot (s, t) to (s-k, t-8l-k) on the bo_1^{(x)m} chart.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

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


@dataclass(frozen=True)
class BGPolynomial:
    """Finitely supported non-negative integer combination of s^k t^l x^m."""

    coefficients: tuple[tuple[Monomial, int], ...]

    @staticmethod
    def from_dict(d: dict[Monomial, int]) -> "BGPolynomial":
        items = tuple(sorted((k, v) for k, v in d.items() if v))
        if any(v < 0 for _, v in items):
            raise ValueError("coefficients must be non-negative")
        return BGPolynomial(items)

    @staticmethod
    def zero() -> "BGPolynomial":
        return BGPolynomial(())

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

    def coefficient(self, k: int, l: int, m: int) -> int:
        return self.as_dict().get((k, l, m), 0)

    def evaluate_at_one(self) -> int:
        """Total monomial count with multiplicity: f(1, 1, 1)."""
        return sum(c for _, c in self.coefficients)

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


@dataclass(frozen=True)
class LemmaReport:
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


Window = tuple[tuple[int, int], tuple[int, int]]  # ((s_lo, s_hi), (t_lo, t_hi))


def _window_max_stem(window: Window) -> int:
    (s_lo, _), (_, t_hi) = window
    return t_hi - s_lo


@dataclass(frozen=True)
class SummandDescriptor:
    """One monomial s^k t^l x^m of f_I, read as a chart summand."""

    suspension: int  # 8l + k
    tensor_power: int  # m
    homological_shift: int  # k
    multiplicity: int

    @property
    def bottom_bidegree(self) -> tuple[int, int]:
        """(s, t) where the summand's bottom cell first contributes."""
        return (self.homological_shift, self.suspension + self.homological_shift)


@dataclass(frozen=True)
class A1Term:
    """Opaque residual term computed over A(1); never expanded here."""

    origin: tuple[int, ...]
    disposition: str


@dataclass(frozen=True)
class SummandEnumeration:
    bo_terms: tuple[SummandDescriptor, ...]
    a1_terms: tuple[A1Term, ...]
    dropped: tuple[SummandDescriptor, ...]


def enumerate_summands(
    I: Sequence[int],
    window: Window,
    M_cells: Sequence[int] = (0,),
) -> SummandEnumeration:
    """E1-page summands of Ext(bo_I (x) M) that can meet the window.

    A summand is kept when its bottom class (suspension plus the bottom cell
    of M) lies strictly below the window's top stem and its homological
    shift is inside the window's filtration range.  The A(1)-residual and
    out-of-range terms are reported, not silently discarded: above the
    vanishing line of a1_vanishing_filter the residue provably cannot
    contribute, below it a genuine A(1) computation would be needed.
    """
    poly = f_multi(I)
    bottom = min(M_cells) if M_cells else 0
    max_stem = _window_max_stem(window)
    (_, s_hi), _ = window
    kept: list[SummandDescriptor] = []
    dropped: list[SummandDescriptor] = []
    for (k, l, m), c in poly.coefficients:
        desc = SummandDescriptor(8 * l + k, m, k, c)
        if 8 * l + bottom < max_stem and k <= s_hi:
            kept.append(desc)
        else:
            dropped.append(desc)
    (s_lo, s_hi), (t_lo, t_hi) = window
    spots = [
        (s, t)
        for s in range(s_lo, s_hi + 1)
        for t in range(max(t_lo, s), t_hi + 1)
    ]
    if len(I) > 1 or (len(I) == 1 and I[0] > 1):
        if all(a1_vanishing_filter(t - s, s) for s, t in spots):
            disposition = "dropped: window lies above the A(1) vanishing line"
        else:
            disposition = "requires Ext_{A(1)} computation"
        a1 = (A1Term(tuple(I), disposition),)
    else:
        a1 = ()
    return SummandEnumeration(tuple(kept), a1, tuple(dropped))


def a1_vanishing_filter(t_minus_s: int, s: int) -> bool:
    """True exactly when s > (1/7)(t-s) + 51/7, in exact arithmetic."""
    return Fraction(s) > Fraction(t_minus_s, 7) + Fraction(51, 7)


def e1_window(
    n: int,
    window: Window,
    M_cells: Sequence[int] = (0,),
) -> list[tuple[tuple[int, ...], SummandEnumeration]]:
    """Multi-indices of the n-line whose suspension reaches the window.

    The n-line term for I = (i_1, ..., i_n) carries a total suspension of
    8(i_1 + ... + i_n); only indices whose bottom class lands strictly below
    the window's top stem are listed, each with its summand expansion.
    """
    if n < 1:
        raise ValueError("resolution line must be positive")
    max_stem = _window_max_stem(window)
    bottom = min(M_cells) if M_cells else 0
    budget = max_stem - bottom
    out: list[tuple[tuple[int, ...], SummandEnumeration]] = []

    # enumerate i_1, ..., i_n >= 1 with 8 * sum(I) strictly below the budget
    def rec(prefix: list[int], remaining: int, budget_left: int):
        if remaining == 0:
            I = tuple(prefix)
            out.append((I, enumerate_summands(I, window, M_cells)))
            return
        i = 1
        while 8 * i + 8 * (remaining - 1) < budget_left:
            prefix.append(i)
            rec(prefix, remaining - 1, budget_left - 8 * i)
            prefix.pop()
            i += 1

    rec([], n, budget)
    out.sort(key=lambda pair: pair[0])
    return out
