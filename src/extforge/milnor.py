"""The mod-2 Steenrod algebra and its finite sub-Hopf algebras, Milnor basis.

A profile (h_1, ..., h_k) bounds the dual generators: the dual of the
subalgebra cut out by it is F_2[xi_1, ..., xi_k] / (xi_i^{2^{h_i}}), where
xi_i denotes the degree 2^i - 1 polynomial generator of the dual Steenrod
algebra (conjugate convention).  A(n) has profile (n+1, n, ..., 1); the full
algebra is the unbounded profile.

Milnor monomials Sq(r_1, ..., r_k) are dual to the monomials
xi_1^{r_1} ... xi_k^{r_k}, so Sq(T) is a term of Sq(R) Sq(S) exactly when
xi^R (x) xi^S is a term of the coproduct psi(xi^T).  Products come from one
table per degree, filled by expanding psi(xi^T) once for each T of that
degree.  ``product_mask`` reads a product as an int over the basis of its
degree, which is the form the resolution engine's multiplication tables use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .records import record


class _ProfileFields(NamedTuple):
    exponents: Optional[tuple[int, ...]]


@record
class Profile(_ProfileFields):
    """Exponent profile of a sub-Hopf algebra; ``None`` means the full algebra."""

    __slots__ = ()

    def __new__(cls, exponents: Optional[Iterable[int]]) -> "Profile":
        if exponents is not None:
            exponents = tuple(exponents)
            if any(h <= 0 for h in exponents):
                raise ValueError("profile exponents must be positive")
        return tuple.__new__(cls, (exponents,))

    @classmethod
    def _make(cls, fields: Iterable) -> "Profile":
        # so that _replace checks its result too
        return cls(*fields)

    @staticmethod
    def full() -> "Profile":
        return Profile(None)

    @staticmethod
    def subalgebra(n: int) -> "Profile":
        """A(n), with profile (n+1, n, ..., 1)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return Profile(tuple(range(n + 1, 0, -1)))

    @property
    def is_full(self) -> bool:
        return self.exponents is None

    def exponent(self, i: int) -> Optional[int]:
        """h_i for the i-th dual generator (1-indexed); None if unbounded."""
        if self.exponents is None:
            return None
        if i <= len(self.exponents):
            return self.exponents[i - 1]
        return 0

    def r_bound(self, i: int) -> Optional[int]:
        """Exclusive bound on the i-th Milnor entry; None if unbounded."""
        h = self.exponent(i)
        return None if h is None else 1 << h

    def admits(self, mono: tuple[int, ...]) -> bool:
        exponents = self.exponents
        if exponents is None:
            return True
        # entries past the profile have exponent 0, so bound 1
        n = len(exponents)
        for i, r in enumerate(mono):
            if r >= (1 << exponents[i] if i < n else 1):
                return False
        return True

    @property
    def is_sub_hopf(self) -> bool:
        """Adams-Margolis: psi(xi_n^{2^{h_n}}) lies in I (x) A + A (x) I, that is
        each term xi_{n-i}^{2^{i+h_n}} (x) xi_i^{2^{h_n}} has h_{n-i} <= i + h_n
        or h_i <= h_n.  Past n = 2 len(h) every term does."""
        h = self.exponent
        return self.is_full or all(
            h(n - i) <= i + h(n) or h(i) <= h(n) for n in range(2, 2 * len(self.exponents) + 1) for i in range(1, n)
        )

    def top_degree(self) -> int:
        if self.exponents is None:
            raise ValueError("the full algebra is unbounded")
        return sum(((1 << h) - 1) * ((1 << (i + 1)) - 1) for i, h in enumerate(self.exponents))

    def contains(self, other: "Profile") -> bool:
        """Whether ``other`` is a sub-profile (pointwise smaller exponents)."""
        if self.exponents is None:
            return True
        if other.exponents is None:
            return False
        length = max(len(self.exponents), len(other.exponents))
        return all(other.exponent(i) <= self.exponent(i) for i in range(1, length + 1))

    def describe(self) -> str:
        return "A" if self.exponents is None else "A" + repr(list(self.exponents))


A1 = Profile.subalgebra(1)
A2 = Profile.subalgebra(2)
A3 = Profile.subalgebra(3)
FULL = Profile.full()


def xi_degree(i: int) -> int:
    """Degree of the i-th dual generator, 2^i - 1."""
    return (1 << i) - 1


def xi_weight(i: int) -> int:
    """Weight of the i-th dual generator, 2^{i-1}."""
    return 1 << (i - 1)


def monomial_degree(mono: tuple[int, ...]) -> int:
    return sum(r * xi_degree(i + 1) for i, r in enumerate(mono))


def monomial_weight(mono: tuple[int, ...]) -> int:
    return sum(r * xi_weight(i + 1) for i, r in enumerate(mono))


def normalize_monomial(mono: Iterable[int]) -> tuple[int, ...]:
    t = tuple(mono)
    while t and t[-1] == 0:
        t = t[:-1]
    if any(r < 0 for r in t):
        raise ValueError(f"negative Milnor entry in {t}")
    return t


def _sq_str(mono: tuple[int, ...]) -> str:
    return "Sq(" + ",".join(map(str, mono)) + ")"


def monomial_sort_key(mono: tuple[int, ...]):
    """Canonical order: length, then lexicographic."""
    return (len(mono), mono)


class _MilnorFields(NamedTuple):
    algebra: Profile
    terms: frozenset[tuple[int, ...]]
    degree: Optional[int]  # of every term; None for the zero element


@record
class MilnorElement(_MilnorFields):
    """A mod-2 sum of Milnor monomials, all of one degree, over one algebra.

    Built as ``MilnorElement(algebra, terms)``; the degree is computed once,
    by the same check that rejects mixed degrees, and kept as a field.
    """

    __slots__ = ()

    def __new__(cls, algebra: Profile, terms: frozenset[tuple[int, ...]]) -> "MilnorElement":
        degs = {monomial_degree(m) for m in terms}
        if len(degs) > 1:
            raise ValueError(f"mixed degrees {sorted(degs)}")
        for m in terms:
            if m != normalize_monomial(m):
                raise ValueError(f"unnormalized monomial {m}")
            if not algebra.admits(m):
                raise ValueError(f"{m} violates profile {algebra.describe()}")
        return tuple.__new__(cls, (algebra, terms, degs.pop() if degs else None))

    @classmethod
    def _make(cls, fields: Iterable) -> "MilnorElement":
        # so that _replace checks its result and recomputes the degree
        algebra, terms, *_ = fields
        return cls(algebra, terms)

    def __getnewargs__(self):
        return self.algebra, self.terms

    def __repr__(self) -> str:
        return f"MilnorElement(algebra={self.algebra!r}, terms={self.terms!r})"

    @staticmethod
    def unit(algebra: Profile) -> "MilnorElement":
        return MilnorElement(algebra, frozenset([()]))

    @staticmethod
    def sq(algebra: Profile, *entries: int) -> "MilnorElement":
        return MilnorElement(algebra, frozenset([normalize_monomial(entries)]))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.terms, key=monomial_sort_key))

    def augmentation(self) -> int:
        """Coefficient of the unit monomial Sq()."""
        return 1 if () in self.terms else 0

    def __add__(self, other: "MilnorElement") -> "MilnorElement":
        if self.algebra != other.algebra:
            raise ValueError("algebra mismatch")
        if self.terms and other.terms and self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        return MilnorElement(self.algebra, self.terms ^ other.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_sq_str(m) for m in self.sorted_terms())


@lru_cache(maxsize=None)
def basis_in_degree(algebra: Profile, n: int) -> tuple[tuple[int, ...], ...]:
    """All Milnor monomials of degree n over the profile, canonical order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    top = 1
    while xi_degree(top + 1) <= n:
        top += 1
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, acc: list[int]):
        if i == 0:
            if remaining == 0:
                mono = normalize_monomial(tuple(reversed(acc)))
                if algebra.admits(mono):
                    out.append(mono)
            return
        d = xi_degree(i)
        r_max = remaining // d
        bound = algebra.r_bound(i)
        if bound is not None:
            r_max = min(r_max, bound - 1)
        for r in range(r_max + 1):
            acc.append(r)
            rec(i - 1, remaining - r * d, acc)
            acc.pop()

    rec(top, n, [])
    return tuple(sorted(out, key=monomial_sort_key))


def _psi_generator_power(i: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """psi(xi_i^{2^k}) = sum_j xi_{i-j}^{2^{j+k}} (x) xi_j^{2^k}, with xi_0 = 1."""
    xi = lambda idx, e: (0,) * (idx - 1) + (e,) if idx else ()
    return tuple((xi(i - j, 1 << (j + k)), xi(j, 1 << k)) for j in range(i + 1))


class _Coproduct:
    """psi(xi^t), the product of psi(xi_i^{2^k}) over the bits 2^k of each
    t_i, for t of degree at most n, keeping the terms xi^R (x) xi^S whose
    two factors the profile admits.

    A term is one int, w bits per exponent with R in the low ``shift`` bits,
    so multiplying terms adds ints.  Exponents only grow, so a partial term
    with an inadmissible factor is dropped at once: a finite profile gives
    each field a guard bit and drops a term once a field reaches bit h_i.
    Over the full algebra the fields fit degree n and nothing is dropped.
    """

    def __init__(self, algebra: Profile, n: int):
        exps = algebra.exponents
        if exps is None:
            self.fields, self.w, half = (n + 1).bit_length() - 1, max(n, 1).bit_length(), 0
        else:
            self.fields, self.w = len(exps), max(exps, default=0) + 1
            half = sum(((1 << self.w) - (1 << h)) << (i * self.w) for i, h in enumerate(exps))
        self.shift = self.fields * self.w
        self.overflow = half | half << self.shift
        self.halves: dict[int, tuple[int, ...]] = {}
        self.factors = {
            (i, k): [
                self.pack(left) | self.pack(right) << self.shift
                for left, right in _psi_generator_power(i, k)
                if algebra.admits(left) and algebra.admits(right)
            ]
            for i in range(1, (n + 1).bit_length())
            for k in range(n.bit_length())
            if xi_degree(i) << k <= n
        }

    def pack(self, mono: tuple[int, ...]) -> int:
        return sum(r << (i * self.w) for i, r in enumerate(mono))

    def unpack(self, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        r, s, field = y & ((1 << self.shift) - 1), y >> self.shift, (1 << self.w) - 1
        for x in (r, s):
            if x not in self.halves:
                self.halves[x] = normalize_monomial([x >> (i * self.w) & field for i in range(self.fields)])
        return self.halves[r], self.halves[s]

    def terms(self, t: tuple[int, ...]) -> set[int]:
        acc, overflow = {0}, self.overflow
        for i, e in enumerate(t, start=1):
            for k in range(e.bit_length()):
                if e >> k & 1:
                    new: set[int] = set()
                    for f in self.factors[i, k]:
                        # distinct for one f, so only the sum over f cancels
                        new ^= {y for x in acc if not (y := x + f) & overflow}
                    acc = new
        return acc


_coproduct = lru_cache(maxsize=None)(_Coproduct)


@lru_cache(maxsize=None)
def psi_dual_monomial(
    mono: tuple[int, ...], algebra: Profile = FULL
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Coproduct of a dual monomial in the free polynomial dual, as the
    sorted mod-2 collected (left, right) exponent vectors; over a profile,
    only the terms whose two factors it admits."""
    mono = normalize_monomial(mono)
    psi = _coproduct(algebra, monomial_degree(mono))
    pairs = [psi.unpack(y) for y in psi.terms(mono)]
    return tuple(sorted(pairs, key=lambda p: (monomial_sort_key(p[0]), monomial_sort_key(p[1]))))


@lru_cache(maxsize=None)
def _degree_products(algebra: Profile, n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Every nonzero product Sq(R) * Sq(S) of degree n, as a mask over
    ``basis_in_degree(algebra, n)``, keyed by (R, S).

    Sq(T) is a term of Sq(R) * Sq(S) exactly when xi^R (x) xi^S is a term of
    psi(xi^T), so expanding psi(xi^T) once for each T of degree n sets T's
    bit in every product it occurs in.  A sub-Hopf profile's products stay
    in the profile, so T runs over its own basis.  Any other profile runs T
    over the full algebra's basis and raises on a product that leaves it.
    """
    psi = _Coproduct(algebra, n)
    low, shift, halves = (1 << psi.shift) - 1, psi.shift, psi.halves
    halves.update((psi.pack(m), m) for d in range(n + 1) for m in basis_in_degree(algebra, d))
    positions = {m: k for k, m in enumerate(basis_in_degree(algebra, n))}
    masks: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for t in basis_in_degree(algebra if algebra.is_sub_hopf else FULL, n):
        terms = psi.terms(t)
        if terms and t not in positions:
            r, s = psi.unpack(min(terms))
            raise ValueError(
                f"product {_sq_str(r)} * {_sq_str(s)} escapes profile {algebra.describe()}: "
                f"{t}; profile is not sub-Hopf"
            )
        bit = 1 << positions.get(t, 0)
        for y in terms:
            key = (halves[y & low], halves[y >> shift])
            masks[key] = masks.get(key, 0) | bit
    return masks


def product_mask(algebra: Profile, r: tuple[int, ...], s: tuple[int, ...]) -> int:
    """Sq(r) * Sq(s) as a mask: bit k is the k-th monomial of
    ``basis_in_degree(algebra, |r| + |s|)``."""
    return _degree_products(algebra, monomial_degree(r) + monomial_degree(s)).get((r, s), 0)


@lru_cache(maxsize=None)
def _product_monomials(algebra: Profile, r: tuple[int, ...], s: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Sq(r) * Sq(s) as a set of monomials, decoded from ``product_mask``."""
    basis = basis_in_degree(algebra, monomial_degree(r) + monomial_degree(s))
    mask = product_mask(algebra, r, s)
    return frozenset(m for k, m in enumerate(basis) if mask >> k & 1)


def milnor_product(a: MilnorElement, b: MilnorElement) -> MilnorElement:
    """Bilinear, associative, unital product in the Milnor basis."""
    if a.algebra != b.algebra:
        raise ValueError("algebra mismatch")
    acc: set[tuple[int, ...]] = set()
    for r in a.terms:
        for s in b.terms:
            acc ^= _product_monomials(a.algebra, r, s)
    return MilnorElement(a.algebra, frozenset(acc))
