"""The mod-2 Steenrod algebra and its finite sub-Hopf algebras, Milnor basis.

A profile (h_1, ..., h_k) bounds the dual generators: the dual of the
subalgebra cut out by it is F_2[xi_1, ..., xi_k] / (xi_i^{2^{h_i}}), where
xi_i denotes the degree 2^i - 1 polynomial generator of the dual Steenrod
algebra (conjugate convention).  A(n) has profile (n+1, n, ..., 1); the full
algebra is the unbounded profile.

Milnor monomials Sq(r_1, ..., r_k) are dual to the monomials
xi_1^{r_1} ... xi_k^{r_k}.  Products use the Milnor matrix formula.  Its
multinomial coefficients are evaluated mod 2 by the no-carry criterion,
applied per diagonal as the matrix is filled: an entry whose bits meet those
of an entry already on its diagonal ends that branch of the enumeration.
``product_mask`` gives a product as an int over the basis of its degree,
which is the form the resolution engine's multiplication tables use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional


@dataclass(frozen=True)
class Profile:
    """Exponent profile of a sub-Hopf algebra; ``None`` means the full algebra."""

    exponents: Optional[tuple[int, ...]]

    def __post_init__(self):
        if self.exponents is not None:
            if any(h <= 0 for h in self.exponents):
                raise ValueError("profile exponents must be positive")
            object.__setattr__(self, "exponents", tuple(self.exponents))

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

    def dimension(self) -> int:
        if self.exponents is None:
            raise ValueError("the full algebra is infinite-dimensional")
        return 1 << sum(self.exponents)

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


@dataclass(frozen=True)
class MilnorElement:
    """A mod-2 sum of Milnor monomials, all of one degree, over one algebra."""

    algebra: Profile
    terms: frozenset[tuple[int, ...]]

    def __post_init__(self):
        degs = {monomial_degree(m) for m in self.terms}
        if len(degs) > 1:
            raise ValueError(f"mixed degrees {sorted(degs)}")
        for m in self.terms:
            if m != normalize_monomial(m):
                raise ValueError(f"unnormalized monomial {m}")
            if not self.algebra.admits(m):
                raise ValueError(f"{m} violates profile {self.algebra.describe()}")

    @staticmethod
    def zero(algebra: Profile) -> "MilnorElement":
        return MilnorElement(algebra, frozenset())

    @staticmethod
    def unit(algebra: Profile) -> "MilnorElement":
        return MilnorElement(algebra, frozenset([()]))

    @staticmethod
    def sq(algebra: Profile, *entries: int) -> "MilnorElement":
        return MilnorElement(algebra, frozenset([normalize_monomial(entries)]))

    @staticmethod
    def from_monomials(algebra: Profile, monos: Iterable[tuple[int, ...]]) -> "MilnorElement":
        acc: set[tuple[int, ...]] = set()
        for m in monos:
            m = normalize_monomial(m)
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
        return MilnorElement(algebra, frozenset(acc))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> Optional[int]:
        for m in self.terms:
            return monomial_degree(m)
        return None

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


@lru_cache(maxsize=None)
def basis_positions(algebra: Profile, n: int) -> dict[tuple[int, ...], int]:
    """Index of each degree-n basis monomial in ``basis_in_degree``."""
    return {m: k for k, m in enumerate(basis_in_degree(algebra, n))}


@lru_cache(maxsize=None)
def _product_monomials(algebra: Profile, r: tuple[int, ...], s: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Milnor matrix product of two basis monomials, as a set of monomials.

    Enumerates the matrices x_{ij} (i = 0..R, j = 0..S, x_00 unused) with
    sum_j 2^j x_{ij} = r_i and sum_i x_{ij} = s_j, row by row.  A matrix
    counts mod 2 exactly when the entries on each diagonal i + j = n add with
    no carry, so an entry is placed only if its bits are disjoint from the OR
    of the entries already on its diagonal; the diagonal sum T_n is then that
    OR.  The column remainders x_{0j} are placed last.
    """
    R, S = len(r), len(s)
    if R == 0:
        return frozenset([s])
    if S == 0:
        return frozenset([r])
    result: set[tuple[int, ...]] = set()
    diag = [0] * (R + S + 1)  # OR of the entries placed on diagonal n
    col_left = [0] + list(s)  # s_j minus the entries placed in column j

    def finish():
        t = diag[:]
        for j in range(1, S + 1):
            if col_left[j] & t[j]:
                return
            t[j] |= col_left[j]
        mono = normalize_monomial(t[1:])
        if not algebra.admits(mono):
            raise ValueError(
                f"product {_sq_str(r)} * {_sq_str(s)} escapes profile {algebra.describe()}: "
                f"{mono}; profile is not sub-Hopf"
            )
        result.symmetric_difference_update((mono,))

    def place(i: int, j: int, remaining: int):
        if j > S:
            # x_{i0} takes what is left of r_i
            if remaining & diag[i]:
                return
            diag[i] |= remaining
            if i == R:
                finish()
            else:
                place(i + 1, 1, r[i])
            diag[i] ^= remaining
            return
        n = i + j
        on_diag = diag[n]
        for v in range(min(remaining >> j, col_left[j]) + 1):
            if v & on_diag:
                continue
            diag[n] = on_diag | v
            col_left[j] -= v
            place(i, j + 1, remaining - (v << j))
            col_left[j] += v
        diag[n] = on_diag

    place(1, 1, r[0])
    return frozenset(result)


@lru_cache(maxsize=None)
def product_mask(algebra: Profile, r: tuple[int, ...], s: tuple[int, ...]) -> int:
    """Sq(r) * Sq(s) as a mask: bit k is the k-th monomial of
    ``basis_in_degree(algebra, |r| + |s|)``."""
    pos = basis_positions(algebra, monomial_degree(r) + monomial_degree(s))
    mask = 0
    for mono in _product_monomials(algebra, r, s):
        mask |= 1 << pos[mono]
    return mask


def milnor_product(a: MilnorElement, b: MilnorElement) -> MilnorElement:
    """Bilinear, associative, unital product in the Milnor basis."""
    if a.algebra != b.algebra:
        raise ValueError("algebra mismatch")
    acc: set[tuple[int, ...]] = set()
    for r in a.terms:
        for s in b.terms:
            for mono in _product_monomials(a.algebra, r, s):
                if mono in acc:
                    acc.discard(mono)
                else:
                    acc.add(mono)
    return MilnorElement(a.algebra, frozenset(acc))
