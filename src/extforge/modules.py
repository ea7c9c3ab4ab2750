"""Finite graded modules over a profile algebra, given by dual coaction tables.

Every coefficient object here is a finite subspace of (a quotient of) the
polynomial dual algebra, spanned by monomials in the dual generators.  The
stored structure is the coaction rho(m) = sum m' (x) gamma with m' a basis
element and gamma a dual monomial of the profile algebra; the left action of
a Milnor monomial Sq(alpha) is then read off as the sum of the m' whose
gamma equals alpha.  That action lowers module degree, matching the Hom
complex grading used by the resolution engine (a class represented on a
generator of internal degree t_g by a module element of degree d sits in
internal degree t_g + d).

Constructors cover the coefficient systems needed for the chart
computations: weight-truncated Brown-Gitler pieces of A//A(1)* and
A//A(2)*, quotient duals like A(2)//A(1)*, degree truncations of the
positive part of A//A(2)*, tensor products, and duals.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from . import gf2
from .milnor import (
    A1,
    A2,
    MilnorElement,
    Profile,
    basis_in_degree,
    milnor_product,
    monomial_degree,
    monomial_sort_key,
    monomial_weight,
    normalize_monomial,
    psi_dual_monomial,
)
from .records import record


class ComoduleError(ValueError):
    pass


def _add_exponents(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Entrywise sum of two normalized exponent vectors.

    The sum needs no normalizing: its entries are non-negative, and its last
    entry is at least the last entry of the longer input, which is positive.
    """
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(operator.add, a, b)) + a[len(b):]


@lru_cache(maxsize=None)
def conjugate_dual_generator(n: int) -> frozenset[tuple[int, ...]]:
    """Antipode of the n-th dual generator as a polynomial in the generators.

    Uses the recursion c_0 = 1, c_n = sum_{j=1..n} c_{n-j}^{2^j} xi_j, which
    rewrites the antipode axiom for the coproduct convention above.
    """
    if n == 0:
        return frozenset([()])
    acc: set[tuple[int, ...]] = set()
    for j in range(1, n + 1):
        xi_j = normalize_monomial([0] * (j - 1) + [1])
        for m in conjugate_dual_generator(n - j):
            term = _add_exponents(tuple(e << j for e in m), xi_j)
            if term in acc:
                acc.discard(term)
            else:
                acc.add(term)
    return frozenset(acc)


def conjugate_dual_monomial(profile: Profile, mono: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Antipode of a dual monomial, reduced in the profile quotient."""
    result: set[tuple[int, ...]] = {()}
    for i, e in enumerate(normalize_monomial(mono), start=1):
        k = 0
        while e:
            if e & 1:
                factor = [tuple(x << k for x in m) for m in conjugate_dual_generator(i)]
                new: set = set()
                for base in result:
                    for f in factor:
                        term = _add_exponents(base, normalize_monomial(f))
                        if not profile.admits(term):
                            continue
                        if term in new:
                            new.discard(term)
                        else:
                            new.add(term)
                result = new
            e >>= 1
            k += 1
    return frozenset(result)


@record
class BasisElement(NamedTuple):
    label: str
    degree: int
    weight: Optional[int] = None


@record
class PoincareSeries(NamedTuple):
    """Finitely supported degree -> count map."""

    coefficients: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(d: dict[int, int]) -> "PoincareSeries":
        return PoincareSeries(tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coefficients)

    def shift(self, k: int) -> "PoincareSeries":
        return PoincareSeries(tuple((d + k, c) for d, c in self.coefficients))

    def __add__(self, other: "PoincareSeries") -> "PoincareSeries":
        d = self.as_dict()
        for k, v in other.coefficients:
            d[k] = d.get(k, 0) + v
        return PoincareSeries.from_dict(d)

    def __mul__(self, other: "PoincareSeries") -> "PoincareSeries":
        d: dict[int, int] = {}
        for k1, v1 in self.coefficients:
            for k2, v2 in other.coefficients:
                d[k1 + k2] = d.get(k1 + k2, 0) + v1 * v2
        return PoincareSeries.from_dict(d)


CoactionTerm = tuple[int, tuple[int, ...]]


class FiniteModule:
    """A finite comodule over the profile dual, i.e. a module over the algebra.

    ``coaction[i]`` lists (target index, dual monomial) pairs for basis
    element i; the pair (i, ()) is the counit term and is always present.
    """

    def __init__(
        self,
        algebra: Profile,
        basis: Sequence[BasisElement],
        coaction: Sequence[Sequence[CoactionTerm]],
        name: str = "",
        validate: bool = True,
    ):
        if algebra.is_full:
            raise ComoduleError("finite modules require a finite profile algebra")
        order = sorted(range(len(basis)), key=lambda i: (basis[i].degree, basis[i].label))
        rank_of = {old: new for new, old in enumerate(order)}
        self.algebra = algebra
        self.basis: tuple[BasisElement, ...] = tuple(basis[i] for i in order)
        reordered: list[tuple[CoactionTerm, ...]] = []
        for i in order:
            terms = {}
            for tgt, mono in coaction[i]:
                key = (rank_of[tgt], normalize_monomial(mono))
                terms[key] = terms.get(key, 0) ^ 1
            reordered.append(tuple(sorted(k for k, v in terms.items() if v)))
        self.coaction: tuple[tuple[CoactionTerm, ...], ...] = tuple(reordered)
        self.name = name
        self._by_degree: dict[int, tuple[int, ...]] = {}
        for idx, b in enumerate(self.basis):
            self._by_degree.setdefault(b.degree, ())
            self._by_degree[b.degree] += (idx,)
        self._dims = {d: len(idx) for d, idx in self._by_degree.items()}
        self._act_cache: dict[tuple[tuple[int, ...], int], gf2.BitMatrix] = {}
        if validate:
            self.check_valid()

    # ----- structure -----

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_degree))

    def basis_in_degree(self, d: int) -> tuple[int, ...]:
        return self._by_degree.get(d, ())

    def dimension_in(self, d: int) -> int:
        return self._dims.get(d, 0)

    @property
    def dims_by_degree(self) -> Mapping[int, int]:
        """Dimension per nonzero degree: ``.get(d, 0)`` is ``dimension_in(d)``
        without a call, for loops that look up many degrees."""
        return self._dims

    def poincare(self) -> PoincareSeries:
        return PoincareSeries.from_dict(self._dims)

    def top_degree(self) -> int:
        return max(self.degrees(), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteModule)
            and self.algebra == other.algebra
            and [(b.label, b.degree, b.weight) for b in self.basis]
            == [(b.label, b.degree, b.weight) for b in other.basis]
            and self.coaction == other.coaction
        )

    def __repr__(self) -> str:
        return f"FiniteModule({self.name or 'unnamed'}, dim={self.dimension}, {self.algebra.describe()})"

    # ----- validity -----

    def check_valid(self) -> None:
        """Grading, counit, and coassociativity of the stored coaction."""
        admits = self.algebra.admits
        for i, terms in enumerate(self.coaction):
            deg_i = self.basis[i].degree
            counit_hits = 0
            for tgt, mono in terms:
                if not admits(mono):
                    raise ComoduleError(f"coaction of {self.basis[i].label} leaves the profile")
                if self.basis[tgt].degree + monomial_degree(mono) != deg_i:
                    raise ComoduleError(f"graded coaction violated at {self.basis[i].label}")
                if mono == ():
                    counit_hits += 1
                    if tgt != i:
                        raise ComoduleError(f"counit term of {self.basis[i].label} is off-diagonal")
            if counit_hits != 1:
                raise ComoduleError(f"counit axiom fails at {self.basis[i].label}")
        for i in range(len(self.basis)):
            lhs: set = set()
            for j, gamma in self.coaction[i]:
                for k, delta in self.coaction[j]:
                    key = (k, delta, gamma)
                    if key in lhs:
                        lhs.remove(key)
                    else:
                        lhs.add(key)
            rhs: set = set()
            for k, mu in self.coaction[i]:
                for left, right in psi_dual_monomial(mu, self.algebra):
                    key = (k, left, right)
                    if key in rhs:
                        rhs.remove(key)
                    else:
                        rhs.add(key)
            if lhs != rhs:
                raise ComoduleError(f"coassociativity fails at {self.basis[i].label}")

    def verify_action(self) -> None:
        """Associativity of the derived action against the Milnor product.

        Checks a (x) (b (x) m) = (ab) (x) m for all pairs of algebra basis
        monomials.
        """
        monos = [m for n in range(self.algebra.top_degree() + 1) for m in basis_in_degree(self.algebra, n)]
        for a_mono, b_mono in itertools.product(monos, monos):
            a = MilnorElement(self.algebra, frozenset([a_mono]))
            b = MilnorElement(self.algebra, frozenset([b_mono]))
            ab = milnor_product(a, b)
            for i in range(self.dimension):
                via_ab = self._act_element_on_index(ab, i)
                via_b = self._act_element_on_index(b, i)
                acc: set[int] = set()
                for j in via_b:
                    acc.symmetric_difference_update(self._act_element_on_index(a, j))
                if acc != via_ab:
                    raise ComoduleError(
                        f"action associativity fails: {a} * ({b} * {self.basis[i].label})"
                    )

    # ----- action -----

    def _act_element_on_index(self, a: MilnorElement, i: int) -> set[int]:
        acc: set[int] = set()
        for mono in a.terms:
            acc.symmetric_difference_update({tgt for tgt, gamma in self.coaction[i] if gamma == mono})
        return acc

    def action_matrix(self, a: MilnorElement, source_degree: int) -> gf2.BitMatrix:
        """Matrix of the action of ``a`` from degree d to degree d - |a|.

        Shape (dim in target degree) x (dim in source degree); columns are
        indexed by the canonical basis of the source degree.
        """
        if a.is_zero:
            return gf2.BitMatrix.zeros(0, len(self.basis_in_degree(source_degree)))
        target_degree = source_degree - (a.degree or 0)
        src = self.basis_in_degree(source_degree)
        tgt = self.basis_in_degree(target_degree)
        tgt_pos = {g: p for p, g in enumerate(tgt)}
        rows = [0] * len(tgt)
        for col, i in enumerate(src):
            for j in self._act_element_on_index(a, i):
                rows[tgt_pos[j]] ^= 1 << col
        return gf2.BitMatrix(len(tgt), len(src), rows)

    def monomial_action_matrix(self, mono: tuple[int, ...], source_degree: int) -> gf2.BitMatrix:
        key = (mono, source_degree)
        cached = self._act_cache.get(key)
        if cached is None:
            cached = self.action_matrix(
                MilnorElement(self.algebra, frozenset([mono])), source_degree
            )
            self._act_cache[key] = cached
        return cached


# ----- constructors -----


def _label_for(mono: tuple[int, ...]) -> str:
    if not mono:
        return "1"
    return "".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(mono, 1) if e)


def dual_comodule_from_monomials(
    algebra: Profile,
    monomials: Iterable[tuple[int, ...]],
    name: str,
    left_kill: Optional[Profile] = None,
) -> FiniteModule:
    """Span of dual monomials with the coproduct-induced coaction.

    Left tensor factors live in the module span (checked); right factors are
    projected to the profile dual.  ``left_kill`` additionally reduces left
    factors in a quotient dual (used for quotients like A(2)//A(1)*).
    """
    monos = sorted({normalize_monomial(m) for m in monomials}, key=monomial_sort_key)
    index = {m: i for i, m in enumerate(monos)}
    basis = [BasisElement(_label_for(m), monomial_degree(m), monomial_weight(m)) for m in monos]
    coaction: list[list[CoactionTerm]] = []
    for m in monos:
        terms: list[CoactionTerm] = []
        for left, right in psi_dual_monomial(m):
            if left_kill is not None and not left_kill.admits(left):
                continue
            if not algebra.admits(right):
                continue
            if left not in index:
                if right == () and left == m:
                    raise ComoduleError("span misses its own element")
                raise ComoduleError(
                    f"{name}: span is not a subcomodule; psi({m}) needs {left}"
                )
            terms.append((index[left], right))
        coaction.append(terms)
    return FiniteModule(algebra, basis, coaction, name=name)


def trivial(algebra: Profile = A2) -> FiniteModule:
    return dual_comodule_from_monomials(algebra, [()], name="trivial")


def suspend(M: FiniteModule, k: int) -> FiniteModule:
    basis = [BasisElement(b.label, b.degree + k, b.weight) for b in M.basis]
    name = f"S^{k}({M.name})" if M.name else f"S^{k}"
    return FiniteModule(M.algebra, basis, M.coaction, name=name, validate=False)


def tensor(M: FiniteModule, N: FiniteModule) -> FiniteModule:
    """Tensor product with the coproduct (Cartan) coaction."""
    if M.algebra != N.algebra:
        raise ComoduleError("algebra mismatch")
    pairs = list(itertools.product(range(M.dimension), range(N.dimension)))
    index = {p: i for i, p in enumerate(pairs)}
    basis = []
    for i, j in pairs:
        bi, bj = M.basis[i], N.basis[j]
        wt = None if bi.weight is None or bj.weight is None else bi.weight + bj.weight
        basis.append(BasisElement(f"{bi.label}|{bj.label}", bi.degree + bj.degree, wt))
    coaction: list[list[CoactionTerm]] = []
    for i, j in pairs:
        terms: dict[CoactionTerm, int] = {}
        for ti, gi in M.coaction[i]:
            for tj, gj in N.coaction[j]:
                prod = _add_exponents(gi, gj)
                if not M.algebra.admits(prod):
                    continue
                key = (index[(ti, tj)], prod)
                terms[key] = terms.get(key, 0) ^ 1
        coaction.append([k for k, v in terms.items() if v])
    return FiniteModule(
        M.algebra, basis, coaction, name=f"{M.name}(x){N.name}", validate=False
    )


def dualize(M: FiniteModule) -> FiniteModule:
    """Linear dual, renormalized to start in degree 0.

    The dual coaction twists by the antipode; the degree shift is the top
    degree of M, so dualizing twice restores the original degrees.
    """
    top = M.top_degree()
    basis = [BasisElement(f"d.{b.label}", top - b.degree, b.weight) for b in M.basis]
    coaction: list[list[CoactionTerm]] = [[] for _ in range(M.dimension)]
    for i, terms in enumerate(M.coaction):
        for j, gamma in terms:
            for chi in conjugate_dual_monomial(M.algebra, gamma):
                coaction[j].append((i, chi))
    return FiniteModule(M.algebra, basis, coaction, name=f"dual({M.name})")


def _filtered_monomials(
    steps: Callable[[int], int],
    weight_cap: Optional[int],
    degree_cap: Optional[int],
) -> list[tuple[int, ...]]:
    """Monomials with index-i exponents multiples of steps(i), bounded by the
    weight and/or degree caps (at least one cap required)."""
    if weight_cap is None and degree_cap is None:
        raise ValueError("need a weight or degree cap")
    max_i = 0
    while True:
        cand = max_i + 1
        step = steps(cand)
        w = step * (1 << (cand - 1))
        d = step * ((1 << cand) - 1)
        if weight_cap is not None and w > weight_cap:
            break
        if degree_cap is not None and d > degree_cap:
            break
        max_i = cand
        if max_i > 64:
            raise ValueError("runaway enumeration")
    out: list[tuple[int, ...]] = []

    def rec(i: int, acc: list[int], wt: int, deg: int):
        if i == 0:
            out.append(normalize_monomial(tuple(reversed(acc))))
            return
        step = steps(i)
        gen_w = step * (1 << (i - 1))
        gen_d = step * ((1 << i) - 1)
        e = 0
        while True:
            if weight_cap is not None and wt + e * gen_w > weight_cap:
                break
            if degree_cap is not None and deg + e * gen_d > degree_cap:
                break
            acc.append(e * step)
            rec(i - 1, acc, wt + e * gen_w, deg + e * gen_d)
            acc.pop()
            e += 1

    rec(max_i, [], 0, 0)
    return out


def bo(i: int, algebra: Profile = A2) -> FiniteModule:
    """Weight <= 4i monomials of the polynomial algebra on x1^4, x2^2, x3, ..."""
    if i < 0:
        raise ValueError("index must be non-negative")
    steps = lambda m: 4 if m == 1 else (2 if m == 2 else 1)
    monos = _filtered_monomials(steps, 4 * i, None)
    return dual_comodule_from_monomials(algebra, monos, name=f"bo{i}")


def tmf_bg(j: int, algebra: Profile = A2) -> FiniteModule:
    """Weight <= 8j monomials of the polynomial algebra on x1^8, x2^4, x3^2, x4, ..."""
    if j < 0:
        raise ValueError("index must be non-negative")
    steps = lambda m: {1: 8, 2: 4, 3: 2}.get(m, 1)
    monos = _filtered_monomials(steps, 8 * j, None)
    return dual_comodule_from_monomials(algebra, monos, name=f"tmf{j}")


def quotient_hopf_module(big: Profile, small: Profile) -> FiniteModule:
    """The dual of big//small as a module over big."""
    if big.is_full or small.is_full:
        raise ComoduleError("profiles must be finite")
    if not big.contains(small):
        raise ComoduleError("small must be a sub-profile of big")
    k = len(big.exponents or ())
    ranges = []
    for i in range(1, k + 1):
        step = 1 << small.exponent(i)
        bound = 1 << big.exponent(i)
        ranges.append(range(0, bound, step))
    monos = [normalize_monomial(t) for t in itertools.product(*ranges)]
    name = f"{big.describe()}//{small.describe()}*"
    return dual_comodule_from_monomials(big, monos, name=name, left_kill=big)


def abar_truncation(max_degree: int, algebra: Profile = A2) -> FiniteModule:
    """Positive-weight monomials of A//A(2)* in degrees <= max_degree.

    A finite stand-in for the positive part of A//A(2)*; charts computed
    against it are valid only for internal degrees below the cutoff.
    """
    if max_degree < 8:
        raise ValueError("cutoff below the first positive degree")
    steps = lambda m: {1: 8, 2: 4, 3: 2}.get(m, 1)
    monos = [m for m in _filtered_monomials(steps, None, max_degree) if m != ()]
    return dual_comodule_from_monomials(algebra, monos, name=f"abar<={max_degree}")


# ----- verification reports -----


@record
class SplittingReport(NamedTuple):
    max_degree: int
    ok: bool
    first_discrepancy: Optional[int]
    lhs: tuple[tuple[int, int], ...]
    rhs: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _bo_poincare(i: int) -> PoincareSeries:
    """Poincare series of bo(i) over A(2).

    The reports below read nothing else of bo(i), so each bo(i) is built and
    validated once per process, and only its series is kept.
    """
    return bo(i).poincare()


def verify_splitting(max_degree: int) -> SplittingReport:
    """Compare the graded dimensions of the truncated positive part of
    A//A(2)* with the direct sum of 8i-suspended bo(i)."""
    target = abar_truncation(max_degree).poincare().as_dict()
    total: dict[int, int] = {}
    i = 1
    while 8 * i <= max_degree:
        p = _bo_poincare(i).shift(8 * i)
        for d, c in p.coefficients:
            if d <= max_degree:
                total[d] = total.get(d, 0) + c
        i += 1
    bad = None
    for d in range(max_degree + 1):
        if total.get(d, 0) != target.get(d, 0):
            bad = d
            break
    return SplittingReport(
        max_degree,
        bad is None,
        bad,
        tuple(sorted(total.items())),
        tuple(sorted(target.items())),
    )


@record
class BoSequenceReport(NamedTuple):
    j: int
    even_ok: bool
    odd_ok: bool
    even_defect: tuple[tuple[int, int], ...]
    odd_defect: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return self.even_ok and self.odd_ok


def verify_bo_sequence(j: int) -> BoSequenceReport:
    """Euler-characteristic identities of the two exact sequences relating
    bo(2j) and bo(2j+1) to bo(j), bo(j-1) and tmf-Brown-Gitler pieces."""
    if j < 1:
        raise ValueError("j must be positive")
    # the series of a tensor product is the product of the factors' series
    mid = quotient_hopf_module(A2, A1).poincare() * tmf_bg(j - 1).poincare()
    # even: 0 -> S^{8j} bo_j -> bo_{2j} -> mid -> S^{8j+9} bo_{j-1} -> 0
    even = (
        _bo_poincare(j).shift(8 * j)
        + mid
        + _bo_poincare(2 * j) * PoincareSeries.from_dict({0: -1})
        + _bo_poincare(j - 1).shift(8 * j + 9) * PoincareSeries.from_dict({0: -1})
    )
    # odd: 0 -> S^{8j} bo_j (x) bo_1 -> bo_{2j+1} -> mid -> 0
    odd = (
        (_bo_poincare(j) * _bo_poincare(1)).shift(8 * j)
        + mid
        + _bo_poincare(2 * j + 1) * PoincareSeries.from_dict({0: -1})
    )
    return BoSequenceReport(j, not even.coefficients, not odd.coefficients, even.coefficients, odd.coefficients)
