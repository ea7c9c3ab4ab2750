"""Reduced cobar complex: an independent Cotor calculator for small windows.

This module is the verification oracle for the resolution engine.  It
computes Cotor over the dual algebra A(n)_* = F2[xibar_1, xibar_2, ...] /
(xibar_i ^ 2^{e_i}) straight from the coproduct

    psi(xibar_n) = sum_{i+j=n} xibar_i (x) xibar_j^{2^i},

which is the conjugate-generator form of Milnor's formula.  For a
finite-dimensional Hopf algebra, comodule Cotor and module Ext agree, so
cobar cohomology dimensions must match the engine's chart wherever both
are computed.  To keep that comparison meaningful the coproduct, the
truncated polynomial arithmetic, and the comodule coactions here are all
written from scratch: only the GF(2) linear algebra kernel is shared
with the engine.  Do not "deduplicate" against milnor.psi_dual_monomial;
the redundancy is the point.

Cobar grading: an element [w_1 | ... | w_s] n sits in filtration s and
internal degree t = deg(w_1) + ... + deg(w_s) + deg(n), so h0 = [xibar_1]
lives at (s, t) = (1, 1) and the square [xibar_1 | xibar_1] at (2, 2).

Everything is budget-guarded: cobar tensor spaces grow too fast for this
route to be more than a desk-checkable oracle, and the hard caps (s <= 7,
stem <= 14) are part of the contract.

The module also carries a tiny admissible-basis toolkit (Adem
straightening plus the coproduct pairing that converts admissible words
to Milnor coordinates) used to cross-check the engine's coproduct-table
multiplication against the Adem relations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import gf2
from .milnor import Profile

MAX_S = 7
MAX_STEM = 14

Monomial = tuple[int, ...]
TensorTerm = tuple[Monomial, Monomial]


class CobarBudgetError(ValueError):
    """Requested window exceeds the oracle's hard budget."""


def _trim(exponents: Sequence[int]) -> Monomial:
    out = list(exponents)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def monomial_degree(mono: Monomial) -> int:
    return sum(e * (2 ** (i + 1) - 1) for i, e in enumerate(mono))


def _within(profile: Profile, mono: Monomial) -> bool:
    # read the exponents directly rather than through Profile.admits, so the
    # oracle's truncation stays its own code; generators past the profile
    # have exponent 0, so their only allowed power is 0
    bounds = profile.exponents
    if bounds is None:
        return True
    for i, e in enumerate(mono):
        if e >= (1 << bounds[i] if i < len(bounds) else 1):
            return False
    return True


def dual_basis(profile: Profile, max_degree: int) -> tuple[Monomial, ...]:
    """All xibar-monomials of A(n)_* with degree <= max_degree, unit included."""
    gens: list[int] = []
    i = 1
    while 2**i - 1 <= max_degree:
        gens.append(i)
        i += 1
    out: list[Monomial] = []

    def rec(idx: int, acc: list[int], remaining: int) -> None:
        if idx == len(gens):
            out.append(_trim(acc))
            return
        g = gens[idx]
        d = 2**g - 1
        bound = profile.exponent(g) if not profile.is_full else None
        cap = remaining // d
        if bound is not None:
            cap = min(cap, (1 << bound) - 1)
        for e in range(cap + 1):
            rec(idx + 1, acc + [e], remaining - e * d)

    rec(0, [], max_degree)
    return tuple(sorted(out, key=lambda m: (monomial_degree(m), m)))


def multiply(profile: Profile, a: Monomial, b: Monomial) -> Optional[Monomial]:
    """Product in the truncated polynomial algebra; None when it hits a cap."""
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    mono = _trim(out)
    if not _within(profile, mono):
        return None
    return mono


@lru_cache(maxsize=None)
def _psi_generator_dyadic(n: int, k: int) -> tuple[TensorTerm, ...]:
    # psi(xibar_n^{2^k}) via Frobenius: square the generator formula k times.
    terms: list[TensorTerm] = []
    for i in range(n + 1):
        j = n - i
        left = _trim([0] * (i - 1) + [1 << k]) if i else ()
        right = _trim([0] * (j - 1) + [1 << (i + k)]) if j else ()
        terms.append((left, right))
    return tuple(terms)


def _tensor_product(xs: Iterable[TensorTerm], ys: Iterable[TensorTerm]) -> tuple[TensorTerm, ...]:
    acc: dict[TensorTerm, int] = {}
    full = Profile.full()
    for l1, r1 in xs:
        for l2, r2 in ys:
            left = multiply(full, l1, l2)
            right = multiply(full, r1, r2)
            key = (left, right)
            acc[key] = acc.get(key, 0) ^ 1
    return tuple(term for term, bit in acc.items() if bit)


@lru_cache(maxsize=None)
def psi(mono: Monomial) -> tuple[TensorTerm, ...]:
    """Full coproduct of a xibar-monomial in A_*, no profile truncation."""
    terms: tuple[TensorTerm, ...] = (((), ()),)
    for idx, e in enumerate(mono, start=1):
        k = 0
        while e:
            if e & 1:
                terms = _tensor_product(terms, _psi_generator_dyadic(idx, k))
            e >>= 1
            k += 1
    return terms


def reduced_coproduct(profile: Profile, mono: Monomial) -> tuple[TensorTerm, ...]:
    """psi-bar in A(n)_*: both factors positive, overflow terms dropped."""
    out: list[TensorTerm] = []
    for left, right in psi(mono):
        if not left or not right:
            continue
        if _within(profile, left) and _within(profile, right):
            out.append((left, right))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# comodules


@dataclass(frozen=True)
class Comodule:
    """Finite left comodule given by a reduced coaction table.

    coaction[i] lists the terms xibar^e (x) basis[j] of psi(basis[i]) with
    positive-degree left factor, already truncated into A(n)_*.
    """

    profile: Profile
    degrees: tuple[int, ...]
    labels: tuple[str, ...]
    coaction: tuple[tuple[tuple[Monomial, int], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.degrees)


def trivial_comodule(profile: Profile) -> Comodule:
    return Comodule(profile, (0,), ("1",), ((),))


def comodule_from_monomials(profile: Profile, monomials: Sequence[Monomial]) -> Comodule:
    """Subcomodule of A_* spanned by the given monomials.

    The left tensor factor of each coproduct is truncated into A(n)_*;
    the right factor must land back in the span, otherwise the monomial
    list is not coaction-closed and we refuse to guess.
    """
    monos = [_trim(m) for m in monomials]
    index = {m: i for i, m in enumerate(monos)}
    if len(index) != len(monos):
        raise ValueError("duplicate monomials in comodule basis")
    table: list[tuple[tuple[Monomial, int], ...]] = []
    for m in monos:
        acc: dict[tuple[Monomial, int], int] = {}
        for left, right in psi(m):
            if not left:
                continue
            if not _within(profile, left):
                continue
            if right not in index:
                raise ValueError(
                    f"span is not closed under the coaction: {m} needs {right}"
                )
            key = (left, index[right])
            acc[key] = acc.get(key, 0) ^ 1
        table.append(tuple(sorted(k for k, bit in acc.items() if bit)))
    degrees = tuple(monomial_degree(m) for m in monos)
    labels = tuple(str(m) for m in monos)
    return Comodule(profile, degrees, labels, tuple(table))


def bo1_comodule(profile: Profile) -> Comodule:
    """The four-dimensional bottom bo Brown-Gitler piece {1, x1^4, x2^2, x3}."""
    return comodule_from_monomials(profile, [(), (4,), (0, 2), (0, 0, 1)])


def comodule_from_module(M) -> Comodule:
    """Reinterpret an engine FiniteModule as a comodule through its action.

    The engine stores actions homology-style (Sq(e) lowers degree by |e|),
    so the coaction is read off directly: psi(m_j) contains xibar^e (x) m_k
    exactly when m_k appears in Sq(e) . m_j.  This is the only place the
    oracle touches engine-built data, and it exists so tests can confirm
    the bridge agrees with comodule_from_monomials.
    """
    profile = M.algebra
    degs = tuple(b.degree for b in M.basis)
    pos_in_degree = {i: pos for d in set(degs) for pos, i in enumerate(M.basis_in_degree(d))}
    bottom = min(degs, default=0)
    table: list[tuple[tuple[Monomial, int], ...]] = []
    for j, dj in enumerate(degs):
        acc: dict[tuple[Monomial, int], int] = {}
        for e in dual_basis(profile, dj - bottom):
            de = monomial_degree(e)
            if de == 0:
                continue
            tgt = dj - de
            if M.dimension_in(tgt) == 0:
                continue
            mat = M.monomial_action_matrix(e, dj)
            col = pos_in_degree[j]
            for pos, k in enumerate(M.basis_in_degree(tgt)):
                if mat.get(pos, col):
                    key = (e, k)
                    acc[key] = acc.get(key, 0) ^ 1
        table.append(tuple(sorted(k for k, bit in acc.items() if bit)))
    return Comodule(profile, degs, tuple(f"m{j}" for j in range(len(degs))), tuple(table))


# ---------------------------------------------------------------------------
# the complex


class CobarComplex:
    """Reduced cobar complex C-bar^{(x)s} (x) N, degree-truncated.

    Basis elements of Omega^{s,t} are tuples (w_1, ..., w_s, j): letter ids
    into the positive-degree monomial basis of A(n)_* plus a comodule basis
    index, with deg w_1 + ... + deg w_s + deg(n_j) = t.  Slices are streamed
    rather than stored: the top tensor spaces run to six figures and only
    ever pass through the sparse rank routine one column at a time.
    """

    def __init__(self, profile: Profile, comodule: Comodule, max_t: int):
        self.profile = profile
        self.comodule = comodule
        self.max_t = max_t
        letters = [m for m in dual_basis(profile, max_t) if monomial_degree(m) > 0]
        self.letters = letters
        self.letter_degree = [monomial_degree(m) for m in letters]
        index = {m: i for i, m in enumerate(letters)}
        # splittings of each letter, as id pairs
        self.splits: list[tuple[tuple[int, int], ...]] = []
        for m in letters:
            pairs = []
            for left, right in reduced_coproduct(profile, m):
                if left in index and right in index:
                    pairs.append((index[left], index[right]))
            self.splits.append(tuple(pairs))
        # comodule coaction in letter ids (terms beyond max_t cannot occur
        # inside a degree-bounded slice, so dropping them is safe)
        self.coaction: list[tuple[tuple[int, int], ...]] = []
        for row in comodule.coaction:
            self.coaction.append(
                tuple((index[mono], k) for mono, k in row if mono in index)
            )
        self._count: dict[tuple[int, int], int] = {}
        self._words: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        # letter ids by degree, in increasing degree
        self._by_degree: dict[int, tuple[int, ...]] = {}
        for lid, d in enumerate(self.letter_degree):
            self._by_degree[d] = self._by_degree.get(d, ()) + (lid,)

    def dimension(self, s: int, t: int) -> int:
        if t < 0 or s < 0:
            return 0
        if s == 0:
            return sum(1 for d in self.comodule.degrees if d == t)
        key = (s, t)
        if key not in self._count:
            self._count[key] = sum(
                len(lids) * self.dimension(s - 1, t - d)
                for d, lids in self._by_degree.items()
                if d <= t
            )
        return self._count[key]

    def _degree_words(self, s: int, t: int) -> tuple[tuple[int, ...], ...]:
        # the letter-degree sequences (d_1, ..., d_s) that sum to t
        if s == 0:
            return ((),) if t == 0 else ()
        key = (s, t)
        if key not in self._words:
            self._words[key] = tuple(
                (d,) + rest
                for d in self._by_degree
                if d <= t
                for rest in self._degree_words(s - 1, t - d)
            )
        return self._words[key]

    def elements(self, s: int, t: int):
        """Yield the basis of Omega^{s,t} in deterministic order.

        The order is by comodule index, then letter-degree sequence, then
        letter ids; each degree sequence expands as one product over the
        per-degree letter tables.
        """
        for j, d in enumerate(self.comodule.degrees):
            for degrees in self._degree_words(s, t - d):
                yield from itertools.product(*(self._by_degree[e] for e in degrees), (j,))

    def apply_d(self, elem: tuple) -> tuple[tuple, ...]:
        """Image terms of one basis element, each exactly once.

        No term can repeat, so none needs parity reduction.  A split at
        position p keeps positions 0..p-1 and puts at p a letter of strictly
        lower degree than elem[p]; so terms from different split positions
        differ at the smaller position, and the coaction terms, which keep
        every letter of elem, differ from all split terms.  The pairs of one
        letter's splits, and those of one coaction row, are distinct because
        psi and the coaction tables are parity-reduced when built.
        """
        words = elem[:-1]
        out: list[tuple] = []
        for pos in range(len(words)):
            head = elem[:pos]
            tail = elem[pos + 1 :]
            for pair in self.splits[elem[pos]]:
                out.append(head + pair + tail)
        for pair in self.coaction[elem[-1]]:
            out.append(words + pair)
        return tuple(out)

    def verify_d_squared(self, s: int, t: int) -> None:
        """Check d(d(x)) = 0 for every basis element of Omega^{s,t}.

        Each term y of Omega^{s+1,t} met in some d(x) is differentiated
        once: d(y) is kept as an int mask whose bits label the terms of
        Omega^{s+2,t}, interned in order of first appearance.  d(d(x)) is
        then the XOR of the masks of the terms of d(x).  The memo lives only
        for this call.
        """
        labels: dict[tuple, int] = {}
        images: dict[tuple, int] = {}
        for elem in self.elements(s, t):
            acc = 0
            for term in self.apply_d(elem):
                mask = images.get(term)
                if mask is None:
                    mask = 0
                    for term2 in self.apply_d(term):
                        mask ^= 1 << labels.setdefault(term2, len(labels))
                    images[term] = mask
                acc ^= mask
            if acc:
                raise AssertionError(f"d^2 != 0 on {elem} at (s,t)=({s},{t})")


_D2_CHECK_CAP = 3000


def cotor(
    algebra: Profile,
    M: object = None,
    max_s: int = 6,
    max_stem: int = 12,
    check_d_squared: bool = True,
) -> dict[tuple[int, int], int]:
    """Bigraded Cotor dimensions over A(n)_* with coefficients in M.

    M may be None (trivial comodule), a Comodule built by this module, or
    an engine FiniteModule (converted through the duality bridge).  Only
    nonzero dimensions appear in the result.

    With check_d_squared on, every basis element in slices of up to
    _D2_CHECK_CAP elements gets an exhaustive d^2 = 0 check; that covers all
    of the A(1) range and the low-degree A(2) range, and
    CobarComplex.verify_d_squared can audit any specific slice on demand.
    The check differentiates each term of the slice above once and keeps
    its image as a bit mask only while that slice is checked: holding the
    images on for the rank pass would cost more memory than it saves time.
    Every computed dimension is also asserted non-negative, which a broken
    differential or rank bookkeeping would quickly violate.
    """
    if max_s > MAX_S or max_stem > MAX_STEM:
        raise CobarBudgetError(
            f"bound too large for the cobar oracle: need max_s <= {MAX_S} "
            f"and max_stem <= {MAX_STEM}, got ({max_s}, {max_stem})"
        )
    if max_s < 0 or max_stem < 0:
        raise ValueError("bounds must be non-negative")
    if M is None:
        N = trivial_comodule(algebra)
    elif isinstance(M, Comodule):
        N = M
    else:
        N = comodule_from_module(M)
    if N.profile != algebra:
        raise ValueError("comodule does not live over the requested algebra")

    # a reported spot (s,t) has t <= max_stem + s, so nothing above this
    # internal degree can matter, whatever the coefficients
    max_t = max_stem + max_s
    cx = CobarComplex(algebra, N, max_t)
    dims: dict[tuple[int, int], int] = {}
    for t in range(0, max_t + 1):
        s_lo = max(0, t - max_stem)
        ranks: dict[int, int] = {}
        # clearing (Chen & Kerber, "Persistent homology computation with a
        # twist"): the image of d_{s-1} projects isomorphically onto its
        # pivot rows, so because d_s d_{s-1} = 0 those basis elements of
        # Omega^{s,t} can be swapped for cocycles and left out of d_s
        cleared: set = set()
        for s in range(max(0, s_lo - 1), max_s + 1):
            if cx.dimension(s, t) == 0:
                ranks[s] = 0
                cleared = set()
                continue
            if check_d_squared and cx.dimension(s, t) <= _D2_CHECK_CAP:
                cx.verify_d_squared(s, t)
            pivots: set = set()
            ranks[s] = gf2.sparse_rank(
                (cx.apply_d(elem) for elem in cx.elements(s, t) if elem not in cleared),
                pivots,
            )
            cleared = pivots
        for s in range(s_lo, max_s + 1):
            n_here = cx.dimension(s, t)
            rank_in = ranks.get(s - 1, 0)
            dim = (n_here - ranks.get(s, 0)) - rank_in
            if dim < 0:
                raise AssertionError(
                    f"negative Cotor dimension at ({s},{t}): bookkeeping is broken"
                )
            if dim:
                dims[(s, t)] = dim
    return dims


# ---------------------------------------------------------------------------
# admissible-basis toolkit


@lru_cache(maxsize=None)
def adem_straighten(word: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Straighten a word of Sq^i into the admissible basis, mod 2.

    Admissible means i_k >= 2 i_{k+1} throughout.  Sq^0 factors are
    dropped; the empty word is the identity operation.
    """
    w = tuple(i for i in word if i != 0)
    if any(i < 0 for i in w):
        raise ValueError("negative Squares make no sense")
    for pos in range(len(w) - 1):
        a, b = w[pos], w[pos + 1]
        if a >= 2 * b:
            continue
        acc: set[tuple[int, ...]] = set()
        for c in range(a // 2 + 1):
            if math.comb(b - c - 1, a - 2 * c) % 2 == 0:
                continue
            head = w[:pos] + (a + b - c, c) + w[pos + 2 :]
            for term in adem_straighten(head):
                acc ^= {term}
        return frozenset(acc)
    return frozenset([w])


@lru_cache(maxsize=None)
def _pairing(word: tuple[int, ...], mono: Monomial) -> int:
    # <Sq^{j_1} ... Sq^{j_l}, xibar^e> by splitting one coproduct at a time;
    # a single Sq^j pairs with xibar_1^j and nothing else.  Conjugating the
    # generators turns the coproduct around (chi is an anti-homomorphism),
    # so the leading letter pairs against the RIGHT tensor factor.
    if not word:
        return 1 if mono == () else 0
    if len(word) == 1:
        return 1 if mono == (word[0],) else 0
    j = word[0]
    total = 0
    for left, right in psi(mono):
        if right == (j,):
            total ^= _pairing(word[1:], left)
    return total


def word_milnor_coordinates(word: Sequence[int]) -> frozenset[Monomial]:
    """Milnor-basis coordinates of a composite Sq^{j_1} ... Sq^{j_l}.

    Computed purely from the coproduct pairing, so it is independent of
    both the Adem relations and the engine's product table; the
    three-way comparison is done in the test suite.
    """
    w = tuple(i for i in word if i != 0)
    degree = sum(w)
    out: set[Monomial] = set()
    for mono in dual_basis(Profile.full(), degree):
        if monomial_degree(mono) == degree and _pairing(w, mono):
            out.add(mono)
    return frozenset(out)


def admissible_milnor_coordinates(terms: Iterable[tuple[int, ...]]) -> frozenset[Monomial]:
    """Milnor coordinates of a mod-2 sum of admissible words."""
    acc: set[Monomial] = set()
    for term in terms:
        acc ^= set(word_milnor_coordinates(term))
    return frozenset(acc)
