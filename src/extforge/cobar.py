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
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from . import COBAR_MAX_S as MAX_S
from . import COBAR_MAX_STEM as MAX_STEM
from . import gf2
from .milnor import Profile
from .records import record

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


@record
class Comodule(NamedTuple):
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
    oracle touches engine-built data, and only tests and acceptance
    criterion 1 reach it, to confirm the bridge agrees with
    comodule_from_monomials; ``verify oracle`` never does.
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

    A basis element [w_1 | ... | w_s] n_j of Omega^{s,t} (letter ids w_i
    into the positive-degree monomial basis of A(n)_*, a comodule basis
    index j, deg w_1 + ... + deg w_s + deg(n_j) = t) is coded as one int,
    read from the top bit down:

        1 | w_1 | ... | w_s | j

    a sentinel 1 bit that fixes s, then letter_bits bits per letter, then
    index_bits bits for j; decode() gives back the tuple (w_1, ..., w_s, j).
    The tables apply_d reads are packed the same way: splits[w] holds the
    splittings of letter w as left << letter_bits | right, and coaction[j]
    the coaction terms of n_j as letter << index_bits | k.  Slices are
    streamed rather than stored: the top tensor spaces run to six figures
    and only ever pass through the sparse rank routine one column at a time.
    """

    def __init__(self, profile: Profile, comodule: Comodule, max_t: int):
        self.profile = profile
        self.comodule = comodule
        self.max_t = max_t
        letters = [m for m in dual_basis(profile, max_t) if monomial_degree(m) > 0]
        self.letters = letters
        self.letter_degree = [monomial_degree(m) for m in letters]
        self.letter_bits = b = max(1, (len(letters) - 1).bit_length())
        self.index_bits = c = (comodule.dimension - 1).bit_length()
        index = {m: i for i, m in enumerate(letters)}
        # splittings of each letter, as packed id pairs
        self.splits: list[tuple[int, ...]] = []
        for m in letters:
            pairs = []
            for left, right in reduced_coproduct(profile, m):
                if left in index and right in index:
                    pairs.append(index[left] << b | index[right])
            self.splits.append(tuple(pairs))
        # comodule coaction as packed (letter id, index) pairs (terms beyond
        # max_t cannot occur inside a degree-bounded slice, so dropping them
        # is safe)
        self.coaction: list[tuple[int, ...]] = []
        for row in comodule.coaction:
            self.coaction.append(
                tuple(index[mono] << c | k for mono, k in row if mono in index)
            )
        self._count: dict[tuple[int, int, bool], int] = {}
        self._words: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        # letter ids by degree, in increasing degree
        self._by_degree: dict[int, tuple[int, ...]] = {}
        for lid, d in enumerate(self.letter_degree):
            self._by_degree[d] = self._by_degree.get(d, ()) + (lid,)

    def decode(self, code: int) -> tuple[int, ...]:
        """The tuple (w_1, ..., w_s, j) of a coded basis element."""
        b, c = self.letter_bits, self.index_bits
        out = [code & ((1 << c) - 1)]
        code >>= c
        while code > 1:
            out.append(code & ((1 << b) - 1))
            code >>= b
        return tuple(reversed(out))

    def _indices(self, bottom: bool) -> tuple[int, ...]:
        # the degrees of the comodule indices a slice is built on
        return self.comodule.degrees[:1] if bottom else self.comodule.degrees

    def dimension(self, s: int, t: int, bottom: bool = False) -> int:
        """Size of Omega^{s,t}, or of its index-0 part when bottom is set."""
        if t < 0 or s < 0:
            return 0
        if s == 0:
            return self._indices(bottom).count(t)
        key = (s, t, bottom)
        if key not in self._count:
            self._count[key] = sum(
                len(lids) * self.dimension(s - 1, t - d, bottom)
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

    def elements(self, s: int, t: int, bottom: bool = False):
        """Yield the codes of the basis of Omega^{s,t} in deterministic order.

        The order is by comodule index, then letter-degree sequence, then
        letter ids, first letter slowest; each degree sequence expands as
        one product over the per-degree letter tables.  The fields of a code
        do not overlap, so a code is the sum of its sentinel-and-index part
        and its letter ids shifted into place.  With bottom set, only the
        elements of comodule index 0 are yielded.
        """
        b, c = self.letter_bits, self.index_bits
        # placed[i][e]: the letter ids of degree e, shifted to position i
        placed = [
            {
                e: tuple(lid << (c + (s - 1 - i) * b) for lid in lids)
                for e, lids in self._by_degree.items()
                if e <= t
            }
            for i in range(s)
        ]
        for j, d in enumerate(self._indices(bottom)):
            top = (1 << (s * b + c) | j,)
            for degrees in self._degree_words(s, t - d):
                yield from map(sum, itertools.product(top, *map(dict.__getitem__, placed, degrees)))

    def apply_d(self, code: int) -> list[int]:
        """Image terms of one basis element, each exactly once.

        Terms come position by position, first letter first, each letter's
        splittings in table order, then the coaction terms.  No term can
        repeat, so none needs parity reduction.  A split at position p keeps
        positions 0..p-1 and puts at p a letter of strictly lower degree than
        w_p; so terms from different split positions differ at the smaller
        position, and the coaction terms, which keep every letter, differ
        from all split terms.  The pairs of one letter's splits, and those of
        one coaction row, are distinct because psi and the coaction tables
        are parity-reduced when built.
        """
        b, c = self.letter_bits, self.index_bits
        splits = self.splits
        mask = (1 << b) - 1
        out: list[int] = []
        append = out.append
        # shift = number of bits below the letter at the current position
        shift = code.bit_length() - 1 - b
        while shift >= c:
            pairs = splits[code >> shift & mask]
            if pairs:
                base = (code >> (shift + b)) << (shift + 2 * b) | (code & ((1 << shift) - 1))
                for pair in pairs:
                    append(base | pair << shift)
            shift -= b
        pairs = self.coaction[code & ((1 << c) - 1)]
        if pairs:
            base = (code >> c) << (b + c)
            for pair in pairs:
                append(base | pair)
        return out

    def verify_d_squared(
        self, s: int, t: int, images: Optional[dict[int, list[int]]] = None, bottom: bool = False
    ) -> dict[int, list[int]]:
        """Check d(d(x)) = 0 for every basis element x of Omega^{s,t}, or
        for those of comodule index 0 when bottom is set.

        images maps elements of Omega^{s,t} to their d, as returned by the
        call on slice s - 1; the d(x) computed here are added to it, so a
        caller that ranks slice s next can take them from there.  Each term
        y of Omega^{s+1,t} met in some d(x) is differentiated once, and the
        dict of those d(y) is returned for the same use on slice s + 1.
        d(d(x)) is the parity-reduced concatenation of the d(y), which is
        zero exactly when _cancels holds for it.
        """
        if images is None:
            images = {}
        apply_d = self.apply_d
        after: dict[int, list[int]] = {}
        for x in self.elements(s, t, bottom):
            dx = images.get(x)
            if dx is None:
                dx = images[x] = apply_d(x)
            acc: list[int] = []
            for y in dx:
                dy = after.get(y)
                if dy is None:
                    dy = after[y] = apply_d(y)
                acc += dy
            if not _cancels(acc):
                raise AssertionError(f"d^2 != 0 on {self.decode(x)} at (s,t)=({s},{t})")
        return after


def _cancels(codes: list[int]) -> bool:
    """True when every code occurs an even number of times; sorts codes.

    After sorting, equal codes are adjacent, so every count is even exactly
    when the list pairs off: the even and odd positions agree.
    """
    codes.sort()
    return codes[0::2] == codes[1::2]


_D2_CHECK_CAP = 3000


def cotor(
    algebra: Profile,
    M: object = None,
    max_s: int = 6,
    max_stem: int = 12,
    bottom: Optional[dict[tuple[int, int], int]] = None,
) -> dict[tuple[int, int], int]:
    """Bigraded Cotor dimensions over A(n)_* with coefficients in M.

    M may be None (trivial comodule), a Comodule built by this module, or
    an engine FiniteModule (converted through the duality bridge).  Only
    nonzero dimensions appear in the result.

    When bottom is given, basis element 0 of M must be a degree-0 class
    with an empty coaction (ValueError otherwise).  F2 on that class is
    then a subcomodule, so the index-0 elements span the subcomplex
    Omega(A; F2), and the Cotor dimensions with trivial coefficients are
    added to bottom from the same complex: each slice gets a second rank
    pass over the columns of its index-0 elements, with its own clearing.

    Every basis element in the slices (s,t) with s >= s_lo - 1 (s_lo being
    the lowest reported filtration at t) of up to _D2_CHECK_CAP elements
    gets an exhaustive d^2 = 0 check, and with bottom given so does every
    index-0 element of a slice over the cap whose index-0 part is not;
    that covers all of the A(1) range and the low-degree A(2) range, and
    CobarComplex.verify_d_squared can audit any specific slice on demand.
    Each basis element is differentiated at most once per t: the check
    hands the images it computes, of slice s and of the terms it meets in
    slice s + 1, to the rank passes of those slices, and the index-0 pass
    keeps the images it reads for the pass over the whole slice.  Every
    computed dimension is also asserted non-negative, which a broken
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
    if bottom is not None and (N.degrees[:1] != (0,) or N.coaction[0]):
        raise ValueError(
            "the trivial row needs basis element 0 of the comodule to be a "
            "degree-0 class with an empty coaction"
        )

    # a reported spot (s,t) has t <= max_stem + s, so nothing above this
    # internal degree can matter, whatever the coefficients
    max_t = max_stem + max_s
    cx = CobarComplex(algebra, N, max_t)

    # each row ranked, the index-0 subcomplex (True) or the whole complex
    # (False), and the dict its dims go to; the index-0 row goes first and
    # keeps the images it reads, and the whole row takes them
    rows = {True: bottom, False: {}} if bottom is not None else {False: {}}

    def columns(s, t, row, images, cleared):
        for x in cx.elements(s, t, row):
            if x not in cleared:
                dx = images.get(x) if row else images.pop(x, None)
                if dx is None:
                    dx = cx.apply_d(x)
                    if row:
                        images[x] = dx
                yield dx

    for t in range(0, max_t + 1):
        s_lo = max(0, t - max_stem)
        ranks: dict[bool, dict[int, int]] = {row: {} for row in rows}
        # clearing (Chen & Kerber, "Persistent homology computation with a
        # twist"): the image of d_{s-1} projects isomorphically onto its
        # pivot rows, so because d_s d_{s-1} = 0 those basis elements of
        # Omega^{s,t} can be swapped for cocycles and left out of d_s.  The
        # loop starts at s = 0, below the reported range, so that no level
        # is ranked uncleared: reducing its cocycles to zero is the
        # expensive part of an elimination.
        cleared: dict[bool, set[int]] = {row: set() for row in rows}
        # d of the elements of slice s that the check of slice s - 1 met
        images: dict[int, list[int]] = {}
        for s in range(0, max_s + 1):
            after: dict[int, list[int]] = {}
            if s >= s_lo - 1:
                # the whole slice if it is within the cap, else its index-0 part
                for row in sorted(rows):
                    if 0 < cx.dimension(s, t, row) <= _D2_CHECK_CAP:
                        after = cx.verify_d_squared(s, t, images, row)
                        break
            for row in rows:
                pivots: set[int] = set()
                ranks[row][s] = gf2.sparse_rank(columns(s, t, row, images, cleared[row]), pivots)
                cleared[row] = pivots
            images = after
        for row, out in rows.items():
            for s in range(s_lo, max_s + 1):
                dim = cx.dimension(s, t, row) - ranks[row][s] - ranks[row].get(s - 1, 0)
                if dim < 0:
                    raise AssertionError(
                        f"negative Cotor dimension at ({s},{t}): bookkeeping is broken"
                    )
                if dim:
                    out[(s, t)] = dim
    return rows[False]


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
