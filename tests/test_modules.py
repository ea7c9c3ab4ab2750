"""Finite module layer: constructors, Cartan tensor action, exact-sequence checks."""

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extforge import milnor, modules
from extforge.modules import BasisElement, ComoduleError, FiniteModule


def test_trivial_module():
    triv = modules.trivial(milnor.A2)
    assert triv.dimension == 1
    assert triv.degrees() == (0,)
    triv.check_valid()


def test_bo1_basis_degrees():
    # weight <= 4 part of A//A(1)*: 1, xi1^4, xi2^2, xi3
    bo1 = modules.bo(1)
    assert {d: bo1.dimension_in(d) for d in bo1.degrees()} == {0: 1, 4: 1, 6: 1, 7: 1}
    bo1.check_valid()
    bo1.verify_action()


def test_bo_weight_filtration_nested():
    # bo_i is the weight <= 4i stage; each stage contains the previous one
    prev: dict[int, int] = {}
    for i in (1, 2, 3):
        cur = modules.bo(i).poincare().as_dict()
        for d, n in prev.items():
            assert cur.get(d, 0) >= n
        prev = cur


def test_tmf_bg_smallest():
    t1 = modules.tmf_bg(1)
    assert t1.dimension == 5
    t1.check_valid()


def test_quotient_hopf_module_dimension():
    q = modules.quotient_hopf_module(milnor.A2, milnor.A1)
    assert q.dimension == 64 // 8  # dim A(2) / dim A(1), as test_milnor counts them
    q.check_valid()
    q.verify_action()


def test_abar_truncation_low_degrees():
    # positive-degree part of A//A(2)*: first generators at 8, 12, 14, 15
    ab = modules.abar_truncation(15)
    assert {d: ab.dimension_in(d) for d in ab.degrees()} == {8: 1, 12: 1, 14: 1, 15: 1}


def test_suspend_shifts_degrees():
    bo1 = modules.bo(1)
    up = modules.suspend(bo1, 8)
    assert sorted(up.degrees()) == [d + 8 for d in sorted(bo1.degrees())]
    assert up.dimension == bo1.dimension
    up.verify_action()


def test_tensor_poincare_multiplies():
    a, b = modules.bo(1), modules.bo(1)
    t = modules.tensor(a, b)
    pa, pb, pt = (m.poincare().as_dict() for m in (a, b, t))
    for d in pt:
        conv = sum(pa.get(i, 0) * pb.get(d - i, 0) for i in pa)
        assert pt[d] == conv
    # Cartan coassociativity of the action is what verify_action certifies
    t.verify_action()


def test_tensor_action_is_cartan():
    # Sq acts on a (x) b through the coproduct; spot-check bottom classes
    bo1 = modules.bo(1)
    t = modules.tensor(bo1, bo1)
    t.check_valid()
    # degree-8 piece of bo1 (x) bo1 is spanned by x4 (x) x4: Sq(4)-image of x4 (x) x0 + x0 (x) x4
    m = t.monomial_action_matrix((4,), 4)
    assert m.rows == t.dimension_in(0) and m.cols == t.dimension_in(4)


def test_dualize_mirrors_dimensions():
    bo1 = modules.bo(1)
    d = modules.dualize(bo1)
    top = bo1.top_degree()
    for deg in bo1.degrees():
        assert d.dimension_in(top - deg) == bo1.dimension_in(deg)
    d.verify_action()
    dd = modules.dualize(d)
    assert dd.poincare().as_dict() == bo1.poincare().as_dict()


# ----- check_valid on broken coactions -----


@pytest.mark.parametrize(
    "degrees, coaction, message",
    [
        # Sq(8) is not in A(2): xi1^8 leaves the profile
        ([0, 8], [[(0, ())], [(1, ()), (0, (8,))]], "coaction of b leaves the profile"),
        # xi1 has degree 1, not 4
        ([0, 4], [[(0, ())], [(1, ()), (0, (1,))]], "graded coaction violated at b"),
        ([0, 4], [[(0, ())], [(0, (4,))]], "counit axiom fails at b"),
        ([0, 0], [[(1, ())], [(1, ())]], "counit term of a is off-diagonal"),
    ],
    ids=["outside-profile", "grading", "missing-counit", "off-diagonal-counit"],
)
def test_check_valid_rejects_broken_coaction(degrees, coaction, message):
    basis = [BasisElement(label, d) for label, d in zip("ab", degrees)]
    with pytest.raises(ComoduleError, match=message):
        FiniteModule(milnor.A2, basis, coaction)


def test_check_valid_rejects_a_dropped_coaction_term():
    # psi(xi3) has the splits xi2^2 (x) xi1 and xi1^4 (x) xi2 as well, so
    # dropping 1 (x) xi3 from rho(x3) breaks coassociativity, not the grading
    bo3 = modules.bo(3)
    labels = [b.label for b in bo3.basis]
    x3, unit = labels.index("x3"), labels.index("1")
    coaction = [list(terms) for terms in bo3.coaction]
    coaction[x3].remove((unit, (0, 0, 1)))
    FiniteModule(bo3.algebra, bo3.basis, bo3.coaction)
    with pytest.raises(ComoduleError, match="coassociativity fails at x3"):
        FiniteModule(bo3.algebra, bo3.basis, coaction)


# ----- helpers pinned to their first definitions -----


normalized_monomials = st.lists(st.integers(0, 20), max_size=6).map(milnor.normalize_monomial)


@settings(max_examples=300, deadline=None)
@given(normalized_monomials, normalized_monomials)
def test_add_exponents_matches_normalized_padded_sum(a, b):
    n = max(len(a), len(b))
    padded = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    assert modules._add_exponents(a, b) == milnor.normalize_monomial(padded)


def reference_psi(mono: tuple[int, ...]) -> set:
    """psi(xi^mono) multiplied out over tuples, one factor
    psi(xi_i) = sum_j xi_{i-j}^{2^j} (x) xi_j at a time (no Frobenius)."""

    def add(a, b):
        n = max(len(a), len(b))
        return milnor.normalize_monomial([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])

    def xi(i, e):
        return milnor.normalize_monomial([0] * (i - 1) + [e]) if i else ()

    acc = {((), ())}
    for i, e in enumerate(mono, start=1):
        for _ in range(e):
            new = set()
            for left, right in acc:
                for j in range(i + 1):
                    new ^= {(add(left, xi(i - j, 1 << j)), add(right, xi(j, 1)))}
            acc = new
    return acc


def test_psi_dual_monomial_matches_reference():
    for n in range(23):
        for mono in milnor.basis_in_degree(milnor.FULL, n):
            expected = reference_psi(mono)
            assert set(milnor.psi_dual_monomial(mono)) == expected, mono
            in_a2 = {(l, r) for l, r in expected if milnor.A2.admits(l) and milnor.A2.admits(r)}
            assert set(milnor.psi_dual_monomial(mono, milnor.A2)) == in_a2, mono
    assert modules.psi_dual_monomial is milnor.psi_dual_monomial


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: modules.bo(1), "b21dd25dd7723e1c"),
        (lambda: modules.bo(2), "6663ce08d1a40ba3"),
        (lambda: modules.quotient_hopf_module(milnor.A2, milnor.A1), "42183cb8bcd6e293"),
    ],
    ids=["bo1", "bo2", "A2//A1"],
)
def test_coaction_tables_are_pinned(build, digest):
    # digests of the tables built by the tuple-based coproduct this replaced
    module = build()
    blob = json.dumps([list(map(list, terms)) for terms in module.coaction], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest
    module.verify_action()


def _splitting_from_fresh_modules(max_degree):
    """verify_splitting with every bo(i) built afresh."""
    target = modules.abar_truncation(max_degree).poincare().as_dict()
    total = {}
    i = 1
    while 8 * i <= max_degree:
        for d, c in modules.bo(i).poincare().shift(8 * i).coefficients:
            if d <= max_degree:
                total[d] = total.get(d, 0) + c
        i += 1
    bad = next((d for d in range(max_degree + 1) if total.get(d, 0) != target.get(d, 0)), None)
    return modules.SplittingReport(
        max_degree, bad is None, bad, tuple(sorted(total.items())), tuple(sorted(target.items()))
    )


def _bo_sequence_from_fresh_modules(j):
    """verify_bo_sequence with every module, bo(j) (x) bo(1) too, built afresh."""
    minus = modules.PoincareSeries.from_dict({0: -1})
    bo = modules.bo
    mid = modules.tensor(modules.quotient_hopf_module(milnor.A2, milnor.A1), modules.tmf_bg(j - 1))
    even = (
        bo(j).poincare().shift(8 * j)
        + mid.poincare()
        + bo(2 * j).poincare() * minus
        + bo(j - 1).poincare().shift(8 * j + 9) * minus
    )
    odd = (
        modules.tensor(bo(j), bo(1)).poincare().shift(8 * j)
        + mid.poincare()
        + bo(2 * j + 1).poincare() * minus
    )
    return modules.BoSequenceReport(
        j, not even.coefficients, not odd.coefficients, even.coefficients, odd.coefficients
    )


def test_reports_match_freshly_built_modules():
    modules._bo_poincare.cache_clear()
    expected = [_splitting_from_fresh_modules(48)] + [_bo_sequence_from_fresh_modules(j) for j in (1, 2, 3)]
    # the first pass fills the memo of bo(i) series, the second reads it
    for _ in range(2):
        got = [modules.verify_splitting(48)] + [modules.verify_bo_sequence(j) for j in (1, 2, 3)]
        assert got == expected
    assert modules._bo_poincare.cache_info().currsize == 8  # bo(0) .. bo(7)


def test_reports_match_when_threads_share_the_memo():
    expected = [modules.verify_splitting(48)] + [modules.verify_bo_sequence(j) for j in (1, 2, 3)]
    modules._bo_poincare.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(modules.verify_splitting, 48)] + [
                pool.submit(modules.verify_bo_sequence, j) for j in (1, 2, 3)
            ]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_splitting_through_48():
    report = modules.verify_splitting(48)
    assert report.ok, report


def test_bo_sequences():
    for j in (1, 2, 3):
        report = modules.verify_bo_sequence(j)
        assert report.ok, report


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 6))
def test_bo_dimension_matches_weight_count(i):
    """bo_i dimension equals the count of A//A(1)* monomials of weight <= 4i.

    Independent count: monomials xi1^(4a) xi2^(2b) xi3^c xi4^d ... with
    wt(xi_k) = 2^(k-1); the weight cap alone bounds the enumeration.
    """
    from itertools import product as iproduct

    cap = 4 * i
    ranges = []
    for k in range(1, cap.bit_length() + 2):
        step = 4 if k == 1 else 2 if k == 2 else 1
        unit_weight = milnor.xi_weight(k)
        hi = cap // (step * unit_weight) * step if step * unit_weight <= cap else 0
        ranges.append(range(0, hi + 1, step))
    count = sum(
        1
        for exps in iproduct(*ranges)
        if sum(e * milnor.xi_weight(k + 1) for k, e in enumerate(exps)) <= cap
    )
    assert modules.bo(i).dimension == count


def test_action_matrix_lowers_degree():
    """Action matrices map degree d to degree d - |a| (homology grading)."""
    bo1 = modules.bo(1)
    m = bo1.monomial_action_matrix((1,), 7)  # Sq(1) on the degree-7 line
    assert m.cols == bo1.dimension_in(7)
    assert m.rows == bo1.dimension_in(6)
