"""Acceptance gate: the eleven headline checks, one pass/fail line each.

Each test recomputes its facts from scratch (the session fixtures share the
two deep resolutions) and prints a single PASS/FAIL line outside pytest's
capture so the gate reads as a checklist on any run.  Expected values that
cannot be read off definitions were frozen from independent routes in
tests/goldens/.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from dense import to_dense

from extforge import bgpoly, charts, cli, cobar, milnor, modules
from extforge import resolution as R
from test_resolution import _permute_module_in_degree


@pytest.fixture
def report(capsys):
    def _report(n: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion-{n:02d}: {detail}", flush=True)

    return _report


# ----- 1: two independent computations of the same groups -----


def test_criterion_01_oracle_equivalence(report):
    t0 = time.monotonic()
    mismatches = []
    for alg_name, algebra in (("A1", milnor.A1), ("A2", milnor.A2)):
        res = R.minimal_resolution(algebra, 8, 20)
        for coeff_name, M in (("trivial", None), ("bo1", modules.bo(1, algebra))):
            chart = (
                R.ext_f2(res, install_products=())
                if M is None
                else R.ext_module(res, M, with_reps=False)
            )
            engine = {
                (s, t): d
                for (s, t), d in chart.dims.items()
                if s <= 6 and t - s <= 12 and d
            }
            oracle = cobar.cotor(algebra, M, max_s=6, max_stem=12)
            if engine != oracle:
                diff = sorted(set(engine.items()) ^ set(oracle.items()))
                mismatches.append((alg_name, coeff_name, diff[:4]))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 60.0
    report(
        1,
        ok,
        f"resolution and cobar dims agree for A1/A2 x trivial/bo1 on s<=6, "
        f"stem<=12 ({elapsed:.1f}s < 60s)"
        if ok
        else f"mismatches={mismatches}, elapsed={elapsed:.1f}s",
    )
    assert not mismatches
    assert elapsed < 60.0


# ----- 2: the degree-1 layer and h0 structure of the A(2) chart -----


def _h0_ladder_report(chart, max_stem=30):
    """Walk every class's h0-ladder inside the computed window.

    A ladder is decided once it hits zero; ladders that reach the window
    edge still nonzero stay undecided (towers cannot die in a finite view).
    """
    h0 = chart.products["h0"]
    checked = undecided = 0
    violations = []
    for (s, t), d in sorted(chart.dims.items()):
        stem = t - s
        if stem <= 0 or stem > max_stem:
            continue
        for idx in range(d):
            cur = np.zeros(d, dtype=np.uint8)
            cur[idx] = 1
            ss, tt, steps = s, t, 0
            died_at = None
            while True:
                m = h0.get((ss, tt))
                if m is None:
                    break
                nxt = (to_dense(m) @ cur) & 1
                steps += 1
                if not nxt.any():
                    died_at = steps
                    break
                cur = nxt.astype(np.uint8)
                ss, tt = ss + 1, tt + 1
            if died_at is None:
                undecided += 1
            else:
                checked += 1
                if died_at > 3:
                    violations.append((s, t, idx, died_at))
    return checked, undecided, violations


def test_criterion_02_a2_level_one_and_h0_structure(res_a2, sphere_a2, report):
    level1 = sorted(g.t for g in res_a2.gens[1])
    towers = all(sphere_a2.dim(s, s) == 1 for s in range(31))
    checked, undecided, violations = _h0_ladder_report(sphere_a2)
    # 68 ladders resolve inside the window; 166 reach the top edge still
    # nonzero (the stem-0 tower relatives and the wedge families).
    ok = (
        level1 == [1, 2, 4]
        and towers
        and violations == []
        and (checked, undecided) == (68, 166)
    )
    report(
        2,
        ok,
        f"level-1 degrees {level1}, h0-tower at every (s,s) s<=30, "
        f"{checked} decided h0-ladders all die by h0^3 ({undecided} run off the window)",
    )
    assert level1 == [1, 2, 4]
    assert towers
    assert violations == []
    assert (checked, undecided) == (68, 166)


# ----- 3: cell data of the two cones and their tensor square -----


def test_criterion_03_cone_cells_and_tensor_square(h8, h8v_deep, report):
    X, _sel = h8v_deep
    h8_cells = [(c.stem, c.filt) for c in h8.cells]
    h8v_cells = [(c.stem, c.filt) for c in X.cells]
    square = sorted(set(R.cells_of_tensor(X, X)))
    expected_square = [
        (0, 0), (1, 2), (2, 4), (17, 7), (18, 9), (19, 11),
        (34, 14), (35, 16), (36, 18),
    ]
    ok = (
        h8_cells == [(0, 0), (1, 2)]
        and h8v_cells == [(0, 0), (1, 2), (17, 7), (18, 9)]
        and len(R.cells_of_tensor(X, X)) == 16
        and square == expected_square
    )
    report(
        3,
        ok,
        f"cells {h8_cells} and {h8v_cells}; tensor square occupies the "
        f"{len(square)} expected bidegrees",
    )
    assert h8_cells == [(0, 0), (1, 2)]
    assert h8v_cells == [(0, 0), (1, 2), (17, 7), (18, 9)]
    assert square == expected_square


# ----- 4: long-exact-sequence bookkeeping for the first cone -----


def test_criterion_04_les_consistency(res_a2, sphere_a2, h8_chart, report):
    theta = R.attaching_action(sphere_a2, 3, 3)
    les = R.les_consistency(sphere_a2, h8_chart, theta, 3, 3)
    in_range = [f for f in les.failures if f[1] - f[0] <= 60]
    ok = les.checked == 2790 and not les.failures
    report(
        4,
        ok,
        f"rank bookkeeping holds at all {les.checked} checked bidegrees "
        f"(stems through 60 and beyond)"
        if ok
        else f"failures={les.failures[:5]}",
    )
    assert not in_range
    assert not les.failures
    assert les.checked == 2790


# ----- 5: the (8,56) spot and the truncated-quotient vanishing claim -----


def test_criterion_05_high_spot_and_truncation_vanishing(res_a2, h8, h8_chart, report):
    spot = h8_chart.dim(8, 56)
    cache: dict = {}
    summands = {
        i: R.ext_dim_at(h8, modules.bo(i), 7, 56 - 8 * i, cache) for i in range(1, 8)
    }
    bo_total = sum(summands.values())
    direct = R.ext_dim_at(h8, modules.abar_truncation(50), 7, 56, cache)
    ok = spot == 1 and bo_total == 0 and direct == 0
    report(
        5,
        ok,
        f"dim at (8,56) = {spot} (want 1); truncated-quotient dim at (7,56) "
        f"= {bo_total} via the bo splitting and {direct} directly (want 0; "
        f"the nonzero class sits on the bo_2 summand at internal degree 40)",
    )
    assert spot == 1
    # Two independent routes agree on the computed value before the claim
    # itself is tested, so a failure below is a fact about the claim.
    assert bo_total == direct
    assert bo_total == 0


# ----- 6: the vanishing windows above the two product ladders -----


def test_criterion_06_window_vanishing_spots(res_a2_deep, h8v_deep, report):
    X, sel = h8v_deep
    assert list(sel.attach_coords) == [1]
    assert [list(p) for p in sel.chosen_seed] == [[3, 1]]
    assert (sel.candidate_dim, sel.ambiguity_dim) == (1, 0)

    bo1 = modules.bo(1)
    powers = {1: bo1}
    for k in range(2, 6):
        powers[k] = modules.tensor(powers[k - 1], bo1)
    cache: dict = {}
    spots = {}
    for name, (S, T) in {"nu2": (26, 146), "kappa": (26, 154)}.items():
        for k in range(1, 6):
            s, t = S + 1 - k, T - 8 * k
            spots[f"{name}_k{k}_s{s}_t{t}"] = R.ext_dim_at(X, powers[k], s, t, cache)
    fallback = {}
    for name, (S, T) in {"nu2": (10, 34), "kappa": (10, 42)}.items():
        for k in range(1, 4):
            s, t = S + 1 - k, T - 8 * k
            fallback[f"{name}_k{k}_s{s}_t{t}"] = R.ext_dim_at(X, powers[k], s, t, cache)

    control = spots.pop("kappa_k1_s26_t146")
    fb_control = fallback.pop("kappa_k1_s10_t34")
    zeros_ok = all(v == 0 for v in spots.values()) and all(
        v == 0 for v in fallback.values()
    )

    triv = modules.trivial(milnor.A2)
    top_chart = R.ext_cell(res_a2_deep, X, triv, "F2", max_s=27, with_reps=False)
    bo1_chart = R.ext_cell(res_a2_deep, X, bo1, "bo1", max_s=27, max_t=90, with_reps=False)
    c1 = R.vanishing_edge(bo1_chart, Fraction(1, 5), 0)
    cH = R.vanishing_edge(top_chart, Fraction(1, 5), 0)

    ok = (
        control == 1
        and fb_control == 1
        and zeros_ok
        and c1 == Fraction(33, 5)
        and cH == Fraction(34, 5)
    )
    report(
        6,
        ok,
        f"kappa k=1 control spots populated ({control}, {fb_control}); the other "
        f"{len(spots) + len(fallback)} ladder spots vanish; slope-1/5 edges "
        f"{c1} and {cH}",
    )
    assert control == 1
    assert fb_control == 1
    assert all(v == 0 for v in spots.values()), spots
    assert all(v == 0 for v in fallback.values()), fallback
    assert c1 == Fraction(33, 5)
    assert cH == Fraction(34, 5)


# ----- 7: the dyadic polynomial family -----


def test_criterion_07_bg_polynomials_and_lemma(report):
    f2, f3 = str(bgpoly.f(2)), str(bgpoly.f(3))
    bad = [i for i in range(1, 129) if not bgpoly.check_lemma(i).ok]
    ok = f2 == "t x + s t^2" and f3 == "t x^2" and not bad
    report(
        7,
        ok,
        f"f_2 = {f2}, f_3 = {f3}; dyadic lemma holds for all i <= 128"
        if ok
        else f"f_2={f2!r}, f_3={f3!r}, lemma failures at {bad[:6]}",
    )
    assert f2 == "t x + s t^2"
    assert f3 == "t x^2"
    assert not bad


# ----- 8: the module-level splitting and the four-term sequences -----


def test_criterion_08_splitting_and_bo_sequences(report):
    sp = modules.verify_splitting(48)
    seqs = {j: modules.verify_bo_sequence(j).ok for j in (1, 2, 3)}
    ok = sp.ok and sp.first_discrepancy is None and all(seqs.values())
    report(
        8,
        ok,
        f"quotient splits against the bo sum through degree {sp.max_degree}; "
        f"bo sequences exact for j=1,2,3"
        if ok
        else f"splitting={sp}, sequences={seqs}",
    )
    assert sp.ok
    assert sp.first_discrepancy is None
    assert all(seqs.values())


# ----- 9: the slope-1/7 vanishing filter -----


def test_criterion_09_a1_vanishing_filter(report):
    spot_ok = bgpoly.a1_vanishing_filter(112, 26)
    grid_ok = True
    for stem in range(0, 131):
        threshold = Fraction(stem + 51, 7)
        for s in range(0, 45):
            if bgpoly.a1_vanishing_filter(stem, s) != (s > threshold):
                grid_ok = False
    boundary_ok = not bgpoly.a1_vanishing_filter(19, 10) and bgpoly.a1_vanishing_filter(19, 11)
    ok = spot_ok and grid_ok and boundary_ok
    report(
        9,
        ok,
        "filter accepts (stem 112, s 26), matches s > (stem+51)/7 on the whole "
        "grid, and sits exactly on the (19,10) boundary",
    )
    assert spot_ok
    assert grid_ok
    assert boundary_ok


# ----- 10: the h0-ladder on the degree-16 class over the full algebra -----


def test_criterion_10_full_algebra_h0_h4_ladder(report):
    res = R.minimal_resolution(milnor.FULL, 11, 28)
    sphere = R.ext_f2(res)
    R.install_named_product(sphere, "h4")
    level1 = sorted(g.t for g in res.gens[1])
    h4 = R.chart_class(sphere, 1, 16, [1])
    h0 = R.chart_class(sphere, 1, 1, [1])
    cur = h4
    path = []
    for k in range(1, 9):
        cur = R.yoneda_product(h0, cur)
        path.append((k, cur.s, cur.t, bool(any(cur.coords))))
    ladder_ok = all(
        (s, t) == (k + 1, 16 + k) and alive == (k <= 7) for k, s, t, alive in path
    )
    ok = level1 == [1, 2, 4, 8, 16] and ladder_ok
    report(
        10,
        ok,
        f"level-1 degrees {level1}; h0^k h4 nonzero through k=7, zero at "
        f"k=8 (bidegree (9,24))"
        if ok
        else f"level1={level1}, path={path}",
    )
    assert level1 == [1, 2, 4, 8, 16]
    assert ladder_ok


# ----- 11: determinism under relabeling and parallelism -----


def test_criterion_11_determinism(res_a1, tmp_path, report):
    bo11 = modules.tensor(
        modules.bo(1, milnor.A1), modules.bo(1, milnor.A1)
    )
    permuted = _permute_module_in_degree(bo11, 11)
    a = R.ext_module(res_a1, bo11, "m", max_s=7, max_t=20, with_reps=False)
    b = R.ext_module(res_a1, permuted, "m", max_s=7, max_t=20, with_reps=False)
    relabel_ok = a.dims == b.dims and charts.render_tsv(a) == charts.render_tsv(b)

    base = [
        "ext", "bo:1 * bo:1", "--algebra", "A1", "--max-s", "5", "--max-stem", "10",
        "--cache-dir", str(tmp_path / "cache"), "--no-png",
    ]
    assert cli.main(base + ["--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    assert cli.main(base + ["--out", str(tmp_path / "j3"), "--jobs", "3"]) == 0
    name = "ext-bo-1-bo-1-A1-s5-t15.tsv"
    jobs_ok = (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j3" / name).read_bytes()

    ok = relabel_ok and jobs_ok
    report(
        11,
        ok,
        "chart TSV unchanged under basis relabeling and under --jobs 1 vs 3",
    )
    assert relabel_ok
    assert jobs_ok
