"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (run pytest -s to see them); a failed
assertion is the fail line.  Runtime limits are asserted where stated.
"""

import json
import random
import time

from cb_lab import (
    CampaignSpec,
    FieldSpec,
    candidate_flats,
    counterexample_search,
    exhaustive_lower_bound,
    exists_cover,
    gen_elliptic_quartic,
    gen_plane_curve_ci,
    gen_rnc,
    gen_two_plane_conics,
    gen_skew_lines,
    is_cb,
    min_cover,
    run_campaign,
    span,
    verify_cover,
)
from cb_lab.campaign import _draw_trial_set

from helpers import cover_oracle, random_point_set

GF101 = FieldSpec.prime(101)


def _ok(n, msg):
    print(f"criterion {n:2d} PASS: {msg}")


def test_criterion_01_classical_cayley_bacharach():
    cases = (((3, 3), 3), ((2, 2), 1), ((2, 3), 2))
    for (a, b), r in cases:
        for seed in range(10):
            t0 = time.perf_counter()
            gamma = gen_plane_curve_ci(a, b, GF101, seed=seed)
            rep = is_cb(gamma, r)
            elapsed = time.perf_counter() - t0
            assert len(gamma) == a * b
            assert rep.verdict, ((a, b), seed)
            assert elapsed < 1.0, ((a, b), seed, elapsed)
    _ok(1, "plane-curve intersections are CB(d+e-3), 30/30 seeds, each < 1 s")


def test_criterion_02_tightness():
    t0 = time.perf_counter()
    for d, r in ((1, 2), (2, 2), (2, 3)):
        m = (d + 1) * r + 2
        gamma = gen_rnc(d + 1, m, GF101, seed=42 + d + r)
        assert is_cb(gamma, r).verdict, (d, r)
        res = exists_cover(gamma, d, d)
        assert not res.found and res.proof_of_minimality, (d, r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(2, f"(d+1)r+2 points on rational normal curves are CB(r) with no "
           f"dim-d cover ({elapsed:.2f}s)")


def test_criterion_03_two_skew_lines():
    t0 = time.perf_counter()
    gamma, cfg = gen_skew_lines(2, (5, 5), GF101, seed=3)
    assert is_cb(gamma, 3).verdict
    mc = min_cover(gamma)
    assert (mc.dim, mc.length) == (2, 2)
    single = exists_cover(gamma, 2, 1)
    assert not single.found and single.proof_of_minimality
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(3, f"10 points on two skew lines: CB(3), min cover (2,2), no single "
           f"plane ({elapsed:.2f}s)")


def test_criterion_04_two_plane_conics():
    cb_true = 0
    for seed in range(20):
        gamma, _cfg = gen_two_plane_conics(8, GF101, seed=seed)
        assert len(gamma) == 16
        if is_cb(gamma, 3).verdict:
            cb_true += 1
            mc = min_cover(gamma)
            assert (mc.dim, mc.length) == (4, 2), seed
    assert cb_true >= 18  # >= 90% of 20 seeds
    _ok(4, f"two 2-planes with conics: CB(3) on {cb_true}/20 seeds, min cover "
           f"always (4,2)")


def test_criterion_05_elliptic_quartic():
    cb_true = 0
    for seed in range(20):
        gamma = gen_elliptic_quartic(9, GF101, seed=seed)
        if is_cb(gamma, 2).verdict:
            cb_true += 1
            res = exists_cover(gamma, 2, 2)
            assert not res.found and res.proof_of_minimality, seed
    assert cb_true >= 16  # >= 80% of 20 seeds
    _ok(5, f"9 elliptic-quartic points: CB(2) on {cb_true}/20 seeds, never on "
           f"a dim-2 configuration")


def test_criterion_06_basic_lower_bound_exhaustive():
    t0 = time.perf_counter()
    gf3 = FieldSpec.prime(3)
    expected_counts = {1: 91, 2: 377}  # 13 points: C(13,1..2), C(13,1..3)
    total = 0
    for r in (1, 2):
        report = exhaustive_lower_bound(gf3, 2, r)
        assert report.violations == []
        subsets = sum(rec["subsets"] for rec in report.records)
        assert subsets == expected_counts[r]
        total += subsets
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(6, f"P^2(GF(3)): {total} subsets of size <= r+1, none CB(r) "
           f"({elapsed:.2f}s)")


def test_criterion_07_excision_fuzz():
    spec = CampaignSpec(
        target="excision", d_values=(1, 2, 3), r_values=(2, 3, 4),
        field=GF101, trials=200, seed=1007,
    )
    report = run_campaign(spec)
    assert len(report.records) == 200
    assert report.violations == []
    done = sum(1 for r in report.records if r["status"] == "ok")
    assert done >= 190
    _ok(7, f"excision fuzz: {done}/200 configurations excised, 0 violations")


def test_criterion_08_monotonicity_fuzz():
    rng = random.Random(808)
    combos = [(d, r) for d in (1, 2, 3) for r in (2, 3, 4)]
    checked = 0
    while checked < 200:
        d, r = combos[checked % len(combos)]
        gamma = _draw_trial_set({"d": d, "r": r}, rng, GF101)
        assert gamma is not None
        assert is_cb(gamma, r - 1).verdict, (d, r)
        checked += 1
    _ok(8, "monotonicity: 200/200 CB(r) draws are CB(r-1)")


def test_criterion_09_conjecture_campaign():
    t0 = time.perf_counter()
    cases = (
        ((1,), (1, 2, 3, 4)),
        ((2,), (1, 2, 3, 4)),
        ((3,), (1, 2, 3)),
        ((4,), (3,)),
    )
    for d_values, r_values in cases:
        spec = CampaignSpec(
            target="conjecture", d_values=d_values, r_values=r_values,
            field=GF101, trials=50, seed=2024,
        )
        report = run_campaign(spec)
        assert report.violations == []
        ok = [r for r in report.records if r["status"] == "ok"]
        assert len(ok) == 50, (d_values, len(ok))
        assert all(r["cover_found"] for r in ok)
        # Theorem range: all four cases admit covers of length <= 2.
        assert all(r["cover_length_le_2"] for r in ok), d_values
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(9, f"conjecture campaign: 200 CB-true trials covered, all with "
           f"length <= 2 ({elapsed:.1f}s)")


def test_criterion_10_d_lines_length_bound():
    spec = CampaignSpec(
        target="balancing", d_values=(3,), r_values=(2, 3, 4),
        field=GF101, trials=30, seed=3030,
    )
    report = run_campaign(spec)
    assert report.violations == []  # balancing dichotomy holds on every cover
    ok = [r for r in report.records if r["status"] == "ok"]
    assert len(ok) >= 28
    assert all(r["skew_length"] <= 2 for r in ok)  # length <= d-1 = 2
    _ok(10, f"d=3, r in 2..4: {len(ok)} minimal skew covers, all length <= 2, "
            f"balancing dichotomy holds")


def test_criterion_11_matroid_consistency():
    spec = CampaignSpec(
        target="mcb_analog", d_values=(1, 2, 3), r_values=(1, 2, 3),
        field=GF101, trials=50, seed=1111,
    )
    report = run_campaign(spec)
    assert len(report.records) == 50
    assert report.violations == []
    ok = [r for r in report.records if r["status"] == "ok"]
    assert len(ok) == 50
    assert all(r["size"] <= 12 for r in ok)
    assert all(r["mcb"] for r in ok)
    assert all(r["flat_cover_found"] for r in ok)
    _ok(11, "matroid consistency: 50/50 CB sets are MCB with matching flat covers")


def test_criterion_12_cover_oracle_equivalence():
    rng = random.Random(1212)
    queried = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3))
    for trial in range(100):
        n = rng.randint(2, 3)
        count = rng.randint(2, 10)
        gamma = random_point_set(GF101, n, count, rng)
        cands = candidate_flats(gamma, min(3, n))
        for d, ml in queried:
            got = exists_cover(gamma, d, ml)
            expect = cover_oracle(gamma, cands, d, ml) or (span(list(gamma)).dim <= d)
            assert got.found == expect, (trial, d, ml)
            if got.found:
                assert verify_cover(gamma, got.config)
    _ok(12, "cover search agrees with the brute-force oracle on 100 sets x 5 queries")


def test_criterion_13_counterexample_search():
    t0 = time.perf_counter()
    gf2 = FieldSpec.prime(2)
    report = counterexample_search(gf2, 3, 2, 2, size_cap=7)
    elapsed = time.perf_counter() - t0
    total = sum(r["subsets"] for r in report.records)
    assert total == 16383  # sum of C(15, k) for k = 1..7
    assert report.violations == []
    assert elapsed < 300.0
    _ok(13, f"P^3(GF(2)) r=2 d=2: {total} subsets scanned, 0 violations "
            f"({elapsed:.1f}s)")


def test_criterion_14_determinism():
    spec = CampaignSpec(
        target="conjecture", d_values=(2,), r_values=(2, 3),
        field=GF101, trials=10, seed=1414,
    )
    a = run_campaign(spec).to_json(include_timings=False)
    b = run_campaign(spec).to_json(include_timings=False)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    gf2 = FieldSpec.prime(2)
    c = counterexample_search(gf2, 3, 2, 2, size_cap=3).to_json(include_timings=False)
    d = counterexample_search(gf2, 3, 2, 2, size_cap=3).to_json(include_timings=False)
    assert json.dumps(c, sort_keys=True) == json.dumps(d, sort_keys=True)
    g1 = gen_two_plane_conics(8, GF101, seed=7)[0].to_json()
    g2 = gen_two_plane_conics(8, GF101, seed=7)[0].to_json()
    assert json.dumps(g1, sort_keys=True) == json.dumps(g2, sort_keys=True)
    _ok(14, "repeated runs produce byte-identical reports (timings excluded)")
