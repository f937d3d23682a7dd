"""Campaign orchestration: determinism, replay, exhaustive scans."""

import gc
import itertools
import json

import pytest

from cb_lab import (
    CampaignSpec,
    FieldSpec,
    GenSpec,
    Matroid,
    PointSet,
    campaign,
    counterexample_search,
    exhaustive_lower_bound,
    gen_rnc,
    generate,
    is_cb,
    replay_record,
    run_campaign,
    span,
)
from cb_lab.cli import main
from cb_lab.cover import CoverResult
from cb_lab.errors import BudgetExceededError, FieldTooSmallError
from cb_lab.projective import enumerate_points

from helpers import record_cover_flats


def _strip_json(report):
    return json.dumps(report.to_json(include_timings=False), sort_keys=True)


def test_conjecture_campaign_small(gf101):
    spec = CampaignSpec(
        target="conjecture", d_values=(2,), r_values=(1, 2, 3),
        field=gf101, trials=9, seed=5,
    )
    report = run_campaign(spec)
    assert len(report.records) == spec.trials
    assert report.violations == []
    assert all(rec["cb"] for rec in report.records if rec["status"] == "ok")
    assert all(rec["cover_found"] for rec in report.records if rec["status"] == "ok")


def test_campaign_determinism(gf101):
    spec = CampaignSpec(
        target="conjecture", d_values=(2,), r_values=(2, 3),
        field=gf101, trials=6, seed=11,
    )
    assert _strip_json(run_campaign(spec)) == _strip_json(run_campaign(spec))


def test_campaign_replayability(gf101):
    spec = CampaignSpec(
        target="conjecture", d_values=(2,), r_values=(3,),
        field=gf101, trials=4, seed=3,
    )
    report = run_campaign(spec)
    for rec in report.records:
        if rec["status"] != "ok":
            continue
        out = replay_record(rec)
        assert out["matches"]
        assert out["cb"] == rec["cb"]


def test_violation_record_self_contained(gf101):
    # a hand-made violation-style record: points plus recorded verdicts
    gamma = gen_rnc(3, 8, gf101, seed=2)  # CB(2), no dim-2 cover
    record = {"points": gamma.to_json(), "r": 2, "d": 2, "cb": True, "cover_found": False}
    out = replay_record(record)
    assert out["matches"] and out["cb"] and not out["cover_found"]


def test_tightness_campaign(gf101):
    spec = CampaignSpec(
        target="tightness", d_values=(1, 2), r_values=(2,),
        field=gf101, trials=4, seed=7,
    )
    report = run_campaign(spec)
    assert report.violations == []
    for rec in report.records:
        assert rec["cb"] and not rec["cover_found"]


def test_tightness_records_tiny_fields_per_trial():
    # m = (d+1)r + 2 points on a rational normal curve need m <= p + 1: over
    # GF(2) no trial fits, over GF(3) only d = r = 1 (m = 4) does
    report = run_campaign(CampaignSpec("tightness", (2,), (2,), FieldSpec.prime(2), 4, 3))
    assert len(report.records) == 4 and report.violations == []
    for rec in report.records:
        assert rec["status"] == "field_too_small" and rec["violation"] is False
        assert rec["size"] == 8 and rec["genspec"]["params"] == {"k": 3, "m": 8}
        assert "cb" not in rec
    json.dumps(report.to_json())
    report = run_campaign(CampaignSpec("tightness", (1, 2), (1,), FieldSpec.prime(3), 4, 3))
    statuses = {(rec["d"], rec["status"]) for rec in report.records}
    assert statuses == {(1, "ok"), (2, "field_too_small")}
    assert report.summary["ok_records"] == 2


def test_excision_campaign(gf101):
    spec = CampaignSpec(
        target="excision", d_values=(2,), r_values=(2, 3, 4),
        field=gf101, trials=20, seed=13,
    )
    report = run_campaign(spec)
    assert report.violations == []
    done = [r for r in report.records if r["status"] == "ok"]
    assert len(done) >= 15
    assert all(r["survivors_cb"] for r in done)


def test_balancing_campaign(gf101):
    spec = CampaignSpec(
        target="balancing", d_values=(2, 3), r_values=(2, 3),
        field=gf101, trials=10, seed=17,
    )
    report = run_campaign(spec)
    assert report.violations == []


def test_mcb_campaign(gf101):
    spec = CampaignSpec(
        target="mcb_analog", d_values=(2,), r_values=(2, 3),
        field=gf101, trials=8, seed=19,
    )
    report = run_campaign(spec)
    assert report.violations == []
    done = [r for r in report.records if r["status"] == "ok"]
    assert all(r["mcb"] and r["flat_cover_found"] for r in done)
    assert all(r["size"] <= 12 for r in done)


@pytest.mark.parametrize("field", [FieldSpec.prime(101), FieldSpec.rational()],
                         ids=["gf101", "q"])
def test_mcb_trial_builds_candidate_flats_once(field, monkeypatch):
    # The matroid's lattice and min_cover read one growth of the candidate
    # levels per trial.
    import cb_lab.cover
    import cb_lab.matroid

    calls = []
    grow = cb_lab.cover._grow
    counted = lambda *args: calls.append(args) or grow(*args)  # noqa: E731
    monkeypatch.setattr(cb_lab.cover, "_grow", counted)
    monkeypatch.setattr(cb_lab.matroid, "_grow", counted)
    checked = 0
    for seed in range(8):
        calls.clear()
        spec = CampaignSpec("mcb_analog", (2,), (3,), field, trials=1, seed=seed)
        rec = run_campaign(spec).records[0]
        if rec["status"] != "ok":
            continue
        gamma, _cfg = generate(GenSpec.from_json(rec["genspec"]))
        spanned = Matroid.from_points(gamma).full_rank >= 3
        assert len(calls) == spanned
        checked += spanned
    assert checked >= 4


def test_mcb_trial_over_q_builds_flats_only_for_chosen_planes(monkeypatch):
    # The lattice and the cover search read candidate masks and dimensions
    # only: a Flat is built for each chosen plane other than span(gamma).
    built = record_cover_flats(monkeypatch)
    checked = 0
    for seed in range(8):
        built.clear()
        spec = CampaignSpec("mcb_analog", (2,), (3,), FieldSpec.rational(), trials=1, seed=seed)
        rec = run_campaign(spec).records[0]
        if rec["status"] != "ok":
            continue
        gamma, _cfg = generate(GenSpec.from_json(rec["genspec"]))
        top = span(list(gamma)).dim
        assert sorted(f.dim for f in built) == sorted(d for d in rec["cover_dims"] if d != top)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("field", [FieldSpec.prime(101), FieldSpec.rational()],
                         ids=["gf101", "q"])
def test_one_trial_campaigns_leave_no_reference_cycles(field):
    # Everything a campaign allocates is freed by reference counting alone:
    # the cyclic collector finds nothing once the campaigns have run.
    gc.collect()
    gc.disable()
    try:
        for target in campaign._TRIALS:
            for d, r in ((1, 2), (2, 3)):
                run_campaign(CampaignSpec(target, (d,), (r,), field, trials=1, seed=d))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gf2_campaigns_draw_only_runnable_families():
    # over GF(2) no smooth conic exists and P^2 has 7 points, too few for a
    # cubic pencil's 8 base points: r = 2 keeps only (1, 4), whose line is
    # too short, and r = 3 keeps nothing
    gf2 = FieldSpec.prime(2)
    report = run_campaign(CampaignSpec("conjecture", (2,), (2,), gf2, trials=6, seed=1))
    assert len(report.records) == 6 and report.violations == []
    with pytest.raises(ValueError, match="no generator family fits"):
        run_campaign(CampaignSpec("conjecture", (2,), (3,), gf2, trials=6, seed=1))


@pytest.mark.parametrize("p", [3, 5])
def test_conic_draws_too_big_for_the_field_are_discarded(p, monkeypatch):
    # (d, r) = (5, 3) admits two_plane_conics, 8 points per conic, but a conic
    # over GF(3) or GF(5) has only p + 1 points: those draws are discarded
    # instead of aborting the campaign
    too_small = []

    def counted(spec):
        try:
            return generate(spec)
        except FieldTooSmallError:
            too_small.append(spec.family)
            raise

    monkeypatch.setattr(campaign, "generate", counted)
    report = run_campaign(CampaignSpec("conjecture", (5,), (3,), FieldSpec.prime(p), 40, 1))
    assert len(report.records) == 40 and report.violations == []
    assert too_small and set(too_small) == {"two_plane_conics"}
    assert report.summary["discarded_draws"] >= len(too_small)
    argv = ["verify-conjecture", "--d", "5", "--r", "3", "--field", str(p),
            "--trials", "40", "--seed", "1"]
    assert main(argv) == 0


@pytest.mark.parametrize("d, searches", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_conjecture_trial_repeats_no_search(gf101, d, searches, monkeypatch):
    # For d <= 2 the length-2 search is the length-d one: one search, not two.
    gamma = gen_rnc(2, 5, gf101, seed=1)
    calls = []

    def not_found(gamma, d, max_length, node_budget=None):
        calls.append((d, max_length))
        return CoverResult(False, None, 0, 0, 1, True)

    monkeypatch.setattr(campaign, "_draw_trial_set", lambda rec, rng, field: gamma)
    monkeypatch.setattr(campaign, "exists_cover", not_found)
    rec = {"d": d, "r": 2}
    assert campaign._conjecture_trial(rec, None, gf101, 10) is gamma
    assert len(calls) == searches and calls[0] == (d, min(2, d))
    assert rec["violation"] and not rec["cover_found"] and not rec["cover_length_le_2"]


def test_exhaustive_lower_bound_p1_gf5():
    gf5 = FieldSpec.prime(5)
    report = exhaustive_lower_bound(gf5, 1, 1)
    # P^1(GF(5)) has 6 points: 6 singletons + 15 pairs
    assert sum(r["subsets"] for r in report.records) == 21
    assert report.violations == []


def test_exhaustive_lower_bound_r0_vacuous():
    gf3 = FieldSpec.prime(3)
    report = exhaustive_lower_bound(gf3, 2, 0)
    assert report.records == [] and report.violations == []


def test_counterexample_search_vacuous():
    gf2 = FieldSpec.prime(2)
    report = counterexample_search(gf2, 3, 2, 2, size_cap=0)
    assert report.records == [] and report.violations == []


def test_negative_scan_bounds_are_rejected():
    # size_cap = 0 and r = 0 scan nothing on purpose; below 0 is an input error.
    gf2 = FieldSpec.prime(2)
    with pytest.raises(ValueError, match="size_cap"):
        counterexample_search(gf2, 2, 1, 1, size_cap=-1)
    with pytest.raises(ValueError, match="r must be"):
        exhaustive_lower_bound(gf2, 2, -1)


def test_counterexample_search_at_d0_finds_the_lines_of_the_plane():
    # at d = 0 every nonempty CB(r) subset is a violation: over GF(2) the
    # CB(1) sets of at most 3 points are the 7 lines of P^2
    gf2 = FieldSpec.prime(2)
    report = counterexample_search(gf2, 2, 1, 0, size_cap=3)
    assert [(rec["size"], rec["cb_true"]) for rec in report.records] == [(1, 0), (2, 0), (3, 7)]
    assert len(report.violations) == 7
    for v in report.violations:
        gamma = PointSet.from_json(v["points"])
        assert v["d"] == 0 and len(gamma) == 3 and span(list(gamma)).dim == 1
        assert v["caveat"] == campaign.SMALL_FIELD_CAVEAT
        out = replay_record({**v, "cb": True, "cover_found": False})
        assert out["matches"] and out["cb"] and out["cover_found"] is False
    assert len({json.dumps(v["points"], sort_keys=True) for v in report.violations}) == 7


@pytest.mark.parametrize("p, n, r, cap", [(2, 2, 1, 7), (2, 2, 2, 7), (3, 1, 1, 4),
                                          (3, 1, 2, 4), (5, 1, 3, 6)])
def test_scan_counts_match_is_cb_over_every_subset(p, n, r, cap):
    # the scan slices one column matrix per subset; is_cb builds each
    # subset's matrix afresh, so the counts per size must agree
    field = FieldSpec.prime(p)
    pts = enumerate_points(field, n)
    report = counterexample_search(field, n, r, n, size_cap=cap)
    want = []
    for size in range(1, cap + 1):
        subsets = list(itertools.combinations(pts, size))
        cb_true = sum(is_cb(PointSet(field, n, sub), r).verdict for sub in subsets)
        want.append((size, len(subsets), cb_true))
    assert [(rec["size"], rec["subsets"], rec["cb_true"]) for rec in report.records] == want
    assert any(c for _, _, c in want) and any(c < s for _, s, c in want)


@pytest.mark.parametrize("p, n, r", [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2),
                                     (3, 2, 1), (3, 2, 2)])
def test_lower_bound_is_the_d0_counterexample_search(p, n, r):
    field = FieldSpec.prime(p)
    scan = counterexample_search(field, n, r, 0, size_cap=r + 1)
    lower = exhaustive_lower_bound(field, n, r)
    assert scan.violations == [] and lower.violations == []
    assert [{**rec, "elapsed_s": 0, "source": None} for rec in lower.records] == [
        {**rec, "elapsed_s": 0, "source": None} for rec in scan.records]
    assert all("source" not in rec for rec in lower.records)
    assert lower.spec.to_json() == {
        "target": "lower_bound_exhaustive", "d_values": [0], "r_values": [r],
        "field": field.to_json(), "trials": r + 1, "seed": 0, "ambient": n,
    }


def test_tightness_campaign_at_d0(gf101):
    # m = r + 2 points on a line: CB(r), and no 0-dimensional cover
    report = run_campaign(CampaignSpec("tightness", (0,), (1, 2), gf101, 4, 1))
    assert report.violations == [] and report.summary["ok_records"] == 4
    for rec in report.records:
        assert rec["cb"] and not rec["cover_found"] and rec["proof_of_minimality"]
        out = replay_record(rec)
        assert out["matches"] and out["cover_found"] is False


def test_negative_d_is_rejected():
    gf2 = FieldSpec.prime(2)
    with pytest.raises(ValueError, match="d must be >= 0, got -1"):
        counterexample_search(gf2, 2, 1, -1, size_cap=0)


@pytest.mark.parametrize("bad", [
    {"seed": 1.5}, {"trials": True}, {"d_values": ("2",)}, {"r_values": (1, 2.0)},
    {"node_budget": 1.5}, {"ambient": "2"}, {"size_cap": False},
], ids=lambda bad: next(iter(bad)))
def test_campaign_spec_rejects_non_integers(gf101, bad):
    args = dict(target="conjecture", d_values=(2,), r_values=(1,), field=gf101,
                trials=3, seed=1)
    with pytest.raises(ValueError, match=f"CampaignSpec {next(iter(bad))}"):
        CampaignSpec(**{**args, **bad})
    obj = CampaignSpec(**args).to_json()
    with pytest.raises(ValueError, match=f"CampaignSpec {next(iter(bad))}"):
        CampaignSpec.from_json({**obj, **bad})


@pytest.mark.parametrize("drop", ["target", "d_values", "field", "trials", "seed"])
def test_campaign_spec_json_missing_key(gf101, drop):
    obj = CampaignSpec("conjecture", (2,), (1,), gf101, 3, 1).to_json()
    del obj[drop]
    with pytest.raises(ValueError, match="malformed CampaignSpec JSON: KeyError"):
        CampaignSpec.from_json(obj)


@pytest.mark.parametrize("name", ["d_values", "r_values"])
def test_campaign_spec_rejects_scalar_range(gf101, name):
    args = dict(target="conjecture", d_values=(2,), r_values=(1,), field=gf101,
                trials=3, seed=1)
    with pytest.raises(ValueError, match=f"CampaignSpec {name} must hold ints, got 2"):
        CampaignSpec(**{**args, name: 2})


def test_campaign_spec_json_scalar_range(gf101):
    obj = {**CampaignSpec("conjecture", (2,), (1,), gf101, 3, 1).to_json(), "d_values": 2}
    with pytest.raises(ValueError, match="malformed CampaignSpec JSON: TypeError"):
        CampaignSpec.from_json(obj)


def test_budget_exceeded_recorded_not_raised(gf101):
    spec = CampaignSpec(
        target="conjecture", d_values=(2,), r_values=(3,),
        field=gf101, trials=3, seed=23, node_budget=1,
    )
    report = run_campaign(spec)
    assert len(report.records) == 3
    assert all(r["status"] in ("ok", "budget_exceeded", "no_cb_sample")
               for r in report.records)
    assert any(r["status"] == "budget_exceeded" for r in report.records)


def test_node_budget_zero_is_a_budget_not_the_default(gf101):
    # a node budget of 0 admits no search node; it is not read as "unset"
    spec = CampaignSpec("conjecture", (2,), (2,), gf101, 2, 1, node_budget=0)
    report = run_campaign(spec)
    assert [r["status"] for r in report.records] == ["budget_exceeded"] * 2
    assert report.spec.to_json()["node_budget"] == 0
    gf2 = FieldSpec.prime(2)
    with pytest.raises(BudgetExceededError):
        counterexample_search(gf2, 2, 1, 1, size_cap=3, node_budget=0)


def test_report_json_shape(gf101):
    spec = CampaignSpec(
        target="conjecture", d_values=(1,), r_values=(1,),
        field=gf101, trials=2, seed=29,
    )
    report = run_campaign(spec)
    obj = report.to_json()
    assert set(obj) == {"spec", "records", "summary", "violations"}
    assert obj["spec"]["target"] == "conjecture"
    assert "total_s" in obj["summary"]
    lean = report.to_json(include_timings=False)
    assert "total_s" not in lean["summary"]
    assert all("elapsed_s" not in r for r in lean["records"])
    back = CampaignSpec.from_json(obj["spec"])
    assert back == spec
