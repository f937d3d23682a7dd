"""Campaign orchestration: determinism, replay, exhaustive scans."""

import json

import pytest

from cb_lab import (
    CampaignSpec,
    FieldSpec,
    counterexample_search,
    exhaustive_lower_bound,
    gen_rnc,
    replay_record,
    run_campaign,
)


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


def test_gf2_campaigns_draw_only_runnable_families():
    # over GF(2) no smooth conic exists and P^2 has 7 points, too few for a
    # cubic pencil's 8 base points: r = 2 keeps only (1, 4), whose line is
    # too short, and r = 3 keeps nothing
    gf2 = FieldSpec.prime(2)
    report = run_campaign(CampaignSpec("conjecture", (2,), (2,), gf2, trials=6, seed=1))
    assert len(report.records) == 6 and report.violations == []
    with pytest.raises(ValueError, match="no generator family fits"):
        run_campaign(CampaignSpec("conjecture", (2,), (3,), gf2, trials=6, seed=1))


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


def test_counterexample_search_finds_injected_witnesses(gf101):
    # rnc sets one past the size bound: CB(r) with no dimension-d cover
    witnesses = [
        gen_rnc(2, 6, gf101, seed=1),   # (d, r) = (1, 2), 6 = 2r + 2
        gen_rnc(2, 6, gf101, seed=2),
    ]
    report = counterexample_search(gf101, 2, 2, 1, size_cap=0, injected=witnesses)
    assert len(report.violations) == len(witnesses)
    assert all(v["caveat"] for v in report.violations)
    for v in report.violations:
        out = replay_record({**v, "cb": True, "cover_found": False})
        assert out["matches"]


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
