"""Golden digests: report bytes pinned across versions, not only between runs.

Each digest is the sha256 of ``report.dumps(include_timings=False)``.  The
campaign grid reaches what the benchmark grid does not: d = 3, budget-exceeded
records (node_budget=1) and the tightness violation record with its points
and caveat.  The exhaustive scans pin their per-size subset and cb_true counts.

A digest may be regenerated only by a change whose sole purpose is that, and
that change must say why in CHANGES.md.  ``python tests/test_golden.py``
prints the current digests.
"""

import hashlib

import pytest

from cb_lab import (
    CampaignSpec,
    FieldSpec,
    counterexample_search,
    exhaustive_lower_bound,
    run_campaign,
)

TARGETS = ("conjecture", "tightness", "excision", "balancing", "mcb_analog")
FIELDS = {"GF(101)": FieldSpec.prime(101), "Q": FieldSpec.rational()}
BUDGETS = (None, 1)

# Seven trials cycle (d, r) through (1,1) .. (2,3), (3,1); the cheap prefix of
# the full 3 x 3 grid, which still reaches d = 3 and the tightness violation.
CAMPAIGN_GOLDEN = {
    "conjecture GF(101) budget=None": "2b858c99ef0bb224af451727904d5a8c879eccfbb8eb8acb75f3d181575a1637",
    "conjecture GF(101) budget=1": "0c1e2625df1cf22b036941dec82235ec14e19890a7a9616a46a8d3e6140b2fd9",
    "conjecture Q budget=None": "7ec516f004d71bf4fed7c5ea413dad51325b73d1692910a5541f2bae1367a512",
    "conjecture Q budget=1": "8659239f5d3c57331c40b7c8afd2ef7a6b17a64db1773053acf790aa7349a100",
    "tightness GF(101) budget=None": "1961418aa71f9592836cea82a71266c626bfb4ff2c7427faf829434ea7076280",
    "tightness GF(101) budget=1": "69cca0add61476d84e4741747bb5f58b0460301309fbf0e4df406ddf62dafcfe",
    "tightness Q budget=None": "a979090aa9a4a6513fa801dd76f5eb9668cd7adf5a3df0fc29cea24d31a5830a",
    "tightness Q budget=1": "37b01e33e73e5771b03327e28df2393926150df32cece2a2ee519e51971dc488",
    "excision GF(101) budget=None": "4dc7afc868aa18eda40408fa371f39ba7134c55a4ec23e4b8ab53b4f314806da",
    "excision GF(101) budget=1": "dea5cedd4afff164131b5adaba56622f537357c3c79d406b1bdc6f2003015460",
    "excision Q budget=None": "77d6feb4c038f623df5c311946a03060da92fe13465f2af359c3f6e946079cfb",
    "excision Q budget=1": "a181fd95d4105c02281aa2ac3f79948b20b9391ba4c3fa0fb83ccfbb1b2305f7",
    "balancing GF(101) budget=None": "34298fba34b3bb2559155b61f527ca6c8776ef3fbd9d5f6f278efc6bdb8cc708",
    "balancing GF(101) budget=1": "c131067b5c2f4368bd74b052fc98a135475334acd4e04168f85866b5e2f9f053",
    "balancing Q budget=None": "5b074f326f970b2bf6fba716fadc8dd64272f3cb9255c9b596ca42558b7c76ec",
    "balancing Q budget=1": "dbab6f2298c690a473d425cabbc062c29b41ce4b9634dcdd75a81de786c87fe6",
    "mcb_analog GF(101) budget=None": "374718c538a09ff3019ab8c020d9f69d7f77515ac1d798e63c4cd1fac2e7cbfc",
    "mcb_analog GF(101) budget=1": "cddc93da0f6b5549bf4da06dd610f26c676b6ff1e751d0be170968a84ac36679",
    "mcb_analog Q budget=None": "14b1a57f1199203ad99bc960d407399be96af04796d2279b11228d3c2a1d8cee",
    "mcb_analog Q budget=1": "3263d30efa033e2f147b00c317f33ea3da6642fe842795926515ef8a9f7e00bd",
}

SCAN_GOLDEN = {
    "lower_bound GF(3) n=2 r=2": "df63a2a9ec60114a1f269c0b277b851685c0d8e07e3ba1bd7124817931e63d06",
    "counterexample GF(2) n=3 r=2 d=2 cap=4": "ca11966ef450dcc3026094c68b5fda8bfb55d0cf9ab451db1faa740859757afe",
}


def _digest(report) -> str:
    return hashlib.sha256(report.dumps(include_timings=False).encode()).hexdigest()


def _campaign(target, field_name, budget):
    return run_campaign(CampaignSpec(
        target=target, d_values=(1, 2, 3), r_values=(1, 2, 3),
        field=FIELDS[field_name], trials=7, seed=7, node_budget=budget,
    ))


def _scans():
    return {
        "lower_bound GF(3) n=2 r=2": exhaustive_lower_bound(FieldSpec.prime(3), 2, 2),
        "counterexample GF(2) n=3 r=2 d=2 cap=4": counterexample_search(
            FieldSpec.prime(2), 3, 2, 2, size_cap=4
        ),
    }


def _key(target, field_name, budget) -> str:
    return f"{target} {field_name} budget={budget}"


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("budget", BUDGETS)
def test_campaign_report_golden(target, field_name, budget):
    report = _campaign(target, field_name, budget)
    assert _digest(report) == CAMPAIGN_GOLDEN[_key(target, field_name, budget)]


def test_golden_grid_reaches_rare_records():
    tight = _campaign("tightness", "GF(101)", None)
    assert tight.violations and "caveat" in tight.violations[0]
    assert any(rec["d"] == 3 for rec in tight.records)
    capped = _campaign("conjecture", "Q", 1)
    assert any(rec["status"] == "budget_exceeded" for rec in capped.records)


def test_exhaustive_scan_golden():
    assert {name: _digest(rep) for name, rep in _scans().items()} == SCAN_GOLDEN


if __name__ == "__main__":
    for target in TARGETS:
        for field_name in FIELDS:
            for budget in BUDGETS:
                key = _key(target, field_name, budget)
                print(f'    "{key}": "{_digest(_campaign(target, field_name, budget))}",')
    for name, rep in _scans().items():
        print(f'    "{name}": "{_digest(rep)}",')
