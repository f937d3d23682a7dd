"""The four benchmark workloads: seeded items, canonical outputs and output checks.

Every item's seed is derived from the workload name, the workload seed and
the item's position, so the library only ever receives generated inputs.
Library calls go through attribute lookups on the ``cb_lab`` package at call
time, so a traced run sees the wrappers installed in that namespace.
"""

from __future__ import annotations

import hashlib
import json

import cb_lab as L
from cb_lab.errors import CbLabError

GF101 = L.FieldSpec.prime(101)
Q = L.FieldSpec.rational()

# Campaign grid: d stops at 2 so that the elliptic-quartic and two-plane-conic
# generators, which dominate whenever they are eligible, stay in the first two
# workloads.
TARGETS = ("conjecture", "tightness", "excision", "balancing", "mcb_analog")
D_VALUES = (1, 2)
R_VALUES = (1, 2, 3, 4)


def item_seed(*parts) -> int:
    """A 63-bit seed that depends only on the given parts."""
    h = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


class Failed:
    """An item whose public call raised a CbLabError (counted as failed)."""

    def __init__(self, error: CbLabError):
        self.error = type(error).__name__


class PointWorkload:
    """Items are one generated point set each, then a CB verdict and a cover query."""

    def __init__(self, name, count, run):
        self.name = name
        self.count = count
        self.run = run

    def items(self, seed: int) -> list:
        return [item_seed(self.name, seed, k) for k in range(self.count)]

    @staticmethod
    def canon(out) -> dict:
        gamma, report, cover = out
        return {
            "points": gamma.to_json(),
            "cb": report.to_json(gamma.field),
            "cover": cover.to_json() if cover is not None else None,
        }

    @staticmethod
    def check(out) -> list:
        """Problems found by substituting the witness and the found cover."""
        gamma, report, cover = out
        problems = [] if report.verdict else check_witness(gamma, report)
        if cover is not None and cover.found and not L.verify_cover(gamma, cover.config):
            problems.append("found cover misses a point")
        return problems

    @staticmethod
    def failed(out) -> bool:
        return False


class CampaignWorkload:
    """Items are one-trial campaigns, per_cell seeds for every grid cell."""

    def __init__(self, name, field, per_cell):
        self.name = name
        self.field = field
        self.per_cell = per_cell

    def items(self, seed: int) -> list:
        return [
            L.CampaignSpec(t, (d,), (r,), self.field, trials=1,
                           seed=item_seed(self.name, seed, t, d, r, k))
            for k in range(self.per_cell)
            for t in TARGETS
            for d in D_VALUES
            for r in R_VALUES
        ]

    @staticmethod
    def run(spec):
        return L.run_campaign(spec)

    @staticmethod
    def canon(report) -> dict:
        return report.to_json(include_timings=False)

    @staticmethod
    def check(report) -> list:
        """Record consistency, and every claimed cover found again and verified.

        Reports keep only a cover's dimensions, so a claimed cover is checked
        by regenerating the point set from the record's GenSpec and verifying
        a cover of the same dimension budget by substitution.
        """
        problems = []
        if report.summary["records"] != 1:
            problems.append(f"{report.summary['records']} records for one trial")
        flagged = sum(1 for rec in report.records if rec.get("violation"))
        if flagged != len(report.violations):
            problems.append("violation list disagrees with the records")
        for rec in report.records:
            if rec.get("cover_found"):
                gamma, _cfg = L.generate(L.GenSpec.from_json(rec["genspec"]))
                cover = L.exists_cover(gamma, rec["d"], rec["d"])
                if not (cover.found and L.verify_cover(gamma, cover.config)):
                    problems.append(f"claimed dimension-{rec['d']} cover not verified")
        return problems

    @staticmethod
    def failed(report) -> bool:
        return any(rec.get("status") == "budget_exceeded" for rec in report.records)


def run_conics(s):
    gamma, _cfg = L.gen_two_plane_conics(8, GF101, s)
    report = L.is_cb(gamma, 3)
    cover = L.min_cover(gamma) if report.verdict else None
    return gamma, report, cover


def run_quartic(s):
    gamma = L.gen_elliptic_quartic(9, GF101, s)
    report = L.is_cb(gamma, 2)
    cover = L.exists_cover(gamma, 2, 2) if report.verdict else None
    return gamma, report, cover


def check_witness(gamma, report) -> list:
    """The witness form must vanish on every kept point and not at the omitted one."""
    wit = report.witness
    if wit is None:
        return ["CB-false verdict without a witness"]
    basis = L.monomial_basis(gamma.ambient_dim, report.r)
    problems = []
    for i, pt in enumerate(gamma):
        value = L.evaluate_form(wit.form_coefficients, basis, pt)
        if i == wit.omitted_point_index and value == 0:
            problems.append(f"witness vanishes at the omitted point {i}")
        elif i != wit.omitted_point_index and value != 0:
            problems.append(f"witness does not vanish at kept point {i}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        PointWorkload("conics_cover", 8, run_conics),
        PointWorkload("quartic_sample", 8, run_quartic),
        CampaignWorkload("campaign_gf101", GF101, 96),
        CampaignWorkload("campaign_q", Q, 45),
    )
}


def canonical_bytes(workload, outputs) -> bytes:
    """Canonical JSON of one pass's outputs (failed items by error type)."""
    docs = [
        {"error": out.error} if isinstance(out, Failed) else workload.canon(out)
        for out in outputs
    ]
    return json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
