"""Randomized and exhaustive verification campaigns with replayable reports.

The central target asserts the covering statement: every CB(r) set with
|Gamma| <= (d+1)r + 1 lies on a plane configuration of dimension d.  Trials
draw from the example families that are CB(r) by construction (sampling
uniform random sets and filtering would essentially never produce a CB set),
verify the CB verdict, discard and count failed draws, and then require a
cover.  Any violation is persisted with the full point set so the verdicts
can be reproduced from the record alone.

Violations found over a small prime field are flagged "needs
characteristic-0 lift": they are evidence about GF(p), never refutations of
the characteristic-zero statement, whose genericity arguments need room the
small fields do not have.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field as dc_field

from .cb import excise, is_cb, is_cb_rows
from .cover import exists_cover, min_cover, node_budget_default
from .errors import BudgetExceededError, ResampleBudgetExceededError
from .fields import FieldSpec
from .forms import evaluation_row, monomial_basis
from .generators import SUPPORTED_CI_DEGREES, GenSpec, generate
from .matroid import Matroid, exists_flat_cover, is_mcb
from .projective import PlaneConfiguration, PointSet, enumerate_points, merge_intersecting, span

TARGETS = (
    "conjecture",
    "excision",
    "lower_bound_exhaustive",
    "tightness",
    "balancing",
    "mcb_analog",
    "counterexample_search",
)

SMALL_FIELD_CAVEAT = (
    "small-field violation: needs characteristic-0 lift before it can "
    "contradict the covering statement"
)

_MAX_REDRAWS = 8


@dataclass(frozen=True)
class CampaignSpec:
    target: str
    d_values: tuple
    r_values: tuple
    field: FieldSpec
    trials: int
    seed: int
    node_budget: int | None = None
    ambient: int | None = None
    size_cap: int | None = None

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.d_values or not self.r_values:
            raise ValueError("d and r ranges must be nonempty")
        object.__setattr__(self, "d_values", tuple(self.d_values))
        object.__setattr__(self, "r_values", tuple(self.r_values))

    def to_json(self) -> dict:
        obj = {
            "target": self.target,
            "d_values": list(self.d_values),
            "r_values": list(self.r_values),
            "field": self.field.to_json(),
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.node_budget is not None:
            obj["node_budget"] = self.node_budget
        if self.ambient is not None:
            obj["ambient"] = self.ambient
        if self.size_cap is not None:
            obj["size_cap"] = self.size_cap
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> CampaignSpec:
        return cls(
            target=obj["target"],
            d_values=tuple(obj["d_values"]),
            r_values=tuple(obj["r_values"]),
            field=FieldSpec.from_json(obj["field"]),
            trials=obj["trials"],
            seed=obj["seed"],
            node_budget=obj.get("node_budget"),
            ambient=obj.get("ambient"),
            size_cap=obj.get("size_cap"),
        )


@dataclass
class CampaignReport:
    spec: CampaignSpec
    records: list
    summary: dict
    violations: list = dc_field(default_factory=list)

    def to_json(self, include_timings: bool = True) -> dict:
        def strip(rec: dict) -> dict:
            return {k: v for k, v in rec.items() if k != "elapsed_s"}

        records = self.records if include_timings else [strip(r) for r in self.records]
        summary = dict(self.summary)
        if not include_timings:
            summary.pop("total_s", None)
        return {
            "spec": self.spec.to_json(),
            "records": records,
            "summary": summary,
            "violations": [strip(v) if not include_timings else v for v in self.violations],
        }

    def dumps(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_json(include_timings), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Family mix
# ---------------------------------------------------------------------------


def eligible_families(d: int, r: int, field: FieldSpec, size_limit: int | None = None):
    """Families producing CB(r) sets of size <= (d+1)r+1 lying in dimension <= d.

    Points on a degree-k rational normal curve are CB(r) exactly when there
    are at least kr+2 of them; k <= d keeps that within the size bound.  d
    split lines with r+2 points each fit the bound exactly when r >= 2d-1.
    """
    bound = (d + 1) * r + 1
    if size_limit is not None:
        bound = min(bound, size_limit)
    cap = field.p + 1 if field.is_prime_field else None
    fams = []
    for k in range(1, d + 1):
        m_min = k * r + 2
        m_max = bound if cap is None else min(bound, cap)
        if m_min <= m_max:
            fams.append(("rnc", {"k": k, "m_range": (m_min, m_max)}))
    for nl in range(2, d + 1):
        if nl * (r + 2) <= bound and (cap is None or r + 2 <= cap):
            fams.append(("skew_lines", {"d": nl}))
    if d >= 2 and field.is_prime_field:
        p = field.p
        for a, b in SUPPORTED_CI_DEGREES:
            # (2, b > 2) samples a smooth conic, which needs odd p, and (a, a)
            # a pencil through a*a - 1 distinct points of P^2.
            runs = not (a == 2 < b and p == 2) and (a < b or p * p + p + 1 >= a * a - 1)
            if a + b - 3 == r and a * b <= bound and runs:
                fams.append(("plane_curve_ci", {"deg_d": a, "deg_e": b}))
    if r == 2 and d >= 3 and 9 <= bound and field.is_prime_field and field.p >= 3:
        fams.append(("elliptic_quartic", {"m": 9}))
    if r == 3 and 16 <= bound and field.is_prime_field and field.p >= 3:
        fams.append(("two_plane_conics", {"points_per_conic": 8}))
    return fams


def _draw_genspec(d: int, r: int, field: FieldSpec, rng: random.Random,
                  size_limit: int | None = None) -> GenSpec:
    fams = eligible_families(d, r, field, size_limit)
    if not fams:
        raise ValueError(f"no generator family fits d={d}, r={r} over {field}")
    name, info = fams[rng.randrange(len(fams))]
    seed = rng.randrange(2**63)
    bound = (d + 1) * r + 1 if size_limit is None else min((d + 1) * r + 1, size_limit)
    if name == "rnc":
        lo, hi = info["m_range"]
        info = {"k": info["k"], "m": rng.randint(lo, hi)}
    elif name == "skew_lines":
        nl = info["d"]
        counts = [r + 2] * nl
        spare = bound - nl * (r + 2)
        cap = field.p + 1 if field.is_prime_field else None
        for _ in range(spare):
            i = rng.randrange(nl)
            if cap is None or counts[i] < cap:
                if rng.random() < 0.5:
                    counts[i] += 1
        info = {"d": nl, "counts": counts}
    return GenSpec.make(name, info, field, seed)


def _draw_cb_set(d: int, r: int, field: FieldSpec, rng: random.Random,
                 size_limit: int | None = None):
    """A CB(r)-verified draw; returns (gamma, genspec, discarded_count)."""
    discarded = 0
    for _ in range(_MAX_REDRAWS):
        spec = _draw_genspec(d, r, field, rng, size_limit)
        try:
            gamma, _cfg = generate(spec)
        except ResampleBudgetExceededError:
            discarded += 1
            continue
        if is_cb(gamma, r).verdict:
            return gamma, spec, discarded
        discarded += 1
    return None, None, discarded


# ---------------------------------------------------------------------------
# Campaign targets
# ---------------------------------------------------------------------------


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """Dispatch a campaign; per-trial budget failures are recorded, not raised."""
    if spec.target == "lower_bound_exhaustive":
        return exhaustive_lower_bound(
            spec.field, spec.ambient, spec.r_values[0], node_budget=spec.node_budget
        )
    if spec.target == "counterexample_search":
        return counterexample_search(
            spec.field, spec.ambient, spec.r_values[0], spec.d_values[0],
            spec.size_cap or 0, node_budget=spec.node_budget,
        )
    return _run_trials(spec, _TRIALS[spec.target])


def _run_trials(spec: CampaignSpec, trial) -> CampaignReport:
    """The randomized-campaign loop shared by every target.

    ``trial(rec, rng, field, budget)`` fills in the record, whose header is
    (trial, seed, d, r), sets its "violation" flag and returns the point set
    a violation record embeds.
    """
    pairs = [(d, r) for d in spec.d_values for r in spec.r_values if r >= 1]
    if not pairs:
        raise ValueError("no (d, r) pair with r >= 1")
    master = random.Random(spec.seed)
    seeds = [master.randrange(2**63) for _ in range(spec.trials)]
    budget = spec.node_budget or node_budget_default()
    records, violations = [], []
    t0 = time.perf_counter()
    for i, trial_seed in enumerate(seeds):
        d, r = pairs[i % len(pairs)]
        started = time.perf_counter()
        rec = {"trial": i, "seed": trial_seed, "d": d, "r": r}
        gamma = trial(rec, random.Random(trial_seed), spec.field, budget)
        rec["elapsed_s"] = time.perf_counter() - started
        records.append(rec)
        if rec["violation"]:
            violations.append(_violation_record(rec, gamma, spec.field))
    return _finish(spec, records, violations, t0)


def _draw_trial_set(rec: dict, rng: random.Random, field: FieldSpec,
                    size_limit: int | None = None, min_size: int = 1):
    """_draw_cb_set for one trial; returns (gamma, genspec), or (None, None)
    after marking the record no_cb_sample."""
    gamma, genspec, rec["discarded"] = _draw_cb_set(rec["d"], rec["r"], field, rng, size_limit)
    if gamma is None or len(gamma) < min_size:
        rec.update(status="no_cb_sample", violation=False)
        return None, None
    return gamma, genspec


def _conjecture_trial(rec, rng, field, budget):
    d = rec["d"]
    gamma, genspec = _draw_trial_set(rec, rng, field)
    if gamma is None:
        return None
    rec.update(genspec=genspec.to_json(), size=len(gamma), cb=True)
    try:
        len2 = exists_cover(gamma, d, min(2, d), node_budget=budget)
        cover = len2 if len2.found else exists_cover(gamma, d, d, node_budget=budget)
        rec.update(
            cover_found=cover.found, cover_dim=cover.dim, cover_length=cover.length,
            cover_length_le_2=len2.found, status="ok", violation=not cover.found,
        )
    except BudgetExceededError:
        rec.update(status="budget_exceeded", violation=False)
    return gamma


def _tightness_trial(rec, rng, field, budget):
    d, r = rec["d"], rec["r"]
    m = (d + 1) * r + 2
    genspec = GenSpec.make("rnc", {"k": d + 1, "m": m}, field, rec["seed"])
    gamma, _ = generate(genspec)
    cb = is_cb(gamma, r).verdict
    rec.update(genspec=genspec.to_json(), size=m, cb=cb)
    try:
        res = exists_cover(gamma, d, d, node_budget=budget)
        # Tightness expects CB true and no dimension-d cover.
        rec.update(
            cover_found=res.found, proof_of_minimality=res.proof_of_minimality,
            violation=not (cb and not res.found and res.proof_of_minimality), status="ok",
        )
    except BudgetExceededError:
        rec.update(status="budget_exceeded", violation=False)
    return gamma


def _excision_trial(rec, rng, field, budget):
    r = rec["r"]
    gamma, genspec = _draw_trial_set(rec, rng, field, min_size=2)
    if gamma is None:
        return None
    # Up to min(r, 3) distinct flats spanned by small point samples; a
    # degenerate draw (e.g. collinear) may admit fewer distinct spans.
    want = rng.randint(1, min(r, 3))
    flats_chosen = []
    for _ in range(50):
        if len(flats_chosen) >= want:
            break
        size = min(rng.choice((2, 3)), len(gamma))
        fl = span([gamma[j] for j in rng.sample(range(len(gamma)), size)])
        if fl.dim >= 1 and fl not in flats_chosen:
            flats_chosen.append(fl)
    if not flats_chosen:
        rec.update(status="no_configuration", violation=False)
        return None
    survivors = excise(gamma, PlaneConfiguration(tuple(flats_chosen)))
    verdict = is_cb(survivors, r - len(flats_chosen)).verdict
    rec.update(
        genspec=genspec.to_json(), size=len(gamma), cb=True,
        excised_length=len(flats_chosen), survivors=len(survivors),
        survivors_cb=verdict, violation=not verdict, status="ok",
    )
    return gamma


def _balancing_trial(rec, rng, field, budget):
    r = rec["r"]
    gamma, genspec = _draw_trial_set(rec, rng, field)
    if gamma is None:
        return None
    rec["genspec"] = genspec.to_json()
    try:
        mc = min_cover(gamma, node_budget=budget)
        cfg = merge_intersecting(mc.config)
        counts = [sum(1 for pt in gamma if pl.contains(pt)) for pl in cfg.planes]
        ell = cfg.length
        case_i = all(c >= max(ell, r + 2) for c in counts)
        case_ii = min(counts) < ell and ell >= r + 2
        rec.update(
            cover_dim=mc.dim, cover_length=mc.length, skew_length=ell, plane_counts=counts,
            balanced=case_i, sparse_plane_case=case_ii,
            violation=not (case_i or case_ii), status="ok",
        )
    except BudgetExceededError:
        rec.update(status="budget_exceeded", violation=False)
    return gamma


def _mcb_trial(rec, rng, field, budget):
    gamma, genspec = _draw_trial_set(rec, rng, field, size_limit=12)
    if gamma is None:
        return None
    rec.update(genspec=genspec.to_json(), size=len(gamma))
    matroid = Matroid.from_points(gamma)
    mcb = is_mcb(matroid, rec["r"])
    rec["mcb"] = mcb.verdict
    try:
        mc = min_cover(gamma, node_budget=budget)
        dims = sorted((pl.dim for pl in mc.config.planes), reverse=True)
        flat_cover = exists_flat_cover(matroid, dims)
        rec.update(
            cover_dims=dims, flat_cover_found=flat_cover is not None,
            violation=not (mcb.verdict and flat_cover is not None), status="ok",
        )
    except BudgetExceededError:
        rec.update(status="budget_exceeded", violation=not mcb.verdict)
    return gamma


_TRIALS = {
    "conjecture": _conjecture_trial,
    "tightness": _tightness_trial,
    "excision": _excision_trial,
    "balancing": _balancing_trial,
    "mcb_analog": _mcb_trial,
}


# ---------------------------------------------------------------------------
# Exhaustive searches
# ---------------------------------------------------------------------------


def exhaustive_lower_bound(field: FieldSpec, n: int, r: int,
                           node_budget: int | None = None) -> CampaignReport:
    """Check that no nonempty subset of P^n(GF(p)) of size <= r+1 is CB(r).

    The enumeration itself is the oracle.  The bound is asserted for r >= 1;
    r = 0 passes vacuously (CB(0) holds for every set by convention, and the
    bound statement starts at r = 1).
    """
    if n is None or n < 1:
        raise ValueError("ambient dimension n >= 1 required")
    spec_stub = dict(field=field, seed=0, node_budget=node_budget, ambient=n)
    t0 = time.perf_counter()
    records, violations = [], []
    if r >= 1:
        pts = enumerate_points(field, n)
        basis = monomial_basis(n, r)
        rows = [evaluation_row(pt.coords, basis, field) for pt in pts]
        for size in range(1, r + 2):
            checked = 0
            bad = 0
            for idx in itertools.combinations(range(len(pts)), size):
                checked += 1
                if is_cb_rows([rows[i] for i in idx], field):
                    bad += 1
                    gamma = PointSet(field, n, tuple(pts[i] for i in idx))
                    violations.append({
                        "r": r, "size": size, "points": gamma.to_json(),
                        "caveat": SMALL_FIELD_CAVEAT,
                    })
            records.append({
                "size": size, "subsets": checked, "cb_true": bad,
                "elapsed_s": time.perf_counter() - t0,
            })
    spec = CampaignSpec(
        target="lower_bound_exhaustive", d_values=(0,), r_values=(r,),
        trials=max(1, len(records)), **spec_stub,
    )
    return _finish(spec, records, violations, t0)


def counterexample_search(field: FieldSpec, n: int, r: int, d: int, size_cap: int,
                          injected=(), node_budget: int | None = None) -> CampaignReport:
    """Exhaustively hunt for CB(r) subsets of P^n(GF(p)) up to size_cap with no
    dimension-d cover; injected point sets are scanned first.

    Any hit is recorded with the small-field caveat: it is evidence, not a
    refutation of the characteristic-zero statement.
    """
    if n is None or n < 1:
        raise ValueError("ambient dimension n >= 1 required")
    budget = node_budget or node_budget_default()
    t0 = time.perf_counter()
    records, violations = [], []

    def check_cover(gamma: PointSet, source: str):
        """Cover a CB(r) set; record a violation when no cover exists."""
        res = exists_cover(gamma, d, d, node_budget=budget)
        if not res.found:
            violations.append({
                "r": r, "d": d, "size": len(gamma), "source": source,
                "points": gamma.to_json(), "caveat": SMALL_FIELD_CAVEAT,
            })
        return res.found

    for j, gamma in enumerate(injected):
        cb = is_cb(gamma, r).verdict
        covered = check_cover(gamma, f"injected[{j}]") if cb else None
        records.append({
            "source": f"injected[{j}]", "size": len(gamma), "cb_true": int(cb),
            "cover_found": covered, "subsets": 1,
            "elapsed_s": time.perf_counter() - t0,
        })
    if size_cap > 0:
        pts = enumerate_points(field, n)
        basis = monomial_basis(n, r)
        rows = [evaluation_row(pt.coords, basis, field) for pt in pts]
        for size in range(1, size_cap + 1):
            checked = 0
            cb_count = 0
            for idx in itertools.combinations(range(len(pts)), size):
                checked += 1
                if r >= 1 and not is_cb_rows([rows[i] for i in idx], field):
                    continue
                cb_count += 1
                gamma = PointSet(field, n, tuple(pts[i] for i in idx))
                check_cover(gamma, "enumeration")  # CB(r) already decided above
            records.append({
                "source": "enumeration", "size": size, "subsets": checked,
                "cb_true": cb_count, "elapsed_s": time.perf_counter() - t0,
            })
    spec = CampaignSpec(
        target="counterexample_search", d_values=(d,), r_values=(r,), field=field,
        trials=max(1, len(records)), seed=0, node_budget=node_budget,
        ambient=n, size_cap=size_cap,
    )
    return _finish(spec, records, violations, t0)


# ---------------------------------------------------------------------------
# Report assembly and replay
# ---------------------------------------------------------------------------


def _violation_record(rec: dict, gamma: PointSet, field: FieldSpec) -> dict:
    out = dict(rec)
    out["points"] = gamma.to_json()
    if field.is_prime_field:
        out["caveat"] = SMALL_FIELD_CAVEAT
    return out


def _finish(spec: CampaignSpec, records, violations, t0) -> CampaignReport:
    summary = {
        "records": len(records),
        "violations": len(violations),
        "discarded_draws": sum(r.get("discarded", 0) for r in records),
        "total_s": time.perf_counter() - t0,
    }
    ok = [r for r in records if r.get("status") == "ok"]
    if ok:
        summary["ok_records"] = len(ok)
    return CampaignReport(spec, records, summary, violations)


def replay_record(record: dict) -> dict:
    """Recompute the CB and cover verdicts of one record from its own contents.

    The point set comes from the record's "points" (violations embed them) or
    else from regenerating its "genspec", which is byte-identical.  With "r"
    set, CB(r) is recomputed and compared against "cb" when the record has
    one; with "d" set and a recorded "cover_found", a dimension-d cover search
    (default node budget) is compared against it.  No other recorded verdict
    is rechecked.  Returns the recomputed verdicts and whether they match;
    raises ValueError when "r" or "d" is present but not an integer.
    """
    if "points" in record:
        gamma = PointSet.from_json(record["points"])
    elif "genspec" in record:
        gamma, _ = generate(GenSpec.from_json(record["genspec"]))
    else:
        raise ValueError("record carries neither points nor a genspec")
    r, d = record.get("r"), record.get("d")
    if any(v is not None and type(v) is not int for v in (r, d)):
        raise ValueError(f"record r and d must be integers, got r={r!r}, d={d!r}")
    out = {"size": len(gamma)}
    matches = True
    if r is not None and r >= 0:
        out["cb"] = is_cb(gamma, r).verdict
        if "cb" in record:
            matches = matches and out["cb"] == record["cb"]
    if d is not None and "cover_found" in record:
        res = exists_cover(gamma, d, d)
        out["cover_found"] = res.found
        matches = matches and out["cover_found"] == record["cover_found"]
    out["matches"] = matches
    return out
