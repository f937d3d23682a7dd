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

from .cb import _failing_points, excise, is_cb
from .cover import _min_cover, exists_cover, min_cover, node_budget_default
from .errors import BudgetExceededError, FieldTooSmallError, ResampleBudgetExceededError
from .fields import FieldSpec
from .forms import monomial_basis, monomial_columns
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
        for name in ("d_values", "r_values"):
            values = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(values))
            except TypeError:
                raise ValueError(f"CampaignSpec {name} must hold ints, got {values!r}") from None
        named = [("trials", self.trials), ("seed", self.seed)]
        named += [(k, v) for k in ("d_values", "r_values") for v in getattr(self, k)]
        named += [(k, getattr(self, k)) for k in ("node_budget", "ambient", "size_cap")
                  if getattr(self, k) is not None]
        for name, v in named:
            if type(v) is not int:  # a float, bool or string is rejected, not echoed
                raise ValueError(f"CampaignSpec {name} must hold ints, got {v!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.d_values or not self.r_values:
            raise ValueError("d and r ranges must be nonempty")

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
        try:
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
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed CampaignSpec JSON: {type(exc).__name__}: {exc}") from exc


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


# ---------------------------------------------------------------------------
# Campaign targets
# ---------------------------------------------------------------------------


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """Dispatch a campaign; per-trial budget failures are recorded, not raised."""
    if spec.target == "lower_bound_exhaustive":
        return exhaustive_lower_bound(spec.field, spec.ambient, spec.r_values[0])
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
    a violation record embeds.  A trial that exceeds the node budget is
    recorded as budget_exceeded, not a violation.
    """
    pairs = [(d, r) for d in spec.d_values for r in spec.r_values if r >= 1]
    if not pairs:
        raise ValueError("no (d, r) pair with r >= 1")
    master = random.Random(spec.seed)
    seeds = [master.randrange(2**63) for _ in range(spec.trials)]
    budget = node_budget_default() if spec.node_budget is None else spec.node_budget
    records, violations = [], []
    t0 = time.perf_counter()
    for i, trial_seed in enumerate(seeds):
        d, r = pairs[i % len(pairs)]
        started = time.perf_counter()
        rec = {"trial": i, "seed": trial_seed, "d": d, "r": r}
        try:
            gamma = trial(rec, random.Random(trial_seed), spec.field, budget)
        except BudgetExceededError:
            rec.update(status="budget_exceeded", violation=False)
        rec["elapsed_s"] = time.perf_counter() - started
        records.append(rec)
        if rec["violation"]:
            violations.append(_violation_record(rec, gamma, spec.field))
    return _finish(spec, records, violations, t0)


def _draw_trial_set(rec: dict, rng: random.Random, field: FieldSpec,
                    size_limit: int | None = None, min_size: int = 1):
    """A CB(r)-verified draw for the record's (d, r), redrawn up to
    _MAX_REDRAWS times.  Records the discarded draws and the genspec; returns
    gamma, or None after marking the record no_cb_sample."""
    d, r = rec["d"], rec["r"]
    discarded = 0
    for _ in range(_MAX_REDRAWS):
        genspec = _draw_genspec(d, r, field, rng, size_limit)
        try:
            gamma, _cfg = generate(genspec)
        except (FieldTooSmallError, ResampleBudgetExceededError):
            # two_plane_conics is admitted over GF(3) and GF(5), whose conics
            # hold fewer than its 8 points: that draw counts as discarded
            discarded += 1
            continue
        if is_cb(gamma, r).verdict:
            if len(gamma) < min_size:
                break
            rec.update(discarded=discarded, genspec=genspec.to_json())
            return gamma
        discarded += 1
    rec.update(discarded=discarded, status="no_cb_sample", violation=False)
    return None


def _conjecture_trial(rec, rng, field, budget):
    d = rec["d"]
    gamma = _draw_trial_set(rec, rng, field)
    if gamma is None:
        return None
    rec.update(size=len(gamma), cb=True)
    len2 = exists_cover(gamma, d, min(2, d), node_budget=budget)
    # For d <= 2 the length-2 search is already the length-d one.
    cover = len2 if len2.found or d <= 2 else exists_cover(gamma, d, d, node_budget=budget)
    rec.update(
        cover_found=cover.found, cover_dim=cover.dim, cover_length=cover.length,
        cover_length_le_2=len2.found, status="ok", violation=not cover.found,
    )
    return gamma


def _tightness_trial(rec, rng, field, budget):
    d, r = rec["d"], rec["r"]
    m = (d + 1) * r + 2
    genspec = GenSpec.make("rnc", {"k": d + 1, "m": m}, field, rec["seed"])
    rec.update(genspec=genspec.to_json(), size=m)
    try:
        gamma, _ = generate(genspec)
    except FieldTooSmallError:
        # m = (d+1)r + 2 points do not fit on a rational normal curve over a tiny field
        rec.update(status="field_too_small", violation=False)
        return None
    cb = rec["cb"] = is_cb(gamma, r).verdict
    res = exists_cover(gamma, d, d, node_budget=budget)
    # Tightness expects CB true and no dimension-d cover.
    rec.update(
        cover_found=res.found, proof_of_minimality=res.proof_of_minimality,
        violation=not (cb and not res.found and res.proof_of_minimality), status="ok",
    )
    return gamma


def _excision_trial(rec, rng, field, budget):
    r = rec["r"]
    gamma = _draw_trial_set(rec, rng, field, min_size=2)
    if gamma is None:
        return None
    # Up to min(r, 3) distinct flats spanned by small point samples (each of
    # at least 2 distinct points, so of dim >= 1); a degenerate draw (e.g.
    # collinear) may admit fewer distinct spans.
    want = rng.randint(1, min(r, 3))
    if span(list(gamma)).dim <= 1:
        want = 1  # every sample of a collinear gamma spans the same line
    flats_chosen = []
    for _ in range(50):
        if len(flats_chosen) >= want:
            break
        size = min(rng.choice((2, 3)), len(gamma))
        fl = span([gamma[j] for j in rng.sample(range(len(gamma)), size)])
        if fl not in flats_chosen:
            flats_chosen.append(fl)
    survivors = excise(gamma, PlaneConfiguration(tuple(flats_chosen)))
    verdict = is_cb(survivors, r - len(flats_chosen)).verdict
    rec.update(
        size=len(gamma), cb=True, excised_length=len(flats_chosen), survivors=len(survivors),
        survivors_cb=verdict, violation=not verdict, status="ok",
    )
    return gamma


def _balancing_trial(rec, rng, field, budget):
    r = rec["r"]
    gamma = _draw_trial_set(rec, rng, field)
    if gamma is None:
        return None
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
    return gamma


def _mcb_trial(rec, rng, field, budget):
    gamma = _draw_trial_set(rec, rng, field, size_limit=12)
    if gamma is None:
        return None
    rec["size"] = len(gamma)
    matroid = Matroid.from_points(gamma)
    mcb = is_mcb(matroid, rec["r"])
    rec["mcb"] = mcb.verdict
    try:
        # is_mcb built the matroid's lattice from the candidate levels that
        # min_cover needs, those of gamma up to dim full_rank - 2, and its
        # full rank with the components they were grown by.
        mc = _min_cover(gamma, budget, matroid._levels, (matroid.full_rank, matroid._parts))
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


def exhaustive_lower_bound(field: FieldSpec, n: int, r: int) -> CampaignReport:
    """Check that no nonempty subset of P^n(GF(p)) of size <= r+1 is CB(r).

    This is the covering statement at d = 0, where a configuration is empty:
    counterexample_search(field, n, r, 0, r+1) reports every CB(r) subset as
    a violation, and the enumeration itself is the oracle.  The report drops
    the scan's "source" and "d" keys.  The bound is asserted for r >= 1; r = 0
    passes vacuously (CB(0) holds for every set by convention, and the bound
    statement starts at r = 1).  A negative r raises ValueError.
    """
    scan = counterexample_search(field, n, r, 0, r + 1 if r >= 1 else 0)
    records = [{k: v for k, v in rec.items() if k != "source"} for rec in scan.records]
    violations = [{k: v for k, v in viol.items() if k not in ("d", "source")}
                  for viol in scan.violations]
    spec = CampaignSpec(
        target="lower_bound_exhaustive", d_values=(0,), r_values=(r,), field=field,
        trials=max(1, len(records)), seed=0, ambient=n,
    )
    return CampaignReport(spec, records, scan.summary, violations)


def counterexample_search(field: FieldSpec, n: int, r: int, d: int, size_cap: int,
                          node_budget: int | None = None) -> CampaignReport:
    """Exhaustively hunt for CB(r) subsets of P^n(GF(p)) up to size_cap with no
    dimension-d cover.

    Any hit is recorded with the small-field caveat: it is evidence, not a
    refutation of the characteristic-zero statement.  A negative size_cap, r
    or d raises ValueError.
    """
    if n is None or n < 1:
        raise ValueError("ambient dimension n >= 1 required")
    if size_cap < 0:
        raise ValueError(f"size_cap must be >= 0, got {size_cap}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    budget = node_budget_default() if node_budget is None else node_budget
    t0 = time.perf_counter()
    records, violations = [], []
    if size_cap > 0:
        pts = enumerate_points(field, n)
        basis = monomial_basis(n, r)
        # per point, its values at the monomials: a subset's columns are
        # the transpose of its points' rows
        rows = list(zip(*monomial_columns([pt.ints for pt in pts], basis, field.p)))
        for size in range(1, size_cap + 1):
            checked = 0
            cb_count = 0
            for idx in itertools.combinations(range(len(pts)), size):
                checked += 1
                if r >= 1 and _failing_points(zip(*[rows[i] for i in idx]), field):
                    continue
                cb_count += 1
                gamma = PointSet(field, n, tuple(pts[i] for i in idx))
                if not exists_cover(gamma, d, d, node_budget=budget).found:
                    violations.append({
                        "r": r, "d": d, "size": size, "source": "enumeration",
                        "points": gamma.to_json(), "caveat": SMALL_FIELD_CAVEAT,
                    })
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
    is rechecked.  A "field_too_small" record matches when its genspec again
    raises FieldTooSmallError, and not when it generates.  Returns the
    recomputed verdicts and whether they match; raises ValueError when the
    record is not a dict, or when "r" or "d" is present but not an integer.
    """
    if not isinstance(record, dict):
        raise ValueError(f"a record must be a JSON object, got {type(record).__name__}")
    too_small = record.get("status") == "field_too_small"
    if "points" in record:
        gamma = PointSet.from_json(record["points"])
    elif "genspec" in record:
        try:
            gamma, _ = generate(GenSpec.from_json(record["genspec"]))
        except FieldTooSmallError:
            if not too_small:
                raise
            return {"status": "field_too_small", "matches": True}
    else:
        raise ValueError("record carries neither points nor a genspec")
    r, d = record.get("r"), record.get("d")
    if any(v is not None and type(v) is not int for v in (r, d)):
        raise ValueError(f"record r and d must be integers, got r={r!r}, d={d!r}")
    out = {"size": len(gamma)}
    matches = not too_small
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
