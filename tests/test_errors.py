"""Argument checks: each public name rejects out-of-range input with its typed error."""

from fractions import Fraction

import pytest

from cb_lab import (
    CampaignSpec,
    FieldSpec,
    Flat,
    GenSpec,
    Matroid,
    PlaneConfiguration,
    PointSet,
    ProjPoint,
    apply_matrix,
    candidate_flats,
    counterexample_search,
    enumerate_points,
    eval_matrix,
    excise,
    exists_flat_cover,
    extend_to_hyperplane,
    gen_elliptic_quartic,
    gen_on_configuration,
    gen_rnc,
    gen_skew_lines,
    gen_two_plane_conics,
    generate,
    intersect,
    is_mcb,
    max_cb,
    monomial_basis,
    replay_record,
    run_campaign,
    span,
)
from cb_lab import generators
from cb_lab.errors import (
    DivisionByZeroError,
    EmptyInputError,
    FieldTooSmallError,
    InvalidFieldError,
    ResampleBudgetExceededError,
)

GF2, GF7, GF101 = FieldSpec.prime(2), FieldSpec.prime(7), FieldSpec.prime(101)
Q = FieldSpec.rational()
LINE = span([ProjPoint(GF101, (1, 0, 0)), ProjPoint(GF101, (0, 1, 0))])  # in P^2
SOLID_LINE = span([ProjPoint(GF101, (1, 0, 0, 0)), ProjPoint(GF101, (0, 1, 0, 0))])  # in P^3
PLANE_POINTS = PointSet.from_coords(GF101, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
SOLID_POINTS = PointSet.from_coords(GF101, [[1, 0, 0, 0], [0, 0, 1, 0]])
U23 = Matroid.uniform(2, 3)


def _campaign(**fields):
    base = dict(target="conjecture", d_values=(2,), r_values=(2,), field=GF101, trials=1, seed=0)
    return CampaignSpec(**{**base, **fields})


def _two_lines_through_one_point_of_gf2_plane():
    """Two lines of P^2(GF(2)) meeting in (0:1:0): 5 points, 3 on each line."""
    pts = [ProjPoint(GF2, c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return PlaneConfiguration((span(pts[:2]), span(pts[1:])))


_CASES = [
    ("campaign-spec-unknown-target", ValueError, "unknown target",
     lambda: _campaign(target="nope")),
    ("campaign-spec-zero-trials", ValueError, "trials must be",
     lambda: _campaign(trials=0)),
    ("campaign-spec-empty-d", ValueError, "ranges must be nonempty",
     lambda: _campaign(d_values=())),
    ("campaign-spec-empty-r", ValueError, "ranges must be nonempty",
     lambda: _campaign(r_values=())),
    ("run-campaign-no-positive-r", ValueError, "no \\(d, r\\) pair",
     lambda: run_campaign(_campaign(r_values=(0,)))),
    ("counterexample-search-n-0", ValueError, "ambient dimension",
     lambda: counterexample_search(GF2, 0, 1, 1, 2)),
    ("replay-record-no-points-no-genspec", ValueError, "neither points nor a genspec",
     lambda: replay_record({"r": 1})),
    ("excise-ambient-mismatch", ValueError, "share gamma's ambient",
     lambda: excise(SOLID_POINTS, PlaneConfiguration((LINE,)))),
    ("max-cb-negative-cap", ValueError, "r_cap",
     lambda: max_cb(PLANE_POINTS, -1)),
    ("candidate-flats-max-dim-0", ValueError, "max_dim",
     lambda: candidate_flats(PLANE_POINTS, 0)),
    ("field-rational-with-modulus", InvalidFieldError, "takes no modulus",
     lambda: FieldSpec("rational", 7)),
    ("field-denominator-zero-mod-p", DivisionByZeroError, "vanishes mod 7",
     lambda: GF7.coerce(Fraction(1, 14))),
    ("monomial-basis-negative-n", ValueError, "n >= 0",
     lambda: monomial_basis(-1, 2)),
    ("eval-matrix-negative-r", ValueError, "degree must be nonnegative",
     lambda: eval_matrix(PLANE_POINTS, -1)),
    ("generate-unknown-family", ValueError, "unknown family",
     lambda: generate(GenSpec("nope", (), GF101, 1))),
    ("gen-rnc-k-0", ValueError, "k >= 1",
     lambda: gen_rnc(0, 3, GF101, 1)),
    ("gen-rnc-m-0", ValueError, "m >= 1",
     lambda: gen_rnc(2, 0, GF101, 1)),
    ("gen-skew-lines-count-mismatch", ValueError, "one positive count per line",
     lambda: gen_skew_lines(2, (3,), GF101, 1)),
    ("gen-skew-lines-zero-count", ValueError, "one positive count per line",
     lambda: gen_skew_lines(2, (3, 0), GF101, 1)),
    ("gen-two-plane-conics-0", ValueError, "one point per conic",
     lambda: gen_two_plane_conics(0, GF101, 1)),
    ("gen-elliptic-quartic-m-0", ValueError, "m >= 1",
     lambda: gen_elliptic_quartic(0, GF101, 1)),
    ("gen-elliptic-quartic-q", InvalidFieldError, "odd prime",
     lambda: gen_elliptic_quartic(4, Q, 1)),
    ("gen-elliptic-quartic-gf2", InvalidFieldError, "odd prime",
     lambda: gen_elliptic_quartic(4, GF2, 1)),
    ("gen-on-configuration-count-mismatch", ValueError, "one positive count per plane",
     lambda: gen_on_configuration(PlaneConfiguration((LINE,)), (2, 2), GF101, 1)),
    ("gen-on-configuration-field-mismatch", InvalidFieldError, "must match",
     lambda: gen_on_configuration(PlaneConfiguration((LINE,)), (2,), GF7, 1)),
    # the second line keeps only 2 points the first does not hold
    ("gen-on-configuration-overlap-too-small", FieldTooSmallError, "could not place",
     lambda: gen_on_configuration(_two_lines_through_one_point_of_gf2_plane(), (3, 3), GF2, 1)),
    ("matroid-empty-ground-set", ValueError, "ground set must be nonempty",
     lambda: Matroid(0, lambda mask: 0)),
    ("matroid-from-empty-points", ValueError, "nonempty point set",
     lambda: Matroid.from_points(PointSet(GF101, 2, ()))),
    ("matroid-uniform-k-above-n", ValueError, "0 <= k <= n",
     lambda: Matroid.uniform(4, 3)),
    ("matroid-uniform-negative-k", ValueError, "0 <= k <= n",
     lambda: Matroid.uniform(-1, 3)),
    ("matroid-flats-without-ground-set", ValueError, "ground set must be among",
     lambda: Matroid.from_flat_list(3, [[], [0], [1], [2]])),
    # {0, 1} and {1, 2} at height 1 under {0, 1, 2}: r({0,1}) + r({1,2}) < r(E) + r({1})
    ("matroid-flats-not-submodular", ValueError, "not submodular",
     lambda: Matroid.from_flat_list(3, [[], [0, 1], [1, 2], [0, 1, 2]])),
    ("is-mcb-r-0", ValueError, "r >= 1",
     lambda: is_mcb(U23, 0)),
    ("flat-cover-negative-dim", ValueError, "must be >= 0",
     lambda: exists_flat_cover(U23, [1, -1])),
    ("proj-point-no-coordinates", EmptyInputError, "at least one coordinate",
     lambda: ProjPoint(GF101, ())),
    ("point-set-ambient-mismatch", ValueError, "ambient dimension differs",
     lambda: PointSet(GF101, 3, (ProjPoint(GF101, (1, 0, 0)),))),
    ("point-set-from-no-coords", EmptyInputError, "ambient_dim required",
     lambda: PointSet.from_coords(GF101, [])),
    ("flat-from-zero-rows", EmptyInputError, "only the origin",
     lambda: Flat.from_generators(GF101, 2, [[0, 0, 0], [0, 0, 0]])),
    ("plane-configuration-ambient-mismatch", ValueError, "share one ambient",
     lambda: PlaneConfiguration((LINE, SOLID_LINE))),
    ("intersect-ambient-mismatch", ValueError, "share one ambient",
     lambda: intersect(LINE, SOLID_LINE)),
    ("extend-whole-space", ValueError, "already the whole space",
     lambda: extend_to_hyperplane(span(list(PLANE_POINTS)), PLANE_POINTS)),
    ("extend-ambient-mismatch", ValueError, "share the flat's ambient",
     lambda: extend_to_hyperplane(LINE, SOLID_POINTS)),
    ("apply-matrix-wrong-shape", ValueError, "matrix shape",
     lambda: apply_matrix(PLANE_POINTS, [[1, 0], [0, 1]])),
    ("enumerate-points-over-q", InvalidFieldError, "over GF\\(p\\)",
     lambda: enumerate_points(Q, 2)),
]


@pytest.mark.parametrize("error, match, call",
                         [pytest.param(*case[1:], id=case[0]) for case in _CASES])
def test_out_of_range_input_raises_its_typed_error(error, match, call):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: gen_skew_lines(2, (2, 2), GF101, 1), id="skew-lines"),
    pytest.param(lambda: gen_two_plane_conics(2, GF101, 1), id="two-plane-conics"),
    pytest.param(lambda: gen_elliptic_quartic(4, GF101, 1), id="elliptic-quartic"),
])
def test_no_resample_budget_raises(monkeypatch, call):
    # with no draw allowed, each sampler reports its budget, never a partial set
    monkeypatch.setattr(generators, "RESAMPLE_BUDGET", 0)
    with pytest.raises(ResampleBudgetExceededError):
        call()
