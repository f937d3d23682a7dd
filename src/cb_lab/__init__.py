"""cb-lab: exact-arithmetic Cayley-Bacharach experiments.

A library and CLI for deciding the Cayley-Bacharach condition CB(r) on
finite sets of points in projective space, finding minimal plane-
configuration covers, reproducing the standard example families, and
running randomized or exhaustive verification campaigns, including the
matroid analog MCB(r).  All arithmetic is exact: GF(p) residues or
arbitrary-precision rationals.
"""

from .campaign import (
    CampaignReport,
    CampaignSpec,
    counterexample_search,
    exhaustive_lower_bound,
    replay_record,
    run_campaign,
)
from .cb import CbReport, CbWitness, excise, is_cb, max_cb
from .cover import (
    CandidateFlat,
    CoverResult,
    candidate_flats,
    exists_cover,
    min_cover,
    verify_cover,
)
from .fields import FieldSpec
from .forms import (
    EvalMatrix,
    MonomialBasis,
    eval_matrix,
    evaluate_form,
    monomial_basis,
)
from .generators import (
    GenSpec,
    gen_elliptic_quartic,
    gen_on_configuration,
    gen_plane_curve_ci,
    gen_rnc,
    gen_skew_lines,
    gen_two_plane_conics,
    generate,
)
from .matroid import (
    Matroid,
    McbReport,
    exists_flat_cover,
    flats,
    is_mcb,
)
from .projective import (
    Flat,
    PlaneConfiguration,
    PointSet,
    ProjPoint,
    apply_matrix,
    enumerate_points,
    extend_to_hyperplane,
    intersect,
    is_skew,
    is_split,
    merge_intersecting,
    span,
)

__version__ = "0.1.0"
