"""Cover search: candidates, existence, minimality, the brute-force oracle."""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from cb_lab import (
    FieldSpec,
    Matroid,
    PointSet,
    ProjPoint,
    candidate_flats,
    enumerate_points,
    exists_cover,
    flats,
    gen_rnc,
    gen_skew_lines,
    gen_two_plane_conics,
    is_mcb,
    min_cover,
    span,
    verify_cover,
)
from cb_lab import cover, linalg
from cb_lab.errors import BudgetExceededError

from helpers import (
    candidate_flats_by_fractions,
    candidate_flats_oracle,
    candidate_levels_unsplit,
    clustered_point_set,
    components_by_separators,
    cover_oracle,
    exists_cover_eager,
    first_containing_plane,
    is_mcb_eager,
    min_cover_dim_by_partitions,
    min_cover_dim_by_rich_flats,
    min_cover_eager,
    mixed_rational_point_set,
    random_invertible_matrix,
    random_point_set,
    record_cover_flats,
    single_point_line_by_rank_scan,
)

GF2, GF3 = FieldSpec.prime(2), FieldSpec.prime(3)
GF7, GF101, Q = FieldSpec.prime(7), FieldSpec.prime(101), FieldSpec.rational()


@pytest.fixture(autouse=True)
def _assignment_is_the_first_containing_plane(monkeypatch):
    """Every cover found in this module assigns point i the index of the
    first plane of config.planes that contains it."""
    build = cover._result_from_chosen

    def checked(gamma, *args, **kwargs):
        res = build(gamma, *args, **kwargs)
        assert res.assignment == first_containing_plane(gamma, res.config)
        return res

    monkeypatch.setattr(cover, "_result_from_chosen", checked)


def _random_sets(field, n, count, seed):
    rng = random.Random(seed)
    return [random_point_set(field, n, rng.randint(2, count), rng) for _ in range(4)]


def _in_hyperplane(field, seed):
    # every point has last coordinate 0: the span is a hyperplane of P^3
    rng = random.Random(seed)
    pts = random_point_set(field, 2, 6, rng)
    return PointSet.from_coords(field, [list(pt.coords) + [0] for pt in pts])


def _plane_plus_three(field, seed):
    # 7 points in the plane x3 = x4 = 0 of P^4, then 3 points spanning P^4 with it
    rng = random.Random(seed)
    plane = [list(pt.coords) + [0, 0] for pt in random_point_set(field, 2, 7, rng)]
    return PointSet.from_coords(field, plane + [[2, 5, 1, 1, 0], [4, 0, 3, 0, 1], [1, 6, 2, 3, 5]])


def _all_of(field, n):
    return PointSet(field, n, tuple(enumerate_points(field, n)))


# (id, point sets, max_dim values): every max_dim from 1 to above the span
_ORACLE_CASES = [
    ("gf2-random", _random_sets(GF2, 3, 8, 1), (1, 2, 3)),
    ("gf2-all-of-p2", [_all_of(GF2, 2)], (1, 2, 4)),
    ("gf2-all-of-p3", [_all_of(GF2, 3)], (1, 2, 3)),
    ("gf3-random", _random_sets(GF3, 3, 9, 2), (1, 2, 3)),
    ("gf3-hyperplane", [_in_hyperplane(GF3, 3)], (1, 2, 3)),
    ("gf7-random", _random_sets(GF7, 4, 8, 4), (1, 2, 4)),
    ("gf7-skew-lines", [gen_skew_lines(2, (4, 5), GF7, seed=s)[0] for s in (0, 1)], (1, 2, 3)),
    ("gf7-two-plane-conics", [gen_two_plane_conics(4, GF7, seed=5)[0]], (1, 2, 3, 4)),
    ("gf7-rnc", [gen_rnc(3, 7, GF7, seed=6)], (1, 2, 3)),
    ("gf7-plane-plus-three", [_plane_plus_three(GF7, 14)], (1, 2, 3)),
    ("gf101-random", _random_sets(GF101, 3, 8, 7), (1, 2, 3)),
    ("gf101-hyperplane", [_in_hyperplane(GF101, 8)], (2, 5)),
    ("gf101-skew-lines", [gen_skew_lines(3, (4, 4, 4), GF101, seed=9)[0]], (1, 2, 3)),
    ("gf101-two-plane-conics", [gen_two_plane_conics(8, GF101, seed=4)[0]], (4,)),
    ("q-random", _random_sets(Q, 3, 7, 10), (1, 2, 3)),
    ("q-hyperplane", [_in_hyperplane(Q, 11)], (1, 3)),
    ("q-skew-lines", [gen_skew_lines(2, (4, 4), Q, seed=6)[0]], (1, 2, 3)),
    ("q-two-plane-conics", [gen_two_plane_conics(4, Q, seed=12)[0]], (2, 4)),
    ("q-rnc", [gen_rnc(3, 6, Q, seed=13)], (1, 2, 3)),
    ("q-mixed-denominators",
     [mixed_rational_point_set(3, 8, random.Random(s)) for s in (15, 17, 20, 26)], (1, 2, 3)),
    ("q-mixed-denominators-p4", [mixed_rational_point_set(4, 8, random.Random(18))], (1, 2, 4)),
    ("single-point", [PointSet.from_coords(f, [[1, 2, 3]]) for f in (GF7, Q)], (1, 2)),
]


@pytest.mark.parametrize(
    "sets,max_dims", [c[1:] for c in _ORACLE_CASES], ids=[c[0] for c in _ORACLE_CASES]
)
def test_candidate_flats_match_subset_oracle(sets, max_dims):
    for gamma in sets:
        for max_dim in max_dims:
            got = candidate_flats(gamma, max_dim)
            expect = candidate_flats_oracle(gamma, max_dim)
            assert [(c.flat.dim, c.flat.basis, c.mask) for c in got] == expect
            assert [type(x) for c in got for row in c.flat.basis for x in row] == [
                type(x) for e in expect for row in e[1] for x in row
            ]


_Q_CASES = [c for c in _ORACLE_CASES if c[0].startswith("q-")]


@pytest.mark.parametrize(
    "sets,max_dims", [c[1:] for c in _Q_CASES], ids=[c[0] for c in _Q_CASES]
)
def test_candidate_flats_over_q_match_fraction_oracle(sets, max_dims):
    # The integer level loop against the same loop on Fraction rows: equal
    # bases, masks and order, and every basis entry a Fraction.
    for gamma in sets:
        for max_dim in max_dims:
            got = candidate_flats(gamma, max_dim)
            assert [(c.flat.dim, c.flat.basis, c.mask) for c in got] == (
                candidate_flats_by_fractions(gamma, max_dim))
            assert all(type(x) is Fraction for c in got for row in c.flat.basis for x in row)


# (id, gamma, max_dim, residual calls): the counts pin the skip, which
# leaves out exactly the points of children already built on the parent.
# The two conics lie in skew planes, so their matroid is a direct sum of two
# rank-3 components of c points each, and candidate_flats builds every basis:
# - each conic's lines by the level loop, (c - 1) + ... + 1 = c(c - 1)/2,
#   and its plane from one line and one point: 1;
# - one residual per row outside the largest flat of each union: c^2 lines
#   of two points, 2c * c(c - 1)/2 planes of a line and a point, 2c solids
#   of a plane and a point, and (c(c - 1)/2)^2 solids of two lines and
#   2 * c(c - 1)/2 hyperplanes of a plane and a line, two rows each.
# c = 8: 2 * 29 + 64 + 448 + 16 + 2 * 784 + 2 * 56 = 2266;
# c = 5: 2 * 11 + 25 + 100 + 10 + 2 * 100 + 2 * 20 = 397.
# The rational normal curve is connected, so the level loop grows it whole.
_RESIDUAL_CASES = [
    ("gf101-two-plane-conics", gen_two_plane_conics(8, GF101, 0)[0], 4, 2266),
    ("q-two-plane-conics", gen_two_plane_conics(5, Q, 3)[0], 4, 397),
    ("gf101-rnc-p5", gen_rnc(5, 10, GF101, seed=1), 4, 627),
    ("gf2-all-of-p3", _all_of(GF2, 3), 3, 138),
]


def _residual_calls(gamma, max_dim, monkeypatch):
    """candidate_flats(gamma, max_dim) and the number of residuals it took
    (both field kinds take theirs through _residual_ops)."""
    calls = []
    residual_ops = cover._residual_ops

    def counted_ops(field):
        residual, insert = residual_ops(field)

        def counted(*args):
            calls.append(args)
            return residual(*args)

        return counted, insert

    monkeypatch.setattr(cover, "_residual_ops", counted_ops)
    return candidate_flats(gamma, max_dim), len(calls)


@pytest.mark.parametrize(
    "gamma,max_dim", [c[1:3] for c in _RESIDUAL_CASES], ids=[c[0] for c in _RESIDUAL_CASES]
)
def test_candidate_flats_reduce_each_point_once_per_new_child(gamma, max_dim, monkeypatch):
    # A residual is taken only for a point that lands in a child not built
    # before, outside its parent, so a child C of the level loop (inside one
    # component) costs at most |C| - dim C.  A union over several components
    # costs one residual per row outside its flat of largest rank.
    cands, calls = _residual_calls(gamma, max_dim, monkeypatch)
    parts = [mask for mask, _rank in cover._components(gamma)[1]]

    def cost(c):
        pieces = [c.mask & part for part in parts if c.mask & part]
        if len(pieces) == 1:
            return c.mask.bit_count() - c.flat.dim
        ranks = [linalg.rank([gamma[i].ints for i in cover._elements(piece)], gamma.field)
                 for piece in pieces]
        return c.flat.dim + 1 - max(ranks)

    assert 0 < calls <= sum(map(cost, cands))


@pytest.mark.parametrize(
    "gamma,max_dim,expect", [c[1:] for c in _RESIDUAL_CASES], ids=[c[0] for c in _RESIDUAL_CASES]
)
def test_candidate_flats_residual_count_is_pinned(gamma, max_dim, expect, monkeypatch):
    assert _residual_calls(gamma, max_dim, monkeypatch)[1] == expect


def _flag_set(field, n, size, rng):
    """Up to size distinct points of P^n on a random flag L_1 < ... < L_n =
    P^n, three on the line L_1 and each other one a small random combination
    of the generators of a random L_k: every L_k with more than k + 1 points
    is a dependent flat, and points on different levels span independent
    ones, so both kinds of child meet at the levels below n."""
    # echelon generators with unit pivots: a flag over every field
    gens = [[0] * k + [1] + [rng.randint(-3, 3) for _ in range(n - k)] for k in range(n + 1)]
    seen = {}
    for t in range(3 * size):
        k = 1 if t < 3 else rng.randint(1, n)
        coeffs = [rng.randint(-2, 2) for _ in range(k + 1)]
        v = [sum(a * row[j] for a, row in zip(coeffs, gens)) for j in range(n + 1)]
        if any(field.coerce(x) for x in v):
            pt = ProjPoint(field, v)
            seen.setdefault(pt.coords, pt)
        if len(seen) == size:
            break
    return PointSet(field, n, tuple(seen.values()))


@pytest.mark.parametrize("field", [GF2, GF3, GF101, Q], ids=["gf2", "gf3", "gf101", "q"])
def test_candidate_flats_match_oracle_on_flag_sets(field):
    rng = random.Random(2020 + (field.p or 0))
    top_level = 0
    for _ in range(6):
        n = rng.randint(2, 5)
        gamma = _flag_set(field, n, rng.randint(n + 2, 12), rng)
        got = candidate_flats(gamma, n)
        assert [(c.flat.dim, c.flat.basis, c.mask) for c in got] == (
            candidate_flats_oracle(gamma, n))
        # below the span, every level has dependent and independent flats
        kinds = {}
        for c in got:
            if c.mask != (1 << len(gamma)) - 1:
                kinds.setdefault(c.dim, set()).add(c.mask.bit_count() == c.dim + 1)
        assert all(k == {False, True} for k in kinds.values()), kinds
        top_level = max([top_level, *kinds])
    assert top_level >= 3


def test_by_point_lists_every_candidate_on_each_target_point_in_order():
    # Each target point's list is the level's sorted items() filtered to
    # the point, the same pairs (a child's CandidateFlat is built once);
    # the counts are read off the masks; no other point gets a list.
    def check(search):
        target = search.target
        points = cover._elements(target)
        search._options(len(search.levels))
        for k, (_cost, masks, items) in enumerate(search.levels):
            every = items(range(len(masks)))
            assert sorted(masks) == sorted(c[0] for c in every)
            assert search.counts[k] == [sum(m >> i & 1 for m in masks) if target >> i & 1 else 0
                                        for i in range(target.bit_length())]
            want = [[c for c in every if c[0] >> i & 1] for i in points]
            assert [search._index(k, i) for i in points] == want
            assert sorted(search.index[k]) == points

    rng = random.Random(5)
    for field in (GF3, GF101, Q):
        gamma = _flag_set(field, 4, 10, rng)
        rank, parts = cover._components(gamma)
        search = cover._point_search(gamma, rank - 1, parts, 4, 10**6)
        assert [cost for cost, _m, _i in search.levels] == [1, 2, 3, 4][:len(search.levels)]
        check(search)
        m = Matroid.from_points(gamma)
        hyperplanes = flats(m, m.full_rank - 1)[m.full_rank - 1]
        ground = (1 << m.size) - 1
        for x in range(m.size):
            # as is_mcb builds it (no candidate holds x), and with every
            # hyperplane, so that candidate masks reach outside the target
            for hs in ([h for h in hyperplanes if not h >> x & 1], hyperplanes):
                search = cover._CoverSearch(
                    [(1, hs, lambda js, hs=hs: [(hs[j],) * 2 for j in js])], ground & ~(1 << x), 10)
                check(search)
                assert x not in search.index[0]


def test_point_counts_match_a_count_per_mask():
    # every point on every mask (a count of exactly 2^k - 1 or 2^k fills
    # its field), points past the first byte, bits above the target's top
    # bit, points outside the target, and no mask at all
    rng = random.Random(32)
    cases = [([], 0b1011), ([0b111], 0b111), ([(1 << 20) - 1] * 8, (1 << 20) - 1),
             ([(1 << 20) - 1] * 7, (1 << 19) - 1)]
    for _ in range(200):
        n = rng.randint(1, 40)
        masks = [rng.getrandbits(n + 3) for _ in range(rng.choice((1, 3, 15, 16, 17, 64)))]
        cases.append((masks, rng.getrandbits(n) | 1 << n - 1))
    for masks, target in cases:
        want = [sum(m >> i & 1 for m in masks) if target >> i & 1 else 0
                for i in range(target.bit_length())]
        assert cover._point_counts(masks, target) == want, (masks, target)


def test_candidates_three_collinear(gf101):
    gamma = PointSet.from_coords(gf101, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    cands = candidate_flats(gamma, 1)
    assert len(cands) == 1
    assert cands[0].mask == 0b111


def test_candidates_four_generic_p3(gf101):
    gamma = PointSet.from_coords(
        gf101, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    cands = candidate_flats(gamma, 1)
    assert len(cands) == 6  # one line per pair
    assert all(c.mask.bit_count() == 2 for c in cands)


def test_candidates_two_skew_lines(gf101):
    pts, _cfg = gen_skew_lines(2, (5, 5), gf101, seed=3)
    cands = candidate_flats(pts, 1)
    assert len(cands) == 27  # 2 full lines + 25 cross lines
    sizes = sorted(c.mask.bit_count() for c in cands)
    assert sizes[-2:] == [5, 5] and sizes[0] == 2


def test_exists_cover_two_skew_lines(gf101):
    pts, cfg = gen_skew_lines(2, (5, 5), gf101, seed=3)
    res = exists_cover(pts, 2, 2)
    assert res.found and res.dim == 2 and res.length == 2
    assert verify_cover(pts, res.config)
    assert res.config == cfg
    assert res.assignment is not None and len(res.assignment) == 10


def test_exists_cover_tightness_rnc(gf101):
    gamma = gen_rnc(3, 8, gf101, seed=2)  # (d, r) = (2, 2) tight example
    res = exists_cover(gamma, 2, 2)
    assert not res.found and res.proof_of_minimality


def test_single_flat_covers_anything(gf101):
    rng = random.Random(19)
    gamma = random_point_set(gf101, 3, 6, rng)
    res = exists_cover(gamma, 3, 1)
    assert res.found and res.length == 1
    assert res.config.planes[0] == span(list(gamma))


def test_min_cover_collinear(gf101):
    gamma = PointSet.from_coords(gf101, [[1, 0, 0], [0, 1, 0], [1, 3, 0], [1, 5, 0]])
    res = min_cover(gamma)
    assert (res.dim, res.length) == (1, 1)
    assert res.proof_of_minimality


def test_min_cover_d_skew_lines(gf101):
    # r = 5, d = 3: r+2 = 7 points on each of 3 split lines
    pts, cfg = gen_skew_lines(3, (7, 7, 7), gf101, seed=6)
    res = min_cover(pts)
    assert (res.dim, res.length) == (3, 3)
    assert res.config == cfg


def test_min_cover_two_plane_conics(gf101):
    pts, cfg = gen_two_plane_conics(8, gf101, seed=4)
    res = min_cover(pts)
    assert (res.dim, res.length) == (4, 2)
    assert res.config == cfg


@pytest.mark.parametrize("gamma", [
    gen_two_plane_conics(5, Q, 3)[0],
    PointSet.from_coords(Q, [[1, 0, 0], [0, 1, 0], [1, 3, 0], [1, 5, 0]]),
], ids=["two-plane-conics", "collinear"])
def test_min_cover_over_q_builds_flats_only_for_chosen_planes(gamma, monkeypatch):
    # The search reads candidate masks and dimensions only: a Flat is built
    # for each chosen plane, and span(gamma) is not built again.
    built = record_cover_flats(monkeypatch)
    res = min_cover(gamma)
    top = span(list(gamma))
    assert sorted(f.basis for f in built) == sorted(
        pl.basis for pl in res.config.planes if pl != top)


@pytest.mark.parametrize("field", [GF101, Q], ids=["gf101", "q"])
def test_candidate_flat_is_built_on_first_read_and_kept(field):
    cands = candidate_flats(gen_two_plane_conics(5, field, 3)[0], 3)
    assert all(c.flat is c.flat and c.dim == c.flat.dim for c in cands)


def test_verify_cover(gf101):
    pts, cfg = gen_skew_lines(2, (5, 5), gf101, seed=3)
    assert verify_cover(pts, cfg)
    from cb_lab import PlaneConfiguration

    assert not verify_cover(pts, PlaneConfiguration((cfg.planes[0],)))
    assert verify_cover(PointSet(gf101, 3, ()), None)


def test_empty_and_degenerate_cases(gf101):
    empty = PointSet(gf101, 2, ())
    res = exists_cover(empty, 0, 1)
    assert res.found and res.dim == 0 and res.length == 0
    one = PointSet.from_coords(gf101, [[1, 2, 3]])
    assert not exists_cover(one, 0, 1).found
    got = exists_cover(one, 1, 1)
    assert got.found and got.dim == 1
    assert verify_cover(one, got.config)
    mc = min_cover(one)
    assert (mc.dim, mc.length) == (1, 1)
    with pytest.raises(ValueError):
        min_cover(empty)


def test_dimension_zero_is_answered_before_the_length_check(gf101):
    # a 0-dimensional configuration is empty, whatever its allowed length
    empty = PointSet(gf101, 2, ())
    one = PointSet.from_coords(gf101, [[1, 2, 3]])
    for d, max_length in ((0, 0), (0, -1), (-1, 0)):
        assert exists_cover(empty, d, max_length).to_json() == exists_cover(empty, 0, 1).to_json()
        res = exists_cover(one, d, max_length)
        assert not res.found and res.proof_of_minimality and res.nodes_explored == 0
    with pytest.raises(ValueError, match="max_length"):
        exists_cover(one, 1, 0)


@pytest.mark.parametrize("field", [GF7, Q], ids=["gf7", "q"])
@pytest.mark.parametrize(
    "coords", [[1, 0, 0, 0], [0, 0, 0, 1], [1, 2, 3, 4]], ids=["e0", "en", "generic"]
)
def test_single_point_cover_is_the_rank_scan_line(field, coords):
    one = PointSet.from_coords(field, [coords])
    line = single_point_line_by_rank_scan(one)
    for res in (exists_cover(one, 1, 1), exists_cover(one, 3, 2), min_cover(one)):
        assert res.found and res.config.planes == (line,) and res.assignment == (0,)
    assert min_cover(one).proof_of_minimality
    assert not exists_cover(one, 1, 1).proof_of_minimality


@pytest.mark.parametrize("field", [GF7, Q], ids=["gf7", "q"])
def test_single_point_of_p0_has_no_cover(field):
    one = PointSet.from_coords(field, [[1]])
    assert single_point_line_by_rank_scan(one) is None
    for res in (exists_cover(one, 1, 1), min_cover(one)):
        assert not res.found and res.config is None and res.proof_of_minimality


def test_search_agrees_with_oracle(gf101):
    rng = random.Random(404)
    for _ in range(30):
        n = rng.randint(2, 3)
        count = rng.randint(2, 8)
        gamma = random_point_set(gf101, n, count, rng)
        cands = candidate_flats(gamma, min(3, n))
        for d, ml in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
            got = exists_cover(gamma, d, ml)
            expect = cover_oracle(gamma, cands, d, ml)
            # oracle only sees spans of subsets up to its max_dim; add the
            # single-flat fallback the search also knows about
            expect = expect or (span(list(gamma)).dim <= d)
            assert got.found == expect, (d, ml, gamma.to_json())
            if got.found:
                assert verify_cover(gamma, got.config)
                assert got.dim <= d and got.length <= ml


def _oracle_sets(field, rng):
    """Random and clustered sets of 2 to 9 points in P^2 .. P^5."""
    for n in range(2, 6):
        cap = 9 if not field.is_prime_field else min(9, (field.p ** (n + 1) - 1) // (field.p - 1))
        for draw in [random_point_set] * 4 + [clustered_point_set] * 6:
            yield draw(field, n, rng.randint(2, cap), rng)


@pytest.mark.parametrize("field", [GF2, GF3, FieldSpec.prime(5), GF101, Q], ids=str)
def test_min_cover_dim_matches_partition_and_rich_flat_oracles(field):
    # Neither oracle reads candidate_flats: one minimises over the set
    # partitions of gamma, the other over sets of rich flats of brute-force spans.
    rng = random.Random(f"cover-dim-{field}")
    rich = 0
    for gamma in _oracle_sets(field, rng):
        want = min_cover_dim_by_partitions(gamma)
        assert min_cover_dim_by_rich_flats(gamma) == want, gamma.to_json()
        res = min_cover(gamma)
        assert res.dim == want and res.length <= res.dim, gamma.to_json()
        assert exists_cover(gamma, want, want).found
        assert not exists_cover(gamma, want - 1, max(want - 1, 1)).found
        rich += want < (len(gamma) + 1) // 2
    assert rich  # some set is covered below the cost of pairing its points on lines


@pytest.mark.parametrize("field", [GF3, GF101, Q], ids=str)
def test_min_cover_length_never_exceeds_its_dim(field):
    sets = [gen_rnc(k, 4, field, seed=k) for k in (2, 3, 4)]
    sets += [gen_skew_lines(2, (3, 3), field, seed=1)[0],
             gen_skew_lines(3, (3, 3, 2), field, seed=2)[0]]
    sets += [gen_two_plane_conics(4, field, seed=1)[0]] if field != GF3 else []
    for gamma in sets:
        res = min_cover(gamma)
        assert res.found and 1 <= res.length <= res.dim


def test_structured_sets_agree_with_oracle(gf101):
    rng = random.Random(11)
    for seed in range(6):
        pts, _ = gen_skew_lines(2, (rng.randint(2, 4), rng.randint(2, 4)), gf101, seed=seed)
        cands = candidate_flats(pts, 3)
        for d, ml in ((1, 1), (2, 1), (2, 2), (3, 3)):
            got = exists_cover(pts, d, ml)
            expect = cover_oracle(pts, cands, d, ml) or (span(list(pts)).dim <= d)
            assert got.found == expect


def test_min_cover_planes_are_spans_of_their_points(gf101):
    for seed in (3, 5):
        pts, _ = gen_skew_lines(2, (5, 5), gf101, seed=seed)
        res = min_cover(pts)
        for pl in res.config.planes:
            covered = [pt for pt in pts if pl.contains(pt)]
            assert span(covered) == pl


def test_budget_exceeded(gf101):
    pts, _ = gen_skew_lines(2, (5, 5), gf101, seed=3)
    with pytest.raises(BudgetExceededError):
        exists_cover(pts, 2, 2, node_budget=1)


def test_huge_budgets_search_as_saturating_ones():
    # No cover uses more planes than points, nor more dimension than that
    # many times the largest candidate's, so a budget of 10**6 must run the
    # search of a saturating budget, nodes included, and as fast.
    for gamma in (gen_skew_lines(3, (2, 2, 2), GF101, seed=0)[0], gen_rnc(3, 6, Q, seed=13)):
        saturating = len(gamma) * gamma.ambient_dim
        start = time.perf_counter()
        huge = exists_cover(gamma, 10**6, 10**6)
        assert time.perf_counter() - start < 1.0
        assert huge.to_json() == exists_cover(gamma, saturating, saturating).to_json()


def test_cover_determinism(gf101):
    pts, _ = gen_two_plane_conics(6, gf101, seed=12)
    a = min_cover(pts)
    b = min_cover(pts)
    assert a.config == b.config and a.assignment == b.assignment


def test_cover_result_json(gf101):
    pts, _ = gen_skew_lines(2, (3, 3), gf101, seed=1)
    res = exists_cover(pts, 2, 2)
    obj = res.to_json()
    assert obj["found"] and obj["dim"] == 2 and obj["length"] == 2
    assert "config" in obj and len(obj["config"]["planes"]) == 2
    assert obj["assignment"] is not None and len(obj["assignment"]) == 6
    assert all("basis" in pl for pl in obj["config"]["planes"])


def test_rational_cover_search():
    q = FieldSpec.rational()
    pts, cfg = gen_skew_lines(2, (4, 4), q, seed=6)
    res = min_cover(pts)
    assert (res.dim, res.length) == (2, 2)
    assert res.config == cfg


def _three_collinear(field, n, rng):
    """A random set of P^n with three points on one line."""
    gamma = random_point_set(field, n, rng.randint(3, 7), rng)
    a, b = gamma[0].coords, gamma[1].coords
    third = [x + y for x, y in zip(a, b)]
    pts = [pt for pt in gamma if pt != ProjPoint(field, third)]
    return PointSet(field, n, (pts[0], pts[1], ProjPoint(field, third), *pts[2:]))


def _low_span(field, n, k, rng):
    """A random set of P^n inside the span of k + 1 random points."""
    gens = [pt.coords for pt in random_point_set(field, n, k + 1, rng)]
    pts, seen = [], set()
    for _ in range(12):
        coeffs = [rng.randint(0, 3) for _ in gens]
        v = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n + 1)]
        if any(field.coerce(x) for x in v):
            pt = ProjPoint(field, v)
            if pt.coords not in seen:
                seen.add(pt.coords)
                pts.append(pt)
    return PointSet(field, n, tuple(pts))


@pytest.mark.parametrize("field", [GF2, GF3, GF101, Q], ids=["gf2", "gf3", "gf101", "q"])
def test_mask_root_bound_changes_no_byte(field):
    # exists_cover decides its root from masks and builds a level's bases
    # and index only when it tries that level: the JSON, nodes_explored and
    # config included, equals that of the search with all built first
    rng = random.Random(27 + (field.p or 0))
    roots = set()
    for t in range(30):
        n = rng.randint(2, 4)
        kind = t % 3
        if kind == 0:
            gamma = random_point_set(field, n, rng.randint(2, 9), rng)
        elif kind == 1:
            gamma = _three_collinear(field, n, rng)
        else:
            gamma = _low_span(field, n, rng.randint(1, 3), rng)
        for d in (1, 2, 3):
            for ml in (1, 2, 3):
                got = exists_cover(gamma, d, ml).to_json()
                assert got == exists_cover_eager(gamma, d, ml).to_json(), (d, ml, gamma.to_json())
                roots.add(got["nodes_explored"] == 1 and not got["found"])
    assert roots == {True, False}


def _two_conic_sets(field, rng):
    """Small two-plane-conic sets in P^5 (a conic over GF(p) has p + 1 points;
    smooth conics are sampled in odd characteristic only)."""
    if field.p == 2:
        return []
    most = min(4, field.p + 1) if field.p else 4
    return [gen_two_plane_conics(rng.randint(2, most), field, rng.randrange(10**6))[0]
            for _ in range(2)]


def _skew_line_sets(field, rng):
    most = min(4, field.p + 1) if field.p else 4
    return [gen_skew_lines(d, [rng.randint(1, most) for _ in range(d)], field,
                           rng.randrange(10**6))[0] for d in (2, 2, 3)]


@pytest.mark.parametrize("field", [GF2, GF3, GF101, Q], ids=["gf2", "gf3", "gf101", "q"])
def test_lazy_levels_change_no_byte(field):
    # min_cover, its MCB-trial form over the matroid's levels, and is_mcb
    # read each candidate level only when they try it; their JSON equals
    # that of the searches with every level sorted and indexed first
    rng = random.Random(28 + (field.p or 0))
    sets = [random_point_set(field, rng.randint(2, 4), rng.randint(2, 7), rng) for _ in range(6)]
    sets += _two_conic_sets(field, rng) + _skew_line_sets(field, rng)
    verdicts = set()
    for gamma in sets:
        want = min_cover_eager(gamma).to_json()
        assert min_cover(gamma).to_json() == want, gamma.to_json()
        m = Matroid.from_points(gamma)
        for r in (1, 2, 3, 4):
            got = is_mcb(m, r)
            assert got.to_json() == is_mcb_eager(m, r).to_json(), (r, gamma.to_json())
            verdicts.add(got.verdict)
        assert cover._min_cover(gamma, None, m._levels).to_json() == want
    assert verdicts == {True, False}


def _conics_cover_item(seed: int, k: int):
    """Item k of the benchmark's conics_cover workload at a seed: 16 points on
    two conics in P^5 over GF(101), drawn from the top 63 bits of
    sha256("conics_cover/<seed>/<k>")."""
    digest = hashlib.sha256(f"conics_cover/{seed}/{k}".encode()).digest()
    return gen_two_plane_conics(8, GF101, int.from_bytes(digest[:8], "big") >> 1)[0]


@pytest.mark.parametrize("seed", [1, 2])
def test_conics_min_cover_reads_only_lines_and_planes(seed, monkeypatch):
    # The sweep ends at (dim, length) = (4, 2), on a conic's plane tried
    # before any solid: levels 3 and 4 are counted from their masks, never
    # read, and no solid or hyperplane gets a basis.  The search branches
    # only on points 0 and 8 (one on each conic: points 0-7 and 8-15), and
    # builds each (level, point) list once.
    gamma = _conics_cover_item(seed, 0)
    assert cover._components(gamma)[1] == [(0xFF, 3), (0xFF00, 3)]
    candidates = len(candidate_flats(gamma, 4))
    inserts, read, points = [], [], set()
    residual_ops, items, index = cover._residual_ops, cover._Level.items, cover._CoverSearch._index

    def counted_ops(field):
        residual, insert = residual_ops(field)
        return residual, lambda *args: inserts.append(args) or insert(*args)

    def recorded_items(level, js=None):
        read.append(level.cost)
        return items(level, js)

    def recorded_index(search, k, i):
        points.add((search.costs[k], i))
        return index(search, k, i)

    monkeypatch.setattr(cover, "_residual_ops", counted_ops)
    monkeypatch.setattr(cover._Level, "items", recorded_items)
    monkeypatch.setattr(cover._CoverSearch, "_index", recorded_index)
    got = min_cover(gamma)
    assert (got.dim, got.length) == (4, 2)
    assert points == {(1, 0), (1, 8), (2, 0), (2, 8)} and sorted(read) == [1, 1, 2, 2]
    # one pivot insert per line and plane built: the 29 lines through
    # point 0 or 8 (7 + 7 in their conics, 8 + 8 - 1 joining them), the
    # 156 planes through 0 or 8 (85 each, 14 through both: a line of one
    # conic and a point of the other, or a conic's plane), and the 2 * 21
    # lines of one conic missing its point 0 or 8 that such a plane is
    # built from
    assert len(inserts) == 29 + 156 + 42 == 227 < candidates == 1426
    monkeypatch.undo()
    assert got.to_json() == min_cover_eager(gamma).to_json()


class _CountedFlat(cover.CandidateFlat):
    made = 0

    def __init__(self, *args):
        super().__init__(*args)
        _CountedFlat.made += 1


def _recorded_searches(monkeypatch) -> list:
    """Every _CoverSearch that cb_lab.cover makes from here on; CandidateFlat
    constructions are counted in _CountedFlat.made."""
    searches = []

    class Recorded(cover._CoverSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(cover, "_CoverSearch", Recorded)
    monkeypatch.setattr(cover, "CandidateFlat", _CountedFlat)
    _CountedFlat.made = 0
    return searches


def test_root_pruned_cover_builds_no_candidate_and_no_index(monkeypatch):
    from cb_lab import gen_elliptic_quartic

    quartic = gen_elliptic_quartic(9, GF101, 1)
    rnc = gen_rnc(3, 8, GF101, seed=2)  # (d, r) = (2, 2) tightness set
    searches = _recorded_searches(monkeypatch)
    spans = []
    monkeypatch.setattr(cover, "span", lambda objs: spans.append(objs) or span(objs))
    for gamma in (quartic, rnc):
        searches.clear()
        res = exists_cover(gamma, 2, 2)
        assert (res.found, res.nodes_explored, res.proof_of_minimality) == (False, 1, True)
        assert len(searches) == 1 and searches[0].index == [{}] * len(searches[0].levels)
        assert _CountedFlat.made == 0 and spans == []
    # the node-budget check at the root stays
    with pytest.raises(BudgetExceededError):
        exists_cover(quartic, 2, 2, node_budget=0)


@pytest.mark.parametrize("gamma,d", [
    (gen_skew_lines(2, (5, 5), GF101, seed=3)[0], 2),
    (gen_two_plane_conics(6, GF101, seed=12)[0], 4),
    (gen_skew_lines(2, (4, 3), Q, seed=7)[0], 2),
    (gen_two_plane_conics(5, Q, seed=3)[0], 4),
], ids=["gf101-skew-lines", "gf101-conics", "q-skew-lines", "q-conics"])
def test_branching_cover_takes_the_residuals_of_candidate_flats_once(gamma, d, monkeypatch):
    # the root branches, so the top level is finished from the residuals
    # its mask growth took, not taken again.  The unions of a direct sum
    # take theirs when their basis is built, and the search builds only
    # the candidates on the points it branches on: on the 5 + 5 skew lines
    # the 11 lines through points 0 and 5 of the 27, and on the conics no
    # solid of two lines.
    cap = min(d - 1, gamma.ambient_dim)
    _cands, alone = _residual_calls(gamma, cap, monkeypatch)
    monkeypatch.undo()
    calls = []
    residual_ops = cover._residual_ops

    def counted_ops(field):
        residual, insert = residual_ops(field)

        def counted(*args):
            calls.append(args)
            return residual(*args)

        return counted, insert

    searches = _recorded_searches(monkeypatch)
    monkeypatch.setattr(cover, "_residual_ops", counted_ops)
    res = exists_cover(gamma, d, d)
    assert res.found and res.nodes_explored > 1
    assert searches[0].index[0]
    assert 0 < len(calls) < alone


def _block_diagonal_set(field, n, rng):
    """Random points of P^n, each supported on one block of a random split
    of the coordinates into two to four blocks, moved by one random
    invertible matrix and shuffled: the blocks' spans are independent, so
    the matroid is a direct sum, with finer components where a block's
    points are themselves independent (a block's lone point is a coloop)."""
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
    mat = random_invertible_matrix(field, n, rng)
    pts, seen = [], set()
    for lo, hi in zip([0] + cuts, cuts + [n + 1]):
        for _ in range(rng.randint(1, 4)):
            v = [0] * (n + 1)
            for j in range(lo, hi):
                v[j] = rng.randrange(field.p) if field.p else rng.randint(-4, 4)
            if any(v):
                pt = ProjPoint(field, [sum(a * x for a, x in zip(row, v)) for row in mat])
                if pt.coords not in seen:
                    seen.add(pt.coords)
                    pts.append(pt)
    rng.shuffle(pts)
    return PointSet(field, n, tuple(pts))


def _split_cases(field, rng):
    """Skew lines, two-plane conics, block-diagonal and plain random sets."""
    sets = _skew_line_sets(field, rng) + _two_conic_sets(field, rng)
    sets += [_block_diagonal_set(field, rng.randint(2, 5), rng) for _ in range(40)]
    sets += [random_point_set(field, n, rng.randint(n + 2, 7), rng) for n in (2, 2, 2, 3)]
    return sets


def _read_in_random_order(search, rng) -> dict:
    """Every target point's list on every level of search, read in a random
    order with some points read twice, as {(level, point): list}; checks
    that a candidate on two points is one item in both lists."""
    points = cover._elements(search.target)
    order = points + rng.choices(points, k=len(points))
    rng.shuffle(order)
    got, items = {}, {}
    for i in order:
        for k in rng.sample(range(len(search.levels)), len(search.levels)):
            pairs = got.setdefault((k, i), search._index(k, i))
            assert search._index(k, i) == pairs
            for mask, item in pairs:
                assert items.setdefault((k, mask), item) is item
    return got


@pytest.mark.parametrize("field", [GF2, GF3, GF101, Q], ids=["gf2", "gf3", "gf101", "q"])
def test_point_lists_read_in_any_order_are_the_eager_levels_filtered(field, monkeypatch):
    # A level's list on point i, read in any order and any number of times,
    # is the whole level in (dim, basis) order, from the subset oracle,
    # filtered to i; span(gamma) is built once per search.  On connected
    # sets, direct sums and the searches of is_mcb, whose lists keep the
    # order of its hyperplanes.
    import cb_lab.matroid

    rng = random.Random(32 + (field.p or 0))
    sets = [random_point_set(field, n, rng.randint(n + 2, 7), rng) for n in (2, 3, 3, 4)]
    sets += [_block_diagonal_set(field, rng.randint(2, 4), rng) for _ in range(6)]
    sets += _skew_line_sets(field, rng) + _two_conic_sets(field, rng)
    spans, searches = [], []

    class Recorded(cover._CoverSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(cover, "span", lambda objs: spans.append(objs) or span(objs))
    monkeypatch.setattr(cb_lab.matroid, "_CoverSearch", Recorded)
    split = set()
    for gamma in sets:
        if len(gamma) < 2:
            continue
        rank, parts = cover._components(gamma)
        split.add(len(parts) > 1)
        eager = candidate_flats_oracle(gamma, rank - 1)
        search = cover._point_search(gamma, rank - 1, parts, rank - 1, 10**6)
        spans.clear()
        for (k, i), pairs in _read_in_random_order(search, rng).items():
            want = [(mask, basis) for dim, basis, mask in eager
                    if dim == search.costs[k] and mask >> i & 1]
            assert [(mask, c.flat.basis) for mask, c in pairs] == want, (k, i, gamma.to_json())
        assert len(spans) == 1
        m = Matroid.from_points(gamma)
        for r in (1, 2, 3):
            searches.clear()
            is_mcb(m, r)
            for search in searches:
                ((_cost, hyperplanes, _items),) = search.levels
                for (_k, i), pairs in _read_in_random_order(search, rng).items():
                    assert pairs == [(h, h) for h in hyperplanes if h >> i & 1]
    assert split == {False, True}


@pytest.mark.parametrize("field", [GF2, GF3, GF101, Q], ids=["gf2", "gf3", "gf101", "q"])
def test_components_match_the_separator_oracle(field):
    # the rank and the minimal separators, coloops and three or more
    # components included
    rng = random.Random(31 + (field.p or 0))
    seen = set()
    for gamma in _split_cases(field, rng):
        got = cover._components(gamma)
        assert got == components_by_separators(gamma), gamma.to_json()
        rank, parts = got
        assert rank == linalg.rank([pt.ints for pt in gamma], field)
        seen.add(min(len(parts), 3))
        seen.add("coloop" if any(r == 1 for _m, r in parts) and len(gamma) > 1 else "none")
    assert {1, 2, 3, "coloop"} <= seen


@pytest.mark.parametrize("field", [GF2, GF3, GF101, Q], ids=["gf2", "gf3", "gf101", "q"])
def test_direct_sum_levels_match_the_unsplit_loop(field):
    # every level of a direct sum holds the (mask, raw basis) pairs of the
    # level loop run on the whole set, at every max_dim
    rng = random.Random(131 + (field.p or 0))
    sums = 0
    for gamma in _split_cases(field, rng):
        parts = cover._components(gamma)[1]
        sums += len(parts) > 1
        for max_dim in range(1, gamma.ambient_dim + 2):
            levels = cover._grow(gamma, max_dim, parts)
            got = [sorted((mask, level.basis(j)[0]) for j, mask in enumerate(level.masks))
                   for level in levels]
            assert got == candidate_levels_unsplit(gamma, max_dim), (max_dim, gamma.to_json())
    assert sums >= 36


def test_direct_sum_masks_are_read_without_decoding_a_union(monkeypatch):
    # a two-conic set's levels are read off their masks alone by the root
    # bound and the branching counts, which decode no union's flats; a
    # union is decoded on its first basis() read, once
    gamma = _conics_cover_item(1, 0)
    full = (1 << len(gamma)) - 1
    decoded = []
    getitem = cover._Unions.__getitem__
    monkeypatch.setattr(cover._Unions, "__getitem__",
                        lambda unions, j: decoded.append(j) or getitem(unions, j))
    refused = exists_cover(gamma, 4, 1)  # no solid holds 16 points
    assert not refused.found and refused.nodes_explored == 1
    levels = cover._grow(gamma, 4, cover._components(gamma)[1])
    assert [len(level.masks) for level in levels] == [120, 450, 800, 56]
    for level in levels:
        counts = cover._point_counts(level.masks, full)
        assert counts == [sum(mask >> i & 1 for mask in level.masks) for i in range(len(gamma))]
    assert decoded == []
    solids = levels[2]
    for j in (0, 799, 799):
        solids.basis(j)
    assert decoded == [0, 799]


def test_covers_and_lattices_run_one_elimination_for_the_components(monkeypatch):
    # dim span(gamma) and the point matroid's full rank come with the
    # components, from one echelon; the growth of a direct sum runs none
    gamma = gen_two_plane_conics(5, GF101, seed=3)[0]
    calls = []
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda *args: calls.append(args) or echelon(*args))
    for run in (lambda: min_cover(gamma), lambda: exists_cover(gamma, 4, 2),
                lambda: flats(Matroid.from_points(gamma), 5)):
        calls.clear()
        run()
        assert len(calls) == 1
