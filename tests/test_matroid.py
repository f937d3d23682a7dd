"""Matroids: rank oracles, flats, MCB(r), flat covers."""

import math
import random
import time

import pytest

from cb_lab import (
    FieldSpec,
    Matroid,
    PointSet,
    enumerate_points,
    exists_flat_cover,
    flats,
    gen_plane_curve_ci,
    gen_rnc,
    gen_skew_lines,
    is_cb,
    is_mcb,
    min_cover,
)
from cb_lab import cover
from cb_lab.errors import GroundTooLargeError
from cb_lab.matroid import McbReport, _elements, _mask_of

from helpers import clustered_point_set, random_point_set

GF2, GF3 = FieldSpec.prime(2), FieldSpec.prime(3)
GF101, Q = FieldSpec.prime(101), FieldSpec.rational()


def _random_sets(field, n, seed):
    rng = random.Random(seed)
    return [random_point_set(field, n, rng.randint(2, 8), rng) for _ in range(3)]


def _collinear(field):
    return PointSet.from_coords(field, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


# point sets whose flats come from candidate_flats, checked against closure
_FLAT_ENGINE_CASES = [
    ("gf2-point", [PointSet.from_coords(GF2, [[0, 1, 1]])]),
    ("gf2-collinear", [_collinear(GF2)]),
    ("gf2-all-of-p2", [PointSet(GF2, 2, tuple(enumerate_points(GF2, 2)))]),
    ("gf2-random", _random_sets(GF2, 3, 1)),
    ("gf3-collinear", [PointSet.from_coords(GF3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0]])]),
    ("gf3-skew-lines", [gen_skew_lines(2, (3, 3), GF3, seed=s)[0] for s in (0, 1)]),
    ("gf3-rnc", [gen_rnc(3, 4, GF3, seed=2)]),
    ("gf3-random", _random_sets(GF3, 3, 2)),
    ("gf101-point", [PointSet.from_coords(GF101, [[1, 2, 3, 4]])]),
    ("gf101-collinear", [_collinear(GF101)]),
    ("gf101-skew-lines", [gen_skew_lines(3, (3, 2, 2), GF101, seed=4)[0]]),
    ("gf101-rnc", [gen_rnc(3, 7, GF101, seed=5), gen_rnc(4, 8, GF101, seed=6)]),
    ("gf101-random", _random_sets(GF101, 4, 3)),
    ("q-point", [PointSet.from_coords(Q, [[1, 2]])]),
    ("q-collinear", [_collinear(Q)]),
    ("q-skew-lines", [gen_skew_lines(2, (4, 3), Q, seed=7)[0]]),
    ("q-rnc", [gen_rnc(3, 6, Q, seed=8)]),
    ("q-random", _random_sets(Q, 3, 4)),
]


def test_three_collinear_is_u23(gf101):
    gamma = PointSet.from_coords(gf101, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    m = Matroid.from_points(gamma)
    u = Matroid.uniform(2, 3)
    for mask in range(8):
        assert m.rank(mask) == u.rank(mask)


def test_four_generic_is_u34(gf101):
    gamma = PointSet.from_coords(gf101, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    m = Matroid.from_points(gamma)
    u = Matroid.uniform(3, 4)
    for mask in range(16):
        assert m.rank(mask) == u.rank(mask)


def test_skew_lines_matroid(gf101):
    pts, cfg = gen_skew_lines(2, (5, 5), gf101, seed=3)
    m = Matroid.from_points(pts)
    assert m.full_rank == 4
    lat = flats(m, 2)
    line_flats = [f for f in lat[2] if f.bit_count() == 5]
    assert sorted(line_flats) == [0b11111, 0b1111100000]


@pytest.mark.parametrize(
    "sets", [c[1] for c in _FLAT_ENGINE_CASES], ids=[c[0] for c in _FLAT_ENGINE_CASES]
)
def test_point_flats_match_closure_enumeration(sets):
    for gamma in sets:
        m = Matroid.from_points(gamma)
        sourceless = Matroid(len(gamma), m.rank)  # no points: flats by closure
        for max_rank in range(m.full_rank + 2):
            got = flats(m, max_rank)
            assert list(got.items()) == list(flats(sourceless, max_rank).items())


@pytest.mark.parametrize(
    "sets", [c[1] for c in _FLAT_ENGINE_CASES], ids=[c[0] for c in _FLAT_ENGINE_CASES]
)
def test_kept_lattice_matches_fresh_builds(sets):
    rng = random.Random(len(sets))
    for gamma in sets:
        top = Matroid.from_points(gamma).full_rank
        ranks = list(range(-1, top + 3))
        fresh = {rk: flats(Matroid.from_points(gamma), rk) for rk in ranks}
        for order in (ranks, ranks[::-1], rng.sample(ranks, len(ranks))):
            m = Matroid.from_points(gamma)
            sourceless = Matroid(len(gamma), m.rank)
            for rk in order:
                assert list(flats(m, rk).items()) == list(fresh[rk].items())
                assert flats(sourceless, rk) == fresh[rk]


def test_mcb_then_flat_cover_builds_the_lattice_once(gf101, monkeypatch):
    import cb_lab.matroid

    calls = []
    grow = cb_lab.matroid._grow
    monkeypatch.setattr(cb_lab.matroid, "_grow", lambda *args: calls.append(args) or grow(*args))
    m = Matroid.from_points(gen_rnc(3, 7, gf101, seed=5))
    assert m.full_rank == 4
    flats(m, 2)  # a low first rank still builds the whole lattice
    is_mcb(m, 2)
    assert exists_flat_cover(m, [3]) is not None  # the span of everything, at full rank
    exists_flat_cover(m, [1, 1])
    flats(m, m.full_rank)
    assert len(calls) == 1


def test_closure_lattice_is_built_once(monkeypatch):
    closures = []
    closure = Matroid.closure
    monkeypatch.setattr(Matroid, "closure",
                        lambda self, subset: closures.append(subset) or closure(self, subset))
    u = Matroid.uniform(3, 6)

    def every_reader():
        return [flats(u, 1), is_mcb(u, 2), exists_flat_cover(u, [1, 1]), flats(u, 3)]

    first = every_reader()
    built = len(closures)
    assert built > 0
    assert every_reader() == first
    assert len(closures) == built


def test_flats_uniform():
    u23 = Matroid.uniform(2, 3)
    lat = flats(u23, 1)
    assert lat[0] == (0,)
    assert sorted(lat[1]) == [1, 2, 4]  # the three singletons
    u34 = Matroid.uniform(3, 4)
    lat2 = flats(u34, 2)
    assert len(lat2[2]) == 6  # the six pairs
    assert all(f.bit_count() == 2 for f in lat2[2])


def test_mcb_u23_true_and_brute_force():
    u23 = Matroid.uniform(2, 3)
    rep = is_mcb(u23, 1)
    assert rep.verdict
    # brute force: every proper flat avoiding x misses at least one other point
    lat = flats(u23, 1)
    proper = [f for masks in lat.values() for f in masks if f != 0b111]
    for x in range(3):
        target = 0b111 & ~(1 << x)
        assert not any(f & target == target and not f >> x & 1 for f in proper)


def test_mcb_single_element_false(gf101):
    m = Matroid.from_points(PointSet.from_coords(gf101, [[1, 2, 3]]))
    rep = is_mcb(m, 1)
    assert not rep.verdict
    assert rep.excluded_element == 0


def test_cb_implies_mcb(gf101):
    cases = [
        gen_plane_curve_ci(3, 3, gf101, seed=1),   # CB(3), 9 points
        gen_plane_curve_ci(2, 2, gf101, seed=2),   # CB(1), 4 points
        gen_rnc(2, 6, gf101, seed=3),              # CB(2), 6 points
        gen_skew_lines(2, (5, 5), gf101, seed=4)[0],  # CB(3), 10 points
    ]
    for gamma, r in zip(cases, (3, 1, 2, 3)):
        assert is_cb(gamma, r).verdict
        assert is_mcb(Matroid.from_points(gamma), r).verdict


def test_flat_cover_needs_a_dimension():
    with pytest.raises(ValueError, match="at least one flat dimension"):
        exists_flat_cover(Matroid.uniform(2, 3), [])


def test_flat_cover_examples(gf101):
    u23 = Matroid.uniform(2, 3)
    got = exists_flat_cover(u23, [1])
    assert got == [[0, 1, 2]]  # the ground set as the rank-2 flat
    pts, _ = gen_skew_lines(2, (5, 5), gf101, seed=3)
    m = Matroid.from_points(pts)
    got2 = exists_flat_cover(m, [1, 1])
    assert got2 is not None
    assert sorted(map(sorted, got2)) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    u37 = Matroid.uniform(3, 7)
    assert exists_flat_cover(u37, [1]) is None  # rank-2 flats have 2 elements


def test_geometric_cover_induces_flat_cover(gf101):
    for seed in (3, 5):
        pts, _ = gen_skew_lines(2, (4, 4), gf101, seed=seed)
        mc = min_cover(pts)
        dims = sorted((pl.dim for pl in mc.config.planes), reverse=True)
        m = Matroid.from_points(pts)
        got = exists_flat_cover(m, dims)
        assert got is not None
        union = set()
        for f in got:
            union.update(f)
        assert union == set(range(len(pts)))


def test_rank_axioms_fuzz(gf101):
    matroids = [
        Matroid.uniform(3, 6),
        Matroid.fano(),
        Matroid.from_points(gen_rnc(3, 7, gf101, seed=5)),
        Matroid.from_points(gen_skew_lines(2, (4, 4), gf101, seed=6)[0]),
    ]
    rng = random.Random(123)
    for m in matroids:
        full = (1 << m.size) - 1
        assert m.rank(0) == 0
        for _ in range(1000):
            a = rng.randrange(full + 1)
            b = rng.randrange(full + 1)
            ra, rb = m.rank(a), m.rank(b)
            assert m.rank(a | b) + m.rank(a & b) <= ra + rb
            assert ra <= m.rank(a | b) and rb <= m.rank(a | b)
            assert ra <= a.bit_count()


def test_fano_plane():
    f = Matroid.fano()
    assert f.size == 7 and f.full_rank == 3
    lat = flats(f, 2)
    lines = lat[2]
    assert len(lines) == 7 and all(f2.bit_count() == 3 for f2 in lines)
    # the Fano plane: removing any point, the rest is covered by lines
    # avoiding it only partially; MCB(2) verdicts are well defined either way
    rep = is_mcb(f, 2)
    assert isinstance(rep.verdict, bool)


def _maximal_flats_avoiding(m: Matroid, x: int):
    """Maximal proper flats avoiding x, by brute force: every closed subset of
    the ground set, then the pairwise containment filter."""
    ground = (1 << m.size) - 1
    closed = [
        mask for mask in range(ground)
        if all(m.rank(mask | 1 << e) > m.rank(mask) for e in _elements(ground & ~mask))
    ]
    avoid = [f for f in closed if not f >> x & 1]
    return [f for f in avoid if not any(o != f and f & o == f for o in avoid)]


def _hyperplane_cases():
    rng = random.Random(17)
    cases = [Matroid.fano(), Matroid.from_flat_list(5, [
        [], [0], [1], [2], [3], [4], [0, 1, 2], [0, 3], [1, 3], [2, 3],
        [0, 4], [1, 4], [2, 4], [3, 4], [0, 1, 2, 3, 4],
    ])]
    cases += [Matroid.uniform(k, n) for n in range(1, 7) for k in range(min(4, n) + 1)]
    for field in (GF2, GF3, FieldSpec.prime(5), FieldSpec.prime(7), Q):
        for n in (2, 3):
            for _ in range(4):
                gamma = random_point_set(field, n, rng.randint(1, 8), rng)
                cases.append(Matroid.from_points(gamma))
    return cases


def test_hyperplanes_avoiding_x_are_the_maximal_flats_avoiding_x():
    # Every flat is an intersection of hyperplanes, so is_mcb may search the
    # hyperplanes avoiding x alone; the old pairwise filter is the oracle.
    for m in _hyperplane_cases():
        rk = m.full_rank
        hyperplanes = flats(m, max(rk - 1, 0)).get(rk - 1, ())
        for x in range(m.size):
            got = [h for h in hyperplanes if not h >> x & 1]
            assert got == _maximal_flats_avoiding(m, x), (m.label, x)


def test_is_mcb_on_a_large_lattice_is_fast(gf101):
    # 16 points of a rational normal curve in P^4 have 2517 flats; a pairwise
    # maximality filter over them took about 5 s.
    m = Matroid.from_points(gen_rnc(4, 16, gf101, seed=1))
    start = time.perf_counter()
    assert is_mcb(m, 3).verdict
    assert time.perf_counter() - start < 0.5


def test_matroid_json_round_trip(gf101):
    gamma = gen_rnc(2, 5, gf101, seed=9)
    m = Matroid.from_points(gamma)
    obj = m.to_json()
    assert "matrix" in obj
    back = Matroid.from_json(obj)
    for mask in range(1 << 5):
        assert back.rank(mask) == m.rank(mask)
    u = Matroid.uniform(2, 4)
    obj2 = u.to_json()
    assert "flats" in obj2
    back2 = Matroid.from_json(obj2)
    for mask in range(1 << 4):
        assert back2.rank(mask) == u.rank(mask)


def test_flat_list_input_is_checked_where_it_enters():
    # {0, 2} closes to the ground set, of height 3: rank exceeds cardinality.
    sets = [[], [0], [1], [2], [0, 1], [0, 1, 2]]
    with pytest.raises(ValueError, match="rank oracle exceeds cardinality"):
        Matroid.from_flat_list(3, sets)
    with pytest.raises(ValueError, match="rank oracle exceeds cardinality"):
        Matroid.from_json({"flats": sets})


@pytest.mark.parametrize("obj", [
    {}, [], {"flats": None}, {"flats": "01"}, {"flats": [[0, 1], "x"]}, {"flats": []},
    {"flats": [[]]}, {"flats": [[0, -1], [0]]}, {"flats": [[0, 1.5]]}, {"flats": [[True]]},
])
def test_matroid_from_json_raises_typed_errors(obj):
    with pytest.raises(ValueError, match="malformed matroid JSON"):
        Matroid.from_json(obj)


def test_ground_too_large(gf101):
    u = Matroid.uniform(2, 21)
    with pytest.raises(GroundTooLargeError):
        flats(u, 1)
    with pytest.raises(GroundTooLargeError):
        is_mcb(u, 1)


def test_mask_helpers():
    assert _mask_of([0, 2, 5]) == 0b100101
    assert _elements(0b100101) == [0, 2, 5]


def _is_mcb_by_searches(m: Matroid, r: int) -> McbReport:
    """is_mcb with a full cover search, index built first, for every element
    (the reference for its per-element size pre-check)."""
    rk = m.full_rank
    hyperplanes = flats(m, rk - 1).get(rk - 1, ())
    ground = (1 << m.size) - 1
    for x in range(m.size):
        candidates = [h for h in hyperplanes if not h >> x & 1]
        search = cover._CoverSearch([(1, candidates, lambda hs=candidates: zip(hs, hs))],
                                    ground & ~(1 << x), math.inf)
        assert search._index(0) is not None
        got = search.run(r, r)
        if got is not None:
            if not got and candidates:
                got = (candidates[0],)
            return McbReport(r, False, tuple(tuple(_elements(f)) for f in got), x)
    return McbReport(r, True)


def test_is_mcb_pre_check_matches_every_search_built():
    rng = random.Random(27)
    cases = _hyperplane_cases()
    for field in (GF3, GF101, Q):
        for _ in range(6):
            cases.append(Matroid.from_points(clustered_point_set(field, 3, rng.randint(4, 9), rng)))
    verdicts = set()
    for m in cases:
        for r in (1, 2, 3, 4):
            got = is_mcb(m, r)
            assert got == _is_mcb_by_searches(m, r), (m.label, r)
            verdicts.add(got.verdict)
    assert verdicts == {True, False}
