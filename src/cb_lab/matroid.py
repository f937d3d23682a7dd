"""Abstract matroids, flat enumeration, and the matroid Cayley-Bacharach check.

A matroid here is a ground set 0..n-1 with an exact rank oracle, backed by a
representing point set, by a list of flats, or analytically (uniform
matroids).  Its flat lattice is a plain {rank: sorted tuple of masks} dict,
built once per matroid.  The flats of a point matroid are the masks of
cover's candidate levels, read with no basis built: a rank-(k+1) flat is the
point mask of a dim-k span of a subset.  A point matroid's full rank comes
from cover._components with its connected components, which those levels
are grown by.  Closure enumeration is used only for abstract matroids,
which have no points to span.

Only from_flat_list (behind from_json's "flats") spot-checks the rank axioms,
as its ranks come from an input family that may not be a flat lattice; matrix
rank (from_points) and min(k, |S|) (uniform) are rank functions by theorem.

MCB(r) asks that no union of r flats contain all elements but one.  Every
flat is the intersection of the hyperplanes (corank-1 flats) that contain it
(Oxley, Matroid Theory, 1.7), so a flat avoiding an element lies in a
hyperplane avoiding it: the search runs over those hyperplanes only, on the
same branch and bound as the point covers (cost 1 per flat).

flats refuses ground sets above 20 elements; flat enumeration is exponential.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import linalg
from .cover import _components, _CoverSearch, _elements, _grow
from .errors import GroundTooLargeError
from .fields import FieldSpec
from .projective import PointSet

GROUND_CAP = 20


def _mask_of(subset) -> int:
    mask = 0
    for e in subset:
        mask |= 1 << e
    return mask


class Matroid:
    """Ground set {0..size-1} with a memoized exact rank oracle; rank_fn is trusted
    (only from_flat_list spot-checks).  points is set by from_points.  The
    rank -> masks dict of its flats up to rank full_rank - 1 is built once,
    by the first flats() call, and kept, with the candidate levels a point
    matroid reads it from."""

    def __init__(self, size: int, rank_fn, label: str = "matroid", points=None):
        if size < 1:
            raise ValueError("ground set must be nonempty")
        self.size = size
        self.label = label
        self.points = points
        self._rank_fn = rank_fn
        self._cache = {}
        self._lattice = None  # {rank: masks} up to full_rank - 1, built by flats()
        self._levels = None  # a point matroid's candidate levels, grown with the lattice
        self._parts = None  # a point matroid's components (cover._components)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_points(cls, gamma: PointSet) -> Matroid:
        if len(gamma) == 0:
            raise ValueError("need a nonempty point set")
        rows = [pt.ints for pt in gamma]
        fld = gamma.field
        full = (1 << len(rows)) - 1
        parts = []  # the components, filled in with the full rank

        def rank_fn(mask: int) -> int:
            if mask == full:
                rank, parts[:] = _components(gamma)
                return rank
            return linalg.rank([rows[i] for i in _elements(mask)], fld)

        m = cls(len(rows), rank_fn, f"points({len(rows)})", gamma)
        m._parts = parts
        return m

    @classmethod
    def uniform(cls, k: int, n: int) -> Matroid:
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")

        def rank_fn(mask: int) -> int:
            return min(k, mask.bit_count())

        return cls(n, rank_fn, f"U({k},{n})")

    @classmethod
    def fano(cls) -> Matroid:
        from .projective import enumerate_points

        gf2 = FieldSpec.prime(2)
        pts = enumerate_points(gf2, 2)
        return cls.from_points(PointSet(gf2, 2, tuple(pts)))

    @classmethod
    def from_flat_list(cls, size: int, flat_sets) -> Matroid:
        """Matroid from its complete list of flats (ranks by lattice height, spot-checked)."""
        masks = sorted({_mask_of(s) for s in flat_sets})
        full = (1 << size) - 1
        if full not in masks:
            raise ValueError("the ground set must be among the flats")
        height = {}
        for m in sorted(masks, key=lambda m: m.bit_count()):
            below = [height[o] for o in masks if o != m and o & m == o]
            height[m] = (max(below) + 1) if below else 0

        def rank_fn(mask: int) -> int:
            return min(height[m] for m in masks if mask & m == mask)

        m = cls(size, rank_fn, f"flats({size})")
        m._spot_check()
        return m

    # -- rank / closure ----------------------------------------------------

    def rank(self, subset) -> int:
        mask = subset if isinstance(subset, int) else _mask_of(subset)
        got = self._cache.get(mask)
        if got is None:
            got = self._rank_fn(mask)
            self._cache[mask] = got
        return got

    @property
    def full_rank(self) -> int:
        return self.rank((1 << self.size) - 1)

    def closure(self, subset) -> int:
        mask = subset if isinstance(subset, int) else _mask_of(subset)
        r = self.rank(mask)
        out = mask
        for e in range(self.size):
            if not out >> e & 1 and self.rank(mask | (1 << e)) == r:
                out |= 1 << e
        return out

    def _spot_check(self, triples: int = 40):
        """Light check of the axioms a flat-list rank can break (full fuzz in
        tests): submodularity and cardinality.  That rank is the least height
        of a flat containing the set, so rank(empty) = 0 and monotonicity hold
        by construction: some flat has height 0, and every flat containing B
        contains each subset of B."""
        rng = random.Random(self.size * 7919 + 1)
        full = (1 << self.size) - 1
        for _ in range(triples):
            a = rng.randrange(full + 1)
            b = rng.randrange(full + 1)
            ra, rb = self.rank(a), self.rank(b)
            rub, rint = self.rank(a | b), self.rank(a & b)
            if rub + rint > ra + rb:
                raise ValueError("rank oracle is not submodular")
            if ra > a.bit_count():
                raise ValueError("rank oracle exceeds cardinality")

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        if self.points is not None:
            return {"matrix": self.points.to_json()}
        lattice = flats(self, self.full_rank)
        return {"flats": [_elements(f) for masks in lattice.values() for f in masks]}

    @classmethod
    def from_json(cls, obj: dict) -> Matroid:
        if isinstance(obj, dict) and "matrix" in obj:
            return cls.from_points(PointSet.from_json(obj["matrix"]))
        sets = obj.get("flats") if isinstance(obj, dict) else None
        if not (isinstance(sets, list) and any(sets) and all(
                isinstance(s, list) and all(type(e) is int and e >= 0 for e in s) for s in sets)):
            raise ValueError("malformed matroid JSON: flats must be a list of lists of "
                             f"ints >= 0 naming some element, got {sets!r}")
        return cls.from_flat_list(max(max(s) for s in sets if s) + 1, sets)


def flats(m: Matroid, max_rank: int) -> dict:
    """All flats of rank <= max_rank (rank 0 at least) as {rank: sorted tuple
    of masks}: from the candidate levels' masks for a point matroid, else
    grown by closing one-element extensions.  Raises GroundTooLargeError
    above GROUND_CAP elements.

    The lattice is built once per matroid, up to rank full_rank - 1, and
    later calls filter it: the ground set is the only flat of full rank.
    """
    if m.size > GROUND_CAP:
        raise GroundTooLargeError(f"ground set of {m.size} exceeds the cap {GROUND_CAP}")
    top = m.full_rank
    if m._lattice is None:
        m._lattice = _build_flats(m, top - 1)
    out = {rk: ms for rk, ms in m._lattice.items() if rk <= max(max_rank, 0)}
    if max_rank >= top:
        out[top] = ((1 << m.size) - 1,)
    return out


def _build_flats(m: Matroid, max_rank: int) -> dict:
    if m.points is not None:
        # Points are distinct and nonzero: the empty set and the singletons
        # are closed, and each span holds the points of gamma it contains.
        masks = {0: [0], 1: [1 << i for i in range(m.size)]}
        m._levels = _grow(m.points, max_rank - 1, m._parts) if max_rank >= 2 else []
        for level in m._levels:
            masks[level.cost + 1] = level.masks
        return {rk: tuple(sorted(ms)) for rk, ms in masks.items()}
    # Every rank below the full rank has a proper flat to extend.
    by_rank = {0: (m.closure(0),)}
    for rk in range(max_rank):
        by_rank[rk + 1] = tuple(sorted({
            m.closure(f | 1 << e) for f in by_rank[rk] for e in range(m.size) if not f >> e & 1
        }))
    return by_rank


@dataclass(frozen=True)
class McbReport:
    r: int
    verdict: bool
    witness_flats: tuple | None = None  # element tuples
    excluded_element: int | None = None

    def to_json(self) -> dict:
        obj = {"r": self.r, "verdict": self.verdict}
        if not self.verdict:
            obj["witness"] = {
                "flats": [list(f) for f in self.witness_flats],
                "excluded": self.excluded_element,
            }
        return obj


def is_mcb(m: Matroid, r: int) -> McbReport:
    """Matroid Cayley-Bacharach: no union of r flats holds all elements but one.

    For each element x the search covers the rest by hyperplanes avoiding x,
    unless r times the most elements on one of them is already too few.
    Nothing is lost: a flat avoiding x is the intersection of the hyperplanes
    containing it, one of which must avoid x, so the hyperplanes avoiding x
    are exactly the maximal proper flats avoiding x.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    full_rank = m.full_rank
    hyperplanes = flats(m, full_rank - 1).get(full_rank - 1, ())
    ground = (1 << m.size) - 1
    # r flats avoiding x hold at most r times the most elements on one of
    # them, which settles most elements without a search.
    by_size = sorted(hyperplanes, key=int.bit_count, reverse=True)
    for x in range(m.size):
        most = next((h.bit_count() for h in by_size if not h >> x & 1), 0)
        if r * most < m.size - 1:
            continue
        candidates = [h for h in hyperplanes if not h >> x & 1]
        search = _CoverSearch([(1, candidates, lambda: zip(candidates, candidates))],
                              ground & ~(1 << x), math.inf)
        got = search.run(r, r)
        if got is not None:
            if not got and candidates:
                got = (candidates[0],)  # all-but-one is empty; show one avoiding flat
            return McbReport(
                r, False, tuple(tuple(_elements(f)) for f in got), x
            )
    return McbReport(r, True)


def exists_flat_cover(m: Matroid, dims) -> list | None:
    """Flats F_i with rank(F_i) = dims[i] + 1 covering the ground set, or None."""
    dims = list(dims)
    ranks_needed = [d + 1 for d in dims]
    if not ranks_needed:
        raise ValueError("a flat cover needs at least one flat dimension")
    if any(rk < 1 for rk in ranks_needed):
        raise ValueError("flat cover dimensions must be >= 0")
    lattice = flats(m, max(ranks_needed))
    pool = {rk: list(lattice.get(rk, ())) for rk in set(ranks_needed)}
    if any(not pool[rk] for rk in ranks_needed):
        return None
    got = _flat_cover_dfs(0, tuple(sorted(ranks_needed)), [], pool, (1 << m.size) - 1, set())
    if got is None:
        return None
    by_rank_found = {}
    for rk, f in got:
        by_rank_found.setdefault(rk, []).append(f)
    return [_elements(by_rank_found[rk].pop(0)) for rk in ranks_needed]


def _flat_cover_dfs(covered: int, remaining: tuple, acc, pool, ground: int, memo):
    """(rank, flat mask) pairs extending acc to a cover of ground, or None.
    remaining is the sorted multiset of ranks still to place; memo holds the
    failed (covered, remaining) states."""
    if covered == ground:
        return acc + [(rk, pool[rk][0]) for rk in remaining]
    if not remaining:
        return None
    key = (covered, remaining)
    if key in memo:
        return None
    first = _elements(ground & ~covered)[0]
    tried = set()
    for idx, rk in enumerate(remaining):
        # Equal-rank slots are interchangeable: branch each rank once.
        if rk in tried:
            continue
        tried.add(rk)
        rest = remaining[:idx] + remaining[idx + 1 :]
        for f in pool[rk]:
            if f >> first & 1:
                got = _flat_cover_dfs(covered | f, rest, acc + [(rk, f)], pool, ground, memo)
                if got is not None:
                    return got
    memo.add(key)
    return None
