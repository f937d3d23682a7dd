"""Exact search for plane-configuration covers of a point set.

Covers are searched over the candidate flats spanned by subsets of gamma.
This is lossless for existence questions: any covering plane can be shrunk
to the span of the points of gamma it contains, which covers the same points
with at most the same dimension; a plane holding a single point is replaced
by the line through it and any other point (still within the dim budget
because planes are positive-dimensional).  Only |gamma| = 1 needs an ad hoc
line through the point.

The search is depth-first branch and bound: branch on the uncovered point
lying on the fewest candidate flats, bound by the remaining dimension and
length budgets plus a knapsack-style coverage bound, and memoize failed
(covered, budgets) states.  A found=False result with proof_of_minimality
set means the space was exhausted, never truncated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import linalg
from .errors import BudgetExceededError
from .projective import Flat, PlaneConfiguration, PointSet, span

DEFAULT_NODE_BUDGET = 10**7
_BUDGET_ENV = "CB_LAB_NODE_BUDGET"


def node_budget_default() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class CandidateFlat:
    """A span of a subset of gamma, with the indices of all points it contains."""

    flat: Flat
    point_indices: tuple
    mask: int


@dataclass(frozen=True)
class CoverResult:
    found: bool
    config: PlaneConfiguration | None
    dim: int
    length: int
    nodes_explored: int
    proof_of_minimality: bool
    assignment: tuple | None = None  # per point: index of a covering plane

    def to_json(self) -> dict:
        obj = {
            "found": self.found,
            "dim": self.dim,
            "length": self.length,
            "nodes_explored": self.nodes_explored,
            "proof_of_minimality": self.proof_of_minimality,
        }
        if self.config is not None:
            obj["config"] = self.config.to_json()
        if self.assignment is not None:
            obj["assignment"] = list(self.assignment)
        return obj


def candidate_flats(gamma: PointSet, max_dim: int):
    """All distinct flats of dimension 1..max_dim spanned by subsets of gamma.

    Grown level by level: the dim-(k+1) flats are the spans of a dim-k flat
    and one outside point, which reaches every span of a subset.  Returned in
    canonical order (dimension, then basis bytes).
    """
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    fld = gamma.field
    n = gamma.ambient_dim
    pts = list(gamma)
    npts = len(pts)
    result = []
    current = {}
    for i, pt in enumerate(pts):
        flat = Flat(fld, n, (pt.coords,))
        current[flat.basis] = (flat, 1 << i)
    top_dim = min(max_dim, n)
    for _level in range(top_dim):
        grown = {}
        for flat, mask in current.values():
            rows = [list(r) for r in flat.basis]
            for i, pt in enumerate(pts):
                if mask >> i & 1:
                    continue
                new_basis, piv = linalg.rref(rows + [list(pt.coords)], fld)
                key = tuple(new_basis)
                if key in grown:
                    continue
                new_flat = Flat(fld, n, key)
                new_mask = mask | (1 << i)
                fpiv = piv
                for j, other in enumerate(pts):
                    if new_mask >> j & 1:
                        continue
                    if linalg.in_row_space(other.coords, new_basis, fpiv, fld):
                        new_mask |= 1 << j
                grown[key] = (new_flat, new_mask)
        current = grown
        for flat, mask in current.values():
            idx = tuple(i for i in range(npts) if mask >> i & 1)
            result.append(CandidateFlat(flat, idx, mask))
    result.sort(key=lambda c: (c.flat.dim, c.flat.basis))
    return result


def verify_cover(gamma: PointSet, cfg: PlaneConfiguration | None) -> bool:
    """True iff every point of gamma lies on some plane of cfg."""
    if cfg is None:
        return len(gamma) == 0
    return all(cfg.covers(pt) for pt in gamma)


def _single_point_line(gamma: PointSet) -> Flat | None:
    pt = gamma[0]
    fld = gamma.field
    n = gamma.ambient_dim
    if n < 1:
        return None
    one, zero = fld.one(), fld.zero()
    for j in range(n + 1):
        unit = tuple(one if k == j else zero for k in range(n + 1))
        if linalg.rank([list(pt.coords), list(unit)], fld) == 2:
            return span([pt, Flat(fld, n, (unit,))])
    return None


class _CoverSearch:
    """Branch and bound over the candidate flats of one gamma, for any number
    of run(d, max_length) queries with dim budget d <= max_dim.

    A cover by two or more planes uses planes of dimension <= max_dim-1 (the
    others contribute at least 1 each), and a single covering plane shrinks
    to span(gamma); so spans of subsets up to dim max_dim-1 plus the total
    span are a complete candidate set.  Each run counts its own nodes
    against the node budget.
    """

    def __init__(self, gamma: PointSet, max_dim: int, node_budget: int):
        n = gamma.ambient_dim
        npts = len(gamma)
        cap = min(max_dim - 1, n)
        cands = candidate_flats(gamma, cap) if cap >= 1 else []
        top = span(list(gamma))
        if top.dim <= min(max_dim, n) and all(c.flat != top for c in cands):
            cands.append(CandidateFlat(top, tuple(range(npts)), (1 << npts) - 1))
            cands.sort(key=lambda c: (c.flat.dim, c.flat.basis))
        self.cands = cands
        self.all_mask = (1 << npts) - 1
        self.npts = npts
        self.node_budget = node_budget
        self.by_point = [[c for c in cands if c.mask >> i & 1] for i in range(npts)]

    def _coverage_bound(self, d: int, length: int):
        # best[b][l]: most points coverable with dim budget b and l flats,
        # overestimated from the best single flat of each dimension.
        best_at = [0] * (d + 1)
        for c in self.cands:
            k = c.flat.dim
            if k <= d:
                cnt = len(c.point_indices)
                if cnt > best_at[k]:
                    best_at[k] = cnt
        for k in range(1, d + 1):
            best_at[k] = max(best_at[k], best_at[k - 1])
        table = [[0] * (length + 1) for _ in range(d + 1)]
        for b in range(1, d + 1):
            for l in range(1, length + 1):
                best = 0
                for k in range(1, b + 1):
                    got = best_at[k] + table[b - k][l - 1]
                    if got > best:
                        best = got
                table[b][l] = best
        return table

    def run(self, d: int, max_length: int):
        self.nodes = 0
        length = min(max_length, d)
        if length < 1:
            return None
        self.bound = self._coverage_bound(d, length)
        self.memo = set()
        self.solution = None
        self._dfs(0, d, length, [])
        return self.solution

    def _dfs(self, covered: int, dim_left: int, len_left: int, stack) -> bool:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceededError(f"cover search exceeded {self.node_budget} nodes")
        uncovered = self.all_mask & ~covered
        if uncovered == 0:
            self.solution = list(stack)
            return True
        if dim_left < 1 or len_left < 1:
            return False
        need = uncovered.bit_count()
        if self.bound[dim_left][len_left] < need:
            return False
        key = (covered, dim_left, len_left)
        if key in self.memo:
            return False
        pick = -1
        fewest = None
        for i in range(self.npts):
            if uncovered >> i & 1:
                options = sum(1 for c in self.by_point[i] if c.flat.dim <= dim_left)
                if fewest is None or options < fewest:
                    fewest = options
                    pick = i
        for cand in self.by_point[pick]:
            k = cand.flat.dim
            if k > dim_left:
                continue
            stack.append(cand)
            if self._dfs(covered | cand.mask, dim_left - k, len_left - 1, stack):
                return True
            stack.pop()
        self.memo.add(key)
        return False


def _result_from_chosen(gamma: PointSet, chosen, nodes: int, minimal: bool) -> CoverResult:
    planes = tuple(sorted((c.flat for c in chosen), key=lambda f: f.basis))
    cfg = PlaneConfiguration(planes)
    assignment = []
    for pt in gamma:
        assignment.append(next(i for i, pl in enumerate(planes) if pl.contains(pt)))
    return CoverResult(
        found=True,
        config=cfg,
        dim=cfg.dim,
        length=cfg.length,
        nodes_explored=nodes,
        proof_of_minimality=minimal,
        assignment=tuple(assignment),
    )


def exists_cover(
    gamma: PointSet,
    d: int,
    max_length: int,
    node_budget: int | None = None,
) -> CoverResult:
    """Search for a plane configuration of dimension <= d and length <=
    max_length covering gamma.

    found=False always comes with proof_of_minimality=True (the search space
    was exhausted); a truncated search raises BudgetExceededError instead.
    A 0-dimensional configuration is empty, so d=0 succeeds only for empty
    gamma.
    """
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    if node_budget is None:
        node_budget = node_budget_default()
    if len(gamma) == 0:
        return CoverResult(True, None, 0, 0, 0, True)
    if d <= 0:
        return CoverResult(False, None, 0, 0, 0, True)
    if len(gamma) == 1:
        line = _single_point_line(gamma)
        if line is None:
            return CoverResult(False, None, 0, 0, 0, True)
        return _result_from_chosen(
            gamma, [CandidateFlat(line, (0,), 1)], nodes=1, minimal=False
        )
    search = _CoverSearch(gamma, d, node_budget)
    chosen = search.run(d, max_length)
    if chosen is None:
        return CoverResult(False, None, 0, 0, search.nodes, True)
    return _result_from_chosen(gamma, chosen, search.nodes, minimal=False)


def min_cover(gamma: PointSet, node_budget: int | None = None) -> CoverResult:
    """Lexicographically minimal (dim, length) cover of a nonempty gamma.

    Queries (dim, length) pairs in ascending lexicographic order, so the
    first hit is minimal and carries proof_of_minimality.
    """
    if len(gamma) == 0:
        raise ValueError("min_cover needs a nonempty point set")
    if node_budget is None:
        node_budget = node_budget_default()
    if len(gamma) == 1:
        res = exists_cover(gamma, 1, 1, node_budget)
        return CoverResult(
            res.found, res.config, res.dim, res.length, res.nodes_explored,
            True, res.assignment,
        )
    top = span(list(gamma)).dim
    search = _CoverSearch(gamma, top, node_budget)
    total_nodes = 0
    for dim in range(1, top + 1):
        for length in range(1, dim + 1):
            chosen = search.run(dim, length)
            total_nodes += search.nodes
            if chosen is not None:
                return _result_from_chosen(gamma, chosen, total_nodes, minimal=True)
    raise AssertionError("the span of gamma always covers it")
