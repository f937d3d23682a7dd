"""Exact search for plane-configuration covers of a point set.

Covers are searched over the candidate flats spanned by subsets of gamma.
This is lossless for existence questions: any covering plane can be shrunk
to the span of the points of gamma it contains, which covers the same points
with at most the same dimension; a plane holding a single point is replaced
by the line through it and any other point (still within the dim budget
because planes are positive-dimensional).  Only |gamma| = 1 needs an ad hoc
line through the point.

The candidates are grown one dimension at a time without a fresh row
reduction: each flat skips the points of the children already found that
contain it (any such point spans that child with it) and reduces every
other outside point against its echelon basis once; the points with equal
residuals (scaled to a canonical representative) span one new child flat,
whose basis is its parent's plus one pivot insert of the residual.  An
independent child pushes its mask to its sub-flats when it is built; only
the dependent children are scanned.  Over GF(p) a residual is scaled to a
leading 1.  Over Q the level loop runs on integers (each point's
ProjPoint.ints, echelon bases times the lcm D of their denominators,
fraction-free residuals from linalg's Q body keyed by linalg.primitive)
and each level's basis sort compares each entry x / D as the integer
x * (L // D), L the lcm of that level's D, which orders exactly as the
Fractions do.  A candidate keeps its mask, dimension and raw echelon
basis; its Flat (over Q the rows divided by D, linalg.unit_pivots) is
built on the first .flat read, which the searches and the matroid lattice
never make: only the chosen planes of a cover are read.
min_cover spans gamma once and keeps one candidate list and one by_point
table for its whole (dim, length) sweep; an MCB campaign trial hands it
the list its matroid's lattice was read from.

The search is depth-first branch and bound: branch on the uncovered point
lying on the fewest candidate flats, bound by the remaining dimension and
length budgets plus a knapsack-style coverage bound, and memoize failed
(uncovered, budgets) states.  A found=False result with proof_of_minimality
set means the space was exhausted, never truncated.  The same core covers a
target mask by any weighted candidate masks, so it also serves
matroid.is_mcb (flats of cost 1).

The coverage bound reads only the candidates' masks and costs, and many
queries end at the root on it.  So exists_cover grows the candidate levels'
masks and decides its root from them; the top level's bases, that level's
sort, the CandidateFlats and the by_point index are built at the first node
that branches, from the residuals the growth already took.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .errors import BudgetExceededError
from .fields import PRIME
from .projective import Flat, PlaneConfiguration, PointSet, span

DEFAULT_NODE_BUDGET = 10**7
_BUDGET_ENV = "CB_LAB_NODE_BUDGET"


def node_budget_default() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_NODE_BUDGET


class CandidateFlat:
    """A span of a subset of gamma: mask has bit i set when gamma[i] lies on
    it, dim is its dimension.  Its Flat is built from the raw echelon basis
    on the first .flat read and kept; over Q the raw basis is the integer
    basis whose pivots all equal D, and linalg.unit_pivots divides it by D."""

    __slots__ = ("mask", "dim", "_field", "_basis", "_flat")

    def __init__(self, field, basis: tuple, mask: int, flat: Flat | None = None):
        self.mask = mask
        self.dim = len(basis) - 1
        self._field = field
        self._basis = basis
        self._flat = flat

    @property
    def flat(self) -> Flat:
        if self._flat is None:
            basis = tuple(linalg.unit_pivots(self._basis, self._field))
            self._flat = Flat(self._field, len(basis[0]) - 1, basis)
        return self._flat


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
    F and one outside point, which reaches every span of a subset.

    - Skip: if a child G of this level is already built and F lies in G
      (F's mask is inside G's), every p_j in G outside F gives span(F, p_j)
      = G, as both have dimension dim F + 1.  So F skips the points of all
      such G, and every child F still finds is new; it is never found
      again, because any later parent inside it skips its points.
    - Push and scan: an independent G (dim G + 1 points) has as sub-flats
      at F's level exactly its masks less one point (its points span no
      other point of G), so when it is built it ORs its mask into the skip
      of each of them.  A dependent G is listed on each of its points, and
      F scans the list of its lowest point for the G that contain it.
    - Residuals: each remaining point p_i outside F is reduced against F's
      echelon basis once and scaled to a canonical representative.  The
      reduction is linear with kernel the cone of F, so p_j lies on
      span(F, p_i) exactly when the two residuals are equal; grouping the
      points by residual gives each new child with its full point mask
      (a skipped point lies in another child, so not in this one).
    - Pivot insert: a new child's basis is F's basis with the residual's
      lead column cleared, plus the residual as a pivot row, which is the
      unique reduced echelon form of span(F, p_i).

    Over Q the whole loop runs on integers.  Each point is its primitive
    integer vector (ProjPoint.ints: content 1, lead > 0), each basis is its reduced echelon
    form times the lcm D of its denominators (every pivot equals D and the
    entries have content 1), and a residual is the fraction-free D*v -
    sum(v[c_k] * B_k), made primitive (linalg.primitive).
    A candidate keeps that integer basis; its Fraction Flat is built on the
    first .flat read.

    Returned in canonical order (dimension, then basis bytes).
    """
    return _flats(gamma.field, *_grow(gamma, max_dim))


def _flats(field, found, top) -> list:
    """The candidate_flats list of _grow's (found, top): each top-level
    child's basis is its parent's plus one pivot insert of its residual."""
    insert = _residual_ops(field)[1]
    top = _sorted_level(field, [insert(basis, piv, r) + (mask,) for basis, piv, r, mask in top])
    return [CandidateFlat(field, basis, mask) for basis, _piv, mask in found + top]


def _grow(gamma: PointSet, max_dim: int):
    """The mask growth of candidate_flats: (found, top).

    found holds the finished (basis, pivots, mask) triples of every level
    below the top one, each level sorted.  top holds the top level's
    children as (parent basis, parent pivots, residual, mask) in discovery
    order: their masks are final, but no basis is built and the level is not
    sorted; _flats does both.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    fld = gamma.field
    coords = [pt.ints for pt in gamma]
    residual, insert = _residual_ops(fld)
    # (basis, pivot columns, point mask): a point's basis is itself
    level = [((c,), (_lead(c),), 1 << i) for i, c in enumerate(coords)]
    full = (1 << len(coords)) - 1
    found, top = [], []
    for dim in range(min(max_dim, gamma.ambient_dim)):
        if dim:
            level = [insert(basis, piv, r) + (mask,) for basis, piv, r, mask in top]
            found.extend(_sorted_level(fld, level))
        inside = {}  # parent mask -> union of this level's independent children on it
        holding = [[] for _ in coords]  # point -> this level's dependent children on it
        top = []
        for basis, piv, mask in level:
            done = mask | inside.get(mask, 0)
            for g in holding[(mask & -mask).bit_length() - 1]:
                if g & mask == mask:
                    done |= g
            groups = {}
            for i in _elements(full & ~done):
                r = residual(coords[i], basis, piv)
                groups[r] = groups.get(r, mask) | 1 << i
            for r, child in groups.items():
                top.append((basis, piv, r, child))
                points = _elements(child)
                if len(points) == dim + 2:
                    for i in points:
                        sub = child ^ 1 << i
                        inside[sub] = inside.get(sub, 0) | child
                else:
                    for i in points:
                        holding[i].append(child)
    return found, top


def _sorted_level(field, level) -> list:
    """One level's (basis, pivots, mask) triples in canonical basis order.

    A level has one dimension, so sorting each level orders the whole list.
    _grow reads a level in discovery order: another order changes which
    parent finds each child and skips fewer points.
    """
    return sorted(level, key=None if field.kind == PRIME else _rational_key(level))


def _rational_key(entries):
    """The basis sort key of one level's integer (basis, pivots, mask)
    triples over Q.

    Entry x of a basis with pivots D is x / D = x * (L // D) / L, with L the
    lcm of every D of the level, so the scaled integers sort exactly as the
    Fractions do.
    """
    scale = lcm(*(basis[0][piv[0]] for basis, piv, _mask in entries))

    def key(entry):
        basis, piv, _mask = entry
        s = scale // basis[0][piv[0]]
        return [x * s for row in basis for x in row]

    return key


def _elements(mask: int) -> list:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


def _lead(v) -> int:
    """The column of the first nonzero entry of v."""
    return next(j for j, x in enumerate(v) if x)


def _residual_ops(field):
    """(residual, insert) on one field kind's rows, picked once per call:
    residual(v, basis, piv) is v reduced against an echelon basis and
    scaled to a canonical representative; insert(basis, piv, r) is the
    (basis, pivot columns) of the span of the basis and r."""
    if field.kind == PRIME:
        p = field.p

        def residual(v, basis, piv):
            v = linalg.reduce_against(v, basis, piv, field)
            inv = pow(next(x for x in v if x), p - 2, p)
            return tuple([x * inv % p for x in v])

        def eliminate(row, f, r):
            return tuple([(a - f * b) % p for a, b in zip(row, r)])

        def insert(basis, piv, r):
            lead = r.index(1)
            pos = bisect_left(piv, lead)
            rows = [eliminate(row, row[lead], r) if row[lead] else row for row in basis]
            rows.insert(pos, r)
            return tuple(rows), piv[:pos] + (lead,) + piv[pos:]

        return residual, insert

    def residual(v, basis, piv):
        return linalg.primitive(linalg._residual_q(v, basis, piv))

    def insert(basis, piv, r):
        # a*B_k - B_k[lead]*r for the old rows and D*r for the new one share
        # the pivot a*D; dividing by their content leaves the unique form.
        lead = _lead(r)
        a, d = r[lead], basis[0][piv[0]]
        pos = bisect_left(piv, lead)
        rows = [[a * x - row[lead] * y for x, y in zip(row, r)] for row in basis]
        rows.insert(pos, [d * y for y in r])
        g = 0
        for row in rows:
            g = gcd(g, *row)
            if g == 1:
                break
        return tuple(tuple([x // g for x in row]) for row in rows), piv[:pos] + (lead,) + piv[pos:]

    return residual, insert


def verify_cover(gamma: PointSet, cfg: PlaneConfiguration | None) -> bool:
    """True iff every point of gamma lies on some plane of cfg."""
    if cfg is None:
        return len(gamma) == 0
    return all(cfg.covers(pt) for pt in gamma)


def _single_point_line(gamma: PointSet) -> Flat | None:
    """The line through gamma's one point and e_0, or e_1 when the point is e_0."""
    pt = gamma[0]
    fld = gamma.field
    n = gamma.ambient_dim
    if n < 1:
        return None
    j = 0 if any(pt.coords[1:]) else 1
    unit = tuple(fld.one() if k == j else fld.zero() for k in range(n + 1))
    return span([pt, Flat(fld, n, (unit,))])


class _CoverSearch:
    """Branch and bound covering the points of a target mask by candidates,
    each a (mask, cost >= 1, item) triple: run(d, max_length) looks for at most
    max_length candidates of total cost <= d and returns their items in
    pick order, or None.  Each run counts its own nodes against the node
    budget.

    The coverage bound reads only the (mask, cost) pair of each candidate,
    from weights.  items() returns the triples in branching order; it is
    called, and the by_point index built from it, at the first node that
    branches, so a search whose runs are all decided at the root builds
    neither.
    """

    def __init__(self, weights, target: int, node_budget, items):
        self.target = target
        self.node_budget = node_budget
        self.items = items
        self.best = {}  # cost -> the most points on one candidate of that cost
        for mask, k in weights:
            self.best[k] = max(self.best.get(k, 0), mask.bit_count())
        self.max_cost = max(self.best, default=0)

    @cached_property
    def by_point(self) -> dict:
        """Each target point's candidate triples, in branching order."""
        by_point = {i: [] for i in _elements(self.target)}
        for c in self.items():
            for i in _elements(c[0] & self.target):
                by_point[i].append(c)
        return by_point

    def _coverage_bound(self, d: int, length: int):
        # best[b][l]: most points coverable with cost budget b and l
        # candidates, overestimated from the best single candidate of each cost.
        best_at = [0] * (d + 1)
        for k, cnt in self.best.items():
            if k <= d:
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
        # Every pick covers a new point, so no branch holds more candidates
        # than target points or costs more than that many times max_cost.
        # Capping both budgets there shifts every budget in the tree by a
        # constant and leaves each prune unchanged, but keeps the bound
        # table small for huge budgets.
        length = min(length, self.target.bit_count())
        d = min(d, length * self.max_cost)
        self.bound = self._coverage_bound(d, length)
        self.memo = set()
        self.solution = None
        self._dfs(self.target, d, length, [])
        return self.solution

    def _dfs(self, uncovered: int, cost_left: int, len_left: int, stack) -> bool:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceededError(f"cover search exceeded {self.node_budget} nodes")
        if uncovered == 0:
            self.solution = list(stack)
            return True
        if cost_left < 1 or len_left < 1:
            return False
        need = uncovered.bit_count()
        if self.bound[cost_left][len_left] < need:
            return False
        key = (uncovered, cost_left, len_left)
        if key in self.memo:
            return False
        pick = -1
        fewest = None
        for i, cands in self.by_point.items():
            if uncovered >> i & 1:
                options = sum(1 for c in cands if c[1] <= cost_left)
                if fewest is None or options < fewest:
                    fewest = options
                    pick = i
        for mask, k, item in self.by_point[pick]:
            if k > cost_left:
                continue
            stack.append(item)
            if self._dfs(uncovered & ~mask, cost_left - k, len_left - 1, stack):
                return True
            stack.pop()
        self.memo.add(key)
        return False


def _point_search(gamma: PointSet, top: Flat, max_dim: int, node_budget: int,
                  cands=None) -> _CoverSearch:
    """The cover search of gamma (at least two points, spanning top) for dim
    budgets <= max_dim, over its candidate flats with cost = dimension.

    A cover by two or more planes uses planes of dimension <= max_dim-1 (the
    others contribute at least 1 each), and a single covering plane shrinks
    to span(gamma); so spans of subsets up to dim max_dim-1 plus the total
    span are a complete candidate set.  cands, when given, is that
    candidate_flats list, already built; it is not modified.  Otherwise the
    levels are grown here, and the top level's bases are built and sorted
    only if the search branches.
    """
    full = (1 << len(gamma)) - 1
    cap = min(max_dim - 1, gamma.ambient_dim)
    if cands is None:
        found, grown = _grow(gamma, cap) if cap >= 1 else ([], [])
        weights = [(mask, len(basis) - 1) for basis, _piv, mask in found]
        weights += [(mask, cap) for *_parent, mask in grown]
    else:
        weights = [(c.mask, c.dim) for c in cands]
    # The candidates hold every span of a subset up to dim cap, top among
    # them when top.dim <= cap; otherwise top outranks them all in
    # (dim, basis) order and goes last.
    with_top = cap < top.dim <= max_dim
    if with_top:
        weights.append((full, top.dim))

    def items():
        flats = _flats(gamma.field, found, grown) if cands is None else cands
        out = [(c.mask, c.dim, c) for c in flats]
        if with_top:
            out.append((full, top.dim, CandidateFlat(top.field, top.basis, full, top)))
        return out

    return _CoverSearch(weights, full, node_budget, items)


def _result_from_chosen(gamma: PointSet, chosen, nodes: int, minimal: bool) -> CoverResult:
    """Planes sorted by basis; point i goes to the first whose mask has bit i set."""
    chosen = sorted(chosen, key=lambda c: c.flat.basis)
    cfg = PlaneConfiguration(tuple(c.flat for c in chosen))
    assignment = tuple(
        next(j for j, c in enumerate(chosen) if c.mask >> i & 1) for i in range(len(gamma))
    )
    return CoverResult(True, cfg, cfg.dim, cfg.length, nodes, minimal, assignment)


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
    The root's coverage bound reads only the candidates' masks, so a query
    it refuses (found=False, nodes_explored=1) builds no candidate basis and
    no index.
    A 0-dimensional configuration is empty, so d <= 0 succeeds only for empty
    gamma; that answer comes before the length check, so any max_length is
    accepted there.  For d >= 1 a max_length below 1 raises ValueError.
    """
    if d <= 0:
        return CoverResult(len(gamma) == 0, None, 0, 0, 0, True)
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    if node_budget is None:
        node_budget = node_budget_default()
    if len(gamma) == 0:
        return CoverResult(True, None, 0, 0, 0, True)
    if len(gamma) == 1:
        line = _single_point_line(gamma)
        if line is None:
            return CoverResult(False, None, 0, 0, 0, True)
        return _result_from_chosen(
            gamma, [CandidateFlat(line.field, line.basis, 1, line)], nodes=1, minimal=False
        )
    search = _point_search(gamma, span(list(gamma)), d, node_budget)
    chosen = search.run(d, max_length)
    if chosen is None:
        return CoverResult(False, None, 0, 0, search.nodes, True)
    return _result_from_chosen(gamma, chosen, search.nodes, minimal=False)


def min_cover(gamma: PointSet, node_budget: int | None = None) -> CoverResult:
    """Lexicographically minimal (dim, length) cover of a nonempty gamma.

    Queries (dim, length) pairs in ascending lexicographic order, so the
    first hit is minimal and carries proof_of_minimality.
    """
    return _min_cover(gamma, node_budget)


def _min_cover(gamma: PointSet, node_budget: int | None, cands=None) -> CoverResult:
    """min_cover, over cands = candidate_flats(gamma, dim span(gamma) - 1),
    built here unless the caller has built that list already (a point
    Matroid's lattice is read from the same list).  Every sweep ends in a
    query that branches, so nothing is gained by deferring a level."""
    if len(gamma) == 0:
        raise ValueError("min_cover needs a nonempty point set")
    if node_budget is None:
        node_budget = node_budget_default()
    if len(gamma) == 1:
        return replace(exists_cover(gamma, 1, 1, node_budget), proof_of_minimality=True)
    top = span(list(gamma))
    if cands is None:
        cands = candidate_flats(gamma, top.dim - 1) if top.dim >= 2 else []
    search = _point_search(gamma, top, top.dim, node_budget, cands)
    total_nodes = 0
    for dim in range(1, top.dim + 1):
        for length in range(1, dim + 1):
            chosen = search.run(dim, length)
            total_nodes += search.nodes
            if chosen is not None:
                return _result_from_chosen(gamma, chosen, total_nodes, minimal=True)
    raise AssertionError("the span of gamma always covers it")
