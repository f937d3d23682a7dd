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
and a basis sort compares each entry x / D as the integer x * (L // D),
L the lcm of the D of the candidates sorted together, which orders exactly
as the Fractions do.  A candidate keeps its mask, dimension and raw echelon
basis; its Flat (over Q the rows divided by D, linalg.unit_pivots) is
built on the first .flat read, which the searches and the matroid lattice
never make: only the chosen planes of a cover are read.
min_cover keeps one set of candidate levels and one search for its whole
(dim, length) sweep; an MCB campaign trial hands it the levels its
matroid's lattice was read from, and the components its full rank came with.

A point set whose matroid is disconnected (two conics in skew planes, skew
lines) is grown as a direct sum of its components (_direct_sum), whose
unions of flats take no residual.  Its levels hold the unions in blocks,
one per choice of a rank for each component: a block's masks are ORed at
once, and a union's flats are decoded from its index (_Unions) only when
its basis is first read, which no search does for the solids and
hyperplanes of two conics.  _components finds the components, and
the rank that exists_cover, min_cover and a point Matroid read, in one
echelon.

The search is depth-first branch and bound: branch on the uncovered point
lying on the fewest candidate flats, bound by the remaining dimension and
length budgets plus a knapsack-style coverage bound, and memoize failed
(uncovered, budgets) states.  A found=False result with proof_of_minimality
set means the space was exhausted, never truncated.  The same core covers a
target mask by any weighted candidate masks, so it also serves
matroid.is_mcb (flats of cost 1).

The coverage bound and the branching counts of every level read only the
candidates' masks and costs, so the growth keeps every level's masks but
builds a basis only for a parent with points left to reduce.  The search
reads a level one point at a time: the first node that branches on point i
and tries the level builds the bases and CandidateFlats of the candidates
on i only, and sorts just those.  Levels are tried in ascending cost, so a
query that succeeds on a plane never sorts the solids, and a search that
branches on two points of sixteen builds only the candidates on those two.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate
from math import gcd, lcm
from operator import add

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

    Over Q the loop runs on integers: primitive points (ProjPoint.ints),
    bases times the lcm D of their denominators (every pivot equals D, the
    entries have content 1) and fraction-free residuals D*v - sum(v[c_k] *
    B_k), made primitive (linalg.primitive).

    - Direct sums: when the point matroid splits into components
      (_components), the loop grows each component below its span, and a
      dim-k flat is a union of one flat per component (empty, a point, a
      flat of its levels or its span) whose ranks sum to k + 1.  Such a
      union's basis is that of its largest flat plus one pivot insert of
      the residual of each row of the others.  A reduced echelon basis is
      unique per subspace, so the candidates are those of the loop on the
      whole set.

    Returned in canonical order (dimension, then basis bytes).
    """
    levels = _grow(gamma, max_dim, _components(gamma)[1])
    return [c for level in levels for _mask, c in level.items()]


class _Level:
    """The candidate flats of one dimension (cost) in discovery order, which
    _grow keeps (another order skips fewer points): each child's point mask
    and the arguments of make that build its (basis, pivots), in the level
    loop its parent's (basis, pivots) and residual for one pivot insert, in
    a direct sum its flats, decoded from j by _Unions.  A child's basis is
    made on its first basis() read and its CandidateFlat on its first
    items() read, both kept.  items(js) sorts children js by
    basis, so no reader depends on the order; sorting a subset by that
    total order gives the whole level's order filtered to the subset."""

    def __init__(self, field, cost: int, make):
        self.field, self.cost, self.make = field, cost, make
        self.children, self.masks, self.built, self.flats = [], [], {}, {}

    def basis(self, j: int) -> tuple:
        """The (basis, pivot columns) of child j."""
        got = self.built.get(j)
        if got is None:
            got = self.built[j] = self.make(*self.children[j])
        return got

    def items(self, js=None) -> list:
        """The (mask, CandidateFlat) pairs of children js, every child by
        default, in canonical basis order."""
        level = [self.basis(j) + (j,) for j in (range(len(self.masks)) if js is None else js)]
        level.sort(key=None if self.field.kind == PRIME else _rational_key(level))
        out = []
        for basis, _piv, j in level:
            flat = self.flats.get(j)
            if flat is None:
                flat = self.flats[j] = CandidateFlat(self.field, basis, self.masks[j])
            out.append((self.masks[j], flat))
        return out


def _components(gamma: PointSet):
    """(rank, parts): the rank of gamma's points and the connected
    components of their matroid as (point mask, rank) pairs, ordered by
    lowest point.

    One echelon of the points as columns.  Its pivot columns are a basis,
    and a non-pivot point f is on the fundamental circuit made of f and the
    pivots whose row is nonzero at f.  Two points are in one component
    exactly when a chain of such circuits joins them, so the rows that
    share a nonzero column join, and a component's points are the nonzero
    columns of its rows and its rank is their number.  When the circuit of
    some non-pivot point holds every pivot, the matroid is connected.
    """
    rows, piv = linalg.echelon(zip(*[pt.ints for pt in gamma]), gamma.field)
    n, rank = len(gamma), len(rows)
    # from the first non-pivot point (rank, when piv ends at rank - 1) on;
    # a pivot's column holds a zero unless the rank is 1
    first = rank
    if piv[-1:] != [rank - 1]:
        first = next((k for k, c in enumerate(piv) if c != k), rank)
    for f in range(first, n):
        if 0 not in [row[f] for row in rows]:
            return rank, [((1 << n) - 1, rank)]
    bits = [1 << i for i in range(n)]
    parts = []
    for row in rows:
        points, size = sum([b for b, x in zip(bits, row) if x]), 1
        kept = []
        for part in parts:
            if part[0] & points:
                points |= part[0]
                size += part[1]
            else:
                kept.append(part)
        kept.append((points, size))
        parts = kept
    return rank, sorted(parts, key=lambda part: part[0] & -part[0])


def _grow(gamma: PointSet, max_dim: int, parts) -> list:
    """The levels of candidate_flats, dims 1..min(max_dim, ambient dim), as
    _Levels: their masks are final, and a child's basis is built only when
    it is read (as a parent with points to reduce, or by items()).

    parts are the components of gamma's point matroid (_components).  One
    part is grown by the level loop, _grow_part; two or more make a direct
    sum, _direct_sum."""
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    fld = gamma.field
    coords = [pt.ints for pt in gamma]
    ops = _residual_ops(fld)
    points = [((c,), (_lead(c),)) for c in coords]
    count = min(max_dim, gamma.ambient_dim)
    if len(parts) != 1:
        return _direct_sum(fld, coords, points, parts, count, ops)
    return _grow_part(fld, coords, points, parts[0][0], count, ops)


def _grow_part(fld, coords, points, part: int, count: int, ops) -> list:
    """The candidate levels of the points of part, dims 1 to count (those
    above the span of part are empty)."""
    residual, insert = ops
    # the parents of the first level: a point's basis is itself
    masks = _elements(part)
    basis_of = [points[i] for i in masks].__getitem__
    masks = [1 << i for i in masks]
    levels = []
    for dim in range(count):
        level = _Level(fld, dim + 1, insert)
        inside = {}  # parent mask -> union of this level's independent children on it
        holding = [[] for _ in coords]  # point -> this level's dependent children on it
        for j, mask in enumerate(masks):
            done = mask | inside.get(mask, 0)
            for g in holding[(mask & -mask).bit_length() - 1]:
                if g & mask == mask:
                    done |= g
            if done == part:
                continue
            basis, piv = basis_of(j)
            groups = {}
            for i in _elements(part & ~done):
                r = residual(coords[i], basis, piv)
                groups[r] = groups.get(r, mask) | 1 << i
            for r, child in groups.items():
                level.children.append((basis, piv, r))
                level.masks.append(child)
                members = _elements(child)
                if len(members) == dim + 2:
                    for i in members:
                        sub = child ^ 1 << i
                        inside[sub] = inside.get(sub, 0) | child
                else:
                    for i in members:
                        holding[i].append(child)
        levels.append(level)
        masks, basis_of = level.masks, level.basis
    return levels


def _direct_sum(fld, coords, points, parts, count: int, ops) -> list:
    """The candidate levels of a point set whose matroid is the direct sum
    of its parts'.

    A flat of a direct sum is the union of one flat per summand, and its
    rank is the sum of theirs (Oxley, Matroid Theory, ch. 4), so the dim-k
    level is every union of flats of the parts, each empty, a point, a flat
    of the part's levels or the part's span, whose ranks sum to k + 1: its
    mask is the OR of theirs.  A part's levels are grown below its span,
    whose mask is the part itself.  The unions come in blocks, one per
    choice of a rank for each part: every way of taking one flat of that
    rank per part, the last part varying fastest.  A level's masks are
    ORed a block at a time; a union's flats are decoded from its index
    (_Unions) and its basis is built on its first basis() read, from the
    basis of its flat of largest rank, by one pivot insert of the residual
    of each row of the others (each residual is nonzero, the parts' spans
    being independent).  A part's span is built the same way from one flat
    of its top level and a point outside it."""
    residual, insert = ops

    def union(first, *rest):
        basis, piv = first[1](first[2])
        for _rank, basis_of, j in rest:
            for row in basis_of(j)[0]:
                basis, piv = insert(basis, piv, residual(row, basis, piv))
        return basis, piv

    top = count + 1
    # rank -> (masks, blocks) of the unions of the parts so far; a block is
    # (start, digits, lead): its first index, then per part whose flat a
    # union takes, the one of largest rank (lead) first, that part's flats
    # at their rank as (stride, size, flats), each flat a (rank, basis_of,
    # index) triple picked by digit (j - start) // stride % size
    unions = {0: ([0], [(0, (), 0)])}
    point_basis = points.__getitem__
    for part, rank in parts:
        elements = _elements(part)
        by_rank = [([0], None), ([1 << i for i in elements], [(1, point_basis, i) for i in elements])]
        for level in _grow_part(fld, coords, points, part, min(count, rank - 2), ops):
            by_rank.append((level.masks, [(level.cost + 1, level.basis, j)
                                          for j in range(len(level.masks))]))
        if len(by_rank) == rank >= 2:
            below, flats = by_rank[-1]
            span = _Level(fld, rank - 1, union)
            span.children.append((flats[0], (1, point_basis, _elements(part & ~below[0])[0])))
            span.masks.append(part)
            by_rank.append(([part], [(rank, span.basis, 0)]))
        summed = {}
        for ra, (have, blocks) in unions.items():
            for rb, (extra, flats) in enumerate(by_rank[:top + 1 - ra]):
                masks, out = summed.setdefault(ra + rb, ([], []))
                size = len(extra)
                for start, digits, lead in blocks:
                    digits = tuple((stride * size, width, fs) for stride, width, fs in digits)
                    if rb and (rb >= ra or lead < rb):
                        digits, lead = ((1, size, flats),) + digits, rb
                    elif rb:
                        digits += ((1, size, flats),)
                    out.append((len(masks) + start * size, digits, lead))
                masks.extend([ma | mb for ma in have for mb in extra])
        unions = summed
    levels = []
    for dim in range(count):
        level = _Level(fld, dim + 1, union)
        level.masks, blocks = unions.get(dim + 2, ([], []))
        level.children = _Unions(blocks)
        levels.append(level)
    return levels


class _Unions:
    """The children of a direct-sum level, for _Level.basis: child j's flats,
    the one of largest rank first, decoded by mixed radix from the block
    that holds j (the last block starting at or before it)."""

    def __init__(self, blocks):
        self.blocks, self.starts = blocks, [block[0] for block in blocks]

    def __getitem__(self, j: int) -> list:
        start, digits, _lead = self.blocks[bisect_right(self.starts, j) - 1]
        j -= start
        return [flats[j // stride % size] for stride, size, flats in digits]


def _rational_key(entries):
    """The basis sort key of integer (basis, pivots, child) triples of one
    level over Q.

    Entry x of a basis with pivots D is x / D = x * (L // D) / L, with L the
    lcm of every D of the triples, so the scaled integers sort exactly as
    the Fractions do, whichever triples of the level are sorted.
    """
    scale = lcm(*(basis[0][piv[0]] for basis, piv, _j in entries))

    def key(entry):
        basis, piv, _j = entry
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
    """Branch and bound covering the points of a target mask by candidates
    in levels (cost >= 1, masks, items), one per cost and in ascending cost,
    items(js) giving the (mask, item) pairs of the level's candidates js in
    branching order: run(d, max_length) looks for at most max_length
    candidates of total cost <= d and returns their items in pick order, or
    None.  Each run counts its own nodes against the node budget.

    The coverage bound and the option counts that pick the branching point
    read only the masks.  A level's list of the candidates on point i is
    built by items() at the first node that branches on i and tries that
    level, and kept: a search reads the candidates of the points it
    branches on and builds no other.
    """

    def __init__(self, levels, target: int, node_budget):
        self.target = target
        self.node_budget = node_budget
        self.levels = levels
        self.costs = [cost for cost, _masks, _items in levels]
        self.index = [{} for _ in levels]  # per level: point -> its (mask, item) pairs
        self.counts = [None] * len(levels)  # per level: point -> its number of candidates
        self.options = {0: [0] * target.bit_length()}  # levels read -> per point, the sum
        # cost -> the most points on one candidate of that cost
        self.best = {cost: max(map(int.bit_count, masks)) for cost, masks, _i in levels if masks}
        self.max_cost = max(self.best, default=0)

    def _index(self, k: int, i: int) -> list:
        """The (mask, item) pairs of level k's candidates on point i."""
        got = self.index[k].get(i)
        if got is None:
            _cost, masks, items = self.levels[k]
            got = self.index[k][i] = items([j for j, mask in enumerate(masks) if mask >> i & 1])
        return got

    def _options(self, read: int) -> list:
        """Per point, its candidates on the first read levels, off their masks."""
        if read not in self.options:
            k = read - 1
            self.counts[k] = _point_counts(self.levels[k][1], self.target)
            self.options[read] = list(map(add, self._options(k), self.counts[k]))
        return self.options[read]

    def _coverage_bound(self, d: int, length: int):
        # best[b][l]: most points coverable with cost budget b and l
        # candidates, overestimated from the best single candidate of each cost.
        best_at = list(accumulate((self.best.get(k, 0) for k in range(d + 1)), max))
        table = [[0] * (length + 1) for _ in range(d + 1)]
        for b in range(1, d + 1):
            for l in range(1, length + 1):
                table[b][l] = max(best_at[k] + table[b - k][l - 1] for k in range(1, b + 1))
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
        read = bisect_right(self.costs, cost_left)
        pick = min(_elements(uncovered), key=self._options(read).__getitem__)
        for k in range(read):
            if not self.counts[k][pick]:
                continue
            cost = self.costs[k]
            for mask, item in self._index(k, pick):
                stack.append(item)
                if self._dfs(uncovered & ~mask, cost_left - cost, len_left - 1, stack):
                    return True
                stack.pop()
        self.memo.add(key)
        return False


@cache
def _spread(w: int) -> list:
    """Per byte, the byte with its bit t moved to bit t * w."""
    return [sum([(b >> t & 1) << t * w for t in range(8)]) for b in range(256)]


def _point_counts(masks, target: int) -> list:
    """Per point i below target's top bit, the number of masks holding i if
    target does, else 0.  Each mask is spread, a byte at a time, to one w-bit
    field per point, w wide enough for any count, so one sum adds them all."""
    w = len(masks).bit_length()
    spread, total = _spread(w), 0
    for s in range(0, target.bit_length(), 8):
        total += sum([spread[m >> s & 255] for m in masks]) << s * w
    field = (1 << w) - 1
    return [total >> i * w & field if target >> i & 1 else 0 for i in range(target.bit_length())]


def _point_search(gamma: PointSet, top_dim: int, parts, max_dim: int, node_budget: int,
                  levels=None) -> _CoverSearch:
    """The cover search of gamma (at least two points, spanning a dim-top_dim
    flat) for dim budgets <= max_dim, over its candidate flats with cost =
    dimension; parts are the components of its point matroid.

    A cover by two or more planes uses planes of dimension <= max_dim-1 (the
    others contribute at least 1 each), and a single covering plane shrinks
    to span(gamma); so spans of subsets up to dim max_dim-1 plus the total
    span are a complete candidate set: _grow's levels, grown here unless given.
    """
    full = (1 << len(gamma)) - 1
    cap = min(max_dim - 1, gamma.ambient_dim)
    if levels is None:
        levels = _grow(gamma, cap, parts) if cap >= 1 else []
    levels = [(level.cost, level.masks, level.items) for level in levels]
    # The levels hold every span of a subset up to dim cap, span(gamma)
    # among them when top_dim <= cap; otherwise it outranks them all in
    # (dim, basis) order and goes last, built only if the search tries it.
    if cap < top_dim <= max_dim:
        built = []  # span(gamma), on every point, built once per search

        def top(_js):
            if not built:
                flat = span(list(gamma))
                built.append((full, CandidateFlat(flat.field, flat.basis, full, flat)))
            return built

        levels.append((top_dim, [full], top))
    return _CoverSearch(levels, full, node_budget)


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
    it refuses (found=False, nodes_explored=1) builds no candidate basis, no
    point's candidate list and no span.
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
    rank, parts = _components(gamma)
    search = _point_search(gamma, rank - 1, parts, d, node_budget)
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


def _min_cover(gamma: PointSet, node_budget: int | None, levels=None,
               components=None) -> CoverResult:
    """min_cover, over the _grow levels of gamma up to dim span(gamma) - 1
    and its _components (rank, parts), each computed here unless the caller
    has them already (a point Matroid's lattice is read from the same
    levels, and its full rank comes with the same components).  A level's
    list of the candidates on a point is built by the first query that
    branches on that point and tries the level."""
    if len(gamma) == 0:
        raise ValueError("min_cover needs a nonempty point set")
    if node_budget is None:
        node_budget = node_budget_default()
    if len(gamma) == 1:
        return replace(exists_cover(gamma, 1, 1, node_budget), proof_of_minimality=True)
    rank, parts = components or _components(gamma)
    top_dim = rank - 1
    search = _point_search(gamma, top_dim, parts, top_dim, node_budget, levels)
    total_nodes = 0
    for dim in range(1, top_dim + 1):
        for length in range(1, dim + 1):
            chosen = search.run(dim, length)
            total_nodes += search.nodes
            if chosen is not None:
                return _result_from_chosen(gamma, chosen, total_nodes, minimal=True)
    raise AssertionError("the span of gamma always covers it")
