"""Single-node knapsack cuts: continuous cover, continuous packing, and
minimal influencing subset (MIS) inequalities.

Every node of an LCIM instance carries the mixed 0-1 set

    P = { (x, y, z) : x + sum_j d_j y_j >= h z, x >= 0, y, z binary },

and the three families below are valid (often facet-defining) inequalities
for conv(P); cover and packing cuts are lifted through the piecewise-linear
functions Phi and Psi of one `LiftingSet`.  Separation is exact: MIS
separation solves a small knapsack DP per residual value rather than
relying on a greedy prefix scan, indexed by the node's reachable subset
sums below its threshold, and each MIS cut found is turned into a cover
cut (`cover_from_mis`) and that into a packing cut (`packing_from_cover`).
A `MisTable` holds every MIS row of an instance's nodes of degree at most
MIS_TABLE_DEGREE and scores them all at a point in one numpy gather; only
the nodes with a violated row, and every node of higher degree, need the
DP.  The table filters and never makes a cut, so the cuts are those the
DP finds on its own.

Every node cut is a `NodeCut` in (alpha, beta) form,
x_i + sum_j alpha_ji y_ji >= beta_i z_i, holding the node view it was built
from and its defining set; the same object serves as a base inequality of
the (U,C) cuts in `cyclecuts`.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .instance import yvar, zvar  # noqa: F401  (re-exported)

__all__ = [
    "Inequality",
    "NodeCut",
    "LiftingSet",
    "CutPool",
    "make_cover_set",
    "make_packing_set",
    "phi",
    "psi",
    "build_cover_cut",
    "build_packing_cut",
    "build_mis_cut",
    "propagation_row",
    "separate_mis",
    "MisTable",
    "cover_from_mis",
    "packing_from_cover",
]

VIOLATION_TOL = 1e-6  # a cut must be violated by more than this to be added
# rows of one MIS DP block: max(1, MIS_DP_CELLS // S) of the node's S reachable
# subset sums, one column each, so each of its v + 1 tables holds about
# max(MIS_DP_CELLS, S) cells
MIS_DP_CELLS = 1 << 16
# nodes of higher degree stay out of the MIS table (at most 2^8 rows a node)
# and always run the DP
MIS_TABLE_DEGREE = 8


@dataclass
class Inequality:
    """A sparse linear inequality  sum_k coeffs[k] * v_k >= rhs, where
    coeffs maps LP columns k to coefficients and a point is a list of
    values indexed by column.

    Node cuts (`NodeCut`) are in "lhs >= 0" form: the x coefficient is 1
    and z appears with a negative coefficient.
    """

    coeffs: dict
    rhs: float
    tag: str  # cover | packing | mis | gcec | uc | hull-eq | base
    provenance: tuple = ()

    def violation(self, point):
        """Positive when the point violates the inequality."""
        return self.rhs - sum(c * point[k] for k, c in self.coeffs.items())

    @property
    def key(self):
        return (self.tag, self.provenance)

    def render(self, names):
        """Canonical text form, positive terms left, negated terms right;
        names maps each column to its variable name (the `var_names` of an
        instance or of a node view)."""

        def fmt(c, k):
            if c == int(c):
                c = int(c)
            return names[k] if c == 1 else f"{c} {names[k]}"

        order = sorted(self.coeffs)
        left = [fmt(c, k) for k in order if (c := self.coeffs[k]) > 0]
        right = [fmt(-c, k) for k in order if (c := self.coeffs[k]) < 0]
        rhs = self.rhs
        if rhs == int(rhs):
            rhs = int(rhs)
        if rhs != 0:
            right.append(str(rhs))
        return f"{' + '.join(left) or '0'} >= {' + '.join(right) or '0'}"


class NodeCut(Inequality):
    """A node inequality x_i + sum_j alpha_ji y_ji >= beta_i z_i.

    alpha holds one (j, alpha_ji) pair per entry of view.d, in that order;
    coeffs is built once from it, zeros kept.  members is the defining set
    (cover, packing or MIS subset) and goes into the provenance.
    """

    def __init__(self, view, alpha, beta, tag, members=()):
        coeffs = {view.xcol: 1}
        for (_, a), k in zip(alpha, view.ycols):
            coeffs[k] = a
        coeffs[view.zcol] = -beta
        members = frozenset(members)
        super().__init__(coeffs=coeffs, rhs=0.0, tag=tag,
                         provenance=(view.node, tuple(sorted(members))))
        self.view, self.alpha, self.beta, self.members = view, alpha, beta, members

    def theta(self, point):
        """Slack of the inequality at a point (may be negative)."""
        view = self.view
        val = point[view.xcol] - self.beta * point[view.zcol]
        for (_, a), k in zip(self.alpha, view.ycols):
            val += a * point[k]
        return val

    def omega(self, cycle_nodes):
        """Residual slack h_i - beta_i + sum_{j outside the cycle} (alpha_ji - d_ji)."""
        w = self.view.h - self.beta
        for (j, a), (_, d) in zip(self.alpha, self.view.d):
            if j not in cycle_nodes:
                w += a - d
        return w


class CutPool:
    """Deduplicating cut store keyed by (family, provenance)."""

    def __init__(self):
        self._cuts = {}
        self.counts = {}

    def __len__(self):
        return len(self._cuts)

    def __iter__(self):
        return iter(self._cuts.values())

    def add(self, ineq):
        """Insert a cut; returns False when an identical cut is present."""
        if ineq.key in self._cuts:
            return False
        self._cuts[ineq.key] = ineq
        self.counts[ineq.tag] = self.counts.get(ineq.tag, 0) + 1
        return True

    def for_node(self, node):
        """Cover and packing cuts of the node: the base inequalities for
        cycle coupling."""
        return [
            q
            for q in self._cuts.values()
            if q.tag in ("cover", "packing") and q.view.node == node
        ]


# ---------------------------------------------------------------------------
# Defining sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftingSet:
    """A minimal cover S or minimal packing L of a node with its lifting
    data: the residual (pi = h - sum_{N\\S} d for a cover, lam = sum_L d - h
    for a packing; positive, and at most every member's weight) and the
    prefix sums of the member weights above it, heaviest first."""

    members: frozenset
    residual: int
    prefix: tuple


def _subset(view, members, what):
    """members as a frozenset and its weight sum; rejects non-neighbors."""
    members = frozenset(members)
    unknown = members - set(view.neighbors)
    if unknown:
        raise ValueError(f"{what} references non-neighbors {sorted(unknown)}")
    return members, sum(w for j, w in view.d if j in members)


def _lifting_set(view, members, residual, what, symbol):
    """Check that the residual is positive and that no member can be dropped
    while keeping it so (d_j >= residual for every member)."""
    if residual <= 0:
        raise ValueError(f"not a {what}: {symbol} = {residual} <= 0")
    for j, w in view.d:
        if j in members and w < residual:
            raise ValueError(f"{what} not minimal: element {j} (d={w}) removable")
    heavy = sorted((w for j, w in view.d if j in members and w > residual), reverse=True)
    return LiftingSet(members, residual, tuple(accumulate(heavy)))


def make_cover_set(view, S):
    """Validate S as a minimal cover of the node (pi > 0) and build its
    lifting data."""
    S, inside = _subset(view, S, "cover")
    return _lifting_set(view, S, view.h + inside - sum(view.weights), "cover", "pi")


def make_packing_set(view, L):
    """Validate L as a minimal packing of the node (lam > 0) and build its
    lifting data."""
    L, inside = _subset(view, L, "packing")
    return _lifting_set(view, L, inside - view.h, "packing", "lam")


# ---------------------------------------------------------------------------
# Lifting functions
# ---------------------------------------------------------------------------


def phi(d, cover):
    """Piecewise lifting function of a cover set.

    Phi is 0 on [0, D_1 - pi], climbs by pi across each ramp [D_j - pi, D_j],
    and grows linearly as r*pi + d - D_r past the last breakpoint.
    """
    if d < 0:
        raise ValueError("negative influence weight")
    pi, D = cover.residual, cover.prefix
    r = len(D)
    if r == 0:
        return 0
    for j in range(r):
        if d <= D[j] - pi:
            return j * pi
        if d <= D[j]:
            return (j + 1) * pi + d - D[j]
    return r * pi + d - D[r - 1]


def psi(d, packing):
    """Piecewise lifting function of a packing set.

    Psi follows d - j*lam on ramps [D_j, D_{j+1} - lam], plateaus at
    D_j - j*lam, and is constant D_r - r*lam beyond D_r - lam.  The segment
    holding d is located by binary search over the breakpoints.
    """
    if d < 0:
        raise ValueError("negative influence weight")
    lam, D = packing.residual, packing.prefix
    r = len(D)
    if r == 0:
        return 0
    if d >= D[r - 1] - lam:
        return D[r - 1] - r * lam
    j = bisect_right(D, d)  # number of breakpoints <= d; d lies past D_j
    if j < r and d > D[j] - lam:
        return D[j] - (j + 1) * lam
    return d - j * lam


# ---------------------------------------------------------------------------
# Cut constructors
# ---------------------------------------------------------------------------


def build_cover_cut(view, S):
    """Continuous cover inequality for a minimal cover S."""
    cover = make_cover_set(view, S)
    pi = cover.residual
    alpha, beta = [], pi
    for j, w in view.d:
        if j in cover.members:
            alpha.append((j, min(pi, w)))
        else:
            lifted = phi(w, cover)
            alpha.append((j, lifted))
            beta += lifted
    return NodeCut(view, tuple(alpha), beta, "cover", cover.members)


def build_packing_cut(view, L):
    """Continuous packing inequality for a minimal packing L."""
    packing = make_packing_set(view, L)
    lam = packing.residual
    alpha, beta = [], 0
    for j, w in view.d:
        if j in packing.members:
            alpha.append((j, max(0, w - lam)))
            beta += max(0, w - lam)
        else:
            alpha.append((j, psi(w, packing)))
    return NodeCut(view, tuple(alpha), beta, "packing", packing.members)


def build_mis_cut(view, M):
    """Minimal influencing subset inequality x + sum_{j not in M} min(d_j, p) y_j >= p z,
    for a subset M with residual incentive p = h - sum_M d > 0."""
    M, inside = _subset(view, M, "subset")
    p = view.h - inside
    if p <= 0:
        raise ValueError(f"residual incentive p = {p} <= 0")
    alpha = tuple((j, 0 if j in M else min(w, p)) for j, w in view.d)
    return NodeCut(view, alpha, p, "mis", M)


def propagation_row(view):
    """The node's propagation row x_i + sum_j d_ji y_ji >= h_i z_i as a
    node cut (alpha = d, beta = h); its omega is 0 on any cycle through all
    its neighbors, so such nodes never enter U."""
    return NodeCut(view, view.d, view.h, "base")


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------


def separate_mis(view, point, deadline=math.inf):
    """Exact MIS separation of the node's cuts at an LP point.

    The violation of the MIS cut for a subset M with weight sum s is

        p*z - x - (T(p) - sum_{j in M} min(d_j, p) y_j),   p = h - s,

    where T(p) = sum_j min(d_j, p) y_j.  For each achievable residual p we
    maximize the recovered term by a 0/1 knapsack DP constrained to hit the
    weight sum s exactly, which makes the separation provably exact (a
    single greedy scan by ascending y* can miss the optimum).  Ties between
    equally violated subsets are resolved toward larger p.

    The DP's rows and columns are the node's reachable subset sums below h
    (`view.subset_sums`), so its work follows their number, not h.  The DPs
    of all s run at once, one row per s, in blocks; the winning s reads its
    subset back from its block's tables.

    Returns the MIS `NodeCut` whose members are the subset M, or None when
    no cut is violated by more than VIOLATION_TOL or when the monotonic
    clock passes `deadline` before a DP block.
    """
    h = view.h
    x_star, z_star = point[view.xcol], point[view.zcol]
    items = list(view.d)  # (neighbor, weight)
    ys = [point[k] for k in view.ycols]
    # with y, z >= 0 no violation exceeds h*z - x, so none can be large enough
    if min(ys + [z_star]) >= 0.0 and h * z_star - x_star <= VIOLATION_TOL:
        return None
    sums, sources = view.subset_sums, view.sum_sources
    best = None  # (violation, row of s, column of s, its block's tables)
    block = max(1, MIS_DP_CELLS // len(sums))
    for r0 in range(0, len(sums), block):
        if time.monotonic() > deadline:
            return None
        s = sums[r0:r0 + block]
        tables, total = _mis_tables(items, ys, h, s, sources)
        rows = np.arange(len(s))
        recovered = tables[-1][rows, r0 + rows]
        violation = (h - s) * z_star - x_star - (total - recovered)
        # ascending s keeps larger p on ties
        for r, viol in enumerate(violation.tolist()):
            if best is None or viol > best[0] + 1e-12:
                best = (viol, r, r0 + r, tables)
    viol, r, t, tables = best
    if viol <= VIOLATION_TOL:
        return None
    members = []
    for k in range(len(items), 0, -1):
        without, with_k = tables[k - 1][r, t], tables[k][r, t]
        if without > -np.inf and abs(with_k - without) <= 1e-9:
            continue  # an optimal completion exists without item k
        members.append(items[k - 1][0])
        t = sources[k - 1, t]
    cut = build_mis_cut(view, members)
    # recompute from the reconstructed subset; guards against backtrack drift
    if cut.violation(point) <= VIOLATION_TOL:
        return None
    return cut


def _mis_tables(items, ys, h, s, sources):
    """Knapsack DP of the MIS separation for each weight sum in the array s.

    Column c of a table stands for the node's reachable subset sum
    `subset_sums[c]` and its last column for none, so item k extends
    column sources[k, c] (`sum_sources`) to column c.  tables[k][r, c] is
    the best recovered value sum min(d_j, p) y_j, p = h - s[r], over
    subsets of the first k items of that weight sum (-inf when none has
    it); total[r] is T(p), summed over all items.
    """
    p = h - s
    dp = np.full((len(s), sources.shape[1]), -np.inf)
    dp[:, 0] = 0.0
    tables, total = [dp], np.zeros(len(s))
    for (_, w), y, src in zip(items, ys, sources):
        gain = np.minimum(w, p) * y
        total += gain
        dp = np.maximum(dp, dp[:, src] + gain[:, None])
        tables.append(dp)
    return tables, total


class MisTable:
    """Every MIS row of an instance's nodes, to pick the nodes worth an
    exact MIS separation at a point.

    For each node i of degree at most MIS_TABLE_DEGREE it holds the row
    x_i + sum_{j not in M} min(d_j, p) y_ji >= p z_i of every neighbour
    subset M with p = h_i - d(M) > 0, grouped by node and padded to the
    largest degree with zero coefficients.  A node of higher degree is left
    out.  The table only filters: cuts still come from `separate_mis`.
    """

    def __init__(self, instance):
        views = [instance.node_view(i) for i in range(1, instance.n + 1)]
        tabled = [v for v in views if v.degree <= MIS_TABLE_DEGREE]
        self.untabled = [v.node for v in views if v.degree > MIS_TABLE_DEGREE]
        self.nodes = np.array([v.node for v in tabled], dtype=np.intp)
        width = max((v.degree for v in tabled), default=0)
        xcol, zcol, p = [], [], []
        idx, coef = [np.empty((0, width), np.intp)], [np.empty((0, width))]
        for view in tabled:
            v = view.degree
            inside = (np.arange(1 << v)[:, None] >> np.arange(v)) & 1  # row r: M = bits of r
            residual = view.h - inside @ np.array(view.weights, dtype=np.int64)
            keep = residual > 0  # M = {} (p = h) always stays, so every node has a row
            inside, residual = inside[keep], residual[keep]
            xcol += [view.xcol] * len(residual)
            zcol += [view.zcol] * len(residual)
            p += residual.tolist()
            c = np.zeros((len(residual), width))
            c[:, :v] = np.where(inside, 0, np.minimum(view.weights, residual[:, None]))
            coef.append(c)
            k = np.zeros((len(residual), width), dtype=np.intp)
            k[:, :v] = view.ycols
            idx.append(k)
        self.starts = np.flatnonzero(np.diff(zcol, prepend=-1))  # each node's first row
        self.xcol, self.zcol = np.array(xcol, np.intp), np.array(zcol, np.intp)
        self.p = np.array(p, dtype=float)
        self.idx, self.coef = np.concatenate(idx), np.concatenate(coef)

    def maxima(self, point):
        """The largest MIS row violation of each node in `nodes` at the point."""
        pt = np.asarray(point, dtype=float)
        viol = self.p * pt[self.zcol] - pt[self.xcol] - (self.coef * pt[self.idx]).sum(1)
        return np.maximum.reduceat(viol, self.starts)

    def candidates(self, point):
        """The nodes, ascending, whose MIS rows may hold a cut violated by
        more than VIOLATION_TOL: those of the table with a row violated by
        more than VIOLATION_TOL - 1e-9 (the margin covers the DP's other
        summation order), and every node left out."""
        hit = self.nodes[self.maxima(point) > VIOLATION_TOL - 1e-9].tolist()
        return sorted(hit + self.untabled)


def cover_from_mis(mis):
    """Turn an MIS cut into a cover cut of its node: S = N \\ M, pi = p.

    The raw complement need not be minimal; elements with d_j < pi are
    peeled off (each removal lowers pi by d_j but keeps it positive) so the
    returned set always satisfies the cover constructor's preconditions.
    Returns the cover cut, or None when nothing is left of S.
    """
    view = mis.view
    members = set(view.neighbors) - mis.members
    _shrink(view, members, mis.beta)
    if not members:
        return None
    return build_cover_cut(view, members)


def _shrink(view, members, residual):
    """Peel members lighter than the residual off `members` in place,
    smallest id first; each removal lowers the residual by its weight."""
    while True:
        light = [j for j, w in view.d if j in members and w < residual]
        if not light:
            return
        j = min(light)
        members.discard(j)
        residual -= view.weight_of(j)


def packing_from_cover(cover, point):
    """Derive the most violated packing cut reachable from a cover cut.

    Every k in S whose transfer to the complement pushes the weight sum past
    h yields a candidate packing L = (N \\ S) + {k} of the cover's node; the
    candidate is shrunk to minimality and the most violated resulting cut is
    returned.
    """
    view = cover.view
    outside = set(view.neighbors) - cover.members
    base = sum(w for j, w in view.d if j in outside)
    best = None
    for k in sorted(cover.members):
        if base + view.weight_of(k) <= view.h:
            continue
        members = set(outside) | {k}
        _shrink(view, members, base + view.weight_of(k) - view.h)
        if not members:
            continue
        cut = build_packing_cut(view, members)
        violation = cut.violation(point)
        if violation > VIOLATION_TOL and (best is None or violation > best[1]):
            best = (cut, violation)
    return None if best is None else best[0]

