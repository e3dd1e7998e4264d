"""Ground-truth engines for tiny instances.

Everything here trades time for certainty: exhaustive activation-order
optima, brute-force validity checks of inequalities against all feasible
integral points, facet verification by affine rank of tight points, and an
exhaustive (U,C) subset scan.  These are the reference implementations the
fast code is tested against.
"""

from __future__ import annotations

import math
from itertools import islice, permutations, product

import numpy as np

from .cyclecuts import uc_violation

__all__ = [
    "brute_force_optimum",
    "permutation_optimum",
    "activation_cost",
    "check_validity",
    "check_validity_instance",
    "check_facet",
    "enumerate_uc_subsets",
    "enumerate_feasible_points",
]

MAX_ORACLE_NODES = 12
VALIDITY_BLOCK = 4096  # points per matrix product in check_validity_instance
VALIDITY_TOL = 1e-9  # largest violation a valid inequality may show at a point
FACET_RANK_TOL = 1e-8  # singular-value cut-off of the affine rank in check_facet


def activation_cost(instance, order):
    """Incentive cost of activating `order` left to right, each node drawing
    full influence from previously activated neighbors."""
    active = set()
    cost = 0
    for i in order:
        influence = sum(w for j, w in instance.node_view(i).d if j in active)
        cost += max(0, instance.threshold(i) - influence)
        active.add(i)
    return cost


def brute_force_optimum(instance):
    """Exact LCIM optimum with an optimal activation order.

    Optimal propagation is acyclic, so some activation order of the final
    active set realizes the optimum with every node receiving all influence
    from earlier neighbors; a subset DP over activation sets captures all
    orders at once.  Equivalent to full permutation enumeration (see
    `permutation_optimum`), just exponentially cheaper.
    """
    n = instance.n
    if n > MAX_ORACLE_NODES:
        raise ValueError(f"oracle limited to {MAX_ORACLE_NODES} nodes")
    h = [instance.threshold(i) for i in range(1, n + 1)]
    inweights = [  # per node: list of (neighbor bit, weight)
        [(1 << (j - 1), w) for j, w in instance.node_view(i).d] for i in range(1, n + 1)
    ]

    size = 1 << n
    INF = math.inf
    f = [INF] * size
    last = [0] * size
    f[0] = 0
    for mask in range(1, size):
        best = INF
        arg = 0
        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                continue
            rest = mask ^ bit
            if f[rest] is INF:
                continue
            influence = sum(w for nb, w in inweights[i] if rest & nb)
            cand = f[rest] + max(0, h[i] - influence)
            if cand < best:
                best = cand
                arg = i
        f[mask] = best
        last[mask] = arg

    best_mask = min(
        (m for m in range(size) if bin(m).count("1") >= instance.b),
        key=lambda m: f[m],
    )
    order = []
    mask = best_mask
    while mask:
        i = last[mask]
        order.append(i + 1)
        mask ^= 1 << i
    order.reverse()
    return f[best_mask], tuple(order)


def permutation_optimum(instance):
    """Literal minimum over all activation orders of all subsets of size >= b.

    Prefix costs are monotone, so branches exceeding the incumbent prune
    safely.  Only sensible for very small n; used to cross-check the DP.
    """
    n = instance.n
    if n > 7:
        raise ValueError("permutation oracle limited to 7 nodes")
    nodes = list(range(1, n + 1))
    best = (math.inf, ())
    for size in range(instance.b, n + 1):
        for perm in permutations(nodes, size):
            cost = activation_cost(instance, perm)
            if cost < best[0]:
                best = (cost, perm)
    return best


# ---------------------------------------------------------------------------
# Validity and facets over the single-node set P
# ---------------------------------------------------------------------------


def _node_points(view):
    """All minimal-x feasible points of P as (x, y-tuple, z)."""
    v = view.degree
    weights = view.weights
    for z in (0, 1):
        for ybits in product((0, 1), repeat=v):
            x = max(0, view.h * z - sum(w * y for w, y in zip(weights, ybits)))
            yield x, ybits, z


def check_validity(ineq, view):
    """True iff no feasible point of P violates the inequality.

    Minimal-x points suffice: raising x only increases the left-hand side
    (the x coefficient of every node cut is positive).  Each point is a
    list over the view's columns, 0 elsewhere.
    """
    point = [0] * (1 + max(view.xcol, view.zcol, *view.ycols))
    for x, ybits, z in _node_points(view):
        point[view.xcol], point[view.zcol] = x, z
        for k, y in zip(view.ycols, ybits):
            point[k] = y
        if ineq.violation(point) > VALIDITY_TOL:
            return False
    return True


def check_facet(ineq, view):
    """Whether a valid node inequality is facet-defining for conv(P).

    For every binary (y, z), the unique x making the cut tight is computed
    and kept when it is feasible for P; the inequality defines a facet iff
    the tight points affinely span dimension v + 1 in the (v+2)-dimensional
    variable space.
    """
    if not check_validity(ineq, view):
        raise ValueError("inequality is not valid; facetness undefined")
    cx = ineq.coeffs.get(view.xcol, 0.0)
    if cx <= 0:
        raise ValueError("node inequality must have a positive x coefficient")
    v = view.degree
    tight = []
    for x_min, ybits, z in _node_points(view):
        rest = ineq.coeffs.get(view.zcol, 0.0) * z
        rest += sum(
            ineq.coeffs.get(k, 0.0) * y for k, y in zip(view.ycols, ybits)
        )
        x_tight = (ineq.rhs - rest) / cx
        if x_tight >= x_min - 1e-9:
            tight.append([x_tight, *ybits, z])
    if len(tight) < v + 2:
        return False
    mat = np.array(tight, dtype=float)
    rank = np.linalg.matrix_rank(mat - mat[0], tol=FACET_RANK_TOL)
    return rank == v + 1


# ---------------------------------------------------------------------------
# Validity over whole instances
# ---------------------------------------------------------------------------


def enumerate_feasible_points(instance):
    """All feasible integral points with minimal x, as lists of values
    indexed by LP column.

    Feasibility: edge coupling (influence only between active nodes, at
    most one direction per edge), acyclic influence support, coverage
    sum z >= b, and x set to the minimal incentive.
    """
    n = instance.n
    if n > 8:
        raise ValueError("instance enumeration limited to 8 nodes")
    ycol = instance.ycol
    views = [instance.node_view(i) for i in range(1, n + 1)]
    for zbits in product((0, 1), repeat=n):
        if sum(zbits) < instance.b:
            continue
        template = [0] * instance.ncols
        for view, z in zip(views, zbits):
            template[view.zcol] = z
        active = [view for view, z in zip(views, zbits) if z]
        # per edge between active nodes, its orientations i->j and j->i as
        # (tail, head, y column, weight)
        choices = [
            tuple((a, c, ycol[a, c], instance.weight(a, c)) for a, c in ((i, j), (j, i)))
            for i, j in instance.edges()
            if zbits[i - 1] and zbits[j - 1]
        ]
        reach = [1 << i for i in range(n + 1)]
        for arcs in _acyclic_arc_sets(choices, 0, reach, ()):
            point = template.copy()
            influence = [0] * (n + 1)
            for _, head, k, w in arcs:
                point[k] = 1
                influence[head] += w
            for view in active:
                point[view.xcol] = max(0, view.h - influence[view.node])
            yield point


def _acyclic_arc_sets(choices, t, reach, arcs):
    """Every extension of `arcs` that leaves each edge of choices[t:] unused
    or gives it one of its orientations without closing a directed cycle,
    in the order of itertools.product over (unused, *orientations).

    reach[u] is the bit set of the nodes that u reaches along `arcs`; an
    arc tail -> head closes a cycle exactly when head reaches tail.
    """
    if t == len(choices):
        yield arcs
        return
    yield from _acyclic_arc_sets(choices, t + 1, reach, arcs)
    for arc in choices[t]:
        tail, head = arc[0], arc[1]
        if reach[head] >> tail & 1:
            continue
        grown = [r | reach[head] if r >> tail & 1 else r for r in reach]
        yield from _acyclic_arc_sets(choices, t + 1, grown, arcs + (arc,))


def check_validity_instance(cuts, instance):
    """True iff no feasible integral point of the instance violates any of
    the cuts; the points are enumerated once for all of them and checked
    against every cut a block at a time, by one matrix product."""
    cuts = list(cuts)
    coef = np.zeros((instance.ncols, len(cuts)))
    for j, cut in enumerate(cuts):
        for k, c in cut.coeffs.items():
            coef[k, j] = c
    rhs = np.array([cut.rhs for cut in cuts], dtype=float)
    points = enumerate_feasible_points(instance)
    while block := list(islice(points, VALIDITY_BLOCK)):
        if not (rhs - np.array(block, dtype=float) @ coef <= VALIDITY_TOL).all():
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive (U,C) scan
# ---------------------------------------------------------------------------


def enumerate_uc_subsets(instance, cycle, base_map, point):
    """Maximum (U,C) violation over every eligible subset U, by brute force."""
    nodes = cycle.nodes
    if len(nodes) > 12:
        raise ValueError("exhaustive scan limited to 12 cycle nodes")
    omegas = {i: base_map[i].omega(set(nodes)) for i in nodes}
    eligible = [i for i in nodes if omegas[i] >= 1]
    best_U, best_viol = (), uc_violation(instance, cycle, base_map, (), point)
    for mask in range(1, 1 << len(eligible)):
        U = tuple(i for k, i in enumerate(eligible) if mask >> k & 1)
        viol = uc_violation(instance, cycle, base_map, U, point)
        if viol > best_viol:
            best_U, best_viol = U, viol
    return best_U, best_viol
