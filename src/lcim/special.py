"""Polynomial special cases.

Two structures admit fast exact algorithms: LCIM on a simple cycle falls to
an O(n*b) dynamic program over node activity and edge orientation states,
and on trees with equal incoming influence per node (and full coverage
b = n) the linear relaxation augmented with per-node hull rows has integral
vertices, so a single LP solve is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclecuts import build_uc_cut
from .knapcuts import Inequality, NodeCut
from .lp import LPModel

__all__ = [
    "CyclePlan",
    "HullCoeffs",
    "dp_cycle",
    "cycle_order",
    "hull_coefficients",
    "build_tree_equal_model",
    "build_uc_equal_cut",
]


@dataclass(frozen=True)
class CyclePlan:
    """An optimal activation on a cycle: a fully paid seed node, the
    direction of propagation, coverage b, and total incentive cost."""

    start: int
    direction: str  # "forward" | "backward" | "mixed"
    b: int
    cost: int


@dataclass(frozen=True)
class HullCoeffs:
    """Per-node hull data for equal incoming influence d: sigma = ceil(h/d)
    activations-worth of influence are needed, g = h - (sigma-1) d is the
    residual of the last one."""

    node: int
    d: int
    sigma: int
    g: int

    def __post_init__(self):
        if not (1 <= self.g <= self.d):
            raise ValueError("residual g outside [1, d]")

    @property
    def alpha(self):
        return min(self.g, self.d)

    @property
    def beta(self):
        return self.g * self.sigma


def cycle_order(instance):
    """Node order around a simple cycle, starting at node 1.

    Rejects instances that are not a single simple cycle (every node must
    have exactly two neighbors and the walk must close after n steps).
    """
    n = instance.n
    if n < 3:
        raise ValueError("a simple cycle needs at least three nodes")
    for i in range(1, n + 1):
        degree = instance.node_view(i).degree
        if degree != 2:
            raise ValueError(f"node {i} has degree {degree}, not a simple cycle")
    order = [1, min(instance.neighbors(1))]
    while len(order) < n:
        a, b = order[-2], order[-1]
        first, second = instance.neighbors(b)
        nxt = first if second == a else second
        if nxt == 1:
            break
        order.append(nxt)
    if len(order) != n or 1 not in instance.neighbors(order[-1]):
        raise ValueError("graph is not a single simple cycle")
    return order


def dp_cycle(instance, b=None):
    """Exact minimum-cost activation of b nodes on a simple cycle.

    A solution picks an active node set and an acyclic orientation of the
    edges among active nodes; each node pays its threshold minus incoming
    influence.  The DP sweeps the cycle once per boundary condition (state
    of the first node, first edge and closing edge), tracking the previous
    edge's orientation, the running active count and whether every edge so
    far shares the first edge's orientation (to exclude the two full
    rotations, the only possible directed cycles).  O(n*b) with a
    constant-size state.
    """
    if b is None:
        b = instance.b
    order = cycle_order(instance)
    n = len(order)
    if not (1 <= b <= instance.n):
        raise ValueError(f"b={b} outside [1, n]")
    h = [instance.threshold(v) for v in order]
    for k in range(n):
        if h[k] - instance.weight(order[k - 1], order[k]) < 0:
            raise ValueError(
                "influence weight exceeds threshold; preprocess the instance first"
            )

    U, F, B = 0, 1, 2  # edge e_k between order[k], order[k+1]: unused / fwd / bwd
    d = instance.weight

    def node_cost(k, left, right, active):
        """Cost of order[k] given the states of its adjacent edges."""
        if not active:
            return 0
        incoming = 0
        if left == F:
            incoming += d(order[k - 1], order[k])
        if right == B:
            incoming += d(order[(k + 1) % n], order[k])
        return max(0, h[k] - incoming)

    best = None  # (cost, actives list, edge states list)
    for a0 in (0, 1):
        for s0 in (U, F, B):
            if s0 != U and not a0:
                continue
            for s_last in (U, F, B):
                if s_last != U and not a0:
                    continue
                # layers[k]: state after node k -> (cost, prev state, (a, s))
                # state = (a_k, s_{e_k}, min(count, b), all edges so far == s0)
                start = (a0, s0, min(a0, b), s0 != U)
                layers = [{start: (0, None, None)}]
                for k in range(n - 2):
                    nxt = {}
                    for (a, s, cnt, same), (cost, _, _) in layers[k].items():
                        for a2 in (0, 1):
                            if s != U and not a2:
                                continue
                            for s2 in (U, F, B):
                                if s2 != U and not a2:
                                    continue
                                add = node_cost(k + 1, s, s2, a2)
                                key = (a2, s2, min(cnt + a2, b), same and s2 == s0)
                                cand = cost + add
                                if key not in nxt or cand < nxt[key][0]:
                                    nxt[key] = (cand, (a, s, cnt, same), (a2, s2))
                    layers.append(nxt)
                for state, (cost, _, _) in layers[-1].items():
                    a, s, cnt, same = state
                    for a_last in (0, 1):
                        if (s != U or s_last != U) and not a_last:
                            continue
                        if same and s_last == s0 and s0 != U:
                            continue  # full rotation: directed cycle
                        if min(cnt + a_last, b) < b:
                            continue
                        total = cost
                        total += node_cost(n - 1, s, s_last, a_last)
                        total += node_cost(0, s_last, s0, a0)
                        if best is None or total < best[0]:
                            actives, edges = _unwind(layers, state)
                            actives = [a0] + actives + [a_last]
                            edges = [s0] + edges + [s_last]
                            best = (total, actives, edges)
    cost, actives, edges = best
    return _plan_from_solution(instance, order, b, cost, actives, edges)


def _unwind(layers, state):
    """Recover the (a_k, s_k) decisions for nodes 1..n-2 ending in `state`."""
    decisions = []
    for layer in reversed(layers[1:]):
        cost, prev, dec = layer[state]
        decisions.append(dec)
        state = prev
    decisions.reverse()
    return [a for a, _ in decisions], [s for _, s in decisions]


def _plan_from_solution(instance, order, b, cost, actives, edges):
    """Summarize a DP solution: a fully paid seed node and the sweep shape.

    Direction is "forward"/"backward" when every used edge shares one
    rotational orientation (a one-way sweep) and "mixed" otherwise.
    """
    n = len(order)
    U, F, B = 0, 1, 2
    seed = None
    for k in range(n):
        if not actives[k]:
            continue
        fed = (edges[k - 1] == F) or (edges[k] == B)
        if not fed:
            seed = order[k]
            break
    used = {s for s in edges if s != U}
    if used == {F}:
        direction = "forward"
    elif used == {B}:
        direction = "backward"
    elif not used:
        direction = "forward"
    else:
        direction = "mixed"
    return CyclePlan(
        start=seed if seed is not None else order[0],
        direction=direction,
        b=b,
        cost=cost,
    )


# ---------------------------------------------------------------------------
# Trees with equal influence
# ---------------------------------------------------------------------------


def _is_tree(instance):
    if instance.m != 2 * (instance.n - 1):
        return False
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for v in instance.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == instance.n


def hull_coefficients(instance):
    """sigma_i = ceil(h_i/d_i) and g_i = h_i - (sigma_i - 1) d_i per node,
    where d_i is the node's common incoming weight."""
    out = {}
    for i in range(1, instance.n + 1):
        weights = set(instance.node_view(i).weights)
        if len(weights) != 1:
            raise ValueError("unequal incoming influence weights")
        d = weights.pop()
        sigma = math.ceil(instance.threshold(i) / d)
        g = instance.threshold(i) - (sigma - 1) * d
        out[i] = HullCoeffs(node=i, d=d, sigma=sigma, g=g)
    return out


def build_tree_equal_model(instance, include_hull=True):
    """LP over x >= 0 and edge orientations whose optimum is integral.

    Requires a tree, equal incoming influence per node, and b = n.  Rows:
    propagation x_i + d_i sum y_ji >= h_i, orientation y_ij + y_ji = 1 per
    edge, and hull rows x_i + min(g_i, d_i) sum y_ji >= g_i sigma_i (omitted
    where they coincide with the propagation row).  `include_hull=False`
    drops the hull rows, which can leave fractional vertices.  The columns
    are the x and y columns of the instance's layout; there is no z.
    """
    if not _is_tree(instance):
        raise ValueError("instance graph is not a tree")
    if instance.b != instance.n:
        raise ValueError("complete linear description requires b = n")
    hull = hull_coefficients(instance)

    n = instance.n
    names = instance.var_names
    model = LPModel()
    for i in range(1, n + 1):
        model.add_var(names[i - 1], lb=0.0, ub=float(instance.threshold(i)), obj=1.0)
    for name in names[n:n + instance.m]:
        model.add_var(name, lb=0.0, ub=1.0)

    for i in range(1, n + 1):
        view = instance.node_view(i)
        row = {view.xcol: 1.0}
        for k in view.ycols:
            row[k] = float(hull[i].d)
        model.add_constraint(row, ">=", float(view.h))
        if include_hull:
            alpha, beta = hull[i].alpha, hull[i].beta
            if (alpha, beta) != (hull[i].d, view.h):
                hrow = {view.xcol: 1.0}
                for k in view.ycols:
                    hrow[k] = float(alpha)
                model.add_constraint(hrow, ">=", float(beta))
    ycol = instance.ycol
    for i, j in instance.edges():
        model.add_constraint({ycol[i, j]: 1.0, ycol[j, i]: 1.0}, "=", 1.0)
    return model


def build_uc_equal_cut(ucdata, hull_map, instance):
    """(U,C) inequality specialized to equal influence and z == 1:

    sum_{i in U} gamma_i (x_i + alpha_i sum_j y_ji - beta_i)
        >= delta(U) (1 - |V(C)| + |U| + sum_{(k,l) in C, l not in U} y_kl),

    with alpha_i = min(g_i, d_i) and beta_i = g_i sigma_i: the general (U,C)
    cut over the hull rows as base inequalities, with z == 1 folded into
    the right-hand side.
    """
    base_map = {}
    for i in ucdata.U:
        view, hc = instance.node_view(i), hull_map[i]
        alpha = tuple((j, hc.alpha) for j in view.neighbors)
        base_map[i] = NodeCut(view, alpha, hc.beta, "base")
    cut = build_uc_cut(instance, ucdata, base_map)
    z = {instance.zcol(i) for i in ucdata.cycle.nodes}
    coeffs = {k: c for k, c in cut.coeffs.items() if k not in z}
    rhs = ucdata.delta - sum(c for k, c in cut.coeffs.items() if k in z)
    return Inequality(coeffs=coeffs, rhs=float(rhs), tag="hull-eq",
                      provenance=cut.provenance)
