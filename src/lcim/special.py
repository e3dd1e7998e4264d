"""Polynomial special cases.

Two structures admit fast exact algorithms.  LCIM on a simple cycle falls to
an O(n*b) dynamic program over node activity and edge orientation states,
one sweep per state of the closing edge, which answers with a cost and an
optimal activation order.  On trees with equal incoming influence per node
(and full coverage b = n) the linear relaxation augmented with per-node hull
rows has integral vertices, so a single LP solve is exact.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass

from .cyclecuts import build_uc_cut
from .knapcuts import Inequality, NodeCut
from .lp import LPModel

__all__ = [
    "HullCoeffs",
    "dp_cycle",
    "cycle_order",
    "hull_coefficients",
    "build_tree_equal_model",
    "build_uc_equal_cut",
]


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

    Returns (cost, order) like `oracle.brute_force_optimum`: an optimal
    activation order of at least b distinct nodes.  A solution picks the
    active nodes and an acyclic orientation of the edges among them; each
    active node pays its threshold minus the influence over its incoming
    edges.  Edge e_k joins order[k] and order[k+1]; e_{n-1} closes the cycle.
    One sweep per state of e_{n-1} (unused, forward, backward) carries,
    after node k, the state of e_k, the active count capped at b and
    whether every edge so far equals e_{n-1}; node k's activity is chosen in
    its step.  The only directed cycles are the two full rotations, the
    final states of a used e_{n-1} whose flag is still set.  O(n*b).
    """
    if b is None:
        b = instance.b
    order = cycle_order(instance)
    n = len(order)
    if not (1 <= b <= n):
        raise ValueError(f"b={b} outside [1, n]")
    if not instance.is_preprocessed():
        raise ValueError(
            "influence weight exceeds threshold; preprocess the instance first"
        )

    U, F, B = 0, 1, 2  # edge e_k: unused / order[k] -> order[k+1] / backward
    h = [instance.threshold(v) for v in order]
    d_left = [instance.weight(order[k - 1], order[k]) for k in range(n)]
    d_right = [instance.weight(order[(k + 1) % n], order[k]) for k in range(n)]

    best = None  # (cost, closing state, layers)
    for last in (U, F, B):
        # layers[k + 1]: state after node k -> (cost, previous state, active);
        # the state before node 0 holds e_{n-1} as its left edge
        layers = [{(last, 0, last != U): (0, None, None)}]
        for k in range(n):
            layer = {}
            for state, (cost, _, _) in layers[k].items():
                left, count, same = state
                for right in (U, F, B) if k < n - 1 else (last,):
                    for active in (0, 1):
                        if not active and (left != U or right != U):
                            continue
                        pay = 0
                        if active:
                            pay = max(0, h[k] - (d_left[k] if left == F else 0)
                                      - (d_right[k] if right == B else 0))
                        key = (right, min(count + active, b), same and right == last)
                        if key not in layer or cost + pay < layer[key][0]:
                            layer[key] = (cost + pay, state, active)
            layers.append(layer)
        cost = layers[n][last, b, False][0]
        if best is None or cost < best[0]:
            best = (cost, last, layers)

    cost, last, layers = best
    preds = {}  # active node -> nodes that influence it
    state = (last, b, False)
    for k in range(n - 1, -1, -1):
        _, prev, active = layers[k + 1][state]
        v, w = order[k], order[(k + 1) % n]
        if active:
            preds.setdefault(v, [])
        if state[0] == F:
            preds.setdefault(w, []).append(v)
        elif state[0] == B:
            preds[v].append(w)
        state = prev
    return cost, tuple(graphlib.TopologicalSorter(preds).static_order())


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


def build_uc_equal_cut(instance, cycle, U, hull_map):
    """(U,C) inequality specialized to equal influence and z == 1:

    sum_{i in U} gamma_i (x_i + alpha_i sum_j y_ji - beta_i)
        >= delta(U) (1 - |V(C)| + |U| + sum_{(k,l) in C, l not in U} y_kl),

    with alpha_i = min(g_i, d_i) and beta_i = g_i sigma_i: the general (U,C)
    cut over the hull rows as base inequalities, with z == 1 folded into
    the right-hand side.
    """
    base_map = {}
    for i in U:
        view, hc = instance.node_view(i), hull_map[i]
        alpha = tuple((j, hc.alpha) for j in view.neighbors)
        base_map[i] = NodeCut(view, alpha, hc.beta, "base")
    cut = build_uc_cut(instance, cycle, U, base_map)
    z = {instance.zcol(i) for i in cycle.nodes}
    coeffs = {k: c for k, c in cut.coeffs.items() if k not in z}
    rhs = cut.rhs - sum(c for k, c in cut.coeffs.items() if k in z)
    return Inequality(coeffs=coeffs, rhs=rhs, tag="hull-eq",
                      provenance=cut.provenance)
