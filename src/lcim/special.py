"""Polynomial special cases.

Two structures admit fast exact algorithms.  LCIM on a simple cycle falls to
an O(n*b) dynamic program over node activity and edge orientation states,
one sweep per state of the closing edge, which answers with a cost and an
optimal activation order.  On trees with equal incoming influence per node
(and full coverage b = n) the linear relaxation augmented with per-node hull
rows has integral vertices, so a single LP solve is exact.  Each hull row is
a node cut (`knapcuts.NodeCut`) of the node's single-node set.  The tree LP
is the solver's oriented formulation, every z fixed to 1 by its bounds,
plus the hull rows; the hull (U,C) cuts fold z = 1 into their right-hand
sides.
"""

from __future__ import annotations

import graphlib

from .bnc import formulation
from .cyclecuts import build_uc_cut
from .knapcuts import Inequality, NodeCut, propagation_row

__all__ = [
    "dp_cycle",
    "cycle_order",
    "hull_cuts",
    "build_tree_equal_model",
    "build_uc_equal_cut",
]


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


def hull_cuts(instance):
    """Each node's hull row x_i + g_i sum_j y_ji >= g_i sigma_i z_i as a
    node cut (tag "base"), keyed by node.  The node's incoming weights must
    all equal one d_i; sigma_i = ceil(h_i/d_i) activations-worth of influence
    are needed and g_i = h_i - (sigma_i - 1) d_i, in [1, d_i], is the
    residual of the last one.  A node without neighbours takes d_i = h_i,
    which makes its hull row its propagation row x_i >= h_i z_i."""
    cuts = {}
    for i in range(1, instance.n + 1):
        view = instance.node_view(i)
        weights = set(view.weights)
        if len(weights) > 1:
            raise ValueError("unequal incoming influence weights")
        d = weights.pop() if weights else view.h
        sigma = -(-view.h // d)
        g = view.h - (sigma - 1) * d
        cuts[i] = NodeCut(view, tuple((j, g) for j in view.neighbors), g * sigma, "base")
    return cuts


def _fix_z(instance, ineq):
    """The inequality with every z column fixed to 1: the z terms leave the
    coefficients and move into the right-hand side.  Returns (coeffs, rhs)."""
    z = range(instance.zcol(1), instance.zcol(instance.n) + 1)
    coeffs = {k: c for k, c in ineq.coeffs.items() if k not in z}
    rhs = ineq.rhs - sum(c for k, c in ineq.coeffs.items() if k in z)
    return coeffs, rhs


def build_tree_equal_model(instance):
    """LP over the instance's columns whose optimum is integral.

    Requires a tree, equal incoming influence per node, and b = n.  It is
    the oriented `bnc.formulation` (propagation rows, orientation rows
    y_ij + y_ji = 1 per edge, every z fixed to 1 by its bounds) followed by
    each node's hull row x_i + g_i sum y_ji >= g_i sigma_i z_i
    (`hull_cuts`) that differs from its propagation row.
    """
    if not _is_tree(instance):
        raise ValueError("instance graph is not a tree")
    if instance.b != instance.n:
        raise ValueError("complete linear description requires b = n")
    model = formulation(instance, oriented=True)
    for cut in hull_cuts(instance).values():
        if cut.coeffs != propagation_row(cut.view).coeffs:
            model.add_constraint(cut.coeffs, ">=", cut.rhs)
    return model


def build_uc_equal_cut(instance, cycle, U, hull):
    """(U,C) inequality specialized to equal influence and z == 1:

    sum_{i in U} gamma_i (x_i + g_i sum_j y_ji - g_i sigma_i)
        >= delta(U) (1 - |V(C)| + |U| + sum_{(k,l) in C, l not in U} y_kl):

    the general (U,C) cut over the hull rows `hull` (as `hull_cuts` returns
    them) as base inequalities, with z == 1 folded into the right-hand side.
    """
    cut = build_uc_cut(instance, cycle, U, hull)
    coeffs, rhs = _fix_z(instance, cut)
    return Inequality(coeffs=coeffs, rhs=rhs, tag="hull-eq",
                      provenance=cut.provenance)
