"""Correctness gate: every solve the benchmark times is checked here.

A failed check is returned as a list of problems, so the benchmark can
count the solve as failed and keep going instead of crashing.  The
incumbent is verified from the instance alone: coverage, an acyclic
influence support, and a cost recomputed by ``oracle.activation_cost``.
"""

from __future__ import annotations

from lcim.knapcuts import yvar, zvar
from lcim.oracle import activation_cost

TOL = 1e-6


def check_report(instance, report, optimum=None):
    """Problems with a finished branch-and-cut report (empty when sound).

    optimum, when known, is the value the report must prove.
    """
    problems = []
    if report.status != "optimal":
        problems.append(f"status {report.status}")
    if abs(report.ub - report.lb) > TOL:
        problems.append(f"lb {report.lb} != ub {report.ub}")
    if optimum is not None and abs(report.ub - optimum) > TOL:
        problems.append(f"ub {report.ub} != optimum {optimum}")
    problems += check_incumbent(instance, report.incumbent, report.ub)
    return problems


def check_incumbent(instance, incumbent, cost):
    """Problems with an incumbent claimed to cost `cost`.

    An incumbent is an activation order {"order": ...} or an integral LP
    point {"point": ...}; a point is turned into an order by a topological
    sort of its influence arcs y = 1, which fails when they hold a cycle.
    """
    if not incumbent:
        return ["no incumbent"]
    if "order" in incumbent:
        order = tuple(incumbent["order"])
    elif "point" in incumbent:
        order = _topological_order(instance, incumbent["point"])
        if order is None:
            return ["influence support has a cycle"]
    else:
        return [f"unknown incumbent {sorted(incumbent)}"]

    problems = []
    if len(set(order)) != len(order) or not all(1 <= i <= instance.n for i in order):
        problems.append("activation order repeats or leaves the node range")
    if len(set(order)) < instance.b:
        problems.append(f"covers {len(set(order))} < b={instance.b} nodes")
    recomputed = activation_cost(instance, order)
    if abs(recomputed - cost) > TOL:
        problems.append(f"activation cost {recomputed} != claimed {cost}")
    return problems


def _topological_order(instance, point):
    """Active nodes (z = 1) ordered along the arcs with y = 1, or None when
    those arcs hold a cycle."""
    active = [i for i in range(1, instance.n + 1) if point.get(zvar(i), 0.0) > 0.5]
    succ = {i: [] for i in range(1, instance.n + 1)}
    indeg = dict.fromkeys(succ, 0)
    for (j, i), _ in instance.arcs:
        if point.get(yvar(j, i), 0.0) > 0.5:
            succ[j].append(i)
            indeg[i] += 1
    ready = [i for i in succ if indeg[i] == 0]
    seen = []
    while ready:
        j = ready.pop()
        seen.append(j)
        for i in succ[j]:
            indeg[i] -= 1
            if indeg[i] == 0:
                ready.append(i)
    if len(seen) < len(succ):
        return None
    active_set = set(active)
    return tuple(i for i in seen if i in active_set)

