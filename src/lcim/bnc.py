"""Branch-and-cut engine for LCIM.

Three formulation modes are supported:

* ``def`` — the arc formulation with lazily separated cycle elimination
  constraints at integral candidates;
* ``cb``  — the same, preceded by a root cutting loop adding MIS, cover,
  packing and (U,C) cuts until no violated cut remains;
* ``ln``  — the layered-network formulation (only for b = n), where layer
  variables make cyclic influence infeasible outright.

The tree uses best-bound node selection and most-fractional branching with
a z-before-y tie-break.  All data are integral, so the optimum is integral
and node bounds are rounded up before pruning.
"""

from __future__ import annotations

import graphlib
import heapq
import math
import time
from dataclasses import dataclass, field

from . import cyclecuts, knapcuts
from .knapcuts import VIOLATION_TOL, CutPool
from .lp import LPModel, solve_lp
from .oracle import activation_cost

__all__ = [
    "MODES",
    "SolveParams",
    "SolveReport",
    "assemble",
    "solve",
    "root_cut_loop",
    "branch",
    "greedy_incumbent",
    "TSV_HEADER",
]

MODES = ("def", "cb", "ln")
CUT_FAMILIES = ("cover", "packing", "mis", "gcec", "uc")

TSV_HEADER = "\t".join(
    ["instance", "mode", "n", "m", "b", "status", "ub", "lb", "gap", "nodes"]
    + [f"cuts_{f}" for f in CUT_FAMILIES]
    + ["seconds"]
)


INT_TOL = 1e-6  # a y/z value this close to 0 or 1 counts as integral
ROUND_CUT_CAP = 200  # cuts added per root round
TREE_SEP_ROUNDS = 2  # MIS separation rounds per tree node before branching


@dataclass
class SolveParams:
    time_limit: float = 600.0
    max_rounds: int = 50

    def __post_init__(self):
        # written so that NaN fails too; an infinite time limit means none
        if not (self.time_limit > 0 and self.max_rounds > 0):
            raise ValueError("limits must be positive")


@dataclass
class SolveReport:
    instance_id: str
    mode: str
    n: int
    m: int
    b: int
    status: str  # optimal | time_limit
    ub: float
    lb: float
    gap: float
    nodes: int
    cuts: dict
    seconds: float
    incumbent: dict = field(default=None, repr=False)  # {"order", "objective"}
    root_bound: float = None

    def tsv_line(self):
        cells = [
            self.instance_id,
            self.mode,
            str(self.n),
            str(self.m),
            str(self.b),
            self.status,
            _num(self.ub),
            _num(self.lb),
            _num(self.gap),
            str(self.nodes),
        ]
        cells += [str(self.cuts.get(f, 0)) for f in CUT_FAMILIES]
        cells.append(f"{self.seconds:.3f}")
        return "\t".join(cells)

    def text_block(self):
        lines = [
            f"instance  {self.instance_id}",
            f"mode      {self.mode}",
            f"size      n={self.n} m={self.m} b={self.b}",
            f"status    {self.status}",
            f"objective ub={_num(self.ub)} lb={_num(self.lb)} gap={_num(self.gap)}%",
            f"nodes     {self.nodes}",
            "cuts      "
            + " ".join(f"{f}={self.cuts.get(f, 0)}" for f in CUT_FAMILIES),
            f"time      {self.seconds:.3f}s",
        ]
        return "\n".join(lines)


def _num(v):
    if v is None or v != v:
        return "-"
    if v in (math.inf, -math.inf):
        return "inf" if v > 0 else "-inf"
    if v == int(v):
        return str(int(v))
    return f"{v:.6g}"


def gap_percent(ub, lb):
    """The optimality gap 100 * (ub - lb) / lb."""
    if ub == math.inf:
        return math.inf
    if abs(ub - lb) <= 1e-9:
        return 0.0
    if lb <= 0:
        return math.inf
    return 100.0 * (ub - lb) / lb


# ---------------------------------------------------------------------------
# Formulation assembly
# ---------------------------------------------------------------------------


def assemble(instance, mode):
    """Build the LP relaxation of the chosen formulation.

    Variables: x_i in [0, h_i] (paying more than h_i is never optimal),
    y_ij in [0,1] per directed arc, z_i in [0,1], in the instance's column
    layout.  ``ln`` additionally fixes z = 1, orients every edge, and adds
    layer variables l_i in [1,n] after them, with the anti-cycle rows
    y_ji - (n-1) y_ij <= l_j - l_i.  Rows map columns to coefficients.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not instance.is_preprocessed():
        raise ValueError("instance must be preprocessed before solving")
    if mode == "ln" and instance.b != instance.n:
        raise ValueError("layered-network formulation requires b = n")

    n, m = instance.n, instance.m
    names = instance.var_names
    model = LPModel()
    for i in range(1, n + 1):
        model.add_var(names[i - 1], lb=0.0, ub=float(instance.threshold(i)), obj=1.0)
    for name in names[n:n + m]:
        model.add_var(name, lb=0.0, ub=1.0)
    zfix = 1.0 if mode == "ln" else 0.0
    for name in names[n + m:]:
        model.add_var(name, lb=zfix, ub=1.0)
    if mode == "ln":
        lcol = [model.add_var(f"l[{i}]", lb=1.0, ub=float(n)) for i in range(1, n + 1)]

    for i in range(1, n + 1):
        view = instance.node_view(i)
        row = {view.xcol: 1.0, view.zcol: -float(view.h)}
        for (_, w), k in zip(view.d, view.ycols):
            row[k] = float(w)
        model.add_constraint(row, ">=", 0.0)

    ycol = instance.ycol
    for i, j in instance.edges():
        if mode == "ln":
            model.add_constraint({ycol[i, j]: 1.0, ycol[j, i]: 1.0}, "=", 1.0)
        else:
            for end in (i, j):
                model.add_constraint(
                    {ycol[i, j]: 1.0, ycol[j, i]: 1.0, instance.zcol(end): -1.0}, "<=", 0.0
                )

    model.add_constraint(
        {instance.zcol(i): 1.0 for i in range(1, n + 1)}, ">=", float(instance.b)
    )

    if mode == "ln":
        for (j, i), k in ycol.items():
            model.add_constraint(
                {
                    k: 1.0,
                    ycol[i, j]: -float(n - 1),
                    lcol[j - 1]: -1.0,
                    lcol[i - 1]: 1.0,
                },
                "<=",
                0.0,
            )
    return model


def greedy_incumbent(instance):
    """Feasible warm start: repeatedly activate the node whose remaining
    incentive (threshold minus influence from already-active neighbors) is
    smallest.  Returns (cost, activation order)."""
    active = []
    active_set = set()
    cost = 0
    for _ in range(instance.b):
        best = None
        for i in range(1, instance.n + 1):
            if i in active_set:
                continue
            influence = sum(
                instance.weight(j, i)
                for j in instance.neighbors(i)
                if j in active_set
            )
            marginal = max(0, instance.threshold(i) - influence)
            if best is None or marginal < best[0]:  # ties keep the smaller id
                best = (marginal, i)
        cost += best[0]
        active.append(best[1])
        active_set.add(best[1])
    return cost, tuple(active)


# ---------------------------------------------------------------------------
# Root cutting loop (CB mode)
# ---------------------------------------------------------------------------


def root_cut_loop(model, instance, params, pool, deadline=math.inf):
    """Separate MIS/cover/packing and cycle cuts at the root until none are
    violated; returns the final root LP bound.

    Per round: the LP is solved, each node runs exact MIS separation (with
    the companion cover and packing cuts derived from the same subset), and
    each violated cycle yields a (U,C) cut — or a GCEC when the coverage
    requirement cannot certify the cycle cuts' validity.  No round starts
    separating once the monotonic clock has passed `deadline`.
    """
    bound = None
    for _ in range(params.max_rounds):
        sol = solve_lp(model)
        if not sol.optimal:
            return sol.objective
        bound = sol.objective
        if time.monotonic() > deadline:
            break
        point = sol.values
        added = 0

        for i in range(1, instance.n + 1):
            if added >= ROUND_CUT_CAP:
                break
            view = instance.node_view(i)
            res = knapcuts.separate_mis(view, point)
            if res is None:
                continue
            cut, _ = res
            added += _add_cut(model, pool, cut)
            cover = knapcuts.cover_from_mis(view, cut.members)
            if cover is not None:
                if cover.violation(point) > VIOLATION_TOL:
                    added += _add_cut(model, pool, cover)
                packing = knapcuts.packing_from_cover(view, cover, point)
                if packing is not None:
                    added += _add_cut(model, pool, packing)

        for cycle in cyclecuts.find_violated_cycles_fractional(instance, point):
            if added >= ROUND_CUT_CAP:
                break
            if cyclecuts.cycle_cut_allowed(instance, cycle):
                base_map = _choose_bases(cycle, instance, pool, point)
                res = cyclecuts.separate_uc(instance, cycle, base_map, point)
                if res is not None and _add_cut(model, pool, res[1]):
                    added += 1
                    continue
            gcec = _best_gcec(instance, cycle, point)
            if gcec is not None:
                added += _add_cut(model, pool, gcec)

        if added == 0:
            break
    return bound


def _add_cut(model, pool, cut):
    """Pool the cut and, when the pool did not hold it yet, add its row to
    the model; returns whether it was new."""
    if not pool.add(cut):
        return False
    model.add_constraint(cut.coeffs, ">=", cut.rhs)
    return True


def _choose_bases(cycle, instance, pool, point):
    """Per cycle node, the node cut minimizing the slack theta among the
    pooled cover and packing cuts; the node propagation row is the
    always-available fallback."""
    base_map = {}
    for i in cycle.nodes:
        row = knapcuts.propagation_row(instance.node_view(i))
        candidates = [row, *pool.for_node(i)]
        base_map[i] = min(candidates, key=lambda b: b.theta(point))
    return base_map


def _best_gcec(instance, cycle, point):
    """GCEC with the exempted node chosen to maximize violation."""
    W = 0.0
    for k, l in cycle.arcs:
        W += point[instance.zcol(l)] - point[instance.ycol[k, l]]
    k_best = max(cycle.nodes, key=lambda k: point[instance.zcol(k)])
    if point[instance.zcol(k_best)] - W <= VIOLATION_TOL:
        return None
    return cyclecuts.build_gcec(instance, cycle, k_best)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


def branch(instance, point):
    """Pick the most fractional binary variable (z before y on ties, then
    the lower column) and return the two child bound fixings by column, or
    None when every y and z is integral."""
    first_z = instance.zcol(1)
    best = None
    for k in range(instance.n, instance.ncols):  # the y, then the z columns
        val = point[k]
        frac = min(val - math.floor(val), math.ceil(val) - val)
        if frac <= INT_TOL:
            continue
        rank = (frac, 1 if k >= first_z else 0, -k)
        if best is None or rank > best[0]:
            best = (rank, k)
    if best is None:
        return None
    k = best[1]
    return {k: (0.0, 0.0)}, {k: (1.0, 1.0)}


def _activation_order(instance, point):
    """The active nodes (z = 1) of an integral candidate, topologically
    sorted along its influence arcs (y = 1)."""
    preds = {i: [] for i in range(1, instance.n + 1) if point[instance.zcol(i)] > 0.5}
    for (j, i), k in instance.ycol.items():
        if i in preds and j in preds and point[k] > 0.5:
            preds[i].append(j)
    try:
        return tuple(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError as exc:
        raise RuntimeError(
            "influence arcs of an integral candidate hold a cycle"
        ) from exc


def solve(instance, mode="def", params=None, instance_id="instance"):
    """Run branch-and-cut in the chosen mode and report the outcome."""
    if params is None:
        params = SolveParams()
    t0 = time.monotonic()
    deadline = t0 + params.time_limit
    pool = CutPool()
    model = assemble(instance, mode)

    if mode == "cb":
        root_bound = root_cut_loop(model, instance, params, pool, deadline)
    else:
        root_sol = solve_lp(model)
        root_bound = root_sol.objective if root_sol.optimal else None

    ub, greedy_order = greedy_incumbent(instance)
    incumbent = {"order": greedy_order, "objective": ub}
    lb_report = 0.0
    nodes = 0
    status = "optimal"

    counter = 0
    heap = [(0.0, counter, {}, 0)]
    while heap:
        if time.monotonic() > deadline:
            status = "time_limit"
            break
        node_lb, _, overrides, seps = heapq.heappop(heap)
        lb_report = max(lb_report, node_lb)
        if math.ceil(node_lb - 1e-6) >= ub:
            continue
        sol = solve_lp(model, bound_overrides=overrides)
        nodes += 1
        if not sol.optimal:
            continue
        lb_node = sol.objective
        if math.ceil(lb_node - 1e-6) >= ub:
            continue
        point = sol.values

        children = branch(instance, point)
        if children is None:
            cycle = None
            if mode != "ln":
                cycle = cyclecuts.find_violated_cycle_integer(instance, point)
            if cycle is not None:
                gcec = cyclecuts.build_gcec(instance, cycle, min(cycle.nodes))
                new = _add_cut(model, pool, gcec)
                if cyclecuts.cycle_cut_allowed(instance, cycle):
                    empty = cyclecuts.build_uc_cut(
                        instance, cyclecuts.make_uc_data(cycle, (), {}), {}
                    )
                    if _add_cut(model, pool, empty):
                        new = True
                if not new:
                    raise RuntimeError(
                        "integral candidate violates a cycle cut already in the model"
                    )
                counter += 1
                heapq.heappush(heap, (lb_node, counter, overrides, seps))
                continue
            order = _activation_order(instance, point)
            cost = activation_cost(instance, order)
            if cost < ub:
                ub = cost
                incumbent = {"order": order, "objective": cost}
            continue

        if mode == "cb" and seps < TREE_SEP_ROUNDS:
            # tighten the node with fresh MIS cuts before spending a branch
            added = 0
            for i in range(1, instance.n + 1):
                res = knapcuts.separate_mis(instance.node_view(i), point)
                if res is not None:
                    added += _add_cut(model, pool, res[0])
            if added:
                counter += 1
                heapq.heappush(heap, (lb_node, counter, overrides, seps + 1))
                continue

        for child in children:
            merged = dict(overrides)
            merged.update(child)
            counter += 1
            heapq.heappush(heap, (lb_node, counter, merged, 0))

    if status == "optimal":
        lb_report = float(ub)
    else:
        open_lbs = [entry[0] for entry in heap]
        lb_report = max(lb_report, min(open_lbs)) if open_lbs else float(ub)
    lb_report = min(lb_report, float(ub))

    return SolveReport(
        instance_id=instance_id,
        mode=mode,
        n=instance.n,
        m=instance.m,
        b=instance.b,
        status=status,
        ub=float(ub),
        lb=lb_report,
        gap=gap_percent(float(ub), lb_report),
        nodes=nodes,
        cuts=dict(pool.counts),
        seconds=time.monotonic() - t0,
        incumbent=incumbent,
        root_bound=root_bound,
    )
