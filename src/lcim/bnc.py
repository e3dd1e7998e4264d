"""Branch-and-cut engine for LCIM.

Three formulation modes are supported:

* ``def`` — the arc formulation with lazily separated cycle cuts: an
  integral candidate whose y support holds a directed cycle gets the
  cycle's GCEC and, when ``cyclecuts.cycle_cut_allowed``, its U = {} cycle
  cut, and is solved again;
* ``cb``  — the same, plus a root cutting loop adding MIS, cover and
  packing cuts and, per violated cycle, a (U,C) cut or else a GCEC, until
  no violated cut remains; each tree node then separates MIS cuts for up
  to ``TREE_SEP_ROUNDS`` rounds before it branches;
* ``ln``  — the layered-network formulation (only for b = n), where layer
  variables make cyclic influence infeasible outright.

The tree uses best-bound node selection and reliability branching
(Achterberg, Koch & Martin, "Branching rules revisited", Oper. Res. Lett.
2005): candidates are probed by warm LP solves until their pseudocosts are
trusted, and scored by the product rule.  Every LP of a solve runs on the
one model, warm from its parent's basis.  All data are integral, so the
optimum is integral and node bounds are rounded up before pruning.
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
RELIABILITY = 1  # probes per column and direction before its pseudocost is trusted
LOOKAHEAD = 4  # candidates in a row not beating the best score end the choice
SCORE_EPS = 1e-6  # floor of each child's gain in the product score


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
    lp_solves: int = 0  # LPs solved, branching probes included

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


def branch(instance, model, sol, overrides, ub, pseudocosts, deadline=math.inf):
    """Choose a fractional y or z column of `sol`, the LP answer of a node
    whose bound fixings are `overrides`, and return the children worth
    keeping as (bound, overrides, basis) triples; None when every y and z
    is integral.

    Candidates are ranked as `_fractional` ranks them.  A candidate with
    fewer than RELIABILITY probes in either direction is probed: both
    children are solved on `model`, warm from the node's basis, and each
    optimal probe adds its gain per unit of bound change to `pseudocosts`,
    a dict (column, up) -> [summed unit gain, probes] kept for one solve.
    Other candidates' gains are estimated from their pseudocosts.  The
    score is the product of the two gains, each at least SCORE_EPS, and an
    infeasible child counts as an infinite gain.  The choice ends when
    LOOKAHEAD candidates in a row do not beat the best score, when a score
    is infinite, or when the monotonic clock has passed `deadline`; with no
    candidate scored by then, the first is taken unprobed.  A probed child
    is kept with the bound max(probe objective, node bound), unless its
    probe was infeasible or that bound prunes it against `ub`; an
    estimated child carries the node's bound.
    """
    candidates = _fractional(instance, sol.values)
    if not candidates:
        return None
    best_score, best = -1.0, None
    stale = 0
    for k in candidates:
        if time.monotonic() > deadline:
            break
        dists = (sol.values[k], 1.0 - sol.values[k])  # down, up
        costs = [pseudocosts.get((k, up), (0.0, 0)) for up in (0, 1)]
        if min(probes for _, probes in costs) >= RELIABILITY:
            gains = [total / probes * d for (total, probes), d in zip(costs, dists)]
            children = _unprobed(sol, overrides, k)
        else:
            gains, children = [], []
            for up, dist in enumerate(dists):
                fixings = {**overrides, k: (float(up), float(up))}
                child = solve_lp(model, bound_overrides=fixings, basis=sol.basis)
                if not child.optimal:
                    gains.append(math.inf)
                    continue
                gains.append(max(child.objective - sol.objective, 0.0))
                unit = pseudocosts.setdefault((k, up), [0.0, 0])
                unit[0] += gains[-1] / dist
                unit[1] += 1
                bound = max(child.objective, sol.objective)
                if not _prunable(bound, ub):
                    children.append((bound, fixings, sol.basis))
        score = max(gains[0], SCORE_EPS) * max(gains[1], SCORE_EPS)
        if score > best_score:
            best_score, best, stale = score, children, 0
        else:
            stale += 1
        if stale >= LOOKAHEAD or score == math.inf:
            break
    return _unprobed(sol, overrides, candidates[0]) if best is None else best


def _unprobed(sol, overrides, k):
    """Both children of branching on column k, with the node's bound and
    basis."""
    return [(sol.objective, {**overrides, k: (v, v)}, sol.basis) for v in (0.0, 1.0)]


def _fractional(instance, point):
    """The y and z columns whose values are not within INT_TOL of 0 or 1,
    most fractional first, z before y on ties, then the lower column."""
    first_z = instance.zcol(1)
    ranked = []
    for k in range(instance.n, instance.ncols):  # the y, then the z columns
        frac = min(point[k], 1.0 - point[k])  # y and z lie in [0, 1]
        if frac > INT_TOL:
            ranked.append((-frac, k < first_z, k))
    ranked.sort()
    return [k for _, _, k in ranked]


def _prunable(bound, ub):
    """Whether a node with this finite LP bound cannot hold a solution
    cheaper than ub; the optimum is integral."""
    return math.ceil(bound - 1e-6) >= ub


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

    pseudocosts = {}
    counter = 0
    heap = [(0.0, counter, {}, 0, None)]  # (bound, tie, fixings, rounds, basis)
    while heap:
        if time.monotonic() > deadline:
            status = "time_limit"
            break
        node_lb, _, overrides, seps, basis = heapq.heappop(heap)
        lb_report = max(lb_report, node_lb)
        if _prunable(node_lb, ub):
            continue
        sol = solve_lp(model, bound_overrides=overrides, basis=basis)
        nodes += 1
        if not sol.optimal:
            continue
        lb_node = sol.objective
        if _prunable(lb_node, ub):
            continue
        point = sol.values

        if not _fractional(instance, point):
            cycle = None
            if mode != "ln":
                cycle = cyclecuts.find_violated_cycle_integer(instance, point)
            if cycle is not None:
                gcec = cyclecuts.build_gcec(instance, cycle, min(cycle.nodes))
                new = _add_cut(model, pool, gcec)
                if cyclecuts.cycle_cut_allowed(instance, cycle):
                    empty = cyclecuts.build_uc_cut(instance, cycle, (), {})
                    if _add_cut(model, pool, empty):
                        new = True
                if not new:
                    raise RuntimeError(
                        "integral candidate violates a cycle cut already in the model"
                    )
                counter += 1
                heapq.heappush(heap, (lb_node, counter, overrides, seps, sol.basis))
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
                heapq.heappush(heap, (lb_node, counter, overrides, seps + 1, sol.basis))
                continue

        for bound, fixings, start in branch(
            instance, model, sol, overrides, ub, pseudocosts, deadline
        ):
            counter += 1
            heapq.heappush(heap, (bound, counter, fixings, 0, start))

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
        lp_solves=model.solves,
    )
