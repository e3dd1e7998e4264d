"""Branch-and-cut engine for LCIM.

Three formulation modes are supported:

* ``def`` — the arc formulation with lazily separated cycle cuts: an
  integral candidate whose y support holds directed cycles has every one
  of them cut at once, each by its GCEC and, when
  ``cyclecuts.cycle_cut_allowed``, its U = {} cycle cut, and is solved
  again;
* ``cb``  — the same, plus separation rounds adding MIS, cover and
  packing cuts and one cut per violated cycle, its (U,C) cut when the
  coverage requirement allows it, else its GCEC: the root runs them
  until one adds no cut, at most ``SolveParams.max_rounds`` of them;
  tree node 1, whose LP is the root's, runs no further round, and
  every later tree node runs the same round up to ``TREE_SEP_ROUNDS``
  times before it branches;
* ``ln``  — the layered-network formulation (only for b = n), where layer
  variables make cyclic influence infeasible outright.

The tree uses best-bound node selection and reliability branching
(Achterberg, Koch & Martin, "Branching rules revisited", Oper. Res. Lett.
2005): candidates are probed by warm LP solves until their pseudocosts are
trusted, and scored by the product rule.  Every probe's answer is used:
a node whose LP its probe already solved, with no row added since, makes
no LP call; the first probe that cuts off one side of a column ends the
choice and tightens the node in place (strong-branching domain reduction,
Achterberg's 2007 thesis): the node fixes the column to the other value,
takes the surviving side's probe answer as its LP, with no LP call and
no new node, counts its separation rounds as spent and goes back through
the prune, integrality and branch steps; and every
child's own LP that is not its probe's answer feeds the pseudocosts as a
probe does.  Every tree LP answer first tightens its node's column bounds
by reduced costs against the incumbent (`_tighten`; Crowder, Johnson &
Padberg, Oper. Res. 1983): the answer stays optimal, no LP call is added,
and the node's probes, children and re-push inherit the bounds; the root
cut loop tightens nothing.  Every LP of a solve runs on the one model,
warm from its parent's basis.  All data are integral, so the
optimum is integral and node bounds are rounded up before pruning.  The
tree starts from the incumbent of ``greedy_incumbent``, the best of n
greedy activation orders, one started at each node.
"""

from __future__ import annotations

import graphlib
import heapq
import itertools
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cyclecuts, knapcuts
from .knapcuts import VIOLATION_TOL, CutPool
from .lp import LPModel, solve_lp
from .oracle import activation_cost

__all__ = [
    "MODES",
    "SolveParams",
    "SolveReport",
    "formulation",
    "assemble",
    "solve",
    "root_cut_loop",
    "branch",
    "greedy_incumbent",
    "TSV_HEADER",
    "tsv_mean_line",
]

MODES = ("def", "cb", "ln")
CUT_FAMILIES = ("cover", "packing", "mis", "gcec", "uc")

TSV_HEADER = "\t".join(
    ["instance", "mode", "n", "m", "b", "status", "ub", "lb", "gap", "nodes"]
    + [f"cuts_{f}" for f in CUT_FAMILIES]
    + ["seconds"]
)


INT_TOL = 1e-6  # a y/z value this close to 0 or 1 counts as integral
PRUNE_TOL = 1e-6  # an LP bound this far above an integer may round down to it
ROUND_CUT_CAP = 200  # a separation round stops separating at this many new cuts
TREE_SEP_ROUNDS = 2  # separation rounds (the root's round) per tree node before branching
RELIABILITY = 1  # probes per column and direction before its pseudocost is trusted
LOOKAHEAD = 4  # candidates in a row not beating the best score end the choice
SCORE_EPS = 1e-6  # floor of each child's gain in the product score


@dataclass
class SolveParams:
    time_limit: float = 600.0
    max_rounds: int = 50

    def __post_init__(self):
        if not isinstance(self.max_rounds, numbers.Integral):
            raise ValueError(f"max_rounds must be an integer, got {self.max_rounds!r}")
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
    # popped nodes whose LP is taken: a node pushed again after a separation
    # round or cycle cuts counts again, an in-place tightening does not
    nodes: int
    cuts: dict
    seconds: float
    incumbent: dict = field(default=None, repr=False)  # {"order", "objective"}
    root_bound: float = None  # cb: after the root cut loop; def/ln: tree node 1's LP
    lp_solves: int = 0  # LPs solved, probes included; a node its probe solved adds none
    tightened: int = 0  # column bounds tightened by reduced costs at tree LP answers

    def _tsv_columns(self):
        """The numeric TSV columns, in TSV_HEADER's order: n, m, b, ub, lb,
        gap, nodes, the cut counts and seconds."""
        return (self.n, self.m, self.b, self.ub, self.lb, self.gap, self.nodes,
                *(self.cuts.get(f, 0) for f in CUT_FAMILIES), self.seconds)

    def tsv_line(self):
        return _tsv_row(self.instance_id, self.mode, self.status, self._tsv_columns(), _num)

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


def tsv_mean_line(reports):
    """The TSV row of the column means of `reports`, all of one mode."""
    means = [sum(col) / len(reports) for col in zip(*(r._tsv_columns() for r in reports))]
    return _tsv_row("mean", reports[0].mode, "-", means, "{:g}".format)


def _tsv_row(name, mode, status, columns, fmt):
    """A TSV row of `columns` (see `SolveReport._tsv_columns`), each but seconds
    written by `fmt`."""
    cells = [fmt(v) for v in columns[:-1]]
    return "\t".join([name, mode, *cells[:3], status, *cells[3:], f"{columns[-1]:.3f}"])


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


def formulation(instance, oriented=False):
    """The LP relaxation of the arc formulation, in the instance's column
    layout: x_i in [0, h_i] (paying more than h_i is never optimal), y_ij in
    [0,1] per directed arc and z_i in [0,1]; a propagation row per node,
    the edge rows, and the coverage row sum_i z_i >= b.  The edge rows are
    y_ij + y_ji <= z_i and <= z_j, or, `oriented` (for b = n), the
    orientation row y_ij + y_ji = 1 with every z fixed to 1.  Rows map
    columns to coefficients.
    """
    n = instance.n
    model = LPModel()
    for i in range(1, n + 1):
        model.add_var(lb=0.0, ub=float(instance.threshold(i)), obj=1.0)
    for _ in range(instance.m):
        model.add_var(lb=0.0, ub=1.0)
    for _ in range(n):
        model.add_var(lb=1.0 if oriented else 0.0, ub=1.0)

    for i in range(1, n + 1):
        row = knapcuts.propagation_row(instance.node_view(i))
        model.add_constraint(row.coeffs, ">=", 0.0)

    ycol = instance.ycol
    for i, j in instance.edges():
        pair = {ycol[i, j]: 1.0, ycol[j, i]: 1.0}
        if oriented:
            model.add_constraint(pair, "=", 1.0)
        else:
            for end in (i, j):
                model.add_constraint({**pair, instance.zcol(end): -1.0}, "<=", 0.0)

    model.add_constraint(
        {instance.zcol(i): 1.0 for i in range(1, n + 1)}, ">=", float(instance.b)
    )
    return model


def assemble(instance, mode):
    """Build the LP relaxation of the chosen formulation: the `formulation`,
    oriented in ``ln``, which adds layer variables l_i in [1,n] after the z
    columns, with the anti-cycle rows y_ji - (n-1) y_ij <= l_j - l_i.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ln" and instance.b != instance.n:
        raise ValueError("layered-network formulation requires b = n")

    model = formulation(instance, oriented=mode == "ln")
    if mode == "ln":
        n, ycol = instance.n, instance.ycol
        lcol = [model.add_var(lb=1.0, ub=float(n)) for _ in range(n)]
        for (j, i), k in ycol.items():
            row = {k: 1.0, ycol[i, j]: -float(n - 1), lcol[j - 1]: -1.0, lcol[i - 1]: 1.0}
            model.add_constraint(row, "<=", 0.0)
    return model


def greedy_incumbent(instance):
    """Feasible warm start: the best of n greedy activation orders.

    Start s activates node s first; every later step activates the
    remaining node whose incentive (threshold minus influence from active
    neighbors, at least 0) is smallest, ties going to the lowest node id.
    All n starts advance together in one numpy batch, and the cheapest wins,
    ties going to the lowest start.  The start at the least-threshold node is
    the single-start greedy, so the result is never worse than it.  Takes
    O(n^2) memory and O(b n^2) work; int64 sums only rank the starts, and the
    returned cost is recomputed exactly.  Returns (cost, activation order).
    """
    n = instance.n
    h = np.array(instance.h, dtype=np.int64)
    d = np.zeros((n, n), dtype=np.int64)  # d[i - 1, j - 1] = d_ij
    for i in range(1, n + 1):
        for j in instance.neighbors(i):
            d[i - 1, j - 1] = instance.weight(i, j)
    # row s of each array belongs to the start at node s + 1
    starts = np.arange(n)
    active = np.zeros((n, n), dtype=bool)
    active[starts, starts] = True
    influence = d.copy()  # exerted by the start's active nodes on each node
    cost = h.copy()
    picks = [starts]
    for _ in range(instance.b - 1):
        marginal = np.where(active, np.iinfo(np.int64).max, np.maximum(h - influence, 0))
        pick = marginal.argmin(axis=1)  # ties keep the smaller id
        cost += marginal[starts, pick]
        active[starts, pick] = True
        influence += d[pick]
        picks.append(pick)
    best = int(cost.argmin())
    order = tuple(int(pick[best]) + 1 for pick in picks)
    return activation_cost(instance, order), order


# ---------------------------------------------------------------------------
# Root cutting loop (CB mode)
# ---------------------------------------------------------------------------


def root_cut_loop(model, instance, params, pool, table, deadline=math.inf):
    """Run separation rounds at the root until one adds no cut; returns the
    final root LP bound.

    Each round solves the LP and, unless the LP is infeasible or the
    monotonic clock has passed `deadline`, runs `_separation_round` at its
    point with the instance's `knapcuts.MisTable` `table`.
    """
    bound = None
    for _ in range(params.max_rounds):
        sol = solve_lp(model)
        if not sol.optimal:
            return sol.objective
        bound = sol.objective
        if time.monotonic() > deadline:
            break
        if _separation_round(model, instance, pool, sol.values, table, deadline) == 0:
            break
    return bound


def _separation_round(model, instance, pool, point, table, deadline):
    """Add the cuts that one separation round finds at an LP point; returns
    how many were new.  The round stops separating once ROUND_CUT_CAP are.

    Each node that `table` lists as a candidate runs exact MIS separation,
    and each MIS cut found brings its companion cover and packing cuts,
    derived from the same subset.  Then each violated cycle gets one cut:
    its (U,C) cut when `cyclecuts.cycle_cut_allowed` (the coverage
    requirement makes it valid), else its GCEC.  Every separator returns
    one cut or None.
    """
    added = 0
    for i in table.candidates(point):
        if added >= ROUND_CUT_CAP:
            break
        cut = knapcuts.separate_mis(instance.node_view(i), point, deadline)
        if cut is None:
            continue
        added += _add_cut(model, pool, cut)
        cover = knapcuts.cover_from_mis(cut)
        if cover is not None:
            if cover.violation(point) > VIOLATION_TOL:
                added += _add_cut(model, pool, cover)
            packing = knapcuts.packing_from_cover(cover, point)
            if packing is not None:
                added += _add_cut(model, pool, packing)

    for cycle in cyclecuts.find_violated_cycles_fractional(instance, point):
        if added >= ROUND_CUT_CAP:
            break
        if cyclecuts.cycle_cut_allowed(instance, cycle):
            base_map = _choose_bases(cycle, instance, pool, point)
            cut = cyclecuts.separate_uc(instance, cycle, base_map, point)
        else:
            cut = cyclecuts.separate_gcec(instance, cycle, point)
        if cut is not None:
            added += _add_cut(model, pool, cut)
    return added


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


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


class TreeNode(NamedTuple):
    """An open node of the tree; the heap orders nodes by (bound, order)."""

    bound: float  # a lower bound on its LP objective
    order: int  # push order, set when the node is pushed
    fixings: dict  # column -> (lower, upper) bound overrides
    basis: object  # the basis its LP starts from
    rounds: int = 0  # separation rounds spent on it
    probe: object = None  # its probe's LPSolution, the node's LP while no row is added
    origin: tuple = None  # (column, up, parent objective, distance) of a child


def branch(model, sol, candidates, overrides, ub, pseudocosts, deadline=math.inf):
    """Choose one of `candidates`, the fractional y and z columns of `sol`
    as `_fractional` ranks them, and return the children worth keeping as
    `TreeNode`s, their push order unset; `sol` is the LP answer of a node
    whose bound fixings are `overrides`, and `candidates` is not empty.

    A candidate with fewer than RELIABILITY probes in either direction is
    probed: both children are solved on `model`, warm from the node's
    basis, and each optimal probe adds its gain per unit of bound change to
    `pseudocosts`, a dict (column, up) -> [summed unit gain, probes] kept
    for one solve.  Other candidates' gains are estimated from their
    pseudocosts.  The score is the product of the two gains, each at least
    SCORE_EPS.  The choice ends when LOOKAHEAD candidates in a row do not
    beat the best score, or when the monotonic clock has passed `deadline`;
    with no candidate scored by then, the first is taken unprobed.  A
    probed child carries the bound max(probe objective, node bound), an
    estimated child the node's bound.

    A side is lost when its probe is infeasible or its bound prunes it
    against `ub`.  The first probed candidate that loses a side ends the
    choice: it returns its other child alone, whose probe answer is the
    node's LP with that column fixed (strong-branching domain reduction;
    Achterberg's 2007 thesis), or no child when it loses both sides.  Each
    child starts from the node's basis; `probe` is its probe's LPSolution,
    which the tree takes as the child's LP while no row has been added, or
    None when the child was not probed.  `origin` lets the child's own LP,
    when it is not the probe's answer, feed `pseudocosts` as a probe does.
    """
    best_score, best = -1.0, None
    stale = 0
    for k in candidates:
        late = time.monotonic() > deadline
        if late and best is not None:
            break
        costs = [pseudocosts.get((k, up), (0.0, 0)) for up in (0, 1)]
        probing = not late and min(probes for _, probes in costs) < RELIABILITY
        gains, children = [], []
        lost = False  # a probe cut off one side of k
        for up, dist in enumerate((sol.values[k], 1.0 - sol.values[k])):  # down, up
            fixings = {**overrides, k: (float(up), float(up))}
            origin = (k, up, sol.objective, dist)
            probe, bound = None, sol.objective
            if probing:
                probe = solve_lp(model, bound_overrides=fixings, basis=sol.basis)
                if probe.optimal:
                    _learn(pseudocosts, origin, probe)
                    bound = max(probe.objective, sol.objective)
                    gains.append(bound - sol.objective)
                if not probe.optimal or _prunable(bound, ub):
                    lost = True
                    continue
            else:
                total, probes = costs[up]
                gains.append(total / max(probes, 1) * dist)  # late: unprobed gains 0
            children.append(TreeNode(bound=bound, order=None, fixings=fixings,
                                     basis=sol.basis, probe=probe, origin=origin))
        if lost:
            return children
        score = max(gains[0], SCORE_EPS) * max(gains[1], SCORE_EPS)
        if score > best_score:
            best_score, best, stale = score, children, 0
        else:
            stale += 1
        if stale >= LOOKAHEAD:
            break
    return best


def _learn(pseudocosts, origin, answer):
    """Add the unit gain of `answer`, an optimal child LP, to `pseudocosts`,
    the child coming from `origin` (column, up, node objective, distance)."""
    k, up, parent, dist = origin
    unit = pseudocosts.setdefault((k, up), [0.0, 0])
    unit[0] += max(answer.objective - parent, 0.0) / dist
    unit[1] += 1


def _fractional(instance, point):
    """The y and z columns whose values are not within INT_TOL of 0 or 1,
    most fractional first, z before y on ties, then the lower column."""
    value = np.asarray(point[instance.n:instance.ncols])  # the y, then the z columns
    frac = np.minimum(value, 1.0 - value)  # y and z lie in [0, 1]
    cols = np.flatnonzero(frac > INT_TOL)
    is_y = cols < instance.zcol(1) - instance.n
    ranked = cols[np.lexsort((cols, is_y, -frac[cols]))]  # last key sorts first
    return (ranked + instance.n).tolist()


def _tighten(instance, model, sol, fixings, ub):
    """Reduced-cost fixing at `sol`, the LP answer of a node whose bound
    fixings are `fixings` and that `_prunable` keeps: returns those fixings
    with the x, y and z column bounds that the answer's reduced costs
    tighten, and how many bounds it tightens.

    Every point of the node's LP costs at least the objective plus
    d_k (v_k - lo) for a column at its lower bound lo with reduced cost
    d_k, and plus -d_k (hi - v_k) for one at its upper bound hi (Crowder,
    Johnson & Padberg, Oper. Res. 1983).  A point cheaper than ub costs at
    most ub - 1, as all data are integral, so the objective may rise by at
    most gap = ub - 1 - objective, plus `_prunable`'s margin PRUNE_TOL.  A
    column at lo with d_k (hi - lo) > gap gets the upper bound
    lo + floor(gap / d_k), which fixes a y or z column to 0; an x column
    may take it because lowering each x to its least value keeps a
    solution feasible and cheaper, and makes it integral.  A y or z column
    at hi with -d_k (hi - lo) > gap is fixed to hi.  Each tightened column
    sits at its new bound, so `sol` stays the node's optimum.
    """
    end = instance.ncols  # ln's layer columns are left alone
    lower, upper, _ = model.bounds()
    gap = ub - 1 - sol.objective + PRUNE_TOL
    cost = np.array(sol.reduced_costs[:end])
    tight = {}
    # the model's spans hold the node's, so these are the only candidates
    for k in np.flatnonzero(np.abs(cost) * (upper[:end] - lower[:end]) > gap).tolist():
        lo, hi = fixings.get(k, (model.lower[k], model.upper[k]))
        d, v = sol.reduced_costs[k], sol.values[k]
        if d * (hi - lo) > gap and v <= lo + INT_TOL:
            tight[k] = (lo, lo + math.floor(gap / d))
        elif -d * (hi - lo) > gap and v >= hi - INT_TOL and k >= instance.n:
            tight[k] = (hi, hi)
    if not tight:
        return fixings, 0
    return {**fixings, **tight}, len(tight)


def _prunable(bound, ub):
    """Whether a node with this finite LP bound cannot hold a solution
    cheaper than ub; the optimum is integral."""
    return math.ceil(bound - PRUNE_TOL) >= ub


def _support_cycles(instance, point):
    """Directed cycles of an integral candidate's influence support
    {(i,j): y_ij > 0.5}, found one after another on a copy of the point:
    each cycle found has its first arc, the one leaving its smallest node,
    dropped from the copy before the next search.

    Every cycle lies in the original support, so each of its cycle cuts
    is violated, and no cycle is left once the searches come back empty.
    Each search but the last drops one support arc.
    """
    point = list(point)
    cycles = []
    while (cycle := cyclecuts.find_violated_cycle_integer(instance, point)) is not None:
        cycles.append(cycle)
        point[instance.ycol[cycle.arcs[0]]] = 0.0
    return cycles


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

    root_bound = None  # def/ln: the LP bound of tree node 1
    if mode == "cb":
        table = knapcuts.MisTable(instance)
        root_bound = root_cut_loop(model, instance, params, pool, table, deadline)

    ub, order = greedy_incumbent(instance)
    nodes = 0
    tightened = 0
    status = "optimal"

    pseudocosts = {}
    pushes = itertools.count()
    # node 1 has the root's rounds spent: cb's root loop ran until a round
    # added no cut, or params.max_rounds of them
    heap = [TreeNode(bound=0.0, order=next(pushes), fixings={}, basis=None,
                     rounds=TREE_SEP_ROUNDS)]
    while heap:
        if time.monotonic() > deadline:
            status = "time_limit"
            break
        node = heapq.heappop(heap)
        if _prunable(node.bound, ub):
            continue
        if node.probe is not None and node.probe.basis.rows == len(model.rows):
            sol = node.probe  # its probe solved this very LP
        else:
            sol = solve_lp(model, bound_overrides=node.fixings, basis=node.basis)
        nodes += 1
        if not sol.optimal:
            continue
        if node.origin is not None and sol is not node.probe:  # branch learned a probe
            _learn(pseudocosts, node.origin, sol)
        if nodes == 1 and mode != "cb":
            root_bound = sol.objective
        # one pass per LP answer of the node, tightened in place by every
        # branching that leaves one child
        while not _prunable(sol.objective, ub):
            fixings, count = _tighten(instance, model, sol, node.fixings, ub)
            node = node._replace(fixings=fixings)
            tightened += count
            point = sol.values
            candidates = _fractional(instance, point)
            if not candidates:
                cycles = [] if mode == "ln" else _support_cycles(instance, point)
                if not cycles:
                    found = _activation_order(instance, point)
                    cost = activation_cost(instance, found)
                    if cost < ub:
                        ub, order = cost, found
                    break
                new = False
                for cycle in cycles:
                    gcec = cyclecuts.build_gcec(instance, cycle, min(cycle.nodes))
                    new |= _add_cut(model, pool, gcec)
                    if cyclecuts.cycle_cut_allowed(instance, cycle):
                        empty = cyclecuts.build_uc_cut(instance, cycle, (), {})
                        new |= _add_cut(model, pool, empty)
                if not new:
                    raise RuntimeError(
                        "integral candidate violates only cycle cuts already in the model"
                    )
                rounds = node.rounds
            elif mode == "cb" and node.rounds < TREE_SEP_ROUNDS and _separation_round(
                model, instance, pool, point, table, deadline
            ):
                rounds = node.rounds + 1  # tightened with the root's cuts before a branch
            else:
                children = branch(model, sol, candidates, node.fixings, ub, pseudocosts,
                                  deadline)
                if len(children) == 1:  # a probe cut off one side: the same node, tightened
                    node = children[0]._replace(rounds=TREE_SEP_ROUNDS)
                    sol = node.probe
                    continue
                for child in children:
                    heapq.heappush(heap, child._replace(order=next(pushes)))
                break
            # the node gained rows: push it again, warm from its answer
            heapq.heappush(heap, TreeNode(bound=sol.objective, order=next(pushes),
                                          fixings=node.fixings, basis=sol.basis, rounds=rounds))
            break

    # a time-out's lb is the least open bound, but node 1 is open at bound 0
    lb = ub if status == "optimal" else min(max(heap[0].bound, root_bound or 0.0), ub)
    return SolveReport(
        instance_id=instance_id,
        mode=mode,
        n=instance.n,
        m=instance.m,
        b=instance.b,
        status=status,
        ub=float(ub),
        lb=float(lb),
        gap=gap_percent(ub, lb),
        nodes=nodes,
        cuts=dict(pool.counts),
        seconds=time.monotonic() - t0,
        incumbent={"order": order, "objective": ub},
        root_bound=root_bound,
        lp_solves=model.solves,
        tightened=tightened,
    )
