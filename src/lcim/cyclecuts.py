"""Cycle-related cuts: generalized cycle elimination constraints (GCEC) and
the (U,C) inequalities coupling per-node base cuts around a directed cycle.

For a cycle C and a node subset U of eligible cycle nodes, the (U,C)
inequality scales each node's base inequality x_i + sum alpha_ji y_ji >=
beta_i z_i by gamma_i = delta(U)/omega_i, where omega_i is the base
inequality's residual slack on C and delta(U) = lcm of the omegas.  Both
follow from C and the base cuts, so a (U,C) cut is a function of C, U and
the base cuts alone.  The U = {} case is the plain cycle cut
sum_{(k,l) in C} (z_l - y_kl) >= 1, which dominates every GCEC of the
cycle; both are only valid when every feasible solution must activate at
least one cycle node (b > n - |V(C)|), so emission is guarded.

Separation is exact among the subsets U with delta(U) <= DELTA_CAP: the
violation factorizes as delta(U) * (K + sum c_i), so a dynamic program over
achievable lcm values (with exact rational accumulation of the c_i) finds
the true maximum over them.  Subsets whose lcm exceeds DELTA_CAP are pruned
(the brute-force `oracle.enumerate_uc_subsets` has no such cap).  The sorted-theta chain
DAG of the prefix heuristic is kept as a diagnostic (`uc_dag_values`).

Every routine takes the instance first, for its column layout, and reads
the LP point, a list of values indexed by column; the cycle searches walk
`instance.ycol`, the arcs with their y columns in arc order.  The (U,C)
routines take `(instance, cycle, base_map, ...)`, where base_map maps each
cycle node to a node cut (`knapcuts.NodeCut`, the node's base inequality
in (alpha, beta) form, holding its node view); `build_uc_cut` and
`uc_violation` also take U, and read the omegas off those node cuts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .knapcuts import VIOLATION_TOL, Inequality

__all__ = [
    "Cycle",
    "build_gcec",
    "separate_gcec",
    "find_violated_cycle_integer",
    "find_violated_cycles_fractional",
    "build_uc_cut",
    "separate_uc",
    "uc_violation",
    "uc_dag_values",
    "cycle_cut_allowed",
]

CYCLE_CAP = 10  # violated cycles returned per fractional search
DELTA_CAP = 2**31  # largest lcm the (U,C) separation DP keeps


@dataclass(frozen=True)
class Cycle:
    """A directed cycle given by its arc sequence, head-to-tail chained."""

    arcs: tuple  # ((k, l), ...)

    def __post_init__(self):
        if len(self.arcs) < 2:
            raise ValueError("a cycle needs at least two arcs")
        for (a, b), (c, _) in zip(self.arcs, self.arcs[1:] + self.arcs[:1]):
            if b != c:
                raise ValueError("arcs do not chain head-to-tail")
        tails = [a for a, _ in self.arcs]
        if len(set(tails)) != len(tails):
            raise ValueError("repeated node in cycle")

    @property
    def nodes(self):
        return tuple(a for a, _ in self.arcs)

    def __len__(self):
        return len(self.arcs)

    def canonical(self):
        """Rotate so the smallest node id comes first; orientation is kept."""
        nodes = self.nodes
        s = nodes.index(min(nodes))
        return Cycle(arcs=self.arcs[s:] + self.arcs[:s])


def cycle_cut_allowed(instance, cycle):
    """Whether the cycle cuts (U,C and U = {}) are valid for this instance.

    They presume some cycle node is active in every feasible solution, which
    the coverage requirement guarantees exactly when b > n - |V(C)|.
    """
    return instance.b > instance.n - len(cycle.nodes)


# ---------------------------------------------------------------------------
# GCEC
# ---------------------------------------------------------------------------


def build_gcec(instance, cycle, k):
    """Generalized cycle elimination constraint with node k exempted:
    sum_{(i,j) in C} y_ij <= sum_{i in V(C), i != k} z_i."""
    if k not in cycle.nodes:
        raise ValueError(f"node {k} not on the cycle")
    coeffs = {}
    for i, j in cycle.arcs:
        coeffs[instance.ycol[i, j]] = -1
        if i != k:
            coeffs[instance.zcol(i)] = 1
    return Inequality(coeffs=coeffs, rhs=0.0, tag="gcec",
                      provenance=(cycle.arcs, k))


def separate_gcec(instance, cycle, point):
    """The most violated GCEC of the cycle: the one exempting its node of
    largest z (the first on ties), or None when it is violated by no more
    than VIOLATION_TOL."""
    k = max(cycle.nodes, key=lambda i: point[instance.zcol(i)])
    gcec = build_gcec(instance, cycle, k)
    return gcec if gcec.violation(point) > VIOLATION_TOL else None


def find_violated_cycle_integer(instance, point):
    """Find a directed cycle in the support {(i,j): y_ij > 0.5} by DFS."""
    succ = {}
    for (i, j), k in instance.ycol.items():
        if point[k] > 0.5:
            succ.setdefault(i, []).append(j)
    color = {}
    for root in succ:
        if color.get(root):
            continue
        stack = [(root, iter(succ.get(root, ())))]  # the gray path, root first
        color[root] = "gray"
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color.get(nxt) == "gray":
                    path = [u for u, _ in stack]
                    path = path[path.index(nxt):]
                    return Cycle(arcs=tuple(zip(path, path[1:] + path[:1]))).canonical()
                if color.get(nxt) is None:
                    color[nxt] = "gray"
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
            else:
                color[node] = "black"
                stack.pop()
    return None


def find_violated_cycles_fractional(instance, point):
    """Cycles whose weight sum_{(k,l) in C} (z_l - y_kl) falls below 1.

    Arc weights are nonnegative at any point satisfying the edge-coupling
    rows, so a shortest path from each arc's head back to its tail closes
    the cheapest cycle through that arc.  Two-cycles are skipped (already
    covered by the edge-coupling rows); results are canonicalized and
    deduplicated, up to CYCLE_CAP cycles.  Among shortest paths the search
    keeps a fixed one: equal distances pop by node id and a predecessor
    changes only on a strictly shorter path, and this choice decides which
    cycles, and so which cuts, come back.  All arcs into one head share one
    search from it (`_shortest_path_tree`), which returns the paths that a
    search stopped at each arc's tail would.
    """
    arcs = {}
    adj = [[] for _ in range(instance.n + 1)]  # node -> [(successor, weight)]
    entering = {}  # head -> {tail: weight} of the arcs that may close a cycle
    for (i, j), k in instance.ycol.items():
        w = max(point[instance.zcol(j)] - point[k], 0.0)
        arcs[(i, j)] = w
        adj[i].append((j, w))
        if w < 1.0 - VIOLATION_TOL:
            entering.setdefault(j, {})[i] = w

    trees = {}
    found = {}
    for (i, j), w0 in arcs.items():
        if w0 >= 1.0 - VIOLATION_TOL:
            continue
        if j not in trees:
            trees[j] = _shortest_path_tree(adj, j, entering[j])
        dist, prev = trees[j]
        if dist[i] is None or w0 + dist[i] >= 1.0 - VIOLATION_TOL:
            continue
        path = [i]
        while path[-1] != j:
            path.append(prev[path[-1]])
        path.reverse()  # j ... i
        if len(path) < 3:
            continue  # two-cycle
        cyc_arcs = [(i, j)] + [(path[t], path[t + 1]) for t in range(len(path) - 1)]
        cycle = Cycle(arcs=tuple(cyc_arcs)).canonical()
        found.setdefault(cycle.arcs, cycle)
        if len(found) >= CYCLE_CAP:
            break
    return list(found.values())


def _shortest_path_tree(adj, source, tails):
    """Dijkstra from `source` over the weighted successor lists `adj`,
    indexed by node; returns per node its distance if it was settled (else
    None) and its predecessor.

    `tails` maps the tail of each arc into the source that may close a
    violated cycle to the arc's weight.  The search stops once every tail
    is settled, or once the least weight of an unsettled tail's arc plus
    the distance reached is at least 1 - VIOLATION_TOL, as no such tail
    then closes a violated cycle.  Nodes settle in the order a search
    stopped at any one of them settles them, and a settled node's
    predecessor never changes, so each settled node's path is the one
    that search finds.
    """
    tails = dict(tails)
    least = min(tails.values())
    dist = [math.inf] * len(adj)
    dist[source] = 0.0
    settled = [None] * len(adj)
    prev = [None] * len(adj)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if least + d >= 1.0 - VIOLATION_TOL:
            break
        settled[u] = d
        if u in tails:
            del tails[u]
            if not tails:
                break
            least = min(tails.values())
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return settled, prev


# ---------------------------------------------------------------------------
# (U,C) inequalities
# ---------------------------------------------------------------------------


def _uc_scaling(cycle, U, base_map):
    """delta(U) = lcm of the omegas of U's base cuts (1 for U = {}) and
    gamma_i = delta(U) / omega_i per member, in sorted U order."""
    nodes = set(cycle.nodes)
    omegas = {i: base_map[i].omega(nodes) for i in sorted(U)}
    for i, w in omegas.items():
        if w < 1:
            raise ValueError(f"node {i} has omega {w} < 1")
    delta = math.lcm(*omegas.values()) if omegas else 1
    return delta, {i: delta // w for i, w in omegas.items()}


def build_uc_cut(instance, cycle, U, base_map):
    """The (U,C) inequality

    sum_{i in U} gamma_i (x_i + sum_j alpha_ji y_ji - beta_i z_i)
        >= delta(U) (1 - sum_{(k,l) in C, l not in U} (z_l - y_kl)).

    Its provenance is the cycle's arcs and, per member of U in sorted
    order, the member and its base cut's key, so cuts that differ in a
    base cut stay distinct in a `knapcuts.CutPool`.
    """
    delta, gamma = _uc_scaling(cycle, U, base_map)
    coeffs = {}
    for i, g in gamma.items():
        for key, c in base_map[i].coeffs.items():  # x, y in view.d order, z
            coeffs[key] = coeffs.get(key, 0) + g * c
    for k, l in cycle.arcs:
        if l in gamma:
            continue
        key = instance.zcol(l)
        coeffs[key] = coeffs.get(key, 0) + delta
        key = instance.ycol[k, l]
        coeffs[key] = coeffs.get(key, 0) - delta
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    bases = tuple((i, base_map[i].key) for i in gamma)
    return Inequality(coeffs=coeffs, rhs=float(delta), tag="uc",
                      provenance=(cycle.arcs, bases))


def uc_violation(instance, cycle, base_map, U, point):
    """Violation of the (U,C) inequality at a point, straight from Eq-form."""
    delta, gamma = _uc_scaling(cycle, U, base_map)
    outside = 0.0
    for k, l in cycle.arcs:
        if l not in gamma:
            outside += point[instance.zcol(l)] - point[instance.ycol[k, l]]
    val = delta * (1.0 - outside)
    for i, g in gamma.items():
        val -= g * base_map[i].theta(point)
    return val


def _cycle_terms(instance, cycle, base_map, point):
    """Per cycle node i: omega_i, theta_i and w_i = z_i - y_{pred(i),i}."""
    nodes = set(cycle.nodes)
    omegas, theta, w = {}, {}, {}
    for k, i in cycle.arcs[-1:] + cycle.arcs[:-1]:  # each node's entering arc
        base = base_map[i]
        omegas[i] = base.omega(nodes)
        theta[i] = base.theta(point)
        w[i] = point[instance.zcol(i)] - point[instance.ycol[k, i]]
    return omegas, theta, w


def separate_uc(instance, cycle, base_map, point):
    """(U,C) separation over one violated cycle, exact among the subsets U
    with delta(U) <= DELTA_CAP.

    base_map maps each cycle node to a node cut, its base inequality; the
    omegas come from the node views those cuts hold.  With w_i = z_i -
    y_{pred(i),i} and W their sum, the violation is

        delta(U) * (K + sum_{i in U} c_i),  K = 1 - W,  c_i = w_i - theta_i/omega_i,

    so subsets sharing an lcm are interchangeable up to their c-sum.  The DP
    keeps, per achievable lcm value, the maximum exact rational c-sum and a
    witness subset; the best candidate (including U = {}) wins.  Nodes with
    omega <= 0 never enter U; lcm growth beyond DELTA_CAP is pruned.

    Returns the (U,C) cut of the best U, whose provenance lists U's
    members, or None when its violation is at most VIOLATION_TOL.
    """
    nodes = cycle.nodes
    omegas, theta, w = _cycle_terms(instance, cycle, base_map, point)
    K = Fraction(1) - sum((Fraction(w[i]) for i in nodes), Fraction(0))

    # state: lcm -> (best c-sum, witness subset)
    states = {}
    for i in nodes:
        if omegas[i] < 1:
            continue
        ci = Fraction(w[i]) - Fraction(theta[i]) / omegas[i]
        updates = [(omegas[i], ci, (i,))]
        for d, (csum, members) in states.items():
            nd = math.lcm(d, omegas[i])
            if nd > DELTA_CAP:
                continue
            updates.append((nd, csum + ci, members + (i,)))
        for nd, csum, members in updates:
            cur = states.get(nd)
            if cur is None or csum > cur[0]:
                states[nd] = (csum, members)

    best_viol = K  # U = {}: plain cycle cut with delta = 1
    best_U = ()
    for d, (csum, members) in states.items():
        cand = d * (K + csum)
        if cand > best_viol:
            best_viol = cand
            best_U = tuple(sorted(members))

    if float(best_viol) <= VIOLATION_TOL:
        return None
    return build_uc_cut(instance, cycle, best_U, base_map)


def uc_dag_values(instance, cycle, base_map, point):
    """Arc lengths of the sorted-theta chain DAG used by the prefix heuristic.

    Takes the arguments of `separate_uc`.  Returns
    (f_direct, exit_values) where f_direct is the 0 -> sink arc (the best
    singleton violation) and exit_values[k-1] is the exit arc of the k-th
    prefix of eligible nodes sorted by ascending theta.  Kept as a
    diagnostic; exact separation lives in `separate_uc`.
    """
    nodes = cycle.nodes
    omegas, theta, w = _cycle_terms(instance, cycle, base_map, point)
    W = sum(w.values())
    eligible = [i for i in nodes if omegas[i] >= 1]
    eligible.sort(key=lambda i: (theta[i], i))

    f_direct = max(
        (omegas[i] * (1.0 - (W - w[i])) - theta[i] for i in eligible),
        default=-math.inf,
    )
    exits = []
    for k in range(1, len(eligible) + 1):
        prefix = eligible[:k]
        delta = math.lcm(*(omegas[i] for i in prefix))
        outside = W - sum(w[i] for i in prefix)
        val = delta * (1.0 - outside)
        val -= sum((delta // omegas[i] + 1) * theta[i] for i in prefix)
        exits.append(val)
    return f_direct, exits

