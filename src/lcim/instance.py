"""LCIM instance data model, small-world generator and file I/O.

An instance is a bidirectional social graph: whenever the arc (i, j) exists,
so does (j, i), though the two influence weights may differ.  Node ids are
1..n.  Each node carries an integer activation threshold h_i and the instance
carries the required activation count b.  Every weight is clamped to its
receiver's threshold when the instance is built.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Instance",
    "NodeView",
    "generate_small_world",
    "save",
    "load",
    "ParseError",
]


# The rules an instance obeys, each written once: `Instance` checks them on
# its fields and `loads` on each line it reads.

def _check_threshold(i, hi):
    if hi < 1 or int(hi) != hi:
        raise ValueError(f"node {i} has nonpositive or fractional threshold {hi}")
    # h_i is the coefficient of z_i in node i's propagation row, and HiGHS
    # takes no coefficient of magnitude 10^15 or more
    if hi >= 10**15:
        raise ValueError(f"node {i} has threshold {hi}, not below 10^15")


def _check_arc(n, i, j, w):
    if i == j:
        raise ValueError(f"self-loop at node {i}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"arc ({i},{j}) references unknown node")
    if w < 1 or int(w) != w:
        raise ValueError(f"arc ({i},{j}) has nonpositive or fractional weight {w}")


def _check_reverse(i, j, arcs):
    if (j, i) not in arcs:
        raise ValueError(f"asymmetric arc set: ({i},{j}) present without ({j},{i})")


class ParseError(ValueError):
    """Raised when an instance file is malformed; carries the line number."""

    def __init__(self, lineno, reason):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


def xvar(i):
    return f"x[{i}]"


def yvar(j, i):
    """Arc variable for influence exerted by j on i."""
    return f"y[{j},{i}]"


def zvar(i):
    return f"z[{i}]"


@dataclass(frozen=True)
class NodeView:
    """Single-node propagation data: threshold plus incoming weighted arcs,
    and the LP columns of the node's variables.

    A view built without columns has the layout of the single-node set P
    alone: x at 0, the y of the k-th entry of d (k from 1) at k, z at v + 1.
    """

    node: int
    h: int
    d: tuple  # ((neighbor, weight), ...) sorted by neighbor id
    xcol: int = 0
    ycols: tuple = None  # column of y_ji per entry of d
    zcol: int = None

    def __post_init__(self):
        if self.ycols is None:
            object.__setattr__(self, "ycols", tuple(range(1, len(self.d) + 1)))
        if self.zcol is None:
            object.__setattr__(self, "zcol", len(self.d) + 1)

    @property
    def neighbors(self):
        return tuple(j for j, _ in self.d)

    @property
    def weights(self):
        return tuple(w for _, w in self.d)

    def weight_of(self, j):
        for k, w in self.d:
            if k == j:
                return w
        raise KeyError(j)

    @property
    def var_names(self):
        """Column -> name table of the node's variables."""
        names = {self.xcol: xvar(self.node), self.zcol: zvar(self.node)}
        names.update((c, yvar(j, self.node)) for (j, _), c in zip(self.d, self.ycols))
        return names

    @property
    def degree(self):
        return len(self.d)

    @cached_property
    def subset_sums(self):
        """The distinct weight sums below h of the neighbour subsets,
        ascending, as int64: at most min(2^v, h) of them, 0 always first."""
        sums = {0}
        for w in self.weights:
            sums |= {s + w for s in sums if s + w < self.h}
        return np.array(sorted(sums), dtype=np.int64)

    @cached_property
    def sum_sources(self):
        """Per entry k of d, the index in `subset_sums` of each sum minus
        d_k, or -1 where that is not one of them, then one more -1: an
        int array of shape (v, len(subset_sums) + 1)."""
        sums = self.subset_sums
        less = sums - np.array(self.weights, dtype=np.int64)[:, None]
        found = np.searchsorted(sums, less)
        sources = np.full((self.degree, len(sums) + 1), -1)
        sources[:, :-1] = np.where(sums[found] == less, found, -1)
        return sources


@dataclass(frozen=True)
class Instance:
    """Immutable LCIM instance.

    arcs maps directed arc (i, j) to the positive integer influence weight
    d_ij exerted by i on j.  The arc set is symmetric as a relation.  Each
    threshold h_i is a positive integer below 10^15, the bound HiGHS puts
    on an LP coefficient.  While
    the arcs are validated, each weight is clamped to min(d_ij, h_j), which
    loses nothing (a larger weight can never change an activation), and the
    node views are built once.  `arcs` holds the clamped weights.

    Every LP over the instance numbers its variables the same way: x_i at
    column i - 1, the y of the k-th arc of `arcs` (k from 0) at n + k,
    z_i at n + m + i - 1 (and, in the layered formulation only, l_i at
    2n + m + i - 1).  `ycol` maps each arc to its column, in arc order.
    """

    n: int
    arcs: tuple  # (((i, j), d_ij), ...) sorted
    h: tuple  # h[i-1] is the threshold of node i
    b: int
    _views: tuple = field(init=False, repr=False, compare=False)
    ycol: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("instance needs at least one node")
        if not (1 <= self.b <= self.n):
            raise ValueError(f"b={self.b} outside [1, n={self.n}]")
        if len(self.h) != self.n:
            raise ValueError("threshold list length != n")
        for i, hi in enumerate(self.h, start=1):
            _check_threshold(i, hi)
        ycol = {arc: self.n + k for k, (arc, _) in enumerate(self.arcs)}
        if len(ycol) != len(self.arcs):
            raise ValueError("duplicate arcs")
        clamped = []
        incoming = [[] for _ in range(self.n)]
        for (i, j), w in self.arcs:
            _check_arc(self.n, i, j, w)
            _check_reverse(i, j, ycol)
            w = min(w, self.h[j - 1])
            clamped.append(((i, j), w))
            incoming[j - 1].append((i, w, ycol[i, j]))
        object.__setattr__(self, "arcs", tuple(clamped))
        object.__setattr__(self, "ycol", ycol)
        views = []
        for i, (hi, arcs) in enumerate(zip(self.h, incoming), start=1):
            arcs.sort()
            views.append(NodeView(
                node=i, h=hi, d=tuple((j, w) for j, w, _ in arcs),
                xcol=self.xcol(i), ycols=tuple(c for _, _, c in arcs),
                zcol=self.zcol(i),
            ))
        object.__setattr__(self, "_views", tuple(views))

    # -- accessors ---------------------------------------------------------

    @property
    def m(self):
        """Number of directed arcs."""
        return len(self.arcs)

    def weight(self, i, j):
        return self.arcs[self.ycol[i, j] - self.n][1]

    @property
    def ncols(self):
        """Number of x, y and z columns."""
        return 2 * self.n + self.m

    def xcol(self, i):
        return i - 1

    def zcol(self, i):
        return self.n + self.m + i - 1

    @property
    def var_names(self):
        """Column -> name table of the x, y and z variables."""
        return (
            [xvar(i) for i in range(1, self.n + 1)]
            + [yvar(i, j) for (i, j), _ in self.arcs]
            + [zvar(i) for i in range(1, self.n + 1)]
        )

    def threshold(self, i):
        return self.h[i - 1]

    def neighbors(self, i):
        """In-neighbors of i (equal to out-neighbors by symmetry)."""
        return self._view(i).neighbors

    def edges(self):
        """Undirected edge list as (i, j) with i < j."""
        return sorted({(min(i, j), max(i, j)) for (i, j), _ in self.arcs})

    def node_view(self, i):
        return self._view(i)

    def _view(self, i):
        if not 1 <= i <= self.n:
            raise KeyError(i)
        return self._views[i - 1]

    def with_b(self, b):
        return Instance(n=self.n, arcs=self.arcs, h=self.h, b=b)


def make_instance(n, arc_weights, thresholds, b):
    """Build an Instance from a dict {(i, j): d_ij} and {i: h_i}."""
    arcs = tuple(sorted(arc_weights.items()))
    h = tuple(thresholds[i] for i in range(1, n + 1))
    return Instance(n=n, arcs=arcs, h=h, b=b)


class _NumpyBits(random.Random):
    """Python's `random` algorithms (choice and the rest) drawing their bits
    from a numpy Generator, as networkx's PythonRandomViaNumpyBits does."""

    def __init__(self, rng):
        self._rng = rng

    def random(self):
        return self._rng.random()

    def getrandbits(self, k):
        nbytes = (k + 7) // 8
        return int.from_bytes(self._rng.bytes(nbytes), "big") >> (nbytes * 8 - k)


def _watts_strogatz_edges(n, k, p, rng):
    """Sorted edges (u, w), u < w, of networkx's ``watts_strogatz_graph(n, k,
    p, seed=rng)`` on nodes 0..n-1, with the same draws from rng: a ring
    lattice joining each node to its k // 2 nearest neighbours on each side,
    whose edges (u, u + j) are visited by j, then by u, and each rewired with
    probability p to a uniform new end w that is neither u nor a neighbour
    of u (kept when u already has n - 1 neighbours)."""
    draw = _NumpyBits(rng)
    nodes = list(range(n))
    adj = [set() for _ in nodes]
    lattice = [(u, (u + j) % n) for j in range(1, k // 2 + 1) for u in nodes]
    for u, v in lattice:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in lattice:
        if draw.random() < p:
            w = draw.choice(nodes)
            while w == u or w in adj[u]:
                w = draw.choice(nodes)
                if len(adj[u]) >= n - 1:
                    break
            else:
                adj[u].remove(v)
                adj[v].remove(u)
                adj[u].add(w)
                adj[w].add(u)
    return sorted((u, w) for u in nodes for w in adj[u] if u < w)


def generate_small_world(n, v, q, a, seed):
    """Generate a Watts-Strogatz LCIM instance.

    A ring lattice on n nodes with mean degree v is rewired with probability
    q per edge; each undirected edge becomes two directed arcs with i.i.d.
    weights uniform on {1,...,10}.  Thresholds follow a normal law with mean
    0.7 * (incoming weight sum) and variance (incoming weight sum)/degree.
    b = ceil(a * n).  Like every instance, the result holds each weight
    clamped to its receiver's threshold; it is a pure function of the seed.

    The graph is networkx's ``watts_strogatz_graph(n, v, q, seed=rng)`` bit
    for bit, drawn from the same numpy Generator rng; a test checks the
    edges and the Generator's next draw against networkx.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    if v % 2 != 0 or not 2 <= v < n:
        raise ValueError("mean degree v must be even, at least 2 and smaller than n")
    if not (0.0 <= q <= 1.0):
        raise ValueError("rewiring probability q must lie in [0, 1]")
    if not (0.0 < a <= 1.0):
        raise ValueError("penetration rate a must lie in (0, 1]")

    rng = np.random.default_rng(seed)
    arc_weights = {}
    for u, w in _watts_strogatz_edges(n, v, q, rng):
        i, j = u + 1, w + 1
        arc_weights[(i, j)] = int(rng.integers(1, 11))
        arc_weights[(j, i)] = int(rng.integers(1, 11))

    degree = [0] * (n + 1)
    weight_sum = [0] * (n + 1)
    for (_, j), w in arc_weights.items():
        degree[j] += 1
        weight_sum[j] += w

    thresholds = {}
    for node in range(1, n + 1):
        vi, delta = degree[node], weight_sum[node]
        if vi == 0:
            raise ValueError(f"generated graph left node {node} isolated")
        upsilon = rng.normal(0.7 * delta, math.sqrt(delta / vi))
        hi = math.ceil(max(1.0, min(upsilon, float(delta))))
        if vi >= 2:
            # keep the strict slack sum(d) > h the cut machinery assumes
            hi = min(hi, delta - 1)
        thresholds[node] = max(1, hi)

    return make_instance(n, arc_weights, thresholds, math.ceil(a * n))


def save(instance, path):
    """Write the line-oriented text format (see load)."""
    lines = ["lcim 1", f"{instance.n} {instance.m} {instance.b}"]
    for i in range(1, instance.n + 1):
        lines.append(f"{i} {instance.threshold(i)}")
    for (i, j), w in instance.arcs:
        lines.append(f"{i} {j} {w}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def loads(text):
    """Parse an instance from text.

    Format: `lcim 1` magic, then `n m b`, then n threshold lines `i h_i`,
    then m arc lines `i j d_ij`.  `#` starts a comment line.  Every rule
    `Instance` checks is checked here first, so a ParseError names the line
    that breaks it; a missing reverse arc is reported at the arc that has
    none.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped))
    if not rows:
        raise ParseError(0, "empty file")

    it = iter(rows)
    lineno, magic = next(it)
    if magic.split() != ["lcim", "1"]:
        raise ParseError(lineno, f"bad magic {magic!r}, expected 'lcim 1'")
    lineno, (n, m, b) = _read_ints(
        it, lineno, 3, "missing header line", "header must be '<n> <m> <b>'",
        "header fields must be integers")
    if n < 1 or m < 0:
        raise ParseError(lineno, f"header needs n >= 1 and m >= 0, got n={n} m={m}")
    if not 1 <= b <= n:
        raise ParseError(lineno, f"b={b} outside [1, n={n}]")

    thresholds = {}
    for _ in range(n):
        lineno, (i, hi) = _read_ints(
            it, lineno, 2, "unexpected end of file in threshold block",
            "threshold line must be '<node> <h>'", "threshold fields must be integers")
        if not 1 <= i <= n:
            raise ParseError(lineno, f"threshold for node {i} outside [1, n={n}]")
        if i in thresholds:
            raise ParseError(lineno, f"duplicate threshold for node {i}")
        _at_line(lineno, _check_threshold, i, hi)
        thresholds[i] = hi

    arc_weights, arc_lines = {}, {}
    for _ in range(m):
        lineno, (i, j, w) = _read_ints(
            it, lineno, 3, "unexpected end of file in arc block",
            "arc line must be '<i> <j> <d>'", "arc fields must be integers")
        if (i, j) in arc_weights:
            raise ParseError(lineno, f"duplicate arc ({i},{j})")
        _at_line(lineno, _check_arc, n, i, j, w)
        arc_weights[(i, j)] = w
        arc_lines[i, j] = lineno

    leftover = list(it)
    if leftover:
        raise ParseError(leftover[0][0], "trailing content after arc block")
    for (i, j), lineno in arc_lines.items():
        _at_line(lineno, _check_reverse, i, j, arc_weights)

    inst = make_instance(n, arc_weights, thresholds, b)
    for i in range(1, n + 1):
        view = inst.node_view(i)
        if view.degree >= 2 and sum(view.weights) <= view.h:
            warnings.warn(
                f"node {i}: neighbor weights sum {sum(view.weights)} does not "
                f"exceed threshold {view.h}",
                stacklevel=2,
            )
    return inst


def _read_ints(lines, lineno, count, eof, shape, not_int):
    """The next (line number, text) of the iterator `lines`, as its line
    number and its `count` integer fields.  `lineno` is the line read last;
    the ParseError reason is `eof` at that line when no line is left, and
    `shape` or `not_int` at the new line when it has another number of
    fields or a field that is not an integer."""
    try:
        lineno, text = next(lines)
    except StopIteration:
        raise ParseError(lineno, eof) from None
    parts = text.split()
    if len(parts) != count:
        raise ParseError(lineno, shape)
    try:
        return lineno, [int(p) for p in parts]
    except ValueError:
        raise ParseError(lineno, not_int) from None


def _at_line(lineno, check, *args):
    """Run an `Instance` rule, raising what it rejects as a ParseError at
    lineno."""
    try:
        check(*args)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
