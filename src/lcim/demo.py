"""Shared fixtures: the worked single-node example, the five-node
demonstration instance with its known relaxation point, a small star
instance whose tree hull rows are provably necessary, and a generator of
random small instances for oracle batteries.

These are used both by the test suite and by ``lcim verify``.
"""

from __future__ import annotations

import numpy as np

from .cyclecuts import Cycle
from .instance import NodeView, make_instance
from .knapcuts import build_packing_cut

__all__ = [
    "example_view",
    "TABLE_COVER_PACKING",
    "TABLE_MIS",
    "EXTRA_FACET_ROW",
    "demo_instance",
    "demo_lp_point",
    "demo_cycle",
    "demo_base_cuts",
    "DEMO_LP_OBJ",
    "DEMO_POSTCUT_OBJ",
    "DEMO_OPTIMUM",
    "DEMO_UC_U",
    "DEMO_UC_VIOLATION",
    "DEMO_DAG_VALUES",
    "hull_gap_instance",
    "random_instance",
]


def example_view():
    """The worked single-node example: threshold 8, neighbor weights (7,6,5,4)."""
    return NodeView(node=0, h=8, d=((1, 7), (2, 6), (3, 5), (4, 4)))


def _row(c1, c2, c3, c4, r):
    """Coefficients x + c1 y_1 + ... + c4 y_4 - r z over the example view's
    columns."""
    view = example_view()
    return {view.xcol: 1, **dict(zip(view.ycols, (c1, c2, c3, c4))), view.zcol: -r}


# The seven distinct cover/packing inequalities of the worked example.  Some
# arise from both a cover and a packing; annotated with one generating set
# of each kind where they exist.
TABLE_COVER_PACKING = [
    {"coeffs": _row(1, 1, 1, 1, 2), "cover": (2, 3, 4), "packing": None},
    {"coeffs": _row(2, 1, 2, 2, 3), "cover": (1, 3, 4), "packing": (1, 2)},
    {"coeffs": _row(3, 3, 1, 3, 4), "cover": (1, 2, 4), "packing": (1, 3)},
    {"coeffs": _row(4, 4, 4, 1, 5), "cover": (1, 2, 3), "packing": (1, 4)},
    {"coeffs": _row(4, 3, 2, 3, 5), "cover": None, "packing": (2, 3)},
    {"coeffs": _row(5, 4, 4, 2, 6), "cover": None, "packing": (2, 4)},
    {"coeffs": _row(6, 5, 4, 3, 7), "cover": None, "packing": (3, 4)},
]

# The four MIS inequalities of the worked example (singleton subsets).
TABLE_MIS = [
    {"coeffs": _row(0, 1, 1, 1, 1), "mis": (1,)},
    {"coeffs": _row(2, 0, 2, 2, 2), "mis": (2,)},
    {"coeffs": _row(3, 3, 0, 3, 3), "mis": (3,)},
    {"coeffs": _row(4, 4, 4, 0, 4), "mis": (4,)},
]

# A valid facet of the same example that none of the three constructors can
# produce; witnesses that the families are not exhaustive.
EXTRA_FACET_ROW = _row(3, 2, 2, 2, 4)


# ---------------------------------------------------------------------------
# Five-node demonstration instance
# ---------------------------------------------------------------------------

DEMO_LP_OBJ = 8.52
DEMO_POSTCUT_OBJ = 10.2
DEMO_OPTIMUM = 11
DEMO_UC_U = (1, 3)
DEMO_UC_VIOLATION = 6.0
DEMO_DAG_VALUES = (3.0, 3.72, 6.72, 1.44)


def demo_instance():
    """Five nodes, ten arcs, b = 3; carries the influence triangle 1-2-3."""
    arcs = {(1, 2): 3, (1, 3): 3, (1, 4): 5, (2, 1): 5, (2, 3): 6, (2, 5): 5,
            (3, 1): 7, (3, 2): 4, (4, 1): 9, (5, 2): 5}
    return make_instance(5, arcs, {1: 18, 2: 10, 3: 7, 4: 5, 5: 5}, b=3)


def demo_lp_point():
    """The known fractional vertex of the demo relaxation (objective 8.52).

    The solver may return a different vertex of the same degenerate optimal
    face; separation checks run against this recorded point, a list over
    the demo instance's columns.
    """
    inst = demo_instance()
    point = [0.0] * inst.ncols
    for i, x in zip(range(1, 6), (0.0, 4.92, 0.6, 3.0, 0.0)):
        point[inst.xcol(i)] = x
        point[inst.zcol(i)] = 0.6
    values = {
        (1, 2): 0.36, (1, 3): 0.0, (1, 4): 0.0,
        (2, 1): 0.24, (2, 3): 0.6, (2, 5): 0.6,
        (3, 1): 0.6, (3, 2): 0.0,
        (4, 1): 0.6,
        (5, 2): 0.0,
    }
    for arc, v in values.items():
        point[inst.ycol[arc]] = v
    return point


def demo_cycle():
    return Cycle(arcs=((1, 2), (2, 3), (3, 1)))


def demo_base_cuts(instance=None):
    """The packing cuts used as base inequalities on the demo triangle,
    keyed by cycle node: the base_map of the demo (U,C) separation."""
    inst = instance or demo_instance()
    return {
        1: build_packing_cut(inst.node_view(1), (2, 3, 4)),
        2: build_packing_cut(inst.node_view(2), (1, 3, 5)),
        3: build_packing_cut(inst.node_view(3), (1, 2)),
    }


# ---------------------------------------------------------------------------
# Tree-hull necessity witness
# ---------------------------------------------------------------------------


def hull_gap_instance():
    """Star on four nodes whose relaxation is fractional without hull rows.

    The center needs two incoming leaf activations (h=3, incoming weight 2);
    without the hull row x_c + sum y >= 2 the LP pays 1.5 by half-orienting
    every edge, while the integer optimum is 2.
    """
    arcs = {}
    for leaf in (2, 3, 4):
        arcs[(leaf, 1)] = 2
        arcs[(1, leaf)] = 1
    return make_instance(
        4, arcs, {1: 3, 2: 1, 3: 1, 4: 1}, b=4
    )


# ---------------------------------------------------------------------------
# Random small instances
# ---------------------------------------------------------------------------


def random_instance(rng, n_min=3, n_max=6, extra_edge_prob=0.35, b=None):
    """Random connected bidirectional instance: a random spanning tree plus
    extra edges, weights on {1,...,10}, random thresholds and, unless given,
    a random b."""
    n = int(rng.integers(n_min, n_max + 1))
    arcs = {}
    order = list(rng.permutation(np.arange(1, n + 1)))
    for a, c in zip(order, order[1:]):
        a, c = int(a), int(c)
        arcs[(a, c)] = int(rng.integers(1, 11))
        arcs[(c, a)] = int(rng.integers(1, 11))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in arcs and rng.random() < extra_edge_prob:
                arcs[(i, j)] = int(rng.integers(1, 11))
                arcs[(j, i)] = int(rng.integers(1, 11))
    thresholds = {}
    for i in range(1, n + 1):
        delta = sum(w for (a, c), w in arcs.items() if c == i)
        thresholds[i] = int(rng.integers(1, delta + 2))
    if b is None:
        b = int(rng.integers(1, n + 1))
    return make_instance(n, arcs, thresholds, b)
