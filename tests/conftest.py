"""Shared helpers for the test suite: random instance factories and a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

import lcim
from lcim.demo import random_instance  # noqa: F401  (shared with `lcim verify`)
from lcim.instance import make_instance
from lcim.oracle import activation_cost, brute_force_optimum

# every run draws the same examples, so a property's duration and verdict
# do not change between runs; each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def run_python(code, *path):
    """Run `code` in a fresh interpreter that finds lcim, after the folders
    `path`; returns the finished process, its output captured as text."""
    src = str(Path(lcim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), src]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def reference_greedy(instance, first=None):
    """The plain-Python greedy that `bnc.greedy_incumbent` batches: activate
    `first`, when given, then repeatedly the node whose remaining incentive
    (threshold minus influence from already-active neighbors) is smallest,
    ties keeping the smaller id.  With no `first` this is the single-start
    greedy.  Returns (cost, activation order)."""
    active = []
    active_set = set()
    cost = 0
    for step in range(instance.b):
        best = None
        for i in range(1, instance.n + 1):
            if i in active_set or (step == 0 and first not in (None, i)):
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


def random_cycle_instance(rng, n_min=3, n_max=8, b=None):
    """Random simple-cycle instance on a shuffled node order."""
    n = int(rng.integers(n_min, n_max + 1))
    order = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
    arcs = {}
    for a, c in zip(order, order[1:] + order[:1]):
        arcs[(a, c)] = int(rng.integers(1, 11))
        arcs[(c, a)] = int(rng.integers(1, 11))
    thresholds = {
        i: int(rng.integers(1, sum(w for (a, c), w in arcs.items() if c == i) + 2))
        for i in range(1, n + 1)
    }
    if b is None:
        b = int(rng.integers(1, n + 1))
    return make_instance(n, arcs, thresholds, b)


def check_cycle_answer(instance, b, answer):
    """Check a `dp_cycle` answer (cost, order) independently: distinct nodes
    of 1..n, at least b of them, an activation cost equal to the reported
    cost, and that cost equal to the oracle optimum.  Returns the cost."""
    cost, order = answer
    assert len(set(order)) == len(order) >= b, (instance, b, order)
    assert all(1 <= v <= instance.n for v in order), (instance, order)
    assert activation_cost(instance, order) == cost, (instance, b, order, cost)
    opt, _ = brute_force_optimum(instance.with_b(b))
    assert cost == opt, (instance, b, cost, opt)
    return cost


def random_equal_tree(rng, n_min=2, n_max=12):
    """Random tree where every node has one common incoming weight."""
    n = int(rng.integers(n_min, n_max + 1))
    d = {i: int(rng.integers(1, 8)) for i in range(1, n + 1)}
    arcs = {}
    for i in range(2, n + 1):
        parent = int(rng.integers(1, i))
        arcs[(parent, i)] = d[i]
        arcs[(i, parent)] = d[parent]
    thresholds = {}
    for i in range(1, n + 1):
        degree = sum(1 for (a, c) in arcs if c == i)
        thresholds[i] = int(rng.integers(1, d[i] * degree + 1))
    return make_instance(n, arcs, thresholds, b=n)


def random_node_view(rng, v_max=6, node=0):
    """Random NodeView with strict slack sum(d) > h (so covers exist)."""
    from lcim.instance import NodeView

    v = int(rng.integers(2, v_max + 1))
    weights = [int(rng.integers(1, 11)) for _ in range(v)]
    h = int(rng.integers(1, sum(weights)))
    d = tuple((j, w) for j, w in enumerate(weights, start=1))
    return NodeView(node=node, h=h, d=d)


def random_fractional_point(rng, view):
    """Random fractional point over one node's x, y and z columns (its z
    column is the last of them), 0 on every other column."""
    z = float(rng.uniform(0.05, 1.0))
    point = [0.0] * (view.zcol + 1)
    for k in view.ycols:
        point[k] = float(rng.uniform(0.0, z))
    point[view.xcol] = float(rng.uniform(0.0, view.h * z))
    point[view.zcol] = z
    return point
