"""Polynomial special cases: cycle DP and the equal-influence tree hull."""

from itertools import combinations

import numpy as np
import pytest

from lcim import demo
from lcim.bnc import assemble
from lcim.instance import make_instance
from lcim.lp import solve_lp
from lcim.oracle import brute_force_optimum
from lcim.special import (
    build_tree_equal_model,
    build_uc_equal_cut,
    cycle_order,
    dp_cycle,
    hull_cuts,
)

from conftest import check_cycle_answer, random_cycle_instance, random_equal_tree


def ring(h_list, d=3, b=None):
    """Uniform-weight cycle on len(h_list) nodes."""
    n = len(h_list)
    arcs = {}
    for k in range(n):
        i, j = k + 1, (k + 1) % n + 1
        arcs[(i, j)] = d
        arcs[(j, i)] = d
    thresholds = {i: h for i, h in enumerate(h_list, start=1)}
    return make_instance(n, arcs, thresholds, b or n)


class TestCycleOrder:
    def test_simple_ring(self):
        assert cycle_order(ring([5, 5, 5, 5])) == [1, 2, 3, 4]

    def test_rejects_tree(self):
        tree = make_instance(
            3, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1},
            {1: 1, 2: 1, 3: 1}, b=3,
        )
        with pytest.raises(ValueError, match="degree"):
            cycle_order(tree)

    def test_rejects_too_small(self):
        inst = make_instance(2, {(1, 2): 1, (2, 1): 1}, {1: 1, 2: 1}, b=2)
        with pytest.raises(ValueError, match="three nodes"):
            cycle_order(inst)


class TestDpCycle:
    def test_single_seed(self):
        # three nodes, h=5 each, d=3: activate one node, sweep both ways
        inst = ring([5, 5, 5], d=3, b=1)
        assert check_cycle_answer(inst, 1, dp_cycle(inst)) == 5

    def test_full_coverage(self):
        inst = ring([5, 5, 5], d=3, b=3)
        check_cycle_answer(inst, 3, dp_cycle(inst))

    def test_b_override(self):
        inst = ring([5, 5, 5, 5], d=2, b=4)
        assert check_cycle_answer(inst, 1, dp_cycle(inst, b=1)) == 5
        assert dp_cycle(inst, b=4) == dp_cycle(inst)
        check_cycle_answer(inst, 4, dp_cycle(inst))

    def test_matches_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            inst = random_cycle_instance(rng, n_max=7)
            for b in range(1, inst.n + 1):
                check_cycle_answer(inst, b, dp_cycle(inst, b=b))


class TestHullCoefficients:
    """The hull row of node i is x_i + g_i sum_j y_ji >= g_i sigma_i z_i:
    alpha_ji = g_i on every neighbor and beta_i = g_i sigma_i."""

    def test_values(self):
        # h=3, d=2: sigma=2, g=1
        inst = make_instance(
            2, {(1, 2): 2, (2, 1): 2}, {1: 3, 2: 3}, b=2
        )
        hull = hull_cuts(inst)
        assert hull[1].alpha == ((2, 1),) and hull[1].beta == 2
        assert hull[1].tag == "base" and hull[1].view == inst.node_view(1)
        assert hull[1].render(inst.var_names) == "x[1] + y[2,1] >= 2 z[1]"

    def test_exact_multiple(self):
        # node 1: h=4, d=2, sigma=2, g=2; node 2: h=2, d=2, sigma=1, g=2
        inst = make_instance(
            2, {(1, 2): 2, (2, 1): 2}, {1: 4, 2: 2}, b=2
        )
        hull = hull_cuts(inst)
        assert hull[1].alpha == ((2, 2),) and hull[1].beta == 4
        assert hull[2].alpha == ((1, 2),) and hull[2].beta == 2

    def test_unequal_weights_rejected(self):
        # node 1 receives 3 and 2, both within its threshold 3
        inst = make_instance(
            3,
            {(1, 2): 2, (2, 1): 3, (1, 3): 2, (3, 1): 2},
            {1: 3, 2: 2, 3: 2},
            b=3,
        )
        with pytest.raises(ValueError, match="unequal"):
            hull_cuts(inst)


class TestTreeEqualModel:
    def test_path_hull_rows(self):
        # spelled-out two-node path: hull rows x_i + y_ji >= 2
        inst = make_instance(
            2, {(1, 2): 2, (2, 1): 2}, {1: 3, 2: 3}, b=2
        )
        model = build_tree_equal_model(inst)
        sol = solve_lp(model)
        assert sol.optimal
        opt, _ = brute_force_optimum(inst)
        assert sol.objective == pytest.approx(opt)

    def test_single_edge_equal(self):
        # each node's incoming weight equals its threshold: pay only for
        # the cheaper endpoint, the other activates for free
        inst = make_instance(
            2, {(1, 2): 6, (2, 1): 4}, {1: 4, 2: 6}, b=2
        )
        sol = solve_lp(build_tree_equal_model(inst))
        assert sol.objective == pytest.approx(4)  # min(h1, h2)

    def test_one_node_tree(self):
        # no neighbours: the hull row is the propagation row x_1 >= 3
        inst = make_instance(1, {}, {1: 3}, 1)
        sol = solve_lp(build_tree_equal_model(inst))
        assert sol.optimal
        assert sol.objective == pytest.approx(brute_force_optimum(inst)[0])

    def test_rejects_non_tree(self):
        inst = ring([5, 5, 5])
        with pytest.raises(ValueError, match="tree"):
            build_tree_equal_model(inst)

    def test_rejects_partial_coverage(self):
        inst = make_instance(
            2, {(1, 2): 2, (2, 1): 2}, {1: 3, 2: 3}, b=1
        )
        with pytest.raises(ValueError, match="b = n"):
            build_tree_equal_model(inst)

    def test_integral_and_exact(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            inst = random_equal_tree(rng, n_max=10)
            sol = solve_lp(build_tree_equal_model(inst))
            assert sol.optimal
            opt, _ = brute_force_optimum(inst)
            assert sol.objective == pytest.approx(opt, abs=1e-6)
            assert len(sol.values) == inst.ncols  # x, y and z
            for val in sol.values[inst.n:inst.zcol(1)]:  # the y columns
                assert min(val, 1 - val) < 1e-6
            assert sol.values[inst.zcol(1):] == [1.0] * inst.n

    def test_hull_rows_necessary(self):
        inst = demo.hull_gap_instance()
        # the ln relaxation: propagation and orientation rows, z fixed to 1
        with_hull = solve_lp(build_tree_equal_model(inst))
        without = solve_lp(assemble(inst, "ln"))
        opt, _ = brute_force_optimum(inst)
        assert with_hull.objective == pytest.approx(opt)
        assert without.objective < opt - 0.25  # 1.5 vs 2


class TestUcEqualCut:
    def test_cut_tightens_no_integer_points(self):
        # a uniform ring with b = n: hull (U,C) cuts stay valid
        from lcim.cyclecuts import Cycle
        from lcim.oracle import enumerate_feasible_points

        inst = ring([3, 3, 3], d=2, b=3)
        hull = hull_cuts(inst)
        cycle = Cycle(arcs=((1, 2), (2, 3), (3, 1)))
        # omega_i = h_i - beta_i = 1: every node is eligible
        for U in ([], [1], [1, 2, 3]):
            cut = build_uc_equal_cut(inst, cycle, U, hull)
            # validate against every feasible point with z == 1
            for point in enumerate_feasible_points(inst):
                if all(point[inst.zcol(i)] == 1 for i in (1, 2, 3)):
                    assert cut.violation(point) <= 1e-9, (U, point)

    def test_coefficients(self):
        from lcim.cyclecuts import Cycle

        inst = ring([3, 3, 3], d=2, b=3)
        hull = hull_cuts(inst)  # sigma=2, g=1: alpha=1, beta=2
        cycle = Cycle(arcs=((1, 2), (2, 3), (3, 1)))
        cut = build_uc_equal_cut(inst, cycle, (1,), hull)  # omega_1 = 3 - 2 = 1
        y = inst.ycol
        assert cut.coeffs[inst.xcol(1)] == 1
        assert cut.coeffs[y[2, 1]] == 1 and cut.coeffs[y[3, 1]] == 1
        assert cut.coeffs[y[1, 2]] == -1 and cut.coeffs[y[2, 3]] == -1
        assert not any(inst.zcol(i) in cut.coeffs for i in (1, 2, 3))
        # rhs = delta (1 - 3 + 1) + gamma * beta = -1 + 2 = 1
        assert cut.rhs == 1.0


def random_equal_ring(rng, n_min=3, n_max=7):
    """Random ring where every node has one common incoming weight."""
    n = int(rng.integers(n_min, n_max + 1))
    d = {i: int(rng.integers(1, 6)) for i in range(1, n + 1)}
    arcs = {}
    for i in range(1, n + 1):
        j = i % n + 1
        arcs[(i, j)] = d[j]
        arcs[(j, i)] = d[i]
    thresholds = {i: int(rng.integers(1, 2 * d[i] + 1)) for i in range(1, n + 1)}
    return make_instance(n, arcs, thresholds, b=n)


class TestZFixedHullRows:
    """The equal-influence rows are the general node and (U,C) rows with
    every z column fixed to 1."""

    def test_uc_equal_cut_is_z_fixed_uc_cut(self):
        from lcim.cyclecuts import Cycle, build_uc_cut

        rng = np.random.default_rng(83)
        checked = 0
        for trial in range(40):
            if trial % 2:
                inst = random_equal_tree(rng, n_min=3, n_max=8)
                cycles = [Cycle(arcs=((i, j), (j, i))) for i, j in inst.edges()]
            else:
                inst = random_equal_ring(rng)
                ring_arcs = tuple((i, i % inst.n + 1) for i in range(1, inst.n + 1))
                cycles = [Cycle(arcs=ring_arcs),
                          Cycle(arcs=tuple((j, i) for i, j in reversed(ring_arcs)))]
            hull = hull_cuts(inst)
            z = {inst.zcol(i) for i in range(1, inst.n + 1)}
            for cycle in cycles:
                nodes = cycle.nodes
                for size in range(len(nodes) + 1):
                    for U in combinations(nodes, size):
                        try:
                            cut = build_uc_cut(inst, cycle, U, hull)
                        except ValueError:
                            with pytest.raises(ValueError, match="omega"):
                                build_uc_equal_cut(inst, cycle, U, hull)
                            continue
                        eq = build_uc_equal_cut(inst, cycle, U, hull)
                        assert eq.tag == "hull-eq" and eq.provenance == cut.provenance
                        assert list(eq.coeffs.items()) == [
                            (k, c) for k, c in cut.coeffs.items() if k not in z
                        ]
                        # equal violations wherever z == 1 fixes the rhs
                        point = rng.random(inst.ncols).tolist()
                        for k in z:
                            point[k] = 1.0
                        assert eq.violation(point) == pytest.approx(cut.violation(point))
                        checked += 1
        assert checked > 200

    def test_tree_model_rows(self):
        # the oriented formulation, every z fixed to 1 by its bounds, then
        # each hull row that differs from its node's propagation row
        rng = np.random.default_rng(89)
        for _ in range(40):
            inst = random_equal_tree(rng, n_max=10)
            n, m = inst.n, inst.m
            hull = hull_cuts(inst)
            prop, extra = [], []
            for i in range(1, n + 1):
                view = inst.node_view(i)
                row = [(view.xcol, 1), *zip(view.ycols, view.weights), (view.zcol, -view.h)]
                prop.append((row, ">=", 0.0))
                alpha = [a for _, a in hull[i].alpha]
                row_h = [(view.xcol, 1), *zip(view.ycols, alpha), (view.zcol, -hull[i].beta)]
                if row_h != row:
                    extra.append((row_h, ">=", 0.0))
            orient = [([(inst.ycol[i, j], 1.0), (inst.ycol[j, i], 1.0)], "=", 1.0)
                      for i, j in inst.edges()]
            cover = [([(inst.zcol(i), 1.0) for i in range(1, n + 1)], ">=", float(n))]
            model = build_tree_equal_model(inst)
            assert [(list(c.items()), s, r) for c, s, r in model.rows] == (
                prop + orient + cover + extra
            )
            assert model.lower == [0.0] * (n + m) + [1.0] * n
            assert model.upper == [float(h) for h in inst.h] + [1.0] * (m + n)
            assert model.obj == [1.0] * n + [0.0] * (m + n)
