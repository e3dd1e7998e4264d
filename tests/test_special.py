"""Polynomial special cases: cycle DP and the equal-influence tree hull."""

import numpy as np
import pytest

from lcim import demo
from lcim.instance import make_instance, preprocess
from lcim.lp import solve_lp
from lcim.oracle import brute_force_optimum
from lcim.special import (
    build_tree_equal_model,
    build_uc_equal_cut,
    cycle_order,
    dp_cycle,
    hull_coefficients,
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
    return preprocess(make_instance(n, arcs, thresholds, b or n))


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

    def test_rejects_unpreprocessed(self):
        inst = make_instance(
            3,
            {(1, 2): 9, (2, 1): 9, (2, 3): 9, (3, 2): 9, (3, 1): 9, (1, 3): 9},
            {1: 5, 2: 2, 3: 9},
            b=3,
        )
        with pytest.raises(ValueError, match="preprocess"):
            dp_cycle(inst)

    def test_rejects_unpreprocessed_on_every_arc(self):
        # unit weights, thresholds 5: one arc of weight 9 on either side of
        # a node exceeds its threshold, wherever it lies on the walk
        arcs = {(1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1, (3, 1): 1, (1, 3): 1}
        for arc in arcs:
            inst = make_instance(3, {**arcs, arc: 9}, {1: 5, 2: 5, 3: 5}, b=3)
            with pytest.raises(ValueError, match="preprocess"):
                dp_cycle(inst)

    def test_matches_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            inst = random_cycle_instance(rng, n_max=7)
            for b in range(1, inst.n + 1):
                check_cycle_answer(inst, b, dp_cycle(inst, b=b))


class TestHullCoefficients:
    def test_values(self):
        # h=3, d=2: sigma=2, g=1
        inst = make_instance(
            2, {(1, 2): 2, (2, 1): 2}, {1: 3, 2: 3}, b=2
        )
        hull = hull_coefficients(inst)
        assert hull[1].sigma == 2 and hull[1].g == 1
        assert hull[1].alpha == 1 and hull[1].beta == 2

    def test_exact_multiple(self):
        inst = make_instance(
            2, {(1, 2): 2, (2, 1): 2}, {1: 4, 2: 2}, b=2
        )
        hull = hull_coefficients(inst)
        assert hull[1].sigma == 2 and hull[1].g == 2
        assert hull[2].sigma == 1 and hull[2].g == 2

    def test_unequal_weights_rejected(self):
        inst = make_instance(
            3,
            {(1, 2): 2, (2, 1): 3, (1, 3): 2, (3, 1): 2},
            {1: 2, 2: 2, 3: 2},
            b=3,
        )
        with pytest.raises(ValueError, match="unequal"):
            hull_coefficients(inst)


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
            assert len(sol.values) == inst.n + inst.m  # x and y, no z
            for val in sol.values[inst.n:]:
                assert min(val, 1 - val) < 1e-6

    def test_hull_rows_necessary(self):
        inst = demo.hull_gap_instance()
        with_hull = solve_lp(build_tree_equal_model(inst))
        without = solve_lp(build_tree_equal_model(inst, include_hull=False))
        opt, _ = brute_force_optimum(inst)
        assert with_hull.objective == pytest.approx(opt)
        assert without.objective < opt - 0.25  # 1.5 vs 2


class TestUcEqualCut:
    def test_cut_tightens_no_integer_points(self):
        # a uniform ring with b = n: hull (U,C) cuts stay valid
        from lcim.cyclecuts import Cycle
        from lcim.oracle import enumerate_feasible_points

        inst = ring([3, 3, 3], d=2, b=3)
        hull = hull_coefficients(inst)
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
        hull = hull_coefficients(inst)  # sigma=2, g=1: alpha=1, beta=2
        cycle = Cycle(arcs=((1, 2), (2, 3), (3, 1)))
        cut = build_uc_equal_cut(inst, cycle, (1,), hull)  # omega_1 = 3 - 2 = 1
        y = inst.ycol
        assert cut.coeffs[inst.xcol(1)] == 1
        assert cut.coeffs[y[2, 1]] == 1 and cut.coeffs[y[3, 1]] == 1
        assert cut.coeffs[y[1, 2]] == -1 and cut.coeffs[y[2, 3]] == -1
        assert not any(inst.zcol(i) in cut.coeffs for i in (1, 2, 3))
        # rhs = delta (1 - 3 + 1) + gamma * beta = -1 + 2 = 1
        assert cut.rhs == 1.0
