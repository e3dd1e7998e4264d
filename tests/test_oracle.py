"""Reference engines: brute-force optima, validity and facet checks."""

import numpy as np
import pytest

from lcim import demo, oracle
from lcim.instance import make_instance, preprocess
from lcim.knapcuts import Inequality, build_mis_cut
from lcim.oracle import (
    activation_cost,
    brute_force_optimum,
    check_facet,
    check_validity,
    check_validity_instance,
    enumerate_feasible_points,
    permutation_optimum,
)

from conftest import random_instance, random_node_view

VIEW = demo.example_view()


def node_row(view, alpha, beta):
    """Coefficients x + sum_k alpha_k y_k - beta z over the view's columns."""
    return {view.xcol: 1, **dict(zip(view.ycols, alpha)), view.zcol: -beta}


def relabel(instance, perm):
    """Apply the node permutation {old: new} to an instance."""
    arcs = {
        (perm[i], perm[j]): w for (i, j), w in instance.arcs
    }
    thresholds = {
        perm[i]: instance.threshold(i) for i in range(1, instance.n + 1)
    }
    return make_instance(instance.n, arcs, thresholds, instance.b)


class TestOptimum:
    def test_demo(self):
        opt, order = brute_force_optimum(demo.demo_instance())
        assert opt == demo.DEMO_OPTIMUM
        assert len(order) >= 3
        assert activation_cost(demo.demo_instance(), order) == opt

    def test_single_node(self):
        inst = make_instance(1, {}, {1: 7}, b=1)
        assert brute_force_optimum(inst) == (7, (1,))

    def test_two_nodes_mutual(self):
        inst = make_instance(2, {(1, 2): 5, (2, 1): 5}, {1: 5, 2: 5}, b=2)
        opt, order = brute_force_optimum(inst)
        assert opt == 5  # pay one in full, the other activates for free

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            inst = random_instance(rng, n_max=5)
            assert brute_force_optimum(inst)[0] == permutation_optimum(inst)[0]

    def test_relabel_invariant(self):
        rng = np.random.default_rng(79)
        for _ in range(15):
            inst = random_instance(rng, n_max=6)
            perm_list = [int(v) for v in rng.permutation(np.arange(1, inst.n + 1))]
            perm = dict(enumerate(perm_list, start=1))
            assert (
                brute_force_optimum(relabel(inst, perm))[0]
                == brute_force_optimum(inst)[0]
            )

    def test_size_guard(self):
        arcs = {}
        n = 13
        for i in range(1, n):
            arcs[(i, i + 1)] = 1
            arcs[(i + 1, i)] = 1
        inst = make_instance(n, arcs, {i: 1 for i in range(1, n + 1)}, b=1)
        with pytest.raises(ValueError, match="oracle limited"):
            brute_force_optimum(inst)


class TestValidity:
    def test_propagation_row_valid(self):
        row = node_row(VIEW, VIEW.weights, VIEW.h)
        assert check_validity(Inequality(coeffs=row, rhs=0.0, tag="base"), VIEW)

    def test_overtight_row_invalid(self):
        row = node_row(VIEW, [0] * VIEW.degree, VIEW.h + 1)
        assert not check_validity(Inequality(coeffs=row, rhs=0.0, tag="base"), VIEW)

    def test_instance_view_columns(self):
        # a view of an instance has its columns spread over the layout
        inst = demo.demo_instance()
        for i in range(1, inst.n + 1):
            view = inst.node_view(i)
            assert check_validity(build_mis_cut(view, ()), view)
            row = node_row(view, [0] * view.degree, view.h + 1)
            assert not check_validity(Inequality(coeffs=row, rhs=0.0, tag="base"), view)

    def test_table_rows_valid(self):
        for r in demo.TABLE_COVER_PACKING + demo.TABLE_MIS:
            ineq = Inequality(coeffs=r["coeffs"], rhs=0.0, tag="base")
            assert check_validity(ineq, VIEW)


class TestFacet:
    def test_table_rows_are_facets(self):
        rows = [r["coeffs"] for r in demo.TABLE_COVER_PACKING + demo.TABLE_MIS]
        rows.append(demo.EXTRA_FACET_ROW)
        for coeffs in rows:
            ineq = Inequality(coeffs=coeffs, rhs=0.0, tag="base")
            assert check_facet(ineq, VIEW), ineq.render(VIEW.var_names)

    def test_slackened_row_not_facet(self):
        row = node_row(VIEW, VIEW.weights, VIEW.h - 1)
        ineq = Inequality(coeffs=row, rhs=0.0, tag="base")
        assert check_validity(ineq, VIEW)
        assert not check_facet(ineq, VIEW)

    def test_propagation_row_facet_iff_clamped(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            view = random_node_view(rng)
            ineq = Inequality(coeffs=node_row(view, view.weights, view.h), rhs=0.0, tag="base")
            expect = all(w <= view.h for w in view.weights)
            assert check_facet(ineq, view) == expect

    def test_mis_cuts_are_facets(self):
        rng = np.random.default_rng(89)
        for _ in range(40):
            view = random_node_view(rng)
            for M in ((), *((j,) for j in view.neighbors)):
                try:
                    cut = build_mis_cut(view, M)
                except ValueError:
                    continue
                assert check_facet(cut, view), (view, M)

    def test_invalid_inequality_raises(self):
        row = {VIEW.xcol: 1, VIEW.zcol: -(VIEW.h + 1)}
        ineq = Inequality(coeffs=row, rhs=0.0, tag="base")
        with pytest.raises(ValueError, match="not valid"):
            check_facet(ineq, VIEW)

    def test_nonpositive_x_coefficient_raises(self):
        ineq = Inequality(coeffs={VIEW.zcol: 1}, rhs=0.0, tag="base")
        with pytest.raises(ValueError, match="positive x"):
            check_facet(ineq, VIEW)


class TestInstanceEnumeration:
    def test_feasible_points_demo(self):
        inst = demo.demo_instance()
        pts = list(enumerate_feasible_points(inst))
        assert pts
        opt = min(sum(p[inst.xcol(i)] for i in range(1, inst.n + 1)) for p in pts)
        assert opt == demo.DEMO_OPTIMUM

    def test_points_respect_structure(self):
        rng = np.random.default_rng(97)
        inst = random_instance(rng, n_max=5)
        y, z = inst.ycol, inst.zcol
        for point in enumerate_feasible_points(inst):
            assert len(point) == inst.ncols
            assert sum(point[z(i)] for i in range(1, inst.n + 1)) >= inst.b
            for i, j in inst.edges():
                assert point[y[i, j]] + point[y[j, i]] <= min(point[z(i)], point[z(j)])

    def test_validity_instance(self):
        inst = demo.demo_instance()
        # coverage row is valid; its strengthening past n is not
        cover_row = Inequality(
            coeffs={inst.zcol(i): 1 for i in range(1, 6)}, rhs=float(inst.b), tag="base"
        )
        assert check_validity_instance([cover_row], inst)
        too_strong = Inequality(
            coeffs={inst.zcol(i): 1 for i in range(1, 6)}, rhs=6.0, tag="base"
        )
        assert not check_validity_instance([too_strong], inst)

    def test_validity_instance_matches_point_loop(self, monkeypatch):
        # the blocked matrix product gives the verdict of the loop over
        # (point, cut) pairs, here on cuts tight at, just past and short of
        # the best point, with blocks small enough that most checks span
        # several of them
        monkeypatch.setattr(oracle, "VALIDITY_BLOCK", 7)
        rng = np.random.default_rng(113)
        checked = set()
        for _ in range(8):
            inst = random_instance(rng, n_max=5)
            points = list(enumerate_feasible_points(inst))
            cuts = []
            for _ in range(6):
                size = int(rng.integers(1, inst.ncols + 1))
                cols = rng.choice(inst.ncols, size=size, replace=False)
                coeffs = {int(k): float(rng.uniform(-2, 2)) for k in cols}
                floor = min(sum(c * p[k] for k, c in coeffs.items()) for p in points)
                for rhs in (floor, floor + 1e-6, floor - 0.5):
                    cuts.append(Inequality(coeffs=coeffs, rhs=rhs, tag="base"))
            for cut in cuts:
                loop = all(cut.violation(p) <= 1e-9 for p in points)
                assert check_validity_instance([cut], inst) == loop
                checked.add(loop)
            assert check_validity_instance(cuts, inst) is False
            assert check_validity_instance(cuts[::3], inst) is True
        assert checked == {True, False}
