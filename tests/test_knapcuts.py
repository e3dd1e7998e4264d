"""Cover, packing and MIS cuts: construction, lifting, and separation."""

import time
from itertools import combinations

import numpy as np
import pytest

from lcim import demo, oracle
from lcim.instance import NodeView, make_instance
from lcim.knapcuts import (
    MIS_TABLE_DEGREE,
    VIOLATION_TOL,
    CutPool,
    Inequality,
    MisTable,
    build_cover_cut,
    build_mis_cut,
    build_packing_cut,
    cover_from_mis,
    make_cover_set,
    make_packing_set,
    packing_from_cover,
    phi,
    psi,
    separate_mis,
)

from conftest import random_fractional_point, random_instance, random_node_view

VIEW = demo.example_view()  # h=8, d=(7,6,5,4)


def view_point(x, z):
    """The point of VIEW with the given x and z and every y = 0."""
    point = [0.0] * (VIEW.zcol + 1)
    point[VIEW.xcol], point[VIEW.zcol] = x, z
    return point


def random_instance_point(rng, instance):
    """Random fractional point over every column: per node z in [0.05, 1],
    its in-arc y in [0, z] and x in [0, h z], or x = h z (nothing violated)
    for about a quarter of the nodes."""
    point = [0.0] * instance.ncols
    for i in range(1, instance.n + 1):
        view = instance.node_view(i)
        z = float(rng.uniform(0.05, 1.0))
        point[view.zcol] = z
        for k in view.ycols:
            point[k] = float(rng.uniform(0.0, z))
        full = rng.random() < 0.25
        point[view.xcol] = view.h * z if full else float(rng.uniform(0.0, view.h * z))
    return point


def brute_force_mis_violation(view, point):
    """Max MIS-cut violation over every admissible subset, by enumeration."""
    best = None
    for size in range(0, view.degree + 1):
        for M in combinations(view.neighbors, size):
            try:
                cut = build_mis_cut(view, M)
            except ValueError:
                continue
            v = cut.violation(point)
            if best is None or v > best:
                best = v
    return best


class TestInequality:
    def test_violation_and_satisfaction(self):
        ineq = Inequality(coeffs={0: 1.0, 2: -2.0}, rhs=0.0, tag="base")
        assert ineq.violation([1.0, 5.0, 1.0]) == pytest.approx(1.0)
        assert ineq.violation([2.0, 5.0, 1.0]) == pytest.approx(0.0)
        assert ineq.violation([0.0, 5.0, 1.0]) == pytest.approx(2.0)

    def test_render(self):
        cut = build_mis_cut(VIEW, (1,))
        assert cut.render(VIEW.var_names) == "x[0] + y[2,0] + y[3,0] + y[4,0] >= z[0]"
        inst = demo.demo_instance()
        cut = build_mis_cut(inst.node_view(1), (3,))
        assert cut.render(inst.var_names) == "x[1] + 5 y[2,1] + 9 y[4,1] >= 11 z[1]"

    def test_pool_dedup(self):
        pool = CutPool()
        cut = build_cover_cut(VIEW, (2, 3, 4))
        assert pool.add(cut)
        assert not pool.add(build_cover_cut(VIEW, (2, 3, 4)))
        assert len(pool) == 1
        assert pool.counts == {"cover": 1}
        assert pool.for_node(0) == [cut]
        assert pool.for_node(1) == []


class TestDefiningSets:
    def test_cover_set(self):
        cover = make_cover_set(VIEW, (2, 3, 4))
        assert cover.residual == 1  # pi = 8 + (6+5+4) - 22
        assert cover.prefix == (6, 11, 15)

    def test_cover_rejections(self):
        with pytest.raises(ValueError, match="not a cover"):
            make_cover_set(VIEW, (4,))  # pi = 8 + 4 - 22 <= 0
        with pytest.raises(ValueError, match="not minimal"):
            make_cover_set(VIEW, (1, 2, 3, 4))  # pi = 8 > d_4
        with pytest.raises(ValueError, match="non-neighbors"):
            make_cover_set(VIEW, (9,))

    def test_packing_set(self):
        packing = make_packing_set(VIEW, (1, 3))
        assert packing.residual == 4  # lam
        assert packing.prefix == (7, 12)

    def test_packing_rejections(self):
        with pytest.raises(ValueError, match="not a packing"):
            make_packing_set(VIEW, (1,))  # lam = -1
        with pytest.raises(ValueError, match="not minimal"):
            make_packing_set(VIEW, (1, 2, 3))  # lam = 10 > d_3
        with pytest.raises(ValueError, match="non-neighbors"):
            make_packing_set(VIEW, (0,))

    def test_mis_set(self):
        mis = build_mis_cut(VIEW, (2,))
        assert mis.beta == 2  # p = 8 - 6
        assert mis.members == frozenset({2})
        with pytest.raises(ValueError, match="residual incentive"):
            build_mis_cut(VIEW, (1, 2))  # p = 8 - 13 <= 0
        with pytest.raises(ValueError, match="non-neighbors"):
            build_mis_cut(VIEW, (9,))


class TestLifting:
    def test_phi_values(self):
        cover = make_cover_set(VIEW, (1, 2, 4))  # pi = 3, D = (7, 13, 17)
        assert [phi(d, cover) for d in (0, 5, 8, 12, 14)] == [0, 1, 3, 5, 6]

    def test_phi_monotone_subadditive(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            view = random_node_view(rng)
            for size in range(1, view.degree + 1):
                for S in combinations(view.neighbors, size):
                    try:
                        cover = make_cover_set(view, S)
                    except ValueError:
                        continue
                    vals = [phi(d, cover) for d in range(0, 40)]
                    assert all(a <= b for a, b in zip(vals, vals[1:]))
                    assert phi(0, cover) == 0

    def test_psi_values(self):
        packing = make_packing_set(VIEW, (1, 3))  # lam = 4, D = (7, 12)
        assert psi(0, packing) == 0
        assert psi(4, packing) == 3
        assert psi(6, packing) == 3

    def test_psi_monotone_bounded(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            view = random_node_view(rng)
            for size in range(1, view.degree + 1):
                for L in combinations(view.neighbors, size):
                    try:
                        packing = make_packing_set(view, L)
                    except ValueError:
                        continue
                    vals = [psi(d, packing) for d in range(0, 40)]
                    assert all(a <= b for a, b in zip(vals, vals[1:]))
                    D, lam = packing.prefix, packing.residual
                    cap = D[-1] - len(D) * lam if D else 0
                    assert vals[-1] == cap

    def test_negative_argument_rejected(self):
        cover = make_cover_set(VIEW, (2, 3, 4))
        packing = make_packing_set(VIEW, (1, 3))
        with pytest.raises(ValueError):
            phi(-1, cover)
        with pytest.raises(ValueError):
            psi(-1, packing)


class TestConstructors:
    def test_cover_cut_example(self):
        cut = build_cover_cut(VIEW, (2, 3, 4))
        assert cut.coeffs == demo.TABLE_COVER_PACKING[0]["coeffs"]
        assert cut.rhs == 0.0 and cut.tag == "cover"
        assert cut.provenance == (0, (2, 3, 4))

    def test_packing_cut_example(self):
        cut = build_packing_cut(VIEW, (1, 2))
        assert cut.coeffs == demo.TABLE_COVER_PACKING[1]["coeffs"]

    def test_mis_cut_example(self):
        cut = build_mis_cut(VIEW, (2,))
        assert cut.coeffs == demo.TABLE_MIS[1]["coeffs"]

    def test_all_constructed_cuts_valid(self):
        rng = np.random.default_rng(31)
        point_rng = np.random.default_rng(32)
        for _ in range(60):
            view = random_node_view(rng)
            for size in range(0, view.degree + 1):
                for S in combinations(view.neighbors, size):
                    for builder in (build_cover_cut, build_packing_cut, build_mis_cut):
                        try:
                            cut = builder(view, S)
                        except ValueError:
                            continue
                        assert oracle.check_validity(cut, view), (
                            f"{cut.tag} {S} invalid on h={view.h} d={view.d}"
                        )
                        # (alpha, beta) and coeffs are one row, zeros kept
                        assert cut.view is view
                        assert [j for j, _ in cut.alpha] == list(view.neighbors)
                        expect = {view.xcol: 1}
                        expect.update((k, a) for k, (_, a) in zip(view.ycols, cut.alpha))
                        expect[view.zcol] = -cut.beta
                        assert list(cut.coeffs.items()) == list(expect.items())
                        point = random_fractional_point(point_rng, view)
                        assert cut.theta(point) == pytest.approx(-cut.violation(point))


class TestSeparation:
    def test_mis_separation_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            view = random_node_view(rng)
            point = random_fractional_point(rng, view)
            expect = brute_force_mis_violation(view, point)
            cut = separate_mis(view, point)
            if cut is None:
                assert expect is None or expect <= 1e-6 + 1e-9
            else:
                assert cut.tag == "mis" and cut.view is view
                assert abs(cut.violation(point) - expect) <= 1e-9

    def test_mis_separation_at_origin(self):
        # z=1, y=0, x=0: best violation is p over the empty subset, p = h
        point = view_point(0.0, 1.0)
        cut = separate_mis(VIEW, point)
        assert cut is not None
        assert cut.members == frozenset() and cut.tag == "mis"
        assert cut.violation(point) == pytest.approx(8.0)

    def test_mis_separation_huge_threshold(self):
        # h = 10^12: the DP runs over the at most 2^v reachable subset sums
        rng = np.random.default_rng(39)
        cuts = nonempty = 0
        for _ in range(100):
            v = int(rng.integers(2, 9))
            weights = rng.integers(1, 11, size=v) * 10**11 + rng.integers(0, 10**6, size=v)
            view = NodeView(node=0, h=10**12, d=tuple(enumerate(weights.tolist(), start=1)))
            point = random_fractional_point(rng, view)
            point[view.xcol] *= 0.1  # most points then violate some cut
            expect = brute_force_mis_violation(view, point)
            cut = separate_mis(view, point)
            if cut is None:
                assert expect <= VIOLATION_TOL + 1e-9
            else:
                cuts += 1
                nonempty += bool(cut.members)
                assert cut.violation(point) == pytest.approx(expect, rel=1e-12)
        assert cuts >= 30 and nonempty >= 10

    def test_mis_separation_stops_at_deadline(self):
        point = view_point(0.0, 1.0)
        assert separate_mis(VIEW, point) is not None
        assert separate_mis(VIEW, point, deadline=time.monotonic() - 1) is None

    def test_mis_separation_satisfied_point(self):
        assert separate_mis(VIEW, view_point(float(VIEW.h), 1.0)) is None

    def test_cover_from_mis(self):
        cover = cover_from_mis(build_mis_cut(VIEW, (4,)))
        assert cover.members == frozenset({1, 2, 3})
        assert cover.view is VIEW
        assert make_cover_set(VIEW, cover.members).residual == 4
        assert cover.coeffs == demo.TABLE_COVER_PACKING[3]["coeffs"]

    def test_cover_from_mis_shrinks(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            view = random_node_view(rng)
            for size in range(0, view.degree):
                for M in combinations(view.neighbors, size):
                    try:
                        mis = build_mis_cut(view, M)
                    except ValueError:
                        continue
                    cover = cover_from_mis(mis)
                    if cover is not None:
                        # constructor acceptance is the minimality certificate
                        make_cover_set(view, cover.members)

    def test_packing_from_cover(self):
        cover = build_cover_cut(VIEW, (2, 3, 4))
        # at z=1 with no influence bought, packing cuts are violated
        cut = packing_from_cover(cover, view_point(0.0, 1.0))
        if cut is not None:
            make_packing_set(VIEW, cut.members)
            assert cut.tag == "packing"

    def test_lemma_identity(self):
        # moving one element k across the boundary turns a subset M with
        # p > 0 into a packing with lam = d_k - p when d_k > p
        rng = np.random.default_rng(43)
        for _ in range(80):
            view = random_node_view(rng)
            for size in range(0, view.degree):
                for M in combinations(view.neighbors, size):
                    try:
                        mis = build_mis_cut(view, M)
                    except ValueError:
                        continue
                    for k in view.neighbors:
                        if k in mis.members:
                            continue
                        lam = view.weight_of(k) - mis.beta
                        if lam > 0:
                            members = set(mis.members) | {k}
                            got = sum(
                                view.weight_of(j) for j in members
                            ) - view.h
                            assert got == lam


class TestMisTable:
    def test_maxima_match_separation(self):
        # per node, the table's largest row violation is the violation of
        # the cut separate_mis finds, and a node it filters out gets no cut
        rng = np.random.default_rng(43)
        cuts = skipped = 0
        for _ in range(60):
            inst = random_instance(rng, n_min=3, n_max=10, extra_edge_prob=0.4)
            table = MisTable(inst)
            for _ in range(6):
                point = random_instance_point(rng, inst)
                keep = set(table.candidates(point))
                for node, best in zip(table.nodes.tolist(), table.maxima(point).tolist()):
                    cut = separate_mis(inst.node_view(node), point)
                    if cut is None:
                        assert best <= VIOLATION_TOL + 1e-9, (inst, node, best)
                    else:
                        cuts += 1
                        violation = cut.violation(point)
                        assert abs(violation - best) <= 1e-9, (inst, node, best, violation)
                    if node not in keep:
                        skipped += 1
                        assert cut is None, (inst, node)
        assert cuts >= 200 and skipped >= 200

    def test_rows_are_the_mis_rows(self):
        view = demo.example_view()  # h=8, d=(7,6,5,4)
        arcs = {(j, 5): w for j, w in view.d} | {(5, j): 1 for j in range(1, 5)}
        inst = make_instance(5, arcs, {1: 1, 2: 1, 3: 1, 4: 1, 5: view.h}, b=1)
        table = MisTable(inst)
        rows = table.zcol == inst.zcol(5)
        # the subsets of weight sum below h = 8: {}, and each single neighbour
        assert sorted(table.p[rows].tolist()) == [1.0, 2.0, 3.0, 4.0, 8.0]

    def test_high_degree_node_always_separated(self):
        # a star whose centre has 10 > MIS_TABLE_DEGREE neighbours: the
        # centre has no rows and is a candidate even where nothing is violated
        leaves = range(2, 12)
        arcs = {(1, j): 3 for j in leaves} | {(j, 1): 2 for j in leaves}
        inst = make_instance(11, arcs, {1: 15} | dict.fromkeys(leaves, 3), b=11)
        assert MIS_TABLE_DEGREE < 10
        table = MisTable(inst)
        assert table.untabled == [1] and 1 not in table.nodes.tolist()
        assert table.candidates([0.0] * inst.ncols) == [1]
        point = [1.0] * inst.ncols
        for i in leaves:
            point[inst.xcol(i)] = 3.0
        point[inst.xcol(1)] = 15.0
        assert table.candidates(point) == [1]
        assert separate_mis(inst.node_view(1), point) is None
