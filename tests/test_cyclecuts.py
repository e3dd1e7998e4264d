"""GCEC and (U,C) cycle cuts: construction, separation, dominance."""

import heapq
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcim import bnc, cyclecuts, demo, oracle
from lcim.cyclecuts import (
    Cycle,
    build_gcec,
    build_uc_cut,
    cycle_cut_allowed,
    find_violated_cycle_integer,
    find_violated_cycles_fractional,
    separate_gcec,
    separate_uc,
    uc_dag_values,
    uc_violation,
)
from lcim.instance import generate_small_world, make_instance
from lcim.knapcuts import (
    VIOLATION_TOL,
    CutPool,
    build_cover_cut,
    build_packing_cut,
    propagation_row,
)

from conftest import random_instance

DEMO = demo.demo_instance()


def random_cycle_point(rng, cycle, instance):
    """Random fractional point over the cycle nodes and their in-arcs, 0 on
    every other column."""
    point = [0.0] * instance.ncols
    for i in cycle.nodes:
        view = instance.node_view(i)
        z = float(rng.uniform(0.05, 1.0))
        point[view.zcol] = z
        point[view.xcol] = float(rng.uniform(0.0, view.h * z))
        for k in view.ycols:
            point[k] = float(rng.uniform(0.0, z))
    return point


def columns(instance, cycle_point):
    """The list point of an instance from a dict whose optional "x", "y" and
    "z" entries map nodes (arcs for "y") to values; 0 on every other column."""
    point = [0.0] * instance.ncols
    for i, v in cycle_point.get("x", {}).items():
        point[instance.xcol(i)] = v
    for arc, v in cycle_point.get("y", {}).items():
        point[instance.ycol[arc]] = v
    for i, v in cycle_point.get("z", {}).items():
        point[instance.zcol(i)] = v
    return point


def per_arc_cycles(instance, point):
    """Reference for `find_violated_cycles_fractional`: one Dijkstra search
    per arc (i, j), from j until it pops i."""
    arcs = {}
    adj = {}
    for (i, j), k in instance.ycol.items():
        w = max(point[instance.zcol(j)] - point[k], 0.0)
        arcs[(i, j)] = w
        adj.setdefault(i, []).append((j, w))

    found = {}
    for (i, j), w0 in arcs.items():
        if w0 >= 1.0 - VIOLATION_TOL:
            continue
        dist = {j: 0.0}
        prev = {}
        heap = [(0.0, j)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            if u == i:
                break
            for v, w in adj.get(u, ()):
                nd = d + w
                if nd < dist.get(v, math.inf) - 1e-15:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        if i not in dist or w0 + dist[i] >= 1.0 - VIOLATION_TOL:
            continue
        path = [i]
        while path[-1] != j:
            path.append(prev[path[-1]])
        path.reverse()
        if len(path) < 3:
            continue
        cyc_arcs = [(i, j)] + [(path[t], path[t + 1]) for t in range(len(path) - 1)]
        cycle = Cycle(arcs=tuple(cyc_arcs)).canonical()
        found.setdefault(cycle.arcs, cycle)
        if len(found) >= cyclecuts.CYCLE_CAP:
            break
    return list(found.values())


class TestCycle:
    def test_chain_validation(self):
        with pytest.raises(ValueError, match="chain"):
            Cycle(arcs=((1, 2), (3, 1)))
        with pytest.raises(ValueError, match="at least two"):
            Cycle(arcs=((1, 2),))
        with pytest.raises(ValueError, match="repeated"):
            Cycle(arcs=((1, 2), (2, 1), (1, 2), (2, 1)))

    def test_nodes_pred_canonical(self):
        c = Cycle(arcs=((3, 1), (1, 2), (2, 3)))
        assert c.nodes == (3, 1, 2)
        assert c.canonical().arcs == ((1, 2), (2, 3), (3, 1))
        assert len(c) == 3

    def test_cut_allowed_guard(self):
        inst = demo.demo_instance()  # n=5, b=3
        assert cycle_cut_allowed(inst, demo.demo_cycle())  # 3 > 5 - 3
        assert not cycle_cut_allowed(inst.with_b(2), demo.demo_cycle())


class TestGcec:
    def test_triangle(self):
        cut = build_gcec(DEMO, demo.demo_cycle(), 1)
        y, z = DEMO.ycol, DEMO.zcol
        assert cut.coeffs == {
            y[1, 2]: -1, y[2, 3]: -1, y[3, 1]: -1, z(2): 1, z(3): 1,
        }
        assert cut.rhs == 0.0

    def test_unknown_exempt_node(self):
        with pytest.raises(ValueError, match="not on the cycle"):
            build_gcec(DEMO, demo.demo_cycle(), 9)

    def test_all_on_point_violates(self):
        cut = build_gcec(DEMO, demo.demo_cycle(), 1)
        point = columns(DEMO, {
            "y": dict.fromkeys(((1, 2), (2, 3), (3, 1)), 1),
            "z": dict.fromkeys((1, 2, 3), 1),
        })
        assert cut.violation(point) == pytest.approx(1.0)

    def test_valid_on_demo(self):
        for k in demo.demo_cycle().nodes:
            assert oracle.check_validity_instance([build_gcec(DEMO, demo.demo_cycle(), k)], DEMO)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_separate_gcec_is_most_violated(self, seed):
        # against every exempt node: the most violated GCEC, else None; z
        # takes four values, so the largest z often ties
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_min=3, n_max=8, extra_edge_prob=0.5)
        point = [0.0] * inst.ncols
        for i in range(1, inst.n + 1):
            point[inst.zcol(i)] = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        for (i, j), k in inst.ycol.items():
            point[k] = float(rng.uniform(0.0, point[inst.zcol(j)]))
        for cycle in find_violated_cycles_fractional(inst, point):
            best = max(build_gcec(inst, cycle, k).violation(point) for k in cycle.nodes)
            gcec = separate_gcec(inst, cycle, point)
            if gcec is None:
                assert best <= VIOLATION_TOL
            else:
                assert gcec.tag == "gcec" and gcec.provenance[0] == cycle.arcs
                assert abs(gcec.violation(point) - best) <= 1e-12
                assert best > VIOLATION_TOL


def search_point(instance, z, y):
    """A point over every z and y variable of the instance: z[i] for each
    node, y[(i, j)] for the listed arcs and 0 on every other column."""
    return columns(instance, {"z": z, "y": y})


class TestCycleSearch:
    # triangle 1-2-3 plus the pendant edge 1-4
    INST = make_instance(
        4,
        {(1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1, (3, 1): 1, (1, 3): 1,
         (1, 4): 1, (4, 1): 1},
        {1: 1, 2: 1, 3: 1, 4: 1},
        b=4,
    )

    def test_integer_support(self):
        point = search_point(
            self.INST, dict.fromkeys((1, 2, 3, 4), 1.0),
            {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0, (4, 1): 1.0},
        )
        cycle = find_violated_cycle_integer(self.INST, point)
        assert cycle is not None
        assert cycle.arcs == ((1, 2), (2, 3), (3, 1))

    def test_integer_acyclic(self):
        point = search_point(
            self.INST, dict.fromkeys((1, 2, 3, 4), 1.0),
            {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 1.0},
        )
        assert find_violated_cycle_integer(self.INST, point) is None

    def test_fractional_search_finds_cheap_cycle(self):
        point = search_point(
            self.INST, dict.fromkeys((1, 2, 3, 4), 0.6),
            {(1, 2): 0.5, (2, 3): 0.5, (3, 1): 0.5},
        )
        cycles = find_violated_cycles_fractional(self.INST, point)
        assert len(cycles) == 1
        # total weight 3 * (0.6 - 0.5) = 0.3 < 1
        assert cycles[0].arcs == ((1, 2), (2, 3), (3, 1))

    def test_fractional_search_skips_satisfied(self):
        point = search_point(
            self.INST, dict.fromkeys((1, 2, 3, 4), 1.0),
            {(1, 2): 0.5, (2, 3): 0.5, (3, 1): 0.5},
        )
        assert find_violated_cycles_fractional(self.INST, point) == []

    def test_two_cycles_skipped(self):
        point = search_point(
            self.INST, {1: 0.1, 2: 0.1, 3: 1.0, 4: 1.0},
            {(1, 2): 0.9, (2, 1): 0.9},
        )
        assert find_violated_cycles_fractional(self.INST, point) == []


    def test_matches_per_arc_search(self):
        # same cycles in the same order as one search per arc, on points
        # with values on a coarse grid, so that equal distances are common
        rng = np.random.default_rng(59)
        points = found = 0
        for n in (8, 12, 20, 50):
            for seed in range(8):
                q, a = (0.1, 0.3)[seed % 2], 0.5
                inst = generate_small_world(n, 4, q, a, seed=seed)
                for _ in range(18):
                    point = [0.0] * inst.ncols
                    for i in range(1, inst.n + 1):
                        point[inst.zcol(i)] = float(rng.integers(1, 21)) / 20
                    for (i, j), k in inst.ycol.items():
                        z = point[inst.zcol(j)]
                        point[k] = z * float(rng.integers(10, 21)) / 20
                    cycles = find_violated_cycles_fractional(inst, point)
                    assert cycles == per_arc_cycles(inst, point), (n, seed)
                    points += 1
                    found += bool(cycles)
        assert points >= 500 and found >= 400

    def test_matches_per_arc_search_in_desk_solves(self, monkeypatch):
        # every point the desk-cb solves, at instance seeds 42 and 7,
        # separate cycles at
        seen = []

        def checked(instance, point):
            cycles = find_violated_cycles_fractional(instance, point)
            assert cycles == per_arc_cycles(instance, point)
            seen.append(len(cycles))
            return cycles

        monkeypatch.setattr(cyclecuts, "find_violated_cycles_fractional", checked)
        for seed in (42, 7):
            for q, a in ((0.1, 0.1), (0.1, 0.25), (0.3, 0.1)):
                inst = generate_small_world(50, 4, q, a, seed=seed)
                report = bnc.solve(inst, "cb", bnc.SolveParams(time_limit=600))
                assert report.status == "optimal"
        assert len(seen) >= 100 and sum(seen) > 0


class TestBaseIneq:
    def test_from_row(self):
        view = demo.demo_instance().node_view(3)
        base = propagation_row(view)
        assert base.beta == view.h
        assert base.alpha == view.d
        assert base.view is view
        assert base.coeffs == {
            view.xcol: 1, **dict(zip(view.ycols, view.weights)), view.zcol: -view.h
        }
        assert base.omega(set(view.neighbors) | {3}) == 0

    def test_from_inequality(self):
        # a pooled cut is its own base: (alpha, beta) read off its coeffs
        inst = demo.demo_instance()
        cut = demo.demo_base_cuts(inst)[1]
        view = inst.node_view(1)
        assert cut.view is view
        assert cut.alpha == tuple(
            (j, cut.coeffs[k]) for j, k in zip(view.neighbors, view.ycols)
        )
        assert cut.beta == -cut.coeffs[view.zcol]

    def test_demo_omegas(self):
        inst = demo.demo_instance()
        base_map = demo.demo_base_cuts(inst)
        nodes = set(demo.demo_cycle().nodes)
        omegas = {i: base_map[i].omega(nodes) for i in (1, 2, 3)}
        assert omegas == {1: 3, 2: 2, 3: 2}

    def test_theta_is_slack(self):
        inst = demo.demo_instance()
        point = demo.demo_lp_point()
        for cut in demo.demo_base_cuts(inst).values():
            assert cut.theta(point) == pytest.approx(-cut.violation(point))


def node_cuts(view):
    """The node's propagation row and every cover and packing cut built on a
    minimal set of its neighbors."""
    cuts = [propagation_row(view)]
    for size in range(1, view.degree + 1):
        for S in combinations(view.neighbors, size):
            for build in (build_cover_cut, build_packing_cut):
                try:
                    cuts.append(build(view, S))
                except ValueError:
                    pass  # S is not a minimal cover/packing of this node
    return cuts


class TestUcCut:
    def test_omega_guard(self):
        # node 3's propagation row has omega 0 on the triangle
        cycle = demo.demo_cycle()
        base_map = {3: propagation_row(DEMO.node_view(3))}
        with pytest.raises(ValueError, match="omega"):
            build_uc_cut(DEMO, cycle, (3,), base_map)
        with pytest.raises(ValueError, match="omega"):
            uc_violation(DEMO, cycle, base_map, (3,), demo.demo_lp_point())

    def test_empty_u_cut(self):
        cut = build_uc_cut(DEMO, demo.demo_cycle(), (), {})
        # sum over cycle arcs of (z_l - y_kl) >= 1
        y, z = DEMO.ycol, DEMO.zcol
        assert cut.rhs == 1.0
        assert cut.coeffs == {
            z(2): 1, z(3): 1, z(1): 1, y[1, 2]: -1, y[2, 3]: -1, y[3, 1]: -1,
        }

    def test_demo_u13_cut(self):
        inst = demo.demo_instance()
        cut = build_uc_cut(inst, demo.demo_cycle(), (3, 1), demo.demo_base_cuts(inst))
        # omegas 3 and 2 give delta 6: gamma_1 = 2 scales node 1's packing
        # cut, gamma_3 = 3 node 3's; the remaining cycle arc (1,2)
        # contributes 6(z_2 - y_12)
        assert cut.provenance == (
            demo.demo_cycle().arcs,
            ((1, ("packing", (1, (2, 3, 4)))), (3, ("packing", (3, (1, 2))))),
        )
        assert cut.coeffs[inst.xcol(1)] == 2 and cut.coeffs[inst.xcol(3)] == 3
        assert cut.coeffs[inst.zcol(2)] == 6 and cut.coeffs[inst.ycol[1, 2]] == -6
        assert cut.rhs == 6.0
        assert oracle.check_validity_instance([cut], inst)

    def test_cuts_from_other_bases_both_pooled(self):
        # same cycle and U = {1}, node 1's base a cover or a packing cut
        weights = {(1, 2): 3, (2, 1): 5, (2, 3): 3, (3, 2): 3, (3, 1): 6, (1, 3): 4,
                   (4, 1): 1, (1, 4): 2, (5, 1): 1, (1, 5): 3}
        inst = make_instance(5, weights, {1: 10, 2: 4, 3: 4, 4: 1, 5: 1}, b=5)
        cycle = Cycle(((1, 2), (2, 3), (3, 1)))
        view = inst.node_view(1)
        bases = (build_cover_cut(view, (2,)), build_packing_cut(view, (2, 3)))
        cuts = [build_uc_cut(inst, cycle, (1,), {1: base}) for base in bases]
        assert cuts[0].coeffs != cuts[1].coeffs
        pool = CutPool()
        assert all(pool.add(cut) for cut in cuts)
        assert pool.counts == {"uc": 2}

    def test_uc_violation_matches_cut(self):
        rng = np.random.default_rng(47)
        inst = demo.demo_instance()
        base_map = demo.demo_base_cuts(inst)
        for _ in range(50):
            point = random_cycle_point(rng, demo.demo_cycle(), inst)
            for U in ((), (1,), (2,), (1, 3), (1, 2, 3)):
                cut = build_uc_cut(inst, demo.demo_cycle(), U, base_map)
                direct = uc_violation(inst, demo.demo_cycle(), base_map, U, point)
                assert cut.violation(point) == pytest.approx(direct, abs=1e-9)
        # random instances, cycles found at random points, base cuts drawn
        # from each node's propagation row, covers and packings
        checked = 0
        for _ in range(40):
            inst = random_instance(rng, n_min=4, n_max=6, extra_edge_prob=0.5)
            cuts = {i: node_cuts(inst.node_view(i)) for i in range(1, inst.n + 1)}
            for _ in range(3):
                point = [0.0] * inst.ncols
                for i in range(1, inst.n + 1):
                    view = inst.node_view(i)
                    z = float(rng.uniform(0.05, 1.0))
                    point[view.zcol] = z
                    point[view.xcol] = float(rng.uniform(0.0, view.h * z))
                    for k in view.ycols:
                        point[k] = float(rng.uniform(0.5 * z, z))
                for cycle in find_violated_cycles_fractional(inst, point):
                    nodes = set(cycle.nodes)
                    base_map = {
                        i: cuts[i][rng.integers(len(cuts[i]))] for i in cycle.nodes
                    }
                    eligible = [i for i in cycle.nodes if base_map[i].omega(nodes) >= 1]
                    for size in range(len(eligible) + 1):
                        for U in combinations(eligible, size):
                            cut = build_uc_cut(inst, cycle, U, base_map)
                            direct = uc_violation(inst, cycle, base_map, U, point)
                            assert cut.violation(point) == pytest.approx(
                                direct, rel=1e-9, abs=1e-9
                            ), (inst, cycle, U)
                            checked += bool(U)
        assert checked >= 500


class TestSeparation:
    def test_demo_point(self):
        inst = demo.demo_instance()
        point = demo.demo_lp_point()
        base_map = demo.demo_base_cuts(inst)
        cut = separate_uc(inst, demo.demo_cycle(), base_map, point)
        assert cut == build_uc_cut(inst, demo.demo_cycle(), demo.DEMO_UC_U, base_map)
        assert tuple(i for i, _ in cut.provenance[1]) == demo.DEMO_UC_U
        assert cut.violation(point) == pytest.approx(demo.DEMO_UC_VIOLATION, abs=1e-9)

    def test_satisfied_point_returns_none(self):
        inst = demo.demo_instance()
        point = columns(inst, {
            "x": {i: float(inst.threshold(i)) for i in range(1, 6)},
            "z": dict.fromkeys(range(1, 6), 1.0),
        })
        res = separate_uc(inst, demo.demo_cycle(), demo.demo_base_cuts(inst), point)
        assert res is None

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(53)
        inst = demo.demo_instance()
        base_map = demo.demo_base_cuts(inst)
        for _ in range(100):
            point = random_cycle_point(rng, demo.demo_cycle(), inst)
            best_U, best_viol = oracle.enumerate_uc_subsets(
                inst, demo.demo_cycle(), base_map, point
            )
            cut = separate_uc(inst, demo.demo_cycle(), base_map, point)
            got = cut.violation(point) if cut is not None else 0.0
            assert got == pytest.approx(max(best_viol, 0.0), abs=1e-9) or (
                cut is None and best_viol <= 1e-6
            )

    def test_dag_values(self):
        inst = demo.demo_instance()
        point = demo.demo_lp_point()
        f_direct, exits = uc_dag_values(
            inst, demo.demo_cycle(), demo.demo_base_cuts(inst), point
        )
        got = (f_direct, *exits)
        assert got == pytest.approx(demo.DEMO_DAG_VALUES, abs=1e-9)


class TestDominance:
    def test_empty_u_dominates_gcec(self):
        rng = np.random.default_rng(59)
        cycle = demo.demo_cycle()
        y, z = DEMO.ycol, DEMO.zcol
        for _ in range(300):
            point = columns(DEMO, {"z": {i: float(rng.uniform(0, 1)) for i in (1, 2, 3)}})
            for k, l in cycle.arcs:
                point[y[k, l]] = float(rng.uniform(0, point[z(l)]))
            # explicit form: GCEC violation never exceeds the U={} violation
            W = sum(point[z(l)] - point[y[k, l]] for k, l in cycle.arcs)
            for k in cycle.nodes:
                gcec = build_gcec(DEMO, cycle, k)
                assert gcec.violation(point) <= (1.0 - W) + 1e-9
