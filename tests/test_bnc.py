"""Branch-and-cut engine: formulations, root cuts, search, reports."""

import graphlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcim import bnc, cyclecuts, demo, oracle
from lcim.bnc import (
    CUT_FAMILIES,
    TSV_HEADER,
    SolveParams,
    _fractional,
    assemble,
    branch,
    gap_percent,
    greedy_incumbent,
    root_cut_loop,
    solve,
)
from lcim.instance import generate_small_world, make_instance
from lcim.knapcuts import CutPool, MisTable, propagation_row
from lcim.lp import LPSolution, solve_lp

from conftest import random_instance, reference_greedy


def _invalid_cuts(cuts, inst):
    """Tag and provenance of each cut some feasible point violates; only
    built for a failure message, as it enumerates the points per cut."""
    return [
        (cut.tag, cut.provenance)
        for cut in cuts
        if not oracle.check_validity_instance([cut], inst)
    ]


def count_solve_lp(monkeypatch):
    """Route bnc's solve_lp calls through a recorder; returns the list of
    models solved, one entry per call."""
    calls = []

    def counting_solve_lp(model, **kwargs):
        calls.append(model)
        return solve_lp(model, **kwargs)

    monkeypatch.setattr(bnc, "solve_lp", counting_solve_lp)
    return calls


class TestAssemble:
    def test_demo_lp_value(self):
        sol = solve_lp(assemble(demo.demo_instance(), "def"))
        assert sol.objective == pytest.approx(demo.DEMO_LP_OBJ, abs=1e-6)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            assemble(demo.demo_instance(), "xyz")

    def test_ln_requires_full_coverage(self):
        with pytest.raises(ValueError, match="b = n"):
            assemble(demo.demo_instance(), "ln")

    def test_ln_structure(self):
        inst = demo.demo_instance().with_b(5)
        model = assemble(inst, "ln")
        bounds = list(zip(model.lower, model.upper))
        assert bounds[inst.ncols] == (1.0, 5.0)  # l[1]
        assert bounds[inst.zcol(1)] == (1.0, 1.0)

    def test_columns_follow_instance_layout(self):
        # every column has the bounds and objective of the variable the
        # instance's layout puts there, and node i's row is its propagation row
        rng = np.random.default_rng(131)
        for inst in (demo.demo_instance(), random_instance(rng, n_min=5, n_max=8)):
            inst = inst.with_b(inst.n)
            n = inst.n
            for mode in ("def", "cb", "ln"):
                zlb = 1.0 if mode == "ln" else 0.0
                expect = {}
                for i in range(1, n + 1):
                    expect[inst.xcol(i)] = (0.0, inst.threshold(i), 1.0)
                    expect[inst.zcol(i)] = (zlb, 1.0, 0.0)
                    if mode == "ln":
                        expect[inst.ncols + i - 1] = (1.0, n, 0.0)  # l_i
                for k in inst.ycol.values():
                    expect[k] = (0.0, 1.0, 0.0)
                model = assemble(inst, mode)
                assert sorted(expect) == list(range(len(model.obj))), mode
                columns = list(zip(model.lower, model.upper, model.obj))
                assert columns == [expect[k] for k in sorted(expect)], mode
                for i in range(1, n + 1):
                    row = propagation_row(inst.node_view(i)).coeffs
                    assert model.rows[i - 1] == (row, ">=", 0.0), (mode, i)

    def test_ln_relaxation_not_weaker_than_def(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            inst = random_instance(rng)
            inst = inst.with_b(inst.n)
            d = solve_lp(assemble(inst, "def")).objective
            ln = solve_lp(assemble(inst, "ln")).objective
            assert ln >= d - 1e-6


class TestGreedy:
    def test_demo(self):
        # single-start greedy pays 15 from node 4; the start at node 2 is optimal
        inst = demo.demo_instance()
        assert reference_greedy(inst) == (15, (4, 5, 2))
        assert greedy_incumbent(inst) == (demo.DEMO_OPTIMUM, (2, 5, 3))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_feasible_upper_bound(self, seed):
        # the batch is the first cheapest of the plain-Python greedies
        # started at each node, and lies between the optimum and the
        # single-start greedy
        inst = random_instance(np.random.default_rng(seed), n_max=8)
        cost, order = greedy_incumbent(inst)
        assert len(order) == len(set(order)) == inst.b
        assert cost == oracle.activation_cost(inst, order)
        assert oracle.brute_force_optimum(inst)[0] <= cost <= reference_greedy(inst)[0]
        starts = [reference_greedy(inst, s) for s in range(1, inst.n + 1)]
        assert (cost, order) == min(starts, key=lambda start: start[0])

    def test_desk_point_at_optimum(self):
        inst = generate_small_world(50, 4, 0.1, 0.1, seed=42)
        assert reference_greedy(inst)[0] == 24
        assert greedy_incumbent(inst)[0] == 19  # the optimum

    def test_large_thresholds_cost_exactly(self):
        # ten thresholds near 10^15 sum past 2^53, where a float loses units
        n = 10
        arcs = {}
        for i in range(1, n):
            arcs[(i, i + 1)] = 10**14 + 3 * i
            arcs[(i + 1, i)] = 7 * i
        inst = make_instance(n, arcs, {i: 10**15 - 2 * i - 1 for i in range(1, n + 1)}, b=n)
        cost, order = greedy_incumbent(inst)
        assert type(cost) is int and cost > 2**53
        starts = [reference_greedy(inst, s) for s in range(1, n + 1)]
        assert (cost, order) == min(starts, key=lambda start: start[0])

    def test_isolated_node(self):
        inst = make_instance(1, {}, {1: 4}, b=1)
        assert greedy_incumbent(inst) == (4, (1,))


class TestBranch:
    @staticmethod
    def unprobed(inst, point):
        """branch on a hand-made point with the deadline already past, so
        no probe runs and the first ranked candidate is taken."""
        sol = LPSolution("optimal", point, 0.0)
        candidates = _fractional(inst, point)
        return branch(assemble(inst, "def"), sol, candidates, {}, math.inf, {}, time.monotonic() - 1.0)

    def test_fractional_z(self):
        # both probed children of the demo root, with their probe bounds;
        # a child whose bound reaches ub is dropped (and the probes that ub
        # cuts off add their fixings, checked in TestProbeUse)
        inst = demo.demo_instance()
        model = assemble(inst, "def")
        sol = solve_lp(model)
        pseudocosts = {}
        candidates = _fractional(inst, sol.values)
        children = branch(model, sol, candidates, {}, math.inf, pseudocosts)
        assert len(children) == 2
        (col, lo), = children[0].fixings.items()
        assert inst.n <= col < inst.ncols  # a y or z column
        assert lo == (0.0, 0.0)
        assert children[1].fixings == {col: (1.0, 1.0)}
        for child in children:
            probe = solve_lp(assemble(inst, "def"), bound_overrides=child.fixings)
            assert child.bound == pytest.approx(max(probe.objective, sol.objective), abs=1e-9)
            assert child.basis is sol.basis
        assert {(col, 0), (col, 1)} <= set(pseudocosts)
        ub = math.ceil(max(c.bound for c in children) - 1e-6)
        kept = branch(model, sol, candidates, {}, ub, {})
        assert len(kept) == 1
        assert [c.fixings[col] for c in kept] == [
            c.fixings[col] for c in children if c.bound < ub - 1e-6
        ]

    def test_z_beats_y_on_ties(self):
        inst = demo.demo_instance()
        point = [0.0] * inst.ncols
        point[inst.ycol[1, 2]] = 0.5
        point[inst.zcol(4)] = 0.5
        left, right = self.unprobed(inst, point)
        assert left.fixings == {inst.zcol(4): (0.0, 0.0)}
        assert right.fixings == {inst.zcol(4): (1.0, 1.0)}
        point[inst.zcol(2)] = 0.5  # equally fractional: the lower column first
        assert list(self.unprobed(inst, point)[0].fixings) == [inst.zcol(2)]

    def test_integral_point_has_no_candidates(self):
        inst = demo.demo_instance()
        point = [0.0] * inst.ncols
        point[inst.zcol(2)] = 1.0
        point[inst.xcol(3)] = 0.5  # x is continuous
        assert _fractional(inst, point) == []

    def test_infeasible_probe_child_dropped(self):
        # a row x_k >= x*_k on the first candidate k leaves the node's answer
        # optimal and makes the child x_k = 0 infeasible
        inst = demo.demo_instance()
        model = assemble(inst, "def")
        sol = solve_lp(model)
        candidates = _fractional(inst, sol.values)
        first = branch(model, sol, candidates, {}, math.inf, {}, time.monotonic() - 1.0)
        (k,) = first[0].fixings
        model.add_constraint({k: 1.0}, ">=", sol.values[k])
        children = branch(model, sol, candidates, {}, math.inf, {})
        assert [c.fixings for c in children] == [{k: (1.0, 1.0)}]


class TestProbeUse:
    # The demo def root (LP bound 8.52) ranks column 16 first and column 15
    # second; their probes give bounds 14 and 11 (16 down, up) and 11 and
    # 13.25 (15 down, up).  Reliable pseudocosts on column 16 make it the
    # choice, so the other probed columns are not chosen.
    RELIABLE_16 = {(16, 0): [100.0, 1], (16, 1): [100.0, 1]}

    @staticmethod
    def demo_root():
        inst = demo.demo_instance()
        model = assemble(inst, "def")
        sol = solve_lp(model)
        return model, sol, _fractional(inst, sol.values)

    def test_probed_children_reuse_their_probe_lp(self, monkeypatch):
        # no row is added before the root's probed children are popped, so
        # each reaches HiGHS once, as a probe; two tree paths may still
        # reach the same fixings, so later LPs are not checked
        overrides = []

        def recording_solve_lp(model, **kwargs):
            overrides.append(kwargs.get("bound_overrides"))
            return solve_lp(model, **kwargs)

        monkeypatch.setattr(bnc, "solve_lp", recording_solve_lp)
        report = solve(demo.demo_instance(), "def", SolveParams(time_limit=60))
        assert report.ub == demo.DEMO_OPTIMUM
        assert overrides[1:3] == [{16: (0.0, 0.0)}, {16: (1.0, 1.0)}]  # the root's first probes
        assert overrides.count({16: (0.0, 0.0)}) == overrides.count({16: (1.0, 1.0)}) == 1
        assert report.lp_solves == len(overrides)

    def test_cut_off_probe_leaves_its_other_side_alone(self):
        # at ub = 14 the probe 15 up (bound 13.25) is cut off, so column 15
        # ends the choice though the reliable column 16 ranks first: the
        # 15 down child comes back alone, its probe answer the node's LP
        # with column 15 fixed to 0
        model, sol, candidates = self.demo_root()
        (child,) = branch(model, sol, candidates, {}, 14, {**self.RELIABLE_16})
        assert child.fixings == {15: (0.0, 0.0)}
        assert child.origin[:2] == (15, 0)
        assert child.probe.objective == pytest.approx(11.0) == child.bound

    def test_first_lost_side_ends_the_choice(self, monkeypatch):
        # at ub = 14 the probe 16 down (bound 14) is cut off: the 16 up child
        # comes back alone after two probes, whatever candidates follow 16
        model, sol, candidates = self.demo_root()
        calls = count_solve_lp(monkeypatch)
        for ranked in (candidates[:1], candidates):
            calls.clear()
            (child,) = branch(model, sol, ranked, {}, 14, {})
            assert len(calls) == 2
            assert child.fixings == {16: (1.0, 1.0)}
            assert child.probe.objective == pytest.approx(11.0) and child.origin[:2] == (16, 1)

    def test_column_cut_off_both_ways_leaves_no_child(self):
        # at ub = 11 both probes of column 15 (bounds 11 and 13.25) are cut off
        model, sol, candidates = self.demo_root()
        assert branch(model, sol, candidates, {}, 11, {**self.RELIABLE_16}) == []
        assert branch(model, sol, candidates, {}, 12, {**self.RELIABLE_16}) != []

    def test_unprobed_child_feeds_pseudocosts(self, monkeypatch):
        # with every probe skipped, the tree's pseudocosts come from node
        # solves alone: the root's child 16 = 1 (bound 11, distance 0.4)
        # gives the unit gain (11 - 8.52) / 0.4
        seen = []

        def unprobed_branch(model, sol, candidates, overrides, ub, pseudocosts, deadline):
            seen.append(pseudocosts)
            return branch(model, sol, candidates, overrides, ub, pseudocosts, time.monotonic() - 1)

        monkeypatch.setattr(bnc, "branch", unprobed_branch)
        report = solve(demo.demo_instance(), "def", SolveParams(time_limit=60))
        assert report.ub == demo.DEMO_OPTIMUM
        total, count = seen[0][16, 1]
        assert count >= 1
        assert total / count == pytest.approx((11.0 - demo.DEMO_LP_OBJ) / 0.4)

    def test_each_lp_answer_feeds_pseudocosts_once(self, monkeypatch):
        # a child whose LP is its probe's answer adds nothing in solve:
        # branch already learned from that answer
        learn, answers = bnc._learn, []

        def recording_learn(pseudocosts, origin, answer):
            answers.append(answer)  # kept alive, so no id is reused
            return learn(pseudocosts, origin, answer)

        monkeypatch.setattr(bnc, "_learn", recording_learn)
        rng = np.random.default_rng(151)
        cases = [(demo.demo_instance(), "def")]
        cases += [(random_instance(rng, n_min=6, n_max=8), mode) for mode in ("def", "cb")]
        for inst, mode in cases:
            solve(inst, mode, SolveParams(time_limit=60))
        assert len(answers) >= 10
        assert len({id(answer) for answer in answers}) == len(answers)

    @staticmethod
    def record_tree(monkeypatch):
        """Route bnc's solve_lp and branch calls through a recorder; returns
        the list of events: ("lp", fixings, rows) per LP, ("branch", fixings,
        sol) when a branching starts and ("children", ub, children) when it
        ends."""
        events = []

        def recording_solve_lp(model, **kwargs):
            events.append(("lp", kwargs.get("bound_overrides"), len(model.rows)))
            return solve_lp(model, **kwargs)

        def recording_branch(model, sol, candidates, overrides, ub, *rest):
            events.append(("branch", overrides, sol))
            children = branch(model, sol, candidates, overrides, ub, *rest)
            events.append(("children", ub, children))
            return children

        monkeypatch.setattr(bnc, "solve_lp", recording_solve_lp)
        monkeypatch.setattr(bnc, "branch", recording_branch)
        return events

    def test_one_sided_branching_tightens_the_node_in_place(self, monkeypatch):
        # a branching that leaves one child is the node itself, tightened:
        # the tightened LP is the child's probe answer, solved only as the probe,
        # and a fractional one is branched on next, before any other LP;
        # every point cheaper than ub meets the tightened fixings.  From the
        # single-start incumbent 15, the demo cb tree tightens node 1 twice
        # and ends there at the optimum (2 nodes when the child was pushed)
        monkeypatch.setattr(bnc, "greedy_incumbent", reference_greedy)
        events = self.record_tree(monkeypatch)
        inst = demo.demo_instance()
        report = solve(inst, "cb", SolveParams(time_limit=60))
        assert (report.ub, report.nodes) == (demo.DEMO_OPTIMUM, 1)
        points = list(oracle.enumerate_feasible_points(inst))
        tightened = 0
        for at, (kind, ub, children) in enumerate(events):
            if kind != "children" or len(children) != 1:
                continue
            (child,) = children
            tightened += 1
            assert events.count(("lp", child.fixings, child.probe.basis.rows)) == 1  # the probe
            if _fractional(inst, child.probe.values):
                assert events[at + 1][:2] == ("branch", child.fixings)
                assert events[at + 1][2] is child.probe
            for p in points:
                if sum(p[: inst.n]) < ub:
                    assert all(p[k] == lo for k, (lo, _) in child.fixings.items())
        assert tightened == 2

    def test_probe_fixings_keep_every_cheaper_point(self, monkeypatch):
        # no feasible point that meets a node's fixings and costs less than
        # ub lies on a side its probes cut off: a branching that leaves one
        # child, or none, loses nothing
        events = self.record_tree(monkeypatch)
        rng = np.random.default_rng(149)
        checked = 0
        for _ in range(30):
            inst = random_instance(rng, n_min=4, n_max=6, extra_edge_prob=0.5)
            if inst.m > 20:
                continue  # enumerating its feasible points takes seconds
            points = list(oracle.enumerate_feasible_points(inst))
            for mode in ("def", "cb"):
                events.clear()
                report = solve(inst, mode, SolveParams(time_limit=60))
                assert report.ub == oracle.brute_force_optimum(inst)[0]
                starts = [e for e in events if e[0] == "branch"]
                ends = [e for e in events if e[0] == "children"]
                for (_, overrides, _), (_, ub, children) in zip(starts, ends):
                    if len(children) > 1:
                        continue
                    at_node = [
                        p for p in points
                        if sum(p[: inst.n]) < ub
                        and all(p[k] == lo for k, (lo, _) in overrides.items())
                    ]
                    checked += 1
                    if not children:
                        assert at_node == [], (mode, inst)
                        continue
                    k, v = children[0].origin[:2]
                    assert all(p[k] == v for p in at_node), (mode, inst, k, v)
        assert checked >= 50


class TestRootCuts:
    def test_demo_bound_improves(self):
        inst = demo.demo_instance()
        model = assemble(inst, "cb")
        pool = CutPool()
        bound = root_cut_loop(model, inst, SolveParams(time_limit=60), pool, MisTable(inst))
        assert bound >= demo.DEMO_POSTCUT_OBJ - 1e-6
        assert len(pool) > 0

    def test_tree_node_1_spends_no_round(self, monkeypatch):
        # the root runs rounds until one adds no cut, at most max_rounds of
        # them, and tree node 1 branches without a round of its own
        separation_round = bnc._separation_round
        rounds, before_branch = [], []

        def counting_round(*args):
            rounds.append(separation_round(*args))
            return rounds[-1]

        def recording_branch(*args):
            before_branch.append(list(rounds))
            return branch(*args)

        monkeypatch.setattr(bnc, "_separation_round", counting_round)
        monkeypatch.setattr(bnc, "branch", recording_branch)
        # the n-start incumbent is the demo's optimum, and the tree would
        # stop at node 1 without branching; the single-start one is not
        monkeypatch.setattr(bnc, "greedy_incumbent", reference_greedy)
        for max_rounds, expected in ((1, [4]), (50, [4, 0])):
            rounds.clear()
            before_branch.clear()
            report = solve(demo.demo_instance(), "cb", SolveParams(max_rounds=max_rounds))
            assert before_branch[0] == expected, max_rounds
            assert (report.ub, report.nodes) == (demo.DEMO_OPTIMUM, 1), max_rounds

    def test_all_emitted_cuts_valid(self):
        rng = np.random.default_rng(107)
        for _ in range(6):
            inst = random_instance(rng, n_max=5)
            model = assemble(inst, "cb")
            pool = CutPool()
            root_cut_loop(model, inst, SolveParams(time_limit=60), pool, MisTable(inst))
            assert oracle.check_validity_instance(pool, inst), (
                _invalid_cuts(pool, inst),
                inst,
            )

    def test_uc_cuts_respect_validity_guard(self):
        # every emitted (U,C) cut must come from a cycle some node of which
        # is active in all feasible solutions: b > n - |V(C)|
        rng = np.random.default_rng(109)
        for _ in range(10):
            inst = random_instance(rng, n_min=4, n_max=6, extra_edge_prob=0.6, b=1)
            model = assemble(inst, "cb")
            pool = CutPool()
            root_cut_loop(model, inst, SolveParams(time_limit=60), pool, MisTable(inst))
            for cut in pool:
                if cut.tag == "uc":
                    arcs, _ = cut.provenance
                    assert inst.b > inst.n - len(arcs)


    def test_one_cut_per_violated_cycle(self, monkeypatch):
        # a cycle the coverage requirement admits gets its (U,C) cut, and
        # only any other cycle its GCEC
        calls = {"uc": 0, "gcec": 0}
        separate_uc, separate_gcec = cyclecuts.separate_uc, cyclecuts.separate_gcec

        def counting_uc(instance, cycle, base_map, point):
            assert cyclecuts.cycle_cut_allowed(instance, cycle)
            calls["uc"] += 1
            return separate_uc(instance, cycle, base_map, point)

        def counting_gcec(instance, cycle, point):
            assert not cyclecuts.cycle_cut_allowed(instance, cycle)
            calls["gcec"] += 1
            return separate_gcec(instance, cycle, point)

        monkeypatch.setattr(cyclecuts, "separate_uc", counting_uc)
        monkeypatch.setattr(cyclecuts, "separate_gcec", counting_gcec)
        rng = np.random.default_rng(113)
        for _ in range(40):
            inst = random_instance(rng, n_min=4, n_max=8, extra_edge_prob=0.5)
            report = solve(inst, "cb", SolveParams(time_limit=60))
            assert report.ub == oracle.brute_force_optimum(inst)[0], inst
        assert calls["uc"] >= 20 and calls["gcec"] >= 20, calls


class TestTreeCuts:
    def test_all_pooled_cuts_valid(self, monkeypatch):
        # the pool of whole cb solves: root cuts and those of tree rounds
        pools, after_root = [], []

        def recording_pool():
            pools.append(CutPool())
            return pools[-1]

        def recording_root_loop(model, instance, params, pool, *rest):
            bound = root_cut_loop(model, instance, params, pool, *rest)
            after_root.append(len(pool))
            return bound

        monkeypatch.setattr(bnc, "CutPool", recording_pool)
        monkeypatch.setattr(bnc, "root_cut_loop", recording_root_loop)
        rng = np.random.default_rng(137)
        tree_cuts = 0
        for _ in range(60):
            inst = random_instance(rng, n_min=5, n_max=6, extra_edge_prob=0.5)
            if inst.m > 20:
                continue  # enumerating its feasible points takes seconds
            report = solve(inst, "cb", SolveParams(time_limit=60))
            assert report.ub == oracle.brute_force_optimum(inst)[0]
            pool = pools[-1]
            tree_cuts += len(pool) - after_root[-1]
            assert oracle.check_validity_instance(pool, inst), (_invalid_cuts(pool, inst), inst)
        assert tree_cuts >= 50


class TestSolve:
    def test_demo_all_modes(self):
        inst = demo.demo_instance()
        for mode in ("def", "cb"):
            report = solve(inst, mode, SolveParams(time_limit=60))
            assert report.status == "optimal"
            assert report.ub == demo.DEMO_OPTIMUM
            assert report.lb == report.ub
            assert report.gap == 0.0

    def test_ln_full_coverage(self):
        inst = demo.demo_instance().with_b(5)
        report = solve(inst, "ln", SolveParams(time_limit=60))
        assert report.status == "optimal"
        assert report.ub == oracle.brute_force_optimum(inst)[0]

    def test_matches_oracle(self):
        rng = np.random.default_rng(113)
        for _ in range(15):
            inst = random_instance(rng)
            expect = oracle.brute_force_optimum(inst)[0]
            for mode in ("def", "cb"):
                report = solve(inst, mode, SolveParams(time_limit=60))
                assert report.ub == expect, (mode, inst)
            if inst.b == inst.n:
                report = solve(inst, "ln", SolveParams(time_limit=60))
                assert report.ub == expect

    def test_root_bound_recorded(self):
        inst = demo.demo_instance()
        d = solve(inst, "def", SolveParams(time_limit=60))
        c = solve(inst, "cb", SolveParams(time_limit=60))
        assert d.root_bound == pytest.approx(demo.DEMO_LP_OBJ, abs=1e-6)
        assert c.root_bound >= d.root_bound + 0.5  # cuts close most of the gap

    def test_incumbent_is_activation_order(self):
        rng = np.random.default_rng(127)
        for _ in range(10):
            inst = random_instance(rng)
            modes = ("def", "cb", "ln") if inst.b == inst.n else ("def", "cb")
            for mode in modes:
                report = solve(inst, mode, SolveParams(time_limit=60))
                assert set(report.incumbent) == {"order", "objective"}
                order = report.incumbent["order"]
                assert len(set(order)) == len(order) >= inst.b
                assert oracle.activation_cost(inst, order) == report.ub
                assert report.incumbent["objective"] == report.ub

    def test_time_limit_reported(self):
        inst = demo.demo_instance()
        report = solve(inst, "def", SolveParams(time_limit=1e-9))
        assert report.status == "time_limit"
        assert report.lb <= report.ub
        assert report.gap >= 0.0

    def test_time_limit_before_root_runs_no_lp(self, monkeypatch):
        calls = count_solve_lp(monkeypatch)
        report = solve(demo.demo_instance(), "def", SolveParams(time_limit=1e-9))
        assert calls == [] and report.lp_solves == 0
        assert report.status == "time_limit"
        assert report.root_bound is None

    def test_deadline_holds_in_mis_separation(self):
        # a star whose centre has 15 neighbours with 2^15 distinct subset
        # sums, all below its threshold: one exact MIS separation of the
        # centre runs far past the time limit unless it stops itself
        leaves = range(2, 17)
        weights = {(j, 1): 2**15 + 2 ** (j - 2) for j in leaves}
        weights |= {(1, j): 1 for j in leaves}
        h = sum(weights[j, 1] for j in leaves) + 1
        inst = make_instance(16, weights, {1: h} | dict.fromkeys(leaves, 1), b=16)
        assert len(inst.node_view(1).subset_sums) == 2**15
        t0 = time.monotonic()
        report = solve(inst, "cb", SolveParams(time_limit=1))
        assert report.status == "time_limit"
        assert time.monotonic() - t0 < 5

    def test_deadline_holds_in_root_loop(self, monkeypatch):
        calls = count_solve_lp(monkeypatch)
        inst = demo.demo_instance()
        model = assemble(inst, "cb")
        pool = CutPool()
        root_cut_loop(model, inst, SolveParams(), pool, MisTable(inst), time.monotonic() - 1.0)
        assert len(calls) <= 1
        assert len(pool) == 0

        report = solve(inst, "cb", SolveParams(time_limit=1e-9))
        assert report.status == "time_limit"
        assert report.lb <= report.ub

    def test_deadline_holds_in_branch_probes(self, monkeypatch):
        inst = demo.demo_instance()
        model = assemble(inst, "def")
        sol = solve_lp(model)
        calls = count_solve_lp(monkeypatch)
        pseudocosts = {}
        candidates = _fractional(inst, sol.values)
        children = branch(model, sol, candidates, {}, math.inf, pseudocosts, time.monotonic() - 1.0)
        assert calls == [] and pseudocosts == {}
        assert len(children) == 2
        (k,) = children[0].fixings
        assert [c.fixings for c in children] == [{k: (0.0, 0.0)}, {k: (1.0, 1.0)}]
        assert [c.bound for c in children] == [sol.objective] * 2

    def test_lp_solves_counts_every_lp(self, monkeypatch):
        calls = count_solve_lp(monkeypatch)
        rng = np.random.default_rng(139)
        cases = [(demo.demo_instance(), "cb")]
        cases += [(random_instance(rng, n_min=6, n_max=8), mode) for mode in ("def", "cb")]
        for inst, mode in cases:
            calls.clear()
            report = solve(inst, mode, SolveParams(time_limit=60))
            assert report.lp_solves == len(calls) >= report.nodes, mode

    def test_cb_search_path_pinned(self):
        # node count and cuts per family of two cb solves; a change that
        # alters the search on purpose updates these figures
        cases = {
            (0.1, 0.5): (11, (17, 14, 18, 45, 2)),
            (0.3, 1.0): (20, (23, 19, 27, 1, 95)),
        }
        for (q, a), (nodes, cuts) in cases.items():
            inst = generate_small_world(20, 4, q, a, seed=3)
            report = solve(inst, "cb", SolveParams(time_limit=600))
            assert report.status == "optimal"
            assert report.nodes == nodes, (q, a)
            assert tuple(report.cuts.get(f, 0) for f in CUT_FAMILIES) == cuts, (q, a)

    def test_def_search_path_pinned(self):
        # nodes and LPs of two def solves at full coverage (b = n); a change
        # that alters the search on purpose updates these figures
        cases = {7: (47, 1351, 1454), 8: (61, 369, 458)}
        for seed, (optimum, nodes, lps) in cases.items():
            inst = generate_small_world(15, 4, 0.1, 1.0, seed=seed)
            report = solve(inst, "def", SolveParams(time_limit=600))
            assert report.status == "optimal" and report.ub == optimum, seed
            assert (report.nodes, report.lp_solves) == (nodes, lps), seed


def support_point(instance, arcs):
    """An integral candidate: every z at 1, y at 1 on `arcs` and 0 on every
    other arc, x at 0."""
    point = [0.0] * instance.ncols
    for i in range(1, instance.n + 1):
        point[instance.zcol(i)] = 1.0
    for arc in arcs:
        point[instance.ycol[arc]] = 1.0
    return point


def acyclic(arcs):
    """Whether the directed graph of `arcs` has no cycle."""
    preds = {}
    for i, j in arcs:
        preds.setdefault(j, set()).add(i)
    try:
        tuple(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError:
        return False
    return True


def both_ways(*edges):
    return {arc: 1 for i, j in edges for arc in ((i, j), (j, i))}


class TestLargeThresholds:
    @pytest.mark.parametrize("H", [10**6, 10**9, 10**12])
    def test_triangle_solves_fast_in_cb(self, H):
        # MIS separation's work follows the reachable subset sums (8 here),
        # not the thresholds
        weights = {(1, 2): 0.4, (1, 3): 0.5, (2, 1): 0.5, (2, 3): 0.6, (3, 1): 0.7, (3, 2): 0.8}
        inst = make_instance(3, {a: round(f * H) for a, f in weights.items()},
                             dict.fromkeys((1, 2, 3), H), b=3)
        expect = solve(inst, "def", SolveParams(time_limit=60)).ub
        t0 = time.monotonic()
        report = solve(inst, "cb", SolveParams(time_limit=60))
        assert time.monotonic() - t0 < 1.0
        assert report.status == "optimal"
        assert report.ub == expect == 12 * H // 10


class TestSupportCycles:
    # triangles 1-2-3 and 4-5-6 joined by the edge 3-4
    TWO_TRIANGLES = make_instance(
        6, both_ways((1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4)),
        dict.fromkeys(range(1, 7), 1), b=6,
    )
    K4 = make_instance(
        4, both_ways((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        dict.fromkeys(range(1, 5), 1), b=4,
    )

    def test_disjoint_cycles_cut_in_one_resolve(self, monkeypatch):
        inst = self.TWO_TRIANGLES
        left, right = ((1, 2), (2, 3), (3, 1)), ((4, 5), (5, 6), (6, 4))
        point = support_point(inst, left + right + ((3, 4),))
        assert [c.arcs for c in bnc._support_cycles(inst, point)] == [left, right]

        # the root LP answers the two-cycle point; the pool is read as each
        # later LP starts
        pools, keys = [], []

        def recording_pool():
            pools.append(CutPool())
            return pools[-1]

        def two_cycles_first(model, **kwargs):
            keys.append({cut.key for cut in pools[0]})
            if len(keys) == 1:
                return LPSolution(status="optimal", values=point, objective=0.0)
            return solve_lp(model, **kwargs)

        monkeypatch.setattr(bnc, "CutPool", recording_pool)
        monkeypatch.setattr(bnc, "solve_lp", two_cycles_first)
        report = solve(inst, "def", SolveParams(time_limit=60))
        assert keys[0] == set()
        assert keys[1] == {
            ("gcec", (left, 1)), ("uc", (left, ())),
            ("gcec", (right, 4)), ("uc", (right, ())),
        }
        assert report.ub == oracle.brute_force_optimum(inst)[0]

    def test_cycles_sharing_an_arc(self):
        inst = self.K4
        # the cycles share (2, 3), which is not the first one's first arc:
        # both come back
        first, second = ((1, 2), (2, 3), (3, 1)), ((2, 3), (3, 4), (4, 2))
        point = support_point(inst, {*first, *second})
        assert [c.arcs for c in bnc._support_cycles(inst, point)] == [first, second]
        # the cycles share (1, 2), the first one's first arc: dropping it
        # breaks both, so one comes back
        first, second = ((1, 2), (2, 3), (3, 1)), ((1, 2), (2, 4), (4, 1))
        support = {*first, *second}
        assert [c.arcs for c in bnc._support_cycles(inst, support_point(inst, support))] == [first]
        assert acyclic(support - {(1, 2)})

    def test_first_arcs_break_every_cycle(self):
        # random acyclic supports, each arc along a random node order, plus
        # arcs against the order that close cycles
        multi = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 13))
            inst = generate_small_world(n, 4, 0.3, 1.0, seed=seed)
            pos = {int(v): p for p, v in enumerate(rng.permutation(np.arange(1, n + 1)))}
            support = set()
            for i, j in inst.ycol:
                if pos[i] < pos[j] and rng.random() < 0.6:
                    support.add((i, j))
            for i, j in inst.ycol:
                if pos[i] > pos[j] and (j, i) not in support and rng.random() < 0.4:
                    support.add((i, j))
            cycles = bnc._support_cycles(inst, support_point(inst, sorted(support)))
            for c in cycles:
                assert set(c.arcs) <= support and c == c.canonical(), (seed, c)
            firsts = {c.arcs[0] for c in cycles}
            assert len(firsts) == len(cycles), seed
            assert acyclic(support - firsts), seed
            multi += len(cycles) >= 2
        assert multi >= 40


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_solve_matches_oracle(self, seed):
        inst = demo.random_instance(np.random.default_rng(seed), n_max=6)
        expect = oracle.brute_force_optimum(inst)[0]
        modes = ("def", "cb", "ln") if inst.b == inst.n else ("def", "cb")
        for mode in modes:
            report = solve(inst, mode, SolveParams(time_limit=60))
            assert report.ub == expect, mode

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_root_cuts_valid(self, seed):
        inst = demo.random_instance(np.random.default_rng(seed), n_max=6)
        pool = CutPool()
        root_cut_loop(assemble(inst, "cb"), inst, SolveParams(time_limit=60), pool, MisTable(inst))
        assert oracle.check_validity_instance(pool, inst), _invalid_cuts(pool, inst)


class TestReport:
    def test_tsv_shape(self):
        report = solve(demo.demo_instance(), "def", SolveParams(time_limit=60))
        header_cells = TSV_HEADER.split("\t")
        cells = report.tsv_line().split("\t")
        assert len(cells) == len(header_cells)
        assert cells[header_cells.index("ub")] == "11"
        assert cells[header_cells.index("status")] == "optimal"

    def test_text_block(self):
        report = solve(demo.demo_instance(), "cb", SolveParams(time_limit=60))
        text = report.text_block()
        assert "status    optimal" in text
        for fam in CUT_FAMILIES:
            assert f"{fam}=" in text

    def test_gap_percent(self):
        assert gap_percent(11.0, 11.0) == 0.0
        assert gap_percent(11.0, 10.0) == pytest.approx(10.0)
        assert gap_percent(math.inf, 5.0) == math.inf
        assert gap_percent(5.0, 0.0) == math.inf

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SolveParams(time_limit=0)
        with pytest.raises(ValueError):
            SolveParams(max_rounds=0)
        with pytest.raises(ValueError):
            SolveParams(time_limit=float("nan"))
        assert SolveParams(time_limit=math.inf).time_limit == math.inf
