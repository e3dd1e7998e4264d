"""Acceptance criteria for the solver library.

Each test implements one criterion at its stated tolerance and runtime
budget and prints a single pass line; pytest failure output identifies the
offending check otherwise.
"""

import time

import numpy as np
import pytest

from lcim import bnc, demo, oracle
from lcim.bnc import SolveParams, assemble
from lcim.cyclecuts import build_uc_cut, separate_uc
from lcim.instance import generate_small_world, make_instance
from lcim.knapcuts import (
    Inequality,
    build_cover_cut,
    build_mis_cut,
    build_packing_cut,
    propagation_row,
    separate_mis,
)
from lcim.lp import solve_lp
from lcim.special import build_tree_equal_model, dp_cycle
from test_knapcuts import brute_force_mis_violation

from conftest import (
    check_cycle_answer,
    random_cycle_instance,
    random_equal_tree,
    random_fractional_point,
    random_instance,
    random_node_view,
)


def _report(n, text):
    print(f"criterion {n}: PASS — {text}")


class TestAcceptance:
    def test_01_cover_packing_table(self):
        t0 = time.monotonic()
        view = demo.example_view()
        rows = {tuple(sorted(cut.coeffs.items())) for cut in oracle.cover_packing_cuts(view)}
        expected = {
            tuple(sorted(r["coeffs"].items())) for r in demo.TABLE_COVER_PACKING
        }
        assert rows == expected
        # each annotated generating set reproduces its row exactly
        for r in demo.TABLE_COVER_PACKING:
            if r["cover"] is not None:
                assert build_cover_cut(view, r["cover"]).coeffs == r["coeffs"]
            if r["packing"] is not None:
                assert build_packing_cut(view, r["packing"]).coeffs == r["coeffs"]
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        _report(1, f"7 cover/packing rows integer-exact in {elapsed:.3f}s")

    def test_02_mis_table(self):
        t0 = time.monotonic()
        view = demo.example_view()
        for r in demo.TABLE_MIS:
            assert build_mis_cut(view, r["mis"]).coeffs == r["coeffs"]
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        _report(2, f"4 MIS rows integer-exact in {elapsed:.3f}s")

    def test_03_facets(self):
        t0 = time.monotonic()
        view = demo.example_view()
        rows = [r["coeffs"] for r in demo.TABLE_COVER_PACKING + demo.TABLE_MIS]
        rows.append(demo.EXTRA_FACET_ROW)
        assert len(rows) == 12
        for coeffs in rows:
            ineq = Inequality(coeffs=coeffs, rhs=0.0, tag="base")
            assert oracle.check_facet(ineq, view), ineq.render(view.var_names)
        # trivial-facet conditions on random views: the propagation row is a
        # facet exactly when every weight is clamped to the threshold, and
        # x >= 0 is always one
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = random_node_view(rng)
            row = {v.xcol: 1, **dict(zip(v.ycols, v.weights)), v.zcol: -v.h}
            expect = all(w <= v.h for w in v.weights)
            assert (
                oracle.check_facet(Inequality(coeffs=row, rhs=0.0, tag="base"), v)
                == expect
            )
            xrow = Inequality(coeffs={v.xcol: 1}, rhs=0.0, tag="base")
            assert oracle.check_facet(xrow, v)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        _report(3, f"12 table facets + 100 trivial-facet checks in {elapsed:.1f}s")

    def test_04_demo_trace(self):
        inst = demo.demo_instance()
        model = assemble(inst, "def")
        sol = solve_lp(model)
        assert sol.objective == pytest.approx(demo.DEMO_LP_OBJ, abs=1e-4)

        # separation runs against the recorded fractional vertex (the solver
        # may legitimately return another vertex of the degenerate face)
        point = demo.demo_lp_point()
        base_map = demo.demo_base_cuts(inst)
        cut = separate_uc(inst, demo.demo_cycle(), base_map, point)
        assert cut == build_uc_cut(inst, demo.demo_cycle(), demo.DEMO_UC_U, base_map)
        assert tuple(i for i, _ in cut.provenance[1]) == demo.DEMO_UC_U
        assert cut.violation(point) == pytest.approx(demo.DEMO_UC_VIOLATION, abs=1e-6)

        from lcim.cyclecuts import uc_dag_values

        f_direct, exits = uc_dag_values(inst, demo.demo_cycle(), base_map, point)
        assert (f_direct, *exits) == pytest.approx(demo.DEMO_DAG_VALUES, abs=1e-6)

        model.add_constraint(cut.coeffs, ">=", cut.rhs)
        post = solve_lp(model)
        assert post.objective == pytest.approx(demo.DEMO_POSTCUT_OBJ, abs=1e-4)

        report = bnc.solve(inst, "def", SolveParams(time_limit=60))
        assert report.ub == demo.DEMO_OPTIMUM
        same_vertex = all(
            abs(s - v) <= 1e-4 for s, v in zip(sol.values, point, strict=True)
        )
        _report(
            4,
            "trace 8.52 -> U=(1,3) viol 6 -> 10.2 -> optimum 11 "
            f"(solver vertex {'matches' if same_vertex else 'is an alternative'})",
        )

    def test_05_separation_exactness(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        # MIS: 1000 random fractional points against 2^v enumeration
        for _ in range(1000):
            view = random_node_view(rng, v_max=8)
            point = random_fractional_point(rng, view)
            expect = brute_force_mis_violation(view, point)
            cut = separate_mis(view, point)
            if cut is None:
                assert expect is None or expect <= 1e-6 + 1e-9
            else:
                assert abs(cut.violation(point) - expect) <= 1e-9
        # (U,C): random cycles up to 12 nodes against the exhaustive scan
        uc_checks = 0
        while uc_checks < 120:
            inst = random_cycle_instance(rng, n_min=3, n_max=12)
            from lcim.cyclecuts import Cycle
            from lcim.special import cycle_order

            order = cycle_order(inst)
            cycle = Cycle(
                arcs=tuple(
                    (order[k], order[(k + 1) % inst.n]) for k in range(inst.n)
                )
            )
            base_map = {}
            for i in cycle.nodes:
                view = inst.node_view(i)
                cands = [propagation_row(view), *oracle.cover_packing_cuts(view, max_size=2)]
                base_map[i] = cands[int(rng.integers(0, len(cands)))]
            point = [0.0] * inst.ncols
            for i in cycle.nodes:
                view = inst.node_view(i)
                zv = float(rng.uniform(0.05, 1.0))
                point[view.zcol] = zv
                point[view.xcol] = float(rng.uniform(0.0, view.h * zv))
                for k in view.ycols:
                    point[k] = float(rng.uniform(0.0, zv))
            best_U, best_viol = oracle.enumerate_uc_subsets(
                inst, cycle, base_map, point
            )
            cut = separate_uc(inst, cycle, base_map, point)
            if cut is None:
                assert best_viol <= 1e-6
            else:
                assert abs(cut.violation(point) - best_viol) <= 1e-9
            uc_checks += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        _report(
            5,
            f"1000 MIS + {uc_checks} (U,C) separations match brute force "
            f"in {elapsed:.1f}s",
        )

    def test_06_cycle_dp(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        cycles = 0
        while cycles < 200:
            inst = random_cycle_instance(rng, n_min=3, n_max=8)
            for b in range(1, inst.n + 1):
                check_cycle_answer(inst, b, dp_cycle(inst, b=b))
            cycles += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        _report(6, f"dp_cycle == oracle on {cycles} cycles, all b, in {elapsed:.1f}s")

    def test_07_tree_hull(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        for _ in range(100):
            inst = random_equal_tree(rng, n_max=12)
            sol = solve_lp(build_tree_equal_model(inst))
            assert sol.optimal
            opt, _ = oracle.brute_force_optimum(inst)
            assert sol.objective == pytest.approx(opt, abs=1e-6)
            for val in sol.values[inst.n:]:  # the y and z columns
                assert min(val, 1.0 - val) <= 1e-6
        # necessity: without the hull rows (the ln relaxation, z fixed to 1)
        # the optimum is fractional
        gap_inst = demo.hull_gap_instance()
        full = solve_lp(build_tree_equal_model(gap_inst)).objective
        bare = solve_lp(assemble(gap_inst, "ln")).objective
        assert full == pytest.approx(
            oracle.brute_force_optimum(gap_inst)[0], abs=1e-6
        )
        assert bare < full - 0.25
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        _report(
            7,
            f"100 equal-influence trees integral and exact; hull rows "
            f"necessary ({bare:g} < {full:g}) in {elapsed:.1f}s",
        )

    def test_08_dominance(self):
        t0 = time.monotonic()
        from lcim.cyclecuts import Cycle, build_gcec

        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(2000):
            n = int(rng.integers(3, 9))
            cycle = Cycle(
                arcs=tuple((k + 1, (k + 1) % n + 1) for k in range(n))
            )
            ring = make_instance(  # the cycle as an instance, for its columns
                n,
                {arc: 1 for k, l in cycle.arcs for arc in ((k, l), (l, k))},
                dict.fromkeys(range(1, n + 1), 1),
                b=n,
            )
            y, z = ring.ycol, ring.zcol
            point = [0.0] * ring.ncols
            for i in cycle.nodes:
                point[z(i)] = float(rng.uniform(0.0, 1.0))
            for k, l in cycle.arcs:
                point[y[k, l]] = float(rng.uniform(0.0, point[z(l)]))
            W = sum(point[z(l)] - point[y[k, l]] for k, l in cycle.arcs)
            empty_viol = 1.0 - W
            any_gcec_violated = False
            for k in cycle.nodes:
                gv = build_gcec(ring, cycle, k).violation(point)
                if gv > 1e-9:
                    any_gcec_violated = True
                    assert empty_viol >= gv - 1e-9
            if any_gcec_violated:
                checked += 1
        assert checked > 50  # the corpus actually exercised the property
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        _report(
            8,
            f"U=empty cut dominates every violated GCEC on {checked} "
            f"fractional points in {elapsed:.1f}s",
        )

    def test_09_end_to_end(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        solved = {"def": 0, "cb": 0, "ln": 0}
        for _ in range(50):
            inst = random_instance(rng, n_min=3, n_max=8)
            expect, _ = oracle.brute_force_optimum(inst)
            for mode in ("def", "cb"):
                report = bnc.solve(inst, mode, SolveParams(time_limit=120))
                assert report.status == "optimal"
                assert report.ub == expect, (mode, inst)
                solved[mode] += 1
            full = inst if inst.b == inst.n else inst.with_b(inst.n)
            expect_full, _ = oracle.brute_force_optimum(full)
            report = bnc.solve(full, "ln", SolveParams(time_limit=120))
            assert report.status == "optimal"
            assert report.ub == expect_full
            solved["ln"] += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        _report(
            9,
            f"def/cb x50 + ln x{solved['ln']} all equal the oracle "
            f"in {elapsed:.1f}s",
        )

    # optima of the desk grid, computed independently by scipy.optimize.milp
    # on the arc formulation with MTZ layers
    DESK_OPTIMA = {
        0.1: (19, 37, 63, 98, 130),
        0.3: (24, 48, 84, 107, 136),
    }

    def test_10_desk_scale(self):
        t0 = time.monotonic()
        strict = 0
        total = 0
        for q in (0.1, 0.3):
            for a, opt in zip((0.1, 0.25, 0.5, 0.75, 1.0), self.DESK_OPTIMA[q]):
                inst = generate_small_world(50, 4, q, a, seed=42)
                def_root = solve_lp(assemble(inst, "def")).objective
                report = bnc.solve(inst, "cb", SolveParams(time_limit=600))
                assert report.status == "optimal", (q, a, report.status)
                assert report.ub == opt, (q, a, report.ub)
                # the incumbent, checked from the instance alone
                order = report.incumbent["order"]
                assert len(set(order)) == len(order) >= inst.b, (q, a)
                assert all(1 <= i <= inst.n for i in order), (q, a)
                assert oracle.activation_cost(inst, order) == report.ub, (q, a)
                assert report.root_bound >= def_root - 1e-6, (q, a)
                if report.root_bound > def_root + 1e-6:
                    strict += 1
                total += 1
        elapsed = time.monotonic() - t0
        assert strict >= total / 2
        assert elapsed < 1800.0
        _report(
            10,
            f"{total} desk-scale instances at their pinned optima; CB root > DEF root on "
            f"{strict}/{total} in {elapsed:.0f}s",
        )
