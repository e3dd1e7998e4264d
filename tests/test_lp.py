"""LP model surface and the HiGHS-backed solver."""

import numpy as np
import pytest

from lcim.lp import LPModel, solve_lp


def small_model():
    m = LPModel()
    x = m.add_var("x", lb=0.0, obj=1.0)
    m.add_constraint({x: 1.0}, ">=", 3.0)
    return m


class TestModel:
    def test_duplicate_var_rejected(self):
        m = LPModel()
        m.add_var("x")
        with pytest.raises(ValueError, match="duplicate"):
            m.add_var("x")

    def test_add_var_returns_column(self):
        m = LPModel()
        assert [m.add_var(name) for name in ("u", "v", "w")] == [0, 1, 2]
        assert m.var_names == ["u", "v", "w"]

    def test_unknown_var_in_constraint(self):
        m = LPModel()
        m.add_var("x")
        for col in (1, -1, "x"):
            with pytest.raises(ValueError, match="unknown column"):
                m.add_constraint({col: 1.0}, ">=", 0.0)

    def test_non_finite_coefficient(self):
        m = LPModel()
        m.add_var("x")
        for c in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                m.add_constraint({0: c}, ">=", 0.0)
        assert m.rows == []

    def test_bad_sense(self):
        m = LPModel()
        m.add_var("x")
        with pytest.raises(ValueError, match="sense"):
            m.add_constraint({0: 1.0}, ">>", 0.0)

    def test_crossed_bounds(self):
        m = LPModel()
        with pytest.raises(ValueError):
            m.add_var("x", lb=2.0, ub=1.0)

    def test_bounds_round_trip(self):
        m = small_model()
        m.set_bounds(0, 1.0, 9.0)
        assert m.bounds(0) == (1.0, 9.0)

    def test_dump_mentions_everything(self):
        text = small_model().dump()
        assert "min" in text and ">=" in text and "x" in text


class TestSolve:
    def test_trivial(self):
        sol = solve_lp(small_model())
        assert sol.optimal
        assert abs(sol.objective - 3.0) < 1e-9
        assert sol.values == [pytest.approx(3.0, abs=1e-9)]
        assert type(sol.values[0]) is float

    def test_infeasible(self):
        m = small_model()
        m.set_bounds(0, 0.0, 1.0)
        sol = solve_lp(m)
        assert sol.status == "infeasible"
        assert sol.objective == np.inf

    def test_unbounded(self):
        m = LPModel()
        x = m.add_var("x", lb=0.0, obj=-1.0)
        m.add_constraint({x: 1.0}, ">=", 0.0)
        sol = solve_lp(m)
        assert sol.status == "unbounded"

    def test_bound_overrides_do_not_stick(self):
        m = small_model()
        sol = solve_lp(m, bound_overrides={0: (5.0, 5.0)})
        assert abs(sol.objective - 5.0) < 1e-9
        assert abs(solve_lp(m).objective - 3.0) < 1e-9

    def test_mixed_senses(self):
        m = LPModel()
        u = m.add_var("u", obj=1.0)
        v = m.add_var("v", obj=2.0)
        m.add_constraint({u: 1.0, v: 1.0}, "=", 4.0)
        m.add_constraint({u: 1.0}, "<=", 3.0)
        m.add_constraint({v: 1.0}, ">=", 1.0)
        sol = solve_lp(m)
        assert abs(sol.objective - 5.0) < 1e-9  # u=3, v=1

    def test_added_ge_rows_weakly_increase_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            nv = int(rng.integers(2, 6))
            m = LPModel()
            for k in range(nv):
                m.add_var(f"v{k}", lb=0.0, ub=10.0, obj=float(rng.uniform(0.1, 2)))
            prev = 0.0
            for _ in range(4):
                coeffs = {
                    k: float(rng.uniform(0.1, 1)) for k in range(nv)
                }
                m.add_constraint(coeffs, ">=", float(rng.uniform(0, 5)))
                sol = solve_lp(m)
                if not sol.optimal:
                    break  # over-constrained to infeasibility; still monotone
                assert sol.objective >= prev - 1e-9
                prev = sol.objective

    def test_resolve_stability(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = LPModel()
            for k in range(4):
                m.add_var(f"v{k}", lb=0.0, ub=5.0, obj=float(rng.uniform(0.1, 2)))
            for _ in range(3):
                coeffs = {k: float(rng.uniform(0.1, 1)) for k in range(4)}
                m.add_constraint(coeffs, ">=", float(rng.uniform(0, 4)))
            a = solve_lp(m).objective
            b = solve_lp(m).objective
            assert abs(a - b) <= 1e-9

    def test_strong_duality(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = LPModel()
            nv = int(rng.integers(2, 6))
            for k in range(nv):
                m.add_var(f"v{k}", lb=0.0, ub=8.0, obj=float(rng.uniform(-1, 2)))
            for _ in range(int(rng.integers(1, 5))):
                coeffs = {k: float(rng.uniform(-1, 1)) for k in range(nv)}
                m.add_constraint(coeffs, rng.choice(["<=", ">=", "="]), float(rng.uniform(-2, 4)))
            sol = solve_lp(m)
            if not sol.optimal:
                continue
            assert sol.dual_objective is not None
            assert abs(sol.objective - sol.dual_objective) <= 1e-6

    def test_basic_solution_support(self):
        # a vertex has at most (#rows) variables strictly between their bounds
        rng = np.random.default_rng(17)
        for _ in range(15):
            m = LPModel()
            nv = int(rng.integers(3, 8))
            for k in range(nv):
                m.add_var(f"v{k}", lb=0.0, ub=6.0, obj=float(rng.uniform(0.1, 2)))
            nr = int(rng.integers(1, 4))
            for _ in range(nr):
                coeffs = {k: float(rng.uniform(0.1, 1)) for k in range(nv)}
                m.add_constraint(coeffs, ">=", float(rng.uniform(1, 6)))
            sol = solve_lp(m)
            assert sol.optimal
            interior = sum(
                1 for k in range(nv) if 1e-7 < sol.values[k] < 6.0 - 1e-7
            )
            assert interior <= nr
