"""LP model surface and the HiGHS-backed solver."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog
from scipy.sparse import csr_matrix

from lcim import bnc, demo, lp
from lcim.knapcuts import CutPool
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


def oracle_solve(model, bound_overrides=None):
    """scipy's linprog(method="highs-ds") on the model: the "<=" rows, then
    the ">=" rows negated, then the "=" rows, as solve_lp hands them to
    HiGHS."""
    lower, upper = np.array(model.lower), np.array(model.upper)
    for k, (lo, hi) in (bound_overrides or {}).items():
        lower[k], upper[k] = lo, hi

    def stack(rows):
        if not rows:
            return None, None
        indptr, cols, vals = [0], [], []
        for coeffs, _ in rows:
            cols += list(coeffs)
            vals += list(coeffs.values())
            indptr.append(len(cols))
        a = csr_matrix((vals, cols, indptr), shape=(len(rows), len(model.obj)))
        return a, np.array([rhs for _, rhs in rows])

    ub_rows = [(c, r) for c, s, r in model.rows if s == "<="]
    ub_rows += [({k: -v for k, v in c.items()}, -r) for c, s, r in model.rows if s == ">="]
    a_ub, b_ub = stack(ub_rows)
    a_eq, b_eq = stack([(c, r) for c, s, r in model.rows if s == "="])
    return scipy_linprog(
        c=np.array(model.obj), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([lower, upper]), method="highs-ds",
    )


def random_lp(rng):
    """A small LP with mixed senses and finite and infinite bounds.  Most
    rows hold at a point x0 inside the bounds; the others, crossed bound
    overrides and free columns give infeasible and unbounded draws."""
    m = LPModel()
    nv = int(rng.integers(2, 9))
    x0 = []
    for k in range(nv):
        lb = -np.inf if rng.random() < 0.2 else float(rng.integers(-3, 2))
        ub = None
        if rng.random() >= 0.3:
            ub = (lb if np.isfinite(lb) else -1.0) + float(rng.integers(0, 6))
        m.add_var(f"v{k}", lb=lb, ub=ub, obj=float(rng.uniform(-1, 2)))
        x0.append(lb if np.isfinite(lb) else (ub if ub is not None else 0.0))
    for _ in range(int(rng.integers(0, 7))):
        cols = rng.choice(nv, size=int(rng.integers(1, nv + 1)), replace=False)
        coeffs = {int(k): float(rng.uniform(-1, 1)) for k in cols}
        sense = str(rng.choice(["<=", ">=", "="]))
        rhs = sum(c * x0[k] for k, c in coeffs.items())
        if rng.random() < 0.1:
            rhs = float(rng.uniform(-3, 3))
        elif sense != "=":
            rhs += float(rng.uniform(0, 2)) * (1 if sense == "<=" else -1)
        m.add_constraint(coeffs, sense, rhs)
    overrides = None
    if rng.random() < 0.35:
        k = int(rng.integers(nv))
        lo = float(rng.integers(-2, 3))
        overrides = {k: (lo, lo + float(rng.integers(-1, 3)))}  # may cross
    return m, overrides


def demo_models():
    """The demo def and cb root models, the cb model after its root cutting
    loop, and that model's first branching children."""
    inst = demo.demo_instance()
    looped = bnc.assemble(inst, "cb")
    bnc.root_cut_loop(looped, inst, bnc.SolveParams(time_limit=60), CutPool())
    children = bnc.branch(inst, solve_lp(looped).values)
    cases = [(bnc.assemble(inst, "def"), None), (bnc.assemble(inst, "cb"), None), (looped, None)]
    return cases + [(looped, child) for child in children]


class TestAgainstLinprog:
    def test_same_answers_as_scipy_linprog(self, monkeypatch):
        nits = []
        highs = lp.linprog

        def recording(*args):
            res = highs(*args)
            nits.append(res.nit)
            return res

        monkeypatch.setattr(lp, "linprog", recording)
        rng = np.random.default_rng(2024)
        cases = [random_lp(rng) for _ in range(50)] + demo_models()
        seen = set()
        for model, overrides in cases:
            want = oracle_solve(model, overrides)
            seen.add(want.status)
            if want.status not in (0, 2, 3):
                with pytest.raises(RuntimeError):
                    solve_lp(model, overrides)
                continue
            got = solve_lp(model, overrides)
            assert got.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[want.status]
            assert nits[-1] == want.nit
            if want.status == 0:
                assert got.objective == want.fun
                assert np.array_equal(got.values, want.x)
        assert {0, 2, 3} <= seen


class TestPrivateApi:
    def test_missing_bindings_name_the_scipy_requirement(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        spec = importlib.util.spec_from_file_location("lp_probe", lp.__file__)
        with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_highs_reached_only_from_lp(self):
        for path in Path(lp.__file__).parent.glob("*.py"):
            text = path.read_text()
            if path.name != "lp.py":
                assert "_highspy" not in text, path.name
            assert "import linprog" not in text, path.name
