"""LP model surface and the HiGHS-backed solver."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog
from scipy.sparse import csr_matrix

from lcim import bnc, demo, lp
from lcim.instance import generate_small_world
from lcim.knapcuts import CutPool, MisTable
from lcim.lp import LPModel, solve_lp

from conftest import run_python


def small_model():
    m = LPModel()
    x = m.add_var(lb=0.0, obj=1.0)
    m.add_constraint({x: 1.0}, ">=", 3.0)
    return m


class TestModel:
    def test_add_var_returns_column(self):
        m = LPModel()
        assert [m.add_var(ub=k) for k in (1.0, 2.0, 3.0)] == [0, 1, 2]
        assert m.upper == [1.0, 2.0, 3.0]

    def test_unknown_var_in_constraint(self):
        m = LPModel()
        m.add_var()
        for col in (1, -1, "x"):
            with pytest.raises(ValueError, match="unknown column"):
                m.add_constraint({col: 1.0}, ">=", 0.0)

    def test_non_finite_coefficient(self):
        m = LPModel()
        m.add_var()
        for c in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                m.add_constraint({0: c}, ">=", 0.0)
        assert m.rows == []

    def test_bad_sense(self):
        m = LPModel()
        m.add_var()
        with pytest.raises(ValueError, match="sense"):
            m.add_constraint({0: 1.0}, ">>", 0.0)

    def test_crossed_bounds(self):
        m = LPModel()
        with pytest.raises(ValueError):
            m.add_var(lb=2.0, ub=1.0)

    def test_bounds_without_a_value_rejected(self):
        m = LPModel()
        for lb, ub in ((np.nan, 1.0), (0.0, np.nan), (np.inf, None), (np.inf, np.inf),
                       (-np.inf, -np.inf)):
            with pytest.raises(ValueError, match="bounds"):
                m.add_var(lb=lb, ub=ub)
        assert m.obj == []
        m.add_var(lb=-np.inf, ub=np.inf)
        assert (m.lower, m.upper) == ([-np.inf], [np.inf])

    def test_non_finite_rhs(self):
        m = LPModel()
        m.add_var()
        for rhs in (np.nan, np.inf, -np.inf):
            for sense in ("<=", ">=", "="):
                with pytest.raises(ValueError, match="right-hand side"):
                    m.add_constraint({0: 1.0}, sense, rhs)
        assert m.rows == []

    def test_empty_rows(self):
        # an empty row that 0 satisfies is dropped; any other has no solution
        m = small_model()
        for sense, rhs in (("<=", 0.0), ("<=", 2.0), (">=", 0.0), (">=", -1.0), ("=", 0.0)):
            m.add_constraint({}, sense, rhs)
        assert len(m.rows) == 1
        for sense, rhs in (("<=", -1.0), (">=", 1.0), ("=", 2.0), ("=", -0.5)):
            with pytest.raises(ValueError, match="cannot hold"):
                m.add_constraint({}, sense, rhs)
        assert len(m.rows) == 1

    def test_row_rejected_by_highs_is_not_kept(self):
        # HiGHS takes no coefficient of magnitude 1e15 or more; the row is
        # refused when it is added and the model solves on without it
        m = small_model()
        assert solve_lp(m).objective == pytest.approx(3.0)
        with pytest.raises(ValueError, match="HiGHS rejected row 1"):
            m.add_constraint({0: 1e15}, ">=", 1.0)
        assert m.rows == [({0: 1.0}, ">=", 3.0)]
        m.add_constraint({0: 1.0}, ">=", 5.0)
        assert m._highs.getNumRow() == len(m.rows) == 2
        for _ in range(3):
            assert solve_lp(m).objective == pytest.approx(5.0)


class TestSolve:
    def test_trivial(self):
        sol = solve_lp(small_model())
        assert sol.optimal
        assert abs(sol.objective - 3.0) < 1e-9
        assert sol.values == [pytest.approx(3.0, abs=1e-9)]
        assert type(sol.values[0]) is float

    def test_infeasible(self):
        sol = solve_lp(small_model(), bound_overrides={0: (0.0, 1.0)})
        assert sol.status == "infeasible"
        assert sol.objective == np.inf

    def test_unbounded(self):
        m = LPModel()
        x = m.add_var(lb=0.0, obj=-1.0)
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
        u = m.add_var(obj=1.0)
        v = m.add_var(obj=2.0)
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
            for _ in range(nv):
                m.add_var(lb=0.0, ub=10.0, obj=float(rng.uniform(0.1, 2)))
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
            for _ in range(4):
                m.add_var(lb=0.0, ub=5.0, obj=float(rng.uniform(0.1, 2)))
            for _ in range(3):
                coeffs = {k: float(rng.uniform(0.1, 1)) for k in range(4)}
                m.add_constraint(coeffs, ">=", float(rng.uniform(0, 4)))
            a = solve_lp(m).objective
            b = solve_lp(m).objective
            assert abs(a - b) <= 1e-9

    def test_basic_solution_support(self):
        # a vertex has at most (#rows) variables strictly between their bounds
        rng = np.random.default_rng(17)
        for _ in range(15):
            m = LPModel()
            nv = int(rng.integers(3, 8))
            for _ in range(nv):
                m.add_var(lb=0.0, ub=6.0, obj=float(rng.uniform(0.1, 2)))
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
    """scipy's linprog(method="highs-ds") on the model, solved from scratch:
    the "<=" rows and the ">=" rows negated as A_ub, the "=" rows as
    A_eq."""
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


def random_row(rng, nv, x0):
    """A row over some of the nv columns, of a random sense, that holds at
    x0 unless it is one of the tenth drawn with an arbitrary rhs."""
    cols = rng.choice(nv, size=int(rng.integers(1, nv + 1)), replace=False)
    coeffs = {int(k): float(rng.uniform(-1, 1)) for k in cols}
    sense = str(rng.choice(["<=", ">=", "="]))
    rhs = sum(c * x0[k] for k, c in coeffs.items())
    if rng.random() < 0.1:
        rhs = float(rng.uniform(-3, 3))
    elif sense != "=":
        rhs += float(rng.uniform(0, 2)) * (1 if sense == "<=" else -1)
    return coeffs, sense, rhs


def random_lp(rng):
    """A small LP with mixed senses and finite and infinite bounds, and the
    point x0 inside its bounds at which most of its rows hold.  The other
    rows, crossed bound overrides and free columns give infeasible and
    unbounded draws."""
    m = LPModel()
    nv = int(rng.integers(2, 9))
    x0 = []
    for _ in range(nv):
        lb = -np.inf if rng.random() < 0.2 else float(rng.integers(-3, 2))
        ub = None
        if rng.random() >= 0.3:
            ub = (lb if np.isfinite(lb) else -1.0) + float(rng.integers(0, 6))
        m.add_var(lb=lb, ub=ub, obj=float(rng.uniform(-1, 2)))
        x0.append(lb if np.isfinite(lb) else (ub if ub is not None else 0.0))
    for _ in range(int(rng.integers(0, 7))):
        m.add_constraint(*random_row(rng, nv, x0))
    overrides = None
    if rng.random() < 0.35:
        k = int(rng.integers(nv))
        lo = float(rng.integers(-2, 3))
        overrides = {k: (lo, lo + float(rng.integers(-1, 3)))}  # may cross
    return m, overrides, x0


def demo_models():
    """The demo def and cb root models, the cb model after its root cutting
    loop, and that model's first branching children."""
    inst = demo.demo_instance()
    looped = bnc.assemble(inst, "cb")
    bnc.root_cut_loop(looped, inst, bnc.SolveParams(time_limit=60), CutPool(), MisTable(inst))
    sol = solve_lp(looped)
    children = bnc.branch(looped, sol, bnc._fractional(inst, sol.values), {}, np.inf, {})
    cases = [(bnc.assemble(inst, "def"), None), (bnc.assemble(inst, "cb"), None), (looped, None)]
    return cases + [(looped, child.fixings) for child in children]


def regrown_model():
    """A model solved once, then given a "<=", a ">=" and an "=" row that
    its first solution (x = (1, 0, 4)) breaks, so a solve that missed the
    new rows would answer wrongly."""
    m = LPModel()
    for c in (1.0, 2.0, -1.0):
        m.add_var(lb=0.0, ub=4.0, obj=c)
    m.add_constraint({0: 1.0, 1: 1.0}, ">=", 1.0)
    assert solve_lp(m).values == [1.0, 0.0, 4.0]
    m.add_constraint({0: 1.0, 2: 1.0}, "<=", 3.0)
    m.add_constraint({1: 1.0}, ">=", 0.5)
    m.add_constraint({0: 1.0, 2: -1.0}, "=", 0.0)
    return m


def check_against_oracle(model, overrides=None, basis=None):
    """Solve the model as it stands and compare with a fresh linprog: the
    same status, the objective to 1e-9 relative, an x within
    lp._CHECK_TOL of its bounds and rows whose cost is that objective, and
    a reduced cost per column that is at most 0 off its lower bound and at
    least 0 off its upper one, to HiGHS's dual tolerance.
    Returns (linprog status, solution or None)."""
    want = oracle_solve(model, overrides)
    if want.status not in (0, 2, 3):
        with pytest.raises(RuntimeError):
            solve_lp(model, overrides, basis)
        return want.status, None
    got = solve_lp(model, overrides, basis)
    assert got.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[want.status]
    if want.status == 0:
        assert got.objective == pytest.approx(want.fun, rel=1e-9)
        x = np.array(got.values)
        lower, upper = np.array(model.lower), np.array(model.upper)
        for k, (lo, hi) in (overrides or {}).items():
            lower[k], upper[k] = lo, hi
        activity = [sum(c * x[k] for k, c in coeffs.items()) for coeffs, _, _ in model.rows]
        row_lower = [-np.inf if sense == "<=" else rhs for _, sense, rhs in model.rows]
        row_upper = [np.inf if sense == ">=" else rhs for _, sense, rhs in model.rows]
        assert lp._feasible(
            np.concatenate([x, activity]),
            np.concatenate([lower, row_lower]),
            np.concatenate([upper, row_upper]),
        )
        assert float(np.dot(model.obj, x)) == pytest.approx(got.objective, rel=1e-9)
        cost = np.array(got.reduced_costs)
        assert cost.shape == x.shape
        assert np.all(cost[x > lower + lp._CHECK_TOL] <= 1e-7)
        assert np.all(cost[x < upper - lp._CHECK_TOL] >= -1e-7)
    return want.status, got


class TestAgainstLinprog:
    def test_same_answers_as_scipy_linprog(self, monkeypatch):
        # after every add the HiGHS handle holds exactly the model's columns
        # and rows
        for name in ("add_var", "add_constraint"):
            add = getattr(LPModel, name)

            def checked(model, *args, add=add, **kwargs):
                out = add(model, *args, **kwargs)
                assert model._highs.getNumCol() == len(model.obj)
                assert model._highs.getNumRow() == len(model.rows)
                return out

            monkeypatch.setattr(LPModel, name, checked)
        rng = np.random.default_rng(2024)
        cases = [random_lp(rng)[:2] for _ in range(50)] + demo_models()
        cases.append((regrown_model(), None))
        seen = set()
        for model, overrides in cases:
            seen.add(check_against_oracle(model, overrides)[0])
        assert {0, 2, 3} <= seen

        # warm sequences on one model: a cut row, overrides set, cleared,
        # and one more row solved from an older basis
        seen = set()
        for _ in range(40):
            model, overrides, x0 = random_lp(rng)
            nv = len(x0)
            _, first = check_against_oracle(model, overrides)
            model.add_constraint(*random_row(rng, nv, x0))
            status, cut = check_against_oracle(model)
            seen.add(status)
            k = int(rng.integers(nv))
            lo = float(rng.integers(-2, 3))
            fixed = {k: (lo, lo + float(rng.integers(0, 3)))}
            seen.add(check_against_oracle(model, fixed, cut and cut.basis)[0])
            seen.add(check_against_oracle(model, None, first and first.basis)[0])
            model.add_constraint(*random_row(rng, nv, x0))
            seen.add(check_against_oracle(model, None, cut and cut.basis)[0])
        assert {0, 2, 3} <= seen


class TestWarmStart:
    @staticmethod
    def nits(monkeypatch):
        nits = []
        highs = lp.linprog

        def recording(*args):
            res = highs(*args)
            nits.append(res.nit)
            return res

        monkeypatch.setattr(lp, "linprog", recording)
        return nits

    def test_bound_change_resolves_warm(self, monkeypatch):
        # fixing one fractional column of the n=20 def root: the warm
        # re-solve from the root basis needs fewer simplex iterations than
        # the same LP solved cold on a fresh model
        nits = self.nits(monkeypatch)
        inst = generate_small_world(20, 4, 0.1, 0.5, seed=3)
        model = bnc.assemble(inst, "def")
        root = solve_lp(model)
        k = next(k for k in range(inst.n, inst.ncols) if 1e-6 < root.values[k] < 1 - 1e-6)
        fixed = {k: (1.0, 1.0)}
        warm = solve_lp(model, fixed, root.basis)
        warm_nit = nits[-1]
        cold = solve_lp(bnc.assemble(inst, "def"), fixed)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        assert warm_nit < nits[-1]
        # the basis given, not the handle's last one, is where a solve starts
        solve_lp(model, {k: (0.0, 0.0)}, root.basis)
        again = solve_lp(model, fixed, warm.basis)
        assert nits[-1] == 0
        assert again.objective == pytest.approx(warm.objective, rel=1e-9)

    def test_column_added_after_a_solve(self):
        m = small_model()  # min x, x >= 3
        first = solve_lp(m)
        y = m.add_var(lb=0.0, ub=10.0, obj=0.5)
        m.add_constraint({0: 1.0, y: 2.0}, ">=", 8.0)
        _, sol = check_against_oracle(m)
        assert sol.objective == pytest.approx(4.25)  # x = 3, y = 2.5
        _, capped = check_against_oracle(m, {y: (0.0, 1.0)}, sol.basis)
        assert capped.objective == pytest.approx(6.5)  # x = 6, y = 1
        with pytest.raises(RuntimeError, match="rejected"):
            solve_lp(m, basis=first.basis)  # a basis over fewer columns


class TestAnswerCheck:
    """solve_lp refuses an answer HiGHS calls optimal whose columns or rows
    leave their bounds by more than lp._CHECK_TOL.  The model is
    min y - x s.t. x <= 4, x + y = 4, with x, y in [0, 10]; HiGHS's answer
    x = 4, y = 0 is shifted before the check sees it."""

    @staticmethod
    def solve_shifted(monkeypatch, col_shift, row_shift):
        m = LPModel()
        x = m.add_var(lb=0.0, ub=10.0, obj=-1.0)
        y = m.add_var(lb=0.0, ub=10.0, obj=1.0)
        m.add_constraint({x: 1.0}, "<=", 4.0)
        m.add_constraint({x: 1.0, y: 1.0}, "=", 4.0)
        highs = lp.linprog

        def shifted(*args):
            res = highs(*args)
            assert (res.solution.col_value, res.solution.row_value) == ([4.0, 0.0], [4.0, 4.0])
            return res._replace(solution=SimpleNamespace(
                col_value=list(np.add(res.solution.col_value, col_shift)),
                row_value=list(np.add(res.solution.row_value, row_shift)),
                col_dual=res.solution.col_dual,
            ))

        with monkeypatch.context() as patch:
            patch.setattr(lp, "linprog", shifted)
            return solve_lp(m)

    def test_off_a_bound(self, monkeypatch):
        off = 10 * lp._CHECK_TOL
        for col_shift in ((0.0, -off), (np.nan, 0.0)):
            with pytest.raises(RuntimeError, match="breaks its bounds or rows"):
                self.solve_shifted(monkeypatch, col_shift, (0.0, 0.0))

    def test_off_a_row(self, monkeypatch):
        off = 10 * lp._CHECK_TOL
        for row_shift in ((off, 0.0), (0.0, off), (0.0, -off), (np.nan, 0.0), (0.0, np.nan)):
            with pytest.raises(RuntimeError, match="breaks its bounds or rows"):
                self.solve_shifted(monkeypatch, (0.0, 0.0), row_shift)

    def test_within_tolerance_accepted(self, monkeypatch):
        near = 0.5 * lp._CHECK_TOL
        for col_shift, row_shift in (((0.0, -near), (near, near)), ((0.0, 0.0), (0.0, -near))):
            sol = self.solve_shifted(monkeypatch, col_shift, row_shift)
            assert sol.optimal
            assert sol.values == [4.0, -near if col_shift[1] else 0.0]


class TestPrivateApi:
    def test_missing_bindings_name_the_scipy_requirement(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        spec = importlib.util.spec_from_file_location("lp_probe", lp.__file__)
        with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_missing_extension_file_names_the_folder(self, tmp_path):
        """A scipy without the HiGHS extension file fails `import lcim` with
        the same requirement, naming the folder that was searched."""
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        done = run_python("import lcim", tmp_path)
        assert done.returncode != 0
        error = done.stderr.strip().splitlines()[-1]
        assert error.startswith("ImportError: lcim needs scipy >= 1.15"), done.stderr
        assert str(tmp_path / "scipy" / "optimize" / "_highspy") in error

    def test_highs_reached_only_from_lp(self):
        for path in Path(lp.__file__).parent.glob("*.py"):
            text = path.read_text()
            if path.name != "lp.py":
                assert "_highspy" not in text, path.name
            assert "import linprog" not in text, path.name
