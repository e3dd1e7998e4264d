"""Bounded-variable linear programs and their solution.

All relaxations in this package (branch-and-bound nodes, root cut loops,
tree-hull integrality checks) go through `LPModel`/`solve_lp`.  Each model
owns one HiGHS instance, reached through the bindings bundled with scipy
(`scipy.optimize._highspy._core`, a private module shipped since scipy
1.15); this is the only module that touches it.  `solve_lp` hands HiGHS
the model as it stands and runs its dual simplex from a cold start, with
the options, row order and checks of scipy's
``linprog(method="highs-ds")``, so it returns the optimal basic solutions
that function returns; tests/test_lp.py keeps it as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

try:
    import scipy.optimize._highspy._core as _h
except ImportError as exc:
    raise ImportError(
        "lcim needs scipy >= 1.15: it solves LPs through the HiGHS bindings "
        "that scipy bundles as scipy.optimize._highspy._core"
    ) from exc

__all__ = ["LPModel", "LPSolution", "solve_lp"]

_SENSES = ("<=", ">=", "=")

# The options scipy's linprog(method="highs-ds") sets, given once per handle.
_OPTIONS = (
    ("presolve", "on"),
    ("solver", "simplex"),
    ("simplex_strategy", int(_h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
    ("output_flag", False),
    ("log_to_console", False),
)

# An "optimal" x off its bounds or rows by more than this is a solver fault
# (scipy's linprog check: ten times the square root of its 1e-9 tolerance).
_CHECK_TOL = np.sqrt(1e-9) * 10

_OPTIMAL = _h.HighsModelStatus.kOptimal
_INFEASIBLE = _h.HighsModelStatus.kInfeasible
_UNBOUNDED = _h.HighsModelStatus.kUnbounded
_AT_LOWER = int(_h.HighsBasisStatus.kLower)
_AT_UPPER = int(_h.HighsBasisStatus.kUpper)


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: list  # value per column, as Python floats; empty unless optimal
    objective: float
    dual_objective: float = None

    @property
    def optimal(self):
        return self.status == "optimal"


class LPModel:
    """A minimization LP over columns 0, 1, ... with explicit bounds and
    sparse rows; the column names serve only `dump`.  The model owns the
    HiGHS handle its solves run on, so one model is solved by one thread at
    a time."""

    def __init__(self):
        self.var_names = []
        self.lower = []
        self.upper = []
        self.obj = []
        self.rows = []  # (coeffs dict column -> coefficient, sense, rhs)
        # CSR pieces of the rows per sense, kept as rows are added; ">=" rows
        # are stored negated, as the "<=" rows they become for the solver
        self._csr = {sense: ([0], [], [], []) for sense in _SENSES}
        self._lp = None  # HighsLp of the current columns and rows, built on demand
        self._highs = _h._Highs()
        for option, value in _OPTIONS:
            if self._highs.setOptionValue(option, value) != _h.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option {option}={value!r}")

    # -- construction ------------------------------------------------------

    def add_var(self, name, lb=0.0, ub=None, obj=0.0):
        """Append a variable; returns its column."""
        if name in self.var_names:
            raise ValueError(f"duplicate variable {name!r}")
        if ub is not None and lb > ub:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        if not np.isfinite(obj):
            raise ValueError(f"non-finite objective coefficient on variable {name!r}")
        self.var_names.append(name)
        self.lower.append(float(lb))
        self.upper.append(np.inf if ub is None else float(ub))
        self.obj.append(float(obj))
        self._lp = None
        return len(self.var_names) - 1

    def add_constraint(self, coeffs, sense, rhs):
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        columns = range(len(self.var_names))
        for k, c in coeffs.items():
            if k not in columns:
                raise ValueError(f"constraint references unknown column {k!r}")
            if not np.isfinite(c):
                raise ValueError(f"non-finite coefficient on column {k}")
        if coeffs:
            self.rows.append((dict(coeffs), sense, float(rhs)))
            indptr, cols, vals, rhss = self._csr[sense]
            sign = -1.0 if sense == ">=" else 1.0
            for k, c in coeffs.items():
                cols.append(k)
                vals.append(sign * c)
            indptr.append(len(cols))
            rhss.append(sign * float(rhs))
            self._lp = None

    def set_bounds(self, k, lb, ub):
        self.lower[k] = float(lb)
        self.upper[k] = float(ub)

    def bounds(self, k):
        return self.lower[k], self.upper[k]

    # -- debugging dump ----------------------------------------------------

    def dump(self):
        """Row-oriented sparse text form, for debugging only."""
        out = ["min " + " + ".join(f"{c:g}*{v}" for v, c in zip(self.var_names, self.obj) if c)]
        for coeffs, sense, rhs in self.rows:
            lhs = " + ".join(f"{c:g}*{self.var_names[k]}" for k, c in sorted(coeffs.items()))
            out.append(f"{lhs} {sense} {rhs:g}")
        for v, lo, hi in zip(self.var_names, self.lower, self.upper):
            out.append(f"{lo:g} <= {v} <= {hi:g}")
        return "\n".join(out)

    # -- the HiGHS form ----------------------------------------------------

    def _highs_lp(self):
        """The model's costs and rows as a row-wise HighsLp: the "<=" rows,
        then the ">=" rows negated, then the "=" rows, as scipy's linprog
        orders them.  Rebuilt only after a row or column was added; the
        column bounds are set per solve."""
        if self._lp is None:
            starts, cols, vals, lower, upper = [0], [], [], [], []
            for sense in _SENSES:
                p_indptr, p_cols, p_vals, p_rhs = self._csr[sense]
                starts += [k + len(cols) for k in p_indptr[1:]]
                cols += p_cols
                vals += p_vals
                upper += p_rhs
                lower += p_rhs if sense == "=" else [-_h.kHighsInf] * len(p_rhs)
            lp = _h.HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = len(self.var_names)
            lp.num_row_ = lp.a_matrix_.num_row_ = len(upper)
            lp.a_matrix_.format_ = _h.MatrixFormat.kRowwise
            lp.a_matrix_.start_ = np.array(starts, dtype=np.int32)
            lp.a_matrix_.index_ = np.array(cols, dtype=np.int32)
            lp.a_matrix_.value_ = np.array(vals, dtype=float)
            lp.col_cost_ = np.array(self.obj)
            lp.row_lower_ = np.array(lower, dtype=float)
            lp.row_upper_ = np.array(upper, dtype=float)
            self._lp = lp
        return self._lp


class HighsResult(NamedTuple):
    """What one HiGHS run reports; solution and basis only when optimal."""

    status: object  # HighsModelStatus
    nit: int  # simplex iterations
    fun: float = None
    solution: object = None  # HighsSolution
    basis: object = None  # HighsBasis


def linprog(highs, lp):
    """Load `lp` into the handle `highs`, solve it from a cold start and
    read the outcome.

    The name is kept from scipy's `linprog`, which this replaces: the
    benchmark's tracer wraps `lcim.lp.linprog` as its HiGHS layer and sums
    the `nit` of its results, so every HiGHS call of a solve sits in here.
    """
    if highs.passModel(lp) == _h.HighsStatus.kError:
        raise RuntimeError("LP solver failed: HiGHS rejected the model")
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status != _OPTIMAL:
        return HighsResult(status, nit)
    return HighsResult(
        status, nit, info.objective_function_value, highs.getSolution(), highs.getBasis()
    )


def solve_lp(model, bound_overrides=None):
    """Solve the model, returning an optimal basic solution when one exists.

    bound_overrides optionally maps columns to (lb, ub) pairs used for this
    solve only (branching without copying the model).  The solution's
    values are a list indexed by column.  HiGHS solves the model from a
    cold start on the model's own handle; an answer it calls optimal that
    breaks a bound or row by more than `_CHECK_TOL`, and any outcome other
    than optimal, infeasible or unbounded, raise RuntimeError.
    """
    lower = np.array(model.lower)
    upper = np.array(model.upper)
    if bound_overrides:
        for k, (lo, hi) in bound_overrides.items():
            lower[k] = lo
            upper[k] = hi
    lp = model._highs_lp()
    lp.col_lower_ = lower
    lp.col_upper_ = upper

    res = linprog(model._highs, lp)

    if res.status == _INFEASIBLE:
        return LPSolution(status="infeasible", values=[], objective=np.inf)
    if res.status == _UNBOUNDED:
        return LPSolution(status="unbounded", values=[], objective=-np.inf)
    if res.status != _OPTIMAL:
        raise RuntimeError(
            f"LP solver failed: HiGHS status {model._highs.modelStatusToString(res.status)}"
        )

    x = np.array(res.solution.col_value)
    row_upper = np.array(lp.row_upper_)
    residual = row_upper - np.array(res.solution.row_value)
    n_ub = len(model._csr["<="][3]) + len(model._csr[">="][3])
    if not _feasible(x, res.fun, lower, upper, residual, n_ub):
        raise RuntimeError(
            "LP solver failed: the optimal solution breaks its bounds or rows "
            f"by more than {_CHECK_TOL:.2E}"
        )

    # dual objective: row duals against the row bounds, column duals
    # against the bound each nonbasic column sits at
    row_dual = np.array(res.solution.row_dual)
    col_dual = np.array(res.solution.col_dual)
    col_status = np.array([int(s) for s in res.basis.col_status])
    dual = float(row_upper[:n_ub] @ row_dual[:n_ub]) + float(row_upper[n_ub:] @ row_dual[n_ub:])
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    at_lo = np.where(col_status == _AT_LOWER, col_dual, 0.0)
    at_hi = np.where(col_status == _AT_UPPER, col_dual, 0.0)
    dual += float(lower[finite_lo] @ at_lo[finite_lo])
    dual += float(upper[finite_hi] @ at_hi[finite_hi])
    return LPSolution(
        status="optimal", values=x.tolist(), objective=float(res.fun), dual_objective=dual
    )


def _feasible(x, fun, lower, upper, residual, n_ub):
    """Whether x, with row residuals rhs - Ax (the first n_ub rows "<=",
    the rest "="), keeps its bounds and rows within `_CHECK_TOL`."""
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(residual).any():
        return False
    tol = _CHECK_TOL
    return bool(
        np.all((x >= lower - tol) & (x <= upper + tol))
        and not (residual[:n_ub] < -tol).any()
        and not (np.abs(residual[n_ub:]) > tol).any()
    )
