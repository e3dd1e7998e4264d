"""Bounded-variable linear programs and their solution.

All relaxations in this package (branch-and-bound nodes, root cut loops,
tree-hull integrality checks) go through `LPModel`/`solve_lp`.  Each model
owns one HiGHS instance, reached through the bindings bundled with scipy
(`scipy.optimize._highspy._core`, a private module shipped since scipy
1.15); this is the only module that touches it.  `solve_lp` hands HiGHS
the model as it stands and runs its dual simplex from a cold start, with
the options, row order and checks of scipy's
``linprog(method="highs-ds")``, so it returns the optimal basic solutions
that function returns; tests/test_lp.py keeps it as the oracle.  A solve
reads back the status, iteration count, column values and objective only.
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


@dataclass
class LPSolution:
    """The outcome of one solve: an optimal basic solution's column values
    and objective, or +inf (infeasible) or -inf (unbounded) and no values."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: list  # value per column, as Python floats; empty unless optimal
    objective: float

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
        self._lp = None  # HighsLp of the current columns and rows, built on demand
        self._highs = _h._Highs()
        for option, value in _OPTIONS:
            if self._highs.setOptionValue(option, value) != _h.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option {option}={value!r}")

    # -- construction ------------------------------------------------------

    def add_var(self, name, lb=0.0, ub=None, obj=0.0):
        """Append a variable; returns its column.  ub=None means +inf."""
        if name in self.var_names:
            raise ValueError(f"duplicate variable {name!r}")
        lb = float(lb)
        ub = np.inf if ub is None else float(ub)
        if not lb <= ub or lb == np.inf or ub == -np.inf:
            raise ValueError(f"variable {name!r} has no value in bounds [{lb}, {ub}]")
        if not np.isfinite(obj):
            raise ValueError(f"non-finite objective coefficient on variable {name!r}")
        self.var_names.append(name)
        self.lower.append(lb)
        self.upper.append(ub)
        self.obj.append(float(obj))
        self._lp = None
        return len(self.var_names) - 1

    def add_constraint(self, coeffs, sense, rhs):
        """Append the row sum(coeffs[k] * x_k) `sense` rhs.  A row without
        coefficients is dropped when 0 satisfies it and rejected otherwise."""
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        if not np.isfinite(rhs):
            raise ValueError(f"non-finite right-hand side {rhs}")
        columns = range(len(self.var_names))
        for k, c in coeffs.items():
            if k not in columns:
                raise ValueError(f"constraint references unknown column {k!r}")
            if not np.isfinite(c):
                raise ValueError(f"non-finite coefficient on column {k}")
        if coeffs:
            self.rows.append((dict(coeffs), sense, float(rhs)))
            self._lp = None
        elif not {"<=": 0.0 <= rhs, ">=": 0.0 >= rhs, "=": 0.0 == rhs}[sense]:
            raise ValueError(f"empty row 0 {sense} {rhs} cannot hold")

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
            for coeffs, sense, rhs in sorted(self.rows, key=lambda row: _SENSES.index(row[1])):
                sign = -1.0 if sense == ">=" else 1.0
                cols += coeffs
                vals += [sign * c for c in coeffs.values()]
                starts.append(len(cols))
                upper.append(sign * rhs)
                lower.append(rhs if sense == "=" else -_h.kHighsInf)
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
    """What one HiGHS run reports; objective and solution only when
    optimal."""

    status: object  # HighsModelStatus
    nit: int  # simplex iterations
    fun: float = None
    solution: object = None  # HighsSolution: col_value and row_value are read


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
    return HighsResult(status, nit, info.objective_function_value, highs.getSolution())


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
    if not _feasible(lp, res):
        raise RuntimeError(
            "LP solver failed: the optimal solution breaks its bounds or rows "
            f"by more than {_CHECK_TOL:.2E}"
        )
    return LPSolution(status="optimal", values=res.solution.col_value, objective=float(res.fun))


def _feasible(lp, res):
    """Whether the column values and row activities of an optimal `res`
    lie within `_CHECK_TOL` of the bounds `lp` gives them; NaN fails."""
    value = np.concatenate([res.solution.col_value, res.solution.row_value])
    lower = np.concatenate([lp.col_lower_, lp.row_lower_]) - _CHECK_TOL
    upper = np.concatenate([lp.col_upper_, lp.row_upper_]) + _CHECK_TOL
    return not np.isnan(res.fun) and bool(np.all((value >= lower) & (value <= upper)))
