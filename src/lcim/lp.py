"""Bounded-variable linear programs and their solution.

All relaxations in this package (branch-and-bound nodes, branching probes,
root cut loops, tree-hull integrality checks) go through
`LPModel`/`solve_lp`.  A model knows its variables as columns 0, 1, ...
only; their names, for printing, are the instance's (`Instance.var_names`).
Each model owns one HiGHS instance, reached through the bindings bundled
with scipy (`scipy.optimize._highspy._core`, a private extension module
shipped since scipy 1.15); this is the only module that touches it.  The
extension is loaded from its file and registered under its own name,
without running the `scipy.optimize` package (linprog, linalg and the
rest, which no solve uses, take most of scipy's start-up); a later
``import scipy.optimize`` finds and shares the same module.
The handle holds the model itself: each column and row goes to it when it
is added, so the handle and the model's Python lists never disagree, and
one thread builds and solves a model.  A solve sets every column bound and
runs HiGHS's dual simplex, with the options of scipy's
``linprog(method="highs-ds")``, warm from a given basis or from the
handle's last one.  Only the first solve of a model starts cold (with
presolve); HiGHS skips presolve when it holds a valid basis.  A solve
reads back the status, iteration count, column and row values, the
columns' reduced costs, objective and optimal basis only.
tests/test_lp.py keeps ``linprog`` as the oracle.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np

_CORE = "scipy.optimize._highspy._core"


def _load_highs():
    """The module `_CORE`: the one in sys.modules if it is there, else
    loaded from scipy's ``optimize/_highspy`` folder and registered.  A None
    entry in sys.modules (an import blocked on purpose), or no scipy or no
    extension file, raises ImportError naming the scipy requirement."""
    if _CORE in sys.modules:
        module = sys.modules[_CORE]
        if module is None:
            raise _needs_scipy(f"{_CORE} is None in sys.modules")
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise _needs_scipy("scipy is not installed")
    folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_CORE)
    if spec is None or spec.loader is None:
        raise _needs_scipy(f"no extension module _core in {folder}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_CORE] = module
    return module


def _needs_scipy(reason):
    return ImportError(
        "lcim needs scipy >= 1.15: it solves LPs through the HiGHS bindings "
        f"that scipy bundles as {_CORE} ({reason})"
    )


_h = _load_highs()

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
_BASIC = _h.HighsBasisStatus.kBasic
_ERROR = _h.HighsStatus.kError


class Basis(NamedTuple):
    """An optimal basis as HiGHS reports it, and how many rows it covers."""

    highs: object  # HighsBasis
    rows: int


@dataclass
class LPSolution:
    """The outcome of one solve: an optimal basic solution's column values,
    reduced costs, objective and basis, or +inf (infeasible) or -inf
    (unbounded) and no values, reduced costs or basis."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: list  # value per column, as Python floats; empty unless optimal
    objective: float
    basis: Basis = None  # a start for later solves of the same model
    # reduced cost d_k per column, as Python floats: >= 0 at a lower bound,
    # <= 0 at an upper one; empty unless optimal
    reduced_costs: list = ()

    @property
    def optimal(self):
        return self.status == "optimal"


class LPModel:
    """A minimization LP over columns 0, 1, ... with explicit bounds and
    sparse rows.  The model owns a HiGHS handle that holds every column and
    row from the moment it is added, so one thread builds and solves a
    model."""

    def __init__(self):
        self.lower = []
        self.upper = []
        self.obj = []
        self.rows = []  # (coeffs dict column -> coefficient, sense, rhs)
        self.solves = 0  # LPs solved on this model
        # row bounds, for the answer check
        self._row_lower = []
        self._row_upper = []
        self._arrays = None  # `bounds()`, built again after a column or row is added
        self._highs = _h._Highs()
        for option, value in _OPTIONS:
            if self._highs.setOptionValue(option, value) != _h.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option {option}={value!r}")

    def add_var(self, lb=0.0, ub=None, obj=0.0):
        """Append a column and give it to the handle; returns it.  ub=None
        means +inf."""
        col = len(self.obj)
        lb = float(lb)
        ub = np.inf if ub is None else float(ub)
        if not lb <= ub or lb == np.inf or ub == -np.inf:
            raise ValueError(f"column {col} has no value in bounds [{lb}, {ub}]")
        if not np.isfinite(obj):
            raise ValueError(f"non-finite objective coefficient on column {col}")
        if self._highs.addCol(float(obj), lb, ub, 0, [], []) == _ERROR:
            raise ValueError(f"HiGHS rejected column {col} with bounds [{lb}, {ub}]")
        self.lower.append(lb)
        self.upper.append(ub)
        self.obj.append(float(obj))
        self._arrays = None
        return col

    def add_constraint(self, coeffs, sense, rhs):
        """Append the row sum(coeffs[k] * x_k) `sense` rhs and give it to the
        handle.  A row without coefficients is dropped when 0 satisfies it
        and rejected otherwise.  A row's bounds follow its sense: ">=" is
        [rhs, inf], "<=" is [-inf, rhs], "=" is [rhs, rhs]."""
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        if not np.isfinite(rhs):
            raise ValueError(f"non-finite right-hand side {rhs}")
        columns = range(len(self.obj))
        for k, c in coeffs.items():
            if k not in columns:
                raise ValueError(f"constraint references unknown column {k!r}")
            if not np.isfinite(c):
                raise ValueError(f"non-finite coefficient on column {k}")
        rhs = float(rhs)
        if not coeffs:
            if not {"<=": 0.0 <= rhs, ">=": 0.0 >= rhs, "=": 0.0 == rhs}[sense]:
                raise ValueError(f"empty row 0 {sense} {rhs} cannot hold")
            return
        lower = -np.inf if sense == "<=" else rhs
        upper = np.inf if sense == ">=" else rhs
        if self._highs.addRow(lower, upper, len(coeffs), list(coeffs),
                              list(coeffs.values())) == _ERROR:
            raise ValueError(f"HiGHS rejected row {len(self.rows)}: it takes coefficients "
                             "below 1e15 and a right-hand side below 1e20 in magnitude")
        self.rows.append((dict(coeffs), sense, rhs))
        self._row_lower.append(lower)
        self._row_upper.append(upper)
        self._arrays = None

    def bounds(self):
        """(lower, upper, columns): every column's bounds followed by every
        row's as two float arrays, and the column indices as int32, kept
        until a column or row is added; callers copy before they write."""
        if self._arrays is None:
            self._arrays = (
                np.array(self.lower + self._row_lower),
                np.array(self.upper + self._row_upper),
                np.arange(len(self.obj), dtype=np.int32),
            )
        return self._arrays


class HighsResult(NamedTuple):
    """What one HiGHS run reports; objective, solution and basis only when
    optimal."""

    status: object  # HighsModelStatus
    nit: int  # simplex iterations
    fun: float = None
    solution: object = None  # HighsSolution: col_value, row_value and col_dual are read
    basis: object = None  # HighsBasis


def linprog(highs, lower, upper, basis, columns):
    """Solve on the handle `highs` and read the outcome.

    lower and upper are every column's bounds for this solve, and basis a
    HighsBasis over every column and row to start from, or None to start
    from the handle's own.  columns holds the column indices 0 .. n-1 as
    int32, as `LPModel.bounds` keeps them.

    The name is kept from scipy's `linprog`, which this replaces: the
    benchmark's tracer wraps `lcim.lp.linprog` as its HiGHS layer and sums
    the `nit` of its results, so every HiGHS call of a solve sits in here.
    The iteration count and objective are read one value each, not through
    the whole HighsInfo record.
    """
    calls = [highs.changeColsBounds(len(columns), columns, lower, upper)]
    if basis is not None:
        calls.append(highs.setBasis(basis))
    if _ERROR in calls:
        raise RuntimeError("LP solver failed: HiGHS rejected the bounds or basis")
    highs.run()
    status = highs.getModelStatus()
    nit = highs.getInfoValue("simplex_iteration_count")[1]
    if status != _OPTIMAL:
        return HighsResult(status, nit)
    return HighsResult(status, nit, highs.getObjectiveValue(), highs.getSolution(),
                       highs.getBasis())


def solve_lp(model, bound_overrides=None, basis=None):
    """Solve the model, returning an optimal basic solution when one exists.

    bound_overrides optionally maps columns to (lb, ub) pairs used for this
    solve only (branching without copying the model).  basis, the `basis`
    of an earlier solution of this model, is where the dual simplex starts,
    with the slacks of rows added since made basic (HiGHS rejects a basis
    taken before a column was added); without one it starts from the
    handle's last basis.  The solution's values and reduced costs are
    lists indexed by column.  An answer HiGHS calls optimal that breaks a bound
    or row by more than `_CHECK_TOL`, and any outcome other than optimal,
    infeasible or unbounded, raise RuntimeError.
    """
    lower, upper, columns = model.bounds()
    if bound_overrides:
        lower, upper = lower.copy(), upper.copy()
        for k, (lo, hi) in bound_overrides.items():
            lower[k] = lo
            upper[k] = hi
    ncols, nrows = len(columns), len(model.rows)
    start = None
    if basis is not None:
        start = basis.highs if basis.rows == nrows else _extended(basis, nrows)

    model.solves += 1
    res = linprog(model._highs, lower[:ncols], upper[:ncols], start, columns)

    if res.status == _INFEASIBLE:
        return LPSolution(status="infeasible", values=[], objective=np.inf)
    if res.status == _UNBOUNDED:
        return LPSolution(status="unbounded", values=[], objective=-np.inf)
    if res.status != _OPTIMAL:
        raise RuntimeError(
            f"LP solver failed: HiGHS status {model._highs.modelStatusToString(res.status)}"
        )
    values = res.solution.col_value
    if np.isnan(res.fun) or not _feasible(
        np.concatenate([values, res.solution.row_value]), lower, upper
    ):
        raise RuntimeError(
            "LP solver failed: the optimal solution breaks its bounds or rows "
            f"by more than {_CHECK_TOL:.2E}"
        )
    return LPSolution(
        status="optimal",
        values=values,
        objective=float(res.fun),
        basis=Basis(res.basis, nrows),
        reduced_costs=res.solution.col_dual,
    )


def _extended(basis, nrows):
    """The HighsBasis of `basis` grown to nrows rows, the slacks of the new
    rows basic."""
    full = _h.HighsBasis()
    full.valid = True
    full.alien = False
    full.col_status = basis.highs.col_status
    full.row_status = basis.highs.row_status + [_BASIC] * (nrows - basis.rows)
    return full


def _feasible(value, lower, upper):
    """Whether every value lies within `_CHECK_TOL` of its bounds; NaN
    fails."""
    return bool(np.all((value >= lower - _CHECK_TOL) & (value <= upper + _CHECK_TOL)))
