"""Bounded-variable linear programs and their solution.

All relaxations in this package (branch-and-bound nodes, root cut loops,
tree-hull integrality checks) go through `LPModel`/`solve_lp`.  The heavy
lifting is delegated to the HiGHS dual simplex via scipy, which returns
optimal basic solutions; the model object is the stable surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

__all__ = ["LPModel", "LPSolution", "solve_lp"]

FEAS_TOL = 1e-7

_SENSES = ("<=", ">=", "=")


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
    sparse rows; the column names serve only `dump`."""

    def __init__(self):
        self.var_names = []
        self.lower = []
        self.upper = []
        self.obj = []
        self.rows = []  # (coeffs dict column -> coefficient, sense, rhs)
        # CSR pieces of the rows per sense, kept as rows are added; ">=" rows
        # are stored negated, as the "<=" rows they become for the solver
        self._csr = {sense: ([0], [], [], []) for sense in _SENSES}

    # -- construction ------------------------------------------------------

    def add_var(self, name, lb=0.0, ub=None, obj=0.0):
        """Append a variable; returns its column."""
        if name in self.var_names:
            raise ValueError(f"duplicate variable {name!r}")
        if ub is not None and lb > ub:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        self.var_names.append(name)
        self.lower.append(float(lb))
        self.upper.append(np.inf if ub is None else float(ub))
        self.obj.append(float(obj))
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


def _csr_rows(parts, nvars):
    """The rows of the (indptr, cols, vals, rhs) parts, stacked in order, as
    a CSR matrix and a right-hand side; (None, None) when there are none."""
    indptr, cols, vals, rhs = [0], [], [], []
    for p_indptr, p_cols, p_vals, p_rhs in parts:
        indptr += [k + len(cols) for k in p_indptr[1:]]
        cols += p_cols
        vals += p_vals
        rhs += p_rhs
    if not rhs:
        return None, None
    return csr_matrix((vals, cols, indptr), shape=(len(rhs), nvars)), np.array(rhs)


def solve_lp(model, bound_overrides=None):
    """Solve the model, returning an optimal basic solution when one exists.

    bound_overrides optionally maps columns to (lb, ub) pairs used for this
    solve only (branching without copying the model).  The solution's
    values are a list indexed by column.
    """
    nvars = len(model.var_names)
    lower = np.array(model.lower)
    upper = np.array(model.upper)
    if bound_overrides:
        for k, (lo, hi) in bound_overrides.items():
            lower[k] = lo
            upper[k] = hi

    # the solver takes "<=" rows first, then ">=" rows negated, then "="
    a_ub, b_ub = _csr_rows([model._csr["<="], model._csr[">="]], nvars)
    a_eq, b_eq = _csr_rows([model._csr["="]], nvars)

    res = linprog(
        c=np.array(model.obj),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lower, upper]),
        method="highs-ds",
    )

    if res.status == 2:
        return LPSolution(status="infeasible", values=[], objective=np.inf)
    if res.status == 3:
        return LPSolution(status="unbounded", values=[], objective=-np.inf)
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")

    values = res.x.tolist()
    try:
        dual = 0.0
        if a_ub is not None:
            dual += float(b_ub @ res.ineqlin.marginals)
        if a_eq is not None:
            dual += float(b_eq @ res.eqlin.marginals)
        finite_lo = np.isfinite(lower)
        finite_hi = np.isfinite(upper)
        dual += float(lower[finite_lo] @ res.lower.marginals[finite_lo])
        dual += float(upper[finite_hi] @ res.upper.marginals[finite_hi])
    except (AttributeError, TypeError):
        dual = None
    return LPSolution(status="optimal", values=values, objective=float(res.fun), dual_objective=dual)
