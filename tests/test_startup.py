"""Start-up: `import lcim` loads numpy and scipy's HiGHS extension module,
not the `scipy.optimize` package or networkx, and shares that module with
scipy whichever is imported first.  Each check runs in a fresh interpreter."""

import pytest

from conftest import run_python


def check(code):
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["lcim", "lcim.cli"])
def test_import_leaves_out_scipy_optimize_and_networkx(module):
    out = check(
        f"import sys, {module}\n"
        "print(sorted(m for m in ('scipy', 'scipy.optimize', 'networkx') if m in sys.modules))"
    )
    assert out.split() == ["[]"]


def test_scipy_optimize_first_is_shared():
    check(
        "import sys, scipy.optimize, lcim\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "assert lcim.lp._h is core is scipy.optimize._highspy._core\n"
    )


def test_scipy_optimize_after_lcim_solves_and_shares():
    check(
        "import lcim, numpy as np\n"
        "from scipy.optimize import Bounds, LinearConstraint, linprog, milp\n"
        "from scipy.optimize._highspy import _highs_wrapper\n"
        "import scipy.optimize._highspy._core as core\n"
        "assert lcim.lp._h is core is _highs_wrapper._h\n"
        "res = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1.5], bounds=(0, None))\n"
        "assert res.status == 0 and abs(res.fun - 1.5) < 1e-9, res\n"
        "res = milp([-1, -2], constraints=LinearConstraint([[1, 1]], ub=3.5),\n"
        "           integrality=[1, 1], bounds=Bounds(0, 2))\n"
        "assert res.status == 0 and np.allclose(res.x, [1, 2]), res\n"
        "m = lcim.LPModel()\n"
        "x = m.add_var(obj=1.0)\n"
        "m.add_constraint({x: 1.0}, '>=', 3.0)\n"
        "assert lcim.solve_lp(m).objective == 3.0\n"
    )
