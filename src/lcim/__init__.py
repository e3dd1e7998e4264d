"""Exact solver for least cost influence maximization (LCIM) on
bidirectional social graphs: instance tooling, knapsack and cycle cutting
planes with exact separation, polynomial special cases, and a
branch-and-cut engine.
"""

from .bnc import SolveParams, SolveReport, assemble, solve
from .instance import (
    Instance,
    NodeView,
    ParseError,
    generate_small_world,
    load,
    loads,
    make_instance,
    save,
)
from .knapcuts import (
    Inequality,
    build_cover_cut,
    build_mis_cut,
    build_packing_cut,
    separate_mis,
)
from .lp import LPModel, LPSolution, solve_lp
from .oracle import brute_force_optimum
from .special import build_tree_equal_model, dp_cycle

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "NodeView",
    "ParseError",
    "Inequality",
    "LPModel",
    "LPSolution",
    "SolveParams",
    "SolveReport",
    "assemble",
    "brute_force_optimum",
    "build_cover_cut",
    "build_mis_cut",
    "build_packing_cut",
    "build_tree_equal_model",
    "dp_cycle",
    "generate_small_world",
    "load",
    "loads",
    "make_instance",
    "save",
    "separate_mis",
    "solve",
    "solve_lp",
]
