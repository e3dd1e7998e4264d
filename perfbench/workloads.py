"""The benchmark's workloads: which instances are solved, how, and checked
against what.

Every workload solves pinned instances.  Branch-and-bound tree size on a
fresh small-world graph varies by more than ten times from one graph seed
to the next (one point of the desk grid alone takes 327 s at seed 42), and
even relabelling the vertices of one graph moves the desk node counts by
about 18%, so a run seed that changed the graphs would swamp any change the
benchmark is meant to detect.  The run seed therefore only shuffles the
order in which a pass visits the solves; ``instance_seed`` (default 42)
picks the graphs and is changed by hand for an off-seed check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import lcim
from lcim import bnc
from lcim.bnc import SolveParams
from lcim.oracle import brute_force_optimum

import gate

PINNED_SEED = 42


@dataclass
class Task:
    label: str
    instance: object
    mode: str  # def | cb | ln
    optimum: float = None  # value the solve must prove, when known
    def_root: float = None  # def-formulation root LP bound (reference)


@dataclass
class Outcome:
    seconds: float  # wall time of the solver calls only
    nodes: int
    cuts: dict
    problems: list
    cb_root: float = None  # cb root bound, for the root metrics
    ub: float = None  # the bound cb_root is measured against


@dataclass
class Workload:
    name: str
    points: tuple  # (q, a) pairs
    n: int
    seed_offsets: tuple  # graph seeds are instance_seed + offset
    modes: callable  # a -> modes solved on instances with penetration a
    time_limit: float = None
    optima: dict = field(default_factory=dict)  # (q, a) -> optimum at PINNED_SEED
    uses_oracle: bool = False
    expected_layers: tuple = ()  # layers a traced pass must see called

    def build(self, instance_seed):
        """Generate (and thereby preprocess) the instances: the timed set-up."""
        tasks = []
        for q, a in self.points:
            for off in self.seed_offsets:
                inst = lcim.generate_small_world(self.n, 4, q, a, seed=instance_seed + off)
                label = f"q={q} a={a} seed={instance_seed + off}"
                for mode in self.modes(a):
                    optimum = self.optima.get((q, a)) if instance_seed == PINNED_SEED else None
                    tasks.append(Task(f"{label} {mode}", inst, mode, optimum))
        return tasks

    def prepare(self, tasks):
        """Reference values, computed once per run and never timed as solve
        time; returns the seconds spent in the brute-force oracle."""
        def_roots, optima = {}, {}
        oracle_s = 0.0
        for task in tasks:
            key = id(task.instance)
            if key not in def_roots:
                sol = lcim.solve_lp(lcim.assemble(task.instance, "def"))
                def_roots[key] = sol.objective if sol.optimal else None
                if self.uses_oracle:
                    t0 = time.perf_counter()
                    optima[key] = brute_force_optimum(task.instance)[0]
                    oracle_s += time.perf_counter() - t0
            task.def_root = def_roots[key]
            if self.uses_oracle:
                task.optimum = optima[key]
        return oracle_s

    def run(self, task, tracer):
        """Solve one task inside a top-level `solve` span and gate it."""
        params = SolveParams(time_limit=self.time_limit)
        report, secs = tracer.span("solve", bnc.solve, task.instance, task.mode, params)
        problems = gate.check_report(task.instance, report, task.optimum)
        cb_root = report.root_bound if task.mode == "cb" else None
        return Outcome(secs, report.nodes, dict(report.cuts), problems, cb_root, report.ub)


_SOLVE_LAYERS = (
    "lp.solve_lp", "lp.highs", "bnc.assemble", "bnc.root_cut_loop",
    "bnc.greedy_incumbent", "bnc.branch", "knapcuts.separate_mis",
    "knapcuts.cover_from_mis", "knapcuts.packing_from_cover",
    "cyclecuts.find_violated_cycles_fractional",
    "cyclecuts.find_violated_cycle_integer", "instance.node_view",
    "instance.neighbors",
)

WORKLOADS = {
    w.name: w
    for w in (
        # The tree workload: the three fastest points of the pinned desk grid
        # (2, 5 and 6 s; 356 nodes).  The other seven points take 17 to 327 s
        # each, too long to repeat within a 50 s run.
        Workload(
            name="desk-cb",
            points=((0.1, 0.1), (0.1, 0.25), (0.3, 0.1)),
            n=50,
            seed_offsets=(0,),
            modes=lambda a: ("cb",),
            time_limit=40.0,
            optima={(0.1, 0.1): 19, (0.1, 0.25): 37, (0.3, 0.1): 24},
            expected_layers=_SOLVE_LAYERS,
        ),
        # Many cold solves of ~50-variable LPs, the only workload running
        # def and ln, and the one where (U,C) cuts are separated.  Two graph
        # seeds (20 solves, 12 s) let a run repeat every solve; seed offset 1
        # alone takes 13 s, so the second graph is offset 2.
        Workload(
            name="small-oracle",
            points=((0.1, 0.5), (0.1, 1.0), (0.3, 0.5), (0.3, 1.0)),
            n=8,
            seed_offsets=(0, 2),
            modes=lambda a: ("def", "cb", "ln") if a == 1.0 else ("def", "cb"),
            time_limit=5.0,
            uses_oracle=True,
            expected_layers=_SOLVE_LAYERS + ("cyclecuts.separate_uc",),
        ),
    )
}
