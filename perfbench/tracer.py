"""Per-layer spans recorded from outside the lcim package.

Each traced layer is a public function replaced, for the duration of each
traced solve, by a wrapper bound at the name its caller looks up: ``bnc``
calls ``solve_lp`` through its own module globals, so the LP layer is
wrapped as ``lcim.bnc.solve_lp``; ``lp`` calls ``linprog`` through its
globals, so HiGHS is wrapped as ``lcim.lp.linprog``; ``bnc`` calls the
separators as ``knapcuts.X`` / ``cyclecuts.X`` attributes, and the instance
accessors are looked up on the ``Instance`` class.

Wrapped calls are only recorded below a top-level span that the benchmark
opens itself around every solver call, so the correctness gate, the
reference LPs and the brute-force oracle do not pollute the layer numbers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class TraceError(RuntimeError):
    """The trace is inconsistent; its layer numbers cannot be trusted."""


class Tracer:
    def __init__(self):
        self._stack = []  # frames: [name, child seconds]
        self._installed = []  # (owner, attr, original)
        self.reset()

    def reset(self):
        """Forget everything recorded; wrappers stay installed."""
        self.calls = defaultdict(int)  # (parent, name) -> calls
        self.secs = defaultdict(float)  # (parent, name) -> seconds
        self.counters = defaultdict(int)  # counts and maxima set by hooks

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run fn as a top-level span; returns (result, seconds)."""
        if self._stack:
            raise TraceError(f"top-level span {name!r} opened inside {self._stack[-1][0]!r}")
        return self._run(name, fn, args, kwargs)

    def _run(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        if parent == name:
            raise TraceError(f"{name} is wrapped twice")
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if frame[1] > dur + 1e-9:
                raise TraceError(
                    f"children of {name} took {frame[1]:.6f}s of its {dur:.6f}s"
                )
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[parent, name] += 1
            self.secs[parent, name] += dur
        return result, dur

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr by a recording wrapper named `name`.

        on_result(tracer, args, result) may add counters.  Calls made while
        no top-level span is open pass straight through.
        """
        if any(o is owner and a == attr for o, a, _ in self._installed):
            raise TraceError(f"{name} is already wrapped")
        original = getattr(owner, attr)  # AttributeError if the name moved

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            result, _ = self._run(name, original, args, kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- aggregates --------------------------------------------------------

    def layer(self, name):
        """(calls, seconds) of a layer summed over every parent."""
        calls = sum(c for (_, n), c in self.calls.items() if n == name)
        secs = sum(s for (_, n), s in self.secs.items() if n == name)
        return calls, secs

    def self_seconds(self, name):
        """Time of top-level span `name` not covered by its direct children."""
        covered = sum(s for (p, _), s in self.secs.items() if p == name)
        return self.secs[None, name] - covered


def install_lcim(tracer, lcim):
    """Wrap every traced layer of the solve path at its lookup name."""
    bnc, lp, knapcuts, cyclecuts, instance = (
        lcim.bnc, lcim.lp, lcim.knapcuts, lcim.cyclecuts, lcim.instance,
    )

    def on_solve_lp(tr, args, result):
        tr.counters["lp.rows.max"] = max(tr.counters["lp.rows.max"], len(args[0].rows))

    def on_linprog(tr, args, result):
        tr.counters["lp.simplex_iters"] += int(result.nit)

    def on_hit(key):
        def hook(tr, args, result):
            if result is not None:
                tr.counters[key] += 1
        return hook

    def on_cycles(tr, args, result):
        tr.counters["cyclecuts.find_violated_cycles_fractional.cycles"] += len(result)

    tracer.wrap(bnc, "solve_lp", "lp.solve_lp", on_solve_lp)
    tracer.wrap(lp, "linprog", "lp.highs", on_linprog)
    tracer.wrap(knapcuts, "separate_mis", "knapcuts.separate_mis",
                on_hit("knapcuts.separate_mis.hits"))
    tracer.wrap(knapcuts, "cover_from_mis", "knapcuts.cover_from_mis")
    tracer.wrap(knapcuts, "packing_from_cover", "knapcuts.packing_from_cover")
    tracer.wrap(cyclecuts, "find_violated_cycles_fractional",
                "cyclecuts.find_violated_cycles_fractional", on_cycles)
    tracer.wrap(cyclecuts, "separate_uc", "cyclecuts.separate_uc",
                on_hit("cyclecuts.separate_uc.hits"))
    tracer.wrap(cyclecuts, "find_violated_cycle_integer",
                "cyclecuts.find_violated_cycle_integer")
    for fn in ("assemble", "root_cut_loop", "greedy_incumbent", "branch"):
        tracer.wrap(bnc, fn, f"bnc.{fn}")
    tracer.wrap(instance.Instance, "node_view", "instance.node_view")
    tracer.wrap(instance.Instance, "neighbors", "instance.neighbors")


def layer_metrics(tracer, nodes, cuts):
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    m = {}

    def timed(name):
        calls, secs = tracer.layer(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = secs
        return calls

    lp_calls = timed("lp.solve_lp")
    _, highs = tracer.layer("lp.highs")
    m["lp.highs.s"] = highs
    m["lp.build.s"] = m["lp.solve_lp.s"] - highs
    m["lp.simplex_iters"] = tracer.counters["lp.simplex_iters"]
    m["lp.rows.max"] = tracer.counters["lp.rows.max"]

    mis_calls = timed("knapcuts.separate_mis")
    hits = tracer.counters["knapcuts.separate_mis.hits"]
    m["knapcuts.separate_mis.hits"] = hits
    m["knapcuts.separate_mis.hit_rate"] = hits / mis_calls if mis_calls else 0.0
    timed("knapcuts.cover_from_mis")
    timed("knapcuts.packing_from_cover")

    timed("cyclecuts.find_violated_cycles_fractional")
    m["cyclecuts.find_violated_cycles_fractional.cycles"] = tracer.counters[
        "cyclecuts.find_violated_cycles_fractional.cycles"
    ]
    timed("cyclecuts.separate_uc")
    m["cyclecuts.separate_uc.hits"] = tracer.counters["cyclecuts.separate_uc.hits"]
    timed("cyclecuts.find_violated_cycle_integer")

    for fn in ("assemble", "root_cut_loop", "greedy_incumbent"):
        m[f"bnc.{fn}.s"] = tracer.layer(f"bnc.{fn}")[1]
    m["bnc.root.lp_solves"] = tracer.calls["bnc.root_cut_loop", "lp.solve_lp"]
    timed("bnc.branch")
    m["bnc.tree.self_s"] = tracer.self_seconds("solve")
    m["bnc.lp_per_node"] = lp_calls / nodes if nodes else 0.0
    for family in ("cover", "packing", "mis", "gcec", "uc"):
        m[f"bnc.cuts.{family}"] = cuts.get(family, 0)

    timed("instance.node_view")
    timed("instance.neighbors")
    return m

