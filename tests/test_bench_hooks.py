"""The benchmark in perfbench/ reaches into lcim by name; these checks fail
here, and not only when the benchmark runs, when one of those names moves."""

from pathlib import Path

import lcim
from lcim import bnc, demo
from lcim.bnc import SolveParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_solve_passes_the_gate(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import tracer

    inst = demo.demo_instance()
    trace = tracer.Tracer()
    try:
        tracer.install_lcim(trace, lcim)  # AttributeError when a name moved
        report, _ = trace.span(
            "solve", bnc.solve, inst, "cb", SolveParams(time_limit=60)
        )
    finally:
        trace.uninstall()
    assert gate.check_report(inst, report) == []
    for layer in ("lp.solve_lp", "lp.highs", "instance.node_view", "instance.neighbors"):
        calls, _ = trace.layer(layer)
        assert calls > 0, layer
    assert trace.counters["lp.simplex_iters"] > 0  # the HiGHS layer's nit got through
    assert bnc.solve_lp is lcim.lp.solve_lp  # uninstalled
