"""LCIM branch-and-cut benchmark.

    python3 perfbench/run.py --workload desk-cb --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload, as a table

Run from the root of a source checkout: the solver is imported from its
``src/`` directory and nowhere else.  A run generates the workload's
instances (``workloads.py``), solves each of them at least once and keeps
cycling through them until ``--seconds`` are spent, checks every solve with
the gate in ``gate.py``, and prints as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts solves that raised, hit their time limit or failed a
check, out of ``attempted``.  ``solve_s`` sums, over the workload's
solves, the median time of each solve over its repeats.  A workload has 3
or 20 solves, too few for a latency percentile with ten solves beyond it.

``nodes`` sums branch-and-bound nodes.  ``root_gap_pct`` is the mean
100 * (opt - cb root) / opt and ``root_gain_pct`` the mean
100 * (cb root - def root) / def root, both over the cb solves.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no wrapper installed.  ``--trace 1`` reports the per-layer metrics
from passes in which every solve runs untraced and then traced
(``tracer.py``), including the tracing overhead as traced minus untraced
``solve_s``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import TraceError, Tracer, install_lcim, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
DEFAULT_SEED = 42
IMPORT_PROBE = "import time; t = time.perf_counter(); import lcim; print(time.perf_counter() - t)"


def import_lcim():
    """Import lcim from this checkout's src/, or exit with status 1 and no
    result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lcim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lcim from {src}: {exc}")
    if Path(lcim.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: lcim came from {lcim.__file__}, not from {src}")
    return lcim


def import_seconds():
    """Seconds a fresh interpreter spends in `import lcim` (median of several)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def setup(workload, instance_seed):
    """Time set-up (import plus instance generation) several times; returns
    (median seconds, tasks)."""
    gen = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tasks = workload.build(instance_seed)
        gen.append(time.perf_counter() - t0)
    return import_seconds() + statistics.median(gen), tasks


def run_task(workload, task, tracer):
    """Solve and gate one task; a solve that raises counts as failed."""
    from workloads import Outcome

    try:
        outcome = workload.run(task, tracer)
    except TraceError:
        raise
    except Exception as exc:
        traceback.print_exc()
        outcome = Outcome(0.0, 0, {}, [f"raised {exc!r}"])
    for problem in outcome.problems:
        print(f"{workload.name} {task.label}: {problem}", file=sys.stderr)
    return outcome


def pass_summary(tasks, outcomes):
    gaps = [100.0 * (o.ub - o.cb_root) / o.ub for o in outcomes if o.cb_root is not None]
    gains = [
        100.0 * (o.cb_root - t.def_root) / t.def_root
        for t, o in zip(tasks, outcomes)
        if o.cb_root is not None and t.def_root
    ]
    cuts = {}
    for o in outcomes:
        for family, count in o.cuts.items():
            cuts[family] = cuts.get(family, 0) + count
    return {
        "solve_s": sum(o.seconds for o in outcomes),
        "nodes": sum(o.nodes for o in outcomes),
        "root_gap_pct": statistics.fmean(gaps) if gaps else 0.0,
        "root_gain_pct": statistics.fmean(gains) if gains else 0.0,
        "cuts": cuts,
    }


def measure(workload, tasks, seconds):
    """Cycle through the tasks, untraced, until `seconds` are spent and every
    task ran once; returns the outcomes of each task.  A task is started
    again only while its last time still fits in the window."""
    tracer = Tracer()
    samples = [[] for _ in tasks]
    t0 = time.perf_counter()
    for k in itertools.count():
        i = k % len(tasks)
        if samples[i] and time.perf_counter() - t0 + samples[i][-1].seconds > seconds:
            break
        samples[i].append(run_task(workload, tasks[i], tracer))
    return samples


def measure_traced(workload, tasks, seconds, lcim):
    """Traced passes while they fit in `seconds` (at least one); returns
    (all outcomes, per-layer values).

    Each task runs untraced and then traced, back to back, so the tracing
    overhead is a paired difference rather than two passes far apart."""
    plain, tracer = Tracer(), Tracer()
    t0 = time.perf_counter()
    outcomes, rows, pass_s = [], [], []
    while not rows or time.perf_counter() - t0 + statistics.fmean(pass_s) <= seconds:
        start = time.perf_counter()
        tracer.reset()
        untraced, traced = [], []
        for task in tasks:
            untraced.append(run_task(workload, task, plain))
            install_lcim(tracer, lcim)
            try:
                traced.append(run_task(workload, task, tracer))
            finally:
                tracer.uninstall()
        for name in workload.expected_layers:
            if tracer.layer(name)[0] == 0:
                raise TraceError(f"layer {name} recorded no calls on {workload.name}")
        summary = pass_summary(tasks, traced)
        row = layer_metrics(tracer, summary["nodes"], summary["cuts"])
        row["trace.solve_s"] = summary["solve_s"]
        row["trace.overhead_s"] = summary["solve_s"] - pass_summary(tasks, untraced)["solve_s"]
        rows.append(row)
        outcomes += untraced + traced
        pass_s.append(time.perf_counter() - start)
    return outcomes, {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def end_to_end(tasks, samples, setup_s):
    first = pass_summary(tasks, [s[0] for s in samples])
    return {
        "setup_s": setup_s,
        "solve_s": sum(statistics.median(o.seconds for o in s) for s in samples),
        "nodes": first["nodes"],
        "root_gap_pct": first["root_gap_pct"],
        "root_gain_pct": first["root_gain_pct"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args, bench):
    lcim = import_lcim()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s, tasks = setup(workload, args.instance_seed)
    random.Random(args.seed).shuffle(tasks)
    oracle_s = workload.prepare(tasks)
    if args.trace:
        outcomes, values = measure_traced(workload, tasks, args.seconds, lcim)
        values["oracle.brute_force_optimum.s"] = oracle_s
        spec = bench["per_layer"]
    else:
        samples = measure(workload, tasks, args.seconds)
        outcomes = [o for s in samples for o in s]
        values = end_to_end(tasks, samples, setup_s)
        spec = bench["end_to_end"]
    missing = {m["name"] for m in spec} ^ set(values)
    if missing:
        sys.exit(f"perfbench: metrics do not match BENCHMARK.json: {sorted(missing)}")

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, metric in metrics.items():
        print(f"{args.workload:13s} {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{args.workload:13s} attempted={attempted} failed={failed}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def run_all(args, bench):
    """Run every workload in its own process and print one table."""
    results = {}
    for w in bench["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve())]
        cmd += ["--workload", w["name"], "--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace), "--instance-seed", str(args.instance_seed)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[w["name"]] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = load_spec()
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="shuffles the order in which the solves run")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=DEFAULT_SEED,
                        help="graph seed; pinned optima are only checked at 42")
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args, bench)
    else:
        run_one(args, bench)


if __name__ == "__main__":
    main()
