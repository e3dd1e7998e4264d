"""Command-line front end.

Subcommands:
  generate   write Watts-Strogatz instances to disk
  solve      run branch-and-cut on instance files, report TSV or text
  verify     run the built-in fixture suites (tables, trace, oracle battery)
  dp-cycle   solve a simple-cycle instance by dynamic programming and print
             an optimal activation order

`solve` works on its files one after another, in argument order.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
A command raises on bad input, and `main` maps the error to its code
(`_exit_code`): a file that cannot be read, written or parsed gives 3, a
rejected value 2.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bnc, cyclecuts, demo, instance as inst_mod, knapcuts, oracle, special
from .bnc import TSV_HEADER, SolveParams
from .instance import ParseError
from .lp import solve_lp

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lcim",
        description="Exact solver for least cost influence maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate small-world instances")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--v", type=int, required=True, help="mean degree (even)")
    gen.add_argument("--q", type=float, required=True, help="rewiring probability")
    gen.add_argument("--a", type=float, required=True, help="penetration rate")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--outdir", default=".")

    slv = sub.add_parser("solve", help="solve instance files")
    slv.add_argument("paths", nargs="+")
    slv.add_argument("--mode", choices=bnc.MODES, default="def")
    defaults = SolveParams()
    slv.add_argument("--time-limit", type=float, default=defaults.time_limit, metavar="S")
    slv.add_argument("--rounds", type=int, default=defaults.max_rounds, metavar="K",
                     help="cb mode: the root runs cutting rounds until one adds no cut, "
                          "at most K, and tree node 1 runs none")
    slv.add_argument("--format", choices=("tsv", "text"), default="tsv")
    slv.add_argument("--out", metavar="PATH")

    sub.add_parser("verify", help="run the fixture verification suites")

    dpc = sub.add_parser(
        "dp-cycle",
        help="solve a simple cycle by DP; prints the first (fully paid) "
        "node, the cost and an optimal activation order",
    )
    dpc.add_argument("path")
    dpc.add_argument("--b", type=int, default=None)

    return parser


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args):
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    os.makedirs(args.outdir, exist_ok=True)
    for k in range(args.count):
        seed = args.seed + k
        inst = inst_mod.generate_small_world(args.n, args.v, args.q, args.a, seed)
        name = f"{args.n}_{args.v}_{args.q}_{args.a}_{seed}.lcim"
        path = os.path.join(args.outdir, name)
        inst_mod.save(inst, path)
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args):
    try:
        params = SolveParams(time_limit=args.time_limit, max_rounds=args.rounds)
    except ValueError:
        raise ValueError("--time-limit and --rounds must be positive") from None
    reports = []
    errors = []  # exit codes of the files that failed; a batch goes on past them
    lines = []
    if args.format == "tsv":
        lines.append(TSV_HEADER)
    for path in args.paths:
        try:
            inst = inst_mod.load(path)
            report = bnc.solve(inst, args.mode, params, instance_id=os.path.basename(path))
        except (OSError, ValueError) as exc:
            errors.append(_exit_code(exc))
            lines.append(f"# error\t{path}\t{exc}")
        else:
            reports.append(report)
            lines.append(
                report.tsv_line() if args.format == "tsv" else report.text_block() + "\n"
            )
    if args.format == "tsv" and len(reports) > 1:
        lines.append(bnc.tsv_mean_line(reports))

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    return max(errors, default=EXIT_OK)


# ---------------------------------------------------------------------------
# dp-cycle
# ---------------------------------------------------------------------------


def cmd_dp_cycle(args):
    cost, order = special.dp_cycle(inst_mod.load(args.path), args.b)
    print(f"start {order[0]} cost {cost} order {' '.join(map(str, order))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Each suite yields an (ok, message) pair per check; the message is printed
# when the check fails.


def _suite_tables():
    view = demo.example_view()
    actual = {tuple(sorted(cut.coeffs.items())) for cut in oracle.cover_packing_cuts(view)}
    expected = {
        tuple(sorted(r["coeffs"].items())) for r in demo.TABLE_COVER_PACKING
    }
    yield actual == expected, (
        "cover/packing table mismatch:\n"
        f"  missing: {sorted(expected - actual)}\n"
        f"  extra:   {sorted(actual - expected)}"
    )
    for r in demo.TABLE_MIS:
        cut = knapcuts.build_mis_cut(view, r["mis"])
        yield cut.coeffs == r["coeffs"], (
            f"MIS row M={r['mis']}: expected {r['coeffs']}, got {cut.coeffs}"
        )


def _suite_facets():
    view = demo.example_view()
    all_rows = [r["coeffs"] for r in demo.TABLE_COVER_PACKING + demo.TABLE_MIS]
    all_rows.append(demo.EXTRA_FACET_ROW)
    for coeffs in all_rows:
        ineq = knapcuts.Inequality(coeffs=coeffs, rhs=0.0, tag="base")
        yield oracle.check_facet(ineq, view), f"not a facet: {ineq.render(view.var_names)}"


def _suite_trace():
    inst = demo.demo_instance()
    model = bnc.assemble(inst, "def")
    sol = solve_lp(model)
    yield (abs(sol.objective - demo.DEMO_LP_OBJ) <= 1e-4,
           f"root LP: expected {demo.DEMO_LP_OBJ}, got {sol.objective:.6f}")
    point = demo.demo_lp_point()
    base_map = demo.demo_base_cuts(inst)
    cycle = demo.demo_cycle()
    cut = cyclecuts.separate_uc(inst, cycle, base_map, point)
    yield cut is not None, "separate_uc found no cut at the recorded point"
    if cut is not None:
        expected = cyclecuts.build_uc_cut(inst, cycle, demo.DEMO_UC_U, base_map)
        yield cut == expected, f"separated cut: expected {expected}, got {cut}"
        violation = cut.violation(point)
        yield (abs(violation - demo.DEMO_UC_VIOLATION) <= 1e-6,
               f"violation: expected {demo.DEMO_UC_VIOLATION}, got {violation}")
        model.add_constraint(cut.coeffs, ">=", cut.rhs)
        sol2 = solve_lp(model)
        yield (abs(sol2.objective - demo.DEMO_POSTCUT_OBJ) <= 1e-4,
               f"post-cut LP: expected {demo.DEMO_POSTCUT_OBJ}, got {sol2.objective:.6f}")
    f_direct, exits = cyclecuts.uc_dag_values(inst, cycle, base_map, point)
    dag = (f_direct, *exits)
    yield (all(abs(a - b) <= 1e-6 for a, b in zip(dag, demo.DEMO_DAG_VALUES)),
           f"DAG values: expected {demo.DEMO_DAG_VALUES}, got {dag}")
    report = bnc.solve(inst, "def", SolveParams(time_limit=60))
    yield report.ub == demo.DEMO_OPTIMUM, f"optimum: expected {demo.DEMO_OPTIMUM}, got {report.ub}"


def _suite_oracle():
    """Each of six random instances in def and cb, and the same graph at
    full coverage (b = n) in def, cb and ln, against brute force."""
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        drawn = demo.random_instance(rng)
        full = drawn.with_b(drawn.n)
        for inst, modes in ((drawn, ("def", "cb")), (full, bnc.MODES)):
            expect, _ = oracle.brute_force_optimum(inst)
            for mode in modes:
                report = bnc.solve(inst, mode, SolveParams(time_limit=60))
                yield report.ub == expect, (
                    f"{mode} solve: expected {expect}, got {report.ub} (n={inst.n}, b={inst.b})"
                )


def cmd_verify(_args):
    suites = [
        ("tables", _suite_tables),
        ("facets", _suite_facets),
        ("trace", _suite_trace),
        ("oracle", _suite_oracle),
    ]
    exit_code = EXIT_OK
    for name, suite in suites:
        results = list(suite())
        failures = [message for ok, message in results if not ok]
        passed = len(results) - len(failures)
        if failures:
            print(f"{name}: FAIL {passed}/{len(results)} passed")
            for msg in failures:
                print(f"  {msg}")
            exit_code = EXIT_VERIFY
        else:
            print(f"{name}: ok {passed}/{passed} passed")
    return exit_code


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "dp-cycle": cmd_dp_cycle,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _exit_code(exc):
    """The exit code of an error a command raises: EXIT_IO for a file that
    cannot be read or written or does not parse, EXIT_USAGE for any other
    rejected value."""
    return EXIT_IO if isinstance(exc, (OSError, ParseError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
