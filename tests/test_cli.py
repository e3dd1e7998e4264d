"""Command-line front end: subcommands, formats, exit codes."""

import os

import pytest

from lcim import demo
from lcim.bnc import TSV_HEADER, SolveParams
from lcim.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, build_parser, main
from lcim.instance import load, make_instance, save
from lcim.oracle import activation_cost


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.lcim"
    save(demo.demo_instance(), path)
    return str(path)


@pytest.fixture
def tree_path(tmp_path):
    inst = make_instance(
        3,
        {(1, 2): 2, (2, 1): 3, (2, 3): 4, (3, 2): 1},
        {1: 3, 2: 2, 3: 2},
        b=3,
    )
    path = tmp_path / "tree.lcim"
    save(inst, path)
    return str(path)


@pytest.fixture
def ring_path(tmp_path):
    inst = make_instance(
        3,
        {(1, 2): 3, (2, 1): 3, (2, 3): 3, (3, 2): 3, (3, 1): 3, (1, 3): 3},
        {1: 5, 2: 5, 3: 5},
        b=1,
    )
    path = tmp_path / "ring.lcim"
    save(inst, path)
    return str(path)


class TestGenerate:
    def test_writes_named_files(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main([
            "generate", "--n", "50", "--v", "4", "--q", "0.1", "--a", "1.0",
            "--seed", "7", "--count", "3", "--outdir", str(out),
        ])
        assert code == EXIT_OK
        names = sorted(os.listdir(out))
        assert names == [
            "50_4_0.1_1.0_7.lcim", "50_4_0.1_1.0_8.lcim", "50_4_0.1_1.0_9.lcim"
        ]
        for name in names:
            text = (out / name).read_text()
            assert text.splitlines()[1] == "50 200 50"

    def test_count_zero(self, tmp_path):
        out = tmp_path / "gen"
        code = main([
            "generate", "--n", "10", "--v", "4", "--q", "0.1", "--a", "0.5",
            "--count", "0", "--outdir", str(out),
        ])
        assert code == EXIT_OK
        assert os.listdir(out) == []

    def test_negative_count(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main([
            "generate", "--n", "10", "--v", "4", "--q", "0.1", "--a", "0.5",
            "--count", "-2", "--outdir", str(out),
        ])
        assert code == EXIT_USAGE
        assert "count" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main([
                "generate", "--n", "20", "--v", "4", "--q", "0.3", "--a", "0.5",
                "--seed", "5", "--outdir", str(out),
            ])
            outs.append((out / "20_4_0.3_0.5_5.lcim").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_parameters(self, tmp_path, capsys):
        code = main([
            "generate", "--n", "10", "--v", "3", "--q", "0.1", "--a", "0.5",
            "--outdir", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    def test_zero_degree(self, tmp_path, capsys):
        code = main([
            "generate", "--n", "10", "--v", "0", "--q", "0.1", "--a", "0.5",
            "--outdir", str(tmp_path),
        ])
        assert code == EXIT_USAGE
        assert "mean degree" in capsys.readouterr().err


class TestSolve:
    def test_demo_tsv(self, demo_path, capsys):
        code = main(["solve", demo_path, "--mode", "def"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == TSV_HEADER
        cells = lines[1].split("\t")
        header = TSV_HEADER.split("\t")
        assert cells[header.index("ub")] == "11"
        assert cells[header.index("gap")] == "0"

    def test_tree_cb_no_cycle_cuts(self, tree_path, capsys):
        code = main(["solve", tree_path, "--mode", "cb"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        header = TSV_HEADER.split("\t")
        cells = lines[1].split("\t")
        assert cells[header.index("cuts_gcec")] == "0"
        assert cells[header.index("cuts_uc")] == "0"

    def test_batch_mean_line(self, demo_path, tree_path, ring_path, capsys):
        code = main(["solve", demo_path, tree_path, ring_path])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # header + 3 records + mean
        assert lines[-1].startswith("mean\t")

    def test_text_format(self, demo_path, capsys):
        code = main(["solve", demo_path, "--format", "text"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "objective ub=11" in out

    def test_out_file(self, demo_path, tmp_path):
        target = tmp_path / "report.tsv"
        code = main(["solve", demo_path, "--out", str(target)])
        assert code == EXIT_OK
        assert target.read_text().startswith(TSV_HEADER)

    def test_missing_file(self, capsys):
        code = main(["solve", "/nonexistent/path.lcim"])
        assert code == EXIT_IO
        assert "# error" in capsys.readouterr().out

    def test_batch_continues_past_errors(self, demo_path, capsys):
        code = main(["solve", "/nonexistent/path.lcim", demo_path])
        assert code == EXIT_IO
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("# error") for line in lines)
        assert any("\toptimal\t" in line for line in lines)

    def test_files_solved_in_argument_order(self, demo_path, tree_path, capsys, monkeypatch):
        # the environment sets no thread count: files run one after another
        monkeypatch.setenv("LCIM_THREADS", "abc")
        code = main(["solve", tree_path, demo_path])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split("\t")[0] for line in lines[1:3]]
        assert names == [os.path.basename(tree_path), os.path.basename(demo_path)]

    def test_defaults_are_solve_params(self):
        args = build_parser().parse_args(["solve", "x.lcim"])
        defaults = SolveParams()
        assert (args.time_limit, args.rounds) == (defaults.time_limit, defaults.max_rounds)

    def test_seed_flag_removed(self, demo_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--seed", "1", demo_path])
        assert exc.value.code == EXIT_USAGE

    def test_nan_time_limit_is_usage_error(self, demo_path, capsys):
        code = main(["solve", demo_path, "--time-limit", "nan"])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "--time-limit and --rounds must be positive" in err

    def test_bad_rounds_checked_once_before_any_file(self, demo_path, tree_path, tmp_path, capsys):
        target = tmp_path / "report.tsv"
        code = main(["solve", demo_path, tree_path, "--rounds", "0", "--out", str(target)])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --time-limit and --rounds must be positive\n"
        assert not target.exists()

    def test_ln_on_partial_coverage_is_usage_error(self, demo_path, capsys):
        code = main(["solve", demo_path, "--mode", "ln"])
        assert code == EXIT_USAGE


class TestDpCycle:
    def test_ring(self, ring_path, capsys):
        code = main(["dp-cycle", ring_path])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "cost 5" in out
        assert out.startswith("start ")

    def test_b_flag(self, ring_path, capsys):
        code = main(["dp-cycle", ring_path, "--b", "3"])
        assert code == EXIT_OK
        assert "cost" in capsys.readouterr().out

    def test_order_on_five_node_ring(self, tmp_path, capsys):
        arcs = {}
        for i, (fwd, bwd) in enumerate([(3, 2), (1, 4), (5, 5), (2, 1), (4, 3)], 1):
            j = i % 5 + 1
            arcs[(i, j)], arcs[(j, i)] = fwd, bwd
        inst = make_instance(5, arcs, {1: 4, 2: 6, 3: 3, 4: 5, 5: 4}, b=4)
        path = tmp_path / "ring5.lcim"
        save(inst, path)
        code = main(["dp-cycle", str(path)])
        assert code == EXIT_OK
        fields = capsys.readouterr().out.split()
        assert fields[0::2][:3] == ["start", "cost", "order"]
        start, cost = int(fields[1]), int(fields[3])
        order = [int(v) for v in fields[5:]]
        assert start == order[0]
        assert len(set(order)) == len(order) >= 4
        assert activation_cost(load(str(path)), order) == cost

    def test_b_zero_is_usage_error(self, ring_path, capsys):
        code = main(["dp-cycle", ring_path, "--b", "0"])
        assert code == EXIT_USAGE
        assert "outside" in capsys.readouterr().err

    def test_non_cycle(self, tree_path, capsys):
        code = main(["dp-cycle", tree_path])
        assert code == EXIT_USAGE

    def test_missing_file(self, capsys):
        code = main(["dp-cycle", "/nonexistent/path.lcim"])
        assert code == EXIT_IO


class TestExitCodes:
    """Every command maps an error to one code: 3 for a file that cannot be
    read, written or parsed, 2 for a rejected value.  `solve` reports a bad
    file as a `# error` row and goes on; the others print one `error:` line
    to stderr."""

    GENERATE = ["generate", "--n", "10", "--v", "4", "--q", "0.1", "--a", "0.5"]

    @pytest.mark.parametrize("argv, code, message", [
        (GENERATE + ["--outdir", "{bad}/sub"], EXIT_IO, "Not a directory"),
        (GENERATE + ["--outdir", "{bad}"], EXIT_IO, "File exists"),
        (GENERATE + ["--count", "-1", "--outdir", "{dir}"], EXIT_USAGE,
         "--count must be >= 0, got -1"),
        (["generate", "--n", "10", "--v", "3", "--q", "0.1", "--a", "0.5", "--outdir", "{dir}"],
         EXIT_USAGE, "mean degree v must be even"),
        (["solve", "{missing}"], EXIT_IO, "No such file or directory"),
        (["solve", "{dir}"], EXIT_IO, "Is a directory"),
        (["solve", "{bad}"], EXIT_IO, "line 2: not UTF-8 text"),
        (["solve", "{ring}", "--rounds", "0"], EXIT_USAGE,
         "--time-limit and --rounds must be positive"),
        (["dp-cycle", "{missing}"], EXIT_IO, "No such file or directory"),
        (["dp-cycle", "{dir}"], EXIT_IO, "Is a directory"),
        (["dp-cycle", "{bad}"], EXIT_IO, "line 2: not UTF-8 text"),
        (["dp-cycle", "{ring}", "--b", "0"], EXIT_USAGE, "b=0 outside [1, n]"),
    ])
    def test_error_codes(self, argv, code, message, ring_path, tmp_path, capsys):
        bad = tmp_path / "bad.lcim"
        bad.write_bytes(b"lcim 1\n3 \xff\xfe 1\n")
        paths = {"bad": bad, "dir": tmp_path, "missing": tmp_path / "none.lcim",
                 "ring": ring_path}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if argv[0] == "solve" and "--rounds" not in argv:
            assert err == ""
            header, row = out.splitlines()
            assert header == TSV_HEADER
            assert row.startswith(f"# error\t{argv[1]}\t") and message in row
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and message in err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for suite in ("tables", "facets", "trace", "oracle"):
            assert f"{suite}: ok" in out
        # six instances in def and cb, and each at b = n in def, cb and ln
        assert "oracle: ok 30/30 passed" in out

    def test_trace_failures_counted(self, capsys, monkeypatch):
        # every recorded demo figure perturbed: each trace check fails once
        monkeypatch.setattr(demo, "DEMO_LP_OBJ", demo.DEMO_LP_OBJ + 1)
        monkeypatch.setattr(demo, "DEMO_POSTCUT_OBJ", demo.DEMO_POSTCUT_OBJ + 1)
        monkeypatch.setattr(demo, "DEMO_OPTIMUM", demo.DEMO_OPTIMUM + 1)
        monkeypatch.setattr(demo, "DEMO_UC_U", (2,))
        monkeypatch.setattr(demo, "DEMO_UC_VIOLATION", demo.DEMO_UC_VIOLATION + 1)
        monkeypatch.setattr(demo, "DEMO_DAG_VALUES", (0.0, 0.0, 0.0, 0.0))
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        line = next(x for x in out.splitlines() if x.startswith("trace: FAIL "))
        passed, checks = map(int, line.split()[2].split("/"))
        assert 0 <= passed <= checks
        assert checks - passed == 6
        assert "tables: ok" in out and "oracle: ok" in out


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "x.lcim", "--bogus"])
        assert exc.value.code == EXIT_USAGE
