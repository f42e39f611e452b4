import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import hyperci
from hyperci import Params, coverage, cstar_table, pivot_table
from hyperci.cli import main
from hyperci.inversion import table_from_csv, table_to_csv


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCi:
    @pytest.mark.parametrize(
        "n,x,expected",
        [(292, 16, "[17, 24]"), (332, 15, "[15, 18]"), (166, 7, "[10, 24]"), (290, 11, "[11, 17]")],
    )
    def test_yearly_rate_instances(self, capsys, n, x, expected):
        code, out, _ = run(
            capsys, "ci", "--N", "365", "--n", str(n), "--x", str(x), "--alpha", "0.10"
        )
        assert code == 0
        assert out.strip() == expected

    def test_pivot_method(self, capsys):
        code, out, _ = run(
            capsys, "ci", "--N", "500", "--n", "100", "--x", "13",
            "--alpha", "0.05", "--method", "pivot",
        )
        assert code == 0
        assert out.strip() == "[39, 101]"

    # ci --method pivot runs pivot_ci; its interval is the pivot table's row,
    # on instances where the table bisects and where it sweeps
    def test_pivot_matches_table_rows(self, capsys):
        for N in range(1, 7):
            for n in range(1, N + 1):
                for alpha in ("0.1", "3/5"):
                    argv = ["--N", str(N), "--n", str(n), "--alpha", alpha, "--method", "pivot"]
                    _, table, _ = run(capsys, "table", *argv, "--no-timing")
                    for row in table.splitlines()[2:-1]:
                        x, low, high = row.split(",")
                        code, out, _ = run(capsys, "ci", *argv, "--x", x)
                        assert (code, out) == (0, f"[{low}, {high}]\n"), (N, n, alpha, x)

    @pytest.mark.parametrize("x", ["-1", "7"])
    def test_pivot_invalid_x_exits_2(self, capsys, x):
        code, out, err = run(
            capsys, "ci", "--N", "20", "--n", "6", "--x", x, "--alpha", "0.6", "--method", "pivot"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: x must be in [0, 6]") and err.count("\n") == 1

    def test_invalid_x_exits_2(self, capsys):
        code, _, err = run(
            capsys, "ci", "--N", "20", "--n", "6", "--x", "7", "--alpha", "0.6"
        )
        assert code == 2
        assert "error" in err

    def test_bad_alpha_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["ci", "--N", "20", "--n", "6", "--x", "3", "--alpha", "1.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("alpha", ["5/3", "3/0", "x/5"])
    def test_bad_fraction_alpha_exits_2(self, alpha):
        with pytest.raises(SystemExit) as exc:
            main(["ci", "--N", "20", "--n", "6", "--x", "3", "--alpha", alpha])
        assert exc.value.code == 2

    def test_fraction_alpha_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "ci", "--N", "20", "--n", "6", "--x", "3", "--alpha", "3/5"
        )
        assert code == 0
        want = cstar_table(Params(20, 6, Fraction(3, 5))).interval(3)
        assert out.strip() == f"[{want[0]}, {want[1]}]"

    def test_out_writes_the_interval(self, capsys, tmp_path):
        path = tmp_path / "ci.txt"
        code, out, err = run(
            capsys, "ci", "--N", "10", "--n", "3", "--x", "1", "--alpha", "0.1", "--out", str(path)
        )
        assert (code, out, err) == (0, "", "")
        assert path.read_text() == "[1, 7]\n"

    def test_out_to_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "ci.txt"
        code, out, err = run(
            capsys, "ci", "--N", "10", "--n", "3", "--x", "1", "--alpha", "0.1", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    # one interval has no CSV form, so ci offers no --format to ignore
    def test_format_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ci", "--N", "10", "--n", "3", "--x", "1", "--alpha", "0.1", "--format", "tsv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTable:
    GOLDEN_SMALL = (
        "# hyperci table N=20 n=6 alpha=0.6 method=cstar\n"
        "x,L,U\n"
        "0,0,2\n"
        "1,3,6\n"
        "2,5,10\n"
        "3,7,13\n"
        "4,10,15\n"
        "5,14,17\n"
        "6,18,20\n"
        "# total_size: 33\n"
    )

    def test_small_golden_bytes(self, capsys):
        code, out, _ = run(
            capsys, "table", "--N", "20", "--n", "6", "--alpha", "0.6", "--no-timing"
        )
        assert code == 0
        assert out == self.GOLDEN_SMALL

    def test_deterministic_output(self, capsys):
        args = ("table", "--N", "83", "--n", "31", "--alpha", "0.1", "--no-timing")
        assert run(capsys, *args) == run(capsys, *args)

    def test_timing_footer_present_by_default(self, capsys):
        _, out, _ = run(capsys, "table", "--N", "20", "--n", "6", "--alpha", "0.6")
        assert "# time_s:" in out

    def test_large_instance_row_and_total(self, capsys):
        code, out, _ = run(
            capsys, "table", "--N", "500", "--n", "100", "--alpha", "0.05", "--no-timing"
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[1] == "x,L,U"
        assert "13,40,102" in lines
        assert lines[-1] == "# total_size: 7129"
        assert len([l for l in lines if l and not l.startswith("#") and l != "x,L,U"]) == 101

    # 5e-324 / 2 rounds to 0 in floating point; the centre and the pivot
    # use the exact half of the subnormal's own ratio
    def test_subnormal_alpha_table(self, capsys):
        code, out, _ = run(
            capsys, "table", "--N", "2000", "--n", "1000", "--alpha", "5e-324", "--no-timing"
        )
        assert code == 0
        want = table_to_csv(cstar_table(Params(2000, 1000, Fraction(5e-324))))
        assert out.splitlines()[1:] == want.splitlines()[1:]

    def test_pivot_row(self, capsys):
        _, out, _ = run(
            capsys, "table", "--N", "500", "--n", "100", "--alpha", "0.05",
            "--method", "pivot", "--no-timing",
        )
        assert "13,39,101" in out.splitlines()

    def test_round_trip_through_parser(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "table", "--N", "45", "--n", "17", "--alpha", "0.1",
            "--out", str(out_path),
        )
        assert code == 0
        tbl = table_from_csv(out_path.read_text())
        assert tbl.params.N == 45 and tbl.params.n == 17
        assert tbl.total_size == sum(
            u - l + 1 for l, u in zip(tbl.lower, tbl.upper)
        )

    def test_out_to_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(
            capsys, "table", "--N", "20", "--n", "6", "--alpha", "0.6", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert not path.parent.exists()

    def test_tsv_format(self, capsys):
        _, out, _ = run(
            capsys, "table", "--N", "20", "--n", "6", "--alpha", "0.6",
            "--format", "tsv", "--no-timing",
        )
        assert "x\tL\tU" in out
        assert table_from_csv(out).total_size == 33

    def test_pretty_format(self, capsys):
        _, out, _ = run(
            capsys, "table", "--N", "20", "--n", "6", "--alpha", "0.6",
            "--format", "pretty", "--no-timing",
        )
        assert "x" in out and "18" in out

    def test_pretty_columns_align_with_six_digit_values(self, capsys):
        _, out, _ = run(
            capsys, "table", "--N", "100000", "--n", "3", "--alpha", "0.05",
            "--method", "pivot", "--format", "pretty", "--no-timing",
        )
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[-1].split() == ["3", "29241", "100000"]
        cell_ends = {tuple(m.end() for m in re.finditer(r"\S+", r)) for r in rows}
        assert len(cell_ends) == 1


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["ci", "--N", "20", "--n", "6", "--x", "3", "--alpha", "1.5"],
        ["certify", "--alphas", "1/0"],
        ["ci", "--n", "6", "--x", "3", "--alpha", "0.5"],
        [],
    ])
    def test_one_stderr_line_and_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: hyperci coverage") and err == ""


class TestWorkers:
    # no command reads HYPERCI_WORKERS, so a value left in a shell is harmless
    @pytest.mark.parametrize("argv", [
        ["certify", "--max-N", "3"],
        ["compare", "--N", "60", "--alpha", "0.1", "--n-list", "5:55:10", "--no-timing"],
    ], ids=["certify", "compare"])
    def test_stale_value_ignored(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("HYPERCI_WORKERS", raising=False)
        unset = run(capsys, *argv)
        monkeypatch.setenv("HYPERCI_WORKERS", "abc")
        assert unset[0] == 0 and unset[1]
        assert run(capsys, *argv) == unset

    @pytest.mark.parametrize("cmd", ["ci", "table", "coverage"])
    def test_single_table_commands_ignore_it(self, capsys, monkeypatch, cmd):
        monkeypatch.setenv("HYPERCI_WORKERS", "abc")
        extra = ["--x", "3"] if cmd == "ci" else []
        code, out, err = run(capsys, cmd, "--N", "20", "--n", "6", "--alpha", "0.6", *extra)
        assert code == 0 and out and err == ""


def test_import_loads_no_process_pool():
    code = (
        "import sys, hyperci.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    src = os.path.dirname(os.path.dirname(hyperci.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


class TestCoverage:
    def test_rows_and_floor(self, capsys):
        code, out, _ = run(capsys, "coverage", "--N", "60", "--n", "20", "--alpha", "0.05")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "M,coverage"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 61
        assert rows[0] == ["0", f"{1.0:.12f}"]
        assert all(float(c) >= 0.95 for _, c in rows)

    def test_pivot_higher_near_ends(self, capsys):
        _, out_c, _ = run(capsys, "coverage", "--N", "60", "--n", "20", "--alpha", "0.05")
        _, out_p, _ = run(
            capsys, "coverage", "--N", "60", "--n", "20", "--alpha", "0.05",
            "--method", "pivot",
        )

        def parse(text):
            return {
                int(m): float(c)
                for m, c in (
                    l.split(",") for l in text.splitlines()[2:] if not l.startswith("#")
                )
            }

        cov_c, cov_p = parse(out_c), parse(out_p)
        for M in (1, 2, 3, 57, 58, 59):
            assert cov_p[M] >= cov_c[M]

    # C* prints its stored half, pivot one sweep of its dual's half, each
    # mirrored; both must print what per-M coverage of the bare table gives
    @pytest.mark.parametrize("method", ["cstar", "pivot"])
    @pytest.mark.parametrize("N", [60, 61])
    def test_stdout_matches_per_m_reference(self, capsys, method, N):
        code, out, _ = run(capsys, "coverage", "--N", str(N), "--n", "20", "--alpha", "0.05",
                           "--method", method)
        p = Params(N, 20, 0.05)
        tbl = cstar_table(p) if method == "cstar" else pivot_table(p)
        bare = table_from_csv(table_to_csv(tbl))
        want = [f"# hyperci coverage N={N} n=20 alpha=0.05 method={method}", "M,coverage"]
        want += [f"{M},{coverage(bare, M):.12f}" for M in range(N + 1)]
        assert code == 0 and out == "\n".join(want) + "\n"

    # a pivot table's coverage is one carried sweep of its dual, whose end
    # check must catch a doubled step_m and a 0.1% drift; the table is built
    # before the kernel is corrupted (a C* table's sweep runs in its build)
    @pytest.mark.parametrize("num, den", [(2, 1), (1001, 1000)])
    def test_corrupt_step_m_exits_3(self, capsys, monkeypatch, num, den):
        import hyperci.core as core

        tbl = pivot_table(Params(40, 13, 0.2))
        monkeypatch.setattr("hyperci.cli.pivot_table", lambda p: tbl)
        step = core.step_m
        monkeypatch.setattr(core, "step_m", lambda w, M, x, p: step(w, M, x, p) * num // den)
        code, out, err = run(capsys, "coverage", "--N", "40", "--n", "13", "--alpha", "0.2",
                             "--method", "pivot")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1


class TestCompare:
    def test_sweep_columns_and_diffs(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--N", "120", "--alpha", "0.05",
            "--n-list", "20,40,60", "--no-timing",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "n,size_cstar,size_pivot,diff,time_cstar_ms,time_pivot_ms"
        for line in lines[1:]:
            n, sc, sp, diff, t1, t2 = line.split(",")
            assert int(diff) == int(sp) - int(sc) >= 0
            assert t1 == "0.000" and t2 == "0.000"

    def test_range_syntax(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--N", "60", "--alpha", "0.1",
            "--n-list", "10:30:10", "--no-timing",
        )
        assert code == 0
        ns = [l.split(",")[0] for l in out.splitlines()[2:] if l]
        assert ns == ["10", "20", "30"]

    def test_empty_range_rejected(self, capsys):
        code, out, err = run(
            capsys, "compare", "--N", "60", "--alpha", "0.1", "--n-list", "3:1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: list '3:1' has no values\n"

    # a fourth field, a step below 1 or a range whose stop a negative step
    # would drop is rejected, never read as some other list
    @pytest.mark.parametrize("cmd, flag, text", [
        ("compare", "--n-list", "10:30:10:7"), ("compare", "--n-list", "30:10:-10"),
        ("compare", "--n-list", "10:30:0"), ("certify", "--N-list", "3:1:-1"),
    ])
    def test_malformed_range_rejected(self, capsys, cmd, flag, text):
        common = ["--N", "60", "--alpha", "0.1"] if cmd == "compare" else []
        code, out, err = run(capsys, cmd, *common, flag, text)
        assert code == 2 and out == ""
        assert err == f"error: list {text!r} is not a range start:stop[:step] with step >= 1\n"

    def test_invalid_n_rejected(self, capsys):
        code, _, err = run(
            capsys, "compare", "--N", "60", "--alpha", "0.1", "--n-list", "10,70"
        )
        assert code == 2
        assert "error" in err


class TestCertify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "certify", "--max-N", "8")
        assert code == 0
        assert "RESULT: all checks passed" in out

    def test_adversarial_gap_reported(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--N-list", "20", "--alphas", "3/5"
        )
        assert code == 0
        gaps = int(re.search(r"set_gap_instances=(\d+)", out).group(1))
        assert gaps >= 1
        assert "adversarial-even-case: 1 checks" in out

    def test_odd_grid_reports_zero_gaps(self, capsys):
        code, out, _ = run(capsys, "certify", "--N-list", "9,11,13")
        assert code == 0
        assert "set_gap_instances=0" in out

    def test_decimal_alpha_parsed_exactly(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--N-list", "10", "--alphas", "0.05", "0.2"
        )
        assert code == 0
        assert "alphas = 1/20, 1/5" in out

    @pytest.mark.parametrize("repeated, single", [
        (["--N-list", "3,3"], ["--N-list", "3"]),
        (["--N-list", "5", "--alphas", "1/20", "0.05"], ["--N-list", "5", "--alphas", "1/20"]),
    ])
    def test_repeated_grid_values_run_once(self, capsys, repeated, single):
        assert run(capsys, "certify", *repeated) == run(capsys, "certify", *single)

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "certify", "--max-N", "6", "--out", str(path))
        assert code == 0
        assert out == ""
        assert "RESULT: all checks passed" in path.read_text()

    def test_check_failure_exits_1(self, capsys, monkeypatch):
        from hyperci.certify import CertificationReport, Tally

        bad = Tally("demo")
        bad.add(1, "boom")
        monkeypatch.setattr(
            "hyperci.cli.run_certification",
            lambda **kw: CertificationReport(checks=[bad], grid="demo"),
        )
        code, out, _ = run(capsys, "certify", "--max-N", "6")
        assert code == 1
        assert "FAILURES FOUND" in out

    def test_kernel_self_check_failure_exits_3(self, capsys, monkeypatch):
        def broken(p):
            raise AssertionError("carried weights drifted; corrupt kernels")

        monkeypatch.setattr("hyperci.cli.cstar_table", broken)
        code, out, err = run(capsys, "table", "--N", "20", "--n", "6", "--alpha", "0.6")
        assert code == 3
        assert out == ""
        assert err == "internal error: carried weights drifted; corrupt kernels\n"

    @pytest.mark.parametrize("num, den", [(2, 1), (1001, 1000)])
    def test_corrupt_step_m_exits_3(self, capsys, monkeypatch, num, den):
        import hyperci.core as core

        step = core.step_m
        monkeypatch.setattr(core, "step_m", lambda w, M, x, p: step(w, M, x, p) * num // den)
        code, out, err = run(capsys, "table", "--N", "40", "--n", "13", "--alpha", "0.2")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "corrupt kernels" in err

    # a self-check that fails while a validated grid is checked is a program
    # fault, whether the C* build or a certify check raises it
    @pytest.mark.parametrize("target, message", [
        ("hyperci.inversion._shift", "shift sets overlap at M=[1]"),
        ("hyperci.oracle.min_level_interval", "no level interval"),
    ])
    def test_self_check_failure_during_certify_exits_3(self, capsys, monkeypatch,
                                                        target, message):
        def broken(*args):
            raise ValueError(message)

        monkeypatch.setattr(target, broken)
        code, out, err = run(capsys, "certify", "--max-N", "4")
        assert code == 3
        assert out == ""
        assert [l for l in err.splitlines() if l.startswith("internal error: ")] == \
            err.splitlines()
        assert err.count("\n") == 1 and message in err

    def test_excessive_grid_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "certify", "--max-N", "300")
        assert code == 2
        assert "error" in err

    # the grid is named one way: --max-N and --N-list together are a usage
    # error, whether --max-N is over the cap or would be ignored
    @pytest.mark.parametrize("max_n", ["300", "10", "40"])
    def test_max_n_with_n_list_exits_2(self, capsys, max_n):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--N-list", "3", "--max-N", max_n])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", [("--max-N", "0"), ("--max-N", "-3"), ("--N-list", "0,3"),
                                      ("--N-list", "")])
    def test_empty_or_trimmed_grid_exits_2(self, capsys, grid):
        code, out, err = run(capsys, "certify", *grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("alphas", [["1/0"], [], ["0.05", "1"], ["x"]])
    def test_bad_alphas_exit_2(self, capsys, alphas):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--N-list", "5", "--alphas", *alphas])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert [l for l in err.splitlines() if "error:" in l] == [err.splitlines()[-1]]
        assert "--alphas" in err.splitlines()[-1]
