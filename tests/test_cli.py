import re
from fractions import Fraction

import pytest

from hyperci import Params, cstar_table
from hyperci import cli
from hyperci.cli import main
from hyperci.invert import table_from_csv


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

    def test_worker_pool_output_identical(self, capsys, monkeypatch):
        args = ("coverage", "--N", "40", "--n", "15", "--alpha", "0.1")
        serial = run(capsys, *args)
        monkeypatch.setenv("HYPERCI_WORKERS", "2")
        assert run(capsys, *args) == serial

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


class TestWorkers:
    @pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
    def test_bad_value_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HYPERCI_WORKERS", value)
        code, out, err = run(capsys, "ci", "--N", "20", "--n", "6", "--x", "3", "--alpha", "0.6")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "HYPERCI_WORKERS" in err

    @pytest.mark.parametrize("value,want", [(None, 0), ("", 0), ("1", 1), ("3", 3), ("64", 4)])
    def test_count_capped_at_cpus(self, monkeypatch, value, want):
        if value is None:
            monkeypatch.delenv("HYPERCI_WORKERS", raising=False)
        else:
            monkeypatch.setenv("HYPERCI_WORKERS", value)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli._workers() == want


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

    def test_excessive_grid_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "certify", "--max-N", "300")
        assert code == 2
        assert "error" in err
