import hashlib
from fractions import Fraction

import pytest

from hyperci import Params, certify
from hyperci.acceptance import _greedy_sweep
from hyperci.monotonize import AdjustmentTrace, _shift
from hyperci.certify import (
    CertificationReport,
    Tally,
    run_certification,
)


@pytest.fixture(scope="module")
def small_report():
    return run_certification(max_population=10)


class TestSmallGrid:
    def test_everything_passes(self, small_report):
        assert small_report.ok
        for tally in small_report.checks:
            assert tally.ok, tally.failures

    def test_render_mentions_every_check(self, small_report):
        text = small_report.render()
        assert "RESULT: all checks passed" in text
        for tally in small_report.checks:
            assert tally.name in text

    def test_instance_counts_positive(self, small_report):
        by_name = {t.name: t for t in small_report.checks}
        grid_instances = sum(N * 5 for N in range(1, 11))
        assert by_name["coverage-exactness"].instances == grid_instances
        assert by_name["greedy-min-cardinality"].instances > grid_instances


class TestDefaultGrid:
    # the N <= 40 report is pinned byte for byte
    def test_render_digest(self, certification):
        report, _ = certification
        digest = hashlib.sha256(report.render().encode()).hexdigest()
        assert digest == "689fe004be0a761bb29c2f3bbbea18e7c9c9f063204575ba70a1d6b34c5c2aee"


class TestTargetedGrids:
    def test_adversarial_instance_reported_as_expected_gap(self):
        report = run_certification(populations=[20], alphas=(Fraction(3, 5),))
        assert report.ok
        assert report.gap_instances >= 1
        by_name = {t.name: t for t in report.checks}
        assert by_name["adversarial-even-case"].instances == 1

    def test_odd_populations_have_zero_gap(self):
        report = run_certification(populations=[11, 13, 15])
        assert report.ok
        assert report.gap_instances == 0

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="capped"):
            run_certification(max_population=300)
        with pytest.raises(ValueError, match="capped"):
            run_certification(populations=[250])

    # an explicit N list is the grid; max_population does not cap it
    def test_populations_override_max_population(self):
        report = run_certification(max_population=300, populations=[3])
        assert report.ok
        assert report.grid.startswith("N in {3}, ")

    @pytest.mark.parametrize("grid", [{"max_population": 0}, {"max_population": -3},
                                      {"populations": [0, 3]}, {"populations": []}])
    def test_empty_or_trimmed_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="N >= 1"):
            run_certification(**grid)

    def test_repeated_values_run_once(self):
        assert run_certification(populations=[3, 3]) == run_certification(populations=[3])
        repeated = run_certification(
            populations=[5], alphas=(Fraction(3, 5), Fraction(1, 20), Fraction("0.6"))
        )
        assert repeated == run_certification(
            populations=[5], alphas=(Fraction(3, 5), Fraction(1, 20))
        )
        assert repeated.grid.endswith("alphas = 3/5, 1/20")

    # a tie on max_delta goes to the larger (value, tag) pair, not the first
    # instance that reached it
    def test_max_delta_tie_keeps_largest_tag(self):
        report = run_certification(max_population=6)
        assert report.metric("shift-metrics", "max_delta") == (0, "(N=6, n=6, alpha=3/5)")


class TestFamilyLevel:
    # level at alpha = 9/10 and with mirrored lengths, but the first family
    # breaks reflection (A(3) = [1, 1], not n - A(1) = [2, 2]) and the second
    # monotone endpoints (A(1) = [1, 1], then A(2) = [0, 2]); the build
    # returns its lists in place of those it inverted
    @pytest.mark.parametrize("lower, upper", [([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]),
                                              ([0, 1, 0, 1, 2], [0, 1, 2, 1, 2])])
    def test_flags_broken_symmetrized_family(self, monkeypatch, lower, upper):
        p = Params(4, 2, Fraction(9, 10))
        tbl, _, _, trace, centre = certify._build(p)
        monkeypatch.setattr(certify, "_build", lambda p: (tbl, lower, upper, trace, centre))
        monkeypatch.setattr(certify, "PIVOT_CAP", 0)
        monkeypatch.setattr(certify, "SUBSET_CAP", 0)
        t = certify.Tallies()
        certify.check_instance(t, p.N, p.n, p.alpha)
        assert t["family-level"].failures
        assert not t["shift-level-preserved"].failures


class TestShiftDisjointSets:
    # certify derives both offender sets from the greedy half by their
    # definition, so a trace that reports a shift the half does not have
    # fails the tally: a drop at M = 9 (only the drops then differ), a raise
    # at M = 10 (only the raises), or both at M = 10
    @pytest.mark.parametrize("extra_up, extra_down",
                             [({}, {9: 1}), ({10: 1}, {}), ({10: 1}, {10: 1})])
    def test_misreported_shift_fails(self, monkeypatch, extra_up, extra_down):
        p = Params(40, 13, Fraction(1, 5))
        tbl, lower, upper, trace, centre = certify._build(p)
        assert trace == AdjustmentTrace({}, {})
        misreported = AdjustmentTrace({**trace.set_lower, **extra_up},
                                      {**trace.set_upper, **extra_down})
        monkeypatch.setattr(certify, "_build", lambda p: (tbl, lower, upper, misreported, centre))
        monkeypatch.setattr(certify, "PIVOT_CAP", 0)
        monkeypatch.setattr(certify, "SUBSET_CAP", 0)
        t = certify.Tallies()
        certify.check_instance(t, p.N, p.n, p.alpha)
        text = CertificationReport(checks=list(t.values()), grid="(40, 13, 1/5)").render()
        assert "FAIL shift-disjoint-sets" in text


class TestCenterFormulas:
    # the centre is checked against the oracle's tail scan, not against the
    # build's own min(a, n - b): a build that widens the centre to
    # [h - 1, n - h + 1] and reports it as its pre-centre too must fail
    def test_wider_symmetric_centre_fails(self, monkeypatch):
        p = Params(40, 13, Fraction(1, 5))
        tbl, lower, upper, trace, _ = certify._build(p)
        k, n = p.N // 2, p.n
        h = lower[k]
        assert h >= 1
        lower, upper = list(lower), list(upper)
        lower[k], upper[k] = h - 1, n - h + 1
        monkeypatch.setattr(certify, "_build",
                            lambda p: (tbl, lower, upper, trace, (h - 1, n - h + 1)))
        monkeypatch.setattr(certify, "PIVOT_CAP", 0)
        monkeypatch.setattr(certify, "SUBSET_CAP", 0)
        t = certify.Tallies()
        certify.check_instance(t, p.N, p.n, p.alpha)
        text = CertificationReport(checks=list(t.values()), grid="(40, 13, 1/5)").render()
        assert "FAIL center-formulas" in text


class TestPivotConsistency:
    # where pivot_table bisects, it and pivot_ci both run _upper_end, so only
    # the sweep's rows can show a wrong bisection; N = 40 is past PIVOT_CAP,
    # so the oracle's scan does not run either. The certificate that the build
    # and pivot_ci share rejects these rows first, so it is switched off to
    # reach certify's check.
    def test_mutant_upper_end_fails_on_a_bisected_instance(self, monkeypatch):
        from hyperci import pivot

        p = Params(40, 2, Fraction(1, 20))
        assert (p.n + 1) * p.n * p.N.bit_length() < 2 * p.N  # pivot_table bisects
        upper_end = pivot._upper_end
        monkeypatch.setattr(pivot, "_upper_end", lambda x, p: min(upper_end(x, p) + 1, p.N))
        with pytest.raises(AssertionError, match="fails its definition"):
            pivot.pivot_table(p)
        monkeypatch.setattr(pivot, "_certify_row", lambda x, U, p: None)
        t = certify.Tallies()
        certify.check_instance(t, p.N, p.n, p.alpha)
        text = CertificationReport(checks=list(t.values()), grid="(40, 2, 1/20)").render()
        assert "FAIL pivot-consistency" in text


# half families that raise an interval; the default grid (N <= 40) moves none
SHIFT_CORPUS = [(57, 11, Fraction(1, 20)), (59, 12, Fraction(1, 10)), (60, 12, Fraction(1, 10))]


class TestShiftedInstances:
    def test_shift_corpus_passes(self):
        t = certify.Tallies()
        for N, n, alpha in SHIFT_CORPUS:
            certify.check_instance(t, N, n, alpha)
        for tally in t.values():
            assert tally.ok, (tally.name, tally.failures)
        assert t["shift-metrics"].metrics["max_delta"][0] >= 1

    # certify reads back the one build it checks: one greedy sweep and one
    # shift per instance, whichever module they are reached through
    def test_pipeline_runs_once_per_instance(self, monkeypatch):
        calls = {"greedy": 0, "shift": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module in ("acceptance", "inversion"):
            monkeypatch.setattr(f"hyperci.{module}._greedy_sweep",
                                counted("greedy", _greedy_sweep))
        for module in ("monotonize", "inversion"):
            monkeypatch.setattr(f"hyperci.{module}._shift", counted("shift", _shift))
        monkeypatch.setattr(certify, "PIVOT_CAP", 0)
        for N, n, alpha in SHIFT_CORPUS[:1] + [(20, 6, Fraction(3, 5))]:
            calls.update(greedy=0, shift=0)
            certify.check_instance(certify.Tallies(), N, n, alpha)
            assert calls == {"greedy": 1, "shift": 1}, (N, n, alpha)


class TestReportMechanics:
    def test_failures_flip_result(self):
        bad = Tally("demo")
        bad.add(3, "instance broke")
        report = CertificationReport(checks=[bad], grid="demo grid")
        assert not report.ok
        text = report.render()
        assert "FAIL demo" in text
        assert "instance broke" in text
        assert "FAILURES FOUND" in text

    def test_metrics_rendered(self, small_report):
        text = small_report.render()
        assert "set_gap_instances=" in text
        assert "max_delta=" in text
