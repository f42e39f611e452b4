import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperci import (
    Method,
    Params,
    acceptance_of,
    adjust,
    amo_half,
    coverage,
    cstar_table,
    invert,
    pivot_table,
    symmetrize,
    table_from_csv,
    table_to_csv,
    total_size_diff,
)
from hyperci.acceptance import AcceptanceFamily, _mirror, interval_masses
from hyperci.certify import DEFAULT_ALPHAS
from hyperci.core import interval_weight
from hyperci.inversion import ConfidenceTable, _build, _inverse
from hyperci.monotonize import _shift, center_interval

from test_certify import SHIFT_CORPUS


def pipeline(N, n, alpha):
    p = Params(N, n, alpha)
    adjusted, _ = adjust(amo_half(p))
    return p, symmetrize(adjusted, p)


class TestInvert:
    def test_small_instance_rows(self):
        p, sym = pipeline(20, 6, 0.6)
        tbl = invert(sym)
        expected = [(0, 2), (3, 6), (5, 10), (7, 13), (10, 15), (14, 17), (18, 20)]
        assert [tbl.interval(x) for x in range(7)] == expected
        assert tbl.total_size == 33

    def test_extreme_rows_contain_boundary_parameters(self):
        for N, n, alpha in [(20, 6, 0.6), (47, 13, 0.05), (500, 100, 0.05)]:
            p, sym = pipeline(N, n, alpha)
            tbl = invert(sym)
            assert tbl.lower[0] == 0
            assert tbl.upper[n] == N

    def test_total_size_double_counts_family(self):
        for N in range(1, 31, 3):
            for alpha in (0.05, 0.6):
                p, sym = pipeline(N, max(1, N // 3), alpha)
                assert invert(sym).total_size == sym.total_size()

    def test_non_monotone_family_rejected(self):
        p = Params(4, 2, 0.9)
        fam = AcceptanceFamily(p, (0, 1, 0, 1, 2), (0, 1, 2, 2, 2))
        with pytest.raises(ValueError, match="nondecreasing"):
            invert(fam)

    # the lower endpoints are monotone here, only the upper ones fall at M = 2
    def test_non_monotone_upper_endpoints_rejected(self):
        fam = AcceptanceFamily(Params(4, 2, 0.9), (0, 0, 1, 1, 2), (0, 1, 2, 1, 2))
        with pytest.raises(ValueError, match="not nondecreasing at M=2"):
            invert(fam)

    def test_asymmetric_family_rejected(self):
        # monotone, but A(3) = [1, 1] is not the mirror n - A(1) = [2, 2]
        fam = AcceptanceFamily(Params(4, 2, 0.9), (0, 0, 1, 1, 2), (0, 0, 1, 1, 2))
        with pytest.raises(ValueError, match="symmetry"):
            invert(fam)

    def test_family_with_gap_rejected(self):
        p = Params(4, 2, 0.9)
        fam = AcceptanceFamily(p, (0, 0, 0, 2, 2), (0, 0, 0, 2, 2))
        with pytest.raises(ValueError, match="x=1"):
            invert(fam)

    def test_deterministic_structure(self, cstar500):
        assert cstar500.method is Method.CSTAR
        again = cstar_table(Params(500, 100, 0.05))
        assert again == cstar500


class TestCstarComposition:
    # cstar_table runs the stages on endpoint lists; its tables and shift
    # traces must equal the public stages composed, over the certify grid,
    # the benchmark instances and the shift corpus, where intervals are raised
    def test_equals_public_stages_composed(self):
        cases = [(N, n, a) for N in range(1, 41) for n in range(1, N + 1)
                 for a in DEFAULT_ALPHAS + (0.05,)]
        cases += [(500, 100, 0.05), (365, 292, 0.10), (1000, 500, 0.05), (2000, 1000, 0.05),
                  (5000, 1000, 0.05), (100000, 20, 0.05), (50000, 50, 0.01), (200000, 10, 0.05)]
        raised = 0
        for N, n, alpha in cases + SHIFT_CORPUS:
            p = Params(N, n, alpha)
            tbl, _, _, trace, _ = _build(p)
            adjusted, adjust_trace = adjust(amo_half(p))
            assert tbl == invert(symmetrize(adjusted, p)), (N, n, alpha)
            assert trace == adjust_trace, (N, n, alpha)
            raised += bool(trace.set_lower)
        assert raised

    # a centre one point narrower on each side is below level; _build tests
    # the mass the centre hands it, so it must catch this as a program fault
    def test_below_level_centre_is_an_internal_fault(self, monkeypatch, capsys):
        from hyperci.cli import main

        def narrower(p, raw):
            h, top = center_interval(p, raw)
            return (h + 1, top - 1), interval_weight(p.N // 2, h + 1, top - 1, p)

        monkeypatch.setattr("hyperci.inversion._center", narrower)
        with pytest.raises(AssertionError, match="below level at M=20"):
            cstar_table(Params(40, 13, 0.2))
        code = main(["table", "--N", "40", "--n", "13", "--alpha", "0.2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    # the public stages raise ValueError for families from outside; inside
    # cstar_table the same checks can only fail on lists the program built
    # from a valid Params, so they are program faults and exit 3
    def test_widened_interval_is_an_internal_fault(self, monkeypatch, capsys):
        from hyperci.cli import main

        # the build works on runs; run 3 is [1, 3] on M = 5..7 and run 4 is
        # [1, 4], so b two higher on run 3 keeps the level, breaks order at M = 7
        def widened(lower, upper, ends):
            shifts = _shift(lower, upper, ends)
            assert (ends[2], ends[3], upper[3], upper[4]) == (4, 7, 3, 4)
            upper[3] += 2
            return shifts

        monkeypatch.setattr("hyperci.inversion._shift", widened)
        with pytest.raises(AssertionError, match="not nondecreasing at M=7"):
            cstar_table(Params(40, 13, 0.2))
        code = main(["table", "--N", "40", "--n", "13", "--alpha", "0.2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    # the support is checked on the half the build computed: A(0) = [0, 1]
    # keeps the order but leaves {0}, and the table alone would not show it
    # (its mirror A(N) = [n - 1, n] keeps the rows symmetric)
    def test_interval_outside_support_is_an_internal_fault(self, monkeypatch, capsys):
        from hyperci.cli import main

        def widened(lower, upper, ends):  # run 0 is M = 0 alone
            shifts = _shift(lower, upper, ends)
            upper[0] = 1
            return shifts

        monkeypatch.setattr("hyperci.inversion._shift", widened)
        with pytest.raises(AssertionError, match="at M=0 leaves the support"):
            cstar_table(Params(40, 13, 0.2))
        code = main(["table", "--N", "40", "--n", "13", "--alpha", "0.2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    # the mirrored half is not checked again: a mirror fault that changes a
    # row breaks the table's reflection. Here the lower endpoint of the first
    # mirrored run above its predecessor drops by one, which keeps the order
    def test_lowered_mirrored_endpoint_is_an_internal_fault(self, monkeypatch, capsys):
        from hyperci.cli import main

        def lowered(p, lower, upper, ends):  # the runs past len(lower) are mirrored
            full_lower, full_upper, full_ends = _mirror(p, lower, upper, ends)
            r = next(r for r in range(len(lower), len(full_lower))
                     if full_lower[r - 1] < full_lower[r])
            full_lower[r] -= 1
            return full_lower, full_upper, full_ends

        monkeypatch.setattr("hyperci.inversion._mirror", lowered)
        with pytest.raises(AssertionError, match="symmetry broken"):
            cstar_table(Params(40, 13, 0.2))
        code = main(["table", "--N", "40", "--n", "13", "--alpha", "0.2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    # on a wide instance, where runs hold thousands of M, a run boundary one
    # M off in the mirror (the first mirrored run ends one M early) or in the
    # inversion (L(x) the last M of the run before, not the first of its
    # own) changes rows on one side only, which the table's reflection shows
    @pytest.mark.parametrize("stage", ["mirror", "inverse"])
    def test_run_boundary_off_by_one_is_an_internal_fault(self, monkeypatch, capsys, stage):
        from hyperci.cli import main

        def early_end(p, lower, upper, ends):
            full_lower, full_upper, full_ends = _mirror(p, lower, upper, ends)
            full_ends[len(lower)] -= 1
            return full_lower, full_upper, full_ends

        def early_start(p, a, b, ends):
            lower, upper = _inverse(p, a, b, ends)
            return tuple(max(L - 1, 0) for L in lower), upper

        mutant = {"mirror": early_end, "inverse": early_start}[stage]
        monkeypatch.setattr(f"hyperci.inversion._{stage}", mutant)
        with pytest.raises(AssertionError, match="symmetry broken"):
            cstar_table(Params(20000, 10, 0.05))
        code = main(["table", "--N", "20000", "--n", "10", "--alpha", "0.05"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    # the run build against the public per-M stages on wide-shaped
    # instances, far past the N <= 40 grid and the oracle's cap: table rows,
    # the shift trace and the stored coverage at sampled M
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_run_build_equals_public_stages_on_wide_shapes(self, data):
        N = data.draw(st.integers(2000, 60000))
        n = data.draw(st.integers(1, 50))
        alpha = data.draw(st.sampled_from(list(DEFAULT_ALPHAS) + [0.05, 0.01]))
        p = Params(N, n, alpha)
        tbl, _, _, trace, _ = _build(p)
        adjusted, adjust_trace = adjust(amo_half(p))
        sym = symmetrize(adjusted, p)
        assert tbl == invert(sym)
        assert trace == adjust_trace
        sampled = data.draw(st.lists(st.integers(0, N), min_size=1, max_size=20))
        # the half M <= N/2 of the symmetrized family, up to the last sampled M
        masses = dict.fromkeys(min(M, N - M) for M in sampled)
        for M, mass in zip(range(max(masses) + 1), interval_masses(p, sym.lower, sym.upper)):
            if M in masses:
                masses[M] = mass
        for M in sampled:
            assert coverage(tbl, M) == masses[min(M, N - M)] / p.total_weight, M

    # cstar_table keeps the greedy's coverage for every interval whose
    # endpoints it did not change; one slid while _shift reports no shift
    # must be summed again, so it fails the level or stores its own coverage
    def test_unreported_slide_leaves_no_stale_coverage(self, monkeypatch):
        slid = []

        def slide(lower, upper, ends):  # one unmoved run one point right, still monotone
            shifts = _shift(lower, upper, ends)
            for r in range(1, len(lower) - 2):
                M = ends[r - 1] + 1  # the run's first M
                if M not in shifts.set_lower and M not in shifts.set_upper and \
                        lower[r] < lower[r + 1] and upper[r] < upper[r + 1]:
                    lower[r] += 1
                    upper[r] += 1
                    slid.append(M)
                    break
            return shifts

        monkeypatch.setattr("hyperci.inversion._shift", slide)
        cases = [(N, n, a) for N in range(1, 31) for n in range(1, N + 1)
                 for a in (Fraction(1, 5), Fraction(3, 5))]
        cases += [(500, 100, 0.05), (365, 292, 0.10), (1000, 500, 0.05)]
        outcomes = set()
        for N, n, alpha in cases:
            slid.clear()
            try:
                tbl = cstar_table(Params(N, n, alpha))
            except AssertionError as e:
                assert slid and "below level" in str(e), (N, n, alpha)
                outcomes.add("raised")
                continue
            bare = table_from_csv(table_to_csv(tbl))
            want = [coverage(bare, M) for M in range(N + 1)]
            assert [coverage(tbl, M) for M in range(N + 1)] == want, (N, n, alpha)
            outcomes.add("stored" if slid else "unslid")
        assert outcomes == {"raised", "stored", "unslid"}

    # a zero weight kernel breaks the centre proof's input: the window
    # inside [h, n-h] then keeps the whole mass and still attains the level
    def test_failed_centre_proof_is_an_internal_fault(self, monkeypatch, capsys):
        from hyperci.cli import main

        monkeypatch.setattr("hyperci.monotonize.weight", lambda M, x, p: 0)
        with pytest.raises(AssertionError, match="center proof failed"):
            cstar_table(Params(40, 13, 0.2))
        code = main(["table", "--N", "40", "--n", "13", "--alpha", "0.2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1
        # the public stage keeps ValueError for a centre from outside
        monkeypatch.undo()
        assert center_interval(Params(40, 13, 0.2), (5, 8)) == (5, 8)
        with pytest.raises(ValueError, match="center proof failed"):
            center_interval(Params(40, 13, 0.2), (4, 9))

    # the module is `hyperci.inversion`, so a dotted patch path reaches it,
    # while the package's name `invert` stays the function
    def test_module_reachable_by_patch_path(self, monkeypatch):
        import hyperci

        def broken(p):
            raise AssertionError("patched greedy")

        monkeypatch.setattr("hyperci.inversion._greedy_sweep", broken)
        with pytest.raises(AssertionError, match="patched greedy"):
            cstar_table(Params(10, 3, 0.1))
        assert hyperci.invert is invert and hyperci.inversion.invert is invert

    def test_bad_input_still_exits_2(self, capsys):
        from hyperci.cli import main

        code = main(["table", "--N", "40", "--n", "41", "--alpha", "0.2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDuality:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_and_set_form(self, data):
        N = data.draw(st.integers(1, 34))
        n = data.draw(st.integers(1, N))
        alpha = data.draw(st.sampled_from([0.01, 0.1, 0.3, 0.6]))
        p, sym = pipeline(N, n, alpha)
        tbl = invert(sym)
        # set-form inversion computed directly from the definitions
        for x in range(n + 1):
            members = [M for M in range(N + 1) if sym.lower[M] <= x <= sym.upper[M]]
            assert members == list(range(tbl.lower[x], tbl.upper[x] + 1))
        dual = acceptance_of(tbl)
        assert dual.lower == sym.lower and dual.upper == sym.upper
        assert invert(dual) == tbl

    # random monotone families in their supports, not pipeline outputs;
    # sorting each endpoint list keeps it in the supports (both support
    # bounds are nondecreasing in M) and keeps a_M <= b_M
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_inverse_on_arbitrary_monotone_families(self, data):
        N = data.draw(st.integers(1, 30))
        n = data.draw(st.integers(1, N))
        a, b = [], []
        for M in range(N + 1):
            a.append(data.draw(st.integers(max(0, M + n - N), min(M, n))))
            b.append(data.draw(st.integers(a[-1], min(M, n))))
        _check_inverse(Params(N, n, 0.5), sorted(a), sorted(b))

    # x = 1 lies in no interval: A(1) = [0, 0], A(2) = [2, 2]
    def test_inverse_of_family_with_an_uncovered_x(self):
        lower, upper = _check_inverse(Params(3, 2, 0.5), [0, 0, 2, 2], [0, 0, 2, 2])
        assert (lower[1], upper[1]) == (2, 1)

    def test_symmetry_equivalent_under_set_form_inversion(self):
        # symmetric family -> symmetric confidence sets; perturbing one
        # family entry breaks symmetry on both sides at once
        for N, n in [(8, 4), (11, 5), (14, 9)]:
            p = Params(N, n, 0.6)
            sym = symmetrize(adjust(amo_half(p))[0], p)
            assert _set_form_symmetric(_set_form(sym), N, n)
            for M in range(N + 1):
                lo_s, hi_s = sym.interval(M)
                for a, b in [(max(lo_s - 1, 0), hi_s), (lo_s, min(hi_s + 1, n))]:
                    warped = _warp(sym, M, a, b)
                    if warped is None:
                        continue
                    assert not _set_form_symmetric(_set_form(warped), N, n)
                    break
                else:
                    continue
                break


def _check_inverse(p, a, b):
    """``_inverse``'s rows against their definitions and the set form."""
    N, n = p.N, p.n
    AcceptanceFamily(p, tuple(a), tuple(b))  # the family lies in its supports
    lower, upper = _inverse(p, a, b)
    for x in range(n + 1):
        assert lower[x] == min([M for M in range(N + 1) if b[M] >= x])
        assert upper[x] == max([M for M in range(N + 1) if a[M] <= x])
        members = [M for M in range(N + 1) if a[M] <= x <= b[M]]
        assert members == list(range(lower[x], upper[x] + 1))
    return lower, upper


def _warp(fam, M, a, b):
    from hyperci.core import support

    p = fam.params
    lo, hi = support(M, p)
    if not lo <= a <= b <= hi or (a, b) == fam.interval(M):
        return None
    lower = fam.lower[:M] + (a,) + fam.lower[M + 1 :]
    upper = fam.upper[:M] + (b,) + fam.upper[M + 1 :]
    fresh = AcceptanceFamily(p, lower, upper)
    # must actually break family symmetry, not shift both mirrored entries
    N, n = p.N, p.n
    if all(fresh.lower[m] + fresh.upper[N - m] == n for m in range(N + 1)):
        return None
    return fresh


def _set_form(fam):
    p = fam.params
    return [
        {M for M in range(p.N + 1) if fam.lower[M] <= x <= fam.upper[M]}
        for x in range(p.n + 1)
    ]


def _set_form_symmetric(sets, N, n):
    return all(sets[x] == {N - M for M in sets[n - x]} for x in range(n + 1))


class TestCoverage:
    def test_certain_at_boundary(self, cstar500):
        assert coverage(cstar500, 0) == 1.0

    def test_never_below_level_large_instance(self, cstar500):
        assert min(coverage(cstar500, M) for M in range(501)) >= 0.95

    def test_pivot_higher_near_boundaries(self, cstar500, pivot500):
        near = list(range(1, 11)) + list(range(490, 500))
        for M in near:
            assert coverage(pivot500, M) >= coverage(cstar500, M)

    def test_out_of_range(self, cstar500):
        with pytest.raises(ValueError):
            coverage(cstar500, 501)

    def test_matches_direct_sum(self):
        p, sym = pipeline(25, 9, 0.1)
        tbl = invert(sym)
        from hyperci.core import pmf

        for M in range(26):
            direct = sum(
                pmf(M, x, p)
                for x in range(10)
                if tbl.lower[x] <= M <= tbl.upper[x]
            )
            assert coverage(tbl, M) == pytest.approx(direct, abs=1e-12)

    # the all-M sweep and the one-M function round the same integer once,
    # so the floats are equal, not just close
    def test_all_m_sweep_equals_per_m_coverage(self):
        alphas = [Fraction(k, d) for k, d in [(1, 100), (1, 20), (1, 10), (1, 5), (3, 5)]]
        cases = [(N, n, a) for N in range(1, 41) for n in range(1, N + 1) for a in alphas + [0.05]]
        cases += [(2000, 1000, 0.05), (100000, 20, 0.05)]
        for N, n, alpha in cases:
            p = Params(N, n, alpha)
            for tbl in (cstar_table(p), pivot_table(p)):
                swept = [m / p.total_weight for m in acceptance_of(tbl).masses()]
                assert swept == [coverage(tbl, M) for M in range(N + 1)], (N, n, alpha)

    # a hand-built table whose intervals miss M = 5 entirely: coverage there
    # is the empty window's 0.0, and no dual interval exists
    def test_table_with_an_uncovered_m(self):
        tbl = ConfidenceTable(Params(10, 1, 0.5), Method.PIVOT, (0, 6), (4, 10))
        assert coverage(tbl, 5) == 0.0
        assert coverage(tbl, 4) == 0.6
        with pytest.raises(ValueError, match="table accepts no x at M=5"):
            acceptance_of(tbl)

    def test_middle_acceptance_interval_holds_level(self):
        from hyperci.core import interval_prob

        p, sym = pipeline(500, 100, 0.05)
        a, b = sym.interval(250)
        assert interval_prob(250, a, b, p) >= 0.95


class TestTotalSizeDiff:
    def test_identity_is_zero(self, cstar500):
        assert total_size_diff(cstar500, cstar500) == 0

    def test_published_gap_range(self, cstar500, pivot500):
        assert 200 <= total_size_diff(pivot500, cstar500) <= 260

    def test_mismatched_instances_rejected(self, cstar500):
        other = cstar_table(Params(500, 100, 0.1))
        with pytest.raises(ValueError):
            total_size_diff(cstar500, other)


class TestCsvRoundTrip:
    def test_round_trip(self):
        tbl = cstar_table(Params(20, 6, 0.6))
        text = table_to_csv(tbl, elapsed_s=0.123)
        back = table_from_csv(text)
        assert back == tbl

    def test_round_trip_fraction_alpha(self):
        tbl = cstar_table(Params(20, 6, Fraction(3, 5)))
        assert table_from_csv(table_to_csv(tbl)) == tbl

    def test_tsv_round_trip(self):
        tbl = cstar_table(Params(18, 5, 0.1))
        assert table_from_csv(table_to_csv(tbl).replace(",", "\t")) == tbl

    def test_total_footer_validated(self):
        tbl = cstar_table(Params(20, 6, 0.6))
        text = table_to_csv(tbl).replace("total_size: 33", "total_size: 34")
        with pytest.raises(ValueError, match="total_size"):
            table_from_csv(text)

    @pytest.mark.parametrize("key", ["N", "n", "alpha"])
    def test_header_missing_key_names_it(self, key):
        header = {"N": "N=20", "n": "n=6", "alpha": "alpha=0.6"}
        del header[key]
        text = f"# hyperci table {' '.join(header.values())}\nx,L,U\n0,0,2\n"
        with pytest.raises(ValueError, match=f"lacks {key}="):
            table_from_csv(text)

    @pytest.mark.parametrize("key, bad", [("alpha", "1/0"), ("alpha", "abc"), ("N", "2x"),
                                          ("n", "six"), ("method", "bogus")])
    def test_header_bad_value_names_it(self, key, bad):
        header = {"N": "20", "n": "6", "alpha": "0.6", "method": "cstar", key: bad}
        fields = " ".join(f"{k}={v}" for k, v in header.items())
        text = f"# hyperci table {fields}\nx,L,U\n0,0,2\n"
        with pytest.raises(ValueError, match=f"bad value {key}="):
            table_from_csv(text)

    @pytest.mark.parametrize("bad_row", ["3,7", "3,7,x", "3,7,13,0"])
    def test_malformed_row_names_its_line(self, bad_row):
        text = table_to_csv(cstar_table(Params(20, 6, 0.6))).replace("3,7,13", bad_row)
        with pytest.raises(ValueError, match="line 6"):
            table_from_csv(text)


class TestStoredCoverage:
    # a C* table carries the coverage its level sweep summed; the same table
    # parsed back from its CSV carries none, so it sums each M from scratch
    ALPHAS = [Fraction(k, d) for k, d in [(1, 100), (1, 20), (1, 10), (1, 5), (3, 5)]] + [0.05]
    LADDER = [(500, 100, 0.05), (365, 292, 0.10), (1000, 500, 0.05), (2000, 1000, 0.05),
              (5000, 1000, 0.05)]
    WIDE = [(100000, 20, 0.05), (50000, 50, 0.01), (200000, 10, 0.05)]

    def test_equals_from_scratch_coverage(self):
        cases = [(N, n, a) for N in range(1, 41) for n in range(1, N + 1) for a in self.ALPHAS]
        for N, n, alpha in cases + self.LADDER:
            tbl = cstar_table(Params(N, n, alpha))
            bare = table_from_csv(table_to_csv(tbl))
            assert bare._coverage is None
            want = [coverage(bare, M) for M in range(N + 1)]
            assert [coverage(tbl, M) for M in range(N + 1)] == want, (N, n, alpha)

    # on N in the 1e5 range the from-scratch path is slow; the dual's carried
    # masses over C(N, n) round the same integers
    def test_equals_dual_masses_on_wide_instances(self):
        for N, n, alpha in self.WIDE:
            p = Params(N, n, alpha)
            tbl = cstar_table(p)
            want = [m / p.total_weight for m in acceptance_of(tbl).masses()]
            assert [coverage(tbl, M) for M in range(N + 1)] == want, (N, n, alpha)

    def test_not_compared_hashed_or_printed(self):
        tbl = cstar_table(Params(61, 20, 0.05))
        bare = table_from_csv(table_to_csv(tbl))
        assert tbl == bare and hash(tbl) == hash(bare)
        assert repr(tbl) == repr(bare)
        assert len(tbl._coverage) == 31

    def test_pickle_keeps_it(self):
        tbl = cstar_table(Params(60, 20, 0.05))
        again = pickle.loads(pickle.dumps(tbl))
        assert again == tbl and again._coverage == tbl._coverage

    # replace() builds a new table, so the source's coverage is not carried
    def test_replace_carries_no_stale_coverage(self):
        p = Params(60, 20, 0.05)
        ptbl = pivot_table(p)
        swapped = dataclasses.replace(
            cstar_table(p), method=ptbl.method, lower=ptbl.lower, upper=ptbl.upper
        )
        assert swapped == ptbl and swapped._coverage is None
        assert [coverage(swapped, M) for M in range(61)] == [coverage(ptbl, M) for M in range(61)]

    def test_out_of_range_still_raises(self, cstar500):
        for M in (-1, 501):
            with pytest.raises(ValueError, match="M must be in"):
                coverage(cstar500, M)

    # a corrupt kernel fails the build's carried sweeps, so no table with
    # wrong stored coverage is ever returned
    def test_doubled_step_m_fails_before_a_table_exists(self, monkeypatch):
        import hyperci.core as core

        step = core.step_m
        monkeypatch.setattr(core, "step_m", lambda w, M, x, p: step(w, M, x, p) * 2)
        with pytest.raises(AssertionError, match="drifted"):
            cstar_table(Params(40, 13, 0.2))
