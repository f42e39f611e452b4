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
    symmetrize,
    table_from_csv,
    table_to_csv,
    total_size_diff,
)
from hyperci.acceptance import AcceptanceFamily, Stage


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
        fam = AcceptanceFamily(p, Stage.RAW, (0, 1, 0, 1, 2), (0, 1, 2, 2, 2))
        with pytest.raises(ValueError, match="nondecreasing"):
            invert(fam)

    def test_family_with_gap_rejected(self):
        p = Params(4, 2, 0.9)
        fam = AcceptanceFamily(p, Stage.RAW, (0, 0, 0, 2, 2), (0, 0, 0, 2, 2))
        with pytest.raises(ValueError, match="x=1"):
            invert(fam)

    def test_deterministic_structure(self, cstar500):
        assert cstar500.method is Method.CSTAR
        again = cstar_table(Params(500, 100, 0.05))
        assert again == cstar500


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


def _warp(fam, M, a, b):
    from hyperci.core import support

    p = fam.params
    lo, hi = support(M, p)
    if not lo <= a <= b <= hi or (a, b) == fam.interval(M):
        return None
    lower = fam.lower[:M] + (a,) + fam.lower[M + 1 :]
    upper = fam.upper[:M] + (b,) + fam.upper[M + 1 :]
    fresh = AcceptanceFamily(p, Stage.RAW, lower, upper)
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
        assert table_from_csv(table_to_csv(tbl, sep="\t")) == tbl

    def test_total_footer_validated(self):
        tbl = cstar_table(Params(20, 6, 0.6))
        text = table_to_csv(tbl).replace("total_size: 33", "total_size: 34")
        with pytest.raises(ValueError, match="total_size"):
            table_from_csv(text)

    @pytest.mark.parametrize("bad_row", ["3,7", "3,7,x", "3,7,13,0"])
    def test_malformed_row_names_its_line(self, bad_row):
        text = table_to_csv(cstar_table(Params(20, 6, 0.6))).replace("3,7,13", bad_row)
        with pytest.raises(ValueError, match="line 6"):
            table_from_csv(text)
