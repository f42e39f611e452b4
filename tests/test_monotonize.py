from fractions import Fraction

import pytest

from hyperci import Params, adjust, amo_half, center_interval, symmetrize
from hyperci.acceptance import AcceptanceFamily
from hyperci.certify import DEFAULT_ALPHAS
from hyperci.core import attains_level, support
from hyperci.inversion import _build
from hyperci.oracle import (
    greedy_interval,
    lower_quantile,
    min_center_length,
    prefix_row,
    weight_table,
)

from test_acceptance_family import family_is_level, reflect_full


def exact_level_ok(fam, M):
    p = fam.params
    lo, _ = support(M, p)
    w = weight_table(M, p)
    a, b = fam.interval(M)
    return attains_level(sum(w[a - lo : b - lo + 1]), p)


class TestAdjust:
    def test_already_monotone_is_identity(self):
        half = amo_half(Params(20, 6, 0.6))
        adjusted, trace = adjust(half)
        assert adjusted.lower == half.lower and adjusted.upper == half.upper
        assert not trace.set_lower and not trace.set_upper

    def test_up_shift_instance(self):
        # this instance needs a one-point up-shift at M=16
        half = amo_half(Params(100, 26, 0.01))
        adjusted, trace = adjust(half)
        assert trace.set_lower == {16: 1}
        assert not trace.set_upper
        assert adjusted.lower[16] == half.lower[16] + 1
        assert adjusted.upper[16] == half.upper[16] + 1

    def test_down_shift_on_full_range_family(self):
        # the upper half of a full-range greedy family mirrors the up-shifts
        p = Params(100, 26, 0.01)
        ints = [greedy_interval(p, M) for M in range(101)]
        lower, upper = zip(*ints)
        adjusted, trace = adjust(AcceptanceFamily(p, lower, upper))
        assert 84 in trace.set_upper
        assert all(exact_level_ok(adjusted, M) for M in range(101))
        assert list(adjusted.lower) == sorted(adjusted.lower)
        assert list(adjusted.upper) == sorted(adjusted.upper)

    def test_lengths_and_level_preserved(self):
        for N, n, alpha in [(100, 26, 0.01), (150, 19, 0.1), (365, 33, 0.1)]:
            half = amo_half(Params(N, n, alpha))
            adjusted, trace = adjust(half)
            assert trace.set_lower.keys().isdisjoint(trace.set_upper)
            for M in range(len(half)):
                assert adjusted.length(M) == half.length(M)
                assert exact_level_ok(adjusted, M)

    def test_disjoint_shift_sets_large_instance(self):
        _, trace = adjust(amo_half(Params(500, 100, 0.05)))
        assert trace.set_lower.keys().isdisjoint(trace.set_upper)
        assert trace.set_lower == {16: 1}  # one observed one-point slide

    # both mappings against their definition, over certify's grid and the
    # benchmark ladder, where the shift raises intervals; the ladder's full
    # mirrored families add the lowered ones
    def test_trace_matches_definition(self):
        cases = [(N, n, a) for N in range(1, 41) for n in range(1, N + 1) for a in DEFAULT_ALPHAS]
        ladder = [(500, 100, 0.05), (365, 292, 0.10), (1000, 500, 0.05), (2000, 1000, 0.05),
                  (5000, 1000, 0.05)]
        families = [amo_half(Params(*c)) for c in cases + ladder]
        families += [reflect_full(amo_half(Params(*c))) for c in ladder]
        raised = lowered = 0
        for half in families:
            _, trace = adjust(half)
            a, b, k = half.lower, half.upper, len(half)
            raises = {M: d for M in range(k) if (d := max(a[: M + 1]) - a[M]) > 0}
            drops = {M: d for M in range(k) if (d := b[M] - min(b[M:])) > 0}
            assert trace.set_lower == raises and trace.set_upper == drops, half.params
            raised += len(raises)
            lowered += len(drops)
        assert raised and lowered

    def test_corrupt_input_diagnostic_names_m(self):
        p = Params(20, 6, 0.6)
        half = amo_half(p)
        # shrink M=5 to a single point, which falls below the level
        broken = AcceptanceFamily(
            p, half.lower, half.upper[:5] + (half.lower[5],) + half.upper[6:]
        )
        text = r"input family is not level alpha at M=5: interval \(\d+, \d+\) has mass \d+/\d+"
        with pytest.raises(ValueError, match=text):
            adjust(broken)

    # N=12, n=10: the support's lower end max(0, M-2) rises inside the half,
    # so the guard's carried window must follow it. M=0 has the one-point
    # support {0} of mass 1, so M=1 is the first M a family can fail at.
    @pytest.mark.parametrize("M, a, b", [(1, 0, 0), (4, 2, 2), (6, 4, 4)])
    def test_guard_names_first_bad_m_across_rising_support(self, M, a, b):
        p = Params(12, 10, 0.05)
        half = amo_half(p)
        lower = half.lower[:M] + (a,) + half.lower[M + 1:]
        upper = half.upper[:M] + (b,) + half.upper[M + 1:]
        with pytest.raises(ValueError, match=f"at M={M}:"):
            adjust(AcceptanceFamily(p, lower, upper))

    # a doubled weight seeds terms that drive the carried mass below the
    # level, which must not be reported as a below-level input; a 0.1%
    # error only drifts it
    @pytest.mark.parametrize("num, den", [(2, 1), (1001, 1000)])
    def test_guard_detects_drift_from_a_corrupt_kernel(self, monkeypatch, num, den):
        import hyperci.acceptance as acceptance

        half = amo_half(Params(40, 13, 0.2))  # built before the kernel is corrupted
        weight = acceptance.weight
        monkeypatch.setattr(acceptance, "weight", lambda M, x, p: weight(M, x, p) * num // den)
        with pytest.raises(AssertionError, match="corrupt kernels"):
            adjust(half)

    def test_guard_follows_windows_that_leave_the_support(self):
        # every interval sits at the support's lower end, so each M's window
        # falls wholly or partly below the next support
        lower = (0, 0, 0, 1, 2, 3, 4)
        adjust(AcceptanceFamily(Params(12, 10, 0.99), lower, lower))
        upper = (0, 1, 2, 3, 3, 4, 4)  # level until P_6([4, 4]) = 15/66
        fam = AcceptanceFamily(Params(12, 10, 0.5), lower, upper)
        with pytest.raises(ValueError, match="at M=6:"):
            adjust(fam)


class TestCenterInterval:
    def test_adversarial_instance(self):
        p = Params(20, 6, 0.6)
        half = amo_half(p)
        assert center_interval(p, half.interval(10)) == (2, 4)

    def test_already_symmetric_center_is_kept(self):
        # find an instance whose raw center is symmetric about n/2
        p = Params(18, 6, 0.2)
        half = amo_half(p)
        a, b = half.interval(9)
        if a + b == p.n:
            assert center_interval(p, (a, b)) == (a, b)
        else:  # fall back: the symmetric hull is returned
            h = min(a, p.n - b)
            assert center_interval(p, (a, b)) == (h, p.n - h)

    def test_large_instance_symmetric_and_cross_checked(self):
        p = Params(500, 100, 0.05)
        adjusted, _ = adjust(amo_half(p))
        a, b = adjusted.interval(250)
        h, top = center_interval(p, (a, b))
        assert h + top == 100
        assert h == lower_quantile(250, Fraction(p.alpha) / 2, p)

    # h = min(a, n - b) and its level proof against the shortest symmetric
    # window found by the independent prefix-row search; a raw centre one
    # point wider or narrower on each side must fail the proof
    def test_proven_h_matches_prefix_row_search(self):
        for N in range(2, 41, 2):
            for n in range(1, N + 1):
                for alpha in DEFAULT_ALPHAS + (0.05,):
                    p = Params(N, n, alpha)
                    a, b = raw = _build(p)[4]
                    bar = (1 - Fraction(alpha)) * p.total_weight
                    length = min_center_length(prefix_row(N // 2, p), n, bar)
                    c = (n + 1 - length) // 2
                    assert center_interval(p, raw) == (c, n - c), (N, n, alpha)
                    for mutant in [(a - 1, b + 1), (a + 1, b - 1)]:
                        with pytest.raises(ValueError, match="center proof failed"):
                            center_interval(p, mutant)

    # the even ``ladder`` instances, and a subnormal alpha whose float half
    # rounds to 0, against the uncapped lower-tail reference
    @pytest.mark.parametrize("N, n, alpha", [
        (500, 100, 0.05), (1000, 500, 0.05), (2000, 1000, 0.05), (5000, 1000, 0.05),
        (2000, 1000, 5e-324),
    ])
    def test_proven_h_is_the_tail_quantile(self, N, n, alpha):
        p = Params(N, n, alpha)
        h, _ = center_interval(p, _build(p)[4])
        assert h == lower_quantile(N // 2, Fraction(alpha) / 2, p)

    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            center_interval(Params(19, 6, 0.1), (2, 3))

    def test_no_shorter_symmetric_interval_attains_level(self):
        # [h, n-h] is minimal: every [c, n-c] with c > h falls short
        for N, n, alpha in [(20, 6, 0.6), (18, 6, 0.2), (30, 13, 0.05)]:
            p = Params(N, n, alpha)
            half = amo_half(p)
            h, _ = center_interval(p, half.interval(N // 2))
            lo, _ = support(N // 2, p)
            w = weight_table(N // 2, p)

            def sym_mass(c):
                lo_c, hi_c = max(c, lo), min(n - c, len(w) - 1 + lo)
                return sum(w[lo_c - lo : hi_c - lo + 1])

            assert attains_level(sym_mass(h), p)
            for c in range(h + 1, n // 2 + 1):
                assert not attains_level(sym_mass(c), p)


class TestSymmetrize:
    def test_adversarial_center_entry(self):
        p = Params(20, 6, 0.6)
        adjusted, _ = adjust(amo_half(p))
        sym = symmetrize(adjusted, p)
        assert sym.interval(10) == (2, 4)

    def test_odd_population_pure_keep_and_reflect(self):
        p = Params(19, 6, 0.1)
        adjusted, _ = adjust(amo_half(p))
        sym = symmetrize(adjusted, p)
        for M in range(10):
            assert sym.interval(M) == adjusted.interval(M)
            assert sym.interval(19 - M) == (6 - adjusted.upper[M], 6 - adjusted.lower[M])

    def test_endpoint_sums_equal_sample_size(self):
        p = Params(500, 100, 0.05)
        adjusted, _ = adjust(amo_half(p))
        sym = symmetrize(adjusted, p)
        for M in range(501):
            assert sym.lower[M] + sym.upper[500 - M] == 100

    @pytest.mark.parametrize("N,n,alpha", [(20, 6, 0.6), (19, 7, 0.1), (100, 26, 0.01)])
    def test_monotone_across_midpoint_and_level(self, N, n, alpha):
        p = Params(N, n, alpha)
        adjusted, _ = adjust(amo_half(p))
        sym = symmetrize(adjusted, p)
        k = N // 2
        assert sym.lower[k] <= sym.lower[k + 1]
        assert sym.upper[k] <= sym.upper[k + 1]
        assert family_is_level(sym)

    def test_matches_reflect_full_away_from_center(self):
        # both mirror through ``_mirror``; only the even-N centre differs
        for N in range(1, 41):
            for n in range(1, N + 1):
                for alpha in DEFAULT_ALPHAS:
                    p = Params(N, n, alpha)
                    adjusted, _ = adjust(amo_half(p))
                    sym, refl = symmetrize(adjusted, p), reflect_full(adjusted)
                    assert len(sym) == len(refl) == N + 1
                    for M in range(N + 1):
                        if 2 * M != N:
                            assert sym.interval(M) == refl.interval(M), (N, n, alpha, M)

    def test_fraction_and_float_alpha_agree(self):
        pf = Params(20, 6, 0.6)
        pq = Params(20, 6, Fraction(3, 5))
        sf = symmetrize(adjust(amo_half(pf))[0], pf)
        sq = symmetrize(adjust(amo_half(pq))[0], pq)
        assert sf.lower == sq.lower and sf.upper == sq.upper
