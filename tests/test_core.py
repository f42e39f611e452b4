import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperci.core import (
    Params,
    attains_level,
    interval_prob,
    interval_weight,
    log_pmf,
    lower_quantile,
    lower_tail,
    mode,
    pmf,
    support,
    weight,
    weight_table,
)

NEG_INF = float("-inf")


class TestParams:
    def test_valid_construction(self):
        p = Params(20, 6, 0.6)
        assert p.total_weight == math.comb(20, 6)

    @pytest.mark.parametrize(
        "N,n,alpha",
        [(0, 1, 0.5), (20, 0, 0.5), (20, 21, 0.5), (20, 6, 0.0), (20, 6, 1.0), (20, 6, -0.1)],
    )
    def test_invalid_construction(self, N, n, alpha):
        with pytest.raises(ValueError):
            Params(N, n, alpha)

    def test_fraction_alpha_accepted(self):
        p = Params(20, 6, Fraction(3, 5))
        assert p.alpha == Fraction(3, 5)

    def test_n_equal_to_population_allowed(self):
        p = Params(7, 7, 0.1)
        for M in range(8):
            assert support(M, p) == (M, M)


class TestSupport:
    def test_interior(self):
        assert support(10, Params(20, 6, 0.5)) == (0, 6)

    def test_no_special_items(self):
        assert support(0, Params(20, 6, 0.5)) == (0, 0)

    def test_lower_bound_active(self):
        assert support(495, Params(500, 100, 0.5)) == (95, 100)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            support(21, Params(20, 6, 0.5))
        with pytest.raises(ValueError):
            support(-1, Params(20, 6, 0.5))


class TestMode:
    def test_small(self):
        assert mode(10, Params(20, 6, 0.5)) == 3

    def test_zero(self):
        assert mode(0, Params(20, 6, 0.5)) == 0

    def test_large(self):
        assert mode(250, Params(500, 100, 0.05)) == 50

    def test_mode_is_argmax_of_weights(self):
        for N in (9, 16, 23):
            for n in range(1, N + 1):
                p = Params(N, n, 0.5)
                for M in range(N + 1):
                    lo, _ = support(M, p)
                    w = weight_table(M, p)
                    assert w[mode(M, p) - lo] == max(w)


class TestLogPmf:
    def test_known_value(self):
        # P(X = 2) at N=20, n=6, M=10 rounds to 0.244
        p = Params(20, 6, 0.6)
        assert round(math.exp(log_pmf(10, 2, p)), 3) == 0.244

    def test_symmetric_pair_identical(self):
        p = Params(20, 6, 0.6)
        assert log_pmf(10, 2, p) == log_pmf(10, 4, p)

    def test_outside_support(self):
        p = Params(20, 6, 0.6)
        assert log_pmf(0, 1, p) == NEG_INF
        assert pmf(0, 1, p) == 0.0

    def test_reflection_within_tolerance(self):
        for N, n in [(17, 5), (30, 11), (41, 41)]:
            p = Params(N, n, 0.3)
            for M in range(N + 1):
                for x in range(n + 1):
                    left = log_pmf(M, x, p)
                    right = log_pmf(N - M, n - x, p)
                    if left == NEG_INF or right == NEG_INF:
                        assert left == right
                    else:
                        assert abs(left - right) <= 1e-13

    def test_matches_integer_weights(self):
        p = Params(37, 12, 0.1)
        for M in range(38):
            lo, hi = support(M, p)
            for x in range(lo, hi + 1):
                exact = weight(M, x, p) / p.total_weight
                assert pmf(M, x, p) == pytest.approx(exact, rel=1e-12)


class TestTailsAndIntervals:
    def test_lower_tail_at_support_start(self):
        p = Params(20, 6, 0.6)
        assert lower_tail(10, 0, p) == 0.0
        assert lower_tail(10, -3, p) == 0.0

    def test_lower_tail_past_support_is_one(self):
        p = Params(20, 6, 0.6)
        assert lower_tail(10, 7, p) == pytest.approx(1.0, abs=1e-12)

    def test_lower_tail_value(self):
        # exact tail below 2: (210 + 2520) / 38760
        p = Params(20, 6, 0.6)
        assert lower_tail(10, 2, p) == pytest.approx(2730 / 38760, abs=1e-13)

    def test_interval_prob_known(self):
        p = Params(20, 6, 0.6)
        got = interval_prob(10, 2, 3, p)
        assert got == pytest.approx(23850 / 38760, abs=1e-12)
        assert got >= 0.4

    def test_interval_prob_full_support(self):
        for N, n in [(20, 6), (100, 33), (2000, 777)]:
            p = Params(N, n, 0.5)
            for M in (0, N // 3, N // 2, N):
                lo, hi = support(M, p)
                assert interval_prob(M, lo, hi, p) == pytest.approx(1.0, abs=1e-12)

    def test_empty_interval(self):
        p = Params(20, 6, 0.6)
        assert interval_prob(10, 4, 2, p) == 0.0


class TestUnimodality:
    def test_strict_shape_small_grid(self):
        for N in range(1, 26):
            p = Params(N, max(1, N // 2), 0.5)
            n = p.n
            for M in range(N + 1):
                lo, hi = support(M, p)
                w = weight_table(M, p)
                num = (n + 1) * (M + 1)
                m2 = num // (N + 2)
                m1 = m2 - 1 if num % (N + 2) == 0 else m2
                for x in range(lo, min(m1, hi)):
                    assert w[x - lo] < w[x + 1 - lo]
                for x in range(max(m2, lo), hi):
                    assert w[x - lo] > w[x + 1 - lo]


class TestRatioOrdering:
    def test_ratio_strictly_increasing_in_m(self):
        # cross-multiplied pmf ratios, all valid tuples for N <= 25
        for N in range(2, 26):
            for n in range(1, N):
                p = Params(N, n, 0.5)
                for x1 in range(n + 1):
                    for x2 in range(x1 + 1, n + 1):
                        if x2 - x1 >= N - n:
                            continue
                        for M in range(x2, N - n + x1):
                            lhs = weight(M, x2, p) * weight(M + 1, x1, p)
                            rhs = weight(M + 1, x2, p) * weight(M, x1, p)
                            assert lhs < rhs

    def test_likelihood_ratio_nondecreasing_in_x(self):
        for N, n in [(15, 6), (21, 13)]:
            p = Params(N, n, 0.5)
            for M1 in range(N):
                for M2 in range(M1 + 1, N + 1):
                    lo = max(support(M1, p).x_min, support(M2, p).x_min)
                    hi = min(support(M1, p).x_max, support(M2, p).x_max)
                    for x in range(lo, hi):
                        assert (
                            weight(M2, x, p) * weight(M1, x + 1, p)
                            <= weight(M2, x + 1, p) * weight(M1, x, p)
                        )


class TestLevelComparator:
    def test_exact_threshold_with_fraction(self):
        p = Params(20, 6, Fraction(3, 5))
        want = (1 - Fraction(3, 5)) * p.total_weight
        assert attains_level(int(want), p)
        assert not attains_level(int(want) - 1, p)

    def test_float_alpha_uses_exact_binary_value(self):
        p = Params(10, 4, 0.25)  # 0.25 is exact in binary
        # C(10,4) = 210, threshold 157.5: 158 attains, 157 does not
        assert attains_level(158, p)
        assert not attains_level(157, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normalization_and_tail_complement(data):
    N = data.draw(st.integers(1, 150))
    n = data.draw(st.integers(1, N))
    M = data.draw(st.integers(0, N))
    p = Params(N, n, 0.31)
    lo, hi = support(M, p)
    total = sum(pmf(M, x, p) for x in range(lo, hi + 1))
    assert total == pytest.approx(1.0, abs=1e-12)
    x = data.draw(st.integers(lo, hi))
    assert lower_tail(M, x, p) + interval_prob(M, x, hi, p) == pytest.approx(
        1.0, abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weight_table_matches_direct_combinations(data):
    N = data.draw(st.integers(1, 80))
    n = data.draw(st.integers(1, N))
    M = data.draw(st.integers(0, N))
    p = Params(N, n, 0.31)
    lo, hi = support(M, p)
    table = weight_table(M, p)
    assert table == [weight(M, x, p) for x in range(lo, hi + 1)]
    assert sum(table) == p.total_weight


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_interval_weight_matches_table_slice(data):
    N = data.draw(st.integers(1, 80))
    n = data.draw(st.integers(1, N))
    M = data.draw(st.integers(0, N))
    p = Params(N, n, 0.31)
    a = data.draw(st.integers(-3, n + 3))
    b = data.draw(st.integers(-3, n + 3))
    lo, hi = support(M, p)
    table = weight_table(M, p)
    want = sum(table[x - lo] for x in range(max(a, lo), min(b, hi) + 1))
    assert interval_weight(M, a, b, p) == want
    assert interval_weight(M, -1, n + 1, p) == p.total_weight


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lower_quantile_matches_prefix_scan(data):
    N = data.draw(st.integers(1, 80))
    n = data.draw(st.integers(1, N))
    M = data.draw(st.integers(0, N))
    p = Params(N, n, 0.31)
    num = data.draw(st.integers(0, 99))
    threshold = data.draw(st.sampled_from([Fraction(num, 100), num / 100]))
    lo, _ = support(M, p)
    cum = 0
    for x, w in enumerate(weight_table(M, p), lo):
        cum += w
        if Fraction(cum, p.total_weight) > threshold:
            break
    assert lower_quantile(M, threshold, p) == x


def test_lower_quantile_exact_at_a_tie():
    # P_10(X <= 1) = 2730 / 38760 exactly: the tail must exceed it, not reach it
    p = Params(20, 6, 0.5)
    tie = Fraction(2730, 38760)
    assert lower_quantile(10, tie, p) == 2
    assert lower_quantile(10, tie - Fraction(1, 10**9), p) == 1


def test_lower_quantile_rejects_unreachable_threshold():
    with pytest.raises(ValueError):
        lower_quantile(10, 1, Params(20, 6, 0.5))
