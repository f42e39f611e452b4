from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperci import Params, cstar_table, interval_prob
from hyperci.core import support
from hyperci.oracle import (
    exact_coverage,
    exact_interval_prob,
    lower_quantile,
    min_level_interval,
    min_symmetric_set_size,
    min_symmetric_set_size_bruteforce,
    min_symmetric_total,
    unimodal_peak,
    weight_table,
)

A60 = Fraction(3, 5)


class TestExactIntervalProb:
    def test_known_point_mass(self):
        p = Params(20, 6, 0.6)
        got = exact_interval_prob(10, 2, 2, p)
        assert got == Fraction(9450, 38760)
        assert round(float(got), 3) == 0.244

    def test_full_support_is_one(self):
        p = Params(20, 6, 0.6)
        assert exact_interval_prob(10, 0, 6, p) == 1

    def test_denominator_divides_total_draws(self):
        p = Params(18, 7, 0.1)
        for M in (0, 5, 9, 18):
            frac = exact_interval_prob(M, 1, 4, p)
            assert (frac * p.total_weight).denominator == 1

    def test_differential_against_float_kernel(self):
        for N, n in [(25, 9), (60, 22), (150, 40)]:
            p = Params(N, n, 0.1)
            for M in range(0, N + 1, max(1, N // 7)):
                for a, b in [(0, n // 2), (n // 3, n), (2, 3)]:
                    exact = exact_interval_prob(M, a, b, p)
                    approx = interval_prob(M, a, b, p)
                    assert approx == pytest.approx(float(exact), rel=1e-10, abs=1e-300)

    def test_capacity_cap(self):
        with pytest.raises(ValueError, match="capped"):
            exact_interval_prob(10, 0, 5, Params(500, 100, 0.05))


class TestMinLevelInterval:
    def test_adversarial_instance(self):
        card, interval, prob = min_level_interval(10, Params(20, 6, A60), A60)
        assert card == 2
        assert prob == Fraction(23850, 38760)

    def test_degenerate_point_mass(self):
        card, interval, prob = min_level_interval(0, Params(20, 6, 0.6), A60)
        assert (card, interval, prob) == (1, (0, 0), Fraction(1))

    def test_requires_fraction(self):
        with pytest.raises(TypeError):
            min_level_interval(10, Params(20, 6, 0.6), 0.6)


class TestSymmetricSetBounds:
    def test_adversarial_gap_instance(self):
        p = Params(20, 6, A60)
        total = min_symmetric_total(p, A60)
        assert cstar_table(Params(20, 6, 0.6)).total_size == total + 1

    def test_odd_population_equality(self):
        for N in (9, 15, 21):
            for alpha in (Fraction(1, 20), Fraction(1, 5)):
                p = Params(N, N // 2 + 1, alpha)
                assert cstar_table(p).total_size == min_symmetric_total(p, alpha)

    def test_even_even_within_one(self):
        p = Params(12, 4, Fraction(1, 20))
        total = min_symmetric_total(p, Fraction(1, 20))
        size = cstar_table(p).total_size
        assert size in (total, total + 1)

    def test_greedy_center_matches_bruteforce(self):
        for N, n in [(10, 4), (14, 7), (16, 10), (20, 6)]:
            for alpha in (Fraction(1, 10), Fraction(3, 5), Fraction(9, 10)):
                p = Params(N, n, alpha)
                assert min_symmetric_set_size(p, alpha) == min_symmetric_set_size_bruteforce(p, alpha)

    def test_center_set_beats_interval_on_gap_instance(self):
        p = Params(20, 6, A60)
        assert min_symmetric_set_size(p, A60) == 2  # the two off-center points


class TestUnimodalPeak:
    def test_left_anchored(self):
        p = Params(20, 6, 0.6)
        assert unimodal_peak(0, 3, p) == 0

    def test_right_anchored(self):
        p = Params(20, 6, 0.6)
        assert unimodal_peak(2, 6, p) == 20

    def test_full_range_rejected(self):
        with pytest.raises(ValueError):
            unimodal_peak(0, 6, Params(20, 6, 0.6))

    def test_mass_rises_then_falls(self):
        p = Params(16, 7, 0.1)
        for a in range(8):
            for b in range(a, 8):
                if b - a >= 7:
                    continue
                peak = unimodal_peak(a, b, p)
                masses = [exact_interval_prob(M, a, b, p) for M in range(17)]
                for M in range(16):
                    if M < peak:
                        assert masses[M + 1] >= masses[M]
                    else:
                        assert masses[M + 1] <= masses[M]


class TestExactCoverage:
    def test_pipeline_table_exactly_level(self):
        alpha = Fraction(1, 10)
        p = Params(28, 11, alpha)
        tbl = cstar_table(p)
        for M in range(29):
            assert exact_coverage(tbl, M) >= 1 - alpha

    def test_boundary_certain(self):
        tbl = cstar_table(Params(20, 6, 0.6))
        assert exact_coverage(tbl, 0) == 1


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
