from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperci import Params, acceptance_of, pivot_ci, pivot_table
from hyperci.core import interval_weight, weight
from hyperci.oracle import lower_quantile, pivot_scan
from hyperci.pivot import _bisect_table, _certify_row, _lower_tail_weight, _sweep_table

from reference_tables import COMPETITOR_L, COMPETITOR_U


class TestPivotCi:
    def test_published_row(self, p500):
        assert pivot_ci(13, p500) == (39, 101)

    def test_lower_bound_zero_at_x_zero(self):
        for N, n, alpha in [(20, 6, 0.6), (500, 100, 0.05), (365, 292, 0.1)]:
            assert pivot_ci(0, Params(N, n, alpha))[0] == 0

    def test_upper_bound_population_at_x_n(self):
        for N, n, alpha in [(20, 6, 0.6), (500, 100, 0.05)]:
            assert pivot_ci(n, Params(N, n, alpha))[1] == N

    def test_x_out_of_range(self, p500):
        with pytest.raises(ValueError):
            pivot_ci(101, p500)


class TestPivotTable:
    def test_published_row(self, pivot500):
        assert pivot500.interval(13) == (39, 101)

    def test_contains_every_competitor_row(self, pivot500):
        for x in range(101):
            assert pivot500.lower[x] <= COMPETITOR_L[x]
            assert COMPETITOR_U[x] <= pivot500.upper[x]

    def test_total_size_gap_to_cstar(self, cstar500, pivot500):
        assert 200 <= pivot500.total_size - cstar500.total_size <= 260

    def test_rows_match_single_interval_queries(self):
        p = Params(45, 17, 0.1)
        tbl = pivot_table(p)
        for x in range(18):
            assert pivot_ci(x, p) == tbl.interval(x)

    # the seed-0 ``ladder`` and ``wide`` instances of the benchmark; every x
    # where n <= 300, else every (n // 40)-th x and x = n
    @pytest.mark.parametrize("N, n, alpha", [
        (500, 100, 0.05), (365, 292, 0.10), (1000, 500, 0.05), (2000, 1000, 0.05),
        (5000, 1000, 0.05), (100000, 20, 0.05), (50000, 50, 0.01), (200000, 10, 0.05),
    ])
    def test_rows_match_single_interval_queries_large_n(self, N, n, alpha):
        p = Params(N, n, alpha)
        tbl = _sweep_table(p)  # pivot_table bisects on the wide instances, as pivot_ci does
        xs = range(n + 1) if n <= 300 else [*range(0, n, n // 40), n]
        for x in xs:
            assert pivot_ci(x, p) == tbl.interval(x), x

    def test_fraction_alpha(self):
        p = Params(45, 17, Fraction(1, 10))
        q = Params(45, 17, 0.1)
        assert pivot_table(p).lower == pivot_table(q).lower

    # a subnormal float halves inexactly in floating point: 5e-324 / 2 is 0
    def test_subnormal_alpha_halved_exactly(self):
        tbl = pivot_table(Params(2000, 1000, 5e-324))
        exact = pivot_table(Params(2000, 1000, Fraction(5e-324)))
        assert (tbl.lower, tbl.upper) == (exact.lower, exact.upper)
        assert tbl.total_size < 2001 * 1001
        for x in range(0, 1001, 50):
            assert pivot_ci(x, tbl.params) == tbl.interval(x), x


def pivot_reference(p):
    """Reference table: each M's quantile found by lower_quantile, then merged."""
    thresholds = [lower_quantile(M, Fraction(p.alpha) / 2, p) for M in range(p.N + 1)]
    upper = [max(M for M, t in enumerate(thresholds) if t <= x) for x in range(p.n + 1)]
    lower = [p.N - upper[p.n - x] for x in range(p.n + 1)]
    return tuple(lower), tuple(upper)


class TestPivotSweep:
    def test_matches_reference_small_grid(self):
        for N in range(1, 41):
            for n in range(1, N + 1):
                for alpha in (Fraction(1, 20), 0.1, Fraction(3, 5)):
                    p = Params(N, n, alpha)
                    tbl = pivot_table(p)
                    assert (tbl.lower, tbl.upper) == pivot_reference(p), (N, n, alpha)

    def test_matches_reference_large_n(self):
        for N, n in [(365, 292), (400, 400), (400, 399)]:
            p = Params(N, n, 0.05)
            tbl = pivot_table(p)
            assert (tbl.lower, tbl.upper) == pivot_reference(p)


    # (45, 17, 0.1) reseeds x near M = N, which checks the drift there;
    # in (45, 3, 0.3), n/N < alpha/2 keeps x above the support's lower end,
    # so the drift reaches the end-of-sweep check
    @pytest.mark.parametrize("N, n, alpha", [(45, 17, 0.1), (45, 3, 0.3)])
    def test_corrupt_kernel_fails_a_sweep_check(self, monkeypatch, N, n, alpha):
        import hyperci.pivot as pivot

        step = pivot.step_m
        monkeypatch.setattr(pivot, "step_m", lambda w, M, x, p: step(w, M, x, p) * 1001 // 1000)
        with pytest.raises(AssertionError, match="corrupt kernels"):
            _sweep_table(Params(N, n, alpha))


def proven_thresholds(tbl):
    """t(M), the smallest x with P_M(X <= x) > alpha/2, at M = 0..N, read off
    the rows U(x) of an equal-tail table once each row is proven.

    Each U(x) is checked against its definition, P_U(X <= x) > alpha/2 >=
    P_{U+1}(X <= x), with a fresh ``interval_weight`` tail T_U and T_{U+1}
    from the tail identity (N - U)(T_U - T_{U+1}) = (n - x) w_U(x), whose
    division must be exact; no pivot code runs. Tails fall as M grows, so
    P_M(X <= x) > alpha/2 exactly when M <= U(x), and t(M) is the least x
    with U(x) >= M. That is one tail sum per x, where a search per M sums
    one per M.
    """
    p = tbl.params
    N, n = p.N, p.n
    num, den = (Fraction(p.alpha) / 2).as_integer_ratio()
    bar = num * p.total_weight
    for x, U in enumerate(tbl.upper):
        tail = interval_weight(U, 0, x, p)
        assert tail * den > bar, (x, U)
        if U < N:
            drop, rest = divmod((n - x) * weight(U, x, p), N - U)
            assert rest == 0 and (tail - drop) * den <= bar, (x, U)
    t, x = [], 0
    for M in range(N + 1):
        while tbl.upper[x] < M:
            x += 1
        t.append(x)
    return t


class TestPivotInversion:
    # the table inverts the equal-tail acceptance intervals
    # A(M) = [t(M), n - t(N - M)], t(M) the smallest x with P_M(X <= x) > alpha/2
    def test_dual_is_equal_tail_family(self):
        cases = [(N, n, a) for N in range(1, 41) for n in range(1, N + 1)
                 for a in (Fraction(1, 20), 0.1, Fraction(3, 5))]
        cases += [(500, 100, 0.05), (365, 292, 0.10), (1000, 500, 0.05),
                  (2000, 1000, 0.05), (5000, 1000, 0.05)]
        for N, n, alpha in cases:
            p = Params(N, n, alpha)
            tbl = pivot_table(p)
            t = proven_thresholds(tbl)
            dual = acceptance_of(tbl)
            assert dual.lower == tuple(t), (N, n, alpha)
            assert dual.upper == tuple(n - t[N - M] for M in range(N + 1)), (N, n, alpha)

    # p is valid, so a failed check in the inversion is a program fault;
    # (40, 13, 0.2) sweeps, so pivot_table runs the patched _inverse
    def test_failed_inversion_is_an_internal_fault(self, monkeypatch, capsys):
        from hyperci.cli import main

        def broken(p, lower, upper, ends):
            raise ValueError("patched inversion")

        monkeypatch.setattr("hyperci.pivot._inverse", broken)
        with pytest.raises(AssertionError, match="patched inversion"):
            pivot_table(Params(40, 13, 0.2))
        code = main(["table", "--N", "40", "--n", "13", "--alpha", "0.2", "--method", "pivot"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1


# certify's five alphas and the float the benchmark uses
PATH_ALPHAS = (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(1, 5),
               Fraction(3, 5), 0.05)


def same_rows(a, b):
    return (a.lower, a.upper) == (b.lower, b.upper)


class TestPivotPaths:
    """pivot_table bisects when (n + 1) * n * N.bit_length() < 2 * N, else sweeps."""

    def test_forced_paths_agree_small_grid(self):
        for N in range(1, 41):
            for n in range(1, N + 1):
                for alpha in PATH_ALPHAS:
                    p = Params(N, n, alpha)
                    assert same_rows(_sweep_table(p), _bisect_table(p)), (N, n, alpha)

    # wide-shaped instances, n << N, far past the oracle cap
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_forced_paths_agree_wide(self, data):
        N = data.draw(st.integers(1, 20000))
        n = data.draw(st.integers(1, min(N, 20)))
        p = Params(N, n, data.draw(st.sampled_from(PATH_ALPHAS)))
        assert same_rows(_sweep_table(p), _bisect_table(p))

    # the seed-0 ``ladder`` and ``wide`` instances of the benchmark
    @pytest.mark.parametrize("N, n, alpha, path", [
        (500, 100, 0.05, "_sweep_table"), (365, 292, 0.10, "_sweep_table"),
        (1000, 500, 0.05, "_sweep_table"), (2000, 1000, 0.05, "_sweep_table"),
        (5000, 1000, 0.05, "_sweep_table"), (100000, 20, 0.05, "_bisect_table"),
        (50000, 50, 0.01, "_bisect_table"), (200000, 10, 0.05, "_bisect_table"),
    ])
    def test_bench_instance_path(self, monkeypatch, N, n, alpha, path):
        import hyperci.pivot as pivot

        taken = []
        for name in ("_bisect_table", "_sweep_table"):
            monkeypatch.setattr(pivot, name, lambda p, name=name: taken.append(name))
        pivot_table(Params(N, n, alpha))
        assert taken == [path]

    # (45, 3, 0.3) bisects; U(1) = 0 < U(0) breaks the monotone endpoints
    def test_corrupt_bisection_is_an_internal_fault(self, monkeypatch, capsys):
        import hyperci.pivot as pivot
        from hyperci.cli import main

        upper_end = pivot._upper_end
        monkeypatch.setattr(pivot, "_upper_end", lambda x, p: 0 if x == 1 else upper_end(x, p))
        with pytest.raises(AssertionError, match="pivot table self-check failed"):
            pivot_table(Params(45, 3, 0.3))
        code = main(["table", "--N", "45", "--n", "3", "--alpha", "0.3", "--method", "pivot"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    # scaled by 1001/1000, the tail kernel bisects (100000, 20, 0.05) to 20
    # wrong U(x) of 21 that pass every structural check of a table
    def test_corrupt_tail_kernel_fails_the_certificate(self, monkeypatch, capsys):
        import hyperci.pivot as pivot
        from hyperci.cli import main

        p = Params(100000, 20, 0.05)
        upper = pivot_table(p).upper
        kernel = pivot.interval_weight
        monkeypatch.setattr(pivot, "interval_weight",
                            lambda M, a, b, p: kernel(M, a, b, p) * 1001 // 1000)
        assert sum(pivot._upper_end(x, p) != upper[x] for x in range(p.n + 1)) == 20
        with pytest.raises(AssertionError, match="fails its definition; corrupt kernels"):
            pivot_table(p)
        code = main(["table", "--N", "100000", "--n", "20", "--alpha", "0.05",
                     "--method", "pivot"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: pivot row U(0)") and err.count("\n") == 1

    # pivot_ci bisects without a table; the same kernel fault must fail its
    # two certified rows, so `ci --method pivot` prints nothing and exits 3
    # (it printed [0, 16845], true [0, 16841], before they were certified)
    def test_corrupt_tail_kernel_fails_the_ci_certificate(self, monkeypatch, capsys):
        import hyperci.pivot as pivot
        from hyperci.cli import main

        p = Params(100000, 20, 0.05)
        assert pivot_ci(0, p) == (0, 16841)
        kernel = pivot.interval_weight
        monkeypatch.setattr(pivot, "interval_weight",
                            lambda M, a, b, p: kernel(M, a, b, p) * 1001 // 1000)
        with pytest.raises(AssertionError, match="fails its definition; corrupt kernels"):
            pivot_ci(0, p)
        code = main(["ci", "--N", "100000", "--n", "20", "--alpha", "0.05", "--x", "0",
                     "--method", "pivot"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: pivot row U(") and err.count("\n") == 1

    # U(x) is the largest M with T_M(x) > alpha/2, so U(x) + 1 and U(x) - 1 both fail
    @pytest.mark.parametrize("N, n, alpha", [
        (45, 3, 0.3), (100000, 20, 0.05), (50000, 50, Fraction(1, 100)),
    ])
    def test_certificate_rejects_each_row_moved_by_one(self, N, n, alpha):
        p = Params(N, n, alpha)
        upper = _bisect_table(p).upper
        for x in range(n + 1):
            for u in (upper[x] - 1, upper[x] + 1):
                if 0 <= u <= N:
                    with pytest.raises(AssertionError, match=f"U\\({x}\\) = {u} fails"):
                        _certify_row(x, u, p)


class TestTailMonotonicity:
    def test_tails_monotone_in_m_small_grid(self):
        for N in (7, 12, 19):
            for n in (1, N // 2 + 1, N):
                p = Params(N, n, 0.1)
                for x in range(n + 1):
                    # P_M(X >= x) = 1 - P_M(X <= x - 1), which is 1 at x = 0
                    ups = [p.total_weight - (_lower_tail_weight(M, x - 1, p) if x else 0)
                           for M in range(N + 1)]
                    lows = [_lower_tail_weight(M, x, p) for M in range(N + 1)]
                    assert ups == sorted(ups)
                    assert lows == sorted(lows, reverse=True)

    # each instance sums from both ends: the lower window is the shorter one
    # for small x and the longer one for large x
    @pytest.mark.parametrize("N, n", [(23, 9), (40, 40), (30, 1)])
    def test_lower_tail_weight_is_prefix_mass(self, N, n):
        p = Params(N, n, 0.1)
        for M in range(N + 1):
            for x in range(n + 1):
                assert _lower_tail_weight(M, x, p) == interval_weight(M, 0, x, p), (M, x)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_binary_search_matches_linear_scan(data):
    N = data.draw(st.integers(1, 40))
    n = data.draw(st.integers(1, N))
    alpha = data.draw(st.sampled_from(
        [0.01, 0.05, 0.1, 0.3, 0.6, Fraction(1, 20), Fraction(3, 5)]))
    p = Params(N, n, alpha)
    assert [pivot_ci(x, p) for x in range(n + 1)] == pivot_scan(p)
