import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperci.acceptance as acceptance
from hyperci import (Method, Params, acceptance_of, adjust, amo_half, cstar_table, pivot_table,
                     symmetrize, table_from_csv, table_to_csv)
from hyperci.acceptance import AcceptanceFamily, _check_support, _mirror
from hyperci.certify import DEFAULT_ALPHAS
from hyperci.core import attains_level, interval_weight, support, weight
from hyperci.inversion import ConfidenceTable, _half_coverage
from hyperci.oracle import (
    exact_interval_prob,
    greedy_interval,
    min_level_interval,
    prefix_row,
    weight_table,
    window_mass,
)


def greedy_half(p):
    """The reference half family: the from-scratch greedy at every M <= N/2."""
    return [greedy_interval(p, M) for M in range(p.N // 2 + 1)]


def intervals(fam):
    return [fam.interval(M) for M in range(len(fam))]


def reflect_full(half):
    """The half family reflected onto M = 0..N, through the one mirror ``_mirror``."""
    lower, upper, _ = _mirror(half.params, half.lower, half.upper, range(len(half)))
    return AcceptanceFamily(half.params, tuple(lower), tuple(upper))


def family_is_level(fam):
    p = fam.params
    for M, (a, b) in enumerate(zip(fam.lower, fam.upper)):
        lo, _ = support(M, p)
        w = weight_table(M, p)
        if not attains_level(sum(w[a - lo : b - lo + 1]), p):
            return False
    return True


class TestGreedyHalfFamily:
    def test_adversarial_instance_cardinality(self):
        half = amo_half(Params(20, 6, 0.6))
        assert half.length(10) == 2
        a, b = half.interval(10)
        assert a <= 3 <= b  # contains the pmf maximizer

    def test_point_mass_at_zero(self):
        half = amo_half(Params(500, 100, 0.05))
        assert half.interval(0) == (0, 0)

    def test_every_interval_is_level(self):
        for N, n, alpha in [(20, 6, 0.6), (45, 17, 0.05), (500, 100, 0.05)]:
            assert family_is_level(amo_half(Params(N, n, alpha)))

    def test_matches_oracle_on_small_grid(self):
        for N in range(1, 21):
            for n in (1, max(1, N // 2), N):
                for alpha in (Fraction(1, 20), Fraction(3, 5)):
                    p = Params(N, n, alpha)
                    half = amo_half(p)
                    for M in range(N // 2 + 1):
                        card, _, best = min_level_interval(M, p, alpha)
                        assert half.length(M) == card
                        a, b = half.interval(M)
                        assert exact_interval_prob(M, a, b, p) == best

    def test_one_endpoint_monotonicity_violations_only(self):
        for N, n, alpha in [(30, 11, 0.05), (40, 13, 0.2)]:
            half = amo_half(Params(N, n, alpha))
            k = len(half) - 1
            for m1 in range(k + 1):
                for m2 in range(m1 + 1, k + 1):
                    assert not (
                        half.lower[m2] < half.lower[m1]
                        and half.upper[m2] < half.upper[m1]
                    )

    def test_centers_lean_left_before_midpoint(self):
        for N, n, alpha in [(30, 11, 0.05), (41, 17, 0.1)]:
            half = amo_half(Params(N, n, alpha))
            for M in range(len(half)):
                if 2 * M < N:
                    assert half.lower[M] + half.upper[M] <= n

    def test_sweep_matches_reference_greedy(self):
        # every N <= 40 instance at certify's five alphas plus 1/2, 9/10 and a
        # float; 3/5 puts one-point intervals on tied modes
        alphas = [Fraction(k, d) for k, d in [(1, 100), (1, 20), (1, 10), (1, 5), (3, 5),
                                              (1, 2), (9, 10)]] + [0.05]
        cases = [(N, n, a) for N in range(1, 41) for n in range(1, N + 1) for a in alphas]
        cases += [(N, n, a) for N, n in [(400, 400), (400, 399), (401, 400), (33, 7)]
                  for a in (0.01, 0.2, Fraction(3, 5), Fraction(9, 10))]
        cases += [(120, 40, 0.05), (500, 100, 0.05), (365, 292, 0.1), (1000, 500, 0.05),
                  (2000, 1000, 0.05), (5000, 1000, 0.05)]
        for N, n, alpha in cases:
            p = Params(N, n, alpha)
            assert intervals(amo_half(p)) == greedy_half(p), (N, n, alpha)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sweep_matches_reference_greedy_at_large_n(self, data):
        N = data.draw(st.integers(1, 3000))
        n = data.draw(st.integers(1, N))
        alpha = data.draw(st.sampled_from([Fraction(1, 100), Fraction(1, 20), Fraction(3, 5),
                                           Fraction(1, 2), 0.1, 0.9]))
        p = Params(N, n, alpha)
        half = amo_half(p)
        ms = data.draw(st.lists(st.integers(0, N // 2), min_size=1, max_size=20))
        for M in ms:
            assert half.interval(M) == greedy_interval(p, M), M

    # the correction must reach the greedy interval from any window, not only
    # from the carried one: move each carried window before it is corrected.
    # At M = N/2 with n even the pmf is symmetric, so windows of even length
    # come in tied pairs and centred ones have equal end weights; these
    # moves exercise the slide-left tie and the shrink tie there
    @pytest.mark.parametrize("da, db", [(1, 1), (0, 1), (-1, -1), (-1, 0), (1, 0), (0, 2)])
    def test_correction_recovers_from_a_moved_window(self, monkeypatch, da, db):
        import hyperci.acceptance as acceptance

        carry = acceptance.carry_window

        def moved(M, *state):
            p = state[-1]
            a, b = carry(M, *state)[:2]
            lo, hi = support(M + 1, p)
            if lo <= a + da <= b + db <= hi:
                a, b = a + da, b + db
            return a, b, weight(M + 1, a, p), weight(M + 1, b, p), interval_weight(M + 1, a, b, p)

        monkeypatch.setattr(acceptance, "carry_window", moved)
        for N in range(2, 31):
            for n in range(1, N + 1):
                for alpha in (Fraction(1, 20), Fraction(1, 5), Fraction(3, 5), Fraction(9, 10)):
                    p = Params(N, n, alpha)
                    assert intervals(amo_half(p)) == greedy_half(p), (N, n, alpha)

    # a doubled step_m, and one that drifts by 0.1%, must both fail the
    # sweep's self-checks rather than return wrong intervals
    @pytest.mark.parametrize("num, den", [(2, 1), (1001, 1000)])
    @pytest.mark.parametrize("N, n, alpha", [(40, 13, 0.2), (365, 292, 0.1)])
    def test_corrupt_kernel_fails_a_sweep_check(self, monkeypatch, num, den, N, n, alpha):
        import hyperci.core as core

        step = core.step_m
        monkeypatch.setattr(core, "step_m", lambda w, M, x, p: step(w, M, x, p) * num // den)
        with pytest.raises(AssertionError, match="corrupt kernels"):
            amo_half(Params(N, n, alpha))

    def test_deterministic_across_runs(self):
        p = Params(200, 60, 0.1)
        first = amo_half(p)
        second = amo_half(p)
        assert first == second


def sweep_without_runs(p):
    """``_greedy_sweep``'s run lists with the run path switched off: the per-M reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "_RUN_AFTER", math.inf)
        return acceptance._greedy_sweep(p)


def count_runs(monkeypatch):
    """Patch ``_run_end`` to count the runs it lets start (a bound past M)."""
    runs = []
    run_end = acceptance._run_end

    def counted(p, M, *rest):
        stop = run_end(p, M, *rest)
        if stop > M:
            runs.append(stop)
        return stop

    monkeypatch.setattr(acceptance, "_run_end", counted)
    return runs


# the wide instances of the benchmark (benchmarks/workloads.py)
WIDE = [(100000, 20, 0.05), (50000, 50, 0.01), (200000, 10, 0.05)]


class TestGreedyRuns:
    """Runs of one greedy interval must give the per-M sweep's lists, so the
    same table and the same coverage."""

    # with a run tried at every M (the trigger at its minimum) runs start
    # even on the smallest instances, where the default never tries one
    def test_runs_at_every_m_match_the_per_m_sweep(self, monkeypatch):
        cases = [(N, n, a) for N in range(1, 61) for n in range(1, N + 1) for a in DEFAULT_ALPHAS]
        want = [sweep_without_runs(Params(*case)) for case in cases]
        monkeypatch.setattr(acceptance, "_RUN_AFTER", 1)
        runs = count_runs(monkeypatch)
        for case, ref in zip(cases, want):
            assert acceptance._greedy_sweep(Params(*case)) == ref, case
        assert len(runs) > 5000

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_runs_match_per_m_sweep_and_greedy_on_wide_shapes(self, data):
        N = data.draw(st.integers(2000, 60000))
        n = data.draw(st.integers(1, 50))
        alpha = data.draw(st.sampled_from(list(DEFAULT_ALPHAS) + [0.05, 0.01]))
        p = Params(N, n, alpha)
        lower, upper, ends = acceptance._greedy_sweep(p)
        assert (lower, upper, ends) == sweep_without_runs(p)
        # the coverage of the table against that of the build with the run path off
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(acceptance, "_RUN_AFTER", math.inf)
            eager = cstar_table(p)
        assert _half_coverage(cstar_table(p)) == _half_coverage(eager)
        lower, upper = acceptance._per_m(ends, lower, upper)
        for M in data.draw(st.lists(st.integers(0, N // 2), min_size=1, max_size=20)):
            assert (lower[M], upper[M]) == greedy_interval(p, M), M

    # most M of a wide build lie in a run: the per-M carry runs only on the
    # first _RUN_AFTER M of each interval and where runs end (479, 1202 and
    # 287 of the 50,001, 25,001 and 100,001 M)
    def test_wide_instances_take_the_run_path(self, monkeypatch):
        calls = []
        carry = acceptance.carry_window
        monkeypatch.setattr(acceptance, "carry_window", lambda *a: calls.append(1) or carry(*a))
        for N, n, alpha in WIDE:
            calls.clear()
            acceptance._greedy_sweep(Params(N, n, alpha))
            assert len(calls) < N // 2 // 10, (N, n, alpha)

    # a step_m that drifts by 0.1% corrupts the window a run starts from;
    # the check at the run's start must catch it, and the CLI exits 3
    def test_corrupt_kernel_fails_a_run_start_check(self, monkeypatch, capsys):
        import hyperci.core as core
        from hyperci.cli import main

        step = core.step_m
        monkeypatch.setattr(core, "step_m", lambda w, M, x, p: step(w, M, x, p) * 1001 // 1000)
        runs = count_runs(monkeypatch)
        with pytest.raises(AssertionError, match=r"corrupt kernels \(run of"):
            cstar_table(Params(50000, 50, 0.01))
        assert runs
        code = main(["table", "--N", "50000", "--n", "50", "--alpha", "0.01"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("internal error: ") and "run of" in err


class TestRunProbes:
    """The exact helpers that every run bound rests on."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_heavier_is_the_weight_comparison(self, data):
        N = data.draw(st.integers(2, 400))
        n = data.draw(st.integers(1, N // 2))
        p = Params(N, n, 0.05)
        m = data.draw(st.integers(n, N - n))  # the support of m is [0, n]
        x = data.draw(st.integers(0, n))
        y = data.draw(st.integers(x + 1, n + 1))
        cx, cy = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60))
        want = cx * weight(m, x, p) > cy * weight(m, y, p)
        assert acceptance._heavier(p, x, y, cx, cy)(m) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_last_true_is_the_linear_scan(self, data):
        lo = data.draw(st.integers(-50, 50))
        hi = data.draw(st.integers(lo, lo + 70))
        true = data.draw(st.integers(0, hi - lo))  # holds on the first `true` of (lo, hi]
        holds = dict.fromkeys(range(lo + 1, hi + 1), False)
        holds.update(dict.fromkeys(range(lo + 1, lo + 1 + true), True))
        scan = lo
        for m in range(lo + 1, hi + 1):
            if not holds[m]:
                break
            scan = m
        asked = []
        assert acceptance._last_true(lambda m: asked.append(m) or holds[m], lo, hi) == scan
        assert set(asked) <= holds.keys() and len(asked) <= (hi - lo).bit_length()

    # (9, 2, 0.6) at M = 2 with [a, b] = [1, 2] is no greedy state: [1, 1]
    # misses the level at M = 2 but still gains mass there, and it attains
    # the level at M = 3, below the bound M = 4 that (iii) and [a+1, b] give.
    # The one (iv-b) test must end the run at M; without it the bound passes
    # M = 3, where [a, b] is no longer the shortest window at the level
    def test_a_shorter_window_that_still_gains_ends_the_run(self, monkeypatch):
        p = Params(9, 2, 0.6)
        need = acceptance._level_need(p)
        assert interval_weight(2, 1, 1, p) < need <= interval_weight(3, 1, 1, p)
        bound = acceptance._run_end(p, 2, 1, 2, need)
        heavier = acceptance._heavier
        # the (iv-b) test is the one _heavier(p, a-1, b-1, n-a+1, n-b+1)
        monkeypatch.setattr(acceptance, "_heavier", lambda *args: (lambda m: False)
                            if args[1:] == (0, 1, 2, 1) else heavier(*args))
        unguarded = acceptance._run_end(p, 2, 1, 2, need)
        assert bound == 2
        assert unguarded == 4 > bound


def spy_sweep(monkeypatch):
    """Patch the coverage sweep to record the instance of each call."""
    import hyperci.inversion as inversion

    sweeps = []
    sweep = inversion._window_masses
    monkeypatch.setattr(inversion, "_window_masses",
                        lambda p, *rest: sweeps.append(p) or sweep(p, *rest))
    return sweeps


class TestLazyCoverage:
    """No build computes coverage; the first coverage read of any table runs
    one sweep of its dual, caches it, and on a built table tests the level
    at every M."""

    def test_builds_and_the_table_and_ci_commands_never_fill(self, monkeypatch, capsys):
        from hyperci.cli import main

        sweeps = spy_sweep(monkeypatch)
        for case in WIDE + [(5000, 1000, 0.05)]:
            for build in (cstar_table, pivot_table):
                tbl = build(Params(*case))
                assert tbl._coverage is None and tbl._claims_level, (build, case)
        for method in ("cstar", "pivot"):
            argv = ["--N", "100000", "--n", "20", "--alpha", "0.05", "--method", method]
            assert main(["table", *argv]) == 0
            assert main(["ci", *argv, "--x", "3"]) == 0
        capsys.readouterr()
        assert sweeps == []

    # a built table, one parsed from its CSV and one built by hand
    def test_first_read_fills_once(self, monkeypatch):
        from hyperci import coverage

        sweeps = spy_sweep(monkeypatch)
        p = Params(*WIDE[0])
        tables = [cstar_table(p), pivot_table(p)]
        tables.append(table_from_csv(table_to_csv(tables[0])))
        tables.append(ConfidenceTable(Params(10, 1, 0.5), Method.PIVOT, (0, 6), (4, 10)))
        for tbl in tables:
            sweeps.clear()
            first = coverage(tbl, 6)
            assert sweeps == [tbl.params] and isinstance(tbl._coverage, tuple)
            assert _half_coverage(tbl) is tbl._coverage
            assert coverage(tbl, 6) == first and coverage(tbl, 4) >= 0.6
            assert sweeps == [tbl.params]
            assert first == tbl._coverage[min(6, tbl.params.N - 6)]

    def test_out_of_range_on_an_unfilled_table_still_raises(self, monkeypatch):
        from hyperci import coverage

        sweeps = spy_sweep(monkeypatch)
        for build in (cstar_table, pivot_table):
            tbl = build(Params(*WIDE[1]))
            for M in (-1, 50001):
                with pytest.raises(ValueError, match="M must be in"):
                    coverage(tbl, M)
            assert sweeps == [] and tbl._coverage is None

    # a level bisection that claims one M past the level on the first run
    # that ends by the level builds a table; the first read tests the level
    # at every M, so it fails, and the CLI exits 3. The same rows parsed
    # from CSV claim no level, so they read without an error
    def test_fill_catches_a_run_claimed_past_the_level(self, monkeypatch, capsys):
        from hyperci import coverage
        from hyperci.cli import main

        last_true = acceptance._last_true
        claimed = []

        def past_the_level(holds, lo, hi):
            end = last_true(holds, lo, hi)
            if holds.__qualname__.startswith("_greedy_sweep") and end < hi and not claimed:
                claimed.append(end + 1)
                return end + 1
            return end

        monkeypatch.setattr(acceptance, "_last_true", past_the_level)
        p = Params(20000, 10, 0.05)
        tbl = cstar_table(p)
        assert claimed == [103]
        with pytest.raises(AssertionError, match=r"below level at M=103: \(0, 0\)"):
            coverage(tbl, 5)
        bare = table_from_csv(table_to_csv(tbl))
        assert coverage(bare, 103) < 0.95 <= coverage(bare, 102)
        claimed.clear()
        code = main(["coverage", "--N", "20000", "--n", "10", "--alpha", "0.05"])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and claimed == [103]
        assert err.startswith("internal error: ") and err.count("\n") == 1

    # A(1) = [1, 2] leaves the support [0, 1] of M = 1, so the sweep sums it
    # per M; a hand-built table reads its coverage there with no level test,
    # and the same rows marked as built fail the level test at M = 1
    def test_level_tested_where_the_dual_leaves_its_supports(self):
        from hyperci import coverage
        from hyperci.inversion import _claim_level

        rows = Params(4, 3, 0.1), Method.PIVOT, (0, 1, 1, 4), (0, 3, 3, 4)
        assert coverage(ConfidenceTable(*rows), 1) == 0.75
        with pytest.raises(AssertionError, match=r"below level at M=1: \(1, 2\)"):
            coverage(_claim_level(ConfidenceTable(*rows)), 1)

    # weights 0.1% low after the build corrupt the terms the sweep seeds at
    # M = 0; a low t keeps the mass above the level, so only the check at
    # the end of the first run can catch it
    def test_fill_checks_its_carried_mass(self, monkeypatch):
        from hyperci import coverage

        for build in (cstar_table, pivot_table):
            tbl = build(Params(*WIDE[0]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(acceptance, "weight", lambda M, x, p: weight(M, x, p) * 999 // 1000)
                with pytest.raises(AssertionError,
                                   match=r"corrupt kernels \(run of \[0, 0\] ending at"):
                    coverage(tbl, 0)

    # each run costs a few bisections of exact interval_weight probes: the
    # level end and _run_end's [a+1, b] bound, plus the run-start check and
    # the level probe at the run's bound; the measured counts are 154, 365
    # and 122 calls, 0.62-0.77 per run per log2(N) step, so c = 1.5 leaves
    # room but no O(N) term
    def test_interval_weight_calls_per_run_are_logarithmic(self, monkeypatch):
        import hyperci.inversion as inversion
        import hyperci.monotonize as monotonize

        calls = []
        for module in (acceptance, inversion, monotonize):
            monkeypatch.setattr(module, "interval_weight",
                                lambda *args: calls.append(1) or interval_weight(*args))
        for N, n, alpha in WIDE:
            p = Params(N, n, alpha)
            calls.clear()
            cstar_table(p)
            probes = len(calls)
            runs = len(acceptance._greedy_sweep(p)[2])
            assert probes < 1.5 * runs * math.log2(N), (N, n, alpha, probes, runs)


class TestRunBuildEverywhere:
    """The full differential of the run build, deselected by default
    (``pytest -m slow`` runs it): every N <= 120 at certify's five alphas and
    0.05, and the eight instances of the benchmark, built with runs tried at
    every M and at the default trigger, against the build with the run path
    off. Tables, stored coverage, run lists, shift trace and pre-centre must
    all be equal; stored coverage is compared once filled."""

    @pytest.mark.slow
    def test_run_build_equals_per_m_build(self, monkeypatch):
        from hyperci.inversion import _build_runs

        cases = [(N, n, a) for N in range(1, 121) for n in range(1, N + 1)
                 for a in DEFAULT_ALPHAS + (0.05,)]
        cases += [(500, 100, 0.05), (365, 292, 0.10), (1000, 500, 0.05), (2000, 1000, 0.05),
                  (5000, 1000, 0.05)] + WIDE
        runs = count_runs(monkeypatch)
        started = {}
        for trigger in (1, acceptance._RUN_AFTER):
            runs.clear()
            for case in cases:
                p = Params(*case)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(acceptance, "_RUN_AFTER", math.inf)
                    want = _build_runs(p)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(acceptance, "_RUN_AFTER", trigger)
                    got = _build_runs(p)
                assert _half_coverage(got[0]) == _half_coverage(want[0]), (trigger, case)
                assert got == want, (trigger, case)
            started[trigger] = len(runs)
        assert started[1] > 50000 and started[acceptance._RUN_AFTER] > 100, started


class TestReflectFull:
    def test_point_mass_reflection(self):
        half = amo_half(Params(20, 6, 0.6))
        full = reflect_full(half)
        assert full.interval(20) == (6, 6)

    def test_top_interval_large_instance(self):
        full = reflect_full(amo_half(Params(500, 100, 0.05)))
        assert full.interval(500) == (100, 100)

    def test_reflected_family_is_level(self):
        for N, n, alpha in [(19, 7, 0.1), (20, 6, 0.6), (33, 12, 0.05)]:
            assert family_is_level(reflect_full(amo_half(Params(N, n, alpha))))

    def test_even_population_keeps_own_center(self):
        p = Params(20, 6, 0.6)
        half = amo_half(p)
        full = reflect_full(half)
        assert full.interval(10) == half.interval(10)

    def test_rejects_wrong_length(self):
        p = Params(20, 6, 0.6)
        full = reflect_full(amo_half(p))
        with pytest.raises(ValueError):
            reflect_full(full)


class TestFamilyValidation:
    def test_interval_outside_support_rejected(self):
        p = Params(20, 6, 0.6)
        with pytest.raises(ValueError):
            AcceptanceFamily(p, (0, 2), (0, 2))  # M=1 has x_max = 1

    def test_family_longer_than_population_rejected(self):
        p = Params(3, 2, 0.6)
        with pytest.raises(ValueError, match="M must be in"):
            AcceptanceFamily(p, (0, 0, 1, 2, 2), (0, 1, 2, 2, 2))

    def test_full_range_greedy_is_valid_family(self):
        p = Params(36, 10, 0.05)
        ints = [greedy_interval(p, M) for M in range(37)]
        lower, upper = zip(*ints)
        fam = AcceptanceFamily(p, lower, upper)
        assert family_is_level(fam)

    # the support check's C-level passes accept exactly what a per-M loop
    # accepts, and a rejection names the first bad M
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_support_check_matches_per_m_loop(self, data):
        N = data.draw(st.integers(1, 60))
        n = data.draw(st.integers(1, N))
        k = data.draw(st.integers(1, N + 1))
        lower = [max(0, M + n - N) for M in range(k)]
        upper = [min(M, n) for M in range(k)]
        for _ in range(data.draw(st.integers(0, 3))):  # move a few endpoints by one
            side = (lower, upper)[data.draw(st.integers(0, 1))]
            side[data.draw(st.integers(0, k - 1))] += data.draw(st.sampled_from((-1, 1)))
        expected = None
        for M, (a, b) in enumerate(zip(lower, upper)):
            lo, hi = max(0, M + n - N), min(M, n)
            if not lo <= a <= b <= hi:
                expected = f"interval [{a}, {b}] at M={M} leaves the support [{lo}, {hi}]"
                break
        p = Params(N, n, 0.1)
        if expected is None:
            _check_support(p, lower, upper, range(k))
        else:
            with pytest.raises(ValueError) as exc:
                _check_support(p, lower, upper, range(k))
            assert str(exc.value) == expected


def oracle_masses(fam):
    p = fam.params
    return [window_mass(prefix_row(M, p), a, b) for M, (a, b) in enumerate(intervals(fam))]


def random_runs(data, N, n):
    """Run lists (lower, upper, ends) over M = 0..last, last = N or below:
    runs of random length whose endpoints move left and right, mostly
    inside their supports, some empty, some leaving them."""
    last = data.draw(st.one_of(st.just(N), st.integers(0, N)))
    lower, upper, ends = [], [], []
    M = 0
    while M <= last:
        end = min(last, M + data.draw(st.sampled_from((0, 0, 1, 2, 3, 7, 20))))
        lo, hi = max(0, end + n - N), min(M, n)
        if lo <= hi and data.draw(st.integers(0, 3)):  # inside its supports
            a = data.draw(st.integers(lo, hi))
            b = data.draw(st.integers(a - 1, hi))  # a - 1: the empty window
        else:
            a = data.draw(st.integers(-1, n + 1))
            b = data.draw(st.integers(a - 1, n + 1))
        lower.append(a)
        upper.append(b)
        ends.append(end)
        M = end + 1
    return lower, upper, ends


def masses_by_run(p, lower, upper, ends):
    """``interval_weight`` of each run's window at each M of the run."""
    starts = [0, *[e + 1 for e in ends[:-1]]]
    return [interval_weight(M, a, b, p) for a, b, first, end in zip(lower, upper, starts, ends)
            for M in range(first, end + 1)]


class TestWindowMasses:
    """``_window_masses`` on any run family against ``interval_weight``."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_interval_weight_on_random_runs(self, data):
        N = data.draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 200)))
        n = data.draw(st.integers(1, N))
        p = Params(N, n, 0.1)
        runs = random_runs(data, N, n)
        assert list(acceptance._window_masses(p, *runs, 0)) == masses_by_run(p, *runs)

    # at M = N the support is {n}, and the carry would divide by N - M = 0:
    # N = 1, a run that ends at N and a run of N alone; then [1, 2] on
    # M = 2..5 and [0, 1] from M = 6, a left move, where the sweep reseeds
    @pytest.mark.parametrize("N, n, lower, upper, ends", [
        (1, 1, [0, 1], [0, 1], [0, 1]),
        (6, 2, [0, 0, 2], [0, 1, 2], [0, 2, 6]),
        (6, 2, [0, 1, 2], [0, 1, 2], [0, 5, 6]),
        (12, 4, [0, 1, 0], [0, 2, 1], [1, 5, 8]),
    ])
    def test_fixed_families(self, N, n, lower, upper, ends):
        p = Params(N, n, 0.1)
        runs = lower, upper, ends
        assert list(acceptance._window_masses(p, *runs, 0)) == masses_by_run(p, *runs)


class TestMasses:
    def test_pipeline_families_match_oracle(self):
        for N in range(1, 41):
            for n in range(1, N + 1):
                for alpha in (Fraction(1, 20), Fraction(3, 5)):
                    p = Params(N, n, alpha)
                    half = amo_half(p)
                    sym = symmetrize(adjust(half)[0], p)
                    for fam in (half, sym, reflect_full(half)):
                        assert fam.masses() == oracle_masses(fam), (N, n, alpha)

    # any in-support family, monotone or not, and shorter than M = 0..N
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_family_matches_oracle(self, data):
        N = data.draw(st.integers(1, 40))
        n = data.draw(st.integers(1, N))
        p = Params(N, n, Fraction(1, 20))
        lower, upper = [], []
        for M in range(data.draw(st.integers(1, N + 1))):
            lo, hi = support(M, p)
            a, b = sorted(data.draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2)))
            lower.append(a)
            upper.append(b)
        fam = AcceptanceFamily(p, tuple(lower), tuple(upper))
        assert fam.masses() == oracle_masses(fam)

    # a doubled weight, and one that drifts by 0.1%, seed wrong terms t and
    # u, which must fail the sweep's end check; the family is built before
    # the kernel is corrupted
    @pytest.mark.parametrize("num, den", [(2, 1), (1001, 1000)])
    def test_corrupt_kernel_fails_the_end_check(self, monkeypatch, num, den):
        fam = acceptance_of(cstar_table(Params(40, 13, 0.2)))
        monkeypatch.setattr(acceptance, "weight", lambda M, x, p: weight(M, x, p) * num // den)
        with pytest.raises(AssertionError, match="corrupt kernels"):
            fam.masses()
