"""Exact and floating identity checks.

Every expected value below is either arithmetic a reviewer can redo by hand
or is certified by exact rational evaluation inside the test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hypoexp import identities
from hypoexp import (
    DD,
    ParameterError,
    binomial_sum_residual,
    characterization_residual,
    exp_lt_identity_residual,
    functional_equation_residual,
    gap_vanishes,
    geometric_weight_gap,
    geometric_weight_gap_closed_form,
    partial_fraction_residual,
    reciprocal_series_from_moments,
    run_identity_checks,
    series_coefficient_brackets,
    shifted_binomial_sum_residual,
)
from oracles import reciprocal_series_by_long_division


class TestBinomialSum:
    def test_hand_case(self):
        # 2*(1+2) + 1*(0+2) - 2*4 = 0
        assert binomial_sum_residual(2, 1, Fraction(2)) == 0

    def test_single_term(self):
        for v in (Fraction(3), Fraction(-5, 7), Fraction(10**6, 999_983)):
            assert binomial_sum_residual(1, 1, v) == 0

    def test_rational_case(self):
        assert binomial_sum_residual(5, 3, Fraction(-3, 7)) == 0

    def test_sweep_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            v = Fraction(int(rng.integers(-10**6, 10**6)) or 3, int(rng.integers(1, 10**6)))
            if v == 1:
                continue
            for n in range(1, 13):
                for j in range(1, n + 1):
                    assert binomial_sum_residual(n, j, v) == 0

    def test_rejects_v_equal_one(self):
        with pytest.raises(ParameterError):
            binomial_sum_residual(3, 2, Fraction(1))


class TestShiftedBinomialSum:
    def test_reduces_to_unshifted_at_zero_shift(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            v = Fraction(int(rng.integers(-1000, 1000)) or 2, int(rng.integers(1, 1000)))
            if v == 1:
                continue
            for n in range(1, 8):
                for j in range(1, n + 1):
                    assert shifted_binomial_sum_residual(n, 0, j, v) == binomial_sum_residual(n, j, v)

    def test_hand_cases(self):
        assert shifted_binomial_sum_residual(3, 2, 2, Fraction(5, 2)) == 0
        assert shifted_binomial_sum_residual(1, 4, 3, Fraction(-2)) == 0

    def test_boundary_term_is_needed_when_j_at_most_m(self):
        # dropping the C(m, j) constant breaks the identity for j <= m:
        # here LHS = -24 while C(n+m, j) v^n = -20
        n, m, j, v = 1, 4, 3, Fraction(-2)
        lhs = v * math.comb(m, j - 1) + (v - 1) * math.comb(m, j)
        assert lhs == -24
        assert math.comb(n + m, j) * v**n == -20
        assert lhs - (math.comb(n + m, j) * v**n - math.comb(m, j)) == 0

    def test_sweep_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            v = Fraction(int(rng.integers(-10**4, 10**4)) or 5, int(rng.integers(1, 10**4)))
            if v == 1:
                continue
            for n in range(1, 9):
                for m in range(0, 5):
                    for j in range(1, n + m + 1):
                        assert shifted_binomial_sum_residual(n, m, j, v) == 0


class TestGeometricWeightGap:
    def test_hand_case_n1(self):
        # (2/1)*2*1 + 1*0 - 1*2 = 2; closed form [4-2](2-1) = 2
        assert geometric_weight_gap(1, 2, Fraction(2)) == 2
        assert geometric_weight_gap_closed_form(1, 2, Fraction(2)) == 2

    def test_hand_case_n2(self):
        # 2*2*3 + 1*2 - 2*4 = 6; closed form [4-2](4-1) = 6
        assert geometric_weight_gap(2, 2, Fraction(2)) == 6
        assert geometric_weight_gap_closed_form(2, 2, Fraction(2)) == 6

    def test_gap_matches_closed_form_and_is_nonzero_off_boundary(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            v = Fraction(int(rng.integers(-10**5, 10**5)) or 7, int(rng.integers(1, 10**5)))
            if v in (0, 1):
                continue
            for n in range(1, 13):
                for j in range(2, n + 1):
                    gap = geometric_weight_gap(n, j, v)
                    assert gap == geometric_weight_gap_closed_form(n, j, v)
                    if not gap_vanishes(n, j, v):
                        assert gap != 0

    def test_boundary_minus_one_even_power(self):
        # v = -1 with even n makes v^n = 1: the gap honestly vanishes there
        assert gap_vanishes(2, 2, Fraction(-1))
        assert geometric_weight_gap(2, 2, Fraction(-1)) == 0
        assert not gap_vanishes(3, 2, Fraction(-1))
        assert geometric_weight_gap(3, 2, Fraction(-1)) != 0

    def test_boundary_one_half_odd_j(self):
        # v = 1/2 gives v/(v-1) = -1, so even j-1 also kills the closed form
        assert gap_vanishes(3, 3, Fraction(1, 2))
        assert geometric_weight_gap(3, 3, Fraction(1, 2)) == 0
        assert not gap_vanishes(3, 2, Fraction(1, 2))

    def test_rejects_bad_v(self):
        for v in (Fraction(0), Fraction(1)):
            with pytest.raises(ParameterError):
                geometric_weight_gap(2, 2, v)


class TestCoefficientBrackets:
    def test_hand_case(self):
        br = series_coefficient_brackets(2, 2, Fraction(2))
        assert br.a1_bracket == 0
        assert br.aj_bracket == -6

    def test_w_three_halves(self):
        # w = 3/2 gives v = w/(w-1) = 3
        assert series_coefficient_brackets(3, 2, Fraction(3)).a1_bracket == 0

    def test_vanishing_binomial_branch(self):
        # j > n: C(n, j) = 0 yet the bracket still cancels exactly
        assert series_coefficient_brackets(2, 3, Fraction(2)).a1_bracket == 0

    def test_sweep(self):
        for w in (Fraction(1, 5), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5)):
            v = w / (w - 1)
            for n in range(2, 11):
                for j in range(2, n + 4):
                    br = series_coefficient_brackets(n, j, v)
                    assert br.a1_bracket == 0
                    if not gap_vanishes(n, j, v):
                        assert br.aj_bracket != 0


class TestTransformIdentities:
    def test_product_identity_hand_case(self):
        # n=1, w=2, rate=1, t=1: Phi1 = 1/3, Phi2 = 1/4, 1/12 = 1/3 - 1/4
        assert exp_lt_identity_residual(1, 2.0, 1.0, 1.0) < 1e-30

    def test_product_identity_at_zero(self):
        for n in (1, 3, 7):
            for w in (0.25, 0.5, 2.0, 6.0):
                assert exp_lt_identity_residual(n, w, 1.0, 0.0) < 1e-12

    def test_product_identity_grid(self):
        grid = np.linspace(0.1, 10.0, 25)
        for t in grid:
            assert exp_lt_identity_residual(3, 0.5, 2.0, float(t)) < 1e-12

    def test_product_identity_worst_regime(self):
        # w = 0.1 with n = 10 puts the geometric terms near 9^10 ~ 3.5e9
        for t in np.linspace(0.0, 10.0, 25):
            assert exp_lt_identity_residual(10, 0.1, 1.0, float(t)) < 1e-12

    def test_rejects_w_one(self):
        with pytest.raises(ParameterError):
            exp_lt_identity_residual(2, 1.0, 1.0, 0.5)

    def test_partial_fraction_hand_cases(self):
        # w=2, t=1: 1/6 - 2/3 + 1/2 = 0
        assert partial_fraction_residual(2.0, 1.0) < 1e-30
        # w=3, t=0 reduces to (w-1) - w + 1
        assert partial_fraction_residual(3.0, 0.0) < 1e-30
        assert partial_fraction_residual(0.25, 5.0) < 1e-14

    def test_functional_equation_reciprocal_exponential(self):
        def psi(t):
            return 1.0 + t

        assert functional_equation_residual(2, 2.0, psi, DD(1.0)) < 1e-10
        for t in np.linspace(0.0, 10.0, 30):
            assert functional_equation_residual(4, 0.3, psi, DD(float(t))) < 1e-10

    def test_functional_equation_trivial_at_zero(self):
        def psi(t):
            return (1.0 + t) ** 3  # any evaluator with psi(0) = 1

        for n in (1, 2, 5):
            assert functional_equation_residual(n, 2.0, psi, 0.0) < 1e-12

    def test_functional_equation_rejects_erlang_reciprocal(self):
        def psi(t):
            return (1.0 + t) ** 2

        # residual is 2 t^2 at n=... nonzero; at t=1, n=2, w=2 it equals 18
        assert functional_equation_residual(2, 2.0, psi, 1.0) == pytest.approx(18.0, rel=1e-12)
        assert functional_equation_residual(2, 2.0, psi, 1.0) > 0.1

    def test_cross_arrangement_agrees(self):
        # the scaled product-vs-sum arrangement is the same identity rescaled
        def phi(t):
            return DD(1.0) / (1.0 + t) if isinstance(t, DD) else 1.0 / (1.0 + t)

        for n in (1, 2, 5, 10):
            for w in (0.1, 0.5, 2.0, 10.0):
                for t in np.linspace(0.0, 10.0, 11):
                    a = characterization_residual(n, w, phi, DD(float(t)))
                    b = exp_lt_identity_residual(n, w, 1.0, float(t))
                    assert a < 1e-12 and b < 1e-12

    def test_characterization_residual_is_the_product_identity(self):
        # both run the one residual kernel: with the exponential transform in
        # double-double the two public functions agree bit for bit
        for rate in (1.0, 2.0):
            def phi(t, rate=rate):
                return DD(rate) / (DD(rate) + t)

            for n in (1, 2, 5, 10):
                for w in (0.1, 0.5, 2.0, 10.0):
                    for t in np.linspace(0.0, 10.0, 11):
                        a = characterization_residual(n, w, phi, DD(float(t)))
                        b = exp_lt_identity_residual(n, w, rate, float(t))
                        assert _bits(a) == _bits(b)


class TestReciprocalSeries:
    def test_exponential_signature(self):
        for rate in (0.5, 1.0, 3.0):
            m = [math.factorial(k) / rate**k for k in range(1, 9)]
            a = reciprocal_series_from_moments(m, 8)
            assert a[0] == 1.0
            assert a[1] == pytest.approx(1.0 / rate, abs=1e-12)
            assert np.all(np.abs(a[2:]) < 1e-10)

    def test_order_zero(self):
        np.testing.assert_array_equal(reciprocal_series_from_moments([], 0), [1.0])

    def test_erlang_two_against_long_division(self):
        # Erlang(2, 1) moments are (k+1)!; the reciprocal transform series is
        # (1+t)^2, i.e. [1, 2, 1, 0, ...], certified by exact long division
        m = [math.factorial(k + 1) for k in range(1, 9)]
        oracle = reciprocal_series_by_long_division([Fraction(mk) for mk in m], 8)
        assert oracle[:4] == [1, 2, 1, 0]
        got = reciprocal_series_from_moments(m, 8)
        np.testing.assert_allclose(got, [float(c) for c in oracle], atol=1e-10)

    def test_uniform_moments_match_long_division(self):
        m = [Fraction(1, k + 1) for k in range(1, 13)]
        oracle = reciprocal_series_by_long_division(m, 12)
        got = reciprocal_series_from_moments([float(x) for x in m], 12)
        np.testing.assert_allclose(got, [float(c) for c in oracle], rtol=1e-9, atol=1e-12)

    def test_too_few_moments(self):
        with pytest.raises(ParameterError):
            reciprocal_series_from_moments([1.0, 2.0], 5)


def test_quick_report_passes():
    report = run_identity_checks(
        exact_max_n=8, shift_max_m=3, n_rationals=5, bracket_max_n=6,
        float_max_n=4, grid_points=20,
    )
    assert report.total_failures == 0
    assert report.total_checks > 1000
    assert report.worst_float_residual < 1e-10
    text = report.render_text()
    assert "failures" in text and "total:" in text


# ---------------------------------------------------------------------------
# one-pass kernels, array evaluation and the sweep's own safeguards
# ---------------------------------------------------------------------------

def _random_pq(rng, bound):
    while True:
        v = Fraction(int(rng.integers(-bound, bound + 1)), int(rng.integers(1, bound + 1)))
        if v not in (0, 1):
            return v, v.numerator, v.denominator


def _gap_by_fractions(n, j, v):
    # the termwise definition, in rationals, as an independent oracle
    geo = sum(v**k for k in range(n))
    weighted = sum(k * v**k for k in range(n))
    return (v / (v - 1)) ** (j - 1) * v * geo + (v - 1) * weighted - n * v**n


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestOnePassKernels:
    def test_binomial_sides_match_single_n_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            v, p, q = _random_pq(rng, 10**4)
            for m in (0, 1, 4):
                for j in (1, 2, 5, 9, 14):
                    lhs, rhs = identities._binomial_sides(
                        12, m, j, identities._powers(p, 12), identities._powers(q, 12),
                        identities._pascal(13 + m, (j - 1, j)))
                    first = max(1, j - m)
                    assert len(lhs) == len(rhs) == max(0, 13 - first)
                    for n in range(1, 13):
                        lhs_n = (v * sum(math.comb(k + m, j - 1) * v**k for k in range(n))
                                 + (v - 1) * sum(math.comb(k + m, j) * v**k for k in range(n)))
                        rhs_n = math.comb(n + m, j) * v**n - math.comb(m, j)
                        if n < first:  # the pass starts at its first nonzero term
                            assert lhs_n == rhs_n == 0
                            continue
                        assert lhs[n - first] == lhs_n * q**n
                        assert rhs[n - first] == rhs_n * q**n

    def test_geometric_sums_match_single_n_sums(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            v, p, q = _random_pq(rng, 10**4)
            for n, (g, w) in enumerate(identities._geometric_sums(15, p, q), 1):
                assert g == sum(v**k for k in range(n)) * q ** (n - 1)
                assert w == sum(k * v**k for k in range(n)) * q ** (n - 1)

    def test_gap_numerators_match_rational_forms(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            v, p, q = _random_pq(rng, 10**3)
            d = p - q
            sums = identities._geometric_sums(10, p, q)
            for n in range(1, 11):
                for j in range(2, 12):
                    gap = identities._gap_numerator(n, d, p**j, d ** (j - 1), p**n, *sums[n - 1])
                    closed = identities._closed_form_numerator(p, p**j, d ** (j - 1), p**n, q**n)
                    assert gap == _gap_by_fractions(n, j, v) * d ** (j - 1) * q**n
                    s = v / (v - 1)
                    assert closed == (s**j - s) * (v**n - 1) * d**j * q**n
                    assert geometric_weight_gap(n, j, v) == _gap_by_fractions(n, j, v)
                    assert gap_vanishes(n, j, v) == (v**n == 1 or s ** (j - 1) == 1)
                    assert identities._gap_vanishes(p**n, q**n, p ** (j - 1), d ** (j - 1)) \
                        == gap_vanishes(n, j, v)

    def test_float_kernels_match_single_n_evaluation(self):
        # the original algorithm: a fresh scalar recurrence for each n
        def lt_single(n, w, rate, t):
            wd, td, lam = DD(w), DD(t), DD(rate)
            phi1 = (wd - 1.0) * (lam / (lam + wd * td))
            phi2 = ((wd - 1.0) / wd) * (lam / (lam + td))
            power, geo = DD(1.0), DD(0.0)
            for _ in range(n):
                power = power * phi2
                geo = geo + power
            return abs(float(phi1 * power - phi1 + geo))

        def fe_single(n, w, rate, t):
            wd, one, td = DD(w), DD(1.0), DD(t)
            v = wd / (wd - 1.0)
            psi_t, psi_wt = 1.0 + td / rate, 1.0 + (wd * td) / rate
            vp = psip = acc = one
            for _ in range(1, n):
                vp = vp * v
                psip = psip * psi_t
                acc = acc + vp * psip
            return abs(float(one - vp * v * psip * psi_t + (v - one) * psi_wt * acc))

        grid = np.linspace(0.0, 20.0, 13)
        ws, rates = (0.1, 1.5, 10.0), (1.0, 2.0)
        for w in ws:
            for rate in rates:
                lt = identities._lt_identity_residuals(10, w, rate, grid)
                fe = identities._functional_equation_residuals(
                    10, w, identities._reciprocal_exp_transform(rate), DD(grid))
                for n in range(1, 11):
                    want_lt = [lt_single(n, w, rate, float(t)) for t in grid]
                    want_fe = [fe_single(n, w, rate, float(t)) for t in grid]
                    np.testing.assert_array_equal(_bits(lt[n - 1]), _bits(want_lt))
                    np.testing.assert_array_equal(_bits(fe[n - 1]), _bits(want_fe))

        # the sweep's one call over a stacked (rate, w, t) grid, with each
        # rate's own t-grid, equals the per-pair calls bit for bit
        rate_axis = np.array(rates)[:, None, None]
        w_axis = np.array(ws)[None, :, None]
        t_grids = np.stack([grid * rate for rate in rates])[:, None]
        lt = identities._lt_identity_residuals(10, w_axis, rate_axis, t_grids)
        fe = identities._functional_equation_residuals(
            10, w_axis, identities._reciprocal_exp_transform(rate_axis), DD(t_grids))
        for a, rate in enumerate(rates):
            for b, w in enumerate(ws):
                want_lt = identities._lt_identity_residuals(10, w, rate, t_grids[a, 0])
                want_fe = identities._functional_equation_residuals(
                    10, w, identities._reciprocal_exp_transform(rate), DD(t_grids[a, 0]))
                for n in range(10):
                    assert lt[n].shape == fe[n].shape == (2, 3, 13)
                    np.testing.assert_array_equal(_bits(lt[n][a, b]), _bits(want_lt[n]))
                    np.testing.assert_array_equal(_bits(fe[n][a, b]), _bits(want_fe[n]))


class TestArrayResiduals:
    grid = np.linspace(0.0, 10.0, 21)

    def test_product_identity(self):
        for n in (1, 4, 10):
            for w in (0.1, 2.0):
                for rate in (1.0, 2.0):
                    got = exp_lt_identity_residual(n, w, rate, self.grid)
                    want = [exp_lt_identity_residual(n, w, rate, float(t)) for t in self.grid]
                    assert got.shape == self.grid.shape
                    np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_partial_fraction(self):
        for w in (0.1, 0.5, 3.0, 10.0):
            got = partial_fraction_residual(w, self.grid)
            want = [partial_fraction_residual(w, float(t)) for t in self.grid]
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_functional_equation_dd_and_float(self):
        def psi(t):
            return 1.0 + t / 2.0

        for n in (1, 3, 10):
            for w in (0.3, 5.0):
                got = functional_equation_residual(n, w, psi, DD(self.grid))
                want = [functional_equation_residual(n, w, psi, DD(float(t))) for t in self.grid]
                np.testing.assert_array_equal(_bits(got), _bits(want))
                got = functional_equation_residual(n, w, psi, self.grid)
                want = [functional_equation_residual(n, w, psi, float(t)) for t in self.grid]
                np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_characterization_residual(self):
        def phi(t):
            return 1.0 / (1.0 + t)

        for n in (1, 5):
            got = characterization_residual(n, 2.0, phi, DD(self.grid))
            want = [characterization_residual(n, 2.0, phi, DD(float(t))) for t in self.grid]
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_rejects_bad_grid(self):
        for bad in (np.array([0.0, -1.0]), np.array([0.0, np.nan]), np.array([np.inf])):
            with pytest.raises(ParameterError):
                exp_lt_identity_residual(2, 2.0, 1.0, bad)
            with pytest.raises(ParameterError):
                partial_fraction_residual(2.0, bad)


_SMALL = dict(exact_max_n=6, shift_max_m=3, n_rationals=4, bracket_max_n=5,
              float_max_n=4, grid_points=12)


def _failures(report):
    return {f.name: f.failures for f in report.families}


class TestSweepSensitivity:
    """The sweep must count failures when the identity it checks is broken."""

    def test_clean_sweep_passes(self):
        assert run_identity_checks(**_SMALL).total_failures == 0

    def test_dropped_boundary_term_fails_shifted_family(self, monkeypatch):
        original = identities._binomial_sides

        def without_boundary(max_n, m, j, pk, qk, pascal):
            lhs, rhs = original(max_n, m, j, pk, qk, pascal)
            return lhs, [r + math.comb(m, j) * qk[n]
                         for n, r in enumerate(rhs, max(1, j - m))]

        monkeypatch.setattr(identities, "_binomial_sides", without_boundary)
        failures = _failures(run_identity_checks(**_SMALL))
        assert failures["shifted binomial weighted sum"] > 0
        # C(0, j) = 0 for j >= 1: the unshifted families never see the term
        assert failures["binomial weighted sum"] == 0
        assert failures["series coefficient brackets"] == 0

    def test_corrupted_first_step_is_counted(self, monkeypatch):
        # one wrong left side at n = j - m, the first n the (m, j) pass
        # computes, is one failure: the pass and the counted n line up
        original = identities._binomial_sides

        def corrupted(max_n, m, j, pk, qk, pascal):
            lhs, rhs = original(max_n, m, j, pk, qk, pascal)
            if (m, j) == (2, 5):
                lhs[0] += 1
            return lhs, rhs

        monkeypatch.setattr(identities, "_binomial_sides", corrupted)
        failures = _failures(run_identity_checks(**_SMALL))
        assert failures["shifted binomial weighted sum"] == _SMALL["n_rationals"]
        assert failures["binomial weighted sum"] == 0

    def test_corrupted_pascal_entry_fails_shifted_family(self, monkeypatch):
        original = identities._pascal

        def corrupted(rows, cols):
            table = original(rows, cols)
            if 3 in table and rows > 5:
                table[3][5] += 1  # C(5, 3) = 10 becomes 11
            return table

        monkeypatch.setattr(identities, "_pascal", corrupted)
        failures = _failures(run_identity_checks(**_SMALL))
        assert failures["shifted binomial weighted sum"] > 0
        assert failures["geometric weight gap vs closed form"] == 0

    def test_perturbed_weighted_sum_fails_gap_family(self, monkeypatch):
        original = identities._geometric_sums

        def perturbed(max_n, p, q):
            return [(g, w + 1) for g, w in original(max_n, p, q)]

        monkeypatch.setattr(identities, "_geometric_sums", perturbed)
        failures = _failures(run_identity_checks(**_SMALL))
        assert failures["geometric weight gap vs closed form"] > 0

    def test_perturbed_psi_fails_functional_equation(self, monkeypatch):
        def perturbed(rate):
            return lambda t: 1.0 + t / rate + 1e-8

        monkeypatch.setattr(identities, "_reciprocal_exp_transform", perturbed)
        report = run_identity_checks(**_SMALL)
        family = [f for f in report.families if f.name.startswith("functional equation")][0]
        assert family.failures > 0
        assert family.worst_residual > 1e-10

    def test_float_tolerances_bite_where_rounding_grows(self):
        # at n = 40 the geometric terms reach 49^40 ~ 4e67 (product identity,
        # w = 0.02) and (v Psi)^40 ~ 1e41 (functional equation, w = 40,
        # Psi up to 11), far beyond what double-double cancels to tolerance
        report = run_identity_checks(**{**_SMALL, "float_max_n": 40, "float_ws": (0.02, 40.0)})
        failures = _failures(report)
        assert failures["scaled-transform product identity"] > 0
        assert failures["functional equation (reciprocal exp)"] > 0
        assert failures["partial fraction split"] == 0


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_worst_residual_passes_over_grids_with_a_nan(self):
        # at n near 400 the w = 0.2 grids overflow to NaN while the others
        # stay finite: the worst residual is the largest maximum of the
        # grids without a NaN, as when each (rate, w) pair was its own call
        sweep = {**_SMALL, "float_max_n": 400, "float_ws": (0.2, 5.0, 50.0), "grid_points": 6}
        report = run_identity_checks(**sweep)
        worst = [f.worst_residual for f in report.families
                 if f.name.startswith("functional equation")][0]
        want, nan_grids = 0.0, 0
        for rate in (1.0, 2.0):
            grid = DD(np.linspace(0.0, 10.0 * rate, 6))
            for w in sweep["float_ws"]:
                psi = identities._reciprocal_exp_transform(rate)
                for r in identities._functional_equation_residuals(400, w, psi, grid):
                    if np.isnan(r).any():
                        nan_grids += 1
                    else:
                        want = max(want, float(r.max()))
        assert nan_grids > 0
        assert worst == want


class TestSweepValidation:
    @pytest.mark.parametrize("bad", [
        {"exact_max_n": 0}, {"exact_max_n": -3}, {"n_rationals": 0},
        {"bracket_max_n": 1}, {"float_max_n": 0}, {"grid_points": 0},
        {"shift_max_m": -1}, {"float_ws": ()}, {"float_rates": ()},
        {"float_ws": (1.0,)}, {"float_rates": (0.0,)}, {"exact_max_n": 2.0},
    ])
    def test_vacuous_or_invalid_sweep_raises(self, bad):
        with pytest.raises(ParameterError):
            run_identity_checks(**{**_SMALL, **bad})

    def test_zero_shift_is_a_real_sweep(self):
        report = run_identity_checks(**{**_SMALL, "shift_max_m": 0})
        shifted = [f for f in report.families if f.name.startswith("shifted")][0]
        assert shifted.checks == 4 * 21 and shifted.failures == 0
