import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from margsyn.dataset import Dataset, Schema
from margsyn.marginals import (Marginal, MarginalQuery, compute_marginal, enumerate_queries,
                               l1_distance, query_count)
from margsyn.privacy import (NoiseCalibration, PrivacyParams, add_noise, add_noise_to_set,
                             calibrate, gaussian_sigma, marginal_set_sensitivity,
                             synthesis_l1_bound)

from conftest import random_dataset


class TestGaussianSigma:
    def test_forced_value(self):
        # ln(1.25/delta) = 2 when delta = 1.25 e^-2, so sigma = sqrt(4) = 2
        sigma = gaussian_sigma(1.0, 1.25 * math.exp(-2.0), 1.0)
        assert sigma == pytest.approx(2.0, rel=1e-12)

    def test_linear_in_sensitivity(self):
        assert gaussian_sigma(1.0, 1e-5, 2.0) == pytest.approx(2 * gaussian_sigma(1.0, 1e-5, 1.0))

    def test_inverse_in_epsilon(self):
        assert gaussian_sigma(2.0, 1e-5, 1.0) == pytest.approx(0.5 * gaussian_sigma(1.0, 1e-5, 1.0))

    def test_input_validation(self):
        for bad in [(0.0, 1e-5, 1.0), (1.0, 0.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1e-5, 0.0)]:
            with pytest.raises(ValueError):
                gaussian_sigma(*bad)

    @given(st.integers(1, 8), st.integers(1, 4), st.floats(0.05, 0.95), st.floats(1e-8, 0.5))
    def test_calibration_closed_form(self, m, d, eps, delta):
        # with sensitivity sqrt(2 |Q|) the calibrated sigma collapses to
        # 2 sqrt(|Q| ln(1.25/delta)) / eps
        if d > m + 1:
            return
        got = calibrate(m, d, PrivacyParams(eps, delta)).sigma
        want = 2.0 * math.sqrt(query_count(m, d) * math.log(1.25 / delta)) / eps
        assert got == pytest.approx(want, rel=1e-12)


class TestSensitivity:
    def test_exact_m2_d2(self):
        assert marginal_set_sensitivity(2, 2) == pytest.approx(math.sqrt(12.0))

    @given(st.integers(1, 14), st.data())
    def test_matches_query_count(self, m, data):
        d = data.draw(st.integers(1, m + 1))
        want = math.sqrt(2.0 * sum(math.comb(m + 1, k) for k in range(1, d + 1)))
        assert marginal_set_sensitivity(m, d) == pytest.approx(want)

    @pytest.mark.parametrize("m, d", [(3, 0), (3, 5)])
    def test_invalid_order_rejected(self, m, d):
        with pytest.raises(ValueError):
            marginal_set_sensitivity(m, d)


class TestPrivacyParams:
    def test_epsilon_range_gate(self):
        PrivacyParams(1.0, 1e-6)
        with pytest.raises(ValueError):
            PrivacyParams(2.0, 1e-6)
        PrivacyParams(2.0, 1e-6, allow_large_epsilon=True)

    def test_other_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 1.5)
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 1e-6, lam=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_epsilon_must_be_finite(self, eps):
        # NaN compares False with every bound, and infinity calibrates sigma = 0:
        # either would release the marginals without noise
        with pytest.raises(ValueError, match="epsilon"):
            PrivacyParams(eps, 1e-6, allow_large_epsilon=True)

    def test_lambda_must_be_a_number(self):
        with pytest.raises(ValueError, match="lambda"):
            PrivacyParams(0.5, 1e-6, lam=math.nan)


class TestAddNoise:
    def test_nan_sigma_rejected(self, two_binary_rows):
        m = compute_marginal(two_binary_rows, MarginalQuery((0,)))
        with pytest.raises(ValueError, match="sigma"):
            add_noise(m, math.nan, np.random.default_rng(0))

    def test_zero_sigma_identity_but_flagged(self, two_binary_rows):
        m = compute_marginal(two_binary_rows, MarginalQuery((0,)))
        noisy = add_noise(m, 0.0, np.random.default_rng(0))
        assert np.array_equal(noisy.counts, m.counts)
        assert not noisy.exact

    def test_seed_determinism(self, two_binary_rows):
        m = compute_marginal(two_binary_rows, MarginalQuery((0, 1)))
        a = add_noise(m, 3.0, np.random.default_rng(42))
        b = add_noise(m, 3.0, np.random.default_rng(42))
        assert np.array_equal(a.counts, b.counts)

    def test_set_noising_is_order_independent(self, two_binary_rows):
        margs = [compute_marginal(two_binary_rows, q) for q in enumerate_queries(1, 2)]
        noisy = add_noise_to_set(margs, 2.0, seed=7)
        # noises of query i depend only on (seed, i), so re-noising a prefix agrees
        again = add_noise_to_set(margs[:2], 2.0, seed=7)
        for a, b in zip(noisy[:2], again):
            assert np.array_equal(a.counts, b.counts)

    def test_empirical_std_within_two_percent(self):
        sigma = 1.7
        base = Marginal(MarginalQuery((0,)), np.zeros(100_000), exact=True)
        noisy = add_noise(base, sigma, np.random.default_rng(5))
        assert np.std(noisy.counts) == pytest.approx(sigma, rel=0.02)

    def test_entries_uncorrelated(self):
        base = Marginal(MarginalQuery((0, 1)), np.zeros(4), exact=True)
        draws = np.stack([add_noise(base, 1.0, np.random.default_rng([9, t])).counts
                          for t in range(10_000)])
        corr = np.corrcoef(draws.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.05


class TestTailBound:
    def test_zero_sigma(self):
        assert synthesis_l1_bound(0.0, 2, 3, 2, 3.0) == 0.0

    def test_frozen_fixture(self):
        # 2 * 2^2 * sqrt(2 (11 ln 2 + 2 ln 4)), evaluated in extended precision
        got = synthesis_l1_bound(1.0, 2, 2, 2, 10.0)
        assert got == pytest.approx(36.48071527088106, rel=1e-12)

    def test_monotonicity(self):
        base = synthesis_l1_bound(1.0, 2, 2, 2, 3.0)
        assert synthesis_l1_bound(2.0, 2, 2, 2, 3.0) > base
        assert synthesis_l1_bound(1.0, 3, 2, 2, 3.0) > base
        assert synthesis_l1_bound(1.0, 2, 2, 3, 3.0) > base
        assert synthesis_l1_bound(1.0, 2, 2, 2, 9.0) > base


def test_noisy_vs_real_coverage(three_binary_schema):
    """Max-over-queries l1 gap between noisy and exact marginals stays below the
    tail bound in all but ~2^-lambda of seeded trials (noise half only, so the
    full doubled bound has wide slack)."""
    ds = random_dataset(three_binary_schema, 50, seed=123)
    queries = enumerate_queries(3, 2)
    exact = [compute_marginal(ds, q) for q in queries]
    calib = calibrate(3, 2, PrivacyParams(1.0, 1 / 50**2, lam=3.0))
    bound = synthesis_l1_bound(calib.sigma, 2, 3, 2, 3.0)
    trials, violations = 1000, 0
    for seed in range(trials):
        noisy = add_noise_to_set(exact, calib.sigma, seed)
        worst = max(l1_distance(a, b) for a, b in zip(noisy, exact))
        violations += worst > bound
    slack = 2.326 * math.sqrt(0.125 * 0.875 / trials)  # 99% binomial upper bound
    assert violations / trials <= 0.125 + slack


def test_calibration_is_recomputable():
    calib = calibrate(4, 2, PrivacyParams(0.5, 1e-6))
    assert isinstance(calib, NoiseCalibration)
    assert calib.sigma == pytest.approx(
        gaussian_sigma(calib.epsilon, calib.delta, calib.sensitivity), rel=1e-15)
    assert calib.sensitivity == marginal_set_sensitivity(4, 2)
