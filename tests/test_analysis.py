import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab.analysis import PairedPerformanceSample, decompose
from cvlab.core import DomainError
from oracles import identity_residual


def sample_from(s, s_hat):
    return PairedPerformanceSample(s=np.asarray(s, float), s_hat=np.asarray(s_hat, float))


class TestDecompose:
    def test_identity_pairing(self):
        rng = np.random.default_rng(0)
        s = rng.normal(0.6, 0.05, 50)
        report = decompose(sample_from(s, s))
        assert report.rms_cond == 0.0
        assert report.rho == pytest.approx(1.0, abs=1e-12)
        assert abs(report.residual) <= 1e-12

    def test_zero_correlation_limit(self):
        rng = np.random.default_rng(1)
        s = rng.normal(0.6, 0.05, 40000)
        noise = rng.normal(0.0, 0.08, 40000)
        report = decompose(sample_from(s, s.mean() + noise))
        assert abs(report.rho) < 0.03
        # mse_cond ~= mse_mean + var_s when the estimate ignores s
        lhs = report.mse_cond
        rhs = report.mse_mean + report.sigma_s**2
        assert lhs == pytest.approx(rhs, rel=0.02)

    def test_moments_are_plug_in(self):
        s = np.array([0.0, 1.0])
        s_hat = np.array([1.0, 0.0])
        report = decompose(sample_from(s, s_hat))
        assert report.sigma_s == 0.5  # divide-by-T, not T-1
        assert report.mse_cond == 1.0
        assert report.rho == -1.0

    def test_degenerate_flag(self):
        report = decompose(sample_from([0.5, 0.5, 0.5], [0.1, 0.2, 0.3]))
        assert report.degenerate
        assert report.rho is None and report.residual is None
        assert report.rms_cond > 0  # unnormalized fields still reported

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DomainError):
            sample_from([1.0, 2.0], [1.0])

    def test_single_trial_rejected(self):
        with pytest.raises(DomainError):
            sample_from([1.0], [1.0])


class TestIdentityResidual:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_residual_vanishes_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(0, 1, 100)
        s_hat = 0.4 * s + rng.normal(0, 0.5, 100)
        assert identity_residual(sample_from(s, s_hat)) <= 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DomainError):
            identity_residual(sample_from([1.0, 1.0, 1.0], [0.0, 0.5, 1.0]))


class TestInvariances:
    def test_additive_shift(self):
        rng = np.random.default_rng(5)
        s = rng.normal(0.5, 0.1, 200)
        s_hat = rng.normal(0.5, 0.2, 200)
        base = decompose(sample_from(s, s_hat))
        shifted = decompose(sample_from(s + 0.3, s_hat + 0.3))
        assert shifted.rho == pytest.approx(base.rho, abs=1e-12)
        assert shifted.sigma_s == pytest.approx(base.sigma_s, abs=1e-12)
        assert shifted.sigma_s_hat == pytest.approx(base.sigma_s_hat, abs=1e-12)
        assert shifted.rms_cond == pytest.approx(base.rms_cond, abs=1e-12)
        assert shifted.rms_mean == pytest.approx(base.rms_mean, abs=1e-12)

    def test_swap_reciprocal_sigma_ratio(self):
        rng = np.random.default_rng(6)
        s = rng.normal(0.5, 0.1, 150)
        s_hat = 0.5 * s + rng.normal(0, 0.05, 150)
        fwd = decompose(sample_from(s, s_hat))
        rev = decompose(sample_from(s_hat, s))
        assert rev.sigma_ratio == pytest.approx(1.0 / fwd.sigma_ratio, rel=1e-12)
        assert rev.rho == pytest.approx(fwd.rho, abs=1e-12)
