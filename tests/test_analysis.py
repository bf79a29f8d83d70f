import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab.analysis import decompose
from cvlab.core import DomainError
from oracles import identity_residual


class TestDecompose:
    def test_identity_pairing(self):
        rng = np.random.default_rng(0)
        s = rng.normal(0.6, 0.05, 50)
        report = decompose(s, s)
        assert report.rms_cond == 0.0
        assert report.rho == pytest.approx(1.0, abs=1e-12)
        assert abs(report.residual) <= 1e-12

    def test_zero_correlation_limit(self):
        rng = np.random.default_rng(1)
        s = rng.normal(0.6, 0.05, 40000)
        noise = rng.normal(0.0, 0.08, 40000)
        report = decompose(s, s.mean() + noise)
        assert abs(report.rho) < 0.03
        # mse_cond ~= mse_mean + var_s when the estimate ignores s
        lhs = report.mse_cond
        rhs = report.mse_mean + report.sigma_s**2
        assert lhs == pytest.approx(rhs, rel=0.02)

    def test_moments_are_plug_in(self):
        s = np.array([0.0, 1.0])
        s_hat = np.array([1.0, 0.0])
        report = decompose(s, s_hat)
        assert report.sigma_s == 0.5  # divide-by-T, not T-1
        assert report.mse_cond == 1.0
        assert report.rho == -1.0

    def test_degenerate_flag(self):
        report = decompose([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])
        assert report.degenerate
        assert report.rho is None and report.residual is None
        assert report.rms_cond > 0  # unnormalized fields still reported

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DomainError):
            decompose([1.0, 2.0], [1.0])

    def test_single_trial_rejected(self):
        with pytest.raises(DomainError):
            decompose([1.0], [1.0])

    @pytest.mark.parametrize("s, s_hat, message", [
        ([1.0], [math.nan, 2.0], "s and s_hat must have equal lengths"),
        ([math.nan], [1.0], "need at least two trials"),
        ([1.0, math.inf], [1.0, 2.0], "entries must be finite"),
        ([1.0, 2.0], [math.nan, 2.0], "entries must be finite"),
    ])
    def test_checks_run_in_order(self, s, s_hat, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            decompose(s, s_hat)

    def test_strided_columns_give_the_bits_of_contiguous_ones(self):
        table = np.random.default_rng(2).normal(0.6, 0.1, (20_001, 3))
        strided = decompose(table[:, 0], table[:, 2])
        contiguous = decompose(table[:, 0].copy(), table[:, 2].copy())
        assert strided.to_json_dict() == contiguous.to_json_dict()

    def test_any_array_like_is_read_flat_and_left_as_it_is(self):
        s, s_hat = np.array([0.2, 0.4, 0.9]), np.array([0.3, 0.3, 0.8])
        before = decompose(s, s_hat)
        assert decompose(s.reshape(3, 1), list(s_hat)) == before
        assert s.tolist() == [0.2, 0.4, 0.9] and s_hat.tolist() == [0.3, 0.3, 0.8]


class TestIdentityResidual:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_residual_vanishes_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(0, 1, 100)
        s_hat = 0.4 * s + rng.normal(0, 0.5, 100)
        assert identity_residual(s, s_hat) <= 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DomainError):
            identity_residual([1.0, 1.0, 1.0], [0.0, 0.5, 1.0])


class TestInvariances:
    def test_additive_shift(self):
        rng = np.random.default_rng(5)
        s = rng.normal(0.5, 0.1, 200)
        s_hat = rng.normal(0.5, 0.2, 200)
        base = decompose(s, s_hat)
        shifted = decompose(s + 0.3, s_hat + 0.3)
        assert shifted.rho == pytest.approx(base.rho, abs=1e-12)
        assert shifted.sigma_s == pytest.approx(base.sigma_s, abs=1e-12)
        assert shifted.sigma_s_hat == pytest.approx(base.sigma_s_hat, abs=1e-12)
        assert shifted.rms_cond == pytest.approx(base.rms_cond, abs=1e-12)
        assert shifted.rms_mean == pytest.approx(base.rms_mean, abs=1e-12)

    def test_swap_reciprocal_sigma_ratio(self):
        rng = np.random.default_rng(6)
        s = rng.normal(0.5, 0.1, 150)
        s_hat = 0.5 * s + rng.normal(0, 0.05, 150)
        fwd = decompose(s, s_hat)
        rev = decompose(s_hat, s)
        assert rev.sigma_ratio == pytest.approx(1.0 / fwd.sigma_ratio, rel=1e-12)
        assert rev.rho == pytest.approx(fwd.rho, abs=1e-12)
