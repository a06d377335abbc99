import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iss_parabolic import (
    ExpLinearKL,
    InvalidParameterError,
    LinearGain,
    combine_bounds,
)


class TestKlEval:
    def test_unit_bound_at_time_zero(self):
        assert ExpLinearKL(m=1.0, sigma=1.0)(2.0, 0.0) == 2.0

    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0])
    def test_vanishes_at_zero_radius(self, t):
        assert ExpLinearKL(m=3.0, sigma=2.0)(0.0, t) == 0.0

    def test_direct_evaluation(self):
        # 2 exp(-0.1 pi^2) evaluated independently
        expected = 2.0 * math.exp(-0.1 * math.pi**2)
        assert ExpLinearKL(m=2.0, sigma=math.pi**2)(1.0, 0.1) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.74542, abs=5e-5)


class TestGainAlgebra:
    def test_linear(self):
        assert LinearGain(2.5)(2.0) == 5.0
        assert np.array_equal(LinearGain(2.5)(np.array([0.0, 2.0])), np.array([0.0, 5.0]))

    def test_positivity_enforced(self):
        with pytest.raises(InvalidParameterError):
            LinearGain(0.0)
        with pytest.raises(InvalidParameterError):
            ExpLinearKL(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            ExpLinearKL(1.0, 0.0)


class TestCombineBounds:
    def test_identity_moduli_values(self):
        # With identity moduli and beta(r, t) = exp(-t) r, gamma(r) = r:
        #   beta_hat(r, t) = 4 beta(4 r, t) = 16 exp(-t) r
        #   gamma_hat(1)   = 4 beta(4, 0) + 4 gamma(1) = 16 + 4 = 20
        beta = ExpLinearKL(m=1.0, sigma=1.0)
        ident = LinearGain(1.0)
        beta_hat, gamma_hat = combine_bounds(beta, ident, ident, ident, ident)
        assert beta_hat(1.0, 0.0) == pytest.approx(16.0)
        assert beta_hat(1.0, 1.0) == pytest.approx(16.0 * math.exp(-1.0))
        assert gamma_hat(1.0) == pytest.approx(20.0)

    def test_zero_radius_stays_zero(self):
        beta = ExpLinearKL(m=2.0, sigma=0.7)
        beta_hat, gamma_hat = combine_bounds(
            beta, LinearGain(1.0), LinearGain(2.0), LinearGain(3.0), LinearGain(1.5)
        )
        for t in (0.0, 1.0, 10.0):
            assert beta_hat(0.0, t) == 0.0
        assert gamma_hat(0.0) == 0.0

    def test_all_linear_inputs_tagged_linear(self):
        beta = ExpLinearKL(m=1.5, sigma=2.0)
        beta_hat, gamma_hat = combine_bounds(
            beta, LinearGain(0.5), LinearGain(2.0), LinearGain(1.5), LinearGain(0.25)
        )
        assert isinstance(beta_hat, ExpLinearKL)
        assert beta_hat.sigma == beta.sigma
        assert beta_hat.m == pytest.approx(16.0 * 2.0 * 0.25 * 1.5)
        assert isinstance(gamma_hat, LinearGain)
        # rho(4 beta(2 xi(2 r), 0) + 4 gamma(eta(r)))
        expected = 2.0 * (16.0 * 0.25 * 1.5 + 4.0 * 0.5 * 1.5)
        assert gamma_hat.c == pytest.approx(expected)


positive = st.floats(0.05, 20.0)


@settings(max_examples=50, deadline=None)
@given(positive, positive, positive, positive, positive, positive)
def test_combine_matches_pointwise_formula(m, sigma, c_gamma, c_rho, c_eta, c_xi):
    # The general formula evaluated through plain closures, independent of
    # the closed form combine_bounds takes for this family.
    beta = lambda r, t: m * math.exp(-sigma * t) * r  # noqa: E731
    gamma = lambda r: c_gamma * r  # noqa: E731
    rho = lambda r: c_rho * r  # noqa: E731
    eta = lambda r: c_eta * r  # noqa: E731
    xi = lambda r: c_xi * r  # noqa: E731
    beta_hat, gamma_hat = combine_bounds(
        ExpLinearKL(m, sigma), LinearGain(c_gamma), LinearGain(c_rho), LinearGain(c_eta), LinearGain(c_xi)
    )
    for r in (1e-3, 0.5, 1.0, 7.0):
        expected_gain = rho(4.0 * beta(2.0 * xi(2.0 * r), 0.0) + 4.0 * gamma(eta(r)))
        assert gamma_hat(r) == pytest.approx(expected_gain, rel=1e-12, abs=0.0)
        for t in (0.0, 0.3, 2.0):
            expected = rho(4.0 * beta(2.0 * xi(2.0 * r), t))
            assert float(beta_hat(r, t)) == pytest.approx(expected, rel=1e-12, abs=0.0)
