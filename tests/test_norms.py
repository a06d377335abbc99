import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iss_parabolic import (
    Field,
    Grid1D,
    InvalidParameterError,
    norm_lp,
    norm_weighted_sin,
    norm_weighted_sup,
)


def _grid(n):
    return Grid1D(n_interior=n, dt=1e-3, t_final=0.1)


class TestNormLp:
    def test_constant_one_l2(self):
        assert norm_lp(Field(np.ones(101), _grid(99)), 2.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    def test_zero_field(self, p):
        assert norm_lp(Field.zeros(_grid(49)), p) == 0.0

    def test_sine_l2_matches_closed_form(self):
        # integral of sin(pi z)^2 over [0, 1] is 1/2
        grid = _grid(99)
        val = norm_lp(Field(np.sin(np.pi * grid.nodes), grid), 2.0)
        assert val == pytest.approx(math.sqrt(0.5), abs=1e-4)

    def test_quadrature_second_order(self):
        # sin(pi z)^2 is integrated to machine precision by the trapezoid
        # rule (periodic integrand over a full period), so the h^2 envelope
        # is checked there and the genuine order is measured on exp(z).
        for n in (50, 100, 200):
            grid = _grid(n)
            val = norm_lp(Field(np.sin(np.pi * grid.nodes), grid), 2.0)
            assert abs(val - math.sqrt(0.5)) <= grid.h**2
        exact = math.sqrt((math.e**2 - 1.0) / 2.0)
        errors = []
        for n in (50, 100, 200):
            grid = _grid(n)
            errors.append(abs(norm_lp(Field(np.exp(grid.nodes), grid), 2.0) - exact))
        assert errors[0] / errors[1] > 3.5
        assert errors[1] / errors[2] > 3.5

    def test_sup_norm_is_nodal_max(self):
        grid = _grid(9)
        vals = np.zeros(grid.n_nodes)
        vals[4] = -3.0
        assert norm_lp(Field(vals, grid), math.inf) == 3.0

    def test_p_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            norm_lp(Field.zeros(_grid(9)), 0.5)


class TestWeightedSin:
    def test_constant_one(self):
        # integral of sin(pi z) over [0, 1] is 2/pi
        val = norm_weighted_sin(Field(np.ones(201), _grid(199)))
        assert val == pytest.approx(2.0 / math.pi, abs=1e-4)

    def test_zero(self):
        assert norm_weighted_sin(Field.zeros(_grid(49))) == 0.0

    def test_sine(self):
        grid = _grid(199)
        val = norm_weighted_sin(Field(np.sin(np.pi * grid.nodes), grid))
        assert val == pytest.approx(0.5, abs=1e-4)


class TestWeightedSup:
    def test_zero(self):
        assert norm_weighted_sup(Field.zeros(_grid(49)), 0.7, 0.9) == 0.0

    def test_weight_is_identity_at_right_end(self):
        grid = _grid(49)
        vals = np.zeros(grid.n_nodes)
        vals[-1] = -2.5
        assert norm_weighted_sup(Field(vals, grid), 0.7, 0.9) == pytest.approx(2.5, rel=1e-14)

    def test_constant_one_quarter_angles(self):
        # weight max over nodes is sin(pi/2)/sin(pi/4) = sqrt(2), at z = 0
        val = norm_weighted_sup(Field(np.ones(101), _grid(99)), math.pi / 4, math.pi / 4)
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("theta,phi", [(0.0, 1.0), (1.0, 0.0), (2.0, 1.5), (-0.1, 0.5)])
    def test_domain_violations(self, theta, phi):
        with pytest.raises(InvalidParameterError):
            norm_weighted_sup(Field.zeros(_grid(9)), theta, phi)


@st.composite
def field_pairs(draw):
    grid = _grid(19)
    shape = grid.n_nodes
    elements = st.floats(-10.0, 10.0, allow_nan=False)
    x = draw(st.lists(elements, min_size=shape, max_size=shape))
    y = draw(st.lists(elements, min_size=shape, max_size=shape))
    return Field(np.array(x), grid), Field(np.array(y), grid)


@settings(max_examples=40, deadline=None)
@given(field_pairs(), st.sampled_from([1.0, 2.0, 4.0, math.inf]))
def test_norm_monotone_in_absolute_value(pair, p):
    x, y = pair
    dominated = Field(np.minimum(np.abs(x.values), np.abs(y.values)), x.grid)
    dominating = Field(np.maximum(np.abs(x.values), np.abs(y.values)), x.grid)
    assert norm_lp(dominated, p) <= norm_lp(dominating, p) + 1e-12


@settings(max_examples=40, deadline=None)
@given(field_pairs(), st.sampled_from([1.0, 2.0, 4.0, math.inf]))
def test_triangle_inequality(pair, p):
    x, y = pair
    total = Field(x.values + y.values, x.grid)
    assert norm_lp(total, p) <= norm_lp(x, p) + norm_lp(y, p) + 1e-12
