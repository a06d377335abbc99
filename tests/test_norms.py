import math
import tracemalloc
from functools import partial

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
    norms,
)
from iss_parabolic.grid import BLOCK_BYTES
from iss_parabolic.norms import lp_norms, sup_weight, weighted_sin_norms, weighted_sup_norms


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

    @pytest.mark.parametrize("p", [0.5, -1.0, 0.0, math.nan, -math.inf])
    def test_history_norms_refuse_exponents_outside_domain(self, p):
        # quasi-norms for p < 1, a division by zero at p = 0, NaN norms at p = nan
        with pytest.raises(InvalidParameterError, match="p must be >= 1 or inf"):
            lp_norms(np.ones((3, 11)), 0.1, p)


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


# A history at the closed-loop benchmark's size, n_interior = 999 over 5000 steps.
HISTORY_NODES = 1001
BLOCK = BLOCK_BYTES // (HISTORY_NODES * 8)
THETA, PHI = 0.7, 0.9
EXPONENTS = [1.0, 2.0, 3.0, 8.0, math.inf]


def _whole_array_norms(data, h, nodes):
    """Every norm by the whole-array formula, one |x| copy of the history each."""
    def trapz(values):
        return h * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))

    out = {}
    for p in EXPONENTS:
        if p == math.inf:
            out[f"l{p}"] = np.abs(data).max(axis=-1)
        else:
            powers = np.abs(data, dtype=float)
            powers **= p
            out[f"l{p}"] = trapz(powers) ** (1.0 / p)
    weighted = np.abs(data, dtype=float)
    weighted *= np.sin(np.pi * np.linspace(0.0, 1.0, data.shape[-1]))
    out["sin"] = trapz(weighted)
    weighted = np.abs(data, dtype=float)
    weighted *= sup_weight(nodes, THETA, PHI)
    out["sup"] = weighted.max(axis=-1)
    return out


def _norm_calls(data, h, nodes):
    """Each blocked norm of ``data`` by name, as a call not yet made."""
    calls = {f"l{p}": partial(lp_norms, data, h, p) for p in EXPONENTS}
    calls["sin"] = partial(weighted_sin_norms, data, h)
    calls["sup"] = partial(weighted_sup_norms, data, nodes, THETA, PHI)
    return calls


def _history(shape, seed=0):
    """Signed values over twelve decades, with exact zeros of both signs and a zero row."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    flat = data.reshape(-1)
    flat[::7] = 0.0
    flat[3::11] = -0.0
    if data.ndim == 2 and len(data) > 2:
        data[len(data) // 2] = 0.0
    return data


@pytest.mark.parametrize(
    "shape",
    [(0, HISTORY_NODES), (HISTORY_NODES,), (1, HISTORY_NODES), (BLOCK, HISTORY_NODES),
     (BLOCK + 1, HISTORY_NODES), (5001, HISTORY_NODES)],
    ids=["empty", "field", "one_row", "one_block", "block_plus_row", "history"],
)
def test_blocked_norms_match_whole_array_formulas_bitwise(shape):
    data = _history(shape)
    grid = _grid(HISTORY_NODES - 2)
    expected = _whole_array_norms(data, grid.h, grid.nodes)
    got = {name: call() for name, call in _norm_calls(data, grid.h, grid.nodes).items()}
    assert got.keys() == expected.keys()
    for name in expected:
        assert np.shape(got[name]) == np.shape(expected[name]), name
        # tobytes compares every bit, the sign bit included
        assert np.asarray(got[name]).tobytes() == np.asarray(expected[name]).tobytes(), name


@pytest.mark.parametrize("name", [f"l{p}" for p in EXPONENTS] + ["sin", "sup"])
def test_history_norm_allocates_one_block_buffer(name):
    grid = _grid(HISTORY_NODES - 2)
    call = _norm_calls(_history((5001, HISTORY_NODES)), grid.h, grid.nodes)[name]
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * BLOCK_BYTES + result.nbytes  # the history itself is 40 MB


def test_sup_weight_is_built_once_per_history(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sup_weight(*args)

    monkeypatch.setattr(norms, "sup_weight", counted)
    grid = _grid(HISTORY_NODES - 2)
    weighted_sup_norms(_history((3 * BLOCK + 1, HISTORY_NODES)), grid.nodes, THETA, PHI)
    assert len(calls) == 1
