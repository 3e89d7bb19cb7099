"""Marginal moments against closed forms, family grids, and the keyed RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplim import Marginal, MeasureFamily, ProductMeasure
from caplim.measures import philox_stream, uniform_block

from conftest import make_location_family

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# Marginal moments: every closed form against an independent value.


class TestNormalMoments:
    def test_standard_moments(self):
        m = Marginal.normal(0.0, 1.0)
        assert m.mean() == 0.0
        assert m.variance() == 1.0
        assert m.raw_moment(2) == pytest.approx(1.0, rel=1e-12)
        assert m.raw_moment(3) == pytest.approx(0.0, abs=1e-12)
        assert m.raw_moment(4) == pytest.approx(3.0, rel=1e-12)
        assert m.abs_moment(1) == pytest.approx(SQRT_2_OVER_PI, rel=1e-12)
        assert m.abs_moment(3) == pytest.approx(2.0 * SQRT_2_OVER_PI, rel=1e-12)
        assert m.pos_part_moment(1) == pytest.approx(SQRT_2_OVER_PI / 2.0, rel=1e-12)
        assert m.pos_part_moment(3) == pytest.approx(SQRT_2_OVER_PI, rel=1e-12)

    def test_shifted_moments_match_quadrature(self):
        m = Marginal.normal(0.7, 2.3)
        s = math.sqrt(2.3)
        # E[(mu + s Z)^2] and E[(mu + s Z)^3] by direct expansion
        assert m.raw_moment(2) == pytest.approx(0.7**2 + 2.3, rel=1e-12)
        assert m.raw_moment(3) == pytest.approx(0.7**3 + 3 * 0.7 * 2.3, rel=1e-12)
        grid = np.linspace(-12 * s + 0.7, 12 * s + 0.7, 400001)
        pdf = m.pdf(grid)
        for k in (1.0, 2.0, 3.5):
            want_abs = np.trapezoid(np.abs(grid) ** k * pdf, grid)
            want_pos = np.trapezoid(np.clip(grid, 0, None) ** k * pdf, grid)
            assert m.abs_moment(k) == pytest.approx(want_abs, rel=1e-7)
            assert m.pos_part_moment(k) == pytest.approx(want_pos, rel=1e-7)

    def test_cdf_sf_ppf_consistency(self):
        m = Marginal.normal(-1.0, 4.0)
        ts = np.linspace(-9.0, 7.0, 33)
        np.testing.assert_allclose(m.cdf(ts) + m.sf(ts), 1.0, rtol=0, atol=1e-14)
        us = np.linspace(1e-6, 1 - 1e-6, 41)
        np.testing.assert_allclose(m.cdf(m.ppf(us)), us, atol=1e-12)


class TestUniformMoments:
    def test_moments(self):
        m = Marginal.uniform(-1.0, 3.0)
        assert m.mean() == pytest.approx(1.0)
        assert m.variance() == pytest.approx(16.0 / 12.0)
        # E X^k on [-1, 3] = (3^(k+1) - (-1)^(k+1)) / (4 (k+1))
        assert m.raw_moment(3) == pytest.approx((81 - 1) / 16.0, rel=1e-12)
        assert m.pos_part_moment(2) == pytest.approx(27.0 / 12.0, rel=1e-12)
        assert m.abs_moment(2) == pytest.approx((27.0 + 1.0) / 12.0, rel=1e-12)

    def test_cdf_and_support(self):
        m = Marginal.uniform(2.0, 5.0)
        assert m.cdf(2.0) == 0.0
        assert m.cdf(5.0) == 1.0
        assert m.cdf(3.5) == pytest.approx(0.5)
        assert m.support() == (2.0, 5.0)


class TestDiscreteMoments:
    def test_bernoulli(self):
        m = Marginal.bernoulli(0.3)
        assert m.mean() == pytest.approx(0.3)
        assert m.variance() == pytest.approx(0.21)
        assert m.raw_moment(7) == pytest.approx(0.3)
        assert m.atoms() == ((0.0, 0.7), (1.0, 0.3))

    def test_general_discrete(self):
        m = Marginal.discrete([(-2.0, 0.25), (0.0, 0.5), (4.0, 0.25)])
        assert m.mean() == pytest.approx(0.5)
        assert m.raw_moment(2) == pytest.approx(0.25 * 4 + 0.25 * 16)
        assert m.pos_part_moment(3) == pytest.approx(0.25 * 64)
        assert m.abs_moment(3) == pytest.approx(0.25 * 8 + 0.25 * 64)
        assert m.sf(0.0) == pytest.approx(0.75)  # P(X >= 0)
        assert m.cdf(0.0) == pytest.approx(0.75)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            Marginal.discrete([(0.0, 0.4), (1.0, 0.4)])
        with pytest.raises(ValueError):
            Marginal.bernoulli(1.5)


class TestParetoMoments:
    def test_finite_and_infinite_orders(self):
        m = Marginal.pareto(3.0, 2.0)
        assert m.mean() == pytest.approx(3.0 * 2.0 / 2.0)  # alpha s / (alpha-1)
        assert m.raw_moment(2) == pytest.approx(3.0 * 4.0 / 1.0)  # alpha s^2/(alpha-2)
        assert math.isinf(m.raw_moment(3))
        assert math.isinf(Marginal.pareto(1.0).mean())

    def test_tail(self):
        m = Marginal.pareto(1.0, 1.0)
        assert m.sf(0.5) == 1.0
        assert m.sf(4.0) == pytest.approx(0.25)
        assert m.ppf(0.75) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Marginal.pareto(0.0)
        with pytest.raises(ValueError):
            Marginal.pareto(1.0, -2.0)


def test_expect_matches_moments():
    for m in (Marginal.normal(0.3, 1.7), Marginal.uniform(-2.0, 1.0),
              Marginal.discrete([(-1.0, 0.5), (2.0, 0.5)])):
        got = m.expect(lambda x: x**2)
        assert got == pytest.approx(m.raw_moment(2), rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(-3, 3),
    var=st.floats(0.1, 4.0),
    k=st.integers(1, 5),
)
def test_normal_moment_split_identity(mean, var, k):
    """E|X|^k = E(X+)^k + E(X-)^k, and E X^k = E(X+)^k - (-1)^k ... checked
    through the reflected marginal."""
    m = Marginal.normal(mean, var)
    reflected = Marginal.normal(-mean, var)
    assert m.abs_moment(k) == pytest.approx(
        m.pos_part_moment(k) + reflected.pos_part_moment(k), rel=1e-10, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Product measures and families.


def test_product_measure_marginal_access():
    mu = ProductMeasure((Marginal.normal(0.0, 1.0), Marginal.bernoulli(0.5)),
                        stationary=False)
    assert mu.marginal(0).kind == "normal"
    assert mu.marginal(1).kind == "bernoulli"
    with pytest.raises(IndexError):
        mu.marginal(2)


def test_stationary_product_extends():
    mu = ProductMeasure((Marginal.uniform(0.0, 1.0),), stationary=True)
    assert mu.marginal(17).kind == "uniform"


def test_family_grid_and_envelope(sigma_family):
    grid = sigma_family.grid_parameters()
    assert len(grid) == 9
    assert grid[0] == 0.5 and grid[-1] == 2.0
    assert not sigma_family.is_singleton
    variances = [sigma_family.measure_at(s).marginal(0).variance() for s in grid]
    assert variances == sorted(variances)


def test_family_two_axes_row_major():
    def build(a, b):
        return ProductMeasure((Marginal.normal(a, b),), stationary=True)

    fam = MeasureFamily(parameter_domain=((0.0, 1.0), (1.0, 2.0)), builder=build,
                        grid_resolution=3, K=1.0, name="two-axis")
    grid = fam.grid_parameters()
    assert len(grid) == 9
    assert grid[0] == (0.0, 1.0)
    assert grid[1] == (0.0, 1.5)  # second axis varies fastest
    assert grid[-1] == (1.0, 2.0)


def test_degenerate_axis_collapses():
    fam = make_location_family(0.0, 0.0)
    assert fam.is_singleton
    assert fam.grid_parameters() == [0.0]


def test_family_validation():
    with pytest.raises(ValueError):
        MeasureFamily(parameter_domain=((0.0, 1.0),),
                      builder=lambda t: ProductMeasure((Marginal.normal(t, 1.0),),
                                                       stationary=True),
                      grid_resolution=1, K=1.0, name="bad")
    with pytest.raises(ValueError):
        MeasureFamily(parameter_domain=((0.0, 1.0),),
                      builder=lambda t: ProductMeasure((Marginal.normal(t, 1.0),),
                                                       stationary=True),
                      grid_resolution=9, K=0.5, name="bad")


# ---------------------------------------------------------------------------
# Keyed RNG: determinism is by (seed, context, column), not draw order.


def test_philox_stream_reproducible():
    a = philox_stream(2026, context=3, column=7).random(16)
    b = philox_stream(2026, context=3, column=7).random(16)
    np.testing.assert_array_equal(a, b)


def test_philox_stream_keys_distinguish():
    base = philox_stream(2026, context=3, column=7).random(8)
    for other in (philox_stream(2027, 3, 7), philox_stream(2026, 4, 7),
                  philox_stream(2026, 3, 8)):
        assert not np.array_equal(base, other.random(8))


def test_uniform_block_shape_and_determinism():
    u = uniform_block(2026, 3, 100, context=5)
    assert u.shape == (3, 100)
    assert np.all((u > 0.0) & (u < 1.0))
    np.testing.assert_array_equal(u, uniform_block(2026, 3, 100, context=5))


def test_philox_stream_rejects_out_of_range_keys():
    for key in ({"seed": -1}, {"seed": 1 << 64}, {"seed": 1, "context": -1},
                {"seed": 1, "context": 1 << 32}, {"seed": 1, "column": 1 << 32}):
        with pytest.raises(ValueError):
            philox_stream(**key)
    philox_stream((1 << 64) - 1, (1 << 32) - 1, (1 << 32) - 1)


def test_sample_pushes_through_marginals():
    mu = ProductMeasure((Marginal.uniform(2.0, 3.0), Marginal.bernoulli(1.0)),
                        stationary=False)
    u = uniform_block(2026, 2, 50, context=1)
    values = mu.ppf(u)
    assert values.shape == (2, 50)
    assert np.all((values[0] >= 2.0) & (values[0] <= 3.0))
    assert np.all(values[1] == 1.0)
    np.testing.assert_array_equal(values[0], mu.marginal(0).ppf(u[0]))
