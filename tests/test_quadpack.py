"""The QUADPACK port against scipy.integrate.quad, bit for bit.

scipy is the reference here and only here: the package never imports
``scipy.integrate``. Each case integrates one vectorized integrand with the
port and its one-node wrapper with scipy, and compares the value and error
estimate by ``float.hex`` and the evaluation and subinterval counts exactly.
The singular integrand drives QUADPACK's epsilon-algorithm extrapolation.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from caplim import Marginal
from caplim.quadpack import IntegrationWarning, quad
from caplim.sublinear import TestFunction

TOLERANCES = st.sampled_from([(1.49e-8, 1.49e-8), (1e-10, 1e-9)])
LIMITS = st.sampled_from([50, 200])
BOUND = st.floats(-5.0, 5.0)


def _normal(mean: float, sd: float):
    """The normal density as quadrature integrates it: libm pow squares."""
    norm = sd * math.sqrt(2.0 * math.pi)
    return lambda x: np.exp(-0.5 * np.float_power((x - mean) / sd, 2.0)) / norm


def _assert_same(vf, a, b, epsabs, epsrel, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = integrate.quad(lambda x: float(vf(np.array([x]))[0]), a, b, full_output=1,
                             epsabs=epsabs, epsrel=epsrel, limit=limit)
        got = quad(vf, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    assert (got.value.hex(), got.abserr.hex()) == (ref[0].hex(), ref[1].hex())
    assert (got.neval, got.last) == (ref[2]["neval"], ref[2]["last"])
    # scipy adds a message to its result exactly when ier > 0
    assert (len(ref) == 4) == (got.ier > 0)
    return got


def _smooth(mean, sd, which):
    density = _normal(mean, sd)
    return {
        "density": density,
        "square": lambda x: x**2 * density(x),
        "cos": lambda x: np.cos(x) * density(x),
    }[which]


def _kinked(mean, sd, slope, shift, lo, width):
    density = _normal(mean, sd)
    f = TestFunction.clamp_affine(slope, shift, lo, lo + width)
    return lambda x: f(x) * density(x)


SMOOTH = st.builds(_smooth, st.floats(-2.0, 2.0), st.floats(0.2, 3.0),
                   st.sampled_from(["density", "square", "cos"]))
KINKED = st.builds(_kinked, st.floats(-2.0, 2.0), st.floats(0.2, 3.0),
                   st.floats(-3.0, 3.0).filter(lambda v: v != 0.0), st.floats(-1.0, 1.0),
                   st.floats(-1.0, 1.0), st.floats(0.01, 2.0))
INTEGRANDS = st.one_of(SMOOTH, KINKED)


@settings(max_examples=60, deadline=None)
@given(vf=INTEGRANDS, a=BOUND, width=st.floats(1e-3, 10.0), tol=TOLERANCES, limit=LIMITS)
def test_finite_interval_matches_scipy(vf, a, width, tol, limit):
    _assert_same(vf, a, a + width, *tol, limit)


@settings(max_examples=60, deadline=None)
@given(vf=INTEGRANDS, bound=BOUND, side=st.sampled_from(["upper", "lower"]),
       tol=TOLERANCES, limit=LIMITS)
def test_half_line_matches_scipy(vf, bound, side, tol, limit):
    a, b = (bound, math.inf) if side == "upper" else (-math.inf, bound)
    _assert_same(vf, a, b, *tol, limit)


@settings(max_examples=40, deadline=None)
@given(vf=INTEGRANDS, tol=TOLERANCES, limit=LIMITS)
def test_whole_line_matches_scipy(vf, tol, limit):
    _assert_same(vf, -math.inf, math.inf, *tol, limit)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-1.0, 1.0), left=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
       right=st.floats(0.5, 3.0), tol=TOLERANCES, limit=LIMITS)
def test_singular_integrand_matches_scipy(c, left, right, tol, limit):
    """|x - c|**-0.5 on (c - left, c + right): at an end, where the
    extrapolation converges, or inside, where a node can land on c."""
    got = _assert_same(lambda x: np.abs(x - c) ** -0.5, c - left, c + right, *tol, limit)
    if left == 0.0:
        assert got.ier == 0
        assert got.value == pytest.approx(2.0 * math.sqrt(right), rel=1e-7)


@settings(max_examples=30, deadline=None)
@given(mean=st.floats(-3.0, 3.0), var=st.floats(0.1, 4.0),
       k=st.floats(0.1, 6.0).filter(lambda v: not v.is_integer()))
@example(mean=-1.160333178178072, var=0.1, k=0.5)
def test_pos_part_moment_matches_scipy(mean, var, k):
    """The non-integer normal moment integrates ``x**k * pdf(x)``: libm
    ``pow`` at one float, so ``np.float_power`` on the nodes. At one float,
    ``pdf`` squares a numpy scalar with ``**``, which is libm ``pow`` too, so
    the port multiplies by the quadrature density, which squares the same
    way; with ``pdf``'s numpy ``square`` the example was three ulps off."""
    m = Marginal.normal(mean, var)
    want, _ = integrate.quad(lambda x: x**k * m.pdf(x), 0.0, math.inf, limit=200)
    assert m.pos_part_moment(k).hex() == float(want).hex()


def test_limit_hit_matches_scipy_and_warns():
    oscillating = lambda x: np.sin(1.0 / x)  # noqa: E731
    got = _assert_same(oscillating, 0.0, 1.0, 1.49e-8, 1.49e-8, 50)
    assert (got.ier, got.last) == (1, 50)
    with pytest.warns(IntegrationWarning, match=r"ier=1 on \(0\.0, 1\.0\)"):
        quad(oscillating, 0.0, 1.0)


def test_nan_that_overflows_the_extrapolation_table_raises():
    # scipy.integrate.quad segfaults here: DQELG writes past its table
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        with pytest.raises(FloatingPointError, match="extrapolation table"):
            quad(lambda x: np.log(x - 0.3), 0.0, math.inf, limit=200)


def test_converged_integral_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = quad(_normal(0.0, 1.0), -math.inf, math.inf)
    assert got.ier == 0 and got.value == pytest.approx(1.0, rel=1e-12)


def test_reversed_interval_negates():
    f = _normal(0.3, 1.2)
    assert quad(f, 2.0, -1.0).value == -quad(f, -1.0, 2.0).value


@pytest.mark.parametrize("kwargs", [{"limit": 0}, {"epsabs": 0.0, "epsrel": 1e-20}])
def test_invalid_input_raises(kwargs):
    with pytest.raises(ValueError):
        quad(np.cos, 0.0, 1.0, **kwargs)
