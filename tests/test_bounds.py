"""Tail-bound calculators against frozen oracles and exact tail enumeration.

The pinned constants below were derived independently with mpmath before the
calculators were written; the tests recompute them here at 50 digits and also
assert the frozen decimal literals so a silent change in either side trips.
"""

import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplim import bounds
from caplim.bounds import (
    BoundInputs,
    DerivedConstants,
    chebyshev_bound,
    chernoff_explicit_bound,
    chernoff_optimal_bound,
    choquet_moment_bound,
    conjugate_split_bound,
    evaluate_formula,
    kolmogorov_exponential_bound,
    log_lower_inequality_margin,
    moricz_constant,
    moricz_maximal_bound,
    moricz_maximal_bound_text_form,
    power_tail_bound,
    split_moment_bound,
)

mpmath.mp.dps = 50

# Frozen before implementation; see the derivations in DerivedConstants.
FROZEN_MOMENT = {2: 14.7781121979, 3: 61.4775387964, 4: 291.19013351, 5: 1527.20939406}
FROZEN_MORICZ = {3: 544.49693871, 4: 780.279406807, 5: 1515.59440723}
FROZEN_SPLIT_PRE = {2: 35477.3324888, 3: 56002769.5837}
FROZEN_CHEBYSHEV_X2 = 0.9295704571147613  # (1 + e) / 4
FROZEN_POWER_R1 = 1.3591409142295225      # e / 2
FROZEN_KOLMOGOROV = 0.02585515441171046   # x=10, y=1, B=10, K=1


def _mp_moment_constant(p):
    p = mpmath.mpf(p)
    return mpmath.e**p * p ** (p / 2) * (p / 2) * mpmath.beta(p / 2, p / 2)


def _mp_split_pre(p):
    p = mpmath.mpf(p)
    envelope = (2 * p / mpmath.e) ** (2 * p)
    return mpmath.e**2 * 2 ** (2 * p - 2) * 4 ** (2 * p) * envelope


def _mp_moricz(p):
    return (2 ** (mpmath.mpf(p - 2) / (2 * p)) - 1) ** (-p)


class TestDerivedConstants:
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_moment_constant(self, p):
        got = DerivedConstants.for_order(p).moment
        assert got == pytest.approx(FROZEN_MOMENT[p], rel=1e-9)
        assert got == pytest.approx(float(_mp_moment_constant(p)), rel=1e-12)

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_moricz_constant(self, p):
        got = moricz_constant(p)
        assert got == pytest.approx(FROZEN_MORICZ[p], rel=1e-9)
        assert got == pytest.approx(float(_mp_moricz(p)), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_split_pre(self, p):
        got = DerivedConstants.for_order(p).split_pre
        assert got == pytest.approx(FROZEN_SPLIT_PRE[p], rel=1e-9)
        assert got == pytest.approx(float(_mp_split_pre(p)), rel=1e-12)

    def test_split_post_absorbs_remap(self):
        c = DerivedConstants.for_order(3)
        assert c.split_post == pytest.approx(c.split_pre * 3.0**3 * 17.0**6, rel=1e-12)
        assert c.split_post > c.split_pre

    def test_trace_mentions_every_constant(self):
        c = DerivedConstants.for_order(4)
        text = "\n".join(c.trace)
        for token in ("envelope", "split_pre", "split_post", "moment", "moricz"):
            assert token in text

    def test_non_dyadic_order_has_no_block_constant(self):
        assert DerivedConstants.for_order(2).moricz is None
        assert DerivedConstants.for_order(3.5).moricz is None
        with pytest.raises(ValueError):
            moricz_constant(2)


def test_moricz_defining_inequality_holds_as_evaluated():
    for p in (3, 4, 5, 7, 12):
        m = moricz_constant(p)
        assert 1.0 + m ** (-1.0 / p) <= 2.0 ** ((p - 2) / (2.0 * p))
        # minimality: the exact root of 1 + M^(-1/p) = 2^((p-2)/(2p)) lies at
        # most a few ulps below the shipped value
        gamma = mpmath.mpf(p - 2) / (2 * p)
        root = (2**gamma - 1) ** (-p)
        assert abs(m - float(root)) <= 8 * math.ulp(m)


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("k1,k2", [(0.7, 1.3), (2.0, 0.1), (0.05, 5.0)])
def test_moricz_induction_steps(p, k1, k2):
    """The dyadic recursion closes for I = 1..20: the two-term display sum

        F(I) + M*2^I*(k1*(I + M^(-1/p)) + k2*2^(gamma*I)*(1 + M^(-1/p)))^p

    stays below F(I+1) = M*2^(I+1)*(k1*(I+1) + k2*2^(gamma*(I+1)))^p, which is
    exactly where the defining inequality 1 + M^(-1/p) <= 2^gamma is spent."""
    m = mpmath.mpf(moricz_constant(p))
    gamma = mpmath.mpf(p - 2) / (2 * p)
    k1, k2 = mpmath.mpf(k1), mpmath.mpf(k2)

    def level(i):
        return m * 2**i * (k1 * i + k2 * 2 ** (gamma * i)) ** p

    bump = m ** (-mpmath.mpf(1) / p)
    for i in range(1, 21):
        second = m * 2**i * (k1 * (i + bump) + k2 * 2 ** (gamma * i) * (1 + bump)) ** p
        combined = level(i) + second
        assert combined <= level(i + 1), (p, i)


# ---------------------------------------------------------------------------
# Elementary inequality underlying the exponential bounds.


def test_log_lower_inequality_on_grid():
    t = np.geomspace(1e-8, 1e6, 4001)
    margins = log_lower_inequality_margin(t)
    assert np.all(margins >= -1e-15)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(1e-10, 1e8))
def test_log_lower_inequality_property(t):
    assert log_lower_inequality_margin(t) >= -1e-15


# ---------------------------------------------------------------------------
# Point oracles and regime behavior of each calculator.


def test_chebyshev_point_oracle():
    inputs = BoundInputs(n=1, variance_sum=1.0, K=1.0)
    assert float(chebyshev_bound(inputs, 2.0)) == pytest.approx(
        FROZEN_CHEBYSHEV_X2, rel=1e-15
    )
    assert FROZEN_CHEBYSHEV_X2 == pytest.approx((1 + math.e) / 4, rel=1e-15)


def test_power_point_oracle():
    inputs = BoundInputs(n=1, variance_sum=1.0, K=1.0, tail_power=1.0)
    assert float(power_tail_bound(inputs, 1.0)) == pytest.approx(
        FROZEN_POWER_R1, rel=1e-15
    )
    assert FROZEN_POWER_R1 == pytest.approx(math.e / 2, rel=1e-15)


def test_kolmogorov_point_oracle():
    inputs = BoundInputs(n=1, variance_sum=10.0, K=1.0, truncation=1.0)
    got = float(kolmogorov_exponential_bound(inputs, 10.0))
    assert got == pytest.approx(FROZEN_KOLMOGOROV, rel=1e-12)
    want = math.exp(-100.0 / 40.0 * (1.0 + (2.0 / 3.0) * math.log(2.0)))
    assert got == pytest.approx(want, rel=1e-15)


def test_chernoff_optimal_is_the_minimum_over_tilts():
    inputs = BoundInputs(n=4, variance_sum=3.0, K=1.5, truncation=0.8)
    x = 2.5
    best = float(chernoff_optimal_bound(inputs, x))
    t_star = math.log1p(x * inputs.truncation / inputs.variance_sum) / inputs.truncation
    at_star = float(chernoff_explicit_bound(inputs, x, t_star))
    assert best == pytest.approx(at_star, rel=1e-12)
    for t in np.linspace(0.01, 5.0, 80):
        assert best <= float(chernoff_explicit_bound(inputs, x, float(t))) * (1 + 1e-12)


def test_kolmogorov_dominates_chernoff_optimal():
    """The log-estimate inequality turns the optimal tilt into the explicit
    exponential form, so the explicit form can only be larger."""
    for y in (0.2, 1.0, 5.0):
        inputs = BoundInputs(n=10, variance_sum=4.0, K=1.0, truncation=y)
        x = np.geomspace(0.1, 50.0, 40)
        chern = chernoff_optimal_bound(inputs, x)
        kolm = kolmogorov_exponential_bound(inputs, x)
        assert np.all(chern <= kolm * (1 + 1e-12))


def test_split_bound_regimes():
    inputs = BoundInputs(n=100, variance_sum=100.0, K=1.0, order=3,
                         pos_moment_sum=160.0, split=0.5)
    x = np.geomspace(1.0, 300.0, 50)
    vals = split_moment_bound(inputs, x)
    assert np.all(np.diff(vals) < 0)  # strictly decreasing in the threshold
    # post form dominates the pre form at the same split
    post = split_moment_bound(inputs, x, form="post")
    assert np.all(post >= vals)
    # smaller split inflates the polynomial term
    tight = BoundInputs(n=100, variance_sum=100.0, K=1.0, order=3,
                        pos_moment_sum=160.0, split=0.1)
    assert float(split_moment_bound(tight, 300.0)) > float(
        split_moment_bound(inputs, 300.0)
    )


def test_choquet_moment_bound_forms():
    inputs = BoundInputs(n=3, variance_sum=3.0, K=1.0, order=3)
    per_term = [0.8, 0.8, 0.8]
    sum_form = choquet_moment_bound(inputs, per_term)
    c = DerivedConstants.for_order(3)
    want = 27.0 * 2.4 + c.moment * 3.0 ** 1.5
    assert sum_form == pytest.approx(want, rel=1e-12)
    both = choquet_moment_bound(inputs, per_term, max_term_pos_choquet=1.2)
    assert both[1] <= both[0]
    with pytest.raises(ValueError):
        choquet_moment_bound(inputs, per_term, max_term_pos_choquet=10.0)
    with pytest.raises(ValueError):
        choquet_moment_bound(inputs, [0.8, 0.8])  # wrong length


def test_moricz_bounds_scale_and_order():
    inputs_1 = BoundInputs(n=1, variance_sum=1.0, K=1.0, order=3)
    one = moricz_maximal_bound(inputs_1, 0.8, 1.0)
    k1 = 3 * 0.8 ** (1 / 3)
    k2 = DerivedConstants.for_order(3).moment ** (1 / 3)
    assert one == pytest.approx((k1 + k2) ** 3, rel=1e-12)
    inputs_8 = BoundInputs(n=8, variance_sum=8.0, K=1.0, order=3)
    dyadic = moricz_maximal_bound(inputs_8, 0.8, 1.0)
    text = moricz_maximal_bound_text_form(inputs_8, 0.8, 1.0)
    assert dyadic <= text  # the plain-n form gives away a factor


def test_conjugate_forms_reuse_closed_forms():
    inputs = BoundInputs(n=5, variance_sum=5.0, K=1.0, order=3,
                         pos_moment_sum=4.0, abs_moment_sum=8.0, split=0.5)
    x = np.array([3.0, 9.0])
    cols, _ = evaluate_formula("conjugate", inputs, x)
    np.testing.assert_allclose(cols["conjugate_chebyshev"], chebyshev_bound(inputs, x))
    # the conjugate split swaps in the absolute moments, which can only grow
    assert np.all(conjugate_split_bound(inputs, x) >=
                  split_moment_bound(inputs, x))


def test_each_calculator_reads_its_constants_off_the_order():
    """No calculator takes constants, so an order-3 input cannot meet order-4
    constants; constants passed where they used to go are a TypeError."""
    for name in bounds.__all__:
        function = getattr(bounds, name)
        if inspect.isfunction(function):
            assert "constants" not in inspect.signature(function).parameters, name
    inputs = BoundInputs(n=3, variance_sum=3.0, K=1.0, order=3,
                         pos_moment_sum=1.0, abs_moment_sum=2.0)
    wrong = DerivedConstants.for_order(4)
    calls = [lambda: split_moment_bound(inputs, 2.0, wrong),
             lambda: conjugate_split_bound(inputs, 2.0, wrong),
             lambda: choquet_moment_bound(inputs, [0.8] * 3, wrong),
             lambda: moricz_maximal_bound(inputs, 0.8, 1.0, wrong),
             lambda: moricz_maximal_bound_text_form(inputs, 0.8, 1.0, wrong)]
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("order", [2.0, 3.5])
@pytest.mark.parametrize("bound", [moricz_maximal_bound, moricz_maximal_bound_text_form])
def test_both_maximal_bounds_need_an_integer_order_above_two(bound, order):
    inputs = BoundInputs(n=8, variance_sum=8.0, K=1.0, order=order)
    with pytest.raises(ValueError, match=r"integer order > 2 \(the block recursion is proved "
                                         rf"only for integers\), got {order}"):
        bound(inputs, 0.8, 1.0)


# ---------------------------------------------------------------------------
# Dominance against an exact tail: single standard normal term.


def test_bounds_dominate_standard_normal_tail():
    from caplim import Marginal

    m = Marginal.normal(0.0, 1.0)
    xs = np.geomspace(0.3, 6.0, 20)
    tail = m.sf(xs)
    inputs = BoundInputs(n=1, variance_sum=1.0, K=1.0, order=4,
                         pos_moment_sum=m.pos_part_moment(4), split=0.5)
    assert np.all(tail <= chebyshev_bound(inputs, xs) + 1e-15)
    assert np.all(tail <= split_moment_bound(inputs, xs) + 1e-15)
    for y in (0.5, 1.0, 2.0):
        trunc = BoundInputs(n=1, variance_sum=1.0, K=1.0, truncation=y)
        # adding the max-term capacity P(X > y) keeps the inequality honest
        full = kolmogorov_exponential_bound(trunc, xs) + m.sf(y)
        assert np.all(tail <= full + 1e-15)
    for r in (1.0, 2.0, 4.0):
        pw = BoundInputs(n=1, variance_sum=1.0, K=1.0, tail_power=r)
        full = power_tail_bound(pw, xs) + m.sf(xs / r)
        assert np.all(tail <= full + 1e-15)


# ---------------------------------------------------------------------------
# The bound-check calls each calculator once over its whole threshold grid,
# and ``limits._max_term_capacity`` once over all its levels; each must give
# the bits of one call per threshold.

THRESHOLDS = np.geomspace(1e-3, 1e4, 401)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _grid_calls(variance_sum: float, K: float):
    """Each calculator the bound-check calls, as a function of the thresholds."""
    def inputs(**extra):
        return BoundInputs(n=50, variance_sum=variance_sum, K=K, **extra)

    calls = [lambda x: chebyshev_bound(inputs(), x)]
    for y in (0.05, 1.0, 30.0):
        calls.append(lambda x, y=y: kolmogorov_exponential_bound(inputs(truncation=y), x))
    for r in (0.5, 1.0, 2.0, 4.0, 8.0):
        calls.append(lambda x, r=r: power_tail_bound(inputs(tail_power=r), x))
    for p in (2, 3, 4):
        moments = inputs(order=p, pos_moment_sum=3.7, abs_moment_sum=9.1, split=0.5)
        calls.append(lambda x, m=moments: split_moment_bound(m, x))
        calls.append(lambda x, m=moments: conjugate_split_bound(m, x))
    return calls


@pytest.mark.parametrize("variance_sum", [0.7, 200.0, 1360.0])
@pytest.mark.parametrize("K", [1.0, 1.3])
def test_calculators_give_one_thresholds_bits_on_a_grid(variance_sum, K):
    for call in _grid_calls(variance_sum, K):
        one_at_a_time = [float(call(float(x))) for x in THRESHOLDS]
        assert _bits(call(THRESHOLDS)) == _bits(one_at_a_time)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_float_power_is_the_scalar_pow(p):
    # The positive-moment column divides by x**p; numpy's ** on an array is
    # not libm pow and moves some thresholds by an ulp, np.float_power is.
    assert _bits(np.float_power(THRESHOLDS, p)) == _bits([float(x) ** p for x in THRESHOLDS])


@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("mode", ["per_measure_independent", "gaussian_copula"])
def test_max_term_capacity_gives_one_levels_bits_on_a_grid(n, mode):
    from caplim import Marginal
    from caplim.dependence import DependenceSpec
    from caplim.limits import _max_term_capacity

    # Centered marginals of every kind the bound-check can center; a Pareto
    # marginal cannot be shifted, so it never gets here.
    marginals = [Marginal.normal(-0.3, 1.36), Marginal.normal(0.0, 1.0),
                 Marginal.uniform(-0.8, 0.2),
                 Marginal.discrete(((-1.0, 0.25), (-0.2, 0.5), (0.9, 0.25)))]
    spec = (DependenceSpec.independent() if mode == "per_measure_independent"
            else DependenceSpec(mode=mode, correlation=-0.4))
    levels = np.geomspace(1e-3, 10.0, 301)
    one_at_a_time = [float(_max_term_capacity(marginals, n, float(y), spec)) for y in levels]
    assert _bits(_max_term_capacity(marginals, n, levels, spec)) == _bits(one_at_a_time)


# ---------------------------------------------------------------------------
# Inputs validation and the formula dispatcher.


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(n=0, variance_sum=1.0)
    with pytest.raises(ValueError):
        BoundInputs(n=1, variance_sum=-1.0)
    with pytest.raises(ValueError):
        BoundInputs(n=1, variance_sum=1.0, K=0.5)
    with pytest.raises(ValueError, match="K must be finite and >= 1, got inf"):
        BoundInputs(n=1, variance_sum=1.0, K=math.inf)
    with pytest.raises(ValueError):
        BoundInputs(n=1, variance_sum=1.0, split=0.0)
    with pytest.raises(ValueError):
        BoundInputs(n=1, variance_sum=1.0, order=1.5)
    with pytest.raises(ValueError):
        kolmogorov_exponential_bound(BoundInputs(n=1, variance_sum=1.0), 1.0)


@pytest.mark.parametrize("field", ["variance_sum", "order", "pos_moment_sum",
                                   "abs_moment_sum", "truncation", "tail_power"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bound_inputs_reject_non_finite_numbers(field, bad):
    # A NaN or infinite input would give a table of nan or inf bounds.
    with pytest.raises(ValueError, match=f"^{field} must be "):
        BoundInputs(**{"n": 1, "variance_sum": 1.0, field: bad})


def test_evaluate_formula_columns():
    inputs = BoundInputs(n=2, variance_sum=2.0, K=1.0, order=3,
                         pos_moment_sum=1.6, abs_moment_sum=3.2,
                         truncation=1.0, split=0.5, tail_power=2.0)
    xs = (1.0, 2.0, 4.0)
    cols, trace = evaluate_formula("exp", inputs, xs)
    assert set(cols) == {"exp", "tilted_optimal"}
    cols, _ = evaluate_formula("exp", inputs, xs, tilt=0.7)
    assert set(cols) == {"exp", "tilted"}
    cols, trace = evaluate_formula("split", inputs, xs)
    assert set(cols) == {"split"} and trace
    cols, _ = evaluate_formula("choquet-moment", inputs, xs,
                               per_term_pos_choquet=(0.8, 0.8))
    assert set(cols) == {"choquet_moment_sum_form"}
    cols, _ = evaluate_formula("moricz", inputs, xs, max_pos_choquet=0.8,
                               max_second_moment=1.0)
    assert set(cols) == {"moricz_dyadic", "moricz_text_form"}
    cols, _ = evaluate_formula("conjugate", inputs, xs)
    assert set(cols) == {"conjugate_chebyshev", "conjugate_exp", "conjugate_split"}
    with pytest.raises(ValueError, match="^unknown formula 'nope'; expected one of exp, split, "
                       "power, chebyshev, choquet-moment, moricz, conjugate$"):
        evaluate_formula("nope", inputs, xs)
    with pytest.raises(ValueError):
        evaluate_formula("chebyshev", inputs, (0.0,))


def test_evaluate_formula_choquet_moment_max_form():
    # With the largest term's moment given, both columns are the pair that
    # choquet_moment_bound returns, at every threshold.
    inputs = BoundInputs(n=3, variance_sum=3.0, K=1.5, order=3)
    per_term = (0.8, 0.5, 0.9)
    xs = (0.5, 1.0, 2.0, 8.0)
    sum_form, max_form = choquet_moment_bound(inputs, per_term, max_term_pos_choquet=1.2)
    cols, trace = evaluate_formula("choquet-moment", inputs, xs,
                                   per_term_pos_choquet=per_term, max_term_pos_choquet=1.2)
    assert trace == DerivedConstants.for_order(3).trace
    assert list(cols) == ["choquet_moment_sum_form", "choquet_moment_max_form"]
    assert cols["choquet_moment_sum_form"].tolist() == [sum_form] * len(xs)
    assert cols["choquet_moment_max_form"].tolist() == [max_form] * len(xs)
    assert max_form < sum_form
    with pytest.raises(ValueError, match="^max-term Choquet moment exceeds the per-term sum; "
                       "inputs are inconsistent$"):
        evaluate_formula("choquet-moment", inputs, xs, per_term_pos_choquet=per_term,
                         max_term_pos_choquet=10.0)


@pytest.mark.parametrize("name, x, extra, message", [
    ("chebyshev", (1.0, math.nan), {}, "thresholds must be finite"),
    ("exp", (math.inf,), {}, "thresholds must be finite"),
    ("exp", (1.0,), {"tilt": math.nan}, "tilt must be finite"),
    ("choquet-moment", (1.0,), {"per_term_pos_choquet": (0.8, math.nan)},
     "per_term_pos_choquet must be finite"),
    ("choquet-moment", (1.0,), {"per_term_pos_choquet": (0.8, 0.8),
                                "max_term_pos_choquet": math.inf},
     "max_term_pos_choquet must be finite"),
    ("moricz", (1.0,), {"max_pos_choquet": math.inf, "max_second_moment": 1.0},
     "max_pos_choquet must be finite"),
    ("moricz", (1.0,), {"max_pos_choquet": 0.8, "max_second_moment": math.nan},
     "max_second_moment must be finite"),
])
def test_evaluate_formula_rejects_non_finite_values(name, x, extra, message):
    inputs = BoundInputs(n=2, variance_sum=2.0, order=3, truncation=1.0)
    with pytest.raises(ValueError, match=f"^{message}"):
        evaluate_formula(name, inputs, x, **extra)
