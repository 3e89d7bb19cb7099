"""Envelope expectations, the axiom suite, and Choquet integrals.

Closed-form targets are derived by hand (reciprocal-variance family,
Bernoulli envelopes) or by brute quadrature of the envelope survival
function, independently of the engine's own integration path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplim import (
    Marginal,
    MeasureFamily,
    ProductMeasure,
    SublinearEngine,
    TestFunction,
)
from caplim.sublinear import marginal_expectation, run_axiom_suite, smooth_indicator

from conftest import (
    make_bernoulli_family,
    make_location_family,
    make_sigma_family,
    make_singleton,
)


# ---------------------------------------------------------------------------
# Test-function algebra.


def test_function_algebra_shapes():
    f = TestFunction.power(2)
    g = TestFunction.const(3.0)
    x = np.array([[1.0, -2.0, 0.5]])
    np.testing.assert_allclose(f(x), [1.0, 4.0, 0.25])
    np.testing.assert_allclose(f.plus(g)(x), [4.0, 7.0, 3.25])
    np.testing.assert_allclose(f.scaled(2.0)(x), [2.0, 8.0, 0.5])
    np.testing.assert_allclose(f.negated()(x), [-1.0, -4.0, -0.25])
    np.testing.assert_allclose(f.shifted(1.0)(x), [2.0, 5.0, 1.25])


def test_clamp_and_indicators():
    c = TestFunction.clamp(2.0)
    x = np.array([[-3.0, 1.0, 5.0]])
    np.testing.assert_allclose(c(x), [-2.0, 1.0, 2.0])
    ind = TestFunction.indicator_halfspace([1.0, 1.0], 1.0)
    xy = np.array([[0.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(ind(xy), [0.0, 1.0])


def test_prod_keeps_factors():
    sq = TestFunction.power(2)
    f = TestFunction.prod([sq, sq])
    assert f.arity == 2
    assert f.factors is not None and len(f.factors) == 2
    x = np.array([[2.0], [3.0]])
    np.testing.assert_allclose(f(x), [36.0])


def test_smooth_indicator_brackets_step():
    outer = smooth_indicator(1.0, 0.1, side="outer")
    inner = smooth_indicator(1.0, 0.1, side="inner")
    x = np.array([[0.5, 0.96, 1.0, 1.04, 1.5]])
    o, i = outer(x), inner(x)
    step = (x[0] >= 1.0).astype(float)
    assert np.all(i <= step + 1e-12) and np.all(step <= o + 1e-12)
    assert np.all((o >= 0) & (o <= 1)) and np.all((i >= 0) & (i <= 1))


def test_marginal_expectation_closed_forms():
    m = Marginal.normal(0.0, 1.0)
    assert marginal_expectation(m, TestFunction.power(2)) == pytest.approx(1.0)
    assert marginal_expectation(m, TestFunction.abs_power(1.0)) == pytest.approx(
        math.sqrt(2 / math.pi)
    )


# ---------------------------------------------------------------------------
# The reciprocal-variance pair: the canonical nonlinear-envelope example.


class TestReciprocalVariancePair:
    def test_product_moment_exact(self, sigma_family):
        engine = SublinearEngine(sigma_family)
        f = TestFunction.prod([TestFunction.power(2), TestFunction.power(2)])
        report = engine.upper_exp(f)
        assert report.method == "closed_form"
        assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_single_coordinate_moments_exact(self, sigma_family):
        engine = SublinearEngine(sigma_family)
        first = engine.sup_marginal_moment(2.0, kind="raw", coordinate=0)
        second = engine.sup_marginal_moment(2.0, kind="raw", coordinate=1)
        assert first[0] == pytest.approx(4.0, abs=1e-12)
        assert first[1] == pytest.approx(2.0)  # attained at sigma = 2
        assert second[0] == pytest.approx(4.0, abs=1e-12)
        assert second[1] == pytest.approx(0.5)  # attained at sigma = 1/2
        assert first[0] * second[0] == pytest.approx(16.0, abs=1e-11)

    def test_mc_paths_close_to_exact(self, sigma_family):
        engine = SublinearEngine(sigma_family, mc_replications=100_000, seed=2026)
        # strip the closed forms so the engine must sample
        f2 = TestFunction(lambda x: x[0] ** 2 * x[1] ** 2, 2, name="x1sq*x2sq")
        joint = engine.upper_exp(f2)
        assert joint.method == "mc"
        assert joint.value == pytest.approx(1.0, rel=0.02)
        g = TestFunction(lambda x: x[0] ** 2, 1, name="x1sq")
        h = TestFunction(lambda x: x[1] ** 2, 2, name="x2sq")
        prod = engine.upper_exp(g).value * engine.upper_exp(h).value
        assert prod == pytest.approx(16.0, rel=0.04)


# ---------------------------------------------------------------------------
# Refined quadrature envelopes, pinned bit for bit.

# float.hex of (value, parameter) of the refined envelopes on a normal family
# whose location 1 - (t - 0.37)**2 peaks between grid points: the upper
# envelopes move off the grid through the golden-section refinement, the
# lower ones stay on the boundary point.
REFINED_ENVELOPES = {
    ("clamp_affine", "upper_exp"): ("0x1.6fbb7ff19f3cfp-2", "0x1.7ae1465b6e7a6p-2"),
    ("clamp_affine", "lower_exp"): ("0x1.81b77c1bc7e2cp-7", "-0x1.0000000000000p-1"),
    ("smooth_indicator", "upper_exp"): ("0x1.48ade492d4afep-1", "0x1.7ae1468fdc8b8p-2"),
    ("smooth_indicator", "lower_exp"): ("0x1.7dba9509aa340p-2", "-0x1.0000000000000p-1"),
}


def _peaked_location_family() -> MeasureFamily:
    def build(t: float) -> ProductMeasure:
        return ProductMeasure((Marginal.normal(1.0 - (t - 0.37) ** 2, 1.2),))

    return MeasureFamily(parameter_domain=((-0.5, 1.0),), builder=build,
                         grid_resolution=5, name="peaked-location")


@pytest.mark.parametrize("name", ["clamp_affine", "smooth_indicator"])
def test_refined_quadrature_envelopes_are_pinned(name):
    f = {
        "clamp_affine": TestFunction.coordinate_sum(
            [TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7)]),
        "smooth_indicator": smooth_indicator(0.9, 0.6, "outer"),
    }[name]
    engine = SublinearEngine(_peaked_location_family())
    for side in ("upper_exp", "lower_exp"):
        report = getattr(engine, side)(f)
        assert report.method == "quadrature"
        assert report.refined == (side == "upper_exp")
        got = (report.value.hex(), float(report.parameter).hex())
        assert got == REFINED_ENVELOPES[name, side]


# ---------------------------------------------------------------------------
# Per-engine caches.


def _count_expect_calls(monkeypatch) -> list:
    calls = []
    original = Marginal.expect

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Marginal, "expect", counting)
    return calls


def test_lower_envelope_reuses_the_upper_envelopes_quadratures(monkeypatch):
    fam = make_location_family(-0.5, 0.5, var=1.2, resolution=5)
    f = TestFunction.coordinate_sum([TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7)])
    fresh = SublinearEngine(fam, refinement=False).lower_exp(f)
    calls = _count_expect_calls(monkeypatch)
    engine = SublinearEngine(fam, refinement=False)
    engine.upper_exp(f)
    assert len(calls) == 5
    again = engine.lower_exp(f)
    assert len(calls) == 5
    assert again.value.hex() == fresh.value.hex()
    assert again.per_parameter == fresh.per_parameter


def _no_exact_path() -> TestFunction:
    return TestFunction(lambda x: np.abs(x[0] - x[1]), 2, name="|x1-x2|")


def test_fixed_context_samples_are_drawn_once_and_read_only(sigma_family):
    f = _no_exact_path()
    engine = SublinearEngine(sigma_family, mc_replications=2000, seed=7, fixed_context=0)
    upper = engine.upper_exp(f)
    samples = engine._mc_samples(2)
    assert samples is engine._mc_samples(2)
    assert len(samples) == len(sigma_family.grid_parameters())
    with pytest.raises(ValueError):
        samples[0][0, 0] = 1.0
    lower = engine.lower_exp(f)
    for report, side in ((upper, "upper_exp"), (lower, "lower_exp")):
        fresh = getattr(SublinearEngine(sigma_family, mc_replications=2000, seed=7,
                                        fixed_context=0), side)(f)
        assert report.method == "mc"
        assert report.per_parameter == fresh.per_parameter


def test_no_samples_are_kept_without_a_fixed_context(sigma_family):
    engine = SublinearEngine(sigma_family, mc_replications=2000, seed=7)
    first = engine.upper_exp(_no_exact_path())
    second = engine.upper_exp(_no_exact_path())
    assert engine._mc_fixed == {}
    assert first.value != second.value  # each call draws its own context


# ---------------------------------------------------------------------------
# Axiom suite.


def test_axiom_suite_small_corpus_passes():
    suite = run_axiom_suite(n_cases=24, seed=2026, mc_every=6,
                            mc_replications=20_000)
    assert suite["passed"], suite["by_axiom"]
    assert suite["n_cases"] >= 24
    assert suite["n_failures"] == 0
    expected = {"monotonicity", "constant_preserving", "sub_additivity",
                "positive_homogeneity", "conjugacy", "capacity_range",
                "capacity_order", "capacity_subadditive",
                "capacity_mixed_subadditive", "complement_duality",
                "sandwich_inner", "sandwich_outer", "choquet_moment"}
    assert expected.issubset(suite["by_axiom"].keys())


# ---------------------------------------------------------------------------
# Envelope axioms on exact paths, property-based.


def _tiny_discrete_family(values, probs_lo, probs_hi):
    def build(t):
        p = probs_lo + t * (probs_hi - probs_lo)
        return ProductMeasure(
            (Marginal.discrete([(values[0], p), (values[1], 1.0 - p)]),),
            stationary=True,
        )

    return MeasureFamily(parameter_domain=((0.0, 1.0),), builder=build,
                         grid_resolution=5, K=1.0, name="tiny-discrete")


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    lam=st.floats(0.0, 3.0),
)
def test_envelope_axioms_exact(a, b, lam):
    fam = _tiny_discrete_family((-1.0, 2.0), 0.2, 0.7)
    engine = SublinearEngine(fam)
    f = TestFunction.clamp_affine(1.0, a, -4.0, 4.0)
    g = TestFunction.clamp_affine(-0.5, b, -4.0, 4.0)
    up = engine.upper_exp(f).value
    # constants pass through
    assert engine.upper_exp(f.plus(TestFunction.const(b))).value == pytest.approx(
        up + b, abs=1e-10
    )
    # positive homogeneity
    assert engine.upper_exp(f.scaled(lam)).value == pytest.approx(
        lam * up, abs=1e-10
    )
    # subadditivity
    both = engine.upper_exp(f.plus(g)).value
    assert both <= up + engine.upper_exp(g).value + 1e-10
    # conjugacy ordering
    assert engine.lower_exp(f).value <= up + 1e-12


def test_monotone_envelope():
    fam = _tiny_discrete_family((-1.0, 2.0), 0.2, 0.7)
    engine = SublinearEngine(fam)
    f = TestFunction.clamp(1.0)
    g = TestFunction.clamp(2.0)  # pointwise >= clamp(1)
    assert engine.upper_exp(f).value <= engine.upper_exp(g).value + 1e-12


def test_capacity_conjugacy():
    fam = make_bernoulli_family(0.3, 0.7)
    engine = SublinearEngine(fam)
    event = TestFunction.indicator_halfspace([1.0], 0.5)  # {X >= 0.5} = {X = 1}
    upper, lower = engine.upper_exp(event), engine.lower_exp(event)
    assert upper.value == pytest.approx(0.7, abs=1e-12)
    assert lower.value == pytest.approx(0.3, abs=1e-12)
    complement = TestFunction.indicator_complement(event)
    assert lower.value == pytest.approx(
        1.0 - engine.upper_exp(complement).value, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Choquet integrals.


def test_choquet_discrete_enumeration_exact():
    fam = make_bernoulli_family(0.3, 0.7)
    engine = SublinearEngine(fam)
    up = engine.choquet(TestFunction.pos_power(1.0), capacity="upper")
    low = engine.choquet(TestFunction.pos_power(1.0), capacity="lower")
    assert up.method == "enumeration"
    assert up.value == pytest.approx(0.7, abs=1e-14)
    assert low.value == pytest.approx(0.3, abs=1e-14)


def test_choquet_matches_survival_quadrature():
    fam = make_location_family(-1.0, 1.0)
    engine = SublinearEngine(fam, seed=2026)
    for p in (2.0, 3.0):
        rep = engine.choquet(TestFunction.pos_power(p), capacity="upper")
        assert rep.method == "survival"
        assert not rep.divergent
        # brute quadrature of max over a dense grid of measures
        mus = np.linspace(-1.0, 1.0, 9)
        ss = np.concatenate([np.linspace(1e-9, 60.0, 200001),
                             np.geomspace(60.0, 1e5, 20001)])
        w = np.max(
            np.stack([Marginal.normal(mu, 1.0).sf(ss ** (1.0 / p)) for mu in mus]),
            axis=0,
        )
        oracle = float(np.trapezoid(w, ss))
        assert rep.value == pytest.approx(oracle, rel=5e-4)


def test_choquet_standard_normal_positive_part():
    fam = make_singleton([Marginal.normal(0.0, 1.0)])
    rep = SublinearEngine(fam).choquet(TestFunction.pos_power(3.0), "upper")
    assert rep.value == pytest.approx(math.sqrt(2 / math.pi), rel=1e-4)


def test_choquet_flags_heavy_tail_divergence():
    fam = make_singleton([Marginal.pareto(1.0, 1.0)], name="pareto-one")
    rep = SublinearEngine(fam).choquet(TestFunction.abs_power(1.0), "upper")
    assert rep.divergent
    assert math.isinf(rep.value)
    assert rep.tail_exponent == pytest.approx(1.0, abs=0.05)


def test_choquet_integrable_power_tail_converges():
    fam = make_singleton([Marginal.pareto(3.0, 1.0)], name="pareto-three")
    rep = SublinearEngine(fam).choquet(TestFunction.abs_power(1.0), "upper")
    assert not rep.divergent
    assert rep.value == pytest.approx(1.5, rel=1e-3)  # alpha s/(alpha-1)


def test_choquet_dominates_upper_expectation():
    """For nonnegative functions the upper Choquet integral majorizes every
    member expectation, hence the envelope expectation."""
    fam = make_location_family(-0.5, 0.5)
    engine = SublinearEngine(fam, seed=2026)
    f = TestFunction.pos_power(2.0)
    choq = engine.choquet(f, "upper").value
    env = engine.upper_exp(f).value
    assert env <= choq + 1e-9


def test_capacity_bracket_orders():
    fam = make_location_family(-0.5, 0.5)
    engine = SublinearEngine(fam, mc_replications=20_000, seed=2026)
    event = TestFunction.indicator_halfspace([1.0], 1.0)
    inner = smooth_indicator(1.0, 0.2, side="inner")
    outer = smooth_indicator(1.0, 0.2, side="outer")
    got = {"inner": engine.upper_exp(inner), "capacity": engine.upper_exp(event),
           "outer": engine.upper_exp(outer)}
    tol = 3.0 * max(r.se or 0.0 for r in got.values()) + 1e-9
    assert got["inner"].value <= got["capacity"].value + tol
    assert got["capacity"].value <= got["outer"].value + tol
