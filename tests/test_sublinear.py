"""Envelope expectations, the axiom suite, and Choquet integrals.

Closed-form targets are derived by hand (reciprocal-variance family,
Bernoulli envelopes) or by brute quadrature of the envelope survival
function, independently of the engine's own integration path.
"""

import dataclasses
import math
import tracemalloc
import weakref

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
    sublinear,
)
from caplim.dependence import DependenceSpec, verify_extended_independence
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
    np.testing.assert_allclose(f.scaled(-1.0)(x), [-1.0, -4.0, -0.25])
    np.testing.assert_allclose(f.plus(TestFunction.const(1.0))(x), [2.0, 5.0, 1.25])


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


# ---------------------------------------------------------------------------
# Array kernels act elementwise: quadrature calls fn on 15 to 60 nodes at once,
# and at each node fn must give the bits of fn on the one-point array [[x]],
# whatever the other nodes and wherever x sits among them.


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PARAM = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))

# Every exponent the package passes to abs_power or pos_power: 1 and 2 (the
# axiom suite), 1.0 (necessity) and the bound order p >= 2 as a float
# (bound-check), with 0.5, which ``ndarray ** p`` sends to np.sqrt.
SRC_EXPONENTS = (1, 1.0, 2, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5)


def _nodes(*edges: float):
    """Any finite float, favouring signed zeros and each edge with its neighbours."""
    near = [v for e in map(float, edges) if math.isfinite(e)
            for v in (e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf))]
    return st.one_of(st.sampled_from([0.0, -0.0, *near]), FINITE)


# Neighbours of the node under test span both signs and zero; with 41 of
# them, x lands at the start, inside and at the end of numpy's SIMD lanes.
_NEIGHBOURS = np.linspace(-2.5, 2.5, 41)
_POSITIONS = (0, 1, 7, 20, 41)


def _assert_point_matches(f: TestFunction, x: float) -> None:
    with np.errstate(all="ignore"):
        want = float(f.fn(np.array([[x]]))[0])
        for pos in _POSITIONS:
            nodes = np.insert(_NEIGHBOURS, pos, x)
            got = float(np.asarray(f.fn(nodes[None, :]))[pos])
            assert got.hex() == want.hex(), (f.name, x, pos)


BASES = (
    TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7),
    TestFunction.clamp_affine(-1.5, -0.0, 0.0, 2.0),
    TestFunction.clamp(1.0),
    TestFunction.abs_power(1),
    TestFunction.pos_power(2),
    TestFunction.power(3),
    TestFunction.const(-0.0),
    TestFunction.indicator_halfspace([1.0], 0.2),
    smooth_indicator(0.3, 0.4, "inner"),
)
BASE_EDGES = sorted({e for f in BASES for e in f.breakpoints})


@given(x=_nodes(), c=FINITE)
def test_const_point(x, c):
    _assert_point_matches(TestFunction.const(c), x)


@given(x=_nodes(1.0, -1.0), k=st.sampled_from([1, 2, 3, 4, -1, 0, 2.0, 3.0, 0.5, 1.5]))
def test_power_point(x, k):
    _assert_point_matches(TestFunction.power(k), x)


@given(x=_nodes(1.0, -1.0), k=st.one_of(st.sampled_from(SRC_EXPONENTS), st.floats(0.05, 8.0)))
def test_abs_power_point(x, k):
    _assert_point_matches(TestFunction.abs_power(k), x)


@given(x=_nodes(1.0, -1.0), k=st.one_of(st.sampled_from(SRC_EXPONENTS), st.floats(0.05, 8.0)))
def test_pos_power_point(x, k):
    _assert_point_matches(TestFunction.pos_power(k), x)


@given(data=st.data(), level=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
def test_clamp_point(data, level):
    _assert_point_matches(TestFunction.clamp(level), data.draw(_nodes(level, -level)))


@given(data=st.data(), a=PARAM, b=PARAM, lo=PARAM, width=st.floats(1e-3, 10.0))
def test_clamp_affine_point(data, a, b, lo, width):
    f = TestFunction.clamp_affine(a, b, lo, lo + width)
    _assert_point_matches(f, data.draw(_nodes(*f.breakpoints)))


@given(x=_nodes(*BASE_EDGES), part=st.sampled_from(BASES))
def test_coordinate_sum_point(x, part):
    _assert_point_matches(TestFunction.coordinate_sum([part]), x)


@given(x=_nodes(*BASE_EDGES), part=st.sampled_from(BASES))
def test_prod_point(x, part):
    _assert_point_matches(TestFunction.prod([part]), x)


@given(data=st.data(), w=PARAM, t=PARAM)
def test_indicator_halfspace_point(data, w, t):
    with np.errstate(over="ignore"):  # the edge t / w of a subnormal weight
        f = TestFunction.indicator_halfspace([w], t)
    _assert_point_matches(f, data.draw(_nodes(*f.breakpoints)))


@given(x=_nodes(*BASE_EDGES), a=st.sampled_from(BASES), b=st.sampled_from(BASES))
def test_indicator_union_point(x, a, b):
    # np.maximum's tie rule shows on signed zeros, so the parts need not be indicators
    _assert_point_matches(TestFunction.indicator_union(a, b), x)


@given(x=_nodes(*BASE_EDGES), a=st.sampled_from(BASES))
def test_indicator_complement_point(x, a):
    _assert_point_matches(TestFunction.indicator_complement(a), x)


@given(x=_nodes(*BASE_EDGES), a=st.sampled_from(BASES), b=st.sampled_from(BASES))
def test_plus_point(x, a, b):
    _assert_point_matches(a.plus(b), x)


@given(x=_nodes(*BASE_EDGES), a=st.sampled_from(BASES), lam=PARAM)
def test_scaled_point(x, a, lam):
    _assert_point_matches(a.scaled(lam), x)
    _assert_point_matches(a.scaled(-1.0), x)


@given(x=_nodes(*BASE_EDGES), a=st.sampled_from(BASES), c=PARAM)
def test_shifted_point(x, a, c):
    _assert_point_matches(a.plus(TestFunction.const(c, a.arity)), x)


@given(data=st.data(), threshold=st.floats(-5.0, 5.0), width=st.floats(1e-3, 5.0),
       side=st.sampled_from(["inner", "outer"]))
def test_smooth_indicator_point(data, threshold, width, side):
    f = smooth_indicator(threshold, width, side)
    start, stop = f.breakpoints
    # the ramp at 0 and 1, just inside them, at its midpoint and anywhere on
    # it, where numpy's exp and libm's disagree on about 1 in 20 arguments
    inside = st.floats(start, stop)
    _assert_point_matches(f, data.draw(st.one_of(_nodes(start, stop, start + 0.5 * width),
                                                 inside, inside)))


def test_expect_without_a_scalar_kernel_takes_the_array_path():
    """A constructor's test function, one built by hand and a plain callable
    all integrate through their array kernel, with the same bits."""
    m = Marginal.normal(0.3, 1.7)
    f = TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7)
    by_hand = TestFunction(f.fn, 1, name="by hand")
    shapes = []

    def plain(x):
        shapes.append(np.shape(x))
        return f.fn(np.reshape(x, (1, -1)))

    want = m.expect(f, breakpoints=f.breakpoints)
    assert m.expect(by_hand, breakpoints=f.breakpoints).hex() == want.hex()
    assert m.expect(plain, breakpoints=f.breakpoints).hex() == want.hex()
    # one call per rule application: the 15 nodes of an infinite piece's or
    # the 21 of a finite piece's first pass, or both halves of a bisection
    assert {(15,), (21,)} <= set(shapes) <= {(15,), (30,), (21,), (42,)}


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
# Quadrature envelopes, pinned bit for bit.

# float.hex of (value, parameter) of the envelopes on a normal family whose
# location 1 - (t - 0.37)**2 peaks between grid points: every envelope is a
# pick over the grid, the upper ones at the grid point nearest the peak and
# the lower ones at the boundary point.
GRID_ENVELOPES = {
    ("clamp_affine", "upper_exp"): ("0x1.6a1df77eb1e18p-2", "0x1.0000000000000p-2"),
    ("clamp_affine", "lower_exp"): ("0x1.81b77c1bc7e2cp-7", "-0x1.0000000000000p-1"),
    ("smooth_indicator", "upper_exp"): ("0x1.462b9575c6dbbp-1", "0x1.0000000000000p-2"),
    ("smooth_indicator", "lower_exp"): ("0x1.7dba9509aa340p-2", "-0x1.0000000000000p-1"),
}


def _peaked_location_family() -> MeasureFamily:
    def build(t: float) -> ProductMeasure:
        return ProductMeasure((Marginal.normal(1.0 - (t - 0.37) ** 2, 1.2),))

    return MeasureFamily(parameter_domain=((-0.5, 1.0),), builder=build,
                         grid_resolution=5, name="peaked-location")


@pytest.mark.parametrize("name", ["clamp_affine", "smooth_indicator"])
def test_grid_quadrature_envelopes_are_pinned(name):
    f = {
        "clamp_affine": TestFunction.coordinate_sum(
            [TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7)]),
        "smooth_indicator": smooth_indicator(0.9, 0.6, "outer"),
    }[name]
    family = _peaked_location_family()
    engine = SublinearEngine(family)
    for side in ("upper_exp", "lower_exp"):
        report = getattr(engine, side)(f)
        assert report.method == "quadrature"
        assert report.parameter in family.grid_parameters()
        got = (report.value.hex(), float(report.parameter).hex())
        assert got == GRID_ENVELOPES[name, side]


# The upper Choquet integral dominates the upper expectation on one engine,
# up to the axiom suite's exact tolerance, even where the family's location
# peaks between grid points.
@pytest.mark.parametrize("k", [1, 2])
def test_upper_choquet_dominates_the_upper_expectation_off_grid_peak(k):
    engine = SublinearEngine(_peaked_location_family())
    f = TestFunction.pos_power(k)
    upper = engine.upper_exp(f).value
    choquet = engine.choquet(f, "upper")
    assert choquet.method == "survival"
    assert choquet.value >= upper - 1e-9 * (1.0 + abs(upper))


def test_exact_envelopes_are_labelled_by_the_path_they_took():
    def family(*marginals):
        return MeasureFamily(
            parameter_domain=((0.2, 0.6),), grid_resolution=3,
            builder=lambda t: ProductMeasure(tuple(m(t) for m in marginals), stationary=False))

    def normal(t):
        return Marginal.normal(t, 1.0)

    def coin(t):
        return Marginal.bernoulli(t)

    clamp = TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7)
    square = TestFunction.power(2)
    cases = [
        (family(coin), clamp, "enumeration"),
        (family(normal), clamp, "quadrature"),
        (family(normal, normal), TestFunction.prod([clamp, clamp]), "quadrature"),
        (family(coin, coin), TestFunction.prod([clamp, clamp]), "enumeration"),
        (family(normal, normal), TestFunction.prod([square, square]), "closed_form"),
        (family(normal, coin), TestFunction.prod([clamp, clamp]), "exact"),
        (family(normal, normal), TestFunction.prod([square, clamp]), "exact"),
    ]
    for fam, f, method in cases:
        engine = SublinearEngine(fam)
        assert engine.upper_exp(f).method == method
        assert engine.lower_exp(f).method == method


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
    fresh = SublinearEngine(fam).lower_exp(f)
    calls = _count_expect_calls(monkeypatch)
    engine = SublinearEngine(fam)
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


# A Monte Carlo sample needs two draws for a standard error.
def test_too_few_replications_are_rejected(sigma_family):
    for m in (0, 1):
        with pytest.raises(ValueError, match=f"^mc_replications must be at least 2, got {m}$"):
            SublinearEngine(sigma_family, mc_replications=m)
    report = SublinearEngine(sigma_family, mc_replications=2).upper_exp(_no_exact_path())
    assert report.method == "mc" and math.isfinite(report.value) and math.isfinite(report.se)


def test_no_samples_are_kept_without_a_fixed_context(sigma_family):
    engine = SublinearEngine(sigma_family, mc_replications=2000, seed=7)
    first = engine.upper_exp(_no_exact_path())
    second = engine.upper_exp(_no_exact_path())
    assert engine._mc_fixed == {}
    assert first.value != second.value  # each call draws its own context


def test_the_monte_carlo_context_counter_is_not_a_constructor_argument(sigma_family):
    # Every engine's calls draw contexts 1, 2, ...; only fixed_context moves them.
    with pytest.raises(TypeError, match="_mc_context"):
        SublinearEngine(sigma_family, mc_replications=2000, seed=7, _mc_context=41)
    assert SublinearEngine(sigma_family)._mc_context == 0


def _discrete_pair_family(n_atoms: int, resolution: int) -> MeasureFamily:
    """Mixtures of two laws on ``n_atoms`` points, whose pairs have
    ``n_atoms**2`` joint atoms."""
    vals = np.linspace(-2.0, 2.0, n_atoms)
    flat = np.full(n_atoms, 1.0 / n_atoms)
    ramp = np.arange(1.0, n_atoms + 1.0) / (n_atoms * (n_atoms + 1) / 2.0)

    def build(theta: float) -> ProductMeasure:
        probs = (1.0 - theta) * flat + theta * ramp
        return ProductMeasure((Marginal.discrete(tuple(zip(vals, probs))),))

    return MeasureFamily(parameter_domain=((0.0, 1.0),), builder=build,
                         grid_resolution=resolution, K=1.0, name=f"discrete-{n_atoms}")


def _pair_functions() -> list[TestFunction]:
    clamp = TestFunction.coordinate_sum([TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7),
                                         TestFunction.clamp_affine(-1.3, 0.4, -0.5, 1.5)])
    return [clamp, clamp.scaled(2.5), *(TestFunction.indicator_halfspace([1.0, w], 0.3)
                                        for w in (-1.0, 0.5, 2.0))]


def _report_bits(report) -> tuple:
    return (report.value.hex(), report.method,
            tuple((theta, v.hex()) for theta, v, _ in report.per_parameter))


def _meshgrid_support(measure: ProductMeasure, arity: int):
    """Reference enumeration through full meshes of values and probabilities."""
    grids = [measure.marginal(i)._sorted_atoms() for i in range(arity)]
    val_mesh = np.meshgrid(*[g[0] for g in grids], indexing="ij")
    prob_mesh = np.meshgrid(*[g[1] for g in grids], indexing="ij")
    weights = prob_mesh[0].reshape(-1).copy()
    for p in prob_mesh[1:]:
        weights *= p.reshape(-1)
    return np.stack([v.reshape(-1) for v in val_mesh]), weights


@settings(max_examples=200, deadline=None)
@given(atoms=st.lists(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 1.0)),
                               min_size=1, max_size=5), min_size=1, max_size=3),
       arity=st.integers(1, 4), bernoulli=st.floats(0.0, 1.0))
def test_enumerate_support_matches_the_meshgrid_reference(atoms, arity, bernoulli):
    margs = [Marginal.bernoulli(bernoulli)]
    for pairs in atoms:
        total = math.fsum(p for _, p in pairs)
        margs.append(Marginal.discrete([(v, p / total) for v, p in pairs]))
    measure = ProductMeasure(tuple(margs))
    vals, weights = sublinear._enumerate_support(measure, arity)
    want_vals, want_weights = _meshgrid_support(measure, arity)
    assert vals.shape == want_vals.shape and vals.tobytes() == want_vals.tobytes()
    assert weights.shape == want_weights.shape and weights.tobytes() == want_weights.tobytes()


def test_each_grid_support_is_enumerated_once(monkeypatch):
    fam = _discrete_pair_family(n_atoms=4, resolution=5)
    fs = _pair_functions()
    # A fresh engine per function enumerates every support for that function.
    fresh = [(_report_bits(SublinearEngine(fam).upper_exp(f)),
              _report_bits(SublinearEngine(fam).lower_exp(f))) for f in fs]
    fresh_choquet = SublinearEngine(fam).choquet(fs[0])
    calls = []
    original = sublinear._enumerate_support

    def counting(measure, arity):
        calls.append((measure, arity))
        return original(measure, arity)

    monkeypatch.setattr(sublinear, "_enumerate_support", counting)
    engine = SublinearEngine(fam)
    got = [(_report_bits(engine.upper_exp(f)), _report_bits(engine.lower_exp(f))) for f in fs]
    choquet = engine.choquet(fs[0])
    assert len(calls) == len(fam.grid_parameters()) == 5
    assert got == fresh
    assert choquet.method == "enumeration"
    assert choquet.value.hex() == fresh_choquet.value.hex()


def test_a_test_function_cannot_write_into_a_kept_support():
    fam = _discrete_pair_family(n_atoms=4, resolution=5)
    engine = SublinearEngine(fam)
    clamp, *rest = _pair_functions()
    engine.upper_exp(clamp)

    def scribble(x):
        x[0] += 1.0
        return x[0]

    writer = TestFunction(scribble, 2, name="scribble")
    with pytest.raises(ValueError, match="read-only"):
        engine.upper_exp(writer)
    with pytest.raises(ValueError, match="read-only"):
        engine.choquet(writer)
    for f in rest:
        fresh = SublinearEngine(fam)
        assert _report_bits(engine.upper_exp(f)) == _report_bits(fresh.upper_exp(f))


def test_supports_past_the_cap_give_the_same_reports_in_bounded_memory():
    n_atoms, resolution = 64, 9
    support_bytes = 3 * 8 * n_atoms**2  # two coordinate rows and the weights
    cap = 2 * n_atoms**2 + 100  # room for two of the nine supports
    fam = _discrete_pair_family(n_atoms, resolution)
    fs = _pair_functions()
    kept_all = SublinearEngine(fam)
    capped = SublinearEngine(fam, enumeration_cap=cap)
    capped._measures()
    tracemalloc.start()
    try:
        got = [(_report_bits(capped.upper_exp(f)), _report_bits(capped.lower_exp(f)))
               for f in fs]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = [(_report_bits(kept_all.upper_exp(f)), _report_bits(kept_all.lower_exp(f)))
            for f in fs]
    assert got == want
    assert all(bits[1] == "enumeration" for pair in got for bits in pair)
    assert capped.choquet(fs[0]).value.hex() == kept_all.choquet(fs[0]).value.hex()
    # At most cap kept atoms of 24 bytes, the support enumerated per call and
    # two supports' worth of the test functions' temporaries (4.1 supports in
    # all with numpy 2.4); keeping all nine supports would take nine.
    assert peak < 24 * cap + 3 * support_bytes, f"peak {peak / support_bytes:.2f} supports"
    assert len(capped._supports) == 2 and len(kept_all._supports) == resolution
    assert sum(w.size for _, w in capped._supports.values()) <= cap


def test_a_negative_enumeration_cap_is_rejected():
    # A cap of 0 never enumerates; below that a cap would only send every
    # discrete envelope to Monte Carlo without saying so.
    fam = make_bernoulli_family(0.2, 0.8, resolution=3)
    with pytest.raises(ValueError, match="enumeration_cap must be at least 0, got -5"):
        SublinearEngine(fam, enumeration_cap=-5)
    report = SublinearEngine(fam, enumeration_cap=0).choquet(TestFunction.pos_power(1.0))
    assert report.method == "mc"


# ---------------------------------------------------------------------------
# Per-measure bits on grids whose measures hand a kernel the same inputs: a
# discrete family that moves only its probabilities keeps its atoms, and
# QUADPACK bisects the same intervals under nearby laws.


def _per_parameter_hex(report) -> tuple:
    return tuple(v.hex() for _, v, _ in report.per_parameter)


def _normal_uniform_family(resolution: int = 5) -> MeasureFamily:
    def build(t: float) -> ProductMeasure:
        return ProductMeasure((Marginal.normal(t, 1.2), Marginal.uniform(t - 1.0, t + 1.5)),
                              stationary=False)

    return MeasureFamily(parameter_domain=((-0.5, 0.5),), builder=build,
                         grid_resolution=resolution, name="normal-uniform")


def _uniform_location_family(resolution: int = 5) -> MeasureFamily:
    return MeasureFamily(
        parameter_domain=((-0.5, 0.5),), grid_resolution=resolution, name="uniform-location",
        builder=lambda t: ProductMeasure((Marginal.uniform(t - 1.0, t + 1.5),)))


def _coin_pair_family(resolution: int = 5) -> MeasureFamily:
    return MeasureFamily(
        parameter_domain=((0.2, 0.8),), grid_resolution=resolution, name="coin-pair",
        builder=lambda p: ProductMeasure((Marginal.bernoulli(p), Marginal.bernoulli(1.0 - p)),
                                         stationary=False))


def _shared_input_cases() -> dict:
    """name -> (family, test function) for the pinned per-measure bits."""
    clamp = TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7)
    outer = smooth_indicator(0.3, 0.6, "outer")
    quadrature = {
        "coordinate_sum": TestFunction.coordinate_sum([clamp]),
        "plus": clamp.plus(outer),
        "scaled": clamp.scaled(-1.0),
        "inner": smooth_indicator(0.3, 0.6, "inner"),
        "outer": outer,
    }
    normal = make_location_family(-0.5, 0.5, var=1.2, resolution=5)
    uniform = _uniform_location_family()
    pair = _discrete_pair_family(n_atoms=4, resolution=5)
    return {
        "coin": (make_bernoulli_family(0.2, 0.8), clamp),
        **{f"pair[{i}]": (pair, f) for i, f in enumerate(_pair_functions())},
        **{f"normal-{name}": (normal, f) for name, f in quadrature.items()},
        **{f"uniform-{name}": (uniform, f) for name, f in quadrature.items()},
        "prod-normal-uniform": (_normal_uniform_family(), TestFunction.prod([clamp, outer])),
        "prod-coins": (_coin_pair_family(), TestFunction.prod([clamp, clamp.scaled(-1.0)])),
    }


def _discrete_choquet_cases() -> dict:
    pair = _discrete_pair_family(n_atoms=4, resolution=5)
    clamp, *_, indicator = _pair_functions()
    return {
        "coin": (make_bernoulli_family(0.2, 0.8), TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7)),
        "pair-clamp": (pair, clamp),
        "pair-indicator": (pair, indicator),
    }


def _independence_rows_hex() -> tuple:
    """(method, joint, product of envelopes) of each case of an extended
    independence check on a normal x uniform family, exact per measure."""
    report = verify_extended_independence(
        DependenceSpec.independent(), _normal_uniform_family(),
        psi_case=(smooth_indicator(0.3, 0.6, "outer"), TestFunction.clamp_affine(1.0, 0.0, 0.0, 1.0)),
        corpus_cases=3)
    return tuple((row["method"], row["joint"].hex(), row["product_of_envelopes"].hex())
                 for row in report.cases)


# float.hex of each grid measure's E[f], which the upper and the lower
# envelope both report in ``per_parameter``.
SHARED_INPUT_BITS = {
    "coin": (
        "0x1.eb851eb851eb4p-5", "0x1.70a3d70a3d70ap-3", "0x1.3333333333333p-2",
        "0x1.ae147ae147ae3p-2", "0x1.147ae147ae147p-1",
    ),
    "normal-coordinate_sum": (
        "-0x1.84730475bef5ap-2", "-0x1.ffa92ba1689c7p-3", "-0x1.ddaa191698ed0p-4",
        "0x1.f718797e5c39ap-7", "0x1.214a8b71f33bbp-3",
    ),
    "normal-inner": (
        "0x1.44dd665ac96b7p-3", "0x1.c22dca8b548a8p-3", "0x1.2bb8edd826856p-2",
        "0x1.8029a5d2ba260p-2", "0x1.dae8a160c51e2p-2",
    ),
    "normal-outer": (
        "0x1.4c7db3ab9f386p-2", "0x1.a3effa5ce0ee5p-2", "0x1.0000000000000p-1",
        "0x1.2e0802d18f88fp-1", "0x1.59c1262a3063dp-1",
    ),
    "normal-plus": (
        "-0x1.bfaa8650f86e4p-5", "0x1.4836c9185a23ep-3", "0x1.889579ba5a03bp-2",
        "0x1.35e464b78906cp-1", "0x1.a213c906ad342p-1",
    ),
    "normal-scaled": (
        "0x1.84730475be462p-2", "0x1.ffa92ba167b8dp-3", "0x1.ddaa191697f18p-4",
        "-0x1.f718797e5f790p-7", "-0x1.214a8b71f3416p-3",
    ),
    "pair[0]": (
        "0x1.4cccccccccccep-2", "0x1.38bf258bf258dp-2", "0x1.24b17e4b17e4dp-2",
        "0x1.10a3d70a3d70dp-2", "0x1.f92c5f92c5f94p-3",
    ),
    "pair[1]": (
        "0x1.a000000000002p-1", "0x1.86eeeeeeeeef0p-1", "0x1.6dddddddddde0p-1",
        "0x1.54cccccccccd0p-1", "0x1.3bbbbbbbbbbbep-1",
    ),
    "pair[2]": (
        "0x1.8000000000000p-2", "0x1.7e66666666666p-2", "0x1.799999999999ap-2",
        "0x1.719999999999ap-2", "0x1.6666666666667p-2",
    ),
    "pair[3]": (
        "0x1.0000000000000p-1", "0x1.2000000000000p-1", "0x1.4000000000001p-1",
        "0x1.6000000000001p-1", "0x1.8000000000000p-1",
    ),
    "pair[4]": (
        "0x1.0000000000000p-1", "0x1.2000000000000p-1", "0x1.4000000000000p-1",
        "0x1.6000000000000p-1", "0x1.8000000000000p-1",
    ),
    "prod-coins": (
        "-0x1.096bb98c7e27fp-5", "-0x1.35a858793dd96p-4", "-0x1.70a3d70a3d70ap-4",
        "-0x1.35a858793dd96p-4", "-0x1.096bb98c7e27dp-5",
    ),
    "prod-normal-uniform": (
        "-0x1.36c269f7cb6b5p-3", "-0x1.ffa92ba167b8fp-4", "-0x1.1e994240c190fp-4",
        "0x1.602abb720fa19p-7", "0x1.ceddabe985358p-4",
    ),
    "uniform-coordinate_sum": (
        "-0x1.1c28f5c28f5c3p-2", "-0x1.b851eb851eb82p-4", "0x1.eb851eb851eadp-5",
        "0x1.ae147ae147ae2p-3", "0x1.5c28f5c28f5c0p-2",
    ),
    "uniform-inner": (
        "0x1.47ae147ae147cp-3", "0x1.0a3d70a3d70a5p-2", "0x1.70a3d70a3d70cp-2",
        "0x1.d70a3d70a3d72p-2", "0x1.1eb851eb851ecp-1",
    ),
    "uniform-outer": (
        "0x1.999999999999ap-2", "0x1.0000000000001p-1", "0x1.3333333333334p-1",
        "0x1.6666666666667p-1", "0x1.999999999999bp-1",
    ),
    "uniform-plus": (
        "0x1.f5c28f5c28f5dp-4", "0x1.91eb851eb8520p-2", "0x1.51eb851eb851ep-1",
        "0x1.d1eb851eb851fp-1", "0x1.23d70a3d70a3ep+0",
    ),
    "uniform-scaled": (
        "0x1.1c28f5c28f5c3p-2", "0x1.b851eb851eb87p-4", "-0x1.eb851eb851eb8p-5",
        "-0x1.ae147ae147ae1p-3", "-0x1.5c28f5c28f5c2p-2",
    ),
}

# float.hex of the upper and lower Choquet integrals on the enumeration path.
DISCRETE_CHOQUETS = {
    "coin": ("0x1.147ae147ae148p-1", "0x1.eb851eb851eb8p-5"),
    "pair-clamp": ("0x1.8c1e098ead660p-2", "0x1.7ac33e1f67158p-3"),
    "pair-indicator": ("0x1.8000000000002p-1", "0x1.0000000000000p-1"),
}

INDEPENDENCE_ROWS = (
    ("exact", "0x1.9ee7c765d3ab1p-2", "0x1.9ee7c765d3ab1p-2"),
    ("exact", "0x1.f1b3ccb333b39p-3", "0x1.fd5903ae9d746p-2"),
    ("exact", "0x1.a31fb3868e38ep+0", "0x1.ce7fefa5f065cp+0"),
    ("exact", "0x1.456c38a31a532p-1", "0x1.456c38a31a532p-1"),
)


@pytest.mark.parametrize("name", sorted(SHARED_INPUT_BITS))
def test_per_measure_bits_are_pinned(name):
    family, f = _shared_input_cases()[name]
    engine = SublinearEngine(family)
    for side in (engine.upper_exp, engine.lower_exp):
        assert _per_parameter_hex(side(f)) == SHARED_INPUT_BITS[name]


@pytest.mark.parametrize("name", sorted(DISCRETE_CHOQUETS))
def test_discrete_choquets_are_pinned(name):
    family, f = _discrete_choquet_cases()[name]
    engine = SublinearEngine(family)
    reports = [engine.choquet(f, capacity) for capacity in ("upper", "lower")]
    assert all(r.method == "enumeration" for r in reports)
    assert tuple(r.value.hex() for r in reports) == DISCRETE_CHOQUETS[name]


def test_exact_independence_sides_are_pinned():
    assert _independence_rows_hex() == INDEPENDENCE_ROWS


def _counting(f: TestFunction) -> tuple[TestFunction, list]:
    """f with a kernel that keeps a copy of each input it is called on."""
    inputs = []

    def fn(x):
        inputs.append(np.array(x))
        return f.fn(x)

    return dataclasses.replace(f, fn=fn), inputs


def _distinct(inputs: list) -> set:
    return {(x.shape, x.tobytes()) for x in inputs}


@pytest.mark.parametrize("name", ["coin", "pair[0]"])
def test_one_envelope_on_shared_atoms_calls_the_kernel_once(name):
    family, f = _shared_input_cases()[name]
    counted, inputs = _counting(f)
    engine = SublinearEngine(family)
    report = engine.upper_exp(counted)
    assert len(family.grid_parameters()) == 5 and report.method == "enumeration"
    assert len(inputs) == 1
    assert _per_parameter_hex(report) == SHARED_INPUT_BITS[name]
    engine.choquet(counted)
    assert len(inputs) == 2  # each Choquet integral is its own pass


def test_quadrature_calls_the_kernel_once_per_distinct_node_array(monkeypatch):
    family, f = _shared_input_cases()["normal-plus"]
    plain, applications = _counting(f)
    for _, mu in family.measures():
        mu.marginal(0).expect(plain, breakpoints=f.breakpoints)
    counted, inputs = _counting(f)
    expect_calls = _count_expect_calls(monkeypatch)
    report = SublinearEngine(family).upper_exp(counted)
    assert _per_parameter_hex(report) == SHARED_INPUT_BITS["normal-plus"]
    assert len(expect_calls) == len(family.grid_parameters())
    assert _distinct(inputs) == _distinct(applications)
    assert len(inputs) == len(_distinct(inputs)) < len(applications)


def test_a_kernel_result_is_read_only():
    memo = sublinear._KernelMemo(TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7))
    nodes = np.linspace(-2.0, 2.0, 21)
    out = memo(nodes)
    assert memo(nodes.copy()) is out
    with pytest.raises(ValueError, match="read-only"):
        out[0] = 1.0
    vals = np.linspace(-2.0, 2.0, 6).reshape(1, 6)
    vals.flags.writeable = False
    on_support = memo.on_support(vals)
    assert memo.on_support(vals) is on_support
    with pytest.raises(ValueError, match="read-only"):
        on_support[0] = 1.0


def test_no_memo_outlives_its_envelope(monkeypatch):
    made = []

    class Recorded(sublinear._KernelMemo):
        def __init__(self, f):
            super().__init__(f)
            made.append(weakref.ref(self))

    monkeypatch.setattr(sublinear, "_KernelMemo", Recorded)
    for name in ("normal-plus", "pair[0]", "prod-normal-uniform"):
        family, f = _shared_input_cases()[name]
        engine = SublinearEngine(family)
        engine.upper_exp(f)
        assert made and all(ref() is None for ref in made)
        # the engine keeps each measure's (value, path) and, on a discrete
        # family, its supports; no node array or kernel value
        assert list(engine._exact) == [f]
        assert all(type(v) is float and type(path) is str for v, path in engine._exact[f])
        kept = {id(a) for pair in engine._supports.values() for a in pair}
        assert {id(v) for v in engine._values.values()} <= kept
        made.clear()


def test_two_engines_give_the_same_bits_in_any_order():
    cases = _shared_input_cases()
    by_family: dict = {}
    for family, f in cases.values():
        by_family.setdefault(id(family), (family, []))[1].append(f)
    for family, fs in by_family.values():
        forward, backward = SublinearEngine(family), SublinearEngine(family)
        want = [_report_bits(forward.upper_exp(f)) for f in fs]
        got = [_report_bits(backward.upper_exp(f)) for f in reversed(fs)]
        assert got[::-1] == want


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


# float.hex of (value, tail exponent) of each closed-form survival path of
# the Choquet integral, over a five-point normal location family.
SURVIVAL_CHOQUETS = {
    ("power", "upper"): ("0x1.000020fe31f9bp-1", "0x1.0d1020af7ff1ep+5"),
    ("power", "lower"): ("-0x1.000020fe31f9bp-1", "0x1.51207d9b26677p+3"),
    ("pos_power", "upper"): ("0x1.dda6ca617b9f0p-1", "0x1.c0412ca3e1375p+3"),
    ("pos_power", "lower"): ("0x1.0e6975f9ed176p-2", "0x1.0787ae9548b84p+4"),
    ("abs_power", "upper"): ("0x1.8ccd8e9077e0ap+0", "0x1.15f9d89af598ap+4"),
    ("abs_power", "lower"): ("0x1.4ccd6b596abf0p+0", "0x1.296faec32d384p+4"),
}


@pytest.mark.parametrize("capacity", ["upper", "lower"])
@pytest.mark.parametrize("name", ["power", "pos_power", "abs_power"])
def test_survival_choquets_are_pinned(name, capacity):
    f = {"power": TestFunction.power(1), "pos_power": TestFunction.pos_power(1.5),
         "abs_power": TestFunction.abs_power(2.0)}[name]
    rep = SublinearEngine(make_location_family(-0.5, 0.5, var=1.3, resolution=5)).choquet(
        f, capacity)
    assert rep.method == "survival"
    got = (rep.value.hex(), None if rep.tail_exponent is None else rep.tail_exponent.hex())
    assert got == SURVIVAL_CHOQUETS[name, capacity]


# float.hex of the value and parameter of grid envelopes over two-axis
# families, with both axes on a grid and with either one degenerate; the
# location peaks off the grid, so each pick is the grid point nearest it.
TWO_AXIS_ENVELOPES = {
    "both": ("0x1.645ed41212507p-2", ("0x1.0000000000000p-1", "0x1.0000000000000p-1")),
    "a_fixed": ("0x1.6918fc8383532p-2", ("0x1.3333333333333p-2", "0x1.0000000000000p-1")),
    "b_fixed": ("0x1.65f33df3445e8p-2", ("0x1.0000000000000p-1", "0x1.6666666666666p-1")),
}


def _two_axis_family(a_domain, b_domain) -> MeasureFamily:
    def build(a: float, b: float) -> ProductMeasure:
        return ProductMeasure((Marginal.normal(1.0 - (a - 0.37) ** 2 - (b - 0.61) ** 2, 1.2),))

    return MeasureFamily(parameter_domain=(a_domain, b_domain), builder=build,
                         grid_resolution=4, name="two-axis-location")


@pytest.mark.parametrize("name", ["both", "a_fixed", "b_fixed"])
def test_grid_two_axis_envelopes_are_pinned(name):
    domains = {"both": ((-0.5, 1.0), (0.0, 1.5)), "a_fixed": ((0.3, 0.3), (0.0, 1.5)),
               "b_fixed": ((-0.5, 1.0), (0.7, 0.7))}[name]
    family = _two_axis_family(*domains)
    f = TestFunction.clamp_affine(0.8, -0.1, -1.0, 0.7)
    report = SublinearEngine(family).upper_exp(f)
    assert report.method == "quadrature"
    assert report.parameter in family.grid_parameters()
    got = (report.value.hex(), tuple(float(t).hex() for t in report.parameter))
    assert got == TWO_AXIS_ENVELOPES[name]


# x**2.5 is NaN at every negative draw, so neither Monte Carlo path may
# report an estimate from such a sample.
@pytest.mark.parametrize("path", ["upper_exp", "choquet"])
def test_nan_values_on_a_monte_carlo_sample_are_an_error(path, sigma_family):
    power = TestFunction.power(2.5)
    f = TestFunction.coordinate_sum([power, power]) if path == "upper_exp" else power
    engine = SublinearEngine(sigma_family, mc_replications=500)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"x\^2.5 .*is NaN"):
        getattr(engine, path)(f)


def test_fractional_powers_are_estimated_on_a_nonnegative_family():
    fam = MeasureFamily(parameter_domain=((3.0, 4.0),), grid_resolution=3,
                        builder=lambda a: ProductMeasure((Marginal.pareto(a),)))
    engine = SublinearEngine(fam, mc_replications=2000)
    f = TestFunction.power(2.5)
    assert engine.choquet(f).method == "mc"
    report = engine.upper_exp(TestFunction.coordinate_sum([f]))
    assert report.method == "mc" and math.isfinite(report.value)
