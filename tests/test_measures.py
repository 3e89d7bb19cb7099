"""Marginal moments against closed forms, family grids, and the keyed RNG."""

import math
import functools
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplim import Marginal, MeasureFamily, ProductMeasure
from caplim import limits, measures
from caplim.measures import _philox4x64, philox_stream, philox_uniforms, uniform_block
from caplim.sublinear import SublinearEngine, smooth_indicator

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

    def test_discrete_variance_is_the_atom_sum(self):
        atoms = ((-1.3, 0.1), (0.2, 0.2), (2.7, 0.3), (5.0, 0.4))
        with mpmath.workdps(40):
            mean = mpmath.fsum(mpmath.mpf(v) * p for v, p in atoms)
            expected = float(mpmath.fsum(p * (mpmath.mpf(v) - mean) ** 2 for v, p in atoms))
        assert Marginal.discrete(atoms).variance() == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("k", [1, 2.5, 3])
@pytest.mark.parametrize("lo, hi", [(0.0, 2.0), (0.5, 3.0), (-3.0, -0.5), (-2.0, 0.0)])
def test_one_signed_uniform_abs_moment_is_its_integral(lo, hi, k):
    """Support inside [0, inf) or inside (-inf, 0]: no sign change to split at."""
    with mpmath.workdps(40):
        expected = float(mpmath.quad(lambda x: abs(x) ** k, [lo, hi]) / (hi - lo))
    assert Marginal.uniform(lo, hi).abs_moment(k) == pytest.approx(expected, rel=1e-13)


# p = 0 and 1 put no mass on an atom; at u = 1 - p the cdf reaches u at 0 already.
@pytest.mark.parametrize("p", [0.0, 1e-300, 0.25, 0.3, 0.5, 0.7, 1.0 - 2.0**-53, 1.0])
def test_bernoulli_is_the_two_atom_discrete_law(p):
    bern, disc = Marginal.bernoulli(p), Marginal.discrete(((0.0, 1.0 - p), (1.0, p)))
    tie = 1.0 - p
    u = np.array([0.0, np.nextafter(tie, 0.0), tie, np.nextafter(tie, 1.0), 0.5,
                  1.0 - 2.0**-53])
    u = u[u < 1.0]
    assert bern.ppf(u).tobytes() == disc.ppf(u).tobytes()
    # The generalized inverse: the first atom of positive mass whose cdf reaches u.
    at_zero = disc.cdf(0.0)
    np.testing.assert_array_equal(bern.ppf(u),
                                  np.where((u <= at_zero) & (at_zero > 0.0), 0.0, 1.0))
    t = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    assert bern.cdf(t).tobytes() == disc.cdf(t).tobytes()
    assert bern.sf(t).tobytes() == disc.sf(t).tobytes()
    assert (bern.mean(), bern.variance()) == (disc.mean(), disc.variance())
    for k in (1, 2, 3, 2.5):
        assert bern.raw_moment(k) == disc.raw_moment(k)
        assert bern.abs_moment(k) == disc.abs_moment(k)
        assert bern.pos_part_moment(k) == disc.pos_part_moment(k)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("p", [0.3, NAN])
def test_no_marginal_is_built_of_the_bernoulli_kind(p):
    """The Bernoulli factory builds the discrete law; no method has a
    branch for a kind of its own, so the constructor refuses one."""
    with pytest.raises(ValueError, match="^unknown marginal kind 'bernoulli'$"):
        Marginal("bernoulli", (p,))


@pytest.mark.parametrize("build, message", [
    (lambda: Marginal.normal(NAN, 1.0), "normal mean must be finite, got nan"),
    (lambda: Marginal.normal(0.0, INF), "normal var must be finite, got inf"),
    (lambda: Marginal.uniform(-INF, 0.0), "uniform lo must be finite, got -inf"),
    (lambda: Marginal.uniform(0.0, NAN), "uniform hi must be finite, got nan"),
    (lambda: Marginal.bernoulli(NAN), "bernoulli p must be finite, got nan"),
    (lambda: Marginal.discrete([(0.0, NAN), (1.0, 1.0)]), "discrete atoms must be finite, got nan"),
    (lambda: Marginal.discrete([(INF, 0.5), (1.0, 0.5)]), "discrete atoms must be finite, got inf"),
    (lambda: Marginal.pareto(INF), "pareto alpha must be finite, got inf"),
    (lambda: Marginal.pareto(2.0, NAN), "pareto scale must be finite, got nan"),
])
def test_non_finite_parameters_are_rejected_by_key(build, message):
    # NaN passes every range check, so each of these used to construct.
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


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


# float.hex of quadrature expectations: a plain callable split at a
# breakpoint, and a test function.
PINNED_EXPECT = {
    "normal": ("-0x1.79c52adffe135p-4", "0x1.d132ad389da20p-2"),
    "uniform": ("-0x1.c3a57349a02a0p-8", "0x1.7777777777753p-3"),
}


@pytest.mark.parametrize("m", [Marginal.normal(0.3, 1.7), Marginal.uniform(-2.0, 1.0)],
                         ids=lambda m: m.kind)
def test_expect_quadrature_is_pinned(m):
    plain = m.expect(lambda x: np.cos(x) * x, breakpoints=(0.5,))
    ramp = m.expect(smooth_indicator(0.2, 0.5, "inner"))
    assert (plain.hex(), ramp.hex()) == PINNED_EXPECT[m.kind]


@pytest.mark.parametrize("m", [Marginal.normal(0.3, 1.7), Marginal.normal(-1.0, 0.25),
                               Marginal.uniform(-2.0, 1.0)], ids=repr)
def test_pdf_has_the_bits_of_one_float_at_a_time(m):
    """Quadrature multiplies ``pdf`` into its integrands. On an array, the
    normal's ``pdf`` squares with libm ``pow`` as Python's ``** 2`` does on
    one float, not with ``np.square``, which is an ulp off on some nodes."""
    x = np.linspace(-8.0, 8.0, 4001)
    if m.kind == "uniform":
        lo, hi = m.params
        one_by_one = [1.0 / (hi - lo) if lo <= v <= hi else 0.0 for v in x.tolist()]
    else:
        mean, var = m.params
        sd = math.sqrt(var)
        norm = sd * math.sqrt(2.0 * math.pi)
        one_by_one = [float(np.exp(-0.5 * ((v - mean) / sd) ** 2) / norm) for v in x.tolist()]
    assert [v.hex() for v in m.pdf(x)] == [v.hex() for v in one_by_one]


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
    assert mu.marginal(1).kind == "discrete"
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
    with pytest.raises(ValueError, match="K must be finite and >= 1, got inf"):
        MeasureFamily(parameter_domain=((0.0, 1.0),),
                      builder=lambda t: ProductMeasure((Marginal.normal(t, 1.0),),
                                                       stationary=True),
                      grid_resolution=9, K=math.inf, name="bad")


@pytest.mark.parametrize("domain", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, math.inf)])
def test_family_rejects_a_non_finite_axis_end(domain):
    with pytest.raises(ValueError, match=r"domain axis \[.*\] must be finite"):
        MeasureFamily(parameter_domain=((0.0, 1.0), domain),
                      builder=lambda a, b: ProductMeasure((Marginal.normal(a, 1.0),)),
                      name="bad")


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


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_every_seed_is_checked_with_one_message(seed):
    """A stream, an experiment and an engine reject a seed that does not fit
    the Philox key the same way."""
    family = make_location_family(0.0, 0.0)
    for build in (lambda: philox_stream(seed),
                  lambda: limits.ExperimentConfig(mode="slln", family=family, seed=seed),
                  lambda: SublinearEngine(family, seed=seed)):
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == f"seed must lie in [0, 2**64), got {seed}"


# Random123's known-answer vectors for Philox4x64-10: (counter, key, output).
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
    (((1 << 64) - 1,) * 4, ((1 << 64) - 1,) * 2,
     (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
    ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
     (0x452821E638D01377, 0xBE5466CF34E90C6C),
     (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
]


@pytest.mark.parametrize("counter,key,expected", PHILOX_KAT)
def test_philox_round_function_matches_known_answers(counter, key, expected):
    assert [int(w[0]) for w in _philox4x64(counter, key)] == list(expected)


def test_numpy_philox_gives_the_known_answer_at_counter_zero():
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    # numpy increments the counter before each block, so all ones wraps to 0.
    state["state"]["counter"] = np.full(4, (1 << 64) - 1, dtype=np.uint64)
    state["buffer_pos"] = 4
    bitgen.state = state
    assert [int(w) for w in bitgen.random_raw(4)] == list(PHILOX_KAT[0][2])


def _stream_reference(seed, context, columns, start, stop):
    """One row per stream: draws ``start..stop-1`` of each column's generator."""
    out = np.empty((len(columns), stop - start))
    for j, column in enumerate(columns):
        out[j] = philox_stream(seed, context, column).random(stop)[start:]
    return out


def _assert_same_block(u, reference):
    assert u.dtype == np.float64 and u.flags.c_contiguous
    assert u.shape == reference.shape
    assert u.tobytes() == reference.tobytes()


# Row counts on both sides of the switch from the numpy cipher to the reset
# bit generator, each at every offset within a counter's four words.
_ROWS = (1, 3, 5, measures._TALL_ROWS - 1, measures._TALL_ROWS, measures._TALL_ROWS + 7)


@pytest.mark.parametrize("rows", _ROWS)
@pytest.mark.parametrize("start", [0, 1, 2, 3, 4 * 11 + 1])
def test_philox_uniforms_equals_stream_draws(start, rows):
    for seed, context in ((0, 0), (2026, 7), ((1 << 64) - 1, (1 << 32) - 1)):
        columns = [0, 5, 6, (1 << 32) - 1]
        _assert_same_block(philox_uniforms(seed, context, columns, start, start + rows),
                           _stream_reference(seed, context, columns, start, start + rows))


def test_philox_uniforms_continues_across_chunks():
    columns = range(3, 9)
    edges = [0, 3, 4, 9, 9 + measures._TALL_ROWS + 2, 9 + 2 * measures._TALL_ROWS + 5, 200]
    chunks = [philox_uniforms(2026, 40, columns, a, b) for a, b in zip(edges, edges[1:])]
    _assert_same_block(np.concatenate(chunks, axis=1),
                       _stream_reference(2026, 40, columns, 0, 200))


def test_tall_draws_in_two_threads_keep_their_streams():
    # Each thread reuses its own bit generator; the two threads take turns,
    # each with its own seed, context and starts, so a shared or stale state
    # would give one thread the other's bits or its own earlier counter.
    rows = measures._TALL_ROWS + 3
    keys = ((2026, 40, [2, 3, 11]), ((1 << 64) - 1, 7, [0, (1 << 32) - 1]))
    starts = (0, 1, 4 * 9 + 2, 3, 130)
    turns = [threading.Semaphore(1), threading.Semaphore(0)]
    drawn = [[], []]

    def draw(me):
        seed, context, columns = keys[me]
        for start in starts:
            assert turns[me].acquire(timeout=30)
            try:
                drawn[me].append(philox_uniforms(seed, context, columns, start, start + rows))
            finally:
                turns[1 - me].release()

    threads = [threading.Thread(target=draw, args=(me,)) for me in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for me, (seed, context, columns) in enumerate(keys):
        assert len(drawn[me]) == len(starts)
        for start, u in zip(starts, drawn[me]):
            _assert_same_block(u, _stream_reference(seed, context, columns, start, start + rows))


def test_tall_draws_in_concurrent_threads_keep_their_streams():
    # More threads than cores draw at once with a short switch interval, so
    # one bit generator shared between threads would hand a thread another's
    # key or counter between its state write and its draw.
    rows = measures._TALL_ROWS + 1
    keys = [(2026 + k, 50 + k, [k, k + 9]) for k in range(4)]
    starts = (0, 2, 4 * 7 + 3)
    barrier = threading.Barrier(len(keys), timeout=30)
    mismatches = [0] * len(keys)
    interval = sys.getswitchinterval()

    def draw(me):
        seed, context, columns = keys[me]
        want = [_stream_reference(seed, context, columns, a, a + rows) for a in starts]
        barrier.wait()
        for _ in range(40):
            for a, ref in zip(starts, want):
                got = philox_uniforms(seed, context, columns, a, a + rows)
                mismatches[me] += got.tobytes() != ref.tobytes()

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(me,)) for me in range(len(keys))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == [0] * len(keys)


@pytest.mark.parametrize("row_chunk", [6, measures._TALL_ROWS + 6])
def test_uniform_chunks_continue_each_stream(row_chunk, monkeypatch):
    # Chunks of 2 mod 4 rows start every other chunk mid-counter, and tiles
    # of 10 draws (30 entries over 3 streams) are cut at their edges; tiles of
    # 70 draws take the reset bit generator.
    monkeypatch.setattr(limits, "_ROW_CHUNK", row_chunk)
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(philox_uniforms(*args, **kwargs))
        return drawn[-1].copy()

    monkeypatch.setattr(limits, "philox_uniforms", recording)
    columns = [2, 3, 11]
    marginal = Marginal.uniform(0.0, 1.0)
    config = limits.ExperimentConfig(
        mode="slln", family=MeasureFamily.singleton(ProductMeasure((marginal,))),
        horizon=200, trajectories=len(columns), burn_in=1, seed=2026)
    for tile in (30, 210):
        monkeypatch.setattr(limits, "_TILE", tile)
        drawn.clear()
        for _ in limits._partial_sums(config, 40, columns, [marginal], 200,
                                      limits._rows_per_chunk(len(columns))):
            pass
        assert len(drawn) > 2 and all(u.size <= tile for u in drawn)
        joined = np.concatenate(drawn, axis=1)
        _assert_same_block(joined, _stream_reference(2026, 40, columns, 0, 200))


_PPF_KINDS = (
    Marginal.normal(0.3, 2.0),
    Marginal.uniform(-1.0, 0.5),
    Marginal.pareto(1.5, 2.0),
    Marginal.pareto(1.0),
    Marginal.bernoulli(0.3),
    Marginal.discrete(((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25))),
)


@pytest.mark.parametrize("marginal", _PPF_KINDS, ids=lambda m: f"{m.kind}{m.params}")
def test_ppf_in_place_gives_the_same_bits(marginal):
    u = uniform_block(2026, 3, 500, context=9)
    u[0, :3] = (0.0, 1.0 - 2.0**-53, 0.7)
    fresh = marginal.ppf(u)
    out = np.empty_like(u)
    assert marginal.ppf(u, out=out) is out and out.tobytes() == fresh.tobytes()
    assert marginal.ppf(u, out=u) is u and u.tobytes() == fresh.tobytes()
    # A scalar gives a numpy scalar, as the array expressions did.
    assert isinstance(marginal.ppf(0.25), np.floating)
    assert marginal.ppf(0.25) == marginal.ppf(np.array([0.25]))[0]


# A unit-variance normal skips the multiply by sd = 1.0, which returns every
# float unchanged: the bits stay those of mean + 1.0 * ndtri(max(u, floor))
# and of z * 1.0 + mean, signed zeros, infinities and NaN included.
@pytest.mark.parametrize("mean", [0.0, -0.0, 0.3, -2.5])
def test_unit_variance_normal_keeps_the_bits_of_the_multiply(mean):
    from scipy.special import ndtri

    marginal = Marginal.normal(mean, 1.0)
    u = uniform_block(2026, 3, 500, context=9)
    u[0, :3] = (0.0, 0.5, 1.0 - 2.0**-53)
    expected = mean + 1.0 * ndtri(np.maximum(u, measures._U_FLOOR))
    assert marginal.ppf(u).tobytes() == expected.tobytes()
    assert marginal.ppf(u, out=u) is u and u.tobytes() == expected.tobytes()

    z = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan],
                        np.random.default_rng(5).standard_normal(50)])
    expected = z * 1.0 + mean
    assert marginal.from_normal_score(z).tobytes() == expected.tobytes()
    assert marginal.from_normal_score(z, out=z) is z and z.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [3, measures._TALL_ROWS + 1])
def test_uniform_block_is_the_stream_block_transposed(n):
    reference = _stream_reference(2026, 5, range(7), 0, n).T
    _assert_same_block(uniform_block(2026, n, 7, context=5), np.ascontiguousarray(reference))


@functools.lru_cache(maxsize=1)
def _wide_reference(m):
    """The first 90 draws of streams (2026, 12, j), j < m, one row per stream."""
    return _stream_reference(2026, 12, range(m), 0, 90)


# Widths on both sides of the cipher's first column-slice edge (one counter
# per column), and one past three slices; each is also cut at the slice
# edges of the taller blocks, whose slices are narrower.
_SLICE = measures._CIPHER_WORDS


@pytest.mark.parametrize("m", [_SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 5])
def test_short_blocks_match_the_streams_across_slice_edges(m):
    reference = _wide_reference(m)
    for n in (1, 3, measures._TALL_ROWS - 1):
        _assert_same_block(uniform_block(2026, n, m, context=12),
                           np.ascontiguousarray(reference[:, :n].T))
        # A start inside a counter, so every output word feeds other rows.
        _assert_same_block(philox_uniforms(2026, 12, range(m), 23, 23 + n),
                           reference[:, 23:23 + n])


def test_short_block_cipher_holds_little_memory():
    uniform_block(2026, 3, 20_000)
    tracemalloc.start()
    try:
        u = uniform_block(2026, 3, 20_000, context=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The block itself is 0.46 MiB; ciphered whole and transposed it peaked at 2.9 MiB.
    assert u.nbytes < peak < 1.5 * 2**20


@pytest.mark.parametrize("n,m", [(0, 0), (0, 4), (5, 0), (measures._TALL_ROWS, 0)])
def test_uniform_block_empty_shapes(n, m):
    u = uniform_block(2026, n, m, context=1)
    assert u.shape == (n, m) and u.dtype == np.float64 and u.flags.c_contiguous


def test_uniform_kernels_validate_keys_without_columns():
    message = "seed must lie in"
    for call in (lambda: uniform_block(-1, 2, 0),
                 lambda: uniform_block(1 << 64, 0, 3),
                 lambda: philox_uniforms(-1, 0, [], 0, 10)):
        with pytest.raises(ValueError, match=message):
            call()
    message = "stream context and column must lie in"
    for call in (lambda: uniform_block(1, 2, 0, context=1 << 32),
                 lambda: philox_uniforms(1, 0, [0, 1 << 32], 0, 3),
                 lambda: philox_uniforms(1, 0, [-1, 2], 0, 3)):
        with pytest.raises(ValueError, match=message):
            call()


def test_sample_pushes_through_marginals():
    mu = ProductMeasure((Marginal.uniform(2.0, 3.0), Marginal.bernoulli(1.0)),
                        stationary=False)
    u = uniform_block(2026, 2, 50, context=1)
    values = mu.ppf(u)
    assert values.shape == (2, 50)
    assert np.all((values[0] >= 2.0) & (values[0] <= 3.0))
    assert np.all(values[1] == 1.0)
    # A non-stationary measure has no marginal past the ones it lists.
    with pytest.raises(IndexError, match="coordinate 2 beyond the 2 listed marginals"):
        mu.ppf(uniform_block(2026, 3, 50, context=1))


# Each kind followed by the next, so every kind takes both the even and the
# odd rows of a stationary two-marginal measure.
_PPF_PAIRS = tuple(zip(_PPF_KINDS, _PPF_KINDS[1:] + _PPF_KINDS[:1]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("pair", _PPF_PAIRS,
                         ids=lambda pair: "-".join(m.kind for m in pair))
def test_product_ppf_gives_the_bits_of_each_row(pair, n):
    mu = ProductMeasure(pair)
    u = uniform_block(2026, n, 300, context=3)
    u[-1, :2] = (0.0, 1.0 - 2.0**-53)
    rows = np.stack([mu.marginal(i).ppf(u[i]) for i in range(n)])
    assert mu.ppf(u).tobytes() == rows.tobytes()
    assert mu.ppf(u, out=u) is u and u.tobytes() == rows.tobytes()
