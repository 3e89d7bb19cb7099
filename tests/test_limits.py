"""Experiment configs and the six long-run trajectory runners."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplim import Marginal, MeasureFamily, ProductMeasure, SublinearEngine, TestFunction, limits
from caplim.dependence import DependenceSpec, correlate_pairs, transform_block
from caplim.measures import normal_scores, philox_stream, philox_uniforms
from caplim.limits import (
    ExperimentConfig,
    run_experiment,
    _geometric_checkpoints,
    _lil_norming,
)

from conftest import make_bernoulli_family, make_location_family, make_singleton


def make_uniform_family(lo: float, hi: float, resolution: int = 3) -> MeasureFamily:
    def build(mu: float) -> ProductMeasure:
        return ProductMeasure((Marginal.uniform(mu - 0.5, mu + 0.5),), stationary=True)

    return MeasureFamily(
        parameter_domain=((lo, hi),),
        builder=build,
        grid_resolution=resolution,
        K=1.0,
        name=f"uniform-location-{lo:g}-{hi:g}",
    )


class TestExperimentConfigValidation:
    def setup_method(self):
        self.family = make_location_family(-0.2, 0.2, resolution=3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig(mode="clt", family=self.family)

    def test_family_type_checked(self):
        with pytest.raises(TypeError, match="MeasureFamily"):
            ExperimentConfig(mode="slln", family="not a family")

    @pytest.mark.parametrize("mode", ["wlln", "slln", "cluster", "lil", "necessity",
                                      "bound_check"])
    def test_a_family_listing_two_marginals_is_rejected(self, mode):
        # Every second draw would come from U(5, 7), but the runners read
        # only the first listed marginal.
        two = MeasureFamily.singleton(
            ProductMeasure((Marginal.normal(0.0, 1.0), Marginal.uniform(5.0, 7.0))))
        with pytest.raises(ValueError, match="family.marginals lists 2 marginals"):
            ExperimentConfig(mode=mode, family=two)
        joint = DependenceSpec(mode="discrete_joint",
                               joint_atoms=(((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)))
        if mode == "bound_check":
            # A joint-table bound-check reads the table, not the marginals.
            assert ExperimentConfig(mode=mode, family=two, dependence=joint, horizon=2)
        else:
            with pytest.raises(ValueError, match="family.marginals"):
                ExperimentConfig(mode=mode, family=two, dependence=joint)

    @pytest.mark.parametrize("field,bad", [
        ("horizon", 0),
        ("trajectories", 0),
        ("workers", 0),
        ("burn_in", 0),
        ("epsilon", 0.0),
        ("checkpoint_growth", 1.0),
        ("block_growth", 0.9),
        ("lil_quantile", 1.5),
        ("cluster_coverage_target", 0.0),
        ("cluster_grid_step", -0.1),
        ("block_start", 1),
        ("divergence_threshold", 0.0),
        ("divergence_quantile", 0.0),
        ("bound_order", 1),
        ("bound_delta", 1.5),
        ("x_grid_points", 1),
        ("x_grid_range", (2.0, 1.0)),
        ("x_grid_range", (0.1, float("inf"))),
        ("wlln_target", 2.0),
        ("wlln_target", 0.0),
        ("lil_epsilon", -0.1),
        ("cluster_advance_tolerance", 0.0),
    ])
    def test_out_of_range_fields_rejected(self, field, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="slln", family=self.family, **{field: bad})

    @pytest.mark.parametrize("field", ["epsilon", "divergence_threshold", "lil_epsilon",
                                       "cluster_grid_step", "cluster_tolerance",
                                       "cluster_advance_tolerance", "checkpoint_growth",
                                       "block_growth"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_thresholds_rejected(self, field, bad):
        # NaN passes every range check, which would make a check vacuous.
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
            ExperimentConfig(mode="slln", family=self.family, **{field: bad})

    def test_burn_in_capped_by_horizon_only_for_pathwise_modes(self):
        with pytest.raises(ValueError, match="burn_in"):
            ExperimentConfig(mode="slln", family=self.family,
                             horizon=500, burn_in=2000)
        with pytest.raises(ValueError, match="burn_in"):
            ExperimentConfig(mode="lil", family=self.family,
                             horizon=500, burn_in=2000)
        cfg = ExperimentConfig(mode="wlln", family=self.family,
                               horizon=500, burn_in=2000)
        assert cfg.burn_in == 2000

    def test_schedule_capped_by_horizon_only_for_the_weak_law(self):
        with pytest.raises(ValueError, match="^schedule must not exceed the horizon$"):
            ExperimentConfig(mode="wlln", family=self.family,
                             horizon=40_000, schedule=(100, 50_000))
        cfg = ExperimentConfig(mode="wlln", family=self.family,
                               horizon=40_000, schedule=(100, 40_000))
        assert cfg.schedule == (100, 40_000)
        # the other modes never read the schedule
        cfg = ExperimentConfig(mode="slln", family=self.family,
                               horizon=5_000, schedule=(100, 50_000))
        assert cfg.schedule == (100, 50_000)

    def test_schedule_normalized_and_checked(self):
        cfg = ExperimentConfig(mode="wlln", family=self.family,
                               schedule=(50.0, 200.0))
        assert cfg.schedule == (50, 200)
        with pytest.raises(ValueError, match="schedule"):
            ExperimentConfig(mode="wlln", family=self.family, schedule=(200, 50))
        with pytest.raises(ValueError, match="schedule"):
            ExperimentConfig(mode="wlln", family=self.family, schedule=(0, 50))
        with pytest.raises(ValueError, match="^schedule must not be empty$"):
            ExperimentConfig(mode="wlln", family=self.family, schedule=())

    def test_hash_ignores_workers_but_tracks_everything_else(self):
        base = dict(mode="slln", family=self.family, horizon=2000, seed=5)
        h1 = ExperimentConfig(**base, workers=1).config_hash()
        h8 = ExperimentConfig(**base, workers=8).config_hash()
        assert h1 == h8
        assert "workers" not in ExperimentConfig(**base).descriptor()
        assert ExperimentConfig(**{**base, "seed": 6}).config_hash() != h1
        assert ExperimentConfig(**{**base, "horizon": 2001}).config_hash() != h1
        other = make_location_family(-0.3, 0.3, resolution=3)
        assert ExperimentConfig(**{**base, "family": other}).config_hash() != h1


def test_geometric_checkpoints_cover_the_range_once():
    pts = _geometric_checkpoints(1000, 10_000, 2.0)
    assert pts[0] == 1000
    assert pts[-1] == 10_000
    assert np.all(np.diff(pts) > 0)
    # growth close to one still makes progress
    dense = _geometric_checkpoints(10, 30, 1.01)
    assert list(dense) == list(range(10, 31))


def test_lil_norming_matches_the_classical_rate():
    n = np.array([1_000_000.0])
    expected = float(np.sqrt(2.0 * 1e6 * np.log(np.log(1e6))))
    assert _lil_norming(n)[0] == pytest.approx(expected, rel=1e-12)
    # below e the iterated log is clamped rather than complex
    assert np.isfinite(_lil_norming(np.array([2.0]))[0])


class TestWlln:
    def test_exact_band_capacities_rise_to_one(self):
        fam = make_location_family(-0.2, 0.2, resolution=5)
        cfg = ExperimentConfig(mode="wlln", family=fam, horizon=4000,
                               trajectories=50, epsilon=0.3, seed=7,
                               schedule=(100, 1000, 4000))
        result = run_experiment(cfg)
        assert result.mode == "wlln"
        assert result.passed
        assert result.summary["estimator"] == "exact"
        assert result.summary["schedule"] == [100, 1000, 4000]
        assert result.summary["mean_interval"] == [-0.2, 0.2]
        header, rows = result.tables["wlln"]
        assert header[0] == "n"
        assert [row[0] for row in rows] == [100, 1000, 4000]
        caps = [row[1] for row in rows]
        assert all(later >= earlier for earlier, later in zip(caps, caps[1:]))
        assert caps[-1] >= 0.99
        assert all(row[2] == 0.0 for row in rows)

    def test_mc_fallback_for_sums_without_closed_form(self):
        fam = make_uniform_family(-0.1, 0.1)
        cfg = ExperimentConfig(mode="wlln", family=fam, horizon=800,
                               trajectories=400, epsilon=0.25, seed=7,
                               schedule=(100, 800), wlln_target=0.95)
        result = run_experiment(cfg)
        assert result.summary["estimator"] == "mc"
        assert result.passed
        same = run_experiment(ExperimentConfig(mode="wlln", family=fam,
                                               horizon=800, trajectories=400,
                                               epsilon=0.25, seed=7,
                                               schedule=(100, 800),
                                               wlln_target=0.95, workers=3))
        assert same.tables == result.tables
        assert same.summary == result.summary

    def test_a_point_mass_reads_its_band_exactly(self):
        fam = make_singleton([Marginal.discrete(((0.25, 1.0),))])
        result = limits.run_wlln(ExperimentConfig(mode="wlln", family=fam, horizon=1000,
                                                  epsilon=0.1, seed=7))
        assert result.summary["estimator"] == "exact"
        assert result.summary["mean_interval"] == [0.25, 0.25]
        assert result.summary["final_band_lower_capacity"] == 1.0
        _, rows = result.tables["wlln"]
        assert [row[1:] for row in rows] == [(1.0, 0.0, 1.0, 1.0)] * 2
        assert result.passed

    def test_joint_table_dependence_rejected_for_sequences(self):
        dep = DependenceSpec(mode="discrete_joint",
                             joint_atoms=(((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)))
        fam = make_location_family(-0.1, 0.1, resolution=3)
        cfg = ExperimentConfig(mode="wlln", family=fam, dependence=dep)
        with pytest.raises(ValueError, match="joint-table"):
            run_experiment(cfg)


class TestSlln:
    def test_running_means_stay_inside_the_widened_interval(self):
        fam = make_location_family(-0.2, 0.2, resolution=5)
        cfg = ExperimentConfig(mode="slln", family=fam, horizon=5000,
                               trajectories=20, epsilon=0.5, seed=7, burn_in=500)
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["violations"] == 0
        header, rows = result.tables["slln"]
        assert len(rows) == 2 * 20
        assert result.summary["worst_max_ratio"] <= 0.2 + 0.5
        assert result.summary["worst_min_ratio"] >= -0.2 - 0.5
        assert not any(row[4] for row in rows)

    def test_worker_split_does_not_change_results(self):
        fam = make_location_family(-0.2, 0.2, resolution=3)
        base = dict(mode="slln", family=fam, horizon=3000, trajectories=11,
                    epsilon=0.5, seed=7, burn_in=300)
        r1 = run_experiment(ExperimentConfig(**base, workers=1))
        r4 = run_experiment(ExperimentConfig(**base, workers=4))
        assert r1.config_hash == r4.config_hash
        assert r1.summary == r4.summary
        assert r1.tables == r4.tables

    def test_location_shift_moves_ratios_by_exactly_the_shift(self):
        base = dict(mode="slln", horizon=2000, trajectories=5, epsilon=2.0,
                    seed=11, burn_in=100)
        centered = run_experiment(ExperimentConfig(
            family=make_location_family(0.0, 0.0), **base))
        shifted = run_experiment(ExperimentConfig(
            family=make_location_family(0.3, 0.3), **base))
        a = [row[2] for row in centered.tables["slln"][1]]
        b = [row[2] for row in shifted.tables["slln"][1]]
        np.testing.assert_allclose(np.subtract(b, a), 0.3, atol=1e-12)


class TestLil:
    def test_standard_normal_fluctuations_respect_the_norming(self,
                                                              standard_normal_family):
        cfg = ExperimentConfig(mode="lil", family=standard_normal_family,
                               horizon=20_000, trajectories=8, seed=7,
                               burn_in=1000, checkpoint_growth=1.2,
                               lil_epsilon=1.0, lil_quantile=0.9)
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["sigma_upper"] == 1.0
        assert result.summary["upper_cap"] == pytest.approx(2.0)
        assert result.summary["checkpoints"] == len(
            _geometric_checkpoints(1000, 20_000, 1.2))
        header, rows = result.tables["lil"]
        assert len(rows) == 8
        assert all(np.isfinite(row[2]) and np.isfinite(row[3]) for row in rows)

    def test_negative_copula_damps_nothing_structurally(self,
                                                        standard_normal_family):
        dep = DependenceSpec(mode="gaussian_copula", correlation=-0.5)
        cfg = ExperimentConfig(mode="lil", family=standard_normal_family,
                               dependence=dep, horizon=20_000, trajectories=6,
                               seed=7, burn_in=1000, checkpoint_growth=1.3,
                               lil_epsilon=1.0, lil_quantile=0.8)
        result = run_experiment(cfg)
        assert result.passed
        assert len(result.tables["lil"][1]) == 6

    def test_copula_needs_singleton_family(self):
        # The config is rejected as it is built, before any run.
        dep = DependenceSpec(mode="gaussian_copula", correlation=-0.5)
        fam = make_location_family(-0.2, 0.2, resolution=3)
        with pytest.raises(ValueError, match="single"):
            ExperimentConfig(mode="lil", family=fam, dependence=dep,
                             horizon=5000, burn_in=100)


class TestCluster:
    def test_steering_covers_the_whole_mean_interval(self):
        fam = make_location_family(-0.5, 0.5, resolution=5)
        cfg = ExperimentConfig(mode="cluster", family=fam, horizon=150_000,
                               seed=7, block_start=2000, block_growth=1.3,
                               cluster_grid_step=0.25, cluster_tolerance=0.15,
                               cluster_advance_tolerance=0.08,
                               cluster_coverage_target=0.9)
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["coverage"] == 1.0
        assert result.summary["unvisited"] == []
        assert result.summary["draws"] <= 150_000
        header, rows = result.tables["cluster"]
        assert len(rows) == result.summary["blocks"]
        targets = result.summary["targets"]
        assert targets[0] == pytest.approx(-0.5)
        assert targets[-1] == pytest.approx(0.5)

    def test_too_short_a_run_reports_missed_targets(self):
        fam = make_location_family(-0.5, 0.5, resolution=5)
        cfg = ExperimentConfig(mode="cluster", family=fam, horizon=6000,
                               seed=7, block_start=3000, block_growth=1.3,
                               cluster_grid_step=0.25, cluster_tolerance=0.1,
                               cluster_advance_tolerance=0.05,
                               cluster_coverage_target=1.0)
        result = run_experiment(cfg)
        assert not result.passed
        assert result.summary["coverage"] < 1.0
        assert result.summary["unvisited"]


class TestNecessity:
    def test_pareto_tail_forces_divergence(self):
        fam = make_singleton([Marginal.pareto(1.0, 1.0)], name="pareto-one")
        cfg = ExperimentConfig(mode="necessity", family=fam, horizon=100_000,
                               trajectories=10, seed=7,
                               divergence_threshold=10.0,
                               divergence_quantile=0.8)
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["tail_integral_divergent"]
        assert result.summary["tail_integral"] == np.inf
        assert result.summary["exceed_fraction"] == 1.0
        assert "divergent" in result.summary["verdict"]

    def test_normal_tail_keeps_running_means_bounded(self, standard_normal_family):
        cfg = ExperimentConfig(mode="necessity", family=standard_normal_family,
                               horizon=100_000, trajectories=10, seed=7,
                               divergence_threshold=10.0,
                               divergence_quantile=0.8)
        result = run_experiment(cfg)
        assert result.passed
        assert not result.summary["tail_integral_divergent"]
        assert result.summary["exceed_fraction"] == 0.0
        assert "finite" in result.summary["verdict"]

    def test_a_finite_tail_fails_once_running_means_cross_a_low_threshold(
            self, standard_normal_family):
        cfg = ExperimentConfig(mode="necessity", family=standard_normal_family,
                               horizon=2000, trajectories=8, seed=7,
                               divergence_threshold=0.01)
        result = run_experiment(cfg)
        assert not result.passed
        assert not result.summary["tail_integral_divergent"]
        assert result.summary["exceed_fraction"] == 1.0
        assert result.summary["verdict"] == (
            "finite tail integral yet running means exceeded the threshold")

    def test_a_divergent_tail_fails_below_an_unreachable_threshold(self):
        fam = make_singleton([Marginal.pareto(0.8, 1.0)], name="pareto-heavy")
        cfg = ExperimentConfig(mode="necessity", family=fam, horizon=2000,
                               trajectories=8, seed=7, divergence_threshold=1e12)
        result = run_experiment(cfg)
        assert not result.passed
        assert result.summary["tail_integral_divergent"]
        assert result.summary["exceed_fraction"] == 0.0
        assert result.summary["verdict"] == "divergent tail integral but too few exceedances"

    def test_requires_a_singleton_family(self):
        fam = make_location_family(-0.2, 0.2, resolution=3)
        cfg = ExperimentConfig(mode="necessity", family=fam, horizon=1000)
        with pytest.raises(ValueError, match="singleton"):
            run_experiment(cfg)


class TestBoundCheck:
    def test_sampled_tail_frequencies_stay_under_every_bound(self):
        fam = make_location_family(-0.3, 0.3, resolution=3)
        cfg = ExperimentConfig(mode="bound_check", family=fam, horizon=200,
                               trajectories=3000, seed=7, bound_order=3,
                               bound_delta=0.5, x_grid_points=8,
                               x_grid_range=(0.5, 5.0))
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["flags"] == []
        assert result.summary["estimator"] == "mc"
        assert result.summary["center"] == pytest.approx(0.3)
        # worst centered second moment sits at the opposite extreme measure
        assert result.summary["variance_sum"] == pytest.approx(200 * 1.36)
        header, rows = result.tables["bound_check"]
        assert len(rows) == 8
        cols = dict(zip(header, zip(*rows)))
        for name in ("bound_exponential", "bound_split", "bound_power",
                     "bound_chebyshev", "bound_positive_moment"):
            slack = np.subtract(cols[name],
                                np.subtract(cols["emp_upper"],
                                            3.0 * np.asarray(cols["emp_upper_se"])))
            assert np.all(slack >= 0.0), name

    def test_a_discrete_family_is_centered_and_worker_invariant(self):
        fam = make_bernoulli_family(0.2, 0.6, resolution=3)
        results = [
            run_experiment(ExperimentConfig(mode="bound_check", family=fam, horizon=200,
                                            trajectories=2000, seed=7, workers=workers))
            for workers in (1, 2)]
        assert results[0].passed
        assert results[0].summary["center"] == pytest.approx(0.6)
        assert results[0].summary["flags"] == []
        assert repr(results[0]) == repr(results[1])

    def test_joint_table_is_enumerated_exactly(self):
        fam = make_singleton([Marginal.bernoulli(0.5), Marginal.bernoulli(0.5)],
                             name="bernoulli-pair")
        dep = DependenceSpec(mode="discrete_joint",
                             joint_atoms=(((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)))
        cfg = ExperimentConfig(mode="bound_check", family=fam, dependence=dep,
                               horizon=2, trajectories=100, seed=7,
                               bound_order=3, x_grid_points=5,
                               x_grid_range=(0.5, 3.0))
        result = run_experiment(cfg)
        assert result.passed
        assert result.summary["estimator"] == "exact"
        assert result.summary["trajectories_per_measure"] == 0
        assert result.summary["flags"] == []

    def test_joint_table_must_match_the_horizon(self):
        fam = make_singleton([Marginal.bernoulli(0.5), Marginal.bernoulli(0.5)],
                             name="bernoulli-pair")
        dep = DependenceSpec(mode="discrete_joint",
                             joint_atoms=(((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)))
        cfg = ExperimentConfig(mode="bound_check", family=fam, dependence=dep,
                               horizon=3, trajectories=100, seed=7)
        with pytest.raises(ValueError):
            run_experiment(cfg)


# ---------------------------------------------------------------------------
# One grid per family: built once per run, and read only at finite moments.

_SMALL_RUNS = {
    "wlln": dict(horizon=1000),
    "slln": dict(horizon=2000, trajectories=2, burn_in=100),
    "cluster": dict(horizon=200_000, block_start=1000, cluster_grid_step=0.25),
    "lil": dict(horizon=2000, trajectories=2, burn_in=100),
    "bound_check": dict(horizon=50, trajectories=100, x_grid_points=4),
}


@pytest.mark.parametrize("mode", sorted(_SMALL_RUNS))
def test_each_runner_builds_each_grid_measure_once(mode):
    calls = []
    family = make_location_family(-0.5, 0.5, resolution=3)
    counted = replace(family, builder=lambda mu: calls.append(mu) or family.builder(mu))
    run_experiment(ExperimentConfig(mode=mode, family=counted, seed=3, **_SMALL_RUNS[mode]))
    # The config check, the config hash, the runner and the bound check's
    # engine share the family's one grid. The bound check also builds its
    # centred family's grid, and the cluster its 513-point steering set.
    assert calls[:3] == [-0.5, 0.0, 0.5]
    extra = {"bound_check": [-0.5, 0.0, 0.5], "cluster": np.linspace(-0.5, 0.5, 513).tolist()}
    assert calls[3:] == extra.get(mode, [])


def test_the_runners_read_the_envelope_of_the_family_grid():
    # The mean 1 - (t - 0.37)**2 peaks between grid points; the grid's
    # largest mean, 0.9856 at t = 0.25, is the engine's upper envelope too.
    family = MeasureFamily(((0.0, 1.0),), grid_resolution=5, builder=lambda t: ProductMeasure(
        (Marginal.normal(1.0 - (t - 0.37) ** 2, 1.0),)))
    envelope = SublinearEngine(family).upper_exp(TestFunction.power(1))
    assert envelope.parameter == 0.25 and envelope.value == pytest.approx(0.9856)
    result = run_experiment(ExperimentConfig(mode="slln", family=family, seed=3,
                                             **_SMALL_RUNS["slln"]))
    assert result.summary["mean_interval"][1] == envelope.value


@pytest.mark.parametrize("mode, alpha, message", [
    ("wlln", 1.0, r"mean interval \[inf, inf\] is not finite"),
    ("slln", 1.0, r"mean interval \[inf, inf\] is not finite"),
    ("cluster", 1.0, r"mean interval \[inf, inf\] is not finite"),
    ("lil", 1.0, r"mean interval \[inf, inf\] is not finite"),
    ("bound_check", 1.0, r"mean interval \[inf, inf\] is not finite"),
    ("lil", 1.5, r"upper variance is not finite \(sigma_upper inf, sigma_lower inf\)"),
])
def test_a_family_with_an_infinite_moment_is_rejected(mode, alpha, message):
    # An infinite mean leaves no band to test, and an infinite variance makes
    # lil's cap vacuous, so neither may reach a verdict.
    fam = make_singleton([Marginal.pareto(alpha, 1.0)], name="pareto")
    config = ExperimentConfig(mode=mode, family=fam, horizon=2000, trajectories=2,
                              burn_in=100, seed=3)
    with pytest.raises(ValueError, match=message):
        run_experiment(config)


# ---------------------------------------------------------------------------
# The trajectory-major scan against the time-major layout it replaced, in
# which chunks were (time, trajectory) blocks and sums ran along axis 0.

_KINDS = {
    "normal": Marginal.normal(0.3, 2.0),
    "uniform": Marginal.uniform(-1.0, 0.5),
    "pareto": Marginal.pareto(1.5, 2.0),
    "bernoulli": Marginal.bernoulli(0.3),
    "discrete": Marginal.discrete(((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25))),
}
_SPECS = (
    DependenceSpec.independent(),
    DependenceSpec(mode="gaussian_copula", correlation=-0.4),
)
_COLUMNS = [2, 3, 11]


def _time_major_uniforms(seed, context, columns, start, stop):
    """Draws ``start..stop-1`` with one column per stream, in C order."""
    return np.stack(
        [philox_stream(seed, context, c).random(stop)[start:] for c in columns], axis=1
    )


def _time_major_draws(u, marginal, spec):
    """The transform of a time-major block; the copula pairs consecutive rows."""
    if spec.mode == "per_measure_independent":
        return marginal.ppf(u)
    return marginal.from_normal_score(correlate_pairs(normal_scores(u), spec.correlation))


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.mode)
@pytest.mark.parametrize("marginal", _KINDS.values(), ids=_KINDS)
def test_the_block_transform_is_the_reference_chain(marginal, spec):
    # An odd row count leaves the last row out of the pairs.
    u = _time_major_uniforms(2026, 43, _COLUMNS, 0, 201)
    x = transform_block(u, ProductMeasure((marginal,)), spec)
    assert x.tobytes() == _time_major_draws(u, marginal, spec).tobytes()


def _same_bytes(trajectory_major, time_major):
    assert trajectory_major.flags.c_contiguous
    assert trajectory_major.tobytes() == np.ascontiguousarray(time_major.T).tobytes()


def _chunked_time_major_sums(seed, context, columns, marginal, spec, chunk, horizon):
    """Partial sums chunk by chunk, as ``carry + cumsum(chunk)``, time-major."""
    carry = np.zeros(len(columns))
    blocks = []
    for start in range(0, horizon, chunk):
        u = _time_major_uniforms(seed, context, columns, start, min(horizon, start + chunk))
        block = carry + np.cumsum(_time_major_draws(u, marginal, spec), axis=0)
        carry = block[-1].copy()
        blocks.append(block)
    return np.concatenate(blocks)


# Chunks of 6 rows run the numpy cipher and chunks of 70 the reset bit
# generator; both are 2 mod 4, so every other chunk starts mid-counter and
# the horizon of 200 ends on a short chunk. Chunks of 50 rows divide the
# horizon, so its last piece ends a chunk and the horizon at once, where a
# carry added twice would show. Over 3 streams, a tile of 30 entries is 10
# draws long (numpy cipher) and one of 198 is 66 long (reset bit
# generator); neither divides the chunks of 6 or 70, so tiles are cut at the
# chunk edges, and 2**16 entries hold the whole horizon.
_TILES = (30, 198, 1 << 16)


@pytest.mark.parametrize("row_chunk", [6, 50, 70])
@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.mode)
@pytest.mark.parametrize("marginal", _KINDS.values(), ids=_KINDS)
def test_partial_sums_match_the_time_major_scan(marginal, spec, row_chunk, monkeypatch):
    monkeypatch.setattr(limits, "_ROW_CHUNK", row_chunk)
    config = ExperimentConfig(
        mode="slln", family=MeasureFamily.singleton(ProductMeasure((marginal,))),
        dependence=spec, horizon=200, trajectories=len(_COLUMNS), burn_in=1, seed=2026,
    )
    reference = _chunked_time_major_sums(2026, 40, _COLUMNS, marginal, spec, row_chunk, 200)
    chunk = limits._rows_per_chunk(len(_COLUMNS))
    for tile in _TILES:
        monkeypatch.setattr(limits, "_TILE", tile)
        blocks, stops = [], [0]
        # Each piece is scratch, so it is copied before the next one.
        for k, start, stop, s in limits._partial_sums(config, 40, _COLUMNS, [marginal], 200,
                                                      chunk):
            assert k == 0
            assert start == stops[-1] and s.shape == (len(_COLUMNS), stop - start)
            assert s.size <= max(tile, 2 * len(_COLUMNS))
            blocks.append(s.copy())
            stops.append(stop)
        _same_bytes(np.concatenate(blocks, axis=1), reference)
        assert len(stops) > 3 and stops[-1] == 200


@pytest.mark.parametrize("row_chunk", [6, 50, 70])
@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.mode)
@pytest.mark.parametrize("marginal", _KINDS.values(), ids=_KINDS)
def test_row_sums_match_the_time_major_sum(marginal, spec, row_chunk, monkeypatch):
    monkeypatch.setattr(limits, "_ROW_CHUNK", row_chunk)
    # run_wlln transforms one shared block for every grid measure.
    u = philox_uniforms(2026, 41, _COLUMNS, 0, 200)
    drawn = u.copy()
    limits._transform_chunk(u, marginal, spec)
    assert u.tobytes() == drawn.tobytes()

    # The sums of trajectories 0..11 under two marginals that share uniforms;
    # the reference adds each chunk's time-major column sums in turn.
    other = Marginal.normal(-0.5, 0.25)
    columns = range(12)
    reference = np.zeros((2, len(columns)))
    for start in range(0, 200, row_chunk):
        old = _time_major_uniforms(2026, 41, columns, start, min(200, start + row_chunk))
        for k, m in enumerate((marginal, other)):
            reference[k] += _time_major_draws(old, m, spec).sum(axis=0)
    config = ExperimentConfig(
        mode="wlln", family=MeasureFamily.singleton(ProductMeasure((marginal,))),
        dependence=spec, horizon=200, trajectories=len(columns), seed=2026,
    )
    # A tile of 30 or 198 entries holds part of one horizon, cut at the chunk
    # edges; 2**16 entries hold the horizons of all 12 trajectories, one
    # group whose pieces are reduced.
    for tile in _TILES:
        monkeypatch.setattr(limits, "_TILE", tile)
        (sums,) = limits._scan(config, [(41, [marginal, other], 200)])
        assert np.array(sums).tobytes() == reference.tobytes()


# A tile of 30 entries groups 10 trajectories by 7 at horizon 4, by 3 at
# horizon 10 and one by one at horizon 50, so the first two streams end on
# an uneven group. The tasks, and so the bytes, are the same at any worker
# count, and each trajectory's S_n, reduced from piece totals in chunks of 6
# draws, is the one its own cumsum gives.
def test_scan_tasks_cover_each_trajectory_once_in_order(monkeypatch):
    monkeypatch.setattr(limits, "_TILE", 30)
    monkeypatch.setattr(limits, "_ROW_CHUNK", 6)
    maps = []
    indexed_map = limits._indexed_map

    def recording(fn, items, workers):
        maps.append(list(items))
        return indexed_map(fn, items, workers)

    monkeypatch.setattr(limits, "_indexed_map", recording)
    uniform, normal = Marginal.uniform(-1.0, 0.5), Marginal.normal(0.3, 2.0)
    streams = [(50, [uniform], 4), (51, [uniform, normal], 10), (52, [normal], 50)]
    runs = []
    for workers in (1, 3):
        config = ExperimentConfig(mode="slln", family=make_singleton([uniform]), horizon=50,
                                  trajectories=10, burn_in=1, seed=2026, workers=workers)
        assert limits._rows_per_chunk(config.trajectories) == 6
        runs.append(limits._scan(config, streams))

    assert len(maps) == 2 and maps[0] == maps[1]
    tasks = maps[0]
    assert [(i, t) for i, t0, t1 in tasks for t in range(t0, t1)] == [
        (i, t) for i in range(len(streams)) for t in range(10)]
    assert [t1 - t0 for i, t0, t1 in tasks if i < 2] == [7, 3, 3, 3, 3, 1]
    assert [t1 - t0 for i, t0, t1 in tasks if i == 2] == [1] * 10
    for stats, again, (context, marginals, n) in zip(*runs, streams):
        assert [a.tobytes() for a in stats] == [a.tobytes() for a in again]
        for t in range(10):
            pieces = limits._partial_sums(config, context, [t], marginals, n, 6)
            own = limits._sums_at_horizon(pieces, 1)
            assert [a[t] for a in stats] == [a[0] for a in own]


# Piece totals against the cumsum's last column, bit for bit. Groups of 2,
# 3 and 65 to 130 trajectories take the strided reduce, a group of 1 the
# cumsum. Entries span 16 decades, so the order of the adds shows in the
# low bits; a signed zero, an infinity or a NaN shows a wrong start or a
# wrong order, and a row of -0.0 a start from +0.0. As in _partial_sums,
# the carried running sum is added into the first column.
_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


@settings(max_examples=60, deadline=None)
@given(size=st.one_of(st.sampled_from([1, 2, 3]), st.integers(65, 130)),
       length=st.integers(0, 600).map(lambda r: 2 * r + 1), seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 20), _SPECIAL),
                         max_size=6),
       zero_row=st.booleans())
@example(size=2, length=1, seed=0, specials=[], zero_row=True)
@example(size=1, length=3, seed=1, specials=[(0, 1, np.nan), (0, 2, -0.0)], zero_row=False)
@example(size=65, length=1007, seed=2, specials=[(3, 0, np.inf), (3, 5, -np.inf)],
         zero_row=True)
def test_piece_totals_match_the_cumsum(size, length, seed, specials, zero_row):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((size, length)) * 10.0 ** rng.integers(-8, 8, (size, length))
    inner = rng.standard_normal((size, 1)) * 10.0 ** rng.integers(-8, 8, (size, 1))
    for row, col, value in specials:
        s[row % size, col % length] = value
    if zero_row:
        s[-1], inner[-1] = -0.0, -0.0
    with np.errstate(all="ignore"):
        s[:, :1] += inner
        expected = np.cumsum(s, axis=1)[:, -1:]
        got = limits._piece_totals(s.copy())
    assert got.shape == (size, 1)
    assert got.tobytes() == expected.tobytes()


# With totals a group of one trajectory keeps the cumsum and a larger group
# reduces each piece. A tile of 30 entries scans one trajectory at a time; of
# 402, groups of 2, 2 and 1 whose 200-draw tiles cut the 201-draw horizon, so
# a one-draw piece continues it; of 2**16, all 5 at once. No chunk edge cuts
# the horizon, so each S_n is one plain cumsum over the trajectory's draws.
@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.mode)
@pytest.mark.parametrize("tile", [30, 402, 1 << 16])
def test_horizon_sums_match_a_plain_cumsum(spec, tile, monkeypatch):
    monkeypatch.setattr(limits, "_TILE", tile)
    marginals = [Marginal.normal(0.3, 2.0), Marginal.uniform(-1.0, 0.5)]
    config = ExperimentConfig(mode="wlln", family=make_singleton(marginals[:1]),
                              dependence=spec, horizon=201, trajectories=5, seed=2026)
    assert limits._rows_per_chunk(config.trajectories) > config.horizon
    (sums,) = limits._scan(config, [(43, marginals, 201)])
    u = philox_uniforms(2026, 43, range(5), 0, 201)
    for got, marginal in zip(sums, marginals):
        draws = limits._transform_chunk(u, marginal, spec)
        assert got.tobytes() == np.cumsum(draws, axis=1)[:, -1].tobytes()


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.mode)
@pytest.mark.parametrize("marginal", _KINDS.values(), ids=_KINDS)
def test_transform_in_place_gives_the_same_bytes(marginal, spec):
    u = philox_uniforms(2026, 41, _COLUMNS, 0, 200)
    fresh = limits._transform_chunk(u, marginal, spec)
    assert limits._transform_chunk(u, marginal, spec, out=u) is u
    assert u.tobytes() == fresh.tobytes()


# The cluster's block sums against one np.sum over every draw. numpy adds
# runs of fewer than 8 entries in turn, runs of 8 to 128 with eight
# accumulators, and splits longer ones; 2**22 - 1 and the sizes that are not
# multiples of 8 split unevenly. A tile of 1100 entries cuts runs from 1101
# draws on into parts, and the default tile holds each run below 2**16
# whole; a tile of 30 still holds a run of up to 128 whole, as numpy does.
# The examples start at every counter offset.
@pytest.mark.parametrize("marginal", _KINDS.values(), ids=_KINDS)
@settings(max_examples=25, deadline=None)
@given(n=st.one_of(st.integers(1, 7), st.integers(8, 128),
                   st.integers(129, 40_000).filter(lambda n: n % 8)),
       first=st.integers(0, 1000), tile=st.sampled_from([30, 1100, limits._TILE]))
@example(n=5, first=0, tile=1100)
@example(n=100, first=1, tile=1100)
@example(n=40_003, first=2, tile=1100)
@example(n=1 << 22, first=3, tile=1100)
@example(n=(1 << 22) - 1, first=4, tile=limits._TILE)
def test_tiled_cluster_sum_matches_numpy_sum(marginal, n, first, tile):
    with mock.patch.object(limits, "_TILE", tile):
        tiled = limits._pairwise_draw_sum(2026, 42, marginal, first, n)
    reference = float(marginal.ppf(philox_uniforms(2026, 42, [0], first, first + n)[0]).sum())
    assert tiled.hex() == reference.hex()


# A scan holds a few tiles at a time however long it runs: the uniforms, the
# draws and a temporary of the transform. Chunks of the same runs, drawn
# whole, held 48 MB (2000 x 3000) and 32 MiB (32 x 131 072) arrays, three at
# a time (tracemalloc peaks of 137 and 96 MiB), and the cluster's 2**22-draw
# chunks one 32 MiB buffer. The cluster's first two blocks hold 4 500 000
# draws each, two chunks apiece.
_FEW_TILES_EXTRA = {
    "lil": dict(dependence=_SPECS[1]),
    "cluster": dict(family=make_location_family(-0.5, 0.5, resolution=5),
                    block_start=4_500_000, block_growth=2.0, cluster_grid_step=0.25),
}


@pytest.mark.parametrize("mode,horizon,trajectories",
                         [("bound_check", 3000, 2000), ("slln", 200_000, 32),
                          ("lil", 200_000, 32), ("cluster", 9_000_001, 1)])
def test_scans_hold_a_few_tiles(mode, horizon, trajectories):
    options = {"family": make_singleton([Marginal.normal(0.0, 1.0)]),
               **_FEW_TILES_EXTRA.get(mode, {})}
    config = ExperimentConfig(mode=mode, horizon=horizon, trajectories=trajectories,
                              x_grid_points=4, seed=3, **options)
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * limits._TILE, f"peak {peak / 2**20:.1f} MiB"
