"""Dependence declarations, coupled samplers, and the product-bound checks."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from caplim import Marginal, MeasureFamily, ProductMeasure
from caplim.dependence import (
    DependenceSpec,
    SequenceSampler,
    _abs_window,
    _reversed_smooth,
    correlate_pairs,
    transform_block,
    verify_end,
    verify_extended_independence,
)
from caplim.measures import normal_scores, uniform_block
from caplim.sublinear import TestFunction, smooth_indicator

from conftest import make_singleton


RAMP = TestFunction.clamp_affine(1.0, 0.0, 0.0, 1.0)

COUNTERMONOTONE = DependenceSpec(
    mode="discrete_joint",
    joint_atoms=(((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)),
)
COMONOTONE = DependenceSpec(
    mode="discrete_joint",
    joint_atoms=(((0.0, 0.0), 0.5), ((1.0, 1.0), 0.5)),
)


def bernoulli_pair_family():
    return make_singleton(
        [Marginal.bernoulli(0.5), Marginal.bernoulli(0.5)], name="bernoulli-pair"
    )


class TestDependenceSpecValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            DependenceSpec(mode="comonotone")

    def test_dominating_constant_below_one_rejected(self):
        with pytest.raises(ValueError, match="K"):
            DependenceSpec(mode="per_measure_independent", K=0.5)

    def test_copula_needs_a_correlation(self):
        with pytest.raises(ValueError, match="correlation"):
            DependenceSpec(mode="gaussian_copula")

    def test_positive_pair_correlation_rejected(self):
        with pytest.raises(ValueError, match="correlation"):
            DependenceSpec(mode="gaussian_copula", correlation=0.3)

    def test_perfect_negative_correlation_rejected(self):
        with pytest.raises(ValueError, match="correlation"):
            DependenceSpec(mode="gaussian_copula", correlation=-1.0)

    def test_zero_correlation_allowed(self):
        assert DependenceSpec(mode="gaussian_copula", correlation=0.0).correlation == 0.0

    def test_correlation_matrix_constraints(self):
        DependenceSpec(mode="gaussian_copula",
                       correlation_matrix=((1.0, -0.5), (-0.5, 1.0)))
        with pytest.raises(ValueError, match="square"):
            DependenceSpec(mode="gaussian_copula",
                           correlation_matrix=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
        with pytest.raises(ValueError, match="diagonal"):
            DependenceSpec(mode="gaussian_copula",
                           correlation_matrix=((2.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="nonpositive"):
            DependenceSpec(mode="gaussian_copula",
                           correlation_matrix=((1.0, 0.4), (0.4, 1.0)))
        with pytest.raises(ValueError, match="semidefinite"):
            DependenceSpec(
                mode="gaussian_copula",
                correlation_matrix=((1.0, -0.9, -0.9),
                                    (-0.9, 1.0, -0.9),
                                    (-0.9, -0.9, 1.0)),
            )

    def test_joint_table_constraints(self):
        with pytest.raises(ValueError, match="joint_atoms"):
            DependenceSpec(mode="discrete_joint")
        with pytest.raises(ValueError, match="coordinate count"):
            DependenceSpec(mode="discrete_joint",
                           joint_atoms=(((0.0,), 0.5), ((1.0, 0.0), 0.5)))
        with pytest.raises(ValueError, match="at most 6"):
            DependenceSpec(mode="discrete_joint",
                           joint_atoms=(((0.0,) * 7, 0.5), ((1.0,) * 7, 0.5)))
        with pytest.raises(ValueError, match="distinct"):
            DependenceSpec(mode="discrete_joint",
                           joint_atoms=tuple(((float(i),), 1.0 / 6.0) for i in range(6)))
        with pytest.raises(ValueError, match="nonnegative"):
            DependenceSpec(mode="discrete_joint",
                           joint_atoms=(((0.0,), 1.5), ((1.0,), -0.5)))
        with pytest.raises(ValueError, match="sum"):
            DependenceSpec(mode="discrete_joint",
                           joint_atoms=(((0.0,), 0.5), ((1.0,), 0.4)))

    def test_joint_arrays_layout(self):
        assert COUNTERMONOTONE.joint_arity == 2
        coords, probs = COUNTERMONOTONE.joint_arrays()
        assert coords.shape == (2, 2)
        np.testing.assert_array_equal(coords[:, 0], [0.0, 1.0])
        np.testing.assert_allclose(probs, [0.5, 0.5])
        with pytest.raises(ValueError, match="no joint table"):
            DependenceSpec.independent().joint_arity

    def test_independent_factory(self):
        spec = DependenceSpec.independent()
        assert spec.mode == "per_measure_independent"
        assert spec.K == 1.0


class TestCorrelatePairs:
    def test_pairs_couple_and_trailing_row_is_untouched(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((5, 200_000))
        out = correlate_pairs(z, -0.6)
        assert out.shape == z.shape
        np.testing.assert_array_equal(out[4], z[4])
        np.testing.assert_array_equal(out[0], z[0])
        np.testing.assert_array_equal(out[2], z[2])
        for row in range(4):
            assert abs(float(np.mean(out[row]))) < 0.02
            assert abs(float(np.var(out[row])) - 1.0) < 0.02
        for a, b in ((0, 1), (2, 3)):
            r = float(np.corrcoef(out[a], out[b])[0, 1])
            assert r == pytest.approx(-0.6, abs=0.01)
        assert abs(float(np.corrcoef(out[1], out[2])[0, 1])) < 0.01

    def test_zero_correlation_is_identity(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((4, 100))
        np.testing.assert_array_equal(correlate_pairs(z, 0.0), z)

    def test_input_is_not_mutated(self):
        z = np.ones((2, 8))
        before = z.copy()
        correlate_pairs(z, -0.5)
        np.testing.assert_array_equal(z, before)

    def test_out_gives_the_bytes_of_a_new_array(self):
        z = np.random.default_rng(13).standard_normal((7, 300))
        rho = -0.4
        fresh = correlate_pairs(z, rho)
        expected = z.copy()
        expected[1:6:2] = rho * z[0:6:2] + math.sqrt(1.0 - rho**2) * z[1:6:2]
        assert fresh.tobytes() == expected.tobytes()
        other = np.empty_like(z)
        assert correlate_pairs(z, rho, out=other) is other
        assert other.tobytes() == fresh.tobytes()
        # A transposed view, as the pairwise copula passes its tiles.
        zt = np.ascontiguousarray(z.T).T
        assert correlate_pairs(zt, rho, out=zt) is zt
        assert np.ascontiguousarray(zt).tobytes() == fresh.tobytes()
        assert correlate_pairs(z, rho, out=z) is z and z.tobytes() == fresh.tobytes()


MATRIX = DependenceSpec(mode="gaussian_copula", correlation_matrix=(
    (1.0, -0.4, -0.1), (-0.4, 1.0, -0.3), (-0.1, -0.3, 1.0)))
# Two listed marginals, so rows 0 and 2 share the first.
UNIFORM_PARETO = ProductMeasure((Marginal.uniform(-1.0, 0.5), Marginal.pareto(1.5, 2.0)))


class TestTransformBlock:
    def test_independent_rows_take_the_measure_ppf(self):
        u = uniform_block(2026, 3, 400, context=2)
        expected = UNIFORM_PARETO.ppf(u)
        x = transform_block(u, UNIFORM_PARETO, DependenceSpec.independent())
        assert x.tobytes() == expected.tobytes()
        assert transform_block(u, UNIFORM_PARETO, DependenceSpec.independent(), out=u) is u
        assert u.tobytes() == expected.tobytes()

    def test_matrix_copula_is_the_cholesky_chain(self):
        u = uniform_block(2026, 3, 400, context=2)
        factor = np.linalg.cholesky(np.array(MATRIX.correlation_matrix) + 1e-12 * np.eye(3))
        assert MATRIX.cholesky_factor is MATRIX.cholesky_factor
        assert MATRIX.cholesky_factor.tobytes() == factor.tobytes()
        z = factor @ normal_scores(u)
        expected = np.stack([UNIFORM_PARETO.marginal(i).from_normal_score(z[i])
                             for i in range(3)])
        x = transform_block(u, UNIFORM_PARETO, MATRIX)
        assert x.tobytes() == expected.tobytes()
        assert transform_block(u, UNIFORM_PARETO, MATRIX, out=u) is u
        assert u.tobytes() == expected.tobytes()

    def test_matrix_copula_needs_its_length(self):
        with pytest.raises(ValueError, match="correlation matrix size"):
            transform_block(uniform_block(2026, 4, 10), UNIFORM_PARETO, MATRIX)

    def test_a_joint_table_is_not_a_transform(self):
        with pytest.raises(ValueError, match="joint-table"):
            transform_block(uniform_block(2026, 2, 10), UNIFORM_PARETO, COUNTERMONOTONE)

    @pytest.mark.parametrize("spec", [DependenceSpec.independent(), MATRIX,
                                      DependenceSpec(mode="gaussian_copula", correlation=-0.3)],
                             ids=["independent", "matrix", "pairs"])
    def test_the_sampler_draws_through_it(self, spec):
        family = MeasureFamily.singleton(UNIFORM_PARETO)
        x = SequenceSampler(spec, family, seed=5, context=4).draw(3, 300)
        expected = transform_block(uniform_block(5, 3, 300, context=4), UNIFORM_PARETO, spec)
        assert x.tobytes() == expected.tobytes()


class TestSequenceSampler:
    def test_blocks_reproducible_and_context_separated(self, standard_normal_family):
        spec = DependenceSpec(mode="gaussian_copula", correlation=-0.5)
        a = SequenceSampler(spec, standard_normal_family, seed=99).draw(4, 1000)
        b = SequenceSampler(spec, standard_normal_family, seed=99).draw(4, 1000)
        np.testing.assert_array_equal(a, b)
        c = SequenceSampler(spec, standard_normal_family, seed=99).draw(4, 1000, context=1)
        assert not np.array_equal(a, c)

    def test_copula_induces_negative_pair_correlation(self, standard_normal_family):
        spec = DependenceSpec(mode="gaussian_copula", correlation=-0.5)
        x = SequenceSampler(spec, standard_normal_family, seed=3).draw(4, 200_000)
        for a, b in ((0, 1), (2, 3)):
            assert float(np.corrcoef(x[a], x[b])[0, 1]) == pytest.approx(-0.5, abs=0.01)
        for row in range(4):
            assert abs(float(np.mean(x[row]))) < 0.02
            assert abs(float(np.var(x[row])) - 1.0) < 0.03

    @pytest.mark.parametrize("spec,n,digest", [
        (DependenceSpec(mode="gaussian_copula", correlation=-0.6), 5,
         "39e228a442dcf78a864062d956b8add7f15304778c72df9ca288828b1f54ebd0"),
        (DependenceSpec(mode="gaussian_copula", correlation_matrix=(
            (1.0, -0.4, -0.1), (-0.4, 1.0, -0.3), (-0.1, -0.3, 1.0))), 3,
         "8f3a39b60db65c47f9f676e1d606de5a5a82a33b1038e0d6fda3253b5d0161ce"),
    ], ids=["pairs", "matrix"])
    def test_copula_blocks_keep_their_pinned_bits(self, spec, n, digest):
        # Recorded when each step of the transform made a new array. One
        # marginal of each kind, so every from_normal_score form runs.
        family = make_singleton([
            Marginal.normal(0.3, 2.0), Marginal.uniform(-1.0, 0.5), Marginal.pareto(1.5, 2.0),
            Marginal.bernoulli(0.3), Marginal.discrete(((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25))),
        ])
        x = SequenceSampler(spec, family, seed=2026, context=7).draw(n, 5003)
        assert x.shape == (n, 5003) and x.flags.c_contiguous
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    def test_copula_requires_a_singleton_family(self):
        from conftest import make_location_family

        spec = DependenceSpec(mode="gaussian_copula", correlation=-0.5)
        with pytest.raises(ValueError, match="singleton"):
            SequenceSampler(spec, make_location_family(-0.3, 0.3))

    def test_joint_table_sampler_hits_only_listed_atoms(self):
        sampler = SequenceSampler(COUNTERMONOTONE, bernoulli_pair_family(), seed=5)
        x = sampler.draw(2, 50_000)
        assert set(map(tuple, x.T)) <= {(0.0, 1.0), (1.0, 0.0)}
        assert float(np.mean(x[0])) == pytest.approx(0.5, abs=0.01)


class TestVerifyEnd:
    def test_countermonotone_margin_is_a_quarter(self):
        report = verify_end(COUNTERMONOTONE, bernoulli_pair_family(),
                            g_case=(RAMP, RAMP), corpus_cases=0)
        assert report.kind == "end"
        assert report.passed
        row = report.cases[0]
        assert row["method"] == "enumeration"
        # E[g1]E[g2] - E[g1 g2] = 1/4 - 0 for 0/1 ramps on this table
        assert row["margin"] == pytest.approx(0.25, abs=1e-12)

    def test_no_case_to_check_is_an_error(self):
        with pytest.raises(ValueError, match="no case to check"):
            verify_end(COUNTERMONOTONE, bernoulli_pair_family(), corpus_cases=0)
        with pytest.raises(ValueError, match="no case to check"):
            verify_extended_independence(COUNTERMONOTONE, bernoulli_pair_family(),
                                         corpus_cases=0)

    def test_comonotone_table_violates_the_product_bound(self):
        report = verify_end(COMONOTONE, bernoulli_pair_family(),
                            g_case=(RAMP, RAMP), corpus_cases=0)
        assert not report.passed
        assert report.worst_case == "supplied"
        assert report.cases[0]["margin"] == pytest.approx(-0.25, abs=1e-12)

    def test_random_corpus_passes_countermonotone(self):
        report = verify_end(COUNTERMONOTONE, bernoulli_pair_family(), corpus_cases=8)
        assert report.passed
        assert report.n_cases == 8
        assert {row["method"] for row in report.cases} == {"enumeration"}
        assert all(row["margin"] >= -row["tolerance"] for row in report.cases)

    def test_lower_direction_corpus_passes(self):
        report = verify_end(COUNTERMONOTONE, bernoulli_pair_family(),
                            direction="lower", corpus_cases=6)
        assert report.passed
        assert report.direction == "lower"

    def test_mc_cross_check_agrees_with_enumeration(self):
        report = verify_end(COUNTERMONOTONE, bernoulli_pair_family(),
                            g_case=(RAMP, RAMP), corpus_cases=1,
                            mc_replications=50_000, mc_cross_check=True)
        assert report.passed
        for row in report.cases:
            assert row["mc_agrees"]
            assert abs(row["mc_joint"] - row["joint"]) <= 4.0 * row["mc_se"] + 1e-9

    def test_gaussian_copula_passes_for_monotone_functions(self, standard_normal_family):
        spec = DependenceSpec(mode="gaussian_copula", correlation=-0.5)
        case = (smooth_indicator(0.0, 0.5, "outer"),
                TestFunction.clamp_affine(0.5, 0.5, 0.0, 1.0))
        report = verify_end(spec, standard_normal_family, g_case=case, n=2,
                            corpus_cases=2, mc_replications=40_000)
        assert report.passed
        assert all(row["method"] == "mc" for row in report.cases)

    def test_declared_constant_flows_into_the_report(self):
        spec = DependenceSpec(
            mode="discrete_joint", K=2.0,
            joint_atoms=(((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)),
        )
        report = verify_end(spec, bernoulli_pair_family(), g_case=(RAMP, RAMP),
                            corpus_cases=0)
        assert report.K == 2.0
        assert verify_end(spec, bernoulli_pair_family(), g_case=(RAMP, RAMP),
                          corpus_cases=0, K=1.0).K == 1.0

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            verify_end(COUNTERMONOTONE, bernoulli_pair_family(), direction="sideways")

    def test_joint_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            verify_end(COUNTERMONOTONE, bernoulli_pair_family(), n=3)

    def test_unbounded_supplied_function_rejected(self):
        g = TestFunction.pos_power(2)
        with pytest.raises(ValueError, match="bound"):
            verify_end(COUNTERMONOTONE, bernoulli_pair_family(),
                       g_case=(g, g), corpus_cases=0)

    def test_non_monotone_supplied_function_rejected(self):
        bump = TestFunction(lambda x: np.exp(-x[0] ** 2), 1, name="bump",
                            nonnegative=True, sup_bound=1.0)
        with pytest.raises(ValueError, match="nondecreasing"):
            verify_end(COUNTERMONOTONE, bernoulli_pair_family(),
                       g_case=(bump, bump), corpus_cases=0)


class TestVerifyExtendedIndependence:
    def test_shared_parameter_family_fails_factorization(self, sigma_family):
        psi = (TestFunction.power(2), TestFunction.power(2))
        report = verify_extended_independence(DependenceSpec.independent(),
                                              sigma_family, psi_case=psi,
                                              corpus_cases=0)
        assert report.kind == "extended_independence"
        assert not report.passed
        row = report.cases[0]
        assert row["method"] == "exact"
        assert row["joint"] == pytest.approx(1.0, abs=1e-9)
        assert row["product_of_envelopes"] == pytest.approx(16.0, abs=1e-9)
        assert row["gap"] == pytest.approx(15.0, abs=1e-9)
        assert report.worst_margin == pytest.approx(-15.0, abs=1e-9)

    def test_single_product_measure_factorizes_exactly(self):
        fam = make_singleton(
            [Marginal.normal(0.0, 1.0), Marginal.normal(0.0, 2.0)], name="fixed-pair"
        )
        psi = (TestFunction.abs_power(1), TestFunction.power(2))
        report = verify_extended_independence(DependenceSpec.independent(), fam,
                                              psi_case=psi, corpus_cases=4)
        assert report.passed
        assert all(row["method"] == "exact" for row in report.cases)

    def test_countermonotone_table_fails_equality(self):
        report = verify_extended_independence(COUNTERMONOTONE,
                                              bernoulli_pair_family(),
                                              psi_case=(RAMP, RAMP),
                                              corpus_cases=0)
        assert not report.passed
        assert report.cases[0]["gap"] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_joint_arity_mismatch_rejected(self, n):
        # A one-coordinate check of the countermonotone pair would factorize
        # trivially and pass.
        with pytest.raises(ValueError, match=f"joint table has 2 coordinates, asked for {n}"):
            verify_extended_independence(COUNTERMONOTONE, bernoulli_pair_family(), n=n)


def test_report_summary_is_flat_and_complete():
    report = verify_end(COUNTERMONOTONE, bernoulli_pair_family(),
                        g_case=(RAMP, RAMP), corpus_cases=0)
    summary = report.summary()
    assert summary == {
        "kind": "end",
        "direction": "upper",
        "K": 1.0,
        "passed": True,
        "worst_margin": report.worst_margin,
        "worst_case": "supplied",
        "n_cases": 1,
    }


@given(data=st.data(), center=st.floats(-5.0, 5.0), width=st.floats(1e-3, 5.0),
       reversed_ramp=st.booleans(), pos=st.integers(0, 41))
def test_corpus_functions_act_elementwise(data, center, width, reversed_ramp, pos):
    """The END corpus's own functions give quadrature, which calls them on
    many nodes at once, the bits of each node on its own."""
    f = (_reversed_smooth if reversed_ramp else _abs_window)(center, width)
    edges = [v for e in f.breakpoints
             for v in (e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf))]
    x = data.draw(st.one_of(st.sampled_from([0.0, -0.0, *edges]),
                            st.floats(allow_nan=False, allow_infinity=False)))
    nodes = np.insert(np.linspace(center - 2.0 * width, center + 2.0 * width, 41), pos, x)
    with np.errstate(all="ignore"):
        want = float(f.fn(np.array([[x]]))[0])
        got = float(f.fn(nodes[None, :])[pos])
    assert got.hex() == want.hex()
