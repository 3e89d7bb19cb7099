"""End-to-end acceptance checks, one verdict line per shipped guarantee.

Every test prints a single PASS/FAIL line with its headline numbers and
elapsed time, then asserts the stated tolerances and runtime budget.

Two checks are expected to fail at desk scale and are kept at their
stated strength instead of being loosened:

* the strong-law band: at burn-in 1000 the fluctuation scale
  sqrt(2 log log n / n) ~ 0.062 exceeds the 0.05 band margin, so zero
  band exits out of 200 trajectories are statistically out of reach;
* the independent iterated-logarithm leg: over the 143 checkpoints in
  n in [1e3, 1e6], the running max of S_n / sqrt(2 n log log n) has
  median 0.72 and 95th percentile near 1.32, and about 11% of
  trajectories exceed the 1.15 cap, so only about 6% of seeds keep 48
  of 50 trajectories under it (an exact Gaussian walk at the
  checkpoints, two runs of 100 000 walks; the negatively coupled leg
  passes with slack because pairwise correlation -0.5 halves the
  variance of the sums).
"""

import itertools
import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from caplim import Marginal, MeasureFamily, ProductMeasure, SublinearEngine
from caplim.bounds import (
    BoundInputs,
    chebyshev_bound,
    choquet_moment_bound,
    conjugate_split_bound,
    kolmogorov_exponential_bound,
    moricz_constant,
    moricz_maximal_bound,
    moricz_maximal_bound_text_form,
    power_tail_bound,
    split_moment_bound,
)
from caplim.cli import main
from caplim.config import parse_config
from caplim.limits import run_experiment
from caplim.sublinear import TestFunction, run_axiom_suite

from conftest import make_bernoulli_family, make_singleton

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

mpmath.mp.dps = 50


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance[{name}]: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. Reciprocal-variance family: envelope of the product vs product of
#    envelopes, on both evaluation paths.


def test_family_example_reproduction(capsys, sigma_family):
    t0 = time.perf_counter()
    engine = SublinearEngine(sigma_family, mc_replications=100_000, seed=2026)

    closed = engine.upper_exp(
        TestFunction.prod([TestFunction.power(2), TestFunction.power(2)])
    )
    first = engine.sup_marginal_moment(2.0, kind="raw", coordinate=0)
    second = engine.sup_marginal_moment(2.0, kind="raw", coordinate=1)
    closed_product = first[0] * second[0]

    mc_joint = engine.upper_exp(
        TestFunction(lambda x: x[0] ** 2 * x[1] ** 2, 2, name="x1sq*x2sq")
    )
    mc_product = (
        engine.upper_exp(TestFunction(lambda x: x[0] ** 2, 1, name="x1sq")).value
        * engine.upper_exp(TestFunction(lambda x: x[1] ** 2, 2, name="x2sq")).value
    )
    elapsed = time.perf_counter() - t0

    ok = (
        closed.method == "closed_form"
        and abs(closed.value - 1.0) <= 1e-12
        and abs(closed_product - 16.0) <= 1e-11
        and mc_joint.method == "mc"
        and abs(mc_joint.value - 1.0) <= 0.02
        and abs(mc_product - 16.0) <= 0.04 * 16.0
        and elapsed < 10.0
    )
    _verdict(capsys, "family-example", ok,
             f"closed {closed.value:.12f}, product {closed_product:.10f}, "
             f"mc {mc_joint.value:.4f} / {mc_product:.3f}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. Randomized axiom corpus: envelope axioms, conjugacy, capacity
#    relations, and the Choquet moment domination.


def test_axiom_corpus(capsys):
    t0 = time.perf_counter()
    suite = run_axiom_suite(n_cases=120, seed=2026, mc_every=10,
                            mc_replications=20_000)
    elapsed = time.perf_counter() - t0
    ok = (
        suite["passed"]
        and suite["n_cases"] >= 100
        and suite["n_failures"] == 0
        and elapsed < 120.0
    )
    _verdict(capsys, "axiom-corpus", ok,
             f"{suite['n_cases']} cases, {suite['n_failures']} failures, "
             f"{len(suite['by_axiom'])} checks, {elapsed:.1f}s")
    assert ok, suite["by_axiom"]


# ---------------------------------------------------------------------------
# 3. Exhaustive dominance: exact capacities of centered discrete product
#    families against every closed-form tail bound.


def _random_discrete_family(rng):
    """Family of product tables: per-coordinate atom lists, centered so
    every worst-case coordinate mean is nonpositive."""
    n = int(rng.integers(1, 7))
    n_measures = int(rng.integers(1, 4))
    coords = []
    for _ in range(n):
        per_measure = []
        for _ in range(n_measures):
            k = int(rng.integers(2, 5))
            values = np.sort(rng.uniform(-3.0, 3.0, size=k))
            probs = rng.dirichlet(np.ones(k))
            per_measure.append((values, probs))
        upper_mean = max(float(v @ p) for v, p in per_measure)
        per_measure = [(v - upper_mean, p) for v, p in per_measure]
        assert max(float(v @ p) for v, p in per_measure) <= 1e-9
        coords.append(per_measure)
    return n, n_measures, coords


def _enumerate_sums(coords, g):
    """Outcome values and probabilities of S_n under measure index g."""
    values = [coords[k][g][0] for k in range(len(coords))]
    probs = [coords[k][g][1] for k in range(len(coords))]
    sums = np.zeros(1)
    weight = np.ones(1)
    for v, p in zip(values, probs):
        sums = (sums[:, None] + v[None, :]).ravel()
        weight = (weight[:, None] * p[None, :]).ravel()
    return sums, weight


def _exact_pos_choquet(per_measure, p):
    """Exact upper Choquet integral of (X^+)^p for one coordinate."""
    levels = sorted({float(max(v, 0.0)) ** p
                     for values, _ in per_measure for v in values if v > 0})
    total = 0.0
    prev = 0.0
    for w in levels:
        tail = max(float(probs[np.maximum(values, 0.0) ** p >= w - 1e-15].sum())
                   for values, probs in per_measure)
        total += (w - prev) * tail
        prev = w
    return total


def test_exhaustive_bound_dominance(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260)
    checks = 0
    violations = []
    for corpus in range(200):
        n, n_measures, coords = _random_discrete_family(rng)
        p = int(rng.integers(2, 5))

        enum = [_enumerate_sums(coords, g) for g in range(n_measures)]
        second = sum(max(float(v**2 @ pr) for v, pr in coord) for coord in coords)
        pos_p = sum(max(float(np.clip(v, 0.0, None) ** p @ pr) for v, pr in coord)
                    for coord in coords)
        abs_p = sum(max(float(np.abs(v) ** p @ pr) for v, pr in coord)
                    for coord in coords)
        per_term = [_exact_pos_choquet(coord, p) for coord in coords]
        assert second > 0.0

        def cap_upper(x):
            return max(float(w[s >= x - 1e-12].sum()) for s, w in enum)

        def cap_lower(x):
            return min(float(w[s >= x - 1e-12].sum()) for s, w in enum)

        def cap_max_term(y):
            worst = 0.0
            for g in range(n_measures):
                miss = 1.0
                for values, probs in (coords[k][g] for k in range(n)):
                    miss *= float(probs[values < y - 1e-12].sum())
                worst = max(worst, 1.0 - miss)
            return worst

        sigma = math.sqrt(second)
        base = BoundInputs(n=n, variance_sum=second, K=1.0)
        split_in = BoundInputs(n=n, variance_sum=second, K=1.0, order=p,
                               pos_moment_sum=pos_p, split=0.5)
        conj_split_in = BoundInputs(n=n, variance_sum=second, K=1.0, order=p,
                                    abs_moment_sum=abs_p, split=0.5)
        moment_in = BoundInputs(n=n, variance_sum=second, K=1.0, order=p)
        y_grid = np.geomspace(0.01 * sigma, 10.0 * sigma, 25)
        r_grid = (0.5, 1.0, 2.0, 4.0, 8.0)

        for x in np.geomspace(0.1 * sigma, 6.0 * sigma, 20):
            x = float(x)
            upper = cap_upper(x)
            lower = cap_lower(x)
            trunc = [BoundInputs(n=n, variance_sum=second, K=1.0,
                                 truncation=float(y)) for y in y_grid]
            bounds_upper = {
                "exponential": min(
                    float(kolmogorov_exponential_bound(ti, x)) + cap_max_term(float(y))
                    for ti, y in zip(trunc, y_grid)),
                "split": float(split_moment_bound(split_in, x)),
                "power": min(
                    float(power_tail_bound(
                        BoundInputs(n=n, variance_sum=second, K=1.0,
                                    tail_power=r), x)) + cap_max_term(x / r)
                    for r in r_grid),
                "chebyshev": float(chebyshev_bound(base, x)),
                "positive_moment": float(
                    choquet_moment_bound(moment_in, per_term)) / x**p,
            }
            bounds_lower = {
                "conj_exponential": min(
                    float(kolmogorov_exponential_bound(ti, x)) + cap_max_term(float(y))
                    for ti, y in zip(trunc, y_grid)),
                "conj_split": float(conjugate_split_bound(conj_split_in, x)),
                "conj_chebyshev": float(chebyshev_bound(base, x)),
            }
            for name, b in bounds_upper.items():
                checks += 1
                if upper > b + 1e-12:
                    violations.append((corpus, name, x, upper, b))
            for name, b in bounds_lower.items():
                checks += 1
                if lower > b + 1e-12:
                    violations.append((corpus, name, x, lower, b))

    elapsed = time.perf_counter() - t0
    ok = not violations and checks >= 200 * 20 * 8 and elapsed < 300.0
    _verdict(capsys, "exhaustive-dominance", ok,
             f"200 corpora, {checks} comparisons, {len(violations)} violations, "
             f"{elapsed:.1f}s")
    assert ok, violations[:5]


# ---------------------------------------------------------------------------
# 4. Monte Carlo dominance on the centered normal location family.


def test_mc_bound_dominance(capsys):
    t0 = time.perf_counter()
    bundle = parse_config(str(CONFIG_DIR / "bound_check_normal.yaml"))
    result = run_experiment(bundle.experiment_config())
    elapsed = time.perf_counter() - t0
    ok = (
        result.passed
        and result.summary["flags"] == []
        and result.summary["n"] == 1000
        and result.summary["trajectories_per_measure"] == 10_000
        and elapsed < 300.0
    )
    _verdict(capsys, "mc-dominance", ok,
             f"{len(result.tables['bound_check'][1])} thresholds, "
             f"{len(result.summary['flags'])} flags, {elapsed:.1f}s")
    assert ok, result.summary["flags"]


# ---------------------------------------------------------------------------
# 5. Maximal inequality: exact enumeration of E[max (S_m^+)^p] under the
#    one-block and dyadic bounds, plus the block-constant arithmetic.


def _exact_max_pos_power(values, probs, n, p):
    total = 0.0
    for path in itertools.product(range(len(values)), repeat=n):
        prob = math.prod(probs[i] for i in path)
        s = 0.0
        peak = 0.0
        for i in path:
            s += values[i]
            peak = max(peak, s)
        total += prob * peak**p
    return total


def test_maximal_inequality(capsys):
    t0 = time.perf_counter()
    laws = {
        "rademacher": (np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
        "skew-up": (np.array([-1.0, 2.0]), np.array([0.75, 0.25])),
        "skew-down": (np.array([-0.5, 1.0]), np.array([0.8, 0.2])),
    }
    worst_slack = math.inf
    for name, (values, probs) in laws.items():
        assert float(values @ probs) <= 0.0
        second = float(values**2 @ probs)
        pos_choquet = {p: float(np.clip(values, 0.0, None) ** p @ probs)
                       for p in (3, 4)}
        for n in (4, 8):
            for p in (3, 4):
                exact = _exact_max_pos_power(values, probs, n, p)
                inputs = BoundInputs(n=n, variance_sum=n * second, K=1.0, order=p)
                dyadic = moricz_maximal_bound(inputs, pos_choquet[p], second)
                text = moricz_maximal_bound_text_form(inputs, pos_choquet[p], second)
                assert exact <= dyadic <= text
                worst_slack = min(worst_slack, dyadic / max(exact, 1e-12))

    gamma = {p: mpmath.mpf(p - 2) / (2 * p) for p in (3, 4, 5)}
    defining = all(
        1.0 + moricz_constant(p) ** (-1.0 / p) <= 2.0 ** ((p - 2) / (2.0 * p))
        for p in (3, 4, 5)
    )
    induction = True
    for p in (3, 4, 5):
        m = mpmath.mpf(moricz_constant(p))
        k1, k2 = mpmath.mpf("0.7"), mpmath.mpf("1.3")
        bump = m ** (-mpmath.mpf(1) / p)

        def level(i):
            return m * 2**i * (k1 * i + k2 * 2 ** (gamma[p] * i)) ** p

        for i in range(1, 21):
            two_term = level(i) + m * 2**i * (
                k1 * (i + bump) + k2 * 2 ** (gamma[p] * i) * (1 + bump)
            ) ** p
            induction = induction and two_term <= level(i + 1)

    elapsed = time.perf_counter() - t0
    ok = defining and induction and elapsed < 60.0
    _verdict(capsys, "maximal-inequality", ok,
             f"3 laws x n in (4,8) x p in (3,4), min bound/exact "
             f"{worst_slack:.1f}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 6. Strong-law band at desk scale. Expected to fail honestly: at burn-in
#    1e3 the fluctuation scale sqrt(2 log log n / n) ~ 0.062 exceeds the
#    0.05 band margin, so some of the 200 trajectories must leave the band.


def test_strong_law_band(capsys):
    t0 = time.perf_counter()
    bundle = parse_config(str(CONFIG_DIR / "slln_normal_band.yaml"))
    result = run_experiment(bundle.experiment_config())
    elapsed = time.perf_counter() - t0
    ok = (
        result.passed
        and result.summary["violations"] == 0
        and elapsed < 120.0
    )
    _verdict(capsys, "strong-law-band", ok,
             f"{result.summary['violations']} of {2 * 100} trajectories left "
             f"[-1.05, 1.05], {elapsed:.1f}s")
    assert ok, f"{result.summary['violations']} band exits"


# ---------------------------------------------------------------------------
# 7. Cluster coverage of the mean interval.


def test_cluster_coverage(capsys):
    t0 = time.perf_counter()
    bundle = parse_config(str(CONFIG_DIR / "cluster_normal.yaml"))
    result = run_experiment(bundle.experiment_config())
    elapsed = time.perf_counter() - t0
    ok = result.passed and result.summary["coverage"] >= 0.95 and elapsed < 120.0
    _verdict(capsys, "cluster-coverage", ok,
             f"coverage {result.summary['coverage']:.3f} of "
             f"{len(result.summary['targets'])} targets, {elapsed:.1f}s")
    assert ok, result.summary


# ---------------------------------------------------------------------------
# 8. Iterated-logarithm envelope at desk scale, independent and coupled.
# The independent leg is expected to fail honestly: the running max over
# three decades has its 95th percentile near 1.32, above the 1.15 cap (see
# module docstring), while halved sum variance carries the coupled leg.


def test_iterated_logarithm_envelope(capsys):
    t0 = time.perf_counter()
    plain = run_experiment(
        parse_config(str(CONFIG_DIR / "lil_standard_normal.yaml")).experiment_config()
    )
    coupled = run_experiment(
        parse_config(str(CONFIG_DIR / "lil_negative_copula.yaml")).experiment_config()
    )
    elapsed = time.perf_counter() - t0
    ok = (
        plain.passed
        and plain.summary["fraction_upper_ok"] >= 0.95
        and coupled.passed
        and coupled.summary["fraction_upper_ok"] >= 0.95
        and elapsed < 300.0
    )
    _verdict(capsys, "iterated-logarithm", ok,
             f"fraction within 1.15: plain {plain.summary['fraction_upper_ok']:.2f}, "
             f"coupled {coupled.summary['fraction_upper_ok']:.2f}, {elapsed:.1f}s")
    assert ok, (plain.summary, coupled.summary)


# ---------------------------------------------------------------------------
# 9. Divergence necessity: heavy tails force unbounded running means and
#    carry a divergent first-moment integral; light tails do neither.


def test_divergence_necessity(capsys):
    t0 = time.perf_counter()
    pareto = run_experiment(
        parse_config(str(CONFIG_DIR / "necessity_pareto.yaml")).experiment_config()
    )
    normal = run_experiment(
        parse_config(str(CONFIG_DIR / "necessity_normal.yaml")).experiment_config()
    )

    pareto_family = make_singleton([Marginal.pareto(1.0, 1.0)], name="pareto-one")
    heavy = SublinearEngine(pareto_family, seed=2026).choquet(
        TestFunction.abs_power(1.0), capacity="upper"
    )
    bern = SublinearEngine(make_bernoulli_family(0.2, 0.8), seed=2026).choquet(
        TestFunction.abs_power(1.0), capacity="upper"
    )
    elapsed = time.perf_counter() - t0

    ok = (
        pareto.passed
        and pareto.summary["exceed_fraction"] >= 0.9
        and normal.passed
        and normal.summary["exceed_fraction"] == 0.0
        and heavy.divergent
        and not bern.divergent
        and abs(bern.value - 0.8) <= 0.01 * 0.8
        and elapsed < 300.0
    )
    _verdict(capsys, "divergence-necessity", ok,
             f"pareto exceed {pareto.summary['exceed_fraction']:.2f}, normal "
             f"{normal.summary['exceed_fraction']:.2f}, integral divergent "
             f"{heavy.divergent}, bernoulli {bern.value:.4f}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 10. Worker-count determinism of the CLI artifacts.


def test_worker_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "band.yaml"
    cfg.write_text(
        "family:\n"
        "  name: small-band\n"
        "  parameters:\n"
        "  - name: mu\n"
        "    domain: [-0.3, 0.3]\n"
        "  marginals:\n"
        "  - kind: normal\n"
        "    mean: mu\n"
        "    var: 1.0\n"
        "  K: 1.0\n"
        "  resolution: 5\n"
        "experiment:\n"
        "  mode: slln\n"
        "  horizon: 20000\n"
        "  trajectories: 12\n"
        "  burn_in: 500\n"
        "  epsilon: 0.2\n"
        "  seed: 2026\n"
    )
    outs = {}
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        rc = main(["experiment", "slln", "--config", str(cfg),
                   "--out", str(out), "--workers", str(workers)])
        assert rc == 0
        outs[workers] = out

    result_match = (outs[1] / "result.json").read_bytes() == \
        (outs[3] / "result.json").read_bytes()
    csv_match = (outs[1] / "slln.csv").read_bytes() == \
        (outs[3] / "slln.csv").read_bytes()
    digest1 = json.loads((outs[1] / "manifest.json").read_text())["outputs"]
    digest3 = json.loads((outs[3] / "manifest.json").read_text())["outputs"]
    elapsed = time.perf_counter() - t0

    ok = result_match and csv_match and digest1 == digest3
    _verdict(capsys, "worker-determinism", ok,
             f"result.json and slln.csv byte-identical across workers 1 and 3, "
             f"{elapsed:.1f}s")
    assert ok
