"""Dependence structures for sequences, and verifiers for their defining
inequalities.

Three constructions are supported. ``per_measure_independent`` draws the
coordinates independently under each measure of the family; the envelope over
the family is then negatively dependent with constant K = 1 even though it is
generally not (extended) independent. ``gaussian_copula`` couples the
coordinates of a single-measure family through nonpositively correlated
Gaussians, with the dominating constant declared, never inferred.
``discrete_joint`` takes an explicit joint probability table over a few
coordinates.

The verifiers compute both sides of the defining inequality

    envelope_E[ prod_i g_i(X_i) ] <= K * prod_i envelope_E[ g_i(X_i) ]

for nonnegative bounded test functions that are all nondecreasing (upper
direction) or all nonincreasing (lower direction), on exact paths where the
structure allows and by common-random-number Monte Carlo otherwise. The
extended-independence verifier tests the equality variant with no
monotonicity requirement. Both audit every test function, supplied or drawn
from the corpus, on a grid over each coordinate before computing either
side, and both read the two sides of every case off per-measure rows by one
envelope rule, ``_sides``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .measures import (Marginal, MeasureFamily, ProductMeasure, normal_scores, philox_stream,
                       uniform_block)
from .sublinear import (TestFunction, _extreme, _mc_estimate, marginal_expectation,
                        smooth_indicator)

__all__ = [
    "DependenceSpec",
    "EndReport",
    "SequenceSampler",
    "correlate_pairs",
    "transform_block",
    "verify_end",
    "verify_extended_independence",
]

# mode -> the optional keys it reads
_MODES = {
    "per_measure_independent": (),
    "gaussian_copula": ("correlation", "correlation_matrix"),
    "discrete_joint": ("joint_atoms",),
}


@dataclass(frozen=True)
class DependenceSpec:
    """Declares how a sequence of coordinates is coupled.

    ``correlation`` is the common within-pair correlation of the Gaussian
    copula (consecutive coordinates are paired; it must be nonpositive).
    ``correlation_matrix`` may be given instead for a full joint Gaussian
    coupling. ``joint_atoms`` lists ((x_1, ..., x_d), probability) entries of
    an explicit joint table. ``K`` is the declared dominating constant.
    """

    mode: str
    K: float = 1.0
    correlation: float | None = None
    correlation_matrix: tuple | None = None
    joint_atoms: tuple | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {tuple(_MODES)}, got {self.mode!r}")
        if not 1.0 <= self.K < math.inf:
            raise ValueError(f"dominating constant K must be finite and >= 1, got {self.K}")
        for key in ("correlation", "correlation_matrix", "joint_atoms"):
            if getattr(self, key) is not None and key not in _MODES[self.mode]:
                raise ValueError(f"{self.mode} does not read {key}")
        if self.mode == "gaussian_copula":
            if (self.correlation is None) == (self.correlation_matrix is None):
                raise ValueError("gaussian_copula needs exactly one of correlation and "
                                 "correlation_matrix")
            if self.correlation is not None and not -1.0 < self.correlation <= 0.0:
                raise ValueError(f"pair correlation must lie in (-1, 0], got {self.correlation}")
            if self.correlation_matrix is not None:
                mat = np.asarray(self.correlation_matrix, dtype=float)
                if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                    raise ValueError("correlation_matrix must be square")
                if not np.all(np.isfinite(mat)):
                    raise ValueError("correlation_matrix entries must be finite")
                if not np.allclose(np.diag(mat), 1.0):
                    raise ValueError("correlation_matrix must have unit diagonal")
                off = mat - np.diag(np.diag(mat))
                if np.any(off > 1e-12):
                    raise ValueError("correlation_matrix off-diagonals must be nonpositive")
                eigs = np.linalg.eigvalsh(mat)
                if eigs.min() < -1e-10:
                    raise ValueError("correlation_matrix must be positive semidefinite")
        if self.mode == "discrete_joint":
            if not self.joint_atoms:
                raise ValueError("discrete_joint needs joint_atoms")
            dims = {len(coords) for coords, _ in self.joint_atoms}
            if len(dims) != 1:
                raise ValueError("joint atoms must share one coordinate count")
            d = dims.pop()
            if d > 6:
                raise ValueError(f"joint tables support at most 6 coordinates, got {d}")
            for i in range(d):
                values = {coords[i] for coords, _ in self.joint_atoms}
                if len(values) > 5:
                    raise ValueError(f"coordinate {i} has {len(values)} distinct values, max is 5")
            coords, probs = self.joint_arrays()
            if not (np.all(np.isfinite(coords)) and np.all(np.isfinite(probs))):
                raise ValueError("joint_atoms points and probabilities must be finite")
            if np.any(probs < -1e-15):
                raise ValueError("joint probabilities must be nonnegative")
            if abs(float(probs.sum()) - 1.0) > 1e-12:
                raise ValueError(f"joint probabilities sum to {probs.sum()}, not 1")

    @cached_property
    def cholesky_factor(self) -> np.ndarray:
        """Lower Cholesky factor of ``correlation_matrix``, computed once; a
        tiny jitter keeps it defined at semidefinite boundaries."""
        mat = np.asarray(self.correlation_matrix, dtype=float)
        return np.linalg.cholesky(mat + 1e-12 * np.eye(len(mat)))

    @property
    def joint_arity(self) -> int:
        if self.joint_atoms is None:
            raise ValueError("no joint table in this spec")
        return len(self.joint_atoms[0][0])

    def joint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint table as ((d, M) coordinates, (M,) probabilities)."""
        coords = np.array([c for c, _ in self.joint_atoms], dtype=float).T
        probs = np.array([p for _, p in self.joint_atoms], dtype=float)
        return coords, probs

    @staticmethod
    def independent() -> "DependenceSpec":
        return DependenceSpec(mode="per_measure_independent", K=1.0)


def correlate_pairs(z: np.ndarray, rho: float, out: np.ndarray | None = None) -> np.ndarray:
    """Couple consecutive rows of independent standard normals pairwise.

    Rows (0,1), (2,3), ... become correlated with coefficient rho; an odd
    trailing row is left untouched. Marginals stay standard normal. The
    result is a new array, or ``out`` (a float64 array shaped like ``z``,
    possibly ``z`` itself) with the same bits.
    """
    if out is None:
        out = np.array(z, dtype=float, copy=True)
    elif out is not z:
        out[...] = z
    pairs = out.shape[0] // 2
    if pairs and rho != 0.0:
        # The bits of rho * lead + sqrt(1 - rho**2) * trail: both operations
        # commute exactly, so trail is scaled in place and rho * lead added.
        trail = out[1 : 2 * pairs : 2]
        trail *= math.sqrt(1.0 - rho**2)
        trail += rho * out[0 : 2 * pairs : 2]
    return out


def transform_block(u: np.ndarray, measure: ProductMeasure, spec: DependenceSpec,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Draws under ``measure`` from an (n, m) uniform block of n coordinates,
    coupled along axis 0 as ``spec`` declares, by m replications. The result
    is new, or ``out`` (possibly ``u``) with the same bits.
    """
    if spec.mode == "per_measure_independent":
        return measure.ppf(u, out=out)
    if spec.mode != "gaussian_copula":
        raise ValueError("joint-table dependence is a fixed block of atoms and drives no "
                         "sequence; only a bound-check with horizon equal to its arity reads it")
    z = normal_scores(u, out=out)
    if spec.correlation_matrix is None:
        correlate_pairs(z, spec.correlation, out=z)
    elif z.shape[0] == len(spec.correlation_matrix):
        z[...] = spec.cholesky_factor @ z
    else:
        raise ValueError("sequence length must match the correlation matrix size")
    for marginal, rows in measure.row_groups(z.shape[0]):
        marginal.from_normal_score(z[rows], out=z[rows])
    return z


@dataclass
class SequenceSampler:
    """Seeded sampler of coordinate blocks under a dependence spec.

    ``draw`` returns an (n, m) block: n sequence coordinates by m independent
    replications, with replication j fed from the counter-based stream
    (seed, context, j), so blocks are reproducible regardless of how callers
    chunk or parallelize replications.
    """

    spec: DependenceSpec
    family: MeasureFamily
    seed: int = 2026

    def __post_init__(self) -> None:
        if self.spec.mode == "gaussian_copula" and not self.family.is_singleton:
            raise ValueError(
                "the Gaussian copula coupling is defined for a single measure; "
                "combine it with a singleton family"
            )

    def draw(self, n: int, m: int, measure: ProductMeasure | None = None,
             context: int = 0) -> np.ndarray:
        if self.spec.mode == "discrete_joint":
            if n != self.spec.joint_arity:
                raise ValueError(f"joint table has {self.spec.joint_arity} coordinates, asked for {n}")
            # Each replication draws its atom's index by the discrete ppf.
            coords, probs = self.spec.joint_arrays()
            u = uniform_block(self.seed, 1, m, context=context)[0]
            idx = Marginal.discrete(enumerate(probs)).ppf(u)
            return coords[:, idx.astype(np.intp)]

        if measure is None:
            if not self.family.is_singleton:
                raise ValueError("pass the measure to draw under for a non-singleton family")
            measure = self.family.measures()[0][1]
        u = uniform_block(self.seed, n, m, context=context)
        return transform_block(u, measure, self.spec, out=u)


@dataclass(frozen=True)
class EndReport:
    """Outcome of a dependence verification sweep."""

    kind: str
    direction: str | None
    K: float
    passed: bool
    worst_margin: float
    worst_case: str
    n_cases: int
    cases: tuple = ()

    def summary(self) -> dict:
        """Every field but ``cases``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "cases"}


def _audit_box(family: MeasureFamily, spec: DependenceSpec, n: int) -> list[tuple[float, float]]:
    if spec.mode == "discrete_joint":
        coords, _ = spec.joint_arrays()
        return [(float(coords[i].min()) - 1.0, float(coords[i].max()) + 1.0)
                for i in range(coords.shape[0])]
    box = []
    for i in range(n):
        lo, hi = math.inf, -math.inf
        for _, mu in family.measures():
            marg = mu.marginal(i)
            lo = min(lo, float(marg.ppf(1e-9)))
            hi = max(hi, float(marg.ppf(1.0 - 1e-9)))
        box.append((max(lo, -1e8), min(hi, 1e8)))
    return box


def _audit_monotone(g: TestFunction, direction: str | None, lo: float, hi: float,
                    points: int = 256) -> None:
    """Reject functions that fail the nonnegativity / monotonicity audit."""
    grid = np.linspace(lo, hi, points)
    vals = g(grid)
    if np.isnan(vals).any():
        raise ValueError(f"test function {g.name} is NaN on the audit grid")
    scale = 1.0 + float(np.max(np.abs(vals)))
    if np.any(vals < -1e-12 * scale):
        raise ValueError(f"test function {g.name} takes negative values on the audit grid")
    if direction is None:
        return
    diffs = np.diff(vals)
    if direction == "upper" and np.any(diffs < -1e-9 * scale):
        raise ValueError(f"test function {g.name} is not nondecreasing on the audit grid")
    if direction == "lower" and np.any(diffs > 1e-9 * scale):
        raise ValueError(f"test function {g.name} is not nonincreasing on the audit grid")


def _reversed_smooth(threshold: float, width: float) -> TestFunction:
    return TestFunction.indicator_complement(smooth_indicator(threshold, width, "outer"))


def _abs_window(center: float, halfwidth: float) -> TestFunction:
    c, a = float(center), float(halfwidth)
    return TestFunction(
        fn=lambda x: np.abs(np.clip(x[0] - c, -a, a)),
        arity=1,
        name=f"|clip(x-{c:g})|",
        sup_bound=a,
        breakpoints=(c - a, c, c + a),
    )


def _corpus_function(rng: np.random.Generator, direction: str | None,
                     lo: float, hi: float) -> TestFunction:
    span = max(hi - lo, 1e-6)
    c = float(rng.uniform(lo + 0.1 * span, hi - 0.1 * span))
    w = float(rng.uniform(0.05, 0.4)) * span
    if direction == "upper":
        if rng.random() < 0.5:
            return smooth_indicator(c, w, "outer" if rng.random() < 0.5 else "inner")
        a = float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(0.0, 1.0))
        top = float(rng.uniform(0.5, 3.0))
        return TestFunction.clamp_affine(a, b, 0.0, top)
    if direction == "lower":
        if rng.random() < 0.5:
            return _reversed_smooth(c, w)
        a = -float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(0.0, 1.0))
        top = float(rng.uniform(0.5, 3.0))
        return TestFunction.clamp_affine(a, b, 0.0, top)
    pick = rng.random()
    if pick < 1.0 / 3.0:
        return smooth_indicator(c, w, "outer")
    if pick < 2.0 / 3.0:
        return _abs_window(c, w)
    a = float(rng.uniform(-2.0, 2.0))
    b = float(rng.uniform(0.0, 1.0))
    return TestFunction.clamp_affine(a, b, 0.0, float(rng.uniform(0.5, 3.0)))


# -- evaluation paths -------------------------------------------------------------


def _sides(joints, means, joint_ses=None, ses=None) -> tuple[float, float, float]:
    """(envelope of the joint value, product of the coordinate envelopes,
    pooled SE) from per-measure rows: ``joints[k]`` and ``means[k][i]`` under
    measure k, with their standard errors on the Monte Carlo path.

    Every envelope is an ``_extreme`` pick, so ties go to the first measure,
    and each SE is the one at the measure attaining its envelope; the
    product's SE comes by the delta method. Rows without SEs are exact and
    give SE 0.0, not the delta method over zeros, which an infinite
    envelope would turn into NaN.
    """
    joint, k = _extreme(joints)
    picks = [_extreme(column) for column in np.transpose(means)]
    env = [v for v, _ in picks]
    if joint_ses is None:
        return joint, math.prod(env), 0.0
    prod_se = 0.0
    for i, (_, at) in enumerate(picks):
        prod_se += abs(math.prod(env[:i] + env[i + 1:])) * ses[at][i]
    return joint, math.prod(env), math.sqrt(joint_ses[k] ** 2 + prod_se**2)


def _case_stats(case: Sequence[TestFunction], x: np.ndarray, stat):
    """``stat`` of the product of each g_i on row i of ``x``, and of each
    g_i's values; besides ``x`` only the running product and one row of
    values are live."""
    joint = np.ones(x.shape[1])
    stats = []
    for i, g in enumerate(case):
        vals = g(x[i])
        joint *= vals
        stats.append(stat(vals, g.name))
    return stat(joint, "*".join(g.name for g in case)), stats


def _exact_sides(spec: DependenceSpec, family: MeasureFamily, case: Sequence[TestFunction]):
    """(sides, method) by enumerating a joint table or, for independent
    coordinates, from each measure's exact marginal expectations; None when
    a marginal has no exact path."""
    if spec.mode == "discrete_joint":
        coords, probs = spec.joint_arrays()
        joint, means = _case_stats(case, coords, lambda vals, _: float(np.dot(probs, vals)))
        return _sides([joint], [means]), "enumeration"
    if spec.mode != "per_measure_independent":
        return None
    rows = []
    for _, mu in family.measures():
        row = [marginal_expectation(mu.marginal(i), g) for i, g in enumerate(case)]
        if None in row:
            return None
        rows.append(row)
    return _sides([math.prod(row) for row in rows], rows), "exact"


def _mc_sides(sampler: SequenceSampler, case: Sequence[TestFunction], m: int,
              context: int) -> tuple[float, float, float]:
    """Monte Carlo sides of ``case`` from one uniform block, drawn once and
    transformed under each measure; a joint table's draw reads no measure,
    so it gives one row. A NaN value leaves no estimate, so it is an error."""
    if sampler.spec.mode == "discrete_joint":
        blocks = [sampler.draw(len(case), m, context=context)]
    else:
        u = uniform_block(sampler.seed, len(case), m, context=context)
        out = np.empty_like(u)
        blocks = (transform_block(u, mu, sampler.spec, out=out)
                  for _, mu in sampler.family.measures())
    # stats[k, 0] is (mean, SE) of the product under measure k, stats[k, 1 + i] of g_i
    stats = np.array([[joint, *row] for joint, row in
                      (_case_stats(case, x, _mc_estimate) for x in blocks)])
    return _sides(stats[:, 0, 0], stats[:, 1:, 0], stats[:, 0, 1], stats[:, 1:, 1])


def _run_cases(kind: str, spec: DependenceSpec, family: MeasureFamily,
               all_cases: list[tuple[str, tuple[TestFunction, ...]]],
               direction: str | None, K: float, seed: int, mc_replications: int,
               mc_cross_check: bool) -> EndReport:
    if not all_cases:
        raise ValueError("no case to check: supply a case or ask for corpus_cases >= 1")
    sampler = SequenceSampler(spec, family, seed=seed)
    rows = []
    passed = True
    equality = kind == "extended_independence"

    for case_index, (name, case) in enumerate(all_cases):
        (joint, prod_env, se), method = (
            _exact_sides(spec, family, case)
            or (_mc_sides(sampler, case, mc_replications, context=1000 + case_index), "mc"))
        tolerance = 3.0 * se + 1e-9 * (1.0 + abs(joint) + abs(prod_env))
        if equality:
            gap = prod_env - joint
            margin = -abs(gap)
            ok = abs(gap) <= tolerance
        else:
            gap = None
            margin = K * prod_env - joint
            ok = margin >= -tolerance
        row = {
            "case": name,
            "joint": joint,
            "product_of_envelopes": prod_env,
            "margin": margin,
            "tolerance": tolerance,
            "method": method,
            "passed": ok,
        }
        if equality:
            row["gap"] = gap
        if mc_cross_check and method == "enumeration":
            mc_joint, mc_prod, mc_se = _mc_sides(sampler, case, mc_replications,
                                                 context=5000 + case_index)
            row["mc_joint"] = mc_joint
            row["mc_product"] = mc_prod
            row["mc_se"] = mc_se
            row["mc_agrees"] = (abs(mc_joint - joint) <= 4.0 * mc_se + 1e-9
                                and abs(mc_prod - prod_env) <= 4.0 * mc_se + 1e-9)
            ok = ok and row["mc_agrees"]
            row["passed"] = ok
        passed = passed and ok
        rows.append(row)

    # A NaN margin ranks below every number; ties go to the earlier case.
    worst = rows[_extreme([row["margin"] for row in rows], "min")[1]]

    return EndReport(
        kind=kind,
        direction=direction,
        K=K,
        passed=passed,
        worst_margin=worst["margin"],
        worst_case=worst["case"],
        n_cases=len(rows),
        cases=tuple(rows),
    )


def _case_length(spec: DependenceSpec, n: int | None, case) -> int:
    """Coordinates to check: a joint table's own, else ``n``, else the
    supplied case's, else the correlation matrix's, else 4.
    """
    if spec.mode == "discrete_joint":
        n = spec.joint_arity if n is None else n
        if n != spec.joint_arity:
            raise ValueError(f"joint table has {spec.joint_arity} coordinates, asked for {n}")
    elif n is None and case is not None:
        n = len(case)
    elif n is None:
        n = 4 if spec.correlation_matrix is None else len(spec.correlation_matrix)
    return n


def _cases(spec: DependenceSpec, family: MeasureFamily, n: int | None, supplied,
           direction: str | None, corpus_cases: int, seed: int,
           context: int) -> list[tuple[str, tuple[TestFunction, ...]]]:
    """The supplied case, then ``corpus_cases`` drawn from the streams
    (seed, context + c), each audited on a 256-point grid per coordinate:
    nonnegative, and monotone in ``direction`` and bounded unless it is None.
    """
    n = _case_length(spec, n, supplied)
    box = _audit_box(family, spec, n)
    cases = []
    if supplied is not None:
        case = tuple(supplied)
        if len(case) != n:
            raise ValueError(f"expected {n} test functions, got {len(case)}")
        cases.append(("supplied", case))
    for c in range(corpus_cases):
        rng = philox_stream(seed, context=context + c, column=0)
        cases.append((f"corpus[{c}]",
                      tuple(_corpus_function(rng, direction, *box[i]) for i in range(n))))
    for _, case in cases:
        for g, (lo, hi) in zip(case, box):
            if direction is not None and g.sup_bound is None:
                raise ValueError(f"test function {g.name} declares no bound")
            _audit_monotone(g, direction, lo, hi)
    return cases


def verify_end(spec: DependenceSpec, family: MeasureFamily,
               g_case: Sequence[TestFunction] | None = None, *,
               direction: str = "upper", n: int | None = None,
               K: float | None = None, seed: int = 2026,
               mc_replications: int = 200_000, corpus_cases: int = 12,
               mc_cross_check: bool = False) -> EndReport:
    """Check the negative-dependence inequality over supplied and random cases.

    Every test function must be nonnegative, bounded, and monotone in the
    stated direction; each is audited on a 256-point grid per coordinate and
    rejected on violation. The report passes when the worst margin
    K*prod(envelopes) - envelope(product) stays above minus the statistical
    tolerance.
    """
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    cases = _cases(spec, family, n, g_case, direction, corpus_cases, seed, 77_000)
    return _run_cases("end", spec, family, cases, direction,
                      spec.K if K is None else K, seed, mc_replications, mc_cross_check)


def verify_extended_independence(spec: DependenceSpec, family: MeasureFamily,
                                 psi_case: Sequence[TestFunction] | None = None, *,
                                 n: int | None = None, seed: int = 2026,
                                 mc_replications: int = 200_000,
                                 corpus_cases: int = 12) -> EndReport:
    """Check the factorization equality for nonnegative test functions.

    Every test function, supplied or drawn, is audited for nonnegativity on a
    256-point grid per coordinate and rejected on violation. No monotonicity
    is required and the supplied functions may be unbounded
    when an exact evaluation path exists (closed-form moments). The report
    passes only if every gap product_of_envelopes - envelope_of_product is
    zero within tolerance; genuinely non-linear envelopes are expected to fail
    here, and the gap quantifies by how much.
    """
    cases = _cases(spec, family, n, psi_case, None, corpus_cases, seed, 88_000)
    return _run_cases("extended_independence", spec, family, cases, None,
                      spec.K, seed, mc_replications, False)
