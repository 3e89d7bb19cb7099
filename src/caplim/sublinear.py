"""Worst-case and best-case expectations over a measure family.

The upper expectation of a test function f is the supremum of E[f] over every
measure in the family; the lower expectation is the infimum. Upper and lower
capacities are the same envelopes applied to indicator functions. A Choquet
integral integrates a capacity's survival function over the level sets of a
transform.

Evaluation prefers exact per-measure paths (closed-form moments, separable
products, one-dimensional quadrature, exact enumeration of discrete supports)
and falls back to common-random-number Monte Carlo only when no exact path
applies. Quadrature is the package's own QUADPACK (``quadpack``), which
calls a test function's ``fn`` once per rule application on all its nodes.
Exact optima over continuous parameter axes are sharpened by a
golden-section pass around the best grid point.
Every envelope, and every extremum of the experiment runners, is one pick
by ``_extreme`` of the first entry attaining it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .measures import Marginal, MeasureFamily, ProductMeasure, _check_seed, philox_stream, uniform_block

__all__ = [
    "ChoquetReport",
    "EvaluationReport",
    "SublinearEngine",
    "TestFunction",
    "marginal_expectation",
    "run_axiom_suite",
    "smooth_indicator",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _smooth01(u):
    """C-infinity ramp from 0 to 1 on [0, 1], exactly 1/2 at the midpoint."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    # a / (a + b) with a = exp(-1/u) and b = exp(-1/(1 - u)), on (0, 1)
    # only; ``out`` holds a while b is built, so two rows are live.
    mid = (u > 0.0) & (u < 1.0)
    np.divide(-1.0, u, out=out, where=mid)
    np.exp(out, out=out, where=mid)
    b = np.subtract(1.0, u, out=np.empty_like(u), where=mid)
    np.divide(-1.0, b, out=b, where=mid)
    np.exp(b, out=b, where=mid)
    np.add(out, b, out=b, where=mid)
    np.divide(out, b, out=out, where=mid)
    return out


@dataclass(frozen=True)
class TestFunction:
    """Vectorized test function on ``arity`` coordinates.

    ``fn`` maps an (arity, m) array to an (m,) array. Each metadata field has
    a reader: ``closed_form`` (a moment tag) and ``factors`` (a separable
    product across coordinates) give the exact envelopes; ``breakpoints``
    (points of non-smoothness) split quadrature; ``sup_bound`` (a uniform
    bound) passes the END bound gate; ``name`` labels error messages.

    Quadrature calls ``fn`` on a (1, m) array of nodes at once, so an arity-1
    ``fn`` must act elementwise: its value at a node may not depend on the
    other nodes or on their number. Every constructor's does, as numpy's
    ufuncs do.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    arity: int
    name: str = "f"
    sup_bound: float | None = None
    closed_form: tuple | None = None
    breakpoints: tuple = ()
    factors: tuple | None = None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1, 1)
        elif x.ndim == 1:
            x = x[None, :] if self.arity == 1 else x[:, None]
        if x.shape[0] != self.arity:
            raise ValueError(f"{self.name} takes {self.arity} coordinates, got {x.shape[0]}")
        return np.asarray(self.fn(x), dtype=float).reshape(-1)

    # -- arithmetic ----------------------------------------------------------

    def plus(self, other: "TestFunction") -> "TestFunction":
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        sup = None
        if self.sup_bound is not None and other.sup_bound is not None:
            sup = self.sup_bound + other.sup_bound
        return TestFunction(
            fn=lambda x, f=self.fn, g=other.fn: f(x) + g(x),
            arity=self.arity,
            name=f"({self.name}+{other.name})",
            sup_bound=sup,
            breakpoints=tuple(sorted(set(self.breakpoints) | set(other.breakpoints))),
        )

    def scaled(self, lam: float) -> "TestFunction":
        return TestFunction(
            fn=lambda x, f=self.fn, c=float(lam): c * f(x),
            arity=self.arity,
            name=f"{lam:g}*{self.name}",
            sup_bound=None if self.sup_bound is None else abs(lam) * self.sup_bound,
            breakpoints=self.breakpoints,
        )

    def shifted(self, c: float) -> "TestFunction":
        return TestFunction(
            fn=lambda x, f=self.fn, b=float(c): f(x) + b,
            arity=self.arity,
            name=f"({self.name}+{c:g})",
            sup_bound=None if self.sup_bound is None else self.sup_bound + abs(c),
            breakpoints=self.breakpoints,
        )

    def negated(self) -> "TestFunction":
        return self.scaled(-1.0)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def const(c: float, arity: int = 1) -> "TestFunction":
        return TestFunction(
            fn=lambda x, v=float(c): np.full(x.shape[1], v),
            arity=arity,
            name=f"const({c:g})",
            sup_bound=abs(c),
            closed_form=("const", float(c)),
        )

    @staticmethod
    def power(k: int) -> "TestFunction":
        return TestFunction(
            fn=lambda x, p=k: x[0] ** p,
            arity=1,
            name=f"x^{k}",
            closed_form=("power", k),
        )

    @staticmethod
    def abs_power(k: float) -> "TestFunction":
        return TestFunction(
            fn=lambda x, p=float(k): np.abs(x[0]) ** p,
            arity=1,
            name=f"|x|^{k:g}",
            closed_form=("abs_power", float(k)),
            breakpoints=(0.0,),
        )

    @staticmethod
    def pos_power(k: float) -> "TestFunction":
        return TestFunction(
            fn=lambda x, p=float(k): np.maximum(x[0], 0.0) ** p,
            arity=1,
            name=f"pos(x)^{k:g}",
            closed_form=("pos_power", float(k)),
            breakpoints=(0.0,),
        )

    @staticmethod
    def clamp(level: float) -> "TestFunction":
        c = float(level)
        return TestFunction(
            fn=lambda x, v=c: np.clip(x[0], -v, v),
            arity=1,
            name=f"clamp({level:g})",
            sup_bound=c,
            breakpoints=(-c, c),
        )

    @staticmethod
    def clamp_affine(a: float, b: float, lo: float, hi: float) -> "TestFunction":
        if not lo < hi:
            raise ValueError("clamp_affine needs lo < hi")
        pts = []
        if a != 0:
            pts = sorted(((lo - b) / a, (hi - b) / a))
        return TestFunction(
            # ndarray.clip is what np.clip calls, without its dispatch layers
            fn=lambda x, aa=float(a), bb=float(b), l=float(lo), h=float(hi): (aa * x[0] + bb).clip(l, h),
            arity=1,
            name=f"clip({a:g}x+{b:g},[{lo:g},{hi:g}])",
            sup_bound=max(abs(lo), abs(hi)),
            breakpoints=tuple(pts),
        )

    @staticmethod
    def coordinate_sum(parts: Sequence["TestFunction"]) -> "TestFunction":
        """f(x) = sum_i parts[i](x_i) with each part acting on one coordinate."""
        parts = tuple(parts)
        if any(p.arity != 1 for p in parts):
            raise ValueError("coordinate_sum takes arity-1 parts")

        def fn(x, kernels=tuple(p.fn for p in parts)):
            return sum(k(x[i:i + 1]) for i, k in enumerate(kernels))

        sup = None
        if all(p.sup_bound is not None for p in parts):
            sup = sum(p.sup_bound for p in parts)
        return TestFunction(
            fn=fn,
            arity=len(parts),
            name="+".join(p.name for p in parts),
            sup_bound=sup,
        )

    @staticmethod
    def prod(factors: Sequence["TestFunction"]) -> "TestFunction":
        """f(x) = prod_j factors[j](x_j), separable across coordinates."""
        factors = tuple(factors)
        if any(p.arity != 1 for p in factors):
            raise ValueError("prod takes arity-1 factors")

        def fn(x, ps=factors):
            out = ps[0](x[0])
            for j in range(1, len(ps)):
                out = out * ps[j](x[j])
            return out

        sup = None
        if all(p.sup_bound is not None for p in factors):
            sup = math.prod(p.sup_bound for p in factors)
        return TestFunction(
            fn=fn,
            arity=len(factors),
            name="*".join(p.name for p in factors),
            sup_bound=sup,
            factors=factors,
        )

    # -- indicator builders ------------------------------------------------------

    @staticmethod
    def indicator_halfspace(weights: Sequence[float], threshold: float) -> "TestFunction":
        """Indicator of the closed event {sum_i w_i x_i >= threshold}."""
        w = np.asarray(weights, dtype=float)
        closed = None
        pts: tuple = ()
        if len(w) == 1 and w[0] != 0:
            edge = threshold / w[0]
            pts = (edge,)
            closed = ("ind_ge", edge) if w[0] > 0 else ("ind_le", edge)
        return TestFunction(
            fn=lambda x, ww=w, t=float(threshold): (ww @ x >= t).astype(float),
            arity=len(w),
            name=f"1[{'+'.join(f'{v:g}x{i+1}' for i, v in enumerate(w))}>={threshold:g}]",
            sup_bound=1.0,
            closed_form=closed,
            breakpoints=pts,
        )

    @staticmethod
    def indicator_union(a: "TestFunction", b: "TestFunction") -> "TestFunction":
        if a.arity != b.arity:
            raise ValueError("arity mismatch")
        return TestFunction(
            fn=lambda x, f=a.fn, g=b.fn: np.maximum(f(x), g(x)),
            arity=a.arity,
            name=f"({a.name}|{b.name})",
            sup_bound=1.0,
            breakpoints=tuple(sorted(set(a.breakpoints) | set(b.breakpoints))),
        )

    @staticmethod
    def indicator_complement(a: "TestFunction") -> "TestFunction":
        return TestFunction(
            fn=lambda x, f=a.fn: 1.0 - f(x),
            arity=a.arity,
            name=f"~{a.name}",
            sup_bound=1.0,
            breakpoints=a.breakpoints,
        )


def smooth_indicator(threshold: float, width: float, side: str = "outer") -> TestFunction:
    """Smooth bracket for the indicator of {x >= threshold}.

    The outer version ramps up on [threshold - width, threshold] and dominates
    the indicator; the inner version ramps on [threshold, threshold + width]
    and is dominated by it. Either way the ramp hits 1/2 at its own midpoint.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if side not in ("inner", "outer"):
        raise ValueError(f"side must be 'inner' or 'outer', got {side!r}")
    start = threshold if side == "inner" else threshold - width
    return TestFunction(
        fn=lambda x, s=float(start), w=float(width): _smooth01((x[0] - s) / w),
        arity=1,
        name=f"smooth[{side},{threshold:g},{width:g}]",
        sup_bound=1.0,
        breakpoints=(start, start + width),
    )


# The power test functions by name, built from the exponent: the Choquet
# integrands that ``choquet.function`` names and the envelope moments.
_CHOQUET_FUNCTIONS = {
    "abs_power": TestFunction.abs_power,
    "pos_power": TestFunction.pos_power,
    "power": TestFunction.power,
}


@dataclass(frozen=True)
class EvaluationReport:
    """Envelope value with the parameter attaining it and how it was computed."""

    value: float
    parameter: object
    method: str
    se: float | None = None
    per_parameter: tuple = ()
    refined: bool = False


@dataclass(frozen=True)
class ChoquetReport:
    value: float
    capacity: str
    method: str
    divergent: bool = False
    tail_exponent: float | None = None


def _closed_moment(marginal: Marginal, tag: tuple) -> float | None:
    kind = tag[0]
    if kind == "const":
        return tag[1]
    if kind == "power":
        return marginal.raw_moment(tag[1])
    if kind == "abs_power":
        return marginal.abs_moment(tag[1])
    if kind == "pos_power":
        return marginal.pos_part_moment(tag[1])
    if kind == "ind_ge":
        return float(marginal.sf(tag[1]))
    if kind == "ind_le":
        return float(marginal.cdf(tag[1]))
    return None


def marginal_expectation(marginal: Marginal, f: TestFunction) -> float | None:
    """Exact E[f(X)] under one marginal, or None when no exact path applies.

    Closed-form moment tags are read off directly; discrete marginals sum
    their atoms; continuous light-tailed marginals integrate by adaptive
    quadrature split at the function's breakpoints. Heavy polynomial tails
    are refused rather than integrated blindly.
    """
    if f.arity != 1:
        raise ValueError("marginal_expectation takes an arity-1 function")
    report = _marginal_report(marginal, f)
    return None if report is None else report[0]


def _marginal_report(marginal: Marginal, f: TestFunction) -> tuple[float, str] | None:
    """``marginal_expectation`` with the path it took: ``closed_form``,
    ``enumeration`` (an atom sum) or ``quadrature``."""
    if f.closed_form is not None:
        v = _closed_moment(marginal, f.closed_form)
        if v is not None:
            return v, "closed_form"
    if marginal.is_discrete:
        return marginal.expect(f), "enumeration"
    if marginal.kind == "pareto":
        return None
    return marginal.expect(f, breakpoints=f.breakpoints), "quadrature"


def _mc_checked(vals: np.ndarray, name: str) -> np.ndarray:
    """``vals``, the values of ``name`` on a Monte Carlo sample. A NaN value
    leaves no estimate, so it is an error."""
    if np.isnan(vals).any():
        raise ValueError(f"{name} is NaN on the Monte Carlo sample")
    return vals


def _mc_estimate(vals: np.ndarray, name: str) -> tuple[float, float]:
    """Mean and standard error of ``name``'s Monte Carlo values ``vals``,
    which ``_mc_checked`` checks first."""
    _mc_checked(vals, name)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def _extreme(values, sense: str = "max") -> tuple[float, int]:
    """The largest (or, for ``"min"``, smallest) of ``values`` and the index of
    the first entry that attains it."""
    values = np.asarray(values, dtype=float)
    i = int(values.argmax() if sense == "max" else values.argmin())
    return float(values[i]), i


def _golden_max(g: Callable[[float], float], lo: float, hi: float,
                iters: int = 70, tol: float = 1e-12) -> tuple[float, float]:
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(iters):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    x = 0.5 * (a + b)
    return x, g(x)


@dataclass
class SublinearEngine:
    """Evaluates envelope expectations, capacities, and Choquet integrals.

    ``mc_replications`` sets the Monte Carlo sample size for functions with no
    exact path; all measures in the family then share one uniform block, so
    differences between measures are low-variance and inequalities that hold
    samplewise hold for the estimates too.

    An engine does not repeat its exact work: it builds the family's grid
    measures once, keeps every exact per-measure expectation keyed by
    (measure, test function), and, when ``fixed_context`` pins every Monte
    Carlo call to one stream context, keeps the read-only per-measure samples
    of each arity. It also keeps the joint support ``(values, weights)`` of
    each discrete (measure, arity) pair it enumerates, so a later test
    function on that pair costs one call of ``f`` and one dot product. The
    support arrays are read-only, so a test function that writes into its
    input raises ``ValueError``. The kept supports hold at most
    ``enumeration_cap`` joint atoms in total; a support past that budget is
    enumerated again on each use. The caches live as long as the engine and
    assume its fields stay as constructed.
    """

    family: MeasureFamily
    mc_replications: int = 100_000
    refinement: bool = True
    seed: int = 2026
    enumeration_cap: int = 2_000_000
    fixed_context: int | None = None
    _mc_context: int = field(default=0, init=False, repr=False)
    _grid: list | None = field(default=None, init=False, repr=False, compare=False)
    _exact: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _mc_fixed: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _supports: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _support_atoms: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_seed(self.seed)

    def _measures(self) -> list[tuple[object, ProductMeasure]]:
        """The family's (parameter, measure) grid, built on first use."""
        if self._grid is None:
            self._grid = self.family.measures()
        return self._grid

    # -- exact per-measure expectation ------------------------------------------

    def _exact_expectation(self, measure: ProductMeasure, f: TestFunction) -> tuple[float, str] | None:
        key = (measure, f)
        if key not in self._exact:
            self._exact[key] = self._compute_exact(measure, f)
        return self._exact[key]

    def _compute_exact(self, measure: ProductMeasure, f: TestFunction) -> tuple[float, str] | None:
        if f.factors is not None:
            # A product takes its factors' path when they share one.
            total, labels = 1.0, set()
            for j, factor in enumerate(f.factors):
                report = _marginal_report(measure.marginal(j), factor)
                if report is None:
                    return None
                total *= report[0]
                labels.add(report[1])
            return total, labels.pop() if len(labels) == 1 else "exact"
        if f.arity == 1:
            return _marginal_report(measure.marginal(0), f)
        if measure.all_discrete(f.arity):
            support = self._support(measure, f.arity)
            if support is None:
                return None
            vals, weights = support
            return float(np.dot(weights, f(vals))), "enumeration"
        return None

    def _support(self, measure: ProductMeasure, arity: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Read-only joint atoms of a discrete measure's first ``arity``
        coordinates, or None when there are more than ``enumeration_cap``.

        A support is kept if the kept ones then hold at most
        ``enumeration_cap`` atoms in all.
        """
        key = (measure, arity)
        kept = self._supports.get(key)
        if kept is not None:
            return kept
        size = 1
        for i in range(arity):
            size *= len(measure.marginal(i).atoms())
            if size > self.enumeration_cap:
                return None
        vals, weights = _enumerate_support(measure, arity)
        vals.flags.writeable = False
        weights.flags.writeable = False
        if self._support_atoms + size <= self.enumeration_cap:
            self._supports[key] = vals, weights
            self._support_atoms += size
        return vals, weights

    # -- Monte Carlo -------------------------------------------------------------

    def _next_context(self) -> int:
        if self.fixed_context is not None:
            return self.fixed_context
        self._mc_context += 1
        return self._mc_context

    def _mc_samples(self, arity: int) -> list[np.ndarray]:
        """One (arity, m) sample per grid measure, all from the same uniform block.

        Under a ``fixed_context`` every call would draw the same block, so
        the samples are drawn once per arity and kept read-only.
        """
        if arity in self._mc_fixed:
            return self._mc_fixed[arity]
        u = uniform_block(self.seed, arity, self.mc_replications, context=self._next_context())
        samples = [mu.ppf(u) for _, mu in self._measures()]
        if self.fixed_context is not None:
            for x in samples:
                x.flags.writeable = False
            self._mc_fixed[arity] = samples
        return samples

    def _mc_values(self, f: TestFunction):
        """f on each grid measure's Monte Carlo sample, one at a time."""
        return (f(x) for x in self._mc_samples(f.arity))

    # -- envelope expectations -----------------------------------------------------

    def _refine(self, f: TestFunction, sense: str, idx: int,
                grid_best: float) -> tuple[float, object, bool]:
        axes = self.family.axes()
        dim = self.family.dim
        # grid_parameters runs row-major over the axes
        pos = np.unravel_index(idx, [len(ax) for ax in axes])
        theta = [float(axes[a][pos[a]]) for a in range(dim)]
        sign = 1.0 if sense == "max" else -1.0

        def objective(th: list[float]) -> float:
            point = th[0] if dim == 1 else tuple(th)
            res = self._exact_expectation(self.family.measure_at(point), f)
            return -math.inf if res is None else res[0]

        best = grid_best
        moved = False
        for _ in range(2 if dim == 2 else 1):
            for a in range(dim):
                ax = axes[a]
                if len(ax) < 2:
                    continue
                lo = float(ax[max(pos[a] - 1, 0)])
                hi = float(ax[min(pos[a] + 1, len(ax) - 1)])
                if lo == hi:
                    continue

                def g(t, axis=a):
                    trial = list(theta)
                    trial[axis] = t
                    return sign * objective(trial)

                x_star, v_star = _golden_max(g, lo, hi)
                if v_star > sign * best:
                    theta[a] = x_star
                    best = sign * v_star
                    moved = True
        value = objective(theta) if moved else best
        if sign * value < sign * grid_best:
            return grid_best, None, False
        return value, (theta[0] if dim == 1 else tuple(theta)), moved

    def _expectation_report(self, f: TestFunction, sense: str) -> EvaluationReport:
        """The envelope of E[f]: exact per-measure values, refined off the
        grid, or else Monte Carlo means with their standard errors."""
        pairs = self._measures()
        values, labels = [], set()
        for _, mu in pairs:
            res = self._exact_expectation(mu, f)
            if res is None:
                break
            values.append(res[0])
            labels.add(res[1])
        exact = len(values) == len(pairs)
        if exact:
            ses = [0.0] * len(pairs)
            method = labels.pop() if len(labels) == 1 else "exact"
        else:
            values, ses = zip(*[_mc_estimate(v, f.name) for v in self._mc_values(f)])
            method = "mc"

        value, idx = _extreme(values, sense)
        theta = pairs[idx][0]
        refined = False
        if exact and self.refinement and not self.family.is_singleton and math.isfinite(value):
            value2, theta2, moved = self._refine(f, sense, idx, value)
            if moved and theta2 is not None:
                value, theta, refined = value2, theta2, True
        return EvaluationReport(
            value=value,
            parameter=theta,
            method=method,
            se=None if exact else float(ses[idx]),
            per_parameter=tuple((theta_i, float(v), float(se)) for (theta_i, _), v, se
                                in zip(pairs, values, ses)),
            refined=refined,
        )

    def upper_exp(self, f: TestFunction) -> EvaluationReport:
        """sup over the family of E[f]."""
        return self._expectation_report(f, "max")

    def lower_exp(self, f: TestFunction) -> EvaluationReport:
        """inf over the family of E[f]."""
        return self._expectation_report(f, "min")

    # -- family-level moments ------------------------------------------------------

    def sup_marginal_moment(self, k: float, kind: str = "raw", coordinate: int = 0,
                            sense: str = "max") -> tuple[float, object]:
        """Envelope of a single-coordinate moment over the family, refined like
        every other envelope; returns the value and the parameter attaining it."""
        f = _CHOQUET_FUNCTIONS[{"raw": "power", "abs": "abs_power", "pos": "pos_power"}[kind]](k)
        if coordinate > 0:
            f = TestFunction.prod([TestFunction.const(1.0)] * coordinate + [f])
        report = self._expectation_report(f, sense)
        return report.value, report.parameter

    # -- Choquet integrals ------------------------------------------------------------

    def _closed_survival(self, f: TestFunction):
        """t -> per-measure survival P(f(X) >= t) of x, pos(x)^p or |x|^p
        under continuous marginals, else None."""
        kind, p = f.closed_form or (None, None)
        if f.arity != 1 or kind not in ("pos_power", "abs_power") and (kind, p) != ("power", 1):
            return None
        marginals = [mu.marginal(0) for _, mu in self._measures()]
        if any(m.is_discrete for m in marginals):
            return None

        def survival(t: np.ndarray) -> np.ndarray:
            if kind == "power":
                return np.stack([m.sf(t) for m in marginals])
            # f(x) >= t > 0 is x >= s, or also x <= -s for |x|^p
            s = np.maximum(t, 0.0) ** (1.0 / p)
            return np.stack([np.where(t <= 0.0, 1.0,
                                      m.sf(s) + m.cdf(-s) if kind == "abs_power" else m.sf(s))
                             for m in marginals])
        return survival

    def choquet(self, f: TestFunction, capacity: str = "upper") -> ChoquetReport:
        """Choquet integral of f(X) against the upper or lower capacity."""
        if capacity not in ("upper", "lower"):
            raise ValueError(f"capacity must be 'upper' or 'lower', got {capacity!r}")
        envelope = np.max if capacity == "upper" else np.min
        pairs = self._measures()

        if all(mu.all_discrete(f.arity) for _, mu in pairs):
            per_measure = []
            for _, mu in pairs:
                support = self._support(mu, f.arity)
                if support is None:
                    break
                per_measure.append((f(support[0]), support[1]))
            else:
                value = _discrete_choquet(per_measure, envelope)
                return ChoquetReport(value=value, capacity=capacity, method="enumeration")

        survival, method = self._closed_survival(f), "survival"
        if survival is None:
            samples = [np.sort(_mc_checked(v, f.name)) for v in self._mc_values(f)]
            m = self.mc_replications

            def survival(t: np.ndarray) -> np.ndarray:
                return np.stack([(m - np.searchsorted(s, t, side="left")) / m for s in samples])
            method = "mc"

        def wfun(t: np.ndarray) -> np.ndarray:
            return envelope(survival(np.asarray(t, dtype=float)), axis=0)

        value, divergent, beta = _choquet_from_survival(wfun)
        return ChoquetReport(value=value, capacity=capacity, method=method,
                             divergent=divergent, tail_exponent=beta)


def _enumerate_support(measure: ProductMeasure, arity: int) -> tuple[np.ndarray, np.ndarray]:
    """All joint atoms of a discrete product measure as ((arity, M), (M,)).

    The atoms run in row-major order over each coordinate's sorted atoms, and
    each weight is the product of its coordinates' probabilities taken from
    the first coordinate on. No other array of the support's size is made.
    """
    grids = [measure.marginal(i)._sorted_atoms() for i in range(arity)]
    shape = tuple(len(v) for v, _ in grids)
    vals = np.empty((arity, math.prod(shape)))
    weights = np.ones(shape)
    for i, (v, p) in enumerate(grids):
        along = (1,) * i + (-1,) + (1,) * (arity - i - 1)
        vals[i].reshape(shape)[...] = v.reshape(along)
        weights *= p.reshape(along)
    return vals, weights.reshape(-1)


def _discrete_choquet(per_measure: list[tuple[np.ndarray, np.ndarray]], envelope) -> float:
    """Exact Choquet integral from per-measure (values, weights) supports.

    With support points s_1 < ... < s_m of the union and W_j the envelope of
    P(X >= s_j), the integral telescopes to s_1 + sum_j (s_j - s_{j-1}) W_j.
    """
    support = np.unique(np.concatenate([v for v, _ in per_measure]))
    w_env = envelope(np.stack([Marginal._tail_mass(vals, weights, support)
                               for vals, weights in per_measure]), axis=0)
    value = support[0] + float(np.sum(np.diff(support) * w_env[1:]))
    return float(value)


def _probe_half_level(wfun, start: float = 1.0) -> float:
    """Scale at which the survival envelope falls to half its near-origin value.

    The relative target matters: the positive part of a centered variable has
    an envelope that starts at or below 1/2, so probing for an absolute 1/2
    crossing would collapse the integration window to nothing.
    """
    target = 0.5 * wfun(np.array([1e-12]))[0]
    t = start
    if wfun(np.array([t]))[0] > target:
        while t < 1e12 and wfun(np.array([t]))[0] > target:
            t *= 2.0
    else:
        while t > 1e-12 and wfun(np.array([t]))[0] <= target:
            t /= 2.0
    return max(t, 1e-12)


def _one_sided_survival_integral(wfun, tiny: float = 1e-12,
                                 decay_guard: float = 0.1) -> tuple[float, bool, float | None]:
    """integral_0^inf W(t) dt for a nonincreasing survival envelope W.

    Integrates a linear grid through the bulk and a geometric grid through the
    tail, then either extrapolates the remaining tail from its fitted power or
    flags divergence when the fitted decay is too slow to be integrable.
    """
    if wfun(np.array([1e-12]))[0] <= 0.0:
        return 0.0, False, None
    t_half = _probe_half_level(wfun)

    t_hi = 4.0 * t_half
    w_hi = wfun(np.array([t_hi]))[0]
    while w_hi > tiny and t_hi < 1e9 * t_half:
        t_hi *= 2.0
        w_hi = wfun(np.array([t_hi]))[0]
        if w_hi == 0.0:
            break

    lin = np.linspace(0.0, 4.0 * t_half, 8001)
    total = float(np.trapezoid(wfun(lin), lin))
    if t_hi > 4.0 * t_half:
        geo = np.geomspace(4.0 * t_half, t_hi, 600)
        total += float(np.trapezoid(wfun(geo), geo))

    w_end = wfun(np.array([t_hi]))[0]
    if w_end <= 0.0:
        return total, False, None

    # fitted decay exponent over the last decade of the tail
    ts = np.geomspace(t_hi / 10.0, t_hi, 12)
    ws = wfun(ts)
    mask = ws > 1e-290
    beta = None
    if int(np.sum(mask)) >= 4:
        slope = np.polyfit(np.log(ts[mask]), np.log(ws[mask]), 1)[0]
        beta = float(-slope)
    if w_end > tiny and (beta is None or beta <= 1.0 + decay_guard):
        return math.inf, True, beta
    if beta is not None and beta > 1.0 + decay_guard:
        total += float(w_end * t_hi / (beta - 1.0))
    return total, False, beta


def _choquet_from_survival(wfun) -> tuple[float, bool, float | None]:
    """Choquet integral from the envelope survival function W(t).

    Splits into integral_0^inf W dt minus integral_0^inf (1 - W(-s)) ds.
    """
    pos, pos_div, beta_pos = _one_sided_survival_integral(wfun)

    def ufun(s: np.ndarray) -> np.ndarray:
        return 1.0 - wfun(-np.asarray(s, dtype=float))

    neg, neg_div, beta_neg = _one_sided_survival_integral(ufun)
    if pos_div and neg_div:
        return math.nan, True, beta_pos
    if pos_div:
        return math.inf, True, beta_pos
    if neg_div:
        return -math.inf, True, beta_neg
    return pos - neg, False, beta_pos


# -- randomized axiom suite ------------------------------------------------------


def _random_discrete_family(rng: np.random.Generator, arity: int, case: int) -> MeasureFamily:
    specs = []
    for _ in range(arity):
        n_atoms = int(rng.integers(2, 5))
        vals = np.sort(rng.uniform(-3.0, 3.0, n_atoms))
        p0 = rng.dirichlet(np.ones(n_atoms))
        p1 = rng.dirichlet(np.ones(n_atoms))
        specs.append((vals, p0, p1))

    def builder(theta: float, _specs=tuple(specs)) -> ProductMeasure:
        margs = []
        for vals, p0, p1 in _specs:
            probs = (1.0 - theta) * p0 + theta * p1
            margs.append(Marginal.discrete(tuple(zip(vals, probs))))
        return ProductMeasure(tuple(margs))

    return MeasureFamily(
        parameter_domain=((0.0, 1.0),),
        builder=builder,
        grid_resolution=4,
        K=1.0,
        name=f"suite-discrete-{case}",
    )


def _random_continuous_family(rng: np.random.Generator, arity: int, case: int) -> MeasureFamily:
    specs = []
    for _ in range(arity):
        if rng.random() < 0.5:
            m0, m1 = rng.uniform(-1.0, 1.0, 2)
            v0, v1 = rng.uniform(0.3, 2.0, 2)
            specs.append(("normal", m0, m1, v0, v1))
        else:
            c0, c1 = rng.uniform(-2.0, 2.0, 2)
            w0, w1 = rng.uniform(0.5, 2.0, 2)
            specs.append(("uniform", c0, c1, w0, w1))

    def builder(theta: float, _specs=tuple(specs)) -> ProductMeasure:
        margs = []
        for s in _specs:
            if s[0] == "normal":
                _, m0, m1, v0, v1 = s
                margs.append(Marginal.normal(m0 + theta * (m1 - m0), v0 + theta * (v1 - v0)))
            else:
                _, c0, c1, w0, w1 = s
                center = c0 + theta * (c1 - c0)
                width = w0 + theta * (w1 - w0)
                margs.append(Marginal.uniform(center - width / 2.0, center + width / 2.0))
        return ProductMeasure(tuple(margs))

    return MeasureFamily(
        parameter_domain=((0.0, 1.0),),
        builder=builder,
        grid_resolution=3,
        K=1.0,
        name=f"suite-continuous-{case}",
    )


def _random_bounded_function(rng: np.random.Generator, arity: int) -> TestFunction:
    parts = []
    for _ in range(arity):
        a = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-1.0, 1.0)
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
        if hi - lo < 0.2:
            hi = lo + 0.2
        parts.append(TestFunction.clamp_affine(a, b, lo, hi))
    return TestFunction.coordinate_sum(parts)


def _random_nonneg_function(rng: np.random.Generator, arity: int) -> TestFunction:
    parts = []
    for _ in range(arity):
        scale = rng.uniform(0.1, 1.0)
        base = TestFunction.abs_power(1) if rng.random() < 0.5 else TestFunction.pos_power(2)
        parts.append(base.scaled(scale))
    return TestFunction.coordinate_sum(parts)


def run_axiom_suite(n_cases: int = 120, seed: int = 2026, mc_every: int = 10,
                    mc_replications: int = 20_000) -> dict:
    """Randomized check of the envelope axioms and capacity inequalities.

    Each case draws a fresh measure family, test functions, and events, then
    verifies monotonicity, constant preservation, sub-additivity, positive
    homogeneity, upper/lower conjugacy, capacity ordering, capacity
    sub-additivity (including the mixed lower/upper form), complement duality,
    the smooth sandwich around an upper capacity, and the Choquet domination
    of the envelope moment. Every ``mc_every``-th
    case runs on a continuous family through the Monte Carlo path with a
    pooled-standard-error tolerance; the rest are exact.
    """
    cases = []
    by_axiom: dict[str, dict] = {}

    for case in range(n_cases):
        rng = philox_stream(seed, context=case, column=0)
        arity = int(rng.integers(1, 4))
        mc_case = mc_every > 0 and case % mc_every == mc_every - 1
        if mc_case:
            family = _random_continuous_family(rng, arity, case)
        else:
            family = _random_discrete_family(rng, arity, case)
        engine = SublinearEngine(
            family,
            mc_replications=mc_replications,
            refinement=False,
            # stream seeds must fit in 64 bits
            seed=(seed * 1_000_003 + case) % (1 << 64),
            fixed_context=0,
        )

        f = _random_bounded_function(rng, arity)
        g = _random_bounded_function(rng, arity)
        h = _random_nonneg_function(rng, arity)
        lam = float(rng.uniform(0.1, 3.0))
        c0 = float(rng.uniform(-2.0, 2.0))
        w_a = rng.uniform(-2.0, 2.0, arity)
        w_b = rng.uniform(-2.0, 2.0, arity)
        event_a = TestFunction.indicator_halfspace(w_a, float(rng.uniform(-1.0, 1.0)))
        event_b = TestFunction.indicator_halfspace(w_b, float(rng.uniform(-1.0, 1.0)))
        union = TestFunction.indicator_union(event_a, event_b)
        comp_a = TestFunction.indicator_complement(event_a)

        r_f = engine.upper_exp(f)
        r_fh = engine.upper_exp(f.plus(h))
        r_h = engine.upper_exp(h)
        ch = engine.choquet(h, capacity="upper")
        r_g = engine.upper_exp(g)
        r_fg = engine.upper_exp(f.plus(g))
        r_lam = engine.upper_exp(f.scaled(lam))
        r_c = engine.upper_exp(TestFunction.const(c0, arity))
        r_low = engine.lower_exp(f)
        r_neg = engine.upper_exp(f.negated())
        ca = engine.upper_exp(event_a)
        cb = engine.upper_exp(event_b)
        cu = engine.upper_exp(union)
        la = engine.lower_exp(event_a)
        lu = engine.lower_exp(union)
        ca_comp = engine.upper_exp(comp_a)

        thr = float(rng.uniform(-1.0, 1.0))
        ramp_event = TestFunction.indicator_halfspace(np.eye(arity)[0], thr)
        inner = _lift_first_coordinate(smooth_indicator(thr, 0.3, "inner"), arity)
        outer = _lift_first_coordinate(smooth_indicator(thr, 0.3, "outer"), arity)
        r_inner = engine.upper_exp(inner)
        r_outer = engine.upper_exp(outer)
        c_ramp = engine.upper_exp(ramp_event)

        def tol(*reports: EvaluationReport) -> float:
            pooled = math.sqrt(sum((r.se or 0.0) ** 2 for r in reports))
            scale = 1.0 + max(abs(r.value) for r in reports)
            return 3.0 * pooled + 1e-9 * scale

        checks = [
            ("monotonicity", r_fh.value - r_f.value, tol(r_f, r_fh)),
            ("constant_preserving", -abs(r_c.value - c0), tol(r_c)),
            ("sub_additivity", r_f.value + r_g.value - r_fg.value, tol(r_f, r_g, r_fg)),
            ("positive_homogeneity", -abs(r_lam.value - lam * r_f.value), tol(r_lam, r_f)),
            ("conjugacy", -abs(r_low.value + r_neg.value), tol(r_low, r_neg)),
            ("capacity_range", min(ca.value, cb.value, la.value, 1.0 - ca.value, 1.0 - la.value), tol(ca, cb, la)),
            ("capacity_order", ca.value - la.value, tol(ca, la)),
            ("capacity_monotone", cu.value - ca.value, tol(cu, ca)),
            ("capacity_subadditive", ca.value + cb.value - cu.value, tol(ca, cb, cu)),
            ("capacity_mixed_subadditive", la.value + cb.value - lu.value, tol(la, cb, lu)),
            ("complement_duality", -abs(la.value - (1.0 - ca_comp.value)), tol(la, ca_comp)),
            ("sandwich_inner", c_ramp.value - r_inner.value, tol(c_ramp, r_inner)),
            ("sandwich_outer", r_outer.value - c_ramp.value, tol(r_outer, c_ramp)),
            # the upper Choquet integral of a nonnegative function dominates
            # the envelope expectation; on the MC path both sides share one
            # sample block, leaving only the survival-quadrature error
            ("choquet_moment", ch.value - r_h.value,
             tol(r_h) + (5e-3 * (1.0 + abs(ch.value)) if mc_case else 0.0)),
        ]
        case_pass = True
        rows = []
        for axiom, margin, tolerance in checks:
            ok = margin >= -tolerance
            case_pass = case_pass and ok
            rows.append({"axiom": axiom, "margin": margin, "tolerance": tolerance, "passed": ok})
            slot = by_axiom.setdefault(axiom, {"margins": [], "failures": 0})
            slot["margins"].append(margin)
            if not ok:
                slot["failures"] += 1
        cases.append({
            "case": case,
            "family": family.name,
            "method": "mc" if mc_case else "exact",
            "checks": rows,
            "passed": case_pass,
        })

    # A NaN margin ranks below every number, as in the dependence verifiers.
    by_axiom = {axiom: {"worst_margin": _extreme(slot["margins"], "min")[0],
                        "failures": slot["failures"]} for axiom, slot in by_axiom.items()}
    n_failures = sum(1 for c in cases if not c["passed"])
    return {
        "n_cases": n_cases,
        "n_failures": n_failures,
        "passed": n_failures == 0,
        "by_axiom": by_axiom,
        "cases": cases,
    }


def _lift_first_coordinate(f1: TestFunction, arity: int) -> TestFunction:
    """View an arity-1 function as a function of the first of ``arity`` coordinates."""
    if arity == 1:
        return f1
    return TestFunction(
        fn=lambda x, g=f1: g(x[0]),
        arity=arity,
        name=f"{f1.name}(x1)",
        sup_bound=f1.sup_bound,
    )
