"""Parametric marginals, product measures, and measure families.

A measure family is a box of parameters together with a builder that maps each
parameter point to a product measure with known one-dimensional marginals.
Everything downstream (worst-case expectations, capacities, tail bounds,
experiments) enumerates the family on a finite grid and aggregates per-measure
quantities.

Sampling is counter-based: every (seed, context, column) triple owns its own
Philox stream, so any block of draws is bit-reproducible regardless of worker
count, chunking, or evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import integrate, special

__all__ = [
    "Marginal",
    "MeasureFamily",
    "MomentValue",
    "ProductMeasure",
    "moment",
    "normal_scores",
    "philox_stream",
    "uniform_block",
]

# Floor for uniforms fed to inverse-cdf transforms; rng.random() can emit 0.0.
_U_FLOOR = 1e-300

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def philox_stream(seed: int, context: int = 0, column: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one (seed, context, column) cell.

    The three keys share one 128-bit Philox key, so each must fit its field:
    the seed in [0, 2**64), the context and the column in [0, 2**32).
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not (0 <= context < 1 << 32 and 0 <= column < 1 << 32):
        raise ValueError(
            f"stream context and column must lie in [0, 2**32), got {context} and {column}"
        )
    key = (seed << 64) | (context << 32) | column
    return np.random.Generator(np.random.Philox(key=key))


def uniform_block(seed: int, n: int, m: int, context: int = 0) -> np.ndarray:
    """(n, m) uniforms on [0, 1); column j is drawn from stream (seed, context, j)."""
    out = np.empty((n, m), dtype=np.float64)
    for j in range(m):
        out[:, j] = philox_stream(seed, context, j).random(n)
    return out


def normal_scores(u: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of uniforms, clipped away from 0 and 1."""
    return special.ndtri(np.clip(u, _U_FLOOR, 1.0 - 1e-16))


def _double_factorial_odd(j: int) -> float:
    """(2j - 1)!! with the empty product equal to 1."""
    out = 1.0
    for i in range(1, 2 * j, 2):
        out *= i
    return out


class MomentValue(NamedTuple):
    """Raw and absolute k-th moments; math.inf marks a nonexistent moment."""

    raw: float
    absolute: float


@dataclass(frozen=True)
class Marginal:
    """One-dimensional marginal with closed-form moments, cdf/sf/ppf, and density.

    Supported kinds: ``normal(mean, variance)``, ``uniform(lo, hi)``,
    ``bernoulli(p)``, ``discrete(atoms)``, ``pareto(alpha, scale)``.
    Construct through the static factories; ``params`` is kind-specific.
    """

    kind: str
    params: tuple

    def __post_init__(self) -> None:
        if self.kind == "normal":
            mean, var = self.params
            if not var > 0:
                raise ValueError(f"normal variance must be positive, got {var}")
        elif self.kind == "uniform":
            lo, hi = self.params
            if not lo < hi:
                raise ValueError(f"uniform needs lo < hi, got [{lo}, {hi}]")
        elif self.kind == "bernoulli":
            (p,) = self.params
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"bernoulli p must lie in [0, 1], got {p}")
        elif self.kind == "discrete":
            (atoms,) = self.params
            if len(atoms) == 0:
                raise ValueError("discrete marginal needs at least one atom")
            total = math.fsum(p for _, p in atoms)
            if any(p < -1e-15 for _, p in atoms):
                raise ValueError("discrete atom probabilities must be nonnegative")
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"discrete atom probabilities sum to {total}, not 1")
        elif self.kind == "pareto":
            alpha, scale = self.params
            if not (alpha > 0 and scale > 0):
                raise ValueError(f"pareto needs alpha > 0 and scale > 0, got {self.params}")
        else:
            raise ValueError(f"unknown marginal kind {self.kind!r}")

    # -- factories ---------------------------------------------------------

    @staticmethod
    def normal(mean: float, variance: float) -> "Marginal":
        return Marginal("normal", (float(mean), float(variance)))

    @staticmethod
    def uniform(lo: float, hi: float) -> "Marginal":
        return Marginal("uniform", (float(lo), float(hi)))

    @staticmethod
    def bernoulli(p: float) -> "Marginal":
        return Marginal("bernoulli", (float(p),))

    @staticmethod
    def discrete(atoms: Sequence[tuple[float, float]]) -> "Marginal":
        return Marginal("discrete", (tuple((float(v), float(p)) for v, p in atoms),))

    @staticmethod
    def pareto(alpha: float, scale: float = 1.0) -> "Marginal":
        return Marginal("pareto", (float(alpha), float(scale)))

    # -- structure ---------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.kind in ("bernoulli", "discrete")

    def atoms(self) -> tuple[tuple[float, float], ...]:
        if self.kind == "bernoulli":
            (p,) = self.params
            return ((0.0, 1.0 - p), (1.0, p))
        if self.kind == "discrete":
            return self.params[0]
        raise ValueError(f"{self.kind} marginal has no atoms")

    def _sorted_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        vals, probs = zip(*self.atoms())
        order = np.argsort(vals, kind="stable")
        return np.asarray(vals, dtype=float)[order], np.asarray(probs, dtype=float)[order]

    def support(self) -> tuple[float, float]:
        if self.kind == "normal":
            return (-math.inf, math.inf)
        if self.kind == "uniform":
            return self.params
        if self.kind == "pareto":
            return (self.params[1], math.inf)
        vals = [v for v, _ in self.atoms()]
        return (min(vals), max(vals))

    # -- moments -----------------------------------------------------------

    def mean(self) -> float:
        if self.kind == "normal":
            return self.params[0]
        if self.kind == "uniform":
            lo, hi = self.params
            return 0.5 * (lo + hi)
        if self.kind == "bernoulli":
            return self.params[0]
        if self.kind == "discrete":
            return float(math.fsum(v * p for v, p in self.atoms()))
        alpha, scale = self.params
        return alpha * scale / (alpha - 1.0) if alpha > 1.0 else math.inf

    def variance(self) -> float:
        if self.kind == "normal":
            return self.params[1]
        if self.kind == "uniform":
            lo, hi = self.params
            return (hi - lo) ** 2 / 12.0
        if self.kind == "bernoulli":
            p = self.params[0]
            return p * (1.0 - p)
        if self.kind == "discrete":
            m = self.mean()
            return float(math.fsum(p * (v - m) ** 2 for v, p in self.atoms()))
        alpha, scale = self.params
        if alpha <= 2.0:
            return math.inf
        return scale**2 * alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0))

    def raw_moment(self, k: float) -> float:
        """E[X^k]; +inf when the moment does not exist.

        Non-integer k requires nonnegative support.
        """
        if k == 0:
            return 1.0
        is_int = float(k).is_integer()
        ki = int(k)
        if self.kind == "normal":
            if not is_int:
                raise ValueError("non-integer raw moment of a signed marginal")
            mean, var = self.params
            sd = math.sqrt(var)
            total = 0.0
            for j in range(ki // 2 + 1):
                total += (
                    math.comb(ki, 2 * j)
                    * _double_factorial_odd(j)
                    * sd ** (2 * j)
                    * mean ** (ki - 2 * j)
                )
            return total
        if self.kind == "uniform":
            lo, hi = self.params
            if not is_int and lo < 0:
                raise ValueError("non-integer raw moment of a signed marginal")
            return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))
        if self.kind == "bernoulli":
            return self.params[0]
        if self.kind == "discrete":
            if not is_int and any(v < 0 for v, _ in self.atoms()):
                raise ValueError("non-integer raw moment of a signed marginal")
            return float(math.fsum(p * v**k for v, p in self.atoms() if p > 0))
        alpha, scale = self.params
        if k >= alpha:
            return math.inf
        return alpha * scale**k / (alpha - k)

    def abs_moment(self, k: float) -> float:
        """E[|X|^k]; +inf when the moment does not exist."""
        if k == 0:
            return 1.0
        if self.kind == "normal":
            mean, var = self.params
            sd = math.sqrt(var)
            # sd^k 2^(k/2) Gamma((k+1)/2)/sqrt(pi) * 1F1(-k/2; 1/2; -mean^2/(2 var))
            base = sd**k * 2.0 ** (k / 2.0) * special.gamma((k + 1.0) / 2.0) / math.sqrt(math.pi)
            return float(base * special.hyp1f1(-k / 2.0, 0.5, -mean**2 / (2.0 * var)))
        if self.kind == "uniform":
            lo, hi = self.params
            width = hi - lo
            if lo >= 0:
                return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * width)
            if hi <= 0:
                return ((-lo) ** (k + 1) - (-hi) ** (k + 1)) / ((k + 1) * width)
            return (hi ** (k + 1) + (-lo) ** (k + 1)) / ((k + 1) * width)
        if self.kind == "bernoulli":
            return self.params[0]
        if self.kind == "discrete":
            return float(math.fsum(p * abs(v) ** k for v, p in self.atoms() if p > 0))
        return self.raw_moment(k)  # pareto support is positive

    def pos_part_moment(self, k: float) -> float:
        """E[(max(X, 0))^k]; +inf when the moment does not exist."""
        if self.kind == "normal":
            mean, var = self.params
            sd = math.sqrt(var)
            if float(k).is_integer():
                ki = int(k)
                a = mean / sd
                # m_j = int_{-a}^inf z^j phi(z) dz via m_j = (-a)^(j-1) phi(a) + (j-1) m_{j-2}
                phi_a = math.exp(-0.5 * a * a) / _SQRT_2PI
                mj = [float(special.ndtr(a)), phi_a]
                for j in range(2, ki + 1):
                    mj.append((-a) ** (j - 1) * phi_a + (j - 1) * mj[j - 2])
                total = 0.0
                for j in range(ki + 1):
                    total += math.comb(ki, j) * a ** (ki - j) * mj[j]
                return sd**k * total
            val, _ = integrate.quad(lambda x: x**k * self.pdf(x), 0.0, math.inf, limit=200)
            return float(val)
        if self.kind == "uniform":
            lo, hi = self.params
            if hi <= 0:
                return 0.0
            lo_pos = max(lo, 0.0)
            return (hi ** (k + 1) - lo_pos ** (k + 1)) / ((k + 1) * (hi - lo))
        if self.kind == "bernoulli":
            return self.params[0]
        if self.kind == "discrete":
            return float(math.fsum(p * max(v, 0.0) ** k for v, p in self.atoms() if p > 0))
        return self.raw_moment(k)

    # -- distribution functions (vectorized) --------------------------------

    def cdf(self, t):
        """P(X <= t)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "normal":
            mean, var = self.params
            return special.ndtr((t - mean) / math.sqrt(var))
        if self.kind == "uniform":
            lo, hi = self.params
            return np.clip((t - lo) / (hi - lo), 0.0, 1.0)
        if self.kind == "pareto":
            alpha, scale = self.params
            out = np.where(t < scale, 0.0, 1.0 - (scale / np.maximum(t, scale)) ** alpha)
            return out
        vals, probs = self._sorted_atoms()
        idx = np.searchsorted(vals, t, side="right")
        cum = np.concatenate([[0.0], np.cumsum(probs)])
        return cum[idx]

    def sf(self, t):
        """P(X >= t). Note the closed inequality: atoms at t are included."""
        t = np.asarray(t, dtype=float)
        if self.kind == "normal":
            mean, var = self.params
            return special.ndtr(-(t - mean) / math.sqrt(var))
        if self.kind == "uniform":
            lo, hi = self.params
            return 1.0 - np.clip((t - lo) / (hi - lo), 0.0, 1.0)
        if self.kind == "pareto":
            alpha, scale = self.params
            return np.where(t <= scale, 1.0, (scale / np.maximum(t, scale)) ** alpha)
        vals, probs = self._sorted_atoms()
        idx = np.searchsorted(vals, t, side="left")
        tail = np.concatenate([np.cumsum(probs[::-1])[::-1], [0.0]])
        return tail[idx]

    def pdf(self, x):
        if self.kind == "normal":
            mean, var = self.params
            sd = math.sqrt(var)
            x = np.asarray(x, dtype=float)
            return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * _SQRT_2PI)
        if self.kind == "uniform":
            lo, hi = self.params
            x = np.asarray(x, dtype=float)
            return np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)
        if self.kind == "pareto":
            alpha, scale = self.params
            x = np.asarray(x, dtype=float)
            return np.where(x >= scale, alpha * scale**alpha / np.maximum(x, scale) ** (alpha + 1.0), 0.0)
        raise ValueError(f"{self.kind} marginal has no density")

    def ppf(self, u):
        """Generalized inverse cdf, defined for u in [0, 1)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "normal":
            mean, var = self.params
            return mean + math.sqrt(var) * special.ndtri(np.maximum(u, _U_FLOOR))
        if self.kind == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * u
        if self.kind == "bernoulli":
            p = self.params[0]
            return (u >= 1.0 - p).astype(float)
        if self.kind == "pareto":
            alpha, scale = self.params
            return scale * (1.0 - u) ** (-1.0 / alpha)
        vals, probs = self._sorted_atoms()
        cum = np.cumsum(probs)
        idx = np.minimum(np.searchsorted(cum, u, side="left"), len(vals) - 1)
        return vals[idx]

    def from_normal_score(self, z):
        """Draws with standard normal scores ``z``: ``ppf(ndtr(z))``, exact for normals."""
        if self.kind == "normal":
            mean, var = self.params
            return mean + math.sqrt(var) * z
        return self.ppf(special.ndtr(z))

    # -- expectations of general integrands ----------------------------------

    def expect(self, f: Callable[[np.ndarray], np.ndarray], breakpoints: Sequence[float] = (),
               tol: float = 1e-10) -> float:
        """E[f(X)] by exact summation (discrete kinds) or adaptive quadrature."""
        if self.is_discrete:
            vals, probs = self._sorted_atoms()
            return float(np.sum(probs * np.asarray(f(vals), dtype=float)))
        lo, hi = self.support()
        pts = sorted(p for p in breakpoints if lo < p < hi)
        edges = [lo, *pts, hi]
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            val, err = integrate.quad(
                lambda x: float(np.reshape(f(np.asarray(x, dtype=float)), -1)[0])
                * float(self.pdf(x)),
                a, b, limit=200, epsabs=tol, epsrel=1e-9,
            )
            total += val
        return total


def moment(marginal: Marginal, k: float) -> MomentValue:
    """Raw and absolute k-th moments of a marginal; +inf flags nonexistence."""
    return MomentValue(raw=marginal.raw_moment(k), absolute=marginal.abs_moment(k))


@dataclass(frozen=True)
class ProductMeasure:
    """Product measure with independent coordinates.

    ``marginal(i)`` repeats the listed marginals cyclically past the end, which
    for a single listed marginal is the index-stationary (iid) extension.
    """

    marginals: tuple[Marginal, ...]
    stationary: bool = True

    def __post_init__(self) -> None:
        if len(self.marginals) == 0:
            raise ValueError("product measure needs at least one marginal")

    def marginal(self, i: int) -> Marginal:
        if i < len(self.marginals):
            return self.marginals[i]
        if not self.stationary:
            raise IndexError(f"coordinate {i} beyond the {len(self.marginals)} listed marginals")
        return self.marginals[i % len(self.marginals)]

    @property
    def listed_dim(self) -> int:
        return len(self.marginals)

    def all_discrete(self, arity: int) -> bool:
        return all(self.marginal(i).is_discrete for i in range(arity))

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Push row i of an (n, m) uniform block through ``marginal(i)``."""
        out = np.empty_like(u)
        for i in range(u.shape[0]):
            out[i] = self.marginal(i).ppf(u[i])
        return out


@dataclass(frozen=True)
class MeasureFamily:
    """Box-parametrized family of product measures.

    ``parameter_domain`` is a tuple of (lo, hi) axes, at most two of them.
    ``builder`` maps a parameter point (one positional argument per axis) to a
    ProductMeasure. The family is enumerated on a uniform grid with
    ``grid_resolution`` points per non-degenerate axis, row-major for two axes.
    ``K`` is the declared dominating constant of the family (>= 1).
    """

    parameter_domain: tuple[tuple[float, float], ...]
    builder: Callable[..., ProductMeasure]
    grid_resolution: int = 9
    K: float = 1.0
    name: str = "family"

    def __post_init__(self) -> None:
        d = len(self.parameter_domain)
        if d not in (1, 2):
            raise ValueError(f"parameter domain must have 1 or 2 axes, got {d}")
        for lo, hi in self.parameter_domain:
            if not lo <= hi:
                raise ValueError(f"domain axis [{lo}, {hi}] is empty")
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if not self.K >= 1.0:
            raise ValueError(f"dominating constant K must be >= 1, got {self.K}")

    @property
    def dim(self) -> int:
        return len(self.parameter_domain)

    def axes(self) -> list[np.ndarray]:
        out = []
        for lo, hi in self.parameter_domain:
            if lo == hi:
                out.append(np.array([lo]))
            else:
                out.append(np.linspace(lo, hi, self.grid_resolution))
        return out

    def grid_parameters(self) -> list:
        """Grid points as scalars (one axis) or row-major tuples (two axes)."""
        axes = self.axes()
        if len(axes) == 1:
            return [float(v) for v in axes[0]]
        return [(float(a), float(b)) for a in axes[0] for b in axes[1]]

    def measure_at(self, theta) -> ProductMeasure:
        if self.dim == 1:
            return self.builder(float(theta))
        return self.builder(*(float(t) for t in theta))

    def measures(self) -> list[tuple[object, ProductMeasure]]:
        return [(theta, self.measure_at(theta)) for theta in self.grid_parameters()]

    @property
    def is_singleton(self) -> bool:
        return all(lo == hi for lo, hi in self.parameter_domain)

    @staticmethod
    def singleton(measure: ProductMeasure, K: float = 1.0, name: str = "singleton") -> "MeasureFamily":
        return MeasureFamily(
            parameter_domain=((0.0, 0.0),),
            builder=lambda _t, _m=measure: _m,
            grid_resolution=2,
            K=K,
            name=name,
        )

