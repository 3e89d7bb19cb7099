"""Closed-form tail and maximal-moment bounds with explicit constants.

Every calculator here evaluates an inequality of the form

    capacity(sum of first n terms >= x) <= bound(x; inputs)

for sums of negatively dependent terms whose worst-case means are <= 0. The
inputs are family-level aggregates: the summed worst-case second moments, the
summed p-th moments (of positive parts or absolute values), the dominating
constant K of the dependence structure, and the free parameters of each
formula. The calculators are pure and vectorized in the threshold x.

Constants that the underlying arguments only assert to exist are pinned to
explicit values by tracing each proof step; ``DerivedConstants`` records the
pinned values together with a human-readable derivation trail. They depend
only on the moment order, so each calculator reads them off ``inputs.order``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .measures import _special

__all__ = [
    "BoundInputs",
    "DerivedConstants",
    "chebyshev_bound",
    "chernoff_explicit_bound",
    "chernoff_optimal_bound",
    "choquet_moment_bound",
    "conjugate_split_bound",
    "evaluate_formula",
    "kolmogorov_exponent",
    "kolmogorov_exponential_bound",
    "log_lower_inequality_margin",
    "moricz_constant",
    "moricz_maximal_bound",
    "moricz_maximal_bound_text_form",
    "power_tail_bound",
    "split_moment_bound",
]


@dataclass(frozen=True)
class BoundInputs:
    """Family-level aggregates shared by the bound calculators.

    ``variance_sum`` is the sum over the first n terms of the worst-case
    second moments. ``pos_moment_sum`` and ``abs_moment_sum`` are the summed
    worst-case p-th moments of the positive parts and of the absolute values
    respectively; either may be omitted when no calculator needing it is
    called. ``split`` lives in (0, 1] and trades the polynomial term against
    the Gaussian term; ``truncation`` is the level at which the exponential
    bounds cut each summand; ``tail_power`` is the polynomial decay order of
    the power bound.
    """

    n: int
    variance_sum: float
    K: float = 1.0
    order: float | None = None
    pos_moment_sum: float | None = None
    abs_moment_sum: float | None = None
    truncation: float | None = None
    split: float = 0.5
    tail_power: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.variance_sum > 0:
            raise ValueError(f"variance_sum must be positive, got {self.variance_sum}")
        if not 1.0 <= self.K < math.inf:
            raise ValueError(f"K must be finite and >= 1, got {self.K}")
        if self.order is not None and not self.order >= 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.pos_moment_sum is not None and self.pos_moment_sum < 0:
            raise ValueError("pos_moment_sum must be nonnegative")
        if self.abs_moment_sum is not None and self.abs_moment_sum < 0:
            raise ValueError("abs_moment_sum must be nonnegative")
        if self.truncation is not None and not self.truncation > 0:
            raise ValueError(f"truncation must be positive, got {self.truncation}")
        if not 0.0 < self.split <= 1.0:
            raise ValueError(f"split must lie in (0, 1], got {self.split}")
        if self.tail_power is not None and not self.tail_power > 0:
            raise ValueError(f"tail_power must be positive, got {self.tail_power}")
        # NaN passes the checks above, and an infinite moment sum makes every bound vacuous.
        for f in fields(self):
            value = getattr(self, f.name)
            if "float" in f.type and value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"this bound needs BoundInputs.{name}")


def moricz_constant(p: int) -> float:
    """Smallest representable M > 1 with 1 + M**(-1/p) <= 2**((p-2)/(2p)).

    The closed-form solution is (2**((p-2)/(2p)) - 1)**(-p); floating-point
    rounding can land a hair on the wrong side of the defining inequality, so
    the value is nudged up by ulps until the inequality holds as evaluated.
    """
    if p <= 2 or int(p) != p:
        raise ValueError(f"the dyadic block constant needs an integer order > 2, got {p}")
    p = int(p)
    target = 2.0 ** ((p - 2) / (2.0 * p))
    m = (target - 1.0) ** (-p)
    while 1.0 + m ** (-1.0 / p) > target:
        m = math.nextafter(m, math.inf)
    return m


@dataclass(frozen=True)
class DerivedConstants:
    """Explicit constants for a fixed moment order, with their derivations.

    ``split_pre`` multiplies the polynomial term of the split bound when the
    threshold is kept at the value the argument actually controls;
    ``split_post`` additionally absorbs the threshold change z = (1+2d)x and
    the induced split remap d' = (1+d)(1+2d)^2 - 1 <= 17d, so it is valid with
    the stated threshold and split. ``moment`` multiplies the Gaussian-scale
    term of the Choquet moment bound. ``moricz`` is the dyadic block constant;
    it is None unless the order is an integer above 2.
    """

    order: float
    split_pre: float
    split_post: float
    moment: float
    moricz: float | None
    trace: tuple[str, ...]

    @classmethod
    def for_order(cls, p: float) -> "DerivedConstants":
        if not p >= 2:
            raise ValueError(f"order must be >= 2, got {p}")
        envelope = (2.0 * p / math.e) ** (2.0 * p)
        split_pre = math.e**2 * 2.0 ** (2 * p - 2) * 4.0 ** (2 * p) * envelope
        split_post = split_pre * 3.0**p * 17.0 ** (2 * p)
        moment = math.e**p * p ** (p / 2.0) * (p / 2.0) * float(_special().beta(p / 2.0, p / 2.0))
        is_dyadic = p > 2 and float(p).is_integer()
        moricz = moricz_constant(int(p)) if is_dyadic else None
        trace = (
            f"envelope sup over 0<t<1 of t*(ln(1/t))^(2p) = (2p/e)^(2p) = {envelope:.6g}",
            f"split_pre = e^2 * 2^(2p-2) * 4^(2p) * envelope = {split_pre:.6g}; "
            "collects the union of the truncated-sum, single-jump, and multi-jump pieces "
            "with the split parameter at most 1",
            f"split_post = split_pre * 3^p * 17^(2p) = {split_post:.6g}; absorbs the "
            "threshold change z=(1+2d)x into the moment term (factor 3^p) and the remap "
            "d'=(1+d)(1+2d)^2-1 <= 17d into the split power (factor 17^(2p))",
            f"moment = e^p * p^(p/2) * (p/2) * Beta(p/2,p/2) = {moment:.6g}; from "
            "integrating the polynomial tail bound with decay order p against p*x^(p-1)",
        )
        if moricz is not None:
            trace = trace + (
                f"moricz = smallest M > 1 with 1 + M^(-1/p) <= 2^((p-2)/(2p)), = {moricz:.12g}",
            )
        return cls(order=float(p), split_pre=split_pre, split_post=split_post,
                   moment=moment, moricz=moricz, trace=trace)


# -- elementary inequality ----------------------------------------------------


def log_lower_inequality_margin(t):
    """ln(1+t) minus its lower estimate t/(1+t) + t^2/(2(1+t)^2)(1+(2/3)ln(1+t)).

    Nonnegative for all t > 0; the exponential bounds lean on this estimate.
    """
    t = np.asarray(t, dtype=float)
    log1p = np.log1p(t)
    est = t / (1.0 + t) + t**2 / (2.0 * (1.0 + t) ** 2) * (1.0 + (2.0 / 3.0) * log1p)
    return log1p - est


# -- exponential-family bounds --------------------------------------------------


def kolmogorov_exponent(inputs: BoundInputs, x):
    """Positive exponent E such that the exponential term equals K*exp(-E)."""
    inputs.require("truncation")
    x = np.asarray(x, dtype=float)
    y = inputs.truncation
    b = inputs.variance_sum
    ratio = x * y / b
    return x**2 / (2.0 * (x * y + b)) * (1.0 + (2.0 / 3.0) * np.log1p(ratio))


def kolmogorov_exponential_bound(inputs: BoundInputs, x):
    """Exponential tail term for the truncated sum.

    The full inequality adds the upper capacity that some single term exceeds
    the truncation level; the caller owns that piece because it depends on the
    family, not on these aggregates.
    """
    return inputs.K * np.exp(-kolmogorov_exponent(inputs, x))


def chernoff_optimal_bound(inputs: BoundInputs, x):
    """Tilted bound at the optimal tilt (1/y)*ln(1 + xy/B)."""
    inputs.require("truncation")
    x = np.asarray(x, dtype=float)
    y = inputs.truncation
    b = inputs.variance_sum
    ratio = x * y / b
    return inputs.K * np.exp(x / y - (x / y) * (1.0 / ratio + 1.0) * np.log1p(ratio))


def chernoff_explicit_bound(inputs: BoundInputs, x, t: float):
    """Tilted bound at a caller-chosen tilt t >= 0."""
    inputs.require("truncation")
    if t < 0:
        raise ValueError(f"tilt must be nonnegative, got {t}")
    x = np.asarray(x, dtype=float)
    y = inputs.truncation
    b = inputs.variance_sum
    growth = (math.expm1(t * y) - t * y) / y**2
    return inputs.K * np.exp(-t * x + growth * b)


# -- polynomial and mixed bounds ---------------------------------------------------


def split_moment_bound(inputs: BoundInputs, x, *, form: str = "pre"):
    """Polynomial-plus-Gaussian split using positive-part p-th moments."""
    inputs.require("order", "pos_moment_sum")
    x = np.asarray(x, dtype=float)
    p = inputs.order
    constants = DerivedConstants.for_order(p)
    if form == "pre":
        c = constants.split_pre
    elif form == "post":
        c = constants.split_post
    else:
        raise ValueError(f"form must be 'pre' or 'post', got {form!r}")
    d = inputs.split
    poly = c * d ** (-2.0 * p) * inputs.K * inputs.pos_moment_sum / x**p
    gauss = inputs.K * np.exp(-(x**2) / (2.0 * inputs.variance_sum * (1.0 + d)))
    return poly + gauss


def power_tail_bound(inputs: BoundInputs, x):
    """Polynomial tail term with decay order r.

    The full inequality adds the upper capacity that some single positive part
    exceeds x/r; the caller owns that piece.
    """
    inputs.require("tail_power")
    x = np.asarray(x, dtype=float)
    r = inputs.tail_power
    b = inputs.variance_sum
    # np.float_power is libm pow, which a scalar threshold has always taken;
    # numpy's ** on an array may differ from it by an ulp.
    return inputs.K * math.exp(r) * np.float_power(r * b / (r * b + x**2), r)


def chebyshev_bound(inputs: BoundInputs, x):
    """(1 + K*e) times variance_sum over x squared."""
    x = np.asarray(x, dtype=float)
    return (1.0 + inputs.K * math.e) * inputs.variance_sum / x**2


def choquet_moment_bound(inputs: BoundInputs, per_term_pos_choquet: Sequence[float], *,
                         max_term_pos_choquet: float | None = None):
    """Upper Choquet p-th moment of the running-sum positive part.

    Returns the summed form p^p * sum_k C[(term_k^+)^p] + moment-constant *
    K * variance_sum^(p/2). When the Choquet moment of the single largest
    positive part is supplied, the tighter max form is evaluated too and the
    pair is checked for the required ordering.
    """
    inputs.require("order")
    p = inputs.order
    constants = DerivedConstants.for_order(p)
    per_term = _per_term_moments(inputs, per_term_pos_choquet)
    gauss = constants.moment * inputs.K * inputs.variance_sum ** (p / 2.0)
    sum_form = p**p * float(np.sum(per_term)) + gauss
    if max_term_pos_choquet is not None:
        max_form = p**p * float(max_term_pos_choquet) + gauss
        if max_form > sum_form * (1.0 + 1e-12) + 1e-12:
            raise ValueError(
                "max-term Choquet moment exceeds the per-term sum; inputs are inconsistent"
            )
        return sum_form, max_form
    return sum_form


def _per_term_moments(inputs: BoundInputs, per_term_pos_choquet: Sequence[float]) -> np.ndarray:
    """The per-term Choquet moments, one for each of the ``n`` summands."""
    per_term = np.asarray(per_term_pos_choquet, dtype=float)
    if len(per_term) != inputs.n:
        raise ValueError(f"expected {inputs.n} per-term Choquet moments, got {len(per_term)}")
    return per_term


# -- maximal partial-sum bounds -------------------------------------------------------


def _maximal_constants(p: float) -> DerivedConstants:
    """The constants at order p; the maximal bound needs the dyadic one."""
    constants = DerivedConstants.for_order(p)
    if constants.moricz is None:
        raise ValueError(
            f"the maximal bound needs an integer order > 2 (the block recursion is "
            f"proved only for integers), got {p}"
        )
    return constants


def moricz_maximal_bound(inputs: BoundInputs, max_pos_choquet: float,
                         max_second_moment: float):
    """Worst-case p-th moment of the running maximum of partial-sum positive parts.

    Uses the dyadic block recursion at m = the next power of two >= n; a single
    term needs no blocking and gets the one-block bound directly. The order
    must be an integer above 2; the block recursion is only proved there.
    """
    inputs.require("order")
    p = inputs.order
    constants = _maximal_constants(p)
    k1 = p * max_pos_choquet ** (1.0 / p)
    k2 = (constants.moment * inputs.K) ** (1.0 / p) * math.sqrt(max_second_moment)
    if inputs.n == 1:
        return (k1 + k2) ** p
    m = 2 ** math.ceil(math.log2(inputs.n))
    gamma = (p - 2.0) / (2.0 * p)
    return constants.moricz * m * (k1 * math.log2(m) + k2 * m**gamma) ** p


def moricz_maximal_bound_text_form(inputs: BoundInputs, max_pos_choquet: float,
                                   max_second_moment: float):
    """Plain-n form of the maximal bound: C1*n*(log2(2n))^p*maxC + C2*n^(p/2)*maxB^(p/2).

    Dominates the dyadic form after bounding the next power of two by 2n.
    """
    inputs.require("order")
    p = inputs.order
    constants = _maximal_constants(p)
    m_const = constants.moricz
    c1 = m_const * 2.0**p * p**p
    c2 = m_const * 2.0 ** (p - 1.0) * 2.0 ** (p / 2.0) * constants.moment * inputs.K
    n = inputs.n
    return (c1 * n * math.log2(2 * n) ** p * max_pos_choquet
            + c2 * n ** (p / 2.0) * max_second_moment ** (p / 2.0))


# -- conjugate-target bounds -----------------------------------------------------------

# The lower-capacity inequalities reuse the primal closed forms
# (``kolmogorov_exponential_bound`` and ``chebyshev_bound``); what changes is
# the moment aggregate they accept and the empirical capacity they are
# compared against downstream.


def conjugate_split_bound(inputs: BoundInputs, x, *, form: str = "pre"):
    """Split bound against the lower capacity; uses absolute p-th moments."""
    inputs.require("order", "abs_moment_sum")
    surrogate = replace(inputs, pos_moment_sum=inputs.abs_moment_sum)
    return split_moment_bound(surrogate, x, form=form)


# -- formula dispatcher ------------------------------------------------------------------

# The formulas ``evaluate_formula`` knows, by name.
_FORMULAS = ("exp", "split", "power", "chebyshev", "choquet-moment", "moricz", "conjugate")


def evaluate_formula(name: str, inputs: BoundInputs, x, *,
                     per_term_pos_choquet: Sequence[float] | None = None,
                     max_term_pos_choquet: float | None = None,
                     max_pos_choquet: float | None = None,
                     max_second_moment: float | None = None,
                     tilt: float | None = None,
                     form: str = "pre") -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    """Evaluate one named formula (or the conjugate trio) on a threshold grid.

    Returns a mapping from output column name to values, plus the derivation
    trail of any constants involved.
    """
    if name not in _FORMULAS:
        raise ValueError(f"unknown formula {name!r}; expected one of {', '.join(_FORMULAS)}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("thresholds must be positive")
    if not np.all(np.isfinite(x)):
        raise ValueError("thresholds must be finite")
    scalars = {"per_term_pos_choquet": per_term_pos_choquet,
               "max_term_pos_choquet": max_term_pos_choquet,
               "max_pos_choquet": max_pos_choquet,
               "max_second_moment": max_second_moment, "tilt": tilt}
    for key, value in scalars.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{key} must be finite, got {value}")
    trace = () if inputs.order is None else DerivedConstants.for_order(inputs.order).trace

    if name == "exp":
        out = {"exp": kolmogorov_exponential_bound(inputs, x)}
        if tilt is not None:
            out["tilted"] = chernoff_explicit_bound(inputs, x, tilt)
        else:
            out["tilted_optimal"] = chernoff_optimal_bound(inputs, x)
        return out, ()
    if name == "split":
        return {"split": split_moment_bound(inputs, x, form=form)}, trace
    if name == "power":
        return {"power": power_tail_bound(inputs, x)}, ()
    if name == "chebyshev":
        return {"chebyshev": chebyshev_bound(inputs, x)}, ()
    if name == "choquet-moment":
        if per_term_pos_choquet is None:
            raise ValueError("choquet-moment needs per_term_pos_choquet")
        res = choquet_moment_bound(inputs, per_term_pos_choquet,
                                   max_term_pos_choquet=max_term_pos_choquet)
        if isinstance(res, tuple):
            sum_form, max_form = res
            vals = {"choquet_moment_sum_form": np.full_like(x, sum_form),
                    "choquet_moment_max_form": np.full_like(x, max_form)}
        else:
            vals = {"choquet_moment_sum_form": np.full_like(x, res)}
        return vals, trace
    if name == "moricz":
        if max_pos_choquet is None and per_term_pos_choquet is not None:
            # The bound reads only the largest per-term moment.
            _per_term_moments(inputs, per_term_pos_choquet)
            max_pos_choquet = max(per_term_pos_choquet)
        if max_pos_choquet is None or max_second_moment is None:
            raise ValueError("moricz needs per_term_pos_choquet (or max_pos_choquet) "
                             "and max_second_moment")
        dyadic = moricz_maximal_bound(inputs, max_pos_choquet, max_second_moment)
        text = moricz_maximal_bound_text_form(inputs, max_pos_choquet, max_second_moment)
        return ({"moricz_dyadic": np.full_like(x, dyadic),
                 "moricz_text_form": np.full_like(x, text)}, trace)
    # name == "conjugate"
    out = {"conjugate_chebyshev": chebyshev_bound(inputs, x)}
    if inputs.truncation is not None:
        out["conjugate_exp"] = kolmogorov_exponential_bound(inputs, x)
    if inputs.order is not None and inputs.abs_moment_sum is not None:
        out["conjugate_split"] = conjugate_split_bound(inputs, x, form=form)
    return out, trace
