"""Parametric marginals, product measures, and measure families.

A measure family is a box of parameters together with a builder that maps each
parameter point to a product measure with known one-dimensional marginals.
Everything downstream (worst-case expectations, capacities, tail bounds,
experiments) enumerates the family on a finite grid and aggregates per-measure
quantities.

Sampling is counter-based: every (seed, context, column) triple owns its own
Philox stream, so any block of draws is bit-reproducible regardless of worker
count, chunking, or evaluation order.

The stream layout is a bit contract, pinned by the golden digests. Stream
``(seed, context, column)`` is Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) under the key words
``(context << 32 | column, seed)``. Its counters run 1, 2, 3, ... in the
first counter word (the other three stay 0), each counter gives 4 output words
in order, and output word ``w`` becomes the uniform ``(w >> 11) * 2**-53``.
This is what ``np.random.Generator(np.random.Philox(key=...)).random``
returns. ``philox_uniforms`` computes any range of draws of many such
streams at once, one contiguous row per stream, along one of two paths
chosen from the draws per stream alone: many draws reuse one numpy bit
generator per thread, reset its key and counter for each stream and fill
that stream's row in place; fewer than ``_TALL_ROWS`` run the cipher in
numpy over a (counter, column) grid. The cipher takes one slice of about
``_CIPHER_WORDS // counters`` columns at a time, so its temporaries stay in
L2 cache, and writes each output word straight into a (draw, stream) view
of the caller's array: the transpose of ``philox_uniforms``' block, or
``uniform_block``'s own (coordinate, replication) block, the layout the
envelope code reads, which a short block thus fills without a copy.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadpack import quad

__all__ = [
    "Marginal",
    "MeasureFamily",
    "ProductMeasure",
    "normal_scores",
    "philox_stream",
    "philox_uniforms",
    "uniform_block",
]

# Floor for uniforms fed to inverse-cdf transforms; rng.random() can emit 0.0.
_U_FLOOR = 1e-300

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@functools.cache
def _special():
    """``scipy.special``, imported when a computation first needs it.

    Its import, with the array-API layer that brings in ``numpy.testing``
    and ``numpy.f2py``, takes about 0.3 s of CPU, and no config parse and
    several commands never call it. Two threads that ask at once are safe:
    Python's per-module import lock makes the second wait until the first
    has finished loading. (``importlib.util.LazyLoader`` is not, as its
    module swap takes no lock against concurrent first access.)
    """
    from scipy import special

    return special


def _check_seed(seed: int) -> None:
    """Reject a seed that does not fit the 64-bit half of the Philox key."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _check_key(seed: int, context: int, column: int) -> None:
    """Reject a key field that does not fit its part of the 128-bit Philox key."""
    _check_seed(seed)
    if not (0 <= context < 1 << 32 and 0 <= column < 1 << 32):
        raise ValueError(
            f"stream context and column must lie in [0, 2**32), got {context} and {column}"
        )


def philox_stream(seed: int, context: int = 0, column: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one (seed, context, column) cell.

    The three keys share one 128-bit Philox key, so each must fit its field:
    the seed in [0, 2**64), the context and the column in [0, 2**32).
    """
    _check_key(seed, context, column)
    key = (seed << 64) | (context << 32) | column
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 multipliers and key increments (Random123).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Word constants as 0-d arrays: on a small array numpy takes about 0.85 us
# per operation with one, against 1.2-1.6 us with a numpy or Python scalar
# (timeit, 2-vCPU x86 box), and per-operation overhead is most of the cost
# of a short column slice.
_MASK32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
_SHIFT11 = np.array(11, dtype=np.uint64)
_ULP53 = np.array(2.0**-53)
# Each lane's multiplier, its 32-bit halves and its key increment.
_LANE_CONSTANTS = tuple(np.array(words, dtype=np.uint64) for words in (
    _PHILOX_M, [m & 0xFFFFFFFF for m in _PHILOX_M], [m >> 32 for m in _PHILOX_M], _PHILOX_W))

# Below this many rows per column, philox_uniforms runs the cipher in numpy;
# from it on, it resets one bit generator per column. Over 2000 columns on a
# 2-vCPU x86 box, the numpy cipher cost 45-70 ns per draw at 32 to 256 rows,
# while a reset costs about 3 us per column, so the reset path cost 85-100 ns
# per draw at 32 rows, 47-52 at 64 and 19-20 at 256: they meet near 56 rows.
_TALL_ROWS = 64

# Columns per slice of the numpy cipher, times the counters per column: each
# uint64 temporary then holds two lanes of about 4096 words (64 KiB), and the
# eight that a round keeps live stay in L2 cache. A 3 x 20000 uniform_block
# peaked at 1.2 MiB under tracemalloc, against 3.2 MiB when the whole block
# went through the cipher at once and was transposed and copied.
_CIPHER_WORDS = 1 << 12

# Each thread's reused bit generator for the tall path of philox_uniforms.
_TALL = threading.local()


def _tall_generator() -> tuple[np.random.Philox, np.random.Generator, dict]:
    """This thread's Philox bit generator, its Generator and a state dict.

    Built once per thread: a new ``Philox`` costs about 13 us, its
    ``os.urandom`` seed included. The dict holds Python ints, which the state
    setter reads in about 0.8 us against 1.7 us for the numpy arrays of
    ``bitgen.state`` (timeit, 2-vCPU x86 box); callers set its counter and
    key words and leave the buffer empty.
    """
    cached = getattr(_TALL, "generator", None)
    if cached is None:
        bitgen = np.random.Philox(key=0)
        state = bitgen.state
        state["state"] = {"counter": [0, 0, 0, 0], "key": [0, 0]}
        state["buffer"] = [0, 0, 0, 0]
        state["buffer_pos"] = 4  # empty buffer: the first draw steps the counter
        cached = _TALL.generator = (bitgen, np.random.Generator(bitgen), state)
    return cached


def _mulhilo(a: np.ndarray, a_lo: np.ndarray, a_hi: np.ndarray,
             b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * b``.

    ``a_lo`` and ``a_hi`` are the 32-bit halves of ``a``. Overwrites ``b``,
    which saves a temporary.
    """
    lo = a * b
    # Schoolbook product of 32-bit halves: no partial sum can pass 2**64, and
    # sums mod 2**64 are exact, so they run in place in any order.
    t = b & _MASK32
    b >>= _SHIFT32
    u = a_lo * t
    u >>= _SHIFT32
    t *= a_hi
    u += t  # a_hi * b_lo + (a_lo * b_lo >> 32)
    np.bitwise_and(u, _MASK32, out=t)
    u >>= _SHIFT32
    hi = a_hi * b
    hi += u
    b *= a_lo
    t += b  # a_lo * b_hi + (u & mask)
    t >>= _SHIFT32
    hi += t
    return hi, lo


def _philox4x64(counter, key) -> tuple[np.ndarray, ...]:
    """The Philox4x64-10 block function on broadcastable uint64 word arrays.

    ``counter`` holds four words and ``key`` two, each a scalar or an array;
    the four output word arrays have the broadcast shape of the inputs, at
    least one-dimensional (numpy scalars would warn where the words wrap).
    A round multiplies words 0 and 2 and mixes the products into words 1
    and 3, so the state runs as two lanes stacked on a new first axis: lane
    0 holds words 0 and 1 under key word 0, lane 1 words 2 and 3 under key
    word 1, and one array operation serves both lanes.
    """
    words = [np.asarray(w, dtype=np.uint64) for w in (*counter, *key)]
    ndim = max(1, *(w.ndim for w in words))
    x0, x1, x2, x3, k0, k1 = (w.reshape((1,) * (ndim - w.ndim) + w.shape) for w in words)
    shape = np.broadcast_shapes(x0.shape, x1.shape, x2.shape, x3.shape, k0.shape, k1.shape)
    mul = np.stack([np.broadcast_to(x0, shape), np.broadcast_to(x2, shape)])
    mix = np.stack([np.broadcast_to(x1, shape), np.broadcast_to(x3, shape)])
    k = np.stack(np.broadcast_arrays(k0, k1))
    m, m_lo, m_hi, w = (c.reshape((2,) + (1,) * ndim) for c in _LANE_CONSTANTS)
    for r in range(_PHILOX_ROUNDS):
        hi, lo = _mulhilo(m, m_lo, m_hi, mul)
        # Lane 0 takes lane 1's product and lane 1 lane 0's.
        hi ^= mix[::-1]
        hi ^= k[::-1]
        mul, mix = hi[::-1], lo[::-1]
        if r + 1 < _PHILOX_ROUNDS:
            # The key schedule adds one increment a round; uint64 wraps mod 2**64.
            k += w
    return mul[0], mix[0], mul[1], mix[1]


def _stream_keys(seed: int, context: int, columns, start: int, stop: int) -> np.ndarray:
    """First key words ``context << 32 | c`` of the streams ``(seed, context, c)``.

    Checks every key field and the draw range ``start..stop-1`` first.
    """
    cols = np.asarray(columns)
    for column in {int(cols.min()), int(cols.max())} if cols.size else {0}:
        _check_key(seed, context, column)
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got {start} and {stop}")
    key0 = cols.astype(np.uint64)
    key0 |= np.uint64(context << 32)
    return key0


def _cipher(seed: int, key0: np.ndarray, start: int, out: np.ndarray) -> None:
    """Draws ``start..`` of the streams keyed ``(key0[j], seed)``, by the numpy cipher.

    ``out`` is a float64 ``(rows, len(key0))`` view of any strides; entry
    (i, j) becomes draw ``start + i`` of stream j, which is word
    ``(start + i) % 4`` of counter ``(start + i) // 4 + 1``. The cipher runs
    over ``_CIPHER_WORDS // counters`` columns at a time and writes each
    output word straight into the rows of ``out`` it feeds.
    """
    rows, skip = out.shape[0], start % 4
    counters = (skip + rows + 3) // 4
    first = start // 4 + 1
    ctr = np.arange(first, first + counters, dtype=np.uint64)[:, None]
    zero = np.zeros((1, 1), dtype=np.uint64)
    step = max(1, _CIPHER_WORDS // counters)
    for j in range(0, key0.size, step):
        words = _philox4x64((ctr, zero, zero, zero), (key0[None, j:j + step], seed))
        for w, word in enumerate(words):
            i = (w - skip) % 4  # the first row this word feeds
            target = out[i::4, j:j + step]
            bits = word[(skip + i) // 4:][:target.shape[0]]
            bits >>= _SHIFT11
            np.multiply(bits, _ULP53, out=target)


def philox_uniforms(seed: int, context: int, columns: Sequence[int],
                    start: int, stop: int) -> np.ndarray:
    """Draws ``start..stop-1`` of the streams ``(seed, context, c)``, c in ``columns``.

    Returns a C-contiguous ``(len(columns), stop - start)`` float64 block whose
    row j equals ``philox_stream(seed, context, columns[j]).random(stop)[start:]``
    bit for bit. Draw i of a stream is word ``i % 4`` of counter ``i // 4 + 1``.
    Blocks with fewer than ``_TALL_ROWS`` draws per stream run the numpy
    cipher (``_cipher``) on the block's transposed view; longer ones reset
    the calling thread's reused bit generator to each column's key and first
    counter, drop the first ``start % 4`` words and fill that stream's row
    in place.
    """
    key0 = _stream_keys(seed, context, columns, start, stop)
    rows = stop - start
    # One contiguous row per stream: a trajectory's draws sit side by side,
    # so the tall path fills each row in place and a scan along time reads
    # memory in order.
    out = np.empty((key0.size, rows), dtype=np.float64)
    if out.size == 0:
        return out
    if rows >= _TALL_ROWS:
        bitgen, gen, state = _tall_generator()
        state["state"]["counter"][0] = start // 4
        key = state["state"]["key"]
        key[1] = seed
        skip = start % 4
        for j, k0 in enumerate(key0.tolist()):
            key[0] = k0
            bitgen.state = state
            if skip:
                gen.random(skip)
            gen.random(out=out[j])
        return out

    _cipher(seed, key0, start, out.T)
    return out


def uniform_block(seed: int, n: int, m: int, context: int = 0) -> np.ndarray:
    """(n, m) uniforms on [0, 1); column j is drawn from stream (seed, context, j).

    Bit contract: entry (i, j) is word ``i % 4`` of Philox4x64-10 at counter
    ``i // 4 + 1`` under the key words ``(context << 32 | j, seed)``, taken as
    ``(w >> 11) * 2**-53``; the block is C-contiguous. It is the transpose of
    ``philox_uniforms(seed, context, np.arange(m), 0, n)``.

    Blocks of fewer than ``_TALL_ROWS`` (64) rows, such as the 1 to 3 rows
    over tens of thousands of columns that a Monte Carlo envelope draws, run
    the numpy cipher straight into the (n, m) result, one slice of about
    ``_CIPHER_WORDS // ceil(n / 4)`` columns at a time, so the cipher's
    temporaries stay small and nothing is transposed or copied. Taller
    blocks come from ``philox_uniforms``' reset bit generator, one row per
    column, and are copied once into C order. The threshold is where the
    two costs met when measured: the numpy cipher's roughly constant cost
    per draw against the reset's fixed cost per column, shared over its rows.
    """
    if n >= _TALL_ROWS:
        return np.ascontiguousarray(philox_uniforms(seed, context, np.arange(m), 0, n).T)
    key0 = _stream_keys(seed, context, np.arange(m), 0, n)
    out = np.empty((n, key0.size), dtype=np.float64)
    if out.size:
        _cipher(seed, key0, 0, out)
    return out


def normal_scores(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal quantiles of uniforms, clipped away from 0 and 1.

    They are the standard normal's ``ppf`` of ``u`` capped below 1. With
    ``out`` (a float64 array shaped like ``u``, possibly ``u`` itself) the
    scores are written there with the same bits.
    """
    capped = np.minimum(u, 1.0 - 1e-16, out=out)
    return Marginal.normal(0.0, 1.0).ppf(capped, out=capped)


def _double_factorial_odd(j: int) -> float:
    """(2j - 1)!! with the empty product equal to 1."""
    out = 1.0
    for i in range(1, 2 * j, 2):
        out *= i
    return out


@dataclass(frozen=True)
class Marginal:
    """One-dimensional marginal with closed-form moments, cdf/sf/ppf, and density.

    Supported kinds: ``normal(mean, variance)``, ``uniform(lo, hi)``,
    ``discrete(atoms)``, ``pareto(alpha, scale)``. Construct through the
    static factories; ``params`` is kind-specific.
    """

    kind: str
    params: tuple

    def __post_init__(self) -> None:
        # NaN passes every range check below, so each number is checked first.
        if self.kind == "discrete":
            named = [("atoms", x) for atom in self.params[0] for x in atom]
        elif self.kind in ("normal", "uniform", "pareto"):
            _, required, optional = _MARGINALS[self.kind]
            named = zip(required + optional, self.params)
        else:
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        for key, value in named:
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} {key} must be finite, got {value}")
        if self.kind == "normal":
            mean, var = self.params
            if not var > 0:
                raise ValueError(f"normal variance must be positive, got {var}")
        elif self.kind == "uniform":
            lo, hi = self.params
            if not lo < hi:
                raise ValueError(f"uniform needs lo < hi, got [{lo}, {hi}]")
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

    # -- factories ---------------------------------------------------------

    @staticmethod
    def normal(mean: float, variance: float) -> "Marginal":
        return Marginal("normal", (float(mean), float(variance)))

    @staticmethod
    def uniform(lo: float, hi: float) -> "Marginal":
        return Marginal("uniform", (float(lo), float(hi)))

    @staticmethod
    def bernoulli(p: float) -> "Marginal":
        """The discrete law with atoms 0 and 1, of probabilities 1 - p and p."""
        p = float(p)
        if not math.isfinite(p):
            raise ValueError(f"bernoulli p must be finite, got {p}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli p must lie in [0, 1], got {p}")
        return Marginal.discrete(((0.0, 1.0 - p), (1.0, p)))

    @staticmethod
    def discrete(atoms: Sequence[tuple[float, float]]) -> "Marginal":
        return Marginal("discrete", (tuple((float(v), float(p)) for v, p in atoms),))

    @staticmethod
    def pareto(alpha: float, scale: float = 1.0) -> "Marginal":
        return Marginal("pareto", (float(alpha), float(scale)))

    # -- structure ---------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.kind == "discrete"

    def atoms(self) -> tuple[tuple[float, float], ...]:
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
            special = _special()
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
                mj = [float(_special().ndtr(a)), phi_a]
                for j in range(2, ki + 1):
                    mj.append((-a) ** (j - 1) * phi_a + (j - 1) * mj[j - 2])
                total = 0.0
                for j in range(ki + 1):
                    total += math.comb(ki, j) * a ** (ki - j) * mj[j]
                return sd**k * total
            # np.float_power is libm pow, as Python's float ** float
            return quad(lambda x: np.float_power(x, k) * self.pdf(x), 0.0, math.inf,
                        limit=200).value
        if self.kind == "uniform":
            lo, hi = self.params
            if hi <= 0:
                return 0.0
            lo_pos = max(lo, 0.0)
            return (hi ** (k + 1) - lo_pos ** (k + 1)) / ((k + 1) * (hi - lo))
        if self.kind == "discrete":
            return float(math.fsum(p * max(v, 0.0) ** k for v, p in self.atoms() if p > 0))
        return self.raw_moment(k)

    # -- distribution functions (vectorized) --------------------------------

    def cdf(self, t):
        """P(X <= t)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "normal":
            mean, var = self.params
            return _special().ndtr((t - mean) / math.sqrt(var))
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
            return _special().ndtr(-(t - mean) / math.sqrt(var))
        if self.kind == "uniform":
            lo, hi = self.params
            return 1.0 - np.clip((t - lo) / (hi - lo), 0.0, 1.0)
        if self.kind == "pareto":
            alpha, scale = self.params
            return np.where(t <= scale, 1.0, (scale / np.maximum(t, scale)) ** alpha)
        return self._tail_mass(*self._sorted_atoms(), t)

    @staticmethod
    def _tail_mass(vals: np.ndarray, probs: np.ndarray, t) -> np.ndarray:
        """P(X >= t) for atoms ``vals`` of probabilities ``probs`` in any order:
        the tail sums of ``probs`` in stable value order, read at the first
        value not below t."""
        order = np.argsort(vals, kind="stable")
        tail = np.concatenate([np.cumsum(probs[order][::-1])[::-1], [0.0]])
        return tail[np.searchsorted(vals[order], t, side="left")]

    def pdf(self, x):
        if self.kind == "normal":
            mean, var = self.params
            sd = math.sqrt(var)
            x = np.asarray(x, dtype=float)
            # np.float_power is libm pow, as Python's float ** 2, and the
            # pinned quadratures follow it; np.square differs from it by an
            # ulp on about 0.08% of arguments.
            return np.exp(-0.5 * np.float_power((x - mean) / sd, 2.0)) / (sd * _SQRT_2PI)
        if self.kind == "uniform":
            lo, hi = self.params
            x = np.asarray(x, dtype=float)
            return np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)
        if self.kind == "pareto":
            alpha, scale = self.params
            x = np.asarray(x, dtype=float)
            return np.where(x >= scale, alpha * scale**alpha / np.maximum(x, scale) ** (alpha + 1.0), 0.0)
        raise ValueError(f"{self.kind} marginal has no density")

    def ppf(self, u, out=None):
        """Generalized inverse cdf, defined for u in [0, 1).

        With ``out`` (a float64 array shaped like ``u``, possibly ``u``
        itself) the draws are written there with the same bits, and no array
        of ``u``'s size is allocated for the continuous kinds.
        """
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty_like(u)
        if self.kind == "normal":
            # The bits of mean + sd * ndtri(max(u, floor)); times 1.0 returns
            # every float unchanged, so unit variance skips that pass.
            mean, var = self.params
            _special().ndtri(np.maximum(u, _U_FLOOR, out=out), out=out)
            if var != 1.0:
                out *= math.sqrt(var)
            out += mean
        elif self.kind == "uniform":
            lo, hi = self.params
            np.multiply(u, hi - lo, out=out)
            out += lo
        elif self.kind == "pareto":
            alpha, scale = self.params
            np.subtract(1.0, u, out=out)
            out **= -1.0 / alpha
            out *= scale
        else:
            # The first atom whose cdf reaches u. Flooring u = 0 skips leading
            # atoms of zero mass, which every u > 0 skips already.
            vals, probs = self._sorted_atoms()
            idx = np.searchsorted(np.cumsum(probs), np.maximum(u, _U_FLOOR), side="left")
            # "clip" maps an index past the last atom to the last atom.
            np.take(vals, idx, out=out, mode="clip")
        return out if out.ndim else out[()]

    def from_normal_score(self, z, out=None):
        """Draws with standard normal scores ``z``: ``ppf(ndtr(z))``, exact for normals.

        With ``out`` (a float64 array shaped like ``z``, possibly ``z``
        itself) the draws are written there with the same bits.
        """
        if self.kind == "normal":
            # The bits of mean + sd * z: both operations commute exactly, and
            # sd = 1.0 returns z unchanged.
            mean, var = self.params
            if var != 1.0:
                z = np.multiply(z, math.sqrt(var), out=out)
            return np.add(z, mean, out=out)
        return self.ppf(_special().ndtr(z, out=out), out=out)

    # -- expectations of general integrands ----------------------------------

    def expect(self, f: Callable[[np.ndarray], np.ndarray], breakpoints: Sequence[float] = (),
               tol: float = 1e-10) -> float:
        """E[f(X)] by exact summation (discrete kinds) or adaptive quadrature.

        ``f`` maps an array of points to their values. Quadrature is
        QUADPACK (``quadpack.quad``) over each piece of the support between
        the breakpoints; each rule application calls ``f`` once on all of
        its nodes and multiplies by the density there.
        """
        if self.is_discrete:
            vals, probs = self._sorted_atoms()
            return float(np.sum(probs * np.asarray(f(vals), dtype=float)))

        def integrand(x: np.ndarray) -> np.ndarray:
            return np.asarray(f(x), dtype=float).reshape(-1) * self.pdf(x)

        lo, hi = self.support()
        pts = sorted(p for p in breakpoints if lo < p < hi)
        edges = [lo, *pts, hi]
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            total += quad(integrand, a, b, limit=200, epsabs=tol, epsrel=1e-9).value
        return total


# The one list of kinds, so that ``Marginal``'s messages and the config's
# readers cannot drift apart: kind -> (factory, required keys, optional keys),
# the keys in ``params`` order; the factory takes the values of those present.
_MARGINALS = {
    "normal": (Marginal.normal, ("mean", "var"), ()),
    "uniform": (Marginal.uniform, ("lo", "hi"), ()),
    "bernoulli": (Marginal.bernoulli, ("p",), ()),
    "discrete": (Marginal.discrete, ("atoms",), ()),
    "pareto": (Marginal.pareto, ("alpha",), ("scale",)),
}


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

    def all_discrete(self, arity: int) -> bool:
        return all(self.marginal(i).is_discrete for i in range(arity))

    def row_groups(self, n: int) -> list[tuple[Marginal, slice]]:
        """``(marginal(k), rows k, k + L, ...)`` over L listed marginals and n rows."""
        count = len(self.marginals)
        if n > count and not self.stationary:
            raise IndexError(f"coordinate {count} beyond the {count} listed marginals")
        return [(m, slice(k, None, count)) for k, m in enumerate(self.marginals[:n])]

    def ppf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Push row i of an (n, m) uniform block through ``marginal(i)``, one
        call per listed marginal; ``out`` (possibly ``u``) gets the same bits.
        """
        if out is None:
            out = np.empty_like(u)
        for marginal, rows in self.row_groups(u.shape[0]):
            marginal.ppf(u[rows], out=out[rows])
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"domain axis [{lo}, {hi}] must be finite")
            if not lo <= hi:
                raise ValueError(f"domain axis [{lo}, {hi}] is empty")
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if not 1.0 <= self.K < math.inf:
            raise ValueError(f"dominating constant K must be finite and >= 1, got {self.K}")

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

