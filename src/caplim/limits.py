"""Long-run experiments for sums under a family of plausible laws.

Each runner draws trajectories with counter-based streams keyed by
``(seed, context, column)`` where the column is the global trajectory
index. Work is split across trajectories, so results are bit-identical
for any worker count: a trajectory's draws never depend on which worker
produced them or on how trajectories were grouped.

A runner states only its statistic. One scan, ``_partial_sums``, builds
the partial sums ``S_k`` of every runner but the cluster sampler, and one
driver, ``_scan``, owns the tasks and the worker pool. A runner hands it
its streams (a context, the marginals that share its uniforms and a
horizon) and a reducer of the scan's pieces, each a block of partial sums:
the strong law, the iterated logarithm and the divergence check reduce
every partial sum, and the Monte Carlo weak law and the bound sweep pass no
reducer, so the scan reads ``S_n`` alone. A task is one stream's group of
consecutive trajectories, sized from the horizon alone, so the worker count
only schedules the tasks. Every runner returns through ``_result``.

A runner reads the family as the first marginal of each measure, from
``_grid_marginals``, over its grid or a denser one built once per run.
Each extremum over the dense list (mean interval, worst-case moments, the
cluster's steering) is one pick of the first entry attaining it by the
envelope engine's extremizer, ``_extreme``. Every mode but the divergence
check needs a finite mean interval, and the iterated logarithm a finite
upper variance.

Sums keep the bits of a chunked scan: chunks of a fixed number of draws,
each summed sequentially and added to the running total. ``_scan`` picks
the chunk: ``_ROW_CHUNK`` draws where a reducer reads every partial sum,
and ``_rows_per_chunk(trajectories)`` draws for ``S_n`` alone. The work
itself goes in tiles of about ``_TILE`` entries (512 KiB), each drawn,
transformed and summed while it sits in a core's cache, and cut at the
chunk edges; a tile that continues a chunk starts from the chunk's running
sum, so tile size moves no bytes. A scan that reads only ``S_n`` sums each
piece of a group of trajectories with one strided sequential reduce over a
time-major copy (``_piece_totals``): it adds each trajectory's draws in the
cumsum's order, so every total has the cumsum's bits, but each step is one
vector add across the group rather than an add that waits on the one
before. A one-trajectory group keeps the cumsum, since numpy would reduce
its one contiguous column pairwise. The cluster sampler's chunk sums are
pairwise, as numpy adds them; it splits each chunk where numpy's pairwise
sum does until a piece fits in a tile, so it too draws one tile at a time.
A tile is transformed in place unless several marginals share its uniforms.

The runners cover the law of large numbers in both weak and strong
form, the cluster behaviour of running means under measure switching,
the law of the iterated logarithm, a divergence check for heavy tails
where the first-moment integral blows up, and a sweep comparing
empirical tail frequencies of centered sums against every closed-form
tail bound.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .bounds import (
    BoundInputs,
    chebyshev_bound,
    choquet_moment_bound,
    conjugate_split_bound,
    kolmogorov_exponential_bound,
    power_tail_bound,
    split_moment_bound,
)
from .dependence import DependenceSpec, transform_block
from .measures import Marginal, MeasureFamily, ProductMeasure, _check_seed, _special, philox_uniforms
from .sublinear import SublinearEngine, TestFunction, _extreme

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_bound_check",
    "run_cluster",
    "run_experiment",
    "run_lil",
    "run_necessity",
    "run_slln",
    "run_wlln",
]

# ExperimentConfig fields left out of the config hash (and out of the
# config file's experiment section): the family and the dependence enter
# the hash through their own descriptors, and ``workers`` only schedules.
_UNHASHED = ("family", "dependence", "workers")

# Context offsets keep the streams of different runners disjoint even
# when they share a seed.
_CTX_WLLN = 4_000
_CTX_SLLN = 1_000
_CTX_CLUSTER = 3_000
_CTX_LIL = 2_000
_CTX_NECESSITY = 5_000
_CTX_BOUNDS = 6_000

_ROW_CHUNK = 1 << 17
_CLUSTER_CHUNK = 1 << 22

# numpy's pairwise sum adds a run of up to this many entries with eight
# accumulators and splits a longer one in two.
_PAIRWISE_BLOCK = 128

# Entries in one tile of draws: 512 KiB of float64, which stays in a core's
# L2 cache while it is drawn, transformed and summed.
_TILE = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs for one experiment run.

    ``horizon`` is the trajectory length (for ``bound_check`` it is the
    number of summands per trajectory). ``workers`` only controls how
    scan tasks are scheduled and is excluded from the config hash; every
    other field participates.
    """

    mode: str
    family: MeasureFamily
    dependence: DependenceSpec = field(default_factory=DependenceSpec.independent)
    horizon: int = 100_000
    trajectories: int = 100
    seed: int = 2026
    workers: int = 1
    # Law-of-large-numbers controls.
    burn_in: int = 1_000
    epsilon: float = 0.05
    schedule: tuple[int, ...] | None = None
    wlln_target: float = 0.99
    # Iterated-logarithm controls.
    checkpoint_growth: float = 1.05
    lil_epsilon: float = 0.15
    lil_quantile: float = 0.95
    # Cluster-sampler controls.
    block_start: int = 8_000
    block_growth: float = 1.45
    cluster_grid_step: float = 0.1
    cluster_tolerance: float = 0.1
    cluster_advance_tolerance: float = 0.04
    cluster_coverage_target: float = 0.95
    # Divergence-check controls.
    divergence_threshold: float = 10.0
    divergence_quantile: float = 0.9
    # Tail-bound sweep controls.
    bound_order: int = 3
    bound_delta: float = 0.5
    x_grid_points: int = 20
    x_grid_range: tuple[float, float] = (0.1, 6.0)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {_MODES}")
        if not isinstance(self.family, MeasureFamily):
            raise TypeError("family must be a MeasureFamily")
        # A joint-table bound-check reads its table, not the marginals.
        listed = max(len(mu.marginals) for _, mu in self.family.measures())
        if listed > 1 and (self.mode, self.dependence.mode) != ("bound_check", "discrete_joint"):
            raise ValueError(f"family.marginals lists {listed} marginals; {self.mode} draws "
                             "every coordinate from one marginal, so list exactly one")
        # A sequence run couples consecutive pairs, all drawn under one law.
        if self.dependence.mode == "gaussian_copula":
            if self.dependence.correlation_matrix is not None:
                raise ValueError(
                    "correlation_matrix describes one fixed block; sequence runs couple "
                    "consecutive pairs, so give the pair correlation as correlation")
            if not self.family.is_singleton:
                raise ValueError("the pairwise copula requires a single-measure family")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.trajectories < 1:
            raise ValueError("trajectories must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        _check_seed(self.seed)
        if self.burn_in < 1:
            raise ValueError("burn_in must be at least 1")
        if self.mode in ("slln", "lil") and self.burn_in > self.horizon:
            raise ValueError("burn_in must not exceed the horizon")
        # NaN passes every range check below, and inf overflows the grids.
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.checkpoint_growth <= 1.0 or self.block_growth <= 1.0:
            raise ValueError("growth factors must exceed 1")
        # The checkpoints and the cluster's blocks grow from below the horizon.
        for name in ("checkpoint_growth", "block_growth"):
            if not math.isfinite(self.horizon * getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)} overflows: horizon * "
                                 f"{name} must be finite")
        if not 0.0 < self.wlln_target <= 1.0:
            raise ValueError("wlln_target must lie in (0, 1]")
        if self.lil_epsilon < 0.0:
            raise ValueError("lil_epsilon must be nonnegative")
        if not 0.0 < self.lil_quantile <= 1.0:
            raise ValueError("lil_quantile must lie in (0, 1]")
        if not 0.0 < self.cluster_coverage_target <= 1.0:
            raise ValueError("cluster_coverage_target must lie in (0, 1]")
        if self.cluster_grid_step <= 0.0 or self.cluster_tolerance <= 0.0:
            raise ValueError("cluster grid step and tolerance must be positive")
        if self.cluster_advance_tolerance <= 0.0:
            raise ValueError("cluster_advance_tolerance must be positive")
        if self.block_start < 2:
            raise ValueError("block_start must be at least 2")
        if self.divergence_threshold <= 0.0:
            raise ValueError("divergence_threshold must be positive")
        if not 0.0 < self.divergence_quantile <= 1.0:
            raise ValueError("divergence_quantile must lie in (0, 1]")
        if self.bound_order < 2:
            raise ValueError("bound_order must be at least 2")
        if not 0.0 < self.bound_delta <= 1.0:
            raise ValueError("bound_delta must lie in (0, 1]")
        if self.x_grid_points < 2:
            raise ValueError("x_grid_points must be at least 2")
        lo, hi = self.x_grid_range
        if not 0.0 < lo < hi < math.inf:
            raise ValueError("x_grid_range must satisfy 0 < lo < hi < inf")
        if self.schedule is not None:
            sched = tuple(int(n) for n in self.schedule)
            if not sched or any(n < 1 for n in sched):
                raise ValueError("schedule entries must be positive integers")
            if list(sched) != sorted(sched):
                raise ValueError("schedule must be non-decreasing")
            object.__setattr__(self, "schedule", sched)

    def descriptor(self) -> dict:
        """Canonical JSON-ready description; excludes ``workers``."""
        out = {
            f.name: _json_safe(getattr(self, f.name))
            for f in fields(self)
            if f.name not in _UNHASHED
        }
        out["family"] = _family_descriptor(self.family)
        out["dependence"] = _dependence_descriptor(self.dependence)
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.descriptor(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one runner.

    ``summary`` holds scalar findings, ``tables`` maps a table name to a
    ``(header, rows)`` pair ready for CSV emission, and ``assumptions``
    lists the hypotheses the run relies on but does not certify.
    """

    mode: str
    config_hash: str
    seed: int
    passed: bool
    summary: dict
    tables: dict[str, tuple[tuple[str, ...], tuple[tuple, ...]]]
    assumptions: tuple[str, ...] = ()


def _family_descriptor(family: MeasureFamily) -> dict:
    grid = [[{"kind": m.kind, "params": _json_safe(m.params)} for m in mu.marginals]
            for _, mu in family.measures()]
    return {
        "name": family.name,
        "domain": [list(axis) for axis in family.parameter_domain],
        "resolution": family.grid_resolution,
        "K": family.K,
        "grid": grid,
    }


def _dependence_descriptor(spec: DependenceSpec) -> dict:
    out = {"mode": spec.mode, "K": spec.K}
    if spec.correlation is not None:
        out["correlation"] = spec.correlation
    if spec.joint_atoms is not None:
        out["joint_atoms"] = [
            {"point": list(point), "prob": prob} for point, prob in spec.joint_atoms
        ]
    return out


def _json_safe(value):
    """``value`` with numpy scalars as Python ones, tuples as lists, string
    keys, and a non-finite float as ``"nan"``, ``"inf"`` or ``"-inf"``."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return value


def _indexed_map(fn, items, workers: int) -> list:
    """Apply ``fn`` over ``items`` preserving order.

    Each item must carry its own stream keys, so the mapping is
    deterministic for any worker count.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _transform_chunk(
    u: np.ndarray, marginal: Marginal, dependence: DependenceSpec,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Map a uniform tile to draws of the sequence, trajectory by trajectory.

    Rows are trajectories and columns are time, so ``transform_block``
    maps the transposed views. The pairwise copula couples consecutive
    columns, so callers must start tiles at even draws. The result is new,
    or ``out`` (possibly ``u``) with the same bits.
    """
    if out is None:
        out = np.empty_like(u)
    transform_block(u.T, ProductMeasure((marginal,)), dependence, out=out.T)
    return out


def _grid_marginals(family: MeasureFamily, dense: bool = False) -> list[Marginal]:
    """The first marginal at each point of the family grid or, when ``dense``, of
    a much finer one: 513 points, or 65 per axis for two axes."""
    if dense:
        family = replace(family, grid_resolution=513 if family.dim == 1 else 65)
    return [family.measure_at(theta).marginal(0) for theta in family.grid_parameters()]


def _extreme_measures(dense: list[Marginal]):
    """The mean interval ``mu_low, mu_up`` over ``dense`` and the measures at its ends.

    The measures are ``(label, marginal)`` pairs: ``mean_low``, then
    ``mean_up`` when a different entry attains it. An infinite mean leaves no
    band to test, so a non-finite interval is rejected.
    """
    means = [m.mean() for m in dense]
    mu_low, i_low = _extreme(means, "min")
    mu_up, i_up = _extreme(means, "max")
    if not math.isfinite(mu_low) or not math.isfinite(mu_up):
        raise ValueError(f"the mean interval [{mu_low}, {mu_up}] is not finite; "
                         "this mode needs a finite mean under every measure")
    measures = [("mean_low", dense[i_low])]
    if i_up != i_low:
        measures.append(("mean_up", dense[i_up]))
    return mu_low, mu_up, measures


def _sup_centered_second_moment(dense: list[Marginal], center: float) -> float:
    return _extreme([m.variance() + (m.mean() - center) ** 2 for m in dense])[0]


def _shift_marginal(marginal: Marginal, c: float) -> Marginal:
    if c == 0.0:
        return marginal
    kind, params = marginal.kind, marginal.params
    if kind == "normal":
        return Marginal.normal(params[0] + c, params[1])
    if kind == "uniform":
        return Marginal.uniform(params[0] + c, params[1] + c)
    if kind == "discrete":
        atoms = tuple((v + c, p) for v, p in marginal.atoms())
        return Marginal.discrete(atoms)
    raise ValueError(f"cannot shift a {kind!r} marginal; its support is anchored")


def _shifted_family(family: MeasureFamily, c: float) -> MeasureFamily:
    """Family with every listed marginal translated by ``c``."""
    if c == 0.0:
        return family

    def build(*theta):
        t = theta[0] if len(theta) == 1 else tuple(theta)
        base = family.measure_at(t)
        shifted = tuple(_shift_marginal(m, c) for m in base.marginals)
        return ProductMeasure(shifted, stationary=base.stationary)

    return MeasureFamily(
        parameter_domain=family.parameter_domain,
        builder=build,
        grid_resolution=family.grid_resolution,
        K=family.K,
        name=f"{family.name}-centered",
    )


def _rows_per_chunk(columns: int) -> int:
    """Even draw count at which an ``S_n`` scan over ``columns`` trajectories
    restarts its sequential sum: ``2**23 // columns``, at most ``_ROW_CHUNK``.

    No chunk is held in memory, so the count fixes only the bits of the sums.
    """
    rows = max(2, min(_ROW_CHUNK, (1 << 23) // max(columns, 1)))
    return rows - (rows % 2)


def _tile_rows(columns: int) -> int:
    """Even row count keeping a tile over ``columns`` streams near ``_TILE`` entries."""
    rows = max(2, _TILE // max(columns, 1))
    return rows - (rows % 2)


def _pieces(start: int, stop: int, chunk: int):
    """``(a, b, fresh)``: the draws ``start..stop-1`` cut at multiples of ``chunk``.

    ``fresh`` marks a piece that begins a chunk.
    """
    while start < stop:
        b = min(stop, start - start % chunk + chunk)
        yield start, b, start % chunk == 0
        start = b


def _piece_totals(s: np.ndarray) -> np.ndarray:
    """``np.cumsum(s, axis=1)[:, -1:]`` bit for bit, without the partial sums.

    Each add of the cumsum waits on the one before. Over a time-major copy,
    ``np.add.reduce`` along axis 0 adds its rows one by one, each a vector
    add across the trajectories; numpy sums pairwise only along the
    contiguous axis, so every total is the cumsum's sequential sum. It
    starts from -0.0, which returns every first entry unchanged, where a
    start of +0.0 would turn a row of -0.0 into +0.0. The copy of a single
    row is one contiguous column, which numpy would reduce pairwise, so
    one row keeps the cumsum, written into ``s``.
    """
    if len(s) == 1:
        return np.cumsum(s, axis=1, out=s)[:, -1:]
    return np.add.reduce(np.ascontiguousarray(s.T), axis=0, initial=-0.0, keepdims=True).T


def _partial_sums(config: ExperimentConfig, context: int, columns, marginals, n: int,
                  chunk: int, totals: bool = False):
    """Partial sums of the trajectories in ``columns`` under each of ``marginals``.

    One task of ``_scan`` runs it over one group of consecutive trajectories.
    Yields ``(k, start, stop, s)`` where ``s[j, r]`` is ``S_{start+r+1}`` of
    trajectory ``columns[j]`` under ``marginals[k]``, up to ``S_n``. With
    ``totals``, ``s`` is only the last column, ``S_stop``, from
    ``_piece_totals``, for a caller that reads ``S_n`` alone. All marginals
    transform the same uniforms, drawn from streams ``(seed, context,
    column)``. ``s`` is a scratch block of at most one tile: the caller may
    overwrite it but must not keep it past the next step of the iteration.

    The bits are those of chunks of ``chunk`` draws (an even count), each
    summed as ``carry + cumsum(x)``: they depend on ``chunk``, not on which
    trajectories share ``columns``. Tiles of ``_tile_rows`` draws (an even
    count, so copula pairs stay whole) are drawn one at a time and cut at
    the chunk edges. One marginal transforms each tile in place; several
    each transform it into the same scratch tile. A piece that continues a
    chunk first adds the chunk's running sum ``inner`` into its first
    column, so its cumsum continues the chunk's. The ``carry``, the sum at
    the chunk's first edge, is added once the piece's ``inner`` is taken.
    """
    carry = np.zeros((len(marginals), len(columns), 1))
    inner = np.zeros((len(marginals), len(columns), 1))
    for start, stop, _ in _pieces(0, n, _tile_rows(len(columns))):
        u = philox_uniforms(config.seed, context, columns, start, stop)
        out = u if len(marginals) == 1 else np.empty_like(u)
        for k, marginal in enumerate(marginals):
            x = _transform_chunk(u, marginal, config.dependence, out=out)
            for a, b, fresh in _pieces(start, stop, chunk):
                s = x[:, a - start:b - start]
                if fresh:
                    carry[k] += inner[k]
                else:
                    s[:, :1] += inner[k]
                s = _piece_totals(s) if totals else np.cumsum(s, axis=1, out=s)
                inner[k] = s[:, -1:]
                s += carry[k]
                yield k, a, b, s


def _scan(config: ExperimentConfig, streams, reduce=None) -> list[tuple]:
    """Each stream's statistics, reduced from its trajectories' partial sums.

    ``streams`` lists ``(context, marginals, n)``: the ``marginals`` share
    the uniforms of stream context ``context`` up to the horizon ``n``. A
    task is one stream's group of ``max(1, _TILE // n)`` consecutive
    trajectories: whole horizons that fit in one tile, or one trajectory
    when the horizon exceeds a tile. The tasks never depend on
    ``config.workers``, which only schedules them in one pool.
    ``reduce(pieces, size)`` takes the ``(k, start, stop, s)`` pieces of
    ``_partial_sums``, in chunks of ``_ROW_CHUNK`` draws, over a group of
    ``size`` trajectories and returns one array per statistic, indexed by
    trajectory. With no ``reduce`` the scan reads ``S_n`` alone: each piece
    is summed by ``_piece_totals``, a strided sequential reduce with the
    cumsum's bits, in chunks of ``_rows_per_chunk(config.trajectories)``
    draws, and ``_sums_at_horizon`` reduces them. Returns, per stream, each
    statistic over all ``config.trajectories`` trajectories.
    """
    totals = reduce is None
    chunk = _rows_per_chunk(config.trajectories) if totals else _ROW_CHUNK
    reduce = reduce or _sums_at_horizon
    tasks = [(i, t0, t1) for i, (_, _, n) in enumerate(streams)
             for t0, t1, _ in _pieces(0, config.trajectories, max(1, _TILE // n))]

    def scan(task):
        i, t0, t1 = task
        context, marginals, n = streams[i]
        return reduce(_partial_sums(config, context, range(t0, t1), marginals, n, chunk,
                                    totals), t1 - t0)

    groups = [[] for _ in streams]
    for (i, _, _), stats in zip(tasks, _indexed_map(scan, tasks, config.workers)):
        groups[i].append(stats)
    return [tuple(map(np.concatenate, zip(*stats))) for stats in groups]


def _sums_at_horizon(pieces, size: int) -> tuple:
    """Reducer: ``S_n`` under each marginal, the last piece's last column.

    ``_scan`` pairs it with ``totals``. The column is copied, because
    several marginals overwrite one scratch tile in turn.
    """
    last = {k: s[:, -1].copy() for k, _, _, s in pieces}
    return tuple(last.values())


def _scan_rows(config: ExperimentConfig, context: int, measures, reduce) -> list:
    """Rows ``(label, trajectory, *statistics)`` of a scan over each measure.

    ``measures`` lists ``(label, marginal)`` pairs, and measure i draws the
    horizon from stream context ``context + i``. A group of two or more
    trajectories holds a horizon of at most ``_TILE / 2`` draws, which no
    ``_ROW_CHUNK`` edge cuts. Rows come in measure order, then trajectory
    order.
    """
    streams = [(context + i, [m], config.horizon) for i, (_, m) in enumerate(measures)]
    stats = _scan(config, streams, reduce)
    return [(label, col, *map(float, row))
            for (label, _), columns in zip(measures, stats)
            for col, row in enumerate(zip(*columns))]


def _pairwise_draw_sum(seed: int, context: int, marginal: Marginal,
                       first: int, n: int) -> float:
    """Sum of draws ``first..first+n-1`` of stream ``(seed, context, 0)`` under ``marginal``.

    The bits are those of ``np.sum`` over all ``n`` draws at once, which adds
    pairwise (Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 4.2): a run longer than ``_PAIRWISE_BLOCK`` entries splits at
    ``n2 = n // 2 - (n // 2) % 8`` and adds the sums of its two parts. This
    splits the same way until a part fits in a tile, draws and transforms
    each part in place and sums it with ``np.sum``, and adds the part sums
    back up the same tree, so only one tile is held at a time.
    """
    if n <= max(_TILE, _PAIRWISE_BLOCK):
        u = philox_uniforms(seed, context, [0], first, first + n)[0]
        return float(np.sum(marginal.ppf(u, out=u)))
    n2 = n // 2 - (n // 2) % 8
    return (_pairwise_draw_sum(seed, context, marginal, first, n2)
            + _pairwise_draw_sum(seed, context, marginal, first + n2, n - n2))


def _result(config: ExperimentConfig, passed: bool, summary: dict, header, rows,
            *assumptions: str) -> ExperimentResult:
    """The run's result, its one table named after the mode."""
    return ExperimentResult(
        mode=config.mode,
        config_hash=config.config_hash(),
        seed=config.seed,
        passed=passed,
        summary=summary,
        tables={config.mode: (tuple(header), tuple(rows))},
        assumptions=assumptions,
    )


# ---------------------------------------------------------------------------
# Weak law: capacity of the running-mean band along a schedule.


def _band_prob_exact(
    marginal: Marginal, n: int, lo: float, hi: float
) -> float | None:
    """P(lo <= S_n/n <= hi) when the i.i.d. sum has a closed form."""
    if marginal.kind == "normal":
        mu, var = marginal.params
        scale = math.sqrt(var / n)
        ndtr = _special().ndtr
        return float(ndtr((hi - mu) / scale) - ndtr((lo - mu) / scale))
    atoms = marginal.atoms() if marginal.is_discrete else None
    if atoms is not None and len(atoms) == 1:
        value = atoms[0][0]
        return 1.0 if lo <= value <= hi else 0.0
    return None


def _default_schedule(horizon: int) -> tuple[int, ...]:
    sched = []
    n = 100
    while n < horizon:
        sched.append(n)
        n *= 10
    sched.append(horizon)
    return tuple(dict.fromkeys(sched))


def run_wlln(config: ExperimentConfig) -> ExperimentResult:
    """Capacity of the running mean staying near the mean interval.

    For each schedule point ``n`` this reports the lower capacity of
    ``{mu_low - eps <= S_n/n <= mu_up + eps}`` (which should rise toward
    one) together with the upper capacities of the mean landing next to
    either endpoint of the mean interval. Exact single-measure band
    probabilities are used whenever the i.i.d. sum has a closed form;
    otherwise all measures are estimated from common random numbers.
    """
    family = config.family
    eps = config.epsilon
    mu_low, mu_up, _ = _extreme_measures(_grid_marginals(family, dense=True))
    schedule = config.schedule or _default_schedule(config.horizon)
    marginals = _grid_marginals(family)

    windows = {
        "band": (mu_low - eps, mu_up + eps),
        "near_up": (mu_up - eps, mu_up + eps),
        "near_low": (mu_low - eps, mu_low + eps),
    }

    exact_ok = config.dependence.mode == "per_measure_independent" and all(
        _band_prob_exact(m, 2, 0.0, 1.0) is not None for m in marginals
    )

    if exact_ok:
        probs = [{key: np.array([_band_prob_exact(m, n, lo, hi) for m in marginals])
                  for key, (lo, hi) in windows.items()} for n in schedule]
    else:
        # One stream per schedule point; its grid measures share the uniforms.
        streams = [(_CTX_WLLN + idx, marginals, n) for idx, n in enumerate(schedule)]
        sums = _scan(config, streams)
        probs = [{key: ((means >= lo) & (means <= hi)).mean(axis=1)
                  for key, (lo, hi) in windows.items()}
                 for means in (np.array(s_n) / n for n, s_n in zip(schedule, sums))]

    rows = []
    band_lower = []
    for n, prob in zip(schedule, probs):
        lower_cap = _extreme(prob["band"], "min")[0]
        se = 0.0 if exact_ok else math.sqrt(lower_cap * (1.0 - lower_cap) / config.trajectories)
        band_lower.append((lower_cap, se))
        rows.append((n, lower_cap, se, float(prob["near_up"].max()),
                     float(prob["near_low"].max())))

    last_cap, last_se = band_lower[-1]
    monotone_trend = all(
        later[0] >= earlier[0] - 3.0 * (earlier[1] + later[1]) - 1e-12
        for earlier, later in zip(band_lower, band_lower[1:])
    )
    passed = last_cap >= config.wlln_target and monotone_trend
    summary = {
        "mean_interval": [mu_low, mu_up],
        "epsilon": eps,
        "schedule": list(schedule),
        "final_band_lower_capacity": last_cap,
        "final_band_se": last_se,
        "target": config.wlln_target,
        "monotone_trend": monotone_trend,
        "estimator": "exact" if exact_ok else "mc",
    }
    header = ("n", "band_lower_capacity", "band_se", "near_upper_mean_capacity",
              "near_lower_mean_capacity")
    return _result(
        config, passed, summary, header, rows,
        "convergence of the lower band capacity is checked on a finite "
        "schedule, not in the limit",
    )


# ---------------------------------------------------------------------------
# Strong law: running means of trajectories drawn under extreme measures.


def run_slln(config: ExperimentConfig) -> ExperimentResult:
    """Running-mean envelope under the mean-extreme measures.

    Every trajectory, regardless of which extreme measure generated it,
    must keep ``S_k/k`` inside ``[mu_low - eps, mu_up + eps]`` for all
    ``k`` past the burn-in. Violations are counted per trajectory.
    """
    mu_low, mu_up, measures = _extreme_measures(_grid_marginals(config.family, dense=True))
    n0 = config.burn_in
    lo_bar, hi_bar = mu_low - config.epsilon, mu_up + config.epsilon

    def reduce(pieces, size):
        max_ratio = np.full(size, -np.inf)
        min_ratio = np.full(size, np.inf)
        for _, start, stop, s in pieces:
            if stop > n0:
                cut = max(n0 - start - 1, 0)
                ratios = s[:, cut:]
                ratios /= np.arange(start + cut + 1, stop + 1, dtype=float)
                max_ratio = np.maximum(max_ratio, ratios.max(axis=1))
                min_ratio = np.minimum(min_ratio, ratios.min(axis=1))
        return max_ratio, min_ratio

    rows = [
        (label, col, mx, mn, int(mx > hi_bar + 1e-12 or mn < lo_bar - 1e-12))
        for label, col, mx, mn in _scan_rows(config, _CTX_SLLN, measures, reduce)
    ]
    violations = sum(row[-1] for row in rows)

    summary = {
        "mean_interval": [mu_low, mu_up],
        "epsilon": config.epsilon,
        "burn_in": n0,
        "horizon": config.horizon,
        "trajectories_per_measure": config.trajectories,
        "violations": violations,
        "worst_max_ratio": max(r[2] for r in rows),
        "worst_min_ratio": min(r[3] for r in rows),
    }
    return _result(
        config, violations == 0, summary,
        ("measure", "trajectory", "max_ratio", "min_ratio", "violated"), rows,
        "the running-mean envelope is checked from the burn-in to a "
        "finite horizon under the two mean-extreme measures",
    )


# ---------------------------------------------------------------------------
# Cluster sampler: measure switching steers the running mean to any target.


def run_cluster(config: ExperimentConfig) -> ExperimentResult:
    """Steer one long trajectory's running mean across the mean interval.

    Blocks grow geometrically; each block is drawn under the family
    measure whose first-coordinate mean best moves the running mean
    toward the current grid target. A target counts as visited once
    some post-block running mean lands within ``cluster_tolerance``.
    """
    if config.dependence.mode != "per_measure_independent":
        raise ValueError("the cluster sampler switches measures between "
                         "blocks and requires independent draws")
    dense = _grid_marginals(config.family, dense=True)
    mu_low, mu_up, _ = _extreme_measures(dense)
    if mu_up - mu_low < config.cluster_grid_step:
        raise ValueError("mean interval is narrower than the target grid step")

    n_targets = int(round((mu_up - mu_low) / config.cluster_grid_step)) + 1
    targets = np.linspace(mu_low, mu_up, n_targets)
    means = np.array([m.mean() for m in dense])

    consumed = 0
    total = 0.0
    v = 0.0
    active = 0
    best = np.full(n_targets, np.inf)
    rows = []
    max_blocks = 30 * n_targets

    for block in range(max_blocks):
        if active >= n_targets or consumed >= config.horizon:
            break
        n_next = config.block_start if consumed == 0 else int(
            math.ceil(consumed * config.block_growth)
        )
        n_next = min(n_next, config.horizon)
        count = n_next - consumed
        if count <= 0:
            break
        goal = float(targets[active])
        if consumed == 0:
            desired = goal
        else:
            r = consumed / n_next
            desired = (goal - r * v) / (1.0 - r)
        desired = min(max(desired, mu_low), mu_up)
        marginal = dense[_extreme(np.abs(means - desired), "min")[1]]
        block_sum = 0.0
        # The chunks set the summation order, so they stay at 2**22 draws.
        for start, stop, _ in _pieces(0, count, _CLUSTER_CHUNK):
            block_sum += _pairwise_draw_sum(config.seed, _CTX_CLUSTER, marginal,
                                            consumed + start, stop - start)
        total += block_sum
        consumed = n_next
        v = total / consumed
        best = np.minimum(best, np.abs(targets - v))
        dist = abs(v - goal)
        rows.append((block, consumed, marginal.mean(), goal, v, dist))
        if dist <= config.cluster_advance_tolerance:
            active += 1

    visited = best <= config.cluster_tolerance
    coverage = float(visited.mean())
    passed = coverage >= config.cluster_coverage_target
    summary = {
        "mean_interval": [mu_low, mu_up],
        "targets": [float(t) for t in targets],
        "coverage": coverage,
        "coverage_target": config.cluster_coverage_target,
        "blocks": len(rows),
        "draws": consumed,
        "unvisited": [float(t) for t, ok in zip(targets, visited) if not ok],
    }
    return _result(
        config, passed, summary,
        ("block", "n", "block_mean", "target", "running_mean", "distance"), rows,
        "visiting every grid target on a finite trajectory is a consistency "
        "check for the cluster of running-mean limit points, not a proof of it",
    )


# ---------------------------------------------------------------------------
# Iterated logarithm: normalized fluctuations at geometric checkpoints.


def _iterated_log(n: np.ndarray) -> np.ndarray:
    inner = np.log(np.maximum(n, math.e))
    return np.log(np.maximum(inner, math.e))


def _lil_norming(n: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * n * _iterated_log(n))


def _geometric_checkpoints(start: int, stop: int, growth: float) -> np.ndarray:
    points = [start]
    n = start
    while n < stop:
        n = max(n + 1, int(math.floor(n * growth)))
        points.append(min(n, stop))
    return np.array(sorted(set(points)), dtype=np.int64)


def run_lil(config: ExperimentConfig) -> ExperimentResult:
    """Normalized fluctuation extremes at geometric checkpoints.

    For each trajectory, ``r_upper`` is the largest value over the
    checkpoints of ``(S_n - n*mu_up) / sqrt(2 n loglog n)`` and
    ``r_lower`` the smallest value of the mirrored statistic centered
    at ``mu_low``. The run passes when the fraction of trajectories
    with ``r_upper`` at most ``sigma_up * (1 + lil_epsilon)`` reaches
    the configured quantile; the mirrored side is reported alongside.
    """
    dense = _grid_marginals(config.family, dense=True)
    mu_low, mu_up, measures = _extreme_measures(dense)
    sigma_up = math.sqrt(_sup_centered_second_moment(dense, mu_up))
    sigma_low = math.sqrt(_sup_centered_second_moment(dense, mu_low))
    if not math.isfinite(sigma_up) or not math.isfinite(sigma_low):
        raise ValueError(f"the upper variance is not finite (sigma_upper {sigma_up}, "
                         f"sigma_lower {sigma_low}); lil needs a finite one")
    checkpoints = _geometric_checkpoints(
        config.burn_in, config.horizon, config.checkpoint_growth
    )
    norming = _lil_norming(checkpoints.astype(float))

    def reduce(pieces, size):
        r_up = np.full(size, -np.inf)
        r_low = np.full(size, np.inf)
        for _, start, stop, s in pieces:
            mask = (checkpoints > start) & (checkpoints <= stop)
            if mask.any():
                cps = checkpoints[mask]
                s_cp = s[:, cps - start - 1]
                a_cp = norming[mask]
                up = (s_cp - cps * mu_up) / a_cp
                low = (s_cp - cps * mu_low) / a_cp
                r_up = np.maximum(r_up, up.max(axis=1))
                r_low = np.minimum(r_low, low.min(axis=1))
        return r_up, r_low

    up_cap = sigma_up * (1.0 + config.lil_epsilon)
    low_cap = -sigma_low * (1.0 + config.lil_epsilon)
    rows = [
        (label, col, a, b, int(a <= up_cap + 1e-12), int(b >= low_cap - 1e-12))
        for label, col, a, b in _scan_rows(config, _CTX_LIL, measures, reduce)
    ]
    frac_up = sum(row[4] for row in rows) / len(rows)
    frac_low = sum(row[5] for row in rows) / len(rows)
    passed = frac_up >= config.lil_quantile

    summary = {
        "sigma_upper": sigma_up,
        "sigma_lower": sigma_low,
        "upper_cap": up_cap,
        "lower_cap": low_cap,
        "fraction_upper_ok": frac_up,
        "fraction_lower_ok": frac_low,
        "quantile": config.lil_quantile,
        "checkpoints": int(checkpoints.size),
        "horizon": config.horizon,
    }
    return _result(
        config, passed, summary,
        ("measure", "trajectory", "r_upper", "r_lower", "ok_upper", "ok_lower"), rows,
        "fluctuations are sampled at geometric checkpoints, so the "
        "statistic slightly undershoots the running supremum",
    )


# ---------------------------------------------------------------------------
# Necessity of the first-moment integral: divergence of running means.


def run_necessity(config: ExperimentConfig) -> ExperimentResult:
    """Diagnose divergence of |S_k|/k against the tail-integral test.

    When the upper tail integral of ``|X_1|`` diverges the running mean
    must exceed any fixed threshold along almost every trajectory;
    when it is finite the running means stay bounded. The run reports
    the fraction of trajectories whose running max of ``|S_k|/k``
    exceeds ``divergence_threshold`` and matches it against the
    integral's divergence flag.
    """
    family = config.family
    if not family.is_singleton:
        raise ValueError(
            "the divergence check draws from a single law; use a singleton family"
        )
    engine = SublinearEngine(family, seed=config.seed)
    tail = engine.choquet(TestFunction.abs_power(1.0), capacity="upper")

    def reduce(pieces, size):
        peak = np.zeros(size)
        for _, start, stop, s in pieces:
            s /= np.arange(start + 1, stop + 1, dtype=float)
            peak = np.maximum(peak, np.abs(s, out=s).max(axis=1))
        return (peak,)

    measures = [("", m) for m in _grid_marginals(family)]
    rows = [
        (col, peak, int(peak > config.divergence_threshold))
        for _, col, peak in _scan_rows(config, _CTX_NECESSITY, measures, reduce)
    ]
    exceed = sum(row[-1] for row in rows)
    exceed_fraction = exceed / config.trajectories

    if tail.divergent:
        passed = exceed_fraction >= config.divergence_quantile
        verdict = "divergent tail integral with exceedances" if passed else (
            "divergent tail integral but too few exceedances"
        )
    else:
        passed = exceed == 0
        verdict = "finite tail integral with bounded running means" if passed else (
            "finite tail integral yet running means exceeded the threshold"
        )

    summary = {
        "tail_integral": tail.value,
        "tail_integral_divergent": tail.divergent,
        "tail_exponent": tail.tail_exponent,
        "threshold": config.divergence_threshold,
        "exceed_fraction": exceed_fraction,
        "required_fraction": config.divergence_quantile,
        "verdict": verdict,
    }
    return _result(
        config, passed, summary, ("trajectory", "max_abs_ratio", "exceeded"), rows,
        "a finite-horizon exceedance frequency is a qualitative proxy "
        "for almost-sure divergence",
        "the converse direction assumes capacity continuity, which "
        "this run does not certify",
    )


# ---------------------------------------------------------------------------
# Tail-bound sweep: empirical capacities of centered sums vs every bound.


def _max_term_capacity(
    marginals, n: int, levels: np.ndarray, dependence: DependenceSpec
) -> np.ndarray:
    """Upper capacity that some one of the first n terms reaches each level.

    Exact per measure for independent draws; a union bound otherwise.
    """
    survivals = np.array([m.sf(levels) for m in marginals])
    if dependence.mode == "per_measure_independent":
        return np.max(1.0 - (1.0 - survivals) ** n, axis=0)
    return np.minimum(1.0, n * np.max(survivals, axis=0))


def _mass_at_or_above(values: np.ndarray, probs: np.ndarray, levels) -> np.ndarray:
    """Probability, under a joint table, that ``values`` reaches each level."""
    return np.array([probs[values >= level - 1e-12].sum() for level in levels])


def run_bound_check(config: ExperimentConfig) -> ExperimentResult:
    """Empirical tail capacities of centered sums against all bounds.

    Coordinates are recentered by the largest worst-case mean so that
    every centered mean is non-positive. For a log-spaced grid of
    thresholds the empirical upper and lower capacities of
    ``{S_n >= x}`` are compared against the exponential, split-moment,
    power, second-moment and positive-part-moment bounds, and the
    lower capacity against the conjugate forms. Each bound is one array
    over the whole grid: the exponential and power bounds are the
    elementwise minimum over their truncation levels and tail powers. A
    flag is raised when an empirical frequency exceeds its bound by more
    than three standard errors. Joint-table dependence is enumerated
    exactly; everything else is sampled per measure.
    """
    family = config.family
    joint = config.dependence.mode == "discrete_joint"
    p = config.bound_order
    K = max(family.K, config.dependence.K)

    if joint:
        points, probs = config.dependence.joint_arrays()
        n = points.shape[0]
        if config.horizon != n:
            raise ValueError(
                f"joint table has {n} coordinates; set horizon to match, "
                f"got {config.horizon}"
            )
        center = float((points @ probs).max())
        pc = points - center
        variance_sum = float((pc**2 @ probs).sum())
        pos_moment_sum = float((np.clip(pc, 0.0, None) ** p @ probs).sum())
        abs_moment_sum = float((np.abs(pc) ** p @ probs).sum())
        per_term_choquet = [
            float(np.clip(pc[k], 0.0, None) ** p @ probs) for k in range(n)
        ]
        joint_sums = pc.sum(axis=0)
        joint_peaks = pc.max(axis=0)

        def max_term(levels) -> np.ndarray:
            return _mass_at_or_above(joint_peaks, probs, levels)

    else:
        n = config.horizon
        dense = _grid_marginals(family, dense=True)
        _, center, _ = _extreme_measures(dense)
        marginals = [_shift_marginal(m, -center) for m in _grid_marginals(family)]
        shifted = [_shift_marginal(m, -center) for m in dense]
        variance_sum = n * _sup_centered_second_moment(dense, center)
        pos_moment_sum = n * _extreme([m.pos_part_moment(p) for m in shifted])[0]
        abs_moment_sum = n * _extreme([m.abs_moment(p) for m in shifted])[0]
        engine = SublinearEngine(_shifted_family(family, -center), seed=config.seed)
        choquet_pos = engine.choquet(
            TestFunction.pos_power(float(p)), capacity="upper"
        )
        per_term_choquet = [choquet_pos.value] * n

        def max_term(levels) -> np.ndarray:
            return _max_term_capacity(marginals, n, levels, config.dependence)

    sigma = math.sqrt(variance_sum)
    lo_mult, hi_mult = config.x_grid_range
    x_grid = np.geomspace(lo_mult * sigma, hi_mult * sigma, config.x_grid_points)

    # Empirical tail capacities on the threshold grid.
    if joint:
        emp_upper = emp_lower = _mass_at_or_above(joint_sums, probs, x_grid)
        emp_upper_se = emp_lower_se = np.zeros_like(emp_upper)
    else:
        streams = [(_CTX_BOUNDS + k, [m], n) for k, m in enumerate(marginals)]
        sums = _scan(config, streams)
        freqs = np.array([[(s_n >= x).mean() for x in x_grid] for (s_n,) in sums])
        ses = np.sqrt(freqs * (1.0 - freqs) / config.trajectories)
        cols = np.arange(x_grid.size)
        i_up = np.argmax(freqs, axis=0)
        i_low = np.argmin(freqs, axis=0)
        emp_upper, emp_upper_se = freqs[i_up, cols], ses[i_up, cols]
        emp_lower, emp_lower_se = freqs[i_low, cols], ses[i_low, cols]

    def inputs(**extra) -> BoundInputs:
        return BoundInputs(n=n, variance_sum=variance_sum, K=K, **extra)

    y_grid = np.geomspace(0.01 * sigma, 10.0 * sigma, 25)
    r_grid = (0.5, 1.0, 2.0, 4.0, 8.0)
    upper = {
        "exponential": np.min(
            [kolmogorov_exponential_bound(inputs(truncation=y), x_grid) + tail
             for y, tail in zip(y_grid, max_term(y_grid))], axis=0),
        "split": split_moment_bound(
            inputs(order=p, pos_moment_sum=pos_moment_sum, split=config.bound_delta),
            x_grid),
        "power": np.min(
            [power_tail_bound(inputs(tail_power=r), x_grid) + max_term(x_grid / r)
             for r in r_grid], axis=0),
        "chebyshev": chebyshev_bound(inputs(), x_grid),
        # np.float_power is libm pow, as Python's float ** int.
        "positive_moment": choquet_moment_bound(inputs(order=p), per_term_choquet)
        / np.float_power(x_grid, p),
    }
    # The conjugate exponential and second-moment bounds are the primal closed
    # forms at the same inputs, so they reuse the upper columns.
    lower = {
        "conj_exponential": upper["exponential"],
        "conj_split": conjugate_split_bound(
            inputs(order=p, abs_moment_sum=abs_moment_sum, split=config.bound_delta),
            x_grid),
        "conj_chebyshev": upper["chebyshev"],
    }
    sides = ((emp_upper, emp_upper_se, upper), (emp_lower, emp_lower_se, lower))
    flags = [
        (float(x), name, float(emp[i]), float(bound[i]))
        for i, x in enumerate(x_grid)
        for emp, se, bounds in sides
        for name, bound in bounds.items()
        if emp[i] > bound[i] + 3.0 * se[i] + 1e-12
    ]
    columns = {
        "x": x_grid,
        "emp_upper": emp_upper,
        "emp_upper_se": emp_upper_se,
        **{"bound_" + name: bound for name, bound in upper.items()},
        "emp_lower": emp_lower,
        "emp_lower_se": emp_lower_se,
        **{"bound_" + name: bound for name, bound in lower.items()},
    }
    rows = list(zip(*(column.tolist() for column in columns.values())))

    summary = {
        "n": n,
        "order": p,
        "K": K,
        "center": center,
        "variance_sum": variance_sum,
        "pos_moment_sum": pos_moment_sum,
        "abs_moment_sum": abs_moment_sum,
        "per_term_choquet_pos": per_term_choquet[0] if per_term_choquet else 0.0,
        "x_grid": x_grid.tolist(),
        "flags": flags,
        "estimator": "exact" if joint else "mc",
        "trajectories_per_measure": 0 if joint else config.trajectories,
    }
    return _result(
        config, not flags, summary, columns, rows,
        "empirical capacities get three standard errors of headroom",
        "the max-term capacity uses the exact i.i.d. form for "
        "independent draws and a union bound otherwise",
    )


_RUNNERS = {
    "wlln": run_wlln,
    "slln": run_slln,
    "cluster": run_cluster,
    "lil": run_lil,
    "necessity": run_necessity,
    "bound_check": run_bound_check,
}


_MODES = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch to the runner named by ``config.mode``."""
    return _RUNNERS[config.mode](config)
