"""The benchmark's workloads: which ``caplim`` commands each one runs.

Every command runs in-process through ``caplim.cli.main`` with ``--seed``,
``--workers`` and ``--out`` appended. ``work`` counts what one run of the
command computed, in the workload's work unit, from its config and the
artifacts it wrote.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The workload seed picks one of these corpus seeds; references.json pins the
# artifacts of every command at each of them.
BASE_SEED = 2026
SEED_COUNT = 16

# The axiom corpus draws each case's family, arity and evaluation path from
# its seed. One Monte Carlo case costs 0.5 s to 9.6 s depending on that draw
# (measured over corpus seeds 2026-2033 on a 2-core x86 box), so a corpus that
# followed the workload seed could not give a steady time. It stays at the
# seed of tests/test_acceptance.py::test_axiom_corpus.
AXIOM_SEED = 2026


def corpus_seed(workload_seed: int) -> int:
    return BASE_SEED + workload_seed % SEED_COUNT


def _csv_rows(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _trajectory_draws(table: str):
    """Variates drawn: one trajectory per CSV row, ``horizon`` draws each."""

    def draws(bundle, out) -> int:
        return _csv_rows(out / f"{table}.csv") * bundle.experiment_options["horizon"]

    return draws


def _necessity_draws(bundle, out) -> int:
    opts = bundle.experiment_options
    return opts["trajectories"] * opts["horizon"]


def _cluster_draws(bundle, out) -> int:
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    return int(result["summary"]["draws"])


def _bound_check_draws(bundle, out) -> int:
    opts = bundle.experiment_options
    return len(bundle.family.grid_parameters()) * opts["trajectories"] * opts["horizon"]


def _axiom_cases(bundle, out) -> int:
    return bundle.verify_options["n_cases"]


def _nothing(bundle, out) -> int:
    return 0


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    config: str
    work: Callable = _nothing
    pinned_seed: int | None = None
    # (acceptance test, its wall-clock limit in seconds) run with the same
    # parameters as this command.
    guarantee: tuple[str, float] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    work_unit: str
    commands: tuple[Command, ...]


def _experiment_command(mode: str, stem: str, work=_nothing, guarantee=None) -> Command:
    config = f"configs/{stem}.yaml"
    return Command(f"experiment-{mode}.{stem}", ("experiment", mode, "--config", config),
                   config, work, guarantee=guarantee)


AXIOM_CONFIG = "bench/configs/axiom_corpus.yaml"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "envelope", 1, "axiom cases",
            (
                Command("verify-axioms.axiom_corpus",
                        ("verify", "axioms", "--config", AXIOM_CONFIG), AXIOM_CONFIG,
                        _axiom_cases, pinned_seed=AXIOM_SEED),
                Command("choquet.reciprocal_variance_pair",
                        ("choquet", "--config", "configs/reciprocal_variance_pair.yaml"),
                        "configs/reciprocal_variance_pair.yaml"),
                Command("verify-end.end_countermonotone",
                        ("verify", "end", "--config", "configs/end_countermonotone.yaml"),
                        "configs/end_countermonotone.yaml"),
            ),
        ),
        Workload(
            "trajectory", 2, "variates",
            (
                _experiment_command("slln", "slln_normal_band", _trajectory_draws("slln")),
                _experiment_command("lil", "lil_standard_normal", _trajectory_draws("lil")),
                _experiment_command("lil", "lil_negative_copula", _trajectory_draws("lil")),
                _experiment_command("necessity", "necessity_pareto", _necessity_draws),
                # run_cluster draws one stream and never reads --workers.
                _experiment_command("cluster", "cluster_normal", _cluster_draws,
                                    ("test_cluster_coverage", 120.0)),
            ),
        ),
        Workload(
            "bound_sweep", 1, "variates",
            (
                _experiment_command("bound-check", "bound_check_normal", _bound_check_draws,
                                    ("test_mc_bound_dominance", 300.0)),
                _experiment_command("wlln", "wlln_normal_band"),
                Command("bounds-eval.bounds_chebyshev",
                        ("bounds", "eval", "--config", "configs/bounds_chebyshev.yaml"),
                        "configs/bounds_chebyshev.yaml"),
            ),
        ),
    )
}
