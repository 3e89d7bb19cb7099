"""The benchmark's layer tracer against the names it rebinds in ``caplim``.

``bench/tracer.py`` wraps functions and methods by name; a refactor that
renames or inlines one of them silently drops its span. These tests install
the tracer, run commands and check the spans and counts it records.
"""

import importlib.util
from pathlib import Path

import pytest

import caplim
from caplim import bounds, cli, config, dependence, limits, measures, sublinear

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"
MODULES = (caplim, measures, sublinear, dependence, bounds, limits, config, cli)

SLLN = """\
family:
  name: lone-normal
  parameters:
  - name: mu
    domain: [0.0, 0.0]
  marginals:
  - kind: normal
    mean: mu
    var: 1.0
  K: 1.0
experiment:
  mode: slln
  horizon: 2000
  trajectories: 4
  burn_in: 10
"""


COPULA = """\
dependence:
  mode: gaussian_copula
  correlation: -0.5
  K: 1.0
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("caplim_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of the caplim modules and of the classes they define."""
    owners = list(MODULES) + [
        value for mod in MODULES for value in vars(mod).values()
        if isinstance(value, type) and value.__module__.startswith("caplim")
    ]
    return {(id(owner), name): value for owner in owners
            for name, value in list(vars(owner).items())}


@pytest.fixture
def traced():
    before = _bindings()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())


def test_each_bound_call_counts_once(traced, capsys):
    assert cli.main(["bounds", "eval", "--formula", "chebyshev", "--x", "1,2",
                 "--n", "1", "--variance-sum", "1.0", "--K", "1.0"]) == 0
    assert "0.92957" in capsys.readouterr().out
    # One evaluate_formula call and the chebyshev_bound call it makes.
    assert traced.snapshot()["counts"]["bounds.calls"] == 2


def test_a_trajectory_run_records_the_scan_spans(traced, tmp_path, capsys):
    path = tmp_path / "slln.yaml"
    path.write_text(SLLN)
    assert cli.main(["experiment", "slln", "--config", str(path),
                 "--out", str(tmp_path / "out")]) in (0, 2)
    snap = traced.snapshot()
    assert {"limits.scan", "limits.transform", "measures.ppf.normal",
            "cli.write"} <= snap["self_s"].keys()
    assert snap["self_s"]["limits.transform"] > 0.0
    assert snap["incl_s"]["limits.run.slln"] > 0.0
    assert snap["counts"]["measures.ppf.draws.normal"] == 4 * 2000  # one measure, 4 trajectories


def test_install_rebinds_the_scan_helpers():
    originals = (limits._transform_chunk, limits._indexed_map, bounds.chebyshev_bound)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        replaced = (limits._transform_chunk, limits._indexed_map, bounds.chebyshev_bound)
    finally:
        tracer.uninstall()
    assert all(new is not old for new, old in zip(replaced, originals))
    assert (limits._transform_chunk, limits._indexed_map,
            bounds.chebyshev_bound) == originals


def test_a_copula_trajectory_run_records_the_transform_spans(traced, tmp_path, capsys):
    path = tmp_path / "slln.yaml"
    path.write_text(SLLN + COPULA)
    assert cli.main(["experiment", "slln", "--config", str(path),
                 "--out", str(tmp_path / "out")]) in (0, 2)
    snap = traced.snapshot()
    assert {"limits.transform", "dependence.correlate_pairs",
            "measures.ppf.normal"} <= snap["self_s"].keys()
    # The normal scores are standard normal ppf draws; the normal marginal
    # maps them without another ppf call.
    assert snap["counts"]["measures.ppf.draws.normal"] == 4 * 2000


def test_a_cross_checked_end_run_records_the_verifier_spans(traced, tmp_path, capsys):
    path = tmp_path / "end.yaml"
    path.write_text((ROOT / "configs" / "end_countermonotone.yaml").read_text().replace(
        "corpus_cases: 24", "corpus_cases: 2\n  mc_cross_check: true\n  mc_replications: 2000"))
    assert cli.main(["verify", "end", "--config", str(path)]) == 0
    snap = traced.snapshot()
    # The joint table's cross-check draws through SequenceSampler.draw.
    assert {"dependence.verify", "dependence.sampler_draw"} <= snap["self_s"].keys()
    spans = snap["self_s"]["dependence.verify"] + snap["self_s"]["dependence.sampler_draw"]
    assert spans <= snap["incl_s"]["dependence.verify_end"] <= snap["incl_s"]["cli.main"]


def test_a_monte_carlo_end_run_draws_through_the_sampler(traced, tmp_path, capsys):
    path = tmp_path / "end.yaml"
    path.write_text(SLLN + COPULA + "verify:\n  corpus_cases: 1\n  mc_replications: 2000\n")
    assert cli.main(["verify", "end", "--config", str(path)]) in (0, 2)
    snap = traced.snapshot()
    # A copula has no exact path, so its one case is drawn through
    # SequenceSampler.draw under the family's one measure.
    assert {"dependence.verify", "dependence.sampler_draw",
            "dependence.correlate_pairs"} <= snap["self_s"].keys()


def test_an_axiom_run_counts_each_envelope_by_its_path(traced, tmp_path, capsys):
    path = tmp_path / "axioms.yaml"
    path.write_text(SLLN.split("experiment:")[0]
                    + "verify:\n  n_cases: 4\n  mc_every: 2\n  mc_replications: 2000\n")
    assert cli.main(["verify", "axioms", "--config", str(path)]) == 0
    counts = traced.snapshot()["counts"]
    # Cases 0 and 2 draw discrete families and cases 1 and 3 continuous ones
    # through Monte Carlo; each case takes upper and lower envelopes.
    for side in ("upper_exp", "lower_exp"):
        for path_taken in ("enumeration", "mc"):
            assert counts[f"sublinear.{side}.calls.{path_taken}"] > 0
