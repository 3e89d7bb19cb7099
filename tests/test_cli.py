"""Config file round trips and the command-line entry point."""

import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import caplim
from caplim.bounds import (
    BoundInputs,
    chernoff_explicit_bound,
    moricz_maximal_bound,
    moricz_maximal_bound_text_form,
)
from caplim.cli import _VERIFY_KEYS, main
from caplim.config import _SECTIONS, ConfigError, parse_config, parse_config_text
from caplim.dependence import verify_end, verify_extended_independence
from caplim.sublinear import SublinearEngine, run_axiom_suite

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = CONFIG_DIR / "reciprocal_variance_pair.yaml"

MINIMAL = """\
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
"""

COMONOTONE = """\
family:
  name: bernoulli-half-pair
  parameters:
  - name: p
    domain: [0.5, 0.5]
  marginals:
  - kind: bernoulli
    p: p
  - kind: bernoulli
    p: p
  K: 1.0
dependence:
  mode: discrete_joint
  K: 1.0
  joint_atoms:
  - point: [0.0, 0.0]
    prob: 0.5
  - point: [1.0, 1.0]
    prob: 0.5
verify:
  direction: upper
  corpus_cases: 8
"""


class TestConfigParsing:
    def test_minimal_family(self):
        bundle = parse_config_text(MINIMAL)
        assert bundle.family.is_singleton
        assert bundle.family.name == "lone-normal"
        assert bundle.dependence.mode == "per_measure_independent"

    def test_golden_file_is_byte_canonical(self):
        text = GOLDEN.read_text()
        assert parse_config_text(text).canonical_yaml() == text

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_shipped_configs_parse_and_canonicalize(self, path):
        bundle = parse_config(str(path))
        canonical = bundle.canonical_yaml()
        assert parse_config_text(canonical).canonical_yaml() == canonical

    def test_low_dominating_constant_is_anchored_to_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL.replace("K: 1.0", "K: 0.5"))
        assert "family.K" in str(err.value)
        assert "line 10" in str(err.value)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'mystery'"):
            parse_config_text(MINIMAL + "mystery:\n  knob: 1\n")

    def test_broken_parameter_expression_rejected(self):
        with pytest.raises(ConfigError, match="bad expression"):
            parse_config_text(MINIMAL.replace("var: 1.0", "var: mu**"))
        with pytest.raises(ConfigError, match="known parameters: mu"):
            parse_config_text(MINIMAL.replace("var: 1.0", "var: sigma*2"))

    def test_unparseable_and_empty_documents_rejected(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config_text("family: [unclosed")
        with pytest.raises(ConfigError, match="empty"):
            parse_config_text("")

    def test_experiment_overrides_win_over_the_file(self):
        bundle = parse_config(str(CONFIG_DIR / "slln_normal_band.yaml"))
        cfg = bundle.experiment_config(seed=99, workers=4)
        assert cfg.mode == "slln"
        assert cfg.seed == 99
        assert cfg.workers == 4
        assert bundle.experiment_config(mode="bound-check").mode == "bound_check"

    def test_experiment_mode_must_come_from_somewhere(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config_text(MINIMAL).experiment_config()

    def test_experiment_keys_are_the_hashed_fields(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "experiment:\n  mystery: 1\n")
        allowed = str(err.value).split("allowed: ", 1)[1].split(", ")
        cfg = parse_config(str(CONFIG_DIR / "slln_normal_band.yaml")).experiment_config()
        assert set(allowed) == set(cfg.descriptor()) - {"family", "dependence"}

    def test_one_loader_parses_each_document(self, monkeypatch):
        # Every PyYAML loader starts its reader once, so this counts loaders.
        import yaml.reader

        built = []
        start = yaml.reader.Reader.__init__

        def counting(reader, stream):
            built.append(reader)
            start(reader, stream)

        monkeypatch.setattr(yaml.reader.Reader, "__init__", counting)
        parse_config_text(COMONOTONE)
        assert len(built) == 1

    # ``refinement`` was never a key: every envelope is a pick over the grid.
    @pytest.mark.parametrize("key, value", [("tolerance", "1.0e-9"), ("refinement", "true")])
    def test_unknown_engine_keys_are_rejected_with_their_line(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + f"engine:\n  {key}: {value}\n")
        assert f"unknown key '{key}'" in str(err.value)
        assert "line 12" in str(err.value)


def _marginal(body: str) -> str:
    return MINIMAL.replace("  - kind: normal\n    mean: mu\n    var: 1.0\n", body)


# One broken document per reader -> the full message, which carries the
# document path and its line.
BROKEN = {
    "normal-missing": (_marginal("  - kind: normal\n    mean: mu\n"),
                       "family.marginals[0] (line 7): missing required key 'var'"),
    "normal-unknown": (_marginal("  - kind: normal\n    mean: mu\n    var: 1.0\n"
                                 "    scale: 2.0\n"),
                       "family.marginals[0].scale (line 10): unknown key 'scale'; "
                       "allowed: kind, mean, var"),
    "uniform-missing": (_marginal("  - kind: uniform\n    lo: mu\n"),
                        "family.marginals[0] (line 7): missing required key 'hi'"),
    "uniform-unknown": (_marginal("  - kind: uniform\n    lo: mu\n    hi: 1.0\n"
                                  "    mean: 0.5\n"),
                        "family.marginals[0].mean (line 10): unknown key 'mean'; "
                        "allowed: hi, kind, lo"),
    "bernoulli-missing": (_marginal("  - kind: bernoulli\n"),
                          "family.marginals[0] (line 7): missing required key 'p'"),
    "bernoulli-unknown": (_marginal("  - kind: bernoulli\n    p: 0.5\n    q: 0.5\n"),
                          "family.marginals[0].q (line 9): unknown key 'q'; "
                          "allowed: kind, p"),
    "discrete-missing": (_marginal("  - kind: discrete\n"),
                         "family.marginals[0] (line 7): missing required key 'atoms'"),
    "discrete-unknown": (_marginal("  - kind: discrete\n    atoms: [[0.0, 0.5], [1.0, 0.5]]\n"
                                   "    p: 0.5\n"),
                         "family.marginals[0].p (line 9): unknown key 'p'; "
                         "allowed: atoms, kind"),
    "pareto-missing": (_marginal("  - kind: pareto\n    scale: 1.0\n"),
                       "family.marginals[0] (line 7): missing required key 'alpha'"),
    "pareto-unknown": (_marginal("  - kind: pareto\n    alpha: 3.0\n    shape: 1.0\n"),
                       "family.marginals[0].shape (line 9): unknown key 'shape'; "
                       "allowed: alpha, kind, scale"),
    "kind-missing": (_marginal("  - mean: mu\n    var: 1.0\n"),
                     "family.marginals[0] (line 7): missing required key 'kind'"),
    "kind-unknown": (_marginal("  - kind: cauchy\n    mean: mu\n"),
                     "family.marginals[0].kind (line 7): unknown marginal kind 'cauchy'; "
                     "allowed: bernoulli, discrete, normal, pareto, uniform"),
    "discrete-bad-expression": (
        _marginal("  - kind: discrete\n    atoms:\n    - [0.0, 0.5]\n    - [mu**, 0.5]\n"),
        "family.marginals[0].atoms[1][0] (line 10): bad expression 'mu**': invalid syntax"),
    "parameter-duplicate": (
        MINIMAL.replace("  marginals:", "  - name: mu\n    domain: [1.0, 2.0]\n  marginals:"),
        "family.parameters[1].name (line 6): duplicate parameter 'mu'"),
    "parameter-not-identifier": (
        MINIMAL.replace("name: mu", "name: 2mu"),
        "family.parameters[0].name (line 4): parameter name must be an identifier"),
    "domain-reversed": (MINIMAL.replace("[0.0, 0.0]", "[1.0, 0.0]"),
                        "family.parameters[0].domain (line 5): domain must satisfy lo <= hi"),
    "domain-infinite": (MINIMAL.replace("[0.0, 0.0]", "[0.0, .inf]"),
                        "family.parameters[0].domain (line 5): domain must be finite, "
                        "got [0.0, inf]"),
    "domain-nan": (MINIMAL.replace("[0.0, 0.0]", "[.nan, 1.0]"),
                   "family.parameters[0].domain (line 5): domain must be finite, "
                   "got [nan, 1.0]"),
    "family-K": (MINIMAL.replace("K: 1.0", "K: 0.5"),
                 "family.K (line 10): K must be at least 1, got 0.5"),
    "family-K-infinite": (MINIMAL.replace("K: 1.0", "K: .inf"),
                          "family.K (line 10): K must be finite, got inf"),
    "grid-point-marginal": (
        _marginal("  - kind: bernoulli\n    p: mu\n").replace("[0.0, 0.0]", "[0.5, 1.5]"),
        "family (line 1): at mu = 1.125: bernoulli p must lie in [0, 1], got 1.125"),
    "grid-point-division": (
        MINIMAL.replace("[0.0, 0.0]", "[0.0, 1.0]").replace("var: 1.0", "var: 1/mu"),
        "family (line 1): at mu = 0: ZeroDivisionError: float division by zero"),
    "experiment-horizon": (MINIMAL + "experiment:\n  mode: slln\n  horizon: 0\n",
                           "experiment (line 11): horizon must be at least 1"),
    "experiment-burn-in": (MINIMAL + "experiment:\n  mode: lil\n  horizon: 10\n"
                           "  burn_in: 20\n",
                           "experiment (line 11): burn_in must not exceed the horizon"),
    "dependence-K": (MINIMAL + "dependence:\n  mode: gaussian_copula\n  correlation: 0.0\n"
                     "  K: 0.9\n",
                     "dependence.K (line 14): K must be at least 1, got 0.9"),
    "dependence-K-infinite": (MINIMAL + "dependence:\n  mode: gaussian_copula\n"
                              "  correlation: 0.0\n  K: .inf\n",
                              "dependence.K (line 14): K must be finite, got inf"),
    "bounds-inputs-K": (MINIMAL + "bounds:\n  formula: chebyshev\n  inputs:\n    n: 2\n"
                        "    K: 0.25\n",
                        "bounds.inputs.K (line 15): K must be at least 1, got 0.25"),
    "bounds-inputs-K-nan": (MINIMAL + "bounds:\n  formula: chebyshev\n  inputs:\n    n: 2\n"
                            "    K: .nan\n",
                            "bounds.inputs.K (line 15): K must be finite, got nan"),
    "engine-enumeration-cap": (
        MINIMAL + "engine:\n  enumeration_cap: -5\n",
        "engine.enumeration_cap (line 12): enumeration_cap must be at least 0, got -5"),
    "verify-mc-every": (MINIMAL + "verify:\n  mc_every: -3\n",
                        "verify.mc_every (line 12): mc_every must be at least 0, got -3"),
    "bounds-x-nan": (MINIMAL + "bounds:\n  formula: split\n  x: [1.0, .nan]\n",
                     "bounds.x[1] (line 13): x[1] must be finite, got nan"),
    "bounds-tilt-nan": (MINIMAL + "bounds:\n  formula: exp\n  tilt: .nan\n",
                        "bounds.tilt (line 13): tilt must be finite, got nan"),
    "bounds-max-second-moment-inf": (
        MINIMAL + "bounds:\n  formula: moricz\n  max_second_moment: .inf\n",
        "bounds.max_second_moment (line 13): max_second_moment must be finite, got inf"),
    "bounds-inputs-pos-moment-sum-inf": (
        MINIMAL + "bounds:\n  formula: split\n  inputs:\n    pos_moment_sum: .inf\n",
        "bounds.inputs.pos_moment_sum (line 14): pos_moment_sum must be finite, got inf"),
    "choquet-exponent-nan": (MINIMAL + "choquet:\n  exponent: .nan\n",
                             "choquet.exponent (line 12): exponent must be finite, got nan"),
    "choquet-exponent-inf": (MINIMAL + "choquet:\n  exponent: .inf\n",
                             "choquet.exponent (line 12): exponent must be finite, got inf"),
    "correlation-matrix-not-rows": (
        MINIMAL + "dependence:\n  mode: gaussian_copula\n  correlation_matrix: [1.0, 0.5]\n",
        "dependence.correlation_matrix (line 13): expected a list of rows"),
    "correlation-matrix-entry": (
        MINIMAL + "dependence:\n  mode: gaussian_copula\n  correlation_matrix:\n"
        "  - [1.0, 0.5]\n  - [0.5, one]\n",
        "dependence.correlation_matrix[1][1] (line 15): expected a number"),
    # The two-way choices name both values.
    "bounds-form": (MINIMAL + "bounds:\n  form: mid\n",
                    "bounds.form (line 12): unknown form 'mid'; allowed: pre, post"),
    "choquet-capacity": (MINIMAL + "choquet:\n  capacity: both\n",
                         "choquet.capacity (line 12): unknown capacity 'both'; "
                         "allowed: upper, lower"),
    "verify-direction": (MINIMAL + "verify:\n  direction: up\n",
                         "verify.direction (line 12): unknown direction 'up'; "
                         "allowed: upper, lower"),
    "joint-atom-without-prob": (
        MINIMAL + "dependence:\n  mode: discrete_joint\n  joint_atoms:\n"
        "  - point: [0.0]\n    prob: 0.5\n  - point: [1.0]\n",
        "dependence.joint_atoms[1] (line 16): missing required key 'prob'"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_each_reader_reports_its_message_path_and_line(case):
    text, message = BROKEN[case]
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == message
    path, line = message.split(": ", 1)[0].removesuffix(")").split(" (line ")
    assert (err.value.path, err.value.line) == (path, int(line))


# command family -> (command words, config text, seed the run uses without --seed);
# bounds eval draws nothing, so it records none.
SEEDED_RUNS = {
    "verify axioms": (["verify", "axioms"], MINIMAL + "verify:\n  n_cases: 3\n", 2026),
    "verify end": (["verify", "end"], (CONFIG_DIR / "end_countermonotone.yaml").read_text(),
                   2026),
    "choquet": (["choquet"], GOLDEN.read_text(), 2026),
    "experiment": (["experiment", "wlln"],
                   MINIMAL + "experiment:\n  horizon: 1000\n  epsilon: 0.1\n  seed: 31\n", 31),
    "bounds eval": (["bounds", "eval", "--formula", "chebyshev", "--x", "2"], MINIMAL, None),
}


class TestCommandLine:
    @pytest.mark.parametrize("family", sorted(SEEDED_RUNS))
    def test_manifest_records_the_seed_the_run_used(self, family, tmp_path, capsys):
        command, text, seed = SEEDED_RUNS[family]
        config = tmp_path / "run.yaml"
        config.write_text(text)
        for flags, want in (((), seed), (("--seed", "7"), None if seed is None else 7)):
            out = tmp_path / f"out-{len(flags)}"
            assert main([*command, "--config", str(config), *flags, "--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["seed"] == want
            result = json.loads((out / "result.json").read_text())
            assert result.get("seed", want) == want

    @pytest.mark.parametrize("mode", ["wlln", "slln", "cluster", "lil", "necessity",
                                      "bound-check"])
    def test_sequence_runs_reject_a_correlation_matrix(self, mode, tmp_path, capsys):
        text = (CONFIG_DIR / "lil_negative_copula.yaml").read_text()
        assert text.count("correlation: -0.5") == 1
        path = tmp_path / "matrix.yaml"
        path.write_text(text.replace("correlation: -0.5",
                                     "correlation_matrix: [[1.0, -0.5], [-0.5, 1.0]]"))
        assert main(["experiment", mode, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "experiment (line 21): correlation_matrix describes one fixed block" in err
        assert "NoneType" not in err
        # A pair copula over a family of several measures fails at the same line.
        assert text.count("domain: [0.0, 0.0]") == 1
        path.write_text(text.replace("domain: [0.0, 0.0]", "domain: [0.0, 0.5]"))
        assert main(["experiment", mode, "--config", str(path)]) == 1
        assert ("experiment (line 21): the pairwise copula requires a single-measure family"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode", ["wlln", "slln", "cluster", "lil", "necessity",
                                      "bound-check"])
    def test_experiments_reject_a_family_of_two_marginals(self, mode, tmp_path, capsys):
        # Every second draw would come from U(5, 7), but the runners read
        # only the first listed marginal.
        family = MINIMAL.replace("  K: 1.0\n", "  - kind: uniform\n    lo: 5.0\n"
                                 "    hi: 7.0\n  K: 1.0\n")
        path = tmp_path / "two.yaml"
        path.write_text(family + f"experiment:\n  mode: {mode.replace('-', '_')}\n"
                        "  horizon: 20000\n  trajectories: 4\n")
        assert main(["experiment", mode, "--config", str(path)]) == 1
        assert ("experiment (line 14): family.marginals lists 2 marginals"
                in capsys.readouterr().err)
        # With the mode from the command line only, the run fails as it is built.
        path.write_text(family)
        assert main(["experiment", mode, "--config", str(path)]) == 1
        assert "family.marginals lists 2 marginals" in capsys.readouterr().err

    def test_verify_end_accepts_a_correlation_matrix(self, tmp_path, capsys):
        rho = -0.2
        rows = ", ".join("[" + ", ".join("1.0" if i == j else str(rho) for j in range(4)) + "]"
                         for i in range(4))
        path = tmp_path / "block.yaml"
        path.write_text(MINIMAL + "dependence:\n  mode: gaussian_copula\n"
                        f"  correlation_matrix: [{rows}]\n  K: 1.0\n"
                        "verify:\n  corpus_cases: 4\n  mc_replications: 20000\n")
        assert main(["verify", "end", "--config", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_end_takes_its_length_from_the_correlation_matrix(self, tmp_path, capsys):
        path = tmp_path / "pair.yaml"
        path.write_text(MINIMAL + "dependence:\n  mode: gaussian_copula\n"
                        "  correlation_matrix: [[1.0, -0.5], [-0.5, 1.0]]\n  K: 1.0\n"
                        "verify:\n  corpus_cases: 4\n  mc_replications: 20000\n")
        assert main(["verify", "end", "--config", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("rho, rc, verdict", [(0.0, 0, "PASS"), (-0.5, 2, "FAIL")])
    def test_verify_extindep_takes_its_length_from_the_correlation_matrix(
            self, rho, rc, verdict, tmp_path, capsys):
        # Independent coordinates factorize; a negatively correlated pair does not.
        path = tmp_path / "pair.yaml"
        path.write_text(MINIMAL + "dependence:\n  mode: gaussian_copula\n"
                        f"  correlation_matrix: [[1.0, {rho}], [{rho}, 1.0]]\n  K: 1.0\n"
                        "verify:\n  corpus_cases: 4\n  mc_replications: 20000\n")
        assert main(["verify", "extindep", "--config", str(path)]) == rc
        assert verdict in capsys.readouterr().out

    def test_bounds_eval_prints_the_chebyshev_value(self, capsys):
        rc = main(["bounds", "eval", "--formula", "chebyshev", "--x", "2",
                   "--n", "1", "--variance-sum", "1.0", "--K", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.92957" in out

    def test_verify_end_passes_on_the_countermonotone_table(self, capsys):
        rc = main(["verify", "end",
                   "--config", str(CONFIG_DIR / "end_countermonotone.yaml")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_end_fails_on_a_comonotone_table(self, tmp_path, capsys):
        path = tmp_path / "comonotone.yaml"
        path.write_text(COMONOTONE)
        rc = main(["verify", "end", "--config", str(path)])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_verify_axioms_smoke(self, tmp_path, capsys):
        path = tmp_path / "axioms.yaml"
        path.write_text(MINIMAL + (
            "verify:\n"
            "  n_cases: 12\n"
            "  mc_every: 6\n"
            "  mc_replications: 20000\n"
        ))
        rc = main(["verify", "axioms", "--config", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "12 cases" in out

    def test_experiment_artifacts_are_worker_invariant(self, tmp_path, capsys):
        cfg = str(CONFIG_DIR / "wlln_normal_band.yaml")
        out1, out3 = tmp_path / "w1", tmp_path / "w3"
        assert main(["experiment", "wlln", "--config", cfg,
                     "--out", str(out1), "--workers", "1"]) == 0
        assert main(["experiment", "wlln", "--config", cfg,
                     "--out", str(out3), "--workers", "3"]) == 0
        for name in ("result.json", "wlln.csv"):
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes()

        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["workers"] == 1
        assert set(manifest["outputs"]) == {"result.json", "summary.txt", "wlln.csv"}
        for name, digest in manifest["outputs"].items():
            algo, hexdigest = digest.split(":")
            assert algo == "sha256"
            assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == hexdigest

        result = json.loads((out1 / "result.json").read_text())
        assert result["passed"] is True
        assert result["config_hash"] == manifest["config_hash"]
        # canonical JSON: sorted keys, so a re-dump reproduces the bytes
        redumped = json.dumps(result, sort_keys=True, indent=2)
        assert redumped == (out1 / "result.json").read_text().rstrip("\n")

    def test_a_failed_write_leaves_an_incomplete_manifest(self, tmp_path, capsys):
        """A write that fails (here ``summary.txt`` is a directory) exits 1;
        the manifest still lands and lists just the files written before it."""
        out = tmp_path / "out"
        (out / "summary.txt").mkdir(parents=True)
        assert main(["bounds", "eval", "--formula", "chebyshev", "--x", "2",
                     "--variance-sum", "1", "--K", "1", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["outputs"] == {
            name: "sha256:" + hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("result.json", "bounds.csv")
        }

    def test_manifest_wall_clock_covers_the_command(self, tmp_path, capsys):
        path = tmp_path / "slln.yaml"
        path.write_text(MINIMAL + (
            "experiment:\n"
            "  mode: slln\n"
            "  horizon: 100000\n"
            "  trajectories: 32\n"
            "  burn_in: 100\n"
        ))
        t0 = time.perf_counter()
        assert main(["experiment", "slln", "--config", str(path),
                     "--out", str(tmp_path / "out")]) in (0, 2)
        wall = time.perf_counter() - t0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["wall_clock_seconds"] >= 0.5 * wall

    def test_out_of_range_seed_exits_one(self, capsys):
        wlln = str(CONFIG_DIR / "wlln_normal_band.yaml")
        for command in (["experiment", "wlln", "--config", wlln],
                        ["choquet", "--config", str(GOLDEN)]):
            for seed in ("-1", str(1 << 64)):
                assert main([*command, "--seed", seed]) == 1
                assert "seed" in capsys.readouterr().err

    def test_choquet_reports_the_heaviest_scale(self, capsys):
        rc = main(["choquet", "--config", str(GOLDEN)])
        out = capsys.readouterr().out
        assert rc == 0
        value = float(out.rsplit(":", 1)[-1])
        assert value == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-6)

    def test_choquet_of_a_power_that_is_nan_on_its_sample_exits_one(self, tmp_path, capsys):
        config = tmp_path / "power.yaml"
        config.write_text(GOLDEN.read_text().replace("mc_replications: 100000",
                                                     "mc_replications: 2000")
                          + "choquet:\n  function: power\n  exponent: 2.5\n")
        with np.errstate(invalid="ignore"):
            assert main(["choquet", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: x^2.5 is NaN on the Monte Carlo sample" in captured.err
        assert not (tmp_path / "out" / "result.json").exists()

    @pytest.mark.parametrize("command", [
        "verify end --config configs/end_countermonotone.yaml",
        "experiment wlln --config configs/wlln_normal_band.yaml",
        "choquet --config configs/reciprocal_variance_pair.yaml",
        "bounds eval --formula chebyshev --x 1",
    ])
    def test_a_worker_count_below_one_exits_one(self, command, tmp_path, capsys):
        argv = command.replace("configs/", f"{CONFIG_DIR}/").split()
        assert main([*argv, "--workers", "0", "--out", str(tmp_path / "out")]) == 1
        assert "--workers: must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_errors_exit_one(self, capsys):
        assert main(["bogus"]) == 1
        capsys.readouterr()
        assert main(["verify", "end"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_config_errors_exit_one_with_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(MINIMAL.replace("K: 1.0", "K: 0.5"))
        assert main(["choquet", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "family.K" in err and "line 10" in err
        assert main(["choquet", "--config", str(tmp_path / "missing.yaml")]) == 1

    @pytest.mark.parametrize("command, source, old, new, key, line", [
        ("verify end", "end_countermonotone.yaml", "corpus_cases: 24", "corpus_cases: -3",
         "verify.corpus_cases", 29),
        ("verify end", "end_countermonotone.yaml", "corpus_cases: 24",
         "corpus_cases: 2\n  mc_replications: 1", "verify.mc_replications", 30),
        ("verify end", "end_countermonotone.yaml", "corpus_cases: 24",
         "corpus_cases: 2\n  mc_replications: -5", "verify.mc_replications", 30),
        ("verify axioms", "reciprocal_variance_pair.yaml", "n_cases: 120", "n_cases: 0",
         "verify.n_cases", 21),
        ("choquet", "reciprocal_variance_pair.yaml", "mc_replications: 100000",
         "mc_replications: 1", "engine.mc_replications", 2),
    ])
    def test_out_of_range_counts_exit_one_with_the_key_and_line(
            self, command, source, old, new, key, line, tmp_path, capsys):
        text = (CONFIG_DIR / source).read_text()
        assert text.count(old) == 1
        path = tmp_path / "counts.yaml"
        path.write_text(text.replace(old, new))
        assert main([*command.split(), "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{key} (line {line}): " in err and "must be at least" in err

    @pytest.mark.parametrize("command", ["verify end", "choquet"])
    def test_a_grid_point_without_a_measure_exits_one_with_the_family_line(
            self, command, tmp_path, capsys):
        text = (CONFIG_DIR / "end_countermonotone.yaml").read_text()
        assert text.count("domain: [0.5, 0.5]") == 1
        path = tmp_path / "grid.yaml"
        path.write_text(text.replace("domain: [0.5, 0.5]", "domain: [0.5, 1.5]"))
        assert main([*command.split(), "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "family (line 6): at p = 1.125: bernoulli p must lie in [0, 1]" in captured.err

    @pytest.mark.parametrize("command", ["choquet", "verify axioms"])
    @pytest.mark.parametrize("var, error", [("1/mu", "ZeroDivisionError"),
                                            ("10.0**400", "OverflowError")])
    def test_a_marginal_expression_that_raises_exits_one_with_the_family_line(
            self, command, var, error, tmp_path, capsys):
        path = tmp_path / "raises.yaml"
        path.write_text(MINIMAL.replace("[0.0, 0.0]", "[0.0, 1.0]")
                        .replace("var: 1.0", f"var: {var}"))
        assert main([*command.split(), "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"family (line 1): at mu = 0: {error}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment necessity", "choquet"])
    def test_out_of_range_experiment_values_exit_one_with_the_section_line(
            self, command, tmp_path, capsys):
        text = (CONFIG_DIR / "necessity_pareto.yaml").read_text()
        assert text.count("horizon: 1000000") == 1
        path = tmp_path / "horizon.yaml"
        path.write_text(text.replace("horizon: 1000000", "horizon: 0"))
        assert main([*command.split(), "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert "experiment (line 16): horizon must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("source, edits, key, value", [
        ("slln_normal_band.yaml", {"epsilon: 0.05": "epsilon: .nan"}, "epsilon", "nan"),
        ("slln_normal_band.yaml", {"epsilon: 0.05": "epsilon: .inf"}, "epsilon", "inf"),
        ("necessity_normal.yaml", {"divergence_threshold: 10.0": "divergence_threshold: .nan"},
         "divergence_threshold", "nan"),
        ("lil_negative_copula.yaml", {"checkpoint_growth: 1.05": "checkpoint_growth: .inf"},
         "checkpoint_growth", "inf"),
    ])
    def test_non_finite_experiment_values_exit_one_with_the_section_line(
            self, source, edits, key, value, tmp_path, capsys):
        # A NaN threshold used to pass every range check and the run PASSed.
        text = (CONFIG_DIR / source).read_text()
        for old, new in {"horizon: 1000000": "horizon: 3000",
                         "horizon: 100000": "horizon: 3000", **edits}.items():
            text = text.replace(old, new)
        path = tmp_path / "nonfinite.yaml"
        path.write_text(text)
        mode = source.split("_")[0]
        assert main(["experiment", mode, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        line = text.splitlines().index("experiment:") + 1
        assert "PASS" not in captured.out
        assert f"experiment (line {line}): {key} must be finite, got {value}" in captured.err

    @pytest.mark.parametrize("old, new, where, message", [
        ("var: 1.0", "var: .nan", "family (line 1)",
         "at mu = 0: normal var must be finite, got nan"),
        ("K: 1.0\n", "K: 1.0\ndependence:\n  correlation: -0.5\n", "dependence (line 11)",
         "per_measure_independent does not read correlation"),
        ("K: 1.0\n", "K: 1.0\ndependence:\n  mode: gaussian_copula\n  correlation: -0.5\n"
         "  correlation_matrix: [[1.0, -0.2], [-0.2, 1.0]]\n", "dependence (line 11)",
         "gaussian_copula needs exactly one of correlation and correlation_matrix"),
        ("K: 1.0\n", "K: 1.0\ndependence:\n  mode: gaussian_copula\n"
         "  correlation_matrix: [[1.0, .nan], [.nan, 1.0]]\n", "dependence (line 11)",
         "correlation_matrix entries must be finite"),
    ])
    def test_non_finite_and_unread_family_and_dependence_values_exit_one(
            self, old, new, where, message, tmp_path, capsys):
        assert MINIMAL.count(old) == 1
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace(old, new))
        assert main(["verify", "extindep", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert f"{where}: {message}" in captured.err

    def test_verify_end_rejects_an_infinite_dominating_constant(self, tmp_path, capsys):
        # With K = inf, an exact margin inf * 0 - joint is NaN, and the run
        # used to report "FAIL (worst margin inf at )" and exit 2.
        text = (CONFIG_DIR / "end_countermonotone.yaml").read_text()
        assert text.count("K: 1.0") == 2
        path = tmp_path / "infinite.yaml"
        path.write_text(text.replace("K: 1.0", "K: .inf"))
        assert main(["verify", "end", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        line = text.splitlines().index("  K: 1.0") + 1
        assert "FAIL" not in captured.out
        assert f"family.K (line {line}): K must be finite, got inf" in captured.err

    @pytest.mark.parametrize("flags, message", [
        ("--formula split --x nan,1 --order 3 --pos-moment-sum 1 --variance-sum 1",
         "thresholds must be finite"),
        ("--formula split --x 1 --order 3 --pos-moment-sum nan --variance-sum 1",
         "pos_moment_sum must be finite, got nan"),
        ("--formula exp --x 1 --truncation 1 --tilt nan", "tilt must be finite, got nan"),
        ("--formula exp --x inf --truncation 1", "thresholds must be finite"),
        ("--formula moricz --x 1 --order 3 --choquet-terms nan --max-second-moment 1",
         "per_term_pos_choquet must be finite"),
        ("--formula moricz --x 1 --order 3 --choquet-terms 1 --max-second-moment nan",
         "max_second_moment must be finite, got nan"),
    ])
    def test_bounds_eval_rejects_non_finite_flags(self, flags, message, capsys):
        # Each would otherwise print a table of nan cells and exit 0.
        assert main(["bounds", "eval", *flags.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err

    @pytest.mark.parametrize("mode", ["wlln", "slln", "cluster", "lil", "bound-check"])
    def test_experiments_on_an_infinite_mean_exit_one(self, mode, tmp_path, capsys):
        # Pareto(1) has no finite mean, so there is no mean interval to test;
        # only the divergence check reads such a family.
        text = (CONFIG_DIR / "necessity_pareto.yaml").read_text()
        path = tmp_path / "pareto.yaml"
        path.write_text(text.replace("horizon: 1000000", "horizon: 2000"))
        assert main(["experiment", mode, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "error: the mean interval [inf, inf] is not finite" in captured.err

    def test_verify_end_over_no_cases_exits_one(self, tmp_path, capsys):
        text = (CONFIG_DIR / "end_countermonotone.yaml").read_text()
        path = tmp_path / "empty.yaml"
        path.write_text(text.replace("corpus_cases: 24", "corpus_cases: 0"))
        assert main(["verify", "end", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "no case to check" in captured.err

    @pytest.mark.parametrize("formula", ["moricz", "choquet-moment"])
    def test_bounds_eval_checks_the_choquet_term_count(self, formula, capsys):
        assert main(["bounds", "eval", "--formula", formula, "--x", "1", "--n", "3",
                     "--order", "3", "--choquet-terms", "1,2",
                     "--max-second-moment", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: expected 3 per-term Choquet moments, got 2" in captured.err

    def test_bounds_eval_requires_formula_and_thresholds(self, capsys):
        assert main(["bounds", "eval", "--x", "1"]) == 1
        assert "--formula" in capsys.readouterr().err
        assert main(["bounds", "eval", "--formula", "chebyshev"]) == 1
        assert "--x" in capsys.readouterr().err

    def test_bounds_eval_moricz_takes_the_largest_choquet_term(self, tmp_path):
        terms = (0.2, 0.7, 0.4)
        rc = main(["bounds", "eval", "--formula", "moricz", "--x", "1,2",
                   "--n", "3", "--order", "3", "--choquet-terms", ",".join(map(str, terms)),
                   "--max-second-moment", "1", "--out", str(tmp_path)])
        assert rc == 0
        columns = json.loads((tmp_path / "result.json").read_text())["columns"]
        inputs = BoundInputs(n=3, variance_sum=1.0, K=1.0, order=3)
        assert columns == {
            "moricz_dyadic": [moricz_maximal_bound(inputs, max(terms), 1.0)] * 2,
            "moricz_text_form": [moricz_maximal_bound_text_form(inputs, max(terms), 1.0)] * 2,
        }

    def test_bounds_eval_reads_the_config_tilt(self, tmp_path):
        config = tmp_path / "exp.yaml"
        config.write_text(MINIMAL + "bounds:\n  formula: exp\n  tilt: 0.7\n  x: [1.0]\n"
                          "  inputs:\n    truncation: 2.0\n")
        inputs = BoundInputs(n=1, variance_sum=1.0, K=1.0, truncation=2.0)
        # A tilt of 0 is given, and an empty --x is not.
        for flags, tilt in (((), 0.7), (("--tilt", "0.3"), 0.3),
                            (("--tilt", "0", "--x", ""), 0.0)):
            out = tmp_path / f"tilt-{tilt}"
            assert main(["bounds", "eval", "--config", str(config), *flags,
                         "--out", str(out)]) == 0
            columns = json.loads((out / "result.json").read_text())["columns"]
            assert columns["tilted"] == [chernoff_explicit_bound(inputs, 1.0, tilt)]
            assert "tilted_optimal" not in columns

    def test_an_empty_choquet_terms_flag_counts_as_absent(self, tmp_path):
        # As an empty --x does: it used to override the config's three terms
        # with none and exit 1.
        config = tmp_path / "bounds.yaml"
        config.write_text(MINIMAL + "bounds:\n  formula: choquet-moment\n  x: [1.0, 2.0]\n"
                          "  choquet_terms: [0.2, 0.7, 0.4]\n  inputs:\n    n: 3\n    order: 3\n")
        for flags in ((), ("--choquet-terms", ""), ("--choquet-terms", "", "--x", "")):
            out = tmp_path / f"out-{len(flags)}"
            assert main(["bounds", "eval", "--config", str(config), *flags,
                         "--out", str(out)]) == 0
        results = [(tmp_path / f"out-{n}" / "result.json").read_text() for n in (0, 2, 4)]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("formula", ["moricz", "choquet-moment"])
    def test_bounds_eval_reads_choquet_terms_from_the_config(self, formula, tmp_path):
        config = tmp_path / "bounds.yaml"
        config.write_text(MINIMAL + f"bounds:\n  formula: {formula}\n  x: [1.0, 2.0]\n"
                          "  choquet_terms: [0.2, 0.7, 0.4]\n  max_second_moment: 1.0\n"
                          "  inputs:\n    n: 3\n    order: 3\n")
        assert main(["bounds", "eval", "--config", str(config),
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["bounds", "eval", "--formula", formula, "--x", "1,2", "--n", "3",
                     "--order", "3", "--choquet-terms", "0.2,0.7,0.4",
                     "--max-second-moment", "1", "--out", str(tmp_path / "flags")]) == 0
        from_file, from_flags = (
            json.loads((tmp_path / run / "result.json").read_text())["columns"]
            for run in ("file", "flags"))
        assert from_file == from_flags


# BoundInputs field -> (its bounds.inputs value in a config, its flag's value);
# both pass BoundInputs' checks, and each flag differs from the file.
INPUT_OVERRIDES = {"n": ("2", "3"), "variance_sum": ("2.0", "0.5"), "K": ("2.0", "3"),
                   "order": ("3", "4"), "pos_moment_sum": ("2.0", "0"),
                   "abs_moment_sum": ("2.0", "0"), "truncation": ("2.0", "0.5"),
                   "split": ("0.5", "0.25"), "tail_power": ("2.0", "3")}


@pytest.mark.parametrize("name", [f.name for f in fields(BoundInputs)])
def test_each_bound_input_flag_overrides_its_config_key(name, tmp_path):
    """Every BoundInputs field has a flag, ``--`` and its name with dashes,
    whose value goes over ``bounds.inputs.<name>``, a flag of 0 included."""
    in_file, flag = INPUT_OVERRIDES[name]
    config = tmp_path / "inputs.yaml"
    config.write_text(MINIMAL + f"bounds:\n  formula: chebyshev\n  x: [2.0]\n"
                      f"  inputs:\n    {name}: {in_file}\n")
    for flags, want in (((), in_file), ((f"--{name.replace('_', '-')}", flag), flag)):
        out = tmp_path / f"out-{len(flags)}"
        assert main(["bounds", "eval", "--config", str(config), *flags,
                     "--out", str(out)]) == 0
        got = json.loads((out / "result.json").read_text())["inputs"][name]
        assert type(got) is (int if name in ("n", "order") else float)
        assert got == float(want)


@pytest.mark.parametrize("argv", [
    "bounds eval --formula power --x 1 --tail-power 1000 --variance-sum 1",
    "bounds eval --formula split --x 1 --order 200 --pos-moment-sum 1 --variance-sum 1",
], ids=["power-tail", "split-constants"])
def test_an_overflow_exits_one_with_an_error_line(argv, capsys):
    """An overflow is reported as an error, not raised past ``main``."""
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: OverflowError: ")
    assert "Traceback" not in captured.err


# A growth factor is finite and above 1 and still overflows once it
# multiplies the horizon: lil's checkpoints and the cluster's block sizes
# used to raise OverflowError mid-run, naming neither the key nor its line.
@pytest.mark.parametrize("source, key", [("lil_negative_copula.yaml", "checkpoint_growth"),
                                         ("cluster_normal.yaml", "block_growth")])
def test_a_growth_factor_that_overflows_fails_at_the_experiment_line(source, key):
    text = (CONFIG_DIR / source).read_text()
    old = next(line for line in text.splitlines() if line.startswith(f"  {key}: "))
    text = text.replace(old, f"  {key}: 1.0e+308")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    line = text.splitlines().index("experiment:") + 1
    assert f"experiment (line {line}): {key} 1e+308 overflows" in str(err.value)


def test_every_verify_key_is_read_and_forwarded_as_a_keyword():
    """The config reads exactly the keys some target forwards, and each
    forwarded key names a keyword parameter of the target's function, so no
    key is accepted and then ignored, or passed where it cannot land."""
    assert set(_SECTIONS["verify"]) == {key for keys in _VERIFY_KEYS.values() for key in keys}
    targets = {"axioms": run_axiom_suite, "end": verify_end,
               "extindep": verify_extended_independence}
    assert set(targets) == set(_VERIFY_KEYS)
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for target, keys in _VERIFY_KEYS.items():
        parameters = inspect.signature(targets[target]).parameters
        for key in keys:
            assert key in parameters and parameters[key].kind in keyword, (target, key)


_SHIPPED_CONFIGS = sorted([*CONFIG_DIR.glob("*.yaml"),
                           *(CONFIG_DIR.parent / "bench" / "configs").glob("*.yaml")])


def _golden_probe(name: str, workers: int, module: str) -> str:
    """Run golden case ``name`` at ``workers``; print whether its digests
    hold and whether ``module`` got loaded. Threads switch every
    microsecond, so pool threads interleave inside a first import."""
    return ("import pathlib, sys, test_golden as g\n"
            "sys.setswitchinterval(1e-6)\n"
            f"digests = g._artifact_digests({name!r}, pathlib.Path(sys.argv[1]), {workers})\n"
            f"print(digests == g.DIGESTS[{name!r}], {module!r} in sys.modules)")


# Each probe runs in a fresh interpreter and prints its findings as one line.
_PROBES = {
    # No config parse needs scipy.special, nor what its array-API layer imports.
    "parse_every_config": (
        "import sys, caplim.cli\n"
        "from caplim.config import parse_config\n"
        f"for path in {[str(p) for p in _SHIPPED_CONFIGS]!r}:\n"
        "    parse_config(path)\n"
        "print(*(m in sys.modules for m in ('scipy.special', 'numpy.testing', 'numpy.f2py')))",
        ["False", "False", "False"]),
    # caplim integrates with its own QUADPACK, so even the golden axiom
    # corpus, which takes 33 quadratures, runs without scipy.integrate.
    "axiom_quadratures": (_golden_probe("verify_axioms_quadrature", 1, "scipy.integrate"),
                          ["True", "False"]),
    # Four one-trajectory tasks on two pool threads, and on four, one task
    # each: every thread makes a first normal draw, so they ask for
    # scipy.special at once.
    **{f"concurrent_first_normal_draw_w{workers}": (
        _golden_probe("necessity_normal_multichunk", workers, "scipy.special"), ["True", "True"])
       for workers in (2, 4)},
    # verify end never loads scipy.special, and its manifest still records
    # scipy's version.
    "manifest_scipy_version": (
        "import json, pathlib, sys\n"
        "from caplim.cli import main\n"
        "out = pathlib.Path(sys.argv[1]) / 'run'\n"
        f"config = {str(CONFIG_DIR / 'end_countermonotone.yaml')!r}\n"
        "code = main(['verify', 'end', '--config', config, '--out', str(out)])\n"
        "import scipy\n"
        "manifest = json.loads((out / 'manifest.json').read_text())\n"
        "print(code, 'scipy.special' in sys.modules,\n"
        "      manifest['versions']['scipy'] == scipy.__version__)",
        ["0", "False", "True"]),
}


@pytest.mark.parametrize("name", sorted(_PROBES))
def test_a_fresh_interpreter_loads_only_the_scipy_it_uses(name, tmp_path):
    tests = Path(__file__).resolve().parent
    path = [str(Path(caplim.__file__).resolve().parents[1]), str(tests)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe, expected = _PROBES[name]
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.splitlines()[-1].split() == expected


def _set_the_second_choquet_value(monkeypatch, value):
    """From now on, the second ``SublinearEngine.choquet`` call reads ``value``."""
    original, calls = SublinearEngine.choquet, itertools.count(1)

    def choquet(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        return replace(report, value=value) if next(calls) == 2 else report

    monkeypatch.setattr(SublinearEngine, "choquet", choquet)


@pytest.mark.parametrize("value", [math.nan, -1.0], ids=["nan", "finite"])
def test_a_failing_axiom_reaches_the_suite_the_result_and_the_table(
        value, tmp_path, monkeypatch):
    """The second of three cases fails its Choquet domination. Its margin is
    the axiom's worst, a NaN one included, and the failure is counted in the
    suite, in ``result.json``, in the table and in the exit code."""
    _set_the_second_choquet_value(monkeypatch, value)
    suite = run_axiom_suite(n_cases=3, mc_every=0)
    worst = suite["by_axiom"]["choquet_moment"]
    assert (worst["failures"], suite["n_failures"], suite["passed"]) == (1, 1, False)
    if math.isnan(value):
        assert math.isnan(worst["worst_margin"])
    else:
        assert worst["worst_margin"] <= value

    path = tmp_path / "axioms.yaml"
    path.write_text(MINIMAL + "verify:\n  n_cases: 3\n  mc_every: 0\n")
    _set_the_second_choquet_value(monkeypatch, value)
    assert main(["verify", "axioms", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert result["n_failures"] == 1
    want = "nan" if math.isnan(value) else worst["worst_margin"]
    assert result["by_axiom"]["choquet_moment"] == {"worst_margin": want, "failures": 1}
    table = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert ["choquet_moment", format(worst["worst_margin"], ".6g"), "1"] in (
        line.split() for line in table)
    csv = (tmp_path / "out" / "axioms.csv").read_text().splitlines()
    assert f"choquet_moment,{worst['worst_margin']:.12g},1" in csv


def _comonotone_bernoulli_six(K: float) -> str:
    """Six Bernoulli(1/2) coordinates that are all 0 or all 1, with declared ``K``."""
    zeros, ones = ", ".join(["0.0"] * 6), ", ".join(["1.0"] * 6)
    return ("family:\n  name: bernoulli-half-six\n  parameters:\n  - name: p\n"
            "    domain: [0.5, 0.5]\n  marginals:\n" + "  - kind: bernoulli\n    p: p\n" * 6
            + f"  K: 1.0\ndependence:\n  mode: discrete_joint\n  K: {K}\n  joint_atoms:\n"
            f"  - point: [{zeros}]\n    prob: 0.5\n  - point: [{ones}]\n    prob: 0.5\n"
            "experiment:\n  horizon: 6\n  bound_order: 3\n")


@pytest.mark.parametrize("K, flags", [(1.0, 6), (2.0, 2), (32.0, 0)])
def test_the_bound_check_flags_a_table_whose_declared_K_is_too_small(K, flags, tmp_path):
    """The comonotone table's upper orthant probability is 0.5, 0.5 / 0.5**6
    = 32 times the product of its marginals, so the exponential bound holds
    only once K reaches that constant."""
    path = tmp_path / "comonotone.yaml"
    path.write_text(_comonotone_bernoulli_six(K))
    rc = main(["experiment", "bound-check", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == (2 if flags else 0)
    summary = json.loads((tmp_path / "out" / "result.json").read_text())["summary"]
    assert len(summary["flags"]) == flags
    if K == 1.0:
        x, name, emp, bound = summary["flags"][0]
        assert (name, emp) == ("exponential", 0.5)
        assert (x, bound) == pytest.approx((1.6259, 0.4808), abs=1e-4)
