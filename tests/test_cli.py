"""Config file round trips and the command-line entry point."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import caplim
from caplim.bounds import BoundInputs, moricz_maximal_bound, moricz_maximal_bound_text_form
from caplim.cli import main
from caplim.config import ConfigError, parse_config, parse_config_text

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

    def test_engine_tolerance_is_rejected_with_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "engine:\n  tolerance: 1.0e-9\n")
        assert "unknown key 'tolerance'" in str(err.value)
        assert "line 12" in str(err.value)


class TestCommandLine:
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


def test_importing_the_cli_leaves_quadrature_unloaded():
    """Only quadrature needs scipy.integrate, so commands without it skip its import."""
    env = dict(os.environ, PYTHONPATH=str(Path(caplim.__file__).resolve().parents[1]))
    probe = "import sys, caplim.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
