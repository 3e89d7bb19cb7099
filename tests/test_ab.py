"""Smoke test of the paired timing script ``tools/ab.py``: its fields, not its timings."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BOUNDS_EVAL = ["bounds", "eval", "--config", "configs/bounds_chebyshev.yaml", "--seed", "2026"]


def _kernels() -> list[str]:
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return sorted(ab.KERNELS)


def _aa_report(*args: str) -> tuple[str, dict, dict]:
    """The header line, the ``name: value`` lines and the JSON line of a
    two-pair A/A run of ``tools/ab.py`` with ``args``. Two pairs' quartiles
    lie between their two ratios, so only their order is checked here."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--aa", "--pairs", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    fields = dict(line.split(": ", 1) for line in lines[1:-1])
    assert fields["pairs"] == "2"
    assert fields["same_results"] == "true"
    assert fields["wins"] in ("0 of 2", "1 of 2", "2 of 2")
    q1, q3 = map(float, fields["ratio_iqr"].split())
    assert q1 <= q3 and float(fields["ratio_median"]) > 0.0
    report = json.loads(lines[-1])
    assert report["mode"] == "A/A" and report["parent"] == "working tree"
    assert report["pairs"] == 2 and report["same_results"] is True
    assert set(report) >= {"ratio_median", "ratio_q1", "ratio_q3", "wins",
                           "parent_median_s", "change_median_s", "fresh"}
    return lines[0], fields, report


def test_an_aa_run_reports_every_field():
    header, fields, report = _aa_report("--", *BOUNDS_EVAL)
    assert header.startswith("A/A: caplim bounds eval --config configs/bounds_chebyshev.yaml")
    assert fields["fresh"] == "false" and report["fresh"] is False
    assert float(fields["ratio_iqr"].split()[0]) > 0.0


@pytest.mark.parametrize("kernel", _kernels())
def test_every_kernel_runs_as_an_aa_pair(kernel):
    header, fields, report = _aa_report("--kernel", kernel)
    assert header == f"A/A: kernel {kernel}, parent side working tree"
    assert report["call"] == f"kernel {kernel}" and report["fresh"] is False


def test_a_fresh_aa_run_times_whole_processes():
    header, fields, report = _aa_report("--fresh", "--", *BOUNDS_EVAL)
    assert header.startswith("A/A: caplim bounds eval --config configs/bounds_chebyshev.yaml")
    assert fields["fresh"] == "true" and report["fresh"] is True
    # a fresh process imports numpy and caplim, which no in-process call repeats
    assert report["parent_median_s"] > 0.05 and report["change_median_s"] > 0.05
