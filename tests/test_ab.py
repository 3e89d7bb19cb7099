"""Smoke test of the paired timing script ``tools/ab.py``: its fields, not its timings."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_an_aa_run_reports_every_field():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--aa", "--pairs", "2", "--",
         "bounds", "eval", "--config", "configs/bounds_chebyshev.yaml", "--seed", "2026"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    fields = dict(line.split(": ", 1) for line in lines[1:-1])
    assert lines[0].startswith("A/A: caplim bounds eval --config configs/bounds_chebyshev.yaml")
    assert fields["pairs"] == "2"
    assert fields["same_results"] == "true"
    assert fields["wins"] in ("0 of 2", "1 of 2", "2 of 2")
    q1, q3 = map(float, fields["ratio_iqr"].split())
    assert 0.0 < q1 <= q3 and float(fields["ratio_median"]) > 0.0
    report = json.loads(lines[-1])
    assert report["mode"] == "A/A" and report["parent"] == "working tree"
    assert report["pairs"] == 2 and report["same_results"] is True
    assert set(report) >= {"ratio_median", "ratio_q1", "ratio_q3", "wins",
                           "parent_median_s", "change_median_s"}
