"""Pinned sha256 digests of experiment artifacts.

Each case runs one small experiment through the command line at
``--workers`` 1 and 2 and compares the digests of ``result.json`` and every
CSV it writes against values recorded before the sampling code was
refactored. A change to any sampled number, summary field or CSV cell shows
up here. The cases cover paths the benchmark's pinned configs do not reach:
Monte Carlo wlln, the pairwise copula in slln and bound-check, uneven
trajectory batches, uniform marginals, and scans that span several chunks.

If a change alters results on purpose, it says why and re-records the
digests with ``python tests/test_golden.py``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from caplim.cli import main

UNIFORM_FAMILY = """\
family:
  name: uniform-location
  parameters:
  - name: mu
    domain: [-0.2, 0.2]
  marginals:
  - kind: uniform
    lo: mu - 0.5
    hi: mu + 0.5
  K: 1.0
  resolution: 3
"""

NORMAL_FAMILY = """\
family:
  name: normal-location
  parameters:
  - name: mu
    domain: [-0.5, 0.5]
  marginals:
  - kind: normal
    mean: mu
    var: 1.0
  K: 1.0
  resolution: 5
"""

STANDARD_NORMAL = """\
family:
  name: standard-normal
  parameters:
  - name: mu
    domain: [0.0, 0.0]
  marginals:
  - kind: normal
    mean: mu
    var: 1.0
  K: 1.0
"""

UNIT_UNIFORM = """\
family:
  name: unit-uniform
  parameters:
  - name: c
    domain: [0.0, 0.0]
  marginals:
  - kind: uniform
    lo: c - 1.0
    hi: c + 1.0
  K: 1.0
"""

COPULA = """\
dependence:
  mode: gaussian_copula
  correlation: -0.4
  K: 1.0
"""

# name -> (experiment mode, config text)
CASES = {
    "wlln_mc_uniform": ("wlln", UNIFORM_FAMILY + """\
experiment:
  horizon: 6000
  trajectories: 1500
  epsilon: 0.05
  seed: 11
"""),
    "slln_copula_uniform": ("slln", UNIT_UNIFORM + COPULA + """\
experiment:
  horizon: 5001
  burn_in: 100
  trajectories: 20
  epsilon: 0.05
  seed: 12
"""),
    "slln_uneven_batches": ("slln", NORMAL_FAMILY + """\
experiment:
  horizon: 3000
  burn_in: 100
  trajectories: 70
  epsilon: 0.1
  seed: 13
"""),
    "lil_uniform_multichunk": ("lil", UNIFORM_FAMILY + """\
experiment:
  horizon: 300000
  burn_in: 100
  trajectories: 4
  checkpoint_growth: 1.1
  seed: 14
"""),
    "necessity_normal_multichunk": ("necessity", STANDARD_NORMAL + """\
experiment:
  horizon: 200000
  trajectories: 4
  divergence_threshold: 2.0
  seed: 15
"""),
    "bound_check_copula_normal": ("bound-check", STANDARD_NORMAL + COPULA + """\
experiment:
  horizon: 300
  trajectories: 40000
  x_grid_points: 6
  seed: 16
"""),
    "bound_check_uniform": ("bound-check", UNIFORM_FAMILY + """\
experiment:
  horizon: 200
  trajectories: 800
  x_grid_points: 6
  seed: 17
"""),
}

# name -> {artifact: sha256}
DIGESTS = {
    "bound_check_copula_normal": {
        "bound_check.csv": "d872cad1854209a34654c3d3bc7aa3ab92b73ce2f35d99ed4cd332f251a342e9",
        "result.json": "d92377e3f129fc13f28daf3a572072d2f3f42a9f6df137dfc7e79b65b1251be3",
    },
    "bound_check_uniform": {
        "bound_check.csv": "caebc83f6fff9f19a367704627120f9c5fffe4451f6dfc450328686670243388",
        "result.json": "f3a17dc48000d3f9e2db5822317f93d3486a173f6770adc708c1d5ef619a98a0",
    },
    "lil_uniform_multichunk": {
        "lil.csv": "662aae5cdea03ac1ed2f014c9a6d0549ceceda653f70e52d7f0259b9f39f1ed8",
        "result.json": "847241d76478e740d412ea6d580a09b3037af4855d36c7ce225e7ba2dfb0e5e0",
    },
    "necessity_normal_multichunk": {
        "necessity.csv": "6dc6cf46064c41ce53d30ce80b0747cc680bb095fac9eb3870354ce6eca32fe4",
        "result.json": "bb568b3638d4acd4410d3df5737f383e7aca55c52d00a499bd67657259de0319",
    },
    "slln_copula_uniform": {
        "result.json": "ea6efce25d1c0261750e173e5da2232d2dd9abd107dd36fd126c4505356c4f41",
        "slln.csv": "15f8e41909be1e9af6688ecd68079650e9eb9b40be0453f4a24f65e7741164dd",
    },
    "slln_uneven_batches": {
        "result.json": "84db2a4c2991d493b6ceb4465c7639e3dce661c069282e679e56cc3e468b5730",
        "slln.csv": "8551440bc76538e4821c33c717840c5ac14ba9393cd32eaa938622bbaeedd0f0",
    },
    "wlln_mc_uniform": {
        "result.json": "7b1ee3e2bdeed5c858d92449d9d3d8d59cb49eace6c1b171e42ad96e0c35d3a0",
        "wlln.csv": "92641faa70692a3b814a284cf3fb4f4a7a22074aef76b20a4a42b3aaaa0ea2fe",
    },
}


def _artifact_digests(name: str, out: Path, workers: int) -> dict:
    mode, text = CASES[name]
    config = out / f"{name}.yaml"
    config.write_text(text)
    run_dir = out / f"{name}-w{workers}"
    code = main(["experiment", mode, "--config", str(config),
                 "--workers", str(workers), "--out", str(run_dir)])
    assert code in (0, 2), f"{name} exited with {code}"
    files = [run_dir / "result.json", *sorted(run_dir.glob("*.csv"))]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_pinned_digests(name, workers, tmp_path):
    assert _artifact_digests(name, tmp_path, workers) == DIGESTS[name]


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: _artifact_digests(name, Path(tmp), 1) for name in sorted(CASES)}
    pprint.pprint(recorded, stream=sys.stdout, width=100)
