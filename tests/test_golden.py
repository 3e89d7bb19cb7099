"""Pinned sha256 digests of experiment artifacts.

Each case runs one small experiment or verification through the command
line at ``--workers`` 1 and 2 and compares the digests of ``result.json`` and
every CSV it writes against values recorded before the sampling code was
refactored. A change to any sampled number, summary field or CSV cell shows
up here. The cases cover paths the benchmark's pinned configs do not reach:
Monte Carlo and closed-form wlln, cluster blocks that span several draw
chunks, the pairwise copula in slln and bound-check, uneven
trajectory batches, uniform marginals, scans that span several chunks,
copula pairs across chunk edges that start mid-counter, the shipped
``necessity_normal`` config, an axiom corpus whose Monte Carlo case draws wide uniform blocks (and its
``by_axiom`` table), and the END check on the shipped countermonotone config.

If a change alters results on purpose, it says why and re-records the
digests with ``python tests/test_golden.py``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from caplim import limits
from caplim.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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

# name -> (command words, config text)
CASES = {
    "wlln_mc_uniform": (("experiment", "wlln"), UNIFORM_FAMILY + """\
experiment:
  horizon: 6000
  trajectories: 1500
  epsilon: 0.05
  seed: 11
"""),
    "slln_copula_uniform": (("experiment", "slln"), UNIT_UNIFORM + COPULA + """\
experiment:
  horizon: 5001
  burn_in: 100
  trajectories: 20
  epsilon: 0.05
  seed: 12
"""),
    "slln_uneven_batches": (("experiment", "slln"), NORMAL_FAMILY + """\
experiment:
  horizon: 3000
  burn_in: 100
  trajectories: 70
  epsilon: 0.1
  seed: 13
"""),
    "lil_uniform_multichunk": (("experiment", "lil"), UNIFORM_FAMILY + """\
experiment:
  horizon: 300000
  burn_in: 100
  trajectories: 4
  checkpoint_growth: 1.1
  seed: 14
"""),
    "necessity_normal_multichunk": (("experiment", "necessity"), STANDARD_NORMAL + """\
experiment:
  horizon: 200000
  trajectories: 4
  divergence_threshold: 2.0
  seed: 15
"""),
    "bound_check_copula_normal": (("experiment", "bound-check"), STANDARD_NORMAL + COPULA + """\
experiment:
  horizon: 300
  trajectories: 40000
  x_grid_points: 6
  seed: 16
"""),
    "bound_check_uniform": (("experiment", "bound-check"), UNIFORM_FAMILY + """\
experiment:
  horizon: 200
  trajectories: 800
  x_grid_points: 6
  seed: 17
"""),
    # 6000 trajectories give chunks of 1398 rows, which is 2 mod 4, so tall
    # chunks start mid-counter and copula pairs straddle chunk edges.
    "bound_check_copula_wide_chunks": (("experiment", "bound-check"),
                                       STANDARD_NORMAL + COPULA + """\
experiment:
  horizon: 3000
  trajectories: 6000
  x_grid_points: 6
  seed: 18
"""),
    # Never advancing keeps the sampler drawing to the horizon. The first two
    # blocks, of 4 500 001 and 4 500 002 draws, each span two 2**22-draw
    # chunks, and the later blocks start mid-counter.
    "cluster_two_chunk_blocks": (("experiment", "cluster"), NORMAL_FAMILY + """\
experiment:
  horizon: 10000000
  block_start: 4500001
  block_growth: 2.0
  cluster_grid_step: 0.25
  cluster_advance_tolerance: 1.0e-9
  seed: 20
"""),
    # Normal marginals take the closed-form band probabilities.
    "wlln_exact_normal": (("experiment", "wlln"), NORMAL_FAMILY + """\
experiment:
  horizon: 50000
  epsilon: 0.02
  seed: 21
"""),
    # The full-size normal scan of the shipped config: 50 trajectories of 1e6.
    "necessity_normal_config": (("experiment", "necessity"),
                                (CONFIGS / "necessity_normal.yaml").read_text()),
    # Case 9 of this corpus is its Monte Carlo case; at seed 2 it draws a
    # three-coordinate family, so its envelopes sample 3 x 3000 blocks. The
    # suite draws its own families; the config needs one only to parse.
    "verify_axioms_mc": (("verify", "axioms", "--seed", "2"), STANDARD_NORMAL + """\
verify:
  n_cases: 10
  mc_every: 10
  mc_replications: 3000
"""),
    "verify_end_countermonotone": (("verify", "end"),
                                   (CONFIGS / "end_countermonotone.yaml").read_text()),
}

# name -> {artifact: sha256}
DIGESTS = {
    "bound_check_copula_normal": {
        "bound_check.csv": "d872cad1854209a34654c3d3bc7aa3ab92b73ce2f35d99ed4cd332f251a342e9",
        "result.json": "d92377e3f129fc13f28daf3a572072d2f3f42a9f6df137dfc7e79b65b1251be3",
    },
    "bound_check_copula_wide_chunks": {
        "bound_check.csv": "4d87a42bd237e1d188a8444f1947848e8847c3c7a35b081c55eb2620d6633065",
        "result.json": "32d8cac2c2a7043a12628c34717771758853a11bbec28456d4526162b3a6e6ec",
    },
    "bound_check_uniform": {
        "bound_check.csv": "caebc83f6fff9f19a367704627120f9c5fffe4451f6dfc450328686670243388",
        "result.json": "f3a17dc48000d3f9e2db5822317f93d3486a173f6770adc708c1d5ef619a98a0",
    },
    "cluster_two_chunk_blocks": {
        "cluster.csv": "a39e1aa27b53559987fc5633a118930e459d744307b1c5c70b8c6984ee113f1f",
        "result.json": "4ecbffcafd8bd38bcdfe2c0c8d1a2ff18d7e10fb09488f7d7799c478be165269",
    },
    "lil_uniform_multichunk": {
        "lil.csv": "662aae5cdea03ac1ed2f014c9a6d0549ceceda653f70e52d7f0259b9f39f1ed8",
        "result.json": "847241d76478e740d412ea6d580a09b3037af4855d36c7ce225e7ba2dfb0e5e0",
    },
    "necessity_normal_config": {
        "necessity.csv": "9a5a9ca8186526704742b14b05164ce9494866aa855d4e282f51d49683265bff",
        "result.json": "1d52797ba4180f9495c30a1316e0f32528965ece5ca536f828babbc4f636079a",
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
    "verify_axioms_mc": {
        "axioms.csv": "f8382c8a5de3254bd9215cdc42e81c4a80ff6f3bf03a20e520eed7cf694d8444",
        "result.json": "92814c73e95f9c3a5eb5d29dd500a94a769329f2b14a60e733c3adce664628a1",
    },
    "verify_end_countermonotone": {
        "cases.csv": "7c070f5e1b15fb688a87cbe73826ddec475d2038bb5d5931fb69ddf76d22b357",
        "result.json": "8c248b009f5493d7a5d768c76ef69cd28c339705af81cc9a8b6087e87e161c12",
    },
    "wlln_exact_normal": {
        "result.json": "66d972a5461193fcaf6fd296cd8df4ccc305e0b33ebfc9b7ee832c84809f2364",
        "wlln.csv": "4900cea5e4c848a572666dd87713c769f8a8af32d5bdf0070c0e2f1e06383485",
    },
    "wlln_mc_uniform": {
        "result.json": "7b1ee3e2bdeed5c858d92449d9d3d8d59cb49eace6c1b171e42ad96e0c35d3a0",
        "wlln.csv": "92641faa70692a3b814a284cf3fb4f4a7a22074aef76b20a4a42b3aaaa0ea2fe",
    },
}


def _artifact_digests(name: str, out: Path, workers: int) -> dict:
    command, text = CASES[name]
    config = out / f"{name}.yaml"
    config.write_text(text)
    run_dir = out / f"{name}-w{workers}"
    code = main([*command, "--config", str(config),
                 "--workers", str(workers), "--out", str(run_dir)])
    assert code in (0, 2), f"{name} exited with {code}"
    files = [run_dir / "result.json", *sorted(run_dir.glob("*.csv"))]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_pinned_digests(name, workers, tmp_path):
    assert _artifact_digests(name, tmp_path, workers) == DIGESTS[name]


# Up to 64 trajectories, a scan chunk keeps its full row count, so the
# trajectories per task only schedule. Width 3 splits the 4-trajectory scans.
@pytest.mark.parametrize("width", [3, 7, 32, 64])
@pytest.mark.parametrize("name", ["slln_copula_uniform", "slln_uneven_batches",
                                  "lil_uniform_multichunk", "necessity_normal_multichunk"])
def test_batch_width_moves_no_bytes(name, width, tmp_path, monkeypatch):
    monkeypatch.setattr(limits, "_TRAJ_BATCH", width)
    assert _artifact_digests(name, tmp_path, 2) == DIGESTS[name]


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: _artifact_digests(name, Path(tmp), 1) for name in sorted(CASES)}
    pprint.pprint(recorded, stream=sys.stdout, width=100)
