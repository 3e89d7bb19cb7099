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
``by_axiom`` table), an axiom corpus whose Monte Carlo case integrates by
quadrature, the END check on the shipped countermonotone config, and the
Monte Carlo END and extended-independence checks under the pair and the
matrix copula, over families that list two marginals.

If a change alters results on purpose, it says why and re-records the
digests with ``python tests/test_golden.py``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from caplim import Marginal, limits, measures
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

NORMAL_UNIFORM_PAIR = """\
family:
  name: normal-uniform
  parameters:
  - name: mu
    domain: [0.0, 0.0]
  marginals:
  - kind: normal
    mean: mu
    var: 2.0
  - kind: uniform
    lo: mu - 1.0
    hi: mu + 2.0
  K: 1.0
"""

UNIFORM_PARETO_PAIR = """\
family:
  name: uniform-pareto
  parameters:
  - name: a
    domain: [3.0, 3.0]
  marginals:
  - kind: uniform
    lo: -1.0
    hi: 1.0
  - kind: pareto
    alpha: a
  K: 1.0
"""

DISCRETE_NORMAL_PAIR = """\
family:
  name: discrete-normal
  parameters:
  - name: mu
    domain: [0.5, 0.5]
  marginals:
  - kind: discrete
    atoms: [[0.0, 0.25], [1.0, 0.5], [3.0, 0.25]]
  - kind: normal
    mean: mu
    var: 1.0
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
    # At the default seed 2026, case 9 draws a one-coordinate continuous
    # family, so its exact envelopes take 33 quadrature calls; the cases of
    # verify_axioms_mc make none.
    "verify_axioms_quadrature": (("verify", "axioms"), STANDARD_NORMAL + """\
verify:
  n_cases: 10
  mc_every: 10
  mc_replications: 3000
"""),
    "verify_end_countermonotone": (("verify", "end"),
                                   (CONFIGS / "end_countermonotone.yaml").read_text()),
    # Monte Carlo END checks through the copula sampler. The family lists two
    # marginals, which repeat over the four paired coordinates.
    "verify_end_pair_copula": (("verify", "end"), NORMAL_UNIFORM_PAIR + """\
dependence:
  mode: gaussian_copula
  correlation: -0.5
  K: 1.0
verify:
  direction: upper
  corpus_cases: 4
  mc_replications: 20000
"""),
    # Three coordinates coupled by the Cholesky factor; coordinates 0 and 2
    # take the first listed marginal.
    "verify_end_matrix_copula": (("verify", "end"), UNIFORM_PARETO_PAIR + """\
dependence:
  mode: gaussian_copula
  correlation_matrix:
  - [1.0, -0.3, -0.2]
  - [-0.3, 1.0, -0.4]
  - [-0.2, -0.4, 1.0]
  K: 1.0
verify:
  direction: lower
  corpus_cases: 4
  mc_replications: 20000
"""),
    "verify_extindep_copula": (("verify", "extindep"), DISCRETE_NORMAL_PAIR + """\
dependence:
  mode: gaussian_copula
  correlation: -0.3
  K: 1.0
verify:
  corpus_cases: 4
  mc_replications: 20000
"""),
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
    "verify_axioms_quadrature": {
        "axioms.csv": "a87b6fa1fc7fdf2d43f0036851968bf99bdb2380b1f0b893cae960e295fdd169",
        "result.json": "f3d0ff943a955e7d2195d1e9a4186368302767c203fbae44781af9b93ea6b65b",
    },
    "verify_end_countermonotone": {
        "cases.csv": "7c070f5e1b15fb688a87cbe73826ddec475d2038bb5d5931fb69ddf76d22b357",
        "result.json": "8c248b009f5493d7a5d768c76ef69cd28c339705af81cc9a8b6087e87e161c12",
    },
    "verify_end_matrix_copula": {
        "cases.csv": "b30eba628d7fbd5053efdd1281b76651cdae6307317c77f32be7433872580a29",
        "result.json": "4948ae70d9d2ba6e67a8a91633e81a119e17b2219efc1d01b2c3ddf77b5854ca",
    },
    "verify_end_pair_copula": {
        "cases.csv": "33f42826244d7c0cc18cc46581c5a84ff9e4f260d86f9edd8f8dac57a88310ee",
        "result.json": "9636a4c99050a8b2dd9a5d387e494d5c782f4296295cd98c634ee0dfdc23b7cc",
    },
    "verify_extindep_copula": {
        "cases.csv": "880a6f0c1d4764df30840c2d7e89ef47bc2f0eedad8cf5dd2d752ec1d4ff475c",
        "result.json": "9614de9242eda1f8bb90237e32dd8c1c01007926e3821b7c56e748a10be0ebf9",
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
# trajectories per task only schedule. Width 3 splits the 4-trajectory scans;
# at two workers, the width is at most half the trajectories.
@pytest.mark.parametrize("width", [3, 7, 32, 64])
@pytest.mark.parametrize("name", ["slln_copula_uniform", "slln_uneven_batches",
                                  "lil_uniform_multichunk", "necessity_normal_multichunk"])
def test_batch_width_moves_no_bytes(name, width, tmp_path, monkeypatch):
    monkeypatch.setattr(limits, "_TRAJ_BATCH", width)
    assert _artifact_digests(name, tmp_path, 2) == DIGESTS[name]


# Every Monte Carlo case at tiles far below its chunks and at one of 2**22
# entries, which holds a whole chunk or more. A tile of 1100 entries is 550
# draws of a 2-trajectory task, 110 of a 10-trajectory one and 30 (the numpy
# cipher) of a 35-trajectory one, each 2 mod 4 so every other tile starts
# mid-counter; bound-check and Monte Carlo wlln horizons longer than a tile
# are drawn 1100 draws at a time and summed in pieces cut at the chunk edges.
# The cluster sampler splits each of its 2**22-draw chunks where numpy's
# pairwise sum does until a part fits in the tile, so at 1100 entries its
# blocks are drawn in parts of at most 1100 draws and at 2**22 in whole
# chunks, and both add the part sums back up numpy's tree. The 50 x 1e6
# shipped necessity scan took about 40 s at a tile of 1000 entries, so it
# runs at 51 050: 2042 draws of a 25-trajectory task, also 2 mod 4 and not a
# divisor of the 131 072-draw chunks.
MONTE_CARLO = ("wlln_mc_uniform", "slln_copula_uniform", "slln_uneven_batches",
               "lil_uniform_multichunk", "necessity_normal_multichunk",
               "bound_check_copula_normal", "bound_check_uniform",
               "bound_check_copula_wide_chunks", "cluster_two_chunk_blocks")
TILE_CASES = [(name, tile) for name in MONTE_CARLO for tile in (1100, 1 << 22)] + [
    ("necessity_normal_config", 51_050), ("necessity_normal_config", 1 << 22)]


@pytest.mark.parametrize("name,tile", TILE_CASES)
def test_tile_size_moves_no_bytes(name, tile, tmp_path, monkeypatch):
    monkeypatch.setattr(limits, "_TILE", tile)
    assert _artifact_digests(name, tmp_path, 2) == DIGESTS[name]


# Every quadrature of the corpus cases goes through the package's QUADPACK
# port; the digests above pin the values it gives.
@pytest.mark.parametrize("name", ["verify_axioms_mc", "verify_axioms_quadrature"])
def test_quadrature_goes_through_the_port(name, tmp_path, monkeypatch):
    continuous = []
    expect, port = Marginal.expect, measures.quad

    def recording(self, f, *args, **kwargs):
        if not self.is_discrete:
            continuous.append(0)
        return expect(self, f, *args, **kwargs)

    def counting(*args, **kwargs):
        continuous[-1] += 1
        return port(*args, **kwargs)

    monkeypatch.setattr(Marginal, "expect", recording)
    monkeypatch.setattr(measures, "quad", counting)
    assert _artifact_digests(name, tmp_path, 1) == DIGESTS[name]
    assert all(continuous)
    assert len(continuous) == (33 if name == "verify_axioms_quadrature" else 0)


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: _artifact_digests(name, Path(tmp), 1) for name in sorted(CASES)}
    pprint.pprint(recorded, stream=sys.stdout, width=100)
