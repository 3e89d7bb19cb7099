"""Pinned sha256 digests of experiment artifacts.

Each case runs one small experiment or verification through the command
line at ``--workers`` 1 and 2 and compares the digests of ``result.json`` and
every CSV it writes against values recorded before the sampling code was
refactored. A change to any sampled number, summary field or CSV cell shows
up here. The cases cover paths the benchmark's pinned configs do not reach:
Monte Carlo and closed-form wlln, cluster blocks that span several draw
chunks, the pairwise copula in slln and bound-check, uneven groups of
trajectories, uniform marginals, scans that span several chunks,
copula pairs across chunk edges that start mid-counter, the shipped
``necessity_normal`` config, an axiom corpus whose Monte Carlo case draws wide uniform blocks (and its
``by_axiom`` table), an axiom corpus whose Monte Carlo case integrates by
quadrature, the END check and the exact bound-check on the shipped
countermonotone config, the Monte Carlo END and extended-independence checks
under the pair and the matrix copula, over families that list two marginals, and over a
nine-point Pareto grid, the Monte Carlo cross-check of a joint table, and both verifiers'
exact paths: quadrature over an independent family (END in the lower
direction) and enumeration of the countermonotone table in the
extended-independence check.

The CSVs keep 12 significant digits, so the bound-check is also pinned by
the sha256 of the full-precision ``repr`` of its table and summary.

If a change alters results on purpose, it says why and re-records the
digests with ``python tests/test_golden.py``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from caplim import Marginal, limits, measures
from caplim.cli import main
from caplim.config import parse_config_text

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

# Two continuous marginals over a three-point location grid, independent
# under each measure, so every case takes the exact quadrature path.
NORMAL_UNIFORM_LOCATION = """\
family:
  name: normal-uniform-location
  parameters:
  - name: mu
    domain: [-0.3, 0.3]
  marginals:
  - kind: normal
    mean: mu
    var: 1.5
  - kind: uniform
    lo: mu - 1.0
    hi: mu + 1.0
  K: 1.0
  resolution: 3
"""

# A nine-point shape grid of Pareto laws. No corpus function has an exact
# Pareto path, so both verifiers estimate every case by Monte Carlo, with
# every grid measure reading the same uniforms.
PARETO_SHAPE = """\
family:
  name: pareto-shape
  parameters:
  - name: a
    domain: [2.5, 4.0]
  marginals:
  - kind: pareto
    alpha: a
  K: 1.0
  resolution: 9
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
    # The shipped joint table, enumerated exactly by the bound-check.
    "bound_check_countermonotone": (("experiment", "bound-check"),
                                    (CONFIGS / "end_countermonotone.yaml").read_text()
                                    + "experiment:\n  horizon: 2\n  x_grid_points: 6\n"),
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
    # Exact paths: quadrature over the independent family, in both
    # verifiers and in the lower direction, and enumeration of the shipped
    # joint table in the extended-independence check.
    "verify_extindep_quadrature": (("verify", "extindep"), NORMAL_UNIFORM_LOCATION + """\
verify:
  corpus_cases: 4
"""),
    "verify_end_lower_quadrature": (("verify", "end"), NORMAL_UNIFORM_LOCATION + """\
verify:
  direction: lower
  corpus_cases: 4
"""),
    "verify_extindep_countermonotone": (
        ("verify", "extindep"),
        (CONFIGS / "end_countermonotone.yaml").read_text().replace("corpus_cases: 24",
                                                                   "corpus_cases: 4")),
    "verify_extindep_copula": (("verify", "extindep"), DISCRETE_NORMAL_PAIR + """\
dependence:
  mode: gaussian_copula
  correlation: -0.3
  K: 1.0
verify:
  corpus_cases: 4
  mc_replications: 20000
"""),
    # The corpus box reaches the 1 - 1e-9 quantile of the heaviest Pareto
    # law, near 4000, so most corpus functions vanish on every sample; at
    # these seeds one case of each check is nonzero.
    "verify_end_pareto_grid": (("verify", "end", "--seed", "7"), PARETO_SHAPE + """\
verify:
  corpus_cases: 2
  mc_replications: 4000
"""),
    "verify_extindep_pareto_grid": (("verify", "extindep", "--seed", "8"), PARETO_SHAPE + """\
verify:
  corpus_cases: 2
  mc_replications: 4000
"""),
    # The Monte Carlo cross-check of the shipped joint table.
    "verify_end_countermonotone_cross_check": (
        ("verify", "end"),
        (CONFIGS / "end_countermonotone.yaml").read_text().replace(
            "corpus_cases: 24", "corpus_cases: 2\n  mc_cross_check: true\n"
            "  mc_replications: 4000")),
}

# name -> {artifact: sha256}
DIGESTS = {
    "bound_check_countermonotone": {
        "bound_check.csv": "a504e034a056c1d43357d21271abd98a0c7af287f8d24dfa019e493818e17057",
        "result.json": "c8d60467f23ca62a50574fd3ecf200002d9ccd35bd3549bcb60e6ed284989869",
    },
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
    "verify_end_countermonotone_cross_check": {
        "cases.csv": "fe9a37d08defd0c8f40e2ca1bc6a22e24c075f644446ebf9687c01798a41cb58",
        "result.json": "c9a7f3ea0854df4e9916a72bff82d8766ee8757231620adf876b54d4dbf89487",
    },
    "verify_end_lower_quadrature": {
        "cases.csv": "4382bd2e6fa237ae22383443db95b5d26b63e9e32569d9a84d1c59c3f9dbdebf",
        "result.json": "c10546bf7aff1c34f88f7693e81369ac43314eff13d34d2b75174b3dbd7ca8d8",
    },
    "verify_end_matrix_copula": {
        "cases.csv": "b30eba628d7fbd5053efdd1281b76651cdae6307317c77f32be7433872580a29",
        "result.json": "4948ae70d9d2ba6e67a8a91633e81a119e17b2219efc1d01b2c3ddf77b5854ca",
    },
    "verify_end_pair_copula": {
        "cases.csv": "33f42826244d7c0cc18cc46581c5a84ff9e4f260d86f9edd8f8dac57a88310ee",
        "result.json": "9636a4c99050a8b2dd9a5d387e494d5c782f4296295cd98c634ee0dfdc23b7cc",
    },
    "verify_end_pareto_grid": {
        "cases.csv": "73901fe5e9c7fc54532d3cc4ffdbb228583aec41e746b12fd2613b8f738cb270",
        "result.json": "244b1c40c8825565a7f23f3a5b5d86ca0e107ce812da72115789b8f98bd37f6c",
    },
    "verify_extindep_copula": {
        "cases.csv": "880a6f0c1d4764df30840c2d7e89ef47bc2f0eedad8cf5dd2d752ec1d4ff475c",
        "result.json": "9614de9242eda1f8bb90237e32dd8c1c01007926e3821b7c56e748a10be0ebf9",
    },
    "verify_extindep_countermonotone": {
        "cases.csv": "f34e69108496977547ccaa2eae0d645738c2150948720266546c04e7841e909f",
        "result.json": "92ef0e108fe92b9cd6429710e92072d0fd3d4b2fc4e7733f72c684bbba9d02f9",
    },
    "verify_extindep_pareto_grid": {
        "cases.csv": "b51eb5ac5f26fb2219ab370dc88f477b72e0f3a2866dd9dab4e8653aa71456a8",
        "result.json": "caafcd34488ba2354efecea78316cdc83a2f892cece0f3fdb7e7ec4e16869005",
    },
    "verify_extindep_quadrature": {
        "cases.csv": "017d7a2406ff12606aba4c30d24649b274522a0c0f252b21c6c93850c923ab6f",
        "result.json": "85cffc94c69126b8e0eef71e2352c25eaee8fbc65365c6aa6b34717fd5b8389c",
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


# A scan task is one group of max(1, _TILE // horizon) trajectories, and its
# chunks stay at _ROW_CHUNK draws, so the grouping only schedules. A tile of
# 1, 2, 3 or 7 horizons gives groups of that many trajectories. Groups of 3
# end unevenly on 20, 70 and 4 trajectories, groups of 7 on 20; the
# 4-trajectory lil and necessity scans run as one group of 4 at 7.
@pytest.mark.parametrize("group", [1, 2, 3, 7])
@pytest.mark.parametrize("name", ["slln_copula_uniform", "slln_uneven_batches",
                                  "lil_uniform_multichunk", "necessity_normal_multichunk"])
def test_task_group_moves_no_bytes(name, group, tmp_path, monkeypatch):
    horizon = parse_config_text(CASES[name][1]).experiment_options["horizon"]
    monkeypatch.setattr(limits, "_TILE", group * horizon)
    assert _artifact_digests(name, tmp_path, 2) == DIGESTS[name]


# Every Monte Carlo case at tiles far below its chunks and at one of 2**22
# entries, which holds a whole chunk or more. A tile of 1102 entries is 1102
# draws of a one-trajectory task (every horizon here of 1000 draws or more),
# 366 of a 3-trajectory bound-check group, 220 of a 5-trajectory one and 100
# of an 11-trajectory wlln group; 1102 and 366 are 2 mod 4, so every other
# tile starts mid-counter. Horizons longer than a tile are drawn 1102 draws
# at a time and summed in pieces cut at the chunk edges. The cluster sampler
# splits each of its 2**22-draw chunks where numpy's pairwise sum does until
# a part fits in the tile, so at 1102 entries its blocks are drawn in parts
# of at most 1102 draws and at 2**22 in whole chunks, and both add the part
# sums back up numpy's tree. The 50 x 1e6 shipped necessity scan took about
# 40 s at a tile of 1000 entries, so it runs at 51 050, also 2 mod 4 and not
# a divisor of the 131 072-draw chunks.
MONTE_CARLO = ("wlln_mc_uniform", "slln_copula_uniform", "slln_uneven_batches",
               "lil_uniform_multichunk", "necessity_normal_multichunk",
               "bound_check_copula_normal", "bound_check_uniform",
               "bound_check_copula_wide_chunks", "cluster_two_chunk_blocks")
TILE_CASES = [(name, tile) for name in MONTE_CARLO for tile in (1102, 1 << 22)] + [
    ("necessity_normal_config", 51_050), ("necessity_normal_config", 1 << 22)]


@pytest.mark.parametrize("name,tile", TILE_CASES)
def test_tile_size_moves_no_bytes(name, tile, tmp_path, monkeypatch):
    monkeypatch.setattr(limits, "_TILE", tile)
    assert _artifact_digests(name, tmp_path, 2) == DIGESTS[name]


# The CSVs round to 12 significant digits, so they cannot see a bound that
# moves by one ulp; these pin the full-precision repr of the bound-check's
# header, rows and summary instead.
BOUND_CHECK_CASES = {
    "normal_config": (CONFIGS / "bound_check_normal.yaml").read_text().replace(
        "trajectories: 10000", "trajectories: 300"),
    "uniform_order_4": UNIFORM_FAMILY + """\
experiment:
  mode: bound_check
  horizon: 200
  trajectories: 800
  bound_order: 4
  x_grid_points: 6
  seed: 22
""",
    "copula_normal_k": STANDARD_NORMAL + COPULA.replace("K: 1.0", "K: 1.3") + """\
experiment:
  mode: bound_check
  horizon: 300
  trajectories: 2000
  x_grid_points: 6
  seed: 23
""",
    "countermonotone_table": (CONFIGS / "end_countermonotone.yaml").read_text()
    + "experiment:\n  mode: bound_check\n  horizon: 2\n",
}

BOUND_CHECK_REPRS = {
    "copula_normal_k":
        "0b7775eda17795ab3b48fc6db379ed8a5e781a66059c140fc4f6e4832e372148",
    "countermonotone_table":
        "f5b571604a9879621b5fd0123bd6c27f4e3221f4a05e31358784cdab25aaf258",
    "normal_config":
        "d0926443691b313f38a51d018af5a1cb7ee8fd53063712e1ba9531b4226fdf6d",
    "uniform_order_4":
        "cb45265eb6de81efc22531ee17dd769391111e33e9dcc6a8524fccd7b7e4ba97",
}


def _bound_check_repr_digest(name: str) -> str:
    config = parse_config_text(BOUND_CHECK_CASES[name]).experiment_config()
    result = limits.run_bound_check(config)
    header, rows = result.tables["bound_check"]
    text = repr((header, rows, result.summary))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(BOUND_CHECK_CASES))
def test_bound_check_full_precision_is_pinned(name):
    assert _bound_check_repr_digest(name) == BOUND_CHECK_REPRS[name]


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
    pprint.pprint({name: _bound_check_repr_digest(name) for name in sorted(BOUND_CHECK_CASES)},
                  stream=sys.stdout, width=100)
