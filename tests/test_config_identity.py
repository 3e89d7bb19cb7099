"""Pinned identity of every shipped config.

For each ``configs/*.yaml`` this pins the sha256 of the canonical YAML
text and, where the file names an experiment mode, the experiment's
``config_hash`` (the run name written into every ``result.json``). The
test only parses, so it is fast. A change to how sections are read, how
values are normalized or which fields enter the hash shows up here.

If a change alters either value on purpose, it says why and re-records
them with ``python tests/test_config_identity.py``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from caplim.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# file name -> (sha256 of canonical YAML, experiment config_hash or None)
IDENTITIES = {
    "bound_check_normal.yaml": (
        "f4f82dc2ad3eaf4e2b2f3c3ec4aa1c2251d5d578b6af11f795b59bcb2688cce1",
        "2a5506043b459092616fb5365507eec8046fb8fb39fa4120cfcc195c663e07a9",
    ),
    "bounds_chebyshev.yaml": (
        "41a3e203ed55b6ae01d575adc15f531c18e648ae7edbfc30ecf0ec754ab22b9a",
        None,
    ),
    "cluster_normal.yaml": (
        "dba82633473ca016133af3a882d97f6df97a8a76c02cb6a761a867540504ceac",
        "682feca3fd0f4a17110a59a8a1c7958554abda4f44599e38adaa90139916d591",
    ),
    "end_countermonotone.yaml": (
        "9040d8f914efd056762740cf27e004e6bb535b8237e35f2ca8dd18eff50bd45a",
        None,
    ),
    "lil_negative_copula.yaml": (
        "7ef08d7a4ac18826b6683772838baea3f787df2e05e6d95a4c383315f05e62f5",
        "fafbba5778a399be1c19959530a0ff94daf6edfc885ba0d0b5d1fefa3b48dce7",
    ),
    "lil_standard_normal.yaml": (
        "f25ffdd3e85a1fb420c957aed01ead94831573f850845b9864cc6af12ddd2953",
        "be7a69309b1e9646969d94c2e0438da787573232d16b865e39be41a38c86bf30",
    ),
    "necessity_normal.yaml": (
        "931ad85f284406192945a23bdc156d99742a1522eb38549c2c1577d9a9eb670d",
        "7af2e9427475928a33edcd5cf05d9e950193a16af848f85f2917272a6fb719be",
    ),
    "necessity_pareto.yaml": (
        "51d5d346ee4f47e65b5e9e15ce484784bd66bb0b10252a7becfed997f6c1f67f",
        "9108b87351edc72923be83a9b0c8c2a1572d2012a0241ca49a2bcd8b9c44eed0",
    ),
    "reciprocal_variance_pair.yaml": (
        "48dc8731eed497ee3a30c8bb8dfc7c2f61b7b846813c5a1a6026932d353f3dcb",
        None,
    ),
    "slln_normal_band.yaml": (
        "ee38d75d90f8d7be1e63f758191e02f107c0b5e119f160387fb5faf844741022",
        "710155a7e50b4e3efc6af4f61afe4a7e055fae5ea9371ca0397f65513c78b10c",
    ),
    "wlln_normal_band.yaml": (
        "91aba668f38403b75e2af0ba035dfafc3d78fbf9e8c60251842b8c17ef419cd6",
        "bceb51ac00dd6a303f32980eab6cf0fa034488ad7abdfe391f3ae9b7baf16154",
    ),
}


def _identity(path: Path) -> tuple:
    bundle = parse_config(str(path))
    canonical = hashlib.sha256(bundle.canonical_yaml().encode("utf-8")).hexdigest()
    if "mode" not in bundle.experiment_options:
        return canonical, None
    return canonical, bundle.experiment_config().config_hash()


def test_every_shipped_config_is_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.yaml")) == sorted(IDENTITIES)


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_config_identity_matches_pinned_values(name):
    assert _identity(CONFIG_DIR / name) == IDENTITIES[name]


if __name__ == "__main__":
    import pprint

    recorded = {p.name: _identity(p) for p in sorted(CONFIG_DIR.glob("*.yaml"))}
    pprint.pprint(recorded, stream=sys.stdout, width=100)
