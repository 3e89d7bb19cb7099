"""Record the reference exit codes and artifact digests in references.json.

    python3 bench/record.py

Runs every command of every workload once per corpus seed (once in all
for a command with a pinned seed) and writes ``bench/references.json``.
Only a change that alters results on purpose should re-record them.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, _digests, _import_caplim
from workloads import BASE_SEED, SEED_COUNT, WORKLOADS


def main() -> int:
    caplim, _ = _import_caplim()
    references = {}
    scratch = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        for workload in WORKLOADS.values():
            for cmd in workload.commands:
                seeds = ([cmd.pinned_seed] if cmd.pinned_seed is not None
                         else range(BASE_SEED, BASE_SEED + SEED_COUNT))
                for seed in seeds:
                    out = scratch / f"{cmd.name}-{seed}"
                    code = caplim.cli.main([*cmd.argv, "--seed", str(seed), "--workers",
                                            str(workload.workers), "--out", str(out)])
                    references.setdefault(cmd.name, {})[str(seed)] = {
                        "exit": code, "files": _digests(out)}
                    print(f"{cmd.name} seed {seed}: exit {code}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    text = json.dumps(references, indent=1, sort_keys=True) + "\n"
    (BENCH / "references.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
