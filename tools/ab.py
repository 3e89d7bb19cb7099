"""Paired timing of one ``caplim`` call, parent commit against working tree.

Run from the root of a checkout::

    python3 tools/ab.py --pairs 20 -- verify axioms --config bench/configs/axiom_corpus.yaml --seed 2026
    python3 tools/ab.py --aa --pairs 20 -- bounds eval --config configs/bounds_chebyshev.yaml
    python3 tools/ab.py --parent HEAD~1 --kernel axioms --pairs 20

Both sides run in this one process. The parent side is ``src/caplim`` at
``--parent`` (default ``HEAD``), extracted with ``git archive`` into a
temporary directory and imported as the package ``caplim_parent``; the
change side is the working tree's ``src/caplim``. With ``--aa`` the parent
side is a copy of the working tree's package instead, so the spread of the
ratios shows the noise of the measurement itself. Every caplim module
imports its siblings relatively, so the renamed copy imports on its own,
with its own module-level state.

A call is one whole ``cli.main`` command (the arguments after ``--``, with
``--out`` in a temporary directory and standard output discarded) or one
named kernel (``--kernel``). After one untimed call per side, each pair
calls both sides once, the parent first in even pairs and the change first
in odd ones. A call's time is the CPU time of the process over the call,
all threads; a pair's ratio is the change's time over the parent's.

The report gives the median of the ratios and their quartiles (Python's
``statistics.quantiles``, exclusive method), the number of pairs in which
the change took less time, each side's median time, and whether both sides
gave the same result on every call: the exit code and the sha256 of
``result.json`` and each CSV for a command, the bytes or ``repr`` of the
value for a kernel. The last line of standard output holds the same as one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT_PACKAGE = "caplim_parent"


def _axioms(pkg):
    """A small exact axiom corpus: enumeration and quadrature envelopes."""
    return lambda: pkg.sublinear.run_axiom_suite(n_cases=12, seed=2026, mc_every=0)


def _ppf(pkg):
    """A normal ``ppf`` on one 64 x 4096 tile of Philox uniforms."""
    tile = pkg.measures.uniform_block(2026, 64, 4096)
    normal = pkg.measures.Marginal.normal(0.3, 2.0)
    return lambda: normal.ppf(tile)


KERNELS = {"axioms": _axioms, "ppf": _ppf}


def _import(name: str):
    """The package ``name`` with its ``cli``, which imports every other module."""
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]


def _load(name: str, source: Path, home: Path):
    """Import the package directory ``source``, copied under ``home``, as ``name``."""
    shutil.copytree(source, home / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(home))
    try:
        return _import(name)
    finally:
        sys.path.remove(str(home))


def _parent_source(rev: str, into: Path) -> Path:
    """``src/caplim`` at the commit ``rev``, extracted under ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/caplim"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return into / "src" / "caplim"


def _command(pkg, argv: list[str], scratch: Path):
    """A call of ``pkg.cli.main(argv)``; returns its exit code and artifact digests."""

    def call():
        out = Path(tempfile.mkdtemp(dir=scratch))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = pkg.cli.main([*argv, "--out", str(out)])
            return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(out.iterdir())
                          if p.name == "result.json" or p.suffix == ".csv"}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return call


def _fingerprint(value) -> str:
    data = value.tobytes() if hasattr(value, "tobytes") else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def _timed(call) -> tuple[float, object]:
    c0 = time.process_time()
    result = call()
    return time.process_time() - c0, result


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def run(pairs: int, parent_call, change_call, compare) -> dict:
    """Alternate ``pairs`` timed calls of each side after one untimed call each."""
    same = compare(parent_call()) == compare(change_call())
    times = {"parent": [], "change": []}
    for i in range(pairs):
        order = (("parent", parent_call), ("change", change_call))
        results = {}
        for side, call in order if i % 2 == 0 else order[::-1]:
            seconds, results[side] = _timed(call)
            times[side].append(seconds)
        same = same and compare(results["parent"]) == compare(results["change"])
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, q3 = _quartiles(ratios)
    return {
        "pairs": pairs,
        "ratio_median": statistics.median(ratios),
        "ratio_q1": q1,
        "ratio_q3": q3,
        "wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
        "parent_median_s": statistics.median(times["parent"]),
        "change_median_s": statistics.median(times["change"]),
        "same_results": same,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = []
    if "--" in argv:
        at = argv.index("--")
        argv, command = argv[:at], argv[at + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit of the parent side")
    parser.add_argument("--aa", action="store_true",
                        help="put a copy of the working tree on the parent side")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--kernel", choices=sorted(KERNELS))
    args = parser.parse_args(argv)
    if (args.kernel is None) == (not command):
        parser.error("give either --kernel or a caplim command after --")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        sys.path.insert(0, str(ROOT / "src"))
        change = _import("caplim")
        source = (ROOT / "src" / "caplim" if args.aa
                  else _parent_source(args.parent, scratch / "archive"))
        parent = _load(PARENT_PACKAGE, source, scratch)
        if args.kernel is not None:
            calls = [KERNELS[args.kernel](pkg) for pkg in (parent, change)]
            compare, what = _fingerprint, f"kernel {args.kernel}"
        else:
            calls = [_command(pkg, command, scratch) for pkg in (parent, change)]
            compare, what = (lambda result: result), "caplim " + " ".join(command)
        report = {
            "mode": "A/A" if args.aa else "A/B",
            "parent": "working tree" if args.aa else args.parent,
            "call": what,
            **run(args.pairs, *calls, compare),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{report['mode']}: {report['call']}, parent side {report['parent']}")
    print(f"pairs: {report['pairs']}")
    print(f"ratio_median: {report['ratio_median']:.4f}")
    print(f"ratio_iqr: {report['ratio_q1']:.4f} {report['ratio_q3']:.4f}")
    print(f"wins: {report['wins']} of {report['pairs']}")
    print(f"median_s: parent {report['parent_median_s']:.4f} change {report['change_median_s']:.4f}")
    print(f"same_results: {str(report['same_results']).lower()}")
    print(json.dumps(report))
    return 0 if report["same_results"] else 1


if __name__ == "__main__":
    sys.exit(main())
