"""Benchmark of the ``caplim`` commands, timed end to end and traced per module.

Run from the root of a checkout::

    python3 bench/run.py --workload envelope --seed 0 --seconds 20 --trace 0

Workloads (see ``bench/workloads.py``):

- ``envelope``: ``verify axioms`` on a 30-case corpus, ``choquet`` and
  ``verify end``, at ``--workers 1``. Monte Carlo envelopes build one
  Philox stream per replication; the rest is quadrature and enumeration.
- ``trajectory``: ``experiment slln``, ``lil`` (independent and copula),
  ``necessity`` and ``cluster`` at ``--workers 2``: tall blocks, few
  streams, the partial-sum scan and the thread pool.
- ``bound_sweep``: ``experiment bound-check``, ``wlln`` and ``bounds eval``
  at ``--workers 1``: medium-width blocks, extremization and bound grids.

One run is one fresh Python process. It repeats passes over the workload's
commands, each through ``caplim.cli.main`` with ``--out`` in a scratch
directory under the checkout, until ``--seconds`` have passed. Every
command's exit code and the sha256 digests of its ``result.json`` and CSVs
must equal those in ``bench/references.json``; the workload seed selects
one of the corpus seeds they were recorded at.

With ``--trace 0`` the metrics are:

- ``setup_s``: median over five fresh interpreters of the CPU seconds from
  starting Python until ``caplim`` is imported and the workload's configs
  are parsed;
- ``cpu_s``: CPU seconds of one pass over the commands, all threads,
  each command taken as its median over the passes;
- ``peak_rss_mib``: peak resident memory of the run's process.

The report lines also give ``wall_s`` (the same sum in wall seconds),
``work_per_s`` (work of one pass over ``wall_s``: axiom cases for
``envelope``, variates drawn for the others), the error rate and the
headroom against acceptance-test time limits. Wall time is left out of the
metrics. On a virtual machine whose two CPUs are shared with other
machines, the interquartile range of ``wall_s`` over ten runs was about a
fifth of its median on ``trajectory`` and ``bound_sweep``, against 0.03 to
0.1 for ``cpu_s``: wall time includes the time the hypervisor gives the
CPUs to other machines, and process CPU time does not. The manifest's
``wall_clock_seconds`` cannot serve as a timer either: the command's writer
starts its clock after the computation, so it reads about a millisecond.

With ``--trace 1`` it times the fixed-shape ``measures`` probes, makes one
untraced pass, then traced passes (``bench/tracer.py``) and prints the
per-layer metrics of one traced pass. The traced artifacts must match the
untraced ones byte for byte, and the layers' self times must add up to the
traced ``cli.main`` time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a ``report:`` JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, corpus_seed  # noqa: E402

SETUP_PROBES = 5
PROBE_REPEATS = 3
PPF_PROBE_SIZE = 1_000_000
UNIFORM_SHAPES = {"wide": (3, 20_000), "tall": (131_072, 32)}
# Marginal factory arguments per kind.
PROBE_MARGINALS = {
    "normal": (0.0, 1.0),
    "uniform": (-1.0, 1.0),
    "pareto": (1.5, 1.0),
    "bernoulli": (0.3,),
    "discrete": (((-1.0, 0.2), (0.0, 0.5), (2.0, 0.3)),),
}
ENVELOPE_METHODS = ("closed_form", "quadrature", "enumeration", "mc")
CHOQUET_METHODS = ("enumeration", "survival", "mc")
EXPERIMENT_MODES = ("wlln", "slln", "cluster", "lil", "necessity", "bound_check")
# The cli layer's self time is the uncovered time: cli.main outside the layers.
LAYERS = ("measures", "sublinear", "dependence", "bounds", "limits", "config")

# Per-layer metrics of the last JSON line, with units. The report line adds
# self times per evaluation method and ns per draw per marginal kind.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("measures.philox_stream.builds", "count"),
    ("measures.philox_stream.self_s", "s"),
    ("measures.uniform.draws", "count"),
    ("measures.uniform.self_s", "s"),
    ("measures.uniform.ns_per_draw", "ns"),
    *((f"measures.ppf.draws.{kind}", "count") for kind in PROBE_MARGINALS),
    ("measures.ppf.self_s", "s"),
    ("measures.ppf.ns_per_draw", "ns"),
    ("measures.expect.calls", "count"),
    ("measures.expect.self_s", "s"),
    *((f"sublinear.{side}.calls.{method}", "count")
      for side in ("upper_exp", "lower_exp") for method in ENVELOPE_METHODS),
    *((f"sublinear.choquet.calls.{method}", "count") for method in CHOQUET_METHODS),
    ("sublinear.envelope.calls", "count"),
    ("sublinear.mc_fraction", "fraction"),
    ("dependence.correlate_pairs.self_s", "s"),
    ("dependence.verify_end.s", "s"),
    ("bounds.calls", "count"),
    *((f"limits.run.{mode}.s", "s") for mode in EXPERIMENT_MODES),
    ("limits.scan.self_s", "s"),
    ("limits.transform.self_s", "s"),
    ("limits.worker_busy_frac", "fraction"),
    ("config.parse_config.s", "s"),
    ("cli.write.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    *((f"measures.uniform_block.ns_per_draw.{shape}", "ns") for shape in UNIFORM_SHAPES),
    *((f"measures.ppf.probe_ns_per_draw.{kind}", "ns") for kind in PROBE_MARGINALS),
)


class CheckoutError(RuntimeError):
    pass


@dataclass(frozen=True)
class Outcome:
    """One command run: its times, its work and what was wrong with it."""

    name: str
    seconds: float
    cpu_s: float
    work: int
    digests: dict
    problem: str | None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_caplim():
    """Import caplim from this checkout's ``src``; refuse any other copy."""
    missing = [p for p in ("src/caplim/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        raise CheckoutError(f"not a caplim checkout: {', '.join(missing)} missing under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import caplim.cli
    from caplim.config import parse_config

    if Path(caplim.__file__).resolve().parent != ROOT / "src" / "caplim":
        raise CheckoutError(f"imported caplim from {caplim.__file__}, not from the checkout")
    return caplim, parse_config


# -- set-up -------------------------------------------------------------------


def _setup_seconds(workload) -> tuple[float, float]:
    """Start a fresh interpreter that imports caplim and parses the configs.

    Returns the CPU seconds the interpreter used until it was ready and the
    wall seconds from starting it until its ready line arrived.
    """
    configs = sorted({str(ROOT / c.config) for c in workload.commands})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "setup_probe.py"), *configs],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline().split()
        wall = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if code != 0 or len(line) != 2 or line[0] != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return float(line[1]), wall


# -- passes over the workload's commands --------------------------------------------


def _digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name == "result.json" or p.suffix == ".csv"
    }


class Runner:
    """Runs a workload's commands in this process and checks their artifacts."""

    def __init__(self, caplim, workload, seed, bundles, references, scratch):
        self.caplim = caplim
        self.workload = workload
        self.seed = seed
        self.bundles = bundles
        self.references = references
        self.scratch = scratch

    def command(self, cmd) -> Outcome:
        seed = cmd.pinned_seed if cmd.pinned_seed is not None else self.seed
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        argv = [*cmd.argv, "--seed", str(seed), "--workers", str(self.workload.workers),
                "--out", str(out)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0, c0 = time.perf_counter(), time.process_time()
                code = self.caplim.cli.main(argv)
                seconds = time.perf_counter() - t0
                cpu_s = time.process_time() - c0
            digests = _digests(out)
            work = cmd.work(self.bundles[cmd.config], out)
        except Exception:
            traceback.print_exc()
            return Outcome(cmd.name, 0.0, 0.0, 0, {}, "raised")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        ref = self.references.get(cmd.name, {}).get(str(seed))
        if ref is None:
            problem = f"no reference for seed {seed}"
        elif code != ref["exit"]:
            problem = f"exit code {code}, expected {ref['exit']}"
        elif digests != ref["files"]:
            problem = "artifact digests differ from the reference"
        else:
            problem = None
        if problem:
            print(f"FAILED {cmd.name}: {problem}", file=sys.stderr)
        return Outcome(cmd.name, seconds, cpu_s, work, digests, problem)

    def passes(self, seconds: float) -> list[list[Outcome]]:
        """Repeat passes until ``seconds`` have passed; at least one pass."""
        log = []
        t_end = time.perf_counter() + seconds
        while True:
            log.append([self.command(cmd) for cmd in self.workload.commands])
            if time.perf_counter() >= t_end:
                return log


def _summary(log) -> dict:
    """Per-command medians over the passes, summed over one pass."""
    names = [o.name for o in log[0]]
    wall = {n: statistics.median(p[i].seconds for p in log) for i, n in enumerate(names)}
    cpu = {n: statistics.median(p[i].cpu_s for p in log) for i, n in enumerate(names)}
    return {
        "passes": len(log),
        "per_command_s": wall,
        "per_command_cpu_s": cpu,
        "pass_cpu_s": [[o.cpu_s for o in p] for p in log],
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "work": sum(o.work for o in log[0]),
        "attempted": sum(len(p) for p in log),
        "failed": sum(1 for p in log for o in p if o.problem),
    }


# -- fixed-shape measures probes ----------------------------------------------------


def _median_seconds(fn) -> float:
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _measures_probes(seed) -> dict:
    """ns per draw of uniform_block at a wide and a tall shape, and of ppf per kind."""
    from caplim.measures import Marginal, uniform_block

    out = {}
    for shape, (n, m) in UNIFORM_SHAPES.items():
        seconds = _median_seconds(lambda: uniform_block(seed, n, m, context=99))
        out[f"measures.uniform_block.ns_per_draw.{shape}"] = seconds / (n * m) * 1e9
    u = uniform_block(seed, PPF_PROBE_SIZE, 1, context=98)[:, 0]
    for kind, params in PROBE_MARGINALS.items():
        marginal = getattr(Marginal, kind)(*params)
        seconds = _median_seconds(lambda: marginal.ppf(u))
        out[f"measures.ppf.probe_ns_per_draw.{kind}"] = seconds / PPF_PROBE_SIZE * 1e9
    return out


# -- per-layer metrics from a trace --------------------------------------------------


def _layer_metrics(snap: dict, passes: int) -> dict:
    """Every per-layer figure of one traced pass, keyed by metric name."""
    S = {k: v / passes for k, v in snap["self_s"].items()}
    C = {k: v // passes if v % passes == 0 else v / passes
         for k, v in snap["counts"].items()}
    incl = {k: v / passes for k, v in snap["incl_s"].items()}

    def self_of(prefix):
        return sum(v for k, v in S.items() if k == prefix or k.startswith(prefix + "."))

    def per(numer, denom, scale=1.0):
        return numer / denom * scale if denom else 0.0

    m = {f"{layer}.self_s": self_of(layer) for layer in LAYERS}
    m["measures.philox_stream.builds"] = C.get("measures.philox_stream.builds", 0)
    m["measures.philox_stream.self_s"] = S.get("measures.philox_stream", 0.0)
    draws = C.get("measures.uniform.draws", 0)
    m["measures.uniform.draws"] = draws
    m["measures.uniform.self_s"] = (S.get("measures.uniform", 0.0)
                                   + S.get("measures.uniform_block", 0.0))
    m["measures.uniform.ns_per_draw"] = per(m["measures.uniform.self_s"], draws, 1e9)
    ppf_draws = 0
    for kind in PROBE_MARGINALS:
        n = C.get(f"measures.ppf.draws.{kind}", 0)
        ppf_draws += n
        m[f"measures.ppf.draws.{kind}"] = n
        m[f"measures.ppf.ns_per_draw.{kind}"] = per(S.get(f"measures.ppf.{kind}", 0.0), n, 1e9)
    m["measures.ppf.self_s"] = self_of("measures.ppf")
    m["measures.ppf.ns_per_draw"] = per(m["measures.ppf.self_s"], ppf_draws, 1e9)
    m["measures.expect.calls"] = C.get("measures.expect.calls", 0)
    m["measures.expect.self_s"] = S.get("measures.expect", 0.0)

    envelope = {k: v for k, v in C.items() if k.startswith(("sublinear.upper_exp.calls.",
                                                             "sublinear.lower_exp.calls."))}
    for side in ("upper_exp", "lower_exp"):
        for method in ENVELOPE_METHODS:
            m[f"sublinear.{side}.calls.{method}"] = C.get(f"sublinear.{side}.calls.{method}", 0)
    for method in CHOQUET_METHODS:
        m[f"sublinear.choquet.calls.{method}"] = C.get(f"sublinear.choquet.calls.{method}", 0)
    for key, value in S.items():
        if key.startswith(("sublinear.upper_exp.", "sublinear.lower_exp.",
                           "sublinear.choquet.")):
            side, method = key.split(".")[1:]
            m[f"sublinear.{side}.self_s.{method}"] = value
    m["sublinear.envelope.calls"] = sum(envelope.values())
    m["sublinear.mc_fraction"] = per(sum(v for k, v in envelope.items() if k.endswith(".mc")),
                                     m["sublinear.envelope.calls"])

    m["dependence.correlate_pairs.self_s"] = S.get("dependence.correlate_pairs", 0.0)
    m["dependence.verify_end.s"] = incl.get("dependence.verify_end", 0.0)
    m["bounds.calls"] = C.get("bounds.calls", 0)
    for mode in EXPERIMENT_MODES:
        m[f"limits.run.{mode}.s"] = incl.get(f"limits.run.{mode}", 0.0)
    m["limits.scan.self_s"] = S.get("limits.scan", 0.0)
    m["limits.transform.self_s"] = S.get("limits.transform", 0.0)
    m["limits.worker_busy_frac"] = per(incl.get("limits.pool.busy", 0.0),
                                       incl.get("limits.run.capacity", 0.0))
    m["config.parse_config.s"] = incl.get("config.parse_config", 0.0)
    m["cli.write.self_s"] = S.get("cli.write", 0.0)
    m["trace.cli_main_s"] = incl.get("cli.main", 0.0)
    return m


# -- the two kinds of run -------------------------------------------------------------


def _headroom(workload, summary) -> dict:
    out = {}
    for cmd in workload.commands:
        if cmd.guarantee:
            test, limit = cmd.guarantee
            elapsed = summary["per_command_s"][cmd.name]
            out[f"headroom.{test}"] = {"elapsed_s": elapsed, "limit_s": limit,
                                       "share_of_limit": elapsed / limit}
    return out


def _measure(args, runner):
    workload = runner.workload
    setup = [_setup_seconds(workload) for _ in range(SETUP_PROBES)]
    summary = _summary(runner.passes(args.seconds))
    metrics = {
        "setup_s": (statistics.median(cpu for cpu, _ in setup), "s"),
        "cpu_s": (summary["cpu_s"], "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    wall = summary["wall_s"]
    shown = {
        "wall_s": (wall, "s"),
        "work_per_s": (summary["work"] / wall, f"{workload.work_unit}/s"),
        "setup_wall_s": (statistics.median(w for _, w in setup), "s"),
        "error_rate": (summary["failed"] / summary["attempted"], "fraction"),
    }
    report = {
        "setup_cpu_samples_s": [cpu for cpu, _ in setup],
        "setup_wall_samples_s": [w for _, w in setup],
        "work_per_pass": summary["work"],
        "work_unit": workload.work_unit,
        "pass_cpu_s": summary["pass_cpu_s"],
        **{name: value for name, (value, _) in shown.items()},
        **_headroom(workload, summary),
    }
    return summary, metrics, shown, report


def _trace(args, runner):
    from tracer import Tracer

    t_start = time.perf_counter()
    probes = _measures_probes(runner.seed)
    plain = runner.passes(0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.passes(args.seconds - (time.perf_counter() - t_start))
    finally:
        tracer.uninstall()
    plain_summary, summary = _summary(plain), _summary(traced)
    snap = tracer.snapshot()
    layers = _layer_metrics(snap, len(traced))
    layers["trace.wall_s"] = summary["wall_s"]
    layers["trace.overhead_s"] = summary["wall_s"] - plain_summary["wall_s"]
    layers.update(probes)

    problems = [
        f"traced artifacts of {o.name} differ from the untraced run"
        for p in traced for o, ref in zip(p, plain[0]) if o.digests != ref.digests
    ]
    layer_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["cli.write.self_s"]
    if abs(layer_sum - layers["trace.cli_main_s"]) > 1e-6 * max(1.0, layer_sum):
        problems.append(f"layer self times sum to {layer_sum:.6f} s, "
                        f"the cli.main spans to {layers['trace.cli_main_s']:.6f} s")
    for problem in problems:
        print(f"FAILED trace check: {problem}", file=sys.stderr)
    summary["attempted"] += plain_summary["attempted"]
    summary["failed"] += plain_summary["failed"] + len(problems)

    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
    detail = {k: v for k, v in layers.items() if k not in metrics}
    report = {
        "untraced_wall_s": plain_summary["wall_s"],
        "untraced_per_command_s": plain_summary["per_command_s"],
        "layer_detail": detail,
        "spans_self_s": {k: v / len(traced) for k, v in snap["self_s"].items()},
    }
    return summary, metrics, {}, report


# -- report -------------------------------------------------------------------------


def _cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (git / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def _environment(args, seed) -> dict:
    import numpy
    import scipy
    import yaml

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "corpus_seed": seed,
    }


def _print_report(args, seed, summary, metrics, shown, report) -> None:
    print(f"caplim benchmark: workload {args.workload}, corpus seed {seed}, "
          f"{summary['passes']} passes, trace {args.trace}")
    for name, seconds in summary["per_command_s"].items():
        print(f"  {name:<44} {seconds:10.4f} s")
    rows = {**metrics, **shown}
    width = max(len(name) for name in rows)
    for name, (value, unit) in rows.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    report = {"environment": _environment(args, seed), "passes": summary["passes"],
              "per_command_s": summary["per_command_s"],
              "per_command_cpu_s": summary["per_command_cpu_s"], **report}
    print("report: " + json.dumps(report, sort_keys=True))


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = corpus_seed(args.seed)
    try:
        caplim, parse_config = _import_caplim()
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    bundles = {c.config: parse_config(str(ROOT / c.config)) for c in workload.commands}
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))

    scratch_root = ROOT / ".bench_run"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        runner = Runner(caplim, workload, seed, bundles, references, scratch)
        summary, metrics, shown, report = (_trace if args.trace else _measure)(args, runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    _print_report(args, seed, summary, metrics, shown, report)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
