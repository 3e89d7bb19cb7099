"""Command-line interface.

Commands::

    caplim verify {axioms|end|extindep} [--config F] [--seed N] [--out D]
    caplim bounds eval --formula NAME [input flags] [--out D]
    caplim experiment {wlln|slln|cluster|lil|necessity|bound-check} --config F
    caplim choquet --config F

Each command handler computes and returns one ``_Run``; it prints and
writes nothing. ``main`` alone then writes the run's artifacts (with
``--out``), prints its verdict line and picks the exit code, by one rule:
0 when the run passed, 2 when it ran but failed, and 1 on usage or runtime
errors, a failed write and a numeric overflow included.

With ``--out`` a run writes ``result.json`` (sorted keys), CSV plot data
and a human-readable ``summary.txt``, then, even when one of those writes
fails, a ``manifest.json`` listing each file written with its sha256 and a
``status`` of ``complete`` or ``incomplete``. Numeric CSV cells are
serialized at 12 significant digits. Results are independent of
``--workers``; only the manifest records the worker count and wall-clock
time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import _FORMULAS, BoundInputs, DerivedConstants, evaluate_formula
from .config import ConfigBundle, ConfigError, parse_config
from .dependence import verify_end, verify_extended_independence
from .limits import _MODES, _json_safe, run_experiment
from .sublinear import _CHOQUET_FUNCTIONS, SublinearEngine, run_axiom_suite

__all__ = ["main"]


def _fmt12(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _render_table(header, rows) -> str:
    cells = [list(header)] + [[_format_cell(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


@dataclass(frozen=True)
class _Run:
    """One command's outcome: what ``main`` writes, prints and exits with.

    ``seed`` is the one the run drew with, if any.
    """

    command: str
    payload: dict
    tables: dict
    summary: str
    verdict: str
    passed: bool = True
    seed: int | None = None
    config_hash: str | None = None


def _artifacts(run: _Run):
    """Each artifact's name and text, in writing order, built as it is asked for."""
    yield "result.json", json.dumps(_json_safe(run.payload), sort_keys=True, indent=2) + "\n"
    for name, (header, rows) in run.tables.items():
        lines = [",".join(header), *(",".join(_fmt12(v) for v in row) for row in rows)]
        yield f"{name}.csv", "\n".join(lines) + "\n"
    yield "summary.txt", run.summary if run.summary.endswith("\n") else run.summary + "\n"


def _write(run: _Run, out_dir: str, workers: int, t0: float) -> None:
    """Write ``run``'s artifacts under ``out_dir``, then ``manifest.json``
    with the sha256 of each file written, even when a write fails."""
    import scipy  # the top-level package only: its version, not scipy.special

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    outputs = {}
    status = "incomplete"
    try:
        for name, text in _artifacts(run):
            data = text.encode("utf-8")
            (directory / name).write_bytes(data)
            outputs[name] = f"sha256:{hashlib.sha256(data).hexdigest()}"
        status = "complete"
    finally:
        manifest = {
            "command": run.command,
            "config_hash": run.config_hash,
            "seed": run.seed,
            "workers": workers,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "caplim": __version__,
            },
            "wall_clock_seconds": round(time.monotonic() - t0, 3),
            "outputs": outputs,
            "status": status,
        }
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        (directory / "manifest.json").write_bytes(text.encode("utf-8"))


def _load_bundle(args, required: bool = True) -> ConfigBundle | None:
    if args.config is None:
        if required:
            raise ConfigError("this command needs --config")
        return None
    return parse_config(args.config)


def _kv_lines(mapping: dict) -> str:
    return "\n".join(f"{key}: {_format_cell(value)}" for key, value in mapping.items())


# ---------------------------------------------------------------------------
# verify

# The verify keys each target reads, each passed on as the keyword of the
# same name; an absent key takes the target function's default.
_VERIFY_KEYS = {
    "axioms": ("n_cases", "mc_every", "mc_replications"),
    "end": ("mc_replications", "corpus_cases", "direction", "mc_cross_check"),
    "extindep": ("mc_replications", "corpus_cases"),
}


def _cmd_verify(args) -> _Run:
    bundle = _load_bundle(args, required=args.target != "axioms")
    options = bundle.verify_options if bundle is not None else {}
    kwargs = {key: options[key] for key in _VERIFY_KEYS[args.target] if key in options}
    # Read from the module's names at each call, so a rebinding of them
    # (as a profiler makes) reaches the call.
    check = {"axioms": run_axiom_suite, "end": verify_end,
             "extindep": verify_extended_independence}[args.target]
    seed = args.seed if args.seed is not None else 2026
    command = f"verify {args.target}"

    if args.target == "axioms":
        suite = check(seed=seed, **kwargs)
        passed = suite["passed"]
        payload = {
            "check": "axioms",
            "passed": passed,
            "n_cases": suite["n_cases"],
            "n_failures": suite["n_failures"],
            "by_axiom": suite["by_axiom"],
            "seed": seed,
        }
        header = ("axiom", "worst_margin", "failures")
        rows = tuple(
            (name, stats["worst_margin"], stats["failures"])
            for name, stats in sorted(suite["by_axiom"].items())
        )
        text = (
            f"axiom suite: {'PASS' if passed else 'FAIL'} "
            f"({suite['n_cases']} cases, {suite['n_failures']} failures)\n\n"
            + _render_table(header, rows)
        )
        return _Run(command, payload, {"axioms": (header, rows)}, text,
                    f"{command}: {'PASS' if passed else 'FAIL'} ({suite['n_cases']} cases)",
                    passed=passed, seed=seed)

    report = check(bundle.dependence, bundle.family, seed=seed, **kwargs)
    payload = report.summary()
    payload["cases"] = list(report.cases)
    payload["seed"] = seed
    header = ("case", "method", "joint", "product_of_envelopes", "margin",
              "tolerance", "gap", "passed")
    rows = tuple(
        (
            row["case"],
            row["method"],
            row["joint"],
            row["product_of_envelopes"],
            row["margin"],
            row["tolerance"],
            row.get("gap", ""),
            int(row["passed"]),
        )
        for row in report.cases
    )
    verdict = "PASS" if report.passed else "FAIL"
    worst = f"worst margin {report.worst_margin:.6g} at {report.worst_case}"
    text = (
        f"{report.kind}: {verdict} over {report.n_cases} cases\n{worst}\n\n"
        + _render_table(header, rows)
    )
    return _Run(command, payload, {"cases": (header, rows)}, text,
                f"{command}: {verdict} ({worst})", passed=report.passed, seed=seed)


# ---------------------------------------------------------------------------
# bounds eval


# The other option flags of bounds eval, each with the evaluate_formula
# keyword it sets.
_FORMULA_OPTIONS = {"choquet_terms": "per_term_pos_choquet",
                    "max_second_moment": "max_second_moment", "tilt": "tilt", "form": "form"}


def _cmd_bounds(args) -> _Run:
    bundle = _load_bundle(args, required=False)
    options = dict(bundle.bounds_options) if bundle else {}
    # Each flag given goes over its config key, a flag of 0 included; an
    # empty list flag (--x "" or --choquet-terms "") counts as absent. The
    # defaults of n, variance_sum and K reach result.json.
    given = {key: value for key, value in vars(args).items() if value not in (None, ())}
    inputs_map = {"n": 1, "variance_sum": 1.0, "K": 1.0, **options.get("inputs", {}),
                  **{f.name: given[f.name] for f in fields(BoundInputs) if f.name in given}}
    options.update((key, given[key]) for key in _FORMULA_OPTIONS if key in given)

    formula = args.formula or options.get("formula")
    if formula is None:
        raise ConfigError("bounds eval needs --formula or a config bounds.formula")
    xs = given.get("x") or options.get("x")
    if not xs:
        raise ConfigError("bounds eval needs --x or a config bounds.x")
    inputs = BoundInputs(**inputs_map)
    extra = {name: options[key] for key, name in _FORMULA_OPTIONS.items() if key in options}

    columns, trace = evaluate_formula(formula, inputs, xs, **extra)
    header = ("x",) + tuple(columns)
    rows = tuple(
        (float(x), *(float(columns[name][i]) for name in columns))
        for i, x in enumerate(xs)
    )
    table = _render_table(header, rows)
    trace_text = "\n".join(trace) if trace else "no derived constants involved"
    text = f"formula: {formula}\n\n{table}\n\nconstants:\n{trace_text}"
    payload = {
        "formula": formula,
        "inputs": {k: _json_safe(v) for k, v in inputs_map.items()},
        "x": list(xs),
        "columns": {name: list(values) for name, values in columns.items()},
        "trace": list(trace),
    }
    return _Run("bounds eval", payload, {"bounds": (header, rows)}, text, table)


# ---------------------------------------------------------------------------
# choquet


def _cmd_choquet(args) -> _Run:
    bundle = _load_bundle(args)
    options = dict(bundle.choquet_options)
    fn_name = options.get("function", "abs_power")
    exponent = options.get("exponent", 1.0)
    capacity = options.get("capacity", "upper")
    engine_kwargs = dict(bundle.engine_options)
    if args.seed is not None:
        engine_kwargs["seed"] = args.seed
    engine = SublinearEngine(bundle.family, **engine_kwargs)
    report = engine.choquet(_CHOQUET_FUNCTIONS[fn_name](exponent), capacity=capacity)
    payload = {
        "function": fn_name,
        "exponent": exponent,
        "capacity": capacity,
        "value": report.value,
        "divergent": report.divergent,
        "method": report.method,
        "tail_exponent": report.tail_exponent,
    }
    value_text = "+inf (divergent tail)" if report.divergent else f"{report.value:.12g}"
    text = _kv_lines(
        {
            "function": f"{fn_name}({exponent:g})",
            "capacity": capacity,
            "value": value_text,
            "method": report.method,
        }
    )
    return _Run("choquet", payload, {}, text,
                f"choquet {fn_name}({exponent:g}) [{capacity}]: {value_text}",
                seed=engine.seed)


# ---------------------------------------------------------------------------
# experiment


def _summary_text(result) -> str:
    lines = [
        f"mode: {result.mode}",
        f"passed: {result.passed}",
        f"config_hash: {result.config_hash}",
        f"seed: {result.seed}",
        "",
        "summary:",
        _kv_lines(result.summary),
    ]
    for name, (header, rows) in result.tables.items():
        lines += ["", f"table {name}:"]
        if len(rows) > 60:
            lines.append(_render_table(header, rows[:60]))
            lines.append(f"... {len(rows) - 60} more rows in {name}.csv")
        else:
            lines.append(_render_table(header, rows))
    if result.mode == "bound_check":
        order = result.summary.get("order", 2)
        lines += ["", "constants:"]
        lines += list(DerivedConstants.for_order(int(order)).trace)
    if result.assumptions:
        lines += ["", "assumptions:"]
        lines += [f"- {a}" for a in result.assumptions]
    return "\n".join(lines)


def _cmd_experiment(args) -> _Run:
    bundle = _load_bundle(args)
    config = bundle.experiment_config(
        mode=args.mode, seed=args.seed, workers=args.workers
    )
    result = run_experiment(config)
    payload = {
        "mode": result.mode,
        "config_hash": result.config_hash,
        "seed": result.seed,
        "passed": result.passed,
        "summary": result.summary,
        "assumptions": list(result.assumptions),
    }
    command = f"experiment {args.mode}"
    return _Run(command, payload, result.tables, _summary_text(result),
                f"{command}: {'PASS' if result.passed else 'FAIL'}",
                passed=result.passed, seed=result.seed, config_hash=result.config_hash)


_COMMANDS = {"verify": _cmd_verify, "bounds": _cmd_bounds, "choquet": _cmd_choquet,
             "experiment": _cmd_experiment}


# ---------------------------------------------------------------------------
# parser


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caplim",
        description="Worst-case expectation numerics and limit-theorem runs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file")
    common.add_argument("--seed", type=int, help="override the configured seed")
    common.add_argument("--workers", type=int, default=1,
                        help="worker pool size (results are independent of it)")
    common.add_argument("--out", help="directory for result artifacts")

    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", parents=[common],
                            help="run a verification suite")
    verify.add_argument("target", choices=tuple(_VERIFY_KEYS))

    bounds = sub.add_parser("bounds", parents=[common],
                            help="evaluate tail-bound formulas")
    bounds.add_argument("action", choices=("eval",))
    bounds.add_argument("--formula", help=", ".join(_FORMULAS[:-1]) + f", or {_FORMULAS[-1]}")
    bounds.add_argument("--x", type=_float_list,
                        help="comma-separated thresholds")
    # One flag per BoundInputs field: --variance-sum sets variance_sum.
    for f in fields(BoundInputs):
        bounds.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                            type=int if f.name in ("n", "order") else float,
                            help=f"overrides bounds.inputs.{f.name}")
    bounds.add_argument("--form", choices=("pre", "post"))
    bounds.add_argument("--tilt", type=float, help="explicit exponential tilt t")
    bounds.add_argument("--choquet-terms", dest="choquet_terms", type=_float_list,
                        help="per-term positive-part Choquet moments")
    bounds.add_argument("--max-second-moment", dest="max_second_moment",
                        type=float)

    experiment = sub.add_parser("experiment", parents=[common],
                                help="run a limit-theorem experiment")
    experiment.add_argument("mode", choices=[mode.replace("_", "-") for mode in _MODES])

    sub.add_parser("choquet", parents=[common],
                   help="Choquet integral against the configured family")
    return parser


def main(argv=None) -> int:
    t0 = time.monotonic()  # the manifest's wall clock covers the whole command
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        run = _COMMANDS[args.command](args)
        if args.out is not None:
            _write(run, args.out, args.workers, t0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # an overflow, say, in a bound's constants
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(run.verdict)
    return 0 if run.passed else 2


if __name__ == "__main__":
    sys.exit(main())
