"""Command-line interface.

Commands::

    caplim verify {axioms|end|extindep} [--config F] [--seed N] [--out D]
    caplim bounds eval --formula NAME [input flags] [--out D]
    caplim experiment {wlln|slln|cluster|lil|necessity|bound-check} --config F
    caplim choquet --config F

Every command prints a one-line verdict and, with ``--out``, writes
``result.json`` (sorted keys), CSV plot data, a human-readable
``summary.txt`` and a ``manifest.json`` listing each output file with a
content digest. Numeric CSV cells are serialized at 12 significant
digits. Results are independent of ``--workers``; only the manifest
records the worker count and wall-clock time.

Exit codes: 0 when the command's verification passed, 2 when it ran but
failed, 1 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bounds import _FORMULAS, BoundInputs, DerivedConstants, evaluate_formula
from .config import ConfigBundle, ConfigError, parse_config
from .dependence import verify_end, verify_extended_independence
from .limits import _MODES, run_experiment
from .sublinear import _CHOQUET_FUNCTIONS, SublinearEngine, run_axiom_suite

__all__ = ["main"]


def _fmt12(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return value


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


class _RunWriter:
    """Writes artifacts under one directory and finishes with a manifest."""

    def __init__(self, out_dir: str, command: str, seed, workers: int,
                 config_hash: str | None, t0: float):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.seed = seed
        self.workers = workers
        self.config_hash = config_hash
        self.names: list[str] = []
        self.t0 = t0

    def _write(self, name: str, data: bytes) -> None:
        (self.dir / name).write_bytes(data)
        self.names.append(name)

    def add_json(self, name: str, payload) -> None:
        text = json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n"
        self._write(name, text.encode("utf-8"))

    def add_csv(self, name: str, header, rows) -> None:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt12(v) for v in row) for row in rows)
        self._write(name, ("\n".join(lines) + "\n").encode("utf-8"))

    def add_text(self, name: str, text: str) -> None:
        if not text.endswith("\n"):
            text += "\n"
        self._write(name, text.encode("utf-8"))

    def finish(self, status: str) -> None:
        outputs = {}
        for name in self.names:
            digest = hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
            outputs[name] = f"sha256:{digest}"
        manifest = {
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "workers": self.workers,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "caplim": __version__,
            },
            "wall_clock_seconds": round(time.monotonic() - self.t0, 3),
            "outputs": outputs,
            "status": status,
        }
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        (self.dir / "manifest.json").write_bytes(text.encode("utf-8"))


def _emit(args, command: str, payload: dict, tables: dict, summary_text: str,
          seed: int | None = None, config_hash: str | None = None) -> None:
    """Write the artifacts; ``seed`` is the one the run drew with, if any."""
    if args.out is None:
        return
    writer = _RunWriter(args.out, command, seed, getattr(args, "workers", 1),
                        config_hash, args.t0)
    try:
        writer.add_json("result.json", payload)
        for name, (header, rows) in tables.items():
            writer.add_csv(f"{name}.csv", header, rows)
        writer.add_text("summary.txt", summary_text)
    except BaseException:
        writer.finish("incomplete")
        raise
    writer.finish("complete")


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


def _cmd_verify(args) -> int:
    options = {}
    bundle = _load_bundle(args, required=args.target != "axioms")
    if bundle is not None:
        options = dict(bundle.verify_options)
    seed = args.seed if args.seed is not None else 2026

    if args.target == "axioms":
        suite = run_axiom_suite(
            n_cases=options.get("n_cases", 120),
            seed=seed,
            mc_every=options.get("mc_every", 10),
            mc_replications=options.get("mc_replications", 20_000),
        )
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
        _emit(args, "verify axioms", payload, {"axioms": (header, rows)}, text, seed=seed)
        print(f"verify axioms: {'PASS' if passed else 'FAIL'} "
              f"({suite['n_cases']} cases)")
        return 0 if passed else 2

    kwargs = {
        "seed": seed,
        "mc_replications": options.get("mc_replications", 200_000),
        "corpus_cases": options.get("corpus_cases", 12),
    }
    if args.target == "end":
        kwargs["direction"] = options.get("direction", "upper")
        if options.get("mc_cross_check"):
            kwargs["mc_cross_check"] = True
        report = verify_end(bundle.dependence, bundle.family, **kwargs)
    else:
        report = verify_extended_independence(bundle.dependence, bundle.family,
                                              **kwargs)

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
    text = (
        f"{report.kind}: {verdict} over {report.n_cases} cases\n"
        f"worst margin {report.worst_margin:.6g} at {report.worst_case}\n\n"
        + _render_table(header, rows)
    )
    _emit(args, f"verify {args.target}", payload, {"cases": (header, rows)}, text,
          seed=seed)
    print(f"verify {args.target}: {verdict} (worst margin "
          f"{report.worst_margin:.6g} at {report.worst_case})")
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# bounds eval


def _cmd_bounds(args) -> int:
    bundle = _load_bundle(args, required=False)
    options = dict(bundle.bounds_options) if bundle else {}
    inputs_map = dict(options.get("inputs", {}))

    for f in fields(BoundInputs):
        flag = getattr(args, f.name)
        if flag is not None:
            inputs_map[f.name] = flag

    formula = args.formula or options.get("formula")
    if formula is None:
        raise ConfigError("bounds eval needs --formula or a config bounds.formula")
    xs = tuple(args.x) if args.x else options.get("x")
    if not xs:
        raise ConfigError("bounds eval needs --x or a config bounds.x")
    inputs_map.setdefault("n", 1)
    inputs_map.setdefault("variance_sum", 1.0)
    inputs_map.setdefault("K", 1.0)
    inputs = BoundInputs(**inputs_map)

    # Each flag overrides its config key.
    extra = {}
    for key, name in (("choquet_terms", "per_term_pos_choquet"),
                      ("max_second_moment", "max_second_moment"), ("tilt", "tilt")):
        value = getattr(args, key)
        if value is None:
            value = options.get(key)
        if value is not None:
            extra[name] = tuple(value) if key == "choquet_terms" else value
    form = args.form or options.get("form", "pre")

    columns, trace = evaluate_formula(formula, inputs, xs, form=form, **extra)
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
    _emit(args, "bounds eval", payload, {"bounds": (header, rows)}, text)
    print(table)
    return 0


# ---------------------------------------------------------------------------
# choquet


def _cmd_choquet(args) -> int:
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
    _emit(args, "choquet", payload, {}, text, seed=engine.seed)
    print(f"choquet {fn_name}({exponent:g}) [{capacity}]: {value_text}")
    return 0


# ---------------------------------------------------------------------------
# experiment


def _summary_text(result, bundle: ConfigBundle) -> str:
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


def _cmd_experiment(args) -> int:
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
    text = _summary_text(result, bundle)
    _emit(args, f"experiment {args.mode}", payload, result.tables, text,
          seed=result.seed, config_hash=result.config_hash)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"experiment {args.mode}: {verdict}")
    return 0 if result.passed else 2


# ---------------------------------------------------------------------------
# parser


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


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
    verify.add_argument("target", choices=("axioms", "end", "extindep"))

    bounds = sub.add_parser("bounds", parents=[common],
                            help="evaluate tail-bound formulas")
    bounds.add_argument("action", choices=("eval",))
    bounds.add_argument("--formula", help=", ".join(_FORMULAS[:-1]) + f", or {_FORMULAS[-1]}")
    bounds.add_argument("--x", type=_float_list,
                        help="comma-separated thresholds")
    bounds.add_argument("--n", type=int, help="number of summands")
    bounds.add_argument("--variance-sum", dest="variance_sum", type=float,
                        help="summed worst-case second moments")
    bounds.add_argument("--K", type=float, help="dominating constant")
    bounds.add_argument("--order", type=int, help="moment order p")
    bounds.add_argument("--pos-moment-sum", dest="pos_moment_sum", type=float)
    bounds.add_argument("--abs-moment-sum", dest="abs_moment_sum", type=float)
    bounds.add_argument("--truncation", type=float, help="truncation level y")
    bounds.add_argument("--split", type=float, help="split parameter delta")
    bounds.add_argument("--tail-power", dest="tail_power", type=float)
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
    t0 = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    args.t0 = t0  # the manifest's wall clock covers the whole command
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "choquet":
            return _cmd_choquet(args)
        return _cmd_experiment(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
