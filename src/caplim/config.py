"""Declarative run configuration.

A config file is a YAML mapping with a required ``family`` section and
optional ``dependence``, ``engine``, ``experiment``, ``bounds``,
``choquet`` and ``verify`` sections. Marginal parameters may be plain
numbers or small arithmetic expressions in the family parameters, for
example ``var: "sigma**-2"``. Validation is strict: unknown keys are
rejected, and every error message carries the file line it refers to.

A document is parsed once, and every section, down to each marginal and
each joint atom, is read through a table with one checking reader per key.

Parsing normalizes the document, so ``parse -> serialize -> parse``
reproduces the canonical text exactly.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, fields

import yaml

from .bounds import _FORMULAS, BoundInputs
from .dependence import DependenceSpec
from .limits import ExperimentConfig, _MODES, _UNHASHED
from .measures import _MARGINALS, MeasureFamily, ProductMeasure
from .sublinear import _CHOQUET_FUNCTIONS

__all__ = [
    "ConfigBundle",
    "ConfigError",
    "parse_config",
    "parse_config_text",
    "serialize_config",
]


class ConfigError(ValueError):
    """Config validation failure anchored to a file location."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        where = path or "<document>"
        if line is not None:
            where += f" (line {line})"
        super().__init__(f"{where}: {message}")


# ---------------------------------------------------------------------------
# Loading: one parse gives both the data and the line of every document path,
# such as family.marginals[0].var.


def _load(text: str) -> tuple[object, dict[str, int]]:
    loader = yaml.SafeLoader(text)
    try:
        root = loader.get_single_node()
        lines: dict[str, int] = {}

        def walk(node, path: str) -> None:
            lines.setdefault(path, node.start_mark.line + 1)
            if isinstance(node, yaml.MappingNode):
                for key_node, value_node in node.value:
                    sub = f"{path}.{key_node.value}" if path else str(key_node.value)
                    lines.setdefault(sub, key_node.start_mark.line + 1)
                    walk(value_node, sub)
            elif isinstance(node, yaml.SequenceNode):
                for i, item in enumerate(node.value):
                    walk(item, f"{path}[{i}]")

        if root is None:
            return None, lines
        # Index before constructing, which flattens merge keys in place.
        walk(root, "")
        return loader.construct_document(root), lines
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError(f"not valid YAML: {exc}", line=line) from None
    finally:
        loader.dispose()


class _Context:
    """Carries the line index so errors can be anchored, and the family
    parameter names that marginal expressions may use."""

    def __init__(self, lines: dict[str, int]):
        self.lines = lines
        self.names: tuple[str, ...] = ()

    def fail(self, path: str, message: str) -> ConfigError:
        line = self.lines.get(path)
        probe = path
        while line is None and probe:
            probe = probe.rsplit(".", 1)[0] if "." in probe else ""
            line = self.lines.get(probe)
        return ConfigError(message, path, line)


# ---------------------------------------------------------------------------
# Readers. A reader takes ``(ctx, value, path)``, checks the value and
# returns what it reads; a section is a table of readers, one per key.


def _require_mapping(ctx: _Context, value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ctx.fail(path, "expected a mapping")
    return value


def _read_section(ctx: _Context, section, path: str, readers: dict, required=()) -> dict:
    """Check ``section`` against ``readers`` and read every key it holds,
    in table order."""
    _require_mapping(ctx, section, path)
    for key in section:
        if key not in readers:
            raise ctx.fail(
                f"{path}.{key}" if path else str(key),
                f"unknown key {key!r}; allowed: {', '.join(sorted(readers))}",
            )
    for key in required:
        if key not in section:
            raise ctx.fail(path, f"missing required key {key!r}")
    return {
        key: read(ctx, section[key], f"{path}.{key}" if path else key)
        for key, read in readers.items()
        if key in section
    }


def _section(readers: dict, required=()):
    def read(ctx: _Context, value, path: str) -> dict:
        return _read_section(ctx, value, path, readers, required)

    return read


def _items(read, message: str, least: int = 1, most: float = float("inf")):
    """A reader for a list of ``least`` to ``most`` items."""

    def read_items(ctx: _Context, value, path: str) -> tuple:
        if not isinstance(value, list) or not least <= len(value) <= most:
            raise ctx.fail(path, message)
        return tuple(read(ctx, item, f"{path}[{i}]") for i, item in enumerate(value))

    return read_items


def _number(ctx: _Context, value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ctx.fail(path, "expected a number")
    return float(value)


def _finite(ctx: _Context, value, path: str) -> float:
    got = _number(ctx, value, path)
    if not math.isfinite(got):
        name = path.rsplit(".", 1)[-1]
        raise ctx.fail(path, f"{name} must be finite, got {got:g}")
    return got


def _integer(ctx: _Context, value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ctx.fail(path, "expected an integer")
    return value


def _string(ctx: _Context, value, path: str) -> str:
    if not isinstance(value, str):
        raise ctx.fail(path, "expected a string")
    return value


def _boolean(ctx: _Context, value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ctx.fail(path, "expected a boolean")
    return value


def _at_least(least: int, read=_integer):
    def read_bounded(ctx: _Context, value, path: str):
        got = read(ctx, value, path)
        if got < least:
            name = path.rsplit(".", 1)[-1]
            raise ctx.fail(path, f"{name} must be at least {least:g}, got {got:g}")
        return got

    return read_bounded


# The K of the family, the dependence or the bound inputs.
_dominating_constant = _at_least(1, _finite)


def _one_of(what: str, allowed: tuple[str, ...]):
    def read(ctx: _Context, value, path: str) -> str:
        got = _string(ctx, value, path)
        if got not in allowed:
            raise ctx.fail(
                path, f"unknown {what} {got!r}; allowed: {', '.join(allowed)}"
            )
        return got

    return read


_interval = _items(_number, "expected [lo, hi]", least=2, most=2)


def _numbers(ctx: _Context, value, path: str) -> tuple[float, ...]:
    if isinstance(value, list):
        return tuple(_finite(ctx, v, f"{path}[{i}]") for i, v in enumerate(value))
    return (_finite(ctx, value, path),)


# ---------------------------------------------------------------------------
# Marginal parameter expressions. Each reads into a function of the
# family's parameter values.

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _expression(ctx: _Context, value, path: str):
    """A number, or a compiled expression in the family parameters."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ctx.fail(path, "expected a number or expression string")
    if not isinstance(value, str):
        const = float(value)
        return lambda env, _c=const: _c
    try:
        tree = ast.parse(value, mode="eval")
    except SyntaxError as exc:
        raise ctx.fail(path, f"bad expression {value!r}: {exc.msg}") from None

    def check(node) -> None:
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.UAdd, ast.USub)
        ):
            check(node.operand)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            pass
        elif isinstance(node, ast.Name):
            if node.id not in ctx.names:
                raise ctx.fail(
                    path,
                    f"expression {value!r} uses {node.id!r}; "
                    f"known parameters: {', '.join(ctx.names)}",
                )
        else:
            raise ctx.fail(
                path,
                f"expression {value!r} may only use numbers, the family "
                "parameters, and + - * / **",
            )

    check(tree)
    code = compile(tree, f"<config:{path}>", "eval")

    def evaluate(env: dict[str, float]) -> float:
        return float(eval(code, {"__builtins__": {}}, env))

    return evaluate


_atom = _items(_expression, "expected a [value, prob] pair", least=2, most=2)


def _atoms(ctx: _Context, value, path: str):
    pairs = _items(_atom, "expected a non-empty list of [value, prob]")(ctx, value, path)
    return lambda env: [(v(env), q(env)) for v, q in pairs]


# ---------------------------------------------------------------------------
# Family and dependence sections.

_marginal_kind = _one_of("marginal kind", tuple(sorted(_MARGINALS)))


def _marginal(ctx: _Context, spec, path: str):
    """A function from the parameter values to the marginal."""
    _require_mapping(ctx, spec, path)
    if "kind" not in spec:
        raise ctx.fail(path, "missing required key 'kind'")
    kind = _marginal_kind(ctx, spec["kind"], f"{path}.kind")
    factory, required, optional = _MARGINALS[kind]
    readers = {"kind": _string}
    readers.update({key: _atoms if key == "atoms" else _expression
                    for key in required + optional})
    got = _read_section(ctx, spec, path, readers, required=("kind", *required))
    del got["kind"]
    return lambda env: factory(*(read(env) for read in got.values()))


def _parameter_name(ctx: _Context, value, path: str) -> str:
    """Reading a name also admits it to the marginal expressions."""
    name = _string(ctx, value, path)
    if not name.isidentifier():
        raise ctx.fail(path, "parameter name must be an identifier")
    if name in ctx.names:
        raise ctx.fail(path, f"duplicate parameter {name!r}")
    ctx.names += (name,)
    return name


def _domain(ctx: _Context, value, path: str) -> tuple[float, float]:
    lo, hi = _interval(ctx, value, path)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ctx.fail(path, f"domain must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise ctx.fail(path, "domain must satisfy lo <= hi")
    return lo, hi


_FAMILY_READERS = {
    "name": _string,
    "resolution": _integer,
    "K": _dominating_constant,
    # before the marginals, whose expressions use the parameter names
    "parameters": _items(
        _section({"name": _parameter_name, "domain": _domain}, required=("name", "domain")),
        "expected a list of one or two parameters",
        most=2,
    ),
    "marginals": _items(_marginal, "expected a non-empty list"),
}


def _family(ctx: _Context, section, path: str) -> MeasureFamily:
    got = _read_section(
        ctx, section, path, _FAMILY_READERS, required=("parameters", "marginals")
    )
    names = tuple(entry["name"] for entry in got["parameters"])
    factories = got["marginals"]

    def build(*theta):
        env = dict(zip(names, theta))
        return ProductMeasure(tuple(f(env) for f in factories), stationary=True)

    try:
        family = MeasureFamily(
            parameter_domain=tuple(entry["domain"] for entry in got["parameters"]),
            builder=build,
            grid_resolution=got.get("resolution", 9),
            K=got.get("K", 1.0),
            name=got.get("name", "family"),
        )
    except (ValueError, TypeError) as exc:
        raise ctx.fail(path, str(exc)) from None
    # Every grid measure the commands enumerate must build, so a marginal
    # that fails at some grid point fails here, at the family's line.
    for theta in family.grid_parameters():
        try:
            family.measure_at(theta)
        except (ValueError, TypeError, ArithmeticError) as exc:
            point = ", ".join(f"{name} = {value:g}" for name, value in
                              zip(names, theta if isinstance(theta, tuple) else (theta,)))
            reason = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
            raise ctx.fail(path, f"at {point}: {reason}") from None
    return family


def _correlation_matrix(ctx: _Context, value, path: str):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ctx.fail(path, "expected a list of rows")
    return tuple(
        tuple(_number(ctx, v, f"{path}[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(value)
    )


_JOINT_ATOM_READERS = {
    "point": _items(_number, "expected a coordinate list"),
    "prob": _number,
}


def _joint_atom(ctx: _Context, value, path: str):
    got = _read_section(ctx, value, path, _JOINT_ATOM_READERS, required=("point", "prob"))
    return got["point"], got["prob"]


_DEPENDENCE_READERS = {
    "mode": _string,
    "K": _dominating_constant,
    "correlation": _number,
    "correlation_matrix": _correlation_matrix,
    "joint_atoms": _items(_joint_atom, "expected a non-empty list of atoms"),
}


def _dependence(ctx: _Context, section, path: str) -> DependenceSpec:
    kwargs = _read_section(ctx, section, path, _DEPENDENCE_READERS)
    kwargs.setdefault("mode", "per_measure_independent")
    try:
        return DependenceSpec(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ctx.fail(path, str(exc)) from None


# ---------------------------------------------------------------------------
# Option sections. The experiment and bound-input tables are built from
# their dataclass fields.


def _mode(ctx: _Context, value, path: str) -> str:
    mode = _string(ctx, value, path).replace("-", "_")
    return _one_of("mode", _MODES)(ctx, mode, path)


_schedule = _items(_integer, "expected a list of integers", least=0)


def _exponent(ctx: _Context, value, path: str) -> float:
    exponent = _finite(ctx, value, path)
    if exponent <= 0.0:
        raise ctx.fail(path, "exponent must be positive")
    return exponent


# Every hashed ExperimentConfig field is a key. An ``int`` or ``float``
# annotation picks the reader; the other fields have their own.
_ANNOTATION_READERS = {"int": _integer, "float": _number}
_EXPERIMENT_READERS = {
    f.name: _ANNOTATION_READERS.get(f.type)
    or {"mode": _mode, "schedule": _schedule, "x_grid_range": _interval}[f.name]
    for f in fields(ExperimentConfig)
    if f.name not in _UNHASHED
}

# Every BoundInputs field is a key; the count and the moment order are
# integers, K is a dominating constant, everything else is a finite number.
_BOUND_INPUT_READERS = {
    f.name: {"n": _integer, "order": _integer, "K": _dominating_constant}.get(
        f.name, _finite
    )
    for f in fields(BoundInputs)
}

# Section name -> key readers, in parse order.
_SECTIONS = {
    "experiment": _EXPERIMENT_READERS,
    "engine": {
        "mc_replications": _at_least(2),
        "enumeration_cap": _at_least(0),
    },
    "bounds": {
        "formula": _one_of("formula", _FORMULAS),
        "form": _one_of("form", ("pre", "post")),
        "tilt": _finite,
        "x": _numbers,
        "choquet_terms": _numbers,
        "max_second_moment": _finite,
        "inputs": _section(_BOUND_INPUT_READERS),
    },
    "choquet": {
        "function": _one_of("function", _CHOQUET_FUNCTIONS),
        "exponent": _exponent,
        "capacity": _one_of("capacity", ("upper", "lower")),
    },
    "verify": {
        "n_cases": _at_least(1),
        "mc_every": _at_least(0),
        "mc_replications": _at_least(2),
        "corpus_cases": _at_least(0),
        "direction": _one_of("direction", ("upper", "lower")),
        "mc_cross_check": _boolean,
    },
}

# The document: the family, then the dependence, then the option sections.
_DOCUMENT_READERS = {
    "family": _family,
    "dependence": _dependence,
    **{name: _section(readers) for name, readers in _SECTIONS.items()},
}


# ---------------------------------------------------------------------------
# Bundle.


@dataclass(frozen=True)
class ConfigBundle:
    """Validated configuration with constructed domain objects.

    ``data`` is the normalized document used for canonical
    serialization; the remaining fields are ready-to-use objects and
    per-section option mappings.
    """

    family: MeasureFamily
    dependence: DependenceSpec
    experiment_options: dict = field(default_factory=dict)
    engine_options: dict = field(default_factory=dict)
    bounds_options: dict = field(default_factory=dict)
    choquet_options: dict = field(default_factory=dict)
    verify_options: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def experiment_config(self, mode: str | None = None, **overrides) -> ExperimentConfig:
        """Build the experiment config, letting CLI flags override the file."""
        options = dict(self.experiment_options)
        options.update({k: v for k, v in overrides.items() if v is not None})
        if mode is not None:
            options["mode"] = mode.replace("-", "_")
        if "mode" not in options:
            raise ConfigError("no experiment mode given", "experiment.mode")
        return ExperimentConfig(
            family=self.family, dependence=self.dependence, **options
        )

    def canonical_yaml(self) -> str:
        return serialize_config(self.data)


def _normalize(value):
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(f"unsupported value type {type(value).__name__}")


def serialize_config(data: dict) -> str:
    """Canonical YAML text: sorted keys, block style, trailing newline."""
    return yaml.safe_dump(
        _normalize(data), sort_keys=True, default_flow_style=False, width=88
    )


def parse_config_text(text: str) -> ConfigBundle:
    raw, lines = _load(text)
    if raw is None:
        raise ConfigError("empty config")
    ctx = _Context(lines)
    got = _read_section(ctx, raw, "", _DOCUMENT_READERS, required=("family",))
    bundle = ConfigBundle(
        family=got.pop("family"),
        dependence=got.pop("dependence", None) or DependenceSpec.independent(),
        data=_normalize(raw),
        **{f"{name}_options": options for name, options in got.items()},
    )
    if "mode" in bundle.experiment_options:
        # The range checks live in ExperimentConfig; run them on the file's
        # values so a failure names the section's line.
        try:
            bundle.experiment_config()
        except (ValueError, TypeError) as exc:
            raise ctx.fail("experiment", str(exc)) from None
    return bundle


def parse_config(path: str) -> ConfigBundle:
    """Parse and validate a config file; see the module docstring."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
