"""Declarative run configuration.

A config file is a YAML mapping with a required ``family`` section and
optional ``dependence``, ``engine``, ``experiment``, ``bounds``,
``choquet`` and ``verify`` sections. Marginal parameters may be plain
numbers or small arithmetic expressions in the family parameters, for
example ``var: "sigma**-2"``. Validation is strict: unknown keys are
rejected, and every error message carries the file line it refers to.

Parsing normalizes the document, so ``parse -> serialize -> parse``
reproduces the canonical text exactly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, fields

import yaml

from .bounds import BoundInputs
from .dependence import DependenceSpec
from .limits import ExperimentConfig, _MODES, _UNHASHED
from .measures import Marginal, MeasureFamily, ProductMeasure

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
# Line anchoring: map document paths like family.marginals[0].var to lines.


def _index_lines(text: str) -> dict[str, int]:
    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    index: dict[str, int] = {}

    def walk(node, path: str) -> None:
        if node is None:
            return
        index.setdefault(path, node.start_mark.line + 1)
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                sub = f"{path}.{key_node.value}" if path else str(key_node.value)
                index.setdefault(sub, key_node.start_mark.line + 1)
                walk(value_node, sub)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                walk(item, f"{path}[{i}]")

    walk(root, "")
    return index


class _Context:
    """Carries the line index so errors can be anchored."""

    def __init__(self, lines: dict[str, int]):
        self.lines = lines

    def fail(self, path: str, message: str) -> ConfigError:
        line = self.lines.get(path)
        probe = path
        while line is None and probe:
            probe = probe.rsplit(".", 1)[0] if "." in probe else ""
            line = self.lines.get(probe)
        return ConfigError(message, path, line)


def _require_mapping(ctx: _Context, value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ctx.fail(path, "expected a mapping")
    return value


def _check_keys(ctx: _Context, mapping: dict, path: str, allowed, required=()):
    for key in mapping:
        if key not in allowed:
            raise ctx.fail(
                f"{path}.{key}" if path else str(key),
                f"unknown key {key!r}; allowed: {', '.join(sorted(allowed))}",
            )
    for key in required:
        if key not in mapping:
            raise ctx.fail(path, f"missing required key {key!r}")


def _number(ctx: _Context, value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ctx.fail(path, "expected a number")
    return float(value)


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


# ---------------------------------------------------------------------------
# Marginal parameter expressions.

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _compile_expression(ctx: _Context, text: str, names: tuple[str, ...], path: str):
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ctx.fail(path, f"bad expression {text!r}: {exc.msg}") from None

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
            if node.id not in names:
                raise ctx.fail(
                    path,
                    f"expression {text!r} uses {node.id!r}; "
                    f"known parameters: {', '.join(names)}",
                )
        else:
            raise ctx.fail(
                path,
                f"expression {text!r} may only use numbers, the family "
                "parameters, and + - * / **",
            )

    check(tree)
    code = compile(tree, f"<config:{path}>", "eval")

    def evaluate(env: dict[str, float]) -> float:
        return float(eval(code, {"__builtins__": {}}, env))

    return evaluate


def _value_or_expression(ctx: _Context, value, names, path: str):
    """A number, or a compiled expression in the family parameters."""
    if isinstance(value, bool):
        raise ctx.fail(path, "expected a number or expression string")
    if isinstance(value, (int, float)):
        const = float(value)
        return lambda env, _c=const: _c
    if isinstance(value, str):
        return _compile_expression(ctx, value, names, path)
    raise ctx.fail(path, "expected a number or expression string")


# ---------------------------------------------------------------------------
# Section builders.

_MARGINAL_KEYS = {
    "normal": {"required": ("mean", "var"), "optional": ()},
    "uniform": {"required": ("lo", "hi"), "optional": ()},
    "bernoulli": {"required": ("p",), "optional": ()},
    "discrete": {"required": ("atoms",), "optional": ()},
    "pareto": {"required": ("alpha",), "optional": ("scale",)},
}


def _build_marginal_factory(ctx: _Context, spec: dict, names, path: str):
    _require_mapping(ctx, spec, path)
    kind = _string(ctx, spec.get("kind"), f"{path}.kind") if "kind" in spec else None
    if kind is None:
        raise ctx.fail(path, "missing required key 'kind'")
    if kind not in _MARGINAL_KEYS:
        raise ctx.fail(
            f"{path}.kind",
            f"unknown marginal kind {kind!r}; "
            f"allowed: {', '.join(sorted(_MARGINAL_KEYS))}",
        )
    keys = _MARGINAL_KEYS[kind]
    allowed = ("kind",) + keys["required"] + keys["optional"]
    _check_keys(ctx, spec, path, allowed, required=("kind",) + keys["required"])

    if kind == "discrete":
        atoms_spec = spec["atoms"]
        atoms_path = f"{path}.atoms"
        if not isinstance(atoms_spec, list) or not atoms_spec:
            raise ctx.fail(atoms_path, "expected a non-empty list of [value, prob]")
        pairs = []
        for i, pair in enumerate(atoms_spec):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ctx.fail(f"{atoms_path}[{i}]", "expected a [value, prob] pair")
            v = _value_or_expression(ctx, pair[0], names, f"{atoms_path}[{i}][0]")
            q = _value_or_expression(ctx, pair[1], names, f"{atoms_path}[{i}][1]")
            pairs.append((v, q))

        def make_discrete(env):
            return Marginal.discrete([(v(env), q(env)) for v, q in pairs])

        return make_discrete

    params = {
        key: _value_or_expression(ctx, spec[key], names, f"{path}.{key}")
        for key in keys["required"]
        if key != "kind"
    }
    for key in keys["optional"]:
        if key in spec:
            params[key] = _value_or_expression(ctx, spec[key], names, f"{path}.{key}")

    def make(env):
        got = {key: fn(env) for key, fn in params.items()}
        if kind == "normal":
            return Marginal.normal(got["mean"], got["var"])
        if kind == "uniform":
            return Marginal.uniform(got["lo"], got["hi"])
        if kind == "bernoulli":
            return Marginal.bernoulli(got["p"])
        return Marginal.pareto(got["alpha"], got.get("scale", 1.0))

    return make


def _build_family(ctx: _Context, section: dict, path: str = "family") -> MeasureFamily:
    _require_mapping(ctx, section, path)
    _check_keys(
        ctx,
        section,
        path,
        allowed=("name", "parameters", "resolution", "K", "marginals"),
        required=("parameters", "marginals"),
    )
    name = _string(ctx, section.get("name", "family"), f"{path}.name")
    resolution = _integer(ctx, section.get("resolution", 9), f"{path}.resolution")
    K = _number(ctx, section.get("K", 1.0), f"{path}.K")
    if K < 1.0:
        raise ctx.fail(f"{path}.K", f"K must be at least 1, got {K:g}")

    raw_params = section["parameters"]
    params_path = f"{path}.parameters"
    if not isinstance(raw_params, list) or not 1 <= len(raw_params) <= 2:
        raise ctx.fail(params_path, "expected a list of one or two parameters")
    names = []
    domain = []
    for i, entry in enumerate(raw_params):
        entry_path = f"{params_path}[{i}]"
        _require_mapping(ctx, entry, entry_path)
        _check_keys(ctx, entry, entry_path, ("name", "domain"), ("name", "domain"))
        pname = _string(ctx, entry["name"], f"{entry_path}.name")
        if not pname.isidentifier():
            raise ctx.fail(f"{entry_path}.name", "parameter name must be an identifier")
        if pname in names:
            raise ctx.fail(f"{entry_path}.name", f"duplicate parameter {pname!r}")
        dom = entry["domain"]
        if not isinstance(dom, list) or len(dom) != 2:
            raise ctx.fail(f"{entry_path}.domain", "expected [lo, hi]")
        lo = _number(ctx, dom[0], f"{entry_path}.domain[0]")
        hi = _number(ctx, dom[1], f"{entry_path}.domain[1]")
        if hi < lo:
            raise ctx.fail(f"{entry_path}.domain", "domain must satisfy lo <= hi")
        names.append(pname)
        domain.append((lo, hi))
    names = tuple(names)

    raw_marginals = section["marginals"]
    if not isinstance(raw_marginals, list) or not raw_marginals:
        raise ctx.fail(f"{path}.marginals", "expected a non-empty list")
    factories = [
        _build_marginal_factory(ctx, spec, names, f"{path}.marginals[{i}]")
        for i, spec in enumerate(raw_marginals)
    ]

    def build(*theta):
        env = dict(zip(names, theta))
        return ProductMeasure(tuple(f(env) for f in factories), stationary=True)

    try:
        family = MeasureFamily(
            parameter_domain=tuple(domain),
            builder=build,
            grid_resolution=resolution,
            K=K,
            name=name,
        )
        family.measure_at(family.grid_parameters()[0])
    except (ValueError, TypeError) as exc:
        raise ctx.fail(path, str(exc)) from None
    return family


def _build_dependence(ctx: _Context, section: dict, path: str = "dependence"):
    _require_mapping(ctx, section, path)
    _check_keys(
        ctx,
        section,
        path,
        allowed=("mode", "K", "correlation", "correlation_matrix", "joint_atoms"),
    )
    kwargs = {}
    if "mode" in section:
        kwargs["mode"] = _string(ctx, section["mode"], f"{path}.mode")
    if "K" in section:
        kwargs["K"] = _number(ctx, section["K"], f"{path}.K")
        if kwargs["K"] < 1.0:
            raise ctx.fail(f"{path}.K", f"K must be at least 1, got {kwargs['K']:g}")
    if "correlation" in section:
        kwargs["correlation"] = _number(
            ctx, section["correlation"], f"{path}.correlation"
        )
    if "correlation_matrix" in section:
        mat = section["correlation_matrix"]
        mat_path = f"{path}.correlation_matrix"
        if not isinstance(mat, list) or not all(isinstance(r, list) for r in mat):
            raise ctx.fail(mat_path, "expected a list of rows")
        kwargs["correlation_matrix"] = tuple(
            tuple(_number(ctx, v, f"{mat_path}[{i}][{j}]") for j, v in enumerate(row))
            for i, row in enumerate(mat)
        )
    if "joint_atoms" in section:
        atoms = section["joint_atoms"]
        atoms_path = f"{path}.joint_atoms"
        if not isinstance(atoms, list) or not atoms:
            raise ctx.fail(atoms_path, "expected a non-empty list of atoms")
        rows = []
        for i, atom in enumerate(atoms):
            atom_path = f"{atoms_path}[{i}]"
            _require_mapping(ctx, atom, atom_path)
            _check_keys(ctx, atom, atom_path, ("point", "prob"), ("point", "prob"))
            point = atom["point"]
            if not isinstance(point, list) or not point:
                raise ctx.fail(f"{atom_path}.point", "expected a coordinate list")
            coords = tuple(
                _number(ctx, v, f"{atom_path}.point[{j}]")
                for j, v in enumerate(point)
            )
            rows.append((coords, _number(ctx, atom["prob"], f"{atom_path}.prob")))
        kwargs["joint_atoms"] = tuple(rows)
    kwargs.setdefault("mode", "per_measure_independent")
    try:
        return DependenceSpec(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ctx.fail(path, str(exc)) from None


# ---------------------------------------------------------------------------
# Option sections. Each section is a table of readers, one per key; the
# experiment and bound-input tables are built from their dataclass fields.


def _read_section(ctx: _Context, section, path: str, readers: dict) -> dict:
    """Check ``section`` against ``readers`` and read every key it holds."""
    _require_mapping(ctx, section, path)
    _check_keys(ctx, section, path, allowed=readers)
    return {
        key: read(ctx, section[key], f"{path}.{key}")
        for key, read in readers.items()
        if key in section
    }


def _one_of(what: str, allowed: tuple[str, ...]):
    def read(ctx: _Context, value, path: str) -> str:
        got = _string(ctx, value, path)
        if got not in allowed:
            raise ctx.fail(
                path, f"unknown {what} {got!r}; allowed: {', '.join(allowed)}"
            )
        return got

    return read


def _either(what: str, first: str, second: str):
    def read(ctx: _Context, value, path: str) -> str:
        got = _string(ctx, value, path)
        if got not in (first, second):
            raise ctx.fail(path, f"{what} must be {first!r} or {second!r}")
        return got

    return read


def _mode(ctx: _Context, value, path: str) -> str:
    mode = _string(ctx, value, path).replace("-", "_")
    return _one_of("mode", _MODES)(ctx, mode, path)


def _schedule(ctx: _Context, value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ctx.fail(path, "expected a list of integers")
    return tuple(_integer(ctx, v, f"{path}[{i}]") for i, v in enumerate(value))


def _interval(ctx: _Context, value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ctx.fail(path, "expected [lo, hi]")
    return (_number(ctx, value[0], f"{path}[0]"), _number(ctx, value[1], f"{path}[1]"))


def _numbers(ctx: _Context, value, path: str) -> tuple[float, ...]:
    if isinstance(value, list):
        return tuple(_number(ctx, v, f"{path}[{i}]") for i, v in enumerate(value))
    return (_number(ctx, value, path),)


def _exponent(ctx: _Context, value, path: str) -> float:
    exponent = _number(ctx, value, path)
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
# integers, everything else is a number.
_BOUND_INPUT_READERS = {
    f.name: _integer if f.name in ("n", "order") else _number
    for f in fields(BoundInputs)
}


def _bound_inputs(ctx: _Context, value, path: str) -> dict:
    got = _read_section(ctx, value, path, _BOUND_INPUT_READERS)
    if "K" in got and got["K"] < 1.0:
        raise ctx.fail(f"{path}.K", f"K must be at least 1, got {got['K']:g}")
    return got


_BOUND_FORMULAS = (
    "exp",
    "split",
    "power",
    "chebyshev",
    "choquet-moment",
    "moricz",
    "conjugate",
)

_CHOQUET_FUNCTIONS = ("abs_power", "pos_power", "power")

# Section name -> key readers, in parse order.
_SECTIONS = {
    "experiment": _EXPERIMENT_READERS,
    "engine": {
        "mc_replications": _integer,
        "refinement": _boolean,
        "enumeration_cap": _integer,
    },
    "bounds": {
        "formula": _one_of("formula", _BOUND_FORMULAS),
        "form": _either("form", "pre", "post"),
        "tilt": _number,
        "x": _numbers,
        "choquet_terms": _numbers,
        "max_second_moment": _number,
        "inputs": _bound_inputs,
    },
    "choquet": {
        "function": _one_of("function", _CHOQUET_FUNCTIONS),
        "exponent": _exponent,
        "capacity": _either("capacity", "upper", "lower"),
    },
    "verify": {
        "n_cases": _integer,
        "mc_every": _integer,
        "mc_replications": _integer,
        "corpus_cases": _integer,
        "direction": _either("direction", "upper", "lower"),
        "mc_cross_check": _boolean,
    },
}


# ---------------------------------------------------------------------------
# Bundle.

_TOP_KEYS = ("family", "dependence", *_SECTIONS)


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
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    raise ConfigError(f"unsupported value type {type(value).__name__}")


def serialize_config(data: dict) -> str:
    """Canonical YAML text: sorted keys, block style, trailing newline."""
    return yaml.safe_dump(
        _normalize(data), sort_keys=True, default_flow_style=False, width=88
    )


def parse_config_text(text: str) -> ConfigBundle:
    ctx = _Context(_index_lines(text))
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError(f"not valid YAML: {exc}", line=line) from None
    if raw is None:
        raise ConfigError("empty config")
    _require_mapping(ctx, raw, "")
    _check_keys(ctx, raw, "", allowed=_TOP_KEYS, required=("family",))

    family = _build_family(ctx, raw["family"])
    dependence = (
        _build_dependence(ctx, raw["dependence"])
        if "dependence" in raw
        else DependenceSpec.independent()
    )
    sections = {
        f"{name}_options": _read_section(ctx, raw[name], name, readers)
        for name, readers in _SECTIONS.items()
        if name in raw
    }
    return ConfigBundle(
        family=family, dependence=dependence, data=_normalize(raw), **sections
    )


def parse_config(path: str) -> ConfigBundle:
    """Parse and validate a config file; see the module docstring."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text)
