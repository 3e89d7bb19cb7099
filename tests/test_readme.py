"""The README's library quick start runs against the installed API, its
command lines parse, its config key lists match the config readers, its
layout names every module, and every exported name resolves."""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import caplim
from caplim.cli import _build_parser
from caplim.config import _SECTIONS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_prints_what_it_claims():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "2.0 closed_form\n"


def _cli_lines() -> list[str]:
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), flags=re.S)
    return [line for line in block.group(1).splitlines() if line.startswith("caplim ")]


def test_the_cli_block_lists_commands():
    assert len(_cli_lines()) >= 6


@pytest.mark.parametrize("line", _cli_lines())
def test_each_cli_line_parses_and_names_a_config_that_exists(line):
    args = _build_parser().parse_args(shlex.split(line)[1:])
    assert args.config is None or (README.parent / args.config).is_file()


@pytest.mark.parametrize("section", ["engine", "bounds", "choquet", "verify"])
def test_readme_lists_each_sections_keys(section):
    # The bullet's names before its first ';' are the section's keys.
    bullet = re.search(rf"^- `{section}`: (.*?)(?:;|\.?\n\n)", README.read_text(),
                       flags=re.S | re.M)
    assert set(re.findall(r"`(\w+)`", bullet.group(1))) == set(_SECTIONS[section])


@pytest.mark.parametrize("module", ["caplim", *(
    f"caplim.{info.name}" for info in pkgutil.iter_modules(caplim.__path__))])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", [info.name for info in pkgutil.iter_modules(caplim.__path__)])
def test_the_layout_names_every_module(module):
    layout = re.search(r"## Layout\n+```\n(.*?)```", README.read_text(), flags=re.S).group(1)
    assert re.search(rf"^  {module}\.py ", layout, flags=re.M)
