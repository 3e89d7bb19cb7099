"""The README's library quick start runs against the installed API, and
every exported name resolves."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import caplim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_prints_what_it_claims():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "2.0 closed_form\n"


@pytest.mark.parametrize("module", ["caplim", *(
    f"caplim.{info.name}" for info in pkgutil.iter_modules(caplim.__path__))])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
