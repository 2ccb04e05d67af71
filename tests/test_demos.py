"""Every name a demo imports from lemlab exists (the demos are not run)."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _lemlab_imports(path):
    """(module, name) for each `from lemlab[.x] import name` in `path`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lemlab":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lemlab":
                    yield alias.name, None


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    imports = list(_lemlab_imports(path))
    assert imports, "%s imports nothing from lemlab" % path.name
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), "%s: %s.%s" % (path.name, module, name)
