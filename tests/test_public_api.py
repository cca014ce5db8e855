"""Every name the toolkit packages export is reached from outside them.

A name in the ``__all__`` of :mod:`repro.graph`, :mod:`repro.communities`
or :mod:`repro.extensions` stays only if an entry point uses it: code in
``src/repro`` outside the defining package, ``benchmarks/``,
``examples/``, ``perfbench/``, or the API the README documents.  Tests
do not count, so a name kept alive only by its own unit tests fails
here.

A Python file uses a name when it imports it (``from repro.graph import
summarize``) or reads it off an imported module (``graph_io.read_edge_list``).
The README documents a name when it appears in a code span or block
outside its migration tables.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ("graph", "communities", "extensions")


def _python_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
                uses.add(alias.name.rsplit(".", 1)[-1])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                uses.add(node.attr)
    return uses


def _readme_uses():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    # The migration tables name the removed API; naming it there keeps
    # nothing alive.
    text = re.sub(
        r"### Migrating from the removed entry points.*?\n## ", "", text, flags=re.S
    )
    code = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def _entry_point_uses():
    sources = [
        path
        for folder in ("src/repro", "benchmarks", "examples", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    ]
    uses = {path: _python_uses(path) for path in sources}
    uses[ROOT / "README.md"] = _readme_uses()
    return uses


USES = _entry_point_uses()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_reached(package):
    module = importlib.import_module(f"repro.{package}")
    home = ROOT / "src" / "repro" / package
    unreached = [
        name
        for name in module.__all__
        if not any(
            name in names for path, names in USES.items() if home not in path.parents
        )
    ]
    assert not unreached, (
        f"repro.{package} exports names no entry point uses: {unreached}"
    )
