"""One declaration per instrument, kept true by a source scan.

Every component declares its instruments once, as rows of a table
(``counter(...)``, ``gauge(...)``, ``histogram(...)``) that
:meth:`MetricsRegistry.bind` binds; writers and ``.stats`` both use the
bound rows.  The registry has no other way to make an instrument, and
no module in ``src/repro`` calls a ``.counter(...)`` / ``.gauge(...)`` /
``.histogram(...)`` attribute, so a family cannot be declared a second
way.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[2] / "src" / "repro"
FACTORIES = {"counter", "gauge", "histogram"}


def _calls(path):
    return [
        node
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
    ]


def test_no_instrument_factory_calls_outside_the_tables():
    offenders = [
        f"{path.relative_to(SOURCE)}:{call.lineno}: .{call.func.attr}("
        for path in sorted(SOURCE.rglob("*.py"))
        for call in _calls(path)
        if isinstance(call.func, ast.Attribute) and call.func.attr in FACTORIES
    ]
    assert offenders == []


def test_each_family_is_declared_exactly_once():
    declared = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for call in _calls(path):
            if isinstance(call.func, ast.Name) and call.func.id in FACTORIES:
                name = ast.literal_eval(call.args[0])
                declared.setdefault(name, []).append(
                    f"{path.relative_to(SOURCE)}:{call.lineno}"
                )
    assert len(declared) > 50
    assert {name: sites for name, sites in declared.items() if len(sites) > 1} == {}
