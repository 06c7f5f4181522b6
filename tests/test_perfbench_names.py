"""Every name the benchmark scripts import from ``lspectra`` still exists in ``src/``.

``perfbench/`` is read, not imported: its scripts build their inputs and run
their ops through these names, so a name moved out of ``src/`` (into the test
helpers, say) breaks a benchmark run and no other test.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def used_names(source: str) -> set:
    """(module, name) of each ``from lspectra.x import name`` and each attribute read off ``lspectra.cli``.

    The CLI module is read as ``lspectra.cli.name`` or through the names it is
    imported as (``import lspectra.cli as cli``).
    """
    tree = ast.parse(source)
    found, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lspectra"):
            found |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names if alias.name == "lspectra.cli" and alias.asname}
    aliases.add("lspectra.cli")
    found |= {("lspectra.cli", node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases}
    return found


def test_every_lspectra_name_perfbench_uses_exists():
    used = set().union(*(used_names(path.read_text(encoding="utf-8")) for path in PERFBENCH.glob("*.py")))
    assert {("lspectra.poincare", "poincare_check"), ("lspectra.poincare", "StructuredComplex"),
            ("lspectra.cli", "build_parser"), ("lspectra.cli", "main")} <= used
    missing = sorted((module, name) for module, name in used if not hasattr(importlib.import_module(module), name))
    assert not missing, missing


def test_a_missing_name_is_seen():
    used = used_names("import lspectra.cli as cli\nfrom lspectra.poincare import gone\ncli.vanished()\n")
    assert used == {("lspectra.poincare", "gone"), ("lspectra.cli", "vanished")}
