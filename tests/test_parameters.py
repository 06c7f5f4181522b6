"""No test-only knobs: every defaulted parameter that the program offers, the program passes somewhere.

The sources of ``src/lspectra`` and ``perfbench`` are read with ``ast``.  A
public function, a public method of a public class, or a public class (its
``__init__``) is checked when they name it, in a call or read without one,
as ``cli._SUITES`` holds the suites; names are matched alone, so a method is
matched by any attribute of that name.  Each parameter with a default must
then be passed, by position or by keyword, in at least one call naming it.
A parameter that only the tests pass is a second code path that no user
runs, and fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(root: Path) -> list:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for folder in ("src/lspectra", "perfbench") for path in sorted((root / folder).glob("*.py"))]


def _defaulted(args: ast.arguments, bound: bool) -> list:
    """(name, position) of each parameter with a default, the position None for a keyword-only one.

    A bound method's positions are counted after self or cls.
    """
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, k - bound) for k, a in enumerate(positional) if k >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _callables(tree):
    """(name, defaulted parameters) of each public function, method and class of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, _defaulted(node.args, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                bound = not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__":
                    yield node.name, _defaulted(item.args, True)
                elif not item.name.startswith("_"):
                    yield item.name, _defaulted(item.args, bound)


def _calls(trees) -> dict:
    """name -> [(positional count, keywords)] of each call naming it; a starred argument passes them all.

    A name read without a call, as a table of functions holds it, maps to
    [] at least: it is called, but passes nothing.
    """
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.id if isinstance(node, ast.Name) else node.attr, [])
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                f = node.func
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                out.setdefault(f.id if isinstance(f, ast.Name) else f.attr, []).append(
                    (float("inf") if starred else len(node.args), {k.arg for k in node.keywords}))
    return out


def unpassed_parameters(root: Path) -> list:
    """"name(parameter)" for each defaulted parameter of a called public callable that no call passes."""
    trees = _trees(root)
    calls = _calls(trees)
    out = []
    for tree in trees:
        for name, params in _callables(tree):
            found = calls.get(name)
            for param, position in params if found is not None else ():
                if not any(param in kw or None in kw or position is not None and n > position for n, kw in found):
                    out.append(f"{name}({param})")
    return out


class TestNoTestOnlyParameters:
    def test_every_defaulted_parameter_is_passed_by_the_program(self):
        assert unpassed_parameters(ROOT) == []

    def test_a_parameter_only_the_tests_pass_is_flagged(self, tmp_path):
        # a copy of the program whose table() gains a knob that no call passes
        for folder in ("src/lspectra", "perfbench"):
            (tmp_path / folder).mkdir(parents=True)
            for path in (ROOT / folder).glob("*.py"):
                (tmp_path / folder / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        ltables = tmp_path / "src/lspectra/ltables.py"
        source = ltables.read_text(encoding="utf-8")
        assert source.count("def table(name: str, window=(-16, 16))") == 1
        ltables.write_text(source.replace("def table(name: str, window=(-16, 16))",
                                          "def table(name: str, window=(-16, 16), check=True)"), encoding="utf-8")
        assert unpassed_parameters(tmp_path) == ["table(check)"]
