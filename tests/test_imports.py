"""Every name a margsyn module imports is used in that module.

No linter is a dependency, so the check walks each module's syntax tree with
the standard library: a name bound by `import` or `from ... import` must be
read somewhere else in the module, in code or in a quoted annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "margsyn"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of the import statement, `from __future__` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations such as -> "ExperimentConfig"; other strings do not count
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for const in ast.walk(ann) if ann is not None else ():
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    expr = ast.parse(const.value, mode="eval")
                    used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom x import a, b as c\n"
              "def f(v: 'c') -> float:\n    return math.pi + os.sep + 'a'\n")
    assert unused_imports(source) == ["a (line 4)"]
