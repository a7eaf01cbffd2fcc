"""The noisy set owns the one marginal operator of a synthesis run, and only
`synthesize` turns a synthesizer's cell counts into a dataset.

Building a `MarginalOperator` builds every query's cell -> bin map, so in
`synth.py` it is built only by the cached `NoisyMarginalSet.operator`, and
every synthesizer and diagnostic reaches the maps through it.  Every
synthesizer outputs cell counts, from which `synthesize` takes the output's
marginals and builds its dataset (`Dataset.from_counts`), so nothing in
`synth.py` counts rows back into cells.  No linter is a dependency, so the
checks walk the module's syntax tree with the standard library.
"""

import ast
from pathlib import Path

SYNTH = Path(__file__).resolve().parents[1] / "src" / "margsyn" / "synth.py"


def scopes(source: str, matches) -> list[str]:
    """Qualified name of the function or class around each node that `matches` accepts."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if matches(node):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def call_scopes(source: str, name: str) -> list[str]:
    """Scope of each call of `name`, bare or as an attribute."""
    def is_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name
    return scopes(source, is_call)


def attribute_scopes(source: str, attr: str) -> list[str]:
    """Scope of each access to an attribute named `attr`."""
    return scopes(source, lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def test_synth_builds_the_operator_only_in_the_noisy_set():
    assert call_scopes(SYNTH.read_text(), "MarginalOperator") == ["NoisyMarginalSet.operator"]


def test_synth_builds_rows_only_in_synthesize_and_never_counts_them():
    source = SYNTH.read_text()
    assert call_scopes(source, "from_counts") == ["synthesize"]
    assert attribute_scopes(source, "weighted") == []
    assert call_scopes(source, "cell_counts") == []


def test_checker_finds_every_call_with_its_scope():
    source = ("import margsyn.marginals as mg\n"
              "op = MarginalOperator(s, q)\n"
              "class A:\n    def f(self):\n        return mg.MarginalOperator(self.s, [])\n"
              "def g():\n    return [MarginalOperator(s, [x]) for x in q]\n")
    assert call_scopes(source, "MarginalOperator") == ["<module>", "A.f", "g"]


def test_checker_finds_every_attribute_access_with_its_scope():
    source = ("rows = ds.weighted\n"
              "class A:\n    def f(self, ds):\n        codes, counts = ds.weighted\n"
              "def g(x, weighted):\n    return x.weighted.counts, x.weightedness, weighted\n")
    assert attribute_scopes(source, "weighted") == ["<module>", "A.f", "g"]
