"""The noisy set owns the one marginal operator of a synthesis run.

Building a `MarginalOperator` builds every query's cell -> bin map, so in
`synth.py` it is built only by the cached `NoisyMarginalSet.operator`, and
every synthesizer and diagnostic reaches the maps through it.  No linter is
a dependency, so the check walks the module's syntax tree with the standard
library.
"""

import ast
from pathlib import Path

SYNTH = Path(__file__).resolve().parents[1] / "src" / "margsyn" / "synth.py"


def operator_call_scopes(source: str) -> list[str]:
    """Qualified name of the function or class around each MarginalOperator(...) call."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "MarginalOperator":
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_synth_builds_the_operator_only_in_the_noisy_set():
    assert operator_call_scopes(SYNTH.read_text()) == ["NoisyMarginalSet.operator"]


def test_checker_finds_every_call_with_its_scope():
    source = ("import margsyn.marginals as mg\n"
              "op = MarginalOperator(s, q)\n"
              "class A:\n    def f(self):\n        return mg.MarginalOperator(self.s, [])\n"
              "def g():\n    return [MarginalOperator(s, [x]) for x in q]\n")
    assert operator_call_scopes(source) == ["<module>", "A.f", "g"]
