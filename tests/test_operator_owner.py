"""One marginal operator per (schema, d), one noisy vector per synthesis run,
and only `synthesize` turns a synthesizer's cell counts into a dataset.

Every release over one schema and marginal order d reads one
`MarginalOperator`, `marginals.order_operator(schema, d)`: the releases of a
sweep, its refusal check and the CLI's marginal dump build one between
them, and another d builds one more.  In a release the real marginals, the
noise (drawn into one vector by one generator in
`privacy.add_noise_to_set`) and the `synth.Release` that holds it all use
its layout, every synthesizer and diagnostic reaches the cell -> bin maps
through it, and `synth.py` never sets an object's state through `vars()`.
Every synthesizer outputs cell counts, from which `synthesize` takes the
output's marginals and builds its dataset (`Dataset.from_counts`), so
nothing in `synth.py` counts rows back into cells.  No linter is a
dependency, so the static checks walk the module's syntax tree with the
standard library.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from margsyn.cli import main
from margsyn.dataset import Dataset, Schema, write_csv
from margsyn.experiment import ExperimentConfig, run_experiment
from margsyn.marginals import MarginalOperator, order_operator
from margsyn.privacy import PrivacyParams
from margsyn.synth import generate_synthetic

from conftest import random_dataset

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


# n=3 on 16 cells is 816 candidates: exhaustive under cap 10,000, fitted under cap 0
@pytest.mark.parametrize("mode, cap, path", [("brute", 10_000, "exhaustive"),
                                             pytest.param("brute", 0, "fitted", id="brute-above-cap"),
                                             ("fitted", 10_000, "fitted")])
def test_generate_synthetic_builds_one_operator(mode, cap, path, monkeypatch, tmp_path):
    built = []
    init = MarginalOperator.__init__

    def counted(op, schema, queries):
        built.append(op)
        init(op, schema, queries)

    monkeypatch.setattr(MarginalOperator, "__init__", counted)
    order_operator.cache_clear()
    schema = Schema(("a", "b", "c", "label"), (2, 2, 2, 2))
    real = Dataset(schema, np.array([[0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]]))
    for seed in (0, 1):
        _, report = generate_synthetic(real, 2, PrivacyParams(1.0, 1e-4), mode=mode, seed=seed, cap=cap)
        assert report.path == path
    # a sweep's refusal check and its cells, and the CLI's marginal dump, on 40 rows over
    # the same schema read back from its file
    data, schema_path = tmp_path / "real.csv", tmp_path / "schema.json"
    write_csv(random_dataset(schema, 40, seed=1), data)
    schema.to_file(schema_path)
    result = run_experiment(ExperimentConfig(str(data), str(schema_path), str(tmp_path / "sweep"),
                                             epsilons=(1.0, 2.0), repeats=1, d=2, tau=0.5, mode=mode))
    assert result.all_ok
    assert main(["synth", "--data", str(data), "--schema", str(schema_path), "--out",
                 str(tmp_path / "syn.csv"), "--mode", mode, "--order", "2",
                 "--marginals-out", str(tmp_path / "margs")]) == 0
    assert len(built) == 1
    generate_synthetic(real, 1, PrivacyParams(1.0, 1e-4), mode=mode, cap=cap)
    assert len(built) == 2


def test_synth_builds_rows_only_in_synthesize_and_never_counts_them():
    source = SYNTH.read_text()
    assert call_scopes(source, "from_counts") == ["synthesize"]
    assert attribute_scopes(source, "weighted") == []
    assert call_scopes(source, "cell_counts") == []


def test_the_mechanism_builds_no_per_query_marginal():
    assert call_scopes(SYNTH.read_text(), "vars") == []


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
