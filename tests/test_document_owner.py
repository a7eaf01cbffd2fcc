"""One check for every JSON document the program reads, one writer for every
CSV file it writes.

`dataset._check_document` is the one place that refuses a document that is
not a JSON object, a key the document does not take, a required key left out
and a value of another JSON type; every reader of a document calls it.  JSON
is parsed only by `dataset._read_json`, which names the file of malformed
JSON, so a new document has to be added here.  `dataset._write_csv` opens every CSV file the program writes; the only
other CSV writer is `approx`'s table on stdout.  The checks walk the syntax
tree with the standard library, as `test_operator_owner.py` does.
"""

import ast
from pathlib import Path

from test_operator_owner import call_scopes, scopes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "margsyn"
SOURCES = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}

# Each module's readers of a JSON document, and the one place JSON is parsed:
# each parsed value goes straight to one of the readers.
READERS = {"dataset.py": ["Schema.from_dict", "rules_from_dict", "PreprocessRule.from_dict"],
           "experiment.py": ["ExperimentConfig.from_dict"],
           "learn.py": ["LossSpec.from_dict", "load_model"],
           "cli.py": ["_cmd_bound"]}
PARSERS = {"dataset.py": ["_read_json"]}


def json_parse_scopes(source: str) -> list[str]:
    """Scope of each `json.load` or `json.loads` call."""
    def is_parse(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")
    return scopes(source, is_parse)


def test_every_document_reader_calls_the_one_check():
    for name, readers in READERS.items():
        checked = call_scopes(SOURCES[name], "_check_document")
        for reader in readers:
            assert reader in checked, f"{name}: {reader} reads a document without _check_document"


def test_json_is_parsed_only_where_a_document_is_read():
    parsed = {name: json_parse_scopes(source) for name, source in SOURCES.items()}
    assert {name: found for name, found in parsed.items() if found} == PARSERS


def test_the_check_is_defined_once():
    defined = [name for name, source in SOURCES.items()
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef) and node.name == "_check_document"]
    assert defined == ["dataset.py"]


def test_csv_writers_are_made_by_the_one_writer_and_for_stdout():
    made = {}
    for name, source in SOURCES.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("writer", "DictWriter")):
                made.setdefault(name, []).append(ast.unparse(node))
    assert made == {"dataset.py": ["csv.writer(fh)"], "cli.py": ["csv.writer(sys.stdout)"]}
    assert call_scopes(SOURCES["dataset.py"], "writer") == ["_write_csv"]
