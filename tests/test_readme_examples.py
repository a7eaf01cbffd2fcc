"""The README's examples run as written: the end-to-end commands, then the
privacy-budget sweep from its config and its `pipeline` line, each through
`cli.main` in a fresh directory, so an example the program no longer takes
fails here.  Its subcommand table names exactly the CLI's subcommands."""

import argparse
import csv
import json
import re
import shlex
from pathlib import Path

from margsyn.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks_after(marker: str, count: int) -> list[str]:
    """The bodies of the first `count` fenced code blocks after `marker`."""
    text = README.read_text()
    blocks = re.findall(r"^```\n(.*?)^```$", text[text.index(marker):], flags=re.M | re.S)
    return blocks[:count]


def _commands(block: str) -> list[list[str]]:
    """Each `margsyn ...` command of a shell block as an argv, continuation lines joined."""
    argvs = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert all(argv[0] == "margsyn" for argv in argvs), argvs
    return [argv[1:] for argv in argvs]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    end_to_end, config, pipeline = _blocks_after("Example end to end:", 3)
    monkeypatch.chdir(tmp_path)
    commands = _commands(end_to_end)
    assert [argv[0] for argv in commands] == ["demo", "synth", "train", "eval"]
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, argv
    assert json.loads(capsys.readouterr().out)["accuracy"] > 0.5  # eval's scores

    doc = json.loads(config)
    Path("sweep.json").write_text(config)
    (argv,) = _commands(pipeline)
    assert argv[:3] == ["pipeline", "--config", "sweep.json"]
    assert main(argv) == 0
    with open(Path(doc["out_dir"]) / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(doc["epsilons"]) * doc["repeats"]
    assert all(row["status"] == "ok" for row in rows)


def test_readme_table_names_every_subcommand():
    text = README.read_text()
    table = text[text.index("| subcommand | purpose |"):].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([a-z-]+)` +\|", table, flags=re.M)
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(sub.choices)
