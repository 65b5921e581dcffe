"""The README's quick starts and config example run as written.

A change that removes or renames a name, a flag or a config key that the
README uses fails here, not in a reader's first session.
"""

import re
import shlex
from pathlib import Path

import ciukit as ck
from ciukit import cli
from conftest import write_classification_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(rf"{heading}.*?```{lang}\n(.*?)```", text, re.S)
    return block


def test_library_quick_start_runs(capsys):
    block = _block(r"## Quick start \(library\)", "python")
    exec(compile(block, f"{README}:quick start", "exec"), {})
    out = capsys.readouterr().out
    for name in ("x1", "x2", "x3", "x4"):
        assert f"\n{name} " in out  # one value line per feature


def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the commands read credit.csv and write model.json and reports/ in the
    # working directory
    monkeypatch.chdir(tmp_path)
    write_classification_csv(tmp_path / "credit.csv")
    block = _block(r"## Quick start \(CLI\)", "sh").replace("\\\n", " ")
    commands = [argv for line in block.splitlines() if (argv := shlex.split(line, comments=True))]
    assert [argv[:2] for argv in commands] == [
        ["ciukit", "explain"], ["ciukit", "global"], ["ciukit", "whatif"],
        ["ciukit", "stability"], ["ciukit", "train"], ["ciukit", "explain"],
    ]
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "reports" / "explain_report.json").exists()


def test_config_example_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(_block(r"JSON config files \(for `--config`\)", "json"), encoding="utf-8")
    space, utility = ck.load_config(path)
    assert space.names == ("age", "grade")
    assert utility.spec(0).declared
