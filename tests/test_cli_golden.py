"""Replay recorded CLI calls and compare stdout, stderr and exit code byte for byte.

``golden/cli.json`` holds one record per call: ``argv``, ``stdout``, ``stderr``
and ``exit``.  The calls run in-process through ``cli.main`` with the working
directory set to ``golden/``, where the ``check-instance`` inputs live.
"""

import json
from pathlib import Path

import pytest

from avalg import cli

GOLDEN = Path(__file__).parent / "golden"
RECORDS = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "record", RECORDS, ids=[" ".join(r["argv"]) or "<no args>" for r in RECORDS]
)
def test_cli_call_matches_golden(record, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = cli.main(list(record["argv"]))
    out, err = capsys.readouterr()
    assert (out, err, code) == (record["stdout"], record["stderr"], record["exit"])


def test_golden_covers_every_subcommand_and_exit_code():
    commands = {r["argv"][0] for r in RECORDS if r["argv"]}
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert commands >= set(subparsers.choices)
    assert {r["exit"] for r in RECORDS} == {0, 1, 2, 3}
