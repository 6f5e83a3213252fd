"""Replay recorded CLI calls and compare stdout, stderr and exit code byte for byte.

``golden/cli.json`` holds one record per call: ``argv``, ``stdout``, ``stderr``
and ``exit``.  The calls run in-process through ``cli.main`` with the working
directory set to ``golden/``, where the ``check-instance`` inputs live.
Each recorded argv, and each subcommand's ``--help``, is also read by the
parser of the subcommand it names alone and by the full parser, which must
agree.
"""

import contextlib
import io
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


def _read(parser, argv):
    """What ``parser`` makes of ``argv``: its namespace, its usage error, or
    the text it prints before it exits (``--help``)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(parser.parse_args(argv))
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [r["argv"] for r in RECORDS]
    + [[command, "--help"] for command in cli._SUBCOMMANDS]
    + [["--help"], ["-h", "schroeder"], ["schroeder", "-h", "--n", "x"]],
    ids=lambda argv: " ".join(argv) or "<no args>",
)
def test_one_subcommands_parser_reads_as_the_full_one(argv):
    # main builds the named subcommand's parser alone, and the full one for
    # any other first argument; both must read every call the same
    full = cli.build_parser()
    command = argv[0] if argv and argv[0] in cli._SUBCOMMANDS else None
    one = cli.build_parser(command)
    subparsers = next(a for a in one._actions if a.dest == "command")
    assert len(subparsers.choices) == (1 if command else len(cli._SUBCOMMANDS))
    assert _read(one, argv) == _read(full, argv)
