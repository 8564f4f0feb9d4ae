"""`cli.build_parser(argv)` builds only the subtree of the command in argv.

Every message must read as it does from the full tree, so `cli.main` is
run twice on each argv, once as it is and once with the full tree forced,
and stdout, stderr and the exit code must agree: top-level and per-command
`--help`, unknown and missing commands, and usage errors at the top level
and inside a command.
"""

import argparse

import pytest

from monostack import cli


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _help_argvs():
    """[cmd, --help] for every command and [cmd, action, --help] for every
    action of a command that has them."""
    out = []
    for name, parser in _subparsers(cli.build_parser()).choices.items():
        out.append([name, "--help"])
        nested = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
        for action in nested.choices if nested else ():
            out.append([name, action, "--help"])
    return out


ARGVS = [
    ["--help"],
    ["-h"],
    ["--pretty", "--help"],
    ["--help", "delta"],
    *_help_argvs(),
    ["frobnicate"],
    ["--pretty", "frobnicate", "--level", "2"],
    [],
    ["--pretty"],
    ["delta", "--level", "abc"],
    ["delta", "a.json", "b.json"],
    ["--pretty", "delta", "a.json", "b.json"],
    ["delta", "--pretty"],
    ["monoid"],
    ["monoid", "bogus"],
    ["parabolic", "induce", "--to"],
    ["probe", "coherence"],
    ["--bogus", "delta"],
    ["--pre", "delta", "a.json", "b.json"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a) or "(none)")
def test_messages_match_the_full_tree(argv, capsys, monkeypatch):
    code = cli.main(list(argv))
    got = capsys.readouterr()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    want_code = cli.main(list(argv))
    want = capsys.readouterr()
    assert (got.out, got.err, code) == (want.out, want.err, want_code)
    assert got.out or got.err


def test_a_named_command_gets_only_its_subtree():
    assert set(_subparsers(cli.build_parser(["--pretty", "parabolic", "induce"])).choices) == {"parabolic"}
    assert set(_subparsers(cli.build_parser(["delta0"])).choices) == {"delta0"}
    for argv in ([], ["--help"], ["--pre", "delta"], ["frobnicate"]):
        assert set(_subparsers(cli.build_parser(argv)).choices) == set(cli.COMMANDS)
    assert list(cli.COMMANDS) == ["monoid", "delta", "delta0", "infquot", "kummer", "picard", "ideal", "probe", "parabolic"]
