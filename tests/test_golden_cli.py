"""Golden digests for the `parabolic` and the geometry command lines.

Each case runs `cli.main` in-process on a fixed payload from
`data/golden_cli_payloads.json` and pins the exit code and the sha256 of
stdout.  The payloads are an N^2 level-2 sheaf and a sheaf on the
non-simplicial cone at level 2 over "Q", and an N^2 level-2 sheaf over
"Fp:5"; `from-graded` reads the same payload with "maps" renamed to
"action".  A payload that violates the zero law must exit 1 with a fixed
error line on both read paths.  The geometry commands (`delta`, `delta0`,
`monoid hilbert`, `ideal mingens` and `probe coherence`) run on the
non-simplicial cone over four rays.
"""

import hashlib
import json
from pathlib import Path

import pytest

from monostack.cli import main

PAYLOADS = json.loads((Path(__file__).parent / "data" / "golden_cli_payloads.json").read_text())

# payload -> the second sheaf for `hom --with`
SHEAVES = {"n2": "n2b", "cone": "cone_b", "f5": "f5"}

COMMANDS = {
    "to-graded": ["to-graded", "{p}"],
    "from-graded": ["from-graded", "{g}"],
    "restrict": ["restrict", "{p}", "--to", "1"],
    "induce": ["induce", "{p}", "--to", "4"],
    "check-induced": ["check-induced", "{p}"],
    "check-induced-divisor": ["check-induced", "{p}", "--divisor", "1"],
    "hom": ["hom", "{p}", "--with", "{other}"],
}

DIGESTS = {
    ("cone", "check-induced"): (0, "3de53fce5e97340916a5f532cf61b12949f0b0f751550ebb771e4e7d519251a4"),
    ("cone", "check-induced-divisor"): (0, "05bd7dae6adcf7fa80786b3eb3b1f7d94a49c1b47a1f714279c79ab76c7e2052"),
    ("cone", "from-graded"): (0, "25c5ca8d1a78bd90d4fa723d438f6d6e6b1e07c7e7628ebac753fd10e63a2655"),
    ("cone", "hom"): (0, "990ff1de88864912199cd9bf484a9744adbd4623e96066535466921559d09160"),
    ("cone", "induce"): (0, "e2df8de42b85cd12cf2a5c4c5434f9222e7beda73ea9419c91a0d5c7e90838ba"),
    ("cone", "restrict"): (0, "c9f3f65a959e4009412742e2aa2962a501989cd1e71752a3dd3cc1440088dfc5"),
    ("cone", "to-graded"): (0, "da41867ed83e094f0eff74fc8d32aae4374c9bf72305c58d177fe8a47a58f139"),
    ("f5", "check-induced"): (0, "3de53fce5e97340916a5f532cf61b12949f0b0f751550ebb771e4e7d519251a4"),
    ("f5", "check-induced-divisor"): (0, "05bd7dae6adcf7fa80786b3eb3b1f7d94a49c1b47a1f714279c79ab76c7e2052"),
    ("f5", "from-graded"): (0, "725ef26679a30534683deed9dfbee920cfab1f842b545fe012a1d0086b1d9571"),
    ("f5", "hom"): (0, "fa744dbde51fa81c1f38ca4554793819e420f4f69a9df0be4139a54e40899a56"),
    ("f5", "induce"): (0, "9081bf612cd15a82740e06b363decf762b8ec54f7199d601279756c1263670c7"),
    ("f5", "restrict"): (0, "bbf58a99c38af21292a5c10eba7a9c269d96fdfbef20129ad8de09df8e55bcd5"),
    ("f5", "to-graded"): (0, "a83913c080d6439a6f135ae8c4d68de159f434216ba0e91e312c0a42438575e2"),
    ("n2", "check-induced"): (0, "3de53fce5e97340916a5f532cf61b12949f0b0f751550ebb771e4e7d519251a4"),
    ("n2", "check-induced-divisor"): (0, "05bd7dae6adcf7fa80786b3eb3b1f7d94a49c1b47a1f714279c79ab76c7e2052"),
    ("n2", "from-graded"): (0, "b1d314546b680094d63d3d096f4c31bc533abab371fda001a29a6a39060dc22b"),
    ("n2", "hom"): (0, "cfd4df88b0dc395f2572c7a3ab1b60d81fe9e6433948cd70dd8a8e884eeae79d"),
    ("n2", "induce"): (0, "b5ac6832d09a22f58bdec433b35037e02bf1b58f5aae5d0108b862940ded466e"),
    ("n2", "restrict"): (0, "37c5450cc1250cd887e7ba47698ddd085f0c6fc089c39fca7da027896a2a3e2c"),
    ("n2", "to-graded"): (0, "5c004d9f7ae4861c0f79168eb472751c8f80e9b5b80ee1f93f03924542aa1c93"),
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _graded(payload):
    out = dict(payload)
    out["action"] = out.pop("maps")
    return out


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(SHEAVES))
def test_parabolic_cli_matches_golden_digests(name, command, tmp_path, capsys):
    paths = {
        "p": _write(tmp_path, "sheaf.json", PAYLOADS[name]),
        "g": _write(tmp_path, "graded.json", _graded(PAYLOADS[name])),
        "other": _write(tmp_path, "other.json", PAYLOADS[SHEAVES[name]]),
    }
    argv = ["parabolic"] + [part.format(**paths) for part in COMMANDS[command]]
    code, out, err = _run(argv, capsys)
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[(name, command)]


@pytest.mark.parametrize(
    "action, graded, message",
    [
        ("to-graded", False, "structure matrix for 1 violates the zero law"),
        ("from-graded", True, "generator 1 leaves Delta but acts nontrivially"),
    ],
    ids=["to-graded", "from-graded"],
)
def test_zero_law_violation_is_malformed(action, graded, message, tmp_path, capsys):
    payload = PAYLOADS["zero_law"]
    path = _write(tmp_path, "bad.json", _graded(payload) if graded else payload)
    code, out, err = _run(["parabolic", action, path], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


CONE = {"ambient_rank": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]}

GEOMETRY_DIGESTS = {
    ("delta", "--level", "12"): "9f0482b85b18542e1232eb3f6e0a36fb2758b74866e56e8e793a6dd602d2d6e9",
    ("delta0", "--level", "12"): "fc4e9775217b3536a0caebd5d70a0b1be6bb24505c31764f7d395403285e8731",
    ("monoid", "hilbert"): "7c5f594f913e76d20c0449d3c071903e22323a0a125d34a066b554e909807f5b",
    ("ideal", "mingens", "--level", "2", "--colon", "1,0,0;0,0,1"):
        "39b766e122bbe29b18bcbd2f9674da0cc7b66b2725824e79f27a9a90e5e3753d",
    ("probe", "coherence", "--pair", "1,0,0;0,0,1", "--levels", "1,2,3"):
        "b35e65ea1c792c90b979c7f91e2c3235f2b79c4271bc7deff40f7a7542f45cc2",
}


@pytest.mark.parametrize("argv", sorted(GEOMETRY_DIGESTS), ids=" ".join)
def test_geometry_cli_matches_golden_digests(argv, tmp_path, capsys):
    code, out, err = _run(list(argv) + [_write(tmp_path, "cone.json", CONE)], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GEOMETRY_DIGESTS[argv]
