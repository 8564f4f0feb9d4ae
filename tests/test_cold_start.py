"""Cold start: a `monostack` process imports only the modules its command runs.

Each case runs `cli.main` in a fresh interpreter and records the modules
the import of `monostack.cli` and the run added to `sys.modules`, against
the set taken before the import, so modules that `site` loads do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monostack

SRC = str(Path(monostack.__file__).resolve().parent.parent)

CONE = {"ambient_rank": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]}
N1 = {"ambient_rank": 1, "generators": [[1]]}
N2 = {"ambient_rank": 2, "generators": [[1, 0], [0, 1]]}
HOM = {"source": N1, "target": dict(N1, denominator=2), "matrix": [[1]]}
PROFINITE = {"monoid": N1, "level": 2, "labels": {"1": ["0"], "2": ["1/2"]}}
SHEAF = {"monoid": N1, "level": 2, "field": "Q", "components": {"0": 1, "1/2": 1},
         "maps": [{"rep": "0", "gen": "1/2", "matrix": [["1"]]}]}
MODULE = dict({k: v for k, v in SHEAF.items() if k != "maps"}, action=SHEAF["maps"])

MONOID_ONLY = {"monostack", "monostack.cli", "monostack.errors", "monostack.lattice", "monostack.monoid"}
# the exact monostack modules of these commands: the hom.json and profinite
# readers live in `kummer` and `infquot`, so those two load neither `jsonio`
# nor the module layers behind it, and the ideal side is integer arithmetic
# on the monoid, with no graded module, field or label
EXACT = {
    "kummer": MONOID_ONLY | {"monostack.kummer"},
    "infquot": MONOID_ONLY | {"monostack.kummer", "monostack.infquot"},
    "ideal": MONOID_ONLY | {"monostack.ideals"},
    "probe": MONOID_ONLY | {"monostack.ideals"},
}

CASES = [
    (["monoid", "info"], CONE),
    (["monoid", "hilbert"], CONE),
    (["monoid", "saturate"], CONE),
    (["delta", "--level", "6"], CONE),
    (["delta0", "--level", "6"], CONE),
    (["picard", "--level", "4"], CONE),
    (["kummer", "check"], HOM),
    (["infquot", "check"], PROFINITE),
    (["ideal", "mingens", "--level", "1", "--generators", "1,0;0,9"], N2),
    (["probe", "coherence", "--pair", "1,0,0;0,1,0", "--levels", "1,2"], CONE),
    (["parabolic", "to-graded"], SHEAF),
    (["parabolic", "from-graded"], MODULE),
    (["parabolic", "induce", "--to", "4"], SHEAF),
]

SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
from monostack import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def added_modules(argv, payload, tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv, str(path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    code, added = json.loads(proc.stdout)
    assert code == 0, (argv, proc.stderr)
    return set(added)


@pytest.mark.parametrize("argv,payload", CASES, ids=[" ".join(argv[:1 + (argv[1][0] != "-")]) for argv, _ in CASES])
def test_each_command_imports_only_what_it_runs(argv, payload, tmp_path):
    added = added_modules(argv, payload, tmp_path)
    assert not added & {"dataclasses", "inspect"}, argv
    if argv[0] == "monoid":
        assert {m for m in added if m.startswith("monostack")} == MONOID_ONLY, argv
    if argv[0] in EXACT:
        assert {m for m in added if m.startswith("monostack")} == EXACT[argv[0]], argv
    if argv[0] in ("delta", "delta0"):
        heavy = {f"monostack.{m}" for m in ("graded", "parabolic", "jsonio", "fields")}
        assert not added & heavy, argv
