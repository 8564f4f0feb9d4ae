import io
import os
import json
from fractions import Fraction
from pathlib import Path

import pytest

from monostack.cli import main

SCHEMA_DIR = Path(__file__).parent.parent / "docs" / "schemas"

NONSIMPLICIAL = {"ambient_rank": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]}
NAT = {"ambient_rank": 1, "generators": [[1]]}
N2 = {"ambient_rank": 2, "generators": [[1, 0], [0, 1]]}


def run_cli(args, stdin_payload=None, capsys=None, monkeypatch=None):
    if stdin_payload is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin_payload)))
        args = list(args) + ["-"]
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def make_validator(schema_name):
    import jsonschema
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(doc)))
        resources.append((doc["$id"], Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    return jsonschema.Draft202012Validator(schema, registry=registry)


def test_monoid_info_flags(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["monoid", "info"], stdin_payload=NONSIMPLICIAL, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    data = json.loads(out)
    assert data["flags"] == {"sharp": True, "saturated": True, "simplicial": False}


def test_monoid_info_validates_schema(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["monoid", "info"], stdin_payload=NONSIMPLICIAL, capsys=capsys, monkeypatch=monkeypatch
    )
    data = json.loads(out)
    make_validator("monoid.schema.json").validate(data["monoid"])


def test_saturate_roundtrips_as_input(capsys, monkeypatch):
    payload = {"ambient_rank": 1, "generators": [[2], [3]]}
    code, out, _ = run_cli(
        ["monoid", "saturate"], stdin_payload=payload, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    saturated = json.loads(out)
    make_validator("monoid.schema.json").validate(saturated)
    code, out, _ = run_cli(
        ["monoid", "info"], stdin_payload=saturated, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out)["flags"]["saturated"] is True


def test_picard_trivial_level(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["picard", "--level", "1"], stdin_payload=NONSIMPLICIAL, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    data = json.loads(out)
    assert data["invariant_factors"] == []
    assert data["order"] == 1


def test_cli_determinism(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            ["delta", "--level", "3"], stdin_payload=NAT, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_probe_output_schema_and_growth(tmp_path, capsys):
    src = tmp_path / "cone.json"
    src.write_text(json.dumps(NONSIMPLICIAL))
    code = main(
        ["probe", "coherence", str(src), "--pair", "1,0,0;0,0,1", "--levels", "1,2,3,4"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    make_validator("probe.schema.json").validate(data)
    counts = [row["min_gens"] for row in data["rows"]]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)
    assert all(c >= n + 1 for c, n in zip(counts, (1, 2, 3, 4)))


def test_infquot_confirmed_and_schema(tmp_path, capsys):
    from monostack.infquot import TruncatedProfiniteElement
    from monostack.jsonio import monoid_from_json, profinite_to_json

    pres = monoid_from_json(NONSIMPLICIAL)
    fam = TruncatedProfiniteElement.from_element(pres, (1, 0, 0), 4)
    payload = profinite_to_json(fam)
    make_validator("profinite.schema.json").validate(payload)
    src = tmp_path / "fam.json"
    src.write_text(json.dumps(payload))
    code = main(["infquot", "check", str(src)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["verdict"] == "confirmed"


def test_infquot_inconclusive_exit_code(tmp_path, capsys):
    from monostack.infquot import TruncatedProfiniteElement
    from monostack.jsonio import monoid_from_json, profinite_to_json

    pres = monoid_from_json(NONSIMPLICIAL)
    fam = TruncatedProfiniteElement.from_element(pres, (0, 1, 11), 12)
    src = tmp_path / "fam.json"
    src.write_text(json.dumps(profinite_to_json(fam)))
    code = main(["infquot", "check", str(src)])
    out, _ = capsys.readouterr()
    assert code == 3
    assert json.loads(out)["verdict"] == "inconclusive"


def test_kummer_check_cli(tmp_path, capsys):
    from monostack.jsonio import hom_to_json, monoid_from_json
    from monostack.kummer import MonoidHom

    nat = monoid_from_json(NAT)
    payload = hom_to_json(MonoidHom(nat, nat, ((2,),)))
    make_validator("hom.schema.json").validate(payload)
    src = tmp_path / "hom.json"
    src.write_text(json.dumps(payload))
    code = main(["kummer", "check", str(src)])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data == {"cokernel": [2], "kummer": True}


def _root_hom(source_denominator, target_denominator):
    return {
        "source": dict(NAT, denominator=source_denominator),
        "target": dict(NAT, denominator=target_denominator),
        "matrix": [[1]],
    }


def test_kummer_check_across_denominators(capsys, monkeypatch):
    """N at denominator 3 into N at denominator 6 is the level-2 root inclusion."""
    code, out, err = run_cli(["kummer", "check"], stdin_payload=_root_hom(3, 6), capsys=capsys, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"cokernel": [2], "kummer": True}


def test_generator_outside_the_target_is_named_in_payload_notation(capsys, monkeypatch):
    """1/2 is not in (1/3)N: the error line prints the generator as the payload does."""
    code, out, err = run_cli(["kummer", "check"], stdin_payload=_root_hom(2, 3), capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "error: generator 1/2 does not map into the target monoid\n")


def test_parabolic_roundtrip_through_cli(tmp_path, capsys):
    from fractions import Fraction

    from monostack.graded import graded_algebra, twist
    from monostack.jsonio import (
        monoid_from_json,
        parabolic_from_json,
        parabolic_to_json,
    )
    from monostack.kummer import coset_label
    from monostack.parabolic import from_graded

    nat = monoid_from_json(NAT)
    alg = graded_algebra(nat, 3)
    sheaf = from_graded(twist(alg, coset_label(nat, 3, (Fraction(1, 3),))))
    payload = parabolic_to_json(sheaf)
    make_validator("parabolic.schema.json").validate(payload)
    src = tmp_path / "sheaf.json"
    src.write_text(json.dumps(payload))

    code = main(["parabolic", "to-graded", str(src)])
    graded_out, _ = capsys.readouterr()
    assert code == 0

    back_file = tmp_path / "graded.json"
    back_file.write_text(graded_out)
    code = main(["parabolic", "from-graded", str(back_file)])
    sheaf_out, _ = capsys.readouterr()
    assert code == 0
    again = parabolic_from_json(json.loads(sheaf_out))
    assert again == sheaf

    code = main(["parabolic", "check-induced", str(src), "--divisor", "3"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["induced"] is True


def test_parabolic_restrict_induce_cli(tmp_path, capsys):
    from monostack.fields import QQ
    from monostack.jsonio import monoid_from_json, parabolic_from_json, parabolic_to_json
    from monostack.kummer import zero_label
    from monostack.parabolic import ParabolicSheaf

    nat = monoid_from_json(NAT)
    sheaf = ParabolicSheaf(nat, 4, QQ, {zero_label(nat, 4): 1}, {})
    src = tmp_path / "sky.json"
    src.write_text(json.dumps(parabolic_to_json(sheaf)))

    code = main(["parabolic", "restrict", str(src), "--to", "2"])
    out, _ = capsys.readouterr()
    assert code == 0
    restricted = parabolic_from_json(json.loads(out))
    assert restricted.level == 2 and restricted.total_dim == 1

    code = main(["parabolic", "check-induced", str(src)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["minimal_inducing_level"] == 4


def test_malformed_input_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("this is not json"))
    code = main(["monoid", "info", "-"])
    capsys.readouterr()
    assert code == 1


def test_precondition_violation_exit_code(capsys, monkeypatch):
    bad = {"ambient_rank": 1, "generators": [[1], [-1]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
    code = main(["monoid", "info", "-"])
    capsys.readouterr()
    assert code == 2


def test_pretty_flag_outputs_summary(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NAT)))
    code = main(["--pretty", "monoid", "info", "-"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "\n  " in out  # indented
    assert "sharp=True" in err


def test_hilbert_cli(capsys, monkeypatch):
    payload = {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = main(["monoid", "hilbert", "-"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["hilbert_basis"] == [["0", "2"], ["1", "1"], ["2", "0"]]


def test_ideal_mingens_cli(tmp_path, capsys):
    src = tmp_path / "cone.json"
    src.write_text(json.dumps(NONSIMPLICIAL))
    code = main(
        ["ideal", "mingens", str(src), "--level", "2", "--colon", "1,0,0;0,0,1"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "--level", "0", "cone.json"],
        ["delta", "--level", "-1", "cone.json"],
        ["probe", "coherence", "cone.json", "--pair", "1,0,0;0,0,1", "--levels", "0"],
        ["monoid", "info", "denominator0.json"],
        ["monoid", "info", "denominator-2.json"],
        ["ideal", "mingens", "cone.json", "--level", "0", "--colon", "1,0,0;0,0,1"],
        ["picard", "--level", "-3", "cone.json"],
        ["parabolic", "induce", "--to", "0", "sheaf.json"],
        ["parabolic", "check-induced", "--divisor", "0", "sheaf.json"],
        ["probe", "coherence", "cone.json", "--pair", "1,0,0;0,0,1", "--levels", ","],
        ["probe", "coherence", "cone.json", "--pair", "1,0,0;0,0,1", "--levels", ""],
    ],
)
def test_nonpositive_levels_and_denominators_are_malformed(argv, tmp_path, capsys, monkeypatch):
    from monostack.fields import QQ
    from monostack.jsonio import parabolic_to_json
    from monostack.kummer import zero_label
    from monostack.monoid import validate
    from monostack.parabolic import ParabolicSheaf

    (tmp_path / "cone.json").write_text(json.dumps(NONSIMPLICIAL))
    for d in (0, -2):
        (tmp_path / f"denominator{d}.json").write_text(json.dumps(dict(NONSIMPLICIAL, denominator=d)))
    nat = validate([(1,)])
    sheaf = ParabolicSheaf(nat, 2, QQ, {zero_label(nat, 2): 1}, {})
    (tmp_path / "sheaf.json").write_text(json.dumps(parabolic_to_json(sheaf)))
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert any(line.startswith("error:") for line in err.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ["ideal", "mingens", "cone.json", "--level", "1"],
        ["ideal", "mingens", "cone.json", "--colon", "0,0,0"],
        ["ideal", "mingens", "cone.json", "--colon", "0,0,0;1,0,0;0,1,0"],
        ["probe", "coherence", "cone.json", "--pair", "0,0,0"],
    ],
)
def test_missing_or_misshapen_points_are_malformed(argv, tmp_path, capsys, monkeypatch):
    """No --colon or --generators, or a pair that is not two points, is one
    error line and exit 1, not a traceback or a precondition failure."""
    (tmp_path / "cone.json").write_text(json.dumps(NONSIMPLICIAL))
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "cone.json", "--level", "abc"],
        ["ideal", "mingens", "cone.json", "--generators"],
        ["picard", "cone.json", "--level", "1/2"],
        ["parabolic", "induce", "sheaf.json", "--to"],
        ["probe", "coherence", "cone.json"],
        ["nosuchcommand"],
    ],
)
def test_usage_errors_are_malformed(argv, capsys):
    """argparse's own usage errors exit 1, like every other malformed argument."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "error:" in err.splitlines()[-1]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: monostack")


@pytest.mark.parametrize(
    "extra, code",
    [
        (["--colon", "1,0,0;0,0,1", "--bound", "-1"], 2),
        (["--colon", "1,0,0;0,0,1", "--bound", "0"], 2),
        (["--generators", "1,0,0", "--bound", "1/2"], 2),
        (["--colon", "1,0,0;0,0,1", "--bound", "abc"], 1),
        (["--colon", "1,0,0;0,0,1", "--bound", ""], 1),
    ],
)
def test_ideal_mingens_rejects_regions_without_ideal_points(extra, code, tmp_path, capsys):
    """Any --bound below the certified bound is refused (exit 2), as a
    truncated region may miss minimal generators, and never answered with
    zero or too few generators; a bound that is empty or not a rational is
    malformed input (exit 1)."""
    src = tmp_path / "cone.json"
    src.write_text(json.dumps(NONSIMPLICIAL))
    got = main(["ideal", "mingens", str(src), "--level", "2"] + extra)
    out, err = capsys.readouterr()
    assert got == code
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("extra", [["--generators", "0,0,20"], ["--colon", "0,0,0;0,0,20"]])
def test_ideal_mingens_default_bound_is_certified(extra, tmp_path, capsys):
    """Without --bound the region is the certified one, so a generator far
    beyond 3 * delta_bound (l = 40 > 24 on the cone) is found, not refused."""
    src = tmp_path / "cone.json"
    src.write_text(json.dumps(NONSIMPLICIAL))
    got = main(["ideal", "mingens", str(src), "--level", "1"] + extra)
    out, err = capsys.readouterr()
    assert (got, err) == (0, "")
    assert json.loads(out)["generators"] == [["0", "0", "20"]]


def test_ideal_mingens_clamps_a_larger_bound(tmp_path, capsys):
    """A --bound above the certified one gives the default answer."""
    src = tmp_path / "cone.json"
    src.write_text(json.dumps(NONSIMPLICIAL))
    outs = []
    for extra in ([], ["--bound", "1000"]):
        assert main(["ideal", "mingens", str(src), "--level", "2", "--colon", "1,0,0;0,0,1"] + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_ideal_mingens_refuses_a_bound_below_the_certified_one(tmp_path, capsys):
    """<(1,0),(0,9)> on N^2 has two minimal generators and certified bound 10
    (l(0,9) + C with C = 2, less one).  At --bound 5 the region misses
    (0,9), so the walk is refused; at --bound 10 the bytes are the default's."""
    src = tmp_path / "n2.json"
    src.write_text(json.dumps(N2))
    argv = ["ideal", "mingens", str(src), "--level", "1", "--generators", "1,0;0,9"]
    assert main(argv + ["--bound", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bound 5 is below the certified bound 10\n"
    outs = []
    for extra in ([], ["--bound", "10"]):
        assert main(argv + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["generators"] == [["0", "9"], ["1", "0"]]


@pytest.mark.parametrize("command", ["delta", "delta0"])
def test_delta_past_the_enumeration_budget_exits_2(command, tmp_path, capsys):
    """N^2 at level 10^6 has 10^12 Delta candidates (one unimodular simplex):
    refused at once, before any enumeration."""
    src = tmp_path / "n2.json"
    src.write_text(json.dumps(N2))
    assert main([command, "--level", "1000000", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: level 1000000 has 1000000000000 Delta candidates, past the budget of 2000000\n"



def test_picard_past_the_label_budget_exits_2(tmp_path, capsys):
    """The cone at level 1000 has 10^9 labels: refused before any is listed."""
    src = tmp_path / "cone.json"
    src.write_text(json.dumps(NONSIMPLICIAL))
    assert main(["picard", "--level", "1000", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: level 1000 has 1000000000 labels, past the budget of 2000000\n"


def test_picard_at_the_label_budget_lists_every_label(tmp_path, capsys, monkeypatch):
    """With a budget of 64, level 4 on the cone (4^3 labels) is listed and level 5 is not."""
    from monostack import infquot

    monkeypatch.setattr(infquot, "ENUMERATION_BUDGET", 64)
    src = tmp_path / "cone.json"
    src.write_text(json.dumps(NONSIMPLICIAL))
    assert main(["picard", "--level", "4", str(src)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["invariant_factors"] == [4, 4, 4] and data["order"] == 64
    assert len({tuple(lab) for lab in data["labels"]}) == 64
    assert main(["picard", "--level", "5", str(src)]) == 2
    assert capsys.readouterr().err == "error: level 5 has 125 labels, past the budget of 64\n"


def _skewed_cone(k):
    """The cone over e1, e2, e3 and (k, 1, -1): its two simplices hold k and 1
    half-open parallelepiped points, and its Hilbert basis is the four rays."""
    return {"ambient_rank": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [k, 1, -1]]}


@pytest.mark.parametrize("k", [10**7, 10**30], ids=["1e7", "1e30"])
@pytest.mark.parametrize("action", ["info", "hilbert"])
def test_parallelepipeds_past_the_enumeration_budget_exit_2(action, k, tmp_path, capsys):
    """The parallelepiped points are counted, sum |det C| over the simplices,
    before any is listed: exit 2 within a second, with one error line."""
    import time

    src = tmp_path / "cone.json"
    src.write_text(json.dumps(_skewed_cone(k)))
    start = time.perf_counter()
    code = main(["monoid", action, str(src)])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: the triangulation has {k + 1} parallelepiped points, past the budget of 2000000\n"


def test_parallelepipeds_within_the_enumeration_budget_are_listed(tmp_path, capsys):
    src = tmp_path / "cone.json"
    src.write_text(json.dumps(_skewed_cone(1000)))
    assert main(["monoid", "info", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["flags"] == {"sharp": True, "saturated": True, "simplicial": False}
    assert main(["monoid", "hilbert", str(src)]) == 0
    basis = json.loads(capsys.readouterr().out)["hilbert_basis"]
    assert basis == [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"], ["1000", "1", "-1"]]


FOREIGN_OR_MISSING_FLAGS = [
    (["parabolic", "induce", "sheaf.json"], "the following arguments are required: --to"),
    (["parabolic", "restrict", "sheaf.json"], "the following arguments are required: --to"),
    (["parabolic", "hom", "sheaf.json"], "the following arguments are required: --with"),
    (["parabolic", "to-graded", "sheaf.json", "--to", "3"], "unrecognized arguments: --to 3"),
    (["parabolic", "induce", "sheaf.json", "--to", "4", "--divisor", "2"], "unrecognized arguments: --divisor 2"),
    (["parabolic", "check-induced", "sheaf.json", "--with", "sheaf.json"], "unrecognized arguments: --with sheaf.json"),
    (["infquot", "check", "family.json", "--depth", "4"], "unrecognized arguments: --depth 4"),
]


@pytest.mark.parametrize(
    "argv, message", FOREIGN_OR_MISSING_FLAGS, ids=[" ".join(argv[:2] + argv[3:]) for argv, _ in FOREIGN_OR_MISSING_FLAGS]
)
def test_each_action_takes_only_its_own_arguments(argv, message, tmp_path, capsys, monkeypatch):
    """A missing required flag, or a flag of another action, is a usage error
    (exit 1) on real payloads, before any is read: `hom` without --with does
    not take stdin as its second sheaf."""
    (tmp_path / "sheaf.json").write_text(json.dumps(GOLDEN_PAYLOADS["n2"]))
    (tmp_path / "family.json").write_text(json.dumps(_profinite_payload()))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GOLDEN_PAYLOADS["n2"])))
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    last = err.splitlines()[-1]
    assert " error: " in last and last.endswith(message), err
    assert "NoneType" not in err


@pytest.mark.parametrize(
    "extra, line",
    [
        (["--generators", "1/3,0"], "error: ideal generator 1/3,0 outside (1/n)P\n"),
        (["--colon", "1/3,0;0,1"], "error: 1/3,0 is not an element of (1/n)P\n"),
    ],
    ids=["generators", "colon"],
)
def test_ideal_points_outside_the_level_are_named_in_payload_notation(extra, line, tmp_path, capsys):
    src = tmp_path / "n2.json"
    src.write_text(json.dumps(N2))
    assert main(["ideal", "mingens", str(src), "--level", "1"] + extra) == 2
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize(
    "monoid, labels, line",
    [
        (NAT, {"1": ["0"], "2": ["1/3"]}, "1/3 is not in the level-2 group lattice"),
        (N2, {"2": ["1/3", "0"]}, "1/3,0 is not in the level-2 group lattice"),
        ({"ambient_rank": 2, "generators": [[1, 0]]}, {"2": ["0", "1/2"]}, "0,1/2 is not in the rational span of the group"),
    ],
    ids=["nat", "mixed", "span"],
)
def test_profinite_labels_outside_the_lattice_are_named_in_payload_notation(monoid, labels, line, tmp_path, capsys):
    """Integral entries read as ints, so a label vector can mix ints and
    Fractions; the error line prints both as the payload does."""
    src = tmp_path / "profinite.json"
    src.write_text(json.dumps({"monoid": monoid, "level": 2, "labels": labels}))
    assert main(["infquot", "check", str(src)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: bad profinite payload: {line}\n")
    assert "Fraction(" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["ideal", "mingens", "{src}", "--level", "1", "--generators", "1"],
        ["ideal", "mingens", "{src}", "--level", "1", "--generators", "2", "--bound", "100"],
        ["ideal", "mingens", "{src}", "--level", "1", "--colon", "2;3"],
        ["ideal", "mingens", "{src}", "--level", "1", "--colon", "2;3", "--bound", "1"],
        ["probe", "coherence", "{src}", "--pair", "2;3", "--levels", "1,2"],
    ],
)
def test_ideals_on_unsaturated_monoids_are_refused(command, tmp_path, capsys):
    """Minimality is tested against the Hilbert basis of P, so an unsaturated
    P is a failed precondition (exit 2) whatever the bound, and never an
    answer computed for its saturation."""
    src = tmp_path / "unsat.json"
    src.write_text(json.dumps({"ambient_rank": 1, "generators": [[2], [3]]}))
    got = main([str(src) if a == "{src}" else a for a in command])
    out, err = capsys.readouterr()
    assert got == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("level", [0, -1])
@pytest.mark.parametrize("action, key", [("to-graded", "maps"), ("from-graded", "action")])
def test_nonpositive_payload_level_is_malformed(action, key, level, tmp_path, capsys):
    payload = {
        "monoid": NAT,
        "level": level,
        "field": "Q",
        "components": {"0": 1},
        key: [],
    }
    src = tmp_path / "sheaf.json"
    src.write_text(json.dumps(payload))
    code = main(["parabolic", action, str(src)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: level must be a positive integer, got {level}\n"


GOLDEN_PAYLOADS = json.loads((Path(__file__).parent / "data" / "golden_cli_payloads.json").read_text())


def _corruptions(payload):
    """Copies of a parabolic payload with one matrix entry raised by one, in
    reading order."""
    for m, entry in enumerate(payload["maps"]):
        for i, row in enumerate(entry["matrix"]):
            for j, x in enumerate(row):
                bad = json.loads(json.dumps(payload))
                bad["maps"][m]["matrix"][i][j] = str(Fraction(x) + 1) if isinstance(x, str) else x + 1
                yield bad


def _table_verdict(payload):
    """The full-table verdict on a graded reading of the payload."""
    from helpers import module_law_oracle
    from monostack.graded import GradedModule, graded_algebra
    from monostack.jsonio import _module_from_json

    def build(pres, level, field, dims, action):
        return GradedModule(graded_algebra(pres, level, field), dims, action, check=False)

    return module_law_oracle(_module_from_json(payload, "parabolic", "maps", build))


@pytest.mark.parametrize("name", ["cone", "cone_b", "f5", "n2", "n2b"])
def test_corrupted_sheaf_entry_is_malformed(name, tmp_path, capsys):
    """Single-entry corruptions in reading order get the full table's
    verdict from the reader up to the first one the table rejects, which
    exits 1 on both commands."""
    from monostack.errors import MalformedInput
    from monostack.jsonio import parabolic_from_json

    for bad in _corruptions(GOLDEN_PAYLOADS[name]):
        want = _table_verdict(bad)
        try:
            parabolic_from_json(bad)
            got = True
        except MalformedInput:
            got = False
        assert got == want
        if not want:
            break
    else:
        pytest.fail("no corruption breaks the module law")
    graded = dict(bad)
    graded["action"] = graded.pop("maps")
    for action, payload in (("to-graded", bad), ("from-graded", graded)):
        src = tmp_path / f"{action}.json"
        src.write_text(json.dumps(payload))
        code = main(["parabolic", action, str(src)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("action", ["to-graded", "from-graded"])
def test_non_generator_action_entry_is_malformed(action, tmp_path, capsys):
    """(1/2, 1/2) is a Delta point of N^2 at level 2 but not a Hilbert
    generator, so an entry for it is rejected, not dropped."""
    payload = json.loads(json.dumps(GOLDEN_PAYLOADS["n2"]))
    payload["maps"].append({"gen": "1/2,1/2", "matrix": [["7"]], "rep": "0,0"})
    if action == "from-graded":
        payload["action"] = payload.pop("maps")
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(payload))
    code = main(["parabolic", action, str(src)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: gen 1/2,1/2 is not a Hilbert generator of (1/n)P\n"


def test_nilpotency_failure_is_malformed(monkeypatch, capsys):
    """On N at level 2, x^(1/2) acting by 1 in both directions squares to 1,
    not 0: exit 1 with the generator in payload notation."""
    payload = {
        "monoid": NAT, "level": 2, "field": "Q", "components": {"0": 1, "1/2": 1},
        "action": [{"rep": "0", "gen": "1/2", "matrix": [["1"]]}, {"rep": "1/2", "gen": "1/2", "matrix": [["1"]]}],
    }
    code, out, err = run_cli(["parabolic", "from-graded"], payload, capsys, monkeypatch)
    assert (code, out) == (1, "")
    assert err == "error: module law fails: generator 1/2 to the power 2 acts nontrivially\n"


def _profinite_payload():
    from monostack.infquot import TruncatedProfiniteElement
    from monostack.jsonio import monoid_from_json, profinite_to_json

    return profinite_to_json(TruncatedProfiniteElement.from_element(monoid_from_json(NONSIMPLICIAL), (1, 0, 0), 4))


def _sheaf_payload(**changes):
    return dict({"monoid": NAT, "level": 2, "field": "Q", "components": {"0": 1}, "maps": []}, **changes)


def _f5_with_entry(value):
    payload = json.loads(json.dumps(GOLDEN_PAYLOADS["f5"]))
    entry = payload["maps"][1]["matrix"][0]
    assert entry[0] == 1
    entry[0] = value
    return payload


# Each payload reads as a valid one when its bad value is truncated by int().
NON_INTEGERS = {
    "ambient_rank": (["monoid", "info"], lambda: dict(NAT, ambient_rank=1.9)),
    "generator_fraction": (["monoid", "info"], lambda: {"ambient_rank": 2, "generators": [[1.5, 0], [0, 1]]}),
    "generator_bool": (["monoid", "info"], lambda: {"ambient_rank": 1, "generators": [[True]]}),
    "generator_string": (["monoid", "info"], lambda: {"ambient_rank": 1, "generators": [["1"]]}),
    "denominator": (["monoid", "info"], lambda: dict(NAT, denominator=1.5)),
    "hom_matrix": (["kummer", "check"], lambda: {"source": NAT, "target": NAT, "matrix": [[1.9]]}),
    "profinite_level": (["infquot", "check"], lambda: dict(_profinite_payload(), level=4.5)),
    "parabolic_level": (["parabolic", "to-graded"], lambda: _sheaf_payload(level=2.5)),
    "components": (["parabolic", "to-graded"], lambda: _sheaf_payload(components={"0": 1.5})),
    "gf_entry_fraction": (["parabolic", "to-graded"], lambda: _f5_with_entry(1.5)),
    "gf_entry_string": (["parabolic", "to-graded"], lambda: _f5_with_entry("1")),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGERS))
def test_non_integer_json_values_are_malformed(name, tmp_path, capsys):
    """Integer fields reject booleans, strings and non-integral numbers
    with one error line, instead of truncating them."""
    argv, payload = NON_INTEGERS[name]
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload()))
    code = main(argv + [str(src)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "must be an integer" in err and "Traceback" not in err


# Each payload holds one integer below the least value its schema allows.
BELOW_MINIMUM = {
    "ambient_rank": (["monoid", "info"], lambda: dict(NAT, ambient_rank=-1),
                     "ambient_rank must be a positive integer, got -1"),
    "component_dimension": (["parabolic", "to-graded"], lambda: _sheaf_payload(components={"0": -1}),
                            "component dimension must be a nonnegative integer, got -1"),
    "profinite_level": (["infquot", "check"], lambda: dict(_profinite_payload(), level=0),
                        "level must be a positive integer, got 0"),
    "profinite_label_level": (["infquot", "check"], lambda: dict(_profinite_payload(), labels={"0": ["0", "0", "0"]}),
                              "label level must be a positive integer, got 0"),
}


@pytest.mark.parametrize("name", sorted(BELOW_MINIMUM))
def test_json_values_below_schema_minimum_are_malformed(name, tmp_path, capsys):
    """One error line and exit 1: a negative component dimension is not
    dropped, a negative ambient rank is not a precondition failure, and a
    label level of 0 does not divide by zero."""
    argv, payload, message = BELOW_MINIMUM[name]
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload()))
    code = main(argv + [str(src)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_integral_floats_read_as_integers(tmp_path, capsys):
    """JSON Schema counts 2.0 as an integer, so it reads as 2."""
    floats = {"ambient_rank": 3.0, "denominator": 1.0, "generators": [[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1.0]]}
    outs = []
    for payload in (NONSIMPLICIAL, floats):
        src = tmp_path / "monoid.json"
        src.write_text(json.dumps(payload))
        assert main(["monoid", "info", str(src)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# Each payload holds a list where its schema has an object.
NON_OBJECTS = {
    "components": (["parabolic", "induce", "--to", "4"],
                   {"monoid": N2, "level": 2, "field": "Q", "components": [], "maps": []},
                   "bad parabolic payload: components must be an object"),
    "labels": (["infquot", "check"], {"monoid": N2, "level": 2, "labels": []},
               "bad profinite payload: labels must be an object"),
}


@pytest.mark.parametrize("name", sorted(NON_OBJECTS))
def test_non_object_payload_members_are_malformed(name, tmp_path, capsys):
    argv, payload, message = NON_OBJECTS[name]
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload))
    code = main(argv + [str(src)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "monoid",
    [N2, {"ambient_rank": 2, "generators": [[1, 1], [1, -1]]}],
    ids=["n2", "index2"],
)
@pytest.mark.parametrize("labels", [{"1": ["0"], "2": ["1/2"]}, {"2": ["1/3"]}], ids=["integral", "fractional"])
def test_label_vectors_of_the_wrong_length_are_refused(monoid, labels, tmp_path, capsys):
    """A one-entry label on a rank-2 monoid is a dimension mismatch (exit
    2), as a generator key of the wrong length is: N^2 does not read it as
    a label of residues (0,) and answer inconclusive, and the group of
    index 2 in Z^2 does not fail on it with a traceback."""
    src = tmp_path / "profinite.json"
    src.write_text(json.dumps({"monoid": monoid, "level": 2, "labels": labels}))
    code = main(["infquot", "check", str(src)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: point of dim 1 against cone of dim 2\n")


# Each matrix is x^(1/2,0) out of 0,0 on N^2 at level 2, of the wrong shape:
# a short or a long row, or rows into a component of dimension 0.
MISSHAPEN = {
    "short_row": ({"0,0": 2, "1/2,0": 2}, [[1, 0], [0]]),
    "long_row": ({"0,0": 2, "1/2,0": 2}, [[1, 0], [0, 1, 5]]),
    "into_zero_row": ({"0,0": 1}, [[1, 2]]),
    "into_zero_column": ({"0,0": 1}, [["1"], ["2"]]),
}


@pytest.mark.parametrize("name", sorted(MISSHAPEN))
def test_misshapen_action_matrices_are_malformed(name, tmp_path, capsys):
    """Every row is checked, and a matrix into a zero component, which the
    module drops, is checked too: exit 1 with one error line."""
    components, matrix = MISSHAPEN[name]
    payload = {"monoid": N2, "level": 2, "field": "Q", "components": components,
               "maps": [{"rep": "0,0", "gen": "1/2,0", "matrix": matrix}]}
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload))
    code = main(["parabolic", "to-graded", str(src)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: action matrix for gen 1/2,0 at rep 0,0 has a wrong shape\n")


# On N at level 2 the keys 0 and 1 name one label and the gens 1/2 and 2/4
# one generator: each pair used to overwrite silently, the last one kept.
ALIASED = {
    "components": ({"0": 2, "1/2": 1, "1": 1}, [], "component 0 and component 1 name the same label"),
    "reps": (
        {"0": 1, "1/2": 1},
        [{"rep": "0", "gen": "1/2", "matrix": [["1"]]}, {"rep": "1", "gen": "1/2", "matrix": [["2"]]}],
        "{key} entry rep 0, gen 1/2 and {key} entry rep 1, gen 1/2 name the same label and generator",
    ),
    "gens": (
        {"0": 1, "1/2": 1},
        [{"rep": "0", "gen": "1/2", "matrix": [["1"]]}, {"rep": "0", "gen": "2/4", "matrix": [["2"]]}],
        "{key} entry rep 0, gen 1/2 and {key} entry rep 0, gen 2/4 name the same label and generator",
    ),
}


@pytest.mark.parametrize("command, key", [("to-graded", "maps"), ("from-graded", "action")])
@pytest.mark.parametrize("name", sorted(ALIASED))
def test_aliased_payload_keys_are_malformed(name, command, key, tmp_path, capsys):
    """Two component keys of one label, or two entries of one label and
    generator, exit 1 with one error line naming both in payload notation."""
    components, entries, line = ALIASED[name]
    payload = {"monoid": NAT, "level": 2, "field": "Q", "components": components, key: entries}
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload))
    code = main(["parabolic", command, str(src)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {line.format(key=key)}\n")


# x^(1/2,0) out of 0,0 on N^2 at level 2, with a matrix or a row that is no
# JSON array; over Q the first two used to read as [["1", "2"]] and [["1"]]
# and fit the components, so they exited 0.
NOT_ARRAYS = {
    "string_row": ({"0,0": 2, "1/2,0": 1}, ["12"], ["12"]),
    "string_matrix": ({"0,0": 1, "1/2,0": 1}, "1", 1),
    "object_matrix": ({"0,0": 1, "1/2,0": 1}, {"0": ["1"]}, {"0": [1]}),
    "second_row": ({"0,0": 1, "1/2,0": 2}, [["1"], "0"], [[1], 0]),
}


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
@pytest.mark.parametrize("name", sorted(NOT_ARRAYS))
def test_matrices_that_are_not_arrays_are_malformed(name, field, tmp_path, capsys):
    """A matrix or a row that is not a JSON array exits 1 with one error
    line naming the entry's rep and gen."""
    components, rational, modular = NOT_ARRAYS[name]
    matrix = rational if field == "Q" else modular
    payload = {"monoid": N2, "level": 2, "field": field, "components": components,
               "maps": [{"rep": "0,0", "gen": "1/2,0", "matrix": matrix}]}
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload))
    code = main(["parabolic", "to-graded", str(src)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: maps entry rep 0,0, gen 1/2,0: matrix is not an array of arrays\n")


# JSON numbers that are not integers, as Q entries of x^(1/2) out of 0 on N at
# level 2; both used to exit 0, the first with the action dropped (it reads
# as 0.0), the second as 1/10 (the float nearest to it is 0.1).
FLOAT_ENTRIES = {
    "underflow": "1e-400",
    "long_decimal": "0.1000000000000000055511151231257827",
    "integral": "1.0",
}


@pytest.mark.parametrize("key, command", [("maps", "to-graded"), ("action", "from-graded")])
@pytest.mark.parametrize("name", sorted(FLOAT_ENTRIES))
def test_float_entries_over_q_are_malformed(name, key, command, tmp_path, capsys):
    """Over Q a matrix entry must be a JSON integer or an exact rational
    string: a JSON float exits 1 with one error line naming the entry's rep
    and gen, under either matrix key; the same entry as a string is read."""
    payload = ('{"monoid": {"ambient_rank": 1, "generators": [[1]]}, "level": 2, "field": "Q", '
               '"components": {"0": 1, "1/2": 1}, "%s": [{"rep": "0", "gen": "1/2", "matrix": [[%s]]}]}')
    src = tmp_path / "payload.json"
    src.write_text(payload % (key, FLOAT_ENTRIES[name]))
    code = main(["parabolic", command, str(src)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {key} entry rep 0, gen 1/2: ") and "JSON float" in err and err.count("\n") == 1
    src.write_text(payload % (key, json.dumps(FLOAT_ENTRIES[name])))
    assert main(["parabolic", command, str(src)]) == 0
    capsys.readouterr()


# Rationals spelled with an exponent that `Fraction` would write out to ten
# million digits: as a Q matrix entry the parse ran 14.7 s and then hit the
# int digit limit on the way out (exit 2), as a component key it ran 10.1 s.
HUGE_EXPONENTS = {
    "entry": ({"0": 1, "1/2": 1}, [{"rep": "0", "gen": "1/2", "matrix": [["1e10000000"]]}]),
    "key": ({"1e10000000": 1}, []),
}


@pytest.mark.parametrize("name", sorted(HUGE_EXPONENTS))
def test_rationals_past_the_digit_limit_are_refused_at_once(name, tmp_path, capsys):
    """Exit 1 with one error line, well within a second, before the exponent
    is expanded; "1e2" still reads as 100."""
    import time

    components, maps = HUGE_EXPONENTS[name]
    src = tmp_path / "payload.json"
    src.write_text(json.dumps({"monoid": NAT, "level": 2, "field": "Q", "components": components, "maps": maps}))
    start = time.perf_counter()
    code = main(["parabolic", "to-graded", str(src)])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "'1e10000000' needs more than" in err and err.count("\n") == 1


def test_a_plain_integer_string_past_the_digit_limit_names_its_entry(tmp_path, capsys):
    """Like every other bad matrix entry, it exits 1 with the entry's rep and gen."""
    maps = [{"rep": "0", "gen": "1/2", "matrix": [["9" * 5000]]}]
    src = tmp_path / "payload.json"
    src.write_text(json.dumps({"monoid": NAT, "level": 2, "field": "Q", "components": {"0": 1, "1/2": 1}, "maps": maps}))
    code = main(["parabolic", "to-graded", str(src)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "") and err.startswith("error: maps entry rep 0, gen 1/2: bad rational '999")


# JSON numbers the reader used to round through a float: each is a value of
# the schema's integer type, and 1e-400 read as 0.0 (a GF(3) entry of 1e-400
# silently dropped the action, and `to-graded` exited 0).
NUMBER_PAYLOAD = ('{"monoid": {"ambient_rank": 1, "generators": [[1]]}, "level": %(level)s, "field": "%(field)s", '
                  '"components": %(components)s, "maps": %(maps)s}')
NUMBER_DEFAULTS = {"level": "2", "field": "Q", "components": '{"0": 1}', "maps": "[]"}
NUMBER_PAYLOADS = {
    "dimension": ({"components": '{"0": 1e-400}'}, "component dimension must be an integer, got 1E-400"),
    "level": ({"level": "1e-400"}, "level must be an integer, got 1E-400"),
    "huge_level": ({"level": "1e999999999"}, "level must be an integer, got 1E+999999999"),
    "gf3_entry": ({"field": "Fp:3", "components": '{"0": 1, "1/2": 1}',
                   "maps": '[{"rep": "0", "gen": "1/2", "matrix": [[1e-400]]}]'},
                  "maps entry rep 0, gen 1/2: matrix entry must be an integer, got 1E-400"),
}


@pytest.mark.parametrize("name", sorted(NUMBER_PAYLOADS))
def test_json_numbers_are_read_exactly(name, tmp_path, capsys):
    """The CLI reads a JSON number with a fraction or an exponent exactly, as
    a `Decimal`: 1e-400 is no integer and exits 1, and so does 1e999999999,
    whose int is never built."""
    fields, message = NUMBER_PAYLOADS[name]
    src = tmp_path / "payload.json"
    src.write_text(NUMBER_PAYLOAD % {**NUMBER_DEFAULTS, **fields})
    code = main(["parabolic", "to-graded", str(src)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_an_integral_decimal_dimension_reads_as_an_integer(tmp_path, capsys):
    """A dimension of 2.0 is an integer, as in JSON Schema."""
    outs = []
    for dim in ("2", "2.0"):
        src = tmp_path / "payload.json"
        src.write_text(NUMBER_PAYLOAD % {**NUMBER_DEFAULTS, "components": '{"0": %s}' % dim})
        assert main(["parabolic", "to-graded", str(src)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and '"0": 2' in outs[0]


# Reading these raises a ValueError that is no JSONDecodeError: the UTF-8 decoder's or int()'s.
UNREADABLE = {
    "invalid_utf8": (b'{"ambient_rank": 1, "generators": [[1]]}\xff', "'utf-8' codec can't decode byte 0xff"),
    "long_integer": (b'{"ambient_rank": ' + b"9" * 5000 + b', "generators": [[1]]}', "Exceeds the limit (4300 digits)"),
}


@pytest.mark.parametrize("via", ["file", "stdin"])
@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_json_input_is_malformed(name, via, tmp_path, capsys, monkeypatch):
    """Invalid UTF-8 and an integer past Python's digit limit exit 1 with
    one error line, from a file and from stdin."""
    data, reason = UNREADABLE[name]
    if via == "file":
        (src := tmp_path / "payload.json").write_bytes(data)
        arg = str(src)
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        arg = "-"
    code = main(["monoid", "info", arg])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read JSON input: ") and reason in err and err.count("\n") == 1


def test_unhandled_exception_is_an_internal_error(capsys, monkeypatch):
    """An exception that no exit code maps is a bug: exit 4 (EXIT_INTERNAL)
    with its traceback on stderr and nothing on stdout."""
    from monostack import cli

    def broken(args):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(cli, "cmd_monoid", broken)
    code, out, err = run_cli(["monoid", "info"], NAT, capsys, monkeypatch)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert cli.EXIT_INTERNAL == 4
    assert "Traceback" in err and err.rstrip().endswith("RuntimeError: handler bug")


def test_pretty_summaries_and_element_errors_use_payload_notation(capsys, monkeypatch):
    """The --pretty summary of a confirmed element, and the error line of a
    point outside the monoid, print vectors in payload notation, never as
    Fraction reprs."""
    from monostack.infquot import TruncatedProfiniteElement
    from monostack.jsonio import monoid_from_json, profinite_to_json
    from monostack.monoid import MonoidElement

    family = profinite_to_json(TruncatedProfiniteElement.from_element(monoid_from_json(NONSIMPLICIAL), (2, 3, 5), 12))
    code, out, err = run_cli(["--pretty", "infquot", "check"], family, capsys, monkeypatch)
    assert code == 0 and json.loads(out) == {"element": ["2", "3", "5"], "verdict": "confirmed"}
    assert err == "ConfirmedElement(2,3,5)\n"
    assert "Fraction(" not in err
    with pytest.raises(ValueError) as info:
        MonoidElement(monoid_from_json(NONSIMPLICIAL), (Fraction(1, 2), 0, 0))
    assert str(info.value) == "1/2,0,0 is not an element of the monoid"


class _FullStdout(io.StringIO):
    """A stdout whose write (or only its flush) fails as on a full disk."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
def test_unwritable_stdout_is_an_output_error(fail_on, pretty, capsys, monkeypatch):
    """Writing or flushing the answer fails: exit 5 (EXIT_OUTPUT) with one
    error line and no traceback, and no --pretty summary."""
    from monostack import cli

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(NAT)))
    monkeypatch.setattr("sys.stdout", _FullStdout(fail_on))
    code = main([*pretty, "monoid", "info", "-"])
    err = capsys.readouterr().err
    assert (code, err) == (cli.EXIT_OUTPUT, "error: cannot write the output: [Errno 28] No space left on device\n")
    assert cli.EXIT_OUTPUT == 5


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
def test_stdout_on_a_full_device_exits_5(tmp_path):
    """`monostack delta` with stdout on /dev/full: exit 5 and one error
    line, also after the interpreter's own flush at exit."""
    import subprocess
    import sys

    src = tmp_path / "n2.json"
    src.write_text(json.dumps({"ambient_rank": 2, "generators": [[1, 0], [0, 1]]}))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "monostack", "delta", "--level", "40", str(src)], stdout=full, stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert (proc.returncode, proc.stderr) == (5, "error: cannot write the output: [Errno 28] No space left on device\n")
