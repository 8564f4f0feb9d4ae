"""Set-up and job lists of the three workloads.

Each workload's `setup` turns the seeded data of `inputs` into library
objects or payload files and returns its jobs.  A job's `run` is the only
part that is timed; `canon` (the canonical text whose digest is stored for
the default seed) and `check` (exact invariants, for any seed) run after
the timed loop.  `check` returns None or the reason the job failed.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs
from monostack import cli, fields, graded, infquot, jsonio, kummer, monoid, parabolic

CLI_TIMEOUT_S = 120


@dataclass
class Job:
    id: str
    family: str
    run: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[object], object] = lambda out: None
    # clear the library's caches before the job, untimed, to stand in for a fresh process
    fresh: bool = False


def clear_caches():
    infquot.delta_points.cache_clear()
    graded.graded_algebra.cache_clear()


def _vec(v):
    return [str(Fraction(a)) for a in v]


def _dumps(obj):
    return json.dumps(obj, sort_keys=True)


def _first(items, pred):
    return next((x for x in items if pred(x)), None)


# -- geometry -----------------------------------------------------------------


def _delta_canon(ds):
    return _dumps({"points": [_vec(p) for p in ds.points], "mask": list(ds.delta0_mask)})


def _delta_check(pres_of):
    def check(ds):
        pres = pres_of()
        bad = _first(ds.points, lambda p: not infquot.in_delta(pres, p))
        if bad is not None:
            return f"Delta point {bad} fails in_delta"
        if list(ds.points) != sorted(ds.points):
            return "Delta points are not lex-sorted"
        return None

    return check


def _probe_check(strict):
    def check(rows):
        counts = [r["min_gens"] for r in rows]
        if strict:
            if not all(a < b for a, b in zip(counts, counts[1:])):
                return f"cone probe counts {counts} do not strictly increase"
            if any(c < r["n"] + 1 for c, r in zip(counts, rows)):
                return f"cone probe counts {counts} fall below n + 1"
        elif len(set(counts)) != 1:
            return f"simplicial probe counts {counts} are not constant"
        return None

    return check


def _probe_canon(rows):
    return _dumps(
        [{"n": r["n"], "min_gens": r["min_gens"], "generators": [_vec(g) for g in r["generators"]]} for r in rows]
    )


def _monoid_job(gens):
    pres = monoid.validate(gens)
    sat = monoid.saturate(pres)
    return {
        "sat": sat,
        "hilbert": sat.hilbert_basis,
        "picard": [kummer.picard_group(sat, n).invariant_factors for n in (2, 3, 4)],
        "kummer": [kummer.is_kummer(kummer.root_inclusion(sat, n)) for n in (2, 3)],
    }


def _monoid_canon(out):
    return _dumps(
        {
            "generators": [list(g) for g in out["sat"].generators],
            "hilbert": [_vec(v) for v in out["hilbert"]],
            "picard": [list(f) for f in out["picard"]],
            "kummer": out["kummer"],
        }
    )


def _monoid_check(out):
    sat = out["sat"]
    if not sat.is_saturated:
        return "saturation is not saturated"
    r = sat.group_rank
    for n, factors in zip((2, 3, 4), out["picard"]):
        order = 1
        for d in factors:
            order *= d
        if order != n**r:
            return f"picard group at level {n} has order {order}, expected {n}^{r}"
    if not all(out["kummer"]):
        return "a root inclusion fails the Kummer test"
    return None


def _infquot_job(fam):
    pres = monoid.validate(fam["monoid"])
    element = infquot.TruncatedProfiniteElement.from_element(pres, fam["element"], fam["level"])
    return element, infquot.is_infinite_quotient(element)


def _infquot_canon(out):
    _, verdict = out
    extra = _vec(verdict.element.vector) if verdict.is_confirmed else verdict.level
    return _dumps([verdict.kind, extra])


def _infquot_check(fam):
    def check(out):
        element, verdict = out
        if verdict.is_confirmed:
            p = verdict.element.vector
            for n, lab in element.labels.items():
                if kummer.coset_label(element.monoid, n, tuple(Fraction(a, n) for a in p)) != lab:
                    return f"confirmed element {p} does not carry the family's level-{n} label"
        if fam["strict"]:
            want = tuple(Fraction(a) for a in fam["element"])
            if not verdict.is_confirmed or verdict.element.vector != want:
                return f"element {fam['element']} inside the sweep region came back as {verdict}"
        return None

    return check


def setup_geometry(seed, work, traced):
    data = inputs.geometry_inputs(seed)
    clear_caches()
    jobs = []
    for gens, n in data["delta"]:
        name = "N3" if len(gens) == 3 else "cone"
        jobs.append(
            Job(
                f"delta:{name}:{n}",
                "delta",
                lambda gens=gens, n=n: infquot.delta_points(monoid.validate(gens), n),
                _delta_canon,
                _delta_check(lambda gens=gens: monoid.validate(gens)),
            )
        )
    for gens, (a, b), levels in data["probes"]:
        name = "cone" if len(gens) == 4 else "N2"
        jobs.append(
            Job(
                f"probe:{name}",
                "probe",
                lambda gens=gens, a=a, b=b, levels=levels: graded.coherence_probe(
                    monoid.validate(gens), a, b, list(levels)
                ),
                _probe_canon,
                _probe_check(strict=name == "cone"),
            )
        )
    results = {}
    for i, gens in enumerate(data["monoids"]):

        def run_monoid(i=i, gens=gens):
            results[i] = _monoid_job(gens)
            return results[i]

        jobs.append(Job(f"monoid:{i}", "monoid", run_monoid, _monoid_canon, _monoid_check))
        jobs.append(
            Job(
                f"delta3:{i}",
                "delta",
                lambda i=i: infquot.delta_points(results[i]["sat"], 3),
                _delta_canon,
                _delta_check(lambda i=i: results[i]["sat"]),
            )
        )
    for k, fam in enumerate(data["families"]):
        jobs.append(
            Job(
                f"infquot:{k}",
                "monoid",
                lambda fam=fam: _infquot_job(fam),
                _infquot_canon,
                _infquot_check(fam),
            )
        )
    return jobs


# -- sheaf --------------------------------------------------------------------


def build_module(spec):
    """The graded module a `inputs._module_spec` recipe describes."""
    pres = monoid.validate(spec["monoid"])
    alg = graded.graded_algebra(pres, spec["level"])
    src = graded.direct_sum([graded.twist(alg, alg.labels[i]) for i in spec["source"]])
    if spec["kind"] == "sum":
        return src
    tgt = graded.direct_sum([graded.twist(alg, alg.labels[i]) for i in spec["target"]])
    _, basis = parabolic.hom_space(parabolic.from_graded(src), parabolic.from_graded(tgt))
    field = alg.field
    coeffs = spec["coeffs"]
    blocks = {}
    for lab in src.dims:
        acc = None
        for k, hom in enumerate(basis):
            c = field.of_int(coeffs[k % len(coeffs)])
            scaled = fields.mat_scale(field, c, hom.block(lab))
            acc = scaled if acc is None else fields.mat_add(field, acc, scaled)
        if acc is not None:
            blocks[lab] = acc
    f = graded.GradedMap(src, tgt, blocks, check=False)
    sub, _ = graded.kernel(f) if spec["kind"] == "kernel" else graded.image(f)
    # a zero kernel or image leaves nothing to induce; fall back to the source
    return sub if sub.total_dim else src


def _sheaf_json(sheaf):
    return _dumps(jsonio.parabolic_to_json(sheaf))


def _hom_canon(out):
    dim, maps = out
    return _dumps(
        [dim]
        + [
            [
                [[str(c) for c in lab.normal_form], jsonio.matrix_to_json(m.source.field, blk)]
                for lab, blk in sorted(m.blocks.items(), key=lambda kv: kv[0].normal_form)
            ]
            for m in maps
        ]
    )


def setup_sheaf(seed, work, traced):
    clear_caches()
    jobs = []
    for k, (spec, level) in enumerate(inputs.sheaf_inputs(seed)):
        src = parabolic.from_graded(build_module(spec))
        # warm the target algebra: the jobs time induction, not Delta tables
        graded.graded_algebra(src.monoid, level, src.field)
        out = {}

        def run_induce(src=src, level=level, out=out):
            out["induced"] = parabolic.induce(src, level)
            return out["induced"]

        def run_to_json(out=out):
            out["text"] = json.dumps(jsonio.parabolic_to_json(out["induced"]), sort_keys=True)
            return out["text"]

        def check_roundtrip(sheaf, out=out):
            return None if sheaf == out["induced"] else "JSON round trip changed the sheaf"

        m = src.level
        jobs += [
            Job(f"induce:{k}", "induce", run_induce, _sheaf_json),
            Job(
                f"check_induced:{k}",
                "check_induced",
                lambda out=out, m=m: parabolic.is_induced_from(out["induced"], m),
                _dumps,
                lambda flag, m=m: None if flag is True else f"induced sheaf fails is_induced_from at level {m}",
            ),
            # A few milliseconds on sources this small: too short to repeat
            # within a tenth, so it counts in wall_s only, not in hom_s.
            Job(
                f"hom:{k}",
                "other",
                lambda src=src: parabolic.hom_space(src, src),
                _hom_canon,
                lambda res: None if res[0] >= 1 else "hom_space(E, E) has dimension 0",
            ),
            Job(f"to_json:{k}", "other", run_to_json, lambda text: text),
            Job(
                f"ingest:{k}",
                "ingest",
                lambda out=out: jsonio.parabolic_from_json(json.loads(out["text"])),
                _sheaf_json,
                check_roundtrip,
            ),
        ]
    return jobs


# -- cli-cold -----------------------------------------------------------------


def _write(work, name, payload):
    with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def _cli_subprocess(argv, work):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "monostack", *argv],
            cwd=work,
            env=env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {CLI_TIMEOUT_S} s"
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _cli_inprocess(argv, work):
    """cli.main in this process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _cli_canon(res):
    code, out, _ = res
    return _dumps([code, out])


def _cli_check(extra=None):
    def check(res):
        code, out, err = res
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not one JSON payload"
        return extra(payload) if extra else None

    return check


def _cli_delta_check(pres):
    def check(payload):
        bad = _first(payload["points"], lambda p: not infquot.in_delta(pres, jsonio.vec_from_json(p)))
        return None if bad is None else f"Delta point {bad} fails in_delta"

    return check


def _cli_probe_check(payload):
    return _probe_check(strict=True)(payload["rows"])


# ROADMAP aim 3: each must exit 1 with an "error:" line and no traceback.
MALFORMED = (
    ("malformed:delta-level-0", ["delta", "--level", "0", "cone.json"]),
    ("malformed:delta-level--1", ["delta", "--level", "-1", "cone.json"]),
    ("malformed:probe-levels-0", ["probe", "coherence", "cone.json", "--pair", "1,0,0;0,0,1", "--levels", "0"]),
    ("malformed:denominator-0", ["monoid", "info", "denominator0.json"]),
    ("malformed:denominator--2", ["monoid", "info", "denominator-2.json"]),
)


def malformed_verdict(res):
    """None when the documented contract holds, else what went wrong."""
    code, out, err = res
    if "Traceback" in err:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return f"traceback ({last})"
    if code != 1:
        return f"exit {code} with {len(out)} bytes on stdout"
    if not any(line.startswith("error:") for line in err.splitlines()):
        return "exit 1 without an error: line"
    return None


def setup_cli(seed, work, traced):
    data = inputs.cli_inputs(seed)
    cone = monoid.validate(data["cone"])
    _write(work, "cone.json", jsonio.monoid_to_json(cone))
    # `monoid hilbert` needs a saturated monoid (exit 2 otherwise)
    _write(work, "random.json", jsonio.monoid_to_json(monoid.saturate(monoid.validate(data["random_monoid"]))))
    _write(work, "denominator0.json", dict(jsonio.monoid_to_json(cone), denominator=0))
    _write(work, "denominator-2.json", dict(jsonio.monoid_to_json(cone), denominator=-2))
    e2 = parabolic.from_graded(build_module(data["n2_level2"]))
    _write(work, "n2_level2.json", jsonio.parabolic_to_json(e2))
    n2_level6 = jsonio.parabolic_to_json(parabolic.induce(e2, 6))
    _write(work, "n2_level6.json", n2_level6)
    for name in ("cone_level2", "cone_level3"):
        _write(work, f"{name}.json", jsonio.parabolic_to_json(parabolic.from_graded(build_module(data[name]))))
    clear_caches()

    call = _cli_inprocess if traced else _cli_subprocess
    pair = ["--pair", "1,0,0;0,0,1"]
    specs = [
        ("info:cone", "monoid", ["monoid", "info", "cone.json"], None),
        ("hilbert:cone", "monoid", ["monoid", "hilbert", "cone.json"], None),
        ("info:random", "monoid", ["monoid", "info", "random.json"], None),
        ("hilbert:random", "monoid", ["monoid", "hilbert", "random.json"], None),
        ("delta:cone:6", "delta", ["delta", "--level", "6", "cone.json"], _cli_delta_check(cone)),
        ("probe:cone", "probe", ["probe", "coherence", "cone.json", *pair, "--levels", "1,2,3"], _cli_probe_check),
        ("to_graded:n2_level2", "ingest", ["parabolic", "to-graded", "n2_level2.json"], None),
        ("to_graded:cone_level3", "ingest", ["parabolic", "to-graded", "cone_level3.json"], None),
        (
            "induce:n2_level2",
            "induce",
            ["parabolic", "induce", "--to", "6", "n2_level2.json"],
            lambda p: None if p == n2_level6 else "CLI induction differs from the library's",
        ),
        (
            "check_induced:n2_level6",
            "check_induced",
            ["parabolic", "check-induced", "--divisor", "2", "n2_level6.json"],
            lambda p: None if p.get("induced") is True else "induced payload fails check-induced",
        ),
        (
            "hom:n2_level2",
            "hom",
            ["parabolic", "hom", "n2_level2.json", "--with", "n2_level2.json"],
            lambda p: None if p["dimension"] >= 1 else "hom(E, E) has dimension 0",
        ),
        (
            "hom:cone_level2",
            "hom",
            ["parabolic", "hom", "cone_level2.json", "--with", "cone_level2.json"],
            lambda p: None if p["dimension"] >= 1 else "hom(E, E) has dimension 0",
        ),
    ]
    return [
        Job(job_id, family, lambda argv=argv: call(argv, work), _cli_canon, _cli_check(extra), fresh=traced)
        for job_id, family, argv, extra in specs
    ]


def run_malformed(work):
    """The malformed-input jobs, each as a fresh CLI process."""
    return [(job_id, malformed_verdict(_cli_subprocess(argv, work))) for job_id, argv in MALFORMED]


SETUP = {"geometry": setup_geometry, "sheaf": setup_sheaf, "cli-cold": setup_cli}
