"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

1. Bindings: after `Tracer.install()` every from-import of a traced
   function is the wrapper, a call made through such a name records
   exactly one span of the traced function, and `uninstall()` restores
   every binding.  A failure here exits 1.
2. Profile facts of the seed commit, printed as "holds" or "no longer
   holds".  They describe the library, not the tracer, so they are
   expected to flip as ROADMAP items 2-4 land and never fail the test:
   - `kummer.coset_label` and `lattice.lattice_coords` lead self time
     under an induction (N^2, level 2 -> 6);
   - `lattice.lattice_contains_int` is among the top two by self time
     under the coherence probe on the non-simplicial cone;
   - `graded.GradedModule.validate` spans cover most of reading back a
     cone level-3 sheaf from JSON.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

from monostack import graded, infquot, jsonio, kummer, lattice, parabolic  # noqa: E402
from monostack.monoid import validate  # noqa: E402

# module attribute -> span name of the function it must resolve to
FROM_IMPORTS = {
    ("graded", "coset_label"): "kummer.coset_label",
    ("infquot", "coset_label"): "kummer.coset_label",
    ("jsonio", "coset_label"): "kummer.coset_label",
    ("kummer", "lattice_coords"): "lattice.lattice_coords",
    ("graded", "delta_points"): "infquot.delta_points",
    ("graded", "in_delta"): "infquot.in_delta",
    ("parabolic", "in_delta"): "infquot.in_delta",
    ("parabolic", "label_add"): "kummer.label_add",
    ("parabolic", "graded_algebra"): "graded.graded_algebra",
    ("jsonio", "graded_algebra"): "graded.graded_algebra",
}


def span_count(tracer, name):
    nid = tracer.name_id[name]
    return sum(1 for x in tracer.span_name if x == nid)


def check_bindings():
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (graded, infquot, jsonio, kummer, lattice, parabolic)}
    n2 = validate(inputs.N2)
    half = (Fraction(1, 2), Fraction(0))
    calls = {
        "kummer.coset_label": lambda f: f(n2, 2, half),
        "lattice.lattice_coords": lambda f: f(n2.group_basis, (1, 0)),
        "infquot.delta_points": lambda f: f(n2, 2),
        "infquot.in_delta": lambda f: f(n2, half),
        "kummer.label_add": lambda f: f(kummer.zero_label(n2, 2), kummer.zero_label(n2, 2)),
        "graded.graded_algebra": lambda f: f(n2, 2),
    }
    errors = []
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, attr), name in FROM_IMPORTS.items():
            bound = getattr(modules[mod], attr)
            if getattr(bound, "__wrapped__", None) is not tracer.originals[name]:
                errors.append(f"{mod}.{attr} is not the traced {name}")
                continue
            before = span_count(tracer, name)
            calls[name](bound)
            got = span_count(tracer, name) - before
            if got != 1:
                errors.append(f"one call through {mod}.{attr} recorded {got} spans of {name}")
    finally:
        tracer.uninstall()
    for (mod, attr), name in FROM_IMPORTS.items():
        if getattr(modules[mod], attr) is not tracer.originals[name]:
            errors.append(f"{mod}.{attr} was not restored")
    for cls, meth in ((graded.GradedModule, "act"), (graded.GradedAlgebra, "label_of"), (graded.PresentedSpace, "__init__")):
        if hasattr(cls.__dict__[meth], "__wrapped__"):
            errors.append(f"{cls.__name__}.{meth} was not restored")
    return errors


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def top_self(tracer, k):
    totals = {}
    for nid, t in zip(tracer.span_name, tracer.self_times()):
        totals[tracer.names[nid]] = totals.get(tracer.names[nid], 0.0) + t
    return [name for name, _ in sorted(totals.items(), key=lambda kv: -kv[1])[:k]]


def profile_facts():
    n2 = validate(inputs.N2)
    cone = validate(inputs.CONE)
    alg2 = graded.graded_algebra(n2, 2)
    src = parabolic.from_graded(graded.direct_sum([graded.twist(alg2, lab) for lab in alg2.labels[:2]]))
    graded.graded_algebra(n2, 6)
    top = top_self(traced(lambda: parabolic.induce(src, 6)), 2)
    yield "coset_label and lattice_coords lead self time under induction", set(top) == {
        "kummer.coset_label",
        "lattice.lattice_coords",
    }, top

    top = top_self(traced(lambda: graded.coherence_probe(cone, *inputs.CONE_PAIR, [1, 2, 3])), 2)
    yield "lattice_contains_int is in the top two under the cone probe", "lattice.lattice_contains_int" in top, top

    alg3 = graded.graded_algebra(cone, 3)
    text = json.dumps(jsonio.parabolic_to_json(parabolic.from_graded(graded.twist(alg3, alg3.labels[1]))))
    inside = traced(lambda: jsonio.parabolic_from_json(json.loads(text))).inclusive_by_family()["setup"]
    cover, total = inside["graded.GradedModule.validate"], inside["jsonio.parabolic_from_json"]
    yield "GradedModule.validate covers most of parabolic_from_json", cover > total / 2, f"{cover / total:.0%}"


def main():
    errors = check_bindings()
    for err in errors:
        print(f"FAIL {err}")
    if not errors:
        print(f"ok   {len(FROM_IMPORTS)} from-import bindings traced once per call and restored")
    for what, holds, detail in profile_facts():
        print(f"{'holds' if holds else 'no longer holds'}: {what} ({detail})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
