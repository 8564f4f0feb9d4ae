"""JSON (de)serialization for all interchange formats.

Rationals travel as exact strings ("3/4", "2") and read back as ints when
integral, like QQ field elements; generator matrices of monoids and
homomorphisms are plain integer arrays.  Derived data is never read back
from payloads: monoids rebuild their cones, flags and Hilbert bases from
the generators alone.  A parabolic sheaf is a `GradedModule`, so the
parabolic and graded-module formats share one writer and one reader and
differ only in the key of the matrix list, "maps" or "action".
Generators and labels travel as rational keys, generators converted by
`GradedAlgebra.coords`.  A label key of plain ASCII rationals is read
straight to its int tuple y = n*s*x (`scaled_from_key`) and labelled by
`scaled_label`; any other key goes through the `Fraction` parse, so the
accepted keys and every error line are those of `coset_label`.  Keys are
written from int tuples by `lattice.scaled_key`.  A module payload
parses each distinct key once (`_once`): the component keys and the "rep"
keys share one cache of labels, the "gen" keys have one of vectors, and
only successes are cached, so a bad key raises where it first occurs.
Every value the schemas type as integer, and every GF(p) matrix entry,
goes through `int_from_json`, which rejects booleans, strings and
non-integral numbers instead of truncating them.  The scalar and vector
codec (`frac_to_str`, `frac_from_str`, `int_from_json`, `vec_*`) lives in
`lattice`, the monoid codec in `monoid`, the hom.json reader
`hom_from_json` in `kummer` and the profinite reader `profinite_from_json`
in `infquot`, so a command that reads only those payloads need not import
this module; all of them are re-exported here.
"""

from __future__ import annotations

import re

from . import fields
from .errors import MalformedInput
from .fields import field_from_spec, field_spec
from .graded import GradedModule, graded_algebra
from .infquot import profinite_from_json
from .kummer import coset_label, hom_from_json, scaled_label
from .lattice import frac_from_str, frac_to_str, int_from_json, scaled_key, vec_from_json, vec_from_key, vec_to_json
from .lattice import vec_key as vec_to_key
from .monoid import monoid_from_json, monoid_to_json
from .parabolic import ParabolicSheaf

_PLAIN_KEY = re.compile(r"-?[0-9]+(?:/[0-9]+)?(?:,-?[0-9]+(?:/[0-9]+)?)*")


def scaled_from_key(s, m):
    """m*x as an int tuple for a key x of plain ASCII rationals
    (-?[0-9]+(/[0-9]+)?, nonzero denominators), read without `Fraction`;
    None for any other key, or when m*x is not integral."""
    if type(s) is not str or not _PLAIN_KEY.fullmatch(s):
        return None
    y = []
    try:
        for part in s.split(","):
            num, _, den = part.partition("/")
            q, r = divmod(int(num) * m, int(den or 1))
            if r:
                return None
            y.append(q)
    except (ValueError, ZeroDivisionError):  # a zero denominator, or past int's digit limit
        return None
    return tuple(y)


def label_from_key(pres, n, s):
    """`coset_label(pres, n, vec_from_key(s))`, by `scaled_label` for a plain key."""
    y = scaled_from_key(s, n * pres.denominator)
    label = None if y is None else scaled_label(pres, n, y)
    return coset_label(pres, n, vec_from_key(s)) if label is None else label


def label_key(label):
    """The key of a label's representative, written from its int form."""
    return scaled_key(*label.scaled_representative)


# -- hom.json ----------------------------------------------------------------


def hom_to_json(hom):
    return {
        "source": monoid_to_json(hom.source),
        "target": monoid_to_json(hom.target),
        "matrix": [list(row) for row in hom.matrix],
    }


# -- profinite element -------------------------------------------------------


def profinite_to_json(element):
    return {
        "monoid": monoid_to_json(element.monoid),
        "level": element.level,
        "labels": {
            str(n): vec_to_json(lab.representative)
            for n, lab in sorted(element.labels.items())
        },
    }


# -- parabolic.json ----------------------------------------------------------


def _fel_to_json(field, x):
    return int(x) if field.p else frac_to_str(x)


def _fel_from_json(field, data):
    if not field.p:
        return frac_from_str(data)
    return field.of_int(int_from_json(data, "matrix entry"))


def matrix_to_json(field, mat):
    return [[_fel_to_json(field, x) for x in row] for row in mat]


def matrix_from_json(field, data):
    return tuple(tuple(_fel_from_json(field, x) for x in row) for row in data)


def _module_to_json(module, key):
    field = module.field
    alg = module.algebra
    # `alg.labels` run through the residues in lex order, that of the normal forms
    reps = {alg.labels[i]: label_key(alg.labels[i]) for i in sorted(module.support)}
    gens = {g: scaled_key(g, alg.scale) for g in alg.generators}
    entries = []
    for lab, rep in reps.items():
        for g, gen in gens.items():
            mat = module.gen_matrix(g, lab)
            if fields.mat_eq_zero(mat):
                continue
            entries.append({"rep": rep, "gen": gen, "matrix": matrix_to_json(field, mat)})
    return {
        "monoid": monoid_to_json(module.monoid),
        "level": module.level,
        "field": field_spec(field),
        "components": {rep: module.dims[lab] for lab, rep in reps.items()},
        key: entries,
    }


def _once(cache, key, parse, *args):
    """parse(*args, key), memoized in `cache` per str key.  A key that fails
    is not cached, so it raises again wherever it occurs; a key that is not
    a str (malformed JSON) is parsed, and fails, every time."""
    if type(key) is not str:
        return parse(*args, key)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = parse(*args, key)
    return hit


def _module_from_json(data, what, key, build):
    if not isinstance(data, dict):
        raise MalformedInput(f"{what} payload must be an object")
    try:
        pres = monoid_from_json(data["monoid"])
        level = int_from_json(data["level"], "level", minimum=1)
        field = field_from_spec(data.get("field", "Q"))
        dims, labels, gens = {}, {}, {}
        if not isinstance(data["components"], dict):
            raise TypeError("components must be an object")
        for rep, d in data["components"].items():
            dims[_once(labels, rep, label_from_key, pres, level)] = int_from_json(d, "component dimension", minimum=0)
        action = {}
        for entry in data.get(key, []):
            lab = _once(labels, entry["rep"], label_from_key, pres, level)
            action[(_once(gens, entry["gen"], vec_from_key), lab)] = matrix_from_json(field, entry["matrix"])
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad {what} payload: {exc}") from exc
    try:
        return build(pres, level, field, dims, action)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def parabolic_to_json(sheaf):
    return _module_to_json(sheaf, "maps")


def parabolic_from_json(data):
    """A parabolic payload, checked for the module law and the zero law."""
    return _module_from_json(data, "parabolic", "maps", ParabolicSheaf)


def graded_to_json(module):
    return _module_to_json(module, "action")


def graded_from_json(data):
    """A graded-module payload, checked for the module law."""

    def build(pres, level, field, dims, action):
        alg = graded_algebra(pres, level, field)
        return GradedModule(alg, dims, {(alg.coords(g), lab): mat for (g, lab), mat in action.items()})

    return _module_from_json(data, "graded", "action", build)
