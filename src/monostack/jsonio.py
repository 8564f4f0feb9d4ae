"""JSON (de)serialization for all interchange formats.

Rationals travel as exact strings ("3/4", "2") and read back as ints when
integral, like QQ field elements; generator matrices of monoids and
homomorphisms are plain integer arrays.  Derived data is never read back
from payloads: monoids rebuild their cones, flags and Hilbert bases from
the generators alone.  A parabolic sheaf is a `GradedModule`, so the
parabolic and graded-module formats share one writer and one reader and
differ only in the key of the matrix list, "maps" or "action".
Generators and labels travel as rational keys and are read by the one key
reader, `lattice.scaled_from_key`, to the int tuple y = n*s*x that
`GradedModule` and `ParabolicSheaf` take: labels by `scaled_label`,
generators as they are.  Only odd spellings and error lines go through
the `Fraction` parse, so every key reads and fails as `coset_label` and
the rational reading of the key would.  Keys
are written from int tuples by `lattice.scaled_key`.  A module payload parses each distinct key once
(`_once`): the component keys and the "rep" keys share one cache of
labels, the "gen" keys have one of int tuples, the matrix entry strings
one of field elements, and only successes are cached, so a bad key raises
where it first occurs.  A matrix or a row that is not a JSON array is
malformed input.  The writer turns each distinct matrix of `gen_action`
into JSON rows once, so entries with equal matrices share one list.
Every value the schemas type as integer, and every GF(p) matrix entry,
goes through `int_from_json`, which rejects booleans, strings and
non-integral numbers instead of truncating them; a Q matrix entry that
is a JSON number with a fraction or an exponent is refused.  The CLI
reads those numbers as `decimal.Decimal`, exactly; a Python float, which
only a library caller can pass, may have been rounded already, so it is
refused wherever a number is read.  Errors in a
matrix name its entry's rep and gen.  The scalar and vector codec
(`frac_to_str`, `frac_from_str`, `int_from_json`, `vec_*`) and the key
grammar live in `lattice`, the monoid codec in `monoid`, the hom.json
reader `hom_from_json` in `kummer` and the profinite reader
`profinite_from_json` in `infquot`, so a command that reads only those
payloads need not import this module; all of them are re-exported here.
"""

from __future__ import annotations

from decimal import Decimal

from .errors import MalformedInput
from .fields import field_from_spec, field_spec
from .graded import GradedModule, graded_algebra
from .infquot import profinite_from_json
from .kummer import coset_label, hom_from_json, scaled_label
from .lattice import frac_from_str, frac_to_str, int_from_json, scaled_from_key, scaled_key, scaled_to_json
from .lattice import vec_from_json, vec_from_key, vec_to_json
from .lattice import vec_key as vec_to_key
from .monoid import monoid_from_json, monoid_to_json
from .parabolic import ParabolicSheaf


def label_from_key(pres, n, s):
    """`coset_label(pres, n, vec_from_key(s))`, by `scaled_label` on the key's
    int tuple; `coset_label` only writes the error line of a key off the
    level-n group lattice."""
    y = scaled_from_key(s, n * pres.denominator)
    label = None if y is None else scaled_label(pres, n, y)
    if label is None:
        coset_label(pres, n, vec_from_key(s))  # raises
    return label


def gen_from_key(pres, n, s):
    """The int tuple n*s*x of a generator key x; an x off (1/(n*s))Z^d is
    malformed input, and one of another dimension raises DimensionMismatch."""
    y = scaled_from_key(s, n * pres.denominator)
    if y is None or len(y) != pres.ambient_rank:
        x = vec_from_key(s)
        pres._scaled(x, n)  # raises DimensionMismatch on a key of another dimension
        raise MalformedInput(f"{vec_to_key(x)} is not a point of level {n}")
    return y


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
            str(n): scaled_to_json(*lab.scaled_representative)
            for n, lab in sorted(element.labels.items())
        },
    }


# -- parabolic.json ----------------------------------------------------------


def _fel_to_json(field, x):
    return int(x) if field.p else frac_to_str(x)


def _fel_from_json(field, data):
    if field.p:
        return field.of_int(int_from_json(data, "matrix entry"))
    if type(data) in (Decimal, float):  # a JSON number with a fraction or an exponent, or a float, maybe rounded
        raise MalformedInput("a Q matrix entry must be an integer or an exact rational string, not a JSON float")
    return frac_from_str(data)


def matrix_to_json(field, mat):
    return [[_fel_to_json(field, x) for x in row] for row in mat]


def matrix_from_json(field, data, parsed):
    """The matrix of a JSON array of row arrays; a matrix or row that is not
    an array (a string would read as its characters) is malformed input.
    Entry strings are parsed once per `parsed` cache of one field (`_once`)."""
    if type(data) is not list or not all(type(row) is list for row in data):
        raise MalformedInput("matrix is not an array of arrays")
    return tuple(tuple(_once(parsed, x, _fel_from_json, field) for x in row) for row in data)


def _module_to_json(module, key):
    field = module.field
    alg = module.algebra
    # `alg.labels` run through the residues in lex order, that of the normal forms
    reps = {alg.labels[i]: label_key(alg.labels[i]) for i in sorted(module.support)}
    gens = {g: scaled_key(g, alg.scale) for g in alg.generators}
    action = module.gen_action
    # equal operators of one shape share one matrix (`gen_action`), so each is written once
    rows = {key: matrix_to_json(field, mat) for key, mat in {id(mat): mat for mat in action.values()}.items()}
    entries = [
        {"rep": rep, "gen": gen, "matrix": rows[id(action[g, lab])]}
        for lab, rep in reps.items()
        for g, gen in gens.items()
        if (g, lab) in action
    ]
    return {
        "monoid": monoid_to_json(module.monoid),
        "level": module.level,
        "field": field_spec(field),
        "components": {rep: module.dim(lab) for lab, rep in reps.items()},
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


def _claim(names, key, name, what):
    """Note that the payload keys `name` read to `key`; other keys that read
    to the same one, such as "0" and "1" for one label at level 2 on N,
    would silently overwrite each other, so they are malformed input."""
    if key in names:
        raise MalformedInput(f"{names[key]} and {name} name the same {what}")
    names[key] = name


def _module_from_json(data, what, key, build):
    if not isinstance(data, dict):
        raise MalformedInput(f"{what} payload must be an object")
    try:
        pres = monoid_from_json(data["monoid"])
        level = int_from_json(data["level"], "level", minimum=1)
        field = field_from_spec(data.get("field", "Q"))
        dims, labels, gens, names, parsed = {}, {}, {}, {}, {}
        if not isinstance(data["components"], dict):
            raise TypeError("components must be an object")
        for rep, d in data["components"].items():
            _claim(names, lab := _once(labels, rep, label_from_key, pres, level), f"component {rep}", "label")
            dims[lab] = int_from_json(d, "component dimension", minimum=0)
        action = {}
        for entry in data.get(key, []):
            lab = _once(labels, entry["rep"], label_from_key, pres, level)
            g = _once(gens, entry["gen"], gen_from_key, pres, level)
            _claim(names, (g, lab), name := f"{key} entry rep {entry['rep']}, gen {entry['gen']}", "label and generator")
            try:
                action[(g, lab)] = matrix_from_json(field, entry["matrix"], parsed)
            except MalformedInput as exc:
                raise MalformedInput(f"{name}: {exc}") from exc
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
    return _module_from_json(data, "graded", "action", lambda pres, level, field, dims, action: GradedModule(
        graded_algebra(pres, level, field), dims, action))
