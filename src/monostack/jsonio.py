"""JSON (de)serialization for all interchange formats.

Rationals travel as exact strings ("3/4", "2"); generator matrices of
monoids and homomorphisms are plain integer arrays.  Derived data is never
read back from payloads: monoids rebuild their cones, flags and Hilbert
bases from the generators alone.
"""

from __future__ import annotations

from fractions import Fraction

from . import fields
from .errors import MalformedInput
from .fields import QQ, field_from_spec, field_spec
from .graded import GradedModule, graded_algebra
from .kummer import CosetLabel, MonoidHom, coset_label
from .monoid import MonoidPresentation, validate
from .parabolic import ParabolicSheaf, from_graded


def frac_to_str(x):
    return str(Fraction(x))


def frac_from_str(s):
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {s!r}") from exc


def vec_to_json(v):
    return [frac_to_str(a) for a in v]


def vec_from_json(data):
    if not isinstance(data, (list, tuple)):
        raise MalformedInput("vector must be an array of rationals")
    return tuple(frac_from_str(a) for a in data)


def vec_to_key(v):
    return ",".join(frac_to_str(a) for a in v)


def vec_from_key(s):
    return tuple(frac_from_str(part) for part in str(s).split(","))


# -- monoid.json -------------------------------------------------------------


def monoid_to_json(pres):
    out = {
        "ambient_rank": pres.ambient_rank,
        "generators": [list(g) for g in pres.generators],
    }
    if pres.denominator != 1:
        out["denominator"] = pres.denominator
    return out


def monoid_from_json(data):
    if not isinstance(data, dict):
        raise MalformedInput("monoid payload must be an object")
    try:
        rank = int(data["ambient_rank"])
        gens = [tuple(int(a) for a in g) for g in data["generators"]]
        denominator = int(data.get("denominator", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad monoid payload: {exc}") from exc
    if denominator < 1:
        raise MalformedInput(f"denominator must be a positive integer, got {denominator}")
    return validate(gens, ambient_rank=rank, denominator=denominator)


# -- hom.json ----------------------------------------------------------------


def hom_to_json(hom):
    return {
        "source": monoid_to_json(hom.source),
        "target": monoid_to_json(hom.target),
        "matrix": [list(row) for row in hom.matrix],
    }


def hom_from_json(data):
    if not isinstance(data, dict):
        raise MalformedInput("hom payload must be an object")
    try:
        source = monoid_from_json(data["source"])
        target = monoid_from_json(data["target"])
        matrix = tuple(tuple(int(a) for a in row) for row in data["matrix"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad hom payload: {exc}") from exc
    try:
        return MonoidHom(source, target, matrix)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


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


def profinite_from_json(data):
    from .infquot import TruncatedProfiniteElement

    if not isinstance(data, dict):
        raise MalformedInput("profinite payload must be an object")
    try:
        pres = monoid_from_json(data["monoid"])
        level = int(data["level"])
        raw = data["labels"]
        labels = {}
        for key, vec in raw.items():
            n = int(key)
            labels[n] = coset_label(pres, n, vec_from_json(vec))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad profinite payload: {exc}") from exc
    return TruncatedProfiniteElement(pres, level, labels)


# -- parabolic.json ----------------------------------------------------------


def _fel_to_json(field, x):
    if field == QQ:
        return frac_to_str(x)
    return int(x)


def _fel_from_json(field, data):
    if field == QQ:
        return frac_from_str(data)
    return field.of_int(int(data))


def matrix_to_json(field, mat):
    return [[_fel_to_json(field, x) for x in row] for row in mat]


def matrix_from_json(field, data):
    return tuple(tuple(_fel_from_json(field, x) for x in row) for row in data)


def parabolic_to_json(sheaf):
    field = sheaf.field
    comps = {}
    for lab, d in sorted(
        sheaf.components.items(), key=lambda kv: kv[0].normal_form
    ):
        comps[vec_to_key(lab.representative)] = d
    maps = []
    for lab, _ in sorted(
        sheaf.components.items(), key=lambda kv: kv[0].normal_form
    ):
        for u in sheaf.structure_generators():
            mat = sheaf.structure_matrix(u, lab)
            if not mat or not mat[0]:
                continue
            if fields.mat_eq_zero(field, mat):
                continue
            maps.append(
                {
                    "rep": vec_to_key(lab.representative),
                    "gen": vec_to_key(u),
                    "matrix": matrix_to_json(field, mat),
                }
            )
    return {
        "monoid": monoid_to_json(sheaf.monoid),
        "level": sheaf.level,
        "field": field_spec(field),
        "components": comps,
        "maps": maps,
    }


def parabolic_from_json(data):
    if not isinstance(data, dict):
        raise MalformedInput("parabolic payload must be an object")
    try:
        pres = monoid_from_json(data["monoid"])
        level = int(data["level"])
        field = field_from_spec(data.get("field", "Q"))
        comps = {}
        for key, d in data["components"].items():
            lab = coset_label(pres, level, vec_from_key(key))
            comps[lab] = int(d)
        structure = {}
        for entry in data.get("maps", []):
            lab = coset_label(pres, level, vec_from_key(entry["rep"]))
            u = vec_from_key(entry["gen"])
            structure[(u, lab)] = matrix_from_json(field, entry["matrix"])
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad parabolic payload: {exc}") from exc
    try:
        return ParabolicSheaf(pres, level, field, comps, structure)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


# -- graded module dumps -----------------------------------------------------


def graded_to_json(module):
    alg = module.algebra
    field = alg.field
    comps = {}
    for lab, d in sorted(module.dims.items(), key=lambda kv: kv[0].normal_form):
        comps[vec_to_key(lab.representative)] = d
    action = []
    for lab, _ in sorted(module.dims.items(), key=lambda kv: kv[0].normal_form):
        for g in alg.generators:
            mat = module.gen_matrix(g, lab)
            if not mat or not mat[0] or fields.mat_eq_zero(field, mat):
                continue
            action.append(
                {
                    "rep": vec_to_key(lab.representative),
                    "gen": vec_to_key(g),
                    "matrix": matrix_to_json(field, mat),
                }
            )
    return {
        "monoid": monoid_to_json(alg.monoid),
        "level": alg.level,
        "field": field_spec(field),
        "components": comps,
        "action": action,
    }


def graded_from_json(data):
    if not isinstance(data, dict):
        raise MalformedInput("graded payload must be an object")
    try:
        pres = monoid_from_json(data["monoid"])
        level = int(data["level"])
        field = field_from_spec(data.get("field", "Q"))
        alg = graded_algebra(pres, level, field)
        dims = {}
        for key, d in data["components"].items():
            dims[coset_label(pres, level, vec_from_key(key))] = int(d)
        action = {}
        for entry in data.get("action", []):
            lab = coset_label(pres, level, vec_from_key(entry["rep"]))
            g = vec_from_key(entry["gen"])
            action[(g, lab)] = matrix_from_json(field, entry["matrix"])
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad graded payload: {exc}") from exc
    try:
        return GradedModule(alg, dims, action, check=True)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
