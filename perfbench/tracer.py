"""Span tracing of monostack's public functions from outside the library.

`Tracer.install()` replaces every binding of each traced function: the
attribute on its defining module, every from-import of it in any loaded
module (``graded.coset_label``, ``parabolic.in_delta``, ...), and the
method on its class.  Each call records one span: name, start, end,
parent span, job id and up to three counts taken from the arguments and
the return value.  Spans stay in flat typed arrays while the pass runs
and are written out once, by `write`.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested because a pass runs one job at a time
in one thread.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

SETUP_JOB = 0


def _len(res):
    return (len(res), 0, 0)


def _truth(res):
    return (1 if res else 0, 0, 0)


def _rref_counts(args, res):
    m = args[1]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    return (rows * cols, len(res[1]), rows)


def _nullspace_counts(args, res):
    m = args[1]
    return ((len(m) * len(m[0])) if m else 0, 0, 0)


def _presented_counts(args, res):
    # PresentedSpace.__init__(self, field, ngens, relations)
    return (args[2], len(args[3]), 0)


# (module, attribute path, span name, counts from result, counts from args+result)
TARGETS = (
    ("lattice", "enumerate_integer_points", None, _len, None),
    ("lattice", "lattice_contains_int", None, _truth, None),
    ("lattice", "lattice_coords", None, None, None),
    ("lattice", "cone_contains", None, None, None),
    ("lattice", "smith_normal_form", None, None, None),
    ("monoid", "monoid_points_scaled", None, _len, None),
    ("monoid", "validate", None, None, None),
    ("kummer", "coset_label", None, None, None),
    ("kummer", "label_add", None, None, None),
    ("kummer", "enumerate_labels", None, _len, None),
    ("kummer", "cokernel", None, None, None),
    ("infquot", "delta_points", None, _len, None),
    ("infquot", "in_delta", None, None, None),
    ("infquot", "is_infinite_quotient", None, None, None),
    ("graded", "graded_algebra", None, None, None),
    ("graded", "GradedAlgebra.label_of", None, None, None),
    ("graded", "GradedAlgebra.decompose", None, None, None),
    ("graded", "GradedModule.act", None, None, None),
    ("graded", "GradedModule.validate", None, None, None),
    ("graded", "PresentedSpace.__init__", "graded.PresentedSpace", None, _presented_counts),
    ("graded", "ideal_min_generators", None, _len, None),
    ("fields", "rref", None, None, _rref_counts),
    ("fields", "nullspace", None, None, _nullspace_counts),
    ("fields", "solve", None, None, None),
    ("fields", "mat_mul_dims", None, None, None),
    ("parabolic", "induce", None, None, None),
    ("parabolic", "counit_map", None, None, None),
    ("parabolic", "hom_space", None, lambda res: (res[0], 0, 0), None),
    ("jsonio", "parabolic_from_json", None, None, None),
    ("jsonio", "parabolic_to_json", None, None, None),
    ("cli", "main", None, None, None),
)

CACHED = ("infquot.delta_points", "graded.graded_algebra")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_v1 = array("d")
        self.span_v2 = array("d")
        self.span_v3 = array("d")
        self.stack = []
        self.job = SETUP_JOB
        self.jobs = ["setup"]
        self.job_family = ["setup"]
        self.originals = {}
        self._patched = []
        self.cache_misses = {name: 0 for name in CACHED}

    # -- installation ---------------------------------------------------------

    def _wrap(self, name, fn, from_result, from_args):
        nid = self.name_id[name] = len(self.names)
        self.names.append(name)
        stack = self.stack
        s_name, s_parent, s_job = self.span_name, self.span_parent, self.span_job
        s_start, s_end = self.span_start, self.span_end
        v1, v2, v3 = self.span_v1, self.span_v2, self.span_v3
        tracer = self

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_job.append(tracer.job)
            s_start.append(0.0)
            s_end.append(0.0)
            v1.append(0.0)
            v2.append(0.0)
            v3.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                s_start[idx] = t0
                s_end[idx] = t1
            if from_result is not None:
                v1[idx], v2[idx], v3[idx] = from_result(res)
            elif from_args is not None:
                v1[idx], v2[idx], v3[idx] = from_args(args, res)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        for attr in ("cache_info", "cache_clear"):  # lru_cache objects
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self):
        """Wrap every target and rebind it wherever it is bound."""
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for modname, path, span_name, from_result, from_args in TARGETS:
            mod = importlib.import_module(f"monostack.{modname}")
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            orig = owner.__dict__[attr]
            name = span_name or f"{modname}.{path}"
            self.originals[name] = orig
            wrapper = self._wrap(name, orig, from_result, from_args)
            if owner is not mod:  # a method: the class attribute is the only binding
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                d = getattr(m, "__dict__", None)
                if not d:
                    continue
                for key, value in list(d.items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- jobs and caches ------------------------------------------------------

    def cache_snapshot(self):
        return {name: self.originals[name].cache_info().misses for name in CACHED}

    def add_misses(self, snapshot):
        """Count the cache misses since `snapshot`; the caches must not be cleared in between."""
        for name, before in snapshot.items():
            self.cache_misses[name] += self.originals[name].cache_info().misses - before

    def begin_job(self, job_id, family):
        self.jobs.append(job_id)
        self.job_family.append(family)
        self.job = len(self.jobs) - 1
        return self.cache_snapshot()

    def end_job(self, snapshot):
        self.add_misses(snapshot)
        self.job = SETUP_JOB

    # -- results --------------------------------------------------------------

    def self_times(self):
        n = len(self.span_name)
        child = [0.0] * n
        parent = self.span_parent
        start, end = self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def layer_metrics(self):
        """The per-layer metrics of BENCHMARK.json, summed over the pass."""
        names = self.names
        n = len(self.span_name)
        self_t = self.self_times()
        calls = {nm: 0 for nm in names}
        selfs = {nm: 0.0 for nm in names}
        v1 = {nm: 0.0 for nm in names}
        v2 = {nm: 0.0 for nm in names}
        v3 = {nm: 0.0 for nm in names}
        # counts of a child under a given parent name: (child, parent) -> sum v1
        under = {}
        has_mps_child = set()
        sn, sp = self.span_name, self.span_parent
        mps = self.name_id.get("monoid.monoid_points_scaled")
        for i in range(n):
            nm = names[sn[i]]
            calls[nm] += 1
            selfs[nm] += self_t[i]
            v1[nm] += self.span_v1[i]
            v2[nm] += self.span_v2[i]
            v3[nm] += self.span_v3[i]
            p = sp[i]
            if p >= 0:
                key = (nm, names[sn[p]])
                under[key] = under.get(key, 0.0) + self.span_v1[i]
                if sn[i] == mps:
                    has_mps_child.add(p)
        delta_id = self.name_id.get("infquot.delta_points")
        delta_points_computed = sum(
            self.span_v1[i] for i in has_mps_child if sn[i] == delta_id
        )

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for nm in names:
            out[f"{nm}.calls"] = calls[nm]
            out[f"{nm}.self_s"] = selfs[nm]
        out["lattice.enumerate_integer_points.points"] = v1["lattice.enumerate_integer_points"]
        out["lattice.lattice_contains_int.true_ratio"] = ratio(
            v1["lattice.lattice_contains_int"], calls["lattice.lattice_contains_int"]
        )
        out["monoid.monoid_points_scaled.kept_ratio"] = ratio(
            v1["monoid.monoid_points_scaled"],
            under.get(("lattice.enumerate_integer_points", "monoid.monoid_points_scaled"), 0.0),
        )
        out["kummer.enumerate_labels.labels"] = v1["kummer.enumerate_labels"]
        out["infquot.delta_points.misses"] = self.cache_misses["infquot.delta_points"]
        out["infquot.delta_points.points"] = delta_points_computed
        out["infquot.delta_points.delta_ratio"] = ratio(
            delta_points_computed,
            under.get(("monoid.monoid_points_scaled", "infquot.delta_points"), 0.0),
        )
        out["graded.graded_algebra.misses"] = self.cache_misses["graded.graded_algebra"]
        out["graded.PresentedSpace.gens"] = v1["graded.PresentedSpace"]
        out["graded.PresentedSpace.relations"] = v2["graded.PresentedSpace"]
        out["graded.ideal_min_generators.region_points"] = under.get(
            ("monoid.monoid_points_scaled", "graded.ideal_min_generators"), 0.0
        )
        out["graded.ideal_min_generators.mins"] = v1["graded.ideal_min_generators"]
        out["fields.rref.entries"] = v1["fields.rref"]
        out["fields.rref.rank_ratio"] = ratio(v2["fields.rref"], v3["fields.rref"])
        out["fields.nullspace.entries"] = v1["fields.nullspace"]
        out["parabolic.hom_space.dim"] = v1["parabolic.hom_space"]
        return out

    def self_time_by_family(self):
        """{job family: {span name: self seconds}} over the traced jobs."""
        self_t = self.self_times()
        out = {}
        for i in range(len(self.span_name)):
            fam = self.job_family[self.span_job[i]]
            row = out.setdefault(fam, {})
            nm = self.names[self.span_name[i]]
            row[nm] = row.get(nm, 0.0) + self_t[i]
        return out

    def inclusive_by_family(self):
        """{job family: {span name: seconds inside its spans}}, recursion counted once."""
        sn, sp = self.span_name, self.span_parent
        out = {}
        for i in range(len(sn)):
            p = sp[i]
            if p >= 0 and sn[p] == sn[i]:
                continue
            row = out.setdefault(self.job_family[self.span_job[i]], {})
            nm = self.names[sn[i]]
            row[nm] = row.get(nm, 0.0) + self.span_end[i] - self.span_start[i]
        return out

    def write(self, stem):
        """Write the spans as `<stem>.json` (header) and `<stem>.bin` (arrays).

        The binary file holds the arrays in header order, each `count`
        items long, in native byte order: name index, parent span (-1 for
        none) and job index as int32; start and end (perf_counter seconds)
        and the three counts as float64.
        """
        fields = (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("job", self.span_job),
            ("start", self.span_start),
            ("end", self.span_end),
            ("v1", self.span_v1),
            ("v2", self.span_v2),
            ("v3", self.span_v3),
        )
        header = {
            "count": len(self.span_name),
            "names": self.names,
            "jobs": self.jobs,
            "job_family": self.job_family,
            "arrays": [[f, a.typecode] for f, a in fields],
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(f"{stem}.bin", "wb") as fh:
            for _, a in fields:
                a.tofile(fh)
