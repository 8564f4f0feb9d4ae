"""One pass of a workload in a fresh process: set-up, timed jobs, checks.

Run by `run.py`; it writes one JSON result file and exits 0, or exits
non-zero when the pass itself could not run.

    python3 perfbench/worker.py --workload sheaf --seed 1 --trace 0 \
        --work DIR --out result.json --spawned <time.monotonic() at spawn>

Set-up time runs from the spawn (so it includes interpreter start and
imports) to the first timed job.  Around every job, outside its timing,
the pass times a fixed reference kernel; `run.py` uses those times to
bring job times to reference speed.  With --trace 1 every traced
function is wrapped before set-up and unwrapped before the checks, which
therefore never add spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DIGESTS = HERE / "digests.json"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def reference_seconds():
    """Time a fixed kernel of Fraction arithmetic, tuple hashing and dict updates.

    These are the operations monostack's hot paths are made of, so the
    kernel slows down with the machine the way the jobs do; `run.py`
    divides job times by the kernel times measured around each job.  The
    collector is off so the library's heap cannot slow the kernel.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        acc = Fraction(0)
        for i in range(1, 330):
            v = (Fraction(i, 7), Fraction(i % 13, 5), i % 11)
            acc += v[0] * v[1] - Fraction(v[2], 3)
            seen[v] = seen.get(v, 0) + 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


def peak_rss_mb(workload):
    # cli-cold does its work in child processes: report the largest of them
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_pass(args):
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        snap = tracer.cache_snapshot()
    jobs = workloads.SETUP[args.workload](args.seed, args.work, bool(args.trace))
    if tracer:
        tracer.add_misses(snap)
    result = {"setup_s": time.monotonic() - args.spawned}

    outputs, records = {}, []
    refs = [reference_seconds()]
    result["setup_ref_s"] = refs[0]
    for job in jobs:
        if job.fresh:
            workloads.clear_caches()
        snap = tracer.begin_job(job.id, job.family) if tracer else None
        t0 = time.perf_counter()
        try:
            outputs[job.id] = job.run()
            error = None
        except Exception as exc:  # a job failure is counted, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end_job(snap)
        refs.append(reference_seconds())
        records.append(
            {"id": job.id, "family": job.family, "seconds": seconds, "ref_s": (refs[-2] + refs[-1]) / 2, "error": error}
        )
    result["wall_s"] = sum(r["seconds"] for r in records)
    result["peak_rss_mb"] = peak_rss_mb(args.workload)

    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["self_by_family"] = tracer.self_time_by_family()
        result["inclusive_by_family"] = tracer.inclusive_by_family()
        result["spans"] = len(tracer.span_name)
        if args.spans:
            tracer.write(args.spans)

    stored = {}
    if args.seed == inputs.DEFAULT_SEED and DIGESTS.exists():
        stored = json.loads(DIGESTS.read_text()).get(args.workload, {})
    digests = {}
    for job, rec in zip(jobs, records):
        if rec["error"] is not None:
            continue
        out = outputs[job.id]
        try:
            reason = job.check(out)
            digests[job.id] = digest(job.canon(out))
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and job.id in stored and stored[job.id] != digests.get(job.id):
            reason = "output differs from the digest recorded for the default seed"
        rec["error"] = reason
    result["jobs"] = records
    result["digests"] = digests
    if args.malformed:
        result["malformed"] = workloads.run_malformed(args.work)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans", help="stem of the span files a traced pass writes")
    ap.add_argument("--malformed", action="store_true", help="also run the malformed-input CLI jobs")
    args = ap.parse_args()
    os.makedirs(args.work, exist_ok=True)
    result = run_pass(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
