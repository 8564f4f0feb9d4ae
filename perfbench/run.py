"""monostack benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload {geometry,sheaf,cli-cold} \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: a pass sets up and runs
its job list in a fresh process (`worker.py`), one job at a time.  A run
makes MIN_PASSES passes, and more while the next one should end within
--seconds.  Every job's output is checked after the timed loop; see
README.md for the metrics and checks.

With --trace 0 the end-to-end metrics are printed; with --trace 1 one
untraced and one traced pass run, each in its own process, and the
per-layer metrics of the traced pass are printed, with the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 means the
passes ran (failures are reported in that line); anything else means the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("geometry", "sheaf", "cli-cold")
MIN_PASSES = 3
# The reference kernel's time (worker.reference_seconds) on a quiet machine.
REF_S = 0.005
# A run ends within this; a pass still going then is killed with its children.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def spawn_pass(workload, seed, trace, work, tag, deadline, spans=None, malformed=False):
    """Run one pass in a fresh process and return its result file's content."""
    out = work / f"{tag}.json"
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--work", str(work / "payloads"),
        "--out", str(out),
    ]
    if malformed and workload == "cli-cold":
        argv.append("--malformed")
    if spans:
        argv += ["--spans", str(spans)]
    argv += ["--spawned", repr(time.monotonic())]
    # its own process group, so a timeout also stops the CLI processes it started
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass {tag} ran past the {RUN_BUDGET_S} s budget") from exc
    if proc.returncode != 0 or not out.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"{workload} pass {tag} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(out.read_text())


def job_times(passes, scaled):
    """{job id: (family, median over the passes of its seconds)}.

    With `scaled`, each time is first brought to reference speed: times
    REF_S over the reference kernel's time measured around the job.
    """
    out = {}
    for rec in passes[0]["jobs"]:
        times = [
            r["seconds"] * (REF_S / r["ref_s"] if scaled else 1.0)
            for p in passes
            for r in p["jobs"]
            if r["id"] == rec["id"]
        ]
        out[rec["id"]] = (rec["family"], statistics.median(times))
    return out


def untraced(args, work, deadline):
    """MIN_PASSES passes, then more while the next one should end within --seconds."""
    passes = []
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            return passes
        passes.append(spawn_pass(args.workload, args.seed, 0, work, f"pass{len(passes)}", deadline, malformed=not passes))


def report_failures(passes):
    attempted = failed = 0
    for i, res in enumerate(passes):
        for rec in res["jobs"]:
            attempted += 1
            if rec["error"] is not None:
                failed += 1
                print(f"  FAILED pass {i} {rec['id']}: {rec['error']}")
    return attempted, failed


def end_to_end(args, work, deadline):
    passes = untraced(args, work, deadline)
    n = len(passes)
    scaled = job_times(passes, True)
    measured = job_times(passes, False)
    print(f"workload {args.workload}  seed {args.seed}  passes {n}  jobs per pass {len(scaled)}  (closed loop, one client)")
    per_job = f"sum over {len(scaled)} jobs of the median of {n} passes"
    metrics = {
        "wall_s": (sum(t for _, t in scaled.values()), "s", f"{per_job}, at reference speed"),
        "setup_s": (
            statistics.median(p["setup_s"] * REF_S / p["setup_ref_s"] for p in passes),
            "s",
            f"median of {n} set-ups, at reference speed",
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", f"median of {n} passes"),
        "measured_wall_s": (sum(t for _, t in measured.values()), "s", f"{per_job}, as measured"),
        "measured_setup_s": (statistics.median(p["setup_s"] for p in passes), "s", f"median of {n} set-ups, as measured"),
    }
    for fam in sorted({f for f, _ in scaled.values()} - {"other"}):
        jobs = [t for f, t in scaled.values() if f == fam]
        metrics[f"{fam}_s"] = (sum(jobs), "s", f"sum over {len(jobs)} jobs of the median of {n} passes, at reference speed")
    attempted, failed = report_failures(passes)
    metrics["failed_frac"] = (failed / attempted, "ratio", f"{failed} of {attempted} jobs")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<16} {value:12.6f} {unit:<6} {note}")
    print("  pass wall times: " + " ".join(f"{p['wall_s']:.3f}" for p in passes) + " s")
    malformed = passes[0].get("malformed")
    if malformed:
        bad = [m for m in malformed if m[1] is not None]
        print(
            f"  malformed-input jobs failing the documented contract: {len(bad)}/{len(malformed)}"
            " (ROADMAP aim 3; outside attempted/failed)"
        )
        for job_id, reason in malformed:
            print(f"    {job_id}: {reason or 'ok'}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in ("wall_s", "setup_s", "peak_rss_mb")},
    }


def traced(args, work, deadline):
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    stem = WORK / "traces" / f"{args.workload}-seed{args.seed}"
    plain = spawn_pass(args.workload, args.seed, 0, work, "untraced", deadline)
    res = spawn_pass(args.workload, args.seed, 1, work, "traced", deadline, spans=stem)
    layers = dict(res["layers"])
    layers["trace.overhead_s"] = res["wall_s"] - plain["wall_s"]
    print(f"workload {args.workload}  seed {args.seed}  traced pass: {res['spans']} spans -> {stem}.bin")
    print(f"  job time as measured: untraced {plain['wall_s']:.4f} s, traced {res['wall_s']:.4f} s")
    for fam, row in sorted(res["self_by_family"].items()):
        top = sorted(row.items(), key=lambda kv: -kv[1])[:4]
        print(f"  top self time under {fam}: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    ingest = sum(r["seconds"] for r in res["jobs"] if r["family"] == "ingest")
    if ingest:
        inside = res["inclusive_by_family"]["ingest"].get("graded.GradedModule.validate", 0.0)
        print(f"  graded.GradedModule.validate spans cover {inside / ingest:.0%} of the ingest jobs' {ingest:.3f} s")
    attempted, failed = report_failures([res])
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in units},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "monostack" / "__init__.py").is_file():
        print(f"error: no monostack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "payloads").mkdir(parents=True)
    try:
        result = (traced if args.trace else end_to_end)(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
