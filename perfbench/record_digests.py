"""Record the reference output digests of the default seed.

    python3 perfbench/record_digests.py

Runs one untraced pass of every workload at the default seed and writes
the SHA-256 of each job's canonical output (for CLI jobs: exit code and
stdout) to digests.json.  Run it only on a commit whose outputs are the
reference; the file in the repository was recorded from the library as
it was when the benchmark was added.  It refuses to write when a job
fails one of its invariant checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import DEFAULT_SEED, HERE, RUN_BUDGET_S, WORK, WORKLOADS, spawn_pass


def main():
    digests = {}
    bad = 0
    for workload in WORKLOADS:
        work = WORK / f"record-{workload}"
        (work / "payloads").mkdir(parents=True, exist_ok=True)
        t0 = time.monotonic()
        try:
            res = spawn_pass(workload, DEFAULT_SEED, 0, work, "record", t0 + RUN_BUDGET_S)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for rec in res["jobs"]:
            if rec["error"] is not None and "digest" not in rec["error"]:
                print(f"FAILED {workload} {rec['id']}: {rec['error']}")
                bad += 1
        digests[workload] = res["digests"]
        print(f"{workload}: {len(res['digests'])} digests in {time.monotonic() - t0:.1f} s")
    if bad:
        return 1
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
