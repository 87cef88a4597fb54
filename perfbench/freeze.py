"""Freeze the default-seed outputs that later runs are compared against.

    python3 perfbench/freeze.py

Writes perfbench/frozen/<workload>.json.gz: for corpus and scan-small the
digested (tag, lhs, rhs, status) of every check on each instance of the
default-seed pool, and for dense-cli the value of every (set, command) pair.
Run it only on a commit whose outputs are trusted; a later commit must
reproduce these outputs, so refreezing hides a changed value.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from run import git_revision, source_digest

    seed = workloads.DEFAULT_SEED
    workloads.FROZEN_DIR.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench_tmp" / f"freeze-{os.getpid()}"
    header = {"seed": seed, "git_revision": git_revision(), "source_digest": source_digest()}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(seed)
            wl.frozen = [] if isinstance(wl, workloads.SuiteWorkload) else {}
            wl.generate(workdir / name)
            if isinstance(wl, workloads.SuiteWorkload):
                indices = range(wl.pool_size)
            else:
                indices = range(len(wl.plan) * wl.SETS_PER_GROUP)
            records = []
            for j in indices:
                call, meta = wl.prepare(workdir / name, j)
                out = workloads.Outcome(j, 0.0)
                wl.evaluate(out, call(), meta)
                if out.failed:
                    raise SystemExit(f"{name} item {j} failed, refusing to freeze: {out.failures}")
                records.append(out.record)
                print(f"{name} {j}", flush=True)
            if isinstance(wl, workloads.SuiteWorkload):
                payload = {**header, "workload": name, "items": records}
            else:
                payload = {**header, "workload": name,
                           "values": {r["key"]: r["value"] for r in records}}
            path = workloads.FROZEN_DIR / f"{name}.json.gz"
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(json.dumps(payload, separators=(",", ":")).encode())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
