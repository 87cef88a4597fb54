"""energylab benchmark: one seeded workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Workloads: corpus, scan-small, dense-cli (see workloads.py).  The run sets up
(several times, reporting the median), warms up on one item, then runs items
back to back until the timed item time reaches --seconds, finishing the item in
progress.  Every output is checked after the timed loop.  The last line of
standard output is the result object; the line before it holds the run's
context (machine, versions, revision, tail percentile and item count).

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the same
loop runs with every public energylab function wrapped (tracer.py) and the
metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc otherwise trims the heap top after freeing the large temporaries of the
# roll path and the subset scans, and refaults it on the next allocation; that
# page-fault time swung one F_2^16 energy command between 0.5 s and 1.2 s.
# Fixed thresholds keep those arrays on an untrimmed heap.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}
SETUP_REPS = 5
TAIL_BEYOND = 10
# Median time of each calibration kernel on the machine the benchmark was built
# on (2 shared cores, Python 3.11, numpy 2.4), under the heap thresholds above.
CALIB_REF_S = {"interp": 0.010, "gather": 0.009, "stream": 0.0085}


class Calibration:
    """Fixed reference kernels, timed before every item.

    On a shared machine the speed of the whole box drifts (here by up to 20%
    over tens of seconds, on identical work).  Three small kernels stand for
    the three kinds of work in the workloads: an interpreter loop (corpus),
    gathers over 2^16 int64 as in the roll path (dense-cli) and streaming passes
    over 2^18 int64 as in the subset scans (scan-small).  The median time of the
    workload's kernel over a run tracks the drift, and the run's times are
    scaled by CALIB_REF_S / median, i.e. given in reference seconds.  The raw
    wall-clock values and every kernel's median go on the context line.  The
    kernels use no energylab code, so a change to the program cannot move
    them."""

    def __init__(self, kind: str):
        import numpy as np  # imported once the thread counts are pinned

        self.np = np
        self.kind = kind
        self.perm = np.random.default_rng(0).permutation(1 << 16)
        self.base = np.arange(1 << 16, dtype=np.int64)
        self.big = np.arange(1 << 18, dtype=np.int64)
        self.samples: dict[str, list[float]] = {k: [] for k in CALIB_REF_S}

    def sample(self) -> None:
        np = self.np
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        t1 = time.perf_counter()
        acc = np.zeros(1 << 16, dtype=np.int64)
        for k in range(40):
            acc = acc + self.base[self.perm] * k
        t2 = time.perf_counter()
        stream = np.zeros(1 << 18, dtype=np.int64)
        for _ in range(10):
            stream += (self.big >> 3) & self.big
        t3 = time.perf_counter()
        for kind, dt in zip(CALIB_REF_S, (t1 - t0, t2 - t1, t3 - t2)):
            self.samples[kind].append(dt)

    def medians_ms(self) -> dict[str, float]:
        return {k: 1000 * statistics.median(v) for k, v in self.samples.items()}

    @property
    def scale(self) -> float:
        return CALIB_REF_S[self.kind] / statistics.median(self.samples[self.kind])


def tail_point(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile that leaves
    at least `beyond` samples above it; the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    if n <= beyond:
        return s[-1], 100.0, 0
    k = n - beyond            # 1-based rank of the tail sample
    return s[k - 1], 100.0 * k / n, n - k


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "energylab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def import_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter importing energylab."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import energylab"], env=env, cwd=ROOT, check=True,
                   timeout=120)
    return time.perf_counter() - t0


def run_workload(workload, seconds: float, workdir: Path, tracer=None) -> dict:
    """Set up, warm up, run the timed loop and check every output."""
    from workloads import Outcome

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    calib = Calibration(workload.calibration)
    setup = []
    for _ in range(SETUP_REPS):
        t_import = import_seconds(env)
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        if tracer:
            tracer.active = True
        workload.generate(workdir)
        if tracer:
            tracer.active = False
        t_gen = time.perf_counter() - t0
        if tracer:
            tracer.wall_s += t_gen
        setup.append(t_import + t_gen)
    setup_trace = (tracer.wall_s, tracer.top_s) if tracer else None

    call, meta = workload.prepare(workdir, "warm")
    warm = Outcome(-1, 0.0)
    try:
        workload.evaluate(warm, call(), meta)
    except Exception as exc:  # reported with the failures; the timed loop still runs
        warm.failures.append(f"{type(exc).__name__}: {exc}")

    done = []
    timed = 0.0
    j = 0
    while timed < seconds:
        calib.sample()
        call, meta = workload.prepare(workdir, j)
        error = None
        raw = None
        if tracer:
            tracer.item = j
            tracer.active = True
        t0 = time.perf_counter()
        try:
            raw = call()
        except Exception as exc:  # an item that raises is a failed item
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.active = False
            tracer.wall_s += dt
        timed += dt
        done.append((j, dt, raw, meta, error))
        j += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = []
    for j, dt, raw, meta, error in done:
        o = Outcome(j, dt)
        if error is not None:
            o.failures.append(error)
        else:
            try:
                workload.evaluate(o, raw, meta)
            except Exception as exc:  # an output that cannot be read is a wrong output
                o.failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
        outcomes.append(o)
    return {"setup": setup, "timed": timed, "outcomes": outcomes, "warm": warm, "rss_mb": rss_mb,
            "setup_trace": setup_trace, "scale": calib.scale, "calib_ms": calib.medians_ms()}


def end_to_end(res: dict) -> tuple[dict, dict]:
    """End-to-end metrics, with times in reference seconds (see Calibration), and
    the run's context, which holds the same times in wall seconds."""
    outs = res["outcomes"]
    times = [o.seconds for o in outs]
    failed = sum(o.failed for o in outs)
    checks = sum(o.checks for o in outs)
    skips = sum(o.skips for o in outs)
    tail, pct, beyond = tail_point(times)
    wall = {
        "items_per_s": len(outs) / res["timed"],
        "item_p50_ms": 1000 * statistics.median(times),
        "item_tail_ms": 1000 * tail,
        "setup_s": statistics.median(res["setup"]),
    }
    k = res["scale"]
    metrics = {
        "items_per_s": (wall["items_per_s"] / k, "1/s"),
        "item_p50_ms": (wall["item_p50_ms"] * k, "ms"),
        "item_tail_ms": (wall["item_tail_ms"] * k, "ms"),
        "setup_s": (wall["setup_s"] * k, "s"),
        "ok_frac": (1 - failed / len(outs), "fraction"),
        "ran_frac": (1 - skips / checks if checks else 1.0, "fraction"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    context = {"wall": wall, "scale": k, "calib_ms": res["calib_ms"],
               "tail_percentile": pct, "tail_items_beyond": beyond, "fail_frac": failed / len(outs),
               "skip_frac": skips / checks if checks else 0.0, "checks": checks, "skips": skips}
    return metrics, context


def per_layer(res: dict, tracer, suite: bool) -> dict:
    groups = tracer.group_totals()

    def g(name, field="self_s"):
        st = groups.get(name)
        return getattr(st, field) if st else 0

    layer_self = sum(st.self_s for st in groups.values())
    verify_self = sum(st.self_s for name, st in groups.items() if name.startswith("verify"))
    outs = res["outcomes"]
    suite_checks = sum(o.checks for o in outs) if suite else 0
    suite_skips = sum(o.skips for o in outs) if suite else 0
    m = {}
    for name in ("group.transform", "group.index", "group.other"):
        m[f"{name}.self_s"] = (g(name), "s")
    m["setfun.slice_tuples.calls"] = (g("setfun.slice_tuples", "calls"), "count")
    m["setfun.slice_tuples.self_s"] = (g("setfun.slice_tuples"), "s")
    m["setfun.slice_tuples.budget_errors"] = (g("setfun.slice_tuples", "budget_errors"), "count")
    m["setfun.correlate.calls"] = (g("setfun.correlate", "calls"), "count")
    m["setfun.correlate.self_s"] = (g("setfun.correlate"), "s")
    m["setfun.correlate.support_pairs"] = (g("setfun.correlate", "work"), "count")
    m["setfun.sumset.self_s"] = (g("setfun.sumset"), "s")
    m["setfun.set_algebra.calls"] = (g("setfun.set_algebra", "calls"), "count")
    m["setfun.set_algebra.self_s"] = (g("setfun.set_algebra"), "s")
    m["setfun.other.self_s"] = (g("setfun.other"), "s")
    m["energy.self_s"] = (g("energy"), "s")
    m["gowers.u.calls"] = (g("gowers.u", "calls"), "count")
    m["gowers.u.self_s"] = (g("gowers.u"), "s")
    m["gowers.pair_u3.self_s"] = (g("gowers.pair_u3"), "s")
    m["structure.scan.calls"] = (g("structure.scan", "calls"), "count")
    m["structure.scan.self_s"] = (g("structure.scan"), "s")
    m["structure.scan.masks"] = (g("structure.scan", "work"), "count")
    m["structure.greedy.self_s"] = (g("structure.greedy"), "s")
    m["constructors.self_s"] = (g("constructors"), "s")
    m["cli.self_s"] = (g("cli"), "s")
    for name in ("identity", "inequality", "ratio", "algorithms"):
        m[f"verify.{name}.s"] = (g(f"verify.{name}", "incl_s"), "s")
    m["verify.self_s"] = (verify_self, "s")
    m["verify.checks"] = (suite_checks, "count")
    m["verify.skips"] = (suite_skips, "count")
    setup_wall, setup_top = res["setup_trace"]
    m["bench.setup_self_s"] = (setup_wall - setup_top, "s")
    m["bench.self_s"] = (tracer.wall_s - setup_wall - (tracer.top_s - setup_top), "s")
    m["trace.wall_s"] = (tracer.wall_s, "s")
    m["trace.layer_share"] = (layer_self / tracer.wall_s, "fraction")
    m["trace.items_per_s"] = (len(outs) / res["timed"] / res["scale"], "1/s")
    return m


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["corpus", "scan-small", "dense-cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if argv is None and any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        # the allocator reads its settings at start-up: restart this process with them
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "energylab" / "__init__.py").is_file():
        print(f"perfbench: no energylab source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import energylab
    from workloads import WORKLOADS, SuiteWorkload

    if Path(energylab.__file__).resolve().parent != SRC / "energylab":
        print(f"perfbench: imported energylab from {energylab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        res = run_workload(workload, args.seconds, workdir, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    outs = res["outcomes"]
    failed = [o for o in outs if o.failed]
    failed_warm = res["warm"].failures
    metrics, context = end_to_end(res)
    context.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "items": len(outs),
        "frozen_checked": sum(o.frozen_checked for o in outs),
        "reference_checked": sum(o.reference_checked for o in outs),
        "setup_samples_s": res["setup"],
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_revision": git_revision(), "source_digest": source_digest(),
        "failures": [f"item {o.index}: {msg}" for o in failed[:5] for msg in o.failures[:3]]
                    + [f"warm-up: {msg}" for msg in failed_warm[:3]],
    })
    if tracer:
        metrics = per_layer(res, tracer, isinstance(workload, SuiteWorkload))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        context["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"context": context}))
    result = {
        "correct": not failed and not failed_warm,
        "attempted": len(outs),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
