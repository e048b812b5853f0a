"""Benchmark entry point.

    python3 perfbench/run.py --workload {ingest,search,facet_update} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Builds every input from ``--seed`` inside
``.perfbench/`` under the checkout, measures for ``--seconds``, checks every
answer, and prints one JSON result as the last line of standard output
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The line before it is a JSON report with the workload's
properties, host-noise probes, sample counts and, for a traced run, the span
summary.  Exits non-zero without a result if the package cannot be imported.
A run still going after ``RUN_CAP_S`` is stopped: its result line says
``correct: false`` and counts every op it started as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
RUN_CAP_S = 170  # whole-run wall-clock cap, inside the 180 s budget
CLIENT_GRACE_S = 15  # clients waiting past ``RUN_CAP_S - CLIENT_GRACE_S`` fail
# Ray puts sockets at <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
# (64 characters past <temp>), and an AF_UNIX path holds at most 107
MAX_RAY_TEMP_CHARS = 43
REPORTING = threading.Lock()  # held by whichever of the run and its cap reports


def _imports() -> dict:
    """Make the checkout importable here and in every Ray worker; returns
    the metric spec from ``BENCHMARK.json``."""
    sys.path[:0] = [HERE, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (HERE, ROOT, os.environ.get("PYTHONPATH")) if p
    )
    try:
        import bench  # noqa: F401  (host-noise probe)
        import lucene_solr_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _kill_children() -> None:
    """Stop every process this run started and wait for each to end."""
    import psutil  # ships with Ray (ray/thirdparty_files), importable once ray is

    procs = psutil.Process().children(recursive=True)
    for p in procs:
        try:
            p.terminate()
        except psutil.NoSuchProcess:
            pass
    _, alive = psutil.wait_procs(procs, timeout=5)
    for p in alive:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(alive, timeout=5)


def _watchdog(run_dir: str, ops, cleanup) -> threading.Timer:
    """At the run cap: report every op started so far as failed (none has
    been checked yet; answers are checked after the window), stop every
    process this run started, and exit."""

    def fire():
        if not REPORTING.acquire(blocking=False):
            return  # the run is already printing its own result
        print(f"perfbench: run exceeded {RUN_CAP_S}s; stopping", file=sys.stderr, flush=True)
        n = max(1, ops.started)
        print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}), flush=True)
        cleanup()
        _kill_children()
        shutil.rmtree(run_dir, ignore_errors=True)
        os._exit(0)

    t = threading.Timer(RUN_CAP_S, fire)
    t.daemon = True
    t.start()
    return t


def _start_ray(num_cpus: int, run_dir: str, speed) -> float:
    """Start a local Ray; returns its CPU seconds at reference speed."""
    import ray
    from ray.data import DataContext

    from speed import CpuMeter

    temp = os.path.join(run_dir, "r")
    kw = {"_temp_dir": temp} if len(temp) <= MAX_RAY_TEMP_CHARS else {}
    with CpuMeter(speed) as cpu:
        ray.init(num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=512 << 20, **kw)
    DataContext.get_current().enable_progress_bars = False
    return cpu.cpu_s


def _result(res, spec: dict, trace: bool) -> dict:
    values = res.layers if trace else res.metrics
    metrics = {  # a run stopped early has no value for some metrics
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"] if m["name"] in values
    }
    return {
        "correct": res.failed == 0,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": metrics,
    }


def _quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ingest", "search", "facet_update"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = _imports()

    import ray

    import layers
    from load import Ops
    from speed import SpeedMeter
    from workloads import WORKLOADS, Ctx

    t_start = time.perf_counter()
    run_dir = os.path.join(WORK, str(os.getpid()))
    cache_dir = os.path.join(WORK, "cache")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(cache_dir, exist_ok=True)
    speed = SpeedMeter(run_dir)
    ops = Ops()
    dog = _watchdog(run_dir, ops, speed.close)
    num_cpus = min(4, len(os.sched_getaffinity(0)))
    tracer = layers.Tracer(enabled=bool(args.trace))
    crashed = False
    try:
        ray_s = _start_ray(num_cpus, run_dir, speed)
        ctx = Ctx(
            workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            root=ROOT, run_dir=run_dir, cache_dir=cache_dir, ray_start_s=ray_s,
            num_cpus=num_cpus, actor_cpus=1.0 if num_cpus >= 4 else num_cpus / 4, tracer=tracer,
            speed=speed, ops=ops, deadline=t_start + RUN_CAP_S - CLIENT_GRACE_S,
        )
        res = WORKLOADS[args.workload](ctx)
        res.report["speed_job_ms"] = _quartiles(speed.samples_ms())
    except Exception:
        traceback.print_exc()
        crashed = True
    finally:
        ray.shutdown()
        speed.close()
        _kill_children()
        shutil.rmtree(run_dir, ignore_errors=True)
        dog.cancel()
    REPORTING.acquire()  # blocks for good if the cap has fired; it exits the process
    if crashed:
        return 1

    res.wall["failed_frac"] = res.failed / max(1, res.attempted)
    res.report.update({"workload_name": args.workload, "seed": args.seed, "num_cpus": num_cpus,
                       "end_to_end": res.metrics, "wall": res.wall, "errors": res.errors})
    if args.trace:
        res.report["spans"] = tracer.summary()
        tracer.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    for e in res.errors:
        print(f"perfbench: failed op: {e}", file=sys.stderr)
    print(json.dumps({"report": res.report}, default=float))
    print(json.dumps(_result(res, spec, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
