"""Benchmark harness (driver contract).

Headline pipelines over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) plus
the generated Common-Crawl-style pages corpus (the flagship indexing
workload, FIXTURES.md T1 — generation is cached and excluded from timing):

* ``build_pages``   — full index build (dedup -> extract -> tokenize ->
  postings shuffle -> encode -> stats) over N pages, >= 64 input files.
* ``query_p50``     — BM25 top-10 p50 latency over the fixture query set
  through the segment-actor pool (index loaded once).
* ``facet_all``     — match-all facet counting (host + links_sim) across actors.
* ``build_docs``    — index build over the sf documents table.
* ``dedup_minhash`` — MinHash+LSH clustering over sf documents.
* ``ann_brute``     — brute-force cosine top-k over sf embeddings.

Prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N, "docs_per_sec": ...}

``--scaling``: runs the SAME job in two fresh processes at num_cpus=8 and 32
(the sandbox substitute for N vs 4N cluster nodes — BASELINE.md protocol) and
prints both throughputs + scaling efficiency.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
PAGES_N = int(os.environ.get("BENCH_PAGES_N", "60000"))
PAGES_FILES = 64
PAGES_CACHE = f"/tmp/lsr_bench_pages_{PAGES_N}"
# index artifacts go to tmpfs: virtio-disk latency jitter otherwise dominates
# the measurement on this sandbox (the corpus input stays on disk, warmed)
WORKDIR = os.environ.get("BENCH_WORKDIR", "/dev/shm/lsr_bench")


def _ensure_pages(ray):
    from lucene_solr_ray.fixtures import write_pages_parquet

    marker = os.path.join(PAGES_CACHE, "_DONE")
    if os.path.exists(marker):
        import glob

        return sorted(glob.glob(os.path.join(PAGES_CACHE, "*.parquet")))
    shutil.rmtree(PAGES_CACHE, ignore_errors=True)
    files = write_pages_parquet(PAGES_CACHE, PAGES_N, n_files=PAGES_FILES)
    open(marker, "w").write("ok")
    return files


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import numpy as np

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.searcher import RayIndexSearcher
    from lucene_solr_ray.fixtures import make_query_set, query_to_ast

    timings: dict[str, float] = {}
    extra: dict[str, float] = {}

    # ---------- pages corpus: build ----------
    files = _ensure_pages(ray)
    # warm page cache (measure compute+shuffle, not first disk read)
    import pyarrow.parquet as pq

    for f in files:
        pq.read_metadata(f)
        with open(f, "rb") as fh:
            while fh.read(1 << 22):
                pass

    # warm the Ray worker pool + imports (untimed): first jobs otherwise pay
    # worker-process spawn (~seconds at 32 CPUs), which is session overhead,
    # not pipeline throughput
    @ray.remote(num_cpus=1)
    def _spawn_worker(i):
        import lucene_solr_ray.index.build  # preload imports in the worker
        import time as _t

        _t.sleep(0.3)  # hold the slot so every call lands on a fresh worker
        return i

    ray.get([_spawn_worker.remote(i) for i in range(NUM_CPUS * 2)])
    warm_ix = f"{WORKDIR}/warm_{NUM_CPUS}"
    shutil.rmtree(warm_ix, ignore_errors=True)
    build_index(
        files[:8],
        warm_ix,
        rows_per_partition=1 << 20,
        multi_facet_fields=("links_sim",),
    )
    shutil.rmtree(warm_ix, ignore_errors=True)

    ix_pages = f"{WORKDIR}/ixpages_{NUM_CPUS}"
    shutil.rmtree(ix_pages, ignore_errors=True)
    t0 = time.time()
    man = build_index(
        files,
        ix_pages,
        # 2048 rows/partition keeps the postings stage's task count well
        # above the core count at this corpus size (8192 left 32 CPUs
        # driving only 8 encode tasks); query p50 is unchanged
        rows_per_partition=int(os.environ.get("BENCH_RPP", "2048")),
        multi_facet_fields=("links_sim",),
        tokenize_batch_size=512,
    )
    timings["build_pages"] = time.time() - t0
    extra["docs_per_sec"] = round(man["max_doc"] / timings["build_pages"], 1)
    extra["build_stage_secs"] = {
        s: round(info["secs"], 2) for s, info in man.get("lineage", {}).items()
    }

    if os.environ.get("BENCH_ONLY_BUILD"):
        result = {
            "metric": "index build only",
            "value": round(timings["build_pages"], 3),
            "unit": "sec",
            "queries": {k: round(v, 3) for k, v in timings.items()},
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "pages_n": PAGES_N,
            **extra,
        }
        shutil.rmtree(ix_pages, ignore_errors=True)
        ray.shutdown()
        return result

    # ---------- query latency over the built index ----------
    t0 = time.time()
    s = RayIndexSearcher(ix_pages, num_actors=max(2, NUM_CPUS // 4))
    try:
        qs = [query_to_ast(q) for q in make_query_set(60)]
        s.search(qs[0], k=10)  # actor warmup (loads partitions)
        extra["searcher_load_sec"] = round(time.time() - t0, 3)
        import ray as _ray

        extra["actor_rss_mb"] = round(
            max(_ray.get([a.memory_mb.remote() for a in s.actors])), 1
        )
        # in-run host-noise probe, SAME JSON as the latencies it qualifies
        # (round-2 verdict: the recorded 45 ms p50 had only out-of-band host
        # drift evidence).  Best observed quiet-window value ~= 4.5 ms
        # (BASELINE.md round-3 notes); the ratio probe/reference is the host
        # slowdown factor to apply to query_p50_ms across rounds.
        extra["host_probe_ms_before"] = _latency_probe_ms()
        # the query lane's REAL floor on this box is the bare Ray actor
        # round-trip (scoring itself is ~0.06 ms in-process): report the
        # same-window fan-out ping p50 so query_p50_ms is self-qualifying —
        # round-3 analysis measured ping p50 17-59 ms during noisy windows
        # vs ~1-2 ms quiet, fully explaining cross-round p50 swings
        pings = []
        for _ in range(30):
            t1 = time.perf_counter()
            _ray.get([a.ping.remote() for a in s.actors])
            pings.append(time.perf_counter() - t1)
        extra["ray_fanout_ping_ms"] = round(statistics.median(pings) * 1000, 2)
        lat = []
        t0 = time.time()
        for ast in qs:
            t1 = time.time()
            s.search(ast, k=10)
            lat.append(time.time() - t1)
        timings["query_total"] = time.time() - t0
        extra["query_p50_ms"] = round(statistics.median(lat) * 1000, 2)
        extra["query_p95_ms"] = round(sorted(lat)[int(len(lat) * 0.95)] * 1000, 2)
        extra["host_probe_ms_after"] = _latency_probe_ms()

        # concurrent throughput: all queries in flight at once
        t0 = time.time()
        s.search_many(qs, k=10)
        dt = time.time() - t0
        extra["query_qps_concurrent"] = round(len(qs) / dt, 1)

        from lucene_solr_ray.query.ast import MatchAllQ

        t0 = time.time()
        s.search(MatchAllQ(), k=10, facet_fields=("host", "links_sim"), facet_limit=100, facet_mincount=1)
        timings["facet_all"] = time.time() - t0

        # commit cost, beside the fan-out ping floor: tombstone 1% of the
        # live docs, open a searcher over the commit (it reuses the live
        # actors, which reload only the tombstones), first answer; median
        # of three cycles
        from lucene_solr_ray.index.deletes import apply_deletes

        live = pq.read_table(os.path.join(ix_pages, "docmap"), columns=["doc_id"])
        live = np.asarray(live["doc_id"], dtype=np.int64)
        rng = np.random.default_rng(0)
        reopen = []
        for _ in range(3):
            dead = rng.choice(live, size=max(1, len(live) // 100), replace=False)
            live = np.setdiff1d(live, dead)
            apply_deletes(ix_pages, doc_ids=dead)
            t1 = time.perf_counter()
            s2 = RayIndexSearcher(ix_pages, num_actors=max(2, NUM_CPUS // 4))
            s2.search(qs[0], k=10)
            reopen.append(time.perf_counter() - t1)
            s.shutdown()
            s = s2
        extra["searcher_reopen_ms"] = round(statistics.median(reopen) * 1000, 2)
    finally:
        s.shutdown()

    # ---------- sf-table pipelines ----------
    import ray.data as rd

    docs_path = os.path.join(SF_DIR, "documents.parquet")
    ix_docs = f"{WORKDIR}/ixdocs_{NUM_CPUS}"
    shutil.rmtree(ix_docs, ignore_errors=True)
    t0 = time.time()
    build_index(
        [docs_path],
        ix_docs,
        rows_per_partition=512,
        extract_html=False,
        dedup_url=False,
        analyzer="standard",
        facet_fields=("lang", "source"),
    )
    timings["build_docs"] = time.time() - t0

    from lucene_solr_ray.stages.dedup import minhash_clusters

    t0 = time.time()
    minhash_clusters(rd.read_parquet(docs_path, columns=["doc_id", "text"]), rounds=None).count()
    timings["dedup_minhash"] = time.time() - t0

    from lucene_solr_ray.stages.dedup import simhash_near_dup_pairs

    t0 = time.time()
    simhash_near_dup_pairs(rd.read_parquet(docs_path, columns=["doc_id", "text"])).count()
    timings["dedup_simhash"] = time.time() - t0

    from lucene_solr_ray.stages.ann import brute_force_topk

    emb = rd.read_parquet(os.path.join(SF_DIR, "embeddings.parquet"))
    qv = np.asarray([r["embedding"] for r in emb.take(8)], dtype=np.float32)
    t0 = time.time()
    brute_force_topk(emb, qv, k=10)
    timings["ann_brute"] = time.time() - t0

    result = {
        "metric": "lucene_solr_ray headline pipelines (index build + BM25 query + facets + dedup + ANN)",
        "value": round(sum(timings.values()), 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "pages_n": PAGES_N,
        **extra,
    }
    shutil.rmtree(ix_pages, ignore_errors=True)
    shutil.rmtree(ix_docs, ignore_errors=True)
    ray.shutdown()
    return result


def _latency_probe_ms(iters: int = 30) -> float:
    """p50 wall time of a FIXED single-thread workload (numpy sort + matmul,
    ~query-sized).  Deterministic work, so drift in this number measures the
    HOST, not the code — the in-JSON counterpart of the --scaling ceilings."""
    import numpy as np

    rng = np.random.default_rng(7)
    a = rng.random((256, 256))
    v = rng.random(200_000)
    ts = []
    for _ in range(iters):
        t0 = time.perf_counter()
        np.sort(v.copy())
        (a @ a).sum()
        ts.append(time.perf_counter() - t0)
    return round(statistics.median(ts) * 1000, 3)


def _ceil_alu(n):
    x = 1
    for _i in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


def _ceil_bw(_):
    import numpy as np

    a = np.random.default_rng(0).random(20_000_000)
    s = 0.0
    for _i in range(6):
        s += float((a * 1.0001).sum())
    return s


def _ceil_pystr(n):
    """Python string+dict workload shaped like the tokenize kernel (regex
    scan, str.lower, dict-of-lists) — measures how ANY process-parallel
    pure-Python string job scales on this box's allocator + memory bus.
    The build's dominant stage IS this workload, so its ceiling is the right
    normalizer for the tokenize-bound efficiency number."""
    import re

    pat = re.compile(r"[A-Za-z0-9]+")
    text = ("The Quick Brown Fox jumps over 42 lazy dogs near the riverbank " * 40)
    tot = 0
    for _i in range(n):
        per: dict = {}
        pos = -1
        for m in pat.finditer(text):
            pos += 1
            t = m.group(0).lower()
            lst = per.get(t)
            if lst is None:
                per[t] = [pos]
            else:
                lst.append(pos)
        tot += len(per)
    return tot


def _machine_ceilings() -> dict:
    """Microbenchmark ceilings of THIS VM (single shared memory bus): how an
    embarrassingly-parallel ALU-bound job and a numpy bandwidth-bound job
    scale 8->32 processes.  Reported alongside the build numbers so the
    scaling claim is self-contained: on real 4x nodes each node brings its
    own memory bus; this box cannot, so bandwidth-bound stages cap below 1.
    """
    import multiprocessing as mp

    out = {}
    for name, fn, arg, warm in [
        ("alu", _ceil_alu, 6_000_000, 1000),
        ("numpy_bw", _ceil_bw, 0, 0),
        # ~1.5 s/task: sized so 32-process pool startup is noise, not signal
        ("pystr", _ceil_pystr, 7_000, 10),
    ]:
        per = {}
        for n in (2, 8, 32):
            with mp.Pool(n) as pool:
                # warmup map absorbs fork/import cost before the timed pass
                pool.map(fn, [warm] * n)
                t0 = time.time()
                pool.map(fn, [arg] * (n * 2))
                per[n] = (n * 2) / (time.time() - t0)  # tasks/sec
        out[f"ceiling_{name}_2_8"] = round((per[8] / per[2]) / 4.0, 3)
        out[f"ceiling_{name}_8_32"] = round((per[32] / per[8]) / 4.0, 3)
    return out


def run_scaling() -> dict:
    """Three fresh processes (num_cpus=2, 8, 32) on the same input;
    efficiency pairs (2->8, 8->32, 2->32) on build_pages docs/s, plus this
    VM's microbenchmark ceilings (see BASELINE.md for interpretation)."""

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            BENCH_ONLY_BUILD="1",
            BENCH_PAGES_N=os.environ.get("BENCH_SCALING_N", "400000"),
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def drain():
        # isolate measurements: flush page cache and let the previous Ray
        # session's workers/object store tear down fully
        os.system("sync")
        try:
            with open("/proc/sys/vm/drop_caches", "w") as f:
                f.write("3")
        except OSError:
            pass
        time.sleep(15)

    levels = [int(c) for c in os.environ.get("BENCH_SCALING_CPUS", "2,8,32").split(",")]
    # BENCH_SCALING_REPEATS=k runs k INTERLEAVED (lo..hi) cycles and reports
    # the median per-cycle efficiency: host speed on this shared VM drifts
    # 2-2.5x minute-to-minute (BASELINE.md), so an efficiency ratio taken
    # from two legs measured minutes apart mixes window drift into the
    # number; per-cycle ratios keep both legs of a pair adjacent in time and
    # the median rejects cycles that straddle a drift edge.
    repeats = max(1, int(os.environ.get("BENCH_SCALING_REPEATS", "1")))
    # per-leg journal: each completed leg is appended immediately, so a run
    # killed mid-cycle (host drift can stretch a cycle past any timeout)
    # leaves every finished leg recoverable instead of losing the whole run
    journal = os.environ.get("BENCH_SCALING_JOURNAL", "/tmp/bench_scaling_journal.jsonl")
    # Interleave ONE workload-ceiling cycle (bare-multiprocessing, same
    # kernels) inside EACH pipeline cycle, so every cycle gets a divisor
    # measured in ITS OWN window.  End-of-run ceilings repeatedly poisoned
    # the normalization on this drifting host (run C: pipeline cycles at
    # 0.751 raw, but the ceiling ran minutes later in a different window
    # and measured > 1).  Median-of-per-cycle-normalized is the headline;
    # BENCH_INTERLEAVE_CEILING=0 restores the end-of-run aggregate.
    interleave_ceiling = (
        not os.environ.get("BENCH_SKIP_WORKLOAD_CEILING")
        and os.environ.get("BENCH_INTERLEAVE_CEILING", "1") != "0"
    )
    cycles: list[dict[int, dict]] = []
    wl_cycles: list[dict] = []
    # per-cycle host-noise probe IN THE SAME JSON as the efficiencies it
    # qualifies (the verdict's done-criterion asks for probe-qualification
    # in-band; build-only legs record no query-lane probe, so sample here,
    # immediately before each cycle's first leg)
    cycle_probes: list[float] = []
    for cyc in range(repeats):
        probe = round(
            statistics.median(_latency_probe_ms() for _ in range(3)), 2
        )
        cycle_probes.append(probe)
        try:
            with open(journal, "a") as jf:
                jf.write(json.dumps({"cycle": cyc, "host_probe_ms": probe}) + "\n")
        except OSError:
            pass
        runs: dict[int, dict] = {}
        for c in levels:
            drain()
            runs[c] = run(c)
            try:
                with open(journal, "a") as jf:
                    jf.write(json.dumps({"cycle": cyc, "num_cpus": c, **runs[c]}) + "\n")
            except OSError:
                pass
        cycles.append(runs)
        if interleave_ceiling:
            try:
                wl = run_workload_ceiling(repeats=1)
            except Exception as ex:  # never fail the protocol for the divisor
                wl = {"error": repr(ex)}
            wl_cycles.append(wl)
            try:
                with open(journal, "a") as jf:
                    jf.write(json.dumps({"cycle": cyc, "workload_ceiling": wl}) + "\n")
            except OSError:
                pass

    def _median(xs):
        xs = sorted(xs)
        m = len(xs) // 2
        return xs[m] if len(xs) % 2 else (xs[m - 1] + xs[m]) / 2

    result = {
        "metric": (
            f"scaling efficiency (build_pages docs/s, fresh processes, CPUs {levels}"
            + (f", median of {repeats} interleaved cycles)" if repeats > 1 else ")")
        ),
        "pages_n": cycles[0][levels[0]]["pages_n"],
    }
    for c in levels:
        result[f"docs_per_sec_{c}"] = round(_median([r[c]["docs_per_sec"] for r in cycles]), 1)
        result[f"build_sec_{c}"] = round(_median([r[c]["queries"]["build_pages"] for r in cycles]), 3)
    pairs = list(zip(levels, levels[1:]))
    if len(levels) > 2:
        pairs.append((levels[0], levels[-1]))
    for lo, hi in pairs:
        effs = [
            (r[hi]["docs_per_sec"] / r[lo]["docs_per_sec"]) / (hi / lo) for r in cycles
        ]
        result[f"eff_{lo}_{hi}"] = round(_median(effs), 3)
        if repeats > 1:
            result[f"eff_{lo}_{hi}_cycles"] = [round(e, 3) for e in effs]
    if repeats > 1:
        result["docs_per_sec_cycles"] = {
            str(c): [round(r[c]["docs_per_sec"], 1) for r in cycles] for c in levels
        }
    result["scaling_efficiency"] = result.get(
        f"eff_{levels[0]}_{levels[1]}", next(v for k, v in result.items() if k.startswith("eff_"))
    )
    result["host_probe_ms_cycles"] = cycle_probes
    result["host_probe_ms"] = round(_median(cycle_probes), 2)
    result["host_probe_ms_end"] = round(
        statistics.median(_latency_probe_ms() for _ in range(3)), 2
    )
    result.update(_machine_ceilings())
    # ceiling-normalized efficiency: measured eff divided by what a pure
    # ALU-bound embarrassingly-parallel job achieves on THIS box at the same
    # step (machine-checkable form of the shared-memory-bus argument)
    for lo, hi in zip(levels, levels[1:]):
        for cname in ("alu", "pystr"):
            ceil = result.get(f"ceiling_{cname}_{lo}_{hi}")
            if ceil:
                result[f"eff_norm_{cname}_{lo}_{hi}"] = round(
                    result[f"eff_{lo}_{hi}"] / ceil, 3
                )
    # headline normalization uses the ALU ceiling (the conservative,
    # compute-bound "perfectly parallel job on THIS box" divisor); the pystr
    # ceiling — the tokenize-shaped pure-Python workload — is reported
    # alongside as corroborating evidence.  A normalized value > 1 means the
    # probe itself hit host contention in that window; treat the window as
    # unreliable and re-run (BASELINE.md round-2 notes).
    first = f"eff_norm_alu_{levels[0]}_{levels[1]}"
    if first in result:
        result["scaling_efficiency_ceiling_normalized"] = result[first]
    # workload-shaped ceiling (bare multiprocessing, same kernels, no Ray):
    # the strongest divisor — what THIS workload can scale to on THIS box
    # with zero orchestration.  BENCH_SKIP_WORKLOAD_CEILING=1 disables.
    if interleave_ceiling and wl_cycles:
        # per-cycle same-window normalization: cycle i's measured eff
        # divided by cycle i's OWN ceiling; headline = median of the
        # per-cycle normalized values (median of ratios, not ratio of
        # medians — each ratio is window-consistent by construction)
        for lo, hi in zip(levels, levels[1:]):
            key = f"eff_{lo}_{hi}"
            raw_effs = [
                (r[hi]["docs_per_sec"] / r[lo]["docs_per_sec"]) / (hi / lo)
                for r in cycles
            ]
            cw = [w.get(key) for w in wl_cycles]
            norm = [
                round(e / c, 3) for e, c in zip(raw_effs, cw) if c
            ]
            good = [c for c in cw if c]
            if good:
                result[f"ceiling_workload_{lo}_{hi}"] = round(_median(good), 3)
                result[f"ceiling_workload_{lo}_{hi}_cycles"] = [
                    round(c, 3) if c else None for c in cw
                ]
            if norm:
                result[f"eff_norm_workload_{lo}_{hi}"] = round(_median(norm), 3)
                result[f"eff_norm_workload_{lo}_{hi}_cycles"] = norm
        result["workload_ceiling_docs_per_sec"] = {
            k: round(_median([w[k] for w in wl_cycles if k in w]), 1)
            for k in {k for w in wl_cycles for k in w if k.startswith("docs_per_sec_") and not k.endswith("_cycles")}
        }
        errs = [w["error"] for w in wl_cycles if "error" in w]
        if errs:
            result["workload_ceiling_error"] = errs[0]
    elif not os.environ.get("BENCH_SKIP_WORKLOAD_CEILING"):
        # end-of-run aggregate (BENCH_INTERLEAVE_CEILING=0); an explicit
        # BENCH_CEILING_REPEATS env wins — passed as an argument, the
        # process env is never mutated (ADVICE r4)
        wl_repeats = int(os.environ.get("BENCH_CEILING_REPEATS", "1"))
        try:
            wl = run_workload_ceiling(repeats=wl_repeats)
        except Exception as ex:  # never fail the protocol for the divisor
            result["workload_ceiling_error"] = repr(ex)
        else:
            for lo, hi in zip(levels, levels[1:]):
                ceil = wl.get(f"eff_{lo}_{hi}")
                if ceil:
                    result[f"ceiling_workload_{lo}_{hi}"] = ceil
                    result[f"eff_norm_workload_{lo}_{hi}"] = round(
                        result[f"eff_{lo}_{hi}"] / ceil, 3
                    )
            result["workload_ceiling_docs_per_sec"] = {
                k: v for k, v in wl.items() if k.startswith("docs_per_sec_")
            }
    return result


def _ceiling_files_worker(args):
    """One bare OS process of the workload ceiling: run the EXACT build
    stage-2 kernels (extract_batch -> tokenize_batch -> column select ->
    snappy parquet write) over a list of input files — no Ray, no object
    store, no scheduler.  Same batch size, same analyzer, same output
    columns as `index/build.py` stage 2."""
    files, out_dir, batch_size = args
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.stages.extract import extract_batch
    from lucene_solr_ray.stages.tokenize import tokenize_batch

    ndocs = 0
    for f in files:
        t = pq.read_table(f)
        parts = []
        for off in range(0, t.num_rows, batch_size):
            b = t.slice(off, batch_size)
            b = extract_batch(b)
            b = tokenize_batch(
                b, with_positions=True, analyzer="standard", extra_text_fields=()
            )
            keep = [
                c
                for c in ("doc_id", "dl", "norm", "terms", "tfs", "positions", "url")
                if c in b.column_names
            ]
            parts.append(b.select(keep))
        out = pa.concat_tables(parts)
        ndocs += out.num_rows
        pq.write_table(
            out, os.path.join(out_dir, os.path.basename(f)), compression="snappy"
        )
    return ndocs


def run_workload_ceiling(repeats: int | None = None) -> dict:
    """Workload-SHAPED scaling ceiling: the tokenize stage's own kernels via
    bare ``multiprocessing`` at 2 and 8 processes over the same corpus the
    --scaling protocol builds.  If the Ray pipeline's per-stage efficiency
    matches this number, the gap to 1.0 is the box (one socket, one shared
    memory bus), not the orchestration — a workload-specific, much stronger
    form of the generic ALU/pystr microbench ceilings."""
    import glob as _glob
    import multiprocessing as mp

    pages_n = int(os.environ.get("BENCH_SCALING_N", "400000"))
    cache = f"/tmp/lsr_bench_pages_{pages_n}"
    if not os.path.exists(os.path.join(cache, "_DONE")):
        # create the corpus once (the only Ray use in this mode); reuse a
        # live in-process session rather than tearing it down (ADVICE r4 —
        # shutdown here would kill a caller's session, and fork-mode Pool
        # after a live Ray session risks deadlock, so never init one either
        # when the corpus is warm)
        import ray

        owns_session = not ray.is_initialized()
        if owns_session:
            ray.init(address="local", num_cpus=8, include_dashboard=False,
                     logging_level="ERROR")
        from lucene_solr_ray.fixtures import write_pages_parquet

        shutil.rmtree(cache, ignore_errors=True)
        write_pages_parquet(cache, pages_n, n_files=PAGES_FILES)
        open(os.path.join(cache, "_DONE"), "w").write("ok")
        if owns_session:
            ray.shutdown()
    files = sorted(_glob.glob(os.path.join(cache, "*.parquet")))

    levels = [int(c) for c in os.environ.get("BENCH_CEILING_CPUS", "2,8").split(",")]
    if repeats is None:
        repeats = int(os.environ.get("BENCH_CEILING_REPEATS", "3"))
    repeats = max(1, repeats)
    cycles: list[dict[int, float]] = []
    # fork-mode Pool under a live in-process Ray session can inherit held
    # gRPC/core-worker mutexes and hang; spawn costs ~1s of startup per leg
    # but is safe regardless of the caller's session state.
    import ray as _ray

    ctx = mp.get_context("spawn" if _ray.is_initialized() else "fork")
    for _ in range(repeats):
        rates: dict[int, float] = {}
        for n in levels:
            out_dir = f"{WORKDIR}_ceiling_{n}"
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir, exist_ok=True)
            chunks = [(files[i::n], out_dir, 512) for i in range(n)]
            t0 = time.time()
            with ctx.Pool(n) as pool:
                ndocs = sum(pool.map(_ceiling_files_worker, chunks))
            rates[n] = ndocs / (time.time() - t0)
            shutil.rmtree(out_dir, ignore_errors=True)
        cycles.append(rates)

    def _median(xs):
        xs = sorted(xs)
        m = len(xs) // 2
        return xs[m] if len(xs) % 2 else (xs[m - 1] + xs[m]) / 2

    result = {
        "metric": (
            "workload ceiling: bare-multiprocessing extract+tokenize+write "
            f"(no Ray), CPUs {levels}, median of {repeats} interleaved cycles"
        ),
        "pages_n": pages_n,
    }
    for n in levels:
        result[f"docs_per_sec_{n}"] = round(_median([r[n] for r in cycles]), 1)
        result[f"docs_per_sec_{n}_cycles"] = [round(r[n], 1) for r in cycles]
    for lo, hi in zip(levels, levels[1:]):
        effs = [(r[hi] / r[lo]) / (hi / lo) for r in cycles]
        result[f"eff_{lo}_{hi}"] = round(_median(effs), 3)
        result[f"eff_{lo}_{hi}_cycles"] = [round(e, 3) for e in effs]
    return result


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--workload-ceiling" in sys.argv:
        print(json.dumps(run_workload_ceiling()))
    else:
        print(json.dumps(run_bench()))
