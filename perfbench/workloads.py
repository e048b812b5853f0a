"""The three workloads: ``ingest``, ``search`` and ``facet_update``.

Each returns a ``Result``: end-to-end metrics, wall-clock figures, per-layer
metrics (traced run only), workload properties, and the count of attempted
and failed ops.  An op fails when it raises, times out, or its answer
differs from the oracle's (queries) or from the run's first build (index
digests).

Every workload builds the index, opens a searcher and serves queries; they
differ in what the timed window does:

* ``ingest``: back-to-back full builds.  Queries are served afterwards by a
  freshly opened searcher over the last build.
* ``search``: BM25 top-k over a warm searcher; no facets, no deletes.
* ``facet_update``: the same stream with facets, in cycles of
  ``COMMIT_EVERY`` queries and one commit that tombstones 1% of the live
  docs and reopens the searcher.

The gated costs are machine CPU seconds at reference host speed
(``speed.CpuMeter``) rather than wall time.  On a shared host, wall-clock
latency of the same code moves by 2x with the neighbours' load: steal takes
the CPU away, and a loaded host runs the same instructions more slowly.  CPU
time excludes steal, and the speed scale removes the slowdown.  Wall-clock
figures and unscaled CPU are still measured and reported next to them.
"""

from __future__ import annotations

import glob
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import ray

from bench import _latency_probe_ms
from lucene_solr_ray.fixtures import query_to_ast, write_pages_parquet
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.deletes import apply_deletes

import inputs
import layers
from load import Ops, QueryLoad, Recorder, SearcherSlot
from speed import CpuMeter, SpeedMeter

N_PAGES = 8192
N_FILES = 32
ROWS_PER_PARTITION = 2048
QUERY_SET = 600
CLIENTS = 2
ACTORS = 2
WARM_QUERIES = 100
OPENS = 3
INGEST_QUERIES = 800
COMMIT_EVERY = 100
DELETE_SHARE = 0.01
PROBE_QUERIES = 120
PROBE_RPC_QUERIES = 60


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: str
    run_dir: str
    cache_dir: str
    ray_start_s: float  # CPU seconds at reference speed
    num_cpus: int
    actor_cpus: float
    tracer: layers.Tracer
    speed: SpeedMeter
    ops: Ops
    deadline: float  # perf_counter time of the run cap


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)


def tail_ms(ms: list[float]) -> tuple[float, float]:
    """(value, percentile): the 99th percentile, or with fewer than 1,000
    samples the highest percentile that has ten samples beyond it."""
    xs = sorted(ms)
    n = len(xs)
    i = min(math.ceil(0.99 * n) - 1, n - 11) if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n


def build(ctx: Ctx, files: list[str], name: str) -> tuple[dict, CpuMeter, str]:
    """Fresh build -> (manifest, its CPU meter, index dir)."""
    ix = os.path.join(ctx.run_dir, name)
    ctx.ops.start()
    with CpuMeter(ctx.speed) as cpu, ctx.tracer.span("build_index"):
        m = build_index(
            files, ix, rows_per_partition=ROWS_PER_PARTITION,
            multi_facet_fields=(inputs.LONG_TAIL_FACET,), with_positions=True, resume=False,
        )
    return m, cpu, ix


@ray.remote(num_cpus=0)
def _noop() -> int:
    return 0


def host_noise(slot: SearcherSlot | None) -> dict:
    """Host latency probe and Ray fan-out ping, qualifying the run."""
    pings = []
    for _ in range(20):
        t0 = time.perf_counter()
        if slot is not None and slot.current is not None:
            ray.get([a.ping.remote() for a in slot.current.searcher.actors])
        else:
            ray.get([_noop.remote() for _ in range(ACTORS)])
        pings.append(time.perf_counter() - t0)
    return {"host.probe_ms": _latency_probe_ms(), "ray.fanout_ping_ms": statistics.median(pings) * 1000}


def check_answers(res: Result, exp: inputs.Expected, slot: SearcherSlot, qmap: dict,
                  recorders: list[Recorder], facets: bool) -> None:
    """Count every query, probe and load error as an op; fail the wrong ones."""
    t0 = time.perf_counter()
    memo: dict = {}
    for why in (e for rec in recorders for e in rec.errors):
        res.attempted += 1
        res.fail(why)
    for r in (r for rec in recorders for r in rec.queries + rec.probes):
        res.attempted += 1
        if "error" in r:
            res.fail(f"q{r['qid']}: {r['error']}")
            continue
        q = qmap[r["qid"]]
        if r["ast"] != query_to_ast(q):
            res.fail(f"q{r['qid']}: parsed AST differs from the fixture AST")
            continue
        key = (r["qid"], r["epoch"])
        if key not in memo:
            ff = (*q["facet_fields"], inputs.LONG_TAIL_FACET) if facets else ()
            memo[key] = exp.answer(q, slot.epochs[r["epoch"]], ff)
        why = inputs.mismatch(r, memo[key])
        if why:
            res.fail(f"q{r['qid']} epoch {r['epoch']}: {why}")
    res.report["phases_s"]["check"] = time.perf_counter() - t0


def query_phase(res: Result, rec: Recorder, wall: float, cpu: CpuMeter, commits: list[dict]) -> None:
    """End-to-end query and commit costs plus the wall-clock figures of one
    query phase and the commits that belong to it."""
    ms = [r["ms"] for r in rec.queries if "ms" in r]
    if not ms or not commits:
        res.attempted += 1
        res.fail("no query or no commit completed before the run cap")
        return
    tail, pct = tail_ms(ms)
    res.metrics["query_cpu_ms"] = rec.query_cpu_s * 1000 / len(ms)
    res.metrics["commit_cpu_ms"] = statistics.median(c["cpu_ms"] for c in commits)
    res.report["raw_cpu"] = {"query_ms": rec.query_raw_cpu_s * 1000 / len(ms),
                             "commit_ms": statistics.median(c["raw_cpu_ms"] for c in commits)}
    res.wall["commit_ms"] = statistics.median(c["commit_ms"] for c in commits)
    res.wall["commit_samples"] = len(commits)
    res.wall.update({
        "query_p50_ms": statistics.median(ms), "query_p99_ms": tail,
        "query_qps": len(ms) / wall, "query_samples": len(ms),
        "query_tail_percentile": pct, "steal_pct": cpu.steal_pct,
    })
    traced = [r["ms"] for r in rec.queries if r.get("traced")]
    untraced = [r["ms"] for r in rec.queries if "ms" in r and not r.get("traced")]
    if res.layers is not None and traced and untraced:
        tr, un = statistics.median(traced), statistics.median(untraced)
        res.report["trace_overhead"] = {"traced_p50_ms": tr, "untraced_p50_ms": un}
        res.layers["trace.overhead_pct"] = (tr - un) / un * 100


def workload_props(res: Result, qmap: dict, rec: Recorder, slot: SearcherSlot, facets: bool) -> None:
    recs = sorted((r for r in rec.queries if "ms" in r), key=lambda r: r["t"])
    issued = [qmap[r["qid"]] for r in recs]
    paths = [inputs.engine_path(r["ast"], facets, len(slot.epochs[r["epoch"]]) > 0) for r in recs]
    n = max(1, len(issued))
    res.report["workload"] = {
        "class_shares": {c: [q["type"] for q in issued].count(c) / n for c in layers.QUERY_CLASSES},
        "path_shares": {p: paths.count(p) / n for p in ("wand", "conjunction", "exhaustive")},
        "repeat_term_share": inputs.repeat_term_share(issued),
    }
    if res.layers is not None:
        hits = [r["total_hits"] for r in recs]
        res.layers["search.total_hits_unknown_share"] = sum(t < 0 for t in hits) / max(1, len(hits))


def _prepare(ctx: Ctx, res: Result):
    """Corpus, then an untimed warm-up build of it: the first build in a
    process pays worker start-up and imports, and costs a tenth more than
    the next.  Returns the query set, the corpus files, the deduplicated
    rows and the set-up CPU seconds so far."""
    queries = inputs.query_set(QUERY_SET, ctx.seed)
    with CpuMeter(ctx.speed) as corpus, ctx.tracer.span("setup.corpus"):
        files = write_pages_parquet(os.path.join(ctx.run_dir, "pages"), N_PAGES, N_FILES, ctx.seed)
    with ctx.tracer.span("setup.warm_build"):
        _, warm, ix = build(ctx, files, "warm")
    shutil.rmtree(ix, ignore_errors=True)
    res.report["setup_cpu_s"] = {"ray_start": ctx.ray_start_s, "corpus": corpus.cpu_s,
                                 "warm_build": warm.cpu_s}
    res.report["phases_s"] = {"corpus": corpus.wall_s, "warm_build": warm.wall_s}
    rows = inputs.live_rows(inputs.read_rows(files))
    return queries, files, rows, ctx.ray_start_s + corpus.cpu_s + warm.cpu_s


def _expected(ctx: Ctx, rows: list[dict], queries: list[dict], max_doc: int, res: Result):
    res.attempted += 1
    if len(rows) != max_doc:
        res.fail(f"index max_doc {max_doc} != {len(rows)} deduplicated input rows")
    digest = inputs.source_digest([os.path.join(ctx.root, "lucene_solr_ray"), os.path.dirname(__file__)])
    key = f"oracle-s{ctx.seed}-n{N_PAGES}-q{QUERY_SET}-{digest}.npz"
    for stale in glob.glob(os.path.join(ctx.cache_dir, "oracle-*.npz")):
        if not stale.endswith(f"-{digest}.npz"):
            os.remove(stale)
    t0 = time.perf_counter()
    exp = inputs.Expected(rows, queries, os.path.join(ctx.cache_dir, key))
    res.report["phases_s"]["oracle"] = time.perf_counter() - t0
    return exp


def _trace_layers(ctx: Ctx, res: Result, files, rows, index_dir, queries, slot, facets,
                  manifests, open_s, apply_ms) -> None:
    """Per-layer probes after the window (traced run only); closes ``slot``."""
    res.layers.update(layers.build_stage_secs(manifests))
    res.layers.update(layers.probe_analysis(files, ctx.tracer))
    res.layers.update(layers.probe_rpc(slot.current.searcher, queries[:PROBE_RPC_QUERIES], facets, ctx.tracer))
    res.layers["searcher.open_s"] = statistics.median(open_s)
    slot.close()
    res.layers.update(layers.probe_index(index_dir, queries[:PROBE_QUERIES], facets, ctx.tracer))
    if not apply_ms:
        live = np.setdiff1d(np.array([r["doc_id"] for r in rows]), slot.epochs[-1])
        ids = inputs.tombstone_draw(live, ctx.seed, 0, DELETE_SHARE)
        t0 = time.perf_counter()
        with ctx.tracer.span("layer.apply_deletes"):
            apply_deletes(index_dir, doc_ids=ids)
        apply_ms = [(time.perf_counter() - t0) * 1000]
    res.layers["deletes.apply_ms"] = statistics.median(apply_ms)


def _load(ctx: Ctx, slot: SearcherSlot, queries: list[dict], **kw) -> QueryLoad:
    return QueryLoad(slot, queries, ctx.speed, ctx.ops, ctx.deadline, clients=CLIENTS,
                     tracer=ctx.tracer if ctx.trace else None, **kw)


# --------------------------------------------------------------- workloads ---


def run_ingest(ctx: Ctx) -> Result:
    res = Result(layers={} if ctx.trace else None)
    queries, files, rows, setup_s = _prepare(ctx, res)
    noise_before = host_noise(None)

    manifests, builds, digests, last_ix = [], [], [], None
    t_end = time.perf_counter() + ctx.seconds
    while not builds or time.perf_counter() < t_end:
        res.attempted += 1
        try:
            m, cpu, ix = build(ctx, files, f"ix{len(builds)}")
        except Exception as e:
            res.fail(f"build: {e!r}")
            break
        d = inputs.index_digest(ix)
        if digests and d != digests[0]:
            res.fail(f"build {len(builds)} index digest differs from build 0")
        manifests.append(m)
        builds.append(cpu)
        digests.append(d)
        if last_ix:
            shutil.rmtree(last_ix, ignore_errors=True)
        last_ix = ix
    res.report["phases_s"]["window"] = sum(c.wall_s for c in builds)
    noise_after = host_noise(None)
    max_doc = manifests[0]["max_doc"]

    slot = SearcherSlot(last_ix, ACTORS, ctx.actor_cpus)
    load = _load(ctx, slot, queries)
    rec = Recorder()
    opens = [load.commit(rec, queries[i], 0.0) for i in range(OPENS)]
    with CpuMeter(ctx.speed) as cpu:
        wall = load.run(rec, n_queries=INGEST_QUERIES)

    res.metrics = {
        "setup_s": setup_s,
        "build_docs_per_cpu_s": statistics.median(max_doc / c.cpu_s for c in builds),
        "index_bytes_per_input_byte": inputs.index_bytes(last_ix) / inputs.input_bytes(files),
    }
    res.wall = {"build_docs_per_s": statistics.median(max_doc / c.wall_s for c in builds)}
    query_phase(res, rec, wall, cpu, rec.commits)
    workload_props(res, {q["qid"]: q for q in queries}, rec, slot, False)
    res.report["workload"]["deleted_share"] = 0.0
    res.report.update({"builds": len(builds), "build_walls_s": [c.wall_s for c in builds],
                       "build_cpu_s": [c.cpu_s for c in builds],
                       "build_raw_cpu_s": [c.raw_cpu_s for c in builds],
                       "max_doc": max_doc, "index_digest": digests[0][:16],
                       "noise_before": noise_before, "noise_after": noise_after})
    if ctx.trace:
        _trace_layers(ctx, res, files, rows, last_ix, queries, slot, False, manifests,
                      [c["open_s"] for c in opens], [])
    slot.close()
    exp = _expected(ctx, rows, queries, max_doc, res)
    check_answers(res, exp, slot, {q["qid"]: q for q in queries}, [rec], False)
    return res


def _serve(ctx: Ctx, facets: bool) -> Result:
    res = Result(layers={} if ctx.trace else None)
    queries, files, rows, setup_s = _prepare(ctx, res)
    m, built, ix = build(ctx, files, "ix")
    slot = SearcherSlot(ix, ACTORS, ctx.actor_cpus)
    load = _load(ctx, slot, queries, facets=facets,
                 live_ids=np.array([r["doc_id"] for r in rows], dtype=np.int64), seed=ctx.seed)
    warm = Recorder()
    opens = [load.commit(warm, queries[i], 0.0) for i in range(OPENS)]
    warm_s = load.run(warm, n_queries=WARM_QUERIES)
    setup_s += built.cpu_s + statistics.median(c["cpu_ms"] for c in opens) / 1000 + warm.query_cpu_s
    res.report["setup_cpu_s"].update({"build": built.cpu_s, "opens": [c["cpu_ms"] / 1000 for c in opens],
                                      "warm_queries": warm.query_cpu_s})
    res.report["phases_s"].update({"build": built.wall_s,
                                   "opens": [c["commit_ms"] / 1000 for c in opens], "warm_queries": warm_s})
    noise_before = host_noise(slot)

    rec = Recorder()
    with CpuMeter(ctx.speed) as cpu:
        if facets:  # whole cycles of COMMIT_EVERY queries and one commit
            t0, pos = time.perf_counter(), 0
            while pos == 0 or time.perf_counter() - t0 < ctx.seconds:
                load.run(rec, n_queries=COMMIT_EVERY, start=pos)
                try:
                    load.commit(rec, queries[(pos + COMMIT_EVERY) % QUERY_SET], DELETE_SHARE)
                except Exception as e:  # counted as a failed op
                    rec.errors.append(f"commit: {e!r}")
                pos += COMMIT_EVERY + 1
            wall = time.perf_counter() - t0
        else:
            wall = load.run(rec, seconds=ctx.seconds)
    res.report["phases_s"]["window"] = wall
    noise_after = host_noise(slot)

    res.metrics = {
        "setup_s": setup_s,
        "build_docs_per_cpu_s": m["max_doc"] / built.cpu_s,
        "index_bytes_per_input_byte": inputs.index_bytes(ix) / inputs.input_bytes(files),
    }
    res.wall = {"build_docs_per_s": m["max_doc"] / built.wall_s}
    query_phase(res, rec, wall, cpu, rec.commits if facets else opens)
    qmap = {q["qid"]: q for q in queries}
    workload_props(res, qmap, rec, slot, facets)
    res.report["workload"]["deleted_share"] = len(slot.epochs[-1]) / m["max_doc"]
    res.report.update({"max_doc": m["max_doc"], "build_raw_cpu_s": [built.raw_cpu_s],
                       "noise_before": noise_before,
                       "noise_after": noise_after, "commits": rec.commits})
    res.attempted += len(rec.commits)
    if ctx.trace:
        _trace_layers(ctx, res, files, rows, ix, queries, slot, facets, [m],
                      [c["open_s"] for c in opens], [c["apply_ms"] for c in rec.commits])
    slot.close()
    exp = _expected(ctx, rows, queries, m["max_doc"], res)
    check_answers(res, exp, slot, qmap, [warm, rec], facets)
    return res


def run_search(ctx: Ctx) -> Result:
    return _serve(ctx, facets=False)


def run_facet_update(ctx: Ctx) -> Result:
    return _serve(ctx, facets=True)


WORKLOADS = {"ingest": run_ingest, "search": run_search, "facet_update": run_facet_update}
