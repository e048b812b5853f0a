"""Per-layer measurements for the traced run.

``Tracer`` keeps spans (name, start, end, parent, request id) in memory
around the benchmark's calls into the engine and writes them out when the
run ends.  The ``probe_*`` functions time one layer each by calling that
layer's public functions directly, in-process where the layer allows it, on
a fixed sample so the figure is comparable across runs.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from inputs import LONG_TAIL_FACET

SAMPLE_PAGES = 2048
BUILD_STAGES = ("tokenized", "dicts", "docmap", "postings", "stats")
QUERY_CLASSES = ("term", "and", "or", "must_not", "phrase", "field")


def p50(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))

    @contextmanager
    def span(self, name: str, rid: int | None = None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((sid, name, t0, time.perf_counter_ns(), parent, rid))

    def summary(self) -> dict:
        """Per span name: count, total ms and self ms (total minus children)."""
        child_ns: dict[int, int] = {}
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        out: dict[str, dict] = {}
        for sid, name, t0, t1, _, _ in self.spans:
            s = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            s["count"] += 1
            s["total_ms"] += (t1 - t0) / 1e6
            s["self_ms"] += (t1 - t0 - child_ns.get(sid, 0)) / 1e6
        return {k: {kk: round(vv, 3) for kk, vv in v.items()} for k, v in out.items()}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for sid, name, t0, t1, parent, rid in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                                    "parent": parent, "rid": rid}) + "\n")


def build_stage_secs(manifests: list[dict]) -> dict:
    """``build.<stage>_s``: median over builds of each lineage stage's wall."""
    out = {}
    for s in BUILD_STAGES:
        out[f"build.{s}_s"] = p50(m["lineage"][s]["secs"] for m in manifests if s in m["lineage"])
    return out


def probe_analysis(files: list[str], tracer: Tracer) -> dict:
    """extract -> tokenize -> cells -> encode over the first SAMPLE_PAGES pages."""
    from lucene_solr_ray.index.postings import encode_cells_columns
    from lucene_solr_ray.smallfloat import NORM_TABLE
    from lucene_solr_ray.stages.extract import extract_batch
    from lucene_solr_ray.stages.tokenize import explode_to_cells, tokenize_batch

    tables, n = [], 0
    for f in files:
        t = pq.read_table(f)
        tables.append(t)
        n += t.num_rows
        if n >= SAMPLE_PAGES:
            break
    sample = pa.concat_tables(tables).slice(0, SAMPLE_PAGES)
    sample = sample.append_column("partition_id", pa.array(np.asarray(sample["doc_id"]) // 2048))
    n = sample.num_rows
    t0 = time.perf_counter()
    with tracer.span("layer.extract_batch"):
        ex = extract_batch(sample)
    t1 = time.perf_counter()
    with tracer.span("layer.tokenize_batch"):
        tok = tokenize_batch(ex, with_positions=True)
    t2 = time.perf_counter()
    cells = explode_to_cells(tok, with_positions=True)
    docs = cells["docs"].combine_chunks()
    starts = np.asarray(docs.offsets)[:-1]
    flat_docs = np.asarray(docs.flatten(), dtype=np.int64)
    flat_tfs = np.asarray(cells["tfs"].combine_chunks().flatten(), dtype=np.int64)
    dls = NORM_TABLE[np.asarray(cells["norms"].combine_chunks().flatten(), dtype=np.uint8)]
    pos = np.asarray(cells["positions"].combine_chunks().flatten().flatten(), dtype=np.int64)
    t3 = time.perf_counter()
    with tracer.span("layer.encode_cells_columns"):
        enc = encode_cells_columns(starts, flat_docs, flat_tfs, dls, pos)
    t4 = time.perf_counter()
    blob_bytes = sum(enc[c].nbytes for c in ("docs", "freqs", "positions"))
    return {
        "extract.us_per_doc": (t1 - t0) / n * 1e6,
        "tokenize.us_per_doc": (t2 - t1) / n * 1e6,
        "postings.encode_us_per_cell": (t4 - t3) / len(starts) * 1e6,
        "postings.bytes_per_posting": blob_bytes / len(flat_docs),
    }


@contextmanager
def count_fast_paths():
    """Count calls into the engine's WAND and block-skipping conjunction
    paths (``SegmentSearcher.search`` looks both up in ``index.wand`` per
    call) while the block runs."""
    from lucene_solr_ray.index import wand

    counts = {"wand": 0, "conjunction": 0}
    orig = {"wand": wand.wand_topk, "conjunction": wand.conjunction_topk}

    def counted(path):
        def call(*a, **k):
            counts[path] += 1
            return orig[path](*a, **k)
        return call

    wand.wand_topk, wand.conjunction_topk = counted("wand"), counted("conjunction")
    try:
        yield counts
    finally:
        wand.wand_topk, wand.conjunction_topk = orig["wand"], orig["conjunction"]


def probe_index(index_dir: str, queries: list[dict], facets: bool, tracer: Tracer) -> dict:
    """Reader, parser, evaluator and facet costs, in-process on one
    ``SegmentSearcher`` over every partition of the index, and the share of
    queries the engine answered on each scoring path when asked as the
    workload asks (with facets or without)."""
    from lucene_solr_ray.index.reader import GlobalStats, IndexPartition
    from lucene_solr_ray.index.searcher import SegmentSearcher
    from lucene_solr_ray.query.parser import QueryParser

    stats = GlobalStats(index_dir)
    pids = [p["partition_id"] for p in stats.manifest["partitions"]]
    parser = QueryParser()
    parse_us = []
    for q in queries:
        t0 = time.perf_counter()
        parser.parse(q["qs"])
        parse_us.append((time.perf_counter() - t0) * 1e6)

    # reader: first decode of each distinct text term, on fresh partitions
    parts = [IndexPartition(index_dir, pid, stats) for pid in pids]
    terms = sorted({t for q in queries if q["type"] != "field" for t in q["terms"]})
    post_us, pos_us = [], []
    for t in terms:
        t0 = time.perf_counter()
        with tracer.span("layer.reader.postings"):
            for p in parts:
                p.postings("text", t)
        t1 = time.perf_counter()
        with tracer.span("layer.reader.positions"):
            for p in parts:
                p.positions("text", t)
        t2 = time.perf_counter()
        post_us.append((t1 - t0) * 1e6)
        pos_us.append((t2 - t1) * 1e6)

    seg = SegmentSearcher(index_dir, pids)
    per_class: dict[str, list] = {c: [] for c in QUERY_CLASSES}
    facet_delta = []
    taken = {"wand": 0, "conjunction": 0}
    for q in queries:
        ast = parser.parse(q["qs"])
        with count_fast_paths() as plain:
            t0 = time.perf_counter()
            with tracer.span("layer.eval"):
                seg.search(ast, k=q["k"])
            t1 = time.perf_counter()
        with count_fast_paths() as faceted:
            with tracer.span("layer.eval+facets"):
                seg.search(ast, k=q["k"], facet_fields=(*q["facet_fields"], LONG_TAIL_FACET))
            t2 = time.perf_counter()
        per_class[q["type"]].append((t1 - t0) * 1000)
        facet_delta.append((t2 - t1) - (t1 - t0))
        for path, calls in (faceted if facets else plain).items():
            taken[path] += calls
    n = len(queries)
    out = {
        "paths.wand_share": taken["wand"] / n,
        "paths.conjunction_share": taken["conjunction"] / n,
        "paths.exhaustive_share": (n - taken["wand"] - taken["conjunction"]) / n,
        "parser.parse_us": p50(parse_us),
        "reader.postings_us": p50(post_us),
        "reader.positions_us": p50(pos_us),
        "facets.count_ms": p50(facet_delta) * 1000,
    }
    for c in QUERY_CLASSES:
        out[f"eval.{c}_ms"] = p50(per_class[c])
    return out


def probe_rpc(searcher, queries: list[dict], facets: bool, tracer: Tracer, n_ping: int = 100) -> dict:
    """Fan-out ping floor, slowest direct actor call, and the driver's share
    of ``RayIndexSearcher.search`` on the same queries."""
    from lucene_solr_ray.query.parser import QueryParser

    parser = QueryParser()
    pings = []
    for _ in range(n_ping):
        t0 = time.perf_counter()
        with tracer.span("layer.rpc.ping"):
            ray.get([a.ping.remote() for a in searcher.actors])
        pings.append((time.perf_counter() - t0) * 1000)
    actor_ms, search_ms = [], []
    for q in queries:
        ast = parser.parse(q["qs"])
        ff = (*q["facet_fields"], LONG_TAIL_FACET) if facets else ()
        t0 = time.perf_counter()
        with tracer.span("layer.rpc.actor_search"):
            ray.get([a.search.remote(ast, k=q["k"], facet_fields=ff) for a in searcher.actors])
        t1 = time.perf_counter()
        with tracer.span("layer.rpc.driver_search"):
            searcher.search(ast, k=q["k"], facet_fields=ff, facet_mincount=1)
        t2 = time.perf_counter()
        actor_ms.append((t1 - t0) * 1000)
        search_ms.append((t2 - t1) * 1000)
    rss = ray.get([a.memory_mb.remote() for a in searcher.actors])
    return {
        "searcher.rpc_floor_ms": p50(pings),
        "searcher.actor_call_ms": p50(actor_ms),
        "searcher.driver_ms": p50(search_ms) - p50(actor_ms),
        "searcher.actor_rss_mb": max(rss),
    }
