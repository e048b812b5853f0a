"""Closed-loop query load over a reopenable searcher.

Client threads each wait for a reply before sending their next query, as
application servers do.  Every query string is parsed on the client, so the
parser is on the timed path.  Between query phases a commit tombstones docs,
opens a new searcher over the commit, and shuts the old one down.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import nullcontext

import numpy as np

from lucene_solr_ray.index.deletes import apply_deletes, load_deleted
from lucene_solr_ray.index.searcher import RayIndexSearcher
from lucene_solr_ray.query.parser import QueryParser

from inputs import FACET_LIMIT, LONG_TAIL_FACET, tombstone_draw
from speed import CpuMeter, SpeedMeter


class Ops:
    """Count of ops started (queries, builds, commits), so a run stopped by
    its wall-clock cap can report them as failed."""

    def __init__(self):
        self.started = 0
        self._lock = threading.Lock()

    def start(self) -> None:
        with self._lock:
            self.started += 1


class Handle:
    """One open searcher and the tombstone set it sees (its epoch)."""

    def __init__(self, searcher: RayIndexSearcher, epoch: int):
        self.searcher, self.epoch = searcher, epoch


class SearcherSlot:
    """The current searcher over one index, and the tombstone set each
    searcher opened on it saw.  Commits swap searchers between query phases,
    never while a client holds the current one."""

    def __init__(self, index_dir: str, num_actors: int, actor_cpus: float):
        self.index_dir, self.num_actors, self.actor_cpus = index_dir, num_actors, actor_cpus
        self.epochs: list[np.ndarray] = []
        self.current: Handle | None = None

    def open(self) -> Handle:
        """New searcher over the current commit."""
        s = RayIndexSearcher(self.index_dir, num_actors=self.num_actors, actor_cpus=self.actor_cpus)
        self.epochs.append(load_deleted(self.index_dir))
        return Handle(s, len(self.epochs) - 1)

    def swap(self, h: Handle) -> None:
        old, self.current = self.current, h
        if old is not None:
            old.searcher.shutdown()

    def close(self) -> None:
        if self.current is not None:
            self.swap(None)


class Recorder:
    """Everything the load produced: per-query records and per-commit times."""

    def __init__(self):
        self.lock = threading.Lock()
        self.queries: list[dict] = []  # timed queries
        self.probes: list[dict] = []  # first answer of each reopened searcher
        self.commits: list[dict] = []
        self.errors: list[str] = []
        self.query_cpu_s = 0.0  # machine CPU during ``run``, at reference speed
        self.query_raw_cpu_s = 0.0  # the same, unscaled

    def add(self, rec: dict, probe: bool = False) -> None:
        with self.lock:
            (self.probes if probe else self.queries).append(rec)


class QueryLoad:
    """Closed-loop clients over a cycled query list, plus commits.

    ``facets``: also request each query's fixture facet fields plus the
    long-tail multi-valued field.  A commit tombstones ``share`` of the live
    docs (drawn from ``seed``), reopens the searcher, and times the span up
    to the reopened searcher's first answer."""

    def __init__(self, slot: SearcherSlot, queries: list[dict], speed: SpeedMeter, ops: Ops,
                 deadline: float, *, clients: int = 2, facets: bool = False,
                 live_ids: np.ndarray | None = None, seed: int = 0, tracer=None):
        self.slot, self.queries, self.speed, self.ops = slot, queries, speed, ops
        self.deadline, self.clients = deadline, clients
        self.facets, self.live_ids, self.seed, self.tracer = facets, live_ids, seed, tracer
        self.parser = QueryParser()

    def _span(self, on: bool):
        return self.tracer.span if (on and self.tracer) else (lambda *a, **k: nullcontext())

    def one(self, q: dict, h: Handle, traced: bool, rid: int) -> dict:
        self.ops.start()
        span = self._span(traced)
        t0 = time.perf_counter()
        with span("query", rid=rid):
            with span("query.parse", rid=rid):
                ast = self.parser.parse(q["qs"])
            with span("query.search", rid=rid):
                ff = (*q["facet_fields"], LONG_TAIL_FACET) if self.facets else ()
                res = h.searcher.search(ast, k=q["k"], facet_fields=ff,
                                        facet_limit=FACET_LIMIT, facet_mincount=1)
        return {
            "qid": q["qid"], "epoch": h.epoch, "ms": (time.perf_counter() - t0) * 1000,
            "traced": traced, "t": t0, "ast": ast, "topk": res["topk"],
            "total_hits": res["total_hits"], "facets": res["facets"],
        }

    def commit(self, rec: Recorder, q: dict, share: float) -> dict:
        """Tombstone ``share`` of the live docs (none when 0), reopen, answer
        ``q`` on the new searcher, then make it current."""
        span = self._span(True)
        ids = np.empty(0, dtype=np.int64)
        if share:
            live = np.setdiff1d(self.live_ids, self.slot.epochs[-1])
            ids = tombstone_draw(live, self.seed, len(rec.commits), share)
        rid = -1 - len(rec.commits)
        self.ops.start()
        with CpuMeter(self.speed) as cpu, span("commit", rid=rid):
            t0 = time.perf_counter()
            with span("commit.apply_deletes", rid=rid):
                apply_deletes(self.slot.index_dir, doc_ids=ids)
            t1 = time.perf_counter()
            with span("commit.open", rid=rid):
                h = self.slot.open()
            t2 = time.perf_counter()
            rec.add(self.one(q, h, False, rid), probe=True)
        self.slot.swap(h)
        c = {"commit_ms": cpu.wall_s * 1000, "cpu_ms": cpu.cpu_s * 1000, "raw_cpu_ms": cpu.raw_cpu_s * 1000,
             "apply_ms": (t1 - t0) * 1000, "open_s": t2 - t1, "deleted": int(len(ids))}
        rec.commits.append(c)
        return c

    def run(self, rec: Recorder, seconds: float | None = None, n_queries: int | None = None,
            start: int = 0) -> float:
        """Clients query from stream position ``start`` until ``seconds``
        have passed or ``n_queries`` were issued; returns the wall time."""
        stream = itertools.count(start)
        t_start = time.perf_counter()
        stop_at = t_start + seconds if seconds is not None else None

        def client():
            while True:
                now = time.perf_counter()
                if (stop_at is not None and now >= stop_at) or now >= self.deadline:
                    return
                i = next(stream)
                if n_queries is not None and i >= start + n_queries:
                    return
                q = self.queries[i % len(self.queries)]
                try:
                    rec.add(self.one(q, self.slot.current, traced=i % 2 == 0, rid=i))
                except Exception as e:  # counted as a failed op
                    rec.add({"qid": q["qid"], "error": repr(e), "t": time.perf_counter()})

        threads = [threading.Thread(target=client, daemon=True) for _ in range(self.clients)]
        with CpuMeter(self.speed) as cpu:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=max(0.0, self.deadline - time.perf_counter()))
        if any(t.is_alive() for t in threads):
            rec.errors.append("a client thread was still waiting for a reply at the run cap")
        rec.query_cpu_s += cpu.cpu_s
        rec.query_raw_cpu_s += cpu.raw_cpu_s
        return time.perf_counter() - t_start
