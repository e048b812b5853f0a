"""Searcher reopen over live actors (Solr commit -> new searcher from the
current reader; Lucene's reopened ``SegmentReader`` shares the segment core
and loads only the new liveDocs).

A ``RayIndexSearcher`` opened while another searcher of this driver is live
on the same commit (same manifest bytes, same actor count and actor CPUs)
reuses its actors: each actor adds a view with the current tombstones over
the partitions it already holds.  Old views keep their point-in-time
answers; the last searcher out kills the actors."""

from __future__ import annotations

import gc
import os
import shutil
import time

import numpy as np
import pytest


@pytest.fixture
def ix(pages_corpus, tmp_path):
    """A fresh copy of the suite's pages index (no tombstones)."""
    out = str(tmp_path / "ix")
    shutil.copytree(pages_corpus["index_dir"], out)
    return out


FACETS = ("host", "tld", "lang", "links_sim")


def _actor_ids(s):
    return [v.actor._actor_id for v in s.actors]


def _views(s):
    """Per actor: the open view ids, and whether every view's partitions
    share the first view's loaded term columns and docmap arrays."""
    import ray

    def probe(host):
        vs = list(host.views.values())
        shared = all(
            a._tcols is b._tcols and a.doc_ids is b.doc_ids
            for v in vs[1:]
            for a, b in zip(vs[0].parts, v.parts)
        )
        return sorted(host.views), shared

    return ray.get([v.actor.__ray_call__.remote(probe) for v in s.actors])


def _answers(s, queries):
    out = []
    for q in queries:
        r = s.search(q, k=20, facet_fields=FACETS, facet_mincount=1)
        out.append((r["topk"], r["total_hits"], r["facets"]))
    return out


def _queries():
    """The fixture query mix (term / and / or / not / phrase / field) plus
    match-all."""
    from lucene_solr_ray.fixtures import make_query_set, query_to_ast
    from lucene_solr_ray.query.ast import MatchAllQ

    return [query_to_ast(q) for q in make_query_set(24)] + [MatchAllQ()]


def _wand_query():
    """A multi-term text disjunction: WAND answers it with total_hits=-1."""
    from lucene_solr_ray.fixtures import make_query_set, query_to_ast

    q = next(q for q in make_query_set(24) if q["type"] == "or")
    return query_to_ast(q)


def _tombstone(ix, share=0.1, seed=0):
    from lucene_solr_ray.index.deletes import apply_deletes
    from lucene_solr_ray.index.reader import LocalIndex

    ids = LocalIndex(ix).all_docs()
    rng = np.random.default_rng(seed)
    dead = rng.choice(ids, size=max(1, int(len(ids) * share)), replace=False)
    assert apply_deletes(ix, doc_ids=dead) == len(dead)
    return set(int(d) for d in dead)


def _wait_cpus(want, timeout=30.0):
    import ray

    t_end = time.time() + timeout
    while time.time() < t_end:
        got = ray.available_resources().get("CPU", 0.0)
        if got == want:
            return got
        time.sleep(0.2)
    return ray.available_resources().get("CPU", 0.0)


def _dead(view) -> bool:
    """``view``: an entry of a searcher's ``actors`` list."""
    import ray
    from ray.exceptions import RayActorError

    try:
        ray.get(view.ping.remote(), timeout=30)
    except RayActorError:
        return True
    return False


def test_segment_searcher_reopen_loads_no_partition(ix, monkeypatch):
    """In-process: reopen builds no IndexPartition and shares every loaded
    column; the old view keeps its tombstones and its fast paths."""
    from lucene_solr_ray.index import reader
    from lucene_solr_ray.index.searcher import SegmentSearcher

    stats = reader.GlobalStats(ix)
    pids = [p["partition_id"] for p in stats.manifest["partitions"]]
    s0 = SegmentSearcher(ix, pids)
    wand_q = _wand_query()
    before = s0.search(wand_q, k=20)
    assert before["total_hits"] == -1  # WAND (no tombstones)
    dead = _tombstone(ix)

    inits = []
    real_init = reader.IndexPartition.__init__
    monkeypatch.setattr(
        reader.IndexPartition, "__init__",
        lambda self, *a, **k: (inits.append(a), real_init(self, *a, **k))[1],
    )
    s1 = s0.reopen()
    assert inits == []
    for a, b in zip(s0.parts, s1.parts):
        assert a._tcols is b._tcols and a.doc_ids is b.doc_ids
        assert a.columns is b.columns and a._cell_cache is b._cell_cache
        assert not a.has_deletes and b.has_deletes
    assert s1.stats.dicts is s0.stats.dicts and s1.counter_pool is s0.counter_pool

    assert s0.search(wand_q, k=20) == before
    after = s1.search(wand_q, k=20)
    assert after["total_hits"] >= 0  # tombstones force the exhaustive path
    assert not dead & {d for _, d in after["topk"]}
    cold = SegmentSearcher(ix, pids)

    def plain(r):  # facets are (ords, counts, missing) numpy triples here
        f = {k: (o.tolist(), c.tolist(), m) for k, (o, c, m) in r["facets"].items()}
        return r["topk"], r["total_hits"], f

    for q in _queries():
        assert plain(s1.search(q, k=20, facet_fields=FACETS)) == plain(
            cold.search(q, k=20, facet_fields=FACETS)
        )


def test_reopen_shares_live_actors(ix):
    """(a) s1 opened after a delete while s0 is live reuses s0's actors and
    loads no partition; s0 keeps its pre-delete answers (WAND included),
    s1 answers like a cold searcher opened after both shut down."""
    from lucene_solr_ray.index.searcher import RayIndexSearcher

    qs = _queries()
    wand_q = _wand_query()
    s0 = RayIndexSearcher(ix, num_actors=2)
    s1 = None
    try:
        before = _answers(s0, qs)
        wand_before = s0.search(wand_q, k=20)
        assert wand_before["total_hits"] == -1
        dead = _tombstone(ix)
        s1 = RayIndexSearcher(ix, num_actors=2)
        assert _actor_ids(s1) == _actor_ids(s0)
        assert [v.view for v in s1.actors] != [v.view for v in s0.actors]
        for views, shared in _views(s1):
            assert len(views) == 2 and shared

        assert _answers(s0, qs) == before
        assert s0.search(wand_q, k=20) == wand_before
        got = _answers(s1, qs)
        for topk, total, _ in got:
            assert not dead & {d for _, d in topk}
            assert total >= 0
        assert got != before
    finally:
        s0.shutdown()
        if s1 is not None:
            s1.shutdown()
    cold = RayIndexSearcher(ix, num_actors=2)
    try:
        assert _actor_ids(cold) != _actor_ids(s0)
        assert _answers(cold, qs) == got
    finally:
        cold.shutdown()


def test_last_shutdown_kills_shared_actors(ix):
    """(b) shutting down the first searcher keeps the shared actors for the
    second; the second's shutdown kills them and frees their CPUs."""
    import ray

    from lucene_solr_ray.index.searcher import RayIndexSearcher
    from lucene_solr_ray.query.ast import MatchAllQ

    cpus = _wait_cpus(ray.cluster_resources()["CPU"])
    s0 = RayIndexSearcher(ix, num_actors=2)
    s0.search(MatchAllQ(), k=5)
    _tombstone(ix)
    s1 = RayIndexSearcher(ix, num_actors=2)
    handles = list(s1.actors)
    s0.shutdown()
    assert s1.search(MatchAllQ(), k=5)["total_hits"] > 0
    for views, _ in _views(s1):
        assert len(views) == 1
    s1.shutdown()
    assert all(_dead(a) for a in handles)
    assert _wait_cpus(cpus) == cpus


def test_no_sharing_across_commits_or_pool_shapes(ix, tmp_path):
    """(c) a rebuild into the same directory, another actor count or other
    actor CPUs each start their own actors."""
    from lucene_solr_ray.fixtures import write_pages_parquet
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.searcher import RayIndexSearcher

    s0 = RayIndexSearcher(ix, num_actors=2)
    try:
        for kw in ({"num_actors": 1}, {"num_actors": 2, "actor_cpus": 0.5}):
            s = RayIndexSearcher(ix, **kw)
            try:
                assert not set(_actor_ids(s)) & set(_actor_ids(s0)), kw
            finally:
                s.shutdown()
    finally:
        s0.shutdown()

    files = write_pages_parquet(str(tmp_path / "pages"), 200, n_files=2)
    pix = str(tmp_path / "pix")
    build_index(files, pix, rows_per_partition=64)
    s0 = RayIndexSearcher(pix, num_actors=2)
    try:
        build_index(files, pix, rows_per_partition=64, resume=False)
        s1 = RayIndexSearcher(pix, num_actors=2)
        try:
            assert not set(_actor_ids(s1)) & set(_actor_ids(s0))
        finally:
            s1.shutdown()
    finally:
        s0.shutdown()


def test_dropped_searchers_release_views_and_actors(ix):
    """(d) a searcher dropped without shutdown() closes its view; when the
    last one is dropped its actors are killed and the pool unregistered."""
    from lucene_solr_ray.index import searcher as searcher_mod
    from lucene_solr_ray.index.searcher import RayIndexSearcher
    from lucene_solr_ray.query.ast import MatchAllQ

    s0 = RayIndexSearcher(ix, num_actors=2)
    _tombstone(ix)
    s1 = RayIndexSearcher(ix, num_actors=2)
    handles = list(s1.actors)
    del s0
    gc.collect()
    for views, _ in _views(s1):
        assert len(views) == 1
    assert s1.search(MatchAllQ(), k=5)["total_hits"] > 0
    del s1
    gc.collect()
    assert all(_dead(a) for a in handles)
    assert not [k for k in searcher_mod._POOLS.keys() if k[0] == os.path.realpath(ix)]


@pytest.fixture(scope="module")
def union_ix(ray_session, tmp_path_factory):
    """A union of two increments (the tests/test_union_incremental.py
    layout) that this module may tombstone."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.fixtures import make_pages_batch, write_pages_parquet
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.union import union_indexes

    root = tmp_path_factory.mktemp("reopen_union")
    kw = dict(rows_per_partition=64, multi_facet_fields=("links_sim",))
    files_a = write_pages_parquet(str(root / "pa"), 320, n_files=3)
    os.makedirs(root / "pb")
    fb = str(root / "pb" / "pages-00000.parquet")
    pq.write_table(make_pages_batch(np.arange(320, 500)), fb)
    build_index(files_a, str(root / "ixa"), **kw)
    build_index([fb], str(root / "ixb"), **kw)
    union_indexes([str(root / "ixa"), str(root / "ixb")], str(root / "ixu"))
    return str(root / "ixu")


def test_union_reopen_equals_cold_open(union_ix):
    """(e) a reopened union searcher after apply_deletes answers exactly
    like a cold open (member partitions and ordinal maps shared)."""
    from lucene_solr_ray.fixtures import make_query_set, query_to_ast
    from lucene_solr_ray.index.reader import GlobalStats
    from lucene_solr_ray.index.searcher import RayIndexSearcher

    man = GlobalStats(union_ix).manifest
    ff = (*man["facet_fields"], *man["multi_facet_fields"])
    qs = [query_to_ast(q) for q in make_query_set(20)]

    def answers(s):
        return [
            (r["topk"], r["total_hits"], r["facets"])
            for r in (s.search(q, k=10, facet_fields=ff, facet_mincount=1) for q in qs)
        ]

    s0 = RayIndexSearcher(union_ix, num_actors=2)
    try:
        answers(s0)
        dead = _tombstone(union_ix, share=0.2, seed=3)
        s1 = RayIndexSearcher(union_ix, num_actors=2)
        try:
            assert _actor_ids(s1) == _actor_ids(s0)
            got = answers(s1)
        finally:
            s1.shutdown()
    finally:
        s0.shutdown()
    for topk, _, _ in got:
        assert not dead & {d for _, d in topk}
    cold = RayIndexSearcher(union_ix, num_actors=2)
    try:
        assert answers(cold) == got
    finally:
        cold.shutdown()
