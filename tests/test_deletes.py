"""liveDocs / deleteDocuments semantics (`IndexWriter.deleteDocuments`,
`SegmentReader.getLiveDocs`): tombstoned docs vanish from every query path,
surviving docs keep BIT-IDENTICAL scores (stats stay stale until rebuild —
the reference's deletes-don't-affect-stats-until-merge behavior), and
readers are point-in-time (reopen to observe)."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"

pytestmark = pytest.mark.skipif(
    not os.path.exists(os.path.join(SF, "documents.parquet")),
    reason="testdata not present",
)


@pytest.fixture(scope="module")
def deleted_index(ray_session, tmp_path_factory):
    """A fresh index copy with docs {3,7,11,...} (doc_id%4==3) tombstoned."""
    from lucene_solr_ray.index.deletes import apply_deletes
    from lucene_solr_ray.pipelines.fulltext import documents_index

    base = documents_index(SF)
    ix = str(tmp_path_factory.mktemp("delix") / "ix")
    shutil.copytree(base, ix)
    import pyarrow.parquet as pqf

    ids = pqf.read_table(os.path.join(SF, "documents.parquet"), columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    deleted = ids[ids % 4 == 3]
    n = apply_deletes(ix, doc_ids=deleted)
    assert n == len(deleted)
    return base, ix, set(int(i) for i in deleted)


def _scored(index_dir, query):
    from lucene_solr_ray.index.reader import LocalIndex
    from lucene_solr_ray.query.ast import Evaluator

    return Evaluator(LocalIndex(index_dir)).scored(query)


def test_hit_sets_mask_deleted_and_scores_are_stale_stats_identical(deleted_index):
    from lucene_solr_ray.query.ast import BoolQ, MatchAllQ, MultiTermQ, PhraseQ, TermQ

    base, ix, dead = deleted_index
    for q in (
        TermQ("join"),
        BoolQ(must=(TermQ("join"), TermQ("vector"))),
        BoolQ(should=(TermQ("window"), TermQ("stream"))),
        PhraseQ(("join", "hash")),
        MultiTermQ("prefix", "s"),
        MatchAllQ(),
    ):
        d0, s0 = _scored(base, q)
        d1, s1 = _scored(ix, q)
        live = np.array([int(d) not in dead for d in d0])
        assert d1.tolist() == d0[live].tolist(), q
        # scores bit-identical for survivors (stale global stats)
        assert s1.tolist() == s0[live].tolist(), q


def test_deletes_apply_to_facets_and_searcher_path(deleted_index):
    from lucene_solr_ray.index.searcher import RayIndexSearcher
    from lucene_solr_ray.query.ast import TermQ

    base, ix, dead = deleted_index
    s0 = RayIndexSearcher(base, num_actors=2)
    s1 = RayIndexSearcher(ix, num_actors=2)
    try:
        r0 = s0.search(TermQ("join"), k=50, facet_fields=("lang",), facet_mincount=1)
        r1 = s1.search(TermQ("join"), k=50, facet_fields=("lang",), facet_mincount=1)
        live_top = [(sc, d) for sc, d in r0["topk"] if d not in dead][:50]
        m = min(len(r1["topk"]), len(live_top))
        assert m > 0 and r1["topk"][:m] == live_top[:m]
        assert r1["total_hits"] <= r0["total_hits"]
        assert sum(c for _, c in r1["facets"]["lang"]) == r1["total_hits"]
    finally:
        s0.shutdown()
        s1.shutdown()


def test_delete_by_query_and_rtg_miss(deleted_index, tmp_path):
    from lucene_solr_ray.index.deletes import apply_deletes, load_deleted
    from lucene_solr_ray.index.reader import GlobalStats, IndexPartition
    from lucene_solr_ray.query.ast import TermQ

    base, _ix, _dead = deleted_index
    ix2 = str(tmp_path / "ix2")
    shutil.copytree(base, ix2)
    d0, _ = _scored(ix2, TermQ("merge"))
    n = apply_deletes(ix2, query=TermQ("merge"))
    assert n == len(d0)
    d1, _ = _scored(ix2, TermQ("merge"))
    assert len(d1) == 0
    # idempotent: re-deleting matches nothing new
    assert apply_deletes(ix2, query=TermQ("merge")) == 0
    # RealTimeGet-style stored fetch misses tombstoned ids
    stats = GlobalStats(ix2)
    part = IndexPartition(ix2, stats.manifest["partitions"][0]["partition_id"], stats)
    if len(d0) and stats.stored_fields:
        victim = int(d0[0])
        if part.doc_ids[0] <= victim <= part.doc_ids[-1]:
            got = part.fetch_stored(list(stats.stored_fields), [victim])
            assert victim not in got


def test_point_in_time_readers(deleted_index):
    """A reader opened BEFORE a delete keeps serving it (reopen observes)."""
    from lucene_solr_ray.index.deletes import apply_deletes, clear_deletes
    from lucene_solr_ray.index.reader import LocalIndex
    from lucene_solr_ray.query.ast import Evaluator, TermQ

    base, ix, _dead = deleted_index
    old_reader = Evaluator(LocalIndex(ix))
    before = len(old_reader.scored(TermQ("join"))[0])
    extra_victims = old_reader.scored(TermQ("join"))[0][:3]
    apply_deletes(ix, doc_ids=extra_victims)
    try:
        assert len(old_reader.scored(TermQ("join"))[0]) == before  # stale view
        fresh = Evaluator(LocalIndex(ix))
        assert len(fresh.scored(TermQ("join"))[0]) == before - 3
    finally:
        # leave the module-scoped fixture index as the other tests expect:
        # drop ONLY the extra generation added here
        import glob

        gens = sorted(glob.glob(os.path.join(ix, "livedocs", "del_*.parquet")))
        os.remove(gens[-1])
        assert len(Evaluator(LocalIndex(ix)).scored(TermQ("join"))[0]) == before
        del clear_deletes  # imported for symmetry; not used


@pytest.fixture(scope="module")
def expunged_and_fresh(ray_session, tmp_path_factory):
    """(expunged index, fresh build over the same input minus the deleted
    rows) with doc_id % 5 == 2 deleted."""
    import pyarrow as pa
    import pyarrow.parquet as pqf

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import apply_deletes, expunge_deletes
    from lucene_solr_ray.pipelines.fulltext import documents_index

    tmp_path = tmp_path_factory.mktemp("expunge")
    base = documents_index(SF)
    ix = str(tmp_path / "ix")
    shutil.copytree(base, ix)
    tbl = pqf.read_table(os.path.join(SF, "documents.parquet"))
    ids = tbl["doc_id"].to_numpy()
    dead = ids[ids % 5 == 2]
    apply_deletes(ix, doc_ids=dead)

    out = str(tmp_path / "expunged")
    man = expunge_deletes(ix, out)
    assert man["max_doc"] == len(ids) - len(dead)

    filt = str(tmp_path / "filtered.parquet")
    pqf.write_table(tbl.filter(pa.array([int(i) % 5 != 2 for i in ids])), filt)
    fresh = str(tmp_path / "fresh")
    build_index(
        [filt], fresh, rows_per_partition=128, extract_html=False,
        dedup_url=False, analyzer="simple", facet_fields=("lang", "source"),
        numeric_fields=("n_chars",),
    )
    return out, fresh


def test_expunge_equals_fresh_build_over_filtered_input(expunged_and_fresh):
    """expungeDeletes == a fresh build over the filtered table: doc ids are
    content-derived, so hit sets AND float32 scores must be bit-identical,
    and the recomputed global stats must match."""
    from lucene_solr_ray.index.reader import GlobalStats, LocalIndex
    from lucene_solr_ray.query.ast import (
        BoolQ,
        Evaluator,
        MatchAllQ,
        PhraseQ,
        TermQ,
    )

    out, fresh = expunged_and_fresh
    ev_x = Evaluator(LocalIndex(out))
    ev_f = Evaluator(LocalIndex(fresh))
    for q in (
        TermQ("join"),
        BoolQ(must=(TermQ("join"), TermQ("vector"))),
        PhraseQ(("join", "hash")),
        MatchAllQ(),
    ):
        dx, sx = ev_x.scored(q)
        df_, sf_ = ev_f.scored(q)
        assert dx.tolist() == df_.tolist(), q
        assert sx.tolist() == sf_.tolist(), q  # bit-exact f32 (fresh stats)

    gx, gf = GlobalStats(out), GlobalStats(fresh)
    assert gx.max_doc == gf.max_doc and gx.sum_dl == gf.sum_dl
    for t in ("join", "hash", "window", "the"):
        assert gx.df.get(t, 0) == gf.df.get(t, 0), t
        assert gx.ttf.get(t, 0) == gf.ttf.get(t, 0), t


def test_expunged_artifacts_equal_fresh_build(expunged_and_fresh):
    """Expunge writes through the build's own writers, so its postings
    partitions (the same schema: column order, float32 block-max lengths)
    with their sidecars, and its terms_global, are byte-identical to a
    fresh build over the surviving rows."""
    import glob
    import hashlib

    import pyarrow.parquet as pqf

    out, fresh = expunged_and_fresh

    def files(ix):
        # (not the per-node mmap sidecars queries leave in terms_global/)
        pats = ("postings/partition_id=*/*", "terms_global/*.parquet",
                "terms_global/_shard_index.json")
        return sorted(
            os.path.relpath(f, ix) for p in pats for f in glob.glob(os.path.join(ix, p))
        )

    def digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert files(out) == files(fresh)
    want = pqf.read_schema(glob.glob(os.path.join(fresh, "postings", "*", "postings.parquet"))[0])
    for f in files(out):
        if f.endswith("postings.parquet"):
            assert pqf.read_schema(os.path.join(out, f)) == want, f
        assert digest(os.path.join(out, f)) == digest(os.path.join(fresh, f)), f
