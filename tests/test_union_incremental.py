"""Incremental ingest: union of two increment indexes == one big build."""

import os

import pytest

from lucene_solr_ray.fixtures import make_query_set, query_to_ast, write_pages_parquet
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.reader import LocalIndex
from lucene_solr_ray.index.union import union_indexes
from lucene_solr_ray.query.ast import Evaluator, FilterQ, MatchAllQ, TermQ, top_k


@pytest.fixture(scope="module")
def union_setup(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("union"))
    kw = dict(rows_per_partition=64, multi_facet_fields=("links_sim",))
    # increment A: docs 0..319 (partitions 0..4 at rpp=64); increment B:
    # docs 320..499 (partitions 5..7) — doc ranges align to partition bounds
    files_a = write_pages_parquet(os.path.join(root, "pa"), 320, n_files=3)
    # generate 0..499 then take files covering 300..499 by generating the
    # full corpus and slicing file ranges: simpler — separate dir via range
    import numpy as np
    import pyarrow.parquet as pqt
    from lucene_solr_ray.fixtures import make_pages_batch

    os.makedirs(os.path.join(root, "pb"), exist_ok=True)
    fb = os.path.join(root, "pb", "pages-00000.parquet")
    pqt.write_table(make_pages_batch(np.arange(320, 500)), fb)
    files_b = [fb]

    ix_a = os.path.join(root, "ixa")
    ix_b = os.path.join(root, "ixb")
    ix_union = os.path.join(root, "ixu")
    ix_full = os.path.join(root, "ixfull")
    build_index(files_a, ix_a, **kw)
    build_index(files_b, ix_b, **kw)
    union_indexes([ix_a, ix_b], ix_union)
    build_index(files_a + files_b, ix_full, **kw)
    return {"union": ix_union, "full": ix_full}


def test_union_equals_full_build_queries(union_setup):
    lu = LocalIndex(union_setup["union"])
    lf = LocalIndex(union_setup["full"])
    assert lu.stats.max_doc == lf.stats.max_doc
    assert lu.stats.sum_dl == lf.stats.sum_dl
    for q in make_query_set(30):
        ast = query_to_ast(q)
        du, su = Evaluator(lu).scored(ast)
        df_, sf_ = Evaluator(lf).scored(ast)
        assert top_k(du, su, q["k"]) == top_k(df_, sf_, q["k"]), q


def test_union_global_stats_match(union_setup):
    lu = LocalIndex(union_setup["union"])
    lf = LocalIndex(union_setup["full"])
    assert lu.stats.df == lf.stats.df
    assert lu.stats.ttf == lf.stats.ttf
    assert lu.stats.dicts == lf.stats.dicts


def test_union_facets_match_full(ray_session, union_setup):
    from lucene_solr_ray.index.searcher import RayIndexSearcher

    su = RayIndexSearcher(union_setup["union"], num_actors=2)
    sf = RayIndexSearcher(union_setup["full"], num_actors=2)
    try:
        for ast in [MatchAllQ(), TermQ("luko")]:
            ru = su.search(ast, facet_fields=("host", "lang", "links_sim"), facet_limit=25, facet_mincount=1)
            rf = sf.search(ast, facet_fields=("host", "lang", "links_sim"), facet_limit=25, facet_mincount=1)
            assert ru["facets"] == rf["facets"], ast
            assert ru["topk"] == rf["topk"]
    finally:
        su.shutdown()
        sf.shutdown()


def test_union_multivalue_filter(union_setup):
    lu = LocalIndex(union_setup["union"])
    lf = LocalIndex(union_setup["full"])
    # pick a link value that exists
    val = lf.stats.dicts["links_sim"][0]
    q = FilterQ("links_sim", val)
    du, _ = Evaluator(lu).scored(q)
    df_, _ = Evaluator(lf).scored(q)
    assert du.tolist() == df_.tolist()


def test_union_rejects_config_mismatch(ray_session, tmp_path):
    root = str(tmp_path)
    files = write_pages_parquet(os.path.join(root, "p"), 100, n_files=1)
    a, b = os.path.join(root, "a"), os.path.join(root, "b")
    build_index(files, a, rows_per_partition=64)
    build_index(files, b, rows_per_partition=128)
    with pytest.raises(ValueError):
        union_indexes([a, b], os.path.join(root, "u"))


def test_union_terms_global_files_equal_full_build(union_setup):
    """The union sums its members' dictionaries with the build's own
    terms_global writer: shard files (names and bytes) and the shard index
    are identical to the full build's."""
    import glob
    import hashlib

    def tg_files(ix):
        d = os.path.join(ix, "terms_global")
        names = sorted(os.path.basename(f) for f in glob.glob(os.path.join(d, "*.parquet")))
        names.append("_shard_index.json")
        out = {}
        for n in names:
            with open(os.path.join(d, n), "rb") as fh:
                out[n] = hashlib.sha256(fh.read()).hexdigest()
        return out

    assert tg_files(union_setup["union"]) == tg_files(union_setup["full"])
