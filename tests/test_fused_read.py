"""The fused parquet read (`build._read_fused`) and its invariants.

Three contracts protect the round-5 scaling result (BASELINE.md runs V/W):

1. Correctness: fused read == ReadParquet on the same files (rows, values,
   column pruning), with and without a transform.
2. Parallelism canary: one output block per chunk descriptor.  The trap
   this guards (documented in the `_read_fused` docstring): appending
   ``map_batches(..., batch_size=B)`` after the 1-row-descriptor source
   makes operator fusion bundle ALL descriptors into one task — the block
   count collapses to ~1 and the stage de-parallelizes (measured: the
   whole 1.2M-page tokenized stage as ONE 111 s task).
3. Path handling: str dir / file list / mixed list with directories all
   resolve to the same file set.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fused_read"))
    files = []
    n = 0
    for fi in range(6):
        rows = 200 + fi * 40
        t = pa.table(
            {
                "doc_id": pa.array(range(n, n + rows), type=pa.int64()),
                "text": pa.array([f"doc {i} words here" for i in range(n, n + rows)]),
                "lang": pa.array(["en", "de"][fi % 2] for _ in range(rows)),
            }
        )
        p = os.path.join(d, f"part-{fi:03d}.parquet")
        # several row groups per file so chunking has boundaries to use
        pq.write_table(t, p, row_group_size=64)
        files.append(p)
        n += rows
    return {"dir": d, "files": files, "n": n}


def test_fused_equals_read_parquet(corpus):
    import ray.data as rd

    from lucene_solr_ray.index.build import _read_fused

    got = _read_fused(corpus["files"]).materialize().to_arrow_refs()
    import ray

    got_t = pa.concat_tables(ray.get(got)).sort_by("doc_id")
    ref_t = (
        rd.read_parquet(corpus["files"]).materialize().take_all()
    )
    assert got_t.num_rows == corpus["n"] == len(ref_t)
    assert got_t["doc_id"].to_pylist() == sorted(r["doc_id"] for r in ref_t)


def test_fused_column_pruning_and_transform(corpus):
    import ray

    from lucene_solr_ray.index.build import _read_fused

    def tr(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.append_column("dl2", pc.multiply(t["doc_id"], 2))

    ds = _read_fused(corpus["files"], columns=["doc_id"], transform=tr)
    t = pa.concat_tables(ray.get(ds.materialize().to_arrow_refs())).sort_by("doc_id")
    assert t.column_names == ["doc_id", "dl2"]
    ids = t["doc_id"].to_pylist()
    assert t["dl2"].to_pylist() == [i * 2 for i in ids]


def test_one_block_per_chunk_parallelism_canary(corpus):
    """Block count == descriptor count: if fusion ever bundles descriptors
    (the batch_size trap), blocks collapse to ~1 and this fails."""
    from lucene_solr_ray.index.build import _read_fused

    # target_bytes=1 forces the big-file path: one descriptor per ROW GROUP
    expected = sum(
        pq.ParquetFile(f).metadata.num_row_groups for f in corpus["files"]
    )
    mat = _read_fused(corpus["files"], target_bytes=1).materialize()
    assert mat.num_blocks() == expected
    # default adaptive target packs the tiny files into FEW descriptors
    # (small-file coalescing — one task per file drowned the dict scans)
    mat2 = _read_fused(corpus["files"]).materialize()
    assert mat2.num_blocks() < len(corpus["files"])


def test_expand_paths_variants(corpus):
    from lucene_solr_ray.index.build import _expand_parquet_paths

    by_dir = _expand_parquet_paths(corpus["dir"])
    by_list = _expand_parquet_paths(corpus["files"])
    mixed = _expand_parquet_paths([corpus["dir"]])
    assert by_dir == by_list == mixed == sorted(corpus["files"])


def test_postings_rg_rows_bands():
    from lucene_solr_ray.index.build import POSTINGS_RG_ROWS, _postings_rg_rows

    assert _postings_rg_rows(0) == POSTINGS_RG_ROWS
    assert _postings_rg_rows(500) == 1024          # clamp floor
    assert _postings_rg_rows(16_384) == 1024       # 16 groups of 1024
    assert _postings_rg_rows(160_000) == 5000      # ~32 groups
    assert _postings_rg_rows(10_000_000) == POSTINGS_RG_ROWS  # clamp ceiling
    # >= ~16 groups whenever the file is big enough to matter
    for n in (16_384, 160_000, 1_000_000, 50_000_000):
        assert n // _postings_rg_rows(n) >= 15


def _index_digest(index_dir):
    """Digest of an index's content: Ray's per-write file names, the stage
    markers' timings and the manifest's input paths and lineage left out."""
    import hashlib
    import json

    entries = []
    for d, _, fs in os.walk(index_dir):
        for f in fs:
            if f.startswith("_stage_"):
                continue
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                blob = fh.read()
            if f == "manifest.json":
                m = json.loads(blob)
                m.pop("lineage"), m.pop("fingerprint")
                blob = json.dumps(m, sort_keys=True).encode()
            name = "*.parquet" if f.endswith(".parquet") and "_" in f else f
            entries.append(f"{os.path.relpath(d, index_dir)}/{name}:{hashlib.sha256(blob).hexdigest()}")
    return sorted(entries)


def test_hive_columns_only_below_the_input_root(ray_session, tmp_path):
    """An ancestor directory named like a hive partition (``run=3``) grows
    no column in either reader, while ``key=value`` directories below a
    directory input still do; both readers agree, and the index built
    there equals the same corpus built elsewhere."""
    import ray

    from lucene_solr_ray.fixtures import write_pages_parquet
    from lucene_solr_ray.index.build import _read_fused, _read_sized, build_index

    def rows(ds):
        t = pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))
        return sorted(t.column_names), sorted(map(str, t.to_pylist()))

    base = tmp_path / "run=3" / "corpus"
    base.mkdir(parents=True)
    files = []
    for fi in range(2):
        t = pa.table({"doc_id": pa.array(range(fi * 50, fi * 50 + 50), type=pa.int64())})
        files.append(str(base / f"part-{fi}.parquet"))
        pq.write_table(t, files[-1])
    for src in (files, str(base), [str(base)], files[0]):
        fused, sized = rows(_read_fused(src)), rows(_read_sized(src))
        assert fused[0] == ["doc_id"], src
        assert fused == sized, src

    ck = tmp_path / "run=3" / "ck"
    (ck / "partition_id=7").mkdir(parents=True)
    pq.write_table(pa.table({"doc_id": pa.array([1, 2], type=pa.int64())}),
                   str(ck / "partition_id=7" / "x.parquet"))
    fused = pa.concat_tables(ray.get(_read_fused(str(ck)).materialize().to_arrow_refs()))
    sized = _read_sized(str(ck)).take_all()
    assert sorted(fused.column_names) == sorted(sized[0]) == ["doc_id", "partition_id"]
    assert {str(v) for v in fused["partition_id"].to_pylist()} == {
        str(r["partition_id"]) for r in sized
    } == {"7"}

    digests = []
    for where in ("run=3", "plain"):
        pages = write_pages_parquet(str(tmp_path / where / "pages"), 120, n_files=2)
        ix = str(tmp_path / where / "ix")
        build_index(pages, ix, rows_per_partition=64)
        digests.append(_index_digest(ix))
    assert digests[0] == digests[1]
