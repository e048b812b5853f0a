"""Distributed inverted-index build — the main Ray Data pipeline.

Ray-Data-first re-expression of the reference's batch index build
(`solr/contrib/map-reduce/.../MapReduceIndexerTool.java:140-177` five-phase MR
job; `lucene/core/src/java/org/apache/lucene/index/DefaultIndexingChain.java`
per-segment inversion):

1. **dedup** (optional): keep-most-recent row per url —
   ``groupby(url).map_groups`` (`RetainMostRecentUpdateConflictResolver`).
2. **extract + tokenize + norms**: streaming ``map_batches`` (Arrow in/out);
   the tokenized table is written to ``<index>/tokenized/`` partitioned by
   ``partition_id`` — a disk checkpoint that both downstream consumers
   (doc-map and postings) read, so the expensive analysis pass runs ONCE and
   the build is resumable at stage granularity.
3. **facet dictionaries**: global sorted distinct-value tables per facet field
   (the ``OrdinalMap`` analog, `MultiDocValues.java:375-430`).
4. **doc-map**: per-partition columnar doc values (url, dl, norm byte, facet
   ordinals) — the norms/doc-values files of a Lucene segment.
5. **postings**: one task per partition of the checkpoint inverts it in
   one vectorized pass (lexsort by (term, doc) → FOR/VByte encode with
   skip + block-max sidecars); :func:`write_postings_partition` writes it.
   Cells are (term, partition), so the partition size bounds every cell —
   Zipf-head terms cannot straggle (SURVEY.md §4).
6. **global term stats**: :func:`write_terms_global` sums the per-cell
   (df, ttf) partials over the term-sorted partitions — O(vocab) rows out,
   not O(postings).  Expunge and union write their dictionaries and
   partitions through the same two functions.
7. **manifest**: ``manifest.json`` written LAST = the commit point
   (``segments_N`` analog, `SegmentInfos.java`); per-stage markers carry the
   input fingerprint for resume + lineage.

docIDs are content-derived (``doc_id`` column of the input), so artifacts are
deterministic under any batching/parallelism — the two-parallelism-level
equality test relies on this.  ``partition_id = doc_id // rows_per_partition``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..smallfloat import NORM_TABLE
from ..stages.extract import extract_batch
from ..stages.tokenize import tokenize_batch

# Ray Data's path resolution does `from fsspec.implementations.http import
# HTTPFileSystem` on EVERY write and catches only ModuleNotFoundError; with
# aiohttp absent the module import fails and is retried each call, and
# concurrent first-imports from this module's overlap THREADS can surface a
# plain ImportError instead (uncaught -> a build stage dies).  Register a
# sentinel module once so the import is deterministic and cheap; the class
# is never instantiated here (local filesystem only), so the
# isinstance(..., HTTPFileSystem) check it feeds is always False.
try:  # pragma: no cover - depends on optional aiohttp
    from fsspec.implementations.http import HTTPFileSystem as _HTTPFS  # noqa: F401
except ImportError:  # aiohttp missing (this sandbox): install the sentinel
    import sys as _sys
    import types as _types

    _mod = _types.ModuleType("fsspec.implementations.http")

    class _HTTPFileSystemSentinel:
        pass

    _mod.HTTPFileSystem = _HTTPFileSystemSentinel
    _sys.modules.setdefault("fsspec.implementations.http", _mod)
from .postings import encode_cells_columns

DEFAULT_FACET_FIELDS = ("host", "tld", "lang")

# terms_global shard size: bounds what one lazy dictionary load costs a query
# actor (~512k rows * ~30 B ≈ 16 MB decompressed per shard)
TERMS_SHARD_ROWS = 524_288
# postings row-group size: small enough that stage 6's range-merge regime
# prunes reads to its term range (amplification <= 1 + buckets/rgs_per_file)
# and point reads (mlt, searcher pushdown) touch one small group; large
# enough that the binary cell columns still compress in big pages.
POSTINGS_RG_ROWS = 65_536


def _postings_rg_rows(nrows: int) -> int:
    """Row-group size for one partition's postings file, adaptive so the
    file carries >= ~32 row groups (clamped to [1024, POSTINGS_RG_ROWS]).

    A fixed 64k-row group left small-vocab partitions (low
    ``rows_per_partition``: bench uses 2048 -> ~16k vocab cells/partition)
    with ONE row group, so stage 6's range merge had nothing to prune
    against and fell back to the single-task regime (BASELINE.md run T:
    stats 7.8 s serial at 8 CPUs on 9.6M cells).  Depends only on the
    partition's own row count -> byte-identical across parallelism levels."""
    if nrows <= 0:
        return POSTINGS_RG_ROWS
    return int(min(POSTINGS_RG_ROWS, max(1024, -(-nrows // 32))))
# stage-6 regime thresholds: below MERGE_MIN_CELLS one hash-agg task wins
# (fan-out fixed cost exceeds the work); above it the zero-shuffle range
# merge applies whenever the sidecar/stats give >= MERGE_MIN_AVG_RGS row
# groups per file to prune against (module-level so tests can force the
# merge regime on small fixtures)
STATS_MERGE_MIN_CELLS = 2_000_000
STATS_MERGE_MIN_AVG_RGS = 4


def _read_sized(paths, columns=None) -> "rd.Dataset":
    """read_parquet with a block count sized to the cluster, not the file
    count: many small input files are coalesced into ~2 blocks/CPU (capped so
    a block stays under ~256 MiB on disk).  Small-task scheduling overhead
    otherwise dominates wall time at low parallelism and wrecks scaling
    efficiency; at real scale the byte cap keeps blocks bounded.

    Hive columns come only from directories below each input root (the
    :func:`_hive_cols` rule, shared with :func:`_read_fused`).  Ray parses
    hive directories below one ``base_dir`` per read, so each root that has
    any is read with itself as the base, and every other file in one read
    based at their common directory — or one read per directory, when that
    base would parse a column the caller reads (Ray's reader fails on
    ``partitioning=None`` with ``columns``, so there is always a base)."""
    from ray.data.datasource import Partitioning

    pairs = _parquet_files_by_root(paths)
    if not pairs:
        return rd.read_parquet(paths, columns=columns)
    groups: "dict[str, list[str]]" = {}
    plain = []
    for f, root in pairs:
        if _hive_cols(f, root):
            groups.setdefault(root, []).append(f)
        else:
            plain.append(f)
    if plain:
        base = os.path.commonpath([os.path.abspath(os.path.dirname(f)) for f in plain])
        leaked = {k for f in plain for k, _ in _hive_cols(f, base)}
        if columns is not None:
            leaked &= set(columns)
        if not leaked:
            groups[base] = plain
        else:
            for f in plain:
                groups.setdefault(os.path.dirname(f) or ".", []).append(f)
    total = sum(os.path.getsize(f) for f, _ in pairs)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    nb = max(cpus * 2, (total // (256 << 20)) + 1)
    nb = min(nb, max(1, len(pairs) * 4))
    reads = [
        rd.read_parquet(
            files, columns=columns, partitioning=Partitioning("hive", base_dir=base),
            override_num_blocks=max(1, nb * len(files) // len(pairs)),
        )
        for base, files in groups.items()
    ]
    return reads[0].union(*reads[1:]) if len(reads) > 1 else reads[0]


def _read_fused(paths, columns=None, transform=None, target_bytes=None) -> "rd.Dataset":
    """Parquet read INSIDE the map-task chain: ``from_items`` over (file,
    row-group range) chunks, decoded — and, when ``transform`` is given,
    transformed — by ONE ``map_batches(batch_size=1)`` task per chunk.
    ``ReadParquet`` is its own operator, so every input byte otherwise
    crosses the object store between the read tasks and the first map —
    that hop measured ~11% of the tokenized stage at 8 CPUs (BASELINE.md
    run-U A/B: fused 5.57 s vs 6.27 for the same 400k-page pipe).

    ``transform`` must do the WHOLE per-chunk pipeline (including its own
    internal re-batching): appending separate ``map_batches(...,
    batch_size=B)`` calls after this reader de-parallelizes the job —
    operator fusion bundles input blocks until B ROWS of the fused op's
    input are accumulated, and the input rows here are 1-row chunk
    descriptors, so every chunk collapses into one task (measured: the
    whole 1.2M-page tokenized stage in ONE 111 s task).

    Chunks target ~128 MB uncompressed so a task never holds a whole giant
    file; the driver keeps only O(chunks) path/range metadata (~100 MB at
    100 TB — bounded, never row data)."""
    metas = []
    grand_total = 0
    for f, root in _parquet_files_by_root(paths):
        md = pq.ParquetFile(f).metadata
        nrg = md.num_row_groups
        if nrg == 0:
            continue
        total = sum(md.row_group(i).total_byte_size for i in range(nrg))
        metas.append((f, root, nrg, total))
        grand_total += total
    # chunk target: ~128 MB, shrunk so the scan still yields a few tasks
    # per core (hive checkpoints are hundreds of ~1-3 MB files — one task
    # per FILE drowns the scan in dispatch; one task per 128 MB may yield
    # fewer tasks than cores on small corpora)
    if target_bytes is None:
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        target = max(32 << 20, min(128 << 20, grand_total // max(1, cpus * 3)))
    else:
        target = int(target_bytes)
    items = []
    group: "dict[str, list]" = {"paths": [], "roots": [], "los": [], "his": []}
    group_bytes = 0

    def _flush():
        nonlocal group, group_bytes
        if group["paths"]:
            items.append(group)
        group = {"paths": [], "roots": [], "los": [], "his": []}
        group_bytes = 0

    for f, root, nrg, total in metas:
        if total > target:
            # big file: its own range-split items
            _flush()
            per = max(1, int(nrg * target / max(1, total)))
            for lo in range(0, nrg, per):
                items.append(
                    {"paths": [f], "roots": [root], "los": [lo], "his": [min(nrg, lo + per)]}
                )
            continue
        if group_bytes + total > target:
            _flush()
        group["paths"].append(f)
        group["roots"].append(root)
        group["los"].append(0)
        group["his"].append(nrg)
        group_bytes += total
    _flush()
    if not items:
        ds = _read_sized(paths, columns=columns)
        return ds.map_batches(transform, batch_format="pyarrow") if transform else ds
    cols = list(columns) if columns else None

    def read_chunk(b: pa.Table) -> pa.Table:
        parts = []
        for i in range(b.num_rows):
            paths_i = b["paths"][i].as_py()
            roots_i = b["roots"][i].as_py()
            los_i = b["los"][i].as_py()
            his_i = b["his"][i].as_py()
            for path, root, lo, hi in zip(paths_i, roots_i, los_i, his_i):
                hive = _hive_cols(path, root)
                hive_names = {k for k, _ in hive}
                file_cols = (
                    [c for c in cols if c not in hive_names]
                    if cols is not None
                    else None
                )
                pf = pq.ParquetFile(path)
                t = pf.read_row_groups(list(range(lo, hi)), columns=file_cols)
                for k, v in hive:
                    if cols is not None and k not in cols:
                        continue
                    if k in t.column_names:
                        continue
                    val = (
                        pa.scalar(int(v), type=pa.int64())
                        if v.lstrip("-").isdigit()
                        else pa.scalar(v, type=pa.string())
                    )
                    t = t.append_column(k, pa.repeat(val, t.num_rows))
                parts.append(transform(t) if transform else t)
        return pa.concat_tables(parts)

    return rd.from_items(items).map_batches(
        read_chunk, batch_format="pyarrow", batch_size=1
    )


def _parquet_files_by_root(paths) -> "list[tuple[str, str]]":
    """Resolve a path / dir / mixed list into sorted ``(file, root)`` pairs:
    a directory entry is expanded recursively (matching what
    ``rd.read_parquet`` accepts) and is the root of every file under it; a
    file entry's root is its own directory."""
    import glob as _g

    entries = [paths] if isinstance(paths, str) else list(paths)
    pairs: list[tuple[str, str]] = []
    for e in entries:
        if os.path.isdir(e):
            pairs.extend(
                (f, e) for f in _g.glob(os.path.join(e, "**", "*.parquet"), recursive=True)
            )
        else:
            pairs.append((e, os.path.dirname(e) or "."))
    return sorted(pairs)


def _expand_parquet_paths(paths) -> "list[str]":
    """The sorted parquet-file list of a path / dir / mixed list."""
    return [f for f, _ in _parquet_files_by_root(paths)]


def _hive_cols(path: str, root: str) -> "list[tuple[str, str]]":
    """Hive partition columns of ``path`` from the ``key=value`` directory
    names BELOW its input ``root`` (e.g. the tokenized checkpoint's
    ``partition_id=N``), never from the root's ancestors.  The reader turns
    them into columns like ``rd.read_parquet`` does (int64 when integral,
    else string)."""
    rel = os.path.relpath(os.path.dirname(path) or ".", root)
    return [tuple(seg.split("=")) for seg in rel.split(os.sep) if seg.count("=") == 1]


def _input_schema_names(paths) -> "set[str]":
    """Column names of the input, from ONE parquet footer (driver-side) —
    replaces ``ds.schema()`` probes that would execute a fused-read task."""
    for f in _expand_parquet_paths(paths):
        return set(pq.ParquetFile(f).schema_arrow.names)
    return set()


def _stage_done(index_dir: str, stage: str) -> bool:
    return os.path.exists(os.path.join(index_dir, f"_stage_{stage}.json"))


def _mark_stage(index_dir: str, stage: str, **info) -> None:
    with open(os.path.join(index_dir, f"_stage_{stage}.json"), "w") as f:
        json.dump({"stage": stage, "completed_at": time.time(), **info}, f)


def _build_dict_sharded(tokenized_dir: str, dicts_dir: str, field: str, *, multi: bool) -> None:
    """Distributed sorted-dictionary build for high-cardinality fields
    (the 640M-ordinal `links` regime of SOLR-5894): per-block unique ->
    distinct shuffle -> global sort -> shard files whose zero-padded names
    preserve the sort order, so readers reconstruct global ordinals by
    concatenating shards in filename order.  No driver set-union anywhere."""
    from ray.data.aggregate import Count
    from ray.data.datasource.filename_provider import FilenameProvider

    def to_values(t: pa.Table) -> pa.Table:
        col = t[field].combine_chunks()
        if multi:
            col = pc.list_flatten(col)
        u = pc.unique(col.drop_null())
        return pa.table({"value": pc.cast(u, pa.string())})

    class _Ordered(FilenameProvider):
        def get_filename_for_block(self, block, write_uuid, task_index, block_index):
            return f"shard-{task_index:06d}-{block_index:06d}.parquet"

    out_dir = os.path.join(dicts_dir, field)
    (
        _read_sized(tokenized_dir, columns=[field])
        .map_batches(to_values, batch_format="pyarrow")
        .groupby("value")
        .aggregate(Count(alias_name="_c"))
        .select_columns(["value"])
        .sort("value")
        .write_parquet(out_dir, filename_provider=_Ordered(), mode="overwrite")
    )
    # resident shard-index sidecar (first value + row count per shard) so the
    # docmap stage can route values to shards without loading the dictionary
    from .termshards import write_shard_index

    write_shard_index(out_dir, term_col="value")


def read_dict_table(index_dir: str, field: str):
    """Facet dictionary as one Arrow table: single-file (driver-union) or
    sharded (distributed build, shards concatenated in filename order)."""
    import glob as _g

    p = os.path.join(index_dir, "dicts", f"{field}.parquet")
    if os.path.exists(p):
        return pq.read_table(p)
    d = os.path.join(index_dir, "dicts", field)
    files = sorted(_g.glob(os.path.join(d, "*.parquet")))
    if files:
        return pq.read_table(files)
    return None


def _dedup_losers(input_paths, input_columns):
    """Materialized skinny Dataset of doc_ids SUPERSEDED by a newer row for
    the same url (one int64 column ``doc_id``).

    Keep-most-recent-per-url (`RetainMostRecentUpdateConflictResolver`
    analog) without shuffling full rows: only (url, warc_ts, doc_id) go
    through the groupby.  The CALLER picks the filter regime by loser count:
    broadcast ``is_in`` below ``dedup_broadcast_threshold``, partitioned
    anti-join (losers spilled bucket-partitioned, tasks load only touched
    buckets) above it — no driver set either way at the large regime.
    """

    from ..hashing import bucket_strings

    # bucket count bounds per-reduce-group memory at scale; at test scale the
    # cap keeps group count ~ cluster cores so shuffle latency stays flat
    n_buckets = 512
    if ray.is_initialized():
        n_buckets = min(512, max(8, int(ray.cluster_resources().get("CPU", 8)) * 2))

    def add_bucket(t: pa.Table) -> pa.Table:
        h = bucket_strings(t["url"], n_buckets)
        return t.append_column("ub", pa.array(h, type=pa.int64()))

    def losers(group: pa.Table) -> pa.Table:
        # all rows whose url has a newer (warc_ts, doc_id) — vectorized numpy
        import numpy as _np

        from ..hashing import hash_strings_u64

        uh = hash_strings_u64(group["url"].combine_chunks()).astype(np.int64)
        ts = np.asarray(pc.cast(group["warc_ts"], pa.int64()))
        ids = np.asarray(group["doc_id"], dtype=np.int64)
        order = _np.lexsort((ids, ts, uh))
        u_s = uh[order]
        last = _np.ones(len(u_s), dtype=bool)
        last[:-1] = u_s[1:] != u_s[:-1]  # last row of each url run wins
        lose = ids[order][~last]
        # hash collisions between different urls are possible in theory:
        # confirm losers share their url with the run winner via pandas only
        # when a collision is detected in the bucket
        if len(_np.unique(uh)) != pc.count_distinct(group["url"].combine_chunks()).as_py():
            df = group.select(["url", "warc_ts", "doc_id"]).to_pandas()
            df = df.sort_values(["url", "warc_ts", "doc_id"])
            lose = df.loc[df["url"].duplicated(keep="last"), "doc_id"].to_numpy()
        return pa.table({"doc_id": pa.array(np.sort(lose), type=pa.int64())})

    # regime decision from parquet FOOTER row counts (driver-side, no Ray
    # job): a skinny metadata table under ~120 MB runs the single vectorized
    # task; larger corpora run the bucketed exchange
    n_rows = sum(
        pq.ParquetFile(f).metadata.num_rows for f in _expand_parquet_paths(input_paths)
    )
    meta = _read_sized(input_paths, columns=["url", "warc_ts", "doc_id"])
    if n_rows <= 5_000_000:
        # one RAW task over the read's block refs: the old
        # ``repartition(1).map_batches`` shape ran three Ray jobs (count +
        # repartition exchange + map) around ~0.4 s of actual work — over
        # 1 s of orchestration serial on the build's critical path at every
        # parallelism level.  The blocks stay in the object store (zero-copy
        # into the task); only the loser table crosses back.
        @ray.remote
        def _losers_task(*blocks) -> pa.Table:
            return losers(pa.concat_tables(blocks))

        ref = _losers_task.remote(*meta.to_arrow_refs())
        return rd.from_arrow_refs([ref]).materialize()
    out = meta.map_batches(add_bucket, batch_format="pyarrow").groupby("ub").map_groups(
        losers, batch_format="pyarrow"
    )
    return out.select_columns(["doc_id"]).materialize()


class _ShardWriter:
    """Write one terms_global shard per (<= TERMS_SHARD_ROWS) batch of the
    globally-sorted (term, df, ttf) stream.  Shard name = first-term digest —
    unique because shard key ranges are disjoint."""

    def __init__(self, tg_dir: str):
        self.tg_dir = tg_dir

    def __call__(self, t: pa.Table) -> pa.Table:
        import hashlib as _hl

        if t.num_rows == 0:
            return pa.table({"rows": pa.array([], type=pa.int64())})
        h = _hl.md5(t["term"][0].as_py().encode("utf-8")).hexdigest()[:16]
        tmp = os.path.join(self.tg_dir, f".shard-{h}.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(self.tg_dir, f"shard-{h}.parquet"))
        return pa.table({"rows": pa.array([t.num_rows], type=pa.int64())})


def _merge_term_stats(post_files, file_firsts, n_cells, avg_rgs, tg_dir):
    """Stage-6 range-merge regime: global (term, df, ttf) aggregation over
    term-SORTED per-partition postings with ZERO shuffle.

    The driver picks B range-bucket boundaries from the per-row-group first
    terms (stage 5's exact ``_rg_firsts.json`` sidecars; untruncated parquet
    column stats as fallback), then one task per bucket reads ONLY the row
    groups of each partition file that intersect its term range (read
    amplification <= 1 + B/avg_rgs_per_file), slices to the exact range on
    the sorted term column, hash-aggregates in Arrow C++, and writes its
    terms_global shards directly — bucket ranges are disjoint, so the global
    shard set stays range-disjoint and sorted.  Boundaries depend only on
    the (parallelism-independent) postings artifacts, preserving the
    build's byte-identity across CPU counts.

    This is the BlockTree terms-dict merge re-expressed Ray-Data-first: the
    sorted runs already exist on disk, so the wide step is a pruned
    parallel read, not an exchange (cf. the hash-bucket + global-sort
    alternative, which ships every term string through TWO shuffles and
    measures slower at every size — BASELINE.md round-5)."""
    import bisect

    all_firsts = sorted(x for v in file_firsts.values() for x in v)
    # parallelism from data size, capped so amplification (1 + B/avg_rgs)
    # stays ~2x and tiny tails don't spawn empty tasks
    desired = max(8, n_cells // 400_000)
    n_buckets = int(min(desired, avg_rgs, 512))
    bidx = np.linspace(0, len(all_firsts) - 1, n_buckets + 1).astype(np.int64)[1:-1]
    bounds = sorted({all_firsts[i] for i in bidx})
    lows = [None] + list(bounds)
    highs = list(bounds) + [None]
    files = list(post_files)
    firsts_of = dict(file_firsts)

    write_shard = _ShardWriter(tg_dir)

    def do_bucket(batch: pa.Table) -> pa.Table:
        rows_out = []
        for bi in batch["b"].to_pylist():
            lo, hi = lows[bi], highs[bi]
            parts = []
            for fp in files:
                firsts = firsts_of[fp]
                i0 = max(0, bisect.bisect_right(firsts, lo) - 1) if lo is not None else 0
                i1 = bisect.bisect_left(firsts, hi) if hi is not None else len(firsts)
                if i1 <= i0:
                    continue
                t = pq.ParquetFile(fp).read_row_groups(
                    list(range(i0, i1)), columns=["term", "df", "ttf"]
                )
                terms = t["term"].to_numpy(zero_copy_only=False)
                s = np.searchsorted(terms, lo, side="left") if lo is not None else 0
                e = np.searchsorted(terms, hi, side="left") if hi is not None else len(terms)
                if e > s:
                    parts.append(t.slice(s, e - s))
            if not parts:
                rows_out.append(0)
                continue
            out = pa.concat_tables(parts).group_by("term").aggregate(
                [("df", "sum"), ("ttf", "sum")]
            ).rename_columns(["term", "df", "ttf"]).sort_by("term")
            for st in range(0, out.num_rows, TERMS_SHARD_ROWS):
                write_shard(out.slice(st, TERMS_SHARD_ROWS))
            rows_out.append(out.num_rows)
        return pa.table({"rows": pa.array(rows_out, type=pa.int64())})

    rd.from_items([{"b": i} for i in range(len(lows))]).map_batches(
        do_bucket, batch_format="pyarrow", batch_size=1
    ).materialize()


def write_terms_global(files: "list[str]", tg_dir: str) -> None:
    """The one writer of a ``terms_global`` term dictionary (build stage 6,
    expunge, union): sum (df, ttf) per term over ``files`` — parquet files
    of (term, df, ttf, ...) rows, each sorted by term — and write the result
    into ``tg_dir`` (replaced) SORTED and range-sharded: each <=
    TERMS_SHARD_ROWS slice of the sorted stream is one shard file (atomic
    tmp+rename, name = first-term digest — unique because shard key ranges
    are disjoint), and ``_shard_index.json`` records (first term, rows) per
    shard ORDERED BY FIRST TERM.  Readers binary-search the tiny index and
    lazy-load only the shards a query touches — the .tip/.tim split of
    BlockTreeTermsReader (see index/termshards.py).

    Regime decision from parquet FOOTER metadata, read in the calling
    process (no Ray job for the count).  Three regimes:

    - small (<= 2M cells): one Arrow C++ hash-aggregate task — the fixed
      cost of any fan-out exceeds the work;
    - range merge (default above 2M): the files are SORTED by term, so B
      range-bucket tasks each read ONLY the row groups intersecting their
      term range (exact first-term ``_rg_firsts.json`` sidecars from
      :func:`write_postings_partition`, parquet column stats as fallback) —
      ZERO shuffle, and each bucket writes its shards directly (see
      :func:`_merge_term_stats`).  Measured 2.6x the single task at 8 CPUs
      on a 9.6M-cell corpus; the shuffle alternatives (hash bucket + global
      sort) ship the term strings through an exchange and lose to BOTH
      (BASELINE.md round-5);
    - bucketed exchange (fallback): files with too few row groups to prune
      against (pre-sidecar postings, one-group terms_global shards fed by a
      union) would make range tasks re-read whole files."""
    import shutil

    from .termshards import write_shard_index

    n_cells = 0
    file_firsts: "dict[str, list[str]] | None" = {}
    for f in files:
        md = pq.ParquetFile(f).metadata
        n_cells += md.num_rows
        if file_firsts is None:
            continue
        side = os.path.join(os.path.dirname(f), "_rg_firsts.json")
        if os.path.exists(side):
            with open(side) as fh:
                firsts = json.load(fh)
            if len(firsts) == md.num_row_groups:
                file_firsts[f] = firsts
                continue
        # fallback: exact column stats (terms are far below parquet's 4KB
        # statistics cap, so min values are untruncated)
        firsts = []
        for i in range(md.num_row_groups):
            st = md.row_group(i).column(0).statistics
            if st is None or not st.has_min_max:
                firsts = None
                break
            firsts.append(st.min)
        if firsts is None:
            file_firsts = None
        else:
            file_firsts[f] = firsts

    if os.path.exists(tg_dir):
        shutil.rmtree(tg_dir)
    os.makedirs(tg_dir)

    avg_rgs = 0
    if file_firsts and files:
        avg_rgs = sum(len(v) for v in file_firsts.values()) // len(files)
    if (n_cells > STATS_MERGE_MIN_CELLS and file_firsts
            and avg_rgs >= STATS_MERGE_MIN_AVG_RGS):
        _merge_term_stats(files, file_firsts, n_cells, avg_rgs, tg_dir)
    elif files:
        # groupby on a string key is a slow sort exchange; hash the term to
        # an int bucket (cheap int sort) and run Arrow's C++
        # hash-aggregation within each bucket — same result, ~10x faster
        from ..hashing import bucket_strings

        def add_term_bucket(t: pa.Table) -> pa.Table:
            h = bucket_strings(t["term"], 256)
            return t.append_column("tb", pa.array(h, type=pa.int64()))

        def agg_bucket(g: pa.Table) -> pa.Table:
            out = g.group_by("term").aggregate([("df", "sum"), ("ttf", "sum")])
            return out.rename_columns(["term", "df", "ttf"])

        def agg_sorted(g: pa.Table) -> pa.Table:
            return agg_bucket(g).sort_by("term")

        cells = _read_sized(list(files), columns=["term", "df", "ttf"])
        if n_cells <= 10_000_000:
            stats = cells.repartition(1).map_batches(
                agg_sorted, batch_format="pyarrow", batch_size=None
            )
        else:
            stats = (
                cells.map_batches(add_term_bucket, batch_format="pyarrow")
                .groupby("tb")
                .map_groups(agg_bucket, batch_format="pyarrow")
                .sort("term")
            )
        stats.map_batches(
            _ShardWriter(tg_dir), batch_format="pyarrow",
            batch_size=TERMS_SHARD_ROWS,
        ).materialize()
    write_shard_index(tg_dir)


def _write_json_atomic(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def write_postings_partition(part_dir: str, pid: int, cells: pa.Table, docs: pa.Table,
                             extra_text_fields=()) -> dict:
    """The one writer of a postings partition (build stage 5, expunge).

    ``cells`` is the partition's encoded postings, sorted by term;
    ``docs`` its documents (``dl`` and ``dl_<f>`` columns).  Writes the
    per-partition collection stats sidecar ``_part_stats.json`` (rows,
    sum_dl — the doc-count/avgdl inputs of BM25), the exact first term per
    row group ``_rg_firsts.json`` (stage 6's range merge prunes row groups
    with it, independent of parquet statistics truncation), then
    ``postings.parquet`` with adaptive row groups.  Each file lands by
    tmp+rename, postings last, so a partition is "done" (per-partition
    resume) only once postings.parquet exists with both sidecars.  Returns
    the stats row."""
    os.makedirs(part_dir, exist_ok=True)
    stats = {
        "partition_id": pid,
        "rows": docs.num_rows,
        "sum_dl": int(np.asarray(docs["dl"], dtype=np.int64).sum()),
        **{
            f"sum_dl_{f}": int(np.asarray(docs[f"dl_{f}"], dtype=np.int64).sum())
            for f in extra_text_fields
        },
    }
    _write_json_atomic(os.path.join(part_dir, "_part_stats.json"), stats)
    rg_rows = _postings_rg_rows(cells.num_rows)
    firsts = [cells["term"][i].as_py() for i in range(0, cells.num_rows, rg_rows)]
    _write_json_atomic(os.path.join(part_dir, "_rg_firsts.json"), firsts)
    tmp = os.path.join(part_dir, ".postings.parquet.tmp")
    pq.write_table(cells, tmp, row_group_size=rg_rows)
    os.replace(tmp, os.path.join(part_dir, "postings.parquet"))
    return stats


def build_index(
    input_paths,
    index_dir: str,
    *,
    rows_per_partition: int = 65_536,
    extract_html: bool = True,
    dedup_url: bool = True,
    with_positions: bool = True,
    analyzer: str = "standard",
    extra_text_fields: tuple = (),
    facet_fields: tuple = DEFAULT_FACET_FIELDS,
    multi_facet_fields: tuple = (),
    numeric_fields: tuple = (),
    text_field: str = "text",
    resume: bool = True,
    tokenize_batch_size: int = 512,
    input_columns: tuple | None = None,
    dict_shard_threshold: int = 5_000_000,
    dedup_broadcast_threshold: int = 50_000_000,
    stored_fields: tuple = (),
    max_doc_chars: int | None = None,
) -> dict:
    """Build all index artifacts under ``index_dir``; returns the manifest.

    ``stored_fields`` are copied to a lazy doc store (``stored/`` partition
    dir — the `.fdt` stored-fields file of
    `lucene/core/src/java/org/apache/lucene/codecs/compressing/CompressingStoredFieldsWriter.java`):
    never resident in searcher RAM, read per doc-id by STAGE_GET_FIELDS
    (highlighting needs the original text back).
    """
    os.makedirs(index_dir, exist_ok=True)
    fingerprint = {
        "input": sorted(input_paths) if isinstance(input_paths, (list, tuple)) else str(input_paths),
        "rows_per_partition": rows_per_partition,
        "with_positions": with_positions,
        "analyzer": analyzer,
        "extra_text_fields": list(extra_text_fields),
        **({"stored_fields": list(stored_fields)} if stored_fields else {}),
        **({"max_doc_chars": max_doc_chars} if max_doc_chars else {}),
    }

    tokenized_dir = os.path.join(index_dir, "tokenized")
    docmap_dir = os.path.join(index_dir, "docmap")
    postings_dir = os.path.join(index_dir, "postings")
    dicts_dir = os.path.join(index_dir, "dicts")
    keep_fields = [f for f in (*facet_fields, *multi_facet_fields, *numeric_fields)]

    # ---- stage 1+2: dedup -> extract -> tokenize -> checkpoint -------------
    if not (resume and _stage_done(index_dir, "tokenized")):
        t0 = time.time()
        in_names = _input_schema_names(input_paths)
        if input_columns:
            in_names &= set(input_columns)

        # loser regime decision BEFORE the main read (footers + skinny scan)
        loser_ref = None
        anti_join_losers = None
        if dedup_url and "url" in in_names:
            losers_ds = _dedup_losers(input_paths, input_columns)
            n_losers = losers_ds.count()
            if n_losers and n_losers <= dedup_broadcast_threshold:
                # broadcast the loser ids ONCE as an Arrow array; each chunk
                # filters with the vectorized C++ is_in kernel
                arr = pa.concat_tables(ray.get(losers_ds.to_arrow_refs())).column("doc_id")
                loser_ref = ray.put(pc.cast(arr.combine_chunks(), pa.int64()))
            elif n_losers:
                anti_join_losers = losers_ds

        keep = ["doc_id", "partition_id", "dl", "norm", "terms", "tfs"] + keep_fields
        for _f in extra_text_fields:
            keep += [f"dl_{_f}", f"norm_{_f}"]
        if with_positions:
            keep.append("positions")
        if analyzer == "whitespace_payload":
            keep.append("payloads")
        if "url" in in_names:
            keep.append("url")
        keep += [f for f in stored_fields if f not in keep]
        keep = tuple(keep)

        # the WHOLE per-chunk pipeline as one function, re-batching itself at
        # ``tokenize_batch_size`` internally: it runs INSIDE the fused read
        # task (see _read_fused — separate ``map_batches(..., batch_size=B)``
        # calls after the chunk reader would collapse the stage to one task),
        # so input bytes never cross the object store and the task shape is
        # exactly the bare-multiprocessing ceiling worker's.
        _cap_fields = ("text", *extra_text_fields)
        _tok_kwargs = {
            "with_positions": with_positions,
            "analyzer": analyzer,
            "extra_text_fields": extra_text_fields,
        }
        _bs = tokenize_batch_size

        def _transform_slice(s: pa.Table) -> pa.Table:
            if extract_html:
                s = extract_batch(s)
            if max_doc_chars:
                # giant-document guard (SCALE.md "Extract + tokenize"): cap
                # every analyzed field at max_doc_chars code points BEFORE
                # tokenize so one adversarially-huge page cannot blow a
                # task's heap; `truncate_field` is the user-facing analog
                cols = {c: s[c] for c in s.column_names}
                for f in _cap_fields:
                    if f in cols:
                        cols[f] = pc.utf8_slice_codeunits(
                            s[f].combine_chunks(), 0, max_doc_chars
                        )
                s = pa.table(cols)
            s = s.append_column(
                "partition_id",
                pc.cast(
                    pc.floor(
                        pc.divide(pc.cast(s["doc_id"], pa.float64()), rows_per_partition)
                    ),
                    pa.int64(),
                ),
            )
            s = tokenize_batch(s, **_tok_kwargs)
            return s.select([c for c in keep if c in s.column_names])

        def _transform_chunk(t: pa.Table) -> pa.Table:
            if loser_ref is not None:
                vs = ray.get(loser_ref)
                t = t.filter(pc.invert(pc.is_in(t["doc_id"], value_set=vs)))
            if t.num_rows == 0:
                return _transform_slice(t)  # keep the output schema
            return pa.concat_tables(
                _transform_slice(t.slice(off, _bs))
                for off in range(0, t.num_rows, _bs)
            )

        cols_arg = list(input_columns) if input_columns else None
        if anti_join_losers is not None:
            # loser set too large to broadcast: spill it bucket-partitioned
            # and anti-join the raw rows, then transform (blocks here are
            # real row blocks, so a plain map_batches keeps its parallelism)
            from ..stages.joins import partitioned_anti_join

            ds = partitioned_anti_join(
                _read_fused(input_paths, columns=cols_arg),
                anti_join_losers, "doc_id",
                os.path.join(index_dir, "dedup_losers"),
            )
            loser_ref = None  # already filtered
            ds = ds.map_batches(_transform_chunk, batch_format="pyarrow")
        else:
            ds = _read_fused(
                input_paths, columns=cols_arg, transform=_transform_chunk
            )
        # checkpoint codec: the tokenized stream is the build's biggest write
        # and the stage is write-bandwidth-bound (BASELINE.md round-3 stage
        # split) — trading bytes for ALU helps wherever the storage side is
        # the scarce resource (shared bus here; disks/network on a cluster)
        ds.write_parquet(
            tokenized_dir,
            partition_cols=["partition_id"],
            mode="overwrite",
            compression="snappy",
        )
        _mark_stage(index_dir, "tokenized", secs=time.time() - t0, fingerprint=fingerprint)

    # ---- stages 3+4 (dicts -> docmap) and stage 5 (postings) are
    # independent given the tokenized checkpoint: run them on two driver
    # threads so their Ray jobs overlap (fills scheduler gaps; both
    # parallelism levels benefit, which is what the scaling metric sees).
    def _run_dicts_docmap():
        # ---- stage 3: facet dictionaries (OrdinalMap analog) -------------------
        if not (resume and _stage_done(index_dir, "dicts")):
            t0 = time.time()
            os.makedirs(dicts_dir, exist_ok=True)
            # per-block unique (Arrow C++) first; then either a driver-side set
            # union (cardinality-bounded fields) or, above
            # ``dict_shard_threshold`` distinct values, a fully distributed
            # sorted-dictionary build (the SOLR-5894 640M-value `links`
            # regime): distinct via a value shuffle, global sort, sharded
            # write with order-preserving zero-padded filenames.
            all_fields = [*facet_fields, *multi_facet_fields]
            sharded_fields: list = []
            if all_fields:
                # metadata-only regime decision: the first pass ships one INT
                # per (field, block) — never a value — so the driver decides
                # sharded-vs-union without materializing any distinct set
                # (round-2 advice: the old path take_all'd per-block value
                # lists for every field before choosing).
                def block_unique_counts(t: pa.Table) -> pa.Table:
                    cols = {}
                    for f in facet_fields:
                        cols[f] = [len(pc.unique(t[f].combine_chunks().drop_null()))]
                    for f in multi_facet_fields:
                        cols[f] = [
                            len(pc.unique(pc.list_flatten(t[f].combine_chunks()).drop_null()))
                        ]
                    return pa.table(cols)

                counts = _read_fused(
                    tokenized_dir, columns=list(all_fields),
                    transform=block_unique_counts,
                ).take_all()
                # sum of per-block uniques = upper bound on distinct count
                ubs = {f: sum(int(r[f]) for r in counts) for f in all_fields}
                sharded_fields = [f for f in all_fields if ubs[f] > dict_shard_threshold]
                small_fields = [f for f in all_fields if f not in sharded_fields]
                for f in sharded_fields:
                    _build_dict_sharded(
                        tokenized_dir, dicts_dir, f,
                        multi=f in multi_facet_fields,
                    )
                if small_fields:
                    # cardinality-bounded fields: per-block uniques of a
                    # duplicate-heavy field (e.g. a links column) OVERLAP
                    # across blocks, so a straight take_all ships
                    # O(blocks * per-block-distinct) values and the driver
                    # set-union is serial and grows with the block count
                    # (measured: the old path made this stage SLOWER at 32
                    # CPUs than 8).  Instead: skinny (field, value) rows ->
                    # one bucketed shuffle -> per-bucket Arrow distinct ->
                    # the driver receives each value exactly ONCE
                    # (<= dict_shard_threshold per field by the regime
                    # decision above).
                    from ..hashing import hash_strings_u64

                    def block_unique_rows(t: pa.Table) -> pa.Table:
                        fs: list = []
                        vs: list = []
                        for f in small_fields:
                            col = t[f].combine_chunks()
                            if f in multi_facet_fields:
                                col = pc.list_flatten(col)
                            u = pc.unique(col.drop_null())
                            u = pc.cast(u, pa.string())
                            fs.append(pa.array([f] * len(u), type=pa.string()))
                            vs.append(u)
                        return pa.table(
                            {
                                "f": pa.concat_arrays(fs) if fs else pa.array([], type=pa.string()),
                                "v": pa.concat_arrays(vs) if vs else pa.array([], type=pa.string()),
                            }
                        )

                    def add_vbucket(t: pa.Table) -> pa.Table:
                        h = hash_strings_u64(t["v"]) % np.uint64(32)
                        return t.append_column(
                            "__b", pa.array(h.astype(np.int64), type=pa.int64())
                        )

                    def bucket_distinct(t: pa.Table) -> pa.Table:
                        return (
                            t.select(["f", "v"]).group_by(["f", "v"]).aggregate([])
                        )

                    distinct = (
                        _read_fused(
                            tokenized_dir, columns=list(small_fields),
                            # bucket assignment INSIDE the fused transform —
                            # a separate map_batches after the descriptor
                            # source would re-trigger the bundling trap
                            # (_read_fused docstring)
                            transform=lambda t: add_vbucket(block_unique_rows(t)),
                        )
                        .groupby("__b")
                        .map_groups(bucket_distinct, batch_format="pyarrow")
                        .to_pandas()
                    )
                    for f in small_fields:
                        vals = sorted(
                            distinct.loc[distinct["f"] == f, "v"].tolist(),
                            key=lambda s: str(s).encode(),
                        )
                        pq.write_table(
                            pa.table({"value": pa.array(vals, type=pa.string())}),
                            os.path.join(dicts_dir, f"{f}.parquet"),
                        )
            _mark_stage(
                index_dir, "dicts", secs=time.time() - t0,
                sharded_fields=sharded_fields,
                driver_union_fields=[f for f in all_fields if f not in sharded_fields],
                distinct_upper_bounds=ubs if all_fields else {},
            )

        # ---- stage 4: doc-map (norms + doc values) -----------------------------
        if not (resume and _stage_done(index_dir, "docmap")):
            t0 = time.time()
            # two ordinal-mapping regimes: cardinality-bounded dictionaries are
            # broadcast ONCE (ray.put, read zero-copy in every task); sharded
            # dictionaries are NEVER materialized anywhere — each task routes a
            # batch's distinct values to shards via the resident shard index
            # and lazily loads only the touched shards (round-2 advice fix).
            shard_dirs = {
                f: os.path.join(dicts_dir, f)
                for f in (*facet_fields, *multi_facet_fields)
                if os.path.isdir(os.path.join(dicts_dir, f))
            }
            dict_arrays = {
                f: read_dict_table(index_dir, f)["value"].combine_chunks()
                for f in (*facet_fields, *multi_facet_fields)
                if f not in shard_dirs
            }
            dicts_ref = ray.put(dict_arrays)

            def to_ords(batch: pa.Table) -> pa.Table:
                """value -> global ordinal via Arrow's C++ index_in (vectorized)."""
                from .termshards import get_ordinal_mapper

                d = ray.get(dicts_ref)

                def ords_for(f, col):
                    if f in shard_dirs:
                        return get_ordinal_mapper(shard_dirs[f]).map_array(col)
                    idx = pc.index_in(col, value_set=d[f])
                    return pc.fill_null(pc.cast(idx, pa.int32()), -1)

                cols = {c: batch[c] for c in batch.column_names if c not in multi_facet_fields}
                for f in facet_fields:
                    cols[f + "_ord"] = ords_for(f, batch[f].combine_chunks())
                for f in multi_facet_fields:
                    col = batch[f].combine_chunks()
                    flat_idx = ords_for(f, pc.list_flatten(col))
                    if isinstance(flat_idx, pa.ChunkedArray):
                        flat_idx = flat_idx.combine_chunks()
                    cols[f + "_ords"] = pa.ListArray.from_arrays(col.offsets, flat_idx)
                return pa.table(cols)

            cols = ["doc_id", "partition_id", "dl", "norm"] + keep_fields
            for _f in extra_text_fields:
                cols += [f"dl_{_f}", f"norm_{_f}"]
            # url = the stored unique key (STAGE_GET_FIELDS serves it back)
            import glob as _g0

            _sample = _g0.glob(os.path.join(tokenized_dir, "**", "*.parquet"), recursive=True)
            if _sample and "url" in pq.read_schema(_sample[0]).names:
                cols.append("url")
            _read_fused(
                tokenized_dir, columns=[c for c in cols], transform=to_ords
            ).write_parquet(docmap_dir, partition_cols=["partition_id"], mode="overwrite")
            _mark_stage(index_dir, "docmap", secs=time.time() - t0)

    # ---- stage 4b: stored-fields doc store (lazy .fdt analog) ----------
    # Depends only on the tokenized checkpoint (not on dicts/docmap), so it
    # gets its own overlap thread alongside postings and dicts/docmap.
    def _run_stored():
        if stored_fields and not (resume and _stage_done(index_dir, "stored")):
            t0 = time.time()
            _read_fused(
                tokenized_dir,
                columns=["doc_id", "partition_id", *stored_fields],
            ).write_parquet(
                os.path.join(index_dir, "stored"),
                partition_cols=["partition_id"],
                mode="overwrite",
            )
            _mark_stage(index_dir, "stored", secs=time.time() - t0)

    def _run_postings():
        # ---- stage 5: per-partition inversion + encode -------------------------
        # The term exchange ALREADY happened when the tokenized checkpoint was
        # written hive-partitioned by partition_id; inverting a partition needs
        # only that partition's rows, so this stage is embarrassingly parallel:
        # one task per partition dir, no sort/groupby of posting payloads at all
        # (the MR reducer of MapReduceIndexerTool, re-expressed).  Output is
        # written atomically per partition (tmp+rename) -> PER-PARTITION RESUME:
        # on rerun, finished partitions are skipped.
        if not (resume and _stage_done(index_dir, "postings")):
            t0 = time.time()
            cols = ["doc_id", "partition_id", "norm", "terms", "tfs", "dl"]
            for _f in extra_text_fields:
                cols += [f"norm_{_f}", f"dl_{_f}"]
            if with_positions:
                cols.append("positions")
            has_payloads = analyzer == "whitespace_payload"
            if has_payloads:
                cols.append("payloads")

            import glob as _glob

            import pyarrow.compute as pc_

            def invert_encode_partition(tbl: pa.Table) -> pa.Table:
                """Whole-partition inversion + encode in one vectorized pass:
                flatten per-doc term lists -> dictionary-encode -> one lexsort by
                (term, doc) -> encode_cells_columns.  (DefaultIndexingChain's in-RAM
                inversion + Lucene41 flush, fused.)"""
                terms_col = tbl["terms"].combine_chunks()
                flat_terms = terms_col.flatten()
                lens = np.asarray(terms_col.value_lengths(), dtype=np.int64)
                parent = np.repeat(np.arange(tbl.num_rows), lens)
                dict_enc = pc_.dictionary_encode(flat_terms)
                codes = np.asarray(dict_enc.indices, dtype=np.int64)
                doc_ids = np.asarray(tbl["doc_id"], dtype=np.int64)
                tfs_flat = np.asarray(tbl["tfs"].combine_chunks().flatten(), dtype=np.int64)
                # per-field norms: a term key's field decides which norm column
                # feeds its block-max metadata (text unprefixed: field_term_key)
                from ..stages.tokenize import FIELD_SEP

                norm_mat = [np.asarray(tbl["norm"], dtype=np.uint8)]
                field_of_code = np.zeros(len(dict_enc.dictionary), dtype=np.int64)
                if extra_text_fields:
                    dict_vals = dict_enc.dictionary.to_pylist()
                    for fi, _f in enumerate(extra_text_fields, start=1):
                        norm_mat.append(np.asarray(tbl[f"norm_{_f}"], dtype=np.uint8))
                        pref = _f + FIELD_SEP
                        for ci, tv in enumerate(dict_vals):
                            if tv.startswith(pref):
                                field_of_code[ci] = fi
                norm_mat = np.stack(norm_mat)

                order = np.lexsort((doc_ids[parent], codes))
                s_code = codes[order]
                # cell starts = term-code changes (codes >= 0; empty-safe)
                starts = np.flatnonzero(np.diff(s_code, prepend=-1))

                pos_vals = pay_vals = None
                if with_positions:
                    pos_outer = tbl["positions"].combine_chunks().flatten()
                    pos_lens = np.asarray(pos_outer.value_lengths(), dtype=np.int64)
                    pos_all = np.asarray(pos_outer.flatten(), dtype=np.int64)
                    old_starts = np.concatenate(([0], np.cumsum(pos_lens)[:-1]))
                    lens_o = pos_lens[order]
                    new_offsets = np.concatenate(([0], np.cumsum(lens_o)[:-1]))
                    gather = (
                        np.repeat(old_starts[order] - new_offsets, lens_o)
                        + np.arange(int(lens_o.sum()), dtype=np.int64)
                    )
                    pos_vals = pos_all[gather]
                    if has_payloads:
                        # payloads align entry-for-entry with positions, so
                        # the SAME gather re-orders them
                        pay_all = np.asarray(
                            tbl["payloads"].combine_chunks().flatten().flatten(),
                            dtype=np.float32,
                        )
                        pay_vals = pay_all[gather]

                norm_sel = norm_mat[field_of_code[codes[order]], parent[order]]
                out = {
                    "term": dict_enc.dictionary.take(pa.array(s_code[starts])),
                    **encode_cells_columns(
                        starts, doc_ids[parent][order], tfs_flat[order],
                        NORM_TABLE[norm_sel], pos_vals, pay_vals,
                    ),
                }
                # canonical row order -> byte-stable partition files under resume
                return pa.table(out).sort_by("term")

            part_dirs = sorted(_glob.glob(os.path.join(tokenized_dir, "partition_id=*")))
            todo = []
            for d in part_dirs:
                pid = int(d.rsplit("=", 1)[1])
                out_file = os.path.join(postings_dir, f"partition_id={pid}", "postings.parquet")
                if not os.path.exists(out_file):  # per-partition resume
                    todo.append({"pid": pid, "dir": d})

            def encode_partition(batch: pa.Table) -> pa.Table:
                pids_done, n_cells = [], []
                for pid, d in zip(batch["pid"].to_pylist(), batch["dir"].to_pylist()):
                    files = sorted(_glob.glob(os.path.join(d, "*.parquet")))
                    tbl = pq.read_table(files, columns=[c for c in cols if c != "partition_id"])
                    out = invert_encode_partition(tbl)
                    write_postings_partition(
                        os.path.join(postings_dir, f"partition_id={pid}"),
                        pid, out, tbl, extra_text_fields,
                    )
                    pids_done.append(pid)
                    n_cells.append(out.num_rows)
                return pa.table({"pid": pa.array(pids_done, type=pa.int64()),
                                 "n_cells": pa.array(n_cells, type=pa.int64())})

            if todo:
                rd.from_items(todo).map_batches(
                    encode_partition, batch_format="pyarrow", batch_size=1
                ).materialize()
            _mark_stage(index_dir, "postings", secs=time.time() - t0,
                        partitions_encoded=len(todo), partitions_skipped=len(part_dirs) - len(todo))

    # ---- stage 6: global term stats + collection stats ---------------------
    # Depends ONLY on the postings output, so it runs on the main thread
    # WHILE the dicts/docmap thread is still working — one less serial
    # barrier in the 2-6 s fixed-cost tail that drags the full-build
    # scaling ratio (round-4 analysis: dicts/docmap/stats eff 0.4-0.55).
    def _run_stats():
        if resume and _stage_done(index_dir, "stats"):
            return
        t0 = time.time()
        import glob as _g0

        write_terms_global(
            sorted(_g0.glob(os.path.join(postings_dir, "**", "*.parquet"), recursive=True)),
            os.path.join(index_dir, "terms_global"),
        )

        parts = []
        for f in sorted(_g0.glob(os.path.join(postings_dir, "partition_id=*", "_part_stats.json"))):
            with open(f) as fh:
                parts.append(json.load(fh))
        parts.sort(key=lambda p: p["partition_id"])
        coll = {
            "max_doc": sum(p["rows"] for p in parts),
            "sum_dl": sum(p["sum_dl"] for p in parts),
            **{
                f"sum_dl_{_f}": sum(p.get(f"sum_dl_{_f}", 0) for p in parts)
                for _f in extra_text_fields
            },
            "partitions": parts,
        }
        with open(os.path.join(index_dir, "stats.json"), "w") as f:
            json.dump(coll, f)
        _mark_stage(index_dir, "stats", secs=time.time() - t0)

    import threading

    # overlap-thread failures must fail the BUILD, not vanish into the
    # thread (a dead dicts/stored thread would otherwise leave a silently
    # incomplete index that stage markers treat as done on resume)
    _errs: list[BaseException] = []

    def _guard(fn):
        def run():
            try:
                fn()
            except BaseException as e:  # re-raised on the main thread below
                _errs.append(e)

        return run

    _th = threading.Thread(target=_guard(_run_dicts_docmap))
    _th_stored = threading.Thread(target=_guard(_run_stored))
    _th.start()
    _th_stored.start()
    try:
        _run_postings()
        _run_stats()  # needs only postings; overlaps the dicts/docmap tail
    finally:
        # join the overlap threads even when a main-thread stage raises: a
        # caller retrying build_index(resume=True) must not race orphaned
        # threads still writing dicts/docmap/stored into the same index_dir
        _th.join()
        _th_stored.join()
    if _errs:
        raise _errs[0]

    # ---- stage 7: commit manifest ------------------------------------------
    with open(os.path.join(index_dir, "stats.json")) as f:
        coll = json.load(f)
    manifest = {
        "version": 1,
        "fingerprint": fingerprint,
        "rows_per_partition": rows_per_partition,
        "with_positions": with_positions,
        "analyzer": analyzer,
        "facet_fields": list(facet_fields),
        "multi_facet_fields": list(multi_facet_fields),
        "numeric_fields": list(numeric_fields),
        "stored_fields": list(stored_fields),
        "max_doc": coll["max_doc"],
        "sum_dl": coll["sum_dl"],
        "extra_text_fields": list(extra_text_fields),
        **{f"sum_dl_{_f}": coll.get(f"sum_dl_{_f}", 0) for _f in extra_text_fields},
        "partitions": coll["partitions"],
        "lineage": {
            s: json.load(open(os.path.join(index_dir, f"_stage_{s}.json")))
            for s in ("tokenized", "dicts", "docmap", "stored", "postings", "stats")
            if _stage_done(index_dir, s)
        },
    }
    with open(os.path.join(index_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest


def load_manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "manifest.json")) as f:
        return json.load(f)
