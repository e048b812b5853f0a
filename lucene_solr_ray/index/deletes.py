"""Document deletes — the Lucene liveDocs analog.

Re-specification of `lucene/core/src/java/org/apache/lucene/index/
IndexWriter.java` ``deleteDocuments(Term|Query)`` + the per-segment live-docs
bitset (`SegmentReader.java` ``getLiveDocs`` / the ``.liv`` generation files):
an immutable index gains *tombstone generations* — small sorted doc-id
parquet files under ``<index_dir>/livedocs/`` — and readers opened AFTER a
delete mask those docs out of every query path.

Semantics mirrored from the reference:

* **Point-in-time readers**: a ``GlobalStats``/searcher constructed before a
  delete does not see it (Lucene readers see their commit point; reopen to
  observe).
* **Stale statistics**: df / ttf / avgdl / maxdoc still count deleted docs
  until a rebuild ("deletes don't affect stats until merge",
  `BM25Similarity` reads segment stats that include deleted docs).  Scores
  of surviving docs are therefore BIT-IDENTICAL before/after a delete.
* **Expunge = rebuild/union**: the merge-away-deletes path is an index
  rebuild without the tombstoned rows (immutable-build engine); tombstones
  are cheap until then.

Scale: tombstones ship as ONE sorted int64 array per reader process
(8 B/doc); masking is a vectorized ``searchsorted`` membership test per
posting list.  At extreme delete volumes the anti-join regime from the
url-dedup path applies (partition the tombstones by partition_id) — same
trade documented in SCALE.md.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LIVEDOCS_DIR = "livedocs"


def load_deleted(index_dir: str) -> np.ndarray:
    """Union of all tombstone generations -> sorted unique int64 doc ids."""
    files = sorted(glob.glob(os.path.join(index_dir, LIVEDOCS_DIR, "del_*.parquet")))
    if not files:
        return np.empty(0, dtype=np.int64)
    parts = [np.asarray(pq.read_table(f)["doc_id"], dtype=np.int64) for f in files]
    return np.unique(np.concatenate(parts))


def apply_deletes(index_dir: str, doc_ids=None, query=None) -> int:
    """Tombstone docs by id list and/or by query (deleteDocuments(Query)).

    Appends one generation file; returns the number of NEW ids tombstoned.
    Queries are evaluated against the current index (including earlier
    tombstones — already-deleted docs can't match again)."""
    ids = np.asarray(doc_ids if doc_ids is not None else [], dtype=np.int64)
    if query is not None:
        from ..query.ast import Evaluator
        from .reader import LocalIndex

        docs, _ = Evaluator(LocalIndex(index_dir)).scored(query)
        ids = np.concatenate([ids, docs])
    ids = np.unique(ids)
    prior = load_deleted(index_dir)
    if len(prior):
        idx = np.searchsorted(prior, ids)
        hit = (idx < len(prior)) & (prior[np.minimum(idx, len(prior) - 1)] == ids)
        ids = ids[~hit]
    if len(ids) == 0:
        return 0
    d = os.path.join(index_dir, LIVEDOCS_DIR)
    os.makedirs(d, exist_ok=True)
    # claim a generation ATOMICALLY (O_EXCL lock per generation number):
    # two concurrent deleters would otherwise count the same gen and one
    # os.replace would silently overwrite the other's tombstones.  Readers
    # (load_deleted) union arbitrary del_* files, so each writer landing on
    # its own gen needs no reader change; *.lock / *.tmp never match the
    # del_*.parquet glob.
    gen = len(glob.glob(os.path.join(d, "del_*.parquet")))
    while True:
        final = os.path.join(d, f"del_{gen:06d}.parquet")
        lock = final + ".lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            gen += 1
            continue
        os.close(fd)
        if os.path.exists(final):  # fully-written earlier generation
            os.remove(lock)
            gen += 1
            continue
        break
    tmp = final + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64())}), tmp)
    os.replace(tmp, final)
    os.remove(lock)
    return int(len(ids))


def clear_deletes(index_dir: str) -> None:
    for f in glob.glob(os.path.join(index_dir, LIVEDOCS_DIR, "del_*.parquet")):
        os.remove(f)


def mask_deleted(deleted: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Boolean LIVE mask for ``docs`` (sorted or not) vs sorted tombstones."""
    if len(deleted) == 0 or len(docs) == 0:
        return np.ones(len(docs), dtype=bool)
    idx = np.searchsorted(deleted, docs)
    hit = (idx < len(deleted)) & (deleted[np.minimum(idx, len(deleted) - 1)] == docs)
    return ~hit


# ---- expunge (forceMergeDeletes analog) --------------------------------------


def _expunge_partition(index_dir: str, out_dir: str, pid: int, deleted: np.ndarray,
                       extra_text_fields=()) -> dict:
    """Rewrite ONE partition without its tombstoned docs (pure partition-local
    work — the unit the driver fans out as Ray tasks).  Returns the new
    per-partition stats row."""
    from ..smallfloat import NORM_TABLE
    from ..stages.tokenize import FIELD_SEP
    from .build import write_postings_partition
    from .postings import (
        decode_docs_freqs,
        decode_payloads,
        decode_positions,
        encode_cells_columns,
    )

    def part_files(sub: str) -> list[str]:
        return sorted(
            glob.glob(os.path.join(index_dir, sub, f"partition_id={pid}", "*.parquet"))
        )

    def out_sub(sub: str) -> str:
        d = os.path.join(out_dir, sub, f"partition_id={pid}")
        os.makedirs(d, exist_ok=True)
        return d

    def drop_hive(t: pa.Table) -> pa.Table:
        # the hive dir name carries partition_id; a physical copy of the
        # column would conflict with the hive-derived one on re-read
        return t.drop_columns(["partition_id"]) if "partition_id" in t.column_names else t

    # docmap: drop tombstoned rows
    dm = drop_hive(pq.read_table(part_files("docmap")).combine_chunks())
    doc_ids = np.asarray(dm["doc_id"], dtype=np.int64)
    order = np.argsort(doc_ids, kind="stable")
    dm = dm.take(pa.array(order))
    doc_ids = doc_ids[order]
    live = mask_deleted(deleted, doc_ids)
    dm_live = dm.filter(pa.array(live))
    pq.write_table(dm_live, os.path.join(out_sub("docmap"), "docmap.parquet"))

    # per-field norm lookup for block-max metadata on re-encode
    norms_of = {"text": np.asarray(dm["norm"], dtype=np.uint8)}
    for n in dm.column_names:
        if n.startswith("norm_"):
            norms_of[n[len("norm_"):]] = np.asarray(dm[n], dtype=np.uint8)

    # postings: decode -> mask per cell, then re-encode every surviving cell
    # in one batch with the build's encoder (FOR blocks + skip/block-max
    # sidecars rebuilt for the surviving docs); empty cells are dropped
    t = pq.read_table(part_files("postings")).combine_chunks()
    has_pos = "positions" in t.column_names
    has_pay = "payloads" in t.column_names
    terms, docs_l, tfs_l, dls_l, pos_l, pay_l = [], [], [], [], [], []
    for i, (key, df) in enumerate(zip(t["term"].to_pylist(), t["df"].to_pylist())):
        docs, tfs = decode_docs_freqs(t["docs"][i].as_py(), t["freqs"][i].as_py(), df)
        keep = mask_deleted(deleted, docs)
        if not keep.any():
            continue
        kept = np.flatnonzero(keep).tolist()
        if has_pos:
            per_doc = decode_positions(t["positions"][i].as_py(), tfs)
            pos_l += [per_doc[j] for j in kept]
        if has_pay:
            per_doc = decode_payloads(t["payloads"][i].as_py(), tfs)
            pay_l += [per_doc[j] for j in kept]
        docs, tfs = docs[keep], tfs[keep]
        field = key.split(FIELD_SEP, 1)[0] if FIELD_SEP in key else "text"
        nb = norms_of.get(field, norms_of["text"])[np.searchsorted(doc_ids, docs)]
        terms.append(key)
        docs_l.append(docs)
        tfs_l.append(tfs)
        dls_l.append(NORM_TABLE[nb])

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    df_l = np.array([len(d) for d in docs_l], dtype=np.int64)
    cells = {
        "term": pa.array(terms, type=pa.string()),
        **encode_cells_columns(
            np.cumsum(df_l) - df_l, cat(docs_l, np.int64), cat(tfs_l, np.int64),
            cat(dls_l, np.float32), cat(pos_l, np.int64) if has_pos else None,
            cat(pay_l, np.float32) if has_pay else None,
        ),
    }
    stats = write_postings_partition(
        out_sub("postings"), pid, pa.table(cells), dm_live, extra_text_fields
    )

    # stored fields + tokenized checkpoint (term-vectors source): filter rows
    for sub in ("stored", "tokenized"):
        files = part_files(sub)
        if not files:
            continue
        st = drop_hive(pq.read_table(files).combine_chunks())
        lm = mask_deleted(deleted, np.asarray(st["doc_id"], dtype=np.int64))
        pq.write_table(st.filter(pa.array(lm)), os.path.join(out_sub(sub), f"{sub}.parquet"))

    return stats


def expunge_deletes(index_dir: str, out_dir: str) -> dict:
    """forceMergeDeletes / expungeDeletes analog
    (`lucene/core/src/java/org/apache/lucene/index/IndexWriter.java`
    ``forceMergeDeletes``): rewrite the index WITHOUT its tombstoned docs.

    After expunge the global statistics (df/ttf/maxdoc/avgdl) reflect only
    surviving docs — scores equal a fresh build over the filtered input
    (doc ids are preserved, so the equality is bit-exact and tested).

    Ray shape: one task per partition (partition-local decode -> mask ->
    re-encode, embarrassingly parallel like the build's encode stage); the
    partitions and terms_global are written by the build's own writers
    (``write_postings_partition``, ``write_terms_global``), so an expunged
    index has a fresh build's layout and schema.  Facet dictionaries are
    copied verbatim (values that only occurred in deleted docs remain with
    zero counts — the reference keeps dictionary terms until a full merge
    rewrites them)."""
    import shutil

    import ray

    from .build import load_manifest, write_terms_global

    man = load_manifest(index_dir)
    if man.get("members"):
        raise ValueError("expunge of union indexes: expunge each member, then re-union")
    deleted = load_deleted(index_dir)
    os.makedirs(out_dir, exist_ok=True)

    pids = [p["partition_id"] for p in man["partitions"]]
    fn = ray.remote(_expunge_partition)
    dref = ray.put(deleted)
    stats = ray.get(
        [
            fn.remote(index_dir, out_dir, pid, dref, man.get("extra_text_fields", ()))
            for pid in pids
        ]
    )
    stats.sort(key=lambda p: p["partition_id"])

    # facet dictionaries + union ordmaps copied verbatim
    for sub in ("dicts", "ordmaps"):
        src = os.path.join(index_dir, sub)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(out_dir, sub), dirs_exist_ok=True)

    write_terms_global(
        sorted(glob.glob(os.path.join(out_dir, "postings", "partition_id=*", "postings.parquet"))),
        os.path.join(out_dir, "terms_global"),
    )

    new_man = dict(man)
    new_man["max_doc"] = sum(p["rows"] for p in stats)
    new_man["sum_dl"] = sum(p["sum_dl"] for p in stats)
    for _f in man.get("extra_text_fields", ()):
        new_man[f"sum_dl_{_f}"] = sum(p.get(f"sum_dl_{_f}", 0) for p in stats)
    new_man["partitions"] = stats
    new_man["expunged_from"] = index_dir
    new_man.pop("lineage", None)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(new_man, f, indent=1)
    return new_man
