"""Index union = incremental ingest commit.

The reference's incremental story is segment-based: new data becomes new
immutable segments, a new ``segments_N`` manifest unions them, and a reopened
reader builds a global ``OrdinalMap`` over the per-segment value dictionaries
(`lucene/core/src/java/org/apache/lucene/index/SegmentInfos.java`;
`MultiDocValues.java:375-430`).  Here the analog is: build each increment as
its own index (its partitions are immutable), then :func:`union_indexes`
writes a UNION manifest that references the member artifacts in place:

* no postings/docmap rewrite — members are linked, not copied;
* global facet dictionaries = sorted union of member dictionaries, with a
  per-member ``old_ord -> global_ord`` remap table (the OrdinalMap);
  remaps are strictly increasing, so member-local ordinals are recovered by
  binary search (RankBitSet-free simplification);
* global term stats = member ``terms_global`` shards summed by the build's
  dictionary writer (``write_terms_global``);
* members must share build config (analyzer, rows_per_partition, positions,
  fields) and have disjoint partition_id ranges — guaranteed when input
  doc_id ranges are disjoint, since partition ids are content-derived.

Readers (`GlobalStats` / `IndexPartition`) understand union manifests
transparently; queries over the union are identical to a from-scratch build
over the concatenated input (differential test).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .build import load_manifest, write_terms_global


def union_indexes(member_dirs: list[str], out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    members = [os.path.abspath(d) for d in member_dirs]
    manifests = [load_manifest(d) for d in members]

    m0 = manifests[0]
    for m in manifests[1:]:
        for key in ("with_positions", "analyzer", "facet_fields", "multi_facet_fields", "numeric_fields", "rows_per_partition", "extra_text_fields", "stored_fields"):
            if m.get(key) != m0.get(key):
                raise ValueError(f"member config mismatch on {key}")
    all_pids = [p["partition_id"] for m in manifests for p in m["partitions"]]
    if len(set(all_pids)) != len(all_pids):
        raise ValueError("members have overlapping partition_id ranges")

    # ---- global dictionaries + per-member OrdinalMaps ----------------------
    dicts_dir = os.path.join(out_dir, "dicts")
    remaps_dir = os.path.join(out_dir, "ordmaps")
    os.makedirs(dicts_dir, exist_ok=True)
    os.makedirs(remaps_dir, exist_ok=True)
    fields = [*m0["facet_fields"], *m0["multi_facet_fields"]]
    from .build import read_dict_table

    for f in fields:
        member_vals = []
        for d in members:
            t = read_dict_table(d, f)
            member_vals.append(t["value"].to_pylist() if t is not None else [])
        global_vals = sorted(set().union(*member_vals), key=lambda s: s.encode())
        pq.write_table(
            pa.table({"value": pa.array(global_vals, type=pa.string())}),
            os.path.join(dicts_dir, f"{f}.parquet"),
        )
        pos = {v: i for i, v in enumerate(global_vals)}
        for mi, vals in enumerate(member_vals):
            remap = np.array([pos[v] for v in vals], dtype=np.int64)
            pq.write_table(
                pa.table({"global_ord": pa.array(remap, type=pa.int64())}),
                os.path.join(remaps_dir, f"m{mi}_{f}.parquet"),
            )

    # ---- global term stats: the members' term-sorted shards, summed by the
    # build's own dictionary writer ------------------------------------------
    write_terms_global(
        [
            f
            for d in members
            for f in sorted(glob.glob(os.path.join(d, "terms_global", "*.parquet")))
        ],
        os.path.join(out_dir, "terms_global"),
    )

    # ---- inherited tombstones ----------------------------------------------
    # Members' live-docs generations carry over into the union commit (the
    # segments_N + .liv analog: a commit point references each segment's
    # current deletes generation).  Doc ids are content-derived and member
    # ranges are disjoint, so a single merged generation file under the
    # union's own livedocs/ is exact.  Deletes applied to a MEMBER after
    # this commit are NOT visible through the union — reopen semantics are
    # per commit point, matching deletes.py's point-in-time contract.
    from .deletes import load_deleted

    inherited = [load_deleted(d) for d in members]
    inherited = [a for a in inherited if len(a)]
    if inherited:
        from .deletes import apply_deletes

        apply_deletes(out_dir, doc_ids=np.unique(np.concatenate(inherited)))

    # ---- union manifest (commit point) -------------------------------------
    partitions = []
    for mi, m in enumerate(manifests):
        for p in m["partitions"]:
            partitions.append({**p, "member": mi})
    partitions.sort(key=lambda p: p["partition_id"])
    manifest = {
        "version": 1,
        "union": True,
        "members": members,
        "rows_per_partition": m0["rows_per_partition"],
        "with_positions": m0["with_positions"],
        "analyzer": m0["analyzer"],
        "facet_fields": m0["facet_fields"],
        "multi_facet_fields": m0["multi_facet_fields"],
        "numeric_fields": m0["numeric_fields"],
        "extra_text_fields": m0.get("extra_text_fields", []),
        "stored_fields": m0.get("stored_fields", []),
        "max_doc": sum(m["max_doc"] for m in manifests),
        "sum_dl": sum(m["sum_dl"] for m in manifests),
        **{
            f"sum_dl_{f}": sum(m.get(f"sum_dl_{f}", 0) for m in manifests)
            for f in m0.get("extra_text_fields", [])
        },
        "partitions": partitions,
        "lineage": {"members": [m.get("lineage", {}) for m in manifests]},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
