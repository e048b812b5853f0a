"""Index artifact readers: partition-scoped TermSource implementations.

A loaded :class:`IndexPartition` is the analog of a Lucene ``SegmentReader``
(`lucene/core/src/java/org/apache/lucene/index/SegmentReader.java`): term
dict + postings + norms + doc-values for one partition, resident in RAM for
the lifetime of a query actor.  :class:`LocalIndex` merges all partitions in
one process (the single-node "control" of the differential tests,
``BaseDistributedSearchTestCase`` pattern).

Scale design (round 2): ALL dictionaries are sorted Arrow arrays with binary
search (:mod:`.termdict`) — no Python dict/list materialization at load:

* ``terms_global`` stays one sorted Arrow table; df/ttf lookups are
  O(log vocab) byte-wise binary search (BlockTreeTermsReader shape);
* per-partition posting cells are resolved lazily by binary search on the
  sorted ``term`` column (+ small LRU, the TermStates-cache analog) instead
  of a dict of every cell's decoded Python objects;
* facet value dictionaries are SortedStrings; ``ord_of`` is binary search;
* multi-valued facet ordinal columns are pre-flattened to (flat_ords,
  row_of) numpy pairs so membership filters and facet counting are
  vectorized, never per-row Python.
"""

from __future__ import annotations

import copy
import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..query.ast import FilterQ, RangeQ, TermSource
from ..stages.tokenize import field_term_key
from .postings import decode_docs_freqs, decode_payloads, decode_positions
from .termdict import SortedKeyMap, SortedStrings


def _partition_files(root: str, pid: int) -> list[str]:
    return sorted(glob.glob(os.path.join(root, f"partition_id={pid}", "*.parquet")))


def _is_sorted_strings(col) -> bool:
    if len(col) < 2:
        return True
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return bool(pc.all(pc.less_equal(arr.slice(0, len(arr) - 1), arr.slice(1))).as_py())


class GlobalStats:
    """Index-wide statistics shared by every scope (loaded once per process)."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "manifest.json")) as f:
            self.manifest = json.load(f)
        self.max_doc = self.manifest["max_doc"]
        self.sum_dl = self.manifest["sum_dl"]
        self.extra_text_fields = tuple(self.manifest.get("extra_text_fields", ()))
        self.stored_fields = tuple(self.manifest.get("stored_fields", ()))
        self.sum_dl_field = {
            f: self.manifest.get(f"sum_dl_{f}", 0) for f in self.extra_text_fields
        }
        tg_dir = os.path.join(index_dir, "terms_global")
        from .termshards import (
            SHARD_INDEX,
            ShardedKeyMap,
            ShardedStringsView,
            ShardedTermTable,
        )

        if os.path.exists(os.path.join(tg_dir, SHARD_INDEX)):
            # range-sharded sorted dictionary: only the tiny shard index is
            # resident; shards lazy-load into an LRU on first touch — actor
            # RAM is O(touched shards), not O(vocab)
            self._tt = ShardedTermTable(tg_dir)
            self.terms = ShardedStringsView(self._tt)
            self.df = ShardedKeyMap(self._tt, "df")
            self.ttf = ShardedKeyMap(self._tt, "ttf")
        else:  # legacy single-table layout (pre-shard indexes)
            self._tt = None
            t = pq.read_table(tg_dir)
            if not _is_sorted_strings(t["term"]):
                t = t.sort_by("term")
            t = t.combine_chunks()
            self.terms = SortedStrings(t["term"])
            self._df = np.asarray(t["df"], dtype=np.int64)
            self._ttf = np.asarray(t["ttf"], dtype=np.int64)
            self.df = SortedKeyMap(self.terms, self._df)
            self.ttf = SortedKeyMap(self.terms, self._ttf)
        self.dicts: dict[str, SortedStrings] = {}
        from .build import read_dict_table

        for f in (*self.manifest["facet_fields"], *self.manifest["multi_facet_fields"]):
            t_dict = read_dict_table(index_dir, f)
            if t_dict is not None:
                self.dicts[f] = SortedStrings(t_dict["value"])
        # live-docs tombstones (deleteDocuments analog): loaded ONCE at
        # reader open — point-in-time semantics, reopen to observe deletes.
        # The only tombstone-dependent state here: reopen() replaces it
        from .deletes import load_deleted

        self.deleted = load_deleted(index_dir)
        # union-manifest support (incremental ingest): member roots + the
        # per-member old_ord -> global_ord OrdinalMaps (MultiDocValues analog)
        self._members: list[str] = self.manifest.get("members", [])
        self._member_of = {
            p["partition_id"]: p.get("member") for p in self.manifest["partitions"]
        }
        self._ordmaps: dict[tuple, np.ndarray | None] = {}

    def reopen(self, deleted: np.ndarray | None = None) -> "GlobalStats":
        """A new point-in-time view of the same commit: every loaded
        structure (term table and its shard LRU, facet dictionaries,
        ordinal maps) is shared, only the tombstones are replaced —
        ``deleted`` (sorted unique doc ids) or the current ``livedocs/``."""
        from .deletes import load_deleted

        view = copy.copy(self)
        view.deleted = load_deleted(self.index_dir) if deleted is None else deleted
        return view

    def root_for(self, pid: int) -> str:
        mi = self._member_of.get(pid)
        return self._members[mi] if mi is not None else self.index_dir

    def ordmap_for(self, pid: int, field: str) -> np.ndarray | None:
        """member-local ord -> global ord (None for non-union indexes)."""
        mi = self._member_of.get(pid)
        if mi is None:
            return None
        key = (mi, field)
        if key not in self._ordmaps:
            p = os.path.join(self.index_dir, "ordmaps", f"m{mi}_{field}.parquet")
            self._ordmaps[key] = (
                np.asarray(pq.read_table(p)["global_ord"], dtype=np.int64)
                if os.path.exists(p)
                else None
            )
        return self._ordmaps[key]

    def ord_of(self, field: str, value: str) -> int:
        d = self.dicts.get(field)
        return -1 if d is None else d.index(value)

    def ttf_slice(self, lo: int, hi: int) -> np.ndarray:
        """ttf values of term ranks [lo, hi) (suggester weights)."""
        if self._tt is not None:
            return self._tt.values_slice("ttf", lo, hi)
        return self._ttf[lo:hi]

    # ---- term-dictionary scans ---------------------------------------------

    def prefix_terms(self, field: str, prefix: str) -> list[str]:
        """Sorted range scan of the global dictionary: terms of ``field``
        starting with ``prefix`` (the BlockTree prefix-seek analog; replaces
        the round-1 full-vocabulary regex scan for PrefixQuery)."""
        from ..stages.tokenize import FIELD_SEP

        key_pref = field_term_key(field, prefix)
        lo, hi = self.terms.prefix_range(key_pref)
        strip = len(key_pref) - len(prefix)
        out = []
        for t in self.terms.iter_range(lo, hi):
            body = t[strip:]
            if FIELD_SEP in body:  # a longer field prefix sharing this range
                continue
            out.append(body)
        return out

    def range_terms(
        self,
        field: str,
        lo: str | None,
        hi: str | None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> list[str]:
        """TermRangeQuery expansion (`search/TermRangeQuery.java`): sorted-
        dictionary range scan over [lo, hi] with inclusive/exclusive ends —
        same shard-pruned seek as :meth:`prefix_terms` (a bytewise
        ``lower_bound`` per end, O(range) scan between)."""
        from ..stages.tokenize import FIELD_SEP

        key_pref = field_term_key(field, "")
        f_lo, f_hi = self.terms.prefix_range(key_pref) if key_pref else (0, len(self.terms))
        if lo is None:
            i_lo = f_lo
        else:
            b = field_term_key(field, lo).encode("utf-8")
            i_lo = self.terms.lower_bound(b if include_lo else b + b"\x00")
        if hi is None:
            i_hi = f_hi
        else:
            b = field_term_key(field, hi).encode("utf-8")
            i_hi = self.terms.lower_bound(b + b"\x00" if include_hi else b)
        i_lo, i_hi = max(i_lo, f_lo), min(i_hi, f_hi)
        strip = len(key_pref)
        out = []
        for t in self.terms.iter_range(i_lo, i_hi):
            body = t[strip:]
            if FIELD_SEP in body:  # another field's keys interleaved in range
                continue
            out.append(body)
        return out

    def term_chunks(self, field: str):
        """Yield ``(terms_arrow_array, ttf_int64, rank_lo)`` chunks covering
        one field's dictionary range — one SHARD resident at a time with the
        sharded layout (streamed scan for kernels that cannot be
        range-bounded, e.g. infix matching).  With the legacy single-table
        layout, one chunk.  Chunks for the default field may contain other
        fields' ``field\\x1fterm`` keys — callers mask on FIELD_SEP."""
        key_pref = field_term_key(field, "")
        lo, hi = (
            self.terms.prefix_range(key_pref) if key_pref else (0, len(self.terms))
        )
        if self._tt is None:
            yield self.terms.arr.slice(lo, hi - lo), self._ttf[lo:hi], lo
            return
        i = lo
        while i < hi:
            si = self._tt._si_for_rank(i)
            strings, _df, ttf = self._tt._shard(si)
            base = int(self._tt._cum[si])
            end = min(hi, int(self._tt._cum[si + 1]))
            yield strings.arr.slice(i - base, end - i), ttf[i - base : end - base], i
            i = end

    def field_vocabulary(self, field: str):
        """All terms of one field (streamed full dictionary scan; with the
        sharded dictionary, one shard is resident at a time — MultiTermQ
        fallback only, the fuzzy path uses the bounded automaton scan)."""
        from ..stages.tokenize import FIELD_SEP

        if field == "text":
            return [t for t in self.terms if FIELD_SEP not in t]
        pref = field + FIELD_SEP
        lo, hi = self.terms.prefix_range(pref)
        return [t[len(pref):] for t in self.terms.iter_range(lo, hi)]

    def vocabulary(self, field: str):
        """TermSource alias (multiterm_terms' wildcard/regexp fallback)."""
        return self.field_vocabulary(field)

    def fuzzy_terms(self, field: str, word: str, max_edits: int):
        """[(term, distance)] within ``max_edits`` — DP-guided seek over the
        sorted dictionary (never materializes the vocabulary)."""
        from ..query.suggest import fuzzy_seek

        return fuzzy_seek(self.terms, word, max_edits, field=field)


class IndexPartition(TermSource):
    """One partition's artifacts, loaded into RAM (SegmentReader analog)."""

    CELL_CACHE = 1024  # per-partition decoded-cell LRU (TermStates cache)

    def __init__(self, index_dir: str, pid: int, stats: GlobalStats):
        self.pid = pid
        self.stats = stats
        self.with_positions = stats.manifest["with_positions"]
        # tombstones owned by THIS partition (liveDocs slice): the global
        # sorted set intersected with our doc range — masking below is a
        # vectorized searchsorted membership test per posting list
        self.deleted = stats.deleted
        index_dir = stats.root_for(pid)  # union manifests link member artifacts

        tfiles = _partition_files(os.path.join(index_dir, "postings"), pid)
        if tfiles:
            tbl = pq.read_table(tfiles)
            if not _is_sorted_strings(tbl["term"]):
                tbl = tbl.sort_by("term")
            tbl = tbl.combine_chunks()
            self._tdict = SortedStrings(tbl["term"])
            # cell columns are BATCH-DECODED once at load into flat numpy +
            # offsets (binary blobs stay zero-copy buffer views): cell() then
            # hands out O(1) numpy slices instead of per-access Arrow-scalar
            # .as_py() decodes — the round-2 cold-query latency suspect
            self._tcols: dict[str, tuple] = {}
            from ..hashing import _flat_bytes

            for n in tbl.column_names:
                if n == "term":
                    continue
                col = tbl[n].combine_chunks() if isinstance(tbl[n], pa.ChunkedArray) else tbl[n]
                if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
                    flat, off = _flat_bytes(col)
                    self._tcols[n] = (flat, off)
                elif pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
                    vals = np.asarray(col.flatten())
                    lens = pc.fill_null(col.value_lengths(), 0).to_numpy(zero_copy_only=False)
                    off = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
                    self._tcols[n] = (vals, off)
                else:
                    self._tcols[n] = (np.asarray(col), None)
        else:
            self._tdict = SortedStrings(pa.array([], type=pa.string()))
            self._tcols = {}
        self._cell_cache: dict[str, dict | None] = {}
        self._live_rows_cache: np.ndarray | None = None
        self._valid_counts: dict[str, np.ndarray] = {}

        dfiles = _partition_files(os.path.join(index_dir, "docmap"), pid)
        dm = pq.read_table(dfiles).combine_chunks()
        self.doc_ids = np.asarray(dm["doc_id"], dtype=np.int64)
        if not np.all(self.doc_ids[:-1] <= self.doc_ids[1:]):
            dm = dm.sort_by("doc_id").combine_chunks()
            self.doc_ids = np.asarray(dm["doc_id"], dtype=np.int64)
        self.norms = np.asarray(dm["norm"], dtype=np.uint8)
        self.dls = np.asarray(dm["dl"], dtype=np.int64)
        self.field_norms: dict[str, np.ndarray] = {"text": self.norms}
        for f in stats.extra_text_fields:
            if f"norm_{f}" in dm.column_names:
                self.field_norms[f] = np.asarray(dm[f"norm_{f}"], dtype=np.uint8)
        # doc-values columns: numerics as numpy, strings as Arrow, lists
        # pre-flattened to (flat_ords int64, row_of int64) for vectorized use
        self.columns: dict[str, object] = {}
        self.list_columns: dict[str, pa.Array] = {}
        self._list_flat: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in dm.column_names:
            if name in ("doc_id", "norm", "dl", "partition_id") or name.startswith("norm_"):
                continue
            col = dm[name].combine_chunks() if isinstance(dm[name], pa.ChunkedArray) else dm[name]
            if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
                self.list_columns[name] = col
                if pa.types.is_integer(col.type.value_type):
                    # ordinal columns: pre-flatten once so facet counting and
                    # membership filters are pure numpy (no per-row Python)
                    flat = np.asarray(col.flatten(), dtype=np.int64)
                    lens = pc.fill_null(col.value_lengths(), 0).to_numpy(zero_copy_only=False)
                    row_of = np.repeat(np.arange(dm.num_rows, dtype=np.int64), lens)
                    self._list_flat[name] = (flat, row_of)
            elif pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
                arr = col.to_numpy(zero_copy_only=False)
                if name.endswith("_ord"):
                    arr = arr.astype(np.int64)
                self.columns[name] = arr
            else:
                self.columns[name] = col  # Arrow string column (url, host, ...)

    def reopen(self, stats: GlobalStats) -> "IndexPartition":
        """This partition under ``stats``' tombstones (a reopened
        :class:`GlobalStats` of the same commit): term columns, cell LRU,
        docmap and doc-values columns are shared with this reader; only the
        live-docs state is new (the shared-core ``SegmentReader`` reopen)."""
        view = copy.copy(self)
        view.stats = stats
        view.deleted = stats.deleted
        view._live_rows_cache = None
        return view

    # -- cell lookup ----------------------------------------------------------

    def cell(self, key: str) -> dict | None:
        """Posting-cell row for a full term key (binary search + small cache).

        The returned dict carries encoded blobs as zero-copy numpy uint8
        views and the skip/block-max sidecars as numpy slices — no Arrow
        scalar decode on the query path."""
        hit = self._cell_cache.get(key, False)
        if hit is not False:
            return hit
        i = self._tdict.index(key)
        if i < 0:
            cell = None
        else:
            cell = {}
            for n, (arr, off) in self._tcols.items():
                cell[n] = arr[i].item() if off is None else arr[off[i] : off[i + 1]]
        if len(self._cell_cache) >= self.CELL_CACHE:
            self._cell_cache.pop(next(iter(self._cell_cache)))
        self._cell_cache[key] = cell
        return cell

    # -- live-docs masking ------------------------------------------------------

    @property
    def has_deletes(self) -> bool:
        return len(self.deleted) > 0

    def _live_rows(self) -> np.ndarray:
        """Boolean live mask over this partition's rows (cached)."""
        m = self._live_rows_cache
        if m is None:
            from .deletes import mask_deleted

            m = self._live_rows_cache = mask_deleted(self.deleted, self.doc_ids)
        return m

    def _mask_live(self, docs: np.ndarray) -> np.ndarray:
        from .deletes import mask_deleted

        return mask_deleted(self.deleted, docs)

    # -- TermSource -----------------------------------------------------------

    def postings(self, field, term):
        cell = self.cell(field_term_key(field, term))
        if cell is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        docs, tfs = decode_docs_freqs(cell["docs"], cell["freqs"], cell["df"])
        if self.has_deletes:
            live = self._mask_live(docs)
            docs, tfs = docs[live], tfs[live]
        return docs, tfs

    def positions(self, field, term):
        if not self.with_positions:
            raise ValueError(
                "field indexed without positions; rebuild with with_positions=True "
                "to run phrase/span queries"
            )
        cell = self.cell(field_term_key(field, term))
        if cell is None:
            e = np.empty(0, dtype=np.int64)
            return e, e, []
        docs, tfs = decode_docs_freqs(cell["docs"], cell["freqs"], cell["df"])
        pls = decode_positions(cell["positions"], tfs)
        if self.has_deletes:
            live = self._mask_live(docs)
            if not live.all():
                keep = np.flatnonzero(live)
                docs, tfs = docs[live], tfs[live]
                pls = [pls[i] for i in keep.tolist()]
        return docs, tfs, pls

    def payloads(self, field, term):
        """-> (doc_ids, tfs, per-doc position arrays, per-doc float32 payload
        arrays) — the payload stream of `Lucene41PostingsReader`'s .pos file
        (`lucene/core/.../Lucene41PostingsReader.java` payload branch).
        Raises if the index was not built with a payload-bearing analyzer."""
        cell = self.cell(field_term_key(field, term))
        if cell is None:
            e = np.empty(0, dtype=np.int64)
            return e, e, [], []
        if "payloads" not in cell:
            raise ValueError(
                "index carries no payloads; rebuild with "
                "analyzer='whitespace_payload' to run payload queries"
            )
        docs, tfs = decode_docs_freqs(cell["docs"], cell["freqs"], cell["df"])
        pls = decode_positions(cell["positions"], tfs)
        pays = decode_payloads(cell["payloads"], tfs)
        if self.has_deletes:
            live = self._mask_live(docs)
            if not live.all():
                keep = np.flatnonzero(live).tolist()
                docs, tfs = docs[live], tfs[live]
                pls = [pls[i] for i in keep]
                pays = [pays[i] for i in keep]
        return docs, tfs, pls, pays

    def norm_bytes(self, field, doc_ids):
        idx = np.searchsorted(self.doc_ids, doc_ids)
        return self.field_norms.get(field, self.norms)[idx]

    def field_value(self, name: str, i: int):
        """One stored/doc-values field of row i as a Python value."""
        if name == "dl":
            return int(self.dls[i])
        if name in self.columns:
            v = self.columns[name]
            return v[i].as_py() if isinstance(v, (pa.Array, pa.ChunkedArray)) else v[i]
        if name in self.list_columns:
            return self.list_columns[name][i].as_py()
        return None

    def has_field(self, name: str) -> bool:
        return name == "dl" or name in self.columns or name in self.list_columns

    def numeric_values(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids asc, float64 values) of a numeric doc-values column —
        the FunctionQuery value source (missing column -> empty)."""
        if field == "dl":
            vals = self.dls.astype(np.float64)
        else:
            col = self.columns.get(field)
            if col is None or isinstance(col, (pa.Array, pa.ChunkedArray)):
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            vals = np.asarray(col, dtype=np.float64)
        if self.has_deletes:
            live = self._live_rows()
            return self.doc_ids[live], vals[live]
        return self.doc_ids, vals

    def fetch_stored(self, fields: list, doc_ids) -> dict:
        """Lazy stored-fields fetch (`CompressingStoredFieldsReader` analog):
        reads only the requested doc ids from this partition's ``stored/``
        files via parquet predicate pushdown — nothing stays resident.
        Tombstoned docs are not retrievable (RealTimeGet of a deleted id
        misses, `RealTimeGetComponent` + deleted-doc semantics)."""
        if self.has_deletes:
            ids = np.asarray(list(doc_ids), dtype=np.int64)
            doc_ids = ids[self._mask_live(ids)]
        want = [f for f in fields if f in self.stats.stored_fields]
        if not want:
            return {}
        files = _partition_files(
            os.path.join(self.stats.root_for(self.pid), "stored"), self.pid
        )
        if not files:
            return {}
        t = pq.read_table(
            files,
            columns=["doc_id", *want],
            filters=[("doc_id", "in", [int(d) for d in doc_ids])],
        )
        ids = t["doc_id"].to_pylist()
        return {
            int(d): {f: t[f][i].as_py() for f in want}
            for i, d in enumerate(ids)
        }

    def filter_docs(self, q):
        if isinstance(q, FilterQ):
            col = self.columns.get(q.field)
            if col is not None:
                if isinstance(col, (pa.Array, pa.ChunkedArray)):
                    mask = pc.fill_null(pc.equal(col, q.value), False).to_numpy(zero_copy_only=False)
                else:
                    mask = col == q.value
                if self.has_deletes:
                    mask = mask & self._live_rows()
                return self.doc_ids[mask]
            if q.field in self.stats.dicts and (q.field + "_ords") in self._list_flat:
                o = self.stats.ord_of(q.field, q.value)
                remap = self.stats.ordmap_for(self.pid, q.field)
                if remap is not None and o >= 0:
                    # global ord -> member-local (remap strictly increasing)
                    ml = int(np.searchsorted(remap, o))
                    o = ml if ml < len(remap) and remap[ml] == o else -1
                if o < 0:
                    # out-of-vocabulary value: matches nothing.  (-1 is also
                    # the NULL-element sentinel in the flattened ords column
                    # (build.py), so falling through would match docs whose
                    # list contains a null instead of no docs.)
                    return np.empty(0, dtype=np.int64)
                flat, row_of = self._list_flat[q.field + "_ords"]
                mask = np.zeros(len(self.doc_ids), dtype=bool)
                mask[row_of[flat == o]] = True
                if self.has_deletes:
                    mask &= self._live_rows()
                return self.doc_ids[mask]
            return np.empty(0, dtype=np.int64)
        if isinstance(q, RangeQ):
            if q.field == "dl":
                v = self.dls
            else:
                v = self.columns.get(q.field)
                if v is None or isinstance(v, (pa.Array, pa.ChunkedArray)):
                    return np.empty(0, dtype=np.int64)
                v = v.astype(np.float64)
            mask = np.ones(len(self.doc_ids), dtype=bool)
            if q.lo is not None:
                mask &= (v >= q.lo) if q.include_lo else (v > q.lo)
            if q.hi is not None:
                mask &= (v <= q.hi) if q.include_hi else (v < q.hi)
            if self.has_deletes:
                mask &= self._live_rows()
            return self.doc_ids[mask]
        raise TypeError(type(q))

    def all_docs(self):
        if self.has_deletes:
            return self.doc_ids[self._live_rows()]
        return self.doc_ids

    def global_df(self, field, term):
        return self.stats.df.get(field_term_key(field, term), 0)

    def global_stats(self, field):
        if field != "text" and field in self.stats.sum_dl_field:
            return self.stats.max_doc, self.stats.sum_dl_field[field]
        return self.stats.max_doc, self.stats.sum_dl

    def vocabulary(self, field):
        return self.stats.field_vocabulary(field)

    def prefix_terms(self, field, prefix):
        return self.stats.prefix_terms(field, prefix)

    def fuzzy_terms(self, field, word, max_edits):
        return self.stats.fuzzy_terms(field, word, max_edits)

    def range_terms(self, field, lo, hi, include_lo=True, include_hi=True):
        return self.stats.range_terms(field, lo, hi, include_lo, include_hi)

    # -- faceting support -----------------------------------------------------

    def facet_missing(self, field: str, hit_doc_ids: np.ndarray) -> int:
        """Hits with NO value for the facet field (facet.missing bucket)."""
        idx = np.searchsorted(self.doc_ids, hit_doc_ids)
        if field + "_ord" in self.columns:
            return int((self.columns[field + "_ord"][idx] < 0).sum())
        if field + "_ords" in self._list_flat:
            # per-row valid-value counts are query-independent: compute once
            cache = self._valid_counts
            if field not in cache:
                flat, row_of = self._list_flat[field + "_ords"]
                cache[field] = np.bincount(row_of[flat >= 0], minlength=len(self.doc_ids))
            return int((cache[field][idx] == 0).sum())
        raise KeyError(field)

    def facet_ord_pairs(
        self, f1: str, f2: str, hit_doc_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """ALIGNED (ord1, ord2) global-ordinal pairs for hits that have BOTH
        values — the two-level pivot-facet support (single-valued fields;
        `PivotFacetProcessor.java` processes one doc's value per level)."""
        idx = np.searchsorted(self.doc_ids, hit_doc_ids)
        o1 = self.columns[f1 + "_ord"][idx].astype(np.int64)
        o2 = self.columns[f2 + "_ord"][idx].astype(np.int64)
        m = (o1 >= 0) & (o2 >= 0)
        o1, o2 = o1[m], o2[m]
        r1 = self.stats.ordmap_for(self.pid, f1)
        r2 = self.stats.ordmap_for(self.pid, f2)
        return (r1[o1] if r1 is not None else o1, r2[o2] if r2 is not None else o2)

    def facet_ords(self, field: str, hit_doc_ids: np.ndarray) -> np.ndarray:
        """GLOBAL ordinals (with repetition) contributed by the hit docs.

        In a union index the docmap stores member-local ordinals; the
        OrdinalMap remap (strictly increasing) lifts them to global ordinals
        (`MultiDocValues.OrdinalMap` analog)."""
        idx = np.searchsorted(self.doc_ids, hit_doc_ids)
        remap = self.stats.ordmap_for(self.pid, field)
        if field + "_ord" in self.columns:
            o = self.columns[field + "_ord"][idx].astype(np.int64)
            o = o[o >= 0]
            return remap[o] if remap is not None else o
        if field + "_ords" in self._list_flat:
            flat, row_of = self._list_flat[field + "_ords"]
            sel = flat[np.isin(row_of, idx)]
            o = sel[sel >= 0]
            return remap[o] if remap is not None else o
        raise KeyError(field)


class LocalIndex(TermSource):
    """All partitions merged in-process (single-node control)."""

    def __init__(self, index_dir: str):
        self.stats = GlobalStats(index_dir)
        pids = [p["partition_id"] for p in self.stats.manifest["partitions"]]
        self.parts = [IndexPartition(index_dir, pid, self.stats) for pid in pids]

    def _concat(self, pieces):
        pieces = [p for p in pieces if len(p)]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def postings(self, field, term):
        ds, fs = [], []
        for p in self.parts:
            d, f = p.postings(field, term)
            ds.append(d)
            fs.append(f)
        return self._concat(ds), self._concat(fs)

    def positions(self, field, term):
        ds, fs, ps = [], [], []
        for p in self.parts:
            d, f, pl = p.positions(field, term)
            ds.append(d)
            fs.append(f)
            ps.extend(pl)
        return self._concat(ds), self._concat(fs), ps

    def payloads(self, field, term):
        ds, fs, ps, ys = [], [], [], []
        for p in self.parts:
            d, f, pl, pay = p.payloads(field, term)
            ds.append(d)
            fs.append(f)
            ps.extend(pl)
            ys.extend(pay)
        return self._concat(ds), self._concat(fs), ps, ys

    def norm_bytes(self, field, doc_ids):
        out = np.empty(len(doc_ids), dtype=np.uint8)
        for p in self.parts:
            m = (doc_ids >= p.doc_ids[0]) & (doc_ids <= p.doc_ids[-1]) if len(p.doc_ids) else np.zeros(len(doc_ids), bool)
            if m.any():
                out[m] = p.norm_bytes(field, doc_ids[m])
        return out

    def filter_docs(self, q):
        return self._concat([p.filter_docs(q) for p in self.parts])

    def all_docs(self):
        return self._concat([p.all_docs() for p in self.parts])

    def numeric_values(self, field):
        pieces = [p.numeric_values(field) for p in self.parts]
        docs = self._concat([d for d, _ in pieces])
        vals = [v for _, v in pieces if len(v)]
        return docs, (
            np.concatenate(vals) if vals else np.empty(0, dtype=np.float64)
        )

    def global_df(self, field, term):
        return self.stats.df.get(field_term_key(field, term), 0)

    def global_stats(self, field):
        if field != "text" and field in self.stats.sum_dl_field:
            return self.stats.max_doc, self.stats.sum_dl_field[field]
        return self.stats.max_doc, self.stats.sum_dl

    def vocabulary(self, field):
        return self.stats.field_vocabulary(field)

    def prefix_terms(self, field, prefix):
        return self.stats.prefix_terms(field, prefix)

    def fuzzy_terms(self, field, word, max_edits):
        return self.stats.fuzzy_terms(field, word, max_edits)

    def range_terms(self, field, lo, hi, include_lo=True, include_hi=True):
        return self.stats.range_terms(field, lo, hi, include_lo, include_hi)
