"""Range-sharded global term dictionary with lazy shard loading.

The ``.tip``/``.tim`` split of Lucene's BlockTree terms index
(`lucene/core/src/java/org/apache/lucene/codecs/blocktree/
BlockTreeTermsReader.java`): a tiny RESIDENT shard index (first term + row
count per shard, ``_shard_index.json``) plus sorted term shards loaded on
demand into a small LRU.  Replaces the round-2 whole-table ``terms_global``
load — the last O(vocab)-per-actor structure: a query actor now holds
O(touched shards), not O(vocab), regardless of corpus vocabulary size.

Layout contract: ``terms_global/`` holds shard files with disjoint key
ranges, each internally sorted by term bytes, written only by
``build.write_terms_global``; ``_shard_index.json`` lists them in FIRST-TERM
order.  Global term ordinals are the concatenation in that order —
identical to the round-2 single-table ordinals, so every consumer keeps its
index arithmetic.
"""

from __future__ import annotations

import bisect
import json
import os
from collections import OrderedDict

import numpy as np
import pyarrow.parquet as pq

from .termdict import SortedStrings

SHARD_INDEX = "_shard_index.json"
_HI_KEY = b"\xff\xff\xff\xff"


def _load_shard_table(dir_path: str, fname: str):
    """Load one shard with FILE-BACKED buffers instead of heap.

    Converts the parquet shard ONCE (per node; atomic rename, concurrent
    writers collide harmlessly) into an uncompressed Arrow IPC sidecar and
    memory-maps it: the returned table's buffers are views onto mapped
    pages the kernel caches and evicts under pressure, so an actor's HEAP
    stays O(LRU handles) — flat — however large the vocabulary grows (the
    mmap analog of Lucene's ``MMapDirectory`` terms index).  Falls back to
    the heap read when the sidecar cannot be written (read-only index
    directory)."""
    import pyarrow as pa

    src = os.path.join(dir_path, fname)
    # "_" prefix: Arrow dataset discovery (and so ray.data.read_parquet over
    # the shard directory) ignores '_'/'.'-prefixed files, so the sidecar
    # never shadows the parquet shards for directory-level readers
    ipc = os.path.join(dir_path, "_" + fname + ".arrow")
    legacy = src + ".arrow"  # pre-fix name: migrate by ignoring (re-convert)
    if os.path.exists(legacy) and not os.path.exists(ipc):
        try:
            os.replace(legacy, ipc)
        except OSError:
            pass
    if not os.path.exists(ipc):
        t = pq.read_table(src).combine_chunks()
        tmp = f"{ipc}.tmp{os.getpid()}"
        try:
            with pa.OSFile(tmp, "wb") as sink:
                with pa.ipc.new_file(sink, t.schema) as w:
                    w.write_table(t)
            os.replace(tmp, ipc)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            return t  # read-only index dir: heap fallback
    mm = pa.memory_map(ipc)
    return pa.ipc.open_file(mm).read_all()


def _as_array(col):
    """ChunkedArray -> Array without copying when single-chunk (pyarrow's
    combine_chunks() allocates a fresh array even for one chunk, which would
    silently put the whole mmap-backed shard on the heap)."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def write_shard_index(dir_path: str, term_col: str = "term") -> dict:
    """Build-time sidecar: one footer read + one first-row read per shard
    (metadata-scale; query actors never touch data pages to locate a term).
    Empty shard files are excluded so every resident entry is seekable."""
    files = sorted(f for f in os.listdir(dir_path) if f.endswith(".parquet"))
    entries = []
    for f in files:
        p = os.path.join(dir_path, f)
        md = pq.read_metadata(p)
        if md.num_rows == 0:
            continue
        pf = pq.ParquetFile(p)
        batch = next(pf.iter_batches(batch_size=1, columns=[term_col]))
        entries.append((batch[term_col][0].as_py(), f, int(md.num_rows)))
    # global order = FIRST-TERM order, not filename order: shard key ranges
    # are disjoint (each shard is a slice of one globally sorted stream), so
    # sorting by first term reconstructs global ordinals regardless of how
    # the writer numbered the files
    entries.sort(key=lambda e: e[0].encode("utf-8"))
    idx = {
        "term_col": term_col,
        "files": [e[1] for e in entries],
        "rows": [e[2] for e in entries],
        "first": [e[0] for e in entries],
    }
    tmp = os.path.join(dir_path, "." + SHARD_INDEX + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(idx, fh)
    os.replace(tmp, os.path.join(dir_path, SHARD_INDEX))
    return idx


class ShardedTermTable:
    """Lazy (term, df, ttf) lookups over the sharded sorted dictionary."""

    def __init__(self, dir_path: str, max_cached: int = 8):
        with open(os.path.join(dir_path, SHARD_INDEX)) as fh:
            idx = json.load(fh)
        self.dir = dir_path
        self.files: list[str] = idx["files"]
        self._rows = np.asarray(idx["rows"], dtype=np.int64)
        self._cum = np.concatenate(([0], np.cumsum(self._rows))).astype(np.int64)
        self._firsts = [s.encode("utf-8") for s in idx["first"]]
        self._n = int(self._cum[-1])
        self.max_cached = max_cached
        self._cache: OrderedDict[int, tuple] = OrderedDict()

    def __len__(self) -> int:
        return self._n

    @property
    def shards_loaded(self) -> int:
        return len(self._cache)

    def _shard(self, si: int) -> tuple:
        hit = self._cache.get(si)
        if hit is not None:
            self._cache.move_to_end(si)
            return hit
        t = _load_shard_table(self.dir, self.files[si])
        entry = (
            SortedStrings(_as_array(t["term"])),
            np.asarray(t["df"], dtype=np.int64),
            np.asarray(t["ttf"], dtype=np.int64),
        )
        self._cache[si] = entry
        if len(self._cache) > self.max_cached:
            self._cache.popitem(last=False)
        return entry

    def _si_for_key(self, b: bytes) -> int:
        return max(0, bisect.bisect_right(self._firsts, b) - 1)

    def _si_for_rank(self, i: int) -> int:
        return int(np.searchsorted(self._cum, i, side="right")) - 1

    # -- lookups --------------------------------------------------------------

    def index(self, term) -> int:
        if self._n == 0:
            return -1
        b = term.encode("utf-8") if isinstance(term, str) else bytes(term)
        si = self._si_for_key(b)
        i = self._shard(si)[0].index(b)
        return -1 if i < 0 else int(self._cum[si]) + i

    def get(self, term, col: str = "df", default=0):
        if self._n == 0:
            return default
        b = term.encode("utf-8") if isinstance(term, str) else bytes(term)
        si = self._si_for_key(b)
        strings, df, ttf = self._shard(si)
        i = strings.index(b)
        if i < 0:
            return default
        return int(df[i]) if col == "df" else int(ttf[i])

    def lower_bound(self, b: bytes) -> int:
        if self._n == 0:
            return 0
        si = self._si_for_key(b)
        # a run of equal-prefix terms can't span a shard boundary unseen:
        # firsts[si] <= b < firsts[si+1], so the in-shard bound is global
        return int(self._cum[si]) + self._shard(si)[0].lower_bound(b)

    def prefix_range(self, prefix: str) -> tuple[int, int]:
        b = prefix.encode("utf-8")
        return self.lower_bound(b), self.lower_bound(b + _HI_KEY)

    def term_at(self, i: int) -> str:
        si = self._si_for_rank(i)
        return self._shard(si)[0][i - int(self._cum[si])]

    def iter_range(self, lo: int, hi: int):
        """Stream terms of global ranks [lo, hi) — walks shards sequentially,
        so a full scan holds one shard at a time (plus the LRU)."""
        i = lo
        while i < hi:
            si = self._si_for_rank(i)
            strings = self._shard(si)[0]
            end = min(hi, int(self._cum[si + 1]))
            base = int(self._cum[si])
            for j in range(i - base, end - base):
                yield strings[j]
            i = end

    def values_slice(self, col: str, lo: int, hi: int) -> np.ndarray:
        ci = 1 if col == "df" else 2
        out, i = [], lo
        while i < hi:
            si = self._si_for_rank(i)
            entry = self._shard(si)
            end = min(hi, int(self._cum[si + 1]))
            base = int(self._cum[si])
            out.append(entry[ci][i - base : end - base])
            i = end
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


class ShardedOrdinalMapper:
    """value -> global facet ordinal over a range-sharded sorted dictionary.

    The docmap-stage counterpart of :class:`ShardedTermTable`: a worker maps a
    batch of facet values to global ordinals loading ONLY the shards the
    batch's distinct values actually fall into (small LRU), so ordinal
    assignment for a 640M-value dictionary (the SOLR-5894 `links` regime,
    `solr/core/src/java/org/apache/solr/request/DocValuesFacets.java` ordinal
    model) never materializes the dictionary in any single process."""

    def __init__(self, dir_path: str, max_cached: int = 8):
        with open(os.path.join(dir_path, SHARD_INDEX)) as fh:
            idx = json.load(fh)
        self.dir = dir_path
        self.files: list[str] = idx["files"]
        self.value_col = idx.get("term_col", "value")
        self._cum = np.concatenate(
            ([0], np.cumsum(np.asarray(idx["rows"], dtype=np.int64)))
        ).astype(np.int64)
        self._firsts = np.array([s.encode("utf-8") for s in idx["first"]], dtype=object)
        self.max_cached = max_cached
        self._cache: OrderedDict[int, object] = OrderedDict()

    def __len__(self) -> int:
        return int(self._cum[-1])

    @property
    def shards_loaded(self) -> int:
        return len(self._cache)

    def _shard_values(self, si: int):
        hit = self._cache.get(si)
        if hit is not None:
            self._cache.move_to_end(si)
            return hit
        col = _as_array(_load_shard_table(self.dir, self.files[si])[self.value_col])
        self._cache[si] = col
        if len(self._cache) > self.max_cached:
            self._cache.popitem(last=False)
        return col

    def map_array(self, arr):
        """int32 global ordinals for ``arr`` (-1 for null / out-of-dict).

        Vectorized per touched shard: dictionary-encode the batch, route each
        DISTINCT value to its shard by searchsorted over the resident
        first-value index, then one ``pc.index_in`` per touched shard."""
        import pyarrow as pa
        import pyarrow.compute as pc

        arr = pc.cast(arr, pa.string())
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        denc = arr.dictionary_encode()
        uniq = denc.dictionary
        uords = np.full(len(uniq), -1, dtype=np.int64)
        if len(uniq) and len(self.files):
            ub = np.array(
                [s.encode("utf-8") if s is not None else b"" for s in uniq.to_pylist()],
                dtype=object,
            )
            si = np.maximum(np.searchsorted(self._firsts, ub, side="right") - 1, 0)
            for s in np.unique(si):
                mask = si == s
                idx = pc.index_in(pa.array(ub[mask]).cast(pa.string()),
                                  value_set=self._shard_values(int(s)))
                found = pc.fill_null(pc.cast(idx, pa.int64()), -1).to_numpy(
                    zero_copy_only=False
                )
                uords[mask] = np.where(found >= 0, found + int(self._cum[int(s)]), -1)
        ind = pc.fill_null(pc.cast(denc.indices, pa.int64()), -1).to_numpy(
            zero_copy_only=False
        )
        out = np.where(ind >= 0, uords[np.maximum(ind, 0)], -1).astype(np.int32)
        return pa.array(out, type=pa.int32())


_MAPPER_CACHE: dict = {}


def get_ordinal_mapper(dir_path: str) -> "ShardedOrdinalMapper":
    """Process-level mapper cache: Ray reuses worker processes across map
    tasks, so shard LRUs warm up once per worker, not once per task."""
    m = _MAPPER_CACHE.get(dir_path)
    if m is None:
        m = _MAPPER_CACHE[dir_path] = ShardedOrdinalMapper(dir_path)
    return m


class ShardedStringsView:
    """:class:`~.termdict.SortedStrings`-shaped facade over the shard table
    (keeps every existing term-dictionary call site working unchanged)."""

    __slots__ = ("t",)

    def __init__(self, t: ShardedTermTable):
        self.t = t

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> str:
        return self.t.term_at(int(i))

    def __iter__(self):
        return self.t.iter_range(0, len(self.t))

    def iter_range(self, lo: int, hi: int):
        return self.t.iter_range(lo, hi)

    def index(self, value) -> int:
        return self.t.index(value)

    def __contains__(self, value) -> bool:
        return self.t.index(value) >= 0

    def lower_bound(self, b: bytes) -> int:
        return self.t.lower_bound(b)

    def prefix_range(self, prefix: str) -> tuple[int, int]:
        return self.t.prefix_range(prefix)


class ShardedKeyMap:
    """``{term: df|ttf}`` read facade (the SortedKeyMap call-site contract)."""

    __slots__ = ("t", "col")

    def __init__(self, t: ShardedTermTable, col: str):
        self.t = t
        self.col = col

    def get(self, term, default=0):
        return self.t.get(term, self.col, default)

    def __contains__(self, term) -> bool:
        return self.t.index(term) >= 0

    def __iter__(self):
        return self.t.iter_range(0, len(self.t))

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        # test-scale content equality (full scan; never on a hot path)
        try:
            if len(self) != len(other):
                return False
            return all(self.get(k) == other.get(k) for k in self)
        except (TypeError, AttributeError):
            return NotImplemented
