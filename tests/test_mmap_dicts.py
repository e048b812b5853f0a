"""Memory-mapped dictionary shards (round-4, ROADMAP 640M-ordinal regime).

The flat-actor-memory claim is asserted with Arrow's allocation pool:
memory-mapped buffers are file-backed and never touch the default memory
pool, so loading/searching shards through the mmap path must allocate ~0
HEAP bytes however many shards are touched — while the heap (parquet) path
allocates at least the shard payload.  (Process RSS would also count
resident mapped pages, which the kernel can evict; pool bytes are the
deterministic form of the assertion.)  The heap path is reached the way
production reaches it: the IPC sidecar cannot be written (read-only index
directory).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index.termshards import (
    SHARD_INDEX,
    ShardedOrdinalMapper,
    ShardedTermTable,
    write_shard_index,
)

N_SHARDS = 24
ROWS = 5_000  # per shard -> ~120k terms total


@pytest.fixture(scope="module")
def wide_vocab_dir(tmp_path_factory):
    """Synthetic wide-vocab sorted term dictionary, range-sharded."""
    d = str(tmp_path_factory.mktemp("vocab"))
    rng = np.random.default_rng(3)
    for si in range(N_SHARDS):
        terms = sorted(f"{si:02d}term{j:07d}" for j in range(ROWS))
        t = pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "df": pa.array(rng.integers(1, 100, ROWS), type=pa.int64()),
                "ttf": pa.array(rng.integers(1, 1000, ROWS), type=pa.int64()),
            }
        )
        pq.write_table(t, os.path.join(d, f"shard_{si:05d}.parquet"))
    write_shard_index(d)
    return d


@pytest.fixture
def readonly_vocab_dir(wide_vocab_dir, tmp_path, monkeypatch):
    """A sidecar-free copy of the vocab whose IPC sidecar writes fail, as
    in a read-only index directory, so every shard load takes the heap
    fallback.  (Permission bits do not stop root, so the write itself is
    made to fail.)"""
    d = str(tmp_path / "readonly_vocab")
    os.makedirs(d)
    for f in os.listdir(wide_vocab_dir):
        if f.endswith(".parquet") or f == SHARD_INDEX:
            shutil.copy(os.path.join(wide_vocab_dir, f), d)
    real_osfile = pa.OSFile

    def osfile(path, mode="r"):
        if "w" in mode and str(path).startswith(d):
            raise PermissionError(13, "read-only index directory", str(path))
        return real_osfile(path, mode)

    monkeypatch.setattr(pa, "OSFile", osfile)
    yield d
    assert not any(f.endswith(".arrow") or ".tmp" in f for f in os.listdir(d))


def _probe_all_shards(tab: ShardedTermTable):
    hits = 0
    for si in range(N_SHARDS):
        term = f"{si:02d}term{si * 13 % ROWS:07d}"
        if tab.get(term, "df", 0) > 0:
            hits += 1
        assert tab.index(term) >= 0
    return hits


def test_mmap_path_allocates_no_heap(wide_vocab_dir):
    tab = ShardedTermTable(wide_vocab_dir, max_cached=8)
    # warm one shard so one-time module/import allocations are out of the way
    _ = tab.get("00term0000000", "df", 0)
    before = pa.total_allocated_bytes()
    hits = _probe_all_shards(tab)
    delta = pa.total_allocated_bytes() - before
    assert hits == N_SHARDS
    # 23 further shard loads (~3.5 MB payload) must not land on the heap;
    # allow small bookkeeping slack
    assert delta < 256 * 1024, f"mmap path allocated {delta} heap bytes"


def test_heap_path_allocates_payload(readonly_vocab_dir):
    tab = ShardedTermTable(readonly_vocab_dir, max_cached=N_SHARDS)
    before = pa.total_allocated_bytes()
    hits = _probe_all_shards(tab)
    delta = pa.total_allocated_bytes() - before
    assert hits == N_SHARDS
    assert delta > 1_000_000, f"heap path allocated only {delta} bytes"


def test_mmap_and_heap_paths_identical(wide_vocab_dir, readonly_vocab_dir):
    mm = ShardedTermTable(wide_vocab_dir, max_cached=4)
    heap = ShardedTermTable(readonly_vocab_dir, max_cached=4)
    # spot lookups, ranks, ranges across shard boundaries
    for term in ("00term0000000", "11term0004999", "23term0002500", "zzz", "00aaa"):
        assert mm.index(term) == heap.index(term)
        assert mm.get(term, "df", -7) == heap.get(term, "df", -7)
        assert mm.get(term, "ttf", -7) == heap.get(term, "ttf", -7)
    assert mm.prefix_range("17term") == heap.prefix_range("17term")
    lo, hi = mm.prefix_range("05term00000")
    assert list(mm.iter_range(lo, hi)) == list(heap.iter_range(lo, hi))
    assert np.array_equal(
        mm.values_slice("df", ROWS - 5, ROWS + 5),
        heap.values_slice("df", ROWS - 5, ROWS + 5),
    )


def test_ordinal_mapper_mmap_no_heap_growth(wide_vocab_dir):
    m = ShardedOrdinalMapper(wide_vocab_dir, max_cached=4)
    m.value_col = "term"
    warm = m.map_array(pa.array(["00term0000001"]))
    assert warm[0].as_py() == 1
    before = pa.total_allocated_bytes()
    vals = pa.array(
        [f"{si:02d}term{si:07d}" for si in range(N_SHARDS)] + ["missing!"]
    )
    ords = m.map_array(vals).to_pylist()
    delta = pa.total_allocated_bytes() - before
    assert ords[-1] == -1
    assert ords[:3] == [0 * ROWS + 0, 1 * ROWS + 1, 2 * ROWS + 2]
    assert delta < 512 * 1024, f"mapper mmap path allocated {delta} heap bytes"


def test_sidecar_created_once_and_reused(wide_vocab_dir):
    tab = ShardedTermTable(wide_vocab_dir, max_cached=2)
    tab.get("03term0000100", "df", 0)
    # "_" prefix keeps the sidecar invisible to read_parquet(dir) discovery
    ipc = os.path.join(wide_vocab_dir, "_shard_00003.parquet.arrow")
    assert os.path.exists(ipc)
    mtime = os.path.getmtime(ipc)
    tab2 = ShardedTermTable(wide_vocab_dir, max_cached=2)
    tab2.get("03term0000100", "df", 0)
    assert os.path.getmtime(ipc) == mtime  # reused, not rewritten


def test_directory_readers_ignore_sidecars(wide_vocab_dir):
    """Parquet-dataset discovery over the shard dir (what
    ``rd.read_parquet(terms_global)`` does in ``_terms_topn``) must skip the
    IPC sidecars — regression: sidecars named ``*.parquet.arrow`` (no ``_``
    prefix) were picked up as parquet and broke every directory reader."""
    import pyarrow.dataset as pads

    tab = ShardedTermTable(wide_vocab_dir, max_cached=2)
    tab.get("03term0000100", "df", 0)  # materialize at least one sidecar
    assert any(f.startswith("_") and f.endswith(".arrow")
               for f in os.listdir(wide_vocab_dir))
    ds = pads.dataset(wide_vocab_dir, format="parquet")
    assert ds.count_rows() == N_SHARDS * ROWS
