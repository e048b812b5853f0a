"""Property tests for the postings codec (round-trip, block seek, bounds)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.index.postings import (
    BLOCK,
    decode_block,
    decode_docs_freqs,
    decode_positions,
    encode_cell,
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=700),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10**8, size=n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 1000, size=n).astype(np.uint64)
    dls = (rng.random(n).astype(np.float32) * 500) + 1
    cell = encode_cell(ids, tfs, dls)
    d, f = decode_docs_freqs(cell["docs"], cell["freqs"], cell["df"])
    assert (d == ids.astype(np.int64)).all()
    assert (f == tfs.astype(np.int64)).all()
    assert cell["df"] == n
    assert cell["ttf"] == int(tfs.sum())


def test_block_seek_equals_full_decode():
    rng = np.random.default_rng(7)
    n = 513
    ids = np.sort(rng.choice(10**7, size=n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 50, size=n).astype(np.uint64)
    cell = encode_cell(ids, tfs, np.ones(n, dtype=np.float32))
    full_d, full_f = decode_docs_freqs(cell["docs"], cell["freqs"], n)
    for bi in range((n + BLOCK - 1) // BLOCK):
        d, f = decode_block(cell, bi)
        s = slice(bi * BLOCK, min(n, (bi + 1) * BLOCK))
        assert (d == full_d[s]).all()
        assert (f == full_f[s]).all()


def test_blockmax_metadata_bounds():
    rng = np.random.default_rng(9)
    n = 300
    ids = np.sort(rng.choice(10**6, size=n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 40, size=n).astype(np.uint64)
    dls = rng.integers(1, 400, size=n).astype(np.float32)
    cell = encode_cell(ids, tfs, dls)
    for bi, (last, mtf, mdl) in enumerate(
        zip(cell["skip_last_doc"], cell["bm_max_tf"], cell["bm_min_dl"])
    ):
        s = slice(bi * BLOCK, min(n, (bi + 1) * BLOCK))
        assert last == int(ids[s][-1])
        assert mtf == int(tfs[s].max())
        assert mdl == pytest.approx(float(dls[s].min()))


def test_positions_round_trip():
    rng = np.random.default_rng(3)
    n = 140
    ids = np.sort(rng.choice(10**6, size=n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 8, size=n).astype(np.uint64)
    pos = [np.sort(rng.choice(10_000, size=int(t), replace=False)) for t in tfs]
    cell = encode_cell(ids, tfs, np.ones(n, dtype=np.float32), pos)
    _, f = decode_docs_freqs(cell["docs"], cell["freqs"], n)
    out = decode_positions(cell["positions"], f)
    assert all((a == b).all() for a, b in zip(out, pos))


def test_head_cells_batch_equals_encode_cell():
    """The batched head-cell path inside encode_cells_columns must be
    byte-identical to per-cell encode_cell on every column — docs/freqs
    blobs (FOR blocks + vbyte tail), skip arrays, block-max metadata and
    position blobs — across widths, exact-multiple-of-BLOCK lengths, and
    delta-width outliers."""
    import numpy as np

    from lucene_solr_ray.index.postings import BLOCK, encode_cell, encode_cells_columns
    from lucene_solr_ray.smallfloat import NORM_TABLE

    rng = np.random.default_rng(7)
    cells = []
    for spec in (
        (BLOCK, 1),            # exactly one full block, tiny deltas
        (BLOCK, 1 << 20),      # one full block, wide deltas
        (BLOCK + 1, 3),        # full block + 1-doc tail
        (5 * BLOCK + 17, 50),  # many blocks + tail
        (2 * BLOCK, 1),        # exact multiple, no tail
        (7, 2),                # tail-only cell interleaved
        (3 * BLOCK + 77, 9),
    ):
        n, dmax = spec
        deltas = rng.integers(1, dmax + 1, size=n, dtype=np.int64)
        docs = np.cumsum(deltas)
        tfs = rng.integers(1, 900, size=n, dtype=np.int64)
        norms = rng.integers(100, 140, size=n, dtype=np.uint8)
        poss = [np.sort(rng.integers(0, 5000, size=int(t))).astype(np.int64) for t in tfs]
        cells.append((docs, tfs, norms, poss))

    # flatten into the encode_cells_columns calling convention
    starts, all_docs, all_tfs, all_dls, all_pos = [], [], [], [], []
    off = 0
    for docs, tfs, norms, poss in cells:
        starts.append(off)
        off += len(docs)
        all_docs.append(docs)
        all_tfs.append(tfs)
        all_dls.append(NORM_TABLE[norms])
        all_pos.extend(poss)
    starts = np.asarray(starts, dtype=np.int64)
    docs_f = np.concatenate(all_docs)
    tfs_f = np.concatenate(all_tfs)
    dls_f = np.concatenate(all_dls)
    pos_f = np.concatenate(all_pos)

    cols = encode_cells_columns(starts, docs_f, tfs_f, dls_f, pos_f)

    for ci, (docs, tfs, norms, poss) in enumerate(cells):
        ref = encode_cell(docs, tfs, NORM_TABLE[norms], poss)
        got_docs = cols["docs"][ci].as_py()
        got_freqs = cols["freqs"][ci].as_py()
        got_pos = cols["positions"][ci].as_py()
        assert got_docs == ref["docs"], f"cell {ci} docs blob"
        assert got_freqs == ref["freqs"], f"cell {ci} freqs blob"
        assert got_pos == ref["positions"], f"cell {ci} positions blob"
        for key in ("skip_first_doc", "skip_last_doc", "skip_docs_off",
                    "skip_freqs_off", "bm_max_tf"):
            assert cols[key][ci].as_py() == list(ref[key]), f"cell {ci} {key}"
        got_dl = cols["bm_min_dl"][ci].as_py()
        assert got_dl == [np.float32(x) for x in ref["bm_min_dl"]], f"cell {ci} bm_min_dl"


def test_vbyte_full_uint64_range():
    """The rewritten mask-free _vbyte_encode must hold over the FULL uint64
    range (0, 7-bit boundaries, 2^63, uint64 max) and agree with
    _vbyte_lengths' early-exit byte counts."""
    import numpy as np

    from lucene_solr_ray.index.postings import (
        _vbyte_decode,
        _vbyte_encode,
        _vbyte_lengths,
    )

    vals = np.array(
        [0, 1, 127, 128, 16383, 16384, (1 << 35) - 1, 1 << 35,
         (1 << 63) - 1, 1 << 63, (1 << 64) - 1],
        dtype=np.uint64,
    )
    buf = _vbyte_encode(vals)
    assert len(buf) == int(_vbyte_lengths(vals).sum())
    out, off = _vbyte_decode(memoryview(buf), 0, len(vals))
    assert off == len(buf)
    assert (out == vals).all()


@pytest.mark.parametrize(
    "vmax", [(1 << 53) - 1, (1 << 53) + 1, (1 << 54) - 1, (1 << 64) - 1]
)
def test_for_block_packers_agree_past_float_precision(vmax):
    """The batched FOR packer must pick the exact bit width on the full
    uint64 domain: float log2 rounds m >= 2^53 up, which gave 2^54-1 a
    55-bit block and 2^64-1 an invalid width byte of 65."""
    from lucene_solr_ray.index.postings import _pack_for, _pack_for_blocks

    block = np.arange(BLOCK, dtype=np.uint64)
    block[BLOCK // 2] = np.uint64(vmax)
    ref = _pack_for(block)
    widths, out, offs = _pack_for_blocks(block[None, :])
    assert int(widths[0]) == vmax.bit_length() == ref[0]
    assert out[int(offs[0]) : int(offs[1])].tobytes() == ref


def test_offsets_past_int32_raise():
    """Binary/list columns keep pa.binary()'s int32 offsets, so a partition
    column past 2 GiB must fail loudly, naming the column, instead of
    wrapping into a corrupt column."""
    from lucene_solr_ray.index.postings import _int32_offsets

    ok = _int32_offsets(np.array([0, 5, (1 << 31) - 1], dtype=np.int64), "docs")
    assert ok.dtype == np.int32 and int(ok[-1]) == (1 << 31) - 1
    with pytest.raises(ValueError, match="'positions'"):
        _int32_offsets(np.array([0, 7, 1 << 31], dtype=np.int64), "positions")


def test_no_cells_keeps_the_column_types():
    from lucene_solr_ray.index.postings import encode_cells_columns

    one = encode_cells_columns(np.array([0]), np.array([3]), np.array([2]),
                               np.array([1.0], dtype=np.float32), np.array([1, 4]))
    none = encode_cells_columns(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64), np.array([], dtype=np.float32),
                                np.array([], dtype=np.int64))
    assert list(none) == list(one)
    assert all(len(v) == 0 and v.type == one[k].type for k, v in none.items())
