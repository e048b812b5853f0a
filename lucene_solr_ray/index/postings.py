"""Posting-list codec: delta + FOR bit-packing (128-doc blocks) + VByte tail.

Layout mirrors the *shape* of the reference codec (studied at
``lucene/core/src/java/org/apache/lucene/codecs/lucene41/Lucene41PostingsFormat.java:104-157``:
128-doc FOR-compressed blocks, VInt tail, one skip entry per block) but is a
new numpy implementation over Arrow binary cells, not a port.

A posting cell = the postings of one term within one index partition:

* ``docs`` blob:  full 128-doc blocks of doc-id deltas, each ``[width:uint8]``
  + ``128*width`` bits little-endian-packed; then a VByte tail for the last
  ``n % 128`` deltas.
* ``freqs`` blob: same block structure over term frequencies (not deltas).
* ``positions`` blob (optional): VByte of per-doc position-delta streams,
  concatenated in doc order; per-doc counts are the freqs.
* skip/block-max sidecar (per 128-block, kept as Arrow list columns):
  ``skip_last_doc`` (last docid of block), ``bm_max_tf`` (max tf in block),
  ``bm_min_dl`` (min decoded norm value = smallest quantized doc length in the
  block).  ``score_bound(block) = weight * max_tf / (max_tf + k1*((1-b) +
  b*min_dl/avgdl))`` is a valid upper bound because BM25 is increasing in tf
  and decreasing in dl — this is the block-max WAND metadata
  (`Lucene41SkipWriter.java` analog; WAND itself is our addition, the
  reference scores exhaustively).
"""

from __future__ import annotations

import numpy as np

BLOCK = 128  # Lucene41PostingsFormat.BLOCK_SIZE (:388)
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)

__all__ = ["BLOCK", "encode_cell", "encode_cells_columns", "decode_docs_freqs", "decode_positions"]


# ---- bit packing ------------------------------------------------------------

def _pack_for(vals: np.ndarray) -> bytes:
    """FOR-pack one full block of BLOCK uint32 values: [width][payload]."""
    vmax = int(vals.max(initial=0))
    width = max(1, int(vmax).bit_length())
    shifts = np.arange(width, dtype=np.uint32)
    bits = ((vals[:, None].astype(np.uint64) >> shifts) & 1).astype(np.uint8)
    return bytes([width]) + np.packbits(bits.ravel(), bitorder="little").tobytes()


def _pack_for_blocks(vals_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FOR-pack MANY full blocks at once, byte-identical to per-block
    :func:`_pack_for`.

    ``vals_mat``: (nblocks, BLOCK) uint64.  Returns (widths[nb] int64,
    flat output bytes uint8 — each block laid out [width][payload] —
    and byte offsets[nb+1] into it).  Blocks are grouped by bit width so
    the bit expansion + packbits runs once per DISTINCT width (~a dozen
    calls) instead of once per block (~thousands per partition — 35% of
    the postings task, BASELINE.md round-5 profile)."""
    # width = bit_length(block max) = the count of powers of two <= max:
    # exact on the full uint64 domain, where float log2 is not (>= 2^53 - 1)
    m = vals_mat.max(axis=1).astype(np.uint64)
    widths = np.maximum(1, np.searchsorted(_POW2, m, side="right")).astype(np.int64)
    sizes = 1 + (BLOCK * widths + 7) // 8  # BLOCK*w bits is byte-aligned
    offs = np.concatenate(([0], np.cumsum(sizes)))
    out = np.zeros(int(offs[-1]), dtype=np.uint8)
    out[offs[:-1]] = widths.astype(np.uint8)
    for w in np.unique(widths).tolist():
        sel = np.flatnonzero(widths == w)
        sub = vals_mat[sel]
        shifts = np.arange(w, dtype=np.uint64)
        bits = ((sub[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        packed = np.packbits(bits.reshape(len(sel), -1), axis=1, bitorder="little")
        idx = offs[sel][:, None] + 1 + np.arange(packed.shape[1], dtype=np.int64)
        out[idx] = packed
    return widths, out, offs


def _unpack_for(buf: memoryview, off: int) -> tuple[np.ndarray, int]:
    width = buf[off]
    nbytes = (BLOCK * width + 7) // 8
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=off + 1),
        bitorder="little",
    )[: BLOCK * width].reshape(BLOCK, width)
    vals = bits.astype(np.uint64) @ (np.uint64(1) << np.arange(width, dtype=np.uint64))
    return vals, off + 1 + nbytes


# ---- vbyte ------------------------------------------------------------------

def _vbyte_encode(vals: np.ndarray) -> bytes:
    """Vectorized little-endian-7-bit VByte encode (full uint64 range).

    The byte-count precomputation must agree exactly with the encode loop
    below (which emits continuation bytes until the remainder fits 7 bits)
    — a shorter cap would let a large value overwrite its neighbor's slot
    silently.  uint64 needs at most ceil(64/7) = 10 groups."""
    v = np.asarray(vals, dtype=np.uint64)
    if len(v) == 0:
        return b""
    nbytes = _vbyte_lengths(v)
    ends = np.cumsum(nbytes)
    total = int(ends[-1])
    out = np.zeros(total, dtype=np.uint8)
    starts = ends - nbytes
    # pass 1 on the FULL array without boolean-mask copies (the common
    # 1-byte case exits here); later passes carry only still-live values
    # by integer index — same byte layout as the original mask loop
    more = v >= np.uint64(0x80)
    out[starts] = (
        (v & np.uint64(0x7F)) | (more.astype(np.uint64) << np.uint64(7))
    ).astype(np.uint8)
    live = np.flatnonzero(more)
    rem = v[live] >> np.uint64(7)
    idx = starts[live] + 1
    while len(rem):
        m2 = rem >= np.uint64(0x80)
        out[idx] = (
            (rem & np.uint64(0x7F)) | (m2.astype(np.uint64) << np.uint64(7))
        ).astype(np.uint8)
        keep = np.flatnonzero(m2)
        rem = rem[keep] >> np.uint64(7)
        idx = idx[keep] + 1
    return out.tobytes()


def _vbyte_decode(buf, off: int, n: int) -> tuple[np.ndarray, int]:
    """Vectorized VByte decode of *n* values starting at *off*."""
    if n == 0:
        return np.empty(0, dtype=np.uint64), off
    raw = np.frombuffer(buf, dtype=np.uint8, offset=off)
    # value ends where the continuation bit is clear
    ends = np.flatnonzero(raw < 0x80)
    last = ends[n - 1]
    raw = raw[: last + 1]
    ends = ends[:n]
    starts = np.concatenate(([0], ends[:-1] + 1))
    out = np.zeros(n, dtype=np.uint64)
    width = ends - starts + 1
    payload = (raw & 0x7F).astype(np.uint64)
    for k in range(int(width.max())):
        sel = width > k
        out[sel] |= payload[starts[sel] + k] << np.uint64(7 * k)
    return out, off + int(last) + 1


def _encode_stream(vals: np.ndarray) -> bytes:
    """Full blocks FOR-packed + VByte tail."""
    nfull = (len(vals) // BLOCK) * BLOCK
    parts = [
        _pack_for(vals[i : i + BLOCK]) for i in range(0, nfull, BLOCK)
    ]
    parts.append(_vbyte_encode(vals[nfull:]))
    return b"".join(parts)


def _decode_stream(blob: bytes, n: int) -> np.ndarray:
    buf = memoryview(blob)
    out = np.empty(n, dtype=np.uint64)
    off = 0
    i = 0
    while i + BLOCK <= n:
        out[i : i + BLOCK], off = _unpack_for(buf, off)
        i += BLOCK
    if i < n:
        out[i:], _ = _vbyte_decode(buf, off, n - i)
    return out


# ---- cell codec -------------------------------------------------------------

def encode_cell(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    positions: list[np.ndarray] | None = None,
) -> dict:
    """Encode one (term, partition) posting cell — the per-cell reference
    encoder (the spec the batched :func:`encode_cells_columns` is gated
    against in tests; the index writers use the batched one).

    ``doc_ids`` must be sorted ascending; ``dls`` are the *decoded* quantized
    doc lengths (``NORM_TABLE[norm_byte]``) used only for block-max metadata.
    Returns a dict of plain-python/numpy values ready for an Arrow row.
    """
    n = len(doc_ids)
    doc_ids = np.asarray(doc_ids, dtype=np.uint64)
    tfs = np.asarray(tfs, dtype=np.uint64)
    deltas = np.diff(doc_ids, prepend=np.uint64(0))
    docs_blob = _encode_stream(deltas)
    freqs_blob = _encode_stream(tfs)

    nblocks = (n + BLOCK - 1) // BLOCK
    skip_last, bm_tf, bm_dl = [], [], []
    first_doc, docs_off, freqs_off = [], [], []
    dls = np.asarray(dls, dtype=np.float32)
    do = fo = 0
    for bi in range(nblocks):
        s = slice(bi * BLOCK, min(n, (bi + 1) * BLOCK))
        first_doc.append(int(doc_ids[s][0]))
        skip_last.append(int(doc_ids[s][-1]))
        bm_tf.append(int(tfs[s].max()))
        bm_dl.append(float(dls[s].min()))
        docs_off.append(do)
        freqs_off.append(fo)
        if (bi + 1) * BLOCK <= n:  # full FOR block: 1 width byte + payload
            do += 1 + (BLOCK * max(1, int(deltas[s].max(initial=0)).bit_length()) + 7) // 8
            fo += 1 + (BLOCK * max(1, int(tfs[s].max(initial=0)).bit_length()) + 7) // 8

    row = {
        "df": n,
        "ttf": int(tfs.sum()),
        "docs": docs_blob,
        "freqs": freqs_blob,
        "skip_first_doc": first_doc,
        "skip_last_doc": skip_last,
        "skip_docs_off": docs_off,
        "skip_freqs_off": freqs_off,
        "bm_max_tf": bm_tf,
        "bm_min_dl": bm_dl,
    }
    if positions is not None:
        if isinstance(positions, tuple):
            # vectorized form: (flat positions in doc order, per-doc counts)
            flat, counts = positions
            flat = np.asarray(flat, dtype=np.uint64)
            if len(flat):
                pstart = np.concatenate(([0], np.cumsum(np.asarray(counts, dtype=np.int64))[:-1]))
                deltas_all = flat.copy()
                deltas_all[1:] -= flat[:-1]
                deltas_all[pstart] = flat[pstart]
            else:
                deltas_all = np.empty(0, dtype=np.uint64)
        elif positions:
            deltas_all = np.concatenate(
                [
                    np.diff(np.asarray(p, dtype=np.uint64), prepend=np.uint64(0))
                    for p in positions
                ]
            )
        else:
            deltas_all = np.empty(0, dtype=np.uint64)
        row["positions"] = _vbyte_encode(deltas_all)
    return row


def _vbyte_lengths(v: np.ndarray) -> np.ndarray:
    # must match _vbyte_encode's group count exactly (full uint64 range);
    # early-exit once the array MAX fits k groups (typical delta/tf arrays
    # stop after 1-2 comparisons instead of 9)
    nb = np.ones(len(v), dtype=np.int64)
    vmax = int(v.max()) if len(v) else 0
    for k in range(1, 10):
        if vmax < (1 << (7 * k)):
            break
        nb += v >= (np.uint64(1) << np.uint64(7 * k))
    return nb


def _int32_offsets(offs: np.ndarray, column: str) -> np.ndarray:
    """int64 offsets -> the int32 offsets of ``pa.binary()`` / list columns.
    Offsets are non-decreasing, so the last one bounds them all: a partition
    whose ``column`` outgrows the int32 range (2 GiB of binary payload)
    raises instead of wrapping into a silently corrupt column."""
    offs = np.asarray(offs, dtype=np.int64)
    if len(offs) and int(offs[-1]) > np.iinfo(np.int32).max:
        raise ValueError(
            f"postings column {column!r}: offset {int(offs[-1])} exceeds the "
            "int32 range of one partition's column (2 GiB); lower rows_per_partition"
        )
    return offs.astype(np.int32)


def encode_cells_columns(
    starts: np.ndarray,
    docs: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    pos_vals: np.ndarray | None = None,
    pay_vals: np.ndarray | None = None,
) -> dict:
    """Vectorized encoding of MANY posting cells at once.

    ``starts``: cell boundaries into the flat arrays (``docs`` sorted asc
    within each cell); ``pos_vals``: all positions concatenated in (cell, doc)
    order — per-doc counts are the tfs; ``pay_vals``: float payloads aligned
    entry-for-entry with ``pos_vals`` (stored by :func:`float32_cells`).
    Cells with >= BLOCK docs get FOR blocks, packed for all of them in one
    width-grouped pass; the long tail of small cells (the vast majority
    under a Zipf vocabulary) is encoded with TWO vbyte passes total instead
    of per-cell Python, which is what makes the encode stage scale.  Output is byte-identical to per-cell
    :func:`encode_cell` (differential gates in tests/test_postings.py).
    Returns a dict of ready pyarrow arrays (one entry per cell, input order):
    df, ttf, skip_*, bm_*, docs, freqs, [positions], [payloads] — the same
    columns and types, with no rows, when there are no cells.
    """
    if len(starts) == 0:
        one = encode_cells_columns(
            [0], [0], [1], [0.0], None if pos_vals is None else [0],
            None if pay_vals is None else [0.0],
        )
        return {k: v.slice(0, 0) for k, v in one.items()}
    n = len(docs)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.append(starts[1:], n)
    lengths = ends - starts
    docs = np.asarray(docs, dtype=np.uint64)
    tfs_u = np.asarray(tfs, dtype=np.uint64)
    dls = np.asarray(dls, dtype=np.float32)

    # per-cell prepend-0 delta in one pass
    deltas = docs.copy()
    deltas[1:] -= docs[:-1]
    deltas[starts] = docs[starts]

    doc_bytes = _vbyte_lengths(deltas)
    tf_bytes = _vbyte_lengths(tfs_u)
    docs_buf = np.frombuffer(_vbyte_encode(deltas), dtype=np.uint8)
    tfs_buf = np.frombuffer(_vbyte_encode(tfs_u), dtype=np.uint8)
    doc_b_end = np.cumsum(doc_bytes)
    tf_b_end = np.cumsum(tf_bytes)

    # per-cell aggregates (empty-safe: starts always < n per construction)
    ttfs = np.add.reduceat(np.asarray(tfs, dtype=np.int64), starts)
    max_tfs = np.maximum.reduceat(np.asarray(tfs, dtype=np.int64), starts)
    min_dls = np.minimum.reduceat(dls, starts)
    first_docs = docs[starts].astype(np.int64)
    last_docs = docs[ends - 1].astype(np.int64)

    if pos_vals is not None:
        pos_vals = np.asarray(pos_vals, dtype=np.uint64)
        # per-doc prepend-0 delta: doc position-group boundaries = cumsum(tfs)
        pstart = np.concatenate(([0], np.cumsum(np.asarray(tfs, dtype=np.int64))[:-1]))
        pdeltas = pos_vals.copy()
        pdeltas[1:] -= pos_vals[:-1]
        pdeltas[pstart] = pos_vals[pstart]
        pos_buf = np.frombuffer(_vbyte_encode(pdeltas), dtype=np.uint8)
        pos_b_end = np.cumsum(_vbyte_lengths(pdeltas))
        # cell's position range = positions of its docs
        cell_p_start = pstart[starts]
        cell_p_end = np.append(cell_p_start[1:], len(pos_vals))

    import pyarrow as pa

    ncells = len(starts)
    docs_mv = docs_buf.tobytes()
    tfs_mv = tfs_buf.tobytes()
    pos_mv = pos_buf.tobytes() if pos_vals is not None else None

    # tail-cell byte ranges (vectorized): cell i's values are contiguous
    db1 = doc_b_end[ends - 1]
    db0 = np.where(starts > 0, doc_b_end[np.maximum(starts - 1, 0)], 0)
    tb1 = tf_b_end[ends - 1]
    tb0 = np.where(starts > 0, tf_b_end[np.maximum(starts - 1, 0)], 0)
    if pos_vals is not None:
        pb1 = np.where(cell_p_end > 0, pos_b_end[np.maximum(cell_p_end - 1, 0)], 0)

    def _binary_col(name: str, buf_bytes: bytes, cell_end_bytes: np.ndarray,
                    head_blobs: "dict[int, bytes] | None" = None) -> "pa.Array":
        """Zero-copy binary column: per-cell slices of *buf_bytes* are
        CONTIGUOUS (cell i ends where i+1 starts), so the column is just
        (offsets, buffer) — no per-cell Python slicing (the old
        list-of-bytes build was ~20% of this function).  ``head_blobs``
        splice replacement payloads for head cells as buffer segments."""
        if not head_blobs:
            offs = np.zeros(ncells + 1, dtype=np.int64)
            offs[1:] = cell_end_bytes
            return pa.Array.from_buffers(
                pa.binary(), ncells,
                [None, pa.py_buffer(_int32_offsets(offs, name).tobytes()),
                 pa.py_buffer(buf_bytes)],
            )
        new_lens = np.empty(ncells, dtype=np.int64)
        new_lens[0] = cell_end_bytes[0]
        new_lens[1:] = cell_end_bytes[1:] - cell_end_bytes[:-1]
        segs = []
        prev = 0
        for ci in sorted(head_blobs):
            a = int(cell_end_bytes[ci - 1]) if ci > 0 else 0
            b = int(cell_end_bytes[ci])
            if a > prev:
                segs.append(buf_bytes[prev:a])
            blob = head_blobs[ci]
            segs.append(blob)
            new_lens[ci] = len(blob)
            prev = b
        if prev < len(buf_bytes):
            segs.append(buf_bytes[prev:])
        offs = np.zeros(ncells + 1, dtype=np.int64)
        np.cumsum(new_lens, out=offs[1:])
        return pa.Array.from_buffers(
            pa.binary(), ncells,
            [None, pa.py_buffer(_int32_offsets(offs, name).tobytes()),
             pa.py_buffer(b"".join(segs))],
        )

    # skip/block-max list columns: tail cells have exactly one block
    one = np.arange(ncells + 1, dtype=np.int32)
    cols = {
        "df": pa.array(lengths, type=pa.int64()),
        "ttf": pa.array(ttfs, type=pa.int64()),
        "skip_first_doc": pa.ListArray.from_arrays(one, pa.array(first_docs, type=pa.int64())),
        "skip_last_doc": pa.ListArray.from_arrays(one, pa.array(last_docs, type=pa.int64())),
        "skip_docs_off": pa.ListArray.from_arrays(one, pa.array(np.zeros(ncells, dtype=np.int64))),
        "skip_freqs_off": pa.ListArray.from_arrays(one, pa.array(np.zeros(ncells, dtype=np.int64))),
        "bm_max_tf": pa.ListArray.from_arrays(one, pa.array(max_tfs, type=pa.int64())),
        "bm_min_dl": pa.ListArray.from_arrays(one, pa.array(min_dls, type=pa.float32())),
    }

    # head cells (>= BLOCK docs): rare — re-encode docs/freqs with the
    # FOR-block codec and patch the affected rows.  All full blocks of ALL
    # head cells are packed in ONE width-grouped pass (_pack_for_blocks);
    # vbyte tails and position blobs are byte-identical to the global vbyte
    # buffers, so they are SLICED from them, never re-encoded (positions
    # need no patch at all: encode_cell's per-doc prepend-0 deltas are
    # exactly the pdeltas already in pos_mv).  Differential gate:
    # test_postings.py::test_head_cells_batch_equals_encode_cell.
    head = np.flatnonzero(lengths >= BLOCK)
    patch: dict[int, dict] = {}
    if len(head):
        hs = starts[head]
        he = ends[head]
        hlen = lengths[head]
        nfull = (hlen // BLOCK).astype(np.int64)
        total_blocks = int(nfull.sum())
        blk_cell = np.repeat(np.arange(len(head)), nfull)
        within = np.arange(total_blocks, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(nfull)[:-1])), nfull
        )
        blk_s = hs[blk_cell] + within * BLOCK  # full-block starts, flat
        gather = blk_s[:, None] + np.arange(BLOCK, dtype=np.int64)
        d_w, d_out, d_offs = _pack_for_blocks(deltas[gather])
        t_w, t_out, t_offs = _pack_for_blocks(tfs_u[gather])
        cell_first_blk = np.concatenate(([0], np.cumsum(nfull)[:-1]))
        tfs_i = np.asarray(tfs, dtype=np.int64)
        d_sizes = 1 + 16 * d_w
        t_sizes = 1 + 16 * t_w

        # per-block metadata, vectorized across ALL head cells (incl. each
        # cell's partial tail block): within a cell, block k of nfull full
        # blocks is full iff k < nfull
        nblk = nfull + (hlen % BLOCK > 0)
        tot_all = int(nblk.sum())
        bnd = np.concatenate(([0], np.cumsum(nblk)))
        cell_of = np.repeat(np.arange(len(head)), nblk)
        w_in = np.arange(tot_all, dtype=np.int64) - np.repeat(bnd[:-1], nblk)
        bs_all = hs[cell_of] + w_in * BLOCK
        be_all = np.minimum(bs_all + BLOCK, he[cell_of])
        first_all = docs[bs_all].astype(np.int64)
        last_all = docs[be_all - 1].astype(np.int64)
        is_full = w_in < nfull[cell_of]
        maxtf_all = np.empty(tot_all, dtype=np.int64)
        mindl_all = np.empty(tot_all, dtype=np.float32)
        maxtf_all[is_full] = tfs_i[gather].max(axis=1)
        mindl_all[is_full] = dls[gather].min(axis=1)
        for k in np.flatnonzero(~is_full).tolist():  # <= one per head cell
            maxtf_all[k] = tfs_i[bs_all[k] : be_all[k]].max()
            mindl_all[k] = dls[bs_all[k] : be_all[k]].min()
        # per-block byte offsets within the cell: cumulative full-block
        # sizes before this block (the tail block maps to index nfull)
        cs_d = np.concatenate(([0], np.cumsum(d_sizes)))
        cs_t = np.concatenate(([0], np.cumsum(t_sizes)))
        idxf = cell_first_blk[cell_of] + np.minimum(w_in, nfull[cell_of])
        doff_all = cs_d[idxf] - cs_d[cell_first_blk[cell_of]]
        toff_all = cs_t[idxf] - cs_t[cell_first_blk[cell_of]]

        for j, ci in enumerate(head.tolist()):
            s, e = int(hs[j]), int(he[j])
            nf = int(nfull[j])
            b0 = int(cell_first_blk[j])
            # docs/freqs blobs: packed full blocks + SLICED vbyte tail (the
            # tail values' bytes inside the global buffer ARE the tail blob)
            tail_lo = s + nf * BLOCK
            d_tail = docs_mv[int(doc_b_end[tail_lo - 1]) : int(db1[ci])] if tail_lo < e else b""
            t_tail = tfs_mv[int(tf_b_end[tail_lo - 1]) : int(tb1[ci])] if tail_lo < e else b""
            a, b = int(bnd[j]), int(bnd[j + 1])
            patch[ci] = {
                "docs": d_out[int(d_offs[b0]) : int(d_offs[b0 + nf])].tobytes() + d_tail,
                "freqs": t_out[int(t_offs[b0]) : int(t_offs[b0 + nf])].tobytes() + t_tail,
                "skip_first_doc": first_all[a:b],
                "skip_last_doc": last_all[a:b],
                "bm_max_tf": maxtf_all[a:b],
                "bm_min_dl": mindl_all[a:b],
                "skip_docs_off": doff_all[a:b],
                "skip_freqs_off": toff_all[a:b],
            }
    if patch:
        # rebuild the list columns with per-cell block counts — vectorized:
        # every tail cell contributes one scalar; only the (rare) head cells
        # are written by a short loop over the patch dict
        counts = np.ones(ncells, dtype=np.int64)
        for ci, row in patch.items():
            counts[ci] = len(row["skip_first_doc"])
        offs = _int32_offsets(np.concatenate(([0], np.cumsum(counts))), "skip/block-max lists")

        def _patched(key, dtype, scalar_vals):
            np_dtype = np.float32 if dtype == pa.float32() else np.int64
            vals = np.zeros(int(offs[-1]), dtype=np_dtype)
            vals[offs[:-1]] = scalar_vals
            for ci, row in patch.items():
                vals[offs[ci] : offs[ci] + counts[ci]] = row[key]
            return pa.ListArray.from_arrays(pa.array(offs), pa.array(vals, type=dtype))

        cols["skip_first_doc"] = _patched("skip_first_doc", pa.int64(), first_docs)
        cols["skip_last_doc"] = _patched("skip_last_doc", pa.int64(), last_docs)
        cols["skip_docs_off"] = _patched("skip_docs_off", pa.int64(), np.zeros(ncells, dtype=np.int64))
        cols["skip_freqs_off"] = _patched("skip_freqs_off", pa.int64(), np.zeros(ncells, dtype=np.int64))
        cols["bm_max_tf"] = _patched("bm_max_tf", pa.int64(), max_tfs)
        cols["bm_min_dl"] = _patched("bm_min_dl", pa.float32(), min_dls)

    cols["docs"] = _binary_col(
        "docs", docs_mv, db1, {ci: r["docs"] for ci, r in patch.items()} if patch else None
    )
    cols["freqs"] = _binary_col(
        "freqs", tfs_mv, tb1, {ci: r["freqs"] for ci, r in patch.items()} if patch else None
    )
    if pos_vals is not None:
        # positions never need a head patch: the head path's per-doc
        # prepend-0 vbyte deltas are exactly the slices already in pos_mv
        cols["positions"] = _binary_col("positions", pos_mv, pb1)
    if pay_vals is not None:
        # a cell's payloads start where its positions do
        cols["payloads"] = float32_cells(cell_p_start, pay_vals)
    return cols


def decode_docs_freqs(docs_blob: bytes, freqs_blob: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """-> (doc_ids int64 asc, tfs int64)."""
    deltas = _decode_stream(docs_blob, n)
    doc_ids = np.cumsum(deltas, dtype=np.uint64)
    tfs = _decode_stream(freqs_blob, n)
    return doc_ids.astype(np.int64), tfs.astype(np.int64)


def decode_block(cell_row: dict, bi: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode only block *bi* of a cell (for block-max WAND skipping).

    ``cell_row`` needs keys df/docs/freqs/skip_first_doc/skip_docs_off/
    skip_freqs_off.  Returns (doc_ids int64 asc, tfs int64) for that block.
    """
    n = cell_row["df"]
    nblocks = (n + BLOCK - 1) // BLOCK
    assert bi < nblocks, (bi, nblocks)  # precondition, checked BEFORE decoding
    start = bi * BLOCK
    cnt = min(n, start + BLOCK) - start
    if cnt == BLOCK and start + BLOCK <= (n // BLOCK) * BLOCK:
        deltas, _ = _unpack_for(memoryview(cell_row["docs"]), cell_row["skip_docs_off"][bi])
        tfs, _ = _unpack_for(memoryview(cell_row["freqs"]), cell_row["skip_freqs_off"][bi])
    else:  # vbyte tail
        deltas, _ = _vbyte_decode(memoryview(cell_row["docs"]), cell_row["skip_docs_off"][bi], cnt)
        tfs, _ = _vbyte_decode(memoryview(cell_row["freqs"]), cell_row["skip_freqs_off"][bi], cnt)
    docs = np.cumsum(deltas, dtype=np.uint64)
    docs += np.uint64(cell_row["skip_first_doc"][bi]) - docs[0]
    return docs.astype(np.int64), tfs.astype(np.int64)


def decode_positions(pos_blob: bytes, tfs: np.ndarray) -> list[np.ndarray]:
    """-> per-doc position arrays (absolute positions)."""
    tfs = np.asarray(tfs, dtype=np.int64)
    total = int(tfs.sum())
    vals, _ = _vbyte_decode(memoryview(pos_blob), 0, total)
    out = []
    o = 0
    for tf in tfs.tolist():
        out.append(np.cumsum(vals[o : o + tf]).astype(np.int64))
        o += tf
    return out


def float32_cells(cell_val_starts: np.ndarray, vals: np.ndarray) -> "pa.Array":
    """Per-cell raw-float32 binary column (the payload byte[] analog of
    `Lucene41PostingsWriter`'s .pos-file payload stream): cell i owns
    ``vals[cell_val_starts[i] : cell_val_starts[i+1]]`` (last cell runs to
    the end), stored as little-endian IEEE-754 bytes."""
    import pyarrow as pa

    vals = np.ascontiguousarray(vals, dtype="<f4")
    byte_off = np.append(np.asarray(cell_val_starts, dtype=np.int64), len(vals)) * 4
    byte_off = _int32_offsets(byte_off, "payloads")
    return pa.BinaryArray.from_buffers(
        pa.binary(),
        len(byte_off) - 1,
        [None, pa.py_buffer(byte_off.tobytes()), pa.py_buffer(vals.tobytes())],
    )


def decode_payloads(pay_blob: bytes, tfs: np.ndarray) -> list[np.ndarray]:
    """-> per-doc payload arrays (float32), aligned with
    :func:`decode_positions` output."""
    tfs = np.asarray(tfs, dtype=np.int64)
    flat = np.frombuffer(pay_blob, dtype="<f4")
    ends = np.cumsum(tfs)
    starts = ends - tfs
    return [flat[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
