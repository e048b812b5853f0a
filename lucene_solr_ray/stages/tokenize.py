"""Tokenize + norms stage, and the posting-cell explode stage.

Ray Data re-expression of the reference indexing chain
(`lucene/core/src/java/org/apache/lucene/index/DefaultIndexingChain.java:296-343`
in-RAM inversion; `BM25Similarity.java:135-140` norm computation): one
``map_batches`` pass produces per-doc term/tf/position lists plus
``dl``/``norm`` columns; a second vectorized pass explodes them into
per-(term, partition) posting *chunks* — the shuffle payload for the
``groupby(["term", "partition_id"])`` wide step.

Keying cells by (term, partition_id) — not term alone — is the skew design:
a Zipf-head term (stopword-scale df) never concentrates on a single reducer;
each cell is bounded by the partition's row count (SURVEY.md §4 "skew").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import pyarrow.compute as pc

from ..analysis.tokenizer import (
    ENGLISH_STOP_WORDS,
    MAX_TOKEN_LENGTH,
    _D,
    _HANG_C,
    _HIRA_C,
    _IDEO_C,
    _KATA_C,
    _L,
    _MID_C,
    _SCANNER_FLAT,
    analyze,
    simple_tokenize,
)
from ..smallfloat import encode_norm

_STOP_ARR = pa.array(sorted(ENGLISH_STOP_WORDS), type=pa.string())

# ---- Arrow-scan fast path (re2, zero per-token Python) ----------------------
# Split each doc on DEFINITE delimiters (chars that can appear in NO token of
# any _SCANNER alternative), trim the mid-punct glue chars from chunk edges
# (they can only appear INSIDE a _WORD, between alnum neighbours), and run the
# Python scanner only on the DICTIONARY-UNIQUE chunks that still contain
# anything beyond plain alnum.  Web text is Zipfian: almost every chunk is a
# plain word (PURE below, token == chunk), so per-batch Python work collapses
# from O(tokens) to O(unique impure chunks).  Exactness: no _SCANNER match can
# span a delimiter, and the scanner's 1-char lookarounds see the same
# neighbourhood inside a chunk as in the full text (the removed neighbours are
# never letters/digits), so per-chunk findall concatenated in order ==
# full-text findall (differential + hypothesis gates in
# tests/test_vectorized_tokenize.py).
_TOKEN_CHARS = f"{_L}{_D}_{_MID_C}{_IDEO_C}{_HIRA_C}{_KATA_C}{_HANG_C}"
_DELIM_RE = f"[^{_TOKEN_CHARS}]+"
_PURE_RE = f"^[{_L}{_D}_]+$"  # exactly one _WORD token: itself
_SIMPLE_DELIM_RE = "[^a-z0-9]+"


def _lower_or_empty(t):
    return t.lower() if t else ""


# separates field name from term in multi-field term keys; cannot occur in a
# token (the tokenizer only emits word characters)
FIELD_SEP = "\x1f"


def field_term_key(field: str, term: str) -> str:
    """Postings key for (field, term): the default text field is unprefixed;
    other analyzed fields use ``field\\x1fterm`` — one postings table models
    Lucene's per-field term spaces (`FieldInfos` / per-field postings)."""
    return term if field == "text" else f"{field}{FIELD_SEP}{term}"


def query_analyzer(analyzer: str):
    """-> ``fn(text) -> iterable[(term, pos)]`` for a named analysis chain —
    the ONE routing both the index build and query-time parsing use, so the
    two sides can never diverge.

    * ``standard`` — the StandardAnalyzer-equivalent chain;
    * ``simple``   — lowercase + ``[a-z0-9]+`` runs (DuckDB-oracle parity);
    * ``english``  — standard chain + ASCII folding + Porter stemming
      (``EnglishAnalyzer``'s stem step; its possessive/keyword filters are
      subsumed/not applicable);
    * ``cjk``      — CJKAnalyzer chain: width fold + character bigrams over
      consecutive CJK tokens (``analysis/cjk.py``).
    """
    if analyzer == "simple":
        return lambda text: ((t, p) for p, t in enumerate(simple_tokenize(text)))
    if analyzer == "standard":
        return analyze
    if analyzer == "english":
        from ..analysis.filters import ascii_fold, porter_stem

        def en(text):
            for term, pos in analyze(text):
                yield porter_stem(ascii_fold(term)), pos

        return en
    if analyzer == "cjk":
        # CJKAnalyzer chain: width fold + character bigrams over consecutive
        # CJK tokens (analysis/cjk.py; CJKAnalyzer.java:60-74)
        from ..analysis.cjk import cjk_analyze

        return cjk_analyze
    if analyzer.startswith("light_"):
        # light-stemmer chains for the Savoy family: light_de / light_fr /
        # light_es (standard chain + per-language light stemming)
        from ..analysis.filters import LIGHT_STEMMERS

        lang = analyzer[len("light_"):]
        stem = LIGHT_STEMMERS.get(lang)
        if stem is None:
            raise ValueError(analyzer)

        def chain(text):
            for term, pos in analyze(text):
                yield stem(term), pos

        return chain
    raise ValueError(analyzer)


def postings_analyzer(analyzer: str):
    """-> ``fn(text) -> ({term: [positions]}, emitted_count)`` — the
    build-side FUSED counterpart of :func:`query_analyzer` (identical term,
    position and dl output; the standard/simple chains skip the per-token
    generator entirely).  Query-time parsing keeps using query_analyzer, so
    the two sides still share one chain registry."""
    from ..analysis.tokenizer import simple_postings, standard_postings

    if analyzer == "standard":
        return standard_postings
    if analyzer == "simple":
        return simple_postings
    gen = query_analyzer(analyzer)

    def fn(text: str):
        per: dict[str, list[int]] = {}
        n = 0
        for term, pos in gen(text):
            n += 1
            lst = per.get(term)
            if lst is None:
                per[term] = [pos]
            else:
                lst.append(pos)
        return per, n

    return fn


def _flatten_list_column(col):
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col


def _scan_stream_arrow(texts: list, analyzer: str) -> tuple:
    """re2 chunk-split scan (see module constants above) -> the post-filter
    flat token stream ``(codes int64, dict StringArray, f_doc int32, f_pos
    int32, dl int64)`` (codes/dict are None when no token survives).  All
    stream-sized work is Arrow/numpy; the only Python loop is ``findall``
    over the DICTIONARY-UNIQUE impure chunks (vocab-scale, not
    token-scale)."""
    n = len(texts)
    if analyzer == "simple":
        # byte-parity with the row loop: Python str.lower on the whole doc
        # (C-level per doc), then a pure-Arrow split — every chunk IS a token
        col = pa.array(list(map(_lower_or_empty, texts)), type=pa.string())
        chunks = _flatten_list_column(pc.split_pattern_regex(col, _SIMPLE_DELIM_RE))
        flat = chunks.flatten()
        clens = np.asarray(chunks.value_lengths(), dtype=np.int64)
        chunk_doc = np.repeat(np.arange(n, dtype=np.int32), clens)
        mask_pa = pc.greater(pc.binary_length(flat), 0)
        mask = np.asarray(mask_pa)
        f_terms = flat.filter(mask_pa)
        f_doc = chunk_doc[mask]
        dl = np.bincount(f_doc, minlength=n).astype(np.int64) if len(f_doc) else np.zeros(n, np.int64)
        d_start = np.concatenate(([0], np.cumsum(dl, dtype=np.int64)[:-1]))
        f_pos = (
            np.arange(len(f_doc), dtype=np.int64) - np.repeat(d_start, dl)
        ).astype(np.int32)
        if len(f_terms) == 0:
            return None, None, f_doc, f_pos, dl
        enc = pc.dictionary_encode(f_terms)
        return np.asarray(enc.indices, dtype=np.int64), enc.dictionary, f_doc, f_pos, dl

    # ---- standard ----
    col = pc.fill_null(pa.array(texts, type=pa.string()), "")
    chunks = _flatten_list_column(pc.split_pattern_regex(col, _DELIM_RE))
    flat = chunks.flatten()
    clens = np.asarray(chunks.value_lengths(), dtype=np.int64)
    chunk_doc = np.repeat(np.arange(n, dtype=np.int32), clens)
    # edge mid-punct can never join a token (its alnum neighbour was removed
    # with the chunk boundary) — trimming turns "Hello," into a PURE chunk
    trimmed = pc.utf8_trim(flat, characters=_MID_C)
    mask_pa = pc.greater(pc.binary_length(trimmed), 0)
    mask = np.asarray(mask_pa)
    t_flat = trimmed.filter(mask_pa)
    chunk_doc = chunk_doc[mask]

    cenc = pc.dictionary_encode(t_flat)
    ccodes = np.asarray(cenc.indices, dtype=np.int64)
    uniq = cenc.dictionary
    n_u = len(uniq)
    if n_u == 0:
        dl = np.zeros(n, np.int64)
        return None, None, np.empty(0, np.int32), np.empty(0, np.int32), dl
    pure_pa = pc.match_substring_regex(uniq, _PURE_RE)
    pure = np.asarray(pure_pa)
    u_cnt = np.ones(n_u, dtype=np.int64)
    u_off = np.zeros(n_u, dtype=np.int64)
    pure_ids = np.flatnonzero(pure)
    imp_ids = np.flatnonzero(~pure)
    n_pure = len(pure_ids)
    u_off[pure_ids] = np.arange(n_pure, dtype=np.int64)
    # slot value arrays: pure tokens first (zero-copy filter), then the
    # scanner's tokens for each unique impure chunk, in unique order
    slot_parts = [uniq.filter(pure_pa)]
    if len(imp_ids):
        imp_tok_lists = list(
            map(_SCANNER_FLAT.findall, uniq.take(pa.array(imp_ids)).to_pylist())
        )
        imp_counts = np.fromiter(
            map(len, imp_tok_lists), dtype=np.int64, count=len(imp_ids)
        )
        u_cnt[imp_ids] = imp_counts
        u_off[imp_ids] = n_pure + np.concatenate(
            ([0], np.cumsum(imp_counts, dtype=np.int64)[:-1])
        )
        from itertools import chain as _chain

        slot_parts.append(
            pa.array(list(_chain.from_iterable(imp_tok_lists)), type=pa.string())
        )
    slot_tokens = pa.concat_arrays(
        [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in slot_parts]
    )

    # expand the chunk stream into the token stream (pure numpy)
    tok_per_chunk = u_cnt[ccodes]
    total = int(tok_per_chunk.sum())
    if total == 0:
        dl = np.zeros(n, np.int64)
        return None, None, np.empty(0, np.int32), np.empty(0, np.int32), dl
    c_start = np.concatenate(([0], np.cumsum(tok_per_chunk, dtype=np.int64)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(c_start, tok_per_chunk)
    gather = np.repeat(u_off[ccodes], tok_per_chunk) + within
    f_doc_all = np.repeat(chunk_doc, tok_per_chunk)
    tpd = np.bincount(f_doc_all, minlength=n).astype(np.int64)
    d_start = np.concatenate(([0], np.cumsum(tpd, dtype=np.int64)[:-1]))
    pos_all = (np.arange(total, dtype=np.int64) - np.repeat(d_start, tpd)).astype(
        np.int32
    )

    # vocab-sized normalization: lower/stop/maxlen + term codes per SLOT,
    # then O(1)-per-token numpy takes
    low_u = pc.utf8_lower(slot_tokens)
    keep_u = np.asarray(
        pc.and_(
            pc.less_equal(pc.utf8_length(slot_tokens), MAX_TOKEN_LENGTH),
            pc.invert(pc.is_in(low_u, value_set=_STOP_ARR)),
        )
    )
    tenc = pc.dictionary_encode(low_u)
    slot_code = np.asarray(tenc.indices, dtype=np.int64)

    keep = keep_u[gather]
    codes = slot_code[gather][keep]
    f_doc = f_doc_all[keep]
    f_pos = pos_all[keep]
    dl = np.bincount(f_doc, minlength=n).astype(np.int64) if len(f_doc) else np.zeros(n, np.int64)
    if len(codes) == 0:
        return None, None, f_doc, f_pos, dl
    return codes, tenc.dictionary, f_doc, f_pos, dl


def _vectorized_postings_columns(
    texts: list, analyzer: str, with_positions: bool
) -> tuple:
    """Whole-batch standard/simple analysis with no per-token Python.

    The scan front end (the Arrow re2 chunk scan,
    :func:`_scan_stream_arrow`) produces the post-filter flat (term-code,
    doc, pos) stream, and the grouping back end turns it into
    per-doc term/tf/position lists in three numpy passes.  Output is
    IDENTICAL to aggregating :func:`postings_analyzer` row by row (same
    per-doc first-occurrence term order, same pre-stop-removal positions, the
    over-length/stop position gaps of `StandardTokenizer.java:204-222` /
    StopFilter's enablePositionIncrements) — the byte-identical-artifacts
    determinism gate holds because nothing depends on batch boundaries.

    -> (terms ListArray, tfs ListArray, positions ListArray | None,
        dl int64 ndarray)
    """
    n = len(texts)
    codes, dict_arr, f_doc, f_pos, dl = _scan_stream_arrow(texts, analyzer)

    if codes is None:
        off0 = pa.array(np.zeros(n + 1, dtype=np.int32))
        terms_l = pa.ListArray.from_arrays(off0, pa.array([], type=pa.string()))
        tfs_l = pa.ListArray.from_arrays(off0, pa.array([], type=pa.int32()))
        pos_l = None
        if with_positions:
            inner = pa.ListArray.from_arrays(
                pa.array([0], type=pa.int32()), pa.array([], type=pa.int32())
            ).slice(0, 0)
            pos_l = pa.ListArray.from_arrays(off0, inner)
        return terms_l, tfs_l, pos_l, dl

    # one composite-key STABLE argsort == lexsort((f_pos, codes, f_doc)):
    # f_doc is ascending by construction and f_pos ascending within each doc,
    # so stability supplies the position ordering for free — one radix/merge
    # pass instead of three (measured 6.5x on the 1M-token bench batch,
    # order-identical).  No overflow: f_doc < 2^31 rows, codes < 2^31 terms.
    order = np.argsort(f_doc.astype(np.int64) * (len(dict_arr) + 1) + codes, kind="stable")
    s_doc, s_code, s_pos = f_doc[order], codes[order], f_pos[order]
    change = np.empty(len(order), dtype=bool)
    change[0] = True
    change[1:] = (s_doc[1:] != s_doc[:-1]) | (s_code[1:] != s_code[:-1])
    gstart = np.flatnonzero(change)
    g_len = np.diff(np.append(gstart, len(order)))
    # restore per-doc FIRST-OCCURRENCE term order (dict-insertion order of the
    # row-loop path): a group's first position is its minimum (pos ascending
    # within groups by the stable sort above); same composite-key trick
    h_pos = s_pos[gstart].astype(np.int64)
    g_order = np.argsort(
        s_doc[gstart].astype(np.int64) * (h_pos.max() + 2 if len(h_pos) else 1) + h_pos,
        kind="stable",
    )
    g_code2, g_len2, g_doc2 = s_code[gstart][g_order], g_len[g_order], s_doc[gstart][g_order]
    terms_vals = dict_arr.take(pa.array(g_code2))
    entries_per_doc = np.bincount(g_doc2, minlength=n)
    doc_off = pa.array(
        np.concatenate(([0], np.cumsum(entries_per_doc))).astype(np.int32)
    )
    terms_l = pa.ListArray.from_arrays(doc_off, terms_vals)
    tfs_l = pa.ListArray.from_arrays(doc_off, pa.array(g_len2.astype(np.int32)))
    pos_l = None
    if with_positions:
        new_off = np.concatenate(([0], np.cumsum(g_len2)))
        gather = np.repeat(gstart[g_order] - new_off[:-1], g_len2) + np.arange(
            int(g_len2.sum()), dtype=np.int64
        )
        inner = pa.ListArray.from_arrays(
            pa.array(new_off.astype(np.int32)), pa.array(s_pos[gather].astype(np.int32))
        )
        pos_l = pa.ListArray.from_arrays(doc_off, inner)
    return terms_l, tfs_l, pos_l, dl


def whitespace_payload_postings(text: str) -> tuple:
    """WhitespaceTokenizer + DelimitedPayloadTokenFilter chain
    (`lucene/analysis/common/src/java/org/apache/lucene/analysis/payloads/
    DelimitedPayloadTokenFilter.java` with the float encoder): whitespace
    tokens split at the LAST ``|``; the suffix parses as the position's
    float payload (tokens without a delimiter carry the default payload
    1.0); the term part is lowercased (the usual chain appends
    LowerCaseFilter).  -> ({term: [positions]}, {term: [payloads]}, n)."""
    per: dict[str, list[int]] = {}
    pay: dict[str, list[float]] = {}
    n = 0
    for raw in text.split():
        term, sep, p = raw.rpartition("|")
        if sep:
            try:
                payload = float(p)
            except ValueError:
                term, payload = raw, 1.0
        else:
            term, payload = raw, 1.0
        term = term.lower()
        if not term:
            continue
        lst = per.get(term)
        if lst is None:
            per[term] = [n]
            pay[term] = [payload]
        else:
            lst.append(n)
            pay[term].append(payload)
        n += 1
    return per, pay, n


def tokenize_payload_batch(batch: pa.Table) -> pa.Table:
    """Payload-indexing analog of :func:`tokenize_batch` for the
    ``whitespace_payload`` chain: adds terms/tfs/positions/**payloads**
    (+ dl/norm) columns; ``payloads`` is ``list<list<float32>>`` aligned
    entry-for-entry with ``positions``."""
    texts = batch.column("text").to_pylist()
    n_rows = batch.num_rows
    dls = np.empty(n_rows, dtype=np.int64)
    terms_flat: list[str] = []
    tfs_flat: list[int] = []
    pos_vals: list[int] = []
    pay_vals: list[float] = []
    entry_off: list[int] = [0]
    doc_off: list[int] = [0]
    for i in range(n_rows):
        text = texts[i]
        per, pay, n = whitespace_payload_postings(text) if text else ({}, {}, 0)
        dls[i] = n
        terms_flat.extend(per.keys())
        for t, pl in per.items():
            tfs_flat.append(len(pl))
            pos_vals.extend(pl)
            pay_vals.extend(pay[t])
            entry_off.append(len(pos_vals))
        doc_off.append(len(terms_flat))

    out = {name: batch.column(name) for name in batch.column_names}
    doc_off_arr = pa.array(doc_off, type=pa.int32())
    entry_off_arr = pa.array(entry_off, type=pa.int32())
    out["terms"] = pa.ListArray.from_arrays(doc_off_arr, pa.array(terms_flat, type=pa.string()))
    out["tfs"] = pa.ListArray.from_arrays(doc_off_arr, pa.array(tfs_flat, type=pa.int32()))
    out["positions"] = pa.ListArray.from_arrays(
        doc_off_arr,
        pa.ListArray.from_arrays(entry_off_arr, pa.array(pos_vals, type=pa.int32())),
    )
    out["payloads"] = pa.ListArray.from_arrays(
        doc_off_arr,
        pa.ListArray.from_arrays(entry_off_arr, pa.array(pay_vals, type=pa.float32())),
    )
    out["dl"] = pa.array(dls, type=pa.int64())
    out["norm"] = pa.array(encode_norm(dls), type=pa.uint8())
    return pa.table(out)


def tokenize_batch(
    batch: pa.Table,
    *,
    with_positions: bool = True,
    analyzer: str = "standard",
    extra_text_fields: tuple = (),
) -> pa.Table:
    """Per-doc analysis: adds terms/tfs[/positions] lists + dl + norm.

    ``analyzer``: "standard" = the StandardAnalyzer-equivalent chain;
    "simple" = lowercase + ``[a-z0-9]+`` runs (exactly DuckDB's
    ``regexp_split_to_array(lower(text),'[^a-z0-9]+')`` — used by the
    SQL-oracle-checked pipelines so tokenization matches on both sides).

    ``extra_text_fields``: additional analyzed fields (e.g. ``("title",)``)
    indexed into the SAME postings space with field-prefixed term keys and
    their own ``dl_<f>`` / ``norm_<f>`` length norms — per-field BM25 stays
    exact because statistics and norms are field-scoped.

    Null/missing text → empty token list, dl=0 (norm byte 255 = inf norm,
    matching Java boost/sqrt(0)=inf — such docs match nothing).
    """
    if analyzer == "whitespace_payload":
        if not with_positions or extra_text_fields:
            raise ValueError(
                "whitespace_payload requires with_positions=True and no extra fields"
            )
        return tokenize_payload_batch(batch)

    if analyzer in ("standard", "simple") and not extra_text_fields:
        # vectorized fast path (identical output to the row loop below)
        texts = batch.column("text").to_pylist()
        terms_l, tfs_l, pos_l, dl = _vectorized_postings_columns(
            texts, analyzer, with_positions
        )
        out = {name: batch.column(name) for name in batch.column_names}
        out["terms"] = terms_l
        out["tfs"] = tfs_l
        if with_positions:
            out["positions"] = pos_l
        out["dl"] = pa.array(dl, type=pa.int64())
        out["norm"] = pa.array(encode_norm(dl), type=pa.uint8())
        return pa.table(out)

    lang_route = None
    if analyzer == "by_lang":
        # LanguageIdentifierUpdateProcessor's field-routing shape: each doc's
        # lang column picks its chain (en -> Porter, de/fr/es -> the Savoy
        # light stemmers, ja/zh -> CJK bigrams, others -> the Standard
        # chain) — per-row dispatch
        lang_route = {
            "en": postings_analyzer("english"),
            "de": postings_analyzer("light_de"),
            "fr": postings_analyzer("light_fr"),
            "es": postings_analyzer("light_es"),
            "ja": postings_analyzer("cjk"),
            "zh": postings_analyzer("cjk"),
        }
        default_fn = postings_analyzer("standard")
        langs = batch.column("lang").to_pylist()
        tok_fn = None
    else:
        tok_fn = postings_analyzer(analyzer)

    n_rows = batch.num_rows
    field_texts = {"text": batch.column("text").to_pylist()}
    for f in extra_text_fields:
        field_texts[f] = batch.column(f).to_pylist()
    dls = {f: np.empty(n_rows, dtype=np.int64) for f in field_texts}

    # flat accumulators + offsets: the Arrow list columns are constructed
    # directly from these (ListArray.from_arrays), skipping the nested
    # Python-list inference path — the tokenize stage's hot allocation
    terms_flat: list[str] = []
    tfs_flat: list[int] = []
    pos_vals: list[int] = []
    entry_off: list[int] = [0]
    doc_off: list[int] = [0]

    items = list(field_texts.items())
    for i in range(n_rows):
        if lang_route is not None:
            tok_fn = lang_route.get(langs[i], default_fn)
        for f, texts in items:
            text = texts[i]
            if text:
                per, n = tok_fn(text)
            else:
                per, n = {}, 0
            dls[f][i] = n
            if f == "text":
                terms_flat.extend(per.keys())
            else:
                terms_flat.extend(f"{f}{FIELD_SEP}{t}" for t in per.keys())
            for pl in per.values():
                tfs_flat.append(len(pl))
                if with_positions:
                    pos_vals.extend(pl)
                    entry_off.append(len(pos_vals))
        doc_off.append(len(terms_flat))

    out = {name: batch.column(name) for name in batch.column_names}
    doc_off_arr = pa.array(doc_off, type=pa.int32())
    out["terms"] = pa.ListArray.from_arrays(doc_off_arr, pa.array(terms_flat, type=pa.string()))
    out["tfs"] = pa.ListArray.from_arrays(doc_off_arr, pa.array(tfs_flat, type=pa.int32()))
    if with_positions:
        inner = pa.ListArray.from_arrays(
            pa.array(entry_off, type=pa.int32()), pa.array(pos_vals, type=pa.int32())
        )
        out["positions"] = pa.ListArray.from_arrays(doc_off_arr, inner)
    out["dl"] = pa.array(dls["text"], type=pa.int64())
    out["norm"] = pa.array(encode_norm(dls["text"]), type=pa.uint8())
    for f in extra_text_fields:
        out[f"dl_{f}"] = pa.array(dls[f], type=pa.int64())
        out[f"norm_{f}"] = pa.array(encode_norm(dls[f]), type=pa.uint8())
    return pa.table(out)


def explode_to_cells(batch: pa.Table, *, with_positions: bool = True) -> pa.Table:
    """Per-batch pre-aggregation into posting chunks.

    Input: tokenized rows (doc_id, partition_id, terms, tfs[, positions],
    norm).  Output: one row per (term, partition_id) present in THIS batch:
    ``term, partition_id, docs:list<int64>, tfs:list<int32>,
    norms:list<uint8>[, positions:list<list<int32>>]`` with docs ascending.
    This is the combiner that keeps the groupby shuffle payload small
    (SURVEY.md §4; `FreqProxTermsWriterPerField.java` in-RAM hash analog).
    """
    import pyarrow.compute as pc

    terms_col = batch.column("terms")
    if isinstance(terms_col, pa.ChunkedArray):
        terms_col = terms_col.combine_chunks()
    flat_terms = terms_col.flatten()
    n_per_doc = np.asarray(terms_col.value_lengths(), dtype=np.int64)
    doc_ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
    parts = np.asarray(batch.column("partition_id"), dtype=np.int64)
    norms = np.asarray(batch.column("norm"), dtype=np.uint8)
    parent = np.repeat(np.arange(len(doc_ids)), n_per_doc)

    empty: dict = {
        "term": pa.array([], type=pa.string()),
        "partition_id": pa.array([], type=pa.int64()),
        "docs": pa.array([], type=pa.list_(pa.int64())),
        "tfs": pa.array([], type=pa.list_(pa.int32())),
        "norms": pa.array([], type=pa.list_(pa.uint8())),
    }
    if with_positions:
        empty["positions"] = pa.array([], type=pa.list_(pa.list_(pa.int32())))
    if len(flat_terms) == 0:
        return pa.table(empty)

    # integer term codes: grouping only needs equal terms adjacent, so the
    # (arbitrary but consistent) dictionary order is fine and ints sort fast
    dict_enc = pc.dictionary_encode(flat_terms)
    term_codes = np.asarray(dict_enc.indices, dtype=np.int64)
    tfs_col = batch.column("tfs")
    if isinstance(tfs_col, pa.ChunkedArray):
        tfs_col = tfs_col.combine_chunks()
    flat_tfs = np.asarray(tfs_col.flatten(), dtype=np.int64)

    p_docs = doc_ids[parent]
    p_parts = parts[parent]
    no_overflow = len(p_parts) == 0 or (
        len(dict_enc.dictionary) * (int(p_parts.max()) + 2) < (1 << 62)
    )
    if no_overflow and (len(doc_ids) < 2 or bool(np.all(doc_ids[1:] >= doc_ids[:-1]))):
        # batch rows are doc-ascending (the read order): a STABLE sort on the
        # (term, partition) composite key inherits the ascending-doc order
        # within each group — one pass instead of lexsort's three
        order = np.argsort(
            term_codes * (int(p_parts.max()) + 2 if len(p_parts) else 1) + p_parts,
            kind="stable",
        )
    else:
        order = np.lexsort((p_docs, p_parts, term_codes))
    s_code = term_codes[order]
    s_part = p_parts[order]

    change = np.empty(len(order), dtype=bool)
    change[0] = True
    change[1:] = (s_code[1:] != s_code[:-1]) | (s_part[1:] != s_part[:-1])
    starts = np.flatnonzero(change)
    offsets = pa.array(np.append(starts, len(order)).astype(np.int32))

    order_pa = pa.array(order)
    cols = {
        "term": dict_enc.dictionary.take(pa.array(s_code[starts])),
        "partition_id": pa.array(s_part[starts], type=pa.int64()),
        "docs": pa.ListArray.from_arrays(offsets, pa.array(p_docs[order], type=pa.int64())),
        "tfs": pa.ListArray.from_arrays(offsets, pa.array(flat_tfs[order], type=pa.int32())),
        "norms": pa.ListArray.from_arrays(offsets, pa.array(norms[parent][order], type=pa.uint8())),
    }
    if with_positions:
        pos_col = batch.column("positions")
        if isinstance(pos_col, pa.ChunkedArray):
            pos_col = pos_col.combine_chunks()
        pos_outer = pos_col.flatten()  # list<int32> per (doc, term) entry
        cols["positions"] = pa.ListArray.from_arrays(offsets, pos_outer.take(order_pa))
    return pa.table(cols)
