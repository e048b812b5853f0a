"""Differential gate for the vectorized tokenize fast path.

The fast path (`_vectorized_postings_columns`) must produce EXACTLY the table
the row-loop path produces — same per-doc first-occurrence term order, same
pre-stop positions (over-length/stop tokens consume a position), same dl/norm
— because the build's byte-identical determinism gate and every downstream
O/S gate sit on top of this output.  The row-loop path is forced here by
passing a dummy extra_text_field-free batch through the loop directly.
"""

import random

import numpy as np
import pyarrow as pa
import pytest

from lucene_solr_ray.stages.tokenize import (
    _vectorized_postings_columns,
    tokenize_batch,
)
from lucene_solr_ray.analysis.tokenizer import ENGLISH_STOP_WORDS


def _rowloop_reference(texts, analyzer, with_positions):
    """Aggregate postings_analyzer row by row — the pre-vectorization path."""
    from lucene_solr_ray.stages.tokenize import postings_analyzer

    fn = postings_analyzer(analyzer)
    terms, tfs, poss, dls = [], [], [], []
    for t in texts:
        per, n = fn(t) if t else ({}, 0)
        terms.append(list(per.keys()))
        tfs.append([len(v) for v in per.values()])
        poss.append(list(per.values()))
        dls.append(n)
    return terms, tfs, poss, dls


WORDS = (
    "the quick Brown fox data MODEL ray index Söze naïve Москва"
    " こんにちは 中文 한국어 3.14 1,000 can't O'Brien this of and"
).split()


def _random_docs(seed, n_docs):
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        k = rng.randint(0, 60)
        words = [rng.choice(WORDS) for _ in range(k)]
        if rng.random() < 0.2:
            words.insert(rng.randrange(len(words) + 1), "x" * 300)  # > maxTokenLength
        doc = " ".join(words)
        if rng.random() < 0.1:
            doc = ""
        docs.append(doc or None)
    return docs


@pytest.mark.parametrize("analyzer", ["standard", "simple"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorized_matches_rowloop(analyzer, seed):
    texts = _random_docs(seed, 120)
    terms_l, tfs_l, pos_l, dl = _vectorized_postings_columns(texts, analyzer, True)
    e_terms, e_tfs, e_pos, e_dl = _rowloop_reference(texts, analyzer, True)
    assert terms_l.to_pylist() == e_terms
    assert tfs_l.to_pylist() == e_tfs
    assert pos_l.to_pylist() == e_pos
    assert dl.tolist() == e_dl


def test_vectorized_edge_cases():
    texts = [
        None,
        "",
        "the of and to",               # all stopwords: dl=0, no terms
        "x" * 300,                      # single over-length token: dl=0
        "a b the b a c",               # gaps + repeats: positions skip stops
        "中文中文",                      # ideographic: one token per char
    ]
    terms_l, tfs_l, pos_l, dl = _vectorized_postings_columns(texts, "standard", True)
    e_terms, e_tfs, e_pos, e_dl = _rowloop_reference(texts, "standard", True)
    assert terms_l.to_pylist() == e_terms
    assert tfs_l.to_pylist() == e_tfs
    assert pos_l.to_pylist() == e_pos
    assert dl.tolist() == e_dl
    assert dl[2] == 0 and dl[3] == 0


def test_tokenize_batch_fast_path_table():
    """End-to-end through tokenize_batch (the fast path) vs hand aggregation."""
    texts = _random_docs(7, 50)
    batch = pa.table({"doc_id": pa.array(range(50), type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
    out = tokenize_batch(batch, with_positions=True, analyzer="standard")
    e_terms, e_tfs, e_pos, e_dl = _rowloop_reference(texts, "standard", True)
    assert out["terms"].to_pylist() == e_terms
    assert out["tfs"].to_pylist() == e_tfs
    assert out["positions"].to_pylist() == e_pos
    assert out["dl"].to_pylist() == e_dl
    # norm byte parity with the row-loop norm computation
    from lucene_solr_ray.smallfloat import encode_norm

    assert out["norm"].to_pylist() == list(encode_norm(np.array(e_dl)))


def test_no_positions_variant():
    texts = _random_docs(11, 40)
    terms_l, tfs_l, pos_l, dl = _vectorized_postings_columns(texts, "simple", False)
    assert pos_l is None
    e_terms, e_tfs, _, e_dl = _rowloop_reference(texts, "simple", False)
    assert terms_l.to_pylist() == e_terms
    assert tfs_l.to_pylist() == e_tfs
    assert dl.tolist() == e_dl


# ---- hypothesis: arbitrary unicode, fast path == row loop -------------------

from hypothesis import example, given, settings
from hypothesis import strategies as st

_any_texts = st.lists(
    st.one_of(st.none(), st.text(max_size=200)), min_size=1, max_size=30
)

# the Arrow chunk scan's hard cases, always run: mid-punct glue at chunk
# edges, mixed scripts, and an over-length token after a glue char
_GLUE_TEXTS = [
    "Hello, world! can't stop 3,000.5 foo.bar O'Brien's",
    "...,;'’· edge '' ’x’ x’ ’x .5 5. a·b a··b",
    "中文カタカナひらがな한국어 mixed漢words",
    "trailing. .leading mid.dle 1,2,3 a.b.c x" + "y" * 300,
]


@settings(max_examples=150, deadline=None)
@given(_any_texts)
@example(_GLUE_TEXTS)
def test_hypothesis_standard_parity(texts):
    terms_l, tfs_l, pos_l, dl = _vectorized_postings_columns(texts, "standard", True)
    e_terms, e_tfs, e_pos, e_dl = _rowloop_reference(texts, "standard", True)
    assert terms_l.to_pylist() == e_terms
    assert tfs_l.to_pylist() == e_tfs
    assert pos_l.to_pylist() == e_pos
    assert dl.tolist() == e_dl


@settings(max_examples=150, deadline=None)
@given(_any_texts)
@example(_GLUE_TEXTS)
def test_hypothesis_simple_parity(texts):
    terms_l, tfs_l, pos_l, dl = _vectorized_postings_columns(texts, "simple", True)
    e_terms, e_tfs, e_pos, e_dl = _rowloop_reference(texts, "simple", True)
    assert terms_l.to_pylist() == e_terms
    assert tfs_l.to_pylist() == e_tfs
    assert pos_l.to_pylist() == e_pos
    assert dl.tolist() == e_dl


# ---- Arrow re2 chunk scan == row-loop token stream (stream level) -----------

from lucene_solr_ray.stages.tokenize import _scan_stream_arrow


def _rowloop_stream(texts, analyzer):
    """The row loop's post-filter token stream: ``(terms, doc, pos, dl)`` in
    (doc, pos) order, rebuilt from the per-doc ``{term: [positions]}``."""
    from lucene_solr_ray.stages.tokenize import postings_analyzer

    fn = postings_analyzer(analyzer)
    terms, docs, poss, dls = [], [], [], []
    for d, t in enumerate(texts):
        per, n = fn(t) if t else ({}, 0)
        toks = sorted((p, term) for term, ps in per.items() for p in ps)
        terms.extend(term for _, term in toks)
        docs.extend([d] * len(toks))
        poss.extend(p for p, _ in toks)
        dls.append(n)
    return terms, docs, poss, dls


def _assert_arrow_stream_matches_rowloop(texts, analyzer):
    codes, dictionary, f_doc, f_pos, dl = _scan_stream_arrow(texts, analyzer)
    e_terms, e_doc, e_pos, e_dl = _rowloop_stream(texts, analyzer)
    a_terms = (
        dictionary.take(pa.array(codes)).to_pylist() if codes is not None else []
    )
    assert dl.tolist() == e_dl
    assert a_terms == e_terms
    assert f_doc.tolist() == e_doc
    assert f_pos.tolist() == e_pos


@settings(max_examples=150, deadline=None)
@given(_any_texts)
def test_hypothesis_arrow_scan_stream_parity(texts):
    """The Arrow scan must emit the row loop's post-filter token stream
    (term string, doc, pos) — the dictionary may order codes differently."""
    for analyzer in ("standard", "simple"):
        _assert_arrow_stream_matches_rowloop(texts, analyzer)


def test_arrow_scan_mixed_script_and_glue():
    _assert_arrow_stream_matches_rowloop(_GLUE_TEXTS, "standard")
