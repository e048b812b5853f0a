"""Payload queries (`lucene/queries/src/java/org/apache/lucene/queries/
payloads/PayloadScoreQuery.java`, `SpanPayloadCheckQuery.java`; Solr
`PayloadScoreQParserPlugin.java` / `PayloadCheckQParserPlugin.java`):
DelimitedPayloadTokenFilter indexing (`token|1.5`), float payloads stored per
position in the postings, and the four payload score functions."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

DOCS = [
    # (doc_id, text) — payloads after | ; tokens without | default to 1.0
    (0, "apple|2.0 banana|0.5 apple|4.0"),
    (1, "apple|1.5 cherry"),
    (2, "banana|3.0 apple"),  # apple carries default 1.0
    (3, "cherry|9.0 DATE|0.25"),
    (4, "apple|2.0 banana|7.0"),
]


class TestDelimitedPayloadChain:
    def _run(self, text):
        from lucene_solr_ray.stages.tokenize import whitespace_payload_postings

        return whitespace_payload_postings(text)

    def test_split_at_last_delimiter_and_positions(self):
        per, pay, n = self._run("a|1.5 b a|2.5")
        assert n == 3
        assert per == {"a": [0, 2], "b": [1]}
        assert pay == {"a": [1.5, 2.5], "b": [1.0]}

    def test_missing_delimiter_defaults_to_one(self):
        per, pay, _ = self._run("plain")
        assert pay == {"plain": [1.0]}

    def test_non_float_suffix_keeps_whole_token(self):
        # DelimitedPayloadTokenFilter's float encoder would throw; our chain
        # keeps the raw token with the default payload (documented)
        per, pay, _ = self._run("a|b")
        assert list(per) == ["a|b"] and pay["a|b"] == [1.0]

    def test_term_lowercased_payload_kept(self):
        per, pay, _ = self._run("DATE|0.25")
        assert list(per) == ["date"] and pay["date"] == [0.25]


def test_payload_codec_roundtrip():
    from lucene_solr_ray.index.postings import decode_payloads, float32_cells

    vals = np.array([1.5, 2.5, 7.0, 0.25, 9.0], dtype=np.float32)
    cells = float32_cells(np.array([0, 2, 3]), vals)  # cells of len 2,1,2
    assert len(cells) == 3
    got = decode_payloads(cells[1].as_py(), np.array([1]))
    assert got[0].tolist() == [7.0]
    got = decode_payloads(cells[2].as_py(), np.array([2]))
    assert got[0].tolist() == [0.25, 9.0]


def _build_payload_index(root, docs):
    from lucene_solr_ray.index.build import build_index

    src = str(root / "docs.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
                "text": pa.array([t for _, t in docs], type=pa.string()),
            }
        ),
        src,
    )
    ix = str(root / "ix")
    build_index(
        [src],
        ix,
        analyzer="whitespace_payload",
        extract_html=False,
        dedup_url=False,
        facet_fields=(),
        resume=False,
    )
    return ix


@pytest.fixture(scope="module")
def payload_index(ray_session, tmp_path_factory):
    return _build_payload_index(tmp_path_factory.mktemp("payix"), DOCS)


def _scored(ix, q):
    from lucene_solr_ray.index.reader import LocalIndex
    from lucene_solr_ray.query.ast import Evaluator

    docs, scores = Evaluator(LocalIndex(ix)).scored(q)
    return dict(zip(docs.tolist(), scores.tolist()))


class TestPayloadScore:
    def test_max(self, payload_index):
        from lucene_solr_ray.query.ast import PayloadScoreQ

        got = _scored(payload_index, PayloadScoreQ("apple", func="max"))
        assert got == {0: 4.0, 1: 1.5, 2: 1.0, 4: 2.0}

    def test_min_sum_average(self, payload_index):
        from lucene_solr_ray.query.ast import PayloadScoreQ

        assert _scored(payload_index, PayloadScoreQ("apple", func="min"))[0] == 2.0
        assert _scored(payload_index, PayloadScoreQ("apple", func="sum"))[0] == 6.0
        assert _scored(payload_index, PayloadScoreQ("apple", func="average"))[0] == 3.0

    def test_include_span_score_multiplies_bm25(self, payload_index):
        from lucene_solr_ray.query.ast import PayloadScoreQ, TermQ

        term = _scored(payload_index, TermQ("apple"))
        pay = _scored(payload_index, PayloadScoreQ("apple", func="max"))
        both = _scored(
            payload_index,
            PayloadScoreQ("apple", func="max", include_span_score=True),
        )
        for d in pay:
            assert both[d] == pytest.approx(
                np.float32(np.float32(term[d]) * np.float32(pay[d])), rel=0
            )

    def test_unknown_func_raises(self, payload_index):
        from lucene_solr_ray.query.ast import PayloadScoreQ

        with pytest.raises(ValueError, match="payload function"):
            _scored(payload_index, PayloadScoreQ("apple", func="median"))

    def test_plain_index_rejects_payload_query(self, ray_session):
        from lucene_solr_ray.pipelines.fulltext import documents_index
        from lucene_solr_ray.query.ast import PayloadScoreQ

        ix = documents_index("/root/testdata/sf0.001")
        with pytest.raises(ValueError, match="no payloads"):
            _scored(ix, PayloadScoreQ("join"))


class TestPayloadCheck:
    def test_adjacent_phrase_with_matching_payloads(self, payload_index):
        from lucene_solr_ray.query.ast import PayloadCheckQ

        # "apple banana" adjacent with payloads (2.0, 0.5): only doc 0
        got = _scored(payload_index, PayloadCheckQ(("apple", "banana"), (2.0, 0.5)))
        assert set(got) == {0} and got[0] == 1.0

    def test_payload_mismatch_excludes(self, payload_index):
        from lucene_solr_ray.query.ast import PayloadCheckQ

        # doc 4 has apple|2.0 banana|7.0 — wrong second payload
        got = _scored(payload_index, PayloadCheckQ(("apple", "banana"), (2.0, 7.0)))
        assert set(got) == {4}

    def test_single_term_check(self, payload_index):
        from lucene_solr_ray.query.ast import PayloadCheckQ

        got = _scored(payload_index, PayloadCheckQ(("apple",), (1.0,)))
        assert set(got) == {2}  # only the default-payload occurrence

    def test_order_matters(self, payload_index):
        from lucene_solr_ray.query.ast import PayloadCheckQ

        # banana->apple adjacency exists only in docs 0 (pos 1->2) and 2
        got = _scored(payload_index, PayloadCheckQ(("banana", "apple"), (3.0, 1.0)))
        assert set(got) == {2}


class TestParser:
    def setup_method(self):
        from lucene_solr_ray.query.parser import QueryParser

        self.P = QueryParser()

    def test_payload_score_params(self):
        from lucene_solr_ray.query.ast import PayloadScoreQ

        q = self.P.parse("{!payload_score f=text func=sum includeSpanScore=true}APPLE")
        assert q == PayloadScoreQ("apple", func="sum", include_span_score=True)

    def test_payload_score_defaults(self):
        from lucene_solr_ray.query.ast import PayloadScoreQ

        assert self.P.parse("{!payload_score}a") == PayloadScoreQ("a")

    def test_payload_check(self):
        from lucene_solr_ray.query.ast import PayloadCheckQ

        q = self.P.parse('{!payload_check payloads="2.0 0.5"}Apple Banana')
        assert q == PayloadCheckQ(("apple", "banana"), (2.0, 0.5))

    def test_payload_check_arity_mismatch_rejected(self):
        from lucene_solr_ray.query.parser import QueryParseError

        with pytest.raises(QueryParseError):
            self.P.parse('{!payload_check payloads="1.0"}a b')

    def test_payload_score_multi_term_rejected(self):
        from lucene_solr_ray.query.parser import QueryParseError

        with pytest.raises(QueryParseError):
            self.P.parse("{!payload_score}a b")


def test_expunged_payload_index_equals_fresh_build(payload_index, tmp_path):
    """Expunge keeps the payloads: payload_score / payload_check over an
    expunged index answer exactly as a fresh build over the surviving docs,
    and its postings carry the fresh build's schema."""
    import glob
    import os
    import shutil

    from lucene_solr_ray.index.deletes import apply_deletes, expunge_deletes
    from lucene_solr_ray.query.ast import PayloadCheckQ, PayloadScoreQ, TermQ

    dead = {1, 4}
    ix = str(tmp_path / "deleted")
    shutil.copytree(payload_index, ix)
    apply_deletes(ix, doc_ids=sorted(dead))
    out = str(tmp_path / "expunged")
    expunge_deletes(ix, out)
    fresh = _build_payload_index(tmp_path, [d for d in DOCS if d[0] not in dead])

    queries = [TermQ("apple")]
    queries += [PayloadScoreQ("apple", func=f) for f in ("max", "min", "sum", "average")]
    queries += [PayloadScoreQ("banana", func="max", include_span_score=True)]
    queries += [
        PayloadCheckQ(("apple", "banana"), (2.0, 0.5)),
        PayloadCheckQ(("banana", "apple"), (3.0, 1.0)),
        PayloadCheckQ(("apple",), (1.0,)),
    ]
    for q in queries:
        got = _scored(out, q)
        assert got == _scored(fresh, q), q
        assert not set(got) & dead, q
    assert _scored(out, PayloadScoreQ("apple", func="max")) == {0: 4.0, 2: 1.0}

    def schemas(d):
        files = glob.glob(os.path.join(d, "postings", "partition_id=*", "postings.parquet"))
        return [pq.read_schema(f) for f in files]

    want = schemas(fresh)[0]
    assert "payloads" in want.names
    assert all(s == want for s in schemas(out))
