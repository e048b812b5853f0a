"""Seeded inputs and the oracle checks every answer is compared against.

Everything here is a pure function of ``(seed, corpus size)``: the page
corpus (``fixtures.write_pages_parquet``), the query stream
(``fixtures.make_query_set`` rendered as classic query strings) and the
tombstone draws.  Expected answers come from ``oracle.OracleIndex`` built over
the same seed's deduplicated rows; its hit lists are cached on disk by
(seed, corpus size, query-set size, source digest of the engine and of this
benchmark) because the oracle is the slowest thing a run does and never part
of a timed region.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_solr_ray.fixtures import make_query_set, query_to_ast
from lucene_solr_ray.index.searcher import _conjunction_eligible, _wand_eligible
from lucene_solr_ray.oracle import OracleIndex
from lucene_solr_ray.query.ast import Evaluator, top_k

FACET_LIMIT = 100
LONG_TAIL_FACET = "links_sim"


# ---------------------------------------------------------------- corpus ---


def read_rows(files: list[str]) -> pa.Table:
    cols = ["doc_id", "url", "warc_ts", "text", "host", "tld", "lang", LONG_TAIL_FACET]
    return pa.concat_tables(pq.read_table(f, columns=cols) for f in files)


def live_rows(table: pa.Table) -> list[dict]:
    """Rows that survive url dedup (keep the most recent ``warc_ts`` per url,
    ties to the larger doc id), sorted by doc id."""
    best: dict[str, tuple] = {}
    for r in table.to_pylist():
        key = (r["warc_ts"], r["doc_id"])
        if r["url"] not in best or key > best[r["url"]][0]:
            best[r["url"]] = (key, r)
    return sorted((r for _, r in best.values()), key=lambda r: r["doc_id"])


def input_bytes(files: list[str]) -> int:
    return sum(os.path.getsize(f) for f in files)


def index_bytes(index_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(index_dir) for f in fs
    )


def index_digest(index_dir: str) -> str:
    """Content digest of every index artifact.

    Ray Data names the files it writes with a per-write uuid, so data files
    are keyed by directory and content; ``_stage_*.json`` (wall-clock
    lineage records) and the manifest's ``lineage`` are excluded because
    they hold timings, not index content."""
    entries = []
    for d, _, fs in os.walk(index_dir):
        rel = os.path.relpath(d, index_dir)
        for f in fs:
            if f.startswith("_stage_"):
                continue
            path = os.path.join(d, f)
            if f == "manifest.json":
                with open(path) as fh:
                    m = json.load(fh)
                m.pop("lineage", None)
                blob = json.dumps(m, sort_keys=True).encode()
            else:
                with open(path, "rb") as fh:
                    blob = fh.read()
            name = f if not f.endswith(".parquet") or "_" not in f else "*.parquet"
            entries.append(f"{rel}/{name}:{hashlib.sha256(blob).hexdigest()}")
    return hashlib.sha256("\n".join(sorted(entries)).encode()).hexdigest()


# ----------------------------------------------------------- query stream ---


def query_string(q: dict) -> str:
    """Classic query-parser syntax for one ``make_query_set`` row."""
    t = q["terms"]
    return {
        "term": lambda: t[0],
        "and": lambda: " ".join("+" + x for x in t),
        "or": lambda: " ".join(t),
        "must_not": lambda: f"+{t[0]} -{t[1]}",
        "phrase": lambda: '"' + " ".join(t) + '"',
        "field": lambda: f"{q.get('field', 'host')}:{t[0]}",
    }[q["type"]]()


# the class shares make_query_set draws from (its thresholds 0.4/0.7/0.85/...)
CLASS_SHARES = {"term": 0.40, "and": 0.30, "or": 0.15, "must_not": 0.05, "phrase": 0.05, "field": 0.05}


def query_set(n: int, seed: int) -> list[dict]:
    """``n`` of the seed's ``make_query_set`` rows with exactly the fixture's
    class shares, in generation order, each with its query string ``qs``.

    Drawn freely, a 400-query set's class shares vary by a fifth from seed
    to seed, and the rare phrase and OR classes dominate its cost."""
    pool = make_query_set(4 * n, seed=seed)
    picked = []
    for cls, share in CLASS_SHARES.items():
        picked += [q for q in pool if q["type"] == cls][: round(share * n)]
    picked.sort(key=lambda q: q["qid"])
    for q in picked:
        q["qs"] = query_string(q)
    return picked


def engine_path(ast, facets: bool, deletes: bool) -> str:
    """The path ``SegmentSearcher.search`` takes for ``ast``, by the engine's
    own dispatch rules: facets and tombstones force the exhaustive
    evaluator; otherwise a conjunction of text terms takes the
    block-skipping intersection and a pure text-term disjunction WAND."""
    if facets or deletes:
        return "exhaustive"
    if _conjunction_eligible(ast) is not None:
        return "conjunction"
    return "wand" if _wand_eligible(ast) is not None else "exhaustive"


def query_terms(q: dict) -> list[str]:
    return [f"{q['field']}:{t}" if q["type"] == "field" else t for t in q["terms"]]


def repeat_term_share(issued: list[dict]) -> float:
    """Share of query terms, in issue order, already seen earlier in the run."""
    seen: set = set()
    rep = tot = 0
    for q in issued:
        for t in query_terms(q):
            rep += t in seen
            tot += 1
            seen.add(t)
    return rep / tot if tot else 0.0


def tombstone_draw(live_ids: np.ndarray, seed: int, commit_no: int, share: float) -> np.ndarray:
    """``share`` of the currently live ids, drawn from (seed, commit number)."""
    n = max(1, int(round(share * len(live_ids))))
    rng = np.random.default_rng([seed, commit_no])
    return np.sort(rng.choice(live_ids, size=n, replace=False))


# ----------------------------------------------------------------- oracle ---


def source_digest(dirs: list[str]) -> str:
    """Digest of the Python sources under ``dirs`` (the oracle cache key:
    a change to the engine or to this benchmark invalidates cached answers)."""
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(glob.glob(os.path.join(d, "**", "*.py"), recursive=True)):
            with open(p, "rb") as f:
                h.update(os.path.relpath(p, d).encode() + f.read())
    return h.hexdigest()[:16]


class Expected:
    """Oracle answers for one seed: per query the full scored hit list, so
    the answer under any tombstone set is a mask away (stale statistics
    leave surviving scores unchanged).  Facets come from
    ``OracleIndex.facet`` over the surviving hits."""

    def __init__(self, rows: list[dict], queries: list[dict], cache_path: str):
        self.rows_by_doc = {r["doc_id"]: r for r in rows}
        self.hits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if os.path.exists(cache_path):
            with np.load(cache_path) as z:
                for q in queries:
                    self.hits[q["qid"]] = (z[f"d{q['qid']}"], z[f"s{q['qid']}"])
            return
        ev = Evaluator(OracleIndex(rows))
        for q in queries:
            self.hits[q["qid"]] = ev.scored(query_to_ast(q))
        arrays = {}
        for qid, (d, s) in self.hits.items():
            arrays[f"d{qid}"], arrays[f"s{qid}"] = d, s
        tmp = f"{cache_path}.{os.getpid()}.tmp.npz"
        np.savez(tmp, **arrays)
        os.replace(tmp, cache_path)

    def facet(self, hit_docs: np.ndarray, field: str) -> list:
        """``OracleIndex.facet`` (mincount 1) over the rows of the hits only.
        With mincount 1 that is the whole-index answer: values no hit has
        drop out, and the UTF-8 order of the rest is unchanged."""
        view = SimpleNamespace(rows=[self.rows_by_doc[int(d)] for d in hit_docs])
        return OracleIndex.facet(view, hit_docs, field, limit=FACET_LIMIT, mincount=1)

    def answer(self, q: dict, deleted: np.ndarray, facet_fields: tuple) -> dict:
        docs, scores = self.hits[q["qid"]]
        if len(deleted) and len(docs):
            live = ~np.isin(docs, deleted)
            docs, scores = docs[live], scores[live]
        return {
            "topk": top_k(docs, scores, q["k"]),
            "total_hits": int(len(docs)),
            "facets": {f: self.facet(docs, f) for f in facet_fields},
        }


def mismatch(got: dict, want: dict) -> str | None:
    """Why an engine answer differs from the oracle's, or None."""
    g, w = got["topk"], want["topk"]
    if [d for _, d in g] != [d for _, d in w]:
        return "top-k doc ids"
    if any(np.float32(a) != np.float32(b) for (a, _), (b, _) in zip(g, w)):
        return "top-k scores"
    if got["total_hits"] >= 0 and got["total_hits"] != want["total_hits"]:
        return "total_hits"
    for f, items in want["facets"].items():
        if [tuple(x) for x in got["facets"].get(f, [])] != items:
            return f"facet {f}"
    return None
