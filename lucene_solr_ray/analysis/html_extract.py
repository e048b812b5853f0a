"""HTML -> (title, body text, meta tags) extraction.

Executable re-specification (NOT a code port) of the reference extractor
``lucene/benchmark/src/java/org/apache/lucene/benchmark/byTask/feeds/DemoHTMLParser.java:62-163``
(SAX state machine over NekoHTML) in Python over ``html.parser``:

* characters are appended to ``body`` only while inside ``<body>`` and not
  inside a ``<style>``/``<script>`` (SUPPRESS_ELEMENTS, :160-163);
* the END of any element in ENDLINE_ELEMENTS (:153-158) appends ``'\\n'``;
* ``<img alt="x">`` inside body appends ``[x]`` (:86-93);
* ``title`` = trimmed character data inside ``<head><title>`` (:143);
* ``<meta name|http-equiv=... content=...>`` inside head captured with
  lowercased key (:72-81);
* ``<frameset>`` raises (parser "does not support HTML framesets", :98-99).

Deviation from NekoHTML (documented): we do not replicate tag-soup repair
(auto-closing of unclosed ``<li>``/``<p>`` etc.).  Void elements
(``br``/``hr``/``img``/...) are synthesized as start+end so ``<br>`` still
emits the newline NekoHTML's balance-tags feature produces.  Fixture HTML is
well-formed so both walks agree (see FIXTURES.md).
"""

from __future__ import annotations

from html.parser import HTMLParser

__all__ = ["extract", "FramesetError", "ENDLINE_ELEMENTS", "SUPPRESS_ELEMENTS"]

# DemoHTMLParser.java:154-158
ENDLINE_ELEMENTS = frozenset(
    "p h1 h2 h3 h4 h5 h6 div ul ol dl pre hr blockquote address fieldset "
    "table form noscript li dt dd noframes br tr select option".split()
)
# DemoHTMLParser.java:161-163
SUPPRESS_ELEMENTS = frozenset(("style", "script"))

# HTML5 void elements: start tag implies an immediate end event (NekoHTML's
# balance-tags feature does the same), so </br>-less <br> still breaks lines.
_VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class FramesetError(ValueError):
    """Raised for <frameset> documents (rejected by the reference parser)."""


class _Extractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.in_body = 0
        self.in_head = 0
        self.in_title = 0
        self.suppressed = 0
        self._title: list[str] = []
        self._body: list[str] = []
        self.meta: dict[str, str] = {}

    # -- SAX-equivalent events ------------------------------------------------
    def _start(self, tag: str, attrs: dict[str, str | None]) -> None:
        if self.in_head > 0:
            if tag == "title":
                self.in_title += 1
            elif tag == "meta":
                name = attrs.get("name")
                if name is None:
                    name = attrs.get("http-equiv")
                val = attrs.get("content")
                if name is not None and val is not None:
                    self.meta[name.lower()] = val
        elif self.in_body > 0:
            if tag in SUPPRESS_ELEMENTS:
                self.suppressed += 1
            elif tag == "img":
                alt = attrs.get("alt")
                if alt is not None:
                    self._body.append("[" + alt + "]")
        elif tag == "body":
            self.in_body += 1
        elif tag == "head":
            self.in_head += 1
        elif tag == "frameset":
            raise FramesetError("This parser does not support HTML framesets.")

    def _end(self, tag: str) -> None:
        if self.in_body > 0:
            if tag == "body":
                self.in_body -= 1
            elif tag in ENDLINE_ELEMENTS:
                self._body.append("\n")
            elif tag in SUPPRESS_ELEMENTS:
                self.suppressed -= 1
        elif self.in_head > 0:
            if tag == "head":
                self.in_head -= 1
            elif self.in_title > 0 and tag == "title":
                self.in_title -= 1

    # -- html.parser plumbing -------------------------------------------------
    def handle_starttag(self, tag, attrs):
        self._start(tag, dict(attrs))
        if tag in _VOID_ELEMENTS:
            self._end(tag)

    def handle_startendtag(self, tag, attrs):
        self._start(tag, dict(attrs))
        self._end(tag)

    def handle_endtag(self, tag):
        if tag in _VOID_ELEMENTS:
            return  # synthesized at start already
        self._end(tag)

    def handle_data(self, data):
        if self.in_body > 0 and self.suppressed == 0:
            self._body.append(data)
        elif self.in_title > 0:
            self._title.append(data)


def extract_slow(html: str) -> tuple[str, str, dict[str, str]]:
    """The html.parser reference path (kept as the differential oracle and
    the fallback for markup outside the fast scanner's subset)."""
    p = _Extractor()
    p.feed(html)
    p.close()
    return "".join(p._title).strip(), "".join(p._body), p.meta


# ---- hand-rolled fast scanner (round-4 build-throughput lever) --------------
#
# html.parser's event loop costs ~0.14 ms per fixture page — half the
# extract+tokenize stage's per-doc ALU (ROADMAP round-4 queue).  The scanner
# below walks the byte string directly with two compiled regexes and inlined
# state transitions, and BAILS OUT (_Bail -> extract_slow) on any construct
# outside its well-formed subset, so output is byte-identical by
# construction-or-fallback; tests/test_fast_extract.py holds the
# differential gate.

import re as _re
from html import unescape as _unescape


class _Bail(Exception):
    """Markup outside the fast subset — redo the document with html.parser."""


# start tag: name, attr blob, optional self-closing slash.  The attr blob
# regex admits quoted values containing '>'; anything it can't consume
# cleanly up to '>' bails.
_START_RE = _re.compile(
    r"([a-zA-Z][-.a-zA-Z0-9:_]*)"
    r"((?:\s+[^\s/>=]+(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|[^\s>]*))?)*)"
    r"\s*(/?)>",
)
_ATTR_RE = _re.compile(
    r"\s+([^\s/>=]+)(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]*)))?"
)
_END_RE = _re.compile(r"([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
# attribute-less start tag (`<p>`, `<div>` — ~85% of start tags in web-ish
# markup): one cheap match, no attr-blob capture
_BARE_START_RE = _re.compile(r"([a-zA-Z][-.a-zA-Z0-9:_]*)>")
_CDATA_CLOSE = {
    "script": _re.compile(r"</\s*script\s*>", _re.IGNORECASE),
    "style": _re.compile(r"</\s*style\s*>", _re.IGNORECASE),
}


def _extract_fast(html: str) -> tuple[str, str, dict[str, str]]:
    in_body = in_head = in_title = 0
    # opens of script/style are consumed by the cdata skip, so this counter
    # only ever goes NEGATIVE — on a stray close tag — which (matching the
    # html.parser path's `suppressed == 0` check) suppresses body data
    suppressed = 0
    body: list[str] = []
    title: list[str] = []
    meta: dict[str, str] = {}
    find = html.find
    n = len(html)
    i = 0
    while i < n:
        lt = find("<", i)
        seg_end = n if lt < 0 else lt
        if seg_end > i:
            data = html[i:seg_end]
            if in_body > 0 and suppressed == 0:
                body.append(_unescape(data) if "&" in data else data)
            elif in_title > 0:
                title.append(_unescape(data) if "&" in data else data)
        if lt < 0:
            break
        i = lt
        c = html[lt + 1 : lt + 2]
        if c == "/":
            m = _END_RE.match(html, lt + 2)
            if m is None:
                raise _Bail
            tag = m.group(1).lower()
            i = m.end()
            if tag in _VOID_ELEMENTS:
                continue  # synthesized at start already (html.parser parity)
        elif c == "!":
            if html.startswith("<!--", lt):
                j = find("-->", lt + 4)
                if j < 0:
                    raise _Bail
                i = j + 3
            else:
                j = find(">", lt + 2)
                if j < 0:
                    raise _Bail
                i = j + 1
            continue
        elif c == "?":
            j = find(">", lt + 2)
            if j < 0:
                raise _Bail
            i = j + 1
            continue
        elif c and (c.isalpha()):
            m = _BARE_START_RE.match(html, lt + 1)
            if m is not None:
                tag = m.group(1).lower()
                blob = ""
                selfclose = False
            else:
                m = _START_RE.match(html, lt + 1)
                if m is None:
                    raise _Bail
                tag = m.group(1).lower()
                blob = m.group(2)
                selfclose = m.group(3) == "/"
            i = m.end()
            attrs: dict[str, str] | None = None
            # only <img alt> and <meta name/http-equiv/content> are ever
            # read by the state machine — skip attr parsing for all others
            if blob and (tag == "img" or tag == "meta"):
                attrs = {}
                for am in _ATTR_RE.finditer(blob):
                    v = am.group(2)
                    if v is None:
                        v = am.group(3)
                    if v is None:
                        v = am.group(4)
                    if v is not None and "&" in v:
                        v = _unescape(v)
                    attrs[am.group(1).lower()] = v
            # ---- inlined _Extractor._start ----
            if in_head > 0:
                if tag == "title":
                    in_title += 1
                elif tag == "meta" and attrs:
                    name = attrs.get("name")
                    if name is None:
                        name = attrs.get("http-equiv")
                    val = attrs.get("content")
                    if name is not None and val is not None:
                        meta[name.lower()] = val
            elif in_body > 0:
                if tag in SUPPRESS_ELEMENTS:
                    pass  # handled via cdata skip below
                elif tag == "img" and attrs:
                    alt = attrs.get("alt")
                    if alt is not None:
                        body.append("[" + alt + "]")
            elif tag == "body":
                in_body += 1
            elif tag == "head":
                in_head += 1
            elif tag == "frameset":
                raise FramesetError("This parser does not support HTML framesets.")
            ended = False
            if selfclose or tag in _VOID_ELEMENTS:
                ended = True  # synthesized end event
            elif tag in SUPPRESS_ELEMENTS:
                # html.parser CDATA mode: content up to the matching close
                # tag is raw data (suppressed/ignored by the state machine);
                # unmatched close -> data to EOF, no end event.  A negative
                # counter (stray close earlier) flips the html.parser path's
                # suppression accounting — out of the fast subset.
                if suppressed != 0:
                    raise _Bail
                mm = _CDATA_CLOSE[tag].search(html, i)
                if mm is None:
                    break
                i = mm.end()
                ended = True
            if ended:
                # ---- inlined _Extractor._end ----
                if in_body > 0:
                    if tag == "body":
                        in_body -= 1
                    elif tag in ENDLINE_ELEMENTS:
                        body.append("\n")
                elif in_head > 0:
                    if tag == "head":
                        in_head -= 1
                    elif in_title > 0 and tag == "title":
                        in_title -= 1
            continue
        else:
            raise _Bail
        # ---- end-tag event (shared by the `</` branch) ----
        if in_body > 0:
            if tag == "body":
                in_body -= 1
            elif tag in ENDLINE_ELEMENTS:
                body.append("\n")
            elif tag in SUPPRESS_ELEMENTS:
                suppressed -= 1  # stray close: html.parser parity
        elif in_head > 0:
            if tag == "head":
                in_head -= 1
            elif in_title > 0 and tag == "title":
                in_title -= 1
    return "".join(title).strip(), "".join(body), meta


# ---- template scanner (tier 0) ----------------------------------------------
#
# The event-loop scanner above still pays ~1 us of Python dispatch per tag
# event (~29 events/page on the fixture corpus).  The overwhelmingly common
# page shape is `<html><head>...</head><body>...</body></html>` with
# well-formed tags and no script/style/img — for THAT subset the document
# can be carved with ONE anchored regex and each section batch-tokenized
# with ONE C-level `re.split`, leaving a per-event Python loop of 3-4 ops.
# Anything outside the subset raises _Bail and falls to `_extract_fast`
# (then `extract_slow`), so the byte-identity contract is unchanged:
# identical-by-construction-or-fallback (differential gate in
# tests/test_fast_extract.py, fuzz included).

_ATTR_BLOB = r"((?:\s+[^\s/>=]+(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|[^\s>]*))?)*)"
# one pattern for BOTH start and end tags; the strict attr-blob shape (same
# as _START_RE) keeps quoted '>' inside values from closing the tag early
# and leaves malformed tags UNSPLIT (they stay in the text slices, where the
# '<' check bails)
_TAG_EVENT_RE = _re.compile(
    r"<(/?)([a-zA-Z][-.a-zA-Z0-9:_]*)" + _ATTR_BLOB + r"\s*(/?)>"
)
# whitespace-tolerant prologue for docs that are canonical but not literal
# (`\n<html> <head>`); the hot path uses plain str finds instead
_TMPL_OPEN_RE = _re.compile(r"\A\s*<html>\s*<head>")
# an END event for a void element is skipped by html.parser (synthesized at
# start), so only non-void ENDLINE ends emit the newline
_ENDLINE_END = ENDLINE_ELEMENTS - _VOID_ELEMENTS
# start tags needing non-default handling in the body loop
_TMPL_BODY_SPECIAL = frozenset(("script", "style", "img"))


def _attrs_from_blob(blob: str) -> dict[str, str | None]:
    """Attr dict from a strict attr blob (last duplicate wins, html.parser
    ``dict(attrs)`` parity), charrefs unescaped in values."""
    attrs: dict[str, str | None] = {}
    for am in _ATTR_RE.finditer(blob):
        v = am.group(2)
        if v is None:
            v = am.group(3)
        if v is None:
            v = am.group(4)
        if v is not None and "&" in v:
            v = _unescape(v)
        attrs[am.group(1).lower()] = v
    return attrs


def _extract_tmpl(html: str) -> tuple[str, str, dict[str, str]]:
    # structure located with C-level finds on the literal canonical shape
    # (attribute-less `<html><head>...</head><body>...</body></html>`);
    # attributed/uppercase structural tags bail to the event-loop scanner.
    # Whitespace is allowed around the structural tags (dropped data —
    # html.parser parity: data outside <body>/<title> is discarded).
    if html.startswith("<html><head>"):
        i = 12
    else:
        m = _TMPL_OPEN_RE.match(html)
        if m is None:
            raise _Bail
        i = m.end()
    h_end = html.find("</head>", i)
    if h_end < 0:
        raise _Bail
    head_inner = html[i:h_end]
    j = h_end + 7
    n = len(html)
    while j < n and html[j] in " \t\r\n":
        j += 1
    if not html.startswith("<body>", j):
        raise _Bail
    j += 6
    b_end = html.find("</body>", j)
    if b_end < 0:
        raise _Bail
    body_inner = html[j:b_end]
    if html[b_end + 7 :].strip() != "</html>":
        raise _Bail
    title: list[str] = []
    body: list[str] = []
    meta: dict[str, str] = {}

    # -- head: the machine only reacts to title/meta here ---------------------
    if "</head" in head_inner.lower():
        # a non-literal head close (`</head >`, `</HEAD>`) the anchored cut
        # missed — the machine would have left <head> earlier
        raise _Bail
    parts = _TAG_EVENT_RE.split(head_inner)
    txt = parts[0]
    if txt and "<" in txt:
        raise _Bail  # unparsed markup between events
    in_title = 0
    for k in range(1, len(parts), 5):
        tl = parts[k + 1].lower()
        if parts[k]:  # end tag
            if parts[k + 2]:
                raise _Bail  # attributes on an end tag: out of subset
            if tl == "title" and in_title > 0:
                in_title -= 1
        else:
            if tl == "script" or tl == "style":
                raise _Bail  # cdata content needs the event loop
            if tl == "title":
                in_title += 1
            elif tl == "meta":
                blob = parts[k + 2]
                if blob:
                    attrs = _attrs_from_blob(blob)
                    name = attrs.get("name")
                    if name is None:
                        name = attrs.get("http-equiv")
                    val = attrs.get("content")
                    if name is not None and val is not None:
                        meta[name.lower()] = val
            if (parts[k + 3] or tl in _VOID_ELEMENTS) and tl == "title" and in_title > 0:
                in_title -= 1  # synthesized end event
        txt = parts[k + 4]
        if txt:
            if "<" in txt:
                raise _Bail
            if in_title > 0:
                title.append(_unescape(txt) if "&" in txt else txt)

    # -- body: text routing + ENDLINE newlines --------------------------------
    if "</body" in body_inner.lower():
        raise _Bail  # non-literal body close before the anchored one
    parts = _TAG_EVENT_RE.split(body_inner)
    append = body.append
    txt = parts[0]
    if txt:
        if "<" in txt:
            raise _Bail
        append(_unescape(txt) if "&" in txt else txt)
    k = 1
    n_parts = len(parts)
    while k < n_parts:
        tl = parts[k + 1].lower()
        if parts[k]:  # end tag
            if parts[k + 2]:
                raise _Bail  # attributes on an end tag
            if tl in _ENDLINE_END:
                append("\n")
            elif tl == "script" or tl == "style":
                raise _Bail  # stray close flips suppression accounting
        elif tl in _TMPL_BODY_SPECIAL:
            if tl == "img":
                blob = parts[k + 2]
                if blob:
                    alt = _attrs_from_blob(blob).get("alt")
                    if alt is not None:
                        append("[" + alt + "]")
            else:
                # html.parser CDATA mode (script/style): everything to the
                # FIRST matching close tag is raw suppressed data (fake tags
                # inside are data too, so skipping their split events
                # matches).  A close the tokenizer could not split
                # (`</ script>`, `</script x>`, unterminated) would end
                # cdata at a different point than this skip — bail.
                if parts[k + 3]:
                    raise _Bail  # self-closing: html.parser skips cdata mode
                while True:
                    if "</" in parts[k + 4]:
                        raise _Bail  # unsplit close candidate in the cdata
                    k += 5
                    if k >= n_parts:
                        raise _Bail  # unclosed cdata: </body> cut unsound
                    if parts[k] and parts[k + 1].lower() == tl:
                        if parts[k + 2]:
                            raise _Bail  # close tag with attrs: html.parser
                        break  # treats it as data; event loop handles it
        elif (parts[k + 3] or tl in _VOID_ELEMENTS) and tl in ENDLINE_ELEMENTS:
            append("\n")  # synthesized end of a void/self-closed element
        txt = parts[k + 4]
        if txt:
            if "<" in txt:
                raise _Bail
            append(_unescape(txt) if "&" in txt else txt)
        k += 5
    return "".join(title).strip(), "".join(body), meta


def extract(html: str | bytes) -> tuple[str, str, dict[str, str]]:
    """Parse *html*; return ``(title, body, meta_tags)``.

    ``body`` is the exact per-url invariant text ("byte-identical extracted
    text per url"); ``title`` is trimmed (DemoHTMLParser.java:143).
    Raises :class:`FramesetError` for frameset documents.
    """
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8")
    try:
        return _extract_tmpl(html)
    except _Bail:
        pass
    try:
        return _extract_fast(html)
    except _Bail:
        pass
    return extract_slow(html)
