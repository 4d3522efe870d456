"""Passage highlighting — the unified-highlighter role, vectorizable.

The reference's highlighter module (``lucene/highlighter/`` — 11,421 LoC:
UnifiedHighlighter/FastVectorHighlighter/Highlighter) selects the best
passages for a query and marks the matched terms.  This engine implements
the passage-scoring core: a sliding token window scored by the summed idf
of the distinct query terms it covers (the UnifiedHighlighter passage
score shape), ties to the earliest window; matched terms wrapped in tags.

Runs as a plain function (driver-side, on the ≤k fetched hits) or inside
``map_batches`` over a results+text dataset (``highlight_batch``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from lucene_solr_ray.analysis.analyzer import StandardAnalyzer

__all__ = [
    "best_passage", "highlight", "highlight_batch",
    "PassageScorer", "UnifiedHighlighter", "unified_highlight_batch",
]


def best_passage(
    text: str,
    term_weights: Dict[str, float],
    window: int = 30,
    analyzer: Optional[StandardAnalyzer] = None,
) -> Tuple[int, int, float]:
    """(token_start, token_end, score) of the best window: max over
    windows of Σ weight(term) per *distinct* covered term."""
    analyzer = analyzer or StandardAnalyzer()
    # UNFILTERED token stream (stopwords kept) so indices line up with
    # tokenize_with_offsets in highlight(); stop terms simply never match
    # the weight dict (the analyzer never emits them as query terms)
    from lucene_solr_ray.analysis.analyzer import lowercase
    from lucene_solr_ray.analysis.tokenizer import tokenize

    toks = [lowercase(t) for t in tokenize(text, analyzer.max_token_length)]
    if not toks:
        return 0, 0, 0.0
    n = len(toks)
    w = min(window, n)
    best = (0, w, -1.0)
    # score windows at each match position (windows between matches tie)
    match_pos = [i for i, t in enumerate(toks) if t in term_weights]
    if not match_pos:
        return 0, w, 0.0
    for start in {max(0, p - w + 1) for p in match_pos} | set(match_pos):
        end = min(start + w, n)
        covered = {toks[i] for i in range(start, end) if toks[i] in term_weights}
        score = sum(term_weights[t] for t in covered)
        if score > best[2] or (score == best[2] and start < best[0]):
            best = (start, end, score)
    return best


def highlight(
    text: str,
    term_weights: Dict[str, float],
    window: int = 30,
    pre: str = "<em>",
    post: str = "</em>",
    analyzer: Optional[StandardAnalyzer] = None,
) -> str:
    """Best passage of ``text`` with matched terms wrapped."""
    analyzer = analyzer or StandardAnalyzer()
    from lucene_solr_ray.analysis.tokenizer import tokenize_with_offsets

    offs = tokenize_with_offsets(text)
    if not offs:
        return ""
    s, e, _ = best_passage(text, term_weights, window, analyzer)
    s = min(s, len(offs) - 1)
    e = min(e, len(offs))
    char_s = offs[s][1]
    char_e = offs[e - 1][2] if e > s else offs[s][2]
    out = []
    pos = char_s
    for tok, ts, te in offs[s:e]:
        from lucene_solr_ray.analysis.analyzer import lowercase

        if lowercase(tok) in term_weights:
            out.append(text[pos:ts])
            out.append(pre + text[ts:te] + post)
            pos = te
    out.append(text[pos:char_e])
    return "".join(out)


def highlight_batch(ds, text_col: str, term_weights: Dict[str, float],
                    out_col: str = "snippet", window: int = 30):
    """map_batches highlighting stage over fetched hits."""
    import pyarrow as pa

    def _hl(t: pa.Table) -> pa.Table:
        snips = [
            highlight(v or "", term_weights, window)
            for v in t.column(text_col).to_pylist()
        ]
        return t.append_column(out_col, pa.array(snips, pa.string()))

    return ds.map_batches(_hl, batch_format="pyarrow")


class PassageScorer:
    """Passage ranking formula (reference ``lucene/highlighter/src/java/
    org/apache/lucene/search/uhighlight/PassageScorer.java``): BM25-shaped
    term weight with document length approximating the collection, tf
    saturation per passage, and a position norm that prefers passages
    near the start of the document."""

    def __init__(self, k1: float = 1.2, b: float = 0.75,
                 pivot: float = 87.0) -> None:
        self.k1, self.b, self.pivot = k1, b, pivot

    def weight(self, content_length: int, total_term_freq: int) -> float:
        num_docs = 1.0 + content_length / self.pivot
        return (self.k1 + 1.0) * float(
            np.log(1.0 + (num_docs + 0.5) / (total_term_freq + 0.5))
        )

    def tf(self, freq: int, passage_len: int) -> float:
        norm = self.k1 * ((1.0 - self.b) + self.b * passage_len / self.pivot)
        return freq / (freq + norm)

    def norm(self, passage_start: int) -> float:
        return 1.0 + 1.0 / float(np.log(self.pivot + passage_start))


class Passage:
    """One selected passage: char span, score, and match char spans."""

    __slots__ = ("start", "end", "score", "matches")

    def __init__(self, start: int, end: int) -> None:
        self.start, self.end = start, end
        self.score = 0.0
        self.matches: List[Tuple[int, int]] = []


def _sentence_spans(text: str) -> List[Tuple[int, int]]:
    """Sentence boundaries in the ``BreakIterator.getSentenceInstance``
    role: a break after [.!?]+ (plus closing quotes/brackets) followed by
    whitespace, and after blank lines.  A dictionary-free approximation of
    the ICU default rules the reference uses."""
    import re

    spans, start = [], 0
    for m in re.finditer(r"[.!?]+[\"')\]]*\s+|\n{2,}", text):
        spans.append((start, m.end()))
        start = m.end()
    if start < len(text):
        spans.append((start, len(text)))
    return spans or [(0, 0)]


class UnifiedHighlighter:
    """Passage highlighting with the reference's UnifiedHighlighter
    semantics (``lucene/highlighter/.../uhighlight/UnifiedHighlighter.java``
    + ``FieldHighlighter.java`` + ``DefaultPassageFormatter.java``):

    - the text is divided into candidate passages by a pluggable break
      iterator — sentences by default, or ``fixed_tokens=N`` chunks (the
      reference's BreakIterator is equally pluggable);
    - each passage containing a match scores
      ``norm(start) * Σ_t weight(t) * tf(freq_t, passage_len)`` with the
      ``PassageScorer`` formula;
    - the top ``max_passages`` passages (score desc, start asc) are
      emitted in DOCUMENT order, joined with an ellipsis when
      non-contiguous, matches wrapped in ``pre``/``post`` tags;
    - with no match at all the first passage is returned untagged (the
      no-highlight summary path).
    """

    def __init__(
        self,
        analyzer: Optional[StandardAnalyzer] = None,
        max_passages: int = 1,
        pre: str = "<b>",
        post: str = "</b>",
        ellipsis: str = "... ",
        fixed_tokens: Optional[int] = None,
        scorer: Optional[PassageScorer] = None,
        max_length: int = 10_000,
    ) -> None:
        self.analyzer = analyzer or StandardAnalyzer()
        self.max_passages = max_passages
        self.pre, self.post, self.ellipsis = pre, post, ellipsis
        self.fixed_tokens = fixed_tokens
        self.scorer = scorer or PassageScorer()
        self.max_length = max_length

    def _breaks(self, text: str, offs) -> List[Tuple[int, int]]:
        if self.fixed_tokens is None:
            return _sentence_spans(text)
        n, w = len(offs), self.fixed_tokens
        spans = []
        for i in range(0, n, w):
            last = min(i + w, n) - 1
            spans.append((offs[i][1], offs[last][2]))
        return spans or [(0, 0)]

    def passages(
        self, text: str, terms: Dict[str, float] | Sequence[str]
    ) -> List[Passage]:
        """Top passages in document order (FieldHighlighter.highlight
        OffsetsEnum walk + priority queue)."""
        from lucene_solr_ray.analysis.analyzer import lowercase
        from lucene_solr_ray.analysis.tokenizer import tokenize_with_offsets

        text = text[: self.max_length]
        tset = set(terms)
        offs = tokenize_with_offsets(text)
        spans = self._breaks(text, offs)
        toks = [(lowercase(t), s, e) for t, s, e in offs]
        # per-term total freq in the content (the reference reads
        # totalTermFreq from the index; per-doc content is this engine's
        # scoring unit here)
        ttf: Dict[str, int] = {}
        for t, _, _ in toks:
            if t in tset:
                ttf[t] = ttf.get(t, 0) + 1
        if not ttf:
            p = Passage(*spans[0])
            return [p]
        weights = {
            t: self.scorer.weight(len(text), f) for t, f in ttf.items()
        }
        cands: List[Passage] = []
        ti = 0
        for ps, pe in spans:
            freqs: Dict[str, int] = {}
            matches: List[Tuple[int, int]] = []
            while ti < len(toks) and toks[ti][1] < pe:
                t, s, e = toks[ti]
                if s >= ps and t in tset:
                    freqs[t] = freqs.get(t, 0) + 1
                    matches.append((s, e))
                ti += 1
            if not freqs:
                continue
            p = Passage(ps, pe)
            plen = pe - ps
            p.score = self.scorer.norm(ps) * sum(
                weights[t] * self.scorer.tf(f, plen)
                for t, f in freqs.items()
            )
            p.matches = matches
            cands.append(p)
        cands.sort(key=lambda p: (-p.score, p.start))
        sel = sorted(cands[: self.max_passages], key=lambda p: p.start)
        return sel

    def format(self, text: str, passages: List[Passage]) -> str:
        """DefaultPassageFormatter.append: ellipsis between non-contiguous
        passages, overlapping matches merged, tags around matches."""
        out, pos = [], -1
        for p in passages:
            if pos >= 0 and p.start > pos:
                out.append(self.ellipsis)
            pos = p.start
            end = -1
            for s, e in p.matches:
                if s < end:  # overlapping match: extend
                    continue
                out.append(text[pos:s])
                out.append(self.pre + text[s:e] + self.post)
                pos, end = e, e
            out.append(text[pos:p.end])
            pos = p.end
        return "".join(out)

    def highlight(
        self, text: str, terms: Dict[str, float] | Sequence[str]
    ) -> str:
        text = text[: self.max_length]
        return self.format(text, self.passages(text, terms))


def unified_highlight_batch(
    ds, text_col: str, terms: Sequence[str], out_col: str = "snippet",
    **hl_kwargs,
):
    """map_batches UnifiedHighlighter stage: the highlighter (analyzer,
    scorer) is built once per actor, applied per batch."""
    import pyarrow as pa

    class _UH:
        def __init__(self) -> None:
            self.hl = UnifiedHighlighter(**hl_kwargs)

        def __call__(self, t: pa.Table) -> pa.Table:
            snips = [
                self.hl.highlight(v or "", terms)
                for v in t.column(text_col).to_pylist()
            ]
            return t.append_column(out_col, pa.array(snips, pa.string()))

    return ds.map_batches(_UH, batch_format="pyarrow", concurrency=(1, 8))


def highlight_from_index(
    index, doc_id: int, text: str, term_weights: Dict[str, float],
    window: int = 30, pre: str = "<em>", post: str = "</em>",
    readers: "Optional[Dict[str, object]]" = None,
) -> str:
    """Highlight using the INDEXED char offsets (offsets-enabled index,
    DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS) — no re-tokenization of the
    stored text, the FastVectorHighlighter idea (reference
    ``lucene/highlighter/.../vectorhighlight``): fetch each query term's
    (start, end) spans for the doc from its postings, pick the window with
    the max summed weight of distinct covered terms, wrap the spans."""
    from lucene_solr_ray.search.reader import SegmentReader

    spans = []  # (start, end, term)
    # pass a shared ``readers`` dict when highlighting many docs: a fresh
    # SegmentReader per call re-reads the segment's doc ids, term
    # dictionary and offsets column
    if readers is None:
        readers = {}
    for seg_dir in index.seg_dirs:
        reader = readers.get(seg_dir)
        if reader is None:
            reader = SegmentReader(seg_dir)
            readers[seg_dir] = reader
        idx = np.searchsorted(reader.doc_ids, doc_id)
        if idx >= reader.ndocs or reader.doc_ids[idx] != doc_id:
            continue
        for term in term_weights:
            hit = reader.offsets(term)
            if hit is None:
                continue
            ords, offfn = hit
            j = np.searchsorted(ords, idx)
            if j < len(ords) and ords[j] == idx:
                for s0, e0 in offfn(int(j)):
                    spans.append((int(s0), int(e0), term))
        break
    if not spans:
        return ""
    spans.sort()
    # best window: char window sized ~window tokens (approx 8 chars/token)
    char_w = window * 8
    best = (0.0, spans[0][0])
    for s0, _e, _t in spans:
        covered = {t for (a, b, t) in spans if s0 <= a and b <= s0 + char_w}
        score = sum(term_weights[t] for t in covered)
        if score > best[0]:
            best = (score, s0)
    w_start = best[1]
    w_end = min(len(text), w_start + char_w)
    out = []
    pos = w_start
    for a, b, _t in spans:
        if a < w_start or b > w_end:
            continue
        out.append(text[pos:a])
        out.append(pre + text[a:b] + post)
        pos = b
    out.append(text[pos:w_end])
    return "".join(out)
