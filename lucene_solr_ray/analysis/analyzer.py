"""StandardAnalyzer-equivalent analysis chain: tokenize → lowercase → stop.

Semantics mirror the reference:

- ``LowerCaseFilter`` (``lucene/core/src/java/org/apache/lucene/analysis/
  LowerCaseFilter.java:30-45``) lowercases per *code point* with Java's
  ``Character.toLowerCase(int)`` — the **simple** case mapping.  Python's
  ``str.lower()`` applies the full mapping (context-sensitive final sigma,
  U+0130 → "i"+combining dot); we correct the divergent code points.
- ``StopFilter`` (``analysis/StopFilter.java:31-110`` via
  ``FilteringTokenFilter.java:48-57``) drops stopwords and **accumulates the
  skipped positionIncrements into the next surviving token**.
- ``StandardAnalyzer()`` defaults to an **empty** stop set
  (``analysis/standard/StandardAnalyzer.java:49-51``); the classic English
  set lives in ``analysis/en/EnglishAnalyzer.java:41-52``.
- Field length for norms = number of tokens emitted by the full chain
  (``index/DefaultIndexingChain.java:775-892``, ``FieldInvertState``);
  ``numOverlap`` counts posIncr==0 tokens (never produced by this chain).
- Multi-valued fields are separated by ``positionIncrementGap`` (the
  analyzer's, default 0 for StandardAnalyzer; Solr text fields use 100) —
  ``DefaultIndexingChain.java:888-891``.

Segment builds analyze a whole Arrow column at once
(``StandardAnalyzer.analyze_column``).  ASCII docs with no joiner between
word chars take a column path: one byte table over the column's values
buffer lowercases ``A-Z`` and turns every non-word byte into a space,
``ascii_split_whitespace`` cuts the ``[0-9a-z_]`` runs, a run longer than
``max_token_length`` is cut into the tokenizer's windows (as
``StandardTokenizer`` cuts it, ``StandardTokenizer.java:154-165``),
``is_in`` drops stop words, and positions come from the list offsets.
Non-ASCII docs, docs with a joiner (``a.b``, ``3,4``, ``x'y``), and every
doc of an analyzer that overrides ``analyze_with_positions`` go through
the per-doc ``analyze_with_positions``, spliced back in doc order.
Texts become Arrow through ``text_array``, which replaces unpaired
surrogates with U+FFFD as ``UnicodeUtil.UTF16toUTF8`` does.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_solr_ray.analysis.tokenizer import (
    _JOINER_BETWEEN,
    DEFAULT_MAX_TOKEN_LENGTH,
    tokenize,
)

__all__ = [
    "StandardAnalyzer",
    "text_array",
    "KeywordAnalyzer",
    "ENGLISH_STOP_WORDS",
    "lowercase",
    "analyzer_from_spec",
]

#: ``EnglishAnalyzer.ENGLISH_STOP_WORDS_SET`` (reference
#: ``lucene/analysis/common/src/java/org/apache/lucene/analysis/en/
#: EnglishAnalyzer.java:41-52``) — the classic 33-word list.
ENGLISH_STOP_WORDS: FrozenSet[str] = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)

# Code points where Python's full lowercase mapping diverges from Java's
# simple mapping (Character.toLowerCase): U+0130 LATIN CAPITAL LETTER I WITH
# DOT ABOVE full-lowers to "i̇" but simple-lowers to "i".
_SIMPLE_LOWER_FIXUP = {0x130: "i"}


def lowercase(token: str) -> str:
    """Per-code-point simple lowercase, matching ``Character.toLowerCase``."""
    if token.isascii():
        return token.lower()
    out = token.lower()
    if len(out) != len(token):
        out = "".join(
            _SIMPLE_LOWER_FIXUP.get(ord(c), c.lower()) for c in token
        )
    # final-sigma: full mapping lowers trailing Σ to ς; simple mapping → σ
    return out.replace("ς", "σ")


def _utf16_to_utf8(text: str) -> str:
    """Pair surrogates and replace unpaired ones with U+FFFD."""
    return text.encode("utf-16-le", "surrogatepass").decode(
        "utf-16-le", "replace")


def text_array(texts) -> pa.Array:
    """Texts as one Arrow string array.

    Accepts an Arrow (chunked) array or a sequence of ``str``/``None``.
    Python strings may hold unpaired surrogates, which UTF-8 cannot
    encode; they become U+FFFD (surrogate pairs join into one code
    point), as Lucene's ``UnicodeUtil.UTF16toUTF8`` does."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if not isinstance(texts, pa.Array):
        texts = list(texts)
        try:
            texts = pa.array(texts, pa.string())
        except UnicodeEncodeError:
            texts = pa.array(
                [None if t is None else _utf16_to_utf8(t) for t in texts],
                pa.string(),
            )
    elif texts.type != pa.string():
        texts = texts.cast(pa.string())
    return texts


#: byte → byte: the ASCII tokenizer's word chars ``[0-9A-Za-z_]``
#: lowercased, every other byte a space.  A run of word chars is a token
#: when it holds an alphanumeric (``tokenizer._SIMPLE_RUN``).
_WORD_BYTES = bytes(
    c + 32 if 65 <= c <= 90
    else c if 48 <= c <= 57 or 97 <= c <= 122 or c == 95
    else 32
    for c in range(256))


def _word_runs(texts: pa.Array) -> pa.Array:
    """ASCII ``texts`` lowercased, each non-word byte a space."""
    _, offsets, data = texts.buffers()
    offsets = np.frombuffer(offsets, np.int32, count=len(texts) + 1,
                            offset=4 * texts.offset)
    start, end = int(offsets[0]), int(offsets[-1])
    values = b"" if data is None or end == start else \
        bytes(memoryview(data)[start:end]).translate(_WORD_BYTES)
    return pa.StringArray.from_buffers(
        len(texts), pa.py_buffer(offsets - start), pa.py_buffer(values))


class StandardAnalyzer:
    """tokenize → lowercase → stop-filter; per-field reusable, stateless.

    ``analyze(text)`` returns the surviving terms in order;
    ``analyze_with_positions(text)`` additionally returns absolute token
    positions (stop-filter gaps included) and the norm field length.
    """

    def __init__(
        self,
        stop_words: Iterable[str] = (),
        max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH,
        position_increment_gap: int = 0,
    ) -> None:
        self.stop_words = frozenset(stop_words)
        self.max_token_length = max_token_length
        self.position_increment_gap = position_increment_gap

    # -- single value ------------------------------------------------------
    def analyze(self, text: str) -> List[str]:
        # ASCII fast path: case never changes ASCII token boundaries, so
        # lowercasing the whole text first replaces per-token calls with
        # one C-level str.lower()
        if text.isascii():
            toks = tokenize(text.lower(), self.max_token_length)
            stop = self.stop_words
            if stop:
                return [t for t in toks if t not in stop]
            return toks
        toks = tokenize(text, self.max_token_length)
        stop = self.stop_words
        if stop:
            return [t for t in map(lowercase, toks) if t not in stop]
        return [lowercase(t) for t in toks]

    def analyze_with_positions(
        self, text: str
    ) -> Tuple[List[str], List[int], int]:
        """Returns (terms, positions, field_length).

        Positions are absolute (first token at 0); a dropped stopword leaves
        a gap, exactly as ``StopFilter`` accumulates skipped increments.
        field_length counts surviving tokens (Σ termFreq), the input to
        ``computeNorm`` (numOverlap == 0 for this chain).
        """
        stop = self.stop_words
        if text.isascii():
            toks = tokenize(text.lower(), self.max_token_length)
            if not stop:
                return toks, list(range(len(toks))), len(toks)
            terms = []
            positions = []
            for pos, t in enumerate(toks):
                if t not in stop:
                    terms.append(t)
                    positions.append(pos)
            return terms, positions, len(terms)
        toks = tokenize(text, self.max_token_length)
        terms = []
        positions = []
        pos = -1
        for t in toks:
            pos += 1
            lt = lowercase(t)
            if lt in stop:
                continue
            terms.append(lt)
            positions.append(pos)
        return terms, positions, len(terms)

    # -- a column of docs (the segment-build path) -------------------------
    def analyze_column(
        self, texts
    ) -> Tuple[pa.Array, np.ndarray, np.ndarray, np.ndarray]:
        """Analyze a column of docs; returns ``(tokens, token_docs,
        positions, field_lengths)``.

        ``tokens`` is the flat string column of every doc's terms in
        (doc, position) order, ``token_docs`` and ``positions`` give each
        token's doc ordinal and position, and ``field_lengths`` each doc's
        field length: per doc, what ``analyze_with_positions`` returns
        (a null doc analyzes as ``""``).  The module docstring says which
        docs take the column path."""
        texts = text_array(texts)
        if texts.null_count:
            texts = texts.fill_null("")
        n = len(texts)
        per_doc = np.ones(n, dtype=bool)
        parts = []  # (tokens, token_docs, positions), each in doc order
        field_lens = np.zeros(n, dtype=np.int64)
        if n and type(self).analyze_with_positions is \
                StandardAnalyzer.analyze_with_positions:
            per_doc = ~pc.and_not(
                pc.string_is_ascii(texts),
                pc.match_substring_regex(texts, _JOINER_BETWEEN.pattern),
            ).to_numpy(zero_copy_only=False)
            col_docs = np.flatnonzero(~per_doc)
            if len(col_docs):
                part = self._analyze_ascii_runs(
                    texts if len(col_docs) == n else texts.take(col_docs),
                    col_docs)
                if len(part[1]):
                    parts.append(part)
                    field_lens += np.bincount(part[1], minlength=n)
        slow = np.flatnonzero(per_doc)
        if len(slow):
            terms: List[str] = []
            positions: List[int] = []
            counts = np.zeros(len(slow), dtype=np.int64)
            for i, text in enumerate(texts.take(slow).to_pylist()):
                t, p, field_lens[slow[i]] = self.analyze_with_positions(text)
                terms.extend(t)
                positions.extend(p)
                counts[i] = len(t)
            if terms:
                parts.append((pa.array(terms, pa.string()),
                              np.repeat(slow, counts),
                              np.array(positions, dtype=np.int64)))
        if not parts:
            return (pa.array([], pa.string()), np.zeros(0, np.int64),
                    np.zeros(0, np.int64), field_lens)
        if len(parts) == 1:
            return (*parts[0], field_lens)
        # splice the two paths back into doc order
        docs = np.concatenate([p[1] for p in parts])
        order = np.argsort(docs, kind="stable")
        tokens = pa.concat_arrays([p[0] for p in parts]).take(order)
        positions = np.concatenate([p[2] for p in parts])[order]
        return tokens, docs[order], positions, field_lens

    def _analyze_ascii_runs(self, texts: pa.Array, docs: np.ndarray):
        """The column path over ASCII, joiner-free ``texts`` (doc ordinals
        ``docs``): ``(tokens, token_docs, positions)``."""
        runs = pc.ascii_split_whitespace(_word_runs(texts))
        tokens = runs.flatten()
        owner = pc.list_parent_indices(runs).to_numpy()
        # empty and underscore-only runs are no tokens
        keep = pc.binary_length(pc.ascii_ltrim(tokens, "_")).to_numpy() > 0
        if not keep.all():
            tokens = tokens.filter(pa.array(keep))
            owner = owner[keep]
        n_toks = np.bincount(owner, minlength=len(docs))
        long_runs = np.flatnonzero(
            pc.binary_length(tokens).to_numpy() > self.max_token_length)
        if len(long_runs):
            tokens, n_pieces = self._cut_long_runs(tokens, long_runs)
            np.add.at(n_toks, owner[long_runs], n_pieces - 1)
            owner = np.repeat(np.arange(len(docs)), n_toks)
        # position = index among the doc's tokens, taken before the stop
        # filter so that dropped stop words leave their gaps
        positions = np.arange(len(owner)) - (np.cumsum(n_toks) - n_toks)[owner]
        if self.stop_words:
            kept = pc.invert(pc.is_in(tokens, value_set=pa.array(
                sorted(self.stop_words), pa.string())))
            tokens = tokens.filter(kept)
            kept = kept.to_numpy(zero_copy_only=False)
            owner, positions = owner[kept], positions[kept]
        return tokens, docs[owner], positions

    def _cut_long_runs(self, tokens: pa.Array, long_runs: np.ndarray):
        """Replace each run at ``long_runs`` by the tokens the tokenizer
        cuts it into (``maxTokenLength`` windows), in run order; returns
        the new tokens and each long run's number of pieces."""
        pieces = [tokenize(run, self.max_token_length)
                  for run in tokens.take(long_runs).to_pylist()]
        chunks, prev = [], 0
        for run, p in zip(long_runs.tolist(), pieces):
            chunks += [tokens[prev:run], pa.array(p, pa.string())]
            prev = run + 1
        chunks.append(tokens[prev:])
        return (pa.concat_arrays(chunks),
                np.array([len(p) for p in pieces], dtype=np.int64))

    def analyze_with_offsets(self, text: str):
        """(terms, positions, starts, ends, field_length) — the
        OffsetAttribute path (start/end char offsets of surviving tokens,
        reference ``analysis/tokenattributes/OffsetAttribute.java``)."""
        from lucene_solr_ray.analysis.tokenizer import tokenize_with_offsets

        stop = self.stop_words
        if text.isascii():
            triples = tokenize_with_offsets(
                text.lower(), self.max_token_length
            )
            lowered = [t for t, _, _ in triples]
        else:
            triples = tokenize_with_offsets(text, self.max_token_length)
            lowered = [lowercase(t) for t, _, _ in triples]
        terms, positions, starts, ends = [], [], [], []
        for pos, (lt, trip) in enumerate(zip(lowered, triples)):
            if lt in stop:
                continue
            terms.append(lt)
            positions.append(pos)
            starts.append(trip[1])
            ends.append(trip[2])
        return terms, positions, starts, ends, len(terms)

    # -- multi-valued field ------------------------------------------------
    def analyze_multi(
        self, values: Sequence[str]
    ) -> Tuple[List[str], List[int], int]:
        """Analyze a multi-valued field with positionIncrementGap between
        values (``DefaultIndexingChain.java:888-891``)."""
        terms: List[str] = []
        positions: List[int] = []
        base = 0
        length = 0
        for i, v in enumerate(values):
            if i > 0:
                base += self.position_increment_gap
            t, p, fl = self.analyze_with_positions(v)
            terms.extend(t)
            positions.extend(pp + base for pp in p)
            base += (p[-1] + 1) if p else 0
            length += fl
        return terms, positions, length

    # -- term frequency vector (the indexing hot path) ---------------------
    def term_freqs(self, text: str) -> Dict[str, int]:
        """term → freq for one document field (order-insensitive)."""
        from collections import Counter

        return Counter(self.analyze(text))

    # -- query-time normalization ------------------------------------------
    def normalize(self, text: str) -> str:
        """Apply the chain's normalization filters WITHOUT tokenizing — the
        path multi-term queries (wildcard/fuzzy/range/prefix) take through
        ``Analyzer.normalize`` (reference ``analysis/Analyzer.java:256-280``,
        used by ``QueryParserBase.getWildcardQuery`` et al.)."""
        return lowercase(text)

    def spec(self) -> Dict:
        """JSON-serializable description, persisted in the index manifest so
        query-time code reconstructs per-field analyzers
        (``analyzer_from_spec``)."""
        return {
            "kind": "standard",
            "stop_words": sorted(self.stop_words),
            "max_token_length": self.max_token_length,
            "position_increment_gap": self.position_increment_gap,
        }


class KeywordAnalyzer(StandardAnalyzer):
    """The whole value is ONE atomic token — ``StringField`` /
    ``KeywordAnalyzer`` semantics (reference
    ``lucene/core/src/java/org/apache/lucene/analysis/standard/``'s
    untokenized sibling; ``document/StringField.java``).  ``lowercase=True``
    gives KeywordTokenizer+LowerCaseFilter (Solr's lowercase fieldType)."""

    def __init__(self, lowercase_value: bool = False) -> None:
        super().__init__()
        self.lowercase_value = lowercase_value

    def _one(self, text: str) -> List[str]:
        if not text:
            return []
        return [lowercase(text) if self.lowercase_value else text]

    def analyze(self, text: str) -> List[str]:
        return self._one(text)

    def analyze_with_positions(self, text: str):
        t = self._one(text)
        return t, [0] * len(t), len(t)

    def analyze_with_offsets(self, text: str):
        t = self._one(text)
        if not t:
            return [], [], [], [], 0
        return t, [0], [0], [len(text)], 1

    def normalize(self, text: str) -> str:
        # KeywordAnalyzer has no LowerCaseFilter unless configured
        return lowercase(text) if self.lowercase_value else text

    def spec(self) -> Dict:
        return {"kind": "keyword", "lowercase": self.lowercase_value}


class DelimitedPayloadAnalyzer(StandardAnalyzer):
    """Whitespace tokenizer + DelimitedPayloadTokenFilter with FloatEncoder
    (reference ``lucene/analysis/common/src/java/org/apache/lucene/
    analysis/payloads/DelimitedPayloadTokenFilter.java`` +
    ``FloatEncoder.java``): each whitespace token ``word|3.5`` splits into
    the lowercased term ``word`` carrying float payload 3.5; tokens
    without the delimiter carry payload 0.0.  Stop words drop AFTER the
    payload strip (leaving a position gap), matching a
    Whitespace→DelimitedPayload→LowerCase→Stop chain."""

    def __init__(
        self, delimiter: str = "|", stop_words: Iterable[str] = ()
    ) -> None:
        super().__init__(stop_words=stop_words)
        self.delimiter = delimiter

    def _parse(self, text: str):
        terms: List[str] = []
        payloads: List[float] = []
        positions: List[int] = []
        stop = self.stop_words
        for pos, tok in enumerate(text.split()):
            term, _, pay = tok.partition(self.delimiter)
            term = lowercase(term)
            if not term or term in stop:
                continue
            try:
                p = float(pay) if pay else 0.0
            except ValueError:
                p = 0.0
            terms.append(term)
            payloads.append(p)
            positions.append(pos)
        return terms, positions, payloads

    def analyze(self, text: str) -> List[str]:
        return self._parse(text)[0]

    def analyze_with_positions(self, text: str):
        terms, positions, _ = self._parse(text)
        return terms, positions, len(terms)

    def analyze_with_payloads(self, text: str):
        """(terms, positions, payloads, field_length) — the
        PayloadAttribute path."""
        terms, positions, payloads = self._parse(text)
        return terms, positions, payloads, len(terms)

    def spec(self) -> Dict:
        return {
            "kind": "delimited_payload",
            "delimiter": self.delimiter,
            "stop_words": sorted(self.stop_words),
        }


def analyzer_from_spec(spec: Dict) -> "Optional[StandardAnalyzer]":
    """Reconstruct an analyzer from its manifest ``spec()`` dict.

    ``custom`` chains (filters.CustomAnalyzer) are session objects and
    return None — pass the same chain explicitly at query time."""
    kind = spec.get("kind", "standard")
    if kind == "custom":
        return None
    if kind == "keyword":
        return KeywordAnalyzer(lowercase_value=bool(spec.get("lowercase")))
    if kind == "delimited_payload":
        return DelimitedPayloadAnalyzer(
            delimiter=spec.get("delimiter", "|"),
            stop_words=spec.get("stop_words", ()),
        )
    if kind == "english":
        from lucene_solr_ray.analysis.en import EnglishAnalyzer

        return EnglishAnalyzer(stop_words=spec.get("stop_words"))
    return StandardAnalyzer(
        stop_words=spec.get("stop_words", ()),
        max_token_length=spec.get(
            "max_token_length", DEFAULT_MAX_TOKEN_LENGTH
        ),
        position_increment_gap=spec.get("position_increment_gap", 0),
    )
