"""CharFilter layer: pre-tokenizer text transforms with offset correction.

Reference: ``lucene/analysis/common/src/java/org/apache/lucene/analysis/
charfilter/`` — ``BaseCharFilter.java`` (the offset-correction array:
``correct(off)`` finds the LARGEST recorded output offset ≤ off and adds
its cumulative diff), ``MappingCharFilter.java:142-160`` (corrections
recorded at the output position AFTER each replacement; longer
replacements map their extra chars back), and
``HTMLStripCharFilter.jflex`` (inline elements strip to nothing, every
other tag — and <script>/<style> with their content — becomes ``\\n``,
character entities decode; test vectors in
``HTMLStripCharFilterTest.java``).

A CharFilter here is a stateless factory: ``apply(text)`` returns the
transformed text plus an :class:`OffsetMap` whose ``correct(off)`` maps
output offsets back to ORIGINAL-text offsets, so highlighting on marked-up
corpora stays offset-exact.  ``CustomAnalyzer(char_filters=[...])`` wires
them before tokenization, exactly where ``Analyzer.initReader`` sits.
"""

from __future__ import annotations

import bisect
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "OffsetMap",
    "CharFilter",
    "MappingCharFilter",
    "HTMLStripCharFilter",
]


class OffsetMap:
    """``BaseCharFilter``'s offsets/diffs arrays: ``correct(off)`` = off +
    diff of the largest recorded output offset ≤ off."""

    __slots__ = ("offs", "diffs")

    def __init__(self):
        self.offs: List[int] = []
        self.diffs: List[int] = []

    def add(self, off: int, cumulative_diff: int) -> None:
        """``addOffCorrectMap``: monotonically non-decreasing offsets; a
        repeat of the last offset overwrites its diff."""
        if self.offs and off == self.offs[-1]:
            self.diffs[-1] = cumulative_diff
            return
        self.offs.append(off)
        self.diffs.append(cumulative_diff)

    def last_cumulative(self) -> int:
        return self.diffs[-1] if self.diffs else 0

    def correct(self, off: int) -> int:
        i = bisect.bisect_right(self.offs, off) - 1
        return off + (self.diffs[i] if i >= 0 else 0)


class CharFilter:
    """Base: ``apply(text) -> (transformed, OffsetMap)``."""

    def apply(self, text: str) -> Tuple[str, OffsetMap]:  # pragma: no cover
        raise NotImplementedError

    def _record(self, omap: OffsetMap, input_off_after: int,
                in_len: int, out_len: int) -> None:
        """The MappingCharFilter correction recipe for one replacement
        ending at input offset ``input_off_after`` (reference
        ``MappingCharFilter.java:142-160``)."""
        diff = in_len - out_len
        if diff == 0:
            return
        prev = omap.last_cumulative()
        if diff > 0:
            # replacement shorter: corrections start AFTER it
            omap.add(input_off_after - diff - prev, prev + diff)
        else:
            # replacement longer: extra output chars map back to the
            # same input offset
            output_start = input_off_after - prev
            for extra in range(-diff):
                omap.add(output_start + extra, prev - extra - 1)


class MappingCharFilter(CharFilter):
    """``MappingCharFilterFactory``: greedy longest-match string
    rewriting before tokenization, with exact offset correction."""

    def __init__(self, mappings: Dict[str, str]):
        if not mappings or any(not k for k in mappings):
            raise ValueError("mappings must have non-empty keys")
        self.mappings = dict(mappings)
        # longest alternatives first = greedy longest match, like the
        # reference's FST longest-arc matching
        self._rx = re.compile(
            "|".join(
                re.escape(k)
                for k in sorted(self.mappings, key=len, reverse=True)
            )
        )

    def apply(self, text: str) -> Tuple[str, OffsetMap]:
        omap = OffsetMap()
        out: List[str] = []
        pos = 0
        for m in self._rx.finditer(text):
            out.append(text[pos: m.start()])
            rep = self.mappings[m.group(0)]
            out.append(rep)
            self._record(omap, m.end(), m.end() - m.start(), len(rep))
            pos = m.end()
        out.append(text[pos:])
        return "".join(out), omap


#: HTML 4 inline elements — stripped with NO replacement; every other
#: tag becomes one "\n" (HTMLStripCharFilter.jflex InlineElment list)
_INLINE = {
    "a", "b", "i", "q", "s", "u", "abbr", "acronym", "basefont", "bdo",
    "big", "cite", "code", "dfn", "em", "font", "img", "input", "kbd",
    "label", "samp", "select", "small", "span", "strike", "strong",
    "sub", "sup", "textarea", "tt", "var",
}

_HTML_RX = re.compile(
    r"""(?sx)
    (?P<comment><!--.*?(?:-->|$))
  | (?P<cdata><!\[CDATA\[(?P<cdata_body>.*?)\]\]>)
  | (?P<script><script\b[^>]*>.*?(?:</script\s*>|$))
  | (?P<style><style\b[^>]*>.*?(?:</style\s*>|$))
  | (?P<tag></?\s*(?P<tag_name>[a-zA-Z][a-zA-Z0-9]*)\b[^>]*?/?\s*>)
  | (?P<decent>&\#(?P<dec>[0-9]{1,7});)
  | (?P<hexent>&\#[xX](?P<hex>[0-9a-fA-F]{1,6});)
  | (?P<nament>&(?P<name>[a-zA-Z][a-zA-Z0-9]{1,30});)
    """
)


def _code_point(cp: int) -> Optional[str]:
    """The character of a numeric entity, or None (pass through verbatim)
    when ``cp`` is not a Unicode scalar value: above U+10FFFF, or a
    UTF-16 surrogate that would leave the text unencodable."""
    if cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF:
        return None
    return chr(cp)


class HTMLStripCharFilter(CharFilter):
    """``HTMLStripCharFilterFactory`` — tags, comments, script/style
    bodies and character entities, with offset correction back into the
    raw markup.  ``escaped_tags`` pass through verbatim (the factory's
    ``escapedTags`` param)."""

    def __init__(self, escaped_tags: Optional[Sequence[str]] = None):
        self.escaped: Set[str] = {
            t.lower() for t in (escaped_tags or ())
        }

    def _entity(self, name: str) -> Optional[str]:
        import html.entities

        cp = html.entities.name2codepoint.get(name)
        return chr(cp) if cp is not None else None

    def apply(self, text: str) -> Tuple[str, OffsetMap]:
        omap = OffsetMap()
        out: List[str] = []
        pos = 0
        for m in _HTML_RX.finditer(text):
            rep: Optional[str]
            if m.lastgroup is None:
                continue
            g = m.lastindex
            if m.group("comment") is not None:
                rep = ""
            elif m.group("cdata") is not None:
                rep = m.group("cdata_body")
            elif m.group("script") is not None:
                rep = None if "script" in self.escaped else "\n"
            elif m.group("style") is not None:
                rep = None if "style" in self.escaped else "\n"
            elif m.group("tag") is not None:
                name = m.group("tag_name").lower()
                if name in self.escaped:
                    rep = None
                else:
                    rep = "" if name in _INLINE else "\n"
            elif m.group("decent") is not None:
                rep = _code_point(int(m.group("dec")))
            elif m.group("hexent") is not None:
                rep = _code_point(int(m.group("hex"), 16))
            else:
                rep = self._entity(m.group("name"))
            if rep is None:  # escaped/unknown: pass through verbatim
                continue
            out.append(text[pos: m.start()])
            out.append(rep)
            self._record(omap, m.end(), m.end() - m.start(), len(rep))
            pos = m.end()
        out.append(text[pos:])
        return "".join(out), omap
