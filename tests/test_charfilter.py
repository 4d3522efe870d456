"""CharFilter layer (round 5): HTMLStripCharFilter + MappingCharFilter.

Vectors from the reference's ``HTMLStripCharFilterTest.java`` (strip
output + the doTestOffsets contract) and ``MappingCharFilter.java``'s
correction recipe (``BaseCharFilter.correct``: largest recorded output
offset ≤ off, plus its cumulative diff).
"""

import pytest

from lucene_solr_ray.analysis.charfilter import (
    HTMLStripCharFilter,
    MappingCharFilter,
)
from lucene_solr_ray.analysis.filters import CustomAnalyzer, LowerCaseFilter


STRIP_VECTORS = [
    # HTMLStripCharFilterTest.test()
    ('<div class="foo">this is some text</div> here is a '
     '<a href="#bar">link</a> and another '
     '<a href="http://lucene.apache.org/">link</a>. '
     'This is an entity: &amp; plus a &lt;.  Here is an &. '
     '<!-- is a comment -->',
     '\nthis is some text\n here is a link and another link. '
     'This is an entity: & plus a <.  Here is an &. '),
    # testEntities
    ('&nbsp; &lt;foo&gt; &Uuml;bermensch &#61; &Gamma; bar &#x393;',
     '\xa0 <foo> Übermensch = Γ bar Γ'),
    # testInlineTagsNoSpace
    ('one<sPAn class="invisible">two<sup>2<sup>e</sup></sup>.</SpaN>three',
     'onetwo2e.three'),
    # testBR
    ('one<BR />two<br>three', 'one\ntwo\nthree'),
    # testStyle / testScript bodies stripped to one newline
    ('one<style type="text/css">\n<!--\n@import url(\'x.css\');\n-->\n'
     '</style>two', 'one\ntwo'),
    ('one<script no-value-attr>callSomeMethod();</script>two',
     'one\ntwo'),
    # testComment (three dashes still a comment)
    ('<!--- three dashes, still a valid comment ---> ', ' '),
    # CDATA body kept
    ('a<![CDATA[&]]>b', 'a&b'),
]


@pytest.mark.parametrize("src,gold", STRIP_VECTORS)
def test_html_strip_vectors(src, gold):
    out, _ = HTMLStripCharFilter().apply(src)
    assert out == gold


def test_escaped_tags_pass_through():
    # testEscapeScript: escaped tag survives, its body still emits
    out, _ = HTMLStripCharFilter(escaped_tags=["script"]).apply(
        "one<script no-value-attr>callSomeMethod();</script>two"
    )
    assert out == "one<script no-value-attr>callSomeMethod();</script>two"


@pytest.mark.parametrize("src", [
    "hello <p> X<p> how <p>X are you",
    "X &amp; X &#40; X &lt; &gt; X",
])
def test_offsets_contract(src):
    # HTMLStripCharFilterTest.doTestOffsets: each output 'X' corrects to
    # the matching 'X' in the source
    out, omap = HTMLStripCharFilter().apply(src)
    str_off = -1
    for i, ch in enumerate(out):
        if ch == "X":
            str_off = src.index("X", str_off + 1)
            assert omap.correct(i) == str_off


def test_legal_offsets():
    # corrections never exceed the source length
    for src in ["hello world", "hello &#x world", "<p>a</p>"]:
        out, omap = HTMLStripCharFilter().apply(src)
        for i in range(len(out) + 1):
            assert omap.correct(i) <= len(src)


def test_mapping_char_filter_offsets():
    mc = MappingCharFilter({"&uuml;": "ü", "ss": "ß"})
    out, omap = mc.apply("s&uuml;ss")
    assert out == "süß"
    # s→0, ü covers &uuml; (1..7), ß covers ss (7..9)
    assert [omap.correct(i) for i in range(4)] == [0, 1, 7, 9]


def test_mapping_longer_replacement_maps_back():
    mc = MappingCharFilter({"x": "abc"})
    out, omap = mc.apply("zxz")
    assert out == "zabcz"
    # the extra output chars of a longer replacement map back to the
    # same input region (MappingCharFilter.java:154-159)
    assert omap.correct(0) == 0          # z
    assert omap.correct(4) == 2          # trailing z
    assert omap.correct(1) == 1          # a → x's offset


def test_custom_analyzer_offsets_through_charfilter():
    ana = CustomAnalyzer(
        filters=[LowerCaseFilter()],
        char_filters=[HTMLStripCharFilter()],
    )
    html = "<p>Bold <b>move</b> here</p>"
    terms, _, starts, ends, _ = ana.analyze_with_offsets(html)
    assert terms == ["bold", "move", "here"]
    # corrected spans point into the RAW html
    assert html[starts[0]:ends[0]] == "Bold"
    assert html[starts[1]:ends[1]].startswith("move")
    # reference contract: an end offset at a strip boundary extends past
    # the stripped region (BaseCharFilter.correct at the recorded offset)
    assert html[starts[1]:ends[1]] == "move</b>"
    assert html[starts[2]:ends[2]].startswith("here")


def test_charfilter_chain_composes():
    ana = CustomAnalyzer(
        char_filters=[
            HTMLStripCharFilter(),
            MappingCharFilter({"colour": "color"}),
        ],
    )
    html = "<p>colour me</p>"
    terms, _, starts, ends, _ = ana.analyze_with_offsets(html)
    assert terms == ["color", "me"]
    assert html[starts[0]:ends[0]].startswith("colour")


@pytest.mark.parametrize("src", [
    "a&#x110000;b", "a&#1114112;b",  # above U+10FFFF
    "a&#55296;b", "a&#xD800;b", "a&#xdfff;b",  # UTF-16 surrogates
])
def test_invalid_numeric_entity_passes_through(src):
    # not a character: the entity text stays verbatim, as an unknown
    # named entity does, instead of raising or emitting a lone surrogate
    out, _ = HTMLStripCharFilter().apply(src)
    assert out == src


def test_numeric_entities_always_encode():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    cps = st.integers(min_value=0, max_value=0xFFFFFF)
    ent = st.one_of(
        cps.filter(lambda c: c < 10**7).map(lambda c: f"&#{c};"),
        cps.map(lambda c: f"&#x{c:X};"),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(ent, st.text("ab &#;x", max_size=4)),
                    max_size=6).map("".join))
    def check(src):
        out, _ = HTMLStripCharFilter().apply(src)
        out.encode("utf-8")

    check()
