"""Declarative analyzer assembly from Solr fieldType-style config.

The reference assembles analysis chains from ``<analyzer>`` XML /
managed-schema JSON naming ``solr.*Factory`` classes with string
attributes (``solr/core/src/java/org/apache/solr/schema/FieldTypePluginLoader
.java``; factory names from ``lucene/analysis/common/.../*Factory.java``).
This module lets a reference user port that config verbatim::

    a = custom_analyzer_from_config({
        "charFilters": [{"class": "solr.HTMLStripCharFilterFactory"}],
        "tokenizer": {"class": "solr.WhitespaceTokenizerFactory"},
        "filters": [
            {"class": "solr.LowerCaseFilterFactory"},
            {"class": "solr.StopFilterFactory", "words": "stop.txt"},
            {"class": "solr.SnowballPorterFilterFactory",
             "language": "English"},
        ],
    }, loader=read_conf_file)

File-valued attributes (``words``, ``synonyms``, ``mapping``,
``protected``, ``dictionary``, ``articles``) resolve through ``loader
(name) -> text`` (defaults to reading a filesystem path); inline lists
are accepted directly.  Class names match with or without the
``solr.``/``lucene.`` prefix and the ``Factory`` suffix,
case-insensitively.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from lucene_solr_ray.analysis import filters as F
from lucene_solr_ray.analysis import misc as M
from lucene_solr_ray.analysis import lang as L
from lucene_solr_ray.analysis import tokenizers as T
from lucene_solr_ray.analysis.charfilter import (
    HTMLStripCharFilter,
    MappingCharFilter,
)

__all__ = ["custom_analyzer_from_config", "index_config_from_schema"]


def _b(v, default=False) -> bool:
    if v is None:
        return default
    if isinstance(v, bool):
        return v
    return str(v).lower() in ("true", "1", "yes", "on")


def _i(v, default: int) -> int:
    return default if v is None else int(v)


def _norm(name: str) -> str:
    n = name.rsplit(".", 1)[-1].lower()
    for suf in ("factory",):
        if n.endswith(suf):
            n = n[: -len(suf)]
    return n


def _words(args, key, loader, snowball_key="format") -> frozenset:
    v = args.get(key)
    if v is None:
        return frozenset()
    if isinstance(v, (list, tuple, set, frozenset)):
        return frozenset(v)
    text = loader(v)
    return F.parse_wordlist(
        text, snowball=str(args.get(snowball_key, "")).lower() == "snowball"
    )


def _synonym_rules(args, loader) -> Dict[str, List[str]]:
    v = args.get("synonyms")
    if isinstance(v, dict):
        return v
    text = loader(v) if v else ""
    expand = _b(args.get("expand"), True)
    if str(args.get("format", "solr")).lower() == "wordnet":
        return F.parse_wordnet_synonyms(text, expand=expand)
    return F.parse_solr_synonyms(text, expand=expand)


def _default_loader(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


# -- builders: factory name → (args, loader) → instance ----------------------

_TOKENIZERS: Dict[str, Callable] = {
    "standardtokenizer": lambda a, ld: None,  # the built-in default
    "whitespacetokenizer": lambda a, ld: T.WhitespaceTokenizer(),
    "lettertokenizer": lambda a, ld: T.LetterTokenizer(),
    "lowercasetokenizer": lambda a, ld: T.LowerCaseTokenizer(),
    "keywordtokenizer": lambda a, ld: T.KeywordTokenizer(),
    "classictokenizer": lambda a, ld: T.ClassicTokenizer(),
    "pathhierarchytokenizer": lambda a, ld: T.PathHierarchyTokenizer(
        delimiter=a.get("delimiter", "/"),
        replacement=a.get("replace"), skip=_i(a.get("skip"), 0),
    ),
    "reversepathhierarchytokenizer": lambda a, ld: T.PathHierarchyTokenizer(
        delimiter=a.get("delimiter", "/"),
        replacement=a.get("replace"), skip=_i(a.get("skip"), 0),
        reverse=True,
    ),
    "patterntokenizer": lambda a, ld: T.PatternTokenizer(
        a["pattern"], group=_i(a.get("group"), -1),
    ),
    "ngramtokenizer": lambda a, ld: T.NGramTokenizer(
        _i(a.get("minGramSize"), 1), _i(a.get("maxGramSize"), 2),
    ),
    "edgengramtokenizer": lambda a, ld: T.EdgeNGramTokenizer(
        _i(a.get("minGramSize"), 1), _i(a.get("maxGramSize"), 1),
    ),
}

_CHARFILTERS: Dict[str, Callable] = {
    "htmlstripcharfilter": lambda a, ld: HTMLStripCharFilter(),
    "mappingcharfilter": lambda a, ld: MappingCharFilter(
        dict(F.parse_mapping_rules(ld(a["mapping"])))
        if isinstance(a.get("mapping"), str) else dict(a["mapping"])
    ),
}

_FILTERS: Dict[str, Callable] = {
    "lowercasefilter": lambda a, ld: F.LowerCaseFilter(),
    "uppercasefilter": lambda a, ld: F.UpperCaseFilter(),
    "stopfilter": lambda a, ld: F.StopFilter(_words(a, "words", ld)),
    "keepwordfilter": lambda a, ld: M.KeepWordFilter(
        _words(a, "words", ld)),
    "keywordmarkerfilter": lambda a, ld: F.KeywordMarkerFilter(
        _words(a, "protected", ld)),
    "lengthfilter": lambda a, ld: F.LengthFilter(
        _i(a.get("min"), 0), _i(a.get("max"), 1 << 30)),
    "trimfilter": lambda a, ld: F.TrimFilter(),
    "asciifoldingfilter": lambda a, ld: F.ASCIIFoldingFilter(),
    "porterstemfilter": lambda a, ld: F.PorterStemFilter(),
    "snowballporterfilter": lambda a, ld: __import__(
        "lucene_solr_ray.analysis.snowball", fromlist=["SnowballFilter"]
    ).SnowballFilter(a.get("language", "English")),
    "englishminimalstemfilter": lambda a, ld: F.EnglishMinimalStemFilter(),
    "truncatetokenfilter": lambda a, ld: F.TruncateFilter(
        _i(a.get("prefixLength"), 5)),
    "reversestringfilter": lambda a, ld: F.ReverseStringFilter(),
    "patternreplacefilter": lambda a, ld: F.PatternReplaceFilter(
        a["pattern"], a.get("replacement", "")),
    "patterncapturegroupfilter": lambda a, ld:
        M.PatternCaptureGroupTokenFilter(
            [a["pattern"]] if isinstance(a.get("pattern"), str)
            else list(a["pattern"]),
            preserve_original=_b(a.get("preserve_original"), True)),
    "shinglefilter": lambda a, ld: F.ShingleFilter(
        _i(a.get("minShingleSize"), 2), _i(a.get("maxShingleSize"), 2),
        output_unigrams=_b(a.get("outputUnigrams"), True)),
    "ngramfilter": lambda a, ld: F.NGramFilter(
        _i(a.get("minGramSize"), 1), _i(a.get("maxGramSize"), 2)),
    "edgengramfilter": lambda a, ld: F.EdgeNGramFilter(
        _i(a.get("minGramSize"), 1), _i(a.get("maxGramSize"), 8)),
    "synonymgraphfilter": lambda a, ld: F.SynonymGraphFilter(
        _synonym_rules(a, ld),
        keep_original=_b(a.get("keepOriginal"), True)),
    "flattengraphfilter": lambda a, ld: F.FlattenGraphFilter(),
    "removeduplicatestokenfilter": lambda a, ld:
        F.RemoveDuplicatesTokenFilter(),
    "commongramsfilter": lambda a, ld: M.CommonGramsFilter(
        _words(a, "words", ld)),
    "capitalizationfilter": lambda a, ld: M.CapitalizationFilter(),
    "classicfilter": lambda a, ld: M.ClassicFilter(),
    "elisionfilter": lambda a, ld: L.ElisionFilter(
        _words(a, "articles", ld) or L.FRENCH_ARTICLES),
    "limittokencountfilter": lambda a, ld: M.LimitTokenCountFilter(
        _i(a.get("maxTokenCount"), 1 << 30)),
    "limittokenoffsetfilter": lambda a, ld: M.LimitTokenOffsetFilter(
        _i(a.get("maxStartOffset"), 1 << 30)),
    "limittokenpositionfilter": lambda a, ld: M.LimitTokenPositionFilter(
        _i(a.get("maxTokenPosition"), 1 << 30)),
    "delimitedtermfrequencytokenfilter": lambda a, ld:
        M.DelimitedTermFrequencyTokenFilter(a.get("delimiter", "|")),
    "stemmeroverridefilter": lambda a, ld: F.StemmerOverrideFilter(
        a["dictionary"] if isinstance(a.get("dictionary"), dict)
        else dict(
            line.split("\t", 1) for line in ld(a["dictionary"]).splitlines()
            if line.strip() and not line.startswith("#")
        )),
    "dictionarycompoundwordtokenfilter": lambda a, ld:
        M.DictionaryCompoundWordTokenFilter(
            _words(a, "dictionary", ld),
            min_word_size=_i(a.get("minWordSize"), 5),
            min_subword_size=_i(a.get("minSubwordSize"), 2),
            max_subword_size=_i(a.get("maxSubwordSize"), 15),
            only_longest_match=_b(a.get("onlyLongestMatch"))),
    "germannormalizationfilter": lambda a, ld:
        L.GermanNormalizationFilter(),
    "germanlightstemfilter": lambda a, ld: L.GermanLightStemFilter(),
    "serbiannormalizationfilter": lambda a, ld:
        L.SerbianNormalizationFilter(),
    "frenchminimalstemfilter": lambda a, ld: L.FrenchMinimalStemFilter(),
    "russianlightstemfilter": lambda a, ld: L.RussianLightStemFilter(),
    "spanishlightstemfilter": lambda a, ld: L.SpanishLightStemFilter(),
    "greeklowercasefilter": lambda a, ld: L.GreekLowerCaseFilter(),
    "turkishlowercasefilter": lambda a, ld: M.TurkishLowerCaseFilter(),
    "scandinavianfoldingfilter": lambda a, ld:
        L.ScandinavianFoldingFilter(),
    "apostrophefilter": lambda a, ld: M.ApostropheFilter(),
    "decimaldigitfilter": lambda a, ld: M.DecimalDigitFilter(),
    "arabicnormalizationfilter": lambda a, ld:
        L.ArabicNormalizationFilter(),
    "persiannormalizationfilter": lambda a, ld:
        L.PersianNormalizationFilter(),
    "hyphenatedwordsfilter": lambda a, ld: M.HyphenatedWordsFilter(),
    "fingerprintfilter": lambda a, ld: M.FingerprintFilter(
        _i(a.get("maxOutputTokenSize"), 1024),
        a.get("separator", " ")),
    "keywordrepeatfilter": lambda a, ld: F.KeywordRepeatFilter(),
    "codepointcountfilter": lambda a, ld: M.CodepointCountFilter(
        _i(a.get("min"), 0), _i(a.get("max"), 1 << 30)),
    "phoneticfilter": lambda a, ld: __import__(
        "lucene_solr_ray.analysis.phonetic", fromlist=["PhoneticFilter"]
    ).PhoneticFilter(
        encoder=a.get("encoder", "Metaphone"),
        inject=_b(a.get("inject"), True)),
    "cjkwidthfilter": lambda a, ld: __import__(
        "lucene_solr_ray.analysis.cjk", fromlist=["CJKWidthFilter"]
    ).CJKWidthFilter(),
    "cjkbigramfilter": lambda a, ld: __import__(
        "lucene_solr_ray.analysis.cjk", fromlist=["CJKBigramFilter"]
    ).CJKBigramFilter(
        han=_b(a.get("han"), True), hiragana=_b(a.get("hiragana"), True),
        katakana=_b(a.get("katakana"), True),
        hangul=_b(a.get("hangul"), True),
        output_unigrams=_b(a.get("outputUnigrams"))),
    "worddelimitergraphfilter": lambda a, ld:
        M.WordDelimiterGraphFilter(),
    "minhashfilter": lambda a, ld: __import__(
        "lucene_solr_ray.analysis.minhash", fromlist=["MinHashFilter"]
    ).MinHashFilter(
        hash_count=_i(a.get("hashCount"), 1),
        bucket_count=_i(a.get("bucketCount"), 512),
        hash_set_size=_i(a.get("hashSetSize"), 1),
        with_rotation=(
            _b(a.get("withRotation")) if "withRotation" in a else None)),
}


def _build(registry: Dict[str, Callable], spec: Dict, loader, kind: str):
    name = _norm(spec.get("class", ""))
    fn = registry.get(name)
    if fn is None:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown {kind} {spec.get('class')!r}; "
                       f"known: {known}")
    return fn(spec, loader)


def custom_analyzer_from_config(
    config: Dict, loader: Optional[Callable[[str], str]] = None,
    max_token_length: Optional[int] = None,
):
    """Assemble a :class:`~lucene_solr_ray.analysis.filters
    .CustomAnalyzer` from Solr fieldType-style config (see module
    docstring)."""
    loader = loader or _default_loader
    tok = None
    if config.get("tokenizer"):
        tok = _build(_TOKENIZERS, config["tokenizer"], loader, "tokenizer")
    char_filters = [
        _build(_CHARFILTERS, c, loader, "charFilter")
        for c in config.get("charFilters", [])
    ]
    filt = [
        _build(_FILTERS, f, loader, "filter")
        for f in config.get("filters", [])
    ]
    return F.CustomAnalyzer(
        filters=filt, char_filters=char_filters, tokenizer=tok,
        max_token_length=max_token_length,
    )


def index_config_from_schema(
    schema: Dict, loader: Optional[Callable[[str], str]] = None,
) -> Dict:
    """A managed-schema-style dict → ``build_index`` keyword args
    (the ``IndexSchema``/``FieldTypePluginLoader`` role)::

        {"fields": {
            "content": {"type": "text", "analyzer": {...}},   # default
            "title":   {"type": "text", "analyzer": {...}},
            "price":   {"type": "double"},                    # point
            "sku":     {"type": "string", "stored": true},    # keyword
         },
         "defaultField": "content",
         "indexSort": [["price", false]]}

    ``type: text`` fields index through their (optional) analyzer
    config; ``string`` fields index as keyword fields and may also be
    stored; numeric types (int/long/float/double/date) become point
    fields.  Returns kwargs for
    :func:`lucene_solr_ray.index.build.build_index`."""
    from lucene_solr_ray.analysis.analyzer import KeywordAnalyzer

    numeric_types = {"int", "long", "float", "double",
                     "pint", "plong", "pfloat", "pdouble"}
    fields = schema.get("fields", {})
    default = schema.get("defaultField")
    if default is None:
        texts = [n for n, f in fields.items()
                 if f.get("type", "text") == "text"]
        if not texts:
            raise ValueError("schema has no text field")
        default = texts[0]
    out: Dict = {"text_col": default}
    field_analyzers: Dict = {}
    extra_fields: Dict[str, str] = {}
    numeric_fields: Dict[str, str] = {}
    stored: List[str] = []
    for name, f in fields.items():
        ftype = f.get("type", "text")
        if name == default:
            if f.get("analyzer"):
                out["analyzer"] = custom_analyzer_from_config(
                    f["analyzer"], loader=loader)
        elif ftype == "text":
            extra_fields[name] = name
            if f.get("analyzer"):
                field_analyzers[name] = custom_analyzer_from_config(
                    f["analyzer"], loader=loader)
        elif ftype == "string":
            extra_fields[name] = name
            field_analyzers[name] = KeywordAnalyzer()
        elif ftype in numeric_types or ftype == "date":
            # build_index numeric_fields maps field -> SOURCE COLUMN;
            # the point dtype is inferred from the column
            numeric_fields[name] = name
        else:
            raise ValueError(f"unknown field type {ftype!r} for {name!r}")
        if _b(f.get("stored")):
            stored.append(name)
    if extra_fields:
        out["extra_fields"] = extra_fields
    if field_analyzers:
        out["field_analyzers"] = field_analyzers
    if numeric_fields:
        out["numeric_fields"] = numeric_fields
    if stored:
        out["stored_cols"] = tuple(stored)
    isort = schema.get("indexSort")
    if isort:
        out["index_sort"] = [tuple(pair) for pair in isort]
    return out
