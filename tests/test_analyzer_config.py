"""Declarative analyzer assembly (Solr fieldType config →
CustomAnalyzer; factory names per the reference *Factory classes)."""

import pytest

from lucene_solr_ray.analysis.config import custom_analyzer_from_config


def test_basic_chain():
    a = custom_analyzer_from_config({
        "tokenizer": {"class": "solr.WhitespaceTokenizerFactory"},
        "filters": [
            {"class": "solr.LowerCaseFilterFactory"},
            {"class": "solr.StopFilterFactory",
             "words": ["the", "a"]},
        ],
    })
    assert a.analyze("The Quick-Brown FOX") == ["quick-brown", "fox"]


def test_file_loading_and_formats(tmp_path):
    (tmp_path / "stop.txt").write_text("# c\nthe\nof\n")
    (tmp_path / "syn.txt").write_text("couch, sofa\nsmall => tiny\n")
    (tmp_path / "map.txt").write_text('"\\u00df" => "ss"\n')

    def loader(name):
        return (tmp_path / name).read_text()

    a = custom_analyzer_from_config({
        "charFilters": [
            {"class": "solr.MappingCharFilterFactory",
             "mapping": "map.txt"},
        ],
        "tokenizer": {"class": "solr.StandardTokenizerFactory"},
        "filters": [
            {"class": "solr.LowerCaseFilterFactory"},
            {"class": "solr.StopFilterFactory", "words": "stop.txt"},
            {"class": "solr.SynonymGraphFilterFactory",
             "synonyms": "syn.txt", "keepOriginal": "false"},
            {"class": "solr.SnowballPorterFilterFactory",
             "language": "English"},
        ],
    }, loader=loader)
    # groß → gross (charfilter), stopwords drop, synonyms expand, stem
    assert a.analyze("the groß sofa of small things") == [
        "gross", "couch", "sofa", "tini", "thing"]


def test_tokenizer_variants_and_errors():
    ph = custom_analyzer_from_config({
        "tokenizer": {"class": "solr.PathHierarchyTokenizerFactory",
                      "delimiter": "/"},
    })
    assert ph.analyze("/a/b") == ["/a", "/a/b"]
    ng = custom_analyzer_from_config({
        "tokenizer": {"class": "solr.NGramTokenizerFactory",
                      "minGramSize": "2", "maxGramSize": "2"},
    })
    assert ng.analyze("abc") == ["ab", "bc"]
    with pytest.raises(KeyError):
        custom_analyzer_from_config(
            {"tokenizer": {"class": "solr.NoSuchTokenizerFactory"}})
    with pytest.raises(KeyError):
        custom_analyzer_from_config(
            {"filters": [{"class": "solr.NoSuchFilterFactory"}]})


def test_default_tokenizer_is_standard():
    a = custom_analyzer_from_config({
        "filters": [{"class": "solr.LowerCaseFilterFactory"}],
    })
    # standard UAX#29: punctuation splits, "don't" keeps the apostrophe
    assert a.analyze("Don't stop-me") == ["don't", "stop", "me"]


def test_index_config_from_schema_keeps_default_field_stored():
    from lucene_solr_ray.analysis.config import index_config_from_schema

    kwargs = index_config_from_schema({
        "fields": {
            "body": {"type": "text", "stored": True},
            "tag": {"type": "string", "stored": True},
        },
        "defaultField": "body",
    })
    assert kwargs["text_col"] == "body"
    assert kwargs["stored_cols"] == ("body", "tag")


def test_index_config_from_schema_end_to_end(ray_session, tmp_path):
    """Schema dict → build_index kwargs → searchable index with
    per-field analyzers and numeric points."""
    import pandas as pd

    from lucene_solr_ray.analysis.config import index_config_from_schema
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    schema = {
        "fields": {
            "body": {"type": "text", "analyzer": {
                "tokenizer": {"class": "solr.WhitespaceTokenizerFactory"},
                "filters": [{"class": "solr.LowerCaseFilterFactory"}],
            }},
            "tag": {"type": "string", "stored": True},
            "price": {"type": "double"},
        },
        "defaultField": "body",
    }
    kwargs = index_config_from_schema(schema)
    assert kwargs["text_col"] == "body"
    assert kwargs["numeric_fields"] == {"price": "price"}
    assert kwargs["stored_cols"] == ("tag",)

    src = tmp_path / "docs.parquet"
    pd.DataFrame({
        "doc_id": range(3),
        "body": ["Quick-Brown FOX", "lazy dog", "quick dog"],
        "tag": ["A-1", "B-2", "A-1"],
        "price": [9.5, 20.0, 3.0],
    }).to_parquet(src)
    idx_dir = str(tmp_path / "idx")
    build_index(str(src), idx_dir, id_col="doc_id", **kwargs)
    idx = Index(idx_dir)
    # whitespace tokenizer keeps "quick-brown" whole; custom chains are
    # session objects, so the query side passes the same analyzer
    out = idx.search({0: "quick-brown"}, k=10,
                     analyzer=kwargs["analyzer"])
    assert out.column("doc_id").to_pylist() == [0]
    # keyword field: exact tag match
    out2 = idx.search({0: 'tag:"A-1"'}, k=10)
    assert sorted(out2.column("doc_id").to_pylist()) == [0, 2]
    # numeric point range
    out3 = idx.search({0: "price:[5 TO 25]"}, k=10)
    assert sorted(out3.column("doc_id").to_pylist()) == [0, 1]
