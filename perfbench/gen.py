"""Seeded input generator: code corpus, serve query log, churn op stream.

Everything here is a pure function of (seed, sizes, GEN_VERSION), so a
change to the package under test cannot change the inputs.  The corpus
follows FIXTURES.md section 1 (repo, path, commit, lang, content): a
Zipf-sampled identifier vocabulary with stop-word-scale keywords,
camelCase and snake_case identifiers, numbers and punctuation, a few
>255-char tokens, some empty files, and Zipf doc lengths with a multi-KB
tail so norms reach the lossy SmallFloat region.

Parquet files are cached under the work directory keyed by
(seed, size, GEN_VERSION); generation always happens outside timing.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: bump when any generated byte changes, so stale caches are not reused
GEN_VERSION = 3
#: cached corpora kept on disk (one per recent seed and size)
KEEP_CACHED = 12

VOCAB_SIZE = 5000
VOCAB_SEED = 20231
KEYWORDS = [
    "def", "return", "import", "public", "the", "class", "if", "else",
    "for", "while", "self", "this", "void", "int", "string", "new",
]
_SYLL = [
    "foo", "bar", "baz", "qux", "data", "index", "node", "tree", "hash",
    "list", "map", "set", "key", "val", "item", "doc", "term", "post", "seg",
    "read", "write", "merge", "sort", "scan", "query", "util", "core",
    "impl", "proc", "calc",
]
_LANGS = ["py", "java", "js", "go", "md"]
_LANG_P = [0.35, 0.25, 0.2, 0.12, 0.08]
#: separators between tokens; weights make ~75% plain spaces
_SEPS = [" ", " ", " ", " ", " ", " ", "() ", "{} ", " = ", ". ", ", ",
         "): ", "\n", " += ", "; "]

#: query shapes of the serve log, weighted as in the repository's 16 code
#: queries (``common.CODE_QUERIES``), which cover every FIXTURES.md
#: section 2 shape: five single terms, four ``a AND b``, one
#: ``a AND b AND c``, two ``a OR b``, one ``(a OR b) AND c``, one phrase,
#: one prefix, one fuzzy
SHAPES = ("term", "and", "and3", "or", "or_and", "phrase", "prefix",
          "fuzzy")
SHAPE_N = (5, 4, 1, 2, 1, 1, 1, 1)
#: of the 27 term slots in those queries, 9 hold stop-word-scale keywords
#: (def, return, import, public, self, the) and 1 a word absent from the
#: corpus (databaz); the rest hold corpus words
SLOTS, KEYWORD_SLOTS, ABSENT_SLOTS = 27, 9, 1
#: the seed of the serve query pool, the same for every run
POOL_SEED = 20232
#: the Zipf exponent of the corpus's token draw, also used to pick query
#: words, so a query word is as likely as a token of the corpus
TOKEN_ZIPF = 1.25


def vocabulary() -> List[str]:
    """Surface forms, rank 0 most frequent; keywords take the top ranks.

    The vocabulary is one fixed language for every seed: with a per-seed
    vocabulary, how many terms sit within one edit or one prefix of a
    frequent term changed from seed to seed, and with it the cost of the
    serve log (measured side by side: fuzzy-query p50 of 41 against 11 ms
    between two seeds)."""
    rng = np.random.default_rng(VOCAB_SEED)
    vocab = list(KEYWORDS)
    seen = set(w.lower() for w in vocab)
    while len(vocab) < VOCAB_SIZE:
        k = int(rng.integers(1, 4))
        parts = [_SYLL[i] for i in rng.integers(0, len(_SYLL), k)]
        if k > 1 and rng.random() < 0.5:
            w = parts[0] + "".join(p.capitalize() for p in parts[1:])
        else:
            w = "_".join(parts)
        if rng.random() < 0.15:
            w = f"{w}{int(rng.integers(1000))}"
        if w.lower() not in seen:
            seen.add(w.lower())
            vocab.append(w)
    return vocab


def _contents(rng: np.random.Generator, n_docs: int,
              vocab: np.ndarray) -> List[str]:
    # doc length: Zipf-like (Lomax) with a median of ~50 words and a
    # multi-KB tail; 1% empty files
    lens = np.minimum(8 + rng.pareto(1.6, n_docs) * 70, 4000).astype(np.int64)
    lens[rng.random(n_docs) < 0.01] = 0
    total = int(lens.sum())
    ranks = (rng.zipf(TOKEN_ZIPF, total) - 1) % len(vocab)
    words = vocab[ranks]
    numbers = rng.random(total) < 0.05
    if numbers.any():
        words[numbers] = np.array(
            [str(v) for v in rng.integers(0, 10000, int(numbers.sum()))],
            dtype=object,
        )
    seps = np.array(_SEPS, dtype=object)[rng.integers(0, len(_SEPS), total)]
    joined = words + seps
    long_tok = rng.random(n_docs) < 0.02
    long_len = rng.integers(256, 456, n_docs)
    out: List[str] = []
    ends = np.cumsum(lens)
    starts = ends - lens
    for d in range(n_docs):
        s = "".join(joined[starts[d]:ends[d]].tolist())
        if long_tok[d] and lens[d]:
            s += "x" * int(long_len[d])
        out.append(s)
    return out


def corpus_table(seed: int, n_docs: int, doc_base: int,
                 vocab: np.ndarray):
    """One Arrow table of ``n_docs`` FIXTURES section 1 rows.  Row r stands
    for global doc ``doc_base + r`` (path and repo derive from it)."""
    import pyarrow as pa

    rng = np.random.default_rng([seed, 2, doc_base])
    contents = _contents(rng, n_docs, vocab)
    ids = np.arange(doc_base, doc_base + n_docs)
    repo_rank = (rng.zipf(1.5, n_docs) - 1) % 53
    repos = [f"org{r % 7}/repo{r}" for r in repo_rank.tolist()]
    langs = [_LANGS[i] for i in rng.choice(len(_LANGS), n_docs, p=_LANG_P)]
    paths = [f"src/{'abcdefgh'[d % 8]}/file_{d}.{lg}"
             for d, lg in zip(ids.tolist(), langs)]
    commits = [hashlib.sha1(f"{r}|{p}".encode()).hexdigest()
               for r, p in zip(repos, paths)]
    return pa.table({
        "repo": pa.array(repos, pa.string()),
        "path": pa.array(paths, pa.string()),
        "commit": pa.array(commits, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "content": pa.array(contents, pa.string()),
    })


def corpus_files(cache_dir: str, seed: int, n_docs: int,
                 docs_per_file: int) -> List[str]:
    """Write (or reuse) the corpus as one Parquet file per
    ``docs_per_file`` rows, so each file is exactly one build shard."""
    import pyarrow.parquet as pq

    key = f"corpus-v{GEN_VERSION}-s{seed}-n{n_docs}-f{docs_per_file}"
    out = os.path.join(cache_dir, key)
    n_files = (n_docs + docs_per_file - 1) // docs_per_file
    paths = [os.path.join(out, f"part_{i:04d}.parquet")
             for i in range(n_files)]
    done = os.path.join(out, "complete")
    if os.path.exists(done):
        os.utime(done)
        return paths
    _prune(cache_dir, KEEP_CACHED)
    os.makedirs(out, exist_ok=True)
    vocab = np.array(vocabulary(), dtype=object)
    for i, p in enumerate(paths):
        base = i * docs_per_file
        t = corpus_table(seed, min(docs_per_file, n_docs - base), base, vocab)
        pq.write_table(t, p, compression="zstd", row_group_size=len(t))
    with open(done, "w") as f:
        f.write("ok")
    return paths


def _prune(cache_dir: str, keep: int) -> None:
    """Drop all but the ``keep`` most recently used cached corpora."""
    entries = []
    for name in os.listdir(cache_dir):
        marker = os.path.join(cache_dir, name, "complete")
        mtime = os.path.getmtime(marker) if os.path.exists(marker) else 0.0
        entries.append((mtime, name))
    for _, name in sorted(entries, reverse=True)[keep:]:
        shutil.rmtree(os.path.join(cache_dir, name), ignore_errors=True)


def _surface(w: str) -> str:
    """The index term of a vocabulary word (the analyzer lower-cases and
    keeps camelCase and snake_case words whole)."""
    return w.lower()


def _absent_word(rng: np.random.Generator, vocab: set) -> str:
    """A syllable compound that no document contains."""
    while True:
        parts = [_SYLL[i] for i in rng.integers(0, len(_SYLL), 2)]
        w = "".join(parts) + "z"
        if w not in vocab:
            return w


def _word(rng: np.random.Generator, kind: str, vocab: Sequence[str],
          vocab_set: set) -> str:
    """One query word of ``kind``: a stop-word-scale keyword, a word absent
    from the corpus, or a corpus word; keywords and corpus words are drawn
    by the corpus's own token law."""
    if kind == "absent":
        return _absent_word(rng, vocab_set)
    while True:
        r = (int(rng.zipf(TOKEN_ZIPF)) - 1) % len(vocab)
        if (r < len(KEYWORDS)) == (kind == "keyword"):
            return _surface(vocab[r])


def _query(shape: str, words: Sequence[str]) -> str:
    a, b, c = (list(words) + ["", ""])[:3]
    return {
        "term": a,
        "and": f"{a} AND {b}",
        "and3": f"{a} AND {b} AND {c}",
        "or": f"{a} OR {b}",
        "or_and": f"({a} OR {b}) AND {c}",
        "phrase": f'"{a} {b}"',
        "prefix": f"{a[:max(3, len(a) // 2)]}*",
        "fuzzy": f"{a}~1",
    }[shape]


_ARITY = {"term": 1, "prefix": 1, "fuzzy": 1, "and": 2, "or": 2,
          "phrase": 2, "and3": 3, "or_and": 3}


def _blocks(rng: np.random.Generator, block: Sequence) -> Iterator:
    """Endless shuffled copies of ``block``, so that the shares of its
    items are exact in every block rather than only on average (the
    median latency moved with the sampled shape mix from seed to seed)."""
    while True:
        for i in rng.permutation(len(block)).tolist():
            yield block[i]


def query_pool(seed: int, n: int,
               salt: int = 0) -> List[Tuple[str, str, bool]]:
    """``n`` distinct (shape, query string, holds a keyword) triples.

    Shapes come in shuffled blocks of the 16 code-query shapes and word
    kinds in shuffled blocks of their 27 term slots.  Words are redrawn
    until the query is new; when a shape has run out of new keyword
    queries (there are 16 keywords), its keywords become corpus words."""
    rng = np.random.default_rng([seed, 3, salt])
    vocab = vocabulary()
    vocab_set = {_surface(w) for w in vocab}
    shapes = _blocks(rng, [s for s, k in zip(SHAPES, SHAPE_N)
                           for _ in range(k)])
    kinds = _blocks(rng, ["keyword"] * KEYWORD_SLOTS
                    + ["absent"] * ABSENT_SLOTS
                    + ["word"] * (SLOTS - KEYWORD_SLOTS - ABSENT_SLOTS))
    seen = set()
    out: List[Tuple[str, str, bool]] = []
    while len(out) < n:
        shape = next(shapes)
        ks = [next(kinds) for _ in range(_ARITY[shape])]
        for attempt in range(40):
            if attempt == 20:
                ks = ["word" if k == "keyword" else k for k in ks]
            q = _query(shape, [_word(rng, k, vocab, vocab_set) for k in ks])
            if q not in seen:
                seen.add(q)
                out.append((shape, q, "keyword" in ks))
                break
    return out


def serve_log(seed: int, n_queries: int) -> Dict:
    """The serve query log: fresh queries walk a distinct pool in order;
    one position in every three, at a random place in its block, repeats
    an already-issued query drawn Zipf by pool rank, so the distinct
    queries outgrow the engine's result cache while the head stays hot.

    The pool is one fixed query set for every seed, as the code queries
    are; the seed draws the corpus and the repeats.  With a pool drawn per
    seed, the median first-seen latency spread over 8.6 to 12.1 ms across
    ten seeds, each measuring about 470 first-seen queries."""
    rng = np.random.default_rng([seed, 4])
    repeat = np.zeros(n_queries, dtype=bool)
    for b in range(0, n_queries, 3):
        repeat[b + int(rng.integers(0, min(3, n_queries - b)))] = True
    repeat[0] = False
    pool = query_pool(POOL_SEED, int((~repeat).sum()))
    log: List[int] = []
    issued = 0
    for rep in repeat.tolist():
        if rep:
            log.append(int(rng.zipf(1.3) - 1) % issued)
        else:
            log.append(issued)
            issued += 1
    return {"pool": pool, "log": log}


def churn_ops(seed: int, base_docs: int, rounds: int, add_batch: int,
              update_batch: int) -> List[Dict]:
    """Per round: fresh doc ids to add and existing ids to update (drawn
    from every id added so far), each with its new contents."""
    rng = np.random.default_rng([seed, 5])
    vocab = np.array(vocabulary(), dtype=object)
    next_id = base_docs
    ops = []
    for r in range(rounds):
        upd = np.sort(rng.choice(next_id, update_batch, replace=False))
        ops.append({
            "add_ids": list(range(next_id, next_id + add_batch)),
            "add_texts": _contents(rng, add_batch, vocab),
            "update_ids": upd.tolist(),
            "update_texts": _contents(rng, update_batch, vocab),
        })
        next_id += add_batch
    return ops


def describe_corpus(paths: Sequence[str]) -> Dict:
    """Input properties reported with every result."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    n = 0
    nbytes = 0
    lens: List[np.ndarray] = []
    for p in paths:
        col = pq.read_table(p, columns=["content"]).column("content")
        n += len(col)
        nbytes += int(pc.sum(pc.binary_length(col)).as_py() or 0)
        # whitespace-split word count: a cheap, analyzer-independent size
        words = pc.list_value_length(pc.utf8_split_whitespace(col))
        lens.append(words.to_numpy(zero_copy_only=False))
    q = np.quantile(np.concatenate(lens), [0.5, 0.9, 0.99])
    return {
        "docs": n,
        "content_bytes": nbytes,
        "words_p50": float(q[0]),
        "words_p90": float(q[1]),
        "words_p99": float(q[2]),
    }

