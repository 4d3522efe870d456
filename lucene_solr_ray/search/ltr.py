"""Learning-to-rank re-scoring — the Solr LTR contrib re-expressed on Ray.

Reference semantics:
  solr/contrib/ltr/src/java/org/apache/solr/ltr/LTRRescorer.java:102-146
    (re-rank the first-pass top window, ties broken by ascending docid)
  solr/contrib/ltr/src/java/org/apache/solr/ltr/model/LinearModel.java:113-119
    (dot product of normalized features)
  solr/contrib/ltr/src/java/org/apache/solr/ltr/model/
    MultipleAdditiveTreesModel.java:113,159-171,260-262,325-331
    (sum of weight·tree, node split ``value <= threshold + 1e-6`` → left,
     unknown feature index scores 0)
  solr/contrib/ltr/src/java/org/apache/solr/ltr/model/NeuralNetworkModel.java
    (dense layers with relu/sigmoid/tanh/identity/leakyrelu)
  solr/contrib/ltr/src/java/org/apache/solr/ltr/feature/*.java
    (OriginalScore / FieldLength (decoded 1-byte norm) / FieldValue /
     Value / Solr features, per-feature defaultValue)
  solr/contrib/ltr/src/java/org/apache/solr/ltr/norm/{MinMax,Standard,
    Identity}Normalizer.java

Ray shape: feature extraction is ONE ``Index.scan`` over the segments
with the :func:`_collect_features` collector — per segment the
first-pass query produces its top-``window``
partial and every feature column is computed for exactly those ords
(norm decode, points lookup, feature-query scores via the same segment
scorer).  Only segments × window × (2 + n_features) scalars reach the
driver; the model itself runs vectorized on that bounded window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from lucene_solr_ray.analysis.smallfloat import BYTE4_DECODE_TABLE

__all__ = [
    "ValueFeature", "OriginalScoreFeature", "FieldLengthFeature",
    "FieldValueFeature", "SolrFeature",
    "IdentityNormalizer", "MinMaxNormalizer", "StandardNormalizer",
    "LinearModel", "MultipleAdditiveTreesModel", "NeuralNetworkModel",
    "ltr_rescore",
]


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueFeature:
    """Constant or externally-supplied (efi) value (ValueFeature.java).

    With ``efi_key`` set and ``required`` (the reference's
    ``required=true`` default for ``${...}`` efi params), a lookup whose
    efi map lacks the key RAISES instead of silently scoring the default
    — ValueFeature.java throws FeatureException for a missing required
    external feature value."""

    name: str
    value: float = 0.0
    efi_key: Optional[str] = None  # value comes from efi[...] when set
    default: float = 0.0
    required: bool = True


@dataclass(frozen=True)
class OriginalScoreFeature:
    """The first-pass query score (OriginalScoreFeature.java)."""

    name: str
    default: float = 0.0


@dataclass(frozen=True)
class FieldLengthFeature:
    """SmallFloat-decoded single-byte norm length (FieldLengthFeature.java:
    88-91 — the lossy length, NOT the exact token count)."""

    name: str
    field: Optional[str] = None  # None → the index's default text field
    default: float = 0.0


@dataclass(frozen=True)
class FieldValueFeature:
    """Numeric doc-value of an indexed point field (FieldValueFeature.java,
    backed here by the segment's points storage)."""

    name: str
    field: str = ""
    default: float = 0.0


@dataclass(frozen=True)
class SolrFeature:
    """Score of an arbitrary query over the candidate doc — the
    defaultValue (0) when the doc does not match (SolrFeature.java)."""

    name: str
    q: str = ""
    default: float = 0.0


# ---------------------------------------------------------------------------
# Normalizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityNormalizer:
    def normalize(self, v: np.ndarray) -> np.ndarray:
        return v


@dataclass(frozen=True)
class MinMaxNormalizer:
    min: float
    max: float

    def __post_init__(self):
        if self.max - self.min == 0.0:
            raise ValueError("MinMax Normalizer delta must not be zero")

    def normalize(self, v: np.ndarray) -> np.ndarray:
        return (v - self.min) / (self.max - self.min)


@dataclass(frozen=True)
class StandardNormalizer:
    avg: float
    std: float

    def __post_init__(self):
        if self.std <= 0.0:
            raise ValueError("Standard Normalizer std must be positive")

    def normalize(self, v: np.ndarray) -> np.ndarray:
        return (v - self.avg) / self.std


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearModel:
    """score = Σ w_i · normalized_feature_i (LinearModel.java:113-119)."""

    weights: Dict[str, float]

    def validate(self, feature_names: Sequence[str]) -> None:
        missing = [n for n in feature_names if n not in self.weights]
        if len(missing) == len(feature_names):
            raise ValueError("model doesn't contain any weights")
        if missing:
            raise ValueError(f"model lacks weight(s) for {missing}")

    def score(self, m: np.ndarray, feature_names: Sequence[str]) -> np.ndarray:
        # sequential accumulation in feature order — bit-identical to a
        # left-associated w0·f0 + w1·f1 + … SQL expression (oracle parity)
        out = np.zeros(len(m))
        for j, n in enumerate(feature_names):
            out += self.weights[n] * m[:, j]
        return out


#: the reference adds 1e-6 slack to every threshold at parse time
#: (MultipleAdditiveTreesModel.java:113,139-145)
_NODE_SPLIT_SLACK = 1e-6


@dataclass(frozen=True)
class MultipleAdditiveTreesModel:
    """Sum of weighted regression trees (LambdaMART-shaped).  Each tree is
    ``{"weight": w, "root": node}`` with node either ``{"value": v}`` or
    ``{"feature": name, "threshold": t, "left": node, "right": node}``."""

    trees: Tuple[dict, ...]

    def validate(self, feature_names: Sequence[str]) -> None:
        def _chk(node: dict) -> None:
            if "value" in node:
                if "left" in node or "right" in node:
                    raise ValueError("leaf node with children")
                return
            for key in ("threshold", "left", "right"):
                if key not in node:
                    raise ValueError(f"tree node is missing {key}")
            _chk(node["left"])
            _chk(node["right"])

        for t in self.trees:
            if "weight" not in t:
                raise ValueError("tree doesn't contain a weight")
            _chk(t["root"])

    def score(self, m: np.ndarray, feature_names: Sequence[str]) -> np.ndarray:
        col = {n: i for i, n in enumerate(feature_names)}

        def _tree(node: dict, rows: np.ndarray) -> np.ndarray:
            if "value" in node:
                return np.full(len(rows), float(node["value"]))
            j = col.get(node["feature"])
            if j is None:  # unsupported feature scores 0 (ref :164-167)
                return np.zeros(len(rows))
            left = m[rows, j] <= float(node["threshold"]) + _NODE_SPLIT_SLACK
            out = np.empty(len(rows))
            if left.any():
                out[left] = _tree(node["left"], rows[left])
            if (~left).any():
                out[~left] = _tree(node["right"], rows[~left])
            return out

        rows = np.arange(len(m))
        total = np.zeros(len(m))
        for t in self.trees:
            total += float(t["weight"]) * _tree(t["root"], rows)
        return total


_ACTIVATIONS = {
    "identity": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "leakyrelu": lambda x: np.where(x < 0, 0.01 * x, x),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
}


@dataclass(frozen=True)
class NeuralNetworkModel:
    """Dense feed-forward net: layers of ``{"matrix": [[...]], "bias":
    [...], "activation": name}`` (NeuralNetworkModel.java); the final layer
    must produce a single output."""

    layers: Tuple[dict, ...]

    def validate(self, feature_names: Sequence[str]) -> None:
        width = len(feature_names)
        for i, layer in enumerate(self.layers):
            mat = np.asarray(layer["matrix"], dtype=np.float64)
            if mat.shape[1] != width:
                raise ValueError(
                    f"layer {i} expects input width {mat.shape[1]}, "
                    f"got {width}"
                )
            if layer.get("activation", "identity") not in _ACTIVATIONS:
                raise ValueError(f"unknown activation in layer {i}")
            width = mat.shape[0]
        if width != 1:
            raise ValueError("final layer must output a single value")

    def score(self, m: np.ndarray, feature_names: Sequence[str]) -> np.ndarray:
        x = m.T  # (features, rows)
        for layer in self.layers:
            mat = np.asarray(layer["matrix"], dtype=np.float64)
            bias = np.asarray(layer["bias"], dtype=np.float64)[:, None]
            x = _ACTIVATIONS[layer.get("activation", "identity")](
                mat @ x + bias
            )
        return x[0]


# ---------------------------------------------------------------------------
# Rescorer
# ---------------------------------------------------------------------------


def _collect_features(pairs, q1, fqs, features, efi, stats, sim,
                      window: int) -> pa.Table:
    """LTR feature collector: each segment's first-pass top-``window``
    ords with every feature column computed for exactly those ords."""
    from lucene_solr_ray.search.scorer import score_segment, topk_segment

    schema = pa.schema(
        [("doc_id", pa.int64()), ("first", pa.float64())]
        + [(f"f__{f.name}", pa.float64()) for f in features]
    )
    cols: Dict[str, list] = {n: [] for n in schema.names}
    for reader, _ in pairs:
        ords, s1 = topk_segment(reader, q1, stats, window, sim)
        if len(ords) == 0:
            continue
        cols["doc_id"].extend(
            reader.doc_ids[ords].astype(np.int64).tolist()
        )
        cols["first"].extend(s1.astype(np.float64).tolist())
        for f in features:
            name = f"f__{f.name}"
            if isinstance(f, OriginalScoreFeature):
                vals = s1.astype(np.float64)
            elif isinstance(f, ValueFeature):
                if f.efi_key:
                    if f.efi_key not in efi and f.required:
                        raise KeyError(
                            f"ValueFeature {f.name!r}: required "
                            f"external feature value "
                            f"{f.efi_key!r} missing from efi"
                        )
                    v = efi.get(f.efi_key, f.default)
                else:
                    v = f.value
                vals = np.full(len(ords), float(v))
            elif isinstance(f, FieldLengthFeature):
                nb = reader.norms_for(f.field)[ords].astype(np.int64)
                vals = BYTE4_DECODE_TABLE[nb & 0xFF].astype(np.float64)
            elif isinstance(f, FieldValueFeature):
                pts = reader.points(f.field)
                vals = np.full(len(ords), float(f.default))
                if pts is not None:
                    pvals, pords = pts
                    order = np.argsort(pords, kind="stable")
                    po, pv = pords[order], pvals[order]
                    ix = np.searchsorted(po, ords)
                    ixc = np.minimum(ix, max(len(po) - 1, 0))
                    hit = (ix < len(po)) & (po[ixc] == ords)
                    vals[hit] = pv[ixc[hit]]
            elif isinstance(f, SolrFeature):
                fo, fs = score_segment(reader, fqs[f.name], stats, sim)
                vals = np.full(len(ords), float(f.default))
                if len(fo):
                    ix = np.searchsorted(fo, ords)
                    ixc = np.minimum(ix, len(fo) - 1)
                    hit = (ix < len(fo)) & (fo[ixc] == ords)
                    vals[hit] = fs[ixc[hit]]
            else:
                raise TypeError(f"unknown feature {f!r}")
            cols[name].extend(vals.tolist())
    return pa.Table.from_pydict(
        {n: pa.array(cols[n], schema.field(n).type) for n in schema.names},
        schema=schema,
    )


def ltr_rescore(
    index,
    first_query: str,
    model,
    features: Sequence[object],
    *,
    k: int = 10,
    window: int = 50,
    norms: Optional[Dict[str, object]] = None,
    efi: Optional[Dict[str, float]] = None,
    analyzer=None,
    similarity=None,
) -> pa.Table:
    """First-pass search + per-candidate feature extraction + model
    re-rank (LTRRescorer.rescore, LTRScoringQuery.ModelWeight).

    Returns (doc_id, rank, score, first_pass) — rank 1-based over the
    re-ranked top-``k``; ties broken by ascending doc_id like the
    reference comparator."""
    from functools import partial

    from lucene_solr_ray.search.similarity import BM25Similarity

    feature_names = [f.name for f in features]
    if hasattr(model, "validate"):
        model.validate(feature_names)
    norms = dict(norms or {})

    parser = index.make_parser(analyzer)
    solr = [f for f in features if isinstance(f, SolrFeature)]
    qs, stats = index.prepare(
        [parser.parse(first_query)] + [parser.parse(f.q) for f in solr]
    )
    df = index.scan(
        partial(_collect_features, q1=qs[0],
                fqs={f.name: q for f, q in zip(solr, qs[1:])},
                features=list(features), efi=dict(efi or {}), stats=stats,
                sim=similarity or BM25Similarity(), window=window),
    ).to_pandas()
    if df.empty:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64()),
             "first_pass": pa.array([], pa.float64())}
        )

    # global first-pass window (score desc, docid asc — LTRRescorer:108-115)
    df = df.sort_values(["first", "doc_id"],
                        ascending=[False, True]).head(window)
    m = df[[f"f__{n}" for n in feature_names]].to_numpy(np.float64)
    for j, n in enumerate(feature_names):
        nz = norms.get(n)
        if nz is not None:
            m[:, j] = nz.normalize(m[:, j])
    df = df.assign(score=model.score(m, feature_names))
    df = df.sort_values(["score", "doc_id"],
                        ascending=[False, True]).head(k)
    return pa.table(
        {
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
            "rank": pa.array(
                np.arange(1, len(df) + 1, dtype=np.int64)
            ),
            "score": pa.array(df["score"].to_numpy(np.float64)),
            "first_pass": pa.array(df["first"].to_numpy(np.float64)),
        }
    )
