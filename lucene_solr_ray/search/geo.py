"""Geo-spatial search: distance queries + distance sort over lat/lon.

The reference's spatial path (``lucene/core/src/java/org/apache/lucene/
document/LatLonPoint.java`` — ``newDistanceQuery``; ``lucene/spatial/``):
points index into a BKD tree, a distance query prunes by bounding box and
verifies with exact haversine.

Ours: lat/lon ride as stored docmeta columns (built with
``stored_cols=["lat", "lon"]``) plus optional numeric point fields for
segment-level min/max pruning.  ``geo_distance_search`` is a collector
on ``Index.scan``: per segment a vectorized bounding-box prefilter (the
BKD-cell role) over the live docs, then exact haversine on the
survivors; the driver merges ≤ segments × k tiny rows.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

__all__ = ["haversine_m", "geo_distance_search"]

_EARTH_R_M = 6_371_008.8  # mean earth radius, meters


def haversine_m(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in meters (vectorized haversine)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = (np.sin(dp / 2.0) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2)
    return 2.0 * _EARTH_R_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


_GEO_SCHEMA = pa.schema([("doc_id", pa.int64()), ("distance_m", pa.float64())])


def _bbox(lat: float, lon: float, radius_m: float):
    """(lat lo, lat hi, lon lo, lon hi) of the circle (the BKD cell
    prune): ±radius in degrees, widened for longitude by the cos(lat)
    shrink (clamped near the poles)."""
    dlat = np.degrees(radius_m / _EARTH_R_M)
    coslat = max(np.cos(np.radians(lat)), 1e-6)
    dlon = min(np.degrees(radius_m / (_EARTH_R_M * coslat)), 180.0)
    return lat - dlat, lat + dlat, lon - dlon, lon + dlon


def _collect_geo(pairs, lat: float, lon: float, radius_m: float, k: int,
                 lat_col: str, lon_col: str) -> pa.Table:
    """Geo collector: per segment, a bbox prefilter on the stored lat/lon
    columns over the live docs, exact haversine verify, local top-k by
    (distance asc, doc asc)."""
    lo_la, hi_la, lo_lo, hi_lo = _bbox(lat, lon, radius_m)
    parts = [_GEO_SCHEMA.empty_table()]
    for reader, _ in pairs:
        lats = reader.values(lat_col)
        lons = reader.values(lon_col)
        cand = np.nonzero((lats >= lo_la) & (lats <= hi_la)
                          & (lons >= lo_lo) & (lons <= hi_lo))[0]
        cand = cand[reader.live_mask(cand)]
        d = haversine_m(lat, lon, lats[cand], lons[cand])
        ok = d <= radius_m
        cand, d = cand[ok], d[ok]
        dids = reader.doc_ids[cand]
        top = np.lexsort((dids, d))[:k]
        parts.append(pa.table([dids[top].astype(np.int64), d[top]],
                              schema=_GEO_SCHEMA))
    return pa.concat_tables(parts)


def geo_distance_search(
    index,
    lat: float,
    lon: float,
    radius_m: float,
    k: int = 10,
    lat_col: str = "lat",
    lon_col: str = "lon",
) -> pa.Table:
    """Top-k live docs within ``radius_m`` of (lat, lon), sorted by
    distance then doc id (``LatLonPoint.newDistanceQuery`` + distance
    sort): the geo collector on ``Index.scan``, merged on the driver."""
    parts = list(index.scan(
        partial(_collect_geo, lat=lat, lon=lon, radius_m=radius_m, k=k,
                lat_col=lat_col, lon_col=lon_col),
    ).iter_batches(batch_size=None, batch_format="pyarrow"))
    t = pa.concat_tables([_GEO_SCHEMA.empty_table()] + parts)
    d = t.column("distance_m").to_numpy()
    dids = t.column("doc_id").to_numpy()
    top = np.lexsort((dids, d))[:k]
    return pa.table({
        "doc_id": pa.array(dids[top], pa.int64()),
        "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int64)),
        "distance_m": pa.array(d[top], pa.float64()),
    })
