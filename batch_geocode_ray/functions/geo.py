"""Vectorized geo kernels.

Numerical parity targets (reference /root/reference/geocode/query_funcs.py):
  - ``haversine_km``      ~ calc_haversine_distance (:247-252), which wraps the
    ``haversine`` PyPI package: great-circle distance on a sphere of
    mean earth radius 6371.0088 km, in km.
  - ``diag_buffer_km``    ~ get_diag_buffer (:272-278): haversine distance
    across the bbox diagonal (SW corner -> NE corner), the reference's
    "buffer" used by the vetting rule.

All kernels are plain NumPy over float64 arrays so they can run inside
``map_batches`` on zero-copy Arrow columns with no per-row Python.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0088  # IUGG mean earth radius, same as the haversine pkg


def haversine_km(lon_a, lat_a, lon_b, lat_b):
    """Great-circle distance in km between (lon_a, lat_a) and (lon_b, lat_b).

    Vectorized; inputs broadcast. NaN in -> NaN out (matches the
    reference, where NaN coordinates propagate through the haversine
    formula).
    """
    lon_a = np.radians(np.asarray(lon_a, dtype=np.float64))
    lat_a = np.radians(np.asarray(lat_a, dtype=np.float64))
    lon_b = np.radians(np.asarray(lon_b, dtype=np.float64))
    lat_b = np.radians(np.asarray(lat_b, dtype=np.float64))
    dlat = lat_b - lat_a
    dlon = lon_b - lon_a
    h = np.sin(dlat * 0.5) ** 2 + np.cos(lat_a) * np.cos(lat_b) * np.sin(dlon * 0.5) ** 2
    # clip guards tiny negative/overshoot rounding before sqrt/asin
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def diag_buffer_km(min_lon, min_lat, max_lon, max_lat):
    """Reference "buffer": haversine km across the bbox diagonal
    (query_funcs.py:272-278). A degenerate bbox (a point) has buffer 0.
    """
    return haversine_km(min_lon, min_lat, max_lon, max_lat)
