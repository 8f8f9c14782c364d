"""Geo kernel parity tests (reference query_funcs.py:247-290 semantics)."""

import numpy as np

from batch_geocode_ray.functions.geo import diag_buffer_km, haversine_km


def test_haversine_known_values():
    # Paris (2.3522E, 48.8566N) -> London (-0.1276E, 51.5072N): ~343.5 km
    d = haversine_km(2.3522, 48.8566, -0.1276, 51.5072)
    assert abs(d - 343.5) < 1.0
    # antipodal-ish: half circumference = pi * R
    d = haversine_km(0.0, 0.0, 180.0, 0.0)
    assert abs(d - np.pi * 6371.0088) < 0.01


def test_haversine_zero_and_nan():
    assert haversine_km(10.0, 20.0, 10.0, 20.0) == 0.0
    assert np.isnan(haversine_km(np.nan, 0.0, 1.0, 1.0))


def test_haversine_vectorized_broadcast():
    lons = np.array([0.0, 1.0, 2.0])
    d = haversine_km(lons, 0.0, 0.0, 0.0)
    assert d.shape == (3,)
    assert d[0] == 0.0
    assert d[1] < d[2]


def test_diag_buffer_degenerate_bbox_is_zero():
    assert diag_buffer_km(5.0, 5.0, 5.0, 5.0) == 0.0
