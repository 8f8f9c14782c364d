"""Invariant tests for the from-scratch S2 and hex cell indices."""

import numpy as np

from batch_geocode_ray.functions.cells import (
    S2_MAX_LEVEL,
    hex_cell,
    hex_kring,
    s2_cell,
    s2_parent,
)

from .reference import hex_decode, s2_cell_center, s2_level_of

RNG = np.random.RandomState(7)
LONS = RNG.uniform(-179, 179, size=500)
LATS = RNG.uniform(-85, 85, size=500)


def test_s2_level_and_parent_containment():
    leaf = s2_cell(LONS, LATS)
    assert (s2_level_of(leaf) == S2_MAX_LEVEL).all()
    for lvl in (4, 9, 12, 20):
        p = s2_parent(leaf, lvl)
        assert (s2_level_of(p) == lvl).all()
        # parent is a prefix relation: parent of the parent's child == parent
        assert (s2_parent(p, lvl) == p).all()
        # monotone nesting: coarser parent of fine parent == coarser parent of leaf
        assert (s2_parent(p, 4) == s2_parent(leaf, 4)).all()


def test_s2_center_roundtrip():
    # a cell's center must re-encode to the same cell at the same level
    for lvl in (8, 12, 16):
        cells = s2_cell(LONS, LATS, lvl)
        lon_c, lat_c = s2_cell_center(cells)
        again = s2_cell(lon_c, lat_c, lvl)
        assert (again == cells).all()
        # and the center is near the original point (cell diameter shrinks
        # 2x per level; at level 8 cells are a few degrees at most)
        assert np.abs(lat_c - LATS).max() < 180.0 / (1 << (lvl - 2))


def test_s2_distinct_faces():
    # six axis points land on six distinct faces
    pts = [(0, 0), (90, 0), (0, 90), (180, 0), (-90, 0), (0, -90)]
    cells = s2_cell(np.array([p[0] for p in pts], float),
                    np.array([p[1] for p in pts], float))
    faces = cells >> np.uint64(61)
    assert len(set(faces.tolist())) == 6


def test_hex_roundtrip_and_containment():
    for res in (5, 7, 9):
        cells = hex_cell(LONS, LATS, res)
        dres, clon, clat = hex_decode(cells)
        assert (dres == res).all()
        # center re-encodes to itself
        assert (hex_cell(clon, clat, res) == cells).all()
        # centers are within one circumradius of the point
        size = 10.0 / (np.sqrt(7.0) ** res)
        d = np.hypot(clon - LONS, (clat - LATS))
        assert (d <= size * 2.5).all()


def test_hex_kring_sizes():
    c = int(hex_cell(np.array([10.0]), np.array([20.0]), 7)[0])
    assert len(hex_kring(c, 0)) == 1
    assert len(hex_kring(c, 1)) == 7
    assert len(hex_kring(c, 2)) == 19
    assert c in hex_kring(c, 1)


def test_cells_deterministic_across_calls():
    a = s2_cell(LONS, LATS, 12)
    b = s2_cell(LONS.copy(), LATS.copy(), 12)
    assert (a == b).all()
    ha = hex_cell(LONS, LATS, 8)
    hb = hex_cell(LONS.copy(), LATS.copy(), 8)
    assert (ha == hb).all()
