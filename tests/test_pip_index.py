"""stages/pip.py: the columnar grid PolygonIndex against the flat-scan
oracle (tests/oracle.py), its handling of malformed rings, the shape of
its pickled form, and PIPJoin's output columns."""

import pickle

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from batch_geocode_ray.stages.pip import PIPJoin, PolygonIndex

from .oracle import oracle_pip_assign


def _table(rings, levels=None, ids=None, ccs=None):
    n = len(rings)
    return pa.table({
        "admin_id": pa.array(ids if ids is not None else range(n), pa.int64()),
        "admin_level": pa.array(levels or [1] * n, pa.int64()),
        "cc": pa.array(ccs or [f"c{i}" for i in range(n)], pa.string()),
        "ring_lons": pa.array([r[0] for r in rings], pa.list_(pa.float64())),
        "ring_lats": pa.array([r[1] for r in rings], pa.list_(pa.float64())),
    })


# star-shaped rings: centre on a 1/8 lattice (so vertices and bbox
# edges often sit exactly on grid-cell boundaries), size 2^-4 .. 2^3
_polygon = st.tuples(
    st.integers(-64, 64), st.integers(-64, 64),     # centre x 8
    st.integers(-4, 3),                              # log2 radius
    st.lists(st.floats(0.3, 1.0), min_size=3, max_size=8),
    st.floats(0.0, 6.283),                           # rotation
    st.integers(0, 2),                               # admin_level
    st.booleans(),                                   # equal-level twin
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_polygon, min_size=1, max_size=20),
       st.lists(st.tuples(st.floats(-12, 12), st.floats(-12, 12)),
                max_size=40),
       st.randoms(use_true_random=False))
def test_assign_matches_oracle(polys, free_points, rnd):
    rings, levels = [], []
    for cx, cy, e, radii, rot, level, twin in polys:
        ang = rot + 2 * np.pi * np.arange(len(radii)) / len(radii)
        r = np.ldexp(np.asarray(radii), e)
        ring = ((cx / 8 + r * np.cos(ang)).tolist(),
                (cy / 8 + r * np.sin(ang)).tolist())
        rings.append(ring)
        levels.append(level)
        if twin:            # same ring and level: the admin_id tie-break
            rings.append(ring)
            levels.append(level)
    ids = list(range(len(rings)))
    rnd.shuffle(ids)        # id order differs from row order
    t = _table(rings, levels, ids)
    idx = PolygonIndex(t)

    pts = list(free_points)
    pts += [(-50.0, -50.0), (50.0, 3.0)]                # outside all
    for xs, ys in rings:
        pts += list(zip(xs, ys))                        # exact vertices
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        pts += [(x0, (y0 + y1) / 2), (x1, (y0 + y1) / 2),
                ((x0 + x1) / 2, y0), ((x0 + x1) / 2, y1),
                (x0, y0), (x1, y1)]                     # bbox edges
        for lvl in idx.grid_levels.tolist():            # x, y = k * 2^L
            s = 2.0 ** lvl
            pts += [(np.ceil(x0 / s) * s, (y0 + y1) / 2),
                    ((x0 + x1) / 2, np.floor(y1 / s) * s)]
    px = np.array([p[0] for p in pts])
    py = np.array([p[1] for p in pts])
    got_id, got_lv, got_cc = idx.assign(px, py)
    rows = t.to_pylist()
    want = [oracle_pip_assign(x, y, rows) for x, y in pts]
    assert list(zip(got_id.tolist(), got_lv.tolist(),
                    got_cc.to_pylist())) == want


_SQUARE = ([0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0])


def test_ray_cast_chunks_agree(monkeypatch):
    # pair x edge rows are cast in bounded chunks; a chunk size that
    # splits between and inside pairs must still match the oracle
    import batch_geocode_ray.stages.pip as pip

    rng = np.random.default_rng(5)
    rings = []
    for _ in range(30):
        n = int(rng.integers(3, 40))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        r = rng.uniform(0.2, 1.0, n)
        c = rng.uniform(-2, 2, 2)
        rings.append(((c[0] + r * np.cos(ang)).tolist(),
                      (c[1] + r * np.sin(ang)).tolist()))
    t = _table(rings, levels=[0, 1, 2] * 10)
    px, py = rng.uniform(-3, 3, 500), rng.uniform(-3, 3, 500)
    want = [oracle_pip_assign(x, y, t.to_pylist()) for x, y in zip(px, py)]
    assert sum(w[0] >= 0 for w in want) > 100
    monkeypatch.setattr(pip, "_EDGE_ROWS_PER_CHUNK", 7)
    ids, levels, cc = PolygonIndex(t).assign(px, py)
    assert list(zip(ids.tolist(), levels.tolist(), cc.to_pylist())) == want


@pytest.mark.parametrize("ring", [([], []), ([0.5], [0.5]),
                                  ([0.0, 1.0], [0.0, 1.0])],
                         ids=["empty", "one_vertex", "two_vertices"])
def test_short_rings_dropped(ring):
    # under even-odd a ring of < 3 vertices contains no point, so
    # dropping it changes no answer; the square behind it still hits
    idx = PolygonIndex(_table([ring, _SQUARE]))
    assert idx.admin_id.tolist() == [1]
    ids, levels, cc = idx.assign(np.array([0.5, 1.0, 2.0]),
                                 np.array([0.5, 0.5, 2.0]))
    assert ids.tolist() == [1, -1, -1]
    assert cc.to_pylist() == ["c1", None, None]
    only = PolygonIndex(_table([ring]))
    assert only.assign(np.array([0.5]), np.array([0.5]))[0].tolist() == [-1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_raises(bad):
    ring = ([0.0, 2.0, bad, 0.0], [0.0, 0.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="admin_id 42"):
        PolygonIndex(_table([_SQUARE, ring], ids=[7, 42]))
    with pytest.raises(ValueError, match="admin_id 42"):
        PolygonIndex(_table([_SQUARE, ring[::-1]], ids=[7, 42]))


@pytest.mark.parametrize("lons", [
    [175.0, -175.0, -175.0, 175.0],     # a box across lon 180
    [-179.0, -90.0, 90.0, 179.0],       # only the closing edge is wide
], ids=["box", "closing_edge"])
def test_antimeridian_ring_raises(lons):
    # planar in lon/lat, the box would contain lon 0 and 100 and miss
    # +-178, the side it means
    ring = (lons, [-20.0, -20.0, -15.0, -15.0])
    with pytest.raises(ValueError, match="admin_id 42 crosses the antimeridian"):
        PolygonIndex(_table([_SQUARE, ring], ids=[7, 42]))


def _squares(n):
    side = int(np.sqrt(n))
    return _table([([i, i + 1.0, i + 1.0, i], [j, j, j + 1.0, j + 1.0])
                   for j in range(side) for i in range(side)])


def test_pickle_is_a_fixed_set_of_buffers():
    """ray.put/ray.get of the index is zero-copy when its state is a
    few large out-of-band buffers whose count does not grow with the
    polygon count (a per-polygon array each was ~2 buffers/polygon)."""
    counts = []
    for n in (100, 10_000):
        idx = PolygonIndex(_squares(n))
        bufs = []
        data = pickle.dumps(idx, protocol=5, buffer_callback=bufs.append)
        counts.append(len(bufs))
        back = pickle.loads(data, buffers=bufs)
        px = np.array([0.5, 3.5, -1.0])
        assert back.assign(px, px)[0].tolist() == idx.assign(px, px)[0].tolist()
    assert counts[0] == counts[1], counts


def test_pipjoin_columns_and_null_points():
    batch = pa.table({"best_long": pa.array([0.5, None, np.nan, 5.0, 0.5]),
                      "best_lat": pa.array([0.5, 0.5, 0.5, 5.0, None])})
    out = PIPJoin(PolygonIndex(_table([_SQUARE], ccs=["US"])))(batch)
    assert out.schema.field("admin_id").type == pa.int64()
    assert out.schema.field("admin_level").type == pa.int64()
    assert out.schema.field("admin_cc").type == pa.string()
    assert out["admin_id"].to_pylist() == [0, -1, -1, -1, -1]
    assert out["admin_level"].to_pylist() == [1, -1, -1, -1, -1]
    assert out["admin_cc"].to_pylist() == ["US", None, None, None, None]
