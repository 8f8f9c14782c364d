"""Round-5 ADVICE fixes: threshold-scaled LSH banding, 128-bit
substring gram identity, plan-independent semi/anti join key handling,
and pca_project's empty-input error."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from batch_geocode_ray.stages import exchange
from batch_geocode_ray.stages.dedup import (
    lsh_banding_for_threshold,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
)
from batch_geocode_ray.stages.joins import equi_join
from batch_geocode_ray.stages.similarity import pca_project


# ---------------------------------------------------------------------------
# LSH banding scales with the requested threshold
# ---------------------------------------------------------------------------

def _miss(t, b, r):
    return (1.0 - t ** r) ** b


def test_lsh_banding_for_threshold_meets_target():
    # the classic 32x4 at near-dup thresholds, wider bands below
    assert lsh_banding_for_threshold(0.9) == (32, 4)
    assert lsh_banding_for_threshold(0.8) == (32, 4)
    assert lsh_banding_for_threshold(0.5) == (64, 2)
    assert lsh_banding_for_threshold(0.4) == (64, 2)
    for t in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        b, r = lsh_banding_for_threshold(t)
        assert b * r == 128
        assert _miss(t, b, r) <= 1e-4, (t, b, r)
    # the fixed 32x4 really does collapse at 0.5 (the bug being fixed)
    assert _miss(0.5, 32, 4) > 0.1


def test_minhash_low_threshold_recall():
    """Pairs at trigram J ~= 0.49 must surface when threshold=0.45 —
    under the old fixed 32x4 banding each such pair was missed with
    p ~= 0.16 (expected ~3 of 20 missing); the auto 64x2 banding
    misses ~2e-17. Deterministic: fixed permutations + fixed texts."""
    rng = np.random.default_rng(42)
    vocab = [f"w{i}" for i in range(4000)]
    ids, texts = [], []
    want = set()
    for p in range(20):
        # shared 40-token prefix + 20 unique tail tokens each:
        # 38 shared trigrams of 58 per doc -> J = 38/78 ~= 0.487
        prefix = rng.choice(vocab, 40, replace=False).tolist()
        only_a = [f"a{p}x{i}" for i in range(20)]
        only_b = [f"b{p}x{i}" for i in range(20)]
        ids += [2 * p, 2 * p + 1]
        texts += [" ".join(prefix + only_a), " ".join(prefix + only_b)]
        want.add((2 * p, 2 * p + 1))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    got = {(r["d1"], r["d2"])
           for r in minhash_lsh_pairs(ds, "text", "doc_id", k=3,
                                      threshold=0.45).take_all()}
    assert want <= got


def test_ngram_governor_escalation_respects_low_threshold():
    """Hot-doc pairs escalated through LSH keep recall when the caller
    asks for a LOW threshold (the banding now follows the threshold)."""
    boiler = " ".join(f"x{i}" for i in range(30))
    ids, texts = [], []
    # 40 docs all sharing the same 30-token boilerplate -> every
    # boilerplate trigram is hot at max_posting=8, so EVERY pair is
    # hot x hot and rides the LSH escalation. 13 unique tail tokens
    # per doc put each pair at J = 28 / (41 + 41 - 28) ~= 0.519: the
    # old fixed 32x4 banding missed such a pair with p ~= 0.09
    # (expected ~70 of 780 pairs absent); the threshold-scaled 64x2
    # banding misses with p ~= 2e-9.
    for i in range(40):
        ids.append(i)
        texts.append(boiler + " " + " ".join(f"u{i}y{j}"
                                             for j in range(13)))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    got = ngram_jaccard_pairs(ds, "text", "doc_id", k=3, threshold=0.45,
                              max_posting=8).take_all()
    pairs = {(r["d1"], r["d2"]): r["jaccard"] for r in got}
    assert len(pairs) == 40 * 39 // 2
    for v in pairs.values():
        assert abs(v - 28 / 54) < 1e-9


# ---------------------------------------------------------------------------
# substring: 128-bit gram identity
# ---------------------------------------------------------------------------

def test_lgram_table_double_hash_columns():
    from batch_geocode_ray.stages.substring import _lgram_table

    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["abcdefghij", "abcdefghij"], pa.string()),
    })
    out = _lgram_table(t, "text", "doc_id", L=5)
    assert set(out.column_names) == {"h", "h2", "doc", "cnt"}
    # identical texts -> identical (h, h2) multisets per doc
    rows = sorted(zip(out["doc"].to_pylist(), out["h"].to_pylist(),
                      out["h2"].to_pylist()))
    d1 = [(h, h2) for d, h, h2 in rows if d == 1]
    d2 = [(h, h2) for d, h, h2 in rows if d == 2]
    assert d1 == d2 and len(d1) == 6
    # distinct grams -> distinct identities on BOTH hashes (h2 is not a
    # function of h: different bases)
    assert len({h for h, _ in d1}) == 6
    assert len({h2 for _, h2 in d1}) == 6


def test_roll_hashes_bases_independent():
    from batch_geocode_ray.stages.substring import (
        _B, _B2, _B_INV, _B2_INV, _roll_hashes)

    by = (np.frombuffer(b"the quick brown fox jumps", np.uint8)
          .astype(np.uint64) + np.uint64(1))
    h1 = _roll_hashes(by, 8, _B, _B_INV)
    h2 = _roll_hashes(by, 8, _B2, _B2_INV)
    assert len(h1) == len(h2) == len(by) - 7
    assert not np.array_equal(h1, h2)
    # each matches a direct Horner evaluation of
    # sum_j by[i+j] * base^(L-1-j)
    for base, got in ((_B, h1), (_B2, h2)):
        for i in (0, 5, len(h1) - 1):
            acc = np.uint64(0)
            with np.errstate(over="ignore"):
                for j in range(8):
                    acc = acc * base + by[i + j]
            assert acc == got[i]


# ---------------------------------------------------------------------------
# equi_join semi/anti: plan-independent key handling
# ---------------------------------------------------------------------------

def _str_tables():
    big = rd.from_arrow(pa.table({
        "u": pa.array([f"url{i % 7}" for i in range(50)], pa.string()),
        "x": pa.array(range(50), pa.int64()),
    })).repartition(4)
    keys = rd.from_arrow(pa.table({
        "u": pa.array(["url1", "url3", "urlMISSING"], pa.string())}))
    return big, keys


def test_semi_anti_join_string_keys_both_plans(monkeypatch):
    big, keys = _str_tables()
    want_semi = sorted(i for i in range(50) if i % 7 in (1, 3))
    want_anti = sorted(i for i in range(50) if i % 7 not in (1, 3))

    def run():
        semi = sorted(r["x"] for r in
                      equi_join(big, keys, "u", "semi").take_all())
        anti = sorted(r["x"] for r in
                      equi_join(big, keys, "u", "anti").take_all())
        return semi, anti

    assert run() == (want_semi, want_anti)          # broadcast plan
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    assert run() == (want_semi, want_anti)          # exchange plan
    # output schema unchanged (no internal hash column leaks)
    out = equi_join(big, keys, "u", "semi").take_all()
    assert set(out[0].keys()) == {"u", "x"}


def test_semi_anti_join_bad_key_type_raises_on_both_plans(monkeypatch):
    big = rd.from_arrow(pa.table({
        "k": pa.array([1.5, 2.5], pa.float64())}))
    keys = rd.from_arrow(pa.table({
        "k": pa.array([1.5], pa.float64())}))
    with pytest.raises(TypeError, match="integer or string"):
        equi_join(big, keys, "k", "semi")
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    with pytest.raises(TypeError, match="integer or string"):
        equi_join(big, keys, "k", "semi")


# ---------------------------------------------------------------------------
# pca_project: empty input error is the designed one
# ---------------------------------------------------------------------------

def test_pca_project_empty_input_raises_value_error():
    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    with pytest.raises(ValueError, match="empty input"):
        pca_project(empty, "embedding", "vec_id", k=2)


# ---------------------------------------------------------------------------
# the exchange plan streams: no op materializes to choose it
# ---------------------------------------------------------------------------

def _docs_ds():
    texts = (["alpha beta gamma delta"] * 3
             + ["epsilon zeta eta theta"] * 2
             + [f"unique text number {i} with words" for i in range(20)])
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(5)


def _rows(ds):
    return sorted(tuple(sorted(r.items())) for r in ds.take_all())


def test_size_hint_skips_materialize_everywhere(monkeypatch):
    """On the exchange plan (``SMALL_COLLAPSE_BYTES = 0``) no op in this
    family may call Dataset.materialize at ALL (plan construction or
    execution): the plans are chosen from the estimate."""
    from ray.data import Dataset

    from batch_geocode_ray.stages.dedup import (
        edit_distance_pairs,
        exact_dedup,
        fingerprint_dup_pairs,
        minhash_lsh_pairs,
        simhash_pairs,
    )
    from batch_geocode_ray.pipelines.queries import _sort_adaptive

    docs = _docs_ds()

    plans = {
        "exact_dedup": lambda: exact_dedup(docs, "text", "doc_id"),
        "fingerprint_dup_pairs": lambda: fingerprint_dup_pairs(
            docs, "text", "doc_id"),
        "simhash_pairs": lambda: simhash_pairs(docs, "text", "doc_id"),
        "edit_distance_pairs": lambda: edit_distance_pairs(
            docs, "text", "doc_id", max_dist=1),
        "minhash_lsh_pairs": lambda: minhash_lsh_pairs(
            docs, "text", "doc_id"),
        "sort_adaptive": lambda: _sort_adaptive(docs, "doc_id"),
    }

    want = {name: _rows(fn()) for name, fn in plans.items()}

    real_materialize = Dataset.materialize

    def forbidden(self, *a, **kw):
        raise AssertionError("materialize() called on the exchange plan")

    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    for name, fn in plans.items():
        monkeypatch.setattr(Dataset, "materialize", forbidden)
        try:
            got = _rows(fn())
        finally:
            monkeypatch.setattr(Dataset, "materialize", real_materialize)
        assert got == want[name], name


def test_connected_components_hint_same_result(monkeypatch):
    from batch_geocode_ray.stages.graph import connected_components

    edges = rd.from_arrow(pa.table({
        "a": pa.array([1, 2, 3, 10, 11, 20], pa.int64()),
        "b": pa.array([2, 3, 4, 11, 12, 21], pa.int64()),
    })).repartition(3)
    want = sorted((r["node"], r["label"]) for r in
                  connected_components(edges, "a", "b").take_all())
    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    got = sorted((r["node"], r["label"]) for r in
                 connected_components(edges, "a", "b").take_all())
    assert got == want
    assert want[0] == (1, 1)


# ---------------------------------------------------------------------------
# PIP grid directory: the probe is sublinear in polygons
# ---------------------------------------------------------------------------

def _grid_polygon_table(side):
    """side x side unit squares; admin_id = row-major cell index."""
    ids, lons, lats = [], [], []
    for j in range(side):
        for i in range(side):
            ids.append(j * side + i)
            lons.append([float(i), float(i + 1), float(i + 1),
                         float(i), float(i)])
            lats.append([float(j), float(j), float(j + 1),
                         float(j + 1), float(j)])
    return pa.table({
        "admin_id": pa.array(ids, pa.int64()),
        "admin_level": pa.array([1] * len(ids), pa.int64()),
        "cc": pa.array([f"c{i % 97}" for i in ids], pa.string()),
        "ring_lons": pa.array(lons, pa.list_(pa.float64())),
        "ring_lats": pa.array(lats, pa.list_(pa.float64())),
    })


def test_pip_tree_descent_correct_and_sublinear():
    """The multi-level grid directory answers a clustered batch from a
    handful of cells, not the whole polygon set."""
    from batch_geocode_ray.stages.pip import PolygonIndex

    side = 320                      # 102,400 polygons
    n_polygons = side * side
    idx = PolygonIndex(_grid_polygon_table(side))
    assert len(idx.admin_id) == n_polygons
    # unit squares: one level of unit cells, each square in its 2x2
    assert idx.grid_levels.tolist() == [0]
    assert len(idx.cell_key) == 4 * n_polygons

    rng = np.random.default_rng(3)
    # clustered batch: points inside a 4x4-cell window (strict interior)
    cx, cy = 100, 200
    px = cx + rng.uniform(0.05, 3.95, 1000)
    py = cy + rng.uniform(0.05, 3.95, 1000)
    ids, levels, cc = idx.assign(px, py)
    want = (np.floor(py).astype(np.int64) * side
            + np.floor(px).astype(np.int64))
    assert np.array_equal(ids, want)
    assert (levels == 1).all()
    assert cc[0].as_py() == f"c{int(want[0]) % 97}"
    # a 4x4-cell window touches at most 16 non-empty cells
    assert idx.last_leaf_visits < n_polygons // 100, idx.last_leaf_visits

    # scattered batch incl. points outside every polygon
    px2 = rng.uniform(-5, side + 5, 500)
    py2 = rng.uniform(-5, side + 5, 500)
    ids2, levels2, _ = idx.assign(px2, py2)
    inside = ((px2 >= 0) & (px2 <= side) & (py2 >= 0) & (py2 <= side))
    strict = (inside & (px2 % 1 != 0) & (py2 % 1 != 0))
    want2 = np.floor(py2).astype(np.int64) * side \
        + np.floor(px2).astype(np.int64)
    assert np.array_equal(ids2[strict], want2[strict])
    assert (ids2[~inside] == -1).all()
    assert (levels2[~inside] == -1).all()


def test_pip_tree_matches_flat_scan_small():
    """Nested polygons on several grid levels answer exactly as the
    flat scan of tests/oracle.py, including points on every unit grid
    line (polygon edges and cell boundaries)."""
    from batch_geocode_ray.stages.pip import PolygonIndex
    from .oracle import oracle_pip_assign

    t = _grid_polygon_table(7)      # 49 unit squares, admin_level 1
    nested = pa.table({             # one 7x7 (level 0), two 3x3 (level 2)
        "admin_id": pa.array([1000, 1001, 1002], pa.int64()),
        "admin_level": pa.array([0, 2, 2], pa.int64()),
        "cc": pa.array(["all", "a", "b"], pa.string()),
        "ring_lons": pa.array([[0., 7., 7., 0.], [1., 4., 4., 1.],
                               [3., 6., 6., 3.]], pa.list_(pa.float64())),
        "ring_lats": pa.array([[0., 0., 7., 7.], [1., 1., 4., 4.],
                               [2., 2., 5., 5.]], pa.list_(pa.float64())),
    })
    t = pa.concat_tables([t, nested])
    idx = PolygonIndex(t)
    assert len(idx.grid_levels) >= 3
    rng = np.random.default_rng(11)
    px = np.concatenate([rng.uniform(-1, 8, 400),
                         rng.integers(-1, 9, 200).astype(np.float64)])
    py = np.concatenate([rng.uniform(-1, 8, 400), rng.uniform(-1, 8, 200)])
    ids, lv, cc = idx.assign(px, py)
    polys = t.to_pylist()
    want = [oracle_pip_assign(x, y, polys) for x, y in zip(px, py)]
    assert list(zip(ids.tolist(), lv.tolist(), cc.to_pylist())) == want


# ---------------------------------------------------------------------------
# PNG codec (stdlib zlib + numpy): round trip across every filter type
# ---------------------------------------------------------------------------

def _test_images():
    rng = np.random.default_rng(9)
    gray = rng.integers(0, 256, (13, 17), dtype=np.uint8)
    rgb = rng.integers(0, 256, (9, 5, 3), dtype=np.uint8)
    rgba = rng.integers(0, 256, (6, 11, 4), dtype=np.uint8)
    # gradient images exercise the predictive filters non-trivially
    grad = (np.arange(16)[:, None] * 7 + np.arange(24)[None, :] * 3) \
        .astype(np.uint8)
    return {"gray": gray, "rgb": rgb, "rgba": rgba, "grad": grad}


def test_png_roundtrip_all_filters():
    from batch_geocode_ray.stages.multimodal import decode_png, make_png

    for name, img in _test_images().items():
        for f in range(5):
            payload = make_png(img, filter_type=f)
            got = decode_png(payload)
            if img.ndim == 2:
                assert np.array_equal(got, img), (name, f)
            elif img.shape[2] == 3:
                assert np.array_equal(
                    got, img.mean(axis=2).astype(np.uint8)), (name, f)
            else:  # RGBA -> alpha dropped, channels averaged
                assert np.array_equal(
                    got, img[..., :3].mean(axis=2).astype(np.uint8)), \
                    (name, f)


def test_png_known_bytes_pin():
    """Chunk layout pinned against a literal: a 2x2 gray image with
    filter 0 must produce exactly these bytes (signature, IHDR, zlib
    level-6 IDAT, IEND with CRCs) — and decode back."""
    from batch_geocode_ray.stages.multimodal import decode_png, make_png
    import struct
    import zlib
    import binascii

    img = np.array([[0, 128], [255, 64]], dtype=np.uint8)
    payload = make_png(img, filter_type=0)
    sig = b"\x89PNG\r\n\x1a\n"
    ihdr_data = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    idat_data = zlib.compress(b"\x00\x00\x80\x00\xff\x40")

    def chunk(t, d):
        return (struct.pack(">I", len(d)) + t + d
                + struct.pack(">I", binascii.crc32(t + d) & 0xFFFFFFFF))

    want = (sig + chunk(b"IHDR", ihdr_data) + chunk(b"IDAT", idat_data)
            + chunk(b"IEND", b""))
    assert payload == want
    assert np.array_equal(decode_png(payload), img)


def test_png_unsupported_raise_named():
    from batch_geocode_ray.stages.multimodal import decode_png, make_png
    import struct

    img = np.zeros((2, 2), np.uint8)
    good = make_png(img)
    # 16-bit depth
    bad = bytearray(good)
    bad[8 + 8 + 8] = 16  # IHDR depth byte
    with pytest.raises(NotImplementedError, match="bit depth"):
        decode_png(bytes(bad))
    # palette color type
    bad = bytearray(good)
    bad[8 + 8 + 9] = 3
    with pytest.raises(NotImplementedError, match="palette"):
        decode_png(bytes(bad))
    # interlaced
    bad = bytearray(good)
    bad[8 + 8 + 12] = 1
    with pytest.raises(NotImplementedError, match="interlaced"):
        decode_png(bytes(bad))
    with pytest.raises(ValueError, match="not a PNG"):
        decode_png(b"JUNK" * 4)


def test_image_features_real_decodes_png():
    from batch_geocode_ray.stages.multimodal import ImageFeatures, make_png

    img = (np.arange(64 * 48).reshape(64, 48) % 256).astype(np.uint8)
    batch = pa.table({
        "media_id": pa.array([1], pa.int64()),
        "image": pa.array([make_png(img, filter_type=4)], pa.binary()),
        "mime": pa.array(["image/png"], pa.string()),
        "width": pa.array([48], pa.int32()),
        "height": pa.array([64], pa.int32()),
    })
    out = ImageFeatures()(batch)
    assert abs(out["pixel_mean"][0].as_py() - img.mean()) < 1e-9
    assert "image" not in out.column_names  # payload dropped
    with pytest.raises(NotImplementedError, match="jpeg"):
        ImageFeatures()(batch.set_column(
            1, "image", pa.array([b"\xff\xd8\xff\xe0JFIF"], pa.binary())))


def test_minhash_hint_streams_and_matches(monkeypatch):
    """On the exchange plan (``SMALL_COLLAPSE_BYTES = 0``) the signature
    table is never materialized (the plan choice AND the verify-text
    source are stream-only) and the pairs are exactly the one-task
    plan's."""
    from ray.data import Dataset

    docs = _docs_ds()

    def run():
        out = minhash_lsh_pairs(docs, "text", "doc_id", k=3,
                                threshold=0.8)
        return sorted((r["d1"], r["d2"]) for r in out.take_all())

    want_tri = run()
    assert want_tri  # planted dups exist in _docs_ds

    real = Dataset.materialize

    def forbidden(self, *a, **kw):
        raise AssertionError("materialize() called on the exchange plan")

    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    monkeypatch.setattr(Dataset, "materialize", forbidden)
    try:
        got_tri = run()
    finally:
        monkeypatch.setattr(Dataset, "materialize", real)
    assert got_tri == want_tri


def test_semi_anti_join_hint_streams(monkeypatch):
    """The exchange-plan semi/anti join (``SMALL_COLLAPSE_BYTES = 0``)
    never materializes (key projection OR the lookup-join exchange) and
    matches the broadcast plan, for both int and string keys."""
    from ray.data import Dataset

    big_i = rd.from_arrow(pa.table({
        "k": pa.array([i % 11 for i in range(200)], pa.int64()),
        "v": pa.array(range(200), pa.int64()),
    })).repartition(4)
    keys_i = rd.from_arrow(pa.table({
        "k": pa.array([1, 4, 7, 99], pa.int64())}))
    big_s, keys_s = _str_tables()

    def run():
        a = sorted(r["v"] for r in equi_join(
            big_i, keys_i, "k", "semi").take_all())
        b = sorted(r["v"] for r in equi_join(
            big_i, keys_i, "k", "anti").take_all())
        c = sorted(r["x"] for r in equi_join(
            big_s, keys_s, "u", "semi").take_all())
        return a, b, c

    want = run()
    real = Dataset.materialize

    def forbidden(self, *a, **kw):
        raise AssertionError("materialize() called on the exchange plan")

    monkeypatch.setattr(exchange, "SMALL_COLLAPSE_BYTES", 0)
    monkeypatch.setattr(Dataset, "materialize", forbidden)
    try:
        got = run()
    finally:
        monkeypatch.setattr(Dataset, "materialize", real)
    assert got == want
    assert want[0]  # semi join non-empty


def test_simhash64_batch_equals_per_row():
    from batch_geocode_ray.functions.hashing import simhash64_batch

    from .reference import simhash64

    rng = np.random.default_rng(17)
    hashes = rng.integers(0, 2 ** 63, 5000, dtype=np.int64) \
        .astype(np.uint64)
    parents = np.sort(rng.integers(0, 40, 5000))
    got = simhash64_batch(hashes, parents, 42)  # rows 40, 41 empty
    for d in range(42):
        want = simhash64(hashes[parents == d])
        assert int(got[d]) == want, d
    assert int(got[40]) == 0 and int(got[41]) == 0


def test_shingle_hashes_batch_equals_per_row():
    from batch_geocode_ray.functions.hashing import shingle_hashes_batch

    from .reference import shingle_hashes

    rng = np.random.default_rng(23)
    # ragged docs incl. len < k (emit nothing) and len == k
    lens = [0, 1, 2, 3, 4, 17, 2, 3, 50]
    hashes, parents = [], []
    for d, ln in enumerate(lens):
        hashes.append(rng.integers(0, 2 ** 63, ln).astype(np.uint64))
        parents.append(np.full(ln, d, np.int64))
    flat = np.concatenate(hashes)
    par = np.concatenate(parents)
    g, gp = shingle_hashes_batch(flat, par, 3)
    want = {d: sorted(shingle_hashes(hashes[d], 3).tolist())
            for d in range(len(lens)) if lens[d] >= 3}
    got: dict[int, list] = {}
    for h, d in zip(g.tolist(), gp.tolist()):
        got.setdefault(d, []).append(h)
    assert got == want
    # empty input
    e_g, e_p = shingle_hashes_batch(np.empty(0, np.uint64),
                                    np.empty(0, np.int64), 3)
    assert len(e_g) == 0 and len(e_p) == 0


def test_minhash_signatures_batch_equals_per_row():
    """The vectorized MinHashSignatures must produce BIT-identical
    signatures to the per-row reference (shingle_hashes +
    minhash_signature per document), including empty and <k-token
    docs."""
    from batch_geocode_ray.functions.hashing import (
        minhash_permutation_params,
        stable_hash64_array,
    )
    from batch_geocode_ray.stages.dedup import NUM_PERM, MinHashSignatures

    from .reference import minhash_signature, shingle_hashes

    from .oracle import ascii_tokens

    texts = ["", "one", "two tokens", "exactly three tokens",
             "a longer document with many more tokens inside it",
             "one", "  ", "dup dup dup dup"]
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    got = MinHashSignatures("text", "doc_id", k=3)(batch)
    sig = np.asarray(got["signature"].combine_chunks().flatten()
                     .to_numpy(zero_copy_only=False)) \
        .reshape(len(texts), NUM_PERM).astype(np.uint64)

    a, b = minhash_permutation_params(NUM_PERM)
    for d, text in enumerate(texts):
        hashes = stable_hash64_array(pa.array(ascii_tokens(text), pa.string()))
        want = minhash_signature(shingle_hashes(hashes, 3), a, b)
        assert np.array_equal(sig[d], want), d
