"""Seeded benchmark inputs, generated once per (seed, scale) and cached.

The geocode world is fixed: the engine's default ``generate_world()``
(the ROADMAP baseline world) plus a dense admin layer built from it, so
every seed runs against the same gazetteer and polygons. The seed picks
the page shards (the engine's own fixture generator,
``batch_geocode_ray.sources.fixtures``) and the exchange tables
(generated here with seeded NumPy only).

Cache layout under ``<checkout>/.pbcache/inputs/``::

    world/{gazetteer,admin_polygons,facilities}.parquet
    world/dense_polygons.parquet      world polygons + ~10^4 level-2 cells
    world/warm.parquet                the set-up warm-up shard
    s<seed>-x<scale>/pages<PAGE_SHARDS>/pages-NNNNN.parquet   page shards (5k rows at scale 1)
    s<seed>-x<scale>/{probe_tables,warm_tables}/   exchange tables

A component is complete when its ``.done`` marker exists, so an
interrupted run regenerates only what it did not finish.
"""

from __future__ import annotations

import datetime as dt
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORLD_SEED = 42          # generate_world()'s default
PAGES_PER_SHARD = 5_000
# 12 shards of 5k pages are ~13.5 MiB. The engine's read sizing
# (``_read_num_blocks``: one block per whole MiB, at most 3 per CPU) cuts
# them into 12 blocks for every seed on 4 CPUs: three even waves. Fewer
# shards sit near a whole-MiB edge where seeds flip the block count, and
# 7 blocks on 4 CPUs leave one CPU idle in the second wave.
PAGE_SHARDS = 12         # shards per seed; the pipeline reads all of them
WARM_PAGES = 500
DENSE_PER_CITY = 250     # x 40 cities -> 10^4 level-2 polygons
KEEP_INPUT_SETS = 12     # cached seeds kept; older ones are pruned

# Row counts of the exchange tables at table scale 1 (the shapes of the
# sf0.1 tables the queries were written against).
TABLE_ROWS = {"documents": 5_000, "embeddings": 2_000,
              "events": 100_000, "lineitem": 600_000}

_WORDS = ("batch part spark line column order small sort fast value scan a "
          "hash slow group agg filter query big key window row table stream "
          "merge data vector customer the join dup").split()
_LANGS = ["en", "es", "fr", "de", "zh"]
_EVENT_TYPES = ["view", "click", "purchase", "signup", "error"]


def _done(path: str) -> bool:
    return os.path.exists(os.path.join(path, ".done"))


def _mark(path: str) -> None:
    with open(os.path.join(path, ".done"), "w") as f:
        f.write("ok\n")


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class InputSet:
    """Paths of one seed's inputs; ``ensure_*`` methods generate lazily."""

    def __init__(self, cache_root: str, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.root = os.path.join(cache_root, "inputs", f"s{seed}-x{scale:g}")
        self.world_dir = os.path.join(cache_root, "inputs", "world")
        self.pages_dir = os.path.join(self.root, f"pages{PAGE_SHARDS}")
        self.warm_path = os.path.join(self.world_dir, "warm.parquet")
        self.rows_per_shard = max(100, int(PAGES_PER_SHARD * scale))
        os.makedirs(self.root, exist_ok=True)
        _prune(os.path.dirname(self.root), keep=[self.root, self.world_dir])

    # -- geocode world ------------------------------------------------
    def ensure_world(self) -> None:
        """World tables, dense admin layer and the warm-up shard."""
        if _done(self.world_dir):
            return
        from batch_geocode_ray.sources.fixtures import (
            generate_pages,
            generate_world,
        )

        d = _fresh_dir(self.world_dir)
        world = generate_world(WORLD_SEED)
        pq.write_table(world.gazetteer, os.path.join(d, "gazetteer.parquet"))
        pq.write_table(world.admin_polygons, os.path.join(d, "admin_polygons.parquet"))
        pq.write_table(world.facilities, os.path.join(d, "facilities.parquet"))
        pq.write_table(dense_admin_polygons(world),
                       os.path.join(d, "dense_polygons.parquet"))
        [path] = generate_pages(os.path.join(d, "warm"), WARM_PAGES, seed=WORLD_SEED,
                                rows_per_file=WARM_PAGES, world=world)
        os.replace(path, self.warm_path)
        os.rmdir(os.path.join(d, "warm"))
        _mark(d)

    def world_tables(self, dense: bool = False) -> tuple[pa.Table, pa.Table, pa.Table]:
        polys = "dense_polygons" if dense else "admin_polygons"
        return tuple(pq.read_table(os.path.join(self.world_dir, f"{name}.parquet"))
                     for name in ("gazetteer", polys, "facilities"))

    # -- page shards --------------------------------------------------
    def ensure_pages(self) -> None:
        """The seed's PAGE_SHARDS page shards; with a live Ray session
        they generate as parallel Ray tasks."""
        if _done(self.pages_dir):
            return
        from batch_geocode_ray.sources.fixtures import (
            generate_pages,
            generate_world,
        )

        d = _fresh_dir(self.pages_dir)
        generate_pages(d, PAGE_SHARDS * self.rows_per_shard, seed=self.seed,
                       rows_per_file=self.rows_per_shard,
                       world=generate_world(WORLD_SEED))
        _mark(d)

    def page_files(self) -> list[str]:
        files = sorted(f for f in os.listdir(self.pages_dir) if f.endswith(".parquet"))
        return [os.path.join(self.pages_dir, f) for f in files]

    # -- exchange tables ----------------------------------------------
    def ensure_tables(self, table_scale: float, name: str) -> str:
        d = os.path.join(self.root, name)
        if not _done(d):
            _fresh_dir(d)
            write_exchange_tables(d, self.seed, table_scale * self.scale)
            _mark(d)
        return d


def _prune(parent: str, keep: list[str]) -> None:
    """Drop the oldest cached seeds beyond :data:`KEEP_INPUT_SETS`."""
    sets = sorted((os.path.join(parent, n) for n in os.listdir(parent)),
                  key=os.path.getmtime, reverse=True)
    for path in sets[KEEP_INPUT_SETS:]:
        if path not in keep:
            shutil.rmtree(path, ignore_errors=True)


def dense_admin_polygons(world) -> pa.Table:
    """World polygons plus DENSE_PER_CITY small non-convex level-2 star
    polygons scattered within ~0.5 degrees of every city, where the
    vetted best points land. Each cell hangs under its city's first
    province, so the deepest-level rule picks it whenever it contains
    the point."""
    base = world.admin_polygons
    rng = np.random.RandomState(WORLD_SEED)
    n_base = base.num_rows
    aid, level, parent, cc, ring_lons, ring_lats = [], [], [], [], [], []
    base_cc = base["cc"].to_pylist()
    for c in range(len(world.city_lat)):
        for _ in range(DENSE_PER_CITY):
            n_vert = int(rng.randint(7, 13))
            ang = np.sort(rng.uniform(0, 2 * np.pi, n_vert))
            radius = rng.uniform(0.01, 0.05) * rng.uniform(0.4, 1.0, n_vert)
            cy = world.city_lat[c] + rng.uniform(-0.5, 0.5)
            cx = world.city_lon[c] + rng.uniform(-0.5, 0.5)
            aid.append(n_base + len(aid))
            level.append(2)
            parent.append(c * 3 + 1)
            cc.append(base_cc[c * 3])
            ring_lons.append((cx + radius * np.cos(ang)
                              / max(np.cos(np.radians(cy)), 0.2)).tolist())
            ring_lats.append((cy + radius * np.sin(ang)).tolist())
    dense = pa.table({
        "admin_id": pa.array(aid, pa.int64()),
        "admin_level": pa.array(level, pa.int32()),
        "parent_id": pa.array(parent, pa.int64()),
        "cc": pa.array(cc, pa.string()),
        "ring_lons": pa.array(ring_lons, pa.list_(pa.float64())),
        "ring_lats": pa.array(ring_lats, pa.list_(pa.float64())),
    })
    return pa.concat_tables([base, dense.cast(base.schema)])


def write_exchange_tables(out_dir: str, seed: int, scale: float) -> None:
    """documents / embeddings / events / lineitem with the columns the
    exchange queries read, shaped like the sf0.1 tables at ``scale`` 1:
    ~5% of documents are one-token edits of an earlier one (so the
    near-duplicate joins have work), embeddings are unit vectors in ten
    loose clusters, events spread over 30 days of 1500 users."""
    rng = np.random.RandomState(seed + 15_485_863)
    rows = {t: max(50, int(n * scale)) for t, n in TABLE_ROWS.items()}

    n = rows["documents"]
    docs: list[list[str]] = []
    for i in range(n):
        if i and rng.rand() < 0.05:
            toks = list(docs[int(rng.randint(0, i))])
            toks[int(rng.randint(0, len(toks)))] = _WORDS[int(rng.randint(0, len(_WORDS)))]
        else:
            toks = [_WORDS[j] for j in rng.randint(0, len(_WORDS), int(rng.randint(5, 100)))]
        docs.append(toks)
    text = [" ".join(t) for t in docs]
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(text, pa.string()),
        "lang": pa.array([_LANGS[j] for j in rng.randint(0, len(_LANGS), n)], pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
        "n_chars": pa.array([len(t) for t in text], pa.int64()),
    }), os.path.join(out_dir, "documents.parquet"))

    n = rows["embeddings"]
    labels = rng.randint(0, 10, n)
    centers = rng.normal(size=(10, 64))
    vecs = rng.normal(size=(n, 64)) + 0.35 * centers[labels]
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.ListArray.from_arrays(
            pa.array(np.arange(0, 64 * n + 1, 64), pa.int32()), pa.array(vecs.ravel())),
        "label": pa.array(labels, pa.int32()),
    }), os.path.join(out_dir, "embeddings.parquet"))

    n = rows["events"]
    users = max(10, int(1500 * scale))
    start_us = int(dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc).timestamp()) * 1_000_000
    ts = np.sort(start_us + rng.randint(0, 30 * 86_400 * 1_000_000, n, dtype=np.int64))
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.randint(0, users, n), pa.int64()),
        "event_type": pa.array([_EVENT_TYPES[j] for j in rng.randint(0, 5, n)], pa.string()),
        "value": pa.array(np.round(rng.uniform(1, 200, n), 2), pa.float64()),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.randint(0, 100, n)], pa.string()),
    }), os.path.join(out_dir, "events.parquet"))

    n = rows["lineitem"]
    pq.write_table(pa.table({
        "l_orderkey": pa.array(rng.randint(0, n // 4 + 1, n), pa.int64()),
        "l_extendedprice": pa.array(np.round(rng.uniform(900, 105_000, n), 2), pa.float64()),
        "l_returnflag": pa.array([("N", "A", "R")[j] for j in rng.randint(0, 3, n)], pa.string()),
    }), os.path.join(out_dir, "lineitem.parquet"))
