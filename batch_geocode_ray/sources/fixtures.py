"""Deterministic synthetic fixtures (FIXTURES.md F1-F4).

Everything is seeded NumPy RandomState — no wall clock, no network, no
ambient entropy — so every process (driver, Ray workers, tests, bench at
two parallelism levels) regenerates byte-identical tables.

Tables produced:
  pages(url, warc_ts, html, text, lang)      — driver input_hint shape;
      ``text`` is the oracle extraction of ``html`` (extract_text_py),
      which the distributed pipeline must reproduce byte-identically.
  gazetteer(gazetteer_id, name, lat, lon, bb_n, bb_s, bb_e, bb_w, cc,
      type, population, source)              — offline stand-in for the
      reference's four web geocoders (query_funcs.py:361-506); the
      ``source`` column plays the GM/OSM/GN/FG role so the wide output
      keeps the reference's multi-source ``{source}{rank}_*`` layout.
  admin_polygons(admin_id, admin_level, parent_id, cc, ring_lons,
      ring_lats)                             — non-convex star polygons
      (country level 0, province level 1) for the PIP broadcast join.
  facilities(facility_id, name, lat, lon, facility_type) — kNN targets,
      clustered near cities plus isolated remotes.

Skew knob: place 0 ("the mega-city") receives ~40% of all mentions, so
tile aggregation and matcher stages see a hot cell (SURVEY §4).
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from batch_geocode_ray.functions.text import extract_text_py

SOURCES = ["GM", "OSM", "GN", "FG"]
LANGS = ["en", "es", "fr", "de", "pt"]
_CCS = [
    "US", "GB", "CA", "AU", "NZ", "IE", "IN", "ZA",
    "ES", "MX", "AR", "CO", "PE", "CL", "EC", "BO",
    "FR", "BE", "SN", "CI", "ML", "NE", "TD", "MG",
    "DE", "AT", "CH", "PL", "CZ", "HU", "RO", "BG",
    "PT", "BR", "AO", "MZ", "GW", "TL", "CV", "ST",
]
# lang -> plausible country set (J2 country-filter prior; a candidate
# whose cc is missing is kept — the reference's OSM keep-unsure rule,
# query_funcs.py:411-422).
LANG_CC_PRIOR: dict[str, frozenset[str]] = {
    "en": frozenset(_CCS[0:8]),
    "es": frozenset(_CCS[8:16]),
    "fr": frozenset(_CCS[16:24]),
    "de": frozenset(_CCS[24:32]),
    "pt": frozenset(_CCS[32:40]),
}

_SYL = ["bel", "dor", "cas", "sia", "mar", "ven", "tol", "ria",
        "gan", "oso", "lim", "ker", "zan", "fur", "nep", "tis"]
_PREFIX = ["Port", "San", "New", "Fort", "Lake", "Mount", "East", "West"]
_FILLER = ("travel news report local market weather story update people road house "
           "river year music health food work school garden bridge light").split()

N_CITIES = 40
N_PLACES = 400


def _place_names(n: int) -> list[str]:
    """n distinct deterministic place names, mostly two-token."""
    cores = ["".join(c).capitalize() for c in itertools.product(_SYL, _SYL)]
    names = []
    for i in range(n):
        core = cores[i % len(cores)]
        pre = _PREFIX[(i * 7) % len(_PREFIX)]
        names.append(f"{pre} {core}" if i % 5 != 4 else f"{core}ville")
    return names


@dataclass
class World:
    gazetteer: pa.Table
    admin_polygons: pa.Table
    facilities: pa.Table
    place_names: list[str]       # index-aligned with gazetteer_id
    city_of_place: np.ndarray    # gazetteer_id -> city index
    city_lat: np.ndarray
    city_lon: np.ndarray


def generate_world(seed: int = 42) -> World:
    rng = np.random.RandomState(seed)
    city_lat = rng.uniform(-55, 65, size=N_CITIES)
    city_lon = rng.uniform(-175, 175, size=N_CITIES)
    city_cc = [_CCS[i % len(_CCS)] for i in range(N_CITIES)]

    names = _place_names(N_PLACES)
    # ~20% of names are duplicated into a second source at the same city
    # (multi-provider agreement -> pooled composite best) and another
    # ~10% duplicated in a DIFFERENT country (ambiguity -> the country
    # filter / vetting decide).
    gid, gname, glat, glon = [], [], [], []
    gbbn, gbbs, gbbe, gbbw = [], [], [], []
    gcc, gtype, gpop, gsource = [], [], [], []
    city_of = []

    def add(name, city, source, jitter, bbox_half, cc, typ, pop):
        lat = float(np.clip(city_lat[city] + jitter[0], -89.9, 89.9))
        lon = float(np.clip(city_lon[city] + jitter[1], -179.9, 179.9))
        gid.append(len(gid))
        gname.append(name)
        glat.append(lat)
        glon.append(lon)
        if bbox_half > 0:
            gbbn.append(lat + bbox_half); gbbs.append(lat - bbox_half)
            gbbe.append(lon + bbox_half); gbbw.append(lon - bbox_half)
        else:
            gbbn.append(None); gbbs.append(None); gbbe.append(None); gbbw.append(None)
        gcc.append(cc)
        gtype.append(typ)
        gpop.append(pop)
        gsource.append(source)
        city_of.append(city)

    for i, name in enumerate(names):
        city = int(rng.randint(0, N_CITIES))
        src = SOURCES[i % len(SOURCES)]
        is_admin = rng.rand() < 0.2
        big = rng.rand() < 0.3  # of admin areas, some too big -> vetted out
        bbox_half = 0.0 if not is_admin else (1.5 if big else 0.02)
        cc = None if rng.rand() < 0.05 else city_cc[city]
        typ = "admin_area" if is_admin else "populated_place"
        pop = int(rng.randint(1_000, 5_000_000))
        jit = rng.uniform(-0.03, 0.03, size=2)
        add(name, city, src, jit, bbox_half, cc, typ, pop)
        r = rng.rand()
        if r < 0.2:  # same city, second provider
            src2 = SOURCES[(i + 1) % len(SOURCES)]
            add(name, city, src2, rng.uniform(-0.03, 0.03, size=2), 0.0,
                cc, "populated_place", int(rng.randint(1_000, 5_000_000)))
        elif r < 0.3:  # same name, different country (ambiguous)
            city2 = int((city + 1 + rng.randint(0, N_CITIES - 1)) % N_CITIES)
            src2 = SOURCES[(i + 2) % len(SOURCES)]
            add(name, city2, src2, rng.uniform(-0.03, 0.03, size=2), 0.0,
                city_cc[city2], "populated_place", int(rng.randint(1_000, 5_000_000)))

    gazetteer = pa.table({
        "gazetteer_id": pa.array(gid, pa.int64()),
        "name": pa.array(gname, pa.string()),
        "lat": pa.array(glat, pa.float64()),
        "lon": pa.array(glon, pa.float64()),
        "bb_n": pa.array(gbbn, pa.float64()),
        "bb_s": pa.array(gbbs, pa.float64()),
        "bb_e": pa.array(gbbe, pa.float64()),
        "bb_w": pa.array(gbbw, pa.float64()),
        "cc": pa.array(gcc, pa.string()),
        "type": pa.array(gtype, pa.string()),
        "population": pa.array(gpop, pa.int64()),
        "source": pa.array(gsource, pa.string()),
    })

    # --- admin polygons: per city a level-0 "country" star polygon and
    # 2 nested level-1 "province" stars. Star radius varies by vertex ->
    # non-convex; vertices deterministic.
    aid, alevel, aparent, acc, ring_lons, ring_lats = [], [], [], [], [], []
    for c in range(N_CITIES):
        for level, (radius, parent) in enumerate([(1.2, None), (0.45, c * 3)]):
            for sub in range(1 if level == 0 else 2):
                k = len(aid)
                n_vert = 12
                ang = np.linspace(0, 2 * np.pi, n_vert, endpoint=False)
                wobble = 0.35 + 0.65 * ((np.sin(ang * 3 + c + sub) + 1) / 2)
                r = radius * wobble
                cx = city_lon[c] + (0.3 * sub if level else 0.0)
                cy = city_lat[c] + (0.2 * sub if level else 0.0)
                lons = cx + r * np.cos(ang) / max(np.cos(np.radians(cy)), 0.2)
                lats = cy + r * np.sin(ang)
                aid.append(k)
                alevel.append(level)
                aparent.append(parent)
                acc.append(city_cc[c])
                ring_lons.append(lons.tolist())
                ring_lats.append(lats.tolist())
    admin_polygons = pa.table({
        "admin_id": pa.array(aid, pa.int64()),
        "admin_level": pa.array(alevel, pa.int32()),
        "parent_id": pa.array(aparent, pa.int64()),
        "cc": pa.array(acc, pa.string()),
        "ring_lons": pa.array(ring_lons, pa.list_(pa.float64())),
        "ring_lats": pa.array(ring_lats, pa.list_(pa.float64())),
    })

    # --- facilities: ~24 per city + 40 remote isolates
    fid, fname, flat_, flon_, ftype = [], [], [], [], []
    for c in range(N_CITIES):
        for i in range(24):
            fid.append(len(fid))
            fname.append(f"facility_{c}_{i}")
            flat_.append(float(np.clip(city_lat[c] + rng.uniform(-0.4, 0.4), -89.9, 89.9)))
            flon_.append(float(np.clip(city_lon[c] + rng.uniform(-0.4, 0.4), -179.9, 179.9)))
            ftype.append(["clinic", "hospital", "lab"][i % 3])
    for i in range(40):
        fid.append(len(fid))
        fname.append(f"remote_{i}")
        flat_.append(float(rng.uniform(-60, 70)))
        flon_.append(float(rng.uniform(-179, 179)))
        ftype.append("outpost")
    facilities = pa.table({
        "facility_id": pa.array(fid, pa.int64()),
        "name": pa.array(fname, pa.string()),
        "lat": pa.array(flat_, pa.float64()),
        "lon": pa.array(flon_, pa.float64()),
        "facility_type": pa.array(ftype, pa.string()),
    })

    return World(gazetteer, admin_polygons, facilities, names,
                 np.asarray(city_of), city_lat, city_lon)


_HTML_HEAD = ("<html><head><title>{title}</title>"
              "<style>body {{ font: 14px serif; }}</style>"
              "<script>var x = 1 < 2; trackPage();</script></head><body>")


def _page_html(rng: np.random.RandomState, names: list[str], title_word: str) -> str:
    """One deterministic HTML page embedding 0-8 gazetteer mentions."""
    n_mentions = int(rng.randint(0, 9))
    # skew: the mega-city (place 0) takes ~40% of all mention slots
    picks = [0 if rng.rand() < 0.4 else int(rng.randint(0, len(names)))
             for _ in range(n_mentions)]
    parts = [_HTML_HEAD.format(title=f"{title_word} dispatch")]
    parts.append(f"<h1>{title_word.capitalize()} &amp; regional report</h1>")
    for i, p in enumerate(picks):
        filler = " ".join(_FILLER[int(rng.randint(0, len(_FILLER)))] for _ in range(6))
        nm = names[p]
        style = int(rng.randint(0, 3))
        if style == 0:
            parts.append(f"<p>{filler}, near {nm}.</p>")
        elif style == 1:
            parts.append(f"<p>{filler} &mdash; <b>{nm}</b> {filler}</p>")
        else:
            parts.append(f"<p>From {nm}: {filler}</p>")
    if rng.rand() < 0.3:  # distractor: name-like token glued to a suffix
        nm = names[int(rng.randint(0, len(names)))]
        parts.append(f"<p>see also {nm.replace(' ', '')}shire archives</p>")
    parts.append("</body></html>")
    return "".join(parts)


def _generate_shard(out_dir: str, shard: int, start: int, count: int,
                    seed: int, place_names: list[str]) -> str:
    """One parquet shard, deterministic from (seed, shard) alone — safe
    to generate serially or as a Ray task without changing bytes."""
    epoch_us = 1_600_000_000_000_000  # fixed; never wall-clock
    rng = np.random.RandomState((seed * 1_000_003 + shard) % (2**31 - 1))
    urls, htmls, texts, langs, ts = [], [], [], [], []
    lang_ids = rng.choice(len(LANGS), size=count, p=[0.4, 0.2, 0.15, 0.15, 0.1])
    for i in range(count):
        row = start + i
        h = hashlib.sha1(f"{seed}:{row}".encode()).hexdigest()[:12]
        urls.append(f"https://site{row % 97}.example/{h}")
        title_word = _FILLER[row % len(_FILLER)]
        html = _page_html(rng, place_names, title_word)
        htmls.append(html.encode("utf-8"))
        texts.append(extract_text_py(html))
        langs.append(LANGS[lang_ids[i]])
        ts.append(epoch_us + row * 1_000_000)
    table = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })
    path = os.path.join(out_dir, f"pages-{shard:05d}.parquet")
    pq.write_table(table, path)
    return path


def generate_pages(out_dir: str, n_pages: int, seed: int = 42,
                   rows_per_file: int = 5_000, world: World | None = None) -> list[str]:
    """Write the pages table as parquet shards; returns file paths.

    Shards are independently seeded from (seed, shard_index), so when a
    Ray session is live they generate in parallel as Ray tasks with
    byte-identical output to the serial path.
    """
    import ray

    world = world or generate_world(seed)
    os.makedirs(out_dir, exist_ok=True)
    spans = []
    shard = 0
    for start in range(0, n_pages, rows_per_file):
        spans.append((shard, start, min(rows_per_file, n_pages - start)))
        shard += 1

    if ray.is_initialized() and len(spans) > 1:
        gen = ray.remote(num_cpus=1)(_generate_shard)
        names_ref = ray.put(world.place_names)
        return ray.get([
            gen.remote(out_dir, sh, st, ct, seed, names_ref)
            for sh, st, ct in spans])
    return [_generate_shard(out_dir, sh, st, ct, seed, world.place_names)
            for sh, st, ct in spans]


_FIXTURE_VERSION = "v2"  # v2: 5k-row shards (read parallelism), parallel gen


def fixture_dir_path(n_pages: int, base: str = "/tmp/bgr_fixtures") -> str:
    """Deterministic fixture directory path WITHOUT generating — used to
    bake parquet paths into static oracle SQL strings."""
    return os.path.join(base, f"{_FIXTURE_VERSION}-seed42-n{n_pages}")


def ensure_fixture_dir(n_pages: int, base: str = "/tmp/bgr_fixtures") -> str:
    """Generate (once, cached) a fixture directory with pages/ shards and
    the world tables of seed 42; keyed by (n_pages, generator version).
    """
    d = fixture_dir_path(n_pages, base)
    marker = os.path.join(d, "_COMPLETE")
    if os.path.exists(marker):
        return d
    os.makedirs(os.path.join(d, "pages"), exist_ok=True)
    world = generate_world(42)
    pq.write_table(world.gazetteer, os.path.join(d, "gazetteer.parquet"))
    pq.write_table(world.admin_polygons, os.path.join(d, "admin_polygons.parquet"))
    pq.write_table(world.facilities, os.path.join(d, "facilities.parquet"))
    generate_pages(os.path.join(d, "pages"), n_pages, seed=42, world=world)
    with open(marker, "w") as f:
        f.write("ok\n")
    return d
