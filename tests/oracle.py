"""Deliberately naive single-process oracle for the flagship pipeline
(SURVEY §5.2). Row-at-a-time Python, mirroring the reference's
semantics (query_funcs.py vet/rank rules) with none of the engine's
vectorization — the Ray pipeline must match it exactly.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pyarrow as pa

from batch_geocode_ray.config import GEOCODING_SUFFIXES, PipelineConfig
from batch_geocode_ray.functions.cells import hex_cell, s2_cell

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
EARTH_R = 6371.0088


def ascii_tokens(text: str) -> list[str]:
    """The engine's token rule: [A-Za-z0-9] runs, ASCII-folded."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def hav(lon1, lat1, lon2, lat2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2) - math.radians(lon1)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_R * math.asin(min(1.0, math.sqrt(h)))


class OracleGazetteer:
    def __init__(self, table: pa.Table):
        self.rows = table.to_pylist()
        for r in self.rows:
            if r["bb_n"] is not None:
                r["buffer"] = hav(r["bb_w"], r["bb_s"], r["bb_e"], r["bb_n"])
                r["clon"] = (r["bb_w"] + r["bb_e"]) / 2
                r["clat"] = (r["bb_s"] + r["bb_n"]) / 2
                r["points"] = [(r["bb_w"], r["bb_s"]), (r["bb_e"], r["bb_n"])]
            else:
                r["buffer"] = 0.0
                r["clon"], r["clat"] = r["lon"], r["lat"]
                r["points"] = [(r["lon"], r["lat"])]
        self.sources = sorted({r["source"] for r in self.rows})
        # token tuple of each name -> its rows
        self.phrases: dict[tuple[str, ...], list[dict]] = {}
        for r in self.rows:
            self.phrases.setdefault(tuple(ascii_tokens(r["name"])), []).append(r)
        self.lengths = sorted({len(ph) for ph in self.phrases} - {0})


def find_mentions(text: str, gaz: OracleGazetteer):
    """The distinct rows whose name occurs in ``text``."""
    toks = ascii_tokens(text)
    hit = {}
    for L in gaz.lengths:
        for i in range(len(toks) - L + 1):
            for r in gaz.phrases.get(tuple(toks[i:i + L]), ()):
                hit[r["gazetteer_id"]] = r
    return list(hit.values())


def naive_mentions(texts: list[str | None], gaz) -> list[list[dict]]:
    """The matcher's ``mentions`` column for ``texts`` over a
    ``GazetteerIndex``: the names are tokenized here by
    :func:`ascii_tokens` (not by the engine), kept in a dict from token
    tuple to entries, and every token position of a text is looked up
    once per distinct phrase length. Every occurrence is emitted
    (token-index spans), in (start, entry) order."""
    names = gaz.name.to_pylist()
    phrases: dict[tuple[str, ...], list[int]] = {}
    for e, name in enumerate(names):
        phrases.setdefault(tuple(ascii_tokens(name)), []).append(e)
    lengths = sorted({len(ph) for ph in phrases})
    out = []
    for text in texts:
        toks = ascii_tokens(text or "")
        row = []
        for i in range(len(toks)):
            hits = sorted((e, L) for L in lengths if i + L <= len(toks)
                          for e in phrases.get(tuple(toks[i:i + L]), ()))
            row += [{"gazetteer_id": int(gaz.ids[e]), "name": names[e],
                     "start": i, "end": i + L} for e, L in hits]
        out.append(row)
    return out


def geocode_page(text: str, lang: str, gaz: OracleGazetteer,
                 prior: dict[str, frozenset[str]] | None,
                 cfg: PipelineConfig):
    cands = find_mentions(text, gaz)
    if prior is not None:
        cands = [r for r in cands
                 if r["cc"] is None or lang not in prior or r["cc"] in prior[lang]]
    out: dict[str, object] = {}
    valid_rows = []
    for src in gaz.sources:
        mine = sorted((r for r in cands if r["source"] == src),
                      key=lambda r: (-r["population"], r["gazetteer_id"]))
        for rank, r in enumerate(mine[: cfg.results_per_app]):
            if r["buffer"] <= cfg.max_buffer:
                p = f"{src}{rank + 1}"
                out[f"{p}_name"] = r["name"]
                out[f"{p}_type"] = r["type"]
                out[f"{p}_lat"] = r["clat"]
                out[f"{p}_long"] = r["clon"]
                out[f"{p}_buffer"] = r["buffer"]
                valid_rows.append(r)
    if valid_rows:
        pts = [p for r in valid_rows for p in r["points"]]
        lons = [p[0] for p in pts]
        lats = [p[1] for p in pts]
        pooled = hav(min(lons), min(lats), max(lons), max(lats))
        if pooled <= cfg.max_buffer:
            out["best_name"] = "Vetted"
            out["best_type"] = f"Composite of {len(valid_rows)} geocoded locations"
            out["best_lat"] = sum(lats) / len(lats)
            out["best_long"] = sum(lons) / len(lons)
            out["best_buffer"] = pooled
    return out


def oracle_pip_assign(lon, lat, polys: list[dict]):
    """Even-odd crossing with the engine's boundary convention
    (px < x_cross); deepest level wins, then smallest admin_id."""
    best = (-1, -1, None)
    for p in polys:
        xs, ys = p["ring_lons"], p["ring_lats"]
        inside = False
        j = len(xs) - 1
        for i in range(len(xs)):
            if (ys[j] > lat) != (ys[i] > lat):
                x_cross = (xs[i] - xs[j]) * (lat - ys[j]) / (ys[i] - ys[j]) + xs[j]
                if lon < x_cross:
                    inside = not inside
            j = i
        if inside:
            lvl, aid = p["admin_level"], p["admin_id"]
            if lvl > best[1] or (lvl == best[1] and (best[0] < 0 or aid < best[0])):
                best = (aid, lvl, p["cc"])
    return best


def oracle_knn(lon, lat, facilities: list[dict], k: int):
    scored = sorted(
        ((hav(lon, lat, f["lon"], f["lat"]), f["facility_id"]) for f in facilities)
    )[:k]
    return [i for _, i in scored], [d for d, _ in scored]


def run_oracle(pages: pa.Table, gaz_table: pa.Table, polys_table: pa.Table,
               fac_table: pa.Table, prior, cfg: PipelineConfig | None = None):
    """Full oracle: wide geocode + cells + admin + knn per page, plus
    res-7 tile aggregates. Returns (page_rows, tiles) as lists of dicts."""
    cfg = cfg or PipelineConfig()
    gaz = OracleGazetteer(gaz_table)
    cfg = PipelineConfig(sources=gaz.sources, results_per_app=cfg.results_per_app,
                         max_buffer=cfg.max_buffer)
    polys = polys_table.to_pylist()
    facs = fac_table.to_pylist()
    rows = []
    for r in pages.to_pylist():
        wide = geocode_page(r["text"], r["lang"], gaz, prior, cfg)
        rec = {"url": r["url"]}
        for p in cfg.wide_prefixes():
            for s in GEOCODING_SUFFIXES:
                rec[f"{p}_{s}"] = wide.get(f"{p}_{s}")
        if rec["best_lat"] is not None:
            lon, lat = rec["best_long"], rec["best_lat"]
            for res in cfg.hex_resolutions:
                rec[f"hex_cell_r{res}"] = int(
                    hex_cell(np.array([lon]), np.array([lat]), res).astype(np.int64)[0])
            rec["s2_cell"] = int(
                s2_cell(np.array([lon]), np.array([lat]), cfg.s2_level).astype(np.int64)[0])
            aid, lvl, cc = oracle_pip_assign(lon, lat, polys)
            rec["admin_id"], rec["admin_level"], rec["admin_cc"] = aid, lvl, cc
            ids, dists = oracle_knn(lon, lat, facs, cfg.knn_k)
            rec["knn_ids"], rec["knn_dists"] = ids, dists
        else:
            for res in cfg.hex_resolutions:
                rec[f"hex_cell_r{res}"] = None
            rec["s2_cell"] = None
            rec["admin_id"], rec["admin_level"], rec["admin_cc"] = -1, -1, None
            rec["knn_ids"], rec["knn_dists"] = [], []
        rows.append(rec)

    tiles: dict[int, list] = {}
    for rec in rows:
        c = rec["hex_cell_r7"]
        if c is None:
            continue
        tiles.setdefault(c, []).append(rec["best_buffer"])
    tile_rows = []
    for c in sorted(tiles):
        bufs = [b for b in tiles[c] if b is not None]
        tile_rows.append({
            "hex_cell_r7": c,
            "pages": len(tiles[c]),
            "mean_buffer": (sum(bufs) / len(bufs)) if bufs else None,
            "min_buffer": min(bufs) if bufs else None,
            "max_buffer": max(bufs) if bufs else None,
        })
    return rows, tile_rows
