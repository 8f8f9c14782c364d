"""Per-row and inverse references for the package's batch kernels,
used only by tests: a batch kernel must equal its per-row reference,
and an encoder must round-trip through its decoder."""

from __future__ import annotations

import io
import re
import xml.etree.ElementTree as ET
import zipfile

import numpy as np
import pyarrow as pa

from batch_geocode_ray.functions.cells import (
    _HEX_APERTURE,
    _HEX_BASE_SIZE_DEG,
    _HEX_OFFSET,
    _POS_TO_IJ,
    _POS_TO_ORIENT,
    _S2_POS_BITS,
    _SQRT3,
    S2_MAX_LEVEL,
)
from batch_geocode_ray.functions.hashing import _MERSENNE61
from batch_geocode_ray.sources.xlsx import _NS_MAIN, _NS_REL_DOC

# ---------------------------------------------------------------------------
# text hashes (functions/hashing.py)
# ---------------------------------------------------------------------------


def minhash_signature(shingle_hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MinHash signature (num_perm,) of one document's shingle-hash set.

    Vectorized outer product over (num_perm, n_shingles); empty docs
    sign as all-max.
    """
    num_perm = len(a)
    if len(shingle_hashes) == 0:
        return np.full(num_perm, _MERSENNE61, dtype=np.uint64)
    x = (np.asarray(shingle_hashes, dtype=np.uint64) >> np.uint64(3)) & _MERSENNE61
    with np.errstate(over="ignore"):
        hv = (a[:, None] * x[None, :] + b[:, None]) % _MERSENNE61
    return hv.min(axis=1)


def shingle_hashes(token_hashes: np.ndarray, k: int) -> np.ndarray:
    """Rolling k-token shingle hashes of one document (Rabin-Karp style
    polynomial combine of the per-token hashes). len<k docs hash their
    full token run once.
    """
    h = np.asarray(token_hashes, dtype=np.uint64)
    if len(h) == 0:
        return h
    n = max(len(h) - k + 1, 1)
    kk = min(k, len(h))
    acc = np.zeros(n, dtype=np.uint64)
    B = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for j in range(kk):
            acc = acc * B + h[j:j + n]
    return np.unique(acc)


def simhash64(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> int:
    """64-bit SimHash of one document: per-bit weighted majority vote of
    token hashes.
    """
    h = np.asarray(token_hashes, dtype=np.uint64)
    if len(h) == 0:
        return 0
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    w = np.ones(len(h)) if weights is None else np.asarray(weights, dtype=np.float64)
    votes = (w[:, None] * (2 * bits - 1)).sum(axis=0)
    return int(np.uint64(((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum()))


# ---------------------------------------------------------------------------
# cell decoders (functions/cells.py)
# ---------------------------------------------------------------------------


def _st_to_uv(s):
    return np.where(
        s >= 0.5, (4.0 * s * s - 1.0) / 3.0, (1.0 - 4.0 * (1.0 - s) * (1.0 - s)) / 3.0
    )


def s2_level_of(cell: np.ndarray) -> np.ndarray:
    """Level from the trailing-1 sentinel position."""
    cell = np.asarray(cell, dtype=np.uint64)
    lsb_index = np.zeros(cell.shape, dtype=np.int64)
    c = cell.copy()
    # count trailing zeros via binary chunks
    for shift in (32, 16, 8, 4, 2, 1):
        mask = (c & ((np.uint64(1) << np.uint64(shift)) - np.uint64(1))) == 0
        lsb_index += np.where(mask, shift, 0)
        c = np.where(mask, c >> np.uint64(shift), c)
    return S2_MAX_LEVEL - lsb_index // 2


def s2_cell_center(cell: np.ndarray):
    """Decode cell ids to their center lon/lat (for tests / rollups)."""
    cell = np.asarray(cell, dtype=np.uint64)
    level = s2_level_of(cell)
    face = (cell >> np.uint64(_S2_POS_BITS)).astype(np.int64)
    pos = (cell & ((np.uint64(1) << np.uint64(_S2_POS_BITS)) - np.uint64(1))) >> np.uint64(1)

    i = np.zeros(cell.shape, dtype=np.uint64)
    j = np.zeros(cell.shape, dtype=np.uint64)
    orient = (face & 1).astype(np.uint64)
    for k in range(S2_MAX_LEVEL - 1, -1, -1):
        active = (S2_MAX_LEVEL - 1 - k) < level  # only levels above the cell's level carry bits
        shift = np.uint64(2 * k)
        p = np.where(active, (pos >> shift) & np.uint64(3), np.uint64(0))
        ij2 = _POS_TO_IJ[orient, p]
        i = i | (np.where(active, (ij2 >> np.uint64(1)) & np.uint64(1), np.uint64(0)) << np.uint64(k))
        j = j | (np.where(active, ij2 & np.uint64(1), np.uint64(0)) << np.uint64(k))
        orient = np.where(active, orient ^ _POS_TO_ORIENT[p], orient)

    # center of the cell's ij range
    size = np.uint64(1) << (np.uint64(S2_MAX_LEVEL) - level.astype(np.uint64))
    si = i.astype(np.float64) + size.astype(np.float64) * 0.5
    sj = j.astype(np.float64) + size.astype(np.float64) * 0.5
    scale = float(1 << S2_MAX_LEVEL)
    u = _st_to_uv(si / scale)
    v = _st_to_uv(sj / scale)

    x = np.empty_like(u); y = np.empty_like(u); z = np.empty_like(u)
    for f, (fx, fy, fz) in enumerate([
        (lambda u, v: np.ones_like(u), lambda u, v: u, lambda u, v: v),      # +x
        (lambda u, v: -u, lambda u, v: np.ones_like(u), lambda u, v: v),     # +y
        (lambda u, v: -u, lambda u, v: -v, lambda u, v: np.ones_like(u)),    # +z
        (lambda u, v: -np.ones_like(u), lambda u, v: -v, lambda u, v: -u),   # -x
        (lambda u, v: v, lambda u, v: -np.ones_like(u), lambda u, v: -u),    # -y
        (lambda u, v: v, lambda u, v: u, lambda u, v: -np.ones_like(u)),     # -z
    ]):
        m = face == f
        x[m] = fx(u[m], v[m]); y[m] = fy(u[m], v[m]); z[m] = fz(u[m], v[m])
    norm = np.sqrt(x * x + y * y + z * z)
    lat = np.degrees(np.arcsin(np.clip(z / norm, -1, 1)))
    lon = np.degrees(np.arctan2(y, x))
    return lon, lat


def hex_decode(cell: np.ndarray):
    """cell -> (res, center_lon, center_lat)."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = ((cell >> np.uint64(56)) & np.uint64(0xF)).astype(np.int64)
    q = ((cell >> np.uint64(24)) & np.uint64(0xFFFFFF)).astype(np.int64) - _HEX_OFFSET
    r = (cell & np.uint64(0xFFFFFF)).astype(np.int64) - _HEX_OFFSET
    size = _HEX_BASE_SIZE_DEG / (_HEX_APERTURE ** res.astype(np.float64))
    x = size * (_SQRT3 * q + _SQRT3 / 2.0 * r)
    y = size * (1.5 * r)
    return res, x, y


# ---------------------------------------------------------------------------
# xlsx reader (sources/xlsx.py writes)
# ---------------------------------------------------------------------------

_CELL_REF = re.compile(r"^([A-Z]+)(\d+)$")


def _ref_to_col(ref: str) -> int:
    m = _CELL_REF.match(ref)
    if not m:
        return -1
    acc = 0
    for ch in m.group(1):
        acc = acc * 26 + (ord(ch) - ord("A") + 1)
    return acc - 1


def read_xlsx(path_or_bytes) -> pa.Table:
    """Parse the FIRST worksheet of an .xlsx into a pyarrow Table.
    Row 1 is the header; a column whose every non-empty cell parses as
    a number becomes float64, otherwise string."""
    raw = (path_or_bytes if isinstance(path_or_bytes, (bytes, bytearray))
           else open(path_or_bytes, "rb").read())
    z = zipfile.ZipFile(io.BytesIO(raw))

    # first sheet via workbook -> relationships
    wb = ET.fromstring(z.read("xl/workbook.xml"))
    sheet_el = wb.find(f"{{{_NS_MAIN}}}sheets/{{{_NS_MAIN}}}sheet")
    rid = sheet_el.get(f"{{{_NS_REL_DOC}}}id")
    rels = ET.fromstring(z.read("xl/_rels/workbook.xml.rels"))
    target = None
    for rel in rels:
        if rel.get("Id") == rid:
            target = rel.get("Target")
    if target is None:
        raise ValueError("xlsx: no worksheet relationship found")
    sheet_path = target if target.startswith("xl/") else f"xl/{target}"

    shared: list[str] = []
    if "xl/sharedStrings.xml" in z.namelist():
        sst = ET.fromstring(z.read("xl/sharedStrings.xml"))
        for si in sst:
            shared.append("".join(t.text or "" for t in
                                  si.iter(f"{{{_NS_MAIN}}}t")))

    sheet = ET.fromstring(z.read(sheet_path))
    rows: list[dict[int, str]] = []
    max_col = -1
    for row in sheet.iter(f"{{{_NS_MAIN}}}row"):
        cells: dict[int, str] = {}
        auto_col = 0
        for c in row.iter(f"{{{_NS_MAIN}}}c"):
            ref = c.get("r")
            col = _ref_to_col(ref) if ref else auto_col
            auto_col = col + 1
            t = c.get("t", "n")
            if t == "inlineStr":
                is_el = c.find(f"{{{_NS_MAIN}}}is")
                val = "".join(x.text or "" for x in
                              is_el.iter(f"{{{_NS_MAIN}}}t")) \
                    if is_el is not None else ""
            else:
                v_el = c.find(f"{{{_NS_MAIN}}}v")
                v = v_el.text if v_el is not None and v_el.text else ""
                if t == "s":
                    val = shared[int(v)] if v else ""
                elif t == "b":
                    val = "TRUE" if v == "1" else "FALSE"
                else:  # "n" numeric or "str" formula-string
                    val = v
            if val != "":
                cells[col] = val
                max_col = max(max_col, col)
        rows.append(cells)

    if not rows:
        return pa.table({})
    header = rows[0]
    n_cols = max_col + 1
    names = [header.get(j, f"col{j}") for j in range(n_cols)]
    data = rows[1:]
    arrays = {}
    for j, name in enumerate(names):
        vals = [r.get(j) for r in data]
        present = [v for v in vals if v is not None]
        as_num = True
        for v in present:
            try:
                float(v)
            except ValueError:
                as_num = False
                break
        if as_num and present:
            arrays[name] = pa.array(
                [float(v) if v is not None else None for v in vals],
                pa.float64())
        else:
            arrays[name] = pa.array(vals, pa.string())
    return pa.table(arrays)


# ---------------------------------------------------------------------------
# substring span cut (stages/substring.py)
# ---------------------------------------------------------------------------

def span_cut(texts: dict[int, str], L: int) -> tuple[dict[int, int],
                                                     dict[int, str]]:
    """Byte-level span-cut oracle. A byte L-gram found in >= 2 docs
    covers its L bytes; returns each doc's covered byte count (docs with
    any) and its text with every codepoint that has a covered byte
    removed whole."""
    raw = {d: t.encode() for d, t in texts.items()}
    gram_docs: dict[bytes, set[int]] = {}
    for d, b in raw.items():
        for i in range(len(b) - L + 1):
            gram_docs.setdefault(b[i:i + L], set()).add(d)
    covered, cut = {}, {}
    for d, b in raw.items():
        hit = set()
        for i in range(len(b) - L + 1):
            if len(gram_docs[b[i:i + L]]) >= 2:
                hit.update(range(i, i + L))
        if hit:
            covered[d] = len(hit)
        kept, i = [], 0
        for ch in texts[d]:
            n = len(ch.encode())
            if not hit.intersection(range(i, i + n)):
                kept.append(ch)
            i += n
        cut[d] = "".join(kept)
    return covered, cut
