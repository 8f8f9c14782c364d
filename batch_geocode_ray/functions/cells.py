"""Spatial cell indices: S2 cell ids and an H3-style hex index.

Implemented from scratch in vectorized NumPy (no geo libraries exist in
this environment), per the north rule's "H3/S2 cell encoding" and SURVEY
§2.3 G5/G6.

S2 (``s2_cell``)
  Follows the published S2 geometry algorithm (s2geometry.io docs /
  public C++ source layout): lat/lon -> unit xyz -> cube face (argmax
  axis) -> (u,v) -> quadratic (s,t) transform -> 30-bit (i,j) -> Hilbert
  curve position via the standard 2-bit orientation state machine ->
  64-bit cell id ``(face << 61) | (pos << 1) | 1`` with the usual
  trailing-1 sentinel. ``s2_parent`` is pure bit arithmetic, so
  *prefix-repartitioning by parent cell is exact* — this is the
  engine's canonical shuffle key for tiled stages. Bit-level parity
  with Google's library is intended but cannot be verified in-sandbox
  (no s2 lib); round-trip, containment, and neighborhood invariants are
  unit-tested instead (the decoders live in ``tests/reference.py``).

Hex (``hex_cell``)
  A multi-resolution pointy-top hexagonal grid in equirectangular
  lon/lat space with aperture-7-like scaling (cell size shrinks by
  sqrt(7) per resolution, so res 7-9 sizes track real H3's). Exact H3
  icosahedral bit-parity is NOT claimed (the sandbox has no h3 library
  to verify 122-base-cell tables against); what the engine relies on —
  deterministic encode at any resolution, k-ring neighbors,
  hot-cell salting keys — is provided and invariant-tested. Known
  tradeoff: equal-angle, not equal-area (cells shrink toward the
  poles), irrelevant for bucketing/aggregation semantics.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# S2
# ---------------------------------------------------------------------------

S2_MAX_LEVEL = 30
_S2_POS_BITS = 2 * S2_MAX_LEVEL + 1  # 61

# Hilbert curve tables (public S2 constants): kPosToIJ rows are the
# traversal order for each orientation; kPosToOrientation flips the
# swap/invert bits as the curve recurses.
_POS_TO_IJ = np.array([
    [0, 1, 3, 2],  # orientation 0
    [0, 2, 3, 1],  # swap
    [3, 2, 0, 1],  # invert
    [3, 1, 0, 2],  # swap | invert
], dtype=np.uint64)
_POS_TO_ORIENT = np.array([1, 0, 0, 3], dtype=np.uint64)
_IJ_TO_POS = np.zeros((4, 4), dtype=np.uint64)
for _o in range(4):
    for _p in range(4):
        _IJ_TO_POS[_o, _POS_TO_IJ[_o, _p]] = _p


def _lonlat_to_xyz(lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    cos_lat = np.cos(lat)
    return cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)


def _xyz_to_face_uv(x, y, z):
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay, np.where(ax >= az, 0, 2), np.where(ay >= az, 1, 2))
    # negative dominant axis -> face + 3
    dominant = np.choose(face, [x, y, z])
    face = np.where(dominant < 0, face + 3, face).astype(np.int64)
    # full-array divides: values off each face's mask are discarded, so
    # div-by-zero/overflow there are expected and silenced
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.empty_like(x)
        v = np.empty_like(x)
        m = face == 0
        u[m] = (y / x)[m]; v[m] = (z / x)[m]
        m = face == 1
        u[m] = (-x / y)[m]; v[m] = (z / y)[m]
        m = face == 2
        u[m] = (-x / z)[m]; v[m] = (-y / z)[m]
        m = face == 3
        u[m] = (z / x)[m]; v[m] = (y / x)[m]
        m = face == 4
        u[m] = (z / y)[m]; v[m] = (-x / y)[m]
        m = face == 5
        u[m] = (-y / z)[m]; v[m] = (-x / z)[m]
    return face, u, v


def _uv_to_st(u):
    """S2's quadratic projection (the library default)."""
    with np.errstate(invalid="ignore"):
        return np.where(u >= 0.0, 0.5 * np.sqrt(1.0 + 3.0 * u), 1.0 - 0.5 * np.sqrt(1.0 - 3.0 * u))


def s2_cell(lon_deg, lat_deg, level: int = S2_MAX_LEVEL) -> np.ndarray:
    """Encode lon/lat arrays to uint64 S2 cell ids at ``level``.

    Vectorized: the Hilbert state machine runs as 30 rounds of O(n)
    table lookups, not a per-row Python loop.
    """
    x, y, z = _lonlat_to_xyz(lon_deg, lat_deg)
    face, u, v = _xyz_to_face_uv(x, y, z)
    scale = float(1 << S2_MAX_LEVEL)
    i = np.clip((_uv_to_st(u) * scale).astype(np.int64), 0, (1 << S2_MAX_LEVEL) - 1).astype(np.uint64)
    j = np.clip((_uv_to_st(v) * scale).astype(np.int64), 0, (1 << S2_MAX_LEVEL) - 1).astype(np.uint64)

    orient = (face & 1).astype(np.uint64)  # initial orientation = face & kSwapMask
    pos = np.zeros_like(i, dtype=np.uint64)
    for k in range(S2_MAX_LEVEL - 1, -1, -1):
        ij2 = (((i >> np.uint64(k)) & np.uint64(1)) << np.uint64(1)) | ((j >> np.uint64(k)) & np.uint64(1))
        p = _IJ_TO_POS[orient, ij2]
        pos = (pos << np.uint64(2)) | p
        orient = orient ^ _POS_TO_ORIENT[p]

    cell = (face.astype(np.uint64) << np.uint64(_S2_POS_BITS)) | (pos << np.uint64(1)) | np.uint64(1)
    if level < S2_MAX_LEVEL:
        cell = s2_parent(cell, level)
    return cell


def s2_parent(cell: np.ndarray, level: int) -> np.ndarray:
    """Truncate cell ids to ``level`` — exact bit arithmetic (S2's
    defining property), which is why s2 is the prefix-shuffle key.
    """
    cell = np.asarray(cell, dtype=np.uint64)
    lsb = np.uint64(1) << np.uint64(2 * (S2_MAX_LEVEL - level))
    # (id & -lsb) | lsb: drop position bits below the new sentinel, set it.
    return (cell & ~(lsb - np.uint64(1))) | lsb


# ---------------------------------------------------------------------------
# Hex (H3-style)
# ---------------------------------------------------------------------------

_HEX_BASE_SIZE_DEG = 10.0       # circumradius at res 0, degrees
_HEX_APERTURE = np.sqrt(7.0)    # size ratio between consecutive resolutions
_HEX_OFFSET = 1 << 23           # axial coords stored offset-binary in 24 bits
_SQRT3 = np.sqrt(3.0)


def _hex_size(res: int) -> float:
    return _HEX_BASE_SIZE_DEG / (_HEX_APERTURE ** res)


def _axial_round(qf: np.ndarray, rf: np.ndarray):
    """Cube-coordinate rounding (standard hex-grid algorithm)."""
    xf, zf = qf, rf
    yf = -xf - zf
    rx, ry, rz = np.round(xf), np.round(yf), np.round(zf)
    dx, dy, dz = np.abs(rx - xf), np.abs(ry - yf), np.abs(rz - zf)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    return rx.astype(np.int64), rz.astype(np.int64)


def hex_cell(lon_deg, lat_deg, res: int) -> np.ndarray:
    """Encode lon/lat to the uint64 hex cell containing it at ``res``
    (0-15). Layout: bits 56-59 = res, bits 24-47 = q+offset, bits 0-23 =
    r+offset.
    """
    if not 0 <= res <= 15:
        raise ValueError(f"res out of range: {res}")
    x = np.asarray(lon_deg, dtype=np.float64)
    y = np.asarray(lat_deg, dtype=np.float64)
    size = _hex_size(res)
    qf = (_SQRT3 / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    q, r = _axial_round(qf, rf)
    return (
        (np.uint64(res) << np.uint64(56))
        | ((q + _HEX_OFFSET).astype(np.uint64) << np.uint64(24))
        | (r + _HEX_OFFSET).astype(np.uint64)
    )


def hex_kring(cell: int, k: int = 1) -> list[int]:
    """The cell plus its hex neighbors within grid distance k (driver-side
    helper for neighborhood probes; not a hot-path kernel).
    """
    cell_arr = np.asarray([cell], dtype=np.uint64)
    res = int((cell_arr[0] >> np.uint64(56)) & np.uint64(0xF))
    q0 = int((cell_arr[0] >> np.uint64(24)) & np.uint64(0xFFFFFF)) - _HEX_OFFSET
    r0 = int(cell_arr[0] & np.uint64(0xFFFFFF)) - _HEX_OFFSET
    out = []
    for dq in range(-k, k + 1):
        for dr in range(max(-k, -dq - k), min(k, -dq + k) + 1):
            q, r = q0 + dq, r0 + dr
            out.append(int(
                (np.uint64(res) << np.uint64(56))
                | (np.uint64(q + _HEX_OFFSET) << np.uint64(24))
                | np.uint64(r + _HEX_OFFSET)
            ))
    return out
