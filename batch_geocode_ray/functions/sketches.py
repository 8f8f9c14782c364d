"""Mergeable sketches for web-scale aggregation (SURVEY mandate's
"novel sketch" slot): HyperLogLog distinct counting, a rank-spaced
quantile summary, and Misra-Gries heavy hitters (q37 and q67, q44,
q38).

All three are classic streaming summaries with the property that makes
them Ray-Data-shaped: per-batch partials merge associatively, so a
`map_batches` partial + tiny driver/single-task merge replaces an
all-to-all distinct/groupby over 10^12 rows.

  * HLL (Flajolet et al. 2007): p-bit register index, max leading-zero
    rank per register; standard bias-corrected estimate with small- and
    large-range corrections. Registers are 2^p bytes — a 4 KB summary
    of any number of rows. Merge = elementwise max.
  * quantile summary: k sorted (value, weight) pairs at mid-rank
    targets. Merge = concatenate + re-compress.
  * Misra-Gries (1982): k-counter frequent-items summary; every item
    with true frequency > n/k survives; counts under-estimate by at
    most n/k. Merge = counter addition + decrement by the (k+1)-th
    largest (Agarwal et al.'s mergeable-summaries rule).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from batch_geocode_ray.functions.hashing import stable_hash64_array


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------

# HLL register-index bits: 2^12 one-byte registers
HLL_P = 12


def hll_partial(values, *, pre_hashed: bool = False) -> np.ndarray:
    """(2^HLL_P,) uint8 register array summarizing this batch's values.

    Arrow inputs are hashed here (stable 64-bit). Raw ndarrays are
    AMBIGUOUS — a caller passing unhashed ints would silently build a
    garbage sketch — so they require ``pre_hashed=True``, asserting the
    values already are uniform uint64 hashes."""
    if pre_hashed:
        h = np.asarray(values, dtype=np.uint64)
    elif isinstance(values, (pa.Array, pa.ChunkedArray)):
        h = stable_hash64_array(values)
    else:
        raise TypeError(
            "hll_partial: ndarray input is ambiguous — pass an Arrow "
            "array to have values hashed, or pre_hashed=True if they "
            "are already uniform uint64 hashes")
    p = HLL_P
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(h) == 0:
        return regs
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad tail with 1s
    # rank = leading zeros of `rest` + 1, capped at 64 - p + 1
    lz = np.zeros(len(h), dtype=np.uint8)
    cur = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += shift
        cur[mask] = cur[mask] << np.uint64(shift)
    rank = (lz + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(partials: list[np.ndarray]) -> np.ndarray:
    out = partials[0].copy()
    for r in partials[1:]:
        np.maximum(out, r, out=out)
    return out


def hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected cardinality estimate from a register array.

    Only the small-range (linear-counting) correction applies: the
    classic 32-bit large-range correction is deliberately omitted — with
    64-bit hashes, collisions are negligible below ~2^57 distinct values
    and applying the 2^32-based formula would distort (and above 2^32,
    NaN) estimates for cardinalities past ~1.4e8."""
    m = len(regs)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(2.0 ** (-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros > 0:       # small-range correction
        return m * np.log(m / zeros)
    return float(est)


# ---------------------------------------------------------------------------
# Mergeable quantile summary
# ---------------------------------------------------------------------------

# summary size: entries per quantile summary
QUANTILE_K = 512


def quantile_partial(values) -> tuple[np.ndarray, np.ndarray]:
    """Weighted rank-spaced quantile summary of this batch:
    ``QUANTILE_K`` (= k) sorted (value, weight) pairs whose cumulative
    weights approximate the batch's rank distribution to ~W/k. The
    compression is deterministic (no sampling): sort, then take the
    elements at the k mid-rank targets, each carrying W/k mass."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        v = np.asarray((values.combine_chunks()
                        if isinstance(values, pa.ChunkedArray)
                        else values).to_numpy(zero_copy_only=False),
                       dtype=np.float64)
    else:
        v = np.asarray(values, dtype=np.float64)
    v = v[~np.isnan(v)]
    if len(v) == 0:
        return np.empty(0), np.empty(0)
    return _quantile_compress(np.sort(v), np.ones(len(v)))


def _quantile_compress(vals: np.ndarray,
                       weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted vals, weights) -> at most QUANTILE_K rank-spaced entries."""
    k = QUANTILE_K
    if len(vals) <= k:
        return vals, weights
    cumw = np.cumsum(weights)
    total = cumw[-1]
    targets = (np.arange(k) + 0.5) * total / k
    idx = np.searchsorted(cumw, targets)
    idx = np.clip(idx, 0, len(vals) - 1)
    return vals[idx], np.full(k, total / k)


def quantile_merge(partials: list[tuple[np.ndarray, np.ndarray]]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Merge summaries: concatenate, sort by value (weights follow),
    recompress to k = ``QUANTILE_K``. Each merge level adds ~1/k rank
    error — with one partial per block and a single merge, total error
    ~2/k of the rank space (k=512 -> ~0.4%)."""
    vs = np.concatenate([p[0] for p in partials]) if partials else np.empty(0)
    ws = np.concatenate([p[1] for p in partials]) if partials else np.empty(0)
    if len(vs) == 0:
        return vs, ws
    order = np.argsort(vs, kind="stable")
    return _quantile_compress(vs[order], ws[order])


def quantile_query(summary: tuple[np.ndarray, np.ndarray],
                   q: float) -> float:
    """Value whose estimated rank is q (0..1): the first summary entry
    whose cumulative weight reaches q * total."""
    vals, weights = summary
    if len(vals) == 0:
        return float("nan")
    cumw = np.cumsum(weights)
    pos = int(np.searchsorted(cumw, q * cumw[-1]))
    return float(vals[min(pos, len(vals) - 1)])


def grouped_quantile_sketch(ds, group_col: str | None, col: str,
                            qs: list[float]) -> dict:
    """Per-group approximate quantiles in ONE pass: each block emits a
    ``QUANTILE_K``-entry summary per group it saw (one row per (group,
    block) — the same skew-collapsing shape as the tile aggregates), the driver
    merges per group and queries. Returns {group: [quantile per q]}.
    ``group_col=None`` sketches the whole column as one group."""
    from batch_geocode_ray.stages.stateful import gather

    def partial(b: pa.Table) -> pa.Table:
        if group_col is None:
            groups = {None: np.arange(b.num_rows)}
        else:
            keys = np.asarray(b[group_col].to_numpy(zero_copy_only=False))
            order = np.argsort(keys, kind="stable")
            sk = keys[order]
            bounds = np.concatenate(
                [[0], np.nonzero(sk[1:] != sk[:-1])[0] + 1, [len(sk)]])
            groups = {sk[s]: order[s:e]
                      for s, e in zip(bounds[:-1], bounds[1:])}
        v = np.asarray(b[col].to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        gs, vs, ws = [], [], []
        for g, rows in groups.items():
            vals, weights = quantile_partial(v[rows])
            gs.append("" if g is None else str(g))
            vs.append(vals.tobytes())
            ws.append(weights.tobytes())
        return pa.table({
            "g": pa.array(gs, pa.string()),
            "v": pa.array(vs, pa.binary()),
            "w": pa.array(ws, pa.binary()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow")
    by_group: dict = {}
    for r in gather(parts).to_pylist():
        key = None if group_col is None else r["g"]
        by_group.setdefault(key, []).append(
            (np.frombuffer(r["v"], dtype=np.float64),
             np.frombuffer(r["w"], dtype=np.float64)))
    return {g: [quantile_query(quantile_merge(ps), q) for q in qs]
            for g, ps in by_group.items()}


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters
# ---------------------------------------------------------------------------

def mg_partial(values, k: int) -> dict:
    """k-counter Misra-Gries summary of this batch (exact per-batch via
    full value_counts, then reduced to k with the standard decrement)."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        vc = (values.combine_chunks() if isinstance(values, pa.ChunkedArray)
              else values).value_counts()
        items = vc.field("values").to_pylist()
        counts = np.asarray(vc.field("counts").to_numpy(zero_copy_only=False),
                            dtype=np.int64)
    else:
        items, counts = values
        counts = np.asarray(counts, dtype=np.int64)
    return _mg_reduce(dict(zip(items, counts.tolist())), k)


def _mg_reduce(counter: dict, k: int) -> dict:
    """Keep at most k entries: subtract the (k+1)-th largest count from
    all, drop non-positive (the mergeable-summaries reduction)."""
    counter = {it: int(c) for it, c in counter.items()}  # plain ints (JSON-safe)
    if len(counter) <= k:
        return counter
    counts = np.array(sorted(counter.values(), reverse=True))
    thresh = int(counts[k])  # (k+1)-th largest
    return {it: c - thresh for it, c in counter.items() if c - thresh > 0}


def mg_merge(partials: list[dict], k: int) -> dict:
    merged: dict = {}
    for p_ in partials:
        for it, c in p_.items():
            merged[it] = merged.get(it, 0) + c
    return _mg_reduce(merged, k)


def heavy_hitters_with_total(ds, col: str, k: int = 16) -> tuple[list, int]:
    """Misra-Gries candidates AND the total row count from ONE input
    scan (each batch partial carries its row count alongside the
    summary, so the n/k threshold needs no separate ``ds.count()``
    pass). Returns ([(item, lower_bound_count)] sorted desc, n_total)."""
    import json

    from batch_geocode_ray.stages.stateful import gather

    def partial(b: pa.Table) -> pa.Table:
        summ = mg_partial(b[col], k)
        return pa.table({
            "summ": pa.array([json.dumps(summ)], pa.string()),
            "n": pa.array([b.num_rows], pa.int64()),
        })

    rows = gather(ds.map_batches(partial, batch_format="pyarrow")).to_pylist()
    summaries = [json.loads(r["summ"]) for r in rows]
    n_total = sum(r["n"] for r in rows)
    merged = mg_merge(summaries, k) if summaries else {}
    return (sorted(merged.items(), key=lambda kv: (-kv[1], kv[0])), n_total)
