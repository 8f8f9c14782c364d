"""Stable hashing + sketch kernels for dedup / fingerprinting.

All hashes must be stable across processes and Ray workers (no Python
``hash()``, which is salted per process). String hashing rides polars'
native vectorized hash with fixed seeds (deterministic within this
environment); the numeric mixing below is plain uint64 NumPy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MERSENNE61 = np.uint64((1 << 61) - 1)


def stable_hash64_array(strings: pa.Array | pa.ChunkedArray | list[str]) -> np.ndarray:
    """Vectorized stable 64-bit hash of a string array (polars ahash with
    fixed seeds -> deterministic across workers in this environment).
    """
    import polars as pl

    if isinstance(strings, (pa.Array, pa.ChunkedArray)):
        s = pl.from_arrow(strings)
    else:
        s = pl.Series(strings, dtype=pl.Utf8)
    return s.hash(seed=42).to_numpy().astype(np.uint64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Cheap uint64 bit mixer (public-domain splitmix64 finalizer)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def minhash_permutation_params(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) coefficient vectors for the universal-hash family
    ``h_i(x) = (a_i * x + b_i) mod (2^61 - 1)``, from seed 7.
    """
    rng = np.random.RandomState(7)
    a = rng.randint(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    return a, b


def shingle_hashes_batch(token_hashes: np.ndarray, parents: np.ndarray,
                         k: int) -> tuple[np.ndarray, np.ndarray]:
    """DISTINCT rolling k-gram hashes of MANY documents in one shot —
    the row-loop-free form of ``shingle_hashes`` (the per-document
    reference in ``tests/reference.py``) over a batch's
    flat token-hash array (``parents[i]`` = document row of token i,
    nondecreasing). One Horner pass of k vector ops over the whole
    array; windows crossing a document boundary are masked out.
    Returns ``(gram_hash, parent)`` sorted by (parent, hash) with
    per-document duplicates removed — value-identical to calling
    ``shingle_hashes`` per document for every document with >= k
    tokens; documents with fewer emit nothing (callers drop them)."""
    h = np.asarray(token_hashes, dtype=np.uint64)
    parents = np.asarray(parents, dtype=np.int64)
    n = len(h)
    empty = (np.empty(0, np.uint64), np.empty(0, np.int64))
    if n < k:
        return empty
    m = n - k + 1
    acc = np.zeros(m, dtype=np.uint64)
    B = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for j in range(k):
            acc = acc * B + h[j:j + m]
    valid = parents[:m] == parents[k - 1:]
    acc, par = acc[valid], parents[:m][valid]
    if len(acc) == 0:
        return empty
    order = np.lexsort((acc, par))
    acc, par = acc[order], par[order]
    keep = np.ones(len(acc), dtype=bool)
    keep[1:] = (acc[1:] != acc[:-1]) | (par[1:] != par[:-1])
    return acc[keep], par[keep]


def shingle_sets_batch(token_hashes: np.ndarray, parents: np.ndarray,
                       n_docs: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``shingle_hashes`` of every document of a batch:
    :func:`shingle_hashes_batch`, plus one hash of the full token run of
    each document with 0 < tokens < k. Returns ``(gram_hash, parent)``
    sorted by (parent, hash); token-less documents emit nothing."""
    gram, par = shingle_hashes_batch(token_hashes, parents, k)
    counts = np.bincount(parents, minlength=n_docs)
    rows = np.flatnonzero((counts > 0) & (counts < k))
    if not len(rows):
        return gram, par
    h = np.asarray(token_hashes, dtype=np.uint64)
    first = np.concatenate([[0], np.cumsum(counts)])[rows]
    lens = counts[rows]
    acc = np.zeros(len(rows), dtype=np.uint64)
    B = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for j in range(k - 1):
            more = j < lens
            acc[more] = acc[more] * B + h[first[more] + j]
    par = np.concatenate([par, rows])
    order = np.argsort(par, kind="stable")
    return np.concatenate([gram, acc])[order], par[order]


def simhash64_batch(token_hashes: np.ndarray, parents: np.ndarray,
                    n_docs: int) -> np.ndarray:
    """SimHash of MANY documents in one shot — the row-loop-free form
    of the per-row ``simhash64`` in ``tests/reference.py``
    (unweighted): ``token_hashes`` is the flat
    uint64 token-hash array of the whole batch, ``parents[i]`` the
    document row of token ``i``. One ``unpackbits`` over the hash
    bytes + one ``np.add.at`` scatter of ±1 votes; docs with no tokens
    hash to 0, matching the per-row kernel exactly (equivalence
    pytest-pinned)."""
    votes = np.zeros((n_docs, 64), np.int64)
    h = np.ascontiguousarray(np.asarray(token_hashes, dtype=np.uint64))
    if len(h):
        # (tokens, 64) uint8 bit matrix, bit k of the uint64 in col k
        bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        np.add.at(votes, np.asarray(parents, dtype=np.int64),
                  bits.astype(np.int8) * 2 - 1)
    packed = np.packbits((votes > 0).astype(np.uint8), axis=1,
                         bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64).reshape(n_docs)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between uint64 arrays (broadcasts)."""
    x = np.bitwise_xor(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    shape = x.shape
    bytes_view = np.ascontiguousarray(x).reshape(-1, 1).view(np.uint8)
    return np.unpackbits(bytes_view, axis=1).sum(axis=1).astype(np.int64).reshape(shape)


# Knuth's multiplicative-hash constant (2^32 / golden ratio)
KNUTH_MULT = 2654435761


def knuth_sample_mask(keys, rate_pct: int) -> "np.ndarray":
    """Deterministic, SQL-recomputable sample mask over integer keys:
    ``((key * KNUTH_MULT) % 2^32) % 100 < rate_pct`` (Knuth multiplicative
    hashing). Unlike :func:`splitmix64`-based sampling this is plain
    BIGINT arithmetic an oracle can recompute verbatim — the point is
    reproducible sampling that two independent engines agree on
    row-for-row. Computed in uint64 (wraps mod 2^64, and 2^32 divides
    2^64, so the mod-2^32 result is exact for ANY non-negative int64
    key — no silent int64-overflow divergence); an oracle matching
    keys past ~3.5e9 must widen, e.g. DuckDB
    ``(key::HUGEINT * 2654435761) % 4294967296``."""
    return (knuth_bucket100(keys) < np.int64(rate_pct))


def knuth_bucket100(keys) -> "np.ndarray":
    """The percent bucket behind :func:`knuth_sample_mask` —
    ``((key * KNUTH_MULT) % 2^32) % 100`` — exposed so callers can compare
    against a PER-ROW rate (stratified sampling, q61). uint64
    arithmetic: exact mod-2^32 product for any non-negative key."""
    k = np.asarray(keys, dtype=np.int64)
    if (k < 0).any():
        raise ValueError("knuth_bucket100: keys must be non-negative")
    h = (k.astype(np.uint64) * np.uint64(KNUTH_MULT)) % np.uint64(4294967296)
    return (h % np.uint64(100)).astype(np.int64)
