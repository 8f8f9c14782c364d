"""Sketch kernels: minhash accuracy, simhash locality, stable hashing."""

import numpy as np
import pyarrow as pa

from batch_geocode_ray.functions.hashing import (
    hamming64,
    minhash_permutation_params,
    splitmix64,
    stable_hash64_array,
)

from .reference import minhash_signature, shingle_hashes, simhash64


def test_stable_hash_deterministic_and_distinct():
    a = stable_hash64_array(["x", "y", "x"])
    b = stable_hash64_array(pa.array(["x", "y", "x"]))
    assert (a == b).all()
    assert a[0] == a[2] and a[0] != a[1]


def test_splitmix_bijective_ish():
    x = np.arange(1000, dtype=np.uint64)
    y = splitmix64(x)
    assert len(np.unique(y)) == 1000


def test_minhash_estimates_jaccard():
    rng = np.random.RandomState(0)
    a, b = minhash_permutation_params(256)
    universe = rng.randint(0, 2**63, size=200, dtype=np.uint64)
    s1 = universe[:150]
    s2 = universe[50:]  # |intersection|=100, |union|=200 -> J=0.5
    sig1 = minhash_signature(s1, a, b)
    sig2 = minhash_signature(s2, a, b)
    est = (sig1 == sig2).mean()
    assert abs(est - 0.5) < 0.12


def test_minhash_identical_and_empty():
    a, b = minhash_permutation_params(64)
    s = np.array([1, 2, 3], dtype=np.uint64)
    assert (minhash_signature(s, a, b) == minhash_signature(s, a, b)).all()
    empty = minhash_signature(np.array([], dtype=np.uint64), a, b)
    assert (empty == empty[0]).all()


def test_shingles():
    h = np.array([1, 2, 3, 4], dtype=np.uint64)
    sh3 = shingle_hashes(h, 3)
    assert len(sh3) == 2  # windows (1,2,3), (2,3,4)
    short = shingle_hashes(np.array([5], dtype=np.uint64), 3)
    assert len(short) == 1


def test_simhash_locality():
    rng = np.random.RandomState(1)
    base = rng.randint(0, 2**63, size=100, dtype=np.uint64)
    near = base.copy()
    near[:5] = rng.randint(0, 2**63, size=5, dtype=np.uint64)  # 5% change
    far = rng.randint(0, 2**63, size=100, dtype=np.uint64)
    h_base = np.uint64(simhash64(base))
    d_near = hamming64(h_base, np.uint64(simhash64(near)))
    d_far = hamming64(h_base, np.uint64(simhash64(far)))
    assert d_near < d_far
    assert hamming64(h_base, h_base) == 0


def test_hamming_vectorized():
    a = np.array([0b1010, 0b1111], dtype=np.uint64)
    b = np.array([0b0010, 0b0000], dtype=np.uint64)
    assert hamming64(a, b).tolist() == [1, 4]


def test_knuth_bucket100_no_int64_overflow():
    """Keys past ~3.5e9 used to wrap the int64 product silently; uint64
    arithmetic keeps the mod-2^32 result exact (2^32 | 2^64). Cross-check
    against DuckDB HUGEINT on keys straddling the old overflow point."""
    import duckdb
    import numpy as np

    from batch_geocode_ray.functions.hashing import knuth_bucket100

    keys = np.array([0, 1, 3_500_000_000, 2**40 + 17, 2**62 + 3],
                    dtype=np.int64)
    got = knuth_bucket100(keys)
    want = [duckdb.sql(
        f"SELECT (({int(k)}::HUGEINT * 2654435761) % 4294967296) % 100"
    ).fetchone()[0] for k in keys]
    assert got.tolist() == want
    import pytest

    with pytest.raises(ValueError):
        knuth_bucket100(np.array([-1], dtype=np.int64))
