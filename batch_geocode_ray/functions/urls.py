"""URL kernels for web-scale corpora: canonicalization, host/domain
extraction, deterministic sampling.

All Arrow/RE2-vectorized (no per-row Python); canonicalization is the
standard dedup-prep ladder — lowercase scheme+host, strip default
ports, drop fragments and common tracking parameters, trim trailing
slash — so near-identical URLs collapse before url-level exact dedup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from batch_geocode_ray.functions.hashing import splitmix64, stable_hash64_array

_TRACKING_PARAMS = ("utm_source", "utm_medium", "utm_campaign", "utm_term",
                    "utm_content", "gclid", "fbclid", "ref")


def _chunked(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def canonicalize_urls(url_col) -> pa.Array:
    """Vectorized canonical form:
    1. lowercase the scheme://host[:port] prefix;
    2. strip default ports (:80 for http, :443 for https);
    3. drop the #fragment;
    4. drop known tracking query params (utm_*, gclid, fbclid, ref);
    5. drop an empty trailing '?' and a trailing '/' on non-root paths.
    """
    col = _chunked(url_col)
    # 1: lowercase scheme+authority only (path case is significant)
    ext = pc.extract_regex(col, pattern=r"^(?P<head>[a-zA-Z][a-zA-Z0-9+.-]*://[^/?#]*)(?P<rest>.*)$")
    head = pc.utf8_lower(pc.struct_field(ext, "head"))
    rest = pc.struct_field(ext, "rest")
    joined = pc.binary_join_element_wise(head, rest, "")
    col = pc.if_else(pc.is_valid(joined), joined, col)
    # 2: default ports (RE2 has no lookahead: capture the tail instead)
    col = pc.replace_substring_regex(
        col, pattern=r"^(http://[^/?#:]*):80($|[/?#].*)", replacement=r"\1\2")
    col = pc.replace_substring_regex(
        col, pattern=r"^(https://[^/?#:]*):443($|[/?#].*)", replacement=r"\1\2")
    # 3: fragment
    col = pc.replace_substring_regex(col, pattern=r"#.*$", replacement="")
    # 4: tracking params (leading ? or & + param=value)
    params = "|".join(_TRACKING_PARAMS)
    col = pc.replace_substring_regex(
        col, pattern=rf"([?&])(?:{params})=[^&#]*&?", replacement=r"\1")
    col = pc.replace_substring_regex(col, pattern=r"[?&]$", replacement="")
    col = pc.replace_substring_regex(col, pattern=r"\?&", replacement="?")
    # 5: trailing slash on a non-root path (the lone root slash stays)
    col = pc.replace_substring_regex(
        col, pattern=r"^([a-zA-Z][a-zA-Z0-9+.-]*://[^/]+/.*[^/])/$",
        replacement=r"\1")
    return col


def host_of(url_col) -> pa.Array:
    """Lowercased host (authority minus port/userinfo), null if absent."""
    col = _chunked(url_col)
    ext = pc.extract_regex(
        col, pattern=r"^[a-zA-Z][a-zA-Z0-9+.-]*://(?:[^/?#@]*@)?(?P<host>[^/?#:]+)")
    return pc.utf8_lower(pc.struct_field(ext, "host"))


def registered_domain_of(url_col) -> pa.Array:
    """Last two host labels ('example.co' of 'a.b.example.co') — the
    cheap heuristic; a public-suffix list would slot in here."""
    host = host_of(url_col)
    ext = pc.extract_regex(host, pattern=r"(?P<dom>[^.]+\.[^.]+)$")
    dom = pc.struct_field(ext, "dom")
    return pc.if_else(pc.is_valid(dom), dom, host)


def deterministic_sample_mask(key_col, rate: float) -> np.ndarray:
    """Stable Bernoulli(rate) sample by key hash: same key -> same
    decision on every run, machine, and worker (the reproducible-sample
    primitive for experiments on 10^12-row tables). Accepts string or
    integer keys."""
    col = _chunked(key_col)
    if pa.types.is_integer(col.type):
        h = splitmix64(np.asarray(col.to_numpy(zero_copy_only=False),
                                  dtype=np.uint64))
    else:
        h = splitmix64(stable_hash64_array(col))
    return (h.astype(np.float64) / 2.0 ** 64) < rate
