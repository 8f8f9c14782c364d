"""URL canonicalization / domain extraction / deterministic sampling."""

import numpy as np
import pyarrow as pa

from batch_geocode_ray.functions.urls import (
    canonicalize_urls,
    deterministic_sample_mask,
    host_of,
    registered_domain_of,
)


def test_canonicalize():
    urls = pa.array([
        "HTTP://Example.COM:80/Path/",
        "https://example.com:443/a?utm_source=x&q=1#frag",
        "https://example.com/a?gclid=123",
        "https://example.com/a?q=1&fbclid=z&r=2",
        "https://example.com/",
        "not a url",
    ])
    got = canonicalize_urls(urls).to_pylist()
    assert got[0] == "http://example.com/Path"
    assert got[1] == "https://example.com/a?q=1"
    assert got[2] == "https://example.com/a"
    assert got[3] == "https://example.com/a?q=1&r=2"
    assert got[4] == "https://example.com/"   # root slash kept
    assert got[5] == "not a url"              # passthrough


def test_host_and_domain():
    urls = pa.array([
        "https://a.b.Example.com/x",
        "http://user:pw@sub.site.org:8080/y",
        "ftp://files.example.net/z",
        "garbage",
    ])
    hosts = host_of(urls).to_pylist()
    assert hosts == ["a.b.example.com", "sub.site.org", "files.example.net", None]
    doms = registered_domain_of(urls).to_pylist()
    assert doms == ["example.com", "site.org", "example.net", None]


def test_deterministic_sample():
    keys = pa.array([f"url{i}" for i in range(20_000)])
    m1 = deterministic_sample_mask(keys, 0.1)
    m2 = deterministic_sample_mask(keys, 0.1)
    assert (m1 == m2).all()                       # stable
    assert abs(m1.mean() - 0.1) < 0.01            # calibrated
    # nested rates: a 5% sample is a subset of the 10% sample
    m5 = deterministic_sample_mask(keys, 0.05)
    assert (~m1 & m5).sum() == 0
    # integer keys work too
    ik = pa.array(np.arange(10_000), pa.int64())
    mi = deterministic_sample_mask(ik, 0.2)
    assert abs(mi.mean() - 0.2) < 0.02
