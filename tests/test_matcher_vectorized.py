"""Vectorized matcher ≡ a naive all-occurrence token-window scan
(tests/oracle.py), token-index spans included."""

import pyarrow as pa

from batch_geocode_ray.sources.fixtures import ensure_fixture_dir, generate_world
from batch_geocode_ray.stages.matcher import GazetteerMatcher
from batch_geocode_ray.state.gazetteer import GazetteerIndex
from .oracle import naive_mentions


def test_vectorized_equals_ac_on_fixture():
    """Named for the Aho-Corasick engine it was first checked against;
    the reference is now the naive scan, which also pins the spans."""
    import glob

    import pyarrow.parquet as pq

    d = ensure_fixture_dir(300)
    w = generate_world()
    idx = GazetteerIndex.from_table(w.gazetteer)
    batch = pq.read_table(sorted(glob.glob(f"{d}/pages/*.parquet"))[0])
    got = GazetteerMatcher(idx)(batch)["mentions"].to_pylist()
    assert got == naive_mentions(batch["text"].to_pylist(), idx)
    assert sum(len(m) for m in got) > 300  # fixture is mention-rich


def test_vectorized_handcrafted_cases():
    rows = [
        (0, "Echo City", 0.0, 0.0, None, None, None, None, "US", "p", 1, "GM"),
        (1, "Echo", 1.0, 1.0, None, None, None, None, "US", "p", 1, "OSM"),
        (2, "Echo City", 2.0, 2.0, None, None, None, None, "FR", "p", 1, "GN"),
        (3, "Deep Blue Sea", 3.0, 3.0, None, None, None, None, "US", "p", 1, "GM"),
    ]
    gaz = pa.table({
        "gazetteer_id": pa.array([r[0] for r in rows], pa.int64()),
        "name": pa.array([r[1] for r in rows]),
        "lat": pa.array([r[2] for r in rows], pa.float64()),
        "lon": pa.array([r[3] for r in rows], pa.float64()),
        "bb_n": pa.array([r[4] for r in rows], pa.float64()),
        "bb_s": pa.array([r[5] for r in rows], pa.float64()),
        "bb_e": pa.array([r[6] for r in rows], pa.float64()),
        "bb_w": pa.array([r[7] for r in rows], pa.float64()),
        "cc": pa.array([r[8] for r in rows]),
        "type": pa.array([r[9] for r in rows]),
        "population": pa.array([r[10] for r in rows], pa.int64()),
        "source": pa.array([r[11] for r in rows]),
    })
    idx = GazetteerIndex.from_table(gaz)
    texts = [
        "visit Echo City today",          # Echo (nested) + Echo City x2 sources
        "Echo City Echo City",            # repeated occurrences
        "the deep blue sea is deep",      # 3-token phrase
        "echoing is not Echo-adjacent",   # 'echo' token appears ('echo'
                                          # then 'adjacent'); 'echoing' is NOT a hit
        "",
    ]
    batch = pa.table({"text": pa.array(texts)})
    got_ms = GazetteerMatcher(idx)(batch)["mentions"].to_pylist()
    assert got_ms == naive_mentions(texts, idx)
    got = [sorted(m["gazetteer_id"] for m in ms) for ms in got_ms]
    assert got[0] == [0, 1, 2]          # Echo + both Echo City entries
    assert got[1] == [0, 0, 1, 1, 2, 2]  # every occurrence, every source
    assert got[2] == [3]
    assert got[3] == [1]                 # "Echo" token from "Echo-adjacent"
    assert got[4] == []
    # token-index spans
    echo_city = [m for m in got_ms[0] if m["gazetteer_id"] == 0][0]
    assert (echo_city["start"], echo_city["end"]) == (1, 3)


def test_ascii_fold_on_both_sides():
    """Gazetteer names and page text share one token rule, the ASCII
    fold: U+0130, U+0131 and the Kelvin sign U+212A are separators on
    both sides, though Unicode lowers two of them to ASCII. A
    Unicode-lowered gazetteer made U+0130 "zmir" ('i', 'zmir'), which no
    page could match."""
    from batch_geocode_ray.functions.text import html_token_runs

    names = ["\u0130zmir", "\u212aIEL", "Kiel", "izmir"]
    n = len(names)
    gaz = pa.table({
        "gazetteer_id": pa.array(range(n), pa.int64()),
        "name": pa.array(names),
        "lat": pa.array([0.0] * n), "lon": pa.array([0.0] * n),
        "bb_n": pa.array([None] * n, pa.float64()),
        "bb_s": pa.array([None] * n, pa.float64()),
        "bb_e": pa.array([None] * n, pa.float64()),
        "bb_w": pa.array([None] * n, pa.float64()),
        "cc": pa.array([None] * n, pa.string()),
        "type": pa.array(["t"] * n),
        "population": pa.array([1] * n, pa.int64()),
        "source": pa.array(["GM"] * n),
    })
    idx = GazetteerIndex.from_table(gaz)
    texts = ["\u0130zmir", "\u0131zmir", "IZMIR", "\u212aIEL", "KIEL", "kiel",
             "zmir", "i zmir", "k iel"]
    matcher = GazetteerMatcher(idx)
    got = matcher(pa.table({"text": pa.array(texts)}))["mentions"].to_pylist()
    assert got == naive_mentions(texts, idx)
    assert [[(m["gazetteer_id"], m["start"], m["end"]) for m in ms] for ms in got] == [
        [(0, 0, 1)], [(0, 0, 1)], [(3, 0, 1)], [(1, 0, 1)], [(2, 0, 1)], [(2, 0, 1)],
        # the names fold to the one tokens ("zmir",) and ("iel",): they
        # match the bare token, and never span ("i", "zmir")/("k", "iel")
        [(0, 0, 1)], [(0, 1, 2)], [(1, 1, 2)]]
    html = pa.array([f"<p>{t}</p>".encode() for t in texts], pa.binary())
    assert matcher.mentions(html_token_runs(html)).to_pylist() == got
