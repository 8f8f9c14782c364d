"""The CLI runner (in-process, resumable), the vet UI's mark-best rule,
and the xlsx writer with its round-trip reader."""

import os

import pyarrow as pa
import ray.data as rd


def test_cli_runner_resume(tmp_path):
    from batch_geocode_ray.run import main

    out = str(tmp_path / "out")
    args = ["--demo", "12000", "--out", out, "--tiles", "7",
            "--files-per-partition", "1"]
    s1 = main(args)
    assert s1["partitions"] == 3 and s1["computed"] == 3  # 5k-row shards
    assert s1["rows_out"] == 12000
    assert os.path.exists(os.path.join(out, "run_summary.json"))
    s2 = main(args)
    assert s2["computed"] == 0 and s2["skipped_resume"] == 3

    # reference-shaped CSV export off the checkpointed output
    csv_path = str(tmp_path / "wide.csv")
    s3 = main(args + ["--csv-out", csv_path])
    assert s3["csv_rows"] == 12000
    with open(csv_path) as f:
        header = [c.strip('"') for c in f.readline().strip().split(",")]
    assert "best_name" in header and "GM1_buffer" in header


def test_mark_best_matches_reference_js():
    """Parity with vet.html:131-147: copy the chosen source's fields
    into best_*, name -> '{name} (from {src})', nameless source ->
    best_name = src."""
    import pyarrow as pa

    from batch_geocode_ray.pipelines.vet import mark_best

    batch = pa.table({
        "url": pa.array(["u1", "u2", "u3"]),
        "GM1_name": pa.array(["Kigali", None, "Lima"]),
        "GM1_type": pa.array(["city", "city", "city"]),
        "GM1_lat": pa.array([-1.95, 2.0, -12.05]),
        "GM1_long": pa.array([30.06, 3.0, -77.04]),
        "GM1_buffer": pa.array([1.2, 0.5, 3.0]),
        "OSM1_name": pa.array(["Kigali (OSM)", "Accra", None]),
        "OSM1_type": pa.array(["node", "node", "node"]),
        "OSM1_lat": pa.array([-1.96, 5.55, 0.0]),
        "OSM1_long": pa.array([30.05, -0.2, 0.0]),
        "OSM1_buffer": pa.array([0.9, 0.4, 0.1]),
        "best_name": pa.array([None, None, None], pa.string()),
        "best_type": pa.array([None, None, None], pa.string()),
        "best_lat": pa.array([None, None, None], pa.float64()),
        "best_long": pa.array([None, None, None], pa.float64()),
        "best_buffer": pa.array([None, None, None], pa.float64()),
    })

    # whole-batch single source
    out = mark_best(batch, "GM1")
    assert out["best_name"].to_pylist() == [
        "Kigali (from GM1)", "GM1", "Lima (from GM1)"]
    assert out["best_lat"].to_pylist() == [-1.95, 2.0, -12.05]
    assert out["best_buffer"].to_pylist() == [1.2, 0.5, 3.0]

    # per-row choice (each vetting click picks a source for one row)
    out2 = mark_best(batch, pa.array(["OSM1", "GM1", "OSM1"]))
    assert out2["best_name"].to_pylist() == [
        "Kigali (OSM) (from OSM1)", "GM1", "OSM1"]
    assert out2["best_lat"].to_pylist() == [-1.96, 2.0, 0.0]
    assert out2["best_type"].to_pylist() == ["node", "city", "node"]


def test_xlsx_round_trip_and_dispatch(tmp_path):
    """Stdlib OOXML subset: write -> read round-trips values and types;
    sharedStrings + sparse rows parse."""
    import pyarrow as pa

    from batch_geocode_ray.sources.xlsx import write_xlsx

    from .reference import read_xlsx

    t = pa.table({
        "address": pa.array(["Kigali, Rwanda", "São Paulo", None]),
        "iso2": pa.array(["rw", "br", "pe"]),
        "best_lat": pa.array([-1.95, -23.55, None], pa.float64()),
        "n": pa.array([1, 2, 3], pa.int64()),
    })
    path = str(tmp_path / "vet_output.xlsx")
    write_xlsx(t, path)
    back = read_xlsx(path)
    assert back["address"].to_pylist() == ["Kigali, Rwanda", "São Paulo", None]
    assert back["iso2"].to_pylist() == ["rw", "br", "pe"]
    assert back["best_lat"].to_pylist() == [-1.95, -23.55, None]
    assert back["n"].to_pylist() == [1.0, 2.0, 3.0]  # numbers -> float64

    # a foreign-producer shape: sharedStrings + r-addressed sparse cells
    import io
    import zipfile

    buf = io.BytesIO()
    with zipfile.ZipFile(path) as z:
        parts = {n: z.read(n) for n in z.namelist()}
    parts["xl/worksheets/sheet1.xml"] = (
        '<?xml version="1.0"?>'
        '<worksheet xmlns="http://schemas.openxmlformats.org/'
        'spreadsheetml/2006/main"><sheetData>'
        '<row r="1"><c r="A1" t="s"><v>0</v></c>'
        '<c r="C1" t="s"><v>1</v></c></row>'
        '<row r="2"><c r="A2"><v>7</v></c>'
        '<c r="C2" t="s"><v>2</v></c></row>'
        "</sheetData></worksheet>").encode()
    parts["xl/sharedStrings.xml"] = (
        '<?xml version="1.0"?>'
        '<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/'
        '2006/main" count="3" uniqueCount="3">'
        "<si><t>k</t></si><si><t>name</t></si><si><t>hello</t></si></sst>"
    ).encode()
    with zipfile.ZipFile(buf, "w") as z:
        for n, data in parts.items():
            z.writestr(n, data)
    foreign = read_xlsx(buf.getvalue())
    assert foreign.column_names == ["k", "col1", "name"]
    assert foreign["k"].to_pylist() == [7.0]
    assert foreign["name"].to_pylist() == ["hello"]


def test_write_reference_output_xlsx(tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from batch_geocode_ray.sources.writers import write_reference_csv

    from .reference import read_xlsx

    ds = rd.from_arrow(pa.table({
        "url": pa.array(["u1"]),
        "best_name": pa.array(["X"]),
        "best_lat": pa.array([1.0]),
    }))
    out = str(tmp_path / "o.xlsx")
    n = write_reference_csv(ds, out)
    assert n == 1
    t = read_xlsx(out)
    assert t.column_names[0] == "url" and "best_name" in t.column_names


def test_xlsx_property_round_trip():
    """Hypothesis: any (string|float) table round-trips through the
    stdlib OOXML writer/reader (strings modulo the documented
    XML-invalid-char sanitization; float64 exactly via repr)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import io
    import math
    import re

    import pyarrow as pa

    from batch_geocode_ray.sources.xlsx import write_xlsx

    from .reference import read_xlsx

    _invalid = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\x7f￾￿]")

    @settings(max_examples=40, deadline=None)
    @given(
        strs=st.lists(st.one_of(st.none(), st.text(max_size=20)),
                      min_size=1, max_size=8),
        base=st.floats(allow_nan=False, allow_infinity=False,
                       width=64, min_value=-1e12, max_value=1e12),
    )
    def roundtrip(strs, base):
        strs = strs + ["not-a-number"]  # pin the column to string
        # (the reader infers float64 when EVERY cell parses numeric)
        n = len(strs)
        floats = [base + i for i in range(n)]
        t = pa.table({
            "s": pa.array(strs, pa.string()),
            "f": pa.array(floats, pa.float64()),
        })
        buf = io.BytesIO()
        write_xlsx(t, buf)
        back = read_xlsx(buf.getvalue())
        want_s = [None if (v is None or v == "")
                  else _invalid.sub("�", v) for v in strs]
        got_s = back["s"].to_pylist() if "s" in back.column_names else []
        # empty strings become empty cells -> read back as null
        assert got_s == want_s
        got_f = back["f"].to_pylist()
        for g, w in zip(got_f, floats):
            assert g is not None and (g == w or math.isclose(g, w))

    roundtrip()
