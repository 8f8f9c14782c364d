"""Output writers (SURVEY §2.1 S3-S5).

The engine's native sink is partitioned Parquet with lineage
(state/checkpoint.py). These writers add the REFERENCE-SHAPED outputs:
a wide CSV laid out exactly like the reference's
``rearrange_fields`` + ``write_pandas`` result
(reference geocode/batch_geocode.py:23-38, utilities.py:21-31), so a
user of the reference can consume this engine's output unchanged.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.csv as pacsv

from ray.data import Dataset

from batch_geocode_ray.config import GEOCODING_SUFFIXES
from batch_geocode_ray.stages.stateful import gather


def reference_column_order(columns: list[str]) -> list[str]:
    """The reference's output column ordering (batch_geocode.py:29-38):
    non-geocode input columns first (original order), then
    {prefix}_{suffix} with prefixes sorted case-insensitively and
    'best' forced first, suffixes in the kept list; bb_* never appear.
    """
    suffix_set = set(GEOCODING_SUFFIXES)
    geo = [c for c in columns
           if "_" in c and c.rsplit("_", 1)[1] in suffix_set]
    meta = [c for c in columns if c not in geo]
    prefixes = sorted({c[:c.index("_")] for c in geo}, key=str.lower)
    if "best" in prefixes:
        prefixes.remove("best")
    prefixes = ["best"] + prefixes
    ordered = [f"{p}_{sfx}" for p in prefixes for sfx in GEOCODING_SUFFIXES]
    return meta + ordered


def write_reference_csv(ds: Dataset, out_path: str,
                        max_driver_rows: int = 2_000_000) -> int:
    """Write the wide geocode Dataset as ONE reference-shaped CSV.

    A single CSV is inherently a driver-side sink (the reference's
    output contract, utilities.py:21-31); this guards with
    ``max_driver_rows`` — beyond that, use the partitioned parquet sink
    and export per-partition CSVs instead. Missing {prefix}_{suffix}
    combinations materialize as empty (null) columns, matching the
    reference's ``reindex`` NaN columns. Returns rows written.
    """
    table = gather(ds)
    if table.num_rows > max_driver_rows:
        raise ValueError(
            f"{table.num_rows} rows exceed single-CSV limit "
            f"{max_driver_rows}; write partitioned parquet instead")
    order = reference_column_order(table.column_names)
    cols = {}
    for name in order:
        if name in table.column_names:
            cols[name] = table[name]
        else:  # reindex semantics: absent combination -> null column
            typ = (pa.string() if name.rsplit("_", 1)[1] in ("name", "type")
                   else pa.float64())
            cols[name] = pa.nulls(table.num_rows, typ)
    out = pa.table(cols)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    if out_path.lower().endswith((".xlsx", ".xlsm")):
        # the reference writes xlsx when asked to (utilities.py:26-28);
        # stdlib OOXML writer since no codec library exists here
        from batch_geocode_ray.sources.xlsx import write_xlsx

        write_xlsx(out, out_path)
    else:
        pacsv.write_csv(out, out_path)
    return out.num_rows
