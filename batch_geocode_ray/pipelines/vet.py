"""The vet UI's "mark best" rule (reference app/templates/vet.html), as
a vectorized kernel that q45 drives.
"""

from __future__ import annotations

import pyarrow as pa

from batch_geocode_ray.config import GEOCODING_SUFFIXES


def mark_best(batch: pa.Table, source: str | pa.Array) -> pa.Table:
    """The vet UI's "mark best" rule as a vectorized kernel (reference
    app/templates/vet.html:131-147): copy the chosen source's
    ``{source}_{suffix}`` fields (every ``GEOCODING_SUFFIXES`` suffix)
    into ``best_{suffix}``, rewriting
    ``best_name`` to ``'{name} (from {source})'`` — or just
    ``'{source}'`` when the source has no name (vet.html:139-143).

    ``source`` may be one prefix string for the whole batch or a
    per-row string array (each human vet picks per row). Existing
    ``best_*`` columns are replaced; missing ``{source}_{suffix}``
    columns produce null ``best_{suffix}`` (the JS copies whatever
    sub-fields exist).
    """
    import pyarrow.compute as pc

    n = batch.num_rows
    if isinstance(source, str):
        src_arr = pa.array([source] * n, pa.string())
        prefixes = [source]
    else:
        src_arr = source.combine_chunks() if isinstance(
            source, pa.ChunkedArray) else source
        prefixes = sorted(set(src_arr.to_pylist()) - {None})

    out = {}
    for suf in GEOCODING_SUFFIXES:
        # per-row select from the chosen prefix's column
        acc = None
        for p in prefixes:
            col = f"{p}_{suf}"
            vals = (batch[col] if col in batch.column_names
                    else pa.nulls(n, pa.string() if suf in ("name", "type")
                                  else pa.float64()))
            picked = pc.if_else(pc.equal(src_arr, p), vals,
                                acc if acc is not None
                                else pa.nulls(n, vals.type
                                              if hasattr(vals, "type")
                                              else vals.chunk(0).type))
            acc = picked
        out[suf] = acc
    # name rewrite: '{name} (from {src})' else '{src}'
    name = out["name"]
    suffixed = pc.binary_join_element_wise(
        pc.cast(name, pa.string()), pa.array([" (from "] * n),
        src_arr, pa.array([")"] * n), "",
        null_handling="emit_null")
    # binary_join_element_wise with the separator trick puts the
    # pieces in argument order: name + " (from " + src + ")"
    out["name"] = pc.if_else(pc.is_valid(name), suffixed, src_arr)

    for suf in GEOCODING_SUFFIXES:
        col_name = f"best_{suf}"
        arr = out[suf]
        if col_name in batch.column_names:
            batch = batch.set_column(
                batch.column_names.index(col_name), col_name, arr)
        else:
            batch = batch.append_column(col_name, arr)
    return batch

