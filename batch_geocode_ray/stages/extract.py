"""HTML→text extraction stage (stateless map_batches) and the
extraction checks of the fused flagship stage.

The flagship no longer builds ``text``: its fused stage tokenizes the
html bytes directly (``functions/text.html_token_runs``).
:func:`extract_text_stage` is the text path: it recomputes ``text`` from
``html`` with the vectorized extractor — the per-row invariant is that
this equals the input's oracle ``text`` byte-for-byte per url (the
BASELINE.json input_hint) — then DROPS the html column so the large
binary payload never travels further (SURVEY §4 memory note).
:func:`verify_html_tokens` is the fused stage's verify mode: the same
extraction check, plus the html kernel's tokens against the extracted
text's, per row slice of the kernel.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from batch_geocode_ray.functions.text import (
    TokenRuns,
    extract_text_column,
    run_tokens,
    token_runs,
)


def extract_text_stage(batch: pa.Table) -> pa.Table:
    """Replace ``text`` with the extraction of ``html`` and drop ``html``."""
    cols = {name: batch[name] for name in batch.column_names if name != "html"}
    cols["text"] = extract_text_column(batch["html"])
    return pa.table(cols)


def verify_html_tokens(batch: pa.Table, *runs: TokenRuns) -> None:
    """Check the html token runs of ``batch``, given as the runs of its
    consecutive row slices (one for the whole batch), two ways: the
    extraction of each slice's ``html`` equals its input ``text`` (when
    present), and its runs carry the same tokens per row as that
    extraction. A mismatch raises, naming the batch's first mismatching
    urls, whatever the slicing."""
    bad: dict[str, list[pa.Array]] = {}
    lo = 0
    for r in runs:
        part = batch.slice(lo, len(r.row_first) - 1)
        lo += part.num_rows
        extracted = extract_text_column(part["html"])
        if "text" in batch.column_names:
            bad.setdefault("extract_text mismatch vs oracle", []).append(
                pc.not_equal(extracted, part["text"].combine_chunks()))
        bad.setdefault("html token kernel mismatch vs extracted text", []).append(
            pc.not_equal(pc.binary_join(run_tokens(r), b" "),
                         pc.binary_join(run_tokens(token_runs(extracted)), b" "))
            .fill_null(True))
    for what, masks in bad.items():
        mask = pa.chunked_array(masks)
        if pc.any(mask).as_py():
            urls = batch["url"].filter(mask).to_pylist()[:5]
            raise AssertionError(f"{what} for urls: {urls}")
