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
text's.
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


def _raise_on_mismatch(batch: pa.Table, bad: pa.Array, what: str) -> None:
    if pc.any(bad).as_py():
        urls = batch["url"].filter(bad).to_pylist()[:5]
        raise AssertionError(f"{what} for urls: {urls}")


def extract_text_stage(batch: pa.Table) -> pa.Table:
    """Replace ``text`` with the extraction of ``html`` and drop ``html``."""
    cols = {name: batch[name] for name in batch.column_names if name != "html"}
    cols["text"] = extract_text_column(batch["html"])
    return pa.table(cols)


def verify_html_tokens(batch: pa.Table, runs: TokenRuns) -> None:
    """Check the html token runs of ``batch`` two ways: the extraction of
    ``html`` equals the input ``text`` (when present), and ``runs`` carry
    the same tokens per row as that extraction. A mismatch raises,
    naming the urls."""
    extracted = extract_text_column(batch["html"])
    if "text" in batch.column_names:
        bad = pc.not_equal(extracted, batch["text"].combine_chunks())
        _raise_on_mismatch(batch, bad, "extract_text mismatch vs oracle")
    bad = pc.not_equal(pc.binary_join(run_tokens(runs), b" "),
                       pc.binary_join(run_tokens(token_runs(extracted)), b" "))
    _raise_on_mismatch(batch, bad.fill_null(True),
                       "html token kernel mismatch vs extracted text")
