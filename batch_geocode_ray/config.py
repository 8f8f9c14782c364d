"""Pipeline configuration.

Mirrors the reference's tunables and their defaults:
  - ``results_per_app=2``  (reference geocode/query_funcs.py:94, CLI -r
    default 2 at batch_geocode.py:139-142)
  - ``max_buffer=15`` km   (query_funcs.py:94, CLI -b default at
    batch_geocode.py:143-149)
  - source list (reference ``execute=["GM","OSM","GN","FG"]``,
    query_funcs.py:93) becomes the list of gazetteer sources; each
    source contributes ``{source}{rank}`` prefixes to the wide output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar


# Suffixes kept in the final wide output (reference utilities.py:42-45,
# get_geocoding_suffixes). bb_n/bb_s/bb_e/bb_w are computed but dropped
# by the final projection, exactly like batch_geocode.py:38's reindex.
GEOCODING_SUFFIXES = ["name", "type", "lat", "long", "buffer"]

DEFAULT_SOURCES = ["GM", "OSM", "GN", "FG"]


@dataclass
class PipelineConfig:
    sources: list[str] = field(default_factory=lambda: list(DEFAULT_SOURCES))
    results_per_app: int = 2
    max_buffer: float = 15.0  # km, bbox-diagonal cutoff

    # engine constants, not settable per run
    # kNN neighbours per point
    knn_k: ClassVar[int] = 3
    # Tile aggregation resolutions (H3-style res 7-9 per the north rule;
    # s2 level used for prefix repartitioning).
    hex_resolutions: ClassVar[tuple[int, ...]] = (7, 8, 9)
    s2_level: ClassVar[int] = 12

    def wide_prefixes(self) -> list[str]:
        """All result-key prefixes: ``{source}{rank}`` for every source and
        1-based rank (reference query_funcs.py:190-191) plus ``best``,
        ordered exactly like reference batch_geocode.py:29-34 — unique
        prefixes sorted case-insensitively, with 'best' prepended when
        absent.
        """
        prefixes = sorted(
            {f"{s}{i + 1}" for s in self.sources for i in range(self.results_per_app)},
            key=lambda s: s.lower(),
        )
        if "best" not in prefixes:
            prefixes = ["best"] + prefixes
        return prefixes

    def wide_columns(self) -> list[str]:
        return [f"{p}_{s}" for p in self.wide_prefixes() for s in GEOCODING_SUFFIXES]
