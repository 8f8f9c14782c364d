"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in the library) calls ``ray.init``/``ray.shutdown``.

- ``entry()``      — flagship geocode pipeline over the deterministic
                     sf0.001-sized synthetic page fixture (the pipeline's
                     input shape per BASELINE.json ``input_hint``).
- ``queries()``    — one callable per implemented operator/pipeline
                     (SURVEY.md §2 + the dedup/similarity/text-analysis
                     mandate); each takes ``sf_dir``.
- ``oracle_sql()`` — DuckDB equivalents for every SQL-expressible query;
                     sketch/approximate/fixture-input ops are rows-only.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from batch_geocode_ray.pipelines.queries import QUERIES

    return QUERIES["q22_geocode_pages"]("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from batch_geocode_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from batch_geocode_ray.pipelines.queries import ORACLE_SQL, _flagship_dir

    # q46-q48 oracle SQL reads the deterministic page fixture by parquet
    # path; make sure it exists even if the oracle runs before the query.
    _flagship_dir()
    return dict(ORACLE_SQL)
