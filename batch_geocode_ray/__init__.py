"""batch_geocode_ray — a Ray-Data-native geocoding + spatial-join engine.

A from-scratch re-expression of the semantics of the reference repo
``GISforHealth/batch_geocode`` (see /root/reference) as a streaming,
distributed Ray Data pipeline over Common-Crawl-style web-page Parquet:

    read_parquet(pages)
      -> map_batches(GeocodeFusedStage)        # ONE fused stage, worker-cached tasks:
           html_token_runs                     #   html bytes -> token runs (no text),
                                               #   per row slice of <= SLICE_BYTES
           GazetteerMatcher                    #   vocab codes -> phrase windows
           resolve + vet                       #   vectorized NumPy, reference parity
           encode cells                        #   S2 / hex (H3-style) indices
           PIPJoin                             #   broadcast grid point-in-polygon
           KNNFacilities                       #   optional nearest facilities
      -> write_parquet (per-partition lineage, resumable)
      -> grouped_aggregate(cell)               # tile stats: per-batch partials merged
                                               #   through exchange.bucket_exchange

The reference geocodes one row at a time through four live HTTP APIs
(reference geocode/batch_geocode.py:173-182); this engine replaces the
HTTP calls with an offline gazetteer (north_star in BASELINE.json) and
keeps the reference's *semantics*: buffer vetting with composite best
(query_funcs.py:193-219), wide ``{prefix}_{suffix}`` output columns
(batch_geocode.py:23-38), and top-N results per source (query_funcs.py:376).
"""

from batch_geocode_ray.config import PipelineConfig


def configure_for_throughput() -> None:
    """Tune the ambient ray.data.DataContext for dedicated-pipeline
    throughput.

    Ray's streaming executor reserves 50% of cluster resources per
    operator by default (``op_resource_reservation_ratio=0.5``) to keep
    many concurrent pipelines from deadlocking each other. A dedicated
    batch job runs ONE pipeline; the reservation just idles half the
    cluster (measured: a pure-compute map_batches ran ~4x under-parallel
    on 32 CPUs with it on, near-ideal with it off). Call this from entry
    points that own the whole cluster (bench, CLI jobs) — never from
    library code.
    """
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.op_resource_reservation_enabled = False


__all__ = ["PipelineConfig", "configure_for_throughput"]
__version__ = "0.1.0"
