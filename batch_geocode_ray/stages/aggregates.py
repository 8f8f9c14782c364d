"""Tile / summary aggregation (SURVEY §2.6 A3/A4) — shuffle-light.

The scalable shape: **pre-aggregate inside map_batches** (pyarrow's C++
hash group-by collapses each batch to one row per group — a hot
mega-city cell collapses to ONE partial row per batch, which is what
kills skew), then ONE merge kernel over the partials (a pyarrow
``group_by`` re-merge plus the finalize, e.g. mean = sum/count) run
through :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` on the
group keys. The exchange estimates the partials from the plan: below
``SMALL_COLLAPSE_BYTES`` the merge is one task, above it one task per
coarse bucket. The all-to-all only ever carries ~n_groups x n_blocks
rows, not the input rows. Exact quantiles use the same shape with
(group, value) -> count partials.

:func:`grouped_aggregate` is that shape and the package's one keyed
combine: the dedup and similarity ops' pair distincts (``specs=[]``),
copy counts and per-pair min/max go through it too.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from batch_geocode_ray.stages.exchange import (
    _exchange,
    _one_task,
    bucket_exchange,
    distributed_sort,
)
from batch_geocode_ray.stages.stateful import gather, stateful_map_batches


def tile_aggregate(ds: Dataset, cell_col: str) -> Dataset:
    """Full two-stage tile aggregate of ``best_buffer``: partial per
    batch, merged per cell, finalize mean, sorted by cell. Output
    columns: (cell_col, pages, mean_buffer, min_buffer, max_buffer)."""
    return grouped_aggregate(
        ds, [cell_col],
        [(cell_col, "count", "pages"),
         ("best_buffer", "mean", "mean_buffer"),
         ("best_buffer", "min", "min_buffer"),
         ("best_buffer", "max", "max_buffer")],
        sort_keys=[cell_col])


def grouped_aggregate(ds: Dataset, keys: list[str],
                      specs: list[tuple[str, str, str]],
                      sort_keys: list[str] | None = None) -> Dataset:
    """Generic scalable grouped aggregation: per-batch partial combine
    (pyarrow C++ hash group-by) -> merge of partials -> finalize.
    ``specs`` entries are ``(column, op, out_name)`` with op in
    {"sum", "min", "max", "count", "count_rows", "mean"}.

    The partial stage carries one row per (batch, group) instead of one
    per input row (a hot key costs one partial row per batch). The
    merge is ONE kernel — re-aggregate the partials with pyarrow
    ``group_by`` and finalize — run through :func:`bucket_exchange` on
    ``keys``: one task when the input is estimated small, one task per
    coarse bucket otherwise (10^12-row per-url groups).
    Key columns must be integer, temporal, string or binary; null keys
    form their own group. ``sort_keys`` orders the output: inside the
    merge task when collapsed, by a distributed ``sort`` otherwise.
    The exchange sizes the partials by the plan's own estimate of the
    input, so nothing is materialized to choose the plan.
    """
    partial_aggs: list[tuple] = []   # (col, pa_fn)
    partial_names: list[str] = []
    remerge_aggs: list[tuple[str, str]] = []
    means: list[str] = []

    def add_partial(col, fn, name):
        partial_aggs.append((col, fn))
        partial_names.append(name)
        remerge_aggs.append((name, fn if fn in ("min", "max") else "sum"))

    for col, op, out in specs:
        if op in ("sum", "min", "max", "count"):
            add_partial(col, op, out)
        elif op == "count_rows":
            add_partial([], "count_all", out)
        elif op == "mean":
            add_partial(col, "sum", f"__{out}_s")
            add_partial(col, "count", f"__{out}_n")
            means.append(out)
        else:
            raise ValueError(f"unknown op {op}")
    out_names = [out for _, _, out in specs]

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(keys, use_threads=False).aggregate(partial_aggs)
        # pyarrow returns keys first, then aggregates in spec order
        return g.rename_columns(keys + partial_names)

    def merge(b: pa.Table) -> pa.Table:
        # partials arrive in task-completion order, which varies run to
        # run: a canonical row order and a one-thread group_by make the
        # float sums bit-identical across runs (resume must equal clean)
        b = b.sort_by([(c, "ascending") for c in keys + partial_names])
        g = b.group_by(keys, use_threads=False).aggregate(remerge_aggs)
        g = g.rename_columns(keys + partial_names)
        for out in means:
            s = np.asarray(g[f"__{out}_s"].to_numpy(zero_copy_only=False),
                           dtype=np.float64)
            n = np.asarray(g[f"__{out}_n"].to_numpy(zero_copy_only=False),
                           dtype=np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                g = g.append_column(out, pa.array(
                    np.where(n > 0, s / np.maximum(n, 1), np.nan),
                    pa.float64(), from_pandas=True))
        g = g.select(keys + out_names)
        if sort_keys:
            g = g.sort_by([(k, "ascending") for k in sort_keys])
        return g

    out, collapsed = _exchange(
        ds.map_batches(partial, batch_format="pyarrow"), keys, merge)
    if collapsed or not sort_keys:
        return out
    return distributed_sort(out, sort_keys)


def pivot_counts(ds: Dataset, group_col: str, type_col: str,
                 categories: list[str]) -> Dataset:
    """PIVOT: one output row per ``group_col`` value (in no set order), with
    a count column ``n_{c}`` per category of ``type_col`` (SQL:
    ``count(*) FILTER (WHERE type = c) AS n_c``). Unknown categories are dropped (SQL
    IN-list semantics).

    Vectorized per batch as 0/1 indicator columns summed by the same
    partial-combine plan as :func:`grouped_aggregate` — a hot group
    costs one partial row per batch, never a shuffle of raw rows.
    """

    def indicators(b: pa.Table) -> pa.Table:
        cols = {group_col: b[group_col]}
        for c in categories:
            cols[f"n_{c}"] = pc.cast(
                pc.equal(b[type_col], pa.scalar(c)), pa.int64())
        return pa.table(cols)

    specs = [(f"n_{c}", "sum", f"n_{c}") for c in categories]
    return grouped_aggregate(ds.map_batches(indicators,
                                            batch_format="pyarrow"),
                             [group_col], specs)


def grouping_sets_aggregate(ds: Dataset, keys: list[str],
                            specs: list[tuple[str, str, str]],
                            sets: list[list[str]]) -> Dataset:
    """GROUP BY GROUPING SETS: one output level per key subset in
    ``sets``, absent key columns holding ``'ALL'`` (SQL mirrors with
    ``coalesce(k, 'ALL')``). ROLLUP and CUBE are the prefix/powerset
    specializations below. Ops are re-aggregable only
    (sum/min/max/count/count_rows — mean must be derived from
    sum+count by the caller).

    Scale shape: ONE pass over the raw input builds the finest level
    (partial-combine, so input never shuffles raw rows); every coarser
    level re-aggregates the already-reduced fine table — the fine
    result is materialized ONCE and shared by all levels instead of
    re-scanning the input per level. Key columns must be strings (the
    ``'ALL'`` sentinel needs a slot in the same type).
    """
    for _, op, _ in specs:
        if op not in ("sum", "min", "max", "count", "count_rows"):
            raise ValueError(f"cannot re-aggregate op {op!r}")
    out_names = [out for _, _, out in specs]

    fine = grouped_aggregate(ds, keys, specs)
    fine = fine.materialize()  # every level below reads it
    respec = [(out, "sum" if op in ("sum", "count", "count_rows")
               else op, out) for _, op, out in specs]

    def project(level_keys: list[str]):
        def f(b: pa.Table) -> pa.Table:
            n = b.num_rows
            cols = {}
            for k in keys:
                cols[k] = (b[k] if k in level_keys
                           else pa.array(["ALL"] * n, pa.string()))
            for o in out_names:
                cols[o] = b[o]
            return pa.table(cols)
        return f

    levels = []
    for sub in sets:
        sub = [k for k in keys if k in sub]  # canonical order
        if sub == keys:
            lvl = fine
        elif sub:
            lvl = grouped_aggregate(fine, sub, respec)
        else:
            lvl = grouped_aggregate(
                fine.map_batches(
                    lambda b: b.append_column(
                        "_all", pa.array([0] * b.num_rows, pa.int64())),
                    batch_format="pyarrow"),
                ["_all"], respec)
        levels.append(lvl.map_batches(project(sub), batch_format="pyarrow"))
    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out


def rollup_aggregate(ds: Dataset, keys: list[str],
                     specs: list[tuple[str, str, str]]) -> Dataset:
    """GROUP BY ROLLUP(keys...): fine level + one subtotal per key
    prefix + grand total (see :func:`grouping_sets_aggregate`)."""
    sets = [keys[:w] for w in range(len(keys), -1, -1)]
    return grouping_sets_aggregate(ds, keys, specs, sets)


def cube_aggregate(ds: Dataset, keys: list[str],
                   specs: list[tuple[str, str, str]]) -> Dataset:
    """GROUP BY CUBE(keys...): every key subset
    (see :func:`grouping_sets_aggregate`)."""
    import itertools

    sets = [list(c) for w in range(len(keys), -1, -1)
            for c in itertools.combinations(keys, w)]
    return grouping_sets_aggregate(ds, keys, specs, sets)


def global_topk(ds: Dataset, sort_col: str, tie_col: str | list[str],
                k: int) -> Dataset:
    """Global top-k rows by ``sort_col`` DESC (ties: ``tie_col`` ASC, one
    column or a list).

    Per-block partial top-k bounds what the single final merge sees to
    k x n_blocks rows — no all-to-all sort of the full table, and the
    final task's input is O(k x blocks) regardless of input size (the
    same shape as the reference's per-source top-N, query_funcs.py:376,
    lifted to a whole-corpus ranking)."""

    ties = [tie_col] if isinstance(tie_col, str) else tie_col
    order = [(sort_col, "descending")] + [(c, "ascending") for c in ties]

    def take_top(b: pa.Table) -> pa.Table:
        return b.take(pc.sort_indices(b, sort_keys=order)[:k])

    return _one_task(ds.map_batches(take_top, batch_format="pyarrow"),
                     take_top)


def grouped_collect_distinct_sorted(ds: Dataset, key: str, val: str,
                                    out_name: str) -> Dataset:
    """collect_set + sorted string_agg per key: one row per key with
    its DISTINCT ``val`` strings joined by ``,`` in lexicographic
    order. Per-batch distinct-pair combiner shrinks the shuffle to one
    row per (batch, key, val); the assembly runs under
    :func:`~batch_geocode_ray.stages.exchange.bucket_exchange` (never one
    Python call per key) and builds the
    joined strings VECTORIZED — an Arrow ListArray from per-key offsets
    fed to the C++ ``binary_join`` kernel."""

    def distinct_pairs(b: pa.Table) -> pa.Table:
        return (b.select([key, val])
                .group_by([key, val]).aggregate([]))

    def assemble(g: pa.Table) -> pa.Table:
        t = g.select([key, val])
        t = t.take(pc.sort_indices(t, sort_keys=[(key, "ascending"),
                                                 (val, "ascending")]))
        ks = t[key].combine_chunks()  # any Arrow type; segments via equal
        vs = t[val].combine_chunks()
        n = len(ks)
        # drop duplicate (key, val) pairs that met here from different
        # batches' partials
        dup = np.zeros(n, dtype=bool)
        key_eq = (np.asarray(pc.equal(ks.slice(1), ks.slice(0, n - 1))
                             .to_numpy(zero_copy_only=False))
                  if n > 1 else np.zeros(0, dtype=bool))
        if n > 1:
            eq = np.asarray(pc.equal(vs.slice(1), vs.slice(0, n - 1))
                            .to_numpy(zero_copy_only=False))
            dup[1:] = key_eq & eq
        keep = ~dup
        ks, vs = ks.filter(pa.array(keep)), vs.filter(pa.array(keep))
        m = len(ks)
        starts = np.ones(m, dtype=bool)
        if m > 1:
            starts[1:] = ~np.asarray(
                pc.equal(ks.slice(1), ks.slice(0, m - 1))
                .to_numpy(zero_copy_only=False))
        offs = np.concatenate([np.nonzero(starts)[0], [m]])
        lst = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), vs)
        return pa.table({
            key: ks.take(pa.array(np.nonzero(starts)[0], pa.int64())),
            out_name: pc.binary_join(lst, ","),
        })

    pairs = ds.map_batches(distinct_pairs, batch_format="pyarrow")
    return bucket_exchange(pairs, key, assemble)


def int_quantile_threshold(ds: Dataset, value_col: str, q: float) -> int:
    """EXACT global discrete quantile of an INTEGER column at corpus
    scale — the selection statistic behind "keep the top X% by score"
    curation (FineWeb-style length/quality gating).

    Per-batch value->count partials (pyarrow hash group-by) ->
    :func:`grouped_aggregate` merge keyed on the value -> driver
    cumulative scan over the DISTINCT values. Partitioning assumption:
    the SCORE'S CARDINALITY is bounded (doc lengths, integer quality
    scores — ~10^6 distinct), which is what makes the exact answer
    cheap; a continuous score needs the q44 quantile-sketch path and
    its error bound instead.

    Returns the sorted element at index ``ceil(q*n)-1`` (DuckDB
    ``quantile_disc`` semantics, same as :func:`grouped_quantiles`).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"int_quantile_threshold: q={q} outside [0, 1]")
    t = _value_counts(ds, value_col, "int_quantile_threshold")
    n = t["_n"].to_numpy()
    total = int(n.sum())
    rank = min(max(int(np.ceil(q * total)) - 1, 0), total - 1)
    return t[value_col][int(np.searchsorted(np.cumsum(n), rank + 1))].as_py()


def _value_counts(ds: Dataset, value_col: str, who: str) -> pa.Table:
    """``(value_col, _n)``: one row per distinct value of an integer
    column with its count of non-null rows, sorted by value (a null
    last); ValueError naming ``who`` on empty input."""
    t = gather(grouped_aggregate(
        ds.select_columns([value_col]), [value_col],
        [(value_col, "count", "_n")]))
    if not t.num_rows:
        raise ValueError(f"{who}: empty input")
    return t.sort_by(value_col)


def global_percent_rank(ds: Dataset, value_col: str,
                        out_col: str = "pct_rank") -> Dataset:
    """SQL ``percent_rank() OVER (ORDER BY value)`` at corpus scale —
    the rank-CDF normalization used to calibrate quality/length scores
    before thresholding. A naive plan is a global sort plus an ordered
    window (two all-to-alls over every row); this one is mergeable
    value->count partials (same shape as
    :func:`int_quantile_threshold` — the exchange carries one row per
    DISTINCT value, never the inputs), a driver-built
    value -> rows-strictly-below table over the bounded-cardinality
    integer score, ONE broadcast (:func:`stateful_map_batches`), and a
    zero-shuffle scoring pass (one searchsorted probe per batch).

    Tie semantics match SQL RANK: every row of a tied value shares
    ``pct = rows_strictly_below / (n - 1)`` (0.0 when n == 1). The
    division is the same two-integer float64 division DuckDB performs,
    so results are bit-identical. Nulls in ``value_col`` are rejected
    (SQL window functions ORDER nulls instead; callers filter first),
    and so are non-integer columns (TypeError).
    """
    schema = ds.schema()
    vt = dict(zip(schema.names, schema.types))[value_col] if schema else None
    if vt is not None and not pa.types.is_integer(vt):
        raise TypeError(
            f"global_percent_rank: {value_col!r} is {vt}, not an integer "
            "type; the value->count table would truncate it")
    t = _value_counts(ds, value_col, "global_percent_rank")
    if t[value_col].null_count:
        raise ValueError(
            f"global_percent_rank: null values in {value_col!r}; "
            "filter nulls first (SQL windows order them instead)")
    v = t[value_col].to_numpy().astype(np.int64)
    n = t["_n"].to_numpy()
    total = int(n.sum())
    below = np.concatenate([[0], np.cumsum(n)[:-1]])
    pct = (below / float(total - 1) if total > 1
           else np.zeros(len(v), dtype=np.float64))
    return stateful_map_batches(
        ds, _PercentRank((v, pct), value_col=value_col, out_col=out_col),
        batch_format="pyarrow")


class _PercentRank:
    """Per-worker cached probe of the sorted value -> percent-rank
    table: one ``searchsorted`` per batch."""

    def __init__(self, table, value_col: str, out_col: str):
        self.v, self.pct = table
        self.value_col, self.out_col = value_col, out_col

    def __call__(self, b: pa.Table) -> pa.Table:
        x = np.asarray(b[self.value_col].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        idx = np.searchsorted(self.v, x)  # exact: every value is in v
        return b.append_column(self.out_col,
                               pa.array(self.pct[idx], pa.float64()))


def _segment_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Row indices where the (sorted) ``keys`` change; null equals null."""
    n = t.num_rows
    if n == 0:
        return np.zeros(0, np.int64)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in keys:
        col = t[k].combine_chunks()
        a, b = col.slice(1), col.slice(0, n - 1)
        same = pc.or_kleene(pc.equal(a, b),
                            pc.and_(pc.is_null(a), pc.is_null(b)))
        change[1:] |= ~np.asarray(pc.fill_null(same, False)
                                  .to_numpy(zero_copy_only=False), dtype=bool)
    return np.nonzero(change)[0]


def _value_count_quantiles(ds: Dataset, keys: list[str], value_col: str,
                           qs: list[float], out_names: list[str],
                           kind: str) -> Dataset:
    """Exact per-group quantiles from mergeable value->count partials:
    per batch one row per DISTINCT (group, value) with its count, then
    ONE :func:`bucket_exchange` on the group keys only (never on the
    value) whose kernel re-merges the counts, sorts by (keys, value)
    and runs one cumulative scan. ``kind`` picks the per-q formula:
    "disc" (element at rank ceil(q*n)-1) or "cont" (interpolate at
    h = q*(n-1)). Null values are ignored (they stay as a count-0 row,
    sorted last in their group, so an all-null group emits NULLs)."""
    fn = "grouped_quantiles" if kind == "disc" else "grouped_quantile_cont"
    if not qs:
        raise ValueError(f"{fn}: no quantiles requested")
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"{fn}: q={q} outside [0, 1]")
    if len(out_names) != len(qs):
        raise ValueError(f"{fn}: out_names/qs length mismatch")
    cols = keys + [value_col]

    def counts(b: pa.Table) -> pa.Table:
        return (b.select(cols).group_by(cols)
                .aggregate([(value_col, "count")])
                .rename_columns(cols + ["_n"]))

    def finalize(b: pa.Table) -> pa.Table:
        t = (b.group_by(cols).aggregate([("_n", "sum")])
             .rename_columns(cols + ["_n"])
             .sort_by([(c, "ascending") for c in cols]))
        starts = _segment_starts(t, keys)
        # native value dtype: no float rounding before it is needed
        v = pc.fill_null(t[value_col], 0).to_numpy(zero_copy_only=False)
        c = np.asarray(t["_n"].to_numpy(zero_copy_only=False), np.int64)
        cum = np.cumsum(c)
        total = (np.add.reduceat(c, starts) if len(starts)
                 else np.zeros(0, np.int64))
        below = cum[starts] - c[starts]
        ok = total > 0                        # all-null group -> NULL

        def at(rank):  # value at 0-based rank within each group
            i = np.searchsorted(cum, below + rank + 1)
            return v[np.minimum(i, len(v) - 1)].astype(np.float64)

        out = {k: t[k].take(pa.array(starts, pa.int64())) for k in keys}
        for q, nm in zip(qs, out_names):
            if kind == "disc":
                r = np.clip(np.ceil(q * total).astype(np.int64) - 1,
                            0, np.maximum(total - 1, 0))
                res = at(r)
            else:
                h = q * (total - 1)
                lo, hi = np.floor(h), np.ceil(h)
                vlo, vhi = at(lo.astype(np.int64)), at(hi.astype(np.int64))
                # an integer rank is the value itself, rounded once
                res = np.where(lo == hi, vlo, vlo + (h - lo) * (vhi - vlo))
            out[nm] = pa.array(res, pa.float64(), mask=~ok)
        return pa.table(out)

    return bucket_exchange(
        ds.map_batches(counts, batch_format="pyarrow"), keys, finalize)


def grouped_quantiles(ds: Dataset, group_col: str, value_col: str,
                      qs: list[float], out_names: list[str]) -> Dataset:
    """EXACT per-group discrete quantiles (DuckDB ``quantile_disc``
    semantics: the sorted element at index ceil(q*n)-1), as float64.

    Mergeable value->count partials exchanged on the group only (see
    :func:`_value_count_quantiles`): the exchange carries one row per
    DISTINCT (group, value), so a group's size is bounded by its value
    cardinality, not its row count; a continuous score over a
    mega-group needs the q44 quantile-sketch path instead. Nulls are
    ignored (SQL aggregate semantics)."""
    return _value_count_quantiles(ds, [group_col], value_col, qs,
                                  out_names, "disc")


def grouped_quantile_cont(ds: Dataset, keys: list[str], value_col: str,
                          qs: list[float],
                          out_names: list[str] | None = None) -> Dataset:
    """Per-group INTERPOLATED quantiles (SQL ``quantile_cont`` /
    ``percentile_cont``) of an integer column, from the same mergeable
    value->count partials as :func:`grouped_quantiles` — the
    exchange carries one row per DISTINCT (group, value) pair, never
    the input rows. Same partitioning assumption: the score's
    cardinality is bounded (doc lengths, integer quality scores,
    ~10^6 distinct), which keeps the merged count table small even at
    10^12 input rows; a continuous score needs the quantile-sketch
    path (q44) and its error bound instead.

    Semantics match DuckDB/Postgres ``percentile_cont``: for a group
    of n values sorted ascending, the q-quantile sits at
    ``h = q * (n - 1)`` and interpolates linearly between the
    floor(h)-th and ceil(h)-th values. Prefer binary-exact q (0.25,
    0.5, 0.75): h is then IEEE-identical across engines, so
    floor/ceil cannot disagree when h lands on an integer. Nulls in
    ``value_col`` are ignored (SQL aggregate semantics), and a group
    whose values are all null emits NULL quantiles, as SQL ``GROUP BY``
    does; null group keys form their own group. When h lands on an
    integer rank the quantile is that value itself, rounded once to
    the nearest float64 (also for int64 beyond 2^53); only a
    fractional h interpolates in float.
    """
    if out_names is None:
        out_names = [f"p{int(round(q * 100)):02d}" for q in qs]
    return _value_count_quantiles(ds, keys, value_col, qs, out_names,
                                  "cont")


def grouped_bivariate_stats(ds: Dataset, keys: list[str],
                            x_col: str, y_col: str) -> Dataset:
    """Per-group bivariate statistics — covariance, Pearson
    correlation, and the simple least-squares fit of y on x
    (``covar_yx``, ``corr_yx``, ``slope``, ``intercept``, plus
    ``n_rows``) — the "does quality track length per language?"
    analysis family (DuckDB's ``covar_pop``/``corr``/``regr_*``).

    Scalable shape: one streaming pass widens each batch with the
    moment columns (x, y, xy, x^2, y^2) and :func:`grouped_aggregate`
    reduces them — the exchange carries ~n_groups x n_blocks rows of
    six float64 moments, never the inputs. The finalize derives the
    statistics from the merged moments; zero-variance groups yield
    NULL slope/intercept/corr (DuckDB's semantics). Raw-moment
    formulas lose precision when |mean| >> stddev — acceptable at the
    4-decimal parity grain both engines round to; a Welford/pairwise
    merge is the fix if a caller ever needs full precision.
    """
    xt, yt = "__bx", "__by"

    def widen(b: pa.Table) -> pa.Table:
        x = pc.cast(b[x_col], pa.float64())
        y = pc.cast(b[y_col], pa.float64())
        cols = {k: b[k] for k in keys}
        cols[xt] = x
        cols[yt] = y
        cols["__bxy"] = pc.multiply(x, y)
        cols["__bxx"] = pc.multiply(x, x)
        cols["__byy"] = pc.multiply(y, y)
        return pa.table(cols)

    base = grouped_aggregate(
        ds.map_batches(widen, batch_format="pyarrow"), keys,
        [(xt, "sum", "_sx"), (yt, "sum", "_sy"),
         ("__bxy", "sum", "_sxy"), ("__bxx", "sum", "_sxx"),
         ("__byy", "sum", "_syy"), (xt, "count", "n_rows")])

    def finalize(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n_rows"].to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        sx = np.asarray(b["_sx"].to_numpy(zero_copy_only=False))
        sy = np.asarray(b["_sy"].to_numpy(zero_copy_only=False))
        sxy = np.asarray(b["_sxy"].to_numpy(zero_copy_only=False))
        sxx = np.asarray(b["_sxx"].to_numpy(zero_copy_only=False))
        syy = np.asarray(b["_syy"].to_numpy(zero_copy_only=False))
        with np.errstate(invalid="ignore", divide="ignore"):
            mx, my = sx / n, sy / n
            cov = sxy / n - mx * my
            vx = sxx / n - mx * mx
            vy = syy / n - my * my
            slope = np.where(vx > 0, cov / np.where(vx > 0, vx, 1.0),
                             np.nan)
            intercept = np.where(vx > 0, my - slope * mx, np.nan)
            sd = np.sqrt(np.where(vx > 0, vx, np.nan)
                         * np.where(vy > 0, vy, np.nan))
            corr = np.where((vx > 0) & (vy > 0),
                            cov / np.where(sd > 0, sd, 1.0), np.nan)
        cols = {k: b[k] for k in keys}
        cols["n_rows"] = pc.cast(b["n_rows"], pa.int64())
        for name, arr in [("covar_yx", cov), ("corr_yx", corr),
                          ("slope", slope), ("intercept", intercept)]:
            cols[name] = pa.array(arr, pa.float64(), from_pandas=True)
        return pa.table(cols)

    return base.map_batches(finalize, batch_format="pyarrow")
