"""The queries() registry: one callable per operator/pipeline (SURVEY §2).

Every callable takes ``sf_dir`` (a directory of the driver's parquet
tables) and returns a Dataset / pandas DataFrame / pyarrow Table. Names of
computed columns match the DuckDB oracles in ``oracles.py`` exactly (the
driver's hash compare is column-name-sorted).

Float determinism policy: aggregate outputs are integer-izable wherever
possible (micro-units / counts — integer sums are order-independent, float
sums are not); genuinely-float scores (BM25, cosine) are rounded to 6
decimals on both sides.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                           columns=columns)


def _round6(arr):
    return pc.round(arr, ndigits=6)


def _topk_block(t: pa.Table, k: int, sort_keys) -> pa.Table:
    idx = pc.sort_indices(t, sort_keys=sort_keys)
    return t.take(idx.slice(0, k))


def topk(ds, k: int, sort_keys):
    """Distributed exact top-k over an aggregated Dataset: per-block local
    top-k inside map_batches (each key occupies exactly one row after an
    aggregate, so per-block truncation is lossless), then a global merge
    of <= k x blocks rows on the driver — mirrors the search engine's
    partition top-k (query/shards.py). Nothing result-set-sized is ever
    collected. Returns a pandas DataFrame of the final k rows."""
    from functools import partial as _p

    parts = list(ds.map_batches(_p(_topk_block, k=k, sort_keys=sort_keys),
                                batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=1 << 20))
    if not parts:
        return None
    merged = pa.concat_tables(parts)
    return _topk_block(merged, k, sort_keys).to_pandas()


# ---------------------------------------------------------------------------
# events: severity / aggregation / window parity (reference A1/A2/A5, O6,
# §2.10 count windows)
# ---------------------------------------------------------------------------

def q_severity_histogram(sf_dir: str):
    """Count per event type ordered by the fixed priority map (A2)."""
    from ..stages.severity import severity_histogram

    ds = _read(sf_dir, "events", columns=["event_type"])
    return severity_histogram(ds)


def q_severity_alerts(sf_dir: str):
    """Threshold filter (priority <= 2) + per-type count and value sum in
    micro-units (reference alert path, core/elasticsearch.py:156-174)."""
    from ray.data.aggregate import Count, Sum

    from ..stages.severity import add_priority

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        t = add_priority(t)
        t = t.filter(pc.less_equal(t["priority"], 2))
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "value_micro": micro})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_value_micro")))
    return out.sort("event_type")


def q_events_daily(sf_dir: str):
    """Per-day event count + integer value sum (Kibana date-histogram
    analog, A5)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.strftime(t["ts"], format="%Y-%m-%d")
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        return pa.table({"day": day, "value_micro": micro})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("day")
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_value_micro")))
    return out.sort("day")


def q_top_users(sf_dir: str):
    """Top-10 users by event count (Kibana top-N, O6); tie-break id asc."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["user_id"])
    out = ds.groupby("user_id").aggregate(Count(alias_name="n_events"))
    return topk(out, 10, [("n_events", "descending"),
                          ("user_id", "ascending")])


def q_user_count_windows(sf_dir: str):
    """Count-windows of 10 events per user in (ts, event_id) order — the
    batch analog of the reference's realtime count window
    (core/monitoring.py:412-427: emit every chunk_size pending lines)."""
    import pandas as pd

    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def windows(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        g["window_id"] = np.arange(len(g)) // 10
        out = (g.groupby("window_id", as_index=False)
               .agg(n=("event_id", "size"),
                    first_event=("event_id", "first")))
        out.insert(0, "user_id", g["user_id"].iloc[0])
        return out

    out = ds.groupby("user_id").map_groups(windows, batch_format="pandas")
    return out.sort(["user_id", "window_id"])


# ---------------------------------------------------------------------------
# lineitem / orders / customer: grouped aggregates + joins (the "real
# distributed version" of the reference's LLM-delegated statistics, A1)
# ---------------------------------------------------------------------------

def q_value_quantiles(sf_dir: str):
    """Exact per-group discrete quantiles (p50/p90/p99 of value_micro per
    event type) via groupby().map_groups — each group sorts locally on
    the worker that owns it and emits one row, so the shuffle moves each
    event exactly once and nothing group-sized reaches the driver.

    Index convention matches DuckDB quantile_disc: the sorted element at
    max(0, ceil(q*n) - 1). Scale note: exact per-group quantiles need
    the group on one worker (here: events of one type); for groups
    beyond worker memory the same result comes from a distributed sort +
    rank selection at ceil(q*n) - 1."""
    import math

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "value_micro": micro})

    def quantiles(g: pa.Table) -> pa.Table:
        v = np.sort(g["value_micro"].to_numpy(zero_copy_only=False))
        n = v.size

        def q(p: float) -> int:
            return int(v[max(0, math.ceil(p * n) - 1)])

        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()]),
            "n": pa.array([n], pa.int64()),
            "p50": pa.array([q(0.5)], pa.int64()),
            "p90": pa.array([q(0.9)], pa.int64()),
            "p99": pa.array([q(0.99)], pa.int64()),
        })

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("event_type")
           .map_groups(quantiles, batch_format="pyarrow"))
    return out.sort("event_type")


# ES `range` aggregation bucket lower bounds, in micro value units
# (10 / 50 / 100 / 250 value units); bucket i covers [lo[i], lo[i+1]).
_RANGE_BOUNDS_MICRO = [10_000_000, 50_000_000, 100_000_000, 250_000_000]
_RANGE_LABELS = ["lt_10", "10_50", "50_100", "100_250", "gte_250"]


def q_range_agg(sf_dir: str):
    """ES ``range`` aggregation analog (the Kibana range-bucket panel):
    count + integer-micro sum of ``value`` over fixed half-open ranges.
    Bucketing is one vectorized ``np.digitize`` per batch; the groupby
    then moves at most 5 bucket rows per block — no data-sized shuffle."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["value"])
    bounds = np.asarray(_RANGE_BOUNDS_MICRO, dtype=np.int64)
    los = np.concatenate(([0], bounds))
    labels = np.asarray(_RANGE_LABELS)

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        b = np.digitize(micro.to_numpy(zero_copy_only=False), bounds)
        return pa.table({"lo_micro": pa.array(los[b]),
                         "bucket": pa.array(labels[b]),
                         "value_micro": micro})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby(["lo_micro", "bucket"])
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_value_micro")))
    return out.sort("lo_micro")


def q_events_cumulative(sf_dir: str):
    """ES pipeline aggregations (``cumulative_sum`` + ``derivative``) over
    the daily date histogram. The parent histogram is a distributed
    groupby; the window pass runs on the driver over the #days-row bucket
    array — exactly how ES evaluates pipeline aggs (a post-pass over
    buckets, bounded by bucket count, never data-sized). First-bucket
    derivative is 0 by the coalesce convention shared with the oracle."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("day").aggregate(Count(alias_name="n")))
    pdf = out.sort("day").to_pandas()
    pdf["cum_n"] = pdf["n"].cumsum().astype("int64")
    pdf["delta_n"] = pdf["n"].diff().fillna(0).astype("int64")
    return pdf


# Percentile-sketch bin width (1 value unit, in micro) and bin count;
# values at/above nbins*width collapse into the last bin.
_SKETCH_BIN_MICRO = 1_000_000
_SKETCH_NBINS = 1024


def q_value_percentile_sketch(sf_dir: str):
    """Mergeable fixed-width histogram percentile sketch — the ES
    ``percentiles`` aggregation analog and the scale path for
    ``value_quantiles``: each task collapses its batches into a 1024-bin
    int64 count vector (8 KB); only vectors leave the tasks and merge by
    addition, so the estimate is independent of batch boundaries, merge
    order and cluster size (unlike t-digest, whose merge is
    order-sensitive). The estimate convention — lower bound of the first
    bin whose cumulative count reaches ceil(q*n) — is deterministic and
    reproduced exactly by the SQL oracle: approximate vs the true
    quantile (within one bin width), exact vs its own spec."""
    import math

    import pandas as pd

    ds = _read(sf_dir, "events", columns=["value"])

    def sketch(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64()).to_numpy(zero_copy_only=False)
        bins = np.clip(micro // _SKETCH_BIN_MICRO, 0, _SKETCH_NBINS - 1)
        counts = np.bincount(bins, minlength=_SKETCH_NBINS).astype(np.int64)
        return pa.table({"counts": pa.array([counts.tobytes()], pa.binary())})

    total = np.zeros(_SKETCH_NBINS, dtype=np.int64)
    for b in (ds.map_batches(sketch, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for s in b.column("counts"):
            total += np.frombuffer(s.as_py(), np.int64)
    n = int(total.sum())
    cum = np.cumsum(total)
    row = {"n": n}
    for q, name in ((0.5, "p50_micro"), (0.9, "p90_micro"),
                    (0.99, "p99_micro")):
        idx = int(np.searchsorted(cum, math.ceil(q * n), side="left"))
        row[name] = idx * _SKETCH_BIN_MICRO
    return pd.DataFrame([row])


def q_bucket_script(sf_dir: str):
    """ES ``bucket_script`` pipeline aggregation analog: a per-bucket
    derived metric over the daily histogram — integer mean value
    (sum_value_micro // n) per day. The parent histogram is the
    distributed groupby; the script pass is bucket-bounded."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6),
                                 ndigits=0), pa.int64())
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d"),
                         "value_micro": micro})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("day")
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_value_micro"))
           .sort("day").to_pandas())
    pdf["mean_micro"] = (pdf["sum_value_micro"] // pdf["n"]) \
        .astype("int64")
    return pdf


def q_boxplot_agg(sf_dir: str):
    """ES ``boxplot`` aggregation analog: min / q1 / median / q3 / max
    of value_micro per event type, exact discrete quantiles (the
    quantile_disc convention shared with value_quantiles) computed in
    one map_groups per type — each group sorts on the worker that owns
    it, one row out."""
    import math

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6),
                                 ndigits=0), pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "value_micro": micro})

    def box(g: pa.Table) -> pa.Table:
        v = np.sort(g["value_micro"].to_numpy(zero_copy_only=False))
        n = v.size

        def q(p: float) -> int:
            return int(v[max(0, math.ceil(p * n) - 1)])

        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()]),
            "vmin": pa.array([int(v[0])], pa.int64()),
            "q1": pa.array([q(0.25)], pa.int64()),
            "median": pa.array([q(0.5)], pa.int64()),
            "q3": pa.array([q(0.75)], pa.int64()),
            "vmax": pa.array([int(v[-1])], pa.int64()),
        })

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("event_type").map_groups(box,
                                             batch_format="pyarrow"))
    return out.sort("event_type")


# percentile_ranks thresholds, in micro value units (25 / 100 / 400)
_PCTRANK_THRESHOLDS = [25_000_000, 100_000_000, 400_000_000]


def q_percentile_ranks(sf_dir: str):
    """ES ``percentile_ranks`` aggregation analog (the exact inverse of
    percentiles): for each threshold value, the fraction of events at
    or below it — reported in integer ppm so the result is order- and
    cluster-size-independent. One vectorized searchsorted-style count
    per batch; at most #thresholds partial rows per block cross the
    shuffle."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["value"])
    thr = np.asarray(_PCTRANK_THRESHOLDS, dtype=np.int64)

    def partials(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6),
                                 ndigits=0),
                        pa.int64()).to_numpy(zero_copy_only=False)
        le = (micro[None, :] <= thr[:, None]).sum(axis=1)
        return pa.table({"thr_micro": pa.array(thr, pa.int64()),
                         "n_le": pa.array(le, pa.int64()),
                         "n": pa.array([len(micro)] * len(thr),
                                       pa.int64())})

    pdf = (ds.map_batches(partials, batch_format="pyarrow")
           .groupby("thr_micro")
           .aggregate(Sum("n_le", alias_name="n_le"),
                      Sum("n", alias_name="n"),
                      Count(alias_name="_blocks"))
           .sort("thr_micro").to_pandas())
    pdf["rank_ppm"] = (pdf["n_le"] * 1_000_000
                       // pdf["n"]).astype("int64")
    return pdf[["thr_micro", "n_le", "rank_ppm"]]


def q_events_moving(sf_dir: str):
    """ES ``moving_fn`` pipeline aggregation over the daily histogram:
    3-day trailing window sum and floor-average of the bucket counts.
    Parent histogram distributed; the window pass is bucket-bounded."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("day").aggregate(Count(alias_name="n"))
           .sort("day").to_pandas())
    roll = pdf["n"].rolling(3, min_periods=1)
    pdf["mov_n"] = roll.count().astype("int64")
    pdf["mov_sum3"] = roll.sum().astype("int64")
    pdf["mov_avg3"] = (pdf["mov_sum3"] // pdf["mov_n"]).astype("int64")
    return pdf


def q_events_ewma(sf_dir: str):
    """ES ``moving_fn`` with the ``MovingFunctions.ewma`` model over
    the daily error-count histogram: s_t = 0.3*x_t + 0.7*s_{t-1},
    seeded at the first bucket. Parent histogram distributed; the
    recurrence is a bucket-bounded driver post-pass (as in ES) with
    the same float op tree as the oracle's recursive CTE — 0.3*x +
    0.7*s per step. No rounding on either side: the recurrence is
    one deterministic op chain, and pc.round vs DuckDB round disagree
    by 1 ulp at print boundaries (measured at sf0.01 day 4)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "error")
        return pa.table({"day": pc.strftime(
            t.filter(keep)["ts"], format="%Y-%m-%d")})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("day").aggregate(Count(alias_name="n"))
           .sort("day").to_pandas())
    ewma = []
    s = None
    for x in pdf["n"].astype("int64"):
        s = float(x) if s is None else 0.3 * float(x) + 0.7 * s
        ewma.append(s)
    pdf["n"] = pdf["n"].astype("int64")
    out = pa.Table.from_pandas(pdf, preserve_index=False)
    return out.append_column("ewma", pa.array(ewma, pa.float64()))


def q_events_holt(sf_dir: str):
    """ES ``moving_fn`` with the ``MovingFunctions.holt`` model (double
    exponential smoothing: level + trend) over the daily error-count
    histogram: seeded s_1 = x_1, b_1 = 0, then
    s_t = 0.3*x_t + 0.7*(s_{t-1} + b_{t-1}),
    b_t = 0.1*(s_t - s_{t-1}) + 0.9*b_{t-1}; ``forecast = s + b`` (the
    one-step-ahead value ES returns). Parent histogram distributed; the
    recurrence is a bucket-bounded driver post-pass with the same IEEE
    op tree as the oracle's recursive CTE. No rounding on either side —
    one deterministic op chain (the events_ewma convention)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "error")
        return pa.table({"day": pc.strftime(
            t.filter(keep)["ts"], format="%Y-%m-%d")})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("day").aggregate(Count(alias_name="n"))
           .sort("day").to_pandas())
    level, trend, fc = [], [], []
    s = b = None
    for x in pdf["n"].astype("int64"):
        if s is None:
            s, b = float(x), 0.0
        else:
            s_new = 0.3 * float(x) + 0.7 * (s + b)
            b = 0.1 * (s_new - s) + 0.9 * b
            s = s_new
        level.append(s)
        trend.append(b)
        fc.append(s + b)
    pdf["n"] = pdf["n"].astype("int64")
    out = pa.Table.from_pandas(pdf, preserve_index=False)
    return (out.append_column("level", pa.array(level, pa.float64()))
            .append_column("trend", pa.array(trend, pa.float64()))
            .append_column("forecast", pa.array(fc, pa.float64())))


# ES `histogram` agg interval over value_micro (25 value units)
_HISTO_INTERVAL_MICRO = 25_000_000


def q_histogram_agg(sf_dir: str):
    """ES ``histogram`` aggregation analog with ``min_doc_count: 0``:
    fixed-interval numeric buckets over value_micro, count + integer sum
    per bucket, with EMPTY buckets between the min and max observed keys
    filled in (the ES extended-bounds/empty-bucket contract). Bucketing
    is one integer floor-division per batch; the groupby moves at most
    #buckets partial rows per block, and the empty fill is a driver
    post-pass bounded by bucket count — never data-sized."""
    import pandas as pd

    from ray.data.aggregate import Count, Sum

    iv = _HISTO_INTERVAL_MICRO
    ds = _read(sf_dir, "events", columns=["value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        lo = pc.multiply(pc.floor(pc.divide(micro, iv)), iv)
        return pa.table({"lo_micro": pc.cast(lo, pa.int64()),
                         "value_micro": micro})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("lo_micro")
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_value_micro"))
           .sort("lo_micro").to_pandas())
    grid = pd.DataFrame({"lo_micro": np.arange(pdf["lo_micro"].min(),
                                               pdf["lo_micro"].max() + iv,
                                               iv, dtype=np.int64)})
    out = grid.merge(pdf, on="lo_micro", how="left")
    out["n"] = out["n"].fillna(0).astype("int64")
    out["sum_value_micro"] = (out["sum_value_micro"].fillna(0)
                              .astype("int64"))
    return out


def q_multi_terms_agg(sf_dir: str):
    """ES ``multi_terms`` aggregation analog: tuple term buckets over
    (event_type, day-of-week), top-10 by count with deterministic key
    tie-breaks. day_of_week is Monday=0 on both sides (pyarrow default /
    DuckDB isodow-1). One vectorized kernel per batch; only ≤ 7 x #types
    partial rows cross the shuffle; final top-k via the partition-local
    topk primitive."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        dow = pc.cast(pc.day_of_week(t["ts"]), pa.int64())
        return pa.table({"event_type": t["event_type"], "dow": dow})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby(["event_type", "dow"])
           .aggregate(Count(alias_name="n")))
    return topk(out, 10, [("n", "descending"), ("event_type", "ascending"),
                          ("dow", "ascending")])


# auto_date_histogram: fixed interval ladder (seconds) + bucket target,
# matching ES's rounding ladder semantics at the granularities our data
# spans (hour..month)
_AUTO_HISTO_LADDER_S = [3600, 3 * 3600, 12 * 3600, 86400,
                        7 * 86400, 30 * 86400]
_AUTO_HISTO_TARGET = 12


def q_auto_date_histogram(sf_dir: str):
    """ES ``auto_date_histogram`` analog: choose the smallest interval
    from a fixed rounding ladder such that the bucket count stays within
    the target (12), then bucket-count at that interval. The interval
    choice needs only the global (min, max) timestamp — a 16-byte
    aggregate — then one floor-division kernel per batch; deterministic
    for any block order or cluster size."""
    from ray.data.aggregate import Count, Max, Min

    ds = _read(sf_dir, "events", columns=["ts"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table({"us": pc.cast(t["ts"], pa.int64())})

    us_ds = ds.map_batches(to_us, batch_format="pyarrow")
    mm = us_ds.aggregate(Min("us"), Max("us"))
    lo, hi = mm["min(us)"], mm["max(us)"]
    iv = _AUTO_HISTO_LADDER_S[-1] * 1_000_000
    for v_s in _AUTO_HISTO_LADDER_S:
        v = v_s * 1_000_000
        if (hi // v) - (lo // v) + 1 <= _AUTO_HISTO_TARGET:
            iv = v
            break

    def bucket(t: pa.Table) -> pa.Table:
        b = pc.multiply(pc.floor(pc.divide(t["us"], iv)), iv)
        return pa.table({
            "bucket_us": pc.cast(b, pa.int64()),
            "interval_s": pa.array([iv // 1_000_000] * len(t), pa.int64()),
        })

    out = (us_ds.map_batches(bucket, batch_format="pyarrow")
           .groupby(["bucket_us", "interval_s"])
           .aggregate(Count(alias_name="n")))
    return out.sort("bucket_us")


def q_runtime_field_agg(sf_dir: str):
    """ES *runtime fields* analog: a field that exists only in the
    source JSON (``props.k``) is extracted at query time — vectorized
    RE2 ``extract_regex`` per batch, never materialized in the schema —
    and aggregated like a mapped field (decade buckets of k, count +
    integer value sum). Same extraction dialect as the oracle
    (regexp_extract)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["props", "value"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], pattern=r'"k": (?P<k>[0-9]+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        bucket = pc.multiply(pc.floor(pc.divide(k, 10)), 10)
        return pa.table({"k_bucket": pc.cast(bucket, pa.int64()),
                         "value_micro": micro})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("k_bucket")
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_value_micro")))
    return out.sort("k_bucket")


# terms-agg shard semantics: deterministic doc->shard routing, per-shard
# candidate list size, and the final reported size
_TERMS_ERR_SHARDS = 4
_TERMS_ERR_SHARD_SIZE = 8
_TERMS_ERR_SIZE = 5


def q_terms_shard_error(sf_dir: str):
    """ES ``terms`` aggregation shard_size semantics with
    ``doc_count_error_upper_bound``: each shard (deterministic routing
    ``event_id % 4``) reports only its local top ``shard_size`` terms,
    the coordinator sums the reported counts per candidate term and
    bounds the missed mass — for every shard that did NOT report a term,
    the term's count there is at most that shard's cutoff (the last
    count the shard returned, 0 if the shard returned all its terms).
    This is the distributed-approximation contract ES documents for
    terms aggs, reproduced exactly: per-shard counts are a (shard, term)
    groupby; only ≤ shards x shard_size candidate rows ever reach the
    coordinator; the merge is bounded by candidate count. The oracle
    recomputes the identical estimate + bound with window functions."""
    import pandas as pd

    from ray.data.aggregate import Count

    nsh, ssz, size = (_TERMS_ERR_SHARDS, _TERMS_ERR_SHARD_SIZE,
                      _TERMS_ERR_SIZE)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id"])

    def prep(t: pa.Table) -> pa.Table:
        shard = t["event_id"].to_numpy(zero_copy_only=False) % nsh
        return pa.table({"shard": pa.array(shard, pa.int64()),
                         "user_id": t["user_id"]})

    counts = (ds.map_batches(prep, batch_format="pyarrow")
              .groupby(["shard", "user_id"])
              .aggregate(Count(alias_name="n")))

    def shard_top(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("n", "descending"),
                                            ("user_id", "ascending")])
        top = g.take(idx.slice(0, ssz))
        cutoff = (int(pc.min(top["n"]).as_py())
                  if len(top) == ssz else 0)
        return top.append_column(
            "cutoff", pa.array([cutoff] * len(top), pa.int64()))

    top = (counts.groupby("shard")
           .map_groups(shard_top, batch_format="pyarrow").to_pandas())
    # coordinator merge: bounded by shards x shard_size rows
    cutoffs = (top.groupby("shard")["cutoff"].first()
               .reindex(range(nsh), fill_value=0))
    total_cutoff = int(cutoffs.sum())
    est = (top.groupby("user_id")
           .agg(n=("n", "sum"), seen_cutoff=("cutoff", "sum"),
                n_shards_seen=("shard", "nunique")).reset_index())
    est["err_upper"] = (total_cutoff - est["seen_cutoff"]).astype("int64")
    est["n"] = est["n"].astype("int64")
    out = (est.sort_values(["n", "user_id"],
                           ascending=[False, True]).head(size)
           [["user_id", "n", "err_upper"]].reset_index(drop=True))
    return out


# sampler agg: per-shard deterministic sample size
_SAMPLER_SHARD_SIZE = 100


def q_sampler_agg(sf_dir: str):
    """ES ``sampler`` aggregation analog: restrict a sub-aggregation to
    the first ``shard_size`` documents per shard — deterministically the
    ``shard_size`` smallest event_ids per shard (``event_id % 4``
    routing), instead of ES's collection-order heads — then count by
    event type over the sampled union. The per-shard selection runs in
    ``map_groups`` (each group = one shard's (event_id, type) pairs);
    only shards x shard_size sampled rows feed the sub-agg."""
    from ray.data.aggregate import Count

    nsh, ssz = _TERMS_ERR_SHARDS, _SAMPLER_SHARD_SIZE
    ds = _read(sf_dir, "events", columns=["event_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        shard = t["event_id"].to_numpy(zero_copy_only=False) % nsh
        return pa.table({"shard": pa.array(shard, pa.int64()),
                         "event_id": t["event_id"],
                         "event_type": t["event_type"]})

    def shard_sample(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("event_id", "ascending")])
        return g.take(idx.slice(0, ssz)).select(["event_type"])

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("shard").map_groups(shard_sample,
                                        batch_format="pyarrow")
           .groupby("event_type").aggregate(Count(alias_name="n")))
    return out.sort("event_type")


# target language mixture for training-data reweighting, in parts-per-
# million (sums to 1.0): upsample en, balance the rest
_MIXTURE_TARGET_PPM = {"de": 150_000, "en": 400_000, "es": 150_000,
                       "fr": 150_000, "zh": 150_000}


def q_mixture_weights(sf_dir: str):
    """Data-mixture reweighting — the training-data primitive that turns
    a target language mixture into per-lang sampling weights: weight =
    target_share / actual_token_share, plus the epoch count (how many
    passes over a lang are needed when weights exceed 1). Token counts
    are one distributed groupby of per-batch vectorized counts (the
    token_stats kernel); the weight derivation is a driver post-pass
    over #langs rows in exact integer ppm arithmetic (Python bignums /
    DuckDB HUGEINT — no float division on either side)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..functions import add_token_count

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    tk = (ds.map_batches(add_token_count, batch_format="pyarrow")
          .select_columns(["lang", "n_tokens"])
          .groupby("lang").aggregate(Sum("n_tokens", alias_name="tokens"))
          .sort("lang").to_pandas())
    total = int(tk["tokens"].sum())
    rows = []
    for lang, tokens in zip(tk["lang"], tk["tokens"]):
        tgt = _MIXTURE_TARGET_PPM[lang]
        w = (tgt * total) // int(tokens)
        rows.append({"lang": lang, "tokens": int(tokens),
                     "target_ppm": tgt, "weight_ppm": w,
                     "epochs": (w + 999_999) // 1_000_000})
    out = pd.DataFrame(rows)
    for c in ("tokens", "target_ppm", "weight_ppm", "epochs"):
        out[c] = out[c].astype("int64")
    return out


_UNIMAX_EPOCH_CAP = 2


def q_mixture_unimax(sf_dir: str):
    """UniMax language sampling (Chung et al. 2023): allocate a total
    token budget across languages with a hard per-language epoch cap,
    giving every language an equal share of the remaining budget unless
    its capacity (``cap = EPOCH_CAP * tokens``) is smaller — process
    languages ASCENDING by capacity so small languages cap out first
    and their unused share flows to the rest. Token counting is the
    distributed ``add_token_count`` groupby; the waterfall itself is a
    driver post-pass over #languages rows (integer floor division —
    deterministic, oracle-exact via a recursive CTE). ``epochs_ppm`` is
    the resulting epochs per language in exact integer ppm."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..functions import add_token_count

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    tk = (ds.map_batches(add_token_count, batch_format="pyarrow")
          .select_columns(["lang", "n_tokens"])
          .groupby("lang").aggregate(Sum("n_tokens", alias_name="tokens"))
          .to_pandas())
    tk["tokens"] = tk["tokens"].astype("int64")
    tk["cap"] = _UNIMAX_EPOCH_CAP * tk["tokens"]
    tk = tk.sort_values(["cap", "lang"]).reset_index(drop=True)
    budget = int(tk["tokens"].sum())
    n = len(tk)
    rem = budget
    allocs = []
    for i, cap in enumerate(tk["cap"]):
        a = min(int(cap), rem // (n - i))
        allocs.append(a)
        rem -= a
    tk["alloc"] = pd.Series(allocs, dtype="int64")
    tk["epochs_ppm"] = (tk["alloc"] * 1_000_000) // tk["tokens"]
    out = tk.sort_values("lang").reset_index(drop=True)
    return out[["lang", "tokens", "cap", "alloc", "epochs_ppm"]].astype(
        {"tokens": "int64", "cap": "int64", "alloc": "int64",
         "epochs_ppm": "int64"})


def pack_bestfit_group(sizes, ids, capacity: int):
    """Best-fit-decreasing bin packing over one partition's (size, id)
    pairs: items sorted (size desc, id asc); each item goes to the open
    bin with the least remaining space that still fits (ties: lowest
    bin id), else opens a new bin; items larger than ``capacity`` get a
    dedicated oversize bin. O(n log bins) via a sorted remaining-space
    list. Returns a bin id per input item (input order)."""
    import bisect

    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], ids[i]))
    rem = []  # sorted list of (remaining, bin_id)
    assign = [0] * len(sizes)
    n_bins = 0
    for i in order:
        s = sizes[i]
        j = bisect.bisect_left(rem, (s, -1))
        if s <= capacity and j < len(rem):
            r, b = rem.pop(j)
            bisect.insort(rem, (r - s, b))
            assign[i] = b
        else:
            assign[i] = n_bins
            if s <= capacity:
                bisect.insort(rem, (capacity - s, n_bins))
            n_bins += 1
    return assign


def q_pack_bestfit(sf_dir: str):
    """Best-fit-decreasing sequence packing — the padding-minimizing
    alternative to the fixed-order ``sequence_pack``: per lang, docs are
    packed into ~10k-char bins by best-fit over descending sizes. Each
    lang packs inside one ``map_groups`` (the same per-partition
    sequentiality as sequence_pack — at 100 TB, pack per input shard
    instead of per lang and the bin ids stay shard-local); output is one
    row per bin. Greedy-iterative, yet EXACTLY oracle-checked: a
    DuckDB recursive CTE steps the identical best-fit state per lang
    (parallel bin lists, first-position tie rule, dedicated oversize
    bins — see oracles.py), and an independent O(n·bins) reference
    implementation additionally pins the bin assignment in tests."""
    import pandas as pd

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        assign = pack_bestfit_group(g["n_chars"].tolist(),
                                    g["doc_id"].tolist(),
                                    _PACK_BUDGET_CHARS)
        g["bin_id"] = np.asarray(assign, dtype=np.int64)
        out = (g.groupby("bin_id", as_index=False)
               .agg(n_docs=("doc_id", "size"),
                    total_chars=("n_chars", "sum"),
                    first_doc=("doc_id", "min")))
        out.insert(0, "lang", g["lang"].iloc[0])
        out["fill_ppm"] = (out["total_chars"] * 1_000_000
                           // _PACK_BUDGET_CHARS).astype("int64")
        return out

    out = ds.groupby("lang").map_groups(pack, batch_format="pandas")
    return out.sort(["lang", "bin_id"])


def q_mixture_sample(sf_dir: str):
    """The mixture weights APPLIED: single-epoch deterministic sampling
    toward the target language mixture. Per-lang keep rate =
    min(weight_ppm, 1e6) (downsampling languages above their target
    share; upsampled languages keep everything in one epoch), applied
    as the reproducible hash predicate ``doc_id % 1e6 < rate`` — the
    same cluster-size-invariant sampler as stratified_sample, with the
    rates DERIVED from corpus statistics instead of hand-set. Output:
    per-lang kept doc/token counts. Two passes: the tiny mixture
    aggregate, then one vectorized filter+count pass."""
    from ray.data.aggregate import Count, Sum

    from ..functions import add_token_count

    mix = q_mixture_weights(sf_dir)
    rates = {lang: min(int(w), 1_000_000)
             for lang, w in zip(mix["lang"], mix["weight_ppm"])}
    langs = pa.array(sorted(rates))
    thr = pa.array([rates[lang] for lang in sorted(rates)], pa.int64())

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def keep(t: pa.Table) -> pa.Table:
        t = add_token_count(t)
        idx = pc.index_in(t["lang"], langs)
        lim = pc.fill_null(pc.take(thr, idx), 0) \
            .to_numpy(zero_copy_only=False)
        mod = t["doc_id"].to_numpy(zero_copy_only=False) % 1_000_000
        return t.filter(pa.array(mod < lim)) \
            .select(["lang", "n_tokens"])

    out = (ds.map_batches(keep, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n_kept"),
                      Sum("n_tokens", alias_name="tokens_kept")))
    return out.sort("lang")


# per-lang deterministic keep thresholds: keep rows with doc_id%10 < thr
_STRATA_LANGS = ["de", "en", "es", "fr", "zh"]
_STRATA_THR = [4, 5, 3, 2, 1]


def q_stratified_sample(sf_dir: str):
    """Stratified deterministic sampling — the training-data mixture
    primitive (downsample dominant languages, keep rare ones): per-lang
    keep rates applied as a hash predicate (doc_id % 10 < rate), so the
    sample is identical across reruns, block orders and cluster sizes
    (unlike random_sample) and has an exact SQL oracle. One vectorized
    lookup + compare per batch."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    thr_arr = pa.array(_STRATA_THR, pa.int64())

    def keep(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["lang"], pa.array(_STRATA_LANGS))
        thr = pc.fill_null(pc.take(thr_arr, idx), 0) \
            .to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(did % 10 < thr))

    return ds.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def q_weighted_sample(sf_dir: str):
    """Weighted sampling without replacement (Efraimidis–Spirakis A-ES,
    the training-data mixture primitive for size-weighted corpora):
    each doc draws a deterministic uniform u from a Knuth
    multiplicative hash of doc_id and keeps key = u^(1/w) with
    w = n_chars; the global sample is the top-20 keys. Deterministic
    hash (not RNG) makes the sample identical across reruns, block
    orders and cluster sizes AND gives an exact SQL oracle. Per batch:
    vectorized key + local top-20; only k×blocks candidate rows reach
    the driver merge (the kNN exchange pattern)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    k = 20

    def local_topk(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        w = t["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        m = w > 0
        did, w = did[m], w[m]
        if did.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_chars": pa.array([], pa.int64()),
                             "sample_key": pa.array([], pa.float64())})
        u = ((did * 2654435761) % 1000003 + 1) / 1000004.0
        key = u ** (1.0 / w)
        order = np.lexsort((did, -key))[:k]
        return pa.table({
            "doc_id": pa.array(did[order], pa.int64()),
            "n_chars": pa.array(w[order].astype(np.int64), pa.int64()),
            "sample_key": pa.array(key[order], pa.float64())})

    cand = (ds.map_batches(local_topk, batch_format="pyarrow")
            .to_pandas())
    cand = cand.sort_values(["sample_key", "doc_id"],
                            ascending=[False, True]).head(k)
    return pa.table({
        "doc_id": pa.array(cand["doc_id"], pa.int64()),
        "n_chars": pa.array(cand["n_chars"], pa.int64()),
        "sample_key": _round6(pa.array(cand["sample_key"],
                                       pa.float64()))})


def q_ols_regression(sf_dir: str):
    """Distributed ordinary-least-squares — the learned-quality-score
    building block (fit a linear scorer over features without
    collecting rows): per event_type, regress value on hour-of-day.
    Each batch emits ONE row of partial sums (n, Σx, Σy, Σxx, Σxy,
    Σyy) per group — the classic combiner — so the shuffle carries
    6 scalars per (block, group); slope / intercept / r² close over
    the merged sums on the driver with the same IEEE formula as the
    oracle's explicit-aggregate SQL."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    _OLS_SCHEMA = pa.schema([("event_type", pa.string())] +
                            [(c, pa.float64()) for c in
                             ("n", "sx", "sy", "sxx", "sxy", "syy")])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OLS_SCHEMA.empty_table()
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        x = ((ts // 3_600_000_000) % 24).astype(np.float64)
        y = t["value"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        g = (pa.table({"event_type": t["event_type"],
                       "n": pa.array(np.ones_like(x), pa.float64()),
                       "sx": pa.array(x, pa.float64()),
                       "sy": pa.array(y, pa.float64()),
                       "sxx": pa.array(x * x, pa.float64()),
                       "sxy": pa.array(x * y, pa.float64()),
                       "syy": pa.array(y * y, pa.float64())})
             .group_by("event_type")
             .aggregate([("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                         ("sxx", "sum"), ("sxy", "sum"),
                         ("syy", "sum")]))
        return g.rename_columns(["event_type", "n", "sx", "sy",
                                 "sxx", "sxy", "syy"])

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"),
                      Sum("sxx", alias_name="sxx"),
                      Sum("sxy", alias_name="sxy"),
                      Sum("syy", alias_name="syy")))
    df = agg.to_pandas().sort_values("event_type").reset_index(drop=True)
    n = df["n"].to_numpy()
    sx, sy = df["sx"].to_numpy(), df["sy"].to_numpy()
    sxx, sxy, syy = (df["sxx"].to_numpy(), df["sxy"].to_numpy(),
                     df["syy"].to_numpy())
    cov = n * sxy - sx * sy
    varx = n * sxx - sx * sx
    vary = n * syy - sy * sy
    slope = cov / varx
    intercept = (sy - slope * sx) / n
    r2 = (cov * cov) / (varx * vary)
    return pa.table({
        "event_type": pa.array(df["event_type"], pa.string()),
        "n": pa.array(n.astype(np.int64), pa.int64()),
        "slope": _round6(pa.array(slope, pa.float64())),
        "intercept": _round6(pa.array(intercept, pa.float64())),
        "r2": _round6(pa.array(r2, pa.float64()))})


_PACK_BUDGET_CHARS = 10_000


def q_sequence_pack(sf_dir: str):
    """Training sequence packing: per lang, docs in doc_id order fill
    contiguous ~10k-char chunks (chunk = exclusive-prefix-sum of
    n_chars // budget — the standard fixed-order packing for LM
    training batches). Each lang's packing runs in one map_groups on
    the worker owning the group; output is one row per (lang, chunk):
    doc count + exact char total. Scale note: packing is per-lang
    sequential by construction; for groups beyond worker memory the
    same chunk ids come from a distributed prefix sum over doc_id
    ranges (the doc-id assignment in index/build.py already implements
    that pattern)."""
    import pandas as pd

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        excl = g["n_chars"].cumsum().shift(fill_value=0)
        g["chunk_id"] = (excl // _PACK_BUDGET_CHARS).astype("int64")
        out = (g.groupby("chunk_id", as_index=False)
               .agg(n_docs=("doc_id", "size"),
                    total_chars=("n_chars", "sum")))
        out.insert(0, "lang", g["lang"].iloc[0])
        return out

    out = ds.groupby("lang").map_groups(pack, batch_format="pandas")
    return out.sort(["lang", "chunk_id"])


def q_extended_stats(sf_dir: str):
    """ES ``extended_stats`` aggregation analog: count/min/max/sum/avg/
    variance of ``value`` per event type, all in exact integer arithmetic
    (milli-units) so the result is order- and cluster-size-independent.

    The distributed part is the standard mergeable partial set (n, min,
    max, sum, sum-of-squares) — one row per (type, block) crosses the
    shuffle. Variance is derived on the driver over the ~5 group rows with
    Python bignum ints (n*sumsq - sum^2 overflows int64 at sf>=0.1; the
    oracle side does the same arithmetic in DuckDB HUGEINT), as
    floor((n*sumsq - sum^2) / n^2) — exact population variance in
    milli^2 units. Scale note: sumsq in milli^2 stays within int64 up to
    ~10^8 rows per group; beyond that the partial needs a two-word
    (hi, lo) sum, same exchange shape."""
    from ray.data.aggregate import Count, Max, Min, Sum

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        milli = pc.cast(pc.round(pc.multiply(t["value"], 1e3), ndigits=0),
                        pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "value_milli": milli,
                         "sq_milli2": pc.multiply(milli, milli)})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Count(alias_name="n"),
                      Min("value_milli", alias_name="min_milli"),
                      Max("value_milli", alias_name="max_milli"),
                      Sum("value_milli", alias_name="sum_milli"),
                      Sum("sq_milli2", alias_name="sumsq_milli2")))
    pdf = out.sort("event_type").to_pandas()
    n = [int(x) for x in pdf["n"]]
    s = [int(x) for x in pdf["sum_milli"]]
    s2 = [int(x) for x in pdf["sumsq_milli2"]]
    pdf["avg_milli"] = np.array([si // ni for si, ni in zip(s, n)],
                                dtype=np.int64)
    pdf["var_milli2"] = np.array(
        [(ni * s2i - si * si) // (ni * ni)
         for ni, si, s2i in zip(n, s, s2)], dtype=np.int64)
    return pdf


# named filter buckets for the ES `filters` aggregation analog; buckets
# may overlap (each event is tested against every filter independently)
_FILTER_BUCKET_NAMES = ["errors", "high_value", "weekend"]


def q_filters_agg(sf_dir: str):
    """ES ``filters`` aggregation analog: named, possibly-overlapping
    predicate buckets, each with count + integer-micro value sum. Every
    mask is one vectorized kernel per batch and each block contributes at
    most ``len(buckets)`` partial rows to the exchange — the same
    bounded-shuffle shape as ``range_agg``."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        masks = {
            "errors": pc.equal(t["event_type"], "error"),
            # >= 100 value units, exact on the integer-micro column
            "high_value": pc.greater_equal(micro, 100_000_000),
            # pyarrow day_of_week: Monday=0 .. Sunday=6
            "weekend": pc.greater_equal(pc.day_of_week(t["ts"]), 5),
        }
        parts = []
        for name in _FILTER_BUCKET_NAMES:
            sel = micro.filter(masks[name])
            parts.append(pa.table({
                "bucket": pa.array([name] * len(sel), pa.string()),
                "value_micro": sel}))
        return pa.concat_tables(parts)

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_value_micro")))
    return out.sort("bucket")


_COMPOSITE_PAGE_SIZE = 20


def q_composite_agg(sf_dir: str):
    """ES ``composite`` aggregation analog with true after-key pagination:
    group by the composite key (event_type, day), fetch page 1 in key
    order, then fetch page 2 with a strict key-tuple ``> after_key``
    filter — exactly the ES cursor protocol (the oracle proves the
    after-key page equals offset pagination). The groupby is distributed;
    each page fetch is a per-block bottom-k merge (``topk`` ascending), so
    nothing bucket-set-sized reaches the driver."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "day": pc.strftime(t["ts"], format="%Y-%m-%d"),
                         "value_micro": micro})

    agg = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby(["event_type", "day"])
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_value_micro")))
    agg = agg.materialize()  # tiny (one row per bucket); reused per page
    keys = [("event_type", "ascending"), ("day", "ascending")]
    page1 = topk(agg, _COMPOSITE_PAGE_SIZE, keys)
    if page1 is None or len(page1) < _COMPOSITE_PAGE_SIZE:
        # fewer buckets than one page: there is no page 2 (ES returns
        # no after_key; the oracle's OFFSET agrees — empty result)
        return page1.iloc[0:0] if page1 is not None else None
    after_type = page1["event_type"].iloc[-1]
    after_day = page1["day"].iloc[-1]

    def after(t: pa.Table) -> pa.Table:
        gt = pc.or_(
            pc.greater(t["event_type"], after_type),
            pc.and_(pc.equal(t["event_type"], after_type),
                    pc.greater(t["day"], after_day)))
        return t.filter(gt)

    page2 = topk(agg.map_batches(after, batch_format="pyarrow"),
                 _COMPOSITE_PAGE_SIZE, keys)
    if page2 is None:
        # exactly one page of buckets: the after-key filter matched
        # nothing and topk saw no parts; the oracle's LIMIT/OFFSET
        # yields an empty rowset, so mirror the <PAGE_SIZE branch
        return page1.iloc[0:0]
    return page2


def q_top_hits_agg(sf_dir: str):
    """ES ``top_hits`` sub-aggregation analog: the top-3 events per event
    type by (value desc, event_id asc), with their rank. Two-level
    selection: each BLOCK first truncates to its local per-type top-3
    (lossless — the global top-3 of a type is a subset of the union of
    block top-3s), so the groupby only moves <= 3 x types rows per
    block instead of the whole table; the final per-group head runs in
    ``map_groups`` over that tiny candidate set. Values compared in
    exact integer micro units."""
    import pandas as pd

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def local3(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        t = pa.table({"event_type": t["event_type"],
                      "event_id": t["event_id"], "value_micro": micro})
        idx = pc.sort_indices(t, sort_keys=[("event_type", "ascending"),
                                            ("value_micro", "descending"),
                                            ("event_id", "ascending")])
        t = t.take(idx)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.concatenate(([True], et[1:] != et[:-1])))
        rank_in_group = np.arange(len(et)) - np.repeat(
            starts, np.diff(np.concatenate((starts, [len(et)]))))
        return t.filter(pa.array(rank_in_group < 3))

    def hits(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value_micro", "event_id"],
                          ascending=[False, True]).head(3)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["event_type", "rank", "event_id", "value_micro"]]

    out = (ds.map_batches(local3, batch_format="pyarrow")
           .groupby("event_type").map_groups(hits, batch_format="pandas"))
    return out.sort(["event_type", "rank"])


def q_bucket_stats(sf_dir: str):
    """ES sibling pipeline aggregations (``stats_bucket`` /
    ``max_bucket`` / ``min_bucket`` / ``avg_bucket``) over the daily date
    histogram: one summary row about the buckets themselves. The parent
    histogram is distributed; the sibling pass runs over the #days bucket
    rows (bounded by bucket count, as in ES). ``max_day`` / ``min_day``
    use the ES keys-of-extreme-bucket semantics, first key wins."""
    import pandas as pd

    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("day").aggregate(Count(alias_name="n"))
           .sort("day").to_pandas())
    n = pdf["n"].astype("int64")
    max_n, min_n = int(n.max()), int(n.min())
    return pd.DataFrame([{
        "n_days": np.int64(len(pdf)),
        "sum_n": np.int64(n.sum()),
        "avg_n": np.int64(int(n.sum()) // len(pdf)),
        "max_n": np.int64(max_n),
        "max_day": pdf.loc[n.idxmax(), "day"] if len(pdf) else None,
        "min_n": np.int64(min_n),
        "min_day": pdf.loc[n.idxmin(), "day"] if len(pdf) else None,
    }])


def q_top_metrics(sf_dir: str):
    """ES ``top_metrics`` aggregation analog: per event type, the value
    (in exact micro units) of the most recent event — the metric at the
    top of a (ts desc, event_id desc) sort, selected inside map_groups
    so only one row per group survives."""
    import pandas as pd

    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "ts", "value"])

    def top1(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"],
                          ascending=[False, False]).head(1)
        return pd.DataFrame({
            "event_type": g["event_type"].values,
            "last_event": g["event_id"].astype("int64").values,
            "last_value_micro": (g["value"] * 1e6).round()
            .astype("int64").values})

    out = ds.groupby("event_type").map_groups(top1, batch_format="pandas")
    return out.sort("event_type")


def q_weighted_avg(sf_dir: str):
    """ES ``weighted_avg`` aggregation analog: the priority-weighted
    mean of ``value`` over all events, in exact integer arithmetic —
    sum(w*v_micro) // sum(w) with the severity priority as the weight
    (CRITICAL-class events count 1x .. INFO-class 5x inverted to
    weight = 6 - priority so severe events weigh more). Mergeable
    (num, den) partials; one row out."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..stages.severity import add_priority

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        t = add_priority(t)
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        w = pc.subtract(pa.scalar(6, pa.int64()),
                        pc.cast(t["priority"], pa.int64()))
        return pa.table({"num": pc.multiply(w, micro), "den": w})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .aggregate(Sum("num", alias_name="num"),
                      Sum("den", alias_name="den")))
    num, den = int(out["num"]), int(out["den"])
    return pd.DataFrame([{"sum_w": np.int64(den),
                          "wavg_micro": np.int64(num // den)}])


def q_adjacency_matrix(sf_dir: str):
    """ES ``adjacency_matrix`` aggregation analog: counts for each named
    filter and each pairwise intersection (errors/high_value/weekend,
    the filters_agg predicates). All masks are vectorized per batch and
    at most 6 partial rows per block cross the shuffle."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        m = {
            "errors": pc.equal(t["event_type"], "error")
            .to_numpy(zero_copy_only=False),
            "high_value": pc.greater_equal(micro, 100_000_000)
            .to_numpy(zero_copy_only=False),
            "weekend": pc.greater_equal(pc.day_of_week(t["ts"]), 5)
            .to_numpy(zero_copy_only=False),
        }
        names = _FILTER_BUCKET_NAMES
        keys, counts = [], []
        for i, a in enumerate(names):
            keys.append(a)
            counts.append(int(m[a].sum()))
            for b in names[i + 1:]:
                keys.append(f"{a}&{b}")
                counts.append(int((m[a] & m[b]).sum()))
        return pa.table({"bucket": pa.array(keys, pa.string()),
                         "n_part": pa.array(counts, pa.int64())})

    from ray.data.aggregate import Sum

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("bucket").aggregate(Sum("n_part", alias_name="n")))
    return out.sort("bucket")


# stored percolator queries: conjunctions of content terms
PERCOLATE_QUERIES = [
    (0, ["error", "merge"]),
    (1, ["authentication", "failure"]),
    (2, ["window"]),
]


def q_percolate(sf_dir: str):
    """ES percolator analog (reverse search): stored queries run against
    the document stream — one tokenize pass per batch builds a per-term
    presence mask, each stored conjunction is an AND of masks, and only
    (query_id, count) partials cross the shuffle. The direction is
    inverted from search (queries are the stored side, docs stream
    through), which is exactly how ES percolation differs from query."""
    from ray.data.aggregate import Sum

    from ..analysis.tokenizer import rows_with_any, tokenize_batch_arrow

    ds = _read(sf_dir, "documents", columns=["text"])
    all_terms = sorted({t for _, ts in PERCOLATE_QUERIES for t in ts})

    def prep(t: pa.Table) -> pa.Table:
        row_idx, toks, _ = tokenize_batch_arrow(t["text"])
        masks = {term: rows_with_any(row_idx, toks, [term], t.num_rows)
                 for term in all_terms}
        qids, counts = [], []
        for qid, terms in PERCOLATE_QUERIES:
            conj = np.ones(t.num_rows, dtype=bool)
            for term in terms:
                conj &= masks[term]
            qids.append(qid)
            counts.append(int(conj.sum()))
        return pa.table({"query_id": pa.array(qids, pa.int64()),
                         "n_part": pa.array(counts, pa.int64())})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("query_id").aggregate(Sum("n_part",
                                              alias_name="n_docs")))
    return out.sort("query_id")


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped pricing summary with exact integer-cent sums."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount", "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(
            t["l_shipdate"], pa.scalar(np.datetime64("1998-09-01", "us"))))
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0),
                                 ndigits=0), pa.int64())
        # price has 2 decimals, discount 2 → the product has exactly 4:
        # scale by 1e4 so rounding is unambiguous (a 1e2 scale leaves
        # values at *.5 where pyarrow half-even and DuckDB half-away split)
        disc = pc.multiply(pc.multiply(t["l_extendedprice"],
                                       pc.subtract(pa.scalar(1.0),
                                                   t["l_discount"])),
                           10000.0)
        disc_e4 = pc.cast(pc.round(disc, ndigits=0), pa.int64())
        qty = pc.cast(pc.round(t["l_quantity"], ndigits=0), pa.int64())
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "l_linestatus": t["l_linestatus"],
                         "qty": qty, "base_cents": cents,
                         "disc_e4": disc_e4})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("qty", alias_name="sum_qty"),
                      Sum("base_cents", alias_name="sum_base_cents"),
                      Sum("disc_e4", alias_name="sum_disc_e4"),
                      Count(alias_name="count_order")))
    return out.sort(["l_returnflag", "l_linestatus"])


def q_top_customers(sf_dir: str):
    """Top-10 customers by total order value: broadcast-join the (small)
    customer side into an orders aggregation — no shuffle join (the
    reference's only join is exactly this broadcast-lookup shape, GeoIP
    J1, core/geoip.py:154-242)."""
    import ray
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100.0),
                                 ndigits=0), pa.int64())
        return pa.table({"o_custkey": t["o_custkey"], "cents": cents})

    agg = (orders.map_batches(prep, batch_format="pyarrow")
           .groupby("o_custkey")
           .aggregate(Sum("cents", alias_name="total_cents"),
                      Count(alias_name="n_orders")))
    top = topk(agg, 10, [("total_cents", "descending"),
                         ("o_custkey", "ascending")])
    # name lookup for the 10 winners only: a predicate-pushdown read of
    # the dim table (row-group pruned), never a full materialization
    import pyarrow.dataset as pa_ds

    cust = pa_ds.dataset(os.path.join(sf_dir, "customer.parquet"),
                         format="parquet").to_table(
        columns=["c_custkey", "c_name"],
        filter=pc.field("c_custkey").isin(list(top["o_custkey"])))
    name_of = dict(zip(cust["c_custkey"].to_pylist(),
                       cust["c_name"].to_pylist()))
    top["c_name"] = [name_of.get(k) for k in top["o_custkey"]]
    return top.reset_index(drop=True)


# ---------------------------------------------------------------------------
# documents: metadata stamping / dead-letter (M6, M9)
# ---------------------------------------------------------------------------

def q_metadata_stamp(sf_dir: str):
    from ..stages.metadata import stamp_metadata

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = ds.map_batches(
        lambda t: stamp_metadata(t, log_type="documents",
                                 count_col="n_chars"),
        batch_format="pyarrow")
    return out.select_columns(["doc_id", "@log_type", "@processing_mode",
                               "@processing_result", "@log_count"]) \
        .sort("doc_id")


def q_dead_letter(sf_dir: str):
    from ray.data.aggregate import Count

    from ..stages.metadata import dead_letter_split

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(
        lambda t: dead_letter_split(t, min_chars=200),
        batch_format="pyarrow")
        .groupby(["@processing_result", "@error_type"])
        .aggregate(Count(alias_name="n")))
    return out.sort("@processing_result")


# ---------------------------------------------------------------------------
# search: term filters, document frequency, BM25 top-k (the flagship)
# ---------------------------------------------------------------------------

def q_term_match_counts(sf_dir: str):
    """Docs containing token 'merge' per lang — the Kibana keyword term
    filter + count aggregation shape (SURVEY §1.2)."""
    from ray.data.aggregate import Count

    from ..analysis.tokenizer import rows_with_any, tokenize_batch_arrow

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def prep(t: pa.Table) -> pa.Table:
        row_idx, toks, _ = tokenize_batch_arrow(t["text"])
        mask = rows_with_any(row_idx, toks, ["merge"], t.num_rows)
        return pa.table({"lang": t["lang"].filter(pa.array(mask))})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("lang").aggregate(Count(alias_name="n_docs")))
    return out.sort("lang")


def q_df_top_terms(sf_dir: str):
    """Top-20 terms by document frequency (df is the core statistic of the
    inverted index; partial per-batch distinct → groupby sum)."""
    from ray.data.aggregate import Sum

    from ..analysis.tokenizer import term_tf, tokenize_batch_arrow

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial_df(t: pa.Table) -> pa.Table:
        row_idx, toks, _ = tokenize_batch_arrow(t["text"])
        tt = term_tf(toks, row_idx)
        terms = tt.enc.dictionary.take(pa.array(tt.terms))
        tdf = pa.table({"term": terms}).group_by("term").aggregate(
            [([], "count_all")])
        return pa.table({"term": tdf["term"],
                         "df_part": pc.cast(tdf["count_all"], pa.int64())})

    out = (ds.map_batches(partial_df, batch_format="pyarrow")
           .groupby("term").aggregate(Sum("df_part", alias_name="df")))
    # per-block local top-k → tiny global merge: nothing vocabulary-sized
    # ever reaches the driver
    return topk(out, 20, [("df", "descending"), ("term", "ascending")])


def _sig_term_stats(sf_dir: str, fg_lang: str):
    """Shared significant-terms counting pass: per-term (fg_df, df)
    Dataset plus the two corpus-size scalars (one tokenize pass —
    per-batch distinct + partial sums, then a single term groupby; the
    df_top_terms exchange shape). Used by both the JLH and chi-square
    heuristics."""
    from ray.data.aggregate import Sum

    from ..analysis.tokenizer import term_tf, tokenize_batch_arrow

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        row_idx, toks, _ = tokenize_batch_arrow(t["text"])
        tt = term_tf(toks, row_idx)
        rows = tt.rows
        terms = tt.enc.dictionary.take(pa.array(tt.terms))
        is_fg = pc.equal(t["lang"], fg_lang).to_numpy(
            zero_copy_only=False)[rows].astype(np.int64)
        part = pa.table({"term": terms, "fg": pa.array(is_fg)})
        agg = part.group_by("term").aggregate(
            [("fg", "sum"), ([], "count_all")])
        return pa.table({"term": agg["term"],
                         "fg_part": pc.cast(agg["fg_sum"], pa.int64()),
                         "df_part": pc.cast(agg["count_all"], pa.int64())})

    stats = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("term").aggregate(Sum("fg_part", alias_name="fg_df"),
                                        Sum("df_part", alias_name="df")))

    lang_ds = _read(sf_dir, "documents", columns=["lang"])
    n = float(lang_ds.count())

    def count_fg(t: pa.Table) -> pa.Table:
        c = pc.sum(pc.cast(pc.equal(t["lang"], fg_lang), pa.int64()))
        return pa.table({"c": pa.array([c.as_py() or 0], pa.int64())})

    fg_n = float(lang_ds.map_batches(
        count_fg, batch_format="pyarrow").sum("c"))
    return stats, n, fg_n


def q_significant_terms(sf_dir: str):
    """ES ``significant_terms`` aggregation (JLH score): terms
    over-represented in a foreground subset (here docs with lang='de')
    vs the whole corpus as background — the Kibana "what is unusual
    about these logs" panel. Counting via _sig_term_stats (one
    tokenize pass). The JLH expression ``(fg_rate - bg_rate) *
    (fg_rate / bg_rate)`` is written with the identical operation tree
    in the SQL oracle so the doubles agree bit-for-bit before the
    shared round-to-6."""
    min_fg_df = 3
    stats, n, fg_n = _sig_term_stats(sf_dir, "de")

    def score(t: pa.Table) -> pa.Table:
        fg_i = t["fg_df"].to_numpy(zero_copy_only=False)
        fg = fg_i.astype(np.float64)
        df = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        fg_rate = fg / fg_n
        bg_rate = df / n
        jlh = (fg_rate - bg_rate) * (fg_rate / bg_rate)
        keep = (fg_i >= min_fg_df) & (fg_rate > bg_rate)
        out = pa.table({"term": t["term"], "fg_df": t["fg_df"],
                        "df": t["df"],
                        "score": _round6(pa.array(jlh))})
        return out.filter(pa.array(keep))

    scored = stats.map_batches(score, batch_format="pyarrow")
    return topk(scored, 15, [("score", "descending"),
                             ("term", "ascending")])


def q_significant_terms_chi2(sf_dir: str):
    """ES ``significant_terms`` with the ``chi_square`` heuristic
    (positive associations only, the include_negatives=false shape):
    the classic 2×2 contingency statistic
    ``N·(ad − bc)² / ((a+b)(c+d)(a+c)(b+d))`` with a = fg_df,
    b = fg_n − a, c = df − a (background-exclusive df,
    background_is_superset), d = (N − fg_n) − c. Same one-pass
    counting as the JLH entry (_sig_term_stats); identical IEEE op
    tree in the SQL oracle."""
    min_fg_df = 3
    stats, n, fg_n = _sig_term_stats(sf_dir, "de")

    def score(t: pa.Table) -> pa.Table:
        fg_i = t["fg_df"].to_numpy(zero_copy_only=False)
        a = fg_i.astype(np.float64)
        df = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        b = fg_n - a
        c = df - a
        d = (n - fg_n) - c
        num = n * ((a * d - b * c) * (a * d - b * c))
        den = (a + b) * (c + d) * (a + c) * (b + d)
        with np.errstate(invalid="ignore", divide="ignore"):
            chi2 = num / den
        fg_rate = a / fg_n
        bg_rate = df / n
        keep = (fg_i >= min_fg_df) & (fg_rate > bg_rate) & (den > 0)
        out = pa.table({"term": t["term"], "fg_df": t["fg_df"],
                        "df": t["df"],
                        "chi2": _round6(pa.array(
                            np.nan_to_num(chi2), pa.float64()))})
        return out.filter(pa.array(keep))

    scored = stats.map_batches(score, batch_format="pyarrow")
    return topk(scored, 15, [("chi2", "descending"),
                             ("term", "ascending")])


def q_significant_text(sf_dir: str):
    """ES ``significant_text`` aggregation — what significant_terms is
    NOT: the foreground is a QUERY result (docs matching any standard
    query term) rather than a field filter, the text is re-analyzed on
    the fly, and ES's ``filter_duplicate_text`` drops exact duplicate
    documents before counting (copy-pasted logs would otherwise mint
    fake significance). Pass 1 is the exact-dedup keys-only exchange
    (content hash → min doc_id, nothing content-sized moves); pass 2
    tokenizes once, computing per-term foreground df and total df with
    the duplicate mask applied. JLH score, same IEEE op tree as the
    oracle."""
    import ray
    from ray.data.aggregate import Sum

    from ..analysis.tokenizer import (rows_with_any, term_tf,
                                      tokenize_batch_arrow)

    min_fg_df = 3
    qset = set(BM25_QUERY_TEXT.split())
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    # pass 1: keep-first ids per exact text (hash(text) -> min doc_id);
    # the kept-id set is bounded by distinct texts — at target scale
    # this broadcast becomes the dedup cluster-id sidecar join
    # (dedup/exact.py), same semantics
    def keys(t: pa.Table) -> pa.Table:
        import polars as pl

        h = pl.from_arrow(t.select(["text"]))["text"] \
            .hash(seed=7).to_numpy().astype(np.int64)
        return pa.table({"h": pa.array(h),
                         "doc_id": t["doc_id"]})

    from ray.data.aggregate import Min

    kept_tbl = (ds.map_batches(keys, batch_format="pyarrow")
                .groupby("h").aggregate(Min("doc_id",
                                            alias_name="keep_id"))
                .to_pandas())
    kept_ref = ray.put(np.sort(kept_tbl["keep_id"].to_numpy()))

    def partial(t: pa.Table) -> pa.Table:
        keep = ray.get(kept_ref)
        mask = np.isin(t["doc_id"].to_numpy(zero_copy_only=False), keep,
                       assume_unique=True)
        t = t.filter(pa.array(mask))
        if t.num_rows == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "fg_part": pa.array([], pa.int64()),
                             "df_part": pa.array([], pa.int64()),
                             "nrows": pa.array([], pa.int64()),
                             "nfg": pa.array([], pa.int64())})
        row_idx, toks, _ = tokenize_batch_arrow(t["text"])
        tt = term_tf(toks, row_idx)
        rows = tt.rows
        terms = tt.enc.dictionary.take(pa.array(tt.terms))
        # foreground rows: any (row, term) pair whose term is a query
        # term marks its row
        fg_rows = rows_with_any(rows, terms, sorted(qset), t.num_rows)
        part = pa.table({"term": terms,
                         "fg": pa.array(fg_rows[rows].astype(np.int64))})
        agg = part.group_by("term").aggregate(
            [("fg", "sum"), ([], "count_all")])
        return pa.table({"term": agg["term"],
                         "fg_part": pc.cast(agg["fg_sum"], pa.int64()),
                         "df_part": pc.cast(agg["count_all"],
                                            pa.int64())})

    stats = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("term")
             .aggregate(Sum("fg_part", alias_name="fg_df"),
                        Sum("df_part", alias_name="df")))
    n = float(len(kept_tbl))

    # foreground size: kept docs containing ANY query term (tiny
    # second tokenize-and-count pass; one int per batch crosses)
    def count_fg(t: pa.Table) -> pa.Table:
        keep = ray.get(kept_ref)
        mask = np.isin(t["doc_id"].to_numpy(zero_copy_only=False),
                       keep, assume_unique=True)
        t = t.filter(pa.array(mask))
        if t.num_rows == 0:
            return pa.table({"c": pa.array([0], pa.int64())})
        row_idx, toks, _ = tokenize_batch_arrow(t["text"])
        fg_rows = rows_with_any(row_idx, toks, sorted(qset), t.num_rows)
        return pa.table({"c": pa.array([int(fg_rows.sum())],
                                       pa.int64())})

    fg_n = float(ds.map_batches(count_fg,
                                batch_format="pyarrow").sum("c"))

    def score(t: pa.Table) -> pa.Table:
        fg_i = t["fg_df"].to_numpy(zero_copy_only=False)
        fg = fg_i.astype(np.float64)
        df = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        fg_rate = fg / fg_n
        bg_rate = df / n
        jlh = (fg_rate - bg_rate) * (fg_rate / bg_rate)
        keep = (fg_i >= min_fg_df) & (fg_rate > bg_rate)
        out = pa.table({"term": t["term"], "fg_df": t["fg_df"],
                        "df": t["df"],
                        "score": _round6(pa.array(jlh))})
        return out.filter(pa.array(keep))

    scored = stats.map_batches(score, batch_format="pyarrow")
    return topk(scored, 10, [("score", "descending"),
                             ("term", "ascending")])


class _EngineCache(OrderedDict):
    """The fixture engines of the index-backed entries, least recently
    used first. Each engine owns shard actor processes (~170 MB each),
    so the cache holds at most ``cap`` entries and calls ``shutdown()``
    on what it evicts (a federated or rollover entry shuts down every
    member engine). A read counts as a use."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def __getitem__(self, key):
        self.move_to_end(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.cap:
            _, old = self.popitem(last=False)
            if hasattr(old, "shutdown"):
                old.shutdown()


_ENGINE_CACHE = _EngineCache(cap=2)

_IDX_ROOT: str | None = None


def _idx_root() -> str:
    """Root of the registry's index and store directories: one fresh
    directory per process, removed at exit. A registry call resumes
    whatever index it finds at its path, so a root shared between
    processes would serve indexes that other code versions wrote."""
    global _IDX_ROOT
    if _IDX_ROOT is None:
        import atexit
        import shutil
        import tempfile

        _IDX_ROOT = tempfile.mkdtemp(prefix="lsai_idx-")
        atexit.register(shutil.rmtree, _IDX_ROOT, ignore_errors=True)
    return _IDX_ROOT


BM25_QUERY_TEXT = "error merge spark window"


def _corpusify_docs(t: pa.Table) -> pa.Table:
    """documents rows -> corpus shape with id-aligned keys: repo =
    "r" + zero-padded doc_id makes the engine's sorted-key dense doc ids
    equal the source doc_ids (shared by _docs_engine and the incremental
    / federated / clean-corpus splits). Fully vectorized Arrow string
    kernels — the per-row f-string + sha1 formulation this replaces was
    paid on every engine build in the sweep; the commit key only needs
    to be deterministic and unique, so a zero-padded decimal works."""
    s = pc.cast(t["doc_id"], pa.string())
    return pa.table({
        "repo": pc.binary_join_element_wise(
            pa.scalar("r"), pc.utf8_lpad(s, 12, "0"), ""),
        "path": pc.binary_join_element_wise(
            pa.scalar("doc_"), s, pa.scalar(".md"), ""),
        "commit": pc.utf8_lpad(s, 40, "0"),
        "lang": t["lang"], "content": t["text"],
    })


def _docs_count(sf_dir: str) -> int:
    """documents row count from the parquet footer — zero data read,
    no pipeline execution (the multi-index fixtures need n before any
    corpus pass)."""
    import pyarrow.parquet as pq

    return pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows


# below this many docs the boundary computation reads the 8-byte id
# column in ONE task (100k ids = 800 KB — np.partition is microseconds
# where Ray Data's all-to-all sort pays ~1-2 s of fixed exchange cost;
# the same small-N cutover build.py uses for the docmap sort). Above
# it, the distributed keys-only sort takes over — the 100-TB path.
_SMALL_BOUNDARY_DOCS = 2_000_000


def _corpus_boundary_keys(sf_dir, idxs):
    """Boundary ``repo`` keys at the given row indices of the
    repo-sorted corpus, computed from a KEYS-ONLY ``doc_id`` read:
    repo = "r" + zfill12(doc_id) is order-isomorphic to doc_id, so
    the boundary doc_ids ARE the boundary keys after formatting.
    Only the 8-byte id column is ever touched — the corpus text never
    leaves the parquet files and nothing is pinned in the object
    store (r4 verdict: the fixtures' full-corpus ``.materialize()``
    was the last whole-corpus pin)."""
    import pyarrow.parquet as pq

    n = _docs_count(sf_dir)
    if n <= _SMALL_BOUNDARY_DOCS:
        ids = np.sort(pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id"])["doc_id"].to_numpy())
        # an index == n (tiny corpora: ILM's 2*ceil(n/3) == n for n
        # in {1,2,4}) addresses the supremum — a sentinel sorting
        # after every real "r"+digits key, so ranges starting at it
        # are empty and ranges ending at it are unbounded
        return [("r%012d" % ids[i]) if i < n else "r~" for i in idxs]
    keys = _read(sf_dir, "documents", columns=["doc_id"]) \
        .sort("doc_id")
    parts = keys.split_at_indices(list(idxs))
    out = []
    for p in parts[1:]:
        rows = p.take(1)
        out.append("r%012d" % rows[0]["doc_id"] if rows else "r~")
    return out


def _write_key_chunks(src, boundaries, work: str, names) -> list[str]:
    """ONE streaming pass over the corpusified source writes every
    sorted-key chunk as a hive partition (``work/chunk=<name>/``) —
    replacing one filtered re-read PER chunk (3 passes -> 1). Chunk
    assignment is a vectorized searchsorted against the boundary
    keys; the supremum sentinel naturally lands tail rows in the last
    chunk."""
    bnd = list(boundaries)

    def assign(t: pa.Table) -> pa.Table:
        keys = t["repo"]
        c = pa.scalar(str(names[-1]), pa.string())
        # nested if_else built back-to-front: the smallest boundary
        # whose range contains the key wins — all Arrow kernels
        for i in range(len(bnd) - 1, -1, -1):
            c = pc.if_else(pc.less(keys, bnd[i]),
                           pa.scalar(str(names[i]), pa.string()), c)
        if isinstance(c, pa.Scalar):  # single-chunk degenerate case
            c = pa.array([c.as_py()] * t.num_rows, pa.string())
        return t.append_column("chunk", c)

    src.map_batches(assign, batch_format="pyarrow") \
        .write_parquet(work, partition_cols=["chunk"])
    import pyarrow.dataset as pa_ds
    import pyarrow.parquet as pq

    # hive partitioning left the chunk column out of the files, so any
    # written file's schema is the source schema
    schema = pa_ds.dataset(work, format="parquet").schema
    paths = [os.path.join(work, f"chunk={name}") for name in names]
    for p in paths:
        # an empty key range writes no file, and read_parquet refuses a
        # directory without one: give it a zero-row file
        if not os.path.isdir(p) or not os.listdir(p):
            os.makedirs(p, exist_ok=True)
            pq.write_table(schema.empty_table(),
                           os.path.join(p, "empty.parquet"))
    return paths


def _docs_engine(sf_dir: str):
    """Build (once per sf_dir) an index over documents mapped to the corpus
    shape with id-aligned keys: repo = f"r{doc_id:012d}" makes the engine's
    sort-based dense doc ids equal the source doc_ids, so results compare
    1:1 with SQL over the original table."""
    if sf_dir in _ENGINE_CACHE:
        return _ENGINE_CACHE[sf_dir]
    import hashlib

    import ray.data as rd

    from ..config import IndexConfig
    from ..index.build import build_index
    from ..query.shards import SearchEngine

    corpus = _read(sf_dir, "documents",
                   columns=["doc_id", "lang", "text"]) \
        .map_batches(_corpusify_docs, batch_format="pyarrow")
    tag = "documents#v2:" + sf_dir.rstrip("/")
    idx_dir = os.path.join(
        _idx_root(),
        hashlib.sha256(tag.encode()).hexdigest()[:16])
    cfg = IndexConfig(num_partitions=8, salt_buckets=4,
                      store_positions=True, index_path_field=True)
    build_index(corpus, idx_dir, cfg, corpus_tag=tag)
    eng = SearchEngine(idx_dir)
    _ENGINE_CACHE[sf_dir] = eng
    return eng


def _incr_engine(sf_dir: str):
    """The base + delta engine of the incremental entries (built on a
    miss): the first half of documents built, the second appended."""
    if ("incr", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("incr", sf_dir)]
    else:
        import hashlib
        import shutil

        import pyarrow.parquet as pq

        from ..config import IndexConfig
        from ..index.build import build_index
        from ..index.update import update_index
        from ..query.shards import SearchEngine

        src = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "lang", "text"])
        src = src.sort_by("doc_id")
        did = src["doc_id"].to_numpy(zero_copy_only=False)
        half = int(np.median(did))

        corpusify = _corpusify_docs  # shared vectorized corpus shape

        tag = "documents-incr#v2:" + sf_dir.rstrip("/")
        work = os.path.join(
            _idx_root(),
            hashlib.sha256(tag.encode()).hexdigest()[:16])
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(f"{work}/base", exist_ok=True)
        os.makedirs(f"{work}/delta", exist_ok=True)
        mask = did < half
        pq.write_table(corpusify(src.filter(pa.array(mask))),
                       f"{work}/base/part-0.parquet")
        pq.write_table(corpusify(src.filter(pa.array(~mask))),
                       f"{work}/delta/part-0.parquet")
        cfg = IndexConfig(num_partitions=8, salt_buckets=4,
                          store_positions=True)
        build_index(f"{work}/base", f"{work}/idx", cfg, corpus_tag=tag)
        update_index(f"{work}/delta", f"{work}/idx", cfg, delta_tag=tag)
        eng = SearchEngine(f"{work}/idx")
        _ENGINE_CACHE[("incr", sf_dir)] = eng
    return eng


def q_bm25_topk_incremental(sf_dir: str):
    """Build the index on the first half of documents, then APPEND the
    second half via the incremental delta path (index/update.py) — the
    result must equal BM25 over the full corpus (stats are updated
    exactly), so it shares the full-corpus SQL oracle."""
    eng = _incr_engine(sf_dir)
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_pit_search(sf_dir: str):
    """ES point-in-time (PIT) search: a reader opened before a write
    keeps serving the exact pre-write view for its lifetime. The engine
    gets this from its architecture rather than an id registry: an
    ``IndexShard`` actor pool loads segments into memory at construction
    and the docmap ``pyarrow.dataset`` pins its file list, so a
    ``SearchEngine`` constructed before ``update_index`` IS an open PIT
    — its results are bit-identical to the pre-update search even after
    the delta merges (test_pit.py proves both halves: the PIT view is
    frozen, a fresh engine sees the delta). This entry builds the index
    on the first half of documents, opens the PIT, appends the second
    half, then searches THROUGH THE PIT — the oracle is BM25 over only
    the base half."""
    if ("pit", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("pit", sf_dir)]
    else:
        import hashlib
        import shutil

        import pyarrow.parquet as pq

        from ..config import IndexConfig
        from ..index.build import build_index
        from ..index.update import update_index
        from ..query.shards import SearchEngine

        src = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "lang", "text"])
        src = src.sort_by("doc_id")
        did = src["doc_id"].to_numpy(zero_copy_only=False)
        half = int(np.median(did))

        tag = "documents-pit#v1:" + sf_dir.rstrip("/")
        work = os.path.join(
            _idx_root(),
            hashlib.sha256(tag.encode()).hexdigest()[:16])
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(f"{work}/base", exist_ok=True)
        os.makedirs(f"{work}/delta", exist_ok=True)
        mask = did < half
        pq.write_table(_corpusify_docs(src.filter(pa.array(mask))),
                       f"{work}/base/part-0.parquet")
        pq.write_table(_corpusify_docs(src.filter(pa.array(~mask))),
                       f"{work}/delta/part-0.parquet")
        cfg = IndexConfig(num_partitions=8, salt_buckets=4)
        build_index(f"{work}/base", f"{work}/idx", cfg, corpus_tag=tag)
        # open the PIT (reader precedes the write) ...
        eng = SearchEngine(f"{work}/idx")
        # ... then append the delta; the PIT must not see it
        update_index(f"{work}/delta", f"{work}/idx", cfg, delta_tag=tag)
        _ENGINE_CACHE[("pit", sf_dir)] = eng
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_phrase_match_incremental(sf_dir: str):
    """Phrase search over the base+delta index (positions sidecar
    appended by update_index) — must equal the full-corpus phrase
    oracle, so it shares phrase_match's SQL."""
    return _incr_engine(sf_dir).phrase_match(PHRASE_QUERY_TEXT)


def q_bm25_topk(sf_dir: str):
    eng = _docs_engine(sf_dir)
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_bm25_topk_bounded(sf_dir: str):
    """bm25_topk through the BOUNDED-MEMORY serving mode
    (query/shards.py max_resident_bytes — the 100-TB deployment where
    per-node segment bytes exceed the heap): only the dictionary is
    resident, posting rows page per parquet row group through a hard
    byte-capped LRU over the mmap'd segment file. Must be
    score-identical to the unbounded engine, so it shares bm25_topk's
    SQL oracle; the entry additionally asserts the lazy path actually
    ran (cold row-group loads observed under a cap 1/8 of segment
    bytes)."""
    eng = _docs_engine(sf_dir)  # ensures the index exists
    key = ("bounded", sf_dir)
    if key not in _ENGINE_CACHE:
        from ..query.shards import SearchEngine

        seg = os.path.join(eng.index_dir, "segments")
        cap = max(4096, sum(
            os.path.getsize(os.path.join(seg, f))
            for f in os.listdir(seg)) // 8)
        _ENGINE_CACHE[key] = SearchEngine(
            eng.index_dir, prewarm_hot_terms=0,
            max_resident_bytes=cap)
    beng = _ENGINE_CACHE[key]
    res = beng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    assert beng.cache_stats()["rg_loads"] > 0  # paged, not resident
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_bm25_topk_wand(sf_dir: str):
    """FORCED block-max WAND (the no-N-sized-accumulator strategy for
    10^12-doc shards, vectorized: query/wand.py block_max_wand_vec) —
    must be bit-identical to TAAT and the SQL oracle; auto-strategy
    would pick TAAT at this scale, so this entry keeps the scale path
    externally verified."""
    eng = _docs_engine(sf_dir)
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False,
                     strategy="wand")
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


MSEARCH_REQUESTS = [
    {"text": "error merge spark window", "k": 5},
    {"text": "authentication failure", "k": 5},
    {"text": "window function", "k": 5},
]


def q_msearch(sf_dir: str):
    """ES ``_msearch`` analog: a batch of BM25 top-k queries in one
    engine call — the union of all terms is prefetched in a single shard
    round, then each query runs the exact path against warm caches.
    Results identical to issuing the queries one by one (the oracle is a
    UNION ALL of per-query BM25 SQL)."""
    eng = _docs_engine(sf_dir)
    res = eng.msearch(MSEARCH_REQUESTS, with_meta=False)
    return pa.table({"query_id": res["query_id"],
                     "doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_bm25_topk_filtered(sf_dir: str):
    eng = _docs_engine(sf_dir)
    res = eng.search(BM25_QUERY_TEXT, k=10, filters={"lang": "en"},
                     with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_profile_search(sf_dir: str):
    """ES ``"profile": true`` analog for the WAND scale path. The
    pruning counters themselves (atoms total/considered/skipped, docs
    exactly scored) are a pure function of index content + query but
    not SQL-expressible — they're pinned in test_engine.py and
    recorded per-bench (selective_wand_profile); HERE they're
    invariant-checked inline (considered + skipped == total, repeat
    run bit-identical). The externally-hashed projection is the
    per-query-term dictionary profile the pruning runs over: (term,
    df, sparse) rows served from the real shard dictionaries — df is
    exactly the oracle's tokenizer-derived document frequency and
    ``sparse`` is the regime selector (df <= sparse_df_cap) that
    decides exact-list vs block-interval atoms in query/wand.py."""
    eng = _docs_engine(sf_dir)
    p = eng.profile(BM25_QUERY_TEXT, k=10).to_pylist()[0]
    assert p["atoms_considered"] + p["atoms_skipped"] == p["n_atoms"]
    assert eng.profile(BM25_QUERY_TEXT, k=10).to_pylist()[0] == p
    terms = sorted(set(eng._toks(BM25_QUERY_TEXT)))
    dfs = eng._term_dfs(terms)
    df = [int(dfs.get(t, 0)) for t in terms]
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "df": pa.array(df, pa.int64()),
        "sparse": pa.array([d <= 4096 for d in df], pa.bool_())})


def q_alias_search(sf_dir: str):
    """ES filtered index alias (the ``_aliases`` API, index/aliases.py):
    a "docs-fr" alias over the shared docs index carries filter
    lang=fr, and every query through the alias gets the filter AND-ed
    in — scores equal the plain filtered search exactly (the alias is
    pure indirection; registry is an atomically-written KB-sized JSON
    beside the manifest, never in the data path)."""
    import hashlib

    from ..index import aliases as al

    eng = _docs_engine(sf_dir)
    reg = os.path.join(
        _idx_root(),
        "aliases-" + hashlib.sha256(sf_dir.encode()).hexdigest()[:12],
        "registry.json")
    al.put_alias(reg, "docs-fr",
                 [{"index": eng.index_dir, "filter": {"lang": "fr"}}])
    res = al.alias_search(reg, "docs-fr", BM25_QUERY_TEXT, k=10,
                          get_engine=lambda d: eng)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_rare_terms(sf_dir: str):
    """ES ``rare_terms`` aggregation: the 20 least-frequent content
    terms (df <= 400 — the synthetic vocabulary's rare tail; min df is
    ~25 at every sf), served entirely from the shard dictionaries —
    no posting bytes or documents are read."""
    eng = _docs_engine(sf_dir)
    res = eng.rare_terms(max_df=400, limit=20)
    return pa.table({"term": res["term"],
                     "df": pc.cast(res["df"], pa.int64())})


def q_string_stats(sf_dir: str):
    """ES ``string_stats`` aggregation analog: per-lang length stats of
    the text field (count, min/max/sum of character lengths, floor
    average) in exact integers — one `utf8_length` kernel per batch,
    mergeable partials."""
    import pandas as pd

    from ray.data.aggregate import Count, Max, Min, Sum

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"lang": t["lang"],
                         "len": pc.cast(pc.utf8_length(t["text"]),
                                        pa.int64())})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n"),
                      Min("len", alias_name="min_len"),
                      Max("len", alias_name="max_len"),
                      Sum("len", alias_name="sum_len"))
           .sort("lang").to_pandas())
    pdf["avg_len"] = (pdf["sum_len"] // pdf["n"]).astype("int64")
    return pdf


def q_matrix_stats(sf_dir: str):
    """ES ``matrix_stats`` aggregation analog: exact second-moment
    statistics between value (centi units) and hour-of-day — mergeable
    (n, Σx, Σy, Σxy, Σx², Σy²) partials, population covariance and
    variances derived as floor((n·Σxy − ΣxΣy)/n²) with Python bignums
    (the oracle emulates floor division in HUGEINT, so negative
    covariance floors identically)."""
    import pandas as pd

    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(pc.multiply(t["value"], 1e2), ndigits=0),
                    pa.int64())
        y = pc.cast(pc.hour(t["ts"]), pa.int64())
        return pa.table({"x": x, "y": y,
                         "xy": pc.multiply(x, y),
                         "x2": pc.multiply(x, x),
                         "y2": pc.multiply(y, y)})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .aggregate(Count(alias_name="n"),
                      Sum("x", alias_name="sum_x"),
                      Sum("y", alias_name="sum_y"),
                      Sum("xy", alias_name="sum_xy"),
                      Sum("x2", alias_name="sum_x2"),
                      Sum("y2", alias_name="sum_y2")))
    n, sx, sy = int(out["n"]), int(out["sum_x"]), int(out["sum_y"])
    sxy, sx2, sy2 = (int(out["sum_xy"]), int(out["sum_x2"]),
                     int(out["sum_y2"]))
    den = n * n
    return pd.DataFrame([{
        "n": np.int64(n), "sum_x": np.int64(sx), "sum_y": np.int64(sy),
        "cov_pop": np.int64((n * sxy - sx * sy) // den),
        "var_x_pop": np.int64((n * sx2 - sx * sx) // den),
        "var_y_pop": np.int64((n * sy2 - sy * sy) // den),
    }])


def _fed_engine(sf_dir: str):
    """The two-member federated engine over documents split at the
    median key (built on a miss)."""
    import hashlib
    import shutil

    import ray.data as rd

    from ..config import IndexConfig
    from ..index.build import build_index
    from ..query.federated import FederatedSearch
    from ..query.shards import SearchEngine

    if ("fed", sf_dir) in _ENGINE_CACHE:
        fed = _ENGINE_CACHE[("fed", sf_dir)]
    else:
        src = _read(sf_dir, "documents",
                    columns=["doc_id", "lang", "text"]) \
            .map_batches(_corpusify_docs, batch_format="pyarrow")
        tag = "documents-fed#v2:" + sf_dir.rstrip("/")
        work = os.path.join(
            _idx_root(),
            hashlib.sha256(tag.encode()).hexdigest()[:16])
        shutil.rmtree(work, ignore_errors=True)
        # keys-only median boundary (footer count + id-column sort),
        # then ONE streaming pass writes both member halves as hive
        # partitions; each member build reads its pruned parquet —
        # no corpus copy in the object store, no driver copy, no
        # per-member corpusify re-read
        [half_key] = _corpus_boundary_keys(
            sf_dir, [_docs_count(sf_dir) // 2])
        member_dirs = _write_key_chunks(
            src, [half_key], os.path.join(work, "corpus"), ["a", "b"])
        cfg = IndexConfig(num_partitions=8, salt_buckets=4)
        # member builds stay sequential: overlapping them on driver
        # threads races Ray Data's lazy fsspec imports (observed
        # ImportError under two concurrent read_parquet plans)
        members = []
        for name, cdir in zip(("a", "b"), member_dirs):
            d = os.path.join(work, name)
            build_index(rd.read_parquet(cdir), d, cfg,
                        corpus_tag=f"{tag}-{name}")
            members.append(SearchEngine(d))
        fed = FederatedSearch(members)
        _ENGINE_CACHE[("fed", sf_dir)] = fed
    return fed


def q_federated_search(sf_dir: str):
    """ES multi-index search with dfs_query_then_fetch global stats
    (query/federated.py): the documents corpus is split at the median
    key into TWO separate indexes; one metadata round collects global
    (N, df, avgdl) and every member scores under them — the federated
    result is bit-identical to a single merged index, so this shares
    bm25_topk's SQL oracle."""
    fed = _fed_engine(sf_dir)
    res = fed.search(BM25_QUERY_TEXT, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_rollover_search(sf_dir: str):
    """ES ``_rollover`` + alias analog (index/rollover.py): the corpus
    arrives as three sorted-key chunks; the first two land in gen-0000
    (the second through the incremental update path), the max_docs
    write condition seals it, the third opens gen-0001 — then ONE alias
    search fans out federated global-stats BM25 across both
    generations, bit-identical to a single merged index (shares
    bm25_topk's SQL oracle)."""
    import hashlib
    import shutil

    from ..config import IndexConfig
    from ..index.rollover import RolloverIndex

    key = ("rollover", sf_dir)
    if key in _ENGINE_CACHE:
        roll = _ENGINE_CACHE[key]
    else:
        src = _read(sf_dir, "documents",
                    columns=["doc_id", "lang", "text"]) \
            .map_batches(_corpusify_docs, batch_format="pyarrow")
        n = _docs_count(sf_dir)
        tag = "documents-roll#v1:" + sf_dir.rstrip("/")
        work = os.path.join(
            _idx_root(),
            hashlib.sha256(tag.encode()).hexdigest()[:16])
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        # dataset-native thirds: footer count + keys-only boundaries,
        # then ONE streaming pass writes all three chunks as hive
        # partitions — no driver-side corpus table, no object-store
        # corpus pin, no per-chunk corpus re-read (r4 verdict item #1
        # + its bench-regression follow-up)
        b = _corpus_boundary_keys(sf_dir, [n // 3, 2 * n // 3])
        chunks = _write_key_chunks(src, b, work, ["0", "1", "2"])
        roll = RolloverIndex(os.path.join(work, "alias"),
                             IndexConfig(num_partitions=8,
                                         salt_buckets=4),
                             max_docs=2 * n // 3, alias="docs")
        for i, p in enumerate(chunks):
            roll.ingest(p, tag=f"{tag}-{i}")
        assert len(roll.meta["generations"]) == 2, roll.meta
        _ENGINE_CACHE[key] = roll
    res = roll.search(BM25_QUERY_TEXT, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_analyze_categorize(sf_dir: str):
    """ES|QL CATEGORIZE template mining over the reference's REAL
    linux-2k corpus (the analyze CLI's categorize subtype as a
    driver-checked entry): every raw line collapses to its
    constant-token skeleton, counts aggregate distributed, top 20 by
    (n desc, category asc). The oracle runs the SAME three-regex RE2
    cascade in DuckDB over the SAME raw file. ``sf_dir`` unused —
    fixed-size real data."""
    from ..analyze import categorize_files

    out = categorize_files(list(_require_inputs("analyze_categorize")),
                           top=20)
    return pa.table({
        "category": pa.array([r["category"]
                              for r in out["top_categories"]],
                             pa.string()),
        "n": pa.array([r["n"] for r in out["top_categories"]],
                      pa.int64())})


def q_bm25_topk_stopped(sf_dir: str):
    """§2.11 extension surface — a custom ANALYZER option wired
    end-to-end: the index is built with ``stop_words=('the', 'a')``
    (Lucene StopFilter contract: dropped tokens never reach the
    postings, so df/dl/avgdl all reflect the kept stream), then the
    standard BM25 query runs — scores shift exactly as the oracle's
    NOT IN token filter predicts."""
    import hashlib

    import ray.data as rd

    from ..config import IndexConfig
    from ..index.build import build_index
    from ..query.shards import SearchEngine

    key = ("stopped", sf_dir)
    if key in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[key]
    else:
        corpus = _read(sf_dir, "documents",
                       columns=["doc_id", "lang", "text"]) \
            .map_batches(_corpusify_docs, batch_format="pyarrow")
        tag = "documents-stop#v1:" + sf_dir.rstrip("/")
        idx_dir = os.path.join(
            _idx_root(),
            hashlib.sha256(tag.encode()).hexdigest()[:16])
        cfg = IndexConfig(num_partitions=8, salt_buckets=4,
                          stop_words=("the", "a"))
        build_index(corpus, idx_dir, cfg, corpus_tag=tag)
        eng = SearchEngine(idx_dir)
        _ENGINE_CACHE[key] = eng
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_bm25_topk_stemmed(sf_dir: str):
    """§2.11 extension surface — the ANALYZER `stemmer` filter wired
    end-to-end: the index is built with ``stem="minimal_english"``
    (Lucene's EnglishMinimalStemFilter, the Harman S-stemmer — tokens
    rewrite but never drop, so dl/avgdl are unchanged while tf/df
    merge inflected forms), and the PLURALIZED query ("errors merges
    sparks windows") is stemmed through the same rule at search time —
    ranks equal the oracle's stemmed-token BM25 exactly. Index-side
    stemming is one vectorized 2-regex pass per batch
    (analysis/tokenizer.py::stem_tokens_arrow)."""
    import hashlib

    from ..config import IndexConfig
    from ..index.build import build_index
    from ..query.shards import SearchEngine

    key = ("stemmed", sf_dir)
    if key in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[key]
    else:
        corpus = _read(sf_dir, "documents",
                       columns=["doc_id", "lang", "text"]) \
            .map_batches(_corpusify_docs, batch_format="pyarrow")
        tag = "documents-stem#v1:" + sf_dir.rstrip("/")
        idx_dir = os.path.join(
            _idx_root(),
            hashlib.sha256(tag.encode()).hexdigest()[:16])
        cfg = IndexConfig(num_partitions=8, salt_buckets=4,
                          stem="minimal_english")
        build_index(corpus, idx_dir, cfg, corpus_tag=tag)
        eng = SearchEngine(idx_dir)
        _ENGINE_CACHE[key] = eng
    res = eng.search("errors merges sparks windows", k=10,
                     with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_ilm_search(sf_dir: str):
    """ES ILM analog end-to-end (index/ilm.py): three rollover
    generations from sorted-key chunks; policy = {warm: shrink sealed
    non-head generations by factor 2, delete: keep last 2} — so
    gen-0000 is deleted, gen-0001 is warm-shrunk (rank identity under
    shrink is pinned by the shrink tests), the head stays hot. The
    alias search then equals BM25 over the retained corpus tail (docs
    with doc_id >= ceil(n/3), the deleted head) — an exact oracle.
    Retained-union ids shift down by the deleted head's size; the
    entry maps them back (deterministic from the policy)."""
    import hashlib
    import shutil

    from ..config import IndexConfig
    from ..index.ilm import IlmPolicy, apply_policy
    from ..index.rollover import RolloverIndex

    key = ("ilm", sf_dir)
    c = (_docs_count(sf_dir) + 2) // 3  # the oracle's (count(*) + 2) // 3
    if key in _ENGINE_CACHE:
        roll = _ENGINE_CACHE[key]
    else:
        src = _read(sf_dir, "documents",
                    columns=["doc_id", "lang", "text"]) \
            .map_batches(_corpusify_docs, batch_format="pyarrow")
        tag = "documents-ilm#v1:" + sf_dir.rstrip("/")
        work = os.path.join(
            _idx_root(),
            hashlib.sha256(tag.encode()).hexdigest()[:16])
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        # dataset-native chunking, as in q_rollover_search (footer
        # count + keys-only boundaries + one-pass partitioned write;
        # corpus never pinned)
        b = _corpus_boundary_keys(sf_dir, [c, 2 * c])
        chunks = _write_key_chunks(src, b, work, ["0", "1", "2"])
        roll = RolloverIndex(os.path.join(work, "alias"),
                             IndexConfig(num_partitions=8,
                                         salt_buckets=4),
                             max_docs=c, alias="docs")
        for i, p in enumerate(chunks):
            roll.ingest(p, tag=f"{tag}-{i}")
        assert len(roll.meta["generations"]) == 3, roll.meta
        acts = apply_policy(roll, IlmPolicy(
            warm_after_generations=1, warm_shrink_factor=2,
            delete_keep_last=2))
        assert acts["delete"] == ["gen-0000"], acts
        assert acts["warm"] == ["gen-0001-warm"], acts
        _ENGINE_CACHE[key] = roll
    res = roll.search(BM25_QUERY_TEXT, k=10)
    ids = pc.add(pc.cast(res["doc_id"], pa.int64()),
                 pa.scalar(c, pa.int64()))
    return pa.table({"doc_id": ids,
                     "score": _round6(res["score"])})


def q_federated_search_wand(sf_dir: str):
    """Federated search under FORCED block-max WAND: one vectorized
    kernel over every member's cursors in the global id space — the
    kernel's adaptive threshold is the cross-member global threshold
    exchange, no sum-of-members-sized accumulator (query/federated.py
    _search_wand). Bit-identical to the merged index, so it shares
    bm25_topk's SQL oracle."""
    res = _fed_engine(sf_dir).search(BM25_QUERY_TEXT, k=10,
                                     strategy="wand")
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_rank_eval(sf_dir: str):
    """ES _rank_eval analog: precision@10 inputs and the first-relevant
    rank (reciprocal-rank numerator) for the standard query, with
    relevance = docs containing ALL four query terms (a judgment set
    both sides can compute). Integer outputs only — the ES metrics
    (P@k = n_rel_top10/10, MRR = 1/first_rel_rank) follow directly."""
    eng = _docs_engine(sf_dir)
    top = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    # judgment set as a packed sorted id array (conjunction_ids) —
    # nothing row-formatted even when the relevant set is corpus-sized
    rel = eng.conjunction_ids(BM25_QUERY_TEXT)
    ids = top["doc_id"].to_numpy(zero_copy_only=False)
    member = np.isin(ids, rel, assume_unique=False)
    first = int(np.flatnonzero(member)[0]) + 1 if member.any() else 0
    return pa.table({
        "n_rel": pa.array([int(rel.size)], pa.int64()),
        "n_rel_top10": pa.array([int(member.sum())], pa.int64()),
        "first_rel_rank": pa.array([first], pa.int64())})


def q_collapse_by_lang(sf_dir: str):
    """ES field collapsing: top hits with at most one (best) doc per
    lang — per-value argmax over the score accumulator restricted to
    the lang field posting ids (query/shards.py::collapse_search)."""
    eng = _docs_engine(sf_dir)
    res = eng.collapse_search(BM25_QUERY_TEXT, field="lang", k=10)
    return pa.table({"doc_id": res["doc_id"], "lang": res["lang"],
                     "score": _round6(res["score"])})


def q_collapse_inner_hits(sf_dir: str):
    """ES field collapsing with ``inner_hits``: the top-5 langs by
    their best hit, each exposing its top-2 docs (group-best ordering,
    per-group hit_rank) — the grouped-results shape
    (query/shards.py::collapse_inner_hits)."""
    eng = _docs_engine(sf_dir)
    res = eng.collapse_inner_hits(BM25_QUERY_TEXT, field="lang", k=5,
                                  inner_size=2)
    return pa.table({"lang": res["lang"], "hit_rank": res["hit_rank"],
                     "doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_bm25_topk_terms_filter(sf_dir: str):
    """ES terms query as a filter: docs whose lang is ANY of {en, de}
    (a union of the field posting lists, then the standard intersect)
    — the multi-value form of bm25_topk_filtered."""
    eng = _docs_engine(sf_dir)
    res = eng.search(BM25_QUERY_TEXT, k=10,
                     filters={"lang": ["en", "de"]}, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_scripted_metric(sf_dir: str):
    """ES ``scripted_metric`` aggregation — the canonical init/map/
    combine/reduce "profit" example from the ES docs: map scores each
    event into a tiny state vector (revenue cents for purchases, cost
    cents for errors, row count), combine sums states INSIDE each
    map_batches task, reduce sums the per-task partials on the driver —
    only 3-integer states ever leave a task, the generic harness any
    custom metric plugs into. Integer cents (floor(value*100)) make the
    sums exact and addition-order-free, so the result is bit-identical
    to the SQL oracle regardless of partitioning."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def map_combine(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        cents = np.floor(t["value"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        return pa.table({
            "revenue_cents": pa.array(
                [int(cents[et == "purchase"].sum())], pa.int64()),
            "cost_cents": pa.array(
                [int(cents[et == "error"].sum())], pa.int64()),
            "n_events": pa.array([t.num_rows], pa.int64())})

    parts = ds.map_batches(map_combine, batch_format="pyarrow").to_pandas()
    rev = int(parts["revenue_cents"].sum())
    cost = int(parts["cost_cents"].sum())
    return pa.table({
        "revenue_cents": pa.array([rev], pa.int64()),
        "cost_cents": pa.array([cost], pa.int64()),
        "profit_cents": pa.array([rev - cost], pa.int64()),
        "n_events": pa.array([int(parts["n_events"].sum())], pa.int64())})


def q_terms_lookup(sf_dir: str):
    """ES terms-lookup query: the terms filter's value list is FETCHED
    from the data (ES reads it from another document's field) rather
    than given literally — here the set of langs present in the
    corpus's largest source (most docs, tie source asc). The lookup is
    one keys-only ``groupby(source, lang).count()`` — bounded by
    distinct key pairs, never rows — and only the value list (a few
    strings) reaches the query, which then runs the standard
    field-posting-union terms filter."""
    from ray.data.aggregate import Count

    pdf = (_read(sf_dir, "documents", columns=["source", "lang"])
           .groupby(["source", "lang"])
           .aggregate(Count(alias_name="n"))
           .to_pandas())
    per_src = pdf.groupby("source", as_index=False)["n"].sum() \
        .sort_values(["n", "source"], ascending=[False, True])
    top_src = per_src.iloc[0]["source"]
    langs = sorted(pdf.loc[pdf["source"] == top_src, "lang"].unique())
    eng = _docs_engine(sf_dir)
    res = eng.search(BM25_QUERY_TEXT, k=10, filters={"lang": langs},
                     with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


PHRASE_QUERY_TEXT = "sort merge"


def q_phrase_match(sf_dir: str):
    """ES match_phrase analog over the positional sidecar: all docs
    containing the consecutive token sequence, with overlapping
    occurrence counts (query/phrase.py). Exact SQL oracle via a token-
    position comprehension."""
    eng = _docs_engine(sf_dir)
    return eng.phrase_match(PHRASE_QUERY_TEXT)


def q_phrase_topk(sf_dir: str):
    """match_phrase + BM25 scoring: top-10 of the phrase's terms among
    docs containing the exact phrase."""
    eng = _docs_engine(sf_dir)
    res = eng.phrase_topk(PHRASE_QUERY_TEXT, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_phrase_prefix(sf_dir: str):
    """ES match_phrase_prefix: 'merge s' — leading token exact, last
    token expanded as a prefix against the shard dictionaries; a
    position matches when any expansion follows 'merge'."""
    eng = _docs_engine(sf_dir)
    return eng.phrase_prefix_match("merge s")


def q_index_stats(sf_dir: str):
    """ES _stats analog: doc/term/posting/token counts served from index
    metadata (no corpus scan); the oracle recounts from raw text."""
    eng = _docs_engine(sf_dir)
    return eng.index_stats()


def _del_engine(sf_dir: str):
    """The engine over a clone of the documents index with the top-3
    docs of the standard query tombstoned (built on a miss)."""
    import shutil

    from ..index.delete import delete_docs
    from ..query.shards import SearchEngine

    if ("del", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("del", sf_dir)]
    else:
        base = _docs_engine(sf_dir)
        top3 = base.search(BM25_QUERY_TEXT, k=3,
                           with_meta=False)["doc_id"].to_pylist()
        clone = base.index_dir + "-del"
        shutil.rmtree(clone, ignore_errors=True)
        shutil.copytree(base.index_dir, clone)
        delete_docs(clone, top3)
        eng = SearchEngine(clone)
        _ENGINE_CACHE[("del", sf_dir)] = eng
    return eng


def q_bm25_topk_deleted(sf_dir: str):
    """ES delete-API analog: tombstone the top-3 docs of the standard
    query, then re-query — deleted docs vanish, surviving scores are
    unchanged (stats stay pre-delete until rebuild, the Lucene
    contract). Runs on a cloned index dir so the shared engine cache
    stays pristine."""
    eng = _del_engine(sf_dir)
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_bm25_topk_rebuilt(sf_dir: str):
    """ES force-merge analog: compact the tombstoned clone into a fresh
    index — deleted docs are gone AND collection stats (N, df, avgdl)
    are recomputed, so scores change exactly as a segment merge changes
    them. Internal doc ids re-rank densely; results map back to source
    ids through the repo key (the external document identity)."""
    from ..index.delete import compact_index
    from ..query.shards import SearchEngine

    if ("compact", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("compact", sf_dir)]
    else:
        src = _del_engine(sf_dir).index_dir  # the tombstoned clone
        dst = src + "-compact"
        from ..config import IndexConfig

        compact_index(src, dst,
                      IndexConfig(num_partitions=8, salt_buckets=4,
                                  store_positions=True),
                      corpus_tag="compact:" + sf_dir.rstrip("/"))
        eng = SearchEngine(dst)
        _ENGINE_CACHE[("compact", sf_dir)] = eng
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=True)
    orig = pa.array([int(r[1:]) for r in res["repo"].to_pylist()],
                    pa.int64())
    return pa.table({"doc_id": orig, "score": _round6(res["score"])})


def q_regex_df(sf_dir: str):
    """ES regexp query expansion: content terms fully matching the
    pattern with their dfs (RE2 both sides)."""
    eng = _docs_engine(sf_dir)
    return eng.expand_regex("s[a-z]*a[a-z]*")


def q_fuzzy_search(sf_dir: str):
    """ES fuzzy query: top-10 BM25 over terms within 2 edits of 'sort'
    (Levenshtein dictionary scan + exact TAAT disjunction)."""
    eng = _docs_engine(sf_dir)
    res = eng.fuzzy_search("sort", max_edits=2, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_highlight_topk(sf_dir: str):
    """ES highlight analog: 96-char snippets around the first raw-text
    'merge' for the bm25_topk result docs."""
    eng = _docs_engine(sf_dir)
    top = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return eng.highlight(top["doc_id"].to_pylist(), "merge")


def q_term_vectors(sf_dir: str):
    """ES termvectors analog: (term, tf) of doc 0, term-asc."""
    eng = _docs_engine(sf_dir)
    return eng.term_vectors(0)


def q_multifield_search(sf_dir: str):
    """ES multi_match analog: content BM25 + 2x boosted path-field BM25
    (the path field is indexed scored, with its own avgdl). The path
    query '42 md' makes filename tokens discriminate: doc 42's path
    contributes a rare-term score on top of its content score."""
    eng = _docs_engine(sf_dir)
    res = eng.search_fields(content_query=BM25_QUERY_TEXT,
                            path_query="42 md", path_boost=2.0, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_match_count(sf_dir: str):
    """ES _count analog: docs containing any query term (posting-id
    union, no scoring)."""
    eng = _docs_engine(sf_dir)
    n = eng.match_count(BM25_QUERY_TEXT)
    return pa.table({"n_matches": pa.array([n], pa.int64())})


def q_bm25_page2(sf_dir: str):
    """ES search_after pagination: page 2 (results 11-20) using page 1's
    last (score, doc_id) as the cursor — must equal OFFSET 10 in SQL."""
    eng = _docs_engine(sf_dir)
    page1 = eng.search_after(BM25_QUERY_TEXT, k=10)
    if page1.num_rows < 10:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    cursor = (page1["score"][9].as_py(), page1["doc_id"][9].as_py())
    res = eng.search_after(BM25_QUERY_TEXT, k=10, after=cursor)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_more_like_this(sf_dir: str):
    """ES more_like_this: top tf*idf terms of doc 0 as a query, top-10
    excluding the source doc."""
    eng = _docs_engine(sf_dir)
    res = eng.more_like_this(0, max_terms=5, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_span_near(sf_dir: str):
    """ES span_near (unordered) analog: docs where 'sort' and 'merge'
    occur within 3 tokens, with qualifying occurrence-pair counts."""
    eng = _docs_engine(sf_dir)
    return eng.proximity_match("sort", "merge", window=3)


def q_phrase_suggest(sf_dir: str):
    """ES phrase suggester: correct the two-word typo 'sor mrge' —
    fuzzy per-slot candidates (df-ranked, Levenshtein <= 1) scored by
    their total adjacent-occurrence count from the positions sidecar;
    zero-support pairs pruned; top 3."""
    eng = _docs_engine(sf_dir)
    return eng.phrase_suggest("sor mrge", max_edits=1, per_slot=5, k=3)


def q_terms_enum(sf_dir: str):
    """ES ``_terms_enum`` API: lexicographically-ascending values of
    the ``lang`` keyword field with their doc counts, served entirely
    from the term dictionary (no document reads)."""
    eng = _docs_engine(sf_dir)
    out = eng.terms_enum("lang", prefix="", size=20)
    return pa.table({"value": out["value"],
                     "df": pc.cast(out["df"], pa.int64())})


def q_span_containing(sf_dir: str):
    """ES ``span_containing``: big = minimal ordered span 'sort ...
    merge' within 6 positions; count big spans that enclose an 'agg'
    occurrence. Per-doc qualifying span counts."""
    eng = _docs_engine(sf_dir)
    return eng.span_containing_match("sort", "merge", "agg", max_dist=6)


def q_span_within(sf_dir: str):
    """ES ``span_within``: count 'agg' occurrences enclosed by a
    minimal ordered 'sort ... merge' span within 6 positions."""
    eng = _docs_engine(sf_dir)
    return eng.span_within_match("sort", "merge", "agg", max_dist=6)


def q_phrase_slop(sf_dir: str):
    """ES ``match_phrase`` with ``slop: 2`` for the two-term phrase
    'sort merge': Lucene sloppy distance |j - i - 1| <= slop, so the
    reversed adjacent "merge sort" (cost 2) matches too — the classic
    slop example. Pair counts per doc."""
    eng = _docs_engine(sf_dir)
    return eng.phrase_slop_match("sort", "merge", slop=2)


def q_rescore_topk(sf_dir: str):
    """ES ``rescore`` analog: the top-50 BM25 window for the standard
    query reranked by a phrase rescore query ('sort merge', 0.5 per
    exact occurrence, score_mode total) — only the window's ids are
    phrase-verified (the positional planner takes them as restrict_ids
    and never scans ranges)."""
    eng = _docs_engine(sf_dir)
    res = eng.rescore_search(BM25_QUERY_TEXT, "sort merge", k=10,
                             window=50, weight=0.5)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_wildcard_search(sf_dir: str):
    """ES wildcard query analog: infix pattern ``*er*`` expanded
    against the shard dictionaries (anchored-RE2 metadata scan — a
    pattern a prefix index can't serve), then exact TAAT BM25 over the
    expanded term set."""
    eng = _docs_engine(sf_dir)
    res = eng.wildcard_search("*er*", k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_intervals_ordered(sf_dir: str):
    """ES intervals query analog (``match`` with ``ordered: true,
    max_gaps: 2``): docs where 'merge' is followed by 'sort' with at
    most 2 tokens between, counting qualifying ordered occurrence
    pairs from the positions sidecar."""
    eng = _docs_engine(sf_dir)
    return eng.intervals_match("merge", "sort", max_gaps=2)


def q_suggest(sf_dir: str):
    """ES completion-suggester analog: top-4 completions of the prefix
    by (df desc, term asc) from the shard dictionaries."""
    eng = _docs_engine(sf_dir)
    exp = eng.expand_prefix("s", max_expansions=4)
    return exp.sort_by([("df", "descending"), ("term", "ascending")])


def q_spell_suggest(sf_dir: str):
    """ES term-suggester ("did you mean") analog: corrections of the
    typo 'mrge' within 2 edits, ranked (df desc, term asc), top 3."""
    eng = _docs_engine(sf_dir)
    exp = eng.expand_fuzzy("mrge", max_edits=2, max_expansions=3)
    return exp.sort_by([("df", "descending"), ("term", "ascending")])


def q_fuzzy_suggest_dl(sf_dir: str):
    """ES fuzziness with ``transpositions: true`` (the ES DEFAULT —
    Damerau–Levenshtein): corrections of 'mrege' within ONE edit.
    Plain Levenshtein needs 2 edits to reach 'merge'; the transposed
    adjacent pair counts as one here (query/shards.py::_damerau_leq,
    Lowrance–Wagner matrix ≡ DuckDB damerau_levenshtein)."""
    eng = _docs_engine(sf_dir)
    exp = eng.expand_fuzzy("mrege", max_edits=1, max_expansions=3,
                           transpositions=True)
    return exp.sort_by([("df", "descending"), ("term", "ascending")])


def q_boolean_search(sf_dir: str):
    """ES bool query: must-conjunction + must_not exclusion, scored by
    BM25 over must+should terms (query/shards.py boolean_search)."""
    eng = _docs_engine(sf_dir)
    res = eng.boolean_search(must="merge window", should="spark",
                             must_not="error", k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_min_should_match(sf_dir: str):
    """ES minimum_should_match: docs matching at least 2 of the 4 query
    terms, scored by the full BM25 sum — the match-count restriction is
    one np.unique-with-counts over the concatenated posting id lists."""
    eng = _docs_engine(sf_dir)
    res = eng.boolean_search(should=BM25_QUERY_TEXT, k=10,
                             min_should_match=2)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


ANALYZE_TEXT = "GetUserById error_count FooBar2000 https://x.io/a?q=1"


def q_analyze_tokens(sf_dir: str):
    """ES _analyze API analog: the code-aware analyzer chain applied to
    a fixed string, returning (position, token) — the tokenizer contract
    itself (camelCase/snake_case splits, lowercasing, URL shredding) as
    a queryable surface with an exact SQL oracle."""
    from ..analysis.tokenizer import tokenize_py

    toks = tokenize_py(ANALYZE_TEXT)
    return pa.table({
        "position": pa.array(np.arange(len(toks), dtype=np.int64)),
        "token": pa.array(toks, pa.string())})


QUERY_STRING_QUERY = 'lang:en +merge -error "sort merge" spark window'


def q_query_string(sf_dir: str):
    """ES query_string mini-language: keyword-field filter + must term +
    must_not exclusion + must phrase (positional verify) + scoring
    should terms, parsed and composed by the engine
    (query/shards.py::query_string)."""
    eng = _docs_engine(sf_dir)
    res = eng.query_string(QUERY_STRING_QUERY, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


SQS_QUERY = '(merge | "sort merge") + windo* + -join spark |'


def q_simple_query_string(sf_dir: str):
    """ES simple_query_string — the lenient end-user syntax (never
    raises on malformed input; the trailing dangling ``|`` here parses
    away). Operators: ``|`` OR, ``+`` AND, ``-`` NOT, phrase, trailing
    ``*`` prefix, parens; adjacency = default_operator (or). Parsed to
    the same AST KQL evaluates (query/sqs.py -> query/kql.py id-set
    algebra), ranked by BM25 over the positive text terms. Candidates:
    ((merge OR "sort merge") AND windo* AND NOT join) OR spark."""
    eng = _docs_engine(sf_dir)
    res = eng.simple_query_string(SQS_QUERY, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


KQL_QUERY = 'lang:en and (merge or "sort merge") and not error'


def q_kql_search(sf_dir: str):
    """KQL — the Kibana search-bar language the reference's dashboards
    actually speak (SURVEY §1.2): boolean id-set algebra over keyword
    postings / term unions / positional phrase verify, ranked by BM25
    over the positive text terms (query/kql.py). Exact SQL oracle:
    the same candidate predicate + the shared BM25 CTE."""
    eng = _docs_engine(sf_dir)
    res = eng.kql_search(KQL_QUERY, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_function_score(sf_dir: str):
    """ES function_score (filter+weight functions): BM25 multiplied by
    per-lang weights (en 1.5x, de 1.25x) BEFORE top-k selection — the
    weights re-rank. Applied as vectorized multiplies over the lang
    field posting lists."""
    eng = _docs_engine(sf_dir)
    res = eng.function_score_search(
        BM25_QUERY_TEXT, weights={"lang": {"en": 1.5, "de": 1.25}}, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_boosting_query(sf_dir: str):
    """ES ``boosting`` query: BM25 for the standard query text with docs
    matching the negative query ('failure') demoted by 0.5 BEFORE top-k
    — demotion re-ranks but never excludes (contrast must_not). The 0.5
    multiplier is a power of two, so engine and oracle products are
    bit-identical."""
    eng = _docs_engine(sf_dir)
    res = eng.boosting_search(BM25_QUERY_TEXT, negative="failure",
                              negative_boost=0.5, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


PINNED_IDS = [7, 3, 11]


def q_pinned_query(sf_dir: str):
    """ES ``pinned`` query: ids [7, 3, 11] rank first in given order
    (decreasing sentinel scores 1e6 - position, the ES shape), organic
    BM25 fills the rest excluding them."""
    eng = _docs_engine(sf_dir)
    res = eng.pinned_search(PINNED_IDS, BM25_QUERY_TEXT, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_distance_feature(sf_dir: str):
    """ES ``distance_feature`` query: BM25 plus the proximity boost
    ``weight * pivot / (pivot + |doc_value - origin|)`` on a numeric doc
    value — the doc id, which is this engine's recency rank (sorted-key
    ids, deltas append after the base). Shared-op-tree float math."""
    eng = _docs_engine(sf_dir)
    res = eng.distance_feature_search(BM25_QUERY_TEXT, origin=0,
                                      pivot=1000.0, weight=1.0, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_rank_feature(sf_dir: str):
    """ES ``rank_feature`` query (saturation function): BM25 plus
    ``weight * dl / (dl + pivot)`` where the feature is the document's
    token count — decoded shard-side from the postings, no doc-store
    read. Longer documents get a bounded relevance nudge."""
    eng = _docs_engine(sf_dir)
    res = eng.rank_feature_search(BM25_QUERY_TEXT, pivot=50.0,
                                  weight=0.7, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_combined_fields(sf_dir: str):
    """ES ``combined_fields`` query (BM25F-style): content + path
    scored as ONE pseudo-field — term freqs and doc lengths summed
    with the path boost, df over either-field matches, one BM25 pass
    over the combined stats. Doc lengths come from the norms sidecar
    (written with each docs/ file by the build's and every update's
    finalize task when index_path_field is on), so a doc matched only
    in one field still gets its full combined length."""
    eng = _docs_engine(sf_dir)
    res = eng.combined_fields_search("merge doc 42 md", path_boost=2.0,
                                     k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_async_search(sf_dir: str):
    """ES ``_async_search`` lifecycle: submit returns an id
    immediately, status polls without blocking, get joins — and the
    final response is bit-identical to the synchronous search, so this
    entry shares bm25_topk's SQL oracle (query/async_search.py)."""
    import time

    from ..query.async_search import AsyncSearchManager

    eng = _docs_engine(sf_dir)
    mgr = AsyncSearchManager(eng)
    sid = mgr.submit(BM25_QUERY_TEXT, k=10, with_meta=False)
    assert mgr.status(sid)["id"] == sid  # non-blocking while running
    deadline = time.monotonic() + 120.0
    while mgr.status(sid)["is_running"]:
        if time.monotonic() > deadline:
            raise TimeoutError("async search did not complete")
        time.sleep(0.02)
    res = mgr.get(sid)
    mgr.delete(sid)
    mgr.shutdown()
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_text_expansion(sf_dir: str):
    """ES ``text_expansion`` / ``sparse_vector`` query (the ELSER
    serving shape): the query is a sparse term→weight map and document
    weights derive from the index itself — (1 + ln(tf)) * ln(1 + n/df)
    — so the score is a sparse dot product computed entirely from
    postings (shard-side raw-tf decode, no doc store)."""
    eng = _docs_engine(sf_dir)
    res = eng.sparse_vector_search(
        {"authentication": 2.0, "error": 1.5, "merge": 1.0,
         "window": 0.5}, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_constant_score(sf_dir: str):
    """ES ``constant_score``: every doc in the filter context (contains
    'merge' AND lang:en) scores exactly 1.0 — pure posting-set algebra,
    no scoring decode; ties break doc_id asc."""
    eng = _docs_engine(sf_dir)
    res = eng.constant_score_search("merge", filters={"lang": "en"},
                                    k=10)
    return pa.table({"doc_id": res["doc_id"], "score": res["score"]})


def q_dis_max(sf_dir: str):
    """ES dis_max across content and path fields: best field dominates,
    the other enters through the tie breaker (0.5) — contrast with
    multifield_search's plain boosted sum on the same two queries."""
    eng = _docs_engine(sf_dir)
    res = eng.dis_max_search(content_query=BM25_QUERY_TEXT,
                             path_query="42 md", path_boost=2.0,
                             tie_breaker=0.5, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_search_sorted(sf_dir: str):
    """ES sort-by-keyword-field: first 10 docs matching any query term
    ordered by (lang asc, doc_id asc), computed from posting
    intersections alone."""
    eng = _docs_engine(sf_dir)
    return eng.search_sorted_by_field(BM25_QUERY_TEXT, field="lang",
                                     k=10)


def q_search_facets(sf_dir: str):
    """ES aggregation on query results: per-lang count of docs matching
    any query term, computed purely from posting-list intersections (no
    document metadata read)."""
    eng = _docs_engine(sf_dir)
    return eng.search_facets(BM25_QUERY_TEXT, field="lang")


PREFIX_QUERY = "s"


def q_prefix_df(sf_dir: str):
    """ES prefix-query term expansion: every content term starting with
    the prefix with its document frequency — a parallel dictionary scan
    across the index shards (query/shards.py IndexShard.scan_terms)."""
    eng = _docs_engine(sf_dir)
    return eng.expand_prefix(PREFIX_QUERY)


def q_prefix_search(sf_dir: str):
    """Top-10 BM25 over all terms matching the prefix (ES wildcard query
    with scoring; the expansion set is the disjunction's term list)."""
    eng = _docs_engine(sf_dir)
    res = eng.prefix_search(PREFIX_QUERY, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_explain_score(sf_dir: str):
    """ES _explain analog: per-term BM25 contribution breakdown for the
    standard query's top-1 doc — the contributions sum bit-exactly to
    its search score (query/shards.py::explain)."""
    eng = _docs_engine(sf_dir)
    top1 = eng.search(BM25_QUERY_TEXT, k=1, with_meta=False)
    if top1.num_rows == 0:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64()),
                         "contribution": pa.array([], pa.float64())})
    exp = eng.explain(BM25_QUERY_TEXT, top1["doc_id"][0].as_py())
    return pa.table({"term": exp["term"], "df": exp["df"],
                     "contribution": _round6(exp["contribution"])})


def q_shrink_search(sf_dir: str):
    """ES ``_shrink`` analog: halve the term-partition count (8→4) by
    concatenating segment parts — valid because routing is
    blake2b(term) % P and P' divides P, the same invariant ES shard
    shrink relies on (index/shrink.py; one Ray task per new partition,
    postings never decoded) — then re-run the standard query on the
    shrunk index: ranks bit-identical, so this shares bm25_topk's
    oracle."""
    from ..index.shrink import shrink_index
    from ..query.shards import SearchEngine

    if ("shrink", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("shrink", sf_dir)]
    else:
        base = _docs_engine(sf_dir)
        dst = base.index_dir + "-shrink"
        shrink_index(base.index_dir, dst, factor=2)
        eng = SearchEngine(dst)
        _ENGINE_CACHE[("shrink", sf_dir)] = eng
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


INGEST_SPEC = [
    {"uppercase": {"field": "event_type"}},
    {"gsub": {"field": "event_type", "pattern": "^ERR",
              "replacement": "E_"}},
    {"date": {"field": "ts", "target_field": "day",
              "format": "%Y-%m-%d"}},
    {"rename": {"field": "value", "target_field": "amount"}},
    {"math": {"field": "amount", "target_field": "amount2",
              "op": "mul", "operand": 2.0}},
    {"set": {"field": "pipeline", "value": "v1"}},
    {"concat": {"fields": ["event_type", "day"],
                "target_field": "key", "separator": "|"}},
    {"remove": {"field": "ts"}},
    {"convert": {"field": "user_id", "type": "string"}},
]


def q_ingest_pipeline(sf_dir: str):
    """ES ingest-pipeline analog (stages/ingest.py): a 9-processor
    declarative chain (uppercase, gsub, date, rename, math, set,
    concat, remove, convert) compiled ONCE into pyarrow kernels and
    applied as one ``map_batches`` pass — the reference's parse/stamp/
    rename enrichment path as ES factors it. Exact SQL oracle mirrors
    every processor; amount2 = value*2.0 is a power-of-two product so
    the doubles hash bit-identically unrounded."""
    from ..stages.ingest import compile_pipeline

    run = compile_pipeline(INGEST_SPEC)
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type",
                        "value"])
    return ds.map_batches(run, batch_format="pyarrow").sort("event_id")


def q_field_caps(sf_dir: str):
    """ES ``_field_caps``: per-field type + distinct-value count +
    total postings, served ENTIRELY from the term dictionary (one
    parallel shard round, three rows per shard) — no document read.
    Exact oracle recounts the same stats from raw text/columns."""
    eng = _docs_engine(sf_dir)
    return eng.field_caps()


def q_ccr_follow(sf_dir: str):
    """ES cross-cluster-replication analog (index/ccr.py): build a
    LEADER on the first half of documents, bootstrap-sync a follower,
    append the second half on the leader via the incremental path, and
    CCR-sync again — the catch-up round ships only the delta files plus
    rewritten segment parts (the manifest-diff plan), never the whole
    index. The follower then serves the standard query; it must equal
    BM25 over the full corpus, so this shares the full-corpus oracle."""
    if ("ccr", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("ccr", sf_dir)]
    else:
        import hashlib
        import shutil

        import pyarrow.parquet as pq

        from ..config import IndexConfig
        from ..index.build import build_index
        from ..index.ccr import sync_follower
        from ..index.update import update_index
        from ..query.shards import SearchEngine

        src = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "lang", "text"])
        src = src.sort_by("doc_id")
        did = src["doc_id"].to_numpy(zero_copy_only=False)
        half = int(np.median(did))
        tag = "documents-ccr#v1:" + sf_dir.rstrip("/")
        work = os.path.join(
            _idx_root(),
            hashlib.sha256(tag.encode()).hexdigest()[:16])
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(f"{work}/base", exist_ok=True)
        os.makedirs(f"{work}/delta", exist_ok=True)
        mask = did < half
        pq.write_table(_corpusify_docs(src.filter(pa.array(mask))),
                       f"{work}/base/part-0.parquet")
        pq.write_table(_corpusify_docs(src.filter(pa.array(~mask))),
                       f"{work}/delta/part-0.parquet")
        cfg = IndexConfig(num_partitions=8, salt_buckets=4)
        build_index(f"{work}/base", f"{work}/leader", cfg,
                    corpus_tag=tag)
        boot = sync_follower(f"{work}/leader", f"{work}/follower")
        update_index(f"{work}/delta", f"{work}/leader", cfg,
                     delta_tag=tag)
        catchup = sync_follower(f"{work}/leader", f"{work}/follower")
        # the catch-up round must ship something (the delta exists) and
        # must not re-bootstrap docs shipped in round 1 (file counts:
        # bootstrap = full index; catch-up = delta files + rewritten
        # segment parts only — test_ccr.py pins the plan contents)
        assert catchup["copied"] > 0
        assert boot["copied"] > 0
        eng = SearchEngine(f"{work}/follower")
        _ENGINE_CACHE[("ccr", sf_dir)] = eng
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_split_search(sf_dir: str):
    """ES ``_split`` analog: double the term-partition count (8→16) —
    each source part fans out independently because a term in old part
    h%P lands in one of {s + k·P} (index/shrink.py::split_index; one
    task per source part, dictionary-row rerouting only, postings
    opaque) — then re-run the standard query: ranks bit-identical, so
    this shares bm25_topk's oracle."""
    from ..index.shrink import split_index
    from ..query.shards import SearchEngine

    if ("split", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("split", sf_dir)]
    else:
        base = _docs_engine(sf_dir)
        dst = base.index_dir + "-split"
        split_index(base.index_dir, dst, factor=2)
        eng = SearchEngine(dst)
        _ENGINE_CACHE[("split", sf_dir)] = eng
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_snapshot_restore(sf_dir: str):
    """ES snapshot/restore analog: copy the index directory, re-verify
    the restored segments against the manifest lineage (counts
    recomputed from the copied bytes — index/snapshot.py), reopen, and
    re-run the standard query: ranks identical to the live index, so
    this shares bm25_topk's oracle."""
    from ..index.snapshot import snapshot_index
    from ..query.shards import SearchEngine

    if ("snap", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("snap", sf_dir)]
    else:
        base = _docs_engine(sf_dir)
        dst = base.index_dir + "-snap"
        snapshot_index(base.index_dir, dst)
        eng = SearchEngine(dst)
        _ENGINE_CACHE[("snap", sf_dir)] = eng
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=False)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


# above this many matching ids, scroll_export switches from the
# broadcast-id plan to the scan plan (re-tokenize per block) — a hot
# query at 10^12 docs matches billions of ids, too large to broadcast
_SCROLL_IDS_MAX = 5_000_000


def scroll_export(eng, text: str, outdir: str,
                  plan: str | None = None,
                  slice_id: int | None = None, slices: int = 1):
    """ES scroll / reindex-with-query: every doc matching any query
    term is exported to partitioned parquet (one file per block — the
    resumable-sink shape). Two exact plans, auto-selected by match-set
    size:

    - ``ids``: the posting union (``match_ids``) is broadcast once via
      ``ray.put``; membership is one vectorized ``np.isin`` per docmap
      block. Best when the match set is small — only the id array
      crosses the cluster, the text column is never read.
    - ``scan``: each docs block re-tokenizes its own content and keeps
      rows containing any query term (the percolate masks) — nothing
      query-dependent is broadcast at all, so it holds at match sets
      the driver could never hold. Costs one full-content pass.

    ``slice_id``/``slices`` is the ES sliced-scroll contract: slice i
    of m exports exactly the docs with ``doc_id % m == i`` (disjoint
    and covering, so m independent workers can export in parallel and
    the union is the unsliced scroll — pinned in tests). The slice
    predicate composes with BOTH plans as one vectorized modulo mask.

    Both return the written Dataset re-read from ``outdir``."""
    import shutil

    import ray
    import ray.data as rd

    from ..analysis.tokenizer import (rows_with_any, tokenize_batch_arrow,
                                      tokenize_py)

    terms = sorted(set(tokenize_py(
        text, int(eng.stats["max_token_len"]))))
    if slice_id is not None and not (0 <= slice_id < slices):
        raise ValueError("slice_id must be in [0, slices)")

    def slice_mask(t: pa.Table, hit: np.ndarray) -> np.ndarray:
        if slice_id is None:
            return hit
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        return hit & (d % slices == slice_id)

    if plan is None:
        ids_probe = eng.match_ids(text)
        plan = "ids" if ids_probe.size <= _SCROLL_IDS_MAX else "scan"
    shutil.rmtree(outdir, ignore_errors=True)
    if plan == "ids":
        ref = ray.put(eng.match_ids(text))

        def keep(t: pa.Table) -> pa.Table:
            arr = ray.get(ref)
            d = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(slice_mask(t, np.isin(d, arr))))

        src = rd.read_parquet(os.path.join(eng.index_dir, "docmap"),
                              columns=["doc_id", "lang", "sha256"])
        src.map_batches(keep, batch_format="pyarrow") \
            .write_parquet(outdir)
    else:
        # delete tombstones are tiny (sorted id array) — broadcast them so
        # the scan plan honors deletes exactly like the ids plan, whose
        # match_ids already drops tombstoned docs (the size-based plan
        # switch must not change delete semantics)
        tomb_ref = ray.put(eng._tombstones)

        def keep_scan(t: pa.Table) -> pa.Table:
            row_idx, toks, _ = tokenize_batch_arrow(t["content"])
            hit = rows_with_any(row_idx, toks, terms, t.num_rows)
            tomb = ray.get(tomb_ref)
            if tomb.size:
                d = t["doc_id"].to_numpy(zero_copy_only=False)
                hit &= ~np.isin(d, tomb)
            return t.filter(pa.array(slice_mask(t, hit))) \
                .select(["doc_id", "lang", "sha256"])

        src = rd.read_parquet(
            os.path.join(eng.index_dir, "docs"),
            columns=["doc_id", "lang", "sha256", "content"])
        src.map_batches(keep_scan, batch_format="pyarrow") \
            .write_parquet(outdir)
    return rd.read_parquet(outdir).sort("doc_id")


def q_scroll_export(sf_dir: str):
    """ES scroll / reindex-with-query analog — see ``scroll_export``
    (the broadcast-id plan at this scale; the scan plan is forced and
    cross-checked equal in tests). The returned sha256 column proves
    content integrity through the export round-trip."""
    import hashlib

    eng = _docs_engine(sf_dir)
    outdir = os.path.join(
        "/tmp/lsai_scroll",
        hashlib.sha256(sf_dir.rstrip("/").encode()).hexdigest()[:12])
    return scroll_export(eng, BM25_QUERY_TEXT, outdir)


def q_remote_tail_lines(sf_dir: str):
    """Remote line source (sources/remote.py — the reference's SSH
    reader as a transport-injected Ray Datasource): documents render to
    a line-per-doc text file once (newlines flattened, deterministic),
    then the chunk-parallel datasource reads it back through the
    transport seam with small chunks (forcing line-boundary splits);
    lines return in byte-offset order == doc_id order, so the SQL
    oracle is a plain ordered projection."""
    import hashlib

    import pyarrow.dataset as pa_ds

    from ..sources import LocalFileTransport, read_remote_lines

    tbl = pa_ds.dataset(os.path.join(sf_dir, "documents.parquet")) \
        .to_table(columns=["doc_id", "text"],
                  filter=pc.field("doc_id") < 200).sort_by("doc_id")
    flat = pc.replace_substring_regex(tbl["text"], pattern="[\\r\\n]+",
                                      replacement=" ")
    path = os.path.join(
        "/tmp/lsai_remote",
        hashlib.sha256(sf_dir.rstrip("/").encode()).hexdigest()[:12]
        + ".txt")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(flat.to_pylist()) + "\n")
    ds = read_remote_lines(LocalFileTransport(), path, chunk_bytes=1 << 14)
    out = ds.to_pandas().sort_values("byte_offset")
    return pa.table({"line": pa.array(out["line"].tolist(), pa.string())})


def q_whole_file_read(sf_dir: str):
    """Whole-file read util (sources/remote.py ``read_whole_files`` —
    the reference's legacy ``read_file_content``, core/commons.py:964-989,
    as a per-file-ReadTask Ray datasource): the first 50 documents render
    one file each (text flattened to one line, zero-padded doc_id names so
    path order == doc_id order), then the datasource reads each file WHOLE
    through the transport seam. Returns (doc_id, size, content); the size
    column proves the transport read the full byte length."""
    import hashlib

    import pyarrow.dataset as pa_ds

    from ..sources import LocalFileTransport, read_whole_files

    tbl = pa_ds.dataset(os.path.join(sf_dir, "documents.parquet")) \
        .to_table(columns=["doc_id", "text"],
                  filter=pc.field("doc_id") < 50).sort_by("doc_id")
    flat = pc.replace_substring_regex(tbl["text"], pattern="[\\r\\n]+",
                                      replacement=" ")
    root = os.path.join(
        "/tmp/lsai_whole",
        hashlib.sha256(sf_dir.rstrip("/").encode()).hexdigest()[:12])
    os.makedirs(root, exist_ok=True)
    paths = []
    for did, txt in zip(tbl["doc_id"].to_pylist(), flat.to_pylist()):
        p = os.path.join(root, f"doc_{did:05d}.txt")
        with open(p, "w", encoding="utf-8") as f:
            f.write(txt)
        paths.append(p)
    ds = read_whole_files(LocalFileTransport(), paths)

    def finish(t: pa.Table) -> pa.Table:
        base = pc.replace_substring_regex(t["path"], r"^.*doc_(\d+)\.txt$",
                                          r"\1")
        return pa.table({
            "doc_id": pc.cast(base, pa.int64()),
            "size": t["size"],
            "content": t["content"]})

    out = ds.map_batches(finish, batch_format="pyarrow").to_pandas()
    return pa.Table.from_pandas(out.sort_values("doc_id"),
                                preserve_index=False)


def q_display_normalize(sf_dir: str):
    """Multiline display normalizer (functions/text.py ``add_display`` —
    reference utils/general.py:44-61): documents' text is first escaped
    to the reference's input shape (real newlines become the LITERAL
    two-char ``\\n``), then the vectorized normalizer strips, expands the
    escapes back to real newlines, and prefixes the ``{idx:2d}: `` line
    number (1-based doc_id). Exact SQL oracle via printf/replace."""
    from ..functions.text import add_display

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .filter(expr="doc_id < 500")

    def prep(t: pa.Table) -> pa.Table:
        esc = pc.replace_substring(t["text"], "\n", "\\n")
        idx = pc.add(pc.cast(t["doc_id"], pa.int64()), 1)
        out = pa.table({"doc_id": t["doc_id"], "text": esc, "idx": idx})
        out = add_display(out, "text", idx_col="idx")
        return out.select(["doc_id", "display"])

    out = ds.map_batches(prep, batch_format="pyarrow").to_pandas()
    return pa.Table.from_pandas(out.sort_values("doc_id"),
                                preserve_index=False)


def q_tfidf_top_terms(sf_dir: str):
    """Per-document tf-idf feature extraction (the classic training-data
    featurization step): top-5 terms by tf * ln(N/df) for the first 20
    docs. df comes from a DISTRIBUTED pass over the whole corpus with the
    target-term set broadcast via ray.put and applied inside map_batches,
    so the df groupby only ever sees rows for terms the targets contain —
    vocabulary never shuffles, nothing corpus-sized reaches the driver."""
    import ray
    import pyarrow.dataset as pa_ds
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()

    tgt = pa_ds.dataset(os.path.join(sf_dir, "documents.parquet")) \
        .to_table(columns=["doc_id", "text"],
                  filter=pc.field("doc_id") < 20)

    def tok_rows(t: pa.Table) -> pa.Table:
        text = pc.utf8_lower(t["text"])
        lists = pc.split_pattern_regex(text, pattern="[^a-z0-9]+")
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists) \
            .to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)[parent[keep]]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "term": pc.filter(flat, pa.array(keep))})

    tf = tok_rows(tgt).group_by(["doc_id", "term"]).aggregate(
        [([], "count_all")]).rename_columns(["doc_id", "term", "tf"])
    term_ref = ray.put(np.sort(np.asarray(
        pc.unique(tf["term"]).to_pylist(), dtype=object)))

    def partial_df(t: pa.Table) -> pa.Table:
        rows = tok_rows(t)
        terms = np.sort(np.asarray(ray.get(term_ref), dtype=object))
        vals = rows["term"].to_numpy(zero_copy_only=False)
        i = np.searchsorted(terms, vals)
        i[i >= terms.size] = 0
        rows = rows.filter(pa.array(terms[i] == vals))
        dd = rows.group_by(["doc_id", "term"]).aggregate([])
        out = dd.group_by("term").aggregate([([], "count_all")])
        return out.rename_columns(["term", "df_part"])

    df_t = pa.concat_tables(list(
        ds.map_batches(partial_df, batch_format="pyarrow")
        .groupby("term").aggregate(Sum("df_part", alias_name="df"))
        .iter_batches(batch_format="pyarrow", batch_size=1 << 20)))

    m = tf.to_pandas().merge(df_t.to_pandas(), on="term")
    raw = m["tf"].astype(float) * np.log(float(n_docs)
                                         / m["df"].astype(float))
    m["_raw"] = raw
    # output rounds to 6dp on both sides (the repo's transcendental
    # convention — libm ln differs from DuckDB's by 1 ulp; see the BM25
    # oracle) but the RANKING uses the unrounded value, like the SQL
    m["tfidf"] = np.round(raw, 6)
    m = m.sort_values(["doc_id", "_raw", "term"],
                      ascending=[True, False, True])
    m = m.groupby("doc_id", sort=True).head(5).reset_index(drop=True)
    return pa.Table.from_pandas(
        m[["doc_id", "term", "tf", "df", "tfidf"]], preserve_index=False)


def q_bpe_learn(sf_dir: str):
    """BPE merge learning (analysis/bpe.py — Sennrich et al. 2016, the
    tokenizer-training step of an LLM data pipeline): distributed word
    frequency counting (the corpus-sized work), merge loop over the
    Zipf-compressed type table. Rows-only driver check (iterative — not
    SQL-expressible); exactness vs a brute-force single-process
    reference is pinned in test_functions.py."""
    from ..analysis.bpe import learn_bpe

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return learn_bpe(ds, n_merges=20)


def q_duplicate_spans(sf_dir: str):
    """Substring-level dedup statistics (dedup/spans.py — Lee et al.
    2022's duplicated-span measure): per-document coverage of word
    3-grams that occur in >= 2 distinct documents. One gram shuffle
    decides duplication, per-doc interval union is numpy, the token-size
    lookup is a hash-partitioned join — nothing corpus-sized on the
    driver."""
    from ..dedup.spans import duplicate_span_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return duplicate_span_stats(ds, k=3)


def q_bigram_counts(sf_dir: str):
    """Corpus bigram frequencies — the counting step of bigram-LM /
    BPE-merge training: top-20 adjacent token pairs by total occurrence
    count. Pairs are built vectorized from the token arrays (the
    2-gram case of the jaccard shingle machinery, occurrence counts
    kept — not per-doc distinct), partially aggregated per batch so
    only (pair, count) rows cross the shuffle."""
    from ray.data.aggregate import Sum

    from ..dedup.jaccard import _shingle_rows

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def prep(t: pa.Table) -> pa.Table:
        sh = _shingle_rows(t, "text", "doc_id", 2, distinct=False)
        out = sh.group_by("sh").aggregate([("sh", "count")])
        return out.rename_columns(["pair", "n_part"])

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("pair").aggregate(Sum("n_part", alias_name="n")))
    return topk(out, 20, [("n", "descending"), ("pair", "ascending")])


def q_collocations_pmi(sf_dir: str):
    """Collocation extraction by pointwise mutual information — the
    classic corpus-linguistics / tokenizer-vocab-candidate signal:
    PMI(a,b) = ln(n·c(ab) / (c(a)·c(b))) over adjacent token pairs,
    min-count >= 5, top-10 by (pmi desc, pair asc). Two distributed
    counting passes (bigram + unigram; only (gram, count) rows cross
    the shuffle) and a corpus token total; min-count pruning bounds
    the survivor set BEFORE anything reaches the driver, and only the
    survivors' unigram rows are collected. PMI is evaluated per
    survivor with scalar libm over exact integer counts — a single
    division chain, identical to the oracle's ln, so neither side
    rounds. Scale note: min_count must scale with corpus size (a fixed
    absolute count stops pruning once every real bigram clears it);
    at target scale use a rate threshold (count >= alpha * n) and keep
    the PMI evaluation where the survivor rows live."""
    from ray.data.aggregate import Sum

    from ..dedup.jaccard import _shingle_rows

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def prep2(t: pa.Table) -> pa.Table:
        sh = _shingle_rows(t, "text", "doc_id", 2, distinct=False)
        out = sh.group_by("sh").aggregate([("sh", "count")])
        return out.rename_columns(["pair", "n_part"])

    def prep1(t: pa.Table) -> pa.Table:
        sh = _shingle_rows(t, "text", "doc_id", 1, distinct=False)
        out = sh.group_by("sh").aggregate([("sh", "count")])
        return out.rename_columns(["w", "n_part"])

    bg = (ds.map_batches(prep2, batch_format="pyarrow")
          .groupby("pair").aggregate(Sum("n_part", alias_name="cab")))
    surv = (bg.map_batches(
        lambda t: t.filter(pc.greater_equal(t["cab"], 5)),
        batch_format="pyarrow").to_pandas())
    terms = sorted({w for p in surv["pair"] for w in p.split(" ")})
    uni_rows = (ds.map_batches(prep1, batch_format="pyarrow")
                .groupby("w").aggregate(Sum("n_part", alias_name="c"))
                .map_batches(
                    lambda t: t.filter(
                        pc.is_in(t["w"], value_set=pa.array(
                            terms, pa.string()))),
                    batch_format="pyarrow").to_pandas())
    c_uni = dict(zip(uni_rows["w"], uni_rows["c"].astype("int64")))

    def tok_total(t: pa.Table) -> pa.Table:
        sh = _shingle_rows(t, "text", "doc_id", 1, distinct=False)
        return pa.table({"c": pa.array([sh.num_rows], pa.int64())})

    n = int(ds.map_batches(tok_total, batch_format="pyarrow").sum("c"))
    rows = []
    for p, cab in zip(surv["pair"], surv["cab"].astype("int64")):
        a, b = p.split(" ")
        pmi = math.log(float(n * int(cab))
                       / float(c_uni[a] * c_uni[b]))
        rows.append((p, int(cab), pmi))
    rows.sort(key=lambda r: (-r[2], r[0]))
    rows = rows[:10]
    return pa.table({
        "pair": pa.array([r[0] for r in rows], pa.string()),
        "n_pair": pa.array([r[1] for r in rows], pa.int64()),
        "pmi": pa.array([r[2] for r in rows], pa.float64())})


def _lookup_f64(col, key_arr: pa.Array, val_np: np.ndarray,
                default: float = 0.0) -> np.ndarray:
    """Vectorized count-table lookup: one Arrow ``index_in`` against
    the broadcast key array + one numpy gather — replaces the old
    per-batch ``to_pylist()`` + pandas ``.map`` (Python-object hot
    path) in the LM scorers. Missing keys → ``default``."""
    idx = pc.fill_null(pc.index_in(col, value_set=key_arr), -1) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    out = val_np[np.maximum(idx, 0)]
    return np.where(idx < 0, default, out)


def _w1_of_pairs(sh_col) -> pa.Array:
    """First token of each 'w1 w2' shingle, vectorized."""
    if isinstance(sh_col, pa.ChunkedArray):
        sh_col = sh_col.combine_chunks()
    return pc.list_element(pc.split_pattern(sh_col, " "), 0)


def _bigram_lm_refs(ds):
    """Train the add-1 bigram LM once (two distributed counting passes
    over the same vectorized shingle machinery as bigram_counts) and
    broadcast the count tables: returns ``(c1_ref, c2_ref, V)``. Shared
    by bigram_perplexity and perplexity_buckets; at target scale the
    broadcast becomes a hash-partitioned join on the pair key."""
    import ray
    from ray.data.aggregate import Sum

    from ..dedup.jaccard import _shingle_rows

    def uni(t: pa.Table) -> pa.Table:
        sh = _shingle_rows(t, "text", "doc_id", 1, distinct=False)
        out = sh.group_by("sh").aggregate([("sh", "count")])
        return out.rename_columns(["w", "n_part"])

    def bi(t: pa.Table) -> pa.Table:
        sh = _shingle_rows(t, "text", "doc_id", 2, distinct=False)
        out = sh.group_by("sh").aggregate([("sh", "count")])
        return out.rename_columns(["pair", "n_part"])

    c1 = (ds.map_batches(uni, batch_format="pyarrow")
          .groupby("w").aggregate(Sum("n_part", alias_name="c"))
          .to_pandas())
    c2 = (ds.map_batches(bi, batch_format="pyarrow")
          .groupby("pair").aggregate(Sum("n_part", alias_name="c"))
          .to_pandas())
    v = float(len(c1))
    c1_ref = ray.put((pa.array(c1["w"], pa.string()),
                      c1["c"].to_numpy(dtype="float64")))
    c2_ref = ray.put((pa.array(c2["pair"], pa.string()),
                      c2["c"].to_numpy(dtype="float64")))
    return c1_ref, c2_ref, v


def q_bigram_perplexity(sf_dir: str):
    """CCNet-style LM quality scoring: train an add-1-smoothed bigram
    language model on the corpus (one counting pass — the same
    vectorized shingle machinery as bigram_counts), broadcast the
    count tables once (``ray.put``; at target scale this becomes a
    hash-partitioned join on the pair key), then score every document's
    average negative log-likelihood ``-mean ln((c(w1,w2)+1) /
    (c(w1)+V))`` in a second vectorized pass. Returns the 15
    worst-scoring (most surprising) docs — the perplexity filter's
    reject list. Exact SQL oracle; ln/div parity, round6 absorbs
    summation order."""
    import ray

    from ..dedup.jaccard import _shingle_rows

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    c1_ref, c2_ref, v = _bigram_lm_refs(ds)

    def score(t: pa.Table) -> pa.Table:
        uni_k, uni_v = ray.get(c1_ref)
        bi_k, bi_v = ray.get(c2_ref)
        sh = _shingle_rows(t, "text", "doc_id", 2, distinct=False)
        if sh.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_pairs": pa.array([], pa.int64()),
                             "avg_nll": pa.array([], pa.float64())})
        cb = _lookup_f64(sh["sh"], bi_k, bi_v)
        cu = _lookup_f64(_w1_of_pairs(sh["sh"]), uni_k, uni_v)
        logp = np.log((cb + 1.0) / (cu + v))
        did = sh["doc_id"].to_numpy(zero_copy_only=False)
        docs, inv = np.unique(did, return_inverse=True)
        nll = np.zeros(docs.size, dtype=np.float64)
        np.add.at(nll, inv, -logp)
        n_pairs = np.bincount(inv).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(docs, pa.int64()),
            "n_pairs": pa.array(n_pairs, pa.int64()),
            "avg_nll": pa.array(nll / n_pairs, pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    df = topk(scored, 15, [("avg_nll", "descending"),
                           ("doc_id", "ascending")])
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        "n_pairs": pa.array(df["n_pairs"].to_numpy(), pa.int64()),
        "avg_nll": _round6(pa.array(df["avg_nll"].to_numpy(),
                                    pa.float64()))})


def q_char_entropy(sf_dir: str):
    """Character-entropy quality signal (low-entropy text = repeated
    filler / binary junk; a standard corpus-card column next to the
    Gopher signals): per document, Shannon entropy of the character
    distribution, computed FULLY vectorized from the Arrow string
    buffer — offsets give per-row byte runs, one np.unique over
    (row << 8 | byte) keys counts every (doc, char) cell in the batch,
    no per-row Python. Returns the 20 lowest-entropy docs."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def per_doc(t: pa.Table) -> pa.Table:
        col = t["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        offs = np.frombuffer(col.buffers()[1], dtype=np.int32,
                             count=len(col) + 1).astype(np.int64)
        offs = offs + 0  # copy off the arrow buffer
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8,
                             count=int(offs[-1]))
        lens = np.diff(offs)
        keep = lens > 0
        row_idx = np.repeat(np.arange(len(col), dtype=np.int64), lens)
        key = (row_idx << 8) | data[offs[0]:].astype(np.int64)
        cells, counts = np.unique(key, return_counts=True)
        cell_row = cells >> 8
        p = counts.astype(np.float64) / lens[cell_row].astype(np.float64)
        ent = np.zeros(len(col), dtype=np.float64)
        np.add.at(ent, cell_row, -(p * np.log(p)))
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "entropy": pa.array(ent[keep], pa.float64())})

    scored = ds.map_batches(per_doc, batch_format="pyarrow")
    df = topk(scored, 20, [("entropy", "ascending"),
                           ("doc_id", "ascending")])
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        "entropy": _round6(pa.array(df["entropy"].to_numpy(),
                                    pa.float64()))})


def q_moore_lewis(sf_dir: str):
    """Moore–Lewis cross-entropy data selection (Moore & Lewis 2010 —
    the classic targeted-corpus builder): score every document by
    ``H_in(d) − H_gen(d)``, the per-pair average NLL under an
    IN-DOMAIN bigram LM (here: lang == 'en' docs) minus under the
    GENERAL LM (all docs); the lowest scores are the docs that look
    most in-domain *relative to* the background. Same distributed
    machinery as bigram_perplexity — two vectorized counting passes,
    four count tables broadcast once via ray.put, one scoring pass —
    with add-1 smoothing handling pairs UNSEEN by the in-domain LM
    (count 0). Returns the 15 best (most in-domain) docs."""
    import ray
    from ray.data.aggregate import Sum

    from ..dedup.jaccard import _shingle_rows

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def counts(t: pa.Table, n: int, in_domain: bool) -> pa.Table:
        if in_domain:
            t = t.filter(pc.equal(t["lang"], "en"))
        sh = _shingle_rows(t, "text", "doc_id", n, distinct=False)
        out = sh.group_by("sh").aggregate([("sh", "count")])
        return out.rename_columns(["w", "n_part"])

    def table(n: int, in_domain: bool):
        from functools import partial

        return (ds.map_batches(partial(counts, n=n,
                                       in_domain=in_domain),
                               batch_format="pyarrow")
                .groupby("w").aggregate(Sum("n_part", alias_name="c"))
                .to_pandas())

    c1g, c2g = table(1, False), table(2, False)
    c1i, c2i = table(1, True), table(2, True)
    vg, vi = float(len(c1g)), float(len(c1i))
    refs = ray.put((
        (pa.array(c1g["w"], pa.string()),
         c1g["c"].to_numpy(dtype="float64")),
        (pa.array(c2g["w"], pa.string()),
         c2g["c"].to_numpy(dtype="float64")),
        (pa.array(c1i["w"], pa.string()),
         c1i["c"].to_numpy(dtype="float64")),
        (pa.array(c2i["w"], pa.string()),
         c2i["c"].to_numpy(dtype="float64"))))

    def score(t: pa.Table) -> pa.Table:
        u_g, b_g, u_i, b_i = ray.get(refs)
        sh = _shingle_rows(t, "text", "doc_id", 2, distinct=False)
        if sh.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_pairs": pa.array([], pa.int64()),
                             "ml_score": pa.array([], pa.float64())})
        w1 = _w1_of_pairs(sh["sh"])
        cbg = _lookup_f64(sh["sh"], *b_g)
        cug = _lookup_f64(w1, *u_g)
        cbi = _lookup_f64(sh["sh"], *b_i)
        cui = _lookup_f64(w1, *u_i)
        logp_g = np.log((cbg + 1.0) / (cug + vg))
        logp_i = np.log((cbi + 1.0) / (cui + vi))
        did = sh["doc_id"].to_numpy(zero_copy_only=False)
        docs, inv = np.unique(did, return_inverse=True)
        nll_g = np.zeros(docs.size, dtype=np.float64)
        nll_i = np.zeros(docs.size, dtype=np.float64)
        np.add.at(nll_g, inv, -logp_g)
        np.add.at(nll_i, inv, -logp_i)
        n_pairs = np.bincount(inv).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(docs, pa.int64()),
            "n_pairs": pa.array(n_pairs, pa.int64()),
            "ml_score": pa.array(nll_i / n_pairs - nll_g / n_pairs,
                                 pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    df = topk(scored, 15, [("ml_score", "ascending"),
                           ("doc_id", "ascending")])
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        "n_pairs": pa.array(df["n_pairs"].to_numpy(), pa.int64()),
        "ml_score": _round6(pa.array(df["ml_score"].to_numpy(),
                                     pa.float64()))})


_BENCH_DOC_MAX = 5  # docs 0..4 play the held-out benchmark set


def q_contamination_check(sf_dir: str):
    """Train/benchmark decontamination — the training-data hygiene op:
    flag corpus docs sharing any word-3-gram with a small held-out
    benchmark set (docs 0-4 stand in for it). The benchmark's distinct
    shingle set is read with predicate pushdown, shingled once, and
    broadcast via ``ray.put`` (the small side of the join — the GeoIP
    J1 shape); each batch shingles its own docs vectorized
    (dedup/jaccard.py machinery) and counts membership with one Arrow
    ``is_in`` — no shuffle, one corpus pass. Returns (doc_id,
    n_overlap, n_shingles) for contaminated docs."""
    import pyarrow.dataset as pa_ds
    import ray

    from ..dedup.jaccard import _shingle_rows

    bench_tbl = pa_ds.dataset(
        os.path.join(sf_dir, "documents.parquet"),
        format="parquet").to_table(
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < _BENCH_DOC_MAX)
    bench_sh = _shingle_rows(bench_tbl, "text", "doc_id", 3)["sh"]
    bench_set = pc.unique(bench_sh)
    ref = ray.put(bench_set)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def prep(t: pa.Table) -> pa.Table:
        bset = ray.get(ref)
        t = t.filter(pc.greater_equal(t["doc_id"], _BENCH_DOC_MAX))
        sh = _shingle_rows(t, "text", "doc_id", 3)
        hit = pc.is_in(sh["sh"], value_set=bset) \
            .to_numpy(zero_copy_only=False)
        ids = sh["doc_id"].to_numpy(zero_copy_only=False)
        uniq = np.unique(ids)
        pos = np.searchsorted(uniq, ids)
        total = np.bincount(pos, minlength=uniq.size)
        over = np.bincount(pos, weights=hit.astype(np.float64),
                           minlength=uniq.size).astype(np.int64)
        m = over >= 1
        return pa.table({
            "doc_id": pa.array(uniq[m], pa.int64()),
            "n_overlap": pa.array(over[m], pa.int64()),
            "n_shingles": pa.array(total[m].astype(np.int64))})

    return ds.map_batches(prep, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# dedup family
# ---------------------------------------------------------------------------

def q_dedup_exact(sf_dir: str):
    from ..dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup(ds).sort("doc_id")


def q_ngram_jaccard_dupes(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs. Runs with the default
    corpus-aware ``max_group`` cap + salted block expansion — the cap
    sits far above any sf-corpus group size, so the result equals the
    uncapped oracle here while an adversarial hot shingle stays bounded
    (tests/test_jaccard.py)."""
    from ..dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, n=3, threshold=0.5)


def q_ngram_containment_dupes(sf_dir: str):
    """Containment near-dup pairs — the asymmetric-subset metric
    (inter / min(|A|,|B|)): a short document quoted inside a long one
    scores ~1.0 here but low Jaccard, so CC-style pipelines run BOTH.
    Same distributed shingle/pair machinery as ngram_jaccard_dupes
    (dedup/jaccard.py::_pair_score), threshold 0.8."""
    from ..dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, n=3, threshold=0.8,
                              metric="containment")
    return out.rename_columns(["a", "b", "containment"])


def q_dedup_clusters(sf_dir: str):
    """Near-dup cluster assignment: connected components over the n-gram
    Jaccard pairs (dedup/cluster.py) — every doc in >= 1 pair labeled
    with the min doc_id reachable through the pair graph. Exact
    recursive-CTE SQL oracle."""
    from ..dedup import connected_components, ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(ds)
    return connected_components(pairs)


def q_clean_corpus_neardup(sf_dir: str):
    """The NEAR-dup removal composition — what a 100-TB corpus actually
    runs before training: MinHash-LSH candidate pairs (verified exact
    Jaccard >= 0.5) → connected components → drop every cluster member
    except the min doc_id → per-lang kept doc/char counts. Rows-only
    (the pair stage is LSH); invariants pinned in tests: kept =
    corpus − (cluster members − cluster minima), and every dropped doc
    is in some verified pair."""
    from ray.data.aggregate import Count, Sum

    from ..dedup import connected_components, minhash_lsh_dupes

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "n_chars"])
    text_ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = minhash_lsh_dupes(text_ds, n=3, threshold=0.5)
    comp = connected_components(pairs)
    # drop set: labeled members that are not their cluster's label
    drop = pc.filter(comp["doc_id"],
                     pc.not_equal(comp["doc_id"], comp["cluster_id"]))
    drop_set = drop.combine_chunks()

    def keep(t: pa.Table) -> pa.Table:
        hit = pc.is_in(t["doc_id"], value_set=drop_set)
        return t.filter(pc.invert(pc.fill_null(hit, False)))

    out = (ds.map_batches(keep, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n_kept"),
                      Sum("n_chars", alias_name="chars_kept")))
    return out.sort("lang")


def q_dedup_minhash(sf_dir: str):
    from ..dedup import minhash_lsh_dupes

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_lsh_dupes(ds, n=3, threshold=0.5)


def q_dedup_span_removal(sf_dir: str):
    """Substring-level dedup REWRITE (Lee et al.): duplicated word
    3-grams keep their occurrences only in the min-doc_id keeper and
    are removed everywhere else; each doc is rebuilt from its kept
    tokens in the same vectorized task that marked them
    (dedup/spans.py::remove_duplicate_spans). Exact SQL oracle — the
    whole spec (duplication, keeper choice, interval union, token-space
    rebuild) is deterministic."""
    from ..dedup.spans import remove_duplicate_spans

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = remove_duplicate_spans(ds, k=3)
    return out.sort("doc_id")


def q_dedup_incremental(sf_dir: str):
    """Incremental near-dup dedup from the PERSISTED MinHash store
    (dedup/store.py): the corpus split 90/10 into base/delta, base band
    rows persisted once as bucket-partitioned parquet, then the delta
    probes only matching band buckets and verifies exact Jaccard on
    candidate ids — the 100-TB flow where arriving batches never
    re-shingle the existing corpus. Probe results are guaranteed equal
    to the cross-pair subset of a full-corpus minhash run with the same
    params (pinned in test_dedup_store.py); rows-only here (LSH
    internals aren't SQL-expressible)."""
    import hashlib
    import shutil
    from functools import partial

    from ..dedup.store import build_minhash_store, probe_minhash_store

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def keep(t: pa.Table, in_delta: bool) -> pa.Table:
        mod = t["doc_id"].to_numpy(zero_copy_only=False) % 10
        return t.filter(pa.array((mod == 0) == in_delta))

    base = ds.map_batches(partial(keep, in_delta=False),
                          batch_format="pyarrow")
    delta = ds.map_batches(partial(keep, in_delta=True),
                           batch_format="pyarrow")
    # the store persists per sf_dir within the process (repeated
    # bench/sweep calls probe the existing partitions instead of
    # re-emitting the base corpus)
    tag = "mh-store#v1:" + sf_dir.rstrip("/")
    store = os.path.join(_idx_root(),
                         hashlib.sha256(tag.encode()).hexdigest()[:16])
    if ("mhstore", sf_dir) not in _ENGINE_CACHE:
        shutil.rmtree(store, ignore_errors=True)
        build_minhash_store(base, store)
        _ENGINE_CACHE[("mhstore", sf_dir)] = store
    out = probe_minhash_store(delta, store, base, threshold=0.5)
    return pa.table({"a": out["a"], "b": out["b"],
                     "jaccard": _round6(out["jaccard"])})


def q_dedup_simhash(sf_dir: str):
    from ..dedup import simhash_dupes

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_dupes(ds, max_hamming=3)


def q_embedding_dupes(sf_dir: str):
    from ..ann import embedding_dupes

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = embedding_dupes(ds, threshold=0.9)
    return pa.table({"a": out["a"], "b": out["b"],
                     "cosine": _round6(out["cosine"])})


# ---------------------------------------------------------------------------
# text analysis
# ---------------------------------------------------------------------------

def q_lang_id_confusion(sf_dir: str):
    from ray.data.aggregate import Count

    from ..functions import add_lang_id

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    out = (ds.map_batches(add_lang_id, batch_format="pyarrow")
           .select_columns(["lang", "predicted_lang"])
           .groupby(["lang", "predicted_lang"])
           .aggregate(Count(alias_name="n")))
    return out.sort(["lang", "predicted_lang"])


def q_quality_by_lang(sf_dir: str):
    """Per-lang quality totals as exact integers (ratio-of-sums beats
    sum-of-ratios for float determinism)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def prep(t: pa.Table) -> pa.Table:
        text = pc.utf8_lower(t["text"])
        return pa.table({
            "lang": t["lang"],
            "chars": pc.cast(pc.utf8_length(text), pa.int64()),
            "alpha": pc.cast(pc.count_substring_regex(text, "[a-z]"),
                             pa.int64()),
            "digit": pc.cast(pc.count_substring_regex(text, "[0-9]"),
                             pa.int64()),
            "tokens": pc.cast(pc.count_substring_regex(text, "[a-z0-9]+"),
                              pa.int64()),
            "stops": pc.cast(pc.count_substring_regex(
                text, r"\b(the|a|an|and|or|of|to|in|is|it)\b"), pa.int64()),
        })

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("chars", alias_name="total_chars"),
                      Sum("alpha", alias_name="total_alpha"),
                      Sum("digit", alias_name="total_digit"),
                      Sum("tokens", alias_name="total_tokens"),
                      Sum("stops", alias_name="total_stopwords")))
    return out.sort("lang")


def q_unigram_surprisal(sf_dir: str):
    """Perplexity-proxy quality scoring (the KenLM-filter analog at
    unigram order): fit the corpus unigram LM (term occurrence counts /
    total), then score each doc by its mean token surprisal
    -ln p(t). Two passes: a distributed count groupby whose result (one
    row per vocab term) broadcasts via ray.put, then a vectorized
    per-batch scoring join — documents never shuffle. Returns the 20
    most surprising docs (doc_id, avg_surprisal)."""
    import ray
    from ray.data.aggregate import Sum

    from ..analysis.tokenizer import tokenize_batch_arrow

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def term_counts(t: pa.Table) -> pa.Table:
        _row, toks, _dl = tokenize_batch_arrow(t["text"])
        enc = toks.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        counts = np.bincount(codes, minlength=len(enc.dictionary))
        return pa.table({"term": enc.dictionary,
                         "n": pa.array(counts.astype(np.int64))})

    agg = (ds.map_batches(term_counts, batch_format="pyarrow")
           .groupby("term").aggregate(Sum("n", alias_name="n")))
    parts = list(agg.iter_batches(batch_format="pyarrow",
                                  batch_size=1 << 20))
    vocab_tbl = pa.concat_tables(parts).sort_by("term")
    terms = np.asarray(vocab_tbl["term"].to_pylist(), dtype=object)
    counts = vocab_tbl["n"].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    total = float(counts.sum())
    lm_ref = ray.put((terms, np.log(counts / total)))

    def score(t: pa.Table) -> pa.Table:
        terms_b, logp_b = ray.get(lm_ref)
        row_idx, toks, dl = tokenize_batch_arrow(t["text"])
        enc = toks.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        batch_vocab = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        # LM lookup per batch-vocab entry (every token is in the LM by
        # construction), then fan out by dictionary code
        lp = logp_b[np.searchsorted(terms_b, batch_vocab)][codes]
        sums = np.zeros(t.num_rows, dtype=np.float64)
        np.add.at(sums, row_idx, -lp)
        keep = dl > 0
        return pa.table({
            "doc_id": t["doc_id"].filter(pa.array(keep)),
            "avg_surprisal": pa.array(
                np.round(sums[keep] / dl[keep], 6)),
        })

    scored = ds.map_batches(score, batch_format="pyarrow")
    return topk(scored, 20, [("avg_surprisal", "descending"),
                             ("doc_id", "ascending")])


def q_quality_filter(sf_dir: str):
    """C4-style quality filtering: first-failing-rule verdict per doc
    (too_short / low_alpha / high_digit / no_stopword / kept), counted.
    All rules are INTEGER comparisons (n_alpha*10 >= n_chars*6 instead
    of ratio >= 0.6) so the SQL oracle is exact with no float edges."""
    from ray.data.aggregate import Count

    from ..functions.text import STOPWORDS

    ds = _read(sf_dir, "documents", columns=["text"])
    stop_pat = r"\b(" + "|".join(STOPWORDS) + r")\b"

    def verdicts(t: pa.Table) -> pa.Table:
        text = pc.utf8_lower(t["text"])
        n_chars = pc.utf8_length(text).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_alpha = pc.count_substring_regex(text, r"[a-z]").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_digit = pc.count_substring_regex(text, r"[0-9]").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_stop = pc.count_substring_regex(text, stop_pat).to_numpy(
            zero_copy_only=False).astype(np.int64)
        v = np.select(
            [n_chars < 200,
             n_alpha * 10 < n_chars * 6,
             n_digit * 10 > n_chars * 3,
             n_stop == 0],
            ["too_short", "low_alpha", "high_digit", "no_stopword"],
            default="kept")
        return pa.table({"verdict": pa.array(v.tolist(), pa.string())})

    out = (ds.map_batches(verdicts, batch_format="pyarrow")
           .groupby("verdict").aggregate(Count(alias_name="n_docs")))
    return out.sort("verdict")


def q_corpus_card(sf_dir: str):
    """Training-dataset card: one summary row (n_docs, n_unique_texts,
    n_quality_kept, total_tokens, n_langs) — the composite a data
    curator reads before training. Each number is a distributed
    aggregate; the oracle recomputes all five in SQL."""
    from ..dedup import exact_dedup
    from ..functions.text import STOPWORDS

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    n_docs = docs.count()
    n_unique = exact_dedup(
        _read(sf_dir, "documents", columns=["doc_id", "text"])).count()
    n_langs = _read(sf_dir, "documents", columns=["lang"]) \
        .groupby("lang").count().count()
    stop_pat = r"\b(" + "|".join(STOPWORDS) + r")\b"

    def partial(t: pa.Table) -> pa.Table:
        text = pc.utf8_lower(t["text"])
        n_chars = pc.utf8_length(text).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_alpha = pc.count_substring_regex(text, r"[a-z]").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_digit = pc.count_substring_regex(text, r"[0-9]").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_stop = pc.count_substring_regex(text, stop_pat).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_tok = pc.count_substring_regex(text, r"[a-z0-9]+").to_numpy(
            zero_copy_only=False).astype(np.int64)
        kept = ((n_chars >= 200) & (n_alpha * 10 >= n_chars * 6)
                & (n_digit * 10 <= n_chars * 3) & (n_stop > 0))
        return pa.table({
            "kept": pa.array([int(kept.sum())], pa.int64()),
            "tokens": pa.array([int(n_tok.sum())], pa.int64()),
        })

    sums = (_read(sf_dir, "documents", columns=["text"])
            .map_batches(partial, batch_format="pyarrow")
            .sum(["kept", "tokens"]))
    return pa.table({
        "n_docs": pa.array([int(n_docs)], pa.int64()),
        "n_unique_texts": pa.array([int(n_unique)], pa.int64()),
        "n_quality_kept": pa.array([int(sums["sum(kept)"] or 0)],
                                   pa.int64()),
        "total_tokens": pa.array([int(sums["sum(tokens)"] or 0)],
                                 pa.int64()),
        "n_langs": pa.array([int(n_langs)], pa.int64()),
    })


def q_clean_corpus_search(sf_dir: str):
    """The composed training-data pipeline as one flow: quality-filter
    (the integer rules of q_quality_filter) → exact dedup (keep min
    doc_id per text) → index build → BM25 top-10. Every stage is the
    same distributed operator exercised elsewhere; the oracle replays
    filter+dedup+BM25 entirely in SQL. Engine ids re-rank densely over
    the cleaned corpus; results map back through the repo key."""
    import hashlib as _hashlib

    from ..config import IndexConfig
    from ..functions.text import STOPWORDS
    from ..index.build import build_index
    from ..query.shards import SearchEngine

    if ("clean", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("clean", sf_dir)]
    else:
        from ray.data.aggregate import Min

        stop_pat = r"\b(" + "|".join(STOPWORDS) + r")\b"

        def keep_rules(t: pa.Table) -> pa.Table:
            text = pc.utf8_lower(t["text"])
            n_chars = pc.utf8_length(text).to_numpy(
                zero_copy_only=False).astype(np.int64)
            n_alpha = pc.count_substring_regex(text, r"[a-z]") \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            n_digit = pc.count_substring_regex(text, r"[0-9]") \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            n_stop = pc.count_substring_regex(text, stop_pat) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            kept = ((n_chars >= 200) & (n_alpha * 10 >= n_chars * 6)
                    & (n_digit * 10 <= n_chars * 3) & (n_stop > 0))
            return t.filter(pa.array(kept))

        filtered = (_read(sf_dir, "documents",
                          columns=["doc_id", "lang", "text"])
                    .map_batches(keep_rules, batch_format="pyarrow"))
        # exact dedup keep-first among the kept docs: min doc_id per
        # text via a distributed groupby; the survivor-id array (one
        # int64 per unique doc) broadcasts via ray.put like the other
        # small-side lookups (beyond ~10^9 survivors the same filter
        # runs as a hash-partitioned anti-join instead of a broadcast)
        import ray as _ray

        survivors_ds = (filtered.groupby("text")
                        .aggregate(Min("doc_id", alias_name="doc_id")))
        surv_parts = [b["doc_id"].to_numpy(zero_copy_only=False)
                      for b in survivors_ds.iter_batches(
                          batch_format="pyarrow", batch_size=1 << 20)]
        surv_ref = _ray.put(np.sort(np.concatenate(surv_parts))
                            if surv_parts
                            else np.empty(0, dtype=np.int64))

        def to_corpus(t: pa.Table) -> pa.Table:
            surv = _ray.get(surv_ref)
            did_all = t["doc_id"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(surv, did_all)
            ok = pos < surv.size
            ok[ok] = surv[pos[ok]] == did_all[ok]
            return _corpusify_docs(t.filter(pa.array(ok)))

        corpus = filtered.map_batches(to_corpus, batch_format="pyarrow")
        tag = "clean#v2:" + sf_dir.rstrip("/")
        idx_dir = os.path.join(
            _idx_root(),
            _hashlib.sha256(tag.encode()).hexdigest()[:16])
        build_index(corpus, idx_dir,
                    IndexConfig(num_partitions=8, salt_buckets=4),
                    corpus_tag=tag)
        eng = SearchEngine(idx_dir)
        _ENGINE_CACHE[("clean", sf_dir)] = eng
    res = eng.search(BM25_QUERY_TEXT, k=10, with_meta=True)
    orig = pa.array([int(r[1:]) for r in res["repo"].to_pylist()],
                    pa.int64())
    return pa.table({"doc_id": orig, "score": _round6(res["score"])})


def q_token_stats(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    from ..functions import add_token_count

    ds = _read(sf_dir, "documents", columns=["source", "text", "n_chars"])
    out = (ds.map_batches(add_token_count, batch_format="pyarrow")
           .select_columns(["source", "n_tokens", "n_chars"])
           .groupby("source")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("n_tokens", alias_name="total_tokens"),
                      Sum("n_chars", alias_name="total_chars")))
    return out.sort("source")


BPE_ISH_PATTERN = r"'[a-z]+| ?[a-zA-Z]+| ?[0-9]+| ?[^\sa-zA-Z0-9']+"


def q_bpe_token_stats(sf_dir: str):
    """BPE-ish token counting: a lookahead-free GPT-2-style pre-tokenizer
    pattern (contraction tails, space-prefixed letter/digit runs,
    punctuation runs) counted with one vectorized RE2 kernel per batch —
    the training-data token-budget estimator next to the whitespace-ish
    ``token_stats``. Identical RE2 pattern on both sides of the oracle."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def count_tokens(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(pc.fill_null(t["text"], ""),
                                     BPE_ISH_PATTERN)
        return pa.table({"source": t["source"],
                         "n_bpe": pc.cast(n, pa.int64())})

    out = (ds.map_batches(count_tokens, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("n_bpe", alias_name="total_bpe_tokens")))
    return out.sort("source")


def q_cardinality_sketch(sf_dir: str):
    """ES ``cardinality`` aggregation analog (SURVEY §2.6: the reference
    delegates distinct counting to Elasticsearch's HLL sketch): approximate
    distinct counts via HyperLogLog (p=12, ~1.6 % stderr). Each map task
    emits one 4 KB register array per batch; only sketches cross the wire —
    the scale path for distinct-count at 10^12 rows, where an exact
    distinct is a full shuffle. Deterministic (SipHash with pandas' fixed
    key), so rows-only driver checks are stable. Accuracy vs exact distinct
    is pinned by tests/test_sketch.py."""
    import pandas as pd

    from ..functions.sketch import hll_cardinality

    rows = []
    for table, col in (("events", "user_id"), ("events", "event_type"),
                       ("documents", "lang")):
        ds = _read(sf_dir, table, columns=[col])
        est = hll_cardinality(ds, col, p=12)
        rows.append({"field": f"{table}.{col}", "estimate": int(round(est))})
    return pd.DataFrame(rows)


def q_fingerprint_minmd5(sf_dir: str):
    from ..functions import add_fingerprint_minmd5

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(add_fingerprint_minmd5, batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint"]).sort("doc_id")


def q_fingerprint_rolling(sf_dir: str):
    from ..functions import add_fingerprint_rolling

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(add_fingerprint_rolling, batch_format="pyarrow")

    def to_str(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "fingerprint_rolling": pc.cast(t["fingerprint_rolling"],
                                           pa.string()),
        })

    return out.map_batches(to_str, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# similarity search
# ---------------------------------------------------------------------------

def _query_vector(sf_dir: str) -> np.ndarray:
    import pyarrow.dataset as pa_ds

    # one-row predicate-pushdown read, not a full-table scan
    tbl = pa_ds.dataset(os.path.join(sf_dir, "embeddings.parquet"),
                        format="parquet").to_table(
        columns=["embedding"], filter=pc.field("vec_id") == 0)
    return np.asarray(tbl["embedding"][0].as_py(), dtype=np.float64)


def q_embedding_knn(sf_dir: str):
    from ..ann import cosine_topk_bruteforce

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = cosine_topk_bruteforce(ds, _query_vector(sf_dir), k=10)
    return pa.table({"vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


def q_embedding_knn_pq(sf_dir: str):
    """Product-quantized ANN (ann/pq.py): 64-dim floats compress to 8
    uint8 codes (32x memory), the query scans CODES with one ADC
    lookup-table sum per row — the technique that fits 10^12 vectors
    in cluster memory. Rows-only (k-means codebook internals aren't
    SQL-expressible); the ADC == reconstructed-L2 identity and the
    recall floor vs exact search are pinned in tests/test_pq.py."""
    from ..ann.pq import adc_topk, encode_pq, train_pq

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    books = train_pq(ds, m=8, n_centroids=16, n_iters=10)
    codes = encode_pq(ds, books)
    # FAISS refine pattern: ADC shortlist of 50 over codes, then an
    # id-pruned exact-L2 rerank of just those 50 raw vectors
    return adc_topk(codes, _query_vector(sf_dir), books, k=10,
                    rerank_ds=ds, shortlist=50)


def q_embedding_knn_ivfpq(sf_dir: str):
    """FAISS IndexIVFPQ analog (ann/pq.py): coarse partition pruning x
    residual code compression — one hive-partitioned build pass
    (list=C dirs of uint8 codes only), then a probe reads n_probe=2
    partitions and sums one per-list residual ADC LUT per row. IO per
    query shrinks by the pruning factor AND ~32x code compression.
    Rows-only; exactness over quantized points + probe-pruning
    invariants pinned in tests/test_pq.py."""
    import hashlib

    from ..ann.knn import ivf_centroids
    from ..ann.pq import build_ivfpq_index, ivfpq_index_topk, train_pq

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = os.path.join(
        _idx_root(), "ivfpq-" + hashlib.sha256(
            sf_dir.rstrip("/").encode()).hexdigest()[:12])
    if not os.path.exists(os.path.join(out, "meta.json")):
        cent = ivf_centroids(ds, n_centroids=8, n_iters=8)
        books = train_pq(ds, m=8, n_centroids=16, n_iters=10,
                         residual_centroids=cent)
        build_ivfpq_index(ds, out, cent, books)
    return ivfpq_index_topk(out, _query_vector(sf_dir), k=10, n_probe=2)


def q_embedding_knn_bq(sf_dir: str):
    """ES BBQ / Lucene binary-quantization analog (ann/quantize.py):
    1 bit per dimension (32x less than float32), Hamming scan via a
    byte-popcount LUT over packed sign bits, then the BBQ serving
    pattern — exact-L2 rerank of the Hamming shortlist. No codebooks;
    the quantizer is one distributed per-dimension-mean pass.
    Rows-only; bit-exact Hamming and recall floors in test_pq.py."""
    from ..ann.quantize import binary_quantize, dim_means, hamming_topk

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    means = dim_means(ds)
    bits = binary_quantize(ds, means)
    return hamming_topk(bits, _query_vector(sf_dir), means, k=10,
                        rerank_ds=ds, shortlist=50)


def q_knn_similarity_cutoff(sf_dir: str):
    """ES 8.8 kNN ``similarity`` parameter: collect the k=25 nearest,
    then drop hits whose cosine falls below the cutoff (0.24) — the
    vector-search quality floor. Same broadcast-query brute-force
    kernel as embedding_knn; the cutoff is one vectorized compare on
    the k-row result."""
    from ..ann import cosine_topk_bruteforce

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = cosine_topk_bruteforce(ds, _query_vector(sf_dir), k=25)
    keep = pc.greater_equal(out["cosine"], 0.24)
    out = out.filter(keep)
    return pa.table({"vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


def q_embedding_knn_batch(sf_dir: str):
    """Batched multi-query kNN (ann/knn.py::cosine_topk_batch — the
    _msearch / batched-inference shape): vec_ids 0..4 as the query
    matrix, ALL five scored in one GEMM per batch against the broadcast
    matrix; per-query local top-k only crosses the merge."""
    import pyarrow.dataset as pa_ds

    from ..ann.knn import cosine_topk_batch

    qt = pa_ds.dataset(os.path.join(sf_dir, "embeddings.parquet"),
                       format="parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") < 5).sort_by("vec_id")
    Q = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = cosine_topk_batch(ds, Q, k=10)
    return pa.table({"query_id": out["query_id"],
                     "vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


def q_embedding_knn_filtered(sf_dir: str):
    """ES kNN-with-filter analog: brute-force cosine top-10 restricted
    to vectors with label <= 4 — the filter is a vectorized predicate
    applied per batch BEFORE scoring (pre-filtered kNN, the exact ES
    semantics, vs post-filtering which can return < k)."""
    from ..ann import cosine_topk_bruteforce

    ds = _read(sf_dir, "embeddings",
               columns=["vec_id", "embedding", "label"])

    def flt(t: pa.Table) -> pa.Table:
        return t.filter(pc.less_equal(t["label"], 4)) \
            .select(["vec_id", "embedding"])

    out = cosine_topk_bruteforce(
        ds.map_batches(flt, batch_format="pyarrow"),
        _query_vector(sf_dir), k=10)
    return pa.table({"vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


def _ann_index_dir(sf_dir: str, kind: str) -> str:
    import hashlib

    key = f"{kind}:{sf_dir.rstrip('/')}"
    return os.path.join("/tmp/lsai_ann",
                        hashlib.sha256(key.encode()).hexdigest()[:16])


def q_embedding_knn_lsh(sf_dir: str):
    """Multi-table LSH ANN served from a PERSISTED bucket-partitioned
    parquet index (ann/store.py): the one-time build pass writes
    table=T/bucket=B partitions; each query reads ONLY its probed
    partition directories — candidate IO scales with probed buckets,
    not the corpus (the scan-based cosine_topk_lsh prunes the matmul
    but still reads every row). Results identical to the scan path
    with the same planes/probes (unit-tested); approximate by design
    (rows-only check)."""
    from ..ann import build_lsh_index, lsh_index_topk

    idx = _ann_index_dir(sf_dir, "lsh")
    if not os.path.exists(os.path.join(idx, "meta.json")):
        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        build_lsh_index(ds, idx, n_planes=6, n_tables=4, seed=42)
    out = lsh_index_topk(idx, _query_vector(sf_dir), k=10, n_probes=8)
    return pa.table({"vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


def q_embedding_knn_hnsw(sf_dir: str):
    """Per-segment HNSW graph ANN (ann/hnsw.py — the Lucene model): a
    one-time ``groupby(segment).map_groups`` pass builds one graph per
    hash-assigned segment IN PARALLEL and persists vectors+adjacency
    parquet; a query beam-searches every segment graph (actor pool
    keeps them resident) and merges k×segments candidates. Visits
    O(ef·log n) vectors per segment instead of scanning buckets —
    the graph asymptotic the flat LSH/IVF stores can't give.
    Approximate by design (rows-only check; recall vs brute force
    pinned in test_hnsw.py)."""
    from ..ann.hnsw import build_hnsw_index, hnsw_index_topk

    idx = _ann_index_dir(sf_dir, "hnsw")
    if not os.path.exists(os.path.join(idx, "hnsw_meta.json")):
        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        build_hnsw_index(ds, idx, num_segments=4, m=8,
                         ef_construction=64, seed=42)
    out = hnsw_index_topk(idx, _query_vector(sf_dir), k=10,
                          ef_search=64)
    return pa.table({"vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


def q_embedding_knn_hnsw_filtered(sf_dir: str):
    """Lucene-style FILTERED kNN over the per-segment HNSW graphs: the
    filter set (vec_ids with label <= 4) broadcasts once; each segment
    traverses its graph using disallowed nodes as bridges (visit-capped)
    or switches to an exact scan when the filter admits fewer rows than
    the beam — the two-plan ES/Lucene semantics. Approximate by design
    (rows-only; filtered recall pinned vs the brute-force pre-filter in
    test_hnsw.py)."""
    from ..ann.hnsw import build_hnsw_index, hnsw_index_topk

    idx = _ann_index_dir(sf_dir, "hnsw")
    if not os.path.exists(os.path.join(idx, "hnsw_meta.json")):
        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        build_hnsw_index(ds, idx, num_segments=4, m=8,
                         ef_construction=64, seed=42)
    lab = _read(sf_dir, "embeddings", columns=["vec_id", "label"])
    flt = (lab.map_batches(
        lambda t: t.filter(pc.less_equal(t["label"], 4))
        .select(["vec_id"]), batch_format="pyarrow").to_pandas())
    out = hnsw_index_topk(idx, _query_vector(sf_dir), k=10,
                          ef_search=64,
                          filter_ids=flt["vec_id"].to_numpy())
    return pa.table({"vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


def q_embedding_knn_ivf(sf_dir: str):
    """IVF ANN served from a PERSISTED list-partitioned parquet index
    (ann/store.py): sampled spherical k-means centroids (deterministic
    hash-rate sample, not first-blocks), one assignment pass writes
    list=C partitions, and each query reads ONLY the n_probe nearest
    list directories. Results identical to the scan path with the same
    centroids (unit-tested); approximate by design (rows-only check)."""
    from ..ann import build_ivf_index, ivf_centroids, ivf_index_topk

    idx = _ann_index_dir(sf_dir, "ivf")
    if not os.path.exists(os.path.join(idx, "meta.json")):
        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        cent = ivf_centroids(ds, n_centroids=16)
        build_ivf_index(ds, idx, cent)
    out = ivf_index_topk(idx, _query_vector(sf_dir), k=10, n_probe=4)
    return pa.table({"vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


# ---------------------------------------------------------------------------
# multimodal
# ---------------------------------------------------------------------------

def q_embedding_centroids(sf_dir: str):
    """Per-label embedding centroid (per-dimension mean), long format
    (label, dim, mean_val) — the vector aggregate under k-means/IVF
    training. Per-batch float64 partial sums + a tiny (labels x dims)
    groupby merge; only partials shuffle, never vectors."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])

    def partials(t: pa.Table) -> pa.Table:
        emb = t["embedding"].combine_chunks()
        dim = len(emb[0])
        mat = emb.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.float64).reshape(-1, dim)
        labels = t["label"].to_numpy(zero_copy_only=False)
        uniq = np.unique(labels)
        rows_label, rows_dim, rows_s, rows_n = [], [], [], []
        for lb in uniq:
            m = labels == lb
            s = mat[m].sum(axis=0)
            rows_label.extend([int(lb)] * dim)
            rows_dim.extend(range(1, dim + 1))  # 1-based like SQL
            rows_s.extend(s.tolist())
            rows_n.extend([int(m.sum())] * dim)
        return pa.table({
            "label": pa.array(rows_label, pa.int32()),
            "dim": pa.array(rows_dim, pa.int64()),
            "s": pa.array(rows_s, pa.float64()),
            "n": pa.array(rows_n, pa.int64()),
        })

    agg = (ds.map_batches(partials, batch_format="pyarrow")
           .groupby(["label", "dim"])
           .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")))

    def finish(t: pa.Table) -> pa.Table:
        mean = pc.divide(t["s"], pc.cast(t["n"], pa.float64()))
        return pa.table({"label": t["label"], "dim": t["dim"],
                         "mean_val": _round6(mean)})

    return agg.map_batches(finish, batch_format="pyarrow") \
        .sort(["label", "dim"])


def q_multimodal_stats(sf_dir: str):
    """Binary-payload plumbing: attach blob + typed metadata, fake-decode
    in an actor pool, aggregate dimensions per lang (ints only)."""
    from functools import partial

    from ray.data.aggregate import Count, Sum

    from ..multimodal import BinaryFeatureExtractor, attach_binary_payload

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    feats = (ds.map_batches(partial(attach_binary_payload),
                            batch_format="pyarrow")
             .map_batches(BinaryFeatureExtractor, batch_format="pyarrow",
                          batch_size=256, concurrency=(1, 4)))

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"lang": t["lang"],
                         "payload_bytes": t["payload_bytes"],
                         "width": pc.cast(t["width"], pa.int64()),
                         "height": pc.cast(t["height"], pa.int64())})

    out = (feats.map_batches(prep, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n"),
                      Sum("payload_bytes", alias_name="total_bytes"),
                      Sum("width", alias_name="total_width"),
                      Sum("height", alias_name="total_height")))
    return out.sort("lang")


def q_multimodal_features(sf_dir: str):
    """Rows-only: per-doc fake feature vectors (blake2b-derived)."""
    from functools import partial

    from ..multimodal import BinaryFeatureExtractor, attach_binary_payload

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    feats = (ds.map_batches(partial(attach_binary_payload),
                            batch_format="pyarrow")
             .map_batches(BinaryFeatureExtractor, batch_format="pyarrow",
                          batch_size=256, concurrency=(1, 4)))

    def feature_str(t: pa.Table) -> pa.Table:
        # list<double> serialized for the driver's hash compare
        s = pa.array([",".join(f"{v:.6f}" for v in row)
                      for row in t["feature"].to_pylist()], pa.string())
        return pa.table({"doc_id": t["doc_id"], "width": t["width"],
                         "height": t["height"], "feature": s})

    return feats.map_batches(feature_str, batch_format="pyarrow") \
        .sort("doc_id")


def q_session_duration(sf_dir: str):
    """Per-user elapsed seconds between first and last event — the
    reference's elapsed-time computation (M8, core/commons.py:190-211) as
    a distributed aggregate."""
    from ray.data.aggregate import Count, Max, Min

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    out = (ds.groupby("user_id")
           .aggregate(Min("ts", alias_name="first_ts"),
                      Max("ts", alias_name="last_ts"),
                      Count(alias_name="n_events")))

    def elapsed(t: pa.Table) -> pa.Table:
        secs = pc.cast(pc.divide(pc.cast(pc.subtract(t["last_ts"],
                                                     t["first_ts"]),
                                         pa.int64()), 1_000_000),
                       pa.int64())
        return pa.table({"user_id": t["user_id"],
                         "n_events": t["n_events"],
                         "elapsed_s": secs})

    return out.map_batches(elapsed, batch_format="pyarrow").sort("user_id")


def q_highest_severity_event(sf_dir: str):
    """Per-user highest-severity event (min priority, tie-break earliest
    ts then event_id) — the reference's highest-severity selection (A3,
    core/elasticsearch.py:185-197)."""
    import pandas as pd

    from ..stages.severity import EVENT_PRIORITY

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "event_type", "ts"])

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(priority=g["event_type"].map(EVENT_PRIORITY)
                     .fillna(999).astype("int64"))
        g = g.sort_values(["priority", "ts", "event_id"]).head(1)
        return g[["user_id", "event_id", "event_type", "priority"]]

    out = ds.groupby("user_id").map_groups(pick, batch_format="pandas")
    return out.sort("user_id")


def q_alert_format(sf_dir: str):
    """Alert message construction with the reference's truncation rules
    (O2, core/elasticsearch.py:210-258: top-N slices, line[:100]): one
    formatted row per CRITICAL-priority event, message truncated."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "user_id", "props"])

    def fmt(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "error")
        t = t.filter(keep)
        msg = pc.binary_join_element_wise(
            pa.array(["[CRITICAL] user="] * t.num_rows),
            pc.cast(t["user_id"], pa.string()),
            pa.array([" props="] * t.num_rows),
            pc.utf8_slice_codeunits(pc.fill_null(t["props"], ""), 0, 100),
            "")
        return pa.table({"event_id": t["event_id"],
                         "message": msg})

    return ds.map_batches(fmt, batch_format="pyarrow").sort("event_id")


def q_ip_classification(sf_dir: str):
    """Embedded-IP extraction + private/public classification per lang
    (M11, reference core/geoip.py:101-106). The driver testdata contains
    no IP literals, so counts are zero here; the operator's non-trivial
    behavior is unit-tested over the generated corpus (which embeds
    access-log lines with real IPs)."""
    from ray.data.aggregate import Sum

    from ..stages.geoip import add_ip_stats

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    out = (ds.map_batches(
        lambda t: add_ip_stats(t, text_col="text"),
        batch_format="pyarrow")
        .select_columns(["lang", "n_ips", "n_private_ips",
                         "n_public_ips"])
        .groupby("lang")
        .aggregate(Sum("n_ips", alias_name="total_ips"),
                   Sum("n_private_ips", alias_name="total_private"),
                   Sum("n_public_ips", alias_name="total_public")))
    return out.sort("lang")


def q_sampled_severity_histogram(sf_dir: str):
    """O3/O5 — load-shed sampling done deterministically: keep rows with
    event_id & 15 == 0 (a 1/16 hash sample; the scalable analog of the
    reference's realtime sampling threshold, core/monitoring.py:381-399)
    then aggregate severity. Hash sampling is reproducible across reruns,
    cluster sizes and block orders — unlike random_sample — so the result
    has an exact SQL oracle."""
    from ..stages.severity import severity_histogram

    ds = _read(sf_dir, "events", columns=["event_id", "event_type"])
    sampled = ds.map_batches(
        lambda t: t.filter(pc.equal(
            pc.bit_wise_and(t["event_id"], 15), 0))
        .select(["event_type"]),
        batch_format="pyarrow")
    return severity_histogram(sampled)


def q_alert_sink(sf_dir: str):
    """The severity-threshold → notify flow end-to-end (K3 with a real
    transport half, reference utils/telegram_alert.py:22-61): format
    alerts at priority <= 2, DELIVER them through a FileAlertSink actor
    pool, then read the delivered JSONL back as the result — the
    returned rows are what actually landed in the sink."""
    import glob
    import hashlib
    import json as _json
    import shutil

    import ray.data as rd

    from ..stages.alerts import FileAlertSink, notify_alerts

    out_dir = os.path.join(
        "/tmp/lsai_alert_sink",
        hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:16])
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "user_id", "props"])
    notify_alerts(ds, lambda: FileAlertSink(out_dir), min_priority=2)
    rows = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*.jsonl"))):
        with open(path) as f:
            rows.extend(_json.loads(line) for line in f)
    tbl = pa.table({
        "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
        "priority": pa.array([r["priority"] for r in rows], pa.int32()),
        "message": pa.array([r["message"] for r in rows], pa.string()),
    })
    return tbl.sort_by("event_id")


def q_nested_severity_histogram(sf_dir: str):
    """The Kibana ``events.severity.keyword`` panel done properly as a
    NESTED-field aggregation (reference analyzers/httpd_access.py:33-61:
    documents hold ``events: list[SecurityEvent]``): build one document
    per user with an ``events: list<struct>`` column, explode it with
    ``list_flatten`` + ``list_parent_indices`` (parent attribution), and
    aggregate severity counts plus the number of parent documents
    containing each severity."""
    from ray.data.aggregate import Sum

    from ..stages.nested import build_event_docs, explode_events

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "event_type", "ts"])
    docs = build_event_docs(ds)

    def partial(batch: pa.Table) -> pa.Table:
        t = explode_events(batch)
        # per-batch partial agg; each user is exactly one doc row in
        # exactly one batch, so within-batch distinct users sum to the
        # global per-severity doc count
        agg = (pa.table({"event_type": t["event_type"],
                         "priority": t["priority"],
                         "user_id": t["user_id"]})
               .group_by(["event_type", "priority"])
               .aggregate([("user_id", "count"),
                           ("user_id", "count_distinct")]))
        return pa.table({"event_type": agg["event_type"],
                         "priority": agg["priority"],
                         "pn": agg["user_id_count"],
                         "pdocs": agg["user_id_count_distinct"]})

    out = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby(["event_type", "priority"])
           .aggregate(Sum("pn", alias_name="n"),
                      Sum("pdocs", alias_name="n_docs")))
    return out.sort("priority")


def _derive_ip_lines(t: pa.Table) -> pa.Table:
    """Deterministic source/peer IP derivation (driver tables embed no IP
    literals; this column transform stands in for the reference's parsed
    ``source_ips`` field, core/geoip.py:113-124 — the enrichment machinery
    downstream is the real thing). Octet families mix RFC1918/loopback
    (dropped by enrichment) with plain public ranges."""
    k = pc.cast(pc.struct_field(
        pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
        pa.int64()).to_numpy(zero_copy_only=False)
    uid = t["user_id"].to_numpy(zero_copy_only=False)
    eid = t["event_id"].to_numpy(zero_copy_only=False)
    s1 = np.array([10, 172, 192, 52, 98], dtype=np.int64)[uid % 5]
    s2 = np.where(s1 == 172, 16 + (k % 16),
                  np.where(s1 == 192, 168, k % 256))
    s3 = uid % 256
    s4 = 1 + (k % 254)
    p1 = np.array([8, 127], dtype=np.int64)[eid % 2]
    p2 = (eid // 7) % 256
    p3 = k % 256
    p4 = 1 + (eid % 254)

    def ip(a, b, c, d):
        return pc.binary_join_element_wise(
            pc.cast(pa.array(a), pa.string()),
            pc.cast(pa.array(b), pa.string()),
            pc.cast(pa.array(c), pa.string()),
            pc.cast(pa.array(d), pa.string()), ".")

    line = pc.binary_join_element_wise(
        pa.array(["src="] * t.num_rows), ip(s1, s2, s3, s4),
        pa.array([" peer="] * t.num_rows), ip(p1, p2, p3, p4), "")
    return pa.table({"event_id": t["event_id"], "line": line})


def q_geoip_enrichment(sf_dir: str):
    """J1 — the reference's GeoIP enrichment join as a driver entry
    (core/geoip.py:154-242): broadcast DB handle via ray.put, actor-pool
    lookup with LRU, private/invalid dropped, per-row dedup, list<struct>
    output, then the stats-dict key-rewrite shape (``top_source_ips``
    keys become "ip (CC)", core/geoip.py:232-241) in the per-country
    rollup."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from ..stages.geoip import GeoIPEnrich, _fake_geo_db

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "props"])
    lines = ds.map_batches(_derive_ip_lines, batch_format="pyarrow")
    db_ref = ray.put(_fake_geo_db())
    # cache_size: the derived corpus has ~50k distinct IPs, so the
    # reference's default LRU of 1000 would thrash; the knob exists for
    # exactly this (reference GEOIP_CACHE_SIZE)
    enriched = lines.map_batches(
        GeoIPEnrich, fn_constructor_args=(db_ref,),
        fn_constructor_kwargs={"text_col": "line",
                               "cache_size": 100_000},
        batch_format="pyarrow", concurrency=(1, 4))

    def explode(t: pa.Table) -> pa.Table:
        g = t["geo_ips"]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        flat = pc.list_flatten(g)
        agg = (pa.table({"country_code": pc.struct_field(flat,
                                                         "country_code"),
                         "ip": pc.struct_field(flat, "ip")})
               .group_by(["country_code", "ip"])
               .aggregate([("ip", "count")]))
        return pa.table({"country_code": agg["country_code"],
                         "ip": agg["ip"], "pn": agg["ip_count"]})

    counts = (enriched.map_batches(explode, batch_format="pyarrow")
              .groupby(["country_code", "ip"])
              .aggregate(Sum("pn", alias_name="n")))

    def rollup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "ip"], ascending=[False, True])
        top = g.iloc[0]
        return pd.DataFrame({
            "country_code": [g["country_code"].iloc[0]],
            "n_ips": [int(g["n"].sum())],
            "n_uniq_ips": [len(g)],
            "top_ip": [f"{top['ip']} ({top['country_code']})"],
        })

    out = counts.groupby("country_code").map_groups(
        rollup, batch_format="pandas")
    return out.sort("country_code")


def _geo_located_ips(sf_dir: str):
    """Shared geo pipeline prefix: derive IP lines, enrich with the
    CITY-level lookup (``with_location=True`` — the reference's
    ``location {lat, lon}`` geo_point payload, core/geoip.py:117-124),
    explode to one row per (event, public ip) with integer centi-degree
    coordinates. Enrichment is the broadcast actor-pool stage; the
    explode is one ``list_flatten`` kernel per batch."""
    import ray

    from ..stages.geoip import GeoIPEnrich, _fake_geo_db

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "props"])
    lines = ds.map_batches(_derive_ip_lines, batch_format="pyarrow")
    db_ref = ray.put(_fake_geo_db())
    enriched = lines.map_batches(
        GeoIPEnrich, fn_constructor_args=(db_ref,),
        fn_constructor_kwargs={"text_col": "line", "cache_size": 100_000,
                               "with_location": True},
        batch_format="pyarrow", concurrency=(1, 4))

    def explode(t: pa.Table) -> pa.Table:
        g = t["geo_ips"]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        flat = pc.list_flatten(g)
        return pa.table({
            "ip": pc.struct_field(flat, "ip"),
            "country_code": pc.struct_field(flat, "country_code"),
            "lat_cd": pc.struct_field(flat, "lat_cd"),
            "lon_cd": pc.struct_field(flat, "lon_cd"),
        })

    return enriched.map_batches(explode, batch_format="pyarrow")


# geo_distance ring origin (centi-degrees) and squared ring boundaries
_GEO_ORIGIN = (5011, 864)
_GEO_RINGS = [(4_000_000, "ring_0_under_20deg"),
              (36_000_000, "ring_1_20_to_60deg"),
              (144_000_000, "ring_2_60_to_120deg"),
              (None, "ring_3_over_120deg")]


def q_geo_distance_agg(sf_dir: str):
    """ES ``geo_distance`` aggregation over the GeoIP location field
    (the Kibana map rings the reference's dashboard serves from its
    geo_point mapping, core/geoip.py:117-124): distance rings around a
    fixed origin with per-ring occurrence and unique-IP counts. The ring
    metric is the EXACT integer squared equirectangular offset in
    centi-degrees (``stages/geo.py:plane_dist2_cd``) so bucket
    assignment is bit-reproducible in SQL; the true-haversine variant of
    the same kernel is unit-tested in test_geo.py. Exchange shape:
    per-batch partial counts keyed (bucket, ip), one small groupby, then
    a ≤4-row rollup — distinct-IP counting never broadcasts raw rows."""
    from ray.data.aggregate import Sum

    from ..stages.geo import plane_dist2_cd

    olat, olon = _GEO_ORIGIN
    bounds = np.array([b for b, _ in _GEO_RINGS if b is not None],
                      dtype=np.int64)
    labels = np.array([lab for _, lab in _GEO_RINGS])

    def partial(t: pa.Table) -> pa.Table:
        lat = t["lat_cd"].to_numpy(zero_copy_only=False)
        lon = t["lon_cd"].to_numpy(zero_copy_only=False)
        d2 = plane_dist2_cd(lat, lon, olat, olon)
        lab = labels[np.searchsorted(bounds, d2, side="right")]
        agg = (pa.table({"bucket": pa.array(lab.tolist()), "ip": t["ip"]})
               .group_by(["bucket", "ip"]).aggregate([("ip", "count")]))
        return pa.table({"bucket": agg["bucket"], "ip": agg["ip"],
                         "pn": agg["ip_count"]})

    per_ip = (_geo_located_ips(sf_dir)
              .map_batches(partial, batch_format="pyarrow")
              .groupby(["bucket", "ip"])
              .aggregate(Sum("pn", alias_name="n")))

    def rollup(t: pa.Table) -> pa.Table:
        # after the aggregate each (bucket, ip) key is exactly one row,
        # so a per-block rollup to <=4 partial rows is lossless
        agg = (pa.table({"bucket": t["bucket"], "n": t["n"]})
               .group_by("bucket")
               .aggregate([("n", "sum"), ("n", "count")]))
        return pa.table({"bucket": agg["bucket"],
                         "n": pc.cast(agg["n_sum"], pa.int64()),
                         "n_uniq_ips": pc.cast(agg["n_count"],
                                               pa.int64())})

    out = (per_ip.map_batches(rollup, batch_format="pyarrow")
           .to_pandas())
    out = (out.groupby("bucket", as_index=False)
           .agg(n=("n", "sum"), n_uniq_ips=("n_uniq_ips", "sum"))
           .sort_values("bucket").reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


def q_geohash_grid_agg(sf_dir: str):
    """ES ``geohash_grid`` aggregation: true base32 geohash cells at
    precision 3 over the enriched locations, top 15 by (count desc,
    cell asc). The cell id is the standard interleaved geohash computed
    from exact integer centi-degree cell indices (stages/geo.py), and
    the oracle reproduces the SAME base32 strings via an unrolled
    bit-interleave SQL expression — parity down to the cell-id string.
    Per-batch partial counts (≤ 32k cells at precision 3) pre-aggregate
    before the one small shuffle."""
    from ray.data.aggregate import Sum

    from ..stages.geo import geohash_cells

    def partial(t: pa.Table) -> pa.Table:
        gh = geohash_cells(t["lat_cd"].to_numpy(zero_copy_only=False),
                           t["lon_cd"].to_numpy(zero_copy_only=False),
                           precision=3)
        agg = (pa.table({"gh": pa.array(gh.tolist())})
               .group_by("gh").aggregate([("gh", "count")]))
        return pa.table({"gh": agg["gh"], "pn": agg["gh_count"]})

    counts = (_geo_located_ips(sf_dir)
              .map_batches(partial, batch_format="pyarrow")
              .groupby("gh").aggregate(Sum("pn", alias_name="n")))
    df = topk(counts, 15, [("n", "descending"), ("gh", "ascending")])
    df["n"] = df["n"].astype("int64")
    return pa.Table.from_pandas(df[["gh", "n"]], preserve_index=False)


def q_geotile_grid_agg(sf_dir: str):
    """ES ``geotile_grid`` aggregation at zoom 4: web-mercator map
    tiles ``z/x/y`` (the slippy-map scheme ES serves Kibana maps from)
    over the enriched locations, top 15 by (count desc, tile asc).
    The x index is EXACT integer arithmetic ((lon_cd+18000)*16 //
    36000); the y index shares its IEEE op tree with the oracle — the
    same division, tan, cos, ln and pi constants in the same order —
    so the floor is bit-reproducible (numpy and DuckDB share libm
    here). Same per-batch partial-counts exchange as geohash_grid;
    ≤ 256 cells ever cross the shuffle."""
    from ray.data.aggregate import Sum

    N = 16  # 2^zoom, zoom = 4

    def partial(t: pa.Table) -> pa.Table:
        lat_cd = t["lat_cd"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lon_cd = t["lon_cd"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (lon_cd + 18000) * N // 36000
        rad = lat_cd / 100.0 * (np.pi / 180)
        m = np.log(np.tan(rad) + 1 / np.cos(rad))
        y = np.clip(np.floor((1 - m / np.pi) / 2 * N),
                    0, N - 1).astype(np.int64)
        agg = (pa.table({"code": pa.array(x * N + y)})
               .group_by("code").aggregate([("code", "count")]))
        return pa.table({"code": agg["code"], "pn": agg["code_count"]})

    counts = (_geo_located_ips(sf_dir)
              .map_batches(partial, batch_format="pyarrow")
              .groupby("code").aggregate(Sum("pn", alias_name="n"))
              .to_pandas())  # bounded: <= N*N cells
    counts["tile"] = ("4/" + (counts["code"] // N).astype(str)
                      + "/" + (counts["code"] % N).astype(str))
    counts["n"] = counts["n"].astype("int64")
    out = (counts.sort_values(["n", "tile"], ascending=[False, True])
           .head(15).reset_index(drop=True))
    return pa.Table.from_pandas(out[["tile", "n"]], preserve_index=False)


def q_geo_centroid_agg(sf_dir: str):
    """ES ``geo_centroid`` aggregation per country: mean location of the
    enriched IPs. Mergeable integer partials (n, sum_lat_cd, sum_lon_cd)
    per batch; the final double division happens once per country with
    the same operation tree as the oracle (CAST-to-double, divide by n,
    divide by 100) so the float centroids hash bit-identically."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        agg = (pa.table({"cc": t["country_code"], "lat_cd": t["lat_cd"],
                         "lon_cd": t["lon_cd"]})
               .group_by("cc")
               .aggregate([("lat_cd", "count"), ("lat_cd", "sum"),
                           ("lon_cd", "sum")]))
        return pa.table({"cc": agg["cc"],
                         "pn": pc.cast(agg["lat_cd_count"], pa.int64()),
                         "pslat": agg["lat_cd_sum"],
                         "pslon": agg["lon_cd_sum"]})

    merged = (_geo_located_ips(sf_dir)
              .map_batches(partial, batch_format="pyarrow")
              .groupby("cc")
              .aggregate(Sum("pn", alias_name="n"),
                         Sum("pslat", alias_name="slat"),
                         Sum("pslon", alias_name="slon")))
    df = merged.to_pandas().sort_values("cc").reset_index(drop=True)
    n = df["n"].to_numpy(dtype=np.float64)
    df["centroid_lat"] = (df["slat"].to_numpy(dtype=np.float64) / n) / 100.0
    df["centroid_lon"] = (df["slon"].to_numpy(dtype=np.float64) / n) / 100.0
    df["n"] = df["n"].astype("int64")
    return pa.Table.from_pandas(
        df[["cc", "n", "centroid_lat", "centroid_lon"]],
        preserve_index=False)


def q_geo_bounds_agg(sf_dir: str):
    """ES ``geo_bounds`` aggregation per country: the bounding box of
    the enriched locations, exact in integer centi-degrees. Partials are
    (n, min/max lat, min/max lon) per batch — constant bytes per block
    cross the shuffle regardless of corpus size."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        agg = (pa.table({"cc": t["country_code"], "lat_cd": t["lat_cd"],
                         "lon_cd": t["lon_cd"]})
               .group_by("cc")
               .aggregate([("lat_cd", "count"), ("lat_cd", "min"),
                           ("lat_cd", "max"), ("lon_cd", "min"),
                           ("lon_cd", "max")]))
        return pa.table({"cc": agg["cc"],
                         "pn": pc.cast(agg["lat_cd_count"], pa.int64()),
                         "lat_min": agg["lat_cd_min"],
                         "lat_max": agg["lat_cd_max"],
                         "lon_min": agg["lon_cd_min"],
                         "lon_max": agg["lon_cd_max"]})

    merged = (_geo_located_ips(sf_dir)
              .map_batches(partial, batch_format="pyarrow")
              .groupby("cc")
              .aggregate(Sum("pn", alias_name="n"),
                         Min("lat_min", alias_name="min_lat_cd"),
                         Max("lat_max", alias_name="max_lat_cd"),
                         Min("lon_min", alias_name="min_lon_cd"),
                         Max("lon_max", alias_name="max_lon_cd")))
    df = merged.to_pandas().sort_values("cc").reset_index(drop=True)
    for c in df.columns:
        if c != "cc":
            df[c] = df[c].astype("int64")
    return pa.Table.from_pandas(
        df[["cc", "n", "min_lat_cd", "max_lat_cd",
            "min_lon_cd", "max_lon_cd"]], preserve_index=False)


def q_missing_agg(sf_dir: str):
    """ES ``missing`` bucket of a terms aggregation on a multi-valued
    enriched field: events are bucketed by the DISTINCT countries of
    their enriched public IPs (a doc counts once per distinct value —
    the ES multi-value contract), and events whose enrichment produced
    NO public IP land in the ``__missing__`` bucket (the reference's
    all-private/invalid case, core/geoip.py:101-106). Per-batch partial
    counts; only (bucket, n) partials cross the shuffle."""
    import ray
    from ray.data.aggregate import Sum

    from ..stages.geoip import GeoIPEnrich, _fake_geo_db

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "props"])
    lines = ds.map_batches(_derive_ip_lines, batch_format="pyarrow")
    db_ref = ray.put(_fake_geo_db())
    enriched = lines.map_batches(
        GeoIPEnrich, fn_constructor_args=(db_ref,),
        fn_constructor_kwargs={"text_col": "line", "cache_size": 100_000},
        batch_format="pyarrow", concurrency=(1, 4))

    def partial(t: pa.Table) -> pa.Table:
        g = t["geo_ips"]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        n_missing = int(pc.sum(pc.cast(
            pc.equal(pc.list_value_length(g), 0), pa.int64())).as_py() or 0)
        flat = pc.list_flatten(g)
        parent = pc.list_parent_indices(g)
        pairs = (pa.table({"parent": parent,
                           "bucket": pc.struct_field(flat, "country_code")})
                 .group_by(["parent", "bucket"]).aggregate([]))
        agg = (pa.table({"bucket": pairs["bucket"]})
               .group_by("bucket").aggregate([("bucket", "count")]))
        buckets = agg["bucket"].to_pylist() + ["__missing__"]
        counts = [int(x) for x in agg["bucket_count"].to_pylist()] \
            + [n_missing]
        return pa.table({"bucket": pa.array(buckets),
                         "pn": pa.array(counts, pa.int64())})

    out = (enriched.map_batches(partial, batch_format="pyarrow")
           .groupby("bucket").aggregate(Sum("pn", alias_name="n")))
    df = out.to_pandas().sort_values("bucket").reset_index(drop=True)
    df = df[df["n"] > 0]
    df["n"] = df["n"].astype("int64")
    return pa.Table.from_pandas(df, preserve_index=False)


def q_global_agg(sf_dir: str):
    """ES ``global`` aggregation: a bucket that escapes the query
    context. The query scope is ``event_type = 'error'``; both scopes
    report count and the exact integer value sum plus a shared-op-tree
    double mean — one pass, two mergeable partial rows per batch."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        err = pc.equal(t["event_type"], "error")
        n_err = int(pc.sum(pc.cast(err, pa.int64())).as_py() or 0)
        s_err = int(pc.sum(pc.if_else(err, micro, pa.scalar(
            0, pa.int64()))).as_py() or 0)
        return pa.table({
            "scope": pa.array(["query", "global"]),
            "pn": pa.array([n_err, t.num_rows], pa.int64()),
            "ps": pa.array([s_err,
                            int(pc.sum(micro).as_py() or 0)], pa.int64())})

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("scope")
           .aggregate(Sum("pn", alias_name="n"),
                      Sum("ps", alias_name="sum_value_micro")))
    df = out.to_pandas().sort_values("scope").reset_index(drop=True)
    df["n"] = df["n"].astype("int64")
    df["sum_value_micro"] = df["sum_value_micro"].astype("int64")
    df["avg_value"] = (df["sum_value_micro"].to_numpy(np.float64)
                       / df["n"].to_numpy(np.float64)) / 1e6
    return pa.Table.from_pandas(df, preserve_index=False)


def q_date_range_agg(sf_dir: str):
    """ES ``date_range`` aggregation: custom (uneven) date boundaries —
    unlike date_histogram's fixed interval — with per-bucket count and
    exact integer value sum. Bucket assignment is a vectorized
    searchsorted against the two boundary timestamps."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    labels = np.array(["r0_before_jan10", "r1_jan10_to_jan20",
                       "r2_from_jan20"])
    bounds = np.array([np.datetime64("2024-01-10"),
                       np.datetime64("2024-01-20")])

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        lab = labels[np.searchsorted(bounds, ts, side="right")]
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        agg = (pa.table({"bucket": pa.array(lab.tolist()),
                         "micro": micro})
               .group_by("bucket")
               .aggregate([("micro", "count"), ("micro", "sum")]))
        return pa.table({"bucket": agg["bucket"],
                         "pn": pc.cast(agg["micro_count"], pa.int64()),
                         "ps": agg["micro_sum"]})

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Sum("pn", alias_name="n"),
                      Sum("ps", alias_name="sum_value_micro")))
    df = out.to_pandas().sort_values("bucket").reset_index(drop=True)
    for c in ("n", "sum_value_micro"):
        df[c] = df[c].astype("int64")
    return pa.Table.from_pandas(df, preserve_index=False)


def q_ip_range_agg(sf_dir: str):
    """ES ``ip_range`` aggregation over the enriched public source IPs:
    buckets on the numeric uint32 form of the address (the ES ip_range
    CIDR semantics), per-bucket occurrence and unique-IP counts. Same
    (bucket, ip)-keyed exchange as geo_distance — distinct counting
    without broadcasting raw rows."""
    from ray.data.aggregate import Sum

    bounds = np.array([32 << 24, 64 << 24, 96 << 24], dtype=np.int64)
    labels = np.array(["r0_lt_32.0.0.0", "r1_32_to_64", "r2_64_to_96",
                       "r3_ge_96.0.0.0"])

    def partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["ip"], ".")
        num = np.zeros(t.num_rows, dtype=np.int64)
        for i, shift in enumerate((24, 16, 8, 0)):
            o = pc.cast(pc.list_element(parts, i), pa.int64()) \
                .to_numpy(zero_copy_only=False)
            num += o << shift
        lab = labels[np.searchsorted(bounds, num, side="right")]
        agg = (pa.table({"bucket": pa.array(lab.tolist()), "ip": t["ip"]})
               .group_by(["bucket", "ip"]).aggregate([("ip", "count")]))
        return pa.table({"bucket": agg["bucket"], "ip": agg["ip"],
                         "pn": agg["ip_count"]})

    per_ip = (_geo_located_ips(sf_dir)
              .map_batches(partial, batch_format="pyarrow")
              .groupby(["bucket", "ip"])
              .aggregate(Sum("pn", alias_name="n")))

    def rollup(t: pa.Table) -> pa.Table:
        agg = (pa.table({"bucket": t["bucket"], "n": t["n"]})
               .group_by("bucket")
               .aggregate([("n", "sum"), ("n", "count")]))
        return pa.table({"bucket": agg["bucket"],
                         "n": pc.cast(agg["n_sum"], pa.int64()),
                         "n_uniq_ips": pc.cast(agg["n_count"],
                                               pa.int64())})

    out = (per_ip.map_batches(rollup, batch_format="pyarrow").to_pandas()
           .groupby("bucket", as_index=False)
           .agg(n=("n", "sum"), n_uniq_ips=("n_uniq_ips", "sum"))
           .sort_values("bucket").reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


def q_ip_prefix_agg(sf_dir: str):
    """ES ``ip_prefix`` aggregation (prefix_length=12) over the
    enriched public source IPs: bucket each IP by its /12 network address
    (top 8 bits = first octet, next 4 bits = the second octet's high
    nibble), per-bucket occurrence and unique-IP counts — the subnet
    rollup the ES agg serves for IPv4 fields. Same (bucket, ip)-keyed
    pre-aggregated exchange as ip_range_agg: distinct counting without
    broadcasting raw rows."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["ip"], ".")
        o1 = pc.cast(pc.list_element(parts, 0), pa.int64())
        o2 = pc.cast(pc.list_element(parts, 1), pa.int64())
        o2p = pc.multiply(pc.divide(o2, 16), 16)  # high nibble of o2
        lab = pc.binary_join_element_wise(
            pc.cast(o1, pa.string()), pc.cast(o2p, pa.string()),
            "0.0/12", ".")
        agg = (pa.table({"bucket": lab, "ip": t["ip"]})
               .group_by(["bucket", "ip"]).aggregate([("ip", "count")]))
        return pa.table({"bucket": agg["bucket"], "ip": agg["ip"],
                         "pn": agg["ip_count"]})

    per_ip = (_geo_located_ips(sf_dir)
              .map_batches(partial, batch_format="pyarrow")
              .groupby(["bucket", "ip"])
              .aggregate(Sum("pn", alias_name="n")))

    def rollup(t: pa.Table) -> pa.Table:
        agg = (pa.table({"bucket": t["bucket"], "n": t["n"]})
               .group_by("bucket")
               .aggregate([("n", "sum"), ("n", "count")]))
        return pa.table({"bucket": agg["bucket"],
                         "n": pc.cast(agg["n_sum"], pa.int64()),
                         "n_uniq_ips": pc.cast(agg["n_count"],
                                               pa.int64())})

    out = (per_ip.map_batches(rollup, batch_format="pyarrow").to_pandas()
           .groupby("bucket", as_index=False)
           .agg(n=("n", "sum"), n_uniq_ips=("n_uniq_ips", "sum"))
           .sort_values("bucket").reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


def q_cumulative_cardinality(sf_dir: str):
    """ES ``cumulative_cardinality`` pipeline aggregation (the
    running-distinct-users growth curve), computed EXACTLY without an
    N-sized distinct shuffle per bucket: cumulative distinct count at
    day d == the number of users whose FIRST event day <= d, so the
    exchange is one groupby(user).min(day) keys-only pass, a per-day
    first-seen count, and a cumulative post-pass over the ~30 bucket
    rows (bounded by bucket count, as in ES)."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    first_day = (ds.map_batches(prep, batch_format="pyarrow")
                 .groupby("user_id").aggregate(Min("day",
                                                   alias_name="first_day")))
    per_day = (first_day.groupby("first_day")
               .aggregate(Count(alias_name="new_users")))
    df = per_day.to_pandas().sort_values("first_day").reset_index(drop=True)
    df["new_users"] = df["new_users"].astype("int64")
    df["cumulative_users"] = df["new_users"].cumsum().astype("int64")
    df = df.rename(columns={"first_day": "day"})
    return pa.Table.from_pandas(
        df[["day", "new_users", "cumulative_users"]], preserve_index=False)


def q_t_test_agg(sf_dir: str):
    """ES ``t_test`` aggregation (Welch's unpaired t between two event
    types' values). Exact mergeable integer partials (n, sum, sumsq in
    CENTS — cents² sums stay < 2^53 so every component converts to
    double losslessly); the final Welch formula is evaluated ONCE
    driver-side in float64 with the same operation tree as the oracle,
    so means and the t statistic hash bit-identically."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["error", "purchase"]))
        t = t.filter(keep)
        cents = pc.cast(pc.round(pc.multiply(t["value"], 1e2), ndigits=0),
                        pa.int64())
        sq = pc.multiply(cents, cents)
        agg = (pa.table({"grp": t["event_type"], "c": cents, "sq": sq})
               .group_by("grp")
               .aggregate([("c", "count"), ("c", "sum"), ("sq", "sum")]))
        return pa.table({"grp": agg["grp"],
                         "pn": pc.cast(agg["c_count"], pa.int64()),
                         "ps": agg["c_sum"], "pss": agg["sq_sum"]})

    merged = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("grp")
              .aggregate(Sum("pn", alias_name="n"),
                         Sum("ps", alias_name="s"),
                         Sum("pss", alias_name="ss")))
    rows = {r["grp"]: r for r in merged.to_pandas().to_dict("records")}
    a, b = rows["error"], rows["purchase"]
    n1, s1, ss1 = float(a["n"]), float(a["s"]), float(a["ss"])
    n2, s2, ss2 = float(b["n"]), float(b["s"]), float(b["ss"])
    m1, m2 = s1 / n1, s2 / n2
    v1 = (ss1 - s1 * s1 / n1) / (n1 - 1.0)
    v2 = (ss2 - s2 * s2 / n2) / (n2 - 1.0)
    t_stat = (m1 - m2) / float(np.sqrt(v1 / n1 + v2 / n2))
    return pa.table({"n_a": pa.array([int(a["n"])], pa.int64()),
                     "n_b": pa.array([int(b["n"])], pa.int64()),
                     "mean_a_cents": pa.array([m1], pa.float64()),
                     "mean_b_cents": pa.array([m2], pa.float64()),
                     "t_stat": pa.array([t_stat], pa.float64())})


def q_mad_agg(sf_dir: str):
    """ES ``median_absolute_deviation`` aggregation per event type —
    exact two-pass MAD over integer micros inside ONE ``map_groups``
    (the group sorts locally; the shuffle moves each event once), both
    medians using the quantile_disc index convention shared with
    value_quantiles."""
    import math

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6), ndigits=0),
                        pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "value_micro": micro})

    def mad(g: pa.Table) -> pa.Table:
        v = np.sort(g["value_micro"].to_numpy(zero_copy_only=False))
        n = v.size
        med = int(v[max(0, math.ceil(0.5 * n) - 1)])
        dev = np.sort(np.abs(v - med))
        mad_v = int(dev[max(0, math.ceil(0.5 * n) - 1)])
        return pa.table({"event_type": pa.array([g["event_type"][0]
                                                 .as_py()]),
                         "n": pa.array([n], pa.int64()),
                         "median_micro": pa.array([med], pa.int64()),
                         "mad_micro": pa.array([mad_v], pa.int64())})

    out = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("event_type").map_groups(mad, batch_format="pyarrow"))
    return out.sort("event_type")


def q_diversified_sampler_agg(sf_dir: str):
    """ES ``diversified_sampler`` aggregation: a deterministic sample —
    first 200 events in (ts, event_id) order with AT MOST 2 PER USER
    (the de-duplication field) — feeding a sub-aggregation (count + avg
    value per event type). The per-user cap is one groupby shuffle
    emitting <=2 rows per user; the global head is the existing
    distributed top-k; only 200 rows reach the driver."""
    import pandas as pd

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "event_type",
                        "value"])

    def cap(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["ts", "event_id"]).head(2)

    capped = ds.groupby("user_id").map_groups(cap, batch_format="pandas")
    sample = topk(capped, 200, [("ts", "ascending"),
                                ("event_id", "ascending")])
    micro = np.round(sample["value"].to_numpy(np.float64)
                     * 1e6).astype(np.int64)
    sample = sample.assign(micro=micro)
    agg = (sample.groupby("event_type", as_index=False)
           .agg(n=("micro", "size"), sum_value_micro=("micro", "sum"))
           .sort_values("event_type").reset_index(drop=True))
    agg["n"] = agg["n"].astype("int64")
    agg["sum_value_micro"] = agg["sum_value_micro"].astype("int64")
    return pa.Table.from_pandas(agg, preserve_index=False)


def q_reverse_nested_agg(sf_dir: str):
    """ES ``reverse_nested`` aggregation over the true nested data model
    (docs with ``events: list<struct>``, stages/nested.py — the
    reference's analysis documents hold events lists, SURVEY §1.3): a
    terms agg on the NESTED field ``events.event_type`` whose
    reverse_nested sub-agg counts PARENT DOCUMENTS — n_events counts
    every nested hit, n_parent_docs counts each parent once per
    distinct value. Per-batch partials only."""
    from ray.data.aggregate import Sum

    from ..stages.nested import build_event_docs

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "event_type", "ts"])
    docs = build_event_docs(ds)

    def partial(t: pa.Table) -> pa.Table:
        g = t["events"]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        flat = pc.list_flatten(g)
        parent = pc.list_parent_indices(g)
        etype = pc.struct_field(flat, "event_type")
        ev = (pa.table({"event_type": etype})
              .group_by("event_type").aggregate([("event_type", "count")]))
        par = (pa.table({"parent": parent, "event_type": etype})
               .group_by(["parent", "event_type"]).aggregate([])
               .group_by("event_type").aggregate([("event_type",
                                                   "count")]))
        ev_d = dict(zip(ev["event_type"].to_pylist(),
                        ev["event_type_count"].to_pylist()))
        par_d = dict(zip(par["event_type"].to_pylist(),
                         par["event_type_count"].to_pylist()))
        keys = sorted(ev_d)
        return pa.table({
            "event_type": pa.array(keys),
            "pe": pa.array([int(ev_d[k]) for k in keys], pa.int64()),
            "pp": pa.array([int(par_d.get(k, 0)) for k in keys],
                           pa.int64())})

    out = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("pe", alias_name="n_events"),
                      Sum("pp", alias_name="n_parent_docs")))
    df = out.to_pandas().sort_values("event_type").reset_index(drop=True)
    for c in ("n_events", "n_parent_docs"):
        df[c] = df[c].astype("int64")
    return pa.Table.from_pandas(df, preserve_index=False)


def q_hybrid_search_rrf(sf_dir: str):
    """Hybrid lexical+vector retrieval with reciprocal-rank fusion (the
    ES 8.x ``rrf`` retriever): BM25 top-50 for the standard query text
    and brute-force cosine top-50 for query vector 0 (vec_id is
    id-aligned with doc_id in the test tables), fused as
    sum(1 / (60 + rank)) over both lists, top-10 by (rrf desc, doc_id).
    The fusion itself is driver-side over two k-sized lists — the heavy
    lifting is the two existing distributed retrievers."""
    eng = _docs_engine(sf_dir)
    bm = eng.search(BM25_QUERY_TEXT, k=50, with_meta=False)
    from ..ann import cosine_topk_bruteforce

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    kn = cosine_topk_bruteforce(ds, _query_vector(sf_dir), k=50)

    fused: dict[int, float] = {}
    for rank, did in enumerate(bm["doc_id"].to_pylist(), start=1):
        fused[int(did)] = fused.get(int(did), 0.0) + 1.0 / (60 + rank)
    for rank, did in enumerate(kn["vec_id"].to_pylist(), start=1):
        fused[int(did)] = fused.get(int(did), 0.0) + 1.0 / (60 + rank)
    order = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return pa.table({
        "doc_id": pa.array([d for d, _ in order], pa.int64()),
        "rrf_score": _round6(pa.array([s for _, s in order],
                                      pa.float64()))})


def q_gopher_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1:
    repetitious documents are low-quality): per document, the fraction
    of tokens belonging to the most frequent unigram and the fraction
    covered by the most frequent bigram. Everything is computed inside
    one map_batches with Arrow hash aggregates (each doc lives in one
    batch, so per-batch maxima are global) — zero shuffles."""
    from ..dedup.jaccard import _shingle_rows

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def per_doc(t: pa.Table) -> pa.Table:
        text = pc.utf8_lower(t["text"])
        lists = pc.split_pattern_regex(text, pattern="[^a-z0-9]+")
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists) \
            .to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = pc.filter(flat, pa.array(keep))
        parent = parent[keep]
        n_tok = np.bincount(parent, minlength=len(t)).astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        tok_rows = pa.table({"doc_id": pa.array(ids[parent], pa.int64()),
                             "tok": flat})
        uc = tok_rows.group_by(["doc_id", "tok"]).aggregate(
            [([], "count_all")])
        topu = uc.group_by("doc_id").aggregate([("count_all", "max")])
        bi = _shingle_rows(t, text_col="text", id_col="doc_id", n=2,
                           distinct=False)
        bc = bi.group_by(["doc_id", "sh"]).aggregate([([], "count_all")])
        topb = bc.group_by("doc_id").aggregate([("count_all", "max")])
        tu = dict(zip(topu["doc_id"].to_pylist(),
                      topu["count_all_max"].to_pylist()))
        tb = dict(zip(topb["doc_id"].to_pylist(),
                      topb["count_all_max"].to_pylist()))
        m = n_tok > 0
        ids_k = ids[m]
        n_k = n_tok[m].astype(np.float64)
        u = np.array([tu.get(int(i), 0) for i in ids_k], dtype=np.int64)
        b = np.array([tb.get(int(i), 0) for i in ids_k], dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(ids_k, pa.int64()),
            "n_tokens": pa.array(n_tok[m], pa.int64()),
            "top_unigram": pa.array(u, pa.int64()),
            "top_bigram": pa.array(b, pa.int64()),
            "top_unigram_frac": pa.array(u / n_k, pa.float64()),
            "top_bigram_frac": pa.array(2 * b / n_k, pa.float64())})

    out = ds.map_batches(per_doc, batch_format="pyarrow").to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_hybrid_search_linear(sf_dir: str):
    """Hybrid retrieval with the ES 8.16 ``linear`` retriever (minmax
    normalizer): BM25 top-50 and brute-force cosine top-50 (same two
    retrievers as ``hybrid_search_rrf``), each list min-max normalized
    over its own retrieved pool (``(s - min) / (max - min)``, the ES
    ``minmax`` normalizer; degenerate one-score pools normalize to 1),
    fused as ``0.7 * lex + 0.3 * vec`` with absent-from-list = 0,
    top-10 by (score desc, doc_id). Like the RRF entry, fusion is
    driver-side over two k-sized lists — the distributed work is the
    two retrievers."""
    eng = _docs_engine(sf_dir)
    bm = eng.search(BM25_QUERY_TEXT, k=50, with_meta=False)
    from ..ann import cosine_topk_bruteforce

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    kn = cosine_topk_bruteforce(ds, _query_vector(sf_dir), k=50)

    def minmax(ids, scores) -> dict[int, float]:
        s = np.asarray(scores, dtype=np.float64)
        if s.size == 0:
            return {}
        lo, hi = float(s.min()), float(s.max())
        norm = np.ones_like(s) if hi == lo else (s - lo) / (hi - lo)
        return {int(i): float(v) for i, v in zip(ids, norm)}

    lex = minmax(bm["doc_id"].to_pylist(), bm["score"].to_pylist())
    vec = minmax(kn["vec_id"].to_pylist(), kn["cosine"].to_pylist())
    fused = {d: 0.7 * lex.get(d, 0.0) + 0.3 * vec.get(d, 0.0)
             for d in set(lex) | set(vec)}
    order = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return pa.table({
        "doc_id": pa.array([d for d, _ in order], pa.int64()),
        "linear_score": _round6(pa.array([s for _, s in order],
                                         pa.float64()))})


def q_late_interaction_maxsim(sf_dir: str):
    """Late-interaction (ColBERT / ES 8.18 ``rank_vectors`` +
    ``maxSimDotProduct``) scoring: each multi-vector document is a
    group of 4 consecutive embedding rows (``group_id = vec_id // 4``),
    the query is the 3 token vectors ``vec_id in (0, 1, 2)``, and
    score(doc) = sum over query tokens of the max dot product against
    any doc vector. Per batch: ONE matmul against the broadcast 3-row
    query matrix emits only (group_id, d0, d1, d2); a Max-aggregate
    groupby reduces per-group (groups may span block boundaries), so
    nothing vector-sized ever shuffles — the exchange is 4 scalar
    columns."""
    import ray
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    from ..ann.knn import _batch_vectors

    import pyarrow.dataset as pa_ds
    qt = pa_ds.dataset(os.path.join(sf_dir, "embeddings.parquet"),
                       format="parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") < 3).sort_by("vec_id")
    qmat = np.asarray(
        [r.as_py() for r in qt["embedding"]], dtype=np.float64)
    q_ref = ray.put(qmat)

    def dots(batch: pa.Table) -> pa.Table:
        mat = _batch_vectors(batch, "embedding")
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        if mat.size == 0:
            return pa.table({"group_id": pa.array([], pa.int64()),
                             "d0": pa.array([], pa.float64()),
                             "d1": pa.array([], pa.float64()),
                             "d2": pa.array([], pa.float64())})
        d = mat @ ray.get(q_ref).T  # n x 3
        return pa.table({"group_id": pa.array(ids // 4, pa.int64()),
                         "d0": pa.array(d[:, 0], pa.float64()),
                         "d1": pa.array(d[:, 1], pa.float64()),
                         "d2": pa.array(d[:, 2], pa.float64())})

    agg = (ds.map_batches(dots, batch_format="pyarrow")
           .groupby("group_id")
           .aggregate(Max("d0", alias_name="m0"),
                      Max("d1", alias_name="m1"),
                      Max("d2", alias_name="m2")))
    df = agg.to_pandas()
    raw = (df["m0"].to_numpy() + df["m1"].to_numpy()) \
        + df["m2"].to_numpy()
    df["_raw"] = raw
    df = df.sort_values(["_raw", "group_id"],
                        ascending=[False, True]).head(10)
    return pa.table({
        "group_id": pa.array(df["group_id"].astype("int64"),
                             pa.int64()),
        "maxsim_score": _round6(pa.array(df["_raw"], pa.float64()))})


def q_pii_scrub(sf_dir: str):
    """PII redaction (the C4/Dolma scrub step): deterministic log lines
    are derived from event fields (the driver tables embed no literal
    PII — same convention as the GeoIP entries' ``_derive_ip_lines``),
    then emails / IPv4s / phone numbers are counted and replaced with
    placeholder tags by vectorized RE2 kernels. Output: per-event-type
    counts and the total scrubbed length — partial-aggregated per batch
    so only (event_type, sums) rows cross the tiny shuffle."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "props"])

    pats = {"emails": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
            "phones": r"\+\d[\d-]{6,}\d",
            "ips": r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"}

    def scrub(t: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
            pa.int64()).to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)

        def s(a):
            return pc.cast(pa.array(a), pa.string())

        line = pc.binary_join_element_wise(
            pa.array(["user "] * t.num_rows), s(uid),
            pa.array([" <u"] * t.num_rows), s(uid),
            pa.array(["@example.org> from 10."] * t.num_rows),
            s(k % 256), pa.array(["."] * t.num_rows), s(uid % 256),
            pa.array(["."] * t.num_rows), s(1 + eid % 254),
            pa.array([" tel +1-555-"] * t.num_rows),
            pc.utf8_lpad(s(k % 10000), width=4, padding="0"),
            pa.array([" "] * t.num_rows), t["event_type"], "")
        counts = {name: pc.count_substring_regex(line, pattern=p)
                  for name, p in pats.items()}
        red = line
        for name, tag in (("emails", "<EMAIL>"), ("phones", "<PHONE>"),
                          ("ips", "<IP>")):
            red = pc.replace_substring_regex(red, pattern=pats[name],
                                             replacement=tag)
        part = pa.table({
            "event_type": t["event_type"],
            "n": pa.array(np.ones(t.num_rows, np.int64)),
            "n_emails": pc.cast(counts["emails"], pa.int64()),
            "n_phones": pc.cast(counts["phones"], pa.int64()),
            "n_ips": pc.cast(counts["ips"], pa.int64()),
            "scrubbed_chars": pc.cast(pc.utf8_length(red), pa.int64())})
        return part.group_by("event_type").aggregate(
            [("n", "sum"), ("n_emails", "sum"), ("n_phones", "sum"),
             ("n_ips", "sum"), ("scrubbed_chars", "sum")]) \
            .rename_columns(["event_type", "n", "n_emails", "n_phones",
                             "n_ips", "scrubbed_chars"])

    out = (ds.map_batches(scrub, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("n_emails", alias_name="n_emails"),
                      Sum("n_phones", alias_name="n_phones"),
                      Sum("n_ips", alias_name="n_ips"),
                      Sum("scrubbed_chars", alias_name="scrubbed_chars")))
    return out.sort("event_type")


def q_events_derivative(sf_dir: str):
    """ES ``derivative`` pipeline aggregation over the daily date
    histogram: day-over-day delta of the event count (first bucket has
    no derivative — NULL, like ES). The parent histogram is the
    distributed aggregate; the derivative is a vectorized diff over the
    ~30-row bucket table on the driver."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    daily = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("day").aggregate(Count(alias_name="n"))
             .sort("day").to_pandas())
    n = daily["n"].to_numpy()
    deriv = np.empty(len(n), dtype=np.float64)
    deriv[0] = np.nan
    if len(n) > 1:
        deriv[1:] = np.diff(n.astype(np.float64))
    return pa.table({
        "day": pa.array(daily["day"].tolist(), pa.string()),
        "n": pa.array(n, pa.int64()),
        "derivative": pa.array(
            [None if np.isnan(x) else x for x in deriv], pa.float64())})


def q_asof_join(sf_dir: str):
    """As-of join (an operator Ray Data lacks, built per the documented
    composition: hash-partition by key with ``groupby`` + per-group
    sorted ``searchsorted`` in ``map_groups``): each event is joined to
    the most recent strictly-prior 'error' event of the SAME user, then
    rolled up per event type (count, matched count, mean microseconds
    since the last error). Partitioning assumption: one key's history
    fits one task — users/devices/sessions at 100 TB are many and small;
    a single pathological key would need time-bucketed pre-splitting."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def per_user(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        order = np.argsort(ts, kind="stable")
        ts_s = ts[order]
        types = np.asarray(g["event_type"].to_pylist(), dtype=object)[order]
        err_ts = ts_s[types == "error"]
        # index of the last error strictly before each event
        pos = np.searchsorted(err_ts, ts_s, side="left") - 1
        matched = pos >= 0
        gap = np.where(matched, ts_s - err_ts[np.maximum(pos, 0)], 0)
        return pa.table({
            "event_type": pa.array(types, pa.string()),
            "matched": pa.array(matched.astype(np.int64)),
            "gap_us": pa.array(gap.astype(np.int64))})

    out = (ds.groupby("user_id")
           .map_groups(per_user, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Count(alias_name="n"),
                      Sum("matched", alias_name="n_matched"),
                      Sum("gap_us", alias_name="sum_gap_us"))
           .sort("event_type").to_pandas())
    n_m = out["n_matched"].to_numpy().astype(np.float64)
    avg = np.where(n_m > 0,
                   out["sum_gap_us"].to_numpy().astype(np.float64)
                   / np.maximum(n_m, 1.0), np.nan)
    return pa.table({
        "event_type": pa.array(out["event_type"].tolist(), pa.string()),
        "n": pa.array(out["n"].to_numpy(), pa.int64()),
        "n_matched": pa.array(out["n_matched"].to_numpy(), pa.int64()),
        "avg_us_since_error": pa.array(
            [None if np.isnan(x) else x for x in avg], pa.float64())})


def q_range_join(sf_dir: str):
    """Range (interval) join — the second operator the brief names that
    Ray Data lacks (asof_join is the first): every distinct 'error'
    event of a user opens a 10-minute window [ts, ts+10min), and ALL
    of that user's events falling inside the window join to it (row
    multiplication — an event can land in several overlapping windows,
    the property that separates a range join from as-of). Built per
    the same documented composition: hash-partition by key
    (``groupby(user)``), per-group vectorized interval matching — two
    ``searchsorted`` calls bound each window and a value prefix-sum
    turns per-window sums into O(1) lookups, so the group kernel is
    O((E+W) log E) with zero Python per row. One output row per
    window crosses the second (tiny) exchange. Partitioning
    assumption: one key's history fits one task (asof_join's note);
    overlapping-window blowup is bounded because output rows are
    per-WINDOW aggregates, never the multiplied pair set."""
    ds = _read(sf_dir, "events",
               columns=["user_id", "event_type", "ts", "value"])
    dur_us = 600 * 1_000_000

    def per_user(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        order = np.argsort(ts, kind="stable")
        ts_s = ts[order]
        vf = g["value"].to_numpy(zero_copy_only=False) * 1e6
        # half-away-from-zero, the DuckDB round() convention
        # (np.round is half-to-even and would diverge on exact halves)
        v = np.trunc(vf + np.copysign(0.5, vf)).astype(np.int64)[order]
        types = np.asarray(g["event_type"].to_pylist(),
                           dtype=object)[order]
        wstart = np.unique(ts_s[types == "error"])
        if wstart.size == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "wstart_us": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "sum_micro": pa.array([], pa.int64())})
        lo = np.searchsorted(ts_s, wstart, side="left")
        hi = np.searchsorted(ts_s, wstart + dur_us, side="left")
        pv = np.concatenate(([0], np.cumsum(v)))
        uid = int(g["user_id"][0].as_py())
        return pa.table({
            "user_id": pa.array(np.full(wstart.size, uid), pa.int64()),
            "wstart_us": pa.array(wstart, pa.int64()),
            "n_events": pa.array((hi - lo).astype(np.int64)),
            "sum_micro": pa.array(pv[hi] - pv[lo], pa.int64())})

    out = (ds.groupby("user_id")
           .map_groups(per_user, batch_format="pyarrow")
           .sort(["user_id", "wstart_us"]))
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_sessionize(sf_dir: str):
    """Gap-based sessionization (the streaming 'session window' the
    reference's count/timeout windows approximate, core/monitoring.py:
    326-438): per user, events sorted by time split into sessions at
    >30-minute gaps; one groupby(user) shuffle, per-group numpy (diff +
    cumsum + reduceat), one output row per user — no second exchange.
    Partitioning assumption: one key's history per task (as asof_join)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    gap_us = 1800 * 1_000_000

    def per_user(g: pa.Table) -> pa.Table:
        ts = np.sort(g["ts"].to_numpy(zero_copy_only=False)
                     .astype("datetime64[us]").astype(np.int64))
        new_s = np.empty(ts.size, dtype=bool)
        new_s[0] = True
        np.greater(np.diff(ts), gap_us, out=new_s[1:])
        starts = np.flatnonzero(new_s)
        ends = np.append(starts[1:], ts.size) - 1
        n_ev = np.append(starts[1:], ts.size) - starts
        dur = ts[ends] - ts[starts]
        return pa.table({
            "user_id": pa.array([g["user_id"][0].as_py()], pa.int64()),
            "n_sessions": pa.array([starts.size], pa.int64()),
            "n_events": pa.array([ts.size], pa.int64()),
            "longest_session_events": pa.array([int(n_ev.max())],
                                               pa.int64()),
            "total_session_us": pa.array([int(dur.sum())], pa.int64())})

    out = (ds.groupby("user_id").map_groups(per_user,
                                            batch_format="pyarrow")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


def q_ann_recall(sf_dir: str):
    """Recall@10 evaluation of the persisted approximate ANN paths (LSH
    multi-table, IVF) against the exact brute-force top-10 — the
    measure-don't-guess gate on the scale paths. Approximate results are
    not SQL-expressible, so this is a rows-only entry; the pinned floor
    is asserted in tests."""
    from ..ann import cosine_topk_bruteforce

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qv = _query_vector(sf_dir)
    exact = set(cosine_topk_bruteforce(ds, qv, k=10)["vec_id"]
                .to_pylist())
    lsh = set(q_embedding_knn_lsh(sf_dir)["vec_id"].to_pylist())
    ivf = set(q_embedding_knn_ivf(sf_dir)["vec_id"].to_pylist())
    return pa.table({
        "method": pa.array(["ivf", "lsh"], pa.string()),
        "recall_at_10": pa.array([len(exact & ivf) / 10.0,
                                  len(exact & lsh) / 10.0], pa.float64())})


def q_bpe_encode(sf_dir: str):
    """BPE tokenizer APPLICATION (the inference half of bpe_learn): the
    20 learned merges broadcast once, documents encoded by an actor-pool
    stage memoizing word-type encodings per worker, then one (token)
    groupby — top-20 corpus BPE tokens by count. Iterative-merge
    semantics aren't SQL-expressible (rows-only); encode parity with the
    brute-force reference is pinned in tests."""
    from ..analysis.bpe import encode_token_counts, learn_bpe

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    merges = learn_bpe(ds, n_merges=20)
    return encode_token_counts(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), merges)


def q_tokenizer_fertility(sf_dir: str):
    """Tokenizer-quality evaluation for training pipelines: per-lang
    FERTILITY (BPE tokens per word character) under the 20 learned
    merges — the standard multilingual-tokenizer health metric (high
    fertility = a lang the vocab serves poorly). Mergeable integer
    partials from an actor-pool encode (word-type memo per worker);
    rows-only (iterative-merge semantics aren't SQL-expressible);
    parity with a brute-force python encode is pinned in tests."""
    from ..analysis.bpe import fertility_by_group, learn_bpe

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    merges = learn_bpe(ds, n_merges=20)
    return fertility_by_group(
        _read(sf_dir, "documents", columns=["doc_id", "text", "lang"]),
        merges, group_col="lang")


def q_training_shards(sf_dir: str):
    """Training-data export: deterministic pseudo-shuffle (multiplicative
    hash — identical across reruns, block orders and cluster sizes,
    unlike random_shuffle) + hive-partitioned parquet write (one
    directory per shard — the resumable-output layout: a failed export
    re-runs only missing shard dirs) + a read-back summary computed FROM
    THE WRITTEN FILES, proving the round trip. Exact SQL oracle over the
    same shard/order arithmetic."""
    import shutil
    import tempfile

    import ray.data as rd

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def assign(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_chars": t["n_chars"],
            "shard_id": pa.array((did * 2654435761) % 8, pa.int64()),
            "h": pa.array((did * 40503) % 65536, pa.int64())})

    out_dir = os.path.join(
        tempfile.gettempdir(),
        f"train_shards_{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(out_dir, ignore_errors=True)
    ds.map_batches(assign, batch_format="pyarrow") \
        .write_parquet(out_dir, partition_cols=["shard_id"])

    back = rd.read_parquet(out_dir)

    def summarize(g: pa.Table) -> pa.Table:
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        h = g["h"].to_numpy(zero_copy_only=False)
        key = h * 1_000_000 + did  # composite order (h, doc_id)
        first = did[np.argmin(key)]
        last = did[np.argmax(key)]
        return pa.table({
            "shard_id": pa.array(
                [int(g["shard_id"][0].as_py())], pa.int64()),
            "n_docs": pa.array([g.num_rows], pa.int64()),
            "total_chars": pa.array(
                [int(g["n_chars"].to_numpy(
                    zero_copy_only=False).sum())], pa.int64()),
            "first_doc": pa.array([int(first)], pa.int64()),
            "last_doc": pa.array([int(last)], pa.int64())})

    out = (back.groupby("shard_id")
           .map_groups(summarize, batch_format="pyarrow")
           .to_pandas().sort_values("shard_id").reset_index(drop=True))
    return pa.Table.from_pandas(out, preserve_index=False)


def q_embedding_quantize(sf_dir: str):
    """Int8 scalar quantization of the embedding column (ann/quantize.py
    — 4x less vector IO at 100 TB): one distributed per-dimension
    min/max pass, then quantized brute-force top-10 compared against the
    float top-10. Reports recall@10 and the max |cosine error| over the
    quantized list — quantization loss isn't SQL-expressible
    (rows-only); floors pinned in tests."""
    from ..ann import cosine_topk_bruteforce
    from ..ann.quantize import dim_minmax, quantized_topk

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qv = _query_vector(sf_dir)
    mins, maxs = dim_minmax(
        _read(sf_dir, "embeddings", columns=["embedding"]))
    qt = quantized_topk(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        qv, mins, maxs, k=10)
    ft = cosine_topk_bruteforce(ds, qv, k=10)
    exact = dict(zip(ft["vec_id"].to_pylist(), ft["cosine"].to_pylist()))
    got_ids = qt["vec_id"].to_pylist()
    recall = len(set(exact) & set(got_ids)) / 10.0
    errs = [abs(c - exact[i]) for i, c in
            zip(got_ids, qt["cosine"].to_pylist()) if i in exact]
    return pa.table({
        "method": pa.array(["int8"], pa.string()),
        "recall_at_10": pa.array([recall], pa.float64()),
        "max_abs_cos_err": pa.array([max(errs) if errs else 0.0],
                                    pa.float64())})


def q_embedding_knn_lsh_q8(sf_dir: str):
    """Quantized persisted-index ANN: the LSH bucket partitions store
    int8 CODES (ann/store.py quantize=True — 4x less raw vector IO per
    probed partition; dequantize params ride in meta.json). Approximate
    by design (rows-only); near-identity to the float store is pinned
    in test_ann_store.py."""
    from ..ann import build_lsh_index, lsh_index_topk

    idx = _ann_index_dir(sf_dir, "lsh_q8")
    if not os.path.exists(os.path.join(idx, "meta.json")):
        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        build_lsh_index(ds, idx, n_planes=6, n_tables=4, seed=42,
                        quantize=True)
    out = lsh_index_topk(idx, _query_vector(sf_dir), k=10, n_probes=8)
    return pa.table({"vec_id": out["vec_id"],
                     "cosine": _round6(out["cosine"])})


def q_bucket_selector(sf_dir: str):
    """ES ``bucket_selector`` pipeline agg (the HAVING of the agg DSL):
    keep daily buckets whose event count exceeds the day-mean — parent
    histogram distributed, selector predicate over the ~30-row bucket
    table on the driver."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    daily = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("day").aggregate(Count(alias_name="n"))
             .sort("day").to_pandas())
    n = daily["n"].to_numpy().astype(np.float64)
    keep = n > n.mean()
    return pa.table({
        "day": pa.array(daily["day"][keep].tolist(), pa.string()),
        "n": pa.array(daily["n"].to_numpy()[keep], pa.int64())})


def q_serial_diff(sf_dir: str):
    """ES ``serial_diff`` pipeline agg with lag=7 (week-over-week delta
    of the daily count); first 7 buckets NULL, like ES."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    daily = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("day").aggregate(Count(alias_name="n"))
             .sort("day").to_pandas())
    n = daily["n"].to_numpy()
    lag = 7
    diff = [None] * len(n)
    for i in range(lag, len(n)):
        diff[i] = float(n[i] - n[i - lag])
    return pa.table({
        "day": pa.array(daily["day"].tolist(), pa.string()),
        "n": pa.array(n, pa.int64()),
        "diff7": pa.array(diff, pa.float64())})


def q_span_first(sf_dir: str):
    """ES ``span_first``: docs where 'merge' occurs among the first 10
    tokens (single-term span end <= 10), with qualifying occurrence
    counts — positional sidecar pruned to the candidate plan
    (query/phrase.py span_first_match)."""
    eng = _docs_engine(sf_dir)
    return eng.span_first_match("merge", end=10)


def q_span_not(sf_dir: str):
    """ES ``span_not``: occurrences of 'sort' with NO 'merge' within 2
    tokens on either side (pre=post=2); docs where every occurrence is
    excluded drop out. n_matches counts surviving occurrences."""
    eng = _docs_engine(sf_dir)
    return eng.span_not_match("sort", "merge", pre=2, post=2)


def q_terms_set(sf_dir: str):
    """ES ``terms_set`` query: docs matching at least 3 of the 4
    standard query terms (distinct-term count, the constant
    minimum_should_match_script form), ranked by BM25 over their
    matched terms."""
    eng = _docs_engine(sf_dir)
    res = eng.terms_set_search(BM25_QUERY_TEXT.split(), min_match=3,
                               k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_categorize_text(sf_dir: str):
    """ES ``categorize_text`` aggregation analog: log messages grouped
    by token pattern after masking numeric runs (the ES categorizer's
    number-stripping step) — the "what message shapes dominate this
    index" panel. The message line is derived deterministically from
    each event (type + user + session k + a k-parity suffix) since the
    driver tables embed no raw log text; masking and counting are one
    regex kernel + per-batch partial counts, then a single small
    template groupby. Top 10 by (count desc, template asc)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
            pa.int64())
        suffix = np.array([" retry", " ok", ""], dtype=object)[
            k.to_numpy(zero_copy_only=False) % 3]
        n_rows = t.num_rows
        line = pc.binary_join_element_wise(
            t["event_type"], pa.array([" user="] * n_rows),
            pc.cast(t["user_id"], pa.string()),
            pa.array([" session k="] * n_rows),
            pc.cast(k, pa.string()),
            pa.array(suffix.tolist(), pa.string()), "")
        masked = pc.replace_substring_regex(line, r"[0-9]+", "#")
        agg = (pa.table({"template": masked}).group_by("template")
               .aggregate([([], "count_all")]))
        return pa.table({"template": agg["template"],
                         "pn": pc.cast(agg["count_all"], pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("template").aggregate(Sum("pn", alias_name="n")))
    df = topk(counts, 10, [("n", "descending"),
                           ("template", "ascending")])
    df["n"] = df["n"].astype("int64")
    return pa.Table.from_pandas(df[["template", "n"]],
                                preserve_index=False)


def q_bucket_sort(sf_dir: str):
    """ES ``bucket_sort`` pipeline aggregation: the event_type terms
    buckets (count + integer micro sum of value) re-sorted by sum desc
    and truncated with from=1, size=3 — the ES bucket pagination
    contract (skip the biggest bucket, keep the next three). The parent
    agg is the distributed groupby; the sort/slice pass is
    bucket-bounded on the driver."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6),
                                 ndigits=0), pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "value_micro": micro})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_micro"))
           .to_pandas())
    pdf = (pdf.sort_values(["sum_micro", "event_type"],
                           ascending=[False, True])
           .iloc[1:4].reset_index(drop=True))
    pdf["n"] = pdf["n"].astype("int64")
    pdf["sum_micro"] = pdf["sum_micro"].astype("int64")
    return pa.Table.from_pandas(pdf[["event_type", "n", "sum_micro"]],
                                preserve_index=False)


def q_moving_median(sf_dir: str):
    """ES ``moving_percentiles`` analog (50th percentile, 7-bucket
    trailing window, the moving_fn percentile form): the daily count
    histogram with each bucket's median-of-last-7-days. Parent
    histogram distributed; the window pass is bucket-bounded and the
    midpoint average of two exact integers is exact in IEEE doubles, so
    it hashes identically to the SQL window median."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    daily = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("day").aggregate(Count(alias_name="n"))
             .sort("day").to_pandas())
    n = daily["n"].to_numpy(dtype=np.int64)
    med = [float(np.median(n[max(0, i - 6):i + 1]))
           for i in range(len(n))]
    return pa.table({
        "day": pa.array(daily["day"].tolist(), pa.string()),
        "n": pa.array(n, pa.int64()),
        "mov_median7": _round6(pa.array(med, pa.float64()))})


def q_frequent_item_sets(sf_dir: str):
    """ES ``frequent_item_sets`` aggregation analog over per-user
    transactions: each user's DISTINCT event_type set is one basket;
    report every 2-itemset with its support (number of users holding
    both items), support desc. Exchange shape: per-batch one-hot
    presence partials (5 item columns), ONE user groupby with Max
    (elementwise OR), then per-block pair-count partials — at most
    C(5,2)=10 rows leave any block, and the driver rollup is
    itemset-bounded, never user-bounded."""
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    items = ["click", "error", "purchase", "signup", "view"]

    def presence(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        cols = {"user_id": t["user_id"]}
        for it in items:
            cols[f"has_{it}"] = pa.array(
                (et == it).astype(np.int8), pa.int8())
        # per-batch pre-OR: one row per user in this batch
        agg = (pa.table(cols).group_by("user_id")
               .aggregate([(f"has_{it}", "max") for it in items]))
        return agg.rename_columns(
            ["user_id"] + [f"has_{it}" for it in items])

    baskets = (ds.map_batches(presence, batch_format="pyarrow")
               .groupby("user_id")
               .aggregate(*[Max(f"has_{it}", alias_name=f"has_{it}")
                            for it in items]))

    def pair_counts(t: pa.Table) -> pa.Table:
        has = {it: t[f"has_{it}"].to_numpy(zero_copy_only=False)
               .astype(bool) for it in items}
        rows_a, rows_b, rows_n = [], [], []
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                rows_a.append(a)
                rows_b.append(b)
                rows_n.append(int(np.sum(has[a] & has[b])))
        return pa.table({"item_a": pa.array(rows_a, pa.string()),
                         "item_b": pa.array(rows_b, pa.string()),
                         "pn": pa.array(rows_n, pa.int64())})

    pdf = (baskets.map_batches(pair_counts, batch_format="pyarrow")
           .to_pandas())
    pdf = (pdf.groupby(["item_a", "item_b"], as_index=False)
           .agg(support=("pn", "sum")))
    pdf = pdf[pdf["support"] > 0]
    pdf = (pdf.sort_values(["support", "item_a", "item_b"],
                           ascending=[False, True, True])
           .reset_index(drop=True))
    pdf["support"] = pdf["support"].astype("int64")
    return pa.Table.from_pandas(pdf, preserve_index=False)


def q_change_point(sf_dir: str):
    """ES ``change_point`` aggregation analog (step-change detection):
    over the daily count series, the split minimizing total within-
    segment squared error — equivalently maximizing g(k) = SL^2/k +
    SR^2/(n-k) with integer prefix sums cast to double BEFORE the
    multiply, the identical IEEE op tree as the SQL oracle (+,*,/ are
    exactly rounded, so the argmax agrees bit-for-bit; ties break on
    the earliest split). Returns one row: the first day of the right
    segment and both segment means. The series is bucket-bounded — the
    only data-sized work is the distributed histogram."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    daily = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("day").aggregate(Count(alias_name="n"))
             .sort("day").to_pandas())
    n = daily["n"].to_numpy(dtype=np.int64)
    days = daily["day"].tolist()
    total = len(n)
    if total < 2:
        return pa.table({"change_day": pa.array([], pa.string()),
                         "mean_before": pa.array([], pa.float64()),
                         "mean_after": pa.array([], pa.float64())})
    sl = np.cumsum(n)[:-1].astype(np.float64)          # k = 1..total-1
    sr = float(n.sum()) - sl
    k = np.arange(1, total, dtype=np.float64)
    g = sl * sl / k + sr * sr / (float(total) - k)
    best = int(np.argmax(g))                            # earliest max
    return pa.table({
        "change_day": pa.array([days[best + 1]], pa.string()),
        "mean_before": _round6(pa.array([sl[best] / k[best]],
                                        pa.float64())),
        "mean_after": _round6(pa.array(
            [sr[best] / (float(total) - k[best])], pa.float64()))})


def q_cross_fields(sf_dir: str):
    """ES ``multi_match`` type ``cross_fields`` over content + path:
    term-centric blending (idf from the max-across-fields df, per-doc
    max of per-field tf-norms, each field under its own avgdl — Lucene
    BlendedTermQuery). The query mixes content terms with 'md', which
    occurs ONLY in the path field — under best_fields its score would
    be drowned; cross_fields scores it with the blended idf."""
    eng = _docs_engine(sf_dir)
    res = eng.cross_fields_search("error merge md", k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


_EQL_SPAN_US = 30 * 60 * 1_000_000  # sequence maxspan: 30 minutes


def q_eql_sequence(sf_dir: str):
    """EQL ``sequence by user_id with maxspan=30m [error] [purchase]``
    analog (the reference's security-alert shape — ordered event pairs
    per entity within a window): per user, the count of (error ->
    purchase) pairs with 0 < dt <= 30min and the first matching error's
    timestamp. The type filter prunes inside map_batches BEFORE the one
    user groupby; each group's pair count is two searchsorteds over the
    user's own sorted timestamps — the span_near kernel on the time
    axis, nothing pair-sized materializes."""
    ds = _read(sf_dir, "events", columns=["ts", "user_id", "event_type"])

    def prune(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["error", "purchase"]))
        t = t.filter(keep)
        return pa.table({"user_id": t["user_id"],
                         "ts_us": pc.cast(t["ts"], pa.int64()),
                         "event_type": t["event_type"]})

    def per_user(g):
        et = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy()
        t1 = np.sort(ts[et == "error"])
        t2 = np.sort(ts[et == "purchase"])
        if t1.size == 0 or t2.size == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_sequences": pa.array([], pa.int64()),
                             "first_error_us": pa.array([], pa.int64())})
        cnt = (np.searchsorted(t2, t1 + _EQL_SPAN_US, side="right")
               - np.searchsorted(t2, t1, side="right"))
        n = int(cnt.sum())
        if n == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_sequences": pa.array([], pa.int64()),
                             "first_error_us": pa.array([], pa.int64())})
        first = int(t1[cnt > 0][0])
        return pa.table({
            "user_id": pa.array([int(g["user_id"].iloc[0])], pa.int64()),
            "n_sequences": pa.array([n], pa.int64()),
            "first_error_us": pa.array([first], pa.int64())})

    out = (ds.map_batches(prune, batch_format="pyarrow")
           .groupby("user_id")
           .map_groups(per_user, batch_format="pandas")
           .to_pandas())
    out = out.sort_values("user_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def _morton16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-interleave two 16-bit values into a 32-bit Morton code
    (a's bits at even positions) — vectorized, exact."""
    z = np.zeros(a.shape, dtype=np.int64)
    for i in range(16):
        z |= ((a >> i) & 1) << (2 * i)
        z |= ((b >> i) & 1) << (2 * i + 1)
    return z


def _morton16_sql(a_expr: str, b_expr: str) -> str:
    """The identical interleave as unrolled SQL bit arithmetic (the
    geohash oracle's generator pattern, stages/geo.geohash_sql). Every
    term is FULLY parenthesized — DuckDB gives ``&``, ``|`` and ``<<``
    equal precedence with left associativity, so an unparenthesized
    ``a << i | b << j`` chain shifts the accumulated OR."""
    terms = []
    for i in range(16):
        terms.append(f"((({a_expr} >> {i}) & 1) << {2 * i})")
        terms.append(f"((({b_expr} >> {i}) & 1) << {2 * i + 1})")
    return " | ".join(terms)


def _sorted_layout_dir(sf_dir: str) -> str:
    """Build (once, cached) the n_chars-sorted document layout."""
    import hashlib

    layout = os.path.join(
        "/tmp/lsai_sorted",
        hashlib.sha256(sf_dir.rstrip("/").encode()).hexdigest()[:16])
    if not os.path.isdir(layout):
        from ..index.sorted import build_sorted_layout

        ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
        build_sorted_layout(ds, layout, key="n_chars", id_col="doc_id",
                            num_parts=16)
    return layout


def q_sorted_index_topn(sf_dir: str):
    """Lucene ``index.sort`` / ES index-sorting analog
    (index/sorted.py): documents re-laid-out range-partitioned and
    sorted by n_chars, then ``ORDER BY n_chars, doc_id LIMIT 50``
    served with EARLY TERMINATION — the walk stops after the first
    file(s) holding 50 rows; `tests/test_sorted_layout.py` asserts the
    read touches < all files."""
    from ..index.sorted import sorted_topn

    out, _stats = sorted_topn(_sorted_layout_dir(sf_dir), 50)
    return pa.table({"doc_id": out["doc_id"],
                     "n_chars": out["n_chars"]})


def q_sorted_index_range(sf_dir: str):
    """Manifest-pruned key-range scan over the sorted layout (the
    lakehouse data-skipping contract): only partitions whose
    [kmin, kmax] intersects n_chars ∈ [110, 125] are opened."""
    from ..index.sorted import sorted_range

    out, _stats = sorted_range(_sorted_layout_dir(sf_dir), 110, 125)
    if out is None:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_chars": pa.array([], pa.int64())})
    return pa.table({"doc_id": out["doc_id"],
                     "n_chars": out["n_chars"]})


def q_zorder_layout(sf_dir: str):
    """Z-order (Morton) data-layout clustering — the lakehouse OPTIMIZE
    ZORDER BY technique that makes multi-column range scans prune at
    100 TB: events keyed by (user_id, day-of-series) interleave into a
    32-bit Morton code, rows re-sort by it, and the layout summary (16
    equal z-range partitions with row counts and the per-partition
    user/day bounding boxes) shows both dimensions staying clustered
    inside every partition. Sorting is the one all-to-all (inherent to
    re-layout); the summary is partial-aggregated per batch. The
    interleave is exact integer bit arithmetic, mirrored by unrolled
    SQL generated from the same Python (the geohash-oracle pattern)."""
    from ray.data.aggregate import Count, Max, Min

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    day_us = 24 * 3600 * 1_000_000

    def code(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False) & 0xFFFF
        d = (pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
             // day_us) & 0xFFFF
        z = _morton16(u, d)
        return pa.table({"z": pa.array(z, pa.int64()),
                         "user_id": t["user_id"],
                         "day": pa.array(d, pa.int64())})

    coded = ds.map_batches(code, batch_format="pyarrow")
    # two scalar aggregates bound the occupied code range (absolute
    # epoch days pin the high interleaved bits, so partitioning must be
    # range-relative to spread)
    zmin, zmax = int(coded.min("z")), int(coded.max("z"))

    def bucket(t: pa.Table) -> pa.Table:
        z = t["z"].to_numpy(zero_copy_only=False)
        zb = ((z - zmin) * 16) // (zmax - zmin + 1)
        return t.append_column("zpart", pa.array(zb, pa.int64()))

    out = (coded.map_batches(bucket, batch_format="pyarrow")
           .groupby("zpart")
           .aggregate(Count(alias_name="n"),
                      Min("z", alias_name="zmin"),
                      Max("z", alias_name="zmax"),
                      Min("user_id", alias_name="umin"),
                      Max("user_id", alias_name="umax"),
                      Min("day", alias_name="dmin"),
                      Max("day", alias_name="dmax"))
           .sort("zpart").to_pandas())
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_access_log_parse(sf_dir: str):
    """The reference's primary input — Apache combined-format access
    logs (analyzers/httpd_access.py; sample-logs/access-10k.log) —
    parsed with the real vectorized CLF parser (stages/accesslog.py):
    events render to deterministic combined lines, the parser extracts
    typed fields back, and the per-status rollup (count, total bytes,
    distinct IPs) must match the derivation arithmetic. One malformed
    line family (k % 41 == 0 drops the quote) exercises the
    dead-letter mask; those rows count under status = -1."""
    from ray.data.aggregate import Sum

    from ..stages.accesslog import parse_access_log

    ds = _read(sf_dir, "events", columns=["event_id", "user_id",
                                          "props"])

    def render(t: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
            pa.int64()).to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ip1 = 52 + (uid % 4)
        status = np.array([200, 200, 200, 404, 500, 301, 403],
                          dtype=np.int64)[k % 7]
        nbytes = (k * 17) % 4096
        n = t.num_rows
        quote = np.full(n, '"', dtype=object)
        quote[k % 41 == 0] = ""  # malformed family: unbalanced quote
        line = pc.binary_join_element_wise(
            pc.cast(pa.array(ip1), pa.string()),
            pa.array([".0."] * n),
            pc.cast(pa.array(uid % 256), pa.string()),
            pa.array([".9 - - [22/Jan/2019:03:56:14 +0330] "] * n),
            pa.array(quote.tolist(), pa.string()),
            pa.array(["GET /app/"] * n),
            pc.cast(pa.array(k), pa.string()),
            pa.array([' HTTP/1.1" '] * n),
            pc.cast(pa.array(status), pa.string()),
            pa.array([" "] * n),
            pc.cast(pa.array(nbytes), pa.string()), "")
        return pa.table({"event_id": t["event_id"], "line": line})

    parsed = (ds.map_batches(render, batch_format="pyarrow")
              .map_batches(parse_access_log, batch_format="pyarrow"))

    def partial(t: pa.Table) -> pa.Table:
        # unparsed rows have null fields (parsed=false): dead-letter
        # bucket = status -1, zero bytes
        status = pc.cast(pc.fill_null(t["status"], -1), pa.int64())
        nb = pc.fill_null(t["bytes"], 0)
        agg = (pa.table({"status": status, "b": nb})
               .group_by("status")
               .aggregate([([], "count_all"), ("b", "sum")]))
        return pa.table({"status": agg["status"],
                         "pn": pc.cast(agg["count_all"], pa.int64()),
                         "pb": pc.cast(agg["b_sum"], pa.int64())})

    out = (parsed.map_batches(partial, batch_format="pyarrow")
           .groupby("status")
           .aggregate(Sum("pn", alias_name="n"),
                      Sum("pb", alias_name="total_bytes"))
           .sort("status").to_pandas())
    out["n"] = out["n"].astype("int64")
    out["total_bytes"] = out["total_bytes"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_syslog_parse(sf_dir: str):
    """The reference's THIRD analyzer input — linux system logs
    (analyzers/linux_system.py:22-69; sample-logs/linux-2k.log) —
    through the real vectorized syslog parser (stages/syslog.py):
    events render to deterministic RFC3164 lines across the
    reference's event families (sshd auth failure/success, CRON
    pam_unix session, systemd service, kernel), one malformed family
    (k % 37 == 0) exercises the dead-letter mask, and the rollup
    reproduces the reference's Statistics shape (event_by_type with
    per-type counts + exact unique_users / unique_ips) — unique
    counts via the two-level groupby (each distinct (etype, value)
    pair crosses the exchange once). Line construction and field
    classification are Arrow kernels end to end."""
    from ray.data.aggregate import Count

    from ..stages.syslog import parse_syslog

    ds = _read(sf_dir, "events", columns=["user_id", "props"])

    def render(t: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
            pa.int64()).to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        n = t.num_rows

        def s(arr) -> pa.Array:
            return pc.cast(pa.array(arr), pa.string())

        def lit(x: str) -> pa.Array:
            return pa.array([x] * n, pa.string())

        join = pc.binary_join_element_wise
        user = join(lit("u"), s(uid), "")
        ip = join(lit("10.0."), s(uid % 4), lit("."), s(k % 256), "")
        sshd_tail = join(user, lit(" from "), ip, lit(" port "),
                         s(2200 + k % 100), lit(" ssh2"), "")
        fam = k % 5
        msg = pc.if_else(pa.array(fam == 0),
                         join(lit("Failed password for "), sshd_tail,
                              ""),
              pc.if_else(pa.array(fam == 1),
                         join(lit("Accepted password for "),
                              sshd_tail, ""),
              pc.if_else(pa.array(fam == 2),
                         join(lit("pam_unix(cron:session): session "
                                  "opened for user "), user, ""),
              pc.if_else(pa.array(fam == 3),
                         lit("Started Daily apt upgrade timer."),
                         lit("[123.456] audit: type=1400 denied")))))
        procpid = pc.if_else(pa.array(fam <= 1),
                             join(lit("sshd["), s(1000 + k % 500),
                                  lit("]"), ""),
                  pc.if_else(pa.array(fam == 2),
                             join(lit("CRON["), s(1000 + k % 500),
                                  lit("]"), ""),
                  pc.if_else(pa.array(fam == 3), lit("systemd[1]"),
                             lit("kernel"))))
        line = join(lit("Jan  5 03:02:01 host-"), s(uid % 8),
                    lit(" "), procpid, lit(": "), msg, "")
        line = pc.if_else(pa.array(k % 37 == 0),
                          join(lit("#### corrupt "), s(k), ""), line)
        return pa.table({"line": line})

    parsed = (ds.map_batches(render, batch_format="pyarrow")
              .map_batches(parse_syslog, batch_format="pyarrow"))
    return _syslog_stats_rollup(parsed)


def _syslog_stats_rollup(parsed) -> pa.Table:
    """The reference linux_system Statistics rollup shared by the
    synthetic (q_syslog_parse) and real-corpus (q_analyze_linux2k)
    entries: per-etype counts + exact unique_users / unique_ips via
    the two-level groupby (each distinct (etype, value) pair crosses
    the exchange once). The projected 3-column stream is materialized
    once (keys only, never line text) and consumed three times."""
    from ray.data.aggregate import Count

    parsed = (parsed.map_batches(lambda t: pa.table({
                  "etype": pc.fill_null(t["etype"], "_malformed"),
                  "username": t["username"], "ip": t["ip"]}),
                  batch_format="pyarrow")
              .materialize())  # consumed three times below
    counts = parsed.groupby("etype") \
        .aggregate(Count(alias_name="n")).to_pandas()
    uniq = {}
    for col, out_name in (("username", "unique_users"),
                          ("ip", "unique_ips")):
        d = (parsed.map_batches(
                lambda t, _c=col: t.filter(pc.is_valid(t[_c])),
                batch_format="pyarrow")
             .groupby(["etype", col]).count()
             .groupby("etype").aggregate(Count(alias_name=out_name))
             .to_pandas())
        uniq[out_name] = d
    out = counts
    for out_name, d in uniq.items():
        out = out.merge(d[["etype", out_name]], on="etype",
                        how="left")
        out[out_name] = out[out_name].fillna(0).astype("int64")
    out = out.sort_values("etype").reset_index(drop=True)
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(
        out[["etype", "n", "unique_users", "unique_ips"]],
        preserve_index=False)


REF_SAMPLE_LOGS = "/root/reference/sample-logs"

# registry entries that read files from outside the sf fixture:
# name -> required paths. Each such entry checks its paths before any
# Ray plan starts, and the oracle tests skip it while they are absent.
EXTERNAL_INPUTS: dict[str, tuple[str, ...]] = {
    "analyze_linux2k": (os.path.join(REF_SAMPLE_LOGS, "linux-2k.log"),),
    "analyze_apache100": (os.path.join(REF_SAMPLE_LOGS, "apache-100.log"),),
    "analyze_categorize": (os.path.join(REF_SAMPLE_LOGS, "linux-2k.log"),),
}


def missing_inputs(name: str) -> list[str]:
    """The declared external inputs of entry ``name`` that are absent."""
    return [p for p in EXTERNAL_INPUTS.get(name, ())
            if not os.path.exists(p)]


def _require_inputs(name: str) -> tuple[str, ...]:
    """Entry ``name``'s external input paths; FileNotFoundError naming
    the first absent one."""
    missing = missing_inputs(name)
    if missing:
        raise FileNotFoundError(
            f"queries()[{name!r}] needs {missing[0]}, which is not present"
            " (an external input, not part of the sf fixture)")
    return EXTERNAL_INPUTS[name]


def q_analyze_linux2k(sf_dir: str):
    """END-TO-END parity over the reference's OWN corpus: the real
    2000-line ``sample-logs/linux-2k.log`` (the manual-test corpus the
    reference's CONTRIBUTING.md:71-77 prescribes for the linux-system
    analyzer) streamed through ``ray.data.read_text`` → the vectorized
    syslog parser (stages/syslog.py) → the reference Statistics rollup
    (analyzers/linux_system.py:54-59). Ground truth: 490 auth_failure
    / 246 session events and >=99% parse rate (pinned in
    test_functions.py); the DuckDB oracle re-derives the SAME numbers
    from the SAME raw file with RE2 regexes, so the parser semantics
    are verified by two independent engines. ``sf_dir`` is unused —
    the corpus is fixed-size real data, identical at every sweep
    scale."""
    import ray.data as rd

    from ..stages.syslog import parse_syslog

    [path] = _require_inputs("analyze_linux2k")
    ds = rd.read_text(path)
    parsed = ds.map_batches(
        lambda t: parse_syslog(t, line_col="text"),
        batch_format="pyarrow")
    return _syslog_stats_rollup(parsed)


def q_analyze_apache100(sf_dir: str):
    """END-TO-END parity over the reference's OWN corpus: the real
    100-line ``sample-logs/apache-100.log`` through the vectorized
    Apache error-log parser (stages/errorlog.py) and the reference
    httpd_server Statistics rollup (analyzers/httpd_server.py:46-49:
    event_by_level + event_by_type) as long-form (dim, bucket, n)
    rows; the DuckDB oracle re-derives the same rollup from the same
    raw file. ``sf_dir`` is unused — fixed-size real data."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from ..stages.errorlog import parse_error_log

    [path] = _require_inputs("analyze_apache100")
    ds = rd.read_text(path)

    def proj(t: pa.Table) -> pa.Table:
        p = parse_error_log(t, line_col="text")
        lv = pc.fill_null(p["level"], "_malformed")
        et = pc.fill_null(p["etype"], "_malformed")

        def _arr(c):
            return c.combine_chunks() if isinstance(c, pa.ChunkedArray) \
                else c

        n = p.num_rows
        return pa.table({
            "dim": pa.array(["level"] * n + ["etype"] * n, pa.string()),
            "bucket": pa.concat_arrays([_arr(lv), _arr(et)])})

    out = (ds.map_batches(proj, batch_format="pyarrow")
           .groupby(["dim", "bucket"])
           .aggregate(Count(alias_name="n"))
           .to_pandas()
           .sort_values(["dim", "bucket"]).reset_index(drop=True))
    return pa.table({
        "dim": pa.array(out["dim"].tolist(), pa.string()),
        "bucket": pa.array(out["bucket"].tolist(), pa.string()),
        "n": pa.array(out["n"].astype("int64").tolist(), pa.int64())})


def q_error_log_parse(sf_dir: str):
    """The reference's FOURTH analyzer input — Apache httpd error
    logs (analyzers/httpd_server.py:17-59;
    sample-logs/apache-100.log) — through the real vectorized
    error-log parser (stages/errorlog.py): events render to
    deterministic ``[Thu Jun 09 ...] [level] [client IP]? msg`` lines
    across the reference's AttackType families
    (directory-traversal / invalid-method / unauthorized-access /
    missing-file / config-error / module-error), one malformed family
    (k % 43 == 0) exercises the dead-letter mask, and the rollup
    reproduces the reference ``Statistics`` shape
    (analyzers/httpd_server.py:46-49 — total_event + event_by_level
    + event_by_type) as long-form (dim, bucket, n) rows. Line
    construction and classification are Arrow kernels end to end;
    the exchange carries only per-batch partial counts."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from ..stages.errorlog import parse_error_log

    ds = _read(sf_dir, "events", columns=["user_id", "props"])

    def render(t: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
            pa.int64()).to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        n = t.num_rows

        def s(arr) -> pa.Array:
            return pc.cast(pa.array(arr), pa.string())

        def lit(x: str) -> pa.Array:
            return pa.array([x] * n, pa.string())

        join = pc.binary_join_element_wise
        fam = k % 6
        msg = pc.if_else(pa.array(fam == 0),
                         lit("Directory index forbidden by rule: "
                             "/var/www/html/"),
              pc.if_else(pa.array(fam == 1),
                         join(lit("File does not exist: "
                                  "/var/www/html/p"), s(k), ""),
              pc.if_else(pa.array(fam == 2),
                         join(lit("Invalid method in request get "
                                  "/scripts/.%252e/cmd.exe?"), s(k),
                              ""),
              pc.if_else(pa.array(fam == 3),
                         join(lit("config.update(): Can't create vm"),
                              s(k % 5), lit(":"), ""),
              pc.if_else(pa.array(fam == 4),
                         join(lit("jk2_init() Found child "),
                              s(1000 + k % 500),
                              lit(" in scoreboard slot "), s(k % 10),
                              ""),
                         join(lit("mod_jk child init 1 "), s(k % 3),
                              ""))))))
        level = pc.if_else(pa.array(fam <= 3), lit("error"),
                pc.if_else(pa.array(fam == 4), lit("notice"),
                           lit("warn")))
        client = pc.if_else(
            pa.array(fam <= 1),
            join(lit(" [client 10."), s(uid % 4), lit("."),
                 s(k % 256), lit(".7]"), ""),
            lit(""))
        line = join(lit("[Thu Jun 09 06:07:04 2005] ["), level,
                    lit("]"), client, lit(" "), msg, "")
        line = pc.if_else(pa.array(k % 43 == 0),
                          join(lit("#### corrupt "), s(k), ""), line)
        return pa.table({"line": line})

    def partial(t: pa.Table) -> pa.Table:
        level = pc.fill_null(t["level"], "_malformed")
        etype = pc.fill_null(t["etype"], "_malformed")
        lv = (pa.table({"bucket": level}).group_by("bucket")
              .aggregate([([], "count_all")]))
        ty = (pa.table({"bucket": etype}).group_by("bucket")
              .aggregate([([], "count_all")]))
        return pa.table({
            "dim": pa.array(["level"] * lv.num_rows
                            + ["type"] * ty.num_rows),
            "bucket": pa.concat_arrays(
                [lv["bucket"].combine_chunks(),
                 ty["bucket"].combine_chunks()]),
            "pn": pc.cast(pa.concat_arrays(
                [lv["count_all"].combine_chunks(),
                 ty["count_all"].combine_chunks()]), pa.int64())})

    agg = (ds.map_batches(render, batch_format="pyarrow")
           .map_batches(parse_error_log, batch_format="pyarrow")
           .map_batches(partial, batch_format="pyarrow")
           .groupby(["dim", "bucket"])
           .aggregate(Sum("pn", alias_name="n"))
           .to_pandas())
    total = int(agg.loc[(agg["dim"] == "level")
                        & (agg["bucket"] != "_malformed"), "n"].sum())
    out = pd.concat([agg, pd.DataFrame(
        [{"dim": "total", "bucket": "total_event", "n": total}])],
        ignore_index=True).sort_values(["dim", "bucket"]) \
        .reset_index(drop=True)
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out[["dim", "bucket", "n"]],
                                preserve_index=False)


def q_general_log_profile(sf_dir: str):
    """The reference's ``general_log`` analyzer analog
    (analyzers/general_log.py:17-90) — mixed-format pattern
    detection through the real vectorized profiler
    (stages/generallog.py): events render to a deterministic MIX of
    Apache combined, Apache error, RFC3164 syslog and JSON lines
    (one malformed family, k % 37 == 0), and the rollup reproduces
    the reference's flat pattern fields + EventStatistics shape
    (detected_formats / timestamp_patterns / log_sources /
    per-category counters / unique_sources / total_events) as
    long-form (dim, bucket, n) rows. Only per-batch partial counts
    cross the exchange; unique_sources is a distinct-count over the
    (few) observed sources."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from ..stages.generallog import profile_general_log

    ds = _read(sf_dir, "events", columns=["user_id", "props"])

    def render(t: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
            pa.int64()).to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        n = t.num_rows

        def s(arr) -> pa.Array:
            return pc.cast(pa.array(arr), pa.string())

        def lit(x: str) -> pa.Array:
            return pa.array([x] * n, pa.string())

        join = pc.binary_join_element_wise
        fam = k % 4
        clf = join(lit("52.0."), s(uid % 256),
                   lit('.9 - - [22/Jan/2019:03:56:14 +0330] '
                       '"GET /app/'), s(k), lit(' HTTP/1.1" 200 123'),
                   "")
        aerr = join(lit("[Thu Jun 09 06:07:04 2005] [error] File "
                        "does not exist: /var/www/html/p"), s(k), "")
        slog = join(lit("Jun 14 15:16:01 host-"), s(uid % 8),
                    lit(" sshd(pam_unix)["), s(1000 + k % 500),
                    lit("]: authentication failure; rhost=10.0."),
                    s(uid % 4), lit("."), s(k % 256), "")
        jsn = join(lit('{"ts": "2024-01-05T03:02:01Z", "app": "app'),
                   s(k % 3), lit('", "msg": "db timeout on query"}'),
                   "")
        line = pc.if_else(pa.array(fam == 0), clf,
               pc.if_else(pa.array(fam == 1), aerr,
               pc.if_else(pa.array(fam == 2), slog, jsn)))
        line = pc.if_else(pa.array(k % 37 == 0),
                          join(lit("~~~~ garbage "), s(k), ""), line)
        return pa.table({"line": line})

    def partial(t: pa.Table) -> pa.Table:
        src = pc.fill_null(t["source"], "_none")
        dims, buckets, counts = [], [], []
        for dim, col in (("format", t["format"]),
                         ("ts_pattern", t["ts_pattern"]),
                         ("category", t["category"]),
                         ("source", src)):
            g = (pa.table({"bucket": col}).group_by("bucket")
                 .aggregate([([], "count_all")]))
            dims += [dim] * g.num_rows
            buckets.append(g["bucket"].combine_chunks())
            counts.append(g["count_all"].combine_chunks())
        return pa.table({
            "dim": pa.array(dims),
            "bucket": pa.concat_arrays(buckets),
            "pn": pc.cast(pa.concat_arrays(counts), pa.int64())})

    agg = (ds.map_batches(render, batch_format="pyarrow")
           .map_batches(profile_general_log, batch_format="pyarrow")
           .map_batches(partial, batch_format="pyarrow")
           .groupby(["dim", "bucket"])
           .aggregate(Sum("pn", alias_name="n"))
           .to_pandas())
    srcs = agg[agg["dim"] == "source"]
    uniq = int((srcs["bucket"] != "_none").sum())
    total = int(agg.loc[agg["dim"] == "format", "n"].sum())
    out = pd.concat([agg, pd.DataFrame([
        {"dim": "summary", "bucket": "unique_sources", "n": uniq},
        {"dim": "summary", "bucket": "total_events", "n": total}])],
        ignore_index=True).sort_values(["dim", "bucket"]) \
        .reset_index(drop=True)
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out[["dim", "bucket", "n"]],
                                preserve_index=False)


def q_ids_query(sf_dir: str):
    """ES ``ids`` query: fetch specific documents by id with their
    stored fields — a pure docmap gather (row-group-pruned read, the
    same path every top-k's metadata join uses); missing and
    tombstoned ids silently drop, the ES contract."""
    eng = _docs_engine(sf_dir)
    want = [3, 141, 59, 999_999_999]  # one deliberately nonexistent
    ids = eng._drop_tombstones(np.asarray(sorted(want), dtype=np.int64))
    meta = eng._join_docmap([int(d) for d in ids])
    meta = meta.sort_by("doc_id")
    keep = pa.array(np.isin(meta["doc_id"].to_numpy(
        zero_copy_only=False), np.asarray(want)))
    meta = meta.filter(keep)
    return pa.table({"doc_id": meta["doc_id"], "lang": meta["lang"],
                     "sha256": meta["sha256"]})


def q_eql_sequence_strict(sf_dir: str):
    """TRUE EQL engine semantics for ``sequence [error][purchase]``:
    non-overlapping, event-CONSUMING greedy matching (each sequence
    instance consumes both events; the next instance must use later
    ones) — contrast q_eql_sequence's all-pairs count. Per user the
    match is the classic two-pointer greedy over the sorted per-type
    timestamps (inherently sequential state, a few dozen steps per
    user inside its own map_groups task); the oracle reproduces it
    with a recursive CTE stepping the same (last-consumed, count)
    state."""
    ds = _read(sf_dir, "events", columns=["ts", "user_id", "event_type"])

    def prune(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["error", "purchase"]))
        t = t.filter(keep)
        return pa.table({"user_id": t["user_id"],
                         "ts_us": pc.cast(t["ts"], pa.int64()),
                         "event_type": t["event_type"]})

    def per_user(g):
        et = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy()
        errs = np.sort(ts[et == "error"])
        purs = np.sort(ts[et == "purchase"])
        cnt = 0
        j = 0
        for e in errs:
            while j < purs.size and purs[j] <= e:
                j += 1
            if j < purs.size and purs[j] <= e + _EQL_SPAN_US:
                cnt += 1
                j += 1
        if cnt == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_sequences": pa.array([], pa.int64())})
        return pa.table({
            "user_id": pa.array([int(g["user_id"].iloc[0])], pa.int64()),
            "n_sequences": pa.array([cnt], pa.int64())})

    out = (ds.map_batches(prune, batch_format="pyarrow")
           .groupby("user_id")
           .map_groups(per_user, batch_format="pandas")
           .to_pandas())
    out = out.sort_values("user_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_dsir_weights(sf_dir: str):
    """DSIR-style importance weights (Xie et al. 2023, data selection
    via importance resampling — the public unigram form): weight(d) =
    sum_t tf_t(d) * ln(p_target(t) / p_source(t)) with add-1 smoothing,
    target = lang 'en' docs, source = the whole corpus; top 20 docs by
    weight. One distributed token-count pass builds the two unigram
    tables (term groupby, vocab-bounded result), the log-ratio table
    broadcasts via ray.put, and the scoring pass is one vectorized
    index_in + add.at per batch. At open-vocab scale the same pipeline
    runs over HASHED n-gram buckets (the paper's construction) so the
    broadcast stays fixed-size; the sf corpora have a closed vocab, so
    the exact-term form is used here for oracle parity."""
    import ray as _ray
    from ray.data.aggregate import Sum

    from ..analysis.tokenizer import tokenize_batch_arrow

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def counts(t: pa.Table) -> pa.Table:
        row_idx, toks, _ = tokenize_batch_arrow(t["text"])
        is_tgt = pc.equal(t["lang"], "en").to_numpy(
            zero_copy_only=False)[row_idx].astype(np.int64)
        part = pa.table({"term": toks, "tgt": pa.array(is_tgt)})
        agg = part.group_by("term").aggregate(
            [("tgt", "sum"), ([], "count_all")])
        return pa.table({"term": agg["term"],
                         "c_tgt": pc.cast(agg["tgt_sum"], pa.int64()),
                         "c_all": pc.cast(agg["count_all"], pa.int64())})

    vocab_tbl = (ds.map_batches(counts, batch_format="pyarrow")
                 .groupby("term")
                 .aggregate(Sum("c_tgt", alias_name="c_tgt"),
                            Sum("c_all", alias_name="c_all"))
                 .to_pandas())  # vocab-bounded, never corpus-bounded
    vocab_tbl = vocab_tbl.sort_values("term").reset_index(drop=True)
    v = float(len(vocab_tbl))
    t_tgt = float(vocab_tbl["c_tgt"].sum())
    t_src = float(vocab_tbl["c_all"].sum())
    ct = vocab_tbl["c_tgt"].to_numpy(dtype=np.float64)
    cs = vocab_tbl["c_all"].to_numpy(dtype=np.float64)
    lr = np.log(((ct + 1.0) * (t_src + v)) / ((cs + 1.0) * (t_tgt + v)))
    vocab_ref = _ray.put((pa.array(vocab_tbl["term"].tolist(),
                                   pa.string()), lr))

    def score(t: pa.Table) -> pa.Table:
        vocab_arr, lr_arr = _ray.get(vocab_ref)
        row_idx, toks, _ = tokenize_batch_arrow(t["text"])
        w = np.zeros(t.num_rows, dtype=np.float64)
        if len(toks):
            code = pc.index_in(toks, value_set=vocab_arr).to_numpy(
                zero_copy_only=False)
            np.add.at(w, row_idx, lr_arr[code])
        return pa.table({"doc_id": t["doc_id"],
                         "weight": _round6(pa.array(w, pa.float64()))})

    scored = ds.map_batches(score, batch_format="pyarrow")
    df = topk(scored, 20, [("weight", "descending"),
                           ("doc_id", "ascending")])
    return pa.Table.from_pandas(df[["doc_id", "weight"]],
                                preserve_index=False)


def q_rate_agg(sf_dir: str):
    """ES ``rate`` aggregation (unit: day) inside a monthly
    date_histogram: each month's integer micro-value sum normalized to
    a per-day rate by the month's calendar length. Parent histogram
    distributed; the normalization pass is bucket-bounded and the
    single double division matches the oracle's op tree."""
    import pandas as pd

    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6),
                                 ndigits=0), pa.int64())
        return pa.table({"month": pc.strftime(t["ts"], format="%Y-%m"),
                         "value_micro": micro})

    pdf = (ds.map_batches(prep, batch_format="pyarrow")
           .groupby("month")
           .aggregate(Count(alias_name="n"),
                      Sum("value_micro", alias_name="sum_micro"))
           .sort("month").to_pandas())
    days = pdf["month"].map(
        lambda m: pd.Period(m, freq="M").days_in_month) \
        .to_numpy(dtype=np.float64)
    rate = pdf["sum_micro"].to_numpy(dtype=np.float64) / days
    pdf["n"] = pdf["n"].astype("int64")
    pdf["sum_micro"] = pdf["sum_micro"].astype("int64")
    pdf["rate_micro_per_day"] = np.asarray(
        _round6(pa.array(rate, pa.float64())))
    return pa.Table.from_pandas(
        pdf[["month", "n", "sum_micro", "rate_micro_per_day"]],
        preserve_index=False)


def q_normalize_agg(sf_dir: str):
    """ES ``normalize`` pipeline aggregation (method percent_of_sum):
    each event_type bucket's count as a share of the total, the single
    division in exact integers-to-double so the percentages hash
    bit-for-bit. Bucket-bounded post-pass over the distributed terms
    agg."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["event_type"])
    pdf = (ds.groupby("event_type").aggregate(Count(alias_name="n"))
           .to_pandas().sort_values("event_type")
           .reset_index(drop=True))
    n = pdf["n"].to_numpy(dtype=np.float64)
    # the single divide + multiply is IEEE-exact in both engines, so the
    # raw doubles hash identically — no rounding step to disagree on
    pct = n / float(n.sum()) * 100.0
    pdf["n"] = pdf["n"].astype("int64")
    pdf["pct_of_total"] = pct
    return pa.Table.from_pandas(pdf[["event_type", "n", "pct_of_total"]],
                                preserve_index=False)


def q_ks_test_agg(sf_dir: str):
    """ES ``bucket_count_ks_test`` sibling aggregation analog: the
    two-sample Kolmogorov–Smirnov statistic between the daily-count
    distributions of 'error' events and all other events — D = max over
    days of |ECDF_error - ECDF_rest|, with both ECDFs built from exact
    integer prefix sums over the SAME day axis (missing days count 0).
    The parent histogram is distributed; the ECDF pass is
    bucket-bounded. Returns D and the day where it is attained
    (earliest on ties, doubles cast-first like the oracle)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        is_err = pc.cast(pc.equal(t["event_type"], "error"), pa.int64())
        day = pc.strftime(t["ts"], format="%Y-%m-%d")
        agg = (pa.table({"day": day, "err": is_err})
               .group_by("day").aggregate([("err", "sum"),
                                           ([], "count_all")]))
        return pa.table({"day": agg["day"],
                         "e": pc.cast(agg["err_sum"], pa.int64()),
                         "a": pc.cast(agg["count_all"], pa.int64())})

    daily = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("day").aggregate(Sum("e", alias_name="err_n"),
                                       Sum("a", alias_name="all_n"))
             .sort("day").to_pandas())
    e = daily["err_n"].to_numpy(dtype=np.int64)
    r = daily["all_n"].to_numpy(dtype=np.int64) - e
    ce = np.cumsum(e).astype(np.float64) / float(e.sum())
    cr = np.cumsum(r).astype(np.float64) / float(r.sum())
    d = np.abs(ce - cr)
    best = int(np.argmax(d))
    return pa.table({
        "ks_d": _round6(pa.array([float(d[best])], pa.float64())),
        "at_day": pa.array([daily["day"].iloc[best]], pa.string())})


def q_rate_anomalies(sf_dir: str):
    """ES anomaly-detection analog on the ingest-rate series (the
    reference's Kibana ML panel shape): the 3 most anomalous days by
    |z| against the TRAILING-7-day window (window stats exclude the day
    under test, so a spike can't mask itself; warm-up days without a
    full window never score). Distributed histogram; the rolling pass
    is bucket-bounded and uses exact integer window sums cast to
    double — the identical IEEE op tree as the SQL window oracle, so
    the ranking and tie-break (day asc) agree bit-for-bit."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    daily = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("day").aggregate(Count(alias_name="n"))
             .sort("day").to_pandas())
    n = daily["n"].to_numpy(dtype=np.int64)
    days = daily["day"].tolist()
    w = 7
    rows = []
    for i in range(w, len(n)):
        win = n[i - w:i]
        s = float(int(win.sum()))
        s2 = float(int((win.astype(np.int64) ** 2).sum()))
        mean = s / float(w)
        var = s2 / float(w) - mean * mean
        if var <= 0.0:
            continue
        z = (float(n[i]) - mean) / np.sqrt(var)
        rows.append((days[i], int(n[i]), mean, z))
    rows.sort(key=lambda r: (-abs(r[3]), r[0]))
    rows = rows[:3]
    return pa.table({
        "day": pa.array([r[0] for r in rows], pa.string()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "win_mean": _round6(pa.array([r[2] for r in rows],
                                     pa.float64())),
        "z": _round6(pa.array([r[3] for r in rows], pa.float64()))})


ESQL_EVENTS_QUERY = (
    'FROM events | WHERE event_type == "error" '
    '| EVAL micro = TO_LONG(ROUND(value * 1000000)) '
    '| STATS n = COUNT(*), total_micro = SUM(micro), '
    'vmax_micro = MAX(micro) BY user_id '
    '| SORT n DESC, user_id ASC | LIMIT 10')

ESQL_DOCS_QUERY = (
    'FROM documents | EVAL lang_u = TO_UPPER(lang) '
    '| WHERE n_chars >= 100 '
    '| STATS docs = COUNT(*), chars = SUM(n_chars), '
    'cmax = MAX(n_chars) BY lang_u '
    '| SORT docs DESC, lang_u ASC | LIMIT 5')


ESQL_ENRICH_QUERY = (
    "FROM orders | ENRICH customer ON o_custkey WITH c_mktsegment "
    "| EVAL cents = TO_LONG(ROUND(o_totalprice * 100)) "
    "| STATS n = COUNT(*), total_cents = SUM(cents) BY c_mktsegment "
    "| SORT c_mktsegment ASC")

ESQL_DISSECT_QUERY = (
    'FROM events | DISSECT props "{\\"k\\": %{kval}}" '
    "| EVAL kv = TO_LONG(kval) "
    "| STATS n = COUNT(*), ksum = SUM(kv) BY event_type "
    "| SORT event_type ASC")


ESQL_RENAME_EXPAND_QUERY = (
    "FROM embeddings | WHERE vec_id < 40 "
    "| RENAME embedding AS vec | MV_EXPAND vec "
    "| EVAL m = TO_LONG(ROUND(TO_DOUBLE(vec) * 1000000)) "
    "| STATS n = COUNT(*), s = SUM(m) BY vec_id "
    "| SORT vec_id ASC | LIMIT 15")

ESQL_GROK_QUERY = (
    'FROM events | GROK props "\\{\\"k\\": %{INT:kv:int}\\}" '
    "| STATS n = COUNT(*), ksum = SUM(kv) BY event_type "
    "| SORT event_type ASC")

ESQL_LOOKUP_JOIN_QUERY = (
    "FROM orders | RENAME o_custkey AS c_custkey "
    "| LOOKUP JOIN customer ON c_custkey "
    "| WHERE c_acctbal > 0 "
    "| EVAL cents = TO_LONG(ROUND(o_totalprice * 100)) "
    "| STATS n = COUNT(*), total_cents = SUM(cents) BY c_mktsegment "
    "| SORT c_mktsegment ASC")

ESQL_COUNT_DISTINCT_QUERY = (
    "FROM events "
    "| STATS users = COUNT_DISTINCT(user_id), n = COUNT(*) "
    "BY event_type | SORT event_type ASC")

ESQL_LIKE_IN_QUERY = (
    'FROM documents '
    '| WHERE lang IN ("en", "de") AND source LIKE "src1?" '
    'AND source NOT IN ("src13") '
    "| STATS docs = COUNT(*), chars = SUM(n_chars) BY lang, source "
    "| SORT lang ASC, source ASC")


def q_esql_rename_expand(sf_dir: str):
    """ES|QL RENAME + MV_EXPAND: the multivalue expansion runs inside
    the fused row-local stage as one numpy-repeat + one Arrow take per
    column (query/esql.py::_mv_expand) — no Python per row, and the
    read is pruned to (vec_id, embedding). ES semantics (null/empty
    list keeps its row with a null value) are pinned by unit tests;
    this corpus has no empty vectors, so the SQL UNNEST oracle
    matches exactly."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_RENAME_EXPAND_QUERY, sf_dir)


def q_esql_grok(sf_dir: str):
    """ES|QL GROK: %{SYNTAX:name:type} patterns (the Logstash grok
    library subset, RE2-safe) compile to ONE vectorized extract_regex
    per batch plus a typed cast — literal segments are regex, unlike
    DISSECT's literal-text rule (both live in the same fused
    stage)."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_GROK_QUERY, sf_dir)


ESQL_FUNCTIONS_QUERY = (
    'FROM documents '
    '| WHERE STARTS_WITH(source, "src1") '
    '| EVAL band = CASE(n_chars >= 150, "long", '
    'n_chars >= 100, "mid", "short"), '
    'key = CONCAT(lang, ":", SUBSTRING(source, 4)) '
    "| STATS n = COUNT(*) BY band, key "
    "| SORT band ASC, key ASC | LIMIT 25")

ESQL_DATE_TRUNC_QUERY = (
    'FROM events | EVAL day = DATE_TRUNC("day", ts), '
    "micro = TO_LONG(ROUND(value * 1000000)) "
    "| STATS n = COUNT(*), sum_micro = SUM(micro) BY day "
    "| SORT day ASC")


def q_esql_functions(sf_dir: str):
    """ES|QL scalar-function surface: variadic CASE (nested if_else,
    first match wins), CONCAT (one binary_join per batch), 1-based
    SUBSTRING, STARTS_WITH — all Arrow kernels inside the fused
    row-local stage, grouped by two EVAL-derived keys."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_FUNCTIONS_QUERY, sf_dir)


def q_esql_date_trunc(sf_dir: str):
    """ES|QL DATE_TRUNC (mini-dialect string-unit form) compiled to
    pc.floor_temporal — the date-histogram shape expressed in the
    query language, grouped on a real timestamp key."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_DATE_TRUNC_QUERY, sf_dir)


ESQL_MV_FUNCTIONS_QUERY = (
    "FROM embeddings "
    "| EVAL dims = MV_COUNT(embedding), "
    "mn = TO_LONG(ROUND(MV_MIN(embedding) * 1000000)), "
    "mx = TO_LONG(ROUND(MV_MAX(embedding) * 1000000)), "
    "sm = TO_LONG(ROUND(MV_SUM(embedding) * 1000000)) "
    "| STATS n = COUNT(*), total_dims = SUM(dims), "
    "sum_mn = SUM(mn), sum_mx = SUM(mx), sum_sm = SUM(sm) BY label "
    "| SORT label ASC")


def q_esql_mv_functions(sf_dir: str):
    """ES|QL multivalue functions (MV_COUNT/MV_MIN/MV_MAX/MV_SUM) over
    the embedding list column: each is one flatten + one numpy
    reduceat per batch (query/esql.py::_mv_reduce) — no per-row
    Python, no expansion to one-row-per-element. Sum order is
    element-sequential after an exact f32→f64 cast, matching the SQL
    list_aggregate oracle bit-for-bit."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_MV_FUNCTIONS_QUERY, sf_dir)


ESQL_AGG_WHERE_QUERY = (
    "FROM events | EVAL micro = TO_LONG(ROUND(value * 1000000)) "
    '| STATS n_err = COUNT(*) WHERE event_type == "error", '
    's_err = SUM(micro) WHERE event_type == "error", '
    "n = COUNT(*) BY user_id | SORT user_id ASC | LIMIT 20")


def q_esql_agg_where(sf_dir: str):
    """ES|QL per-aggregate filters (8.16: ``SUM(x) WHERE cond``):
    desugared at parse time onto the CASE kernel — filtered-out rows
    become nulls every aggregate already ignores (COUNT becomes
    SUM(CASE(c,1,0)) so an all-false group counts 0) — zero executor
    changes, the SQL FILTER clause exactly."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_AGG_WHERE_QUERY, sf_dir)


ESQL_INLINESTATS_QUERY = (
    "FROM documents "
    "| INLINESTATS avg_chars = AVG(n_chars) BY lang "
    "| WHERE n_chars > avg_chars "
    "| STATS above = COUNT(*), max_over = MAX(n_chars) BY lang "
    "| SORT lang ASC")


def q_esql_inlinestats(sf_dir: str):
    """ES|QL INLINESTATS (the join-back STATS): per-group aggregates
    computed by the distributed STATS kernel, then broadcast-joined
    back onto the stream (ray.put of the group-row table, one
    index_in/take per aggregate column per batch — no row-level
    shuffle of the stream). The canonical above-group-average filter
    is then an ordinary WHERE over original + aggregate columns."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_INLINESTATS_QUERY, sf_dir)


ESQL_FORK_QUERY = (
    "FROM documents | FORK "
    '(WHERE lang == "en" | STATS n = COUNT(*), '
    "chars = SUM(n_chars) BY source) "
    '(WHERE n_chars >= 400 | STATS n = COUNT(*), '
    "chars = SUM(n_chars) BY source) "
    "| SORT _fork ASC, source ASC")


def q_esql_fork(sf_dir: str):
    """ES|QL FORK (9.1): two branch sub-pipelines over the same
    materialized stream, each ending in its own STATS, unioned with
    the ``_fork`` discriminator and null-aligned columns — the
    branch-per-perspective fan-out. Deterministic (both branches
    aggregate), so it carries an exact UNION ALL oracle; branch
    identity vs running each branch standalone is pinned in
    test_esql.py."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_FORK_QUERY, sf_dir)


ESQL_CHANGE_POINT_QUERY = (
    'FROM events | STATS n = COUNT(*) BY day = '
    'DATE_FORMAT("yyyy-MM-dd", ts) '
    "| CHANGE_POINT n ON day "
    "| WHERE type IS NOT NULL "
    "| KEEP day, n, type, pvalue")


def q_esql_change_point(sf_dir: str):
    """ES|QL CHANGE_POINT (9.x) over the daily count series: the
    distributed STATS builds the bucket-bounded series, the command
    finds the SSE-minimizing step split (integer prefix sums cast to
    double before the multiply — identical IEEE op tree as the SQL
    oracle, ties earliest) and marks the first row of the right
    segment with type="step_change" and the deterministic gain score
    (the documented p-value deviation — no ML stats in the sandbox)."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_CHANGE_POINT_QUERY, sf_dir)


ESQL_MV_LIST_QUERY = (
    "FROM documents "
    '| EVAL m = MV_SLICE(MV_DEDUPE(SPLIT(CONCAT(n_chars % 3, ",", '
    'n_chars % 5, ",", n_chars % 3), ",")), 0, 1) '
    "| EVAL k = MV_COUNT(m), mn = MV_FIRST(m), mx = MV_LAST(m) "
    "| STATS n = COUNT(*) BY k, mn, mx "
    "| SORT k ASC, mn ASC, mx ASC")


def q_esql_mv_list_functions(sf_dir: str):
    """ES|QL multivalue manipulators — SPLIT → MV_DEDUPE (sorted
    dedupe, the ES contract) → MV_SLICE (end-inclusive) → MV_COUNT /
    MV_FIRST / MV_LAST — composed per row with zero Python loops
    (flatten + parent-keyed lexsort + offset rebuild). The oracle
    mirrors the dedupe/sort semantics with CASE/least/greatest over
    the same derived strings."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_MV_LIST_QUERY, sf_dir)


ESQL_IP_QUERY = (
    "FROM events "
    '| EVAL ip = CONCAT(52 + user_id % 3, ".", user_id % 200, '
    '".", event_id % 256, ".9") '
    '| EVAL in_net = CIDR_MATCH(ip, "52.0.0.0/8", "54.0.0.0/7"), '
    "pfx = IP_PREFIX(ip, 12, 0) "
    "| STATS n = COUNT(*), hits = COUNT(*) WHERE in_net BY pfx "
    "| SORT pfx ASC | LIMIT 500")


def q_esql_ip_functions(sf_dir: str):
    """ES|QL IPv4 functions — CIDR_MATCH (multi-CIDR OR) and
    IP_PREFIX (masked network address) — over deterministically
    derived dotted quads: octets pack to int64 once per batch, masks
    are literal-folded, and the /12 prefix becomes a grouped rollup.
    The oracle mirrors the mask arithmetic in octet form."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_IP_QUERY, sf_dir)


ESQL_WEIGHTED_STATS_QUERY = (
    "FROM events "
    "| EVAL v = TO_LONG(ROUND(value * 100)) "
    "| STATS w = WEIGHTED_AVG(v, user_id), "
    "sd = STD_DEV(v), n = COUNT(*) BY event_type "
    "| EVAL w = ROUND(w / 100, 6), sd = ROUND(sd / 100, 6) "
    "| SORT event_type ASC")


def q_esql_weighted_stats(sf_dir: str):
    """ES|QL WEIGHTED_AVG (8.x) + STD_DEV (9.x): both compile to Sum
    partials (v*weight / masked weight; x / x^2 / non-null count)
    with a post-exchange finalize pass — sqrt(s2/n - (s/n)^2) and
    s_vw/s_w in the exact double op tree the SQL oracle mirrors.
    The input is quantized to integer centi-units first so every
    partial sum is an exactly-representable double (v<=6e4, v*w<=9e7:
    sums stay under 2^53 out to 1e9+ rows) — distributed partial-sum
    ORDER cannot change the result, making the oracle comparison
    scale-stable per the repo's integer-units convention."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_WEIGHTED_STATS_QUERY, sf_dir)


ESQL_CATEGORIZE_QUERY = (
    "FROM events "
    '| EVAL msg = CONCAT("user ", TO_STRING(user_id), " action ", '
    'event_type, " took ", TO_STRING(TO_LONG(ROUND(value * 100))), '
    '" us") '
    "| EVAL cat = CATEGORIZE(msg) "
    "| STATS n = COUNT(*), users = COUNT_DISTINCT(user_id) BY cat "
    "| SORT cat ASC")


def q_esql_categorize(sf_dir: str):
    """ES|QL 9.x CATEGORIZE — the flagship log-pattern aggregation
    key, precisely this engine's domain: log-shaped messages rendered
    from events collapse to their constant-token skeleton ("user *
    action click took * us") via the deterministic template heuristic
    (digit-bearing tokens -> "*", runs collapsed — the documented
    replacement for ES's ML categorizer), then STATS groups by the
    category. Three vectorized RE2 passes per batch; the oracle runs
    the SAME regex cascade in DuckDB."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_CATEGORIZE_QUERY, sf_dir)


ESQL_DATE_DIFF_QUERY = (
    "FROM events "
    '| EVAL d0 = DATE_PARSE("yyyy-MM-dd HH:mm:ss", '
    '"2024-01-01 00:00:00") '
    '| EVAL m0 = DATE_PARSE("yyyy-MM-dd HH:mm:ss", '
    '"2023-11-15 12:00:00") '
    '| EVAL days = DATE_DIFF("day", d0, ts), '
    'hours = DATE_DIFF("hour", d0, ts), '
    'months = DATE_DIFF("month", m0, ts) '
    "| EVAL g = GREATEST(days, 10), l = LEAST(hours, 200) "
    "| STATS n = COUNT(*), hmax = MAX(hours), gmin = MIN(g), "
    "lmax = MAX(l), momin = MIN(months), momax = MAX(months) BY days "
    "| SORT days ASC")


def q_esql_date_diff(sf_dir: str):
    """ES|QL DATE_DIFF (complete units, truncated toward zero; both
    fixed-size AND calendar units — "month" counts complete calendar
    months per ChronoUnit.between, minus one when the end's
    intra-month day+time hasn't reached the start's) + DATE_PARSE
    (the DATE_FORMAT Java-pattern subset inverted) + GREATEST/LEAST
    (variadic elementwise, null-intolerant per the scalar convention)
    in one pipeline. The oracle mirrors fixed units via
    epoch-microsecond integer division (all diffs positive, so floor
    == trunc) and the month unit via (Δyear*12 + Δmonth) with the
    intra-month position packed exactly as the engine packs it
    (DuckDB's microsecond() includes the seconds component, which
    equals the engine's (…*60+second)*1e6+us term)."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_DATE_DIFF_QUERY, sf_dir)


ESQL_HASH_QUERY = (
    "FROM documents "
    "| EVAL h = MD5(lang), sh = SHA256(lang), b = TO_BASE64(lang), "
    "r = FROM_BASE64(TO_BASE64(lang)), bl = BIT_LENGTH(text), "
    "ob = BYTE_LENGTH(source) "
    "| STATS n = COUNT(*), bits = SUM(bl), obytes = SUM(ob) "
    "BY h, sh, b, r "
    "| SORT h ASC")


def q_esql_hash_functions(sf_dir: str):
    """ES|QL 8.12-8.14 hashing/encoding surface — MD5 / SHA256 (the
    HASH family), TO_BASE64/FROM_BASE64 (round-tripped), BIT_LENGTH /
    BYTE_LENGTH (UTF-8 BYTE semantics, not codepoints) — grouped so
    the digests themselves are oracle-compared byte-for-byte. Hashes
    run per UNIQUE value and gather by dictionary code (the winnowing
    md5 convention); lengths are one vectorized binary_length."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_HASH_QUERY, sf_dir)


ESQL_MAD_QUERY = (
    "FROM events "
    "| EVAL v = TO_LONG(ROUND(value * 100)) "
    "| STATS mad = MEDIAN_ABSOLUTE_DEVIATION(v), med = MEDIAN(v), "
    "n = COUNT(*) BY event_type "
    "| SORT event_type ASC")


def q_esql_mad(sf_dir: str):
    """ES|QL MEDIAN_ABSOLUTE_DEVIATION — the robust-dispersion
    aggregate (median of |x - median(x)|), computed in the STATS
    map_groups kernel with BOTH medians under the repo's
    quantile_disc convention over integer centi-units (every value an
    exact element pick — scale-stable, order-free). The oracle
    mirrors with a two-level quantile_disc."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_MAD_QUERY, sf_dir)


ESQL_STRINGS2_QUERY = (
    "FROM documents "
    '| EVAL lang2 = REVERSE(lang), head = LEFT(source, 4), '
    'pos = LOCATE(text, "error") '
    "| STATS n = COUNT(*), hits = COUNT(*) WHERE pos > 0 "
    "BY lang2, head | SORT lang2 ASC, head ASC")


def q_esql_string_functions2(sf_dir: str):
    """Round-4 ES|QL string surface over real data: REVERSE / LEFT /
    LOCATE (1-based, 0 = absent — DuckDB strpos contract) feeding
    grouped aggregates with a per-agg filter; one fused vectorized
    row-local stage before the STATS exchange."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_STRINGS2_QUERY, sf_dir)


ESQL_BUCKET_QUERY = (
    "FROM documents "
    "| STATS n = COUNT(*), max_chars = MAX(n_chars) "
    "BY b = BUCKET(n_chars, 10, 0, 600) "
    "| SORT b ASC")


def q_esql_bucket(sf_dir: str):
    """ES|QL BUCKET (8.13, the date_histogram/histogram workhorse) in
    its numeric form: values floor to multiples of the smallest
    'nice' {1,2,5}x10^k width fitting [min,max] in <= buckets buckets
    (here [0,600] in <=10 → width 100), as an inline STATS BY key.
    Deterministic, so the oracle hardcodes the derived width with the
    derivation documented."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_BUCKET_QUERY, sf_dir)


ESQL_LOOKUP_MULTI_QUERY = (
    "FROM nation | RENAME n_nationkey AS c_nationkey "
    "| LOOKUP JOIN customer ON c_nationkey "
    "| WHERE c_custkey IS NOT NULL "
    "| EVAL bal = TO_LONG(ROUND(c_acctbal * 100)) "
    "| STATS customers = COUNT(*), total_bal = SUM(bal) BY n_name "
    "| SORT n_name ASC")


def q_esql_lookup_join_multi(sf_dir: str):
    """ES|QL LOOKUP JOIN with TRUE multi-match semantics (8.18): a key
    matching g lookup rows emits g output rows — nation joined to its
    MANY customers (the broadcast side grouped into per-key struct
    lists once, row multiplication via the MV_EXPAND kernel per
    batch), then the per-nation rollup in exact integer cents. The
    plain-SQL JOIN is naturally multi-match, so the oracle is a
    direct equality check of the row-multiplication semantics."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_LOOKUP_MULTI_QUERY, sf_dir)


def _esql_knn_query_vec() -> list[float]:
    """Deterministic 64-dim query vector for the vector-function
    entry (matches the embeddings table's dim)."""
    return [(((i * 37) % 19) - 9) / 10.0 for i in range(64)]


def q_esql_knn(sf_dir: str):
    """ES|QL 9.x vector similarity functions (tech preview) — kNN
    expressed in the dialect itself: ``EVAL sim = V_COSINE(embedding,
    [q...])`` is one float64 matmul per batch (the ann/knn.py kernel
    convention), then ordinary ``SORT sim DESC | LIMIT k``. The array
    literal goes through the expression parser; rounding happens
    AFTER the top-k cut so ranks use full precision."""
    from ..query.esql import execute_esql

    lit = "[" + ", ".join(repr(x) for x in _esql_knn_query_vec()) + "]"
    return execute_esql(
        f"FROM embeddings | EVAL sim = V_COSINE(embedding, {lit}) "
        "| SORT sim DESC, vec_id ASC | LIMIT 10 "
        "| EVAL sim = ROUND(sim, 6) | KEEP vec_id, sim", sf_dir)


ESQL_MATCH_QUERY = (
    'FROM documents | WHERE MATCH(text, "error merge") '
    'AND lang == "en" '
    "| STATS n = COUNT(*), chars = SUM(n_chars) BY source "
    "| SORT source ASC")


def q_esql_match(sf_dir: str):
    """ES|QL 8.17 full-text MATCH function: the field's ANALYZED token
    stream (real code-aware tokenizer) intersected with the query's
    terms, as one vectorized tokenize + is_in + scatter per batch — a
    streaming-scan match over parquet (no index), the ES runtime-field
    analog; the indexed BM25 path stays in query/shards.py. Oracle
    replicates the analyzer in SQL exactly (the boolean_search
    tokenization CTE)."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_MATCH_QUERY, sf_dir)


ESQL_SAMPLE_QUERY = (
    "FROM events | SAMPLE 0.0625 ON event_id "
    "| STATS n = COUNT(*), users = COUNT_DISTINCT(user_id) "
    "BY event_type | SORT event_type ASC")


def q_esql_sample(sf_dir: str):
    """ES|QL SAMPLE (9.x) in the mini-dialect's DETERMINISTIC form —
    id-modulo sampling (the repo-wide load-shed convention, O3/O5):
    reproducible across reruns, cluster sizes and block orders, so
    the 1/16 sample has an exact SQL oracle (ES's seeded-random
    SAMPLE cannot; documented deviation). The filter fuses into the
    row-local stage before the STATS exchange — shed rows never
    shuffle."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_SAMPLE_QUERY, sf_dir)


ESQL_DATE_FORMAT_QUERY = (
    'FROM events | EVAL day = DATE_FORMAT("yyyy-MM-dd", ts), '
    'hr = DATE_EXTRACT("hour", ts) '
    "| STATS n = COUNT(*) BY day, hr "
    "| SORT day ASC, hr ASC | LIMIT 50")


def q_esql_date_format(sf_dir: str):
    """ES|QL DATE_FORMAT (Java-pattern subset → one vectorized
    strftime per batch) + DATE_EXTRACT (temporal-component kernels),
    grouped on the two derived keys."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_DATE_FORMAT_QUERY, sf_dir)


ESQL_MEDIAN_QUERY = (
    "FROM events | EVAL micro = TO_LONG(ROUND(value * 1000000)) "
    "| STATS n = COUNT(*), med = MEDIAN(micro), "
    "p90 = PERCENTILE(micro, 90) BY event_type "
    "| SORT event_type ASC")


def q_esql_median(sf_dir: str):
    """ES|QL order-statistic aggregates (MEDIAN / PERCENTILE): the
    STATS compiles to ONE groupby().map_groups kernel — each group
    sorts locally on its owning worker, rows move exactly once, and
    the discrete-quantile index convention matches DuckDB
    quantile_disc exactly (the value_quantiles plan shape, reachable
    from the query language)."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_MEDIAN_QUERY, sf_dir)


ESQL_HAVING_QUERY = (
    "FROM events | STATS n = COUNT(*), "
    "micro = SUM(TO_LONG(ROUND(value * 1000000))) BY user_id "
    "| WHERE n >= 60 | SORT n DESC, user_id ASC | LIMIT 500")


def q_esql_having(sf_dir: str):
    """ES|QL WHERE-after-STATS (SQL HAVING): commands compose in pipe
    order, so the post-STATS WHERE becomes a vectorized filter stage
    over the (bucket-bounded) aggregate table — no special casing."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_HAVING_QUERY, sf_dir)


def q_esql_like_in(sf_dir: str):
    """ES|QL string predicates: LIKE (*/? wildcards, whole-string),
    NOT IN, and IN — each one vectorized Arrow kernel
    (match_substring_regex on the translated anchor pattern /
    is_in) inside the same fused WHERE stage."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_LIKE_IN_QUERY, sf_dir)


def q_esql_lookup_join(sf_dir: str):
    """ES|QL LOOKUP JOIN (8.18+): left lookup join on the shared field
    name, adding every non-key column — composed here with RENAME to
    line the key names up (the documented ES pattern). Same broadcast
    index_in/take kernel as ENRICH; the main-table read prunes to
    exactly (o_custkey, o_totalprice) because the joined-in columns
    resolve as derived before pruning."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_LOOKUP_JOIN_QUERY, sf_dir)


def q_esql_count_distinct(sf_dir: str):
    """ES|QL COUNT_DISTINCT: exact per-group cardinality via a
    two-level groupby — the exchange carries each distinct
    (group, value) pair once (dedup happens in the shuffle's partial
    aggregation), then a tiny per-group count; nothing value-set-sized
    reaches the driver (query/esql.py::_stats_with_distinct). The
    approximate counterpart at 100-TB scale is the mergeable HLL
    sketch (cardinality_sketch entry)."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_COUNT_DISTINCT_QUERY, sf_dir)


def q_esql_enrich(sf_dir: str):
    """ES|QL ENRICH (the enrich-policy lookup join): the customer
    small side is read once and broadcast via ray.put; each batch does
    one vectorized index_in/take — never a shuffle join for a
    dimension table (the J1 GeoIP pattern, now reachable from the
    query language)."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_ENRICH_QUERY, sf_dir)


def q_esql_dissect(sf_dir: str):
    """ES|QL DISSECT: %{name} structured extraction compiled to ONE
    vectorized RE2 extract_regex per batch, fused into the same
    map_batches stage as the following EVAL cast."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_DISSECT_QUERY, sf_dir)


def q_esql_stats(sf_dir: str):
    """ES|QL (the ES 8.11+ piped query language) executed by the
    mini-dialect compiler (query/esql.py): WHERE/EVAL fuse into one
    vectorized map_batches stage, STATS…BY compiles to the Dataset
    groupby exchange, the read is pruned to exactly the referenced
    columns. Integer micros keep the sums exact (histogram_agg
    convention)."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_EVENTS_QUERY, sf_dir)


def q_esql_docs(sf_dir: str):
    """Second ES|QL pipeline over documents: EVAL-derived string key
    (TO_UPPER) used as the STATS BY column, WHERE after EVAL in the
    same fused stage."""
    from ..query.esql import execute_esql

    return execute_esql(ESQL_DOCS_QUERY, sf_dir)


def q_ltr_features(sf_dir: str):
    """ES 8.12 learning-to-rank feature logging: for the standard
    query's BM25 top-20 candidates, the per-(query, doc) training
    feature row — BM25 score, matched query-term count, document
    length (all shard-decoded next to the postings —
    query/shards.py::ltr_features) plus the query-embedding cosine
    (vec_id is doc-aligned; one row-group-pruned read of exactly the
    20 candidate vectors, not a scan)."""
    import pyarrow.dataset as pa_ds

    from ..ann.knn import _cosine

    eng = _docs_engine(sf_dir)
    feats = eng.ltr_features(BM25_QUERY_TEXT, k=20)
    ids = feats["doc_id"].to_numpy(zero_copy_only=False)
    emb = pa_ds.dataset(os.path.join(sf_dir, "embeddings.parquet"),
                        format="parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id").isin(ids.tolist()))
    vid = emb["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.asarray([r.as_py() for r in emb["embedding"]],
                     dtype=np.float64)
    cos_by_id = dict(zip(vid, _cosine(mat, _query_vector(sf_dir))))
    keep = np.isin(ids, vid)
    f = feats.filter(pa.array(keep))
    return pa.table({
        "doc_id": f["doc_id"],
        "score": _round6(f["score"]),
        "matched_terms": f["matched_terms"],
        "dl": f["dl"],
        "cosine": _round6(pa.array(
            [cos_by_id[int(d)] for d in
             f["doc_id"].to_numpy(zero_copy_only=False)],
            pa.float64()))})


def q_rollup_downsample(sf_dir: str):
    """ES downsampling (the ILM ``downsample`` action / legacy rollup
    API): the raw events index is replaced by a fixed-interval
    pre-aggregated index — one row per (event_type, day) carrying the
    mergeable metric tuple (value_count, sum, min, max) — written once
    as partitioned parquet; queries then serve from the rollup without
    touching raw data. The entry builds the daily rollup distributed
    (groupby exchange moves 4 scalars per bucket, the combiner
    pattern), persists it, and answers a MONTHLY stats query purely by
    re-aggregating the daily rollup — count/min/max merge exactly,
    sums re-associate (round6, the extended_stats convention). The
    oracle computes the same months from the raw table, proving
    rollup-serving equivalence. Metric values use the integer-micro
    convention (histogram_agg): sums/mins/maxes are int64 micros, so
    every merge is EXACT and order-independent — the property that
    makes a rollup index trustworthy at any re-aggregation depth."""
    import hashlib
    import shutil

    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        micro = pc.cast(pc.round(pc.multiply(t["value"], 1e6),
                                 ndigits=0), pa.int64())
        return pa.table({
            "event_type": t["event_type"],
            "day": pc.strftime(t["ts"], format="%Y-%m-%d"),
            "value": micro})

    rollup_dir = os.path.join(
        "/tmp/lsai_rollup",
        hashlib.sha256(sf_dir.rstrip("/").encode()).hexdigest()[:16])
    if not os.path.isdir(rollup_dir):
        tmp = rollup_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        (ds.map_batches(prep, batch_format="pyarrow")
         .groupby(["event_type", "day"])
         .aggregate(Count(alias_name="n"),
                    Sum("value", alias_name="vsum"),
                    Min("value", alias_name="vmin"),
                    Max("value", alias_name="vmax"))
         .write_parquet(tmp))
        os.rename(tmp, rollup_dir)  # atomic publish (K1 sink contract)

    roll = rd.read_parquet(rollup_dir)

    def monthly(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "month": pc.utf8_slice_codeunits(t["day"], 0, 7),
            "n": t["n"], "vsum": t["vsum"],
            "vmin": t["vmin"], "vmax": t["vmax"]})

    out = (roll.map_batches(monthly, batch_format="pyarrow")
           .groupby(["event_type", "month"])
           .aggregate(Sum("n", alias_name="n_events"),
                      Sum("vsum", alias_name="value_sum"),
                      Min("vmin", alias_name="value_min"),
                      Max("vmax", alias_name="value_max")))
    df = out.to_pandas().sort_values(["event_type", "month"]) \
        .reset_index(drop=True)
    return pa.table({
        "event_type": pa.array(df["event_type"], pa.string()),
        "month": pa.array(df["month"], pa.string()),
        "n_events": pa.array(df["n_events"].astype("int64"),
                             pa.int64()),
        "sum_value_micro": pa.array(df["value_sum"].astype("int64"),
                                    pa.int64()),
        "min_value_micro": pa.array(df["value_min"].astype("int64"),
                                    pa.int64()),
        "max_value_micro": pa.array(df["value_max"].astype("int64"),
                                    pa.int64())})


def q_pivot_transform(sf_dir: str):
    """ES Transform API analog (continuous pivot, stages/transform.py):
    build the per-user rollup destination from the FIRST HALF of the
    events (ts <= midpoint), then run one continuous checkpoint round
    whose delta read pushes ``ts > checkpoint`` down into the parquet
    scan, and return the destination table — which must equal the
    full-source pivot (the oracle). Exercises the generation-manifest
    merge path end-to-end inside the entry: counts/sums add, first/last
    fold, only delta-user partitions rewrite."""
    import hashlib
    import shutil

    import ray.data as rd

    from ..stages.transform import (build_transform, continue_transform,
                                    read_transform)

    path = os.path.join(sf_dir, "events.parquet")
    cols = ["ts", "user_id", "event_type", "value"]
    ds = _read(sf_dir, "events", columns=cols)
    ts_us = ds.map_batches(
        lambda t: pa.table({"ts_us": pc.cast(t["ts"], pa.int64())}),
        batch_format="pyarrow")
    split_us = (int(ts_us.min("ts_us")) + int(ts_us.max("ts_us"))) // 2

    dest = os.path.join(
        "/tmp/lsai_transform",
        hashlib.sha256(sf_dir.rstrip("/").encode()).hexdigest()[:16])
    shutil.rmtree(dest, ignore_errors=True)

    def first_half(t: pa.Table) -> pa.Table:
        keep = pc.less_equal(pc.cast(t["ts"], pa.int64()),
                             pa.scalar(split_us, pa.int64()))
        return t.filter(keep)

    build_transform(ds.map_batches(first_half, batch_format="pyarrow"),
                    dest, num_partitions=8)

    def read_delta(ckpt_us: int):
        ts_scalar = pa.scalar(ckpt_us).cast(pa.timestamp("us"))
        return rd.read_parquet(path, columns=cols,
                               filter=(pc.field("ts") > ts_scalar))

    continue_transform(read_delta, dest)
    return read_transform(dest)


def q_resumable_export(sf_dir: str):
    """Resumable partitioned export (stages/export.py) exercised
    through an actual crash-resume INSIDE the entry: export documents
    to 8 marked shards, destroy one shard (data + marker, the
    mid-write crash), re-export — only that shard rewrites — and
    summarize per shard from the read-back. The summary must equal the
    oracle's shard-hash arithmetic, proving the resumed export is
    byte-equivalent to a fresh one."""
    import hashlib
    import shutil

    from ..stages.export import export_shards, read_shards

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = os.path.join(
        "/tmp/lsai_export",
        hashlib.sha256(sf_dir.rstrip("/").encode()).hexdigest()[:12])
    shutil.rmtree(out, ignore_errors=True)
    export_shards(ds, out, num_shards=8)
    shutil.rmtree(os.path.join(out, "shard_id=3"))  # the crash
    res = export_shards(ds, out, num_shards=8)      # the resume
    assert res["written"] == [3], res
    back = read_shards(out)
    # shard_id is hive-encoded in the path; recompute it for the rollup
    did = back["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    shard = ((did * np.uint64(2654435761)) % np.uint64(8)) \
        .astype(np.int64)
    agg = (pa.table({"shard_id": pa.array(shard, pa.int64()),
                     "n_chars": back["n_chars"]})
           .group_by("shard_id")
           .aggregate([([], "count_all"), ("n_chars", "sum")]))
    out_t = pa.table({
        "shard_id": agg["shard_id"],
        "n_docs": pc.cast(agg["count_all"], pa.int64()),
        "total_chars": pc.cast(agg["n_chars_sum"], pa.int64())})
    return out_t.sort_by("shard_id")


class SecurityRulePack:
    """Actor-pool rule-based threat detector — the deterministic analog
    of the reference's LLM extraction step (its prompts define the
    taxonomy this pack encodes: reference core/prompts.py:13 'SQL
    injection, XSS, path traversal', :17 'union/select, sensitive file
    access (/etc/passwd)', :18 'XSS with script tags'). Rules compile
    ONCE per actor in __init__ (the reference's stateful-stage pattern,
    core/llm.py model setup); __call__ applies each rule as one
    vectorized Arrow regex kernel per batch — no per-row Python."""

    RULES = (
        ("sqli_union", "CRITICAL", r"union\s+select|' or 1=1"),
        ("path_traversal", "CRITICAL", r"\.\./.*etc/passwd|\.\./\.\./"),
        ("xss_script", "HIGH", r"<script>"),
        ("admin_probe", "HIGH", r"/admin|/wp-login"),
    )

    def __init__(self):
        import re

        # compiled here once per actor; the Arrow kernel re-parses the
        # pattern internally, so this validates + documents the set
        self.compiled = [(n, sev, re.compile(p))
                         for n, sev, p in self.RULES]

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, rules, sevs = [], [], []
        line = t["line"]
        eid = t["event_id"]
        for name, sev, pat in self.compiled:
            hit = pc.match_substring_regex(line, pat.pattern)
            sel = eid.filter(hit)
            ids.append(sel)
            rules.append(pa.array([name] * len(sel), pa.string()))
            sevs.append(pa.array([sev] * len(sel), pa.string()))
        return pa.table({
            "event_id": pa.concat_arrays([a.combine_chunks()
                                          if isinstance(a, pa.ChunkedArray)
                                          else a for a in ids]),
            "rule": pa.concat_arrays(rules),
            "severity": pa.concat_arrays(sevs)})


def _derive_request_lines(t: pa.Table) -> pa.Table:
    """Deterministic HTTP-request-shaped lines from events (the driver
    tables embed no raw log text; this stands in for the reference's
    httpd access lines, analyzers/httpd_access.py): k-keyed payload
    families inject the attack patterns the rule pack hunts."""
    k = pc.cast(pc.struct_field(
        pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
        pa.int64()).to_numpy(zero_copy_only=False)
    suffix = np.full(t.num_rows, "", dtype=object)
    suffix[k % 17 == 0] = "?q=' or 1=1"
    suffix[k % 23 == 0] = "/../../etc/passwd"
    suffix[k % 29 == 0] = "?m=<script>alert(1)</script>"
    suffix[k % 31 == 0] = "/admin/login"
    line = pc.binary_join_element_wise(
        pa.array(["GET /app/"] * t.num_rows),
        pc.cast(pa.array(k), pa.string()),
        pa.array(suffix.tolist(), pa.string()),
        pa.array([" HTTP/1.1"] * t.num_rows), "")
    return pa.table({"event_id": t["event_id"], "line": line})


def q_security_detections(sf_dir: str):
    """The reference's flagship semantic — security-event extraction
    from log lines — as a deterministic rule pack (SecurityRulePack; it
    encodes the prompt taxonomy, reference core/prompts.py:13-18) run
    in an actor pool over derived request lines. Per-rule counts and
    distinct offending events, ordered by the severity map then rule."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["event_id", "props"])
    hits = (ds.map_batches(_derive_request_lines, batch_format="pyarrow")
            .map_batches(SecurityRulePack, batch_format="pyarrow",
                         concurrency=(1, 4)))

    def partial(t: pa.Table) -> pa.Table:
        agg = (t.group_by(["rule", "severity"])
               .aggregate([([], "count_all")]))
        return pa.table({"rule": agg["rule"],
                         "severity": agg["severity"],
                         "pn": pc.cast(agg["count_all"], pa.int64())})

    out = (hits.map_batches(partial, batch_format="pyarrow")
           .groupby(["rule", "severity"])
           .aggregate(Sum("pn", alias_name="n_events"))
           .to_pandas())
    out = out.sort_values(["severity", "rule"]).reset_index(drop=True)
    out["n_events"] = out["n_events"].astype("int64")
    return pa.Table.from_pandas(out[["severity", "rule", "n_events"]],
                                preserve_index=False)


def _ubq_engine(sf_dir: str):
    """The engine over a clone of the documents index whose 'merge'
    docs were re-indexed with lang 'xx' (built on a miss)."""
    import shutil

    import pyarrow.parquet as pq

    from ..index.delete import delete_docs
    from ..index.update import update_index
    from ..query.shards import SearchEngine

    if ("ubq", sf_dir) in _ENGINE_CACHE:
        eng = _ENGINE_CACHE[("ubq", sf_dir)]
    else:
        base = _docs_engine(sf_dir)
        ids = np.sort(base.match_ids("merge"))
        clone = base.index_dir + "-ubq"
        shutil.rmtree(clone, ignore_errors=True)
        shutil.copytree(base.index_dir, clone)
        # read ONLY the matched docs' source rows (row-group-pruned
        # pushdown — never the whole docs table), rewrite the field,
        # bump the commit key (the new document version ES would
        # reindex). At match sets beyond driver memory the same rewrite
        # runs as a map_batches keep-filter writing the delta
        # distributed (the scroll_export scan plan's shape).
        import pyarrow.dataset as pa_ds

        docs = pa_ds.dataset(os.path.join(base.index_dir, "docs"),
                             format="parquet").to_table(
            columns=["repo", "path", "commit", "lang", "content"],
            filter=pc.field("doc_id").isin(pa.array(ids, pa.int64())))
        upd = docs
        upd = upd.set_column(
            upd.schema.get_field_index("lang"), "lang",
            pa.array(["xx"] * upd.num_rows, pa.string()))
        commit2 = pc.binary_join_element_wise(
            pa.array(["u1"] * upd.num_rows),
            pc.utf8_slice_codeunits(upd["commit"], 2, 40), "")
        upd = upd.set_column(
            upd.schema.get_field_index("commit"), "commit", commit2)
        delta = os.path.join(clone, "_ubq_delta.parquet")
        pq.write_table(upd, delta)
        delete_docs(clone, ids.tolist())
        update_index([delta], clone, delta_tag="ubq")
        eng = SearchEngine(clone)
        _ENGINE_CACHE[("ubq", sf_dir)] = eng
    return eng


def q_update_by_query(sf_dir: str):
    """ES ``_update_by_query`` analog: every doc matching 'merge' gets
    lang rewritten to 'xx' — executed the way immutable segments force
    ES/Lucene to execute it: tombstone the old versions, append the
    rewritten docs as a delta (a bumped commit key = the new document
    version), exactly delete+reindex. Runs on a cloned index; the
    result set is the docs now carrying lang 'xx', mapped back to
    source ids through the repo key. Lang-filtered search reflecting
    the update (xx finds them, en no longer does) is pinned in
    test_incremental.py."""
    eng = _ubq_engine(sf_dir)
    new_ids = eng._filter_ids({"lang": "xx"})
    new_ids = eng._drop_tombstones(np.sort(new_ids))
    meta = eng._join_docmap([int(d) for d in new_ids])
    src = sorted(int(r[1:]) for r in meta["repo"].to_pylist())
    return pa.table({"doc_id": pa.array(src, pa.int64()),
                     "lang": pa.array(["xx"] * len(src), pa.string())})


def q_bloom_contamination(sf_dir: str):
    """Bloom-filter contamination screen (rows-only: FPR is inherent —
    one-sidedness and the FPR bound are pinned in test_sketch.py): a
    1 Mbit Bloom over the 'en' docs' distinct terms, probed with every
    term in the corpus vocabulary. 'Definitely absent' is exact (the
    Bloom guarantee); 'maybe' overcounts by at most the FPR. Exchange:
    per-batch bitmap partials OR-merge — KBs per task, no shuffle."""
    from ray.data.aggregate import Count

    from ..analysis.tokenizer import tokenize_batch_arrow
    from ..functions.sketch import bloom_build, bloom_contains

    ds = _read(sf_dir, "documents", columns=["text", "lang"])

    def en_terms(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["lang"], "en"))
        _row, toks, _dl = tokenize_batch_arrow(t["text"])
        return pa.table({"term": toks.unique()})

    bits = bloom_build(ds.map_batches(en_terms, batch_format="pyarrow"),
                       "term")

    def all_terms(t: pa.Table) -> pa.Table:
        _row, toks, _dl = tokenize_batch_arrow(t["text"])
        return pa.table({"term": toks.unique()})

    vocab = (ds.map_batches(all_terms, batch_format="pyarrow")
             .groupby("term").aggregate(Count(alias_name="c"))
             .to_pandas())  # vocab-bounded
    terms = pa.array(sorted(vocab["term"].tolist()), pa.string())
    maybe = bloom_contains(bits, terms)
    return pa.table({
        "n_probed": pa.array([len(terms)], pa.int64()),
        "n_maybe_en": pa.array([int(maybe.sum())], pa.int64()),
        "n_definitely_new": pa.array([int((~maybe).sum())], pa.int64()),
    })


def q_count_min_heavy(sf_dir: str):
    """Count-Min heavy hitters (rows-only: estimates overcount by
    design; one-sidedness + the 2n/width error bound are pinned in
    test_sketch.py): CM-estimated frequencies of the exact top-10
    event users. Per-batch counter grids ADD-merge — the sketch leaves
    each task, never the rows."""
    from ray.data.aggregate import Count

    from ..functions.sketch import cm_build, cm_estimate

    ds = _read(sf_dir, "events", columns=["user_id"])
    cm = cm_build(ds, "user_id")
    top = (ds.groupby("user_id").aggregate(Count(alias_name="n"))
           .to_pandas().sort_values(["n", "user_id"],
                                    ascending=[False, True])
           .head(10).reset_index(drop=True))
    est = cm_estimate(cm, pa.array(top["user_id"].tolist(), pa.int64()))
    return pa.table({
        "user_id": pa.array(top["user_id"].to_numpy(np.int64),
                            pa.int64()),
        "exact_n": pa.array(top["n"].to_numpy(np.int64), pa.int64()),
        "cm_est": pa.array(est, pa.int64())})


_PR_SCALE = 10 ** 12   # fixed-point PageRank unit
_PR_ITERS = 5
_PR_EDGE_PARTS = 32    # hash parts for the packed-edge dedup exchange


def q_pagerank(sf_dir: str):
    """Iterative graph processing on Ray Data: PageRank over the user
    co-occurrence graph (u -> v when both users emit events sharing a
    session key ``k``; both directions, distinct edges). All arithmetic
    is INTEGER FIXED-POINT (1e12 units, floor division) so five power
    iterations are bit-reproducible in SQL — no float drift to absorb:
    p0 = SCALE // N; contribution = p[u] // outdeg[u]; p' = (15 *
    (SCALE // N)) // 100 + (85 * sum_contrib) // 100 (dangling mass
    dropped, the classic simplification, identically on both sides).

    Exchange shape per iteration: the rank vector (one int per node,
    node-set-sized, NOT event-sized) broadcasts via ray.put; each edge
    block computes its contributions vectorized and a groupby(dst) sums
    them — the standard vertex-program exchange. The k-cooccurrence
    pair expansion is grouped per key (bounded groups here; a hot key
    at fleet scale takes the jaccard-style cap+salt escape). Cross-key
    edge dedup packs (src,dst) into ONE int64 and hash-partitions into
    a fixed number of parts deduped by np.unique inside map_groups —
    a Ray multi-key Aggregate here would walk the ~N² distinct groups
    in Python on the reduce side (measured 233 s vs 9 s at sf0.1).
    Returns the top 20 users by rank (ties doc asc)."""
    import ray as _ray
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["user_id", "props"])

    def ku_pairs(t: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k"),
            pa.int64()).to_numpy(zero_copy_only=False)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        key = np.unique(k * 1_000_000 + u)  # distinct (k, user) in batch
        return pa.table({"k": pa.array(key // 1_000_000, pa.int64()),
                         "user": pa.array(key % 1_000_000, pa.int64())})

    def edges_of_group(g: pa.Table) -> pa.Table:
        users = np.unique(g["user"].to_numpy())
        m = users.size
        if m < 2:
            return pa.table({"e": pa.array([], pa.int64()),
                             "part": pa.array([], pa.int64())})
        src = np.repeat(users, m)
        dst = np.tile(users, m)
        keep = src != dst
        e = src[keep] * 1_000_000 + dst[keep]  # packed edge key
        return pa.table({"e": pa.array(e, pa.int64()),
                         "part": pa.array(e % _PR_EDGE_PARTS, pa.int64())})

    def dedup_part(g: pa.Table) -> pa.Table:
        e = np.unique(g["e"].to_numpy(zero_copy_only=False))
        return pa.table({"src": pa.array(e // 1_000_000, pa.int64()),
                         "dst": pa.array(e % 1_000_000, pa.int64())})

    # distinct (k,user) -> per-key bidirectional pairs -> distinct edges
    edges = (ds.map_batches(ku_pairs, batch_format="pyarrow")
             .groupby("k").map_groups(edges_of_group,
                                      batch_format="pyarrow")
             .groupby("part").map_groups(dedup_part,
                                         batch_format="pyarrow"))
    edges = edges.materialize()  # reused every iteration

    def deg_partial(t: pa.Table) -> pa.Table:
        agg = t.group_by("src").aggregate([([], "count_all")])
        return pa.table({"src": agg["src"],
                         "pn": pc.cast(agg["count_all"], pa.int64())})

    deg_df = (edges.map_batches(deg_partial, batch_format="pyarrow")
              .groupby("src").aggregate(Sum("pn", alias_name="outdeg"))
              .to_pandas())
    deg_df = deg_df.sort_values("src").reset_index(drop=True)
    nodes = deg_df["src"].to_numpy(dtype=np.int64)
    degs = deg_df["outdeg"].to_numpy(dtype=np.int64)
    n_nodes = int(nodes.size)
    if n_nodes == 0:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "rank_fp": pa.array([], pa.int64())})
    p0 = _PR_SCALE // n_nodes
    base = (15 * p0) // 100
    pvec = np.full(n_nodes, p0, dtype=np.int64)
    deg_ref = _ray.put((nodes, degs))
    for _ in range(_PR_ITERS):
        p_ref = _ray.put(pvec)

        def contrib(t: pa.Table) -> pa.Table:
            pp = _ray.get(p_ref)
            nn, dd = _ray.get(deg_ref)
            src = t["src"].to_numpy(zero_copy_only=False)
            dst = t["dst"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(nn, src)  # every src is a node
            c = pp[idx] // dd[idx]
            agg = (pa.table({"dst": pa.array(dst, pa.int64()),
                             "c": pa.array(c, pa.int64())})
                   .group_by("dst").aggregate([("c", "sum")]))
            return pa.table({"dst": agg["dst"],
                             "pc": pc.cast(agg["c_sum"], pa.int64())})

        sums = (edges.map_batches(contrib, batch_format="pyarrow")
                .groupby("dst").aggregate(Sum("pc", alias_name="s"))
                .to_pandas())
        acc = np.zeros(n_nodes, dtype=np.int64)
        idx = np.searchsorted(nodes, sums["dst"].to_numpy(dtype=np.int64))
        acc[idx] = sums["s"].to_numpy(dtype=np.int64)
        pvec = base + (85 * acc) // 100
    order = np.lexsort((nodes, -pvec))[:20]
    return pa.table({
        "user_id": pa.array(nodes[order], pa.int64()),
        "rank_fp": pa.array(pvec[order], pa.int64())})


def q_span_or(sf_dir: str):
    """ES ``span_or`` over single-term clauses 'merge' / 'sort': per-doc
    occurrence counts of either term from the positions sidecar (one
    multi-alternative slot through the shared verify kernel)."""
    eng = _docs_engine(sf_dir)
    return eng.span_or_match(["merge", "sort"])


def q_match_bool_prefix(sf_dir: str):
    """ES ``match_bool_prefix``: 'error merge s' — the trailing 's'
    expands against the shard dictionaries and every expansion scores
    as another bool-should term; plain BM25 sum over the union."""
    eng = _docs_engine(sf_dir)
    res = eng.match_bool_prefix_search("error merge s", k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_percentiles_bucket(sf_dir: str):
    """ES ``percentiles_bucket`` sibling aggregation: p50/p90 of the
    daily count histogram's bucket values, the shared quantile_disc
    convention (sorted element at ceil(q*n)-1). Distributed parent
    histogram; the sibling pass sorts #days integers on the driver."""
    import math

    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    daily = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("day").aggregate(Count(alias_name="n"))
             .to_pandas())
    v = np.sort(daily["n"].to_numpy(dtype=np.int64))
    n = v.size

    def q(p: float) -> int:
        return int(v[max(0, math.ceil(p * n) - 1)])

    return pa.table({"n_buckets": pa.array([n], pa.int64()),
                     "p50": pa.array([q(0.5)], pa.int64()),
                     "p90": pa.array([q(0.9)], pa.int64())})


# geo_bounding_box filter corners (integer centi-degrees)
_GEO_BBOX = (-3000, 3000, -9000, 9000)  # lat lo/hi, lon lo/hi


def q_geo_bbox_filter(sf_dir: str):
    """ES ``geo_bounding_box`` filter over the enriched locations:
    per-country counts of locations inside the box — one vectorized
    integer comparison per batch, partial counts, small groupby."""
    from ray.data.aggregate import Sum

    lat_lo, lat_hi, lon_lo, lon_hi = _GEO_BBOX

    def partial(t: pa.Table) -> pa.Table:
        lat = t["lat_cd"].to_numpy(zero_copy_only=False)
        lon = t["lon_cd"].to_numpy(zero_copy_only=False)
        keep = ((lat >= lat_lo) & (lat <= lat_hi)
                & (lon >= lon_lo) & (lon <= lon_hi))
        kept = t.filter(pa.array(keep))
        agg = (pa.table({"cc": kept["country_code"]})
               .group_by("cc").aggregate([([], "count_all")]))
        return pa.table({"cc": agg["cc"],
                         "pn": pc.cast(agg["count_all"], pa.int64())})

    out = (_geo_located_ips(sf_dir)
           .map_batches(partial, batch_format="pyarrow")
           .groupby("cc").aggregate(Sum("pn", alias_name="n_in_box"))
           .sort("cc").to_pandas())
    out["n_in_box"] = out["n_in_box"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


# (lon_cd, lat_cd) vertices, CCW convex — shared verbatim (as literal
# edge conditions) by the geo_polygon oracle SQL; all arithmetic stays
# int64 centi-degrees so engine and SQL agree with no float tolerance
_GEO_POLYGON = [(-12000, -4000), (0, -6000), (12000, -2000),
                (8000, 5000), (-8000, 6000)]


def q_geo_polygon_filter(sf_dir: str):
    """ES ``geo_polygon`` filter: per-country counts of enriched
    locations inside a convex CCW polygon. Inside-test = every edge
    cross product (x2-x1)*(lat-y1) - (y2-y1)*(lon-x1) >= 0 (boundary
    inclusive) — exact int64 centi-degree arithmetic, one vectorized
    pass per batch, partial counts, small groupby."""
    from ray.data.aggregate import Sum

    V = _GEO_POLYGON

    def partial(t: pa.Table) -> pa.Table:
        lat = t["lat_cd"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lon = t["lon_cd"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = np.ones(lat.size, dtype=bool)
        for i in range(len(V)):
            x1, y1 = V[i]
            x2, y2 = V[(i + 1) % len(V)]
            keep &= ((x2 - x1) * (lat - y1)
                     - (y2 - y1) * (lon - x1)) >= 0
        kept = t.filter(pa.array(keep))
        agg = (pa.table({"cc": kept["country_code"]})
               .group_by("cc").aggregate([([], "count_all")]))
        return pa.table({"cc": agg["cc"],
                         "pn": pc.cast(agg["count_all"], pa.int64())})

    out = (_geo_located_ips(sf_dir)
           .map_batches(partial, batch_format="pyarrow")
           .groupby("cc").aggregate(Sum("pn", alias_name="n_in_poly"))
           .sort("cc").to_pandas())
    out["n_in_poly"] = out["n_in_poly"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_geo_line_agg(sf_dir: str):
    """ES ``geo_line`` aggregation: per user, the ordered track of
    their event locations as one LineString-style string
    ("lat:lon>lat:lon..."), points ordered by (event_id, ip) — the
    sort-field contract of the ES agg. The enrichment is the shared
    broadcast actor-pool stage; the per-user line builds inside
    ``map_groups`` (a group is one user's points), and only the top-10
    users by point count leave the driver-side head."""
    import ray

    from ..stages.geoip import GeoIPEnrich, _fake_geo_db

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "props"])

    def prep(t: pa.Table) -> pa.Table:
        return _derive_ip_lines(t).append_column("user_id", t["user_id"])

    db_ref = ray.put(_fake_geo_db())
    enriched = ds.map_batches(prep, batch_format="pyarrow").map_batches(
        GeoIPEnrich, fn_constructor_args=(db_ref,),
        fn_constructor_kwargs={"text_col": "line",
                               "cache_size": 100_000,
                               "with_location": True},
        batch_format="pyarrow", concurrency=(1, 4))

    def explode(t: pa.Table) -> pa.Table:
        g = t["geo_ips"]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        flat = pc.list_flatten(g)
        par = pc.list_parent_indices(g)
        return pa.table({
            "user_id": pc.take(t["user_id"], par),
            "event_id": pc.take(t["event_id"], par),
            "ip": pc.struct_field(flat, "ip"),
            "lat_cd": pc.struct_field(flat, "lat_cd"),
            "lon_cd": pc.struct_field(flat, "lon_cd"),
        })

    def to_line(df):
        df = df.sort_values(["event_id", "ip"], kind="mergesort")
        pts = (df["lat_cd"].astype(str) + ":"
               + df["lon_cd"].astype(str))
        import pandas as pd

        return pd.DataFrame({
            "user_id": [int(df["user_id"].iloc[0])],
            "n_points": [len(df)],
            "line": [">".join(pts)]})

    lines = (enriched.map_batches(explode, batch_format="pyarrow")
             .groupby("user_id").map_groups(to_line))
    out = topk(lines, 10, [("n_points", "descending"),
                           ("user_id", "ascending")])
    out["n_points"] = out["n_points"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_bucket_correlation(sf_dir: str):
    """ES ``bucket_correlation`` pipeline aggregation: Pearson r
    between two sibling date-histogram count series (error vs purchase
    events per day). Mergeable integer partials roll up to one tiny
    per-day table; every moment (k, Σx, Σy, Σxy, Σx², Σy²) is an exact
    Python int, and the correlation is evaluated ONCE in float64 with
    the same operation tree as the oracle — a single division chain
    over exact integers, so no rounding is needed on either side."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.strftime(t["ts"], format="%Y-%m-%d")
        err = pc.cast(pc.equal(t["event_type"], "error"), pa.int64())
        pur = pc.cast(pc.equal(t["event_type"], "purchase"), pa.int64())
        agg = (pa.table({"day": day, "x": err, "y": pur})
               .group_by("day")
               .aggregate([("x", "sum"), ("y", "sum")]))
        return pa.table({"day": agg["day"], "px": agg["x_sum"],
                         "py": agg["y_sum"]})

    per_day = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby("day")
               .aggregate(Sum("px", alias_name="x"),
                          Sum("py", alias_name="y"))
               .to_pandas())
    x = per_day["x"].to_numpy(dtype=np.int64)
    y = per_day["y"].to_numpy(dtype=np.int64)
    kk = len(per_day)
    sx, sy = int(x.sum()), int(y.sum())
    sxy = int((x * y).sum())
    sxx, syy = int((x * x).sum()), int((y * y).sum())
    num = kk * sxy - sx * sy
    d1 = kk * sxx - sx * sx
    d2 = kk * syy - sy * sy
    r = float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
    return pa.table({
        "n_buckets": pa.array([kk], pa.int64()),
        "correlation": pa.array([r], pa.float64())})


def q_multimodal_resize(sf_dir: str):
    """Multimodal resize stage metadata (multimodal/binary.py
    ImageResizer): per-lang totals of the fit-inside geometry and the
    resized RGB byte count over the stub-decoded payloads — all exact
    integer arithmetic, so the agg hashes against SQL. Pipeline shape:
    attach payload -> actor-pool decode -> actor-pool resize -> small
    groupby."""
    from ray.data.aggregate import Count, Sum

    from ..multimodal import (BinaryFeatureExtractor, ImageResizer,
                              attach_binary_payload)

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    decoded = (ds.map_batches(attach_binary_payload,
                              batch_format="pyarrow")
               .map_batches(BinaryFeatureExtractor,
                            batch_format="pyarrow",
                            concurrency=(1, 4), batch_size=512)
               .map_batches(ImageResizer, batch_format="pyarrow",
                            concurrency=(1, 4), batch_size=512))

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"lang": t["lang"],
                         "out_w": t["out_width"],
                         "out_h": t["out_height"],
                         "rb": t["resized_bytes"]})

    out = (decoded.map_batches(partial, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n"),
                      Sum("out_w", alias_name="total_out_width"),
                      Sum("out_h", alias_name="total_out_height"),
                      Sum("rb", alias_name="total_resized_bytes"))
           .sort("lang").to_pandas())
    for c in ("n", "total_out_width", "total_out_height",
              "total_resized_bytes"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_video_frame_sample(sf_dir: str):
    """Multimodal frame-sampling stage (multimodal/binary.py
    FrameSampler — the flat_map layout: one video row explodes to one
    row per sampled frame): per-doc sampled-frame count and last frame
    index over the first 300 docs, integer-exact vs SQL (frame count =
    bytes // 1024 + 1 capped at 8, uniform stride)."""
    from ray.data.aggregate import Count, Max

    from ..multimodal import FrameSampler, attach_binary_payload

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def head(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["doc_id"], 300))

    frames = (ds.map_batches(head, batch_format="pyarrow")
              .map_batches(attach_binary_payload, batch_format="pyarrow")
              .map_batches(FrameSampler, batch_format="pyarrow",
                           concurrency=(1, 4), batch_size=256))
    out = (frames.groupby("doc_id")
           .aggregate(Count(alias_name="n_frames"),
                      Max("frame_index", alias_name="last_frame"))
           .sort("doc_id").to_pandas())
    out["n_frames"] = out["n_frames"].astype("int64")
    out["last_frame"] = out["last_frame"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_synonym_search(sf_dir: str):
    """ES synonym_graph analog: the query 'error join' expands 'join'
    with synonym 'merge' — scoring equals a plain BM25 over the union
    of the expanded term set."""
    eng = _docs_engine(sf_dir)
    res = eng.synonym_search("error join",
                             synonyms={"join": ["merge"]}, k=10)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_sliced_scroll(sf_dir: str):
    """ES sliced scroll: slice 1 of 3 of the standard scroll export
    (docs matching any query term AND doc_id % 3 == 1) — the contract
    that lets m independent workers export a match set in parallel;
    disjointness/union-covering vs the unsliced scroll is pinned in
    test_search_api.py."""
    import hashlib

    eng = _docs_engine(sf_dir)
    outdir = os.path.join(
        "/tmp/lsai_scroll_slice",
        hashlib.sha256(sf_dir.rstrip("/").encode()).hexdigest()[:12])
    return scroll_export(eng, BM25_QUERY_TEXT, outdir, slice_id=1,
                         slices=3)


_MIXTURE_TEMPERATURE = 0.3  # the multilingual-pretraining standard


def q_mixture_temperature(sf_dir: str):
    """Temperature-scaled language sampling (the XLM-R / mBERT
    multilingual mixture rule, public): sampling share q_l proportional
    to (token_share_l)^T with T = 0.3 — upweights low-resource
    languages without the hard targets of mixture_weights. Token counts
    are the same distributed groupby; the pow/normalize post-pass is
    #langs-bounded with the oracle's cast-first op tree (round6 absorbs
    the unordered SQL sum of the 5 pow terms)."""
    from ray.data.aggregate import Sum

    from ..functions import add_token_count

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    tk = (ds.map_batches(add_token_count, batch_format="pyarrow")
          .select_columns(["lang", "n_tokens"])
          .groupby("lang").aggregate(Sum("n_tokens", alias_name="tokens"))
          .sort("lang").to_pandas())
    tokens = tk["tokens"].to_numpy(dtype=np.float64)
    p = tokens / float(int(tk["tokens"].sum()))
    q = p ** _MIXTURE_TEMPERATURE
    share = q / q.sum()
    return pa.table({
        "lang": pa.array(tk["lang"].tolist(), pa.string()),
        "tokens": pa.array(tk["tokens"].to_numpy(dtype=np.int64),
                           pa.int64()),
        "token_share": _round6(pa.array(p, pa.float64())),
        "sample_share": _round6(pa.array(share, pa.float64()))})


SEARCH_TEMPLATE_SOURCE = (
    '{"query": {"bool": {'
    '"must": [{"match": {"content": "{{qtext}}"}}], '
    '"filter": [{"term": {"lang": "{{lang}}"}}]}}, '
    '"size": {{size}}{{^size}}10{{/size}}}')


def q_search_template(sf_dir: str):
    """ES ``_search/template``: a mustache-parameterized DSL body
    ({{qtext}}/{{lang}} substitution, {{size}} falling back through a
    {{^size}} default block) rendered on the driver and executed via
    the verified DSL executor — templating adds zero new scoring
    surface, so the filtered-BM25 oracle is exact
    (query/template.py)."""
    from ..query.template import search_template

    eng = _docs_engine(sf_dir)
    res = search_template(eng, SEARCH_TEMPLATE_SOURCE,
                          {"qtext": BM25_QUERY_TEXT, "lang": "es"})
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_msearch_template(sf_dir: str):
    """ES ``_msearch/template``: a BATCH of mustache-template requests
    (same saved template, different params — the Kibana saved-search
    re-run shape) rendered and executed in one call, stacked under
    query_id. Rendering adds zero scoring surface, so the oracle is a
    UNION ALL of the per-request filtered-BM25 selects."""
    from ..query.template import msearch_template

    eng = _docs_engine(sf_dir)
    res = msearch_template(eng, [
        {"source": SEARCH_TEMPLATE_SOURCE,
         "params": {"qtext": BM25_QUERY_TEXT, "lang": "es"}},
        {"source": SEARCH_TEMPLATE_SOURCE,
         "params": {"qtext": BM25_QUERY_TEXT, "lang": "fr"}},
    ])
    return pa.table({"query_id": res["query_id"],
                     "doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_dsl_search(sf_dir: str):
    """ES Query-DSL JSON executor (query/dsl.py): a verbatim ES request
    body — bool with a multi-term match must, a lang term filter and a
    match must_not — executed against the engine. Candidates are docs
    matching ANY must-match term (ES match is OR-of-terms), lang 'en',
    and not containing 'failure'; scored by BM25 over the matched
    terms."""
    eng = _docs_engine(sf_dir)
    body = {"query": {"bool": {
        "must": [{"match": {"content": BM25_QUERY_TEXT}}],
        "filter": [{"term": {"lang": "en"}}],
        "must_not": [{"match": {"content": "failure"}}],
    }}, "size": 10}
    res = eng.dsl_search(body)
    return pa.table({"doc_id": res["doc_id"],
                     "score": _round6(res["score"])})


def q_semdedup(sf_dir: str):
    """SemDeDup semantic dedup (rows-only: the k-means fit is not
    SQL-expressible; the drop rule's invariants are pinned in
    test_ann.py): per-vector keep decisions after spherical-k-means
    clustering + greedy within-cluster cosine pruning at 0.93."""
    from ..ann import semdedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return semdedup(ds, threshold=0.93, n_centroids=8)


_FUNNEL_SPAN_US = 7 * 24 * 3600 * 1_000_000  # 7 days per step


def q_funnel_analysis(sf_dir: str):
    """Conversion-funnel analysis (the Kibana funnel panel shape):
    view -> click -> purchase per user, each step within 7 days of the
    previous, first-qualifying-event semantics (t1 = first view; t2 =
    first click in (t1, t1+span]; t3 = first purchase in (t2,
    t2+span]). One user groupby; each group's chain is three
    searchsorteds over the user's own sorted per-type timestamps.
    Output: one row per step with the surviving user count."""
    ds = _read(sf_dir, "events", columns=["ts", "user_id", "event_type"])
    steps = ["view", "click", "purchase"]

    def prune(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"], value_set=pa.array(steps))
        t = t.filter(keep)
        return pa.table({"user_id": t["user_id"],
                         "ts_us": pc.cast(t["ts"], pa.int64()),
                         "event_type": t["event_type"]})

    def per_user(g):
        et = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy()
        by = {s: np.sort(ts[et == s]) for s in steps}
        reached = np.zeros(3, dtype=np.int64)
        if by["view"].size:
            reached[0] = 1
            t1 = int(by["view"][0])
            c = by["click"]
            i = np.searchsorted(c, t1, side="right")
            if i < c.size and c[i] <= t1 + _FUNNEL_SPAN_US:
                reached[1] = 1
                t2 = int(c[i])
                p = by["purchase"]
                j = np.searchsorted(p, t2, side="right")
                if j < p.size and p[j] <= t2 + _FUNNEL_SPAN_US:
                    reached[2] = 1
        return pa.table({"step": pa.array(steps),
                         "pn": pa.array(reached, pa.int64())})

    parts = (ds.map_batches(prune, batch_format="pyarrow")
             .groupby("user_id")
             .map_groups(per_user, batch_format="pandas"))

    def rollup(t: pa.Table) -> pa.Table:
        agg = t.group_by("step").aggregate([("pn", "sum")])
        return pa.table({"step": agg["step"],
                         "pn": pc.cast(agg["pn_sum"], pa.int64())})

    pdf = (parts.map_batches(rollup, batch_format="pyarrow")
           .to_pandas().groupby("step", as_index=False)
           .agg(n_users=("pn", "sum")))
    order = {s: i + 1 for i, s in enumerate(steps)}
    pdf["step_no"] = pdf["step"].map(order).astype("int64")
    pdf["n_users"] = pdf["n_users"].astype("int64")
    pdf = pdf.sort_values("step_no").reset_index(drop=True)
    return pa.Table.from_pandas(pdf[["step_no", "step", "n_users"]],
                                preserve_index=False)


def q_retention_cohorts(sf_dir: str):
    """Cohort-retention matrix (the classic product-analytics rollup at
    fleet scale): users bucketed by FIRST active day; for every (cohort
    day, day offset) the count of cohort users active on that offset.
    Exchange shape: per-batch distinct (user, day) partials, one user
    groupby whose groups emit (cohort, offset) rows, then per-block
    partial counts into a cohort x offset-bounded rollup — raw events
    never shuffle twice and nothing user-set-sized hits the driver."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    day_us = 24 * 3600 * 1_000_000

    def distinct_days(t: pa.Table) -> pa.Table:
        d = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False) \
            // day_us
        u = t["user_id"].to_numpy(zero_copy_only=False)
        key = np.unique(u.astype(np.int64) * 100_000 + d)
        return pa.table({"user_id": pa.array(key // 100_000, pa.int64()),
                         "day": pa.array(key % 100_000, pa.int64())})

    def per_user(g):
        days = np.unique(g["day"].to_numpy())
        return pa.table({
            "cohort_day": pa.array(np.full(days.size, days[0]),
                                   pa.int64()),
            "offset_days": pa.array(days - days[0], pa.int64())})

    def count_partial(t: pa.Table) -> pa.Table:
        agg = (t.group_by(["cohort_day", "offset_days"])
               .aggregate([([], "count_all")]))
        return pa.table({"cohort_day": agg["cohort_day"],
                         "offset_days": agg["offset_days"],
                         "pn": pc.cast(agg["count_all"], pa.int64())})

    cohorts = (ds.map_batches(distinct_days, batch_format="pyarrow")
               .groupby("user_id")
               .map_groups(per_user, batch_format="pandas")
               .map_batches(count_partial, batch_format="pyarrow")
               .groupby(["cohort_day", "offset_days"])
               .aggregate(Sum("pn", alias_name="n_users"))
               .to_pandas())
    cohorts = (cohorts.sort_values(["cohort_day", "offset_days"])
               .reset_index(drop=True))
    import pandas as pd

    cohorts["cohort"] = pd.to_datetime(
        cohorts["cohort_day"] * 86400, unit="s").dt.strftime("%Y-%m-%d")
    cohorts["n_users"] = cohorts["n_users"].astype("int64")
    return pa.Table.from_pandas(
        cohorts[["cohort", "offset_days", "n_users"]],
        preserve_index=False)


_CLS_DIM = 256  # hashed feature space of the quality classifier


def q_hashed_ngram_classifier(sf_dir: str):
    """fastText-style document quality classifier: every token hashes
    into a ``_CLS_DIM``-bucket feature space (md5 low-32 mod D — the
    hashing trick), a deterministic Knuth-multiplicative weight vector
    ``w[j] = ((j*2654435761) mod 2^32)/2^31 - 1`` stands in for trained
    weights, and the doc score is ``sigmoid(mean_token w[h(tok)])``.
    One vectorized pass: hashing touches only the batch's *unique*
    tokens (vocab-sized, not occurrence-sized), scores accumulate with
    ``np.add.at``. At target scale the weight vector is broadcast once
    per actor — here it's 2 KB recomputed per batch. Top-10 docs by
    score. Exact SQL oracle (DuckDB md5 hex-prefix cast matches
    hashlib; round6 absorbs summation order)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    dim = _CLS_DIM
    w = ((np.arange(dim, dtype=np.uint64) * np.uint64(2654435761))
         % np.uint64(2 ** 32)).astype(np.float64) / 2147483648.0 - 1.0

    def score(t: pa.Table) -> pa.Table:
        import hashlib

        from ..dedup.jaccard import _shingle_rows

        sh = _shingle_rows(t, "text", "doc_id", 1, distinct=False)
        if sh.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "_sw": pa.array([], pa.float64())})
        toks = sh["sh"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(toks, return_inverse=True)
        feats = np.fromiter(
            (int(hashlib.md5(u.encode()).hexdigest()[:8], 16) % dim
             for u in uniq), dtype=np.int64, count=uniq.size)
        wt = w[feats[inv]]
        did = sh["doc_id"].to_numpy(zero_copy_only=False)
        docs, dinv = np.unique(did, return_inverse=True)
        sw = np.zeros(docs.size, dtype=np.float64)
        np.add.at(sw, dinv, wt)
        n_tok = np.bincount(dinv).astype(np.int64)
        return pa.table({"doc_id": pa.array(docs, pa.int64()),
                         "n_tokens": pa.array(n_tok, pa.int64()),
                         "_sw": pa.array(sw, pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")

    # score = 1/(1+exp(-sw/n)) computed once, ranked unrounded,
    # rounded only for display (oracle mirrors the same op tree)
    def add_score(t: pa.Table) -> pa.Table:
        s = 1.0 / (1.0 + np.exp(
            -(t["_sw"].to_numpy(zero_copy_only=False)
              / t["n_tokens"].to_numpy(zero_copy_only=False))))
        return t.append_column("score", pa.array(s, pa.float64()))

    df = topk(scored.map_batches(add_score, batch_format="pyarrow"),
              10, [("score", "descending"), ("doc_id", "ascending")])
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        "n_tokens": pa.array(df["n_tokens"].to_numpy(), pa.int64()),
        "score": _round6(pa.array(df["score"].to_numpy(), pa.float64()))})


_CHUNK_W, _CHUNK_S = 32, 16  # window / stride (tokens)


def q_sliding_window_chunks(sf_dir: str):
    """Training-data chunker: split each sampled document (doc_id %
    101 == 0 — deterministic, cluster-size invariant) into overlapping
    token windows of ``_CHUNK_W`` with stride ``_CHUNK_S`` — the
    context-window packing shape every LLM pretraining pipeline needs.
    Fully vectorized flat_map: one regex split per batch, window token
    indices built with the shingle machinery's repeat/cumsum trick,
    chunk text materialized with a single ``pc.binary_join`` over a
    ListArray — no per-row Python. Exact SQL oracle (generate_series +
    list_slice)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    W, S = _CHUNK_W, _CHUNK_S

    def chunks(t: pa.Table) -> pa.Table:
        t = t.filter(pa.array(
            t["doc_id"].to_numpy(zero_copy_only=False) % 101 == 0))
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "chunk_id": pa.array([], pa.int64()),
                          "chunk_len": pa.array([], pa.int64()),
                          "chunk_text": pa.array([], pa.string())})
        if t.num_rows == 0:
            return empty
        text = pc.utf8_lower(t["text"])
        lists = pc.split_pattern_regex(text, pattern="[^a-z0-9]+")
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists).to_numpy(
            zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = pc.filter(flat, pa.array(keep))
        parent = parent[keep]
        counts = np.bincount(parent, minlength=len(t)).astype(np.int64)
        n_chunks = -(-counts // S) * (counts > 0)
        total = int(n_chunks.sum())
        if total == 0:
            return empty
        row_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        chunk_id = (np.arange(total, dtype=np.int64)
                    - np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks))
        starts = chunk_id * S
        lens = np.minimum(W, np.repeat(counts, n_chunks) - starts)
        tok_base = np.repeat(row_starts, n_chunks) + starts
        offsets = np.concatenate(([0], np.cumsum(lens)))
        pos = (np.arange(offsets[-1], dtype=np.int64)
               - np.repeat(offsets[:-1], lens))
        taken = pc.take(flat, pa.array(np.repeat(tok_base, lens) + pos,
                                       pa.int64()))
        lst = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), taken.combine_chunks())
        txt = pc.binary_join(lst, " ")
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(np.repeat(did, n_chunks), pa.int64()),
            "chunk_id": pa.array(chunk_id, pa.int64()),
            "chunk_len": pa.array(lens, pa.int64()),
            "chunk_text": txt})

    # bounded output (1% doc sample × tens of windows) — safe to collect
    return ds.map_batches(chunks, batch_format="pyarrow").to_pandas()


def q_nested_events_query(sf_dir: str):
    """ES ``nested`` query with inner-hit counting: build true nested
    documents (one per user, ``events: list<struct<event_id,
    event_type, priority, value>>`` via groupby(user).map_groups — the
    one inherent all-to-all), then match documents where SOME nested
    event satisfies ``priority <= 2 AND value >= 99.5``, returning the
    inner-hit count and best inner value per matching doc (ES
    inner_hits). Explode is zero-copy ``list_flatten`` +
    ``list_parent_indices``; per-batch partial aggregation means only
    (user, count, max) rows cross the second exchange. Top-20 by
    inner-hit count. Oracle reduces to a flat filtered group-by —
    the nesting is the pipeline's work, not the math's."""
    from ..stages.severity import add_priority

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "ts",
                        "value"])

    def to_doc(g: pa.Table) -> pa.Table:
        g = g.sort_by([("ts", "ascending"), ("event_id", "ascending")])
        g = add_priority(g)
        st = pa.StructArray.from_arrays(
            [g["event_id"].combine_chunks(),
             g["event_type"].combine_chunks(),
             g["priority"].combine_chunks(),
             g["value"].combine_chunks()],
            names=["event_id", "event_type", "priority", "value"])
        lst = pa.ListArray.from_arrays(
            pa.array([0, g.num_rows], pa.int32()), st)
        return pa.table({
            "user_id": pa.array([g["user_id"][0].as_py()], pa.int64()),
            "events": lst})

    docs = ev.groupby("user_id").map_groups(to_doc,
                                            batch_format="pyarrow")

    def inner_hits(t: pa.Table) -> pa.Table:
        evc = t["events"]
        if isinstance(evc, pa.ChunkedArray):
            evc = evc.combine_chunks()
        flat = pc.list_flatten(evc)
        parent = pc.list_parent_indices(evc)
        prio = pc.struct_field(flat, "priority")
        val = pc.struct_field(flat, "value")
        m = pc.and_(pc.less_equal(prio, 2),
                    pc.greater_equal(val, 99.5))
        mask = m.to_numpy(zero_copy_only=False)
        par = parent.to_numpy(zero_copy_only=False)[mask]
        vals = val.to_numpy(zero_copy_only=False)[mask]
        if par.size == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_inner": pa.array([], pa.int64()),
                             "max_value": pa.array([], pa.float64())})
        uu, inv = np.unique(par, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        mx = np.full(uu.size, -np.inf)
        np.maximum.at(mx, inv, vals)
        uid = t["user_id"].to_numpy(zero_copy_only=False)[uu]
        return pa.table({"user_id": pa.array(uid, pa.int64()),
                         "n_inner": pa.array(n, pa.int64()),
                         "max_value": pa.array(mx, pa.float64())})

    hits = docs.map_batches(inner_hits, batch_format="pyarrow")
    df = topk(hits, 20, [("n_inner", "descending"),
                         ("user_id", "ascending")])
    return pa.table({
        "user_id": pa.array(df["user_id"].to_numpy(), pa.int64()),
        "n_inner": pa.array(df["n_inner"].to_numpy(), pa.int64()),
        "max_value": _round6(pa.array(df["max_value"].to_numpy(),
                                      pa.float64()))})


_VWH_BUCKETS = 8  # variable-width histogram target bucket count


def q_variable_width_histogram(sf_dir: str):
    """ES ``variable_width_histogram`` agg: cluster events.value into
    ``_VWH_BUCKETS`` data-driven buckets. Deterministic spec (ES's is
    approximate): the distinct round(value,1) domain (bounded — ~10⁃³
    of the row count) is collected via a distinct exchange, the 7
    largest adjacent gaps become bucket boundaries (tie → lower value),
    and a second vectorized pass buckets every event with
    ``np.searchsorted`` and pre-aggregates (count, min, max) per batch
    so only ≤8 partial rows per block cross the final exchange. Exact
    SQL oracle (lag-window gaps)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    ev = _read(sf_dir, "events", columns=["value"])

    def distinct_v(t: pa.Table) -> pa.Table:
        v = np.round(t["value"].to_numpy(zero_copy_only=False), 1)
        return pa.table({"v": pa.array(np.unique(v), pa.float64())})

    dom = (ev.map_batches(distinct_v, batch_format="pyarrow")
           .groupby("v").aggregate(Count())
           .to_pandas())
    vs = np.sort(dom["v"].to_numpy())
    gaps = np.diff(vs)
    # 7 largest gaps; ties broken toward the smaller left endpoint
    order = np.lexsort((vs[1:], -gaps))[: _VWH_BUCKETS - 1]
    cuts = np.sort(vs[1:][order])  # bucket = #cuts <= round(v,1)

    def bucketize(t: pa.Table) -> pa.Table:
        val = t["value"].to_numpy(zero_copy_only=False)
        v = np.round(val, 1)
        b = np.searchsorted(cuts, v, side="right").astype(np.int64)
        uu, inv = np.unique(b, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        mn = np.full(uu.size, np.inf)
        mx = np.full(uu.size, -np.inf)
        np.minimum.at(mn, inv, val)
        np.maximum.at(mx, inv, val)
        return pa.table({"bucket": pa.array(uu, pa.int64()),
                         "n_part": pa.array(n, pa.int64()),
                         "mn": pa.array(mn, pa.float64()),
                         "mx": pa.array(mx, pa.float64())})

    agg = (ev.map_batches(bucketize, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Sum("n_part", alias_name="n"),
                      Min("mn", alias_name="min_value"),
                      Max("mx", alias_name="max_value"))
           .to_pandas()
           .sort_values("bucket").reset_index(drop=True))
    return pa.table({
        "bucket": pa.array(agg["bucket"].to_numpy(), pa.int64()),
        "n": pa.array(agg["n"].to_numpy(), pa.int64()),
        "min_value": _round6(pa.array(agg["min_value"].to_numpy(),
                                      pa.float64())),
        "max_value": _round6(pa.array(agg["max_value"].to_numpy(),
                                      pa.float64()))})


def q_random_score(sf_dir: str):
    """ES ``function_score`` / ``random_score`` with a seed and field:
    reproducible pseudo-random ranking — score = md5(seed ':' doc_id)
    low-32 / 2^32, the deterministic reshuffle every sampling pipeline
    needs (same hash on every cluster size; ES seeds the same way on
    _seq_no). Filter lang='en' docs, top-10 by the seeded score. md5
    touches only the block's rows; at scale it pipelines inside
    map_batches with no exchange at all (rank via distributed top-k)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def score(t: pa.Table) -> pa.Table:
        import hashlib

        t = t.filter(pc.equal(t["lang"], "en"))
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        r = np.fromiter(
            (int(hashlib.md5(f"42:{d}".encode()).hexdigest()[:8], 16)
             for d in did), dtype=np.float64, count=did.size) / 4294967296.0
        return pa.table({"doc_id": pa.array(did, pa.int64()),
                         "score": pa.array(r, pa.float64())})

    df = topk(ds.map_batches(score, batch_format="pyarrow"),
              10, [("score", "descending"), ("doc_id", "ascending")])
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        "score": _round6(pa.array(df["score"].to_numpy(), pa.float64()))})


def q_gauss_decay_score(sf_dir: str):
    """ES ``function_score`` gauss decay on a numeric field: score =
    exp(ln(decay)/scale² · max(0, |n_chars − origin| − offset)²) with
    origin=300, offset=20, scale=100, decay=0.5 — the distance-decayed
    relevance shape (freshness/geo boosts). Integer distances keep the
    op tree bit-exact vs the SQL oracle (ln/exp libm parity). Top-15
    docs by decay score, doc_id tiebreak; one vectorized pass +
    distributed top-k, no exchange."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    lam = np.log(0.5) / (100.0 * 100.0)

    def score(t: pa.Table) -> pa.Table:
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = np.maximum(np.abs(x - 300.0) - 20.0, 0.0)
        s = np.exp(lam * d * d)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_chars": t["n_chars"],
            "score": pa.array(s, pa.float64())})

    df = topk(ds.map_batches(score, batch_format="pyarrow"),
              15, [("score", "descending"), ("doc_id", "ascending")])
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        "n_chars": pa.array(df["n_chars"].to_numpy(), pa.int64()),
        "score": _round6(pa.array(df["score"].to_numpy(), pa.float64()))})


_EMB_DIM = 64  # embeddings.parquet vector width


def _gram_upper(sf_dir: str):
    """Distributed Gram matrix Σ x·xᵀ over the embedding column: each
    batch contributes one 64×64 ``m.T @ m`` partial emitted as the
    2080 upper-triangle (i, j, part) rows — the exchange carries
    O(dim²) floats per block regardless of row count, the canonical
    data-parallel covariance shape (same pattern at 100 TB: partials
    are tiny, the sum is a 2080-key groupby)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    d = _EMB_DIM
    iu = np.triu_indices(d)

    def part(t: pa.Table) -> pa.Table:
        col = t["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = pc.list_flatten(col).to_numpy(zero_copy_only=False) \
            .astype(np.float64).reshape(-1, d)
        g = m.T @ m
        return pa.table({"i": pa.array(iu[0], pa.int64()),
                         "j": pa.array(iu[1], pa.int64()),
                         "part": pa.array(g[iu], pa.float64())})

    agg = (ds.map_batches(part, batch_format="pyarrow")
           .groupby(["i", "j"]).aggregate(Sum("part", alias_name="g"))
           .to_pandas())
    return agg.sort_values(["i", "j"]).reset_index(drop=True)


def q_embedding_gram(sf_dir: str):
    """Distributed Gram/covariance matrix of the embedding corpus —
    the building block of data-parallel PCA / whitening / OOD scoring.
    Upper triangle only (2080 rows at dim 64), round6 absorbs the
    partial-sum addition order. Exact SQL oracle (vec self-join on
    subscripts)."""
    agg = _gram_upper(sf_dir)
    return pa.table({
        "i": pa.array(agg["i"].to_numpy(), pa.int64()),
        "j": pa.array(agg["j"].to_numpy(), pa.int64()),
        "g": _round6(pa.array(agg["g"].to_numpy(), pa.float64()))})


_PCA_ITERS = 8


def q_embedding_pca_power(sf_dir: str):
    """Top principal direction by power iteration — distributed where
    it matters (one Gram pass over all vectors, O(dim²) exchange),
    driver-side where it's O(dim²) math. Deterministic spec shared
    with the oracle: the Gram matrix is ROUNDED to 6 dp first (pinning
    both sides to identical inputs — round6 absorbs partial-sum
    order), then ``_PCA_ITERS`` power steps from v₀ = 1/√dim with
    L2 normalization each step; eigenvalue = ‖G·v‖ of the last step.
    Returns the 64 loadings + the eigenvalue. Oracle = the same
    iteration unrolled as CTEs."""
    agg = _gram_upper(sf_dir)
    d = _EMB_DIM
    g = np.zeros((d, d), dtype=np.float64)
    g[agg["i"].to_numpy(), agg["j"].to_numpy()] = \
        np.round(agg["g"].to_numpy(), 6)
    g = g + np.triu(g, 1).T  # mirror the upper triangle
    v = np.full(d, 1.0 / np.sqrt(d))
    lam = 0.0
    for _ in range(_PCA_ITERS):
        mv = g @ v
        lam = np.sqrt(np.sum(mv * mv))
        v = mv / lam
    return pa.table({
        "i": pa.array(np.arange(d), pa.int64()),
        "loading": _round6(pa.array(v, pa.float64())),
        "eigenvalue": _round6(pa.array(np.full(d, lam), pa.float64()))})


def q_has_child_topk(sf_dir: str):
    """ES parent-child ``has_child`` query (join field, score_mode=max):
    top-10 parent orders ranked by the best matching child lineitem
    (l_returnflag='R'), child score = extended price after discount in
    integer cents. Scale shape mirrors ES's shard-local parent-child
    join: the child side reduces to (parent_key, max_score) — a
    per-block Arrow partial max, then ONE aggregate exchange keyed by
    orderkey carrying two ints per parent — and only the final k=10
    parent keys are fetched from the parent table with a pruned,
    broadcast-filtered read. Nothing order-table-sized is collected."""
    from ray.data.aggregate import Max

    child = _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_returnflag",
                           "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        if t.num_rows == 0:
            return pa.schema([("l_orderkey", pa.int64()),
                              ("score_cents", pa.int64())]).empty_table()
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(p * (1 - d) * 100 + 0.5).astype(np.int64)
        g = (pa.table({"l_orderkey": t["l_orderkey"],
                       "score_cents": pa.array(cents, pa.int64())})
             .group_by("l_orderkey").aggregate([("score_cents", "max")]))
        return g.rename_columns(["l_orderkey", "score_cents"])

    agg = (child.map_batches(partial, batch_format="pyarrow")
           .groupby("l_orderkey")
           .aggregate(Max("score_cents", alias_name="child_score_cents")))
    top = topk(agg, 10, [("child_score_cents", "descending"),
                         ("l_orderkey", "ascending")])
    keys = pa.array(top["l_orderkey"].tolist(), pa.int64())

    parents = (_read(sf_dir, "orders",
                     columns=["o_orderkey", "o_orderstatus"])
               .map_batches(lambda t: t.filter(
                   pc.is_in(t["o_orderkey"], value_set=keys)),
                   batch_format="pyarrow")
               .to_pandas())
    out = top.merge(parents, left_on="l_orderkey", right_on="o_orderkey")
    out = out.sort_values(["child_score_cents", "o_orderkey"],
                          ascending=[False, True])
    return pa.table({
        "o_orderkey": pa.array(out["o_orderkey"].tolist(), pa.int64()),
        "o_orderstatus": pa.array(out["o_orderstatus"].tolist(),
                                  pa.string()),
        "child_score_cents": pa.array(out["child_score_cents"].tolist(),
                                      pa.int64())})


def q_has_parent_agg(sf_dir: str):
    """ES ``has_parent`` query + child rollup: count / total quantity of
    lineitems whose parent order is 1-URGENT, by return flag. The
    filtered parent key set is the SMALL side (selective parent filters
    are the ES norm — ES itself co-locates children on the parent's
    shard to make this join local): keys are collected once, broadcast
    via ``ray.put``, and children are filtered vectorized per batch;
    per-block Arrow partials keep the final exchange at one row per
    (block, flag). A non-selective parent filter would switch to the
    hash-partitioned groupby join (the asof_join composition)."""
    import ray
    from ray.data.aggregate import Sum

    pkeys = []
    for b in (_read(sf_dir, "orders",
                    columns=["o_orderkey", "o_orderpriority"])
              .map_batches(lambda t: t.filter(
                  pc.equal(t["o_orderpriority"], "1-URGENT"))
                  .select(["o_orderkey"]), batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        pkeys.append(b["o_orderkey"].to_numpy(zero_copy_only=False))
    keys_ref = ray.put(pa.array(np.sort(np.concatenate(pkeys))
                                if pkeys else np.array([], np.int64),
                                pa.int64()))

    _HP_SCHEMA = pa.schema([("l_returnflag", pa.string()),
                            ("n_items", pa.int64()),
                            ("sum_qty", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        t = t.filter(pc.is_in(t["l_orderkey"], value_set=keys))
        if t.num_rows == 0:
            return _HP_SCHEMA.empty_table()
        qty = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = (pa.table({"l_returnflag": t["l_returnflag"],
                       "n_items": pa.array(np.ones(len(qty), np.int64)),
                       "sum_qty": pa.array(qty, pa.int64())})
             .group_by("l_returnflag")
             .aggregate([("n_items", "sum"), ("sum_qty", "sum")]))
        return g.rename_columns(["l_returnflag", "n_items", "sum_qty"])

    return (_read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_returnflag", "l_quantity"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(Sum("n_items", alias_name="n_items"),
                       Sum("sum_qty", alias_name="sum_qty"))
            .sort("l_returnflag"))


def q_latest_transform(sf_dir: str):
    """ES ``latest`` transform: the most recent event per user
    (sort ts desc, tie-break event_id desc — ES requires a unique
    sort for determinism). Classic combiner shape: each block reduces
    to at most one row per user seen in it (vectorized lexsort +
    boundary take), so the groupby exchange carries users x blocks
    rows, never the raw events; the final per-user pick runs in
    ``map_groups`` (group = one user's per-block winners, <= n_blocks
    rows). Output is a Dataset, streamed — at 100 TB the transform's
    destination index would be written partitioned, not collected."""

    def _winners(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u_s = u[order]
        last = np.nonzero(np.r_[u_s[1:] != u_s[:-1], True])[0]
        take = order[last]
        return pa.table({
            "user_id": pa.array(u[take], pa.int64()),
            "event_id": pa.array(eid[take], pa.int64()),
            "event_type": t["event_type"].take(pa.array(take)),
            "value": _round6(t["value"].take(pa.array(take))),
            "ts_us": pa.array(ts[take], pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([
                ("user_id", pa.int64()), ("event_id", pa.int64()),
                ("event_type", pa.string()), ("value", pa.float64()),
                ("ts_us", pa.int64())]).empty_table()
        return _winners(t)

    def final(g: pa.Table) -> pa.Table:
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts))
        return g.take(pa.array(order[-1:]))

    return (_read(sf_dir, "events",
                  columns=["user_id", "event_id", "event_type",
                           "value", "ts"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("user_id")
            .map_groups(final, batch_format="pyarrow")
            .sort("user_id"))


_OUTLIER_SUBSET = 2048
_OUTLIER_K = 10


def q_knn_outlier(sf_dir: str):
    """ES ML outlier detection, the distance-based feature: each
    vector's outlier score = cosine distance to its k-th (k=10)
    nearest neighbour; top-20 outliers returned. The comparison set
    (vec_id < 2048 — ES caps outlier frames at ML-node memory the same
    way) is broadcast ONCE via ``ray.put`` with norms precomputed; each
    batch then scores against it with one float64 matmul +
    ``np.partition`` — no pairwise rows ever materialize. At full
    scale candidate generation would come from the persisted ANN
    bucket index (ann/store.py) instead of the dense subset."""
    import ray

    sub_parts = []
    for b in (_read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
              .map_batches(lambda t: t.filter(
                  pc.less(t["vec_id"], _OUTLIER_SUBSET)),
                  batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        sub_parts.append(b)
    sub = pa.concat_tables(sub_parts)
    order = pc.sort_indices(sub, sort_keys=[("vec_id", "ascending")])
    sub = sub.take(order)
    from ..ann.knn import _batch_vectors
    mat = _batch_vectors(sub, "embedding")
    sub_ids = sub["vec_id"].to_numpy(zero_copy_only=False)
    sub_norm = np.sqrt((mat * mat).sum(axis=1))
    ref = ray.put((sub_ids, mat, sub_norm))

    def score(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["vec_id"], _OUTLIER_SUBSET))
        if t.num_rows == 0:
            return pa.schema([("vec_id", pa.int64()),
                              ("knn_distance", pa.float64())]) \
                .empty_table()
        ids, smat, snorm = ray.get(ref)
        m = _batch_vectors(t, "embedding")
        rn = np.sqrt((m * m).sum(axis=1))
        d = 1.0 - (m @ smat.T) / (rn[:, None] * snorm[None, :])
        bid = t["vec_id"].to_numpy(zero_copy_only=False)
        d[bid[:, None] == ids[None, :]] = np.inf  # exclude self
        kth = np.partition(d, _OUTLIER_K - 1, axis=1)[:, _OUTLIER_K - 1]
        return pa.table({"vec_id": pa.array(bid, pa.int64()),
                         "knn_distance": pa.array(kth, pa.float64())})

    ds = (_read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
          .map_batches(score, batch_format="pyarrow"))
    out = topk(ds, 20, [("knn_distance", "descending"),
                        ("vec_id", "ascending")])
    return pa.table({
        "vec_id": pa.array(out["vec_id"].tolist(), pa.int64()),
        "knn_distance": _round6(pa.array(out["knn_distance"].tolist(),
                                         pa.float64()))})


def q_graph_explore(sf_dir: str):
    """ES Graph API ``_explore``: seed on the 'error' vertex, hop 1 to
    the users connected to it, hop 2 to the other event-type vertices
    those users touch, ranked by connected-user count. Like ES, the
    vertex frontier (distinct seed users) is gathered on the
    coordinator and broadcast — Graph explore is explicitly a
    sampled/bounded API, not a full-corpus join; the per-block distinct
    + two-stage aggregate keeps the exchange at one row per
    (type, user) pair."""
    import ray
    from ray.data.aggregate import Count, Sum

    seeds = []
    for b in (_read(sf_dir, "events", columns=["user_id", "event_type"])
              .map_batches(lambda t: pa.table({
                  "user_id": pc.unique(t.filter(
                      pc.equal(t["event_type"], "error"))["user_id"])}),
                  batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        seeds.append(b["user_id"].to_numpy(zero_copy_only=False))
    seed_ref = ray.put(pa.array(
        np.unique(np.concatenate(seeds)) if seeds
        else np.array([], np.int64), pa.int64()))

    _GX_SCHEMA = pa.schema([("event_type", pa.string()),
                            ("user_id", pa.int64()),
                            ("n", pa.int64())])

    def pairs(t: pa.Table) -> pa.Table:
        seed = ray.get(seed_ref)
        t = t.filter(pc.and_(pc.is_in(t["user_id"], value_set=seed),
                             pc.not_equal(t["event_type"], "error")))
        if t.num_rows == 0:
            return _GX_SCHEMA.empty_table()
        g = (pa.table({"event_type": t["event_type"],
                       "user_id": t["user_id"],
                       "n": pa.array(np.ones(t.num_rows, np.int64))})
             .group_by(["event_type", "user_id"])
             .aggregate([("n", "sum")]))
        return g.rename_columns(["event_type", "user_id", "n"])

    per_pair = (_read(sf_dir, "events", columns=["user_id", "event_type"])
                .map_batches(pairs, batch_format="pyarrow")
                .groupby(["event_type", "user_id"])
                .aggregate(Sum("n", alias_name="n")))
    out = (per_pair.groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Count(alias_name="nu"))
           .to_pandas()
           .sort_values(["nu", "n", "event_type"],
                        ascending=[False, False, True]))
    return pa.table({
        "event_type": pa.array(out["event_type"].tolist(), pa.string()),
        "n": pa.array(out["n"].tolist(), pa.int64()),
        "nu": pa.array(out["nu"].tolist(), pa.int64())})


def q_perplexity_buckets(sf_dir: str):
    """CCNet's head/middle/tail split: score every doc with the add-1
    bigram LM (shared trainer ``_bigram_lm_refs``), then cut each
    language into perplexity tertiles by rank — bucket =
    ``(3 * rank) // n_lang`` over (avg_nll asc, doc_id asc) — and
    report per-(lang, bucket) doc counts with the tertile's score
    range. The scoring pass is the distributed map; the per-lang rank
    runs in ``map_groups`` (one lang = one group; at 100 TB a lang is
    range-partitioned by score and ranked with a distributed sort —
    the same exchange as index/sorted.py). min/max are order-
    independent, so the only floats in the output are round6-stable."""
    import ray

    from ..dedup.jaccard import _shingle_rows

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    c1_ref, c2_ref, v = _bigram_lm_refs(ds)

    _PB_SCHEMA = pa.schema([("lang", pa.string()),
                            ("doc_id", pa.int64()),
                            ("a", pa.float64())])

    def score(t: pa.Table) -> pa.Table:
        uni_k, uni_v = ray.get(c1_ref)
        bi_k, bi_v = ray.get(c2_ref)
        sh = _shingle_rows(t, "text", "doc_id", 2, distinct=False)
        if sh.num_rows == 0:
            return _PB_SCHEMA.empty_table()
        cb = _lookup_f64(sh["sh"], bi_k, bi_v)
        cu = _lookup_f64(_w1_of_pairs(sh["sh"]), uni_k, uni_v)
        logp = np.log((cb + 1.0) / (cu + v))
        did = sh["doc_id"].to_numpy(zero_copy_only=False)
        docs, inv = np.unique(did, return_inverse=True)
        nll = np.zeros(docs.size, dtype=np.float64)
        np.add.at(nll, inv, -logp)
        n_pairs = np.bincount(inv).astype(np.int64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        lang = t["lang"].take(pa.array(
            np.searchsorted(ids, docs)))
        return pa.table({"lang": lang,
                         "doc_id": pa.array(docs, pa.int64()),
                         "a": pa.array(nll / n_pairs, pa.float64())})

    def tertiles(g: pa.Table) -> pa.Table:
        a = g["a"].to_numpy(zero_copy_only=False)
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, a))
        bucket = (3 * np.arange(a.size, dtype=np.int64)) // a.size
        out = []
        for bk in np.unique(bucket):
            sel = a[order][bucket == bk]
            out.append((g["lang"][0].as_py(), int(bk), int(sel.size),
                        float(sel.min()), float(sel.max())))
        return pa.table({
            "lang": pa.array([r[0] for r in out], pa.string()),
            "bucket": pa.array([r[1] for r in out], pa.int64()),
            "n_docs": pa.array([r[2] for r in out], pa.int64()),
            "lo": pa.array([r[3] for r in out], pa.float64()),
            "hi": pa.array([r[4] for r in out], pa.float64())})

    out = (ds.map_batches(score, batch_format="pyarrow")
           .groupby("lang")
           .map_groups(tertiles, batch_format="pyarrow")
           .to_pandas()
           .sort_values(["lang", "bucket"]).reset_index(drop=True))
    return pa.table({
        "lang": pa.array(out["lang"].tolist(), pa.string()),
        "bucket": pa.array(out["bucket"].tolist(), pa.int64()),
        "n_docs": pa.array(out["n_docs"].tolist(), pa.int64()),
        "lo": _round6(pa.array(out["lo"].tolist(), pa.float64())),
        "hi": _round6(pa.array(out["hi"].tolist(), pa.float64()))})


_WINNOW_K = 3   # words per k-gram
_WINNOW_W = 4   # k-grams per winnowing window


def q_winnowing_fingerprints(sf_dir: str, max_group="auto"):
    """Winnowing document fingerprints (the MOSS local fingerprinting
    algorithm; Schleimer et al. 2003): hash every word 3-gram, slide a
    4-gram window, keep each window's minimum hash with the RIGHTMOST
    tie (the robust-winnowing rule), then rank document pairs by how
    many selected fingerprints they share — the code-plagiarism /
    near-dup detector for a source corpus. The gram stream comes from
    the shared vectorized shingle machinery; per-window selection is
    four shifted vectorized string-minima (no per-window loop) with
    doc boundaries masked by a sentinel; pair expansion and counting
    reuse the salted/bucketed jaccard exchange, so a hot fingerprint
    never grinds one task. ``max_group="auto"`` applies the
    corpus-aware jaccard cap (min(10k, 4*sqrt(n_docs))) — a
    fingerprint shared by more docs than that is boilerplate whose
    O(g^2) pair rows would dominate the exchange while contributing
    no plagiarism signal (member docs still pair through their other
    fingerprints); the registered oracle applies the SAME cap (a
    ``HAVING count(*) <= cap`` group filter), so entry and oracle
    agree at every scale — pass ``max_group=None`` for the uncapped
    expansion when exact MOSS semantics are wanted over a corpus
    known to be boilerplate-free. md5 keeps the oracle exact (the
    fingerprint_minmd5 convention); the rolling-hash scale path is
    functions/text.py add_fingerprint_rolling."""
    import hashlib

    from ray.data.aggregate import Count

    from ..dedup.jaccard import (
        _expand_pair_blocks,
        _pair_blocks_of_group,
        _shingle_rows,
        _unpack_pk,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    _SEL_SCHEMA = pa.schema([("doc_id", pa.int64()),
                             ("h", pa.string())])

    def select(t: pa.Table) -> pa.Table:
        sh = _shingle_rows(t, "text", "doc_id", _WINNOW_K,
                           distinct=False)
        if sh.num_rows == 0:
            return _SEL_SCHEMA.empty_table()
        did = sh["doc_id"].to_numpy(zero_copy_only=False)
        # per-doc gram positions (gram rows are doc-major, in order)
        new = np.r_[True, did[1:] != did[:-1]]
        starts = np.flatnonzero(new)
        pos = np.arange(did.size, dtype=np.int64) \
            - np.repeat(starts, np.diff(np.append(starts, did.size)))
        ng = np.repeat(np.diff(np.append(starts, did.size)),
                       np.diff(np.append(starts, did.size)))
        # md5 only the UNIQUE grams (they repeat heavily), then gather —
        # the md5-per-row cost drops by the duplication factor; md5
        # itself is the oracle-exactness convention (fingerprint_minmd5),
        # the rolling-hash kernel is the scale path
        enc = sh["sh"].dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        uniq_h = np.array([hashlib.md5(s.encode()).hexdigest()
                           for s in enc.dictionary.to_pylist()],
                          dtype="U32")
        h = uniq_h[enc.indices.to_numpy(zero_copy_only=False)]
        pad = np.char.zfill(
            (1_000_000_000 - (pos + 1)).astype("U10"), 10)
        keys = np.char.add(h, pad)
        # windowed min of W shifted copies; '~' (> any hex digit)
        # masks positions before the doc's start
        sent = np.full(1, "~", dtype=keys.dtype)
        wmin = keys
        for s in range(1, _WINNOW_W):
            shifted = np.concatenate([np.repeat(sent, s), keys[:-s]]) \
                if s < keys.size else np.repeat(sent, keys.size)
            shifted = np.where(pos >= s, shifted, sent[0])
            wmin = np.where(shifted < wmin, shifted, wmin)
        emit = (pos >= _WINNOW_W - 1) | ((ng < _WINNOW_W) & (pos == ng - 1))
        sel = pa.table({
            "doc_id": pa.array(did[emit], pa.int64()),
            "h": pa.array(wmin[emit].astype("U32"))})
        return sel.group_by(["doc_id", "h"]).aggregate([])

    sel = ds.map_batches(select, batch_format="pyarrow")
    from functools import partial as _partial

    if max_group == "auto":
        n_docs = _read(sf_dir, "documents",
                       columns=["doc_id"]).count()
        max_group = min(10_000, max(64, int(4 * n_docs ** 0.5) + 1))
    counts = (sel.groupby("h")
              .map_groups(_partial(_pair_blocks_of_group,
                                   max_group=max_group),
                          batch_format="pyarrow")
              .map_batches(_expand_pair_blocks, batch_format="pyarrow",
                           batch_size=128)
              .groupby("pk")
              .aggregate(Count(alias_name="inter"))
              .map_batches(_unpack_pk, batch_format="pyarrow"))
    top = topk(counts, 15, [("inter", "descending"), ("a", "ascending"),
                            ("b", "ascending")])
    if top is None:  # every group capped/empty → no pairs
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "shared": pa.array([], pa.int64())})
    return pa.table({
        "doc_a": pa.array(top["a"].tolist(), pa.int64()),
        "doc_b": pa.array(top["b"].tolist(), pa.int64()),
        "shared": pa.array(top["inter"].tolist(), pa.int64())})


QUERY_REGISTRY = {
    "severity_histogram": q_severity_histogram,
    "severity_alerts": q_severity_alerts,
    "events_daily": q_events_daily,
    "top_users": q_top_users,
    "user_count_windows": q_user_count_windows,
    "value_quantiles": q_value_quantiles,
    "range_agg": q_range_agg,
    "histogram_agg": q_histogram_agg,
    "multi_terms_agg": q_multi_terms_agg,
    "auto_date_histogram": q_auto_date_histogram,
    "runtime_field_agg": q_runtime_field_agg,
    "terms_shard_error": q_terms_shard_error,
    "sampler_agg": q_sampler_agg,
    "mixture_weights": q_mixture_weights,
    "mixture_sample": q_mixture_sample,
    "pack_bestfit": q_pack_bestfit,
    "weighted_avg": q_weighted_avg,
    "top_metrics": q_top_metrics,
    "string_stats": q_string_stats,
    "matrix_stats": q_matrix_stats,
    "adjacency_matrix": q_adjacency_matrix,
    "percolate": q_percolate,
    "extended_stats": q_extended_stats,
    "filters_agg": q_filters_agg,
    "composite_agg": q_composite_agg,
    "top_hits_agg": q_top_hits_agg,
    "bucket_stats": q_bucket_stats,
    "events_cumulative": q_events_cumulative,
    "events_moving": q_events_moving,
    "value_percentile_sketch": q_value_percentile_sketch,
    "percentile_ranks": q_percentile_ranks,
    "boxplot_agg": q_boxplot_agg,
    "bucket_script": q_bucket_script,
    "significant_terms": q_significant_terms,
    "pricing_summary": q_pricing_summary,
    "top_customers": q_top_customers,
    "metadata_stamp": q_metadata_stamp,
    "dead_letter": q_dead_letter,
    "term_match_counts": q_term_match_counts,
    "df_top_terms": q_df_top_terms,
    "bm25_topk": q_bm25_topk,
    "bm25_topk_wand": q_bm25_topk_wand,
    "bm25_topk_bounded": q_bm25_topk_bounded,
    "federated_search_wand": q_federated_search_wand,
    "msearch": q_msearch,
    "bm25_topk_filtered": q_bm25_topk_filtered,
    "alias_search": q_alias_search,
    "search_template": q_search_template,
    "msearch_template": q_msearch_template,
    "profile_search": q_profile_search,
    "bm25_topk_terms_filter": q_bm25_topk_terms_filter,
    "collapse_by_lang": q_collapse_by_lang,
    "federated_search": q_federated_search,
    "rank_eval": q_rank_eval,
    "rare_terms": q_rare_terms,
    "bm25_topk_incremental": q_bm25_topk_incremental,
    "phrase_match": q_phrase_match,
    "phrase_match_incremental": q_phrase_match_incremental,
    "phrase_topk": q_phrase_topk,
    "prefix_df": q_prefix_df,
    "prefix_search": q_prefix_search,
    "boolean_search": q_boolean_search,
    "min_should_match": q_min_should_match,
    "analyze_tokens": q_analyze_tokens,
    "query_string": q_query_string,
    "simple_query_string": q_simple_query_string,
    "kql_search": q_kql_search,
    "function_score": q_function_score,
    "dis_max": q_dis_max,
    "search_facets": q_search_facets,
    "search_sorted": q_search_sorted,
    "suggest": q_suggest,
    "spell_suggest": q_spell_suggest,
    "phrase_prefix": q_phrase_prefix,
    "span_near": q_span_near,
    "wildcard_search": q_wildcard_search,
    "intervals_ordered": q_intervals_ordered,
    "rollover_search": q_rollover_search,
    "ilm_search": q_ilm_search,
    "analyze_linux2k": q_analyze_linux2k,
    "analyze_apache100": q_analyze_apache100,
    "analyze_categorize": q_analyze_categorize,
    "bm25_topk_stopped": q_bm25_topk_stopped,
    "bm25_topk_stemmed": q_bm25_topk_stemmed,
    "embedding_knn_pq": q_embedding_knn_pq,
    "embedding_knn_ivfpq": q_embedding_knn_ivfpq,
    "embedding_knn_bq": q_embedding_knn_bq,
    "tokenizer_fertility": q_tokenizer_fertility,
    "rescore_topk": q_rescore_topk,
    "multifield_search": q_multifield_search,
    "match_count": q_match_count,
    "bm25_page2": q_bm25_page2,
    "more_like_this": q_more_like_this,
    "regex_df": q_regex_df,
    "fuzzy_search": q_fuzzy_search,
    "index_stats": q_index_stats,
    "scroll_export": q_scroll_export,
    "remote_tail_lines": q_remote_tail_lines,
    "whole_file_read": q_whole_file_read,
    "duplicate_spans": q_duplicate_spans,
    "hybrid_search_rrf": q_hybrid_search_rrf,
    "hybrid_search_linear": q_hybrid_search_linear,
    "late_interaction_maxsim": q_late_interaction_maxsim,
    "weighted_sample": q_weighted_sample,
    "ols_regression": q_ols_regression,
    "events_holt": q_events_holt,
    "rollup_downsample": q_rollup_downsample,
    "ltr_features": q_ltr_features,
    "esql_stats": q_esql_stats,
    "esql_docs": q_esql_docs,
    "ngram_containment_dupes": q_ngram_containment_dupes,
    "esql_enrich": q_esql_enrich,
    "esql_dissect": q_esql_dissect,
    "esql_rename_expand": q_esql_rename_expand,
    "esql_grok": q_esql_grok,
    "esql_count_distinct": q_esql_count_distinct,
    "esql_lookup_join": q_esql_lookup_join,
    "esql_like_in": q_esql_like_in,
    "esql_functions": q_esql_functions,
    "esql_date_trunc": q_esql_date_trunc,
    "esql_having": q_esql_having,
    "esql_mv_functions": q_esql_mv_functions,
    "esql_median": q_esql_median,
    "esql_date_format": q_esql_date_format,
    "esql_sample": q_esql_sample,
    "esql_match": q_esql_match,
    "esql_agg_where": q_esql_agg_where,
    "esql_inlinestats": q_esql_inlinestats,
    "esql_fork": q_esql_fork,
    "esql_change_point": q_esql_change_point,
    "esql_knn": q_esql_knn,
    "esql_lookup_join_multi": q_esql_lookup_join_multi,
    "esql_bucket": q_esql_bucket,
    "esql_string_functions2": q_esql_string_functions2,
    "esql_weighted_stats": q_esql_weighted_stats,
    "esql_categorize": q_esql_categorize,
    "esql_hash_functions": q_esql_hash_functions,
    "esql_mad": q_esql_mad,
    "esql_date_diff": q_esql_date_diff,
    "esql_ip_functions": q_esql_ip_functions,
    "esql_mv_list_functions": q_esql_mv_list_functions,
    "moore_lewis": q_moore_lewis,
    "sorted_index_topn": q_sorted_index_topn,
    "sorted_index_range": q_sorted_index_range,
    "fuzzy_suggest_dl": q_fuzzy_suggest_dl,
    "significant_terms_chi2": q_significant_terms_chi2,
    "char_entropy": q_char_entropy,
    "gopher_repetition": q_gopher_repetition,
    "pii_scrub": q_pii_scrub,
    "events_derivative": q_events_derivative,
    "asof_join": q_asof_join,
    "range_join": q_range_join,
    "sessionize": q_sessionize,
    "ann_recall": q_ann_recall,
    "bpe_encode": q_bpe_encode,
    "training_shards": q_training_shards,
    "embedding_quantize": q_embedding_quantize,
    "embedding_knn_lsh_q8": q_embedding_knn_lsh_q8,
    "bucket_selector": q_bucket_selector,
    "serial_diff": q_serial_diff,
    "bpe_learn": q_bpe_learn,
    "tfidf_top_terms": q_tfidf_top_terms,
    "embedding_knn_batch": q_embedding_knn_batch,
    "display_normalize": q_display_normalize,
    "explain_score": q_explain_score,
    "snapshot_restore": q_snapshot_restore,
    "bm25_topk_deleted": q_bm25_topk_deleted,
    "bm25_topk_rebuilt": q_bm25_topk_rebuilt,
    "highlight_topk": q_highlight_topk,
    "term_vectors": q_term_vectors,
    "contamination_check": q_contamination_check,
    "dedup_exact": q_dedup_exact,
    "ngram_jaccard_dupes": q_ngram_jaccard_dupes,
    "dedup_clusters": q_dedup_clusters,
    "dedup_minhash": q_dedup_minhash,
    "dedup_incremental": q_dedup_incremental,
    "dedup_span_removal": q_dedup_span_removal,
    "clean_corpus_neardup": q_clean_corpus_neardup,
    "dedup_simhash": q_dedup_simhash,
    "embedding_dupes": q_embedding_dupes,
    "lang_id_confusion": q_lang_id_confusion,
    "quality_by_lang": q_quality_by_lang,
    "token_stats": q_token_stats,
    "stratified_sample": q_stratified_sample,
    "sequence_pack": q_sequence_pack,
    "quality_filter": q_quality_filter,
    "clean_corpus_search": q_clean_corpus_search,
    "corpus_card": q_corpus_card,
    "unigram_surprisal": q_unigram_surprisal,
    "cardinality_sketch": q_cardinality_sketch,
    "fingerprint_minmd5": q_fingerprint_minmd5,
    "fingerprint_rolling": q_fingerprint_rolling,
    "embedding_centroids": q_embedding_centroids,
    "embedding_knn": q_embedding_knn,
    "embedding_knn_filtered": q_embedding_knn_filtered,
    "knn_similarity_cutoff": q_knn_similarity_cutoff,
    "embedding_knn_lsh": q_embedding_knn_lsh,
    "embedding_knn_ivf": q_embedding_knn_ivf,
    "multimodal_stats": q_multimodal_stats,
    "multimodal_features": q_multimodal_features,
    "session_duration": q_session_duration,
    "highest_severity_event": q_highest_severity_event,
    "alert_format": q_alert_format,
    "ip_classification": q_ip_classification,
    "nested_severity_histogram": q_nested_severity_histogram,
    "geoip_enrichment": q_geoip_enrichment,
    "geo_distance_agg": q_geo_distance_agg,
    "geohash_grid_agg": q_geohash_grid_agg,
    "geo_centroid_agg": q_geo_centroid_agg,
    "geo_bounds_agg": q_geo_bounds_agg,
    "missing_agg": q_missing_agg,
    "global_agg": q_global_agg,
    "date_range_agg": q_date_range_agg,
    "ip_range_agg": q_ip_range_agg,
    "cumulative_cardinality": q_cumulative_cardinality,
    "pit_search": q_pit_search,
    "t_test_agg": q_t_test_agg,
    "mad_agg": q_mad_agg,
    "diversified_sampler_agg": q_diversified_sampler_agg,
    "reverse_nested_agg": q_reverse_nested_agg,
    "boosting_query": q_boosting_query,
    "pinned_query": q_pinned_query,
    "distance_feature": q_distance_feature,
    "constant_score": q_constant_score,
    "span_first": q_span_first,
    "span_not": q_span_not,
    "span_containing": q_span_containing,
    "phrase_suggest": q_phrase_suggest,
    "terms_enum": q_terms_enum,
    "events_ewma": q_events_ewma,
    "span_within": q_span_within,
    "terms_set": q_terms_set,
    "categorize_text": q_categorize_text,
    "bucket_sort": q_bucket_sort,
    "moving_median": q_moving_median,
    "frequent_item_sets": q_frequent_item_sets,
    "change_point": q_change_point,
    "cross_fields": q_cross_fields,
    "eql_sequence": q_eql_sequence,
    "dsir_weights": q_dsir_weights,
    "rate_agg": q_rate_agg,
    "normalize_agg": q_normalize_agg,
    "ks_test_agg": q_ks_test_agg,
    "rate_anomalies": q_rate_anomalies,
    "pivot_transform": q_pivot_transform,
    "funnel_analysis": q_funnel_analysis,
    "retention_cohorts": q_retention_cohorts,
    "semdedup": q_semdedup,
    "dsl_search": q_dsl_search,
    "sliced_scroll": q_sliced_scroll,
    "mixture_temperature": q_mixture_temperature,
    "mixture_unimax": q_mixture_unimax,
    "synonym_search": q_synonym_search,
    "multimodal_resize": q_multimodal_resize,
    "video_frame_sample": q_video_frame_sample,
    "pagerank": q_pagerank,
    "bloom_contamination": q_bloom_contamination,
    "count_min_heavy": q_count_min_heavy,
    "update_by_query": q_update_by_query,
    "security_detections": q_security_detections,
    "resumable_export": q_resumable_export,
    "eql_sequence_strict": q_eql_sequence_strict,
    "ids_query": q_ids_query,
    "access_log_parse": q_access_log_parse,
    "syslog_parse": q_syslog_parse,
    "error_log_parse": q_error_log_parse,
    "general_log_profile": q_general_log_profile,
    "zorder_layout": q_zorder_layout,
    "span_or": q_span_or,
    "match_bool_prefix": q_match_bool_prefix,
    "percentiles_bucket": q_percentiles_bucket,
    "geo_bbox_filter": q_geo_bbox_filter,
    "geo_polygon_filter": q_geo_polygon_filter,
    "geo_line_agg": q_geo_line_agg,
    "bucket_correlation": q_bucket_correlation,
    "alert_sink": q_alert_sink,
    "sampled_severity_histogram": q_sampled_severity_histogram,
    "bpe_token_stats": q_bpe_token_stats,
    "bigram_counts": q_bigram_counts,
    "collocations_pmi": q_collocations_pmi,
    "rank_feature": q_rank_feature,
    "text_expansion": q_text_expansion,
    "combined_fields": q_combined_fields,
    "async_search": q_async_search,
    "ip_prefix_agg": q_ip_prefix_agg,
    "terms_lookup": q_terms_lookup,
    "scripted_metric": q_scripted_metric,
    "geotile_grid_agg": q_geotile_grid_agg,
    "embedding_knn_hnsw": q_embedding_knn_hnsw,
    "shrink_search": q_shrink_search,
    "split_search": q_split_search,
    "ccr_follow": q_ccr_follow,
    "significant_text": q_significant_text,
    "field_caps": q_field_caps,
    "phrase_slop": q_phrase_slop,
    "ingest_pipeline": q_ingest_pipeline,
    "collapse_inner_hits": q_collapse_inner_hits,
    "embedding_knn_hnsw_filtered": q_embedding_knn_hnsw_filtered,
    "bigram_perplexity": q_bigram_perplexity,
    "hashed_ngram_classifier": q_hashed_ngram_classifier,
    "sliding_window_chunks": q_sliding_window_chunks,
    "nested_events_query": q_nested_events_query,
    "variable_width_histogram": q_variable_width_histogram,
    "random_score": q_random_score,
    "gauss_decay_score": q_gauss_decay_score,
    "embedding_gram": q_embedding_gram,
    "embedding_pca_power": q_embedding_pca_power,
    "has_child_topk": q_has_child_topk,
    "has_parent_agg": q_has_parent_agg,
    "latest_transform": q_latest_transform,
    "knn_outlier": q_knn_outlier,
    "graph_explore": q_graph_explore,
    "perplexity_buckets": q_perplexity_buckets,
    "winnowing_fingerprints": q_winnowing_fingerprints,
}
