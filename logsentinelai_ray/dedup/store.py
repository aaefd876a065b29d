"""Persisted MinHash signature store + incremental delta dedup.

The 100-TB near-dup flow is incremental: the corpus's LSH band rows are
computed ONCE and persisted; each arriving delta batch computes its own
band rows under the SAME persisted seeds and probes only the matching
band buckets — never re-shingling, re-hashing, or re-shuffling the
existing corpus (the reference analog is Elasticsearch's persistent
index vs our per-run minhash pass; the layout mirrors ann/store.py's
bucket-partitioned ANN index).

Layout::

    store_dir/meta.json                 emit params + generation log
    store_dir/bands/band=B/*.parquet    (bh: uint64, doc_id: int64),
                                        rows sorted by bh per file

Probing reads only ``band=B`` dirs and, inside them, row-groups whose
[min(bh), max(bh)] overlaps the delta's band hashes (parquet statistics
on the per-file-sorted ``bh`` column); candidate pairs then verify with
the exact-Jaccard kernel shared with dedup.minhash, so a store probe is
guaranteed to equal the cross-pair subset of a full-corpus
``minhash_lsh_dupes`` run with the same parameters (tested).

Scale notes: the per-band delta hash arrays are broadcast via ``ray.put``
(a delta batch is small by definition — for corpus-sized "deltas" run the
full minhash operator instead); verification recomputes shingle sets for
CANDIDATE ids only, reading both corpora with candidate-pruned scans.
"""

from __future__ import annotations

import json
import os
from functools import partial

import numpy as np
import pyarrow as pa

from .minhash import (MinHashEmit, _cand_hash_rows, _sets_from_rows,
                      _verify_pairs)

_EMPTY_PAIRS = pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})


def _emit_rows_task(t: pa.Table, meta: dict) -> pa.Table:
    """Stateless per-task emit: rebuilds the (trivial, seeded) hash
    coefficients per batch — bit-identical to the actor's rows because
    both derive them from the same RandomState(seed)."""
    emit = MinHashEmit(meta["text_col"], meta["id_col"], meta["n"],
                       meta["num_perm"], meta["bands"],
                       seed=meta["seed"])
    return emit(t)


def _band_rows(ds, meta: dict, use_actors: bool = True):
    """(band, bh, doc_id) LSH rows for ``ds`` under the store's
    persisted emit params — the same stage the one-shot operator uses,
    so collisions are bit-identical across runs. ``use_actors=False``
    switches to a plain task pool: for a small PROBE delta the actor
    pool's spin-up dominates the work, while coefficient setup is a
    trivial seeded RNG draw any task can redo per batch (the build
    path keeps the actor pool — there setup amortizes over the
    corpus)."""
    if use_actors:
        rows = ds.map_batches(
            MinHashEmit,
            fn_constructor_args=(meta["text_col"], meta["id_col"],
                                 meta["n"], meta["num_perm"],
                                 meta["bands"]),
            fn_constructor_kwargs={"seed": meta["seed"]},
            batch_format="pyarrow", concurrency=(1, 4))
    else:
        rows = ds.map_batches(partial(_emit_rows_task, meta=meta),
                              batch_format="pyarrow")
    # sort by bh inside each written file so parquet row-group stats
    # prune the probe's is_in filter
    return rows.map_batches(lambda t: t.sort_by("bh"),
                            batch_format="pyarrow")


def build_minhash_store(ds, out_dir: str, text_col: str = "text",
                        id_col: str = "doc_id", n: int = 3,
                        num_perm: int = 64, bands: int = 16,
                        seed: int = 42) -> dict:
    """One emit pass -> hive-partitioned band rows + meta.json."""
    meta = {"kind": "minhash", "text_col": text_col, "id_col": id_col,
            "n": n, "num_perm": num_perm, "bands": bands, "seed": seed,
            "generations": 1}
    _band_rows(ds, meta).write_parquet(
        os.path.join(out_dir, "bands"), partition_cols=["band"],
        mode="overwrite")
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def append_minhash_store(ds, store_dir: str) -> dict:
    """Incremental append: the delta's band rows land as NEW files in
    the existing band dirs under the persisted params — old files are
    never rewritten, and later probes see base+delta with no reader
    change (dirs are listed, not manifest-bound)."""
    with open(os.path.join(store_dir, "meta.json")) as f:
        meta = json.load(f)
    assert meta["kind"] == "minhash", meta["kind"]
    _band_rows(ds, meta).write_parquet(
        os.path.join(store_dir, "bands"), partition_cols=["band"],
        mode="append")
    meta["generations"] += 1
    with open(os.path.join(store_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def _probe_band(store_dir: str, band: int, delta_bh: np.ndarray,
                delta_ids: np.ndarray) -> np.ndarray:
    """One band's candidate (store_id, delta_id) pairs: scan the band
    dir with a bh membership filter (row-group-pruned on the sorted bh
    column), then join store rows to delta rows per equal bh run."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pa_ds

    band_dir = os.path.join(store_dir, "bands", f"band={band}")
    if not os.path.isdir(band_dir) or delta_bh.size == 0:
        return np.empty((0, 2), np.int64)
    order = np.argsort(delta_bh, kind="stable")
    dbh, dids = delta_bh[order], delta_ids[order]
    tbl = pa_ds.dataset(band_dir, format="parquet").to_table(
        columns=["bh", "doc_id"],
        filter=pc.field("bh").isin(pa.array(np.unique(dbh))))
    if tbl.num_rows == 0:
        return np.empty((0, 2), np.int64)
    sbh = tbl["bh"].to_numpy(zero_copy_only=False)
    sid = tbl["doc_id"].to_numpy(zero_copy_only=False)
    lo = np.searchsorted(dbh, sbh, side="left")
    hi = np.searchsorted(dbh, sbh, side="right")
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return np.empty((0, 2), np.int64)
    s_rep = np.repeat(sid, cnt)
    # vectorized run expansion: for each store row, indices lo..hi-1
    offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    d_rep = dids[np.repeat(lo, cnt) + offs]
    return np.stack([s_rep, d_rep], axis=1)


_probe_band_remote = None


def probe_minhash_store(delta_ds, store_dir: str, base_ds,
                        threshold: float = 0.5) -> pa.Table:
    """Near-dup pairs (a=store doc, b=delta doc, jaccard) between a
    delta batch and the persisted store: delta band rows are computed
    under the stored seeds, each band probes its partition dir in its
    own Ray task, candidate pairs dedupe, and exact Jaccard verifies
    over shingle sets recomputed for CANDIDATE ids only (one pruned
    pass over each corpus). ``base_ds`` must cover the ids the store
    indexed (base + any appended deltas)."""
    import ray
    import ray.data as rd

    global _probe_band_remote
    if _probe_band_remote is None:
        _probe_band_remote = ray.remote(num_cpus=1)(_probe_band)

    with open(os.path.join(store_dir, "meta.json")) as f:
        meta = json.load(f)
    assert meta["kind"] == "minhash", meta["kind"]
    id_col, text_col = meta["id_col"], meta["text_col"]

    parts = list(_band_rows(delta_ds, meta, use_actors=False)
                 .iter_batches(batch_format="pyarrow",
                               batch_size=1 << 20))
    if not parts:
        return _EMPTY_PAIRS
    drows = pa.concat_tables(parts)
    dband = drows["band"].to_numpy(zero_copy_only=False)
    dbh = drows["bh"].to_numpy(zero_copy_only=False)
    dids = drows["doc_id"].to_numpy(zero_copy_only=False)
    futures = [
        _probe_band_remote.remote(store_dir, b, dbh[dband == b],
                                  dids[dband == b])
        for b in np.unique(dband)]
    pairs = [p for p in ray.get(futures) if p.size]
    if not pairs:
        return _EMPTY_PAIRS
    cand = np.unique(np.concatenate(pairs), axis=0)
    a_ids, b_ids = cand[:, 0], cand[:, 1]

    sets: dict[int, np.ndarray] = {}

    def _cand_sets(ds, ids):
        rows = list(ds.map_batches(
            partial(_cand_hash_rows, ids_ref=ray.put(ids),
                    text_col=text_col, id_col=id_col, n=meta["n"]),
            batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=1 << 20))
        return _sets_from_rows(pa.concat_tables(rows)) if rows else {}

    # the base and delta candidate-pruned passes run one after the
    # other: overlapping two Ray Data plans on driver threads races Ray
    # Data's lazy fsspec imports (as in q_federated_search)
    for d, ids in ((base_ds, np.unique(a_ids)), (delta_ds, np.unique(b_ids))):
        sets.update(_cand_sets(d, ids))
    verified = rd.from_arrow(pa.table({
        "a": pa.array(a_ids, pa.int64()),
        "b": pa.array(b_ids, pa.int64()),
    })).map_batches(partial(_verify_pairs, sets_ref=ray.put(sets),
                            threshold=threshold),
                    batch_format="pyarrow")
    vparts = list(verified.iter_batches(batch_format="pyarrow",
                                        batch_size=1 << 20))
    out = pa.concat_tables(vparts) if vparts else _EMPTY_PAIRS
    if out.num_rows == 0:
        return _EMPTY_PAIRS
    return out.sort_by([("a", "ascending"), ("b", "ascending")])
