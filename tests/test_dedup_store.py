"""Persisted MinHash store: probe == cross-pair subset of the one-shot
minhash operator; appends extend the store without rewriting it."""

import numpy as np
import pyarrow as pa
import pytest


def _docs_ds(sf="/root/testdata/sf0.001"):
    import ray.data as rd

    return rd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"])


def _pairs_set(tbl: pa.Table) -> set[tuple[int, int, float]]:
    return {(min(a, b), max(a, b), round(j, 9))
            for a, b, j in zip(tbl["a"].to_pylist(), tbl["b"].to_pylist(),
                               tbl["jaccard"].to_pylist())}


def _mod_split(ds, m: int, r: int):
    """(keep doc_id % m == r, keep the rest) via vectorized batch masks
    (Dataset.filter's expr strings don't support modulo)."""
    def keep(t, want: bool):
        mod = t["doc_id"].to_numpy(zero_copy_only=False) % m
        return t.filter(pa.array((mod == r) == want))

    from functools import partial
    hit = ds.map_batches(partial(keep, want=True), batch_format="pyarrow")
    rest = ds.map_batches(partial(keep, want=False),
                          batch_format="pyarrow")
    return hit, rest


@pytest.fixture(scope="module")
def split(ray_session):
    ds = _docs_ds()
    delta, base = _mod_split(ds, 10, 0)
    return ds, base.materialize(), delta.materialize()


def test_probe_equals_full_run_cross_pairs(split, tmp_path):
    from logsentinelai_ray.dedup import minhash_lsh_dupes
    from logsentinelai_ray.dedup.store import (build_minhash_store,
                                               probe_minhash_store)

    ds, base, delta = split
    store = str(tmp_path / "store")
    build_minhash_store(base, store)
    got = _pairs_set(probe_minhash_store(delta, store, base,
                                         threshold=0.5))

    full = minhash_lsh_dupes(ds, n=3, threshold=0.5)
    delta_ids = set(delta.to_pandas()["doc_id"])
    exp = {(a, b, j) for a, b, j in _pairs_set(full)
           if (a in delta_ids) != (b in delta_ids)}
    assert got == exp
    assert got, "fixture corpus should contain cross near-dups"


def test_probe_orientation_and_threshold(split, tmp_path):
    """a is always a store doc, b always a delta doc; a higher threshold
    probes to a subset."""
    from logsentinelai_ray.dedup.store import (build_minhash_store,
                                               probe_minhash_store)

    ds, base, delta = split
    store = str(tmp_path / "store")
    build_minhash_store(base, store)
    lo = probe_minhash_store(delta, store, base, threshold=0.5)
    base_ids = set(base.to_pandas()["doc_id"])
    delta_ids = set(delta.to_pandas()["doc_id"])
    assert set(lo["a"].to_pylist()) <= base_ids
    assert set(lo["b"].to_pylist()) <= delta_ids
    assert (np.asarray(lo["jaccard"]) >= 0.5).all()

    hi = probe_minhash_store(delta, store, base, threshold=0.9)
    assert _pairs_set(hi) <= _pairs_set(lo)


def test_append_then_probe_sees_both_generations(split, tmp_path):
    """After appending the first delta, probing a second delta finds
    pairs against base AND first-delta docs, equal to a fresh store
    over the union."""
    import ray.data as rd

    from logsentinelai_ray.dedup.store import (append_minhash_store,
                                               build_minhash_store,
                                               probe_minhash_store)

    ds, _base, _delta = split
    base, _ = _mod_split(ds, 3, 0)
    d1, _ = _mod_split(ds, 3, 1)
    d2, _ = _mod_split(ds, 3, 2)
    base, d1, d2 = (base.materialize(), d1.materialize(),
                    d2.materialize())

    store = str(tmp_path / "inc")
    build_minhash_store(base, store)
    meta = append_minhash_store(d1, store)
    assert meta["generations"] == 2
    covered = base.union(d1).materialize()
    got = _pairs_set(probe_minhash_store(d2, store, covered,
                                         threshold=0.5))

    fresh = str(tmp_path / "fresh")
    build_minhash_store(covered, fresh)
    exp = _pairs_set(probe_minhash_store(d2, fresh, covered,
                                         threshold=0.5))
    assert got == exp


def test_probe_band_reads_only_matching_buckets(split, tmp_path):
    """The probe's band scan must return no rows for band hashes absent
    from the delta (the filter is the read contract)."""
    from logsentinelai_ray.dedup.store import _probe_band, \
        build_minhash_store

    _ds, base, _delta = split
    store = str(tmp_path / "store")
    build_minhash_store(base, store)
    none = _probe_band(store, 0, np.asarray([1], np.uint64),
                       np.asarray([999999], np.int64))
    assert none.shape == (0, 2)


def test_double_append_is_probe_idempotent(split, tmp_path):
    """Re-appending the same delta (a crashed-retry shape) must not
    change probe results: duplicate band rows only create duplicate
    candidate pairs, which the probe dedups before verification."""
    from logsentinelai_ray.dedup.store import (append_minhash_store,
                                               build_minhash_store,
                                               probe_minhash_store)

    ds, base, delta = split
    store = str(tmp_path / "store")
    build_minhash_store(base, store)
    before = _pairs_set(probe_minhash_store(delta, store, base,
                                            threshold=0.5))
    # simulate a retried append of an empty-ish delta: re-append BASE
    # band rows (duplicating every stored row), then probe again
    append_minhash_store(base, store)
    after = _pairs_set(probe_minhash_store(delta, store, base,
                                           threshold=0.5))
    assert after == before


def test_probe_runs_one_ray_data_plan_at_a_time(split, tmp_path,
                                                monkeypatch):
    """The probe's base and delta candidate passes are separate Ray Data
    plans; overlapping them on driver threads races Ray Data's lazy
    fsspec imports, so at most one plan may be iterating at a time."""
    import threading
    import time

    import ray.data as rd

    from logsentinelai_ray.dedup.store import (build_minhash_store,
                                               probe_minhash_store)

    _, base, delta = split
    store = str(tmp_path / "store")
    build_minhash_store(base, store)

    lock = threading.Lock()
    active, peak = [0], [0]
    iter_batches = rd.Dataset.iter_batches

    def counted(self, *args, **kwargs):
        def run():
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                # widen the window a concurrent plan would overlap in
                time.sleep(0.2)
                yield from iter_batches(self, *args, **kwargs)
            finally:
                with lock:
                    active[0] -= 1
        return run()

    monkeypatch.setattr(rd.Dataset, "iter_batches", counted)
    got = probe_minhash_store(delta, store, base, threshold=0.5)
    assert got.num_rows > 0
    assert peak[0] == 1
