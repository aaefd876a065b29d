"""Snapshot/restore verification (index/snapshot.py) and the _explain
score breakdown."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from logsentinelai_ray.index.snapshot import SnapshotCorrupt, snapshot_index


def test_snapshot_restore_rank_identical(engine, small_index, tmp_path):
    idx_dir, _cfg = small_index
    dst = str(tmp_path / "snap")
    report = snapshot_index(idx_dir, dst)
    assert report["parts"] > 0 and report["n_docs"] > 0
    # a finished index holds no postings exchange, so neither does its copy
    assert not [d for d in os.listdir(dst) if d.startswith("postings_")]

    from logsentinelai_ray.query.shards import SearchEngine

    restored = SearchEngine(dst, num_shards=2)
    try:
        a = engine.search("authentication failure error", k=10, with_meta=False)
        b = restored.search("authentication failure error", k=10, with_meta=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()
    finally:
        restored.shutdown()


def test_snapshot_detects_corruption(small_index, tmp_path):
    """A snapshot whose segment bytes don't match the manifest counts
    must fail verification and remove the partial copy."""
    idx_dir, _cfg = small_index
    dst = str(tmp_path / "snap_bad")
    snapshot_index(idx_dir, dst)
    segs = sorted(glob.glob(os.path.join(dst, "segments",
                                         "part-*.parquet")))
    tbl = pq.read_table(segs[0])
    pq.write_table(tbl.slice(0, max(0, tbl.num_rows - 1)), segs[0])
    dst2 = str(tmp_path / "snap_bad2")
    os.rename(dst, dst2)  # re-verify the tampered copy via snapshot
    with pytest.raises(SnapshotCorrupt):
        snapshot_index(dst2, str(tmp_path / "snap_bad3"))
    assert not os.path.exists(str(tmp_path / "snap_bad3"))


def test_explain_sums_to_search_score(engine):
    text = "authentication failure error"
    top = engine.search(text, k=3, with_meta=False)
    for i in range(top.num_rows):
        d = top["doc_id"][i].as_py()
        exp = engine.explain(text, d)
        assert exp.num_rows >= 2
        # the TAAT accumulator adds contributions in sorted-term order;
        # the same sequential sum must reproduce the score bit-exactly
        total = 0.0
        for c in exp["contribution"].to_pylist():
            total += c
        assert total == top["score"][i].as_py()


def test_explain_unmatched_doc_is_empty(engine):
    exp = engine.explain("zzzmissingterm", 0)
    assert exp.num_rows == 0


def test_snapshot_refuses_overlapping_destination(small_index, tmp_path):
    """dst == src, dst inside src, or src inside dst would rmtree the
    live source index — all three must be rejected before any delete."""
    idx_dir, _cfg = small_index
    for bad in (idx_dir,
                os.path.join(idx_dir, "snap"),
                os.path.dirname(idx_dir)):
        with pytest.raises(ValueError):
            snapshot_index(idx_dir, bad)
    # the source must be untouched
    assert os.path.exists(os.path.join(idx_dir, "stats.json"))
