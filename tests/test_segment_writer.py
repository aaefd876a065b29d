"""One segment writer and one update dataflow: every segment part the
build, an update, shrink and split write is zstd with row groups of at
most 512 dictionary rows, every manifest part entry has one shape, and
a build and an update leave no transient exchange behind."""

import glob
import hashlib
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

# sha256 of the segment rows (values, per part file) after the fixture's
# build + 3 updates, as written by the earlier update path, which merged
# delta runs with two merge_runs passes and wrote snappy parquet. Only the
# compression may change; the rows must not.
SEGMENT_ROWS_SHA256 = (
    "008f1c1bd592acf0bc5625658983c0470eabfa354806319c4b23b994b16f024e")

_TRANSIENT = ("postings_raw", "postings_raw_pos", "postings_delta",
              "postings_delta_pos", "_id_mapping", "_delta_id_mapping",
              "_update_pending.json")


def _segment_rows_digest(idx: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(idx, "segments",
                                              "part-*.parquet"))):
        h.update(os.path.basename(path).encode())
        h.update(repr(pq.read_table(path).to_pydict()).encode())
    return h.hexdigest()


def _assert_segment_files(idx: str) -> int:
    paths = sorted(glob.glob(os.path.join(idx, "segments",
                                          "part-*.parquet")))
    assert paths
    n_groups = 0
    for path in paths:
        meta = pq.ParquetFile(path).metadata
        for rg in range(meta.num_row_groups):
            g = meta.row_group(rg)
            assert g.num_rows <= 512, (path, rg, g.num_rows)
            for c in range(g.num_columns):
                assert g.column(c).compression == "ZSTD", (path, rg, c)
        n_groups += meta.num_row_groups
    return n_groups


def _entries(idx: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(idx, "manifest",
                                              "part-*.json"))):
        with open(path) as f:
            out.append(json.load(f))
    return out


def _terms(idx: str) -> list[str]:
    return sorted(
        t for p in glob.glob(os.path.join(idx, "segments", "*.parquet"))
        for t in pq.read_table(p, columns=["term"])["term"].to_pylist())


@pytest.fixture(scope="module")
def updated(ray_session, tmp_path_factory):
    """Two term partitions (~870 terms each) built and updated three
    times on the scale path (``build._DRIVER_IDS_MAX_ROWS = 0``), so the
    id routing exchange is written by the build and every update, and
    every part spans row groups."""
    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index import build
    from logsentinelai_ray.index import manifest as mf
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.update import update_index

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build, "_DRIVER_IDS_MAX_ROWS", 0)
        root = tmp_path_factory.mktemp("segwriter")
        cfg = IndexConfig(num_partitions=2, salt_buckets=2, block_size=16,
                          store_positions=True)
        base = generate_corpus(CorpusConfig(n_docs=240, seed=5))
        os.makedirs(root / "base")
        pq.write_table(base, str(root / "base" / "0.parquet"))
        idx = str(root / "idx")
        build_index(str(root / "base"), idx, cfg, corpus_tag="b")
        built = {"dirs": set(os.listdir(idx)),
                 "row_groups": _assert_segment_files(idx),
                 "entry_keys": {frozenset(e) for e in _entries(idx)}}
        n_bases = []
        for b in range(3):
            # 60 new docs plus 5 re-sent base rows the update must drop
            delta = pa.concat_tables([
                generate_corpus(CorpusConfig(n_docs=60, seed=100 + b)),
                base.slice(b * 5, 5)])
            os.makedirs(root / f"d{b}")
            pq.write_table(delta, str(root / f"d{b}" / "0.parquet"))
            n_bases.append(mf.read_stats(idx)["n_docs"])
            res = update_index(str(root / f"d{b}"), idx, cfg,
                               delta_tag=f"d{b}")
            assert res["n_new_docs"] == 60
    return idx, cfg, built, n_bases


def test_build_segments_zstd_bounded_row_groups(updated):
    _idx, _cfg, built, _ = updated
    # ~870 terms per part: more than one row group each
    assert built["row_groups"] > 2


def test_build_leaves_no_transient_dirs(updated):
    _idx, _cfg, built, _ = updated
    assert not built["dirs"] & set(_TRANSIENT)


def test_update_leaves_no_transient_dirs(updated):
    idx, *_ = updated
    left = set(os.listdir(idx)) & set(_TRANSIENT)
    assert not left, left


def test_update_segments_zstd_bounded_row_groups(updated):
    idx, *_ = updated
    assert _assert_segment_files(idx) > 2


def test_update_delta_docmap_is_zstd(updated):
    idx, *_ = updated
    deltas = sorted(glob.glob(os.path.join(idx, "docmap", "delta-*")))
    assert len(deltas) == 3
    for path in deltas:
        meta = pq.ParquetFile(path).metadata
        assert meta.row_group(0).column(0).compression == "ZSTD"


def test_update_segment_rows_unchanged(updated):
    idx, *_ = updated
    assert _segment_rows_digest(idx) == SEGMENT_ROWS_SHA256


def test_manifest_entry_one_shape(updated):
    idx, cfg, built, n_bases = updated
    entries = _entries(idx)
    assert len(entries) == cfg.num_partitions
    # the build's and the update's entries carry the same keys
    assert {frozenset(e) for e in entries} == built["entry_keys"]
    for e in entries:
        assert e["delta_of"] == n_bases[-1]
        seg = pq.read_table(os.path.join(
            idx, "segments", f"part-{e['part']:04d}.parquet"))
        assert e["n_terms"] == seg.num_rows
        assert e["n_postings"] == pc.sum(seg["df"]).as_py()
        assert e["posting_bytes"] == sum(
            pc.sum(pc.binary_length(seg[c])).as_py()
            for c in ("doc_data", "tf_data", "dl_data"))


def test_updated_index_snapshot_verifies(updated, tmp_path):
    from logsentinelai_ray.index.snapshot import snapshot_index

    idx, cfg, *_ = updated
    report = snapshot_index(idx, str(tmp_path / "snap"))
    assert report["parts"] == cfg.num_partitions


def test_shrink_and_split_write_like_the_build(updated, tmp_path):
    """Shrink the updated index to one part (~1,740 terms), then split
    that back to two (~870 each): both must cap row groups and write
    manifest entries for their own parts, so a snapshot verifies."""
    from logsentinelai_ray.index.shrink import shrink_index, split_index
    from logsentinelai_ray.index.snapshot import snapshot_index

    idx, *_ = updated
    shrunk = str(tmp_path / "shrunk")
    shrink_index(idx, shrunk, factor=2)
    assert _assert_segment_files(shrunk) > 2
    split = str(tmp_path / "split")
    split_index(shrunk, split, factor=2)
    assert _assert_segment_files(split) > 2
    assert _terms(split) == _terms(shrunk) == _terms(idx)
    for d, parts in ((shrunk, 1), (split, 2)):
        assert [e["part"] for e in _entries(d)] == list(range(parts))
        assert snapshot_index(d, d + "-snap")["parts"] == parts
