"""Index shrink (index/shrink.py): rank identity across every query
family, positions sidecar survival, and the routing/guard contracts."""

import os

import pytest

from logsentinelai_ray.index.shrink import shrink_index, split_index


@pytest.fixture(scope="module")
def shrunk(engine, small_index, tmp_path_factory):
    from logsentinelai_ray.query.shards import SearchEngine

    idx_dir, _cfg = small_index
    dst = str(tmp_path_factory.mktemp("shrink") / "idx4")
    stats = shrink_index(idx_dir, dst, factor=2)
    assert stats["num_partitions"] == 4
    assert stats["shrunk_from"] == 8
    eng = SearchEngine(dst, num_shards=2)
    yield eng
    eng.shutdown()


def test_shrink_rank_identical_bm25(engine, shrunk):
    for text in ("authentication failure error", "merge sort window",
                 "the"):
        a = engine.search(text, k=20, with_meta=False)
        b = shrunk.search(text, k=20, with_meta=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()


def test_shrink_rank_identical_wand_and_filters(engine, shrunk):
    a = engine.search("authentication failure", k=10, strategy="wand",
                      with_meta=False)
    b = shrunk.search("authentication failure", k=10, strategy="wand",
                      with_meta=False)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    af = engine.search("authentication failure", k=10,
                       filters={"lang": "en"}, with_meta=False)
    bf = shrunk.search("authentication failure", k=10,
                       filters={"lang": "en"}, with_meta=False)
    assert af["doc_id"].to_pylist() == bf["doc_id"].to_pylist()


@pytest.mark.parametrize("fixture", ["shrunk", "split2"])
def test_repartitioned_parts_are_term_sorted(request, fixture):
    """Every shard binary-searches its part files' term columns, so a
    shrunk or split part must be term-sorted like a built one."""
    import pyarrow.parquet as pq

    seg = os.path.join(request.getfixturevalue(fixture).index_dir,
                       "segments")
    parts = sorted(f for f in os.listdir(seg) if f.startswith("part-"))
    assert parts
    for f in parts:
        terms = pq.read_table(os.path.join(seg, f),
                              columns=["term"])["term"].to_pylist()
        assert terms == sorted(terms), f


def test_shrink_preserves_positions(engine, shrunk):
    """Phrase queries read the positions sidecar — the directory-wise
    merge must keep every (term, doc, pos) row reachable."""
    a = engine.phrase_match("authentication failure")
    b = shrunk.phrase_match("authentication failure")
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["n_matches"].to_pylist() == b["n_matches"].to_pylist()


@pytest.fixture(scope="module")
def split2(engine, small_index, tmp_path_factory):
    from logsentinelai_ray.query.shards import SearchEngine

    idx_dir, _cfg = small_index
    dst = str(tmp_path_factory.mktemp("split") / "idx16")
    stats = split_index(idx_dir, dst, factor=2)
    assert stats["num_partitions"] == 16
    assert stats["split_from"] == 8
    eng = SearchEngine(dst, num_shards=2)
    yield eng
    eng.shutdown()


def test_split_rank_identical(engine, split2):
    for text in ("authentication failure error", "merge sort window"):
        a = engine.search(text, k=20, with_meta=False)
        b = split2.search(text, k=20, with_meta=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()
    aw = engine.search("authentication failure", k=10, strategy="wand",
                       with_meta=False)
    bw = split2.search("authentication failure", k=10, strategy="wand",
                       with_meta=False)
    assert aw["doc_id"].to_pylist() == bw["doc_id"].to_pylist()


def test_split_preserves_positions(engine, split2):
    a = engine.phrase_match("authentication failure")
    b = split2.phrase_match("authentication failure")
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["n_matches"].to_pylist() == b["n_matches"].to_pylist()


def test_split_then_shrink_roundtrip(engine, small_index,
                                     tmp_path_factory):
    """split ×2 then shrink ÷2 must serve the original ranks — the
    modular routing inverses compose."""
    from logsentinelai_ray.query.shards import SearchEngine

    idx_dir, _cfg = small_index
    up = str(tmp_path_factory.mktemp("rt") / "up")
    down = str(tmp_path_factory.mktemp("rt") / "down")
    split_index(idx_dir, up, factor=2)
    shrink_index(up, down, factor=2)
    eng = SearchEngine(down, num_shards=2)
    try:
        a = engine.search("authentication failure error", k=20,
                          with_meta=False)
        b = eng.search("authentication failure error", k=20,
                       with_meta=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()
    finally:
        eng.shutdown()


def test_shrink_guards(small_index, tmp_path):
    idx_dir, _cfg = small_index
    with pytest.raises(ValueError, match="outside the source"):
        shrink_index(idx_dir, os.path.join(idx_dir, "sub"), 2)
    with pytest.raises(ValueError, match="divide"):
        shrink_index(idx_dir, str(tmp_path / "x"), 3)
    with pytest.raises(ValueError, match="divide"):
        shrink_index(idx_dir, str(tmp_path / "x"), 1)
