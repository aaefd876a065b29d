"""Federated (multi-index, dfs_query_then_fetch) search must be
bit-identical to one merged index over the union corpus."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def halves(small_index, tmp_path_factory, ray_session):
    """Split the fixture corpus at the median doc id (= sorted-key
    rank) and build each half as its own index."""
    import ray.data as rd

    from logsentinelai_ray.index.build import build_index

    idx_dir, cfg = small_index
    docs = pq.read_table(f"{idx_dir}/docs")
    half = docs.num_rows // 2
    ids = docs["doc_id"].to_numpy(zero_copy_only=False)
    cols = ["repo", "path", "commit", "lang", "content"]
    base = tmp_path_factory.mktemp("fed")
    dirs = []
    for name, mask in (("a", ids < half), ("b", ids >= half)):
        part = docs.filter(pa.array(mask)).select(cols)
        d = str(base / name)
        build_index(rd.from_arrow(part), d, cfg, corpus_tag=f"fed-{name}")
        dirs.append(d)
    return dirs


def test_federated_equals_merged(engine, halves):
    from logsentinelai_ray.query.federated import FederatedSearch
    from logsentinelai_ray.query.shards import SearchEngine

    members = [SearchEngine(d, num_shards=2) for d in halves]
    try:
        fed = FederatedSearch(members)
        for text in ("authentication failure", "error",
                     "authentication failure error zzzmissing"):
            a = fed.search(text, k=15)
            b = engine.search(text, k=15, with_meta=False,
                              strategy="taat")
            assert a.num_rows > 0
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
            # bit-identical scores — same float expression tree
            assert a["score"].to_pylist() == b["score"].to_pylist()
    finally:
        for m in members:
            m.shutdown()


def test_gather_mixes_futures_and_refs(ray_session):
    """``_gather`` resolves a wave that mixes in-process Futures with
    actor ObjectRefs, keeping the keys' order."""
    from concurrent.futures import Future

    import ray

    from logsentinelai_ray.query.shards import _gather

    done = Future()
    done.set_result(("local", 1))
    got = _gather({"b": ray.put(("remote", 2)), "a": done,
                   "c": ray.put(None)})
    assert list(got.items()) == [("b", ("remote", 2)), ("a", ("local", 1)),
                                 ("c", None)]
    assert _gather({}) == {}


def test_federated_mixed_modes_equal_merged(engine, halves):
    """One member with in-process shards and one with actor shards: the
    decode wave gathers Futures and ObjectRefs together, and TAAT and
    WAND rank bit-identically to the merged index."""
    from logsentinelai_ray.query.federated import FederatedSearch
    from logsentinelai_ray.query.shards import SearchEngine
    from tests.conftest import actor_engine

    members = [SearchEngine(halves[0], num_shards=2),
               actor_engine(halves[1], num_shards=2)]
    try:
        assert [m._local for m in members] == [True, False]
        fed = FederatedSearch(members)
        for text in ("authentication failure", "error",
                     "select union passwd", "import the error timeout"):
            for strategy in ("taat", "wand"):
                a = fed.search(text, k=15, strategy=strategy)
                b = engine.search(text, k=15, with_meta=False,
                                  strategy=strategy)
                assert a.num_rows > 0
                assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
                assert a["score"].to_pylist() == b["score"].to_pylist()
    finally:
        for m in members:
            m.shutdown()


def test_federated_rejects_mismatched_members(halves, ray_session):
    from logsentinelai_ray.query.federated import FederatedSearch
    from logsentinelai_ray.query.shards import SearchEngine

    m = SearchEngine(halves[0], num_shards=2)
    try:
        m2 = SearchEngine(halves[1], num_shards=2)
        m2.stats = dict(m2.stats, k1=9.9)
        with pytest.raises(ValueError):
            FederatedSearch([m, m2])
        m2.shutdown()
    finally:
        m.shutdown()


def test_federated_respects_member_tombstones(halves, ray_session):
    from logsentinelai_ray.index.delete import delete_docs
    from logsentinelai_ray.query.federated import FederatedSearch
    from logsentinelai_ray.query.shards import SearchEngine

    import shutil
    import tempfile

    clone = tempfile.mkdtemp(prefix="feddel_") + "/a"
    shutil.copytree(halves[0], clone)
    members = [SearchEngine(clone, num_shards=2),
               SearchEngine(halves[1], num_shards=2)]
    try:
        fed = FederatedSearch(members)
        before = fed.search("authentication failure", k=5)
        assert before.num_rows > 0
        victim = before["doc_id"][0].as_py()
        assert victim < int(members[0].stats["n_docs"])  # in member 0
        delete_docs(clone, [victim])
        members[0].reload_tombstones()
        after = fed.search("authentication failure", k=5)
        assert victim not in after["doc_id"].to_pylist()
    finally:
        for m in members:
            m.shutdown()
        shutil.rmtree(clone, ignore_errors=True)


def test_federated_wand_equals_merged_wand(engine, halves):
    """Forced federated WAND (one kernel over all members' cursors in
    the global id space = the global threshold exchange) must be
    bit-identical to the merged single index under forced WAND AND to
    the federated TAAT path."""
    from logsentinelai_ray.query.federated import FederatedSearch
    from logsentinelai_ray.query.shards import SearchEngine

    members = [SearchEngine(d, num_shards=2) for d in halves]
    try:
        fed = FederatedSearch(members)
        for text in ("authentication failure", "error",
                     "select union passwd", "import the error timeout"):
            w = fed.search(text, k=15, strategy="wand")
            t = fed.search(text, k=15)  # taat
            m = engine.search(text, k=15, with_meta=False,
                              strategy="wand")
            assert w.num_rows > 0
            assert w["doc_id"].to_pylist() == m["doc_id"].to_pylist()
            assert w["score"].to_pylist() == m["score"].to_pylist()
            assert w["doc_id"].to_pylist() == t["doc_id"].to_pylist()
            assert w["score"].to_pylist() == t["score"].to_pylist()
    finally:
        for m in members:
            m.shutdown()


def test_federated_wand_respects_member_tombstones(halves, ray_session):
    """Deletes inside one member must vanish from the federated WAND
    result while surviving scores stay identical to TAAT."""
    import shutil

    from logsentinelai_ray.index.delete import delete_docs
    from logsentinelai_ray.query.federated import FederatedSearch
    from logsentinelai_ray.query.shards import SearchEngine

    import tempfile

    clone = tempfile.mkdtemp(prefix="fedwandtomb") + "/a"
    shutil.copytree(halves[0], clone)
    pre = SearchEngine(clone, num_shards=2)
    victims = pre.search("error", k=3, with_meta=False)["doc_id"].to_pylist()
    pre.shutdown()
    delete_docs(clone, victims)
    members = [SearchEngine(clone, num_shards=2),
               SearchEngine(halves[1], num_shards=2)]
    try:
        fed = FederatedSearch(members)
        w = fed.search("error", k=20, strategy="wand")
        t = fed.search("error", k=20)
        assert not (set(w["doc_id"].to_pylist()) & set(victims))
        assert w["doc_id"].to_pylist() == t["doc_id"].to_pylist()
        assert w["score"].to_pylist() == t["score"].to_pylist()
    finally:
        for m in members:
            m.shutdown()


def test_rollover_alias_matches_merged_index(ray_session, tmp_path):
    """Three sorted-key chunks through RolloverIndex (chunk 2 via the
    incremental update path, chunk 3 after a rollover) must serve the
    SAME (doc_id, score) lists as one index built over everything — for
    TAAT and forced WAND — and must seal generations at max_docs."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.rollover import RolloverIndex
    from logsentinelai_ray.query.shards import SearchEngine

    tbl = generate_corpus(CorpusConfig(n_docs=240))
    # drop exact-content duplicates up front so build/update dedup (D1
    # keep-first) doesn't shift the expected generation counts
    seen, keep = set(), []
    for i, c in enumerate(tbl["content"].to_pylist()):
        if c not in seen:
            seen.add(c)
            keep.append(i)
    tbl = tbl.take(keep).sort_by("repo")
    n = tbl.num_rows
    c1, c2 = n // 3, 2 * (n // 3)
    cfg = IndexConfig(num_partitions=4, salt_buckets=2)
    chunks = []
    for i, (lo, hi) in enumerate(((0, c1), (c1, c2), (c2, n))):
        p = str(tmp_path / f"c{i}.parquet")
        pq.write_table(tbl.slice(lo, hi - lo), p)
        chunks.append(p)

    roll = RolloverIndex(str(tmp_path / "alias"), cfg, max_docs=c2,
                         alias="t")
    e0 = roll.ingest(chunks[0], tag="c0")
    assert (e0["name"], e0["sealed"], e0["n_docs"]) == ("gen-0000",
                                                        False, c1)
    e1 = roll.ingest(chunks[1], tag="c1")
    assert (e1["name"], e1["sealed"], e1["n_docs"]) == ("gen-0000",
                                                        True, c2)
    e2 = roll.ingest(chunks[2], tag="c2")
    assert (e2["name"], e2["sealed"], e2["n_docs"]) == ("gen-0001",
                                                        False, n - c2)

    merged_dir = str(tmp_path / "merged")
    build_index(rd.from_arrow(tbl), merged_dir, cfg, corpus_tag="m")
    merged = SearchEngine(merged_dir, num_shards=2)
    for q in ("error merge window", "authentication failure",
              "sort spark"):
        for strat in (None, "wand"):
            a = roll.search(q, k=10, strategy=strat)
            b = merged.search(q, k=10, with_meta=False, strategy=strat)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), \
                (q, strat)
            assert a["score"].to_pylist() == b["score"].to_pylist(), \
                (q, strat)

    # reopening the alias resumes the generation log
    again = RolloverIndex(str(tmp_path / "alias"), cfg, max_docs=160,
                          alias="t")
    assert again.meta == roll.meta
    roll.shutdown()
    merged.shutdown()


def test_rollover_prune_drops_old_sealed_generations(ray_session,
                                                     tmp_path):
    """prune (ILM delete analog) removes old sealed generations only;
    the alias then serves exactly the surviving docs."""
    import pyarrow.parquet as pq

    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index.rollover import RolloverIndex

    tbl = generate_corpus(CorpusConfig(n_docs=150))
    seen, keep = set(), []
    for i, c in enumerate(tbl["content"].to_pylist()):
        if c not in seen:
            seen.add(c)
            keep.append(i)
    tbl = tbl.take(keep).sort_by("repo")
    n = tbl.num_rows
    third = n // 3
    cfg = IndexConfig(num_partitions=4, salt_buckets=2)
    roll = RolloverIndex(str(tmp_path / "alias"), cfg, max_docs=third,
                         alias="t")
    for i in range(3):
        p = str(tmp_path / f"c{i}.parquet")
        lo = i * third
        pq.write_table(tbl.slice(lo, third if i < 2 else n - lo), p)
        roll.ingest(p, tag=f"c{i}")
    assert len(roll.meta["generations"]) == 3

    removed = roll.prune(keep_last=2)
    assert removed == ["gen-0000"]
    assert [g["name"] for g in roll.meta["generations"]] == \
        ["gen-0001", "gen-0002"]
    import os
    assert not os.path.isdir(str(tmp_path / "alias" / "gen-0000"))

    total = sum(g["n_docs"] for g in roll.meta["generations"])
    res = roll.search("error merge", k=1000)
    assert res.num_rows <= total
    # an unsealed last generation is never pruned even with keep_last=1
    roll.meta["generations"][-1]["sealed"] = False
    removed2 = roll.prune(keep_last=1)
    assert "gen-0002" not in removed2
    roll.shutdown()
