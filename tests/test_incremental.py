"""Incremental re-index (SURVEY §2.10 batch analog): delta segments must
yield rank-identical results to an oracle over the union corpus, with
cross-delta duplicates dropped and WAND bounds kept safe under the updated
collection stats."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.conftest import QUERY_SET


@pytest.fixture(scope="module")
def updated_index(ray_session, tmp_path_factory):
    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.update import update_index

    root = tmp_path_factory.mktemp("incr")
    base_tbl = generate_corpus(CorpusConfig(n_docs=200, seed=11))
    delta_tbl = generate_corpus(CorpusConfig(n_docs=100, seed=22))
    # cross-delta duplicates: replay some base rows inside the delta
    delta_tbl = pa.concat_tables([delta_tbl, base_tbl.slice(0, 7)])

    base_dir, delta_dir = str(root / "base"), str(root / "delta")
    os.makedirs(base_dir)
    os.makedirs(delta_dir)
    pq.write_table(base_tbl, f"{base_dir}/part-0.parquet")
    pq.write_table(delta_tbl, f"{delta_dir}/part-0.parquet")

    cfg = IndexConfig(num_partitions=8, salt_buckets=2, block_size=32)
    idx = str(root / "idx")
    meta = build_index(base_dir, idx, cfg, corpus_tag="base")
    n_base = meta["n_docs"]
    res = update_index(delta_dir, idx, cfg, delta_tag="d1")
    return idx, cfg, n_base, res, base_tbl, delta_tbl


def test_delta_dedup_counts(updated_index):
    idx, cfg, n_base, res, base_tbl, delta_tbl = updated_index
    all_keys = {k for t in (base_tbl, delta_tbl)
                for k in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                             t["commit"].to_pylist())}
    assert res["n_docs"] == len(all_keys)
    assert res["n_new_docs"] == res["n_docs"] - n_base


def test_updated_stats_match_docs(updated_index):
    from logsentinelai_ray.analysis import tokenize_py
    from logsentinelai_ray.index import manifest as mf

    idx, cfg, *_ = updated_index
    stats = mf.read_stats(idx)
    docs = pq.read_table(os.path.join(idx, "docs"))
    total = sum(len(tokenize_py(c, cfg.max_token_len))
                for c in docs["content"].to_pylist())
    assert stats["n_docs"] == docs.num_rows
    assert stats["total_tokens"] == total
    assert stats["avgdl"] == pytest.approx(total / docs.num_rows)
    assert "min_bounds_avgdl" in stats


@pytest.mark.parametrize("strategy", ["taat", "wand"])
def test_incremental_rank_identity(updated_index, strategy):
    from logsentinelai_ray.query.bm25 import BM25Oracle
    from logsentinelai_ray.query.shards import SearchEngine

    idx, cfg, *_ = updated_index
    docs = pq.read_table(os.path.join(idx, "docs"))
    pairs = list(zip(docs["doc_id"].to_pylist(),
                     docs["content"].to_pylist()))
    attrs = {d: {"lang": l} for d, l in zip(docs["doc_id"].to_pylist(),
                                            docs["lang"].to_pylist())}
    oracle = BM25Oracle(pairs, attrs, cfg)
    eng = SearchEngine(idx, num_shards=3)
    try:
        for q in QUERY_SET:
            got = eng.search(q, k=25, with_meta=False, strategy=strategy)
            exp = oracle.search(q, k=25)
            assert got["doc_id"].to_pylist() == [d for d, _ in exp], \
                (q, strategy)
            assert got["score"].to_pylist() == [s for _, s in exp], \
                (q, strategy)
        flt = eng.search("error", k=10, filters={"lang": "python"},
                         with_meta=False, strategy=strategy)
        expf = oracle.search("error", k=10, filters={"lang": "python"})
        assert flt["doc_id"].to_pylist() == [d for d, _ in expf]
    finally:
        eng.shutdown()


def test_docmap_covers_delta(updated_index):
    idx, *_ = updated_index
    docmap = pq.read_table(os.path.join(idx, "docmap"))
    docs = pq.read_table(os.path.join(idx, "docs"))
    assert sorted(docmap["doc_id"].to_pylist()) == \
        sorted(docs["doc_id"].to_pylist())


def _mk_corpora(root, n_base=120, n_delta=60, overlap=9):
    from logsentinelai_ray.config import CorpusConfig
    from logsentinelai_ray.corpus import generate_corpus

    base_tbl = generate_corpus(CorpusConfig(n_docs=n_base, seed=31))
    delta_tbl = generate_corpus(CorpusConfig(n_docs=n_delta, seed=32))
    delta_tbl = pa.concat_tables([delta_tbl, base_tbl.slice(0, overlap)])
    base_dir, delta_dir = str(root / "base"), str(root / "delta")
    os.makedirs(base_dir)
    os.makedirs(delta_dir)
    pq.write_table(base_tbl, f"{base_dir}/part-0.parquet")
    pq.write_table(delta_tbl, f"{delta_dir}/part-0.parquet")
    return base_dir, delta_dir


def test_distributed_anti_join_matches_driver_path(ray_session,
                                                   tmp_path_factory):
    """The scale path (keys-only Dataset sort + per-block rank assignment)
    must assign exactly the ids the vectorized driver path assigns."""
    import dataclasses

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.update import update_index

    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=32)
    cfg_dist = dataclasses.replace(cfg, driver_dedup_max_rows=0)
    results = {}
    for label, c in (("driver", cfg), ("dist", cfg_dist)):
        root = tmp_path_factory.mktemp(f"aj_{label}")
        base_dir, delta_dir = _mk_corpora(root)
        idx = str(root / "idx")
        build_index(base_dir, idx, c, corpus_tag="b")
        res = update_index(delta_dir, idx, c, delta_tag="d")
        docmap = pq.read_table(os.path.join(idx, "docmap"))
        results[label] = (res["n_new_docs"],
                          docmap.sort_by("doc_id").to_pydict())
    assert results["driver"][0] == results["dist"][0] > 0
    assert results["driver"][1] == results["dist"][1]


def test_update_resumes_after_mid_merge_crash(ray_session,
                                              tmp_path_factory):
    """Kill the update after one segment part merged; rerunning with the
    same args must resume (skip the merged part, not double-apply stats or
    dedup against the half-written docmap delta) and end rank-identical to
    an uninterrupted update."""
    import ray as _ray

    import logsentinelai_ray.index.update as upd
    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import manifest as mf
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.bm25 import BM25Oracle
    from logsentinelai_ray.query.shards import SearchEngine

    root = tmp_path_factory.mktemp("crash")
    base_dir, delta_dir = _mk_corpora(root)
    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=32)
    idx = str(root / "idx")
    build_index(base_dir, idx, cfg, corpus_tag="b")

    orig = upd._merge_delta_part
    state = {"n": 0}

    class Boom:
        def remote(self, *a, **k):
            if state["n"] >= 1:
                raise RuntimeError("simulated crash")
            state["n"] += 1
            ref = orig.remote(*a, **k)
            _ray.get(ref)  # ensure the first part is fully merged
            return ref

    upd._merge_delta_part = Boom()
    try:
        with pytest.raises(RuntimeError, match="simulated crash"):
            upd.update_index(delta_dir, idx, cfg, delta_tag="d")
    finally:
        upd._merge_delta_part = orig
    assert os.path.exists(os.path.join(idx, "_update_pending.json"))
    # a different delta while one is pending must refuse loudly
    with pytest.raises(RuntimeError, match="incomplete"):
        upd.update_index(base_dir, idx, cfg, delta_tag="other")
    # resume
    res = upd.update_index(delta_dir, idx, cfg, delta_tag="d")
    assert not os.path.exists(os.path.join(idx, "_update_pending.json"))
    stats = mf.read_stats(idx)
    assert stats["n_docs"] == res["n_docs"]

    docs = pq.read_table(os.path.join(idx, "docs"))
    assert sorted(docs["doc_id"].to_pylist()) == list(range(res["n_docs"]))
    oracle = BM25Oracle(
        list(zip(docs["doc_id"].to_pylist(), docs["content"].to_pylist())),
        None, cfg)
    eng = SearchEngine(idx, num_shards=2)
    try:
        got = eng.search("error merge window", k=15, with_meta=False)
        exp = oracle.search("error merge window", k=15)
        assert got["doc_id"].to_pylist() == [d for d, _ in exp]
        assert got["score"].to_pylist() == [s for _, s in exp]
    finally:
        eng.shutdown()


def test_update_rollback_before_any_merge(ray_session, tmp_path_factory):
    import logsentinelai_ray.index.update as upd
    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index

    root = tmp_path_factory.mktemp("rb")
    base_dir, delta_dir = _mk_corpora(root)
    # the path field makes the update write norms/ delta files too
    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=32,
                      index_path_field=True)
    idx = str(root / "idx")
    build_index(base_dir, idx, cfg, corpus_tag="b")

    def listing():
        return {d: sorted(os.listdir(os.path.join(idx, d)))
                for d in ("docs", "norms")}

    before = listing()
    assert before["norms"] == [f for f in before["docs"]
                               if f.endswith(".parquet")]

    class Dead:
        def remote(self, *a, **k):
            raise RuntimeError("dead before any merge")

    orig = upd._merge_delta_part
    upd._merge_delta_part = Dead()
    try:
        with pytest.raises(RuntimeError, match="dead"):
            upd.update_index(delta_dir, idx, cfg, delta_tag="d")
    finally:
        upd._merge_delta_part = orig
    assert listing() != before  # the failed update left delta files
    assert upd.rollback_update(idx) is True
    assert listing() == before
    assert upd.rollback_update(idx) is False
    # index is clean again: a fresh update succeeds
    res = upd.update_index(delta_dir, idx, cfg, delta_tag="d")
    assert res["n_new_docs"] > 0


def test_update_rejects_mismatched_config(ray_session, tmp_path_factory):
    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.update import update_index

    root = tmp_path_factory.mktemp("cfgmm")
    base_dir, delta_dir = _mk_corpora(root, n_base=40, n_delta=20,
                                      overlap=3)
    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=32)
    idx = str(root / "idx")
    build_index(base_dir, idx, cfg, corpus_tag="b")
    with pytest.raises(ValueError, match="num_partitions"):
        update_index(delta_dir, idx,
                     IndexConfig(num_partitions=8, salt_buckets=2,
                                 block_size=32), delta_tag="d")
    # cfg=None derives the shape from stats.json and must succeed
    res = update_index(delta_dir, idx, None, delta_tag="d")
    assert res["n_new_docs"] > 0


def test_update_by_query_search_reflects_update(ray_session):
    """After _update_by_query (delete + reindex new version), a
    lang-filtered search finds the updated docs under the NEW value and
    no longer under the old one; content is preserved."""
    from logsentinelai_ray.pipelines.queries import (_docs_engine,
                                                     _ubq_engine,
                                                     q_update_by_query)

    sf = "/root/testdata/sf0.001"
    upd = q_update_by_query(sf)
    src_ids = set(upd["doc_id"].to_pylist())
    assert src_ids
    eng = _ubq_engine(sf)
    base = _docs_engine(sf)
    # every updated doc matches 'merge' under lang:xx in the clone
    res = eng.constant_score_search("merge", filters={"lang": "xx"},
                                    k=10 ** 6)
    meta = eng._join_docmap(res["doc_id"].to_pylist())
    assert {int(r[1:]) for r in meta["repo"].to_pylist()} == src_ids
    # and no doc matching 'merge' is lang-en in the clone anymore,
    # while the pristine base still has some
    still_en = eng.constant_score_search("merge", filters={"lang": "en"},
                                         k=10 ** 6)
    assert still_en.num_rows == 0
    base_en = base.constant_score_search("merge", filters={"lang": "en"},
                                         k=10 ** 6)
    assert base_en.num_rows > 0
