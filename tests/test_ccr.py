"""CCR follower sync (index/ccr.py): bootstrap, incremental catch-up
after a leader update, no-op idempotence, and rank identity throughout."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logsentinelai_ray.config import CorpusConfig, IndexConfig
from logsentinelai_ray.corpus import generate_corpus
from logsentinelai_ray.index.build import build_index
from logsentinelai_ray.index.ccr import plan_sync, sync_follower
from logsentinelai_ray.index.update import update_index


@pytest.fixture(scope="module")
def leader(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("ccr")
    base = generate_corpus(CorpusConfig(n_docs=200, seed=31))
    delta = generate_corpus(CorpusConfig(n_docs=80, seed=32))
    base_dir, delta_dir = str(root / "base"), str(root / "delta")
    os.makedirs(base_dir)
    os.makedirs(delta_dir)
    pq.write_table(base, f"{base_dir}/part-0.parquet")
    pq.write_table(delta, f"{delta_dir}/part-0.parquet")
    cfg = IndexConfig(num_partitions=8, salt_buckets=2, block_size=32,
                      store_positions=True, index_path_field=True)
    idx = str(root / "leader")
    build_index(base_dir, idx, cfg, corpus_tag="ccr-base")
    return idx, cfg, delta_dir, str(root / "follower")


def _ranks(index_dir, text="authentication failure error", k=20):
    from logsentinelai_ray.query.shards import SearchEngine

    eng = SearchEngine(index_dir, num_shards=2)
    try:
        r = eng.search(text, k=k, with_meta=False)
        return r["doc_id"].to_pylist(), r["score"].to_pylist()
    finally:
        eng.shutdown()


def _combined_ranks(index_dir, text="auth error md", k=20):
    """combined_fields reads the norms sidecar, so it ranks the same only
    if norms/ replicated along with the segments."""
    from logsentinelai_ray.query.shards import SearchEngine

    eng = SearchEngine(index_dir, num_shards=2)
    try:
        r = eng.combined_fields_search(text, path_boost=2.0, k=k)
        return r["doc_id"].to_pylist(), r["score"].to_pylist()
    finally:
        eng.shutdown()


def test_ccr_rounds(leader):
    idx, cfg, delta_dir, follower = leader

    # round 1: bootstrap — everything ships
    r1 = sync_follower(idx, follower)
    assert r1["copied"] > 0
    assert _ranks(follower) == _ranks(idx)
    assert _combined_ranks(follower) == _combined_ranks(idx)

    # leader advances; follower is now stale
    update_index(delta_dir, idx, cfg, delta_tag="ccr-d1")
    lead_ids, _ = _ranks(idx)

    # round 2: incremental — copies the delta + rewritten parts, NOT
    # the whole index again
    plan = plan_sync(idx, follower)
    total_leader_files = r1["copied"]
    assert 0 < len(plan["copies"])
    r2 = sync_follower(idx, follower)
    assert r2["copied"] == len(plan["copies"])
    assert _ranks(follower)[0] == lead_ids
    assert _ranks(follower) == _ranks(idx)
    assert _combined_ranks(follower) == _combined_ranks(idx)

    # round 3: no-op — plan is empty, sync is idempotent
    plan3 = plan_sync(idx, follower)
    assert plan3["copies"] == [] and plan3["commit"] == [] \
        and plan3["drops"] == []
    r3 = sync_follower(idx, follower)
    assert r3 == {"copied": 0, "dropped": 0, "committed": 0}
    assert _combined_ranks(follower) == _combined_ranks(idx)
    assert r1["copied"] >= 8  # bootstrap shipped at least the segments
    assert total_leader_files >= r2["copied"] > 0


def test_ccr_phrase_after_sync(leader):
    """Positions sidecar deltas replicate too (phrase parity)."""
    from logsentinelai_ray.query.shards import SearchEngine

    idx, _cfg, _delta, follower = leader
    a, b = SearchEngine(idx, num_shards=2), SearchEngine(follower,
                                                         num_shards=2)
    try:
        pa_ = a.phrase_match("authentication failure")
        pb = b.phrase_match("authentication failure")
        assert pa_["doc_id"].to_pylist() == pb["doc_id"].to_pylist()
        assert pa_["n_matches"].to_pylist() == pb["n_matches"].to_pylist()
    finally:
        a.shutdown()
        b.shutdown()


def test_ccr_guards(leader, tmp_path):
    idx, _cfg, _delta, _f = leader
    with pytest.raises(ValueError, match="disjoint"):
        sync_follower(idx, os.path.join(idx, "nested"))
    with pytest.raises(ValueError, match="disjoint"):
        sync_follower(idx, idx)
