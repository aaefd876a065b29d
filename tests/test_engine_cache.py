"""The registry's fixture-engine cache (pipelines/queries.py
``_ENGINE_CACHE``) is a bounded LRU that shuts down what it evicts, so
running the index-backed entries one after another holds a fixed number
of IndexShard actors instead of one pool per entry."""

import time

import ray

from logsentinelai_ray.pipelines.queries import _EngineCache

SF_DIR = "/root/testdata/sf0.001"

# entries that each build (or reuse) a cached engine; the federated,
# rollover and ILM entries cache several member engines under one key
INDEX_BACKED = ["bm25_topk", "bm25_topk_incremental", "pit_search",
                "bm25_topk_bounded", "federated_search", "rollover_search",
                "bm25_topk_deleted", "bm25_topk_rebuilt",
                "phrase_match_incremental", "federated_search_wand",
                "ilm_search", "shrink_search"]


class _Closable:
    def __init__(self):
        self.closed = 0

    def shutdown(self):
        self.closed += 1


def test_lru_evicts_least_recent_and_shuts_it_down():
    cache = _EngineCache(cap=2)
    a, b, c = _Closable(), _Closable(), _Closable()
    cache["a"], cache["b"] = a, b
    assert cache["a"] is a                 # a read counts as a use
    cache["c"] = c                         # evicts b, not a
    assert list(cache) == ["a", "c"]
    assert (a.closed, b.closed, c.closed) == (0, 1, 0)
    cache["path"] = "/tmp/x"               # values without shutdown()
    cache["d"] = _Closable()
    assert list(cache) == ["path", "d"]
    assert a.closed == 1 and c.closed == 1


def _live_shards() -> int:
    # the GCS actor table: ray.util.state.list_actors needs the
    # dashboard, which the test session does not start
    return sum(1 for a in ray._private.state.actors().values()
               if a["ActorClassName"] == "IndexShard"
               and a["State"] != "DEAD")


def _settled(ceiling: int) -> int:
    """Live shard count once async kills have landed (ray.kill returns
    before the GCS marks the actor dead)."""
    deadline = time.monotonic() + 10
    n = _live_shards()
    while n > ceiling and time.monotonic() < deadline:
        time.sleep(0.2)
        n = _live_shards()
    return n


def test_index_backed_entries_hold_bounded_actors(ray_session):
    from logsentinelai_ray.pipelines import QUERY_REGISTRY
    from logsentinelai_ray.pipelines.queries import _ENGINE_CACHE

    for key in list(_ENGINE_CACHE):        # start from an empty cache
        engine = _ENGINE_CACHE.pop(key)
        if hasattr(engine, "shutdown"):
            engine.shutdown()
    base = _settled(0)                     # other modules' engines
    # two cached entries of at most two single-shard member engines
    # (sf0.001 segments are far below SHARD_SEGMENT_BYTES)
    ceiling = base + _ENGINE_CACHE.cap * 2
    peak = 0
    for name in INDEX_BACKED:
        QUERY_REGISTRY[name](SF_DIR)
        n = _settled(ceiling)
        peak = max(peak, n)
        assert n <= ceiling, (name, n, ceiling)
    assert len(_ENGINE_CACHE) <= _ENGINE_CACHE.cap
    assert peak > base


def test_registry_index_root_is_per_process():
    """The registry's index directories live under one root per process,
    made afresh (not a fixed path another process or code version could
    have left an index in)."""
    import os
    import tempfile

    from logsentinelai_ray.pipelines.queries import _idx_root

    root = _idx_root()
    assert _idx_root() == root
    assert os.path.isdir(root)
    assert os.path.normpath(root) != "/tmp/lsai_idx"
    assert os.path.dirname(root) == tempfile.gettempdir()
    assert os.path.basename(root).startswith("lsai_idx-")
