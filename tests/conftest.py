import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    from logsentinelai_ray.config import CorpusConfig
    from logsentinelai_ray.corpus import generate_corpus

    return generate_corpus(CorpusConfig(n_docs=250))


@pytest.fixture(scope="session")
def small_index(ray_session, small_corpus, tmp_path_factory):
    """Build the small index once per session; returns (index_dir, cfg)."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index

    cfg = IndexConfig(num_partitions=8, salt_buckets=2, block_size=32,
                      store_positions=True, index_path_field=True)
    idx_dir = str(tmp_path_factory.mktemp("index") / "idx")
    build_index(rd.from_arrow(small_corpus), idx_dir, cfg, corpus_tag="t250")
    return idx_dir, cfg


@pytest.fixture(scope="session")
def oracle(small_index):
    import pyarrow.parquet as pq

    from logsentinelai_ray.query.bm25 import BM25Oracle

    idx_dir, cfg = small_index
    docs = pq.read_table(f"{idx_dir}/docs")
    pairs = list(zip(docs["doc_id"].to_pylist(), docs["content"].to_pylist()))
    attrs = {d: {"lang": l, "repo": r} for d, l, r in
             zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist(),
                 docs["repo"].to_pylist())}
    return BM25Oracle(pairs, attrs, cfg)


def actor_engine(index_dir: str, **kw):
    """A SearchEngine over ``index_dir`` whose shards run as actor
    processes, however small the index (``LOCAL_SEGMENT_BYTES`` is
    patched only while the engine opens, where the mode is chosen)."""
    from logsentinelai_ray.query import shards

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shards, "LOCAL_SEGMENT_BYTES", -1)
        return shards.SearchEngine(index_dir, **kw)


@pytest.fixture(scope="session")
def engine(small_index):
    from logsentinelai_ray.query.shards import SearchEngine

    idx_dir, _ = small_index
    return SearchEngine(idx_dir, num_shards=3)


def _load_query_set():
    """The checked-in reference-derived query set (queries.json,
    SURVEY.md §5.2.3)."""
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "queries.json")
    with open(path) as f:
        return json.load(f)["queries"]


QUERY_RECORDS = _load_query_set()
# unfiltered texts (filtered variants are exercised by dedicated tests)
QUERY_SET = [q["text"] for q in QUERY_RECORDS if "filters" not in q]
FILTERED_QUERIES = [q for q in QUERY_RECORDS if "filters" in q]
