"""Bounded-memory serving (query/shards.py max_resident_bytes): every
shard keeps only its dictionary resident and pages full segment rows
through a per-row-group LRU; the cap bounds that LRU's bytes. Every
query path must return results identical to the uncapped engine —
residency is the ONLY difference."""

import os

import pyarrow.parquet as pq
import pytest

from logsentinelai_ray.query.shards import SearchEngine

QUERIES = [
    "error merge spark window",
    "authentication failure",
    "import numpy tensor",
    "connection timeout retry",
    "def class return yield",
    "error merge spark window",   # revisit: exercises LRU reuse
    "authentication failure",
]


def _segment_bytes(index_dir: str) -> int:
    seg = os.path.join(index_dir, "segments")
    return sum(os.path.getsize(os.path.join(seg, f))
               for f in os.listdir(seg))


@pytest.fixture(scope="module")
def bounded_pair(small_index):
    idx_dir, _cfg = small_index
    full = SearchEngine(idx_dir, num_shards=2, prewarm_hot_terms=0)
    # hard cap well below total segment bytes (and tiny per shard)
    cap = max(4096, _segment_bytes(idx_dir) // 8)
    bounded = SearchEngine(idx_dir, num_shards=2, prewarm_hot_terms=0,
                           max_resident_bytes=cap)
    yield full, bounded, cap
    full.shutdown()
    bounded.shutdown()


@pytest.mark.parametrize("strategy", ["taat", "wand"])
def test_bounded_ranks_identical(bounded_pair, strategy):
    full, bounded, cap = bounded_pair
    for q in QUERIES:
        a = full.search(q, k=20, with_meta=False, strategy=strategy)
        b = bounded.search(q, k=20, with_meta=False, strategy=strategy)
        assert a.to_pydict() == b.to_pydict(), (q, strategy)


def test_bounded_cap_respected_and_evicting(bounded_pair):
    full, bounded, cap = bounded_pair
    for q in QUERIES:
        bounded.search(q, k=20, with_meta=False, strategy="wand")
    st = bounded.cache_stats()
    assert st["rg_loads"] > 0                      # lazily loaded
    assert st["resident_bytes"] <= cap             # cap held
    # the query set touches more row-group bytes than the cap allows,
    # so the LRU must have evicted (and re-loaded on revisit)
    assert st["rg_evictions"] > 0
    # an uncapped engine loads row groups lazily and never evicts
    for q in QUERIES:
        full.search(q, k=20, with_meta=False, strategy="wand")
    st = full.cache_stats()
    assert st["rg_loads"] > 0 and st["rg_evictions"] == 0
    assert st["resident_row_groups"] == st["rg_loads"]


def test_uncapped_engine_opens_without_row_groups(small_index):
    """Opening reads only the (term, df) columns: no posting row group
    is resident until a query needs it."""
    idx_dir, _cfg = small_index
    eng = SearchEngine(idx_dir, num_shards=2, prewarm_hot_terms=0)
    try:
        assert eng.cache_stats() == {"rg_loads": 0, "rg_evictions": 0,
                                     "resident_bytes": 0,
                                     "resident_row_groups": 0}
        eng.search("error", k=5, with_meta=False)
        assert 0 < eng.cache_stats()["rg_loads"]
    finally:
        eng.shutdown()


def test_bounded_phrase_and_filters(bounded_pair, small_index):
    """The phrase planner and filtered search go through the same
    shard decode seams — identical under the cap."""
    full, bounded, _cap = bounded_pair
    for kwargs in ({"filters": {"lang": "python"}},
                   {"filters": {"lang": "go"}}):
        a = full.search("error merge", k=10, with_meta=False, **kwargs)
        b = bounded.search("error merge", k=10, with_meta=False,
                           **kwargs)
        assert a.to_pydict() == b.to_pydict(), kwargs


def test_bounded_dictionary_residency(bounded_pair):
    """No shard, capped or not, holds a per-term Python dict (at a
    1e7-term vocabulary a ~160-byte/term dict would dwarf the posting
    LRU the cap exists to bound): the dictionary residency is the
    sorted Arrow term column, a few tens of bytes/term, binary-searched
    at lookup time with rank identity pinned above."""
    import ray

    for eng in bounded_pair[:2]:
        stats = ray.get([s.dict_stats.remote() for s in eng.shards])
        assert sum(st["n_terms"] for st in stats) > 0
        for shard, st in zip(eng._shard_objs, stats):
            assert not any(isinstance(v, (dict, list, set))
                           and len(v) >= st["n_terms"] > 0
                           for v in vars(shard).values()), \
                "per-term container on a shard"
            if st["n_terms"]:
                # Arrow string column: 4-byte offset + payload
                # (+ padding); short code tokens stay well under the
                # ~160 B/entry a Python dict[str, tuple] costs
                assert 0 < st["term_col_bytes"] / st["n_terms"] < 48


def test_bounded_lookup_miss_and_field_terms(bounded_pair):
    """Binary-search lookup parity on misses and field terms: absent
    terms return empty everywhere, lang-filtered search (field-term
    lookups) matches the unbounded engine."""
    full, bounded, _cap = bounded_pair
    a = full.search("zzz_nonexistent_term_q", k=5, with_meta=False)
    b = bounded.search("zzz_nonexistent_term_q", k=5, with_meta=False)
    assert a.to_pydict() == b.to_pydict()


def test_segment_files_have_bounded_row_groups(small_index):
    """Segments are written with bounded row groups — the paging unit
    the LRU depends on (a single whole-part row group would make the
    cap all-or-nothing)."""
    idx_dir, _cfg = small_index
    seg = os.path.join(idx_dir, "segments")
    for f in os.listdir(seg):
        pf = pq.ParquetFile(os.path.join(seg, f))
        assert all(pf.metadata.row_group(i).num_rows <= 512
                   for i in range(pf.num_row_groups)), f
