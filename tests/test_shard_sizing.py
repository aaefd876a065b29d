"""Shard-pool sizing (query/shards.py ``shard_count``): a default engine
splits its partitions over one shard per SHARD_SEGMENT_BYTES of
segments, held in process up to LOCAL_SEGMENT_BYTES and as actor
processes above. Every query path must give bit-identical results for
the default and for any explicit shard count, in both modes — the count
and the mode only move where postings live."""

import gc
import os
import threading
import weakref

import numpy as np
import pytest
import ray

from logsentinelai_ray.index.build import term_partition
from logsentinelai_ray.query import shards
from logsentinelai_ray.query.shards import (LOCAL_SEGMENT_BYTES, MAX_SHARDS,
                                            SHARD_SEGMENT_BYTES, SearchEngine,
                                            _segment_bytes, shard_count)
from tests.conftest import QUERY_SET, actor_engine

SHARD_COUNTS = [None, 1, 2, 4]
# (actor processes?, shard count); the in-process cases keep the ids
# they had when every engine ran actors
MODES = [(False, n) for n in SHARD_COUNTS] + [(True, n) for n in SHARD_COUNTS]
FILTERS = [None, {"lang": "python"}, {"repo": "org1/repo1"},
           {"lang": "no_such_lang"}]


def _pairs(tbl):
    return list(zip(tbl["doc_id"].to_pylist(), tbl["score"].to_pylist()))


def _segments(tmp_path, sizes: dict) -> str:
    """An index dir whose ``segments/`` holds sparse files of the given
    sizes (only the sizes matter to the sizing rule)."""
    seg = tmp_path / "segments"
    seg.mkdir()
    for name, size in sizes.items():
        with open(seg / name, "wb") as f:
            f.truncate(size)
    return str(tmp_path)


def test_shard_count_tiny_index_is_one_shard(tmp_path, small_index):
    assert _segment_bytes(str(tmp_path)) == 0          # no segments dir
    assert shard_count(_segment_bytes(str(tmp_path)), 8) == 1
    assert shard_count(_segment_bytes(
        _segments(tmp_path, {"part-0000.parquet": 1024})), 8) == 1
    idx_dir, cfg = small_index
    assert shard_count(_segment_bytes(idx_dir), cfg.num_partitions) == 1


@pytest.mark.parametrize("total,parts,want", [
    (SHARD_SEGMENT_BYTES, 8, 1),
    (SHARD_SEGMENT_BYTES + 1, 8, 2),
    (3 * SHARD_SEGMENT_BYTES, 8, 3),
    (100 * SHARD_SEGMENT_BYTES, 8, MAX_SHARDS),     # capped at MAX_SHARDS
    (100 * SHARD_SEGMENT_BYTES, 2, 2),              # capped at P
])
def test_shard_count_by_segment_bytes(tmp_path, total, parts, want):
    # the bytes split over the part files, plus files the rule ignores
    sizes = {f"part-{p:04d}.parquet": total // parts for p in range(parts)}
    sizes["part-0000.parquet"] += total % parts
    sizes["_SUCCESS"] = 50 * SHARD_SEGMENT_BYTES
    sizes["stats-0000.json"] = 50 * SHARD_SEGMENT_BYTES
    seg_bytes = _segment_bytes(_segments(tmp_path, sizes))
    assert seg_bytes == total
    assert shard_count(seg_bytes, parts) == want


def test_shard_count_explicit_wins(tmp_path):
    tiny = _segment_bytes(_segments(tmp_path, {"part-0000.parquet": 10}))
    assert shard_count(tiny, 8, num_shards=3) == 3
    assert shard_count(tiny, 8, num_shards=16) == 8    # capped at P


def test_default_engine_follows_the_rule(small_index):
    idx_dir, cfg = small_index
    eng = SearchEngine(idx_dir, prewarm_hot_terms=0)
    try:
        assert len(eng.shards) == shard_count(_segment_bytes(idx_dir),
                                              cfg.num_partitions)
        assert set(eng.part_to_shard) == set(range(cfg.num_partitions))
    finally:
        eng.shutdown()
        eng.shutdown()                       # idempotent
    assert eng.shards == [] and eng.part_to_shard == {}
    assert eng._pending == {}


def _open(idx_dir: str, actors: bool, **kw) -> SearchEngine:
    return (actor_engine if actors else SearchEngine)(idx_dir, **kw)


@pytest.fixture(scope="module", params=MODES,
                ids=lambda m: f"{'actor-' if m[0] else ''}"
                              f"shards={m[1] or 'default'}")
def sized_engine(request, small_index):
    idx_dir, _cfg = small_index
    actors, n = request.param
    eng = _open(idx_dir, actors, num_shards=n)
    assert eng._local is not actors
    yield eng
    eng.shutdown()


def test_search_over_shard_counts(sized_engine, oracle):
    """Rank identity vs the oracle (ids and bit-identical scores) for
    TAAT and WAND, unfiltered and filtered — so TAAT ≡ WAND and every
    shard count gives the same answer."""
    for query in QUERY_SET:
        for k in (1, 10, 100):
            exp = oracle.search(query, k=k)
            for strategy in ("taat", "wand"):
                got = _pairs(sized_engine.search(
                    query, k=k, with_meta=False, strategy=strategy))
                assert got == exp, (query, k, strategy)
    for flt in FILTERS[1:]:
        for query in ("error", "select union passwd"):
            exp = oracle.search(query, k=20, filters=flt)
            for strategy in ("taat", "wand"):
                got = _pairs(sized_engine.search(
                    query, k=20, filters=flt, with_meta=False,
                    strategy=strategy))
                assert got == exp, (query, flt, strategy)


def test_msearch_over_shard_counts(sized_engine, oracle):
    reqs = [{"text": q, "k": 7, **({"filters": f} if f else {})}
            for q in QUERY_SET[:6] for f in FILTERS[:2]]
    for strategy in (None, "wand"):
        batch = sized_engine.msearch(reqs, with_meta=False,
                                     strategy=strategy)
        qid = batch["query_id"].to_numpy(zero_copy_only=False)
        for i, r in enumerate(reqs):
            part = batch.filter(np.equal(qid, i))
            assert _pairs(part) == oracle.search(
                r["text"], k=7, filters=r.get("filters")), (i, strategy)


def test_bounded_equals_unbounded_over_shard_counts(sized_engine,
                                                    small_index):
    idx_dir, _cfg = small_index
    seg = os.path.join(idx_dir, "segments")
    cap = max(4096, sum(os.path.getsize(os.path.join(seg, f))
                        for f in os.listdir(seg)) // 8)
    bounded = _open(idx_dir, not sized_engine._local,
                    num_shards=len(sized_engine.shards),
                    prewarm_hot_terms=0, max_resident_bytes=cap)
    try:
        for query in QUERY_SET + ["zzz_nonexistent_term_q"]:
            for flt in FILTERS[:2]:
                for strategy in ("taat", "wand"):
                    a = sized_engine.search(query, k=20, filters=flt,
                                            with_meta=False,
                                            strategy=strategy)
                    b = bounded.search(query, k=20, filters=flt,
                                       with_meta=False, strategy=strategy)
                    assert a.to_pydict() == b.to_pydict(), \
                        (query, flt, strategy)
        assert bounded.cache_stats()["rg_loads"] > 0
    finally:
        bounded.shutdown()


def test_prewarm_does_not_block_cold_query(small_index, oracle):
    """A default engine fires its hot-term prewarm decodes at open
    through the shards' "prewarm" concurrency group; a query over terms
    outside that set is answered, correctly, before ``wait_prewarm``."""
    idx_dir, _cfg = small_index
    eng = SearchEngine(idx_dir, prewarm_hot_terms=64)
    try:
        assert eng._pending                      # prewarm in flight
        vocab = {t for q in QUERY_SET for t in q.split()}
        cold = sorted(t for t in vocab if t.isalpha()
                      and t not in eng._pending)[:3]
        assert cold
        text = " ".join(cold)
        got = _pairs(eng.search(text, k=10, with_meta=False))
        assert got and got == oracle.search(text, k=10)
        assert eng.wait_prewarm() > 0
        assert _pairs(eng.search(text, k=10, with_meta=False)) == got
    finally:
        eng.shutdown()


def _live_shard_actors() -> set:
    """Ids of the live IndexShard actors in the GCS actor table."""
    return {aid for aid, a in ray._private.state.actors().items()
            if a["ActorClassName"] == "IndexShard"
            and a["State"] != "DEAD"}


def test_small_index_serves_in_process(small_index, oracle):
    """A default engine over at most LOCAL_SEGMENT_BYTES of segments
    holds its shards in the driver: it starts no IndexShard actor, and
    after ``shutdown`` no pool thread runs and no shard object lives."""
    idx_dir, _cfg = small_index
    assert _segment_bytes(idx_dir) <= LOCAL_SEGMENT_BYTES
    actors = _live_shard_actors()
    threads = set(threading.enumerate())
    eng = SearchEngine(idx_dir)
    try:
        assert eng._local
        text = "authentication failure error"
        assert _pairs(eng.search(text, k=10, with_meta=False)) == \
            oracle.search(text, k=10)
        assert eng.wait_prewarm() > 0
        assert _live_shard_actors() <= actors
        threads = [t for t in set(threading.enumerate()) - threads
                   if t.name.startswith("IndexShard-")]
        assert threads
        shard = weakref.ref(eng._shard_objs[0])
    finally:
        eng.shutdown()
    gc.collect()
    assert not any(t.is_alive() for t in threads)
    assert shard() is None


def test_mode_follows_segment_bytes(small_index, monkeypatch):
    """In process up to LOCAL_SEGMENT_BYTES of segments inclusive, one
    IndexShard actor per shard above it."""
    idx_dir, _cfg = small_index
    seg_bytes = _segment_bytes(idx_dir)
    monkeypatch.setattr(shards, "LOCAL_SEGMENT_BYTES", seg_bytes)
    before = _live_shard_actors()
    eng = SearchEngine(idx_dir, num_shards=2, prewarm_hot_terms=0)
    try:
        assert eng._local and len(eng.shards) == 2
        assert _live_shard_actors() <= before
    finally:
        eng.shutdown()
    monkeypatch.setattr(shards, "LOCAL_SEGMENT_BYTES", seg_bytes - 1)
    eng = SearchEngine(idx_dir, num_shards=2, prewarm_hot_terms=0)
    try:
        assert not eng._local and len(eng.shards) == 2
        assert len(_live_shard_actors() - before) == 2
    finally:
        eng.shutdown()


def test_local_handles_answer_like_actors(small_index):
    """``shards`` / ``part_to_shard`` keep the actor-handle call form in
    process: ``ray.get(h.method.remote(...))``, with ``.options`` on a
    method, answers exactly as the actor does."""
    idx_dir, _cfg = small_index
    local = SearchEngine(idx_dir, num_shards=2, prewarm_hot_terms=0)
    actor = actor_engine(idx_dir, num_shards=2, prewarm_hot_terms=0)
    try:
        st = local.stats
        bm25 = (st["n_docs"], st["k1"], st["b"], st["avgdl"])
        for t in ("error", "lang:python", "zzz_nonexistent_term_q"):
            p = term_partition(t, local.P)
            a, b = local.part_to_shard[p], actor.part_to_shard[p]
            assert ray.get(a.term_dfs.remote([t])) == \
                ray.get(b.term_dfs.remote([t]))
            ra = ray.get(a.get_terms.remote([t]))
            rb = ray.get(b.get_terms.remote([t]))
            assert (ra is None and rb is None) or \
                ra.to_pylist() == rb.to_pylist()
            da = ray.get(a.decode_term.options(
                concurrency_group="prewarm").remote(t, *bm25))
            db = ray.get(b.decode_term.remote(t, *bm25))
            assert (da is None and db is None) or (
                da[0] == db[0] and np.array_equal(da[1], db[1])
                and np.array_equal(da[2], db[2]))
    finally:
        local.shutdown()
        actor.shutdown()


def test_in_process_shards_under_concurrent_calls(small_index):
    """In process, both thread pools and the caller share each shard: 8
    waves of decodes through a tiny byte-capped LRU at once, with the
    switch interval shortened, give the serial results, and the LRU
    ends consistent and within its cap."""
    import concurrent.futures as cf
    import sys

    idx_dir, _cfg = small_index
    cap = max(4096, _segment_bytes(idx_dir) // 8)
    eng = SearchEngine(idx_dir, num_shards=2, prewarm_hot_terms=0,
                       max_resident_bytes=cap)
    try:
        st = eng.stats
        bm25 = (int(st["n_docs"]), st["k1"], st["b"], st["avgdl"])
        terms = sorted({t for q in QUERY_SET for t in eng._toks(q)})
        want = {t: eng._owner(t).decode_term(t, *bm25) for t in terms}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            waves = [eng._term_refs("decode_term",
                                    dict.fromkeys(terms, bm25), group=g)
                     for g in (None, "prewarm") for _ in range(4)]
            done, pending = cf.wait([f for w in waves for f in w.values()],
                                    timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not pending
        for wave in waves:
            for t, f in wave.items():
                got, exp = f.result(), want[t]
                assert (got is None) == (exp is None), t
                if got is not None:
                    assert got[0] == exp[0], t
                    assert np.array_equal(got[1], exp[1]), t
                    assert np.array_equal(got[2], exp[2]), t
        for shard in eng._shard_objs:
            assert shard._rg_bytes == sum(
                t.nbytes for t in shard._rg_cache.values())
            assert shard._rg_bytes <= shard.max_resident
            assert len(shard._rg_cache) == \
                shard._rg_loads - shard._rg_evictions
    finally:
        eng.shutdown()


@pytest.fixture(scope="module")
def unicode_index(ray_session, tmp_path_factory):
    """A small index whose repo names — and so its ``repo:`` field
    terms — are non-ASCII."""
    import pyarrow as pa
    import ray.data as rd

    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index.build import build_index

    tbl = generate_corpus(CorpusConfig(n_docs=120))
    names = ["org/café", "org/日本語", "org/Straße", "org/zzz", "org/ämbar"]
    repos = [names[i % len(names)] for i in range(tbl.num_rows)]
    tbl = tbl.set_column(tbl.schema.get_field_index("repo"), "repo",
                         pa.array(repos, pa.string()))
    idx = str(tmp_path_factory.mktemp("unicode") / "idx")
    build_index(rd.from_arrow(tbl), idx,
                IndexConfig(num_partitions=8, salt_buckets=2,
                            block_size=32), corpus_tag="unicode120")
    return idx, names


def _part_rows(idx: str) -> dict[str, dict]:
    """The reference dictionary: every term of the index's part files ->
    its full segment row, read straight from the files."""
    import glob

    import pyarrow.parquet as pq

    return {r["term"]: r
            for f in sorted(glob.glob(f"{idx}/segments/part-*.parquet"))
            for r in pq.read_table(f).to_pylist()}


def _check_lookups(eng: SearchEngine, rows: dict, absent: list[str]) -> None:
    """``_term_dfs``, each shard's ``term_dfs`` and ``get_terms`` against
    the reference rows, for every term plus ``absent``: a shard finds
    exactly the terms of the partitions it owns, with their part-file
    df and row, and nothing else."""
    terms = sorted(rows) + absent
    want = {t: rows[t]["df"] if t in rows else 0 for t in terms}
    assert eng._term_dfs(terms) == want
    for shard in eng.shards:
        mine = {t for t in rows if eng.part_to_shard[
            term_partition(t, eng.P)] is shard}
        assert ray.get(shard.term_dfs.remote(terms)) == \
            {t: rows[t]["df"] for t in mine}
        got = ray.get(shard.get_terms.remote(terms))
        got = {} if got is None else {r["term"]: r for r in got.to_pylist()}
        assert got == {t: rows[t] for t in mine}
    for t in absent:          # one term through its owner, alone
        owner = eng.part_to_shard[term_partition(t, eng.P)]
        assert ray.get(owner.get_terms.remote([t])) is None, t


@pytest.mark.parametrize("num_shards", [1, 4])
def test_bounded_lookup_matches_default(unicode_index, num_shards):
    """Lookups binary-search only the sorted term column of the term's
    partition: capped or not, they agree with the part files on every
    present term, on absent and non-ASCII terms, and a shard asked for
    a term of a partition it does not own finds nothing."""
    idx, names = unicode_index
    rows = _part_rows(idx)
    assert {f"repo:{n}" for n in names} | {"error", "lang:python"} \
        <= set(rows)
    absent = ["zzz_nonexistent_term_q", "repo:org/cafe", "日本語",
              "repo:org/日本", "", "\uffff"]
    assert not set(absent) & set(rows)
    for cap in (None, 4096):
        eng = SearchEngine(idx, num_shards=num_shards, prewarm_hot_terms=0,
                           max_resident_bytes=cap)
        try:
            _check_lookups(eng, rows, absent)
        finally:
            eng.shutdown()


_PREFIX_REPOS = ["org/a", "org/ab", "org/abc", "org/é", "org/éa", "org/éé",
                 "org/日", "org/日本", "org/日a", "org/𝄞", "org/𝄞𝄞",
                 "org/😀x", "org/z", "org/\x7f"]


@pytest.fixture(scope="module")
def prefix_index(ray_session, tmp_path_factory):
    """One term partition holding repo terms that share prefixes and end
    in 1-, 2-, 3- and 4-byte UTF-8 code points, so every bounded lookup
    binary-searches them all in one column."""
    import pyarrow as pa
    import ray.data as rd

    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index.build import build_index

    tbl = generate_corpus(CorpusConfig(n_docs=140))
    repos = [_PREFIX_REPOS[i % len(_PREFIX_REPOS)]
             for i in range(tbl.num_rows)]
    tbl = tbl.set_column(tbl.schema.get_field_index("repo"), "repo",
                         pa.array(repos, pa.string()))
    idx = str(tmp_path_factory.mktemp("prefix") / "idx")
    build_index(rd.from_arrow(tbl), idx,
                IndexConfig(num_partitions=1, salt_buckets=2,
                            block_size=32), corpus_tag="prefix140")
    return idx


def test_bounded_lookup_shared_prefixes_multibyte(prefix_index):
    """Byte-wise binary search agrees with the part file on every term
    of the partition and on absent neighbours of the repo terms: a
    prefix, an extension by a 1- to 4-byte code point, and the next
    code point in the last place."""
    rows = _part_rows(prefix_index)
    vocab = list(rows)
    assert vocab == sorted(vocab)
    present = [f"repo:{r}" for r in _PREFIX_REPOS]
    assert set(present) <= set(vocab)
    absent = {"repo:org/", "repo:org/abcd", "repo:org/aé",
              "repo:org/日本語", "repo:org/𝄞a", "repo:org/😀",
              "repo:org/ac", "repo:org/ê", "repo:org/日b",
              "repo:org/😁", "repo:org/\x7f\x7f", "repo:", "~"}
    absent |= {t[:-1] + chr(ord(t[-1]) + 1) for t in present}
    absent -= set(vocab)
    for cap in (None, 4096):
        eng = SearchEngine(prefix_index, num_shards=1, prewarm_hot_terms=0,
                           max_resident_bytes=cap)
        try:
            _check_lookups(eng, rows, sorted(absent))
        finally:
            eng.shutdown()
