"""Phrase search (positional sidecar) tests: engine vs a brute-force
token-scan oracle, chunked verification, incremental updates, and the
no-positions error path."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logsentinelai_ray.analysis.tokenizer import tokenize_py


def _brute_counts(docs, phrase):
    """(doc_id -> overlapping match count) by scanning every token list."""
    pt = tokenize_py(phrase)
    out = {}
    for doc_id, content in docs:
        toks = tokenize_py(content)
        c = sum(1 for i in range(len(toks) - len(pt) + 1)
                if toks[i:i + len(pt)] == pt)
        if c:
            out[doc_id] = c
    return out


@pytest.fixture(scope="module")
def indexed_docs(small_index):
    idx_dir, _cfg = small_index
    tbl = pq.read_table(f"{idx_dir}/docs", columns=["doc_id", "content"])
    return list(zip(tbl["doc_id"].to_pylist(), tbl["content"].to_pylist()))


def _sample_phrases(indexed_docs):
    """Bigrams/trigram drawn from real documents (so matches exist), plus
    a repeated-token bigram if one occurs anywhere."""
    phrases = []
    for _d, content in indexed_docs[:8]:
        toks = tokenize_py(content)
        if len(toks) >= 8:
            phrases.append(" ".join(toks[3:5]))
            phrases.append(" ".join(toks[2:5]))
    for _d, content in indexed_docs:
        toks = tokenize_py(content)
        rep = next((t for a, t in zip(toks, toks[1:]) if a == t), None)
        if rep:
            phrases.append(f"{rep} {rep}")
            break
    return sorted(set(phrases))[:8]


def test_phrase_match_vs_bruteforce(engine, indexed_docs):
    for phrase in _sample_phrases(indexed_docs):
        exp = _brute_counts(indexed_docs, phrase)
        got_tbl = engine.phrase_match(phrase)
        got = dict(zip(got_tbl["doc_id"].to_pylist(),
                       got_tbl["n_matches"].to_pylist()))
        assert got == exp, phrase
        # sorted by doc_id
        ids = got_tbl["doc_id"].to_pylist()
        assert ids == sorted(ids)


def test_phrase_single_term_equals_tf(engine, indexed_docs):
    """A one-term 'phrase' must count every occurrence (== tf)."""
    term = tokenize_py(indexed_docs[0][1])[0]
    exp = _brute_counts(indexed_docs, term)
    got_tbl = engine.phrase_match(term)
    got = dict(zip(got_tbl["doc_id"].to_pylist(),
                   got_tbl["n_matches"].to_pylist()))
    assert got == exp


def test_phrase_absent_term_is_empty(engine):
    res = engine.phrase_match("zzznosuchtoken qqqneither")
    assert res.num_rows == 0
    assert res.schema.names == ["doc_id", "n_matches"]


def test_phrase_chunked_verification_identical(engine, indexed_docs):
    """Tiny chunk_docs forces many verify tasks; results must not change."""
    phrase = _sample_phrases(indexed_docs)[0]
    a = engine.phrase_match(phrase, chunk_docs=4)
    b = engine.phrase_match(phrase, chunk_docs=10 ** 9)
    assert a.equals(b)


def test_phrase_range_plan_matches_candidate_plan(engine, indexed_docs):
    """candidate_max_df=0 forces the range plan (no posting decode, pure
    sidecar conjunction); results must be identical to the default."""
    for phrase in _sample_phrases(indexed_docs)[:4]:
        a = engine.phrase_match(phrase)
        b = engine.phrase_match(phrase, candidate_max_df=0)
        assert a.equals(b), phrase
        c = engine.phrase_match(phrase, candidate_max_df=0, chunk_docs=16)
        assert a.equals(c), phrase


def test_phrase_topk_block_scorer_matches_taat(engine, indexed_docs):
    """Forcing the scale path (block-targeted scoring instead of the
    TAAT accumulator) must give bit-identical top-k."""
    phrase = _sample_phrases(indexed_docs)[0]
    a = engine.phrase_topk(phrase, k=10)
    saved = engine.taat_max_docs
    try:
        engine.taat_max_docs = 0
        b = engine.phrase_topk(phrase, k=10)
    finally:
        engine.taat_max_docs = saved
    assert a.equals(b)


def test_phrase_topk_scores_match_plain_search(engine, indexed_docs):
    """phrase_topk == plain multi-term BM25 restricted to phrase docs."""
    phrase = _sample_phrases(indexed_docs)[0]
    match_ids = set(engine.phrase_match(phrase)["doc_id"].to_pylist())
    if not match_ids:
        pytest.skip("sampled phrase matched nothing")
    res = engine.phrase_topk(phrase, k=10)
    full = engine.search(phrase, k=10 ** 6, with_meta=False)
    by_id = dict(zip(full["doc_id"].to_pylist(),
                     full["score"].to_pylist()))
    expect = sorted(((by_id[d], -d) for d in match_ids),
                    reverse=True)[:10]
    got = list(zip(res["score"].to_pylist(),
                   (-d for d in res["doc_id"].to_pylist())))
    assert got == expect


def test_phrase_prefix_vs_bruteforce(engine, indexed_docs):
    """match_phrase_prefix == brute force with an uncapped expansion."""
    lead = None
    for _d, content in indexed_docs:
        toks = tokenize_py(content)
        if len(toks) >= 2:
            lead, nxt = toks[0], toks[1]
            break
    assert lead is not None
    for plen in (1, 2, len(nxt)):
        prefix = nxt[:plen]
        got_tbl = engine.phrase_prefix_match(f"{lead} {prefix}",
                                             max_expansions=10 ** 6)
        got = dict(zip(got_tbl["doc_id"].to_pylist(),
                       got_tbl["n_matches"].to_pylist()))
        exp = {}
        for d, content in indexed_docs:
            toks = tokenize_py(content)
            c = sum(1 for i in range(len(toks) - 1)
                    if toks[i] == lead and toks[i + 1].startswith(prefix))
            if c:
                exp[d] = c
        assert got == exp, (lead, prefix)


def test_phrase_prefix_plans_agree(engine, indexed_docs):
    lead = tokenize_py(indexed_docs[0][1])[0]
    a = engine.phrase_prefix_match(f"{lead} a", max_expansions=10 ** 6)
    b = engine.phrase_prefix_match(f"{lead} a", max_expansions=10 ** 6,
                                   chunk_docs=16)
    assert a.equals(b)


def test_proximity_vs_bruteforce(engine, indexed_docs):
    toks0 = tokenize_py(indexed_docs[0][1])
    pairs = [(toks0[0], toks0[1]), (toks0[2], toks0[0])]
    for t1, t2 in pairs:
        if t1 == t2:
            continue
        for w in (1, 3, 10):
            got_tbl = engine.proximity_match(t1, t2, window=w)
            got = dict(zip(got_tbl["doc_id"].to_pylist(),
                           got_tbl["n_matches"].to_pylist()))
            exp = {}
            for d, content in indexed_docs:
                toks = tokenize_py(content)
                p1 = [i for i, t in enumerate(toks) if t == t1]
                p2 = [i for i, t in enumerate(toks) if t == t2]
                c = sum(1 for x in p1 for y in p2 if abs(x - y) <= w)
                if c:
                    exp[d] = c
            assert got == exp, (t1, t2, w)


def test_proximity_rejects_bad_args(engine):
    import pytest as _pt

    with _pt.raises(ValueError):
        engine.proximity_match("same", "same")
    with _pt.raises(ValueError):
        engine.proximity_match("two words", "other")
    with _pt.raises(ValueError):
        engine.proximity_match("a", "b", window=0)


def test_phrase_requires_positions(ray_session, small_corpus, tmp_path):
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.shards import SearchEngine

    cfg = IndexConfig(num_partitions=4, salt_buckets=2)
    idx = str(tmp_path / "nopos")
    build_index(rd.from_arrow(small_corpus.slice(0, 40)), idx, cfg,
                corpus_tag="nopos40")
    eng = SearchEngine(idx, num_shards=1)
    with pytest.raises(ValueError, match="store_positions"):
        eng.phrase_match("anything here")
    eng.shutdown()


def test_positions_stage_resumes(ray_session, small_corpus, tmp_path,
                                monkeypatch):
    """Killing the build after segments but before positions must
    resume with ONLY the positions stage re-running, and phrase results
    must be identical to an unbroken build."""
    import os

    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import build
    from logsentinelai_ray.index import manifest as mf
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.shards import SearchEngine

    cfg = IndexConfig(num_partitions=4, salt_buckets=2,
                      store_positions=True)
    idx = str(tmp_path / "resume")
    with monkeypatch.context() as m:  # killed before the exchange drop
        m.setattr(build, "_drop_exchange", lambda index_dir: None)
        build_index(rd.from_arrow(small_corpus.slice(0, 60)), idx, cfg,
                    corpus_tag="res60")
    eng = SearchEngine(idx, num_shards=1)
    toks = tokenize_py(small_corpus["content"][0].as_py())
    phrase = " ".join(toks[1:3])
    before = eng.phrase_match(phrase)
    eng.shutdown()

    # simulate the crash: positions stage marker + one part file gone
    os.remove(os.path.join(idx, "positions", "_SUCCESS"))
    os.remove(os.path.join(idx, "positions", "part=1",
                           "base-00.parquet"))
    meta = build_index(rd.from_arrow(small_corpus.slice(0, 60)), idx,
                       cfg, corpus_tag="res60")
    # resume re-ran positions only: no prep/emit timings in this run
    assert "prep_docs_s" not in meta["timings"]
    assert "emit_postings_s" not in meta["timings"]
    assert "positions_s" in meta["timings"]
    assert mf.stage_done(idx, "positions")
    eng2 = SearchEngine(idx, num_shards=1)
    assert eng2.phrase_match(phrase).equals(before)
    eng2.shutdown()


def test_phrase_after_incremental_update(ray_session, small_corpus,
                                         tmp_path):
    """Positions sidecar must stay exact through update_index: phrase
    results over base+delta == phrase results over a full build."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.update import update_index
    from logsentinelai_ray.query.shards import SearchEngine

    cfg = IndexConfig(num_partitions=4, salt_buckets=2,
                      store_positions=True)
    n = small_corpus.num_rows
    half = n // 2
    base_dir = tmp_path / "base"
    delta_dir = tmp_path / "delta"
    base_dir.mkdir()
    delta_dir.mkdir()
    pq.write_table(small_corpus.slice(0, half),
                   str(base_dir / "part-0.parquet"))
    pq.write_table(small_corpus.slice(half),
                   str(delta_dir / "part-0.parquet"))

    idx_inc = str(tmp_path / "idx_inc")
    build_index(str(base_dir), idx_inc, cfg, corpus_tag="ph-base")
    update_index(str(delta_dir), idx_inc, cfg, delta_tag="ph-delta")

    idx_full = str(tmp_path / "idx_full")
    build_index(rd.from_arrow(small_corpus), idx_full, cfg,
                corpus_tag="ph-full")

    eng_inc = SearchEngine(idx_inc, num_shards=1)
    eng_full = SearchEngine(idx_full, num_shards=1)
    docs_inc = pq.read_table(f"{idx_inc}/docs",
                             columns=["doc_id", "content", "sha256"])
    docs = list(zip(docs_inc["doc_id"].to_pylist(),
                    docs_inc["content"].to_pylist()))
    sha_inc = dict(zip(docs_inc["doc_id"].to_pylist(),
                       docs_inc["sha256"].to_pylist()))
    docs_full = pq.read_table(f"{idx_full}/docs",
                              columns=["doc_id", "sha256"])
    sha_full = dict(zip(docs_full["doc_id"].to_pylist(),
                        docs_full["sha256"].to_pylist()))
    phrases = _sample_phrases(docs)
    for phrase in phrases[:4]:
        got = eng_inc.phrase_match(phrase)
        exp = _brute_counts(docs, phrase)
        assert dict(zip(got["doc_id"].to_pylist(),
                        got["n_matches"].to_pylist())) == exp, phrase
        # doc ids differ between a base+delta build and a full build
        # (sorted-rank vs base-then-delta assignment); the *documents*
        # matched must be identical — compare keyed by content sha
        full = eng_full.phrase_match(phrase)
        by_sha_inc = {sha_inc[d]: n for d, n in
                      zip(got["doc_id"].to_pylist(),
                          got["n_matches"].to_pylist())}
        by_sha_full = {sha_full[d]: n for d, n in
                       zip(full["doc_id"].to_pylist(),
                           full["n_matches"].to_pylist())}
        assert by_sha_inc == by_sha_full, phrase
    eng_inc.shutdown()
    eng_full.shutdown()


def test_intervals_ordered_vs_bruteforce(engine, indexed_docs):
    toks0 = tokenize_py(indexed_docs[0][1])
    pairs = [(toks0[0], toks0[1]), (toks0[2], toks0[0])]
    for t1, t2 in pairs:
        if t1 == t2:
            continue
        for g in (0, 2, 10):
            got_tbl = engine.intervals_match(t1, t2, max_gaps=g)
            got = dict(zip(got_tbl["doc_id"].to_pylist(),
                           got_tbl["n_matches"].to_pylist()))
            exp = {}
            for d, content in indexed_docs:
                toks = tokenize_py(content)
                p1 = [i for i, t in enumerate(toks) if t == t1]
                p2 = [i for i, t in enumerate(toks) if t == t2]
                c = sum(1 for x in p1 for y in p2
                        if 1 <= y - x <= g + 1)
                if c:
                    exp[d] = c
            assert got == exp, (t1, t2, g)


def test_intervals_ordered_asymmetry_and_gap_zero(engine, indexed_docs):
    """ordered(a,b) + ordered(b,a) pair counts must equal the unordered
    window count at the same distance bound; max_gaps=0 equals the
    adjacent-bigram phrase count."""
    toks0 = tokenize_py(indexed_docs[0][1])
    t1, t2 = toks0[0], toks0[1]
    if t1 != t2:
        w = 4
        uno = engine.proximity_match(t1, t2, window=w)
        fwd = engine.intervals_match(t1, t2, max_gaps=w - 1)
        rev = engine.intervals_match(t2, t1, max_gaps=w - 1)
        tot = {}
        for tbl in (fwd, rev):
            for d, n in zip(tbl["doc_id"].to_pylist(),
                            tbl["n_matches"].to_pylist()):
                tot[d] = tot.get(d, 0) + n
        exp = dict(zip(uno["doc_id"].to_pylist(),
                       uno["n_matches"].to_pylist()))
        assert tot == exp

        adj = engine.intervals_match(t1, t2, max_gaps=0)
        ph = engine.phrase_match(f"{t1} {t2}")
        assert (dict(zip(adj["doc_id"].to_pylist(),
                         adj["n_matches"].to_pylist()))
                == dict(zip(ph["doc_id"].to_pylist(),
                            ph["n_matches"].to_pylist())))


def test_wildcard_search_equals_expanded_terms(engine, indexed_docs):
    """wildcard_search must equal a plain multi-term search over the
    terms its pattern expands to, and reject all-wildcard patterns."""
    import pytest as _pt

    toks0 = tokenize_py(indexed_docs[0][1])
    seed = next(t for t in toks0 if len(t) >= 3)
    pattern = f"*{seed[1:-1]}*"
    res = engine.wildcard_search(pattern, k=10)
    rx = ".*" + "".join(c for c in seed[1:-1]) + ".*"
    exp_terms = engine.expand_regex(rx)["term"].to_pylist()
    assert exp_terms, pattern
    explicit = engine.search(" ".join(sorted(exp_terms)), k=10,
                             unique_terms=True) \
        if "unique_terms" in engine.search.__code__.co_varnames \
        else engine.search(" ".join(sorted(set(exp_terms))), k=10)
    assert res["doc_id"].to_pylist() == explicit["doc_id"].to_pylist()
    assert res["score"].to_pylist() == explicit["score"].to_pylist()

    with _pt.raises(ValueError):
        engine.wildcard_search("**")


def test_phrase_slop_vs_bruteforce(engine, indexed_docs):
    """slop mode == the Lucene two-term sloppy distance |j-i-1| <= slop,
    brute-forced from raw token positions; slop=0 equals the adjacent
    phrase count, and a reversed adjacent pair first matches at slop 2."""
    toks0 = tokenize_py(indexed_docs[0][1])
    t1, t2 = toks0[0], toks0[1]
    if t1 == t2:
        t2 = next(t for t in toks0 if t != t1)
    for slop in (0, 1, 2, 4):
        got = engine.phrase_slop_match(t1, t2, slop=slop)
        exp = {}
        for d, text in indexed_docs:
            toks = tokenize_py(text)
            p1 = [i for i, t in enumerate(toks) if t == t1]
            p2 = [i for i, t in enumerate(toks) if t == t2]
            n = sum(1 for i in p1 for j in p2 if abs(j - i - 1) <= slop)
            if n:
                exp[d] = n
        assert dict(zip(got["doc_id"].to_pylist(),
                        got["n_matches"].to_pylist())) == exp, slop

    adj = engine.phrase_slop_match(t1, t2, slop=0)
    ph = engine.phrase_match(f"{t1} {t2}")
    assert (dict(zip(adj["doc_id"].to_pylist(),
                     adj["n_matches"].to_pylist()))
            == dict(zip(ph["doc_id"].to_pylist(),
                        ph["n_matches"].to_pylist())))
