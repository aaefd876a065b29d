"""ES-API-parity surface: _count, search_after pagination,
more_like_this — vs brute force / the engine's own top-k."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from logsentinelai_ray.analysis.tokenizer import tokenize_py


@pytest.fixture(scope="module")
def doc_tokens(small_index):
    idx_dir, _cfg = small_index
    tbl = pq.read_table(f"{idx_dir}/docs", columns=["doc_id", "content"])
    return [(d, tokenize_py(c)) for d, c in
            zip(tbl["doc_id"].to_pylist(), tbl["content"].to_pylist())]


def test_match_count_vs_bruteforce(engine, doc_tokens):
    toks0 = doc_tokens[0][1]
    text = f"{toks0[0]} {toks0[3]} zzzmissing"
    qs = set(tokenize_py(text))
    exp = sum(1 for _d, toks in doc_tokens if qs & set(toks))
    assert engine.match_count(text) == exp
    assert engine.match_count("zzzmissing qqqalsomissing") == 0


def test_search_after_pages_equal_topk(engine, doc_tokens):
    """Paging through with search_after must reproduce one big top-k,
    scores bit-identical."""
    toks0 = doc_tokens[0][1]
    text = " ".join(toks0[:4])
    full = engine.search(text, k=50, with_meta=False)
    pages = []
    cursor = None
    while len(pages) * 10 < full.num_rows:
        page = engine.search_after(text, k=10, after=cursor)
        if page.num_rows == 0:
            break
        pages.append(page)
        cursor = (page["score"][page.num_rows - 1].as_py(),
                  page["doc_id"][page.num_rows - 1].as_py())
    got_ids = [d for p in pages for d in p["doc_id"].to_pylist()][:50]
    got_scores = [s for p in pages for s in p["score"].to_pylist()][:50]
    assert got_ids == full["doc_id"].to_pylist()
    assert got_scores == full["score"].to_pylist()


def test_search_after_wand_equals_taat(engine, doc_tokens):
    """Deep pagination on the no-N-accumulator path: forced capped-score
    WAND must walk the exact same pages as the TAAT cursor predicate —
    bit-identical scores, through page exhaustion."""
    toks0 = doc_tokens[0][1]
    text = " ".join(toks0[:4])
    cursor = None
    pages = 0
    while True:
        pt = engine.search_after(text, k=7, after=cursor, strategy="taat")
        pw = engine.search_after(text, k=7, after=cursor, strategy="wand")
        assert pt["doc_id"].to_pylist() == pw["doc_id"].to_pylist(), pages
        assert pt["score"].to_pylist() == pw["score"].to_pylist(), pages
        if pt.num_rows < 7 or pages > 30:
            break
        cursor = (pt["score"][6].as_py(), pt["doc_id"][6].as_py())
        pages += 1
    assert pages >= 1  # the query must actually paginate


def test_search_after_none_is_page_one(engine, doc_tokens):
    text = " ".join(doc_tokens[0][1][:3])
    a = engine.search_after(text, k=10)
    b = engine.search(text, k=10, with_meta=False, strategy="taat")
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_more_like_this_excludes_source(engine, doc_tokens):
    src = doc_tokens[0][0]
    res = engine.more_like_this(src, max_terms=5, k=20)
    assert src not in res["doc_id"].to_pylist()
    assert res.num_rows > 0


def test_more_like_this_equals_manual_query(engine, doc_tokens):
    """MLT == plain search over the doc's top tf*idf terms, minus the
    source doc."""
    from logsentinelai_ray.query.bm25 import bm25_idf

    src, toks = doc_tokens[0]
    n = len(doc_tokens)
    df = {}
    for _d, ts in doc_tokens:
        for t in set(ts):
            df[t] = df.get(t, 0) + 1
    tf = {}
    for t in toks:
        tf[t] = tf.get(t, 0) + 1
    ranked = sorted(tf, key=lambda t: (-tf[t] * bm25_idf(n, df[t]), t))
    terms = sorted(ranked[:5])
    res = engine.more_like_this(src, max_terms=5, k=15)
    manual = engine.search(" ".join(terms), k=10 ** 6, with_meta=False)
    exp = [(d, s) for d, s in zip(manual["doc_id"].to_pylist(),
                                  manual["score"].to_pylist())
           if d != src][:15]
    got = list(zip(res["doc_id"].to_pylist(), res["score"].to_pylist()))
    assert got == exp


def test_more_like_this_unknown_doc(engine):
    with pytest.raises(KeyError):
        engine.more_like_this(10 ** 12)


def test_multifield_search_vs_bruteforce(engine, small_index):
    """search_fields == hand-computed content BM25 + boost*path BM25
    with per-field avgdl."""
    import math

    import pyarrow.parquet as pq

    idx_dir, _cfg = small_index
    docs = pq.read_table(f"{idx_dir}/docs",
                         columns=["doc_id", "path", "content"])
    rows = list(zip(docs["doc_id"].to_pylist(),
                    docs["path"].to_pylist(),
                    docs["content"].to_pylist()))
    n = len(rows)
    ctoks = {d: tokenize_py(c) for d, _p, c in rows}
    ptoks = {d: tokenize_py(p) for d, p, _c in rows}

    def bm25(tokmap, qterms):
        avgdl = sum(len(v) for v in tokmap.values()) / n
        df = {}
        for ts in tokmap.values():
            for t in set(ts):
                df[t] = df.get(t, 0) + 1
        out = {}
        for d, ts in tokmap.items():
            s = 0.0
            for t in sorted(set(qterms)):
                if t not in df or t not in ts:
                    continue
                tf = float(ts.count(t))
                idf = math.log(1 + (n - df[t] + 0.5) / (df[t] + 0.5))
                dl = float(len(ts))
                s += idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75
                                                   * dl / avgdl))
            if s:
                out[d] = s
        return out

    cq, pq_text, boost = "error merge", "py main", 2.0
    cs = bm25(ctoks, tokenize_py(cq))
    ps = bm25(ptoks, tokenize_py(pq_text))
    total = {}
    for d in set(cs) | set(ps):
        total[d] = cs.get(d, 0.0) + boost * ps.get(d, 0.0)
    exp = sorted(((s, -d) for d, s in total.items()), reverse=True)[:15]
    res = engine.search_fields(cq, pq_text, path_boost=boost, k=15)
    got = list(zip(res["score"].to_pylist(),
                   (-d for d in res["doc_id"].to_pylist())))
    assert [(round(s, 9), d) for s, d in got] == \
        [(round(s, 9), d) for s, d in exp]


def test_multifield_taat_equals_wand(engine):
    """Mixed-field WAND (per-field avgdl, boosted cursors) must be
    bit-identical to the TAAT accumulator."""
    for cq, pq_text, boost in (("error merge", "py main", 2.0),
                               ("authentication failure", "md", 0.5),
                               ("", "py", 3.0)):
        a = engine.search_fields(cq, pq_text, path_boost=boost, k=25,
                                 strategy="taat")
        b = engine.search_fields(cq, pq_text, path_boost=boost, k=25,
                                 strategy="wand")
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), \
            (cq, pq_text)
        assert a["score"].to_pylist() == b["score"].to_pylist(), \
            (cq, pq_text)


def test_multifield_requires_path_index(ray_session, small_corpus,
                                        tmp_path):
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.shards import SearchEngine

    idx = str(tmp_path / "nopath")
    build_index(rd.from_arrow(small_corpus.slice(0, 30)), idx,
                IndexConfig(num_partitions=4, salt_buckets=2),
                corpus_tag="nopath30")
    eng = SearchEngine(idx, num_shards=1)
    with pytest.raises(ValueError, match="path field"):
        eng.search_fields("error", "py")
    # content-only use of search_fields still works
    r = eng.search_fields("error", "", k=5)
    assert r.num_rows > 0
    eng.shutdown()


def test_msearch_equals_sequential_search(engine, doc_tokens):
    """msearch must equal issuing each query separately (same exact
    paths, warm-cache prefetch is a pure optimization), per query_id."""
    toks0 = doc_tokens[0][1]
    reqs = [{"text": " ".join(toks0[:3]), "k": 7},
            {"text": f"{toks0[0]} zzzmissing", "k": 5},
            {"text": "zzzmissing qqqalsomissing", "k": 5}]
    batch = engine.msearch(reqs, with_meta=False)
    for qid, r in enumerate(reqs):
        solo = engine.search(r["text"], k=r["k"], with_meta=False)
        part = batch.filter(
            np.equal(batch["query_id"].to_numpy(zero_copy_only=False), qid))
        assert part["doc_id"].to_pylist() == solo["doc_id"].to_pylist()
        assert part["score"].to_pylist() == solo["score"].to_pylist()


def test_msearch_threaded_with_filters_and_meta(engine, doc_tokens):
    """The threaded batch path must stay bit-identical under per-request
    filters, metadata joins, and forced strategies (filters resolve
    serially before scoring fans out; WAND requests take the serial
    path)."""
    toks0 = doc_tokens[0][1]
    reqs = [{"text": " ".join(toks0[:3]), "k": 7,
             "filters": {"lang": "python"}},
            {"text": " ".join(toks0[:2]), "k": 5},
            {"text": toks0[0], "k": 5, "filters": {"lang": "go"}}]
    for strategy in (None, "taat", "wand"):
        for with_meta in (False, True):
            batch = engine.msearch(reqs, with_meta=with_meta,
                                   strategy=strategy)
            for qid, r in enumerate(reqs):
                solo = engine.search(r["text"], k=r["k"],
                                     filters=r.get("filters"),
                                     with_meta=with_meta,
                                     strategy=strategy)
                part = batch.filter(np.equal(
                    batch["query_id"].to_numpy(zero_copy_only=False),
                    qid)).drop_columns(["query_id"])
                assert part.to_pydict() == solo.to_pydict(), \
                    (qid, strategy, with_meta)


def test_dense_hot_term_rows_bit_identical(engine, doc_tokens):
    """Mega-hot terms (df >= n/4) score through a cached dense
    contribution row (sequential axpy) — results must be bit-identical
    to scatter accumulation, since adding 0.0 where the term is absent
    is an IEEE no-op for positive contribs."""
    hot = doc_tokens[0][1][0]
    res = engine.search(hot, k=20, with_meta=False)
    if hot not in engine._dense_rows:
        pytest.skip("term not hot enough in this fixture corpus")
    ids, contrib, _df = engine._contrib_cache[hot]
    n = int(engine.stats["n_docs"])
    acc = np.zeros(n)
    acc[ids] += contrib
    dense = engine._dense_rows[hot]
    assert np.array_equal(acc, dense)
    # scores returned match the scatter formulation exactly
    for d, s in zip(res["doc_id"].to_pylist(),
                    res["score"].to_pylist()):
        assert s == acc[d]


def test_msearch_property_equivalence(engine, doc_tokens):
    """Property check over generated request batches: for ANY mix of
    real tokens, absent terms, duplicate queries, varied k, and
    filters, the threaded batch path must equal per-query search
    bit-for-bit (hypothesis drives the mix; the engine fixture is
    module-scoped so the corpus stays fixed)."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    vocab = sorted({t for _d, toks in doc_tokens for t in toks[:6]})[:40]
    word = st.sampled_from(vocab + ["zzzmissing", "qqqnope"])
    req = st.builds(
        lambda ws, k, f: {"text": " ".join(ws), "k": k,
                          **({"filters": {"lang": f}} if f else {})},
        st.lists(word, min_size=1, max_size=4),
        st.integers(min_value=1, max_value=15),
        st.sampled_from([None, "python", "go"]))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(reqs=st.lists(req, min_size=1, max_size=6))
    def check(reqs):
        for strategy in (None, "wand"):
            batch = engine.msearch(reqs, with_meta=False,
                                   strategy=strategy)
            for qid, r in enumerate(reqs):
                solo = engine.search(r["text"], k=r["k"],
                                     filters=r.get("filters"),
                                     with_meta=False,
                                     strategy=strategy)
                part = batch.filter(np.equal(
                    batch["query_id"].to_numpy(zero_copy_only=False),
                    qid)).drop_columns(["query_id"])
                assert part.to_pydict() == solo.to_pydict(), \
                    (qid, strategy, r)

    check()


def test_query_string_equals_boolean_search(engine, doc_tokens):
    """A query_string with only +must / -not / bare-should clauses must
    reproduce boolean_search exactly (same composition, same scorer)."""
    t0, t1 = doc_tokens[0][1][0], doc_tokens[0][1][3]
    nt = doc_tokens[5][1][1]
    a = engine.query_string(f"+{t0} +{t1} -{nt} error", k=10)
    b = engine.boolean_search(must=f"{t0} {t1}", should="error",
                              must_not=nt, k=10)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # non-vacuous without the exclusion
    assert engine.query_string(f"+{t0} +{t1} error", k=10).num_rows > 0


def test_query_string_phrase_and_filter_narrow(engine, doc_tokens):
    """Adding a phrase clause and a field filter can only narrow the
    bool result; every survivor contains the phrase and the filter
    value."""
    t0, t1 = doc_tokens[0][1][0], doc_tokens[0][1][1]
    base = engine.query_string(f"+{t0} error", k=1000)
    narrowed = engine.query_string(f'+{t0} error "{t0} {t1}"', k=1000)
    assert narrowed.num_rows > 0  # doc 0 contains the phrase
    assert set(narrowed["doc_id"].to_pylist()) <= \
        set(base["doc_id"].to_pylist())
    ph = set(engine.phrase_match(f"{t0} {t1}")["doc_id"].to_pylist())
    assert set(narrowed["doc_id"].to_pylist()) <= ph


def test_query_string_pure_should_matches_any(engine, doc_tokens):
    """With no must/phrase clause, any should term matches (ES bool
    semantics) — equals a plain search over the same terms."""
    a = engine.query_string("authentication failure", k=10)
    b = engine.search("authentication failure", k=10, with_meta=False,
                      strategy="taat")
    assert a.num_rows > 0
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_function_score_unit_weights_is_plain_search(engine):
    a = engine.function_score_search("authentication failure",
                                     weights={"lang": {"python": 1.0}},
                                     k=10)
    b = engine.search("authentication failure", k=10, with_meta=False,
                      strategy="taat")
    assert a.num_rows > 0
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_function_score_weights_rerank(engine, small_index):
    """Weighted docs' scores scale by exactly the weight; the weighted
    ranking equals brute-force reweighting of the full unweighted
    result."""
    idx_dir, _ = small_index
    tbl = pq.read_table(f"{idx_dir}/docs", columns=["doc_id", "lang"])
    lang_of = dict(zip(tbl["doc_id"].to_pylist(),
                       tbl["lang"].to_pylist()))
    w = {"lang": {"python": 2.0}}
    base = engine.search("authentication failure", k=10_000,
                         with_meta=False, strategy="taat")
    assert base.num_rows > 0
    exp = sorted(
        ((d, s * (2.0 if lang_of[d] == "python" else 1.0))
         for d, s in zip(base["doc_id"].to_pylist(),
                         base["score"].to_pylist())),
        key=lambda t: (-t[1], t[0]))[:10]
    got = engine.function_score_search("authentication failure",
                                       weights=w, k=10)
    assert got["doc_id"].to_pylist() == [d for d, _ in exp]
    assert got["score"].to_pylist() == [s for _, s in exp]


def test_dis_max_tie_one_equals_multifield_sum(engine):
    """max(a,b) + 1.0*min(a,b) == a + b bit-exactly, so dis_max with
    tie_breaker=1 must equal the multi_match boosted sum."""
    a = engine.dis_max_search(content_query="authentication failure",
                              path_query="py main", path_boost=2.0,
                              tie_breaker=1.0, k=10)
    b = engine.search_fields(content_query="authentication failure",
                             path_query="py main", path_boost=2.0,
                             k=10, strategy="taat")
    assert a.num_rows > 0
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert np.allclose(a["score"].to_pylist(), b["score"].to_pylist(),
                       rtol=0, atol=1e-12)


def test_dis_max_zero_tie_takes_best_field(engine):
    """With tie_breaker=0 every score equals the better single-field
    score."""
    res = engine.dis_max_search(content_query="authentication failure",
                                path_query="py main", path_boost=2.0,
                                tie_breaker=0.0, k=10)
    assert res.num_rows > 0
    c = engine.search("authentication failure", k=10_000,
                      with_meta=False, strategy="taat")
    p = engine.search_fields(content_query="", path_query="py main",
                             path_boost=2.0, k=10_000, strategy="taat")
    cs = dict(zip(c["doc_id"].to_pylist(), c["score"].to_pylist()))
    ps = dict(zip(p["doc_id"].to_pylist(), p["score"].to_pylist()))
    for d, s in zip(res["doc_id"].to_pylist(),
                    res["score"].to_pylist()):
        assert s == max(cs.get(d, 0.0), ps.get(d, 0.0))


def test_min_should_match_vs_bruteforce(engine, doc_tokens):
    """msm=2 keeps exactly the docs containing >= 2 distinct query
    terms; their scores equal the plain disjunction's scores."""
    text = "authentication failure error " + doc_tokens[0][1][0]
    qs = set(tokenize_py(text))
    exp_ids = {d for d, toks in doc_tokens if len(qs & set(toks)) >= 2}
    assert exp_ids
    res = engine.boolean_search(should=text, k=10_000,
                                min_should_match=2)
    assert set(res["doc_id"].to_pylist()) == exp_ids
    plain = engine.search(text, k=10_000, with_meta=False,
                          strategy="taat")
    ps = dict(zip(plain["doc_id"].to_pylist(),
                  plain["score"].to_pylist()))
    for d, s in zip(res["doc_id"].to_pylist(),
                    res["score"].to_pylist()):
        assert s == ps[d]


def test_min_should_match_one_equals_default(engine):
    a = engine.boolean_search(should="authentication failure", k=10)
    b = engine.boolean_search(should="authentication failure", k=10,
                              min_should_match=1)
    assert a.num_rows > 0
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_terms_filter_union_vs_single(engine, small_index, doc_tokens):
    """A list-valued filter is the union of the single-value filters;
    surviving scores are unchanged from the unfiltered query."""
    idx_dir, _ = small_index
    tbl = pq.read_table(f"{idx_dir}/docs", columns=["doc_id", "lang"])
    lang_of = dict(zip(tbl["doc_id"].to_pylist(),
                       tbl["lang"].to_pylist()))
    text = " ".join(doc_tokens[0][1][:4])
    full = engine.search(text, k=10_000, with_meta=False,
                         strategy="taat")
    exp = [(d, s) for d, s in zip(full["doc_id"].to_pylist(),
                                  full["score"].to_pylist())
           if lang_of[d] in ("python", "go")][:10]
    assert exp, "test corpus must contain python/go docs"
    got = engine.search(text, k=10,
                        filters={"lang": ["python", "go"]},
                        with_meta=False, strategy="taat")
    assert list(zip(got["doc_id"].to_pylist(),
                    got["score"].to_pylist())) == exp
    # unknown value contributes nothing; all-unknown matches nothing
    empty = engine.search(text, k=10,
                          filters={"lang": ["zzz"]}, with_meta=False)
    assert empty.num_rows == 0


def test_parse_query_string_clauses():
    from logsentinelai_ray.query.shards import parse_query_string

    p = parse_query_string('lang:en +a -b "c d" e repo:r1 x:y')
    assert p["must"] == ["a"]
    assert p["must_not"] == ["b"]
    assert p["phrases"] == ["c d"]
    # unknown field:value tokens fall through to should
    assert p["should"] == ["e", "x:y"]
    assert p["filters"] == {"lang": "en", "repo": "r1"}
    assert p["neg_phrases"] == [] and p["impossible"] is False
    # signed quoted phrases keep their sign: -"a b" excludes the phrase
    p = parse_query_string('-"a b" +"c d" "e f"')
    assert p["neg_phrases"] == ["a b"]
    assert p["phrases"] == ["c d", "e f"]
    # repeated single-valued field filters AND together: a conflict can
    # match nothing, a duplicate is a no-op
    assert parse_query_string("lang:en lang:de")["impossible"] is True
    p = parse_query_string("lang:en lang:en")
    assert p["filters"] == {"lang": "en"} and p["impossible"] is False


def test_parse_query_string_never_crashes():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from logsentinelai_ray.query.shards import parse_query_string

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def check(qs):
        p = parse_query_string(qs)
        assert set(p) == {"must", "should", "must_not", "phrases",
                          "neg_phrases", "filters", "impossible"}
        for key in ("must", "should", "must_not", "phrases",
                    "neg_phrases"):
            assert all(isinstance(x, str) for x in p[key])

    check()


def test_scroll_export_plans_agree(engine, tmp_path):
    """The broadcast-id plan and the scan (re-tokenize) plan must export
    exactly the same rows."""
    from logsentinelai_ray.pipelines.queries import scroll_export

    a = scroll_export(engine, "authentication failure",
                      str(tmp_path / "ids"), plan="ids").to_pandas()
    b = scroll_export(engine, "authentication failure",
                      str(tmp_path / "scan"), plan="scan").to_pandas()
    assert len(a) > 0
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert list(a["sha256"]) == list(b["sha256"])
    assert len(a) == engine.match_count("authentication failure")


def test_boosting_unit_boost_is_plain_search(engine, doc_tokens):
    text = " ".join(doc_tokens[0][1][:4])
    a = engine.boosting_search(text, negative=doc_tokens[0][1][0],
                               negative_boost=1.0, k=10)
    b = engine.search(text, k=10, with_meta=False, strategy="taat")
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_boosting_demotes_but_never_excludes(engine, doc_tokens):
    toks = doc_tokens[0][1]
    text = " ".join(toks[:4])
    neg = toks[0]
    full = engine.search(text, k=1000, with_meta=False)
    boosted = engine.boosting_search(text, negative=neg,
                                     negative_boost=0.5, k=1000)
    # same match set (demotion re-ranks, must_not would shrink it)
    assert set(boosted["doc_id"].to_pylist()) \
        == set(full["doc_id"].to_pylist())
    plain = dict(zip(full["doc_id"].to_pylist(),
                     full["score"].to_pylist()))
    neg_ids = {d for d, tk in doc_tokens if neg in tk}
    for d, s in zip(boosted["doc_id"].to_pylist(),
                    boosted["score"].to_pylist()):
        exp = plain[d] * 0.5 if d in neg_ids else plain[d]
        assert s == exp


def test_pinned_order_then_organic(engine, doc_tokens):
    text = " ".join(doc_tokens[0][1][:4])
    organic = engine.search(text, k=10, with_meta=False)
    pin = [int(organic["doc_id"][5].as_py()), 99999999,
           int(organic["doc_id"][1].as_py())]
    res = engine.pinned_search(pin, text, k=10)
    ids = res["doc_id"].to_pylist()
    # pinned first, in the given order; an id of no document is dropped
    assert ids[:2] == [pin[0], pin[2]]
    assert res["score"].to_pylist()[:2] == [999999.0, 999998.0]
    # organic tail excludes the pinned ids and preserves relative order
    tail_exp = [d for d in organic["doc_id"].to_pylist()
                if d not in set(pin)][:8]
    assert ids[2:] == tail_exp


def test_pinned_drops_missing_and_repeated_ids(engine, doc_tokens):
    """Ids outside [0, n_docs) pin nothing, and a repeated id pins once,
    at its first position: every pinned row is a real document."""
    text = " ".join(doc_tokens[0][1][:4])
    n = int(engine.stats["n_docs"])
    res = engine.pinned_search([10**9, -5, 3, n, 7, 3], text, k=10,
                               with_meta=True)
    ids = res["doc_id"].to_pylist()
    assert ids[:2] == [3, 7]
    assert res["score"].to_pylist()[:2] == [999999.0, 999998.0]
    assert len(ids) == len(set(ids)) and all(0 <= d < n for d in ids)
    assert None not in res["sha256"].to_pylist()
    only_bad = engine.pinned_search([10**9, -5, n], text, k=10)
    assert only_bad.to_pydict() == engine.search(
        text, k=10, with_meta=False).to_pydict()


@pytest.mark.parametrize("call", [
    lambda e, t: e.boosting_search(t, negative=t, negative_boost=-1),
    lambda e, t: e.function_score_search(
        t, weights={"lang": {"python": 2.0, "go": -0.5}}),
    lambda e, t: e.dsl_search({"query": {"boosting": {
        "positive": {"match": {"content": t}},
        "negative": {"match": {"content": t}},
        "negative_boost": -1}}}),
    lambda e, t: e.dsl_search({"query": {"function_score": {
        "query": {"match": {"content": t}}, "weight": -2}}}),
], ids=["boosting", "function_score", "dsl_boosting", "dsl_function_score"])
def test_negative_boosts_raise(engine, doc_tokens, call):
    """A negative boost or weight would flip the matched scores below 0,
    where every selection drops them: it raises instead of returning
    nothing."""
    text = " ".join(doc_tokens[0][1][:4])
    with pytest.raises(ValueError, match=">= 0"):
        call(engine, text)


def test_distance_feature_formula(engine, doc_tokens):
    text = " ".join(doc_tokens[0][1][:4])
    plain = engine.search(text, k=1000, with_meta=False)
    res = engine.distance_feature_search(text, origin=0, pivot=100.0,
                                         weight=2.0, k=1000)
    scores = dict(zip(plain["doc_id"].to_pylist(),
                      plain["score"].to_pylist()))
    for d, s in zip(res["doc_id"].to_pylist(), res["score"].to_pylist()):
        assert s == scores[d] + 2.0 * (100.0 / (100.0 + float(d)))


def test_rank_feature_formula(engine, doc_tokens):
    """rank_feature == BM25 + weight * f(dl) with dl the doc's token
    count, for both saturation and log; dl comes shard-side from the
    postings, so verify against the fixture's known token counts."""
    text = " ".join(doc_tokens[0][1][:4])
    plain = engine.search(text, k=1000, with_meta=False)
    scores = dict(zip(plain["doc_id"].to_pylist(),
                      plain["score"].to_pylist()))
    dls = {d: float(len(tk)) for d, tk in doc_tokens}
    for fn, f in (("saturation", lambda x: x / (x + 30.0)),
                  ("log", lambda x: np.log1p(x / 30.0))):
        res = engine.rank_feature_search(text, pivot=30.0, weight=1.5,
                                         k=1000, function=fn)
        assert res.num_rows == plain.num_rows
        for d, s in zip(res["doc_id"].to_pylist(),
                        res["score"].to_pylist()):
            assert s == scores[d] + 1.5 * f(dls[d])
    with pytest.raises(ValueError):
        engine.rank_feature_search(text, function="sigmoid")


def test_constant_score_is_filter_context(engine, doc_tokens):
    toks = doc_tokens[0][1]
    res = engine.constant_score_search(toks[0], k=10_000)
    exp = sorted(d for d, tk in doc_tokens if toks[0] in tk)
    assert res["doc_id"].to_pylist() == exp[:10_000]
    assert set(res["score"].to_pylist()) <= {1.0}


def _common_pair(doc_tokens):
    """Two distinct terms co-occurring in at least one doc."""
    for _d, toks in doc_tokens:
        uniq = sorted(set(toks))
        if len(uniq) >= 2:
            return uniq[0], uniq[1]
    raise AssertionError("fixture corpus has no two-term doc")


def test_span_first_vs_bruteforce(engine, doc_tokens):
    term = doc_tokens[0][1][0]
    for end in (1, 3, 8):
        res = engine.span_first_match(term, end=end)
        got = dict(zip(res["doc_id"].to_pylist(),
                       res["n_matches"].to_pylist()))
        exp = {}
        for d, toks in doc_tokens:
            c = sum(1 for p, t in enumerate(toks)
                    if t == term and p + 1 <= end)
            if c:
                exp[d] = c
        assert got == exp


def test_span_not_vs_bruteforce(engine, doc_tokens):
    a, b = _common_pair(doc_tokens)
    for pre, post in ((0, 0), (2, 2), (1, 4)):
        res = engine.span_not_match(a, b, pre=pre, post=post)
        got = dict(zip(res["doc_id"].to_pylist(),
                       res["n_matches"].to_pylist()))
        exp = {}
        for d, toks in doc_tokens:
            pb = [p for p, t in enumerate(toks) if t == b]
            c = sum(1 for p, t in enumerate(toks) if t == a
                    and not any(p - pre <= q <= p + post for q in pb))
            if c:
                exp[d] = c
        assert got == exp, (pre, post)


def test_span_not_absent_exclude_is_plain_count(engine, doc_tokens):
    a = doc_tokens[0][1][0]
    res = engine.span_not_match(a, "zzzmissing", pre=3, post=3)
    exp = {d: toks.count(a) for d, toks in doc_tokens if a in toks}
    assert dict(zip(res["doc_id"].to_pylist(),
                    res["n_matches"].to_pylist())) == exp


def test_terms_set_vs_bruteforce(engine, doc_tokens):
    toks0 = sorted(set(doc_tokens[0][1]))[:4]
    full = engine.search(" ".join(toks0), k=10_000, with_meta=False,
                         strategy="taat")
    plain = dict(zip(full["doc_id"].to_pylist(),
                     full["score"].to_pylist()))
    for m in (1, 2, 3, len(toks0)):
        res = engine.terms_set_search(toks0, min_match=m, k=10_000)
        exp_ids = {d for d, toks in doc_tokens
                   if len(set(toks0) & set(toks)) >= m}
        assert set(res["doc_id"].to_pylist()) == exp_ids, m
        # scores are the plain BM25 sum over the matched terms
        for d, s in zip(res["doc_id"].to_pylist(),
                        res["score"].to_pylist()):
            assert s == plain[d]
    # min_match = 1 degrades to the plain disjunctive search
    r1 = engine.terms_set_search(toks0, min_match=1, k=10_000)
    assert r1["doc_id"].to_pylist() == full["doc_id"].to_pylist()
    assert r1["score"].to_pylist() == full["score"].to_pylist()


def test_cross_fields_vs_bruteforce(engine, small_index):
    """Blended-df, max-of-field-norms semantics against a full python
    recomputation from the stored docs (content + path fields)."""
    import math

    idx_dir, cfg = small_index
    tbl = pq.read_table(f"{idx_dir}/docs",
                        columns=["doc_id", "content", "path"])
    rows = list(zip(tbl["doc_id"].to_pylist(),
                    tbl["content"].to_pylist(),
                    tbl["path"].to_pylist()))
    ctoks = {d: tokenize_py(c) for d, c, _p in rows}
    ptoks = {d: tokenize_py(p) for d, _c, p in rows}
    n = len(rows)
    avgdl = sum(len(t) for t in ctoks.values()) / n
    pavgdl = sum(len(t) for t in ptoks.values()) / n
    k1, b = cfg.k1, cfg.b
    # query mixes content terms with a path-only term
    some_path_term = next(t for t in ptoks[rows[0][0]]
                          if not t.isdigit())
    qterms = sorted({tokenize_py(rows[0][1])[0],
                     tokenize_py(rows[0][1])[2], some_path_term})
    exp = {}
    for t in qterms:
        dfc = sum(1 for d in ctoks if t in ctoks[d])
        dfp = sum(1 for d in ptoks if t in ptoks[d])
        if dfc + dfp == 0:
            continue
        idf = math.log(1.0 + (n - max(dfc, dfp) + 0.5)
                       / (max(dfc, dfp) + 0.5))
        for d in ctoks:
            nc = np_norm = 0.0
            tf = float(ctoks[d].count(t))
            if tf:
                nc = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b
                                                   + b * len(ctoks[d])
                                                   / avgdl))
            tfp = float(ptoks[d].count(t))
            if tfp:
                np_norm = tfp * (k1 + 1.0) / (tfp + k1 * (
                    1.0 - b + b * len(ptoks[d]) / pavgdl))
            if nc or np_norm:
                exp[d] = exp.get(d, 0.0) + idf * max(nc, np_norm)
    res = engine.cross_fields_search(" ".join(qterms), k=10_000)
    got = dict(zip(res["doc_id"].to_pylist(), res["score"].to_pylist()))
    assert set(got) == set(exp)
    for d in exp:
        assert got[d] == pytest.approx(exp[d], rel=1e-12), d


def test_dsl_match_equals_search(engine, doc_tokens):
    text = " ".join(doc_tokens[0][1][:4])
    a = engine.dsl_search({"query": {"match": {"content": text}},
                           "size": 10})
    b = engine.search(text, k=10, with_meta=False, strategy="taat")
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_dsl_nodes_equal_engine_methods(engine, doc_tokens):
    toks = doc_tokens[0][1]
    text = " ".join(toks[:4])
    # boosting node == boosting_search
    a = engine.dsl_search({"query": {"boosting": {
        "positive": {"match": {"content": text}},
        "negative": {"match": {"content": toks[0]}},
        "negative_boost": 0.5}}, "size": 10})
    b = engine.boosting_search(text, negative=toks[0],
                               negative_boost=0.5, k=10)
    assert a.to_pylist() == b.to_pylist()
    # dis_max over content+path == dis_max_search (boost folded in via
    # function_score around the path leg)
    a = engine.dsl_search({"query": {"dis_max": {
        "queries": [{"match": {"content": text}},
                    {"function_score": {
                        "query": {"match": {"path": text}},
                        "weight": 2.0}}],
        "tie_breaker": 0.5}}, "size": 10})
    b = engine.dis_max_search(content_query=text, path_query=text,
                              path_boost=2.0, tie_breaker=0.5, k=10)
    assert a.to_pylist() == b.to_pylist()
    # constant_score node == constant_score_search
    a = engine.dsl_search({"query": {"constant_score": {
        "filter": {"match": {"content": toks[0]}},
        "boost": 1.0}}, "size": 10_000})
    b = engine.constant_score_search(toks[0], k=10_000)
    assert a.to_pylist() == b.to_pylist()


def test_dsl_bool_msm_and_range(engine, doc_tokens):
    toks = sorted(set(doc_tokens[0][1]))[:4]
    # pure-should bool with minimum_should_match == terms_set_search
    a = engine.dsl_search({"query": {"bool": {
        "should": [{"match": {"content": t}} for t in toks],
        "minimum_should_match": 3}}, "size": 10_000})
    b = engine.terms_set_search(toks, min_match=3, k=10_000)
    assert a.to_pylist() == b.to_pylist()
    # range filter bounds the id space
    a = engine.dsl_search({"query": {"bool": {
        "must": [{"match": {"content": toks[0]}}],
        "filter": [{"range": {"doc_id": {"gte": 10, "lte": 50}}}]}},
        "size": 10_000})
    assert all(10 <= d <= 50 for d in a["doc_id"].to_pylist())
    exp = sorted(d for d, tk in doc_tokens
                 if toks[0] in tk and 10 <= d <= 50)
    assert sorted(a["doc_id"].to_pylist()) == exp


def test_dsl_paging_and_match_all(engine, doc_tokens):
    text = " ".join(doc_tokens[0][1][:4])
    full = engine.dsl_search({"query": {"match": {"content": text}},
                              "size": 20})
    page2 = engine.dsl_search({"query": {"match": {"content": text}},
                               "size": 10, "from": 10})
    assert page2["doc_id"].to_pylist() \
        == full["doc_id"].to_pylist()[10:20]
    everything = engine.dsl_search({"query": {"match_all": {}},
                                    "size": 10_000})
    assert everything.num_rows == len(doc_tokens)
    assert set(everything["score"].to_pylist()) == {1.0}


def test_dsl_unknown_node_raises(engine):
    with pytest.raises(ValueError, match="unsupported"):
        engine.dsl_search({"query": {"knn_frobnicate": {}}})


def test_sliced_scroll_partitions_the_export(engine, doc_tokens,
                                             tmp_path):
    """Slices are disjoint, covering, and plan-independent."""
    import pyarrow.parquet as _pq

    from logsentinelai_ray.pipelines.queries import scroll_export

    text = " ".join(doc_tokens[0][1][:3])
    full = scroll_export(engine, text, str(tmp_path / "full")) \
        .to_pandas()
    seen = []
    for i in range(3):
        for plan in ("ids", "scan"):
            part = scroll_export(engine, text,
                                 str(tmp_path / f"s{i}{plan}"),
                                 plan=plan, slice_id=i, slices=3) \
                .to_pandas()
            assert (part["doc_id"] % 3 == i).all()
            if plan == "ids":
                seen.append(part)
            else:  # both plans produce the identical slice
                assert list(part["doc_id"]) == list(seen[-1]["doc_id"])
    import pandas as pd

    union = pd.concat(seen).sort_values("doc_id").reset_index(drop=True)
    assert list(union["doc_id"]) == list(full["doc_id"])
    assert list(union["sha256"]) == list(full["sha256"])


def test_span_or_vs_bruteforce(engine, doc_tokens):
    a, b = _common_pair(doc_tokens)
    res = engine.span_or_match([a, b])
    got = dict(zip(res["doc_id"].to_pylist(),
                   res["n_matches"].to_pylist()))
    exp = {}
    for d, toks in doc_tokens:
        c = toks.count(a) + toks.count(b)
        if c:
            exp[d] = c
    assert got == exp


def test_match_bool_prefix_vs_manual_union(engine, doc_tokens):
    """match_bool_prefix('x y s') == plain search over x, y and every
    dictionary term with prefix 's'."""
    toks = doc_tokens[0][1]
    text = f"{toks[0]} {toks[1]} s"
    exp_terms = sorted({toks[0], toks[1]}
                       | set(engine.expand_prefix("s", 1024)["term"]
                             .to_pylist()))
    a = engine.match_bool_prefix_search(text, k=10_000)
    b = engine.search(" ".join(exp_terms), k=10_000, with_meta=False,
                      strategy="taat")
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_dsl_randomized_bool_trees(engine, doc_tokens):
    """Seeded random bool bodies vs a python evaluator composed from
    the engine's own per-term scores (exact float composition: per-doc
    sums in sorted-term order, the scoring contract)."""
    rng = np.random.default_rng(42)
    vocab = sorted({t for _d, toks in doc_tokens for t in toks})[:12]
    per_term = {}
    for t in vocab:
        r = engine.search(t, k=10 ** 6, with_meta=False,
                          strategy="taat")
        per_term[t] = dict(zip(r["doc_id"].to_pylist(),
                               r["score"].to_pylist()))
    all_ids = [d for d, _ in doc_tokens]
    for _trial in range(15):
        must = sorted(rng.choice(vocab, rng.integers(0, 3),
                                 replace=False).tolist())
        should = sorted(rng.choice(vocab, rng.integers(0, 4),
                                   replace=False).tolist())
        mnot = sorted(rng.choice(vocab, rng.integers(0, 2),
                                 replace=False).tolist())
        if not must and not should:
            continue
        msm = int(rng.integers(0, 3))
        body = {"query": {"bool": {
            "must": [{"match": {"content": t}} for t in must],
            "should": [{"match": {"content": t}} for t in should],
            "must_not": [{"match": {"content": t}} for t in mnot],
            "minimum_should_match": msm,
        }}, "size": 10_000}
        exp = {}
        for d in all_ids:
            if any(d not in per_term[t] for t in must):
                continue
            n_should = sum(1 for t in should if d in per_term[t])
            if not must:
                if n_should < max(1, msm):
                    continue
            elif msm and n_should < msm:
                continue
            if any(d in per_term[t] for t in mnot):
                continue
            # clause-order accumulation — the executor adds each
            # clause's dense scores in must-then-should list order
            s = 0.0
            for t in must + should:
                s += per_term[t].get(d, 0.0)
            if s > 0.0:
                exp[d] = s
        res = engine.dsl_search(body)
        got = dict(zip(res["doc_id"].to_pylist(),
                       res["score"].to_pylist()))
        assert got == exp, body


def test_dsl_ids_exists_prefix_nodes(engine, doc_tokens):
    toks = doc_tokens[0][1]
    text = " ".join(toks[:4])
    # ids filter: restricts the match set to the given live ids
    base = engine.search(text, k=10_000, with_meta=False)
    pick = base["doc_id"].to_pylist()[::2][:5]
    a = engine.dsl_search({"query": {"bool": {
        "must": [{"match": {"content": text}}],
        "filter": [{"ids": {"values": pick + [99_999_999]}}]}},
        "size": 10_000})
    assert a["doc_id"].to_pylist() == sorted(
        pick, key=lambda d: (-dict(zip(base["doc_id"].to_pylist(),
                                       base["score"].to_pylist()))[d], d))
    # exists on a keyword field every doc holds == no-op filter
    b = engine.dsl_search({"query": {"bool": {
        "must": [{"match": {"content": text}}],
        "filter": [{"exists": {"field": "lang"}}]}}, "size": 10_000})
    assert b.to_pylist() == base.select(
        ["rank", "doc_id", "score"]).to_pylist() \
        if "rank" in base.column_names else b.num_rows == base.num_rows
    # prefix filter == membership in the expanded terms' posting union
    pre = toks[0][:3]
    c = engine.dsl_search({"query": {"bool": {
        "must": [{"match_all": {}}],
        "filter": [{"prefix": {"content": pre}}]}}, "size": 10_000})
    exp = sorted(d for d, tk in doc_tokens
                 if any(t.startswith(pre) for t in tk))
    assert c["doc_id"].to_pylist() == exp
    import pytest as _pt

    with _pt.raises(ValueError):
        engine.dsl_search({"query": {"exists": {"field": "nope"}}})


# -- sparse_vector (text_expansion) + combined_fields ----------------------


def test_sparse_vector_vs_bruteforce(engine, doc_tokens):
    """Dot-product scores bit-identical to a scalar recomputation of
    w * ((1 + ln(tf)) * ln(1 + n/df)) from the raw token streams."""
    import math

    toks0 = doc_tokens[0][1]
    weights = {toks0[0]: 2.0, toks0[3]: 0.5, "zzzmissing": 9.0}
    res = engine.sparse_vector_search(weights, k=1_000_000)
    n = len(doc_tokens)
    df = {t: sum(1 for _d, tk in doc_tokens if t in tk)
          for t in weights}
    exp: dict[int, float] = {}
    for d, tk in doc_tokens:
        s = 0.0
        for t in sorted(weights):
            tf = tk.count(t)
            if tf == 0 or df[t] == 0:
                continue
            idf = math.log(1.0 + n / float(df[t]))
            s += weights[t] * ((1.0 + math.log(float(tf))) * idf)
        if s > 0.0:
            exp[d] = s
    order = sorted(exp, key=lambda d: (-exp[d], d))
    assert res["doc_id"].to_pylist() == order
    assert res["score"].to_pylist() == [exp[d] for d in order]


def test_sparse_vector_rejects_multi_token_keys(engine):
    import pytest as _pt

    with _pt.raises(ValueError):
        engine.sparse_vector_search({"two words": 1.0})
    with _pt.raises(ValueError):
        engine.sparse_vector_search({"camelCase": 1.0})


@pytest.fixture(scope="module", params=["small", "updated", "shrunk",
                                        "split"])
def norms_index(request, small_index, engine, tmp_path_factory):
    """(index_dir, cfg, engine) over each index the norms sidecar must
    cover: small_index, a build plus an update whose delta replays base
    rows, and small_index shrunk and split by 2."""
    import pyarrow as pa

    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.shrink import shrink_index, split_index
    from logsentinelai_ray.index.update import update_index
    from logsentinelai_ray.query.shards import SearchEngine

    idx_dir, cfg = small_index
    if request.param == "small":
        yield idx_dir, cfg, engine
        return
    root = tmp_path_factory.mktemp(f"norms-{request.param}")
    dst = str(root / "idx")
    if request.param == "updated":
        base = generate_corpus(CorpusConfig(n_docs=200, seed=11))
        delta = pa.concat_tables([
            generate_corpus(CorpusConfig(n_docs=100, seed=22)),
            base.slice(0, 7)])
        for name, tbl in (("base", base), ("delta", delta)):
            (root / name).mkdir()
            pq.write_table(tbl, str(root / name / "part-0.parquet"))
        cfg = IndexConfig(num_partitions=8, salt_buckets=2, block_size=32,
                          index_path_field=True)
        build_index(str(root / "base"), dst, cfg, corpus_tag="base")
        update_index(str(root / "delta"), dst, cfg, delta_tag="d1")
    elif request.param == "shrunk":
        shrink_index(idx_dir, dst, factor=2)
    else:
        split_index(idx_dir, dst, factor=2)
    eng = SearchEngine(dst, num_shards=2)
    yield dst, cfg, eng
    eng.shutdown()


def test_norms_sidecar_matches_tokenizer(norms_index):
    """norms/ rows = per-doc (content, path) token counts from the same
    tokenizer the postings used, one row per committed doc."""
    from logsentinelai_ray.index import manifest as mf

    idx_dir, _cfg, _eng = norms_index
    docs = pq.read_table(f"{idx_dir}/docs",
                         columns=["doc_id", "content", "path"])
    norms = pq.read_table(f"{idx_dir}/norms").sort_by("doc_id")
    exp = {d: (len(tokenize_py(c)), len(tokenize_py(p)))
           for d, c, p in zip(docs["doc_id"].to_pylist(),
                              docs["content"].to_pylist(),
                              docs["path"].to_pylist())}
    n_docs = mf.read_stats(idx_dir)["n_docs"]
    assert len(set(norms["doc_id"].to_pylist())) == n_docs == len(exp)
    assert norms.num_rows == len(exp)
    for d, dl, pdl in zip(norms["doc_id"].to_pylist(),
                          norms["dl"].to_pylist(),
                          norms["path_dl"].to_pylist()):
        assert (dl, pdl) == exp[d]


def test_combined_fields_vs_bruteforce(norms_index):
    """BM25F combined scoring bit-identical to a scalar recomputation
    over content+path with the boost folded into tf/dl/avgdl and df
    over either-field matches."""
    import math

    idx_dir, cfg, engine = norms_index
    docs = pq.read_table(f"{idx_dir}/docs",
                         columns=["doc_id", "content", "path"])
    rows = [(d, tokenize_py(c), tokenize_py(p))
            for d, c, p in zip(docs["doc_id"].to_pylist(),
                               docs["content"].to_pylist(),
                               docs["path"].to_pylist())]
    # one content-heavy term, one path-heavy term, one absent
    text = f"{rows[0][1][0]} {rows[0][2][0]} zzzmissing"
    boost = 2.0
    res = engine.combined_fields_search(text, path_boost=boost,
                                        k=1_000_000)
    n = len(rows)
    k1, b = cfg.k1, cfg.b
    avg = (float(sum(len(tk) for _d, tk, _p in rows))
           + boost * float(sum(len(ptk) for _d, _tk, ptk in rows))) \
        / float(n)
    terms = sorted(set(tokenize_py(text)))
    exp: dict[int, float] = {}
    for t in terms:
        hits = [(d, tk.count(t), ptk.count(t), len(tk), len(ptk))
                for d, tk, ptk in rows if t in tk or t in ptk]
        if not hits:
            continue
        dfc = float(len(hits))
        idf = math.log(1.0 + (n - dfc + 0.5) / (dfc + 0.5))
        for d, tfc, tfp, dlc, dlp in hits:
            tf = float(tfc) + boost * float(tfp)
            dl = float(dlc) + boost * float(dlp)
            exp[d] = exp.get(d, 0.0) + idf * (
                tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avg)))
    order = sorted(exp, key=lambda d: (-exp[d], d))
    assert res["doc_id"].to_pylist() == order
    assert res["score"].to_pylist() == [exp[d] for d in order]


def test_norms_sidecar_skips_uncommitted_rows_and_refuses_gaps(
        engine, small_index, tmp_path):
    """Norms rows past stats' n_docs (an update that crashed before its
    stats commit) are ignored; norms that miss committed docs (an index
    updated by a version that wrote no delta norms) raise, naming the
    rebuild, instead of scoring those docs as zero-length."""
    import os
    import shutil

    import pyarrow as pa

    from logsentinelai_ray.query.shards import SearchEngine

    idx_dir, _cfg = small_index
    dst = str(tmp_path / "idx")
    shutil.copytree(idx_dir, dst)
    n = engine.stats["n_docs"]
    crashed = pa.table({"doc_id": pa.array(range(n, n + 5), pa.int64()),
                        "dl": pa.array([7] * 5, pa.int64()),
                        "path_dl": pa.array([3] * 5, pa.int64())})
    pq.write_table(crashed, f"{dst}/norms/delta-{n:012d}-00000.parquet")
    text = "authentication failure md"
    exp = engine.combined_fields_search(text, path_boost=2.0, k=20)
    eng = SearchEngine(dst, num_shards=2)
    try:
        got = eng.combined_fields_search(text, path_boost=2.0, k=20)
        assert got["doc_id"].to_pylist() == exp["doc_id"].to_pylist()
        assert got["score"].to_pylist() == exp["score"].to_pylist()
    finally:
        eng.shutdown()
    base = [f for f in os.listdir(f"{dst}/norms") if f.startswith("part-")]
    os.remove(f"{dst}/norms/{base[0]}")
    eng = SearchEngine(dst, num_shards=2)
    try:
        with pytest.raises(ValueError, match="index_path_field=True"):
            eng.combined_fields_search(text, path_boost=2.0, k=20)
    finally:
        eng.shutdown()


def _brute_big_spans(toks, t1, t2, max_dist):
    """Minimal ordered spans: for each t1 position i, the first t2
    position j with i < j <= i + max_dist."""
    p2 = [p for p, t in enumerate(toks) if t == t2]
    spans = []
    for i, t in enumerate(toks):
        if t != t1:
            continue
        js = [j for j in p2 if i < j <= i + max_dist]
        if js:
            spans.append((i, js[0]))
    return spans


def test_span_containing_and_within_vs_bruteforce(engine, doc_tokens):
    # pick big-first/big-last/little from a real doc so matches exist
    toks0 = doc_tokens[0][1]
    t1, t2, t3 = toks0[0], toks0[4], toks0[2]
    for dist in (2, 5):
        cont = engine.span_containing_match(t1, t2, t3, max_dist=dist)
        within = engine.span_within_match(t1, t2, t3, max_dist=dist)
        got_c = dict(zip(cont["doc_id"].to_pylist(),
                         cont["n_matches"].to_pylist()))
        got_w = dict(zip(within["doc_id"].to_pylist(),
                         within["n_matches"].to_pylist()))
        exp_c, exp_w = {}, {}
        for d, toks in doc_tokens:
            spans = _brute_big_spans(toks, t1, t2, dist)
            p3 = [p for p, t in enumerate(toks) if t == t3]
            nc = sum(1 for i, j in spans
                     if any(i <= p <= j for p in p3))
            nw = sum(1 for p in p3
                     if any(i <= p <= j for i, j in spans))
            if nc:
                exp_c[d] = nc
            if nw:
                exp_w[d] = nw
        assert got_c == exp_c, f"containing dist={dist}"
        assert got_w == exp_w, f"within dist={dist}"


def test_span_containing_validation(engine):
    import pytest as _pt

    with _pt.raises(ValueError):
        engine.span_containing_match("two words", "merge", "agg")
    with _pt.raises(ValueError):
        engine.span_within_match("sort", "merge", "agg", max_dist=0)
    # absent term -> empty, not an error
    assert engine.span_containing_match(
        "zzzmissing", "merge", "agg").num_rows == 0


def _lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_phrase_suggest_vs_bruteforce(engine, doc_tokens):
    """Candidate generation (fuzzy, df-ranked) + bigram scoring vs a
    full recount from the raw token streams."""
    toks0 = doc_tokens[0][1]
    w1 = next(t for t in toks0 if len(t) >= 4)
    w2 = next(t for t in toks0 if len(t) >= 4 and t != w1)
    typo1, typo2 = w1[:-1], w2[:-1]  # one deletion each
    res = engine.phrase_suggest(f"{typo1} {typo2}", max_edits=1,
                                per_slot=5, k=10)
    # brute force
    vocab: dict[str, set] = {}
    for d, toks in doc_tokens:
        for t in toks:
            vocab.setdefault(t, set()).add(d)
    df = {t: len(ds) for t, ds in vocab.items()}

    def cands(w):
        hits = [t for t in df if _lev(w, t) <= 1]
        hits.sort(key=lambda t: (-df[t], t))
        return hits[:5]

    bigrams: dict[tuple, int] = {}
    for _d, toks in doc_tokens:
        for a, b in zip(toks, toks[1:]):
            bigrams[(a, b)] = bigrams.get((a, b), 0) + 1
    exp = []
    for a in cands(typo1):
        for b in cands(typo2):
            n = bigrams.get((a, b), 0)
            if n > 0:
                exp.append((f"{a} {b}", n))
    exp.sort(key=lambda x: (-x[1], x[0]))
    got = list(zip(res["suggestion"].to_pylist(),
                   res["score"].to_pylist()))
    assert got == exp[:10]


def test_phrase_suggest_validation(engine):
    import pytest as _pt

    with _pt.raises(ValueError):
        engine.phrase_suggest("three word query")


# -- _async_search lifecycle ------------------------------------------------


def test_async_search_lifecycle(engine, doc_tokens):
    import time

    from logsentinelai_ray.query.async_search import AsyncSearchManager

    text = " ".join(doc_tokens[0][1][:4])
    sync = engine.search(text, k=10, with_meta=False)
    mgr = AsyncSearchManager(engine, max_concurrent=2)
    try:
        ids = [mgr.submit(text, k=10, with_meta=False) for _ in range(3)]
        assert len(set(ids)) == 3
        deadline = time.monotonic() + 60.0
        while any(mgr.status(i)["is_running"] for i in ids):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for i in ids:
            st = mgr.status(i)
            assert st == {"id": i, "is_running": False,
                          "is_partial": False}
            res = mgr.get(i)
            assert res["doc_id"].to_pylist() == sync["doc_id"].to_pylist()
            assert res["score"].to_pylist() == sync["score"].to_pylist()
        assert mgr.delete(ids[0]) is True
        assert mgr.delete(ids[0]) is False  # already gone
        import pytest as _pt

        with _pt.raises(KeyError):
            mgr.get(ids[0])
        with _pt.raises(KeyError):
            mgr.status("as-nope")
    finally:
        mgr.shutdown()


def test_dsl_sparse_vector_and_combined_fields(engine, doc_tokens):
    """The new DSL scoring nodes equal their engine methods exactly."""
    toks0 = doc_tokens[0][1]
    weights = {toks0[0]: 2.0, toks0[3]: 0.5}
    a = engine.dsl_search({"query": {"sparse_vector": {
        "field": "content", "query_vector": weights}}, "size": 10})
    b = engine.sparse_vector_search(weights, k=10)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()

    text = f"{toks0[0]} src 3 md"
    c = engine.dsl_search({"query": {"combined_fields": {
        "query": text, "fields": ["content", "path^2"]}}, "size": 10})
    d = engine.combined_fields_search(text, path_boost=2.0, k=10)
    assert c["doc_id"].to_pylist() == d["doc_id"].to_pylist()
    assert c["score"].to_pylist() == d["score"].to_pylist()

    import pytest as _pt

    with _pt.raises(ValueError):
        engine.dsl_search({"query": {"sparse_vector": {
            "field": "path", "query_vector": weights}}})
    with _pt.raises(ValueError):
        engine.dsl_search({"query": {"combined_fields": {
            "query": "x", "fields": ["content", "lang"]}}})


def test_damerau_predicate_matches_duckdb():
    """_damerau_leq implements UNRESTRICTED Damerau-Levenshtein (the
    Lowrance-Wagner matrix), bit-for-bit the oracle's
    damerau_levenshtein — property-checked over random pairs plus the
    classic OSA-vs-DL separator ('ca'->'abc' = 2, not 3)."""
    import random

    import duckdb

    from logsentinelai_ray.query.shards import _damerau_leq

    assert _damerau_leq("ca", "abc", 2) and not _damerau_leq("ca", "abc", 1)
    rng = random.Random(11)
    for _ in range(300):
        a = "".join(rng.choices("abcd", k=rng.randint(0, 7)))
        b = "".join(rng.choices("abcd", k=rng.randint(0, 7)))
        d = duckdb.sql(
            f"select damerau_levenshtein('{a}','{b}')").fetchone()[0]
        for k in range(4):
            assert _damerau_leq(a, b, k) == (d <= k), (a, b, k, d)


def test_expand_fuzzy_transpositions(engine):
    """transpositions=True finds adjacent-swap typos one edit away that
    plain Levenshtein needs two for."""
    lev = engine.expand_fuzzy("mreged", max_edits=1, max_expansions=10)
    dl = engine.expand_fuzzy("mreged", max_edits=1, max_expansions=10,
                             transpositions=True)
    assert "merged" in dl["term"].to_pylist() or dl.num_rows >= lev.num_rows
    # DL is a relaxation: every lev hit is a DL hit
    assert set(lev["term"].to_pylist()) <= set(dl["term"].to_pylist())


def test_keyword_values_cap_keeps_highest_df(engine):
    """Past ``max_expansions`` the highest-df values win (df desc, value
    asc), like expand_prefix — whatever the shard count: per-shard heads
    merge into one global head before the values sort."""
    full = engine.terms_enum("repo", "org1", 1000)
    pairs = sorted(zip(full["df"].to_pylist(), full["value"].to_pylist()),
                   key=lambda p: (-p[0], p[1]))
    assert len(pairs) > 8
    for cap in (3, 5, 8):
        want = sorted(v for _, v in pairs[:cap])
        assert engine.keyword_values("repo", prefix="org1",
                                     max_expansions=cap) == want, cap


def test_collapse_inner_hits_page_sizes(engine):
    """The groups rank by their best hit whatever the inner page:
    inner_size=1 equals collapse_search, inner_size=0 lists no hits (in
    the standard schema), and a negative size is refused, as in ES."""
    one = engine.collapse_inner_hits("error merge", "lang", k=5,
                                     inner_size=1)
    best = engine.collapse_search("error merge", "lang", k=5)
    assert one.num_rows == 5
    assert one.select(["doc_id", "lang", "score"]).to_pylist() \
        == best.select(["doc_id", "lang", "score"]).to_pylist()
    none = engine.collapse_inner_hits("error merge", "lang", k=5,
                                      inner_size=0)
    assert none.num_rows == 0 and none.schema == one.schema
    with pytest.raises(ValueError, match="inner_size"):
        engine.collapse_inner_hits("error merge", "lang", inner_size=-1)
