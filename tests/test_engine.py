"""End-to-end engine tests: rank-identity vs oracle, WAND vs exhaustive,
doc-id determinism, sha256 integrity, resume (SURVEY.md §5.2.2/4/5)."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from tests.conftest import QUERY_SET


def _pairs(tbl):
    return list(zip(tbl["doc_id"].to_pylist(), tbl["score"].to_pylist()))


@pytest.mark.parametrize("strategy", ["taat", "wand"])
@pytest.mark.parametrize("query", QUERY_SET)
def test_rank_identity(engine, oracle, query, strategy):
    for k in (1, 5, 10, 100):
        got = _pairs(engine.search(query, k=k, with_meta=False,
                                   strategy=strategy))
        exp = oracle.search(query, k=k)
        assert [d for d, _ in got] == [d for d, _ in exp], \
            (query, k, strategy)
        # scores bit-identical (same float ops, same order)
        assert [s for _, s in got] == [s for _, s in exp], \
            (query, k, strategy)


@pytest.mark.parametrize("strategy", ["taat", "wand"])
@pytest.mark.parametrize("flt", [{"lang": "python"}, {"lang": "md"},
                                 {"repo": "org1/repo1"},
                                 {"lang": "python", "repo": "org3/repo10"},
                                 {"lang": "no_such_lang"}])
def test_rank_identity_filtered(engine, oracle, flt, strategy):
    for query in ("error", "select union passwd", "authentication failure"):
        got = _pairs(engine.search(query, k=20, filters=flt,
                                   with_meta=False, strategy=strategy))
        exp = oracle.search(query, k=20, filters=flt)
        assert got == exp, (query, flt, strategy)


def test_wand_equals_exhaustive(engine):
    """WAND pruning must be invisible: identical to brute-force cursor scan."""
    from logsentinelai_ray.analysis import tokenize_py
    from logsentinelai_ray.query.bm25 import bm25_idf
    from logsentinelai_ray.query.postings import PostingsCursor, TermPostings
    from logsentinelai_ray.query.wand import block_max_wand

    stats = engine.stats
    for query in QUERY_SET:
        terms = sorted(set(tokenize_py(query, int(stats["max_token_len"]))))
        rows = engine._fetch_terms(terms)
        scores: dict[int, float] = {}
        cursors = []
        for t in terms:
            if t not in rows:
                continue
            tp = TermPostings(rows[t])
            idf = bm25_idf(stats["n_docs"], int(tp.df))
            cur = PostingsCursor(tp, idf, stats["k1"], stats["b"],
                                 stats["avgdl"])
            cursors.append(PostingsCursor(TermPostings(rows[t]), idf,
                                          stats["k1"], stats["b"],
                                          stats["avgdl"]))
            while not cur.exhausted():
                scores[cur.cur_doc] = scores.get(cur.cur_doc, 0.0) \
                    + cur.score_current()
                cur.next()
        exhaustive = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        for k in (1, 7, 40, 10_000):
            assert block_max_wand(cursors, k) == exhaustive[:k], (query, k)
            for c in cursors:  # reset cursors for the next k
                c.__init__(c.tp, c.idf, c.k1, c.b, c.avgdl)


def test_wand_vec_equals_scalar_wand(engine):
    """The vectorized block-at-a-time WAND must be bit-identical to the
    doc-at-a-time scalar WAND — with and without a seed threshold,
    filter sets, exclusions, and across batch granularities."""
    import numpy as np

    from logsentinelai_ray.analysis import tokenize_py
    from logsentinelai_ray.query.bm25 import bm25_idf
    from logsentinelai_ray.query.postings import PostingsCursor, TermPostings
    from logsentinelai_ray.query.wand import block_max_wand, block_max_wand_vec

    stats = engine.stats
    n = int(stats["n_docs"])
    rng = np.random.default_rng(7)
    for query in QUERY_SET:
        terms = sorted(set(tokenize_py(query, int(stats["max_token_len"]))))
        rows = engine._fetch_terms(terms)

        def mk_cursors():
            out = []
            for t in terms:
                if t not in rows:
                    continue
                tp = TermPostings(rows[t])
                idf = bm25_idf(n, int(tp.df))
                out.append(PostingsCursor(tp, idf, stats["k1"], stats["b"],
                                          stats["avgdl"]))
            return out

        for k in (1, 7, 40, 10_000):
            exp = block_max_wand(mk_cursors(), k)
            got = block_max_wand_vec(mk_cursors(), k)
            assert got == exp, (query, k)
            # tiny first batch forces many threshold-update rounds
            got2 = block_max_wand_vec(mk_cursors(), k, first_batch_atoms=1)
            assert got2 == exp, (query, k)
            if exp:
                seed = float(np.nextafter(exp[min(k, len(exp)) - 1][1],
                                          -np.inf))
                got3 = block_max_wand_vec(mk_cursors(), k,
                                          seed_threshold=seed)
                assert got3 == exp, (query, k, "seeded")
        # random filter / exclusion sets
        keep = np.sort(rng.choice(n, size=n // 3, replace=False)).astype(np.int64)
        drop = np.sort(rng.choice(n, size=n // 10, replace=False)).astype(np.int64)
        keep_set, drop_set = set(keep.tolist()), set(drop.tolist())
        exp = block_max_wand(mk_cursors(), 15,
                             filter_predicate=lambda d: (d in keep_set
                                                         and d not in drop_set))
        got = block_max_wand_vec(mk_cursors(), 15, filter_ids=keep,
                                 exclude_ids=drop)
        assert got == exp, (query, "filtered")


def test_wand_vec_sparse_intervals(engine):
    """The sparse-cursor refinement (rare lists enter the atom sweep as
    exact per-posting runs instead of wide block intervals) must be
    invisible to results: cap=0 (interval-only), the default, and
    cap=huge (every list sparse-exact) all return identical top-k on a
    mixed rare+hot query — seeded and unseeded."""
    import numpy as np

    from logsentinelai_ray.query.bm25 import bm25_idf
    from logsentinelai_ray.query.postings import PostingsCursor, TermPostings
    from logsentinelai_ray.query.wand import block_max_wand_vec

    stats = engine.stats
    n = int(stats["n_docs"])
    # find a genuinely rare term plus the two hottest query terms
    seg = engine._fetch_terms(
        sorted(set(t for q in QUERY_SET for t in q.split())))
    hot = sorted(seg, key=lambda t: -seg[t]["df"])[:2]
    rare = min(seg, key=lambda t: seg[t]["df"])
    terms = sorted(set(hot + [rare]))
    rows = engine._fetch_terms(terms)

    def mk():
        out = []
        for t in terms:
            if t not in rows:
                continue
            tp = TermPostings(rows[t])
            out.append(PostingsCursor(tp, bm25_idf(n, int(tp.df)),
                                      stats["k1"], stats["b"],
                                      stats["avgdl"]))
        return out

    for k in (3, 25):
        exp = block_max_wand_vec(mk(), k, sparse_df_cap=0)
        got_def = block_max_wand_vec(mk(), k)
        got_all = block_max_wand_vec(mk(), k, sparse_df_cap=1 << 60)
        assert got_def == exp, k
        assert got_all == exp, k
        if exp:
            seed = float(np.nextafter(exp[min(k, len(exp)) - 1][1],
                                      -np.inf))
            got_seeded = block_max_wand_vec(mk(), k, seed_threshold=seed,
                                            sparse_df_cap=1 << 60)
            assert got_seeded == exp, (k, "seeded")


def test_doc_ids_deterministic_and_deduped(small_index, small_corpus):
    idx_dir, _ = small_index
    docs = pq.read_table(os.path.join(idx_dir, "docs")).sort_by("doc_id")
    keys = list(zip(docs["repo"].to_pylist(), docs["path"].to_pylist(),
                    docs["commit"].to_pylist()))
    # dense ids = rank of the key in sorted-key order (order-independent
    # of input block layout, hence deterministic under Ray's scheduling)
    expected = sorted({rpc for rpc in
                       zip(small_corpus["repo"].to_pylist(),
                           small_corpus["path"].to_pylist(),
                           small_corpus["commit"].to_pylist())})
    assert keys == expected
    assert docs["doc_id"].to_pylist() == list(range(len(expected)))
    # duplicates existed in the input and were dropped
    assert small_corpus.num_rows > len(expected)


def test_sha256_integrity(small_index, engine):
    """Per-row content sha256 equality vs the source (input_hint invariant)."""
    import hashlib

    idx_dir, _ = small_index
    docs = pq.read_table(os.path.join(idx_dir, "docs"))
    by_id = dict(zip(docs["doc_id"].to_pylist(), docs["content"].to_pylist()))
    res = engine.search("authentication failure error", k=25)
    assert res.num_rows > 0
    for doc_id, sha in zip(res["doc_id"].to_pylist(),
                           res["sha256"].to_pylist()):
        assert hashlib.sha256(by_id[doc_id].encode()).hexdigest() == sha


def test_collection_stats_match_oracle(small_index, oracle):
    from logsentinelai_ray.index import manifest as mf

    idx_dir, _ = small_index
    stats = mf.read_stats(idx_dir)
    assert stats["n_docs"] == oracle.n_docs
    assert stats["avgdl"] == pytest.approx(oracle.avgdl, abs=1e-12)


def test_df_consistency(small_index, oracle):
    """sum(df) over segments == number of distinct (term, doc) pairs."""
    idx_dir, cfg = small_index
    seg_df = {}
    for p in range(cfg.num_partitions):
        tbl = pq.read_table(os.path.join(idx_dir, "segments",
                                         f"part-{p:04d}.parquet"))
        for t, df in zip(tbl["term"].to_pylist(), tbl["df"].to_pylist()):
            seg_df[t] = seg_df.get(t, 0) + df
    for term, plist in oracle.postings.items():
        assert seg_df.get(term) == len(plist), term


def _build_killed_before_drop(monkeypatch, *args, **kwargs) -> dict:
    """``build_index`` killed once segments and positions commit, before
    the postings exchange is dropped: the on-disk state a crash leaves
    between those two steps."""
    from logsentinelai_ray.index import build

    with monkeypatch.context() as m:
        m.setattr(build, "_drop_exchange", lambda index_dir: None)
        return build.build_index(*args, **kwargs)


def _exchanges(idx):
    return sorted(d for d in os.listdir(idx) if d.startswith("postings_"))


def test_resume_skips_completed_partitions(small_corpus, tmp_path,
                                           monkeypatch):
    """Kill-and-resume: only missing partitions rebuild; ranks identical."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.shards import SearchEngine

    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=16)
    idx = str(tmp_path / "idx")
    _build_killed_before_drop(monkeypatch, rd.from_arrow(small_corpus), idx,
                              cfg, corpus_tag="r")
    e1 = SearchEngine(idx, num_shards=2)
    before = _pairs(e1.search("select union passwd", k=10, with_meta=False))
    e1.shutdown()
    # simulate mid-shuffle crash
    os.remove(os.path.join(idx, "segments", "part-0002.parquet"))
    os.remove(os.path.join(idx, "manifest", "part-0002.json"))
    meta = build_index(rd.from_arrow(small_corpus), idx, cfg, corpus_tag="r")
    # earlier stages were skipped
    assert set(meta["timings"]) == {"segments_s"}
    e2 = SearchEngine(idx, num_shards=2)
    after = _pairs(e2.search("select union passwd", k=10, with_meta=False))
    e2.shutdown()
    assert before == after


def _with_content(tbl, n, tag):
    """``tbl`` repeated up to ``n`` rows, each row's content made unique."""
    import pyarrow as pa

    rows = pa.concat_tables([tbl] * (-(-n // tbl.num_rows))).slice(0, n)
    return rows.set_column(rows.schema.get_field_index("content"), "content",
                           pa.array([f"{tag} {i}" for i in range(n)]))


def _keep_first(units, existing=()):
    """The rows that keep-first dedup keeps: per (repo, path, commit) key
    the row lowest in (unit, row) order, unless ``existing`` holds the key;
    as {key: (content, doc_id)} with ids ranked in sorted-key order from
    ``len(existing)``."""
    first = {}
    for t in units:
        for r in t.select(["repo", "path", "commit", "content"]).to_pylist():
            k = (r["repo"], r["path"], r["commit"])
            if k not in existing:
                first.setdefault(k, r["content"])
    keys = sorted(first, key=lambda k: "\x00".join(k))
    return {k: (first[k], len(existing) + i) for i, k in enumerate(keys)}


def _docs_by_key(idx, lo=0):
    docs = pq.read_table(os.path.join(idx, "docs"))
    return {(r["repo"], r["path"], r["commit"]): (r["content"], r["doc_id"])
            for r in docs.to_pylist() if r["doc_id"] >= lo}


def test_distributed_dedup_path_matches_driver_path(small_corpus, tmp_path,
                                                    monkeypatch):
    """The scale path (keys-only Ray Data sort + per-block rank tasks)
    and the driver path must produce identical doc maps, and keep the
    same row of every duplicated key: the lowest (origin, pos), from paths
    and from a Dataset alike, with one key's run spanning sorted blocks.
    An update keeps every existing row and the first delta row of each
    new key."""
    import pyarrow as pa
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import build
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.update import update_index

    outs = []
    for thresh, sub in ((0, "a"), (10**9, "b")):
        monkeypatch.setattr(build, "_DRIVER_IDS_MAX_ROWS", thresh)
        cfg = IndexConfig(num_partitions=4, salt_buckets=2)
        idx = str(tmp_path / sub)
        build_index(rd.from_arrow(small_corpus), idx, cfg, corpus_tag="d")
        docs = pq.read_table(os.path.join(idx, "docs")).sort_by("doc_id")
        outs.append(docs.select(["doc_id", "repo", "path", "commit",
                                 "sha256"]))
    assert outs[0].equals(outs[1])

    # units sharing keys with different content; one key fills every row
    # of three units (121 of the 360 key rows), so its run spans blocks
    one = small_corpus.slice(0, 1)
    units = [_with_content(one, 40, "u0"),
             _with_content(small_corpus.slice(0, 120), 120, "u1"),
             _with_content(one, 40, "u2"),
             _with_content(small_corpus.slice(60, 120), 120, "u3"),
             _with_content(one, 40, "u4")]
    # 30 rows the index holds, 30 new ones, then 10 of the new ones again
    delta = _with_content(pa.concat_tables([small_corpus.slice(150, 60),
                                            small_corpus.slice(190, 10)]),
                          70, "d0")
    expect = _keep_first(units)
    expect_delta = _keep_first([delta], expect)
    assert len(expect_delta) >= 20
    assert expect[tuple(one.select(["repo", "path", "commit"])
                        .to_pylist()[0].values())][0] == "u0 0"
    cfg = IndexConfig(num_partitions=4, salt_buckets=2)
    for thresh in (0, 10**9):
        monkeypatch.setattr(build, "_DRIVER_IDS_MAX_ROWS", thresh)
        for route in ("path", "arrow"):
            root = tmp_path / f"kf-{thresh}-{route}"
            os.makedirs(root / "in")
            for i, t in enumerate(units):
                pq.write_table(t, str(root / "in" / f"u{i}.parquet"))
            os.makedirs(root / "delta")
            pq.write_table(delta, str(root / "delta" / "0.parquet"))
            idx = str(root / "idx")
            corpus = (str(root / "in") if route == "path"
                      else rd.from_arrow(units))
            build_index(corpus, idx, cfg, corpus_tag="kf")
            assert _docs_by_key(idx) == expect, (thresh, route)
            res = update_index(str(root / "delta"), idx, cfg,
                               delta_tag="kf-d")
            assert res["n_new_docs"] == len(expect_delta)
            assert _docs_by_key(idx, len(expect)) == expect_delta
            assert _docs_by_key(idx) == {**expect, **expect_delta}


def test_resume_after_partial_emit(small_corpus, tmp_path, monkeypatch):
    """A crash DURING the prep+emit stage leaves partial exchange files
    without the _SUCCESS markers; the rerun must wipe and re-emit (not
    double-count postings) and converge to the same index."""
    _resume_after_lost_markers(small_corpus, tmp_path, monkeypatch,
                               ("docs", "postings_raw"))


def test_resume_when_only_docs_marker_survives(small_corpus, tmp_path,
                                               monkeypatch):
    """The prep+emit stage commits docs/_SUCCESS after
    postings_raw/_SUCCESS; with only the docs marker left the stage must
    still rerun."""
    _resume_after_lost_markers(small_corpus, tmp_path, monkeypatch,
                               ("postings_raw",))


def _resume_after_lost_markers(small_corpus, tmp_path, monkeypatch,
                               markers):
    import shutil

    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.shards import SearchEngine

    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=16)
    ref_idx = str(tmp_path / "ref")
    build_index(rd.from_arrow(small_corpus), ref_idx, cfg, corpus_tag="pe")
    e_ref = SearchEngine(ref_idx, num_shards=2)
    expect = _pairs(e_ref.search("select union passwd", k=10,
                                 with_meta=False))
    e_ref.shutdown()

    # simulate: crash mid-emit — exchange dir half-written, no _SUCCESS,
    # later stages never ran
    idx = str(tmp_path / "crashed")
    _build_killed_before_drop(monkeypatch, rd.from_arrow(small_corpus), idx,
                              cfg, corpus_tag="pe")
    for stage in markers:
        os.remove(os.path.join(idx, stage, "_SUCCESS"))
    shutil.rmtree(os.path.join(idx, "segments"))
    for name in os.listdir(os.path.join(idx, "manifest")):
        if name != "_build.json":  # keep the start marker: same build
            os.remove(os.path.join(idx, "manifest", name))
    os.remove(os.path.join(idx, "stats.json"))
    part0 = os.path.join(idx, "postings_raw", "part=0")
    for name in os.listdir(part0)[:1]:
        os.remove(os.path.join(part0, name))  # half-written partition
    meta = build_index(rd.from_arrow(small_corpus), idx, cfg,
                       corpus_tag="pe")
    assert "prep_docs_s" in meta["timings"]  # the prep+emit stage re-ran
    e2 = SearchEngine(idx, num_shards=2)
    got = _pairs(e2.search("select union passwd", k=10, with_meta=False))
    e2.shutdown()
    assert got == expect


_DROP_CFG = dict(num_partitions=4, salt_buckets=2, block_size=16,
                 store_positions=True)


def _ranks(idx):
    """(doc_id, score) top-10 per QUERY_SET query under TAAT and WAND, and
    one phrase query's top-10; TAAT and WAND must agree."""
    from logsentinelai_ray.query.shards import SearchEngine

    eng = SearchEngine(idx, num_shards=2)
    try:
        out = {}
        for q in QUERY_SET:
            taat, wand = (_pairs(eng.search(q, k=10, with_meta=False,
                                            strategy=st))
                          for st in ("taat", "wand"))
            assert taat == wand, q
            out[q] = taat
        out["phrase"] = eng.phrase_topk("authentication failure", k=10,
                                        with_meta=False).to_pydict()
        return out
    finally:
        eng.shutdown()


def test_resume_after_crash_before_exchange_drop(small_corpus, tmp_path,
                                                 monkeypatch):
    """Killed after segments and positions commit but before the exchange
    drop: the rerun runs no stage again, drops the exchange, and ranks
    are those of an unbroken build."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import build

    cfg = IndexConfig(**_DROP_CFG)
    ref = str(tmp_path / "ref")
    ref_meta = build.build_index(rd.from_arrow(small_corpus), ref, cfg,
                                 corpus_tag="x")
    assert _exchanges(ref) == []
    assert ref_meta["exchange_rows"] > 0 and ref_meta["exchange_bytes"] > 0

    def killed(index_dir):
        raise RuntimeError("killed before the drop")

    idx = str(tmp_path / "idx")
    with monkeypatch.context() as m:
        m.setattr(build, "_drop_exchange", killed)
        with pytest.raises(RuntimeError, match="killed before the drop"):
            build.build_index(rd.from_arrow(small_corpus), idx, cfg,
                              corpus_tag="x")
    assert _exchanges(idx) == ["postings_raw", "postings_raw_pos"]
    meta = build.build_index(rd.from_arrow(small_corpus), idx, cfg,
                             corpus_tag="x")
    assert set(meta["timings"]) == {"segments_s", "positions_s"}
    assert _exchanges(idx) == []
    assert (meta["exchange_rows"], meta["exchange_bytes"]) == \
        (ref_meta["exchange_rows"], ref_meta["exchange_bytes"])
    assert _ranks(idx) == _ranks(ref)


@pytest.mark.parametrize("lost", ["segment+entry", "segment", "positions"])
def test_damaged_finished_index_reemits_exchange(small_corpus, tmp_path,
                                                 lost):
    """A finished index (its exchange dropped) that loses a segment part,
    with or without its manifest entry, or a positions file: the rerun
    runs the prep+emit pass again to re-emit the exchange, rebuilds what
    was lost from it, drops it again, and ranks are unchanged. Without
    the exchange the segment stage refuses to run rather than write an
    empty part."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import build

    cfg = IndexConfig(**_DROP_CFG)
    idx = str(tmp_path / "idx")
    meta = build.build_index(rd.from_arrow(small_corpus), idx, cfg,
                             corpus_tag="dmg")
    assert _exchanges(idx) == []
    before = _ranks(idx)
    seg = os.path.join(idx, "segments", "part-0002.parquet")
    if lost == "positions":
        os.remove(os.path.join(idx, "positions", "part=1",
                               "base-00.parquet"))
    else:
        os.remove(seg)
        if lost == "segment+entry":
            os.remove(os.path.join(idx, "manifest", "part-0002.json"))
        with pytest.raises(RuntimeError, match="exchange"):
            build.build_segments(idx, cfg, meta["stats"]["avgdl"],
                                 meta["fingerprint"])
        assert not os.path.exists(seg)
    meta = build.build_index(rd.from_arrow(small_corpus), idx, cfg,
                             corpus_tag="dmg")
    assert "prep_docs_s" in meta["timings"]
    assert _exchanges(idx) == []
    assert pq.read_metadata(seg).num_rows > 0
    assert _ranks(idx) == before


def test_rerun_rewrites_earlier_layout_record(small_corpus, tmp_path,
                                              monkeypatch):
    """An index finished under the earlier layout (its docs/_SUCCESS holds
    only n_docs, the exchange kept beside it) is not an error: the rerun
    runs the prep+emit pass again, writes the full record, drops the
    exchange, and ranks are unchanged."""
    import json

    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index

    cfg = IndexConfig(**_DROP_CFG)
    idx = str(tmp_path / "idx")
    _build_killed_before_drop(monkeypatch, rd.from_arrow(small_corpus), idx,
                              cfg, corpus_tag="old")
    before = _ranks(idx)
    record = os.path.join(idx, "docs", "_SUCCESS")
    with open(record) as f:
        n_docs = json.load(f)["n_docs"]
    with open(record, "w") as f:
        json.dump({"n_docs": n_docs}, f)
    meta = build_index(rd.from_arrow(small_corpus), idx, cfg,
                       corpus_tag="old")
    assert "prep_docs_s" in meta["timings"]
    assert meta["exchange_bytes"] > 0
    assert _exchanges(idx) == []
    assert _ranks(idx) == before


def test_pluggable_scorer_params(small_corpus, tmp_path):
    """SURVEY §2.11: BM25 k1/b are config, enforced end-to-end — an index
    built with non-default parameters stays rank-identical to an oracle
    using the same parameters (and differs from the default ranking)."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.bm25 import BM25Oracle
    from logsentinelai_ray.query.shards import SearchEngine

    cfg = IndexConfig(num_partitions=4, salt_buckets=2, k1=0.9, b=0.3)
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(small_corpus), idx, cfg, corpus_tag="kb")
    docs = pq.read_table(os.path.join(idx, "docs"))
    pairs = list(zip(docs["doc_id"].to_pylist(),
                     docs["content"].to_pylist()))
    oracle = BM25Oracle(pairs, None, cfg)
    default_oracle = BM25Oracle(
        pairs, None, IndexConfig(num_partitions=4, salt_buckets=2))
    eng = SearchEngine(idx, num_shards=2)
    try:
        any_diff = False
        for q in ("select union passwd", "authentication failure error"):
            got = _pairs(eng.search(q, k=15, with_meta=False))
            assert got == oracle.search(q, k=15), q
            if got != default_oracle.search(q, k=15):
                any_diff = True
        assert any_diff, "k1/b had no effect — parameters not plumbed"
    finally:
        eng.shutdown()


def test_salting_splits_hot_terms(small_index):
    """Hot Zipf-head terms must appear as multiple salt runs pre-merge: the
    merged segment's block_first sequence stays sorted (concat correctness
    is covered by rank-identity; here we check the hot term spans blocks)."""
    idx_dir, cfg = small_index
    from logsentinelai_ray.index.build import term_partition

    p = term_partition("error", cfg.num_partitions)
    tbl = pq.read_table(os.path.join(idx_dir, "segments",
                                     f"part-{p:04d}.parquet"))
    row = {t: i for i, t in enumerate(tbl["term"].to_pylist())}["error"]
    firsts = tbl["block_first"][row].as_py()
    lasts = tbl["block_last"][row].as_py()
    assert len(firsts) > 1
    assert firsts == sorted(firsts)
    assert all(f <= l for f, l in zip(firsts, lasts))
    assert all(lasts[i] < firsts[i + 1] for i in range(len(firsts) - 1))


def test_row_group_split_build_identical(ray_session, tmp_path_factory):
    """A single multi-row-group file must split into per-row-group stage-1
    units and produce the exact same index (ids are sorted-key ranks, so
    the unit split is invisible)."""
    import glob

    import pyarrow.parquet as pq

    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index.build import build_index

    root = tmp_path_factory.mktemp("rgsplit")
    tbl = generate_corpus(CorpusConfig(n_docs=200, seed=91))
    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=32)

    one = str(root / "one")
    many = str(root / "many")
    os.makedirs(one)
    os.makedirs(many)
    pq.write_table(tbl, f"{one}/c.parquet")  # single row group
    pq.write_table(tbl, f"{many}/c.parquet", row_group_size=37)
    assert pq.ParquetFile(f"{many}/c.parquet").metadata.num_row_groups > 3

    dm = {}
    for label, src in (("one", one), ("many", many)):
        idx = str(root / f"idx_{label}")
        build_index(src, idx, cfg, corpus_tag=label)
        dm[label] = pq.read_table(
            os.path.join(idx, "docmap")).sort_by("doc_id").to_pydict()
        # split path actually produced more than one docs part file
        if label == "many":
            assert len(glob.glob(os.path.join(idx, "docs",
                                              "*.parquet"))) > 3
    assert dm["one"] == dm["many"]


def test_shard_death_recovers(ray_session, small_index):
    """IndexShard actors are restartable pure readers: kill one shard's
    process mid-session; subsequent queries must succeed with identical
    results (Ray restarts the actor, which reloads its segments)."""
    import ray as _ray

    from logsentinelai_ray.query.shards import SearchEngine

    idx_dir, cfg = small_index
    eng = SearchEngine(idx_dir, num_shards=3)
    try:
        before = eng.search("error merge window", k=10,
                            with_meta=False).to_pydict()
        # kill the shard processes hard (no_restart=False → Ray restarts)
        for s in eng.shards:
            _ray.kill(s, no_restart=False)
        eng._term_cache.clear()
        eng._contrib_cache.clear()
        eng._absent_terms.clear()
        eng._contrib_cached = 0
        eng._pending.clear()
        after = eng.search("error merge window", k=10,
                           with_meta=False).to_pydict()
        assert after == before
    finally:
        eng.shutdown()


def test_contrib_cache_budget_counts_dense_rows(ray_session, small_index):
    """A round of several hot (df >= n/4, dense-row) terms is charged
    its dense rows BEFORE the eviction check, so the cache ends the
    round inside its budget — and the round's terms are all resident."""
    from logsentinelai_ray.analysis import tokenize_py
    from logsentinelai_ray.query.shards import SearchEngine

    idx_dir, _ = small_index
    eng = SearchEngine(idx_dir, num_shards=2, prewarm_hot_terms=0)
    try:
        n = int(eng.stats["n_docs"])
        terms = sorted(set(tokenize_py(" ".join(QUERY_SET))))
        terms += [f"lang:{lang}" for lang in ("c", "go", "md", "rust")]
        dfs = {t: r["df"] for t, r in eng._fetch_terms(terms).items()}
        hot = sorted(t for t, df in dfs.items() if df * 4 >= n)[:3]
        cold = min((t for t, df in dfs.items() if df * 4 < n),
                   key=lambda t: dfs[t])
        assert len(hot) >= 2
        # the hot round's full cost: postings + one n-slot row per term
        eng._ensure_contribs(hot)
        assert set(hot) <= set(eng._dense_rows)
        round_cost = eng._contrib_cached
        assert round_cost == sum(dfs[t] for t in hot) + n * len(hot)
        eng._contrib_cache.clear()
        eng._dense_rows.clear()
        eng._contrib_cached = 0
        # a resident cold term, then a budget that fits the hot round
        # alone but not on top of it
        eng._ensure_contribs([cold])
        eng._contrib_budget = round_cost
        eng._ensure_contribs(hot)
        assert eng._contrib_cached <= eng._contrib_budget
        assert set(hot) <= set(eng._contrib_cache)
    finally:
        eng.shutdown()


def test_wand_vec_span_windows_and_decoded_cache(engine):
    """Tiny span_cap forces many dense-scratch windows; the decoded
    (ids, contrib) slice path must give identical results to block
    decode, including mixed (some cursors cached, some not)."""
    import numpy as np

    from logsentinelai_ray.analysis import tokenize_py
    from logsentinelai_ray.query.bm25 import bm25_idf
    from logsentinelai_ray.query.postings import PostingsCursor, TermPostings
    from logsentinelai_ray.query.wand import block_max_wand_vec

    stats = engine.stats
    n = int(stats["n_docs"])
    for query in QUERY_SET[:4]:
        terms = sorted(set(tokenize_py(query, int(stats["max_token_len"]))))
        rows = engine._fetch_terms(terms)
        present = [t for t in terms if t in rows]

        def mk():
            out = []
            for t in present:
                tp = TermPostings(rows[t])
                idf = bm25_idf(n, int(tp.df))
                out.append(PostingsCursor(tp, idf, stats["k1"],
                                          stats["b"], stats["avgdl"]))
            return out

        def full_decode(c):
            ids, tfs, dls = c.tp.decode_all()
            tf = tfs.astype(np.float64)
            dl = dls.astype(np.float64)
            contrib = c.idf * (tf * (c.k1 + 1.0)
                               / (tf + c.k1 * (1.0 - c.b
                                               + c.b * dl / c.avgdl)))
            return ids, contrib

        exp = block_max_wand_vec(mk(), 20)
        got_span = block_max_wand_vec(mk(), 20, span_cap=37)
        assert got_span == exp, (query, "span windows")
        cursors = mk()
        dec_all = [full_decode(c) for c in cursors]
        got_dec = block_max_wand_vec(cursors, 20, decoded=dec_all)
        assert got_dec == exp, (query, "decoded")
        cursors = mk()
        dec_mixed = [full_decode(c) if i % 2 == 0 else None
                     for i, c in enumerate(cursors)]
        got_mix = block_max_wand_vec(cursors, 20, decoded=dec_mixed,
                                     span_cap=101)
        assert got_mix == exp, (query, "mixed decoded + span windows")


@pytest.fixture(scope="module")
def stemmed(ray_session, small_corpus, tmp_path_factory):
    """The fixture corpus built with stem="minimal_english": (index dir,
    cfg, engine)."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.shards import SearchEngine

    cfg = IndexConfig(num_partitions=8, salt_buckets=2, block_size=32,
                      stem="minimal_english")
    idx = str(tmp_path_factory.mktemp("stem") / "idx")
    build_index(rd.from_arrow(small_corpus), idx, cfg,
                corpus_tag="stem-test")
    eng = SearchEngine(idx, num_shards=3)
    yield idx, cfg, eng
    eng.shutdown()


def test_stemmed_index_rank_identity(stemmed, small_corpus):
    """stem="minimal_english" end-to-end: pluralized queries hit the
    stemmed dictionary (query terms stem through the SAME rule), and
    TAAT + forced WAND both equal the analyzer-aware oracle
    bit-for-bit. Also pins the stem+positions build guard."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.bm25 import BM25Oracle

    idx, cfg, eng = stemmed
    docs = pq.read_table(f"{idx}/docs")
    orc = BM25Oracle(list(zip(docs["doc_id"].to_pylist(),
                              docs["content"].to_pylist())), None, cfg)
    for q in ["authentication failures errors",
              "merges windows", "sorted arrays values"]:
        exp = orc.search(q, k=10)
        for strat in ("taat", "wand"):
            res = eng.search(q, k=10, with_meta=False,
                             strategy=strat).to_pandas()
            got = list(zip(res["doc_id"].tolist(),
                           res["score"].tolist()))
            assert got == exp, (strat, q)
    # singular and plural query forms retrieve identically
    a = eng.search("errors", k=5, with_meta=False).to_pandas()
    b = eng.search("error", k=5, with_meta=False).to_pandas()
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    with pytest.raises(ValueError, match="store_positions"):
        build_index(rd.from_arrow(small_corpus), idx + "_bad",
                    IndexConfig(stem="minimal_english",
                                store_positions=True),
                    corpus_tag="bad")
    with pytest.raises(ValueError, match="unknown stemmer"):
        build_index(rd.from_arrow(small_corpus), idx + "_bad2",
                    IndexConfig(stem="porter2"), corpus_tag="bad2")


# (surface, call with the query's content text): every content-field
# query runs the index's stem filter, so plural and singular agree
_STEMMED_SURFACES = {
    "boosting": lambda e, w: e.boosting_search(f"{w} failure",
                                               "window"),
    "boosting_negative": lambda e, w: e.boosting_search(
        "failure authentication", w),
    "dis_max": lambda e, w: e.dis_max_search(content_query=w),
    "search_fields": lambda e, w: e.search_fields(content_query=w),
    "terms_set": lambda e, w: e.terms_set_search([w, "failure"], 1),
    "dsl_match": lambda e, w: e.dsl_search(
        {"query": {"match": {"content": w}}}),
    "kql": lambda e, w: e.kql_search(f"{w} and not window"),
    "sqs": lambda e, w: e.simple_query_string(f"{w} | failure"),
    # the synonym map is keyed by the surface form; its expansions stem
    "synonym": lambda e, w: e.synonym_search(w, {w: ["failures"]}),
    "query_string": lambda e, w: e.query_string(
        f"+{w} authentication -windows"),
}


@pytest.mark.parametrize("surface", sorted(_STEMMED_SURFACES))
def test_stemmed_content_surfaces_plural_parity(stemmed, surface):
    _, _, eng = stemmed
    call = _STEMMED_SURFACES[surface]
    plural, singular = call(eng, "errors"), call(eng, "error")
    assert singular.num_rows > 0
    assert plural["doc_id"].to_pylist() == singular["doc_id"].to_pylist()
    assert plural["score"].to_pylist() == singular["score"].to_pylist()


def test_profile_counters_and_pruning(engine, oracle):
    """SearchEngine.profile: deterministic WAND pruning counters.
    Invariants: considered + skipped == total atoms, counters stable
    across runs, and the profiled query's top-k equals search()'s.
    With a tight sparse_df_cap (forcing hot terms onto block
    intervals) and k=1, block-max pruning must actually skip atoms
    and score a strict subset of the corpus."""
    p = engine.profile("error merge spark window").to_pylist()[0]
    assert p["atoms_considered"] + p["atoms_skipped"] == p["n_atoms"]
    assert p["hits"] == 10 and p["n_terms"] == 4
    # determinism: a second run returns identical counters
    assert engine.profile("error merge spark window").to_pylist()[0] \
        == p
    # the profiled path IS the search path (rank identity)
    exp = [d for d, _ in oracle.search("error merge spark window",
                                       k=10)]
    res = engine.search("error merge spark window", k=10,
                        with_meta=False, strategy="wand")
    assert res["doc_id"].to_pylist() == exp
    # forced block-interval regime: pruning visibly skips work
    n_docs = int(engine.stats["n_docs"])
    q = engine.profile("authentication error merge window", k=1,
                       sparse_df_cap=8, first_batch_atoms=4) \
        .to_pylist()[0]
    assert q["atoms_skipped"] > 0
    assert q["docs_scored"] < n_docs


def test_sort_occurrences_packed_equals_lexsort():
    """Property: the packed-uint64 occurrence sort equals the 3-key
    lexsort fallback on random inputs (incl. ties in every key and a
    doc-range base offset), and the forced fallback (wide key) agrees
    too."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from logsentinelai_ray.index.build import _sort_occurrences

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**20), st.integers(1, 9))
    def run(n, base, ndict):
        rng = np.random.default_rng(n * 1_000_003 + base)
        codes = rng.integers(0, ndict, n).astype(np.int64)
        # rank = lexicographic rank of a shuffled dictionary
        order = rng.permutation(ndict).astype(np.int64)
        rank = np.empty(ndict, dtype=np.int64)
        rank[order] = np.arange(ndict)
        doc = (base + rng.integers(0, 50, n)).astype(np.int64)
        pos = rng.integers(0, 30, n).astype(np.int64)
        got = _sort_occurrences(codes, rank, order, doc, pos,
                                base, ndict)
        idx = np.lexsort((pos, doc, rank[codes]))
        exp = (codes[idx].astype(np.int32), doc[idx],
               pos[idx].astype(np.int32))
        for g, e in zip(got, exp):
            assert np.array_equal(g, e)
        # force the fallback (impossible 64-bit fit) — same answer
        wide = _sort_occurrences(codes, rank, order,
                                 doc + (1 << 62), pos, 0, ndict)
        assert np.array_equal(wide[0], exp[0])
        assert np.array_equal(wide[2], exp[2])

    run()


def test_resume_rebuilds_positions_stage(small_corpus, tmp_path,
                                         monkeypatch):
    """Kill-and-resume DURING the positions consolidation: wiping the
    stage marker + one part's consolidated files re-runs the stage
    idempotently (deterministic file names, atomic writes) and phrase
    results are unchanged."""
    import shutil

    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import manifest as mf
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.query.shards import SearchEngine

    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=16,
                      store_positions=True)
    idx = str(tmp_path / "idx")
    _build_killed_before_drop(monkeypatch, rd.from_arrow(small_corpus), idx,
                              cfg, corpus_tag="p")
    e1 = SearchEngine(idx, num_shards=2)
    before = e1.phrase_topk("authentication failure", k=10,
                            with_meta=False).to_pydict()
    e1.shutdown()
    # simulate a crash mid-positions: marker gone, one part's
    # consolidated dir partially deleted
    stages = mf.read_stage(idx, "positions")
    assert stages  # stage had been marked
    os.remove(os.path.join(idx, "positions", "_SUCCESS"))
    shutil.rmtree(os.path.join(idx, "positions", "part=1"))
    meta = build_index(rd.from_arrow(small_corpus), idx, cfg,
                      corpus_tag="p")
    assert "positions_s" in meta["timings"]
    assert os.path.isdir(os.path.join(idx, "positions", "part=1"))
    e2 = SearchEngine(idx, num_shards=2)
    after = e2.phrase_topk("authentication failure", k=10,
                           with_meta=False).to_pydict()
    e2.shutdown()
    assert before == after
