"""Prefix/wildcard term expansion (ES prefix-query analog) tests."""

import pyarrow.parquet as pq
import pytest

from logsentinelai_ray.analysis.tokenizer import tokenize_py


@pytest.fixture(scope="module")
def vocab_df(small_index):
    """(term -> df) ground truth from the indexed docs."""
    idx_dir, _cfg = small_index
    tbl = pq.read_table(f"{idx_dir}/docs", columns=["content"])
    df = {}
    for content in tbl["content"].to_pylist():
        for t in set(tokenize_py(content)):
            df[t] = df.get(t, 0) + 1
    return df


def test_expand_prefix_matches_vocabulary(engine, vocab_df):
    prefix = sorted(vocab_df)[0][:1]
    exp = engine.expand_prefix(prefix, max_expansions=10 ** 6)
    got = dict(zip(exp["term"].to_pylist(), exp["df"].to_pylist()))
    want = {t: n for t, n in vocab_df.items() if t.startswith(prefix)}
    assert got == want
    terms = exp["term"].to_pylist()
    assert terms == sorted(terms)


def test_expand_prefix_excludes_field_terms(engine):
    """'lang:python' etc. must never leak out of a 'lang' prefix scan."""
    exp = engine.expand_prefix("lang", max_expansions=10 ** 6)
    assert all(":" not in t for t in exp["term"].to_pylist())


def test_expand_prefix_cap_keeps_highest_df(engine, vocab_df):
    prefix = sorted(vocab_df)[0][:1]
    full = {t: n for t, n in vocab_df.items() if t.startswith(prefix)}
    if len(full) < 3:
        pytest.skip("vocabulary too small for a cap test")
    cap = len(full) - 1
    exp = engine.expand_prefix(prefix, max_expansions=cap)
    got = dict(zip(exp["term"].to_pylist(), exp["df"].to_pylist()))
    assert len(got) == cap
    # the capped set is the df-desc (term-asc tiebreak) head of the full set
    want = dict(sorted(full.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:cap])
    assert got == want


def test_empty_prefix_rejected(engine):
    with pytest.raises(ValueError, match="prefix"):
        engine.expand_prefix("")


def test_prefix_search_equals_explicit_multi_term(engine, vocab_df):
    prefix = sorted(vocab_df)[0][:1]
    terms = sorted(t for t in vocab_df if t.startswith(prefix))
    res = engine.prefix_search(prefix, k=15, max_expansions=10 ** 6)
    explicit = engine.search(" ".join(terms), k=15, with_meta=False)
    assert res["doc_id"].to_pylist() == explicit["doc_id"].to_pylist()
    assert res["score"].to_pylist() == explicit["score"].to_pylist()


def test_prefix_search_no_match_is_empty(engine):
    res = engine.prefix_search("zzzznothing", k=5)
    assert res.num_rows == 0


def _ref_levenshtein(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_expand_regex_matches_vocabulary(engine, vocab_df):
    import re

    pattern = "[a-z]*e[a-z]*r[a-z]*"
    exp = engine.expand_regex(pattern, max_expansions=10 ** 6)
    got = dict(zip(exp["term"].to_pylist(), exp["df"].to_pylist()))
    rx = re.compile(f"^(?:{pattern})$")
    want = {t: n for t, n in vocab_df.items() if rx.match(t)}
    assert got == want


def test_expand_fuzzy_matches_reference_dp(engine, vocab_df):
    probe = sorted(vocab_df)[len(vocab_df) // 2]
    for k in (0, 1, 2):
        exp = engine.expand_fuzzy(probe, max_edits=k,
                                  max_expansions=10 ** 6)
        got = dict(zip(exp["term"].to_pylist(), exp["df"].to_pylist()))
        want = {t: n for t, n in vocab_df.items()
                if _ref_levenshtein(probe, t) <= k}
        assert got == want, (probe, k)


def test_fuzzy_prefilters_keep_every_match():
    """The length and bag-distance prefilters of ``_match_fuzzy`` drop
    no term the edit-distance DP alone keeps: anagrams (bag distance 0,
    edit distance > 1), repeated and non-ASCII characters, field terms,
    with and without transpositions."""
    import pyarrow as pa

    from logsentinelai_ray.query.shards import (_damerau_leq,
                                                _levenshtein_leq,
                                                _match_fuzzy)

    vocab = ["error", "eror", "errror", "rorre", "oerrr", "terror", "err",
             "erorr", "reorr", "mirror", "failure", "fialure", "faliure",
             "ünïcode", "unicode", "ünicöde", "aab", "aba", "baa", "ab",
             "lang:error", "a", "", "eeee", "passwd", "paswd", "psaswd"]
    terms = pa.chunked_array([vocab])
    dfs = pa.chunked_array([[1] * len(vocab)], pa.int64())
    for probe in ("error", "failure", "ünïcode", "aab", "passwd", "e"):
        for k in (0, 1, 2):
            for tr in (False, True):
                pred = _damerau_leq if tr else _levenshtein_leq
                want = [":" not in t and pred(probe, t, k) for t in vocab]
                got = _match_fuzzy(probe, k, tr, terms, dfs).to_pylist()
                assert got == want, (probe, k, tr)


def test_fuzzy_search_equals_explicit_disjunction(engine, vocab_df):
    probe = sorted(vocab_df)[0]
    exp = engine.expand_fuzzy(probe, max_edits=2, max_expansions=10 ** 6)
    terms = exp["term"].to_pylist()
    if not terms:
        import pytest as _pt

        _pt.skip("no fuzzy matches for probe")
    res = engine.fuzzy_search(probe, max_edits=2, k=15,
                              max_expansions=10 ** 6)
    explicit = engine.search(" ".join(terms), k=15, with_meta=False)
    assert res["doc_id"].to_pylist() == explicit["doc_id"].to_pylist()
    assert res["score"].to_pylist() == explicit["score"].to_pylist()


def test_highlight_and_term_vectors(engine, small_index):
    import pyarrow.parquet as pq

    idx_dir, _cfg = small_index
    docs = pq.read_table(f"{idx_dir}/docs", columns=["doc_id", "content"])
    d0 = docs["doc_id"][0].as_py()
    content = docs["content"][0].as_py()
    term = tokenize_py(content)[5]
    hl = engine.highlight([d0], term, before=40, width=96)
    snip = hl["snippet"][0].as_py()
    idx = content.find(term)
    start = max(0, idx - 40)
    assert snip == content[start:start + 96]
    # absent term -> empty snippet
    hl2 = engine.highlight([d0], "zzznotinthere")
    assert hl2["snippet"][0].as_py() == ""

    tv = engine.term_vectors(d0)
    from collections import Counter

    want = Counter(tokenize_py(content))
    got = dict(zip(tv["term"].to_pylist(), tv["tf"].to_pylist()))
    assert got == dict(want)
    assert tv["term"].to_pylist() == sorted(got)
