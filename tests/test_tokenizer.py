"""Tokenizer golden cases + Arrow/Python equivalence (SURVEY.md §5.2.1)."""

from collections import Counter

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from logsentinelai_ray.analysis import tokenize_batch_arrow, tokenize_py
from logsentinelai_ray.analysis.tokenizer import rows_with_any, term_tf

GOLDEN = {
    "parseHttpRequest": ["parse", "http", "request"],
    "auth_failure_count": ["auth", "failure", "count"],
    "HTTPServer": ["http", "server"],
    "XMLHttpRequest2": ["xml", "http", "request2"],
    "/etc/passwd": ["etc", "passwd"],
    "robots.txt": ["robots", "txt"],
    "SELECT UNION": ["select", "union"],
    "a_b-c.d/e": ["a", "b", "c", "d", "e"],
    "": [],
    "   \n\t ": [],
    "漢字 only": ["only"],
    "MiXeD9Case": ["mi", "xe", "d9", "case"],
}


def test_golden_cases():
    for text, expected in GOLDEN.items():
        assert tokenize_py(text) == expected, text


def test_max_token_len():
    long = "a" * 200
    assert tokenize_py(long, max_token_len=64) == ["a" * 64]


def _arrow_tokens(texts):
    ri, toks, dl = tokenize_batch_arrow(pa.array(texts, pa.string()))
    per_row = [[] for _ in texts]
    for i, t in zip(ri, toks.to_pylist()):
        per_row[i].append(t)
    return per_row, dl


def test_arrow_matches_python_on_goldens():
    texts = list(GOLDEN)
    per_row, dl = _arrow_tokens(texts)
    for i, text in enumerate(texts):
        assert per_row[i] == tokenize_py(text)
        assert dl[i] == len(tokenize_py(text))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=80), min_size=0, max_size=20))
def test_arrow_matches_python_property(texts):
    per_row, dl = _arrow_tokens(texts)
    for i, text in enumerate(texts):
        expected = tokenize_py(text)
        assert per_row[i] == expected
        assert dl[i] == len(expected)


# words that repeat within a row, split camel/snake case, and share a
# prefix that token truncation merges ("errorcode"/"errorcodes" at 5)
_TF_WORDS = ["err", "errorcode", "errorcodes", "x", "HTTPServer",
             "parseHttp", "a_b", "42"]
_TF_TEXTS = st.lists(st.one_of(
    st.just(""),
    st.text(max_size=60),
    st.lists(st.sampled_from(_TF_WORDS), max_size=12).map(" ".join)),
    max_size=16)


@settings(max_examples=200, deadline=None)
@given(_TF_TEXTS, st.sampled_from([3, 5, 64]))
def test_term_tf_matches_per_row_counter(texts, max_len):
    """term_tf's distinct (row, term) pairs and tf are exactly a per-row
    Counter of the reference tokenizer, and its per-occurrence codes
    decode back to the token stream."""
    row_idx, toks, _ = tokenize_batch_arrow(pa.array(texts, pa.string()),
                                            max_len)
    tt = term_tf(toks, row_idx)
    vocab = tt.enc.dictionary.to_pylist()
    got = [Counter() for _ in texts]
    for r, c, f in zip(tt.rows, tt.terms, tt.tf):
        assert vocab[c] not in got[r]  # each pair appears once
        got[r][vocab[c]] = int(f)
    assert got == [Counter(tokenize_py(t, max_len)) for t in texts]
    assert [vocab[c] for c in tt.codes] == toks.to_pylist()
    key = tt.rows * max(1, len(vocab)) + tt.terms
    assert (np.diff(key) > 0).all()  # pairs in (row, code) order


@settings(max_examples=100, deadline=None)
@given(_TF_TEXTS, st.lists(st.sampled_from(["err", "x", "server", "zz"]),
                           max_size=3))
def test_rows_with_any_matches_python(texts, terms):
    row_idx, toks, _ = tokenize_batch_arrow(pa.array(texts, pa.string()))
    mask = rows_with_any(row_idx, toks, terms, len(texts))
    assert mask.tolist() == [bool(set(tokenize_py(t)) & set(terms))
                             for t in texts]


def test_null_content_is_empty():
    per_row, dl = _arrow_tokens(["x", None, "y z"])
    assert per_row == [["x"], [], ["y", "z"]]
    assert list(dl) == [1, 0, 2]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(max_size=80), min_size=1, max_size=20))
def test_polars_and_re2_paths_identical(texts):
    """The polars fast path and the RE2 fallback must stay
    byte-identical — rank identity vs the oracle depends on it."""
    from logsentinelai_ray.analysis.tokenizer import (
        _tokenize_batch_polars,
        _tokenize_batch_re2,
    )

    arr = pa.array(texts, pa.string())
    r1, f1, d1 = _tokenize_batch_re2(arr, 64)
    r2, f2, d2 = _tokenize_batch_polars(arr, 64)
    assert (r1 == r2).all()
    assert f1.equals(f2)
    assert (d1 == d2).all()


def test_stem_minimal_english_goldens():
    """Lucene EnglishMinimalStemFilter parity on the classic edge
    cases (including the deliberately crude ones)."""
    from logsentinelai_ray.analysis.tokenizer import stem_minimal_english
    cases = {
        "errors": "error", "merges": "merge", "windows": "window",
        "glass": "glass", "bus": "bus", "us": "us", "miss": "miss",
        "bodies": "body", "pies": "py", "ties": "ty",
        "aies": "aies", "goes": "goes", "ies": "ies",
        "is": "is", "as": "as", "s": "s", "a": "a", "": "",
        "its": "it", "this": "thi", "classes": "classe",
        "tubes": "tube", "window": "window",
    }
    for w, exp in cases.items():
        assert stem_minimal_english(w) == exp, w


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(
    alphabet="abcdefgiopstuy0", max_size=8), min_size=1, max_size=30))
def test_stem_vectorized_equals_scalar(words):
    """stem_tokens_arrow (2 RE2 passes + if_else) must equal the
    scalar rule on arbitrary token-ish strings — the engine stems
    index tokens vectorized and query terms scalar, so any divergence
    breaks rank identity."""
    from logsentinelai_ray.analysis.tokenizer import (
        stem_minimal_english,
        stem_tokens_arrow,
    )

    arr = pa.array(words, pa.string())
    vec = stem_tokens_arrow(arr).to_pylist()
    assert vec == [stem_minimal_english(w) for w in words]


def test_analyze_py_stems_query_terms():
    from logsentinelai_ray.analysis.tokenizer import analyze_py
    assert analyze_py("parseErrors mergesFiles", 64,
                      "minimal_english") == \
        ["parse", "error", "merge", "files"[:-1]]
