"""Code-aware tokenizer — the engine's "analyzer" (ES terminology).

The reference leans on Elasticsearch's analyzers for its keyword/full-text
fields (everything Kibana queries, see SURVEY.md §1.2); our from-scratch
engine needs its own. Per BASELINE.json north_star the analyzer is
*code-aware*: camelCase / snake_case identifier splitting, lowercase,
alphanumeric tokens.

Two implementations with IDENTICAL semantics (rank-identity between the
distributed engine and the pure-Python oracle depends on it — both are
covered by the same golden tests):

- ``tokenize_py``          : pure Python ``re`` — used by the BM25 oracle and
                             for query strings (tiny inputs).
- ``tokenize_batch_arrow`` : vectorized RE2 kernels (``pyarrow.compute``) —
                             used inside ``map_batches`` on zero-copy Arrow
                             batches. Never loops over Python rows.

Pipeline (applied in this exact order in both implementations):
  1. acronym boundary   : ``([A-Z]+)([A-Z][a-z])`` → ``\\1 \\2``  (HTTPServer → HTTP Server)
  2. camel boundary     : ``([a-z0-9])([A-Z])``    → ``\\1 \\2``  (parseHttp → parse Http)
  3. lowercase
  4. split on ``[^a-z0-9]+`` (snake_case, paths, punctuation all split), drop
     empty tokens, truncate tokens to ``max_token_len`` chars.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CAMEL2 = r"([A-Z]+)([A-Z][a-z])"  # acronym→word boundary (applied first)
CAMEL1 = r"([a-z0-9])([A-Z])"  # lower/digit→upper boundary
SPLIT = r"[^a-z0-9]+"

_CAMEL2_RE = re.compile(CAMEL2)
_CAMEL1_RE = re.compile(CAMEL1)
_SPLIT_RE = re.compile(SPLIT)


def tokenize_py(text: str, max_token_len: int = 64) -> list[str]:
    """Reference (oracle) tokenizer. One string → list of tokens."""
    t = _CAMEL2_RE.sub(r"\1 \2", text)
    t = _CAMEL1_RE.sub(r"\1 \2", t)
    t = t.lower()
    return [tok[:max_token_len] for tok in _SPLIT_RE.split(t) if tok]


def tokenize_batch_arrow(
    content: pa.Array | pa.ChunkedArray, max_token_len: int = 64
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """Vectorized batch tokenizer.

    Returns ``(row_idx, token, doc_len)`` where ``row_idx`` (int64 ndarray)
    maps each token occurrence back to its row in the input batch, ``token``
    is a flat Arrow string array (one entry per occurrence, NOT deduplicated),
    and ``doc_len`` (int64 ndarray, len == batch rows) is the token count per
    row (the BM25 document length).

    All heavy lifting is native: the polars (rust-regex) path when
    available — measured 2.2x faster than the RE2 path at identical
    output (byte-identical tokens, row mapping and doc_len; pinned by
    test_tokenizer.py golden + property tests) — with the RE2/C++
    pyarrow.compute path as fallback and oracle-of-record.
    """
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    try:
        return _tokenize_batch_polars(content, max_token_len)
    except ImportError:
        return _tokenize_batch_re2(content, max_token_len)


def _tokenize_batch_re2(
    content: pa.Array, max_token_len: int
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """RE2/pyarrow.compute fallback path (and cross-check target)."""
    n = len(content)
    t = pc.replace_substring_regex(content, pattern=CAMEL2, replacement=r"\1 \2")
    t = pc.replace_substring_regex(t, pattern=CAMEL1, replacement=r"\1 \2")
    t = pc.utf8_lower(t)
    lists = pc.split_pattern_regex(t, pattern=SPLIT)
    # Null-safety: treat null content as zero tokens.
    if lists.null_count:
        lists = pc.fill_null(lists, [])
    lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) else lists
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = lists.flatten()
    row_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    # Drop empty tokens (split artifacts at string boundaries).
    keep = pc.not_equal(pc.utf8_length(flat), 0)
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    row_idx = row_idx[keep_np]
    flat = pc.utf8_slice_codeunits(flat, 0, max_token_len)
    doc_len = np.bincount(row_idx, minlength=n).astype(np.int64)
    return row_idx, flat, doc_len


def _tokenize_batch_polars(
    content: pa.Array, max_token_len: int
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """Polars implementation of the same 4-step pipeline. Extracting
    ``[a-z0-9]+`` runs IS splitting on ``[^a-z0-9]+`` with empties
    dropped — one scan replaces the Arrow path's split + empty-filter."""
    import polars as pl

    n = len(content)
    s = pl.Series("c", content)
    s = (s.str.replace_all(CAMEL2, "${1} ${2}")
         .str.replace_all(CAMEL1, "${1} ${2}")
         .str.to_lowercase())
    toks = s.str.extract_all(r"[a-z0-9]+")
    arr = toks.to_arrow().cast(pa.list_(pa.string()))
    if arr.null_count:  # null content -> zero tokens
        arr = pc.fill_null(arr, pa.scalar([], pa.list_(pa.string())))
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    flat = pc.utf8_slice_codeunits(arr.flatten(), 0, max_token_len)
    row_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    doc_len = np.bincount(row_idx, minlength=n).astype(np.int64)
    return row_idx, flat, doc_len


class TermTF(NamedTuple):
    """``term_tf`` output: per-occurrence encoding plus the distinct
    (row, term) pairs in (row, code) order."""

    enc: pa.DictionaryArray  # tokens, dictionary-encoded
    codes: np.ndarray        # int64 dictionary code per occurrence
    rows: np.ndarray         # int64 row of each distinct pair
    terms: np.ndarray        # int64 dictionary code of each pair
    tf: np.ndarray           # int64 occurrences of each pair


def term_tf(tokens: pa.Array, row_idx: np.ndarray) -> TermTF:
    """Term frequency per (row, term) of a batch's token stream — the
    one kernel behind posting emission, simhash weights and the df
    aggregations. Dictionary-encodes ``tokens`` once, then a single
    ``np.unique`` over the combined key ``row * |vocab| + code`` yields
    the distinct pairs and their counts; no Python loop per token."""
    enc = tokens.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nv = max(1, len(enc.dictionary))
    uniq, tf = np.unique(row_idx * nv + codes, return_counts=True)
    return TermTF(enc, codes, uniq // nv, uniq % nv, tf)


def rows_with_any(row_idx: np.ndarray, tokens: pa.Array, terms: list[str],
                  n_rows: int) -> np.ndarray:
    """Boolean mask over a batch's ``n_rows`` rows: True where the row's
    token stream holds at least one of ``terms``."""
    hit = pc.is_in(tokens, value_set=pa.array(terms, pa.string())) \
        .to_numpy(zero_copy_only=False)
    mask = np.zeros(n_rows, dtype=bool)
    mask[row_idx[hit]] = True
    return mask


# -- stemming (per-field analyzer option; IndexConfig.stem) -----------------

def stem_minimal_english(w: str) -> str:
    """Lucene's EnglishMinimalStemFilter (plural-only stemming — the ES
    ``minimal_english`` stemmer): strips a trailing plural ``s`` with
    the classic guards (the S-stemmer family, Harman "How effective is
    suffixing?" JASIS 1991 — the variant Lucene ships). Deliberately
    crude ("pies"→"py") so index, query side and the SQL oracle agree
    on EXACTLY the same rule."""
    if len(w) < 3 or not w.endswith("s"):
        return w
    p = w[-2]
    if p in ("u", "s"):
        return w
    if p == "e":
        if len(w) > 3 and w[-3] == "i" and w[-4] not in ("a", "e"):
            return w[:-3] + "y"
        if w[-3] in ("i", "a", "o", "e"):
            return w
    return w[:-1]


def stem_tokens_arrow(tokens: pa.Array) -> pa.Array:
    """Vectorized ``stem_minimal_english`` over a token array: two RE2
    passes + one if_else — no Python per token. Rule order matches the
    scalar exactly (property-tested):
    1. ``Xies$`` (X not a/e) → ``Xy``
    2. keep: len<3, or ends ss/us/[aeio]es
    3. otherwise strip the trailing ``s``."""
    t1 = pc.replace_substring_regex(tokens, r"([^ae])ies$",
                                    replacement=r"\1y")
    keep = pc.match_substring_regex(
        t1, r"^(?:.{0,2}|.*(?:ss|us|[aeio]es))$")
    stripped = pc.replace_substring_regex(t1, r"s$", replacement="")
    out = pc.if_else(keep, t1, stripped)
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) \
        else out


_STEMMERS = {"minimal_english": stem_minimal_english}


def analyze_py(text: str, max_token_len: int = 64,
               stem: str = "") -> list[str]:
    """tokenize_py + the configured stem filter — the scalar analyzer
    the query side uses so query terms hit the stemmed dictionary."""
    toks = tokenize_py(text, max_token_len)
    if stem:
        fn = _STEMMERS[stem]
        toks = [fn(t) for t in toks]
    return toks
