"""Positional phrase queries — the ES ``match_phrase`` analog.

The reference's Elasticsearch backend keeps token positions implicitly
(standard analyzer, reference core/elasticsearch.py index mappings) and
serves ``match_phrase`` from them; our from-scratch analog is the
positions sidecar written by the build (index/build.py build_positions):
``positions/part=P/*.parquet`` rows (term, doc_id, pos) sorted by
(term, doc_id, pos), hash-partitioned by term exactly like the postings.

Query plan (two-level pruning, nothing corpus-sized anywhere):

1. *Candidate conjunction* over the compressed postings index: the doc-id
   lists of the phrase's unique terms (already decoded shard-side and
   cached by the engine) intersect in ascending-df order — docs missing
   any term can never match the phrase, and the conjunction is usually
   orders of magnitude smaller than any single term's postings.
2. *Positional verification*, distributed: the candidate ids are chunked
   and each chunk is verified by a Ray task that reads ONLY the phrase
   terms' rows from the positions sidecar (partition-dir pruning by term
   hash + parquet row-group statistics on the sorted ``term``/``doc_id``
   columns) and counts phrase starts vectorized — for an m-term phrase a
   doc position p starts a match iff term_j occurs at p+j for all j, i.e.
   the intersection of the per-term (doc, pos - j) key sets.

Match counting is *overlapping* (every valid start position counts), the
same semantics as the SQL oracle's position comprehension.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pa_ds
import ray

PHRASE_RESULT_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("n_matches", pa.int64()),
])


def _empty_result() -> pa.Table:
    return PHRASE_RESULT_SCHEMA.empty_table()


def _require_positions(engine, what: str) -> None:
    if not engine.stats.get("store_positions"):
        raise ValueError(
            "index was built without the positions sidecar; rebuild with "
            f"IndexConfig(store_positions=True) to serve {what} queries")


def _verify(engine, task, cand: np.ndarray | None, chunk_docs: int,
            *args, **kw) -> pa.Table:
    """The one verify fan-out: ``task.remote(index_dir, lo, hi, cand,
    *args, **kw)`` per chunk, in one wave, the matched rows merged by
    doc_id. Candidate plan: ``cand`` (sorted ids) split into chunks of
    at most ``chunk_docs``. Range plan (``cand`` None): the whole doc-id
    space cut into ``chunk_docs``-wide ranges, each with no candidate
    array. Chunks stay below 2^31 docs, the key-pack range bound."""
    chunk_docs = min(chunk_docs, 2 ** 31 - 1)
    if cand is None:
        n_docs = int(engine.stats["n_docs"])
        chunks = [(lo, min(lo + chunk_docs - 1, n_docs - 1), None)
                  for lo in range(0, n_docs, chunk_docs)]
    else:
        if cand.size == 0:
            return _empty_result()
        chunks = [(int(c[0]), int(c[-1]), c) for c in np.array_split(
            cand, max(1, -(-cand.size // chunk_docs)))]
    tables = [t for t in ray.get([
        task.remote(engine.index_dir, lo, hi, c, *args, **kw)
        for lo, hi, c in chunks]) if t.num_rows]
    if not tables:
        return _empty_result()
    return pa.concat_tables(tables).sort_by("doc_id")


def _slot_positions(index_dir: str, slot: list[tuple[str, int]],
                    lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """All (doc_id, pos) occurrences in [lo, hi] of any of the slot's
    (term, part) alternatives — one alternative for a plain phrase slot,
    several for an expanded last-slot prefix (match_phrase_prefix)."""
    dids, poss = [], []
    by_part: dict[int, list[str]] = {}
    for t, p in slot:
        by_part.setdefault(p, []).append(t)
    for p, ts in by_part.items():
        pdir = os.path.join(index_dir, "positions", f"part={p}")
        tfilter = (pc.field("term") == ts[0] if len(ts) == 1
                   else pc.field("term").isin(ts))
        tbl = pa_ds.dataset(pdir, format="parquet").to_table(
            columns=["doc_id", "pos"],
            filter=tfilter
            & (pc.field("doc_id") >= lo) & (pc.field("doc_id") <= hi))
        dids.append(tbl["doc_id"].to_numpy(zero_copy_only=False))
        poss.append(tbl["pos"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))
    if not dids:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(dids), np.concatenate(poss)


@ray.remote(num_cpus=1)
def _phrase_verify(index_dir: str, lo: int, hi: int,
                   cand: np.ndarray | None,
                   slots: list[list[tuple[str, int]]]) -> pa.Table:
    """Verify one doc-id range [lo, hi] against the positions sidecar,
    optionally restricted to a sorted candidate-id array. ``slots`` is
    one list of (term, part) alternatives per phrase position.

    Keys pack (range-local doc offset, shifted position) into one int64 —
    range-local offsets keep the pack safe at any corpus size (a raw
    doc_id * 2^32 pack would overflow at 10^12 docs); callers bound the
    range width below 2^31 docs."""
    keys: np.ndarray | None = None
    for j, slot in enumerate(slots):
        did, pos = _slot_positions(index_dir, slot, lo, hi)
        if cand is not None and did.size:
            # keep occurrences of candidate docs only (the range filter
            # may admit non-candidates between lo and hi)
            r = np.searchsorted(cand, did)
            r_clip = np.minimum(r, cand.size - 1)
            ok = cand[r_clip] == did
            did, pos = did[ok], pos[ok]
        shifted = pos - j
        ok2 = shifted >= 0
        kj = ((did[ok2] - lo) << 32) | shifted[ok2]
        # keys are unique within a slot (one token occupies a (doc, pos)
        # slot, so alternatives never collide); intersect1d sorts
        # internally
        keys = kj if keys is None else np.intersect1d(
            keys, kj, assume_unique=True)
        if keys.size == 0:
            return _empty_result()
    match_docs, counts = np.unique(keys >> 32, return_counts=True)
    return pa.table({
        "doc_id": pa.array(match_docs + lo, pa.int64()),
        "n_matches": pa.array(counts.astype(np.int64), pa.int64()),
    })


@ray.remote(num_cpus=1)
def _proximity_verify(index_dir: str, lo: int, hi: int,
                      cand: np.ndarray | None,
                      slot1: list[tuple[str, int]],
                      slot2: list[tuple[str, int]], window: int,
                      mode: str) -> pa.Table:
    """Count, per doc in [lo, hi], the (i, j) position pairs with
    term1@i, term2@j qualifying under ``mode``:

    - ``unordered``: |i - j| <= window (ES span_near unordered)
    - ``ordered``: j > i with j - i - 1 <= window (ES intervals
      ``ordered`` + ``max_gaps``, window = max_gaps)
    - ``slop``: |j - i - 1| <= window — the Lucene SloppyPhraseScorer
      two-term distance (expected gap 1; reversal costs 2 moves, so
      "b a" adjacent matches at slop >= 2), window = slop

    Pair counting is two searchsorteds over packed (doc, pos) keys: for
    every term1 occurrence the qualifying term2 occurrences form one
    contiguous key range (positions never approach the 2^32 pack
    boundary, so ranges cannot leak across docs)."""
    d1, p1 = _slot_positions(index_dir, slot1, lo, hi)
    d2, p2 = _slot_positions(index_dir, slot2, lo, hi)
    if cand is not None:
        for i, (d, p) in enumerate(((d1, p1), (d2, p2))):
            r = np.searchsorted(cand, d)
            r_clip = np.minimum(r, cand.size - 1)
            ok = cand[r_clip] == d
            if i == 0:
                d1, p1 = d[ok], p[ok]
            else:
                d2, p2 = d[ok], p[ok]
    if d1.size == 0 or d2.size == 0:
        return _empty_result()
    k1 = ((d1 - lo) << 32) | p1
    k2 = np.sort(((d2 - lo) << 32) | p2)
    if mode == "ordered":
        hi_idx = np.searchsorted(k2, k1 + window + 1, side="right")
        lo_idx = np.searchsorted(k2, k1, side="right")
    elif mode == "slop":
        hi_idx = np.searchsorted(k2, k1 + 1 + window, side="right")
        lo_idx = np.searchsorted(k2, k1 + 1 - window, side="left")
    else:
        hi_idx = np.searchsorted(k2, k1 + window, side="right")
        lo_idx = np.searchsorted(k2, k1 - window, side="left")
    pair_counts = hi_idx - lo_idx
    docs = np.unique(d1)
    sums = np.zeros(docs.size, dtype=np.int64)
    np.add.at(sums, np.searchsorted(docs, d1), pair_counts)
    m = sums > 0
    return pa.table({
        "doc_id": pa.array(docs[m], pa.int64()),
        "n_matches": pa.array(sums[m], pa.int64()),
    })


def proximity_match(engine, term1: str, term2: str, window: int = 3,
                    chunk_docs: int = 200_000,
                    candidate_max_df: int = 5_000_000,
                    mode: str = "unordered") -> pa.Table:
    """ES span_near (unordered) analog: docs where an occurrence of
    ``term1`` and one of ``term2`` sit within ``window`` tokens;
    n_matches counts every qualifying (i, j) occurrence pair. With
    ``mode="ordered"`` this becomes the ES intervals-query ``match``
    with ``ordered: true, max_gaps: window`` — term2 strictly after
    term1 with at most ``window`` tokens between them. With
    ``mode="slop"`` it is ES match_phrase-with-slop for a two-term
    phrase (Lucene sloppy distance |j - i - 1| <= slop, window = slop).
    The two terms must be distinct single tokens (identical terms would
    count each occurrence paired with itself)."""
    from ..analysis.tokenizer import tokenize_py
    from ..index.build import term_partition

    _require_positions(engine, "proximity")
    t1 = tokenize_py(term1, int(engine.stats["max_token_len"]))
    t2 = tokenize_py(term2, int(engine.stats["max_token_len"]))
    if len(t1) != 1 or len(t2) != 1 or t1 == t2:
        raise ValueError("proximity_match takes two distinct single terms")
    if mode not in ("unordered", "ordered", "slop"):
        raise ValueError(f"unknown proximity mode: {mode}")
    if window < (1 if mode == "unordered" else 0):
        raise ValueError("window must be >= 1 (>= 0 for ordered/slop)")
    t1, t2 = t1[0], t2[0]
    dfs = engine._term_dfs([t1, t2])
    if dfs[t1] == 0 or dfs[t2] == 0:
        return _empty_result()
    slot1 = [(t1, term_partition(t1, engine.P))]
    slot2 = [(t2, term_partition(t2, engine.P))]
    cand = None
    if min(dfs[t1], dfs[t2]) <= candidate_max_df:
        engine._ensure_contribs([t1, t2])
        h1, h2 = (engine._contrib_cache.get(t1),
                  engine._contrib_cache.get(t2))
        if h1 is None or h2 is None:
            return _empty_result()
        cand = np.intersect1d(h1[0], h2[0], assume_unique=True)
    return _verify(engine, _proximity_verify, cand, chunk_docs, slot1,
                   slot2, window, mode)


def phrase_match(engine, phrase: str, chunk_docs: int = 200_000,
                 candidate_max_df: int = 5_000_000,
                 restrict_ids=None) -> pa.Table:
    """All docs containing ``phrase`` as a consecutive token sequence,
    with overlapping-match counts: (doc_id, n_matches) sorted by doc_id.

    ``engine`` is a SearchEngine over an index built with
    ``store_positions=True``. ``chunk_docs`` bounds one verify task's
    doc range / candidate set (and thereby its positions read + key
    arrays).

    Two plans, both exact:

    - **Candidate plan** (rarest term's df <= ``candidate_max_df``): the
      unique terms' posting id lists intersect in ascending-df order,
      then the candidate ids are chunked across verify tasks. Sharpest
      positions pruning; costs one decoded posting list per term on the
      driver, so it is capped by df.
    - **Range plan** (every term hot): the global doc-id space is cut
      into ``chunk_docs``-wide ranges and each range verifies
      independently straight from the sidecar — no posting decode, no
      driver-side array of any df-dependent size; the conjunction
      happens inside each range task via the same key intersection.
    """
    from ..analysis.tokenizer import tokenize_py

    terms = tokenize_py(phrase, int(engine.stats["max_token_len"]))
    if not terms:
        return _empty_result()
    return _run_phrase(engine, [[t] for t in terms], chunk_docs,
                       candidate_max_df, restrict_ids=restrict_ids)


def phrase_prefix_match(engine, phrase: str, max_expansions: int = 64,
                        chunk_docs: int = 200_000,
                        candidate_max_df: int = 5_000_000) -> pa.Table:
    """ES ``match_phrase_prefix``: the last token is treated as a prefix
    and expanded against the shard dictionaries (capped at the
    ``max_expansions`` highest-df terms, the ES rewrite); a position
    matches when the leading tokens match exactly and the last slot
    matches ANY expansion. Same exact verify machinery as phrase_match —
    the last slot just carries several (term, part) alternatives."""
    from ..analysis.tokenizer import tokenize_py

    terms = tokenize_py(phrase, int(engine.stats["max_token_len"]))
    if not terms:
        return _empty_result()
    expansions = engine.expand_prefix(terms[-1],
                                      max_expansions)["term"].to_pylist()
    if not expansions:
        return _empty_result()
    slots = [[t] for t in terms[:-1]] + [list(expansions)]
    return _run_phrase(engine, slots, chunk_docs, candidate_max_df)


def _run_phrase(engine, slots: list[list[str]], chunk_docs: int,
                candidate_max_df: int, restrict_ids=None) -> pa.Table:
    """Shared planner: candidate conjunction when some slot is cheap to
    decode, doc-range partitioning when every slot is hot. With
    ``restrict_ids`` (a small id set, e.g. a rescore window) only those
    docs are ever verified — the range plan is never needed."""
    from ..index.build import term_partition

    _require_positions(engine, "phrase")
    uniq = sorted({t for slot in slots for t in slot})
    dfs = engine._term_dfs(uniq)
    slot_dfs = [sum(dfs[t] for t in slot) for slot in slots]
    if any(d == 0 for d in slot_dfs):
        return _empty_result()
    part_slots = [[(t, term_partition(t, engine.P)) for t in slot
                   if dfs[t] > 0] for slot in slots]
    cand = None
    if restrict_ids is not None:
        cand = np.unique(np.asarray(restrict_ids, dtype=np.int64))
    elif min(slot_dfs) <= candidate_max_df:
        engine._ensure_contribs(uniq)
        per_slot = []
        for slot, d in zip(slots, slot_dfs):
            ids = engine._union_ids(slot)
            if not ids.size:
                return _empty_result()
            per_slot.append((d, ids))
        per_slot.sort(key=lambda x: x[0])
        cand = per_slot[0][1]
        for _, ids in per_slot[1:]:
            cand = np.intersect1d(cand, ids, assume_unique=True)
            if cand.size == 0:
                return _empty_result()
    return _verify(engine, _phrase_verify, cand, chunk_docs, part_slots)


@ray.remote(num_cpus=1)
def _span_occ_verify(index_dir: str, lo: int, hi: int,
                     cand: np.ndarray | None,
                     slot: list[tuple[str, int]],
                     max_end: int | None = None,
                     excl_slot: list[tuple[str, int]] | None = None,
                     pre: int = 0, post: int = 0) -> pa.Table:
    """Per-doc counts of the include slot's occurrences in [lo, hi]
    surviving the span predicates: ``max_end`` keeps occurrences whose
    single-term span ends at or before it (0-based pos + 1 <= max_end,
    Lucene span_first), ``excl_slot`` removes occurrences with ANY
    exclude occurrence in [pos - pre, pos + post] (Lucene span_not).
    Exclusion reuses the packed-key range count of _proximity_verify:
    pre/post never reach the 2^32 pack boundary, so a window that
    underflows a doc's position 0 cannot leak into the previous doc's
    key range."""
    did, pos = _slot_positions(index_dir, slot, lo, hi)
    if cand is not None and did.size:
        r = np.searchsorted(cand, did)
        ok = cand[np.minimum(r, cand.size - 1)] == did
        did, pos = did[ok], pos[ok]
    if max_end is not None and did.size:
        m = pos + 1 <= max_end
        did, pos = did[m], pos[m]
    if excl_slot is not None and did.size:
        d2, p2 = _slot_positions(index_dir, excl_slot, lo, hi)
        if d2.size:
            k1 = ((did - lo) << 32) | pos
            k2 = np.sort(((d2 - lo) << 32) | p2)
            hi_idx = np.searchsorted(k2, k1 + post, side="right")
            lo_idx = np.searchsorted(k2, k1 - pre, side="left")
            keep = (hi_idx - lo_idx) == 0
            did, pos = did[keep], pos[keep]
    if did.size == 0:
        return _empty_result()
    docs, counts = np.unique(did, return_counts=True)
    return pa.table({
        "doc_id": pa.array(docs, pa.int64()),
        "n_matches": pa.array(counts.astype(np.int64), pa.int64()),
    })


def _run_span_occ(engine, term: str, chunk_docs: int,
                  candidate_max_df: int, **kw) -> pa.Table:
    """Shared planner for the single-include-slot span queries
    (span_first / span_not): candidate plan from the include term's
    postings when its df is decodable, doc-range plan otherwise — the
    same two exact plans as phrase_match."""
    from ..analysis.tokenizer import tokenize_py
    from ..index.build import term_partition

    _require_positions(engine, "span")
    toks = tokenize_py(term, int(engine.stats["max_token_len"]))
    if len(toks) != 1:
        raise ValueError("span queries take a single include term")
    t = toks[0]
    df = engine._term_dfs([t])[t]
    if df == 0:
        return _empty_result()
    cand = None
    if df <= candidate_max_df:
        engine._ensure_contribs([t])
        hit = engine._contrib_cache.get(t)
        if hit is None:
            return _empty_result()
        cand = hit[0]
    return _verify(engine, _span_occ_verify, cand, chunk_docs,
                   [(t, term_partition(t, engine.P))], **kw)


def span_first_match(engine, term: str, end: int,
                     chunk_docs: int = 200_000,
                     candidate_max_df: int = 5_000_000) -> pa.Table:
    """ES ``span_first``: occurrences of ``term`` whose span ends at or
    before position ``end`` — for a single-term span, 0-based pos + 1 <=
    end, i.e. the term appears among the first ``end`` tokens. Returns
    (doc_id, n_matches) over docs with at least one qualifying
    occurrence."""
    if end < 1:
        raise ValueError("end must be >= 1")
    return _run_span_occ(engine, term, chunk_docs, candidate_max_df,
                         max_end=int(end))


def span_not_match(engine, include: str, exclude: str, pre: int = 0,
                   post: int = 0, chunk_docs: int = 200_000,
                   candidate_max_df: int = 5_000_000) -> pa.Table:
    """ES ``span_not``: occurrences of ``include`` with NO occurrence of
    ``exclude`` within ``pre`` tokens before or ``post`` tokens after
    (Lucene span_not dist semantics on single-term spans). Returns
    (doc_id, n_matches) counting the surviving include occurrences; docs
    where every occurrence is excluded drop out entirely."""
    from ..analysis.tokenizer import tokenize_py
    from ..index.build import term_partition

    if pre < 0 or post < 0:
        raise ValueError("pre/post must be >= 0")
    toks = tokenize_py(exclude, int(engine.stats["max_token_len"]))
    if len(toks) != 1:
        raise ValueError("span_not takes a single exclude term")
    ex = toks[0]
    if engine._term_dfs([ex])[ex] == 0:
        # nothing to exclude: degrade to plain occurrence counting
        return _run_span_occ(engine, include, chunk_docs,
                             candidate_max_df)
    excl_slot = [(ex, term_partition(ex, engine.P))]
    return _run_span_occ(engine, include, chunk_docs, candidate_max_df,
                         excl_slot=excl_slot, pre=int(pre),
                         post=int(post))


def span_or_match(engine, terms: list[str], chunk_docs: int = 200_000,
                  candidate_max_df: int = 5_000_000) -> pa.Table:
    """ES ``span_or`` over single-term clauses: per doc, the count of
    occurrences of ANY of the terms (clause spans never collide — two
    distinct terms cannot occupy one position, so the union count is
    the plain sum). Reuses the slot-alternatives machinery: ONE slot
    carrying every clause as an alternative, driven through the same
    candidate/range planner as span_first."""
    from ..analysis.tokenizer import tokenize_py
    from ..index.build import term_partition

    _require_positions(engine, "span")
    mtl = int(engine.stats["max_token_len"])
    toks = sorted({t for raw in terms for t in tokenize_py(raw, mtl)})
    dfs = engine._term_dfs(toks)
    live = [t for t in toks if dfs[t] > 0]
    if not live:
        return _empty_result()
    cand = None
    if sum(dfs[t] for t in live) <= candidate_max_df:
        engine._ensure_contribs(live)
        cand = engine._union_ids(live)
    return _verify(engine, _span_occ_verify, cand, chunk_docs,
                   [(t, term_partition(t, engine.P)) for t in live])


@ray.remote(num_cpus=1)
def _span_contain_verify(index_dir: str, lo: int, hi: int,
                         cand: np.ndarray | None, big1_slot, big2_slot,
                         little_slot, max_dist: int,
                         mode: str) -> pa.Table:
    """Per-doc counts for span_containing / span_within in [lo, hi].

    Big spans are Lucene-minimal ordered spans: for each occurrence i
    of the first big term, the FIRST occurrence j of the last big term
    with i < j <= i + max_dist (packed-key searchsorted — a span can
    never cross a doc boundary because positions sit in the low 32
    bits and max_dist never reaches the pack boundary).

    mode='containing': count big spans holding >= 1 little occurrence
    (range count over the little keys). mode='within': count little
    occurrences inside >= 1 big span — spans are width-bounded
    (<= max_dist), so the contained-position set is materialized by a
    bounded repeat/arange expansion and membership is one np.isin."""
    d1, p1 = _slot_positions(index_dir, big1_slot, lo, hi)
    if cand is not None and d1.size:
        r = np.searchsorted(cand, d1)
        ok = cand[np.minimum(r, cand.size - 1)] == d1
        d1, p1 = d1[ok], p1[ok]
    if d1.size == 0:
        return _empty_result()
    d2, p2 = _slot_positions(index_dir, big2_slot, lo, hi)
    if d2.size == 0:
        return _empty_result()
    d3, p3 = _slot_positions(index_dir, little_slot, lo, hi)
    if d3.size == 0:
        return _empty_result()
    k1 = ((d1 - lo) << 32) | p1
    k2 = np.sort(((d2 - lo) << 32) | p2)
    k3 = np.sort(((d3 - lo) << 32) | p3)
    idx = np.searchsorted(k2, k1 + 1, side="left")
    ok = idx < k2.size
    jk = k2[np.minimum(idx, k2.size - 1)]
    ok &= jk <= k1 + max_dist
    spans_i, spans_j = k1[ok], jk[ok]
    if spans_i.size == 0:
        return _empty_result()
    if mode == "containing":
        lo_idx = np.searchsorted(k3, spans_i, side="left")
        hi_idx = np.searchsorted(k3, spans_j, side="right")
        keys = spans_i[(hi_idx - lo_idx) > 0]
    elif mode == "within":
        w1 = (spans_j - spans_i).astype(np.int64) + 1
        starts = np.zeros(w1.size, dtype=np.int64)
        np.cumsum(w1[:-1], out=starts[1:])
        offs = (np.arange(int(w1.sum()), dtype=np.int64)
                - np.repeat(starts, w1))
        pos_keys = np.repeat(spans_i, w1) + offs
        keys = k3[np.isin(k3, pos_keys)]
    else:
        raise ValueError(f"unknown span containment mode: {mode}")
    if keys.size == 0:
        return _empty_result()
    docs, counts = np.unique((keys >> 32) + lo, return_counts=True)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "n_matches": pa.array(counts.astype(np.int64), pa.int64()),
    })


def span_contain_match(engine, big_first: str, big_last: str,
                       little: str, max_dist: int = 6,
                       mode: str = "containing",
                       chunk_docs: int = 200_000,
                       candidate_max_df: int = 5_000_000) -> pa.Table:
    """ES ``span_containing`` / ``span_within`` over single-term
    clauses: big = the minimal ordered span (big_first ... big_last)
    with span length <= max_dist positions; little = a single term.
    'containing' returns per-doc counts of big spans that hold a
    little occurrence; 'within' counts little occurrences enclosed by
    a big span. Same two exact plans as the other span queries:
    candidate (intersection of the three posting lists) when the dfs
    are decodable, doc-range chunks otherwise."""
    from ..analysis.tokenizer import tokenize_py
    from ..index.build import term_partition

    _require_positions(engine, "span")
    if max_dist < 1:
        raise ValueError("max_dist must be >= 1")
    mtl = int(engine.stats["max_token_len"])
    terms = []
    for raw in (big_first, big_last, little):
        toks = tokenize_py(raw, mtl)
        if len(toks) != 1:
            raise ValueError(
                f"span clauses take single terms, got {raw!r}")
        terms.append(toks[0])
    t1, t2, t3 = terms
    dfs = engine._term_dfs(terms)
    if min(dfs.values()) == 0:
        return _empty_result()
    slots = [[(t, term_partition(t, engine.P))] for t in terms]
    cand = None
    if sum(dfs.values()) <= candidate_max_df:
        engine._ensure_contribs(terms)
        id_sets = [engine._contrib_cache[t][0] for t in terms
                   if engine._contrib_cache.get(t) is not None]
        if len(id_sets) < 3:
            return _empty_result()
        cand = np.intersect1d(np.intersect1d(id_sets[0], id_sets[1]),
                              id_sets[2])
    return _verify(engine, _span_contain_verify, cand, chunk_docs, *slots,
                   int(max_dist), mode)
