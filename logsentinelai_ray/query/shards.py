"""IndexShard pool (in process, or one actor per shard) + the driver-side
SearchEngine.

The shards are the stateful analog of the reference's GeoIP reader — load
once in ``__init__``, serve every query after (reference core/geoip.py:32-59
loads the mmdb once into a singleton). Each shard owns one or more term
partitions' segment files: the dictionary (term → row) lives in memory, the
compressed posting streams stay as Arrow binary buffers.

Query flow (term-partitioned index):
  tokenize query → route each term to the shard owning hash(term) % P →
  shards return the terms' compressed segment rows (bytes move once per
  query, decoded lazily per block) → the driver runs block-max WAND across
  all terms → joins the doc map for (repo, path, lang, sha256).

Per-term score assembly must happen at a single point in a term-partitioned
layout, so WAND runs at the coordinator over shard-served compressed blocks;
shards keep the memory-heavy state. (A doc-partitioned layout would run WAND
shard-side and merge heaps; the term-partitioned layout is mandated by the
north star's hash-partitioned-by-term build.) Keyword filters (lang/repo)
are field posting lists — decoded once per query into a sorted doc-id array,
membership-tested via binary search during WAND evaluation.

Scale notes (10^12 docs): the doc map join at the end reads only the k
result rows via parquet row-group pruning on dense doc_id; nothing on the
query path holds an N-sized array.
"""

from __future__ import annotations

import math
import os
import re
from collections import OrderedDict
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq
import ray

from ..analysis.tokenizer import tokenize_py
from ..index import manifest as mf
from ..index.build import term_partition
from .bm25 import bm25_idf
from .postings import PostingsCursor, TermPostings
from .wand import block_max_wand_vec


# query_string lexer: optional +/- sign, then a quoted phrase or a bare
# token (field:value tokens are recognized by the parser, not the lexer)
_QS_TOKEN = re.compile(r'([+-]?)("([^"]*)"|\S+)')

# keyword fields that may appear as field:value filters in query_string
_QS_FILTER_FIELDS = ("lang", "repo")


def parse_query_string(qs: str) -> dict:
    """Parse the ES query_string mini-language into clause lists:
    ``{"must": [...], "should": [...], "must_not": [...],
    "phrases": [...], "filters": {field: value}}``. Pure function —
    see SearchEngine.query_string for the execution semantics."""
    must, should, must_not, phrases = [], [], [], []
    neg_phrases: list[str] = []
    filters: dict[str, str] = {}
    impossible = False
    for m in _QS_TOKEN.finditer(qs):
        sign, raw, quoted = m.group(1), m.group(2), m.group(3)
        if quoted is not None:
            # -"a b" excludes the phrase (ES must_not); +"a b" and a bare
            # quoted phrase both require it
            (neg_phrases if sign == "-" else phrases).append(quoted)
            continue
        if not sign and ":" in raw:
            f, v = raw.split(":", 1)
            if f in _QS_FILTER_FIELDS and v:
                # repeated filters on one field AND together (ES bool
                # filter context); lang/repo are single-valued per doc,
                # so two distinct required values can match nothing
                if f in filters and filters[f] != v:
                    impossible = True
                else:
                    filters[f] = v
                continue
        (must if sign == "+" else
         must_not if sign == "-" else should).append(raw)
    return {"must": must, "should": should, "must_not": must_not,
            "phrases": phrases, "neg_phrases": neg_phrases,
            "filters": filters, "impossible": impossible}


def _levenshtein_leq(a: str, b: str, k: int) -> bool:
    """True iff Levenshtein distance(a, b) <= k. Full-row DP with a
    row-min early exit — terms are <= 64 chars and the length prefilter
    keeps the candidate set small, so O(len^2) per survivor is cheap."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        ai = a[i - 1]
        cur = [i]
        for j in range(1, lb + 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ai != b[j - 1])))
        if min(cur) > k:
            return False
        prev = cur
    return prev[lb] <= k


def _damerau_leq(a: str, b: str, k: int) -> bool:
    """True iff UNRESTRICTED Damerau–Levenshtein distance(a, b) <= k —
    the Lowrance–Wagner matrix (transpositions may later be edited
    into, e.g. 'ca'→'abc' = 2), matching DuckDB's
    ``damerau_levenshtein`` exactly so the oracle predicate is
    identical. Terms are <= 64 chars; the length prefilter keeps the
    candidate set small."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    inf = la + lb
    da: dict[str, int] = {}
    d = [[inf] * (lb + 2) for _ in range(la + 2)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j
    for i in range(1, la + 1):
        db = 0
        for j in range(1, lb + 1):
            i1 = da.get(b[j - 1], 0)
            j1 = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,          # substitute / match
                d[i + 1][j] + 1,         # insert
                d[i][j + 1] + 1,         # delete
                d[i1][j1] + (i - i1 - 1) + 1 + (j - j1 - 1))  # transp.
        da[a[i - 1]] = i
    return d[la + 1][lb + 1] <= k


# IndexShard.scan_terms: the sort orders a dictionary scan ranks by —
# the ES top_terms_N rewrite (df desc), rare_terms (df asc), and
# terms_enum / keyword listing (term asc). Terms are unique, so each
# order is total and per-shard heads merge losslessly on the driver.
_SCAN_ORDERS = {
    "df": [("df", "descending"), ("term", "ascending")],
    "rare": [("df", "ascending"), ("term", "ascending")],
    "term": [("term", "ascending")],
}


def _first_rows(tables: list[pa.Table], order: str,
                limit: int) -> pa.Table:
    """The first ``limit`` (term, df) rows of ``tables`` in ``order``:
    a shard's scan result, and the driver's merge of those results."""
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    cat = pa.concat_tables(tables)
    idx = pc.sort_indices(cat, sort_keys=_SCAN_ORDERS[order])
    return cat.take(idx.slice(0, limit))


# scan_terms predicates, (terms, dfs) -> keep mask, sent to the shards
# bound with functools.partial; field terms ("lang:x") are content
# terms' exception and only _match_prefix(fields=True) keeps them
def _content(terms):
    return pc.invert(pc.match_substring(terms, ":"))


def _match_prefix(prefix: str, fields: bool, terms, dfs):
    m = pc.starts_with(terms, prefix)
    return m if fields else pc.and_(m, _content(terms))


def _match_regex(pattern: str, terms, dfs):
    """RE2 full match (ES regexp query)."""
    return pc.and_(pc.match_substring_regex(terms, f"^(?:{pattern})$"),
                   _content(terms))


def _match_rare(max_df: int, terms, dfs):
    return pc.and_(pc.less_equal(dfs, max_df), _content(terms))


def _match_fuzzy(term: str, max_edits: int, transpositions: bool,
                 terms, dfs):
    """Within ``max_edits`` Levenshtein edits (Damerau–Levenshtein with
    ``transpositions``, the ES ``fuzziness`` default): two vectorized
    prefilters, then the DP on the small survivor set. Both bound the
    distance from below, since an edit changes a length or a character
    count by at most one and a transposition changes neither: the
    length difference, and the bag distance (the larger of the
    character counts one string has and the other lacks). An automaton
    intersection would beat the scan at huge vocabularies."""
    lens = pc.utf8_length(terms)
    m = pc.and_(pc.and_(pc.greater_equal(lens, len(term) - max_edits),
                        pc.less_equal(lens, len(term) + max_edits)),
                _content(terms))
    keep = np.array(m, dtype=bool)
    cand = np.flatnonzero(keep)
    sub = terms.take(cand)
    lacks = np.zeros(cand.size, np.int64)   # query chars a term lacks
    for ch in set(term):
        have = pc.count_substring(sub, ch).to_numpy()
        lacks += np.maximum(term.count(ch) - have, 0)
    extra = lens.take(cand).to_numpy() - (len(term) - lacks)
    near = np.maximum(lacks, extra) <= max_edits
    keep[cand[~near]] = False
    pred = _damerau_leq if transpositions else _levenshtein_leq
    for i, t in zip(cand[near], sub.filter(pa.array(near)).to_pylist()):
        keep[i] = pred(term, t, max_edits)
    return pa.array(keep)


def _check_boost(name: str, value) -> None:
    """A score multiplier must be >= 0: a negative one would flip the
    sign of the scores it touches, and every selection keeps scores > 0
    only, so those documents would silently vanish. Elasticsearch
    rejects negative scores the same way."""
    if not float(value) >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _gather(refs: dict) -> dict:
    """Wait for a wave of shard calls: {key: ObjectRef or Future} ->
    {key: result}, with one ``ray.get`` for the refs. A federated wave
    can mix both, since its members may serve in different modes."""
    keys = [k for k, r in refs.items() if isinstance(r, ray.ObjectRef)]
    got = dict(zip(keys, ray.get([refs[k] for k in keys]))) if keys else {}
    return {k: got[k] if k in got else r.result() for k, r in refs.items()}


# shard count: one shard per SHARD_SEGMENT_BYTES of segments, at least
# one and at most MAX_SHARDS — sized by bytes, as Elasticsearch sizes
# its shards; an index served by actors (above LOCAL_SEGMENT_BYTES) so
# always gets MAX_SHARDS of them. Why 4 MiB and not 16: each shard
# prewarms its own top prewarm_hot_terms terms, so fewer shards
# prewarm fewer terms; on a 40k-doc index (15.6 MB of segments) one
# shard prewarmed 18 of the 36 terms of a 17-template hot mix against 33
# for four, and its first pass over the templates took 135-207 ms
# against 62-108 ms. The same count and partition assignment hold in
# process, so both modes prewarm the same terms
SHARD_SEGMENT_BYTES = 4 << 20
MAX_SHARDS = 4
# an index of at most LOCAL_SEGMENT_BYTES of segments serves its shards
# in process: the driver holds them and no IndexShard process starts,
# which saves ~200 MB of RSS per shard and ~1 s of actor start per
# engine open (8k docs, 2.9 MB of segments, 4 CPUs). The budget is the
# measured crossover of the cold pass (open + wait_prewarm + one pass
# of the 17 hot templates; 4 shards, 4 CPUs, two rounds of 3
# alternating pairs per size, in process vs actors): 0.82-0.97 s vs
# 1.41-2.13 s at 15.6 MB of segments (in process faster in 6/6 pairs),
# 1.52-1.77 s vs 1.70-2.50 s at 30.9 MB (6/6), 2.10-2.51 s vs 2.22-2.86
# s at 46.2 MB (5/6), and 2.42-3.27 s vs 2.58-2.91 s at 61.4 MB (1/6).
# What turns it is wait_prewarm, which grows with the index and which
# one process decodes at about half the speed of 4 (1.9-2.6 s vs
# 1.1-1.4 s at 61.4 MB). Every size favours in process on open
# (0.32-0.64 s vs 1.05-1.43 s at 61.4 MB), on the long-tail WAND p50
# (9.0-9.9 ms vs 14.7-17.1 ms) and on total RSS (median driver 1.7 GB
# vs 1.2 GB plus 1.5 GB of shard processes). The budget sits just above
# the last size where in process won the cold pass; a larger index
# keeps the actors, whose processes decode its prewarm set in parallel
LOCAL_SEGMENT_BYTES = 48 << 20


def _segment_bytes(index_dir: str) -> int:
    """On-disk bytes of the ``segments/part-*.parquet`` files: what the
    shard count and the serving mode are sized by."""
    seg = os.path.join(index_dir, "segments")
    if not os.path.isdir(seg):
        return 0
    return sum(e.stat().st_size for e in os.scandir(seg)
               if e.name.startswith("part-")
               and e.name.endswith(".parquet"))


def shard_count(segment_bytes: int, num_partitions: int,
                num_shards: int | None = None) -> int:
    """Shards for an engine over ``segment_bytes`` of segments (see
    ``_segment_bytes``): an explicit ``num_shards`` (capped at the
    partition count), else ``ceil(segment_bytes / SHARD_SEGMENT_BYTES)``
    clamped to ``[1, min(MAX_SHARDS, num_partitions)]``."""
    if num_shards:
        return min(num_shards, num_partitions)
    return max(1, min(-(-segment_bytes // SHARD_SEGMENT_BYTES), MAX_SHARDS,
                      num_partitions))


_BLOCK_FIELDS = ("block_first", "block_last", "block_count", "block_max",
                 "block_doc_off", "block_tf_off", "block_dl_off")


def _posting_row(tbl: pa.Table, i: int) -> dict:
    """Row ``i`` of a segment table as a ``TermPostings`` row: zero-copy
    numpy views of the block metadata (a hot term has ~n_docs/block_size
    entries — materializing Python lists here dominated first-query
    latency) and the three posting streams as bytes."""
    row: dict = {"term": tbl["term"][i].as_py(), "df": tbl["df"][i].as_py()}
    for f in _BLOCK_FIELDS:
        row[f] = tbl[f][i].values.to_numpy(zero_copy_only=False)
    for f in ("doc_data", "tf_data", "dl_data"):
        row[f] = tbl[f][i].as_py()
    return row


def _string_buffers(col: pa.Array) -> tuple[memoryview, memoryview]:
    """(value offsets, data buffer) of a string array as memoryviews, so
    ``data[offs[i]:offs[i + 1]]`` is row i's UTF-8 bytes without a copy.
    The data view is unsigned ("B"): an Arrow buffer exports signed chars,
    and a signed view compares unequal to the same non-ASCII bytes."""
    _, off_buf, data = col.buffers()
    fmt = "q" if pa.types.is_large_string(col.type) else "i"
    offs = memoryview(off_buf).cast(fmt)[col.offset:col.offset + len(col) + 1]
    return offs, memoryview(data if data is not None else b"").cast("B")


class IndexShard:
    """Owns the segment files of a set of term partitions.

    Reads: posting rows by term (``get_terms``), document frequencies
    (``term_dfs``), shard-side decodes (``decode_term`` BM25,
    ``decode_raw`` raw tf + dl), and ONE dictionary scan,
    ``scan_terms`` (a predicate, a sort order and a limit), behind every
    expansion and term listing. The driver reaches a shard only through
    ``SearchEngine``'s round helpers. A plain class: an engine over a
    small index holds its shards in process, a larger one runs each as
    an ``_IndexShardActor`` process.

    One storage path, as Lucene serves a segment: only the dictionary
    columns (term, df) of each part file stay resident, a
    term is found by binary search of its partition's sorted term
    column, and full segment rows (posting streams + block-max
    metadata) load lazily per parquet ROW GROUP into an LRU.
    ``max_resident_bytes`` caps that LRU's bytes (the 100-TB story:
    total segment bytes across an index can exceed any one node's
    heap); None means no cap, so nothing evicts. The cap changes only
    residency, never a result, which ``test_memory_bound.py`` pins
    (identical ranks under a cap smaller than total segment bytes, with
    observed evictions)."""

    def __init__(self, index_dir: str, parts: list[int],
                 max_resident_bytes: int | None = None):
        self.parts = list(parts)
        # per part file: its (term, df) columns
        self.tables: list[pa.Table] = []
        # the dictionary is each table's sorted term column itself
        # (~len+12 bytes/term), binary-searched at lookup time through
        # its (value offsets, data buffer) memoryviews, instead of a
        # Python dict whose ~160 bytes/term would dwarf the posting LRU
        # at a 1e7-term vocabulary. Segments are written term-sorted
        # (segments.py merge_runs sort_by term), which the constructor
        # asserts before trusting the search.
        self._term_bufs: list[tuple[memoryview, memoryview]] = []
        # a term lives only in partition term_partition(term, P), so a
        # lookup searches that partition's table alone
        self._part_table: dict[int, int] = {}
        # refuses an index whose posting format this engine cannot read
        self.P = int(mf.read_stats(index_dir)["num_partitions"])
        self.max_resident = (float("inf") if max_resident_bytes is None
                             else max_resident_bytes)
        import threading

        # calls run on several threads (the actor's max_concurrency, or
        # the engine's executors in process): LRU bookkeeping AND the
        # ParquetFile row-group reads (not documented thread-safe)
        # serialize under this lock; a hit is one dict get + move_to_end
        self._rg_lock = threading.Lock()
        self._files: list = []          # pq.ParquetFile per table
        self._rg_offsets: list = []     # per table: row offset of each RG
        # (ti, rg) -> full-column RG table, least recently used first
        self._rg_cache: OrderedDict = OrderedDict()
        self._rg_bytes = 0
        self._rg_loads = 0              # cold row-group reads (stats)
        self._rg_evictions = 0
        seg_dir = os.path.join(index_dir, "segments")
        for p in self.parts:
            path = os.path.join(seg_dir, f"part-{p:04d}.parquet")
            if not os.path.exists(path):
                continue
            self._part_table[p] = len(self.tables)
            # read, not memory-mapped: mapped pages count in the
            # process's RSS once touched (+2.6 MB of file pages in the
            # driver on perfbench search_hot, 8k docs), read ones only
            # while a row group decompresses
            pf = pq.ParquetFile(path)
            tbl = pf.read(columns=["term", "df"])
            offs = np.zeros(pf.num_row_groups, dtype=np.int64)
            for rg in range(1, pf.num_row_groups):
                offs[rg] = offs[rg - 1] \
                    + pf.metadata.row_group(rg - 1).num_rows
            self._files.append(pf)
            self._rg_offsets.append(offs)
            self.tables.append(tbl)
            col = tbl["term"].combine_chunks()
            if len(col) > 1:
                # binary search requires the on-disk term order
                assert pc.all(pc.less_equal(
                    col.slice(0, len(col) - 1),
                    col.slice(1))).as_py(), \
                    f"segment part-{p:04d} terms not sorted"
            self._term_bufs.append(_string_buffers(col))

    def _lookup(self, term: str):
        """(table, row) of ``term`` or None: binary search of the sorted
        resident term column of the one partition the term hashes to,
        O(log vocab) byte-string compares. Each probe compares the
        query's UTF-8 bytes with a slice of the column's data buffer
        (UTF-8 byte order is code-point order, the order Arrow sorted
        the column in), so no Arrow scalar is boxed."""
        ti = self._part_table.get(term_partition(term, self.P))
        if ti is None:
            return None
        offs, data = self._term_bufs[ti]
        key = term.encode("utf-8")
        lo, hi = 0, len(offs) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if data[offs[mid]:offs[mid + 1]].tobytes() < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(offs) - 1 and data[offs[lo]:offs[lo + 1]] == key:
            return (ti, lo)
        return None

    def _rg_table(self, ti: int, rg: int) -> pa.Table:
        """One row group's FULL columns through the LRU: read from the
        part file on a miss, least-recently-used row groups evicted past
        the byte cap."""
        key = (ti, rg)
        with self._rg_lock:
            tbl = self._rg_cache.get(key)
            if tbl is not None:
                self._rg_cache.move_to_end(key)
                return tbl
            tbl = self._files[ti].read_row_group(rg)
            self._rg_loads += 1
            self._rg_cache[key] = tbl
            self._rg_bytes += tbl.nbytes
            # HARD cap: even the just-inserted row group may evict
            # (the caller's reference keeps the returned table alive;
            # Arrow tables are refcounted) — an oversized RG simply
            # never caches
            while self._rg_bytes > self.max_resident and self._rg_cache:
                self._rg_bytes -= self._rg_cache.popitem(last=False)[1] \
                    .nbytes
                self._rg_evictions += 1
        return tbl

    def _row_group(self, loc: tuple[int, int]) -> tuple[tuple, int]:
        """A (table, row) location as ((table, row group), row in it)."""
        ti, i = loc
        offs = self._rg_offsets[ti]
        rg = int(np.searchsorted(offs, i, side="right") - 1)
        return (ti, rg), i - int(offs[rg])

    def cache_stats(self) -> dict:
        """Row-group residency counters."""
        return {"rg_loads": self._rg_loads,
                "rg_evictions": self._rg_evictions,
                "resident_bytes": self._rg_bytes,
                "resident_row_groups": len(self._rg_cache)}

    def dict_stats(self) -> dict:
        """Dictionary totals of this shard's partitions: terms, postings
        (the sum of their dfs) and the Arrow term-column bytes that
        lookups binary-search."""
        return {"n_terms": sum(t.num_rows for t in self.tables),
                "n_postings": sum(pc.sum(t["df"]).as_py() or 0
                                  for t in self.tables),
                "term_col_bytes": sum(t["term"].nbytes
                                      for t in self.tables)}

    def get_terms(self, terms: list[str]) -> pa.Table | None:
        """Requested terms' segment rows as ONE Arrow table (from an
        actor, Ray ships it via pickle-5 out-of-band buffers — no
        per-value pickling of the posting streams)."""
        by_rg: dict[tuple[int, int], list[int]] = {}
        for t in terms:
            if (loc := self._lookup(t)) is not None:
                key, i = self._row_group(loc)
                by_rg.setdefault(key, []).append(i)
        if not by_rg:
            return None
        return pa.concat_tables(
            [self._rg_table(*key).take(pa.array(idx, pa.int64()))
             for key, idx in sorted(by_rg.items())])

    def term_dfs(self, terms: list[str]) -> dict[str, int]:
        """Document frequencies only — a dictionary lookup, no posting
        bytes shipped or decoded (phrase planning needs df before it
        decides whether decoding postings is affordable)."""
        out = {}
        for t in terms:
            loc = self._lookup(t)
            if loc is not None:
                out[t] = int(self.tables[loc[0]]["df"][loc[1]].as_py())
        return out

    def warmup(self) -> pa.Table | None:
        """Ship one tiny real row: the first Arrow object serialized by a
        worker pays a one-time (~300 ms) serializer/import cost — pay it
        at engine construction, not inside the first user query."""
        if not self.tables:
            return None
        return self.tables[0].slice(0, 1), np.zeros(1)

    def scan_terms(self, match, order: str, limit: int) -> pa.Table:
        """The one dictionary scan, behind prefix / regexp / fuzzy
        expansion, rare_terms, terms_enum and keyword-value listing:
        this shard's (term, df) rows that ``match(terms, dfs)`` keeps (a
        boolean mask; see the ``_match_*`` predicates), the first
        ``limit`` of them in ``order`` (a ``_SCAN_ORDERS`` key). The
        predicate runs where the dictionary lives, fuzzy's edit-distance
        check included, so at most ``limit`` small rows ship back."""
        return _first_rows(
            [tbl.filter(match(tbl["term"], tbl["df"]))
             for tbl in self.tables if tbl.num_rows], order, limit)

    def hot_terms(self, top_n: int) -> list[str]:
        """This shard's highest-df content terms (the Zipf head that
        dominates TAAT decode cost) — drives speculative prewarm."""
        pairs: list[tuple[int, str]] = []
        for tbl in self.tables:
            if tbl.num_rows == 0:
                continue
            idx = pc.sort_indices(
                tbl, sort_keys=[("df", "descending")]).slice(0, top_n)
            sel = tbl.take(idx)
            pairs.extend(zip(sel["df"].to_pylist(),
                             sel["term"].to_pylist()))
        pairs.sort(reverse=True)
        return [t for _, t in pairs[:top_n] if ":" not in t]

    def _postings(self, term: str) -> TermPostings | None:
        """One term's segment row as ``TermPostings``, or None."""
        loc = self._lookup(term)
        if loc is None:
            return None
        key, i = self._row_group(loc)
        return TermPostings(_posting_row(self._rg_table(*key), i))

    def decode_term(self, term: str, n_docs: int, k1: float, b: float,
                    avgdl: float, idf_override: float | None = None):
        """Shard-side TAAT decode: (df, doc_ids, idf*tf_norm) for one
        term, or None. Decoding runs where the compressed row lives, in
        parallel across the shards owning a query's terms (on the
        engine's threads in process, zero-copy through the object store
        from an actor) — the driver never decodes hot posting lists
        serially. The float expression tree matches bm25_tf_norm
        exactly (elementwise IEEE ops ≡ the scalar oracle bit-for-bit).

        ``idf_override`` substitutes a caller-computed idf for the
        local-df one — federated search passes the GLOBAL idf so the
        contribution's expression tree is identical to a single merged
        index's (query/federated.py)."""
        tp = self._postings(term)
        if tp is None:
            return None
        idf = (idf_override if idf_override is not None
               else bm25_idf(n_docs, int(tp.df)))
        ids, tfs, dls = tp.decode_all()
        tf = tfs.astype(np.float64)
        dl = dls.astype(np.float64)
        contrib = idf * (tf * (k1 + 1.0)
                         / (tf + k1 * (1.0 - b + b * dl / avgdl)))
        return int(tp.df), ids, contrib

    def dict_caps(self) -> pa.Table:
        """Per-field dictionary stats for this shard's partitions:
        (field, n_values, total_df) where n_values counts distinct
        terms of the field and total_df sums their dfs (= postings =
        distinct (doc, term) pairs). Runs where the dictionary lives;
        three tiny rows ship back. The ES _field_caps / mapping-stats
        analog served from the index itself, no document read."""
        fields = (("content", None), ("lang", "lang:"),
                  ("repo", "repo:"))
        counts = {f: [0, 0] for f, _ in fields}
        for tbl in self.tables:
            if tbl.num_rows == 0:
                continue
            terms, dfs = tbl["term"], tbl["df"]
            has_colon = pc.match_substring(terms, ":")
            for field, prefix in fields:
                m = (pc.invert(has_colon) if prefix is None
                     else pc.starts_with(terms, prefix))
                counts[field][0] += pc.sum(pc.cast(m, pa.int64())) \
                    .as_py() or 0
                s = pc.sum(pc.if_else(m, dfs, pa.scalar(0, pa.int64())))
                counts[field][1] += s.as_py() or 0
        return pa.table({
            "field": pa.array([f for f, _ in fields]),
            "n_values": pa.array([counts[f][0] for f, _ in fields],
                                 pa.int64()),
            "total_df": pa.array([counts[f][1] for f, _ in fields],
                                 pa.int64())})

    def decode_raw(self, term: str):
        """Shard-side (df, doc_ids, tf, dl) decode for one term, or
        None — the formula-agnostic cousin of ``decode_term`` for
        scorers whose per-term weight is NOT BM25 (sparse-vector /
        combined-fields queries): raw term frequencies come back (from
        an actor, zero-copy through the object store) and the caller
        applies its own weight expression, so one posting format serves
        every scoring model without re-decoding on the driver."""
        tp = self._postings(term)
        if tp is None:
            return None
        ids, tfs, dls = tp.decode_all()
        return (int(tp.df), ids, tfs.astype(np.float64),
                dls.astype(np.float64))


# max_restarts/max_task_retries: shards are pure readers of immutable
# segment files (constructor args are plain strings, reloadable from
# disk), so a died shard process restarts and replays transparently.
# num_cpus=0: shards are long-lived MEMORY-holders serving short decode
# bursts — reserving scheduler CPU for them accumulates across cached
# engines (a long session holds dozens of shard actors) until transient
# dataset tasks and NEW shard actors can no longer schedule at all on a
# small cluster (measured: a 4-CPU test session wedged with 23 shards x
# 0.1 CPU + one 1-CPU pool worker reserved). Their decode work is
# thread-side numpy that the scheduler cannot meter anyway; placement
# at target scale is by memory, not CPU. max_concurrency=4: every
# method but the row-group LRU (which takes its own lock) is read-only
# after __init__, so a threaded actor lets an on-demand decode_term run
# (numpy decode releases the GIL for its vectorized passes).
# concurrency_groups: the engine sends its speculative prewarm decodes
# through the 2-thread "prewarm" group, so on-demand calls keep the
# default group's 4 threads and never queue behind that backlog
# (measured on a 4-CPU host with a threaded actor: a call behind 40
# queued 50 ms calls returned in ~506 ms in one group, in 1.3-2.0 ms
# with the backlog in its own group) — which matters most when one
# shard serves a small index. The actor keeps the class name, so the
# GCS lists it as IndexShard.
_IndexShardActor = ray.remote(
    num_cpus=0, max_concurrency=4, max_restarts=2, max_task_retries=2,
    concurrency_groups={"prewarm": 2})(IndexShard)


class _LocalMethod:
    """``handle.method`` of an in-process shard: ``.remote(*args)`` runs
    the method now and returns its result as an ObjectRef, the call
    form of an actor method; ``.options(...)`` changes nothing."""

    def __init__(self, fn):
        self._fn = fn

    def remote(self, *args):
        return ray.put(self._fn(*args))

    def options(self, **_):
        return self


class _LocalShardHandle:
    """What ``SearchEngine.shards`` lists for an in-process shard: the
    actor-handle call form (``ray.get(h.method.remote(...))``) for
    callers outside the engine. The engine calls the shard itself."""

    def __init__(self, shard: IndexShard):
        self._shard = shard

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return _LocalMethod(getattr(self._shard, name))


def top_k(ids: np.ndarray, scores: np.ndarray, k: int
          ) -> list[tuple[int, float]]:
    """The exact top ``k`` of parallel (ids, scores) arrays, ordered by
    (score desc, id asc) — the one selection under every dense query
    surface. Pure: every input row competes, zero scores included (the
    caller picks the candidates), ids may repeat, and ``k <= 0``
    selects nothing.

    Above 4k rows a full lexsort dominated latency at 10^6 candidates,
    so the selection partitions first: everything strictly above the
    k-th value plus the smallest ids among exact ties at it (the id-asc
    tie-break), then sorts only that set."""
    if k <= 0 or ids.size == 0:
        return []
    if ids.size > 4 * k:
        kth = np.partition(scores, ids.size - k)[ids.size - k]
        above = scores > kth
        ties = np.sort(ids[scores == kth])[:k - int(above.sum())]
        ids = np.concatenate((ids[above], ties))
        scores = np.concatenate((scores[above], np.full(ties.size, kth)))
    order = np.lexsort((ids, -scores))[:k]
    return [(int(ids[i]), float(scores[i])) for i in order]


class SearchEngine:
    """Driver-side query coordinator over a pool of IndexShards.

    Two exact, rank-identical execution strategies (equivalence is unit
    tested):

    - **TAAT-vectorized** (default when ``n_docs <= taat_max_docs``): decode
      each query term's postings fully, accumulate numpy-vectorized BM25
      contributions into a dense float64 accumulator in sorted-term order —
      the same per-doc float addition order as the oracle. ~10-100x faster
      per query than doc-at-a-time when the accumulator fits memory.
      Every dense query surface shares one accumulator (``_accumulate``)
      and one selection (``_hits`` over ``top_k``); a surface with its
      own predicate or boost edits the accumulator in between.
    - **Block-max WAND** (the 10^12-doc scale path): doc-at-a-time with
      skip/block-max pruning; no N-sized state.

    Where the shards live follows the index: at most
    ``LOCAL_SEGMENT_BYTES`` (48 MiB) of on-disk segments are served in
    process — the driver holds the IndexShard objects and no shard
    process starts — and a larger index runs each shard as an actor
    process. Results are bit-identical in both modes.

    Every call to the shards goes through one of three round helpers,
    each one wave: ``_broadcast`` (one call per shard: warmup,
    hot_terms, cache_stats, dict_stats, dict_caps and the ``_scan``
    dictionary scan), ``_grouped`` (one call per shard owning some of
    the terms: ``get_terms``, ``term_dfs``) and ``_term_refs`` +
    ``_gather`` (one call per term on its owner: ``decode_term``,
    ``decode_raw``; ``_ensure_contribs`` takes over a prewarm decode
    still in flight instead of sending it again). In process the first
    two call one shard on the caller's thread and several in parallel
    on the engine's on-demand thread pool, and ``_term_refs`` submits to
    the engine's thread pools; with actors each round is one
    ``ray.get``.

    ``num_shards`` — shards to split the partitions over. Left unset,
    the count is sized to the index (``shard_count``): one shard per
    ``SHARD_SEGMENT_BYTES`` (4 MiB) of on-disk segments, at least one
    and at most ``min(MAX_SHARDS, num_partitions)``. A given
    ``num_shards`` is used as is (capped at the partition count).
    Results are bit-identical for every shard count.

    ``max_resident_bytes`` — a cap on the decompressed (Arrow) bytes of
    the posting row groups the shards keep resident, split evenly over
    them; None (the default) sets no cap. It is the only difference between engines over one
    index: every shard keeps just its (term, df) columns resident,
    finds terms in the sorted term column and reads posting rows per
    row group through its LRU, so a cap moves residency, never a
    result.

    ``shards`` / ``part_to_shard`` list handles in both modes:
    ``ray.get(h.method.remote(*args))`` calls ``IndexShard.method`` on
    that shard (the engine itself never goes through them).
    """

    def __init__(self, index_dir: str, num_shards: int | None = None,
                 taat_max_docs: int = 5_000_000,
                 term_cache_size: int = 4096,
                 prewarm_hot_terms: int = 64,
                 max_resident_bytes: int | None = None):
        # prewarm width: cold hot-term latency is transport + decode
        # round-trip bound (~0.2-0.5 s per df~10^6 term on this host);
        # 64 covers the whole Zipf head of a realistic query mix and the
        # decodes run asynchronously during engine construction, so the
        # only cost is overlapped shard CPU (measured: p99 on the 1M
        # index drops from ~575 ms to the warm-path level once the head
        # is resident).
        self.index_dir = index_dir
        self.stats = mf.read_stats(index_dir)
        self.P = int(self.stats["num_partitions"])
        # content-field analyzer parity: query terms go through the
        # same stem filter the index was built with (stats["stem"]),
        # or they would miss the stemmed dictionary entirely
        self._stem = self.stats.get("stem", "")
        self.taat_max_docs = taat_max_docs
        # WAND shares the contribution cache for terms whose decoded
        # list fits a sane per-term budget; hotter terms (df beyond
        # this) always go through selective block decode — see search()
        self._WAND_CACHE_MAX_DF = 5_000_000
        seg_bytes = _segment_bytes(index_dir)
        n_shards = shard_count(seg_bytes, self.P, num_shards)
        # round-robin parts over shards
        assignment: list[list[int]] = [[] for _ in range(n_shards)]
        for p in range(self.P):
            assignment[p % n_shards].append(p)
        # per-shard residency budget: the engine-level cap divides
        # evenly across shards (each owns a disjoint partition set)
        per_shard_cap = (None if max_resident_bytes is None
                         else max(1, max_resident_bytes // n_shards))
        self.max_resident_bytes = max_resident_bytes
        self._local = seg_bytes <= LOCAL_SEGMENT_BYTES
        if self._local:
            # in process, the executors stand in for the actor's
            # threads: on-demand calls get their own pool, so they never
            # queue behind the prewarm backlog (the actor's "prewarm"
            # concurrency group). One actor's counts, not n actors':
            # the threads share one GIL, and pools of 4n/2n made
            # wait_prewarm slower (2 shards, 16k docs: 0.20-0.26 s vs
            # 0.17-0.24 s, 6/6 pairs; 4 shards, 40k docs: median 0.80
            # vs 0.64 s; 4 CPUs)
            from concurrent.futures import ThreadPoolExecutor

            self._pools = {
                None: ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix="IndexShard-call"),
                "prewarm": ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="IndexShard-prewarm")}
            # the parquet reads release the GIL: load the shards at once
            self._shard_objs = list(self._pools[None].map(
                lambda parts: IndexShard(index_dir, parts, per_shard_cap),
                assignment))
            self.shards = [_LocalShardHandle(s) for s in self._shard_objs]
        else:
            self._pools = {}
            self.shards = [_IndexShardActor.remote(index_dir, parts,
                                                   per_shard_cap)
                           for parts in assignment]
            self._shard_objs = self.shards
            # overlap segment loads across shards AND warm each worker's
            # Arrow serialization path before the first query (see
            # IndexShard.warmup)
            self._broadcast("warmup")
        self.part_to_shard = {p: self.shards[p % n_shards]
                              for p in range(self.P)}
        docmap = os.path.join(index_dir, "docmap")
        if not os.path.isdir(docmap):  # older index layout
            docmap = os.path.join(index_dir, "docs")
        self._docs_dataset = pa_ds.dataset(docmap, format="parquet")
        # small driver-side term cache (the ES "query cache" analog);
        # None entries record known-absent terms
        self._term_cache: dict[str, dict | None] = {}
        self._term_cache_size = term_cache_size
        # decoded-contribution cache for TAAT: (ids, idf*tf_norm, df) per
        # term — decode+scoring dominate repeat-query latency; bounded by
        # total cached postings (~16 B each decoded). Valid for this
        # engine's lifetime (stats are fixed at construction; rebuild the
        # engine after updates).
        self._contrib_cache: dict[str, tuple] = {}
        self._absent_terms: set[str] = set()
        # dense contribution rows for mega-hot terms (df >= n/4): at
        # that density the sparse scatter acc[ids] += contrib touches
        # ~every accumulator slot anyway, while a dense sequential
        # axpy (acc += row) streams at SIMD bandwidth — measured ~8x
        # per hot term at 100k docs, bit-identical (adding 0.0 where
        # the term is absent is an IEEE no-op for the all-positive
        # contribs). Built once per cached term, n*8 bytes charged to
        # the same contrib budget, cleared with it.
        self._dense_rows: dict[str, np.ndarray] = {}
        self._score_pool = None  # lazy ThreadPoolExecutor for msearch
        # budget sized to the TAAT regime: the Zipf head (the prewarm
        # set + a query mix's hot terms) must fit WITHOUT eviction — a
        # 64-term head at df~n_docs is ~64*n_docs postings, and evicting
        # mid-mix forces ~0.5 s re-decodes (measured as the warm-path
        # p99). ~16 B/decoded posting -> the cap bounds this at ~4 GB.
        n_docs_now = int(self.stats["n_docs"]) or 1
        self._contrib_budget = min(
            256_000_000,
            max(64_000_000, 96 * min(n_docs_now, taat_max_docs)))
        self._contrib_cached = 0
        self._docmap_mem = None  # lazy in-memory docmap (small-N fast path)
        self._norms_mem = None   # lazy norms sidecar (combined_fields)
        # ES-style delete tombstones (index/delete.py): a sorted doc-id
        # exclusion applied on every query path; stats stay pre-delete
        # (the ES/Lucene contract until a segment merge/rebuild)
        from ..index.delete import read_tombstones

        self._tombstones = read_tombstones(index_dir)
        # ES shard-request-cache analog (search_cached): full-request
        # key -> result table; generation bumps on every refresh
        self._request_cache: dict = {}
        self._request_cache_gen = 0
        # speculative prewarm: kick off shard-side decodes of each
        # shard's Zipf-head terms NOW (results wait as pending calls,
        # materialized on first use) — first queries for hot terms find
        # their decode already done/overlapped instead of paying it
        self._pending: dict = {}
        if prewarm_hot_terms and int(self.stats["n_docs"]):
            bm25 = (int(self.stats["n_docs"]), self.stats["k1"],
                    self.stats["b"], self.stats["avgdl"])
            hot = self._broadcast("hot_terms", prewarm_hot_terms)
            # the shards' "prewarm" group: on-demand decodes keep the
            # default group's threads (see IndexShard)
            self._pending = self._term_refs(
                "decode_term", {t: bm25 for ts in hot for t in ts},
                group="prewarm")

    def cache_stats(self) -> dict:
        """Row-group residency counters summed across shards."""
        stats = self._broadcast("cache_stats")
        return {k: sum(s[k] for s in stats) for k in stats[0]} if stats \
            else {}

    def shutdown(self) -> None:
        """Release the shards: kill the shard actors, or cancel the
        pending in-process calls and stop the thread pools, then drop
        every shard, handle and pending prewarm result; a second call
        does nothing."""
        if self._local:
            for pool in self._pools.values():
                pool.shutdown(cancel_futures=True)
            self._pools = {}
        else:
            for s in self.shards:
                ray.kill(s)
        self.shards = []
        self._shard_objs = []
        self.part_to_shard = {}
        self._pending.clear()
        if self._score_pool is not None:
            self._score_pool.shutdown(wait=False)
            self._score_pool = None

    def wait_prewarm(self) -> int:
        """Block until the speculative hot-term prewarm decodes finish
        and are resident in the contribution cache; returns how many
        terms were prewarmed. Serving systems call this once at startup
        to separate cold-start from steady-state latency."""
        terms = list(self._pending)
        self._ensure_contribs(terms)
        return len(terms)

    def reload_tombstones(self) -> int:
        """Re-read the delete set from disk (the ES refresh analog);
        returns its size. Bumps the request-cache generation — every
        cached search result keyed under the old generation becomes
        unreachable, the ES shard-request-cache invalidation-on-refresh
        contract."""
        from ..index.delete import read_tombstones

        self._tombstones = read_tombstones(self.index_dir)
        self._request_cache_gen += 1
        self._request_cache.clear()
        return int(self._tombstones.size)

    def delete_by_query(self, text: str) -> int:
        """ES ``_delete_by_query``: tombstone every doc matching the
        query (same match semantics as ``match_ids``), persist the
        merged delete set, and refresh this engine so the deletes are
        immediately visible here. Returns how many NEW docs were
        deleted. Like ES, this never rewrites segments — ``compact``
        is the force-merge that physically drops them."""
        from ..index.delete import delete_docs

        ids = self._drop_tombstones(np.sort(self.match_ids(text)))
        if ids.size:
            delete_docs(self.index_dir, ids)
        self.reload_tombstones()
        return int(ids.size)

    _REQUEST_CACHE_MAX = 256

    def search_cached(self, text: str, k: int = 10,
                      filters: dict | None = None,
                      strategy: str | None = None) -> pa.Table:
        """ES shard-request-cache analog over ``search``: identical
        requests return the SAME immutable Arrow result without
        re-scoring; entries are keyed by the full request plus the
        delete-set generation, so any refresh (``reload_tombstones`` /
        ``delete_by_query``) invalidates everything at once — results
        are always exactly ``search``'s. Bounded FIFO of
        ``_REQUEST_CACHE_MAX`` entries (a result is k rows, ~KBs)."""
        fkey = (tuple(sorted((f, tuple(v) if isinstance(v, (list, tuple))
                              else v) for f, v in filters.items()))
                if filters else None)
        key = (text, k, fkey, strategy, self._request_cache_gen)
        hit = self._request_cache.get(key)
        if hit is not None:
            return hit
        res = self.search(text, k=k, filters=filters, strategy=strategy)
        if len(self._request_cache) >= self._REQUEST_CACHE_MAX:
            self._request_cache.pop(next(iter(self._request_cache)))
        self._request_cache[key] = res
        return res

    def _mask_tombstones(self, acc: np.ndarray) -> None:
        """Zero deleted docs out of a TAAT accumulator in place."""
        t = self._tombstones
        if t.size:
            acc[t[t < acc.size]] = 0.0

    def _drop_tombstones(self, ids: np.ndarray) -> np.ndarray:
        t = self._tombstones
        if not t.size or not ids.size:
            return ids
        return ids[~np.isin(ids, t, assume_unique=False)]

    # -- shard rounds: every call to the shards --------------------------

    def _broadcast(self, method: str, *args) -> list:
        """``IndexShard.method(*args)`` on every shard, in one round: the
        results in shard order."""
        return self._round([(getattr(s, method), args)
                            for s in self._shard_objs])

    def _grouped(self, method: str, terms: list[str]) -> list:
        """``IndexShard.method(its_terms)`` once per shard owning any of
        ``terms`` (one call per shard, however many terms), in one
        round: the per-shard results."""
        by_shard: dict = {}
        for t in terms:
            by_shard.setdefault(self._owner(t), []).append(t)
        return self._round([(getattr(s, method), (ts,))
                            for s, ts in by_shard.items()])

    def _round(self, calls: list) -> list:
        """Run ``[(shard method, args)]`` as one wave: the results in
        order. In process one call runs on the caller's thread and
        several run on the on-demand pool, one per shard, as the actors
        run them in parallel; with actors, one ``ray.get``."""
        if not self._local:
            return ray.get([fn.remote(*a) for fn, a in calls])
        if len(calls) == 1:
            fn, a = calls[0]
            return [fn(*a)]
        futs = [self._pools[None].submit(fn, *a) for fn, a in calls]
        return [f.result() for f in futs]

    def _term_refs(self, method: str, args: dict[str, tuple],
                   group: str | None = None) -> dict:
        """``IndexShard.method(term, *args[term])`` once per term on the
        shard owning it, sent as one wave and not waited for: {term:
        Future in process, else ObjectRef}; ``_gather`` waits. ``group``
        runs the calls in that shard concurrency group (in process: that
        thread pool)."""
        refs = {}
        for t, a in args.items():
            fn = getattr(self._owner(t), method)
            if self._local:
                refs[t] = self._pools[group].submit(fn, t, *a)
                continue
            if group:
                fn = fn.options(concurrency_group=group)
            refs[t] = fn.remote(t, *a)
        return refs

    def _owner(self, term: str):
        """The shard (object in process, else actor) owning ``term``."""
        return self._shard_objs[term_partition(term, self.P)
                                % len(self._shard_objs)]

    def _scan(self, match, order: str, limit: int) -> pa.Table:
        """One ``IndexShard.scan_terms`` round over every shard, merged:
        the first ``limit`` (term, df) rows ``match`` keeps, in
        ``order``."""
        return _first_rows(self._broadcast("scan_terms", match, order,
                                           limit), order, limit)

    # -- internals ---------------------------------------------------------

    def _fetch_terms(self, terms: list[str]) -> dict[str, dict]:
        missing = [t for t in terms if t not in self._term_cache]
        if missing:
            fetched: dict[str, dict] = {}
            for tbl in self._grouped("get_terms", missing):
                if tbl is None:
                    continue
                for i in range(tbl.num_rows):
                    row = _posting_row(tbl, i)
                    fetched[row["term"]] = row
            if len(self._term_cache) + len(missing) > self._term_cache_size:
                self._term_cache.clear()
            for t in missing:
                self._term_cache[t] = fetched.get(t)
        return {t: self._term_cache[t] for t in terms
                if self._term_cache.get(t) is not None}

    def _filter_ids(self, filters: dict | None) -> np.ndarray | None:
        """Sorted doc-id array matching ALL keyword filters (None = no
        filter; empty array = nothing matches). A filter value may be a
        single string (ES term query) or a list (ES terms query: docs
        matching ANY of the values — a union of the value posting
        lists). Backed by field postings, decoded shard-side and cached
        like content terms (a hot filter like lang:python is ~a third
        of the corpus — decoding it on the driver per query dominated
        filtered-query latency)."""
        if not filters:
            return None
        per_field: list[list[str]] = []
        for field, value in filters.items():
            vals = (list(value) if isinstance(value, (list, tuple))
                    else [value])
            per_field.append([f"{field}:{v}" for v in vals])
        self._ensure_contribs([ft for fts in per_field for ft in fts])
        arrays = [self._union_ids(fts) for fts in per_field]
        if any(a.size == 0 for a in arrays):
            return np.empty(0, dtype=np.int64)
        inter = arrays[0]
        for a in arrays[1:]:
            inter = np.intersect1d(inter, a, assume_unique=True)
        return inter

    def _filter_predicate(self, filters: dict | None):
        inter = self._filter_ids(filters)
        if inter is None:
            return None

        def predicate(doc_id: int) -> bool:
            i = int(np.searchsorted(inter, doc_id))
            return i < inter.size and inter[i] == doc_id

        return predicate

    _DOCMAP_COLS = ["doc_id", "repo", "path", "commit", "lang", "sha256"]

    def _join_docmap(self, doc_ids: list[int]) -> pa.Table:
        if not doc_ids:
            return self._docs_dataset.schema.empty_table()
        if int(self.stats["n_docs"]) <= self.taat_max_docs:
            # small-N fast path: docmap pinned in memory, gather by id
            # (the parquet-filter path below re-opens files per query)
            if self._docmap_mem is None:
                tbl = self._docs_dataset.to_table(columns=self._DOCMAP_COLS)
                order = pc.sort_indices(tbl["doc_id"])
                self._docmap_mem = tbl.take(order)
            dm = self._docmap_mem
            sorted_ids = dm["doc_id"].to_numpy(zero_copy_only=False)
            want = np.asarray(doc_ids, dtype=np.int64)
            idx = np.searchsorted(sorted_ids, want)
            ok = idx < sorted_ids.size
            idx, w = idx[ok], want[ok]
            ok2 = sorted_ids[idx] == w
            return dm.take(pa.array(idx[ok2]))
        flt = pc.field("doc_id").isin(doc_ids)
        return self._docs_dataset.to_table(
            columns=self._DOCMAP_COLS, filter=flt)

    def _ensure_contribs(self, terms: list[str]) -> None:
        """Populate the decoded-contribution cache for ``terms`` with ONE
        parallel round of shard-side decodes (IndexShard.decode_term):
        hot posting lists are decoded where they live, concurrently
        across the shards owning the query's terms — the driver never
        serially decodes a df~N list."""
        missing = [t for t in dict.fromkeys(terms)
                   if t not in self._contrib_cache
                   and t not in self._absent_terms]
        if not missing:
            return
        n = int(self.stats["n_docs"])
        k1, b, avgdl = (self.stats["k1"], self.stats["b"],
                        self.stats["avgdl"])
        # scored path-field terms ("p:tok") normalize under the path
        # field's own avgdl (ES per-field norms)
        path_avgdl = float(self.stats.get("path_avgdl") or 0.0) or 1.0

        def _avgdl(t: str) -> float:
            return path_avgdl if t.startswith("p:") else avgdl

        # a prewarm decode in flight is taken over, not sent again
        sent = self._term_refs("decode_term", {
            t: (n, k1, b, _avgdl(t)) for t in missing
            if t not in self._pending})
        results = _gather({t: sent[t] if t in sent else self._pending.pop(t)
                          for t in missing})
        # evict BEFORE inserting, never mid-round: one query's terms must
        # all be resident together or TAAT would silently drop a term.
        # A dense row (df >= n/4) costs n slots on top of its postings.
        round_size = sum(
            r[1].size + (n if r[1].size * 4 >= n > 0 else 0)
            for r in results.values() if r is not None)
        if self._contrib_cached + round_size > self._contrib_budget:
            self._contrib_cache.clear()
            self._absent_terms.clear()
            self._dense_rows.clear()
            self._contrib_cached = 0
        for t, res in results.items():
            if res is None:
                self._absent_terms.add(t)
                continue
            df, ids, contrib = res
            self._contrib_cache[t] = (ids, contrib, df)
            self._contrib_cached += ids.size
            if ids.size * 4 >= n > 0:
                row = np.zeros(n)
                row[ids] = contrib
                self._dense_rows[t] = row
                self._contrib_cached += n

    def _accumulate(self, terms: list[str],
                    path_boost: float = 1.0) -> np.ndarray:
        """Dense float64 BM25 scores over all docs (0 = no match): each
        term's cached contributions added in the given order (pass
        sorted terms: the oracle's per-doc addition order), "p:"
        path-field terms scaled by ``path_boost``. A dense row (df >=
        n/4) adds as one sequential axpy; adding its 0.0 where the term
        is absent is an IEEE no-op, so the sum is bit-identical to the
        scatter the other terms take. Reads the caches only (msearch
        scores on a thread pool): call ``_ensure_contribs(terms)``
        first."""
        acc = np.zeros(int(self.stats["n_docs"]), dtype=np.float64)
        for t in terms:
            boost = path_boost if t.startswith("p:") else 1.0
            row = self._dense_rows.get(t)
            if row is not None and boost == 1.0:
                acc += row
                continue
            hit = self._contrib_cache.get(t)
            if hit is not None:
                acc[hit[0]] += hit[1] if boost == 1.0 else boost * hit[1]
        return acc

    def _hits(self, acc: np.ndarray, k: int,
              filter_ids: np.ndarray | None = None
              ) -> list[tuple[int, float]]:
        """Top-k (doc_id, score) of an accumulator: tombstones zeroed (in
        place), docs scoring > 0 kept — intersected with the sorted
        ``filter_ids`` when given — then ``top_k``. A surface with
        another match predicate zeroes the slots it rejects first."""
        self._mask_tombstones(acc)
        cand = np.flatnonzero(acc > 0.0)
        if filter_ids is not None:
            cand = cand[np.isin(cand, filter_ids, assume_unique=True)]
        return top_k(cand, acc[cand], k)

    def _search_taat(self, terms: list[str], k: int,
                     filter_ids: np.ndarray | None
                     ) -> list[tuple[int, float]]:
        """Exact term-at-a-time top-k over the query terms. Call
        ``_ensure_contribs(terms)`` first."""
        return self._hits(self._accumulate(terms), k, filter_ids)

    def _union_ids(self, terms: list[str]) -> np.ndarray:
        """Sorted union of the cached posting ids of ``terms`` (absent
        terms add nothing). Call ``_ensure_contribs(terms)`` first."""
        present = [self._contrib_cache[t][0] for t in terms
                   if self._contrib_cache.get(t) is not None]
        if not present:
            return np.empty(0, dtype=np.int64)
        return (present[0] if len(present) == 1
                else np.unique(np.concatenate(present)))

    def _field_terms(self, field: str) -> list[str]:
        """Every ``field:value`` term of a keyword field, sorted — one
        parallel dictionary round across the shards."""
        return self._scan(partial(_match_prefix, f"{field}:", True),
                          "term", 1 << 20)["term"].to_pylist()

    # -- public API --------------------------------------------------------

    def _wand_inputs(self, terms: list[str]
                     ) -> tuple[list[PostingsCursor], list]:
        """Cursors + zero-decode arrays for the vectorized WAND kernel,
        sharing TAAT's shard-decoded contribution cache: resident terms
        score via zero-decode range slices inside the kernel. Terms up
        to _WAND_CACHE_MAX_DF are decoded once shard-side (parallel)
        and cached under the SAME budget TAAT uses; rarer-than-cache
        or mega-hot terms fall back to selective block decode — at
        10^12 docs a df~10^11 list can never be cached and block-max
        pruning over compressed blocks is the only path, which stays
        exercised here whenever the cache budget evicts."""
        rows = self._fetch_terms(terms)
        n, avgdl = self.stats["n_docs"], self.stats["avgdl"]
        cacheable = [t for t, r in rows.items()
                     if r["df"] <= self._WAND_CACHE_MAX_DF]
        if cacheable:
            self._ensure_contribs(cacheable)
        bounds_avgdl = self.stats.get("min_bounds_avgdl", avgdl) or avgdl
        bound_scale = max(1.0, avgdl / bounds_avgdl)
        cursors = []
        decoded = []
        for t in terms:  # sorted-term order — the scoring contract
            row = rows.get(t)
            if row is None:
                continue
            tp = TermPostings(row)
            idf = bm25_idf(n, int(tp.df))
            cursors.append(PostingsCursor(tp, idf, self.stats["k1"],
                                          self.stats["b"], avgdl,
                                          bound_scale, lazy=True))
            hit = self._contrib_cache.get(t)
            decoded.append(None if hit is None else (hit[0], hit[1]))
        return cursors, decoded

    def _toks(self, text: str) -> list[str]:
        """The engine's CONTENT-field analyzer: tokenize + the stem
        filter the index was built with (stats["stem"]). Every query
        on the content field analyzes through here — search / msearch
        / search_after / explain / match_ids / conjunction_ids / the
        bool, boosting (both sides), dis_max and multi_match content
        clauses / terms_set / the DSL's content match / the terms that
        synonym expansion and query_string, KQL and simple_query_string
        parsing produce from surface forms. Surfaces that reason about
        SURFACE forms (prefix / fuzzy / wildcard expansion,
        match_bool_prefix, suggesters, sparse_vector keys) and those
        pairing each token across unstemmed fields (the path field's own
        analyzer, combined_fields, cross_fields) keep the base tokenizer
        — the ES analogy is a multi-field mapping whose ``.stemmed``
        subfield serves match while ``keyword``-ish subfields serve the
        rest."""
        from ..analysis.tokenizer import analyze_py

        return analyze_py(text, int(self.stats["max_token_len"]),
                          self._stem)

    def search(self, text: str, k: int = 10,
               filters: dict | None = None,
               with_meta: bool = True,
               strategy: str | None = None) -> pa.Table:
        """Top-k BM25. Returns (rank, doc_id, score [, repo path commit lang
        sha256]) sorted by (score desc, doc_id asc).

        ``strategy``: None = auto (TAAT when the accumulator fits),
        "taat" / "wand" to force a path (both are exact)."""
        terms = sorted(set(self._toks(text)))
        n, avgdl = self.stats["n_docs"], self.stats["avgdl"]
        if strategy is None:
            strategy = "taat" if n <= self.taat_max_docs else "wand"
        if strategy == "taat":
            filter_ids = self._filter_ids(filters)
            if filter_ids is not None and filter_ids.size == 0:
                topk = []
            else:
                self._ensure_contribs(terms)
                topk = self._search_taat(terms, k, filter_ids)
            return self._format_result(topk, with_meta)
        cursors, decoded = self._wand_inputs(terms)
        filter_ids = self._filter_ids(filters)
        if filter_ids is not None and filter_ids.size == 0:
            return self._format_result([], with_meta)
        tomb = self._tombstones
        seed = None if (filters or tomb.size) else self._wand_seed(terms, k)
        topk = block_max_wand_vec(
            cursors, k, filter_ids=filter_ids,
            exclude_ids=tomb if tomb.size else None, seed_threshold=seed,
            decoded=decoded)
        return self._format_result(topk, with_meta)

    def profile(self, text: str, k: int = 10,
                **kernel_kwargs) -> pa.Table:
        """ES ``"profile": true`` analog for the scale (WAND) path —
        one row of DETERMINISTIC pruning counters (a pure function of
        index content + query, no timings): total pruning atoms,
        atoms considered vs skipped whole by the block-max bound, and
        docs exactly scored. Runs unseeded so the counters don't
        depend on cache warmth; results are the exact same top-k as
        ``search`` (rank identity holds by the WAND cross-tests)."""
        terms = sorted(set(self._toks(text)))
        cursors, decoded = self._wand_inputs(terms)
        stats: dict = {}
        tomb = self._tombstones
        topk = block_max_wand_vec(
            cursors, k, decoded=decoded,
            exclude_ids=tomb if tomb.size else None,
            stats_out=stats, **kernel_kwargs)
        return pa.table({
            "n_terms": pa.array([len(terms)], pa.int64()),
            "n_atoms": pa.array([stats.get("n_atoms", 0)], pa.int64()),
            "atoms_considered": pa.array(
                [stats.get("atoms_considered", 0)], pa.int64()),
            "atoms_skipped": pa.array(
                [stats.get("atoms_skipped", 0)], pa.int64()),
            "docs_scored": pa.array(
                [stats.get("docs_scored", 0)], pa.int64()),
            "hits": pa.array([len(topk)], pa.int64()),
        })

    def msearch(self, requests: list[dict], with_meta: bool = True,
                strategy: str | None = None) -> pa.Table:
        """ES ``_msearch`` analog: a batch of top-k queries in one call.

        The union of all queries' terms is prefetched in a single
        parallel shard round (one decode / get_terms wave instead of one
        wave per query), then each query runs the normal exact search
        path against the warm caches — identical results to issuing the
        queries one by one, at a fraction of the actor round trips.
        Each request is ``{"text": ..., "k": ..., "filters": ...}``
        (k defaults to 10); output stacks the per-query results with a
        leading ``query_id`` column (the request's position)."""
        qterms = [sorted(set(self._toks(r["text"]))) for r in requests]
        all_terms = sorted({t for ts in qterms for t in ts})
        strat = strategy or (
            "taat" if self.stats["n_docs"] <= self.taat_max_docs
            else "wand")
        # union prefetch: one parallel shard round decodes/fetches
        # every query's terms, then check RESIDENCY — the threaded
        # fast path below must be pure read-only over the caches
        # (a budget eviction mid-prefetch falls back to serial)
        resident = True
        if all_terms:
            if strat == "taat":
                self._ensure_contribs(all_terms)
                resident = all(
                    t in self._contrib_cache or t in self._absent_terms
                    for t in all_terms)
            else:
                rows = self._fetch_terms(all_terms)
                cacheable = [
                    t for t, r in rows.items()
                    if r["df"] <= self._WAND_CACHE_MAX_DF]
                if cacheable:
                    self._ensure_contribs(cacheable)
                resident = (
                    all(t in self._term_cache for t in all_terms)
                    and all(t in self._contrib_cache
                            or t in self._absent_terms
                            for t in cacheable))
        # batched scoring: per-query kernels over the SHARED decoded
        # postings on a thread pool (the numpy accumulate / partition
        # / WAND block work releases the GIL; measured ~4x over the
        # serial loop at 100k docs x 17 queries). Filters resolve
        # serially FIRST (they may fetch field postings = cache
        # mutation); formatting stays on the caller thread. Ranks are
        # bit-identical to the serial path — each query runs the same
        # kernel with the same inputs.
        if resident:
            fids = [self._filter_ids(r.get("filters")) for r in requests]
            tomb = self._tombstones

            def _score(i: int):
                fi = fids[i]
                if fi is not None and fi.size == 0:
                    return []
                ts, k = qterms[i], requests[i].get("k", 10)
                if strat == "taat":
                    return self._search_taat(ts, k, fi)
                cursors, decoded = self._wand_inputs(ts)
                seed = (None
                        if (requests[i].get("filters") or tomb.size)
                        else self._wand_seed(ts, k))
                return block_max_wand_vec(
                    cursors, k, filter_ids=fi,
                    exclude_ids=tomb if tomb.size else None,
                    seed_threshold=seed, decoded=decoded)

            topks = list(self._pool().map(_score, range(len(requests))))
            outs = []
            for qid, topk in enumerate(topks):
                res = self._format_result(topk, with_meta)
                outs.append(res.add_column(
                    0, "query_id",
                    pa.array([qid] * len(res), pa.int64())))
            return pa.concat_tables(outs)
        outs = []
        for qid, r in enumerate(requests):
            res = self.search(r["text"], k=r.get("k", 10),
                              filters=r.get("filters"),
                              with_meta=with_meta, strategy=strategy)
            outs.append(res.add_column(
                0, "query_id", pa.array([qid] * len(res), pa.int64())))
        return pa.concat_tables(outs)

    def _pool(self):
        """Lazy scoring thread pool (msearch batches only)."""
        if self._score_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._score_pool = ThreadPoolExecutor(
                max_workers=min(8, os.cpu_count() or 8))
        return self._score_pool

    def _term_dfs(self, terms: list[str]) -> dict[str, int]:
        """df per term (0 = absent) via shard dictionary lookups — no
        posting decode. Served from the contrib cache when resident."""
        out = {}
        missing = []
        for t in terms:
            hit = self._contrib_cache.get(t)
            if hit is not None:
                out[t] = int(hit[2])
            elif t in self._absent_terms:
                out[t] = 0
            else:
                missing.append(t)
        if missing:
            found = {t: df for d in self._grouped("term_dfs", missing)
                     for t, df in d.items()}
            for t in missing:
                out[t] = found.get(t, 0)
        return out

    def _score_id_set(self, terms: list[str],
                      ids: np.ndarray) -> np.ndarray:
        """Exact BM25 totals for a sorted doc-id array, decoding ONLY the
        posting blocks that contain one of the ids — no N-sized
        accumulator, no full hot-list decode. Terms are iterated in the
        given order (pass sorted terms for the oracle's float-addition
        order); results are bit-identical to the TAAT accumulator."""
        from .postings import TermPostings

        rows = self._fetch_terms(terms)
        n, avgdl = int(self.stats["n_docs"]), self.stats["avgdl"]
        k1, b = self.stats["k1"], self.stats["b"]
        totals = np.zeros(ids.size, dtype=np.float64)
        for t in terms:
            row = rows.get(t)
            if row is None:
                continue
            cached = (None if t.startswith("p:")
                      else self._contrib_cache.get(t))
            if cached is not None:
                # already decoded shard-side for TAAT/WAND sharing —
                # gather instead of re-decoding blocks (bit-identical:
                # the cached contribs come from the same elementwise
                # float64 expression the inline path computes below,
                # which the TAAT==oracle rank tests pin down). The "p:"
                # guard keeps this path's avgdl handling byte-for-byte
                # with the inline computation, which uses the content
                # field's avgdl for every term.
                cids, ccontrib = cached[0], cached[1]
                p = np.searchsorted(cids, ids)
                inb = p < cids.size
                p_ok = p[inb]
                hit = cids[p_ok] == ids[inb]
                if hit.any():
                    idx_sel = np.flatnonzero(inb)[hit]
                    totals[idx_sel] += ccontrib[p_ok[hit]]
                continue
            tp = TermPostings(row)
            idf = bm25_idf(n, int(tp.df))
            # blocks that could contain an id, coalesced into contiguous
            # runs (gap-tolerant): one varint decode per run instead of
            # one per touched block — fixed numpy dispatch dominates
            # small decodes (same lesson as wand.py)
            from .wand import _merge_adjacent

            bi = np.searchsorted(tp.block_last, ids)
            ok = bi < tp.n_blocks
            touched = np.unique(bi[ok])
            if not touched.size:
                continue
            r0s, r1s = _merge_adjacent(touched, touched, gap=32)
            parts = [tp.decode_block_range(int(a), int(c))
                     for a, c in zip(r0s, r1s)]
            bids = np.concatenate([p[0] for p in parts])
            btfs = np.concatenate([p[1] for p in parts])
            bdls = np.concatenate([p[2] for p in parts])
            # decoded runs may be non-contiguous, but within each run ids
            # ascend and runs ascend, so the concatenation stays sorted
            p = np.searchsorted(bids, ids)
            inb = p < bids.size
            p_ok = p[inb]
            hit = bids[p_ok] == ids[inb]
            if not hit.any():
                continue
            tf = btfs[p_ok[hit]].astype(np.float64)
            dl = bdls[p_ok[hit]].astype(np.float64)
            contrib = idf * (tf * (k1 + 1.0)
                             / (tf + k1 * (1.0 - b + b * dl / avgdl)))
            idx_sel = np.flatnonzero(inb)[hit]
            totals[idx_sel] += contrib
        return totals

    def expand_prefix(self, prefix: str,
                      max_expansions: int = 64) -> pa.Table:
        """All content terms starting with ``prefix``, (term, df) sorted
        by term asc — a parallel dictionary scan across the shards. When
        more than ``max_expansions`` terms match, the highest-df terms
        win (the ES top_terms_N rewrite; deterministic df-desc/term-asc
        tie-break)."""
        if not prefix:
            raise ValueError("empty prefix would expand the whole "
                             "vocabulary; give at least one character")
        return self._scan(partial(_match_prefix, prefix, False), "df",
                          max_expansions).sort_by("term")

    def keyword_values(self, field: str, prefix: str = "",
                       max_expansions: int = 256) -> list[str]:
        """Distinct indexed values of a keyword field (optionally value-
        prefix-filtered) — a dictionary scan over the field's namespaced
        ``field:value`` terms, values returned sorted. Past
        ``max_expansions`` values the highest-df ones win, like
        expand_prefix. Serves KQL/ES wildcard-on-keyword clauses
        (``repo:org1*``)."""
        exp = self._scan(partial(_match_prefix, f"{field}:{prefix}", True),
                         "df", max_expansions)
        return sorted(t[len(field) + 1:] for t in exp["term"].to_pylist())

    def simple_query_string(self, q: str, k: int = 10,
                            default_operator: str = "or",
                            with_meta: bool = False) -> pa.Table:
        """ES simple_query_string (lenient end-user syntax) — see
        query/sqs.py."""
        from .sqs import sqs_search

        return sqs_search(self, q, k=k, default_operator=default_operator,
                          with_meta=with_meta)

    def kql_search(self, q: str, k: int = 10,
                   with_meta: bool = False) -> pa.Table:
        """Kibana Query Language search — see query/kql.py."""
        from .kql import kql_search

        return kql_search(self, q, k=k, with_meta=with_meta)

    def expand_regex(self, pattern: str,
                     max_expansions: int = 64) -> pa.Table:
        """Content terms fully matching the RE2 ``pattern`` (ES regexp
        query), (term, df) sorted by term asc, df-capped like
        expand_prefix."""
        if not pattern:
            raise ValueError("empty pattern")
        return self._scan(partial(_match_regex, pattern), "df",
                          max_expansions).sort_by("term")

    def expand_fuzzy(self, term: str, max_edits: int = 1,
                     max_expansions: int = 64,
                     transpositions: bool = False) -> pa.Table:
        """Content terms within ``max_edits`` edits of ``term`` (ES
        fuzzy query; ``transpositions=True`` = Damerau–Levenshtein,
        the ES default), (term, df) sorted by term asc."""
        if not term:
            raise ValueError("empty term")
        return self._scan(
            partial(_match_fuzzy, term, max_edits, transpositions), "df",
            max_expansions).sort_by("term")

    def _terms_search(self, terms: list[str], k: int,
                      with_meta: bool) -> pa.Table:
        """TAAT top-k over a disjunction of dictionary terms: the tail
        of the expansion surfaces (prefix, wildcard, fuzzy) and of the
        term-set rewrites (match_bool_prefix, synonym)."""
        terms = sorted(set(terms))
        if not terms:
            return self._format_result([], with_meta)
        self._ensure_contribs(terms)
        return self._format_result(self._search_taat(terms, k, None),
                                   with_meta)

    def fuzzy_search(self, term: str, max_edits: int = 1, k: int = 10,
                     max_expansions: int = 64,
                     with_meta: bool = False) -> pa.Table:
        """Top-k BM25 over the fuzzy expansion set (exact TAAT on the
        expanded disjunction, like prefix_search)."""
        exp = self.expand_fuzzy(term, max_edits, max_expansions)
        return self._terms_search(exp["term"].to_pylist(), k, with_meta)

    def wildcard_search(self, pattern: str, k: int = 10,
                        max_expansions: int = 64,
                        with_meta: bool = False) -> pa.Table:
        """ES wildcard query with scoring: ``*`` matches any run, ``?``
        any single character — including infix patterns a prefix index
        can't serve. The pattern is translated to an anchored RE2 and
        expanded against the shard dictionaries (a metadata-only
        parallel scan, like expand_regex), then the standard exact TAAT
        scorer runs over the expanded term set."""
        import re as _re

        if not pattern.strip("*?"):
            raise ValueError("wildcard pattern needs at least one "
                             "literal character")
        rx = "".join(".*" if ch == "*" else "." if ch == "?"
                     else _re.escape(ch) for ch in pattern)
        exp = self.expand_regex(rx, max_expansions)
        return self._terms_search(exp["term"].to_pylist(), k, with_meta)

    def prefix_search(self, prefix: str, k: int = 10,
                      max_expansions: int = 64,
                      with_meta: bool = False) -> pa.Table:
        """Top-k BM25 treating every term with this prefix as a query
        term (ES prefix/wildcard query with scoring): expand via the
        shard dictionaries, then the standard exact TAAT scorer runs
        over the expanded term set — identical scores to an explicit
        multi-term query on those terms."""
        exp = self.expand_prefix(prefix, max_expansions)
        return self._terms_search(exp["term"].to_pylist(), k, with_meta)

    def search_fields(self, content_query: str = "",
                      path_query: str = "", path_boost: float = 1.0,
                      k: int = 10, with_meta: bool = False,
                      strategy: str | None = None) -> pa.Table:
        """ES multi_match analog: score = BM25(content terms) +
        path_boost * BM25(path-field terms), each field under its own
        avgdl (requires an index built with index_path_field=True for a
        non-empty path_query).

        Both exact strategies, like search(): TAAT below the ceiling,
        block-max WAND above. WAND bound safety for path terms: their
        block_max was encoded under the CONTENT avgdl, and the tf
        normalization is increasing in avgdl, so the stored bound
        over-estimates whenever path_avgdl <= the encode-time avgdl —
        enforced with an explicit check (paths are orders of magnitude
        shorter than content, so the check never fires in practice);
        the boost simply scales each path cursor's idf."""
        if path_query and not self.stats.get("index_path_field"):
            raise ValueError(
                "index was built without the scored path field; rebuild "
                "with IndexConfig(index_path_field=True)")
        mx = int(self.stats["max_token_len"])
        ct = sorted(set(self._toks(content_query)))
        pt = sorted("p:" + t for t in set(tokenize_py(path_query, mx)))
        if not ct and not pt:
            return self._format_result([], with_meta)
        n = int(self.stats["n_docs"])
        if strategy is None:
            strategy = "taat" if n <= self.taat_max_docs else "wand"
        if strategy == "taat":
            self._ensure_contribs(ct + pt)
            # one global term order, like the SQL
            acc = self._accumulate(sorted(ct + pt), path_boost)
            return self._format_result(self._hits(acc, k), with_meta)
        # WAND: mixed-field cursors; per-field avgdl + boosted idf
        avgdl = self.stats["avgdl"]
        path_avgdl = float(self.stats.get("path_avgdl") or 0.0) or 1.0
        bounds_avgdl = self.stats.get("min_bounds_avgdl", avgdl) or avgdl
        if pt and path_avgdl > bounds_avgdl:
            raise ValueError(
                "path_avgdl exceeds the encode-time avgdl; stored "
                "block-max bounds would be unsafe for WAND — use "
                "strategy='taat' (exact) for this index")
        rows = self._fetch_terms(sorted(ct + pt))
        bound_scale = max(1.0, avgdl / bounds_avgdl)
        cursors = []
        for t in sorted(ct + pt):  # sorted order — the scoring contract
            row = rows.get(t)
            if row is None:
                continue
            tp = TermPostings(row)
            is_path = t.startswith("p:")
            idf = bm25_idf(n, int(tp.df))
            cursors.append(PostingsCursor(
                tp, idf, self.stats["k1"], self.stats["b"],
                path_avgdl if is_path else avgdl,
                1.0 if is_path else bound_scale,
                score_scale=path_boost if is_path else 1.0, lazy=True))
        tomb = self._tombstones
        topk = block_max_wand_vec(
            cursors, k, exclude_ids=tomb if tomb.size else None)
        return self._format_result(topk, with_meta)

    def search_sorted_by_field(self, text: str, field: str = "lang",
                               k: int = 10) -> pa.Table:
        """ES sort-by-keyword-field analog: the first k docs matching
        ANY query term, ordered by (field value asc, doc_id asc) —
        served entirely from posting intersections: field values come
        from the term dictionary in sorted order and each value's id
        list intersects the match set until k rows fill. No document
        metadata is read (the ES doc-values trick, posting-style)."""
        terms = sorted(set(self._toks(text)))
        self._ensure_contribs(terms)
        matches = self._union_ids(terms)
        if not matches.size:
            return pa.schema([("doc_id", pa.int64()),
                              (field, pa.string())]).empty_table()
        matches = self._drop_tombstones(matches)
        prefix = f"{field}:"
        fterms = self._field_terms(field)
        self._ensure_contribs(fterms)
        out_ids, out_vals = [], []
        for ft in fterms:
            if len(out_ids) >= k:
                break
            hit = self._contrib_cache.get(ft)
            if hit is None:
                continue
            inter = np.intersect1d(matches, hit[0], assume_unique=True)
            take = inter[:k - len(out_ids)]
            out_ids.extend(int(d) for d in take)
            out_vals.extend([ft[len(prefix):]] * take.size)
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         field: pa.array(out_vals, pa.string())})

    def rare_terms(self, max_df: int = 2, limit: int = 20) -> pa.Table:
        """ES ``rare_terms`` aggregation analog: the least-frequent
        content terms (df <= max_df), ranked (df asc, term asc) —
        parallel metadata-only dictionary scans, <= limit rows per
        shard, tiny driver merge."""
        return self._scan(partial(_match_rare, max_df), "rare", limit)

    def collapse_search(self, text: str, field: str = "lang",
                        k: int = 10) -> pa.Table:
        """ES field collapsing: top-k where at most one doc — the best
        by (score desc, doc_id asc) — survives per field value. Field
        values enumerate from the term dictionary; each value's best
        doc is one vectorized argmax over the accumulator restricted to
        that value's posting ids. Returns (doc_id, field, score)."""
        terms = sorted(set(self._toks(text)))
        self._ensure_contribs(terms)
        acc = self._accumulate(terms)
        self._mask_tombstones(acc)
        prefix = f"{field}:"
        fterms = self._field_terms(field)
        self._ensure_contribs(fterms)
        rows = []
        for ft in fterms:
            hit = self._contrib_cache.get(ft)
            if hit is None:
                continue
            ids = hit[0]
            s = acc[ids]
            m = s > 0.0
            if not m.any():
                continue
            (best, score), = top_k(ids[m], s[m], 1)
            rows.append((best, ft[len(prefix):], score))
        rows.sort(key=lambda r: (-r[2], r[0]))
        rows = rows[:k]
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            field: pa.array([r[1] for r in rows], pa.string()),
            "score": pa.array([r[2] for r in rows], pa.float64())})

    def collapse_inner_hits(self, text: str, field: str = "lang",
                            k: int = 5, inner_size: int = 2) -> pa.Table:
        """ES field collapsing WITH ``inner_hits``: the top-k groups
        (ordered by their best hit: score desc, doc_id asc) each expose
        their top ``inner_size`` docs — the "best doc per value, plus
        runners-up" shape Kibana's grouped results use. Same
        accumulator + field-posting exchange as collapse_search; per
        value one vectorized partial sort of depth inner_size. Returns
        (field, hit_rank, doc_id, score) flattened in (group rank,
        hit_rank) order. ``inner_size=0`` ranks the groups but lists no
        hits; a negative size raises ``ValueError``, as ES rejects it."""
        if inner_size < 0:
            raise ValueError(f"inner_size must be >= 0, got {inner_size}")
        terms = sorted(set(self._toks(text)))
        self._ensure_contribs(terms)
        acc = self._accumulate(terms)
        self._mask_tombstones(acc)
        prefix = f"{field}:"
        fterms = self._field_terms(field)
        self._ensure_contribs(fterms)
        groups = []
        for ft in fterms:
            hit = self._contrib_cache.get(ft)
            if hit is None:
                continue
            ids = hit[0]
            s = acc[ids]
            m = s > 0.0
            if not m.any():
                continue
            # the best hit orders the groups, whatever the inner page
            hits = top_k(ids[m], s[m], max(inner_size, 1))
            groups.append((hits[0], ft[len(prefix):], hits[:inner_size]))
        groups.sort(key=lambda g: (-g[0][1], g[0][0]))
        f_out, r_out, d_out, s_out = [], [], [], []
        for _best, val, hits in groups[:k]:
            for r, (d, s) in enumerate(hits, start=1):
                f_out.append(val)
                r_out.append(r)
                d_out.append(d)
                s_out.append(s)
        return pa.table({
            field: pa.array(f_out, pa.string()),
            "hit_rank": pa.array(r_out, pa.int64()),
            "doc_id": pa.array(d_out, pa.int64()),
            "score": pa.array(s_out, pa.float64())})

    def explain(self, text: str, doc_id: int) -> pa.Table:
        """ES _explain analog: the per-term BM25 contribution breakdown
        of one doc for a query — (term, df, contribution) term-asc; the
        contributions sum to search()'s score for the doc bit-exactly
        (same cached contribution arrays, one binary search per term)."""
        terms = sorted(set(self._toks(text)))
        self._ensure_contribs(terms)
        out_t, out_df, out_c = [], [], []
        for t in terms:
            hit = self._contrib_cache.get(t)
            if hit is None:
                continue
            ids, contrib, df = hit
            i = int(np.searchsorted(ids, doc_id))
            if i < ids.size and ids[i] == doc_id:
                out_t.append(t)
                out_df.append(int(df))
                out_c.append(float(contrib[i]))
        return pa.table({"term": pa.array(out_t, pa.string()),
                         "df": pa.array(out_df, pa.int64()),
                         "contribution": pa.array(out_c, pa.float64())})

    def conjunction_ids(self, text: str) -> np.ndarray:
        """Sorted doc-id array of docs containing ALL query terms — the
        AND-dual of ``match_ids``; pure sorted-array intersections over
        cached posting id lists, no scoring, no Python rows (at corpus
        scale the result stays a packed int64 array)."""
        terms = sorted(set(self._toks(text)))
        if not terms:
            return np.empty(0, dtype=np.int64)
        self._ensure_contribs(terms)
        inter: np.ndarray | None = None
        for t in terms:
            hit = self._contrib_cache.get(t)
            if hit is None:
                return np.empty(0, dtype=np.int64)
            inter = (hit[0] if inter is None
                     else np.intersect1d(inter, hit[0],
                                         assume_unique=True))
            if inter.size == 0:
                break
        return self._drop_tombstones(inter)

    def match_ids(self, text: str) -> np.ndarray:
        """Sorted doc-id array of docs containing ANY query term — a
        posting-id union, no scoring, no metadata read. The id set for
        _count and the broadcast side of scroll-style exports."""
        terms = sorted(set(self._toks(text)))
        self._ensure_contribs(terms)
        return self._drop_tombstones(self._union_ids(terms))

    def match_count(self, text: str) -> int:
        """ES _count analog: len(match_ids)."""
        return int(self.match_ids(text).size)

    def search_after(self, text: str, k: int = 10,
                     after: tuple[float, int] | None = None,
                     with_meta: bool = False,
                     strategy: str | None = None) -> pa.Table:
        """ES search_after pagination: the next ``k`` results strictly
        after the cursor ``(score, doc_id)`` in (score desc, doc_id asc)
        order. Pass the previous page's last row (full-precision score)
        as the cursor; ``after=None`` is page one.

        Auto-strategy mirrors ``search``: the TAAT accumulator (cursor
        predicate filters the scored candidates before top-k selection)
        while it fits; past ``taat_max_docs``, capped-score WAND — the
        kernel admits only post-cursor docs into its top-k merge, so the
        pruning threshold adapts to the post-cursor k-th best and deep
        pagination needs no N-sized state (the shard-scale requirement
        ES meets the same way: Lucene's searchAfter collectors re-run
        the pruned query with the cursor as a rank cap)."""
        n = int(self.stats["n_docs"])
        if strategy is None:
            strategy = "taat" if n <= self.taat_max_docs else "wand"
        terms = sorted(set(self._toks(text)))
        if strategy == "wand":
            cursors, decoded = self._wand_inputs(terms)
            tomb = self._tombstones
            topk = block_max_wand_vec(
                cursors, k, exclude_ids=tomb if tomb.size else None,
                decoded=decoded, after=after)
            return self._format_result(topk, with_meta)
        self._ensure_contribs(terms)
        acc = self._accumulate(terms)
        if after is not None:  # zero every doc at or before the cursor
            s, d = float(after[0]), int(after[1])
            acc[(acc > s) | ((acc == s) & (np.arange(n) <= d))] = 0.0
        return self._format_result(self._hits(acc, k), with_meta)

    def more_like_this(self, doc_id: int, max_terms: int = 5,
                       k: int = 10, with_meta: bool = False) -> pa.Table:
        """ES more_like_this analog: rank the source doc's terms by
        tf * idf (tie-break term asc), take the top ``max_terms`` as a
        query, return the BM25 top-k excluding the source doc. The
        source content is read with a doc_id row-group-pruned scan of
        the index's docs files — one document, never the corpus."""
        docs_dir = os.path.join(self.index_dir, "docs")
        src = pa_ds.dataset(docs_dir, format="parquet").to_table(
            columns=["doc_id", "content"],
            filter=pc.field("doc_id") == doc_id)
        if src.num_rows == 0:
            raise KeyError(f"doc_id {doc_id} not in index")
        toks = self._toks(src["content"][0].as_py())
        if not toks:
            return self._format_result([], with_meta)
        uniq, tf = np.unique(np.asarray(toks, dtype=object),
                             return_counts=True)
        dfs = self._term_dfs([str(t) for t in uniq])
        n = int(self.stats["n_docs"])
        weights = np.array([t * bm25_idf(n, dfs[str(u)])
                            if dfs[str(u)] else 0.0
                            for u, t in zip(uniq, tf)])
        # uniq is sorted asc; a stable sort on -weight keeps term-asc as
        # the tie-break (lexsort can't key on object arrays)
        order = np.argsort(-weights, kind="stable")[:max_terms]
        terms = sorted(str(uniq[i]) for i in order if weights[i] > 0)
        if not terms:
            return self._format_result([], with_meta)
        self._ensure_contribs(terms)
        acc = self._accumulate(terms)
        if doc_id < n:
            acc[doc_id] = 0.0  # the source doc never matches itself
        return self._format_result(self._hits(acc, k), with_meta)

    def highlight(self, doc_ids: list[int], term: str,
                  before: int = 40, width: int = 96) -> pa.Table:
        """ES highlight analog: for each doc id, the ``width``-char text
        window starting ``before`` chars before the first raw-text
        occurrence of ``term`` (empty string when absent). Content is
        fetched with one doc_id-pruned read of the k result docs —
        highlighting only ever touches result rows, never the corpus."""
        docs_dir = os.path.join(self.index_dir, "docs")
        tbl = pa_ds.dataset(docs_dir, format="parquet").to_table(
            columns=["doc_id", "content"],
            filter=pc.field("doc_id").isin(list(doc_ids)))
        by_id = dict(zip(tbl["doc_id"].to_pylist(),
                         tbl["content"].to_pylist()))
        snippets = []
        for d in doc_ids:
            content = by_id.get(d, "")
            idx = content.find(term)
            if idx < 0:
                snippets.append("")
            else:
                start = max(0, idx - before)
                snippets.append(content[start:start + width])
        return pa.table({
            "doc_id": pa.array(list(doc_ids), pa.int64()),
            "snippet": pa.array(snippets, pa.string()),
        })

    def term_vectors(self, doc_id: int) -> pa.Table:
        """ES termvectors analog: (term, tf) for one document, term-asc.
        Re-tokenizes the single pruned-fetch doc — identical tokens to
        the indexed ones by construction (same analyzer)."""
        docs_dir = os.path.join(self.index_dir, "docs")
        src = pa_ds.dataset(docs_dir, format="parquet").to_table(
            columns=["doc_id", "content"],
            filter=pc.field("doc_id") == doc_id)
        if src.num_rows == 0:
            raise KeyError(f"doc_id {doc_id} not in index")
        toks = self._toks(src["content"][0].as_py())
        uniq, tf = np.unique(np.asarray(toks, dtype=object),
                             return_counts=True)
        return pa.table({
            "term": pa.array([str(t) for t in uniq], pa.string()),
            "tf": pa.array(tf.astype(np.int64), pa.int64()),
        })

    def index_stats(self) -> pa.Table:
        """ES _stats/_cat-indices analog: corpus-level counts served
        from index METADATA (stats.json + the shard dictionaries) —
        no posting decode, no corpus scan. n_terms/n_postings include
        the keyword field postings (lang:/repo:), like ES counts its
        keyword fields."""
        shard_stats = self._broadcast("dict_stats")
        return pa.table({
            "n_docs": pa.array([int(self.stats["n_docs"])], pa.int64()),
            **{k: pa.array([sum(st[k] for st in shard_stats)], pa.int64())
               for k in ("n_terms", "n_postings")},
            "total_tokens": pa.array([int(self.stats["total_tokens"])],
                                     pa.int64()),
        })

    def boolean_search(self, must: str = "", should: str = "",
                       must_not: str = "", k: int = 10,
                       with_meta: bool = False,
                       min_should_match: int = 0) -> pa.Table:
        """ES bool query: docs containing ALL ``must`` terms and NONE of
        the ``must_not`` terms, scored by BM25 over must+should terms
        (should widens scoring, not matching — ES semantics with a must
        clause present; with no must clause, any should term matches).

        ``min_should_match`` (ES minimum_should_match): require at
        least that many DISTINCT should terms per doc — computed as one
        ``np.unique(counts)`` over the concatenated should id lists,
        never per doc. 0 keeps the default semantics above.

        Scale note: candidate narrowing uses the decoded id lists the
        TAAT cache already holds; past ``taat_max_docs`` the same
        semantics run as WAND over the must conjunction with a must_not
        membership predicate — this method guards the TAAT ceiling the
        same way search() does."""
        mt = sorted(set(self._toks(must)))
        st = sorted(set(self._toks(should)))
        nt = sorted(set(self._toks(must_not)))
        if not mt and not st:
            return self._format_result([], with_meta)
        score_terms = sorted(set(mt) | set(st))
        self._ensure_contribs(score_terms + nt)
        sets = {}
        for t in mt + nt:
            hit = self._contrib_cache.get(t)
            if hit is None and t in mt:
                return self._format_result([], with_meta)
            sets[t] = None if hit is None else hit[0]
        cand = None
        if mt:
            cand = sets[mt[0]]
            for t in mt[1:]:
                cand = np.intersect1d(cand, sets[t], assume_unique=True)
                if cand.size == 0:
                    return self._format_result([], with_meta)
        msm = min_should_match if mt else max(min_should_match, 1)
        if st and msm > 0:
            present = [self._contrib_cache[t][0] for t in st
                       if self._contrib_cache.get(t) is not None]
            if len(present) < msm:
                return self._format_result([], with_meta)
            u, c = np.unique(np.concatenate(present), return_counts=True)
            smatch = u[c >= msm]
            cand = (smatch if cand is None
                    else np.intersect1d(cand, smatch, assume_unique=True))
        if cand is None:
            return self._format_result([], with_meta)
        for t in nt:
            ids = sets.get(t)
            if ids is not None and ids.size:
                cand = cand[~np.isin(cand, ids, assume_unique=True)]
        if cand.size == 0:
            return self._format_result([], with_meta)
        topk = self._search_taat(score_terms, k, cand)
        return self._format_result(topk, with_meta)

    def function_score_search(self, text: str,
                              weights: dict[str, dict[str, float]],
                              k: int = 10,
                              with_meta: bool = False) -> pa.Table:
        """ES function_score with filter+weight functions: BM25(text)
        multiplied by the weight of every matching filter, here keyword
        field values (e.g. ``{"lang": {"en": 1.5, "de": 1.25}}``). Each
        weight applies as one vectorized in-place multiply over the
        field's posting id list (already resident in the filter/TAAT
        cache) — no document metadata is read. Weights apply before
        top-k selection, so they re-rank, not just re-label.

        Scale note: runs in the TAAT regime like boolean_search; past
        the ceiling the same semantics hold under WAND with upper bounds
        inflated by max(weight) plus exact per-doc re-weighting at
        scoring time (bounds stay admissible because weights are
        per-doc multipliers bounded by the max). A negative weight
        raises ``ValueError``, as Elasticsearch rejects negative
        scores."""
        for field, vals in weights.items():
            for value, w in vals.items():
                _check_boost(f"weight of {field}:{value}", w)
        terms = sorted(set(self._toks(text)))
        if not terms:
            return self._format_result([], with_meta)
        self._ensure_contribs(terms)
        acc = self._accumulate(terms)
        for field in sorted(weights):
            for value in sorted(weights[field]):
                ft = f"{field}:{value}"
                self._ensure_contribs([ft])
                hit = self._contrib_cache.get(ft)
                if hit is not None:
                    acc[hit[0]] *= float(weights[field][value])
        return self._format_result(self._hits(acc, k), with_meta)

    def dis_max_search(self, content_query: str = "",
                       path_query: str = "", path_boost: float = 2.0,
                       tie_breaker: float = 0.5, k: int = 10,
                       with_meta: bool = False) -> pa.Table:
        """ES dis_max across the content and scored-path fields:
        score = max(content, boost*path) + tie_breaker * min(content,
        boost*path) — the best field dominates, the other contributes
        only through the tie breaker (vs multi_match's plain sum,
        search_fields). Two TAAT accumulators, one vectorized max/min
        combine. Power-of-two boost/tie_breaker defaults keep the
        combine bit-exact against the SQL oracle regardless of whether
        the multiplier is applied per-term or post-sum."""
        if path_query and not self.stats.get("index_path_field"):
            raise ValueError(
                "index was built without the scored path field; rebuild "
                "with IndexConfig(index_path_field=True)")
        mx = int(self.stats["max_token_len"])
        ct = sorted(set(self._toks(content_query)))
        pt = sorted("p:" + t for t in set(tokenize_py(path_query, mx)))
        if not ct and not pt:
            return self._format_result([], with_meta)
        self._ensure_contribs(ct + pt)
        acc_c = self._accumulate(ct)
        acc_p = self._accumulate(pt)
        acc_p *= path_boost
        acc = (np.maximum(acc_c, acc_p)
               + tie_breaker * np.minimum(acc_c, acc_p))
        return self._format_result(self._hits(acc, k), with_meta)

    def boosting_search(self, positive: str, negative: str,
                        negative_boost: float = 0.5, k: int = 10,
                        with_meta: bool = False) -> pa.Table:
        """ES ``boosting`` query: BM25(positive), with any doc matching
        the negative query demoted by ``negative_boost`` BEFORE top-k
        selection (demotion re-ranks; it never excludes). One vectorized
        multiply over the union of the negative terms' posting ids.
        Runs in the TAAT regime like function_score_search; the WAND
        scale path inflates bounds by max(1, negative_boost) — bounds
        stay admissible because the multiplier is per-doc and <= 1. A
        negative ``negative_boost`` raises ``ValueError``."""
        _check_boost("negative_boost", negative_boost)
        terms = sorted(set(self._toks(positive)))
        if not terms:
            return self._format_result([], with_meta)
        self._ensure_contribs(terms)
        acc = self._accumulate(terms)
        neg_terms = sorted(set(self._toks(negative)))
        self._ensure_contribs(neg_terms)
        # union first: a doc matching several negative terms is demoted
        # ONCE (ES boosting semantics)
        acc[self._union_ids(neg_terms)] *= float(negative_boost)
        return self._format_result(self._hits(acc, k), with_meta)

    def pinned_search(self, pinned_ids: list[int], text: str,
                      k: int = 10, with_meta: bool = False) -> pa.Table:
        """ES ``pinned`` query: the given ids rank first in their given
        order (ES assigns them decreasing sentinel scores; here
        ``1e6 - position``), then organic BM25 results fill the
        remainder, excluding the pinned ids. Ids outside ``[0, n_docs)``
        and tombstoned ids are dropped, and a repeated id pins only at
        its first position, as the DSL ``ids`` filter treats them."""
        n = int(self.stats["n_docs"])
        pinned = [int(d) for d in self._drop_tombstones(np.asarray(
            [d for d in dict.fromkeys(int(d) for d in pinned_ids)
             if 0 <= d < n], dtype=np.int64))]
        head = [(d, 1_000_000.0 - i)
                for i, d in enumerate(pinned[:k], start=1)]
        organic: list[tuple[int, float]] = []
        if len(head) < k:
            res = self.search(text, k=k + len(pinned), with_meta=False)
            drop = set(pinned)
            for d, s in zip(res["doc_id"].to_pylist(),
                            res["score"].to_pylist()):
                if int(d) not in drop:
                    organic.append((int(d), float(s)))
                if len(head) + len(organic) >= k:
                    break
        return self._format_result(head + organic[:k - len(head)],
                                   with_meta)

    def distance_feature_search(self, text: str, origin: int = 0,
                                pivot: float = 1000.0,
                                weight: float = 1.0, k: int = 10,
                                with_meta: bool = False) -> pa.Table:
        """ES ``distance_feature`` query: relevance plus a proximity
        boost ``weight * pivot / (pivot + |value - origin|)`` on a
        numeric doc value — here the doc id, which IS this engine's
        recency rank (ids are assigned in sorted-key order and deltas
        append after the base, index/update.py). A dl- or
        timestamp-valued variant threads that value through the
        contribution cache; the formula and exchange are identical."""
        terms = sorted(set(self._toks(text)))
        if not terms:
            return self._format_result([], with_meta)
        self._ensure_contribs(terms)
        acc = self._accumulate(terms)
        self._mask_tombstones(acc)
        cand = np.flatnonzero(acc > 0.0)
        dist = np.abs(cand.astype(np.float64) - float(origin))
        scores = acc[cand] + float(weight) * (float(pivot)
                                              / (float(pivot) + dist))
        return self._format_result(top_k(cand, scores, k), with_meta)

    def field_caps(self) -> pa.Table:
        """ES ``_field_caps`` analog: per-field searchability metadata
        — distinct value count and total postings — aggregated from one
        parallel dictionary-stat round across the shards (terms are
        hash-partitioned, so per-shard counts add without dedup)."""
        acc: dict[str, list[int]] = {}
        for tbl in self._broadcast("dict_caps"):
            for f, n, d in zip(tbl["field"].to_pylist(),
                               tbl["n_values"].to_pylist(),
                               tbl["total_df"].to_pylist()):
                cur = acc.setdefault(f, [0, 0])
                cur[0] += n
                cur[1] += d
        types = {"content": "text", "lang": "keyword",
                 "repo": "keyword"}
        fields = sorted(acc)
        return pa.table({
            "field": pa.array(fields),
            "type": pa.array([types[f] for f in fields]),
            "n_values": pa.array([acc[f][0] for f in fields],
                                 pa.int64()),
            "total_df": pa.array([acc[f][1] for f in fields],
                                 pa.int64())})

    def rank_feature_search(self, text: str, pivot: float = 50.0,
                            weight: float = 0.7, k: int = 10,
                            function: str = "saturation",
                            with_meta: bool = False) -> pa.Table:
        """ES ``rank_feature`` query: BM25 relevance plus a bounded
        boost from a per-document numeric feature — here the document
        length in tokens (dl), the numeric doc value the posting format
        already carries next to every tf. Functions: ``saturation``
        (dl / (dl + pivot)) and ``log`` (ln(1 + dl / pivot)), scaled by
        ``weight``. The feature is decoded SHARD-SIDE next to the
        postings in one extra parallel round over the query's content
        terms (IndexShard.decode_raw) — any matched term covers its
        docs' dl, so candidates (docs with acc > 0) are fully covered
        and no doc store is read."""
        terms = sorted(set(self._toks(text)))
        if not terms:
            return self._format_result([], with_meta)
        self._ensure_contribs(terms)
        acc = self._accumulate(terms)
        self._mask_tombstones(acc)
        cand = np.flatnonzero(acc > 0.0)
        if cand.size == 0:
            return self._format_result([], with_meta)
        f = self._doc_lengths(terms)[cand]
        if function == "saturation":
            boost = f / (f + float(pivot))
        elif function == "log":
            boost = np.log1p(f / float(pivot))
        else:
            raise ValueError(f"unknown rank_feature function: {function}")
        scores = acc[cand] + float(weight) * boost
        return self._format_result(top_k(cand, scores, k), with_meta)

    def ltr_features(self, text: str, k: int = 10) -> pa.Table:
        """ES 8.12 learning-to-rank FEATURE LOGGING: for the query's
        BM25 top-k candidates, extract the per-(query, doc) feature
        row a ranking model trains on — here ``score`` (BM25),
        ``matched_terms`` (how many distinct query terms hit the doc)
        and ``dl`` (document token length). Everything reuses machinery
        the query path already has: contributions from the shard-decoded
        cache (term id lists double as match indicators), dl decoded
        SHARD-SIDE next to the postings (rank_feature's decode_raw
        round) — no doc-store read, nothing N-sized beyond TAAT's own
        accumulator. Returns (doc_id, score, matched_terms, dl) in
        (score desc, doc_id asc) order."""
        terms = sorted(set(self._toks(text)))
        self._ensure_contribs(terms)
        topk = self._search_taat(terms, k, None)
        if not topk:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64()),
                             "matched_terms": pa.array([], pa.int64()),
                             "dl": pa.array([], pa.int64())})
        top_ids = np.array([d for d, _ in topk], dtype=np.int64)
        matched = np.zeros(top_ids.size, dtype=np.int64)
        for t in terms:
            hit = self._contrib_cache.get(t)
            if hit is not None:
                matched += np.isin(top_ids, hit[0]).astype(np.int64)
        dl = self._doc_lengths(terms)[top_ids].astype(np.int64)
        return pa.table({
            "doc_id": pa.array(top_ids, pa.int64()),
            "score": pa.array([s for _, s in topk], pa.float64()),
            "matched_terms": pa.array(matched, pa.int64()),
            "dl": pa.array(dl, pa.int64())})

    def _doc_lengths(self, terms: list[str]) -> np.ndarray:
        """Content length (dl) per doc id, float64, for every doc a
        cached content term of ``terms`` covers (0 elsewhere): dl rides
        next to every tf in the posting format, so one shard-side
        decode_raw round reads it without a doc store (ES rank_feature
        over a doc-values field, posting-style). Call
        ``_ensure_contribs(terms)`` first."""
        present = [t for t in terms if not t.startswith("p:")
                   and self._contrib_cache.get(t) is not None]
        dl = np.zeros(int(self.stats["n_docs"]), dtype=np.float64)
        for res in _gather(self._term_refs(
                "decode_raw", dict.fromkeys(present, ()))).values():
            if res is not None:
                dl[res[1]] = res[3]
        return dl

    def _sparse_vector_dense(self, weights: dict[str, float]) -> np.ndarray:
        """Dense unmasked per-doc scores for the sparse-vector scorer
        (shared by sparse_vector_search and the DSL's sparse_vector
        node). Query keys run through the analyzer; each must
        normalize to one token."""
        mx = int(self.stats["max_token_len"])
        norm: dict[str, float] = {}
        for key, w in weights.items():
            toks = tokenize_py(key, mx)
            if len(set(toks)) != 1:
                raise ValueError(
                    f"sparse_vector key {key!r} does not normalize to "
                    f"one token (got {sorted(set(toks))})")
            norm[toks[0]] = norm.get(toks[0], 0.0) + float(w)
        terms = sorted(norm)
        n = int(self.stats["n_docs"])
        acc = np.zeros(n, dtype=np.float64)
        if not terms:
            return acc
        raw = _gather(self._term_refs("decode_raw", dict.fromkeys(terms, ())))
        for t in terms:  # sorted-term order = oracle order
            res = raw[t]
            if res is None:
                continue
            df, ids, tf, _dl = res
            idf = math.log(1.0 + n / float(df))
            # ln(tf) through scalar libm per UNIQUE tf value (tf is a
            # small-int multiset, so uv is tiny): vectorized np.log is
            # 1 ulp off scalar ln on ~20% of inputs, and the oracle
            # (DuckDB ln) is scalar — exactness beats the SIMD log here
            uv, inv = np.unique(tf, return_inverse=True)
            ulog = np.array([math.log(float(x)) for x in uv],
                            dtype=np.float64)
            acc[ids] += norm[t] * ((1.0 + ulog[inv]) * idf)
        return acc

    def sparse_vector_search(self, weights: dict[str, float],
                             k: int = 10,
                             with_meta: bool = False) -> pa.Table:
        """ES ``text_expansion`` / ``sparse_vector`` query (the ELSER
        serving shape): the query is a sparse term→weight vector and
        each document's sparse vector is derived from the index itself
        — w_d(t, d) = (1 + ln(tf)) * ln(1 + n/df), the classic
        ltc-style expansion weight — so the score is the dot product
        sum_t w_q(t) * w_d(t, d). No doc store is touched: raw tf
        decodes shard-side (IndexShard.decode_raw) in one parallel
        round and only (ids, tf) arrays come back.

        Query keys run through the analyzer; keys that don't normalize
        to exactly one indexed-form token are rejected (a weight must
        attach to one dictionary entry, as in ES's token→weight map).
        TAAT accumulation in sorted-term order (the oracle's addition
        order). Scale note: per-term max contribution is bounded by
        w_q * (1 + ln(max_tf)) * idf, so the block-max WAND machinery
        extends to this scorer when n_docs outgrows the accumulator;
        the dense path matches taat_max_docs like search()."""
        acc = self._sparse_vector_dense(weights)
        return self._format_result(self._hits(acc, k), with_meta)

    def _norms_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(dl, path_dl) float64 arrays indexed by doc_id, from the
        norms sidecar (one file per docs/ file, written by the build's
        and each update's finalize tasks). Rows at or past stats'
        n_docs belong to an update stats.json has not committed and are
        skipped. Small-N fast path pins both — the same N-sized budget
        the TAAT accumulator already pays; past taat_max_docs a scorer
        should gather only candidate rows (row-group-pruned, the
        _join_docmap pattern)."""
        if self._norms_mem is None:
            ndir = os.path.join(self.index_dir, "norms")
            rebuild = ("; it was written by an older version, which wrote "
                       "norms only on request and never on update: "
                       "rebuild it with IndexConfig(index_path_field=True)")
            if not os.path.isdir(ndir):
                raise ValueError("index has no norms sidecar" + rebuild)
            n = int(self.stats["n_docs"])
            tbl = pa_ds.dataset(ndir, format="parquet").to_table()
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
            live = ids < n
            if int(live.sum()) != n:
                raise ValueError(f"the norms sidecar covers "
                                 f"{int(live.sum())} of {n} docs" + rebuild)
            dl = np.zeros(n, dtype=np.float64)
            pdl = np.zeros(n, dtype=np.float64)
            dl[ids[live]] = tbl["dl"].to_numpy(zero_copy_only=False)[live]
            pdl[ids[live]] = \
                tbl["path_dl"].to_numpy(zero_copy_only=False)[live]
            self._norms_mem = (dl, pdl)
        return self._norms_mem

    def _combined_fields_dense(self, text: str,
                               path_boost: float = 1.0) -> np.ndarray:
        """Dense unmasked per-doc BM25F scores (shared by
        combined_fields_search and the DSL's combined_fields node)."""
        if not self.stats.get("index_path_field"):
            raise ValueError(
                "combined_fields needs the scored path field; rebuild "
                "with IndexConfig(index_path_field=True)")
        if int(self.stats["n_docs"]) > self.taat_max_docs:
            # the dense accumulator + pinned norms are TAAT-regime
            # structures; past the ceiling this scorer needs the WAND
            # kernel with combined bounds + candidate-pruned norms
            # gathers (_join_docmap pattern) — explicit, not silent
            raise ValueError(
                "combined_fields currently serves the TAAT regime "
                f"(n_docs <= {self.taat_max_docs}); raise "
                "taat_max_docs explicitly if the accumulator fits")
        mx = int(self.stats["max_token_len"])
        terms = sorted(set(tokenize_py(text, mx)))
        n = int(self.stats["n_docs"])
        acc = np.zeros(n, dtype=np.float64)
        if not terms:
            return acc
        k1, b = float(self.stats["k1"]), float(self.stats["b"])
        boost = float(path_boost)
        avg = (float(self.stats["total_tokens"])
               + boost * float(self.stats["path_total_tokens"])) \
            / float(n)
        dl_all, pdl_all = self._norms_arrays()
        dl_comb = dl_all + boost * pdl_all
        raw = _gather(self._term_refs(
            "decode_raw", {f: () for t in terms for f in (t, "p:" + t)}))
        scratch = np.zeros(n, dtype=np.float64)
        for t in terms:  # sorted-term order = oracle order
            rc, rp = raw[t], raw["p:" + t]
            if rc is None and rp is None:
                continue
            parts = []
            if rc is not None:
                scratch[rc[1]] += rc[2]
                parts.append(rc[1])
            if rp is not None:
                scratch[rp[1]] += boost * rp[2]
                parts.append(rp[1])
            ids_u = parts[0] if len(parts) == 1 \
                else np.union1d(parts[0], parts[1])
            idf = bm25_idf(n, int(ids_u.size))
            tfu = scratch[ids_u]
            dlu = dl_comb[ids_u]
            acc[ids_u] += idf * (tfu * (k1 + 1.0)
                                 / (tfu + k1 * (1.0 - b + b * dlu / avg)))
            scratch[ids_u] = 0.0
        return acc

    def combined_fields_search(self, text: str, path_boost: float = 1.0,
                               k: int = 10,
                               with_meta: bool = False) -> pa.Table:
        """ES ``combined_fields`` query (BM25F-style term-centric
        scoring): content and path are treated as ONE pseudo-field —
        per term, tf_comb = tf_content + boost * tf_path; per doc,
        dl_comb = dl_content + boost * dl_path (from the norms
        sidecar, so docs a term matches only in one field still get
        their full combined length); df_comb = |docs matching the term
        in EITHER field|; avgdl_comb from the global field totals.
        Then plain BM25 over the combined stats. Contrast
        search_fields (per-field BM25 summed) and cross_fields_search
        (blended df, max field norm).

        Raw tf decodes shard-side (decode_raw) in one parallel round;
        the per-term union/combine is numpy over a dense scratch
        (reset per term by touched ids only). TAAT accumulation in
        sorted-term order."""
        acc = self._combined_fields_dense(text, path_boost)
        return self._format_result(self._hits(acc, k), with_meta)

    def constant_score_search(self, text: str, filters: dict | None = None,
                              k: int = 10,
                              with_meta: bool = False) -> pa.Table:
        """ES ``constant_score``: every doc matching the filter context
        (any query term, AND the keyword filters) scores exactly 1.0;
        ties break doc_id asc. Pure posting-set algebra — no scoring
        decode."""
        terms = sorted(set(self._toks(text)))
        self._ensure_contribs(terms)
        ids = self._union_ids(terms)
        allow = self._filter_ids(filters)
        if allow is not None:
            ids = ids[np.isin(ids, allow)]
        ids = self._drop_tombstones(ids)
        return self._format_result(
            [(int(d), 1.0) for d in ids[:k]], with_meta)

    def cross_fields_search(self, text: str, k: int = 10,
                            with_meta: bool = False) -> pa.Table:
        """ES ``multi_match`` with ``type: cross_fields`` over the
        scored fields (content + path): term-centric blending — each
        query term is looked up in BOTH fields, its idf comes from the
        BLENDED document frequency (Lucene BlendedTermQuery takes the
        max df across fields), and per doc the term contributes
        idf_blend * max(field tf-norms), each field normalized under
        its own avgdl. Contrast search_fields (best_fields): that sums
        per-field BM25 with boosts; cross_fields treats the fields as
        one logical field so a term matching only in ``path`` is not
        drowned by a content-frequency idf.

        Exchange shape: one parallel shard-decode round per field with
        ``idf_override=1.0`` (pure norms; the blended idf multiplies
        driver-side), then TAAT accumulation. The WAND regime inflates
        each term's block max by idf_blend/idf_field — still admissible
        because max-norm <= sum-of-norms."""
        mtl = int(self.stats["max_token_len"])
        terms = sorted(set(tokenize_py(text, mtl)))
        if not terms:
            return self._format_result([], with_meta)
        n = int(self.stats["n_docs"])
        k1, b = self.stats["k1"], self.stats["b"]
        avgdl = self.stats["avgdl"]
        path_avgdl = float(self.stats.get("path_avgdl") or 0.0) or 1.0
        # one decode round across both fields' shards, idf deferred
        decoded = _gather(self._term_refs("decode_term", {
            f: (n, k1, b, mean_dl, 1.0) for t in terms
            for f, mean_dl in ((t, avgdl), ("p:" + t, path_avgdl))}))
        acc = np.zeros(n, dtype=np.float64)
        tmp = np.zeros(n, dtype=np.float64)
        for t in terms:
            rc, rp = decoded[t], decoded["p:" + t]
            if rc is None and rp is None:
                continue
            df_blend = max(rc[0] if rc else 0, rp[0] if rp else 0)
            idf = bm25_idf(n, df_blend)
            tmp[:] = 0.0
            if rc is not None:
                tmp[rc[1]] = rc[2]
            if rp is not None:
                np.maximum.at(tmp, rp[1], rp[2])
            acc += idf * tmp
        return self._format_result(self._hits(acc, k), with_meta)

    def synonym_search(self, text: str, synonyms: dict[str, list[str]],
                       k: int = 10, with_meta: bool = False) -> pa.Table:
        """ES ``synonym_graph`` token-filter analog at query time: each
        query term expands to itself plus its synonym set, and the doc
        score is the BM25 sum over the UNION of expanded terms (the ES
        multi-position-token contract: a synonym hit scores like the
        original term occupying that position). Expansion is a
        broadcast-side dictionary — at fleet scale the synonym map ships
        once via ray.put inside the actor pool, exactly like the GeoIP
        DB handle. The map is keyed by surface forms; the expanded
        terms then run the index's stem filter."""
        mtl = int(self.stats["max_token_len"])
        base = sorted(set(tokenize_py(text, mtl)))
        expanded = set(base)
        for t in base:
            for syn in synonyms.get(t, []):
                expanded.update(tokenize_py(syn, mtl))
        return self._terms_search(self._toks(" ".join(expanded)), k,
                                  with_meta)

    def dsl_search(self, body: dict,
                   with_meta: bool = False) -> pa.Table:
        """Execute an ES Query-DSL request body (query/dsl.py): bool /
        match / match_phrase / term / terms / range / constant_score /
        boosting / dis_max / function_score / match_all, with size and
        from — the JSON surface the reference's dashboards speak."""
        from .dsl import execute_dsl

        return execute_dsl(self, body, with_meta=with_meta)

    def query_string(self, qs: str, k: int = 10,
                     with_meta: bool = False) -> pa.Table:
        """ES query_string mini-language (a compatible subset):

        - ``field:value`` — keyword-field filter (``lang:``/``repo:``
          field postings, same as search()'s ``filters``)
        - ``"a phrase"`` — must contain the consecutive token sequence
          (positional verify, phrase_match); ``-"a phrase"`` excludes it
        - ``+term`` — must (conjunction)
        - ``-term`` — must_not (exclusion)
        - ``term`` — should (scores; with no must/phrase clause present,
          any should term matches — ES bool semantics)

        Scoring: BM25 summed over must + should + phrase terms in
        sorted-term order (phrase terms score as plain terms once the
        positional constraint holds, as in phrase_topk). Composition is
        all sorted-id set algebra over cached posting lists. The parser
        reads surface forms; must / should / must_not terms then run
        the index's stem filter."""
        parsed = parse_query_string(qs)
        must, should = parsed["must"], parsed["should"]
        must_not, phrases = parsed["must_not"], parsed["phrases"]
        neg_phrases = parsed["neg_phrases"]
        filters = parsed["filters"]
        if parsed["impossible"]:  # conflicting single-valued filters
            return self._format_result([], with_meta)
        mx = int(self.stats["max_token_len"])
        mt = sorted(set(self._toks(" ".join(must))))
        st = sorted(set(self._toks(" ".join(should))))
        nt = sorted(set(self._toks(" ".join(must_not))))
        pterms = [tokenize_py(p, mx) for p in phrases]
        score_terms = sorted(set(mt) | set(st)
                             | {t for p in pterms for t in p})
        if not score_terms:
            return self._format_result([], with_meta)
        self._ensure_contribs(score_terms + nt)
        cand: np.ndarray | None = None

        def _narrow(ids: np.ndarray | None) -> np.ndarray:
            if ids is None:
                return np.empty(0, dtype=np.int64)
            return (ids if cand is None
                    else np.intersect1d(cand, ids, assume_unique=True))

        for p in phrases:
            ids = self.phrase_match(p)["doc_id"] \
                .to_numpy(zero_copy_only=False)
            cand = _narrow(ids)
        for t in mt:
            hit = self._contrib_cache.get(t)
            cand = _narrow(None if hit is None else hit[0])
        fl = self._filter_ids(filters)
        if fl is not None:
            cand = _narrow(fl)
        if cand is None:  # pure-should query: any should term matches
            cand = self._union_ids(st)
        for t in nt:
            hit = self._contrib_cache.get(t)
            if hit is not None and cand.size:
                cand = cand[~np.isin(cand, hit[0], assume_unique=True)]
        for p in neg_phrases:
            if not cand.size:
                break
            ids = self.phrase_match(p)["doc_id"] \
                .to_numpy(zero_copy_only=False)
            cand = cand[~np.isin(cand, ids, assume_unique=True)]
        if cand.size == 0:
            return self._format_result([], with_meta)
        topk = self._search_taat(score_terms, k, cand)
        return self._format_result(topk, with_meta)

    def search_facets(self, text: str, field: str = "lang") -> pa.Table:
        """ES aggregation on query results: per field value, how many
        docs match ANY of the query's terms. Counts come from sorted-id
        intersections of the match set with the field posting lists —
        the field values are enumerated from the term dictionary, and no
        document metadata is read at all."""
        terms = sorted(set(self._toks(text)))
        self._ensure_contribs(terms)
        matches = self._union_ids(terms)
        if not matches.size:
            return pa.schema([(field, pa.string()),
                              ("n_docs", pa.int64())]).empty_table()
        matches = self._drop_tombstones(matches)
        prefix = f"{field}:"
        fterms = self._field_terms(field)
        self._ensure_contribs(fterms)
        out_vals, out_counts = [], []
        for ft in fterms:
            hit = self._contrib_cache.get(ft)
            if hit is None:
                continue
            inter = np.intersect1d(matches, hit[0], assume_unique=True)
            if inter.size:
                out_vals.append(ft[len(prefix):])
                out_counts.append(int(inter.size))
        return pa.table({field: pa.array(out_vals, pa.string()),
                         "n_docs": pa.array(out_counts, pa.int64())})

    def phrase_match(self, phrase: str, chunk_docs: int = 200_000,
                     candidate_max_df: int = 5_000_000) -> pa.Table:
        """All docs containing ``phrase`` as consecutive tokens, with
        overlapping occurrence counts — (doc_id, n_matches) sorted by
        doc_id. Requires an index built with store_positions=True (the
        ES match_phrase analog; plan selection in query/phrase.py)."""
        from .phrase import phrase_match

        res = phrase_match(self, phrase, chunk_docs=chunk_docs,
                           candidate_max_df=candidate_max_df)
        return self._filter_deleted_rows(res)

    def rescore_search(self, text: str, phrase: str, k: int = 10,
                       window: int = 50, weight: float = 0.5,
                       with_meta: bool = False) -> pa.Table:
        """ES ``rescore`` analog: the top ``window`` BM25 hits are
        reranked by a secondary phrase query — final score =
        query_score + weight * (exact occurrences of ``phrase`` in the
        doc), i.e. a constant-score-per-match rescore query with
        score_mode: total. Only the window's ids are ever rescored (the
        phrase verification is restricted to them via its candidate
        plan), matching ES's window_size contract."""
        top = self.search(text, k=window, with_meta=False)
        if top.num_rows == 0:
            return self._format_result([], with_meta)
        from .phrase import phrase_match

        pm = self._filter_deleted_rows(phrase_match(
            self, phrase,
            restrict_ids=top["doc_id"].to_numpy(zero_copy_only=False)))
        counts = dict(zip(pm["doc_id"].to_pylist(),
                          pm["n_matches"].to_pylist()))
        ids = top["doc_id"].to_numpy(zero_copy_only=False)
        base = top["score"].to_numpy(zero_copy_only=False)
        boost = np.asarray([counts.get(int(d), 0) for d in ids],
                           dtype=np.float64)
        final = base + weight * boost
        return self._format_result(top_k(ids, final, k), with_meta)

    def _filter_deleted_rows(self, res: pa.Table) -> pa.Table:
        if not self._tombstones.size or res.num_rows == 0:
            return res
        ids = res["doc_id"].to_numpy(zero_copy_only=False)
        keep = ~np.isin(ids, self._tombstones)
        return res.filter(pa.array(keep))

    def phrase_prefix_match(self, phrase: str, max_expansions: int = 64,
                            chunk_docs: int = 200_000) -> pa.Table:
        """ES match_phrase_prefix: phrase whose last token is a prefix
        expanded against the term dictionaries (query/phrase.py)."""
        from .phrase import phrase_prefix_match

        return self._filter_deleted_rows(
            phrase_prefix_match(self, phrase,
                                max_expansions=max_expansions,
                                chunk_docs=chunk_docs))

    def proximity_match(self, term1: str, term2: str, window: int = 3,
                        chunk_docs: int = 200_000) -> pa.Table:
        """ES span_near (unordered): (doc_id, n_matches) for docs where
        the two terms occur within ``window`` tokens (query/phrase.py)."""
        from .phrase import proximity_match

        return self._filter_deleted_rows(
            proximity_match(self, term1, term2, window=window,
                            chunk_docs=chunk_docs))

    def intervals_match(self, first: str, then: str, max_gaps: int = 2,
                        chunk_docs: int = 200_000) -> pa.Table:
        """ES intervals query, ``match`` with ``ordered: true`` +
        ``max_gaps``: (doc_id, n_matches) counting occurrence pairs
        where ``then`` appears strictly after ``first`` with at most
        ``max_gaps`` tokens between them (query/phrase.py, the ordered
        mode of the proximity kernel)."""
        from .phrase import proximity_match

        return self._filter_deleted_rows(
            proximity_match(self, first, then, window=max_gaps,
                            chunk_docs=chunk_docs, mode="ordered"))

    def phrase_slop_match(self, term1: str, term2: str, slop: int = 2,
                          chunk_docs: int = 200_000) -> pa.Table:
        """ES ``match_phrase`` with ``slop`` for a two-term phrase:
        (doc_id, n_matches) counting occurrence pairs whose Lucene
        sloppy distance |j - i - 1| <= slop — reversal ("b a" adjacent)
        costs 2 moves, so it matches from slop 2 (query/phrase.py, the
        slop mode of the proximity kernel)."""
        from .phrase import proximity_match

        return self._filter_deleted_rows(
            proximity_match(self, term1, term2, window=slop,
                            chunk_docs=chunk_docs, mode="slop"))

    def span_first_match(self, term: str, end: int,
                         chunk_docs: int = 200_000) -> pa.Table:
        """ES ``span_first``: (doc_id, n_matches) for docs where
        ``term`` occurs among the first ``end`` tokens (span end <=
        ``end``; query/phrase.py span_first_match)."""
        from .phrase import span_first_match

        return self._filter_deleted_rows(
            span_first_match(self, term, end, chunk_docs=chunk_docs))

    def span_not_match(self, include: str, exclude: str, pre: int = 0,
                       post: int = 0,
                       chunk_docs: int = 200_000) -> pa.Table:
        """ES ``span_not``: (doc_id, n_matches) counting occurrences of
        ``include`` with no ``exclude`` occurrence within ``pre`` tokens
        before / ``post`` after (query/phrase.py span_not_match)."""
        from .phrase import span_not_match

        return self._filter_deleted_rows(
            span_not_match(self, include, exclude, pre=pre, post=post,
                           chunk_docs=chunk_docs))

    def span_or_match(self, terms: list[str],
                      chunk_docs: int = 200_000) -> pa.Table:
        """ES ``span_or`` (single-term clauses): (doc_id, n_matches)
        counting occurrences of ANY of the terms (query/phrase.py
        span_or_match — one multi-alternative slot)."""
        from .phrase import span_or_match

        return self._filter_deleted_rows(
            span_or_match(self, terms, chunk_docs=chunk_docs))

    def terms_enum(self, field: str, prefix: str = "",
                   size: int = 20) -> pa.Table:
        """ES ``_terms_enum`` analog: values of a keyword FIELD
        starting with ``prefix``, lexicographically ascending (the API
        contract), served from the term dictionary alone — no doc
        reads; df rides along free (keyword postings are one per doc).
        Parallel per-shard asc heads of ``size`` merge on the driver;
        term-hash partitioning guarantees no cross-shard duplicates."""
        cat = self._scan(partial(_match_prefix, f"{field}:{prefix}", True),
                         "term", size)
        vals = pc.utf8_slice_codeunits(cat["term"], len(field) + 1)
        return pa.table({"value": vals, "df": cat["df"]})

    def phrase_suggest(self, text: str, max_edits: int = 1,
                       per_slot: int = 5, k: int = 3) -> pa.Table:
        """ES phrase suggester ("did you mean" for multi-word queries):
        per-slot candidate generation (fuzzy dictionary expansion,
        df-ranked, ``per_slot`` wide) + bigram scoring — a candidate
        pair's score is its total adjacent-occurrence count across the
        corpus, served by the phrase machinery over the positions
        sidecar (the shingle-field LM evidence ES uses), so correction
        quality is judged by corpus evidence, not edit distance alone.
        Pairs with zero corpus support drop out (ES confidence
        pruning). Returns (suggestion, score), score desc /
        suggestion asc, top ``k``."""
        mtl = int(self.stats["max_token_len"])
        toks = tokenize_py(text, mtl)
        if len(toks) != 2:
            raise ValueError("phrase_suggest takes a two-word query")
        c1 = self.expand_fuzzy(toks[0], max_edits=max_edits,
                               max_expansions=per_slot)
        c2 = self.expand_fuzzy(toks[1], max_edits=max_edits,
                               max_expansions=per_slot)
        out_s, out_n = [], []
        for a in c1["term"].to_pylist():
            for b in c2["term"].to_pylist():
                m = self.phrase_match(f"{a} {b}")
                n = int(pc.sum(m["n_matches"]).as_py() or 0) \
                    if m.num_rows else 0
                if n > 0:
                    out_s.append(f"{a} {b}")
                    out_n.append(n)
        tbl = pa.table({"suggestion": pa.array(out_s, pa.string()),
                        "score": pa.array(out_n, pa.int64())})
        idx = pc.sort_indices(tbl, sort_keys=[("score", "descending"),
                                              ("suggestion", "ascending")])
        return tbl.take(idx.slice(0, k))

    def span_containing_match(self, big_first: str, big_last: str,
                              little: str, max_dist: int = 6,
                              chunk_docs: int = 200_000) -> pa.Table:
        """ES ``span_containing``: (doc_id, n_matches) counting minimal
        ordered big spans (big_first ... big_last, length <= max_dist)
        that enclose a ``little`` occurrence (query/phrase.py
        span_contain_match)."""
        from .phrase import span_contain_match

        return self._filter_deleted_rows(
            span_contain_match(self, big_first, big_last, little,
                               max_dist=max_dist, mode="containing",
                               chunk_docs=chunk_docs))

    def span_within_match(self, big_first: str, big_last: str,
                          little: str, max_dist: int = 6,
                          chunk_docs: int = 200_000) -> pa.Table:
        """ES ``span_within``: (doc_id, n_matches) counting ``little``
        occurrences enclosed by a minimal ordered big span
        (query/phrase.py span_contain_match)."""
        from .phrase import span_contain_match

        return self._filter_deleted_rows(
            span_contain_match(self, big_first, big_last, little,
                               max_dist=max_dist, mode="within",
                               chunk_docs=chunk_docs))

    def match_bool_prefix_search(self, text: str, k: int = 10,
                                 max_expansions: int = 1024,
                                 with_meta: bool = False) -> pa.Table:
        """ES ``match_bool_prefix``: every token but the last matches as
        a bool should term; the LAST token is a prefix expanded against
        the shard dictionaries, each expansion scoring as another
        should term (the ES bool { should: [term..., prefix] } rewrite).
        Scoring is the plain TAAT sum over the union — the same kernel
        as synonym_search with a dictionary-driven expansion set."""
        mtl = int(self.stats["max_token_len"])
        toks = tokenize_py(text, mtl)
        if not toks:
            return self._format_result([], with_meta)
        expansions = self.expand_prefix(
            toks[-1], max_expansions)["term"].to_pylist()
        return self._terms_search(toks[:-1] + expansions, k, with_meta)

    def terms_set_search(self, terms: list[str], min_match: int,
                         k: int = 10,
                         with_meta: bool = False) -> pa.Table:
        """ES ``terms_set`` query: docs matching at least ``min_match``
        DISTINCT terms of the set, scored by BM25 over the terms they
        do match (the ES minimum_should_match_script constant form).
        One pass over the cached per-term contributions accumulates the
        score and the distinct-match count together; the WAND regime
        serves this as a top-k with the count predicate applied at
        scoring time (same admissible bounds — dropping docs only ever
        lowers the threshold)."""
        tset = sorted({t for raw in terms for t in self._toks(raw)})
        if not tset or min_match < 1:
            return self._format_result([], with_meta)
        self._ensure_contribs(tset)
        acc = self._accumulate(tset)
        cnt = np.zeros(acc.size, dtype=np.int32)
        for t in tset:
            hit = self._contrib_cache.get(t)
            if hit is not None:
                cnt[hit[0]] += 1
        acc[cnt < int(min_match)] = 0.0
        return self._format_result(self._hits(acc, k), with_meta)

    def phrase_topk(self, phrase: str, k: int = 10,
                    with_meta: bool = False,
                    chunk_docs: int = 200_000) -> pa.Table:
        """Top-k BM25 over the phrase's terms among docs that contain the
        exact phrase (ES match_phrase + scoring): positional verification
        restricts the candidate set, then the standard TAAT scorer runs
        with that set as a filter — scores are identical to a plain
        multi-term query on those docs."""
        matches = self.phrase_match(phrase, chunk_docs=chunk_docs)
        match_ids = matches["doc_id"].to_numpy(zero_copy_only=False)
        if match_ids.size == 0:
            return self._format_result([], with_meta)
        terms = sorted(set(self._toks(phrase)))
        if int(self.stats["n_docs"]) <= self.taat_max_docs:
            self._ensure_contribs(terms)
            topk = self._search_taat(terms, k, match_ids)
        else:
            # scale path: score the matched ids directly from the blocks
            # that contain them — no N-sized accumulator, no full decode
            # of a hot term's list; bit-identical to the TAAT path
            topk = top_k(match_ids,
                         self._score_id_set(terms, match_ids), k)
        return self._format_result(topk, with_meta)

    def _wand_seed(self, terms: list[str], k: int,
                   max_seed_df: int = 10_000) -> float | None:
        """Exact threshold warm-start for WAND: fully score the rarest
        term's candidate docs — the k-th best of that subset is a
        provable lower bound on the true k-th best score, so
        nextafter(bound, -inf) is a safe initial pruning threshold.
        Without it, mixed rare+hot queries only reach a useful threshold
        after scanning a large fraction of the hot lists.

        IO-lean by construction: the candidate scoring is block-targeted
        (``_score_id_set`` decodes only the posting blocks containing a
        candidate), so seeding costs the rare term's small list plus
        O(candidates) blocks — never a hot term's full list. (The
        previous formulation warmed the TAAT contribution cache, i.e.
        decoded every query term fully — exactly the N-sized work the
        WAND strategy exists to avoid.)"""
        rows = self._fetch_terms(terms)
        present = [(int(r["df"]), t) for t, r in rows.items()]
        if len(present) < 2:
            return None
        min_df, rare = min(present)
        if min_df > max_seed_df or min_df < k:
            return None
        cand = TermPostings(rows[rare]).decode_all()[0]
        totals = self._score_id_set(terms, cand)
        if totals.size < k:
            return None
        kth = float(np.partition(totals, -k)[-k])
        return float(np.nextafter(kth, -np.inf))

    def _format_result(self, topk: list[tuple[int, float]],
                       with_meta: bool) -> pa.Table:
        result = pa.table({
            "rank": pa.array(np.arange(1, len(topk) + 1, dtype=np.int32)),
            "doc_id": pa.array([d for d, _ in topk], pa.int64()),
            "score": pa.array([s for _, s in topk], pa.float64()),
        })
        if not with_meta:
            return result
        meta = self._join_docmap([d for d, _ in topk])
        if meta.num_rows == 0:  # keep schema stable on empty results
            meta = meta.select(["doc_id", "repo", "path", "commit", "lang",
                                "sha256"])
        joined = result.join(meta, keys="doc_id", join_type="left outer")
        return joined.sort_by("rank")
