"""Federated cross-index search — the ES multi-index /
``dfs_query_then_fetch`` analog.

Searching several indexes naively (score each locally, merge by score)
is wrong: BM25 idf and length normalization depend on collection stats,
so the same doc scores differently depending on which index it landed
in — exactly the problem ES's dfs_query_then_fetch mode solves by
pre-collecting GLOBAL term statistics. This module does the same,
exactly:

1. one metadata round collects each member's df per query term
   (``SearchEngine._term_dfs`` — dictionary lookups, no posting bytes);
2. global stats are formed from integer sums — ``n = Σ n_i``,
   ``avgdl = Σ total_tokens_i / Σ n_i``, ``df = Σ df_i`` — the exact
   values a single merged index would have computed;
3. every member's shards decode with the member-local postings but the
   GLOBAL avgdl and a GLOBAL-idf override
   (``IndexShard.decode_term(idf_override=...)``), so each
   contribution's float expression tree is identical to the merged
   index's — scores are **bit-identical** to a single index over the
   union corpus;
4. accumulators live in a global doc-id space (member offsets by
   cumulative n_docs), top-k with the engine's (score desc, id asc)
   tie-break.

Doc-id semantics: member i's local ids map to ``local + offset_i``.
When members partition a corpus in sorted-key order (the builder's id
assignment), global ids equal the merged index's ids, making results
fully interchangeable — pinned by ``test_federated.py``.

Scale note: one decode round fans out across ALL members' shards in
parallel (a single ``ray.get`` wave); the TAAT accumulator is
Σn_i-sized. Past the TAAT ceiling, ``strategy="wand"`` runs the SAME
global stats through ONE vectorized block-max WAND kernel over every
member's cursors mapped into the global id space
(``TermPostings(id_offset=...)``) — the shared kernel IS the global
threshold exchange (a doc pruned in member A is pruned by a threshold
member B's docs tightened), no Σn-sized state, bit-identical to the
merged index's WAND (test_federated.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..analysis.tokenizer import tokenize_py
from .bm25 import bm25_idf
from .postings import PostingsCursor, TermPostings
from .shards import _gather, top_k
from .wand import block_max_wand_vec


class FederatedSearch:
    def __init__(self, engines: list):
        if not engines:
            raise ValueError("need at least one member engine")
        k1b = {(e.stats["k1"], e.stats["b"]) for e in engines}
        if len(k1b) != 1:
            raise ValueError(f"members disagree on k1/b: {k1b}")
        mtl = {int(e.stats["max_token_len"]) for e in engines}
        if len(mtl) != 1:
            raise ValueError("members disagree on max_token_len")
        self.engines = engines
        self.k1, self.b = next(iter(k1b))
        self.max_token_len = next(iter(mtl))
        ns = [int(e.stats["n_docs"]) for e in engines]
        self.offsets = np.concatenate(([0], np.cumsum(ns)[:-1]))
        self.n_global = int(sum(ns))
        total_tokens = sum(int(e.stats["total_tokens"]) for e in engines)
        self.avgdl_global = total_tokens / self.n_global

    def search(self, text: str, k: int = 10,
               strategy: str | None = None) -> pa.Table:
        """Global-stats BM25 top-k over the union of the member indexes;
        returns (rank, doc_id, score) in the global id space.

        ``strategy``: None/"taat" = the Σn-sized-accumulator path below;
        "wand" = one block-max WAND kernel over all members' cursors in
        the global id space (no Σn-sized state — the scale path)."""
        terms = sorted(set(tokenize_py(text, self.max_token_len)))
        if not terms:
            return self._table([])
        # dfs phase: per-member dfs -> global df per term
        member_dfs = [e._term_dfs(terms) for e in self.engines]
        df_g = {t: sum(d.get(t, 0) for d in member_dfs) for t in terms}
        if strategy == "wand":
            return self._search_wand(terms, df_g, k)
        # query phase: one parallel decode wave across all members'
        # shards, global avgdl + global-idf override
        refs = {}
        for ei, e in enumerate(self.engines):
            sent = e._term_refs("decode_term", {
                t: (self.n_global, self.k1, self.b, self.avgdl_global,
                    bm25_idf(self.n_global, df_g[t]))
                for t in terms if member_dfs[ei].get(t, 0)})
            refs.update(((ei, t), ref) for t, ref in sent.items())
        acc = np.zeros(self.n_global, dtype=np.float64)
        for (ei, _), res in _gather(refs).items():
            if res is None:
                continue
            _df, ids, contrib = res
            acc[ids + self.offsets[ei]] += contrib
        # member delete tombstones apply in the global id space
        for ei, e in enumerate(self.engines):
            t = e._tombstones
            if t.size:
                tg = t + self.offsets[ei]
                acc[tg[tg < acc.size]] = 0.0
        cand = np.flatnonzero(acc > 0.0)
        return self._table(top_k(cand, acc[cand], k))

    def _search_wand(self, terms: list[str], df_g: dict, k: int
                     ) -> pa.Table:
        """Block-max WAND across members with a GLOBAL threshold: every
        member's compressed rows become cursors whose block metadata and
        decoded ids live in the global id space (TermPostings
        id_offset), then ONE vectorized kernel consumes them together —
        the kernel's adaptive threshold is the cross-member exchange.
        Scores are bit-identical to the TAAT path (same global idf /
        avgdl expression tree; per doc exactly one member contributes
        per term, so the sorted-(term, member) cursor order preserves
        the oracle's per-doc term addition order)."""
        # one fetch wave per member (each is itself one parallel shard
        # round), not one round-trip per (term, member)
        member_rows = [e._fetch_terms(terms) for e in self.engines]
        cursors = []
        for t in terms:  # sorted-term order — the scoring contract
            if df_g.get(t, 0) == 0:
                continue
            idf = bm25_idf(self.n_global, df_g[t])
            for ei, e in enumerate(self.engines):
                row = member_rows[ei].get(t)
                if row is None:
                    continue
                tp = TermPostings(row, id_offset=int(self.offsets[ei]))
                # stored block-max bounds were encoded under the MEMBER
                # avgdl; tf_norm is increasing in avgdl, so scale them
                # up when the global avgdl exceeds the encode-time one
                avgdl = e.stats["avgdl"]
                bounds_avgdl = e.stats.get("min_bounds_avgdl",
                                           avgdl) or avgdl
                scale = max(1.0, self.avgdl_global / bounds_avgdl)
                cursors.append(PostingsCursor(
                    tp, idf, self.k1, self.b, self.avgdl_global, scale,
                    lazy=True))
        tombs = [e._tombstones + self.offsets[ei]
                 for ei, e in enumerate(self.engines)
                 if e._tombstones.size]
        exclude = (np.sort(np.concatenate(tombs)) if tombs else None)
        return self._table(
            block_max_wand_vec(cursors, k, exclude_ids=exclude))

    def shutdown(self) -> None:
        """Shut down every member engine."""
        for e in self.engines:
            e.shutdown()

    @staticmethod
    def _table(topk: list[tuple[int, float]]) -> pa.Table:
        return pa.table({
            "rank": pa.array(np.arange(1, len(topk) + 1, dtype=np.int64)),
            "doc_id": pa.array([d for d, _ in topk], pa.int64()),
            "score": pa.array([s for _, s in topk], pa.float64())})
