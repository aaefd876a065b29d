"""Posting-list cursors over compressed segment rows (query side).

A ``TermPostings`` wraps one segment row (term, block metadata, varint
streams); a ``PostingsCursor`` is a doc-at-a-time iterator with block-level
skipping (``next_geq`` binary-searches ``block_last`` and only then decodes
the one block it needs) — the skip/block-max metadata produced at build time
(segments.py) is what makes this sub-linear.
"""

from __future__ import annotations

import numpy as np

from ..index.codec import decode_varint
from .bm25 import bm25_tf_norm

INF_DOC = np.iinfo(np.int64).max


class TermPostings:
    """Decoded-on-demand access to one term's compressed postings."""

    __slots__ = ("term", "df", "block_first", "block_last", "block_count",
                 "block_max", "doc_off", "tf_off", "dl_off",
                 "doc_data", "tf_data", "dl_data", "_cache", "id_offset")

    def __init__(self, row: dict, id_offset: int = 0):
        # id_offset maps member-local doc ids into a federated global id
        # space (query/federated.py): block metadata shifts once here,
        # decoded ids shift per decode — everything else is unchanged
        self.id_offset = int(id_offset)
        self.term = row["term"]
        self.df = row["df"]
        self.block_first = np.asarray(row["block_first"],
                                      dtype=np.int64) + self.id_offset
        self.block_last = np.asarray(row["block_last"],
                                     dtype=np.int64) + self.id_offset
        self.block_count = np.asarray(row["block_count"], dtype=np.int64)
        self.block_max = np.asarray(row["block_max"], dtype=np.float64)
        self.doc_off = np.asarray(row["block_doc_off"], dtype=np.int64)
        self.tf_off = np.asarray(row["block_tf_off"], dtype=np.int64)
        self.dl_off = np.asarray(row["block_dl_off"], dtype=np.int64)
        self.doc_data = row["doc_data"]
        self.tf_data = row["tf_data"]
        self.dl_data = row["dl_data"]
        self._cache: tuple[int, tuple] | None = None

    @property
    def n_blocks(self) -> int:
        return len(self.block_last)

    def decode_block(self, bi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._cache is not None and self._cache[0] == bi:
            return self._cache[1]
        ids = np.cumsum(decode_varint(
            self.doc_data[self.doc_off[bi]:self.doc_off[bi + 1]]))
        if self.id_offset:
            ids += self.id_offset
        tfs = decode_varint(self.tf_data[self.tf_off[bi]:self.tf_off[bi + 1]])
        dls = decode_varint(self.dl_data[self.dl_off[bi]:self.dl_off[bi + 1]])
        self._cache = (bi, (ids, tfs, dls))
        return ids, tfs, dls

    def decode_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode the whole posting list in three varint calls (one per
        stream) + a segmented cumsum — ~100x fewer numpy dispatches than
        per-block decoding; this is the TAAT fast path."""
        if self.n_blocks == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, z
        gaps = decode_varint(self.doc_data)
        tfs = decode_varint(self.tf_data)
        dls = decode_varint(self.dl_data)
        # per-block cumsum (first value of each block is absolute):
        # c - repeat(c[start] - gap[start]) restarts the sum at each block
        starts = np.zeros(self.n_blocks, dtype=np.int64)
        np.cumsum(self.block_count[:-1], out=starts[1:])
        c = np.cumsum(gaps)
        corr = c[starts] - gaps[starts]
        ids = c - np.repeat(corr, self.block_count)
        if self.id_offset:
            ids += self.id_offset
        return ids, tfs, dls

    def decode_block_range(self, b0: int, b1: int
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode blocks ``b0..b1`` (inclusive) in three varint calls +
        one segmented cumsum — the contiguous-run generalization of
        ``decode_all``. Returns absolute doc ids. This is what makes the
        vectorized WAND's selective decode as cheap per byte as the TAAT
        full decode: cost scales with the bytes actually decoded, not
        with the number of blocks touched."""
        counts = self.block_count[b0:b1 + 1]
        gaps = decode_varint(
            self.doc_data[self.doc_off[b0]:self.doc_off[b1 + 1]])
        tfs = decode_varint(
            self.tf_data[self.tf_off[b0]:self.tf_off[b1 + 1]])
        dls = decode_varint(
            self.dl_data[self.dl_off[b0]:self.dl_off[b1 + 1]])
        starts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        c = np.cumsum(gaps)
        corr = c[starts] - gaps[starts]
        ids = c - np.repeat(corr, counts)
        if self.id_offset:
            ids += self.id_offset
        return ids, tfs, dls

    def all_doc_ids(self) -> np.ndarray:
        """Doc ids of the whole posting list (field-filter postings)."""
        return self.decode_all()[0]


class PostingsCursor:
    """Doc-at-a-time cursor with block skipping and block-max bounds.

    ``idf`` is folded in so ``max_score``/``block_max_score`` are directly
    comparable across terms (block_max stores the tf-normalization bound,
    see segments.py).
    """

    __slots__ = ("tp", "idf", "k1", "b", "avgdl", "max_score", "cur_doc",
                 "_bi", "_pos", "_ids", "_tfs", "_dls", "bound_scale",
                 "score_scale")

    def __init__(self, tp: TermPostings, idf: float, k1: float = 1.2,
                 b: float = 0.75, avgdl: float = 1.0,
                 bound_scale: float = 1.0, score_scale: float = 1.0,
                 lazy: bool = False):
        self.tp = tp
        self.idf = idf
        self.k1, self.b, self.avgdl = k1, b, avgdl
        # bound_scale >= 1 keeps stored block-max bounds safe when the
        # collection avgdl has grown since the blocks were encoded
        # (incremental updates; tf_norm is increasing in avgdl)
        self.bound_scale = bound_scale
        # score_scale: per-field query boost, applied OUTSIDE the
        # idf*tf_norm product — boost*(idf*tf_norm) — so WAND scores
        # stay bit-identical to the TAAT path's boosted contributions
        self.score_scale = score_scale
        self.max_score = (idf * float(tp.block_max.max()) * bound_scale
                          * score_scale if tp.n_blocks else 0.0)
        self._bi = -1
        self._pos = 0
        self._ids = self._tfs = self._dls = None
        self.cur_doc = INF_DOC
        # lazy=True skips the block-0 decode: the vectorized WAND kernel
        # reads only metadata fields off the cursor and decodes ranges
        # itself — paying a per-cursor block decode here was measurable
        # per-query overhead on cached hot queries
        if tp.n_blocks and not lazy:
            self._load_block(0)

    def _load_block(self, bi: int) -> None:
        self._bi = bi
        self._ids, self._tfs, self._dls = self.tp.decode_block(bi)
        self._pos = 0
        self.cur_doc = int(self._ids[0])

    def next(self) -> int:
        """Advance one posting."""
        self._pos += 1
        if self._pos < len(self._ids):
            self.cur_doc = int(self._ids[self._pos])
        elif self._bi + 1 < self.tp.n_blocks:
            self._load_block(self._bi + 1)
        else:
            self.cur_doc = INF_DOC
        return self.cur_doc

    def next_geq(self, target: int) -> int:
        """Advance to the first doc id >= target (block skip + bisect)."""
        if self.cur_doc >= target:
            return self.cur_doc
        tp = self.tp
        if target > tp.block_last[self._bi]:
            bi = int(np.searchsorted(tp.block_last, target, side="left"))
            if bi >= tp.n_blocks:
                self.cur_doc = INF_DOC
                return self.cur_doc
            self._load_block(bi)
            if self.cur_doc >= target:
                return self.cur_doc
        pos = int(np.searchsorted(self._ids, target, side="left"))
        if pos >= len(self._ids):  # defensive; block_last guard covers this
            return self.next_geq_block_end()
        self._pos = pos
        self.cur_doc = int(self._ids[pos])
        return self.cur_doc

    def next_geq_block_end(self) -> int:
        if self._bi + 1 < self.tp.n_blocks:
            self._load_block(self._bi + 1)
        else:
            self.cur_doc = INF_DOC
        return self.cur_doc

    def block_index_for(self, target: int) -> int:
        """Block that would contain target (no decode); n_blocks if past end."""
        if target <= self.tp.block_last[self._bi]:
            return self._bi
        return int(np.searchsorted(self.tp.block_last, target, side="left"))

    def block_max_score(self, target: int) -> float:
        bi = self.block_index_for(target)
        if bi >= self.tp.n_blocks:
            return 0.0
        return (self.idf * float(self.tp.block_max[bi])
                * self.bound_scale * self.score_scale)

    def block_last_for(self, target: int) -> int:
        """block_last of the block containing target (INF if exhausted)."""
        bi = self.block_index_for(target)
        if bi >= self.tp.n_blocks:
            return INF_DOC
        return int(self.tp.block_last[bi])

    def score_current(self) -> float:
        """Exact BM25 contribution at the cursor (idf * tf_norm), float64.

        Identical formula + float order as the oracle (bm25.py):
        idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)).
        """
        tf = float(self._tfs[self._pos])
        dl = float(self._dls[self._pos])
        s = self.idf * bm25_tf_norm(tf, dl, self.avgdl, self.k1, self.b)
        return s if self.score_scale == 1.0 else self.score_scale * s

    def exhausted(self) -> bool:
        return self.cur_doc == INF_DOC
