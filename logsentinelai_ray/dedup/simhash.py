"""SimHash near-duplicate detection (64-bit, tf-weighted, pigeonhole LSH).

fingerprint(doc) = sign-vector of sum_t tf(t) * (+1/-1 per bit of hash(t)).
Pairs with hamming distance <= ``max_hamming`` are found exactly via the
pigeonhole principle: split the 64 bits into ``max_hamming + 1`` bands —
any pair within distance k shares at least one identical band → groupby
band value finds every such pair (no recall loss, unlike MinHash-LSH).

Fully vectorized per batch: one tokenize pass, hash-per-unique-token with
an actor-held cache, bit matrix × tf reduceat per doc.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..analysis.tokenizer import term_tf, tokenize_batch_arrow


def _hash64(token: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


class SimHashEmit:
    """Actor-pool stage: docs → (doc_id, simhash, band0..bandK) rows."""

    def __init__(self, text_col: str, id_col: str, n_bands: int):
        self.text_col, self.id_col = text_col, id_col
        self.n_bands = n_bands
        self._cache: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        row_idx, tokens, _dl = tokenize_batch_arrow(batch[self.text_col])
        enc, _, u_row, u_code, tf = term_tf(tokens, row_idx)
        vocab = enc.dictionary.to_pylist()
        cache = self._cache
        hashes = np.empty(max(1, len(vocab)), dtype=np.uint64)
        for i, t in enumerate(vocab):
            h = cache.get(t)
            if h is None:
                h = _hash64(t)
                cache[t] = h
            hashes[i] = h
        n_docs = batch.num_rows
        doc_ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        u_hash = hashes[u_code]
        # bit matrix: (n_pairs, 64) of +tf / -tf
        bits = ((u_hash[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                & np.uint64(1)).astype(np.int64)
        contrib = (2 * bits - 1) * tf[:, None]
        acc = np.zeros((n_docs, 64), dtype=np.int64)
        np.add.at(acc, u_row, contrib)
        fp = np.zeros(n_docs, dtype=np.uint64)
        pos = acc > 0
        for k in range(64):
            fp |= pos[:, k].astype(np.uint64) << np.uint64(k)
        # one LSH row per (band, doc): the fingerprint rides along so the
        # pair stage can verify hamming distance without any N-sized lookup
        width = 64 // self.n_bands
        mask = np.uint64((1 << width) - 1)
        bands, vals, ids, fprep = [], [], [], []
        for band in range(self.n_bands):
            bands.append(np.full(n_docs, band, dtype=np.int32))
            vals.append((fp >> np.uint64(band * width)) & mask)
            ids.append(doc_ids)
            fprep.append(fp)
        return pa.table({
            "band": pa.array(np.concatenate(bands), pa.int32()),
            "val": pa.array(np.concatenate(vals), pa.uint64()),
            "doc_id": pa.array(np.concatenate(ids), pa.int64()),
            "simhash": pa.array(np.concatenate(fprep), pa.uint64()),
        })


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x.view(np.uint8)).reshape(x.size, 8).sum(axis=1) \
        if x.dtype == np.uint8 else \
        np.unpackbits(np.ascontiguousarray(x).view(np.uint8)
                      ).reshape(x.size, -1).sum(axis=1)


def _band_pairs(group: pa.Table, max_hamming: int,
                max_group: int | None) -> pa.Table:
    ids = group["doc_id"].to_numpy(zero_copy_only=False)
    fps = group["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.argsort(ids)
    ids, fps = ids[order], fps[order]
    if ids.size < 2 or (max_group is not None and ids.size > max_group):
        # a degenerate band value (g docs) expands to g(g-1)/2 pairs; the
        # cap bounds that blowup at the cost of the pairs whose ONLY
        # shared band was the hot one (exactness holds with cap=None)
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "hamming": pa.array([], pa.int32())})
    ia, ib = np.triu_indices(ids.size, k=1)
    ham = _popcount(fps[ia] ^ fps[ib]).astype(np.int32)
    keep = ham <= max_hamming
    return pa.table({"a": pa.array(ids[ia][keep], pa.int64()),
                     "b": pa.array(ids[ib][keep], pa.int64()),
                     "hamming": pa.array(ham[keep], pa.int32())})


def simhash_dupes(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3,
                  max_group: int | None = None) -> pa.Table:
    """Returns (a, b, hamming) with hamming <= max_hamming, sorted (a, b).

    Exact under the pigeonhole banding (no missed pairs) when
    ``max_group`` is None; pair discovery and verification both run
    inside the band groupby — nothing N-sized on the driver.

    ``max_group`` bounds the quadratic pair expansion of a degenerate
    band value (e.g. a boilerplate-dominated corpus where one band
    collides across a large doc fraction): groups above the cap are
    skipped, which can only drop pairs, never invent them. A corpus of
    identical documents has Θ(N²) true pairs — no exact algorithm is
    sub-quadratic in its own output, so bounding time means bounding
    output."""
    from functools import partial

    from ray.data.aggregate import Min

    n_bands = max_hamming + 1
    assert 64 % n_bands == 0, "band count must divide 64"
    rows = ds.map_batches(SimHashEmit,
                          fn_constructor_args=(text_col, id_col, n_bands),
                          batch_format="pyarrow", concurrency=(1, 4))
    pairs = (rows.groupby(["band", "val"])
             .map_groups(partial(_band_pairs, max_hamming=max_hamming,
                                 max_group=max_group),
                         batch_format="pyarrow")
             .groupby(["a", "b"])
             .aggregate(Min("hamming", alias_name="hamming")))
    schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                        ("hamming", pa.int32())])
    # collect via iter_batches, skipping the schema-less empty blocks an
    # all-to-all can emit for empty partitions at tiny scale
    parts = [b for b in pairs.iter_batches(batch_format="pyarrow",
                                           batch_size=1 << 20)
             if b.num_rows]
    if not parts:
        return schema.empty_table()
    t = pa.concat_tables([p.select(["a", "b", "hamming"]) for p in parts])
    return t.cast(schema).sort_by([("a", "ascending"), ("b", "ascending")])
