"""Posting-segment encode / merge kernels (run inside ``map_groups``).

A *run* is the encoded postings of the terms of one ``(part, salt)`` shuffle
group; salts partition the doc-id space into ``S`` contiguous ranges, so for
any term the runs of salt 0..S-1 hold disjoint, increasing doc-id ranges and
a merged posting list is just run concatenation in salt order — no re-sort,
no re-encode. That is the skew story required by BASELINE.json north_rule: a
Zipf-head term ("error", "import") is encoded by up to S parallel tasks
instead of one.

Each posting block (<= block_size postings) stores its first doc id
*absolute* (gaps afterwards), so blocks decode independently — which is what
makes both run-concatenation and block-max WAND skipping work.

Segment schema (one row per term, one parquet file per term-partition):
  part:int32, term:string, df:int64,
  block_first:list<int64>, block_last:list<int64>, block_count:list<int32>,
  block_max:list<float64>,
  block_doc_off / block_tf_off / block_dl_off:list<int64>  (byte offsets,
      one extra trailing entry = total length),
  doc_data / tf_data / dl_data: large_binary

Per-posting streams are doc-id gaps, term frequency, and document length
(all varint). Storing dl per posting (~1 extra byte) makes a term partition
fully self-contained for BM25 scoring at any scale — no N-sized doc-length
array on the query path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import IndexConfig
from ..query.bm25 import bm25_tf_norm
from .codec import encode_varint, varint_sizes

SEGMENT_SCHEMA = pa.schema([
    ("part", pa.int32()),
    ("term", pa.string()),
    ("df", pa.int64()),
    ("block_first", pa.list_(pa.int64())),
    ("block_last", pa.list_(pa.int64())),
    ("block_count", pa.list_(pa.int32())),
    ("block_max", pa.list_(pa.float64())),
    ("block_doc_off", pa.list_(pa.int64())),
    ("block_tf_off", pa.list_(pa.int64())),
    ("block_dl_off", pa.list_(pa.int64())),
    ("doc_data", pa.large_binary()),
    ("tf_data", pa.large_binary()),
    ("dl_data", pa.large_binary()),
])


def _stream_encode(values: np.ndarray, block_starts: np.ndarray
                   ) -> tuple[bytes, np.ndarray]:
    """Encode one stream; return (bytes, byte offset of each block)."""
    data = encode_varint(values)
    sizes = varint_sizes(values)
    cum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=cum[1:])
    return data, cum[block_starts]


def encode_runs(group: pa.Table, cfg: IndexConfig, avgdl: float) -> pa.Table:
    """Encode one (part, salt) group of raw postings into per-term runs.

    Input columns: part, salt, term, doc_id, tf, dl (plus ignored extras).
    Fully vectorized: one lexsort, boundary detection, three varint streams
    for the whole group, per-block metadata via ``np.maximum.reduceat``.
    Output: SEGMENT_SCHEMA + a ``salt`` column (dropped at merge).
    """
    if group.num_rows == 0:
        return _empty_run_table()
    part = int(group["part"][0].as_py())
    salt = int(group["salt"][0].as_py())
    b = cfg.block_size

    term_dict = group["term"].combine_chunks()
    if not pa.types.is_dictionary(term_dict.type):
        term_dict = term_dict.dictionary_encode()
    codes = term_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # the exchange ships terms dictionary-encoded; a (part, salt) slice
    # references only a subset of its files' (unified, batch-wide)
    # dictionaries — keep the USED entries and remap codes dense, or
    # the per-term arrays below misalign with the dictionary
    used = np.unique(codes)
    if used.size != len(term_dict.dictionary) \
            or (used.size and int(used[-1]) != used.size - 1):
        codes = np.searchsorted(used, codes)
        terms = term_dict.dictionary.take(pa.array(used)).to_pylist()
    else:
        terms = term_dict.dictionary.to_pylist()
    doc_ids = group["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    tfs = group["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
    dls = group["dl"].to_numpy(zero_copy_only=False).astype(np.int64)

    order = np.lexsort((doc_ids, codes))
    codes, doc_ids, tfs, dls = codes[order], doc_ids[order], tfs[order], dls[order]

    n = codes.size
    new_term = np.empty(n, dtype=bool)
    new_term[0] = True
    np.not_equal(codes[1:], codes[:-1], out=new_term[1:])
    term_starts = np.flatnonzero(new_term)
    term_of_row = np.cumsum(new_term) - 1
    pos_in_term = np.arange(n, dtype=np.int64) - term_starts[term_of_row]
    block_starts = np.flatnonzero(new_term | (pos_in_term % b == 0))

    # doc-id gaps with absolute value at every block start
    gaps = doc_ids.copy()
    gaps[1:] -= doc_ids[:-1]
    gaps[block_starts] = doc_ids[block_starts]

    doc_data, doc_off = _stream_encode(gaps, block_starts)
    tf_data, tf_off = _stream_encode(tfs, block_starts)
    dl_data, dl_off = _stream_encode(dls, block_starts)

    block_ends = np.empty_like(block_starts)
    block_ends[:-1] = block_starts[1:]
    block_ends[-1] = n
    block_count = (block_ends - block_starts).astype(np.int32)
    block_first = doc_ids[block_starts]
    block_last = doc_ids[block_ends - 1]
    # BM25 upper bound per block: max of tf-normalization (idf applied at
    # query time). dl=0 never occurs in a posting (a posted term implies
    # dl >= 1).
    impact = tfs * (cfg.k1 + 1.0) / (
        tfs + cfg.k1 * (1.0 - cfg.b + cfg.b * dls / avgdl))
    block_max = np.maximum.reduceat(impact, block_starts)

    # term -> its blocks (blocks are emitted in row order, term-contiguous)
    block_term = term_of_row[block_starts]
    term_block_start = np.searchsorted(block_term, np.arange(len(term_starts)))
    term_block_end = np.append(term_block_start[1:], len(block_starts))
    term_ends = np.append(term_starts[1:], n)
    dfs = (term_ends - term_starts).astype(np.int64)

    # byte range per term in each stream
    def term_bytes(data: bytes, off: np.ndarray, total: int):
        starts = off[term_block_start]
        ends = np.append(off[term_block_start[1:]], total)
        return [data[s:e] for s, e in zip(starts, ends)], starts

    rows_doc, doc_base = term_bytes(doc_data, doc_off, len(doc_data))
    rows_tf, tf_base = term_bytes(tf_data, tf_off, len(tf_data))
    rows_dl, dl_base = term_bytes(dl_data, dl_off, len(dl_data))

    def split_meta(arr: np.ndarray, dtype) -> list:
        return [arr[s:e].astype(dtype).tolist()
                for s, e in zip(term_block_start, term_block_end)]

    def split_off(off: np.ndarray, base: np.ndarray, total: int) -> list:
        out = []
        for i, (s, e) in enumerate(zip(term_block_start, term_block_end)):
            rel = off[s:e] - base[i]
            end = (off[e] - base[i]) if e < len(off) else total - base[i]
            out.append(np.append(rel, end).tolist())
        return out

    tbl = pa.table({
        "part": pa.array([part] * len(terms), pa.int32()),
        "salt": pa.array([salt] * len(terms), pa.int32()),
        "term": pa.array(terms, pa.string()),
        "df": pa.array(dfs, pa.int64()),
        "block_first": pa.array(split_meta(block_first, np.int64),
                                pa.list_(pa.int64())),
        "block_last": pa.array(split_meta(block_last, np.int64),
                               pa.list_(pa.int64())),
        "block_count": pa.array(split_meta(block_count, np.int32),
                                pa.list_(pa.int32())),
        "block_max": pa.array(split_meta(block_max, np.float64),
                              pa.list_(pa.float64())),
        "block_doc_off": pa.array(split_off(doc_off, doc_base, len(doc_data)),
                                  pa.list_(pa.int64())),
        "block_tf_off": pa.array(split_off(tf_off, tf_base, len(tf_data)),
                                 pa.list_(pa.int64())),
        "block_dl_off": pa.array(split_off(dl_off, dl_base, len(dl_data)),
                                 pa.list_(pa.int64())),
        "doc_data": pa.array(rows_doc, pa.large_binary()),
        "tf_data": pa.array(rows_tf, pa.large_binary()),
        "dl_data": pa.array(rows_dl, pa.large_binary()),
    })
    return tbl


def _empty_run_table() -> pa.Table:
    # same column order as encode_runs, so empty and full runs concatenate
    schema = SEGMENT_SCHEMA.insert(1, pa.field("salt", pa.int32()))
    return schema.empty_table()


def _list_parts(arr: pa.ListArray) -> tuple[np.ndarray, pa.Array]:
    """(row offsets starting at 0, flat values) of a list array."""
    off = arr.offsets.to_numpy().astype(np.int64)
    return off - off[0], arr.values.slice(off[0], off[-1] - off[0])


def _regroup_list(arr: pa.ListArray, bounds: np.ndarray) -> pa.Array:
    """Concatenate the lists of each row group [bounds[g], bounds[g+1])."""
    off, values = _list_parts(arr)
    return pa.ListArray.from_arrays(pa.array(off[bounds], pa.int32()),
                                    values)


def _regroup_binary(arr: pa.Array, bounds: np.ndarray) -> pa.Array:
    """Concatenate the byte strings (large_binary) of each row group: the
    values buffer stays as it is, only the offsets are taken at the group
    bounds."""
    _, off_buf, data = arr.buffers()
    off = np.frombuffer(off_buf, dtype=np.int64)[
        arr.offset:arr.offset + len(arr) + 1]
    start, stop = int(off[0]), int(off[-1])
    data = data.slice(start, stop - start) if data is not None \
        else pa.py_buffer(b"")
    return pa.Array.from_buffers(
        pa.large_binary(), len(bounds) - 1,
        [None, pa.py_buffer(off[bounds] - start), data])


def _regroup_block_offsets(arr: pa.ListArray, bounds: np.ndarray
                           ) -> pa.Array:
    """Merge per-row block byte offsets (each list ends with its row's
    stream length) into per-group lists: every row's offsets but its
    last, shifted by the stream bytes of the rows before it in the group,
    then the group's total length."""
    off, values = _list_parts(arr)
    v = values.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(off)
    last = off[1:] - 1                    # each row's trailing length
    row_len = v[last]
    before = np.zeros(row_len.size + 1, dtype=np.int64)
    np.cumsum(row_len, out=before[1:])
    group_of_row = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    row_shift = before[:-1] - before[bounds[:-1]][group_of_row]
    shifted = v + np.repeat(row_shift, lens)
    keep = np.ones(v.size, dtype=bool)
    keep[last] = False
    # per group: its rows' kept entries, then the group total
    kept_per_group = np.add.reduceat(lens - 1, bounds[:-1])
    out_off = np.zeros(bounds.size, dtype=np.int64)
    np.cumsum(kept_per_group + 1, out=out_off[1:])
    out = np.empty(int(out_off[-1]), dtype=np.int64)
    is_total = np.zeros(out.size, dtype=bool)
    is_total[out_off[1:] - 1] = True
    out[~is_total] = shifted[keep]
    out[is_total] = before[bounds[1:]] - before[bounds[:-1]]
    return pa.ListArray.from_arrays(pa.array(out_off, pa.int32()),
                                    pa.array(out, pa.int64()))


def merge_runs(rows: pa.Table) -> pa.Table:
    """Merge the salt runs of one term partition into final segment rows.

    Runs of the same term concatenate in salt order (doc-ranges are disjoint
    and increasing); block metadata lists concatenate, binary streams
    concatenate with the later runs' block offsets shifted. No re-encode,
    and no per-row Python: groups of equal terms are found on the sorted
    term column and every column is rebuilt from its Arrow buffers with
    offsets taken at the group starts.
    """
    if rows.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    rows = rows.sort_by([("term", "ascending"), ("salt", "ascending")]) \
        .combine_chunks()
    col = {name: rows[name].chunk(0) for name in rows.column_names}
    n = rows.num_rows
    term = col["term"]
    starts = np.zeros(1, dtype=np.int64)
    if n > 1:
        new = pc.not_equal(term.slice(1), term.slice(0, n - 1))
        starts = np.concatenate(
            (starts, np.flatnonzero(new.to_numpy(zero_copy_only=False)) + 1))
    bounds = np.append(starts, n)
    part = col["part"][0].as_py()
    df = col["df"].to_numpy().astype(np.int64)
    return pa.table({
        "part": pa.array(np.full(starts.size, part, dtype=np.int32)),
        "term": term.take(pa.array(starts)),
        "df": pa.array(np.add.reduceat(df, starts), pa.int64()),
        **{c: _regroup_list(col[c], bounds) for c in
           ("block_first", "block_last", "block_count", "block_max")},
        **{c: _regroup_block_offsets(col[c], bounds) for c in
           ("block_doc_off", "block_tf_off", "block_dl_off")},
        **{c: _regroup_binary(col[c], bounds) for c in
           ("doc_data", "tf_data", "dl_data")},
    }, schema=SEGMENT_SCHEMA)


__all__ = ["SEGMENT_SCHEMA", "encode_runs", "merge_runs", "bm25_tf_norm"]
