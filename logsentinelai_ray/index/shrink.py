"""Index shrink — the ES ``_shrink`` API, the immutable-segment way.

ES shrink requires the target shard count to be a FACTOR of the source
count because routing is ``hash(key) % P``: when P' divides P, every
key's new shard is its old shard mod P' (the `_shrink` routing
invariant). This engine routes terms with ``blake2b(term) % P``
(index/build.py:85), so the same arithmetic holds: new segment part n
is exactly the rows of source parts {s : s % P' == n}, sorted by term
as every segment part is (readers binary-search the term column) —
terms are disjoint across source parts, so the merge never decodes a
posting. The positions sidecar follows the identical
partition scheme and merges directory-wise (readers scan the whole
``part=N`` dir).

Exchange shape: one Ray task per NEW partition, each reading only its
``factor`` source files — embarrassingly parallel, no shuffle, nothing
driver-sized. ``docs``/``docmap``/``norms`` copy through unchanged (at
real scale these are object-store / DFS references, not byte copies —
the copy here is the sandbox stand-in; the parts that matter, the
segment merges, are genuine tasks).

Rank identity with the source index is the contract: same stats.json
(only ``num_partitions`` changes), same postings bytes per term, so
BM25/WAND/phrase results are bit-identical (test_shrink.py + the
``shrink_search`` driver entry share bm25_topk's oracle).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import ray

from . import manifest as mf


@ray.remote(num_cpus=1)
def _merge_segment_parts(src_dir: str, dst_dir: str, new_part: int,
                         src_parts: list[int], fingerprint: str) -> int:
    """Concat the source parts owning ``new_part``'s terms into one new
    segment part, term-sorted and written (with its manifest entry) by
    the build's segment writer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .build import _write_part

    t0 = time.monotonic()
    tables = []
    for s in src_parts:
        p = os.path.join(src_dir, "segments", f"part-{s:04d}.parquet")
        if os.path.exists(p):
            tables.append(pq.read_table(p))
    if not tables:
        return 0
    merged = pa.concat_tables(tables).sort_by("term")
    _write_part(dst_dir, new_part, fingerprint, merged, t0)
    return merged.num_rows


@ray.remote(num_cpus=1)
def _merge_position_parts(src_dir: str, dst_dir: str, new_part: int,
                          src_parts: list[int]) -> int:
    """Union the positions sidecar dirs for ``new_part`` — readers scan
    the whole dir, so a source-prefixed file copy is the merge."""
    n = 0
    out = os.path.join(dst_dir, "positions", f"part={new_part}")
    os.makedirs(out, exist_ok=True)
    for s in src_parts:
        d = os.path.join(src_dir, "positions", f"part={s}")
        if not os.path.isdir(d):
            continue
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                shutil.copy2(os.path.join(d, f),
                             os.path.join(out, f"src{s:04d}-{f}"))
                n += 1
    return n


@ray.remote(num_cpus=1)
def _split_segment_part(src_dir: str, dst_dir: str, old_part: int,
                        p_new: int, fingerprint: str) -> int:
    """Fan one source segment part out to its ``factor`` destination
    parts: recompute ``blake2b(term) % P_new`` per DICTIONARY row (terms
    only, never postings — the blobs move opaque) and write each
    destination slice. Destinations of old part s are exactly
    {n : n % P_old == s}, so split tasks never contend on a file."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .build import _write_part, term_partition

    t0 = time.monotonic()
    p = os.path.join(src_dir, "segments", f"part-{old_part:04d}.parquet")
    if not os.path.exists(p):
        return 0
    tbl = pq.read_table(p)
    terms = tbl["term"].to_pylist()
    new_parts = np.fromiter((term_partition(t, p_new) for t in terms),
                            dtype=np.int64, count=len(terms))
    n = 0
    for dest in sorted(set(new_parts.tolist())):
        sel = tbl.take(pa.array(np.flatnonzero(new_parts == dest)))
        _write_part(dst_dir, dest, fingerprint, sel, t0)
        n += sel.num_rows
    return n


@ray.remote(num_cpus=1)
def _split_position_part(src_dir: str, dst_dir: str, old_part: int,
                         p_new: int) -> int:
    """Re-partition one positions sidecar dir by the new term routing.
    Rows re-route via a terms-dictionary map (unique terms per dir,
    then one vectorized gather) — never a per-occurrence hash."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pa_ds
    import pyarrow.parquet as pq

    from .build import term_partition

    d = os.path.join(src_dir, "positions", f"part={old_part}")
    if not os.path.isdir(d):
        return 0
    tbl = pa_ds.dataset(d, format="parquet").to_table()
    terms = tbl["term"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    codes = terms.dictionary_encode()
    dict_terms = codes.dictionary.to_pylist()
    lut = np.fromiter((term_partition(t, p_new) for t in dict_terms),
                      dtype=np.int64, count=len(dict_terms))
    idx = codes.indices.to_numpy(zero_copy_only=False)
    new_parts = lut[idx]
    n = 0
    for dest in sorted(set(new_parts.tolist())):
        out_dir = os.path.join(dst_dir, "positions", f"part={dest}")
        os.makedirs(out_dir, exist_ok=True)
        sel = tbl.take(pa.array(np.flatnonzero(new_parts == dest)))
        pq.write_table(sel, os.path.join(
            out_dir, f"split-{old_part:04d}.parquet"),
            compression="zstd", compression_level=1)
        n += sel.num_rows
    return n


def _lineage(src: str) -> str:
    """The source's latest build/update fingerprint, stamped on the new
    parts' manifest entries."""
    with open(os.path.join(src, "manifest", "_meta.json")) as f:
        return json.load(f)["fingerprint"]


def _copy_rest(src: str, dst: str, new_stats: dict) -> dict:
    """Copy what a repartition leaves as is (docs, docmap, norms,
    tombstones, build-level manifest files) and write the new stats.json.
    The source's part entries are not copied: they describe the source's
    parts, and the new parts already wrote their own."""
    for d in ("docs", "docmap", "norms", "manifest"):
        sd = os.path.join(src, d)
        if os.path.isdir(sd):
            shutil.copytree(sd, os.path.join(dst, d), dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("part-*.json"))
    ts = os.path.join(src, "tombstones.parquet")
    if os.path.exists(ts):
        shutil.copy2(ts, os.path.join(dst, "tombstones.parquet"))
    with open(os.path.join(dst, "stats.json"), "w") as f:
        json.dump(new_stats, f)
    return new_stats


def split_index(src: str, dst: str, factor: int) -> dict:
    """ES ``_split`` analog: multiply the term-partition count by an
    integer factor. Routing keeps working for the same modular reason
    as shrink, read the other way: a term in old part s = h % P lands
    in one of the new parts {s + k·P, k < factor}, so each source part
    splits independently — one Ray task per SOURCE part, no shuffle,
    postings blobs never decoded. Rank identity pinned in
    test_shrink.py."""
    src_real, dst_real = os.path.realpath(src), os.path.realpath(dst)
    if src_real == dst_real or \
            os.path.commonpath([src_real, dst_real]) == src_real:
        raise ValueError("split destination must be outside the source")
    stats = mf.read_stats(src)
    p = int(stats["num_partitions"])
    if factor <= 1:
        raise ValueError(f"factor {factor} must be > 1")
    p_new = p * factor
    if os.path.exists(dst):
        shutil.rmtree(dst)
    os.makedirs(os.path.join(dst, "segments"))

    fp = _lineage(src)
    futs = [_split_segment_part.remote(src, dst, s, p_new, fp)
            for s in range(p)]
    if stats.get("store_positions"):
        futs += [_split_position_part.remote(src, dst, s, p_new)
                 for s in range(p)]
    ray.get(futs)
    return _copy_rest(src, dst, dict(stats, num_partitions=p_new,
                                     split_from=p))


def shrink_index(src: str, dst: str, factor: int) -> dict:
    """Shrink ``src``'s term-partition count by ``factor`` into ``dst``.

    Raises unless 1 < factor and factor divides num_partitions, and
    refuses dst inside/equal to src (the snapshot-guard convention).
    Returns the new stats dict."""
    src_real, dst_real = os.path.realpath(src), os.path.realpath(dst)
    if src_real == dst_real or \
            os.path.commonpath([src_real, dst_real]) == src_real:
        raise ValueError("shrink destination must be outside the source")
    stats = mf.read_stats(src)
    p = int(stats["num_partitions"])
    if factor <= 1 or p % factor != 0:
        raise ValueError(
            f"factor {factor} must be >1 and divide num_partitions {p}")
    p_new = p // factor
    if os.path.exists(dst):
        shutil.rmtree(dst)
    os.makedirs(os.path.join(dst, "segments"))

    groups = {n: [s for s in range(p) if s % p_new == n]
              for n in range(p_new)}
    fp = _lineage(src)
    futs = [_merge_segment_parts.remote(src, dst, n, srcs, fp)
            for n, srcs in groups.items()]
    if stats.get("store_positions"):
        futs += [_merge_position_parts.remote(src, dst, n, srcs)
                 for n, srcs in groups.items()]
    ray.get(futs)
    return _copy_rest(src, dst, dict(stats, num_partitions=p_new,
                                     shrunk_from=p))
