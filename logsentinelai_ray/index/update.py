"""Incremental index update — the batch analog of the reference's realtime
tail mode (reference core/monitoring.py:301-438 polls a file and analyzes
the delta; our immutable-parquet equivalent is: new corpus files → delta
segments appended to the existing term partitions, SURVEY.md §2.10).

Semantics:
- New documents receive ids ``N..N+M-1`` (rank of key among the new,
  previously-unseen keys in sorted-key order). Duplicates of existing keys
  or within the delta are dropped (keep-existing / keep-first).
- Delta postings take the build's dataflow: the same one-pass finalize
  task per delta file (write its ``docs/`` file, then tokenize that
  in-memory table), the same partitioned-parquet exchange
  (``postings_delta/``), the same per-(part, salt) run encode
  tasks, whose refs the driver hands straight to one merge task per part,
  and the same segment writer (``build._write_part``: zstd-1, 512-row
  row groups, one manifest entry shape). Because all delta doc ids exceed
  every existing id, the existing part is merged as a run ahead of salt
  0: per term, pure concatenation after the existing blocks — no
  re-encode of old data (the salt-run concat invariant, segments.py).
- The delta docmap file is written by the build's docmap writer. With
  ``index_path_field`` set, each finalize task also writes its delta
  file's norms (``norms/delta-<n_base>-*.parquet``), as the build does.
- Nothing transient outlives the commit: the delta exchange
  (``postings_delta/`` and ``postings_delta_pos/``) and the scale path's
  ``_delta_id_mapping/`` are removed once they have been read.
- Collection stats are updated exactly (N' = N + M, total_tokens' += delta)
  so BM25 scores equal a from-scratch build over the union. Stored
  block-max bounds were computed under the *build-time* avgdl; since
  tf_norm is increasing in avgdl, bounds are kept safe at query time by
  scaling with ``max(1, avgdl_now / min_bounds_avgdl)`` (stats field
  ``min_bounds_avgdl``) — looser pruning, never wrong results.

Dedup against existing keys is a distributed anti-join: the delta's
(key, origin, pos) projection unions with the docmap's keys-only
projection (origin = -1, sorts first within a key), a keys-only Dataset
sort makes each key's run contiguous, and per-block rank assignment with
boundary carry gives new keys their ids — the same exchange pattern as
the build's ``_assign_ids_distributed``; nothing key-set-sized is ever
held on the driver. A vectorized driver fast path applies below
``cfg.driver_dedup_max_rows`` total keys.

Crash safety: the update is a multi-step mutation, so it writes an
``_update_pending.json`` marker first and commits stats last. Every step
is idempotent under a fixed ``n_base`` (deterministic file names, atomic
tmp+rename writes, per-part manifest fingerprints), so rerunning
``update_index`` with the same arguments resumes a crashed update:
already-merged parts are skipped via the manifest, the stats update is
guarded against double-application, and the existing-key scan excludes
docmap deltas at or above the pending ``n_base`` (uncommitted artifacts
of the crashed attempt). A resume re-emits the delta exchange, which is
only dropped after the commit. ``rollback_update`` discards a pending
update that has not yet merged any segment part.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..config import IndexConfig
from . import manifest as mf
from .build import (
    _corpus_files,
    _encode_part_salt,
    _file_keys,
    _finalize_file,
    _load_mapping,
    _write_part,
    merge_runs,
    releases_pool_when_idle,
    write_docmap_file,
)

# config fields that define the on-disk index shape; an update MUST run
# with the same values the index was built with (stats.json is the source
# of truth) — a silent mismatch would route delta postings into the wrong
# term partitions (ADVICE round 1).
_SHAPE_FIELDS = ("num_partitions", "salt_buckets", "block_size",
                 "max_token_len", "k1", "b", "store_positions",
                 "index_path_field")


def _effective_config(stats: dict, cfg: IndexConfig | None) -> IndexConfig:
    stored = {f: stats[f] for f in _SHAPE_FIELDS if f in stats}
    if cfg is None:
        return dataclasses.replace(IndexConfig(), **stored)
    mismatch = {f: {"caller": getattr(cfg, f), "index": v}
                for f, v in stored.items() if getattr(cfg, f) != v}
    if mismatch:
        raise ValueError(
            f"IndexConfig does not match the index's stats.json: {mismatch}."
            " Pass cfg=None to derive the config from the index, or the"
            " exact config the index was built with.")
    return cfg


# --------------------------------------------------------------------------
# Delta id assignment: anti-join against the docmap + sorted-rank ids
# --------------------------------------------------------------------------

@ray.remote(num_cpus=1)
def _docmap_keys(path: str) -> pa.Table:
    """Keys-only projection of one committed docmap file, origin = -1 so an
    existing row sorts before any delta row of the same key."""
    tbl = pq.read_table(path, columns=["repo", "path", "commit"])
    key = pc.binary_join_element_wise(tbl["repo"], tbl["path"],
                                      tbl["commit"], "\x00")
    return pa.table({
        "key": key,
        "origin": pa.array(np.full(tbl.num_rows, -1, dtype=np.int32)),
        "pos": pa.array(np.arange(tbl.num_rows, dtype=np.int64)),
    })


def _docmap_key_files(index_dir: str, n_base: int) -> list[str]:
    """Committed docmap parquet files. Delta files at or above ``n_base``
    are uncommitted leftovers of a crashed update — excluded, otherwise a
    resume would anti-join the delta against itself and drop everything."""
    docmap_dir = os.path.join(index_dir, "docmap")
    out = []
    for name in sorted(os.listdir(docmap_dir)):
        if not name.endswith(".parquet"):
            continue
        if name.startswith("delta-"):
            nb = int(name.split("-")[1].split(".")[0])
            if nb >= n_base:
                continue
        out.append(os.path.join(docmap_dir, name))
    return out


def _first_and_delta(tbl: pa.Table, prev_last_key) -> np.ndarray:
    """Mask of rows that are the first occurrence of their key (given the
    previous sorted block's last key) AND are delta rows (origin >= 0) —
    exactly the rows that receive a new doc id."""
    keys = tbl["key"].combine_chunks()
    n = tbl.num_rows
    first = np.ones(n, dtype=bool)
    if n > 1:
        eq = pc.equal(keys.slice(1), keys.slice(0, n - 1))
        first[1:] = np.logical_not(eq.to_numpy(zero_copy_only=False))
    if n and prev_last_key is not None and keys[0].as_py() == prev_last_key:
        first[0] = False
    is_delta = tbl["origin"].to_numpy(zero_copy_only=False) >= 0
    return first & is_delta


@ray.remote(num_cpus=1)
def _delta_block_info(refs: list) -> list:
    out = []
    for tbl in ray.get(refs):
        if tbl.num_rows == 0:
            out.append(None)
            continue
        n = tbl.num_rows
        first = (tbl["key"][0].as_py(), tbl["origin"][0].as_py(),
                 tbl["pos"][0].as_py())
        last = (tbl["key"][n - 1].as_py(), tbl["origin"][n - 1].as_py(),
                tbl["pos"][n - 1].as_py())
        out.append((first, last))
    return out


@ray.remote(num_cpus=1, num_returns=2)
def _delta_distinct_count(tbl: pa.Table, prev_last_key):
    if tbl.num_rows == 0:
        return 0, None
    return int(_first_and_delta(tbl, prev_last_key).sum()), None


@ray.remote(num_cpus=1)
def _emit_delta_mapping(tbl: pa.Table, prev_last_key, rank_offset: int,
                        mapping_dir: str, uid: str) -> int:
    """Assign sorted-rank ids to this block's new delta keys and write the
    (pos, doc_id) mapping partitioned by origin (existing rows emit
    nothing; delta duplicates get -1 via the loader's default fill)."""
    if tbl.num_rows == 0:
        return 0
    assign = _first_and_delta(tbl, prev_last_key)
    ids = np.where(assign, rank_offset + np.cumsum(assign) - 1,
                   -1).astype(np.int64)
    origin_np = tbl["origin"].to_numpy(zero_copy_only=False)
    keep = origin_np >= 0
    out = pa.table({
        "origin": pa.array(origin_np[keep].astype(np.int32)),
        "pos": pc.filter(tbl["pos"], pa.array(keep)),
        "doc_id": pa.array(ids[keep]),
    }).sort_by("origin")
    origins = out["origin"].to_numpy(zero_copy_only=False)
    if origins.size:
        bounds = np.flatnonzero(np.diff(origins)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(origins)]))
        for s, e in zip(starts, ends):
            o = int(origins[s])
            odir = os.path.join(mapping_dir, f"origin={o}")
            os.makedirs(odir, exist_ok=True)
            pq.write_table(out.slice(s, e - s).drop_columns(["origin"]),
                           os.path.join(odir, f"{uid}.parquet"))
    return int(assign.sum())


def _assign_delta_ids(index_dir: str, files: list[str], counts: list[int],
                      n_base: int, cfg: IndexConfig) -> tuple[list, int]:
    """Anti-join delta keys against the docmap and assign ids n_base..
    Returns (per-origin id arrays or ObjectRefs, n_new)."""
    ex_files = _docmap_key_files(index_dir, n_base)
    key_refs = [_file_keys.remote(f, i) for i, f in enumerate(files)]
    ex_refs = [_docmap_keys.remote(f) for f in ex_files]
    n_existing = sum(pq.ParquetFile(f).metadata.num_rows for f in ex_files)

    if n_existing + sum(counts) <= cfg.driver_dedup_max_rows:
        # driver fast path — same math, one vectorized pass, no Ray sort
        tbl = pa.concat_tables(ray.get(ex_refs + key_refs))
        s = tbl.sort_by([("key", "ascending"), ("origin", "ascending"),
                         ("pos", "ascending")])
        assign = _first_and_delta(s, None)
        ids_sorted = np.where(assign, n_base + np.cumsum(assign) - 1,
                              -1).astype(np.int64)
        origin = s["origin"].to_numpy(zero_copy_only=False)
        pos = s["pos"].to_numpy(zero_copy_only=False)
        per_origin = []
        for i, c in enumerate(counts):
            arr = np.full(c, -1, dtype=np.int64)
            m = origin == i
            arr[pos[m]] = ids_sorted[m]
            per_origin.append(arr)
        return per_origin, int(assign.sum())

    # scale path: keys-only Dataset sort; existing rows sort first within a
    # key, so first-occurrence-and-delta == brand-new key (anti-join)
    import ray.data as rd

    sorted_mat = (rd.from_arrow_refs(ex_refs + key_refs)
                  .sort(["key", "origin", "pos"]).materialize())
    refs2 = list(sorted_mat.to_arrow_refs())
    info = ray.get(_delta_block_info.remote(list(refs2)))
    nonempty = [(fl, r) for fl, r in zip(info, refs2) if fl is not None]
    nonempty.sort(key=lambda x: x[0])  # (first, last) tuple order
    prev_lasts, prev = [], None
    for (first, last), _ in nonempty:
        prev_lasts.append(prev)
        prev = last[0]  # boundary carry needs the key only
    dpairs = [_delta_distinct_count.remote(r, pl)
              for (_, r), pl in zip(nonempty, prev_lasts)]
    dcounts = ray.get([c for c, _ in dpairs])
    rank_offsets = np.full(len(dcounts), n_base, dtype=np.int64)
    if len(dcounts) > 1:
        rank_offsets[1:] += np.cumsum(dcounts[:-1])
    mapping_dir = os.path.join(index_dir, "_delta_id_mapping")
    shutil.rmtree(mapping_dir, ignore_errors=True)
    os.makedirs(mapping_dir, exist_ok=True)
    ray.get([
        _emit_delta_mapping.remote(r, pl, int(off), mapping_dir,
                                   f"d{j:05d}")
        for j, ((_, r), pl, off)
        in enumerate(zip(nonempty, prev_lasts, rank_offsets))
    ])
    refs = [_load_mapping.remote(mapping_dir, i, c)
            for i, c in enumerate(counts)]
    return refs, int(sum(dcounts))


# --------------------------------------------------------------------------
# Per-part delta merge (skipped when the manifest already records this
# delta's fingerprint for the part)
# --------------------------------------------------------------------------

@ray.remote(num_cpus=1)
def _merge_delta_part(index_dir: str, part: int, fingerprint: str,
                      n_base: int, *runs: pa.Table) -> dict:
    """Merge this part's delta runs onto the existing segment part, then
    write it with the build's writer. Delta ids exceed every existing id,
    so the existing rows play the role of a run ahead of salt 0: tagged
    salt=-1 they sort first, and ``merge_runs`` concatenates per term with
    no re-encode. The runs arrive as top-level arguments (resolved before
    the task starts), as in the build's ``_merge_part``."""
    t0 = time.monotonic()
    seg_path = os.path.join(index_dir, "segments",
                            f"part-{part:04d}.parquet")
    tables = list(runs)
    if os.path.exists(seg_path):
        existing = pq.read_table(seg_path)
        tables.insert(0, existing.add_column(1, "salt", pa.array(
            np.full(existing.num_rows, -1, dtype=np.int32))))
    merged = merge_runs(pa.concat_tables(tables))
    return _write_part(index_dir, part, fingerprint, merged, t0,
                       delta_of=n_base)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def _drop_delta_exchange(index_dir: str) -> str:
    """Remove the delta postings exchange (and its positions twin);
    returns its path. It is transient: emitted, merged, then dropped."""
    delta_dir = os.path.join(index_dir, "postings_delta")
    shutil.rmtree(delta_dir, ignore_errors=True)
    shutil.rmtree(delta_dir + "_pos", ignore_errors=True)
    return delta_dir


def _pending_path(index_dir: str) -> str:
    return os.path.join(index_dir, "_update_pending.json")


def rollback_update(index_dir: str) -> bool:
    """Discard a pending (crashed) update that has NOT merged any segment
    part yet. Returns True if something was rolled back. Once any part is
    merged the delta postings are interleaved into segments and the only
    way forward is to resume (rerun ``update_index`` with the same args)."""
    path = _pending_path(index_dir)
    if not os.path.exists(path):
        return False
    with open(path) as f:
        pend = json.load(f)
    merged = mf.completed_parts(index_dir, pend["fingerprint"])
    if merged:
        raise RuntimeError(
            f"update {pend['fingerprint']} already merged parts "
            f"{sorted(merged)}; resume it by rerunning update_index with "
            "the same corpus/tag instead of rolling back")
    n_base = pend["n_base"]
    prefix = f"delta-{n_base:012d}-"
    for sub in ("docs", "norms"):
        d = os.path.join(index_dir, sub)
        for name in os.listdir(d) if os.path.isdir(d) else ():
            if name.startswith(prefix):
                os.remove(os.path.join(d, name))
    dm = os.path.join(index_dir, "docmap", f"delta-{n_base:012d}.parquet")
    if os.path.exists(dm):
        os.remove(dm)
    pos_root = os.path.join(index_dir, "positions")
    if os.path.isdir(pos_root):
        for pdir in os.listdir(pos_root):
            dp = os.path.join(pos_root, pdir, f"delta-{n_base:012d}.parquet")
            if os.path.exists(dp):
                os.remove(dp)
    _drop_delta_exchange(index_dir)
    os.remove(path)
    return True


@releases_pool_when_idle
def update_index(new_corpus: str | list[str], index_dir: str,
                 cfg: IndexConfig | None = None,
                 delta_tag: str = "delta") -> dict:
    """Append new parquet corpus files to an existing index.

    ``new_corpus`` is a parquet file/dir path OR an explicit list of
    parquet files (the continuous-ingest watcher passes the per-round
    file batch). Safe to rerun after a crash with the same arguments:
    the pending marker pins ``n_base`` and the file list, every artifact
    write is deterministic and atomic, merged parts are skipped via the
    manifest, and the final stats commit is applied exactly once.

    Each delta file is read once: its finalize task writes the file's
    ``docs/`` delta and tokenizes the same table into the delta exchange,
    so a delta under ``driver_dedup_max_rows`` runs no Ray Data plan.

    Like ``build_index``, it leaves the task-worker pool warm for the
    next round and retires it once none follows within
    ``build._RELEASE_AFTER_S`` (``build.releases_pool_when_idle``).
    """
    stats = mf.read_stats(index_dir)
    cfg = _effective_config(stats, cfg)
    t0 = time.monotonic()

    if isinstance(new_corpus, (list, tuple)):
        files = sorted(os.path.abspath(f) for f in new_corpus)
    else:
        files = [os.path.abspath(f) for f in _corpus_files(new_corpus)]
    pending = _pending_path(index_dir)
    if os.path.exists(pending):
        with open(pending) as f:
            pend = json.load(f)
        if (pend["delta_tag"] != delta_tag
                or pend["corpus_files"] != files):
            raise RuntimeError(
                f"a previous update ({pend['delta_tag']!r} over "
                f"{len(pend['corpus_files'])} files) is incomplete; rerun "
                "it with the same arguments to resume, or "
                "rollback_update() if no part merged yet")
        n_base = int(pend["n_base"])
        fingerprint = mf._fingerprint(f"{delta_tag}@{n_base}", cfg)
        if fingerprint != pend["fingerprint"]:
            raise RuntimeError(
                "pending update was started under a different config; "
                "resume with the original config (fingerprint "
                f"{pend['fingerprint']} != {fingerprint})")
    else:
        n_base = int(stats["n_docs"])
        fingerprint = mf._fingerprint(f"{delta_tag}@{n_base}", cfg)
        tmp = pending + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"fingerprint": fingerprint, "n_base": n_base,
                       "delta_tag": delta_tag,
                       "corpus_files": files}, f)
        os.replace(tmp, pending)

    # ---- id assignment: distributed anti-join vs the committed docmap
    counts = [pq.ParquetFile(f).metadata.num_rows for f in files]
    id_arrays, n_new = _assign_delta_ids(index_dir, files, counts,
                                         n_base, cfg)
    n_total = n_base + n_new

    # ---- finalize delta docs + postings exchange, one pass per file
    # (deterministic names → idempotent resume); salts are computed over
    # the union range [0, n_total): delta ids land in the upper salt
    # buckets, still contiguous non-decreasing runs
    docs_dir = os.path.join(index_dir, "docs")
    new_doc_files = [
        os.path.join(docs_dir, f"delta-{n_base:012d}-{i:05d}.parquet")
        for i in range(len(files))]
    delta_dir = _drop_delta_exchange(index_dir)
    os.makedirs(delta_dir, exist_ok=True)
    pairs = [_finalize_file.remote(f, ids, out, cfg, n_total, delta_dir)
             for f, ids, out in zip(files, id_arrays, new_doc_files)]
    delta_tokens = delta_path_tokens = 0
    for _rows, _bytes, tokens, path_tokens in ray.get([s for _, s in pairs]):
        delta_tokens += tokens
        delta_path_tokens += path_tokens
    # the scale path's id-routing exchange is spent once finalize has run
    shutil.rmtree(os.path.join(index_dir, "_delta_id_mapping"),
                  ignore_errors=True)

    # ---- delta docmap (ids all > existing -> file-level pruning works)
    delta_meta = pa.concat_tables([
        pq.read_table(p, columns=["doc_id", "repo", "path", "commit",
                                  "lang", "sha256"])
        for p in new_doc_files]).sort_by("doc_id")
    write_docmap_file(os.path.join(index_dir, "docmap",
                                   f"delta-{n_base:012d}.parquet"),
                      delta_meta)

    # ---- merge delta runs into segments (skip parts already merged)
    avgdl_build = stats["avgdl"] if stats["avgdl"] > 0 else 1.0
    done = mf.completed_parts(index_dir, fingerprint)
    remaining = sorted(set(range(cfg.num_partitions)) - done)
    merge_refs = [
        _merge_delta_part.remote(index_dir, p, fingerprint, n_base, *[
            _encode_part_salt.remote(delta_dir, p, s, cfg, avgdl_build)
            for s in range(cfg.salt_buckets)])
        for p in remaining
    ]
    # positions sidecar delta: one consolidated file per part appended
    # next to the base file (deterministic name -> idempotent resume);
    # runs concurrently with the segment merges, all waited together
    pos_refs = []
    if cfg.store_positions:
        from .build import _consolidate_positions

        pos_refs = [
            _consolidate_positions.remote(
                index_dir, delta_dir + "_pos", p,
                f"delta-{n_base:012d}.parquet")
            for p in range(cfg.num_partitions)]
    ray.get(merge_refs + pos_refs)

    # ---- commit: exact stats update, applied exactly once
    if int(stats["n_docs"]) == n_base:
        total_tokens = int(stats["total_tokens"]) + delta_tokens
        path_total = (int(stats.get("path_total_tokens", 0))
                      + delta_path_tokens)
        min_bounds = min(stats.get("min_bounds_avgdl", stats["avgdl"]),
                         avgdl_build) or 1.0
        stats.update({
            "n_docs": n_total,
            "total_tokens": total_tokens,
            "avgdl": total_tokens / n_total if n_total else 0.0,
            "path_total_tokens": path_total,
            "path_avgdl": path_total / n_total if n_total else 0.0,
            "min_bounds_avgdl": min_bounds,
        })
        mf.write_stats(index_dir, stats)
    elif int(stats["n_docs"]) != n_total:
        raise RuntimeError(
            f"index stats n_docs={stats['n_docs']} matches neither the "
            f"pending update's base ({n_base}) nor its result ({n_total})")
    mf.write_meta(index_dir, {
        "fingerprint": fingerprint,
        "corpus_tag": delta_tag,
        "n_docs": n_total,
        "stats": stats,
        "timings": {"update_s": round(time.monotonic() - t0, 3)},
        "total_s": round(time.monotonic() - t0, 3),
    })
    os.remove(pending)
    # the delta exchange is spent: a crash before this point re-emits it
    _drop_delta_exchange(index_dir)
    return {"n_new_docs": n_new, "n_docs": n_total,
            "elapsed_s": round(time.monotonic() - t0, 3)}
