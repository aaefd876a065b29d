"""Incremental index update — the batch analog of the reference's realtime
tail mode (reference core/monitoring.py:301-438 polls a file and analyzes
the delta; our immutable-parquet equivalent is: new corpus files → delta
segments appended to the existing term partitions, SURVEY.md §2.10).

Semantics:
- New documents receive ids ``N..N+M-1`` (rank of key among the new,
  previously-unseen keys in sorted-key order). Duplicates of existing keys
  or within the delta are dropped (keep-existing / keep-first).
- Delta postings take the build's dataflow: the same one-pass finalize
  task per delta unit (a file, or a row group of a file with several;
  write its ``docs/`` file, then tokenize that
  in-memory table), the same partitioned-parquet exchange
  (``postings_delta/``), the same per-(part, salt) run encode
  tasks, whose refs the driver hands straight to one merge task per part,
  and the same segment writer (``build._write_part``: zstd-1, 512-row
  row groups, one manifest entry shape). Because all delta doc ids exceed
  every existing id, the existing part is merged as a run ahead of salt
  0: per term, pure concatenation after the existing blocks — no
  re-encode of old data (the salt-run concat invariant, segments.py).
- The delta docmap file is written by the build's docmap writer
  (``build.write_docmap``). With
  ``index_path_field`` set, each finalize task also writes its delta
  file's norms (``norms/delta-<n_base>-*.parquet``), as the build does.
- Nothing transient outlives the commit: the delta exchange
  (``postings_delta/`` and ``postings_delta_pos/``) and the scale path's
  ``_id_mapping/`` are removed once they have been read.
- Collection stats are updated exactly (N' = N + M, total_tokens' += delta)
  so BM25 scores equal a from-scratch build over the union. Stored
  block-max bounds were computed under the *build-time* avgdl; since
  tf_norm is increasing in avgdl, bounds are kept safe at query time by
  scaling with ``max(1, avgdl_now / min_bounds_avgdl)`` (stats field
  ``min_bounds_avgdl``) — looser pruning, never wrong results.

Id assignment is the build's ``assign_ids``, with the committed docmap's
keys as the existing rows: the delta's (key, origin, pos) projection
unions with the docmap's keys-only projection (origin = -1, sorts first
within a key), so a delta row gets an id only if its key is new — the
anti-join. A build is the same call with no existing keys. Under
``build._DRIVER_IDS_MAX_ROWS`` keys it runs on the driver; above it the
keys-only Dataset sort and per-block rank tasks run, and nothing
key-set-sized is held on the driver.

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
import pyarrow.parquet as pq
import ray

from ..config import IndexConfig
from . import manifest as mf
from .build import (
    _corpus_files,
    _encode_part_salt,
    _file_keys,
    _finalize_file,
    _units,
    _write_part,
    assign_ids,
    merge_runs,
    releases_pool_when_idle,
    write_docmap,
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

    Each delta unit (file, or row group) is read once: its finalize task
    writes the unit's ``docs/`` delta and tokenizes the same table into
    the delta exchange, so an update under ``build._DRIVER_IDS_MAX_ROWS``
    keys runs no Ray Data plan.

    Like ``build_index``, it leaves the task-worker pool warm for the
    next round and retires it once none follows within
    ``build._RELEASE_AFTER_S`` (``build.releases_pool_when_idle``).
    """
    stats = mf.read_stats(index_dir)
    cfg = _effective_config(stats, cfg)
    t0 = time.monotonic()

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

    # ---- id assignment: the build's, anti-joined against the committed
    # docmap (one unit per file, or per row group as in the build)
    sources, counts = _units(files)
    id_arrays, n_new = assign_ids(
        [_file_keys.remote(u, i) for i, u in enumerate(sources)], counts,
        index_dir, [_file_keys.remote(f, -1)
                    for f in _docmap_key_files(index_dir, n_base)], n_base)
    n_total = n_base + n_new

    # ---- finalize delta docs + postings exchange, one pass per unit
    # (deterministic names → idempotent resume); salts are computed over
    # the union range [0, n_total): delta ids land in the upper salt
    # buckets, still contiguous non-decreasing runs
    docs_dir = os.path.join(index_dir, "docs")
    new_doc_files = [
        os.path.join(docs_dir, f"delta-{n_base:012d}-{i:05d}.parquet")
        for i in range(len(sources))]
    delta_dir = _drop_delta_exchange(index_dir)
    os.makedirs(delta_dir, exist_ok=True)
    pairs = [_finalize_file.remote(u, ids, out, cfg, n_total, delta_dir)
             for u, ids, out in zip(sources, id_arrays, new_doc_files)]
    delta_tokens = delta_path_tokens = 0
    for _rows, _bytes, tokens, path_tokens in ray.get([s for _, s in pairs]):
        delta_tokens += tokens
        delta_path_tokens += path_tokens
    # the scale path's id-routing exchange is spent once finalize has run
    shutil.rmtree(os.path.join(index_dir, "_id_mapping"), ignore_errors=True)

    # ---- delta docmap (ids all > existing -> file-level pruning works)
    ray.get(write_docmap.remote(
        new_doc_files, os.path.join(index_dir, "docmap",
                                    f"delta-{n_base:012d}.parquet")))

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
