"""Build manifest: per-partition lineage + metrics, the checkpoint unit.

The reference has NO checkpointing (a batch rerun reprocesses everything and
even mints new wall-clock doc ids — reference core/elasticsearch.py:64;
realtime restart loses pending lines, core/monitoring.py:452-456). Per
BASELINE.json north_rule our build must "resume from checkpoint with
per-partition lineage + metrics": every completed term-partition writes one
JSON manifest entry recording its input fingerprint, counts and timings; a
restarted build skips stages/partitions whose fingerprint matches.

Layout under ``index_dir``:
  docs/                 stage-1 output (doc ids assigned)   + docs/_SUCCESS
                        (+ delta-<n_base>-*.parquet per update).
                        Stages 1 and 2 are one pass (the finalize task
                        writes docs/ and the postings exchange);
                        docs/_SUCCESS is its commit, written last, and the
                        record that outlives the exchange: n_docs, the
                        token totals stats.json is computed from, and the
                        exchange's rows and bytes.
  docmap/               stage-1b doc-id-sorted metadata (no content)
                        (+ delta-<n_base>.parquet per update)
  norms/                per-doc (doc_id, dl, path_dl), one file per docs/
                        file under the same name, written by the same
                        finalize task (only with index_path_field)
  stats.json            stage-2b global stats (N, avgdl, total_tokens)
  segments/part-XXXX.parquet   stage-3/4 output (atomic tmp+rename)
  manifest/part-XXXX.json      per-partition lineage+metrics (written last)
  manifest/_meta.json          build-level config + fingerprint
  positions/part=P/base-SS.parquet   phrase sidecar, one file per (part,
                        doc-range); + delta-<n_base>.parquet per update
                        (only with store_positions)  + positions/_SUCCESS

Transient exchanges (removed once read, never in a finished index):
  postings_raw/, postings_raw_pos/   the build's postings exchange (raw
                        triples, positions occurrences); postings_raw/_SUCCESS
                        marks it whole. A build deletes both once every
                        part entry and the positions stage have committed;
                        a rerun that finds a part or positions file gone
                        after that re-emits them with the prep+emit pass.
  _id_mapping/          scale-path id routing (``build.assign_ids``, for
                        the build and every update alike)
  postings_delta/, postings_delta_pos/   an update's postings exchange
  _update_pending.json                   an update in flight
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

from ..config import IndexConfig


def _fingerprint(corpus_tag: str, cfg: IndexConfig) -> str:
    import hashlib

    blob = json.dumps({"corpus": corpus_tag, "cfg": asdict(cfg)},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stage_done(index_dir: str, stage: str) -> bool:
    return os.path.exists(os.path.join(index_dir, stage, "_SUCCESS"))


def mark_stage(index_dir: str, stage: str, payload: dict | None = None) -> None:
    path = os.path.join(index_dir, stage, "_SUCCESS")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload or {}, f)
    os.replace(tmp, path)


def read_stage(index_dir: str, stage: str) -> dict:
    with open(os.path.join(index_dir, stage, "_SUCCESS")) as f:
        return json.load(f)


def completed_parts(index_dir: str, fingerprint: str) -> set[int]:
    """Partitions whose manifest entry exists and matches the fingerprint,
    and whose segment part is on disk."""
    mdir = os.path.join(index_dir, "manifest")
    done: set[int] = set()
    if not os.path.isdir(mdir):
        return done
    for name in os.listdir(mdir):
        if not (name.startswith("part-") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(mdir, name)) as f:
                entry = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        part = int(entry["part"])
        if entry.get("fingerprint") == fingerprint and os.path.exists(
                os.path.join(index_dir, "segments",
                             f"part-{part:04d}.parquet")):
            done.add(part)
    return done


def write_part_entry(index_dir: str, entry: dict) -> None:
    mdir = os.path.join(index_dir, "manifest")
    os.makedirs(mdir, exist_ok=True)
    path = os.path.join(mdir, f"part-{entry['part']:04d}.json")
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(entry, f)
    os.replace(tmp, path)


def write_meta(index_dir: str, meta: dict) -> None:
    mdir = os.path.join(index_dir, "manifest")
    os.makedirs(mdir, exist_ok=True)
    tmp = os.path.join(mdir, "_meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f, indent=1)
    os.replace(tmp, os.path.join(mdir, "_meta.json"))


def read_stats(index_dir: str) -> dict:
    """The index's stats.json. Posting streams are varint whatever the
    ``codec`` key says (older indexes carry none, or a descriptive
    string), except "bitpack": that format is no longer decoded, and
    reading it as varint would return wrong postings."""
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    if stats.get("codec") == "bitpack":
        raise ValueError(
            f"index {index_dir!r} was built with the removed 'bitpack'"
            " posting codec; rebuild it with build_index")
    return stats


def write_stats(index_dir: str, stats: dict) -> None:
    os.makedirs(index_dir, exist_ok=True)
    tmp = os.path.join(index_dir, "stats.json.tmp")
    with open(tmp, "w") as f:
        json.dump(stats, f)
    os.replace(tmp, os.path.join(index_dir, "stats.json"))
