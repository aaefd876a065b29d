"""Cross-cluster replication — an ES CCR follower, the segment-file way.

ES CCR bootstraps a follower from a snapshot and then keeps it current
by shipping SEGMENT FILES (file-based recovery: the leader's segment
metadata names each file + checksum; the follower fetches only files it
doesn't already hold). This engine's index is immutable-or-atomically-
replaced parquet plus a per-partition manifest (index/manifest.py), so
the same protocol falls out naturally:

1. **plan** (`plan_sync`): diff the leader's tiny manifest/stats JSONs
   against the follower's. A segment part is stale exactly when its
   manifest entry's bytes differ (updates rewrite the part AND its
   lineage entry together — index/update.py); docs/docmap/norms/
   positions deltas are append-only new files, so "missing on
   follower" is the whole test. Nothing data-sized is read to plan.
2. **fetch**: copy planned files in parallel Ray tasks (the sandbox
   stand-in for cross-cluster segment shipping; at scale each copy is
   an object-store / network transfer and the PLAN is the operator).
3. **commit**: stats.json + manifest land LAST, so a reader of the
   follower dir never sees new stats over old segments — the follower
   stays openable mid-sync (ES's "follower index is searchable during
   recovery").

Rank identity after each sync round (bootstrap, post-update, no-op) is
pinned in test_ccr.py; the no-op round must plan zero copies.
"""

from __future__ import annotations

import os
import shutil

import ray

_DATA_DIRS = ("segments", "docs", "docmap", "norms", "positions")
_COMMIT_FILES = ("stats.json", "tombstones.parquet")


def _walk(root: str, sub: str) -> dict[str, int]:
    """relpath -> size for every file under root/sub."""
    out: dict[str, int] = {}
    base = os.path.join(root, sub)
    if not os.path.isdir(base):
        return out
    for dirpath, _dirs, files in os.walk(base):
        for f in files:
            if f.endswith(".tmp"):
                continue
            full = os.path.join(dirpath, f)
            out[os.path.relpath(full, root)] = os.path.getsize(full)
    return out


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def plan_sync(leader: str, follower: str) -> dict:
    """The file-shipping plan: which relpaths to copy and why, plus
    extraneous follower files to drop. Reads only manifest/stats JSON
    bytes and directory listings — never a data file."""
    # stale segment parts via manifest-entry diff (small JSON bytes)
    stale_parts: set[str] = set()
    mdir = os.path.join(leader, "manifest")
    manifest_changed: list[str] = []
    if os.path.isdir(mdir):
        for name in sorted(os.listdir(mdir)):
            if name.endswith(".tmp"):
                continue
            lb = _read_bytes(os.path.join(mdir, name))
            fb = _read_bytes(os.path.join(follower, "manifest", name))
            if lb != fb:
                manifest_changed.append(os.path.join("manifest", name))
                if name.startswith("part-") and name.endswith(".json"):
                    stale_parts.add(
                        os.path.join("segments",
                                     name[:-len(".json")] + ".parquet"))

    copies: list[str] = []
    drops: list[str] = []
    for sub in _DATA_DIRS:
        lfiles = _walk(leader, sub)
        ffiles = _walk(follower, sub)
        for rel, size in lfiles.items():
            if rel not in ffiles or rel in stale_parts \
                    or ffiles[rel] != size:
                copies.append(rel)
        drops.extend(rel for rel in ffiles if rel not in lfiles)

    commit: list[str] = list(manifest_changed)
    for f in _COMMIT_FILES:
        lb = _read_bytes(os.path.join(leader, f))
        if lb is not None and lb != _read_bytes(
                os.path.join(follower, f)):
            commit.append(f)
    return {"copies": sorted(copies), "drops": sorted(drops),
            "commit": commit}


@ray.remote(num_cpus=1)
def _fetch(leader: str, follower: str, rels: list[str]) -> int:
    for rel in rels:
        dst = os.path.join(follower, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        tmp = dst + ".tmp"
        shutil.copy2(os.path.join(leader, rel), tmp)
        os.replace(tmp, dst)
    return len(rels)


def sync_follower(leader: str, follower: str,
                  files_per_task: int = 64) -> dict:
    """One CCR round: plan → parallel fetch → drop extraneous →
    commit (stats/manifest last). Idempotent; a crashed round re-plans
    and re-copies only what still differs."""
    leader_r = os.path.realpath(leader)
    follower_r = os.path.realpath(follower)
    if leader_r == follower_r or \
            os.path.commonpath([leader_r, follower_r]) in (leader_r,
                                                           follower_r):
        raise ValueError("follower must be a disjoint directory")
    os.makedirs(follower, exist_ok=True)
    plan = plan_sync(leader, follower)
    batches = [plan["copies"][i:i + files_per_task]
               for i in range(0, len(plan["copies"]), files_per_task)]
    ray.get([_fetch.remote(leader, follower, b) for b in batches])
    for rel in plan["drops"]:
        try:
            os.remove(os.path.join(follower, rel))
        except OSError:
            pass
    # commit point: lineage + stats flip only after data is in place
    for rel in plan["commit"]:
        dst = os.path.join(follower, rel)
        os.makedirs(os.path.dirname(dst) or follower, exist_ok=True)
        tmp = dst + ".tmp"
        shutil.copy2(os.path.join(leader, rel), tmp)
        os.replace(tmp, dst)
    return {"copied": len(plan["copies"]), "dropped": len(plan["drops"]),
            "committed": len(plan["commit"])}
