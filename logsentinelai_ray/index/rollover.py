"""Index rollover + alias search — the ES ``_rollover`` / alias analog.

The reference's Elasticsearch backend grows one index per log type and
relies on ES rollover to bound index size (an operational pattern the
reference assumes of its ES backend; its own code only ever writes to
the one configured index name — reference core/elasticsearch.py:322 —
and leaves size bounding to ES rollover/ILM). Our analog manages a
directory of immutable GENERATION indexes:

* ``ingest`` appends to the current (unsealed) generation via the
  incremental update path (index/update.py — delta segments, pending
  markers, crash resume), or opens ``gen-NNNN+1`` when the write
  condition (``max_docs``) sealed the previous one;
* ``search`` serves the ALIAS: one federated dfs_query_then_fetch pass
  across every generation (query/federated.py), bit-identical to a
  single merged index — generations never need compaction to stay
  queryable;
* ``alias.json`` records the generation log (name, n_docs, sealed), so
  a crashed ingest resumes against the correct generation.

Scale note: rollover is what keeps per-index structures bounded at
10^12 docs — a generation's posting merge, positions sidecar and doc
map never exceed ``max_docs``, while the alias fans queries out to all
generations in one wave.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

from ..config import IndexConfig
from . import manifest as mf
from .build import build_index
from .update import update_index

_ALIAS_FILE = "alias.json"


class RolloverIndex:
    def __init__(self, base_dir: str, cfg: IndexConfig | None = None,
                 max_docs: int = 1_000_000, alias: str = "logs"):
        self.base_dir = base_dir
        self.cfg = cfg
        self.max_docs = int(max_docs)
        os.makedirs(base_dir, exist_ok=True)
        p = os.path.join(base_dir, _ALIAS_FILE)
        if os.path.exists(p):
            with open(p) as f:
                self.meta = json.load(f)
            if self.meta["alias"] != alias:
                raise ValueError(
                    f"directory serves alias {self.meta['alias']!r}, "
                    f"not {alias!r}")
        else:
            self.meta = {"alias": alias, "max_docs": self.max_docs,
                         "generations": []}
        self._engines: list | None = None

    # ------------------------------------------------------------- write
    def _save(self):
        tmp = os.path.join(self.base_dir, _ALIAS_FILE + ".tmp")
        with open(tmp, "w") as f:
            json.dump(self.meta, f)
        os.replace(tmp, os.path.join(self.base_dir, _ALIAS_FILE))

    def _gen_dir(self, name: str) -> str:
        return os.path.join(self.base_dir, name)

    def ingest(self, corpus, tag: str) -> dict:
        """Write a parquet corpus (path or file list) into the alias:
        the current unsealed generation takes it as an incremental
        delta; if none is open, a new generation index is built. After
        the write the generation seals when it reaches ``max_docs`` —
        the next ingest rolls over. Returns the generation entry.

        Idempotent per tag: a tag already in the alias log is a replay
        of a completed round (watcher crash recovery) and is skipped;
        a crash BEFORE the log commit replays through build/update's
        own resume + content-dedup semantics."""
        done = self.meta.setdefault("ingested_tags", [])
        if tag in done:
            return dict(self.meta["generations"][-1])
        gens = self.meta["generations"]
        self._engines = None  # alias membership may change
        if gens and not gens[-1]["sealed"]:
            entry = gens[-1]
            update_index(corpus, self._gen_dir(entry["name"]),
                         self.cfg, delta_tag=tag)
        else:
            entry = {"name": f"gen-{len(gens):04d}", "sealed": False}
            build_index(corpus, self._gen_dir(entry["name"]),
                        self.cfg, corpus_tag=tag)
            gens.append(entry)
        stats = mf.read_stats(self._gen_dir(entry["name"]))
        entry["n_docs"] = int(stats["n_docs"])
        if entry["n_docs"] >= self.max_docs:
            entry["sealed"] = True
        done.append(tag)
        self._save()
        return dict(entry)

    def prune(self, keep_last: int = 1) -> list[str]:
        """ILM delete-phase analog: remove the oldest SEALED generations,
        keeping the most recent ``keep_last`` generations; an unsealed
        (still-writable) generation is never pruned. Returns the removed
        generation names; the alias log shrinks atomically with the
        directory removals, so a crashed prune leaves only extra (still
        valid) generations behind."""
        import shutil

        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        gens = self.meta["generations"]
        removed = []
        for g in gens[:-keep_last]:
            if not g["sealed"]:
                continue
            shutil.rmtree(self._gen_dir(g["name"]), ignore_errors=True)
            removed.append(g["name"])
        if removed:
            gone = set(removed)
            self.meta["generations"] = [g for g in gens
                                        if g["name"] not in gone]
            self._save()
            self._engines = None
        return removed

    # ------------------------------------------------------------- read
    def engines(self) -> list:
        from ..query.shards import SearchEngine

        if self._engines is None:
            self._engines = [SearchEngine(self._gen_dir(g["name"]))
                             for g in self.meta["generations"]]
        return self._engines

    def search(self, text: str, k: int = 10,
               strategy: str | None = None) -> pa.Table:
        """Alias search: federated global-stats BM25 across every
        generation — bit-identical to one merged index over the union
        (query/federated.py). Generation offsets follow ingest order,
        so when chunks arrive in sorted-key order the global ids equal
        a from-scratch build's ids."""
        from ..query.federated import FederatedSearch

        engines = self.engines()
        if len(engines) == 1:
            return engines[0].search(text, k=k, with_meta=False,
                                     strategy=strategy)
        return FederatedSearch(engines).search(text, k=k,
                                               strategy=strategy)

    def shutdown(self):
        if self._engines:
            for e in self._engines:
                e.shutdown()
        self._engines = None
