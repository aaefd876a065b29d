"""ES index-alias analog (the ``_aliases`` API): named read views over
one or more indexes, each member optionally carrying a FILTER that is
AND-ed into every query served through the alias (ES filtered-alias
semantics — the standard multi-tenant / time-slice pattern).

Reference parity: the reference's Kibana dashboard reads the ES indexes
through index patterns (reference config: ``ELASTICSEARCH_INDEX``
prefix naming, core/elasticsearch.py index selection); aliases are the
ES-native indirection those patterns resolve through. The ILM module
(index/ilm.py) and rollover already maintain a generation alias; this
module is the general user-facing registry.

Semantics:
- alias → ``[{"index": dir, "filter": {field: value|[values]}}, ...]``
- single-member alias: the member engine's ``search`` runs with the
  alias filter merged into the request filters (both must hold — a
  request filter on the same field intersects, and a disjoint
  intersection returns empty, never last-wins).
- multi-member alias: every member is searched with its own filter and
  the hit lists merge by (score desc, doc_id asc). Scores come from
  each member's OWN index statistics — exactly ES's cross-index search
  without ``dfs_query_then_fetch`` (the dfs variant is
  query/federated.py, which exchanges global stats first).

Registry storage is one small JSON file written atomically (tmp +
rename, the manifest convention) — alias metadata is KBs; at target
scale it lives beside the cluster manifest, never in the data path.
"""

from __future__ import annotations

import json
import os
import tempfile

import pyarrow as pa

from ..query.shards import top_k


def _load(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def _store(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix="._aliases")
    with os.fdopen(fd, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def put_alias(registry: str, name: str, members: list[dict]) -> None:
    """Create/replace an alias. ``members``: list of
    ``{"index": dir[, "filter": {field: value|[values]}]}``."""
    if not members:
        raise ValueError("alias needs >= 1 member")
    for m in members:
        if "index" not in m:
            raise ValueError("alias member needs an 'index' dir")
        flt = m.get("filter")
        if flt is not None and not isinstance(flt, dict):
            raise ValueError("alias filter must be {field: value}")
    data = _load(registry)
    data[name] = [{"index": m["index"], "filter": m.get("filter")}
                  for m in members]
    _store(registry, data)


def delete_alias(registry: str, name: str) -> None:
    data = _load(registry)
    if name not in data:
        raise KeyError(f"no such alias: {name}")
    del data[name]
    _store(registry, data)


def get_alias(registry: str, name: str) -> list[dict]:
    data = _load(registry)
    if name not in data:
        raise KeyError(f"no such alias: {name}")
    return data[name]


def list_aliases(registry: str) -> dict:
    return _load(registry)


def _merge_filters(alias_flt: dict | None,
                   req_flt: dict | None) -> dict | None:
    """AND-combine the alias filter with the request filters. Same
    field on both sides intersects the accepted value sets (ES bool
    filter semantics) — a disjoint intersection yields a sentinel
    never-matching filter rather than silently dropping one side."""
    if not alias_flt:
        return req_flt
    if not req_flt:
        return alias_flt
    out: dict = {}
    for f in set(alias_flt) | set(req_flt):
        a, r = alias_flt.get(f), req_flt.get(f)
        if a is None or r is None:
            out[f] = a if r is None else r
            continue
        aset = set(a) if isinstance(a, (list, tuple)) else {a}
        rset = set(r) if isinstance(r, (list, tuple)) else {r}
        both = sorted(aset & rset)
        if not both:
            # impossible conjunction: keep a never-matching value list
            # so the engine returns 0 hits (the ES behavior)
            out[f] = []
        elif len(both) == 1:
            out[f] = both[0]
        else:
            out[f] = both
    return out


def alias_search(registry: str, name: str, text: str, k: int = 10,
                 filters: dict | None = None, get_engine=None,
                 strategy: str | None = None) -> pa.Table:
    """Top-k BM25 through an alias. ``get_engine(index_dir)`` returns a
    ``SearchEngine`` (injectable so callers reuse their actor pools;
    defaults to constructing one per member — fine for tests)."""
    members = get_alias(registry, name)
    if get_engine is None:
        from ..query.shards import SearchEngine

        _cache: dict[str, object] = {}

        def get_engine(d, _c=_cache):  # noqa: ANN001
            if d not in _c:
                _c[d] = SearchEngine(d)
            return _c[d]

    parts = []
    for m in members:
        eng = get_engine(m["index"])
        flt = _merge_filters(m.get("filter"), filters)
        if flt is not None and any(
                isinstance(v, (list, tuple)) and len(v) == 0
                for v in flt.values()):
            continue  # impossible conjunction on this member
        res = eng.search(text, k=k, filters=flt, with_meta=False,
                         strategy=strategy)
        parts.append(res.select(["doc_id", "score"]))
    topk = []
    if parts:
        allt = pa.concat_tables(parts)
        topk = top_k(allt["doc_id"].to_numpy(zero_copy_only=False),
                     allt["score"].to_numpy(zero_copy_only=False), k)
    return pa.table({"doc_id": pa.array([d for d, _ in topk], pa.int64()),
                     "score": pa.array([s for _, s in topk], pa.float64())})
