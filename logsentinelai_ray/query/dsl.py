"""ES Query-DSL JSON executor — the wire-format surface the reference's
users actually speak.

The reference ships every analysis as a JSON document into Elasticsearch
and its dashboards query back with the ES Query DSL (reference
core/elasticsearch.py:321-328 indexes; the Kibana saved objects in
Kibana-9.0.3-Dashboard-LogSentinelAI.ndjson are DSL queries). This
module executes a compatible subset of that DSL directly against the
engine, so a caller can port an ES request body verbatim instead of
learning the per-method API.

Supported query nodes (each delegates to the engine primitive whose
semantics and float op-trees are already oracle-verified):

- ``match``              {field: text} / {field: {"query": text}} —
  BM25 OR-of-terms; field "content" or the scored "path" field
- ``match_phrase``       {"content": "a b"} — positional filter, BM25
  over the phrase's terms restricted to matching docs
- ``match_all``          {} — every live doc at score 1.0
- ``term`` / ``terms``   keyword filters (lang / repo) — FILTER context
- ``range``              {"doc_id": {"gte": a, "lte": b}} — filter
- ``bool``               must / should / must_not / filter /
  minimum_should_match (ES matching semantics: must+filter conjoin,
  must_not subtracts, should widens scoring — unless there is no
  must/filter, when >= max(1, msm) should clauses must match)
- ``ids``                {"values": [...]} — filter; tombstoned drop
- ``exists``             {"field": keyword} — filter via the field's
  posting-dictionary union (every doc holding the field)
- ``prefix``             {"content": "pre"} — filter via dictionary
  expansion (the ES constant_score multi-term rewrite)
- ``constant_score``     {"filter": node, "boost": w}
- ``boosting``           {"positive", "negative", "negative_boost"}
- ``dis_max``            {"queries": [...], "tie_breaker": t}
- ``function_score``     {"query": node, "weight": w} (weight form)

Everything evaluates in the TAAT regime over dense float64 accumulators
(BM25 contributions are strictly positive, so score > 0 == matched): a
``match`` node is the engine's one accumulator (``_accumulate``, content
text through the index's analyzer ``_toks``), compound nodes combine
those arrays, and the request's page is the engine's one selection
(``_hits``). The same node tree runs under WAND past the accumulator
ceiling by the documented bound-inflation rules on each primitive (see
boosting_search / function_score_search scale notes in shards.py).
Unknown nodes, and a negative ``negative_boost`` or ``weight``, raise
ValueError — an honest subset, never a silent mis-parse.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tokenizer import tokenize_py
from .shards import _check_boost

_KEYWORD_FIELDS = ("lang", "repo")


def _terms_of(engine, field: str, text: str) -> list[str]:
    if field == "path":  # the path field's own (unstemmed) analyzer
        mtl = int(engine.stats["max_token_len"])
        return sorted("p:" + t for t in set(tokenize_py(text, mtl)))
    if field != "content":
        raise ValueError(f"match: unsupported scored field {field!r}")
    return sorted(set(engine._toks(text)))


def _match_text(spec) -> str:
    return spec["query"] if isinstance(spec, dict) else spec


def _scored(engine, node: dict) -> np.ndarray:
    """Dense per-doc scores for a scoring-context node (0 = no match)."""
    n = int(engine.stats["n_docs"])
    if len(node) != 1:
        raise ValueError(f"expected a single-key query node, got {node}")
    kind, spec = next(iter(node.items()))

    if kind == "match":
        (field, text), = spec.items()
        terms = _terms_of(engine, field, _match_text(text))
        engine._ensure_contribs(terms)
        return engine._accumulate(terms)

    if kind == "match_phrase":
        (field, text), = spec.items()
        if field != "content":
            raise ValueError("match_phrase supports the content field")
        phrase = _match_text(text)
        ids = engine.phrase_match(phrase)["doc_id"] \
            .to_numpy(zero_copy_only=False)
        acc = _scored(engine, {"match": {"content": phrase}})
        out = np.zeros(n, dtype=np.float64)
        out[ids] = acc[ids]
        return out

    if kind == "match_all":
        return np.ones(n, dtype=np.float64)

    if kind == "constant_score":
        ids = _filter_ids(engine, spec["filter"])
        acc = np.zeros(n, dtype=np.float64)
        acc[ids] = float(spec.get("boost", 1.0))
        return acc

    if kind == "boosting":
        boost = spec.get("negative_boost", 0.5)
        _check_boost("boosting negative_boost", boost)
        acc = _scored(engine, spec["positive"])
        acc[_filter_ids(engine, spec["negative"])] *= float(boost)
        return acc

    if kind == "dis_max":
        dense = [_scored(engine, q) for q in spec["queries"]]
        tie = float(spec.get("tie_breaker", 0.0))
        stack = np.stack(dense)
        am = np.argmax(stack, axis=0)
        cols = np.arange(stack.shape[1])
        best = stack[am, cols]
        # exact ES op tree: max + tie * sum(others). Zeroing the max
        # slot and summing keeps the float sum identical to summing the
        # others alone (x + 0.0 is exact) — a `total - best` rewrite
        # would round differently from the two-query min formulation.
        stack[am, cols] = 0.0
        return best + tie * np.add.reduce(stack, axis=0)

    if kind == "function_score":
        weight = spec.get("weight", 1.0)
        _check_boost("function_score weight", weight)
        return _scored(engine, spec["query"]) * float(weight)

    if kind == "sparse_vector":
        # ES sparse_vector / text_expansion serving shape:
        # {"sparse_vector": {"field": "content",
        #                    "query_vector": {token: weight, ...}}}
        if spec.get("field", "content") != "content":
            raise ValueError("sparse_vector supports the content field")
        return engine._sparse_vector_dense(spec["query_vector"])

    if kind == "combined_fields":
        # {"combined_fields": {"query": text,
        #                      "fields": ["content", "path^2"]}}
        fields = spec.get("fields", ["content", "path"])
        boost = 1.0
        norm_fields = []
        for f in fields:
            name, _, suffix = f.partition("^")
            if name == "path" and suffix:
                boost = float(suffix)
            norm_fields.append(name)
        if sorted(norm_fields) != ["content", "path"]:
            raise ValueError(
                "combined_fields supports fields content + path, got "
                f"{fields}")
        return engine._combined_fields_dense(spec["query"],
                                             path_boost=boost)

    if kind == "bool":
        return _scored_bool(engine, spec)

    raise ValueError(f"unsupported scoring node: {kind!r}")


def _scored_bool(engine, spec: dict) -> np.ndarray:
    n = int(engine.stats["n_docs"])
    as_list = (lambda v: v if isinstance(v, list) else [v])
    must = [m for m in as_list(spec.get("must", []))]
    should = [s for s in as_list(spec.get("should", []))]
    must_not = [m for m in as_list(spec.get("must_not", []))]
    filters = [f for f in as_list(spec.get("filter", []))]
    msm = int(spec.get("minimum_should_match", 0))

    must_dense = [_scored(engine, m) for m in must]
    should_dense = [_scored(engine, s) for s in should]

    allow = np.ones(n, dtype=bool)
    if must_dense:
        for d in must_dense:
            allow &= d > 0.0
    for f in filters:
        m = np.zeros(n, dtype=bool)
        m[_filter_ids(engine, f)] = True
        allow &= m
    if not must and not filters:
        # pure-should bool: at least max(1, msm) should clauses match
        need = max(1, msm)
        cnt = np.zeros(n, dtype=np.int64)
        for d in should_dense:
            cnt += d > 0.0
        allow &= cnt >= need
    elif msm:
        cnt = np.zeros(n, dtype=np.int64)
        for d in should_dense:
            cnt += d > 0.0
        allow &= cnt >= msm
    for mn in must_not:
        allow[_filter_ids(engine, mn)] = False

    acc = np.zeros(n, dtype=np.float64)
    for d in must_dense + should_dense:
        acc += d
    if not must_dense and not should_dense:
        acc[:] = 1.0  # filter-only bool scores 1.0 in filter context
    acc[~allow] = 0.0
    return acc


def _filter_ids(engine, node: dict) -> np.ndarray:
    """Sorted doc-id match set of a node in FILTER context (no scores)."""
    if len(node) != 1:
        raise ValueError(f"expected a single-key query node, got {node}")
    kind, spec = next(iter(node.items()))

    if kind in ("term", "terms"):
        (field, value), = spec.items()
        if field not in _KEYWORD_FIELDS:
            raise ValueError(f"term/terms filter on unknown keyword "
                             f"field {field!r}")
        vals = value if isinstance(value, list) else [value]
        ids = engine._filter_ids({field: vals})
        return ids if ids is not None else np.empty(0, np.int64)

    if kind == "range":
        (field, bounds), = spec.items()
        if field != "doc_id":
            raise ValueError("range filter supports the doc_id field")
        n = int(engine.stats["n_docs"])
        lo = int(bounds.get("gte", 0))
        hi = int(bounds.get("lte", n - 1))
        return np.arange(max(lo, 0), min(hi, n - 1) + 1, dtype=np.int64)

    if kind == "match_all":
        return np.arange(int(engine.stats["n_docs"]), dtype=np.int64)

    if kind == "ids":
        n = int(engine.stats["n_docs"])
        vals = np.unique(np.asarray([int(v) for v in spec["values"]],
                                    dtype=np.int64))
        vals = vals[(vals >= 0) & (vals < n)]
        return engine._drop_tombstones(vals)

    if kind == "exists":
        field = spec["field"]
        if field not in _KEYWORD_FIELDS:
            raise ValueError(f"exists supports keyword fields "
                             f"{_KEYWORD_FIELDS}, got {field!r}")
        fterms = engine._field_terms(field)
        engine._ensure_contribs(fterms)
        return engine._union_ids(fterms)

    if kind == "prefix":
        (field, value), = spec.items()
        if field != "content":
            raise ValueError("prefix filter supports the content field")
        text = value["value"] if isinstance(value, dict) else value
        exp = engine.expand_prefix(text, 1024)
        terms = exp["term"].to_pylist()
        engine._ensure_contribs(terms)
        return engine._union_ids(terms)

    # any scoring node can sit in filter context: its match set
    return np.flatnonzero(_scored(engine, node) > 0.0)


def execute_dsl(engine, body: dict, with_meta: bool = False):
    """Execute an ES-style request body: ``{"query": <node>, "size": k,
    "from": offset}``. Returns the engine's standard (rank, doc_id,
    score) table, tie-broken (score desc, doc_id asc) like every other
    top-k in this engine. Tombstoned docs never surface."""
    size = int(body.get("size", 10))
    offset = int(body.get("from", 0))
    if size < 0 or offset < 0:
        raise ValueError(f"size and from must be >= 0, got size={size} "
                         f"from={offset}")
    acc = _scored(engine, body.get("query", {"match_all": {}}))
    return engine._format_result(
        engine._hits(acc, offset + size)[offset:], with_meta)
