"""KQL (Kibana Query Language) — the search-bar language of the
reference's actual UI (its dashboards and saved searches are Kibana
objects, SURVEY §1.2; reference Kibana-Dashboard-LogSentinelAI.ndjson).
Public KQL grammar, the subset a log-search user types:

- ``and`` / ``or`` / ``not`` (case-insensitive), precedence
  not > and > or, parentheses; adjacent clauses imply ``and``
- ``field:value`` keyword clauses (lang/repo/...), and grouped values
  ``field:(v1 or v2)`` (ES terms semantics)
- bare terms and quoted phrases search the content field
- trailing ``*`` on a bare term is a prefix wildcard (ES top-N rewrite)

Execution is doc-id set algebra over primitives the engine already
serves shard-side: term/posting unions (``match_ids``), keyword-field
postings (``_filter_ids``), dictionary prefix expansion
(``expand_prefix``), positional phrase verification (``phrase_match``),
and NOT as complement against the live id space. KQL is Kibana filter
context, but hits are still ranked: the positive text terms score the
surviving id set through ``_score_id_set`` (bit-identical BM25 to
TAAT); a pure-filter query degrades to constant score 0.0, doc_id asc
(the ES constant_score contract).

Scale note: every leaf resolves to a sorted id array no larger than the
leaf's posting df, intersections shrink left-to-right, and scoring
decodes only blocks containing survivors — nothing N-sized beyond what
the chosen leaves' own postings require. NOT of a hot clause against a
10^12-doc id space is the one coordinator-sized step; Kibana users pair
``not`` with a positive clause, and the evaluator intersects positives
FIRST so the complement is only materialized against the already-narrow
candidate set.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from .shards import top_k

_TOKEN = re.compile(r'"([^"]*)"|(\(|\))|([^\s()]+)')

_KEYWORDS = {"and", "or", "not"}


def _lex(q: str) -> list[tuple[str, str]]:
    """(kind, text) tokens: PHRASE, LP, RP, AND, OR, NOT, WORD."""
    out: list[tuple[str, str]] = []
    for m in _TOKEN.finditer(q):
        phrase, paren, word = m.group(1), m.group(2), m.group(3)
        if phrase is not None:
            out.append(("PHRASE", phrase))
        elif paren == "(":
            out.append(("LP", "("))
        elif paren == ")":
            out.append(("RP", ")"))
        elif word.lower() in _KEYWORDS:
            out.append((word.lower().upper(), word))
        else:
            out.append(("WORD", word))
    return out


class _Parser:
    """Recursive descent: or := and (OR and)*; and := not ((AND)? not)*
    — a clause adjacent to another clause without an operator is an
    implicit AND (KQL default); not := NOT not | primary."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self.toks = tokens
        self.i = 0

    def _peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def _next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self):
        node = self._or()
        if self.i != len(self.toks):
            raise ValueError(f"KQL: unexpected {self.toks[self.i][1]!r}")
        return node

    def _or(self):
        parts = [self._and()]
        while self._peek() == "OR":
            self._next()
            parts.append(self._and())
        return parts[0] if len(parts) == 1 else ("or", parts)

    def _and(self):
        parts = [self._not()]
        while True:
            k = self._peek()
            if k == "AND":
                self._next()
                parts.append(self._not())
            elif k in ("NOT", "WORD", "PHRASE", "LP"):  # implicit AND
                parts.append(self._not())
            else:
                break
        return parts[0] if len(parts) == 1 else ("and", parts)

    def _not(self):
        if self._peek() == "NOT":
            self._next()
            return ("not", self._not())
        return self._primary()

    def _primary(self):
        kind, text = self._next() if self.i < len(self.toks) else (None, "")
        if kind is None:
            raise ValueError("KQL: empty clause")
        if kind == "LP":
            node = self._or()
            if self._peek() != "RP":
                raise ValueError("KQL: missing ')'")
            self._next()
            return node
        if kind == "PHRASE":
            return ("phrase", text)
        if kind == "WORD":
            if ":" in text:
                field, _, val = text.partition(":")
                if not field:
                    raise ValueError("KQL: empty field name")
                if val:
                    return ("field", field, self._value_leaf(val))
                # field: ( v1 or v2 ... )
                if self._peek() == "LP":
                    self._next()
                    node = self._or()
                    if self._peek() != "RP":
                        raise ValueError("KQL: missing ')'")
                    self._next()
                    return ("field", field, node)
                raise ValueError(f"KQL: field {field!r} has no value")
            return self._value_leaf(text)
        raise ValueError(f"KQL: unexpected {text!r}")

    @staticmethod
    def _value_leaf(text: str):
        if text.endswith("*") and len(text) > 1 and "*" not in text[:-1]:
            return ("prefix", text[:-1])
        return ("term", text)


def parse_kql(q: str):
    """Parse a KQL string into the AST evaluated by ``kql_ids``."""
    toks = _lex(q)
    if not toks:
        raise ValueError("empty KQL query")
    return _Parser(toks).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _live_ids(engine) -> np.ndarray:
    """All non-tombstoned doc ids (NOT's complement space)."""
    n = int(engine.stats["n_docs"])
    return engine._drop_tombstones(np.arange(n, dtype=np.int64))


def _keyword_ids(engine, field: str, node) -> np.ndarray:
    """Resolve a field clause's value sub-AST to ids via the field
    postings. Values under one field combine with the same and/or/not
    algebra; leaves are exact keyword values (terms filter)."""
    kind = node[0]
    if kind == "term":
        ids = engine._filter_ids({field: node[1]})
        return ids if ids is not None else np.empty(0, np.int64)
    if kind == "phrase":  # quoted keyword value: exact match
        ids = engine._filter_ids({field: node[1]})
        return ids if ids is not None else np.empty(0, np.int64)
    if kind == "prefix":
        vals = engine.keyword_values(field, prefix=node[1])
        if not vals:
            return np.empty(0, np.int64)
        ids = engine._filter_ids({field: vals})
        return ids if ids is not None else np.empty(0, np.int64)
    if kind == "or":
        parts = [_keyword_ids(engine, field, p) for p in node[1]]
        return np.unique(np.concatenate(parts)) if parts \
            else np.empty(0, np.int64)
    if kind == "and":
        parts = [_keyword_ids(engine, field, p) for p in node[1]]
        out = parts[0]
        for p in parts[1:]:
            out = np.intersect1d(out, p, assume_unique=True)
        return out
    if kind == "not":
        inner = _keyword_ids(engine, field, node[1])
        return np.setdiff1d(_live_ids(engine), inner, assume_unique=True)
    raise ValueError(f"KQL: unsupported value clause {kind!r}")


def kql_ids(engine, node) -> np.ndarray:
    """Sorted live doc ids matching the AST."""
    kind = node[0]
    if kind == "term":
        return engine.match_ids(node[1])
    if kind == "prefix":
        terms = engine.expand_prefix(node[1])["term"].to_pylist()
        if not terms:
            return np.empty(0, np.int64)
        return engine.match_ids(" ".join(terms))
    if kind == "phrase":
        from .phrase import phrase_match

        hits = phrase_match(engine, node[1])
        ids = hits["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return engine._drop_tombstones(np.sort(ids))
    if kind == "field":
        return _keyword_ids(engine, node[1], node[2])
    if kind == "or":
        parts = [kql_ids(engine, p) for p in node[1]]
        return np.unique(np.concatenate(parts))
    if kind == "and":
        # positives first (each intersection shrinks the set), NOT
        # clauses applied as subtractions against the narrowed set —
        # the complement space is never materialized when a positive
        # clause exists
        pos = [p for p in node[1] if p[0] != "not"]
        neg = [p[1] for p in node[1] if p[0] == "not"]
        if pos:
            out = kql_ids(engine, pos[0])
            for p in pos[1:]:
                if out.size == 0:
                    return out
                out = np.intersect1d(out, kql_ids(engine, p),
                                     assume_unique=True)
        else:
            out = _live_ids(engine)
        for p in neg:
            if out.size == 0:
                return out
            out = np.setdiff1d(out, kql_ids(engine, p),
                               assume_unique=True)
        return out
    if kind == "not":
        return np.setdiff1d(_live_ids(engine), kql_ids(engine, node[1]),
                            assume_unique=True)
    raise ValueError(f"KQL: unsupported clause {kind!r}")


def positive_text_terms(engine, node) -> list[str]:
    """The scoring terms: every content term/phrase-token/prefix
    expansion NOT under a ``not`` and NOT inside a field clause —
    Kibana ranks filter-context hits by relevance of the text part.
    Terms and phrases analyze through the content analyzer that
    ``match_ids`` matches with (the index's stem filter included)."""
    out: set[str] = set()

    def walk(n, negated: bool):
        k = n[0]
        if k == "not":
            walk(n[1], not negated)
        elif k in ("and", "or"):
            for p in n[1]:
                walk(p, negated)
        elif k == "field":
            return
        elif negated:
            return
        elif k in ("term", "phrase"):
            out.update(engine._toks(n[1]))
        elif k == "prefix":
            out.update(engine.expand_prefix(n[1])["term"].to_pylist())

    walk(node, False)
    return sorted(out)


def kql_search(engine, q: str, k: int = 10,
               with_meta: bool = False) -> pa.Table:
    """Parse + evaluate + rank: the Kibana search bar end-to-end."""
    ast = parse_kql(q)
    ids = kql_ids(engine, ast)
    if ids.size == 0:
        return engine._format_result([], with_meta)
    terms = positive_text_terms(engine, ast)
    if terms:
        topk = top_k(ids, engine._score_id_set(terms, ids), k)
    else:  # pure filter: constant score, doc_id asc
        topk = [(int(d), 0.0) for d in ids[:k]]
    return engine._format_result(topk, with_meta)
