"""simple_query_string — ES's lenient end-user search syntax (the
query_string sibling the reference exposes to untrusted input: it never
raises on malformed queries, reference dashboards accept it anywhere a
Kibana search box does). Public Lucene ``SimpleQueryParser`` operator
set, the subset implementable over this engine's primitives:

- ``+`` AND, ``|`` OR, ``-`` NOT (binds to the next atom),
  ``"..."`` phrase, trailing ``*`` prefix wildcard, ``( )`` grouping
- adjacent atoms combine with ``default_operator`` ("or", ES default)
- precedence (documented subset contract): not > and > or

Leniency contract (the point of simple_query_string vs query_string):
an unterminated quote runs to end-of-string; an unmatched ``(`` closes
at end-of-string; a stray ``)``, dangling operator, or empty group is
dropped; a query that reduces to nothing matches nothing. No syntax
error ever escapes the parser.

The parser emits the SAME AST node shapes as query/kql.py (term /
phrase / prefix / and / or / not), so evaluation and ranking reuse
``kql_ids`` + ``positive_text_terms`` + ``_score_id_set`` verbatim —
one id-set algebra, two surface languages (same KQL scale note
applies). simple_query_string has no in-query field syntax (fields are
an API-side parameter in ES), so the ``field`` node never occurs.
"""

from __future__ import annotations

import re

import pyarrow as pa

from .kql import kql_ids, positive_text_terms
from .shards import top_k

# a token: quoted phrase (close-quote optional = lenient), one of the
# operator/group chars, or a bare word (may carry a trailing *)
_SQS_TOKEN = re.compile(r'"([^"]*)"?|([()|+\-])|([^\s()|+\-"]+)')


def _lex(q: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for m in _SQS_TOKEN.finditer(q):
        phrase, op, word = m.group(1), m.group(2), m.group(3)
        if phrase is not None:
            out.append(("phrase", phrase))
        elif op is not None:
            out.append((op, op))
        else:
            out.append(("word", word))
    return out


class _Parser:
    """Recursive descent, never raises: unparseable pieces drop out."""

    def __init__(self, toks: list[tuple[str, str]],
                 default_operator: str):
        self.toks = toks
        self.i = 0
        self.adj_or = default_operator != "and"

    def _peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def _atom_ahead(self) -> bool:
        return self._peek() in ("word", "phrase", "(", "-")

    def parse(self):
        node = self._or(depth=0)
        # lenient: stray trailing ')' / operators at top level — skip
        # them and keep parsing; OR the pieces together
        parts = [node] if node is not None else []
        while self.i < len(self.toks):
            self.i += 1
            more = self._or(depth=0)
            if more is not None:
                parts.append(more)
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else ("or", parts)

    def _or(self, depth: int):
        parts = []
        first = self._and(depth)
        if first is not None:
            parts.append(first)
        while True:
            t = self._peek()
            if t == "|":
                self.i += 1
                nxt = self._and(depth)
            elif self.adj_or and self._atom_ahead():
                nxt = self._and(depth)
            else:
                break
            if nxt is not None:
                parts.append(nxt)
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else ("or", parts)

    def _and(self, depth: int):
        parts = []
        first = self._unary(depth)
        if first is not None:
            parts.append(first)
        while True:
            t = self._peek()
            if t == "+":
                self.i += 1
                nxt = self._unary(depth)
            elif not self.adj_or and self._atom_ahead():
                nxt = self._unary(depth)
            else:
                break
            if nxt is not None:
                parts.append(nxt)
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else ("and", parts)

    def _unary(self, depth: int):
        t = self._peek()
        if t is None:
            return None
        if t == "-":
            self.i += 1
            inner = self._unary(depth)
            # dangling '-' is dropped; '--x' collapses to NOT NOT x = x
            if inner is None:
                return None
            return inner[1] if inner[0] == "not" else ("not", inner)
        if t == "(":
            self.i += 1
            node = self._or(depth + 1)
            if self._peek() == ")":
                self.i += 1  # unmatched '(' closes at EOS (lenient)
            return node
        if t == "phrase":
            s = self.toks[self.i][1]
            self.i += 1
            return ("phrase", s) if s.strip() else None
        if t == "word":
            w = self.toks[self.i][1]
            self.i += 1
            if w.endswith("*"):
                stem = w.rstrip("*")
                return ("prefix", stem) if stem else None
            return ("term", w)
        # '|' '+' ')' where an atom was expected: lenient skip happens
        # in the callers' loops ('|'/'+' break the loop; ')' ends the
        # group or, at top level, parse() skips it)
        return None


def parse_sqs(q: str, default_operator: str = "or"):
    """Parse to a KQL-shaped AST; None when nothing survives leniency."""
    return _Parser(_lex(q), default_operator).parse()


def sqs_search(engine, q: str, k: int = 10,
               default_operator: str = "or",
               with_meta: bool = False) -> pa.Table:
    """Parse + evaluate + rank, mirroring kql_search's contract: id-set
    algebra decides matches, BM25 over the positive text terms ranks
    them (bit-identical to TAAT via _score_id_set); a pure-negation or
    empty query matches its (possibly empty) set at constant score."""
    ast = parse_sqs(q, default_operator)
    if ast is None:
        return engine._format_result([], with_meta)
    ids = kql_ids(engine, ast)
    if ids.size == 0:
        return engine._format_result([], with_meta)
    terms = positive_text_terms(engine, ast)
    if terms:
        topk = top_k(ids, engine._score_id_set(terms, ids), k)
    else:
        topk = [(int(d), 0.0) for d in ids[:k]]
    return engine._format_result(topk, with_meta)
