"""ES|QL mini-dialect executor — the ES 8.11+ piped query language
(`FROM … | WHERE … | EVAL … | STATS … BY … | SORT … | LIMIT …`,
plus `KEEP`/`DROP`, `RENAME old AS new`, `MV_EXPAND <field>`,
`DISSECT <field> "%{a}…"` / `GROK <field> "%{INT:n:int}…"` structured
extraction, `ENRICH <table> ON <field> [WITH cols]` /
`LOOKUP JOIN <table> ON <field>` broadcast lookup joins,
`INLINESTATS … BY …` join-back aggregates, and `FORK (…) (…)` branch
fan-out with the `_fork` discriminator) compiled onto Ray Data
operators.

Reference parity: the reference ships its results to Elasticsearch and
users query them with ES|QL / Query-DSL (reference README quick-start;
the Kibana dashboard ndjson). The DSL executor (query/dsl.py) covers the
JSON body; this module covers the piped text language.

Compilation strategy (the scale story):
- ``FROM t``      → ``ray.data.read_parquet(t, columns=<pruned>)`` — the
  parser collects every field referenced anywhere in the pipeline and
  prunes the read to exactly that set (a 2-column query reads 2 columns).
- ``WHERE``/``EVAL`` → one vectorized ``map_batches`` stage per run of
  row-local commands (pyarrow.compute kernels, zero Python-per-row).
- ``STATS … BY`` → ``Dataset.groupby().aggregate()`` (Count/Sum/Min/
  Max/Mean) — partial aggregation inside blocks, tiny exchange.
  Global STATS (no BY) aggregates without a shuffle.
- ``SORT``/``LIMIT`` after STATS act on the bucket table (driver-side,
  bucket-bounded); before STATS they become dataset sort/limit.
- ``KEEP``/``DROP`` → ``select_columns``.

Supported expression grammar (recursive descent, precedence low→high):
``OR`` < ``AND`` < ``NOT`` < comparison (``== != > >= < <=``) <
additive (``+ -``) < multiplicative (``* / %``) < unary ``-`` <
atom (literal / field / function call / parenthesized); string
predicates ``LIKE`` (*/? wildcards) / ``RLIKE`` (anchored regex) /
``IN (…)``, each with a ``NOT`` form; numeric array literals
``[1, -0.5, …]`` for the vector functions. Functions:
``ROUND(x[, n]) ABS LENGTH TO_LOWER TO_UPPER TO_LONG TO_INTEGER
TO_DOUBLE TO_STRING SUBSTRING CONCAT TRIM LTRIM RTRIM LEFT RIGHT
REPLACE REVERSE SPLIT LOCATE REPEAT SPACE STARTS_WITH ENDS_WITH
COALESCE MD5 SHA1 SHA256 TO_BASE64 FROM_BASE64 BIT_LENGTH BYTE_LENGTH
FLOOR CEIL SQRT POW LOG10 EXP LOG SIN COS TAN SIGNUM E PI TAU
BUCKET(x, n, min, max) DATE_TRUNC DATE_FORMAT DATE_EXTRACT
DATE_PARSE(pattern, s) DATE_DIFF(unit, start, end) GREATEST LEAST
CATEGORIZE(msg) CASE(c1, v1, …[, default]) MATCH(field, "query")
CIDR_MATCH(ip, "net/len", …) IP_PREFIX(ip, len, 0)
V_COSINE/V_DOT_PRODUCT/V_L1_NORM/V_L2_NORM(field, [q…])
MV_COUNT/MV_SUM/MV_MIN/MV_MAX/MV_AVG/MV_MEDIAN/MV_FIRST/MV_LAST/
MV_SORT/MV_DEDUPE/MV_SLICE/MV_APPEND``; aggregates ``COUNT
COUNT_DISTINCT SUM MIN MAX AVG MEDIAN
MEDIAN_ABSOLUTE_DEVIATION PERCENTILE VALUES TOP WEIGHTED_AVG
STD_DEV`` (each with a
per-aggregate ``WHERE`` filter).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<str>\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<op>==|!=|>=|<=|[><+\-*/%(),=\[\]])"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_.]*))")


def _tokenize(s: str) -> list[tuple[str, str]]:
    out, i = [], 0
    while i < len(s):
        m = _TOKEN_RE.match(s, i)
        if m is None:
            if s[i:].strip():
                raise ValueError(f"ES|QL: cannot tokenize at {s[i:]!r}")
            break
        i = m.end()
        for kind in ("num", "str", "op", "word"):
            v = m.group(kind)
            if v is not None:
                out.append((kind, v))
                break
    return out


# -- expression AST ---------------------------------------------------------

@dataclass
class Lit:
    value: object


@dataclass
class Field:
    name: str


@dataclass
class Call:
    fn: str
    args: list


@dataclass
class BinOp:
    op: str
    left: object
    right: object


@dataclass
class Unary:
    op: str
    operand: object


class _ExprParser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> tuple[str, str] | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, val: str) -> None:
        t = self.next()
        if t[1] != val:
            raise ValueError(f"ES|QL: expected {val!r}, got {t[1]!r}")

    def parse(self):
        e = self.parse_or()
        if self.i != len(self.toks):
            raise ValueError(
                f"ES|QL: trailing tokens {self.toks[self.i:]!r}")
        return e

    def parse_or(self):
        left = self.parse_and()
        while (t := self.peek()) and t[0] == "word" \
                and t[1].upper() == "OR":
            self.next()
            left = BinOp("or", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while (t := self.peek()) and t[0] == "word" \
                and t[1].upper() == "AND":
            self.next()
            left = BinOp("and", left, self.parse_not())
        return left

    def parse_not(self):
        t = self.peek()
        if t and t[0] == "word" and t[1].upper() == "NOT":
            self.next()
            return Unary("not", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self):
        left = self.parse_add()
        t = self.peek()
        if t and t[1] in ("==", "!=", ">", ">=", "<", "<="):
            self.next()
            return BinOp(t[1], left, self.parse_add())
        # postfix IS NULL / IS NOT NULL
        if t and t[0] == "word" and t[1].upper() == "IS":
            self.next()
            neg = False
            nt = self.next()
            if nt[0] == "word" and nt[1].upper() == "NOT":
                neg = True
                nt = self.next()
            if nt[0] != "word" or nt[1].upper() != "NULL":
                raise ValueError(
                    "ES|QL: expected IS [NOT] NULL")
            node = Unary("is_null", left)
            return Unary("not", node) if neg else node
        # LIKE "err*" / RLIKE "er+or" / IN ("a", "b") — with optional
        # NOT (the ES|QL string-predicate operators)
        neg = False
        if t and t[0] == "word" and t[1].upper() == "NOT":
            nxt = self.toks[self.i + 1] \
                if self.i + 1 < len(self.toks) else None
            if nxt and nxt[0] == "word" \
                    and nxt[1].upper() in ("LIKE", "RLIKE", "IN"):
                self.next()
                neg = True
                t = self.peek()
        if t and t[0] == "word" and t[1].upper() in ("LIKE", "RLIKE"):
            op = self.next()[1].lower()
            kind, val = self.next()
            if kind != "str":
                raise ValueError(f"ES|QL: {op.upper()} needs a quoted "
                                 "pattern")
            node = BinOp(op, left,
                         Lit(val[1:-1].replace('\\"', '"')))
            return Unary("not", node) if neg else node
        if t and t[0] == "word" and t[1].upper() == "IN":
            self.next()
            self.expect("(")
            vals = [self.parse_atom()]
            while self.peek() and self.peek()[1] == ",":
                self.next()
                vals.append(self.parse_atom())
            self.expect(")")
            for v in vals:
                if not isinstance(v, Lit):
                    raise ValueError("ES|QL: IN takes literal values")
            node = BinOp("in", left, Lit([v.value for v in vals]))
            return Unary("not", node) if neg else node
        if neg:
            raise ValueError("ES|QL: dangling NOT")
        return left

    def parse_add(self):
        left = self.parse_mul()
        while (t := self.peek()) and t[1] in ("+", "-"):
            self.next()
            left = BinOp(t[1], left, self.parse_mul())
        return left

    def parse_mul(self):
        left = self.parse_unary()
        while (t := self.peek()) and t[1] in ("*", "/", "%"):
            self.next()
            left = BinOp(t[1], left, self.parse_unary())
        return left

    def parse_unary(self):
        t = self.peek()
        if t and t[1] == "-":
            self.next()
            return Unary("neg", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        kind, val = self.next()
        if kind == "num":
            return Lit(float(val) if "." in val else int(val))
        if kind == "str":
            return Lit(val[1:-1].replace('\\"', '"'))
        if val == "[":
            # numeric array literal [1.0, -2, ...] — the query-vector
            # argument of the 9.x vector similarity functions
            vals: list[float] = []
            while True:
                t = self.next()
                neg = False
                if t[1] == "-":
                    neg = True
                    t = self.next()
                if t[0] != "num":
                    raise ValueError(
                        "ES|QL: array literals take numbers only")
                x = float(t[1])
                vals.append(-x if neg else x)
                t = self.next()
                if t[1] == "]":
                    break
                if t[1] != ",":
                    raise ValueError(
                        f"ES|QL: expected , or ] in array literal, "
                        f"got {t[1]!r}")
            return Lit(vals)
        if val == "(":
            e = self.parse_or()
            self.expect(")")
            return e
        if kind == "word":
            nxt = self.peek()
            if nxt and nxt[1] == "(":
                self.next()
                args = []
                if self.peek() and self.peek()[1] != ")":
                    args.append(self.parse_or())
                    while self.peek() and self.peek()[1] == ",":
                        self.next()
                        args.append(self.parse_or())
                self.expect(")")
                return Call(val.upper(), args)
            return Field(val)
        raise ValueError(f"ES|QL: unexpected token {val!r}")


def parse_expr(src: str):
    return _ExprParser(_tokenize(src)).parse()


def expr_fields(e, out: set[str]) -> set[str]:
    """Every field name an expression references (for column pruning)."""
    if isinstance(e, Field):
        out.add(e.name)
    elif isinstance(e, BinOp):
        expr_fields(e.left, out)
        expr_fields(e.right, out)
    elif isinstance(e, Unary):
        expr_fields(e.operand, out)
    elif isinstance(e, Call):
        for a in e.args:
            expr_fields(a, out)
    return out


_CMP = {"==": pc.equal, "!=": pc.not_equal, ">": pc.greater,
        ">=": pc.greater_equal, "<": pc.less, "<=": pc.less_equal}
_ARITH = {"+": pc.add, "-": pc.subtract, "*": pc.multiply,
          "/": pc.divide}


def _ipv4_to_int(col) -> pa.Array:
    """Dotted-quad strings -> packed int64 (one split + four casts,
    vectorized). Strict: malformed octets raise (derived corpora are
    well-formed; ES returns null there — documented deviation)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    parts = pc.split_pattern(col, ".")
    out = None
    for i in range(4):
        o = pc.cast(pc.list_element(parts, i), pa.int64())
        o = pc.multiply(o, pa.scalar(1 << (8 * (3 - i)), pa.int64()))
        out = o if out is None else pc.add(out, o)
    return out


def _nice_bucket_width(lo: float, hi: float, target: int) -> float:
    """Smallest {1,2,5}x10^k width that fits [lo, hi] in <= target
    buckets (the BUCKET function's deterministic nice-width rule)."""
    import math

    span = max(hi - lo, 1e-12)
    k = math.floor(math.log10(span / max(target, 1)))
    for exp in range(k, k + 6):
        for m in (1.0, 2.0, 5.0):
            w = m * 10.0 ** exp
            if math.ceil(span / w) <= target:
                return w
    return span


def _mv_reduce(col, how: str):
    """Per-list reduction over a list column (the ES|QL MV_* family):
    one flatten + one numpy ``reduceat`` — no Python per row. Null or
    empty multivalues yield null (the ES contract)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ln = pc.fill_null(pc.list_value_length(col), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    flat = col.flatten().to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    valid = ln > 0
    out = np.zeros(len(ln), dtype=np.float64)
    if flat.size and valid.any():
        starts = np.concatenate(([0], np.cumsum(ln)[:-1]))
        fn = {"sum": np.add, "min": np.minimum,
              "max": np.maximum}[how if how != "avg" else "sum"]
        # empty rows contribute no elements, so passing only the valid
        # rows' starts keeps reduceat segment boundaries correct
        out[valid] = fn.reduceat(flat, starts[valid])
        if how == "avg":
            out[valid] = out[valid] / ln[valid]
    return pa.array(out, mask=~valid)


def _arr(v, n: int):
    """Broadcast a pa.Scalar to a length-n array (variadic string/
    conditional kernels want equal-length inputs)."""
    if isinstance(v, pa.Scalar):
        return pa.array([v.as_py()] * n,
                        type=v.type if v.type != pa.null() else None)
    return v


# the Java date-pattern fields DATE_FORMAT / DATE_PARSE support, with
# their strftime/strptime equivalents
_DATE_FIELDS = {"yyyy": "%Y", "MM": "%m", "dd": "%d", "HH": "%H",
                "mm": "%M", "ss": "%S"}
_DATE_TOKEN_RE = re.compile(r"yyyy|MM|dd|HH|mm|ss|.", re.S)


def _strftime_pattern(pat: str) -> str:
    """Translate a Java date pattern to strftime in one left-to-right
    longest-match scan. Non-letters are literals; an ASCII letter
    outside ``yyyy MM dd HH mm ss`` raises ValueError."""
    out = []
    for tok in _DATE_TOKEN_RE.findall(pat):
        if tok in _DATE_FIELDS:
            out.append(_DATE_FIELDS[tok])
        elif tok.isascii() and tok.isalpha():
            raise ValueError(
                f"ES|QL: unsupported date pattern letter {tok!r} in "
                f"{pat!r} (supported: yyyy MM dd HH mm ss)")
        else:
            out.append("%%" if tok == "%" else tok)
    return "".join(out)


def eval_expr(e, t: pa.Table):
    """Evaluate an expression AST against a batch — pyarrow.compute
    kernels only, no per-row Python."""
    if isinstance(e, Lit):
        return pa.scalar(e.value)
    if isinstance(e, Field):
        col = t[e.name]
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
    if isinstance(e, Unary):
        v = eval_expr(e.operand, t)
        if e.op == "is_null":
            return pc.is_null(v)
        return pc.invert(v) if e.op == "not" else pc.negate(v)
    if isinstance(e, Call):
        if e.fn in ("V_COSINE", "V_DOT_PRODUCT", "V_L1_NORM",
                    "V_L2_NORM"):
            # 9.x vector similarity functions (tech preview):
            # field x array-literal, one float64 matmul / reduction
            # per batch (the ann/knn.py kernel convention — float64
            # before any multiply, so the SQL DOUBLE oracles agree)
            if len(e.args) != 2 or not isinstance(e.args[0], Field) \
                    or not isinstance(e.args[1], Lit) \
                    or not isinstance(e.args[1].value, list):
                raise ValueError(
                    f"ES|QL: {e.fn}(field, [numbers...]) expected")
            col = t[e.args[0].name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            q = np.asarray(e.args[1].value, dtype=np.float64)
            n = len(col)
            flat = col.flatten().to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            if n and flat.size != n * q.size:
                raise ValueError(
                    f"ES|QL: {e.fn} dimension mismatch "
                    f"({flat.size} values over {n} rows vs "
                    f"query dim {q.size}; null/ragged vectors are "
                    "unsupported)")
            mat = flat.reshape(n, q.size) if n else \
                flat.reshape(0, q.size)
            if e.fn == "V_DOT_PRODUCT":
                out = mat @ q
            elif e.fn == "V_COSINE":
                dot = mat @ q
                norms = np.sqrt((mat * mat).sum(axis=1)) \
                    * np.sqrt((q * q).sum())
                with np.errstate(invalid="ignore", divide="ignore"):
                    out = dot / norms
                out = np.nan_to_num(out, nan=0.0)
            elif e.fn == "V_L1_NORM":
                out = np.abs(mat - q).sum(axis=1)
            else:  # V_L2_NORM
                d = mat - q
                out = np.sqrt((d * d).sum(axis=1))
            return pa.array(out, pa.float64())
        args = [eval_expr(a, t) for a in e.args]
        if e.fn == "ROUND":
            nd = args[1].as_py() if len(args) > 1 else 0
            # ES (and the DuckDB oracles) round half AWAY FROM ZERO;
            # pyarrow's default is banker's half-to-even
            return pc.round(args[0], ndigits=int(nd),
                            round_mode="half_towards_infinity")
        if e.fn == "ABS":
            return pc.abs(args[0])
        if e.fn == "LENGTH":
            return pc.utf8_length(args[0])
        if e.fn == "TO_LOWER":
            return pc.utf8_lower(args[0])
        if e.fn == "TO_UPPER":
            return pc.utf8_upper(args[0])
        if e.fn == "TO_LONG":
            return pc.cast(args[0], pa.int64())
        if e.fn == "TO_DOUBLE":
            return pc.cast(args[0], pa.float64())
        if e.fn == "TO_STRING":
            return pc.cast(args[0], pa.string())
        if e.fn == "TO_INTEGER":
            # int64-backed like TO_LONG (documented: no 32-bit
            # narrowing in the mini-dialect)
            return pc.cast(args[0], pa.int64())
        if e.fn == "SUBSTRING":
            # ES 1-based; negative start counts from the end; optional
            # length. start/length must be literals (the common query
            # shape; per-row offsets would need a take-based kernel).
            def _lit_int(node) -> int:
                if isinstance(node, Lit):
                    return int(node.value)
                if isinstance(node, Unary) and node.op == "neg" \
                        and isinstance(node.operand, Lit):
                    return -int(node.operand.value)
                raise ValueError(
                    "ES|QL: SUBSTRING start/length must be literals")

            start = _lit_int(e.args[1])
            begin = start - 1 if start > 0 else start
            if len(e.args) > 2:
                ln = _lit_int(e.args[2])
                stop = begin + ln
                if start < 0 and stop >= 0:
                    stop = None  # negative start + long len → to end
                return pc.utf8_slice_codeunits(args[0], begin,
                                               stop=stop)
            return pc.utf8_slice_codeunits(args[0], begin)
        if e.fn == "CONCAT":
            n = len(t)
            return pc.binary_join_element_wise(
                *[pc.cast(_arr(a, n), pa.string()) for a in args], "")
        if e.fn == "TRIM":
            return pc.utf8_trim_whitespace(args[0])
        if e.fn == "LTRIM":
            return pc.utf8_ltrim_whitespace(args[0])
        if e.fn == "RTRIM":
            return pc.utf8_rtrim_whitespace(args[0])
        if e.fn == "LEFT":
            n_ = int(e.args[1].value) if isinstance(e.args[1], Lit) \
                else None
            if n_ is None or n_ < 0:
                raise ValueError(
                    "ES|QL: LEFT length must be a non-negative literal")
            return pc.utf8_slice_codeunits(args[0], start=0, stop=n_)
        if e.fn == "RIGHT":
            n_ = int(e.args[1].value) if isinstance(e.args[1], Lit) \
                else None
            if n_ is None or n_ < 0:
                raise ValueError(
                    "ES|QL: RIGHT length must be a non-negative "
                    "literal")
            if n_ == 0:
                return pc.utf8_slice_codeunits(args[0], start=0,
                                               stop=0)
            # negative start counts from the end; short strings
            # return whole (python slice semantics — matches ES)
            return pc.utf8_slice_codeunits(args[0], start=-n_)
        if e.fn == "REPLACE":
            # ES REPLACE(s, regex, new) is regex-based
            if not isinstance(e.args[1], Lit) \
                    or not isinstance(e.args[2], Lit):
                raise ValueError(
                    "ES|QL: REPLACE pattern/replacement must be "
                    "literals")
            return pc.replace_substring_regex(
                args[0], pattern=e.args[1].value,
                replacement=e.args[2].value)
        if e.fn == "REVERSE":
            return pc.utf8_reverse(args[0])
        if e.fn == "SPLIT":
            if not isinstance(e.args[1], Lit):
                raise ValueError(
                    "ES|QL: SPLIT delimiter must be a literal")
            return pc.split_pattern(args[0],
                                    pattern=e.args[1].value)
        if e.fn == "LOCATE":
            # ES LOCATE(s, substr): 1-based position, 0 when absent —
            # find_substring's -1 maps to 0 under the +1
            if not isinstance(e.args[1], Lit):
                raise ValueError(
                    "ES|QL: LOCATE substring must be a literal")
            return pc.cast(pc.add(pc.find_substring(
                args[0], pattern=e.args[1].value), 1), pa.int64())
        if e.fn == "REPEAT":
            if not isinstance(e.args[1], Lit):
                raise ValueError(
                    "ES|QL: REPEAT count must be a literal")
            return pc.binary_repeat(args[0], int(e.args[1].value))
        if e.fn == "SPACE":
            if not isinstance(e.args[0], Lit):
                raise ValueError("ES|QL: SPACE count must be a literal")
            return pa.array([" " * int(e.args[0].value)] * len(t),
                            pa.string())
        if e.fn in ("BIT_LENGTH", "BYTE_LENGTH"):
            # UTF-8 byte semantics (ES 8.11): binary_length counts
            # bytes, not codepoints
            nb = pc.cast(pc.binary_length(pc.cast(args[0], pa.string())),
                         pa.int64())
            return (pc.multiply(nb, pa.scalar(8, pa.int64()))
                    if e.fn == "BIT_LENGTH" else nb)
        if e.fn in ("MD5", "SHA1", "SHA256", "TO_BASE64",
                    "FROM_BASE64"):
            # per-UNIQUE-value Python transform gathered by dictionary
            # code — the winnowing md5 convention: hash cost drops by
            # the duplication factor, the gather is vectorized, and
            # null rows pass through the null index
            import base64
            import hashlib

            col = pc.cast(args[0], pa.string())
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            enc = col.dictionary_encode()
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            vals = enc.dictionary.to_pylist()
            if e.fn == "TO_BASE64":
                uniq = [base64.b64encode(s.encode()).decode("ascii")
                        for s in vals]
            elif e.fn == "FROM_BASE64":
                uniq = [base64.b64decode(s).decode("utf-8")
                        for s in vals]
            else:
                algo = e.fn.lower()
                uniq = [hashlib.new(algo, s.encode()).hexdigest()
                        for s in vals]
            return pa.array(uniq, pa.string()).take(enc.indices)
        if e.fn == "STARTS_WITH":
            if not isinstance(e.args[1], Lit):
                raise ValueError("ES|QL: STARTS_WITH prefix must be "
                                 "a literal")
            return pc.starts_with(args[0], pattern=e.args[1].value)
        if e.fn == "ENDS_WITH":
            if not isinstance(e.args[1], Lit):
                raise ValueError("ES|QL: ENDS_WITH suffix must be "
                                 "a literal")
            return pc.ends_with(args[0], pattern=e.args[1].value)
        if e.fn == "COALESCE":
            return pc.coalesce(*args)
        if e.fn == "FLOOR":
            return pc.floor(args[0])
        if e.fn == "CEIL":
            return pc.ceil(args[0])
        if e.fn == "SQRT":
            return pc.sqrt(args[0])
        if e.fn == "POW":
            return pc.power(args[0], args[1])
        if e.fn == "LOG10":
            return pc.log10(args[0])
        if e.fn in ("E", "PI", "TAU"):
            import math

            return pa.scalar({"E": math.e, "PI": math.pi,
                              "TAU": math.tau}[e.fn], pa.float64())
        if e.fn == "EXP":
            return pc.exp(args[0])
        if e.fn == "LOG":
            # LOG(x) = natural log; LOG(base, x) = log_base(x)
            if len(args) == 2:
                return pc.divide(pc.ln(args[1]), pc.ln(args[0]))
            return pc.ln(args[0])
        if e.fn in ("SIN", "COS", "TAN", "ATAN", "SIGNUM"):
            return {"SIN": pc.sin, "COS": pc.cos, "TAN": pc.tan,
                    "ATAN": pc.atan,
                    "SIGNUM": pc.sign}[e.fn](args[0])
        if e.fn == "DATE_FORMAT":
            # DATE_FORMAT("yyyy-MM-dd HH:mm:ss", ts) — the Java-style
            # pattern subset translated to strftime, one vectorized
            # strftime per batch
            if not isinstance(e.args[0], Lit):
                raise ValueError(
                    "ES|QL: DATE_FORMAT pattern must be a literal")
            pat = _strftime_pattern(e.args[0].value)
            # arrow's %S prints fractional seconds; floor to second
            # precision so "ss" means the strftime two-digit field
            v = args[1]
            if "%S" in pat:
                v = pc.floor_temporal(v, unit="second")
                v = v.cast(pa.timestamp("s")) if hasattr(v, "cast") \
                    else pc.cast(v, pa.timestamp("s"))
            return pc.strftime(v, format=pat)
        if e.fn == "DATE_EXTRACT":
            if not isinstance(e.args[0], Lit):
                raise ValueError(
                    "ES|QL: DATE_EXTRACT part must be a literal")
            part = e.args[0].value.lower()
            fns = {"year": pc.year, "month": pc.month,
                   "day": pc.day, "hour": pc.hour,
                   "minute": pc.minute, "second": pc.second,
                   "day_of_week": pc.day_of_week}
            if part not in fns:
                raise ValueError(
                    f"ES|QL: DATE_EXTRACT part {part!r} not in "
                    f"{sorted(fns)}")
            return pc.cast(fns[part](args[1]), pa.int64())
        if e.fn == "DATE_DIFF":
            # DATE_DIFF("unit", start, end) — the difference
            # end - start in COMPLETE multiples of the unit, truncated
            # toward zero (the ES|QL 8.13 / java ChronoUnit.between
            # contract); aliases follow the ES unit table. Calendar
            # units (year/quarter/month) count complete calendar
            # months — (Δyear*12 + Δmonth), minus one when the end's
            # intra-month position (day + time) hasn't reached the
            # start's — then trunc-divide by 3 / 12.
            if not isinstance(e.args[0], Lit):
                raise ValueError(
                    "ES|QL: DATE_DIFF unit must be a literal")
            unit = str(e.args[0].value).lower()
            us = {"millisecond": 1_000, "ms": 1_000,
                  "second": 1_000_000, "s": 1_000_000,
                  "minute": 60_000_000, "m": 60_000_000,
                  "hour": 3_600_000_000, "h": 3_600_000_000,
                  "day": 86_400_000_000, "d": 86_400_000_000,
                  "week": 604_800_000_000, "w": 604_800_000_000}
            cal = {"month": 1, "mo": 1, "quarter": 3, "qq": 3,
                   "year": 12, "yy": 12, "yyyy": 12}
            if unit in us:
                a = pc.cast(pc.cast(args[1], pa.timestamp("us")),
                            pa.int64())
                b = pc.cast(pc.cast(args[2], pa.timestamp("us")),
                            pa.int64())
                d = pc.subtract(b, a)
                # integer division truncating toward ZERO (Arrow's
                # divide on int64 truncates toward zero, matching ES)
                return pc.divide(d, pa.scalar(us[unit], pa.int64()))
            if unit not in cal:
                raise ValueError(
                    f"ES|QL: DATE_DIFF unit {unit!r} not in "
                    f"{sorted(set(us) | set(cal))}")

            def _ym_pos(ts):
                ts = pc.cast(ts, pa.timestamp("us"))
                ym = pc.add(pc.multiply(pc.cast(pc.year(ts), pa.int64()),
                                        pa.scalar(12, pa.int64())),
                            pc.cast(pc.month(ts), pa.int64()))
                # intra-month position packed to one int64:
                # (((day*24+h)*60+m)*60+s)*1e6 + us  (< 2.7e12)
                pos = pc.cast(pc.day(ts), pa.int64())
                for f, mul in ((pc.hour, 24), (pc.minute, 60),
                               (pc.second, 60)):
                    pos = pc.add(pc.multiply(pos, pa.scalar(
                        mul, pa.int64())), pc.cast(f(ts), pa.int64()))
                pos = pc.add(pc.multiply(pos, pa.scalar(
                    1_000_000, pa.int64())),
                    pc.cast(pc.microsecond(ts), pa.int64()))
                return ym, pos
            ym1, p1 = _ym_pos(args[1])
            ym2, p2 = _ym_pos(args[2])
            months = pc.subtract(ym2, ym1)
            one = pa.scalar(1, pa.int64())
            months = pc.if_else(
                pc.and_(pc.greater(months, pa.scalar(0, pa.int64())),
                        pc.less(p2, p1)),
                pc.subtract(months, one), months)
            months = pc.if_else(
                pc.and_(pc.less(months, pa.scalar(0, pa.int64())),
                        pc.greater(p2, p1)),
                pc.add(months, one), months)
            return pc.divide(months, pa.scalar(cal[unit], pa.int64()))
        if e.fn == "DATE_PARSE":
            # DATE_PARSE("yyyy-MM-dd...", str) — the same Java-pattern
            # subset as DATE_FORMAT, translated to strptime; one
            # vectorized strptime per batch
            if not isinstance(e.args[0], Lit):
                raise ValueError(
                    "ES|QL: DATE_PARSE pattern must be a literal")
            return pc.strptime(args[1],
                               format=_strftime_pattern(e.args[0].value),
                               unit="us",
                               error_is_null=True)
        if e.fn in ("GREATEST", "LEAST"):
            # variadic elementwise max/min, null-intolerant (the ES|QL
            # scalar-function convention: null in -> null out), so the
            # SQL mirror is greatest/least wrapped in a null guard
            arrs = [_arr(a, len(t)) for a in args]
            fn = (pc.max_element_wise if e.fn == "GREATEST"
                  else pc.min_element_wise)
            out = fn(*arrs, skip_nulls=False)
            return out
        if e.fn == "CATEGORIZE":
            # ES|QL 9.x CATEGORIZE(message) — the log-pattern grouping
            # key. ES's ML categorizer is replaced by the DETERMINISTIC
            # classic template heuristic (documented spec, exactly
            # SQL-mirrorable): every whitespace token containing a
            # digit becomes "*" (ids, counts, IPs, timestamps), runs
            # of "*" and whitespace collapse, result is trimmed —
            # the constant-token skeleton that groups "connection 42
            # from 10.0.0.7" with "connection 17 from 10.9.3.1".
            # Three RE2 passes, fully vectorized.
            v = pc.cast(args[0], pa.string())
            v = pc.replace_substring_regex(v, pattern=r"\S*\d\S*",
                                           replacement="*")
            v = pc.replace_substring_regex(
                v, pattern=r"\*(?:\s+\*)+", replacement="*")
            v = pc.replace_substring_regex(v, pattern=r"\s+",
                                           replacement=" ")
            return pc.utf8_trim_whitespace(v)
        if e.fn in ("CIDR_MATCH", "IP_PREFIX"):
            # ES|QL IPv4 functions over dotted-quad strings: pack the
            # octets to one int64 per row (vectorized split + cast),
            # then mask arithmetic. CIDR_MATCH(ip, "net/len", ...) ORs
            # the literal CIDRs; IP_PREFIX(ip, v4_len, v6_len) renders
            # the masked network address (IPv6 unsupported — dotted
            # quads only, documented).
            ip32 = _ipv4_to_int(args[0])
            if e.fn == "CIDR_MATCH":
                if len(e.args) < 2 or not all(
                        isinstance(a, Lit) for a in e.args[1:]):
                    raise ValueError(
                        "ES|QL: CIDR_MATCH(ip, \"net/len\", ...) "
                        "with literal CIDRs")
                acc = None
                for a in e.args[1:]:
                    net_s, _, ln_s = str(a.value).partition("/")
                    ln = int(ln_s) if ln_s else 32
                    if not 0 <= ln <= 32:
                        raise ValueError(
                            f"ES|QL: bad CIDR length {ln}")
                    net = sum(int(o) << (8 * (3 - i)) for i, o in
                              enumerate(net_s.split(".")))
                    mask = ((1 << 32) - 1) ^ ((1 << (32 - ln)) - 1)
                    hit = pc.equal(
                        pc.bit_wise_and(ip32,
                                        pa.scalar(mask, pa.int64())),
                        pa.scalar(net & mask, pa.int64()))
                    acc = hit if acc is None else pc.or_(acc, hit)
                return acc
            if not isinstance(e.args[1], Lit):
                raise ValueError(
                    "ES|QL: IP_PREFIX lengths must be literals")
            ln = int(e.args[1].value)
            mask = ((1 << 32) - 1) ^ ((1 << (32 - ln)) - 1)
            m = pc.bit_wise_and(ip32, pa.scalar(mask, pa.int64()))
            octs = [pc.cast(pc.bit_wise_and(
                pc.shift_right(m, pa.scalar(8 * (3 - i), pa.int64())),
                pa.scalar(255, pa.int64())), pa.string())
                for i in range(4)]
            return pc.binary_join_element_wise(*octs, ".")
        if e.fn == "BUCKET":
            # ES|QL 8.13 BUCKET (numeric form): BUCKET(x, buckets,
            # min, max) — values floor to multiples of a "nice" width
            # ({1,2,5}x10^k), the SMALLEST such width that fits the
            # [min,max] range in <= buckets buckets (deterministic,
            # SQL-mirrorable). The datetime span form (BUCKET(ts,
            # 1 day)) is served by DATE_TRUNC — the tokenizer carries
            # no time-span literals (documented deviation).
            if len(e.args) != 4 or not all(
                    isinstance(a, Lit) for a in e.args[1:]):
                raise ValueError(
                    "ES|QL mini-dialect: BUCKET(field, buckets, min,"
                    " max) with literal bounds")
            nb = int(e.args[1].value)
            lo, hi = float(e.args[2].value), float(e.args[3].value)
            width = _nice_bucket_width(lo, hi, nb)
            v = pc.cast(args[0], pa.float64())
            return pc.multiply(
                pc.floor(pc.divide(v, pa.scalar(width, pa.float64()))),
                pa.scalar(width, pa.float64()))
        if e.fn == "DATE_TRUNC":
            # mini-dialect form: DATE_TRUNC("day", ts) — a string unit
            # instead of ES|QL's time-span literal (1 day), which the
            # tokenizer doesn't carry
            if not isinstance(e.args[0], Lit):
                raise ValueError('ES|QL: DATE_TRUNC unit must be a '
                                 'quoted literal, e.g. "day"')
            return pc.floor_temporal(args[1], unit=e.args[0].value)
        if e.fn == "MATCH":
            # ES|QL 8.17+ full-text MATCH(field, "query"): TRUE when
            # the field's ANALYZED token stream (the real code-aware
            # tokenizer — camel split, lowercase, truncation) hits any
            # query term. One vectorized tokenize + is_in + scatter
            # per batch; no index needed (a streaming-scan match, the
            # ES runtime-field analog — indexed BM25 lives in
            # query/shards.py).
            if not isinstance(e.args[1], Lit):
                raise ValueError(
                    "ES|QL: MATCH query must be a quoted literal")
            from ..analysis.tokenizer import (rows_with_any,
                                              tokenize_batch_arrow,
                                              tokenize_py)

            terms = sorted(set(tokenize_py(e.args[1].value, 64)))
            col = args[0]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            row_idx, toks, _dl = tokenize_batch_arrow(col, 64)
            return pa.array(rows_with_any(row_idx, toks, terms, len(col)))
        if e.fn == "MV_COUNT":
            col = args[0]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            return pc.cast(pc.list_value_length(col), pa.int64())
        if e.fn in ("MV_SUM", "MV_MIN", "MV_MAX", "MV_AVG"):
            return _mv_reduce(args[0], e.fn[3:].lower())
        if e.fn == "MV_MEDIAN":
            # ES contract: middle value; even-length lists average the
            # two middle values, rounded toward -inf for integer
            # inputs. Flatten + drop inner nulls + one lexsort — no
            # Python per row.
            col = args[0]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            ln = pc.fill_null(pc.list_value_length(col), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            flat = col.flatten()
            parent = np.repeat(np.arange(len(col), dtype=np.int64), ln)
            fvalid = pc.is_valid(flat).to_numpy(zero_copy_only=False)
            if not fvalid.all():
                flat = flat.filter(pa.array(fvalid))
                parent = parent[fvalid]
            is_int = pa.types.is_integer(flat.type)
            fv = flat.to_numpy(zero_copy_only=False).astype(np.float64)
            order = np.lexsort((fv, parent))
            sp, sv = parent[order], fv[order]
            cnt = np.bincount(sp, minlength=len(col))
            starts = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            valid = cnt > 0
            out = np.zeros(len(col), dtype=np.float64)
            lo = starts + (cnt - 1) // 2
            hi = starts + cnt // 2
            safe = np.where(valid, lo, 0), np.where(valid, hi, 0)
            out[valid] = ((sv[safe[0]] + sv[safe[1]]) / 2.0)[valid]
            if is_int:
                return pa.array(np.floor(out).astype(np.int64),
                                mask=~valid)
            return pa.array(out, mask=~valid)
        if e.fn == "MV_APPEND":
            # concatenate two list columns per row (ES 8.15); null in
            # either input -> null row (the scalar convention)
            a, b = args[0], args[1]
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            if isinstance(b, pa.ChunkedArray):
                b = b.combine_chunks()
            la = pc.fill_null(pc.list_value_length(a), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            lb = pc.fill_null(pc.list_value_length(b), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            fa, fb = a.flatten(), b.flatten()
            flat = pa.concat_arrays([fa, fb.cast(fa.type)])

            def _ranges(dst0, src0, lens):
                r = np.arange(int(lens.sum()), dtype=np.int64) \
                    - np.repeat(np.cumsum(lens) - lens, lens)
                return (np.repeat(dst0, lens) + r,
                        np.repeat(src0, lens) + r)

            total = la + lb
            out_off = np.zeros(len(la) + 1, dtype=np.int64)
            np.cumsum(total, out=out_off[1:])
            sa = np.concatenate(([0], np.cumsum(la)[:-1]))
            sb = np.concatenate(([0], np.cumsum(lb)[:-1]))
            idx = np.empty(int(total.sum()), dtype=np.int64)
            d, s = _ranges(out_off[:-1], sa, la)
            idx[d] = s
            d, s = _ranges(out_off[:-1] + la, sb, lb)
            idx[d] = s + len(fa)
            out = pa.ListArray.from_arrays(
                pa.array(out_off, pa.int32()).cast(pa.int32()),
                flat.take(pa.array(idx)))
            nullmask = pc.or_(pc.is_null(a), pc.is_null(b))
            if pc.any(nullmask).as_py():
                out = pc.if_else(nullmask,
                                 pa.scalar(None, type=out.type), out)
            return out
        if e.fn in ("MV_FIRST", "MV_LAST"):
            col = args[0]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            ln = pc.fill_null(pc.list_value_length(col), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            valid = ln > 0
            flat = col.flatten()
            if len(flat) == 0:
                return pa.nulls(len(col), type=flat.type)
            starts = np.concatenate(([0], np.cumsum(ln)[:-1]))
            idx = starts + (ln - 1 if e.fn == "MV_LAST" else 0)
            vals = flat.take(pa.array(np.where(valid, idx, 0)))
            return pc.if_else(pa.array(valid), vals,
                              pa.scalar(None, type=flat.type))
        if e.fn == "MV_SLICE":
            # MV_SLICE(list, start[, end]) — END-INCLUSIVE like ES
            if not all(isinstance(a, Lit) for a in e.args[1:]):
                raise ValueError(
                    "ES|QL: MV_SLICE bounds must be literals")
            start = int(e.args[1].value)
            stop = (int(e.args[2].value) + 1 if len(e.args) > 2
                    else None)
            if start < 0 or (stop is not None and stop <= start):
                raise ValueError("ES|QL: bad MV_SLICE bounds")
            col = args[0]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            return pc.list_slice(col, start, stop)
        if e.fn in ("MV_SORT", "MV_DEDUPE"):
            # per-row list sort / dedupe: flatten once, np.lexsort by
            # (parent, value), rebuild offsets — no Python per row.
            # MV_DEDUPE keeps ES's semantics (result is also sorted).
            col = args[0]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            ln = pc.fill_null(pc.list_value_length(col), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            flat = col.flatten()
            if len(flat) == 0:
                return col
            parent = np.repeat(np.arange(len(col), dtype=np.int64),
                               ln)
            # drop element-level (inner) nulls before the lexsort: a
            # None in a string list makes the object-array compare
            # raise, and float-null→NaN ordering silently diverges
            # from ES null semantics (MV_SORT/MV_DEDUPE drop nulls)
            fvalid = pc.is_valid(flat).to_numpy(zero_copy_only=False)
            if not fvalid.all():
                flat = flat.filter(pa.array(fvalid))
                parent = parent[fvalid]
            fv = flat.to_numpy(zero_copy_only=False)
            order = np.lexsort((fv, parent))
            sp, sv = parent[order], fv[order]
            if e.fn == "MV_DEDUPE":
                keep = np.r_[True, (sp[1:] != sp[:-1])
                             | (sv[1:] != sv[:-1])]
                order, sp = order[keep], sp[keep]
            counts = np.bincount(sp, minlength=len(col))
            offs = np.zeros(len(col) + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            values = flat.take(pa.array(order))
            out = pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()).cast(pa.int32()), values)
            # null rows stay null (offsets collapsed them to empty)
            nullmask = pc.is_null(col)
            if pc.any(nullmask).as_py():
                out = pc.if_else(nullmask,
                                 pa.scalar(None, type=out.type), out)
            return out
        if e.fn == "CASE":
            # CASE(c1, v1, c2, v2, ..., [default]) — ES|QL variadic;
            # nested if_else built back-to-front, null default
            n = len(t)
            if len(args) % 2 == 1:
                out = _arr(args[-1], n)
                pairs = args[:-1]
            else:
                out, pairs = None, args
            for cond, val in zip(pairs[-2::-2], pairs[-1::-2]):
                val = _arr(val, n)
                if out is None:
                    out = pc.if_else(cond, val,
                                     pa.nulls(n, type=val.type))
                else:
                    out = pc.if_else(cond, val, out)
            return out
        raise ValueError(f"ES|QL: unknown function {e.fn}")
    if isinstance(e, BinOp):
        if e.op in ("like", "rlike", "in"):
            lv = eval_expr(e.left, t)
            if e.op == "in":
                return pc.is_in(lv, value_set=pa.array(e.right.value))
            pat = e.right.value
            if e.op == "like":  # * / ? wildcards, whole-string match
                pat = re.escape(pat).replace(r"\*", ".*") \
                    .replace(r"\?", ".")
            return pc.match_substring_regex(lv, f"^(?:{pat})$")
        lv, rv = eval_expr(e.left, t), eval_expr(e.right, t)
        if e.op == "and":
            return pc.and_(lv, rv)
        if e.op == "or":
            return pc.or_(lv, rv)
        if e.op in _CMP:
            return _CMP[e.op](lv, rv)
        if e.op == "%":
            # arrow has no elementwise modulo kernel; numpy round-trip
            a = np.asarray(lv)
            b = np.asarray(rv) if not isinstance(rv, pa.Scalar) \
                else rv.as_py()
            return pa.array(a % b)
        return _ARITH[e.op](lv, rv)
    raise TypeError(f"ES|QL: bad node {e!r}")


# -- pipeline commands ------------------------------------------------------

@dataclass
class From:
    table: str


@dataclass
class Where:
    cond: object


@dataclass
class Eval:
    assigns: list  # [(name, expr)]


@dataclass
class Stats:
    aggs: list  # [(name, fn, expr_or_None)]
    by: list


@dataclass
class Sort:
    keys: list  # [(name, ascending)]


@dataclass
class Limit:
    n: int


@dataclass
class Keep:
    cols: list


@dataclass
class Drop:
    cols: list


@dataclass
class Dissect:
    field: str
    pattern: str  # original %{name} pattern
    regex: str    # compiled RE2 with named groups
    names: list


@dataclass
class Enrich:
    table: str
    on: str
    with_cols: list
    ref: object = None  # ray.put broadcast side (see execute_esql)
    multi: bool = False  # LOOKUP JOIN: one output row PER match
    #   (ES 8.18 contract); ENRICH stays single-match (first row)


@dataclass
class Rename:
    pairs: list  # [(old, new)]


@dataclass
class Sample:
    field: str
    k: int  # keep rows where field % k == 0 (p = 1/k)


@dataclass
class Row:
    assigns: list  # [(name, expr)] — evaluated against a 1-row table


@dataclass
class Show:
    pass


@dataclass
class MvExpand:
    field: str


@dataclass
class InlineStats:
    """INLINESTATS (ES|QL 8.x tech preview / 9.x): STATS that joins
    its per-group results BACK onto the stream instead of replacing
    it — every original column survives and the aggregate columns are
    appended per row (a broadcast join-back on the BY keys)."""
    aggs: list  # [(name, fn, expr_or_None)]
    by: list


@dataclass
class ChangePoint:
    """CHANGE_POINT (ES|QL 9.x): detect a step change in ``value``
    over rows ordered by ``on``, appending ``type_col`` /
    ``pvalue_col`` columns that are non-null only on the change row.
    Mini-dialect determinism deviation (documented): instead of an
    ML p-value, ``pvalue_col`` carries the (rounded) SSE-split gain
    g(k) = SL^2/k + SR^2/(n-k) at the argmax split — the identical
    deterministic statistic the ``change_point`` registry entry and
    its SQL oracle use. Input must be bucket-bounded (ES caps the
    command at 1000 values; it runs after STATS)."""
    value: str
    on: str
    type_col: str
    pvalue_col: str


@dataclass
class Fork:
    """FORK (ES|QL 9.1): run each parenthesized branch sub-pipeline
    over the current stream, union the results with a ``_fork``
    discriminator column (fork1, fork2, ...); missing columns are
    null-filled across branches."""
    branches: list  # [list[command]]


@dataclass
class Grok:
    field: str
    pattern: str  # original %{SYNTAX:name[:type]} grok pattern
    regex: str    # compiled RE2 with named groups
    names: list
    types: dict   # name -> "int" | "float" | None


# grok's built-in pattern library, the subset that covers log-shaped
# text without PCRE-only constructs (RE2 has no backrefs/atomic groups).
# ES|QL GROK == Logstash grok: literal segments ARE regex (unlike
# DISSECT, where they're literal), %{SYNTAX:name:type} converts.
_GROK_PATTERNS = {
    "WORD": r"\b\w+\b",
    "NOTSPACE": r"\S+",
    "SPACE": r"\s*",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "POSINT": r"\b[1-9]\d*\b",
    "INT": r"[+-]?\d+",
    "BASE10NUM": r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)",
    "NUMBER": r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)",
    "USERNAME": r"[a-zA-Z0-9._-]+",
    "USER": r"[a-zA-Z0-9._-]+",
    "IPV4": r"(?:\d{1,3}\.){3}\d{1,3}",
    "IP": r"(?:\d{1,3}\.){3}\d{1,3}",
    "HOSTNAME": r"\b(?:[0-9A-Za-z][0-9A-Za-z-]{0,62})"
                r"(?:\.[0-9A-Za-z][0-9A-Za-z-]{0,62})*\.?\b",
    "UUID": r"[A-Fa-f0-9]{8}-(?:[A-Fa-f0-9]{4}-){3}[A-Fa-f0-9]{12}",
    "LOGLEVEL": r"(?:DEBUG|INFO|NOTICE|WARN(?:ING)?|ERROR"
                r"|CRIT(?:ICAL)?|FATAL|SEVERE|EMERG(?:ENCY)?)",
    "TIMESTAMP_ISO8601": r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}"
                         r"(?::\d{2}(?:\.\d+)?)?(?:Z|[+-]\d{2}:?\d{2})?",
}

_GROK_KEY_RE = re.compile(r"%\{(\w+)(?::(\w+))?(?::(\w+))?\}")


def compile_grok(pattern: str) -> tuple[str, list, dict]:
    """%{SYNTAX:name[:type]} grok pattern → (RE2 with named groups,
    capture names in order, name→type map). Unnamed %{SYNTAX} matches
    without capturing; literal segments pass through as regex (the
    grok rule — DISSECT is the literal-segment variant)."""
    names: list[str] = []
    types: dict[str, str] = {}
    out: list[str] = []
    pos = 0
    for m in _GROK_KEY_RE.finditer(pattern):
        out.append(pattern[pos:m.start()])
        pos = m.end()
        syntax, name, ty = m.group(1), m.group(2), m.group(3)
        if syntax not in _GROK_PATTERNS:
            raise ValueError(f"GROK: unknown pattern %{{{syntax}}}")
        body = _GROK_PATTERNS[syntax]
        if name:
            if ty and ty not in ("int", "float"):
                raise ValueError(f"GROK: unknown conversion :{ty}")
            names.append(name)
            if ty:
                types[name] = ty
            out.append(f"(?P<{name}>{body})")
        else:
            out.append(f"(?:{body})")
    out.append(pattern[pos:])
    if not names:
        raise ValueError("GROK: needs >=1 named %{SYNTAX:name} key")
    return "".join(out), names, types


_AGG_FNS = ("COUNT", "SUM", "MIN", "MAX", "AVG", "COUNT_DISTINCT",
            "MEDIAN_ABSOLUTE_DEVIATION", "MEDIAN", "PERCENTILE",
            "VALUES", "TOP", "WEIGHTED_AVG", "STD_DEV")
# aggregates Ray's builtin Aggregate set can't express — the whole
# STATS compiles to one groupby().map_groups group kernel instead
_KERNEL_FNS = {"MEDIAN", "MEDIAN_ABSOLUTE_DEVIATION",
               "PERCENTILE", "VALUES", "TOP"}


def _split_agg_where(s: str) -> tuple[str, str | None]:
    """Split an agg spec ``FN(args) WHERE cond`` at the first
    top-level `` WHERE `` (paren depth 0). Returns (fn_part, cond)."""
    depth = 0
    up = s.upper()
    i = 0
    while i < len(s):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
        elif depth == 0 and up.startswith(" WHERE ", i):
            return s[:i].strip(), s[i + 7:].strip()
        i += 1
    return s, None


def _split_top(s: str, sep: str = ",") -> list[str]:
    """Split on sep at paren depth 0 AND quote depth 0 (agg args may
    contain commas; string literals may contain anything)."""
    out, depth, cur, in_q, esc = [], 0, [], False, False
    for ch in s:
        if in_q:
            cur.append(ch)
            if esc:
                esc = False
            elif ch == "\\":
                esc = True
            elif ch == '"':
                in_q = False
            continue
        if ch == '"':
            in_q = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [p.strip() for p in out if p.strip()]


def _split_pipes(query: str) -> list[str]:
    """Split the pipeline on '|' at quote depth 0 AND paren depth 0 —
    a '|' inside a string literal (the normal RLIKE alternation, e.g.
    RLIKE "error|fatal") or inside a FORK branch's parentheses is part
    of the command, not a separator."""
    out, cur, in_q, esc, depth = [], [], False, False, 0
    for ch in query:
        if in_q:
            cur.append(ch)
            if esc:
                esc = False
            elif ch == "\\":
                esc = True
            elif ch == '"':
                in_q = False
            continue
        if ch == '"':
            in_q = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "|" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_esql(query: str) -> list:
    parts = [p.strip() for p in _split_pipes(query)]
    if not parts:
        raise ValueError("ES|QL: empty pipeline")
    head0 = parts[0].upper()
    cmds: list
    if head0.startswith("ROW"):
        # ROW a = 1, b = "x" — the literal one-row source (the second
        # of ES|QL's three source commands; SHOW INFO is the third)
        assigns = []
        for a in _split_top(parts[0][3:].strip()):
            name, eq, src = a.partition("=")
            if not eq:
                raise ValueError("ES|QL: ROW needs name = literal")
            node = parse_expr(src.strip())
            assigns.append((name.strip(), node))
        cmds = [Row(assigns)]
    elif head0.startswith("SHOW"):
        if parts[0][4:].strip().upper() != "INFO":
            raise ValueError("ES|QL: SHOW supports only SHOW INFO")
        cmds = [Show()]
    elif head0.startswith("FROM"):
        cmds = [From(parts[0][4:].strip())]
    else:
        raise ValueError(
            "ES|QL: pipeline must start with FROM, ROW or SHOW")
    for part in parts[1:]:
        cmds.extend(_parse_one(part))
    return cmds


def _parse_one(part: str) -> list:
    """Parse one non-source pipeline command into its command list
    (STATS/INLINESTATS may desugar into [Eval, Stats])."""
    cmds: list = []
    if True:  # preserve the historical chain indentation
        head, _, rest = part.partition(" ")
        head = head.upper()
        rest = rest.strip()
        if head == "WHERE":
            cmds.append(Where(parse_expr(rest)))
        elif head == "EVAL":
            assigns = []
            for a in _split_top(rest):
                name, _, src = a.partition("=")
                assigns.append((name.strip(), parse_expr(src.strip())))
            cmds.append(Eval(assigns))
        elif head in ("STATS", "INLINESTATS"):
            m = re.search(r"\bBY\b", rest, re.IGNORECASE)
            agg_src = rest[:m.start()] if m else rest
            by, by_assigns = [], []
            if m:
                for c in _split_top(rest[m.end():]):
                    # inline grouping-key sugar: BY day = DATE_TRUNC(…)
                    # desugars to an EVAL immediately before the STATS
                    name, eq, src_e = c.partition("=")
                    if eq and re.match(r"\w+$", name.strip()):
                        by_assigns.append((name.strip(),
                                           parse_expr(src_e.strip())))
                        by.append(name.strip())
                    else:
                        by.append(c)
            if by_assigns:
                cmds.append(Eval(by_assigns))
            aggs = []
            for a in _split_top(agg_src):
                name, _, src = a.partition("=")
                name, src = name.strip(), src.strip()
                # per-aggregate filter (ES|QL 8.16: `SUM(x) WHERE c`)
                # desugars onto CASE at parse time: the filtered rows
                # become nulls, which every aggregate already ignores
                # (COUNT(*) WHERE c becomes SUM(CASE(c, 1, 0)) so an
                # all-false group counts 0, not null)
                src, agg_cond = _split_agg_where(src)
                fm = re.match(r"([A-Za-z_]+)\((.*)\)$", src)
                if fm is None or fm.group(1).upper() not in _AGG_FNS:
                    raise ValueError(f"ES|QL: bad aggregate {src!r}")
                fn = fm.group(1).upper()
                arg = fm.group(2).strip()
                if fn == "COUNT" and arg not in ("*", ""):
                    raise ValueError(
                        "ES|QL mini-dialect: COUNT supports only "
                        "COUNT(*) (use COUNT_DISTINCT for values)")
                if fn != "COUNT" and arg in ("*", ""):
                    raise ValueError(
                        f"ES|QL: {fn} needs a field/expr")
                if fn == "WEIGHTED_AVG":
                    # WEIGHTED_AVG(value, weight): BOTH args are
                    # expressions (unlike PERCENTILE's literal extra);
                    # a per-agg WHERE nulls the value, which masks the
                    # weight through the shared null propagation
                    wa = _split_top(arg)
                    if len(wa) != 2:
                        raise ValueError(
                            "ES|QL: WEIGHTED_AVG(value, weight)")
                    v0 = parse_expr(wa[0])
                    if agg_cond is not None:
                        v0 = Call("CASE", [parse_expr(agg_cond), v0])
                    aggs.append((name, fn, (v0, parse_expr(wa[1]))))
                    continue
                if fn in ("PERCENTILE", "TOP"):
                    # multi-arg aggregates: PERCENTILE(x, p) /
                    # TOP(x, k, "asc"|"desc") — extras are literals,
                    # packed behind the main expression node
                    parts = _split_top(arg)
                    extras = []
                    for p_s in parts[1:]:
                        node = parse_expr(p_s)
                        if isinstance(node, Unary) \
                                and node.op == "neg" \
                                and isinstance(node.operand, Lit):
                            node = Lit(-node.operand.value)
                        if not isinstance(node, Lit):
                            raise ValueError(
                                f"ES|QL: {fn} extra args must be "
                                "literals")
                        extras.append(node.value)
                    expr = (parse_expr(parts[0]), *extras)
                elif arg in ("*", ""):
                    expr = None
                else:
                    expr = parse_expr(arg)
                if agg_cond is not None:
                    cond = parse_expr(agg_cond)
                    if fn == "COUNT":
                        fn = "SUM"
                        expr = Call("CASE", [cond, Lit(1), Lit(0)])
                    elif isinstance(expr, tuple):
                        expr = (Call("CASE", [cond, expr[0]]),
                                *expr[1:])
                    else:
                        expr = Call("CASE", [cond, expr])
                aggs.append((name, fn, expr))
            cmds.append(Stats(aggs, by) if head == "STATS"
                        else InlineStats(aggs, by))
        elif head == "SORT":
            keys = []
            for kspec in rest.split(","):
                toks = kspec.split()
                asc = not (len(toks) > 1
                           and toks[1].upper() == "DESC")
                keys.append((toks[0], asc))
            cmds.append(Sort(keys))
        elif head == "LIMIT":
            cmds.append(Limit(int(rest)))
        elif head == "KEEP":
            cmds.append(Keep([c.strip() for c in rest.split(",")]))
        elif head == "DROP":
            cmds.append(Drop([c.strip() for c in rest.split(",")]))
        elif head == "DISSECT":
            fld, _, pat = rest.partition(" ")
            pat = pat.strip()
            if len(pat) < 2 or pat[0] != '"' or pat[-1] != '"':
                raise ValueError("ES|QL: DISSECT pattern must be quoted")
            pat = pat[1:-1].replace('\\"', '"')
            pieces = re.split(r"%\{(\w+)\}", pat)
            names = pieces[1::2]
            if not names:
                raise ValueError("ES|QL: DISSECT needs >=1 %{name} key")
            rx_parts = []
            for j, piece in enumerate(pieces):
                if j % 2 == 0:
                    rx_parts.append(re.escape(piece))
                else:  # last key greedy, inner keys lazy (dissect rule)
                    greedy = ".*" if j == len(pieces) - 2 \
                        and pieces[-1] == "" else ".*?"
                    rx_parts.append(f"(?P<{piece}>{greedy})")
            cmds.append(Dissect(fld.strip(), pat, "".join(rx_parts),
                                names))
        elif head == "ENRICH":
            m = re.match(
                r"(\w+)\s+ON\s+(\w+)(?:\s+WITH\s+(.+))?$", rest,
                re.IGNORECASE)
            if m is None:
                raise ValueError(
                    "ES|QL: ENRICH syntax is ENRICH <table> ON <field>"
                    " [WITH col, ...]")
            with_cols = [c.strip() for c in
                         (m.group(3) or "").split(",") if c.strip()]
            cmds.append(Enrich(m.group(1), m.group(2), with_cols))
        elif head == "LOOKUP":
            # ES 8.18+ `LOOKUP JOIN <table> ON <field>`: left lookup
            # join on the shared field name, adding every non-key
            # column (with_cols=[] means "all non-key", resolved when
            # the small side loads). TRUE multi-match semantics: a key
            # matching g lookup rows emits g output rows (the ES
            # contract) — the broadcast side is grouped into per-key
            # struct lists and row multiplication reuses the
            # MV_EXPAND kernel; non-matching rows survive with nulls
            # (left join).
            m = re.match(r"JOIN\s+(\w+)\s+ON\s+(\w+)$", rest,
                         re.IGNORECASE)
            if m is None:
                raise ValueError(
                    "ES|QL: LOOKUP JOIN syntax is "
                    "LOOKUP JOIN <table> ON <field>")
            cmds.append(Enrich(m.group(1), m.group(2), [],
                               multi=True))
        elif head == "RENAME":
            pairs = []
            for spec in rest.split(","):
                pm = re.match(r"(\w+)\s+AS\s+(\w+)$", spec.strip(),
                              re.IGNORECASE)
                if pm is None:
                    raise ValueError(
                        "ES|QL: RENAME syntax is RENAME old AS new"
                        " [, ...]")
                pairs.append((pm.group(1), pm.group(2)))
            cmds.append(Rename(pairs))
        elif head == "SAMPLE":
            # mini-dialect form: SAMPLE <p> ON <id_field> — DETERMINISTIC
            # id-hash sampling (keep field % round(1/p) == 0), the
            # repo-wide load-shed convention: reproducible across
            # reruns, cluster sizes and block orders, hence an exact
            # SQL oracle — unlike ES|QL 9.x's seeded-random SAMPLE
            # (documented deviation). p must be 1/integer.
            sm = re.match(r"([0-9.]+)\s+ON\s+(\w+)$", rest,
                          re.IGNORECASE)
            if sm is None:
                raise ValueError(
                    "ES|QL: SAMPLE syntax is SAMPLE <p> ON <field>")
            p = float(sm.group(1))
            if not 0 < p <= 1:
                raise ValueError("ES|QL: SAMPLE p must be in (0, 1]")
            kk = round(1.0 / p)
            if abs(1.0 / p - kk) > 1e-9:
                raise ValueError(
                    "ES|QL mini-dialect: SAMPLE p must be 1/integer "
                    "(deterministic modulo sampling)")
            cmds.append(Sample(sm.group(2), kk))
        elif head == "MV_EXPAND":
            if not re.match(r"\w+$", rest):
                raise ValueError("ES|QL: MV_EXPAND takes one field")
            cmds.append(MvExpand(rest))
        elif head == "GROK":
            fld, _, pat = rest.partition(" ")
            pat = pat.strip()
            if len(pat) < 2 or pat[0] != '"' or pat[-1] != '"':
                raise ValueError("ES|QL: GROK pattern must be quoted")
            pat = pat[1:-1].replace('\\"', '"')
            rx, names, types = compile_grok(pat)
            cmds.append(Grok(fld.strip(), pat, rx, names, types))
        elif head == "CHANGE_POINT":
            m = re.match(
                r"(\w+)(?:\s+ON\s+(\w+))?"
                r"(?:\s+AS\s+(\w+)\s*,\s*(\w+))?$", rest,
                re.IGNORECASE)
            if m is None:
                raise ValueError(
                    "ES|QL: CHANGE_POINT syntax is CHANGE_POINT "
                    "<value> [ON <key>] [AS <type>, <pvalue>]")
            cmds.append(ChangePoint(
                m.group(1), m.group(2) or "@timestamp",
                m.group(3) or "type", m.group(4) or "pvalue"))
        elif head == "FORK":
            branches = []
            depth, in_q, esc, cur = 0, False, False, []
            for ch in rest:
                if in_q:
                    cur.append(ch)
                    if esc:
                        esc = False
                    elif ch == "\\":
                        esc = True
                    elif ch == '"':
                        in_q = False
                    continue
                if ch == '"':
                    in_q = True
                elif ch == "(":
                    depth += 1
                    if depth == 1:
                        continue  # opening paren of a branch
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        branches.append("".join(cur).strip())
                        cur = []
                        continue
                if depth >= 1:
                    cur.append(ch)
                elif not ch.isspace():
                    raise ValueError(
                        "ES|QL: FORK branches must be parenthesized")
            if depth != 0 or len(branches) < 2:
                raise ValueError(
                    "ES|QL: FORK needs >= 2 balanced (branch) groups")
            parsed = []
            for btxt in branches:
                bc: list = []
                for sp in _split_pipes(btxt):
                    sp = sp.strip()
                    if sp:
                        bc.extend(_parse_one(sp))
                # ES FORK branches carry their own implicit LIMIT 1000
                # — it also bounds the branch materialization the
                # union's schema alignment needs
                if not any(isinstance(b, Limit) for b in bc):
                    bc.append(Limit(1000))
                parsed.append(bc)
            cmds.append(Fork(parsed))
        else:
            raise ValueError(f"ES|QL: unknown command {head!r}")
    return cmds


def _expand_cols(specs: list, names: list) -> list:
    """Expand ``*`` wildcards in KEEP/DROP column specs against the
    live schema, wildcard matches in schema order (the ES rule),
    deduped keeping first occurrence."""
    import fnmatch

    out: list = []
    for spec in specs:
        matches = [n for n in names if fnmatch.fnmatchcase(n, spec)] \
            if "*" in spec else [spec]
        for m in matches:
            if m not in out:
                out.append(m)
    return out


def _pipeline_fields(cmds: list) -> set[str]:
    """Source columns the pipeline touches, minus EVAL-derived names —
    the pruned column set for the parquet read. A wildcard KEEP/DROP
    can reference columns nothing else names, so its presence disables
    pruning (empty set → read all columns)."""
    fields: set[str] = set()
    derived: set[str] = set()
    flat = list(_walk_cmds(cmds))
    for c in flat:
        # DROP keeps every column it does NOT name — the pipeline
        # implicitly references the whole schema, so pruning is off.
        # (Same for wildcard KEEP, which may match unnamed columns.)
        if isinstance(c, Drop):
            return set()
        if isinstance(c, Keep) and any("*" in s for s in c.cols):
            return set()
    for c in flat:
        if isinstance(c, Where):
            expr_fields(c.cond, fields)
        elif isinstance(c, Eval):
            for name, e in c.assigns:
                expr_fields(e, fields)
                derived.add(name)
        elif isinstance(c, (Stats, InlineStats)):
            for name, _, e in c.aggs:
                nodes = e if isinstance(e, tuple) else (e,)
                for el in nodes:
                    # tuple extras are AST nodes for WEIGHTED_AVG's
                    # weight but plain literals for PERCENTILE/TOP
                    if isinstance(el, (Lit, Field, Call, BinOp,
                                       Unary)):
                        expr_fields(el, fields)
                derived.add(name)  # agg outputs are not source columns
            fields.update(c.by)
        elif isinstance(c, Sort):
            fields.update(k for k, _ in c.keys)
        elif isinstance(c, (Keep, Drop)):
            fields.update(c.cols)
        elif isinstance(c, Dissect):
            fields.add(c.field)
            derived.update(c.names)
        elif isinstance(c, Enrich):
            fields.add(c.on)
            derived.update(c.with_cols)
        elif isinstance(c, Rename):
            fields.update(old for old, _ in c.pairs)
            derived.update(new for _, new in c.pairs)
        elif isinstance(c, (MvExpand, Sample)):
            fields.add(c.field)
        elif isinstance(c, Grok):
            fields.add(c.field)
            derived.update(c.names)
        elif isinstance(c, Fork):
            derived.add("_fork")  # branch commands are walked above
        elif isinstance(c, ChangePoint):
            fields.add(c.value)
            fields.add(c.on)
            derived.update((c.type_col, c.pvalue_col))
    return fields - derived


def _mv_expand(t: pa.Table, field: str) -> pa.Table:
    """MV_EXPAND: one output row per list element, fully vectorized
    (numpy repeat for parent indices + one Arrow take per column).
    ES semantics: a null or empty multivalue keeps its row with a
    single null value — unlike SQL UNNEST, which drops it."""
    if len(t) == 0:
        vt = t.schema.field(field).type
        if pa.types.is_list(vt) or pa.types.is_large_list(vt) \
                or pa.types.is_fixed_size_list(vt):
            vt = vt.value_type
        return t.set_column(t.column_names.index(field), field,
                            pa.nulls(0, type=vt))
    col = t[field]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ln = pc.fill_null(pc.list_value_length(col), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    reps = np.where(ln == 0, 1, ln)  # null/empty rows emit 1 null
    parent = np.repeat(np.arange(len(t), dtype=np.int64), reps)
    flat = col.flatten()  # inner nulls kept; null/empty lists dropped
    starts = np.concatenate(([0], np.cumsum(ln)[:-1]))
    ends = np.cumsum(reps)
    within = np.arange(int(reps.sum()), dtype=np.int64) \
        - np.repeat(ends - reps, reps)
    take_idx = np.repeat(starts, reps) + within
    empty_rep = np.repeat(ln == 0, reps)
    if len(flat) == 0:
        values = pa.nulls(int(reps.sum()), type=flat.type)
    else:
        values = flat.take(pa.array(np.where(empty_rep, 0, take_idx)))
        if empty_rep.any():
            values = pc.if_else(pa.array(~empty_rep), values,
                                pa.scalar(None, type=flat.type))
    parent_idx = pa.array(parent)
    arrays = [values if n == field else t[n].take(parent_idx)
              for n in t.column_names]
    return pa.Table.from_arrays(arrays, names=t.column_names)


def execute_esql(query: str, sf_dir: str) -> pa.Table:
    """Parse + compile + run an ES|QL pipeline over the parquet tables
    in ``sf_dir``. Returns the (small) result as an Arrow table."""
    import ray.data as rd

    cmds = parse_esql(query)
    if not any(isinstance(c, Limit) for c in cmds):
        # ES|QL's documented implicit row cap: a pipeline with no LIMIT
        # returns at most 1000 rows — which also bounds the final
        # driver-side materialization below on unbounded scans
        cmds.append(Limit(1000))
    src = cmds[0]

    # ENRICH / LOOKUP JOIN small sides are read once on the driver and
    # broadcast via ray.put — the lookup join never reships the table
    # per batch. Loaded BEFORE column pruning: LOOKUP JOIN's added
    # columns ("all non-key") only become known here, and they must
    # count as derived when pruning the main read.
    import ray

    for c in _walk_cmds(cmds):
        if isinstance(c, Enrich):
            import pyarrow.parquet as pq

            et = pq.read_table(
                os.path.join(sf_dir, f"{c.table}.parquet"))
            # LOOKUP JOIN keys on the ON field BY NAME in the lookup
            # table; ENRICH policies match on the table's first column
            key_col = c.on if c.on in et.column_names \
                else et.column_names[0]
            side_cols = c.with_cols or [n for n in et.column_names
                                        if n != key_col]
            c.with_cols = side_cols
            if c.multi:
                # group the side into key -> list<struct{side_cols}>
                # ONCE (stable order: key, then original row) so each
                # batch is one index_in + one list take + one expand;
                # null-keyed lookup rows can never match (ES) — drop
                et = et.filter(pc.is_valid(et[key_col]))
                order = pc.sort_indices(
                    et.append_column(
                        "__row", pa.array(range(et.num_rows),
                                          pa.int64())),
                    sort_keys=[(key_col, "ascending"),
                               ("__row", "ascending")])
                ets = et.take(order)
                keys_np = ets[key_col].to_numpy(zero_copy_only=False)
                uniq, starts = np.unique(keys_np, return_index=True)
                offsets = np.append(starts, len(keys_np)) \
                    .astype(np.int32)
                struct = pa.StructArray.from_arrays(
                    [ets[n].combine_chunks() for n in side_cols],
                    side_cols)
                lists = pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), struct)
                ukeys = pa.array(uniq).cast(
                    et.schema.field(key_col).type)
                c.ref = ray.put((ukeys, lists))
            else:
                c.ref = ray.put(
                    (et[key_col].combine_chunks(),
                     {n: et[n].combine_chunks() for n in side_cols}))

    if isinstance(src, Show):
        from .. import __version__

        ds = rd.from_arrow(pa.table({
            "name": pa.array(["logsentinelai_ray"], pa.string()),
            "version": pa.array([__version__], pa.string())}))
    elif isinstance(src, Row):
        one = pa.table({"__one": pa.array([0], pa.int8())})
        rcols: dict = {}
        for name, node in src.assigns:
            v = eval_expr(node, one)
            if isinstance(v, pa.Scalar):
                v = pa.array([v.as_py()])
            rcols[name] = v
        ds = rd.from_arrow(pa.table(rcols))
    else:
        path = os.path.join(sf_dir, f"{src.table}.parquet")
        cols = sorted(_pipeline_fields(cmds))
        ds = rd.read_parquet(path, columns=cols or None)

    ds = _apply_pipeline(ds, cmds[1:])
    return pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)


def _walk_cmds(cmds):
    """Flatten a command list including FORK branch sub-pipelines."""
    for c in cmds:
        yield c
        if isinstance(c, Fork):
            for b in c.branches:
                yield from _walk_cmds(b)


def _apply_pipeline(ds, cmds: list):
    """Apply non-source commands to a Dataset (recursed into by FORK
    branches). Fuses consecutive row-local commands into one
    map_batches stage."""
    import ray

    i = 0
    while i < len(cmds):
        run = []
        while i < len(cmds) and isinstance(cmds[i],
                                           (Where, Eval, Dissect,
                                            Enrich, Rename, MvExpand,
                                            Grok, Sample)):
            run.append(cmds[i])
            i += 1
        if run:
            def stage(t: pa.Table, _run=tuple(run)) -> pa.Table:
                for c in _run:
                    if isinstance(c, Where):
                        t = t.filter(eval_expr(c.cond, t))
                    elif isinstance(c, Dissect):
                        col = t[c.field]
                        if isinstance(col, pa.ChunkedArray):
                            col = col.combine_chunks()
                        ext = pc.extract_regex(col, c.regex)
                        for name in c.names:
                            t = t.append_column(
                                name, pc.struct_field(ext, name))
                    elif isinstance(c, Enrich):
                        keys, vals = ray.get(c.ref)
                        idx = pc.index_in(t[c.on], value_set=keys)
                        if c.multi:
                            # one row PER match: take the per-key
                            # struct list (null for no match), expand
                            # rows with the MV_EXPAND kernel, then
                            # flatten the struct into columns
                            t = t.append_column(
                                "__lookup", pc.take(vals, idx))
                            t = _mv_expand(t, "__lookup")
                            lk = t["__lookup"]
                            if isinstance(lk, pa.ChunkedArray):
                                lk = lk.combine_chunks()
                            for name in c.with_cols:
                                t = t.append_column(
                                    name, pc.struct_field(lk, name))
                            t = t.drop_columns(["__lookup"])
                        else:
                            for name in c.with_cols:
                                t = t.append_column(
                                    name, pc.take(vals[name], idx))
                    elif isinstance(c, Rename):
                        mapping = dict(c.pairs)
                        t = t.rename_columns(
                            [mapping.get(n, n)
                             for n in t.column_names])
                    elif isinstance(c, MvExpand):
                        t = _mv_expand(t, c.field)
                    elif isinstance(c, Sample):
                        ids = t[c.field].to_numpy(
                            zero_copy_only=False)
                        t = t.filter(pa.array(ids % c.k == 0))
                    elif isinstance(c, Grok):
                        col = t[c.field]
                        if isinstance(col, pa.ChunkedArray):
                            col = col.combine_chunks()
                        ext = pc.extract_regex(col, c.regex)
                        for name in c.names:
                            v = pc.struct_field(ext, name)
                            ty = c.types.get(name)
                            if ty == "int":
                                v = pc.cast(v, pa.int64())
                            elif ty == "float":
                                v = pc.cast(v, pa.float64())
                            t = t.append_column(name, v)
                    else:
                        for name, e in c.assigns:
                            v = eval_expr(e, t)
                            if isinstance(v, pa.Scalar):
                                v = pa.array([v.as_py()] * len(t))
                            if name in t.column_names:
                                t = t.set_column(
                                    t.column_names.index(name),
                                    name, v)
                            else:
                                t = t.append_column(name, v)
                return t

            ds = ds.map_batches(stage, batch_format="pyarrow")
        if i >= len(cmds):
            break
        c = cmds[i]
        i += 1
        if isinstance(c, Stats):
            ds = _compile_stats(ds, c)
        elif isinstance(c, InlineStats):
            ds = _apply_inlinestats(ds, c)
        elif isinstance(c, Fork):
            ds = _apply_fork(ds, c)
        elif isinstance(c, ChangePoint):
            ds = _apply_change_point(ds, c)
        elif isinstance(c, Sort):
            ds = ds.sort([k for k, _ in c.keys],
                         descending=[not a for _, a in c.keys])
        elif isinstance(c, Limit):
            ds = ds.limit(c.n)
        elif isinstance(c, Keep):
            ds = ds.select_columns(
                _expand_cols(c.cols, ds.schema().names))
        elif isinstance(c, Drop):
            ds = ds.drop_columns(
                _expand_cols(c.cols, ds.schema().names))

    return ds


def _group_keys_str(t: pa.Table, by: list):
    """Composite BY key per row as one string array (per-part null
    sentinel BEFORE joining so partial-null multi-keys stay
    distinct) — the broadcast join-back key for INLINESTATS."""
    parts = []
    for b in by:
        col = t[b]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts.append(pc.fill_null(pc.cast(col, pa.string()), "\x00"))
    key = parts[0]
    for p in parts[1:]:
        key = pc.binary_join_element_wise(key, p, "\x1f")
    return key


def _apply_inlinestats(ds, c: InlineStats):
    """INLINESTATS = the STATS kernel (distributed aggregates) + a
    broadcast join-back: the per-group result table is tiny (one row
    per group), so it ships once via ray.put and each batch appends
    the aggregate columns with one index_in/take per column — no
    row-level shuffle of the stream itself."""
    import ray

    ds = ds.materialize()  # consumed by the aggregate AND the stream
    st = pa.Table.from_pandas(
        _compile_stats(ds, Stats(c.aggs, c.by)).to_pandas(),
        preserve_index=False)
    out_names = [name for name, _, _ in c.aggs]
    ref = ray.put(st)
    by = list(c.by)

    def join(t: pa.Table) -> pa.Table:
        s = ray.get(ref)
        if not by:  # global aggregates broadcast to every row
            for n in out_names:
                col = s[n]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                t = t.append_column(n, pa.array(
                    [col[0].as_py()] * len(t), type=col.type))
            return t
        idx = pc.index_in(_group_keys_str(t, by),
                          value_set=_group_keys_str(s, by))
        for n in out_names:
            col = s[n]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            t = t.append_column(n, pc.take(col, idx))
        return t

    return ds.map_batches(join, batch_format="pyarrow")


def _apply_change_point(ds, c: ChangePoint):
    """CHANGE_POINT executes on the (bucket-bounded) collected series:
    sort by the key, find the SSE-minimizing split with integer
    prefix sums cast to double BEFORE the multiply (the exact op tree
    of the change_point registry oracle — +,*,/ are exactly rounded,
    so the argmax agrees with SQL bit-for-bit; ties break earliest),
    and append the type/pvalue columns, non-null only on the first
    row of the right segment."""
    import ray.data as rd

    t = pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)
    if t.num_rows > 10_000:
        # ES caps CHANGE_POINT at 1000 values; the command runs on a
        # STATS-built series by design — refuse an unbounded stream
        # loudly instead of collecting it
        raise ValueError(
            "ES|QL: CHANGE_POINT input must be a bucket-bounded "
            f"series (got {t.num_rows} rows; run it after STATS)")
    idx = pc.sort_indices(t, sort_keys=[(c.on, "ascending")])
    t = t.take(idx)
    n = t.num_rows
    tcol = pa.nulls(n, pa.string())
    pcol = pa.nulls(n, pa.float64())
    if n >= 2:
        v = t[c.value].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        sl = np.cumsum(v)[:-1]
        sr = float(v.sum()) - sl
        k = np.arange(1, n, dtype=np.float64)
        g = sl * sl / k + sr * sr / (float(n) - k)
        best = int(np.argmax(g))  # earliest max
        mask = np.zeros(n, dtype=bool)
        mask[best + 1] = True
        m = pa.array(mask)
        tcol = pc.if_else(m, pa.scalar("step_change", pa.string()),
                          tcol)
        pcol = pc.if_else(
            m, pa.scalar(round(float(g[best]), 6), pa.float64()),
            pcol)
    t = t.append_column(c.type_col, tcol)
    t = t.append_column(c.pvalue_col, pcol)
    return rd.from_arrow(t)


def _apply_fork(ds, c: Fork):
    """FORK: run each branch sub-pipeline over the materialized
    stream, tag rows with ``_fork``, align columns (missing columns
    null-filled with the owning branch's type; conflicting types are
    an error), and union."""
    base = ds.materialize()
    outs = []
    for bi, branch in enumerate(c.branches):
        b = _apply_pipeline(base, list(branch))
        tag = f"fork{bi + 1}"

        def add_tag(t: pa.Table, _tag=tag) -> pa.Table:
            return t.append_column(
                "_fork", pa.array([_tag] * len(t), pa.string()))

        outs.append(b.map_batches(add_tag, batch_format="pyarrow")
                    .materialize())
    # empty branches have no schema (Ray returns None) and contribute
    # no rows — drop them from alignment and union
    nonempty = [o for o in outs if o.schema() is not None]
    if not nonempty:
        return outs[0]
    outs = nonempty
    # column alignment across branches, first-seen order
    order: list[str] = []
    types: dict = {}
    for o in outs:
        sch = o.schema()
        for n, ty in zip(sch.names, sch.types):
            if n not in types:
                order.append(n)
                types[n] = ty
            elif types[n] != ty:
                raise ValueError(
                    f"ES|QL: FORK branches disagree on column {n!r} "
                    f"type ({types[n]} vs {ty})")
    aligned = []
    for o in outs:
        have = set(o.schema().names)
        missing = [n for n in order if n not in have]

        def align(t: pa.Table, _missing=tuple(missing)) -> pa.Table:
            for n in _missing:
                t = t.append_column(n, pa.nulls(len(t),
                                                type=types[n]))
            return t.select(order)

        aligned.append(o.map_batches(align, batch_format="pyarrow"))
    out = aligned[0]
    if len(aligned) > 1:
        out = out.union(*aligned[1:])
    return out


def _compile_stats(ds, c: Stats):
    """STATS → Ray Data aggregate (partial per block, tiny exchange).
    Aggregates over expressions evaluate the expression into a scratch
    column first (one vectorized stage)."""
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    if any(fn in _KERNEL_FNS for _, fn, _e in c.aggs):
        return _stats_group_kernel(ds, c)
    scratch: list[tuple[str, object]] = []
    specs = []
    count_names = []
    cd_aggs: list[tuple[str, str]] = []  # COUNT_DISTINCT: (name, col)
    # post-computed aggregates: (out_name, kind, temp column names) —
    # finalized from Sum partials after the exchange (kind "wavg" =
    # s_vw / s_w; kind "std" = sqrt(s2/n - (s/n)^2), the exact op
    # tree the SQL oracles mirror)
    post: list[tuple[str, str, tuple]] = []
    for idx, (name, fn, expr) in enumerate(c.aggs):
        if fn == "WEIGHTED_AVG":
            from ray.data.aggregate import Sum as _Sum

            vw = f"__wa{idx}_vw"
            wm = f"__wa{idx}_w"
            vnode, wnode = expr
            mul = BinOp("*", vnode, wnode)
            scratch.append((vw, mul))
            # weight masked under the product's null mask, so a
            # null/filtered value drops its weight too
            scratch.append((wm, Call("CASE", [
                Unary("not", Unary("is_null", mul)), wnode])))
            specs.append(_Sum(vw, alias_name=vw))
            specs.append(_Sum(wm, alias_name=wm))
            post.append((name, "wavg", (vw, wm)))
            continue
        if fn == "STD_DEV":
            from ray.data.aggregate import Sum as _Sum

            xs = f"__sd{idx}_s"
            x2 = f"__sd{idx}_s2"
            xn = f"__sd{idx}_n"
            scratch.append((xs, expr))
            scratch.append((x2, BinOp("*", expr, expr)))
            scratch.append((xn, Call("CASE", [
                Unary("not", Unary("is_null", expr)),
                Lit(1), Lit(0)])))
            specs.append(_Sum(xs, alias_name=xs))
            specs.append(_Sum(x2, alias_name=x2))
            specs.append(_Sum(xn, alias_name=xn))
            post.append((name, "std", (xs, x2, xn)))
            continue
        if fn == "COUNT":
            if c.by:
                specs.append(Count(alias_name=name))
            else:
                # global Count(alias_name=...) mis-reports 0 on this
                # Ray version — served via Dataset.count() below
                count_names.append(name)
            continue
        if isinstance(expr, Field):
            col = expr.name
        else:
            col = f"__agg{idx}"
            scratch.append((col, expr))
        if fn == "COUNT_DISTINCT":
            cd_aggs.append((name, col))
            continue
        cls = {"SUM": Sum, "MIN": Min, "MAX": Max, "AVG": Mean}[fn]
        specs.append(cls(col, alias_name=name))
    if scratch:
        def add_scratch(t: pa.Table, _s=tuple(scratch)) -> pa.Table:
            for col, e in _s:
                v = eval_expr(e, t)
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * len(t))
                t = t.append_column(col, v)
            return t

        ds = ds.map_batches(add_scratch, batch_format="pyarrow")
    def apply_post(out_ds):
        if not post:
            return out_ds

        def fin(t: pa.Table, _post=tuple(post)) -> pa.Table:
            for name, kind, cols in _post:
                if kind == "wavg":
                    v = pc.divide(
                        pc.cast(t[cols[0]], pa.float64()),
                        pc.cast(t[cols[1]], pa.float64()))
                else:  # std
                    s = pc.cast(t[cols[0]], pa.float64())
                    s2 = pc.cast(t[cols[1]], pa.float64())
                    n = pc.cast(t[cols[2]], pa.float64())
                    m = pc.divide(s, n)
                    v = pc.sqrt(pc.subtract(pc.divide(s2, n),
                                            pc.multiply(m, m)))
                t = t.append_column(name, v)
            return t.drop_columns(
                [cc for _, _, cs in _post for cc in cs])

        return out_ds.map_batches(fin, batch_format="pyarrow")

    if cd_aggs:
        return apply_post(
            _stats_with_distinct(ds, c, specs, count_names, cd_aggs))
    if c.by:
        return apply_post(
            ds.groupby(c.by if len(c.by) > 1 else c.by[0])
            .aggregate(*specs))
    # global STATS: Dataset.aggregate returns a plain dict — wrap it
    # back into a one-row Dataset so SORT/LIMIT/KEEP still compose
    import math as _math

    import ray.data as rd

    if count_names and specs:
        ds = ds.materialize()  # consumed twice: count() + aggregate()
    row = dict(ds.aggregate(*specs)) if specs else {}
    if count_names:
        n = ds.count()
        for name in count_names:
            row[name] = n
    for name, kind, cols in post:
        if kind == "wavg":
            row[name] = float(row[cols[0]]) / float(row[cols[1]])
        else:
            s, s2, n_ = (float(row[cc]) for cc in cols)
            m = s / n_
            row[name] = _math.sqrt(s2 / n_ - m * m)
    ordered = {name: row[name] for name, _, _ in c.aggs}
    return rd.from_items([ordered])


def _qdisc(v: np.ndarray, q: float):
    """Discrete quantile, the DuckDB quantile_disc convention the
    whole repo uses: sorted element at max(0, ceil(q*n) - 1)."""
    import math

    if v.size == 0:
        return None
    return v[max(0, math.ceil(q * v.size) - 1)].item()


def _stats_group_kernel(ds, c: Stats):
    """STATS containing order-statistic aggregates (MEDIAN /
    PERCENTILE / VALUES / TOP) — Ray's builtin Aggregate set can't
    express these, so the whole STATS compiles to ONE
    ``groupby().map_groups`` kernel: each group sorts locally on the
    worker that owns it and emits one row (the value_quantiles plan
    shape — the shuffle moves each row exactly once, nothing
    group-sized reaches the driver). Partitioning assumption: one
    group fits one worker; beyond that the distributed-sort +
    rank-selection exchange replaces the local sort."""
    # evaluate every agg's main expression into a scratch column first
    # (one vectorized stage), so the group kernel only reads columns
    cols: list[tuple[str, str, str, tuple]] = []  # name, fn, col, extras
    scratch: list[tuple[str, object]] = []
    for idx, (name, fn, expr) in enumerate(c.aggs):
        extras: tuple = ()
        if isinstance(expr, tuple):
            expr, extras = expr[0], tuple(expr[1:])
        if expr is None:
            col = ""
        elif isinstance(expr, Field):
            col = expr.name
        else:
            col = f"__agg{idx}"
            scratch.append((col, expr))
        cols.append((name, fn, col, extras))
    if scratch:
        def add_scratch(t: pa.Table, _s=tuple(scratch)) -> pa.Table:
            for col, e in _s:
                v = eval_expr(e, t)
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * len(t))
                t = t.append_column(col, v)
            return t

        ds = ds.map_batches(add_scratch, batch_format="pyarrow")

    by = list(c.by)
    if not by:  # global STATS: constant group key, dropped on output
        ds = ds.map_batches(
            lambda t: t.append_column("__g", pa.nulls(len(t),
                                                      pa.int8())),
            batch_format="pyarrow")
        by = ["__g"]

    def kernel(g: pa.Table, _cols=tuple(cols), _by=tuple(by)) \
            -> pa.Table:
        out: dict = {k: [g[k][0].as_py()] for k in _by}
        for name, fn, col, extras in _cols:
            if fn == "COUNT":
                out[name] = [len(g)]
                continue
            arr = g[col]
            if fn == "SUM":
                out[name] = [pc.sum(arr).as_py()]
            elif fn == "MIN":
                out[name] = [pc.min(arr).as_py()]
            elif fn == "MAX":
                out[name] = [pc.max(arr).as_py()]
            elif fn == "AVG":
                out[name] = [pc.mean(arr).as_py()]
            elif fn == "COUNT_DISTINCT":
                out[name] = [pc.count_distinct(arr).as_py()]
            else:
                v = np.sort(arr.drop_null().to_numpy(
                    zero_copy_only=False))
                if fn == "MEDIAN":
                    out[name] = [_qdisc(v, 0.5)]
                elif fn == "MEDIAN_ABSOLUTE_DEVIATION":
                    # median of |x - median(x)|, both medians under
                    # the repo's quantile_disc convention
                    med = _qdisc(v, 0.5)
                    out[name] = [None if med is None else
                                 _qdisc(np.sort(np.abs(v - med)), 0.5)]
                elif fn == "PERCENTILE":
                    out[name] = [_qdisc(v, float(extras[0]) / 100.0)]
                elif fn == "VALUES":
                    # ES returns an unordered multivalue; sorted here
                    # for determinism (documented deviation)
                    out[name] = [np.unique(v).tolist()]
                else:  # TOP(col, k, "asc"|"desc")
                    k = int(extras[0])
                    order = (extras[1] if len(extras) > 1
                             else "desc")
                    top = v[::-1][:k] if order == "desc" else v[:k]
                    out[name] = [top.tolist()]
        return pa.table(out)

    out = ds.groupby(by if len(by) > 1 else by[0]) \
        .map_groups(kernel, batch_format="pyarrow")
    if not c.by:
        out = out.drop_columns(["__g"])
    return out


def _stats_with_distinct(ds, c: Stats, specs, count_names, cd_aggs):
    """COUNT_DISTINCT: exact per-group cardinality via a two-level
    groupby — the exchange carries each distinct (by, value) pair
    ONCE (level 1 dedups inside the shuffle's partial aggregation),
    then a tiny per-group row count. Nothing value-set-sized touches
    the driver; the merge below joins bucket-bounded frames only.
    Nulls don't count (the ES COUNT_DISTINCT / SQL count(DISTINCT)
    convention)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = ds.materialize()  # consumed once per distinct agg + once more
    if not c.by:
        row = dict(ds.aggregate(*specs)) if specs else {}
        if count_names:
            n = ds.count()
            for name in count_names:
                row[name] = n
        for name, col in cd_aggs:
            dd = ds.map_batches(
                lambda t, _c=col: t.filter(pc.is_valid(t[_c])),
                batch_format="pyarrow")
            row[name] = dd.groupby(col).count().count()
        ordered = {name: row[name] for name, _, _ in c.aggs}
        return rd.from_items([ordered])

    gkey = c.by if len(c.by) > 1 else c.by[0]
    frames = []
    if specs:
        frames.append(ds.groupby(gkey).aggregate(*specs).to_pandas())
    for name, col in cd_aggs:
        dd = ds.map_batches(
            lambda t, _c=col: t.filter(pc.is_valid(t[_c])),
            batch_format="pyarrow")
        pairs = dd.groupby(c.by + [col]).count()
        cnt = pairs.groupby(gkey).aggregate(Count(alias_name=name))
        frames.append(cnt.to_pandas()[c.by + [name]])
    out = frames[0]
    for f in frames[1:]:
        out = out.merge(f, on=c.by, how="left" if specs else "outer")
    for name, _ in cd_aggs:  # groups whose values were all null → 0
        out[name] = out[name].fillna(0).astype("int64")
    cols = c.by + [name for name, _, _ in c.aggs]
    return rd.from_pandas(out[cols])
