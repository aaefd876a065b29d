"""Reference results and the correctness gate.

The reference shares no code with the engine. DuckDB tokenizes the
generated corpus with the analyzer the engine documents (acronym and camel
boundaries, lowercase, split on ``[^a-z0-9]+``, tokens cut at 64 chars),
and numpy scores Okapi BM25 with the documented float64 expression tree,
summing a query's unique terms in sorted order, so scores must match the
engine bit for bit. Doc ids follow the documented assignment: the rank of
the sorted ``repo\\0path\\0commit`` key among a batch's new keys, offset by
the docs already indexed, keeping the first of exact duplicates.

Analytics results are checked against the registry's DuckDB oracle SQL run
over the same generated ``events`` table, compared as the repo's parity
harness does: columns sorted by name, rows sorted by every column, values
exactly equal.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

K1, B = 1.2, 0.75
_ACRONYM = re.compile(r"([A-Z]+)([A-Z][a-z])")
_CAMEL = re.compile(r"([a-z0-9])([A-Z])")
_SPLIT = re.compile(r"[^a-z0-9]+")

_TOKENS_SQL = r"""
CREATE TEMP TABLE tok AS
SELECT doc_id, substr(t, 1, 64) AS term
FROM (SELECT doc_id, unnest(regexp_split_to_array(lower(regexp_replace(
        regexp_replace(content, '([A-Z]+)([A-Z][a-z])', '\1 \2', 'g'),
        '([a-z0-9])([A-Z])', '\1 \2', 'g')), '[^a-z0-9]+')) AS t
      FROM docs)
WHERE t <> ''
"""


def analyze(text: str) -> list[str]:
    t = _CAMEL.sub(r"\1 \2", _ACRONYM.sub(r"\1 \2", text)).lower()
    return [w[:64] for w in _SPLIT.split(t) if w]


def keys_of(tbl: pa.Table) -> pa.Array:
    """The engine's document key: ``repo\\0path\\0commit``."""
    return pc.binary_join_element_wise(tbl["repo"], tbl["path"],
                                       tbl["commit"], "\x00")


def assign_ids(batches: list[pa.Table]) -> pa.Table:
    """The indexed docs of the base corpus followed by each delta batch,
    with the doc ids the engine must give them."""
    out, seen, n = [], set(), 0
    for tbl in batches:
        tbl = tbl.append_column("key", keys_of(tbl))
        keys = tbl["key"].to_pylist()
        first = {}
        for i, k in enumerate(keys):
            if k not in seen and k not in first:
                first[k] = i
        new = tbl.take(pa.array(sorted(first.values()), pa.int64()))
        new = new.sort_by("key")  # byte order, as the engine's Arrow sort
        out.append(new.append_column(
            "doc_id", pa.array(np.arange(n, n + new.num_rows), pa.int64())))
        seen.update(first)
        n += new.num_rows
    return pa.concat_tables(out)


class Reference:
    """Exhaustive BM25 over ``docs`` (the ``assign_ids`` table)."""

    def __init__(self, docs: pa.Table):
        import duckdb

        self.con = duckdb.connect()
        self.con.execute("SET threads=4")
        self.con.register("docs", docs.select(["doc_id", "content"]))
        self.con.execute(_TOKENS_SQL)
        self.n = docs.num_rows
        dl = self.con.execute(
            "SELECT doc_id, count(*) AS dl FROM tok GROUP BY 1").fetchnumpy()
        self.dl = np.zeros(self.n, dtype=np.float64)
        self.dl[dl["doc_id"]] = dl["dl"]
        self.avgdl = int(self.dl.sum()) / self.n
        self.attrs = {f: np.asarray(docs[f].to_pylist(), dtype=object)
                      for f in ("lang", "repo")}
        self.sha = {}
        ids = docs["doc_id"].to_numpy()
        for i, c in zip(ids.tolist(), docs["content"].to_pylist()):
            self.sha[i] = hashlib.sha256(c.encode("utf-8")).hexdigest()
        self.keys = dict(zip(ids.tolist(), docs["key"].to_pylist()))
        self._tf: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def prepare(self, texts: list[str]) -> None:
        """Fetch the postings of every term of ``texts`` in one scan."""
        self._postings(sorted({t for x in texts for t in analyze(x)}))

    def _postings(self, terms: list[str]) -> None:
        missing = [t for t in terms if t not in self._tf]
        if not missing:
            return
        rows = self.con.execute(
            "SELECT term, doc_id, count(*) AS tf FROM tok "
            "WHERE term IN (SELECT unnest(?)) GROUP BY 1, 2 ORDER BY 1, 2",
            [missing]).fetchnumpy()
        for t in missing:
            m = rows["term"] == t
            self._tf[t] = (rows["doc_id"][m].astype(np.int64),
                           rows["tf"][m].astype(np.float64))

    def search(self, text: str, k: int = 10,
               filters: dict | None = None) -> list[tuple[int, float]]:
        terms = sorted(set(analyze(text)))
        self._postings(terms)
        acc = np.zeros(self.n, dtype=np.float64)
        hit = np.zeros(self.n, dtype=bool)
        for t in terms:
            ids, tf = self._tf[t]
            if not len(ids):
                continue
            df = len(ids)
            idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
            dl = self.dl[ids]
            acc[ids] += idf * (tf * (K1 + 1.0)
                               / (tf + K1 * (1.0 - B + B * dl / self.avgdl)))
            hit[ids] = True
        for field, value in (filters or {}).items():
            hit &= self.attrs[field] == value
        cand = np.flatnonzero(hit)
        order = np.lexsort((cand, -acc[cand]))[:k]
        return [(int(cand[i]), float(acc[cand[i]])) for i in order]


def topk_of(result: pa.Table) -> list[tuple[int, float]]:
    return list(zip(result["doc_id"].to_pylist(),
                    result["score"].to_pylist()))


def compare_topk(got: list[tuple[int, float]],
                 want: list[tuple[int, float]]) -> str | None:
    """None when ``got`` equals ``want`` exactly (ids, order and float64
    score bits), else what differs first."""
    if len(got) != len(want):
        return f"{len(got)} hits, want {len(want)}"
    for rank, (g, w) in enumerate(zip(got, want)):
        if g[0] != w[0] or float(g[1]).hex() != float(w[1]).hex():
            return f"rank {rank}: got {g}, want {w}"
    return None


def check_docs(result: pa.Table, ref: Reference) -> str | None:
    """Every returned doc's key and ``sha256`` match the generated doc the
    id stands for."""
    for did, repo, path, commit, sha in zip(
            *(result[c].to_pylist()
              for c in ("doc_id", "repo", "path", "commit", "sha256"))):
        if ref.keys.get(did) != f"{repo}\x00{path}\x00{commit}":
            return f"doc {did}: key {repo}|{path}|{commit} not generated"
        if ref.sha[did] != sha:
            return f"doc {did}: sha256 {sha} != generated content's"
    return None


def check_marker(result: pa.Table, want_keys: set[str]) -> str | None:
    """A marker search returned exactly the batch's new docs."""
    got = {f"{r}\x00{p}\x00{c}" for r, p, c in zip(
        *(result[f].to_pylist() for f in ("repo", "path", "commit")))}
    if got != want_keys or result.num_rows != len(want_keys):
        return (f"marker search: {len(want_keys - got)} batch docs missing, "
                f"{len(got - want_keys)} unexpected")
    return None


def run_sql(sql: str, in_dir: str):
    """``sql`` in DuckDB with an ``events`` view over the generated
    table; returns a pandas frame."""
    import duckdb

    con = duckdb.connect()
    path = f"{in_dir}/events.parquet".replace("'", "''")
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{path}')")
    return con.sql(sql).df()


def frame_of(result):
    """A registry entry's result (Dataset, Arrow table or pandas frame)
    as a pandas frame."""
    import pandas as pd

    return result if isinstance(result, pd.DataFrame) else result.to_pandas()


def _canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def compare_rows(got, want) -> str | None:
    """None when two frames hold the same rows (any order), else what
    differs first."""
    got, want = _canon(got), _canon(want)
    if list(got.columns) != list(want.columns):
        return f"columns {list(got.columns)}, want {list(want.columns)}"
    if len(got) != len(want):
        return f"{len(got)} rows, want {len(want)}"
    for col in got.columns:
        for i, (g, w) in enumerate(zip(got[col].tolist(),
                                       want[col].tolist())):
            if g != w:
                return f"row {i} {col}: got {g!r}, want {w!r}"
    return None
