"""``segments.merge_runs`` (Arrow/numpy regrouping) against the per-row
Python loop it replaced, kept here as the reference: the merged segment
rows must be identical, values and types, for any set of salt runs."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from logsentinelai_ray.config import IndexConfig
from logsentinelai_ray.index.segments import (
    SEGMENT_SCHEMA,
    _empty_run_table,
    encode_runs,
    merge_runs,
)


def reference_merge_runs(rows: pa.Table) -> pa.Table:
    """The earlier merge: ``to_pydict`` and a loop over equal-term rows."""
    if rows.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    rows = rows.sort_by([("term", "ascending"), ("salt", "ascending")])
    d = rows.to_pydict()
    n = rows.num_rows
    out = {k: [] for k in ("term", "df", "block_first", "block_last",
                           "block_count", "block_max", "block_doc_off",
                           "block_tf_off", "block_dl_off", "doc_data",
                           "tf_data", "dl_data")}
    part = d["part"][0]
    i = 0
    while i < n:
        j = i
        while j < n and d["term"][j] == d["term"][i]:
            j += 1
        out["term"].append(d["term"][i])
        out["df"].append(sum(d["df"][i:j]))
        for key in ("block_first", "block_last", "block_count", "block_max"):
            out[key].append([v for r in range(i, j) for v in d[key][r]])
        for data_key, off_key in (("doc_data", "block_doc_off"),
                                  ("tf_data", "block_tf_off"),
                                  ("dl_data", "block_dl_off")):
            shift = 0
            offs: list[int] = []
            bufs: list[bytes] = []
            for r in range(i, j):
                ro = d[off_key][r]
                offs.extend(v + shift for v in ro[:-1])
                bufs.append(d[data_key][r])
                shift += ro[-1]
            offs.append(shift)
            out[off_key].append(offs)
            out[data_key].append(b"".join(bufs))
        i = j
    return pa.table({
        "part": pa.array([part] * len(out["term"]), pa.int32()),
        "term": pa.array(out["term"], pa.string()),
        "df": pa.array(out["df"], pa.int64()),
        "block_first": pa.array(out["block_first"], pa.list_(pa.int64())),
        "block_last": pa.array(out["block_last"], pa.list_(pa.int64())),
        "block_count": pa.array(out["block_count"], pa.list_(pa.int32())),
        "block_max": pa.array(out["block_max"], pa.list_(pa.float64())),
        "block_doc_off": pa.array(out["block_doc_off"], pa.list_(pa.int64())),
        "block_tf_off": pa.array(out["block_tf_off"], pa.list_(pa.int64())),
        "block_dl_off": pa.array(out["block_dl_off"], pa.list_(pa.int64())),
        "doc_data": pa.array(out["doc_data"], pa.large_binary()),
        "tf_data": pa.array(out["tf_data"], pa.large_binary()),
        "dl_data": pa.array(out["dl_data"], pa.large_binary()),
    })


_VOCAB = ["a", "ab", "abc", "b", "error", "é", "日本語", "𝄞x", "z"]


def _runs(postings: list[tuple[int, int, int, int]], n_salts: int,
          block_size: int, existing: bool) -> pa.Table:
    """Encode (term, doc, tf, dl) postings into salt runs the way the build
    does (salt = contiguous doc-id range); with ``existing`` the first
    range becomes a salt=-1 run, as an update tags the part it merges
    onto."""
    cfg = IndexConfig(block_size=block_size)
    seen = {}
    for t, doc, tf, dl in postings:  # one posting per (term, doc)
        seen[(t, doc)] = (tf, dl)
    n_docs = 1 + max((doc for _, doc in seen), default=0)
    runs = []
    for salt in range(n_salts):
        lo, hi = n_docs * salt // n_salts, n_docs * (salt + 1) // n_salts
        keys = [k for k in seen if lo <= k[1] < hi]
        if not keys:
            runs.append(_empty_run_table())
            continue
        grp = pa.table({
            "part": pa.array([3] * len(keys), pa.int32()),
            "salt": pa.array([salt] * len(keys), pa.int32()),
            "term": pa.array([_VOCAB[t] for t, _ in keys], pa.string()),
            "doc_id": pa.array([d for _, d in keys], pa.int64()),
            "tf": pa.array([seen[k][0] for k in keys], pa.int32()),
            "dl": pa.array([seen[k][1] for k in keys], pa.int32()),
        })
        run = encode_runs(grp, cfg, avgdl=7.5)
        if existing and salt == 0:
            run = run.set_column(1, "salt", pa.array(
                np.full(run.num_rows, -1, dtype=np.int32)))
        runs.append(run)
    # arrival order must not matter: the merge sorts by (term, salt)
    return pa.concat_tables(runs[::-1])


_POSTINGS = st.lists(
    st.tuples(st.integers(0, len(_VOCAB) - 1), st.integers(0, 300),
              st.integers(1, 40), st.integers(1, 200)),
    min_size=1, max_size=400)


@settings(max_examples=150, deadline=None)
@given(_POSTINGS, st.integers(1, 4), st.sampled_from([1, 2, 3, 16]),
       st.booleans())
def test_merge_runs_equals_reference(postings, n_salts, block_size,
                                     existing):
    rows = _runs(postings, n_salts, block_size, existing)
    got = merge_runs(rows)
    want = reference_merge_runs(rows)
    assert got.schema == SEGMENT_SCHEMA
    assert got.schema == want.schema
    assert got.to_pydict() == want.to_pydict()


def test_merge_runs_sliced_and_chunked_input():
    """Input columns that are slices of bigger arrays, spread over several
    chunks (what ``concat_tables`` of task results gives)."""
    rows = _runs([(t % len(_VOCAB), d, 1 + d % 5, 3 + d % 11)
                  for t in range(20) for d in range(0, 200, 1 + t)],
                 n_salts=3, block_size=4, existing=True)
    rows = pa.concat_tables([rows.slice(0, 5), rows.slice(5)])
    padded = pa.concat_tables([rows, rows]).slice(0, rows.num_rows)
    assert merge_runs(padded).to_pydict() == \
        reference_merge_runs(rows).to_pydict()


def test_merge_runs_empty():
    assert merge_runs(_empty_run_table()).equals(
        SEGMENT_SCHEMA.empty_table())
