"""Keys-only corpus boundary computation (r4 ADVICE: empty tail part
must not raise; r4 verdict #1: no full-corpus materialize in the
multi-index fixtures)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _tiny_sf(tmp_path, n):
    t = pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "lang": pa.array(["en"] * n),
        "text": pa.array([f"alpha beta doc {i}" for i in range(n)]),
    })
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    return str(tmp_path)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_boundary_at_dataset_size_is_supremum(ray_session, tmp_path, n):
    """ILM's [c, 2c] with 2*ceil(n/3) == n: the tail part is empty and
    the boundary must be the supremum sentinel, not an IndexError."""
    from logsentinelai_ray.pipelines.queries import (
        _corpus_boundary_keys,
        _docs_count,
    )

    sf = _tiny_sf(tmp_path, n)
    assert _docs_count(sf) == n
    c = (n + 2) // 3
    b = _corpus_boundary_keys(sf, [c, 2 * c])
    assert b[0] == "r%012d" % c if c < n else b[0] == "r~"
    if 2 * c >= n:
        assert b[1] == "r~"
        # a range starting at the supremum is empty, not the corpus
        assert b[1] > "r%012d" % (n - 1)
    else:
        assert b[1] == "r%012d" % (2 * c)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_key_chunks_readable_when_empty(ray_session, tmp_path, n):
    """Both fixture splits (rollover thirds, ILM's [c, 2c]) leave some
    key ranges empty on a tiny corpus; every chunk directory must still
    read back through read_parquet, and the chunks partition the
    corpus."""
    import ray.data as rd

    from logsentinelai_ray.pipelines.queries import (
        _corpus_boundary_keys,
        _corpusify_docs,
        _read,
        _write_key_chunks,
    )

    sf = _tiny_sf(tmp_path, n)
    c = (n + 2) // 3
    all_counts = []
    for i, idxs in enumerate(([n // 3, 2 * n // 3], [c, 2 * c])):
        src = _read(sf, "documents", columns=["doc_id", "lang", "text"]) \
            .map_batches(_corpusify_docs, batch_format="pyarrow")
        b = _corpus_boundary_keys(sf, idxs)
        chunks = _write_key_chunks(src, b, str(tmp_path / f"w{i}"),
                                   ["0", "1", "2"])
        dss = [rd.read_parquet(p) for p in chunks]
        assert len({tuple(d.schema().names) for d in dss}) == 1
        counts = [d.count() for d in dss]
        assert sum(counts) == n, (idxs, counts)
        all_counts += counts
    assert 0 in all_counts


def test_boundary_keys_match_sorted_ids(ray_session, tmp_path):
    from logsentinelai_ray.pipelines.queries import _corpus_boundary_keys

    sf = _tiny_sf(tmp_path, 10)
    assert _corpus_boundary_keys(sf, [3, 7]) == \
        ["r%012d" % 3, "r%012d" % 7]


def test_fixture_preps_do_not_materialize_corpus():
    """Guard the r4 verdict item: no full-corpus .materialize() in the
    fixture preps (the only allowed materializes in queries.py are the
    documented small derived ones)."""
    import inspect

    from logsentinelai_ray.pipelines import queries as q

    for fn in (q.q_federated_search, q.q_rollover_search,
               q.q_ilm_search):
        assert ".materialize()" not in inspect.getsource(fn), fn
