"""The one top-k selection (query/shards.py ``top_k``): exact (score
desc, id asc) order, equal to a full lexsort under heavy score ties,
repeated ids, k past the input size and k <= 0 — and every engine
surface answers k=0 / size 0 with zero rows."""

import numpy as np
import pytest


def _reference(ids: np.ndarray, scores: np.ndarray, k: int):
    order = np.lexsort((ids, -scores))[:max(k, 0)]
    return [(int(ids[i]), float(scores[i])) for i in order]


def test_partition_topk_equals_lexsort_under_ties():
    """The partition shortcut engages above 4k inputs; tie-heavy score
    draws put many ids at the k-th value."""
    from logsentinelai_ray.query.shards import top_k

    rng = np.random.RandomState(7)
    for trial in range(300):
        n = rng.randint(50, 3000)
        k = rng.randint(1, 40)
        scores = rng.choice(rng.random_sample(rng.randint(1, 8)), size=n)
        ids = rng.choice(10 ** 6, size=n, replace=False)
        assert top_k(ids, scores, k) == _reference(ids, scores, k), \
            (trial, n, k)


def test_top_k_repeated_ids_and_zero_scores():
    """Results merged from separate indexes repeat ids; id-set scorers
    (kql / sqs) rank totals that can be 0 — top_k drops neither."""
    from logsentinelai_ray.query.shards import top_k

    rng = np.random.RandomState(11)
    for trial in range(200):
        n = rng.randint(1, 400)
        k = rng.randint(1, 30)
        ids = rng.randint(0, max(2, n // 3), size=n)
        scores = rng.choice([0.0, 0.5, 1.25, 3.0], size=n)
        assert top_k(ids, scores, k) == _reference(ids, scores, k), \
            (trial, n, k)


@pytest.mark.parametrize("k", [0, -1, 5, 6, 1000])
def test_top_k_depth_edges(k):
    from logsentinelai_ray.query.shards import top_k

    ids = np.array([9, 4, 7, 1, 3], dtype=np.int64)
    scores = np.array([1.0, 2.0, 2.0, 0.5, 2.0])
    got = top_k(ids, scores, k)
    assert got == _reference(ids, scores, k)
    assert len(got) == max(0, min(k, ids.size))
    assert top_k(ids[:0], scores[:0], k) == []


def test_k_zero_returns_no_rows(engine):
    """k=0 (ES size: 0) is a count-only request: no rows, the standard
    schema, on TAAT, WAND, msearch and the DSL alike."""
    ref = engine.search("error", k=1)
    ref_plain = engine.search("error", k=1, with_meta=False)
    for strategy in ("taat", "wand"):
        res = engine.search("error", k=0, strategy=strategy)
        assert res.num_rows == 0 and res.schema == ref.schema, strategy
        res = engine.msearch([{"text": "error", "k": 0}],
                             strategy=strategy)
        assert res.num_rows == 0, strategy
        assert res.column_names == ["query_id"] + ref.column_names
    res = engine.dsl_search({"query": {"match": {"content": "error"}},
                             "size": 0})
    assert res.num_rows == 0 and res.schema == ref_plain.schema


def test_dsl_rejects_negative_page(engine):
    """ES answers a negative from / size with a request error; a slice
    would silently return a wrong page."""
    for page in ({"from": -2}, {"size": -1}):
        with pytest.raises(ValueError, match="must be >= 0"):
            engine.dsl_search({"query": {"match": {"content": "error"}},
                               **page})


def test_engine_taat_partition_path(engine):
    """k=1 over the fixture's >4 candidates takes the partition path on
    a real engine; it must equal the head of the full ordering."""
    full = engine.search("error", k=10_000, with_meta=False)
    top1 = engine.search("error", k=1, with_meta=False)
    assert top1["doc_id"].to_pylist() == full["doc_id"].to_pylist()[:1]
    assert top1["score"].to_pylist() == full["score"].to_pylist()[:1]
