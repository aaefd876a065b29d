"""Self-tests of the benchmark: seeded inputs, metric names, the
correctness gate and the traced-run coverage check.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys

import numpy as np
import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

SMALL = dict(docs=300, batches=2, batch_docs=60, hot=40, tail=40,
             events=500)


def _digest(path: str) -> str:
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(path)):
        for f in sorted(files):
            h.update(f.encode())
            with open(os.path.join(d, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("in"))
    manifest = gen.generate(out, seed=5, **SMALL)
    return out, manifest


def _tables(out: str, batches: int) -> list[pa.Table]:
    import pyarrow.parquet as pq

    return [pq.read_table(os.path.join(out, "corpus"))] + [
        pq.read_table(os.path.join(out, f"delta-{b}"))
        for b in range(batches)]


def test_same_seed_same_bytes_other_seed_other_bytes(inputs, tmp_path):
    out, _ = inputs
    gen.generate(str(tmp_path / "again"), seed=5, **SMALL)
    gen.generate(str(tmp_path / "other"), seed=6, **SMALL)
    assert _digest(out) == _digest(str(tmp_path / "again"))
    assert _digest(out) != _digest(str(tmp_path / "other"))


def test_inputs_have_the_documented_shape(inputs):
    out, manifest = inputs
    base, *deltas = _tables(out, SMALL["batches"])
    keys = oracle.keys_of(base).to_pylist()
    assert len(keys) - len(set(keys)) == SMALL["docs"] // 100
    for b, delta in enumerate(deltas):
        marker = manifest["markers"][b]["marker"]
        has = [marker in c for c in delta["content"].to_pylist()]
        assert sum(has) == manifest["markers"][b]["new_docs"]
    assert all(len(oracle.analyze(r["text"])) in (2, 3)
               for r in manifest["tail"])
    assert {r["template"] for r in manifest["hot_warm"]} == set(
        range(len(gen.HOT_TEMPLATES)))


def test_hot_mix_repeats_its_shares_in_every_round():
    reqs = gen.hot_requests(np.random.default_rng(0), 2 * gen.HOT_ROUND,
                            ["org0/repo0"])
    rounds = [[r["template"] for r in reqs[i:i + gen.HOT_ROUND]]
              for i in (0, gen.HOT_ROUND)]
    counts = [np.bincount(r, minlength=len(gen.HOT_TEMPLATES))
              for r in rounds]
    assert (counts[0] == counts[1]).all() and counts[0].sum() == 1000
    assert (np.diff(counts[0]) <= 0).all() and counts[0][-1] > 0
    assert rounds[0] != rounds[1]


def test_metric_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"])


@pytest.fixture(scope="module")
def reference(inputs):
    out, _ = inputs
    return oracle.Reference(oracle.assign_ids(_tables(out,
                                                      SMALL["batches"])))


def test_reference_matches_the_repo_oracle(reference):
    """The DuckDB reference and the engine's pure-Python oracle agree bit
    for bit on the hot templates."""
    bm25 = pytest.importorskip("logsentinelai_ray.query.bm25")
    docs = [(i, reference.con.execute(
        "SELECT content FROM docs WHERE doc_id = ?", [i]).fetchone()[0])
        for i in range(reference.n)]
    attrs = {i: {f: reference.attrs[f][i] for f in reference.attrs}
             for i in range(reference.n)}
    ref2 = bm25.BM25Oracle(docs, attrs)
    for t in gen.HOT_TEMPLATES:
        f = {k: ("python" if v == "{lang}" else "org1/repo1")
             for k, v in t.get("filters", {}).items()}
        want = ref2.search(t["text"], t["k"], f or None)
        assert oracle.compare_topk(
            reference.search(t["text"], t["k"], f or None), want) is None


def test_gate_rejects_a_perturbed_score(reference):
    want = reference.search("authentication failure error", 10)
    assert oracle.compare_topk(list(want), want) is None
    bad = list(want)
    bad[3] = (bad[3][0], float(np.nextafter(bad[3][1], 0.0)))
    assert "rank 3" in oracle.compare_topk(bad, want)
    assert oracle.compare_topk(want[:-1], want) is not None


def _result(reference, ids: list[int]) -> pa.Table:
    keys = [reference.keys[i].split("\x00") for i in ids]
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "repo": [k[0] for k in keys], "path": [k[1] for k in keys],
        "commit": [k[2] for k in keys],
        "sha256": [reference.sha[i] for i in ids]})


def test_gate_rejects_a_missing_marker_doc(inputs, reference):
    out, manifest = inputs
    base, delta, _ = _tables(out, SMALL["batches"])
    want = set(oracle.keys_of(delta).to_pylist()) - set(
        oracle.keys_of(base).to_pylist())
    ids = [i for i, k in reference.keys.items() if k in want]
    assert len(ids) == manifest["markers"][0]["new_docs"]
    full = _result(reference, ids)
    assert oracle.check_marker(full, want) is None
    assert oracle.check_docs(full, reference) is None
    assert "1 batch docs missing" in oracle.check_marker(
        full.slice(1), want)


def test_gate_rejects_a_wrong_sha256(reference):
    res = _result(reference, [0, 1, 2])
    assert oracle.check_docs(res, reference) is None
    sha = res["sha256"].to_pylist()
    sha[1] = "0" * 64
    res = res.set_column(4, "sha256", pa.array(sha))
    assert "doc 1" in oracle.check_docs(res, reference)


def test_gate_rejects_a_wrong_analytics_row(inputs):
    out, _ = inputs
    sql = ("SELECT event_type, count(*)::BIGINT AS n FROM events "
           "GROUP BY 1 ORDER BY 1")
    want = oracle.run_sql(sql, out)
    assert len(want) == len(gen.EVENT_TYPES)
    # row order does not matter; a changed value or a lost row does
    assert oracle.compare_rows(want.iloc[::-1], want) is None
    bad = want.copy()
    bad.loc[2, "n"] += 1
    assert "row" in oracle.compare_rows(bad, want)
    assert "rows, want" in oracle.compare_rows(want.iloc[1:], want)


def test_tracer_links_children_to_their_request():
    tr = spans.Tracer(True)
    with tr.span("query.shards.search", 7):
        with tr.span("query.postings.decode_all"):
            pass
    assert [(s[1], s[4], s[5]) for s in tr.spans] == [
        ("query.shards.search", None, 7), ("query.postings.decode_all", 0, 7)]
    assert spans.Tracer(False).span("x") is spans.Tracer(False).span("y")


def test_coverage_fails_when_a_layer_span_is_dropped():
    # (id, name, start, end, parent, request): three back-to-back
    # top-level calls fill the window [0, 3]
    timed = [(0, "index.build.build_index", 0.0, 1.0, None, None),
             (1, "query.shards.search", 1.0, 2.0, None, 1),
             (2, "query.postings.decode_all", 1.2, 1.7, 1, 1),
             (3, "query.shards.msearch", 2.0, 2.95, None, 2)]
    window = [(0.0, 3.0)]
    assert spans.coverage(timed, window) >= 0.9
    for dropped in (0, 1, 3):
        kept = [s for s in timed if s[0] != dropped]
        assert spans.coverage(kept, window) < 0.9
    own = spans.self_times(timed)
    assert own["query.shards"] == pytest.approx(1.0 - 0.5 + 0.95)
    assert own["query.postings"] == pytest.approx(0.5)
    assert own["index.build"] == pytest.approx(1.0)
