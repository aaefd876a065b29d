"""One content pass in the build: each finalize task writes its docs/
file and tokenizes the same in-memory table into the postings exchange.

- The fused stage writes the same index the two-pass build (a separate
  Ray Data emit plan over docs/) wrote: digests of the segment rows per
  part, the sorted exchange rows, docs, docmap, positions and stats.json
  are pinned from the two-pass build, after a build and after 3 updates.
- A build and an update from Parquet paths under the driver-dedup
  threshold run no Ray Data plan.
- A retried finalize unit overwrites its own exchange files."""

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

_POS_CFG = dict(num_partitions=4, salt_buckets=2, block_size=16,
                store_positions=True, index_path_field=True,
                tokenize_batch_size=64)

# case -> (input route, IndexConfig overrides)
CASES = {
    "path-default": ("path", {}),
    "arrow-default": ("arrow", {}),
    "path-positions": ("path", _POS_CFG),
    "arrow-positions": ("arrow", _POS_CFG),
    "path-scale": ("path", dict(driver_dedup_max_rows=0)),
    "arrow-scale": ("arrow", dict(driver_dedup_max_rows=0)),
    "rowgroups": ("rowgroups", {}),
}

# combined digest per (case, after build / after 3 updates), taken from
# the two-pass build (separate emit plan) over the same inputs
PINNED = {
    "arrow-default": ("662486e706c7aed4", "d40acc707dfe9df9"),
    "arrow-positions": ("c657e9f0606bce53", "4f880157c35e3b16"),
    "arrow-scale": ("662486e706c7aed4", "d40acc707dfe9df9"),
    "path-default": ("662486e706c7aed4", "d40acc707dfe9df9"),
    "path-positions": ("c657e9f0606bce53", "4f880157c35e3b16"),
    "path-scale": ("662486e706c7aed4", "d40acc707dfe9df9"),
    "rowgroups": ("662486e706c7aed4", "d40acc707dfe9df9"),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _rows(tbl: pa.Table) -> list[tuple]:
    cols = [tbl[c].to_pylist() for c in tbl.column_names]
    return list(zip(*cols))


def _sorted_rows(paths: list[str]) -> list[tuple]:
    return sorted(r for p in paths for r in _rows(pq.read_table(p)))


def _parquet_files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def exchange_rows(exchange_dir: str) -> list[tuple]:
    """Sorted exchange rows, term cast from dictionary to string and part
    taken from the ``part=P`` directory name."""
    out = []
    for pdir in sorted(os.listdir(exchange_dir)):
        if not pdir.startswith("part="):
            continue
        part = int(pdir.split("=", 1)[1])
        for f in _parquet_files(os.path.join(exchange_dir, pdir)):
            tbl = pq.read_table(f)
            tbl = tbl.set_column(tbl.column_names.index("term"), "term",
                                 tbl["term"].cast(pa.string()))
            out.extend((part,) + r for r in _rows(tbl))
    return sorted(out)


def index_digests(idx: str) -> dict[str, str]:
    """Component digests of an index directory: segment rows per part (in
    file order), sorted exchange rows, docs and docmap rows sorted by
    doc_id, positions rows per file, and stats.json."""
    out = {}
    for f in _parquet_files(os.path.join(idx, "segments")):
        out[f"segments/{os.path.basename(f)}"] = _digest(
            _rows(pq.read_table(f)))
    out["postings_raw"] = _digest(
        exchange_rows(os.path.join(idx, "postings_raw")))
    for d in ("docs", "docmap"):
        out[d] = _digest(_sorted_rows(_parquet_files(os.path.join(idx, d))))
    pos = os.path.join(idx, "positions")
    if os.path.isdir(pos):
        for pdir in sorted(os.listdir(pos)):
            if pdir.startswith("part="):
                for f in _parquet_files(os.path.join(pos, pdir)):
                    out[f"positions/{pdir}/{os.path.basename(f)}"] = \
                        _digest(_rows(pq.read_table(f)))
    with open(os.path.join(idx, "stats.json")) as f:
        out["stats"] = _digest(json.dumps(json.load(f), sort_keys=True))
    return out


def _combined(components: dict[str, str]) -> str:
    return _digest(sorted(components.items()))


def _base_corpus() -> pa.Table:
    from logsentinelai_ray.config import CorpusConfig
    from logsentinelai_ray.corpus import generate_corpus

    return generate_corpus(CorpusConfig(n_docs=300, seed=11))


def _write_delta(base: pa.Table, i: int, out_dir: str) -> list[str]:
    """Delta ``i``: 60 fresh docs, 10 rows already in the base and one row
    repeated inside the delta, split over two files."""
    from logsentinelai_ray.config import CorpusConfig
    from logsentinelai_ray.corpus import generate_corpus

    fresh = generate_corpus(CorpusConfig(n_docs=60, seed=100 + i),
                            counter_base=10_000 * (i + 1))
    tbl = pa.concat_tables([fresh.slice(0, 35), base.slice(20 * i, 10),
                            fresh.slice(35), fresh.slice(3, 1)])
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for j, (s, n) in enumerate(((0, 40), (40, tbl.num_rows - 40))):
        f = os.path.join(out_dir, f"d{j}.parquet")
        pq.write_table(tbl.slice(s, n), f)
        files.append(f)
    return files


def run_case(case: str, work: str) -> tuple[dict, dict]:
    """Build the case's index, then apply 3 updates; returns the component
    digests after the build and after the updates."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.update import update_index

    route, overrides = CASES[case]
    cfg = IndexConfig(**overrides)
    base = _base_corpus()
    src = os.path.join(work, "corpus")
    os.makedirs(src, exist_ok=True)
    if route == "path":
        for j in range(3):
            pq.write_table(base.slice(100 * j, 100),
                           os.path.join(src, f"c{j}.parquet"))
        corpus = src
    elif route == "rowgroups":
        pq.write_table(base, os.path.join(src, "c.parquet"),
                       row_group_size=64)
        assert pq.ParquetFile(os.path.join(src, "c.parquet")) \
            .metadata.num_row_groups > 1
        corpus = src
    else:
        corpus = rd.from_arrow([base.slice(100 * j, 100) for j in range(3)])
    idx = os.path.join(work, "idx")
    build_index(corpus, idx, cfg, corpus_tag=case)
    built = index_digests(idx)
    for i in range(3):
        files = _write_delta(base, i, os.path.join(work, f"delta{i}"))
        update_index(files, idx, cfg, delta_tag=f"{case}-d{i}")
    return built, index_digests(idx)


@pytest.mark.parametrize("case", sorted(CASES))
def test_index_equals_two_pass_build(case, tmp_path):
    built, updated = run_case(case, str(tmp_path))
    assert (_combined(built), _combined(updated)) == PINNED[case], \
        (built, updated)


@pytest.mark.parametrize("path_field", [False, True],
                         ids=["default", "path-field"])
def test_path_route_runs_no_ray_data_plan(tmp_path, monkeypatch,
                                          path_field):
    """With the path field on, the build and the update also write the
    norms sidecar, from the same pass and still without a plan."""
    import ray.data as rd

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import manifest as mf
    from logsentinelai_ray.index.build import build_index
    from logsentinelai_ray.index.update import update_index

    base = _base_corpus()
    src = str(tmp_path / "corpus")
    os.makedirs(src)
    pq.write_table(base, os.path.join(src, "c.parquet"))

    def refuse(*_a, **_k):
        raise AssertionError("a Ray Data plan ran")

    monkeypatch.setattr(rd, "read_parquet", refuse)
    monkeypatch.setattr(rd, "from_arrow_refs", refuse)
    idx = str(tmp_path / "idx")
    cfg = IndexConfig(num_partitions=4, salt_buckets=2,
                      index_path_field=path_field)
    meta = build_index(src, idx, cfg, corpus_tag="noplan")
    assert meta["n_docs"] > 0
    assert "emit_postings_s" not in meta["timings"]
    files = _write_delta(base, 0, str(tmp_path / "delta"))
    res = update_index(files, idx, cfg, delta_tag="noplan-d0")
    assert res["n_new_docs"] == 60
    norms = os.path.join(idx, "norms")
    if path_field:
        ids = pq.read_table(norms, columns=["doc_id"])["doc_id"]
        assert sorted(ids.to_pylist()) == \
            list(range(mf.read_stats(idx)["n_docs"]))
    else:
        assert not os.path.exists(norms)


def test_retried_finalize_unit_writes_no_duplicate_rows(tmp_path):
    """A finalize unit run twice (a Ray task retry) overwrites its own
    docs/ file and exchange slices: the exchange holds one copy."""
    import numpy as np

    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import _finalize

    cfg = IndexConfig(num_partitions=4, salt_buckets=2,
                      store_positions=True, tokenize_batch_size=50)
    tbl = _base_corpus().slice(0, 120)
    ids = np.arange(1000, 1120, dtype=np.int64)
    ids[7] = -1  # a duplicate row the unit drops
    exchange = str(tmp_path / "postings_raw")
    out = str(tmp_path / "part-00000.parquet")

    first = _finalize(tbl, ids, out, cfg, 2000, exchange)
    rows = exchange_rows(exchange)
    pos_rows = exchange_rows(exchange + "_pos")
    second = _finalize(tbl, ids, out, cfg, 2000, exchange)
    assert first == second and first[0] == 119
    assert first[1][0] == len(rows) > 0
    assert exchange_rows(exchange) == rows
    assert exchange_rows(exchange + "_pos") == pos_rows
    assert len(set(rows)) == len(rows)
    assert pq.read_table(out).num_rows == 119
