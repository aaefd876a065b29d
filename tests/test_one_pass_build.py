"""One content pass in the build: each finalize task writes its docs/
file and tokenizes the same in-memory table into the postings exchange.

- The fused stage writes the same index the two-pass build (a separate
  Ray Data emit plan over docs/) wrote: digests of the segment rows per
  part, docs, docmap, positions and stats.json are pinned, after a build
  and after 3 updates, and no postings exchange survives either.
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

# component digests (after build, after 3 updates), recorded while the
# build still kept its exchange; they equal the two-pass build's, which
# the combined digests of that layout pinned
_DEFAULT_PINS = ({
    "docmap": "434f34a3a34a7293",
    "docs": "a550a8be5e2c5d48",
    "segments/part-0000.parquet": "d984c42c58d2d0a9",
    "segments/part-0001.parquet": "532c605a5afa79f7",
    "segments/part-0002.parquet": "b4907268c0c28ff9",
    "segments/part-0003.parquet": "d02d417e7785b6e7",
    "segments/part-0004.parquet": "6c473bc631926f2a",
    "segments/part-0005.parquet": "a130295fed14617a",
    "segments/part-0006.parquet": "03985093c592210f",
    "segments/part-0007.parquet": "e2a700ef19d439be",
    "stats": "2d1faa193b8f818c",
}, {
    "docmap": "59ecd5fad88cdaff",
    "docs": "1af4c993c3195795",
    "segments/part-0000.parquet": "abd432956cc720ec",
    "segments/part-0001.parquet": "ae1bcd9cfc2e9a98",
    "segments/part-0002.parquet": "715fef2716376b77",
    "segments/part-0003.parquet": "4f15c610f548a943",
    "segments/part-0004.parquet": "5f3c5102f5e50ae5",
    "segments/part-0005.parquet": "745c9d95d0ff0f61",
    "segments/part-0006.parquet": "6c21f239f8c3f322",
    "segments/part-0007.parquet": "ea17e44a981b66cf",
    "stats": "1d2b151124cb258e",
})
_POS_BASE = {
    "positions/part=0/base-00.parquet": "3c8fd446a32540e6",
    "positions/part=0/base-01.parquet": "924755f53ca46cfe",
    "positions/part=1/base-00.parquet": "a43ae4531b55db86",
    "positions/part=1/base-01.parquet": "8a04a633784d15eb",
    "positions/part=2/base-00.parquet": "c171792712421144",
    "positions/part=2/base-01.parquet": "8485a5464827009f",
    "positions/part=3/base-00.parquet": "3fba00dc0cb8ef1c",
    "positions/part=3/base-01.parquet": "0886073f4cf4b328",
}
_POSITIONS_PINS = ({
    **_POS_BASE,
    "docmap": "434f34a3a34a7293",
    "docs": "a550a8be5e2c5d48",
    "segments/part-0000.parquet": "85ab65c71e90d4d4",
    "segments/part-0001.parquet": "6ebcb506d2e89a92",
    "segments/part-0002.parquet": "e92c7063cdbe5cb1",
    "segments/part-0003.parquet": "5944ce7f1e98f475",
    "stats": "de592fe14e67d7e9",
}, {
    **_POS_BASE,
    "docmap": "59ecd5fad88cdaff",
    "docs": "1af4c993c3195795",
    "positions/part=0/delta-000000000300.parquet": "97c90c3b0fb2174f",
    "positions/part=0/delta-000000000360.parquet": "cbd2aae48147d2e8",
    "positions/part=0/delta-000000000420.parquet": "5daa87da7cd235c6",
    "positions/part=1/delta-000000000300.parquet": "c357169ba98ef39c",
    "positions/part=1/delta-000000000360.parquet": "3a226cdb74f358e5",
    "positions/part=1/delta-000000000420.parquet": "10617cd3cbf950f9",
    "positions/part=2/delta-000000000300.parquet": "3587f7f62ebd44e3",
    "positions/part=2/delta-000000000360.parquet": "2dbbeb094c0de934",
    "positions/part=2/delta-000000000420.parquet": "7cd45d332c766df8",
    "positions/part=3/delta-000000000300.parquet": "28b495d42f30d80b",
    "positions/part=3/delta-000000000360.parquet": "d0f3ad156ad67af9",
    "positions/part=3/delta-000000000420.parquet": "6aa3dbe5f7812a4a",
    "segments/part-0000.parquet": "42b3d7f6d6354ff0",
    "segments/part-0001.parquet": "3bb435189d39ea11",
    "segments/part-0002.parquet": "436c899fd3317054",
    "segments/part-0003.parquet": "3db7d2799169313f",
    "stats": "4740e8fd81314e22",
})
PINNED = {case: _POSITIONS_PINS if cfg is _POS_CFG else _DEFAULT_PINS
          for case, (_route, cfg) in CASES.items()}


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
    file order), docs and docmap rows sorted by doc_id, positions rows per
    file, and stats.json."""
    out = {}
    for f in _parquet_files(os.path.join(idx, "segments")):
        out[f"segments/{os.path.basename(f)}"] = _digest(
            _rows(pq.read_table(f)))
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


def _exchanges(idx: str) -> list[str]:
    return sorted(d for d in os.listdir(idx)
                  if d.startswith(("postings_raw", "postings_delta")))


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
    digests after the build and after the updates. No postings exchange
    survives the build or any update."""
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
    assert _exchanges(idx) == []
    built = index_digests(idx)
    for i in range(3):
        files = _write_delta(base, i, os.path.join(work, f"delta{i}"))
        update_index(files, idx, cfg, delta_tag=f"{case}-d{i}")
        assert _exchanges(idx) == []
    return built, index_digests(idx)


@pytest.mark.parametrize("case", sorted(CASES))
def test_index_equals_two_pass_build(case, tmp_path):
    built, updated = run_case(case, str(tmp_path))
    assert (built, updated) == PINNED[case]


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
    docs/ file and exchange slices: the exchange holds one copy, and the
    unit reports the rows and bytes it holds."""
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
    assert first[1][1] == sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(exchange) for f in files)
    assert exchange_rows(exchange) == rows
    assert exchange_rows(exchange + "_pos") == pos_rows
    assert len(set(rows)) == len(rows)
    assert pq.read_table(out).num_rows == 119
