"""One posting-stream format (delta-gap + varint): indexes that carry no
``codec`` key or a descriptive one read as varint, and an index written
with the removed "bitpack" codec is refused with a rebuild message
instead of being misdecoded."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest


def _stats_dir(tmp_path, **extra):
    d = str(tmp_path / "idx")
    os.makedirs(d)
    stats = {"n_docs": 1, "num_partitions": 1, "k1": 1.2, "b": 0.75,
             **extra}
    with open(os.path.join(d, "stats.json"), "w") as f:
        json.dump(stats, f)
    return d


def test_bitpack_index_refused_by_search_engine(tmp_path):
    from logsentinelai_ray.query.shards import SearchEngine

    d = _stats_dir(tmp_path, codec="bitpack")
    with pytest.raises(ValueError, match="bitpack.*rebuild"):
        SearchEngine(d)


def test_bitpack_index_refused_by_update(tmp_path):
    from logsentinelai_ray.index.update import update_index

    d = _stats_dir(tmp_path, codec="bitpack")
    with pytest.raises(ValueError, match="bitpack.*rebuild"):
        update_index([], d)


@pytest.mark.parametrize("extra", [{}, {"codec": "varint"},
                                   {"codec": "delta+varint"}])
def test_legacy_codec_keys_read_as_varint(tmp_path, extra):
    from logsentinelai_ray.index import manifest as mf

    d = _stats_dir(tmp_path, **extra)
    assert mf.read_stats(d)["n_docs"] == 1


def test_term_postings_ignores_codec_key():
    """Row dicts stamped with a ``codec`` key (older fetch paths and
    external tools) decode exactly as unstamped ones."""
    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.segments import encode_runs
    from logsentinelai_ray.query.postings import TermPostings

    ids = np.arange(0, 300, 3, dtype=np.int64)
    group = pa.table({
        "part": pa.array(np.zeros(ids.size, np.int32)),
        "salt": pa.array(np.zeros(ids.size, np.int32)),
        "term": pa.array(["t"] * ids.size),
        "doc_id": pa.array(ids),
        "tf": pa.array((ids % 5 + 1).astype(np.int32)),
        "dl": pa.array((ids % 7 + 3).astype(np.int32)),
    })
    row = encode_runs(group, IndexConfig(block_size=16), 5.0) \
        .to_pylist()[0]
    plain = TermPostings(row).decode_all()
    stamped = TermPostings({**row, "codec": "varint"}).decode_all()
    for a, b in zip(plain, stamped):
        assert (a == b).all()
    assert plain[0].tolist() == ids.tolist()
