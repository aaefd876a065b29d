"""Once no build or update has run for a while, the pooled Ray task
workers are handed back: the serving process that follows carries no idle
workers, while a round that follows within the window keeps the warm pool,
and an update on an empty pool, concurrent Ray Data plans and CPU-holding
actors keep working."""

import os
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from tests.conftest import QUERY_SET


def _tree_pids(root: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def _idle_workers() -> set[int]:
    """Pids in this process's tree whose cmdline is ``ray::IDLE`` (an idle
    pooled worker)."""
    out = set()
    for pid in _tree_pids(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::IDLE"):
                    out.add(pid)
        except OSError:
            continue
    return out


def _alive(pids: set[int]) -> set[int]:
    out = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            out.add(pid)
    return out


def _wait_gone(pids: set[int], timeout_s: float) -> set[int]:
    deadline = time.monotonic() + timeout_s
    left = _alive(pids)
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = _alive(left)
    return left


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    from logsentinelai_ray.config import CorpusConfig
    from logsentinelai_ray.corpus import generate_corpus

    root = tmp_path_factory.mktemp("release")
    base = generate_corpus(CorpusConfig(n_docs=400, seed=41))
    delta = pa.concat_tables([
        generate_corpus(CorpusConfig(n_docs=120, seed=42)),
        base.slice(0, 6)])  # re-sent rows the update drops
    for name, tbl in (("base", base), ("delta", delta)):
        os.makedirs(root / name)
        pq.write_table(tbl, str(root / name / "part-0.parquet"))
    # the same files side by side: a full build over base + delta
    os.makedirs(root / "union")
    pq.write_table(base, str(root / "union" / "part-0.parquet"))
    pq.write_table(delta, str(root / "union" / "part-1.parquet"))
    return root


def _build(corpora, name: str, out: str, tag: str):
    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index.build import build_index

    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=16)
    return build_index(str(corpora / name), str(corpora / out), cfg,
                       corpus_tag=tag)


def _started(pid: int) -> int:
    """Start time of ``pid`` in clock ticks since boot (/proc stat field
    22); 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[19])
    except (OSError, ValueError, IndexError):
        return 0


def test_idle_pool_is_released(ray_session, corpora, monkeypatch):
    """Idle workers older than the release exit within seconds of it (Ray
    reaps a retired worker ~0.5-1 s after its last task). The release
    comes when no build or update followed within the window; before
    it, Ray kept up to one idle worker per CPU alive for as long as the
    process lived."""
    from logsentinelai_ray.index import build

    monkeypatch.setattr(build, "_RELEASE_AFTER_S", 2.0)
    _build(corpora, "base", "idx_a", "a")
    timer = build._release_timer
    assert timer is not None and timer.is_alive()
    # taken before the release is due: every pid here predates it
    idle = {p: _started(p) for p in _idle_workers()}
    timer.join(timeout=60)
    assert not timer.is_alive()
    left = {p for p in _wait_gone(set(idle), timeout_s=10.0)
            if _started(p) == idle[p]}  # not a reused pid
    assert not left, f"idle workers still alive 10 s after the release: {left}"


def test_next_round_within_window_keeps_pool(ray_session, corpora,
                                             monkeypatch):
    """An update that starts within the window of a build cancels the
    pending release, and the release is due again only once the update
    returns; nothing is released in between."""
    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import build
    from logsentinelai_ray.index.update import update_index

    released = []
    monkeypatch.setattr(build, "release_workers",
                        lambda: released.append(time.monotonic()))
    _build(corpora, "base", "idx_w", "w")
    first = build._release_timer
    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=16)
    update_index(str(corpora / "delta"), str(corpora / "idx_w"), cfg,
                 delta_tag="w")
    second = build._release_timer
    assert first is not second and not first.is_alive()
    assert second.is_alive() and not released
    monkeypatch.setattr(build, "_RELEASE_AFTER_S", 0.2)
    _build(corpora, "base", "idx_w2", "w2")
    assert not second.is_alive()
    build._release_timer.join(timeout=30)
    assert len(released) == 1


def test_update_on_empty_pool_matches_rebuild(ray_session, corpora,
                                              monkeypatch):
    """An update after the build's pool was released starts afresh; its
    results equal a full build over base + delta: the same documents at
    the same scores, in the same order (doc ids differ between the two
    indexes, so ties compare by document key)."""
    from logsentinelai_ray.config import IndexConfig
    from logsentinelai_ray.index import build
    from logsentinelai_ray.index.update import update_index
    from logsentinelai_ray.query.shards import SearchEngine

    monkeypatch.setattr(build, "_RELEASE_AFTER_S", 2.0)
    _build(corpora, "base", "idx_b", "b")
    idle = _idle_workers()
    build._release_timer.join(timeout=60)  # the window passes
    assert not _wait_gone(idle, timeout_s=10.0)
    cfg = IndexConfig(num_partitions=4, salt_buckets=2, block_size=16)
    res = update_index(str(corpora / "delta"), str(corpora / "idx_b"), cfg,
                       delta_tag="d")
    assert res["n_new_docs"] == 120
    _build(corpora, "union", "idx_full", "full")

    def ranked(idx: str, q: str, strategy: str) -> list[tuple]:
        got = eng[idx].search(q, k=1000, strategy=strategy)
        keys = zip(got["repo"].to_pylist(), got["path"].to_pylist(),
                   got["commit"].to_pylist())
        rows = [(-s, k) for s, k in zip(got["score"].to_pylist(), keys)]
        return sorted(rows)

    eng = {i: SearchEngine(str(corpora / i), num_shards=2)
           for i in ("idx_b", "idx_full")}
    try:
        for q in QUERY_SET:
            for strategy in ("taat", "wand"):
                a = ranked("idx_b", q, strategy)
                assert a == ranked("idx_full", q, strategy), (q, strategy)
    finally:
        for e in eng.values():
            e.shutdown()


def test_concurrent_plan_survives_release(ray_session, corpora,
                                          monkeypatch):
    """A Ray Data plan running in a second driver thread while the pool
    is released still returns the right answer, every time."""
    import ray.data as rd

    from logsentinelai_ray.index import build

    monkeypatch.setattr(build, "_RELEASE_AFTER_S", 0.5)

    stop = threading.Event()
    results, errors = [], []

    def plans():
        while not stop.is_set():
            try:
                ds = rd.range(2000, override_num_blocks=8).map_batches(
                    lambda b: {"id": b["id"] * 3}, batch_format="numpy")
                results.append(ds.sum("id"))
            except Exception as e:  # reported below
                errors.append(e)
                return

    t = threading.Thread(target=plans)
    t.start()
    try:
        _build(corpora, "base", "idx_c", "c")
        build._release_timer.join(timeout=60)
        time.sleep(1.0)  # plans submitted while retired workers exit
    finally:
        stop.set()
        t.join(timeout=120)
    assert not t.is_alive()
    assert not errors, errors
    assert results
    assert set(results) == {3 * sum(range(2000))}


def test_release_with_cpu_held_by_actor(ray_session, corpora):
    """An actor holding a CPU leaves fewer free CPUs than the cluster has:
    a release still returns promptly, on a full pool and on an empty
    one, and never touches the actor."""
    from logsentinelai_ray.index.build import release_workers

    @ray.remote(num_cpus=1)
    class Holder:
        def pid(self) -> int:
            return os.getpid()

    holder = Holder.remote()
    pid = ray.get(holder.pid.remote())
    try:
        t = time.monotonic()
        _build(corpora, "base", "idx_d", "d")
        assert time.monotonic() - t < 120
        for _ in range(2):  # the build's pool, then an empty one
            t = time.monotonic()
            release_workers()
            assert time.monotonic() - t < 5
        assert ray.get(holder.pid.remote(), timeout=30) == pid
        assert _alive({pid}) == {pid}
    finally:
        ray.kill(holder)
