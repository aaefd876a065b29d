"""Index build pipeline — SPIMI over Ray (SURVEY.md §7 phase 2).

Stages (each a checkpoint; a rerun skips completed work via the manifest):

  1+2. prep+emit: ONE task per input unit (file, row group or Dataset
                  block) reads the unit's rows once and, in that same
                  pass, (a) drops duplicates (repo,path,commit keep-first)
                  and stamps the deterministic dense doc_id + sha256,
                  writing ``docs/``; (b) tokenizes the in-memory table in
                  ``tokenize_batch_size``-row slices with the
                  ``_emit_and_partition`` Arrow batch kernel (unchanged;
                  only its caller moved into the finalize task; zero-copy
                  Arrow, vectorized tf via term_tf) → raw triples (part,
                  salt, term, doc_id, tf, dl) + field postings ("lang:x",
                  "repo:y"), written as **hash-partitioned parquet**
                  ``postings_raw/part=P/``. No content moves through a
                  shuffle: only the (key, row) projection is exchanged for
                  id assignment, which runs first; content is read once.
                  The partitioned parquet IS the build's term shuffle: the
                  exchange materializes through partitioned storage, which
                  is what makes the build resumable mid-shuffle (north
                  rule) — a network shuffle that dies loses its partials;
                  a partitioned-parquet exchange doesn't.
  2b. stats     : global N / avgdl / total_tokens from the stage-1+2
                  summary → stats.json.
  3. encode     : one task per (part, salt): read its partition slice, sort,
                  delta+varint+block-max encode (segments.py). salt = S
                  contiguous doc-id ranges, so a Zipf-head term ("error",
                  "import", "the") is encoded by S parallel tasks instead
                  of one — the skew salting the north rule requires.
  4. merge      : one task per part: concatenate the S runs per term
                  (disjoint increasing doc ranges — no re-sort), write
                  ``segments/part-XXXX.parquet`` atomically + manifest
                  entry.
  5. drop       : once every part's manifest entry (and, with
                  ``store_positions``, the positions stage) has committed,
                  ``postings_raw/`` and ``postings_raw_pos/`` are deleted:
                  a finished index holds only what serving reads. The
                  exchange is resumable until then; a rerun that finds a
                  part or positions file missing after the drop runs the
                  prep+emit pass again to re-emit it.

The same pass yields each doc's content and path token counts. With
``index_path_field`` set, the finalize task writes them as the norms
sidecar (``norms/<docs file name>``: doc_id, dl, path_dl, the Lucene
.nvd analog), so a build and every update write norms for exactly the
docs they write.

Ray Data runs only where a plan pays for itself: a Dataset input (its
blocks are materialized once), the scale path's keys-only sort
(``assign_ids``) and distributed docmap sort. A build from Parquet paths
under ``_DRIVER_IDS_MAX_ROWS`` keys runs no Ray Data plan at all.

Why raw tasks for stages 3/4 instead of ``groupby(part).map_groups``: the
exchange already happened at stage-1+2 write time (partition pruning replaces
it), so the reduce side is embarrassingly parallel over a small fixed
keyspace (P*S tasks). Ray Data's sort-based groupby would re-shuffle data
that is already partitioned on disk and pay an all-to-all it doesn't need;
on a 100 TB corpus the partitioned layout additionally means any dead
reduce task replays exactly one partition's files.

Doc-id assignment (stage 1) is ``assign_ids``, shared with
``update_index``: a doc id is the rank of its (repo, path, commit) key
among the keys the index does not hold yet, in sorted-key order, and the
row lowest in (origin, pos) order keeps it — distributed zipWithIndex
with keep-first dedup, the one semantic the Dataset API can't express. A
build is an update with no existing keys. Under ``_DRIVER_IDS_MAX_ROWS``
keys the driver sorts the (key, origin, pos) projection; above it a
keys-only Ray Data sort on the same columns, one bounds task, one emit
task per sorted block (block-local ranks) and one load task per unit
(adding each block's prefix offset) route the ids back to their units.

Worker release: once no build or update has run for ``_RELEASE_AFTER_S``
(10 s), the pooled Ray task workers are retired (``release_workers``):
every one of them holds the imports and heap of the work it ran, and
serving (shard actors + a driver thread pool) never runs a Ray task. A
stream of ingest rounds (the watcher, the realtime monitor) keeps its
pool warm, because each round starts before the window ends.

Reference parity notes: the reference's "index build" is one ES ``index()``
call per chunk with wall-clock ids (reference core/elasticsearch.py:46-77,
314-336) and no parallelism (core/commons.py:459-499); determinism +
partitioned checkpointing here are deliberate design departures mandated by
BASELINE.json.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
import time
from functools import wraps

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq

# all build-side parquet writes go through zstd-1: on this corpus it
# roughly halves the bytes pushed through the (often write-bandwidth-
# bound) exchange and segment sinks at near-snappy CPU cost — measured
# directly on the emit stage (BASELINE.md round 3)
_PQ_WRITE_KW = dict(compression="zstd", compression_level=1)
# the postings exchange is transient (read by the encode and positions
# stages, deleted once they commit): lz4 + stats only on the filter
# column cuts write CPU ~15% at equal size vs zstd-1 (measured A/B at
# 100k docs); persisted artifacts (segments, docs, docmap, sidecars)
# keep zstd-1
_EXCHANGE_WRITE_KW = dict(compression="lz4",
                          write_statistics=["salt", "doc_id"])

import ray

from ..analysis.tokenizer import term_tf, tokenize_batch_arrow
from ..config import IndexConfig
from . import manifest as mf
from .segments import encode_runs, merge_runs

FIELD_PREFIXES = ("lang:", "repo:")


def term_partition(term: str, num_partitions: int) -> int:
    """Stable term → partition hash (blake2b; NEVER Python hash(), which is
    salted per process and would break determinism + routing)."""
    h = int.from_bytes(hashlib.blake2b(term.encode("utf-8"),
                                       digest_size=8).digest(), "big")
    return h % num_partitions


# --------------------------------------------------------------------------
# Stages 1+2: dedup keep-first + deterministic dense doc ids, then one
# pass per unit writes docs/ and the postings exchange
# --------------------------------------------------------------------------

def _keys_of(tbl: pa.Table, origin: int) -> pa.Table:
    key = pc.binary_join_element_wise(tbl["repo"], tbl["path"],
                                      tbl["commit"], "\x00")
    return pa.table({
        "key": key,
        "origin": pa.array(np.full(tbl.num_rows, origin, dtype=np.int32)),
        "pos": pa.array(np.arange(tbl.num_rows, dtype=np.int64)),
    })


@ray.remote(num_cpus=1)
def _block_keys(tbl: pa.Table, origin: int) -> pa.Table:
    """Tiny (key, origin, pos) projection of one block — the only data
    that takes part in the id-assignment/dedup exchange."""
    return _keys_of(tbl, origin)


def _read_unit(src, columns: list[str] | None = None) -> pa.Table:
    """One stage-1 unit of a parquet input: a path, or a (path, row_group)
    pair for a file with several row groups (a single huge file must not
    serialize behind one task)."""
    if isinstance(src, tuple):
        return pq.ParquetFile(src[0]).read_row_group(src[1],
                                                     columns=columns)
    return pq.read_table(src, columns=columns)


@ray.remote(num_cpus=1)
def _file_keys(src, origin: int) -> pa.Table:
    """Same, straight from a parquet unit via column pruning — the content
    column is never read. Origin -1 marks an index's committed docmap
    file: its rows are existing docs."""
    return _keys_of(_read_unit(src, ["repo", "path", "commit"]), origin)


def _write_atomic(tbl: pa.Table, path: str) -> None:
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(tbl, tmp, **_PQ_WRITE_KW)
    os.replace(tmp, path)


def _finalize(tbl: pa.Table, ids: np.ndarray, out_path: str,
              cfg: IndexConfig, n_docs: int, exchange_dir: str
              ) -> tuple[int, tuple[int, int, int, int]]:
    """Apply the per-origin id mapping (-1 = duplicate, drop), add sha256,
    write one docs/ parquet file, then tokenize the same in-memory table
    into the postings exchange — the unit's one content pass. With
    ``cfg.index_path_field`` the pass's per-doc (dl, path_dl) go to
    ``norms/`` under the docs file's name. Returns (docs written, (exchange
    rows, exchange bytes, content tokens, path tokens) summed over the
    unit)."""
    keep = ids >= 0
    if not keep.all():
        tbl = tbl.filter(pa.array(keep))
        ids = ids[keep]
    sha = pa.array([hashlib.sha256(c.encode("utf-8")).hexdigest()
                    for c in tbl["content"].to_pylist()], pa.string())
    out = (tbl.add_column(0, "doc_id", pa.array(ids, pa.int64()))
              .append_column("sha256", sha))
    _write_atomic(out, out_path)
    rows = nbytes = 0
    dl = np.zeros(out.num_rows, dtype=np.int64)
    path_dl = np.zeros(out.num_rows, dtype=np.int64)
    step = cfg.tokenize_batch_size
    for s in range(0, out.num_rows, step):
        n, b, dl[s:s + step], path_dl[s:s + step] = _emit_and_partition(
            out.slice(s, step), cfg, n_docs, exchange_dir)
        rows += n
        nbytes += b
    if cfg.index_path_field:
        norms_dir = os.path.join(os.path.dirname(os.path.dirname(out_path)),
                                 "norms")
        os.makedirs(norms_dir, exist_ok=True)
        _write_atomic(pa.table({"doc_id": out["doc_id"],
                                "dl": pa.array(dl),
                                "path_dl": pa.array(path_dl)}),
                      os.path.join(norms_dir, os.path.basename(out_path)))
    return out.num_rows, (rows, nbytes, int(dl.sum()), int(path_dl.sum()))


@ray.remote(num_cpus=1, num_returns=2)
def _finalize_block(tbl: pa.Table, ids: np.ndarray, out_path: str,
                    cfg: IndexConfig, n_docs: int, exchange_dir: str):
    return _finalize(tbl, ids, out_path, cfg, n_docs, exchange_dir)


@ray.remote(num_cpus=1, num_returns=2)
def _finalize_file(src, ids: np.ndarray, out_path: str, cfg: IndexConfig,
                   n_docs: int, exchange_dir: str):
    return _finalize(_read_unit(src), ids, out_path, cfg, n_docs,
                     exchange_dir)


# above this many keys (existing + new) the id assignment leaves the
# driver: the driver path collects the (key, origin, pos) projection (a
# few MB here) and pays no distributed-sort startup; past it the keys-only
# Ray Data sort runs (already faster at 100k rows, and the only option at
# scale). Both paths assign the same ids and keep the same rows (tested).
_DRIVER_IDS_MAX_ROWS = 50_000

_KEY_ORDER = ["key", "origin", "pos"]


def _new_keys(tbl: pa.Table, prev_last_key=None) -> np.ndarray:
    """The keep-first kernel over rows sorted on (key, origin, pos): the
    mask of rows that are the first occurrence of their key (given the
    previous sorted block's last key) and not an existing doc (origin -1
    sorts first within a key) — exactly the rows that receive a new id."""
    keys = tbl["key"].combine_chunks()
    n = tbl.num_rows
    first = np.ones(n, dtype=bool)
    if n > 1:
        eq = pc.equal(keys.slice(1), keys.slice(0, n - 1))
        first[1:] = np.logical_not(eq.to_numpy(zero_copy_only=False))
    if n and prev_last_key is not None and keys[0].as_py() == prev_last_key:
        first[0] = False
    return first & (tbl["origin"].to_numpy(zero_copy_only=False) >= 0)


@ray.remote(num_cpus=1)
def _block_bounds(blocks: list) -> list:
    """(first row's (key, origin, pos), last row's key) of each sorted
    block; None for an empty block."""
    out = []
    for tbl in ray.get(blocks):
        out.append(None if tbl.num_rows == 0 else (
            tuple(tbl[c][0].as_py() for c in _KEY_ORDER),
            tbl["key"][tbl.num_rows - 1].as_py()))
    return out


@ray.remote(num_cpus=1)
def _emit_ids(tbl: pa.Table, prev_last_key, block: int,
              mapping_dir: str) -> int:
    """Write the block-local ranks of one sorted block's new rows, with
    the block's index, as (pos, rank, block) rows under
    ``mapping_dir/origin=o/`` — the id routing exchange. Returns the
    block's count of new rows."""
    new = _new_keys(tbl, prev_last_key)
    out = pa.table({
        "origin": tbl["origin"],
        "pos": tbl["pos"],
        "rank": pa.array(np.cumsum(new) - 1, pa.int64()),
        "block": pa.array(np.full(tbl.num_rows, block, dtype=np.int32)),
    }).filter(pa.array(new)).sort_by("origin")
    origins = out["origin"].to_numpy(zero_copy_only=False)
    bounds = np.flatnonzero(np.diff(origins)) + 1
    for s, e in zip(np.concatenate(([0], bounds)),
                    np.concatenate((bounds, [len(origins)]))):
        if e > s:
            odir = os.path.join(mapping_dir, f"origin={int(origins[s])}")
            os.makedirs(odir, exist_ok=True)
            _write_atomic(out.slice(s, e - s).drop_columns(["origin"]),
                          os.path.join(odir, f"b{block:05d}.parquet"))
    return int(new.sum())


@ray.remote(num_cpus=1)
def _load_ids(mapping_dir: str, origin: int, count: int,
              offsets: np.ndarray) -> np.ndarray:
    """One unit's id array: each mapped row's block offset plus its
    block-local rank; -1 (drop) for every row the mapping leaves out."""
    arr = np.full(count, -1, dtype=np.int64)
    odir = os.path.join(mapping_dir, f"origin={origin}")
    if os.path.isdir(odir):
        tbl = pa_ds.dataset(odir, format="parquet").to_table()
        arr[tbl["pos"].to_numpy(zero_copy_only=False)] = (
            offsets[tbl["block"].to_numpy(zero_copy_only=False)]
            + tbl["rank"].to_numpy(zero_copy_only=False))
    return arr


def assign_ids(key_refs: list, counts: list[int], index_dir: str,
               existing_refs=(), n_base: int = 0) -> tuple[list, int]:
    """Doc ids for the rows of ``len(counts)`` input units, whose
    (key, origin, pos) projections ``key_refs`` holds (origin = the unit's
    index). A row whose (repo, path, commit) key is new — no existing doc
    has it (``existing_refs``: the keys of the index's committed docmap
    files, origin -1) and no row before it in (origin, pos) order — gets
    ``n_base`` plus the rank of its key among the new keys in sorted-key
    order; every other row gets -1 (dropped). A build is the case
    ``n_base = 0`` with no existing keys. Returns one id array per unit
    (an ObjectRef on the scale path) and the number of new keys.

    Driver path, at most ``_DRIVER_IDS_MAX_ROWS`` keys: one Arrow sort on
    (key, origin, pos), the keep-first mask, one scatter per unit. Scale
    path: a keys-only Ray Data sort on the same columns, one task reading
    the sorted blocks' bounds, one ``_emit_ids`` task per block (block-
    local ranks to ``_id_mapping/``) and one ``_load_ids`` task per unit,
    which adds each block's offset (``n_base`` + the counts of the blocks
    before it). Content never takes part. The caller removes
    ``_id_mapping/`` once its finalize tasks have read the ids."""
    refs = list(existing_refs) + list(key_refs)
    if n_base + sum(counts) <= _DRIVER_IDS_MAX_ROWS:
        # Arrow C++ sort — Python-object string sorting is ~100x slower
        s = pa.concat_tables(ray.get(refs)).sort_by(
            [(c, "ascending") for c in _KEY_ORDER])
        new = _new_keys(s)
        ids = n_base + np.cumsum(new) - 1
        origin = s["origin"].to_numpy(zero_copy_only=False)
        pos = s["pos"].to_numpy(zero_copy_only=False)
        per_unit = []
        for o, c in enumerate(counts):
            arr = np.full(c, -1, dtype=np.int64)
            m = new & (origin == o)
            arr[pos[m]] = ids[m]
            per_unit.append(arr)
        return per_unit, int(new.sum())

    import ray.data as rd

    blocks = list(rd.from_arrow_refs(refs).sort(_KEY_ORDER).materialize()
                  .to_arrow_refs())
    # the sort leaves disjoint (key, origin, pos) ranges, one per block:
    # ordering the blocks by their first row restores range order (the
    # order of to_arrow_refs is not promised)
    spans = sorted(((b, r) for b, r in
                    zip(ray.get(_block_bounds.remote(blocks)), blocks)
                    if b is not None), key=lambda x: x[0][0])
    prev_last = [None] + [last for (_, last), _ in spans[:-1]]
    mapping_dir = os.path.join(index_dir, "_id_mapping")
    shutil.rmtree(mapping_dir, ignore_errors=True)
    n_new = ray.get([_emit_ids.remote(r, p, j, mapping_dir)
                     for j, ((_, r), p) in enumerate(zip(spans, prev_last))])
    offsets = np.cumsum([n_base] + n_new[:-1]).astype(np.int64)
    return ([_load_ids.remote(mapping_dir, o, c, offsets)
             for o, c in enumerate(counts)], int(sum(n_new)))


def _corpus_files(path) -> list[str]:
    """Parquet files of a corpus argument: a file, a directory, or an
    explicit file list (the watcher/rollover batch shape — same contract
    as update_index)."""
    if isinstance(path, (list, tuple)):
        return sorted(os.path.abspath(f) for f in path)
    if os.path.isfile(path):
        return [path]
    return sorted(os.path.join(path, f) for f in os.listdir(path)
                  if f.endswith(".parquet"))


def _units(files: list[str]) -> tuple[list, list[int]]:
    """Stage-1 units of parquet files and their row counts, from the
    footers: one unit per row group when a file has several (a single
    huge file must not bound parallelism to the file count), else the
    file. Ids are sorted-key ranks, so the unit split cannot change
    them."""
    sources, counts = [], []
    for f in files:
        meta = pq.ParquetFile(f).metadata
        if meta.num_row_groups > 1:
            for rg in range(meta.num_row_groups):
                sources.append((f, rg))
                counts.append(meta.row_group(rg).num_rows)
        else:
            sources.append(f)
            counts.append(meta.num_rows)
    return sources, counts


def prep_docs(corpus, index_dir: str,
              cfg: IndexConfig | None = None) -> int:
    """Stages 1+2 (doc prep + postings emit, one pass). ``corpus`` is a Ray
    Dataset OR a parquet file/dir path.

    The path form is the one for large corpora: per-unit row counts come
    from parquet footers, the dedup exchange reads only the key columns
    (column pruning), and the id-assign/sha/write/tokenize wave streams
    each unit through a worker — the content column never transits the
    object store, and is read once.

    Commit order: the postings exchange and ``norms/`` are wiped before
    any finalize task runs, ``postings_raw/_SUCCESS`` (the exchange is
    whole) is written once they all have, and ``docs/_SUCCESS`` last —
    the stage's commit, recording n_docs, the token totals and the
    exchange's rows and bytes. The exchange is dropped once segments and
    positions commit, so the docs record outlives it; ``build_index``
    reruns the stage when the record is missing, or when the exchange
    is and a segment part or positions file still needs it.
    """
    cfg = cfg or IndexConfig()
    docs_dir = os.path.join(index_dir, "docs")
    os.makedirs(docs_dir, exist_ok=True)

    if isinstance(corpus, (str, list, tuple)):
        sources, counts = _units(_corpus_files(corpus))
        key_refs = [_file_keys.remote(s, i) for i, s in enumerate(sources)]
        finalize = _finalize_file
    else:
        mat = corpus.materialize()
        sources = list(mat.to_arrow_refs())
        counts = ray.get(_counts_all.remote(list(sources)))
        key_refs = [_block_keys.remote(r, i)
                    for i, r in enumerate(sources)]
        finalize = _finalize_block

    id_arrays, n_docs = assign_ids(key_refs, counts, index_dir)
    # a half-finished previous attempt leaves partial exchange and norms
    # files, possibly sliced differently (Dataset blocks need not
    # repeat), which would duplicate postings and norms — start clean
    exchange = os.path.join(index_dir, "postings_raw")
    for d in (exchange, exchange + "_pos",
              os.path.join(index_dir, "norms")):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(exchange, exist_ok=True)
    doc_files = [os.path.join(docs_dir, f"part-{i:05d}.parquet")
                 for i in range(len(sources))]
    pairs = [finalize.remote(src, ids, out, cfg, n_docs, exchange)
             for src, ids, out in zip(sources, id_arrays, doc_files)]
    sums = np.zeros(4, dtype=np.int64)
    for s in ray.get([s for _, s in pairs]):
        sums += s
    # the scale path's id-routing exchange is spent once finalize has run
    shutil.rmtree(os.path.join(index_dir, "_id_mapping"), ignore_errors=True)
    docmap_dir = os.path.join(index_dir, "docmap")
    if n_docs <= _DOCMAP_SINGLE_TASK_MAX_ROWS:
        ray.get(write_docmap.remote(
            doc_files, os.path.join(docmap_dir, "docmap.parquet")))
    else:
        import ray.data as rd

        rd.read_parquet(doc_files, columns=_DOCMAP_COLS).sort("doc_id") \
            .write_parquet(docmap_dir)
    mf.mark_stage(index_dir, "postings_raw")
    mf.mark_stage(index_dir, "docs",
                  {"n_docs": n_docs, "exchange_rows": int(sums[0]),
                   "exchange_bytes": int(sums[1]),
                   "total_tokens": int(sums[2]),
                   "path_tokens": int(sums[3])})
    return n_docs


_DOCMAP_COLS = ["doc_id", "repo", "path", "commit", "lang", "sha256"]

# below this many docs the build's docmap sort runs as ONE remote task
# (Arrow sort_indices + a single multi-row-group file) instead of Ray
# Data's all-to-all sort: measured 6.9 s -> ~0.5 s at 100k docs, where the
# distributed sort's fixed exchange overhead dwarfs the work. The
# keys-only projection is ~200 B/doc, so the task peaks well under a
# worker heap at the cap; past it the distributed sort takes over
# (docmap at 10^12 docs is itself a wide table).
_DOCMAP_SINGLE_TASK_MAX_ROWS = 2_000_000


@ray.remote(num_cpus=1)
def write_docmap(doc_files: list[str], out_path: str) -> None:
    """The one docmap file writer (the build's, and each update's delta):
    the doc-id-sorted metadata projection of ``doc_files`` (no content),
    so the query-time result join prunes row groups by doc_id. zstd-1,
    atomic tmp+rename; small row groups keep that pruning as
    fine-grained as a multi-file layout."""
    tbl = pa_ds.dataset(doc_files, format="parquet").to_table(
        columns=_DOCMAP_COLS)
    tbl = tbl.take(pc.sort_indices(tbl["doc_id"]))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tmp = out_path + f".tmp-{os.getpid()}"
    pq.write_table(tbl, tmp, row_group_size=32768, **_PQ_WRITE_KW)
    os.replace(tmp, out_path)


@ray.remote(num_cpus=1)
def _counts_all(refs: list) -> list:
    return [t.num_rows for t in ray.get(refs)]


# --------------------------------------------------------------------------
# Stage 2's tokenize kernel: content → raw postings, hash-partitioned parquet
# --------------------------------------------------------------------------

# per-worker term→partition hash caches, KEYED BY num_partitions: worker
# processes persist across stages AND across different builds in one Ray
# session, so a P-agnostic cache would poison a later build with a
# different partition count (observed as postings landing in the wrong
# partition). Module globals give actor-style state amortization without
# paying actor-pool process startup.
_PART_CACHES: dict[int, dict[str, int]] = {}


def _parts_for(terms: list[str], P: int) -> np.ndarray:
    cache = _PART_CACHES.setdefault(P, {})
    out = np.empty(len(terms), dtype=np.int32)
    for i, t in enumerate(terms):
        p = cache.get(t)
        if p is None:
            p = term_partition(t, P)
            cache[t] = p
        out[i] = p
    if len(cache) > 1_000_000:
        cache.clear()
    return out


def tokenize_emit(batch: pa.Table, cfg: IndexConfig, n_docs: int,
                  with_positions: bool = False
                  ) -> tuple[pa.Table, pa.Table | None, np.ndarray,
                             np.ndarray]:
    """Stage-2 batch kernel: content → (raw posting triples, positions,
    per-row content dl, per-row path dl). The dls are the counts the
    postings carry: content after the stop filter, path zeros unless
    ``cfg.index_path_field``.

    ``positions`` is None unless ``with_positions``: one row per token
    occurrence (part, term, doc_id, pos) where ``pos`` is the occurrence's
    index in the document's post-filter token stream — the phrase-query
    sidecar (ES match_phrase analog; the reference's ES mappings keep
    positions implicitly via the standard analyzer).

    (The reference's analog of per-worker state is the LLM handle built
    once per run, reference core/commons.py:451 / core/llm.py:18-79; here
    the only state is the hash cache above.)"""
    row_idx, tokens, dl_np = tokenize_batch_arrow(batch["content"],
                                                  cfg.max_token_len)
    if cfg.stop_words:
        # Lucene StopFilter contract: dropped tokens never reach the
        # postings, and positions (below) are assigned over the kept
        # stream; dl counts the kept tokens only
        sw = pa.array(list(cfg.stop_words), pa.string())
        keep = pc.invert(pc.is_in(tokens, value_set=sw)) \
            .to_numpy(zero_copy_only=False)
        tokens = pc.filter(tokens, pa.array(keep))
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        row_idx = row_idx[keep]
        dl_np = np.bincount(row_idx, minlength=len(dl_np)) \
            .astype(dl_np.dtype)
    if cfg.stem:
        # stem AFTER stop (the ES analyzer chain order): tokens are
        # rewritten, never dropped — dl / positions stay exact while
        # tf / df merge inflected forms
        from ..analysis.tokenizer import stem_tokens_arrow

        tokens = stem_tokens_arrow(tokens)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    n_docs = max(1, n_docs)
    P = cfg.num_partitions
    enc, codes, u_row, u_code, tf = term_tf(tokens, row_idx)
    term_parts = _parts_for(enc.dictionary.to_pylist(), P)

    positions = None
    if with_positions and codes.size:
        # pos = occurrence index within its row's token stream: occurrences
        # are emitted in row-major document order, so subtracting each
        # row's first-occurrence offset gives in-document positions.
        starts = np.zeros(len(dl_np), dtype=np.int64)
        np.cumsum(dl_np[:-1], out=starts[1:])
        occ_pos = (np.arange(codes.size, dtype=np.int64)
                   - starts[row_idx]).astype(np.int32)
        # term as the ALREADY-COMPUTED dictionary array (enc below is
        # tokens encoded): the per-part slice gather then moves int32
        # codes instead of strings and parquet writes the dictionary
        # pages directly — measured ~25% off the sidecar write
        positions = pa.table({
            "part": pa.array(term_parts[codes], pa.int32()),
            "term": enc,
            "doc_id": pa.array(doc_ids[row_idx], pa.int64()),
            "pos": pa.array(occ_pos, pa.int32()),
        })

    # term rides the exchange DICTIONARY-ENCODED (int32 codes + one
    # per-batch dictionary): the per-part slice gather then moves 4-byte
    # codes instead of re-gathering strings, and parquet writes the
    # dictionary pages directly — the same measured ~25% win the
    # positions sidecar got from this in r4; encode_runs dictionary-
    # encodes its input anyway, so the reduce side is unchanged
    content_terms = pa.table({
        "part": pa.array(term_parts[u_code], pa.int32()),
        "term": pa.DictionaryArray.from_arrays(
            pa.array(u_code.astype(np.int32)), enc.dictionary),
        "doc_id": pa.array(doc_ids[u_row], pa.int64()),
        "tf": pa.array(tf.astype(np.int32), pa.int32()),
        "dl": pa.array(dl_np[u_row].astype(np.int32), pa.int32()),
    })

    # scored path field (ES multi_match): real tf/dl under its own
    # avgdl (stats.path_avgdl); terms namespaced "p:" so they share the
    # partitioning/encode/merge machinery without colliding with content
    field_tables = [content_terms]
    p_dl = np.zeros(len(dl_np), dtype=np.int64)
    if cfg.index_path_field and "path" in batch.column_names:
        p_row, p_tok, p_dl = tokenize_batch_arrow(batch["path"],
                                                  cfg.max_token_len)
        p_enc, _, pu_row, pu_code, p_tf = term_tf(
            pc.binary_join_element_wise(
                pa.array(["p:"] * len(p_tok), pa.string()), p_tok, ""),
            p_row)
        p_parts = _parts_for(p_enc.dictionary.to_pylist(), P)
        field_tables.append(pa.table({
            "part": pa.array(p_parts[pu_code], pa.int32()),
            "term": pa.DictionaryArray.from_arrays(
                pa.array(pu_code.astype(np.int32)), p_enc.dictionary),
            "doc_id": pa.array(doc_ids[pu_row], pa.int64()),
            "tf": pa.array(p_tf.astype(np.int32), pa.int32()),
            "dl": pa.array(p_dl[pu_row].astype(np.int32), pa.int32()),
        }))

    # keyword-field postings for filters (lang / repo): tf=1, dl=1;
    # these are the analog of the Kibana keyword fields the reference
    # dashboards filter on (SURVEY.md §1.2). Vectorized: prefix-join +
    # dictionary_encode replace the old per-row Python f-string loop;
    # partitions hash only the UNIQUE values and gather by code.
    for col, prefix in (("lang", "lang:"), ("repo", "repo:")):
        farr = pc.binary_join_element_wise(
            pa.scalar(prefix), pc.cast(batch[col], pa.string()), "")
        fenc = farr.dictionary_encode()
        if isinstance(fenc, pa.ChunkedArray):
            fenc = fenc.combine_chunks()
        f_parts = _parts_for(fenc.dictionary.to_pylist(), P)
        f_codes = fenc.indices.to_numpy(zero_copy_only=False)
        n_f = len(fenc)
        field_tables.append(pa.table({
            "part": pa.array(f_parts[f_codes], pa.int32()),
            "term": fenc,
            "doc_id": pa.array(doc_ids, pa.int64()),
            "tf": pa.array(np.ones(n_f, dtype=np.int32)),
            "dl": pa.array(np.ones(n_f, dtype=np.int32)),
        }))
    # one unified dictionary per batch so the downstream per-part take
    # gathers against a single dictionary (chunk-heterogeneous
    # dictionaries would force per-slice unification)
    out = pa.concat_tables(field_tables).unify_dictionaries() \
        .combine_chunks()
    # salt: S contiguous doc-id ranges
    did = out["doc_id"].to_numpy(zero_copy_only=False)
    salt = np.minimum((did * cfg.salt_buckets) // n_docs,
                      cfg.salt_buckets - 1).astype(np.int32)
    return out.add_column(1, "salt", pa.array(salt)), positions, dl_np, p_dl


def _write_part_slices(tbl: pa.Table, out_dir: str, uid: str) -> int:
    """Write ``tbl`` sliced by its (sorted-on-write) ``part`` column into
    ``out_dir/part=P/{uid}-P.parquet`` — atomic, deterministic names, so a
    retried task overwrites its own files instead of duplicating them.
    Returns the bytes written."""
    order = pc.sort_indices(tbl["part"])
    tbl = tbl.take(order)
    parts = tbl["part"].to_numpy(zero_copy_only=False)
    bounds = np.flatnonzero(np.diff(parts)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(parts)]))
    nbytes = 0
    for s, e in zip(starts, ends):
        p = int(parts[s])
        pdir = os.path.join(out_dir, f"part={p}")
        os.makedirs(pdir, exist_ok=True)
        path = os.path.join(pdir, f"{uid}-{p}.parquet")
        tmp = path + f".tmp-{os.getpid()}"
        pq.write_table(tbl.slice(s, e - s).drop_columns(["part"]), tmp,
                       **_EXCHANGE_WRITE_KW)
        nbytes += os.path.getsize(tmp)
        os.replace(tmp, path)
    return nbytes


def _emit_and_partition(batch: pa.Table, cfg: IndexConfig, n_docs: int,
                        out_dir: str
                        ) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Tokenize one non-empty batch and write its triples sliced per
    partition — the map side of the hash exchange. Returns (triples
    written, their bytes, per-row content dl, per-row path dl): the dls
    sum to the BM25 token totals and are the norms rows. When
    ``cfg.store_positions``, the same tokenize pass also writes the
    positions sidecar occurrences to ``{out_dir}_pos/part=P/`` (no second
    tokenization)."""
    triples, positions, dl, path_dl = tokenize_emit(
        batch, cfg, n_docs, with_positions=cfg.store_positions)
    # uid derives ONLY from the batch's first doc id: a retried task writes
    # the same file names with the same contents (idempotent side-write) —
    # a pid-based uid would duplicate postings under Ray task retries
    uid = hashlib.blake2b(
        f"b{batch['doc_id'][0].as_py()}".encode(),
        digest_size=8).hexdigest()
    nbytes = _write_part_slices(triples, out_dir, uid)
    if positions is not None:
        _write_part_slices(positions, out_dir + "_pos", uid)
    return triples.num_rows, nbytes, dl, path_dl


def compute_stats(index_dir: str, cfg: IndexConfig, n_docs: int) -> dict:
    """Stage 2b: global collection stats, from the token totals the
    stage-1+2 record (``docs/_SUCCESS``) holds."""
    payload = mf.read_stage(index_dir, "docs")
    total = int(payload["total_tokens"])
    path_tokens = int(payload["path_tokens"])
    stats = {
        "n_docs": int(n_docs),
        "total_tokens": total,
        "avgdl": (float(total) / n_docs) if n_docs else 0.0,
        "index_path_field": cfg.index_path_field,
        "path_total_tokens": path_tokens,
        "path_avgdl": (path_tokens / n_docs) if n_docs else 0.0,
        "k1": cfg.k1, "b": cfg.b,
        "num_partitions": cfg.num_partitions,
        "salt_buckets": cfg.salt_buckets,
        "block_size": cfg.block_size,
        "max_token_len": cfg.max_token_len,
        "store_positions": cfg.store_positions,
        "stem": cfg.stem,
    }
    mf.write_stats(index_dir, stats)
    return stats


# --------------------------------------------------------------------------
# Stages 3+4: per-partition encode + merge tasks over the persisted shuffle
# --------------------------------------------------------------------------

@ray.remote(num_cpus=1)
def _encode_part_salt(exchange_dir: str, part: int, salt: int,
                      cfg: IndexConfig, avgdl: float) -> pa.Table:
    """Reduce-side stage 3: encode one (part, salt) run from the
    partitioned parquet exchange rooted at ``exchange_dir``."""
    pdir = os.path.join(exchange_dir, f"part={part}")
    if not os.path.isdir(pdir):
        from .segments import _empty_run_table

        return _empty_run_table()
    tbl = pa_ds.dataset(pdir, format="parquet").to_table(
        filter=pc.field("salt") == salt)
    if tbl.num_rows == 0:
        from .segments import _empty_run_table

        return _empty_run_table()
    tbl = (tbl.append_column("part", pa.array([part] * tbl.num_rows,
                                              pa.int32())))
    return encode_runs(tbl, cfg, avgdl)


def write_segment(path: str, tbl: pa.Table) -> None:
    """The one segment-part writer (build, update, shrink, split): zstd-1,
    atomic tmp+rename, bounded row groups of 512 dictionary rows — the
    unit the bounded-memory IndexShard mode pages in/out of its LRU (full
    reads are unaffected: parquet streams row groups either way)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(tbl, tmp, row_group_size=512, **_PQ_WRITE_KW)
    os.replace(tmp, path)


def _write_part(index_dir: str, part: int, fingerprint: str,
                merged: pa.Table, t0: float,
                delta_of: int | None = None) -> dict:
    """Write one merged segment part and its manifest entry (the
    per-partition checkpoint unit, written last). One entry shape for a
    build (``delta_of`` None) and an update (``delta_of`` = its n_base)."""
    path = os.path.join(index_dir, "segments", f"part-{part:04d}.parquet")
    write_segment(path, merged)

    def total(arr) -> int:  # the sum of no rows is null
        return int(pc.sum(arr).as_py() or 0)

    entry = {
        "part": part,
        "fingerprint": fingerprint,
        "n_terms": merged.num_rows,
        "n_postings": total(merged["df"]),
        "posting_bytes": sum(total(pc.binary_length(merged[c])) for c in
                             ("doc_data", "tf_data", "dl_data")),
        "elapsed_s": round(time.monotonic() - t0, 4),
        "output": path,
        "delta_of": delta_of,
    }
    mf.write_part_entry(index_dir, entry)
    return entry


@ray.remote(num_cpus=1)
def _merge_part(index_dir: str, part: int, fingerprint: str,
                *runs: pa.Table) -> dict:
    """Reduce-side stage 4: merge one part's salt runs and write it. The
    runs arrive as top-level arguments, so Ray resolves them before the
    task starts and no worker blocks waiting on its own children."""
    t0 = time.monotonic()
    merged = merge_runs(pa.concat_tables(runs))
    return _write_part(index_dir, part, fingerprint, merged, t0)


POSITIONS_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("doc_id", pa.int64()),
    ("pos", pa.int32()),
])


def _sort_occurrences(codes: np.ndarray, rank: np.ndarray,
                      order: np.ndarray, doc: np.ndarray,
                      pos: np.ndarray, base: int,
                      n_dict: int) -> tuple:
    """Sort occurrence rows by (term rank, doc, pos), returning
    (codes, doc, pos) in sorted order. Fast path packs (rank, doc-base,
    pos) into ONE uint64 and np.sorts the packed VALUES — no argsort,
    no row gather; unpacking is shifts and masks (~4x over the 3-key
    np.lexsort at ~9M rows, the consolidation stage's dominant
    kernel). Falls back to lexsort when the combined key width exceeds
    64 bits (e.g. the full 10^12-doc id space — there, doc-range
    splitting keeps in-range ids narrow after the base rebase, which
    the fallback does not need). Packed == lexsort is property-pinned
    in test_engine.py."""
    dmax = int(doc.max() - base) if doc.size else 0
    pmax = int(pos.max()) if pos.size else 0
    rb = max(1, int(n_dict).bit_length())
    db = max(1, dmax.bit_length())
    pb = max(1, pmax.bit_length())
    if doc.size and rb + db + pb <= 64:
        key = (rank[codes].astype(np.uint64) << np.uint64(db + pb)) \
            | ((doc - base).astype(np.uint64) << np.uint64(pb)) \
            | pos.astype(np.uint64)
        key.sort()
        srank = (key >> np.uint64(db + pb)).astype(np.int64)
        sdoc = ((key >> np.uint64(pb))
                & np.uint64((1 << db) - 1)).astype(np.int64) + base
        spos = (key & np.uint64((1 << pb) - 1)).astype(np.int32)
        scodes = order[srank].astype(np.int32)
    else:
        idx = np.lexsort((pos, doc, rank[codes]))
        scodes = codes[idx].astype(np.int32)
        sdoc = doc[idx]
        spos = pos[idx].astype(np.int32)
    return scodes, sdoc, spos


@ray.remote(num_cpus=1)
def _consolidate_positions(index_dir: str, raw_pos_dir: str, part: int,
                           out_name: str, lo: int | None = None,
                           hi: int | None = None) -> int:
    """Reduce-side positions stage: collect one part's raw occurrence
    rows (optionally restricted to the doc-id range [lo, hi) — the
    sidecar's skew split), sort by (term, doc_id, pos) and write one
    consolidated file under ``positions/part=P/`` — the sort is what
    gives parquet min/max statistics the power to prune a phrase
    query's read down to the query terms' row groups.

    Two scale lessons are baked in (measured on the 1M-doc corpus):

    - the sort runs as a numpy lexsort over LEXICOGRAPHICALLY-ORDERED
      dictionary codes (factorize, sort the unique terms once, remap) —
      an Arrow string sort_by over tens of millions of occurrence rows
      was several-fold slower;
    - term-hash partitioning alone skews hard: the part holding the
      Zipf head can carry a large multiple of the average occurrence
      count (observed: one 13-minute 18 GB straggler while 31 siblings
      idled). Doc-range splitting is the same cure the postings use
      (salt runs): each (part, range) consolidates independently into
      its own file and a phrase query reads the part DIRECTORY, so the
      split is invisible to readers."""
    out_dir = os.path.join(index_dir, "positions", f"part={part}")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, out_name)
    pdir = os.path.join(raw_pos_dir, f"part={part}")
    if os.path.isdir(pdir):
        flt = None
        if lo is not None:
            flt = (pc.field("doc_id") >= lo) & (pc.field("doc_id") < hi)
        tbl = pa_ds.dataset(pdir, format="parquet").to_table(filter=flt)
        enc = tbl["term"].combine_chunks()
        if not pa.types.is_dictionary(enc.type):
            enc = enc.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        dict_arr = enc.dictionary
        # rank[i] = lexicographic rank of dictionary entry i
        order = pc.sort_indices(dict_arr).to_numpy(zero_copy_only=False)
        rank = np.empty(len(dict_arr), dtype=np.int64)
        rank[order] = np.arange(len(dict_arr), dtype=np.int64)
        doc = tbl["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        pos = tbl["pos"].to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        scodes, sdoc, spos = _sort_occurrences(
            codes, rank, order, doc, pos, int(lo or 0),
            int(len(dict_arr)))
        # materialize term as plain string (one C++ gather) so every
        # sidecar file shares POSITIONS_SCHEMA — parquet re-dictionary-
        # encodes on write regardless
        term_sorted = pa.DictionaryArray.from_arrays(
            pa.array(scodes), dict_arr).cast(pa.string())
        tbl = pa.table({
            "term": term_sorted,
            "doc_id": pa.array(sdoc, pa.int64()),
            "pos": pa.array(spos, pa.int32()),
        })
    else:
        tbl = POSITIONS_SCHEMA.empty_table()
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(tbl, tmp, row_group_size=1 << 18, **_PQ_WRITE_KW)
    os.replace(tmp, path)
    return tbl.num_rows


def _positions_done(index_dir: str, cfg: IndexConfig) -> bool:
    """True unless ``cfg.store_positions`` asks for a positions stage that
    has not committed, or has lost one of its (part, doc-range) files
    since."""
    return not cfg.store_positions or (
        mf.stage_done(index_dir, "positions")
        and all(os.path.exists(os.path.join(
                    index_dir, "positions", f"part={p}",
                    f"base-{s:02d}.parquet"))
                for p in range(cfg.num_partitions)
                for s in range(max(1, cfg.salt_buckets))))


def _exchange(index_dir: str) -> str:
    """The postings exchange, refusing one that is not whole: the encode
    and positions tasks read a missing ``part=P`` directory as a partition
    with no terms, so a dropped exchange would silently become empty
    segment parts."""
    if not mf.stage_done(index_dir, "postings_raw"):
        raise RuntimeError(
            f"{index_dir}: the postings exchange is missing or partial; "
            "rerun build_index to re-emit it")
    return os.path.join(index_dir, "postings_raw")


def build_positions(index_dir: str, cfg: IndexConfig) -> None:
    """Positions consolidation stage (skipped unless cfg.store_positions).
    Fans out per (part, doc-range) — ``salt_buckets`` contiguous ranges
    per part — to bound straggler wall-time and task memory under the
    Zipf-head term skew (see _consolidate_positions). Deterministic file
    names + atomic writes make a rerun idempotent; the stage marker lets
    a resumed build skip it wholesale while every file it wrote is
    there."""
    if _positions_done(index_dir, cfg):
        return
    raw = _exchange(index_dir) + "_pos"
    n_docs = int(mf.read_stage(index_dir, "docs")["n_docs"])
    S = max(1, cfg.salt_buckets)
    bounds = [n_docs * s // S for s in range(S)] + [n_docs]
    occ = ray.get([
        _consolidate_positions.remote(index_dir, raw, p,
                                      f"base-{s:02d}.parquet",
                                      bounds[s], bounds[s + 1])
        for p in range(cfg.num_partitions) for s in range(S)])
    mf.mark_stage(index_dir, "positions", {"n_occurrences": int(sum(occ))})


def build_segments(index_dir: str, cfg: IndexConfig, avgdl: float,
                   fingerprint: str) -> None:
    """Stages 3+4, restricted to partitions not yet in the manifest."""
    done = mf.completed_parts(index_dir, fingerprint)
    remaining = sorted(set(range(cfg.num_partitions)) - done)
    if not remaining:
        return
    exchange = _exchange(index_dir)
    ray.get([
        _merge_part.remote(index_dir, p, fingerprint, *[
            _encode_part_salt.remote(exchange, p, s, cfg, avgdl)
            for s in range(cfg.salt_buckets)])
        for p in remaining])


def _drop_exchange(index_dir: str) -> None:
    """Stage 5: delete the postings exchange and its positions twin once
    segments and positions have committed. The whole-exchange marker goes
    first, so a drop cut short leaves nothing a stage would read."""
    exchange = os.path.join(index_dir, "postings_raw")
    try:
        os.remove(os.path.join(exchange, "_SUCCESS"))
    except FileNotFoundError:
        pass
    shutil.rmtree(exchange, ignore_errors=True)
    shutil.rmtree(exchange + "_pos", ignore_errors=True)


# --------------------------------------------------------------------------
# Worker release: the pooled task workers exit once builds and updates stop
# --------------------------------------------------------------------------

# a build or update that no other one follows within this long hands the
# pool back. The watcher polls every 2 s and the realtime monitor sends a
# delta every few seconds, so a stream of rounds keeps its pool warm: an
# update on a cold pool took 3.8-5.0 s instead of 1.3-1.8 s (8k base
# docs, 2k-doc deltas), two serial waves of worker cold starts; a
# rollover round's first update 3.3 s instead of 1.6 s (2k-doc rounds)
_RELEASE_AFTER_S = 10.0
# the retire tasks return in ~10 ms; this bounds the wait where a CPU is
# taken between the free-CPU read and the tasks' leases
_RELEASE_WAIT_S = 5.0

_release_lock = threading.Lock()
_release_timer: threading.Timer | None = None


def _arm_release(due: bool) -> None:
    """Cancel the pending release; with ``due``, set a new one
    ``_RELEASE_AFTER_S`` from now."""
    global _release_timer
    with _release_lock:
        if _release_timer is not None:
            _release_timer.cancel()
        _release_timer = None
        if due:
            _release_timer = threading.Timer(_RELEASE_AFTER_S,
                                             _release_if_due)
            _release_timer.daemon = True
            _release_timer.start()


def releases_pool_when_idle(fn):
    """Decorate a function that fills the task-worker pool (``build_index``,
    ``update_index``): a call cancels the pending release, and its return
    (or raise) sets ``release_workers`` to run ``_RELEASE_AFTER_S`` later,
    unless another such call starts first."""
    @wraps(fn)
    def run(*args, **kwargs):
        _arm_release(False)
        try:
            return fn(*args, **kwargs)
        finally:
            _arm_release(True)
    return run


def _release_if_due() -> None:
    global _release_timer
    with _release_lock:
        # a call that started meanwhile cancelled or replaced this timer
        if _release_timer is not threading.current_thread():
            return
        _release_timer = None
    # checked first: a task submitted without a session would start one
    if not ray.is_initialized():
        return
    try:
        release_workers()
    except Exception:  # noqa: BLE001 - Ray shut down meanwhile
        pass


@ray.remote(num_cpus=1, max_calls=1)
def _retire_worker() -> None:
    """No-op whose pooled worker exits once it returns (``max_calls=1``)."""


def release_workers() -> None:
    """Hand the idle pooled task workers back to the OS, so a process that
    goes on to serve does not carry them (and the heaps of the builds and
    updates they ran). Serving (shard actors + a driver thread pool) never
    runs a Ray task; the next task starts its worker afresh.

    One ``_retire_worker`` per free CPU: a worker runs one task at a time,
    so the tasks land on distinct idle workers, and each exits after its
    task. Ray trims the idle pool to the free CPUs within ~1 s of the last
    task, so a pool that has been quiet for ``_RELEASE_AFTER_S`` holds no
    more idle workers than there are tasks (measured after 8k-doc builds:
    4 idle workers on 4 CPUs, 3 with an actor holding one; none left
    3 s after the release). The tasks never take a busy worker; one that
    finds no idle worker starts one, which exits after it too."""
    n = max(1, int(ray.available_resources().get("CPU", 0)))
    refs = [_retire_worker.remote() for _ in range(n)]
    ray.wait(refs, num_returns=n, timeout=_RELEASE_WAIT_S)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def _updated(index_dir: str) -> bool:
    """True once ``update_index`` has started on the index: a pending
    update marker, or a delta file in ``docs/``."""
    docs_dir = os.path.join(index_dir, "docs")
    return os.path.exists(os.path.join(index_dir, "_update_pending.json")) \
        or (os.path.isdir(docs_dir) and any(
            n.startswith("delta-") for n in os.listdir(docs_dir)))


@releases_pool_when_idle
def build_index(corpus_ds, index_dir: str, cfg: IndexConfig | None = None,
                corpus_tag: str = "default") -> dict:
    """Build (or resume) the full index. Returns the build meta dict.

    ``corpus_ds``: Ray Dataset with columns (repo, path, commit, lang,
    content) — BASELINE.json input_hint shape — OR a parquet file/dir path
    (the faster stage-1 path; see prep_docs). ``corpus_tag`` identifies the
    input for lineage (a path or content fingerprint); a resumed build only
    skips work whose manifest fingerprint matches tag + config.

    If no other build or update starts within ``_RELEASE_AFTER_S`` of
    its return, the pooled Ray task workers are retired in the
    background (``release_workers``), so a process that goes on to serve
    carries no idle build workers; the next Ray task then starts its
    worker afresh (~0.2-0.5 s each).
    """
    cfg = cfg or IndexConfig()
    if cfg.stem and cfg.store_positions:
        # phrase verification re-tokenizes document content with the
        # BASE analyzer (query/phrase.py) — a stemmed dictionary would
        # silently never match. Refuse loudly instead.
        raise ValueError(
            "IndexConfig: stem + store_positions is unsupported — the "
            "positional phrase path analyzes surface forms")
    if cfg.stem and cfg.stem != "minimal_english":
        raise ValueError(f"IndexConfig: unknown stemmer {cfg.stem!r}")
    fingerprint = mf._fingerprint(corpus_tag, cfg)
    # a prior build of a DIFFERENT input/config in this directory is not
    # resumable — wipe it rather than mixing artifacts. The start marker is
    # written before any stage so even a killed build stays identifiable.
    import json

    start_marker = os.path.join(index_dir, "manifest", "_build.json")
    if os.path.isdir(index_dir) and os.listdir(index_dir):
        prior_fp = None
        if os.path.exists(start_marker):
            with open(start_marker) as f:
                prior_fp = json.load(f).get("fingerprint")
        if prior_fp != fingerprint:
            shutil.rmtree(index_dir, ignore_errors=True)
        elif _updated(index_dir):
            # each update rewrote every part entry under its own
            # fingerprint, so a resume would rebuild every part from the
            # base corpus alone and drop the updates' postings
            raise ValueError(
                f"{index_dir} holds updates applied after this build; "
                "build into a fresh directory, or pass a new corpus_tag "
                "to replace the index")
    os.makedirs(os.path.join(index_dir, "manifest"), exist_ok=True)
    with open(start_marker, "w") as f:
        json.dump({"fingerprint": fingerprint, "corpus_tag": corpus_tag}, f)
    t0 = time.monotonic()
    timings: dict[str, float] = {}

    # the prep+emit record (docs/_SUCCESS) outlives the exchange, which
    # the build drops once segments and positions commit: a part or
    # positions file missing after that (a damaged finished index) needs
    # the pass again to re-emit it. A record without the exchange figures
    # is an earlier layout's, which kept the token totals beside the
    # exchange: the pass runs again to write this one.
    needs_exchange = (
        len(mf.completed_parts(index_dir, fingerprint)) < cfg.num_partitions
        or not _positions_done(index_dir, cfg))
    prep = (mf.read_stage(index_dir, "docs")
            if mf.stage_done(index_dir, "docs") else {})
    if "exchange_bytes" not in prep or (
            needs_exchange and not mf.stage_done(index_dir, "postings_raw")):
        t = time.monotonic()
        prep_docs(corpus_ds, index_dir, cfg)
        timings["prep_docs_s"] = round(time.monotonic() - t, 3)
        prep = mf.read_stage(index_dir, "docs")
    n_docs = prep["n_docs"]

    if not os.path.exists(os.path.join(index_dir, "stats.json")):
        t = time.monotonic()
        stats = compute_stats(index_dir, cfg, n_docs)
        timings["stats_s"] = round(time.monotonic() - t, 3)
    else:
        stats = mf.read_stats(index_dir)

    t = time.monotonic()
    build_segments(index_dir, cfg, stats["avgdl"], fingerprint)
    timings["segments_s"] = round(time.monotonic() - t, 3)

    if cfg.store_positions:
        t = time.monotonic()
        build_positions(index_dir, cfg)
        timings["positions_s"] = round(time.monotonic() - t, 3)
    _drop_exchange(index_dir)

    meta = {
        "fingerprint": fingerprint,
        "corpus_tag": corpus_tag,
        "n_docs": n_docs,
        "stats": stats,
        "timings": timings,
        # what the (now dropped) postings exchange held, as written
        "exchange_rows": prep["exchange_rows"],
        "exchange_bytes": prep["exchange_bytes"],
        "total_s": round(time.monotonic() - t0, 3),
    }
    mf.write_meta(index_dir, meta)
    return meta
