"""Engine configuration.

The reference drives everything from env-var config
(/root/reference/src/logsentinelai/core/config.py:90-118 — chunk sizes,
polling knobs, provider switches). Our analog is a small frozen dataclass:
declarative, picklable (it rides inside Ray tasks), no env magic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IndexConfig:
    """Knobs for the inverted-index build + BM25 query engine.

    Defaults suit a single node with a few CPUs; the scale path at 10^12
    files is the same code with ``num_partitions`` raised so one
    term-partition's postings fit a worker's heap (partitions are the
    checkpoint + shuffle + query-shard unit). Posting streams have one
    format: delta-gap + LEB128 varint (index/codec.py).
    """

    # BM25 (Okapi; Lucene-style idf) — fixed by BASELINE.json north_star.
    k1: float = 1.2
    b: float = 0.75

    # Term-hash partitioning: parts = hash64(term) % num_partitions.
    num_partitions: int = 8
    # Doc-range salting for the posting shuffle: each term's postings are
    # built as `salt_buckets` doc-contiguous runs so a Zipf-head term
    # ("error", "import") never lands on a single map_groups task.
    salt_buckets: int = 4
    # Posting block size for skip/block-max metadata (docids per block).
    block_size: int = 128

    # Slice size (rows) the finalize task tokenizes its unit in.
    # content rows are ~KBs; 2048 rows keeps a slice around ~20-50 MB and
    # bounds the file count of the partitioned exchange
    # (slices * num_partitions files).
    tokenize_batch_size: int = 2048

    # Number of IndexShard query actors (each owns >=1 term partition).
    num_shards: int = 4

    # Tokens are truncated to this length (guards degenerate minified blobs).
    max_token_len: int = 64

    # Below this many corpus rows the doc-id/dedup key scan is collected to
    # the driver (a few MB) instead of paying distributed-sort startup;
    # above it, the keys-only distributed sort + mapping exchange runs
    # (measured FASTER already at 100k rows, and the only option at scale).
    # Both paths are exact and tested identical.
    driver_dedup_max_rows: int = 50_000

    # Build the positional sidecar (positions/part=P/, one row per token
    # occurrence) alongside the postings — enables phrase queries (the ES
    # match_phrase analog). Off by default: positions cost ~total_tokens
    # rows of extra exchange volume (Lucene's .pos file is the same
    # order), so only phrase-serving indexes pay it.
    store_positions: bool = False

    # Index the path column as a second SCORED field (terms "p:tok" with
    # real tf/dl and its own avgdl in stats) — enables multi-field
    # search with per-field boosts (ES multi_match; filename search for
    # a code corpus). Also writes the norms sidecar (norms/: doc_id, dl,
    # path_dl per doc, from the same tokenize pass) that scorers needing
    # a doc's total per-field lengths read (combined_fields). Off by
    # default: path tokens add a few postings per doc to the exchange.
    index_path_field: bool = False

    # Index-time stopword filter for the CONTENT analyzer (ES custom
    # analyzer `stop` filter; §2.11 extension surface). Dropped tokens
    # never reach the postings exchange, so doc lengths / avgdl / df
    # all reflect the filtered stream (the Lucene StopFilter contract;
    # positions are assigned AFTER the filter — no gaps). Empty = off.
    # The path/keyword fields are not filtered (per-field analyzers).
    stop_words: tuple = ()

    # Index-time stem filter for the CONTENT analyzer (ES custom
    # analyzer `stemmer` filter). "" = off; "minimal_english" = the
    # Lucene EnglishMinimalStemFilter plural stemmer (S-stemmer). Runs
    # AFTER the stop filter; rewrites tokens without dropping them, so
    # dl / avgdl / positions are unchanged while tf / df merge inflected
    # forms ("error" + "errors"). Query terms are stemmed through the
    # same rule at search time (query/shards.py::SearchEngine._toks).
    # The path field keeps its own unstemmed analyzer.
    stem: str = ""


@dataclass(frozen=True)
class CorpusConfig:
    """Deterministic synthetic corpus generator knobs (FIXTURES.md §1)."""

    n_docs: int = 500
    seed: int = 42
    dup_fraction: float = 0.01  # exact duplicates to exercise dedup-keep-first
    langs: tuple = ("python", "java", "go", "js", "rust", "c", "md")
    lang_weights: tuple = (0.3, 0.15, 0.12, 0.15, 0.1, 0.1, 0.08)


DEFAULT_INDEX_CONFIG = IndexConfig()
