"""logsentinelai_ray — a Ray-Data-native inverted-index + BM25 engine.

A from-scratch replacement for the Elasticsearch backend of
call518/LogSentinelAI (see /root/reference, notably
src/logsentinelai/core/elasticsearch.py:321-325 where the reference
delegates all querying to ES/Kibana). This package re-expresses the
reference's data-processing semantics as idiomatic Ray Data pipelines:

- ``corpus``       : deterministic source-code Parquet corpus (input_hint shape)
- ``analysis``     : code-aware tokenizer (identifier splitting) — the ES "analyzer"
- ``index``        : SPIMI posting-list build, delta+varint+block-max codec,
                     term-hash-partitioned segments, resume manifest
- ``query``        : BM25 (k1=1.2, b=0.75), block-max WAND top-k, IndexShards
                     (in process up to 48 MiB of segments, actors above)
- ``stages``       : reference-parity operators (metadata stamping, severity,
                     aggregations, top-N, dead-letter)
- ``functions``    : text analysis (lang-id, quality, token counts, fingerprints)
- ``dedup``        : exact / MinHash-LSH / SimHash / n-gram Jaccard / embedding dedup
- ``ann``          : cosine top-k similarity search (brute-force + LSH-bucketed)
- ``multimodal``   : opaque-binary column plumbing with stubbed decoders

No module here calls ``ray.init``/``ray.shutdown``; sessions are owned by the
driver, the benchmark (``perfbench/run.py``), or the test fixture.
"""

import os as _os

# Polars sizes its thread pool at first import. Inside Ray workers every
# task is scheduled as num_cpus=1 — parallelism comes from tasks, so an
# uncapped per-worker pool (32 threads x 32 workers) only oversubscribes.
# Must be set before any polars import anywhere in the process; harmless
# on the driver (driver-side polars use is small tables).
_os.environ.setdefault("POLARS_MAX_THREADS", "1")

__version__ = "0.1.0"
