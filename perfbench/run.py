"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload search_hot --seed 1 --seconds 20 \
        --trace 0

Each run makes its inputs from ``--seed`` in a child process (untimed),
starts a fresh Ray session on the CPUs in this process's affinity set,
drives the engine only through its public API, checks sampled results
against an independent reference after the timed part, and prints one JSON
line last: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, from spans around each call into
the engine and from probes of each layer's public functions.

The load generator is this one process and thread, one client in a
closed loop (one request outstanding, no think time). ``ingest`` times its
update cycles: update, open a fresh engine, search the batch's marker, then
answer the dashboard requests that follow an update. ``search_hot`` builds
and warms an engine in set-up and times a closed ``search`` loop followed
by ``msearch`` batches of the same stream; its traced run then sends
long-tail requests to a byte-capped engine. perfbench/WORKLOADS.md
describes the workloads and metrics.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import host  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer, coverage, self_times  # noqa: E402


@dataclass(frozen=True)
class Workload:
    docs: int            # base corpus rows (~1% exact duplicates)
    batches: int         # update cycles
    batch_docs: int      # rows per delta batch (~1% already indexed)
    after_update: int    # stream requests to each fresh engine
    events: int          # traced run: events rows for the analytics entries
    tail: int            # traced run: long-tail requests, byte-capped engine


WORKLOADS = {
    # bulk plus real-time ingest: build, then timed update cycles, each
    # ending with the dashboard requests a fresh engine answers first
    "ingest": Workload(8_000, 3, 2_000, 1_200, 50_000, 0),
    # repeated dashboard queries whose terms stay cached; the traced run
    # adds long-tail identifiers over a byte-capped index (shard round
    # trips, row-group loads, posting decode, block-max WAND per request)
    "search_hot": Workload(8_000, 0, 0, 0, 0, 1_000),
}
MSEARCH_BATCH = 17
MSEARCH_SHARE = 0.15   # of the serving time
# p99 needs at least ten samples beyond it: the search loop runs past its
# time share until it has this many
MIN_SEARCHES = 1200
MIN_BATCHES = 30
SERVE_CAP = 2.0        # a phase's longest run, as a multiple of its share
GATE_SAMPLE = 24       # distinct requests checked against the reference
PROBE_SAMPLE = 40      # traced run: requests probed layer by layer
TRACE_BLOCKS = 10      # traced run: traced/untraced block pairs
HOT_STREAM = 20_000
# registry entries the traced ingest run times over the events table; each
# has an exact DuckDB oracle and reads nothing outside the input directory
ANALYTICS = ("severity_histogram", "severity_alerts", "events_daily",
             "top_users", "esql_stats", "security_detections")
ANALYTICS_REPS = 2
# modules whose public calls the benchmark wraps in spans
LAYERS = ("analysis.tokenizer", "index.build", "index.update",
          "pipelines.queries", "query.postings", "query.shards",
          "query.wand", "ray")


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="logsentinelai_ray benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def _request(req: dict) -> dict:
    return {k: v for k, v in req.items() if k != "template"}


def _signature(req: dict) -> str:
    return json.dumps(_request(req), sort_keys=True)


class Bench:
    def __init__(self, args: argparse.Namespace, work: str):
        self.args = args
        self.w = WORKLOADS[args.workload]
        self.work = work
        self.tr = Tracer(bool(args.trace))
        self.rid = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.e2e: dict[str, tuple[float, str]] = {}
        self.layer: dict[str, tuple[float, str]] = {}
        self.engines: list = []
        self.marker_results: list = []
        self.samples: dict[str, tuple[dict, object]] = {}
        self.msearch_sample = None
        self.lat: list[float] = []       # timed search latencies
        self.batch_s: list[float] = []   # timed msearch batch times
        self.windows: list[tuple[float, float]] = []
        self.open_s: list[float] = []
        self.prewarm_s: list[float] = []
        self.first_query_ms: list[float] = []
        self.update_s: list[float] = []
        self.freshness: list[float] = []
        self.new_docs = 0
        self.request_s = 0.0  # ingest: time spent answering requests

    # ---- inputs -------------------------------------------------------
    def generate(self) -> None:
        """Make the inputs in a child process; a stale Ray session from
        an earlier run is stopped meanwhile."""
        w = self.w
        cmd = [sys.executable, os.path.join(HERE, "gen.py"),
               "--out", os.path.join(self.work, "in"),
               "--seed", str(self.args.seed), "--docs", str(w.docs),
               "--batches", str(w.batches), "--batch-docs", str(w.batch_docs),
               "--hot", str(HOT_STREAM),
               "--tail", str(w.tail if self.args.trace else 0),
               "--events", str(w.events if self.args.trace else 0)]
        gen = subprocess.Popen(cmd)
        try:
            subprocess.run([sys.executable, "-m", "ray.scripts.scripts",
                            "stop", "--force"], capture_output=True,
                           timeout=120)
            if gen.wait(timeout=170):
                raise RuntimeError(
                    f"input generation exited {gen.returncode}")
        finally:
            if gen.poll() is None:
                gen.kill()
                gen.wait()
        with open(os.path.join(self.work, "in", "inputs.json")) as f:
            self.inputs = json.load(f)

    # ---- Ray ----------------------------------------------------------
    def start_ray(self) -> None:
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        sys.path.insert(0, ROOT)
        import ray
        from ray.data import DataContext

        self.ray = ray
        kw = {}
        tmp = os.path.join(ROOT, ".bench_work", "ray")
        # Ray's unix socket paths, ~62 chars below this, must fit 107
        if len(tmp) <= 44:
            kw["_temp_dir"] = tmp
        t = time.perf_counter()
        with self.tr.span("ray.init"):
            ray.init(address="local", num_cpus=host.cpus(),
                     include_dashboard=False, logging_level="ERROR",
                     object_store_memory=768 << 20, **kw)
        self.layer["ray.init_s"] = (time.perf_counter() - t, "s")
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    # ---- index --------------------------------------------------------
    def build(self) -> None:
        from logsentinelai_ray.index.build import build_index

        self.index = os.path.join(self.work, "index")
        self.attempted += 1
        t = time.perf_counter()
        with self.tr.span("index.build.build_index"):
            meta = build_index(os.path.join(self.work, "in", "corpus"),
                               self.index, corpus_tag=f"seed{self.args.seed}")
        build_s = time.perf_counter() - t
        self.layer["index.build.docs_per_s"] = (meta["n_docs"] / build_s,
                                                "docs/s")
        for k in ("prep_docs_s", "emit_postings_s", "stats_s", "segments_s"):
            self.layer[f"index.build.{k}"] = (
                float(meta["timings"].get(k, 0.0)), "s")
        self.layer["index.build.exchange_bytes"] = (
            _dir_bytes(os.path.join(self.index, "postings_raw")), "bytes")
        segs = os.path.join(self.index, "segments")
        self.layer["index.build.segment_bytes"] = (_dir_bytes(segs), "bytes")
        self.layer["index.build.tokens"] = (
            meta["stats"]["total_tokens"], "count")
        import pyarrow.parquet as pq

        self.layer["index.build.postings"] = (
            sum(pq.read_table(os.path.join(segs, f), columns=["df"])[
                "df"].to_numpy().sum() for f in os.listdir(segs)), "count")

    def open_engine(self, **kw):
        from logsentinelai_ray.query.shards import SearchEngine

        t = time.perf_counter()
        with self.tr.span("query.shards.open"):
            eng = SearchEngine(self.index, **kw)
        self.open_s.append(time.perf_counter() - t)
        self.engines.append(eng)
        return eng

    def cycle(self, b: int, requests: list[dict]):
        """Update with delta batch ``b``, open a fresh engine, search the
        batch's marker, then send ``requests``; returns the engine."""
        from logsentinelai_ray.index.update import update_index

        marker = self.inputs["markers"][b]
        self.samples.clear()  # the gate checks the final engine's answers
        self.attempted += 2
        t0 = time.perf_counter()
        with self.tr.span("index.update.update_index"):
            res = update_index(os.path.join(self.work, "in", f"delta-{b}"),
                               self.index, delta_tag=f"delta{b}")
        self.update_s.append(time.perf_counter() - t0)
        self.new_docs += res["n_new_docs"]
        for eng in self.engines:
            with self.tr.span("query.shards.shutdown"):
                eng.shutdown()
        self.engines.clear()
        eng = self.open_engine()
        t = time.perf_counter()
        with self.tr.span("query.shards.search"):
            got = eng.search(marker["marker"], k=marker["new_docs"] + 10)
        t1 = time.perf_counter()
        self.first_query_ms.append((t1 - t) * 1e3)
        self.freshness.append(t1 - t0)
        self.marker_results.append((b, got))
        self.wait_prewarm(eng)
        t = time.perf_counter()
        self.serve(eng, requests, limit=(len(requests), 0), record=True)
        self.request_s += time.perf_counter() - t
        return eng

    def wait_prewarm(self, eng) -> None:
        t = time.perf_counter()
        with self.tr.span("query.shards.wait_prewarm"):
            eng.wait_prewarm()
        self.prewarm_s.append(time.perf_counter() - t)

    def warm(self, eng) -> None:
        self.wait_prewarm(eng)
        for j, req in enumerate(self.inputs["hot_warm"]):
            t = time.perf_counter()
            eng.search(**_request(req))
            if j == 0:  # the engine's first query
                self.first_query_ms.append((time.perf_counter() - t) * 1e3)

    # ---- serving ------------------------------------------------------
    def serve(self, eng, stream: list[dict], seconds: float = 0.0,
              limit: tuple[int, int] | None = None,
              record: bool = False) -> int:
        """Closed loop, then msearch batches, over ``stream`` from its
        start. Runs for ``seconds``, each phase past its time share (up to
        ``SERVE_CAP`` times it) until it has its minimum of samples; or,
        given ``limit``, exactly that many (searches, batches). With
        ``record`` the times feed the end-to-end metrics and the answers
        the gate. Returns how far into ``stream`` it got."""
        i = n_batches = 0
        t = t0 = time.perf_counter()
        search_end = t0 + seconds * (1 - MSEARCH_SHARE)
        cap = t0 + seconds * SERVE_CAP
        while (i < limit[0]) if limit else t < cap and (
                t < search_end or i < MIN_SEARCHES):
            req = stream[i % len(stream)]
            self.rid += 1
            t = time.perf_counter()
            try:
                with self.tr.span("query.shards.search", self.rid):
                    res = eng.search(**_request(req))
            except Exception:  # a failed request counts, the loop goes on
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
                res = None
            dt = time.perf_counter() - t
            t += dt
            i += 1
            if record:
                self.lat.append(dt)
                if res is not None:
                    self.samples.setdefault(_signature(req), (req, res))
        self.attempted += i
        end = t + seconds * MSEARCH_SHARE
        cap = t + seconds * MSEARCH_SHARE * SERVE_CAP
        while (n_batches < limit[1]) if limit else t < cap and (
                t < end or n_batches < MIN_BATCHES):
            reqs = [stream[(i + j) % len(stream)]
                    for j in range(MSEARCH_BATCH)]
            self.rid += 1
            t = time.perf_counter()
            try:
                with self.tr.span("query.shards.msearch", self.rid):
                    res = eng.msearch([_request(r) for r in reqs])
            except Exception:
                self.failed += len(reqs)
                self.errors.append(traceback.format_exc(limit=3))
                res = None
            dt = time.perf_counter() - t
            t += dt
            n_batches += 1
            i += MSEARCH_BATCH
            self.attempted += MSEARCH_BATCH
            if record:
                self.batch_s.append(dt)
                if self.msearch_sample is None and res is not None:
                    self.msearch_sample = (reqs, res)
        return i

    def record_serving(self, issued: list[dict]) -> None:
        """Latency percentiles over every timed request, msearch and stream
        figures."""
        lat_ms = sorted(x * 1e3 for x in self.lat)
        q = statistics.quantiles(lat_ms, n=100, method="inclusive")
        # latencies follow the host's steal too closely for a bound (see
        # WORKLOADS.md), so they are per-layer figures
        self.p50_ms, self.p99_ms = q[49], q[98]
        self.layer["workload.search_p50_ms"] = (q[49], "ms")
        self.layer["workload.search_p99_ms"] = (q[98], "ms")
        batch = _median(self.batch_s)  # zero where a workload sends none
        self.layer["query.shards.msearch_qps"] = (
            MSEARCH_BATCH / batch if batch else 0.0, "1/s")
        self.layer["query.shards.msearch_batch_ms"] = (batch * 1e3, "ms")
        self.layer["workload.requests"] = (
            len(self.lat) + MSEARCH_BATCH * len(self.batch_s), "count")
        seen, repeats, total = set(), 0, 0
        for req in issued:
            for t in set(oracle.analyze(req["text"])):
                total += 1
                repeats += t in seen
                seen.add(t)
        self.layer["workload.repeat_term_share"] = (
            repeats / total if total else 0.0, "ratio")

    # ---- the run ------------------------------------------------------
    def run(self) -> None:
        w = self.w
        stream = self.inputs["hot"]
        traced = self.tr.enabled
        self.steal0 = host.steal_jiffies()
        self.start_ray()
        self.build()
        if w.batches:
            # ingest: each fresh engine first answers every dashboard
            # template once, then the next stretch of the stream. Those
            # requests are the timed part; set-up is the rest, until the
            # last batch is searchable.
            t = time.perf_counter()
            issued = []
            for b in range(w.batches):
                reqs = self.inputs["hot_warm"] + stream[
                    b * w.after_update:(b + 1) * w.after_update]
                eng = self.cycle(b, reqs)
                issued += reqs
            end = time.perf_counter()
            self.windows.append((t, end))
            self.setup_s = end - self.t_setup - self.request_s
            used = w.batches * w.after_update
        else:
            eng = self.open_engine()
            self.warm(eng)
            self.setup_s = time.perf_counter() - self.t_setup
            # timed figures come from untraced serving
            self.tr.enabled = False
            used = self.serve(eng, stream, self.args.seconds, record=True)
            issued = [stream[j % len(stream)] for j in range(used)]
        self.e2e["serve_rss_mb"] = (host.tree_rss_mb(), "MB")
        self.record_serving(issued)
        if traced:
            self.trace_serving(eng, stream[used:] + stream[:used])
        self.e2e["setup_s"] = (self.setup_s, "s")
        self.e2e["index_bytes_per_corpus_byte"] = (
            _dir_bytes(self.index) / self.inputs["corpus_bytes"], "ratio")
        L = self.layer
        # zero where a workload runs no update cycle
        L["index.update.docs_per_s"] = (
            self.new_docs / sum(self.update_s) if self.update_s else 0.0,
            "docs/s")
        L["index.update.freshness_s"] = (_median(self.freshness), "s")
        L["index.update.update_s"] = (_median(self.update_s), "s")
        L["index.update.new_docs"] = (self.new_docs, "count")
        L["query.shards.open_s"] = (_median(self.open_s), "s")
        L["query.shards.prewarm_s"] = (_median(self.prewarm_s), "s")
        L["query.shards.first_query_ms"] = (_median(self.first_query_ms),
                                            "ms")
        self.steal = host.steal_jiffies() - self.steal0
        self.load = host.loadavg()
        L["host.cpus"] = (host.cpus(), "count")
        L["host.steal_jiffies"] = (self.steal, "count")
        L["host.loadavg"] = (self.load, "count")
        t = time.perf_counter()
        self.verify(eng)
        self.verify_s = time.perf_counter() - t
        if traced:
            self.probe(eng, stream)
            if w.tail:
                eng, stream = self.tail_phase(eng), self.inputs["tail"]
            else:  # zero where a workload sends no tail requests
                for k in ("p50", "p99"):
                    L[f"workload.tail_{k}_ms"] = (0.0, "ms")
            self.probe_shards(eng, stream, "wand" if w.tail else None)
            for k, v in eng.cache_stats().items():
                if k != "resident_row_groups":
                    L[f"query.shards.{k}"] = (
                        v, "bytes" if k.endswith("bytes") else "count")
            if w.events:
                self.analytics()
            else:  # zero where a workload runs no analytics
                for name in ("plan_floor",) + ANALYTICS:
                    self.layer[f"pipelines.queries.{name}_s"] = (0.0, "s")

    def trace_serving(self, eng, stream: list[dict]) -> None:
        """Half the timed part's searches and msearch batches with spans and
        as many without, in alternating blocks along the stream so that
        cache warmth and host drift fall on both alike; the difference in
        wall time is the tracing cost."""
        block = max(1, len(self.lat) // (2 * TRACE_BLOCKS))
        batches = max(1, len(self.batch_s) // (2 * TRACE_BLOCKS)) \
            if self.batch_s else 0
        step = block + batches * MSEARCH_BATCH
        spent = [0.0, 0.0]
        for b in range(2 * TRACE_BLOCKS):
            self.tr.enabled = bool(b % 2)
            at = b * step % len(stream)
            t = time.perf_counter()
            self.serve(eng, stream[at:] + stream[:at],
                       limit=(block, batches))
            dt = time.perf_counter() - t
            spent[b % 2] += dt
            if b % 2:
                self.windows.append((t, t + dt))
        self.tr.enabled = True
        self.layer["trace.overhead_s"] = (spent[1] - spent[0], "s")

    # ---- correctness gate (untimed) ------------------------------------
    def verify(self, eng) -> None:
        import pyarrow.parquet as pq

        inp = os.path.join(self.work, "in")
        tables = [pq.read_table(os.path.join(inp, "corpus"))] + [
            pq.read_table(os.path.join(inp, f"delta-{b}"))
            for b in range(self.w.batches)]
        self.ref = ref = oracle.Reference(oracle.assign_ids(tables))
        bad: list[str] = []

        def gate(what: str, err: str | None) -> None:
            if err:
                bad.append(f"{what}: {err}")

        # every marker batch is visible after its update
        for b, got in self.marker_results:
            keys = set(oracle.keys_of(tables[b + 1]).to_pylist()) - set(
                oracle.keys_of(tables[0]).to_pylist())
            gate(f"marker {b}", oracle.check_marker(got, keys))
            gate(f"marker {b} docs", oracle.check_docs(got, ref))
        if self.msearch_sample is not None:
            reqs, got = self.msearch_sample
            ref.prepare([r["text"] for r in reqs])
            qid = got["query_id"].to_numpy()
            for j, req in enumerate(reqs):
                want = ref.search(req["text"], req["k"], req.get("filters"))
                gate(f"msearch {j}", oracle.compare_topk(
                    oracle.topk_of(got.filter(qid == j)), want))
        self.failed += len(bad)
        self.errors.extend(bad)
        self.gated = len(self.marker_results)
        self.attempted += self.gated
        self.check_sample(eng, self.samples)

    def check_sample(self, eng, samples: dict) -> None:
        """The first ``GATE_SAMPLE`` distinct answers equal the reference,
        with their documents, and so do TAAT and WAND re-runs of them."""
        ref = self.ref
        sample = list(samples.values())[:GATE_SAMPLE]
        bad = [] if len(sample) >= 20 else [
            f"only {len(sample)} distinct requests to check"]

        def gate(what: str, err: str | None) -> None:
            if err:
                bad.append(f"{what}: {err}")

        ref.prepare([r["text"] for r, _ in sample])
        for req, got in sample:
            want = ref.search(req["text"], req["k"], req.get("filters"))
            gate(req["text"], oracle.compare_topk(oracle.topk_of(got), want))
            gate(req["text"] + " docs", oracle.check_docs(got, ref))
            for strat in ("taat", "wand"):
                alt = eng.search(**_request(req), with_meta=False,
                                 strategy=strat)
                gate(f"{req['text']} [{strat}]", oracle.compare_topk(
                    oracle.topk_of(alt), want))
        self.gated += len(sample)
        self.attempted += len(sample)
        self.failed += len(bad)
        self.errors.extend(bad)

    def tail_phase(self, hot_eng):
        """Long-tail identifiers with WAND over a byte-capped engine without
        prewarm, so that every request pays shard round trips, row-group
        loads and posting decode; gated like the timed requests. Returns
        the engine."""
        self.engines.remove(hot_eng)
        with self.tr.span("query.shards.shutdown"):
            hot_eng.shutdown()
        eng = self.open_engine(prewarm_hot_terms=0, max_resident_bytes=(
            _dir_bytes(os.path.join(self.index, "segments"))))
        for req in self.inputs["tail_warm"]:
            eng.search(**_request(req), strategy="wand")
        lat, samples = [], {}
        for req in self.inputs["tail"]:
            self.rid += 1
            t = time.perf_counter()
            try:
                with self.tr.span("query.shards.search", self.rid):
                    res = eng.search(**_request(req), strategy="wand")
                samples.setdefault(_signature(req), (req, res))
            except Exception:
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
            lat.append((time.perf_counter() - t) * 1e3)
        self.attempted += len(lat)
        q = statistics.quantiles(lat, n=100, method="inclusive")
        self.layer["workload.tail_p50_ms"] = (q[49], "ms")
        self.layer["workload.tail_p99_ms"] = (q[98], "ms")
        self.check_sample(eng, samples)
        return eng

    # ---- traced run: per-layer probes beside real requests -----------
    def probe(self, eng, stream) -> None:
        """Analyzer, search without metadata and the docmap join, probed
        beside a sample of the timed stream; tokenizer throughput over the
        corpus."""
        import pyarrow.parquet as pq
        from logsentinelai_ray.analysis.tokenizer import (analyze_py,
                                                          tokenize_batch_arrow)

        tr = self.tr
        step = max(1, len(stream) // PROBE_SAMPLE)
        m = {k: [] for k in ("analyze", "nometa", "join")}
        for j in range(0, step * PROBE_SAMPLE, step):
            req = _request(stream[j % len(stream)])
            self.rid += 1
            rid = self.rid
            t = time.perf_counter()
            with tr.span("analysis.tokenizer.analyze_py", rid):
                analyze_py(req["text"])
            m["analyze"].append(time.perf_counter() - t)
            t = time.perf_counter()
            with tr.span("query.shards.search", rid):
                eng.search(**req)
            full = time.perf_counter() - t
            t = time.perf_counter()
            with tr.span("query.shards.search_nometa", rid):
                eng.search(**req, with_meta=False)
            nometa = time.perf_counter() - t
            m["nometa"].append(nometa)
            m["join"].append(full - nometa)
        L = self.layer
        L["analysis.tokenizer.query_analyze_us"] = (
            _median(m["analyze"]) * 1e6, "us")
        L["query.shards.search_nometa_ms"] = (_median(m["nometa"]) * 1e3,
                                              "ms")
        L["query.shards.docmap_join_ms"] = (_median(m["join"]) * 1e3, "ms")
        # tokenizer throughput over the corpus, in the build's batch size
        corpus = pq.read_table(os.path.join(self.work, "in", "corpus"),
                               columns=["content"])
        n_tok, t_tok = 0, 0.0
        for batch in corpus.to_batches(max_chunksize=2048):
            t = time.perf_counter()
            with tr.span("analysis.tokenizer.tokenize_batch_arrow"):
                _, toks, _ = tokenize_batch_arrow(batch.column(0))
            t_tok += time.perf_counter() - t
            n_tok += len(toks)
        L["analysis.tokenizer.batch_tokens_per_s"] = (n_tok / t_tok, "1/s")

    def probe_shards(self, eng, stream, strategy) -> None:
        """Shard round trips, posting decode and the WAND profile for each
        term of a sample of ``stream``, through the shards' and the
        postings' public functions."""
        import ray
        from logsentinelai_ray.analysis.tokenizer import analyze_py
        from logsentinelai_ray.index.build import term_partition
        from logsentinelai_ray.query.postings import TermPostings

        tr = self.tr
        st = eng.stats
        step = max(1, len(stream) // PROBE_SAMPLE)
        m = {k: [] for k in ("get", "decode", "dfs")}
        n_post, t_post = 0, 0.0
        prof = {"atoms_considered": 0, "atoms_skipped": 0, "docs_scored": 0}
        for j in range(0, step * PROBE_SAMPLE, step):
            req = _request(stream[j % len(stream)])
            self.rid += 1
            rid = self.rid
            with tr.span("query.shards.search", rid):
                eng.search(**req, strategy=strategy)
            with tr.span("query.wand.profile", rid):
                p = eng.profile(req["text"], k=req["k"]).to_pylist()[0]
            for k in prof:
                prof[k] += p[k]
            with tr.span("analysis.tokenizer.analyze_py", rid):
                terms = sorted(set(analyze_py(req["text"])))
            for term in terms:
                shard = eng.part_to_shard[term_partition(term, eng.P)]
                t = time.perf_counter()
                with tr.span("query.shards.get_terms", rid):
                    rows = ray.get(shard.get_terms.remote([term]))
                m["get"].append(time.perf_counter() - t)
                t = time.perf_counter()
                with tr.span("query.shards.decode_term", rid):
                    ray.get(shard.decode_term.remote(
                        term, st["n_docs"], st["k1"], st["b"], st["avgdl"]))
                m["decode"].append(time.perf_counter() - t)
                t = time.perf_counter()
                with tr.span("query.shards.term_dfs", rid):
                    ray.get(shard.term_dfs.remote([term]))
                m["dfs"].append(time.perf_counter() - t)
                if rows is None:
                    continue
                for row in rows.to_pylist():
                    row["codec"] = st.get("codec", "varint")
                    t = time.perf_counter()
                    with tr.span("query.postings.decode_all", rid):
                        ids, _, _ = TermPostings(row).decode_all()
                    t_post += time.perf_counter() - t
                    n_post += len(ids)
        L = self.layer
        L["query.shards.get_terms_ms"] = (_median(m["get"]) * 1e3, "ms")
        L["query.shards.decode_term_ms"] = (_median(m["decode"]) * 1e3, "ms")
        L["query.shards.term_dfs_ms"] = (_median(m["dfs"]) * 1e3, "ms")
        L["query.postings.decode_postings_per_s"] = (
            n_post / t_post if t_post else 0.0, "1/s")
        for k, v in prof.items():
            L[f"query.wand.{k}"] = (v, "count")
        considered = prof["atoms_considered"] + prof["atoms_skipped"]
        L["query.wand.skip_share"] = (
            prof["atoms_skipped"] / considered if considered else 0.0,
            "ratio")

    def analytics(self) -> None:
        """Time registry entries over the generated events table, and a
        trivial plan as the Ray Data floor under them; check each result
        against its DuckDB oracle."""
        import ray.data as rd
        from logsentinelai_ray.pipelines import ORACLE_SQL, QUERY_REGISTRY

        inp = os.path.join(self.work, "in")
        want = {name: oracle.run_sql(ORACLE_SQL[name], inp)
                for name in ANALYTICS}
        want["plan_floor"] = int(oracle.run_sql(
            "SELECT sum(user_id)::BIGINT AS s FROM events", inp)["s"][0])

        def plan_floor():
            return rd.read_parquet(
                os.path.join(inp, "events.parquet"), columns=["user_id"]
            ).map_batches(lambda t: t, batch_format="pyarrow").sum("user_id")

        runs = {"plan_floor": plan_floor}
        for name in ANALYTICS:
            runs[name] = lambda f=QUERY_REGISTRY[name]: oracle.frame_of(
                f(inp))
        for name, fn in runs.items():
            times = []
            for _ in range(ANALYTICS_REPS):
                t = time.perf_counter()
                with self.tr.span(f"pipelines.queries.{name}"):
                    got = fn()
                times.append(time.perf_counter() - t)
            self.layer[f"pipelines.queries.{name}_s"] = (_median(times), "s")
            if name == "plan_floor":
                err = None if got == want[name] else \
                    f"sum {got}, want {want[name]}"
            else:
                err = oracle.compare_rows(got, want[name])
            self.attempted += 1
            if err:
                self.failed += 1
                self.errors.append(f"analytics {name}: {err}")

    def trace_metrics(self) -> None:
        spans = self.tr.spans
        cov = coverage(spans, self.windows)
        self.layer["trace.coverage"] = (cov, "ratio")
        self.layer["trace.spans"] = (len(spans), "count")
        own = self_times(spans)
        for layer in LAYERS:  # zero for a layer the workload never calls
            self.layer[f"{layer}.self_s"] = (own.pop(layer, 0.0), "s")
        if own:
            raise ValueError(f"spans of unlisted layers: {sorted(own)}")
        if cov < 0.9:
            self.failed += 1
            self.errors.append(f"trace coverage {cov:.3f} < 0.9")
        self.tr.write(os.path.join(
            ROOT, ".bench_work",
            f"spans-{self.args.workload}-{self.args.seed}.jsonl"))

    def close(self) -> None:
        for eng in self.engines:
            try:
                eng.shutdown()
            except Exception:
                traceback.print_exc()
        self.engines.clear()
        ray = getattr(self, "ray", None)
        if ray is not None and ray.is_initialized():
            ray.shutdown()


def declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    args = parse_args()
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    if not os.path.isdir(os.path.join(ROOT, "logsentinelai_ray")):
        print("engine package logsentinelai_ray not found next to "
              "perfbench/", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(args, work)
    phases = {}
    try:
        t = time.perf_counter()
        bench.generate()
        bench.t_setup = time.perf_counter()
        phases["generate"] = bench.t_setup - t
        bench.run()
        if args.trace:
            bench.trace_metrics()
    finally:
        t = time.perf_counter()
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(base, "ray"), ignore_errors=True)
        phases["close"] = time.perf_counter() - t
    for e in bench.errors[:10]:
        print("FAILED:", e, file=sys.stderr)
    metrics = bench.layer if args.trace else bench.e2e
    want = declared(bool(args.trace))
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        print(f"metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(want) - set(got))}, unlisted "
              f"{sorted(set(got) - set(want))}, units "
              f"{sorted(k for k in got if k in want and got[k] != want[k])}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "cpus": host.cpus(), "steal_jiffies": bench.steal,
        "loadavg": bench.load,
        "failed_share": bench.failed / bench.attempted,
        "requests": len(bench.lat), "batches": len(bench.batch_s),
        "p50_ms": bench.p50_ms, "p99_ms": bench.p99_ms,
        "setup_s": bench.setup_s,
        "gated": bench.gated,
        "phases_s": dict(phases, verify=bench.verify_s),
        "process_s": time.perf_counter() - T_PROCESS}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
