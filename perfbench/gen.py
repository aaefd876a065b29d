"""Seeded input generators for the benchmark.

Everything a workload consumes is made here, from ``--seed`` alone, so an
edit to the engine's own fixtures (``corpus.py``, ``queries.json``) cannot
change the benchmark's inputs:

- the base corpus in the FIXTURES.md section 1 shape: a Zipf head
  (``error``, ``import``, ``return``, ``self``, ``the``), fused, camelCase and
  snake_case identifiers, threat phrases, log-like lines, ~1% exact
  duplicate rows;
- delta batches for the ingest cycles; each new doc carries its batch's
  marker token, and ~1% of a batch re-sends rows already indexed;
- the hot request mix: 17 templates shaped like the reference query set,
  in Zipf shares, shuffled;
- the long-tail request stream: 1-2 rare fused identifiers from the corpus
  plus one head term;
- an ``events`` table (``event_id, ts, user_id, event_type, value,
  props``) for the analytics registry entries: skewed event types and
  users over 30 days.

Run as a script it writes one input directory and exits, so the generation
heap never shows in the measured process:

    python3 perfbench/gen.py --seed 1 --docs 8000 --batches 3 \
        --batch-docs 2000 --hot 20000 --events 50000 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Zipf head first: rank decides frequency.
HEAD = ["error", "import", "return", "self", "the"]
_WORDS = HEAD + """
def if for in data value result none true false log request response config
test file path name type class function index query batch stream token parse
handler server client buffer cache thread lock async await yield raise except
try while break continue lambda print format split join strip append extend
insert remove delete update create read write open close flush seek tell size
count offset limit range list dict set tuple str int float bool bytes object
module package version status code header body json xml html http https url
uri host port socket connect session user admin login password auth token
retry timeout backoff queue worker pool task job schedule event alert metric
trace span record field column table schema row key hash digest cipher crypt
sign verify cert proxy route gateway balance shard replica leader follower
vote term commit rollback snapshot restore backup archive compress decode
encode serialize marshal render template layout widget button panel frame
window screen pixel color font image video audio sample filter reduce map
merge sort search match scan probe fetch pull push sync spawn kill signal
pipe fork exec mount unmount disk volume block page frame heap stack
""".split()
WORDS = list(dict.fromkeys(_WORDS))  # stable order, no repeats

FIXED_IDENTIFIERS = [
    "parseHttpRequest", "auth_failure_count", "getUserById", "retry_backoff",
    "MaxBufferSize", "handleTimeoutError", "socket_read_loop", "JSONDecoder",
    "validateInputSchema", "flushWriteBuffer", "computeShardOffset",
    "geo_ip_lookup", "severity_level", "chunkPendingTimeout", "log_monitor",
]
THREATS = [
    "authentication failure", "select union", "/etc/passwd", "robots.txt",
    "sql injection attempt", "brute force login", "invalid user admin",
    "directory traversal", "xss script alert", "failed password for root",
]
LOG_LINES = [
    '192.168.1.10 - - [22/Jan/2019:03:56:14 +0330] "GET /index.html '
    'HTTP/1.1" 200 30577',
    "[Thu Jun 09 06:07:04 2005] [notice] caught SIGTERM shutting down",
    "Jun 14 15:16:01 host sshd(pam_unix)[19939]: authentication failure; "
    "rhost=218.188.2.4",
]
LANGS = ["python", "java", "go", "js", "rust", "c", "md"]
LANG_P = np.array([0.3, 0.15, 0.12, 0.15, 0.1, 0.1, 0.08])
EXT = {"python": "py", "java": "java", "go": "go", "js": "js",
       "rust": "rs", "c": "c", "md": "md"}

# The hot mix: the reference query set's shapes (hot term, multi-term,
# identifier, path-like, duplicated term, zero-hit, filtered). Listed in
# popularity order; "{lang}" / "{repo}" slots are filled per request.
HOT_TEMPLATES = [
    {"text": "error", "k": 10},
    {"text": "authentication failure", "k": 10},
    {"text": "error", "k": 10, "filters": {"lang": "{lang}"}},
    {"text": "authentication failure error", "k": 10},
    {"text": "select union passwd", "k": 10},
    {"text": "parseHttpRequest", "k": 10},
    {"text": "import return self the error", "k": 10},
    {"text": "auth_failure_count", "k": 10},
    {"text": "robots.txt", "k": 10},
    {"text": "sql injection attempt", "k": 10},
    {"text": "failed password for root", "k": 10},
    {"text": "authentication failure", "k": 25,
     "filters": {"repo": "{repo}"}},
    {"text": "error error error", "k": 10},
    {"text": "buffer cache thread lock async", "k": 10},
    {"text": "select union passwd", "k": 10, "filters": {"lang": "{lang}"}},
    {"text": "http server client socket connect", "k": 10},
    {"text": "zzz_absent_xyzzy", "k": 10},
]

# Part of the random stream's seed: bump it when the generated bytes change
# for a given --seed.
GENERATOR_VERSION = 2
# The hot mix repeats in shuffled rounds of this many requests, each holding
# every template in its Zipf share rounded to whole requests, so that any
# stretch of the stream has the same mix whatever the seed.
HOT_ROUND = 1000


def _zipf(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


def _large(s: str) -> pa.Scalar:
    return pa.scalar(s, pa.large_string())


def _repo(i: np.ndarray) -> list[str]:
    return [f"org{a % 7}/repo{a % 23}" for a in i.tolist()]


def make_docs(rng: np.random.Generator, n: int, key_base: int,
              min_lines: int, max_lines: int,
              marker: str | None = None) -> pa.Table:
    """``n`` corpus rows; keys are unique through ``key_base``. With a
    ``marker`` every row ends with a line holding that token."""
    vocab = np.array(WORDS, dtype=object)
    word_p = _zipf(len(WORDS), 1.1)
    n_lines = rng.integers(min_lines, max_lines + 1, size=n)
    total_lines = int(n_lines.sum())
    words_per_line = rng.integers(3, 9, size=total_lines)
    words = pa.array(vocab[rng.choice(len(WORDS), size=int(
        words_per_line.sum()), p=word_p)], pa.large_string())
    off = np.zeros(total_lines + 1, dtype=np.int64)
    np.cumsum(words_per_line, out=off[1:])
    lines = pc.binary_join(pa.LargeListArray.from_arrays(pa.array(off), words),
                           _large(" "))

    # line flavour: <.15 identifier, <.20 threat phrase, <.23 log line
    kind = rng.random(total_lines)
    style = rng.integers(0, 4, size=total_lines)  # fixed/camel/snake/fused
    w1 = vocab[rng.choice(len(WORDS), size=total_lines, p=word_p)]
    w2 = vocab[rng.choice(len(WORDS), size=total_lines, p=word_p)]
    pick = rng.integers(0, 1 << 30, size=total_lines)
    suffix = np.full(total_lines, None, dtype=object)
    ident = kind < 0.15
    m = ident & (style == 0)
    suffix[m] = np.array(FIXED_IDENTIFIERS, dtype=object)[
        pick[m] % len(FIXED_IDENTIFIERS)]
    m = ident & (style == 1)
    suffix[m] = w1[m] + np.array([w.capitalize() for w in w2[m]],
                                 dtype=object)
    m = ident & (style == 2)
    suffix[m] = w1[m] + "_" + w2[m]
    m = ident & (style == 3)
    suffix[m] = w1[m] + w2[m]
    m = (kind >= 0.15) & (kind < 0.20)
    suffix[m] = np.array(THREATS, dtype=object)[pick[m] % len(THREATS)]
    m = (kind >= 0.20) & (kind < 0.23)
    suffix[m] = np.array(LOG_LINES, dtype=object)[pick[m] % len(LOG_LINES)]
    lines = pc.binary_join_element_wise(
        lines, pa.array(suffix, pa.large_string()), _large(" "),
        null_handling="skip")

    loff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_lines, out=loff[1:])
    content = pc.binary_join(
        pa.LargeListArray.from_arrays(pa.array(loff), lines), _large("\n"))
    if marker is not None:
        content = pc.binary_join_element_wise(
            content, _large(f"ingest batch {marker} committed"),
            _large("\n"))

    ids = np.arange(key_base, key_base + n)
    langs = np.array(LANGS, dtype=object)[
        rng.choice(len(LANGS), size=n, p=LANG_P)]
    mods = rng.integers(0, 40, size=n)
    files = rng.integers(0, 997, size=n)
    repos = _repo(ids)
    paths = [f"src/module_{a}/file_{b}.{EXT[lang]}"
             for a, b, lang in zip(mods.tolist(), files.tolist(), langs)]
    commits = [hashlib.sha1(f"{r}|{p}|{i}".encode()).hexdigest()
               for r, p, i in zip(repos, paths, ids.tolist())]
    return pa.table({
        "repo": pa.array(repos, pa.string()),
        "path": pa.array(paths, pa.string()),
        "commit": pa.array(commits, pa.string()),
        "lang": pa.array(langs.tolist(), pa.string()),
        "content": content.cast(pa.string()),
    })


def with_duplicates(rng: np.random.Generator, tbl: pa.Table,
                    source: pa.Table, n_dup: int) -> pa.Table:
    """Append ``n_dup`` exact copies of ``source`` rows to ``tbl``."""
    picks = rng.integers(0, source.num_rows, size=n_dup)
    return pa.concat_tables([tbl, source.take(pa.array(picks))])


def fused_identifiers(tbl: pa.Table) -> list[str]:
    """Distinct fused-pair identifiers (two lowercase vocabulary words,
    no separator) occurring in ``tbl``: the corpus's long-tail terms."""
    head = "|".join(WORDS)
    found = pc.extract_regex(
        pc.split_pattern(tbl["content"], "\n").combine_chunks().flatten(),
        rf" (?P<id>(?:{head})(?:{head}))$")
    ids = pc.unique(pc.struct_field(found.drop_null(), [0]))
    vocab = set(WORDS)
    return sorted(i for i in ids.to_pylist() if i not in vocab)


def hot_requests(rng: np.random.Generator, n: int, repos: list[str],
                 picks: np.ndarray | None = None) -> list[dict]:
    """``n`` requests in Zipf (s=1) shares over ``HOT_TEMPLATES``, shuffled
    within each ``HOT_ROUND``, or of the template indexes ``picks``, with
    their slots filled."""
    if picks is None:
        # largest remainders, so that the counts sum to HOT_ROUND
        share = HOT_ROUND * _zipf(len(HOT_TEMPLATES), 1.0)
        counts = np.floor(share).astype(int)
        counts[np.argsort(counts - share)[:HOT_ROUND - counts.sum()]] += 1
        one = np.repeat(np.arange(len(HOT_TEMPLATES)), counts)
        picks = np.concatenate([rng.permutation(one) for _ in range(
            n // len(one) + 1)])[:n]
    n = len(picks)
    langs = rng.choice(len(LANGS), size=n, p=LANG_P)
    repo_pick = rng.integers(0, len(repos), size=n)
    out = []
    for t, li, ri in zip(picks.tolist(), langs.tolist(), repo_pick.tolist()):
        req = {"text": HOT_TEMPLATES[t]["text"], "k": HOT_TEMPLATES[t]["k"],
               "template": t}
        f = HOT_TEMPLATES[t].get("filters")
        if f:
            req["filters"] = {
                key: (LANGS[li] if v == "{lang}" else repos[ri])
                for key, v in f.items()}
        out.append(req)
    return out


def tail_requests(rng: np.random.Generator, n: int, fused: list[str]
                  ) -> list[dict]:
    """``n`` requests of 1-2 uniformly drawn fused identifiers plus one
    head term."""
    width = rng.integers(1, 3, size=n)
    ids = rng.integers(0, len(fused), size=(n, 2))
    head = rng.choice(len(HEAD), size=n, p=_zipf(len(HEAD), 1.0))
    return [{"text": " ".join([fused[i] for i in ids[r, :width[r]]]
                              + [HEAD[head[r]]]), "k": 10}
            for r in range(n)]


EVENT_TYPES = ["error", "purchase", "signup", "click", "view"]
EVENT_P = np.array([0.1, 0.15, 0.2, 0.3, 0.25])
EVENT_USERS = 200
EVENT_DAYS = 30


def make_events(rng: np.random.Generator, n: int) -> pa.Table:
    """``n`` events in time order; users are drawn Zipf (s=0.8) through a
    shuffled id map, so the busiest users are not the lowest ids."""
    start = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = np.sort(rng.integers(0, EVENT_DAYS * 86_400_000_000, size=n))
    users = rng.permutation(EVENT_USERS)[
        rng.choice(EVENT_USERS, size=n, p=_zipf(EVENT_USERS, 0.8))]
    k = rng.integers(0, 100, size=n)
    return pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(start + ts, pa.timestamp("us")),
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array(np.array(EVENT_TYPES, dtype=object)[
            rng.choice(len(EVENT_TYPES), size=n, p=EVENT_P)].tolist(),
            pa.string()),
        "value": pa.array(np.round(rng.uniform(0.01, 500.0, size=n), 2)),
        "props": pa.array([f'{{"k": {v}}}' for v in k.tolist()],
                          pa.string()),
    })


def generate(out: str, seed: int, docs: int, batches: int, batch_docs: int,
             hot: int, tail: int, events: int = 0, min_lines: int = 20,
             max_lines: int = 200) -> dict:
    """Write one workload's inputs under ``out``; returns the manifest."""
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    os.makedirs(os.path.join(out, "corpus"), exist_ok=True)
    # ~1% of the generated rows repeat earlier rows exactly
    n_dup = max(1, docs // 100)
    n_unique = docs - n_dup
    base = make_docs(rng, n_unique, seed * 10_000_000, min_lines, max_lines)
    base = with_duplicates(rng, base, base, n_dup)
    n_files = 4
    per = -(-base.num_rows // n_files)
    for f in range(n_files):
        pq.write_table(base.slice(f * per, per),
                       os.path.join(out, "corpus", f"part-{f}.parquet"))
    markers = []
    for b in range(batches):
        marker = f"mark{seed}b{b}"
        key_base = seed * 10_000_000 + 5_000_000 + b * 100_000
        n_dup = max(1, batch_docs // 100)
        n_new = batch_docs - n_dup
        delta = make_docs(rng, n_new, key_base, min_lines, max_lines,
                          marker=marker)
        # re-sent rows: already indexed, so update_index must drop them
        delta = with_duplicates(rng, delta, base, n_dup)
        d = os.path.join(out, f"delta-{b}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(delta, os.path.join(d, "part-0.parquet"))
        markers.append({"marker": marker, "new_docs": n_new})
    repos = sorted(set(base["repo"].to_pylist()))
    fused = fused_identifiers(base)
    manifest = {
        "seed": seed, "docs": base.num_rows, "unique_docs": n_unique,
        "corpus_bytes": int(pc.sum(pc.binary_length(base["content"]))
                            .as_py()),
        "markers": markers,
        "n_fused": len(fused),
        "hot": hot_requests(rng, hot, repos),
        "tail": tail_requests(rng, tail, fused),
        # untimed warm-up: each hot template once, and tail requests drawn
        # apart from the timed stream
        "hot_warm": hot_requests(rng, 0, repos,
                                 picks=np.arange(len(HOT_TEMPLATES))),
        "tail_warm": tail_requests(rng, 30, fused),
    }
    if events:
        # the registry entries read ``<dir>/events.parquet``
        pq.write_table(make_events(rng, events),
                       os.path.join(out, "events.parquet"))
        manifest["events"] = events
    with open(os.path.join(out, "inputs.json"), "w") as f:
        f.write(json.dumps(manifest))
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--docs", type=int, required=True)
    ap.add_argument("--batches", type=int, default=0)
    ap.add_argument("--batch-docs", type=int, default=0)
    ap.add_argument("--hot", type=int, default=0)
    ap.add_argument("--tail", type=int, default=0)
    ap.add_argument("--events", type=int, default=0)
    a = ap.parse_args()
    generate(a.out, a.seed, a.docs, a.batches, a.batch_docs, a.hot, a.tail,
             a.events)


if __name__ == "__main__":
    main()
