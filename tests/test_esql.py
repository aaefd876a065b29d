"""ES|QL mini-dialect executor (query/esql.py): parser, expression
compiler, column pruning, and full-pipeline cross-checks vs DuckDB."""

import duckdb
import pyarrow as pa
import pytest

from logsentinelai_ray.query.esql import (BinOp, Call, Field, Lit,
                                          _pipeline_fields, eval_expr,
                                          execute_esql, parse_esql,
                                          parse_expr)

SF = "/root/testdata/sf0.001"


def test_expr_precedence():
    e = parse_expr('a + b * 2 > 10 AND NOT lang == "go"')
    assert isinstance(e, BinOp) and e.op == "and"
    cmp_ = e.left
    assert cmp_.op == ">" and cmp_.left.op == "+"
    assert cmp_.left.right.op == "*"


def test_expr_parens_and_unary():
    e = parse_expr("-(a + 1) * 2")
    assert e.op == "*" and e.left.op == "neg"


def test_parse_pipeline_shapes():
    cmds = parse_esql(
        'FROM events | WHERE v > 1 | EVAL m = ROUND(v * 2), n2 = m + 1 '
        "| STATS c = COUNT(*), s = SUM(m) BY user_id "
        "| SORT c DESC, user_id ASC | LIMIT 5 | KEEP user_id, c")
    kinds = [type(c).__name__ for c in cmds]
    assert kinds == ["From", "Where", "Eval", "Stats", "Sort", "Limit",
                     "Keep"]
    stats = cmds[3]
    assert [a[0] for a in stats.aggs] == ["c", "s"]
    assert stats.by == ["user_id"]


def test_column_pruning_excludes_derived():
    cmds = parse_esql(
        "FROM events | EVAL m = value + 1 "
        "| STATS n = COUNT(*), s = SUM(m) BY user_id | SORT n DESC")
    assert _pipeline_fields(cmds) == {"value", "user_id"}


def test_eval_expr_vectorized():
    t = pa.table({"a": [1, 2, 3], "s": ["X", "y", "Z"]})
    out = eval_expr(parse_expr("a * 2 + 1"), t)
    assert out.to_pylist() == [3, 5, 7]
    low = eval_expr(parse_expr("TO_LOWER(s)"), t)
    assert low.to_pylist() == ["x", "y", "z"]
    mask = eval_expr(parse_expr('a >= 2 AND s != "Z"'), t)
    assert mask.to_pylist() == [False, True, False]


def test_unknown_command_and_bad_agg():
    with pytest.raises(ValueError):
        parse_esql("FROM x | FROBNICATE y")
    with pytest.raises(ValueError):
        parse_esql("FROM x | STATS a = FROBNICATE(v)")
    with pytest.raises(ValueError):
        parse_esql("FROM x | STATS a = COUNT(v)")
    with pytest.raises(ValueError):
        parse_esql("FROM x | STATS a = MEDIAN(*)")


def test_dissect_pattern_compiles():
    cmds = parse_esql(
        'FROM events | DISSECT props "{\\"k\\": %{kval}}"')
    d = cmds[1]
    assert d.names == ["kval"]
    import re as _re
    m = _re.search(d.regex, '{"k": 87}')
    assert m and m.group("kval") == "87"


def test_dissect_multi_key_lazy_inner():
    cmds = parse_esql('FROM x | DISSECT f "%{a} - %{b}"')
    import re as _re
    m = _re.search(cmds[1].regex, "one - two - three")
    assert m.group("a") == "one" and m.group("b") == "two - three"


def test_enrich_parse_and_errors():
    cmds = parse_esql(
        "FROM orders | ENRICH customer ON o_custkey WITH c_name")
    e = cmds[1]
    assert (e.table, e.on, e.with_cols) == ("customer", "o_custkey",
                                            ["c_name"])
    with pytest.raises(ValueError):
        parse_esql("FROM orders | ENRICH customer o_custkey")


def test_where_keep_limit_vs_duckdb(ray_session):
    out = execute_esql(
        'FROM documents | WHERE lang == "en" AND n_chars > 120 '
        "| KEEP doc_id, n_chars | SORT doc_id ASC | LIMIT 7", SF)
    exp = duckdb.sql(
        f"SELECT doc_id, n_chars FROM read_parquet("
        f"'{SF}/documents.parquet') WHERE lang = 'en' AND "
        f"n_chars > 120 ORDER BY doc_id LIMIT 7").fetch_arrow_table()
    assert out.num_rows == 7
    assert out.to_pydict() == exp.to_pydict()


def test_global_stats_no_by(ray_session):
    out = execute_esql(
        'FROM events | WHERE event_type == "error" '
        "| STATS n = COUNT(*)", SF)
    exp = duckdb.sql(
        f"SELECT count(*)::BIGINT AS n FROM read_parquet("
        f"'{SF}/events.parquet') WHERE event_type = 'error'") \
        .fetch_arrow_table()
    assert out["n"].to_pylist() == exp["n"].to_pylist()


def test_implicit_limit_1000(ray_session):
    # ES|QL's documented default: no LIMIT in the pipeline -> at most
    # 1000 rows come back
    out = execute_esql("FROM events | KEEP event_id", SF)
    import duckdb as _d
    total = _d.sql(f"SELECT count(*) FROM read_parquet("
                   f"'{SF}/events.parquet')").fetchone()[0]
    assert out.num_rows == min(1000, total)


def test_rename_parse_and_errors():
    cmds = parse_esql(
        "FROM x | RENAME a AS b, c AS d | WHERE b > 1")
    r = cmds[1]
    assert r.pairs == [("a", "b"), ("c", "d")]
    # the renamed source column counts as read; new names are derived
    assert _pipeline_fields(cmds) == {"a", "c"}
    with pytest.raises(ValueError):
        parse_esql("FROM x | RENAME a b")


def test_mv_expand_es_null_semantics():
    # ES MV_EXPAND: null / empty multivalues KEEP their row with a
    # single null value (SQL UNNEST would drop them)
    from logsentinelai_ray.query.esql import _mv_expand
    t = pa.table({
        "id": [1, 2, 3, 4],
        "v": pa.array([[10, 20], [], None, [30]],
                      type=pa.list_(pa.int64())),
    })
    out = _mv_expand(t, "v")
    assert out["id"].to_pylist() == [1, 1, 2, 3, 4]
    assert out["v"].to_pylist() == [10, 20, None, None, 30]
    # inner nulls survive the expansion
    t2 = pa.table({"id": [7], "v": pa.array([[1, None, 2]],
                                            type=pa.list_(pa.int64()))})
    assert _mv_expand(t2, "v")["v"].to_pylist() == [1, None, 2]
    # empty batch keeps the unnested value type
    empty = _mv_expand(t.slice(0, 0), "v")
    assert empty.num_rows == 0 and empty["v"].type == pa.int64()


def test_grok_compile_library_and_types():
    from logsentinelai_ray.query.esql import compile_grok
    rx, names, types = compile_grok(
        "%{IPV4:ip} - %{USERNAME:user} %{INT:code:int}")
    assert names == ["ip", "user", "code"] and types == {"code": "int"}
    import re as _re
    m = _re.search(rx, "10.0.0.7 - alice -42")
    assert m.group("ip") == "10.0.0.7" and m.group("code") == "-42"
    # unnamed %{SYNTAX} matches without capturing
    rx2, names2, _ = compile_grok("%{WORD} %{NUMBER:v:float}")
    assert names2 == ["v"]
    with pytest.raises(ValueError):
        compile_grok("%{NOSUCHPATTERN:x}")
    with pytest.raises(ValueError):
        compile_grok("%{WORD}")  # no named key
    with pytest.raises(ValueError):
        compile_grok("%{INT:x:datetime}")  # unknown conversion


def test_grok_execute_typed_extract(ray_session):
    out = execute_esql(
        'FROM events | GROK props "\\{\\"k\\": %{INT:kv:int}\\}" '
        "| STATS ksum = SUM(kv), n = COUNT(*)", SF)
    exp = duckdb.sql(
        f"SELECT CAST(sum(CAST(regexp_extract(props,"
        f" '\\{{\"k\": ([+-]?\\d+)\\}}', 1) AS BIGINT)) AS BIGINT)"
        f" AS ksum, count(*)::BIGINT AS n"
        f" FROM read_parquet('{SF}/events.parquet')") \
        .fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()


def test_count_distinct_grouped_and_global(ray_session):
    out = execute_esql(
        "FROM events | STATS u = COUNT_DISTINCT(user_id), "
        "n = COUNT(*) BY event_type | SORT event_type ASC", SF)
    exp = duckdb.sql(
        f"SELECT event_type, count(DISTINCT user_id)::BIGINT AS u,"
        f" count(*)::BIGINT AS n"
        f" FROM read_parquet('{SF}/events.parquet')"
        f" GROUP BY 1 ORDER BY 1").fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()
    g = execute_esql(
        "FROM events | STATS u = COUNT_DISTINCT(user_id)", SF)
    ge = duckdb.sql(
        f"SELECT count(DISTINCT user_id)::BIGINT AS u FROM"
        f" read_parquet('{SF}/events.parquet')").fetch_arrow_table()
    assert g.to_pydict() == ge.to_pydict()
    with pytest.raises(ValueError):
        parse_esql("FROM x | STATS u = COUNT_DISTINCT(*)")


def test_mv_expand_execute_vs_unnest(ray_session):
    out = execute_esql(
        "FROM embeddings | WHERE vec_id < 3 | RENAME embedding AS vec "
        "| MV_EXPAND vec "
        "| EVAL m = TO_LONG(ROUND(TO_DOUBLE(vec) * 1000000)) "
        "| STATS n = COUNT(*), s = SUM(m) BY vec_id "
        "| SORT vec_id ASC", SF)
    exp = duckdb.sql(
        f"WITH x AS (SELECT vec_id, CAST(round(CAST(u AS DOUBLE)"
        f" * 1000000, 0) AS BIGINT) AS m FROM (SELECT vec_id,"
        f" unnest(embedding) AS u FROM"
        f" read_parquet('{SF}/embeddings.parquet') WHERE vec_id < 3))"
        f" SELECT vec_id, count(*)::BIGINT AS n,"
        f" CAST(sum(m) AS BIGINT) AS s FROM x GROUP BY 1 ORDER BY 1") \
        .fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()


def test_lookup_join_parse_and_pruning():
    cmds = parse_esql(
        "FROM orders | RENAME o_custkey AS c_custkey "
        "| LOOKUP JOIN customer ON c_custkey "
        "| STATS n = COUNT(*) BY c_mktsegment")
    e = cmds[2]
    assert (e.table, e.on, e.with_cols) == ("customer", "c_custkey",
                                            [])
    with pytest.raises(ValueError):
        parse_esql("FROM x | LOOKUP customer ON k")


def test_lookup_join_vs_duckdb(ray_session):
    out = execute_esql(
        "FROM orders | RENAME o_custkey AS c_custkey "
        "| LOOKUP JOIN customer ON c_custkey "
        "| WHERE c_acctbal > 0 "
        "| STATS n = COUNT(*) BY c_mktsegment "
        "| SORT c_mktsegment ASC", SF)
    exp = duckdb.sql(
        f"SELECT c_mktsegment, count(*)::BIGINT AS n FROM"
        f" read_parquet('{SF}/orders.parquet') o JOIN"
        f" read_parquet('{SF}/customer.parquet') c"
        f" ON o.o_custkey = c.c_custkey WHERE c_acctbal > 0"
        f" GROUP BY 1 ORDER BY 1").fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()


def test_like_rlike_in_operators():
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"s": ["error_log", "warn", "errs", None],
                  "n": [1, 2, 3, 4]})
    assert ev(parse_expr('s LIKE "err*"'), t).to_pylist() == \
        [True, False, True, None]
    assert ev(parse_expr('s NOT LIKE "err*"'), t).to_pylist() == \
        [False, True, False, None]
    # RLIKE anchors the WHOLE string (the ES|QL contract)
    assert ev(parse_expr('s RLIKE "e[a-z]+"'), t).to_pylist() == \
        [False, False, True, None]
    assert ev(parse_expr("n IN (1, 3)"), t).to_pylist() == \
        [True, False, True, False]
    assert ev(parse_expr('s LIKE "w?rn"'), t).to_pylist() == \
        [False, True, False, None]
    with pytest.raises(ValueError):
        parse_expr("s LIKE pattern")  # unquoted
    with pytest.raises(ValueError):
        parse_expr("n IN (x)")  # non-literal


def test_like_in_pipeline_vs_duckdb(ray_session):
    out = execute_esql(
        'FROM documents | WHERE lang IN ("en", "de") '
        'AND source LIKE "src1?" '
        "| STATS docs = COUNT(*) BY lang | SORT lang ASC", SF)
    exp = duckdb.sql(
        f"SELECT lang, count(*)::BIGINT AS docs FROM"
        f" read_parquet('{SF}/documents.parquet')"
        f" WHERE lang IN ('en', 'de') AND source LIKE 'src1_'"
        f" GROUP BY 1 ORDER BY 1").fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()


def test_scalar_function_surface():
    from logsentinelai_ray.query.esql import eval_expr as ev
    import datetime as dt
    t = pa.table({
        "s": ["src12", " pad ", "abc", None],
        "n": [150.0, 120.0, 80.0, 4.0],
        "ts": pa.array([dt.datetime(2024, 1, 5, 3, 2, 1),
                        dt.datetime(2024, 1, 5, 23, 59, 59),
                        dt.datetime(2024, 2, 1),
                        dt.datetime(2024, 2, 2)], pa.timestamp("us"))})
    assert ev(parse_expr("SUBSTRING(s, 4)"), t).to_pylist() == \
        ["12", "d ", "", None]
    assert ev(parse_expr("SUBSTRING(s, 1, 3)"), t).to_pylist() == \
        ["src", " pa", "abc", None]
    assert ev(parse_expr("SUBSTRING(s, -2)"), t).to_pylist() == \
        ["12", "d ", "bc", None]
    assert ev(parse_expr('CONCAT(s, "-", TO_UPPER(s))'),
              t).to_pylist() == \
        ["src12-SRC12", " pad - PAD ", "abc-ABC", None]
    assert ev(parse_expr("TRIM(s)"), t).to_pylist() == \
        ["src12", "pad", "abc", None]
    assert ev(parse_expr('COALESCE(s, "none")'), t).to_pylist() == \
        ["src12", " pad ", "abc", "none"]
    assert ev(parse_expr('STARTS_WITH(s, "src")'), t).to_pylist() == \
        [True, False, False, None]
    assert ev(parse_expr('ENDS_WITH(s, "12")'), t).to_pylist() == \
        [True, False, False, None]
    assert ev(parse_expr("FLOOR(n / 100)"), t).to_pylist() == \
        [1.0, 1.0, 0.0, 0.0]
    assert ev(parse_expr("POW(n, 2)"), t).to_pylist()[0] == 22500.0
    assert ev(parse_expr("SQRT(n)"), t).to_pylist()[3] == 2.0
    assert abs(ev(parse_expr("LOG10(n)"), t).to_pylist()[1]
               - 2.0791812460476247) < 1e-12
    # DATE_TRUNC floors to midnight; CASE is first-match-wins with an
    # optional default (absent -> null)
    days = ev(parse_expr('DATE_TRUNC("day", ts)'), t).to_pylist()
    assert days[0] == days[1] == dt.datetime(2024, 1, 5)
    assert ev(parse_expr('CASE(n >= 150, "long", n >= 100, "mid", '
                         '"short")'), t).to_pylist() == \
        ["long", "mid", "short", "short"]
    assert ev(parse_expr('CASE(n >= 150, "long")'), t).to_pylist() == \
        ["long", None, None, None]
    with pytest.raises(ValueError):
        ev(parse_expr("SUBSTRING(s, n)"), t)  # non-literal start


def test_where_after_stats_is_having(ray_session):
    out = execute_esql(
        "FROM events | STATS n = COUNT(*) BY user_id "
        "| WHERE n >= 80 | SORT n DESC, user_id ASC", SF)
    exp = duckdb.sql(
        f"SELECT user_id, count(*)::BIGINT AS n FROM"
        f" read_parquet('{SF}/events.parquet') GROUP BY 1"
        f" HAVING count(*) >= 80 ORDER BY n DESC, user_id") \
        .fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()


def test_inline_by_assignment(ray_session):
    # BY day = DATE_TRUNC(...) sugar desugars to an EVAL before STATS
    out = execute_esql(
        'FROM events | STATS n = COUNT(*) '
        'BY day = DATE_TRUNC("day", ts) | SORT day ASC', SF)
    exp = duckdb.sql(
        f"SELECT date_trunc('day', ts) AS day, count(*)::BIGINT AS n"
        f" FROM read_parquet('{SF}/events.parquet')"
        f" GROUP BY 1 ORDER BY 1").fetch_arrow_table()
    assert out["n"].to_pylist() == exp["n"].to_pylist()
    # duckdb's date_trunc('day') comes back as DATE; ours stays a
    # midnight timestamp — same instants
    assert [d.date() for d in out["day"].to_pylist()] == \
        [d for d in exp["day"].to_pylist()]


def test_mv_functions():
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"v": pa.array([[1.0, 2.0, 3.0], [], None, [5.0]],
                                pa.list_(pa.float64()))})
    assert ev(parse_expr("MV_COUNT(v)"), t).to_pylist() == \
        [3, 0, None, 1]
    # null/empty multivalues reduce to null (the ES contract)
    assert ev(parse_expr("MV_SUM(v)"), t).to_pylist() == \
        [6.0, None, None, 5.0]
    assert ev(parse_expr("MV_MIN(v)"), t).to_pylist() == \
        [1.0, None, None, 5.0]
    assert ev(parse_expr("MV_MAX(v)"), t).to_pylist() == \
        [3.0, None, None, 5.0]
    assert ev(parse_expr("MV_AVG(v)"), t).to_pylist() == \
        [2.0, None, None, 5.0]


def test_is_null_and_keep_drop_wildcards(ray_session):
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"s": ["a", None, "c"]})
    assert ev(parse_expr("s IS NULL"), t).to_pylist() == \
        [False, True, False]
    assert ev(parse_expr("s IS NOT NULL"), t).to_pylist() == \
        [True, False, True]
    with pytest.raises(ValueError):
        parse_expr("s IS BANANA")
    out = execute_esql(
        "FROM events | KEEP event_*, user_id "
        "| SORT event_id ASC | LIMIT 2", SF)
    assert out.column_names == ["event_id", "event_type", "user_id"]


def test_drop_keeps_unnamed_columns(ray_session):
    # DROP implicitly references the whole schema — the read must NOT
    # prune to just the dropped columns (regression: pruning once
    # reduced `DROP props, ts, value` to an event_id-only table)
    out = execute_esql(
        "FROM events | DROP props, ts, value "
        "| SORT event_id ASC | LIMIT 2", SF)
    assert set(out.column_names) == {"event_id", "user_id",
                                     "event_type"}
    assert out.num_rows == 2


def test_order_statistic_aggs(ray_session):
    # MEDIAN / PERCENTILE match DuckDB quantile_disc exactly; TOP and
    # VALUES produce deterministic (sorted) multivalues
    out = execute_esql(
        "FROM events | EVAL micro = TO_LONG(ROUND(value * 1000000)) "
        "| STATS med = MEDIAN(micro), p25 = PERCENTILE(micro, 25), "
        "t2 = TOP(micro, 2), vals = VALUES(event_type)", SF)
    exp = duckdb.sql(
        f"WITH m AS (SELECT event_type,"
        f" CAST(round(value * 1000000, 0) AS BIGINT) AS micro"
        f" FROM read_parquet('{SF}/events.parquet'))"
        f" SELECT quantile_disc(micro, 0.5)::BIGINT AS med,"
        f" quantile_disc(micro, 0.25)::BIGINT AS p25,"
        f" list(DISTINCT event_type ORDER BY event_type) AS vals,"
        f" (SELECT list(micro ORDER BY micro DESC)[1:2] FROM m) AS t2"
        f" FROM m").fetchone()
    assert out["med"][0].as_py() == exp[0]
    assert out["p25"][0].as_py() == exp[1]
    assert out["vals"][0].as_py() == sorted(exp[2])
    assert out["t2"][0].as_py() == exp[3]
    # TOP asc variant + grouped median path
    g = execute_esql(
        "FROM events | EVAL micro = TO_LONG(ROUND(value * 1000000)) "
        '| STATS lo = TOP(micro, 2, "asc") BY event_type '
        "| SORT event_type ASC", SF)
    ge = duckdb.sql(
        f"WITH m AS (SELECT event_type,"
        f" CAST(round(value * 1000000, 0) AS BIGINT) AS micro"
        f" FROM read_parquet('{SF}/events.parquet'))"
        f" SELECT event_type, list(micro ORDER BY micro ASC)[1:2]"
        f" AS lo FROM m GROUP BY 1 ORDER BY 1").fetchall()
    assert [(r["event_type"], r["lo"]) for r in g.to_pylist()] == \
        [(et, lo) for et, lo in ge]


def test_date_format_and_extract():
    import datetime as dt
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"ts": pa.array(
        [dt.datetime(2024, 1, 5, 3, 2, 1),
         dt.datetime(2024, 12, 31, 23, 59, 59)], pa.timestamp("us"))})
    assert ev(parse_expr('DATE_FORMAT("yyyy-MM-dd HH:mm:ss", ts)'),
              t).to_pylist() == \
        ["2024-01-05 03:02:01", "2024-12-31 23:59:59"]
    assert ev(parse_expr('DATE_FORMAT("yyyy-MM", ts)'),
              t).to_pylist() == ["2024-01", "2024-12"]
    assert ev(parse_expr('DATE_EXTRACT("hour", ts)'),
              t).to_pylist() == [3, 23]
    assert ev(parse_expr('DATE_EXTRACT("year", ts)'),
              t).to_pylist() == [2024, 2024]
    with pytest.raises(ValueError):
        ev(parse_expr('DATE_EXTRACT("fortnight", ts)'), t)


def test_sample_deterministic(ray_session):
    out = execute_esql(
        "FROM events | SAMPLE 0.0625 ON event_id "
        "| STATS n = COUNT(*) BY event_type | SORT event_type ASC",
        SF)
    exp = duckdb.sql(
        f"SELECT event_type, count(*)::BIGINT AS n FROM"
        f" read_parquet('{SF}/events.parquet')"
        f" WHERE event_id % 16 = 0 GROUP BY 1 ORDER BY 1") \
        .fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()
    # identical across runs (deterministic by construction)
    again = execute_esql(
        "FROM events | SAMPLE 0.0625 ON event_id "
        "| STATS n = COUNT(*) BY event_type | SORT event_type ASC",
        SF)
    assert again.to_pydict() == out.to_pydict()
    with pytest.raises(ValueError):
        parse_esql("FROM x | SAMPLE 0.3 ON id")  # not 1/integer
    with pytest.raises(ValueError):
        parse_esql("FROM x | SAMPLE 2.0 ON id")


def test_match_function_analyzed(ray_session):
    from logsentinelai_ray.query.esql import eval_expr as ev
    # camelCase splits through the REAL analyzer: "parseError" hits
    # the query term "error"; plain substring would not
    t = pa.table({"s": ["a parseError happened", "all quiet",
                        "merge done", None]})
    assert ev(parse_expr('MATCH(s, "error merge")'), t).to_pylist() \
        == [True, False, True, False]
    with pytest.raises((ValueError, KeyError)):
        ev(parse_expr("MATCH(s, q)"), t)  # non-literal query
    # end-to-end count equals the SQL tokenization oracle
    out = execute_esql(
        'FROM documents | WHERE MATCH(text, "spark") '
        "| STATS n = COUNT(*)", SF)
    exp = duckdb.sql(
        f"WITH tok AS (SELECT doc_id, unnest(regexp_split_to_array("
        f"lower(regexp_replace(regexp_replace(text,"
        f" '([A-Z]+)([A-Z][a-z])', '\\1 \\2', 'g'),"
        f" '([a-z0-9])([A-Z])', '\\1 \\2', 'g')),"
        f" '[^a-z0-9]+')) AS t"
        f" FROM read_parquet('{SF}/documents.parquet'))"
        f" SELECT count(DISTINCT doc_id)::BIGINT AS n FROM tok"
        f" WHERE t = 'spark'").fetch_arrow_table()
    assert out["n"].to_pylist() == exp["n"].to_pylist()


def test_agg_where_filters(ray_session):
    # per-aggregate WHERE == SQL FILTER; a group with no matching
    # rows counts 0 (COUNT) and null (SUM)
    out = execute_esql(
        'FROM events | STATS n_err = COUNT(*) WHERE '
        'event_type == "error", n = COUNT(*) BY user_id '
        "| SORT user_id ASC", SF)
    exp = duckdb.sql(
        f"SELECT user_id, CAST(count(*) FILTER (WHERE event_type ="
        f" 'error') AS BIGINT) AS n_err, count(*)::BIGINT AS n"
        f" FROM read_parquet('{SF}/events.parquet')"
        f" GROUP BY 1 ORDER BY 1").fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()
    # MEDIAN with a per-agg filter rides the group kernel
    m = execute_esql(
        "FROM events | EVAL micro = TO_LONG(ROUND(value * 1000000)) "
        '| STATS med_err = MEDIAN(micro) WHERE event_type == "error" '
        "BY user_id | SORT user_id ASC | LIMIT 3", SF)
    me = duckdb.sql(
        f"WITH m AS (SELECT user_id, event_type,"
        f" CAST(round(value * 1000000, 0) AS BIGINT) AS micro"
        f" FROM read_parquet('{SF}/events.parquet'))"
        f" SELECT user_id, quantile_disc(micro, 0.5)"
        f" FILTER (WHERE event_type = 'error')::BIGINT AS med_err"
        f" FROM m GROUP BY 1 ORDER BY 1 LIMIT 3").fetch_arrow_table()
    assert m.to_pydict() == me.to_pydict()


def test_row_and_show_sources(ray_session):
    out = execute_esql(
        'ROW a = 1, b = "x", c = 2 * 3 + 1 | EVAL d = a + c', "/tmp")
    assert out.to_pydict() == {"a": [1], "b": ["x"], "c": [7],
                               "d": [8]}
    info = execute_esql("SHOW INFO", "/tmp")
    assert info["name"].to_pylist() == ["logsentinelai_ray"]
    with pytest.raises(ValueError):
        parse_esql("SHOW FUNCTIONS")
    with pytest.raises(ValueError):
        parse_esql("ROW a")  # no assignment


def test_mv_first_last():
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"v": pa.array([[1.0, 2.0, 3.0], [], None, [5.0]],
                                pa.list_(pa.float64()))})
    assert ev(parse_expr("MV_FIRST(v)"), t).to_pylist() == \
        [1.0, None, None, 5.0]
    assert ev(parse_expr("MV_LAST(v)"), t).to_pylist() == \
        [3.0, None, None, 5.0]
    # all-empty input keeps the value type
    e = pa.table({"v": pa.array([None, []], pa.list_(pa.float64()))})
    out = ev(parse_expr("MV_FIRST(v)"), e)
    assert out.to_pylist() == [None, None]


def test_math_functions_and_constants():
    import math
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"x": [1.0, 4.0, -9.0]})
    assert ev(parse_expr("EXP(x)"), t).to_pylist()[0] == math.e
    assert ev(parse_expr("LOG(x)"), t).to_pylist()[1] == math.log(4.0)
    # LOG(base, x)
    assert abs(ev(parse_expr("LOG(2, x)"), t).to_pylist()[1]
               - 2.0) < 1e-12
    assert ev(parse_expr("SIGNUM(x)"), t).to_pylist() == \
        [1.0, 1.0, -1.0]
    assert ev(parse_expr("SIN(x)"), t).to_pylist()[0] == math.sin(1.0)
    # constants broadcast through EVAL arithmetic
    out = ev(parse_expr("PI() * 2"), t)
    assert out.as_py() == math.tau
    assert ev(parse_expr("TAU()"), t).as_py() == math.tau
    assert ev(parse_expr("E()"), t).as_py() == math.e


def test_pipe_inside_string_literal(ray_session):
    """'|' inside a string literal (the normal RLIKE alternation) is
    NOT a pipeline separator — the quote-aware splitter keeps the
    command whole (and _split_top keeps quoted commas whole too)."""
    out = execute_esql(
        'FROM documents | WHERE lang RLIKE "en|de" '
        "| STATS docs = COUNT(*) BY lang | SORT lang ASC", SF)
    import duckdb
    exp = duckdb.sql(
        f"SELECT lang, count(*)::BIGINT AS docs FROM"
        f" read_parquet('{SF}/documents.parquet')"
        f" WHERE regexp_full_match(lang, 'en|de')"
        f" GROUP BY 1 ORDER BY 1").fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()
    # quoted comma survives _split_top in EVAL assignments
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"s": ["a", "b"]})
    assert ev(parse_expr('CONCAT(s, ",|,")'), t).to_pylist() == \
        ["a,|,", "b,|,"]


def test_round_half_away_from_zero():
    """ROUND matches ES / DuckDB half-away-from-zero, not pyarrow's
    default banker's rounding (ADVICE r3)."""
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"x": [0.5, 1.5, 2.5, -0.5, -2.5, 1.25]})
    assert ev(parse_expr("ROUND(x)"), t).to_pylist() == \
        [1.0, 2.0, 3.0, -1.0, -3.0, 1.0]
    assert ev(parse_expr("ROUND(x, 1)"), t).to_pylist() == \
        [0.5, 1.5, 2.5, -0.5, -2.5, 1.3]


def test_inlinestats_join_back(ray_session):
    """INLINESTATS keeps every original column and appends the
    aggregate columns per row — the canonical above-group-average
    filter matches the window-function SQL exactly."""
    out = execute_esql(
        "FROM documents | INLINESTATS avg_chars = AVG(n_chars) "
        "BY lang | WHERE n_chars > avg_chars "
        "| STATS above = COUNT(*) BY lang | SORT lang ASC", SF)
    exp = duckdb.sql(
        f"WITH a AS (SELECT lang, avg(n_chars) m FROM"
        f" read_parquet('{SF}/documents.parquet') GROUP BY 1)"
        f" SELECT d.lang, count(*)::BIGINT AS above FROM"
        f" read_parquet('{SF}/documents.parquet') d JOIN a USING"
        f" (lang) WHERE d.n_chars > a.m GROUP BY 1 ORDER BY 1"
    ).fetch_arrow_table()
    assert out.to_pydict() == exp.to_pydict()
    # no BY: global aggregate broadcast to every row
    g = execute_esql(
        "FROM documents | INLINESTATS total = COUNT(*) "
        "| STATS rows = COUNT(*), t = MAX(total)", SF)
    assert g["rows"].to_pylist() == g["t"].to_pylist()


def test_fork_branch_identity_and_alignment(ray_session):
    """Each FORK branch's rows equal the same sub-pipeline run
    standalone; missing columns are null-aligned; empty branches
    drop from the union."""
    forked = execute_esql(
        'FROM documents | FORK (WHERE lang == "en" | STATS n ='
        ' COUNT(*) BY source) (WHERE lang == "de" | STATS n ='
        ' COUNT(*) BY source, lang) | SORT _fork ASC, source ASC', SF)
    for tag, solo_q in (
            ("fork1", 'FROM documents | WHERE lang == "en" '
                      "| STATS n = COUNT(*) BY source "
                      "| SORT source ASC"),
            ("fork2", 'FROM documents | WHERE lang == "de" '
                      "| STATS n = COUNT(*) BY source, lang "
                      "| SORT source ASC")):
        solo = execute_esql(solo_q, SF)
        part = forked.filter(
            pa.compute.equal(forked["_fork"], tag))
        assert part["source"].to_pylist() == \
            solo["source"].to_pylist()
        assert part["n"].to_pylist() == solo["n"].to_pylist()
    # branch 1 lacks 'lang' -> null-filled there, present for fork2
    f1_lang = forked.filter(
        pa.compute.equal(forked["_fork"], "fork1"))["lang"]
    assert f1_lang.null_count == len(f1_lang)
    # an empty branch contributes nothing and breaks nothing
    e = execute_esql(
        'FROM documents | FORK (WHERE lang == "xx" | STATS n = '
        'COUNT(*) BY source) (WHERE lang == "en" | STATS n = '
        "COUNT(*) BY source) | SORT source ASC", SF)
    assert set(e["_fork"].to_pylist()) == {"fork2"}


def test_fork_parse_errors():
    with pytest.raises(ValueError, match="parenthesized"):
        parse_esql("FROM documents | FORK WHERE x > 1 (LIMIT 2)")
    with pytest.raises(ValueError, match=">= 2"):
        parse_esql("FROM documents | FORK (LIMIT 2)")


def test_change_point_command(ray_session):
    """CHANGE_POINT marks exactly one row (the first row of the right
    segment of the SSE-minimizing split) with type/pvalue; all other
    rows keep null markers; defaults and AS renames both parse."""
    out = execute_esql(
        'FROM events | STATS n = COUNT(*) BY day = '
        'DATE_FORMAT("yyyy-MM-dd", ts) '
        "| CHANGE_POINT n ON day | SORT day ASC", SF)
    marked = out.filter(pa.compute.is_valid(out["type"]))
    assert marked.num_rows == 1
    assert marked["type"].to_pylist() == ["step_change"]
    assert marked["pvalue"][0].as_py() > 0
    # synthetic series with a hard step: the split lands on it
    from logsentinelai_ray.query.esql import parse_esql, ChangePoint
    cmds = parse_esql(
        "FROM events | CHANGE_POINT v ON t AS kind, score")
    cp = cmds[1]
    assert isinstance(cp, ChangePoint)
    assert (cp.type_col, cp.pvalue_col) == ("kind", "score")
    import ray.data as rd
    from logsentinelai_ray.query.esql import _apply_change_point
    t = pa.table({"t": list(range(10)),
                  "v": [1.0] * 5 + [100.0] * 5})
    res = pa.Table.from_pandas(
        _apply_change_point(rd.from_arrow(t), cp).to_pandas())
    kinds = res["kind"].to_pylist()
    assert kinds.index("step_change") == 5  # first row of the step
    with pytest.raises(ValueError, match="CHANGE_POINT syntax"):
        parse_esql("FROM events | CHANGE_POINT")


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(
    ['WHERE a > 1', 'EVAL b = a + 1', 'LIMIT 5',
     'WHERE s RLIKE "x|y"', 'EVAL c = CONCAT(s, "p|q,(r")',
     'WHERE s LIKE "a*"']), min_size=1, max_size=5))
def test_pipe_split_roundtrip_property(cmds):
    """Property: joining commands with ' | ' and re-splitting recovers
    exactly the original commands — pipes/commas/parens inside string
    literals never split, balanced parens outside strings never split
    at depth 0 when they shouldn't."""
    from logsentinelai_ray.query.esql import _split_pipes
    joined = " | ".join(cmds)
    assert [p.strip() for p in _split_pipes(joined)] == cmds


def test_vector_functions(ray_session):
    """V_COSINE / V_DOT_PRODUCT / V_L1_NORM / V_L2_NORM over list
    columns with array literals — vectorized float64 kernels."""
    import math

    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"v": pa.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]],
                                pa.list_(pa.float32()))})
    assert ev(parse_expr("V_DOT_PRODUCT(v, [1, 1])"), t).to_pylist() \
        == [1.0, 2.0, 7.0]
    cos = ev(parse_expr("V_COSINE(v, [1, 0])"), t).to_pylist()
    assert cos[0] == 1.0 and cos[1] == 0.0 and \
        abs(cos[2] - 0.6) < 1e-12
    assert ev(parse_expr("V_L1_NORM(v, [0, 0])"), t).to_pylist() == \
        [1.0, 2.0, 7.0]
    assert ev(parse_expr("V_L2_NORM(v, [0, 0])"), t).to_pylist() == \
        [1.0, 2.0, 5.0]
    # negatives in array literals; dimension mismatch is loud
    assert ev(parse_expr("V_DOT_PRODUCT(v, [-1, -1])"),
              t).to_pylist() == [-1.0, -2.0, -7.0]
    with pytest.raises(ValueError, match="dimension mismatch"):
        ev(parse_expr("V_COSINE(v, [1, 2, 3])"), t)
    with pytest.raises(ValueError, match="expected"):
        ev(parse_expr('V_COSINE(v, "nope")'), t)
    assert math.isfinite(sum(cos))


def test_lookup_join_multi_match(ray_session):
    """LOOKUP JOIN multi-match: a key matching g lookup rows emits g
    rows (row multiplication), non-matching keys keep one row with
    nulls (left join) — cross-checked vs DuckDB LEFT JOIN."""
    out = execute_esql(
        "FROM nation | RENAME n_nationkey AS c_nationkey "
        "| LOOKUP JOIN customer ON c_nationkey "
        "| STATS rows = COUNT(*), "
        "matched = COUNT(*) WHERE c_custkey IS NOT NULL "
        "BY n_name | SORT n_name ASC", SF)
    exp = duckdb.sql(
        f"SELECT n_name, count(*)::BIGINT AS rows,"
        f" count(c_custkey)::BIGINT AS matched"
        f" FROM read_parquet('{SF}/nation.parquet') n"
        f" LEFT JOIN read_parquet('{SF}/customer.parquet') c"
        f" ON c.c_nationkey = n.n_nationkey"
        f" GROUP BY 1 ORDER BY 1").fetch_arrow_table()
    got = out.to_pydict()
    want = exp.to_pydict()
    assert got["n_name"] == want["n_name"]
    assert got["matched"] == want["matched"]
    # LEFT JOIN count(*) counts 1 for unmatched; ES emits 1 null row
    # there too — identical rows totals
    assert got["rows"] == want["rows"]


def test_bucket_nice_width():
    """BUCKET's deterministic nice-width rule: smallest {1,2,5}x10^k
    width fitting the range in <= target buckets; values floor to
    bucket starts."""
    from logsentinelai_ray.query.esql import _nice_bucket_width
    from logsentinelai_ray.query.esql import eval_expr as ev

    assert _nice_bucket_width(0, 600, 10) == 100.0
    assert _nice_bucket_width(0, 100, 10) == 10.0
    assert _nice_bucket_width(0, 100, 25) == 5.0
    assert _nice_bucket_width(25324, 74999, 20) == 5000.0  # ES doc ex.
    t = pa.table({"x": [47, 99, 100, 555]})
    out = ev(parse_expr("BUCKET(x, 10, 0, 600)"), t)
    assert out.to_pylist() == [0.0, 0.0, 100.0, 500.0]
    with pytest.raises(ValueError, match="literal bounds"):
        ev(parse_expr("BUCKET(x, 10, x, 600)"), t)


def test_string_function_surface_2():
    """Round-4 string functions: LEFT / RIGHT / REPLACE / REVERSE /
    SPLIT / LOCATE / REPEAT / LTRIM / RTRIM."""
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"s": ["hello", "ab", " pad "]})
    assert ev(parse_expr("LEFT(s, 3)"), t).to_pylist() == \
        ["hel", "ab", " pa"]
    assert ev(parse_expr("RIGHT(s, 3)"), t).to_pylist() == \
        ["llo", "ab", "ad "]
    assert ev(parse_expr("RIGHT(s, 0)"), t).to_pylist() == \
        ["", "", ""]
    assert ev(parse_expr('REPLACE(s, "l+", "L")'), t).to_pylist() == \
        ["heLo", "ab", " pad "]
    assert ev(parse_expr("REVERSE(s)"), t).to_pylist() == \
        ["olleh", "ba", " dap "]
    assert ev(parse_expr('SPLIT(s, "l")'), t).to_pylist() == \
        [["he", "", "o"], ["ab"], [" pad "]]
    assert ev(parse_expr('LOCATE(s, "l")'), t).to_pylist() == \
        [3, 0, 0]  # 1-based, 0 = absent (the ES contract)
    assert ev(parse_expr("REPEAT(s, 2)"), t).to_pylist() == \
        ["hellohello", "abab", " pad  pad "]
    assert ev(parse_expr("LTRIM(s)"), t).to_pylist() == \
        ["hello", "ab", "pad "]
    assert ev(parse_expr("RTRIM(s)"), t).to_pylist() == \
        ["hello", "ab", " pad"]
    # SPLIT composes with MV_COUNT / MV_EXPAND machinery
    assert ev(parse_expr('MV_COUNT(SPLIT(s, "l"))'), t).to_pylist() \
        == [3, 1, 1]
    with pytest.raises(ValueError, match="literal"):
        ev(parse_expr("LEFT(s, s)"), t)


def test_inlinestats_null_and_multikey(ray_session):
    """INLINESTATS join-back with NULL group keys and multi-key BY:
    the per-part null sentinel keeps (null, 'x') distinct from
    ('x', null) and null groups join back to their own aggregate."""
    import ray.data as rd
    from logsentinelai_ray.query.esql import (InlineStats,
                                              _apply_inlinestats,
                                              _parse_one)
    cmds = _parse_one("INLINESTATS s = SUM(v) BY a, b")
    ist = cmds[-1]
    assert isinstance(ist, InlineStats)
    t = pa.table({
        "a": ["x", "x", None, None, "y"],
        "b": [None, None, "x", "x", "y"],
        "v": [1, 2, 4, 8, 16],
    })
    out = pa.Table.from_pandas(
        _apply_inlinestats(rd.from_arrow(t), ist).to_pandas(),
        preserve_index=False).sort_by("v")
    # ('x', null) group sums 3; (null, 'x') sums 12 — NOT merged
    assert out["s"].to_pylist() == [3, 3, 12, 12, 16]


def test_weighted_avg_and_std_dev(ray_session):
    """WEIGHTED_AVG/STD_DEV: Sum-partial compilation + finalize pass;
    per-agg WHERE masks value AND weight together; global (no BY)
    form works."""
    out = execute_esql(
        "FROM events | STATS w = WEIGHTED_AVG(value, user_id) "
        'WHERE event_type == "error", sd = STD_DEV(value) '
        "BY event_type | EVAL w = ROUND(w, 6), sd = ROUND(sd, 6) "
        "| SORT event_type ASC", SF)
    exp = duckdb.sql(
        f"SELECT event_type,"
        f" round(sum(CASE WHEN event_type = 'error' THEN value END"
        f"           * user_id)"
        f"  / sum(CASE WHEN event_type = 'error' THEN user_id END),"
        f" 6) AS w,"
        f" round(sqrt(sum(value*value)/count(value)"
        f"   - (sum(value)/count(value))*(sum(value)/count(value))),"
        f" 6) AS sd"
        f" FROM read_parquet('{SF}/events.parquet')"
        f" GROUP BY 1 ORDER BY 1").fetch_arrow_table()
    assert out["event_type"].to_pylist() == \
        exp["event_type"].to_pylist()
    assert out["sd"].to_pylist() == exp["sd"].to_pylist()
    got_w = out["w"].to_pylist()
    exp_w = exp["w"].to_pylist()
    for g, e in zip(got_w, exp_w):
        assert (g is None and e is None) or g == e
    with pytest.raises(ValueError, match="WEIGHTED_AVG"):
        parse_esql("FROM events | STATS w = WEIGHTED_AVG(value)")


def test_ip_functions():
    """CIDR_MATCH (multi-CIDR OR, /32 default) and IP_PREFIX (masked
    network address) over dotted quads."""
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"ip": ["52.10.3.9", "54.1.2.3", "53.200.1.1",
                         "55.255.0.1"]})
    assert ev(parse_expr(
        'CIDR_MATCH(ip, "52.0.0.0/8", "54.0.0.0/7")'), t).to_pylist() \
        == [True, True, False, True]
    assert ev(parse_expr('CIDR_MATCH(ip, "52.10.3.9")'),
              t).to_pylist() == [True, False, False, False]
    assert ev(parse_expr("IP_PREFIX(ip, 12, 0)"), t).to_pylist() == \
        ["52.0.0.0", "54.0.0.0", "53.192.0.0", "55.240.0.0"]
    assert ev(parse_expr("IP_PREFIX(ip, 32, 0)"), t).to_pylist() == \
        t["ip"].to_pylist()
    with pytest.raises(ValueError, match="literal CIDRs"):
        ev(parse_expr("CIDR_MATCH(ip, ip)"), t)
    with pytest.raises(ValueError, match="bad CIDR length"):
        ev(parse_expr('CIDR_MATCH(ip, "1.2.3.4/40")'), t)


def test_mv_list_manipulators():
    """MV_SORT / MV_DEDUPE (sorted, ES contract) / MV_SLICE
    (end-inclusive) over numeric and string lists; nulls and empties
    survive; TO_STRING/TO_INTEGER casts."""
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({
        "v": pa.array([[3, 1, 2, 1], [5], None, []],
                      pa.list_(pa.int64())),
        "s": ["b,a,b", "x", "a", ""],
    })
    assert ev(parse_expr("MV_SORT(v)"), t).to_pylist() == \
        [[1, 1, 2, 3], [5], None, []]
    assert ev(parse_expr("MV_DEDUPE(v)"), t).to_pylist() == \
        [[1, 2, 3], [5], None, []]
    assert ev(parse_expr("MV_SLICE(v, 0, 1)"), t).to_pylist() == \
        [[3, 1], [5], None, []]
    assert ev(parse_expr('MV_DEDUPE(SPLIT(s, ","))'), t).to_pylist() \
        == [["a", "b"], ["x"], ["a"], [""]]
    assert ev(parse_expr("TO_STRING(MV_COUNT(v))"), t).to_pylist() \
        == ["4", "1", None, "0"]
    assert ev(parse_expr("TO_INTEGER(MV_COUNT(v))"), t).to_pylist() \
        == [4, 1, None, 0]
    with pytest.raises(ValueError, match="bounds"):
        ev(parse_expr("MV_SLICE(v, 2, 1)"), t)


def test_date_pattern_translation():
    """DATE_FORMAT / DATE_PARSE share one longest-match translator:
    adjacent fields ("MMmm" is month then minute) round-trip, non-letters
    (including "%") are literals, and a letter outside the supported set
    raises instead of passing through."""
    import datetime as dt
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({"ts": pa.array(
        [dt.datetime(2024, 3, 5, 7, 42), dt.datetime(2023, 11, 30, 23, 9)],
        pa.timestamp("us"))})
    fmt = "yyyy MMmm dd HH"
    s = ev(parse_expr(f'DATE_FORMAT("{fmt}", ts)'), t)
    assert s.to_pylist() == ["2024 0342 05 07", "2023 1109 30 23"]
    back = ev(parse_expr(f'DATE_PARSE("{fmt}", s)'),
              pa.table({"s": s}))
    assert back.to_pylist() == t["ts"].to_pylist()
    pct = ev(parse_expr('DATE_FORMAT("HH:mm 100%", ts)'), t)
    assert pct.to_pylist() == ["07:42 100%", "23:09 100%"]
    for fn, arg in (("DATE_FORMAT", "ts"), ("DATE_PARSE", '"2024"')):
        with pytest.raises(ValueError, match="'Q'"):
            ev(parse_expr(f'{fn}("yyyy-Q", {arg})'), t)


def test_date_diff_parse_greatest_least_categorize():
    """Round-5 scalar tail: DATE_DIFF (complete units, trunc toward
    zero, both signs), DATE_PARSE (Java-pattern subset, bad input ->
    null), GREATEST/LEAST (null-intolerant), CATEGORIZE (digit-token
    template skeleton)."""
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({
        "a": pa.array([1, 5, None, 3], pa.int64()),
        "b": pa.array([4, 2, 7, None], pa.int64()),
        "s": pa.array(["2024-01-02 03:04:05", "2024-02-29 00:00:00",
                       None, "bad"]),
        "msg": pa.array(["connection 42 from 10.0.0.7 port 2200",
                         "connection 17 from 10.9.3.1 port 99",
                         "user alice logged in", None]),
    })
    assert ev(parse_expr("GREATEST(a, b)"), t).to_pylist() == \
        [4, 5, None, None]
    assert ev(parse_expr("LEAST(a, b, 3)"), t).to_pylist() == \
        [1, 2, None, None]
    ts = ev(parse_expr('DATE_PARSE("yyyy-MM-dd HH:mm:ss", s)'), t)
    assert [v and v.isoformat() for v in ts.to_pylist()] == \
        ["2024-01-02T03:04:05", "2024-02-29T00:00:00", None, None]
    t2 = t.append_column("ts", ts)
    anchor = 'DATE_PARSE("yyyy-MM-dd HH:mm:ss", "2024-01-01 00:00:00")'
    assert ev(parse_expr(f'DATE_DIFF("day", {anchor}, ts)'),
              t2).to_pylist() == [1, 59, None, None]
    # reversed order: negative, still truncated toward zero
    assert ev(parse_expr(f'DATE_DIFF("hour", ts, {anchor})'),
              t2).to_pylist() == [-27, -1416, None, None]
    assert ev(parse_expr("CATEGORIZE(msg)"), t).to_pylist() == \
        ["connection * from * port *", "connection * from * port *",
         "user alice logged in", None]
    with pytest.raises(ValueError, match="unit"):
        ev(parse_expr(f'DATE_DIFF("fortnight", {anchor}, ts)'), t2)


def test_hash_encoding_and_mv_append_median():
    """Round-5 function tail: MD5/SHA256 (hex digests), base64
    round-trip, BIT_LENGTH/BYTE_LENGTH (UTF-8 bytes), SPACE,
    MV_MEDIAN (even-count averages, int floor, inner nulls dropped),
    MV_APPEND (row-level null propagation, inner nulls kept)."""
    import hashlib

    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({
        "s": pa.array(["abc", "héllo", None, "abc"]),
        "v": pa.array([[3, 1, 2], [5, 7], None, []],
                      pa.list_(pa.int64())),
        "w": pa.array([[10], [1, None, 9], None, [4]],
                      pa.list_(pa.int64())),
        "f": pa.array([[1.0, 2.0], [3.5], None, [2.0, 4.0, 9.0, 1.0]],
                      pa.list_(pa.float64())),
    })
    md5 = ev(parse_expr("MD5(s)"), t).to_pylist()
    assert md5[0] == hashlib.md5(b"abc").hexdigest() == md5[3]
    assert md5[1] == hashlib.md5("héllo".encode()).hexdigest()
    assert md5[2] is None
    sha = ev(parse_expr("SHA256(s)"), t).to_pylist()
    assert sha[0] == hashlib.sha256(b"abc").hexdigest()
    assert ev(parse_expr("FROM_BASE64(TO_BASE64(s))"), t).to_pylist() \
        == ["abc", "héllo", None, "abc"]
    assert ev(parse_expr("BIT_LENGTH(s)"), t).to_pylist() == \
        [24, 48, None, 24]
    assert ev(parse_expr("BYTE_LENGTH(s)"), t).to_pylist() == \
        [3, 6, None, 3]
    assert ev(parse_expr('CONCAT("a", SPACE(3), "b")'),
              t).to_pylist() == ["a   b"] * 4
    assert ev(parse_expr("MV_MEDIAN(v)"), t).to_pylist() == \
        [2, 6, None, None]
    assert ev(parse_expr("MV_MEDIAN(w)"), t).to_pylist() == \
        [10, 5, None, 4]
    assert ev(parse_expr("MV_MEDIAN(f)"), t).to_pylist() == \
        [1.5, 3.5, None, 3.0]
    assert ev(parse_expr("MV_APPEND(v, w)"), t).to_pylist() == \
        [[3, 1, 2, 10], [5, 7, 1, None, 9], None, [4]]


def test_date_diff_calendar_units():
    """DATE_DIFF calendar units count COMPLETE calendar months
    (ChronoUnit.between): the month decrements when the end's
    intra-month day+time hasn't reached the start's; quarter/year
    trunc-divide months by 3/12 (toward zero, both signs)."""
    import datetime as dt

    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({
        "a": pa.array([dt.datetime(2024, 1, 31, 12),
                       dt.datetime(2024, 1, 1),
                       dt.datetime(2023, 3, 15),
                       dt.datetime(2024, 6, 1), None],
                      pa.timestamp("us")),
        "b": pa.array([dt.datetime(2024, 2, 29, 11),
                       dt.datetime(2025, 1, 1),
                       dt.datetime(2024, 3, 14, 23, 59),
                       dt.datetime(2024, 3, 1),
                       dt.datetime(2024, 1, 1)],
                      pa.timestamp("us")),
    })
    assert ev(parse_expr('DATE_DIFF("month", a, b)'), t).to_pylist() \
        == [0, 12, 11, -3, None]
    assert ev(parse_expr('DATE_DIFF("quarter", a, b)'), t).to_pylist() \
        == [0, 4, 3, -1, None]
    assert ev(parse_expr('DATE_DIFF("year", a, b)'), t).to_pylist() \
        == [0, 1, 0, 0, None]


def test_mv_sort_dedupe_inner_nulls():
    """Element-level (inner) nulls are dropped before the lexsort —
    a None inside a STRING list must not raise (object-array
    compare), and float inner nulls must not leak NaN ordering;
    row-level nulls still map to null (r4 ADVICE item)."""
    from logsentinelai_ray.query.esql import eval_expr as ev
    t = pa.table({
        "s": pa.array([["b", None, "a"], [None], None, ["x", "x"]],
                      pa.list_(pa.string())),
        "f": pa.array([[2.0, None, 1.0], [None, None], None, [3.0]],
                      pa.list_(pa.float64())),
    })
    assert ev(parse_expr("MV_SORT(s)"), t).to_pylist() == \
        [["a", "b"], [], None, ["x", "x"]]
    assert ev(parse_expr("MV_DEDUPE(s)"), t).to_pylist() == \
        [["a", "b"], [], None, ["x"]]
    assert ev(parse_expr("MV_SORT(f)"), t).to_pylist() == \
        [[1.0, 2.0], [], None, [3.0]]
    assert ev(parse_expr("MV_DEDUPE(f)"), t).to_pylist() == \
        [[1.0, 2.0], [], None, [3.0]]
