"""Every TAAT-regime query surface returns bit-identical rows across
changes to the shared scoring core (accumulator + top-k selection).

The registry oracle compares rounded, order-insensitive values, so it
cannot see a 1-ulp score change or a changed tie order. This pins the
sha256 of each surface's exact output rows — doc ids, ``float.hex`` of
every score, and any extra columns — on the session fixture, once with
k=3 (the partition top-k runs whenever a surface has >12 candidates)
and once with k=10_000 (the full sort), plus a set of calls on a
tombstoned copy of the index. A second set pins the dictionary
scans, the metadata rounds, the prewarm hot-term set and the
positional verify surfaces (each plan, several verify chunks). Every
digest is checked twice: with the shards in process (the fixture index
is small) and as actor processes.

To re-derive the digests for a given checkout, run this file as a
script: ``python tests/test_query_identity.py out.json``."""

import hashlib
import json
import os
import shutil

import pyarrow as pa

KS = (3, 10_000)

Q = "authentication failure error"
Q2 = "error merge window"

# digest per call name (16 hex chars of sha256 over the output rows),
# recorded before the scoring core was shared
PINNED = {
    "alias@10000": "481bf0369f6b7c96",
    "alias@3": "b4c5b8dd1fd08c6f",
    "boolean@10000": "1b248a835aeed63d",
    "boolean@3": "6e324b6daa8a89c3",
    "boolean_msm@10000": "66b055ddb8dc520e",
    "boolean_msm@3": "6e324b6daa8a89c3",
    "boosting@10000": "af383cc1c0764e60",
    "boosting@3": "78e2d78a83417ffe",
    "collapse@10000": "bac105c849a24f05",
    "collapse@3": "3c83ca265e231204",
    "collapse_inner@10000": "475deebf746432ed",
    "collapse_inner@3": "ddd8efffed0561ff",
    "collapse_repo@10000": "130c0813ec968e85",
    "collapse_repo@3": "e2887a4db2c38433",
    "combined_fields@10000": "5c2e79ba09db5112",
    "combined_fields@3": "24ae4b69d0361b5f",
    "constant_score@10000": "e7217d15676c7b2a",
    "constant_score@3": "42ffd69c23b48758",
    "cross_fields@10000": "8cf0a4ca0f0ab65d",
    "cross_fields@3": "e3f01b95050e4e7c",
    "dis_max@10000": "c9fc22ca57ffae88",
    "dis_max@3": "6d75a6fcc125432b",
    "distance_feature@10000": "06e797d4eb0d9baf",
    "distance_feature@3": "3ae2a5243695952b",
    "dsl_bool@10000": "97b22f11f684a976",
    "dsl_bool@3": "6e324b6daa8a89c3",
    "dsl_bool_msm@10000": "66b055ddb8dc520e",
    "dsl_bool_msm@3": "6e324b6daa8a89c3",
    "dsl_boosting@10000": "1e1fad93c764e555",
    "dsl_boosting@3": "16449be7bf4601df",
    "dsl_constant_score@10000": "8928ea921bfdbed4",
    "dsl_constant_score@3": "ad5386ae1eb6ecb6",
    "dsl_dis_max@10000": "5cd9472649e5ab5c",
    "dsl_dis_max@3": "143aaef3b557bc2a",
    "dsl_from@10000": "bb43d4eaaec22d3d",
    "dsl_from@3": "eaa39040105ed0c9",
    "dsl_function_score@10000": "76e6aced0738b487",
    "dsl_function_score@3": "52055395e992c22d",
    "dsl_match@10000": "af383cc1c0764e60",
    "dsl_match@3": "78e2d78a83417ffe",
    "dsl_match_path@10000": "530ab95a948abb1a",
    "dsl_match_path@3": "0a83f927db048c03",
    "dsl_match_phrase@10000": "3e38d448df21dab8",
    "dsl_match_phrase@3": "2742bb10ff1d9d89",
    "dsl_prefix_filter@10000": "5c7fd2e7ea6b582b",
    "dsl_prefix_filter@3": "776de21536e0b06b",
    "facets": "4932003450ff9569",
    "federated@10000": "2034f6377f77c05f",
    "federated@3": "de18eb1053806ddf",
    "function_score@10000": "263e0a08e08c3fcc",
    "function_score@3": "590d34c24886253e",
    "fuzzy@10000": "c5ed3abb2ac750f2",
    "fuzzy@3": "776de21536e0b06b",
    "kql@10000": "c5ed3abb2ac750f2",
    "kql@3": "776de21536e0b06b",
    "kql_filter@10000": "a53f1719a7aa0154",
    "kql_filter@3": "0ada5777137377d1",
    "ltr_features@10000": "67f282645b18b3ee",
    "ltr_features@3": "d8b4f9d23a2ea406",
    "match_bool_prefix@10000": "db2a4b214bd6de24",
    "match_bool_prefix@3": "22a18020a9debf47",
    "match_ids": "2a550f900f870d00",
    "more_like_this@10000": "7ce5f91ebbd9bfb8",
    "more_like_this@3": "1950266d793bb4fc",
    "msearch@10000": "edeaf761a4b317ab",
    "msearch@3": "90fef296215234c8",
    "phrase_topk@10000": "3e38d448df21dab8",
    "phrase_topk@3": "2742bb10ff1d9d89",
    "pinned@10000": "8a4b9bb9f8b8779e",
    "pinned@3": "9c65149a6b27e91b",
    "prefix@10000": "8fb4d86f94ba618e",
    "prefix@3": "736ea44b9b781106",
    "query_string@10000": "59704dcc0a036ac5",
    "query_string@3": "6e324b6daa8a89c3",
    "query_string_should@10000": "7a5b5aca0e5f5527",
    "query_string_should@3": "1bfd1056ec81cbc2",
    "rank_feature_log@10000": "1a244990df1ab0f2",
    "rank_feature_log@3": "595e46f1afcae1cf",
    "rank_feature_sat@10000": "5eefc00362867fe2",
    "rank_feature_sat@3": "1c00532a089944ab",
    "rescore@10000": "f343b04cb76037b7",
    "rescore@3": "3948e542f0163610",
    "search@10000": "af383cc1c0764e60",
    "search@3": "78e2d78a83417ffe",
    "search_after_p1@10000": "af383cc1c0764e60",
    "search_after_p1@3": "78e2d78a83417ffe",
    "search_after_p2@10000": "3a4d09d16345e3a5",
    "search_after_p2@3": "85818fb847c63dd7",
    "search_fields@10000": "033cde943ef94014",
    "search_fields@3": "924cc63abcf26595",
    "search_fields_b1@10000": "8cf0a4ca0f0ab65d",
    "search_fields_b1@3": "e3f01b95050e4e7c",
    "search_filtered@10000": "b7c90940489c1c06",
    "search_filtered@3": "7de861dcf2e0cf16",
    "sorted_by_field@10000": "2cc2978d88ddaada",
    "sorted_by_field@3": "e407768cd5c1c3e6",
    "sparse_vector@10000": "a8d0e52b60eeb458",
    "sparse_vector@3": "e2550bf184de0b84",
    "sqs@10000": "c5ed3abb2ac750f2",
    "sqs@3": "776de21536e0b06b",
    "synonym@10000": "1fa04fbee6597a33",
    "synonym@3": "710d52c99e4e9e33",
    "terms_set@10000": "68f72beb5998ea56",
    "terms_set@3": "78e2d78a83417ffe",
    "tomb:boolean@10000": "b81d366726a386f5",
    "tomb:boolean@3": "6e324b6daa8a89c3",
    "tomb:boosting@10000": "4e5bea9b0286371b",
    "tomb:boosting@3": "78e2d78a83417ffe",
    "tomb:collapse@10000": "0110bc7211e80b5a",
    "tomb:collapse@3": "3c83ca265e231204",
    "tomb:collapse_inner@10000": "c80b351ce4a7aa49",
    "tomb:collapse_inner@3": "86daf2f3fc9b3a9e",
    "tomb:combined_fields@10000": "f012abd67d8b24cd",
    "tomb:combined_fields@3": "24ae4b69d0361b5f",
    "tomb:cross_fields@10000": "565d317bf47326a0",
    "tomb:cross_fields@3": "e3f01b95050e4e7c",
    "tomb:dis_max@10000": "95f57245088302fb",
    "tomb:dis_max@3": "6d75a6fcc125432b",
    "tomb:distance_feature@10000": "ea488983b2fdd79a",
    "tomb:distance_feature@3": "06b863cbf21d97bf",
    "tomb:dsl_bool@10000": "756ea4b0a7dac80c",
    "tomb:dsl_bool@3": "6e324b6daa8a89c3",
    "tomb:dsl_from@10000": "2185bf4bf725e7dd",
    "tomb:dsl_from@3": "eaa39040105ed0c9",
    "tomb:dsl_match@10000": "4e5bea9b0286371b",
    "tomb:dsl_match@3": "78e2d78a83417ffe",
    "tomb:federated@10000": "a46ef2e43823541c",
    "tomb:federated@3": "de18eb1053806ddf",
    "tomb:function_score@10000": "02ac1202771b00e6",
    "tomb:function_score@3": "590d34c24886253e",
    "tomb:kql@10000": "65418a3d772ca108",
    "tomb:kql@3": "776de21536e0b06b",
    "tomb:more_like_this@10000": "e66c2459c7ac585f",
    "tomb:more_like_this@3": "948a77b51eec72ce",
    "tomb:msearch@10000": "3b0ccf8ef0de23af",
    "tomb:msearch@3": "90fef296215234c8",
    "tomb:rank_feature_sat@10000": "55431bbda4251fdc",
    "tomb:rank_feature_sat@3": "9afcc3ddb75b8512",
    "tomb:search@10000": "4e5bea9b0286371b",
    "tomb:search@3": "78e2d78a83417ffe",
    "tomb:search_after_p1@10000": "4e5bea9b0286371b",
    "tomb:search_after_p1@3": "78e2d78a83417ffe",
    "tomb:search_after_p2@10000": "831de0dcf8755d6a",
    "tomb:search_after_p2@3": "bc3f30cd051e6dbb",
    "tomb:search_fields@10000": "9707ab8bf9f0db06",
    "tomb:search_fields@3": "924cc63abcf26595",
    "tomb:sparse_vector@10000": "c38aabbd75780bca",
    "tomb:sparse_vector@3": "d4da3e5c0d1ec99e",
    "tomb:sqs@10000": "65418a3d772ca108",
    "tomb:sqs@3": "776de21536e0b06b",
    "tomb:synonym@10000": "db2b50e54dc3f4a1",
    "tomb:synonym@3": "710d52c99e4e9e33",
    "tomb:terms_set@10000": "e576dda65d89f54c",
    "tomb:terms_set@3": "78e2d78a83417ffe",
    "wildcard@10000": "7b0407623d10bb32",
    "wildcard@3": "99188af18a85df2b",
}

# digest per call name of the dictionary scans, metadata rounds, the
# prewarm set and the positional surfaces, recorded before the shard
# rounds, the dictionary scans and the verify fan-out were shared
PINNED_ROUNDS = {
    "expand_fuzzy": "99a06d9db08bda32",
    "expand_fuzzy_cap": "2e2b51227edee77e",
    "expand_fuzzy_one": "529f57ed03ab0f83",
    "expand_fuzzy_transpositions": "42150fc0801a5d45",
    "expand_prefix": "11978a7ddd83b86f",
    "expand_prefix_all": "76156333241eada0",
    "expand_regex": "6566fe1780dfe41c",
    "expand_regex_cap": "618b76c4efc76e5e",
    "field_caps": "96aa51421e408833",
    "index_stats": "36514e7d2ecd44da",
    "intervals_match": "242439fa332c13ef",
    "keyword_values": "d1504d32c6a21c7f",
    "keyword_values_prefix": "8f87f5cfc3483404",
    "phrase_match": "2d65a3400890bdea",
    "phrase_match_chunks": "2d65a3400890bdea",
    "phrase_match_range": "2d65a3400890bdea",
    "phrase_prefix_match": "4b195bbc422b6f15",
    "phrase_prefix_match_range": "4b195bbc422b6f15",
    "phrase_suggest": "baeb0b5a3f7ee07a",
    "phrase_suggest_wide": "14a07631038267a1",
    "prewarm": "751a2fcc68f4129d",
    "proximity_ordered": "242439fa332c13ef",
    "proximity_ordered_range": "242439fa332c13ef",
    "proximity_slop": "2a188ce2b5350040",
    "proximity_slop_range": "2a188ce2b5350040",
    "proximity_unordered": "a1d4bfb81e96f96d",
    "proximity_unordered_range": "a1d4bfb81e96f96d",
    "rare_terms": "f3ab9dda6360f7c6",
    "rare_terms_wide": "fb3cb2517c14bc4a",
    "span_containing": "4aaf2e47f5c4559e",
    "span_containing_range": "4aaf2e47f5c4559e",
    "span_first": "d6c8eb36d9377f37",
    "span_first_range": "d6c8eb36d9377f37",
    "span_not": "980d187cf3385793",
    "span_not_range": "980d187cf3385793",
    "span_or": "135ad3b03e6b6e1c",
    "span_or_range": "135ad3b03e6b6e1c",
    "span_within": "462f51c1a0fd8f33",
    "span_within_range": "462f51c1a0fd8f33",
    "terms_enum": "0fe964b8a913d5fc",
    "terms_enum_lang": "1acd7b3c49309a07",
}


def _cell(v):
    return float.hex(v) if isinstance(v, float) else v


def _rows(res) -> list[tuple]:
    if isinstance(res, pa.Table):
        cols = [res[c].to_pylist() for c in res.column_names]
        return [tuple(res.column_names)] + [
            tuple(_cell(v) for v in r) for r in zip(*cols)]
    return [tuple(_cell(v) for v in r) for r in res]


def _digest(res) -> str:
    return hashlib.sha256(repr(_rows(res)).encode()).hexdigest()[:16]


def _dsl_bodies() -> dict[str, dict]:
    return {
        "match": {"query": {"match": {"content": Q}}},
        "match_path": {"query": {"match": {"path": "src main"}}},
        "match_phrase": {"query": {"match_phrase": {
            "content": "authentication failure"}}},
        "bool": {"query": {"bool": {
            "must": [{"match": {"content": "error"}}],
            "should": [{"match": {"content": "authentication merge"}}],
            "must_not": [{"term": {"lang": "md"}}]}}},
        "bool_msm": {"query": {"bool": {
            "should": [{"match": {"content": "error"}},
                       {"match": {"content": "window"}},
                       {"match": {"content": "authentication"}}],
            "minimum_should_match": 2}}},
        "boosting": {"query": {"boosting": {
            "positive": {"match": {"content": Q}},
            "negative": {"term": {"lang": "python"}},
            "negative_boost": 0.25}}},
        "dis_max": {"query": {"dis_max": {
            "queries": [{"match": {"content": "error"}},
                        {"match": {"path": "src"}}],
            "tie_breaker": 0.3}}},
        "function_score": {"query": {"function_score": {
            "query": {"match": {"content": Q2}}, "weight": 1.5}}},
        "constant_score": {"query": {"constant_score": {
            "filter": {"exists": {"field": "lang"}}, "boost": 2.0}}},
        "prefix_filter": {"query": {"bool": {
            "must": [{"match": {"content": "error"}}],
            "filter": [{"prefix": {"content": "auth"}}]}}},
        "from": {"query": {"match": {"content": Q}}, "from": 2},
    }


def _surfaces(eng, k: int) -> dict:
    """name -> zero-arg call producing the surface's result at depth k."""
    from logsentinelai_ray.query.federated import FederatedSearch

    fed = FederatedSearch([eng, eng])
    calls = {
        "search": lambda: eng.search(Q, k=k, with_meta=False,
                                     strategy="taat"),
        "search_filtered": lambda: eng.search(
            "error", k=k, filters={"lang": ["python", "go"]},
            with_meta=False, strategy="taat"),
        "msearch": lambda: eng.msearch(
            [{"text": Q, "k": k}, {"text": Q2, "k": k,
                                   "filters": {"lang": "java"}}],
            with_meta=False, strategy="taat"),
        "fuzzy": lambda: eng.fuzzy_search("eror", k=k),
        "wildcard": lambda: eng.wildcard_search("*rr*", k=k),
        "prefix": lambda: eng.prefix_search("au", k=k),
        "search_fields": lambda: eng.search_fields(
            content_query=Q, path_query="src main", path_boost=2.0, k=k,
            strategy="taat"),
        "search_fields_b1": lambda: eng.search_fields(
            content_query=Q2, path_query="src", k=k, strategy="taat"),
        "collapse": lambda: eng.collapse_search(Q, "lang", k=k),
        "collapse_repo": lambda: eng.collapse_search("error", "repo",
                                                     k=k),
        "collapse_inner": lambda: eng.collapse_inner_hits(
            Q, "lang", k=k, inner_size=k),
        "search_after_p1": lambda: eng.search_after(Q, k=k,
                                                    strategy="taat"),
        "search_after_p2": lambda: _page_two(eng, k),
        "more_like_this": lambda: eng.more_like_this(_mlt_src(eng),
                                                     k=k),
        "boolean": lambda: eng.boolean_search(
            must="error", should="authentication merge",
            must_not="window", k=k),
        "boolean_msm": lambda: eng.boolean_search(
            should="error authentication window merge", k=k,
            min_should_match=2),
        "function_score": lambda: eng.function_score_search(
            Q, {"lang": {"python": 1.5, "go": 0.75}}, k=k),
        "dis_max": lambda: eng.dis_max_search(
            content_query=Q, path_query="src main", k=k),
        "boosting": lambda: eng.boosting_search(Q, "window merge",
                                                k=k),
        "pinned": lambda: eng.pinned_search([5, 3], Q, k=k),
        "distance_feature": lambda: eng.distance_feature_search(
            Q, origin=120, pivot=40.0, k=k),
        "rank_feature_sat": lambda: eng.rank_feature_search(Q, k=k),
        "rank_feature_log": lambda: eng.rank_feature_search(
            Q2, k=k, function="log"),
        "ltr_features": lambda: eng.ltr_features(Q, k=k),
        "sparse_vector": lambda: eng.sparse_vector_search(
            {"error": 1.0, "authentication": 0.5, "merge": 2.0}, k=k),
        "combined_fields": lambda: eng.combined_fields_search(
            "error src main", path_boost=2.0, k=k),
        "cross_fields": lambda: eng.cross_fields_search(
            "error src main", k=k),
        "synonym": lambda: eng.synonym_search(
            "error", {"error": ["failure", "window"]}, k=k),
        "query_string": lambda: eng.query_string(
            '+error authentication -merge lang:python', k=k),
        "query_string_should": lambda: eng.query_string(
            "authentication window merge", k=k),
        "rescore": lambda: eng.rescore_search(
            Q, "authentication failure", k=k, window=40),
        "match_bool_prefix": lambda: eng.match_bool_prefix_search(
            "authentication fa", k=k),
        "terms_set": lambda: eng.terms_set_search(
            ["error", "authentication", "failure", "merge"], 2, k=k),
        "phrase_topk": lambda: eng.phrase_topk("authentication failure",
                                               k=k),
        "kql": lambda: eng.kql_search("error or (window and not merge)",
                                      k=k),
        "kql_filter": lambda: eng.kql_search("lang:python", k=k),
        "sqs": lambda: eng.simple_query_string("error | window -merge",
                                               k=k),
        "federated": lambda: fed.search(Q, k=k),
        "constant_score": lambda: eng.constant_score_search(
            Q, filters={"lang": "python"}, k=k),
        "sorted_by_field": lambda: eng.search_sorted_by_field(
            Q, "lang", k=k),
    }
    for name, body in _dsl_bodies().items():
        calls[f"dsl_{name}"] = (
            lambda b=body: eng.dsl_search({**b, "size": k}))
    return calls


def _page_two(eng, k: int):
    first = eng.search_after(Q2, k=5, strategy="taat")
    last = (first["score"][4].as_py(), first["doc_id"][4].as_py())
    return eng.search_after(Q2, k=k, after=last, strategy="taat")


def _mlt_src(eng) -> int:
    return int(eng.search(Q, k=1, with_meta=False)["doc_id"][0].as_py())


def _alias(eng, reg: str, k: int):
    from logsentinelai_ray.index import aliases as al

    # two members over the same index: the merged rows repeat doc ids
    al.put_alias(reg, "both", [
        {"index": eng.index_dir, "filter": {"lang": ["python", "go"]}},
        {"index": eng.index_dir}])
    return al.alias_search(reg, "both", Q, k=k,
                           get_engine=lambda d: eng)


def _unkeyed(eng) -> dict:
    return {
        "match_ids": lambda: [(int(d),) for d in eng.match_ids(Q)],
        "facets": lambda: eng.search_facets(Q, "lang"),
    }


# every positional surface once through the engine (candidate plan),
# then through query/phrase.py with candidate_max_df=0 (doc-range plan)
# and with small chunk_docs (several verify tasks)
_RANGE = {"chunk_docs": 64, "candidate_max_df": 0}


def _rounds(eng) -> dict:
    """name -> zero-arg call for the dictionary scans, metadata rounds
    and positional verify surfaces (none of them take a k)."""
    from logsentinelai_ray.query import phrase as ph

    def values(vals):
        return [(v,) for v in vals]

    calls = {
        "expand_prefix": lambda: eng.expand_prefix("s", 8),
        "expand_prefix_all": lambda: eng.expand_prefix("a", 10 ** 6),
        "expand_regex": lambda: eng.expand_regex("s[a-z]*a[a-z]*"),
        "expand_regex_cap": lambda: eng.expand_regex("[a-z]*e[a-z]*", 7),
        "expand_fuzzy": lambda: eng.expand_fuzzy("sefl", 2, 10),
        "expand_fuzzy_one": lambda: eng.expand_fuzzy("eror", 1, 10),
        "expand_fuzzy_transpositions": lambda: eng.expand_fuzzy(
            "sefl", 1, 10, transpositions=True),
        "expand_fuzzy_cap": lambda: eng.expand_fuzzy("retrun", 2, 3),
        "keyword_values": lambda: values(eng.keyword_values("lang")),
        "keyword_values_prefix": lambda: values(eng.keyword_values(
            "repo", prefix="org1", max_expansions=5)),
        "rare_terms": lambda: eng.rare_terms(2, 20),
        "rare_terms_wide": lambda: eng.rare_terms(5, 60),
        "terms_enum": lambda: eng.terms_enum("repo", "org1/repo1", 5),
        "terms_enum_lang": lambda: eng.terms_enum("lang"),
        "field_caps": lambda: eng.field_caps(),
        "index_stats": lambda: eng.index_stats(),
        "phrase_suggest": lambda: eng.phrase_suggest(
            "authentcation failre", k=5),
        "phrase_suggest_wide": lambda: eng.phrase_suggest(
            "retrun eror", max_edits=2, per_slot=4, k=10),
        "phrase_match": lambda: eng.phrase_match("error self"),
        "phrase_match_range": lambda: ph.phrase_match(
            eng, "error self", **_RANGE),
        "phrase_match_chunks": lambda: ph.phrase_match(
            eng, "error self", chunk_docs=16),
        "phrase_prefix_match": lambda: eng.phrase_prefix_match(
            "import er"),
        "phrase_prefix_match_range": lambda: ph.phrase_prefix_match(
            eng, "import er", **_RANGE),
        "intervals_match": lambda: eng.intervals_match("import", "error",
                                                       2),
        "span_first": lambda: eng.span_first_match("error", 3),
        "span_first_range": lambda: ph.span_first_match(
            eng, "error", 3, **_RANGE),
        "span_or": lambda: eng.span_or_match(
            ["error", "self", "zzzmissing"]),
        "span_or_range": lambda: ph.span_or_match(
            eng, ["error", "self", "zzzmissing"], **_RANGE),
        "span_not": lambda: eng.span_not_match("error", "self", 1, 1),
        "span_not_range": lambda: ph.span_not_match(
            eng, "error", "self", 1, 1, **_RANGE),
        "span_containing": lambda: eng.span_containing_match(
            "import", "self", "error", 6),
        "span_within": lambda: eng.span_within_match(
            "import", "self", "error", 6),
    }
    for mode, (a, b) in {"unordered": ("error", "self"),
                         "ordered": ("import", "error"),
                         "slop": ("return", "error")}.items():
        calls[f"proximity_{mode}"] = (
            lambda a=a, b=b, m=mode: ph.proximity_match(
                eng, a, b, window=2, mode=m))
        calls[f"proximity_{mode}_range"] = (
            lambda a=a, b=b, m=mode: ph.proximity_match(
                eng, a, b, window=2, mode=m, **_RANGE))
    for mode in ("containing", "within"):
        calls[f"span_{mode}_range"] = (
            lambda m=mode: ph.span_contain_match(
                eng, "import", "self", "error", 6, mode=m, **_RANGE))
    return calls


TOMB_CALLS = ("search", "msearch", "search_fields", "collapse",
              "collapse_inner", "search_after_p1", "search_after_p2",
              "more_like_this", "boolean", "function_score", "dis_max",
              "boosting", "distance_feature", "rank_feature_sat",
              "sparse_vector", "combined_fields", "cross_fields",
              "synonym", "terms_set", "kql", "sqs", "federated",
              "dsl_match", "dsl_bool", "dsl_from")


def surface_digests(idx_dir: str, work_dir: str,
                    open_engine=None) -> dict[str, str]:
    """Digest of every surface's rows on ``idx_dir`` and on a copy of it
    with every 7th doc tombstoned (ids 0, 7, 14, ...); engines come from
    ``open_engine(index_dir, **kw)`` (default ``SearchEngine``)."""
    import numpy as np

    from logsentinelai_ray.index.delete import delete_docs
    from logsentinelai_ray.query.shards import SearchEngine

    open_engine = open_engine or SearchEngine
    out: dict[str, str] = {}
    eng = open_engine(idx_dir, num_shards=2)
    try:
        # the prewarm set, before any query consumes it
        out["prewarm"] = _digest([(t,) for t in sorted(eng._pending)])
        for k in KS:
            for name, call in _surfaces(eng, k).items():
                out[f"{name}@{k}"] = _digest(call())
            out[f"alias@{k}"] = _digest(_alias(
                eng, os.path.join(work_dir, f"aliases{k}.json"), k))
        for name, call in {**_unkeyed(eng), **_rounds(eng)}.items():
            out[name] = _digest(call())
    finally:
        eng.shutdown()
    tomb = os.path.join(work_dir, "tomb")
    shutil.copytree(idx_dir, tomb)
    with open(os.path.join(tomb, "stats.json")) as f:
        n = int(json.load(f)["n_docs"])
    delete_docs(tomb, np.arange(0, n, 7, dtype=np.int64))
    eng = open_engine(tomb, num_shards=2)
    try:
        for k in KS:
            calls = _surfaces(eng, k)
            for name in TOMB_CALLS:
                out[f"tomb:{name}@{k}"] = _digest(calls[name]())
    finally:
        eng.shutdown()
    return out


def _check_digests(got: dict[str, str]) -> None:
    want = {**PINNED, **PINNED_ROUNDS}
    assert sorted(got) == sorted(want)
    diff = {name: (got[name], want[name]) for name in want
            if got[name] != want[name]}
    assert not diff, diff


def test_query_surfaces_bit_identical(small_index, tmp_path):
    idx_dir, _ = small_index
    _check_digests(surface_digests(idx_dir, str(tmp_path)))


def test_query_surfaces_bit_identical_actor_shards(small_index, tmp_path):
    from tests.conftest import actor_engine

    idx_dir, _ = small_index
    _check_digests(surface_digests(idx_dir, str(tmp_path),
                                   open_engine=actor_engine))


if __name__ == "__main__":
    import sys
    import tempfile

    import ray
    import ray.data as rd

    from logsentinelai_ray.config import CorpusConfig, IndexConfig
    from logsentinelai_ray.corpus import generate_corpus
    from logsentinelai_ray.index.build import build_index

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    with tempfile.TemporaryDirectory() as d:
        # the session fixture's index (tests/conftest.py small_index)
        idx = os.path.join(d, "idx")
        build_index(rd.from_arrow(generate_corpus(CorpusConfig(n_docs=250))),
                    idx, IndexConfig(num_partitions=8, salt_buckets=2,
                                     block_size=32, store_positions=True,
                                     index_path_field=True),
                    corpus_tag="t250")
        res = surface_digests(idx, d)
    with open(sys.argv[1], "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    ray.shutdown()
