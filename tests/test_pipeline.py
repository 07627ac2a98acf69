import numpy as np
import pytest

from denseprf.composer import PrfDepth, PrfTemplate, TemplateKind, document_sequence
from denseprf.encoder import encode, init_params
from denseprf.index import VectorIndex
from denseprf.pipeline import (
    RetrievalCounters,
    RunEntry,
    RunList,
    first_round,
    prf_retrieve,
    read_corpus_tsv,
    read_queries_tsv,
    read_run,
    results_to_run,
    write_run,
)
from denseprf.tokenizer import CasePolicy, tokenize


@pytest.fixture()
def corpus_index(mixed_corpus, mixed_vocab, tiny_params):
    def embed(text):
        tokens = tokenize(text, mixed_vocab, CasePolicy.PRESERVE)
        return encode(tiny_params, document_sequence(tokens, 64))

    return VectorIndex.build(
        (doc_id, embed(text)) for doc_id, text in mixed_corpus.items()
    )


# -- run list ------------------------------------------------------------------


def entry(qid, did, rank, score, tag="t"):
    return RunEntry(qid, did, rank, score, tag)


def test_runlist_accepts_permuted_entries():
    entries = [
        entry("q2", "a", 1, 9.0),
        entry("q1", "b", 2, 1.0),
        entry("q1", "a", 1, 2.0),
    ]
    run = RunList(entries)
    assert list(run.by_query()) == ["q2", "q1"]  # first-appearance order
    assert [e.doc_id for e in run.by_query()["q1"]] == ["a", "b"]
    assert len(run) == 3


def test_runlist_by_query_shares_immutable_entries():
    run = RunList([entry("q1", "a", 1, 2.0), entry("q1", "b", 2, 1.0)])
    first = run.by_query()
    assert isinstance(first["q1"], tuple)
    assert run.by_query()["q1"] is first["q1"]  # shared, not copied
    first.pop("q1")
    assert [e.doc_id for e in run.by_query()["q1"]] == ["a", "b"]


def test_runlist_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate run entry: q1 a"):
        RunList([entry("q1", "a", 1, 2.0), entry("q1", "a", 2, 1.0)])


def test_runlist_rejects_rank_gaps():
    with pytest.raises(ValueError, match="ranks not contiguous for query q1"):
        RunList([entry("q1", "a", 1, 2.0), entry("q1", "b", 3, 1.0)])
    with pytest.raises(ValueError, match="ranks not contiguous for query q1"):
        RunList([entry("q1", "a", 2, 2.0)])
    with pytest.raises(ValueError, match="ranks not contiguous for query q1"):
        RunList([entry("q1", "a", 1, 2.0), entry("q1", "b", 1, 1.0)])


def test_runlist_rejects_increasing_scores():
    with pytest.raises(ValueError, match="scores increase for query q1"):
        RunList([entry("q1", "a", 1, 1.0), entry("q1", "b", 2, 2.0)])
    # ties are fine
    RunList([entry("q1", "a", 1, 1.0), entry("q1", "b", 2, 1.0)])


def test_runlist_equality():
    a = RunList([entry("q1", "a", 1, 2.0), entry("q1", "b", 2, 1.0)])
    b = RunList([entry("q1", "b", 2, 1.0), entry("q1", "a", 1, 2.0)])
    c = RunList([entry("q1", "a", 1, 2.0)])
    assert a == b
    assert a != c
    assert a != 42


def test_results_to_run_applies_tag(corpus_index, rng):
    results = corpus_index.search(rng.normal(size=16), k=3)
    run = results_to_run([("q1", results)], tag="myrun")
    assert all(e.tag == "myrun" for e in run.entries)
    assert [e.rank for e in run.entries] == [1, 2, 3]


# -- run file io -----------------------------------------------------------------


def test_run_file_round_trip(tmp_path):
    run = RunList([
        entry("q1", "docA", 1, 3.25, "base"),
        entry("q1", "docB", 2, -0.5, "base"),
        entry("q2", "docC", 1, 1.0 / 3.0, "base"),
    ])
    path = tmp_path / "run.txt"
    write_run(run, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "q1 Q0 docA 1 3.250000 base"
    assert lines[1] == "q1 Q0 docB 2 -0.500000 base"
    assert lines[2] == "q2 Q0 docC 1 0.333333 base"
    loaded = read_run(path)
    assert [e.doc_id for e in loaded.entries] == ["docA", "docB", "docC"]
    assert loaded.entries[2].score == pytest.approx(0.333333)


def test_read_run_shares_query_id_and_tag_strings(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 a 1 2.0 base\nq1 Q0 b 2 1.0 base\nq2 Q0 a 1 1.0 base\n")
    q1a, q1b, q2a = read_run(path).entries
    assert q1a.query_id is q1b.query_id
    assert q1a.tag is q1b.tag is q2a.tag


def test_read_run_reports_line_numbers(tmp_path):
    good = "q1 Q0 d{i} {i} {score:.6f} tag"
    lines = [
        good.format(i=i, score=float(20 - i)) for i in range(1, 17)
    ]
    path = tmp_path / "run.txt"
    for bad in ("not_a_score", "nan", "inf", "-inf"):
        path.write_text("\n".join(lines + [f"q1 Q0 d17 17 {bad} tag"]) + "\n")
        with pytest.raises(ValueError, match="malformed run line 17"):
            read_run(path)


def test_read_run_rejects_bad_shape(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q1 d1 1 2.0 tag\n")  # five columns, no Q0
    with pytest.raises(ValueError, match="malformed run line 1"):
        read_run(path)
    path.write_text("q1 QX d1 1 2.0 tag\n")
    with pytest.raises(ValueError, match="malformed run line 1"):
        read_run(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"q1 Q0 d1 1 {bad} t\nq1 Q0 d2 2 9.5 t\n")
        with pytest.raises(ValueError, match="malformed run line 1"):
            read_run(path)


def test_read_run_skips_blank_lines(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 d1 1 2.000000 tag\n\nq1 Q0 d2 2 1.000000 tag\n")
    assert len(read_run(path)) == 2


# -- tsv io ------------------------------------------------------------------------


def test_read_corpus_tsv(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\thello world\nd2\ttabs\tinside text\n")
    docs = read_corpus_tsv(path)
    assert docs == {"d1": "hello world", "d2": "tabs\tinside text"}


def test_read_corpus_tsv_errors(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\ta\njustonecolumn\n")
    with pytest.raises(ValueError, match="malformed corpus line 2"):
        read_corpus_tsv(path)
    path.write_text("d1\ta\nd1\tb\n")
    with pytest.raises(ValueError, match="duplicate doc_id d1"):
        read_corpus_tsv(path)
    path.write_text("\tno id\n")
    with pytest.raises(ValueError, match="malformed corpus line 1"):
        read_corpus_tsv(path)


def test_read_queries_tsv(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text("q1\twhat is up\n\nq2\tsecond one\n")
    assert read_queries_tsv(path) == [("q1", "what is up"), ("q2", "second one")]


def test_read_queries_tsv_errors(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text("q1\ta\nq1\tb\n")
    with pytest.raises(ValueError, match="duplicate query_id q1"):
        read_queries_tsv(path)
    path.write_text("no_tab_here\n")
    with pytest.raises(ValueError, match="malformed queries line 1"):
        read_queries_tsv(path)


# -- retrieval rounds ----------------------------------------------------------------


def test_first_round_counts_one_encode_one_search(
    mixed_vocab, tiny_params, corpus_index
):
    counters = RetrievalCounters()
    results = first_round(
        "quantum flux", mixed_vocab, tiny_params, corpus_index, 3,
        CasePolicy.PRESERVE, counters,
    )
    assert counters.encode_calls == 1
    assert counters.search_calls == 1
    assert len(results) == 3
    assert [r.rank for r in results] == [1, 2, 3]


def test_prf_retrieve_counts_two_each(
    mixed_corpus, mixed_vocab, tiny_params, corpus_index
):
    counters = RetrievalCounters()
    results = prf_retrieve(
        "quantum flux", mixed_vocab, tiny_params, tiny_params, corpus_index,
        mixed_corpus, PrfDepth(2), PrfTemplate(TemplateKind.ANCE, max_len=64),
        5, CasePolicy.PRESERVE, counters,
    )
    assert counters.encode_calls == 2
    assert counters.search_calls == 2
    assert len(results) == 5


def test_prf_retrieve_depth_must_fit_k(
    mixed_corpus, mixed_vocab, tiny_params, corpus_index
):
    with pytest.raises(ValueError, match="feedback depth exceeds k"):
        prf_retrieve(
            "quantum flux", mixed_vocab, tiny_params, tiny_params, corpus_index,
            mixed_corpus, PrfDepth(3), PrfTemplate(TemplateKind.ANCE, max_len=64),
            2, CasePolicy.PRESERVE,
        )


def test_prf_retrieve_missing_feedback_text(
    mixed_corpus, mixed_vocab, tiny_params, corpus_index
):
    partial = dict(mixed_corpus)
    first = first_round(
        "quantum flux", mixed_vocab, tiny_params, corpus_index, 1,
        CasePolicy.PRESERVE,
    )
    missing = first[0].doc_id
    del partial[missing]
    with pytest.raises(ValueError, match=f"feedback text unavailable: {missing}"):
        prf_retrieve(
            "quantum flux", mixed_vocab, tiny_params, tiny_params, corpus_index,
            partial, PrfDepth(1), PrfTemplate(TemplateKind.ANCE, max_len=64),
            5, CasePolicy.PRESERVE,
        )


def test_prf_leaves_index_unchanged(
    mixed_corpus, mixed_vocab, tiny_params, corpus_index
):
    before = corpus_index.checksum
    for _ in range(3):
        prf_retrieve(
            "gnomes in the garden", mixed_vocab, tiny_params, tiny_params,
            corpus_index, mixed_corpus, PrfDepth(2),
            PrfTemplate(TemplateKind.TCT, max_len=64), 4, CasePolicy.PRESERVE,
        )
    assert corpus_index.checksum == before


def test_prf_uses_distinct_encoders(
    mixed_corpus, mixed_vocab, tiny_params, corpus_index
):
    # a different second-round encoder must be able to change the ranking
    other = init_params(tiny_params.config, seed=1000, scale=0.5)
    common = dict(
        vocab=mixed_vocab, base_params=tiny_params, index=corpus_index,
        corpus_texts=mixed_corpus, depth=PrfDepth(2),
        template=PrfTemplate(TemplateKind.ANCE, max_len=64), k=5,
        policy=CasePolicy.PRESERVE,
    )
    same = prf_retrieve("quantum flux", prf_params=tiny_params, **common)
    swapped = prf_retrieve("quantum flux", prf_params=other, **common)
    assert [r.score for r in same] != [r.score for r in swapped]


def test_casing_policy_changes_prf_ranking(
    mixed_corpus, mixed_vocab, tiny_params, corpus_index
):
    # All-lowercase query: round one identical under both policies, but the
    # mixed-case feedback text tokenizes differently, moving round two.
    kwargs = dict(
        vocab=mixed_vocab, base_params=tiny_params, prf_params=tiny_params,
        index=corpus_index, corpus_texts=mixed_corpus, depth=PrfDepth(2),
        template=PrfTemplate(TemplateKind.ANCE, max_len=64), k=5,
    )
    q = "quantum drift"
    r1_preserve = first_round(
        q, mixed_vocab, tiny_params, corpus_index, 5, CasePolicy.PRESERVE
    )
    r1_lower = first_round(
        q, mixed_vocab, tiny_params, corpus_index, 5, CasePolicy.LOWERCASE
    )
    assert [(r.doc_id, r.score) for r in r1_preserve] == [
        (r.doc_id, r.score) for r in r1_lower
    ]
    prf_preserve = prf_retrieve(q, policy=CasePolicy.PRESERVE, **kwargs)
    prf_lower = prf_retrieve(q, policy=CasePolicy.LOWERCASE, **kwargs)
    assert [(r.doc_id, r.score) for r in prf_preserve] != [
        (r.doc_id, r.score) for r in prf_lower
    ]


def test_counters_accumulate_across_queries(
    mixed_corpus, mixed_vocab, tiny_params, corpus_index
):
    counters = RetrievalCounters()
    queries = ["quantum flux", "garden gnomes", "overnight drift"]
    for q in queries:
        prf_retrieve(
            q, mixed_vocab, tiny_params, tiny_params, corpus_index,
            mixed_corpus, PrfDepth(1), PrfTemplate(TemplateKind.ANCE, max_len=64),
            3, CasePolicy.LOWERCASE, counters,
        )
    assert counters.encode_calls == 2 * len(queries)
    assert counters.search_calls == 2 * len(queries)
