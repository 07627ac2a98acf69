import math

import numpy as np
import pytest
from scipy import special, stats

from denseprf.evaluator import (
    Qrels,
    mrr_at_k,
    ndcg_at_k,
    paired_t_test,
    recall_at_k,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)
from denseprf.pipeline import RunEntry, RunList

from instances import random_eval_instance
from oracles import _positives, oracle_mrr, oracle_ndcg, oracle_recall


def run_of(**per_query):
    """run_of(q1=["d1", "d2"], ...) with descending synthetic scores."""
    entries = []
    for qid, docs in per_query.items():
        for rank, doc in enumerate(docs, start=1):
            entries.append(RunEntry(qid, doc, rank, float(100 - rank), "t"))
    return RunList(entries)


# -- qrels ---------------------------------------------------------------------


def test_qrels_basics():
    q = Qrels.from_triples([("q1", "d1", 2), ("q1", "d2", 0), ("q2", "d1", 1)])
    assert q.grade("q1", "d1") == 2
    assert q.grade("q1", "unjudged") == 0
    assert q.positives("q1") == {"d1": 2}
    assert q.positives("q1", 3) == {}
    assert q.is_graded
    assert not Qrels.from_triples([("q1", "d1", 1)]).is_graded


def test_positives_match_scan_oracle():
    # positives reads the query's own group; the oracle scans every judgment.
    rng = np.random.default_rng(21)
    for _ in range(40):
        _, _, qrels, qdict = random_eval_instance(rng)
        for qid in sorted({q for q, _ in qdict}) + ["unknown"]:
            for threshold in (1, 2, 3):
                got = qrels.positives(qid, threshold)
                want = _positives(qdict, qid, threshold)
                assert list(got.items()) == list(want.items())


class CountingJudgments(dict):
    """A judgments mapping that counts every walk over its entries."""

    walks = 0

    def _walked(self, view):
        self.walks += 1
        return view

    def items(self):
        return self._walked(super().items())

    def values(self):
        return self._walked(super().values())

    def keys(self):
        return self._walked(super().keys())

    def __iter__(self):
        return self._walked(super().__iter__())


def test_judgments_walked_a_constant_number_of_times():
    # Lookups must not rescan every judgment: 1,000 positives calls and the
    # three metrics over 50 queries walk the judgments a fixed number of times.
    rng = np.random.default_rng(22)
    judgments = CountingJudgments(
        ((f"q{q}", f"d{d}"), int(rng.integers(0, 4)))
        for q in range(50) for d in range(20)
    )
    qrels = Qrels(judgments)
    for i in range(1000):
        qrels.positives(f"q{i % 60}", 1 + i % 3)
    run = run_of(**{f"q{q}": [f"d{d}" for d in range(0, 20, 2)] for q in range(50)})
    reports = [mrr_at_k(run, qrels, 10), ndcg_at_k(run, qrels, 10),
               recall_at_k(run, qrels, 10)]
    assert all(len(r.per_query) > 40 for r in reports)
    assert judgments.walks <= 3


def test_qrels_validation():
    with pytest.raises(ValueError, match="grade out of range"):
        Qrels.from_triples([("q1", "d1", 4)])
    with pytest.raises(ValueError, match="grade out of range"):
        Qrels.from_triples([("q1", "d1", -1)])
    with pytest.raises(ValueError, match="duplicate qrel: q1 d1"):
        Qrels.from_triples([("q1", "d1", 1), ("q1", "d1", 2)])


def test_qrels_file_round_trip(tmp_path):
    q = Qrels.from_triples([("q1", "d1", 2), ("q2", "d9", 0)])
    path = tmp_path / "qrels.txt"
    q.save(path)
    assert Qrels.load(path) == q


def test_qrels_load_malformed(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\nq2 0 d2\n")
    with pytest.raises(ValueError, match="malformed qrels line 2"):
        Qrels.load(path)
    path.write_text("q1 0 d1 high\n")
    with pytest.raises(ValueError, match="malformed qrels line 1"):
        Qrels.load(path)


def test_qrels_load_skips_blank_lines(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\n\nq1 0 d2 2\n")
    assert Qrels.load(path).grade("q1", "d2") == 2


# -- mrr --------------------------------------------------------------------------


def test_mrr_first_relevant_at_rank_three():
    run = run_of(q1=["a", "b", "c", "d"])
    qrels = Qrels.from_triples([("q1", "c", 1), ("q1", "d", 1)])
    report = mrr_at_k(run, qrels, 10)
    assert report.per_query == {"q1": 1.0 / 3.0}
    assert report.mean == 1.0 / 3.0
    assert report.metric_name == "MRR"
    assert report.cutoff == 10


def test_mrr_no_relevant_in_top_k():
    run = run_of(q1=["a", "b", "c"])
    qrels = Qrels.from_triples([("q1", "c", 1)])
    assert mrr_at_k(run, qrels, 2).per_query == {"q1": 0.0}


def test_mrr_threshold():
    # Grade 1 is the lowest relevant grade; grade 0 is judged irrelevant.
    run = run_of(q1=["a", "b"])
    qrels = Qrels.from_triples([("q1", "a", 0), ("q1", "b", 1)])
    assert mrr_at_k(run, qrels, 10).per_query == {"q1": 0.5}


def test_mrr_excludes_queries_without_positives():
    run = run_of(q1=["a"], q2=["b"])
    qrels = Qrels.from_triples([("q1", "a", 1), ("q2", "b", 0)])
    report = mrr_at_k(run, qrels, 10)
    assert set(report.per_query) == {"q1"}
    assert report.mean == 1.0


# -- ndcg -------------------------------------------------------------------------


def test_ndcg_ideal_single_doc():
    run = run_of(q1=["a"])
    qrels = Qrels.from_triples([("q1", "a", 3)])
    assert ndcg_at_k(run, qrels, 10).per_query == {"q1": 1.0}


def test_ndcg_hand_value():
    # grades down the ranking (0, 3, 0), one graded doc in qrels:
    # DCG = 3/log2(3), IDCG = 3/log2(2) = 3
    run = run_of(q1=["a", "b", "c"])
    qrels = Qrels.from_triples([("q1", "b", 3)])
    got = ndcg_at_k(run, qrels, 3).per_query["q1"]
    assert abs(got - 0.630930) <= 1e-6
    assert got == (3.0 / math.log2(3)) / 3.0


def test_ndcg_reversal_decreases():
    qrels = Qrels.from_triples([("q1", "hi", 3), ("q1", "lo", 1)])
    good = ndcg_at_k(run_of(q1=["hi", "lo"]), qrels, 10).per_query["q1"]
    bad = ndcg_at_k(run_of(q1=["lo", "hi"]), qrels, 10).per_query["q1"]
    assert good == 1.0
    assert bad < good


def test_ndcg_skips_queries_with_zero_idcg():
    run = run_of(q1=["a"], q2=["b"])
    qrels = Qrels.from_triples([("q1", "a", 2), ("q2", "b", 0)])
    assert set(ndcg_at_k(run, qrels, 10).per_query) == {"q1"}


# -- recall -------------------------------------------------------------------------


def test_recall_binarization_fixture():
    # the grade-1 doc neither counts as a hit nor joins the denominator
    run = run_of(q1=["d1", "d3"])
    qrels = Qrels.from_triples([("q1", "d1", 3), ("q1", "d2", 2), ("q1", "d3", 1)])
    report = recall_at_k(run, qrels, 10)
    assert report.binarization_threshold == 2
    assert report.per_query == {"q1": 0.5}


def test_recall_default_threshold_binary_qrels():
    run = run_of(q1=["d1"])
    qrels = Qrels.from_triples([("q1", "d1", 1), ("q1", "d2", 1)])
    report = recall_at_k(run, qrels, 10)
    assert report.binarization_threshold == 1
    assert report.per_query == {"q1": 0.5}


def test_recall_all_retrieved():
    run = run_of(q1=["d1", "d2", "x"])
    qrels = Qrels.from_triples([("q1", "d1", 2), ("q1", "d2", 3)])
    assert recall_at_k(run, qrels, 10).per_query == {"q1": 1.0}


def test_recall_half_of_four():
    run = run_of(q1=["d1", "d2", "junk"])
    qrels = Qrels.from_triples(
        [("q1", f"d{i}", 2) for i in range(1, 5)]
    )
    assert recall_at_k(run, qrels, 1000).per_query == {"q1": 0.5}


def test_recall_threshold_validation():
    run = run_of(q1=["d1"])
    qrels = Qrels.from_triples([("q1", "d1", 2)])
    for bad in (0, 4):
        with pytest.raises(ValueError, match="binarize threshold out of range"):
            recall_at_k(run, qrels, 10, binarize_threshold=bad)


def test_metric_k_validation():
    run = run_of(q1=["d1"])
    qrels = Qrels.from_triples([("q1", "d1", 1)])
    for fn in (mrr_at_k, ndcg_at_k, recall_at_k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            fn(run, qrels, 0)


# -- invariants -----------------------------------------------------------------------


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(0)
    run, _, qrels, _ = random_eval_instance(rng)
    entries = list(run.entries)
    rng.shuffle(entries)
    shuffled = RunList(entries)
    assert mrr_at_k(run, qrels, 10).per_query == mrr_at_k(shuffled, qrels, 10).per_query
    assert ndcg_at_k(run, qrels, 10).per_query == ndcg_at_k(shuffled, qrels, 10).per_query


def test_metrics_truncation_consistent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        run, _, qrels, qdict = random_eval_instance(rng)
        k = int(rng.integers(1, 8))
        cut = RunList(e for e in run.entries if e.rank <= k)
        thr = 2 if any(g > 1 for g in qdict.values()) else 1
        assert mrr_at_k(run, qrels, k).per_query == mrr_at_k(cut, qrels, k).per_query
        assert ndcg_at_k(run, qrels, k).per_query == ndcg_at_k(cut, qrels, k).per_query
        assert (
            recall_at_k(run, qrels, k, thr).per_query
            == recall_at_k(cut, qrels, k, thr).per_query
        )


def test_metrics_match_oracle_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(50):
        run, run_dict, qrels, qdict = random_eval_instance(rng)
        thr = 2 if any(g > 1 for g in qdict.values()) else 1

        mrr = mrr_at_k(run, qrels, 10)
        mean, per_query = oracle_mrr(run_dict, qdict, 10)
        assert set(mrr.per_query) == set(per_query)
        assert all(abs(mrr.per_query[q] - per_query[q]) <= 1e-12 for q in per_query)
        assert abs(mrr.mean - mean) <= 1e-12

        ndcg = ndcg_at_k(run, qrels, 10)
        mean, per_query = oracle_ndcg(run_dict, qdict, 10)
        assert set(ndcg.per_query) == set(per_query)
        assert all(abs(ndcg.per_query[q] - per_query[q]) <= 1e-12 for q in per_query)
        assert abs(ndcg.mean - mean) <= 1e-12

        recall = recall_at_k(run, qrels, 1000)
        mean, per_query = oracle_recall(run_dict, qdict, 1000, thr)
        assert set(recall.per_query) == set(per_query)
        assert all(
            abs(recall.per_query[q] - per_query[q]) <= 1e-12 for q in per_query
        )
        assert abs(recall.mean - mean) <= 1e-12

        for report in (mrr, ndcg, recall):
            assert all(0.0 <= v <= 1.0 for v in report.per_query.values())


# -- t-test ------------------------------------------------------------------------


def test_t_test_pinned_fixture():
    a = {"q1": 0.1, "q2": 0.2, "q3": 0.3, "q4": 0.4}
    b = {q: 0.0 for q in a}
    t, p, n = paired_t_test(a, b)
    assert n == 4
    assert abs(t - 3.872983) <= 1e-5
    assert abs(p - 0.030466) <= 1e-5
    # independent numeric oracle
    ref_t, ref_p = stats.ttest_rel(list(a.values()), list(b.values()))
    assert abs(t - ref_t) <= 1e-10
    assert abs(p - ref_p) <= 1e-8


def test_t_test_antisymmetry():
    a = {"q1": 0.5, "q2": 0.1, "q3": 0.9}
    b = {"q1": 0.2, "q2": 0.3, "q3": 0.4}
    t_ab, p_ab, _ = paired_t_test(a, b)
    t_ba, p_ba, _ = paired_t_test(b, a)
    assert t_ab == -t_ba
    assert p_ab == p_ba


def test_t_test_uses_shared_queries_only():
    a = {"q1": 0.5, "q2": 0.1, "q3": 0.9, "only_a": 1.0}
    b = {"q1": 0.2, "q2": 0.3, "q3": 0.4, "only_b": 0.0}
    _, _, n = paired_t_test(a, b)
    assert n == 3


def test_t_test_degenerate():
    a = {"q1": 0.5, "q2": 0.1}
    with pytest.raises(ValueError, match="degenerate t-test"):
        paired_t_test(a, dict(a))  # zero variance
    with pytest.raises(ValueError, match="degenerate t-test"):
        paired_t_test({"q1": 0.5}, {"q1": 0.1})  # n < 2
    with pytest.raises(ValueError, match="degenerate t-test"):
        paired_t_test({"q1": 0.5}, {"q2": 0.1})  # no shared ids
    with pytest.raises(ValueError, match="degenerate t-test"):
        # equal nonzero shift on every query still has zero variance
        paired_t_test({"q1": 0.5, "q2": 0.7}, {"q1": 0.4, "q2": 0.6})


def test_t_test_against_scipy_grid():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 12, 40):
        for _ in range(5):
            qids = [f"q{i}" for i in range(n)]
            a = {q: float(rng.normal()) for q in qids}
            b = {q: float(rng.normal()) for q in qids}
            t, p, _ = paired_t_test(a, b)
            ref_t, ref_p = stats.ttest_rel([a[q] for q in sorted(qids)],
                                           [b[q] for q in sorted(qids)])
            assert abs(t - ref_t) <= 1e-9 * max(1.0, abs(ref_t))
            assert abs(p - ref_p) <= 1e-8
            assert 0.0 < p <= 1.0


# -- incomplete beta ------------------------------------------------------------------


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError, match="outside"):
        regularized_incomplete_beta(2.0, 3.0, 1.5)


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = float(rng.uniform(0.5, 20.0))
        b = float(rng.uniform(0.5, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        got = regularized_incomplete_beta(a, b, x)
        assert abs(got - special.betainc(a, b, x)) <= 1e-10


def test_incomplete_beta_symmetry():
    for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.8), (7.0, 1.5, 0.55)]:
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert abs(left - right) <= 1e-12


def test_student_t_p_properties():
    assert student_t_two_sided_p(0.0, 5) == 1.0
    assert student_t_two_sided_p(3.0, 5) == student_t_two_sided_p(-3.0, 5)
    with pytest.raises(ValueError, match="df must be >= 1"):
        student_t_two_sided_p(1.0, 0)
    for df in (1, 2, 7, 30):
        for t in (0.1, 1.0, 2.5, 6.0):
            ref = 2.0 * stats.t.sf(t, df)
            assert abs(student_t_two_sided_p(t, df) - ref) <= 1e-10
