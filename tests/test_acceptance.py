"""Acceptance gate: one test per numbered criterion.

Each test records a single line into the shared acceptance report (printed
by conftest in the terminal summary) so the gate's status reads at a
glance.  Expensive fixtures (the prepared synthetic task, the experiment
and the head ablation's reinit arm) run once and feed every criterion that
consumes them; the ablation's inherit arm is the experiment itself.

Run standalone with:  pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from denseprf.cli import main
from denseprf.encoder import (
    EncoderConfig,
    GradExample,
    HeadPolicy,
    grad,
    init_params,
    nce_terms,
    param_layout,
)
from denseprf.evaluator import mrr_at_k, ndcg_at_k, paired_t_test, recall_at_k
from denseprf.index import VectorIndex
from denseprf.pipeline import RunEntry, RunList
from denseprf.synth import (
    ExperimentConfig,
    SynthConfig,
    generate,
    prepare_artifacts,
    run_experiment,
)
from denseprf.tokenizer import CasePolicy, TokenSequence
from denseprf.trainer import TrainConfig, TrainingSet, train

from instances import batch_loss, random_eval_instance
from oracles import naive_topk, oracle_mrr, oracle_ndcg, oracle_recall


@contextmanager
def criterion(lines, num, title):
    """Record one pass/fail report line for the block, then re-raise."""
    info = {}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        lines.append(f"criterion {num:02d} FAIL {title}")
        raise
    detail = info.get("detail", "ok")
    lines.append(
        f"criterion {num:02d} PASS {title}: {detail}"
        f" [{time.perf_counter() - t0:.1f}s]"
    )


# -- shared expensive fixtures -------------------------------------------------


@pytest.fixture(scope="module")
def prepared():
    exp = ExperimentConfig().with_seed(0)
    return exp, prepare_artifacts(exp)


@pytest.fixture(scope="module")
def experiment(prepared):
    t0 = time.perf_counter()
    result = run_experiment(*prepared)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ablation(prepared, experiment):
    """(inherit, reinit, seconds): inherit is the experiment's own result,
    reinit one more training on the same artifacts."""
    exp, art = prepared
    t0 = time.perf_counter()
    reinit_exp = replace(exp, train=replace(exp.train, head_policy=HeadPolicy.REINIT))
    reinit = run_experiment(reinit_exp, art)
    return experiment[0], reinit, time.perf_counter() - t0


# -- criterion 1: metric oracle equivalence ------------------------------------


def test_c01_metrics_match_bruteforce_oracle(acceptance_lines):
    with criterion(acceptance_lines, 1, "ranking metrics match brute-force oracle") as info:
        rng = np.random.default_rng(101)
        worst = 0.0

        def check(report, oracle_pair):
            nonlocal worst
            mean, per_query = oracle_pair
            assert set(report.per_query) == set(per_query)
            for qid, value in per_query.items():
                err = abs(report.per_query[qid] - value)
                worst = max(worst, err)
                assert err <= 1e-12
            err = abs(report.mean - mean)
            worst = max(worst, err)
            assert err <= 1e-12

        for _ in range(1000):
            run, run_dict, qrels, qrels_dict = random_eval_instance(rng)
            check(mrr_at_k(run, qrels, 10), oracle_mrr(run_dict, qrels_dict, 10))
            check(ndcg_at_k(run, qrels, 10), oracle_ndcg(run_dict, qrels_dict, 10))
            for thr in (1, 2):
                check(
                    recall_at_k(run, qrels, 1000, binarize_threshold=thr),
                    oracle_recall(run_dict, qrels_dict, 1000, thr),
                )
        info["detail"] = f"1000 instances, max deviation {worst:.1e}"


# -- criterion 2: recall binarization -------------------------------------------


def test_c02_recall_binarization_matches_hand_counts(acceptance_lines):
    # Fixture built so grade-1 docs would change recall if they counted:
    # q1 retrieves one of its two grade-2 docs (plus two grade-1 docs),
    # q2 retrieves only a grade-1 doc and misses its grade-2 doc.
    with criterion(acceptance_lines, 2, "recall binarization threshold") as info:
        from denseprf.evaluator import Qrels

        entries = []
        for qid, docs in (("q1", ["dB", "dD", "dA"]), ("q2", ["dE"])):
            for rank, doc in enumerate(docs, start=1):
                entries.append(RunEntry(qid, doc, rank, float(10 - rank), "x"))
        run = RunList(entries)
        qrels = Qrels.from_triples([
            ("q1", "dA", 2), ("q1", "dB", 1), ("q1", "dC", 2), ("q1", "dD", 1),
            ("q2", "dE", 1), ("q2", "dF", 2),
        ])

        strict = recall_at_k(run, qrels, 10, binarize_threshold=2)
        assert strict.per_query == {"q1": 0.5, "q2": 0.0}
        assert strict.mean == 0.25
        # Default on graded qrels is the same threshold-2 rule.
        assert recall_at_k(run, qrels, 10).per_query == strict.per_query

        lenient = recall_at_k(run, qrels, 10, binarize_threshold=1)
        assert lenient.per_query == {"q1": 0.75, "q2": 0.5}
        assert lenient.mean == 0.625
        info["detail"] = "grade-1 docs excluded exactly (0.25 vs 0.625)"


# -- criterion 3: search exactness ----------------------------------------------


def test_c03_search_matches_naive_oracle(acceptance_lines):
    with criterion(acceptance_lines, 3, "exact top-k search with deterministic ties") as info:
        rng = np.random.default_rng(103)
        tie_indexes = 0
        for _ in range(200):
            n = int(rng.integers(1, 2001))
            dim = int(rng.integers(1, 65))
            vecs = rng.normal(size=(n, dim))
            if n >= 3 and rng.random() < 0.5:
                # Deliberate bitwise-equal rows so ties are exercised.
                n_dup = int(rng.integers(1, min(n, 20)))
                src = rng.integers(0, n, size=n_dup)
                dst = rng.integers(0, n, size=n_dup)
                vecs[dst] = vecs[src]
                tie_indexes += 1
            # Ids permuted against row order so tie-breaks are nontrivial.
            perm = rng.permutation(n)
            doc_ids = [f"d{int(j):04d}" for j in perm]
            index = VectorIndex.build(zip(doc_ids, vecs))
            stored = vecs.astype("<f4").astype(np.float64)
            query = rng.normal(size=dim)
            for k in (1, 10, 100):
                hits = index.search(query, k)
                expect = naive_topk(doc_ids, stored, query, k)
                assert [(h.doc_id, h.score) for h in hits] == expect
                assert [h.rank for h in hits] == list(range(1, len(expect) + 1))
        info["detail"] = f"200 indexes ({tie_indexes} with duplicated vectors), k in {{1,10,100}}"


# -- criterion 4: gradient correctness -------------------------------------------


def test_c04_gradients_match_finite_differences(acceptance_lines):
    # Central differences at step 1e-4 carry truncation noise of order
    # step^2 (~4e-9 observed), so a bare relative comparison is meaningless
    # for coordinates whose gradient sits below that noise over 1e-4.  The
    # denominator floor of 1e-3 turns the check into an absolute bound of
    # 1e-7 there, 20x above the noise and far below any term-level bug,
    # while every coordinate above the floor must meet the 1e-4 relative
    # bound outright.
    with criterion(acceptance_lines, 4, "analytic gradients match finite differences") as info:
        cfg = EncoderConfig(vocab_size=12, dim=16, layers=1, heads=2, max_len=12)
        params = init_params(cfg, seed=0, scale=0.3)
        rng = np.random.default_rng(104)
        step = 1e-4
        worst = 0.0
        for _ in range(20):
            batch = []
            for _ in range(int(rng.integers(1, 4))):
                length = int(rng.integers(2, 9))
                ids = tuple(int(x) for x in rng.integers(0, 12, size=length))
                batch.append(GradExample(
                    tokens=TokenSequence(ids=ids, policy_used=CasePolicy.PRESERVE),
                    positive=rng.normal(size=16),
                    negatives=rng.normal(size=(int(rng.integers(1, 5)), 16)),
                ))
            _, g = grad(params, batch)
            flat, gflat = params.flat, g.flat
            for name, off, shape in param_layout(cfg):
                for i in range(off, off + math.prod(shape)):
                    orig = flat[i]
                    flat[i] = orig + step
                    up = batch_loss(params, batch)
                    flat[i] = orig - step
                    down = batch_loss(params, batch)
                    flat[i] = orig
                    fd = (up - down) / (2 * step)
                    analytic = gflat[i]
                    rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3)
                    worst = max(worst, rel)
                    assert rel <= 1e-4, f"{name}[{i - off}]: {analytic} vs {fd}"
        info["detail"] = f"every coordinate, 20 batches, max rel err {worst:.1e}"


# -- criterion 5: loss closed form -----------------------------------------------


def test_c05_uniform_score_loss_closed_form(acceptance_lines):
    def nce_loss(q, pos, negs):
        return nce_terms(np.array([pos @ q, *(np.asarray(negs) @ q)]))[0]

    with criterion(acceptance_lines, 5, "uniform-score loss closed form") as info:
        rng = np.random.default_rng(105)
        worst = 0.0
        for n in (1, 8, 21):
            expected = math.log1p(float(n))
            # Zero query: every inner product is exactly 0.
            zero_q = np.zeros(6)
            loss = nce_loss(zero_q, rng.normal(size=6), list(rng.normal(size=(n, 6))))
            worst = max(worst, abs(loss - expected))
            # Identical documents: equal nonzero scores.
            doc = rng.normal(size=6)
            loss = nce_loss(rng.normal(size=6), doc, [doc] * n)
            worst = max(worst, abs(loss - expected))
        assert worst <= 1e-12
        info["detail"] = f"ln(1+n) for n in {{1,8,21}}, max deviation {worst:.1e}"


# -- criterion 6: accumulation equivalence ---------------------------------------


def _accum_params():
    cfg = EncoderConfig(vocab_size=12, dim=8, layers=1, heads=2, max_len=12)
    return init_params(cfg, seed=3, scale=0.3)


def _accum_examples(rng, doc_ids, n):
    """n queries with 3-doc pools: drawing 3 negatives returns the sorted pool."""
    rows = []
    for _ in range(n):
        picks = rng.choice(len(doc_ids), size=4, replace=False)
        ids = tuple(int(x) for x in rng.integers(0, 12, size=int(rng.integers(2, 8))))
        rows.append((
            TokenSequence(ids=ids, policy_used=CasePolicy.PRESERVE),
            doc_ids[picks[0]],
            tuple(doc_ids[j] for j in picks[1:]),
            frozenset([doc_ids[picks[0]]]),
        ))
    return TrainingSet(tuple(range(n)), *map(tuple, zip(*rows)))


def test_c06_accumulation_equals_large_batch(acceptance_lines):
    with criterion(acceptance_lines, 6, "gradient accumulation equivalence") as info:
        rng = np.random.default_rng(106)
        vecs = rng.normal(size=(40, 8))
        doc_ids = [f"d{i:03d}" for i in range(40)]
        index = VectorIndex.build(zip(doc_ids, vecs))
        base = _accum_params()
        examples = _accum_examples(rng, doc_ids, 32)
        common = dict(optimizer="adamw", learning_rate=1e-3, epochs=1, seed=5,
                      negatives_per_query=3)
        params_a, log_a = train(
            examples, base, index,
            TrainConfig(batch_size=4, grad_accum_steps=8, **common), 0)
        params_b, log_b = train(
            examples, base, index,
            TrainConfig(batch_size=32, grad_accum_steps=1, **common), 0)
        assert len(log_a) == len(log_b) == 1
        assert np.allclose(params_a.flat, params_b.flat, rtol=0, atol=1e-10)
        assert abs(log_a[0].loss - log_b[0].loss) <= 1e-10

        gap = float(np.max(np.abs(params_a.flat - params_b.flat)))
        info["detail"] = f"batch 4 x accum 8 vs batch 32, max param gap {gap:.1e}"


# -- criterion 7: casing sensitivity localizes to feedback composition -----------


def test_c07_casing_localizes_to_feedback_round(acceptance_lines, tmp_path):
    with criterion(acceptance_lines, 7, "casing differences localize to feedback composition") as info:
        cfg = SynthConfig(
            topics=4, docs_per_topic=15, train_queries=8, eval_queries=8,
            core_words_per_topic=6, background_words=40, core_per_doc=(3, 5),
            uppercase_fraction=0.3, seed=3,
        )
        task = generate(cfg)
        assert any(t != t.lower() for t in task.corpus.values())
        assert all(t == t.lower() for _, t in task.eval_queries)

        def path(name):
            return str(tmp_path / name)

        (tmp_path / "corpus.tsv").write_text(
            "".join(f"{d}\t{t}\n" for d, t in task.corpus.items()))
        (tmp_path / "queries.tsv").write_text(
            "".join(f"{q}\t{t}\n" for q, t in task.eval_queries))

        def cli(*args):
            assert main(list(args)) == 0

        cli("build-vocab", "--corpus", path("corpus.tsv"), "--vocab", path("vocab.txt"))
        cli("init-params", "--vocab", path("vocab.txt"), "--params", path("base.enc"),
            "--dim", "16", "--layers", "1", "--heads", "2", "--max-len", "64")
        cli("encode-corpus", "--vocab", path("vocab.txt"), "--params", path("base.enc"),
            "--corpus", path("corpus.tsv"), "--index", path("docs.idx"))
        for case in ("preserve", "lower"):
            cli("search", "--vocab", path("vocab.txt"), "--params", path("base.enc"),
                "--index", path("docs.idx"), "--queries", path("queries.tsv"),
                "--run", path(f"base_{case}.run"), "--case", case)
            cli("search-prf", "--vocab", path("vocab.txt"), "--params", path("base.enc"),
                "--prf-params", path("base.enc"), "--index", path("docs.idx"),
                "--corpus", path("corpus.tsv"), "--queries", path("queries.tsv"),
                "--run", path(f"prf_{case}.run"), "--case", case)

        base_pair = [(tmp_path / f"base_{c}.run").read_bytes() for c in ("preserve", "lower")]
        prf_pair = [(tmp_path / f"prf_{c}.run").read_bytes() for c in ("preserve", "lower")]
        assert base_pair[0] == base_pair[1]
        assert prf_pair[0] != prf_pair[1]
        info["detail"] = "first-round runs byte-identical, feedback runs differ"


# -- criterion 8: synthetic end-to-end improvement --------------------------------


def test_c08_synthetic_end_to_end_improvement(acceptance_lines, experiment):
    result, secs = experiment
    with criterion(acceptance_lines, 8, "synthetic end-to-end improvement") as info:
        losses = result.epoch_losses
        first, final = losses[min(losses)], losses[max(losses)]
        assert final < first
        assert result.prf_mrr >= result.round1_mrr
        info["detail"] = (
            f"MRR@10 {result.round1_mrr:.4f} -> {result.prf_mrr:.4f}"
            f" (gap {result.mrr_gap:+.4f}), epoch loss {first:.4f} -> {final:.4f},"
            f" experiment ran in {secs:.0f}s"
        )


# -- criterion 9: head-inheritance ablation ---------------------------------------


def test_c09_head_inheritance_ablation(acceptance_lines, ablation):
    inherit, reinit, secs = ablation
    with criterion(acceptance_lines, 9, "head-inheritance ablation") as info:
        # Hard assertion: step-0 retrieval identity holds only for the
        # inherited head.  The trained-MRR direction is reported, not asserted.
        assert inherit.step0_matches_base is True
        assert reinit.step0_matches_base is False
        direction = "holds" if inherit.prf_mrr >= reinit.prf_mrr else "REVERSED"
        info["detail"] = (
            f"step-0 identity inherit/reinit ok; final MRR@10 inherit"
            f" {inherit.prf_mrr:.4f} vs reinit {reinit.prf_mrr:.4f}"
            f" (direction {direction}), reinit arm ran in {secs:.0f}s"
        )


# -- criterion 10: paired t-test oracle --------------------------------------------


def test_c10_paired_t_test_oracle(acceptance_lines):
    with criterion(acceptance_lines, 10, "paired t-test oracle") as info:
        system_a = {"q1": 0.3, "q2": 0.5, "q3": 0.8, "q4": 0.9}
        system_b = {"q1": 0.2, "q2": 0.3, "q3": 0.5, "q4": 0.5}
        t, p, n = paired_t_test(system_a, system_b)
        assert n == 4
        assert abs(t - 3.872983) <= 1e-5
        assert abs(p - 0.030466) <= 1e-5
        ref = scipy.stats.ttest_rel(
            [system_a[q] for q in sorted(system_a)],
            [system_b[q] for q in sorted(system_b)],
        )
        assert abs(t - ref.statistic) <= 1e-10
        assert abs(p - ref.pvalue) <= 1e-8
        info["detail"] = f"t={t:.6f} p={p:.6f} vs independent oracle"


# -- criterion 11: index immutability ----------------------------------------------


def test_c11_index_unchanged_by_feedback_rounds(acceptance_lines, experiment):
    result, _ = experiment
    with criterion(acceptance_lines, 11, "index immutable across feedback rounds") as info:
        assert result.checksum_before == result.checksum_after
        info["detail"] = f"checksum {result.checksum_after:016x} unchanged over 50 queries"


# -- criterion 12: two-pass call shape ----------------------------------------------


def test_c12_two_encodes_two_searches_per_query(acceptance_lines, experiment):
    result, _ = experiment
    with criterion(acceptance_lines, 12, "two encode and two search calls per feedback query") as info:
        n_queries = len(result.prf_run.by_query())
        assert n_queries == 50
        assert result.counters.encode_calls == 2 * n_queries
        assert result.counters.search_calls == 2 * n_queries
        info["detail"] = (
            f"{result.counters.encode_calls} encodes,"
            f" {result.counters.search_calls} searches for {n_queries} queries"
        )
