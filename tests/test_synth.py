import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from denseprf.encoder import EncoderConfig, init_params
from denseprf.synth import (
    ExperimentConfig,
    SynthConfig,
    cluster_token_embeddings,
    generate,
)
from denseprf.tokenizer import build_vocab, split_text

SMALL = SynthConfig(
    topics=4,
    docs_per_topic=12,
    train_queries=16,
    eval_queries=8,
    core_words_per_topic=6,
    background_words=40,
    core_per_doc=(3, 5),
)


def test_generate_is_deterministic():
    a = generate(SMALL)
    b = generate(SMALL)
    assert a.corpus == b.corpus
    assert a.train_queries == b.train_queries
    assert a.eval_queries == b.eval_queries
    assert a.train_qrels == b.train_qrels
    c = generate(SynthConfig(**{**SMALL.__dict__, "seed": 9}))
    assert c.corpus != a.corpus


def test_generate_shapes():
    task = generate(SMALL)
    assert len(task.corpus) == 4 * 12
    assert len(task.train_queries) == 16
    assert len(task.eval_queries) == 8
    assert set(task.doc_topics.values()) == {0, 1, 2, 3}
    assert all(len(pool) == 6 for pool in task.core_pools.values())
    assert len(task.background) == 40
    assert [qid for qid, _ in task.train_queries] == [
        f"qt{i:03d}" for i in range(16)
    ]
    assert [qid for qid, _ in task.eval_queries] == [f"qe{i:03d}" for i in range(8)]


def test_word_pools_are_disjoint():
    task = generate(SMALL)
    seen = set()
    for pool in task.core_pools.values():
        assert not (set(pool) & seen)
        seen |= set(pool)
    assert not (set(task.background) & seen)


def test_doc_composition():
    task = generate(SMALL)
    for did, text in task.corpus.items():
        words = text.split()
        topic = task.doc_topics[did]
        cores = [w for w in words if w in set(task.core_pools[topic])]
        bgs = [w for w in words if w in set(task.background)]
        assert 3 <= len(cores) <= 5
        assert 7 <= len(bgs) <= 12
        assert len(cores) + len(bgs) == len(words)


def test_query_words_and_relevance_rule():
    task = generate(SMALL)
    all_cores = {w: t for t, pool in task.core_pools.items() for w in pool}
    doc_sets = {d: set(text.split()) for d, text in task.corpus.items()}
    for qid, text in task.train_queries:
        words = text.split()
        assert len(words) == 3
        core_words = [w for w in words if w in all_cores]
        assert len(core_words) == 2
        topic = all_cores[core_words[0]]
        assert all(all_cores[w] == topic for w in core_words)

        positives = task.train_qrels.positives(qid, 1)
        assert positives  # the seed document always qualifies
        seeds = [d for d, g in positives.items() if g == 2]
        assert len(seeds) == 1
        for did, grade in positives.items():
            assert task.doc_topics[did] == topic
            assert set(core_words) <= doc_sets[did]
        # every same-topic doc containing all core query words is judged
        for did, t in task.doc_topics.items():
            if t == topic and set(core_words) <= doc_sets[did]:
                assert did in positives


def test_grades_are_binary_plus_seed():
    task = generate(SMALL)
    grades = set(task.train_qrels.judgments.values())
    assert grades <= {1, 2}


def test_lowercase_task_by_default():
    task = generate(SMALL)
    for text in task.corpus.values():
        assert text == text.lower()


def test_uppercase_fraction_mixes_case():
    cfg = SynthConfig(**{**SMALL.__dict__, "uppercase_fraction": 0.4})
    task = generate(cfg)
    texts = " ".join(task.corpus.values())
    words = texts.split()
    upper = [w for w in words if w[0].isupper()]
    assert 0.2 * len(words) < len(upper) < 0.6 * len(words)
    # queries stay lowercase so first-round behavior is policy-free
    for _, text in task.train_queries + task.eval_queries:
        assert text == text.lower()
    # lowering the surface recovers the default corpus content
    plain = generate(SMALL)
    for did, text in task.corpus.items():
        assert text.lower() == plain.corpus[did]


def test_config_validation():
    with pytest.raises(ValueError, match="word inventory exhausted"):
        SynthConfig(topics=100, core_words_per_topic=40, background_words=400)
    with pytest.raises(ValueError, match="query core words"):
        SynthConfig(query_core_words=6, core_per_doc=(5, 9))
    with pytest.raises(ValueError, match="query background words"):
        SynthConfig(query_background_words=8, background_per_doc=(7, 12))
    with pytest.raises(ValueError, match="uppercase_fraction"):
        SynthConfig(uppercase_fraction=1.5)
    with pytest.raises(ValueError, match="core_per_doc exceeds topic pool"):
        SynthConfig(core_words_per_topic=6, core_per_doc=(3, 7))
    with pytest.raises(ValueError, match="background_per_doc exceeds background pool"):
        SynthConfig(background_words=10, background_per_doc=(7, 12))


# -- embedding layout ---------------------------------------------------------


def vocab_and_params(task, dim=16):
    vocab = build_vocab(task.corpus.values())
    cfg = EncoderConfig(vocab_size=len(vocab), dim=dim, layers=1, heads=2,
                        max_len=32)
    return vocab, init_params(cfg, seed=0, scale=0.05)


def test_cluster_embeddings_group_topics():
    task = generate(SMALL)
    vocab, params = vocab_and_params(task)
    shaped = cluster_token_embeddings(params, vocab, task, SMALL)

    def centroid(words):
        return np.mean([shaped.tok_emb[vocab.id_of(w)] for w in words], axis=0)

    for t, pool in task.core_pools.items():
        mid = centroid(pool)
        spread = np.mean([
            np.linalg.norm(shaped.tok_emb[vocab.id_of(w)] - mid) for w in pool
        ])
        others = [
            np.linalg.norm(centroid(task.core_pools[u]) - mid)
            for u in task.core_pools if u != t
        ]
        # within-topic spread is small next to between-topic distances
        assert spread < min(others)


def test_cluster_embeddings_only_touch_token_table():
    task = generate(SMALL)
    vocab, params = vocab_and_params(task)
    shaped = cluster_token_embeddings(params, vocab, task, SMALL)
    assert shaped is not params
    assert np.array_equal(shaped.pos_emb, params.pos_emb)
    assert np.array_equal(shaped.layers[0].wq, params.layers[0].wq)
    assert np.array_equal(shaped.head.w, params.head.w)
    # special tokens keep their original embeddings
    for tok_id in range(7):
        assert np.array_equal(shaped.tok_emb[tok_id], params.tok_emb[tok_id])


def test_cluster_embeddings_case_variants_share_centroid():
    # Build one mixed-case and one lowercase task from the same seed: the
    # lowercase forms must land on identical vectors in both, and a case
    # variant must sit near (not on) its lowercase twin.
    cfg_mixed = SynthConfig(**{**SMALL.__dict__, "uppercase_fraction": 0.5})
    task_plain = generate(SMALL)
    task_mixed = generate(cfg_mixed)
    vocab_plain, params_plain = vocab_and_params(task_plain)
    vocab_mixed, params_mixed = vocab_and_params(task_mixed)
    shaped_plain = cluster_token_embeddings(
        params_plain, vocab_plain, task_plain, SMALL
    )
    shaped_mixed = cluster_token_embeddings(
        params_mixed, vocab_mixed, task_mixed, cfg_mixed
    )

    word = task_plain.core_pools[0][0]
    vec_plain = shaped_plain.tok_emb[vocab_plain.id_of(word)]
    vec_mixed = shaped_mixed.tok_emb[vocab_mixed.id_of(word)]
    # identical rng consumption regardless of which surfaces are in vocab
    assert np.array_equal(vec_plain, vec_mixed)

    cap = word.capitalize()
    assert cap in vocab_mixed
    vec_cap = shaped_mixed.tok_emb[vocab_mixed.id_of(cap)]
    assert not np.array_equal(vec_cap, vec_mixed)
    # jitter distance is small compared to the centroid scale
    assert np.linalg.norm(vec_cap - vec_mixed) < np.linalg.norm(vec_mixed)


def test_experiment_config_with_seed():
    exp = ExperimentConfig()
    reseeded = exp.with_seed(123)
    assert reseeded.seed == 123
    assert reseeded.synth.seed != exp.synth.seed
    assert reseeded.train.seed != exp.train.seed
    assert reseeded.synth.topics == exp.synth.topics
    assert reseeded.train.epochs == exp.train.epochs
    again = exp.with_seed(123)
    assert again == reseeded


def test_query_text_tokenizes_cleanly():
    task = generate(SMALL)
    vocab = build_vocab(task.corpus.values())
    for _, text in task.eval_queries:
        for tok in split_text(text):
            assert tok in vocab


def test_synthetic_experiment_script_smoke(monkeypatch, capsys):
    # One epoch keeps it to a few seconds; round one, the step-0 readout and
    # the index do not depend on training.
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--seed", "0", "--epochs", "1"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed 0: 30 topics, 3000 docs, 200 train / 50 eval queries"
    assert "first-round MRR@10: 0.6678" in lines
    assert "step-0 feedback MRR@10 (untrained encoder): 0.6774" in lines
    assert lines[-1] == "index checksum: 00db76a86ac4d41a"
