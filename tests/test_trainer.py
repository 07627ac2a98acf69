import hashlib
import math

import numpy as np
import pytest

import denseprf.trainer as trainer_module
from denseprf.composer import PrfDepth, PrfTemplate, TemplateKind
from denseprf.encoder import (
    EncoderConfig,
    EncoderParams,
    GradExample,
    HeadPolicy,
    grad,
    init_params,
    init_prf_encoder,
    nce_terms,
    param_layout,
)
from denseprf.evaluator import Qrels
from denseprf.index import VectorIndex
from denseprf.pipeline import encode_corpus, first_round, search_run
from denseprf.tokenizer import CasePolicy, TokenSequence, build_vocab
from denseprf.trainer import (
    OptimizerState,
    TrainConfig,
    TrainingSet,
    TrainLogEntry,
    derive_seed,
    epoch_mean_losses,
    optimizer_step,
    prepare_training_queries,
    sample_negatives,
    train,
    train_prf,
    write_log_csv,
)

from oracles import nce_loss_scalar

DIM = 8


def seq(*ids):
    return TokenSequence(ids=tuple(ids), policy_used=CasePolicy.PRESERVE)


def small_params(seed=3):
    cfg = EncoderConfig(vocab_size=12, dim=DIM, layers=1, heads=2, max_len=12)
    return init_params(cfg, seed=seed, scale=0.3)


def doc_ids(n):
    return [f"d{i:03d}" for i in range(n)]


def small_index(rng, n=40):
    vecs = rng.normal(size=(n, DIM))
    return VectorIndex.build(zip(doc_ids(n), vecs))


NEG = 3  # every test pool holds exactly NEG docs, so each draw is the sorted pool


def training_set(rows):
    """TrainingSet from (sequence, positive, pool, judged) rows at positions 0..n-1."""
    columns = list(zip(*rows)) or [()] * 4
    return TrainingSet(tuple(range(len(rows))), *map(tuple, columns))


def make_examples(rng, index, n):
    docs = doc_ids(len(index))
    rows = []
    for _ in range(n):
        picks = rng.choice(len(docs), size=NEG + 1, replace=False)
        length = int(rng.integers(2, 8))
        ids = rng.integers(0, 12, size=length)
        positive = docs[picks[0]]
        pool = tuple(docs[j] for j in picks[1:])
        rows.append((seq(*ids.tolist()), positive, pool, frozenset([positive])))
    return training_set(rows)


# -- config --------------------------------------------------------------------


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.optimizer == "adamw"
    assert cfg.learning_rate == 1e-5
    assert cfg.batch_size == 32
    assert cfg.grad_accum_steps == 1
    assert cfg.epochs == 10
    assert cfg.negatives_per_query == 21
    assert cfg.negative_pool_depth == 200
    assert cfg.in_batch_negatives is False
    assert cfg.head_policy is HeadPolicy.INHERIT


def test_train_config_validation():
    with pytest.raises(ValueError, match="unknown optimizer: sgd"):
        TrainConfig(optimizer="sgd")
    for bad in (-1e-4, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match=r"negative_pool_depth \(4\) must be"
                                         r" >= negatives_per_query \(5\)"):
        TrainConfig(negatives_per_query=5, negative_pool_depth=4)
    TrainConfig(learning_rate=0.0)  # explicit no-op rate is legal


def test_train_config_from_dict():
    cfg = TrainConfig.from_dict({"optimizer": "lamb", "head_policy": "reinit"})
    assert cfg.optimizer == "lamb"
    assert cfg.head_policy is HeadPolicy.REINIT
    with pytest.raises(ValueError, match="unknown train config key: momentum"):
        TrainConfig.from_dict({"momentum": 0.9})
    with pytest.raises(ValueError, match="train config key batch_size must be int"):
        TrainConfig.from_dict({"batch_size": 4.0})
    for bad in ([], [["epochs", 2]]):
        with pytest.raises(ValueError, match="train config must be a JSON object"):
            TrainConfig.from_dict(bad)


def test_training_set_rejects_judged_docs_in_pools():
    def one(positive, pool, judged):
        return TrainingSet((0,), (seq(0, 1),), (positive,), (pool,), (frozenset(judged),))

    with pytest.raises(ValueError, match="negative pool holds a judged doc"):
        one("d1", ("d2", "d1"), {"d1"})
    with pytest.raises(ValueError, match="negative pool holds a judged doc"):
        one("d1", ("d2", "d3"), {"d1", "d3"})
    with pytest.raises(ValueError, match="positive not among judged docs: d1"):
        one("d1", ("d2",), {"d3"})
    with pytest.raises(ValueError, match="training set fields differ in length"):
        TrainingSet((0, 1), (seq(0, 1),), ("d1",), (("d2",),), (frozenset({"d1"}),))


# -- seeds ----------------------------------------------------------------------


def test_derive_seed_properties():
    a = derive_seed(7, 1)
    assert a == derive_seed(7, 1)
    assert 0 <= a < 2 ** 64
    assert derive_seed(7, 2) != a
    assert derive_seed(8, 1) != a
    assert derive_seed(7, 1, 0) != derive_seed(7, 1, 1)


# -- loss ------------------------------------------------------------------------


def nce_loss(q, pos, negs):
    return nce_terms(np.array([pos @ q, *(np.asarray(negs) @ q)]))[0]


def test_nce_loss_equal_scores_is_ln2():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    pos = np.array([0.5, 0.0, 0.0, 0.0])
    neg = np.array([0.5, 1.0, 0.0, 0.0])  # same inner product with q
    assert abs(nce_loss(q, pos, [neg]) - np.log(2.0)) <= 1e-12


def test_nce_loss_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.normal(size=6)
        pos = rng.normal(size=6)
        negs = rng.normal(size=(4, 6))
        ref = nce_loss_scalar(float(pos @ q), [float(n @ q) for n in negs])
        assert abs(nce_loss(q, pos, negs) - ref) <= 1e-12


# -- negative sampling -------------------------------------------------------------


PREP_CORPUS = {
    f"d{i:02d}": text for i, text in enumerate([
        "red apple tree", "green apple pie", "red cherry tree", "blue sky above",
        "green grass field", "blue ocean wave", "red brick wall", "apple orchard field",
        "cherry pie recipe", "ocean tree island", "sky wall art", "grass pie contest",
    ])
}


@pytest.fixture(scope="module")
def prep():
    """Vocab, base params and index over PREP_CORPUS."""
    vocab = build_vocab(PREP_CORPUS.values())
    base = init_params(EncoderConfig(len(vocab), DIM, 1, 2, 32), seed=3, scale=0.3)
    return vocab, base, encode_corpus(PREP_CORPUS, vocab, base, CasePolicy.PRESERVE)


def prepare(prep, queries, qrels, pool_depth):
    vocab, base, index = prep
    return prepare_training_queries(
        vocab, base, index, PREP_CORPUS, queries, qrels, CasePolicy.PRESERVE,
        PrfDepth(2), PrfTemplate(TemplateKind.ANCE, max_len=32), pool_depth)


def ranked(prep, text, k):
    vocab, base, index = prep
    return [r.doc_id for r in first_round(text, vocab, base, index, k, CasePolicy.PRESERVE)]


def test_sample_negatives_excludes_judged(prep):
    top = ranked(prep, "red tree", 6)
    qrels = Qrels.from_triples(
        [("q1", top[0], 2), ("q1", top[3], 1), ("q1", top[1], 0)])
    data = prepare(prep, [("q1", "red tree")], qrels, pool_depth=6)
    assert data.positives == (top[0],)
    assert data.relevant == (frozenset({top[0], top[3]}),)
    pool = (top[1], top[2], top[4], top[5])  # grade 0 is not judged relevant
    assert data.pools == (pool,)
    assert sample_negatives(pool, 4, seed=0) == sorted(pool)  # exact pool: sorted


def test_sample_negatives_random_subset():
    pool = tuple(f"d{i}" for i in range(1, 20))
    got = sample_negatives(pool, 5, seed=4)
    assert len(got) == len(set(got)) == 5
    assert set(got) <= set(pool)
    assert got == sample_negatives(pool, 5, seed=4)
    assert got != sample_negatives(pool, 5, seed=5)


def test_sample_negatives_respects_pool_depth(prep):
    top = ranked(prep, "red tree", 10)
    qrels = Qrels.from_triples([("q1", top[9], 1)])
    data = prepare(prep, [("q1", "red tree")], qrels, pool_depth=4)
    assert data.pools == (tuple(top[:4]),)
    for seed in range(10):
        assert set(sample_negatives(data.pools[0], 3, seed=seed)) <= set(top[:4])


def test_sample_negatives_errors():
    with pytest.raises(ValueError, match="insufficient negatives"):
        sample_negatives(("b", "c"), 3, seed=0)


# -- optimizer ----------------------------------------------------------------------


def zeros_like_params(params):
    return EncoderParams(params.config, np.zeros_like(params.flat))


def single_weight_setup(value, grad_value):
    """Params with every tensor zeroed except tok_emb[0,0]; matching grads."""
    params = zeros_like_params(small_params())
    params.tok_emb[0, 0] = value
    grads = zeros_like_params(params)
    grads.tok_emb[0, 0] = grad_value
    return params, grads


def test_adamw_first_step_hand_value():
    # From zero weight with unit gradient, bias-corrected moments cancel to 1
    # and the first AdamW step is exactly -lr / (1 + eps).
    params, grads = single_weight_setup(0.0, 1.0)
    cfg = TrainConfig(learning_rate=0.1)
    state = OptimizerState.for_params(params)
    state, new = optimizer_step(state, params, grads, cfg)
    assert abs(new.tok_emb[0, 0] - (-0.1 / (1.0 + 1e-6))) <= 1e-12
    assert state.step == 1


def test_adamw_weight_decay_is_decoupled():
    params, grads = single_weight_setup(2.0, 0.0)
    cfg = TrainConfig(learning_rate=0.1)
    state = OptimizerState.for_params(params)
    _, new = optimizer_step(state, params, grads, cfg)
    # zero gradient: only the decay term -lr * wd * w moves the weight
    assert abs(new.tok_emb[0, 0] - (2.0 - 0.1 * 0.01 * 2.0)) <= 1e-12


def test_zero_grad_zero_decay_is_identity():
    params = small_params()
    grads = zeros_like_params(params)
    cfg = TrainConfig(learning_rate=0.1)
    state = OptimizerState.for_params(params, weight_decay=0.0)
    _, new = optimizer_step(state, params, grads, cfg)
    assert np.array_equal(params.flat, new.flat)


def test_zero_learning_rate_is_bitwise_noop():
    params = small_params()
    rng = np.random.default_rng(0)
    grads = zeros_like_params(params)
    grads.tok_emb[:] = rng.normal(size=grads.tok_emb.shape)
    cfg = TrainConfig(learning_rate=0.0)
    state = OptimizerState.for_params(params)
    new_state, new = optimizer_step(state, params, grads, cfg)
    assert np.array_equal(params.flat, new.flat)
    assert new_state.step == 1  # moments still advance


def test_lamb_zero_weight_norm_falls_back_to_adamw():
    params, grads = single_weight_setup(0.0, 1.0)
    state = OptimizerState.for_params(params)
    _, lamb_new = optimizer_step(state, params, grads, TrainConfig(
        optimizer="lamb", learning_rate=0.1))
    state2 = OptimizerState.for_params(params)
    _, adamw_new = optimizer_step(state2, params, grads, TrainConfig(
        learning_rate=0.1))
    assert np.array_equal(lamb_new.flat, adamw_new.flat)


def test_lamb_trust_ratio_matches_adamw_rescale():
    params = small_params()
    rng = np.random.default_rng(1)
    grads = EncoderParams(params.config, rng.normal(scale=0.01, size=params.flat.size))
    lr = 0.1
    _, adamw_new = optimizer_step(
        OptimizerState.for_params(params), params, grads,
        TrainConfig(learning_rate=lr))
    _, lamb_new = optimizer_step(
        OptimizerState.for_params(params), params, grads,
        TrainConfig(optimizer="lamb", learning_rate=lr))
    for name, off, shape in param_layout(params.config):
        seg = slice(off, off + math.prod(shape))
        w, aw, lw = params.flat[seg], adamw_new.flat[seg], lamb_new.flat[seg]
        upd = (w - aw) / lr
        wn = float(np.linalg.norm(w))
        un = float(np.linalg.norm(upd))
        trust = 1.0 if wn == 0.0 or un == 0.0 else min(wn / un, 10.0)
        assert np.allclose(lw, w - lr * trust * upd, rtol=0, atol=1e-12), name


def test_lamb_trust_ratio_clips_at_ten():
    params, grads = single_weight_setup(1e6, 1.0)
    cfg = TrainConfig(optimizer="lamb", learning_rate=0.1)
    state = OptimizerState.for_params(params)
    _, new = optimizer_step(state, params, grads, cfg)
    # unclipped trust would be ~1e5; the step must use exactly 10
    upd = 1.0 / (1.0 + 1e-6) + 0.01 * 1e6
    assert abs(new.tok_emb[0, 0] - (1e6 - 0.1 * 10.0 * upd)) <= 1e-6


def test_optimizer_rejects_non_finite_grads():
    params = small_params()
    grads = zeros_like_params(params)
    grads.pos_emb[0, 0] = np.inf
    cfg = TrainConfig()
    state = OptimizerState.for_params(params)
    with pytest.raises(ValueError, match="non-finite gradient: pos_emb"):
        optimizer_step(state, params, grads, cfg)


def test_optimizer_moments_accumulate_across_steps():
    params, grads = single_weight_setup(0.0, 1.0)
    cfg = TrainConfig(learning_rate=0.01)
    state = OptimizerState.for_params(params)
    for expected_step in (1, 2, 3):
        state, params = optimizer_step(state, params, grads, cfg)
        assert state.step == expected_step
    assert EncoderParams(params.config, state.m).tok_emb[0, 0] > 0.0
    assert params.tok_emb[0, 0] < 0.0


# -- train loop ----------------------------------------------------------------------


def test_accumulation_matches_large_batch():
    rng = np.random.default_rng(9)
    index = small_index(rng)
    base = small_params()
    examples = make_examples(rng, index, 32)
    common = dict(optimizer="adamw", learning_rate=1e-3, epochs=1, seed=5,
                  negatives_per_query=NEG)
    params_a, log_a = train(
        examples, base, index,
        TrainConfig(batch_size=4, grad_accum_steps=8, **common), 0)
    params_b, log_b = train(
        examples, base, index,
        TrainConfig(batch_size=32, grad_accum_steps=1, **common), 0)
    assert len(log_a) == len(log_b) == 1
    assert np.allclose(params_a.flat, params_b.flat, rtol=0, atol=1e-10)
    assert abs(log_a[0].loss - log_b[0].loss) <= 1e-10


def test_lamb_steps_golden_digest():
    # Three LAMB steps on fixed gradients, no BLAS product involved: pins the
    # optimizer arithmetic bit for bit under every CPU kernel.
    params = init_params(EncoderConfig(20, 8, 1, 2, 12), seed=3, scale=0.3)
    rng = np.random.default_rng(9)
    cfg = TrainConfig(optimizer="lamb", learning_rate=1e-3)
    state = OptimizerState.for_params(params)
    for _ in range(3):
        grads = EncoderParams(params.config, rng.normal(size=params.flat.shape))
        state, params = optimizer_step(state, params, grads, cfg)
    digest = hashlib.blake2b(params.flat.tobytes(), digest_size=16).hexdigest()
    assert digest == "71da45a18341d463eb6a6d4f5e0295f2"


def test_lamb_accumulation_matches_hand_loop():
    # train with accumulation 3, 3, then a ragged 2 equals averaging grad
    # outputs by hand and stepping on the mean, bit for bit.
    rng = np.random.default_rng(9)
    index = small_index(rng)
    base = small_params()
    examples = make_examples(rng, index, 32)
    cfg = TrainConfig(optimizer="lamb", learning_rate=1e-3, batch_size=4,
                      grad_accum_steps=3, epochs=1, seed=5, negatives_per_query=NEG)
    trained, log = train(examples, base, index, cfg, 0)

    order = np.random.default_rng([cfg.seed, 0]).permutation(len(examples))
    micro = [order[s:s + 4] for s in range(0, 32, 4)]
    params = init_prf_encoder(base, cfg.head_policy, cfg.seed)
    state = OptimizerState.for_params(params)
    losses = []
    for group in (micro[:3], micro[3:6], micro[6:]):
        acc, group_losses = None, []
        for batch in group:
            loss, g = grad(params, [
                GradExample(
                    examples.sequences[i],
                    index.vector(examples.positives[i]),
                    np.stack([index.vector(d) for d in sorted(examples.pools[i])]),
                )
                for i in batch
            ])
            acc = g.flat if acc is None else acc + g.flat
            group_losses.append(loss)
        acc *= 1.0 / len(group)
        state, params = optimizer_step(
            state, params, EncoderParams(params.config, acc), cfg)
        losses.append(float(np.mean(group_losses)))
    assert [e.loss for e in log] == losses
    assert np.array_equal(trained.flat, params.flat)


def test_train_is_deterministic_for_seed():
    rng = np.random.default_rng(10)
    index = small_index(rng)
    base = small_params()
    examples = make_examples(rng, index, 8)
    cfg = TrainConfig(batch_size=3, learning_rate=1e-3, epochs=2, seed=1,
                      negatives_per_query=NEG)
    params_a, log_a = train(examples, base, index, cfg, 0)
    params_b, log_b = train(examples, base, index, cfg, 0)
    assert np.array_equal(params_a.flat, params_b.flat)
    assert log_a == log_b
    cfg2 = TrainConfig(batch_size=3, learning_rate=1e-3, epochs=2, seed=2,
                       negatives_per_query=NEG)
    params_c, _ = train(examples, base, index, cfg2, 0)
    assert not np.array_equal(params_a.flat, params_c.flat)


def test_train_log_shape_with_ragged_accumulation():
    rng = np.random.default_rng(11)
    index = small_index(rng)
    base = small_params()
    examples = make_examples(rng, index, 10)
    cfg = TrainConfig(batch_size=4, grad_accum_steps=2, learning_rate=1e-3,
                      epochs=2, seed=0, negatives_per_query=NEG)
    _, log = train(examples, base, index, cfg, 0)
    # 10 examples -> microbatches of 4,4,2 -> steps at accum 2 then a ragged
    # flush of one microbatch, per epoch
    assert [e.step for e in log] == [1, 2, 3, 4]
    assert [e.epoch for e in log] == [0, 0, 1, 1]
    assert all(e.lr == 1e-3 for e in log)
    assert all(np.isfinite(e.loss) for e in log)


def test_train_loss_decreases_with_aggressive_rate():
    rng = np.random.default_rng(13)
    index = small_index(rng)
    base = small_params()
    examples = make_examples(rng, index, 6)
    cfg = TrainConfig(batch_size=6, epochs=30, learning_rate=1e-2, seed=0,
                      negatives_per_query=NEG)
    _, log = train(examples, base, index, cfg, 0)
    means = epoch_mean_losses(log)
    assert means[max(means)] < means[min(means)]


def test_train_reinit_head_changes_start():
    rng = np.random.default_rng(14)
    index = small_index(rng)
    base = small_params()
    examples = make_examples(rng, index, 4)
    cfg = TrainConfig(batch_size=4, epochs=1, learning_rate=0.0, seed=3,
                      negatives_per_query=NEG, head_policy=HeadPolicy.REINIT)
    params, _ = train(examples, base, index, cfg, 0)
    assert not np.array_equal(params.head.w, base.head.w)
    assert np.array_equal(params.tok_emb, base.tok_emb)  # lr 0: body untouched


def test_in_batch_negatives_change_loss():
    rng = np.random.default_rng(15)
    index = small_index(rng)
    base = small_params()
    examples = make_examples(rng, index, 4)
    kwargs = dict(batch_size=4, epochs=1, learning_rate=1e-4, seed=0,
                  negatives_per_query=NEG)
    _, log_off = train(examples, base, index, TrainConfig(**kwargs), 0)
    _, log_on = train(examples, base, index,
                      TrainConfig(in_batch_negatives=True, **kwargs), 0)
    assert log_off[0].loss != log_on[0].loss


def test_in_batch_negatives_skip_a_shared_positive():
    # Two queries judged on the same doc: in-batch negatives must not score
    # an example's own positive as a negative, so here they add nothing.
    rng = np.random.default_rng(19)
    index = small_index(rng, n=6)
    base = small_params()
    shared = training_set([
        (seq(0, i + 1), "d000", ("d001", "d002"), frozenset({"d000"}))
        for i in range(2)
    ])
    kwargs = dict(batch_size=2, epochs=1, learning_rate=1e-4, seed=0,
                  negatives_per_query=2)
    params_off, log_off = train(shared, base, index, TrainConfig(**kwargs), 0)
    params_on, log_on = train(shared, base, index,
                              TrainConfig(in_batch_negatives=True, **kwargs), 0)
    assert log_on[0].loss == log_off[0].loss
    assert np.array_equal(params_on.flat, params_off.flat)


def test_in_batch_negatives_skip_judged_and_repeated_docs(monkeypatch):
    # q0 is also judged on q1's positive d001, and q1's pool holds q0's
    # positive d000.  In-batch positives follow the draw, each doc at most
    # once, and none judged relevant to the example's query.
    rng = np.random.default_rng(20)
    index = small_index(rng, n=8)
    base = small_params()
    data = training_set([
        (seq(0, 1), "d000", ("d003", "d002"), frozenset({"d000", "d001"})),
        (seq(0, 2), "d001", ("d005", "d000"), frozenset({"d001"})),
        (seq(0, 3), "d004", ("d006", "d005"), frozenset({"d004"})),
    ])
    batches = []
    real_grad = trainer_module.grad

    def spy_grad(params, examples):
        batches.append(examples)
        return real_grad(params, examples)

    monkeypatch.setattr(trainer_module, "grad", spy_grad)
    cfg = TrainConfig(batch_size=3, epochs=1, learning_rate=1e-4, seed=0,
                      negatives_per_query=2, in_batch_negatives=True)
    train(data, base, index, cfg, 0)
    order = np.random.default_rng([cfg.seed, 0]).permutation(3)
    in_batch = [data.positives[i] for i in order]
    expected = {
        0: ["d002", "d003"] + [d for d in in_batch if d == "d004"],
        1: ["d000", "d005"] + [d for d in in_batch if d == "d004"],
        2: ["d005", "d006"] + [d for d in in_batch if d != "d004"],
    }
    [batch] = batches
    for i, ex in zip(order, batch):
        assert ex.tokens == data.sequences[i]
        want = np.stack([index.vector(d) for d in expected[i]])
        assert np.array_equal(ex.negatives, want), i


def test_train_missing_document_embedding():
    rng = np.random.default_rng(16)
    index = small_index(rng, n=4)
    base = small_params()
    data = training_set([(seq(0, 1), "d000", ("ghost",), frozenset({"d000"}))])
    cfg = TrainConfig(batch_size=1, epochs=1, negatives_per_query=1)
    with pytest.raises(ValueError, match="missing document embedding: ghost"):
        train(data, base, index, cfg, 0)


def test_train_rejects_empty_data():
    rng = np.random.default_rng(17)
    index = small_index(rng, n=4)
    base = small_params()
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="no training data"):
        train(training_set([]), base, index, cfg, 0)


def test_train_short_pool_raises_before_first_step(monkeypatch):
    rng = np.random.default_rng(18)
    index = small_index(rng)
    base = small_params()
    data = make_examples(rng, index, 4)
    short = training_set([
        *zip(data.sequences, data.positives, data.pools, data.relevant),
        (seq(0, 1), "d000", ("d001",), frozenset({"d000"})),
    ])
    steps = []
    monkeypatch.setattr(trainer_module, "optimizer_step",
                        lambda *args: steps.append(args))
    cfg = TrainConfig(batch_size=1, epochs=1, negatives_per_query=NEG)
    with pytest.raises(ValueError, match="insufficient negatives"):
        train(short, base, index, cfg, 0)
    assert steps == []


# -- training preparation ------------------------------------------------------------


def test_train_prf_prepares_once_and_seeds_negatives_by_position(prep, monkeypatch):
    vocab, base, index = prep
    policy = CasePolicy.PRESERVE
    # q0 has no positive: it is skipped but still holds position 0.
    queries = [("q0", "blue sky"), ("q1", "red tree"), ("q2", "apple pie"),
               ("q3", "ocean wave")]
    qrels = Qrels.from_triples([("q1", "d00", 2), ("q2", "d01", 1), ("q3", "d05", 1)])
    cfg = TrainConfig(batch_size=2, epochs=3, learning_rate=1e-3,
                      negatives_per_query=3, negative_pool_depth=10, seed=0)
    negatives_seed = 77

    first_round_calls = []
    real_first_round = trainer_module.first_round

    def counting_first_round(*args, **kwargs):
        first_round_calls.append(args[0])
        return real_first_round(*args, **kwargs)

    draws = []
    real_sample = trainer_module.sample_negatives

    def recording_sample(*args):
        draws.append(tuple(real_sample(*args)))
        return list(draws[-1])

    monkeypatch.setattr(trainer_module, "first_round", counting_first_round)
    monkeypatch.setattr(trainer_module, "sample_negatives", recording_sample)
    _, log = train_prf(
        vocab, base, index, PREP_CORPUS, queries, qrels, policy, PrfDepth(2),
        PrfTemplate(TemplateKind.ANCE, max_len=32), cfg, negatives_seed)
    # once per judged query, not per epoch
    assert first_round_calls == [text for _, text in queries[1:]]
    assert len(log) == 3 * 2

    pool = search_run(queries, vocab, base, index, 10, policy).by_query()

    def negatives(qid, seed):
        eligible = [e.doc_id for e in pool[qid] if qrels.grade(qid, e.doc_id) < 1]
        return tuple(sample_negatives(eligible, 3, seed=seed))

    assert len(draws) == cfg.epochs * 3
    shifted = 0
    for e in range(cfg.epochs):
        for k, (i, qid) in enumerate([(1, "q1"), (2, "q2"), (3, "q3")]):
            got = draws[3 * e + k]
            assert got == negatives(qid, derive_seed(negatives_seed, e, i))
            shifted += got != negatives(qid, derive_seed(negatives_seed, e, i - 1))
    assert shifted  # the position check can tell a skipped query apart


# -- logging --------------------------------------------------------------------------


def test_epoch_mean_losses():
    log = [
        TrainLogEntry(step=1, loss=2.0, lr=0.1, epoch=0),
        TrainLogEntry(step=2, loss=4.0, lr=0.1, epoch=0),
        TrainLogEntry(step=3, loss=1.0, lr=0.1, epoch=1),
    ]
    assert epoch_mean_losses(log) == {0: 3.0, 1: 1.0}


def test_write_log_csv(tmp_path):
    log = [
        TrainLogEntry(step=1, loss=0.5, lr=1e-5, epoch=0),
        TrainLogEntry(step=2, loss=0.25, lr=1e-5, epoch=0),
    ]
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,lr"
    assert lines[1] == "1,0.5,1e-05"
    assert lines[2] == "2,0.25,1e-05"
