"""Contrastive training of the PRF query encoder.

The document encoder is frozen: positive and negative document embeddings
are looked up from the vector index, never re-encoded.  Negatives are hard
negatives sampled from a first-round run; optionally the positives of the
other examples in a microbatch join the negative set, except those equal to
the example's own positive.  ``train_prf`` prepares the feedback queries
once and resamples the hard negatives every epoch.  Gradient accumulation
averages microbatch-mean gradients so that (batch b, accum a) matches
(batch a*b, accum 1) on the same example order.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .composer import PrfDepth, PrfTemplate
from .encoder import (
    EncoderParams,
    GradExample,
    HeadPolicy,
    grad,
    init_prf_encoder,
    nce_terms,
    param_layout,
)
from .index import VectorIndex
from .pipeline import feedback_sequence, first_round, results_to_run
from .tokenizer import CasePolicy, TokenSequence, Vocab

OPTIMIZERS = ("adamw", "lamb")


def derive_seed(master: int, *labels: int) -> int:
    """Stable non-negative sub-seed for an independent random stream."""
    state = np.random.SeedSequence([int(master), *map(int, labels)]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def check_config(cls, data: Mapping, label: str) -> None:
    """Reject keys that are not fields of ``cls`` and values of the wrong type.

    Types compare exactly, so a bool is not an int; a float field also takes
    an int and the head policy field its string value.
    """
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ValueError(f"unknown {label} key: {key}")
        kinds = typing.get_args(hints[key]) or (hints[key],)
        if float in kinds:
            kinds += (int,)
        if HeadPolicy in kinds:
            kinds += (str,)
        if type(value) not in kinds:
            raise ValueError(
                f"{label} key {key} must be {kinds[0].__name__},"
                f" got {type(value).__name__}"
            )


@dataclass(frozen=True)
class TrainingExample:
    query_id: str
    prf_query: TokenSequence
    positive_doc_id: str
    negative_doc_ids: tuple[str, ...]

    def __post_init__(self):
        if self.positive_doc_id in self.negative_doc_ids:
            raise ValueError("positive listed among negatives")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adamw"
    learning_rate: float = 1e-5
    batch_size: int = 32
    grad_accum_steps: int = 1
    epochs: int = 10
    negatives_per_query: int = 21
    negative_pool_depth: int = 200
    in_batch_negatives: bool = False
    head_policy: HeadPolicy = HeadPolicy.INHERIT
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer: {self.optimizer}")
        if not 0 <= self.learning_rate < math.inf:  # also rejects nan
            raise ValueError("learning_rate must be finite and >= 0")
        for name in ("batch_size", "grad_accum_steps", "epochs",
                     "negatives_per_query", "negative_pool_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TrainConfig":
        if not isinstance(raw, Mapping):
            raise ValueError("train config must be a JSON object")
        data = dict(raw)
        check_config(cls, data, "train config")
        if "head_policy" in data and not isinstance(data["head_policy"], HeadPolicy):
            data["head_policy"] = HeadPolicy(data["head_policy"])
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "TrainConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        data = asdict(self)
        data["head_policy"] = self.head_policy.value
        return data


@dataclass
class OptimizerState:
    """Adam moment accumulators, flat vectors in the params layout."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.01

    @classmethod
    def for_params(cls, params: EncoderParams, **hyper) -> "OptimizerState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), **hyper)


@dataclass(frozen=True)
class TrainLogEntry:
    step: int
    loss: float
    lr: float
    epoch: int


def nce_loss(q: np.ndarray, pos: np.ndarray, negs: Sequence[np.ndarray]) -> float:
    """Noisy-contrastive loss of one query against its positive and negatives."""
    negs = np.atleast_2d(np.asarray(negs, dtype=np.float64))
    if negs.shape[0] < 1 or negs.size == 0:
        raise ValueError("at least one negative required")
    if pos.shape != q.shape or negs.shape[1] != q.shape[0]:
        raise ValueError("dimension mismatch")
    scores = np.concatenate(([pos @ q], negs @ q))
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite input")
    loss, _ = nce_terms(scores)
    return loss


def sample_negatives(
    run,
    qrels,
    query_id: str,
    pool_depth: int,
    n: int,
    seed: int,
) -> list[str]:
    """Sample n negatives uniformly from the top pool_depth run entries.

    Docs judged relevant (grade >= 1) in qrels are excluded.  When the
    eligible pool is exactly n, the whole pool is returned sorted by doc_id.
    """
    entries = run.by_query().get(query_id)
    if not entries:
        raise ValueError(f"query not in run: {query_id}")
    pool = [e.doc_id for e in entries[:pool_depth]]
    eligible = [d for d in pool if qrels.grade(query_id, d) < 1]
    if len(eligible) < n:
        raise ValueError("insufficient negatives")
    if len(eligible) == n:
        return sorted(eligible)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(eligible), size=n, replace=False)
    return [eligible[i] for i in picks]


@dataclass(frozen=True)
class PreparedQuery:
    """Epoch-independent part of a training example."""

    query_id: str
    query_index: int
    prf_query: TokenSequence
    positive_doc_id: str


def prepare_training_queries(
    vocab: Vocab,
    base_params: EncoderParams,
    index: VectorIndex,
    texts: Mapping[str, str],
    queries: Sequence[tuple[str, str]],
    qrels,
    policy: CasePolicy,
    depth: PrfDepth,
    template: PrfTemplate,
    pool_depth: int,
):
    """One first-round pass per query supplies feedback docs and negative pool.

    Queries without a positive judgment are skipped; the highest-grade
    positive wins, ties broken by doc_id.  Returns (run, prepared queries);
    the run is reused every epoch since the base encoder is frozen.
    """
    pool_k = max(pool_depth, depth.k)
    per_query = [
        (qid, first_round(text, vocab, base_params, index, pool_k, policy))
        for qid, text in queries
    ]
    run = results_to_run(per_query, tag="pool")
    prepared = []
    for qi, ((qid, text), (_, hits)) in enumerate(zip(queries, per_query)):
        positives = qrels.positives(qid, 1)
        if not positives:
            continue
        pos_id = min(positives, key=lambda d: (-positives[d], d))
        prf_query = feedback_sequence(text, hits, vocab, texts, depth, template, policy)
        prepared.append(PreparedQuery(qid, qi, prf_query, pos_id))
    if not prepared:
        raise ValueError("no trainable queries (no positive judgments)")
    return run, prepared


def examples_for_epoch(
    run,
    qrels,
    prepared: Sequence[PreparedQuery],
    cfg: TrainConfig,
    negatives_seed: int,
    epoch: int,
) -> list[TrainingExample]:
    """Attach epoch-seeded hard negatives to the prepared queries."""
    examples = []
    for pq in prepared:
        negs = sample_negatives(
            run, qrels, pq.query_id,
            pool_depth=cfg.negative_pool_depth,
            n=cfg.negatives_per_query,
            seed=derive_seed(negatives_seed, epoch, pq.query_index),
        )
        examples.append(
            TrainingExample(
                query_id=pq.query_id,
                prf_query=pq.prf_query,
                positive_doc_id=pq.positive_doc_id,
                negative_doc_ids=tuple(negs),
            )
        )
    return examples


def optimizer_step(
    state: OptimizerState,
    params: EncoderParams,
    grads: EncoderParams,
    cfg: TrainConfig,
) -> tuple[OptimizerState, EncoderParams]:
    """One AdamW or LAMB update; returns fresh state and params snapshots.

    LAMB rescales the per-tensor AdamW update by ||w||/||update|| clipped to
    [0, 10], falling back to 1 when either norm is zero.
    """
    layout = param_layout(params.config)
    w, g = params.flat, grads.flat
    finite = np.isfinite(g)
    if not finite.all():
        first = int(np.argmin(finite))
        name = next(name for name, off, _ in reversed(layout) if off <= first)
        raise ValueError(f"non-finite gradient: {name}")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * (g * g)
    upd = (m / bc1) / (np.sqrt(v / bc2) + state.eps) + state.weight_decay * w
    if cfg.optimizer == "lamb":
        for _, off, shape in layout:
            seg = slice(off, off + math.prod(shape))
            # np.linalg.norm goes through BLAS, whose bits vary with the CPU
            # kernel; numpy's own sum does not.  np.add.reduceat would sum in
            # another order and change the bits.
            wn = float(np.sqrt(np.sum(w[seg] * w[seg])))
            un = float(np.sqrt(np.sum(upd[seg] * upd[seg])))
            trust = 1.0 if wn == 0.0 or un == 0.0 else min(wn / un, 10.0)
            upd[seg] *= trust

    new_params = EncoderParams(params.config, w - cfg.learning_rate * upd)
    new_state = OptimizerState(
        m=m, v=v, step=t,
        beta1=b1, beta2=b2, eps=state.eps, weight_decay=state.weight_decay,
    )
    return new_state, new_params


def _resolve_batch(
    batch: Sequence[TrainingExample],
    index: VectorIndex,
    in_batch_negatives: bool,
) -> list[GradExample]:
    def lookup(doc_id: str) -> np.ndarray:
        try:
            return index.vector(doc_id)
        except KeyError:
            raise ValueError(f"missing document embedding: {doc_id}") from None

    positives = [lookup(ex.positive_doc_id) for ex in batch]
    resolved = []
    for i, ex in enumerate(batch):
        negs = [lookup(d) for d in ex.negative_doc_ids]
        if in_batch_negatives:
            # Another query may share this positive; it is never a negative.
            negs.extend(
                p for other, p in zip(batch, positives)
                if other.positive_doc_id != ex.positive_doc_id
            )
        if not negs:
            raise ValueError("example has no negatives")
        resolved.append(
            GradExample(
                tokens=ex.prf_query,
                positive=positives[i],
                negatives=np.stack(negs),
            )
        )
    return resolved


ExampleSource = Sequence[TrainingExample] | Callable[[int], Sequence[TrainingExample]]


def train(
    data: ExampleSource,
    base: EncoderParams,
    doc_index: VectorIndex,
    cfg: TrainConfig,
) -> tuple[EncoderParams, list[TrainLogEntry]]:
    """Train the PRF query encoder against the frozen document index.

    ``data`` is either a fixed example list or a callable mapping the epoch
    number to that epoch's examples (used to resample hard negatives with an
    epoch-dependent seed).  Returns the final params and a step/loss log.
    """
    params = init_prf_encoder(base, cfg.head_policy, cfg.seed)
    state = OptimizerState.for_params(params)
    log: list[TrainLogEntry] = []
    step = 0

    for epoch in range(cfg.epochs):
        examples = list(data(epoch)) if callable(data) else list(data)
        if not examples:
            raise ValueError("no training data")
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(examples))

        acc: np.ndarray | None = None
        acc_losses: list[float] = []

        def flush():
            nonlocal acc, acc_losses, state, params, step
            if acc is None:
                return
            acc *= 1.0 / len(acc_losses)
            state, params = optimizer_step(
                state, params, EncoderParams(params.config, acc), cfg
            )
            step += 1
            log.append(TrainLogEntry(
                step=step, loss=float(np.mean(acc_losses)),
                lr=cfg.learning_rate, epoch=epoch,
            ))
            acc = None
            acc_losses = []

        for start in range(0, len(examples), cfg.batch_size):
            micro = [examples[i] for i in order[start:start + cfg.batch_size]]
            resolved = _resolve_batch(micro, doc_index, cfg.in_batch_negatives)
            loss, grads = grad(params, resolved)
            if acc is None:
                acc = grads.flat
            else:
                acc += grads.flat
            acc_losses.append(loss)
            if len(acc_losses) == cfg.grad_accum_steps:
                flush()
        flush()

    return params, log


def train_prf(
    vocab: Vocab,
    base: EncoderParams,
    index: VectorIndex,
    texts: Mapping[str, str],
    queries: Sequence[tuple[str, str]],
    qrels,
    policy: CasePolicy,
    depth: PrfDepth,
    template: PrfTemplate,
    cfg: TrainConfig,
    negatives_seed: int,
) -> tuple[EncoderParams, list[TrainLogEntry]]:
    """Train the feedback encoder on ``queries``: prepare once, resample per epoch."""
    run, prepared = prepare_training_queries(
        vocab, base, index, texts, queries, qrels,
        policy, depth, template, cfg.negative_pool_depth,
    )
    return train(
        lambda e: examples_for_epoch(run, qrels, prepared, cfg, negatives_seed, e),
        base, index, cfg,
    )


def epoch_mean_losses(log: Sequence[TrainLogEntry]) -> dict[int, float]:
    by_epoch: dict[int, list[float]] = {}
    for entry in log:
        by_epoch.setdefault(entry.epoch, []).append(entry.loss)
    return {e: float(np.mean(v)) for e, v in by_epoch.items()}


def write_log_csv(log: Sequence[TrainLogEntry], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss,lr\n")
        for entry in log:
            fh.write(f"{entry.step},{entry.loss:.10g},{entry.lr:.10g}\n")
