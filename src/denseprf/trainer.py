"""Contrastive training of the PRF query encoder.

The document encoder is frozen: positive and negative document embeddings
are looked up from the vector index, never re-encoded.
``prepare_training_queries`` runs round one once and returns a
``TrainingSet``: per trainable query its feedback sequence, positive, the
docs judged relevant to it and its negative pool, the top first-round docs
minus the judged ones.  ``train`` draws each query's hard negatives from its
pool every epoch.  With in-batch negatives, another example's positive joins
an example's negatives after the draw, once, unless it is judged relevant to
that example's query.  Gradient accumulation averages microbatch-mean
gradients so that (batch b, accum a) matches (batch a*b, accum 1) on the
same example order.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .composer import PrfDepth, PrfTemplate
from .encoder import (
    EncoderParams,
    GradExample,
    HeadPolicy,
    grad,
    init_prf_encoder,
    param_layout,
)
from .index import VectorIndex
from .pipeline import feedback_sequence, first_round
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
class TrainingSet:
    """Parallel tuples, one entry per trainable query, in query-list order.

    ``positions`` are the queries' places in the input list and seed their
    negatives; ``relevant`` holds the docs judged >= 1, the positive among
    them; ``pools`` hold first-round doc ids, none of them judged, in rank
    order.
    """

    positions: tuple[int, ...]
    sequences: tuple[TokenSequence, ...]
    positives: tuple[str, ...]
    pools: tuple[tuple[str, ...], ...]
    relevant: tuple[frozenset[str], ...]

    def __post_init__(self):
        fields = (self.sequences, self.positives, self.pools, self.relevant)
        if any(len(f) != len(self.positions) for f in fields):
            raise ValueError("training set fields differ in length")
        for positive, pool, judged in zip(self.positives, self.pools, self.relevant):
            if positive not in judged:
                raise ValueError(f"positive not among judged docs: {positive}")
            if not judged.isdisjoint(pool):
                raise ValueError("negative pool holds a judged doc")

    def __len__(self) -> int:
        return len(self.positions)


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
        if self.negative_pool_depth < self.negatives_per_query:
            raise ValueError(
                f"negative_pool_depth ({self.negative_pool_depth}) must be"
                f" >= negatives_per_query ({self.negatives_per_query})"
            )
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


def sample_negatives(pool: Sequence[str], n: int, seed: int) -> list[str]:
    """Draw n distinct negatives uniformly from ``pool``.

    An exact pool comes back sorted by doc id; a short one raises.
    """
    if len(pool) < n:
        raise ValueError("insufficient negatives")
    if len(pool) == n:
        return sorted(pool)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=n, replace=False)
    return [pool[i] for i in picks]


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
) -> TrainingSet:
    """One first-round pass per judged query supplies feedback docs and pool.

    Queries without a positive judgment are skipped; the highest-grade
    positive wins, ties broken by doc_id.  The set is reused every epoch
    since the base encoder is frozen.
    """
    pool_k = max(pool_depth, depth.k)
    rows = []
    for position, (qid, text) in enumerate(queries):
        judged = qrels.positives(qid, 1)
        if not judged:
            continue
        hits = first_round(text, vocab, base_params, index, pool_k, policy)
        rows.append((
            position,
            feedback_sequence(text, hits, vocab, texts, depth, template, policy),
            min(judged, key=lambda d: (-judged[d], d)),
            tuple(h.doc_id for h in hits[:pool_depth] if h.doc_id not in judged),
            frozenset(judged),
        ))
    if not rows:
        raise ValueError("no trainable queries (no positive judgments)")
    return TrainingSet(*map(tuple, zip(*rows)))


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
    data: TrainingSet,
    negatives: Sequence[Sequence[str]],
    members: Sequence[int],
    index: VectorIndex,
    in_batch_negatives: bool,
) -> list[GradExample]:
    """Grad inputs of one microbatch; ``negatives[i]`` is example i's draw."""
    def lookup(doc_id: str) -> np.ndarray:
        try:
            return index.vector(doc_id)
        except KeyError:
            raise ValueError(f"missing document embedding: {doc_id}") from None

    in_batch = [data.positives[j] for j in members]
    resolved = []
    for i in members:
        neg_ids = negatives[i]
        if in_batch_negatives:
            neg_ids = dict.fromkeys(
                [*neg_ids, *(d for d in in_batch if d not in data.relevant[i])])
        resolved.append(
            GradExample(
                tokens=data.sequences[i],
                positive=lookup(data.positives[i]),
                negatives=np.stack([lookup(d) for d in neg_ids]),
            )
        )
    return resolved


def train(
    data: TrainingSet,
    base: EncoderParams,
    doc_index: VectorIndex,
    cfg: TrainConfig,
    negatives_seed: int,
) -> tuple[EncoderParams, list[TrainLogEntry]]:
    """Train the PRF query encoder against the frozen document index.

    Each epoch draws every query's hard negatives with the seed
    ``derive_seed(negatives_seed, epoch, position)``.  Returns the final
    params and a step/loss log.
    """
    if not len(data):
        raise ValueError("no training data")
    params = init_prf_encoder(base, cfg.head_policy, cfg.seed)
    state = OptimizerState.for_params(params)
    log: list[TrainLogEntry] = []
    step = 0

    for epoch in range(cfg.epochs):
        negatives = [
            sample_negatives(pool, cfg.negatives_per_query,
                             derive_seed(negatives_seed, epoch, position))
            for position, pool in zip(data.positions, data.pools)
        ]
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(data))

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

        for start in range(0, len(data), cfg.batch_size):
            members = order[start:start + cfg.batch_size]
            resolved = _resolve_batch(
                data, negatives, members, doc_index, cfg.in_batch_negatives)
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
    """Train the feedback encoder on ``queries``: prepare once, redraw per epoch."""
    data = prepare_training_queries(
        vocab, base, index, texts, queries, qrels,
        policy, depth, template, cfg.negative_pool_depth,
    )
    return train(data, base, index, cfg, negatives_seed)


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
