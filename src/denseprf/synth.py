"""Synthetic topic-cluster retrieval task and end-to-end experiment driver.

Documents are bags of topic-core words (exclusive to one topic) mixed with
shared background words.  The topic structure is mirrored in the encoder's
vocabulary space: token embeddings of one topic's core words are drawn
around a shared centroid, so a frozen random encoder sees the clusters and
retrieval carries topical signal at corpus scale.  A query is deliberately
under-specified: one core word from a seed document plus a few background
noise words, with every same-topic document relevant.  The noise words drag
first-round rankings toward unrelated lexical matches, while the feedback
round reads the mostly on-topic feedback texts and recovers a much purer
topical representation — the mechanism under test.  Training pairs each
query with its seed document as the positive, so the contrastive loss pulls
composed queries toward their topic region.

The driver's one primitive, ``run_experiment``, takes the task, index and
base encoder of ``prepare_artifacts``; the head-policy ablation is one
``run_experiment`` call per policy over the same artifacts.  Corpus
encoding, both retrieval runs and training are the same library calls the
CLI makes (``pipeline.encode_corpus``, ``search_run``, ``search_prf_run``
and ``trainer.train_prf``), so the experiment's runs are the CLI's runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .composer import PrfDepth, PrfTemplate, TemplateKind
from .encoder import EncoderConfig, EncoderParams, init_params, init_prf_encoder
from .evaluator import Qrels, mrr_at_k
from .index import VectorIndex
from .pipeline import (
    RetrievalCounters,
    RunList,
    encode_corpus,
    search_prf_run,
    search_run,
)
from .tokenizer import CasePolicy, Vocab, build_vocab
from .trainer import (
    TrainConfig,
    TrainLogEntry,
    derive_seed,
    epoch_mean_losses,
    train_prf,
)

_SYL = ("ba", "de", "fi", "go", "hu", "ka", "lo", "mi",
        "nu", "po", "ra", "su", "ta", "vo", "wi", "ze")


def _word(n: int) -> str:
    return _SYL[(n // 256) % 16] + _SYL[(n // 16) % 16] + _SYL[n % 16]


@dataclass(frozen=True)
class SynthConfig:
    topics: int = 30
    docs_per_topic: int = 100
    train_queries: int = 200
    eval_queries: int = 50
    core_words_per_topic: int = 12
    background_words: int = 400
    core_per_doc: tuple[int, int] = (5, 9)
    background_per_doc: tuple[int, int] = (7, 12)
    query_core_words: int = 2
    query_background_words: int = 1
    uppercase_fraction: float = 0.0
    # Token-embedding layout: topic centroids, per-word jitter, background.
    centroid_scale: float = 0.3
    word_scale: float = 0.1
    background_scale: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.topics * self.core_words_per_topic + self.background_words > 4096:
            raise ValueError("word inventory exhausted")
        if self.core_per_doc[1] > self.core_words_per_topic:
            raise ValueError("core_per_doc exceeds topic pool")
        if self.background_per_doc[1] > self.background_words:
            raise ValueError("background_per_doc exceeds background pool")
        if not 1 <= self.query_core_words <= self.core_per_doc[0]:
            raise ValueError("query core words exceed guaranteed doc core words")
        if self.query_background_words > self.background_per_doc[0]:
            raise ValueError("query background words exceed doc background words")
        if not 0.0 <= self.uppercase_fraction <= 1.0:
            raise ValueError("uppercase_fraction outside [0, 1]")


@dataclass(frozen=True)
class SynthTask:
    corpus: dict[str, str]
    train_queries: list[tuple[str, str]]
    eval_queries: list[tuple[str, str]]
    train_qrels: Qrels
    eval_qrels: Qrels
    doc_topics: dict[str, int]
    core_pools: dict[int, tuple[str, ...]]
    background: tuple[str, ...]


def _doc_words(rng, core_pool, bg_pool, cfg: SynthConfig) -> list[str]:
    n_core = int(rng.integers(cfg.core_per_doc[0], cfg.core_per_doc[1] + 1))
    n_bg = int(rng.integers(cfg.background_per_doc[0], cfg.background_per_doc[1] + 1))
    words = list(rng.choice(core_pool, size=n_core, replace=False))
    words += list(rng.choice(bg_pool, size=n_bg, replace=False))
    rng.shuffle(words)
    return words


def _queries(
    rng,
    cfg: SynthConfig,
    count: int,
    prefix: str,
    doc_words: dict[str, list[str]],
    topic_docs: dict[int, list[str]],
    core_sets: dict[int, set],
) -> tuple[list[tuple[str, str]], Qrels]:
    """Queries from seed documents; relevance = same topic + all core query words.

    Background query words are retrieval noise, not relevance constraints;
    the seed document gets grade 2, other relevant documents grade 1, so
    training positives prefer the seed.
    """
    queries = []
    triples = []
    for i in range(count):
        topic = i % cfg.topics
        seed = topic_docs[topic][int(rng.integers(len(topic_docs[topic])))]
        words = doc_words[seed]
        cores = [w for w in words if w in core_sets[topic]]
        bgs = [w for w in words if w not in core_sets[topic]]
        q_words = list(rng.choice(cores, size=cfg.query_core_words, replace=False))
        need = set(q_words)
        q_words += list(
            rng.choice(bgs, size=cfg.query_background_words, replace=False)
        )
        rng.shuffle(q_words)
        qid = f"{prefix}{i:03d}"
        queries.append((qid, " ".join(q_words)))
        for did in topic_docs[topic]:
            if need <= set(doc_words[did]):
                triples.append((qid, did, 2 if did == seed else 1))
    return queries, Qrels.from_triples(triples)


def generate(cfg: SynthConfig) -> SynthTask:
    """Deterministic task from cfg.seed; queries are always lowercase."""
    core_pools = {
        t: [_word(t * cfg.core_words_per_topic + i)
            for i in range(cfg.core_words_per_topic)]
        for t in range(cfg.topics)
    }
    bg_base = cfg.topics * cfg.core_words_per_topic
    bg_pool = [_word(bg_base + i) for i in range(cfg.background_words)]

    rng = np.random.default_rng([cfg.seed, 1])
    # Separate stream for surface casing: uppercase_fraction must not
    # perturb which words are drawn, only how they are rendered.
    case_rng = np.random.default_rng([cfg.seed, 5])
    corpus: dict[str, str] = {}
    doc_words: dict[str, list[str]] = {}
    doc_topics: dict[str, int] = {}
    topic_docs: dict[int, list[str]] = {t: [] for t in range(cfg.topics)}
    for t in range(cfg.topics):
        for j in range(cfg.docs_per_topic):
            did = f"d{t:02d}{j:03d}"
            words = _doc_words(rng, core_pools[t], bg_pool, cfg)
            doc_words[did] = words
            doc_topics[did] = t
            topic_docs[t].append(did)
            surface = [
                w.capitalize()
                if cfg.uppercase_fraction
                and case_rng.random() < cfg.uppercase_fraction
                else w
                for w in words
            ]
            corpus[did] = " ".join(surface)

    core_sets = {t: set(core_pools[t]) for t in range(cfg.topics)}
    train_q, train_qrels = _queries(
        np.random.default_rng([cfg.seed, 2]), cfg, cfg.train_queries, "qt",
        doc_words, topic_docs, core_sets,
    )
    eval_q, eval_qrels = _queries(
        np.random.default_rng([cfg.seed, 3]), cfg, cfg.eval_queries, "qe",
        doc_words, topic_docs, core_sets,
    )
    return SynthTask(
        corpus, train_q, eval_q, train_qrels, eval_qrels, doc_topics,
        core_pools={t: tuple(v) for t, v in core_pools.items()},
        background=tuple(bg_pool),
    )


def cluster_token_embeddings(
    params: EncoderParams, vocab: Vocab, task: SynthTask, cfg: SynthConfig
) -> EncoderParams:
    """Redraw inventory-token embeddings so topics form clusters.

    Core words of one topic scatter (word_scale) around a shared centroid
    (centroid_scale); background words are free isotropic draws.  Case
    variants of a word share its topic centroid but get independent jitter,
    so they remain distinct tokens near the same cluster.
    """
    rng = np.random.default_rng([cfg.seed, 4])
    dim = params.config.dim
    shaped = EncoderParams(params.config, params.flat.copy())
    tok = shaped.tok_emb

    def place(word: str, make):
        for surface in (word, word.capitalize()):
            vec = make()
            if surface in vocab:
                tok[vocab.id_of(surface)] = vec

    for t in sorted(task.core_pools):
        centroid = rng.normal(0.0, cfg.centroid_scale, size=dim)
        for word in task.core_pools[t]:
            place(word, lambda: centroid + rng.normal(0.0, cfg.word_scale, size=dim))
    for word in task.background:
        place(word, lambda: rng.normal(0.0, cfg.background_scale, size=dim))
    return shaped


# -- experiment driver -------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    dim: int = 48
    layers: int = 2
    heads: int = 4
    max_len: int = 128
    init_scale: float = 0.05
    case: CasePolicy = CasePolicy.PRESERVE
    template: TemplateKind = TemplateKind.ANCE
    prf_depth: int = 3
    topk: int = 10
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Re-seed every stochastic stage consistently."""
        return replace(
            self,
            seed=seed,
            synth=replace(self.synth, seed=derive_seed(seed, 10)),
            train=replace(self.train, seed=derive_seed(seed, 11)),
        )


@dataclass(frozen=True)
class TaskArtifacts:
    task: SynthTask
    vocab: Vocab
    base: EncoderParams
    index: VectorIndex


@dataclass(frozen=True)
class ExperimentResult:
    round1_mrr: float
    prf_mrr: float
    step0_mrr: float
    step0_matches_base: bool
    epoch_losses: dict[int, float]
    round1_run: RunList
    prf_run: RunList
    checksum_before: int
    checksum_after: int
    counters: RetrievalCounters
    log: list[TrainLogEntry]
    prf_params: EncoderParams

    @property
    def mrr_gap(self) -> float:
        return self.prf_mrr - self.round1_mrr


def prepare_artifacts(exp: ExperimentConfig) -> TaskArtifacts:
    task = generate(exp.synth)
    vocab = build_vocab(task.corpus.values())
    enc_cfg = EncoderConfig(
        vocab_size=len(vocab), dim=exp.dim, layers=exp.layers,
        heads=exp.heads, max_len=exp.max_len,
    )
    base = init_params(enc_cfg, seed=derive_seed(exp.seed, 1), scale=exp.init_scale)
    base = cluster_token_embeddings(base, vocab, task, exp.synth)
    index = encode_corpus(task.corpus, vocab, base, exp.case)
    return TaskArtifacts(task, vocab, base, index)


def eval_prf(
    art: TaskArtifacts,
    exp: ExperimentConfig,
    prf_params: EncoderParams,
    counters: RetrievalCounters | None = None,
) -> RunList:
    return search_prf_run(
        art.task.eval_queries, art.vocab, art.base, prf_params, art.index,
        art.task.corpus, PrfDepth(exp.prf_depth),
        PrfTemplate(exp.template, max_len=exp.max_len), exp.topk, exp.case, counters,
    )


def _ranked_ids(run: RunList) -> dict[str, list[str]]:
    return {q: [e.doc_id for e in v] for q, v in run.by_query().items()}


def run_experiment(exp: ExperimentConfig, art: TaskArtifacts) -> ExperimentResult:
    """Round one, step-0 readout, training and feedback round on ``art``.

    ``art`` is ``prepare_artifacts(exp)``.  The step-0 readout searches the
    composed queries with the untrained feedback encoder and with the base
    encoder; ``counters`` covers the trained feedback round alone.
    """
    checksum_before = art.index.checksum
    round1_run = search_run(
        art.task.eval_queries, art.vocab, art.base, art.index, exp.topk, exp.case
    )
    step0 = init_prf_encoder(art.base, exp.train.head_policy, exp.train.seed)
    step0_run = eval_prf(art, exp, step0)
    base_run = eval_prf(art, exp, art.base)
    prf_params, log = train_prf(
        art.vocab, art.base, art.index, art.task.corpus,
        art.task.train_queries, art.task.train_qrels, exp.case,
        PrfDepth(exp.prf_depth), PrfTemplate(exp.template, max_len=exp.max_len),
        exp.train, negatives_seed=derive_seed(exp.seed, 2),
    )
    counters = RetrievalCounters()
    prf_run = eval_prf(art, exp, prf_params, counters)
    k = exp.topk if exp.topk <= 10 else 10

    def mrr(run: RunList) -> float:
        return mrr_at_k(run, art.task.eval_qrels, k).mean

    return ExperimentResult(
        round1_mrr=mrr(round1_run),
        prf_mrr=mrr(prf_run),
        step0_mrr=mrr(step0_run),
        step0_matches_base=_ranked_ids(step0_run) == _ranked_ids(base_run),
        epoch_losses=epoch_mean_losses(log),
        round1_run=round1_run,
        prf_run=prf_run,
        checksum_before=checksum_before,
        checksum_after=art.index.checksum,
        counters=counters,
        log=log,
        prf_params=prf_params,
    )
