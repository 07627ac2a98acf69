"""Self-contained dense retrieval with a trained feedback query encoder.

Word-level tokenization with an explicit casing policy, a small transformer
dual-encoder in pure numpy (analytic gradients included), exact inner-product
search, two-round feedback retrieval, contrastive training, and TREC-style
evaluation, all reproducible from seeds on a single machine.
"""

import os as _os

# Must happen before numpy loads its BLAS; results do not depend on it.
_prf_threads = _os.environ.get("PRF_THREADS")
if _prf_threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _prf_threads)

from .composer import PrfDepth, PrfTemplate, TemplateKind, compose
from .encoder import (
    EncoderConfig,
    EncoderParams,
    HeadPolicy,
    encode,
    init_params,
    init_prf_encoder,
    load_params,
    save_params,
)
from .evaluator import (
    MetricReport,
    Qrels,
    mrr_at_k,
    ndcg_at_k,
    paired_t_test,
    recall_at_k,
)
from .index import SearchResult, VectorIndex
from .pipeline import (
    RetrievalCounters,
    RunEntry,
    RunList,
    first_round,
    prf_retrieve,
    read_run,
    write_run,
)
from .tokenizer import CasePolicy, TokenSequence, Vocab, build_vocab, tokenize
from .trainer import TrainConfig, TrainingSet, sample_negatives, train

__version__ = "0.1.0"

__all__ = [
    "CasePolicy",
    "EncoderConfig",
    "EncoderParams",
    "HeadPolicy",
    "MetricReport",
    "PrfDepth",
    "PrfTemplate",
    "Qrels",
    "RetrievalCounters",
    "RunEntry",
    "RunList",
    "SearchResult",
    "TemplateKind",
    "TokenSequence",
    "TrainConfig",
    "TrainingSet",
    "Vocab",
    "VectorIndex",
    "build_vocab",
    "compose",
    "encode",
    "first_round",
    "init_params",
    "init_prf_encoder",
    "load_params",
    "mrr_at_k",
    "ndcg_at_k",
    "paired_t_test",
    "prf_retrieve",
    "read_run",
    "recall_at_k",
    "sample_negatives",
    "save_params",
    "tokenize",
    "train",
    "write_run",
]
