"""Test-side builders shared by several test modules.

``random_eval_instance`` returns both package objects and plain-dict
mirrors so the independent evaluator oracle never touches package types.
``batch_loss`` is the finite-difference objective of the gradient checks.
"""

from __future__ import annotations

import numpy as np

from denseprf.encoder import encode, nce_terms
from denseprf.evaluator import Qrels
from denseprf.index import SearchResult
from denseprf.pipeline import RunList


def random_eval_instance(rng: np.random.Generator):
    n_queries = int(rng.integers(1, 6))
    n_docs = int(rng.integers(1, 21))
    doc_ids = [f"d{i}" for i in range(n_docs)]
    qids = [f"q{i}" for i in range(n_queries)]

    hits: dict[str, list[SearchResult]] = {}
    run_dict: dict[str, list[str]] = {}
    for qid in qids:
        depth = int(rng.integers(1, n_docs + 1))
        picks = rng.choice(n_docs, size=depth, replace=False)
        docs = [doc_ids[j] for j in picks]
        run_dict[qid] = docs
        scores = np.sort(rng.normal(size=depth))[::-1]
        hits[qid] = [
            SearchResult(d, float(s), rank)
            for rank, (d, s) in enumerate(zip(docs, scores), start=1)
        ]

    triples = []
    qrels_dict: dict[tuple[str, str], int] = {}
    for qid in qids:
        n_judged = int(rng.integers(0, n_docs + 1))
        judged = rng.choice(n_docs, size=n_judged, replace=False)
        for j in judged:
            grade = int(rng.integers(0, 4))
            triples.append((qid, doc_ids[j], grade))
            qrels_dict[(qid, doc_ids[j])] = grade

    return RunList(hits, "x"), run_dict, Qrels.from_triples(triples), qrels_dict


def batch_loss(params, batch) -> float:
    """Mean NCE loss of ``batch``, the objective ``encoder.grad`` differentiates.

    Summed in example order and divided once, as ``grad`` sums its loss.
    """
    total = 0.0
    for ex in batch:
        q = encode(params, ex.tokens)
        total += nce_terms(np.concatenate(([ex.positive @ q], ex.negatives @ q)))[0]
    return total / len(batch)
