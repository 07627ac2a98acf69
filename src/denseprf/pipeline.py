"""Corpus encoding, two-round feedback retrieval and TREC run-file plumbing.

Round one encodes the bare query with the base encoder and searches the
index.  Round two concatenates the query with the text of the top feedback
documents, encodes that with the feedback encoder, and searches the SAME
index again — document embeddings are never touched between rounds.  One
casing policy governs query and feedback text alike.  ``encode_corpus``,
``search_run`` and ``search_prf_run`` are the corpus and query-list stages
that the CLI and the synthetic experiment share.

A ranking has one shape from index to run file: ``VectorIndex.search``
returns ``SearchResult`` hits, and a ``RunList`` keeps each query's hits in
rank order under one tag for the whole run.  ``write_run`` and ``read_run``
move it to and from the TREC run format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .composer import (
    PrfDepth, PrfTemplate, compose, document_sequence, first_round_sequence,
)
from .encoder import EncoderParams, encode
from .index import SearchResult, VectorIndex
from .tokenizer import CasePolicy, TokenSequence, Vocab, tokenize


class RunList:
    """Validated run: one tag; per query, ranks 1..n and scores non-increasing.

    Each query's hits are kept as a tuple in rank order, queries in the
    mapping's order (``read_run`` keeps the file's first-appearance order).
    """

    def __init__(self, by_query: Mapping[str, Iterable[SearchResult]], tag: str):
        self.tag = tag
        self._by_query: dict[str, tuple[SearchResult, ...]] = {}
        for qid, hits in by_query.items():
            hits = list(hits)
            seen: set[str] = set()
            for h in hits:
                if h.doc_id in seen:
                    raise ValueError(f"duplicate run entry: {qid} {h.doc_id}")
                seen.add(h.doc_id)
            hits.sort(key=lambda h: h.rank)
            for want, h in enumerate(hits, start=1):
                if h.rank != want:
                    raise ValueError(f"ranks not contiguous for query {qid}")
            for prev, cur in zip(hits, hits[1:]):
                if cur.score > prev.score:
                    raise ValueError(f"scores increase for query {qid}")
            self._by_query[qid] = tuple(hits)

    def by_query(self) -> dict[str, tuple[SearchResult, ...]]:
        """Each query's hits in rank order; the tuples are shared, not copied."""
        return dict(self._by_query)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_query.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunList):
            return NotImplemented
        return self.tag == other.tag and self._by_query == other._by_query


@dataclass
class RetrievalCounters:
    """Instrumentation: feedback retrieval costs exactly 2 of each."""

    encode_calls: int = 0
    search_calls: int = 0


def _encode(params, tokens, counters):
    if counters is not None:
        counters.encode_calls += 1
    return encode(params, tokens)


def _search(index, q, k, counters):
    if counters is not None:
        counters.search_calls += 1
    return index.search(q, k)


def first_round(
    query_text: str,
    vocab: Vocab,
    base_params: EncoderParams,
    index: VectorIndex,
    k: int,
    policy: CasePolicy,
    counters: RetrievalCounters | None = None,
) -> list[SearchResult]:
    query = tokenize(query_text, vocab, policy)
    seq = first_round_sequence(query, base_params.config.max_len)
    q = _encode(base_params, seq, counters)
    return _search(index, q, k, counters)


def feedback_sequence(
    query_text: str,
    hits: Sequence[SearchResult],
    vocab: Vocab,
    texts: Mapping[str, str],
    depth: PrfDepth,
    template: PrfTemplate,
    policy: CasePolicy,
) -> TokenSequence:
    """The feedback query: the query composed with its top depth.k hit texts."""
    docs = []
    for hit in hits[: depth.k]:
        text = texts.get(hit.doc_id)
        if text is None:
            raise ValueError(f"feedback text unavailable: {hit.doc_id}")
        docs.append(tokenize(text, vocab, policy))
    return compose(tokenize(query_text, vocab, policy), docs, template, depth)


def prf_retrieve(
    query_text: str,
    vocab: Vocab,
    base_params: EncoderParams,
    prf_params: EncoderParams,
    index: VectorIndex,
    corpus_texts: Mapping[str, str],
    depth: PrfDepth,
    template: PrfTemplate,
    k: int,
    policy: CasePolicy,
    counters: RetrievalCounters | None = None,
) -> list[SearchResult]:
    """Two-round retrieval; feedback docs are the top depth.k of round one."""
    if depth.k > k:
        raise ValueError("feedback depth exceeds k")
    round1 = first_round(query_text, vocab, base_params, index, k, policy, counters)
    composed = feedback_sequence(
        query_text, round1, vocab, corpus_texts, depth, template, policy
    )
    q2 = _encode(prf_params, composed, counters)
    return _search(index, q2, k, counters)


def encode_corpus(
    texts: Mapping[str, str], vocab: Vocab, params: EncoderParams, policy: CasePolicy
) -> VectorIndex:
    """Index every document's base-encoder embedding, in corpus order."""
    max_len = params.config.max_len
    return VectorIndex.build(
        (did, encode(params, document_sequence(tokenize(text, vocab, policy), max_len)))
        for did, text in texts.items()
    )


def search_run(
    queries: Sequence[tuple[str, str]], vocab: Vocab, params: EncoderParams,
    index: VectorIndex, k: int, policy: CasePolicy,
) -> RunList:
    """First-round run of every query, tagged ``base``."""
    return RunList(
        {qid: first_round(text, vocab, params, index, k, policy) for qid, text in queries},
        tag="base",
    )


def search_prf_run(
    queries: Sequence[tuple[str, str]], vocab: Vocab, base_params: EncoderParams,
    prf_params: EncoderParams, index: VectorIndex, corpus_texts: Mapping[str, str],
    depth: PrfDepth, template: PrfTemplate, k: int, policy: CasePolicy,
    counters: RetrievalCounters | None = None,
) -> RunList:
    """Feedback run of every query, tagged ``prf<depth>``."""
    by_query = {
        qid: prf_retrieve(text, vocab, base_params, prf_params, index, corpus_texts,
                          depth, template, k, policy, counters)
        for qid, text in queries
    }
    return RunList(by_query, tag=f"prf{depth.k}")


# -- file formats ------------------------------------------------------------


def write_run(run: RunList, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, hits in run.by_query().items():
            for h in hits:
                fh.write(f"{qid} Q0 {h.doc_id} {h.rank} {h.score:.6f} {run.tag}\n")


def read_run(path) -> RunList:
    """Group rows by query; rows may come in any order, but share one tag."""
    by_query: dict[str, list[SearchResult]] = {}
    tag = None
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cols = line.split()
            if tag is None and len(cols) == 6:
                tag = cols[5]  # the first row's tag is the run's
            if len(cols) != 6 or cols[1] != "Q0" or cols[5] != tag:
                raise ValueError(f"malformed run line {n}")
            try:
                rank = int(cols[3])
                score = float(cols[4])
            except ValueError as exc:
                raise ValueError(f"malformed run line {n}") from exc
            # nan compares False, so it would slip past the score-order check.
            if not math.isfinite(score):
                raise ValueError(f"malformed run line {n}")
            by_query.setdefault(cols[0], []).append(SearchResult(cols[2], score, rank))
    return RunList(by_query, tag or "")


def read_corpus_tsv(path) -> dict[str, str]:
    """doc_id<TAB>text per line; insertion order preserved."""
    docs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            # An id is one non-empty, whitespace-free run-file column.
            if len(parts) != 2 or parts[0].split() != [parts[0]]:
                raise ValueError(f"malformed corpus line {n}")
            if parts[0] in docs:
                raise ValueError(f"duplicate doc_id {parts[0]}")
            docs[parts[0]] = parts[1]
    return docs


def read_queries_tsv(path) -> list[tuple[str, str]]:
    queries: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            # An id is one non-empty, whitespace-free run-file column.
            if len(parts) != 2 or parts[0].split() != [parts[0]]:
                raise ValueError(f"malformed queries line {n}")
            if parts[0] in seen:
                raise ValueError(f"duplicate query_id {parts[0]}")
            seen.add(parts[0])
            queries.append((parts[0], parts[1]))
    return queries
