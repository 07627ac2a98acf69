"""Corpus encoding, two-round feedback retrieval and TREC run-file plumbing.

Round one encodes the bare query with the base encoder and searches the
index.  Round two concatenates the query with the text of the top feedback
documents, encodes that with the feedback encoder, and searches the SAME
index again — document embeddings are never touched between rounds.  One
casing policy governs query and feedback text alike.  ``encode_corpus``,
``search_run`` and ``search_prf_run`` are the corpus and query-list stages
that the CLI and the synthetic experiment share.
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


@dataclass(frozen=True, slots=True)
class RunEntry:
    query_id: str
    doc_id: str
    rank: int
    score: float
    tag: str


class RunList:
    """Validated run: per query, ranks contiguous from 1, scores non-increasing.

    Entry order within the file is free (grouping happens on read); iteration
    and writing use first-appearance query order with entries in rank order.
    """

    def __init__(self, entries: Iterable[RunEntry]):
        grouped: dict[str, list[RunEntry]] = {}
        for e in entries:
            grouped.setdefault(e.query_id, []).append(e)
        for qid, items in grouped.items():
            seen: set[str] = set()
            for e in items:
                if e.doc_id in seen:
                    raise ValueError(f"duplicate run entry: {qid} {e.doc_id}")
                seen.add(e.doc_id)
            items.sort(key=lambda e: e.rank)
            for want, e in enumerate(items, start=1):
                if e.rank != want:
                    raise ValueError(f"ranks not contiguous for query {qid}")
            for prev, cur in zip(items, items[1:]):
                if cur.score > prev.score:
                    raise ValueError(f"scores increase for query {qid}")
        self._by_query = {q: tuple(items) for q, items in grouped.items()}

    def by_query(self) -> dict[str, tuple[RunEntry, ...]]:
        """Each query's entries in rank order; the tuples are shared, not copied."""
        return dict(self._by_query)

    @property
    def entries(self) -> list[RunEntry]:
        return [e for items in self._by_query.values() for e in items]

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_query.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunList):
            return NotImplemented
        return self._by_query == other._by_query


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


def results_to_run(
    per_query: Sequence[tuple[str, Sequence[SearchResult]]], tag: str
) -> RunList:
    entries = [
        RunEntry(qid, r.doc_id, r.rank, r.score, tag)
        for qid, results in per_query
        for r in results
    ]
    return RunList(entries)


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
    per_query = [
        (qid, first_round(text, vocab, params, index, k, policy))
        for qid, text in queries
    ]
    return results_to_run(per_query, tag="base")


def search_prf_run(
    queries: Sequence[tuple[str, str]], vocab: Vocab, base_params: EncoderParams,
    prf_params: EncoderParams, index: VectorIndex, corpus_texts: Mapping[str, str],
    depth: PrfDepth, template: PrfTemplate, k: int, policy: CasePolicy,
    counters: RetrievalCounters | None = None,
) -> RunList:
    """Feedback run of every query, tagged ``prf<depth>``."""
    per_query = [
        (qid, prf_retrieve(text, vocab, base_params, prf_params, index, corpus_texts,
                           depth, template, k, policy, counters))
        for qid, text in queries
    ]
    return results_to_run(per_query, tag=f"prf{depth.k}")


# -- file formats ------------------------------------------------------------


def write_run(run: RunList, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in run.entries:
            fh.write(
                f"{e.query_id} Q0 {e.doc_id} {e.rank} {e.score:.6f} {e.tag}\n"
            )


def read_run(path) -> RunList:
    entries = []
    names: dict[str, str] = {}  # one string object per distinct query id and tag
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cols = line.split()
            if len(cols) != 6 or cols[1] != "Q0":
                raise ValueError(f"malformed run line {n}")
            try:
                rank = int(cols[3])
                score = float(cols[4])
            except ValueError as exc:
                raise ValueError(f"malformed run line {n}") from exc
            # nan compares False, so it would slip past the score-order check.
            if not math.isfinite(score):
                raise ValueError(f"malformed run line {n}")
            entries.append(RunEntry(names.setdefault(cols[0], cols[0]), cols[2],
                                    rank, score, names.setdefault(cols[5], cols[5])))
    return RunList(entries)


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
