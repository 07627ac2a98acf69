"""Second-round query composition from first-round feedback documents.

Two templates are supported, named for the encoder families they mimic:

* ``ance`` -- BOS q SEP d1 SEP ... dk SEP
* ``tct``  -- BOS [Q] q SEP d1 SEP ... dk, then MASK-padded to max_len

Truncation always drops from the tail (lowest-ranked feedback content); the
query itself is never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .tokenizer import TokenSequence, Vocab


class TemplateKind(Enum):
    ANCE = "ance"
    TCT = "tct"


@dataclass(frozen=True)
class PrfTemplate:
    kind: TemplateKind
    max_len: int = 512

    def __post_init__(self):
        if self.max_len < 8:
            raise ValueError("max_len must be >= 8")


@dataclass(frozen=True)
class PrfDepth:
    """Number of top-ranked feedback documents concatenated into the query."""

    k: int

    def __post_init__(self):
        if not 1 <= self.k <= 20:
            raise ValueError("prf depth must be in [1, 20]")


def compose(
    query: TokenSequence,
    docs: Sequence[TokenSequence],
    template: PrfTemplate,
    depth: PrfDepth,
) -> TokenSequence:
    """Build the PRF query sequence from the query and its feedback docs.

    ``docs`` must be in descending first-round score order; only the top
    ``depth.k`` are used.  Output length is <= max_len always and exactly
    max_len for the ``tct`` template (MASK padding fills the gap).
    """
    if len(docs) < depth.k:
        raise ValueError("insufficient feedback")
    feedback = docs[: depth.k]
    max_len = template.max_len

    if template.kind is TemplateKind.TCT:
        prefix = [Vocab.bos_id, Vocab.q_mark_id, *query.ids, Vocab.sep_id]
        if len(prefix) > max_len:
            raise ValueError("query too long")
        ids = list(prefix)
        for i, doc in enumerate(feedback):
            if i > 0:
                ids.append(Vocab.sep_id)
            ids.extend(doc.ids)
        ids = ids[:max_len]
        ids.extend([Vocab.mask_id] * (max_len - len(ids)))
    else:
        prefix = [Vocab.bos_id, *query.ids, Vocab.sep_id]
        if len(prefix) > max_len:
            raise ValueError("query too long")
        ids = list(prefix)
        for doc in feedback:
            ids.extend(doc.ids)
            ids.append(Vocab.sep_id)
        ids = ids[:max_len]

    return TokenSequence(tuple(ids))


def first_round_sequence(query: TokenSequence, max_len: int = 512) -> TokenSequence:
    """Wrap a bare query as BOS q SEP, the round-one encoder input."""
    ids = [Vocab.bos_id, *query.ids, Vocab.sep_id]
    if len(ids) > max_len:
        raise ValueError("query too long")
    return TokenSequence(tuple(ids))


def document_sequence(doc: TokenSequence, max_len: int = 512) -> TokenSequence:
    """Wrap document tokens as BOS d SEP, truncating the tail to fit."""
    body = doc.ids[: max_len - 2]
    ids = (Vocab.bos_id, *body, Vocab.sep_id)
    return TokenSequence(ids)
