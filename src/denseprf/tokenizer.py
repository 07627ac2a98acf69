"""Word-level tokenizer with an explicit casing policy.

The vocabulary is closed after construction and owns the special-token
inventory shared by every query/document template: sequence start and
separator markers, the mask filler, padding, the unknown-token fallback,
and the textual query/document markers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

# Specials occupy ids 0..6 in this exact order, both in memory and on disk.
BOS_TOKEN = "<s>"
SEP_TOKEN = "</s>"
MASK_TOKEN = "[MASK]"
PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
Q_MARK_TOKEN = "[Q]"
D_MARK_TOKEN = "[D]"

SPECIAL_TOKENS = (
    BOS_TOKEN,
    SEP_TOKEN,
    MASK_TOKEN,
    PAD_TOKEN,
    UNK_TOKEN,
    Q_MARK_TOKEN,
    D_MARK_TOKEN,
)

# Words (incl. digits/underscore) or single punctuation marks.  The special
# token strings above contain punctuation and therefore can never be produced
# by splitting raw text.
_SPLIT_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class CasePolicy(Enum):
    PRESERVE = "preserve"
    LOWERCASE = "lower"


def split_text(text: str) -> list[str]:
    """Split raw text into word and punctuation tokens."""
    return _SPLIT_RE.findall(text)


class Vocab:
    """Immutable token <-> id mapping with a fixed special inventory."""

    def __init__(self, regular_tokens: Iterable[str]):
        self._id_to_token: list[str] = list(SPECIAL_TOKENS)
        self._token_to_id: dict[str, int] = {
            tok: i for i, tok in enumerate(SPECIAL_TOKENS)
        }
        for tok in regular_tokens:
            if tok in self._token_to_id:
                raise ValueError(f"duplicate or reserved token: {tok!r}")
            self._token_to_id[tok] = len(self._id_to_token)
            self._id_to_token.append(tok)

    # -- special ids -------------------------------------------------------
    bos_id = 0
    sep_id = 1
    mask_id = 2
    pad_id = 3
    unk_id = 4
    q_mark_id = 5
    d_mark_id = 6

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        """Id of ``token``, falling back to the UNK id."""
        return self._token_to_id.get(token, self.unk_id)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self._id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
        if len(lines) < len(SPECIAL_TOKENS) or tuple(lines[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError("not a vocab file")
        return cls(lines[len(SPECIAL_TOKENS):])


@dataclass(frozen=True)
class TokenSequence:
    """Ordered token ids plus the casing policy they were produced under."""

    ids: tuple[int, ...]
    policy_used: CasePolicy

    def __len__(self) -> int:
        return len(self.ids)


def build_vocab(corpus_texts: Iterable[str], min_count: int = 1) -> Vocab:
    """Build a closed vocabulary from a stream of raw texts.

    Every surface form admits both itself and its lowercased form, so the
    same corpus supports lookups under either casing policy.  Tokens seen
    fewer than ``min_count`` times fall back to UNK at tokenize time.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for text in corpus_texts:
        for tok in split_text(text):
            counts[tok] += 1
            lowered = tok.lower()
            if lowered != tok:
                counts[lowered] += 1
    if not counts:
        raise ValueError("empty corpus")
    kept = sorted(tok for tok, c in counts.items() if c >= min_count)
    return Vocab(kept)


def tokenize(text: str, vocab: Vocab, policy: CasePolicy) -> TokenSequence:
    """Map text to token ids under ``policy``; unknown tokens become UNK."""
    if policy is CasePolicy.LOWERCASE:
        text = text.lower()
    ids = tuple(vocab.id_of(tok) for tok in split_text(text))
    return TokenSequence(ids=ids, policy_used=policy)
