import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denseprf.tokenizer import (
    SPECIAL_TOKENS,
    CasePolicy,
    Vocab,
    build_vocab,
    split_text,
    tokenize,
)


def test_special_ids_fixed_order():
    vocab = Vocab([])
    assert len(vocab) == 7
    assert [vocab.id_of(tok) for tok in SPECIAL_TOKENS] == list(range(7))
    assert vocab.bos_id == 0
    assert vocab.sep_id == 1
    assert vocab.mask_id == 2
    assert vocab.pad_id == 3
    assert vocab.unk_id == 4
    assert vocab.q_mark_id == 5
    assert vocab.d_mark_id == 6


def test_split_text_words_and_punctuation():
    assert split_text("Hello, world!") == ["Hello", ",", "world", "!"]
    assert split_text("a-b c_d") == ["a", "-", "b", "c_d"]
    assert split_text("   ") == []


def test_build_vocab_admits_both_casings():
    vocab = build_vocab(["Hello world"])
    assert "Hello" in vocab
    assert "hello" in vocab
    assert "world" in vocab


def test_lowercase_policy_matches_prefolded_text():
    vocab = build_vocab(["Hello World hello world"])
    lowered = tokenize("Hello World", vocab, CasePolicy.LOWERCASE)
    folded = tokenize("hello world", vocab, CasePolicy.PRESERVE)
    assert lowered.ids == folded.ids


def test_preserve_distinguishes_case_when_both_known():
    vocab = build_vocab(["Hello stuff", "hello stuff"])
    upper = tokenize("Hello", vocab, CasePolicy.PRESERVE)
    lower = tokenize("hello", vocab, CasePolicy.PRESERVE)
    assert upper.ids != lower.ids


def test_unknown_tokens_fall_back_to_unk():
    vocab = build_vocab(["known words only"])
    seq = tokenize("known mystery", vocab, CasePolicy.PRESERVE)
    assert seq.ids[0] == vocab.id_of("known")
    assert seq.ids[1] == vocab.unk_id


def test_min_count_filters_rare_tokens():
    vocab = build_vocab(["rare common common"], min_count=2)
    assert "common" in vocab
    assert "rare" not in vocab
    assert tokenize("rare", vocab, CasePolicy.PRESERVE).ids == (vocab.unk_id,)


def test_min_count_validation():
    with pytest.raises(ValueError, match="min_count"):
        build_vocab(["text"], min_count=0)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab(["", "   "])


def test_round_trip_without_unk():
    corpus = ["The quick Brown fox", "jumps over the lazy dog"]
    vocab = build_vocab(corpus)
    for text in corpus:
        words = split_text(text)
        ids = tokenize(text, vocab, CasePolicy.PRESERVE).ids
        assert Vocab.unk_id not in ids
        # One id per distinct word and one word per id: ids map back to text.
        assert len(set(zip(words, ids))) == len(set(words)) == len(set(ids))


@given(st.text(max_size=80))
@settings(max_examples=80, deadline=None)
def test_lowercase_idempotence(text):
    vocab = build_vocab(["seed words so the vocab is never empty", text or "x"])
    once = tokenize(text.lower(), vocab, CasePolicy.LOWERCASE)
    direct = tokenize(text, vocab, CasePolicy.LOWERCASE)
    assert once.ids == direct.ids


@given(st.text(max_size=80))
@settings(max_examples=80, deadline=None)
def test_tokenize_deterministic(text):
    vocab = build_vocab(["stable base vocabulary", text or "x"])
    a = tokenize(text, vocab, CasePolicy.PRESERVE)
    b = tokenize(text, vocab, CasePolicy.PRESERVE)
    assert a.ids == b.ids


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab(["Alpha beta Gamma delta"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocab.load(path)
    loaded.save(tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()
    assert loaded.id_of("beta") == vocab.id_of("beta")


def test_vocab_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("definitely\nnot\na\nvocab\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a vocab file"):
        Vocab.load(path)


def test_vocab_rejects_duplicate_and_reserved_tokens():
    with pytest.raises(ValueError, match="duplicate or reserved"):
        Vocab(["word", "word"])
    with pytest.raises(ValueError, match="duplicate or reserved"):
        Vocab(["<s>"])


def test_specials_never_produced_from_text():
    vocab = build_vocab(["plain text"])
    seq = tokenize("<s> [MASK]", vocab, CasePolicy.PRESERVE)
    assert vocab.bos_id not in seq.ids
    assert vocab.mask_id not in seq.ids
