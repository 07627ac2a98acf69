import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denseprf.composer import (
    PrfDepth,
    PrfTemplate,
    TemplateKind,
    compose,
    document_sequence,
    first_round_sequence,
)
from denseprf.tokenizer import TokenSequence, Vocab

BOS, SEP, MASK, Q = Vocab.bos_id, Vocab.sep_id, Vocab.mask_id, Vocab.q_mark_id
FIRST_REGULAR = 7  # ids below this are specials


def seq(*ids):
    return TokenSequence(ids=tuple(ids))


def ids_range(start, n):
    return seq(*range(start, start + n))


def test_ance_template_structure():
    query = ids_range(10, 2)
    docs = [ids_range(20, 3), ids_range(30, 2)]
    out = compose(query, docs, PrfTemplate(TemplateKind.ANCE, max_len=64), PrfDepth(2))
    assert out.ids == (BOS, 10, 11, SEP, 20, 21, 22, SEP, 30, 31, SEP)


def test_tct_template_structure_and_padding():
    query = ids_range(10, 2)
    docs = [ids_range(20, 3), ids_range(30, 2)]
    out = compose(query, docs, PrfTemplate(TemplateKind.TCT, max_len=16), PrfDepth(2))
    content = (BOS, Q, 10, 11, SEP, 20, 21, 22, SEP, 30, 31)
    assert out.ids == content + (MASK,) * (16 - len(content))
    assert len(out) == 16


def test_ance_truncation_arithmetic():
    # 1 + 8 + 1 + 3*(200+1) = 613 tokens before truncation to 512.
    query = ids_range(10, 8)
    docs = [ids_range(100, 200), ids_range(300, 200), ids_range(500, 200)]
    template = PrfTemplate(TemplateKind.ANCE, max_len=512)
    out = compose(query, docs, template, PrfDepth(3))
    assert len(out) == 512
    untruncated = [BOS, *query.ids, SEP]
    for d in docs:
        untruncated.extend(d.ids)
        untruncated.append(SEP)
    assert len(untruncated) == 613
    assert out.ids == tuple(untruncated[:512])


def test_tct_pads_494_masks():
    query = ids_range(10, 5)
    docs = [ids_range(50, 10)]
    out = compose(query, docs, PrfTemplate(TemplateKind.TCT, max_len=512), PrfDepth(1))
    assert len(out) == 512
    assert out.ids[-494:] == (MASK,) * 494
    assert MASK not in out.ids[:18]


def test_ance_empty_document():
    query = ids_range(10, 6)
    out = compose(
        query, [seq()], PrfTemplate(TemplateKind.ANCE, max_len=64), PrfDepth(1)
    )
    assert out.ids == (BOS, *query.ids, SEP, SEP)
    assert len(out) == len(query) + 3


def test_insufficient_feedback():
    with pytest.raises(ValueError, match="insufficient feedback"):
        compose(ids_range(10, 2), [seq(1)], PrfTemplate(TemplateKind.ANCE), PrfDepth(2))


@pytest.mark.parametrize("kind", list(TemplateKind))
def test_query_too_long(kind):
    query = ids_range(10, 30)
    docs = [ids_range(50, 2)]
    with pytest.raises(ValueError, match="query too long"):
        compose(query, docs, PrfTemplate(kind, max_len=16), PrfDepth(1))


def test_query_never_truncated_but_docs_are():
    # Query plus specials exactly fills max_len: legal, docs fully dropped.
    query = ids_range(10, 14)
    docs = [ids_range(50, 5)]
    out = compose(query, docs, PrfTemplate(TemplateKind.ANCE, max_len=16), PrfDepth(1))
    assert out.ids == (BOS, *query.ids, SEP)


def test_depth_uses_only_top_k():
    query = ids_range(10, 2)
    docs = [ids_range(20, 2), ids_range(30, 2), ids_range(40, 2)]
    out = compose(query, docs, PrfTemplate(TemplateKind.ANCE, max_len=64), PrfDepth(2))
    assert 40 not in out.ids


def test_prefix_extension_across_depths():
    query = ids_range(10, 3)
    docs = [ids_range(20, 4), ids_range(40, 4), ids_range(60, 4)]
    template = PrfTemplate(TemplateKind.ANCE, max_len=128)
    prev = compose(query, docs, template, PrfDepth(2))
    cur = compose(query, docs, template, PrfDepth(3))
    assert cur.ids[: len(prev.ids)] == prev.ids


def test_depth_bounds():
    assert PrfDepth(1).k == 1
    assert PrfDepth(20).k == 20
    for bad in (0, 21, -3):
        with pytest.raises(ValueError, match="prf depth"):
            PrfDepth(bad)


def test_template_min_len():
    with pytest.raises(ValueError, match="max_len"):
        PrfTemplate(TemplateKind.ANCE, max_len=7)


token_lists = st.lists(
    st.integers(min_value=FIRST_REGULAR, max_value=500), min_size=0, max_size=40
)


@given(
    query_ids=st.lists(
        st.integers(min_value=FIRST_REGULAR, max_value=500), min_size=1, max_size=6
    ),
    doc_lists=st.lists(token_lists, min_size=1, max_size=5),
    kind=st.sampled_from(list(TemplateKind)),
    max_len=st.integers(min_value=16, max_value=96),
)
@settings(max_examples=200, deadline=None)
def test_length_bound_and_query_preservation(query_ids, doc_lists, kind, max_len):
    query = seq(*query_ids)
    docs = [seq(*d) for d in doc_lists]
    template = PrfTemplate(kind, max_len=max_len)
    out = compose(query, docs, template, PrfDepth(len(docs)))
    assert len(out) <= max_len
    if kind is TemplateKind.TCT:
        assert len(out) == max_len
    offset = 2 if kind is TemplateKind.TCT else 1
    assert out.ids[offset:offset + len(query_ids)] == tuple(query_ids)


def test_first_round_sequence_wrapping():
    out = first_round_sequence(ids_range(10, 3), max_len=16)
    assert out.ids == (BOS, 10, 11, 12, SEP)
    with pytest.raises(ValueError, match="query too long"):
        first_round_sequence(ids_range(10, 20), max_len=16)


def test_document_sequence_truncates_tail():
    out = document_sequence(ids_range(10, 30), max_len=16)
    assert len(out) == 16
    assert out.ids[0] == BOS
    assert out.ids[-1] == SEP
    assert out.ids[1:-1] == tuple(range(10, 24))
