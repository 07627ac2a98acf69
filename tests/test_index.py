import hashlib
import struct
import time
import tracemalloc

import numpy as np
import pytest

from denseprf.index import INDEX_MAGIC, VectorIndex

from oracles import exact_scores, naive_topk


def make_index(rng, n=20, dim=8, prefix="d"):
    vecs = rng.normal(size=(n, dim))
    ids = [f"{prefix}{i:03d}" for i in range(n)]
    return ids, vecs, VectorIndex.build(zip(ids, vecs))


def test_build_basic():
    rng = np.random.default_rng(0)
    _, _, index = make_index(rng)
    assert len(index) == 20
    assert index.dim == 8
    assert isinstance(index.checksum, int)


def test_build_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate doc_id d1"):
        VectorIndex.build([("d1", np.ones(4)), ("d1", np.zeros(4))])


def test_build_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch for doc_id d2"):
        VectorIndex.build([("d1", np.ones(4)), ("d2", np.ones(5))])


def test_build_rejects_empty_and_bad_shape():
    with pytest.raises(ValueError, match="empty index"):
        VectorIndex.build([])
    with pytest.raises(ValueError, match="vectors must be 1-D"):
        VectorIndex.build([("d1", np.ones((2, 2)))])


def test_vector_round_trips_float32():
    rng = np.random.default_rng(1)
    ids, vecs, index = make_index(rng)
    stored = index.vector("d003")
    assert stored.dtype == np.float64
    assert np.array_equal(stored, vecs[3].astype(np.float32).astype(np.float64))
    with pytest.raises(KeyError):
        index.vector("nope")


def test_entries_preserve_insertion_order(tmp_path):
    # Rows keep build order, not doc-id order, in memory and on disk.
    rng = np.random.default_rng(2)
    ids = ["d5", "d0", "d3", "d1"]
    vecs = rng.normal(size=(4, 3))
    index = VectorIndex.build(zip(ids, vecs))
    for doc_id, orig in zip(ids, vecs):
        assert np.array_equal(index.vector(doc_id), orig.astype(np.float32))
    index.save(tmp_path / "docs.idx")
    rows = b"".join(
        struct.pack("<i", 2) + d.encode() + v.astype("<f4").tobytes()
        for d, v in zip(ids, vecs)
    )
    assert (tmp_path / "docs.idx").read_bytes()[len(INDEX_MAGIC) + 8:-8] == rows


def test_search_matches_naive_oracle():
    rng = np.random.default_rng(3)
    ids, vecs, index = make_index(rng, n=500, dim=16)
    vec32 = vecs.astype(np.float32).astype(np.float64)
    for k in (1, 7, 100, 500):
        q = rng.normal(size=16)
        results = index.search(q, k)
        expected = naive_topk(ids, vec32, q, k)
        assert [(r.doc_id, r.score) for r in results] == expected
        assert [r.rank for r in results] == list(range(1, len(expected) + 1))


def test_search_scores_match_exact_accumulation():
    # Guard the scoring arithmetic itself: reported scores agree with
    # correctly rounded sums far below any meaningful score separation.
    rng = np.random.default_rng(12)
    ids, vecs, index = make_index(rng, n=200, dim=32)
    q = rng.normal(size=32)
    results = index.search(q, k=200)
    reference = dict(zip(ids, exact_scores(vecs.astype(np.float32), q)))
    for r in results:
        ref = reference[r.doc_id]
        assert abs(r.score - ref) <= 1e-12 * max(1.0, abs(ref))


def test_search_breaks_ties_by_doc_id():
    # Identical vectors score bitwise-equal; order must be doc_id ascending
    # regardless of insertion order.
    v = np.array([1.0, 2.0, 3.0])
    index = VectorIndex.build([("zz", v), ("aa", v), ("mm", v), ("bb", 2 * v)])
    results = index.search(np.ones(3), k=4)
    assert [r.doc_id for r in results] == ["bb", "aa", "mm", "zz"]
    assert results[1].score == results[2].score == results[3].score


def full_sort(ids, vectors, q):
    """Every row lexsorted on (-score, doc_id), scores as hex."""
    scores = vectors @ q
    order = np.lexsort((np.asarray(ids), -scores))
    return [(ids[i], float(scores[i]).hex()) for i in order]


@pytest.mark.parametrize("case", ["ties", "duplicates", "distinct"])
def test_search_partial_selection_equals_full_sort(case):
    # search sorts only the rows at or above the k-th score; it must return
    # the same ids, score bits and tie order as sorting every row.
    rng = np.random.default_rng(["ties", "duplicates", "distinct"].index(case))
    n, dim = 96, 4
    if case == "ties":  # few distinct scores: many exact ties at every cut
        vecs = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
    elif case == "duplicates":
        vecs = np.repeat(rng.normal(size=(n // 8, dim)), 8, axis=0)
    else:
        vecs = rng.normal(size=(n, dim))
    ids = [f"d{i:03d}" for i in rng.permutation(n)]  # row order != id order
    index = VectorIndex.build(zip(ids, vecs))
    stored = np.stack([index.vector(d) for d in ids])
    ties_at_cut = 0
    for _ in range(5):
        for q in (rng.integers(-2, 3, size=dim).astype(np.float64),
                  rng.normal(size=dim)):
            full = full_sort(ids, stored, q)
            for k in (1, 2, 7, n // 2, n - 1, n, n + 5):
                results = index.search(q, k)
                got = [(r.doc_id, r.score.hex()) for r in results]
                assert got == full[:k]
                assert got == [(d, s.hex()) for d, s in naive_topk(ids, stored, q, k)]
                assert [r.rank for r in results] == list(range(1, len(got) + 1))
                ties_at_cut += k < n and full[k - 1][1] == full[k][1]
    if case != "distinct":
        assert ties_at_cut > 10


def test_search_k_larger_than_index():
    rng = np.random.default_rng(4)
    _, _, index = make_index(rng, n=5)
    assert len(index.search(rng.normal(size=8), k=50)) == 5


def test_search_topk_is_prefix_of_larger_k():
    rng = np.random.default_rng(5)
    _, _, index = make_index(rng, n=60)
    q = rng.normal(size=8)
    small = index.search(q, k=10)
    big = index.search(q, k=40)
    assert [(r.doc_id, r.score, r.rank) for r in small] == [
        (r.doc_id, r.score, r.rank) for r in big[:10]
    ]


def test_search_validation():
    rng = np.random.default_rng(6)
    _, _, index = make_index(rng)
    with pytest.raises(ValueError, match="dimension mismatch"):
        index.search(np.ones(9), k=1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        index.search(np.ones(8), k=0)


def test_checksum_stable_across_searches():
    rng = np.random.default_rng(7)
    _, _, index = make_index(rng)
    before = index.checksum
    for _ in range(10):
        index.search(rng.normal(size=8), k=3)
    assert index.checksum == before


def test_checksum_sensitive_to_content_and_order():
    v1, v2 = np.ones(4), np.arange(4.0)
    a = VectorIndex.build([("d1", v1), ("d2", v2)])
    b = VectorIndex.build([("d2", v2), ("d1", v1)])
    c = VectorIndex.build([("d1", v1), ("d2", v2 + 1)])
    assert a.checksum != b.checksum
    assert a.checksum != c.checksum
    same = VectorIndex.build([("d1", v1), ("d2", v2)])
    assert a.checksum == same.checksum


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    _, _, index = make_index(rng, n=50, dim=12)
    path = tmp_path / "docs.idx"
    index.save(path)
    loaded = VectorIndex.load(path)
    assert loaded == index
    assert loaded.checksum == index.checksum


def test_save_writes_canonical_layout(tmp_path):
    v1, v2 = np.array([1.0, -2.5]), np.array([0.25, 3.0])
    index = VectorIndex.build([("d1", v1), ("doc\u00e9", v2)])
    path = tmp_path / "docs.idx"
    index.save(path)
    payload = struct.pack("<ii", 2, 2)
    for doc_id, v in (("d1", v1), ("doc\u00e9", v2)):
        raw = doc_id.encode("utf-8")
        payload += struct.pack("<i", len(raw)) + raw + v.astype("<f4").tobytes()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    assert path.read_bytes() == INDEX_MAGIC + payload + digest
    assert index.checksum == int.from_bytes(digest, "little")


def test_load_holds_little_beyond_the_index(tmp_path):
    # Loading used to keep three copies of the file plus a re-serialized
    # payload alive at once; now the transient is about one file's bytes.
    rng = np.random.default_rng(12)
    _, _, index = make_index(rng, n=10_000, dim=16)
    path = tmp_path / "docs.idx"
    index.save(path)
    tracemalloc.start()
    try:
        loaded = VectorIndex.load(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == index
    assert peak - kept < 2 * path.stat().st_size


def test_equality_semantics():
    v = np.ones(4)
    a = VectorIndex.build([("d1", v), ("d2", 2 * v)])
    b = VectorIndex.build([("d1", v), ("d2", 2 * v)])
    c = VectorIndex.build([("d2", 2 * v), ("d1", v)])
    assert a == b
    assert a != c  # entry order is part of identity
    assert a != "not an index"


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"WRONG!!" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not an index file"):
        VectorIndex.load(path)


def test_load_rejects_flipped_byte(tmp_path):
    rng = np.random.default_rng(9)
    _, _, index = make_index(rng)
    path = tmp_path / "docs.idx"
    index.save(path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="corrupt index"):
        VectorIndex.load(path)


def test_load_rejects_truncation(tmp_path):
    rng = np.random.default_rng(10)
    _, _, index = make_index(rng)
    path = tmp_path / "docs.idx"
    index.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 3])
    with pytest.raises(ValueError, match="corrupt index"):
        VectorIndex.load(path)
    path.write_bytes(data[:10])
    with pytest.raises(ValueError, match="corrupt index"):
        VectorIndex.load(path)


@pytest.mark.parametrize("dim, id_len", [(-1, 0), (0, -4)])
def test_load_bounds_work_by_file_size(tmp_path, dim, id_len):
    # A resealed 27-byte file whose header claims 10^6 rows; with dim -1 or a
    # negative id length every loop step used to return to where it started.
    payload = struct.pack("<iii", dim, 1_000_000, id_len)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    path = tmp_path / "crafted.idx"
    path.write_bytes(INDEX_MAGIC + payload + digest)
    assert path.stat().st_size == 27
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="corrupt index"):
            VectorIndex.load(path)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1_000_000


def test_load_rejects_id_length_past_end(tmp_path):
    payload = struct.pack("<iii", 2, 1, 100) + b"d1" + b"\x00" * 8
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    path = tmp_path / "crafted.idx"
    path.write_bytes(INDEX_MAGIC + payload + digest)
    with pytest.raises(ValueError, match="corrupt index"):
        VectorIndex.load(path)


def test_large_round_trip_checksum(tmp_path):
    rng = np.random.default_rng(11)
    _, _, index = make_index(rng, n=10_000, dim=16)
    path = tmp_path / "big.idx"
    index.save(path)
    loaded = VectorIndex.load(path)
    assert loaded == index
    assert loaded.checksum == index.checksum
    q = rng.normal(size=16)
    assert [
        (r.doc_id, r.score) for r in loaded.search(q, 25)
    ] == [(r.doc_id, r.score) for r in index.search(q, 25)]
