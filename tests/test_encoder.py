import hashlib
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest

from denseprf.encoder import (
    PARAMS_MAGIC,
    EncoderConfig,
    GradExample,
    HeadPolicy,
    encode,
    grad,
    init_params,
    init_prf_encoder,
    load_params,
    nce_terms,
    param_count,
    param_layout,
    save_params,
    _gelu_fwd,
)
from denseprf.tokenizer import TokenSequence

from instances import batch_loss
from oracles import forward_oracle, nce_loss_scalar


def seq(*ids):
    return TokenSequence(ids=tuple(ids))


def small_params(dim=8, heads=2, layers=1, vocab=12, max_len=12, seed=3, scale=0.3):
    cfg = EncoderConfig(
        vocab_size=vocab, dim=dim, layers=layers, heads=heads, max_len=max_len
    )
    return init_params(cfg, seed=seed, scale=scale)


# -- config and init ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(vocab_size=10, dim=10, heads=4)
    with pytest.raises(ValueError, match="layers"):
        EncoderConfig(vocab_size=10, dim=8, heads=2, layers=0)
    with pytest.raises(ValueError, match="max_len"):
        EncoderConfig(vocab_size=10, dim=8, heads=2, max_len=4)
    with pytest.raises(ValueError, match="vocab_size"):
        EncoderConfig(vocab_size=0, dim=8, heads=2)
    with pytest.raises(ValueError, match="heads must be >= 1"):
        EncoderConfig(vocab_size=10, dim=8, heads=0)
    with pytest.raises(ValueError, match="heads must be >= 1"):
        EncoderConfig(vocab_size=10, dim=8, heads=-2)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        EncoderConfig(vocab_size=10, dim=-8, heads=2)
    assert EncoderConfig(vocab_size=10, dim=8, heads=2).ff_dim == 32


def test_init_scale_validation():
    cfg = EncoderConfig(vocab_size=10, dim=8, heads=2)
    for bad in (0.0, -0.5, 10.0, 11.0):
        with pytest.raises(ValueError, match="scale out of range"):
            init_params(cfg, seed=0, scale=bad)
    init_params(cfg, seed=0, scale=9.5)


def test_init_params_deterministic():
    a = small_params(seed=11)
    b = small_params(seed=11)
    assert np.array_equal(a.flat, b.flat)
    c = small_params(seed=12)
    assert not np.array_equal(a.flat, c.flat)


def test_init_params_identity_norms_zero_biases():
    p = small_params()
    for layer in p.layers:
        assert np.array_equal(layer.ln1_g, np.ones(8))
        assert np.array_equal(layer.ln2_b, np.zeros(8))
        assert np.array_equal(layer.bq, np.zeros(8))
    assert np.array_equal(p.head.ln_g, np.ones(8))
    assert np.array_equal(p.head.b, np.zeros(8))


# -- parameter layout ------------------------------------------------------------


def test_layout_tiles_flat_in_file_order():
    p = small_params(layers=2)
    layout = param_layout(p.config)
    names = [name for name, _, _ in layout]
    assert names[:3] == ["tok_emb", "pos_emb", "layers.0.wq"]
    assert names[-4:] == ["head.w", "head.b", "head.ln_g", "head.ln_b"]
    assert len(names) == len(set(names)) == 2 + 2 * 16 + 4
    offset = 0
    for name, off, shape in layout:
        assert off == offset, name
        offset += math.prod(shape)
    assert offset == param_count(p.config) == p.flat.size
    assert p.flat.dtype == np.float64
    assert p.tok_emb.shape == (12, 8) and p.layers[1].w1.shape == (8, 32)
    # named tensors are views: writes land in flat at the layout offset
    _, off, _ = layout[names.index("layers.1.w2")]
    p.layers[1].w2[0, 1] = 123.0
    assert p.flat[off + 1] == 123.0


# -- forward pass ----------------------------------------------------------------


def test_encode_deterministic_bitwise():
    p = small_params()
    tokens = seq(0, 4, 7, 1)
    a = encode(p, tokens)
    b = encode(p, tokens)
    assert np.array_equal(a, b)
    assert a.shape == (8,)
    assert a.dtype == np.float64


def test_annihilating_head_gives_zero_vector():
    # Zero head weight and bias collapse z to the zero vector; layer norm of a
    # constant vector is exactly zero when the gain is 1 and bias is 0.
    p = small_params()
    p.head.w[...] = 0.0
    p.head.b[...] = 0.0
    out = encode(p, seq(0, 3, 5, 1))
    assert np.array_equal(out, np.zeros(8))


def test_forward_matches_hand_oracle():
    cfg = EncoderConfig(vocab_size=9, dim=6, layers=1, heads=1, max_len=8)
    p = init_params(cfg, seed=5, scale=0.4)
    for ids in [(0, 2, 1), (3, 3, 4, 8, 1), (7,)]:
        lib = encode(p, seq(*ids))
        ref = forward_oracle(p, ids)
        assert np.max(np.abs(lib - ref)) <= 1e-6


@pytest.mark.parametrize("scale", [0.5, 2.0, 8.0])
def test_gelu_cube_by_products_matches_pow_form(scale):
    # The FFN's GELU cubes by multiplication; the pow form is the definition.
    # Checked on the (T, 4 * dim) pre-activations it sees at the synthetic and
    # TCT shapes, within 1e-14 absolute.
    rng = np.random.default_rng(int(scale * 10))
    for rows in (60, 128):
        x = rng.normal(scale=scale, size=(rows, 4 * 48))
        t_ref = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3))
        y, t = _gelu_fwd(x)
        assert np.max(np.abs(t - t_ref)) <= 1e-14
        assert np.max(np.abs(y - 0.5 * x * (1.0 + t_ref))) <= 1e-14


def test_forward_error_cases():
    p = small_params(vocab=12, max_len=12)
    with pytest.raises(ValueError, match="empty sequence"):
        encode(p, seq())
    with pytest.raises(ValueError, match="sequence too long"):
        encode(p, seq(*([1] * 13)))
    with pytest.raises(ValueError, match="token id out of range"):
        encode(p, seq(0, 12, 1))
    with pytest.raises(ValueError, match="token id out of range"):
        encode(p, seq(0, -1, 1))


def test_mask_positions_participate():
    # MASK padding is ordinary content to the encoder: padding changes the
    # output rather than being ignored.
    p = small_params()
    short = encode(p, seq(0, 4, 1))
    padded = encode(p, seq(0, 4, 1, 2, 2, 2))
    assert not np.allclose(short, padded)


# -- head policy ---------------------------------------------------------------------


def test_inherit_head_copies_everything():
    base = small_params()
    prf = init_prf_encoder(base, HeadPolicy.INHERIT, seed=99)
    assert np.array_equal(base.flat, prf.flat)
    prf.head.w[0, 0] += 1.0
    assert base.head.w[0, 0] != prf.head.w[0, 0]


def test_reinit_head_redraws_only_head():
    base = small_params()
    prf = init_prf_encoder(base, HeadPolicy.REINIT, seed=99)
    assert np.array_equal(base.tok_emb, prf.tok_emb)
    assert np.array_equal(base.layers[0].wq, prf.layers[0].wq)
    assert not np.array_equal(base.head.w, prf.head.w)
    bound = 1.0 / np.sqrt(base.config.dim)
    assert np.all(np.abs(prf.head.w) <= bound)
    assert np.array_equal(prf.head.b, np.zeros(8))
    assert np.array_equal(prf.head.ln_g, np.ones(8))
    assert np.array_equal(prf.head.ln_b, np.zeros(8))
    again = init_prf_encoder(base, HeadPolicy.REINIT, seed=99)
    assert np.array_equal(prf.head.w, again.head.w)


# -- loss ---------------------------------------------------------------------------


def test_nce_uniform_closed_form():
    for n in (1, 8, 21):
        scores = np.zeros(n + 1)
        loss, p = nce_terms(scores)
        assert abs(loss - np.log1p(n)) <= 1e-12
        assert np.allclose(p, np.full(n + 1, 1.0 / (n + 1)))


def test_nce_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        scores = rng.normal(scale=3.0, size=6)
        loss, _ = nce_terms(scores)
        ref = nce_loss_scalar(scores[0], scores[1:])
        assert abs(loss - ref) <= 1e-12


def test_nce_saturation_stays_positive():
    loss, _ = nce_terms(np.array([50.0, 0.0, 0.0, 0.0]))
    assert 0.0 < loss < 1e-20


def test_nce_dominant_negative():
    loss, _ = nce_terms(np.array([0.0, 800.0]))
    assert np.isfinite(loss)
    assert abs(loss - 800.0) < 1e-9


# -- gradients -------------------------------------------------------------------------


def make_batch(params, rng, n_examples=2, n_negs=3):
    cfg = params.config
    batch = []
    for _ in range(n_examples):
        length = int(rng.integers(2, cfg.max_len // 2))
        ids = rng.integers(0, cfg.vocab_size, size=length)
        batch.append(
            GradExample(
                tokens=seq(*ids.tolist()),
                positive=rng.normal(size=cfg.dim),
                negatives=rng.normal(size=(n_negs, cfg.dim)),
            )
        )
    return batch


def test_grad_loss_matches_manual():
    p = small_params()
    rng = np.random.default_rng(21)
    batch = make_batch(p, rng)
    expected = 0.0
    for ex in batch:
        q = encode(p, ex.tokens)
        pos = float(ex.positive @ q)
        negs = [float(n @ q) for n in ex.negatives]
        expected += nce_loss_scalar(pos, negs)
    expected /= len(batch)
    assert abs(grad(p, batch)[0] - expected) <= 1e-10


def test_grad_matches_finite_differences():
    p = small_params(dim=8, heads=2, layers=1, vocab=10, max_len=10, scale=0.3)
    rng = np.random.default_rng(42)
    step = 1e-4
    for _ in range(3):
        batch = make_batch(p, rng)
        loss, g = grad(p, batch)
        assert abs(loss - batch_loss(p, batch)) <= 1e-12
        flat, gflat = p.flat, g.flat
        for name, off, shape in param_layout(p.config):
            size = math.prod(shape)
            # probe a handful of coordinates per tensor
            idx = off + rng.choice(size, size=min(5, size), replace=False)
            for j in idx:
                orig = flat[j]
                flat[j] = orig + step
                hi = batch_loss(p, batch)
                flat[j] = orig - step
                lo = batch_loss(p, batch)
                flat[j] = orig
                fd = (hi - lo) / (2.0 * step)
                rel = abs(gflat[j] - fd) / max(abs(gflat[j]), abs(fd), 1e-6)
                assert rel <= 1e-4, f"{name}[{j - off}]: analytic {gflat[j]} vs fd {fd}"


def test_grad_zero_when_head_ln_gain_zero():
    # With the head layer-norm gain zeroed the output is constant in every
    # upstream parameter, so upstream gradients vanish.
    p = small_params()
    p.head.ln_g[...] = 0.0
    rng = np.random.default_rng(3)
    batch = make_batch(p, rng)
    _, g = grad(p, batch)
    assert not g.tok_emb.any()
    assert not g.layers[0].wq.any()
    assert not g.head.w.any()


def test_grad_empty_batch():
    p = small_params()
    with pytest.raises(ValueError, match="empty batch"):
        grad(p, [])


def test_overflow_reported_with_example_index():
    p = small_params()
    good = GradExample(
        tokens=seq(0, 1), positive=np.ones(8), negatives=np.ones((2, 8))
    )
    bad = GradExample(
        tokens=seq(0, 1), positive=np.full(8, np.nan), negatives=np.ones((2, 8))
    )
    with pytest.raises(ValueError, match="numerical overflow in example 1"):
        grad(p, [good, bad])


# -- persistence -----------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    p = small_params(layers=2)
    path = tmp_path / "enc.bin"
    save_params(p, path)
    loaded = load_params(path)
    assert loaded.config == p.config
    assert np.array_equal(p.flat, loaded.flat)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTPRF1" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a params file"):
        load_params(path)


def test_load_rejects_truncated(tmp_path):
    p = small_params()
    path = tmp_path / "enc.bin"
    save_params(p, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])
    with pytest.raises(ValueError, match="corrupt params file"):
        load_params(path)


def test_load_rejects_trailing_garbage(tmp_path):
    p = small_params()
    path = tmp_path / "enc.bin"
    save_params(p, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="corrupt params file"):
        load_params(path)


def test_load_rejects_non_finite(tmp_path):
    p = small_params()
    p.tok_emb[0, 0] = np.inf
    path = tmp_path / "enc.bin"
    save_params(p, path)
    with pytest.raises(ValueError, match="corrupt params file"):
        load_params(path)


def test_load_checks_size_before_allocating(tmp_path):
    # A header claiming a 200,000 x 64 token table (~100 MB) with no body must
    # be rejected from the file length alone.
    path = tmp_path / "huge.bin"
    path.write_bytes(PARAMS_MAGIC + struct.pack("<5i", 64, 2, 4, 512, 200_000))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="corrupt params file"):
            load_params(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("layers", [20_000, 2**31 - 1])
def test_load_rejects_huge_layer_count_in_constant_cost(tmp_path, layers):
    # A 27-byte file whose header claims a huge layer count must be rejected
    # without building a per-layer layout first.
    path = tmp_path / "layers.bin"
    path.write_bytes(PARAMS_MAGIC + struct.pack("<5i", 8, layers, 2, 8, 10))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="corrupt params file"):
            load_params(path)
        secs = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert secs < 0.5
    assert peak < 1_000_000


@pytest.mark.parametrize("dim,heads,layers,vocab,max_len", [
    (8, 2, 1, 12, 12), (16, 4, 3, 50, 64), (48, 4, 2, 3000, 128), (6, 3, 5, 1, 8),
])
def test_param_count_closed_form_equals_layout_end(dim, heads, layers, vocab, max_len):
    cfg = EncoderConfig(
        vocab_size=vocab, dim=dim, layers=layers, heads=heads, max_len=max_len
    )
    _, offset, shape = param_layout(cfg)[-1]
    assert param_count(cfg) == offset + math.prod(shape)


def _file_digest(params, path):
    save_params(params, path)
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def test_params_file_golden_digest(tmp_path):
    # Pins the PRFENC1 byte layout and the init draw order.
    p = small_params(layers=2)
    assert _file_digest(p, tmp_path / "p.enc") == "5e4dda9412ce79a29690ac6e95208a0f"
