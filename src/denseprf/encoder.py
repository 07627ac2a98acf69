"""Small transformer dual-encoder with exact analytic gradients.

The encoder embeds a token sequence, runs it through post-norm attention
blocks, pools the final-layer representation at position 0 (the BOS slot)
and applies a linear head followed by layer normalization.  Mask/padding
positions attend like any other token.  Everything is float64 numpy.

All parameters of one encoder live in one contiguous float64 vector,
``EncoderParams.flat``, laid out by ``param_layout``; the named tensors are
views into it.  Gradients and optimizer moments use the same layout, so the
optimizer updates whole vectors and params files are a header plus that one
buffer.

The analytic backward pass is checked against central finite differences in
the test suite; keep the two in sync when touching either.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .tokenizer import TokenSequence

EmbeddingVector = np.ndarray  # shape (dim,), float64

_LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715

PARAMS_MAGIC = b"PRFENC1"


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    dim: int = 64
    layers: int = 2
    heads: int = 4
    max_len: int = 512

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.max_len < 8:
            raise ValueError("max_len must be >= 8")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")

    @property
    def ff_dim(self) -> int:
        return 4 * self.dim


LayoutEntry = tuple[str, int, tuple[int, ...]]


@functools.lru_cache(maxsize=32)
def param_layout(config: EncoderConfig) -> tuple[LayoutEntry, ...]:
    """(name, offset, shape) of every tensor in the flat parameter vector.

    This is the single definition of tensor names, order and sizes: the
    PRFENC1 body, gradients and optimizer moments all follow it.
    """
    d, f = config.dim, config.ff_dim
    layer_shapes = {
        "wq": (d, d), "bq": (d,), "wk": (d, d), "bk": (d,),
        "wv": (d, d), "bv": (d,), "wo": (d, d), "bo": (d,),
        "ln1_g": (d,), "ln1_b": (d,), "w1": (d, f), "b1": (f,),
        "w2": (f, d), "b2": (d,), "ln2_g": (d,), "ln2_b": (d,),
    }
    shapes = [("tok_emb", (config.vocab_size, d)), ("pos_emb", (config.max_len, d))]
    for i in range(config.layers):
        shapes += [(f"layers.{i}.{name}", shape) for name, shape in layer_shapes.items()]
    shapes += [("head.w", (d, d)), ("head.b", (d,)), ("head.ln_g", (d,)), ("head.ln_b", (d,))]
    layout, offset = [], 0
    for name, shape in shapes:
        layout.append((name, offset, shape))
        offset += math.prod(shape)
    return tuple(layout)


def param_count(config: EncoderConfig) -> int:
    """The end of ``param_layout``, in closed form: no layout is built, so an
    untrusted header's layer count costs nothing to check."""
    d, f = config.dim, config.ff_dim
    per_layer = 4 * (d * d + d) + 2 * d * f + f + 5 * d
    head = d * d + 3 * d
    return (config.vocab_size + config.max_len) * d + config.layers * per_layer + head


class EncoderParams:
    """One encoder's parameters: a flat float64 vector plus named views.

    ``tok_emb``, ``pos_emb``, ``layers[i].<name>`` and ``head.<name>`` are
    reshaped views into ``flat`` built once here, so in-place writes through
    any of them change ``flat``.  The head comes last in the layout so it can
    be inherited or re-initialized independently of the body.
    """

    def __init__(self, config: EncoderConfig, flat: np.ndarray):
        if flat.dtype != np.float64 or flat.shape != (param_count(config),):
            raise ValueError("flat vector does not match the parameter layout")
        self.config = config
        self.flat = flat
        views = {
            name: flat[off:off + math.prod(shape)].reshape(shape)
            for name, off, shape in param_layout(config)
        }
        self.tok_emb = views["tok_emb"]
        self.pos_emb = views["pos_emb"]
        self.layers = tuple(
            _view_group(views, f"layers.{i}.") for i in range(config.layers)
        )
        self.head = _view_group(views, "head.")


def _view_group(views: dict[str, np.ndarray], prefix: str) -> SimpleNamespace:
    return SimpleNamespace(**{
        name[len(prefix):]: view
        for name, view in views.items() if name.startswith(prefix)
    })


class HeadPolicy(Enum):
    INHERIT = "inherit"
    REINIT = "reinit"


def init_params(config: EncoderConfig, seed: int, scale: float = 0.02) -> EncoderParams:
    """Randomly initialized encoder (normal ``scale`` weights, identity norms).

    Larger scales make a random encoder mix token content into the pooled
    position; at the 0.02 default the first position barely attends anywhere.
    """
    if not 0.0 < scale < 10.0:
        raise ValueError("scale out of range")
    rng = np.random.default_rng(seed)
    params = EncoderParams(config, np.zeros(param_count(config)))
    # The draw order is part of what a seed means; it is not the layout order.
    for layer in params.layers:
        for w in (layer.wq, layer.wk, layer.wv, layer.wo, layer.w1, layer.w2):
            w[...] = rng.normal(0.0, scale, size=w.shape)
        layer.ln1_g[...] = 1.0
        layer.ln2_g[...] = 1.0
    for w in (params.head.w, params.tok_emb, params.pos_emb):
        w[...] = rng.normal(0.0, scale, size=w.shape)
    params.head.ln_g[...] = 1.0
    return params


def init_prf_encoder(
    base: EncoderParams, head_policy: HeadPolicy, seed: int
) -> EncoderParams:
    """Copy of ``base`` whose head is either inherited verbatim or redrawn.

    Re-initialization draws head.w uniformly from +-1/sqrt(dim), zeroes
    head.b and resets the head layer norm to identity (gain 1, bias 0).
    """
    new = EncoderParams(base.config, base.flat.copy())
    if head_policy is HeadPolicy.REINIT:
        d = base.config.dim
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(d)
        new.head.w[...] = rng.uniform(-bound, bound, size=(d, d))
        new.head.b[...] = 0.0
        new.head.ln_g[...] = 1.0
        new.head.ln_b[...] = 0.0
    return new


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _layer_norm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _layer_norm_bwd(dy: np.ndarray, g: np.ndarray, cache):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _gelu_fwd(x: np.ndarray):
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_bwd(dy: np.ndarray, x: np.ndarray, t: np.ndarray):
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    t, d = x.shape
    return x.reshape(t, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dh)


def _forward(params: EncoderParams, ids: Sequence[int], want_cache: bool):
    cfg = params.config
    t = len(ids)
    if t == 0:
        raise ValueError("empty sequence")
    if t > cfg.max_len:
        raise ValueError("sequence too long")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.max() >= cfg.vocab_size or idx.min() < 0:
        raise ValueError("token id out of range")

    scale = 1.0 / np.sqrt(cfg.dim // cfg.heads)
    x = params.tok_emb[idx] + params.pos_emb[:t]
    caches = []
    for layer in params.layers:
        x_in = x
        q = x @ layer.wq + layer.bq
        k = x @ layer.wk + layer.bk
        v = x @ layer.wv + layer.bv
        qh = _split_heads(q, cfg.heads)
        kh = _split_heads(k, cfg.heads)
        vh = _split_heads(v, cfg.heads)
        s = qh @ kh.transpose(0, 2, 1) * scale
        s -= s.max(axis=-1, keepdims=True)
        e = np.exp(s)
        a = e / e.sum(axis=-1, keepdims=True)
        oh = a @ vh
        o = _merge_heads(oh)
        attn = o @ layer.wo + layer.bo
        u = x_in + attn
        x_mid, ln1_cache = _layer_norm_fwd(u, layer.ln1_g, layer.ln1_b)
        h1 = x_mid @ layer.w1 + layer.b1
        h2, gelu_t = _gelu_fwd(h1)
        f = h2 @ layer.w2 + layer.b2
        w = x_mid + f
        x, ln2_cache = _layer_norm_fwd(w, layer.ln2_g, layer.ln2_b)
        if want_cache:
            caches.append(
                (x_in, qh, kh, vh, a, o, ln1_cache, x_mid, h1, gelu_t, h2, ln2_cache)
            )

    pooled = x[0]
    z = pooled @ params.head.w + params.head.b
    out, head_ln_cache = _layer_norm_fwd(z[None, :], params.head.ln_g, params.head.ln_b)
    out = out[0]
    if not want_cache:
        return out, None
    return out, (idx, t, scale, caches, pooled, head_ln_cache)


def encode(params: EncoderParams, tokens: TokenSequence) -> EmbeddingVector:
    """Deterministic forward pass to the pooled, head-projected embedding."""
    out, _ = _forward(params, tokens.ids, want_cache=False)
    return out


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradExample:
    """One contrastive example with document embeddings already resolved."""

    tokens: TokenSequence
    positive: np.ndarray          # (dim,)
    negatives: np.ndarray         # (n_neg, dim), n_neg >= 1


def nce_terms(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """Stable loss and softmax probabilities for [positive, negatives...] scores.

    The positive-is-max branch uses log1p so the loss stays strictly
    positive even deep in saturation.
    """
    m = scores.max()
    e = np.exp(scores - m)
    se = e.sum()
    p = e / se
    if scores[0] == m:
        loss = float(np.log1p(e[1:].sum()))
    else:
        loss = float(np.log(se) + m - scores[0])
    return loss, p


def grad(
    params: EncoderParams, batch: Sequence[GradExample]
) -> tuple[float, EncoderParams]:
    """Batch-mean loss and exact analytic gradients for every parameter.

    Document embeddings are constants (the document side is frozen); the
    gradient flows only through the query encoder.
    """
    if not batch:
        raise ValueError("empty batch")
    cfg = params.config
    grads = EncoderParams(cfg, np.zeros_like(params.flat))
    total_loss = 0.0

    for i, ex in enumerate(batch):
        q, cache = _forward(params, ex.tokens.ids, want_cache=True)
        loss, p = nce_terms(np.concatenate(([ex.positive @ q], ex.negatives @ q)))
        if not np.isfinite(loss) or not np.all(np.isfinite(p)):
            raise ValueError(f"numerical overflow in example {i}")
        total_loss += loss

        # dL/dq: softmax probs against the one-hot positive
        coef = p.copy()
        coef[0] -= 1.0
        d_q = coef[0] * ex.positive + coef[1:] @ ex.negatives

        idx, t, scale, layer_caches, pooled, head_ln_cache = cache
        d_out = d_q[None, :]
        dz, dg, db = _layer_norm_bwd(d_out, params.head.ln_g, head_ln_cache)
        grads.head.ln_g += dg
        grads.head.ln_b += db
        dz = dz[0]
        grads.head.w += np.outer(pooled, dz)
        grads.head.b += dz
        d_pooled = params.head.w @ dz

        dx = np.zeros((t, cfg.dim))
        dx[0] = d_pooled

        for layer, lc, glayer in zip(
            reversed(params.layers), reversed(layer_caches), reversed(grads.layers)
        ):
            (x_in, qh, kh, vh, a, o, ln1_cache, x_mid, h1, gelu_t, h2,
             ln2_cache) = lc

            dw_pre, dg2, db2 = _layer_norm_bwd(dx, layer.ln2_g, ln2_cache)
            glayer.ln2_g += dg2
            glayer.ln2_b += db2

            # feed-forward branch
            df = dw_pre
            glayer.w2 += h2.T @ df
            glayer.b2 += df.sum(axis=0)
            dh2 = df @ layer.w2.T
            dh1 = _gelu_bwd(dh2, h1, gelu_t)
            glayer.w1 += x_mid.T @ dh1
            glayer.b1 += dh1.sum(axis=0)
            dx_mid = dw_pre + dh1 @ layer.w1.T

            du, dg1, db1 = _layer_norm_bwd(dx_mid, layer.ln1_g, ln1_cache)
            glayer.ln1_g += dg1
            glayer.ln1_b += db1

            # attention branch
            d_attn = du
            glayer.wo += o.T @ d_attn
            glayer.bo += d_attn.sum(axis=0)
            do = d_attn @ layer.wo.T
            doh = _split_heads(do, cfg.heads)
            da = doh @ vh.transpose(0, 2, 1)
            dvh = a.transpose(0, 2, 1) @ doh
            ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
            ds *= scale
            dqh = ds @ kh
            dkh = ds.transpose(0, 2, 1) @ qh
            dq_full = _merge_heads(dqh)
            dk_full = _merge_heads(dkh)
            dv_full = _merge_heads(dvh)
            glayer.wq += x_in.T @ dq_full
            glayer.bq += dq_full.sum(axis=0)
            glayer.wk += x_in.T @ dk_full
            glayer.bk += dk_full.sum(axis=0)
            glayer.wv += x_in.T @ dv_full
            glayer.bv += dv_full.sum(axis=0)

            dx = (
                du
                + dq_full @ layer.wq.T
                + dk_full @ layer.wk.T
                + dv_full @ layer.wv.T
            )

        grads.pos_emb[:t] += dx
        np.add.at(grads.tok_emb, idx, dx)

    grads.flat *= 1.0 / len(batch)
    return total_loss / len(batch), grads


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_params(params: EncoderParams, path) -> None:
    """PRFENC1 magic, the architecture header, then ``flat`` as <f8."""
    cfg = params.config
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write(struct.pack(
            "<5i", cfg.dim, cfg.layers, cfg.heads, cfg.max_len, cfg.vocab_size
        ))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_params(path) -> EncoderParams:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(PARAMS_MAGIC)] != PARAMS_MAGIC:
        raise ValueError("not a params file")
    off = len(PARAMS_MAGIC)
    try:
        dim, layers, heads, max_len, vocab_size = struct.unpack_from("<5i", data, off)
    except struct.error as exc:
        raise ValueError("corrupt params file") from exc
    off += 20
    cfg = EncoderConfig(
        vocab_size=vocab_size, dim=dim, layers=layers, heads=heads, max_len=max_len
    )
    # Size check before any allocation: the header is untrusted.
    if len(data) - off != 8 * param_count(cfg):
        raise ValueError("corrupt params file")
    flat = np.frombuffer(data, dtype="<f8", offset=off).astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise ValueError("corrupt params file")
    return EncoderParams(cfg, flat)
