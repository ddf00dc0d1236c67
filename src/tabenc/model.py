"""Toy encoder-decoder that composes the encoding factors end to end.

The encoder consumes an EncodedInput: additive embeddings (token + positional
+ segment, plus row/column under E1), pre-LayerNorm transformer blocks whose
self-attention is restricted by the factor's mask and optionally shifted by
per-relation-class bias scalars (B1, one scalar per class per head per
layer). The decoder is a standard causal transformer with dense
cross-attention; answers are digit tokens with SEP between values.

An example keeps its mask as the table layout (O(L)). Each batch holds one
int8 (B, L, L) plane of relation classes, built from the layouts when the
batch is collated (mask.signature_classes), in which the mask is one more
class, BLOCKED. A layer's bias is each head's class scalars (zeros under
B0) with -inf for BLOCKED, gathered at the plane, so one bias add both
shifts and masks the logits.

Everything runs on numpy in float32 with hand-written backward passes; every
attention call (forward and backward) goes through the attention module's
dense core, so masked pairs contribute exactly zero gradient. The encoder
calls it one batch element at a time (_self_attention), so an element's
(H, L, L) logits, weights, logit gradient and bias exist one at a time
and no (B, H, L, L) array is built (the memory argument of arXiv
2112.05682, per element); the decoder, with at most dec_positions query
rows, calls it on the whole batch. Training is plain Adam with
greedy-decoding evaluation and early stopping on denotation accuracy.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import dense_backward, dense_forward
from .core import FactorConfig, QAExample, TabencError, ValidationError, derive_rng
from .linearize import EncodedInput, Vocabulary, default_vocab, encode_input
from .mask import (BLOCKED, N_BIAS_CLASSES, AttentionMask, build_mask, count_classes,
                   signature_classes)
# not called here; the benchmark's tracer wraps model.build_bias_map
from .mask import build_bias_map  # noqa: F401
from .sqlexec import denotation_accuracy

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8
_OTHER_CLASS = N_BIAS_CLASSES - 1  # catch-all relation, used for padding


class TrainingDivergedError(TabencError):
    """Loss became non-finite during training."""


@dataclass
class ModelConfig:
    factor: FactorConfig = field(default_factory=FactorConfig)
    d_model: int = 128
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    ffn_dim: int = 256
    context_len: int = 512
    max_positions: int = 512
    dec_positions: int = 64
    max_answer_len: int = 64
    max_table_rows: int = 64
    max_table_cols: int = 16
    steps: int = 20000
    batch_size: int = 8
    learning_rate: float = 3e-4
    patience: int = 15
    eval_every: int = 500
    eval_fraction: float = 0.05
    eval_max: int = 200

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ValidationError("d_model must be divisible by n_heads")
        if self.max_positions < self.context_len:
            raise ValidationError("max_positions must cover the context length")
        if self.max_answer_len > self.dec_positions:
            raise ValidationError("max_answer_len must fit in decoder positions")
        for name in ("batch_size", "steps", "eval_every"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def to_json(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "factor"}
        out["factor"] = self.factor.to_dict()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        obj = dict(obj)
        factor = FactorConfig.from_dict(obj.pop("factor", {}))
        return cls(factor=factor, **obj)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def _param_layout(cfg: ModelConfig, vocab_size: int) -> dict:
    """Name -> (shape, fill) of every parameter, in initialization order; fill
    None means drawn from N(0, 0.02^2)."""
    layout: dict[str, tuple[tuple[int, ...], float | None]] = {}
    d = cfg.d_model

    def add(name, fill, *shape):
        layout[name] = (shape, fill)

    add("tok_emb", None, vocab_size, d)
    add("pos_emb", None, cfg.max_positions, d)
    add("seg_emb", None, 2, d)
    if cfg.factor.emb == "E1":
        add("row_emb", None, cfg.max_table_rows + 1, d)
        add("col_emb", None, cfg.max_table_cols + 1, d)
    add("dec_pos_emb", None, cfg.dec_positions, d)

    def attn_block(prefix: str):
        for name in ("wq", "wk", "wv", "wo"):
            add(f"{prefix}.{name}", None, d, d)
            add(f"{prefix}.{name}_b", 0.0, d)

    def ffn_block(prefix: str):
        add(f"{prefix}.w1", None, d, cfg.ffn_dim)
        add(f"{prefix}.b1", 0.0, cfg.ffn_dim)
        add(f"{prefix}.w2", None, cfg.ffn_dim, d)
        add(f"{prefix}.b2", 0.0, d)

    def ln_block(prefix: str):
        add(f"{prefix}.g", 1.0, d)
        add(f"{prefix}.b", 0.0, d)

    for i in range(cfg.n_enc_layers):
        ln_block(f"enc{i}.ln1")
        attn_block(f"enc{i}.attn")
        if cfg.factor.bias == "B1":
            add(f"enc{i}.bias_scales", 0.0, cfg.n_heads, N_BIAS_CLASSES)
        ln_block(f"enc{i}.ln2")
        ffn_block(f"enc{i}.ffn")
    ln_block("enc_ln")

    for i in range(cfg.n_dec_layers):
        ln_block(f"dec{i}.ln1")
        attn_block(f"dec{i}.self")
        ln_block(f"dec{i}.ln2")
        attn_block(f"dec{i}.cross")
        ln_block(f"dec{i}.ln3")
        ffn_block(f"dec{i}.ffn")
    ln_block("dec_ln")

    add("out_w", None, d, vocab_size)
    add("out_b", 0.0, vocab_size)
    return layout


def init_params(cfg: ModelConfig, vocab_size: int, rng: np.random.Generator) -> dict:
    p: dict[str, np.ndarray] = {}
    for name, (shape, fill) in _param_layout(cfg, vocab_size).items():
        if fill is None:
            p[name] = (rng.standard_normal(shape) * 0.02).astype(np.float32)
        else:
            p[name] = np.full(shape, fill, dtype=np.float32)
    return p


# ---------------------------------------------------------------------------
# primitive layers (explicit caches for the backward pass)
# ---------------------------------------------------------------------------

def _linear_fwd(x, w, b):
    """x @ w + b over a (B, n, d) stack: one 2-D product over all B * n rows,
    which rounds as numpy's product per matrix does, with the bias added in
    its buffer. A stack of single rows (n == 1, a decode step) keeps numpy's
    vector-matrix product per row, which rounds otherwise."""
    if x.shape[-2] == 1:
        y = x @ w
    else:
        y = (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[1:])
    y += b
    return y


def _linear_bwd(x, w, dy, grads, wname, bname):
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    grads[wname] += x2.T @ dy2
    grads[bname] += dy2.sum(axis=0)
    # stays a product per matrix: for short ones (the decoder's few answer
    # positions) OpenBLAS takes another kernel than for the 2-D dy2 @ w.T,
    # and it rounds otherwise
    return dy @ w.T


def _ln_fwd(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    sq = xc * xc
    var = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xc *= inv  # xhat
    np.multiply(xc, g, out=sq)
    sq += b
    return sq, (xc, inv, g)


def _ln_bwd(dy, cache, grads, gname, bname):
    xhat, inv, g = cache
    t = dy * xhat  # scratch: dy * xhat, then dxhat * xhat, then xhat * mean2
    grads[gname] += t.reshape(-1, dy.shape[-1]).sum(axis=0)
    grads[bname] += dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = np.multiply(dxhat, xhat, out=t).mean(axis=-1, keepdims=True)
    dxhat -= mean1
    dxhat -= np.multiply(xhat, mean2, out=t)
    dxhat *= inv
    return dxhat


def _scatter_add(table, idx, rows):
    """np.add.at(table, idx, rows) bit for bit, for non-negative idx: each
    target row adds its rows in index order to its current value. That sum
    is one segment (the current value, then the rows); segments whose row
    counts are within a factor of two are stacked as (S, G, d), padded with
    -0.0 (x + -0.0 is x for every x, +0.0 included), and reduced over the
    segment axis, which numpy adds in order for each of the G * d entries;
    the reduction starts at -0.0, since its default start, +0.0, would turn
    an all -0.0 segment positive. A single entry would be summed pairwise,
    so 1-wide tables keep add.at."""
    idx = idx.ravel()
    rows = rows.reshape(len(idx), table.shape[1])
    if table.shape[1] == 1:
        np.add.at(table, idx, rows)
        return
    order, count, first, groups = count_classes(idx)
    for targets in groups:
        n = count[targets]
        seg = np.full((int(n.max()) + 1, len(targets), table.shape[1]), -0.0, dtype=table.dtype)
        seg[0] = table[targets]
        g = np.repeat(np.arange(len(targets)), n)
        j = np.arange(len(g)) - np.repeat(np.cumsum(n) - n, n)  # place in the segment
        seg[j + 1, g] = rows[order[first[targets][g] + j]]
        table[targets] = np.add.reduce(seg, axis=0, initial=-0.0)


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _kv_fwd(params, prefix, cfg, x_kv):
    k = _split_heads(_linear_fwd(x_kv, params[f"{prefix}.wk"], params[f"{prefix}.wk_b"]), cfg.n_heads)
    v = _split_heads(_linear_fwd(x_kv, params[f"{prefix}.wv"], params[f"{prefix}.wv_b"]), cfg.n_heads)
    return k, v


def _mha_fwd(params, prefix, cfg, x_q, x_kv, core, kv=None):
    """Multi-head attention of x_q over x_kv: core(q, k, v) gives the heads'
    outputs and the state its backward reads. `kv` passes keys and values
    already projected (and split into heads) instead of x_kv."""
    q = _split_heads(_linear_fwd(x_q, params[f"{prefix}.wq"], params[f"{prefix}.wq_b"]), cfg.n_heads)
    k, v = _kv_fwd(params, prefix, cfg, x_kv) if kv is None else kv
    out_h, state = core(q, k, v)
    merged = _merge_heads(out_h)
    y = _linear_fwd(merged, params[f"{prefix}.wo"], params[f"{prefix}.wo_b"])
    return y, (x_q, x_kv, q, k, v, state, merged)


def _mha_bwd(dy, cache, params, prefix, cfg, grads, core_bwd):
    """The backward of _mha_fwd; core_bwd(q, k, v, d_out, state) gives the
    heads' dq, dk and dv first."""
    x_q, x_kv, q, k, v, state, merged = cache
    dmerged = _linear_bwd(merged, params[f"{prefix}.wo"], dy, grads,
                          f"{prefix}.wo", f"{prefix}.wo_b")
    dq, dk, dv = core_bwd(q, k, v, _split_heads(dmerged, cfg.n_heads), state)[:3]
    dx_q = _linear_bwd(x_q, params[f"{prefix}.wq"], _merge_heads(dq), grads,
                       f"{prefix}.wq", f"{prefix}.wq_b")
    dx_kv = _linear_bwd(x_kv, params[f"{prefix}.wk"], _merge_heads(dk), grads,
                        f"{prefix}.wk", f"{prefix}.wk_b")
    dx_kv += _linear_bwd(x_kv, params[f"{prefix}.wv"], _merge_heads(dv), grads,
                         f"{prefix}.wv", f"{prefix}.wv_b")
    return dx_q, dx_kv


def _ffn_fwd(params, prefix, x):
    """relu(x w1 + b1) w2 + b2, the ReLU taken in its input's buffer; the
    cache keeps x and the ReLU output only."""
    a = _linear_fwd(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    np.maximum(a, 0.0, out=a)
    y = _linear_fwd(a, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return y, (x, a)


def _ffn_bwd(dy, cache, params, prefix, grads):
    x, a = cache
    da = _linear_bwd(a, params[f"{prefix}.w2"], dy, grads, f"{prefix}.w2", f"{prefix}.b2")
    # a > 0 exactly where its input h > 0: a is h there, and +-0.0 or NaN elsewhere
    dh = da * (a > 0)
    return _linear_bwd(x, params[f"{prefix}.w1"], dh, grads, f"{prefix}.w1", f"{prefix}.b1")


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """One example, encoded and ready to batch."""

    ids: np.ndarray
    pos: np.ndarray
    seg: np.ndarray
    row: np.ndarray
    col: np.ndarray
    mask: AttentionMask  # encoder self-attention mask: the layout, O(L)
    dec_in: np.ndarray
    target: np.ndarray
    answer: tuple[str, ...]


def answer_token_ids(answer, vocab: Vocabulary) -> list[int]:
    ids: list[int] = []
    for i, value in enumerate(answer):
        if i:
            ids.append(vocab.sep)
        for piece in Vocabulary.split_text(str(value)):
            ids.extend(vocab.piece_ids(piece)[0])
    ids.append(vocab.eos)
    return ids


def tokens_to_values(token_ids, vocab: Vocabulary) -> list[str]:
    values: list[str] = []
    current: list[str] = []
    for tid in token_ids:
        tid = int(tid)
        if tid in (vocab.pad, vocab.bos):
            continue
        if tid == vocab.eos:
            break
        if tid == vocab.sep:
            if current:
                values.append("".join(current))
            current = []
        else:
            current.append(vocab.symbol(tid))
    if current:
        values.append("".join(current))
    return values


def prepare_example(ex: QAExample, cfg: ModelConfig, vocab: Vocabulary) -> Prepared:
    enc = encode_input(ex.query, ex.table, cfg.factor, vocab, max_len=cfg.context_len)
    if cfg.factor.emb == "E1":
        if enc.row_idx.max(initial=0) > cfg.max_table_rows:
            raise ValidationError(f"table exceeds {cfg.max_table_rows} rows")
        if enc.col_idx.max(initial=0) > cfg.max_table_cols:
            raise ValidationError(f"table exceeds {cfg.max_table_cols} columns")
    mask = build_mask(enc, cfg.factor.mask)
    target = np.asarray(answer_token_ids(ex.answer, vocab), dtype=np.int32)
    if len(target) > cfg.dec_positions:
        raise ValidationError(
            f"answer needs {len(target)} decoder positions, limit {cfg.dec_positions}"
        )
    dec_in = np.concatenate(([vocab.bos], target[:-1])).astype(np.int32)
    return Prepared(
        ids=enc.token_ids, pos=enc.pos_idx, seg=enc.segment,
        row=enc.row_idx, col=enc.col_idx,
        mask=mask, dec_in=dec_in, target=target, answer=ex.answer,
    )


@dataclass
class Batch:
    ids: np.ndarray          # (B, L)
    pos: np.ndarray
    seg: np.ndarray
    row: np.ndarray
    col: np.ndarray
    classes: np.ndarray      # (B, L, L) int8 relation classes, BLOCKED where masked
    enc_real: np.ndarray     # (B, L) True at non-pad encoder positions
    dec_in: np.ndarray       # (B, D)
    target: np.ndarray       # (B, D)
    causal: np.ndarray       # (D, D)


def collate(items: list[Prepared], pad_id: int, with_rel: bool | None = None) -> Batch:
    """Pad the items into one batch. Each element's classes plane is its
    mask's signature_classes, built here from the layout, and BLOCKED at
    every pad pair but the pad diagonal, which is the catch-all class so
    that pad rows stay softmax-safe. The one plane serves B0 and B1, so
    `with_rel`, which older callers pass, is ignored."""
    b = len(items)
    L = max(len(it.ids) for it in items)
    D = max(len(it.dec_in) for it in items)
    ids = np.full((b, L), pad_id, dtype=np.int32)
    pos = np.zeros((b, L), dtype=np.int32)
    seg = np.zeros((b, L), dtype=np.int32)
    row = np.zeros((b, L), dtype=np.int32)
    col = np.zeros((b, L), dtype=np.int32)
    classes = np.full((b, L, L), BLOCKED, dtype=np.int8)
    classes[:, np.arange(L), np.arange(L)] = _OTHER_CLASS  # pad rows stay softmax-safe
    enc_real = np.zeros((b, L), dtype=bool)
    dec_in = np.full((b, D), pad_id, dtype=np.int32)
    target = np.full((b, D), pad_id, dtype=np.int32)
    for i, it in enumerate(items):
        n = len(it.ids)
        m = len(it.dec_in)
        ids[i, :n] = it.ids
        pos[i, :n] = it.pos
        seg[i, :n] = it.seg
        row[i, :n] = it.row
        col[i, :n] = it.col
        classes[i, :n, :n] = signature_classes(it.mask)
        enc_real[i, :n] = True
        dec_in[i, :m] = it.dec_in
        target[i, :m] = it.target
    causal = np.tril(np.ones((D, D), dtype=bool))
    return Batch(ids, pos, seg, row, col, classes, enc_real, dec_in, target, causal)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _self_attention(q, k, v, batch: Batch, scales, keep: bool):
    """The encoder's masked self-attention, one batch element at a time, bit
    for bit the batched core on the whole batch with the mask as `allowed`:
    numpy's stacked matmul runs one 2-D product per (b, h), and every other
    step works per row. An element's bias is each head's table, its class
    `scales` under B1 (zeros under B0), then -inf for BLOCKED, at the
    element's classes. It goes into one reused (H, L, L) buffer ((1, L, L)
    under B0, broadcast over the heads) through one reused intp plane of
    the classes. For finite logits, adding -inf is masking, and adding
    +0.0 can only turn a -0.0 logit into +0.0, which has the same weights.
    Only `keep` holds each element's weights, for _self_attention_bwd."""
    out, weights = np.empty_like(q), []
    if scales is None:
        scales = np.zeros((1, N_BIAS_CLASSES), dtype=q.dtype)
    tables = np.concatenate([scales, np.full((len(scales), 1), -np.inf, scales.dtype)], axis=1)
    plane = np.empty(batch.classes.shape[1:], dtype=np.intp)
    bias = np.empty((len(tables),) + plane.shape, dtype=tables.dtype)
    for b in range(len(q)):
        np.copyto(plane, batch.classes[b])
        for h, table in enumerate(tables):
            # classes are at most BLOCKED by construction (collate), so "clip"
            # moves none; it spares take the copy of its "raise" mode
            np.take(table, plane, out=bias[h], mode="clip")
        out[b], w = dense_forward(q[b], k[b], v[b], bias=bias)
        if keep:
            weights.append(w)
        del w  # uncached, it would live through the next element's forward
    return out, weights


def _self_attention_bwd(q, k, v, d_out, weights, batch: Batch, pairs, scales_grad):
    """The backward of _self_attention, one batch element at a time; it
    frees each element's weights (a list entry set to None) once it has
    read them. Under B1 (`pairs`, from _bias_pairs), it adds the class-scalar
    gradient into `scales_grad`."""
    dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    if pairs is not None:
        grad = np.zeros(scales_grad.shape, dtype=np.float64)
    for b in range(len(q)):
        w, weights[b] = weights[b], None
        dq[b], dk[b], dv[b], ds = dense_backward(q[b], k[b], v[b], d_out[b], w)
        del w
        if pairs is not None:
            _bias_scale_grad(grad, ds, pairs[b])
        del ds  # the (H, L, L) logit gradient, not kept through the next element
    if pairs is not None:
        scales_grad += grad.astype(scales_grad.dtype)
    return dq, dk, dv


def encoder_forward(params, cfg: ModelConfig, batch: Batch, keep_cache: bool):
    x = params["tok_emb"][batch.ids] + params["pos_emb"][batch.pos] + params["seg_emb"][batch.seg]
    if cfg.factor.emb == "E1":
        x = x + params["row_emb"][batch.row] + params["col_emb"][batch.col]
    layers = []
    for i in range(cfg.n_enc_layers):
        h1, c_ln1 = _ln_fwd(x, params[f"enc{i}.ln1.g"], params[f"enc{i}.ln1.b"])
        scales = params[f"enc{i}.bias_scales"] if cfg.factor.bias == "B1" else None
        a, c_attn = _mha_fwd(params, f"enc{i}.attn", cfg, h1, h1,
                             lambda q, k, v: _self_attention(q, k, v, batch, scales, keep_cache))
        kept = (c_ln1, c_attn) if keep_cache else ()
        # uncached, the attention's states would otherwise live through the FFN,
        # and the FFN's through the next layer
        del h1, c_ln1, c_attn
        x = x + a
        h2, c_ln2 = _ln_fwd(x, params[f"enc{i}.ln2.g"], params[f"enc{i}.ln2.b"])
        f, c_ffn = _ffn_fwd(params, f"enc{i}.ffn", h2)
        x = x + f
        if keep_cache:
            layers.append((*kept, c_ln2, c_ffn))
        del kept, a, h2, c_ln2, f, c_ffn
    out, c_final = _ln_fwd(x, params["enc_ln.g"], params["enc_ln.b"])
    cache = (layers, c_final) if keep_cache else None
    return out, cache


def _bias_pairs(classes: np.ndarray) -> list:
    """Per batch element, the flat places of its allowed pairs (classes not
    BLOCKED) in the (L, L) plane, as int32, and their classes, as int8:
    what _bias_scale_grad reads in every layer, so a batch gathers them
    once."""
    pairs = []
    for classes_b in classes:
        flat = np.flatnonzero(classes_b != BLOCKED).astype(np.int32)
        pairs.append((flat, classes_b.ravel()[flat]))
    return pairs


def _bias_scale_grad(grad: np.ndarray, ds: np.ndarray, pairs) -> None:
    """Add one batch element's class-scalar gradient into the float64 (H, C)
    `grad`: per head, one bincount of its (L, L) logit gradient at its
    allowed pairs (its _bias_pairs entry) over their classes, in pair
    order. Called in b order, this is the batch's sum. A masked pair's ds
    is p * (...) with p exactly 0, and a bin starts at +0.0, so leaving
    those pairs out changes no bit of a sum."""
    flat, classes = pairs
    weights = ds.reshape(len(ds), -1).take(flat, axis=1).astype(np.float64)
    for h, head in enumerate(weights):
        grad[h] += np.bincount(classes, weights=head, minlength=grad.shape[1])


def encoder_backward(d_out, cache, params, cfg: ModelConfig, batch: Batch, grads):
    """Add the encoder's gradients into `grads`, popping each layer off the
    cache's layer list as its backward starts: a layer's attention weights
    are freed, element by element, before the layer below runs, and the
    list ends empty."""
    layers, c_final = cache
    pairs = None
    if cfg.factor.bias == "B1":
        pairs = _bias_pairs(batch.classes)
    dx = _ln_bwd(d_out, c_final, grads, "enc_ln.g", "enc_ln.b")
    for i in reversed(range(cfg.n_enc_layers)):
        c_ln1, c_attn, c_ln2, c_ffn = layers.pop()
        dh2 = _ffn_bwd(dx, c_ffn, params, f"enc{i}.ffn", grads)
        dx = dx + _ln_bwd(dh2, c_ln2, grads, f"enc{i}.ln2.g", f"enc{i}.ln2.b")
        scales_grad = grads.get(f"enc{i}.bias_scales")
        dq_in, dkv_in = _mha_bwd(
            dx, c_attn, params, f"enc{i}.attn", cfg, grads,
            lambda q, k, v, d, w: _self_attention_bwd(q, k, v, d, w, batch, pairs, scales_grad))
        dx = dx + _ln_bwd(dq_in + dkv_in, c_ln1, grads, f"enc{i}.ln1.g", f"enc{i}.ln1.b")

    _scatter_add(grads["tok_emb"], batch.ids, dx)
    _scatter_add(grads["pos_emb"], batch.pos, dx)
    _scatter_add(grads["seg_emb"], batch.seg, dx)
    if cfg.factor.emb == "E1":
        _scatter_add(grads["row_emb"], batch.row, dx)
        _scatter_add(grads["col_emb"], batch.col, dx)


class DecodeCache:
    """State of incremental decoding for one batch: each decoder layer's
    cross-attention K/V, projected once from the encoder states and stored
    head by head (C-contiguous (B, H, L, head_dim), which numpy's product
    per (b, h) runs faster than _split_heads' strided view), and
    self-attention K/V buffers of shape (B, H, max_answer_len, head_dim)
    whose first `t` positions are filled."""

    def __init__(self, params, cfg: ModelConfig, enc_states: np.ndarray):
        b = enc_states.shape[0]
        shape = (b, cfg.n_heads, cfg.max_answer_len, cfg.head_dim)
        self.cross = [tuple(map(np.ascontiguousarray,
                                _kv_fwd(params, f"dec{i}.cross", cfg, enc_states)))
                      for i in range(cfg.n_dec_layers)]
        self.self_k = [np.empty(shape, dtype=enc_states.dtype) for _ in range(cfg.n_dec_layers)]
        self.self_v = [np.empty(shape, dtype=enc_states.dtype) for _ in range(cfg.n_dec_layers)]
        self.t = 0

    def extend(self, i: int, k: np.ndarray, v: np.ndarray):
        """Write the new positions' K/V of layer i after the first t; return
        the keys and values of all positions so far."""
        end = self.t + k.shape[2]
        if end > self.self_k[i].shape[2]:
            raise ValidationError(f"decoding past {self.self_k[i].shape[2]} positions")
        self.self_k[i][:, :, self.t:end] = k
        self.self_v[i][:, :, self.t:end] = v
        return self.self_k[i][:, :, :end], self.self_v[i][:, :, :end]


def decoder_forward(params, cfg: ModelConfig, dec_in, enc_states, cross_allowed,
                    causal, keep_cache: bool, cache: DecodeCache | None = None):
    """Decoder logits for dec_in.

    Without `cache`, dec_in is the whole prefix and causal its (D, D) mask.
    With a DecodeCache, dec_in holds only the n new tokens at positions
    t..t+n-1; they attend to the cached and new positions under rows t..t+n-1
    of `causal`, the cross-attention K/V come from the cache (enc_states is
    not read) and the cache advances by n.
    """
    D = dec_in.shape[1]
    t = 0 if cache is None else cache.t
    y = params["tok_emb"][dec_in] + params["dec_pos_emb"][np.arange(t, t + D)]
    self_allowed = causal[None, None, :, :] if cache is None else causal[t:t + D, :t + D]
    layers = []
    for i in range(cfg.n_dec_layers):
        h1, c_ln1 = _ln_fwd(y, params[f"dec{i}.ln1.g"], params[f"dec{i}.ln1.b"])
        self_kv = None
        if cache is not None:
            self_kv = cache.extend(i, *_kv_fwd(params, f"dec{i}.self", cfg, h1))
        a, c_self = _mha_fwd(params, f"dec{i}.self", cfg, h1, h1,
                             lambda q, k, v: dense_forward(q, k, v, allowed=self_allowed), self_kv)
        y = y + a
        h2, c_ln2 = _ln_fwd(y, params[f"dec{i}.ln2.g"], params[f"dec{i}.ln2.b"])
        c, c_cross = _mha_fwd(params, f"dec{i}.cross", cfg, h2, enc_states,
                              lambda q, k, v: dense_forward(q, k, v, allowed=cross_allowed),
                              None if cache is None else cache.cross[i])
        y = y + c
        h3, c_ln3 = _ln_fwd(y, params[f"dec{i}.ln3.g"], params[f"dec{i}.ln3.b"])
        f, c_ffn = _ffn_fwd(params, f"dec{i}.ffn", h3)
        y = y + f
        if keep_cache:
            layers.append((c_ln1, c_self, c_ln2, c_cross, c_ln3, c_ffn))
    if cache is not None:
        cache.t += D
    out, c_final = _ln_fwd(y, params["dec_ln.g"], params["dec_ln.b"])
    logits = _linear_fwd(out, params["out_w"], params["out_b"])
    cache_out = (layers, c_final, out) if keep_cache else None
    return logits, cache_out


def decoder_backward(dlogits, cache, params, cfg: ModelConfig, dec_in, enc_states, grads):
    """Add the decoder's gradients into `grads` and return the encoder
    states' gradient; it consumes its cache's layers as encoder_backward does."""
    layers, c_final, ln_out = cache
    dy = _linear_bwd(ln_out, params["out_w"], dlogits, grads, "out_w", "out_b")
    dy = _ln_bwd(dy, c_final, grads, "dec_ln.g", "dec_ln.b")
    d_enc = np.zeros_like(enc_states)
    for i in reversed(range(cfg.n_dec_layers)):
        c_ln1, c_self, c_ln2, c_cross, c_ln3, c_ffn = layers.pop()
        dh3 = _ffn_bwd(dy, c_ffn, params, f"dec{i}.ffn", grads)
        dy = dy + _ln_bwd(dh3, c_ln3, grads, f"dec{i}.ln3.g", f"dec{i}.ln3.b")
        dq_in, dkv = _mha_bwd(dy, c_cross, params, f"dec{i}.cross", cfg, grads, dense_backward)
        d_enc += dkv
        dy = dy + _ln_bwd(dq_in, c_ln2, grads, f"dec{i}.ln2.g", f"dec{i}.ln2.b")
        dq_in, dkv_in = _mha_bwd(dy, c_self, params, f"dec{i}.self", cfg, grads, dense_backward)
        dy = dy + _ln_bwd(dq_in + dkv_in, c_ln1, grads, f"dec{i}.ln1.g", f"dec{i}.ln1.b")
    _scatter_add(grads["tok_emb"], dec_in, dy)
    grads["dec_pos_emb"][:dec_in.shape[1]] += dy.sum(axis=0)
    return d_enc


def _softmax_ce(logits, target, pad_id):
    # mean token cross-entropy over non-pad targets
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    weights = (target != pad_id).astype(logits.dtype)
    denom = max(float(weights.sum()), 1.0)
    picked = np.take_along_axis(logp, target[..., None].astype(np.intp), axis=-1)[..., 0]
    loss = -(picked * weights).sum() / denom
    dlogits = np.exp(logp)
    rows = np.arange(target.shape[0])[:, None]
    cols = np.arange(target.shape[1])[None, :]
    dlogits[rows, cols, target] -= 1.0
    dlogits *= (weights / denom)[..., None]
    return float(loss), dlogits


def loss_and_grads(params, cfg: ModelConfig, batch: Batch, pad_id: int):
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    enc_states, enc_cache = encoder_forward(params, cfg, batch, keep_cache=True)
    cross_allowed = batch.enc_real[:, None, None, :]
    logits, dec_cache = decoder_forward(params, cfg, batch.dec_in, enc_states,
                                        cross_allowed, batch.causal, keep_cache=True)
    loss, dlogits = _softmax_ce(logits, batch.target, pad_id)
    d_enc = decoder_backward(dlogits, dec_cache, params, cfg, batch.dec_in,
                             enc_states, grads)
    encoder_backward(d_enc, enc_cache, params, cfg, batch, grads)
    return loss, grads


def encode(params, cfg: ModelConfig, ex: QAExample, vocab: Vocabulary | None = None) -> np.ndarray:
    """Final encoder states for one example, shape (L, d_model)."""
    vocab = vocab or default_vocab()
    prepared = prepare_example(ex, cfg, vocab)
    batch = collate([prepared], vocab.pad)
    states, _ = encoder_forward(params, cfg, batch, keep_cache=False)
    return states[0]


# ---------------------------------------------------------------------------
# optimizer and training loop
# ---------------------------------------------------------------------------

class Adam:
    def __init__(self, params: dict, lr: float):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - _ADAM_B1 ** self.t
        b2t = 1.0 - _ADAM_B2 ** self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            # lr * (m / b1t) / (sqrt(v / b2t) + eps) in two scratch arrays
            step = (1 - _ADAM_B1) * g
            m *= _ADAM_B1
            m += step
            denom = g * g
            denom *= 1 - _ADAM_B2
            v *= _ADAM_B2
            v += denom
            np.sqrt(np.divide(v, b2t, out=denom), out=denom)
            denom += _ADAM_EPS
            np.divide(m, b1t, out=step)
            step *= self.lr
            step /= denom
            params[k] -= step


@dataclass
class TrainResult:
    params: dict
    config: ModelConfig
    trace: list[dict]
    best_step: int
    best_eval_da: float
    steps_run: int
    final_loss: float


def _batched(prepared: list[Prepared], order, batch_size: int, pad_id: int):
    for i in range(0, len(order), batch_size):
        chunk = [prepared[j] for j in order[i:i + batch_size]]
        yield collate(chunk, pad_id)


def predict_prepared(params, cfg: ModelConfig, prepared: list[Prepared],
                     vocab: Vocabulary, batch_size: int = 64) -> list[list[str]]:
    """Greedy decoding, one new position per decoder call through a
    DecodeCache; returns the decoded value list per example."""
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    out: list[list[str]] = []
    for i in range(0, len(prepared), batch_size):
        chunk = prepared[i:i + batch_size]
        batch = collate(chunk, vocab.pad)
        enc_states, _ = encoder_forward(params, cfg, batch, keep_cache=False)
        cross_allowed = batch.enc_real[:, None, None, :]
        cache = DecodeCache(params, cfg, enc_states)
        causal = np.tril(np.ones((cfg.max_answer_len, cfg.max_answer_len), dtype=bool))
        ys = np.full((len(chunk), cfg.max_answer_len + 1), vocab.pad, dtype=np.int32)
        ys[:, 0] = vocab.bos
        done = np.zeros(len(chunk), dtype=bool)
        for t in range(cfg.max_answer_len):
            logits, _ = decoder_forward(params, cfg, ys[:, t:t + 1], enc_states, cross_allowed,
                                        causal, keep_cache=False, cache=cache)
            nxt = logits[:, -1].argmax(axis=-1).astype(np.int32)
            nxt[done] = vocab.pad
            ys[:, t + 1] = nxt
            done |= nxt == vocab.eos
            if done.all():
                break
        out.extend(tokens_to_values(row[1:], vocab) for row in ys)
    return out


def predict(params, cfg: ModelConfig, examples: list[QAExample],
            vocab: Vocabulary | None = None, batch_size: int = 64) -> list[list[str]]:
    vocab = vocab or default_vocab()
    prepared = [prepare_example(ex, cfg, vocab) for ex in examples]
    return predict_prepared(params, cfg, prepared, vocab, batch_size)


def _da(params, cfg, prepared, vocab) -> float:
    preds = predict_prepared(params, cfg, prepared, vocab)
    return denotation_accuracy(preds, [it.answer for it in prepared]) if prepared else 0.0


def train(examples: list[QAExample], cfg: ModelConfig, seed: int,
          stop_da: float | None = None, log=None) -> TrainResult:
    """Train on the examples; early-stops on held-out denotation accuracy.

    stop_da, when set, ends training as soon as an evaluation reaches the
    threshold (used by smoke tests). All randomness flows from the seed, so
    two runs produce identical parameters and traces.
    """
    if not examples:
        raise ValidationError("empty training set")
    vocab = default_vocab()
    prepared = [prepare_example(ex, cfg, vocab) for ex in examples]

    split_rng = derive_rng(seed, "split", 0)
    order = split_rng.permutation(len(prepared))
    n_eval = int(round(cfg.eval_fraction * len(prepared)))
    n_eval = min(n_eval, cfg.eval_max)
    if n_eval > 0 and len(prepared) - n_eval >= 1:
        eval_set = [prepared[i] for i in order[:n_eval]]
        train_set = [prepared[i] for i in order[n_eval:]]
    else:
        # tiny datasets: evaluate on the training data itself
        eval_set = [prepared[i] for i in order[: cfg.eval_max]]
        train_set = list(prepared)

    params = init_params(cfg, vocab.size, derive_rng(seed, "init", 0))
    opt = Adam(params, cfg.learning_rate)
    shuffle_rng = derive_rng(seed, "shuffle", 0)

    trace: list[dict] = []
    best_da = -1.0
    best_step = 0
    best_params = {k: v.copy() for k, v in params.items()}
    evals_since_best = 0
    loss = float("nan")
    step = 0
    stop = False

    while step < cfg.steps and not stop:
        epoch_order = shuffle_rng.permutation(len(train_set))
        for batch in _batched(train_set, epoch_order, cfg.batch_size, vocab.pad):
            loss, grads = loss_and_grads(params, cfg, batch, vocab.pad)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became {loss} at step {step}")
            opt.step(params, grads)
            step += 1

            if step % cfg.eval_every == 0 or step == cfg.steps:
                da = _da(params, cfg, eval_set, vocab)
                trace.append({"step": step, "loss": round(loss, 6), "eval_da": round(da, 6)})
                if log:
                    log(f"step {step} loss {loss:.4f} eval_da {da:.4f}")
                if da > best_da:
                    best_da = da
                    best_step = step
                    best_params = {k: v.copy() for k, v in params.items()}
                    evals_since_best = 0
                else:
                    evals_since_best += 1
                if stop_da is not None and da >= stop_da:
                    stop = True
                    break
                if evals_since_best >= cfg.patience:
                    stop = True
                    break
            if step >= cfg.steps:
                break

    return TrainResult(
        params=best_params, config=cfg, trace=trace,
        best_step=best_step, best_eval_da=best_da,
        steps_run=step, final_loss=loss,
    )


def evaluate_da(params, cfg: ModelConfig, examples: list[QAExample],
                vocab: Vocabulary | None = None, set_semantics: bool = False) -> float:
    vocab = vocab or default_vocab()
    preds = predict(params, cfg, examples, vocab)
    return denotation_accuracy(preds, [ex.answer for ex in examples], set_semantics)


# ---------------------------------------------------------------------------
# checkpoints: magic, version, json header, then named float32 tensors
# ---------------------------------------------------------------------------

_MAGIC = b"TBNC"
_CKPT_VERSION = 1


def save_checkpoint(path, params: dict, cfg: ModelConfig, vocab_size: int) -> None:
    names = sorted(params.keys())
    header = {
        "format_version": _CKPT_VERSION,
        "config": cfg.to_json(),
        "vocab_size": vocab_size,
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(params[n], dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[dict, ModelConfig, int]:
    """Read a save_checkpoint file; a bad magic, version or header, tensors
    other than the init_params layout of the stored config, and missing or
    trailing bytes raise ValidationError naming the file and the fault."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValidationError(f"{path}: not a checkpoint (magic {magic!r})")
        head = fh.read(8)
        if len(head) != 8:
            raise ValidationError(f"{path}: checkpoint header cut short")
        version, hlen = struct.unpack("<II", head)
        if version != _CKPT_VERSION:
            raise ValidationError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(hlen))
            cfg = ModelConfig.from_json(header["config"])
            vocab_size = int(header["vocab_size"])
            tensors = [(t["name"], tuple(int(n) for n in t["shape"])) for t in header["tensors"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError, ValidationError) as exc:
            raise ValidationError(f"{path}: malformed checkpoint header ({exc!r})") from None
        layout = [(name, shape) for name, (shape, _fill) in _param_layout(cfg, vocab_size).items()]
        odd = sorted(set(tensors) ^ set(layout))
        if odd or len(tensors) != len(layout):
            where = f"tensor {odd[0][0]!r} {odd[0][1]}" if odd else "a repeated tensor name"
            raise ValidationError(f"{path}: {where} differs from the layout of the stored config")
        params = {}
        for name, shape in tensors:
            count = int(np.prod(shape))
            buf = fh.read(count * 4)
            if len(buf) != count * 4:
                raise ValidationError(f"{path}: truncated tensor {name}")
            params[name] = np.frombuffer(buf, dtype="<f4").reshape(shape).copy()
        if fh.read(1):
            raise ValidationError(f"{path}: trailing bytes after the last tensor")
    return params, cfg, vocab_size
