"""Masked, biased softmax attention: one dense core, run densely or per shape bucket.

The dense core materializes the logits of the rows it is given; masked
positions are excluded from the reduction (their weight is exactly 0.0, never
a large negative constant pushed through exp). It computes in place: the
forward scales, biases, masks and normalizes the logits in the buffer the
matmul returned, and the backward keeps the logit gradient and dp in two
buffers. The results are bit for bit those of the out-of-place formulas,
since every step is the same elementwise operation in the same order and
goes in place only where its result would have the buffer's shape and dtype
anyway. It never writes its inputs (q, k, v, bias, allowed, or the saved
weights).

The block-sparse path runs the dense core on a Plan (mask.Plan) of shape
buckets. A bucket stacks every run of identical rows that has the same
(R rows, K keys) shape as (G, R) row and (G, K) key index arrays; the kernel
gathers a chunk's (G, R, d) queries, (G, K, d) keys and values and (G, R, K)
bias and calls the dense core once on them (BigBird-style blockification).
Its sparsity comes in one argument, `blocks`: an AttentionMask runs the plan
of its own parts (AttentionMask.parts), built once from the table layout.
The kernel never tiles it; the mask's rectangle tiling (AttentionMask.blocks)
is joined from those parts only when a block file or a check asks for it.
An (n, 4) array of (q0, q1, k0, k1) rectangles, such as a block file's, is
planned as lines, with no matrix either (mask.plan_blocks). An
AttentionInput whose mask is an AttentionMask always runs that mask, and
checks it without its L x L matrix: its bias is checked along the same
parts, so a block-sparse pass never builds the matrix. The bias of the
square lines is gathered once, by that check, and kept with the input
(AttentionInput.square_bias); its forward and backward read those pieces.
A C-contiguous bias or class map is gathered by flat index (_pairs).

A line may come in two parts. A mask's same-column part is shared by every
line of its column, so the plan holds it once, as a square line: every row
of the column against the column's keys, which are those rows. Such a row
also sits in a query line that holds the rest of its keys. The forward
keeps each part's softmax output and logsumexp and merges the parts by
their logsumexp (online softmax, arXiv 1805.02867; FlashAttention-2, arXiv
2307.08691); a row in one line is one pass, as before. The backward gets
each row's merged logsumexp and <p, dp> (= rowsum(dO * O), as in
FlashAttention-2) in a query-major pass. A square line's rows are its keys,
so that pass writes its dk and dv as well; the key-major pass runs the key
buckets of the rest, the buckets of its transposed matrix (a symmetric
mask's are its query buckets): it rebuilds p for all the queries of its
keys and adds those keys' dk and dv, which no other key bucket writes, so
nothing is scattered. Buckets, square ones too, are cut into chunks of at
most _BUCKET_CHUNK logits (a row with more keys than that runs alone), so
working memory stays O(L*d + _BUCKET_CHUNK) at any L; the row pieces of one
line share one gather of its keys and values.

With a relation-class map the backward sums the logit gradient per class:
it gathers a chunk's class ids and counts them in one bincount
(_class_grad). A BiasRelationMap over the mask's own layout spares the
square lines that gather. Every pair of a square line shares a column, so
its class follows from its two categories and whether it shares a row too
(a cell's tokens do); the line's sums are the categories' one-hot product
with the logit gradient, corrected at those few same-row pairs
(BiasRelationMap.column_class_sums).

dense_forward and dense_backward are the plain batched core. The model's
decoder calls it on a whole batch and its encoder on one batch element at
a time, (H, L, L) logits each. The single-head operations run every call
through the chunker:
attn_dense and the dense side of attn_backward run one bucket line of every
row against every key, cut into row chunks like any other line.

Both paths compute in the dtype of their inputs (float32 by default;
float64 is used by the finite-difference tests). Backward passes are
analytic; gradients at masked pairs are exactly zero by construction.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .core import STRUCTURAL_MASKS, Table, ValidationError, derive_rng, env_threads, set_blas_threads
from .linearize import EncodedInput, linearize
from .mask import AttentionMask, BiasRelationMap, Plan, build_mask, plan_blocks

# the one work budget of a dense-core call in the single-head operations:
# whole lines are batched while their logits and gathered (K, d) keys stay
# within _BUCKET_CHUNK entries each (2 MB in float32), which keeps a chunk in
# cache at any L, and a line larger than that is cut into row pieces within
# the same budget. Lines and rows are independent, so chunks change no result.
_BUCKET_CHUNK = 1 << 19


def _as_float(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class AttentionInput:
    """Single-head attention operands; multi-head is composition by the caller.

    The operands are fixed once built (the dataclass is frozen), and the
    bias is read once, at construction: it is checked to be finite wherever
    the mask allows, and when the mask is an AttentionMask, its entries
    along the mask's square lines are gathered then and kept in
    `square_bias`, which the block-sparse kernel reads in their place. So
    the bias array must not be written afterwards: the kernel would mix
    the square lines' old entries with the other lines' new ones."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    mask: AttentionMask | np.ndarray | None = None
    bias_values: np.ndarray | None = None
    scale: float | None = None
    # (rows, keys, bias) of each chunk of the mask's square lines (_square_pieces)
    square_bias: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        def set_(name, value):
            object.__setattr__(self, name, value)

        for name in ("q", "k", "v"):
            set_(name, _as_float(getattr(self, name), name))
        if self.q.ndim != 2 or self.k.shape != self.q.shape or self.v.shape != self.q.shape:
            raise ValidationError("q, k, v must share one (L, d) shape")
        if self.q.size == 0:
            raise ValidationError(f"q, k, v need L >= 1 and d >= 1, got shape {self.q.shape}")
        L = self.q.shape[0]
        allowed = self.mask
        if isinstance(allowed, AttentionMask):
            # checked without its matrix; it sets its diagonal, so every row allows a key
            if allowed.length != L:
                raise ValidationError("mask shape must be (L, L)")
        elif allowed is not None:
            allowed = np.asarray(allowed, dtype=bool)
            if allowed.shape != (L, L):
                raise ValidationError("mask shape must be (L, L)")
            if not allowed.any(axis=1).all():
                raise ValidationError("every query row needs at least one allowed key")
        if self.bias_values is not None:
            bias = np.asarray(self.bias_values)
            if bias.shape != (L, L):
                raise ValidationError("bias shape must be (L, L)")
            set_("bias_values", bias)
            if isinstance(allowed, AttentionMask):
                # checked line by line along the parts, so the matrix is never built
                parts = allowed.parts
                set_("square_bias", list(_biased(_chunks(parts.square, self.q.shape[1]), bias)))
                pieces = itertools.chain(_biased(_chunks(parts.query, 1), bias), self.square_bias)
                entries = (piece for _, _, piece in pieces)
            else:
                entries = (bias if allowed is None else bias[allowed],)
            if not all(np.isfinite(piece).all() for piece in entries):
                raise ValidationError("bias must be finite wherever the mask allows")
        if self.scale is None:
            set_("scale", 1.0 / float(np.sqrt(self.q.shape[1])))

    @property
    def allowed(self) -> np.ndarray | None:
        if isinstance(self.mask, AttentionMask):
            return self.mask.dense
        return None if self.mask is None else np.asarray(self.mask, dtype=bool)


@dataclass
class AttentionOutput:
    out: np.ndarray


@dataclass
class AttentionGrads:
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray
    dbias_class: np.ndarray | None = None


# ---------------------------------------------------------------------------
# dense core (batched, shared with the model; leading dims broadcast)
# ---------------------------------------------------------------------------

def _into(op, a, b):
    """op(a, b), written into `a` when the result has a's shape and dtype,
    which gives the bits a fresh result would; `a` must be a scratch array
    of the caller's own (never an input)."""
    if np.result_type(a, b) == a.dtype and np.broadcast_shapes(a.shape, np.shape(b)) == a.shape:
        return op(a, b, out=a)
    return op(a, b)


def _logits(q, k, allowed, bias, scale):
    """q k^T * scale + bias, and -inf wherever `allowed` is False, in the
    buffer of the matmul's result where the shapes and dtypes allow."""
    logits = _into(np.multiply, np.matmul(q, np.swapaxes(k, -1, -2)), scale)
    if bias is not None:
        logits = _into(np.add, logits, bias)
    if allowed is not None:
        if np.broadcast_shapes(logits.shape, np.shape(allowed)) == logits.shape:
            np.copyto(logits, -np.inf, where=np.logical_not(allowed))
        else:
            logits = np.where(allowed, logits, -np.inf)
    return logits


def _softmax(logits):
    """Row softmax of the logits, computed in their buffer, and each row's
    logsumexp (keepdims)."""
    m = np.max(logits, axis=-1, keepdims=True)
    w = np.exp(np.subtract(logits, m, out=logits), out=logits)
    s = np.sum(w, axis=-1, keepdims=True)
    return np.divide(w, s, out=w), m + np.log(s)


def _dscores(p, dp):
    """The logit gradient p * (dp - rowdot) and rowdot = rowsum(p * dp), in
    one new buffer; dp, a scratch array of the caller's own, is overwritten."""
    ds = p * dp
    rowdot = np.sum(ds, axis=-1, keepdims=True)
    return np.multiply(p, _into(np.subtract, dp, rowdot), out=ds), rowdot


def dense_forward(q, k, v, allowed=None, bias=None, scale=None):
    """Masked softmax(q k^T * scale + bias) v with arbitrary leading batch
    dims; returns (out, weights), the softmax weights dense_backward reads.

    allowed and bias broadcast against the (..., Lq, Lk) logit shape. Rows of
    `allowed` must each keep at least one key. For finite logits, a -inf
    bias entry masks its pair as a False `allowed` entry does, to the bit.
    """
    if scale is None:
        scale = 1.0 / float(np.sqrt(q.shape[-1]))
    p, _ = _softmax(_logits(q, k, allowed, bias, scale))
    return np.matmul(p, v), p


def dense_backward(q, k, v, d_out, weights, scale=None):
    """Analytic backward of dense_forward from its saved `weights`; returns
    (dq, dk, dv, dbias).

    dbias has the logit shape and is exactly zero at masked pairs (the
    softmax weight there is exactly zero).
    """
    if scale is None:
        scale = 1.0 / float(np.sqrt(q.shape[-1]))
    dv = np.matmul(np.swapaxes(weights, -1, -2), d_out)
    ds, _ = _dscores(weights, np.matmul(d_out, np.swapaxes(v, -1, -2)))
    dq = np.matmul(ds, k) * scale
    dk = np.matmul(np.swapaxes(ds, -1, -2), q) * scale
    return dq, dk, dv, ds


# ---------------------------------------------------------------------------
# bucket kernel: the dense core once per chunk of a shape bucket
# ---------------------------------------------------------------------------

def _whole(n: int) -> Plan:
    """The plan of a dense call over n tokens: one line of every query row
    against every key, and no key buckets (see _backward)."""
    line = np.arange(n)[None]
    return Plan([(line, line)], None)


def _chunks(buckets, dim: int):
    """(rows, keys) pieces of every bucket: runs of whole lines within
    _BUCKET_CHUNK logits and gathered (keys, dim) entries, or, for a line too
    big for that, parts of its rows within _BUCKET_CHUNK logits (one row when
    it alone has more keys). The parts of one line are consecutive and share
    one `keys` array, so a caller gathers a line's keys once (_line_keys)."""
    for rows, keys in buckets:
        (G, R), K = rows.shape, keys.shape[1]
        step = _BUCKET_CHUNK // (max(R, dim) * K)
        if step:
            for g in range(0, G, step):
                yield rows[g:g + step], keys[g:g + step]
        else:
            step = max(1, _BUCKET_CHUNK // K)
            for g in range(G):
                line = keys[g:g + 1]
                for r in range(0, R, step):
                    yield rows[g:g + 1, r:r + step], line


def _line_keys(pieces, *mats):
    """Each piece of _chunks, (rows, keys, ...), followed by `gathered`,
    each of `mats` taken at keys. A piece that shares its keys with the
    piece before (a part of the same line) reuses that piece's gathers, so
    a line cut into row parts is gathered once."""
    line = gathered = None
    for piece in pieces:
        if piece[1] is not line:
            line, gathered = piece[1], [m.take(piece[1], 0) for m in mats]
        yield *piece, gathered


def _pairs(mat, rows, cols):
    """mat[rows[g, r], cols[g, c]] as a (G, R, C) array; None stays None."""
    if mat is None:
        return None
    if len(rows) == 1 and all(i[0, -1] - i[0, 0] == i.shape[1] - 1 for i in (rows, cols)):
        # one line of consecutive rows and keys, such as a dense call's chunk: a view
        return mat[None, rows[0, 0]:rows[0, -1] + 1, cols[0, 0]:cols[0, -1] + 1]
    if mat.flags.c_contiguous:
        # by flat index, which is faster than two index arrays (the reshape is a view)
        return mat.reshape(-1).take(rows[:, :, None] * mat.shape[1] + cols[:, None, :])
    return mat[rows[:, :, None], cols[:, None, :]]


def _biased(pieces, bias):
    """(rows, keys, bias at them) of each (rows, keys) piece."""
    return ((rows, keys, _pairs(bias, rows, keys)) for rows, keys in pieces)


def _square_pieces(plan, dim: int, bias, held=None):
    """(rows, keys, bias) of each chunk of the plan's square lines: `held`,
    when the caller has gathered them already (AttentionInput.square_bias),
    else gathered from `bias` as they run."""
    return _biased(_chunks(plan.square, dim), bias) if held is None else held


def _line_parts(q, k, v, pieces, allowed, scale):
    """Each row's softmax output and logsumexp over its line among the
    (rows, keys, bias) pieces (0 and -inf for a row in none of them)."""
    out = np.zeros((q.shape[0], v.shape[-1]), dtype=q.dtype)
    lse = np.full((q.shape[0], 1), -np.inf, dtype=q.dtype)
    for rows, keys, bias_g, (kg, vg) in _line_keys(pieces, k, v):
        p, lse[rows] = _softmax(_logits(q.take(rows, 0), kg, _pairs(allowed, rows, keys),
                                        bias_g, scale))
        out[rows] = np.matmul(p, vg)
    return out, lse


def _merge(out, lse, rows, out_b, lse_b):
    """Fold a second part of `rows`, its softmax output out_b and logsumexp
    lse_b, into out and lse by their logsumexp (online softmax); returns
    exp(lse_b - merged lse), the share of the part in each row."""
    lse_a = lse[rows]  # a view when rows is a slice: lse is written last
    merged = np.logaddexp(lse_a, lse_b)
    share = np.exp(lse_b - merged)
    out[rows] = out[rows] * np.exp(lse_a - merged) + out_b * share
    lse[rows] = merged
    return share


def _forward(q, k, v, plan, allowed, bias, scale, square_bias=None):
    if scale is None:
        scale = 1.0 / float(np.sqrt(q.shape[-1]))
    d = k.shape[1]
    out, lse = _line_parts(q, k, v, _biased(_chunks(plan.query, d), bias), allowed, scale)
    if plan.square:  # the rows' other parts
        square = _square_pieces(plan, d, bias, square_bias)
        _merge(out, lse, slice(None), *_line_parts(q, k, v, square, allowed, scale))
    return out


def _probs(qg, kg, vg, dog, lse_g, rowdot_g, allowed_g, bias_g, scale):
    """p = exp(logit - lse) and ds = p * (dp - rowdot) of queries against
    keys, from the queries' final logsumexp and rowdot."""
    p = _into(np.subtract, _logits(qg, kg, allowed_g, bias_g, scale), lse_g)
    np.exp(p, out=p)
    dp = _into(np.subtract, np.matmul(dog, np.swapaxes(vg, -1, -2)), rowdot_g)
    return p, _into(np.multiply, dp, p)


def _class_grad(rel, rows, keys, ds, n_classes):
    """The per-class sums of ds over (rows, keys), in float64: one bincount
    of the class ids there, handed to it as intp and float64, which it
    would convert them to itself, more slowly (the same values added in
    the same order, so the same bits)."""
    ids = _pairs(rel, rows, keys).astype(np.intp)
    return np.bincount(ids.ravel(), weights=ds.astype(np.float64).ravel(), minlength=n_classes)


def _classes(rel, n_classes, blocks=None):
    """(class ids, class count, square-line class sums) of `rel`: an (L, L)
    class array, or a BiasRelationMap, which gives its own count. The sums
    are the map's BiasRelationMap.column_class_sums when `blocks` is an
    AttentionMask over the map's layout, else None (_class_grad runs)."""
    if not isinstance(rel, BiasRelationMap):
        return rel, n_classes, None
    own = isinstance(blocks, AttentionMask) and rel.same_layout(blocks)
    return rel.rel, n_classes or rel.n_classes, rel.column_class_sums if own else None


def _backward(q, k, v, d_out, plan, allowed, bias, scale, rel=None, n_classes=None,
              square_bias=None, square_classes=None):
    """Batched passes over the plan, with no scatter-add.

    The query-major pass gives dq and the per-class bias gradient. Where
    its lines are complete softmax rows it keeps each row's logsumexp and
    <p, dp> (= rowsum(dO * O), as in FlashAttention-2). A plan with square
    lines first takes every row's output and logsumexp over its query
    line, then runs the square lines: each merges its part into its rows'
    logsumexp and output, takes their rowdot, and, as its rows are its
    keys, writes its whole share of dq, dk and dv. The query lines then
    run with the merged logsumexp and rowdot. The key-major pass rebuilds
    p = exp(logit - logsumexp) for all the queries of each key bucket and
    adds those keys' dk and dv, which no other key bucket writes. A plan
    without key buckets (a dense call, whose one line holds every key) adds
    its dk and dv up in the query-major pass instead. With `rel`, a per-pair
    relation-class map, the bias gradient is reduced to one scalar per class
    (n_classes of them, rel.max() + 1 when not given): the class ids of each
    chunk are summed (_class_grad), but the square lines' sums come from
    `square_classes(rows, keys, ds)` when it is given (see _classes).
    `square_bias` is as for _square_pieces.
    """
    if rel is not None and n_classes is None:
        n_classes = int(rel.max()) + 1
    if scale is None:
        scale = 1.0 / float(np.sqrt(q.shape[-1]))
    d = k.shape[1]
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)  # a key no query attends keeps 0
    dbias_class = None if rel is None else np.zeros(n_classes, dtype=np.float64)

    if plan.square:
        out, lse = _line_parts(q, k, v, _biased(_chunks(plan.query, d), bias), allowed, scale)
        for rows, keys, bias_g, (kg, vg) in _line_keys(_square_pieces(plan, d, bias, square_bias),
                                                       k, v):
            qg, dog = q.take(rows, 0), d_out.take(rows, 0)
            p, lse_b = _softmax(_logits(qg, kg, _pairs(allowed, rows, keys), bias_g, scale))
            p *= _merge(out, lse, rows, np.matmul(p, vg), lse_b)  # p of the whole row
            dp = np.matmul(dog, np.swapaxes(vg, -1, -2))
            dp -= np.sum(dog * out[rows], axis=-1, keepdims=True)  # rowdot of the whole row
            ds = _into(np.multiply, dp, p)
            dq[rows] += np.matmul(ds, kg) * scale
            dk[keys] += np.matmul(np.swapaxes(ds, -1, -2), qg) * scale
            dv[keys] += np.matmul(np.swapaxes(p, -1, -2), dog)
            if square_classes is not None:
                dbias_class += square_classes(rows, keys, ds)
            elif dbias_class is not None:
                dbias_class += _class_grad(rel, rows, keys, ds, n_classes)
        rowdot = np.sum(d_out * out, axis=-1, keepdims=True)
    else:
        lse = np.empty((q.shape[0], 1), dtype=q.dtype)
        rowdot = np.empty_like(lse)
    for rows, keys, bias_g, (kg, vg) in _line_keys(_biased(_chunks(plan.query, d), bias), k, v):
        qg, dog = q.take(rows, 0), d_out.take(rows, 0)
        allowed_g = _pairs(allowed, rows, keys)
        if plan.square:
            p, ds = _probs(qg, kg, vg, dog, lse[rows], rowdot[rows], allowed_g, bias_g, scale)
        else:
            p, lse[rows] = _softmax(_logits(qg, kg, allowed_g, bias_g, scale))
            ds, rowdot[rows] = _dscores(p, np.matmul(dog, np.swapaxes(vg, -1, -2)))
        dq[rows] += np.matmul(ds, kg) * scale
        if plan.key is None:
            dk += np.matmul(np.swapaxes(ds, -1, -2), qg)[0] * scale
            dv += np.matmul(np.swapaxes(p, -1, -2), dog)[0]
        if dbias_class is not None:
            dbias_class += _class_grad(rel, rows, keys, ds, n_classes)
    # a key bucket's rows are keys and its keys are their queries; the logits
    # stay (queries, keys), as above
    for kj, qi, (qg, dog, lse_g, rowdot_g) in _line_keys(_chunks(plan.key or (), d),
                                                         q, d_out, lse, rowdot):
        p, ds = _probs(qg, k.take(kj, 0), v.take(kj, 0), dog, lse_g, rowdot_g,
                       _pairs(allowed, qi, kj), _pairs(bias, qi, kj), scale)
        dk[kj] += np.matmul(np.swapaxes(ds, -1, -2), qg) * scale
        dv[kj] += np.matmul(np.swapaxes(p, -1, -2), dog)
    return dq, dk, dv, dbias_class


# ---------------------------------------------------------------------------
# block-sparse path
# ---------------------------------------------------------------------------

def _plan_of(blocks, length: int) -> Plan:
    """The Plan of `blocks`: an AttentionMask's own parts (AttentionMask.parts),
    or that of (q0, q1, k0, k1) rectangles (plan_blocks)."""
    if isinstance(blocks, AttentionMask):
        if blocks.length != length:
            raise ValidationError(f"mask length {blocks.length} does not match L={length}")
        return blocks.parts
    return plan_blocks(blocks, length)


def block_sparse_forward(q, k, v, blocks, bias=None, scale=None, square_bias=None):
    """Attention restricted to `blocks`, an AttentionMask or an (n, 4) array of
    (q0, q1, k0, k1) rectangles: the dense core once per chunk of each query
    bucket. `square_bias`, the bias along the mask's square lines as an
    AttentionInput of the mask holds it, is read there in place of `bias`."""
    return _forward(q, k, v, _plan_of(blocks, q.shape[0]), None, bias, scale, square_bias)


def block_sparse_backward(q, k, v, blocks, d_out, bias=None, scale=None,
                          rel=None, n_classes=None, square_bias=None):
    """Analytic backward of block_sparse_forward: a query-major and a
    key-major pass over the plan's buckets.

    When `rel` (a per-pair relation-class map: an (L, L) array of class ids
    or a BiasRelationMap) is given, the bias gradient is reduced to one
    scalar per class; pairs outside the blocks contribute exactly zero
    because they are never touched. A BiasRelationMap over the layout of
    `blocks`, an AttentionMask, gives the square lines' sums from that
    layout (_classes). `square_bias` is as for block_sparse_forward.
    """
    rel, n_classes, square_classes = _classes(rel, n_classes, blocks)
    return _backward(q, k, v, d_out, _plan_of(blocks, q.shape[0]), None, bias, scale,
                     rel, n_classes, square_bias, square_classes)


# ---------------------------------------------------------------------------
# named single-head operations
# ---------------------------------------------------------------------------

def _sparsity(inp: AttentionInput, blocks):
    """What the sparse kernel runs for `inp`: its mask when that is an
    AttentionMask, else `blocks`."""
    return inp.mask if isinstance(inp.mask, AttentionMask) else blocks


def attn_dense(inp: AttentionInput) -> AttentionOutput:
    """The dense forward of `inp`: one bucket line of every row against every
    key, cut into row chunks."""
    return AttentionOutput(out=_forward(inp.q, inp.k, inp.v, _whole(inp.q.shape[0]),
                                        inp.allowed, inp.bias_values, inp.scale))


def attn_block_sparse(inp: AttentionInput, blocks=None) -> AttentionOutput:
    """The block-sparse forward of `inp`; `blocks` (rectangles) is read only
    when its mask is not an AttentionMask."""
    sparsity = _sparsity(inp, blocks)
    if sparsity is None:
        raise ValidationError("attn_block_sparse needs rectangle blocks")
    return AttentionOutput(out=block_sparse_forward(inp.q, inp.k, inp.v, sparsity,
                                                    inp.bias_values, inp.scale, inp.square_bias))


def attn_backward(
    inp: AttentionInput,
    d_out: np.ndarray,
    blocks=None,
    rel_map=None,
) -> AttentionGrads:
    """Gradients of sum(out * d_out) w.r.t. q, k, v, and per relation class
    of the bias when `rel_map` (a BiasRelationMap, see mask.build_bias_map,
    or an (L, L) class array) is given.

    With `blocks` the block-sparse kernel runs, on the input's AttentionMask
    when it has one (blocks is then not read) and on the blocks otherwise;
    without, the dense core runs as one line of every row against every key.
    A map over the input mask's layout gives the class sums of the mask's
    square lines from that layout (BiasRelationMap.column_class_sums).
    """
    d_out = np.asarray(d_out, dtype=inp.q.dtype)
    if d_out.shape != inp.q.shape:
        raise ValidationError("d_out must match the output shape")
    if blocks is not None:
        dq, dk, dv, dclass = block_sparse_backward(
            inp.q, inp.k, inp.v, _sparsity(inp, blocks), d_out, inp.bias_values, inp.scale,
            rel=rel_map, square_bias=inp.square_bias,
        )
    else:
        L = inp.q.shape[0]
        dq, dk, dv, dclass = _backward(inp.q, inp.k, inp.v, d_out, _whole(L), inp.allowed,
                                       inp.bias_values, inp.scale, *_classes(rel_map, None)[:2])
    return AttentionGrads(dq=dq, dk=dk, dv=dv, dbias_class=dclass)


# ---------------------------------------------------------------------------
# wall-time benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    length: int
    scheme: str
    direction: str
    dense_ms: float
    sparse_ms: float

    @property
    def speedup(self) -> float:
        return self.dense_ms / self.sparse_ms if self.sparse_ms > 0 else float("inf")


def make_bench_encoding(
    target_len: int,
    tokens_scheme: str = "T0",
    n_cols: int = 8,
    cell_digits: int = 2,
    question: str = "select c1",
    seed: int = 0,
) -> EncodedInput:
    """Synthetic table whose encoding lands as close to target_len as possible."""
    if tokens_scheme not in ("T0", "T2"):
        raise ValidationError("bench tables use T0 or T2 (T1 caps the row count)")
    rng = derive_rng(seed, "bench-table", target_len)
    probe = linearize(
        question,
        Table(tuple(f"c{i+1}" for i in range(n_cols)), (tuple("1" * cell_digits for _ in range(n_cols)),)),
        tokens_scheme,
    )
    one_row = len(probe)
    probe0 = len(
        linearize(question, Table(tuple(f"c{i+1}" for i in range(n_cols)),
                                  (tuple("1" * cell_digits for _ in range(n_cols)),) * 2), tokens_scheme)
    )
    per_row = probe0 - one_row
    fixed = one_row - per_row
    n_rows = max(1, round((target_len - fixed) / per_row))
    lo = 10 ** (cell_digits - 1)
    hi = 10 ** cell_digits
    cells = rng.integers(lo, hi, size=(n_rows, n_cols))
    table = Table(
        tuple(f"c{i+1}" for i in range(n_cols)),
        tuple(tuple(str(int(x)) for x in row) for row in cells),
    )
    return linearize(question, table, tokens_scheme)


def _time_median(fn, trials: int) -> float:
    """Median wall seconds per call; short calls are batched so that timer
    quantization stays below 1% of each measurement."""
    fn()  # warmup
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    reps = max(1, int(1e-3 / max(once, 1e-9)))
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return float(np.median(times))


def bench_attention(
    lengths,
    scheme: str = "M3",
    trials: int = 7,
    head_dim: int = 16,
    seed: int = 0,
    include_backward: bool = False,
) -> list[BenchRow]:
    """Wall-time dense vs block-sparse at each target length (medians over
    trials). Both sides run on one known OpenBLAS thread count, as a grid
    worker does: TABENC_THREADS, or 1 when it is unset. The caller's count
    is restored afterwards. A TABENC_THREADS that is not an integer >= 1
    raises ValidationError (core.env_threads)."""
    before = set_blas_threads(env_threads() or 1)
    try:
        rows: list[BenchRow] = []
        tokens_scheme = "T2" if scheme in STRUCTURAL_MASKS else "T0"
        for target in lengths:
            enc = make_bench_encoding(int(target), tokens_scheme, seed=seed)
            m = build_mask(enc, scheme)
            L = len(enc)
            rng = derive_rng(seed, "bench-qkv", L)
            q, k, v = (rng.standard_normal((L, head_dim)).astype(np.float32) for _ in range(3))
            scale = 1.0 / float(np.sqrt(head_dim))
            inp = AttentionInput(q, k, v, m, scale=scale)

            dense_fwd = _time_median(lambda: attn_dense(inp), trials)
            sparse_fwd = _time_median(
                lambda: block_sparse_forward(q, k, v, m, None, scale), trials)
            rows.append(BenchRow(L, scheme, "forward", dense_fwd * 1e3, sparse_fwd * 1e3))

            if include_backward:
                d_out = rng.standard_normal((L, head_dim)).astype(np.float32)
                dense_bwd = _time_median(lambda: attn_backward(inp, d_out), trials)
                sparse_bwd = _time_median(
                    lambda: block_sparse_backward(q, k, v, m, d_out, None, scale), trials
                )
                rows.append(BenchRow(L, scheme, "backward", dense_bwd * 1e3, sparse_bwd * 1e3))
        return rows
    finally:
        if before is not None:
            set_blas_threads(before)
