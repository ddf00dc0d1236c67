"""References the tests compare the program against: per-pair mask code,
deliberately unvectorized, the signature gather over every pair, rectangles
painted into an allow-matrix and planned from its rows, the dense attention
core, the kernel's class-id bincount and the B1 bias gather and gradient in
their plain out-of-place form, the model's (L, L) encoder planes as it
once held them (an allow-matrix and relation classes per example, padded
per batch), the model's encoder self-attention as the batched core on the
whole batch with its mask as `allowed`, and the model's train-step
primitives (embedding scatter-add, linear layers, LayerNorm, Adam) as plain
formulas and loops."""

import numpy as np

from tabenc.attention import dense_backward, dense_forward
from tabenc.core import STRUCTURAL_MASKS, ValidationError
from tabenc.linearize import EncodedInput, TokenRole, encode_input
from tabenc.mask import (_HEADER, _SAME_COL, _SAME_ROW, BLOCKED, Lines, _check_scheme,
                         build_bias_map, build_mask)
from tabenc.model import _ADAM_B1, _ADAM_B2, _ADAM_EPS, _OTHER_CLASS


def _allowed_pair(enc: EncodedInput, scheme: str, i: int, j: int) -> bool:
    """Per-pair predicate, deliberately unvectorized (differential oracle)."""
    if scheme == "M0" or i == j:
        return True
    role_i = int(enc.roles[i])
    role_j = int(enc.roles[j])
    q = int(TokenRole.QUESTION)
    if role_i == q or role_j == q:
        return True
    c = int(TokenRole.CELL_CONTENT)
    same_row = int(enc.row_idx[i]) == int(enc.row_idx[j])
    same_col = int(enc.col_idx[i]) == int(enc.col_idx[j])
    if role_i == c and role_j == c:
        if scheme in _SAME_ROW and same_row:
            return True
        if scheme in _SAME_COL and same_col:
            return True
    if scheme in STRUCTURAL_MASKS:
        for a, b in ((role_i, role_j), (role_j, role_i)):
            pair_same_row = same_row
            pair_same_col = same_col
            if b == c:
                if a == int(TokenRole.ROW_TOK) and pair_same_row:
                    return True
                if a == int(TokenRole.COL_TOK) and pair_same_col:
                    return True
                if a == int(TokenRole.CELL_TOK) and pair_same_row and pair_same_col:
                    return True
                if a == int(TokenRole.TABLE_TOK):
                    return True
    return False


def build_mask_bruteforce(enc: EncodedInput, scheme: str) -> np.ndarray:
    """The L x L allow-matrix from the pair predicate over all L^2 pairs; no shortcuts."""
    _check_scheme(enc, scheme)
    L = len(enc)
    dense = np.zeros((L, L), dtype=bool)
    for i in range(L):
        for j in range(L):
            dense[i, j] = _allowed_pair(enc, scheme, i, j)
    return dense


_CHUNK_PAIRS = 1 << 20  # pairs per row chunk of gather_pairs_ref


def gather_pairs_ref(rows, cols, cat, table: np.ndarray) -> np.ndarray:
    """L x L array whose [i, j] is table[same_row, same_col, cat[i], cat[j]],
    built in row chunks, so working memory beyond the output is O(chunk * L)."""
    L, n = len(cat), _HEADER + 1
    flat = table.reshape(-1)
    out = np.empty((L, L), dtype=table.dtype)
    step = max(1, _CHUNK_PAIRS // max(L, 1))
    for r0 in range(0, L, step):
        r = slice(r0, r0 + step)
        # the signature's flat index into table, as uint8 (table.size == 256)
        sig = (rows[r, None] == rows) * np.uint8(2 * n * n)
        sig += (cols[r, None] == cols) * np.uint8(n * n)
        sig += cat[r, None] * np.uint8(n)
        sig += cat
        # "clip" clips nothing here and, unlike "raise", writes out unbuffered
        np.take(flat, sig, out=out[r], mode="clip")
    return out


def block_area(blocks) -> int:
    return sum((q1 - q0) * (k1 - k0) for q0, q1, k0, k1 in blocks)


def blocks_cover(blocks, L: int) -> np.ndarray:
    """Paint rectangles into an L x L allow-matrix; raises ValidationError,
    naming the first pair in row-major order, if any pair is covered twice."""
    cover = np.zeros((L, L), dtype=bool)
    twice = np.zeros((L, L), dtype=bool)  # a flag, not a count, so it cannot wrap
    for q0, q1, k0, k1 in blocks:
        twice[q0:q1, k0:k1] |= cover[q0:q1, k0:k1]
        cover[q0:q1, k0:k1] = True
    if twice.any():
        r, k = divmod(int(np.argmax(twice)), L)
        raise ValidationError(f"blocks cover key {k} twice for query row {r}")
    return cover


def row_runs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the runs of identical consecutive rows of a 2-D array."""
    n = matrix.shape[0]
    changed = np.ones(n, dtype=bool)
    changed[1:] = (matrix[1:] != matrix[:-1]).any(axis=1)
    starts = np.flatnonzero(changed)
    return starts, np.append(starts[1:], n)


def buckets(allowed: np.ndarray) -> list:
    """[(rows (G, R), keys (G, K))] over the row runs of an allow-matrix, one
    bucket per (R, K) shape in ascending order; runs that allow no key are
    left out (the shape buckets of mask.Plan)."""
    starts, ends = row_runs(allowed)
    lines: dict[tuple[int, int], list] = {}
    for r0, r1 in zip(starts.tolist(), ends.tolist()):
        keys = np.flatnonzero(allowed[r0])
        lines.setdefault((r1 - r0, len(keys)), []).append((r0, keys))
    return [(np.array([r0 for r0, _ in runs])[:, None] + np.arange(R),
             np.stack([keys for _, keys in runs]))
            for (R, K), runs in sorted(lines.items()) if K]


def plan_of_rectangles(blocks, L: int) -> tuple[list, list]:
    """The query and key buckets of rectangles, from their painted matrix;
    raises as blocks_cover does, then for the first row no rectangle covers."""
    allowed = blocks_cover(blocks, L)
    covered = allowed.any(axis=1)
    if not covered.all():
        raise ValidationError(f"blocks leave query row {int(np.argmin(covered))} uncovered")
    return buckets(allowed), buckets(allowed.T)


def matrix_lines(dense: np.ndarray) -> Lines:
    """The complete lines (mask.Lines) of an allow-matrix, in one chunk."""
    starts, ends = row_runs(dense)
    step = np.diff(dense[starts].astype(np.int8), prepend=0, append=0, axis=1)
    line, k0 = np.nonzero(step == 1)
    k1 = np.nonzero(step == -1)[1]
    return Lines(len(dense), len(k0),
                 [(starts, ends - starts, np.bincount(line, minlength=len(starts)), k0, k1)])


def logits_ref(q, k, allowed, bias, scale):
    logits = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    if bias is not None:
        logits = logits + bias
    if allowed is not None:
        logits = np.where(allowed, logits, -np.inf)
    return logits


def softmax_ref(logits):
    m = np.max(logits, axis=-1, keepdims=True)
    w = np.exp(logits - m)
    s = np.sum(w, axis=-1, keepdims=True)
    return w / s, m + np.log(s)


def dense_backward_ref(q, k, v, d_out, allowed, bias, scale):
    p, _ = softmax_ref(logits_ref(q, k, allowed, bias, scale))
    dv = np.matmul(np.swapaxes(p, -1, -2), d_out)
    dp = np.matmul(d_out, np.swapaxes(v, -1, -2))
    rowdot = np.sum(p * dp, axis=-1, keepdims=True)
    ds = p * (dp - rowdot)
    dq = np.matmul(ds, k) * scale
    dk = np.matmul(np.swapaxes(ds, -1, -2), q) * scale
    return dq, dk, dv, ds


def class_grad_ref(rel, rows, keys, ds, n_classes):
    """The per-class sums of ds over the (G, R, K) pairs of lines (rows,
    keys): one bincount of the class ids there, which converts the ids and
    the weights itself."""
    ids = rel[rows[:, :, None], keys[:, None, :]]
    return np.bincount(ids.ravel(), weights=ds.ravel(), minlength=n_classes)


def gather_bias_ref(scales, rel):
    """scales (H, C) at rel (B, L, L), as a (B, H, L, L) view."""
    return scales[:, rel].transpose(1, 0, 2, 3)


def bias_scale_grad_ref(ds, rel, n_classes):
    """The B1 class-scalar gradient, one float64 bincount per (b, h)."""
    grad = np.zeros((ds.shape[1], n_classes), dtype=np.float64)
    for b in range(ds.shape[0]):
        flat_rel = rel[b].ravel()
        for h in range(ds.shape[1]):
            grad[h] += np.bincount(flat_rel, weights=ds[b, h].ravel().astype(np.float64),
                                   minlength=n_classes)
    return grad


def encoding_planes(enc, scheme):
    """An encoding's (L, L) planes as the model once prepared them: the
    scheme's allow-matrix and the relation classes."""
    return build_mask(enc, scheme).dense, build_bias_map(enc).rel


def prepared_planes(ex, cfg, vocab):
    """encoding_planes of an example, encoded as prepare_example encodes it."""
    enc = encode_input(ex.query, ex.table, cfg.factor, vocab, max_len=cfg.context_len)
    return encoding_planes(enc, cfg.factor.mask)


def collated_planes(examples, cfg, vocab):
    """The examples' planes padded as the model once collated them: a
    (B, 1, L, L) allow-matrix whose pad rows keep only their diagonal, and
    (B, L, L) relation classes that are the catch-all class at every pad
    pair."""
    planes = [prepared_planes(ex, cfg, vocab) for ex in examples]
    B, L = len(planes), max(len(allowed) for allowed, _ in planes)
    allowed = np.zeros((B, 1, L, L), dtype=bool)
    allowed[:, 0, np.arange(L), np.arange(L)] = True  # pad rows stay softmax-safe
    rel = np.full((B, L, L), _OTHER_CLASS, dtype=np.int8)
    for i, (allowed_i, rel_i) in enumerate(planes):
        n = len(allowed_i)
        allowed[i, 0, :n, :n] = allowed_i
        rel[i, :n, :n] = rel_i
    return allowed, rel


def batch_planes(batch):
    """A batch's (B, 1, L, L) allow-matrix and (B, L, L) relation classes,
    read back from its classes plane: allowed where the class is not
    BLOCKED, with the catch-all class at masked pairs."""
    allowed = batch.classes != BLOCKED
    return allowed[:, None], np.where(allowed, batch.classes, np.int8(_OTHER_CLASS))


def self_attention_ref(q, k, v, batch, scales, keep):
    """model._self_attention as one batched core call that masks with
    `allowed` (the core's copyto(where=) pass): (B, H, L, L) logits and,
    under B1, the gathered (B, H, L, L) bias."""
    allowed, rel = batch_planes(batch)
    bias = None if scales is None else gather_bias_ref(scales, rel)
    out, weights = dense_forward(q, k, v, allowed=allowed, bias=bias)
    return out, weights if keep else None


def self_attention_bwd_ref(q, k, v, d_out, weights, batch, pairs, scales_grad):
    """model._self_attention_bwd as one batched core call, with the B1
    class-scalar gradient from bias_scale_grad_ref."""
    dq, dk, dv, ds = dense_backward(q, k, v, d_out, weights)
    if pairs is not None:
        rel = batch_planes(batch)[1]
        scales_grad += bias_scale_grad_ref(ds, rel, scales_grad.shape[1]).astype(scales_grad.dtype)
    return dq, dk, dv


def scatter_add_ref(table, idx, rows):
    """np.add.at(table, idx, rows) as a plain loop: row by row, in index order."""
    for i, row in zip(idx.ravel(), rows.reshape((idx.size,) + table.shape[1:])):
        table[i] += row


def linear_fwd_ref(x, w, b):
    return x @ w + b


def linear_bwd_ref(x, w, dy, grads, wname, bname):
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    grads[wname] += x2.T @ dy2
    grads[bname] += dy2.sum(axis=0)
    return dy @ w.T


def ln_fwd_ref(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def ln_bwd_ref(dy, cache, grads, gname, bname):
    xhat, inv, g = cache
    grads[gname] += (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
    grads[bname] += dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - mean1 - xhat * mean2)


def adam_step_ref(opt, params, grads):
    """model.Adam.step out of place (bound as a method when patched in)."""
    opt.t += 1
    b1t = 1.0 - _ADAM_B1 ** opt.t
    b2t = 1.0 - _ADAM_B2 ** opt.t
    for k, g in grads.items():
        m = opt.m[k]
        v = opt.v[k]
        m *= _ADAM_B1
        m += (1 - _ADAM_B1) * g
        v *= _ADAM_B2
        v += (1 - _ADAM_B2) * (g * g)
        params[k] -= opt.lr * (m / b1t) / (np.sqrt(v / b2t) + _ADAM_EPS)
