import collections
import ctypes
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import tabenc.attention as attention
import tabenc.mask as mask_module
from tabenc.attention import (
    AttentionInput,
    attn_backward,
    attn_block_sparse,
    attn_dense,
    bench_attention,
    block_sparse_backward,
    block_sparse_forward,
    dense_backward,
    dense_forward,
    make_bench_encoding,
    plan_blocks,
)
from tabenc.core import Table, ValidationError, derive_rng, env_threads, set_blas_threads
from tabenc.linearize import linearize
from tabenc.mask import _HEADER, BiasRelationMap, build_bias_map, build_mask

from conftest import complete_plan, make_table, random_question, same_plan
from oracles import (
    blocks_cover,
    class_grad_ref,
    dense_backward_ref,
    logits_ref,
    matrix_lines,
    softmax_ref,
)

ALL_SCHEMES = ("M0", "M1", "M2", "M3", "M4", "M5", "M6")


def random_case(rng, scheme, d=8, dtype=np.float64, with_bias=False):
    tokens = "T2" if scheme in ("M4", "M5", "M6") else "T0"
    t = make_table(rng)
    enc = linearize(random_question(rng, t), t, tokens)
    m = build_mask(enc, scheme)
    L = len(enc)
    q, k, v = (rng.standard_normal((L, d)).astype(dtype) for _ in range(3))
    bias = None
    scales = None
    rel = None
    if with_bias:
        rel = build_bias_map(enc)
        scales = rng.standard_normal(rel.n_classes).astype(dtype) * 0.3
        bias = scales[rel.rel]
    return enc, m, q, k, v, bias, scales, rel


# ---------------------------------------------------------------------------
# forward equivalence: dense vs block-sparse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_block_sparse_matches_dense(rng, scheme):
    for _ in range(10):
        _, m, q, k, v, bias, _, _ = random_case(rng, scheme, dtype=np.float32)
        ref, _ = dense_forward(q, k, v, m.dense)
        got = block_sparse_forward(q, k, v, m.blocks)
        assert np.max(np.abs(ref - got)) < 1e-5


@pytest.mark.parametrize("scheme", ["M1", "M5"])
def test_block_sparse_matches_dense_with_bias(rng, scheme):
    for _ in range(5):
        _, m, q, k, v, bias, _, _ = random_case(
            rng, scheme, dtype=np.float32, with_bias=True
        )
        ref, _ = dense_forward(q, k, v, m.dense, bias)
        got = block_sparse_forward(q, k, v, m.blocks, bias)
        assert np.max(np.abs(ref - got)) < 1e-5


def test_softmax_rows_sum_to_one(rng):
    _, m, q, k, v, _, _, _ = random_case(rng, "M3")
    _, p = dense_forward(q, k, v, m.dense)
    assert np.allclose(p.sum(axis=-1), 1.0)
    # masked pairs carry exactly zero weight, not a small epsilon
    assert (p[~m.dense] == 0.0).all()


def test_dense_forward_batched_leading_dims(rng):
    q, k, v = (rng.standard_normal((2, 3, 10, 4)) for _ in range(3))
    out, _ = dense_forward(q, k, v)
    for b in range(2):
        for h in range(3):
            single, _ = dense_forward(q[b, h], k[b, h], v[b, h])
            assert np.allclose(out[b, h], single)


# ---------------------------------------------------------------------------
# the in-place dense core against the out-of-place formulas, bit for bit
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # C order, sign of zero included


def core_case(rng, dtype, bias_kind, mask_kind, B=2, H=3, d=4):
    """Batched operands as the model passes them: the encoder's (B, 1, L, L)
    mask, the decoder's causal mask (whole, or the rows of a cached step)
    and its (B, 1, 1, L) cross mask."""
    Lq, Lk = (4, 7) if mask_kind in ("decode", "cross") else (7, 7)
    q, d_out = (rng.standard_normal((B, H, Lq, d)).astype(dtype) for _ in range(2))
    k, v = (rng.standard_normal((B, H, Lk, d)).astype(dtype) for _ in range(2))
    bias = {
        "none": None,
        "contiguous": rng.standard_normal((B, H, Lq, Lk)).astype(dtype),
        "transposed": rng.standard_normal((H, B, Lq, Lk)).astype(dtype).transpose(1, 0, 2, 3),
    }[bias_kind]
    causal = np.tril(np.ones((Lk, Lk), dtype=bool))
    allowed = {
        "none": None,
        "square": (rng.random((Lq, Lk)) < 0.5) | np.eye(Lq, Lk, dtype=bool),
        "encoder": (rng.random((B, 1, Lq, Lk)) < 0.5) | np.eye(Lq, Lk, dtype=bool),
        "causal": causal[None, None],
        "decode": causal[Lk - Lq:, :],
        "cross": np.arange(Lk)[None, None, None, :] < np.array([5, 7])[:, None, None, None],
    }[mask_kind]
    return q, k, v, d_out, allowed, bias


def assert_core_matches_formulas(q, k, v, d_out, allowed, bias, scale):
    inputs = [x for x in (q, k, v, d_out, allowed, bias) if x is not None]
    before = [x.copy() for x in inputs]
    ref_logits = logits_ref(q, k, allowed, bias, scale)
    logits = attention._logits(q, k, allowed, bias, scale)
    assert_same_bits(logits, ref_logits)
    for got, want in zip(attention._softmax(logits), softmax_ref(ref_logits)):
        assert_same_bits(got, want)
    ref = dense_backward_ref(q, k, v, d_out, allowed, bias, scale)
    out, weights = dense_forward(q, k, v, allowed, bias, scale)
    assert_same_bits(out, np.matmul(softmax_ref(ref_logits)[0], v))
    saved = weights.copy()
    for got, want in zip(dense_backward(q, k, v, d_out, weights, scale), ref):
        assert_same_bits(got, want)
    assert_same_bits(weights, saved)
    for x, x0 in zip(inputs, before):
        assert_same_bits(x, x0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias_kind", ["none", "contiguous", "transposed"])
@pytest.mark.parametrize("mask_kind", ["none", "square", "encoder", "causal", "decode", "cross"])
def test_dense_core_is_the_out_of_place_formulas(rng, dtype, bias_kind, mask_kind):
    q, k, v, d_out, allowed, bias = core_case(rng, dtype, bias_kind, mask_kind)
    assert_core_matches_formulas(q, k, v, d_out, allowed, bias, 1.0 / float(np.sqrt(4)))


def test_dense_core_stays_out_of_place_where_a_result_would_grow(rng):
    """A float64 bias or scale on float32 inputs promotes the logits, and a
    mask or bias with a batch axis the inputs lack broadcasts them up: in
    place, either would change the result."""
    q, k, v, d_out = (rng.standard_normal((3, 5, 4)).astype(np.float32) for _ in range(4))
    mask = (rng.random((2, 1, 5, 5)) < 0.5) | np.eye(5, dtype=bool)
    for allowed, bias, scale in (
        (None, rng.standard_normal((3, 5, 5)), 0.5),
        (None, None, np.float64(0.5)),
        (mask, None, 0.5),
        (None, rng.standard_normal((2, 3, 5, 5)).astype(np.float32), 0.5),
    ):
        assert_core_matches_formulas(q, k, v, d_out, allowed, bias, scale)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_minus_inf_bias_is_the_mask(rng, dtype):
    """A bias that is -inf at masked pairs gives the weights and output of
    allowed=False there, bit for bit, for finite logits: with a finite bias
    elsewhere, and with +0.0 elsewhere, which turns -0.0 logits into +0.0
    (seeded by zero query rows under a negative scale)."""
    H, L, d, scale = 3, 9, 4, -0.5
    q, k, v = (rng.standard_normal((H, L, d)).astype(dtype) for _ in range(3))
    q[:, ::3] = 0.0
    allowed = (rng.random((L, L)) < 0.5) | np.eye(L, dtype=bool)
    logits = logits_ref(q, k, None, None, scale)
    assert (np.signbit(logits) & (logits == 0) & allowed).any()
    for bias in (None, rng.standard_normal((H, L, L)).astype(dtype)):
        out, weights = dense_forward(q, k, v, allowed=allowed, bias=bias, scale=scale)
        finite = np.zeros((1, L, L), dtype=dtype) if bias is None else bias
        folded = np.where(allowed, finite, dtype(-np.inf))
        got_out, got_weights = dense_forward(q, k, v, bias=folded, scale=scale)
        assert_same_bits(got_weights, weights)
        assert_same_bits(got_out, out)


# ---------------------------------------------------------------------------
# backward: finite differences (float64)
# ---------------------------------------------------------------------------

def fd_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def assert_close(fd, an, tol=1e-6):
    # combined tolerance: fd noise is ~1e-10 absolute at eps=1e-6, so pure
    # relative comparison is meaningless for near-zero gradients
    err = np.abs(fd - an) / np.maximum(1.0, np.maximum(np.abs(fd), np.abs(an)))
    assert err.max() < tol, f"max mismatch {err.max():.3g}"


@pytest.mark.parametrize("scheme", ["M0", "M3", "M6"])
def test_dense_backward_finite_differences(rng, scheme):
    _, m, q, k, v, bias, scales, rel = random_case(rng, scheme, d=4, with_bias=True)
    d_out = rng.standard_normal(q.shape)

    def loss():
        out, _ = dense_forward(q, k, v, m.dense, scales[rel.rel])
        return float((out * d_out).sum())

    weights = dense_forward(q, k, v, m.dense, scales[rel.rel])[1]
    dq, dk, dv, ds = dense_backward(q, k, v, d_out, weights)
    assert_close(fd_grad(loss, q), dq)
    assert_close(fd_grad(loss, k), dk)
    assert_close(fd_grad(loss, v), dv)
    # per-class bias scalars via the relation map
    dclass = np.bincount(
        rel.rel.ravel(), weights=ds.ravel(), minlength=rel.n_classes
    )
    assert_close(fd_grad(loss, scales), dclass)


@pytest.mark.parametrize("scheme", ["M1", "M4"])
def test_block_sparse_backward_finite_differences(rng, scheme):
    _, m, q, k, v, bias, scales, rel = random_case(rng, scheme, d=4, with_bias=True)
    d_out = rng.standard_normal(q.shape)

    def loss():
        out = block_sparse_forward(q, k, v, m.blocks, scales[rel.rel])
        return float((out * d_out).sum())

    dq, dk, dv, dclass = block_sparse_backward(
        q, k, v, m.blocks, d_out, scales[rel.rel], rel=rel.rel, n_classes=rel.n_classes
    )
    assert_close(fd_grad(loss, q), dq)
    assert_close(fd_grad(loss, k), dk)
    assert_close(fd_grad(loss, v), dv)
    assert_close(fd_grad(loss, scales), dclass)


def test_backward_paths_agree(rng):
    _, m, q, k, v, bias, scales, rel = random_case(rng, "M5", d=8, with_bias=True)
    d_out = rng.standard_normal(q.shape)
    dq_d, dk_d, dv_d, ds = dense_backward(q, k, v, d_out,
                                          dense_forward(q, k, v, m.dense, bias)[1])
    dq_s, dk_s, dv_s, dclass_s = block_sparse_backward(
        q, k, v, m.blocks, d_out, bias, rel=rel.rel, n_classes=rel.n_classes
    )
    assert np.allclose(dq_d, dq_s, atol=1e-10)
    assert np.allclose(dk_d, dk_s, atol=1e-10)
    assert np.allclose(dv_d, dv_s, atol=1e-10)
    dclass_d = np.bincount(rel.rel.ravel(), weights=ds.ravel(), minlength=rel.n_classes)
    assert np.allclose(dclass_d, dclass_s, atol=1e-10)


def test_masked_pairs_have_zero_bias_gradient(rng):
    _, m, q, k, v, _, _, _ = random_case(rng, "M3")
    d_out = rng.standard_normal(q.shape)
    _, _, _, ds = dense_backward(q, k, v, d_out, dense_forward(q, k, v, m.dense)[1])
    assert (ds[~m.dense] == 0.0).all()


# ---------------------------------------------------------------------------
# chunked long-sequence paths
# ---------------------------------------------------------------------------

def test_chunked_dense_paths_match(rng, monkeypatch):
    _, m, q, k, v, _, _, _ = random_case(rng, "M1", d=4)
    d_out = rng.standard_normal(q.shape)
    out_plain, weights = dense_forward(q, k, v, m.dense)
    gp = dense_backward(q, k, v, d_out, weights)
    L = q.shape[0]
    monkeypatch.setattr(attention, "_BUCKET_CHUNK", 2 * L)
    # the dense operations run one line cut into row chunks, and at least one
    # block-sparse bucket is chunked too
    assert L > 4
    assert len(list(attention._chunks(attention._whole(L).query, 4))) > 1
    plan = plan_blocks(m.blocks, L)
    assert len(list(attention._chunks(plan.query, 4))) > len(plan.query)
    inp = AttentionInput(q=q, k=k, v=v, mask=m)
    grads = attn_backward(inp, d_out)
    chunked = (
        (attn_dense(inp).out, (grads.dq, grads.dk, grads.dv)),
        (block_sparse_forward(q, k, v, m.blocks),
         block_sparse_backward(q, k, v, m.blocks, d_out)),
    )
    for out_chunked, gc in chunked:
        assert np.allclose(out_chunked, out_plain, atol=1e-12)
        for a, b in zip(gc[:3], gp[:3]):
            assert np.allclose(a, b, atol=1e-12)


def test_chunked_dense_bias_class_gradient(rng, monkeypatch):
    _, m, q, k, v, bias, _, rel = random_case(rng, "M4", d=4, with_bias=True)
    inp = AttentionInput(q=q, k=k, v=v, mask=m, bias_values=bias)
    d_out = rng.standard_normal(q.shape)
    dq, dk, dv, ds = dense_backward(q, k, v, d_out, dense_forward(q, k, v, m.dense, bias)[1])
    want = np.bincount(rel.rel.ravel(), weights=ds.ravel(), minlength=rel.n_classes)
    monkeypatch.setattr(attention, "_BUCKET_CHUNK", 3 * q.shape[0])
    assert q.shape[0] > 4
    chunked = attn_backward(inp, d_out, rel_map=rel)
    assert chunked.dbias_class.shape == (rel.n_classes,) == (13,)
    assert np.allclose(chunked.dbias_class, want, rtol=0, atol=1e-12)
    for a, b in ((chunked.dq, dq), (chunked.dk, dk), (chunked.dv, dv)):
        assert np.allclose(a, b, atol=1e-12)


def test_chunks_keep_one_budget():
    # every piece holds at most _BUCKET_CHUNK logits unless it is one row
    # with more keys than that, and a bucket's pieces cover its rows once:
    # the dense line of a ~1k-token call and the long-table plans alike
    budget = attention._BUCKET_CHUNK
    plans = {"dense": attention._whole(1024)}
    for scheme, tokens in (("M3", "T0"), ("M5", "T2"), ("M1", "T0")):
        plans[scheme] = complete_plan(build_mask(make_bench_encoding(8192, tokens), scheme))
    for name, plan in plans.items():
        for rows, keys in (*plan.query, *(plan.key or ())):
            parts = list(attention._chunks([(rows, keys)], 16))
            for part_rows, part_keys in parts:
                logits = part_rows.size * part_keys.shape[1]
                assert logits <= budget or part_rows.size == 1, (name, rows.shape, logits)
            covered = np.concatenate([part_rows.ravel() for part_rows, _ in parts])
            assert np.array_equal(np.sort(covered), np.sort(rows.ravel())), name


def test_cut_line_gathers_its_keys_once(monkeypatch):
    # the row parts of one line share its keys array, and _line_keys takes
    # each operand at those keys once for all of them
    taken = []

    class Counting(np.ndarray):
        def take(self, indices, axis=None):
            taken.append(indices.shape)
            return super().take(indices, axis)

    monkeypatch.setattr(attention, "_BUCKET_CHUNK", 64)
    k = np.arange(40.0).reshape(20, 2).view(Counting)
    pieces = list(attention._line_keys(attention._chunks(attention._whole(20).query, 2), k))
    assert len(pieces) == 7 and taken == [(1, 20)]
    assert all(gathered[0] is pieces[0][2][0] for _, _, gathered in pieces)


def dense_reference(q, k, v, d_out, allowed, scales, rel):
    """Plain dense core on the whole matrix: out, dq, dk, dv and per-class dbias."""
    out, weights = dense_forward(q, k, v, allowed, scales[rel])
    dq, dk, dv, ds = dense_backward(q, k, v, d_out, weights)
    return out, dq, dk, dv, np.bincount(rel.ravel(), weights=ds.ravel(), minlength=len(scales))


def test_bucket_chunks_match_dense(rng, monkeypatch):
    enc, m, q, k, v, bias, scales, rel = random_case(rng, "M3", d=4, with_bias=True)
    d_out = rng.standard_normal(q.shape)
    want = dense_reference(q, k, v, d_out, m.dense, scales, rel.rel)
    L = len(enc)
    monkeypatch.setattr(attention, "_BUCKET_CHUNK", L)
    assert len({(rows.shape, keys.shape[1]) for rows, keys in m.parts.query}) > 2
    # one many-line bucket is cut into runs of whole lines, and one one-line
    # bucket into parts of its rows
    cut_lines = cut_rows = False
    for rows, keys in m.parts.query:
        parts = list(attention._chunks([(rows, keys)], 4))
        for part_rows, part_keys in parts:
            assert part_rows.size * part_keys.shape[1] <= L
        cut_lines |= len(parts) > 1 and all(r.shape[1] == rows.shape[1] for r, _ in parts)
        cut_rows |= rows.shape[0] == 1 and len(parts) > 1
    assert cut_lines and cut_rows
    inp = AttentionInput(q=q, k=k, v=v, mask=m, bias_values=bias)
    grads = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    got = (attn_block_sparse(inp).out, grads.dq, grads.dk, grads.dv, grads.dbias_class)
    for a, b in zip(got, want):
        assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_asymmetric_blocks_match_dense(rng, monkeypatch):
    blocks = [(0, 2, 0, 3), (0, 2, 5, 6), (2, 6, 1, 6)]
    allowed = blocks_cover(blocks, 6)
    assert not np.array_equal(allowed, allowed.T)
    rel = rng.integers(0, 4, size=(6, 6))
    scales = rng.standard_normal(4)
    q, k, v, d_out = (rng.standard_normal((6, 3)) for _ in range(4))
    want = dense_reference(q, k, v, d_out, allowed, scales, rel)
    for chunk in (2048, 1):  # whole buckets, then pieces of single rows
        monkeypatch.setattr(attention, "_BUCKET_CHUNK", chunk)
        out = block_sparse_forward(q, k, v, blocks, scales[rel])
        grads = block_sparse_backward(q, k, v, blocks, d_out, scales[rel], rel=rel, n_classes=4)
        for a, b in zip((out, *grads), want):
            assert np.allclose(a, b, rtol=0, atol=1e-12)
        # the same rectangles as the blocks of an input with a plain-array mask
        inp = AttentionInput(q=q, k=k, v=v, mask=allowed, bias_values=scales[rel])
        grads = attn_backward(inp, d_out, blocks=blocks, rel_map=rel)
        got = (attn_block_sparse(inp, blocks).out, grads.dq, grads.dk, grads.dv)
        for a, b in zip(got, want):
            assert np.allclose(a, b, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# two-part lines: square column blocks and the rest, merged by logsumexp
# ---------------------------------------------------------------------------

def tall_case(rng, scheme, n_rows, n_cols, d, dtype):
    """A random table tall enough that its columns outweigh its rows, so
    M1 and M2 give square column parts."""
    tokens = "T2" if scheme == "M4" else ("T0", "T1", "T2")[int(rng.integers(0, 3))]
    t = make_table(rng, n_rows=n_rows, n_cols=n_cols, value_max=9)
    enc = linearize(random_question(rng, t), t, tokens)
    m = build_mask(enc, scheme)
    rel = build_bias_map(enc)
    q, k, v, d_out = (rng.standard_normal((len(enc), d)).astype(dtype) for _ in range(4))
    scales = (rng.standard_normal(rel.n_classes) * 0.3).astype(dtype)
    return m, rel, q, k, v, d_out, scales


def check_fd_gradients(rng, m, rel, q, k, v, d_out, scales):
    """float64 finite differences of sum(out * d_out) through the mask's
    own plan: every entry of dq, dk, dv (assert_close), and criterion 3's
    relative error at sampled entries and at every class scalar."""

    def loss():
        return float((block_sparse_forward(q, k, v, m, scales[rel.rel]) * d_out).sum())

    grads = block_sparse_backward(q, k, v, m, d_out, scales[rel.rel], rel=rel.rel,
                                  n_classes=rel.n_classes)
    for x, g in zip((q, k, v), grads[:3]):
        assert_close(fd_grad(loss, x), g)
    eps = 1e-4
    targets = [(x, g, tuple(int(rng.integers(0, s)) for s in x.shape))
               for x, g in zip((q, k, v), grads[:3]) for _ in range(4)]
    targets += [(scales, grads[3], (c,)) for c in range(rel.n_classes)]
    for x, g, idx in targets:
        orig = x[idx]
        x[idx] = orig + eps
        hi = loss()
        x[idx] = orig - eps
        lo = loss()
        x[idx] = orig
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6) < 1e-4


@pytest.mark.parametrize("scheme", ["M1", "M2", "M4"])
def test_mask_parts_forward_matches_dense(rng, scheme):
    split = 0
    for i in range(20):
        m, rel, q, k, v, _, scales = tall_case(rng, scheme, 6 + i, 1 + i % 4, 16, np.float32)
        split += bool(m.parts.square)
        for bias in (None, scales[rel.rel]):
            ref, _ = dense_forward(q, k, v, m.dense, bias)
            got = attn_block_sparse(AttentionInput(q, k, v, m, bias)).out
            assert np.max(np.abs(ref - got)) < 1e-5
    # M4's column keys hold its [COL] token, a row of another line, so it never splits
    assert split > 10 if scheme != "M4" else split == 0


@pytest.mark.parametrize("scheme", ["M1", "M2", "M4"])
def test_mask_parts_backward_finite_differences(rng, scheme):
    for n_rows, n_cols in ((8, 2), (12, 1)):
        m, rel, q, k, v, d_out, scales = tall_case(rng, scheme, n_rows, n_cols, 4, np.float64)
        assert bool(m.parts.square) == (scheme != "M4")
        check_fd_gradients(rng, m, rel, q, k, v, d_out, scales)


@pytest.mark.parametrize("scheme", ["M1", "M2"])
def test_mask_parts_cut_square_lines_into_row_pieces(rng, monkeypatch, scheme):
    m, rel, q, k, v, d_out, scales = tall_case(rng, scheme, 14, 2, 4, np.float64)
    n = max(rows.shape[1] for rows, _ in m.parts.square)
    monkeypatch.setattr(attention, "_BUCKET_CHUNK", 3 * n)
    square = list(attention._chunks(m.parts.square, 4))
    assert len(square) > sum(len(rows) for rows, _ in m.parts.square)
    assert all(len(rows) == 1 and rows.shape[1] <= 3 for rows, _ in square)
    want = dense_reference(q, k, v, d_out, m.dense, scales, rel.rel)
    inp = AttentionInput(q, k, v, m, scales[rel.rel])
    grads = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    got = (attn_block_sparse(inp).out, grads.dq, grads.dk, grads.dv, grads.dbias_class)
    for a, b in zip(got, want):
        assert np.allclose(a, b, rtol=0, atol=1e-12)
    # a transposed (not C-contiguous) bias and class map give the bits of contiguous ones
    runs = []
    for bias, classes in ((scales[rel.rel], rel.rel),
                          (np.ascontiguousarray(scales[rel.rel].T).T, np.ascontiguousarray(rel.rel.T).T)):
        inp = AttentionInput(q, k, v, m, bias)
        grads = attn_backward(inp, d_out, blocks=m.blocks, rel_map=classes)
        runs.append([attn_block_sparse(inp).out, grads.dq, grads.dk, grads.dv, grads.dbias_class])
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()
    check_fd_gradients(rng, m, rel, q, k, v, d_out, scales)


def float64_reference(q, k, v, d_out, m, rel, scales):
    """dense_reference in float64 on float32 operands, and sum |ds|."""
    q, k, v, d_out, scales = (x.astype(np.float64) for x in (q, k, v, d_out, scales))
    weights = dense_forward(q, k, v, m.dense, scales[rel.rel])[1]
    _, _, _, ds = dense_backward(q, k, v, d_out, weights)
    return dense_reference(q, k, v, d_out, m.dense, scales, rel.rel), float(np.abs(ds).sum())


def assert_within_criterion_3(got, want, ds_l1):
    # out 1e-5 and gradients 1e-4 of max(1, max |reference|); class
    # gradients, which largely cancel, 1e-7 of sum |ds|
    for a, b, tol in zip(got[:4], want[:4], (1e-5, 1e-4, 1e-4, 1e-4)):
        assert np.max(np.abs(a - b)) <= tol * max(1.0, float(np.abs(b).max()))
    assert np.max(np.abs(got[4] - want[4])) <= 1e-7 * ds_l1


@pytest.mark.parametrize("encoding", ["tall column", "bench M1 L~2k"])
def test_mask_parts_float32_against_float64(encoding):
    # a one-column table whose column block is taller than the chunk budget,
    # so it runs as row pieces at the default budget; then the M1 pass of
    # a bench encoding
    rng = derive_rng(7, "two-part", 0)
    if encoding == "tall column":
        t = make_table(rng, n_rows=400, n_cols=1, value_max=99)
        enc = linearize("select c1", t, "T0")
    else:
        enc = make_bench_encoding(2048, "T0", seed=1)
    m, rel = build_mask(enc, "M1"), build_bias_map(enc)
    n = max(rows.shape[1] for rows, _ in m.parts.square)
    assert (n * n > attention._BUCKET_CHUNK) == (encoding == "tall column")
    q, k, v, d_out = (rng.standard_normal((len(enc), 16)).astype(np.float32) for _ in range(4))
    scales = (rng.standard_normal(rel.n_classes) * 0.5).astype(np.float32)
    inp = AttentionInput(q, k, v, m, scales[rel.rel])
    grads = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    got = (attn_block_sparse(inp).out, grads.dq, grads.dk, grads.dv, grads.dbias_class)
    assert_within_criterion_3(got, *float64_reference(q, k, v, d_out, m, rel, scales))


# ---------------------------------------------------------------------------
# class gradient: square lines from the layout, the other lines by class ids
# ---------------------------------------------------------------------------

def test_class_grad_is_the_bincount_of_the_class_ids(rng):
    # bit for bit the bincount that converts its int8 ids and its weights
    # itself: lines gathered by flat index, a line of consecutive rows and
    # keys (a view) and a transposed map, with ds over enough binades that
    # float64 sums round, so their order shows
    enc = make_bench_encoding(600, "T0", seed=2)
    m, rel = build_mask(enc, "M1"), build_bias_map(enc)
    line = np.arange(len(enc))[None]
    pieces = [*attention._chunks(m.parts.square, 16), *attention._chunks(m.parts.query, 16),
              (line[:, 100:140], line)]
    for classes in (rel.rel, np.ascontiguousarray(rel.rel.T).T):
        for rows, keys in pieces:
            shape = rows.shape + keys.shape[1:]
            for dtype in (np.float32, np.float64):
                ds = (rng.standard_normal(shape) * np.exp2(rng.integers(-40, 40, shape))).astype(dtype)
                want = class_grad_ref(classes, rows, keys, ds, rel.n_classes)
                got = attention._class_grad(classes, rows, keys, ds, rel.n_classes)
                assert got.tobytes() == want.tobytes()


def square_case(rng, scheme, tokens):
    """A tall table with multi-token cells and headers (one header holds
    one token, the others two and three), whose M1 or M2 mask plans square
    lines; the case asserts that those lines hold same-cell pairs and
    header tokens."""
    t = make_table(rng, n_rows=14, n_cols=3, value_max=999)
    enc = linearize(random_question(rng, t), Table(("c1 7", "c2", "c3 4 5"), t.rows), tokens)
    m, rel = build_mask(enc, scheme), build_bias_map(enc)
    lines = [line for rows, _ in m.parts.square for line in rows]
    assert len(lines) == 3
    assert all((np.diff(m.row[line]) == 0).sum() > len(line) // 3 for line in lines)
    assert sorted(int((m.cat[line] == _HEADER).sum()) for line in lines) == [1, 2, 3]
    return enc, m, rel


def within_float64(got, want):
    """Class sums within 1e-12 of max(1, |want|), entry by entry."""
    return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("scheme", ["M1", "M2"])
@pytest.mark.parametrize("tokens", ["T0", "T1", "T2"])
def test_square_class_sums_from_the_layout(rng, monkeypatch, scheme, tokens):
    # a square chunk's class sums from the layout against the bincount of
    # its class ids, for whole lines (several a chunk) and row pieces
    _, m, rel = square_case(rng, scheme, tokens)
    n = max(rows.shape[1] for rows, _ in m.parts.square)
    for budget in (attention._BUCKET_CHUNK, 3 * n):
        monkeypatch.setattr(attention, "_BUCKET_CHUNK", budget)
        pieces = list(attention._chunks(m.parts.square, 4))
        assert any(len(rows) > 1 for rows, _ in pieces) == (budget > 3 * n)
        for rows, keys in pieces:
            ds = rng.standard_normal(rows.shape + keys.shape[1:])
            want = class_grad_ref(rel.rel, rows, keys, ds, rel.n_classes)
            assert within_float64(rel.column_class_sums(rows, keys, ds), want)


@pytest.mark.parametrize("scheme", ["M1", "M2"])
@pytest.mark.parametrize("tokens", ["T0", "T1", "T2"])
def test_square_class_gradient_through_the_kernel(rng, monkeypatch, scheme, tokens):
    # the map of the mask's layout against its raw class array, which sums
    # class ids: q, k and v gradients bit for bit, class gradients within
    # 1e-12 in float64; in float32, criterion 3 against float64
    _, m, rel = square_case(rng, scheme, tokens)
    L = m.length
    scales = rng.standard_normal(rel.n_classes) * 0.5
    q, k, v, d_out = (rng.standard_normal((L, 8)) for _ in range(4))
    n = max(rows.shape[1] for rows, _ in m.parts.square)
    for budget in (attention._BUCKET_CHUNK, 3 * n):
        monkeypatch.setattr(attention, "_BUCKET_CHUNK", budget)
        inp = AttentionInput(q, k, v, m, scales[rel.rel])
        got = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
        want = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel.rel)
        for a, b in zip((got.dq, got.dk, got.dv), (want.dq, want.dk, want.dv)):
            assert a.tobytes() == b.tobytes()
        assert within_float64(got.dbias_class, want.dbias_class)
    monkeypatch.undo()
    q, k, v, d_out, scales = (x.astype(np.float32) for x in (q, k, v, d_out, scales))
    inp = AttentionInput(q, k, v, m, scales[rel.rel])
    grads = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    got = (attn_block_sparse(inp).out, grads.dq, grads.dk, grads.dv, grads.dbias_class)
    assert_within_criterion_3(got, *float64_reference(q, k, v, d_out, m, rel, scales))


def test_class_ids_summed_unless_the_map_is_of_the_mask(rng, monkeypatch):
    # the map of the mask's layout sums each square chunk from that layout;
    # a raw class array, a map over another layout and the dense path sum
    # class ids (_class_grad), which gives the bits of the bincount oracle
    _, m, rel = square_case(rng, "M1", "T0")
    L = m.length
    q, k, v, d_out = (rng.standard_normal((L, 8)).astype(np.float32) for _ in range(4))
    inp = AttentionInput(q, k, v, m, (rng.standard_normal(rel.n_classes) * 0.5)[rel.rel])
    cat = m.cat.copy()
    cat[cat == _HEADER] = m.cat[np.flatnonzero(m.cat != _HEADER)[0]]
    foreign = BiasRelationMap("M0", rel.row, rel.col, cat)
    assert rel.same_layout(m) and not foreign.same_layout(m)
    sums, calls = BiasRelationMap.column_class_sums, []

    def counted(self, *args):
        calls.append(self)
        return sums(self, *args)

    monkeypatch.setattr(BiasRelationMap, "column_class_sums", counted)
    attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    assert calls == [rel] * len(list(attention._chunks(m.parts.square, 8)))
    cases = ((rel.rel, m.blocks), (foreign, m.blocks), (rel, None))
    ran = [attn_backward(inp, d_out, blocks=blocks, rel_map=classes) for classes, blocks in cases]
    assert calls == [rel] * len(list(attention._chunks(m.parts.square, 8)))
    monkeypatch.setattr(attention, "_class_grad", lambda rel, rows, keys, ds, n:
                        class_grad_ref(rel, rows, keys, ds, n))
    for grads, (classes, blocks) in zip(ran, cases):
        want = attn_backward(inp, d_out, blocks=blocks, rel_map=classes)
        for a, b in zip((grads.dq, grads.dk, grads.dv, grads.dbias_class),
                        (want.dq, want.dk, want.dv, want.dbias_class)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme", ["M3", "M5"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unsplit_masks_run_their_rectangles_bit_for_bit(rng, scheme, dtype):
    # no column part: the mask's plan is its complete lines, as the
    # rectangles' plan is, and every output bit is theirs
    for _ in range(5):
        _, m, q, k, v, bias, _, rel = random_case(rng, scheme, d=8, dtype=dtype, with_bias=True)
        assert same_plan(m.parts, plan_blocks(m.blocks, m.length)) and not m.parts.square
        d_out = rng.standard_normal(q.shape).astype(dtype)
        assert block_sparse_forward(q, k, v, m, bias).tobytes() == \
            block_sparse_forward(q, k, v, m.blocks, bias).tobytes()
        got, want = (block_sparse_backward(q, k, v, blocks, d_out, bias, rel=rel.rel)
                     for blocks in (m, m.blocks))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# wrappers and plan
# ---------------------------------------------------------------------------

def test_attention_input_validation(rng):
    q = rng.standard_normal((4, 2))
    with pytest.raises(ValidationError):
        AttentionInput(q=q, k=q[:3], v=q)
    # no tokens or a zero head dimension is rejected, naming the shape
    for shape in ((0, 2), (4, 0), (0, 0)):
        empty = np.zeros(shape)
        with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
            AttentionInput(q=empty, k=empty, v=empty)
    bad = q.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        AttentionInput(q=bad, k=q, v=q)
    # a query row with no allowed key is rejected up front
    mask = np.ones((4, 4), dtype=bool)
    mask[2, :] = False
    with pytest.raises(ValidationError):
        AttentionInput(q=q, k=q, v=q, mask=mask)
    # non-finite bias at an allowed pair is rejected; at a masked pair it is fine
    mask = np.ones((4, 4), dtype=bool)
    bias = np.zeros((4, 4))
    bias[1, 1] = np.inf
    with pytest.raises(ValidationError):
        AttentionInput(q=q, k=q, v=q, mask=mask, bias_values=bias)
    mask[1, 1] = False
    mask[1, 0] = True
    AttentionInput(q=q, k=q, v=q, mask=mask, bias_values=bias)


def test_attention_input_checks_a_mask_without_its_matrix(rng):
    enc, m, q, k, v, _, _, _ = random_case(rng, "M3")
    dense = build_mask(enc, "M3").dense
    i, j = np.argwhere(~dense)[0]
    a, b = np.argwhere(dense & ~np.eye(len(enc), dtype=bool))[-1]
    bias = np.zeros(dense.shape)
    bias[i, j] = np.nan  # masked: accepted
    AttentionInput(q=q, k=k, v=v, mask=m, bias_values=bias)
    bias[a, b] = np.inf  # allowed: rejected
    with pytest.raises(ValidationError, match="finite wherever the mask allows"):
        AttentionInput(q=q, k=k, v=v, mask=m, bias_values=bias)
    with pytest.raises(ValidationError, match="mask shape"):
        AttentionInput(q=q[:-1], k=k[:-1], v=v[:-1], mask=m)
    assert "dense" not in m.__dict__


def test_wrapper_round_trip(rng):
    enc, m, q, k, v, bias, scales, rel = random_case(rng, "M4", d=4, with_bias=True)
    inp = AttentionInput(q=q, k=k, v=v, mask=m, bias_values=bias)
    dense_out = attn_dense(inp).out
    sparse_out = attn_block_sparse(inp).out
    assert "blocks" not in m.__dict__  # the mask path plans from rows and never tiles
    assert np.allclose(dense_out, sparse_out, atol=1e-10)
    d_out = rng.standard_normal(q.shape)
    g_dense = attn_backward(inp, d_out, rel_map=rel)
    g_sparse = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    assert np.allclose(g_dense.dq, g_sparse.dq, atol=1e-10)
    assert np.allclose(g_dense.dbias_class, g_sparse.dbias_class, atol=1e-10)
    with pytest.raises(ValidationError):
        attn_backward(inp, d_out[:2])


@pytest.mark.parametrize("scheme", ["M5", "M1"])
def test_mask_plan_built_once_per_mask(rng, monkeypatch, scheme):
    _, m, q, k, v, bias, _, rel = random_case(rng, scheme, d=4, with_bias=True)
    calls = []
    layout_buckets = mask_module._layout_buckets

    def counted(rows, cols, cat, table):
        calls.append(len(cat))
        return layout_buckets(rows, cols, cat, table)

    # every plan of a mask is planned from its layout here
    monkeypatch.setattr(mask_module, "_layout_buckets", counted)
    inp = AttentionInput(q=q, k=k, v=v, mask=m, bias_values=bias)  # checks bias on the plan
    d_out = rng.standard_normal(q.shape)
    # the same rectangles, tiled from the row runs of the bare matrix
    rects = mask_module.export_blocks_from_dense(matrix_lines(m.dense))
    fresh = (block_sparse_forward(q, k, v, rects, bias),
             block_sparse_backward(q, k, v, rects, d_out, bias, rel=rel.rel,
                                   n_classes=rel.n_classes))
    out = attn_block_sparse(inp).out
    grads = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    assert calls == [q.shape[0]]  # m.blocks, read above, is cut from the same plan
    assert np.array_equal(m.blocks, rects)
    assert np.array_equal(out, fresh[0])
    for a, b in zip((grads.dq, grads.dk, grads.dv, grads.dbias_class), fresh[1]):
        assert np.array_equal(a, b)
    # an AttentionMask input runs its own plan even when other rectangles
    # are passed: they only choose the sparse path
    L = q.shape[0]
    again = attn_backward(inp, d_out, blocks=[(0, L, 0, L)], rel_map=rel)
    assert calls == [L]
    for a, b in zip((again.dq, again.dk, again.dv, again.dbias_class), fresh[1]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tokens,scheme", [("T0", "M3"), ("T2", "M5"), ("T0", "M1")])
def test_long_table_pass_builds_no_matrix(tokens, scheme):
    # the long-table pass: mask, bias map, input checks, forward, backward
    enc = make_bench_encoding(400, tokens, seed=3)
    m = build_mask(enc, scheme)
    rel = build_bias_map(enc)
    rng = derive_rng(3, "long-pass", len(enc))
    q, k, v, d_out = (rng.standard_normal((len(enc), 8)).astype(np.float32) for _ in range(4))
    scalars = rng.standard_normal(rel.n_classes).astype(np.float32)
    inp = AttentionInput(q, k, v, m, scalars[rel.rel])
    attn_block_sparse(inp)
    attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    assert "parts" in m.__dict__ and "blocks" in m.__dict__
    # the tiling is joined from the parts: no plan of the complete lines either
    assert "dense" not in m.__dict__ and "plan" not in m.__dict__


def test_square_bias_gathered_once_per_line(rng, monkeypatch):
    # an M1 input gathers the bias along each square line once, when it is
    # built; its forward and backward read those pieces, and give the bits
    # of the kernel run on the bare bias. The mask is planned once.
    m, rel, q, k, v, d_out, scales = tall_case(rng, "M1", 14, 2, 4, np.float64)
    bias = scales[rel.rel]
    twin = mask_module.AttentionMask(m.scheme, m.row, m.col, m.cat)  # m itself is not planned yet
    squares = {tuple(line) for rows, _ in twin.parts.square for line in rows.tolist()}
    assert len(squares) >= 2
    gathers = collections.Counter()
    pairs, layout_buckets = attention._pairs, mask_module._layout_buckets
    calls = []

    def counted_pairs(mat, rows, cols):
        if mat is bias:
            gathers.update(tuple(r) for r, c in zip(rows.tolist(), cols.tolist())
                           if r == c and tuple(r) in squares)
        return pairs(mat, rows, cols)

    def counted_buckets(rows, cols, cat, *args, **kwargs):
        calls.append(len(cat))
        return layout_buckets(rows, cols, cat, *args, **kwargs)

    monkeypatch.setattr(attention, "_pairs", counted_pairs)
    monkeypatch.setattr(mask_module, "_layout_buckets", counted_buckets)
    inp = AttentionInput(q, k, v, m, bias)
    out = attn_block_sparse(inp).out
    grads = attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    assert gathers == {line: 1 for line in squares}
    # the tiling, and so its plan, is joined from the same parts
    assert plan_blocks(m.blocks, m.length).square == () and calls == [m.length]
    assert out.tobytes() == block_sparse_forward(q, k, v, m, bias, inp.scale).tobytes()
    fresh = block_sparse_backward(q, k, v, m, d_out, bias, inp.scale, rel=rel)
    for a, b in zip((grads.dq, grads.dk, grads.dv, grads.dbias_class), fresh):
        assert a.tobytes() == b.tobytes()
    # the raw class array sums the class ids of the square lines too (_class_grad)
    ids = block_sparse_backward(q, k, v, m, d_out, bias, inp.scale, rel=rel.rel,
                                n_classes=rel.n_classes)
    for a, b in zip((grads.dq, grads.dk, grads.dv), ids):
        assert a.tobytes() == b.tobytes()
    assert within_float64(grads.dbias_class, ids[3])


def test_attention_input_operands_are_fixed(rng):
    # the bias is read once, at construction: rebinding it is refused, and an
    # input built with another bias runs that bias on both paths
    m, rel, q, k, v, d_out, scales = tall_case(rng, "M1", 12, 2, 4, np.float64)
    inp = AttentionInput(q, k, v, m, scales[rel.rel])
    assert inp.square_bias
    other = (scales[::-1] * 2.0)[rel.rel]
    for name, value in (("bias_values", other), ("mask", None), ("q", k), ("scale", 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inp, name, value)
    rebound = dataclasses.replace(inp, bias_values=other)
    for case in (inp, rebound):
        assert np.allclose(attn_block_sparse(case).out, attn_dense(case).out, rtol=0, atol=1e-12)
        got = attn_backward(case, d_out, blocks=m.blocks, rel_map=rel)
        want = attn_backward(case, d_out, rel_map=rel)
        for a, b in zip((got.dq, got.dk, got.dv, got.dbias_class),
                        (want.dq, want.dk, want.dv, want.dbias_class)):
            assert np.allclose(a, b, rtol=0, atol=1e-12)
    assert not np.allclose(attn_block_sparse(inp).out, attn_block_sparse(rebound).out)


@pytest.mark.parametrize("scheme", ["M1", "M5"])
def test_mask_as_blocks_matches_its_rectangles(rng, scheme):
    """Through its AttentionMask, a mask that plans no square line runs its
    own rectangles bit for bit. random_case's 1-4-row tables never give a
    square line (Plan.square), which is asserted first so that a case that
    splits fails here instead of passing untested; split M1/M2 masks merge
    their parts by logsumexp and are covered at tolerance by the
    test_mask_parts_* tests."""
    _, m, q, k, v, bias, _, rel = random_case(rng, scheme, d=4, with_bias=True)
    assert not m.parts.square, "the case plans a square line; this test covers unsplit masks"
    d_out = rng.standard_normal(q.shape)
    assert np.array_equal(block_sparse_forward(q, k, v, m, bias),
                          block_sparse_forward(q, k, v, m.blocks, bias))
    got, want = (block_sparse_backward(q, k, v, blocks, d_out, bias, rel=rel.rel)
                 for blocks in (m, m.blocks))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_mask_length_must_match_the_input(rng):
    _, m, q, _, _, _, _, _ = random_case(rng, "M3", d=4)
    short = q[:-1]
    with pytest.raises(ValidationError, match=f"mask length {len(q)} does not match"):
        block_sparse_forward(short, short, short, m)
    with pytest.raises(ValidationError, match=f"mask length {len(q)} does not match"):
        block_sparse_backward(short, short, short, m, short)


def test_block_sparse_needs_blocks(rng):
    q = rng.standard_normal((4, 2))
    inp = AttentionInput(q=q, k=q, v=q, mask=np.ones((4, 4), dtype=bool))
    with pytest.raises(ValidationError):
        attn_block_sparse(inp)


def buckets_as_lists(buckets):
    return [(rows.tolist(), keys.tolist()) for rows, keys in buckets]


def test_plan_blocks_merges_query_ranges():
    blocks = [(0, 2, 0, 3), (0, 2, 5, 6), (2, 4, 0, 4), (0, 4, 6, 8), (4, 8, 0, 8)]
    plan = plan_blocks(blocks, 8)
    # the two (2 rows, 6 keys) runs share one bucket
    assert buckets_as_lists(plan.query) == [
        ([[0, 1], [2, 3]], [[0, 1, 2, 5, 6, 7], [0, 1, 2, 3, 6, 7]]),
        ([[4, 5, 6, 7]], [list(range(8))]),
    ]
    # the painted matrix is not symmetric: its key buckets come from its columns
    assert buckets_as_lists(plan.key) == [
        ([[4]], [[4, 5, 6, 7]]),
        ([[3], [5]], [[2, 3, 4, 5, 6, 7], [0, 1, 4, 5, 6, 7]]),
        ([[6, 7]], [list(range(8))]),
        ([[0, 1, 2]], [list(range(8))]),
    ]


def test_plan_blocks_splits_overlapping_query_ranges(rng):
    blocks = [(0, 4, 0, 2), (2, 6, 2, 6)]
    plan = plan_blocks(blocks, 6)
    assert buckets_as_lists(plan.query) == [
        ([[0, 1]], [[0, 1]]), ([[4, 5]], [[2, 3, 4, 5]]), ([[2, 3]], [[0, 1, 2, 3, 4, 5]]),
    ]
    allowed = blocks_cover(blocks, 6)
    rel = rng.integers(0, 3, size=(6, 6))
    scales = rng.standard_normal(3)
    q, k, v, d_out = (rng.standard_normal((6, 3)) for _ in range(4))
    ref, weights = dense_forward(q, k, v, allowed, scales[rel])
    assert np.allclose(block_sparse_forward(q, k, v, blocks, scales[rel]), ref, atol=1e-12)
    dq, dk, dv, ds = dense_backward(q, k, v, d_out, weights)
    dclass = np.bincount(rel.ravel(), weights=ds.ravel(), minlength=3)
    got = block_sparse_backward(q, k, v, blocks, d_out, scales[rel], rel=rel, n_classes=3)
    for a, b in zip(got, (dq, dk, dv, dclass)):
        assert np.allclose(a, b, atol=1e-12)


def test_plan_blocks_range_check():
    with pytest.raises(ValidationError):
        plan_blocks([(0, 2, 0, 9)], 8)
    with pytest.raises(ValidationError):
        plan_blocks([(3, 3, 0, 2)], 8)
    with pytest.raises(ValidationError, match=r"\(n, 4\) array"):
        plan_blocks([(0, 4, 0, 4), (0, 4)], 4)  # ragged
    with pytest.raises(ValidationError, match=r"\(n, 4\) array"):
        z = np.zeros((4, 2))
        block_sparse_forward(z, z, z, [(0, 4, 0, 4), (0, 4)])


def test_plan_blocks_rejects_overlap(rng):
    # the second rectangle covers key 1 of rows 0..1 again
    blocks = [(0, 2, 0, 2), (0, 2, 1, 2)]
    with pytest.raises(ValidationError, match="key 1 twice for query row 0"):
        plan_blocks(blocks, 2)
    # a range nested inside an earlier one is caught too
    with pytest.raises(ValidationError, match="key 1 twice"):
        plan_blocks([(0, 4, 0, 4), (0, 4, 1, 2)], 4)
    # the first doubly covered pair is named, in row-major order
    with pytest.raises(ValidationError, match="key 2 twice for query row 1"):
        plan_blocks([(0, 4, 0, 1), (1, 3, 1, 4), (2, 4, 2, 3), (0, 1, 1, 4), (1, 2, 2, 3)], 4)
    q = rng.standard_normal((2, 4))
    with pytest.raises(ValidationError):
        block_sparse_forward(q, q, q, blocks)


def test_uncovered_query_rows_rejected(rng):
    q = rng.standard_normal((4, 2))
    with pytest.raises(ValidationError, match="query row 2 uncovered"):
        block_sparse_forward(q, q, q, [(0, 2, 0, 4)])


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

def test_make_bench_encoding_hits_target():
    for target in (128, 256):
        enc = make_bench_encoding(target)
        assert abs(len(enc) - target) <= 20
    with pytest.raises(ValidationError):
        make_bench_encoding(128, tokens_scheme="T1")


def test_bench_rows_shape():
    rows = bench_attention([96, 128], scheme="M3", trials=2)
    assert [r.length for r in rows] == sorted(r.length for r in rows)
    for r in rows:
        assert r.scheme == "M3"
        assert r.direction == "forward"
        assert r.dense_ms > 0 and r.sparse_ms > 0
        assert r.speedup == pytest.approx(r.dense_ms / r.sparse_ms)


def test_bench_runs_on_a_known_blas_thread_count(monkeypatch):
    """Both sides are timed on TABENC_THREADS OpenBLAS threads, or on 1 when
    it is unset, and the caller's count comes back afterwards."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so*"))
    if not libs or not hasattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy does not bundle scipy-openblas")
    get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    seen = []
    dense = attention.attn_dense
    monkeypatch.setattr(attention, "attn_dense", lambda inp: (seen.append(get()), dense(inp))[1])
    caller = set_blas_threads(2)
    try:
        for env, inside, outside in ((None, 1, 2), ("2", 2, 1)):
            if env is None:
                monkeypatch.delenv("TABENC_THREADS", raising=False)
            else:
                monkeypatch.setenv("TABENC_THREADS", env)
            set_blas_threads(outside)
            seen.clear()
            bench_attention([64], scheme="M3", trials=1)
            assert seen and set(seen) == {inside}
            assert get() == outside
    finally:
        set_blas_threads(caller)


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_bench_rejects_the_thread_counts_the_command_line_rejects(monkeypatch, raw):
    """TABENC_THREADS has one parser (core.env_threads): a value that is not
    an integer >= 1 is a ValidationError before any thread count is set."""
    monkeypatch.setenv("TABENC_THREADS", raw)
    monkeypatch.setattr(attention, "set_blas_threads",
                        lambda n: pytest.fail(f"set {n} BLAS threads"))
    for call in (env_threads, lambda: bench_attention([64], trials=1)):
        with pytest.raises(ValidationError, match=f"TABENC_THREADS must be .*{raw}"):
            call()


def test_bench_includes_backward():
    rows = bench_attention([64], scheme="M6", trials=1, include_backward=True)
    assert [r.direction for r in rows] == ["forward", "backward"]
