import tracemalloc
import weakref

import numpy as np
import pytest

from tabenc.attention import dense_forward
from tabenc.core import FactorConfig, QAExample, Table, ValidationError, derive_rng
from tabenc.datagen import GenSpec, gen_dataset
from tabenc.linearize import default_vocab
from tabenc.model import (
    Batch,
    DecodeCache,
    ModelConfig,
    TrainingDivergedError,
    answer_token_ids,
    collate,
    decoder_forward,
    encode,
    encoder_backward,
    encoder_forward,
    evaluate_da,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict,
    prepare_example,
    save_checkpoint,
    tokens_to_values,
    train,
)
from tabenc.mask import BLOCKED, N_BIAS_CLASSES, AttentionMask
from tabenc import model
from tabenc.model import (
    Adam,
    _bias_pairs,
    _bias_scale_grad,
    _ffn_fwd,
    _linear_bwd,
    _linear_fwd,
    _ln_bwd,
    _ln_fwd,
    _scatter_add,
)

from oracles import (
    adam_step_ref,
    bias_scale_grad_ref,
    collated_planes,
    gather_bias_ref,
    linear_bwd_ref,
    linear_fwd_ref,
    ln_bwd_ref,
    ln_fwd_ref,
    prepared_planes,
    scatter_add_ref,
    self_attention_bwd_ref,
    self_attention_ref,
)

TINY = dict(d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, ffn_dim=24,
            context_len=128, max_positions=128, dec_positions=16, max_answer_len=16)


def tiny_cfg(**kw):
    base = dict(TINY)
    base.update(kw)
    return ModelConfig(**base)


def small_examples(n=3, seed=11, value_max=9):
    examples, _ = gen_dataset(
        GenSpec(n=n, seed=seed, row_values=(2, 3), col_values=(2, 3),
                value_max=value_max, templates=("select", "where1"))
    )
    return examples


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ValidationError):
        ModelConfig(context_len=1024, max_positions=512)
    with pytest.raises(ValidationError):
        ModelConfig(max_answer_len=100, dec_positions=64)
    cfg = ModelConfig()
    assert cfg.head_dim == 32


def test_config_json_round_trip():
    cfg = tiny_cfg(factor=FactorConfig(tokens="T2", mask="M5", pe="CPE",
                                       bias="B1", emb="E1"))
    again = ModelConfig.from_json(cfg.to_json())
    assert again == cfg


# ---------------------------------------------------------------------------
# answer codec
# ---------------------------------------------------------------------------

def test_answer_codec_round_trip():
    vocab = default_vocab()
    for answer in ((), ("5",), ("12", "3"), ("0", "0", "900")):
        ids = answer_token_ids(answer, vocab)
        assert ids[-1] == vocab.eos
        assert tokens_to_values(ids, vocab) == list(answer)


def test_tokens_to_values_stops_at_eos():
    vocab = default_vocab()
    ids = answer_token_ids(("7",), vocab) + answer_token_ids(("8",), vocab)
    assert tokens_to_values(ids, vocab) == ["7"]


# ---------------------------------------------------------------------------
# preparation and batching
# ---------------------------------------------------------------------------

def test_prepare_example_shapes():
    cfg = tiny_cfg(factor=FactorConfig(tokens="T2", mask="M4", bias="B1", emb="E1"))
    vocab = default_vocab()
    ex = small_examples(1)[0]
    prep = prepare_example(ex, cfg, vocab)
    L = len(prep.ids)
    allowed, rel = prepared_planes(ex, cfg, vocab)
    assert prep.mask.length == L
    assert allowed.shape == (L, L)
    assert rel.shape == (L, L)
    assert prep.dec_in[0] == vocab.bos
    assert prep.target[-1] == vocab.eos
    assert len(prep.dec_in) == len(prep.target)


def test_prepare_rejects_oversized_answer():
    cfg = tiny_cfg(dec_positions=4, max_answer_len=4)
    vocab = default_vocab()
    ex = QAExample(Table(("c1",), (("123",), ("456",))), "select c1", ("123", "456"))
    with pytest.raises(ValidationError):
        prepare_example(ex, cfg, vocab)


def test_prepare_rejects_long_context():
    cfg = tiny_cfg(context_len=8, max_positions=8)
    vocab = default_vocab()
    ex = small_examples(1)[0]
    with pytest.raises(ValidationError):
        prepare_example(ex, cfg, vocab)


def test_collate_padding():
    cfg = tiny_cfg(factor=FactorConfig(bias="B1"))
    vocab = default_vocab()
    examples = small_examples(3)
    items = [prepare_example(ex, cfg, vocab) for ex in examples]
    batch = collate(items, vocab.pad, with_rel=True)
    allowed, rel = collated_planes(examples, cfg, vocab)
    B, L = batch.ids.shape
    assert B == 3 and L == max(len(it.ids) for it in items)
    for i, it in enumerate(items):
        n = len(it.ids)
        assert (batch.ids[i, n:] == vocab.pad).all()
        assert batch.enc_real[i, :n].all() and not batch.enc_real[i, n:].any()
        # pad rows keep their diagonal so softmax stays defined
        if n < L:
            assert allowed[i, 0, n:, n:].diagonal().all()
            assert (rel[i, n:, :] == rel[i, n:, n:].max()).all()
    assert batch.causal.shape[0] == batch.dec_in.shape[1]
    assert np.array_equal(batch.causal, np.tril(batch.causal))


COLLATE_CASES = [
    FactorConfig(tokens="T0", mask="M1", pe="TPE", bias="B0", emb="E0"),
    FactorConfig(tokens="T1", mask="M2", pe="TPE", bias="B1", emb="E0"),
    FactorConfig(tokens="T2", mask="M5", pe="CPE", bias="B1", emb="E1"),
    FactorConfig(tokens="T2", mask="M6", pe="CPE", bias="B0", emb="E1"),
    FactorConfig(tokens="T0", mask="M0", pe="TPE", bias="B1", emb="E0"),
]


@pytest.mark.parametrize("factor", COLLATE_CASES, ids=lambda f: f"{f.tokens}-{f.mask}-{f.bias}")
def test_collate_classes_are_the_parent_planes(factor):
    """collate's one int8 plane is the allow-matrix and the relation classes
    as the model once collated them, folded: the class where allowed (pad
    diagonal included), BLOCKED elsewhere (the other pad pairs included),
    under B0 as under B1."""
    cfg = tiny_cfg(factor=factor)
    vocab = default_vocab()
    examples = small_examples(4, seed=13)
    items = [prepare_example(ex, cfg, vocab) for ex in examples]
    assert len({len(it.ids) for it in items}) > 1  # some elements are padded
    allowed, rel = collated_planes(examples, cfg, vocab)
    for with_rel in (True, False):
        batch = collate(items, vocab.pad, with_rel)
        assert batch.classes.dtype == np.int8
        assert np.array_equal(batch.classes, np.where(allowed[:, 0], rel, np.int8(BLOCKED)))


def test_prepared_holds_no_array_larger_than_its_length():
    """A Prepared example keeps its mask as the layout: every array it
    holds, its mask's included, is 1-D and at most L long, and collating
    it caches no (L, L) array on the mask."""
    cfg = tiny_cfg(factor=FactorConfig(tokens="T2", mask="M5", pe="CPE", bias="B1", emb="E1"))
    vocab = default_vocab()
    examples = small_examples(3, seed=13)
    items = [prepare_example(ex, cfg, vocab) for ex in examples]
    collate(items, vocab.pad, with_rel=True)
    for it in items:
        L = len(it.ids)
        assert isinstance(it.mask, AttentionMask) and it.mask.length == L
        held = [*vars(it).values(), *vars(it.mask).values()]
        arrays = [x for x in held if isinstance(x, np.ndarray)]
        assert len(arrays) == 10
        assert all(a.ndim == 1 and a.size <= L for a in arrays)


# ---------------------------------------------------------------------------
# gradients: finite differences over sampled coordinates (float64)
# ---------------------------------------------------------------------------

FACTOR_CASES = [
    FactorConfig(tokens="T0", mask="M0", pe="TPE", bias="B0", emb="E0"),
    FactorConfig(tokens="T2", mask="M5", pe="CPE", bias="B1", emb="E1"),
    FactorConfig(tokens="T1", mask="M1", pe="TPE", bias="B1", emb="E0"),
]


@pytest.mark.parametrize("factor", FACTOR_CASES, ids=lambda f: f"{f.tokens}-{f.mask}-{f.pe}-{f.bias}-{f.emb}")
def test_gradients_match_finite_differences(factor):
    cfg = tiny_cfg(d_model=8, n_heads=2, ffn_dim=12, factor=factor)
    vocab = default_vocab()
    examples = small_examples(2, seed=21)
    items = [prepare_example(ex, cfg, vocab) for ex in examples]
    batch = collate(items, vocab.pad, with_rel=factor.bias == "B1")
    params = init_params(cfg, vocab.size, derive_rng(5, "init", 0))
    params = {k: v.astype(np.float64) for k, v in params.items()}

    _, grads = loss_and_grads(params, cfg, batch, vocab.pad)
    coord_rng = derive_rng(5, "fd-coords", 0)
    eps = 1e-6
    for name, arr in params.items():
        flat = arr.ravel()
        k = min(3, flat.size)
        for idx in coord_rng.choice(flat.size, size=k, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi, _ = loss_and_grads(params, cfg, batch, vocab.pad)
            flat[idx] = orig - eps
            lo, _ = loss_and_grads(params, cfg, batch, vocab.pad)
            flat[idx] = orig
            fd = (hi - lo) / (2 * eps)
            an = grads[name].ravel()[idx]
            # fd noise floor is ~1e-9 at this eps; combine abs and rel
            assert abs(fd - an) <= 1e-8 + 1e-4 * max(abs(fd), abs(an)), (
                name, idx, fd, an
            )


def encoder_logit_grads(monkeypatch, params, cfg, batch, pad_id):
    """The (B, H, L, L) logit gradients of one loss_and_grads' encoder
    layers, last layer first, from the model's dense_backward calls: the
    encoder's backward runs after the decoder's and calls it once per batch
    element, in b order, so its calls are the last B * n_enc_layers."""
    real, calls = model.dense_backward, []

    def capture(*args):
        grads = real(*args)
        calls.append(grads[3])
        return grads

    monkeypatch.setattr(model, "dense_backward", capture)
    loss_and_grads(params, cfg, batch, pad_id)
    n = len(batch.ids)
    calls = calls[len(calls) - cfg.n_enc_layers * n:]
    return [np.stack(calls[i:i + n]) for i in range(0, len(calls), n)]


def test_masked_pairs_get_zero_attention_gradient(monkeypatch):
    factor = FactorConfig(tokens="T2", mask="M6", bias="B1", emb="E1")
    cfg = tiny_cfg(factor=factor)
    vocab = default_vocab()
    examples = small_examples(2, seed=8)
    items = [prepare_example(ex, cfg, vocab) for ex in examples]
    batch = collate(items, vocab.pad, with_rel=True)
    allowed, _ = collated_planes(examples, cfg, vocab)
    params = init_params(cfg, vocab.size, derive_rng(9, "init", 0))
    captured = encoder_logit_grads(monkeypatch, params, cfg, batch, vocab.pad)
    assert len(captured) == cfg.n_enc_layers
    for ds in captured:
        blocked = ~np.broadcast_to(allowed, ds.shape)
        assert (ds[blocked] == 0.0).all()


def b1_batch(n=3, **kw):
    cfg = tiny_cfg(factor=FactorConfig(tokens="T2", mask="M5", bias="B1"), n_heads=4, **kw)
    vocab = default_vocab()
    items = [prepare_example(ex, cfg, vocab) for ex in small_examples(n, seed=8)]
    return cfg, collate(items, vocab.pad, with_rel=True)


def b1_planes(cfg, n=3):
    """b1_batch's planes as the model once collated them (collated_planes)."""
    return collated_planes(small_examples(n, seed=8), cfg, default_vocab())


def test_attention_state_is_freed_once_its_reader_has_run(monkeypatch):
    """The encoder's attention state exists one batch element at a time: the
    uncached forward keeps no element's weights past its dense_forward call,
    no layer's B1 bias buffer outlives that layer, and encoder_backward
    frees each element's weights and logit gradient once its dense_backward
    has run, before the next element's runs."""
    cfg = tiny_cfg(factor=FactorConfig(tokens="T2", mask="M5", bias="B1"), n_enc_layers=3)
    vocab = default_vocab()
    batch = collate([prepare_example(ex, cfg, vocab) for ex in small_examples(3, seed=8)],
                    vocab.pad, with_rel=True)
    B, n = len(batch.ids), cfg.n_enc_layers
    params = init_params(cfg, vocab.size, derive_rng(9, "init", 0))
    forward, backward = model.dense_forward, model.dense_backward
    biases, weights, alive, dead, logit_grads = [], [], [], [], []

    def dense_forward(*args, **kwargs):
        bias = kwargs["bias"]
        # alive: earlier elements' weights, and bias buffers other than this one
        alive.append((sum(ref() is not None for ref in weights),
                      sum(ref() is not None and ref() is not bias for ref in biases)))
        out, w = forward(*args, **kwargs)
        weights.append(weakref.ref(w))
        biases.append(weakref.ref(bias))
        return out, w

    def dense_backward(*args):
        dead.append([ref() is None for ref in weights])
        assert all(ref() is None for ref in logit_grads)
        grads = backward(*args)
        logit_grads.append(weakref.ref(grads[3]))
        return grads

    monkeypatch.setattr(model, "dense_forward", dense_forward)
    monkeypatch.setattr(model, "dense_backward", dense_backward)
    encoder_forward(params, cfg, batch, keep_cache=False)
    assert alive == [(0, 0)] * (n * B)
    assert all(ref() is None for ref in biases)
    biases.clear()
    weights.clear()
    alive.clear()
    enc_states, cache = encoder_forward(params, cfg, batch, keep_cache=True)
    assert [a for _, a in alive] == [0] * (n * B)
    assert len(biases) == len(weights) == n * B
    assert all(ref() is None for ref in biases)
    assert all(ref() is not None for ref in weights)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    encoder_backward(np.ones_like(enc_states), cache, params, cfg, batch, grads)
    # call j reads layer n - 1 - j // B, element j % B: every element read
    # before it is freed, every later one alive
    read = [(n - 1 - j // B) * B + j % B for j in range(n * B)]
    assert dead == [[idx in read[:j] for idx in range(n * B)] for j in range(n * B)]
    assert all(ref() is None for ref in weights + logit_grads)
    assert cache[0] == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_bias_is_the_class_gather_made_contiguous(monkeypatch, dtype):
    """The B1 bias each batch element's dense_forward gets is a C-contiguous
    (H, L, L) array, bytewise that element's slice of the class gather,
    with -inf at its masked pairs."""
    cfg, batch = b1_batch(n_enc_layers=2)
    allowed, rel = b1_planes(cfg)
    vocab = default_vocab()
    rng = derive_rng(3, "scales", 0)
    params = {k: (rng.standard_normal(v.shape) if k.endswith("bias_scales") else v).astype(dtype)
              for k, v in init_params(cfg, vocab.size, derive_rng(9, "init", 0)).items()}
    scales0, classes0 = {k: v.copy() for k, v in params.items()}, batch.classes.copy()
    forward, got = model.dense_forward, []

    def dense_forward(*args, **kwargs):
        bias = kwargs["bias"]
        got.append((bias.flags.c_contiguous, bias.dtype, bias.shape, bias.tobytes()))
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "dense_forward", dense_forward)
    encoder_forward(params, cfg, batch, keep_cache=False)
    B = len(batch.ids)
    assert len(got) == cfg.n_enc_layers * B
    for j, (contiguous, dt, shape, data) in enumerate(got):
        gathered = gather_bias_ref(params[f"enc{j // B}.bias_scales"], rel)
        want = np.where(allowed, gathered, -np.inf)[j % B]
        assert contiguous and dt == want.dtype and shape == want.shape
        assert data == want.tobytes()
    assert all(np.array_equal(params[k], v) for k, v in scales0.items())
    assert np.array_equal(batch.classes, classes0)


@pytest.mark.parametrize("bias", ["B0", "B1"])
def test_uncached_encoder_forward_holds_one_element_of_attention(bias):
    """At B 8, H 4, L 600, one uncached encoder_forward allocates less at its
    peak than one (B, H, L, L) float32 array: its logits, weights and bias
    exist for one batch element at a time."""
    B, L = 8, 600
    cfg = ModelConfig(n_heads=4, context_len=L, max_positions=L,
                      factor=FactorConfig(tokens="T0", mask="M0", bias=bias))
    vocab = default_vocab()
    rng = derive_rng(41, "memory", 0)
    params = init_params(cfg, vocab.size, rng)
    allowed = rng.random((B, L, L)) < 0.5
    allowed[:, np.arange(L), np.arange(L)] = True
    rel = rng.integers(0, N_BIAS_CLASSES, (B, L, L)).astype(np.int8)
    classes = np.where(allowed, rel, np.int8(BLOCKED))
    zeros = np.zeros((B, L), dtype=np.int32)
    ids = rng.integers(0, vocab.size, (B, L)).astype(np.int32)
    pos = np.broadcast_to(np.arange(L, dtype=np.int32), (B, L)).copy()
    dec = np.zeros((B, 1), dtype=np.int32)
    batch = Batch(ids, pos, zeros, zeros, zeros, classes, np.ones((B, L), dtype=bool),
                  dec, dec, np.ones((1, 1), dtype=bool))
    tracemalloc.start()
    try:
        encoder_forward(params, cfg, batch, keep_cache=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < B * cfg.n_heads * L * L * 4, peak


def test_uncached_encoder_forward_frees_attention_before_the_ffn(monkeypatch):
    """The uncached encoder_forward drops each layer's attention cache (its
    input, q, k, v and merged heads) before that layer's FFN runs; the
    cached one keeps it for encoder_backward."""
    cfg = tiny_cfg(factor=FactorConfig(tokens="T2", mask="M5", bias="B1"), n_enc_layers=2)
    vocab = default_vocab()
    batch = collate([prepare_example(ex, cfg, vocab) for ex in small_examples(3, seed=8)],
                    vocab.pad, with_rel=True)
    params = init_params(cfg, vocab.size, derive_rng(9, "init", 0))
    mha_fwd, ffn_fwd = model._mha_fwd, model._ffn_fwd
    caches, alive = [], []

    def spied_mha(*args, **kwargs):
        y, cache = mha_fwd(*args, **kwargs)
        caches.append([weakref.ref(x) for x in cache if isinstance(x, np.ndarray)])
        return y, cache

    def spied_ffn(*args):
        alive.append(sum(ref() is not None for refs in caches for ref in refs))
        return ffn_fwd(*args)

    monkeypatch.setattr(model, "_mha_fwd", spied_mha)
    monkeypatch.setattr(model, "_ffn_fwd", spied_ffn)
    encoder_forward(params, cfg, batch, keep_cache=False)
    assert len(caches) == cfg.n_enc_layers and all(len(refs) == 6 for refs in caches)
    assert alive == [0] * cfg.n_enc_layers
    caches.clear()
    alive.clear()
    _, cache = encoder_forward(params, cfg, batch, keep_cache=True)
    assert alive == [6 * (i + 1) for i in range(cfg.n_enc_layers)]
    del cache


def test_ffn_cache_keeps_the_relu_output_only():
    """_ffn_fwd caches (x, relu output), and _ffn_bwd's mask a > 0 is its
    input's h > 0 bit for bit, at +-0.0, NaN and either sign."""
    rng = derive_rng(3, "ffn", 0)
    params = {"f.w1": rng.standard_normal((4, 6)), "f.b1": rng.standard_normal(6),
              "f.w2": rng.standard_normal((6, 4)), "f.b2": rng.standard_normal(4)}
    x = rng.standard_normal((2, 5, 4))
    y, cache = _ffn_fwd(params, "f", x)
    h = linear_fwd_ref(x, params["f.w1"], params["f.b1"])
    assert len(cache) == 2 and cache[0] is x
    assert cache[1].tobytes() == np.maximum(h, 0.0).tobytes()
    assert y.tobytes() == _linear_fwd(np.maximum(h, 0.0), params["f.w2"], params["f.b2"]).tobytes()
    h = np.array([-1.0, -0.0, 0.0, np.nan, 2.0, -np.inf, np.inf])
    assert np.array_equal(np.maximum(h, 0.0) > 0, h > 0)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    want = {k: np.zeros_like(v) for k, v in params.items()}
    dy = rng.standard_normal(y.shape)
    got = model._ffn_bwd(dy, cache, params, "f", grads)
    da = linear_bwd_ref(cache[1], params["f.w2"], dy, want, "f.w2", "f.b2")
    dh = da * (linear_fwd_ref(x, params["f.w1"], params["f.b1"]) > 0)
    ref = linear_bwd_ref(x, params["f.w1"], dh, want, "f.w1", "f.b1")
    assert got.tobytes() == ref.tobytes()
    for k in params:
        assert grads[k].tobytes() == want[k].tobytes()


def test_bias_scale_grad_is_the_per_head_bincount_loop(monkeypatch):
    """Bit for bit the loop of one bincount per (b, h): the logit gradient of
    a real backward, and a random one that is -0.0 at some masked pairs and
    spans enough binades that float64 sums round, so their order shows."""
    cfg, batch = b1_batch()
    allowed, rel = b1_planes(cfg)
    vocab = default_vocab()
    params = init_params(cfg, vocab.size, derive_rng(9, "init", 0))
    params = {k: (derive_rng(4, "b1", 0).standard_normal(v.shape).astype(v.dtype)
                  if k.endswith("bias_scales") else v) for k, v in params.items()}
    captured = encoder_logit_grads(monkeypatch, params, cfg, batch, vocab.pad)
    rng = derive_rng(5, "ds", 0)
    shape = captured[0].shape
    wide = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 60, shape))
    captured.append(wide.astype(np.float32) * allowed)
    assert np.signbit(captured[-1][~np.broadcast_to(allowed, captured[-1].shape)]).any()
    pairs = _bias_pairs(batch.classes)
    for ds in captured:
        got = np.zeros((cfg.n_heads, N_BIAS_CLASSES), dtype=np.float64)
        for ds_b, pairs_b in zip(ds, pairs):
            _bias_scale_grad(got, ds_b, pairs_b)
        want = bias_scale_grad_ref(ds, rel, N_BIAS_CLASSES)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# train-step primitives against their references, byte for byte
# ---------------------------------------------------------------------------

def wide(rng, shape, dtype):
    """Normal values spread over enough binades that sums round, so any
    change in the order of additions shows in the bits."""
    return (rng.standard_normal(shape) * np.exp2(rng.integers(-30, 30, shape))).astype(dtype)


def scatter_cases(dtype):
    rng = derive_rng(21, "scatter", 0)
    table = wide(rng, (10, 16), dtype)
    yield "repeated indices", table, rng.integers(0, 10, (8, 40)), wide(rng, (8, 40, 16), dtype)
    # seg_emb at the grid shape: two rows, one of them with over 1,024 contributions
    idx = (rng.random((8, 294)) < 0.1).astype(np.int32)
    yield "long segment", wide(rng, (2, 128), dtype), idx, wide(rng, (8, 294, 128), dtype)
    signed = np.array([0.0, -0.0], dtype=dtype)
    table = rng.choice(signed, (4, 8))
    table[3] = wide(rng, 8, dtype)
    rows = rng.choice(signed, (30, 8))
    rows[::7] = wide(rng, (5, 8), dtype)
    yield "signed zeros", table, rng.integers(0, 4, 30), rows
    yield "all -0.0 rows", rng.choice(signed, (3, 4)), np.array([0, 0, 2, 2, 2]), \
        np.full((5, 4), -0.0, dtype=dtype)
    yield "empty index", wide(rng, (5, 8), dtype), np.zeros(0, dtype=np.int32), \
        np.zeros((0, 8), dtype=dtype)
    yield "1-wide table", wide(rng, (3, 1), dtype), rng.integers(0, 3, 50), wide(rng, (50, 1), dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_add_is_the_index_order_loop(dtype):
    """_scatter_add rests on numpy adding a reduction over a non-last axis in
    order; this pins it, and the loop itself, to np.add.at."""
    for case, table, idx, rows in scatter_cases(dtype):
        got, want, at = table.copy(), table.copy(), table.copy()
        _scatter_add(got, idx, rows)
        scatter_add_ref(want, idx, rows)
        np.add.at(at, idx, rows)
        assert got.tobytes() == want.tobytes() == at.tobytes(), case


def grid_shapes():
    """Leading shapes of the linear layers and LayerNorms in a grid-shape
    step (B 8, L 294, decoder D 12 or a short answer's 5) and in one greedy
    decode step (B, 1)."""
    return [(8, 294), (8, 12), (8, 5), (8, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_layers_are_the_3d_products(dtype):
    rng = derive_rng(22, "linear", 0)
    vocab = default_vocab().size
    for lead in grid_shapes():
        for d_in, d_out in ((128, 128), (128, 256), (256, 128), (128, vocab)):
            x = wide(rng, lead + (d_in,), dtype) * dtype(1e-6)
            w, b = rng.standard_normal((d_in, d_out)).astype(dtype), wide(rng, d_out, dtype)
            got, want = _linear_fwd(x, w, b), linear_fwd_ref(x, w, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            dy = wide(rng, lead + (d_out,), dtype)
            g_got, g_want = ({"w": wide(derive_rng(1, "g", 0), w.shape, dtype),
                              "b": np.zeros(d_out, dtype)} for _ in range(2))
            got = _linear_bwd(x, w, dy, g_got, "w", "b")
            want = linear_bwd_ref(x, w, dy, g_want, "w", "b")
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert all(g_got[k].tobytes() == g_want[k].tobytes() for k in g_want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_is_the_out_of_place_formula(dtype):
    rng = derive_rng(23, "ln", 0)
    for lead in grid_shapes():
        x = wide(rng, lead + (128,), dtype)
        g, b = (rng.standard_normal(128).astype(dtype) for _ in range(2))
        (got, c_got), (want, c_want) = _ln_fwd(x, g, b), ln_fwd_ref(x, g, b)
        assert got.tobytes() == want.tobytes()
        assert all(p.tobytes() == q.tobytes() for p, q in zip(c_got, c_want))
        dy = wide(rng, x.shape, dtype)
        dy[0, 0, :5] = -0.0
        g_got, g_want = ({"g": np.zeros(128, dtype), "b": np.zeros(128, dtype)} for _ in range(2))
        got = _ln_bwd(dy, c_got, g_got, "g", "b")
        want = ln_bwd_ref(dy, c_want, g_want, "g", "b")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert all(g_got[k].tobytes() == g_want[k].tobytes() for k in g_want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_is_the_out_of_place_formula(dtype):
    cfg = ModelConfig(d_model=128, n_heads=4, context_len=1024, max_positions=1024,
                      factor=FactorConfig(tokens="T2", mask="M5", pe="CPE", bias="B1", emb="E1"))
    params = {k: v.astype(dtype) for k, v in
              init_params(cfg, default_vocab().size, derive_rng(24, "init", 0)).items()}
    got, want = params, {k: v.copy() for k, v in params.items()}
    opt_got, opt_want = Adam(got, 3e-4), Adam(want, 3e-4)
    rng = derive_rng(24, "adam", 0)
    for _ in range(3):
        grads = {k: wide(rng, v.shape, dtype) for k, v in params.items()}
        grads["seg_emb"][0, :4] = [0.0, -0.0, 0.0, -0.0]
        opt_got.step(got, grads)
        adam_step_ref(opt_want, want, grads)
    for k in want:
        assert got[k].tobytes() == want[k].tobytes(), k
        assert opt_got.m[k].tobytes() == opt_want.m[k].tobytes(), k
        assert opt_got.v[k].tobytes() == opt_want.v[k].tobytes(), k


@pytest.mark.parametrize("factor", [FactorConfig("T2", "M5", "CPE", "B1", "E1"),
                                    FactorConfig("T0", "M1", "TPE", "B0", "E0")],
                         ids=["struct", "flat"])
def test_train_is_bitwise_the_reference_primitives(monkeypatch, factor):
    """A few steps of train, as written and with every rewritten primitive
    swapped for its reference: the same parameters and losses, to the bit."""
    examples = small_examples(10, seed=31)
    cfg = tiny_cfg(factor=factor, d_model=32, n_heads=4, ffn_dim=48, steps=6, eval_every=2,
                   batch_size=4, eval_fraction=0.0)
    got = train(examples, cfg, seed=3)
    for name, ref in (("_scatter_add", scatter_add_ref), ("_linear_fwd", linear_fwd_ref),
                      ("_linear_bwd", linear_bwd_ref), ("_ln_fwd", ln_fwd_ref),
                      ("_ln_bwd", ln_bwd_ref), ("_self_attention", self_attention_ref),
                      ("_self_attention_bwd", self_attention_bwd_ref)):
        monkeypatch.setattr(model, name, ref)
    monkeypatch.setattr(model.Adam, "step", adam_step_ref)
    want = train(examples, cfg, seed=3)
    assert [row["loss"] for row in got.trace] == [row["loss"] for row in want.trace]
    assert got.trace == want.trace and got.best_step == want.best_step
    for k in want.params:
        assert got.params[k].tobytes() == want.params[k].tobytes(), k


# ---------------------------------------------------------------------------
# training behaviour
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def overfit_run():
    examples, _ = gen_dataset(
        GenSpec(n=16, seed=303, row_values=(3,), col_values=(3,),
                value_max=9, templates=("select",))
    )
    cfg = tiny_cfg(
        d_model=64, n_heads=4, n_enc_layers=2, n_dec_layers=2, ffn_dim=128,
        factor=FactorConfig(tokens="T0", mask="M1", pe="TPE", bias="B0", emb="E1"),
        steps=3000, eval_every=50, batch_size=8, eval_fraction=0.0,
    )
    result = train(examples, cfg, seed=1, stop_da=1.0)
    return examples, cfg, result


def test_overfit_reaches_perfect_da(overfit_run):
    examples, cfg, result = overfit_run
    assert result.best_eval_da == 1.0
    assert result.steps_run < cfg.steps  # stop_da fired early
    assert evaluate_da(result.params, cfg, examples) == 1.0


def test_predict_shapes(overfit_run):
    examples, cfg, result = overfit_run
    preds = predict(result.params, cfg, examples[:4])
    assert len(preds) == 4
    assert all(isinstance(p, list) for p in preds)
    assert preds[0] == list(examples[0].answer)


def _full_prefix_greedy(params, cfg, prepared, vocab):
    """Greedy decoding that reruns the decoder without a cache on the whole
    prefix at every step; returns the token rows, BOS first, and the encoder
    states with the cross-attention mask."""
    batch = collate(prepared, vocab.pad, with_rel=cfg.factor.bias == "B1")
    enc_states, _ = encoder_forward(params, cfg, batch, keep_cache=False)
    cross = batch.enc_real[:, None, None, :]
    ys = np.full((len(prepared), 1), vocab.bos, dtype=np.int32)
    done = np.zeros(len(prepared), dtype=bool)
    for _ in range(cfg.max_answer_len):
        n = ys.shape[1]
        logits, _ = decoder_forward(params, cfg, ys, enc_states, cross,
                                    np.tril(np.ones((n, n), dtype=bool)), keep_cache=False)
        nxt = logits[:, -1].argmax(axis=-1).astype(np.int32)
        nxt[done] = vocab.pad
        ys = np.concatenate([ys, nxt[:, None]], axis=1)
        done |= nxt == vocab.eos
        if done.all():
            break
    return ys, enc_states, cross


def _prefix_logits(params, cfg, ys, enc_states, cross):
    """Logits at every position of ys but the last, from one uncached call."""
    n = ys.shape[1] - 1
    logits, _ = decoder_forward(params, cfg, ys[:, :-1], enc_states, cross,
                                np.tril(np.ones((n, n), dtype=bool)), keep_cache=False)
    return logits


def _stop_steps(ys, vocab):
    """Decoding step at which each row emitted EOS (the row length if never)."""
    hit = ys[:, 1:] == vocab.eos
    return np.where(hit.any(axis=1), hit.argmax(axis=1), hit.shape[1])


def test_cached_decoding_matches_full_prefix(overfit_run):
    examples, cfg, result = overfit_run
    vocab = default_vocab()
    prepared = [prepare_example(ex, cfg, vocab) for ex in examples[:7]]
    # the trained model stops every row at the same step; lower the EOS logit
    # to halfway between the first batch's smallest and largest EOS margins
    ys, enc_states, cross = _full_prefix_greedy(result.params, cfg, prepared[:3], vocab)
    logits = _prefix_logits(result.params, cfg, ys, enc_states, cross)
    at_stop = logits[np.arange(3), _stop_steps(ys, vocab)]
    rest = at_stop.copy()
    rest[:, vocab.eos] = -np.inf
    margin = at_stop[:, vocab.eos] - rest.max(axis=1)
    params = dict(result.params)
    params["out_b"] = params["out_b"].copy()
    params["out_b"][vocab.eos] -= (margin.min() + margin.max()) / 2

    rows = []
    for i in range(0, len(prepared), 3):
        ys, enc_states, cross = _full_prefix_greedy(params, cfg, prepared[i:i + 3], vocab)
        rows.extend(ys)
        if i == 0:
            assert len(set(_stop_steps(ys, vocab).tolist())) > 1
        # the cached path, fed the same tokens, gives the full-prefix logits
        full = _prefix_logits(params, cfg, ys, enc_states, cross)
        n = full.shape[1]
        cache = DecodeCache(params, cfg, enc_states)
        causal = np.tril(np.ones((cfg.max_answer_len, cfg.max_answer_len), dtype=bool))
        for t in range(n):
            step, _ = decoder_forward(params, cfg, ys[:, t:t + 1], enc_states, cross, causal,
                                      keep_cache=False, cache=cache)
            assert np.allclose(step[:, 0], full[:, t], rtol=0, atol=1e-5), t
        assert cache.t == n
    preds = predict(params, cfg, examples[:7], vocab, batch_size=3)
    assert preds == [tokens_to_values(r[1:], vocab) for r in rows]


def test_decoder_without_cache_is_the_layer_stack():
    cfg = tiny_cfg(n_dec_layers=2)
    vocab = default_vocab()
    batch = collate([prepare_example(ex, cfg, vocab) for ex in small_examples(3)],
                    vocab.pad, with_rel=False)
    noise = derive_rng(3, "noise", 0)
    # nonzero biases and gains, unlike a fresh init
    params = {k: v + (0.1 * noise.standard_normal(v.shape)).astype(np.float32)
              for k, v in init_params(cfg, vocab.size, derive_rng(3, "init", 0)).items()}
    enc_states, _ = encoder_forward(params, cfg, batch, keep_cache=False)
    cross = batch.enc_real[:, None, None, :]
    logits, cache = decoder_forward(params, cfg, batch.dec_in, enc_states, cross,
                                    batch.causal, keep_cache=True)

    def heads(x):
        b, l, d = x.shape
        return x.reshape(b, l, cfg.n_heads, d // cfg.n_heads).transpose(0, 2, 1, 3)

    def mha(prefix, x_q, x_kv, allowed):
        q = heads(x_q @ params[f"{prefix}.wq"] + params[f"{prefix}.wq_b"])
        k = heads(x_kv @ params[f"{prefix}.wk"] + params[f"{prefix}.wk_b"])
        v = heads(x_kv @ params[f"{prefix}.wv"] + params[f"{prefix}.wv_b"])
        scale = 1.0 / float(np.sqrt(cfg.head_dim))
        o, w = dense_forward(q, k, v, allowed=allowed, bias=None, scale=scale)
        b, h, l, dh = o.shape
        merged = o.transpose(0, 2, 1, 3).reshape(b, l, h * dh)
        y = merged @ params[f"{prefix}.wo"] + params[f"{prefix}.wo_b"]
        return y, (x_q, x_kv, q, k, v, w, merged)

    D = batch.dec_in.shape[1]
    y = params["tok_emb"][batch.dec_in] + params["dec_pos_emb"][np.arange(D)]
    layers = []
    for i in range(cfg.n_dec_layers):
        h1, c1 = _ln_fwd(y, params[f"dec{i}.ln1.g"], params[f"dec{i}.ln1.b"])
        a, cs = mha(f"dec{i}.self", h1, h1, batch.causal[None, None, :, :])
        y = y + a
        h2, c2 = _ln_fwd(y, params[f"dec{i}.ln2.g"], params[f"dec{i}.ln2.b"])
        c, cc = mha(f"dec{i}.cross", h2, enc_states, cross)
        y = y + c
        h3, c3 = _ln_fwd(y, params[f"dec{i}.ln3.g"], params[f"dec{i}.ln3.b"])
        f, cf = _ffn_fwd(params, f"dec{i}.ffn", h3)
        y = y + f
        layers.append((c1, cs, c2, cc, c3, cf))
    out, c_final = _ln_fwd(y, params["dec_ln.g"], params["dec_ln.b"])
    want = (out @ params["out_w"] + params["out_b"], (layers, c_final, out))

    def same(a, b):
        if isinstance(a, (tuple, list)):
            assert type(a) is type(b) and len(a) == len(b)
            for x, z in zip(a, b):
                same(x, z)
        elif isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b

    same((logits, cache), want)


def test_encode_returns_hidden_states(overfit_run):
    examples, cfg, result = overfit_run
    h = encode(result.params, cfg, examples[0])
    assert h.ndim == 2 and h.shape[1] == cfg.d_model


def test_trace_schema(overfit_run):
    _, _, result = overfit_run
    assert result.trace, "at least one evaluation row"
    for row in result.trace:
        assert set(row) == {"step", "loss", "eval_da"}
    steps = [r["step"] for r in result.trace]
    assert steps == sorted(steps)
    assert result.best_step in steps


def test_train_determinism():
    examples = small_examples(8, seed=77)
    cfg = tiny_cfg(steps=30, eval_every=10, batch_size=4)
    a = train(examples, cfg, seed=5)
    b = train(examples, cfg, seed=5)
    assert a.trace == b.trace
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name
    c = train(examples, cfg, seed=6)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    examples = small_examples(4, seed=2)
    cfg = tiny_cfg(steps=20, eval_every=100, learning_rate=1e30)
    with pytest.raises(TrainingDivergedError):
        train(examples, cfg, seed=1)


def test_empty_training_set_rejected():
    with pytest.raises(ValidationError):
        train([], tiny_cfg(), seed=0)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, overfit_run):
    _, cfg, result = overfit_run
    vocab = default_vocab()
    path = tmp_path / "model.bin"
    save_checkpoint(path, result.params, cfg, vocab.size)
    params, cfg2, vocab_size = load_checkpoint(path)
    assert cfg2 == cfg
    assert vocab_size == vocab.size
    assert set(params) == set(result.params)
    for name in params:
        assert np.array_equal(
            params[name], result.params[name].astype(np.float32)
        ), name


def test_checkpoint_bytes_are_stable(tmp_path, overfit_run):
    _, cfg, result = overfit_run
    vocab = default_vocab()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, result.params, cfg, vocab.size)
    save_checkpoint(p2, result.params, cfg, vocab.size)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValidationError):
        load_checkpoint(bad)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(ValidationError):
        load_checkpoint(empty)
