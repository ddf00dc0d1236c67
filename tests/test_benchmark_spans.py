"""The benchmark's tracer still finds the mask and attention functions it wraps.

benchmark/spans.py wraps mask, attention and model functions by module-level
name, and the long_table workload looks their spans up by name to time the
dense reference, so a renamed, moved or bypassed function would break a
traced benchmark run or silently zero its per-layer metrics.
"""

import importlib.util
from pathlib import Path

import numpy as np

import tabenc.attention as attention
import tabenc.mask as mask
import tabenc.model as model
from tabenc.core import FactorConfig, derive_rng
from tabenc.datagen import GenSpec, gen_dataset
from tabenc.linearize import default_vocab, linearize
from tabenc.mask import build_mask

from conftest import make_table, random_question

SPANS_PY = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sparse_pass_records_its_spans(rng):
    t = make_table(rng, n_rows=3, n_cols=3)
    m = build_mask(linearize(random_question(rng, t), t, "T0"), "M3")
    q, k, v, d_out = (rng.standard_normal((m.length, 4)) for _ in range(4))
    inp = attention.AttentionInput(q, k, v, m)
    originals = (attention.block_sparse_forward, attention.block_sparse_backward)
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        attention.attn_block_sparse(inp)
        attention.attn_backward(inp, d_out, blocks=m.blocks)
        names = [span[0] for span in tracer.spans]
    finally:
        tracer.unwrap_all()
    assert names.count("attention.sparse_fwd") == 1
    assert names.count("attention.sparse_bwd") == 1
    # a mask input runs the mask's own plan, never a plan of its rectangles
    assert "attention.plan_blocks" not in names
    assert (attention.block_sparse_forward, attention.block_sparse_backward) == originals


def test_traced_tiling_records_one_span_and_its_rectangles(rng):
    t = make_table(rng, n_rows=4, n_cols=3)
    m = build_mask(linearize(random_question(rng, t), t, "T0"), "M1")
    q, k, v = (rng.standard_normal((m.length, 4)) for _ in range(3))
    inp = attention.AttentionInput(q, k, v, m)
    original = mask.export_blocks_from_dense
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        attention.attn_block_sparse(inp)
        forward = [span[0] for span in tracer.spans]
        blocks = m.blocks
        names = [span[0] for span in tracer.spans]
    finally:
        tracer.unwrap_all()
    assert "attention.plan_blocks" not in forward
    assert "mask.export_blocks" not in forward  # the forward never tiles
    assert names.count("mask.export_blocks") == 1
    assert tracer.counts["mask.rectangles"] == len(blocks) > 1
    assert mask.export_blocks_from_dense is original


def test_traced_train_step_records_encoder_attention_inside_the_encoder():
    # the model calls dense_forward and dense_backward through its module
    # globals, which spans.py wraps; the encoder calls them once per batch
    # element and layer
    examples, _ = gen_dataset(GenSpec(n=3, seed=11, row_values=(2, 3), col_values=(2, 3),
                                      value_max=9, templates=("select",)))
    cfg = model.ModelConfig(d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=1, ffn_dim=24,
                            context_len=128, max_positions=128, dec_positions=16,
                            max_answer_len=16, factor=FactorConfig("T2", "M5", "CPE", "B1", "E1"))
    vocab = default_vocab()
    batch = model.collate([model.prepare_example(ex, cfg, vocab) for ex in examples],
                          vocab.pad, with_rel=True)
    params = model.init_params(cfg, vocab.size, derive_rng(1, "init", 0))
    originals = (model.dense_forward, model.dense_backward)
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        model.loss_and_grads(params, cfg, batch, vocab.pad)
    finally:
        tracer.unwrap_all()

    def ancestors(i):
        while (i := tracer.spans[i][3]) is not None:
            yield tracer.spans[i][0]

    for name, outer in (("attention.dense_fwd", "model.encoder_fwd"),
                        ("attention.dense_bwd", "model.encoder_bwd")):
        inside = [i for i, span in enumerate(tracer.spans)
                  if span[0] == name and outer in ancestors(i)]
        assert len(inside) == cfg.n_enc_layers * len(examples), name
    assert (model.dense_forward, model.dense_backward) == originals
