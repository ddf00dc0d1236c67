"""The benchmark's tracer still finds the mask and attention functions it wraps.

benchmark/spans.py wraps mask and attention functions by module-level name,
and the long_table workload looks their spans up by name to time the dense
reference, so a renamed, moved or bypassed function would break a traced
benchmark run or silently zero its per-layer metrics.
"""

import importlib.util
from pathlib import Path

import numpy as np

import tabenc.attention as attention
import tabenc.mask as mask
from tabenc.linearize import linearize
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
