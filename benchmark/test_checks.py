"""Each correctness check passes on tabenc's output and rejects a corrupted one.

Run from the repository root:

    python3 -m pytest benchmark/test_checks.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np
import pytest

import checks
import run
from tabenc import attention, datagen, mask, model
from tabenc.core import FactorConfig, QAExample, Table, derive_rng
from tabenc.linearize import default_vocab, encode_input

STRUCT = FactorConfig("T2", "M5", "CPE", "B1", "E1")


def _small_cfg(factor=STRUCT):
    return model.ModelConfig(factor=factor, d_model=16, n_heads=2, n_enc_layers=1,
                             n_dec_layers=1, ffn_dim=32, context_len=512, max_positions=512,
                             dec_positions=64, max_answer_len=8)


def _small_enc(tokens="T2", scheme="M5", n_rows=5, n_cols=4):
    rng = np.random.default_rng(0)
    table = Table(tuple(f"c{i + 1}" for i in range(n_cols)),
                  tuple(tuple(str(int(x)) for x in rng.integers(0, 100, n_cols))
                        for _ in range(n_rows)))
    return encode_input("select c1 where c2 = 7", table,
                        FactorConfig(tokens, scheme, "CPE", "B1", "E0"))


# -- answers and suites ---------------------------------------------------------

def test_gold_answers_reject_a_wrong_answer():
    examples, _ = datagen.gen_dataset(datagen.suite_spec("train", 40, seed=3))
    assert checks.check_gold_answers(examples) == []
    ex = examples[5]
    wrong = QAExample(ex.table, ex.query, tuple(ex.answer) + ("999",))
    assert checks.check_gold_answers(examples[:5] + [wrong])


@pytest.mark.parametrize("suite", ["compositional", "structure"])
def test_gold_answers_cover_the_disturbance_suites(suite):
    examples, report = datagen.gen_dataset(datagen.suite_spec(suite, 30, seed=4))
    assert report.n_skipped_oracle == 0
    assert checks.check_gold_answers(examples) == []
    assert checks.check_suite_property(suite, examples) == []


def test_suite_property_rejects_a_training_shaped_table():
    structure, _ = datagen.gen_dataset(datagen.suite_spec("structure", 5, seed=1))
    train, _ = datagen.gen_dataset(datagen.suite_spec("train", 5, seed=1))
    assert checks.check_suite_property("structure", structure + train[:1])
    assert checks.check_suite_property("compositional", train)


def test_reference_answer_follows_left_to_right_precedence():
    headers = ("c1", "c2")
    rows = (("1", "5"), ("2", "5"), ("3", "6"))
    # (c1 = 1 or c1 = 3) and c2 = 5 -> row 1 only
    assert checks.reference_answer("select c1 where c1 = 1 or c1 = 3 and c2 = 5",
                                   headers, rows) == ["1"]
    assert checks.reference_answer("select c1 where c2 in (5, 6) limit 2", headers, rows) == ["1", "2"]
    assert checks.reference_answer("select c1 where c2 = (select c2 where c1 = 3)",
                                   headers, rows) == ["3"]


# -- decoding and scoring -------------------------------------------------------------

def _decode_setup():
    vocab = default_vocab()
    cfg = _small_cfg()
    params = model.init_params(cfg, vocab.size, derive_rng(0, "test", 0))
    examples, _ = datagen.gen_dataset(datagen.suite_spec("train", 3, seed=2))
    return vocab, cfg, params, examples


def test_reference_greedy_rejects_a_changed_token():
    vocab, cfg, params, examples = _decode_setup()
    preds = model.predict(params, cfg, examples, vocab, batch_size=len(examples))
    reference = checks.reference_greedy(model, params, cfg, examples, vocab)
    assert checks.check_same_predictions(preds, reference) == []
    changed = [list(p) for p in preds]
    changed[1] = [changed[1][0] + "7"] + changed[1][1:] if changed[1] else ["7"]
    assert checks.check_same_predictions(changed, reference)


def test_accuracy_rejects_a_wrong_count():
    preds = [["1", "2"], ["3"], []]
    golds = [("2", "1"), ("4",), ()]
    assert checks.check_accuracy(2 / 3, preds, golds) == []
    assert checks.check_accuracy(1 / 3, preds, golds)


# -- training ------------------------------------------------------------------------

def test_directional_derivative_rejects_a_perturbed_gradient():
    vocab = default_vocab()
    cfg = _small_cfg()
    examples, _ = datagen.gen_dataset(datagen.suite_spec("train", 2, seed=5))
    batch = model.collate([model.prepare_example(ex, cfg, vocab) for ex in examples],
                          vocab.pad, True)
    params = {k: v.astype(np.float64) for k, v in
              model.init_params(cfg, vocab.size, derive_rng(1, "test", 0)).items()}
    _, grads = model.loss_and_grads(params, cfg, batch, vocab.pad)
    loss_fn = lambda p: model.loss_and_grads(p, cfg, batch, vocab.pad)[0]
    assert checks.check_directional_derivative(loss_fn, params, grads,
                                               np.random.default_rng(0)) == []
    bad = dict(grads)
    bad["out_w"] = -grads["out_w"]
    assert checks.check_directional_derivative(loss_fn, params, bad, np.random.default_rng(0))


# -- masks, tilings and relation classes ------------------------------------------------

@pytest.mark.parametrize("tokens,scheme", [("T0", "M1"), ("T0", "M3"), ("T2", "M5"), ("T2", "M4")])
def test_mask_rows_reject_a_flipped_bit(tokens, scheme):
    enc = _small_enc(tokens, scheme)
    m = mask.build_mask(enc, scheme)
    rows = np.arange(len(enc))
    assert checks.check_mask_rows(enc, scheme, m.dense, rows) == []
    assert checks.check_tiling(m.blocks, m.dense) == []
    flipped = m.dense.copy()
    i, j = len(enc) - 1, len(enc) - 3
    flipped[i, j] = not flipped[i, j]
    assert checks.check_mask_rows(enc, scheme, flipped, rows)
    assert checks.check_tiling(m.blocks, flipped)


def test_tiling_rejects_an_overlapping_rectangle():
    enc = _small_enc("T0", "M1")
    m = mask.build_mask(enc, "M1")
    q0, q1, k0, k1 = m.blocks[-1]
    grown = m.blocks[:-1] + ((q0, q1, k0, k1), (q0, q1, k0, k1))
    assert any("overlap" in e for e in checks.check_tiling(grown, m.dense))
    assert checks.check_tiling(m.blocks[:-1], m.dense)  # a gap


def test_class_rows_reject_a_changed_class():
    enc = _small_enc("T2", "M5")
    rel = mask.build_bias_map(enc).rel
    rows = np.arange(len(enc))
    assert checks.check_class_rows(enc, rel, rows) == []
    changed = rel.copy()
    changed[3, 7] = (changed[3, 7] + 1) % mask.N_BIAS_CLASSES
    assert checks.check_class_rows(enc, changed, rows)


# -- attention ---------------------------------------------------------------------------

def _attention_case(scheme="M3", tokens="T0"):
    enc = _small_enc(tokens, scheme, n_rows=12, n_cols=5)
    m = mask.build_mask(enc, scheme)
    rel = mask.build_bias_map(enc)
    rng = np.random.default_rng(1)
    L = len(enc)
    q, k, v, d_out = (rng.standard_normal((L, 8)).astype(np.float32) for _ in range(4))
    scalars = (rng.standard_normal(mask.N_BIAS_CLASSES) * 0.5).astype(np.float32)
    inp = attention.AttentionInput(q, k, v, m, scalars[rel.rel])
    out = attention.attn_block_sparse(inp).out
    grads = attention.attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
    ref = checks.attention_reference(q, k, v, d_out, m.dense, rel.rel, scalars, inp.scale,
                                     chunk=16)
    return out, grads, ref


@pytest.mark.parametrize("scheme,tokens", [("M3", "T0"), ("M5", "T2"), ("M1", "T0")])
def test_attention_matches_the_float64_reference(scheme, tokens):
    out, g, ref = _attention_case(scheme, tokens)
    assert checks.check_attention(ref, out, g.dq, g.dk, g.dv, g.dbias_class) == []


@pytest.mark.parametrize("field", ["out", "dq", "dk", "dv", "dclass"])
def test_attention_rejects_a_perturbed_output(field):
    out, g, ref = _attention_case()
    arrays = {"out": out.copy(), "dq": g.dq.copy(), "dk": g.dk.copy(), "dv": g.dv.copy(),
              "dclass": g.dbias_class.copy()}
    arrays[field][3] += 1e-2
    assert checks.check_attention(ref, arrays["out"], arrays["dq"], arrays["dk"],
                                  arrays["dv"], arrays["dclass"])


def test_in_child_returns_the_childs_errors():
    import workloads
    assert workloads.in_child(lambda: ["first", "second"]) == ["first", "second"]
    assert workloads.in_child(lambda: 1 / 0)[0].startswith("check raised")


# -- the benchmark description ------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
