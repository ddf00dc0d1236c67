"""Acceptance gate for the package.

Nine release criteria, one test each. Every test prints a single PASS or
FAIL line (written to the real stdout so it survives capture) along with
the measured quantity, then enforces the criterion's published tolerance.
These are the slowest tests in the suite; run them with

    pytest tests/test_acceptance.py -q
"""

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tabenc.attention import bench_attention, block_sparse_backward, block_sparse_forward
from tabenc.cli import main
from tabenc.core import FactorConfig, derive_rng, Table
from tabenc.datagen import (
    ALL_TEMPLATES,
    GenSpec,
    build_mix_chain,
    build_query,
    gen_dataset,
    gen_mixable_table,
    gen_table,
    perturb_consistency,
)
from tabenc.linearize import linearize
from tabenc.mask import build_bias_map, build_mask
from tabenc.model import ModelConfig, evaluate_da, train
from tabenc.sqlexec import execute, unparse
from tabenc.stats import DegenerateDataError, anova

from conftest import make_table, naive_execute, random_question
from oracles import blocks_cover, build_mask_bruteforce


def _emit_default(line):
    print(line, file=sys.__stdout__, flush=True)


_emit = _emit_default


@pytest.fixture(autouse=True)
def _passthrough_reporting(capfd):
    """Route PASS/FAIL lines around pytest's fd-level capture."""
    global _emit

    def emit(line):
        with capfd.disabled():
            print(line, flush=True)

    _emit = emit
    yield
    _emit = _emit_default


@contextmanager
def criterion(name):
    """Collects a detail string and prints one PASS/FAIL line per criterion."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException as exc:
        msg = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        _emit(f"FAIL {name}: {msg}")
        raise
    suffix = f": {info['detail']}" if info["detail"] else ""
    _emit(f"PASS {name}{suffix}")


LEGAL_PAIRS = [
    (t, m) for t in ("T0", "T1", "T2") for m in ("M0", "M1", "M2", "M3")
] + [("T2", m) for m in ("M4", "M5", "M6")]


def test_criterion_1_mask_agreement_and_tiling():
    with criterion("criterion 1 mask construction vs brute force, exact block tiling") as info:
        rng = derive_rng(11, "acc-mask", 0)
        start = time.perf_counter()
        checked = 0
        for tokens, scheme in LEGAL_PAIRS:
            for i in range(100):
                t = make_table(
                    rng,
                    n_rows=int(rng.integers(1, 7)),
                    n_cols=int(rng.integers(1, 5)),
                    value_max=9 if i % 2 else 999,
                )
                enc = linearize(random_question(rng, t), t, tokens)
                m = build_mask(enc, scheme)
                ref = build_mask_bruteforce(enc, scheme)
                assert np.array_equal(m.dense, ref), f"{tokens}/{scheme} mask mismatch"
                cover = blocks_cover(m.blocks, len(enc))
                assert np.array_equal(cover, ref), f"{tokens}/{scheme} tiling mismatch"
                checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        info["detail"] = f"{checked} random cases agree, {elapsed:.1f}s"


def test_criterion_2_sparsity_claims():
    with criterion("criterion 2 sparsity ordering on 8x8 two-digit tables") as info:
        rng = derive_rng(12, "acc-sparsity", 0)
        min_m6 = 1.0
        for _ in range(20):
            rows = tuple(
                tuple(str(int(v)) for v in rng.integers(10, 100, size=8))
                for _ in range(8)
            )
            t = Table(tuple(f"c{i + 1}" for i in range(8)), rows)
            enc = linearize("select c1", t, "T2")
            L = len(enc)
            sp = {}
            for scheme in ("M0", "M1", "M2", "M3", "M6"):
                dense = build_mask_bruteforce(enc, scheme)
                sp[scheme] = 1.0 - int(dense.sum()) / float(L * L)
            assert sp["M0"] == 0.0
            assert sp["M6"] >= 0.95, f"M6 sparsity {sp['M6']:.4f} < 0.95"
            assert sp["M1"] <= sp["M2"]
            assert sp["M1"] <= sp["M3"]
            min_m6 = min(min_m6, sp["M6"])
        info["detail"] = f"20 samples, min M6 sparsity {min_m6:.4f}"


ALL_SCHEMES = ("M0", "M1", "M2", "M3", "M4", "M5", "M6")


def _kernel_case(rng, scheme, n_rows, n_cols, d, dtype, with_bias):
    tokens = "T2" if scheme in ("M4", "M5", "M6") else ("T0", "T1", "T2")[int(rng.integers(0, 3))]
    t = make_table(rng, n_rows=n_rows, n_cols=n_cols, value_max=9)
    enc = linearize(random_question(rng, t), t, tokens)
    m = build_mask(enc, scheme)
    L = len(enc)
    q, k, v = (rng.standard_normal((L, d)).astype(dtype) for _ in range(3))
    if not with_bias:
        return m, q, k, v, None, None, None
    rel = build_bias_map(enc)
    scales = (rng.standard_normal(rel.n_classes) * 0.3).astype(dtype)
    return m, q, k, v, scales[rel.rel], scales, rel


def test_criterion_3_kernel_equivalence_and_gradients():
    with criterion("criterion 3 block-sparse kernel equivalence and gradient check") as info:
        rng = derive_rng(13, "acc-kernel", 0)
        start = time.perf_counter()

        from tabenc.attention import dense_forward

        worst_fwd = 0.0
        for scheme in ALL_SCHEMES:
            for i in range(50):
                m, q, k, v, bias, _, _ = _kernel_case(
                    rng, scheme, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                    d=16, dtype=np.float32, with_bias=bool(i % 2),
                )
                assert len(q) <= 256
                ref, _ = dense_forward(q, k, v, m.dense, bias)
                got = block_sparse_forward(q, k, v, m.blocks, bias)
                worst_fwd = max(worst_fwd, float(np.max(np.abs(ref - got))))
        assert worst_fwd < 1e-5, f"forward max abs diff {worst_fwd:.2e}"

        eps = 1e-4
        worst_rel = 0.0

        def check(fd, an):
            nonlocal worst_rel
            rel_err = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst_rel = max(worst_rel, rel_err)
            assert rel_err < 1e-4, f"gradient rel err {rel_err:.2e}"

        for scheme in ALL_SCHEMES:
            for with_bias in (False, True):
                for _ in range(2):
                    m, q, k, v, bias, scales, rel = _kernel_case(
                        rng, scheme, 2, int(rng.integers(2, 4)),
                        d=8, dtype=np.float64, with_bias=with_bias,
                    )
                    L = len(q)
                    assert L <= 64
                    d_out = rng.standard_normal((L, 8))

                    def loss(qq, kk, vv, sc):
                        b = sc[rel.rel] if sc is not None else None
                        out = block_sparse_forward(qq, kk, vv, m.blocks, b)
                        return float(np.sum(out * d_out))

                    grads = block_sparse_backward(
                        q, k, v, m.blocks, d_out, bias=bias,
                        rel=rel.rel if with_bias else None,
                        n_classes=rel.n_classes if with_bias else None,
                    )
                    arrays = {"q": q, "k": k, "v": v}
                    for name, an_grad in zip(("q", "k", "v"), grads[:3]):
                        arr = arrays[name]
                        for _ in range(4):
                            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
                            orig = arr[idx]
                            arr[idx] = orig + eps
                            hi = loss(q, k, v, scales)
                            arr[idx] = orig - eps
                            lo = loss(q, k, v, scales)
                            arr[idx] = orig
                            check((hi - lo) / (2 * eps), float(an_grad[idx]))
                    if with_bias:
                        db = grads[3]
                        for c in range(rel.n_classes):
                            orig = scales[c]
                            scales[c] = orig + eps
                            hi = loss(q, k, v, scales)
                            scales[c] = orig - eps
                            lo = loss(q, k, v, scales)
                            scales[c] = orig
                            check((hi - lo) / (2 * eps), float(db[c]))

        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
        info["detail"] = (
            f"fwd max abs diff {worst_fwd:.1e}, grad max rel err {worst_rel:.1e}, "
            f"{elapsed:.1f}s"
        )


def test_criterion_4_speedup():
    with criterion("criterion 4 block-sparse speedup at long lengths") as info:
        start = time.perf_counter()
        rows = bench_attention(
            (1024, 2048, 4096, 8192, 16384), scheme="M3", trials=3, head_dim=16, seed=0
        )
        elapsed = time.perf_counter() - start
        speedups = [r.speedup for r in rows]
        for a, b in zip(speedups, speedups[1:]):
            assert a <= b, f"speedup decreased along the sweep: {speedups}"
        at_8k = min(rows, key=lambda r: abs(r.length - 8192))
        assert at_8k.sparse_ms <= at_8k.dense_ms / 3.0, (
            f"L={at_8k.length}: sparse {at_8k.sparse_ms}ms vs dense {at_8k.dense_ms}ms"
        )
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
        info["detail"] = (
            f"speedups {', '.join(f'{s:.2f}' for s in speedups)}; "
            f"{at_8k.speedup:.2f}x at L={at_8k.length}, {elapsed:.0f}s"
        )


def test_criterion_5_oracle_fidelity():
    with criterion("criterion 5 query evaluator vs independent oracle") as info:
        rng = derive_rng(15, "acc-oracle", 0)
        start = time.perf_counter()
        mismatches = 0
        for i in range(10_000):
            t = make_table(
                rng, n_cols=int(rng.integers(4, 9)),
                value_max=12 if i % 2 else 999,
            )
            template = ALL_TEMPLATES[i % len(ALL_TEMPLATES)]
            q = build_query(template, t, rng, satisfiable=bool(rng.random() < 0.8),
                            value_max=12 if i % 2 else 999)
            text = unparse(q)
            if execute(text, t) != naive_execute(text, t):
                mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0, f"{mismatches} mismatches in 10000 pairs"
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        info["detail"] = f"10000 pairs across all {len(ALL_TEMPLATES)} templates, 0 mismatches, {elapsed:.1f}s"


def test_criterion_6_generator_statistics():
    with criterion("criterion 6 generator statistics") as info:
        rng = derive_rng(16, "acc-gen", 0)

        # dimension frequencies over {6,7,8}
        spec = GenSpec(n=1)
        row_counts = {6: 0, 7: 0, 8: 0}
        col_counts = {6: 0, 7: 0, 8: 0}
        n_tables = 10_000
        for _ in range(n_tables):
            t = gen_table(spec, rng)
            row_counts[t.n_rows] += 1
            col_counts[t.n_cols] += 1
        worst_dim = 0.0
        for counts in (row_counts, col_counts):
            for size in (6, 7, 8):
                dev = abs(counts[size] / n_tables - 1.0 / 3.0)
                worst_dim = max(worst_dim, dev)
                assert dev <= 0.02, f"dimension {size} frequency off by {dev:.4f}"

        # consistency replacement rate
        for rate in (0.15, 0.4):
            changed = 0
            total = 0
            for _ in range(200):
                rows = tuple(
                    tuple(str(int(v)) for v in rng.integers(0, 1000, size=8))
                    for _ in range(8)
                )
                t = Table(tuple(f"c{i + 1}" for i in range(8)), rows)
                t2 = perturb_consistency(t, rate, rng, v0="777")
                for r, row in enumerate(t.rows):
                    for c, cell in enumerate(row):
                        total += 1
                        changed += cell != t2.rows[r][c]
            observed = changed / total
            assert abs(observed - rate) <= 0.02, (
                f"replacement rate {observed:.4f}, wanted {rate} +- 0.02"
            )

        # mixability: S=1 is the deterministic successor chain, and
        # regeneration from the same seed reproduces the table exactly
        chain1 = build_mix_chain(seed=5, strength=1.0)
        mspec = GenSpec(n=1, row_values=(8,), col_values=(8,))
        t_a = gen_mixable_table(mspec, chain1, derive_rng(9, "acc-mix", 0))
        t_b = gen_mixable_table(mspec, chain1, derive_rng(9, "acc-mix", 0))
        assert t_a == t_b
        lookup = {chain1.alphabet[i]: chain1.alphabet[s]
                  for i, s in enumerate(chain1.successor)}
        for _ in range(50):
            t = gen_mixable_table(mspec, chain1, rng)
            for row in t.rows:
                for left, right in zip(row, row[1:]):
                    assert right == lookup[left]

        # mixability: S=0 successors are uniform (chi-square at alpha 0.01)
        chain0 = build_mix_chain(seed=5, strength=0.0, alphabet_size=5)
        counts = np.zeros(5)
        pos = {sym: i for i, sym in enumerate(chain0.alphabet)}
        for _ in range(50):
            t = gen_mixable_table(mspec, chain0, rng)
            for row in t.rows:
                for right in row[1:]:
                    counts[pos[right]] += 1
        expected = counts.sum() / 5.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 13.2767, f"chi-square {chi2:.2f} exceeds 13.2767 (df=4, alpha=0.01)"

        info["detail"] = (
            f"dims within {worst_dim:.4f} of 1/3, replacement rates on target, "
            f"S=1 exact, S=0 chi2 {chi2:.2f}"
        )


def test_criterion_7_anova_recovery():
    with criterion("criterion 7 effect-size recovery and invariances") as info:
        rng = derive_rng(17, "acc-anova", 0)
        effects = {"l0": -1.0, "l1": 0.0, "l2": 1.0}
        n_per = 600
        rows = []
        for level, eff in effects.items():
            for _ in range(n_per):
                rows.append({"A": level, "da": eff + rng.standard_normal()})
        rep = anova(rows, terms=["A"], response="da")
        n = 3 * n_per
        ss_effect = n_per * 2.0
        expected_eta = ss_effect / (ss_effect + (n - 3) * 1.0)
        got_eta = rep.term("A").eta_sq
        assert got_eta == pytest.approx(expected_eta, abs=0.05), (
            f"eta^2 {got_eta:.4f}, planted {expected_eta:.4f}"
        )

        # degenerate data is refused, not silently reported
        flat = [{"A": lv, "da": 1.0} for lv in ("l0", "l1") for _ in range(4)]
        with pytest.raises(DegenerateDataError):
            anova(flat, terms=["A"], response="da")

        # power-of-two response scaling leaves f, p and eta^2 bit-identical
        scaled = [dict(r, da=4.0 * r["da"]) for r in rows]
        rep2 = anova(scaled, terms=["A"], response="da")
        t1, t2 = rep.term("A"), rep2.term("A")
        assert (t1.f_stat, t1.p_value, t1.eta_sq) == (t2.f_stat, t2.p_value, t2.eta_sq)
        assert t2.ss == 16.0 * t1.ss

        info["detail"] = f"eta^2 {got_eta:.4f} vs planted {expected_eta:.4f}, invariances exact"


def test_criterion_8_learning_smoke():
    with criterion("criterion 8 desk-scale learning") as info:
        start = time.perf_counter()
        factor = FactorConfig(tokens="T0", mask="M1", pe="TPE", bias="B0", emb="E1")
        base = dict(
            factor=factor, d_model=128, n_heads=4, n_enc_layers=2, n_dec_layers=2,
            ffn_dim=256, context_len=64, max_positions=64, dec_positions=16,
            max_answer_len=16, batch_size=8, eval_max=200,
        )
        dataset = dict(row_values=(3,), col_values=(3,), value_max=9,
                       templates=("select", "limit"))

        # gate: 32 examples must be memorized to DA 1.0 before the real run
        ex32, _ = gen_dataset(GenSpec(n=32, seed=4242, **dataset))
        cfg32 = ModelConfig(steps=4000, eval_every=100, eval_fraction=0.0,
                            patience=10_000, **base)
        r32 = train(ex32, cfg32, seed=11, stop_da=1.0)
        assert r32.best_eval_da == 1.0, f"overfit stalled at DA {r32.best_eval_da}"

        ex5k, _ = gen_dataset(GenSpec(n=5000, seed=4243, **dataset))
        cfg = ModelConfig(steps=20_000, eval_every=250, eval_fraction=0.05,
                          patience=100, **base)
        result = train(ex5k, cfg, seed=12, stop_da=0.9)
        assert result.best_eval_da >= 0.80, (
            f"held-out DA {result.best_eval_da:.3f} below 0.80"
        )
        fresh, _ = gen_dataset(GenSpec(n=200, seed=4244, **dataset))
        fresh_da = evaluate_da(result.params, cfg, fresh)
        assert fresh_da >= 0.80, f"fresh-sample DA {fresh_da:.3f} below 0.80"
        elapsed = time.perf_counter() - start
        assert elapsed < 7200.0
        info["detail"] = (
            f"overfit DA 1.0 at step {r32.best_step}; held-out DA "
            f"{result.best_eval_da:.3f} at step {result.best_step}, fresh DA "
            f"{fresh_da:.3f}, {elapsed:.0f}s"
        )


THREAD_VARS = (
    "TABENC_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

TRAIN_FLAGS = (
    "--tokens", "T0", "--mask", "M1", "--pe", "TPE", "--bias", "B0", "--emb", "E1",
    "--d-model", "16", "--n-heads", "2", "--enc-layers", "1", "--dec-layers", "1",
    "--ffn-dim", "24", "--steps", "6", "--eval-every", "3", "--batch-size", "4",
    "--quiet",
)

GRID_FLAGS = (
    "--configs", "T0/M0/TPE/B0/E0", "--replicates", "1", "--suites", "train",
    "--train-n", "8", "--eval-n", "4", "--steps", "4", "--eval-every", "2",
    "--batch-size", "4", "--context-len", "512", "--seed", "13",
)


def _pipeline(root: Path, monkeypatch) -> dict[str, bytes]:
    root.mkdir()
    monkeypatch.chdir(root)
    assert main(["gen", "--n", "24", "--seed", "77", "--out", "data.jsonl",
                 "--rows", "3", "--cols", "3", "--value-max", "9",
                 "--templates", "select"]) == 0
    assert main(["train", "--data", "data.jsonl", "--out", "run", "--seed", "5",
                 *TRAIN_FLAGS]) == 0
    assert main(["eval", "--checkpoint", "run/checkpoint.bin", "--data", "data.jsonl",
                 "--pred-out", "preds.jsonl", "--batch-size", "4"]) == 0
    assert main(["grid", "--out", "grid", *GRID_FLAGS]) == 0
    files = (
        "data.jsonl", "run/checkpoint.bin", "run/trace.csv", "run/result.json",
        "preds.jsonl", "grid/results.csv", "grid/plan.json",
        "grid/data/train.jsonl", "grid/data/eval-train.jsonl",
    )
    return {f: (root / f).read_bytes() for f in files}


def test_criterion_9_determinism(tmp_path, monkeypatch, capfd):
    with criterion("criterion 9 byte-identical reruns") as info:
        saved = {v: os.environ.get(v) for v in THREAD_VARS}
        for var in THREAD_VARS:  # a BLAS variable set to another count would conflict
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("TABENC_THREADS", "1")
        try:
            first = _pipeline(tmp_path / "a", monkeypatch)
            second = _pipeline(tmp_path / "b", monkeypatch)
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        capfd.readouterr()
        differing = [f for f in first if first[f] != second[f]]
        assert not differing, f"outputs differ: {differing}"
        info["detail"] = f"{len(first)} artifacts identical across gen/train/eval/grid reruns"
