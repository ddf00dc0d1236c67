import math
import random

import numpy as np
import pytest

from tabenc.core import ValidationError, derive_rng
from tabenc.stats import (
    AnovaReport,
    DegenerateDataError,
    UnbalancedDesignError,
    anova,
    f_upper_tail,
)


# ---------------------------------------------------------------------------
# independent incomplete-beta oracle (Lentz continued fraction, no scipy)
# ---------------------------------------------------------------------------

def _betacf(a, b, x):
    max_it, eps, fpmin = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_it + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < eps:
            break
    return h


def ibeta_oracle(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    bt = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def f_tail_oracle(f, df1, df2):
    x = df2 / (df2 + df1 * f)
    return ibeta_oracle(df2 / 2.0, df1 / 2.0, x)


def test_f_upper_tail_matches_continued_fraction_oracle():
    for f in (0.05, 0.3, 1.0, 2.5, 7.0, 40.0):
        for df1, df2 in ((1, 1), (1, 8), (2, 8), (5, 3), (10, 20), (6, 233)):
            got = f_upper_tail(f, df1, df2)
            want = f_tail_oracle(f, df1, df2)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14), (f, df1, df2)


def test_f_upper_tail_edges():
    assert f_upper_tail(1.0, 7, 7) == pytest.approx(0.5, abs=1e-12)
    assert f_upper_tail(0.0, 3, 5) == 1.0
    assert f_upper_tail(-2.0, 3, 5) == 1.0
    assert f_upper_tail(math.inf, 3, 5) == 0.0
    assert f_upper_tail(5.0, 2, 10) < f_upper_tail(2.0, 2, 10)
    with pytest.raises(ValidationError):
        f_upper_tail(1.0, 0, 5)


# ---------------------------------------------------------------------------
# exact planted decomposition (balanced, noise chosen to cancel in means)
# ---------------------------------------------------------------------------

def exact_design():
    # 2x2 cross, 2 replicates per cell, replicate noise +-c within each cell
    alpha = {"a0": -3.0, "a1": 3.0}
    beta = {"b0": 1.0, "b1": -1.0}
    c = 0.5
    rows = []
    for a in ("a0", "a1"):
        for b in ("b0", "b1"):
            for noise in (c, -c):
                rows.append({"A": a, "B": b, "da": alpha[a] + beta[b] + noise})
    ss_a = 8 * np.var([alpha["a0"], alpha["a1"]])  # n * sum over levels weighting
    ss_b = 8 * np.var([beta["b0"], beta["b1"]])
    ss_noise = 8 * c * c
    total = ss_a + ss_b + ss_noise
    return rows, ss_a, ss_b, ss_noise, total


def test_exact_main_effect_recovery():
    rows, ss_a, ss_b, ss_noise, total = exact_design()
    rep = anova(rows, terms=["A", "B"], response="da")
    assert rep.n == 8
    assert rep.total_ss == pytest.approx(total, abs=1e-12)
    assert rep.term("A").ss == pytest.approx(ss_a, abs=1e-12)
    assert rep.term("B").ss == pytest.approx(ss_b, abs=1e-12)
    assert rep.term("A").df == 1 and rep.term("B").df == 1
    assert rep.residual_ss == pytest.approx(ss_noise, abs=1e-12)
    assert rep.residual_df == 5
    assert rep.term("A").eta_sq == pytest.approx(ss_a / total, abs=1e-12)
    # F and p agree with the independent tail oracle
    t = rep.term("A")
    assert t.f_stat == pytest.approx((ss_a / 1) / (ss_noise / 5), rel=1e-12)
    assert t.p_value == pytest.approx(f_tail_oracle(t.f_stat, 1, 5), rel=1e-10)


def test_interaction_term():
    # plant a pure interaction: y = +1 on the diagonal cells, -1 off-diagonal
    rows = []
    for a in ("a0", "a1"):
        for b in ("b0", "b1"):
            y = 1.0 if a[-1] == b[-1] else -1.0
            for noise in (0.25, -0.25):
                rows.append({"A": a, "B": b, "da": y + noise})
    rep = anova(rows, terms=["A", "B", "A*B"], response="da")
    assert rep.term("A").ss == pytest.approx(0.0, abs=1e-12)
    assert rep.term("B").ss == pytest.approx(0.0, abs=1e-12)
    assert rep.term("A*B").ss == pytest.approx(8.0, abs=1e-12)
    assert rep.term("A*B").df == 1
    assert rep.term("A*B").eta_sq == pytest.approx(8.0 / 8.5, abs=1e-12)


def test_stochastic_planted_eta_squared():
    rng = derive_rng(77, "anova-plant", 0)
    effects = {"l0": -1.0, "l1": 0.0, "l2": 1.0}
    n_per = 600
    rows = []
    for level, eff in effects.items():
        for _ in range(n_per):
            rows.append({"A": level, "da": eff + rng.standard_normal()})
    rep = anova(rows, terms=["A"], response="da")
    n = 3 * n_per
    ss_effect = n_per * 2.0  # sum over levels of (effect - mean)^2, scaled
    expected_eta = ss_effect / (ss_effect + (n - 3) * 1.0)
    assert rep.term("A").eta_sq == pytest.approx(expected_eta, abs=0.05)
    assert rep.term("A").p_value < 1e-10


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

def test_permutation_bit_identity():
    rows, *_ = exact_design()
    rep1 = anova(rows, terms=["A", "B"], response="da")
    shuffled = rows[:]
    random.Random(4).shuffle(shuffled)
    rep2 = anova(shuffled, terms=["A", "B"], response="da")
    for t1, t2 in zip(rep1.terms, rep2.terms):
        assert (t1.ss, t1.df, t1.f_stat, t1.p_value, t1.eta_sq) == (
            t2.ss, t2.df, t2.f_stat, t2.p_value, t2.eta_sq
        )
    assert rep1.residual_ss == rep2.residual_ss
    assert rep1.total_ss == rep2.total_ss


def test_power_of_two_scaling_is_bit_exact():
    rows, *_ = exact_design()
    scaled = [dict(r, da=4.0 * r["da"]) for r in rows]
    rep1 = anova(rows, terms=["A", "B"], response="da")
    rep2 = anova(scaled, terms=["A", "B"], response="da")
    for t1, t2 in zip(rep1.terms, rep2.terms):
        assert t1.f_stat == t2.f_stat
        assert t1.p_value == t2.p_value
        assert t1.eta_sq == t2.eta_sq
        assert t2.ss == 16.0 * t1.ss


def test_general_affine_invariance():
    rows, *_ = exact_design()
    moved = [dict(r, da=1.7 * r["da"] + 3.1) for r in rows]
    rep1 = anova(rows, terms=["A", "B"], response="da")
    rep2 = anova(moved, terms=["A", "B"], response="da")
    for t1, t2 in zip(rep1.terms, rep2.terms):
        assert t2.f_stat == pytest.approx(t1.f_stat, rel=1e-9)
        assert t2.eta_sq == pytest.approx(t1.eta_sq, rel=1e-9)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_degenerate_zero_variance():
    rows = [{"A": a, "da": 1.0} for a in ("x", "y")] * 3
    with pytest.raises(DegenerateDataError):
        anova(rows, terms=["A"])


def test_degenerate_single_level():
    rows = [{"A": "only", "da": float(i)} for i in range(6)]
    with pytest.raises(DegenerateDataError):
        anova(rows, terms=["A"])


def test_degenerate_no_residual_df():
    rows = [{"A": "x", "da": 0.0}, {"A": "y", "da": 1.0}]
    with pytest.raises(DegenerateDataError):
        anova(rows, terms=["A"])


def test_unbalanced_counts():
    rows = [
        {"A": "x", "da": 0.1}, {"A": "x", "da": 0.4},
        {"A": "x", "da": 0.3}, {"A": "y", "da": 0.9},
        {"A": "y", "da": 0.8},
    ]
    with pytest.raises(UnbalancedDesignError):
        anova(rows, terms=["A"])
    rep = anova(rows, terms=["A"], allow_unbalanced=True)
    assert isinstance(rep, AnovaReport)
    assert 0.0 <= rep.term("A").eta_sq <= 1.0


def test_missing_cell_is_unbalanced():
    rows = []
    for a, b in (("x", "p"), ("x", "q"), ("y", "p")):  # (y, q) absent
        rows += [{"A": a, "B": b, "da": random.Random(a + b).random()} for _ in range(2)]
    with pytest.raises(UnbalancedDesignError) as err:
        anova(rows, terms=["A", "B"])
    assert str(err.value) == "empty cell {'A': 'y', 'B': 'q'}"  # plain str levels


def test_term_validation():
    rows, *_ = exact_design()
    with pytest.raises(ValidationError):
        anova(rows, terms=["A*A"])
    with pytest.raises(ValidationError):
        anova(rows, terms=["A*B*A"])
    with pytest.raises(ValidationError):
        anova(rows, terms=["C"])
    with pytest.raises(ValidationError):
        anova(rows, terms=["A*B", "B*A"])
    with pytest.raises(ValidationError):
        anova(rows, terms=[])
    with pytest.raises(ValidationError):
        anova([], terms=["A"])
    with pytest.raises(ValidationError):
        anova(rows, terms=["A"], response="missing")


def test_non_finite_response_rejected():
    rows, *_ = exact_design()
    rows[0] = dict(rows[0], da=float("nan"))
    with pytest.raises(ValidationError):
        anova(rows, terms=["A"])
