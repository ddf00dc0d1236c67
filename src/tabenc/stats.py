"""Fixed-effects ANOVA over a balanced factor grid, with eta-squared effect sizes.

Sums of squares come from level and cell means (the classical balanced
decomposition): main effects from level means, two-way interactions from cell
means minus the mains, and the residual is everything the requested terms do
not explain (SS_total minus the modeled sum), which pools replicate noise
with any unmodeled higher-order interactions. With all factors and all
interactions up to the full order this reduces to the within-cell residual.

p-values use the F upper tail via the regularized incomplete beta function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from .core import ValidationError


class DegenerateDataError(ValidationError):
    """Response has no variance or no residual degrees of freedom."""


class UnbalancedDesignError(ValidationError):
    """Cell counts differ; pass allow_unbalanced=True to force the
    cell-means approximation anyway."""


def f_upper_tail(f_stat: float, df1: int, df2: int) -> float:
    """P(F >= f_stat) for an F(df1, df2) variable.

    Computed as I_x(df2/2, df1/2) with x = df2 / (df2 + df1 * f_stat); exact
    symmetry gives 0.5 at f_stat=1 when df1 == df2.
    """
    if df1 < 1 or df2 < 1:
        raise ValidationError("degrees of freedom must be positive")
    if not math.isfinite(f_stat):
        return 0.0 if f_stat > 0 else 1.0
    if f_stat <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f_stat)
    return float(special.betainc(df2 / 2.0, df1 / 2.0, x))


@dataclass(frozen=True)
class AnovaTerm:
    name: str
    ss: float
    df: int
    f_stat: float
    p_value: float
    eta_sq: float


@dataclass(frozen=True)
class AnovaReport:
    terms: tuple[AnovaTerm, ...]
    residual_ss: float
    residual_df: int
    total_ss: float
    grand_mean: float
    n: int

    def term(self, name: str) -> AnovaTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)


def _parse_term(term: str, factors: Sequence[str]) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in term.split("*"))
    if not (1 <= len(parts) <= 2):
        raise ValidationError(f"terms are mains or two-way interactions, got {term!r}")
    for p in parts:
        if p not in factors:
            raise ValidationError(f"unknown factor {p!r} in term {term!r}")
    if len(parts) == 2 and parts[0] == parts[1]:
        raise ValidationError(f"interaction needs two distinct factors: {term!r}")
    return parts


def anova(
    rows: Sequence[Mapping[str, object]],
    terms: Sequence[str],
    response: str = "da",
    allow_unbalanced: bool = False,
) -> AnovaReport:
    """Balanced fixed-effects ANOVA on rows of {factor: level, response: value}.

    Terms are factor names or "A*B" interactions. The grid must be balanced
    (equal cell counts over the cross of all referenced factors) unless
    allow_unbalanced is set, in which case the same cell-means formulas run
    as an approximation. Rows are re-ordered canonically first so the report
    is bit-identical under input permutation.
    """
    if not rows:
        raise ValidationError("no data rows")
    if not terms:
        raise ValidationError("no terms requested")

    factors: list[str] = []
    parsed = []
    for term in terms:
        parts = _parse_term(term, _infer_factors(rows, response))
        parsed.append((term, parts))
        for p in parts:
            if p not in factors:
                factors.append(p)

    try:
        y = np.array([float(r[response]) for r in rows], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad response column {response!r}: {exc}") from exc
    if not np.isfinite(y).all():
        raise ValidationError("response contains non-finite values")
    levels = {f: np.array([str(r[f]) for r in rows]) for f in factors}

    # canonical order: sort by (level tuple, response) so accumulation order,
    # and hence float rounding, is independent of input permutation
    key = sorted(
        range(len(rows)),
        key=lambda i: (tuple(levels[f][i] for f in factors), y[i]),
    )
    y = y[key]
    levels = {f: v[key] for f, v in levels.items()}

    n = len(y)
    grand = float(y.mean())
    total_ss = float(((y - grand) ** 2).sum())
    if total_ss <= 0.0:
        raise DegenerateDataError("response has zero variance")

    cell_counts = _counts(levels, factors, check_full=not allow_unbalanced)
    if len(set(cell_counts.values())) > 1 and not allow_unbalanced:
        raise UnbalancedDesignError(
            f"cell counts over {factors} are unequal: "
            f"{sorted(set(cell_counts.values()))}"
        )

    def level_means(fs: tuple[str, ...]) -> dict[tuple[str, ...], tuple[float, int]]:
        sums: dict[tuple[str, ...], list] = {}
        for i in range(n):
            k = tuple(levels[f][i] for f in fs)
            entry = sums.setdefault(k, [0.0, 0])
            entry[0] += y[i]
            entry[1] += 1
        return {k: (s / c, c) for k, (s, c) in sums.items()}

    main_means = {f: level_means((f,)) for f in factors}

    out_terms: list[AnovaTerm] = []
    modeled_ss = 0.0
    modeled_df = 0
    seen = set()
    for term, parts in parsed:
        if parts in seen or tuple(reversed(parts)) in seen:
            raise ValidationError(f"duplicate term {term!r}")
        seen.add(parts)
        if len(parts) == 1:
            f = parts[0]
            means = main_means[f]
            if len(means) < 2:
                raise DegenerateDataError(f"factor {f} has a single level")
            ss = sum(c * (m - grand) ** 2 for m, c in means.values())
            df = len(means) - 1
        else:
            fa, fb = parts
            cells = level_means((fa, fb))
            ma = main_means[fa]
            mb = main_means[fb]
            ss = sum(
                c * (m - ma[(a,)][0] - mb[(b,)][0] + grand) ** 2
                for (a, b), (m, c) in cells.items()
            )
            df = (len(ma) - 1) * (len(mb) - 1)
        modeled_ss += ss
        modeled_df += df
        out_terms.append(AnovaTerm(term, ss, df, math.nan, math.nan, ss / total_ss))

    residual_ss = total_ss - modeled_ss
    residual_df = (n - 1) - modeled_df
    if residual_df <= 0:
        raise DegenerateDataError(
            f"no residual degrees of freedom ({n} rows, {modeled_df} modeled)"
        )
    if residual_ss < -1e-9 * total_ss:
        raise DegenerateDataError("modeled sums of squares exceed the total")
    residual_ss = max(residual_ss, 0.0)
    ms_res = residual_ss / residual_df
    if ms_res <= 0.0:
        raise DegenerateDataError("residual mean square is zero; F undefined")

    finished = tuple(
        AnovaTerm(
            t.name, t.ss, t.df,
            (t.ss / t.df) / ms_res,
            f_upper_tail((t.ss / t.df) / ms_res, t.df, residual_df),
            t.eta_sq,
        )
        for t in out_terms
    )
    return AnovaReport(
        terms=finished,
        residual_ss=residual_ss,
        residual_df=residual_df,
        total_ss=total_ss,
        grand_mean=grand,
        n=n,
    )


def _infer_factors(rows, response) -> tuple[str, ...]:
    names = [k for k in rows[0].keys() if k != response]
    return tuple(names)


def _counts(levels, factors, check_full: bool = True) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    n = len(next(iter(levels.values()))) if factors else 0
    for i in range(n):
        k = tuple(levels[f][i] for f in factors)
        counts[k] = counts.get(k, 0) + 1
    if check_full:
        # the full cross must be populated, otherwise some cells are missing
        sizes = [sorted(set(levels[f])) for f in factors]
        for combo in itertools.product(*sizes):
            if combo not in counts:
                raise UnbalancedDesignError(f"empty cell {dict(zip(factors, map(str, combo)))}")
    return counts
