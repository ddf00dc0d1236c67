"""Synthetic table-QA generation with an exact executable oracle.

Tables are grids of uniform random integers (as strings). Queries are
instantiated from a fixed template inventory and answered by sqlexec.execute,
so every emitted example carries a verified gold denotation. Four
disturbances reshape the distribution for evaluation splits:

  structure      table dimensions drawn outside the training range
  consistency    each data cell replaced by one dataset-wide value v0 w.p. R
  compositional  queries combine IN with LIMIT, a pairing never generated
                 by the training templates
  mixability     cells follow a row-wise Markov chain that interpolates
                 between a deterministic successor map (S=1) and uniform
                 noise (S=0) over a reduced alphabet

Determinism: every random draw comes from a stream derived from
(seed, tag, example index), so output is byte-stable for a given spec and
independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QAExample, TabencError, Table, ValidationError, derive_rng
from .linearize import MAX_COLUMNS
from .sqlexec import (
    Atom,
    ExecutionError,
    InCondition,
    Query,
    SubqueryCondition,
    WhereChain,
    execute,
    unparse,
)

TRAINING_TEMPLATES = (
    "select", "limit",
    "where1", "where2", "where3", "where4",
    "subquery",
    "in1", "in2", "in3",
)
COMPOSITIONAL_TEMPLATES = ("in1_limit", "in2_limit", "in3_limit")
ALL_TEMPLATES = TRAINING_TEMPLATES + COMPOSITIONAL_TEMPLATES

# distinct condition columns a template consumes (select column is free)
_NEEDS_COLS = {
    "select": 0, "limit": 0,
    "where1": 1, "where2": 2, "where3": 3, "where4": 4,
    "subquery": 1, "in1": 1, "in2": 1, "in3": 1,
    "in1_limit": 1, "in2_limit": 1, "in3_limit": 1,
}

TRAINING_SIZES = (6, 7, 8)
STRUCTURE_SIZES = (4, 5, 9, 10, 11, 12)

DISTURBANCES = ("none", "structure", "consistency", "compositional", "mixability")
SUITES = ("train", "structure", "consistency", "compositional", "mixability")
CONSISTENCY_RATES = (0.2, 0.4)


class GenerationError(TabencError):
    """Template instantiation or table generation failed."""


@dataclass(frozen=True)
class GenSpec:
    """Everything that determines a dataset, including the seed."""

    n: int
    seed: int = 0
    row_values: tuple[int, ...] = TRAINING_SIZES
    col_values: tuple[int, ...] = TRAINING_SIZES
    value_max: int = 999
    templates: tuple[str, ...] = TRAINING_TEMPLATES
    disturbance: str = "none"
    consistency_rate: float = 0.4
    mix_strength: float = 1.0
    mix_alphabet: int = 20
    satisfiable: bool = True
    keep_empty: bool = True
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError("n must be non-negative")
        if self.disturbance not in DISTURBANCES:
            raise ValidationError(f"unknown disturbance {self.disturbance!r}")
        if not self.row_values or not self.col_values:
            raise ValidationError("dimension value sets must be non-empty")
        if max(self.col_values) > MAX_COLUMNS:
            raise ValidationError(
                f"at most {MAX_COLUMNS} columns (closed column-name vocabulary)"
            )
        if min(self.row_values) < 1 or min(self.col_values) < 1:
            raise ValidationError("dimensions must be positive")
        if not (0 <= self.value_max <= 999):
            raise ValidationError("cell values live in 0..999")
        for t in self.templates:
            if t not in _NEEDS_COLS:
                raise ValidationError(f"unknown template {t!r}")
        if not self.templates:
            raise ValidationError("at least one template required")
        if self.disturbance == "consistency" and self.consistency_rate not in CONSISTENCY_RATES:
            raise ValidationError(f"consistency rate must be one of {CONSISTENCY_RATES}")
        if not (0.0 <= self.mix_strength <= 1.0):
            raise ValidationError("mix strength S lives in [0, 1]")
        if self.disturbance == "mixability" and not (2 <= self.mix_alphabet <= self.value_max + 1):
            raise ValidationError("mix alphabet must fit inside the value universe")


def suite_spec(suite: str, n: int, seed: int = 0, **overrides) -> GenSpec:
    """GenSpec presets for the five evaluation suites."""
    if suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; choose from {SUITES}")
    base = dict(n=n, seed=seed)
    if suite == "structure":
        base.update(row_values=STRUCTURE_SIZES, col_values=STRUCTURE_SIZES,
                    disturbance="structure")
    elif suite == "consistency":
        base.update(disturbance="consistency")
    elif suite == "compositional":
        base.update(templates=COMPOSITIONAL_TEMPLATES, disturbance="compositional")
    elif suite == "mixability":
        base.update(disturbance="mixability")
    base.update(overrides)
    return GenSpec(**base)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _headers(n_cols: int) -> tuple[str, ...]:
    return tuple(f"c{i}" for i in range(1, n_cols + 1))


def gen_table(spec: GenSpec, rng: np.random.Generator) -> Table:
    """Uniform iid cells over 0..value_max; dimensions from the spec's sets."""
    n_rows = int(rng.choice(spec.row_values))
    n_cols = int(rng.choice(spec.col_values))
    cells = rng.integers(0, spec.value_max + 1, size=(n_rows, n_cols))
    return Table(_headers(n_cols), tuple(tuple(str(int(x)) for x in row) for row in cells))


def perturb_consistency(
    table: Table, rate: float, rng: np.random.Generator, v0: str | None = None
) -> Table:
    """Replace each data cell with v0 independently with probability rate.

    v0 is normally drawn once per dataset and passed in; if omitted it is
    drawn from rng (per-call).
    """
    if not (0.0 <= rate <= 1.0):
        raise ValidationError("replacement rate must lie in [0, 1]")
    if v0 is None:
        v0 = str(int(rng.integers(0, 1000)))
    hit = rng.random(size=(table.n_rows, table.n_cols)) < rate
    rows = tuple(
        tuple(v0 if hit[r, c] else cell for c, cell in enumerate(row))
        for r, row in enumerate(table.rows)
    )
    return Table(table.headers, rows)


@dataclass(frozen=True)
class MixChain:
    """Reduced-alphabet Markov chain for the mixability disturbance.

    successor is a permutation over alphabet indices; the transition law is
    the mixture S * deterministic + (1 - S) * uniform.
    """

    alphabet: tuple[str, ...]
    successor: tuple[int, ...]
    strength: float

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def transition_matrix(self) -> np.ndarray:
        a = self.size
        m = np.full((a, a), (1.0 - self.strength) / a)
        m[np.arange(a), np.asarray(self.successor)] += self.strength
        return m


def build_mix_chain(seed: int, strength: float, alphabet_size: int = 20,
                    value_max: int = 999) -> MixChain:
    rng = derive_rng(seed, "mix-alphabet", 0)
    values = rng.choice(value_max + 1, size=alphabet_size, replace=False)
    perm = rng.permutation(alphabet_size)
    return MixChain(
        alphabet=tuple(str(int(v)) for v in values),
        successor=tuple(int(p) for p in perm),
        strength=float(strength),
    )


def gen_mixable_table(spec: GenSpec, chain: MixChain, rng: np.random.Generator) -> Table:
    """First column uniform over the alphabet; each later cell follows the chain
    from its left neighbour (deterministic successor w.p. S, uniform otherwise)."""
    n_rows = int(rng.choice(spec.row_values))
    n_cols = int(rng.choice(spec.col_values))
    a = chain.size
    idx = np.empty((n_rows, n_cols), dtype=np.int64)
    idx[:, 0] = rng.integers(0, a, size=n_rows)
    succ = np.asarray(chain.successor)
    for c in range(1, n_cols):
        take_det = rng.random(size=n_rows) < chain.strength
        uniform = rng.integers(0, a, size=n_rows)
        idx[:, c] = np.where(take_det, succ[idx[:, c - 1]], uniform)
    rows = tuple(tuple(chain.alphabet[j] for j in row) for row in idx)
    return Table(_headers(n_cols), rows)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _pick_value(column_cells, rng, satisfiable: bool, value_max: int) -> str:
    if satisfiable:
        return str(column_cells[int(rng.integers(0, len(column_cells)))])
    return str(int(rng.integers(0, value_max + 1)))


def _in_values(column_cells, k: int, rng, satisfiable: bool, value_max: int) -> tuple[str, ...]:
    if not satisfiable:
        return tuple(str(int(x)) for x in rng.integers(0, value_max + 1, size=k))
    uniq = sorted(set(column_cells))
    if len(uniq) >= k:
        picked = rng.choice(len(uniq), size=k, replace=False)
        return tuple(uniq[int(i)] for i in picked)
    picked = rng.choice(len(uniq), size=k, replace=True)
    return tuple(uniq[int(i)] for i in picked)


def build_query(template_id: str, table: Table, rng: np.random.Generator,
                satisfiable: bool = True, value_max: int = 999) -> Query:
    """Instantiate one template on a table; raises GenerationError when the
    table has fewer columns than the template needs."""
    if template_id not in _NEEDS_COLS:
        raise ValidationError(f"unknown template {template_id!r}")
    needs = _NEEDS_COLS[template_id]
    if table.n_cols < needs:
        raise GenerationError(
            f"template {template_id} needs {needs} distinct condition columns, "
            f"table has {table.n_cols}"
        )
    headers = table.headers
    select_col = headers[int(rng.integers(0, len(headers)))]

    def cond_cols(k: int) -> list[str]:
        picked = rng.choice(len(headers), size=k, replace=False)
        return [headers[int(i)] for i in picked]

    if template_id == "select":
        return Query(select_col)
    if template_id == "limit":
        return Query(select_col, limit=int(rng.integers(1, 4)))
    if template_id.startswith("where"):
        k = int(template_id[len("where"):])
        cols = cond_cols(k)
        atoms = tuple(
            Atom(col, "=" if rng.integers(0, 2) == 0 else "!=",
                 _pick_value(table.column(col), rng, satisfiable, value_max))
            for col in cols
        )
        conns = tuple("and" if rng.integers(0, 2) == 0 else "or" for _ in range(k - 1))
        return Query(select_col, WhereChain(atoms, conns))
    if template_id == "subquery":
        (col,) = cond_cols(1)
        value = _pick_value(table.column(col), rng, satisfiable, value_max)
        return Query(select_col, SubqueryCondition(col, col, Atom(col, "=", value)))
    if template_id.startswith("in"):
        size = int(template_id[2])
        with_limit = template_id.endswith("_limit")
        (col,) = cond_cols(1)
        values = _in_values(table.column(col), size, rng, satisfiable, value_max)
        limit = int(rng.integers(1, 4)) if with_limit else None
        return Query(select_col, InCondition(col, values), limit=limit)
    raise ValidationError(f"unhandled template {template_id!r}")


def instantiate_template(template_id: str, table: Table, rng: np.random.Generator,
                         satisfiable: bool = True, value_max: int = 999) -> str:
    """Template instance as canonical query text."""
    return unparse(build_query(template_id, table, rng, satisfiable, value_max))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass
class GenReport:
    n_requested: int
    n_emitted: int = 0
    n_skipped_oracle: int = 0
    n_filtered_empty: int = 0
    v0: str | None = None
    chain: MixChain | None = None


def _make_table(spec: GenSpec, i: int, v0: str | None, chain: MixChain | None) -> Table:
    rng = derive_rng(spec.seed, "table", i)
    if spec.disturbance == "mixability":
        return gen_mixable_table(spec, chain, rng)
    table = gen_table(spec, rng)
    if spec.disturbance == "consistency":
        return perturb_consistency(table, spec.consistency_rate,
                                   derive_rng(spec.seed, "consistency", i), v0)
    return table


def _make_query(spec: GenSpec, table: Table, i: int) -> Query:
    rng = derive_rng(spec.seed, "query", i)
    for _ in range(spec.max_retries):
        template = spec.templates[int(rng.integers(0, len(spec.templates)))]
        try:
            return build_query(template, table, rng, spec.satisfiable, spec.value_max)
        except GenerationError:
            continue
    raise GenerationError(
        f"no template from {spec.templates} fits a table with {table.n_cols} columns "
        f"after {spec.max_retries} retries"
    )


def gen_dataset(spec: GenSpec) -> tuple[list[QAExample], GenReport]:
    """Generate spec.n examples with verified answers.

    Oracle failures skip the example and are counted in the report; the count
    is asserted to be zero in CI.
    """
    report = GenReport(n_requested=spec.n)
    v0 = None
    chain = None
    if spec.disturbance == "consistency":
        v0 = str(int(derive_rng(spec.seed, "v0", 0).integers(0, 1000)))
        report.v0 = v0
    if spec.disturbance == "mixability":
        chain = build_mix_chain(spec.seed, spec.mix_strength, spec.mix_alphabet,
                                spec.value_max)
        report.chain = chain

    examples: list[QAExample] = []
    for i in range(spec.n):
        table = _make_table(spec, i, v0, chain)
        query = _make_query(spec, table, i)
        try:
            answer = execute(query, table)
        except ExecutionError:
            report.n_skipped_oracle += 1
            continue
        if not spec.keep_empty and not answer:
            report.n_filtered_empty += 1
            continue
        examples.append(QAExample(table, unparse(query), tuple(answer)))
        report.n_emitted += 1
    return examples, report
