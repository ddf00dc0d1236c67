"""Table-encoding factor experiments: linearization, masks, bias, a sparse
attention kernel, a synthetic table-QA generator with an exact SQL oracle,
a toy encoder-decoder, and balanced-ANOVA analysis.

Submodules are imported lazily so that the command line tool can configure
thread pools before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "attention",
    "cli",
    "core",
    "datagen",
    "linearize",
    "mask",
    "model",
    "sqlexec",
    "stats",
)

# name -> owning submodule, for the most commonly used entry points
_EXPORTS = {
    "Table": "core",
    "QAExample": "core",
    "FactorConfig": "core",
    "ModelConfig": "core",
    "TabencError": "core",
    "ValidationError": "core",
    "derive_rng": "core",
    "read_jsonl": "core",
    "write_jsonl": "core",
    "is_legal_combination": "core",
    "Vocabulary": "linearize",
    "default_vocab": "linearize",
    "encode_input": "linearize",
    "TruncationError": "linearize",
    "build_mask": "mask",
    "build_bias_map": "mask",
    "sparsity": "mask",
    "export_blocks": "mask",
    "AttentionMask": "mask",
    "attn_dense": "attention",
    "attn_block_sparse": "attention",
    "attn_backward": "attention",
    "bench_attention": "attention",
    "parse_sql": "sqlexec",
    "execute": "sqlexec",
    "unparse": "sqlexec",
    "denotation_match": "sqlexec",
    "denotation_accuracy": "sqlexec",
    "GenSpec": "datagen",
    "suite_spec": "datagen",
    "gen_dataset": "datagen",
    "anova": "stats",
    "AnovaReport": "stats",
    "f_upper_tail": "stats",
    "train": "model",
    "predict": "model",
    "evaluate_da": "model",
    "save_checkpoint": "model",
    "load_checkpoint": "model",
}

__all__ = ["__version__", *sorted(_SUBMODULES), *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
