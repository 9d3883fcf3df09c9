"""Deterministic corpus preparation and evaluation toolkit for multilingual MT.

The pipeline covers: parallel-corpus ingestion and statistics,
high-resource reduction, temperature sampling, bilingual-lexicon loading,
code-switching augmentation, pre-training mixture assembly, seed-data
selection, training-config emission, and sacreBLEU-compatible BLEU and
chrF/chrF++ scoring with per-language report tables.

The public names below are loaded on first use (PEP 562), so importing
the package, or running one CLI subcommand, imports only the submodules
that are actually needed.
"""

from importlib import import_module

__version__ = "0.4.0"

# Public name -> defining submodule, or "submodule:attribute" when renamed.
_EXPORTS = {
    "AugmentationPolicy": "augment",
    "AugmentError": "errors",
    "AugmentStats": "augment",
    "BilingualLexicon": "lexicon",
    "ChrfConfig": "metrics",
    "ConfigError": "errors",
    "CorpusError": "errors",
    "CorpusStats": "corpus",
    "ENGLISH": "lang",
    "IngestReport": "corpus",
    "LanguageTag": "lang",
    "LexiconEntry": "lexicon",
    "LexiconError": "errors",
    "MetricError": "errors",
    "MixtureManifest": "augment",
    "ParallelCorpus": "corpus",
    "PipelineError": "errors",
    "PlanError": "errors",
    "SamplingPlan": "sampling",
    "Score": "metrics",
    "ScoreReport": "evalharness",
    "ScoreRow": "evalharness",
    "SentencePair": "corpus",
    "SubstitutionSet": "augment",
    "TagError": "errors",
    "TrainConfig": "trainconfig",
    "augment_corpus": "augment",
    "augment_sentence": "augment",
    "bleu": "metrics",
    "build_pretraining_mixture": "augment",
    "chrf": "metrics",
    "distribution": "sampling",
    "emit_train_config": "trainconfig:emit",
    "ingest": "corpus",
    "load_lexicon": "lexicon:load",
    "materialize": "sampling",
    "parse_pair": "lang",
    "parse_tag": "lang",
    "read_tsv": "corpus",
    "reduce_highresource": "corpus",
    "registry": "lang",
    "report": "evalharness",
    "reverse": "corpus",
    "score_run": "evalharness",
    "select_seed": "augment",
    "stats": "corpus",
    "truncate_topk": "lexicon",
    "write_tsv": "corpus",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # Names outside the table raise AttributeError, which is also what lets
    # ``from bitextpipe import augment`` fall through to the submodule import.
    try:
        module, _, attr = _EXPORTS[name].partition(":")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), attr or name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
