"""Deterministic corpus preparation and evaluation toolkit for multilingual MT.

The pipeline covers: parallel-corpus ingestion and statistics,
high-resource reduction, temperature sampling, bilingual-lexicon loading,
code-switching augmentation, pre-training mixture assembly, seed-data
selection, training-config emission, and sacreBLEU-compatible BLEU and
chrF/chrF++ scoring with per-language report tables.
"""

from .augment import (
    AugmentationPolicy,
    AugmentStats,
    MixtureManifest,
    augment_corpus,
    augment_sentence,
    build_pretraining_mixture,
    select_seed,
)
from .corpus import (
    CorpusStats,
    IngestReport,
    ParallelCorpus,
    SentencePair,
    ingest,
    read_tsv,
    reduce_highresource,
    reverse,
    stats,
    write_tsv,
)
from .errors import (
    AugmentError,
    ConfigError,
    CorpusError,
    LexiconError,
    MetricError,
    PipelineError,
    PlanError,
    TagError,
)
from .evalharness import ScoreReport, ScoreRow, report, score_run
from .lang import ENGLISH, LanguageTag, parse_pair, parse_tag, registry
from .lexicon import BilingualLexicon, LexiconEntry, load as load_lexicon, truncate_topk
from .metrics import ChrfConfig, Score, bleu, chrf
from .sampling import SamplingPlan, distribution, materialize
from .trainconfig import TrainConfig, emit as emit_train_config

__version__ = "0.1.0"

__all__ = [
    "AugmentationPolicy",
    "AugmentError",
    "AugmentStats",
    "BilingualLexicon",
    "ChrfConfig",
    "ConfigError",
    "CorpusError",
    "CorpusStats",
    "ENGLISH",
    "IngestReport",
    "LanguageTag",
    "LexiconEntry",
    "LexiconError",
    "MetricError",
    "MixtureManifest",
    "ParallelCorpus",
    "PipelineError",
    "PlanError",
    "SamplingPlan",
    "Score",
    "ScoreReport",
    "ScoreRow",
    "SentencePair",
    "TagError",
    "TrainConfig",
    "augment_corpus",
    "augment_sentence",
    "bleu",
    "build_pretraining_mixture",
    "chrf",
    "distribution",
    "emit_train_config",
    "ingest",
    "load_lexicon",
    "materialize",
    "parse_pair",
    "parse_tag",
    "read_tsv",
    "reduce_highresource",
    "registry",
    "report",
    "reverse",
    "score_run",
    "select_seed",
    "stats",
    "truncate_topk",
    "write_tsv",
]
