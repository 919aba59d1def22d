"""Summary scoring that blends n-gram recall with graph-walk semantics."""

from .graph import (
    Dictionary,
    ParseError,
    SemanticGraph,
    SenseId,
    load_dictionary,
    load_graph,
)
from .ppr import (
    PprConfig,
    PprEngine,
    PprVector,
    compute_ppr,
)
from .similarity import insert_oov, sim_sem
from .disambiguation import (
    WordType,
    align_disambiguate,
    build_word_types,
    disambiguate_pair,
)
from .text import SummaryText, stem, stopwords, tokenize
from .rouge import (
    BOS_MARKER,
    extract_ngrams,
    extract_su4,
)
from .scorer import (
    ALL_VARIANTS,
    GrougeConfig,
    ScoreParts,
    ScoreReport,
    grouge_score,
    parts_by_family,
    score_batch,
)
from .stats import (
    CorrelationReport,
    JudgmentTable,
    WilliamsResult,
    bootstrap_ci,
    correlate,
    kendall,
    pearson,
    spearman,
    williams_test,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_VARIANTS",
    "BOS_MARKER",
    "CorrelationReport",
    "Dictionary",
    "GrougeConfig",
    "JudgmentTable",
    "ParseError",
    "PprConfig",
    "PprEngine",
    "PprVector",
    "ScoreParts",
    "ScoreReport",
    "SemanticGraph",
    "SenseId",
    "SummaryText",
    "WilliamsResult",
    "WordType",
    "align_disambiguate",
    "bootstrap_ci",
    "build_word_types",
    "compute_ppr",
    "correlate",
    "disambiguate_pair",
    "extract_ngrams",
    "extract_su4",
    "grouge_score",
    "insert_oov",
    "kendall",
    "load_dictionary",
    "load_graph",
    "parts_by_family",
    "pearson",
    "score_batch",
    "sim_sem",
    "spearman",
    "stem",
    "stopwords",
    "tokenize",
    "williams_test",
]
