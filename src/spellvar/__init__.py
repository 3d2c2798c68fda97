"""Spelling-variant mining and embedding evaluation toolkit.

Mines (informal, formal) spelling-variant pairs from dictionary-definition
dumps, then scores word embeddings by how highly each informal token ranks
its formal counterpart among formal-lexicon neighbors (accuracy@k).
"""

from .embeddings import EmbeddingTable, cosine, load_embeddings, normalize
from .errors import (
    DegenerateVectorError,
    MissingTokenError,
    ParseError,
    SpellvarError,
)
from .evaluate import (
    CandidatePool,
    EvalConfig,
    EvalReport,
    PairResult,
    PairStatus,
    brute_force_rank,
    evaluate_pairs,
    rank_formal_neighbors,
)
from .extract import (
    DefinitionEntry,
    Delimiter,
    ExtractionStats,
    Validation,
    VariantPair,
    extract_candidate,
    mine_pairs,
    read_definitions,
    read_pairs,
    write_pairs,
)
from .vocab import (
    FormalLexicon,
    FrequencyTable,
    build_lexicon,
    count_frequencies,
    load_frequencies,
    load_lexicon,
    tokenize,
    write_frequencies,
    write_lexicon,
)

__version__ = "0.1.0"
