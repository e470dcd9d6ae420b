"""Grammar-constrained decoding toolkit.

Induce or load character-level CFGs for semantic-parse meaning
representations, recognize prefixes incrementally with an Earley chart,
compute exact legal-next-token masks for any subword vocabulary, run
constrained beam search against pluggable scorers, and generate the
benchmark's data splits, prompts, and metrics.
"""

from .decoder import DecodeConfig, HttpScorer, NgramScorer, Scorer, decode, train_ngram
from .earley import CharMask, PrefixState, check_string, init_state
from .grammar import (
    Grammar,
    Production,
    Symbol,
    enumerate_language,
    nullable_set,
    parse_grammar,
    reduce,
    serialize_grammar,
)
from .induction import (
    MtopTree,
    SignatureTable,
    TypedExpression,
    induce_lispress_grammar,
    induce_mtop_grammar,
    load_signatures,
    parse_mtop,
    type_check,
)
from .lispress import canonical, lispress_equal, parse_sexp
from .prompting import (
    ContextMode,
    Prompt,
    PromptExample,
    bm25_rank,
    bm25_scores,
    build_prompt,
    render_input,
)
from .splits import (
    DatasetExample,
    MetricReport,
    SplitSpec,
    aggregate_low,
    evaluate,
    load_dataset_jsonl,
    make_splits,
)
from .sql import (
    DbColumn,
    DbSchema,
    DbTable,
    load_base_sql_grammar,
    load_schema_json,
    render_schema,
    specialize_sql_grammar,
)
from .tokens import (
    TokenTrie,
    Vocabulary,
    advance_token,
    allowed_tokens,
    build_trie,
    dense_mask,
    load_vocab_jsonl,
)

__version__ = "0.1.0"
