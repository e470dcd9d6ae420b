"""Exception types shared across the toolkit."""


class GramdecError(Exception):
    """Base class for all toolkit errors."""


class GrammarSyntaxError(GramdecError):
    """Malformed grammar text. Carries 1-based line/column."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class GrammarValidationError(GramdecError):
    """Structurally invalid grammar (undefined nonterminal, duplicates, ...)."""


class EmptyLanguageError(GramdecError):
    """The grammar's start symbol derives no terminal string."""


class EnumerationExplosion(GramdecError):
    """Language enumeration exceeded the safety bound."""


class SexpError(GramdecError):
    """Malformed s-expression text."""


class TypeCheckError(GramdecError):
    """Program does not type-check against the signature table."""


class InductionError(GramdecError):
    """Grammar induction failed (empty input, conflicting roots, ...)."""


class MtopParseError(GramdecError):
    """Malformed bracketed intent/slot string."""


class SchemaError(GramdecError):
    """Invalid database schema or specialization failure."""


class VocabularyError(GramdecError):
    """Invalid subword vocabulary."""


class DisallowedTokenError(GramdecError):
    """A token outside the legal-next-token set was applied to a state."""


class NoViableHypothesisError(GramdecError):
    """Constrained beam search ran out of viable hypotheses before any finish.

    `step` is the 0-based decode step it ended at: the step whose masks
    left no token for any hypothesis, or max_tokens when the token budget
    ran out first.
    """

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class ScorerError(GramdecError):
    """External scorer failure (transport, bad payload, wrong arity)."""


class SplitError(GramdecError):
    """Dataset too small or malformed for the requested split protocol."""


class MetricNotSupportedError(GramdecError):
    """Requested metric requires an executor and is not implemented."""


class EvaluationError(GramdecError):
    """Malformed prediction set (duplicate ids, unknown ids)."""


class PromptError(GramdecError):
    """Prompt construction failure (budget too small, empty pool)."""
