"""bettibounds: exact Betti-table arithmetic, pure-diagram decompositions,
binomial bounds on total Betti numbers, and rigorous digit brackets for
Betti numbers far beyond exact reach.
"""

from .bounds import (
    DEFAULT_DIGIT_BUDGET,
    BoundPair,
    algebraic_bounds,
    check_descending_factorial_bound,
    check_rising_factorial_bound,
    extremal_sequences,
    hypersurface_dim_l,
    pure_bounds,
    variety_bounds,
    veronese_bounds,
)
from .decompose import (
    Decomposition,
    decompose,
    leading_degree_sequence,
    peel,
    verify_decomposition,
)
from .diagrams import (
    BettiTable,
    deg_seq_leq,
    deg_seq_lt,
    degree_sequence,
    format_diagram,
    pure_diagram,
)
from .errors import (
    BettiError,
    DomainError,
    NotInBSCone,
    TableFormatError,
    TooLarge,
)
from .estimation import (
    DEFAULT_PRECISION,
    DigitBracket,
    LogBracket,
    VeroneseParams,
    algebraic_digit_bracket,
    exact_log_binomial,
    ln_bracket,
    log_binomial_bracket,
    log_factorial_bracket,
    pure_digit_bracket,
    variety_digit_bracket,
    veronese_codim,
    veronese_digit_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "BettiError",
    "BettiTable",
    "BoundPair",
    "DEFAULT_DIGIT_BUDGET",
    "DEFAULT_PRECISION",
    "Decomposition",
    "DigitBracket",
    "DomainError",
    "LogBracket",
    "NotInBSCone",
    "TableFormatError",
    "TooLarge",
    "VeroneseParams",
    "algebraic_bounds",
    "algebraic_digit_bracket",
    "check_descending_factorial_bound",
    "check_rising_factorial_bound",
    "decompose",
    "deg_seq_leq",
    "deg_seq_lt",
    "degree_sequence",
    "exact_log_binomial",
    "extremal_sequences",
    "format_diagram",
    "hypersurface_dim_l",
    "leading_degree_sequence",
    "ln_bracket",
    "log_binomial_bracket",
    "log_factorial_bracket",
    "peel",
    "pure_bounds",
    "pure_diagram",
    "pure_digit_bracket",
    "variety_bounds",
    "variety_digit_bracket",
    "verify_decomposition",
    "veronese_bounds",
    "veronese_codim",
    "veronese_digit_bracket",
]
