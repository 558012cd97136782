"""The two errors of the package, one per non-zero exit code of the command line."""


class ValidationError(ValueError):
    """Bad input: out-of-range value, inconsistent units, malformed document (exit 1)."""


class NumericError(ArithmeticError):
    """Numeric failure: a formed value that overflows or underflows, a singularity,
    an instability or a non-convergence (exit 2)."""
