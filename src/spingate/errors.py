"""Exception types shared across the toolkit.

Validation problems (bad values, malformed files, misaligned gates) derive
from ValueError so callers can treat them uniformly; numeric failures such
as a fit that never converges derive from RuntimeError.
"""

from __future__ import annotations


class SpingateError(Exception):
    """Base class for all toolkit errors."""


class GateError(SpingateError, ValueError):
    """Gate window violates a constraint (period bound, finiteness, alignment)."""


class MetricError(SpingateError, ValueError):
    """A figure of merit is undefined for the given counts or rates."""


class LineError(SpingateError, ValueError):
    """Input file rejected. Carries the offending line number when known and
    prefixes it to the message."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(LineError):
    """Config file rejected."""


class ParseError(LineError):
    """Data file rejected."""


class FitError(SpingateError, RuntimeError):
    """Least-squares fit failed (degenerate data or similar)."""


class NonConvergenceError(FitError):
    """Fit did not converge. Carries the last iterate, a dict of parameter
    values in physical units, and its residual 2-norm for diagnostics."""

    def __init__(self, message: str, last_params: dict, residual_norm: float):
        super().__init__(message)
        self.last_params = last_params
        self.residual_norm = residual_norm
