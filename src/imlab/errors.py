"""Error taxonomy shared across the package.

Each class carries the exit code the CLI returns for it (`exit_code`):
configuration and usage problems exit 1, admissibility and certification
failures exit 2, numerical failures exit 3.
"""
from __future__ import annotations


class ImlabError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(ImlabError):
    """Malformed or inconsistent configuration input."""


class DimensionError(ConfigError):
    """A vector or matrix has the wrong shape for the requested operation."""


class DomainError(ConfigError):
    """An argument lies outside the mathematical domain of the operation."""


class AdmissibilityError(ImlabError):
    """A regularity exponent or constant violates its admissibility window."""

    exit_code = 2


class GapViolationError(ImlabError):
    """Spectral gap conditions fail, or an iteration stops contracting."""

    exit_code = 3


class CertificationError(ImlabError):
    """A sampled quantity exceeds its configured constant.

    Carries the witness sample so the failure is reproducible.
    """

    exit_code = 2

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConvergenceError(ImlabError):
    """A fixed-point iteration exhausted its iteration budget."""

    exit_code = 3


class OverflowGuardError(ImlabError):
    """Backward integration grew past the overflow guard (horizon too long)."""

    exit_code = 3
