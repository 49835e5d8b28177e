"""Exception types shared across the package."""

from __future__ import annotations


class CovnumError(Exception):
    """Base class for all package-specific errors."""


class DegreeMismatch(CovnumError):
    """Permutations of different degrees were combined."""


class ParseError(CovnumError):
    """A group / subgroup / fixture file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(CovnumError):
    """Element enumeration was requested beyond the configured cap."""


class BudgetExceeded(CovnumError):
    """A lattice / construction budget was exceeded."""


class IndexTooLarge(CovnumError):
    """A coset action would exceed the degree budget."""


class NoSupplement(CovnumError):
    """Every maximal subgroup contains the given normal subgroup."""


class IngestInvalid(CovnumError):
    """An ingested maximal-subgroup file failed verification."""


class NotACover(CovnumError):
    """The proposed subgroup classes do not cover the given element classes."""


class Unbounded(CovnumError):
    """Some element class meets no candidate subgroup class."""


class Infeasible(CovnumError):
    """A cover instance has an element in no column."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class CyclicGroup(CovnumError):
    """The group is cyclic, so its covering number is infinite."""


class OutOfRange(CovnumError):
    """Formula parameters are outside the formula's validity range."""


class Unknown(CovnumError):
    """A name or label is unknown: a registry entry, or an element or
    subgroup class label."""


class Undecided(CovnumError):
    """A verdict could not be closed within the given budget."""
