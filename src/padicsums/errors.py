"""Exception types shared across the toolkit."""

from __future__ import annotations


class PadicSumsError(Exception):
    """Base class for every error raised by this package."""


class PolyParseError(PadicSumsError):
    """Syntax error in polynomial text; ``position`` indexes the bad character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConstantTermNonzero(PadicSumsError):
    """The parsed polynomial has f(0) != 0; subtract the constant explicitly."""


class ZeroPolynomial(PadicSumsError):
    """Every term cancelled; the zero polynomial is not analyzable."""


class DimensionTooLarge(PadicSumsError):
    """Ambient dimension exceeds the configured cap for exact polyhedral work."""


class BudgetExceeded(PadicSumsError):
    """A lattice enumeration would visit more points than the configured cap."""


class WorkBudgetExceeded(PadicSumsError):
    """A sum kernel would evaluate more grid points than the work budget.

    Raised before any computation starts; ``estimated`` carries the count.
    """

    def __init__(self, estimated: int, budget: int):
        super().__init__(f"estimated {estimated} evaluations exceed the work budget {budget}")
        self.estimated = estimated
        self.budget = budget


class ModulusTooLarge(PadicSumsError):
    """The modulus is too large for exact int64 residue arithmetic in the
    grid kernels: a product of two residues could wrap.  Raised before any
    computation starts."""


class InsufficientPrimes(PadicSumsError):
    """Fewer than three usable primes remain for a decay-exponent fit."""


class HypothesisUnmet(PadicSumsError):
    """An operation's stated hypothesis (e.g. homogeneity of degree >= 2) fails."""
