"""Exception hierarchy shared by every module."""

from __future__ import annotations


class CavityChainError(Exception):
    """Base class for all package-specific errors."""


class LimitWindowError(CavityChainError):
    """Momentum lies outside the configured high/low energy window."""


class NoSolutionError(CavityChainError):
    """The perfect-reflection condition has no real solution here."""


class UnverifiedRootError(CavityChainError):
    """A trapped-mode root inside the search window fails the residual check."""


class PlacementError(CavityChainError):
    """Node placement violates the chain geometry constraints."""


class InsufficientChainError(CavityChainError):
    """The chain is too short for the wavepacket to scatter cleanly."""


class IntegratorDriftError(CavityChainError):
    """Time integration lost more norm than the decay-free budget allows."""


class OracleResidualError(CavityChainError):
    """A lattice-oracle solve left a residual above the oracle's bound."""


class ConfigError(CavityChainError):
    """Invalid or unknown run-configuration entry."""
