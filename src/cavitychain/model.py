"""Parameter types, the cosine band, and the node's effective contact potential.

A single photon hops between nearest-neighbour cavities, so its energy obeys
E(k) = omega - 2 t cos k on momenta k in (0, pi); the lattice constant is
identically 1 and never appears explicitly.  A three-level node embedded at
one site acts on the photon as an energy-dependent delta potential

    V(E) = g^2 (E - delta) / [(E - omega_e)(E - delta) - Omega^2],

which vanishes at the two-photon resonance E = delta (the transparency
window) and diverges at the dressed levels omega_plus / omega_minus.  All
energies share one unit system in which the probe coupling g defaults to 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

#: Relative scale below which the potential's denominator counts as zero.
SINGULAR_TOL = 1e-12


def _require_finite(name: str, value) -> float:
    """Smallest value of a number or an array, after checking every value is finite."""
    lo, hi = (value.min(), value.max()) if isinstance(value, np.ndarray) else (value, value)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return lo


@dataclass(frozen=True)
class LatticeParams:
    """Tight-binding channel: cavity frequency ``omega`` and hopping ``t > 0``.

    Like AtomParams, the fields may be arrays, one value per grid point.
    """

    omega: float
    t: float

    def __post_init__(self) -> None:
        _require_finite("omega", self.omega)
        if not _require_finite("t", self.t) > 0:
            raise ValueError(f"hopping t must be positive, got {self.t!r}")


@dataclass(frozen=True)
class AtomParams:
    """Internal structure of one embedded node.

    ``omega_e`` is the excited-level spacing, ``delta`` the detuning between
    the metastable level and the control field, ``Omega`` the control-field
    Rabi frequency and ``g`` the probe coupling.  ``Gamma`` and ``gamma`` are
    phenomenological decay rates of the excited and metastable levels; they
    enter every formula through the substitutions omega_e -> omega_e - i Gamma
    and delta -> delta - i gamma.  ``Omega = 0`` degenerates the node to a
    two-level scatterer with V(E) = g^2 / (E - omega_e).  Any field may be
    an array (one value per sweep grid point); ``potential_parts`` and the
    vectorised kernel broadcast over them.
    """

    omega_e: float
    delta: float
    Omega: float
    g: float = 1.0
    Gamma: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        low = {
            name: _require_finite(name, getattr(self, name))
            for name in ("omega_e", "delta", "Omega", "g", "Gamma", "gamma")
        }
        if low["Omega"] < 0:
            raise ValueError(f"Omega must be nonnegative, got {self.Omega!r}")
        if not low["g"] > 0:
            raise ValueError(f"coupling g must be positive, got {self.g!r}")
        if low["Gamma"] < 0 or low["gamma"] < 0:
            raise ValueError("decay rates must be nonnegative")

    @property
    def is_decay_free(self) -> bool:
        return self.Gamma == 0.0 and self.gamma == 0.0


def dispersion_energy(k, lat: LatticeParams):
    """Band energy E = omega - 2 t cos k for real momenta k in (0, pi); broadcasts."""
    array = isinstance(k, np.ndarray)
    lo, hi = (k.min(), k.max()) if array else (k, k)
    if not (0.0 < lo and hi < math.pi):
        raise ValueError(f"momentum must lie in the open interval (0, pi), got {k!r}")
    return lat.omega - 2.0 * lat.t * (np.cos(k) if array else math.cos(k))


def dispersion_energy_continued(k: complex, lat: LatticeParams) -> complex:
    """Analytic continuation of the band energy to complex momentum."""
    return lat.omega - 2.0 * lat.t * cmath.cos(k)


def potential_parts(E, atom: AtomParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerator, denominator and singular scale of V(E) = num / den.

    Broadcasts over E and over array-valued node fields, and accepts complex
    E (the continuation to complex momentum).  A two-level node (Omega = 0)
    keeps the reduced form num = g^2, den = E - omega_e, so its removable
    singularity at E = delta never reaches floating point.  The scale is g
    for a two-level node and g^2 otherwise; a denominator below
    ``SINGULAR_TOL`` times it counts as zero, a perfect-reflection pole.
    """
    g2 = atom.g * atom.g
    E_we = E - (atom.omega_e - 1j * atom.Gamma)
    E_dm = E - (atom.delta - 1j * atom.gamma)
    two_level = np.equal(atom.Omega, 0.0)
    num = np.where(two_level, g2, g2 * E_dm)
    den = np.where(two_level, E_we, E_we * E_dm - atom.Omega * atom.Omega)
    return num, den, np.where(two_level, atom.g, g2)

