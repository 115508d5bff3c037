"""Shared random draws, the paper's closed forms and a reference CSV writer for the tests.

The closed forms below are the reference the vectorised kernel
``chain_scatter`` is checked against.  They evaluate the paper's formulas
point by point, with their own potential and limit bands, and share no code
with the kernel: only the tolerances ``model.SINGULAR_TOL`` and
``scattering.LIMIT_WINDOW``, read at each call so that a test may patch
them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from cavitychain import (
    AtomParams,
    LatticeParams,
    LimitWindowError,
    TwoNodeConfig,
    dispersion_energy,
    model,
    scattering,
)


class SingularPotentialError(Exception):
    """The potential diverges at this energy: the node is a perfect mirror there."""


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes at one momentum; ``singular`` marks the r = -1 limit of a diverging node."""

    k: float
    E: float
    r: complex
    s: complex
    singular: bool = False

    @property
    def R(self) -> float:
        return abs(self.r) ** 2

    @property
    def T(self) -> float:
        return abs(self.s) ** 2

    @property
    def xi(self) -> float:
        """Loss ratio 1 - (R + T); zero for elastic scattering."""
        return 1.0 - (self.R + self.T)


def effective_potential(E: complex, atom: AtomParams) -> complex:
    """V(E) = g^2 (E - delta) / [(E - omega_e)(E - delta) - Omega^2] with decay.

    A two-level node keeps the reduced form g^2 / (E - omega_e).  Raises
    SingularPotentialError when the denominator falls below SINGULAR_TOL
    times g (two-level) or g^2.
    """
    g2 = atom.g * atom.g
    we, dm = complex(atom.omega_e, -atom.Gamma), complex(atom.delta, -atom.gamma)
    if atom.Omega == 0.0:
        den, num, scale = E - we, g2, atom.g
    else:
        den, num, scale = (E - we) * (E - dm) - atom.Omega * atom.Omega, g2 * (E - dm), g2
    if abs(den) < model.SINGULAR_TOL * scale:
        raise SingularPotentialError(f"potential singular at E={E!r}")
    return complex(num / den)


def single_node_scatter(k: float, atom: AtomParams, lat: LatticeParams) -> ScatteringResult:
    """One node at the origin: r = V / (2 i t sin k - V), s = 1 + r; r = -1, s = 0 on a pole."""
    E = dispersion_energy(k, lat)
    try:
        v = effective_potential(E, atom)
    except SingularPotentialError:
        return ScatteringResult(k=k, E=E, r=-1.0 + 0.0j, s=0.0j, singular=True)
    r = v / (2j * lat.t * math.sin(k) - v)
    return ScatteringResult(k=k, E=E, r=r, s=1.0 + r)


def loss_ratio(k: float, atom: AtomParams, lat: LatticeParams) -> float:
    """Probability lost to the decay channels, 1 - (R + T)."""
    return single_node_scatter(k, atom, lat).xi


def two_node_scatter(k: float, cfg: TwoNodeConfig, lat: LatticeParams) -> ScatteringResult:
    """Nodes at sites 0 and D.

    A singular first node reflects everything with r = -1; a singular second
    node reflects everything with the round-trip phase to it.
    """
    E = dispersion_energy(k, lat)
    b = 2j * lat.t * math.sin(k)
    p = cmath.exp(2j * k * cfg.D)
    try:
        v1 = effective_potential(E, cfg.atom1)
    except SingularPotentialError:
        return ScatteringResult(k=k, E=E, r=-1.0 + 0.0j, s=0.0j, singular=True)
    try:
        v2 = effective_potential(E, cfg.atom2)
    except SingularPotentialError:
        r = (v1 * (1.0 - p) - p * b) / (b - v1 * (1.0 - p))
        return ScatteringResult(k=k, E=E, r=r, s=0.0j, singular=True)
    den = (b - v1) * (b - v2) - p * v1 * v2
    r = (b * (v1 + p * v2) - v1 * v2 * (1.0 - p)) / den
    return ScatteringResult(k=k, E=E, r=r, s=b * b / den)


def limit_scatter(k: float, regime: str, atom: AtomParams, lat: LatticeParams) -> ScatteringResult:
    """Band-centre and band-bottom lineshapes, with V taken exactly at their E.

    ``"high"`` linearises the band about k = pi/2, E = omega - t pi + 2 t k,
    and uses r = V / (2 i t - V); ``"low"`` takes the band bottom
    E = omega - 2 t + t k^2 and r = V / (2 i t k - V).  Raises
    LimitWindowError outside the regime's window.
    """
    window = scattering.LIMIT_WINDOW
    if regime == "high":
        inside = abs(k - 0.5 * math.pi) <= window
        E, transport = lat.omega - lat.t * math.pi + 2.0 * lat.t * k, 2j * lat.t
    elif regime == "low":
        inside = 0.0 < k <= window
        E, transport = lat.omega - 2.0 * lat.t + lat.t * k * k, 2j * lat.t * k
    else:
        raise ValueError(f"regime must be 'high' or 'low', got {regime!r}")
    if not inside:
        raise LimitWindowError(f"k={k!r} lies outside the {regime}-energy window")
    try:
        v = effective_potential(E, atom)
    except SingularPotentialError:
        return ScatteringResult(k=k, E=E, r=-1.0 + 0.0j, s=0.0j, singular=True)
    r = v / (transport - v)
    return ScatteringResult(k=k, E=E, r=r, s=1.0 + r)


def draw_lattice(rng: np.random.Generator) -> LatticeParams:
    return LatticeParams(omega=rng.uniform(-2.0, 2.0), t=rng.uniform(0.5, 4.0))


def draw_atom(
    rng: np.random.Generator,
    *,
    two_level: bool = False,
    decay: bool = False,
    g_range: tuple[float, float] = (0.6, 1.5),
) -> AtomParams:
    return AtomParams(
        omega_e=rng.uniform(-3.0, 3.0),
        delta=rng.uniform(-3.0, 3.0),
        Omega=0.0 if two_level else rng.uniform(0.0, 3.0),
        g=rng.uniform(*g_range),
        Gamma=rng.uniform(0.0, 0.2) if decay else 0.0,
        gamma=rng.uniform(0.0, 0.2) if decay else 0.0,
    )


def draw_momentum(rng: np.random.Generator) -> float:
    return rng.uniform(0.05, math.pi - 0.05)


def draw_two_node(
    rng: np.random.Generator, *, decay: bool = False, d_max: int = 12
) -> TwoNodeConfig:
    flavors = (False, True)
    return TwoNodeConfig(
        draw_atom(rng, two_level=rng.choice(flavors), decay=decay),
        draw_atom(rng, two_level=rng.choice(flavors), decay=decay),
        int(rng.integers(1, d_max + 1)),
    )


def reference_csv(header: list[str], columns: list) -> bytes:
    """The bytes of the row-by-row CSV writer: one ``fmt % row`` per row.

    Numbers go through ``%.17g`` and text (``O``, ``U`` and ``S`` columns)
    through ``%s``, every value formatted on its own.  A pair
    ``(values, index)`` is expanded to the column ``values[index]`` first.
    """
    cols = [np.take(c[0], c[1]) if isinstance(c, tuple) else np.asarray(c) for c in columns]
    fmt = ",".join("%s" if c.dtype.kind in "OUS" else "%.17g" for c in cols) + "\n"
    rows = zip(*(c.tolist() for c in cols))
    return "".join([",".join(header) + "\n", *(fmt % row for row in rows)]).encode("utf-8")
