"""Reflection and transmission: closed forms for one or two nodes, a kernel for any number.

Direction convention, fixed once for the whole package and enforced by the
finite-lattice solver in :mod:`cavitychain.oracle`: the incident wave is
e^{+ikj} travelling toward +j, the reflected wave is r e^{-ikj}, the
transmitted wave s e^{+ikj}.  Under this convention the single-node
amplitudes are

    r = V / (2 i t sin k - V),    s = 1 + r,

and the two-node amplitudes (first node at site 0, second at site D) are

    r = [b (V1 + p V2) - V1 V2 (1 - p)] / den,    s = b^2 / den,
    den = (b - V1)(b - V2) - p V1 V2,

with b = 2 i t sin k and p = e^{2ikD}.  An equivalent form of the two-node
pair circulates with the opposite sign on the imaginary transport term; it
is the complex conjugate of this one (with conjugated potentials) and agrees
in |r|, |s| for real potentials, but only the form above matches the lattice
solver in phase, with and without decay.

``chain_scatter`` evaluates any number of nodes on whole parameter grids
through a pole-free transfer-matrix product; the scalar closed forms are
the paper's results and its references in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LimitWindowError,
    NoSolutionError,
    ResonanceDenominatorError,
    SingularPotentialError,
)
from .model import (
    SINGULAR_TOL,
    AtomParams,
    LatticeParams,
    dispersion_energy,
    effective_potential,
    momentum_from_energy,
    potential_parts,
)

#: Half-width of the momentum windows in which the limit lineshapes apply.
LIMIT_WINDOW = 0.2

#: Relative scale below which the two-node denominator counts as resonant.
RESONANCE_TOL = 1e-12

#: Point status codes returned by ``chain_scatter``.
FLAG_OK = 0
FLAG_SINGULAR = 1
FLAG_RESONANCE = 2


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes and derived probabilities at one momentum.

    ``singular`` marks points where a diverging potential forced the
    analytic limit (r = -1 at the diverging node).
    """

    k: float
    E: float
    r: complex
    s: complex
    singular: bool = False

    @property
    def R(self) -> float:
        """Reflectance |r|^2."""
        return abs(self.r) ** 2

    @property
    def T(self) -> float:
        """Transmittance |s|^2."""
        return abs(self.s) ** 2

    @property
    def xi(self) -> float:
        """Loss ratio 1 - (R + T); zero for elastic scattering."""
        return 1.0 - (self.R + self.T)


@dataclass(frozen=True)
class TwoNodeConfig:
    """Two nodes a positive integer number of sites apart."""

    atom1: AtomParams
    atom2: AtomParams
    D: int

    def __post_init__(self) -> None:
        if not (isinstance(self.D, int) and self.D >= 1):
            raise ValueError(f"node separation D must be an integer >= 1, got {self.D!r}")


def single_node_scatter(
    k: float,
    atom: AtomParams,
    lat: LatticeParams,
) -> ScatteringResult:
    """Scatter a photon of momentum ``k`` off one node at the origin.

    At a potential singularity the exact limit r = -1, s = 0 is returned
    instead of dividing through: the node is a perfect mirror there.
    """
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
    """Scatter off two nodes, the first at site 0 and the second at site D.

    Diverging potentials are resolved by their limits: a singular first node
    reflects everything with r = -1; a singular second node reflects
    everything with a round-trip phase.  Raises ResonanceDenominatorError
    when the transport denominator vanishes at real k, which only happens on
    exact trapped-mode parameter sets.
    """
    E = dispersion_energy(k, lat)
    b = 2j * lat.t * math.sin(k)
    p = cmath.exp(2j * k * cfg.D)

    v1: complex | None
    try:
        v1 = effective_potential(E, cfg.atom1)
    except SingularPotentialError:
        v1 = None
    if v1 is None:
        return ScatteringResult(k=k, E=E, r=-1.0 + 0.0j, s=0.0j, singular=True)

    try:
        v2 = effective_potential(E, cfg.atom2)
    except SingularPotentialError:
        # Perfect mirror at site D: u(D) = 0, so the photon reflects with the
        # phase accumulated on the round trip to the far node.
        r = (v1 * (1.0 - p) - p * b) / (b - v1 * (1.0 - p))
        return ScatteringResult(k=k, E=E, r=r, s=0.0j, singular=True)

    den = (b - v1) * (b - v2) - p * v1 * v2
    scale = max(abs(b) ** 2, abs(b * v1), abs(b * v2), abs(v1 * v2))
    if abs(den) < RESONANCE_TOL * scale:
        raise ResonanceDenominatorError(
            f"two-node denominator vanished at k={k!r} (trapped-mode condition)"
        )
    r = (b * (v1 + p * v2) - v1 * v2 * (1.0 - p)) / den
    s = b * b / den
    return ScatteringResult(k=k, E=E, r=r, s=s)


def limit_scatter(
    k: float,
    regime: str,
    atom: AtomParams,
    lat: LatticeParams,
) -> ScatteringResult:
    """Band-edge and band-centre lineshapes.

    ``regime="high"`` linearises the dispersion about k = pi/2,
    E = omega - t pi + 2 t k, and uses r = V/(2it - V); ``regime="low"``
    uses the quadratic bottom-of-band dispersion E = omega - 2t + t k^2 and
    r = V/(2itk - V).  The potential itself is evaluated exactly at E.
    """
    E, transport = _limit_band(k, regime, lat)
    try:
        v = effective_potential(E, atom)
    except SingularPotentialError:
        return ScatteringResult(k=k, E=E, r=-1.0 + 0.0j, s=0.0j, singular=True)
    r = v / (transport - v)
    return ScatteringResult(k=k, E=E, r=r, s=1.0 + r)


def _limit_band(k, regime: str, lat: LatticeParams):
    """Energy and transport factor of a limit lineshape; raises outside its window."""
    if regime == "high":
        inside = np.abs(k - 0.5 * math.pi) <= LIMIT_WINDOW
        E, transport = lat.omega - lat.t * math.pi + 2.0 * lat.t * k, 2j * lat.t
        where = f"|k - pi/2| <= {LIMIT_WINDOW}"
    elif regime == "low":
        inside = (0.0 < k) & (k <= LIMIT_WINDOW)
        E, transport = lat.omega - 2.0 * lat.t + lat.t * k * k, 2j * lat.t * k
        where = f"0 < k <= {LIMIT_WINDOW}"
    else:
        raise ValueError(f"regime must be 'high' or 'low', got {regime!r}")
    if not np.all(inside):
        bad = np.asarray(k)[~np.asarray(inside)]
        raise LimitWindowError(f"{regime}-energy window is {where}, got k={float(bad[0])!r}")
    return E, transport


def _transfer_row(k, E, b, nodes):
    """Bottom row (P21, P22) of P = N_M ... N_1, built from the right as
    (0, 1) N_M ... N_1, with prod_j max(|b den_j|, |n_j|) e^{2|Im k| x_j},
    prod_j b den_j and the mask of singular nodes.  Complex k is allowed; the
    exponential, exactly 1 on the real axis, scales the norm with the phases
    e^{2ikx_j} off it.
    """
    P21, P22 = np.zeros(np.shape(E), complex), np.ones(np.shape(E), complex)
    norm, flux, singular = 1.0, 1.0, False
    for x, atom in reversed(nodes):
        n, den, scale = potential_parts(E, atom)
        hit = np.abs(den) < SINGULAR_TOL * scale
        a = b * np.where(hit, 0.0, den)
        q = np.exp(2j * k * x)
        P21, P22 = P21 * (a + n) - P22 * n * q, P21 * n / q + P22 * (a - n)
        norm = norm * np.maximum(np.abs(a), np.abs(n)) * np.exp(2.0 * np.abs(np.imag(k)) * x)
        flux = flux * a
        singular = singular | hit
    return P21, P22, norm, flux, singular


def chain_scatter(
    k, nodes, lat: LatticeParams, *, limit: str | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes (r, s) and a status flag for any number of nodes, on whole grids.

    ``nodes`` holds (x_j, atom_j) pairs with sites increasing along the
    chain.  k, the sites and every lattice and node field may be arrays; the
    results take their broadcast shape.  With b = 2 i t sin k and
    V_j = n_j / den_j, node j is the pole-free matrix N_j = b den_j I + n_j K_j,
    K_j = [[1, e^{-2ikx_j}], [-e^{2ikx_j}, -1]], and from P = N_M ... N_1
    r = -P21 / P22 and s = prod_j (b den_j) / P22.  A node whose denominator
    falls below SINGULAR_TOL times g (two-level) or g^2 gets den_j = 0, its
    exact mirror limit, and the point is flagged FLAG_SINGULAR with s = 0.
    Otherwise |P22| < RESONANCE_TOL * prod_j max(|b den_j|, |n_j|) marks a
    trapped-mode hit, FLAG_RESONANCE, stored as r = -1, s = 0; for two nodes
    this is the test of ``two_node_scatter``.
    ``limit`` evaluates one node on the band-centre ("high") or band-bottom
    ("low") lineshape of ``limit_scatter``; it raises ValueError for more
    nodes and LimitWindowError unless every k lies in its window.
    """
    k = np.asarray(k, dtype=float)
    if limit is not None:
        if len(nodes) > 1:
            raise ValueError(f"a limit lineshape takes one node, got {len(nodes)}")
        E, b = _limit_band(k, limit, lat)
        nodes = [(0, atom) for _, atom in nodes]
    elif np.all((0.0 < k) & (k < math.pi)):
        E, b = lat.omega - 2.0 * lat.t * np.cos(k), 2j * lat.t * np.sin(k)
    else:
        raise ValueError("momentum must lie in the open interval (0, pi)")
    P21, P22, norm, flux, singular = _transfer_row(k, E, b, nodes)
    resonant = np.abs(P22) < RESONANCE_TOL * norm
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0 - x, not -x, so that a bare chain reflects +0 rather than -0
        r = np.where(resonant, -1.0 + 0j, 0.0 - P21 / P22)
        s = np.where(resonant | singular, 0j, flux / P22)
    flag = np.where(singular, FLAG_SINGULAR, np.where(resonant, FLAG_RESONANCE, FLAG_OK))
    return r, s, flag.astype(np.int8)


def find_perfect_reflection(
    target_k: float,
    atom: AtomParams,
    lat: LatticeParams,
    free: str = "Omega",
) -> list[float]:
    """Solve (E - omega_e)(E - delta) = Omega^2 for one free node parameter.

    ``free="Omega"`` returns the Rabi frequency as a single nonnegative
    magnitude (the two signs are physically equivalent); ``free="delta"``
    returns the detuning.  E is the band energy at ``target_k``.  Raises
    NoSolutionError when no real solution exists, in particular at the
    two-photon resonance E = delta where the node is pinned transparent.
    """
    match_tol = 1e-9  # relative gap below which two energies coincide
    E = dispersion_energy(target_k, lat)
    if free == "Omega":
        scale = max(1.0, abs(E), abs(atom.delta))
        if abs(E - atom.delta) <= match_tol * scale:
            raise NoSolutionError(
                "E coincides with the two-photon resonance; the potential is "
                "identically zero there and no Rabi frequency reflects"
            )
        rhs = (E - atom.omega_e) * (E - atom.delta)
        if rhs < 0.0:
            if abs(E - atom.omega_e) <= match_tol * max(1.0, abs(atom.omega_e)):
                return [0.0]  # bare two-level resonance up to rounding
            raise NoSolutionError(
                f"(E - omega_e)(E - delta) = {rhs!r} < 0 admits no real Rabi frequency"
            )
        return [math.sqrt(rhs)]
    if free == "delta":
        scale = max(1.0, abs(E), abs(atom.omega_e))
        if abs(E - atom.omega_e) <= match_tol * scale:
            if atom.Omega == 0.0:
                raise NoSolutionError(
                    "E sits on the bare two-level resonance; every detuning reflects"
                )
            raise NoSolutionError(
                "E sits on the bare excited level; no finite detuning solves the "
                "resonance condition for a nonzero Rabi frequency"
            )
        return [E - atom.Omega * atom.Omega / (E - atom.omega_e)]
    raise ValueError(f"free parameter must be 'Omega' or 'delta', got {free!r}")


def find_perfect_transmission(atom: AtomParams, lat: LatticeParams) -> float:
    """Momentum of the transparency point, where E(k) = delta and r = 0.

    Raises OutOfBandError when the detuning lies outside the band.  The
    returned momentum gives r = 0 exactly only for a decay-free node.
    """
    return momentum_from_energy(atom.delta, lat)
