"""Reflection and transmission of any number of nodes, from one vectorised kernel.

Direction convention, fixed once for the whole package and enforced by the
finite-lattice solver in :mod:`cavitychain.oracle`: the incident wave is
e^{+ikj} travelling toward +j, the reflected wave is r e^{-ikj}, the
transmitted wave s e^{+ikj}.  Under this convention the paper's closed forms
for one node are

    r = V / (2 i t sin k - V),    s = 1 + r,

and for two nodes (first node at site 0, second at site D)

    r = [b (V1 + p V2) - V1 V2 (1 - p)] / den,    s = b^2 / den,
    den = (b - V1)(b - V2) - p V1 V2,

with b = 2 i t sin k and p = e^{2ikD}.  An equivalent form of the two-node
pair circulates with the opposite sign on the imaginary transport term; it
is the complex conjugate of this one (with conjugated potentials) and agrees
in |r|, |s| for real potentials, but only the form above matches the lattice
solver in phase, with and without decay.

``chain_scatter`` evaluates any number of nodes on whole parameter grids
through a pole-free transfer-matrix product that reduces to these forms for
one and two nodes; the test suite evaluates the forms on their own as its
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LimitWindowError, NoSolutionError
from .model import (
    SINGULAR_TOL,
    AtomParams,
    LatticeParams,
    dispersion_energy,
    potential_parts,
)

#: Half-width of the momentum windows in which the limit lineshapes apply.
LIMIT_WINDOW = 0.2


@dataclass(frozen=True)
class TwoNodeConfig:
    """Two nodes a positive integer number of sites apart."""

    atom1: AtomParams
    atom2: AtomParams
    D: int

    def __post_init__(self) -> None:
        if not (isinstance(self.D, int) and self.D >= 1):
            raise ValueError(f"node separation D must be an integer >= 1, got {self.D!r}")


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


def _transfer_row(k, E, b, nodes, *, with_norm=True):
    """Bottom row (P21, P22) of P = N_M ... N_1, built from the right as
    (0, 1) N_M ... N_1, with the norm prod_j max(|b den_j|, |n_j|) e^{2|Im k| x_j}
    (None unless ``with_norm``), prod_j b den_j and the singular nodes' mask.
    A singular node's N_j = n_j [1, -q_j]^T [1, 1/q_j], q_j = e^{2ikx_j}, has
    rank one, so the row it leaves is c n_j [1, 1/q_j] with c = P21 - P22 q_j
    taken once: the direction survives where c vanishes, at a trapped mode
    behind the mirror.  Complex k is allowed; the exponential, exactly 1 on
    the real axis, scales the norm with the phases e^{2ikx_j} off it.
    """
    P21, P22 = np.zeros(np.shape(E), complex), np.ones(np.shape(E), complex)
    norm, flux, singular = 1.0 if with_norm else None, 1.0, False
    for x, atom in reversed(nodes):
        n, den, scale = potential_parts(E, atom)
        hit = np.abs(den) < SINGULAR_TOL * scale
        a = b * np.where(hit, 0.0, den)
        q = np.exp(2j * k * x)
        row = P21 * (a + n) - P22 * n * q, P21 * n / q + P22 * (a - n)
        if np.any(hit):
            c = (P21 - P22 * q) * n
            row = np.where(hit, c, row[0]), np.where(hit, c / q, row[1])
        P21, P22 = row
        if with_norm:
            norm = norm * np.maximum(np.abs(a), np.abs(n)) * np.exp(2.0 * np.abs(np.imag(k)) * x)
        flux = flux * a
        singular = singular | hit
    return P21, P22, norm, flux, singular


def chain_scatter(
    k, nodes, lat: LatticeParams, *, limit: str | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes (r, s) and the singular-point mask for any number of nodes, on whole grids.

    ``nodes`` holds (x_j, atom_j) pairs with sites increasing along the
    chain.  k, the sites and every lattice and node field may be arrays; the
    results take their broadcast shape.  With b = 2 i t sin k and
    V_j = n_j / den_j, node j is the pole-free matrix N_j = b den_j I + n_j K_j,
    K_j = [[1, e^{-2ikx_j}], [-e^{2ikx_j}, -1]], and from P = N_M ... N_1
    r = -P21 / P22 and s = prod_j (b den_j) / P22.  A node whose denominator
    falls below SINGULAR_TOL times g (two-level) or g^2 gets den_j = 0, its
    exact mirror limit; the point is marked singular, with s = 0 and r the
    reflection of the chain up to the first singular node.  A passive chain
    keeps |s| <= 1, so P22 vanishes at real k only behind such a mirror, and
    a non-finite r or s raises FloatingPointError.
    ``limit`` evaluates one node on a limit lineshape, with V taken exactly
    at its E: band-centre ("high", |k - pi/2| <= LIMIT_WINDOW) linearises
    the band to E = omega - t pi + 2 t k with b = 2 i t, band-bottom
    ("low", 0 < k <= LIMIT_WINDOW) takes E = omega - 2 t + t k^2 with
    b = 2 i t k.  It raises ValueError for more nodes and LimitWindowError
    unless every k lies in its window.
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
    with np.errstate(all="ignore"):
        P21, P22, _, flux, singular = _transfer_row(k, E, b, nodes, with_norm=False)
        # 0 - x, not -x, so that a bare chain reflects +0 rather than -0
        r = 0.0 - P21 / P22
        s = np.where(singular, 0j, flux / P22)
    bad = np.count_nonzero(~(np.isfinite(r) & np.isfinite(s)))
    if bad:
        raise FloatingPointError(f"{bad} of {r.size} points gave a non-finite amplitude")
    return r, s, np.broadcast_to(singular, r.shape).copy()  # node sites may add axes


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

