"""The benchmark's own physics, written independently of ``cavitychain``.

Every correctness check in the benchmark compares the program's output with
a value computed here: vectorised numpy closed forms for one and two nodes
and for the band-centre / band-bottom lineshapes, a dense Hamiltonian with
exact eigen-propagation of a wavepacket, and the trapped-mode condition as a
polynomial in z = e^{ik} solved through its companion matrix.  Nothing here
imports the package under test.

Node parameters are plain dicts with the keys of the run configuration:
``omega_e``, ``delta``, ``Omega``, ``g``, ``Gamma`` and ``gamma``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

#: Relative size below which a potential denominator counts as vanishing.
SINGULAR_REL = 1e-9


def node(omega_e=0.0, delta=0.0, Omega=0.0, g=1.0, Gamma=0.0, gamma=0.0) -> dict:
    return {"omega_e": omega_e, "delta": delta, "Omega": np.abs(Omega), "g": g,
            "Gamma": Gamma, "gamma": gamma}


def band_energy(k, t: float, omega: float):
    return omega - 2.0 * t * np.cos(k)


def potential_parts(E, nd: dict):
    """Numerator, denominator and denominator scale of V(E) = num / den.

    Node parameters may be arrays (one value per grid point).  With
    Omega = 0 the (E - delta) factor cancels and V = g^2 / (E - omega_e).
    """
    E = np.asarray(E, dtype=complex)
    g2 = np.square(nd["g"])
    we = nd["omega_e"] - 1j * np.asarray(nd["Gamma"])
    dm = nd["delta"] - 1j * np.asarray(nd["gamma"])
    two_level = np.asarray(nd["Omega"]) == 0.0
    num = np.where(two_level, g2, g2 * (E - dm))
    den = np.where(two_level, E - we, (E - we) * (E - dm) - np.square(nd["Omega"]))
    scale = np.where(two_level, np.sqrt(g2), g2)
    return np.broadcast_arrays(num, den, scale)


def potential(E, nd: dict):
    """V(E) and a mask of the energies where its denominator vanishes."""
    num, den, scale = potential_parts(E, nd)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = num / den
    return v, np.abs(den) <= SINGULAR_REL * scale


def one_node(k, t: float, omega: float, nd: dict):
    """(r, s, singular) for one node at the origin."""
    k = np.asarray(k, dtype=float)
    v, singular = potential(band_energy(k, t, omega), nd)
    r = v / (2j * t * np.sin(k) - v)
    r = np.where(singular, -1.0 + 0.0j, r)
    s = np.where(singular, 0.0j, 1.0 + r)
    return r, s, singular


def two_nodes(k, t: float, omega: float, nd1: dict, nd2: dict, D: int):
    """(r, s, singular) for nodes at sites 0 and D.

    A diverging first node reflects with r = -1; a diverging second node is
    a perfect mirror at site D, which fixes r through the round-trip phase.
    """
    k = np.asarray(k, dtype=float)
    E = band_energy(k, t, omega)
    v1, sing1 = potential(E, nd1)
    v2, sing2 = potential(E, nd2)
    b = 2j * t * np.sin(k)
    p = np.exp(2j * k * D)
    den = (b - v1) * (b - v2) - p * v1 * v2
    r = (b * (v1 + p * v2) - v1 * v2 * (1.0 - p)) / den
    s = b * b / den
    mirror = (v1 * (1.0 - p) - p * b) / (b - v1 * (1.0 - p))
    r = np.where(sing2, mirror, r)
    s = np.where(sing2, 0.0j, s)
    r = np.where(sing1, -1.0 + 0.0j, r)
    s = np.where(sing1, 0.0j, s)
    return r, s, sing1 | sing2


def limit_lineshape(k, regime: str, t: float, omega: float, nd: dict):
    """(r, s, singular) of the linearised (high) or quadratic (low) band."""
    k = np.asarray(k, dtype=float)
    if regime == "high":
        E = omega - t * math.pi + 2.0 * t * k
        transport = 2j * t * np.ones_like(k)
    else:
        E = omega - 2.0 * t + t * k * k
        transport = 2j * t * k
    v, singular = potential(E, nd)
    r = np.where(singular, -1.0 + 0.0j, v / (transport - v))
    s = np.where(singular, 0.0j, 1.0 + r)
    return r, s, singular


# --- finite lattice --------------------------------------------------------

def hamiltonian(n_sites: int, placements, t: float, omega: float) -> np.ndarray:
    """Single-excitation Hamiltonian: sites, then (excited, metastable) per node."""
    dim = n_sites + 2 * len(placements)
    H = np.diag(np.full(dim, 0.0j))
    H[:n_sites, :n_sites] = (
        omega * np.eye(n_sites) - t * (np.eye(n_sites, k=1) + np.eye(n_sites, k=-1))
    )
    for m, (site, nd) in enumerate(placements):
        e, a = n_sites + 2 * m, n_sites + 2 * m + 1
        H[e, e] = complex(nd["omega_e"], -nd["Gamma"])
        H[a, a] = complex(nd["delta"], -nd["gamma"])
        H[site, e] = H[e, site] = nd["g"]
        H[e, a] = H[a, e] = nd["Omega"]
    return H


def gaussian_packet(n_sites: int, dim: int, k0: float, sigma: float, x0: float) -> np.ndarray:
    j = np.arange(n_sites)
    psi = np.exp(-((j - x0) ** 2) / (4.0 * sigma * sigma) + 1j * k0 * j)
    vec = np.zeros(dim, dtype=complex)
    vec[:n_sites] = psi / np.linalg.norm(psi)
    return vec


def exact_scattering(n_sites: int, placements, t: float, omega: float,
                     k0: float, sigma: float, x0: float, tmax: float) -> tuple[float, float]:
    """Probability left of the first node and right of the last at ``tmax``.

    Propagates exactly in the eigenbasis of H: eigh when H is Hermitian,
    otherwise eig with psi(t) = V exp(-i L t) V^-1 psi0.
    """
    H = hamiltonian(n_sites, placements, t, omega)
    psi0 = gaussian_packet(n_sites, H.shape[0], k0, sigma, x0)
    if np.allclose(H, H.conj().T, rtol=0.0, atol=0.0):
        w, V = np.linalg.eigh(H)
        psi = V @ (np.exp(-1j * w * tmax) * (V.conj().T @ psi0))
    else:
        w, V = np.linalg.eig(H)
        psi = V @ (np.exp(-1j * w * tmax) * np.linalg.solve(V, psi0))
    prob = np.abs(psi[:n_sites]) ** 2
    first, last = placements[0][0], placements[-1][0]
    return float(prob[:first].sum()), float(prob[last + 1:].sum())


# --- trapped modes as polynomial roots -------------------------------------

class _Laurent:
    """Polynomial in z times z**low, with complex coefficients."""

    def __init__(self, coeffs, low: int = 0):
        self.c = np.asarray(coeffs, dtype=complex)
        self.low = low

    def __add__(self, other: "_Laurent") -> "_Laurent":
        low = min(self.low, other.low)
        high = max(self.low + len(self.c), other.low + len(other.c))
        out = np.zeros(high - low, dtype=complex)
        out[self.low - low:self.low - low + len(self.c)] += self.c
        out[other.low - low:other.low - low + len(other.c)] += other.c
        return _Laurent(out, low)

    def __mul__(self, other) -> "_Laurent":
        if isinstance(other, _Laurent):
            return _Laurent(npoly.polymul(self.c, other.c), self.low + other.low)
        return _Laurent(self.c * other, self.low)

    def __sub__(self, other: "_Laurent") -> "_Laurent":
        return self + other * -1.0


def _mirror_factors(nd: dict, E: _Laurent, b: _Laurent) -> tuple[_Laurent, _Laurent]:
    """(b * den - num, num) for one node, as Laurent polynomials in z."""
    g2 = nd["g"] ** 2
    we = _Laurent([complex(nd["omega_e"], -nd["Gamma"])])
    if nd["Omega"] == 0.0:
        num = _Laurent([g2])
        den = E - we
    else:
        e_dm = E - _Laurent([complex(nd["delta"], -nd["gamma"])])
        num = e_dm * g2
        den = (E - we) * e_dm - _Laurent([nd["Omega"] ** 2])
    return b * den - num, num


def trapped_mode_polynomial(nd1: dict, nd2: dict, D: int, t: float, omega: float) -> np.ndarray:
    """Coefficients (lowest first) of z^L [(b-V1)(b-V2) - z^2D V1 V2] x dens.

    With z = e^{ik}: b = 2it sin k = t (z - 1/z) and E = omega - t (z + 1/z).
    Both potential denominators are multiplied through, so the result is a
    polynomial of degree at most 2D + 8.
    """
    E = _Laurent([-t, omega, -t], -1)
    b = _Laurent([-t, 0.0, t], -1)
    f1, n1 = _mirror_factors(nd1, E, b)
    f2, n2 = _mirror_factors(nd2, E, b)
    full = f1 * f2 - _Laurent([1.0], 2 * D) * (n1 * n2)
    return np.trim_zeros(full.c, "b")


def trapped_mode_roots(nd1: dict, nd2: dict, D: int, t: float, omega: float) -> np.ndarray:
    """Every root k of the trapped-mode condition, from the companion matrix.

    The band edges z = +-1 are structural roots for every parameter set;
    they are divided out before the eigenvalue solve.  Each root is then
    polished by two Newton steps on the polynomial itself.
    """
    c = trapped_mode_polynomial(nd1, nd2, D, t, omega)
    c = c[np.argmax(np.abs(c) > 0):]
    size = np.sum(np.abs(c))
    for edge in (1.0, -1.0):
        while len(c) > 1:
            quotient, remainder = npoly.polydiv(c, np.array([-edge, 1.0]))
            if abs(remainder[0]) > 1e-9 * size:
                break
            c = quotient
    z = npoly.polyroots(c)
    dc = npoly.polyder(c)
    for _ in range(2):
        z = z - npoly.polyval(z, c) / npoly.polyval(z, dc)
    return -1j * np.log(z)


def window_roots(roots: np.ndarray, re_window, im_window, margin: float) -> np.ndarray:
    """Roots strictly inside the search window; raises if one sits on its edge."""
    def inside(pad: float) -> np.ndarray:
        return (
            (roots.real > re_window[0] + margin - pad)
            & (roots.real < re_window[1] - margin + pad)
            & (roots.imag > im_window[0] - pad)
            & (roots.imag < im_window[1] + pad)
        )

    if np.any(inside(1e-9) != inside(-1e-9)):
        raise ValueError("a trapped-mode root lies on the window edge; choose other inputs")
    return np.sort_complex(roots[inside(0.0)])
