"""Brute-force finite-lattice checks of the closed-form scattering theory.

Everything here works on the single-excitation sector of an N-site chain
with embedded nodes: one basis state per cavity plus an excited and a
metastable amplitude per node.  H is written once, as a band: with each
node's two levels right after its site, it has three diagonals on either
side of the main one for any number of nodes.  The stationary solver
takes the free chain beyond either end as a lead whose plane waves the
end sites' rows read, so a node may sit on any site.  It keeps the band
and reduces it PANEL columns at a time by QR, in O(N PANEL^2) time; a
system shorter than a panel is one dense solve of its band-order block.
The wavepacket propagator stores the same band shifted, scaled and
diagonal-major, one row per diagonal, and applies it once per Chebyshev
term as one multiply and one sum over the 7 rows; with the eigenmode
decomposition it provides dynamic and spectral cross-checks.

The solver fixes the package-wide direction convention: the incident wave
is e^{+ikx} moving toward +x, with x measured from the first node.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientChainError,
    IntegratorDriftError,
    OracleResidualError,
    PlacementError,
)
from .model import AtomParams, LatticeParams, _require_finite, dispersion_energy

#: Decay-free probability budget the propagator may lose over one run.
DRIFT_TOL = 1e-8

#: Probability allowed to touch the chain ends before the run is rejected.
EDGE_TOL = 1e-7

#: Largest phase (radius + decay) * dt one Chebyshev step spans; bounds the
#: length and the growth of the series when H is non-Hermitian.
MAX_STEP_PHASE = 10.0

#: Gauss-Legendre nodes per step for the flux into absorbing layers.
FLUX_NODES = 16

#: Largest relative residual |M x - b| / |b| a stationary solve may leave.
RESIDUAL_TOL = 1e-12

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChainSpec:
    """Finite chain with nodes at fixed sites.

    ``placements`` maps site indices to node parameters; a chain has at
    least one site and a node may sit on any of them, 0 to n_sites - 1.
    ``kappa`` adds a uniform -i kappa/2 cavity leakage to every site (off by
    default).  Lattice and node fields may be arrays (a batch of points) for
    ``build_hamiltonian`` and ``solve_stationary``.
    """

    n_sites: int
    placements: tuple[tuple[int, AtomParams], ...]
    lat: LatticeParams
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise PlacementError(f"need at least 1 site, got {self.n_sites}")
        if _require_finite("kappa", self.kappa) < 0:
            raise PlacementError("cavity leakage kappa must be nonnegative")
        sites = [site for site, _ in self.placements]
        if len(set(sites)) != len(sites):
            raise PlacementError(f"duplicate node sites in {sites}")
        if sorted(sites) != sites:
            raise PlacementError("placements must be sorted by site index")
        for site in sites:
            if not 0 <= site <= self.n_sites - 1:
                raise PlacementError(f"site {site} outside [0, {self.n_sites - 1}]")

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(site for site, _ in self.placements)

    @property
    def dimension(self) -> int:
        """Sites plus two internal amplitudes per node."""
        return self.n_sites + 2 * len(self.placements)

    @property
    def origin(self) -> int:
        """Coordinate origin: the first node, or the chain centre without nodes."""
        return self.sites[0] if self.placements else self.n_sites // 2

    @property
    def is_decay_free(self) -> bool:
        return self.kappa == 0.0 and all(a.is_decay_free for _, a in self.placements)


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian probe packet: exp(-(j - x0)^2 / (4 sigma^2) + i k0 j).

    The packet runs from t = 0 to ``tmax``; the propagator is exact up to
    rounding and picks its own steps, so there is no step-size setting.
    ``absorber_width > 0`` enables smooth complex absorbing layers at both
    ends; absorbed probability is then reported separately.
    """

    k0: float
    sigma: float
    x0: int
    tmax: float
    absorber_width: int = 0
    absorber_strength: float = 0.2

    def __post_init__(self) -> None:
        for name in ("k0", "sigma", "tmax", "absorber_strength"):
            _require_finite(name, getattr(self, name))
        if self.sigma < 4:
            raise ValueError(f"packet width sigma must be >= 4 sites, got {self.sigma}")
        if not 0.0 < self.k0 < math.pi:
            raise ValueError(f"carrier momentum must lie in (0, pi), got {self.k0}")
        if self.tmax <= 0:
            raise ValueError("tmax must be positive")
        if self.absorber_width < 0 or self.absorber_strength < 0:
            raise ValueError("absorber_width and absorber_strength must be >= 0, got "
                             f"{self.absorber_width} and {self.absorber_strength}")


@dataclass(frozen=True)
class EigenMode:
    """One eigenpair with its localisation metrics."""

    energy: complex
    vector: np.ndarray
    ipr: float
    interior_weight: float


@dataclass(frozen=True)
class WavepacketResult:
    """Scattering probabilities measured after the packet has cleared.

    ``h_applications`` is the work the run did: the number of products of H
    with a vector, one per Chebyshev term past the first in every step.
    """

    R_meas: float
    T_meas: float
    norm_history: np.ndarray
    times: np.ndarray
    absorbed_left: float = 0.0
    absorbed_right: float = 0.0
    drift: float = 0.0
    h_applications: int = 0


def _interleaved_order(spec: ChainSpec) -> np.ndarray:
    """Index in ``build_hamiltonian``'s basis of each unknown of the interleaved one.

    The interleaved basis puts each node's two levels right after its site,
    u_0, ..., u_p, e_p, a_p, u_{p+1}, ..., so H is a band with three
    diagonals on either side of the main one for any number of nodes.
    """
    levels = np.repeat(spec.sites, 2) + np.tile((0.25, 0.5), len(spec.sites))
    return np.argsort(np.concatenate((np.arange(spec.n_sites), levels)), kind="stable")


def _hamiltonian_band(spec: ChainSpec) -> np.ndarray:
    """H in the interleaved basis as its 7 diagonals: ``H[..., i, 3 + d]`` is H[i, i + d].

    The one place H's entries are written.  Decay rates appear as
    -i Gamma / -i gamma on the node diagonals and cavity leakage as -i kappa/2
    on every site diagonal; array fields broadcast to a shape ``batch``.
    """
    params = (spec.lat, *(atom for _, atom in spec.placements))
    batch = np.broadcast_shapes(*(np.shape(v) for p in params for v in vars(p).values()))
    H = np.zeros((*batch, spec.dimension, 7), dtype=np.complex128)
    # The bare chain on every row, then each node's rows and its neighbours' mended.
    H[..., :, 3] = np.expand_dims(spec.lat.omega - 0.5j * spec.kappa, -1)
    H[..., :-1, 4] = H[..., 1:, 2] = np.expand_dims(-spec.lat.t, -1)
    for m, (site, atom) in enumerate(spec.placements):
        u = site + 2 * m
        e, a = u + 1, u + 2
        if site < spec.n_sites - 1:  # the hop to the next site spans the two levels
            H[..., u, 6] = H[..., u + 3, 0] = -spec.lat.t
            H[..., a, 4] = H[..., u + 3, 2] = 0.0
        # Real and imaginary parts set apart, as complex(omega_e, -Gamma) does,
        # so a zero decay rate keeps its sign.
        H[..., e, 3].real, H[..., e, 3].imag = atom.omega_e, -atom.Gamma
        H[..., a, 3].real, H[..., a, 3].imag = atom.delta, -atom.gamma
        H[..., u, 4] = H[..., e, 2] = atom.g
        H[..., e, 4] = H[..., a, 2] = atom.Omega
    return H


def _expand(band: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dense matrices holding ``band[..., i, 3 + d]`` at (rows[i], cols[i + d]), zero elsewhere."""
    *batch, size, _ = band.shape
    i = np.arange(size)[:, None]
    i, c = np.broadcast_arrays(i, i + np.arange(-3, 4))
    inside = (c >= 0) & (c < size)
    dense = np.zeros((*batch, size * size), dtype=np.complex128)
    dense[..., rows[i[inside]] * size + cols[c[inside]]] = band[..., inside]
    return dense.reshape(*batch, size, size)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Single-excitation Hamiltonian; Hermitian exactly when decay-free.

    Basis order: the N sites, then (excited, metastable) per node.  This is
    the dense expansion of ``_hamiltonian_band``.  Array fields broadcast to
    a shape ``batch`` and give the ``(*batch, dim, dim)`` stack of their H.
    """
    order = _interleaved_order(spec)
    return _expand(_hamiltonian_band(spec), order, order)


def _stationary_band(spec: ChainSpec, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stationary system M x = b, M as 7 diagonals in the order r, u_0, ..., s.

    Between r and s the unknowns are in the interleaved basis, and row i of
    M is the H - E row of unknown i.  The rows of r and s pin the end sites
    to the plane-wave form, u_0 - e^{ik x0} r = e^{-ik x0} and
    u_{n-1} - e^{ik(n-1-x0)} s = 0, with x0 = ``spec.origin``; the rows of
    u_0 and u_{n-1} read their outer neighbours from the leads,
    u_{-1} = e^{-ik(1+x0)} + e^{ik(1+x0)} r and u_n = e^{ik(n-x0)} s.
    """
    E = np.expand_dims(dispersion_energy(k, spec.lat), -1)
    H = _hamiltonian_band(spec)
    batch = np.broadcast_shapes(H.shape[:-2], k.shape)
    size = spec.dimension + 2
    band = np.zeros((*batch, size, 7), dtype=np.complex128)
    band[..., 1:-1, :] = H
    band[..., 1:-1, 3] -= E
    b = np.zeros((*batch, size), dtype=np.complex128)
    n, x0, t = spec.n_sites, spec.origin, spec.lat.t
    last = spec.dimension - 2 * (n - 1 in spec.sites)  # the row of u_{n-1}
    band[..., 0, 3], band[..., 0, 4] = -np.exp(1j * k * x0), 1.0
    b[..., 0] = np.exp(-1j * k * x0)
    band[..., 1, 2] = -t * np.exp(1j * k * (1 + x0))
    b[..., 1] = t * np.exp(-1j * k * (1 + x0))
    band[..., last, 2 + size - last] = -t * np.exp(1j * k * (n - x0))
    band[..., -1, 4 + last - size], band[..., -1, 3] = 1.0, -np.exp(1j * k * (n - 1 - x0))
    return band, b


#: Columns one QR reduces in a long stationary system.  One chain solves about
#: equally fast at widths 16 to 48 (fewer panels against more work in each);
#: 48 also leaves every system of the bundled figures (at most 37 unknowns,
#: fig6b at D = 30) below PANEL + 6 unknowns, one dense solve with no panel.
PANEL = 48


def _window(band: np.ndarray, b: np.ndarray, start: int, size: int, carry) -> np.ndarray:
    """Rows start..start+size-1 of M x = b as a dense ``(size, size + 7)`` block.

    Column c holds unknown start - 3 + c and the last column b.  ``carry``,
    the three rows the previous panel left, replaces the first three rows.
    """
    *batch, _, _ = band.shape
    W = np.zeros((*batch, size, size + 7), dtype=np.complex128)
    *outer, row, col = W.strides  # one view of W's diagonals: band column d at (i, i + d)
    diagonals = np.lib.stride_tricks.as_strided(W, (*batch, size, 7), (*outer, row + col, col))
    diagonals[...] = band[..., start : start + size, :]
    W[..., -1] = b[..., start : start + size]
    if carry is not None:
        W[..., :3, 3:9], W[..., :3, -1] = carry[..., :6], carry[..., 6]
    return W


def _solve_panels(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x of the banded M x = b, reduced PANEL columns at a time by QR.

    The rows c0..c0+PANEL+2 are the only ones with entries in the columns
    c0..c0+PANEL-1 still to be reduced, and they reach at most six columns
    further.  One QR of that block with its six trailing columns and b
    leaves PANEL rows of R and three reduced rows that join the next panel.
    The trailing square block (all of a system of fewer than PANEL + 6
    unknowns) is one dense solve; back-substitution then runs panel by
    panel.  QR is backward-stable without any pivot choice.
    """
    size = band.shape[-2]
    panels = max(0, (size - 6) // PANEL)
    reduced, carry = [], None
    for c0 in range(0, panels * PANEL, PANEL):
        R = np.linalg.qr(_window(band, b, c0, PANEL + 3, carry)[..., 3:], mode="r")
        reduced.append(R[..., :PANEL, :])
        carry = R[..., PANEL:, PANEL:]
    x = np.empty(b.shape, dtype=np.complex128)
    tail = size - panels * PANEL
    W = _window(band, b, panels * PANEL, tail, carry)
    x[..., panels * PANEL :] = np.linalg.solve(W[..., 3 : 3 + tail], W[..., -1:])[..., 0]
    for c0 in range(panels * PANEL - PANEL, -1, -PANEL):
        R = reduced.pop()
        y = R[..., -1] - (R[..., PANEL:-1] @ x[..., c0 + PANEL : c0 + PANEL + 6, None])[..., 0]
        x[..., c0 : c0 + PANEL] = np.linalg.solve(R[..., :PANEL], y[..., None])[..., 0]
    return x


def solve_stationary(spec: ChainSpec, k):
    """Solve the full stationary scattering system for (r, s) at momentum k.

    The system is (H - E) u = 0 on the bulk sites and the node levels, with
    H from ``_hamiltonian_band``, so the node amplitudes stay in it (nothing
    is eliminated).  The end rows read the plane waves of the free leads,
    exact on the free chain, so r and s do not depend on how many free sites
    the chain has beyond conditioning.

    In the order r, u_0, ..., u_p, e_p, a_p, ..., u_{n-1}, s the system is a
    band with three diagonals on either side (``_stationary_band``), solved
    panel by panel (``_solve_panels``) in O(N PANEL^2) time and O(N PANEL)
    memory; no dense N x N array is formed.  A system of fewer than
    PANEL + 6 unknowns is one ``np.linalg.solve`` of its dense band-order
    block.

    Array fields of ``spec`` and an array ``k`` broadcast to ``batch``: one
    call solves the whole ``(*batch, dim + 2)`` stack and gives r and s of
    shape ``batch``; plain numbers give two Python complex numbers.  Raises
    OracleResidualError when |M x - b| / |b| exceeds RESIDUAL_TOL.
    """
    k = np.asarray(k, dtype=float)
    band, b = _stationary_band(spec, k)
    size = band.shape[-2]
    x = _solve_panels(band, b)
    padded = np.zeros((*x.shape[:-1], size + 6), dtype=np.complex128)
    padded[..., 3:-3] = x
    window = np.lib.stride_tricks.sliding_window_view(padded, 7, axis=-1)
    Mx = np.einsum("...ij,...ij->...i", band, window)
    residual = np.linalg.norm(Mx - b, axis=-1) / np.linalg.norm(b, axis=-1)
    worst = float(residual.max())
    _log.debug("%d lattice system(s) of size %d: largest relative residual %.3e",
               residual.size, size, worst)
    if not worst <= RESIDUAL_TOL:
        raise OracleResidualError(
            f"lattice solve residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} on {spec.n_sites} sites"
        )
    r, s = x[..., 0], x[..., -1]
    batch = x.shape[:-1]
    return (r, s) if batch else (complex(r), complex(s))


def _mirror(spec: ChainSpec) -> np.ndarray:
    """Index in ``build_hamiltonian``'s basis of each unknown's mirror image.

    Site j maps to N - 1 - j, and node m's two levels to node M - 1 - m's.
    """
    M = len(spec.placements)
    levels = spec.n_sites + np.arange(2 * M).reshape(M, 2)[::-1].ravel()
    return np.concatenate((np.arange(spec.n_sites)[::-1], levels))


def _mirror_blocks(A: np.ndarray, mirror: np.ndarray) -> list[tuple[np.ndarray, tuple, tuple]]:
    """A's even and odd parity blocks when it is mirror-symmetric, else A alone.

    ``mirror`` is an involution of A's basis; when A equals
    A[mirror][:, mirror] exactly, the basis (e_i + e_mirror(i)) / c,
    (e_i - e_mirror(i)) / c of one representative i per pair (c = sqrt 2) or
    fixed point (c = 2, even only) reduces A to its even and odd blocks,
    2 (A[R, R] +- A[R, mirror[R]]) / (c c^T), each about half A's size.  A
    negative entry of ``mirror``, an image outside A's basis, or any
    difference between A and its image leaves A as its only block.
    Each block comes as ``(block, columns, weights)``, tuples of one or two
    index and weight arrays: entry i of a block vector w expands to
    w[i] weights[j][i] at entry columns[j][i] of A's basis, for every j (on
    the mirror plane the two name the same entry and agree).
    """
    index = np.arange(len(A))
    if mirror.min() < 0 or not (A == A[mirror[:, None], mirror]).all():
        return [(A, (index,), (np.ones(len(A)),))]
    R = np.flatnonzero(index <= mirror)
    image, rows = mirror[R], A[R]
    same, swapped = rows[:, R], rows[:, image]
    plane = image == R
    pairs = np.flatnonzero(~plane)  # the odd block's entries of R
    c2 = np.where(plane, 4.0, 2.0)
    c = np.sqrt(c2)
    # c c^T as sqrt(c^2 c^2^T) makes 2 / (c c^T) exactly 1 between pairs, 1/2 on the plane.
    even = 2.0 * (same + swapped) / np.sqrt(np.outer(c2, c2))
    odd = (same - swapped)[pairs[:, None], pairs]
    return [(even, (R, image), (0.5 * c, 0.5 * c)),
            (odd, (R[pairs], image[pairs]), (0.5 * c[pairs], -0.5 * c[pairs]))]


def eigenmodes(spec: ChainSpec) -> list[EigenMode]:
    """Eigen-decomposition with per-mode localisation metrics.

    ``interior_weight`` is the probability on the sites strictly between the
    first and last node (zero when fewer than two nodes are placed); ``ipr``
    is sum |u|^4 of the normalised mode.  Modes are sorted by Re(energy),
    stably.  A chain whose H equals its mirror image (``_mirror``) is solved
    as the even and odd blocks of ``_mirror_blocks``, each about half the
    size; every other chain as one problem.  The modes' vectors are the rows
    of one ``(dim, dim)`` array, each expanded from its block once, straight
    into its sorted row.
    """
    H = build_hamiltonian(spec)
    decay_free = spec.is_decay_free
    blocks = _mirror_blocks(H.real if decay_free else H, _mirror(spec))
    _log.debug("eigenmodes of %d unknowns: blocks of %s", spec.dimension,
               [len(block) for block, _, _ in blocks])
    solve = np.linalg.eigh if decay_free else np.linalg.eig
    solved = [(*solve(block), columns, weights) for block, columns, weights in blocks]
    del H, blocks  # freed before the vectors are expanded
    values = np.concatenate([v for v, _, _, _ in solved]).astype(np.complex128)
    order = np.argsort(values.real, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    vectors = np.zeros((spec.dimension, spec.dimension), dtype=np.complex128)
    start = 0
    for _, W, columns, weights in solved:
        rows = rank[start : start + W.shape[1], None]
        for column, weight in zip(columns, weights):
            vectors[rows, column] = W.T * weight
        start += W.shape[1]
    # Row by row, the sums np.linalg.norm takes of one vector: a chain solved as one block keeps its bits.
    vectors /= np.sqrt(np.vecdot(vectors.real, vectors.real)
                       + np.vecdot(vectors.imag, vectors.imag))[:, None]
    prob = np.abs(vectors)
    prob *= prob
    sites = spec.sites
    interior = prob[:, sites[0] + 1 : sites[-1]] if len(sites) >= 2 else prob[:, :0]
    interior = interior.sum(axis=1)
    prob *= prob
    return [
        EigenMode(energy, vector, ipr, weight)
        for energy, vector, ipr, weight in zip(
            values[order].tolist(), vectors, prob.sum(axis=1).tolist(), interior.tolist())
    ]


def _gaussian_packet(spec: ChainSpec, wp: WavepacketSpec) -> np.ndarray:
    """The normalised packet on the N sites."""
    j = np.arange(spec.n_sites)
    envelope = np.exp(-((j - wp.x0) ** 2) / (4.0 * wp.sigma**2))
    psi = envelope * np.exp(1j * wp.k0 * j)
    return psi / np.linalg.norm(psi)


def _spectral_interval(spec: ChainSpec) -> tuple[float, float]:
    """Gershgorin bounds on the real parts of the eigenvalues of H, from the rows of its band.

    Decay, leakage and absorbers only move eigenvalues below the real axis,
    so the interval depends on the real diagonals and the couplings alone.
    """
    H = _hamiltonian_band(spec)
    coupling = np.abs(H)
    coupling[:, 3] = 0.0
    reach = coupling.sum(axis=1)
    return float(np.min(H[:, 3].real - reach)), float(np.max(H[:, 3].real + reach))


def _site_rows(spec: ChainSpec) -> np.ndarray:
    """Position of each of the N sites in the interleaved basis, where they keep their order."""
    return np.flatnonzero(_interleaved_order(spec) < spec.n_sites)


def _propagator_band(
    spec: ChainSpec, cap: np.ndarray, centre: complex, radius: float
) -> np.ndarray:
    """(H - centre - i cap) / radius diagonal-major: row ``3 + d`` holds H[i, i + d].

    The ``(7, dim)`` transpose of ``_hamiltonian_band``, so one diagonal is
    one contiguous row.  ``cap`` is the absorbing potential on the N sites.
    """
    band = np.ascontiguousarray(_hamiltonian_band(spec).T)
    band[3] -= centre
    band[3, _site_rows(spec)] -= 1j * cap
    band /= radius
    return band


def _bessel_series(x: float, rho: float = 1.0) -> np.ndarray:
    """J_0(x), J_1(x), ... by Miller's recurrence, cut past max(x, 1) at |J_n| rho^n < 1e-17."""
    top = int(3.0 * x * rho) + 60
    j = np.zeros(top + 2)
    j[top] = 1.0
    for n in range(top, 0, -1):
        j[n - 1] = 2.0 * n / x * j[n] - j[n + 1]
        if abs(j[n - 1]) > 1e200:
            j[n - 1 :] *= 1e-200
    j /= j[0] + 2.0 * np.sum(j[2::2])
    order = np.arange(top + 2)
    tail = np.nonzero((order > max(x, 1.0)) & (np.abs(j) * rho**order < 1e-17))[0]
    return j[: tail[0]]


def _chebyshev_coefficients(
    centre: complex, radius: float, rho: float, tau: float, size: int | None = None
) -> np.ndarray:
    """Coefficients of exp(-iH tau) in T_n((H - centre) / radius), zero-padded to ``size``.

    a_n = (2 - delta_n0) (-i)^n J_n(radius tau) exp(-i centre tau), after
    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984); T_n grows like rho^n.
    """
    bessel = _bessel_series(radius * tau, rho)[:size]
    coeffs = np.zeros(size or len(bessel), dtype=np.complex128)
    coeffs[: len(bessel)] = 2.0 * (-1j) ** np.arange(len(bessel)) * bessel
    coeffs[0] /= 2.0
    return coeffs * np.exp(-1j * centre * tau)


def _clearance(sigma: float) -> int:
    """Sites a packet of width ``sigma`` keeps clear of a node or a chain end."""
    return int(math.ceil(6.0 * _require_finite("sigma", sigma))) + 5


def design_scattering_run(
    atoms: tuple[AtomParams, ...],
    lat: LatticeParams,
    k0: float,
    sigma: float,
    *,
    D: int = 1,
) -> tuple[ChainSpec, WavepacketSpec]:
    """Build a chain just large enough for one clean scattering event.

    Places one node (or two, ``D`` sites apart), sizes the chain so the
    incoming and both outgoing packets stay 6 sigma clear of the ends, and
    returns the matching packet specification from design_wavepacket (a
    start site and a run time; there is no step size to choose).
    """
    if len(atoms) not in (1, 2):
        raise ValueError("design_scattering_run takes one or two nodes")
    c = _clearance(sigma)
    first = 3 * c + 5
    last = first + (D if len(atoms) == 2 else 0)
    spec = ChainSpec(last + 2 * c + 1, tuple(zip((first, last), atoms)), lat)
    return spec, design_wavepacket(spec, k0, sigma)


def design_wavepacket(spec: ChainSpec, k0: float, sigma: float) -> WavepacketSpec:
    """Place a packet and pick a propagation time from the chain geometry.

    The packet starts 6 sigma plus a margin before the first node and the
    run ends with both outgoing packets at least 6 sigma clear of the ends.
    Only x0 and tmax are chosen here: propagate_wavepacket takes its steps
    from the spectral interval of H.  Raises InsufficientChainError when
    the chain cannot host that layout.
    """
    if not spec.placements:
        raise InsufficientChainError("design_wavepacket needs at least one node")
    first, last = spec.sites[0], spec.sites[-1]
    c = _clearance(sigma)
    x0 = first - c - 5
    if x0 - c < c - 5:
        raise InsufficientChainError(
            f"chain too short on the left: packet at {x0} cannot clear the end"
        )
    if last + c > spec.n_sites - 1 - c + 5:
        raise InsufficientChainError(
            f"chain too short on the right of site {last} for the outgoing packet"
        )
    tmax = (last - x0 + c) / (2.0 * spec.lat.t * math.sin(k0))
    return WavepacketSpec(k0=k0, sigma=sigma, x0=x0, tmax=tmax)


def check_packet_layout(spec: ChainSpec, wp: WavepacketSpec) -> None:
    """Raise InsufficientChainError unless the packet fits the chain.

    The packet centre must sit 5 sigma clear of both ends and of the first
    node, and the two absorbing layers must not overlap.
    """
    if wp.x0 - 5.0 * wp.sigma < 2:
        raise InsufficientChainError(
            f"packet centre {wp.x0} is closer than 5 sigma to the left end"
        )
    if wp.x0 + 5.0 * wp.sigma > spec.n_sites - 3:
        raise InsufficientChainError(
            f"packet centre {wp.x0} is closer than 5 sigma to the right end"
        )
    if spec.placements and not wp.x0 + 5.0 * wp.sigma < spec.sites[0]:
        raise InsufficientChainError(
            f"packet centre {wp.x0} is closer than 5 sigma to the first node"
        )
    if 2 * wp.absorber_width > spec.n_sites:
        raise InsufficientChainError(
            f"absorbing layers of width {wp.absorber_width} overlap on {spec.n_sites} sites"
        )


def propagate_wavepacket(spec: ChainSpec, wp: WavepacketSpec) -> WavepacketResult:
    """Propagate the packet through the chain and measure R and T.

    Each step applies a Chebyshev expansion of exp(-iH dt) on the Gershgorin
    interval of H, accurate to rounding (Tal-Ezer & Kosloff, J. Chem. Phys.
    81, 3967 (1984)); ``times``/``norm_history`` hold one sample per step
    end, and the guards below run at every step end.  The state lives in the
    interleaved basis, and each term applies H as one ``np.multiply`` of the
    ``(7, dim)`` diagonal-major band of ``_propagator_band`` with a fixed
    ``(7, dim)`` window on the previous term and one ``np.add.reduce`` over
    the 7 rows, O(dim) work; ``h_applications`` counts these products.
    R_meas is the probability left of the first node after the run,
    T_meas the probability right of the last node, each augmented by the
    probability its absorbing layer removed when absorbers are enabled.
    Raises IntegratorDriftError when the norm of a decay-free run drifts, or
    a dissipative step gains, more than DRIFT_TOL, and InsufficientChainError
    when check_packet_layout rejects the packet or probability reaches the
    chain ends with absorbers off.
    """
    check_packet_layout(spec, wp)

    n = spec.n_sites
    cap = np.zeros(n)
    if wp.absorber_width > 0:
        w = wp.absorber_width
        ramp = (np.arange(w, 0, -1) / w) ** 2
        cap[:w] = wp.absorber_strength * ramp
        cap[-w:] = wp.absorber_strength * ramp[::-1]
    # Decay and absorbers sit on the diagonal, so the numerical range of H lies
    # in the box [lo, hi] x [-decay, 0]; the series is centred on that box and
    # cut on rho, the smallest Bernstein ellipse around the scaled box.
    rates = [0.5 * spec.kappa + cap.max()] + [max(a.Gamma, a.gamma) for _, a in spec.placements]
    decay = float(max(rates))
    lo, hi = _spectral_interval(spec)
    centre, radius = 0.5 * (hi + lo) - 0.5j * decay, 0.5 * (hi - lo)
    b = 0.5 * decay / radius
    sinh2 = 0.5 * b * (b + math.sqrt(b * b + 4.0))
    rho = math.sqrt(sinh2) + math.sqrt(1.0 + sinh2)
    n_steps = max(1, math.ceil((radius + decay) * wp.tmax / MAX_STEP_PHASE))
    dt = wp.tmax / n_steps
    coeffs = _chebyshev_coefficients(centre, radius, rho, dt)

    # H acts in the interleaved basis through its diagonal-major band.  Row m
    # of ``padded`` holds T_m y between three zeros on either side, so
    # ``windows[m][3 + d, i]`` is entry i + d of T_m y: one multiply lines up
    # every unknown's neighbours with the band, and a sum over the 7 rows of
    # ``work`` is H T_m y.  Every view is built here, once per run.
    band = _propagator_band(spec, cap, centre, radius)
    band2 = 2.0 * band
    sites = _site_rows(spec)
    dim = spec.dimension
    padded = np.zeros((len(coeffs), dim + 6), dtype=np.complex128)
    vectors = padded[:, 3:-3]
    windows = np.lib.stride_tricks.sliding_window_view(padded, dim, axis=1)
    work = np.empty((7, dim), dtype=np.complex128)
    # T_1 y = H y, T_m y = 2 H T_{m-1} y - T_{m-2} y, all on the scaled H.
    products = [(band, windows[0], vectors[1], None)] + [
        (band2, windows[m - 1], vectors[m], vectors[m - 2]) for m in range(2, len(coeffs))]

    # The absorbed flux is integrated by Gauss-Legendre nodes inside each
    # step, evaluated from the step's own Chebyshev vectors on the layers.
    absorbing = np.nonzero(cap)[0]
    layer_rows = sites[absorbing]
    if absorbing.size:
        nodes, weights = np.polynomial.legendre.leggauss(FLUX_NODES)
        taus = 0.5 * dt * (nodes + 1.0)
        node_coeffs = np.array(
            [_chebyshev_coefficients(centre, radius, rho, tau, coeffs.size) for tau in taus]
        )
        node_flux = np.outer(0.5 * dt * weights, 2.0 * cap[absorbing])

    y = vectors[0]  # the state: T_0 y of every step
    y[sites] = _gaussian_packet(spec, wp)
    ends = sites[[0, 1, 2, -3, -2, -1]]  # three sites at either end of the chain
    decay_free = spec.is_decay_free and wp.absorber_width == 0
    norm_history = np.empty(n_steps + 1)
    norm_history[0] = float(np.vdot(y, y).real)
    taken = np.zeros(absorbing.size)
    start = time.perf_counter()
    for step in range(1, n_steps + 1):
        for scaled, window, vector, before in products:
            np.multiply(scaled, window, out=work)
            np.add.reduce(work, axis=0, out=vector)
            if before is not None:
                vector -= before
        if absorbing.size:
            taken += np.sum(node_flux * np.abs(node_coeffs @ vectors[:, layer_rows]) ** 2, axis=0)
        padded[0] = coeffs @ padded  # exp(-iH dt) y = sum_m a_m T_m y
        norm_history[step] = float(np.vdot(y, y).real)
        # A decay-free run keeps its norm; a dissipative one may only lose.
        gain = norm_history[step] - norm_history[0 if decay_free else step - 1]
        drift = abs(gain) if decay_free else gain
        if not drift <= DRIFT_TOL:
            raise IntegratorDriftError(
                f"norm drift {drift:.3e} exceeded {DRIFT_TOL:.1e} at t={dt * step:.3f}; "
                f"the spectral interval [{lo:.3g}, {hi:.3g}] misses part of the spectrum"
            )
        edges = float(np.sum(np.abs(y[ends]) ** 2))
        if wp.absorber_width == 0 and edges > EDGE_TOL:
            raise InsufficientChainError(
                f"probability {edges:.3e} reached the chain ends at "
                f"t={dt * step:.3f}; enlarge the chain or enable absorbers"
            )
    applications = n_steps * len(products)
    _log.debug("%d H applications in %d steps on %d unknowns: %.2f us each, step loop included",
               applications, n_steps, dim, 1e6 * (time.perf_counter() - start) / applications)
    mid = spec.origin
    absorbed_left = float(np.sum(taken[absorbing < mid]))
    absorbed_right = float(np.sum(taken[absorbing >= mid]))
    prob = np.abs(y[sites]) ** 2
    left_cut, right_cut = (spec.sites[0], spec.sites[-1]) if spec.placements else (mid, mid)
    R_meas = float(np.sum(prob[:left_cut])) + absorbed_left
    T_meas = float(np.sum(prob[right_cut + 1 :])) + absorbed_right
    drift = float(np.max(np.abs(norm_history - norm_history[0]))) if decay_free else 0.0
    return WavepacketResult(
        R_meas=R_meas, T_meas=T_meas, norm_history=norm_history,
        times=np.linspace(0.0, wp.tmax, n_steps + 1),
        absorbed_left=absorbed_left, absorbed_right=absorbed_right, drift=drift,
        h_applications=applications,
    )
