"""Brute-force finite-lattice checks of the closed-form scattering theory.

Everything here works on the single-excitation sector of an N-site chain
with embedded nodes: one basis state per cavity plus an excited and a
metastable amplitude per node.  The stationary solver imposes exact
plane-wave constraint rows at two probe sites on each end (incident plus
reflected on the left, transmitted on the right), so its r and s do not
depend on N beyond conditioning.  The wavepacket propagator and the
eigenmode decomposition provide dynamic and spectral cross-checks.

The solver fixes the package-wide direction convention: the incident wave
is e^{+ikx} moving toward +x, with x measured from the first node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientChainError,
    IntegratorDriftError,
    PlacementError,
)
from .model import AtomParams, LatticeParams, dispersion_energy

#: Decay-free probability budget the propagator may lose over one run.
DRIFT_TOL = 1e-8

#: Probability allowed to touch the chain ends before the run is rejected.
EDGE_TOL = 1e-7

#: Largest phase (radius + decay) * dt one Chebyshev step spans; bounds the
#: length and the growth of the series when H is non-Hermitian.
MAX_STEP_PHASE = 10.0

#: Gauss-Legendre nodes per step for the flux into absorbing layers.
FLUX_NODES = 16

#: Fewest sites between a node and either end of the chain.
BUFFER = 4


@dataclass(frozen=True)
class ChainSpec:
    """Finite chain with nodes at fixed sites.

    ``placements`` maps site indices to node parameters; sites must stay at
    least ``BUFFER`` sites away from both ends.  ``kappa`` adds a uniform
    -i kappa/2 cavity leakage to every site (off by default).
    """

    n_sites: int
    placements: tuple[tuple[int, AtomParams], ...]
    lat: LatticeParams
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if self.n_sites < 16:
            raise PlacementError(f"need at least 16 sites, got {self.n_sites}")
        if self.kappa < 0:
            raise PlacementError("cavity leakage kappa must be nonnegative")
        sites = [site for site, _ in self.placements]
        if len(set(sites)) != len(sites):
            raise PlacementError(f"duplicate node sites in {sites}")
        if sorted(sites) != sites:
            raise PlacementError("placements must be sorted by site index")
        for site in sites:
            if not BUFFER <= site <= self.n_sites - BUFFER:
                raise PlacementError(f"site {site} outside [{BUFFER}, {self.n_sites - BUFFER}]")

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
    """Scattering probabilities measured after the packet has cleared."""

    R_meas: float
    T_meas: float
    norm_history: np.ndarray
    times: np.ndarray
    absorbed_left: float = 0.0
    absorbed_right: float = 0.0
    drift: float = 0.0


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Single-excitation Hamiltonian; Hermitian exactly when decay-free.

    Basis order: the N sites, then (excited, metastable) per node.  Decay
    rates appear as -i Gamma / -i gamma on the node diagonals and cavity
    leakage as -i kappa/2 on every site diagonal.
    """
    n, dim = spec.n_sites, spec.dimension
    H = np.zeros((dim, dim), dtype=np.complex128)
    # Diagonal and hopping bands as strided views: faster than fancy indexing on small H.
    flat = H.reshape(-1)
    flat[: n * (dim + 1) : dim + 1] = spec.lat.omega - 0.5j * spec.kappa
    flat[1 : (n - 1) * (dim + 1) : dim + 1] = -spec.lat.t
    flat[dim : (n - 1) * (dim + 1) : dim + 1] = -spec.lat.t
    for m, (site, atom) in enumerate(spec.placements):
        e = n + 2 * m
        a = e + 1
        H[e, e] = atom.excited_level
        H[a, a] = atom.metastable_level
        H[site, e] = atom.g
        H[e, site] = atom.g
        H[e, a] = atom.Omega
        H[a, e] = atom.Omega
    return H


def solve_stationary(spec: ChainSpec, k: float) -> tuple[complex, complex]:
    """Solve the full stationary scattering system for (r, s) at momentum k.

    The system is (H - E) u = 0 on the bulk sites and the node levels, with
    H from ``build_hamiltonian``, so the node amplitudes stay in it (nothing
    is eliminated).  Four constraint rows pin two probe sites per end to the
    plane-wave form, which is exact on the free chain, so the result is
    N-independent up to conditioning.
    """
    E = dispersion_energy(k, spec.lat)
    n, dim = spec.n_sites, spec.dimension
    H = build_hamiltonian(spec)
    H.reshape(-1)[:: dim + 1] -= E
    # Rows: two left probe sites, bulk sites 1..n-2, two right probe sites, node levels.
    M = np.zeros((dim + 2, dim + 2), dtype=np.complex128)
    M[2:n, :dim] = H[1 : n - 1]
    M[n + 2 :, :dim] = H[n:]
    del H
    b = np.zeros(dim + 2, dtype=np.complex128)
    origin = spec.origin
    for j in (0, 1):
        M[j, j] = 1.0
        M[j, dim] = -np.exp(-1j * k * (j - origin))
        b[j] = np.exp(1j * k * (j - origin))
    for row, j in ((n, n - 2), (n + 1, n - 1)):
        M[row, j] = 1.0
        M[row, dim + 1] = -np.exp(1j * k * (j - origin))

    sol = np.linalg.solve(M, b)
    return complex(sol[dim]), complex(sol[dim + 1])


def eigenmodes(spec: ChainSpec) -> list[EigenMode]:
    """Eigen-decomposition with per-mode localisation metrics.

    ``interior_weight`` is the probability on the sites strictly between the
    first and last node (zero when fewer than two nodes are placed); ``ipr``
    is sum |u|^4 of the normalised mode.  Modes are sorted by Re(energy).
    """
    H = build_hamiltonian(spec)
    if spec.is_decay_free:
        values, vectors = np.linalg.eigh(H.real)
        values = values.astype(np.complex128)
        vectors = vectors.astype(np.complex128)
    else:
        values, vectors = np.linalg.eig(H)
    sites = spec.sites
    interior_slice = slice(sites[0] + 1, sites[-1]) if len(sites) >= 2 else slice(0, 0)
    modes = []
    for i in np.argsort(values.real):
        vec = vectors[:, i]
        vec = vec / np.linalg.norm(vec)
        prob = np.abs(vec) ** 2
        ipr = float(np.sum(prob * prob))
        interior = float(np.sum(prob[interior_slice]))
        modes.append(EigenMode(complex(values[i]), vec, ipr, interior))
    return modes


def _gaussian_packet(spec: ChainSpec, wp: WavepacketSpec) -> np.ndarray:
    j = np.arange(spec.n_sites)
    envelope = np.exp(-((j - wp.x0) ** 2) / (4.0 * wp.sigma**2))
    psi = envelope * np.exp(1j * wp.k0 * j)
    vec = np.zeros(spec.dimension, dtype=np.complex128)
    vec[: spec.n_sites] = psi / np.linalg.norm(psi)
    return vec


def _spectral_interval(spec: ChainSpec) -> tuple[float, float]:
    """Gershgorin bounds on the real parts of the eigenvalues of H.

    Decay, leakage and absorbers only move eigenvalues below the real axis,
    so the interval depends on the real diagonals and the couplings alone.
    """
    band_lo, band_hi = spec.lat.omega - 2.0 * spec.lat.t, spec.lat.omega + 2.0 * spec.lat.t
    lo, hi = band_lo, band_hi
    for _, a in spec.placements:
        lo = min(lo, band_lo - a.g, a.omega_e - a.g - a.Omega, a.delta - a.Omega)
        hi = max(hi, band_hi + a.g, a.omega_e + a.g + a.Omega, a.delta + a.Omega)
    return lo, hi


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
    return int(math.ceil(6.0 * sigma)) + 5


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

    The packet centre must sit 5 sigma clear of the left end and of the
    first node, and the two absorbing layers must not overlap.
    """
    if wp.x0 - 5.0 * wp.sigma < 2:
        raise InsufficientChainError(
            f"packet centre {wp.x0} is closer than 5 sigma to the left end"
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
    interval of H, accurate to rounding; ``times``/``norm_history`` hold one
    sample per step end, and the guards below run at every step end.
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

    # Every coefficient of H below is shifted and scaled onto the unit box.
    site_diag = (spec.lat.omega - centre - 0.5j * spec.kappa - 1j * cap) / radius
    t_hop = spec.lat.t / radius
    atom_sites = np.array(spec.sites, dtype=int)
    g_arr = np.array([a.g for _, a in spec.placements]) / radius
    Om_arr = np.array([a.Omega for _, a in spec.placements]) / radius
    e_diag = np.array([a.excited_level - centre for _, a in spec.placements]) / radius
    a_diag = np.array([a.metastable_level - centre for _, a in spec.placements]) / radius

    def apply_h(y: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        u = y[:n]
        hu = site_diag * u
        hu[:-1] -= t_hop * u[1:]
        hu[1:] -= t_hop * u[:-1]
        if atom_sites.size:
            ue = y[n::2]
            ua = y[n + 1 :: 2]
            hu[atom_sites] += g_arr * ue
            out[n::2] = e_diag * ue + g_arr * u[atom_sites] + Om_arr * ua
            out[n + 1 :: 2] = a_diag * ua + Om_arr * ue
        out[:n] = hu
        return out

    # The absorbed flux is integrated by Gauss-Legendre nodes inside each
    # step, evaluated from the step's own Chebyshev vectors on the layers.
    absorbing = np.nonzero(cap)[0]
    basis = np.empty((len(coeffs), absorbing.size), dtype=np.complex128)
    if absorbing.size:
        nodes, weights = np.polynomial.legendre.leggauss(FLUX_NODES)
        taus = 0.5 * dt * (nodes + 1.0)
        node_coeffs = np.array(
            [_chebyshev_coefficients(centre, radius, rho, tau, coeffs.size) for tau in taus]
        )
        node_flux = np.outer(0.5 * dt * weights, 2.0 * cap[absorbing])

    def chebyshev_step(y: np.ndarray) -> np.ndarray:
        prev, cur = y, apply_h(y)
        basis[0], basis[1] = prev[absorbing], cur[absorbing]
        out = coeffs[0] * prev + coeffs[1] * cur
        for m in range(2, len(coeffs)):
            prev, cur = cur, 2.0 * apply_h(cur) - prev
            basis[m] = cur[absorbing]
            out += coeffs[m] * cur
        return out

    y = _gaussian_packet(spec, wp)
    decay_free = spec.is_decay_free and wp.absorber_width == 0
    norm_history = np.empty(n_steps + 1)
    norm_history[0] = float(np.vdot(y, y).real)
    taken = np.zeros(absorbing.size)
    for step in range(1, n_steps + 1):
        y = chebyshev_step(y)
        if absorbing.size:
            taken += np.sum(node_flux * np.abs(node_coeffs @ basis) ** 2, axis=0)
        norm_history[step] = float(np.vdot(y, y).real)
        # A decay-free run keeps its norm; a dissipative one may only lose.
        gain = norm_history[step] - norm_history[0 if decay_free else step - 1]
        drift = abs(gain) if decay_free else gain
        if not drift <= DRIFT_TOL:
            raise IntegratorDriftError(
                f"norm drift {drift:.3e} exceeded {DRIFT_TOL:.1e} at t={dt * step:.3f}; "
                f"the spectral interval [{lo:.3g}, {hi:.3g}] misses part of the spectrum"
            )
        edges = float(np.sum(np.abs(y[:3]) ** 2) + np.sum(np.abs(y[n - 3 : n]) ** 2))
        if wp.absorber_width == 0 and edges > EDGE_TOL:
            raise InsufficientChainError(
                f"probability {edges:.3e} reached the chain ends at "
                f"t={dt * step:.3f}; enlarge the chain or enable absorbers"
            )
    mid = spec.origin
    absorbed_left = float(np.sum(taken[absorbing < mid]))
    absorbed_right = float(np.sum(taken[absorbing >= mid]))
    prob = np.abs(y[:n]) ** 2
    left_cut, right_cut = (spec.sites[0], spec.sites[-1]) if spec.placements else (mid, mid)
    R_meas = float(np.sum(prob[:left_cut])) + absorbed_left
    T_meas = float(np.sum(prob[right_cut + 1 :])) + absorbed_right
    drift = float(np.max(np.abs(norm_history - norm_history[0]))) if decay_free else 0.0
    return WavepacketResult(
        R_meas=R_meas, T_meas=T_meas, norm_history=norm_history,
        times=np.linspace(0.0, wp.tmax, n_steps + 1),
        absorbed_left=absorbed_left, absorbed_right=absorbed_right, drift=drift,
    )
