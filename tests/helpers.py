"""Shared random draws, the paper's closed forms, the lattice's trapped modes and a reference CSV writer for the tests.

The closed forms below are the reference the vectorised kernel
``chain_scatter`` is checked against.  They evaluate the paper's formulas
point by point, with their own potential and limit bands, and share no code
with the kernel: only the tolerances ``model.SINGULAR_TOL`` and
``scattering.LIMIT_WINDOW``, read at each call so that a test may patch
them.  The inverse dispersion ``momentum_from_energy``, the two-pole form
``decompose_potential``, the dense H of ``build_hamiltonian`` and the
trapped-mode residual ``quasibound_residual`` are reference code that no
command runs.  ``siegert_roots`` is the reference for the trapped-mode
search: the roots come from the lattice segment between the nodes, an
eigenproblem that shares no code with the contour search.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from cavitychain import (
    AtomParams,
    CavityChainError,
    ChainSpec,
    LatticeParams,
    LimitWindowError,
    TwoNodeConfig,
    dispersion_energy,
    model,
    oracle,
    scattering,
)


class OutOfBandError(CavityChainError):
    """Requested energy lies on or outside the cosine band edges."""


class DegenerateDecompositionError(CavityChainError):
    """Both resonant frequencies coincide; no two-pole split exists."""


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


def momentum_from_energy(E: float, lat: LatticeParams) -> float:
    """Inverse dispersion on the k in (0, pi) branch.

    Negative-momentum solutions are represented by wave direction at the
    caller, never here.  Raises OutOfBandError on |E - omega| >= 2t.
    """
    x = (lat.omega - E) / (2.0 * lat.t)
    if not -1.0 < x < 1.0:
        bottom, top = lat.omega - 2.0 * lat.t, lat.omega + 2.0 * lat.t
        raise OutOfBandError(f"energy {E!r} outside the open band ({bottom}, {top})")
    return math.acos(x)


def in_band(E: float, lat: LatticeParams) -> bool:
    return abs(E - lat.omega) < 2.0 * lat.t


@dataclass(frozen=True)
class PotentialDecomposition:
    """Two-pole form of the node potential (decay rates ignored).

    V(E) = g^2 [A / (E - omega_plus) + B / (E - omega_minus)] with
    omega_pm = (omega_e + delta)/2 +- mu.  ``mu`` is the half-splitting,
    ``nu`` the dimensionless peak asymmetry, A + B = 1.
    """

    omega_plus: float
    omega_minus: float
    mu: float
    nu: float
    A: float
    B: float

    def potential(self, E: complex, g: float = 1.0) -> complex:
        """Evaluate the partial-fraction form at energy ``E``."""
        return g * g * (self.A / (E - self.omega_plus) + self.B / (E - self.omega_minus))

    @property
    def poles(self) -> tuple[float, float]:
        return (self.omega_plus, self.omega_minus)


def decompose_potential(atom: AtomParams) -> PotentialDecomposition:
    """Split the potential into its two resonant poles (decay-free view).

    Raises DegenerateDecompositionError when the splitting mu vanishes,
    which needs Omega = 0 together with omega_e = delta.
    """
    half_gap = 0.5 * (atom.omega_e - atom.delta)
    mu = math.hypot(atom.Omega, half_gap)
    if mu == 0.0:
        raise DegenerateDecompositionError(
            "omega_plus and omega_minus coincide; the potential has a single pole"
        )
    nu = half_gap / mu
    center = 0.5 * (atom.omega_e + atom.delta)
    return PotentialDecomposition(
        omega_plus=center + mu,
        omega_minus=center - mu,
        mu=mu,
        nu=nu,
        A=0.5 * (1.0 + nu),
        B=0.5 * (1.0 - nu),
    )


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Single-excitation Hamiltonian; Hermitian exactly when decay-free.

    Basis order: the N sites, then (excited, metastable) per node.  This is
    the dense expansion of ``oracle._hamiltonian_band``.  Array fields
    broadcast to a shape ``batch`` and give the ``(*batch, dim, dim)`` stack
    of their H.
    """
    order = oracle._interleaved_order(spec)
    return oracle._expand(*oracle._entries(oracle._hamiltonian_band(spec), order), spec.dimension)


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


def siegert_roots(nodes, lat: LatticeParams) -> tuple[np.ndarray, list[int]]:
    """Every finite z = e^{ik} of the open segment from the first node to the last.

    A trapped mode is a Siegert state (Siegert, Phys. Rev. 56, 750 (1939)):
    an eigenvector of the segment with purely outgoing waves outside it.  The
    unknowns are those of the segment's ``build_hamiltonian``, sites 0..L and
    node levels, less the decoupled metastable level of a two-level node,
    which would add a false root at E = delta.  With
    u_{-1} = z u_0, u_{L+1} = z u_L and E = omega - t (z + 1/z), z (E - H) u = 0
    reads (A0 + z A1 + z^2 A2) u = 0 with A0 = -t I, A1 = omega I - H and
    A2 = -t I but for zero rows at the two end sites.  In mu = 1/z that is the
    eigenproblem of [[0, I], [A2/t, A1/t]], real when nothing decays.  A
    mirror-symmetric segment (A1 equal to its image under ``oracle._mirror``)
    splits into the even and odd blocks of ``oracle._mirror_blocks``, in each
    of which site 0 stands for both end sites; every other segment is one
    block.  Each zero row forces one eigenvalue mu = 0.  When no hop joins
    the two end sites (a span of 2 or more), A1 vanishes between them too,
    and each of those zeros has a Jordan partner, which rounding would
    return as |z| ~ 1e15.  Every mu = 0 is dropped, the smallest |mu|
    first: 2n - 2 roots for n unknowns at a span of 1, 2n - 4 beyond.
    Returns the roots and the size of each companion solved.
    """
    x0, span = nodes[0][0], nodes[-1][0] - nodes[0][0]
    segment = ChainSpec(span + 1, tuple((x - x0, atom) for x, atom in nodes), lat)
    metastable = span + 2 + 2 * np.flatnonzero([atom.Omega == 0 for _, atom in nodes])
    keep = np.delete(np.arange(segment.dimension), metastable)
    n = len(keep)
    A1 = lat.omega * np.eye(n) - build_hamiltonian(segment)[np.ix_(keep, keep)]
    # In units of t, each part divided on its own: complex division multiplies by 1/t.
    A1 = (A1.view(float) / lat.t).view(complex) if A1.imag.any() else A1.real / lat.t
    # The mirror in the kept basis: -1 where a kept level's image was dropped.
    position = np.full(segment.dimension, -1)
    position[keep] = np.arange(n)
    roots, sizes = [], []
    mirror = position[oracle._mirror(segment)[keep]]
    for block, columns, _ in oracle._mirror_blocks(*dense_entries(A1), mirror):
        m = len(block)
        companion = np.zeros((2 * m, 2 * m), A1.dtype)
        companion[:m, m:], companion[m:, :m], companion[m:, m:] = np.eye(m), -np.eye(m), block
        ends = np.flatnonzero((columns[0] == 0) | (columns[0] == span))
        companion[m + ends, ends] = 0.0
        zeros = len(ends) if block[np.ix_(ends, ends)].any() else 2 * len(ends)
        mu = np.linalg.eigvals(companion).astype(complex)
        roots.append(1.0 / mu[np.argsort(np.abs(mu))[zeros:]])
        sizes.append(2 * m)
    return np.concatenate(roots), sizes


def dense_entries(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of every entry of the square A, as ``oracle._mirror_blocks`` reads A."""
    rows, cols = np.indices(A.shape).reshape(2, -1)
    return rows, cols, A.ravel()


def siegert_window_roots(cfg: TwoNodeConfig, lat: LatticeParams, re_window=(0.0, math.pi),
                         im_window=(-0.5, 0.05)) -> np.ndarray:
    """The Siegert roots k of two nodes inside a search window, sorted by (Re k, Im k).

    k = -i log z is taken on the 2 pi period holding the window, whose Re k
    bounds are exclusive by 1e-6, as in ``find_quasibound_modes``.
    """
    zs, _ = siegert_roots([(0, cfg.atom1), (cfg.D, cfg.atom2)], lat)
    re_lo, re_hi = re_window[0] + 1e-6, re_window[1] - 1e-6
    mid = 0.5 * (re_lo + re_hi)
    ks = mid - 1j * np.log(zs * cmath.exp(-1j * mid))
    inside = (re_lo < ks.real) & (ks.real < re_hi) & (im_window[0] < ks.imag) & (ks.imag < im_window[1])
    ks = ks[inside]
    return ks[np.lexsort((ks.imag, ks.real))]


def quasibound_residual(k, cfg: TwoNodeConfig, lat: LatticeParams, *, scaled: bool = False):
    """Pole-free trapped-mode residual, the kernel's P22 for nodes at 0 and D.

    P22 is the transport denominator times den_1 den_2, so it stays finite
    at a node pole, where the perfect-mirror modes live.  Evaluated in k by
    ``_transfer_row``, apart from the closed form the contour search
    counts with; k may be an array.  ``scaled`` returns |P22| / norm instead,
    norm = prod_j max(|b den_j|, |n_j|) e^{2|Im k| x_j}, the size of its terms.
    """
    E = lat.omega - 2.0 * lat.t * np.cos(k)
    b = 2j * lat.t * np.sin(k)
    _, P22, norm, _, _ = scattering._transfer_row(k, E, b, [(0, cfg.atom1), (cfg.D, cfg.atom2)])
    return np.abs(P22) / norm if scaled else P22


def bound_state_energies(nodes, lat: LatticeParams, *, flip: bool = False) -> np.ndarray:
    """Energies of the photon bound states outside the band, bisected on the closed form.

    Below the band E = omega - 2 t cosh kappa and above it omega + 2 t cosh
    kappa, kappa > 0 (k = i kappa and pi + i kappa).  There the free chain's
    Green's function is G_jl = G00 z^|x_j - x_l|, with z = s e^{-kappa},
    s = sign(E - omega), and G00 = s / sqrt((E - omega)^2 - 4 t^2), which is
    s / (2 t sinh kappa) (John & Wang, PRL 64, 2418 (1990)).  A state is
    bound where det(1 - V G) = 0; for one node, where V(E) = s 2 t sinh kappa.
    Row j times den_j 2 t sinh kappa clears the poles of V_j = num_j / den_j
    and G00: the roots are the sign changes of det(2 t sinh kappa den - s num Z)
    over 4,000 steps of kappa in [1e-3, 8], bisected to rounding.  Decay-free
    nodes only.  ``flip`` flips the sign of the 2 t sinh kappa term, a wrong
    closed form.  Returns the energies, sorted.
    """
    x = np.array([site for site, _ in nodes])

    def det(kappa, s):
        E = lat.omega + s * 2.0 * lat.t * np.cosh(kappa)
        num, den = np.empty((2, len(kappa), len(nodes)))
        for j, (_, atom) in enumerate(nodes):
            if atom.Omega == 0:
                num[:, j], den[:, j] = atom.g * atom.g, E - atom.omega_e
            else:
                num[:, j] = atom.g * atom.g * (E - atom.delta)
                den[:, j] = (E - atom.omega_e) * (E - atom.delta) - atom.Omega**2
        Z = (s * np.exp(-kappa))[:, None, None] ** np.abs(x[:, None] - x[None, :])
        hop = (-1.0 if flip else 1.0) * 2.0 * lat.t * np.sinh(kappa)[:, None]
        return np.linalg.det(np.eye(len(nodes)) * (hop * den)[:, :, None] - s * num[:, :, None] * Z)

    energies = []
    for s in (-1.0, 1.0):
        kappa = np.linspace(1e-3, 8.0, 4001)
        f = det(kappa, s)
        for i in np.flatnonzero(np.sign(f[1:]) != np.sign(f[:-1])):
            lo, hi, f_lo = kappa[i], kappa[i + 1], f[i]
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                f_mid = det(np.array([mid]), s)[0]
                if np.sign(f_mid) == np.sign(f_lo):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            energies.append(lat.omega + s * 2.0 * lat.t * math.cosh(lo))
    return np.sort(np.array(energies))


def quantized_momenta(D: int) -> list[float]:
    """Perfect-mirror momenta pi n / D inside the band, n = 1..D-1."""
    if not (isinstance(D, int) and D >= 1):
        raise ValueError(f"node separation D must be an integer >= 1, got {D!r}")
    return [math.pi * n / D for n in range(1, D)]


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


def draw_trapped_pair(rng: np.random.Generator, d_max: int = 200) -> tuple[TwoNodeConfig, LatticeParams]:
    """A random pair of nodes for the trapped-mode search, with its lattice.

    Each node is two-level with probability 0.3, has g = 10^U(-3, 1.5),
    and decays with probability 0.3, Gamma and gamma from U(0, 0.1);
    omega_e and delta come from U(-3, 3) and Omega from U(0, 3).  The two
    nodes are the same half the time.  D comes from 1-40 half the time and
    from 41-``d_max`` otherwise, or always from 1-40 when ``d_max`` is 40 or
    less; omega comes from U(-2, 2) and t from U(0.5, 3).
    """
    def node():
        two_level = rng.random() < 0.3
        g = 10.0 ** rng.uniform(-3.0, 1.5)
        Gamma, gamma = rng.uniform(0.0, 0.1, 2).tolist() if rng.random() < 0.3 else (0.0, 0.0)
        omega_e, delta = rng.uniform(-3.0, 3.0, 2).tolist()
        Omega = 0.0 if two_level else rng.uniform(0.0, 3.0)
        return AtomParams(omega_e=omega_e, delta=delta, Omega=Omega, g=g, Gamma=Gamma, gamma=gamma)

    atom1 = node()
    atom2 = atom1 if rng.random() < 0.5 else node()
    D = int(rng.integers(1, 41) if d_max <= 40 or rng.random() < 0.5 else rng.integers(41, d_max + 1))
    lat = LatticeParams(omega=rng.uniform(-2.0, 2.0), t=rng.uniform(0.5, 3.0))
    return TwoNodeConfig(atom1, atom2, D), lat


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
