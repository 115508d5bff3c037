"""Trapped modes of the secondary cavity formed by two nodes.

A photon caught between two node "mirrors" lives at the complex momenta
where the two-node transport denominator vanishes,

    (b - V1)(b - V2) - e^{2ikD} V1 V2 = 0,    b = 2 i t sin k,

with both potentials evaluated at the continued band energy E(k).  In the
perfect-mirror limit (both potentials diverging) the condition collapses to
e^{2ikD} = 1, quantising the trapped momentum to k = pi n / D; away from
that limit the roots move into the lower half plane and the mode leaks at a
rate -2 Im E.  Interior sites run over 1..D-1, with the first node at 0 and
the second at D.  The roots are found on the lattice, as the Siegert states
of the segment between the nodes: eigenvectors with purely outgoing waves
outside it (Siegert, Phys. Rev. 56, 750 (1939)), whose H is the lattice
oracle's ``build_hamiltonian``.  They are verified by the transfer matrix,
as zeros of the pole-free form of the condition, P22 = 0 for the
bottom-right entry of ``chain_scatter``'s transfer matrix.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnverifiedRootError
from .model import LatticeParams, dispersion_energy_continued
from .oracle import ChainSpec, _mirror, _mirror_blocks, build_hamiltonian
from .scattering import TwoNodeConfig, _transfer_row

log = logging.getLogger(__name__)

#: Search rectangle in complex momentum: Re k by Im k.
DEFAULT_RE_WINDOW = (0.0, math.pi)
DEFAULT_IM_WINDOW = (-0.5, 0.05)

#: Scaled-residual bound every window root must meet.
VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class QuasiboundMode:
    """One root of the trapped-mode condition.

    ``leakage`` is -2 Im E, the decay rate of the trapped probability;
    ``n`` is the quantised mode index when the root sits near pi n / D;
    ``residual`` is the scaled residual left at the converged root.
    """

    k: complex
    E: complex
    leakage: float
    n: int | None
    residual: float


def quasibound_residual(k, cfg: TwoNodeConfig, lat: LatticeParams, *, scaled: bool = False):
    """Pole-free trapped-mode residual, the kernel's P22 for nodes at 0 and D.

    P22 is the transport denominator times den_1 den_2, so it stays finite
    at a node pole, where the perfect-mirror modes live.  Evaluated in k by
    ``_transfer_row``, independently of the lattice eigenproblem whose roots
    it verifies; k may be an array.  ``scaled`` returns |P22| / norm instead,
    norm = prod_j max(|b den_j|, |n_j|) e^{2|Im k| x_j}, the size of its terms.
    """
    E = lat.omega - 2.0 * lat.t * np.cos(k)
    b = 2j * lat.t * np.sin(k)
    _, P22, norm, _, _ = _transfer_row(k, E, b, [(0, cfg.atom1), (cfg.D, cfg.atom2)])
    return np.abs(P22) / norm if scaled else P22


def _siegert_roots(nodes, lat: LatticeParams) -> tuple[np.ndarray, list[int]]:
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
    splits into the even and odd blocks of ``_mirror_blocks``, in each of
    which site 0 stands for both end sites; every other segment is one
    block.  Each zero row forces one eigenvalue mu = 0.  When no hop joins
    the two end sites (a span of 2 or more), A1 vanishes between them too,
    and each of those zeros has a Jordan partner, which rounding would
    return as |z| ~ 1e15.  Every mu = 0 is dropped, the smallest |mu|
    first: 2n - 2 roots for n unknowns at a span of 1, 2n - 4 beyond.
    Returns the roots and the size of each companion solved.
    """
    x0, span = nodes[0][0], nodes[-1][0] - nodes[0][0]
    segment = ChainSpec(span + 1, tuple((x - x0, atom) for x, atom in nodes), lat)
    metastable = span + 2 + 2 * np.flatnonzero([atom.is_two_level for _, atom in nodes])
    keep = np.delete(np.arange(segment.dimension), metastable)
    n = len(keep)
    A1 = lat.omega * np.eye(n) - build_hamiltonian(segment)[np.ix_(keep, keep)]
    # In units of t, each part divided on its own: complex division multiplies by 1/t.
    A1 = (A1.view(float) / lat.t).view(complex) if A1.imag.any() else A1.real / lat.t
    # The mirror in the kept basis: -1 where a kept level's image was dropped.
    position = np.full(segment.dimension, -1)
    position[keep] = np.arange(n)
    roots, sizes = [], []
    for block, columns, _ in _mirror_blocks(A1, position[_mirror(segment)[keep]]):
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


def find_quasibound_modes(
    cfg: TwoNodeConfig,
    lat: LatticeParams,
    *,
    re_window: tuple[float, float] = DEFAULT_RE_WINDOW,
    im_window: tuple[float, float] = DEFAULT_IM_WINDOW,
    n_re: int = 48,
    n_im: int = 10,
    return_diagnostics: bool = False,
) -> list[QuasiboundMode] | tuple[list[QuasiboundMode], dict]:
    """Find every trapped-mode root inside the complex momentum window.

    The roots are the Siegert states of the lattice segment between the two
    nodes, ``_siegert_roots``, so none is missed; k = -i log z is taken on the
    2 pi period holding the window, whose bounds are exclusive by 1e-6.  The
    lattice finds the roots and the kernel's transfer matrix verifies them:
    each window root takes three Newton steps in k on ``quasibound_residual``
    with a forward-difference slope, then moves to whichever of Re k's two
    neighbouring doubles has a smaller scaled residual, if either has.  One
    whose scaled residual still exceeds VERIFY_TOL raises UnverifiedRootError.
    Results are sorted by (Re k, Im k).  ``n_re`` and ``n_im`` are accepted
    and ignored (they sized an earlier seed grid).  ``return_diagnostics``
    adds the count of finite Siegert roots, the sizes of the companions
    solved (two for a mirror-symmetric pair, one otherwise), the window-root
    count and the largest scaled residual.
    """
    re_lo, re_hi = re_window[0] + 1e-6, re_window[1] - 1e-6
    im_lo, im_hi = im_window
    zs, blocks = _siegert_roots([(0, cfg.atom1), (cfg.D, cfg.atom2)], lat)
    mid = 0.5 * (re_lo + re_hi)
    ks = mid - 1j * np.log(zs * cmath.exp(-1j * mid))
    ks = ks[(re_lo < ks.real) & (ks.real < re_hi) & (im_lo < ks.imag) & (ks.imag < im_hi)]
    h = 1e-7
    for _ in range(3):
        P22 = quasibound_residual(ks, cfg, lat)
        ks = ks - h * P22 / (quasibound_residual(ks + h, cfg, lat) - P22)
    # On weak mirrors the residual moves by more than VERIFY_TOL / 10 per ulp
    # of Re k, and Newton's last step need not round onto the best double.
    below, above = (np.nextafter(ks.real, side) + 1j * ks.imag for side in (-np.inf, np.inf))
    near = np.stack([ks, below, above])
    scaled = quasibound_residual(near, cfg, lat, scaled=True)
    ks, residuals = (np.take_along_axis(a, scaled.argmin(0)[None], 0)[0] for a in (near, scaled))
    modes = []
    for k, residual in zip(ks.tolist(), residuals.tolist()):
        if not residual <= VERIFY_TOL:
            raise UnverifiedRootError(
                f"trapped-mode root k={k} has scaled residual {residual:.3e} > {VERIFY_TOL:.1e}"
            )
        E = dispersion_energy_continued(k, lat)
        n = _mode_index(k, cfg.D)
        modes.append(
            QuasiboundMode(k=k, E=E, leakage=-2.0 * E.imag, n=n, residual=residual)
        )
    modes.sort(key=lambda m: (m.k.real, m.k.imag))
    diagnostics = {
        "finite_roots": len(zs),
        "blocks": blocks,
        "window_roots": len(modes),
        "max_residual": max((m.residual for m in modes), default=0.0),
    }
    log.debug("D=%d: %s", cfg.D, diagnostics)
    return (modes, diagnostics) if return_diagnostics else modes


def _mode_index(k: complex, D: int) -> int | None:
    n = round(k.real * D / math.pi)
    if 1 <= n <= D - 1 and abs(k - math.pi * n / D) < 0.25 * math.pi / D:
        return n
    return None


def quantized_momenta(D: int) -> list[float]:
    """Perfect-mirror momenta pi n / D inside the band, n = 1..D-1."""
    if not (isinstance(D, int) and D >= 1):
        raise ValueError(f"node separation D must be an integer >= 1, got {D!r}")
    return [math.pi * n / D for n in range(1, D)]


def bound_profile(D: int, n: int) -> np.ndarray:
    """Normalised standing-wave profile sin(pi n j / D) on sites j = 0..D.

    The end sites carry exactly zero amplitude.  Raises ValueError unless
    1 <= n <= D - 1.
    """
    if not (isinstance(D, int) and D >= 2):
        raise ValueError(f"need D >= 2 for an interior profile, got {D!r}")
    if not 1 <= n <= D - 1:
        raise ValueError(f"mode index must satisfy 1 <= n <= D-1, got n={n!r}")
    j = np.arange(D + 1)
    u = np.sin(math.pi * n * j / D)
    u[0] = 0.0
    u[D] = 0.0
    return u / np.linalg.norm(u)
