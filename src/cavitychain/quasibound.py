"""Trapped modes of the secondary cavity formed by two nodes.

A photon caught between two node "mirrors" lives at the complex momenta
where the two-node transport denominator vanishes,

    (b - V1)(b - V2) - e^{2ikD} V1 V2 = 0,    b = 2 i t sin k,

with both potentials evaluated at the continued band energy E(k).  In the
perfect-mirror limit (both potentials diverging) the condition collapses to
e^{2ikD} = 1, quantising the trapped momentum to k = pi n / D; away from
that limit the roots move into the lower half plane and the mode leaks at a
rate -2 Im E.  Interior sites run over 1..D-1, with the first node at 0 and
the second at D.  The pole-free form of the condition is P22 = 0 for the
bottom-right entry of ``chain_scatter``'s transfer matrix: the residual
evaluates it in k, and the same recursion run on polynomials in z = e^{ik}
gives the polynomial whose roots are the modes.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnverifiedRootError
from .model import LatticeParams, dispersion_energy_continued
from .scattering import TwoNodeConfig, _transfer_polynomial, _transfer_row

log = logging.getLogger(__name__)

#: Search rectangle in complex momentum, Re k in (0, pi) by Im k below.
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
    ``_transfer_row``, independently of the polynomial in z whose roots it
    verifies; k may be an array.  ``scaled`` returns |P22| / norm instead,
    with the norm that ``chain_scatter`` tests resonances against.
    """
    E = lat.omega - 2.0 * lat.t * np.cos(k)
    b = 2j * lat.t * np.sin(k)
    _, P22, norm, _, _ = _transfer_row(k, E, b, [(0, cfg.atom1), (cfg.D, cfg.atom2)])
    return np.abs(P22) / norm if scaled else P22


def _polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Every root in z, as companion-matrix eigenvalues.

    Trimming low zero coefficients drops only roots at z = 0 (Im k = +inf).
    """
    c = np.trim_zeros(coeffs)
    companion = np.diag(np.ones(len(c) - 2, dtype=c.dtype), -1)
    companion[:, -1] -= c[:-1] / c[-1]
    return np.linalg.eigvals(companion)


def find_quasibound_modes(
    cfg: TwoNodeConfig,
    lat: LatticeParams,
    *,
    re_window: tuple[float, float] = (0.0, math.pi),
    im_window: tuple[float, float] = DEFAULT_IM_WINDOW,
    n_re: int = 48,
    n_im: int = 10,
    return_diagnostics: bool = False,
) -> list[QuasiboundMode] | tuple[list[QuasiboundMode], dict]:
    """Find every trapped-mode root inside the complex momentum window.

    The roots are the companion-matrix eigenvalues of the kernel's P22 as a
    polynomial in z = e^{ik} (Edelman & Murakami, Math. Comp. 64, 763
    (1995)), so none is missed; k = -i log z is taken on the 2 pi period
    holding the window.  The bounds are exclusive by 1e-6, which also drops
    the structural zeros at the band edges k = 0 and k = pi.  Each window
    root takes three Newton steps in k on ``quasibound_residual``, and one
    whose scaled residual then exceeds VERIFY_TOL raises UnverifiedRootError.
    Results are sorted by (Re k, Im k).  ``n_re`` and ``n_im`` are accepted
    and ignored (they sized an earlier seed grid).  ``return_diagnostics``
    adds the polynomial degree, the window-root count and the largest scaled
    residual.
    """
    re_lo, re_hi = re_window[0] + 1e-6, re_window[1] - 1e-6
    im_lo, im_hi = im_window
    coeffs, power = _transfer_polynomial([(0, cfg.atom1), (cfg.D, cfg.atom2)], lat)
    mid = 0.5 * (re_lo + re_hi)
    ks = mid - 1j * np.log(_polynomial_roots(coeffs) * cmath.exp(-1j * mid))
    ks = ks[(re_lo < ks.real) & (ks.real < re_hi) & (im_lo < ks.imag) & (ks.imag < im_hi)]
    slope = np.polyder(coeffs[::-1])
    for _ in range(3):
        # d(z^-p c(z))/dk = i z^-p (z c'(z) - p c(z)), with c(z) = z^p P22
        z = np.exp(1j * ks)
        P22 = quasibound_residual(ks, cfg, lat)
        ks = ks - P22 / (1j * (z * np.polyval(slope, z) / z**power - power * P22))
    residuals = quasibound_residual(ks, cfg, lat, scaled=True)
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
        "polynomial_degree": len(np.trim_zeros(coeffs, "b")) - 1,
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
