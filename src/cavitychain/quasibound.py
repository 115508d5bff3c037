"""Trapped modes of the secondary cavity formed by two nodes.

A photon caught between two node "mirrors" lives at the complex momenta
where the two-node transport denominator vanishes,

    (b - V1)(b - V2) - e^{2ikD} V1 V2 = 0,    b = 2 i t sin k,

with both potentials evaluated at the continued band energy E(k).  In the
perfect-mirror limit (both potentials diverging) the condition collapses to
e^{2ikD} = 1, quantising the trapped momentum to k = pi n / D; away from
that limit the roots move into the lower half plane and the mode leaks at a
rate -2 Im E.  Interior sites run over 1..D-1, with the first node at 0 and
the second at D.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnverifiedRootError
from .model import AtomParams, LatticeParams, dispersion_energy_continued, potential_parts
from .scattering import TwoNodeConfig

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
    """Pole-free trapped-mode residual F1 F2 - e^{2ikD} N1 N2; zero exactly on a mode.

    With V_j = N_j / den_j, F_j = b den_j - N_j, so the residual is the
    transport denominator times den_1 den_2 and stays finite at a node pole,
    where the perfect-mirror modes live.  Evaluated in k, independently of
    the polynomial in z whose roots it verifies; k may be an array.
    ``scaled`` returns |residual| / max(|F1 F2|, |e^{2ikD} N1 N2|) instead.
    """
    E = lat.omega - 2.0 * lat.t * np.cos(k)
    b = 2j * lat.t * np.sin(k)
    (n1, d1, _), (n2, d2, _) = (potential_parts(E, atom) for atom in (cfg.atom1, cfg.atom2))
    term1 = (b * d1 - n1) * (b * d2 - n2)
    term2 = np.exp(2j * k * cfg.D) * n1 * n2
    if scaled:
        return np.abs(term1 - term2) / np.maximum(np.maximum(np.abs(term1), np.abs(term2)), 1e-300)
    return term1 - term2


def _trapped_mode_polynomial(cfg: TwoNodeConfig, lat: LatticeParams) -> np.ndarray:
    """Coefficients, lowest power first, of the pole-free residual in z = e^{ik}.

    z b = t (z^2 - 1) and z (E - level) = -t + (omega - level) z - t z^2.  A
    Lambda node gives F = z^3 f and N = z n, a two-level node F = z^2 f and
    N = n, so z^{p1+p2} [f1 f2 - z^{2D} n1 n2] = F1 F2 - z^{2D+4} N1 N2, of
    degree at most 2D + 8.  Decay-free coefficients are real.
    """

    def node(atom: AtomParams) -> tuple[np.ndarray, np.ndarray]:
        e_we = np.array([-lat.t, lat.omega - atom.excited_level, -lat.t])
        if atom.Omega == 0.0:
            num, den = np.array([atom.g * atom.g]), e_we
        else:
            e_dm = np.array([-lat.t, lat.omega - atom.metastable_level, -lat.t])
            num, den = atom.g * atom.g * e_dm, np.convolve(e_we, e_dm)
            den[2] -= atom.Omega * atom.Omega
        f = np.convolve([-lat.t, 0.0, lat.t], den)
        f[2 : 2 + len(num)] -= num
        return f, num

    (f1, n1), (f2, n2) = node(cfg.atom1), node(cfg.atom2)
    term1, term2, shift = np.convolve(f1, f2), np.convolve(n1, n2), 2 * cfg.D + 4
    coeffs = np.zeros(max(len(term1), shift + len(term2)), dtype=complex)
    coeffs[: len(term1)] += term1
    coeffs[shift : shift + len(term2)] -= term2
    return coeffs.real if not coeffs.imag.any() else coeffs


def _polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Every root in z, as companion-matrix eigenvalues with one Newton polish.

    Trimming low zero coefficients drops only roots at z = 0 (Im k = +inf).
    """
    c = np.trim_zeros(coeffs)
    companion = np.diag(np.ones(len(c) - 2, dtype=c.dtype), -1)
    companion[:, -1] -= c[:-1] / c[-1]
    z = np.linalg.eigvals(companion)
    high_first = c[::-1]
    with np.errstate(all="ignore"):  # huge roots, far from any window, overflow
        step = np.polyval(high_first, z) / np.polyval(np.polyder(high_first), z)
    return np.where(np.isfinite(step), z - step, z)


def find_quasibound_modes(
    cfg: TwoNodeConfig,
    lat: LatticeParams,
    *,
    re_window: tuple[float, float] = (0.0, math.pi),
    im_window: tuple[float, float] = DEFAULT_IM_WINDOW,
    n_re: int = 48,
    n_im: int = 10,
    verify_tol: float = VERIFY_TOL,
    edge_margin: float = 1e-6,
    return_diagnostics: bool = False,
) -> list[QuasiboundMode] | tuple[list[QuasiboundMode], dict]:
    """Find every trapped-mode root inside the complex momentum window.

    The roots are the companion-matrix eigenvalues of the residual's
    polynomial in z = e^{ik} (Edelman & Murakami, Math. Comp. 64, 763
    (1995)), so none is missed; k = -i log z is taken on the 2 pi period
    holding the window.  The bounds are exclusive by ``edge_margin``, which
    also drops the structural zeros at the band edges k = 0 and k = pi.  A
    window root whose scaled independent residual exceeds ``verify_tol``
    raises UnverifiedRootError.  Results are sorted by (Re k, Im k).
    ``n_re`` and ``n_im`` are accepted and ignored (they sized an earlier
    seed grid).  ``return_diagnostics`` adds the polynomial degree, the
    window-root count and the largest scaled residual.
    """
    re_lo = re_window[0] + edge_margin
    re_hi = re_window[1] - edge_margin
    im_lo, im_hi = im_window
    coeffs = _trapped_mode_polynomial(cfg, lat)
    mid = 0.5 * (re_lo + re_hi)
    ks = mid - 1j * np.log(_polynomial_roots(coeffs) * cmath.exp(-1j * mid))
    inside = (re_lo < ks.real) & (ks.real < re_hi) & (im_lo < ks.imag) & (ks.imag < im_hi)
    residuals = quasibound_residual(ks[inside], cfg, lat, scaled=True)
    modes = []
    for k, residual in zip(ks[inside].tolist(), residuals.tolist()):
        if not residual <= verify_tol:
            raise UnverifiedRootError(
                f"trapped-mode root k={k} has scaled residual {residual:.3e} > {verify_tol:.1e}"
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


def quantized_momenta(D: int, n_max: int | None = None) -> list[float]:
    """Perfect-mirror momenta pi n / D inside the band, n = 1..min(n_max, D-1)."""
    if not (isinstance(D, int) and D >= 1):
        raise ValueError(f"node separation D must be an integer >= 1, got {D!r}")
    top = D - 1 if n_max is None else min(n_max, D - 1)
    return [math.pi * n / D for n in range(1, top + 1)]


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
