"""Trapped modes of the secondary cavity formed by two nodes.

A photon caught between two node "mirrors" lives at the complex momenta
where the two-node transport denominator vanishes,

    (b - V1)(b - V2) - e^{2ikD} V1 V2 = 0,    b = 2 i t sin k,

with both potentials evaluated at the continued band energy E(k).  In the
perfect-mirror limit (both potentials diverging) the condition collapses to
e^{2ikD} = 1, quantising the trapped momentum to k = pi n / D; away from
that limit the roots move into the lower half plane and the mode leaks at a
rate -2 Im E.  The roots are the zeros of the pole-free form of the
condition, P22 = 0 for the bottom-right entry of ``chain_scatter``'s
transfer matrix with the nodes at sites 0 and D.  The search window is cut
along Re k into cells about pi / D wide; the argument principle counts the
zeros of g = P22 / sin k in each cell, the cell's contour moments seed them
(Delves & Lyness, Math. Comp. 21, 543 (1967)), and Newton on P22 polishes
them.  A root is converged when one more Newton step would move E(k) by at
most 16 ulps of |omega| + 2t, the rounding E carries into P22.  A cell
whose polished roots do not match its count, or hold an unconverged root,
is seeded again and then cut anew, and the search raises when every cut
placement fails, so no root is missed silently.  The test suite checks the
roots against the lattice: the Siegert states of the segment between the
nodes (Siegert, Phys. Rev. 56, 750 (1939)).
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .errors import UnverifiedRootError
from .model import LatticeParams, dispersion_energy_continued, potential_parts
from .scattering import TwoNodeConfig, _transfer_row

log = logging.getLogger(__name__)

#: Search rectangle in complex momentum: Re k by Im k.
DEFAULT_RE_WINDOW = (0.0, math.pi)
DEFAULT_IM_WINDOW = (-0.5, 0.05)


class QuasiboundMode(NamedTuple):
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


def _factored(k, cfg: TwoNodeConfig, lat: LatticeParams):
    """g = P22 / sin k as e^L h, with the larger of P22's two terms factored out.

    P22 = A - B e^{2ikD}, A = (a1 - n1)(a2 - n2), B = n1 n2, a_j = b den_j.
    Where B e^{2ikD} is the larger, L = 2ikD and h = (A e^{-2ikD} - B) / sin k;
    elsewhere L = 0 and h = g.  The phase of e^L is exactly 2D Re k, and h
    varies slowly away from the roots, so the window's lower edge needs no
    sample per turn of e^{2ikD}, and nothing overflows there at large D.
    Also returns the ratio of the smaller term to the larger, at most 1.
    """
    E = lat.omega - 2.0 * lat.t * np.cos(k)
    sin = np.sin(k)
    b = 2j * lat.t * sin
    n1, d1, _ = potential_parts(E, cfg.atom1)
    n2, d2, _ = (n1, d1, None) if cfg.atom2 == cfg.atom1 else potential_parts(E, cfg.atom2)
    A, B = (b * d1 - n1) * (b * d2 - n2), n1 * n2
    L = 2j * cfg.D * k
    with np.errstate(all="ignore"):  # the exponential is finite where it is taken
        ratio = np.log(np.abs(B) / np.abs(A)) - 2.0 * cfg.D * k.imag  # log |B e^{2ikD} / A|
        trapped = ratio > 0.0
        e = np.exp(np.where(trapped, -L, L))
        h = np.where(trapped, A * e - B, A - B * e) / sin
    return np.where(trapped, L, 0.0), h, np.exp(-np.abs(ratio))


def _log_steps(k, path, L, h, weaker):
    """Change of log g over each step between neighbouring samples of one path.

    Where both samples carry L = 2ikD its change is exact, and only log h is
    taken on its principal branch; elsewhere the whole of log g is.  Also
    returns the size of that principal-branch part, the step's unknown turn,
    and the step's length times the larger weaker-term ratio at its ends.
    Steps between two paths are zero.
    """
    both = (L[1:] != 0.0) & (L[:-1] != 0.0)
    dL = L[1:] - L[:-1]
    with np.errstate(all="ignore"):
        turn = np.log(h[1:] / h[:-1] * np.exp(np.where(both, 0.0, dL)))
    same = path[1:] == path[:-1]
    spread = np.abs(np.diff(k)) * np.maximum(weaker[1:], weaker[:-1])
    return (np.where(same, turn + np.where(both, dL, 0.0), 0.0), np.where(same, np.abs(turn), 0.0),
            np.where(same, spread, 0.0))


def _trace(xs, im_lo, im_hi, width, cfg: TwoNodeConfig, lat: LatticeParams):
    """Sample the window's lower and upper edges and its cut lines Re k = xs.

    Path 0 is the lower edge, path 1 the upper one, both left to right from 2
    steps per cell; path 2 + i is the line Re k = xs[i], bottom to top from 8
    steps.  A step is coarse while its unknown turn exceeds pi/4, or while
    its length times the larger weaker-term ratio at its ends exceeds
    width / 8.  That bounds the error of taking log g as linear between
    samples, and keeps the weaker term, turning with e^{2ikD}, from turning
    the phase by more than about pi/4 in a step.  On the window's
    boundary, whose winding counts the roots the search must find, a step is
    also coarse while its length times the change of the slope of log g
    from a neighbouring step exceeds 1: two roots close to one long step
    would turn the phase by a whole turn unseen, but not without bending
    |g|.  A coarse step is cut into as many equal steps as it exceeds its
    bound by, 4 to 64, and into at least 16 when it turns by more than
    pi/2: it then passes close to a root, and must get as close.  A round
    evaluates g at its new samples only and merges them and their steps into
    the arrays in one pass.  Returns the samples, their paths, the mask of
    the cell corners on paths 0 and 1, the change of log g over each step,
    the paths that still hold a coarse step 1e-12 long or a sample where g
    is zero or undefined (such a path runs through a root), and the round count.
    """
    cells = len(xs) - 1
    along = np.empty(2 * cells + 1)
    along[::2], along[1::2] = xs, xs[:-1] + 0.5 * np.diff(xs)
    up = np.linspace(im_lo, im_hi, 9)
    k = np.concatenate([along + 1j * im_lo, along + 1j * im_hi, (xs[:, None] + 1j * up).ravel()])
    path = np.repeat(np.arange(cells + 3), [len(along)] * 2 + [len(up)] * (cells + 1))
    corner = np.zeros(len(k), bool)
    corner[: len(along) : 2] = corner[len(along) : 2 * len(along) : 2] = True
    step, turn, spread = _log_steps(k, path, *_factored(k, cfg, lat))
    tol = width / 8.0
    rounds = 0
    while True:
        length = np.abs(np.diff(k))
        rim = (path[1:] == path[:-1]) & ((path[1:] < 3) | (path[1:] == cells + 2))
        slope = np.where(rim, step / np.where(rim, length, 1.0), np.nan)
        bend = np.full(len(k), np.nan)  # the change of slope from each step's neighbours
        bend[1:-1] = np.abs(np.diff(slope))
        bend = np.fmax(bend[:-1], bend[1:]) * length
        excess = np.fmax(np.maximum(turn / (0.25 * math.pi), spread / tol), bend)
        broken = ~np.isfinite(step)  # a sample on a root, or on k = 0 or pi
        j = np.flatnonzero((excess > 1.0) & ~broken)
        stuck = path[np.concatenate((j[length[j] < 1e-12], np.flatnonzero(broken)))]
        if len(j) == 0 or len(stuck):
            return k, path, corner, step, stuck, rounds
        rounds += 1
        # coarse step j becomes pieces[j] steps through pieces[j] - 1 new samples
        fewest = np.where(turn[j] > 0.5 * math.pi, 16, 4)
        pieces = np.clip(np.ceil(excess[j]), fewest, 64).astype(int)
        row = np.repeat(np.arange(len(j)), pieces + 1)
        first = np.cumsum(pieces + 1) - (pieces + 1)
        fraction = (np.arange(len(row)) - first[row]) / pieces[row]
        sub = k[j][row] + (k[j + 1] - k[j])[row] * fraction
        sub[first + pieces] = k[j + 1]
        parts = _log_steps(sub, row, *_factored(sub, cfg, lat))
        inner = np.ones(len(sub), bool)
        inner[first], inner[first + pieces] = False, False
        # One merge: an old sample moves right by the new samples of the coarse
        # steps before it, and the m-th new sample of step j lands m after k[j].
        shift = np.zeros(len(k), int)
        shift[j + 1] = pieces - 1
        old = np.arange(len(k)) + np.cumsum(shift)
        new = np.flatnonzero(inner) + np.repeat(old[j] - first, pieces - 1)
        for a, b in zip((step, turn, spread), parts):  # a step's first piece starts at its old sample
            a[j] = b[first]
        k, path, corner, step, turn, spread = (
            _merged(a, b, old[: len(a)], new) for a, b in
            ((k, sub[inner]), (path, path[j].repeat(pieces - 1)), (corner, False),
             *((a, b[inner[:-1]]) for a, b in zip((step, turn, spread), parts))))


def _merged(a, b, old, new):
    """a's entries at the positions old and b's at the positions new."""
    merged = np.empty(len(old) + len(new), a.dtype)
    merged[old], merged[new] = a, b
    return merged


def _seeds(cfg: TwoNodeConfig, lat: LatticeParams, xs, im_window, width):
    """The window's ``_cells``: root counts and contour-moment seeds of the cells Re k in xs.

    Apart from ``_cells`` so that a test can replace the window's seeds and
    leave those of ``_box_search`` and ``_uncertified`` alone.
    """
    return _cells(cfg, lat, xs, im_window, width)


def _box_search(cfg: TwoNodeConfig, lat: LatticeParams, xs, counts, seeds, cells, im_window,
                unsettled) -> int:
    """Seed again each multi-root cell some of whose seeds fall outside it or do not converge.

    Such a cell holds a cluster its moments do not resolve; ``unsettled``
    marks the seeds whose polished roots have not converged.  It is seeded
    again, in place in ``seeds``, from the smallest of a sequence of boxes
    about its seeds' centroid that still holds all its roots: the first as
    wide as the cell, each next one a quarter of the last, grown by 4
    instead while none holds them, until one does or a box's seeds lie half
    its half-width apart.  Returns the number of cells so seeded.
    """
    im_lo, im_hi = im_window
    outside = (seeds.real <= xs[cells]) | (seeds.real >= xs[cells + 1])
    outside |= (seeds.imag <= im_lo) | (seeds.imag >= im_hi)
    boxed = np.unique(cells[(outside | unsettled) & (counts[cells] > 1)])
    for i in boxed:
        (x0, x1), own = xs[i : i + 2], cells == i
        best, r, held = seeds[own], x1 - x0, False
        while True:
            c = best.mean()
            box = np.array([max(x0, c.real - r), min(x1, c.real + r)])
            tall = (max(im_lo, c.imag - r), min(im_hi, c.imag + r))
            try:
                _, (n,), box_seeds, _, _ = _cells(cfg, lat, box, tall, 2.0 * r)
            except UnverifiedRootError:  # a side of the box runs through a root
                n = -1
            if n == counts[i]:
                best, held = box_seeds, True
                gaps = np.abs(best[:, None] - best[None, :]) + np.eye(len(best)) * r
                if gaps.min() >= 0.5 * r:
                    break
                r *= 0.25
            elif not held and r < max(x1 - x0, im_hi - im_lo):
                r *= 4.0
            else:
                break
        seeds[own] = best
    return len(boxed)


def _cells(cfg: TwoNodeConfig, lat: LatticeParams, xs, im_window, width):
    """Root counts and seeds of the cells Re k in xs by Im k in ``im_window``.

    A cut whose contour cannot be resolved runs through a root and moves a
    quarter of its cell to the right; a side xs[0] or xs[-1] or of
    ``im_window`` that runs through one raises UnverifiedRootError.  Along
    each cell's contour, from its lower-left corner k0 with log g continued
    from the samples, the moments about its centre c are
    s_p = N (k0 - c)^p - p / (2 pi i) oint (k - c)^{p-1} log g dk, integrated
    exactly for log g linear between samples.  A cell holding one root is
    seeded at its centre c plus s_1; one holding more at c plus the roots of
    the polynomial whose power sums, by Newton's identities, are its s_p.
    Returns the cut edges, the counts, the seeds, each seed's cell, and the
    contour's size: its samples and the refinement rounds that placed them.
    """
    im_lo, im_hi = im_window
    cuts = xs[1:-1].copy()
    while True:
        xs = np.concatenate(([xs[0]], cuts, [xs[-1]]))
        k, path, corner, step, stuck, rounds = _trace(xs, im_lo, im_hi, width, cfg, lat)
        if not len(stuck):
            break
        moved = np.unique(stuck) - 3  # path 3 + i is cuts[i]
        if moved[0] < 0 or moved[-1] >= len(cuts):
            raise UnverifiedRootError(
                "a trapped-mode root, or k = 0 or pi, lies on the search window's boundary")
        cuts[moved] += 0.25 * (xs[moved + 2] - xs[moved + 1])
    cells = len(xs) - 1
    # log g along each path, from 0 at its first sample
    log_g = np.zeros(len(k), complex)
    np.cumsum(step, out=log_g[1:])
    start = np.flatnonzero(np.diff(path, prepend=-1))
    end = np.append(start[1:], len(k))
    log_g -= np.repeat(log_g[start], end - start)
    lower, upper = log_g[corner & (path == 0)], log_g[corner & (path == 1)]
    rise = log_g[end[2:] - 1]  # over each cut line
    winding = (np.diff(lower) + rise[1:] - np.diff(upper) - rise[:-1]).imag / (2.0 * math.pi)
    counts = np.round(winding).astype(int)
    if np.any(np.abs(winding - counts) > 0.01):
        raise UnverifiedRootError(f"the contour's winding numbers {winding} are not counts")
    # log g on each side of a cell, continued around it from the lower-left corner:
    # the lower side as path 0 (from 0 there), then the right, upper and left sides
    right = lower[1:]
    top = right + rise[1:] - upper[1:]
    left = upper[:-1] + top - rise[:-1]
    j = np.flatnonzero(path[1:] == path[:-1])
    cell_of = np.cumsum(corner) - 1 - np.where(path == 1, cells + 1, 0)
    lower_j, upper_j, line_j = j[path[j] == 0], j[path[j] == 1], j[path[j] >= 2]
    line = path[line_j] - 2
    sides = [(lower_j, cell_of[lower_j], 1.0, np.zeros(cells)),
             (upper_j, cell_of[upper_j], -1.0, top),
             (line_j[line >= 1], line[line >= 1] - 1, 1.0, right),
             (line_j[line < cells], line[line < cells], -1.0, left)]
    centre = 0.5 * (xs[:-1] + xs[1:]) + 0.5j * (im_lo + im_hi)
    k0 = xs[:-1] + 1j * im_lo - centre

    def moment(p):
        """s_p about each centre, over the cells holding p roots or more."""
        integral = np.zeros(cells, complex)
        for j, cell, sign, offset in sides:
            held = counts[cell] >= p
            j, cell = j[held], cell[held]
            a, dk = k[j] - centre[cell], k[j + 1] - k[j]
            ell, dell = log_g[j] + offset[cell], log_g[j + 1] - log_g[j]
            # exact integral over the step of (k - c)^{p-1} times log g linear in the step
            part = sign * dk * sum(math.comb(p - 1, i) * a ** (p - 1 - i) * dk ** i
                                   * (ell / (i + 1) + dell / (i + 2)) for i in range(p))
            integral += np.bincount(cell, part.real, cells)
            integral += 1j * np.bincount(cell, part.imag, cells)
        return counts * k0 ** p - p * integral / (2j * math.pi)

    s = [moment(p) for p in range(1, max(counts.max(initial=0), 1) + 1)]
    seed_cells = [np.flatnonzero(counts == 1)]
    seeds = [centre[seed_cells[0]] + s[0][seed_cells[0]]]
    for i in np.flatnonzero(counts > 1):
        e = [1.0]
        for n in range(1, counts[i] + 1):  # Newton's identities
            e.append(sum((-1) ** (q - 1) * e[n - q] * s[q - 1][i] for q in range(1, n + 1)) / n)
        seeds.append(centre[i] + np.roots([(-1) ** n * e[n] for n in range(counts[i] + 1)]))
        seed_cells.append(np.full(counts[i], i))
    seed_cells = np.concatenate(seed_cells)
    order = np.argsort(seed_cells, kind="stable")
    return xs, counts, np.concatenate(seeds).astype(complex)[order], seed_cells[order], (len(k), rounds)


def _newton_step(ks, cfg: TwoNodeConfig, lat: LatticeParams) -> tuple[np.ndarray, np.ndarray]:
    """Newton's step P22 / P22' at each k, the slope a central difference over 2e-7.

    P22 is ``_transfer_row``'s for nodes at 0 and D; also returns |P22| / norm.
    """
    h = 1e-7
    k = np.stack([ks - h, ks, ks + h])
    E, b = lat.omega - 2.0 * lat.t * np.cos(k), 2j * lat.t * np.sin(k)
    _, (behind, P22, ahead), norm, _, _ = _transfer_row(k, E, b, [(0, cfg.atom1), (cfg.D, cfg.atom2)])
    return 2.0 * h * P22 / (ahead - behind), np.abs(P22) / norm[1]


def _aberth_step(ks, i, cells, cfg: TwoNodeConfig, lat: LatticeParams):
    """Newton's step at the roots ks[i], deflated by the other roots of each one's cell.

    That is Aberth's correction, so that two seeds cannot settle on one
    root; ``cells`` is sorted.  Also returns how far each step moves
    E(k) = omega - 2t cos k in ulps of |omega| + 2t, the rounding of E that
    bounds how still Newton on P22 can get (NaN, which passes no bound,
    where two roots coincide), and the roots' scaled residuals.
    """
    with np.errstate(all="ignore"):
        newton, residual = _newton_step(ks[i], cfg, lat)
        pull = np.zeros(len(ks), complex)
        for s in range(1, int(np.bincount(cells).max(initial=1))):
            inverse = np.where(cells[s:] == cells[:-s], 1.0 / (ks[s:] - ks[:-s]), 0.0)
            pull[s:] += inverse
            pull[:-s] -= inverse
        step = newton / (1.0 - newton * pull[i])
        ulps = np.abs(step * 2.0 * lat.t * np.sin(ks[i])) / np.spacing(abs(lat.omega) + 2.0 * lat.t)
    return step, ulps, residual


def _polish(ks, cells, cfg: TwoNodeConfig, lat: LatticeParams) -> tuple[np.ndarray, np.ndarray]:
    """Newton on P22 (``_aberth_step``) until each step moves E(k) by at most 8 ulps.

    The slope is a central difference, exact for a quadratic: a forward one
    stalls 1e-8 short of a root 1e-7 from the next.  Also returns the mask of
    the roots still moving after 64 steps, which keep their last value.
    """
    ks = ks.copy()
    moving = np.ones(len(ks), bool)
    for _ in range(64):
        i = np.flatnonzero(moving)
        if not len(i):
            break
        step, ulps, _ = _aberth_step(ks, i, cells, cfg, lat)
        ks[i] -= step
        moving[i] = ~(ulps <= 8.0)
    return ks, moving


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

    The window's Re k bounds are exclusive by 1e-6, so that its sides stay
    off the band-edge roots on Re k = 0 and pi; a window left empty, Re k's
    2e-6 wide or narrower, raises ValueError before the search.  Cut lines at
    (m + 1/2) pi / D, halfway between the perfect-mirror momenta and none
    within a quarter cell of the window's sides, split it into cells.
    ``_seeds`` counts each cell's roots by the argument principle and seeds
    them from its contour moments, and ``_polish`` runs Newton on P22.  The
    certificate has one rule for a root: it is converged when one more
    Newton step would move E(k) by at most 16 ulps of |omega| + 2t.  Each
    cell must hold as many distinct converged roots inside the window as it
    counts, a multiple root counting as many as ``_uncertified`` finds it
    has.  A placement that fails has its multi-root cells whose moments left
    a cluster unresolved, or that hold an unconverged root, box-searched
    (``_box_search``), and every seed polished again.  Roots close to a cut
    line can spoil its count, so when a cell still fails, every cut moves to
    (m + 3/4) pi / D and then to (m + 1/4) pi / D, and the search runs
    again; UnverifiedRootError, naming the last placement's failure, is
    raised when all three placements fail.  Results are sorted by
    (Re k, Im k); a mode's ``residual`` is read off the certifying step.
    ``n_re`` and ``n_im`` are accepted and ignored (they sized an earlier
    seed grid).
    ``return_diagnostics`` adds the window's root count by the argument
    principle (``winding``), the number of cells, the window-root count, the
    largest scaled residual, the largest certifying step in ulps of
    |omega| + 2t (``settle_ulps``, at most 16), the cut placement that
    certified (``cut_shift``: 0.5, 0.75 or 0.25), and the size of the
    contour that counted the roots: its samples (``contour_samples``) on the
    window's edges and cut lines, and the refinement rounds of ``_trace``
    that placed them (``refinement_rounds``); ``box_searches`` counts the
    cells seeded again from boxes, over every placement tried.
    """
    re_lo, re_hi = re_window[0] + 1e-6, re_window[1] - 1e-6
    if not re_lo < re_hi:
        raise ValueError("window_re_min must be below window_re_max by more than 2e-6, "
                         f"got {re_window}")
    if not im_window[0] < im_window[1]:
        raise ValueError(f"window_im_min must be below window_im_max, got {im_window}")
    width = math.pi / cfg.D
    box_searches = 0
    for shift in (0.5, 0.75, 0.25):
        m = np.arange(math.ceil(re_lo / width - shift), math.floor(re_hi / width - shift) + 1)
        cuts = (m + shift) * width
        cuts = cuts[(re_lo + 0.25 * width < cuts) & (cuts < re_hi - 0.25 * width)]
        xs = np.concatenate(([re_lo], cuts, [re_hi]))
        xs, counts, seeds, seed_cells, (samples, rounds) = _seeds(cfg, lat, xs, im_window, width)
        boxed = 0
        while True:  # once, and once more if a box search seeds any cell again
            ks, moving = _polish(seeds, seed_cells, cfg, lat)
            _, ulps, residuals = _aberth_step(ks, slice(None), seed_cells, cfg, lat)  # one more, not taken
            unsettled = ~(ulps <= 16.0)
            wrong = _uncertified(ks, unsettled, moving, xs, counts, im_window, cfg, lat)
            if not wrong or boxed:
                break
            boxed = _box_search(cfg, lat, xs, counts, seeds, seed_cells, im_window, unsettled)
            if not boxed:
                break
        box_searches += boxed
        if not wrong:
            break
        log.debug("D=%d, cut lines at (m + %g) pi / D: %s", cfg.D, shift, wrong)
    else:
        raise UnverifiedRootError(wrong)
    modes = []
    for k, residual in zip(ks.tolist(), residuals.tolist()):
        E = dispersion_energy_continued(k, lat)
        n = _mode_index(k, cfg.D)
        modes.append(
            QuasiboundMode(k=k, E=E, leakage=-2.0 * E.imag, n=n, residual=residual)
        )
    modes.sort(key=lambda m: (m.k.real, m.k.imag))
    diagnostics = {
        "winding": int(counts.sum()),
        "cells": len(counts),
        "window_roots": len(modes),
        "max_residual": max((m.residual for m in modes), default=0.0),
        "settle_ulps": float(ulps.max(initial=0.0)),
        "cut_shift": shift,
        "contour_samples": samples,
        "refinement_rounds": rounds,
        "box_searches": box_searches,
    }
    log.debug("D=%d: %s", cfg.D, diagnostics)
    return (modes, diagnostics) if return_diagnostics else modes


def _uncertified(ks, unsettled, moving, xs, counts, im_window, cfg: TwoNodeConfig,
                 lat: LatticeParams) -> str:
    """What fails the certificate, or "" when each cell holds as many distinct converged roots as it counts.

    ``unsettled`` marks the roots the certificate finds unconverged,
    ``moving`` those ``_polish`` left moving.  Roots of one cell within 1e-12
    of each other pass only as one multiple root: the argument principle must
    count as many roots in a box 1e-9 about them.  A pair closer than about
    1e-8 is a double root to P22's rounding, and Newton takes both its seeds
    to one point.
    """
    cell = np.searchsorted(xs, ks.real) - 1
    inside = (xs[0] < ks.real) & (ks.real < xs[-1])
    inside &= (im_window[0] < ks.imag) & (ks.imag < im_window[1])
    found = np.bincount(cell[inside], minlength=len(counts))
    if not inside.all() or np.any(found != counts):
        wrong = found != counts
        return (f"Newton left {np.count_nonzero(~inside)} roots outside the window, and the cells "
                f"Re k > {xs[:-1][wrong].round(6).tolist()} hold {found[wrong].tolist()} "
                f"roots where the argument principle counts {counts[wrong].tolist()}")
    if unsettled.any():
        j = np.flatnonzero(unsettled)[0]
        why = ("is still moving after 64 Newton steps" if moving[j]
               else "would move E(k) by more than 16 ulps in one more Newton step")
        return f"trapped-mode root k={ks[j]} {why}, and Newton has not converged on it"
    order = np.lexsort((ks.imag, ks.real))
    repeat = (cell[order][1:] == cell[order][:-1]) & (np.abs(np.diff(ks[order])) <= 1e-12)
    for k in ks[order][1:][repeat]:
        repeats = np.count_nonzero(np.abs(ks - k) <= 1e-12)
        try:
            _, (n,), _, _, _ = _cells(cfg, lat, np.array([k.real - 1e-9, k.real + 1e-9]),
                                  (k.imag - 1e-9, k.imag + 1e-9), 2e-9)
        except UnverifiedRootError:  # a side of the box runs through another root
            n = 0
        if n != repeats:
            return f"{repeats} seeds of one cell converged to the same trapped-mode root {k}"
    return ""


def _mode_index(k: complex, D: int) -> int | None:
    n = round(k.real * D / math.pi)
    if 1 <= n <= D - 1 and abs(k - math.pi * n / D) < 0.25 * math.pi / D:
        return n
    return None


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
