"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from cavitychain import (
    AtomParams,
    ChainSpec,
    LatticeParams,
    ResonanceDenominatorError,
    SingularPotentialError,
    TwoNodeConfig,
    bound_profile,
    decompose_potential,
    dispersion_energy,
    effective_potential,
    eigenmodes,
    find_perfect_reflection,
    find_quasibound_modes,
    momentum_from_energy,
    propagate_wavepacket,
    single_node_scatter,
    solve_stationary,
    two_node_scatter,
)
from cavitychain.cli import main as cli_main
from cavitychain.oracle import design_scattering_run
from cavitychain.sweep import AxisSpec, grid_amplitudes
from helpers import draw_atom, draw_lattice, draw_momentum, draw_two_node

LAT = LatticeParams(omega=1.0, t=2.0)
FIG3A_ATOM = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_flux_conservation():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        lat = draw_lattice(rng)
        k = rng.uniform(0.05, math.pi - 0.05)
        single = single_node_scatter(k, draw_atom(rng), lat)
        if not single.singular:
            worst = max(worst, abs(single.R + single.T - 1.0))
        try:
            double = two_node_scatter(k, draw_two_node(rng), lat)
        except ResonanceDenominatorError:
            continue
        if not double.singular:
            worst = max(worst, abs(double.R + double.T - 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    verdict(1, "flux conservation", ok, f"max |R+T-1| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    for i in range(200):
        lat = draw_lattice(rng)
        k = draw_momentum(rng)
        decay = i % 2 == 1
        if i % 4 in (0, 1):
            atom = draw_atom(rng, two_level=i % 8 >= 4, decay=decay)
            analytic = single_node_scatter(k, atom, lat)
            spec = ChainSpec(24, ((12, atom),), lat)
        else:
            cfg = draw_two_node(rng, decay=decay, d_max=10)
            analytic = two_node_scatter(k, cfg, lat)
            spec = ChainSpec(26 + cfg.D, ((9, cfg.atom1), (9 + cfg.D, cfg.atom2)), lat)
        r, s = solve_stationary(spec, k)
        worst = max(worst, abs(r - analytic.r), abs(s - analytic.s))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    verdict(
        2, "oracle equivalence",
        ok, f"max amplitude deviation = {worst:.2e} over 200 draws in {elapsed:.1f}s",
    )


def test_criterion_03_perfect_transmission():
    rng = np.random.default_rng(303)
    worst = 0.0
    count = 0
    while count < 50:
        lat = draw_lattice(rng)
        atom = draw_atom(rng)
        if abs(atom.delta - lat.omega) >= 2.0 * lat.t - 1e-3:
            continue
        k_star = momentum_from_energy(atom.delta, lat)
        worst = max(worst, single_node_scatter(k_star, atom, lat).R)
        count += 1
    ok = worst <= 1e-12
    verdict(3, "perfect transmission", ok, f"max R at the transparency point = {worst:.2e}")


def test_criterion_04_perfect_reflection():
    rng = np.random.default_rng(404)
    worst = 1.0
    count = 0
    while count < 50:
        lat = draw_lattice(rng)
        atom = AtomParams(
            omega_e=rng.uniform(-3, 3),
            delta=rng.uniform(-3, 3),
            Omega=rng.uniform(0.5, 3.0),
        )
        dec = decompose_potential(atom)
        poles = [
            p for p in dec.poles if abs(p - lat.omega) < 2.0 * lat.t - 1e-3
        ]
        if not poles:
            continue
        for pole in poles:
            for offset in (-1e-6, 1e-6):
                E = pole + offset * atom.g
                if abs(E - lat.omega) >= 2.0 * lat.t:
                    continue
                k = momentum_from_energy(E, lat)
                worst = min(worst, single_node_scatter(k, atom, lat).R)
        count += 1
    ok = worst >= 1.0 - 1e-4
    verdict(4, "perfect reflection", ok, f"min R at 1e-6 from the poles = {1 - worst:.2e} below 1")


def test_criterion_05_double_peak_lineshape():
    k = np.linspace(math.pi / 2000, math.pi - math.pi / 2000, 2000)
    R = np.empty_like(k)
    for i, v in enumerate(k):
        R[i] = single_node_scatter(float(v), FIG3A_ATOM, LAT).R
    eps = np.array([dispersion_energy(float(v), LAT) for v in k])  # delta = 0

    dips = np.where(R < 1e-6)[0]
    one_zero = dips.size > 0 and np.all(np.diff(dips) == 1)
    centre = dips[len(dips) // 2]
    zero_at_origin = abs(eps[centre]) <= eps[centre + 1] - eps[centre - 1]

    maxima = [i for i in range(1, len(k) - 1) if R[i] > R[i - 1] and R[i] > R[i + 1]]
    dec = decompose_potential(FIG3A_ATOM)
    expected = sorted(p for p in dec.poles if abs(p - LAT.omega) < 2 * LAT.t)
    near = []
    for got_idx, want in zip(sorted(maxima, key=lambda i: eps[i]), expected):
        cell = 2 * LAT.t * math.sin(momentum_from_energy(want, LAT)) * (k[1] - k[0])
        near.append(abs(eps[got_idx] - want) <= cell)
    ok = one_zero and zero_at_origin and len(maxima) == 2 and all(near)
    verdict(
        5, "double-peak lineshape",
        ok,
        f"one transparency dip at eps=0, {len(maxima)} maxima at "
        f"{[f'{eps[i]:.4f}' for i in maxima]} vs poles {[f'{p:.4f}' for p in expected]}",
    )


def test_criterion_06_reflection_ridges():
    # fixed momentum pi/2 (E = 1) with a bare level at 0: the perfect-
    # reflection locus is Omega^2 = E(E - delta) with delta = -omega_C
    n_grid = 200
    axes = (
        AxisSpec("Omega", -3.0, 3.0, n_grid),
        AxisSpec("omega_C", -3.0, 3.0, n_grid),
    )
    fixed = {"t": 2.0, "omega": 1.0, "omega_e": 0.0, "omega_a": 0.0, "g": 1.0, "k": math.pi / 2}
    r, _, _ = grid_amplitudes(fixed, axes, "analytic", None)
    R = np.abs(r) ** 2
    omegas = axes[0].values()
    omega_cs = axes[1].values()
    cell = omegas[1] - omegas[0]
    E = 1.0
    checked = 0
    hits = 0
    for j, wc in enumerate(omega_cs):
        product = E * (E + wc)  # delta = -omega_C
        if product < 0.0:
            continue
        target = math.sqrt(product)
        if target > 2.95:
            continue
        column = R[:, j]
        pos = [i for i, om in enumerate(omegas) if om > cell / 2]
        neg = [i for i, om in enumerate(omegas) if om < -cell / 2]
        for side, sign in ((pos, 1.0), (neg, -1.0)):
            checked += 1
            best = max(side, key=lambda i: column[i])
            if abs(omegas[best] - sign * target) <= cell:
                hits += 1
    ok = checked >= 250 and hits == checked
    verdict(
        6, "two reflection ridges",
        ok, f"{hits}/{checked} column maxima on the resonance branches",
    )


def test_criterion_07_decay_bounds():
    atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.04)
    k = np.linspace(0.002, math.pi - 0.002, 2000)
    results = [single_node_scatter(float(v), atom, LAT) for v in k]
    max_T = max(res.T for res in results)
    max_R = max(res.R for res in results)
    min_xi = min(res.xi for res in results)
    elastic = max(
        abs(single_node_scatter(float(v), FIG3A_ATOM, LAT).xi) for v in k[::50]
    )
    ok = max_T < 1.0 and max_R < 1.0 and min_xi >= 0.0 and elastic <= 1e-10
    verdict(
        7, "decay-limited transport",
        ok,
        f"max T = {max_T:.6f}, max R = {max_R:.6f}, min xi = {min_xi:.2e}, "
        f"elastic xi = {elastic:.2e}",
    )


def test_criterion_08_two_node_equivalence():
    rng = np.random.default_rng(808)
    worst = 0.0
    count = 0
    while count < 50:
        D = int(rng.integers(2, 11))
        m = int(rng.integers(1, D))
        k = math.pi * m / D  # round-trip phase exactly 1
        lat = draw_lattice(rng)
        cfg = draw_two_node(rng)
        cfg = TwoNodeConfig(cfg.atom1, cfg.atom2, D)
        E = dispersion_energy(k, lat)
        try:
            v1 = effective_potential(E, cfg.atom1)
            v2 = effective_potential(E, cfg.atom2)
            res = two_node_scatter(k, cfg, lat)
        except (SingularPotentialError, ResonanceDenominatorError):
            continue
        beta = 2j * lat.t * math.sin(k)
        s_single = beta / (beta - (v1 + v2))
        worst = max(worst, abs(abs(res.s) - abs(s_single)))
        count += 1

    # periodicity in the separation with period pi / k
    k = math.pi / 5
    base = TwoNodeConfig(FIG3A_ATOM, AtomParams.two_level(1.3), D=3)
    periodic = True
    ref = two_node_scatter(k, base, LAT)
    for D in (8, 13, 18, 23):
        shifted = two_node_scatter(k, TwoNodeConfig(base.atom1, base.atom2, D), LAT)
        periodic = periodic and abs(shifted.s - ref.s) <= 1e-12
    ok = worst <= 1e-10 and periodic
    verdict(
        8, "two-node equivalence",
        ok, f"max ||s_two|-|s_combined|| = {worst:.2e}, period-5 subsequence identical: {periodic}",
    )


def test_criterion_09_quasibound_quantisation():
    start = time.monotonic()
    D, n = 10, 3
    kn = math.pi * n / D
    En = dispersion_energy(kn, LAT)

    def mirror(offset: float) -> AtomParams:
        base = AtomParams(omega_e=0.2, delta=0.0, Omega=1.0, g=30.0)
        (delta,) = find_perfect_reflection(
            momentum_from_energy(En + offset, LAT), base, LAT, free="delta"
        )
        return AtomParams(omega_e=0.2, delta=delta, Omega=1.0, g=30.0)

    distances = []
    for offset in (1e-2, 1e-3, 1e-4):
        cfg = TwoNodeConfig(mirror(offset), mirror(offset), D)
        modes = [
            m
            for m in find_quasibound_modes(
                cfg, LAT, re_window=(kn - 0.12, kn + 0.12), n_re=10, n_im=5
            )
            if m.n == n
        ]
        assert modes, f"no quantised root found at offset {offset}"
        root = min(modes, key=lambda m: abs(m.k - kn))
        distances.append(abs(root.k - kn))
    monotone = distances[0] > distances[1] > distances[2]

    atom = mirror(1e-4)
    spec = ChainSpec(401, ((195, atom), (205, atom)), LAT)
    modes = eigenmodes(spec)
    trapped = min(modes, key=lambda m: abs(m.energy.real - En))
    profile = np.zeros(spec.dimension)
    profile[195 : 195 + D + 1] = bound_profile(D, n)
    overlap = abs(np.vdot(trapped.vector, profile)) ** 2
    cfg = TwoNodeConfig(atom, atom, D)
    root = min(
        (
            m
            for m in find_quasibound_modes(
                cfg, LAT, re_window=(kn - 0.05, kn + 0.05), n_re=8, n_im=4
            )
            if m.n == n
        ),
        key=lambda m: abs(m.k - kn),
    )
    energy_dev = abs(root.E.real - trapped.energy.real)
    elapsed = time.monotonic() - start
    ok = monotone and overlap > 0.99 and energy_dev <= 1e-4 * LAT.t and elapsed < 60.0
    verdict(
        9, "quasibound quantisation",
        ok,
        f"|k - 3pi/10| = {[f'{d:.1e}' for d in distances]}, overlap = {overlap:.4f}, "
        f"root-vs-mode energy dev = {energy_dev:.1e} in {elapsed:.1f}s",
    )


def test_criterion_10_wavepacket_dynamics():
    start = time.monotonic()
    sigma = 25.0

    k_t = momentum_from_energy(FIG3A_ATOM.delta, LAT)
    chain_t, wp_t = design_scattering_run((FIG3A_ATOM,), LAT, k_t, sigma)
    transmit = propagate_wavepacket(chain_t, wp_t)

    k_r = 1.2
    base = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, g=5.0)
    (omega_r,) = find_perfect_reflection(k_r, base, LAT, free="Omega")
    mirror = AtomParams(omega_e=1.0, delta=0.0, Omega=omega_r, g=5.0)
    chain_r, wp_r = design_scattering_run((mirror,), LAT, k_r, sigma)
    reflect = propagate_wavepacket(chain_r, wp_r)

    elapsed = time.monotonic() - start
    drift = max(transmit.drift, reflect.drift)
    ok = (
        transmit.T_meas >= 0.98
        and reflect.R_meas >= 0.98
        and drift <= 1e-8
        and elapsed < 120.0
    )
    verdict(
        10, "wavepacket dynamics",
        ok,
        f"T_meas = {transmit.T_meas:.4f}, R_meas = {reflect.R_meas:.4f}, "
        f"drift = {drift:.1e} in {elapsed:.1f}s",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    axes = (AxisSpec("k", 0.01, math.pi - 0.01, 300),)
    fixed = {"t": 2.0, "omega": 1.0, "omega_e": 1.0, "delta": 0.0, "Omega": 1.0, "g": 1.0}
    runs = [grid_amplitudes(fixed, axes, "analytic", None) for _ in range(2)]
    sweep_same = all(a.tobytes() == b.tobytes() for a, b in zip(*runs))

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectrum", "--config", "fig3a", "--set", "k_count=300"]
    assert cli_main([*args, "--out", str(out1)]) == 0
    assert cli_main([*args, "--out", str(out2)]) == 0
    files_same = out1.read_bytes() == out2.read_bytes()

    control = cli_main(
        ["oracle-check", "--config", "oracle_check", "--set", "draws=8",
         "--set", "wavepacket_check=false", "--set", "negative_control=r-sign"]
    )
    capsys.readouterr()
    ok = sweep_same and files_same and control == 1
    verdict(
        11, "determinism and negative control",
        ok,
        f"sweep bytes identical: {sweep_same}, CSV bytes identical: {files_same}, "
        f"corrupted-sign gate exit = {control}",
    )
