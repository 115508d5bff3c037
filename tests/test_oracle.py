import math

import numpy as np
import pytest

from cavitychain import (
    AtomParams,
    ChainSpec,
    InsufficientChainError,
    IntegratorDriftError,
    LatticeParams,
    PlacementError,
    TwoNodeConfig,
    WavepacketSpec,
    build_hamiltonian,
    decompose_potential,
    design_wavepacket,
    dispersion_energy,
    eigenmodes,
    find_perfect_reflection,
    momentum_from_energy,
    propagate_wavepacket,
    single_node_scatter,
    solve_stationary,
    two_node_scatter,
)
from cavitychain import oracle
from cavitychain.oracle import design_scattering_run
from helpers import draw_atom, draw_lattice, draw_momentum, draw_two_node

LAT = LatticeParams(omega=1.0, t=2.0)
FIG3A_ATOM = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)


def _initial_state_and_cap(spec, wp):
    """The normalised Gaussian packet and the absorbing potential on all levels."""
    n = spec.n_sites
    cap = np.zeros(spec.dimension)
    if wp.absorber_width:
        ramp = (np.arange(wp.absorber_width, 0, -1) / wp.absorber_width) ** 2
        cap[: wp.absorber_width] = wp.absorber_strength * ramp
        cap[n - wp.absorber_width : n] = wp.absorber_strength * ramp[::-1]
    j = np.arange(n)
    psi0 = np.zeros(spec.dimension, dtype=complex)
    psi0[:n] = np.exp(-((j - wp.x0) ** 2) / (4.0 * wp.sigma**2) + 1j * wp.k0 * j)
    return psi0 / np.linalg.norm(psi0), cap


def _measure(spec, psi, takes):
    """R and T from a final state and the (left, right) absorber takes."""
    prob = np.abs(psi[: spec.n_sites]) ** 2
    mid = spec.origin
    left = spec.sites[0] if spec.placements else mid
    right = spec.sites[-1] if spec.placements else mid
    return prob[:left].sum() + takes[0], prob[right + 1 :].sum() + takes[1], *takes


def _eigenbasis_run(spec, wp):
    """R, T and both absorber takes from exact propagation in the eigenbasis of H.

    The absorbed probability is the closed-form time integral of the flux
    psi^H 2C psi: c^H (V^H C V * K) c with
    K_ab = (exp(i (l_a* - l_b) T) - 1) / (i (l_a* - l_b)).
    """
    T = wp.tmax
    psi0, cap = _initial_state_and_cap(spec, wp)
    H = build_hamiltonian(spec) - 1j * np.diag(cap)
    if spec.is_decay_free and not wp.absorber_width:
        values, vectors = np.linalg.eigh(H)
        c = vectors.conj().T @ psi0
    else:
        values, vectors = np.linalg.eig(H)
        c = np.linalg.solve(vectors, psi0)
    z = 1j * (values.conj()[:, None] - values[None, :]) * T
    K = T * np.where(z == 0, 1.0, np.expm1(z) / np.where(z == 0, 1.0, z))
    takes = []
    for side in (slice(0, spec.origin), slice(spec.origin, spec.dimension)):
        C = np.zeros(spec.dimension)
        C[side] = 2.0 * cap[side]
        takes.append(float((c.conj() @ ((vectors.conj().T @ (C[:, None] * vectors)) * K) @ c).real))
    return _measure(spec, vectors @ (np.exp(-1j * values * T) * c), takes)


def _taylor_run(spec, wp, order=20):
    """R, T and both absorber takes from a Taylor-series propagation.

    For strong absorbers the eigenvectors of H are too ill-conditioned for
    _eigenbasis_run.  Here each step of length dt <= 1 / ||H||_1 expands
    psi(t + tau) as a degree-``order`` polynomial in tau, so the flux
    psi^H 2C psi is a polynomial that order + 1 Gauss-Legendre nodes
    integrate exactly.
    """
    psi, cap = _initial_state_and_cap(spec, wp)
    A = -1j * (build_hamiltonian(spec) - 1j * np.diag(cap))
    steps = math.ceil(wp.tmax * np.linalg.norm(A, 1))
    dt = wp.tmax / steps
    x, w = np.polynomial.legendre.leggauss(order + 1)
    at_nodes = (0.5 * dt * (x + 1.0))[:, None] ** np.arange(order + 1)
    at_end = dt ** np.arange(order + 1)
    flux = np.zeros((2, spec.dimension))
    flux[0, : spec.origin] = 2.0 * cap[: spec.origin]
    flux[1, spec.origin :] = 2.0 * cap[spec.origin :]
    takes = np.zeros(2)
    for _ in range(steps):
        terms = [psi]
        for m in range(1, order + 1):
            terms.append(A @ terms[-1] / m)
        terms = np.array(terms)
        takes += flux @ (np.abs(at_nodes @ terms) ** 2).T @ (0.5 * dt * w)
        psi = at_end @ terms
    return _measure(spec, psi, takes)


def _row_by_row_solve(spec, k):
    """(r, s) from the stationary system written out entry by entry, row by row."""
    E = dispersion_energy(k, spec.lat)
    n, dim = spec.n_sites, spec.dimension
    M = np.zeros((dim + 2, dim + 2), dtype=complex)
    b = np.zeros(dim + 2, dtype=complex)
    node_of_site = {site: m for m, site in enumerate(spec.sites)}
    rows = []
    for j in (0, 1):
        rows.append({j: 1.0, dim: -np.exp(-1j * k * (j - spec.origin))})
        b[j] = np.exp(1j * k * (j - spec.origin))
    for j in range(1, n - 1):
        row = {j - 1: -spec.lat.t, j: spec.lat.omega - 0.5j * spec.kappa - E, j + 1: -spec.lat.t}
        if j in node_of_site:
            row[n + 2 * node_of_site[j]] = spec.placements[node_of_site[j]][1].g
        rows.append(row)
    for j in (n - 2, n - 1):
        rows.append({j: 1.0, dim + 1: -np.exp(1j * k * (j - spec.origin))})
    for m, (site, atom) in enumerate(spec.placements):
        e, a = n + 2 * m, n + 2 * m + 1
        rows.append({e: atom.excited_level - E, site: atom.g, a: atom.Omega})
        rows.append({a: atom.metastable_level - E, e: atom.Omega})
    for i, row in enumerate(rows):
        for j, value in row.items():
            M[i, j] = value
    sol = np.linalg.solve(M, b)
    return complex(sol[dim]), complex(sol[dim + 1])


class TestChainSpec:
    def test_minimum_size(self):
        with pytest.raises(PlacementError):
            ChainSpec(15, (), LAT)

    def test_buffer_and_range(self):
        with pytest.raises(PlacementError):
            ChainSpec(32, ((2, FIG3A_ATOM),), LAT)
        with pytest.raises(PlacementError):
            ChainSpec(32, ((30, FIG3A_ATOM),), LAT)

    def test_duplicates_and_order(self):
        with pytest.raises(PlacementError):
            ChainSpec(32, ((10, FIG3A_ATOM), (10, FIG3A_ATOM)), LAT)
        with pytest.raises(PlacementError):
            ChainSpec(32, ((12, FIG3A_ATOM), (10, FIG3A_ATOM)), LAT)

    def test_dimension_counts_node_levels(self):
        spec = ChainSpec(32, ((10, FIG3A_ATOM), (14, FIG3A_ATOM)), LAT)
        assert spec.dimension == 36


class TestBuildHamiltonian:
    def test_free_chain_is_tridiagonal(self):
        spec = ChainSpec(16, (), LAT)
        H = build_hamiltonian(spec)
        assert H.shape == (16, 16)
        assert np.all(np.diag(H) == LAT.omega)
        assert np.all(np.diag(H, 1) == -LAT.t)
        assert np.count_nonzero(H - np.diag(np.diag(H)) - np.diag(np.diag(H, 1), 1) - np.diag(np.diag(H, -1), -1)) == 0
        eigs = np.linalg.eigvalsh(H.real)
        assert eigs.min() >= LAT.band_bottom - 1e-12
        assert eigs.max() <= LAT.band_top + 1e-12

    def test_exact_coupling_elements(self):
        atom = AtomParams(omega_e=0.3, delta=-0.2, Omega=1.0, g=1.0)
        spec = ChainSpec(20, ((9, atom),), LAT)
        H = build_hamiltonian(spec)
        e, a = 20, 21
        assert H[9, e] == 1.0 and H[e, 9] == 1.0
        assert H[e, a] == 1.0 and H[a, e] == 1.0
        assert H[e, e] == 0.3 and H[a, a] == -0.2

    def test_control_off_decouples_metastable_level(self):
        atom = AtomParams.two_level(1.5)
        spec = ChainSpec(20, ((9, atom),), LAT)
        H = build_hamiltonian(spec)
        a = 21
        row = H[a].copy()
        row[a] = 0.0
        assert np.all(row == 0.0)
        col = H[:, a].copy()
        col[a] = 0.0
        assert np.all(col == 0.0)

    def test_hermitian_without_decay(self):
        spec = ChainSpec(24, ((11, FIG3A_ATOM),), LAT)
        H = build_hamiltonian(spec)
        assert np.array_equal(H, H.conj().T)

    def test_decay_on_the_diagonal(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.02)
        spec = ChainSpec(24, ((11, atom),), LAT, kappa=0.1)
        H = build_hamiltonian(spec)
        assert H[24, 24] == 1.0 - 0.04j
        assert H[25, 25] == 0.0 - 0.02j
        assert H[0, 0] == LAT.omega - 0.05j


class TestStationarySolve:
    def test_free_chain_transmits_everything(self):
        spec = ChainSpec(32, (), LAT)
        r, s = solve_stationary(spec, 1.1)
        assert abs(r) <= 1e-12
        assert abs(s - 1.0) <= 1e-12

    def test_single_node_agrees_with_closed_form(self):
        spec = ChainSpec(41, ((20, FIG3A_ATOM),), LAT)
        for k in (0.3, math.pi / 3, 1.6, 2.8):
            r, s = solve_stationary(spec, k)
            res = single_node_scatter(k, FIG3A_ATOM, LAT)
            assert abs(r - res.r) <= 1e-9
            assert abs(s - res.s) <= 1e-9

    def test_two_node_hand_case(self):
        lat = LatticeParams(omega=1.0, t=1.0)
        node = AtomParams.two_level(2.0)
        spec = ChainSpec(41, ((18, node), (22, node)), lat)
        r, s = solve_stationary(spec, math.pi / 2)
        assert abs(r) ** 2 == pytest.approx(0.5, abs=1e-9)
        assert abs(s) ** 2 == pytest.approx(0.5, abs=1e-9)
        res = two_node_scatter(math.pi / 2, TwoNodeConfig(node, node, D=4), lat)
        assert abs(r - res.r) <= 1e-9
        assert abs(s - res.s) <= 1e-9

    def test_agreement_over_random_draws(self):
        rng = np.random.default_rng(61)
        for i in range(40):
            lat = draw_lattice(rng)
            k = draw_momentum(rng)
            decay = i % 3 == 2
            if i % 2:
                cfg = draw_two_node(rng, decay=decay, d_max=8)
                spec = ChainSpec(
                    24 + cfg.D, ((8, cfg.atom1), (8 + cfg.D, cfg.atom2)), lat
                )
                res = two_node_scatter(k, cfg, lat)
            else:
                atom = draw_atom(rng, decay=decay)
                spec = ChainSpec(24, ((12, atom),), lat)
                res = single_node_scatter(k, atom, lat)
            r, s = solve_stationary(spec, k)
            assert abs(r - res.r) <= 1e-8
            assert abs(s - res.s) <= 1e-8

    def test_finite_size_independence(self):
        # constraint rows impose exact plane waves; size only affects conditioning
        atom = AtomParams(omega_e=0.4, delta=-0.7, Omega=1.3)
        small = ChainSpec(48, ((24, atom),), LAT)
        large = ChainSpec(96, ((48, atom),), LAT)
        for k in (0.5, 1.3, 2.7):
            r1, s1 = solve_stationary(small, k)
            r2, s2 = solve_stationary(large, k)
            assert abs(r1 - r2) <= 1e-10
            assert abs(s1 - s2) <= 1e-10

    def test_decay_matches_complex_frequency_substitution(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.04)
        spec = ChainSpec(41, ((20, atom),), LAT)
        for k in (0.8, 1.9):
            r, s = solve_stationary(spec, k)
            res = single_node_scatter(k, atom, LAT)
            assert abs(r - res.r) <= 1e-8
            assert abs(s - res.s) <= 1e-8

    def test_uniform_cavity_leakage_drains_flux(self):
        spec = ChainSpec(41, ((20, FIG3A_ATOM),), LAT, kappa=0.05)
        r, s = solve_stationary(spec, 1.3)
        assert abs(r) ** 2 + abs(s) ** 2 < 1.0

    def test_singular_far_mirror_limit_matches_the_solver(self):
        # the lattice system stays regular on a potential pole, so it checks
        # the closed-form limit taken when only the second node diverges
        other = AtomParams(omega_e=-2.0, delta=0.5, Omega=0.7)
        k = momentum_from_energy(decompose_potential(FIG3A_ATOM).omega_plus, LAT)
        res = two_node_scatter(k, TwoNodeConfig(other, FIG3A_ATOM, D=3), LAT)
        assert res.singular
        spec = ChainSpec(41, ((18, other), (21, FIG3A_ATOM)), LAT)
        r, s = solve_stationary(spec, k)
        assert abs(r - res.r) <= 1e-9
        assert abs(s - res.s) <= 1e-9

    def test_same_bits_as_the_row_by_row_system(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            decay = bool(rng.integers(0, 2))
            sites = sorted({int(x) for x in rng.integers(6, 30, size=rng.integers(0, 4))})
            atoms = [draw_atom(rng, two_level=bool(rng.integers(0, 2)), decay=decay)
                     for _ in sites]
            kappa = rng.uniform(0.0, 0.2) if decay else 0.0
            spec = ChainSpec(36, tuple(zip(sites, atoms)), draw_lattice(rng), kappa=kappa)
            k = draw_momentum(rng)
            assert solve_stationary(spec, k) == _row_by_row_solve(spec, k)


class TestEigenmodes:
    def test_free_chain_modes_are_extended(self):
        spec = ChainSpec(64, (), LAT)
        modes = eigenmodes(spec)
        assert len(modes) == 64
        assert max(m.ipr for m in modes) < 3.0 / 64

    def test_trapped_mode_between_resonant_mirrors(self):
        D, n = 10, 3
        kn = math.pi * n / D
        En = dispersion_energy(kn, LAT)
        (delta,) = find_perfect_reflection(
            momentum_from_energy(En + 1e-4, LAT),
            AtomParams(omega_e=0.2, delta=0.0, Omega=1.0, g=30.0),
            LAT,
            free="delta",
        )
        atom = AtomParams(omega_e=0.2, delta=delta, Omega=1.0, g=30.0)
        spec = ChainSpec(201, ((95, atom), (105, atom)), LAT)
        modes = eigenmodes(spec)
        trapped = min(modes, key=lambda m: abs(m.energy.real - En))
        assert trapped.interior_weight > 0.99
        profile = np.zeros(spec.dimension)
        j = np.arange(D + 1)
        sin_profile = np.sin(math.pi * n * j / D)
        profile[95 : 106] = sin_profile / np.linalg.norm(sin_profile)
        assert abs(np.vdot(trapped.vector, profile)) ** 2 > 0.99

    def test_off_resonant_nodes_trap_nothing(self):
        detuned = AtomParams(omega_e=40.0, delta=37.0, Omega=1.0)
        spec = ChainSpec(201, ((95, detuned), (105, detuned)), LAT)
        modes = eigenmodes(spec)
        assert max(m.interior_weight for m in modes) < 0.9

    def test_decay_pushes_eigenvalues_into_the_lower_half_plane(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.05, gamma=0.05)
        spec = ChainSpec(48, ((24, atom),), LAT)
        modes = eigenmodes(spec)
        assert len(modes) == 50
        assert all(m.energy.imag <= 1e-12 for m in modes)
        assert min(m.energy.imag for m in modes) < -1e-4


class TestWavepacket:
    def test_free_packet_transmits(self):
        spec = ChainSpec(440, (), LAT)
        wp = WavepacketSpec(k0=1.3, sigma=20.0, x0=115, tmax=48.0)
        res = propagate_wavepacket(spec, wp)
        assert res.T_meas >= 0.999
        assert res.R_meas <= 0.001
        assert res.drift <= 1e-8

    def test_norm_history_is_flat_without_decay(self):
        spec = ChainSpec(300, (), LAT)
        wp = WavepacketSpec(k0=1.5, sigma=10.0, x0=80, tmax=20.0)
        res = propagate_wavepacket(spec, wp)
        assert np.max(np.abs(res.norm_history - 1.0)) <= 1e-8

    def test_transmission_tracks_the_closed_form(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
        k0 = 2.2
        spec, wp = design_scattering_run((atom,), LAT, k0, 20.0)
        res = propagate_wavepacket(spec, wp)
        expected = single_node_scatter(k0, atom, LAT)
        assert abs(res.T_meas - expected.T) <= 0.02
        assert abs(res.R_meas - expected.R) <= 0.02
        assert res.R_meas + res.T_meas == pytest.approx(1.0, abs=1e-6)

    def test_decay_drains_probability(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.08, gamma=0.08)
        k0 = momentum_from_energy(decompose_potential(atom).omega_plus, LAT)
        spec, wp = design_scattering_run((atom,), LAT, k0, 12.0)
        res = propagate_wavepacket(spec, wp)
        assert res.R_meas + res.T_meas < 0.95

    def test_drift_guard_fires_on_a_narrow_spectral_interval(self, monkeypatch):
        # Negative control: an interval that misses part of the spectrum of H
        # makes the Chebyshev series grow, and the norm guard must catch it.
        spec = ChainSpec(200, (), LAT)
        wp = WavepacketSpec(k0=1.3, sigma=8.0, x0=60, tmax=10.0)
        lo, hi = oracle._spectral_interval(spec)
        monkeypatch.setattr(oracle, "_spectral_interval", lambda _: (lo, 0.5 * (lo + hi)))
        with pytest.raises(IntegratorDriftError):
            propagate_wavepacket(spec, wp)

    def test_drift_guard_fires_on_a_dissipative_run(self, monkeypatch):
        # Negative control: a dissipative run may only lose probability, so
        # a series that grows outside a too narrow interval must be caught.
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.08, gamma=0.08)
        spec, wp = design_scattering_run((atom,), LAT, 1.3, 8.0)
        lo, hi = oracle._spectral_interval(spec)
        monkeypatch.setattr(oracle, "_spectral_interval", lambda _: (lo, 0.5 * (lo + hi)))
        with pytest.raises(IntegratorDriftError):
            propagate_wavepacket(spec, wp)

    @pytest.mark.parametrize(
        "case",
        [
            "decay-free",
            "strong-coupling",
            "decaying-node",
            "fast-decay",
            "leaky-cavity",
            "absorbers",
            "strong-absorbers",
        ],
    )
    def test_matches_eigenbasis_propagation(self, case):
        if case == "decay-free":
            spec, wp = design_scattering_run((FIG3A_ATOM, FIG3A_ATOM), LAT, 1.4, 6.0, D=9)
        elif case == "strong-coupling":
            # g = 30 puts bound states far outside the band, at the interval's edges.
            atom = AtomParams(omega_e=0.2, delta=-0.5, Omega=1.0, g=30.0)
            spec, wp = design_scattering_run((atom,), LAT, 1.2, 6.0)
        elif case == "decaying-node":
            atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.08, gamma=0.08)
            spec, wp = design_scattering_run((atom,), LAT, 1.7, 8.0)
        elif case == "fast-decay":
            # Gamma = 10 is twice the spectral radius: the excited level sits
            # far below the real axis.
            atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=10.0, gamma=0.5)
            spec, wp = design_scattering_run((atom,), LAT, 1.7, 8.0)
        elif case == "leaky-cavity":
            spec, wp = design_scattering_run((FIG3A_ATOM,), LAT, 1.7, 8.0)
            spec = ChainSpec(spec.n_sites, spec.placements, LAT, kappa=0.05)
        else:
            # The run ends while the packet is still inside the right layer.
            spec = ChainSpec(240, ((150, FIG3A_ATOM),), LAT)
            strength = 0.3 if case == "absorbers" else 20.0
            wp = WavepacketSpec(
                k0=1.5, sigma=10.0, x0=90, tmax=33.0, absorber_width=40, absorber_strength=strength
            )
        res = propagate_wavepacket(spec, wp)
        # The eigenvectors of H with strong absorbers have condition ~3e8.
        reference = _taylor_run if case == "strong-absorbers" else _eigenbasis_run
        R, T, left, right = reference(spec, wp)
        assert abs(res.R_meas - R) <= 1e-10
        assert abs(res.T_meas - T) <= 1e-10
        assert abs(res.absorbed_left - left) <= 1e-10
        assert abs(res.absorbed_right - right) <= 1e-10
        if "absorbers" in case:
            assert right > 0.1

    def test_unitarity_over_a_long_run(self):
        # Criterion 10's transmission run: a 783-level chain over t ~ 80.
        k0 = momentum_from_energy(FIG3A_ATOM.delta, LAT)
        spec, wp = design_scattering_run((FIG3A_ATOM,), LAT, k0, 25.0)
        res = propagate_wavepacket(spec, wp)
        assert len(res.times) > 30
        assert res.drift <= 1e-12

    def test_short_chain_is_rejected_mid_run(self):
        spec = ChainSpec(120, (), LAT)
        wp = WavepacketSpec(k0=1.3, sigma=8.0, x0=60, tmax=200.0)
        with pytest.raises(InsufficientChainError):
            propagate_wavepacket(spec, wp)

    def test_packet_must_clear_the_first_node(self):
        spec = ChainSpec(200, ((100, FIG3A_ATOM),), LAT)
        wp = WavepacketSpec(k0=1.3, sigma=12.0, x0=60, tmax=10.0)
        with pytest.raises(InsufficientChainError):
            propagate_wavepacket(spec, wp)

    def test_absorbers_report_their_take(self):
        spec = ChainSpec(240, (), LAT)
        wp = WavepacketSpec(
            k0=1.5, sigma=10.0, x0=120, tmax=60.0, absorber_width=40, absorber_strength=0.3
        )
        res = propagate_wavepacket(spec, wp)
        assert res.absorbed_right > 0.9
        assert res.T_meas >= 0.9

    def test_design_helper_rejects_cramped_chains(self):
        spec = ChainSpec(64, ((32, FIG3A_ATOM),), LAT)
        with pytest.raises(InsufficientChainError):
            design_wavepacket(spec, 1.3, 20.0)

    @pytest.mark.parametrize(
        "atoms, k0, sigma, D, layout",
        [
            ((FIG3A_ATOM,), 1.318, 4, 1, (151, (92,), 58, "16.26701767920555")),
            ((FIG3A_ATOM, FIG3A_ATOM), 1.40, 4, 12, (163, (92, 104), 58, "19.02684574302899")),
            ((FIG3A_ATOM,), 2.2, 20, 1, (631, (380,), 250, "78.85007242929596")),
        ],
        ids=["one-node", "two-nodes", "wide-packet"],
    )
    def test_designed_layouts_are_pinned(self, atoms, k0, sigma, D, layout):
        spec, wp = design_scattering_run(atoms, LAT, k0, sigma, D=D)
        assert (spec.n_sites, spec.sites, wp.x0, repr(wp.tmax)) == layout

    def test_design_raises_one_site_short_of_either_end(self):
        # sigma 4 keeps 29 sites clear: the first node needs site 87 and the
        # chain at least 54 more sites than the last node's index
        design_wavepacket(ChainSpec(200, ((87, FIG3A_ATOM),), LAT), 1.3, 4.0)
        with pytest.raises(InsufficientChainError, match="on the left"):
            design_wavepacket(ChainSpec(200, ((86, FIG3A_ATOM),), LAT), 1.3, 4.0)
        design_wavepacket(ChainSpec(141, ((87, FIG3A_ATOM),), LAT), 1.3, 4.0)
        with pytest.raises(InsufficientChainError, match="on the right"):
            design_wavepacket(ChainSpec(140, ((87, FIG3A_ATOM),), LAT), 1.3, 4.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WavepacketSpec(k0=1.0, sigma=2.0, x0=50, tmax=10.0)
        with pytest.raises(ValueError):
            WavepacketSpec(k0=4.0, sigma=8.0, x0=50, tmax=10.0)
        with pytest.raises(ValueError):
            WavepacketSpec(k0=1.0, sigma=8.0, x0=50, tmax=-1.0)
