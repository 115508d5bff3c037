import logging
import math
import tracemalloc

import numpy as np
import pytest

from cavitychain import (
    AtomParams,
    ChainSpec,
    InsufficientChainError,
    IntegratorDriftError,
    LatticeParams,
    OracleResidualError,
    PlacementError,
    TwoNodeConfig,
    WavepacketSpec,
    build_hamiltonian,
    chain_scatter,
    decompose_potential,
    design_wavepacket,
    dispersion_energy,
    eigenmodes,
    find_perfect_reflection,
    momentum_from_energy,
    propagate_wavepacket,
    solve_stationary,
)
from cavitychain import cli, oracle
from cavitychain.oracle import design_scattering_run
from cavitychain.scattering import FLAG_OK
from helpers import (
    draw_atom,
    draw_lattice,
    draw_momentum,
    draw_two_node,
    single_node_scatter,
    two_node_scatter,
)

LAT = LatticeParams(omega=1.0, t=2.0)
FIG3A_ATOM = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
DECAYING_ATOM = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.01)
NUDGED_ATOM = AtomParams(omega_e=1.0, delta=0.0, Omega=np.nextafter(1.0, 2.0))


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


def _row_by_row_system(spec, k):
    """The stationary system (M, b) written out entry by entry, row by row.

    Rows: the probe of site 0, the H - E rows of sites 0..n-1, then the
    probe of site n-1, then (excited, metastable) per node; the rows of the
    end sites read their outer neighbours from the leads,
    u_{-1} = e^{-ik(1+x0)} + e^{ik(1+x0)} r and u_n = e^{ik(n-x0)} s.
    Columns: the sites, the node levels, r and s.
    """
    E = dispersion_energy(k, spec.lat)
    n, dim, x0, t = spec.n_sites, spec.dimension, spec.origin, spec.lat.t
    M = np.zeros((dim + 2, dim + 2), dtype=complex)
    b = np.zeros(dim + 2, dtype=complex)
    node_of_site = {site: m for m, site in enumerate(spec.sites)}
    rows = [{0: 1.0, dim: -np.exp(1j * k * x0)}]
    b[0] = np.exp(-1j * k * x0)
    for j in range(n):
        row = {j: spec.lat.omega - 0.5j * spec.kappa - E}
        if j > 0:
            row[j - 1] = -t
        else:
            row[dim] = -t * np.exp(1j * k * (1 + x0))
            b[1] = t * np.exp(-1j * k * (1 + x0))
        if j < n - 1:
            row[j + 1] = -t
        else:
            row[dim + 1] = -t * np.exp(1j * k * (n - x0))
        if j in node_of_site:
            row[n + 2 * node_of_site[j]] = spec.placements[node_of_site[j]][1].g
        rows.append(row)
    rows.append({n - 1: 1.0, dim + 1: -np.exp(1j * k * (n - 1 - x0))})
    for m, (site, atom) in enumerate(spec.placements):
        e, a = n + 2 * m, n + 2 * m + 1
        rows.append({e: complex(atom.omega_e, -atom.Gamma) - E, site: atom.g, a: atom.Omega})
        rows.append({a: complex(atom.delta, -atom.gamma) - E, e: atom.Omega})
    for i, row in enumerate(rows):
        for j, value in row.items():
            M[i, j] = value
    return M, b


def _row_by_row_solve(spec, k):
    """(r, s) from one dense solve of the row-by-row system."""
    M, b = _row_by_row_system(spec, k)
    sol = np.linalg.solve(M, b)
    return complex(sol[-2]), complex(sol[-1])


def _band_order_solve(spec, k):
    """(r, s) from one dense solve of the row-by-row system permuted into the band's order."""
    M, b = _row_by_row_system(spec, k)
    rows, cols = _band_basis(spec)
    sol = np.linalg.solve(M[np.ix_(rows, cols)], b[rows])
    return complex(sol[0]), complex(sol[-1])


def _refined_solve(spec, k):
    """(r, s) of the row-by-row system, its dense solve refined on long-double residuals.

    Partial pivoting in the row-by-row order can grow like the chain's
    evanescent waves on long leaky chains; the refinement removes that error.
    """
    M, b = _row_by_row_system(spec, k)
    sol = np.linalg.solve(M, b)
    for _ in range(3):
        residual = b.astype(np.clongdouble) - M.astype(np.clongdouble) @ sol.astype(np.clongdouble)
        sol = sol + np.linalg.solve(M, residual.astype(complex))
    return complex(sol[-2]), complex(sol[-1])


class TestChainSpec:
    def test_minimum_size(self):
        # one site, bare or holding a node
        ChainSpec(1, (), LAT)
        ChainSpec(1, ((0, FIG3A_ATOM),), LAT)
        with pytest.raises(PlacementError, match="need at least 1 site, got 0"):
            ChainSpec(0, (), LAT)

    def test_any_site_in_range(self):
        # a node may sit on any site, the two end sites included
        n = 32
        ChainSpec(n, ((0, FIG3A_ATOM), (1, FIG3A_ATOM), (n - 1, FIG3A_ATOM)), LAT)
        for site in (-1, n):
            with pytest.raises(PlacementError, match=f"site {site} outside \\[0, {n - 1}\\]"):
                ChainSpec(n, ((site, FIG3A_ATOM),), LAT)

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

    def test_array_fields_stack_one_matrix_per_point(self):
        # same bits as the scalar build, signed zeros of decay-free levels included
        rng = np.random.default_rng(3)
        lats = [draw_lattice(rng) for _ in range(5)]
        atoms = [[draw_atom(rng, two_level=i == 2, decay=i % 2 == 1) for i in range(5)]
                 for _ in range(2)]

        def stacked(params):
            return type(params[0])(**{key: np.array([vars(p)[key] for p in params])
                                      for key in vars(params[0])})

        spec = ChainSpec(30, ((10, stacked(atoms[0])), (15, stacked(atoms[1]))), stacked(lats),
                         kappa=0.1)
        H = build_hamiltonian(spec)
        assert H.shape == (5, 34, 34)
        for i in range(5):
            one = ChainSpec(30, ((10, atoms[0][i]), (15, atoms[1][i])), lats[i], kappa=0.1)
            assert H[i].tobytes() == build_hamiltonian(one).tobytes()


class TestStationarySolve:
    def test_free_chain_transmits_everything(self):
        for n_sites in (32, 1):  # one site: the oracle's segment without nodes
            r, s = solve_stationary(ChainSpec(n_sites, (), LAT), np.linspace(0.05, 3.09, 30))
            assert np.abs(r).max() <= 1e-12 and np.abs(s - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n_sites", [1, 2, 12, 120])
    def test_nodes_on_the_end_sites_agree_with_the_kernel(self, n_sites):
        # the end rows read the leads, so a node needs no free site beside it:
        # a node on site 0, one on site n-1, and both (one site and a node
        # are 5 unknowns; 120 sites take more than one panel)
        lam = AtomParams(omega_e=0.4, delta=-0.7, Omega=1.3, Gamma=0.03)
        two = AtomParams.two_level(1.5, g=0.8)
        layouts = [((0, lam),), ((n_sites - 1, two),)]
        if n_sites > 1:
            layouts.append(((0, lam), (n_sites - 1, two)))
        k = np.linspace(0.05, 3.09, 60)
        for placements in layouts:
            r, s = solve_stationary(ChainSpec(n_sites, placements, LAT), k)
            x0 = placements[0][0]
            r_ref, s_ref, flag = chain_scatter(k, [(x - x0, a) for x, a in placements], LAT)
            assert np.all(flag == FLAG_OK)
            assert np.abs(r - r_ref).max() <= 1e-12 and np.abs(s - s_ref).max() <= 1e-12

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

    def test_scalar_call_returns_python_complex(self):
        r, s = solve_stationary(ChainSpec(24, ((12, FIG3A_ATOM),), LAT), 1.1)
        assert type(r) is complex and type(s) is complex

    def test_broadcasts_over_fields_and_momenta(self):
        # node fields of shape (3, 1) against momenta of shape (4,): a (3, 4) stack
        Omega = np.array([[0.0], [0.5], [1.5]])
        atom = AtomParams(omega_e=0.3, delta=-0.2, Omega=Omega, Gamma=0.05)
        k = np.linspace(0.4, 2.7, 4)
        r, s = solve_stationary(ChainSpec(24, ((12, atom),), LAT), k)
        assert r.shape == s.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            one = AtomParams(omega_e=0.3, delta=-0.2, Omega=float(Omega[i, 0]), Gamma=0.05)
            assert (r[i, j], s[i, j]) == solve_stationary(ChainSpec(24, ((12, one),), LAT), k[j])

    def test_momentum_outside_the_band_raises_for_any_element(self):
        spec = ChainSpec(24, ((12, FIG3A_ATOM),), LAT)
        for bad in (np.array([0.5, math.pi]), np.array([np.nan, 1.0])):
            with pytest.raises(ValueError, match="open interval"):
                solve_stationary(spec, bad)

    @pytest.mark.parametrize("k", [1.1, np.linspace(0.3, 2.9, 7)])
    def test_residual_guard_fires_on_a_perturbed_solve(self, monkeypatch, k):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-9)
        # a short chain solved as one dense block and a long one panel by panel
        for spec in (ChainSpec(24, ((12, FIG3A_ATOM),), LAT),
                     ChainSpec(320, ((150, FIG3A_ATOM), (151, FIG3A_ATOM)), LAT)):
            with pytest.raises(OracleResidualError, match="residual"):
                solve_stationary(spec, k)

    def test_residual_error_exits_one(self, monkeypatch, tmp_path):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-9)
        argv = ["spectrum", "--config", "fig3a", "--engine", "oracle", "--set", "k_count=5",
                "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 1

    def test_residual_is_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="cavitychain.oracle"):
            solve_stationary(ChainSpec(24, ((12, FIG3A_ATOM),), LAT), np.linspace(0.3, 2.9, 7))
        (record,) = caplog.records
        assert "7 lattice system(s) of size 28" in record.getMessage()
        assert float(record.getMessage().rsplit(" ", 1)[1]) <= oracle.RESIDUAL_TOL

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
            assert solve_stationary(spec, k) == _band_order_solve(spec, k)


def _random_chain(rng, n_sites, n_nodes):
    """Random nodes on ``n_sites`` sites, two of them adjacent when there are two or more."""
    decay = bool(rng.integers(0, 2))
    sites = set(int(x) for x in rng.integers(0, n_sites, n_nodes))
    if len(sites) > 1:
        sites.add(min(sites) + 1)
    atoms = [draw_atom(rng, two_level=bool(rng.integers(0, 2)), decay=decay) for _ in sites]
    kappa = rng.uniform(0.0, 0.2) if decay else 0.0
    return ChainSpec(n_sites, tuple(zip(sorted(sites), atoms)), draw_lattice(rng), kappa=kappa)


def _band_basis(spec):
    """Row and column of the row-by-row system for each row and unknown of the band.

    Unknowns: r, then each site followed by its node's (excited, metastable)
    levels, then s; row i is the equation of unknown i, with the probes of
    sites 0 and n-1 in the rows of r and s.
    """
    n, dim = spec.n_sites, spec.dimension
    node_of_site = {site: m for m, site in enumerate(spec.sites)}
    cols, rows = [dim], [0]
    for j in range(n):
        cols.append(j)
        rows.append(j + 1)
        if j in node_of_site:
            e = n + 2 * node_of_site[j]
            cols += [e, e + 1]
            rows += [e + 2, e + 3]
    return np.array(rows + [n + 1]), np.array(cols + [dim + 1])


def _fig3a_array(n_nodes, spacing=5):
    sites = tuple(8 + spacing * i for i in range(n_nodes))
    return ChainSpec(sites[-1] + 9, tuple((site, FIG3A_ATOM) for site in sites), LAT)


class TestBandedSolve:
    # nodes on the end sites, then 0, 1, 2 and 9 panels of oracle.PANEL columns
    @pytest.mark.parametrize("n_sites, n_nodes", [(4, 3), (36, 3), (90, 4), (130, 5), (440, 5)])
    def test_band_is_the_row_by_row_system(self, n_sites, n_nodes):
        rng = np.random.default_rng(n_sites)
        for _ in range(5):
            spec = _random_chain(rng, n_sites, n_nodes)
            k = draw_momentum(rng)
            band, b = oracle._stationary_band(spec, np.asarray(k))
            M, b_ref = _row_by_row_system(spec, k)
            rows, cols = _band_basis(spec)
            assert np.array_equal(b, b_ref[rows])
            size = len(b)
            seen = np.zeros((size, size), dtype=bool)
            for i, d in np.ndindex(size, 7):
                c = i + d - 3
                if 0 <= c < size:
                    assert band[i, d] == M[rows[i], cols[c]]
                    seen[rows[i], cols[c]] = True
                else:
                    assert band[i, d] == 0
            assert not np.any(M[~seen])

    def test_agrees_with_the_dense_solve_on_random_long_chains(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            spec = _random_chain(rng, int(rng.integers(60, 601)), int(rng.integers(0, 6)))
            k = draw_momentum(rng)
            r, s = solve_stationary(spec, k)
            r_ref, s_ref = _refined_solve(spec, k)
            assert abs(r - r_ref) <= 1e-11 and abs(s - s_ref) <= 1e-11

    def test_long_leaky_chain_that_the_dense_lu_fails(self):
        # the dense solve in the row-by-row order leaves a residual far above
        # RESIDUAL_TOL here; the panels stay on the refined solution
        spec = ChainSpec(335, ((100, FIG3A_ATOM), (101, FIG3A_ATOM)),
                         LatticeParams(omega=1.0, t=1.0), kappa=0.2)
        k = 2.6
        M, b = _row_by_row_system(spec, k)
        dense = np.linalg.solve(M, b)
        assert np.linalg.norm(M @ dense - b) / np.linalg.norm(b) > oracle.RESIDUAL_TOL
        r, s = solve_stationary(spec, k)
        r_ref, s_ref = _refined_solve(spec, k)
        assert abs(r - r_ref) <= 1e-11 and abs(s - s_ref) <= 1e-11 * abs(s_ref) + 1e-14

    def test_fifty_node_array_matches_the_dense_solve(self):
        spec = _fig3a_array(50)
        for k in (0.3, 1.16016, 1.9, 2.8):
            r, s = solve_stationary(spec, k)
            r_ref, s_ref = _row_by_row_solve(spec, k)
            assert abs(r - r_ref) <= 1e-11 and abs(s - s_ref) <= 1e-11

    def test_three_hundred_node_array_in_little_memory(self, caplog):
        spec = _fig3a_array(300)
        tracemalloc.start()
        try:
            with caplog.at_level(logging.DEBUG, logger="cavitychain.oracle"):
                r, s = solve_stationary(spec, 1.16016)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert math.isfinite(abs(r)) and math.isfinite(abs(s))
        assert abs(abs(r) ** 2 + abs(s) ** 2 - 1.0) <= 1e-9
        (record,) = caplog.records
        assert float(record.getMessage().rsplit(" ", 1)[1]) <= oracle.RESIDUAL_TOL

    def test_multi_panel_stack_has_the_bits_of_each_system_alone(self):
        Omega = np.array([[0.0], [0.7], [1.5]])
        atom = AtomParams(omega_e=0.3, delta=-0.2, Omega=Omega, Gamma=0.05)
        k = np.linspace(0.4, 2.7, 4)
        sites = ((40, atom), (41, FIG3A_ATOM), (150, atom))
        r, s = solve_stationary(ChainSpec(200, sites, LAT, kappa=0.01), k)
        for i, j in np.ndindex(3, 4):
            one = AtomParams(omega_e=0.3, delta=-0.2, Omega=float(Omega[i, 0]), Gamma=0.05)
            alone = ((40, one), (41, FIG3A_ATOM), (150, one))
            one_chain = ChainSpec(200, alone, LAT, kappa=0.01)
            assert (r[i, j], s[i, j]) == solve_stationary(one_chain, k[j])


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

    @pytest.mark.parametrize(
        "n_sites, sites, atoms, blocks",
        [(41, (15, 25), (FIG3A_ATOM,) * 2, [23, 22]), (40, (14, 25), (FIG3A_ATOM,) * 2, [22, 22]),
         (41, (20,), (FIG3A_ATOM,), [23, 20]), (41, (10, 20, 30), (FIG3A_ATOM,) * 3, [25, 22]),
         (41, (15, 25), (DECAYING_ATOM,) * 2, [23, 22]), (40, (), (), [20, 20]), (41, (), (), [21, 20]),
         (41, (15, 25), (FIG3A_ATOM, NUDGED_ATOM), [45]), (41, (15, 24), (FIG3A_ATOM,) * 2, [45])],
        ids=["odd-N-pair", "even-N-pair", "node-on-the-centre", "three-nodes", "decaying-pair",
             "free-even-N", "free-odd-N", "pair-one-ulp-apart", "pair-off-centre"],
    )
    def test_symmetric_chain_splits_into_parity_blocks(self, n_sites, sites, atoms, blocks, caplog):
        # against the whole H: the same eigenvalues, eigenpairs to rounding,
        # orthonormal vectors, and a definite parity for every vector of a
        # chain that is its own mirror image; one ulp of Omega or one site
        # off the mirror leaves one block
        nodes = tuple(zip(sites, atoms))
        spec = ChainSpec(n_sites, nodes, LAT)
        with caplog.at_level(logging.DEBUG, logger="cavitychain.oracle"):
            modes = eigenmodes(spec)
        assert caplog.records[-1].getMessage().endswith(f"blocks of {blocks}")
        H = build_hamiltonian(spec)
        E = np.array([m.energy for m in modes])
        V = np.array([m.vector for m in modes])
        assert len(modes) == spec.dimension
        assert np.all(np.diff(E.real) >= 0)
        assert np.max(np.linalg.norm(V @ H.T - E[:, None] * V, axis=1)) <= 1e-12
        assert np.allclose(np.linalg.norm(V, axis=1), 1.0, rtol=0, atol=1e-14)
        if spec.is_decay_free:
            assert np.allclose(E.real, np.linalg.eigvalsh(H), rtol=0, atol=1e-12)
            assert np.allclose(V.conj() @ V.T, np.eye(len(V)), rtol=0, atol=1e-12)
        else:
            reference = np.linalg.eigvals(H)
            nearest = np.abs(E[:, None] - reference[None, :]).argmin(axis=1)
            assert sorted(nearest) == list(range(len(E)))
            assert np.allclose(E, reference[nearest], rtol=0, atol=1e-12)
            # H is complex symmetric: v_i^T v_j = 0 between distinct eigenvalues
            overlap = V @ V.T
            assert np.allclose(overlap - np.diag(np.diag(overlap)), 0.0, rtol=0, atol=1e-12)
        if len(blocks) == 2:
            image = V[:, oracle._mirror(spec)]
            assert np.all(np.minimum(np.abs(image - V).max(axis=1), np.abs(image + V).max(axis=1)) <= 1e-12)
            even = np.abs(image - V).max(axis=1) <= 1e-12
            assert np.count_nonzero(even) == blocks[0]


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
            "adjacent-nodes",
            "two-level-node",
        ],
    )
    def test_matches_eigenbasis_propagation(self, case):
        if case == "decay-free":
            spec, wp = design_scattering_run((FIG3A_ATOM, FIG3A_ATOM), LAT, 1.4, 6.0, D=9)
        elif case == "adjacent-nodes":
            # D = 1: the hop from the first node's site spans both nodes' levels.
            spec, wp = design_scattering_run((FIG3A_ATOM, FIG3A_ATOM), LAT, 1.4, 6.0, D=1)
        elif case == "two-level-node":
            # A two-level node beside a Lambda node; its metastable level is decoupled.
            atoms = (AtomParams.two_level(0.5, g=1.2), FIG3A_ATOM)
            spec, wp = design_scattering_run(atoms, LAT, 1.3, 6.0, D=3)
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

    @pytest.mark.parametrize(
        "case", ["adjacent-nodes", "two-level-node", "decay", "kappa", "absorbers"]
    )
    def test_propagator_band_is_the_shifted_scaled_hamiltonian(self, case):
        n, kappa, cap = 60, 0.0, np.zeros(60)
        nodes = ((20, FIG3A_ATOM), (21, AtomParams(omega_e=0.4, delta=-0.3, Omega=0.7, g=1.3)))
        if case == "two-level-node":
            nodes = ((20, AtomParams.two_level(0.6, g=1.4)), (33, FIG3A_ATOM))
        elif case == "decay":
            decaying = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.3, gamma=0.05)
            nodes = ((20, decaying), (27, FIG3A_ATOM))
        elif case == "kappa":
            kappa = 0.05
        elif case == "absorbers":
            # the nodes shift the right layer's sites by four rows in the band
            cap[:12] = 0.3 * np.linspace(1.0, 0.1, 12) ** 2
            cap[-12:] = 0.7 * np.linspace(0.1, 1.0, 12) ** 2
        spec = ChainSpec(n, nodes, LAT, kappa=kappa)
        centre, radius = 1.1 - 0.4j, 4.7
        band = oracle._propagator_band(spec, cap, centre, radius)
        order = oracle._interleaved_order(spec)
        rng = np.random.default_rng(5)
        y = rng.normal(size=spec.dimension) + 1j * rng.normal(size=spec.dimension)
        padded = np.zeros(spec.dimension + 6, dtype=complex)
        padded[3:-3] = y[order]
        assert band.shape == (7, spec.dimension)
        # row 3 + d times entry i + d of y, summed over d
        Hy = np.sum(band * np.lib.stride_tricks.sliding_window_view(padded, spec.dimension), axis=0)
        shift = np.zeros(spec.dimension, dtype=complex)
        shift[:n] = 1j * cap
        dense = (build_hamiltonian(spec) - np.diag(centre + shift)) / radius
        assert np.max(np.abs(Hy - (dense @ y)[order])) <= 1e-14

    def test_h_applications_counts_the_band_products(self, monkeypatch):
        products = []
        multiply = np.multiply

        def counting(band, window, **kwargs):
            products.append((band.shape, window.shape, kwargs["out"].shape))
            return multiply(band, window, **kwargs)

        monkeypatch.setattr(np, "multiply", counting)
        spec, wp = design_scattering_run((FIG3A_ATOM,), LAT, 1.4, 6.0)
        res = propagate_wavepacket(spec, wp)
        assert set(products) == {((7, spec.dimension),) * 3}
        assert res.h_applications == len(products) > 10 * (len(res.times) - 1)

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

    def test_packet_must_clear_the_right_end(self):
        # sigma 4 on 200 sites: the centre may sit at most at site 177
        spec = ChainSpec(200, (), LAT)
        oracle.check_packet_layout(spec, WavepacketSpec(k0=1.0, sigma=4.0, x0=177, tmax=5.0))
        for x0 in (178, 1000):
            wp = WavepacketSpec(k0=1.0, sigma=4.0, x0=x0, tmax=5.0)
            with pytest.raises(InsufficientChainError, match="5 sigma to the right end"):
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
