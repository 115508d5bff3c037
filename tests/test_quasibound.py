import cmath
import math
import warnings

import numpy as np
import pytest

from cavitychain import (
    AtomParams,
    ChainSpec,
    LatticeParams,
    TwoNodeConfig,
    UnverifiedRootError,
    bound_profile,
    dispersion_energy,
    dispersion_energy_continued,
    eigenmodes,
    find_perfect_reflection,
    find_quasibound_modes,
    oracle,
    quasibound,
)
from cavitychain.model import potential_parts
from cavitychain.quasibound import DEFAULT_IM_WINDOW
from cavitychain.scattering import _transfer_row
from helpers import (
    bound_state_energies,
    build_hamiltonian,
    dense_entries,
    draw_trapped_pair,
    momentum_from_energy,
    quantized_momenta,
    quasibound_residual,
    siegert_roots,
    siegert_window_roots,
)

LAT = LatticeParams(omega=1.0, t=2.0)

#: Scaled-residual bound of the roots away from weak mirrors' node poles.
VERIFY_TOL = 1e-10


def mirror_atom(pole_energy: float, *, Omega: float = 1.0, omega_e: float = 0.2, g: float = 1.0) -> AtomParams:
    """Node whose potential diverges at the requested energy."""
    k = momentum_from_energy(pole_energy, LAT)
    (delta,) = find_perfect_reflection(
        k, AtomParams(omega_e=omega_e, delta=0.0, Omega=Omega, g=g), LAT, free="delta"
    )
    return AtomParams(omega_e=omega_e, delta=delta, Omega=Omega, g=g)


class TestResidual:
    def test_matches_transport_denominator(self):
        # the two-node transport denominator times den_1 den_2, written out
        # as F1 F2 - e^{2ikD} N1 N2 with F_j = b den_j - N_j
        rng = np.random.default_rng(71)
        cfgs = [
            TwoNodeConfig(
                AtomParams(omega_e=0.5, delta=-0.3, Omega=0.8, g=1.2),
                AtomParams(omega_e=2.0, delta=0.0, Omega=0.0, g=0.9),
                D=5,
            ),
            TwoNodeConfig(
                AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.04),
                AtomParams(omega_e=-0.4, delta=0.6, Omega=1.7),
                D=9,
            ),
        ]
        for _ in range(1000):
            k = complex(rng.uniform(0.05, math.pi - 0.05), rng.uniform(-0.4, 0.04))
            cfg = cfgs[int(rng.integers(0, len(cfgs)))]
            E = dispersion_energy_continued(k, LAT)
            b = 2j * LAT.t * cmath.sin(k)
            (n1, d1, _), (n2, d2, _) = (potential_parts(E, a) for a in (cfg.atom1, cfg.atom2))
            rhs = complex((b * d1 - n1) * (b * d2 - n2) - cmath.exp(2j * k * cfg.D) * n1 * n2)
            lhs = quasibound_residual(k, cfg, LAT)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_zero_exactly_on_a_found_mode(self):
        atom = mirror_atom(dispersion_energy(0.3 * math.pi, LAT) + 1e-3)
        cfg = TwoNodeConfig(atom, atom, D=10)
        modes = find_quasibound_modes(cfg, LAT, re_window=(0.8, 1.1))
        assert modes
        for mode in modes:
            assert quasibound_residual(mode.k, cfg, LAT, scaled=True) <= 1e-12
            assert quasibound_residual(mode.k + 0.05, cfg, LAT, scaled=True) > 1e-3

    def test_transparent_first_node_never_vanishes_on_the_real_axis(self):
        # g -> 0 kills the first potential; the residual reduces to
        # b den1 (b den2 - N2), which cannot vanish against its own scale
        # inside the open band
        weak = AtomParams(omega_e=0.3, delta=-0.1, Omega=0.5, g=1e-9)
        other = AtomParams(omega_e=0.8, delta=0.2, Omega=1.1)
        cfg = TwoNodeConfig(weak, other, D=6)
        for k in np.linspace(0.05, math.pi - 0.05, 200):
            assert quasibound_residual(complex(k), cfg, LAT, scaled=True) > 1e-8

    def test_finite_and_zero_at_a_node_pole(self):
        # two-level nodes at the level energy E = 2 (k = 2 pi/3 on t = 1):
        # a decay-free trapped mode on the real axis, where V1 and V2 diverge
        cfg = TwoNodeConfig(TWO_LEVEL, TWO_LEVEL, D=12)
        k = 2.0 * math.pi / 3.0
        assert abs(quasibound_residual(k, cfg, NARROW_LAT)) <= 1e-13
        modes = find_quasibound_modes(cfg, NARROW_LAT)
        (mode,) = [m for m in modes if abs(m.k - k) <= 1e-12]
        assert mode.n == 8 and mode.residual <= 1e-13


class TestQuantizedMomenta:
    def test_d_ten(self):
        ks = quantized_momenta(10)
        assert len(ks) == 9
        assert ks == pytest.approx([math.pi * n / 10 for n in range(1, 10)])
        assert all(0 < k < math.pi for k in ks)

    def test_no_interior_mode_for_adjacent_nodes(self):
        assert quantized_momenta(1) == []

    def test_single_interior_site(self):
        assert quantized_momenta(2) == [math.pi / 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            quantized_momenta(0)


class TestBoundProfile:
    def test_single_interior_site(self):
        assert np.array_equal(bound_profile(2, 1), np.array([0.0, 1.0, 0.0]))

    def test_alternating_profile(self):
        u = bound_profile(4, 2)
        expected = np.array([0.0, 1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert u == pytest.approx(expected, abs=1e-15)

    def test_ends_exactly_zero_and_normalised(self):
        for D, n in ((10, 3), (7, 6), (12, 1)):
            u = bound_profile(D, n)
            assert u[0] == 0.0 and u[-1] == 0.0
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonality(self):
        D = 10
        for n in range(1, D):
            for m in range(n + 1, D):
                assert abs(np.dot(bound_profile(D, n), bound_profile(D, m))) <= 1e-12

    def test_index_errors(self):
        with pytest.raises(ValueError):
            bound_profile(10, 0)
        with pytest.raises(ValueError):
            bound_profile(10, 10)
        with pytest.raises(ValueError):
            bound_profile(1, 1)


class TestModeSearch:
    def test_strong_mirrors_quantise_the_momentum(self):
        # large probe coupling keeps |V| huge across the band: near-perfect
        # mirrors at every energy, so every interior mode appears at pi n / D
        strong = AtomParams(omega_e=0.0, delta=-10.0, Omega=1.0, g=1e4)
        cfg = TwoNodeConfig(strong, strong, D=10)
        modes = find_quasibound_modes(cfg, LAT)
        quantised = sorted(m.k.real for m in modes if m.n is not None)
        assert len(quantised) == 9
        for n, k in enumerate(quantised, start=1):
            assert abs(k - math.pi * n / 10) < 1e-6
        for m in modes:
            assert abs(m.k.imag) < 1e-8 or m.n is None

    def test_detuning_continuation_tightens_the_root(self):
        D, n = 10, 3
        kn = math.pi * n / D
        En = dispersion_energy(kn, LAT)
        distances = []
        for off in (1e-2, 1e-3, 1e-4):
            atom = mirror_atom(En + off)
            cfg = TwoNodeConfig(atom, atom, D)
            modes = [
                m
                for m in find_quasibound_modes(cfg, LAT, re_window=(kn - 0.15, kn + 0.15))
                if m.n == n
            ]
            assert len(modes) >= 1
            root = min(modes, key=lambda m: abs(m.k - kn))
            distances.append(abs(root.k - kn))
        assert distances[0] > distances[1] > distances[2]

    def test_rabi_frequency_on_the_mirror_pole_makes_a_bound_state(self):
        # fig3a nodes with Omega tuned so that E_12 of D = 20 is a node pole:
        # the n = 12 root is a bound state in the continuum, with both nodes
        # singular at it
        kn = 12 * math.pi / 20
        (Omega,) = find_perfect_reflection(kn, AtomParams(omega_e=1.0, delta=0.0, Omega=1.0), LAT)
        assert Omega == 1.6625077511098134
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=Omega)
        (mode,) = [m for m in find_quasibound_modes(TwoNodeConfig(atom, atom, 20), LAT)
                   if m.n == 12]
        assert abs(mode.k.real - kn) <= 1e-12 and abs(mode.k.imag) <= 1e-15

    def test_passivity_without_decay(self):
        atom = mirror_atom(dispersion_energy(0.3 * math.pi, LAT) + 1e-3)
        cfg = TwoNodeConfig(atom, atom, D=10)
        for mode in find_quasibound_modes(cfg, LAT):
            assert mode.E.imag <= 1e-12
            assert mode.leakage >= -1e-12

    def test_results_are_deterministic_and_sorted(self):
        atom = mirror_atom(dispersion_energy(0.3 * math.pi, LAT) + 1e-2)
        cfg = TwoNodeConfig(atom, atom, D=10)
        first = find_quasibound_modes(cfg, LAT)
        second = find_quasibound_modes(cfg, LAT)
        assert [m.k for m in first] == [m.k for m in second]
        keys = [(m.k.real, m.k.imag) for m in first]
        assert keys == sorted(keys)

    def test_diagnostics_counter(self):
        atom = mirror_atom(dispersion_energy(0.3 * math.pi, LAT) + 1e-2)
        cfg = TwoNodeConfig(atom, atom, D=4)
        modes, diag = find_quasibound_modes(cfg, LAT, return_diagnostics=True)
        # cut lines at (m + 1/2) pi / 4, m = 0..3: five cells across (0, pi)
        assert diag["cells"] == 5
        assert diag["winding"] == diag["window_roots"] == len(modes) == len(siegert_window_roots(cfg, LAT))
        assert diag["max_residual"] == max(m.residual for m in modes) <= VERIFY_TOL

    @pytest.mark.parametrize("re_window, im_window", [
        ((1.1479972, 1.1479981), DEFAULT_IM_WINDOW),  # 0.9e-6 wide, around a root
        ((1.1479, 1.1479015), DEFAULT_IM_WINDOW),
        ((2.0, 1.0), DEFAULT_IM_WINDOW),
        ((0.5, 2.5), (0.0, 0.0)),
    ], ids=["around-a-root", "rootless", "inverted", "flat-im"])
    def test_an_empty_window_raises_before_the_search(self, monkeypatch, re_window, im_window):
        # Re k's sides move 1e-6 inward, so a window 2e-6 wide or less holds nothing
        def searched(*args):
            raise AssertionError("an empty window was searched")

        monkeypatch.setattr(quasibound, "_seeds", searched)
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
        with pytest.raises(ValueError, match="must be below"):
            find_quasibound_modes(TwoNodeConfig(atom, atom, D=3), LAT,
                                  re_window=re_window, im_window=im_window)

    def test_a_window_just_wider_than_its_margins_finds_its_root(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
        (mode,) = find_quasibound_modes(TwoNodeConfig(atom, atom, D=3), LAT,
                                        re_window=(1.1479966, 1.1479987))
        assert abs(mode.k.real - 1.14799766) < 1e-8

    def test_window_across_the_band_edge_wraps_the_period(self):
        # the residual is 2 pi periodic and, for real parameters, symmetric
        # under k -> -conj(k), so a window past pi holds mirrored roots
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
        cfg = TwoNodeConfig(atom, atom, D=10)
        inside = find_quasibound_modes(cfg, LAT)
        wrapped = find_quasibound_modes(cfg, LAT, re_window=(2.5, 3.8))
        beyond = [m.k for m in wrapped if m.k.real > math.pi]
        assert beyond and len(wrapped) > len(beyond)
        for k in beyond:
            # a root on the line Re k = pi, to rounding, is its own mirror
            mirror = 2 * math.pi - k.conjugate()
            assert min(abs(mirror - other) for other in [k, *(m.k for m in inside)]) < 1e-12
        for m in wrapped:
            if m.k.real < math.pi:
                assert min(abs(m.k - other.k) for other in inside) < 1e-12


LAMBDA = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
TWO_LEVEL = AtomParams(omega_e=2.0, delta=0.0, Omega=0.0)
DECAYING = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.01)
MIXED = (AtomParams(omega_e=0.5, delta=-0.3, Omega=0.8, g=1.2),
         AtomParams(omega_e=2.0, delta=0.0, Omega=0.0, g=0.9))
NARROW_LAT = LatticeParams(omega=1.0, t=1.0)


def weak(g):
    """The fig3a node with a weak probe coupling: near-double roots at its poles."""
    return AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, g=g)


#: Weak fig3a pairs, (g, D), whose roots near a node pole stop above VERIFY_TOL.
WEAK_MIRRORS = [(g, D) for g in (0.001, 0.003, 0.005) for D in (20, 100, 200)] + [(0.006, 20)]


#: Pairs on whose roots Newton jitters by more than 16 ulps of |k|:
#: (config, lattice, window-root count).
JITTERING = [
    (TwoNodeConfig(*[AtomParams(omega_e=-2.8078333499864256, delta=2.6029784775691915,
                                Omega=1.4434762678445656, g=0.03602206807352031)] * 2, 3),
     LatticeParams(omega=1.0229314085900993, t=2.1265081564756234), 4),
    (TwoNodeConfig(AtomParams(omega_e=1.4931751159023285, delta=-1.8070520597612247,
                              Omega=1.1262986034966183, g=14.376809381881916),
                   AtomParams(omega_e=-0.4175439813840347, delta=1.849460408835899, Omega=0.8681662861536983,
                              g=11.910201056052987, Gamma=0.004779438040786755,
                              gamma=0.05040786945169029), 2),
     LatticeParams(omega=0.8955269057693402, t=1.3526912891673426), 3),
    (TwoNodeConfig(AtomParams(omega_e=-0.8142908930060253, delta=-1.3433299930084681, Omega=0.0,
                              g=0.0018351553352714042),
                   AtomParams(omega_e=2.3562177135429163, delta=-1.9346156058059776, Omega=0.6104846389801729,
                              g=0.05290103300493811), 40),
     LatticeParams(omega=1.7773087728626713, t=1.8988605424917757), 40),
]


def winding_number(nodes, lat, rect, per_edge):
    """Zeros of the kernel's pole-free P22 inside ``rect``, by the argument principle."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [
        complex(re_lo, im_lo), complex(re_hi, im_lo),
        complex(re_hi, im_hi), complex(re_lo, im_hi), complex(re_lo, im_lo),
    ]
    path = [
        complex(k)
        for a, b in zip(corners, corners[1:])
        for k in np.linspace(a, b, per_edge, endpoint=False)
    ] + [corners[0]]
    k = np.array(path)
    E, b = lat.omega - 2 * lat.t * np.cos(k), 2j * lat.t * np.sin(k)
    _, values, _, _, _ = _transfer_row(k, E, b, nodes)
    turns = np.angle(values[1:] / values[:-1])
    assert np.max(np.abs(turns)) < 0.5, "contour too coarse to follow the phase"
    return round(turns.sum() / (2 * math.pi))


class TestContourTrace:
    @pytest.mark.parametrize(
        "atom, lat, D",
        [(LAMBDA, LAT, 18), (TWO_LEVEL, NARROW_LAT, 100), (DECAYING, LAT, 40)],
        ids=["lambda-18", "two-level-100", "decaying-40"],
    )
    def test_refinement_merges_samples_and_steps_in_place(self, atom, lat, D):
        # each round merges its new samples and their steps into the arrays
        # at once: the steps must be those of the final samples, every path
        # must run in order, and the cell corners must stay where the
        # initial grid put them
        cfg = TwoNodeConfig(atom, atom, D)
        width = math.pi / D
        xs = np.r_[1e-6, (np.arange(D) + 0.5) * width, math.pi - 1e-6]
        im_lo, im_hi = DEFAULT_IM_WINDOW
        k, path, corner, step, stuck, rounds = quasibound._trace(xs, im_lo, im_hi, width, cfg, lat)
        assert rounds >= 2 and len(stuck) == 0
        exact, _, _ = quasibound._log_steps(k, path, *quasibound._factored(k, cfg, lat))
        assert np.array_equal(step, exact)
        assert np.array_equal(np.unique(path), np.arange(len(xs) + 2)) and np.all(np.diff(path) >= 0)
        for p, edge in enumerate((im_lo, im_hi)):  # the lower and upper edges, left to right
            samples = k[path == p]
            assert np.all(samples.imag == edge) and np.all(np.diff(samples.real) > 0)
            assert samples[0].real == xs[0] and samples[-1].real == xs[-1]
        for x, p in zip(xs, range(2, len(xs) + 2)):  # the lines Re k = xs, bottom to top
            samples = k[path == p]
            assert np.all(samples.real == x) and np.all(np.diff(samples.imag) > 0)
            assert samples[0].imag == im_lo and samples[-1].imag == im_hi
        assert np.all(path[corner] < 2)
        assert np.array_equal(k[corner], np.r_[xs + 1j * im_lo, xs + 1j * im_hi])


class TestCompleteness:
    @pytest.mark.parametrize(
        "atom1, atom2, lat, D, expected, tol",
        [
            pytest.param(LAMBDA, LAMBDA, LAT, 100, 101, 1e-12, id="lambda-100"),
            pytest.param(LAMBDA, LAMBDA, LAT, 200, 201, 1e-12, id="lambda-200"),
            pytest.param(TWO_LEVEL, TWO_LEVEL, NARROW_LAT, 100, 99, 1e-12, id="two-level-100"),
            pytest.param(TWO_LEVEL, TWO_LEVEL, NARROW_LAT, 200, 199, 1e-12, id="two-level-200"),
            pytest.param(TWO_LEVEL, TWO_LEVEL, NARROW_LAT, 12, 11, 1e-12,
                         id="two-level-12-on-the-pole"),
            pytest.param(DECAYING, DECAYING, LAT, 100, 101, 1e-12, id="decaying-100"),
            pytest.param(DECAYING, DECAYING, LAT, 200, 201, 1e-12, id="decaying-200"),
            pytest.param(*MIXED, LAT, 12, 12, 1e-12, id="lambda-two-level-12"),
            pytest.param(weak(0.1), weak(0.1), LAT, 20, 21, 1e-12, id="weak-g0.1-20"),
            pytest.param(weak(0.03), weak(0.03), LAT, 100, 101, 1e-11, id="weak-g0.03-100"),
            pytest.param(weak(0.01), weak(0.01), LAT, 200, 201, VERIFY_TOL, id="weak-g0.01-200"),
        ],
    )
    def test_every_window_root_is_found(self, atom1, atom2, lat, D, expected, tol):
        # the argument principle counts the roots without the lattice;
        # the contour stays off P22's band-edge zeros k = 0, pi.
        # Weak mirrors raise the residual's rounding floor near their poles.
        cfg = TwoNodeConfig(atom1, atom2, D)
        modes, diag = find_quasibound_modes(cfg, lat, return_diagnostics=True)
        assert len(modes) == diag["window_roots"] == expected
        assert all(0.01 < m.k.real < math.pi - 0.01 for m in modes)
        rect = (0.01, math.pi - 0.01, *DEFAULT_IM_WINDOW)
        assert winding_number([(0, atom1), (D, atom2)], lat, rect, 40 * D + 200) == expected
        for m in modes:
            assert m.residual <= tol
        gaps = np.diff(sorted(m.k.real for m in modes))
        assert gaps.min() > 1e-6

    @pytest.mark.parametrize("g, D", WEAK_MIRRORS, ids=[f"weak-g{g}-{D}" for g, D in WEAK_MIRRORS])
    def test_weak_mirror_roots_pass_on_their_backward_error(self, g, D):
        # P22's rounding near the node pole leaves some true roots above
        # VERIFY_TOL in scaled residual, yet one more Newton step moves them
        # by less than an ulp; each matches the lattice's Siegert root.
        # Below Im k = -0.06 the lattice's companion solves these weakly
        # coupled segments only to 5.1e-10 (its roots' own Newton step on
        # P22), so the rest match to 1e-9
        cfg = TwoNodeConfig(weak(g), weak(g), D)
        modes, diag = find_quasibound_modes(cfg, LAT, return_diagnostics=True)
        reference = siegert_window_roots(cfg, LAT)
        assert diag["winding"] == len(modes) == len(reference)
        ks = np.array([m.k for m in modes])
        loose = np.array([m.residual for m in modes]) > VERIFY_TOL
        assert loose.any()
        assert np.abs(ks - reference)[loose].max() <= 1e-12
        assert np.abs(ks - reference).max() <= 1e-9

    @pytest.mark.parametrize("atom, D", [(LAMBDA, 10), *((weak(g), D) for g, D in WEAK_MIRRORS[::3])],
                             ids=["lambda-10", *(f"weak-g{g}-{D}" for g, D in WEAK_MIRRORS[::3])])
    def test_failed_verification_raises(self, monkeypatch, atom, D):
        # a root 1e-9 off fails the residual check, and one more Newton step
        # from it is over 1e6 ulps
        polish = quasibound._polish

        def shifted(*args):
            ks, moving = polish(*args)
            return ks + 1e-9, moving

        monkeypatch.setattr(quasibound, "_polish", shifted)
        with pytest.raises(UnverifiedRootError, match="Newton has not converged"):
            find_quasibound_modes(TwoNodeConfig(atom, atom, D), LAT)

    @pytest.mark.parametrize("g", [0.01, 0.1])
    def test_a_newton_that_never_settles_raises(self, monkeypatch, g):
        # negative control: every Newton step overshoots by 1e-9, so each root
        # swings 2e-9 across its true value for all 64 steps.  Below the node
        # pole (Re k < 1.1) points 1e-9 off these roots read scaled residuals
        # under VERIFY_TOL, so only the polish's own convergence refuses them
        cfg = TwoNodeConfig(weak(g), weak(g), 100)
        ks = np.array([m.k for m in find_quasibound_modes(cfg, LAT, re_window=(0.2, 1.1))])
        assert len(ks) > 20
        assert quasibound_residual(ks + 1e-9, cfg, LAT, scaled=True).max() <= VERIFY_TOL
        step = quasibound._newton_step

        def overshoot(*args):
            s = step(*args)
            return s + 1e-9 * np.sign(s)

        monkeypatch.setattr(quasibound, "_newton_step", overshoot)
        with pytest.raises(UnverifiedRootError, match="still moving after 64 Newton steps"):
            find_quasibound_modes(cfg, LAT, re_window=(0.2, 1.1))

    @pytest.mark.parametrize("case", JITTERING, ids=[f"D{cfg.D}" for cfg, _, _ in JITTERING])
    def test_roots_newton_jitters_about_certify(self, case):
        # Newton's steps on these roots swing by up to 41 ulps of |k| at D = 3
        # and by 470-840 at D = 40 (|k| = 0.023), yet by under 2 ulps of
        # |omega| + 2t in energy, whose rounding P22 carries; the lattice
        # reference holds weak segments to 1e-9
        cfg, lat, count = case
        modes, diag = find_quasibound_modes(cfg, lat, return_diagnostics=True)
        reference = siegert_window_roots(cfg, lat)
        assert diag["winding"] == len(modes) == len(reference) == count
        assert np.abs(np.array([m.k for m in modes]) - reference).max() <= 1e-9
        assert diag["settle_ulps"] <= 16.0

    def test_random_pairs_certify(self):
        # 200 seeded pairs at D <= 40, three of which the |k|-scaled
        # convergence test refused
        rng = np.random.default_rng(19)
        for _ in range(200):
            cfg, lat = draw_trapped_pair(rng, d_max=40)
            modes, diag = find_quasibound_modes(cfg, lat, return_diagnostics=True)
            reference = siegert_window_roots(cfg, lat)
            assert diag["winding"] == len(modes) == len(reference), (cfg, lat)
            assert np.abs(np.array([m.k for m in modes]) - reference).max(initial=0.0) <= 1e-9, (cfg, lat)

    def test_jittering_roots_shifted_by_1e_9_raise(self, monkeypatch):
        # negative control: at the D = 3 roots sin k is 0.17, so a root 1e-9
        # off moves E by 7.1e-10 in one more step, 8e5 ulps of |omega| + 2t
        polish = quasibound._polish

        def shifted(*args):
            ks, moving = polish(*args)
            return ks + 1e-9, moving

        monkeypatch.setattr(quasibound, "_polish", shifted)
        cfg, lat, _ = JITTERING[0]
        with pytest.raises(UnverifiedRootError, match="Newton has not converged"):
            find_quasibound_modes(cfg, lat)

    def test_a_certified_search_warns_nothing(self):
        # on the way to these 200 roots P22's norm overflows and Newton and
        # Aberth's correction divide by zero, all inside the polish
        atom = AtomParams(omega_e=-2.913919679340519, delta=0.6676376416430316, Omega=1.6902859880684065,
                          g=0.2877216881276138)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modes, diag = find_quasibound_modes(TwoNodeConfig(atom, atom, 199),
                                                LatticeParams(omega=0.5089884434062295, t=1.5928914050152279),
                                                return_diagnostics=True)
        assert diag["winding"] == len(modes) == 200

    @pytest.mark.parametrize(
        "sites, atoms, expected",
        [((0, 12, 30), (LAMBDA,) * 3, 33), ((0, 50, 120), (LAMBDA,) * 3, 121),
         ((0, 7, 19, 40), (LAMBDA,) * 4, 45), ((0, 9, 21), (TWO_LEVEL, LAMBDA, TWO_LEVEL), 22)],
        ids=["nodes-0-12-30", "nodes-0-50-120", "nodes-0-7-19-40", "mixed-nodes-0-9-21"],
    )
    def test_every_multi_node_root_is_found(self, sites, atoms, expected):
        # the Siegert problem of any node list against the argument-principle
        # count of the kernel's P22.  P22 also vanishes at the band edges,
        # where no mode lives; at the production 1e-6 edge margin the Siegert
        # problem has no root within 0.01 of them.  A two-level node's
        # metastable level, if kept, would add a false root at E = delta
        nodes = list(zip(sites, atoms))
        k = -1j * np.log(siegert_roots(nodes, LAT)[0])
        im_lo, im_hi = DEFAULT_IM_WINDOW

        def count(margin):
            inside = (margin < k.real) & (k.real < math.pi - margin)
            return np.count_nonzero(inside & (im_lo < k.imag) & (k.imag < im_hi))

        rect = (0.01, math.pi - 0.01, *DEFAULT_IM_WINDOW)
        assert count(0.01) == winding_number(nodes, LAT, rect, 40 * sites[-1] + 200) == expected
        assert count(1e-6) == expected

    def test_roots_of_the_wrong_separation_raise(self, monkeypatch):
        # negative control: the cells, counts and seeds of the D+1 cavity
        # polish onto roots of the D residual that do not match those counts
        exact = quasibound._seeds

        def shifted(cfg, lat, xs, im_window, width):
            return exact(TwoNodeConfig(cfg.atom1, cfg.atom2, cfg.D + 1), lat, xs, im_window, width)

        monkeypatch.setattr(quasibound, "_seeds", shifted)
        with pytest.raises(UnverifiedRootError, match="argument principle counts"):
            find_quasibound_modes(TwoNodeConfig(LAMBDA, LAMBDA, 10), LAT)

    @pytest.mark.parametrize("which", ["single", "multi"])
    def test_dropping_one_seed_raises(self, monkeypatch, which):
        # negative control: a cell left one seed short holds fewer roots than
        # it counts, whether it counts one root or two
        exact = quasibound._seeds

        def short(cfg, lat, xs, im_window, width):
            xs, counts, seeds, cells, contour = exact(cfg, lat, xs, im_window, width)
            i = np.flatnonzero(counts[cells] == (1 if which == "single" else 2))[0]
            return xs, counts, np.delete(seeds, i), np.delete(cells, i), contour

        monkeypatch.setattr(quasibound, "_seeds", short)
        with pytest.raises(UnverifiedRootError, match="argument principle counts"):
            find_quasibound_modes(TwoNodeConfig(LAMBDA, LAMBDA, 20), LAT)

    def test_cut_through_a_root_moves(self):
        # two two-level nodes at D = 3 have a root on the cut line Re k = pi/2
        # (the cuts run at (m + 1/2) pi / 3); that cut moves and the count holds
        cfg = TwoNodeConfig(TWO_LEVEL, TWO_LEVEL, 3)
        (on_cut,) = [k for k in siegert_window_roots(cfg, NARROW_LAT) if abs(k.real - math.pi / 2) < 1e-12]
        modes, diag = find_quasibound_modes(cfg, NARROW_LAT, return_diagnostics=True)
        assert diag["winding"] == len(modes) == 2
        assert min(abs(m.k - on_cut) for m in modes) <= 1e-12


#: Pair types of the completeness matrix, with their lattices.
PAIRS = {
    "lambda": (LAMBDA, LAMBDA, LAT),
    "two-level": (TWO_LEVEL, TWO_LEVEL, NARROW_LAT),
    "two-level-at-band-centre": (AtomParams(omega_e=1.0, delta=0.0, Omega=0.0),
                                 AtomParams(omega_e=1.0, delta=0.0, Omega=0.0), NARROW_LAT),
    "lambda-asymmetric": (LAMBDA, AtomParams(omega_e=0.7, delta=-0.2, Omega=0.8), LAT),
    "decaying": (DECAYING, DECAYING, LAT),
    "lambda-two-level": (*MIXED, LAT),
}


class TestCompletenessMatrix:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_every_separation_matches_the_lattice(self, pair):
        # every D from 1 to 40, then 100 and 400: the window count by the
        # argument principle equals the lattice's, and each root lies within
        # 1e-12 of its Siegert root, one to one in (Re k, Im k) order
        atom1, atom2, lat = PAIRS[pair]
        for D in [*range(1, 41), 100, 400]:
            cfg = TwoNodeConfig(atom1, atom2, D)
            modes, diag = find_quasibound_modes(cfg, lat, return_diagnostics=True)
            reference = siegert_window_roots(cfg, lat)
            assert diag["winding"] == len(modes) == len(reference), D
            ks = np.array([m.k for m in modes])
            assert np.all(np.abs(ks - reference) <= 1e-12), D

    @pytest.mark.parametrize(
        "lat, atom, D",
        [
            pytest.param(LatticeParams(omega=-0.8, t=2.72),
                         AtomParams(omega_e=-1.715, delta=-1.946, Omega=0.213, g=0.667), 3,
                         id="four-roots-near-the-upper-edge"),
            pytest.param(LatticeParams(omega=0.2, t=3.47),
                         AtomParams(omega_e=1.488, delta=0.57, Omega=1.576, g=1.167), 73,
                         id="bound-pair-just-past-the-band-edge"),
            pytest.param(LatticeParams(omega=-0.94, t=0.54),
                         AtomParams(omega_e=2.74, delta=-1.98, Omega=0.46, g=0.99, Gamma=0.12, gamma=0.2), 39,
                         id="decaying-pair-1e-7-apart"),
            pytest.param(LatticeParams(omega=-0.94, t=0.54),
                         AtomParams(omega_e=2.74, delta=-1.98, Omega=0.46, g=0.99, Gamma=0.12, gamma=0.2), 78,
                         id="decaying-double-root"),
            pytest.param(LAT, weak(0.1), 400, id="weak-mirror-cluster"),
        ],
    )
    def test_close_roots_match_the_lattice(self, lat, atom, D):
        # roots close to the window's boundary or to each other: several
        # near the window's upper edge, or a bound-state pair 1e-6 past its
        # side, turn the phase by a whole turn between two samples unless
        # the boundary follows the bending of |g|; a forward-difference
        # Newton stalls 1e-8 short of a root 1e-7 from the next; at D = 78
        # that pair is one double root to rounding, found twice; the weak
        # mirrors' three roots within 1e-2 at a node pole need a box about
        # them to be seeded
        cfg = TwoNodeConfig(atom, atom, D)
        modes, diag = find_quasibound_modes(cfg, lat, return_diagnostics=True)
        reference = siegert_window_roots(cfg, lat)
        assert diag["winding"] == len(modes) == len(reference)
        assert np.abs(np.array([m.k for m in modes]) - reference).max() <= 1e-12

    @pytest.mark.parametrize("D", [20, 100])
    def test_moment_seeds_certify_without_a_box_search(self, D):
        # the fig3a pair's two-root cell near its node pole has seeds outside
        # it, yet they polish onto its roots, so no box is searched
        cfg = TwoNodeConfig(LAMBDA, LAMBDA, D)
        modes, diag = find_quasibound_modes(cfg, LAT, return_diagnostics=True)
        assert diag["box_searches"] == 0
        reference = siegert_window_roots(cfg, LAT)
        assert diag["winding"] == len(modes) == len(reference)
        assert np.abs(np.array([m.k for m in modes]) - reference).max() <= 1e-12

    def test_a_rejected_cluster_is_box_searched(self):
        # the weak mirrors' cluster at a node pole fails the certificate from
        # its moment seeds alone (test_close_roots_match_the_lattice checks its roots)
        modes, diag = find_quasibound_modes(TwoNodeConfig(weak(0.1), weak(0.1), 400), LAT,
                                            return_diagnostics=True)
        assert diag["box_searches"] >= 1
        assert diag["winding"] == len(modes) == 401

    @pytest.mark.parametrize("pair", ["lambda", "two-level"])
    def test_long_cavity_against_the_argument_principle(self, pair):
        # D = 800 is beyond the lattice reference's reach in a test; the count
        # comes from the kernel's P22 wound around 40 samples per unit of D.
        # Below Im k = -0.44, |e^{2ikD}| overflows, and no root lies there
        atom1, atom2, lat = PAIRS[pair]
        modes, diag = find_quasibound_modes(TwoNodeConfig(atom1, atom2, 800), lat, return_diagnostics=True)
        rect = (1e-3, math.pi - 1e-3, -0.4, 0.05)
        assert all(1e-3 < m.k.real < math.pi - 1e-3 and m.k.imag > -0.4 for m in modes)
        assert diag["winding"] == len(modes) == winding_number([(0, atom1), (800, atom2)], lat, rect, 32200)
        assert len(modes) == {"lambda": 801, "two-level": 799}[pair]
        assert max(m.residual for m in modes) <= VERIFY_TOL


def full_companion_roots(nodes, lat):
    """Every finite Siegert root z of ``nodes`` from one companion of the whole segment.

    Written out from ``build_hamiltonian`` as in ``siegert_roots``, with no
    parity blocks: sites 0..L, then the levels kept, A1 = (omega - H) / t,
    and A2 = I but for zero rows at the two end sites, which force two
    eigenvalues mu = 1/z = 0.  With no hop between the end sites (a span of 2
    or more) A1 vanishes between them too and mu = 0 is fourfold; every mu = 0 is
    dropped.
    """
    span = nodes[-1][0] - nodes[0][0]
    spec = ChainSpec(span + 1, tuple((x - nodes[0][0], atom) for x, atom in nodes), lat)
    kept = [i for i in range(spec.dimension)
            if i <= span or (i - span) % 2 == 1 or not nodes[(i - span - 2) // 2][1].Omega == 0]
    H = build_hamiltonian(spec)[np.ix_(kept, kept)]
    n = len(kept)
    A2 = np.eye(n)
    A2[0, 0] = A2[span, span] = 0.0
    companion = np.block([[np.zeros((n, n)), np.eye(n)], [-A2, (lat.omega * np.eye(n) - H) / lat.t]])
    mu = np.linalg.eigvals(companion)
    return n, 1.0 / mu[np.argsort(np.abs(mu))[2 if span == 1 else 4 :]]


def assert_same_roots(zs, reference, rtol):
    """Each root of ``zs`` within ``rtol`` of its own root of ``reference``, one to one.

    No root is at infinity: a mu = 0 left in either would come out as
    rounding, |z| ~ 1e15.
    """
    assert len(zs) == len(reference)
    assert np.abs(zs).max() <= 1e8 and np.abs(reference).max() <= 1e8
    nearest = np.abs(zs[:, None] - reference[None, :]).argmin(axis=1)
    assert sorted(nearest) == list(range(len(reference)))
    assert np.all(np.abs(zs - reference[nearest]) <= rtol * np.abs(reference[nearest]))


def nudged(atom):
    """``atom`` with Omega one ulp larger: a mirror image that differs in one bit."""
    return AtomParams(omega_e=atom.omega_e, delta=atom.delta, Omega=np.nextafter(atom.Omega, 2.0),
                      g=atom.g, Gamma=atom.Gamma, gamma=atom.gamma)


class TestParityBlocks:
    @pytest.mark.parametrize(
        "sites, atoms",
        [((0, 10), (LAMBDA,) * 2), ((0, 9), (LAMBDA,) * 2), ((0, 1), (LAMBDA,) * 2),
         ((0, 2), (LAMBDA,) * 2), ((0, 12), (TWO_LEVEL,) * 2), ((0, 7), (TWO_LEVEL,) * 2),
         ((0, 10), (DECAYING,) * 2), ((0, 11), (DECAYING,) * 2), ((0, 10, 20), (LAMBDA,) * 3),
         ((0, 10, 20), (TWO_LEVEL, DECAYING, TWO_LEVEL)), ((0, 3, 12, 15), (*MIXED, *MIXED[::-1])),
         ((0, 4, 10, 14), (DECAYING, LAMBDA, LAMBDA, DECAYING))],
        ids=["lambda-even-span", "lambda-odd-span", "lambda-D1", "lambda-D2", "two-level-even-span",
             "two-level-odd-span", "decaying-even-span", "decaying-odd-span", "node-on-the-plane",
             "two-level-ends-decaying-centre", "four-mixed-nodes", "four-decaying-ends"],
    )
    def test_symmetric_segment_splits_and_keeps_every_root(self, sites, atoms):
        # the two blocks hold the n unknowns between them, and each drops the
        # mu = 0 of the end sites it folds into one, plus its Jordan partner
        # past a span of 1
        nodes = list(zip(sites, atoms))
        zs, sizes = siegert_roots(nodes, LAT)
        n, reference = full_companion_roots(nodes, LAT)
        assert len(sizes) == 2 and sum(sizes) == 2 * n and 0 <= sizes[0] - sizes[1] <= 2 * len(nodes)
        assert len(zs) == 2 * n - (2 if sites[-1] - sites[0] == 1 else 4)
        assert_same_roots(zs, reference, 1e-12)

    @pytest.mark.parametrize(
        "nodes",
        [[(0, LAMBDA), (10, nudged(LAMBDA))], [(0, DECAYING), (9, nudged(DECAYING))],
         [(0, LAMBDA), (10, LAMBDA), (20, nudged(LAMBDA))], [(0, TWO_LEVEL), (10, LAMBDA)],
         [(0, LAMBDA), (10, LAMBDA), (13, LAMBDA)]],
        ids=["lambda-one-ulp", "decaying-one-ulp", "three-nodes-one-ulp", "two-level-facing-lambda",
             "sites-off-the-mirror"],
    )
    def test_asymmetric_segment_is_one_block(self, nodes):
        # one ulp of Omega, a dropped level facing a kept one, or nodes off
        # each other's mirror sites: the whole companion, both end zeros and
        # their Jordan partners dropped
        zs, sizes = siegert_roots(nodes, LAT)
        n, reference = full_companion_roots(nodes, LAT)
        assert sizes == [2 * n]
        assert len(zs) == 2 * n - 4
        assert_same_roots(zs, reference, 1e-12)

    @pytest.mark.parametrize("D", [1, 2, 10, 100])
    @pytest.mark.parametrize("second", [LAMBDA, nudged(LAMBDA)], ids=["symmetric", "one-ulp"])
    def test_no_root_at_infinity(self, D, second):
        # past a span of 1 the end zeros' Jordan partners came back as |z| ~ 1e15
        zs, sizes = siegert_roots([(0, LAMBDA), (D, second)], LAT)
        assert len(sizes) == (2 if second is LAMBDA else 1)
        assert len(zs) == sum(sizes) - (2 if D == 1 else 4)
        assert np.abs(zs).max() <= 1e8

    def test_mirror_blocks_fold_the_matrix(self):
        # the fold is an orthogonal change of basis: both blocks' eigenvalues
        # together are the matrix's, and the columns and weights rebuild the
        # basis vectors, unit and of definite parity
        rng = np.random.default_rng(5)
        mirror = np.array([6, 5, 4, 3, 2, 1, 0, 8, 7])
        B = rng.normal(size=(9, 9))
        A = B + B[mirror][:, mirror]
        A = A + A.T
        blocks = oracle._mirror_blocks(*dense_entries(A), mirror)
        assert [len(block) for block, _, _ in blocks] == [5, 4]
        values = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block, _, _ in blocks]))
        assert np.allclose(values, np.linalg.eigvalsh(A), rtol=0, atol=1e-12)
        basis = np.zeros((9, 9))
        row = 0
        for (block, columns, weights), sign in zip(blocks, (1.0, -1.0)):
            for i in range(len(block)):
                for column, weight in zip(columns, weights):
                    basis[row, column[i]] = weight[i]
                assert np.array_equal(basis[row][mirror], sign * basis[row])
                row += 1
        assert np.allclose(basis @ basis.T, np.eye(9), rtol=0, atol=1e-15)
        folded = basis @ A @ basis.T
        assert np.allclose(folded[:5, :5], blocks[0][0], rtol=0, atol=1e-14)
        assert np.allclose(folded[5:, 5:], blocks[1][0], rtol=0, atol=1e-14)
        assert np.allclose(folded[:5, 5:], 0.0, rtol=0, atol=1e-14)
        # one entry off its image, or an image outside the basis: A alone
        A[0, 1] = np.nextafter(A[0, 1], 0.0)
        ((whole, columns, weights),) = oracle._mirror_blocks(*dense_entries(A), mirror)
        assert np.array_equal(whole, A) and np.array_equal(columns, [np.arange(9)])
        assert np.array_equal(weights, [np.ones(9)])
        outside = np.r_[mirror[:-1], -1]
        assert len(oracle._mirror_blocks(*dense_entries(A + A[mirror][:, mirror]), outside)) == 1


#: The fig3a node with Omega set to put a node pole on E_12 of D = 20 (a BIC).
AT_OMEGA_STAR = AtomParams(omega_e=1.0, delta=0.0, Omega=1.6625077511098134)
STRONG = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, g=3.0)
STRONG_TWO_LEVEL = AtomParams(omega_e=1.0, delta=0.0, Omega=0.0, g=3.0)


def lattice_bound_states(nodes, n_sites):
    """Energies of ``eigenmodes`` outside the band, the nodes at the chain's centre, sorted."""
    first = (n_sites - 1 - nodes[-1][0]) // 2
    spec = ChainSpec(n_sites, tuple((first + x, atom) for x, atom in nodes), LAT)
    E = np.array([m.energy.real for m in eigenmodes(spec)])
    return np.sort(E[np.abs(E - LAT.omega) > 2 * LAT.t])


def searched_bound_states(atom1, atom2, D):
    """Energies of the certified search's roots at k = i kappa and pi + i kappa, sorted."""
    cfg = TwoNodeConfig(atom1, atom2, D)
    modes = [m for re_window in ((-0.5, 0.5), (math.pi - 0.5, math.pi + 0.5))
             for m in find_quasibound_modes(cfg, LAT, re_window=re_window, im_window=(0.001, 1.0))]
    assert all(m.n is None for m in modes)
    return np.sort([m.E.real for m in modes])


def binding(E):
    """kappa of a state at energy E outside the band: |E - omega| = 2 t cosh kappa."""
    return np.arccosh(np.abs(E - LAT.omega) / (2 * LAT.t))


class TestBoundStatesOutsideTheBand:
    # Photon-node bound states, the poles of s at k = i kappa (below the band)
    # and pi + i kappa (above it), by three routes: the closed form
    # det(1 - V G) = 0, the out-of-band eigenvalues of a chain, and the
    # trapped-mode search.  A chain's eigenvalue is exact to within about
    # e^{-kappa N}, so the gate is 1e-12 where e^{-kappa N / 2} < 1e-14.

    @pytest.mark.parametrize(
        "nodes, n_sites",
        [([(0, STRONG)], 401), ([(0, STRONG_TWO_LEVEL)], 401),
         ([(0, AT_OMEGA_STAR), (20, AT_OMEGA_STAR)], 1801),
         ([(0, STRONG_TWO_LEVEL), (7, STRONG)], 401)],
        ids=["lambda-g3", "two-level-g3", "fig3a-pair-at-omega-star-20", "two-level-lambda-7"],
    )
    def test_closed_form_matches_the_lattice(self, nodes, n_sites):
        closed = bound_state_energies(nodes, LAT)
        lattice = lattice_bound_states(nodes, n_sites)
        assert len(closed) == len(lattice) == 2 * len(nodes)
        assert np.any(closed < LAT.omega) and np.any(closed > LAT.omega)
        assert np.all(np.exp(-binding(closed) * n_sites / 2) < 1e-14)
        assert np.abs(closed - lattice).max() <= 1e-12

    @pytest.mark.parametrize(
        "atom1, atom2, D, count",
        [(AT_OMEGA_STAR, AT_OMEGA_STAR, 20, 4),
         (STRONG_TWO_LEVEL, STRONG, 7, 4), (STRONG, STRONG, 1, 2)],
        ids=["fig3a-pair-at-omega-star-20", "two-level-lambda-7", "lambda-g3-1"],
    )
    def test_certified_search_finds_each_bound_state(self, atom1, atom2, D, count):
        # the windows Re k in (-0.5, 0.5) and (pi - 0.5, pi + 0.5), Im k in
        # (0.001, 1), with no change to the search; adjacent nodes bind only
        # the even state on either side
        closed = bound_state_energies([(0, atom1), (D, atom2)], LAT)
        searched = searched_bound_states(atom1, atom2, D)
        assert len(searched) == len(closed) == count
        assert np.abs(searched - closed).max() <= 1e-12

    def test_a_flipped_sinh_term_or_a_short_chain_fails_the_gate(self):
        # the closed form with V(E) = -+ 2 t sinh kappa the wrong way round,
        # or a chain shorter than 1 / kappa (14.7 sites for the fig3a node)
        def agree(a, b):
            return len(a) == len(b) and np.abs(a - b).max() <= 1e-12

        nodes = [(0, STRONG)]
        assert agree(bound_state_energies(nodes, LAT), lattice_bound_states(nodes, 401))
        assert not agree(bound_state_energies(nodes, LAT, flip=True), lattice_bound_states(nodes, 401))
        fig3a = [(0, AtomParams(omega_e=1.0, delta=0.0, Omega=1.0))]
        closed = bound_state_energies(fig3a, LAT)
        assert 1 / binding(closed).min() > 14
        assert agree(closed, lattice_bound_states(fig3a, 1001))
        assert not agree(closed, lattice_bound_states(fig3a, 11))
