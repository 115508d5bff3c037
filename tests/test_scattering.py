import math

import numpy as np
import pytest

from cavitychain import (
    AtomParams,
    LatticeParams,
    LimitWindowError,
    NoSolutionError,
    TwoNodeConfig,
    dispersion_energy,
    find_perfect_reflection,
)
from helpers import (
    OutOfBandError,
    SingularPotentialError,
    decompose_potential,
    draw_atom,
    draw_lattice,
    draw_momentum,
    draw_two_node,
    effective_potential,
    limit_scatter,
    loss_ratio,
    momentum_from_energy,
    single_node_scatter,
    two_node_scatter,
)

LAT = LatticeParams(omega=1.0, t=2.0)
FIG3A_ATOM = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)


class TestSingleNode:
    def test_perfect_transmission_at_two_photon_resonance(self):
        k = momentum_from_energy(FIG3A_ATOM.delta, LAT)
        res = single_node_scatter(k, FIG3A_ATOM, LAT)
        assert abs(res.r) <= 1e-15
        assert abs(res.s - 1.0) <= 1e-15

    def test_perfect_reflection_at_pole(self):
        dec = decompose_potential(FIG3A_ATOM)
        k = momentum_from_energy(dec.omega_plus, LAT)
        res = single_node_scatter(k, FIG3A_ATOM, LAT)
        assert res.singular
        assert res.r == -1.0
        assert res.s == 0.0
        assert res.R == 1.0 and res.T == 0.0

    def test_hand_value_at_pi_third(self):
        # E = -1, V = -1, r = -1/(1 + 2 sqrt(3) i), R = 1/13
        res = single_node_scatter(math.pi / 3, FIG3A_ATOM, LAT)
        assert res.E == pytest.approx(-1.0, abs=1e-14)
        expected_r = -1.0 / (1.0 + 2.0 * math.sqrt(3) * 1j)
        assert res.r == pytest.approx(expected_r, abs=1e-14)
        assert res.R == pytest.approx(1.0 / 13.0, abs=1e-14)

    def test_structural_identity_s_minus_r(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            atom = draw_atom(rng, decay=bool(rng.integers(0, 2)))
            res = single_node_scatter(draw_momentum(rng), atom, draw_lattice(rng))
            if res.singular:
                continue
            assert res.s - res.r == 1.0

    def test_flux_conservation_decay_free(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            res = single_node_scatter(draw_momentum(rng), draw_atom(rng), draw_lattice(rng))
            assert abs(res.R + res.T - 1.0) <= 1e-10

    def test_domain_error_propagates(self):
        with pytest.raises(ValueError):
            single_node_scatter(0.0, FIG3A_ATOM, LAT)

    def test_reflectance_grows_monotonically_into_the_pole(self):
        dec = decompose_potential(FIG3A_ATOM)
        offsets = np.geomspace(1e-3, 1e-7, 9)
        values = []
        for off in offsets:
            k = momentum_from_energy(dec.omega_plus - off, LAT)
            values.append(single_node_scatter(k, FIG3A_ATOM, LAT).R)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0 - 1e-6


class TestLossRatio:
    def test_elastic_scattering_is_lossless(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            xi = loss_ratio(draw_momentum(rng), draw_atom(rng), draw_lattice(rng))
            assert abs(xi) <= 1e-10

    def test_decay_always_loses(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            atom = draw_atom(rng, decay=True)
            xi = loss_ratio(draw_momentum(rng), atom, draw_lattice(rng))
            assert xi >= -1e-10

    def test_fig7_parameters_lose_near_the_poles(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.04)
        dec = decompose_potential(atom)
        k_peak = momentum_from_energy(dec.omega_plus, LAT)
        k_res = momentum_from_energy(atom.delta, LAT)
        assert loss_ratio(k_peak, atom, LAT) > 10 * loss_ratio(k_res, atom, LAT) > 0

    def test_loss_curve_peaks_sit_on_the_resonant_frequencies(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.04)
        dec = decompose_potential(atom)
        k = np.linspace(0.01, math.pi - 0.01, 3000)
        xi = np.array([loss_ratio(float(v), atom, LAT) for v in k])
        eps = np.array([dispersion_energy(float(v), LAT) for v in k])
        peaks = [
            i for i in range(1, len(k) - 1) if xi[i] > xi[i - 1] and xi[i] > xi[i + 1]
        ]
        # two dominant peaks on the resonances; small band-edge bumps from the
        # vanishing group velocity are allowed underneath
        dominant = sorted(peaks, key=lambda i: -xi[i])[:2]
        for idx, pole in zip(sorted(dominant, key=lambda i: eps[i]), sorted(dec.poles)):
            assert abs(eps[idx] - pole) < 0.05

    def test_overdamped_node_turns_transparent(self):
        # Gamma -> infinity drives the potential to zero
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=1e6, gamma=0.0)
        res = single_node_scatter(1.3, atom, LAT)
        assert abs(res.r) < 1e-5
        assert abs(res.s - 1.0) < 1e-5
        assert abs(res.xi) < 1e-5


class TestTwoNode:
    def test_hand_value_two_level_pair(self):
        # V1 = V2 = -1, phase factor 1: R = T = 1/2
        lat = LatticeParams(omega=1.0, t=1.0)
        node = AtomParams(omega_e=2.0, delta=0.0, Omega=0.0)
        res = two_node_scatter(math.pi / 2, TwoNodeConfig(node, node, D=4), lat)
        assert res.R == pytest.approx(0.5, abs=1e-14)
        assert res.T == pytest.approx(0.5, abs=1e-14)
        assert res.r == pytest.approx((-1.0 + 1.0j) / 2.0, abs=1e-14)
        assert res.s == pytest.approx((1.0 + 1.0j) / 2.0, abs=1e-14)

    def test_flux_conservation_decay_free(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            res = two_node_scatter(draw_momentum(rng), draw_two_node(rng), draw_lattice(rng))
            if res.singular:
                assert res.T == 0.0
                continue
            assert abs(res.R + res.T - 1.0) <= 1e-10

    def test_both_nodes_singular(self):
        lat = LAT
        dec = decompose_potential(FIG3A_ATOM)
        k = momentum_from_energy(dec.omega_plus, lat)
        cfg = TwoNodeConfig(FIG3A_ATOM, FIG3A_ATOM, D=7)
        res = two_node_scatter(k, cfg, lat)
        assert res.singular
        assert res.r == -1.0
        assert res.s == 0.0

    def test_second_node_singular_keeps_unit_reflection(self):
        dec = decompose_potential(FIG3A_ATOM)
        k = momentum_from_energy(dec.omega_plus, LAT)
        other = AtomParams(omega_e=-2.0, delta=0.5, Omega=0.7)
        res = two_node_scatter(k, TwoNodeConfig(other, FIG3A_ATOM, D=3), LAT)
        assert res.singular
        assert res.s == 0.0
        assert res.R == pytest.approx(1.0, abs=1e-12)
        assert res.r != -1.0  # round-trip phase to the far mirror

    def test_transparent_pair_needs_phase_and_resonance(self):
        # both nodes at two-photon resonance and e^{2ikD} = 1
        D = 5
        k = math.pi / D  # phase factor exp(2 pi i) = 1
        E = dispersion_energy(k, LAT)
        a1 = AtomParams(omega_e=1.7, delta=E, Omega=1.1)
        a2 = AtomParams(omega_e=-0.4, delta=E, Omega=0.6)
        res = two_node_scatter(k, TwoNodeConfig(a1, a2, D), LAT)
        assert abs(res.r) <= 1e-12
        assert abs(res.s) == pytest.approx(1.0, abs=1e-12)

    def test_combined_potential_equivalence_when_phase_is_unity(self):
        # e^{2ikD} = 1 makes the pair act as one node carrying V1 + V2
        rng = np.random.default_rng(43)
        for _ in range(200):
            D = int(rng.integers(2, 11))
            m = int(rng.integers(1, D))
            k = math.pi * m / D
            lat = draw_lattice(rng)
            cfg = draw_two_node(rng)
            cfg = TwoNodeConfig(cfg.atom1, cfg.atom2, D)
            E = dispersion_energy(k, lat)
            try:
                v1 = effective_potential(E, cfg.atom1)
                v2 = effective_potential(E, cfg.atom2)
                res = two_node_scatter(k, cfg, lat)
            except SingularPotentialError:
                continue
            beta = 2j * lat.t * math.sin(k)
            s_single = beta / (beta - (v1 + v2))
            assert abs(abs(res.s) - abs(s_single)) <= 1e-10

    def test_periodic_in_separation(self):
        # at k = pi/5 the round-trip phase repeats every 5 sites
        k = math.pi / 5
        cfg_base = TwoNodeConfig(
            AtomParams(omega_e=0.4, delta=-0.2, Omega=0.9),
            AtomParams(omega_e=1.1, delta=0.0, Omega=0.0),
            D=2,
        )
        ref = two_node_scatter(k, cfg_base, LAT)
        for D in (7, 12, 17):
            res = two_node_scatter(
                k, TwoNodeConfig(cfg_base.atom1, cfg_base.atom2, D), LAT
            )
            assert res.r == pytest.approx(ref.r, abs=1e-12)
            assert res.s == pytest.approx(ref.s, abs=1e-12)

    def test_separation_validation(self):
        with pytest.raises(ValueError):
            TwoNodeConfig(FIG3A_ATOM, FIG3A_ATOM, D=0)


class TestLimits:
    def test_band_centre_limit_coincides_at_pi_half(self):
        k = math.pi / 2
        exact = single_node_scatter(k, FIG3A_ATOM, LAT)
        lim = limit_scatter(k, "high", FIG3A_ATOM, LAT)
        assert lim.r == pytest.approx(exact.r, abs=1e-12)

    def test_low_regime_transparency_is_regime_independent(self):
        atom = AtomParams(omega_e=1.0, delta=LAT.omega - 2 * LAT.t + LAT.t * 0.01**2, Omega=1.0)
        lim = limit_scatter(0.01, "low", atom, LAT)
        assert abs(lim.r) <= 1e-12

    def test_windows_enforced(self):
        with pytest.raises(LimitWindowError):
            limit_scatter(1.0, "high", FIG3A_ATOM, LAT)
        with pytest.raises(LimitWindowError):
            limit_scatter(0.5, "low", FIG3A_ATOM, LAT)
        with pytest.raises(ValueError):
            limit_scatter(1.5, "sideways", FIG3A_ATOM, LAT)

    def test_high_limit_converges_linearly(self):
        deviations = []
        for dk in (0.2, 0.1, 0.05, 0.025):
            k = math.pi / 2 + dk
            exact = single_node_scatter(k, FIG3A_ATOM, LAT)
            lim = limit_scatter(k, "high", FIG3A_ATOM, LAT)
            deviations.append(abs(lim.r - exact.r))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_low_limit_converges(self):
        atom = AtomParams(omega_e=-2.0, delta=1.5, Omega=0.8)
        deviations = []
        for k in (0.2, 0.1, 0.05):
            exact = single_node_scatter(k, atom, LAT)
            lim = limit_scatter(k, "low", atom, LAT)
            deviations.append(abs(lim.r - exact.r))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_reflectance_deviation_small_near_band_centre(self):
        for dk in np.linspace(-0.05, 0.05, 21):
            k = math.pi / 2 + dk
            exact = single_node_scatter(k, FIG3A_ATOM, LAT)
            lim = limit_scatter(k, "high", FIG3A_ATOM, LAT)
            assert abs(lim.R - exact.R) < 0.03


class TestPerfectReflectionSolver:
    def test_two_level_resonance(self):
        k = momentum_from_energy(FIG3A_ATOM.omega_e, LAT)
        assert find_perfect_reflection(k, FIG3A_ATOM, LAT, free="Omega") == [0.0]

    def test_sqrt_two_case(self):
        # E = 2 with omega_e = 1, delta = 0 requires Omega = sqrt(2)
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=0.3)
        k = momentum_from_energy(2.0, LAT)
        (omega,) = find_perfect_reflection(k, atom, LAT, free="Omega")
        assert omega == pytest.approx(math.sqrt(2.0), abs=1e-12)
        tuned = AtomParams(omega_e=1.0, delta=0.0, Omega=omega)
        assert single_node_scatter(k, tuned, LAT).singular
        near = AtomParams(omega_e=1.0, delta=0.0, Omega=omega - 1e-6)
        assert single_node_scatter(k, near, LAT).R > 1.0 - 1e-4

    def test_no_solution_on_transparency_point(self):
        k = momentum_from_energy(FIG3A_ATOM.delta, LAT)
        with pytest.raises(NoSolutionError):
            find_perfect_reflection(k, FIG3A_ATOM, LAT, free="Omega")

    def test_no_real_rabi_frequency(self):
        atom = AtomParams(omega_e=3.0, delta=-3.0, Omega=1.0)
        k = momentum_from_energy(0.0, LAT)  # (E - 3)(E + 3) < 0
        with pytest.raises(NoSolutionError):
            find_perfect_reflection(k, atom, LAT, free="Omega")

    def test_free_detuning(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.2)
        k = 1.9
        (delta,) = find_perfect_reflection(k, atom, LAT, free="delta")
        tuned = AtomParams(omega_e=1.0, delta=delta, Omega=1.2)
        assert single_node_scatter(k, tuned, LAT).singular

    def test_free_detuning_degenerate(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.2)
        k = momentum_from_energy(atom.omega_e, LAT)
        with pytest.raises(NoSolutionError):
            find_perfect_reflection(k, atom, LAT, free="delta")

    def test_unknown_free_parameter(self):
        with pytest.raises(ValueError):
            find_perfect_reflection(1.0, FIG3A_ATOM, LAT, free="g")


class TestPerfectTransmissionSolver:
    def test_band_centre(self):
        atom = AtomParams(omega_e=0.3, delta=LAT.omega, Omega=1.0)
        assert momentum_from_energy(atom.delta, LAT) == math.pi / 2

    def test_reference_value(self):
        # delta = 0 with omega = 1, t = 2: k* = arccos(1/4)
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
        assert momentum_from_energy(atom.delta, LAT) == pytest.approx(
            1.3181160716528177, abs=1e-12
        )

    def test_out_of_band(self):
        atom = AtomParams(omega_e=0.0, delta=LAT.omega + 2 * LAT.t, Omega=1.0)
        with pytest.raises(OutOfBandError):
            momentum_from_energy(atom.delta, LAT)

    def test_transparency_locus_over_draws(self):
        rng = np.random.default_rng(53)
        count = 0
        while count < 100:
            lat = draw_lattice(rng)
            atom = draw_atom(rng)
            if abs(atom.delta - lat.omega) >= 2 * lat.t - 1e-3:
                continue
            k = momentum_from_energy(atom.delta, lat)
            assert single_node_scatter(k, atom, lat).R <= 1e-12
            count += 1


class TestDoublePeakStructure:
    def test_fig3a_lineshape(self):
        k = np.linspace(0.002, math.pi - 0.002, 1500)
        R = np.array([single_node_scatter(v, FIG3A_ATOM, LAT).R for v in k])
        eps = np.array([dispersion_energy(v, LAT) for v in k])
        dips = np.where(R < 1e-6)[0]
        assert dips.size > 0
        assert np.all(np.diff(dips) == 1)  # one contiguous transparency dip
        centre = dips[len(dips) // 2]
        local_cell = eps[centre + 1] - eps[centre - 1]
        assert abs(eps[centre]) < local_cell
        maxima = [
            i for i in range(1, len(k) - 1) if R[i] > R[i - 1] and R[i] > R[i + 1]
        ]
        assert len(maxima) == 2
        dec = decompose_potential(FIG3A_ATOM)
        found = sorted(eps[i] for i in maxima)
        expected = sorted((dec.omega_minus, dec.omega_plus))
        for got, want in zip(found, expected):
            cell = 2 * LAT.t * math.sin(momentum_from_energy(want, LAT)) * (k[1] - k[0])
            assert abs(got - want) <= cell
