import math

import numpy as np
import pytest

from cavitychain import (
    AtomParams,
    DegenerateDecompositionError,
    LatticeParams,
    OutOfBandError,
    decompose_potential,
    dispersion_energy,
    dispersion_energy_continued,
    in_band,
    momentum_from_energy,
)
from cavitychain.model import SINGULAR_TOL, potential_parts

LAT = LatticeParams(omega=1.0, t=2.0)


class TestParams:
    def test_lattice_rejects_bad_hopping(self):
        with pytest.raises(ValueError):
            LatticeParams(omega=0.0, t=0.0)
        with pytest.raises(ValueError):
            LatticeParams(omega=0.0, t=-1.0)
        with pytest.raises(ValueError):
            LatticeParams(omega=math.nan, t=1.0)

    def test_band_edges(self):
        assert LAT.band_bottom == -3.0
        assert LAT.band_top == 5.0

    def test_atom_invariants(self):
        with pytest.raises(ValueError):
            AtomParams(omega_e=0.0, delta=0.0, Omega=-1.0)
        with pytest.raises(ValueError):
            AtomParams(omega_e=0.0, delta=0.0, Omega=0.0, g=0.0)
        with pytest.raises(ValueError):
            AtomParams(omega_e=0.0, delta=0.0, Omega=0.0, Gamma=-0.1)
        with pytest.raises(ValueError):
            AtomParams(omega_e=0.0, delta=0.0, Omega=0.0, gamma=-0.1)

    def test_two_level_constructor(self):
        atom = AtomParams.two_level(2.0, g=0.5)
        assert atom.is_two_level
        assert atom.Omega == 0.0
        assert atom.omega_e == 2.0

    def test_decay_shifted_levels(self):
        atom = AtomParams(omega_e=1.0, delta=0.5, Omega=1.0, Gamma=0.1, gamma=0.02)
        assert not atom.is_decay_free


class TestDispersion:
    def test_band_centre(self):
        assert dispersion_energy(math.pi / 2, LAT) == pytest.approx(1.0, abs=1e-15)

    def test_band_bottom_limit(self):
        assert dispersion_energy(1e-9, LAT) == pytest.approx(-3.0, abs=1e-12)

    def test_exact_cosine_point(self):
        assert dispersion_energy(math.pi / 3, LAT) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("k", [0.0, math.pi, -0.5, 4.0])
    def test_domain_errors(self, k):
        with pytest.raises(ValueError):
            dispersion_energy(k, LAT)

    def test_monotone_in_k(self):
        k = np.linspace(1e-4, math.pi - 1e-4, 500)
        E = np.array([dispersion_energy(v, LAT) for v in k])
        assert np.all(np.diff(E) > 0)

    def test_continuation_matches_on_real_axis(self):
        for k in (0.3, 1.2, 2.9):
            assert dispersion_energy_continued(k, LAT).real == dispersion_energy(k, LAT)

    def test_momentum_at_band_centre(self):
        assert momentum_from_energy(LAT.omega, LAT) == math.pi / 2

    def test_momentum_round_trip_point(self):
        E = dispersion_energy(0.3, LAT)
        assert momentum_from_energy(E, LAT) == pytest.approx(0.3, abs=1e-14)

    @pytest.mark.parametrize("E", [5.0, -3.0, 9.0, -7.0])
    def test_momentum_out_of_band(self, E):
        with pytest.raises(OutOfBandError):
            momentum_from_energy(E, LAT)

    def test_round_trip_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            t = rng.uniform(0.5, 4.0)
            omega = rng.uniform(-2.0, 2.0)
            lat = LatticeParams(omega=omega, t=t)
            E = rng.uniform(lat.band_bottom, lat.band_top)
            if not in_band(E, lat):
                continue
            back = dispersion_energy(momentum_from_energy(E, lat), lat)
            assert abs(back - E) <= 1e-12 * 2.0 * t


FIG3A_ATOM = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)


def effective_potential(E, atom):
    """V(E) = num / den from ``potential_parts``; None where den counts as zero."""
    num, den, scale = potential_parts(E, atom)
    return None if abs(den) < SINGULAR_TOL * scale else complex(num / den)


class TestEffectivePotential:
    def test_transparency_at_two_photon_resonance(self):
        assert effective_potential(FIG3A_ATOM.delta, FIG3A_ATOM) == 0.0

    def test_two_level_reduction(self):
        atom = AtomParams(omega_e=1.5, delta=0.4, Omega=0.0, g=1.3)
        for E in (-2.0, 0.0, 2.5):
            assert effective_potential(E, atom) == pytest.approx(1.3**2 / (E - 1.5))

    def test_two_level_reduction_is_finite_at_the_cancelled_pole(self):
        # Omega = 0 removes the (E - delta) factor exactly; E = delta must
        # evaluate like any other energy.
        atom = AtomParams(omega_e=1.5, delta=0.4, Omega=0.0)
        assert effective_potential(0.4, atom) == pytest.approx(1.0 / (0.4 - 1.5))

    def test_hand_value(self):
        # V(0.5) = 0.5 / ((0.5 - 1)(0.5 - 0) - 1) = -0.4 for the standard node
        v = effective_potential(0.5, FIG3A_ATOM)
        assert v == pytest.approx(-0.4, abs=1e-15)
        assert v.imag == 0.0

    def test_singular_at_both_poles(self):
        dec = decompose_potential(FIG3A_ATOM)
        for pole in dec.poles:
            assert effective_potential(pole, FIG3A_ATOM) is None

    def test_two_level_singularity(self):
        atom = AtomParams.two_level(1.5)
        assert effective_potential(1.5, atom) is None

    def test_real_for_decay_free_real_energy(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            atom = AtomParams(
                omega_e=rng.uniform(-3, 3),
                delta=rng.uniform(-3, 3),
                Omega=rng.uniform(0, 3),
            )
            E = rng.uniform(-5, 5)
            v = effective_potential(E, atom)
            if v is None:
                continue
            assert v.imag == 0.0

    def test_decay_substitution(self):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0, Gamma=0.04, gamma=0.04)
        E = 0.7
        expected = (E - 0.0 + 0.04j) / ((E - 1.0 + 0.04j) * (E - 0.0 + 0.04j) - 1.0)
        assert effective_potential(E, atom) == pytest.approx(expected)

    def test_complex_energy_accepted(self):
        v = effective_potential(0.5 + 0.1j, FIG3A_ATOM)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


class TestDecomposition:
    def test_symmetric_case(self):
        dec = decompose_potential(AtomParams(omega_e=0.7, delta=0.7, Omega=1.0))
        assert dec.mu == 1.0
        assert dec.nu == 0.0
        assert dec.A == 0.5 and dec.B == 0.5
        assert dec.omega_plus == pytest.approx(1.7)
        assert dec.omega_minus == pytest.approx(-0.3)

    def test_two_level_limit(self):
        dec = decompose_potential(AtomParams(omega_e=2.0, delta=0.0, Omega=0.0))
        assert dec.mu == 1.0
        assert dec.nu == 1.0
        assert dec.A == 1.0 and dec.B == 0.0
        assert dec.omega_plus == 2.0
        assert dec.omega_minus == 0.0

    def test_reference_numbers(self):
        dec = decompose_potential(FIG3A_ATOM)
        assert dec.mu == pytest.approx(math.sqrt(1.25), abs=1e-12)
        assert dec.omega_plus == pytest.approx(1.6180339887498949, abs=1e-12)
        assert dec.omega_minus == pytest.approx(-0.6180339887498949, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateDecompositionError):
            decompose_potential(AtomParams(omega_e=0.3, delta=0.3, Omega=0.0))

    def test_invariants_over_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            atom = AtomParams(
                omega_e=rng.uniform(-3, 3),
                delta=rng.uniform(-3, 3),
                Omega=rng.uniform(0, 3),
            )
            try:
                dec = decompose_potential(atom)
            except DegenerateDecompositionError:
                continue
            assert abs(dec.A + dec.B - 1.0) <= 4e-16
            assert abs(dec.nu) <= 1.0 + 1e-15
            assert dec.mu >= atom.Omega
            assert dec.mu >= abs(atom.omega_e - atom.delta) / 2
            assert dec.omega_plus - dec.omega_minus == pytest.approx(2 * dec.mu)
            # weighted pole centre recovers the detuning
            assert dec.A * dec.omega_minus + dec.B * dec.omega_plus == pytest.approx(
                atom.delta, abs=1e-12
            )

    def test_partial_fraction_equivalence(self):
        # Pole margin 0.05: closer in, |V| grows past ~100 g^2 and the
        # cancellation error of the direct denominator alone exceeds the
        # 1e-10 g^2 budget in binary64.
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 10_000:
            atom = AtomParams(
                omega_e=rng.uniform(-3, 3),
                delta=rng.uniform(-3, 3),
                Omega=rng.uniform(0, 3),
                g=rng.uniform(0.6, 1.5),
            )
            lat = LatticeParams(omega=rng.uniform(-2, 2), t=rng.uniform(0.5, 4))
            E = rng.uniform(lat.band_bottom, lat.band_top)
            try:
                dec = decompose_potential(atom)
            except DegenerateDecompositionError:
                continue
            if min(abs(E - p) for p in dec.poles) < 0.05:
                continue
            direct = effective_potential(E, atom)
            assert abs(direct - dec.potential(E, atom.g)) <= 1e-10 * atom.g**2
            checked += 1
