"""The vectorised transfer-matrix kernel against the closed-form reference and the lattice."""

import inspect
import math
import textwrap

import numpy as np
import pytest

from cavitychain import (
    AtomParams,
    ChainSpec,
    LatticeParams,
    LimitWindowError,
    TwoNodeConfig,
    chain_scatter,
    scattering,
    solve_stationary,
)
from helpers import (
    draw_atom,
    draw_lattice,
    draw_momentum,
    draw_two_node,
    limit_scatter,
    single_node_scatter,
    two_node_scatter,
)

LAT = LatticeParams(omega=1.0, t=2.0)
FIG3A_ATOM = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
FIELDS = ("omega_e", "delta", "Omega", "g", "Gamma", "gamma")


def stacked(atoms):
    """One AtomParams whose fields are arrays over ``atoms``."""
    return AtomParams(**{f: np.array([getattr(a, f) for a in atoms]) for f in FIELDS})


def assert_matches_closed_forms(kernel, draws=1200, seed=5):
    """Random one- and two-node draws, with and without decay, in one call each."""
    rng = np.random.default_rng(seed)
    lats, ks, singles, pairs = [], [], [], []
    for i in range(draws):
        decay = i % 2 == 1
        lats.append(draw_lattice(rng))
        ks.append(draw_momentum(rng))
        singles.append(draw_atom(rng, two_level=i % 3 == 0, decay=decay))
        pairs.append(draw_two_node(rng, decay=decay))
    lat = LatticeParams(omega=np.array([x.omega for x in lats]), t=np.array([x.t for x in lats]))
    k = np.array(ks)
    r1, s1, f1 = kernel(k, [(0, stacked(singles))], lat)
    r2, s2, f2 = kernel(
        k,
        [(0, stacked([p.atom1 for p in pairs])), (np.array([p.D for p in pairs]),
                                                  stacked([p.atom2 for p in pairs]))],
        lat,
    )
    for i in range(draws):
        one = single_node_scatter(ks[i], singles[i], lats[i])
        two = two_node_scatter(ks[i], pairs[i], lats[i])
        assert abs(r1[i] - one.r) <= 1e-13 and abs(s1[i] - one.s) <= 1e-13, i
        assert abs(r2[i] - two.r) <= 1e-13 and abs(s2[i] - two.s) <= 1e-13, i
        assert not f1[i] and not f2[i]


class TestClosedForms:
    def test_matches_one_and_two_node_closed_forms(self):
        assert_matches_closed_forms(chain_scatter)

    def test_flipped_phase_sign_is_caught(self, monkeypatch):
        # negative control: the same kernel with K_j's phase e^{2ikx_j}
        # conjugated must fail the comparison above
        source = textwrap.dedent(inspect.getsource(scattering._transfer_row))
        assert source.count("np.exp(2j * k * x)") == 1
        namespace = dict(vars(scattering))
        exec(source.replace("np.exp(2j * k * x)", "np.exp(-2j * k * x)"), namespace)
        monkeypatch.setattr(scattering, "_transfer_row", namespace["_transfer_row"])
        with pytest.raises(AssertionError):
            assert_matches_closed_forms(chain_scatter, draws=200)

    def test_free_chain_transmits_everything(self):
        r, s, flag = chain_scatter(np.linspace(0.1, 3.0, 5), (), LAT)
        assert r.shape == s.shape == flag.shape == (5,)
        assert r.tobytes() == np.zeros(5, complex).tobytes()
        assert np.all(s == 1.0) and flag.dtype == bool and not flag.any()

    def test_broadcasts_over_axes(self):
        k = np.linspace(0.2, 2.9, 7)[:, None]
        Omega = np.linspace(0.0, 2.0, 4)[None, :]
        atom = AtomParams(omega_e=0.3, delta=-0.2, Omega=Omega, g=1.1)
        r, s, flag = chain_scatter(k, [(0, atom)], LAT)
        assert r.shape == s.shape == flag.shape == (7, 4)
        for i, j in np.ndindex(7, 4):
            point = AtomParams(omega_e=0.3, delta=-0.2, Omega=float(Omega[0, j]), g=1.1)
            ref = single_node_scatter(float(k[i, 0]), point, LAT)
            assert abs(r[i, j] - ref.r) <= 1e-13 and abs(s[i, j] - ref.s) <= 1e-13
        # an axis of node sites alone reaches the mask too
        r, s, flag = chain_scatter(1.2, [(0, FIG3A_ATOM), (np.arange(1, 4), FIG3A_ATOM)], LAT)
        assert r.shape == s.shape == flag.shape == (3,)

    def test_momentum_outside_the_band_raises(self):
        with pytest.raises(ValueError, match="open interval"):
            chain_scatter(np.array([1.0, 4.0]), [(0, FIG3A_ATOM)], LAT)
        with pytest.raises(ValueError, match="open interval"):
            chain_scatter(0.0, [(0, FIG3A_ATOM)], LAT)


class TestLattice:
    @pytest.mark.parametrize("decay", [False, True])
    def test_three_node_chains_match_the_lattice(self, decay):
        rng = np.random.default_rng(17 + decay)
        for _ in range(40):
            lat = draw_lattice(rng)
            atoms = [draw_atom(rng, two_level=bool(rng.integers(0, 2)), decay=decay)
                     for _ in range(3)]
            gaps = rng.integers(1, 7, size=2)
            sites = [0, int(gaps[0]), int(gaps.sum())]
            k = draw_momentum(rng)
            r, s, flag = chain_scatter(k, list(zip(sites, atoms)), lat)
            spec = ChainSpec(sites[-1] + 24, tuple((12 + x, a) for x, a in zip(sites, atoms)), lat)
            r_o, s_o = solve_stationary(spec, k)
            assert not flag
            assert abs(r - r_o) <= 1e-12 and abs(s - s_o) <= 1e-12


class TestManyNodes:
    """fig3a nodes at sites 0, 5, 10, ... over 2,000 momenta."""

    k = np.linspace(0.05, 3.09, 2000)

    def test_overflow_raises_instead_of_returning_nan(self):
        # at M = 300 the transfer row overflows on about half of the momenta
        nodes = [(5 * j, FIG3A_ATOM) for j in range(300)]
        with pytest.raises(FloatingPointError, match="non-finite amplitude"):
            chain_scatter(self.k, nodes, LAT)

    def test_ten_nodes_stay_finite_and_match_the_lattice(self):
        nodes = [(5 * j, FIG3A_ATOM) for j in range(10)]
        r, s, flag = chain_scatter(self.k, nodes, LAT)
        assert np.all(np.isfinite(r)) and np.all(np.isfinite(s)) and not flag.any()
        r_o, s_o = solve_stationary(ChainSpec(46, tuple(nodes), LAT), self.k[::20])
        assert np.abs(r[::20] - r_o).max() <= 1e-8 and np.abs(s[::20] - s_o).max() <= 1e-8

    @pytest.mark.parametrize("M, near_poles", [
        (50, [729, 730, 731, 732, 733, 1113, 1114, 1115, 1116, 1117, 1118, 1119]),
        (100, [0, 1, *range(728, 736), *range(1112, 1126)]),
    ])
    def test_many_nodes_match_the_lattice_without_a_flag(self, M, near_poles):
        # near_poles: every momentum where |P22| falls below 1e-12 times the
        # size of its terms
        nodes = [(5 * j, FIG3A_ATOM) for j in range(M)]
        r, s, flag = chain_scatter(self.k, nodes, LAT)
        assert not flag.any()
        pick = np.union1d(near_poles, np.arange(0, len(self.k), 20))
        r_o, s_o = solve_stationary(ChainSpec(5 * M - 4, tuple(nodes), LAT), self.k[pick])
        assert np.abs(r[pick] - r_o).max() <= 1e-8 and np.abs(s[pick] - s_o).max() <= 1e-8


class TestFlags:
    def test_pole_grid_flags_and_limits_match_the_closed_forms(self):
        # E(pi/2) = omega = 1 is the bare level of the two-level node
        mirror = AtomParams(omega_e=1.0, delta=0.0, Omega=0.0)
        k = np.linspace(math.pi / 4, 3 * math.pi / 4, 5)
        for atoms in ([mirror], [mirror, FIG3A_ATOM], [FIG3A_ATOM, mirror]):
            r, s, flag = chain_scatter(k, list(zip((0, 3), atoms)), LAT)
            for i, ki in enumerate(k):
                if len(atoms) == 1:
                    ref = single_node_scatter(float(ki), mirror, LAT)
                else:
                    ref = two_node_scatter(float(ki), TwoNodeConfig(*atoms, 3), LAT)
                assert flag[i] == ref.singular
                assert abs(r[i] - ref.r) <= 1e-13 and abs(s[i] - ref.s) <= 1e-13
            assert flag.tolist() == [False, False, True, False, False] and s[2] == 0.0

    def test_bound_state_in_the_continuum_is_a_singular_mirror(self):
        # two-level nodes at their level E = 2, D = 12: the trapped-mode
        # condition and both poles hold at once at k = 2 pi / 3
        node = AtomParams(omega_e=2.0, delta=0.0, Omega=0.0)
        lat = LatticeParams(omega=1.0, t=1.0)
        k = 2.0 * math.pi / 3.0
        r, s, flag = chain_scatter(k, [(0, node), (12, node)], lat)
        ref = two_node_scatter(k, TwoNodeConfig(node, node, 12), lat)
        assert ref.singular and flag
        assert (r, s) == (ref.r, ref.s) == (-1.0, 0.0)

    def test_bound_state_behind_the_first_mirror_keeps_its_phase(self):
        # the same pair moved to sites 5 and 17 reflects off the mirror at 5
        node = AtomParams(omega_e=2.0, delta=0.0, Omega=0.0)
        lat = LatticeParams(omega=1.0, t=1.0)
        k = 2.0 * math.pi / 3.0
        r, s, flag = chain_scatter(k, [(5, node), (17, node)], lat)
        assert flag and s == 0.0
        assert abs(r - (0.5 - 0.5j * math.sqrt(3.0))) <= 1e-13
        assert abs(r + np.exp(10j * k)) <= 1e-13

    def test_bound_state_behind_a_transparent_node_sees_only_the_first_mirror(self):
        # a node A at 0 in front of the pair: r is that of A and the mirror at 4 alone
        node = AtomParams(omega_e=2.0, delta=0.0, Omega=0.0)
        lat = LatticeParams(omega=1.0, t=1.0)
        k = 2.0 * math.pi / 3.0
        front = AtomParams(omega_e=0.3, delta=-0.2, Omega=0.7)
        r, s, flag = chain_scatter(k, [(0, front), (4, node), (16, node)], lat)
        ref = two_node_scatter(k, TwoNodeConfig(front, node, 4), lat)
        assert flag and ref.singular and s == 0.0
        assert abs(r - ref.r) <= 1e-13 and abs(r - (0.91987 - 0.39222j)) <= 1e-5


class TestLimits:
    @pytest.mark.parametrize("regime, k", [("high", np.linspace(1.4, 1.75, 30)),
                                           ("low", np.linspace(0.005, 0.2, 30))])
    def test_match_limit_scatter(self, regime, k):
        r, s, flag = chain_scatter(k, [(0, FIG3A_ATOM)], LAT, limit=regime)
        for i, ki in enumerate(k):
            ref = limit_scatter(float(ki), regime, FIG3A_ATOM, LAT)
            assert abs(r[i] - ref.r) <= 1e-13 and abs(s[i] - ref.s) <= 1e-13
            assert flag[i] == ref.singular

    def test_window_is_checked_for_the_whole_grid(self):
        with pytest.raises(LimitWindowError, match="got k=1.0"):
            chain_scatter(np.array([1.5, 1.0]), [(0, FIG3A_ATOM)], LAT, limit="high")
        with pytest.raises(LimitWindowError, match="got k=0.5"):
            chain_scatter(np.array([0.1, 0.5]), [(0, FIG3A_ATOM)], LAT, limit="low")
        with pytest.raises(ValueError, match="'sideways'"):
            chain_scatter(1.5, [(0, FIG3A_ATOM)], LAT, limit="sideways")
        # fig5a's endpoints sit a rounding error inside the window
        k = np.linspace(1.3707963267948965, 1.7707963267948966, 400)
        chain_scatter(k, [(0, FIG3A_ATOM)], LAT, limit="high")

    def test_takes_one_node(self):
        # a second node has no place on a single-node lineshape; it must not be dropped
        with pytest.raises(ValueError, match="one node, got 2"):
            chain_scatter(1.5, [(0, FIG3A_ATOM), (4, FIG3A_ATOM)], LAT, limit="high")
