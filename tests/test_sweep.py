import itertools
import math
import time

import numpy as np
import pytest

from cavitychain import ChainSpec, ConfigError, cli, scattering, solve_stationary, sweep
from cavitychain.sweep import ENGINES, AxisSpec, build_scenario, grid_amplitudes, quantity_value

FIG3A = {"t": 2.0, "omega": 1.0, "omega_e": 1.0, "delta": 0.0, "Omega": 1.0, "g": 1.0}


def evaluate_point(params, engine):
    """(r, s, singular) at one point."""
    r, s, flag = sweep.amplitudes(params, engine, None)
    return complex(r), complex(s), bool(flag)


def fig3a_grid(count=400, engine="analytic", limit=None):
    """(r, s, singular) of the fig3a node over a k axis."""
    axis = AxisSpec("k", 0.002, math.pi - 0.002, count)
    return grid_amplitudes(dict(FIG3A), (axis,), engine, limit)


def engine_deviation(fixed, axis):
    """Max |R_analytic - R_oracle| over one axis."""
    R = [quantity_value("R", *grid_amplitudes(fixed, (axis,), e, None)[:2]) for e in ENGINES]
    return float(np.max(np.abs(R[0] - R[1])))


class TestSpecs:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AxisSpec("bogus", 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            AxisSpec("k", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            AxisSpec("k", 1.0, 0.0, 10)

    def test_single_point_axis_allowed(self):
        axis = AxisSpec("Omega", 0.5, 0.5, 1)
        assert axis.values().tolist() == [0.5]

    def test_separation_axis_must_be_integral(self):
        assert AxisSpec("D", 1, 30, 30).values().tolist() == list(map(float, range(1, 31)))
        with pytest.raises(ValueError):
            AxisSpec("D", 1, 2, 7).values()

    def test_sweep_spec_validation(self):
        # checks on outside input belong to the command line's axes
        base = {**FIG3A, "axis1": "k", "axis1_min": 0.1, "axis1_max": 3.0}
        for cfg, match in [
            ({**FIG3A, "k": 1.0}, "needs at least axis1"),
            ({**base, "axis2": "k", "axis2_min": 0.1, "axis2_max": 3.0}, "duplicate axis"),
        ]:
            with pytest.raises(ConfigError, match=match):
                cli._grid_axes("map2d", cfg, "analytic")
        with pytest.raises(ValueError, match="engine must be"):
            fig3a_grid(count=3, engine="guess")


class TestEvaluatePoint:
    def test_flags(self):
        ok = evaluate_point({**FIG3A, "k": 1.0}, "analytic")
        assert ok[2] is False
        singular = evaluate_point(
            {"t": 2.0, "omega": 1.0, "omega_e": 1.0, "Omega": 0.0, "g": 1.0,
             "k": math.pi / 2},  # E = 1 sits exactly on the bare level
            "analytic",
        )
        assert singular[2] is True
        assert singular[0] == -1.0 and singular[1] == 0.0
        # outside the band the point is an error, not a flag
        with pytest.raises(ValueError, match="open interval"):
            evaluate_point({**FIG3A, "k": 4.0}, "analytic")

    def test_omega_c_reduces_to_detuning(self):
        via_pair = evaluate_point(
            {**{k: v for k, v in FIG3A.items() if k != "delta"},
             "omega_a": 1.0, "omega_C": 0.7, "k": 1.2},
            "analytic",
        )
        direct = evaluate_point({**FIG3A, "delta": 0.3, "k": 1.2}, "analytic")
        assert via_pair == direct

    def test_negative_rabi_frequency_is_a_sign_convention(self):
        plus = evaluate_point({**FIG3A, "Omega": 1.3, "k": 1.2}, "analytic")
        minus = evaluate_point({**FIG3A, "Omega": -1.3, "k": 1.2}, "analytic")
        assert plus == minus

    def test_free_chain_when_no_node_keys(self):
        r, s, flag = evaluate_point({"t": 2.0, "omega": 1.0, "k": 1.2}, "analytic")
        assert (r, s, flag) == (0.0, 1.0, False)
        r, s, flag = evaluate_point({"t": 2.0, "omega": 1.0, "k": 1.2}, "oracle")
        assert abs(r) <= 1e-12 and abs(s - 1.0) <= 1e-12


class TestRunSweep:
    """The grid path, ``grid_amplitudes``."""

    def test_values_and_mask_shapes(self):
        r, s, flag = fig3a_grid(count=64)
        assert r.shape == s.shape == flag.shape == (64,)
        assert np.all(np.isfinite(r)) and np.all(np.isfinite(s))

    def test_flux_quantity_is_identically_one(self):
        r, s, _ = fig3a_grid(count=200)
        assert np.max(np.abs(quantity_value("R+T", r, s) - 1.0)) <= 1e-10

    def test_singular_grid_point_is_masked_with_the_limit_value(self):
        # middle point of the axis lands exactly on the bare two-level pole
        r, s, flag = grid_amplitudes(
            {"t": 2.0, "omega": 1.0, "omega_e": 1.0, "Omega": 0.0, "g": 1.0},
            (AxisSpec("k", math.pi / 4, 3 * math.pi / 4, 3),), "analytic", None,
        )
        R = quantity_value("R", r, s)
        assert flag.tolist() == [False, True, False]
        assert R[1] == 1.0
        assert np.all(np.isfinite(R))

    def test_repeat_runs_are_bitwise_identical(self):
        a, b = fig3a_grid(count=256), fig3a_grid(count=256)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_worker_count_does_not_change_bits(self, tmp_path):
        # --workers is an accepted no-op: the grid is one kernel call
        outs = [tmp_path / f"w{workers}.csv" for workers in (1, 3)]
        for workers, out in zip((1, 3), outs):
            argv = ["map2d", "--config", "fig4", "--set", "axis1_count=40",
                    "--set", "axis2_count=25", "--workers", str(workers), "--out", str(out)]
            assert cli.main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_two_node_axis_over_separation(self):
        fixed = {
            "t": 1.0, "omega": 1.0, "k": math.pi / 5,
            "omega_e": 2.0, "Omega": 0.0, "g": 1.0,
            "omega_e2": 2.0, "Omega2": 0.0, "g2": 1.0,
        }
        r, _, _ = grid_amplitudes(fixed, (AxisSpec("D", 1, 10, 10),), "analytic", None)
        R = np.abs(r) ** 2
        # round-trip phase repeats every 5 sites at k = pi/5
        assert R[0] == pytest.approx(R[5], abs=1e-12)
        assert R[2] == pytest.approx(R[7], abs=1e-12)

    def test_parallel_wall_time_is_sane(self, monkeypatch):
        # no pool and no per-point loop: 10^5 points in one kernel call
        calls = []
        kernel = sweep.chain_scatter

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(sweep, "chain_scatter", counted)
        axes = (AxisSpec("k", 0.1, 3.0, 500), AxisSpec("Omega", 0.0, 2.0, 200))
        fixed = {k: v for k, v in FIG3A.items() if k != "Omega"}
        start = time.monotonic()
        r, s, flag = grid_amplitudes(fixed, axes, "analytic", None)
        assert time.monotonic() - start <= 5.0
        assert len(calls) == 1
        assert r.shape == s.shape == flag.shape == (500, 200)

    def test_limit_grid_outside_the_window_raises(self):
        axes = (AxisSpec("k", 1.2, 1.9, 8),)
        with pytest.raises(scattering.LimitWindowError, match="high-energy window"):
            grid_amplitudes(dict(FIG3A), axes, "analytic", "high")

    def test_missing_momentum_raises(self):
        cfg = {**FIG3A, "axis1": "Omega", "axis1_min": 0.0, "axis1_max": 1.0, "axis1_count": 3}
        with pytest.raises(ConfigError, match="no momentum"):
            cli._grid_axes("map2d", cfg, "analytic")

    def test_oracle_has_no_limit_lineshape(self):
        with pytest.raises(ValueError, match="no lattice-oracle counterpart"):
            sweep.amplitudes({**FIG3A, "k": np.linspace(1.4, 1.7, 3)}, "oracle", "high")
        with pytest.raises(ValueError, match="no lattice-oracle counterpart"):
            grid_amplitudes(dict(FIG3A), (AxisSpec("k", 1.4, 1.7, 3),), "oracle", "high")


class TestScenario:
    def test_one_builder_for_every_key_form(self):
        free = build_scenario({"t": 2.0})
        assert free.nodes == () and free.lat.omega == 0.0
        one = build_scenario({**FIG3A, "Omega": -1.3})
        assert [x for x, _ in one.nodes] == [0] and one.nodes[0][1].Omega == 1.3
        pair = build_scenario({"t": 1.0, "omega_a": 1.0, "omega_C2": 0.25, "D": 3})
        (x1, a1), (x2, a2) = pair.nodes
        assert (x1, x2) == (0, 3) and a1.delta == 1.0 and a2.delta == -0.25

    def test_array_valued_nodes(self):
        grid = np.linspace(-1.0, 1.0, 5)
        (_, atom), = build_scenario({**FIG3A, "delta": grid}).nodes
        assert atom.delta is grid

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"omega": 1.0}, "missing required key 't'"),
            ({"t": -1.0}, "invalid lattice"),
            ({**FIG3A, "g": np.array([1.0, 0.0])}, "invalid node 1"),
            ({**FIG3A, "omega_C": 0.5}, "not both"),
            ({**FIG3A, "D": 0}, "D must be >= 1"),
        ],
    )
    def test_invalid_parameters_raise(self, params, match):
        with pytest.raises(ValueError, match=match):
            build_scenario(params)


class TestCompareEngines:
    def test_fig3a_gate(self):
        assert engine_deviation(dict(FIG3A), AxisSpec("k", 0.002, math.pi - 0.002, 40)) <= 1e-8

    def test_decay_gate(self):
        fixed = {**FIG3A, "Gamma": 0.04, "gamma": 0.04}
        assert engine_deviation(fixed, AxisSpec("k", 0.1, 3.0, 30)) <= 1e-8

    def test_free_chain_engines_coincide(self):
        fixed = {"t": 2.0, "omega": 1.0}
        assert engine_deviation(fixed, AxisSpec("k", 0.5, 2.5, 2)) <= 1e-20


class TestAmplitudes:
    @pytest.mark.parametrize("two_nodes", [False, True])
    def test_oracle_stack_is_the_per_point_solve(self, two_nodes):
        # a stacked oracle call solves each point on the stack's chain, bit for
        # bit, and within 1e-12 of its own minimal chain: D = 1, 3, 4 and 7 make
        # one stack on the 8 sites that reach the farthest node
        stack = {**{key: np.full(4, value) for key, value in FIG3A.items()},
                 "k": np.linspace(0.4, 2.7, 4), "Omega": np.array([0.0, 0.5, 1.0, 1.5])}
        if two_nodes:
            stack.update({"omega_e2": np.full(4, -0.5), "Omega2": np.full(4, 0.8),
                          "Gamma2": np.full(4, 0.05), "D": np.array([1, 3, 4, 7])})
        r, s, flag = sweep.amplitudes(stack, "oracle", None)
        for i in range(4):
            point = {key: value[i] for key, value in stack.items()}
            chain = sweep._oracle_chain(build_scenario(point))
            assert (r[i], s[i]) == solve_stationary(_lengthened(chain, 8 if two_nodes else 1),
                                                    point["k"])
            r_own, s_own = solve_stationary(chain, point["k"])
            assert abs(r[i] - r_own) <= 1e-12 and abs(s[i] - s_own) <= 1e-12
        assert flag.dtype == bool and not flag.any()

    @pytest.mark.parametrize("two_nodes", [False, True])
    def test_stacks_scatter_back_bit_for_bit(self, two_nodes, monkeypatch):
        # 400 points in stacks of 14-80 systems: D cycles through 1..8 in the
        # two-node stack, 50 points each, and every second point decays; at
        # D = 1 a system has 8 unknowns and a block of 8 x 15 complex numbers
        budget = 16 * 8 * 15 * 40
        monkeypatch.setattr(sweep, "ORACLE_STACK_BYTES", budget)
        stacks = []
        solve = sweep.solve_stationary

        def spy(chain, k):
            stacks.append((chain.n_sites, k.size))
            return solve(chain, k)

        monkeypatch.setattr(sweep, "solve_stationary", spy)
        stack = _oracle_stack(np.random.default_rng(5), 400, two_nodes)
        r, s, flag = sweep.amplitudes(stack, "oracle", None)
        assert sum(size for _, size in stacks) == 400 and len(stacks) >= 5
        # the stacks take the points in separation order, each on its stack's chain
        order = np.argsort(stack.get("D", np.zeros(400)), kind="stable")
        n_sites = np.empty(400, int)
        n_sites[order] = np.repeat(*zip(*stacks))
        r_ref, s_ref = _per_point(stack, n_sites)
        assert r.tobytes() == r_ref.tobytes() and s.tobytes() == s_ref.tobytes()
        r_own, s_own = _per_point(stack)
        assert np.max(np.abs(r - r_own)) <= 1e-12 and np.max(np.abs(s - s_own)) <= 1e-12
        assert flag.dtype == bool and not flag.any()
        # negative control: the same comparison sees points scattered back out of order
        r_rev, s_rev = _per_point({**stack, "k": stack["k"][::-1]}, n_sites)
        assert r.tobytes() != r_rev.tobytes() and s.tobytes() != s_rev.tobytes()

    def test_stacks_fill_in_separation_order(self, monkeypatch):
        # 600 points with D = 1..40 shuffled: every point is solved once, the
        # stacks run through the separations in order on a chain that ends at
        # their farthest node, and each holds as many systems as fit in
        # ORACLE_STACK_BYTES, counted at its largest, the next point's included
        calls = []
        solve = sweep.solve_stationary

        def spy(chain, k):
            calls.append((chain, k.copy()))
            return solve(chain, k)

        def cost(size):
            return 16 * size * (min(size, sweep.PANEL + 3) + 7)

        monkeypatch.setattr(sweep, "solve_stationary", spy)
        rng = np.random.default_rng(12)
        stack = _oracle_stack(rng, 600, True)
        stack["D"] = rng.permutation(np.arange(600) % 40 + 1)
        sweep.amplitudes(stack, "oracle", None)
        solved = np.concatenate([k for _, k in calls])
        assert np.sort(solved).tobytes() == np.sort(stack["k"]).tobytes()
        separations = [np.broadcast_to(chain.sites[-1], k.shape) for chain, k in calls]
        assert np.all(np.diff(np.concatenate(separations)) >= 0)
        for (chain, k), D in zip(calls, separations):
            assert chain.n_sites == D.max() + 1
            assert k.size * cost(chain.dimension + 2) <= sweep.ORACLE_STACK_BYTES
        for (chain, k), D in zip(calls[:-1], separations[1:]):
            assert (k.size + 1) * cost(D[0] + 7) > sweep.ORACLE_STACK_BYTES
        assert len(calls) >= 10

    def test_fig6b_separation_axis_is_one_solve(self, monkeypatch, tmp_path):
        calls = []
        solve = sweep.solve_stationary

        def spy(chain, k):
            calls.append(k.size)
            return solve(chain, k)

        monkeypatch.setattr(sweep, "solve_stationary", spy)
        out = str(tmp_path / "m.csv")
        assert cli.main(["map2d", "--config", "fig6b", "--engine", "oracle", "--out", out]) == 0
        assert calls == [30]

    def test_each_point_keeps_its_separation(self):
        # one chain for D = 2 and 5: the first point's separation is not the second's
        params = {**FIG3A, "omega_e2": -0.5, "Omega2": 0.8, "D": np.array([2, 5])}
        chain = sweep._oracle_chain(build_scenario(params))
        assert chain.n_sites == 6 and chain.sites[1].tolist() == [2, 5]
        k = np.array([1.1, 1.1])
        r, s = solve_stationary(chain, k)
        for i in range(2):
            point = {key: np.ravel(value)[i] if np.ndim(value) else value
                     for key, value in params.items()}
            r_own, s_own = solve_stationary(sweep._oracle_chain(build_scenario(point)), 1.1)
            assert abs(r[i] - r_own) <= 1e-12 and abs(s[i] - s_own) <= 1e-12

    def test_oracle_chain_is_the_segment_between_the_nodes(self):
        for params, n_sites, sites in (
            ({"t": 2.0}, 1, ()),
            (FIG3A, 1, (0,)),
            ({**FIG3A, "omega_e2": -0.5, "D": 5}, 6, (0, 5)),
        ):
            chain = sweep._oracle_chain(build_scenario(params))
            assert (chain.n_sites, chain.sites) == (n_sites, sites)

    @pytest.mark.parametrize("two_nodes", [False, True])
    def test_oracle_does_not_depend_on_the_chain_length(self, two_nodes):
        # the leads start at the end sites: 61 more free sites, 30 of them on
        # the left, leave r and s within 1e-12 (D = 1..8, decay, two-level nodes)
        stack = _oracle_stack(np.random.default_rng(8), 64, two_nodes)
        r, s, _ = sweep.amplitudes(stack, "oracle", None)
        for i in range(64):
            point = {key: value[i] for key, value in stack.items()}
            chain = sweep._oracle_chain(build_scenario(point))
            longer = ChainSpec(chain.n_sites + 61,
                               tuple((site + 30, atom) for site, atom in chain.placements),
                               chain.lat)
            r_long, s_long = solve_stationary(longer, point["k"])
            assert abs(r[i] - r_long) <= 1e-12 and abs(s[i] - s_long) <= 1e-12

    def test_single_point_call(self):
        point = {**FIG3A, "Gamma": 0.05, "k": 1.1}
        r, s, flag = sweep.amplitudes(point, "oracle", None)
        assert r.shape == s.shape == flag.shape == ()
        chain = sweep._oracle_chain(build_scenario(point))
        assert (complex(r), complex(s)) == solve_stationary(chain, 1.1)

    def test_grid_over_momentum_and_separation(self):
        # the 20 points are one stack on the 5 sites that reach D = 4
        fixed = {**FIG3A, "omega_e2": -0.5, "Omega2": 0.8}
        axes = (AxisSpec("k", 0.3, 2.8, 5), AxisSpec("D", 1, 4, 4))
        r, s, _ = grid_amplitudes(fixed, axes, "oracle", None)
        for (i, k), (j, D) in itertools.product(*map(enumerate, (a.values() for a in axes))):
            point = {**fixed, "k": k, "D": D}
            chain = sweep._oracle_chain(build_scenario(point))
            assert (r[i, j], s[i, j]) == solve_stationary(_lengthened(chain, 5), k)
            r_own, s_own = solve_stationary(chain, k)
            assert abs(r[i, j] - r_own) <= 1e-12 and abs(s[i, j] - s_own) <= 1e-12


def _lengthened(chain, n_sites):
    """``chain`` with free sites added after its last node, up to ``n_sites``."""
    return ChainSpec(n_sites, chain.placements, chain.lat)


def _oracle_stack(rng, size, two_nodes):
    """``size`` random oracle points; two-node ones cycle D through 1..8.

    Every third node is two-level and every second point decays.
    """
    index = np.arange(size)
    stack = {"t": rng.uniform(0.5, 3.0, size), "omega": rng.uniform(-1.0, 1.0, size),
             "k": rng.uniform(0.05, math.pi - 0.05, size)}
    for suffix in ("", "2") if two_nodes else ("",):
        stack.update({
            f"omega_e{suffix}": rng.uniform(-2.0, 2.0, size),
            f"delta{suffix}": rng.uniform(-2.0, 2.0, size),
            f"Omega{suffix}": np.where(index % 3 == 0, 0.0, rng.uniform(0.2, 2.0, size)),
            f"g{suffix}": rng.uniform(0.6, 1.5, size),
            f"Gamma{suffix}": np.where(index % 2 == 1, rng.uniform(0.01, 0.2, size), 0.0),
            f"gamma{suffix}": np.where(index % 2 == 1, rng.uniform(0.01, 0.2, size), 0.0),
        })
    if two_nodes:
        stack["D"] = index % 8 + 1
    return stack


def _per_point(stack, n_sites=None):
    """(r, s) arrays of a 1-D stack, each point solved alone.

    A point is solved on its own chain, or on ``n_sites[i]`` sites when given.
    """
    pairs = []
    for i in range(len(stack["k"])):
        point = {key: value[i] for key, value in stack.items()}
        chain = sweep._oracle_chain(build_scenario(point))
        if n_sites is not None:
            chain = _lengthened(chain, n_sites[i])
        pairs.append(solve_stationary(chain, point["k"]))
    return np.array(pairs, dtype=complex).T


class TestSpectrumRows:
    def test_columns_and_energy_offset(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--config", "fig3a", "--set", "k_min=0.5", "--set", "k_max=2.5",
                "--set", "k_count=7", "--out", str(out)]
        assert cli.main(argv) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        col = dict(zip(header, table.T))
        assert table.shape == (7, 10)
        E = 1.0 - 4.0 * np.cos(col["k"])
        assert np.allclose(col["eps_k"], E - FIG3A["delta"], rtol=0, atol=1e-12)
        assert np.array_equal(col["R"], np.abs(col["Re_r"] + 1j * col["Im_r"]) ** 2)
        assert set(col["singular_flag"].tolist()) <= {0, 1}

    def test_limit_rows_use_the_window_formula(self):
        axes = (AxisSpec("k", math.pi / 2, math.pi / 2, 1),)
        exact = grid_amplitudes(dict(FIG3A), axes, "analytic", None)[0][0]
        lim = grid_amplitudes(dict(FIG3A), axes, "analytic", "high")[0][0]
        assert lim == pytest.approx(exact, abs=1e-12)
