import math
import time

import numpy as np
import pytest

from cavitychain import ConfigError, cli, scattering, solve_stationary, sweep
from cavitychain.scattering import FLAG_OK, FLAG_SINGULAR
from cavitychain.sweep import ENGINES, AxisSpec, build_scenario, grid_amplitudes, quantity_value

FIG3A = {"t": 2.0, "omega": 1.0, "omega_e": 1.0, "delta": 0.0, "Omega": 1.0, "g": 1.0}


def evaluate_point(params, engine):
    """(r, s, flag) at one point."""
    r, s, flag = sweep.amplitudes(params, engine, None)
    return complex(r), complex(s), int(flag)


def fig3a_grid(count=400, engine="analytic", limit=None):
    """(r, s, flag) of the fig3a node over a k axis."""
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
        assert ok[2] == FLAG_OK
        singular = evaluate_point(
            {"t": 2.0, "omega": 1.0, "omega_e": 1.0, "Omega": 0.0, "g": 1.0,
             "k": math.pi / 2},  # E = 1 sits exactly on the bare level
            "analytic",
        )
        assert singular[2] == FLAG_SINGULAR
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
        assert (r, s, flag) == (0.0, 1.0, FLAG_OK)
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
        assert flag.tolist() == [FLAG_OK, FLAG_SINGULAR, FLAG_OK]
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
        # a stacked oracle call solves each point on its own lattice, bit for bit
        stack = {**{key: np.full(4, value) for key, value in FIG3A.items()},
                 "k": np.linspace(0.4, 2.7, 4), "Omega": np.array([0.0, 0.5, 1.0, 1.5])}
        if two_nodes:
            stack.update({"omega_e2": np.full(4, -0.5), "Omega2": np.full(4, 0.8),
                          "Gamma2": np.full(4, 0.05), "D": np.array([1, 3, 4, 7])})
        r, s, flag = sweep.amplitudes(stack, "oracle", None)
        for i in range(4):
            point = {key: value[i] for key, value in stack.items()}
            chain = sweep._oracle_chain(build_scenario(point))
            assert (r[i], s[i]) == solve_stationary(chain, point["k"])
        assert np.all(flag == FLAG_OK)


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
