import json
import logging
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

from cavitychain import AtomParams, ChainSpec, ConfigError, LatticeParams, cli, eigenmodes, sweep
from cavitychain.cli import (
    coerce_config,
    load_config,
    main,
    parse_config_text,
)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, cast=float):
    idx = header.index(name)
    return [cast(row[idx]) for row in rows]


def sets(*items):
    """One ``--set`` argument pair per key=value item."""
    return [arg for item in items for arg in ("--set", item)]


#: The chain keys of fixtures fig3a and fig6a, for commands that read no grid keys.
FIG3A_NODE = ["t=2", "omega=1", "omega_e=1", "delta=0", "Omega=1", "g=1"]
FIG6A_NODES = ["t=1", "omega=1", "omega_e=2", "Omega=0", "g=1",
               "omega_e2=2", "Omega2=0", "g2=1", "D=4"]


class TestConfigParsing:
    def test_comments_and_blanks(self):
        raw = parse_config_text("# header\n\nt = 2  # hopping\nomega=1\n")
        assert raw == {"t": "2", "omega": "1"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("t 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'hopping'"):
            coerce_config({"hopping": "2"}, "spectrum")

    def test_workers_key_is_unknown(self, tmp_path, capsys):
        # only the --workers flag survives the process pool, as a no-op
        cfg = tmp_path / "w.cfg"
        cfg.write_text("t = 2\nomega_e = 1\nworkers = 4\n")
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown configuration key 'workers'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["singular_tol", "drift_tol"])
    def test_tolerance_keys_are_unknown(self, tmp_path, capsys, key):
        # the sidecar records the package's constants, which no config overrides
        out = tmp_path / "x.csv"
        argv = ["spectrum", "--config", "fig3a", "--set", f"{key}=0.5", "--out", str(out)]
        assert main(argv) == 2
        assert f"unknown configuration key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_typed_values(self):
        cfg = coerce_config({"t": "2.5", "D": "4", "quantity": "R", "axis1": "Omega"}, "map2d")
        assert cfg == {"t": 2.5, "D": 4, "quantity": "R", "axis1": "Omega"}
        cfg = coerce_config({"wavepacket_check": "false", "draws": "5"}, "oracle-check")
        assert cfg == {"wavepacket_check": False, "draws": 5}

    def test_accepted_keys(self):
        # one table of the keys each command reads; node keys derive from the node vocabulary
        node = ["omega_e", "delta", "omega_a", "omega_C", "Omega", "g", "Gamma", "gamma"]
        expected = {
            *node, *(key + "2" for key in node),
            "t", "omega", "kappa", "k", "k_min", "k_max",
            "axis1_min", "axis1_max", "axis2_min", "axis2_max",
            "k0", "sigma", "tmax", "absorber_strength",
            "window_re_min", "window_re_max", "window_im_min", "window_im_max",
            "D", "k_count", "axis1_count", "axis2_count", "N", "site", "x0", "absorber_width",
            "profile_n", "mode_index", "draws", "seed",
            "axis1", "axis2", "quantity", "limit", "negative_control",
            "wavepacket_check",
        }
        table = cli._COMMAND_KEYS
        assert set().union(*table.values()) == expected
        assert {command: len(keys) for command, keys in table.items()} == {
            "spectrum": 23, "map2d": 30, "quasibound": 24, "wavepacket": 28, "modes": 23,
            "oracle-check": 4,
        }
        kinds = {key: {keys[key] for keys in table.values() if key in keys} for key in expected}
        assert all(len(kind) == 1 for kind in kinds.values())  # a key has one type everywhere
        assert sum(kind == {float} for kind in kinds.values()) == 34

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="'fast' is not a number"):
            coerce_config({"t": "fast"}, "spectrum")
        with pytest.raises(ConfigError, match="'4.5' is not an integer"):
            coerce_config({"N": "4.5"}, "modes")

    def test_bundled_fixture_loads(self):
        raw = load_config("fig3a")
        assert raw["t"] == "2"
        assert raw["k_count"] == "2000"

    def test_missing_config(self):
        with pytest.raises(ConfigError):
            load_config("no_such_fixture")

    @pytest.mark.parametrize(
        "fixture, command, overrides",
        [
            *(("fig" + name, "spectrum", []) for name in ("3a", "3b", "5a", "5b", "6a", "7")),
            ("fig4", "map2d", []),
            ("fig6b", "map2d", []),
            ("oracle_check", "oracle-check", ["draws=5", "wavepacket_check=false"]),
        ],
    )
    def test_bundled_fixture_runs_under_its_command(self, tmp_path, fixture, command, overrides):
        # no fixture carries a key its command would reject as unread
        out = tmp_path / "x.csv"
        argv = [command, "--config", fixture, *sets(*overrides), "--out", str(out)]
        assert main(argv) == 0
        assert out.exists()


class TestValidation:
    def test_nonpositive_hopping_rejected(self, tmp_path):
        code = main(["spectrum", "--set", "t=0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_negative_decay_rejected(self, tmp_path):
        code = main(
            ["spectrum", "--config", "fig3a", "--set", "Gamma=-0.1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_bad_separation_rejected(self, tmp_path, capsys):
        code = main(["quasibound", *sets(*FIG3A_NODE, "D=0"), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "node separation D must be >= 1" in capsys.readouterr().err

    def test_momentum_bounds_checked(self, tmp_path):
        code = main(
            ["spectrum", "--config", "fig3a", "--set", "k_min=-1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, overrides, fragment",
        [
            ("spectrum", ["--config", "fig3a", *sets("k_min=0.5", "k_max=3.2")],
             "k_max must lie in the open interval (0, pi)"),
            ("map2d", sets(*FIG3A_NODE, "axis1=k", "axis1_min=0", "axis1_max=3.2", "axis1_count=5"),
             "a k axis must lie in (0, pi)"),
            ("map2d", ["--config", "fig6b",
                       *sets("axis1=D", "axis1_min=0", "axis1_max=4", "axis1_count=5")],
             "a D axis must start at 1"),
        ],
        ids=["spectrum-overrides0", "map2d-overrides1", "map2d-overrides2"],
    )
    def test_out_of_domain_axes_fail_without_output(
        self, tmp_path, capsys, command, overrides, fragment
    ):
        out = tmp_path / "x.csv"
        assert main([command, *overrides, "--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    def test_conflicting_detuning_inputs(self, tmp_path):
        code = main(
            ["spectrum", "--config", "fig3a", "--set", "omega_C=0.5",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


QB_SETS = sets(*FIG3A_NODE, "D=10")
WP_SETS = ["--set", "t=2", "--set", "omega=1", "--set", "omega_e=1", "--set", "Omega=1",
           "--set", "N=420", "--set", "site=210", "--set", "k0=2.2"]
WP_PLACED = [*WP_SETS, "--set", "sigma=8", "--set", "x0=100", "--set", "tmax=100"]
OMEGA_AXIS = sets("axis1=Omega", "axis1_min=0", "axis1_max=1")


class TestConfigCheckedBeforeComputing:
    @pytest.mark.parametrize(
        "command, args, fragment",
        [
            ("quasibound", [*QB_SETS, *sets("window_re_min=2", "window_re_max=1")],
             "window_re_min must be below window_re_max"),
            ("quasibound", [*QB_SETS, *sets("window_im_min=0", "window_im_max=0")],
             "window_im_min must be below window_im_max"),
            ("quasibound", [*QB_SETS, *sets("profile_n=0")], "profile_n: mode index"),
            ("modes", sets("t=2", "N=20", "mode_index=99"), "mode_index 99 outside 0..19"),
            ("wavepacket", [*WP_SETS, *sets("sigma=2")], "sigma must be >= 4 sites"),
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "x0=100", "tmax=-1")],
             "tmax must be positive"),
            ("oracle-check", ["--config", "oracle_check", *sets("draws=0")], "got 0 and"),
            ("oracle-check", ["--config", "oracle_check", *sets("draws=-3")], "got -3 and"),
            ("oracle-check", ["--config", "oracle_check", *sets("seed=-1")], "and -1"),
            ("spectrum", ["--config", "fig3a", *sets("limit=bogus")],
             "key 'limit': 'bogus' is not one of ('high', 'low')"),
            ("map2d", ["--config", "fig4", *sets("quantity=phase")],
             "key 'quantity': 'phase' is not one of ('R', "),
            ("map2d", [*sets(*FIG3A_NODE, "k=1.2"), *OMEGA_AXIS,
                       *sets("axis2=Omega", "axis2_min=0", "axis2_max=1")],
             "duplicate axis names ['Omega', 'Omega']"),
            ("map2d", [*sets(*FIG3A_NODE), *OMEGA_AXIS], "no momentum: give k or a k axis"),
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "x0=60")], "x0 and tmax together"),
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "tmax=5")], "x0 and tmax together"),
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "absorber_width=30",
                                            "absorber_strength=5")],
             "absorbing layers need an explicit x0 and tmax"),
            ("wavepacket", [*WP_PLACED, *sets("absorber_width=1000")],
             "absorbing layers of width 1000 overlap on 420 sites"),
            ("wavepacket", [*WP_PLACED, *sets("absorber_width=-5")], "got -5 and 0.2"),
            ("wavepacket", [*WP_PLACED, *sets("absorber_width=30", "absorber_strength=-0.5")],
             "got 30 and -0.5"),
            # the packet must start 5 sigma clear of the left end and of the node
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "x0=10", "tmax=5")],
             "closer than 5 sigma to the left end"),
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "x0=190", "tmax=5")],
             "closer than 5 sigma to the first node"),
            # no kernel or lattice chain on these paths models cavity leakage
            ("spectrum", ["--config", "fig3a", *sets("kappa=0.5")],
             "spectrum does not read the configuration key 'kappa'"),
            ("map2d", ["--config", "fig4", *sets("kappa=0.5")],
             "map2d does not read the configuration key 'kappa'"),
            ("quasibound", [*QB_SETS, *sets("kappa=0.3")],
             "quasibound does not read the configuration key 'kappa'"),
            ("oracle-check", ["--config", "oracle_check", *sets("threshold=3")],
             "unknown configuration key 'threshold'"),
            ("spectrum", ["--config", "fig3a", *sets("engine=oracle")],
             "unknown configuration key 'engine'"),
            # keys another command reads, and a misspelt negative control
            ("oracle-check", ["--config", "oracle_check", *sets(
                "draws=5", "wavepacket_check=false", "t=2", "omega_e=9", "k0=1.0")],
             "oracle-check does not read the configuration key 't'"),
            ("modes", sets("t=2", "N=20", "k=1.0", "sigma=3", "draws=7"),
             "modes does not read the configuration key 'k'"),
            ("spectrum", ["--config", "fig3a", *sets("k=1.0")],
             "spectrum does not read the configuration key 'k'"),
            ("oracle-check", sets("negative_control=r_sign"),
             "key 'negative_control': 'r_sign' is not one of ('r-sign',)"),
        ],
        ids=["re-window", "im-window", "profile_n", "mode_index", "sigma", "tmax",
             "no-draws", "negative-draws", "negative-seed", "limit", "quantity",
             "duplicate-axes", "no-momentum", "x0-alone", "tmax-alone",
             "absorbers-unplaced", "overlapping-absorbers", "negative-width", "gain-layer",
             "x0-near-end", "x0-near-node", "kappa-spectrum", "kappa-map2d",
             "kappa-quasibound", "threshold-key", "engine-key",
             "oracle-check-chain-keys", "modes-packet-keys", "spectrum-k", "negative-control-typo"],
    )
    def test_bad_config_exits_2_without_output(self, tmp_path, capsys, command, args, fragment):
        assert main([command, *args, "--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert fragment in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, args",
        [
            ("quasibound", [*QB_SETS, "--engine", "analytic"]),
            ("wavepacket", [*WP_SETS, "--set", "sigma=8", "--engine", "oracle"]),
            ("modes", ["--set", "t=2", "--set", "N=20", "--engine", "both"]),
            ("oracle-check", ["--config", "oracle_check", "--engine", "analytic"]),
        ],
        ids=["quasibound", "wavepacket", "modes", "oracle-check-analytic"],
    )
    def test_engine_flag_only_where_it_selects(self, tmp_path, capsys, command, args):
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSpectrumCommand:
    def test_fig3a_file_shape_and_transparency_row(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        assert main(["spectrum", "--config", "fig3a", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "k", "eps_k", "Re_r", "Im_r", "Re_s", "Im_s", "R", "T", "xi", "singular_flag",
        ]
        assert len(rows) == 2000
        eps = column(header, rows, "eps_k")
        R = column(header, rows, "R")
        nearest = min(range(len(eps)), key=lambda i: abs(eps[i]))
        assert R[nearest] <= 1e-6
        sidecar = json.loads((tmp_path / "fig3a.csv.meta.json").read_text())
        assert sidecar["engine"] == "analytic"
        assert sidecar["parameters"]["t"] == 2.0
        assert sidecar["tool_version"]

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        out = tmp_path / "small.csv"
        main(["spectrum", "--config", "fig3a", "--set", "k_count=25", "--out", str(out)])
        header, rows = read_csv(out)
        for row in rows:
            for cell in row[:-1]:
                assert f"{float(cell):.17g}" == cell

    def test_no_node_config_reflects_nothing(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text("t = 2\nomega = 1\nk_count = 50\n")
        out = tmp_path / "free.csv"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert all(v == 0.0 for v in column(header, rows, "R"))

    def test_fig7_decay_caps_both_probabilities(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["spectrum", "--config", "fig7", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        R = column(header, rows, "R")
        T = column(header, rows, "T")
        xi = column(header, rows, "xi")
        assert max(T) < 1.0
        assert max(R) < 1.0
        assert min(xi) >= 0.0

    def test_identical_configs_give_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["spectrum", "--config", "fig3a", "--set", "k_count=200"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = json.loads((tmp_path / "a.csv.meta.json").read_text())
        meta2 = json.loads((tmp_path / "b.csv.meta.json").read_text())
        meta1.pop("timestamp")
        meta2.pop("timestamp")
        assert meta1 == meta2

    def test_engine_both_reports_deviation(self, tmp_path):
        out = tmp_path / "both.csv"
        assert main(
            ["spectrum", "--config", "fig3a", "--set", "k_count=20",
             "--engine", "both", "--out", str(out)]
        ) == 0
        sidecar = json.loads((tmp_path / "both.csv.meta.json").read_text())
        assert sidecar["max_engine_deviation"] <= 1e-8

    def test_limit_fixtures_run(self, tmp_path):
        for name in ("fig5a", "fig5b"):
            out = tmp_path / f"{name}.csv"
            assert main(["spectrum", "--config", name, "--out", str(out)]) == 0
            header, rows = read_csv(out)
            assert len(rows) == 400

    def test_two_node_fixture_runs(self, tmp_path):
        out = tmp_path / "fig6a.csv"
        assert main(["spectrum", "--config", "fig6a", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        R = column(header, rows, "R")
        T = column(header, rows, "T")
        assert all(abs(r + t - 1.0) <= 1e-9 for r, t in zip(R, T))
        sidecar = json.loads((tmp_path / "fig6a.csv.meta.json").read_text())
        assert sidecar["flag_counts"] == {"singular": 0, "resonance": 0}

    def test_flag_counts_on_a_pole(self, tmp_path):
        # the middle momentum pi/2 lands on the bare level E = omega_e = 1
        out = tmp_path / "pole.csv"
        argv = ["spectrum", "--set", "t=2", "--set", "omega=1", "--set", "omega_e=1",
                "--set", "k_min=0.7853981633974483", "--set", "k_max=2.356194490192345",
                "--set", "k_count=3", "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert column(header, rows, "singular_flag", cast=int) == [0, 1, 0]
        assert column(header, rows, "R")[1] == 1.0
        sidecar = json.loads((tmp_path / "pole.csv.meta.json").read_text())
        assert sidecar["flag_counts"] == {"singular": 1, "resonance": 0}

    @pytest.mark.parametrize("engine", ["oracle", "both"])
    @pytest.mark.parametrize("command", ["spectrum", "map2d"])
    def test_limit_with_the_lattice_engine_fails_without_output(
        self, tmp_path, command, engine, capsys
    ):
        out = tmp_path / "x.csv"
        config = ["--config", "fig5a"] if command == "spectrum" else sets(
            *FIG3A_NODE, "limit=high", "axis1=k", "axis1_min=1.4", "axis1_max=1.7", "axis1_count=3")
        assert main([command, *config, "--engine", engine, "--out", str(out)]) == 2
        assert "no lattice-oracle counterpart" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "map2d"])
    def test_missing_hopping_fails_before_computing(self, tmp_path, command, capsys):
        out = tmp_path / "x.csv"
        grid = ["k_min=1.2"] if command == "spectrum" else [
            "k=1.2", "axis1=Omega", "axis1_min=0", "axis1_max=1"]
        assert main([command, *sets("omega_e=1", *grid), "--out", str(out)]) == 2
        assert "missing required key 't'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "map2d"])
    def test_errors_while_computing_propagate(self, tmp_path, command, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(sweep, "chain_scatter", broken)
        out = tmp_path / "x.csv"
        argv = [command, "--config", "fig4" if command == "map2d" else "fig3a",
                "--out", str(out)]
        with pytest.raises(np.linalg.LinAlgError):
            main(argv)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "map2d"])
    def test_limit_grid_outside_the_window_fails_without_output(self, tmp_path, command, capsys):
        out = tmp_path / "x.csv"
        config = ["--config", "fig5a", *sets("k_max=1.9")] if command == "spectrum" else sets(
            *FIG3A_NODE, "limit=high", "axis1=k", "axis1_min=1.3", "axis1_max=1.9", "axis1_count=5")
        assert main([command, *config, "--out", str(out)]) == 2
        assert "high-energy window" in capsys.readouterr().err
        assert not out.exists()


class TestMap2dCommand:
    def test_degenerate_single_cell(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 1\ndelta = 0\nOmega = 1\nk = 1.2\n"
            "axis1 = Omega\naxis1_min = 0.5\naxis1_max = 0.5\naxis1_count = 1\n"
        )
        out = tmp_path / "one.csv"
        assert main(["map2d", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["Omega", "R", "singular_flag"]
        assert len(rows) == 1

    def test_control_off_column_is_the_two_level_ridge(self, tmp_path):
        # E = omega_e: with the control field off every detuning reflects
        cfg = tmp_path / "ridge.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 1\nomega_a = 0\ng = 1\nk = 1.5707963267948966\n"
            "axis1 = Omega\naxis1_min = 0\naxis1_max = 2\naxis1_count = 3\n"
            "axis2 = omega_C\naxis2_min = -1\naxis2_max = 1\naxis2_count = 5\n"
        )
        out = tmp_path / "ridge.csv"
        assert main(["map2d", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        omega_col = column(header, rows, "Omega")
        R = column(header, rows, "R")
        flags = column(header, rows, "singular_flag", cast=int)
        on_axis = [i for i, om in enumerate(omega_col) if om == 0.0]
        assert len(on_axis) == 5
        assert all(R[i] == 1.0 and flags[i] == 1 for i in on_axis)

    def test_fig4_bytes_repeat_and_flags_are_counted(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["map2d", "--config", "fig4", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        header, rows = read_csv(outs[0])
        assert len(rows) == 200 * 200
        flags = column(header, rows, "singular_flag", cast=int)
        sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert sidecar["flag_counts"] == {"singular": sum(flags), "resonance": 0}

    def test_engine_both_compares_the_sweep_in_hand(self, tmp_path, monkeypatch):
        # one grid per engine: the analytic grid written is the one compared
        calls = []
        amplitudes = sweep.amplitudes

        def counted(params, engine, limit):
            calls.append(engine)
            return amplitudes(params, engine, limit)

        monkeypatch.setattr(sweep, "amplitudes", counted)
        for command, config in (("spectrum", "fig3a"), ("map2d", "fig6b")):
            calls.clear()
            out = tmp_path / f"{command}.csv"
            argv = [command, "--config", config, "--engine", "both", "--out", str(out)]
            if command == "spectrum":
                argv += ["--set", "k_count=50"]
            assert main(argv) == 0
            assert calls == ["analytic", "oracle"]
            sidecar = json.loads((tmp_path / f"{command}.csv.meta.json").read_text())
            assert sidecar["max_engine_deviation"] <= 1e-8

    def test_k_map_is_the_spectrum(self, tmp_path):
        # spectrum is the one-k-axis case of the same grid path
        spectrum, k_map = tmp_path / "s.csv", tmp_path / "m.csv"
        grid = ["k_min=0.2", "k_max=2.9", "k_count=301"]
        axis = ["axis1=k", "axis1_min=0.2", "axis1_max=2.9", "axis1_count=301", "quantity=R"]
        for out, command, keys in ((spectrum, "spectrum", grid), (k_map, "map2d", axis)):
            assert main([command, *sets(*FIG6A_NODES, *keys), "--out", str(out)]) == 0
        s_header, s_rows = read_csv(spectrum)
        m_header, m_rows = read_csv(k_map)
        assert column(s_header, s_rows, "k", str) == column(m_header, m_rows, "k", str)
        assert column(s_header, s_rows, "R", str) == column(m_header, m_rows, "R", str)

    def test_fig6b_runs_over_separations(self, tmp_path):
        out = tmp_path / "fig6b.csv"
        assert main(["map2d", "--config", "fig6b", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[0] == "D"
        assert len(rows) == 30
        R = column(header, rows, "R")
        # pi/2 round trip repeats every 2 sites
        assert R[0] == pytest.approx(R[2], abs=1e-12)
        assert R[1] == pytest.approx(R[3], abs=1e-12)


class TestQuasiboundCommand:
    def test_resonant_fixture_quantises(self, tmp_path):
        cfg = tmp_path / "resonant.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 0\ndelta = -10\nOmega = 1\ng = 10000\n"
            "omega_e2 = 0\ndelta2 = -10\nOmega2 = 1\ng2 = 10000\nD = 10\n"
        )
        out = tmp_path / "qb.csv"
        assert main(["quasibound", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "Re_k", "Im_k", "Re_E", "Im_E", "leakage", "residual"]
        quantised = [row for row in rows if row[0] != ""]
        assert len(quantised) == 9
        for row in quantised:
            n = int(row[0])
            assert abs(float(row[1]) - math.pi * n / 10) <= 1e-6
            assert abs(float(row[2])) <= 1e-8
        sidecar = json.loads((tmp_path / "qb.csv.meta.json").read_text())
        assert sidecar["mode_diagnostics"]["window_roots"] == len(rows)

    def test_adjacent_nodes_trap_nothing(self, tmp_path):
        cfg = tmp_path / "d1.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 0\ndelta = -10\nOmega = 1\ng = 10000\n"
            "omega_e2 = 0\ndelta2 = -10\nOmega2 = 1\ng2 = 10000\nD = 1\n"
            "window_im_min = -0.2\n"
        )
        out = tmp_path / "d1.csv"
        assert main(["quasibound", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows == []

    def test_detuned_modes_leak(self, tmp_path):
        cfg = tmp_path / "leaky.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 0.2\ndelta = -0.66\nOmega = 1\ng = 1\n"
            "omega_e2 = 0.2\ndelta2 = -0.66\nOmega2 = 1\ng2 = 1\nD = 10\n"
        )
        out = tmp_path / "leaky.csv"
        assert main(["quasibound", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows
        leak = column(header, rows, "leakage")
        assert all(v > 0.0 for v in leak)

    def test_seed_grid_keys_are_unknown(self, tmp_path, capsys):
        for key in ("seeds_re", "seeds_im"):
            code = main(["quasibound", *QB_SETS, "--set", f"{key}=8",
                         "--out", str(tmp_path / "x.csv")])
            assert code == 2
            assert f"unknown configuration key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_log_level_debug_emits_search_records(self, tmp_path, caplog):
        argv = ["quasibound", *QB_SETS, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 0
        assert not [r for r in caplog.records if r.name == "cavitychain.quasibound"]
        assert main(argv + ["--log-level", "DEBUG"]) == 0
        records = [r for r in caplog.records if r.name == "cavitychain.quasibound"]
        assert records and all(r.levelno == logging.DEBUG for r in records)
        assert "window_roots" in records[0].getMessage()
        assert main(argv) == 0
        assert logging.getLogger("cavitychain").level == logging.WARNING

    def test_profile_dump(self, tmp_path):
        cfg = tmp_path / "prof.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 0\ndelta = -10\nOmega = 1\ng = 10000\n"
            "omega_e2 = 0\ndelta2 = -10\nOmega2 = 1\ng2 = 10000\nD = 10\nprofile_n = 3\n"
        )
        out = tmp_path / "prof.csv"
        assert main(["quasibound", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(tmp_path / "prof.profile.csv")
        assert header == ["j", "Re_u", "Im_u"]
        assert len(rows) == 11
        assert float(rows[0][1]) == 0.0 and float(rows[10][1]) == 0.0


class TestWavepacketCommand:
    def test_auto_design_and_sidecar_metrics(self, tmp_path):
        cfg = tmp_path / "wp.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 1\ndelta = 0\nOmega = 1\n"
            "N = 420\nsite = 210\nk0 = 2.2\nsigma = 8\n"
        )
        out = tmp_path / "wp.csv"
        assert main(["wavepacket", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["time", "norm"]
        sidecar = json.loads((tmp_path / "wp.csv.meta.json").read_text())
        assert sidecar["R_meas"] + sidecar["T_meas"] == pytest.approx(1.0, abs=1e-4)
        assert sidecar["drift"] <= 1e-8

    def test_missing_packet_keys(self, tmp_path):
        cfg = tmp_path / "wp.cfg"
        cfg.write_text("t = 2\nomega = 1\nomega_e = 1\nN = 420\nsite = 210\n")
        assert main(["wavepacket", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


class TestModesCommand:
    def test_table_and_vector_dump(self, tmp_path):
        cfg = tmp_path / "modes.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 1\ndelta = 0\nOmega = 1\nN = 32\nsite = 16\n"
            "mode_index = 0\n"
        )
        out = tmp_path / "modes.csv"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["index", "Re_E", "Im_E", "ipr", "interior_weight"]
        assert len(rows) == 34
        assert (tmp_path / "modes.vector.csv").exists()

    def test_vector_csv_is_the_mode(self, tmp_path):
        cfg = tmp_path / "pair.cfg"
        cfg.write_text(
            "t = 2\nomega = 1\nomega_e = 1\nOmega = 1\nomega_e2 = 0.5\nOmega2 = 0.8\n"
            "Gamma2 = 0.05\ngamma2 = 0.02\nD = 5\nN = 40\nsite = 15\nmode_index = 7\n"
        )
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "pair.csv")]) == 0
        lat = LatticeParams(omega=1.0, t=2.0)
        nodes = ((15, AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)),
                 (20, AtomParams(omega_e=0.5, delta=0.0, Omega=0.8, Gamma=0.05, gamma=0.02)))
        vector = eigenmodes(ChainSpec(40, nodes, lat))[7].vector
        header, rows = read_csv(tmp_path / "pair.vector.csv")
        assert header == ["kind", "index", "re", "im"]
        assert [row[:2] for row in rows] == [
            *(["site", str(j)] for j in range(40)),
            ["excited", "15"], ["metastable", "15"], ["excited", "20"], ["metastable", "20"],
        ]
        assert [complex(float(row[2]), float(row[3])) for row in rows] == vector.tolist()


class TestOracleCheckCommand:
    def test_default_suite_passes(self, capsys):
        code = main(
            ["oracle-check", "--config", "oracle_check",
             "--set", "draws=25", "--set", "wavepacket_check=false"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_negative_control_fires(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code = main(
            ["oracle-check", "--config", "oracle_check",
             "--set", "draws=10", "--set", "wavepacket_check=false",
             "--set", "negative_control=r-sign", "--out", str(report)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "FAIL" in report.read_text()


class TestGitHash:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli._git_hash.cache_clear()
        yield
        cli._git_hash.cache_clear()

    def fake_git(self, monkeypatch, top_level):
        calls = []

        def run(*args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 0, f"{top_level}\n{'a' * 40}\n", "")

        monkeypatch.setattr(cli.subprocess, "run", run)
        return calls

    def test_two_commands_start_git_at_most_once(self, tmp_path, monkeypatch):
        calls = self.fake_git(monkeypatch, Path(cli.__file__).resolve().parents[2])
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            args = ["spectrum", "--config", "fig3a", "--set", "k_count=5", "--out", str(out)]
            assert main(args) == 0
            sidecar = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
            assert sidecar["git_hash"] == "a" * 40
        assert len(calls) == 1

    def test_foreign_top_level_is_unknown(self, tmp_path, monkeypatch):
        self.fake_git(monkeypatch, tmp_path)
        assert cli._git_hash() == "unknown"
