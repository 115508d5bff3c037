import contextlib
import errno
import json
import logging
import math
import os
import subprocess
import threading
from pathlib import Path

import numpy as np
import pytest

from cavitychain import (
    AtomParams,
    ChainSpec,
    ConfigError,
    IntegratorDriftError,
    LatticeParams,
    OracleResidualError,
    UnverifiedRootError,
    cli,
    csvtext,
    eigenmodes,
    sweep,
)
from cavitychain.cli import (
    coerce_config,
    load_config,
    main,
    parse_config_text,
)
from cavitychain.csvtext import number_cells
from cavitychain.oracle import WavepacketSpec, design_scattering_run, propagate_wavepacket
from cavitychain.scattering import chain_scatter
from helpers import reference_csv


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
#: A fig3a pair three sites apart, with a root at Re k = 1.14799766.
QB_PAIR = sets(*FIG3A_NODE, "omega_e2=1", "Omega2=1", "D=3")
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
            # the search moves Re k's sides 1e-6 inward: 2e-6 or less leaves nothing
            ("quasibound", [*QB_PAIR, *sets("window_re_min=1.1479972", "window_re_max=1.1479981")],
             "window_re_min must be below window_re_max by more than 2e-6"),
            ("quasibound", [*QB_PAIR, *sets("window_re_min=1.1479", "window_re_max=1.1479015")],
             "window_re_min must be below window_re_max by more than 2e-6"),
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
            ("wavepacket", sets("t=2", "omega=1", "N=200", "k0=1", "sigma=4", "x0=1000", "tmax=5"),
             "closer than 5 sigma to the right end"),
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
            # non-finite numbers
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "x0=100", "tmax=inf")],
             "tmax must be finite"),
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "x0=100", "tmax=nan")],
             "tmax must be finite"),
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "kappa=nan")], "kappa must be finite"),
            ("wavepacket", [*WP_SETS, *sets("sigma=8", "kappa=inf")], "kappa must be finite"),
            ("wavepacket", [*WP_SETS, *sets("sigma=inf")], "sigma must be finite"),
            ("modes", sets("t=2", "N=20", "kappa=nan"), "kappa must be finite"),
            ("modes", sets("t=2", "N=20", "kappa=inf"), "kappa must be finite"),
            ("wavepacket", [*WP_PLACED, *sets("absorber_width=20", "absorber_strength=nan")],
             "absorber_strength must be finite"),
            ("wavepacket", [*WP_PLACED, *sets("absorber_width=20", "absorber_strength=inf")],
             "absorber_strength must be finite"),
            ("map2d", sets(*FIG3A_NODE, "k=1.2", "axis1=Omega", "axis1_min=nan",
                           "axis1_max=nan", "axis1_count=1"), "Omega axis start must be finite"),
            ("map2d", sets(*FIG3A_NODE, "k=1.2", "axis1=omega_e", "axis1_min=0",
                           "axis1_max=inf"), "omega_e axis stop must be finite"),
        ],
        ids=["re-window", "im-window", "profile_n", "narrow-re-window-around-a-root",
             "narrow-re-window", "mode_index", "sigma", "tmax",
             "no-draws", "negative-draws", "negative-seed", "limit", "quantity",
             "duplicate-axes", "no-momentum", "x0-alone", "tmax-alone",
             "absorbers-unplaced", "overlapping-absorbers", "negative-width", "gain-layer",
             "x0-near-end", "x0-near-node", "x0-past-right-end", "kappa-spectrum", "kappa-map2d",
             "kappa-quasibound", "threshold-key", "engine-key",
             "oracle-check-chain-keys", "modes-packet-keys", "spectrum-k", "negative-control-typo",
             "tmax-inf", "tmax-nan", "wavepacket-kappa-nan", "wavepacket-kappa-inf",
             "designed-sigma-inf", "modes-kappa-nan", "modes-kappa-inf", "absorber-nan",
             "absorber-inf", "axis-nan", "axis-inf"],
    )
    def test_bad_config_exits_2_without_output(self, tmp_path, capsys, command, args, fragment):
        out = tmp_path / "x.csv"
        earlier = {out: b"k,R\n0.5,1\n", tmp_path / "x.csv.meta.json": b'{"engine": "both"}\n'}
        for path, data in earlier.items():
            path.write_bytes(data)
        assert main([command, *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert fragment in captured.err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == earlier

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
        assert sidecar["tolerances"]["oracle_residual_tol"] == 1e-12

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
        assert sidecar["flag_counts"] == {"singular": 0}

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
        assert sidecar["flag_counts"] == {"singular": 1}

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

    @pytest.mark.parametrize("command, config", [
        ("spectrum", ["--config", "fig5a", *sets("D=4", "omega_e2=0.3")]),
        ("map2d", ["--config", "fig6b", *sets("limit=high")]),
        # a D axis places the second node
        ("map2d", sets(*FIG3A_NODE, "limit=high", "k=1.57", "axis1=D", "axis1_min=1",
                       "axis1_max=5", "axis1_count=5")),
    ], ids=["spectrum", "map2d", "map2d-D-axis"])
    def test_limit_with_two_nodes_fails_without_output(self, tmp_path, command, config, capsys):
        # a limit lineshape holds one node; a second must not be dropped unseen
        out = tmp_path / "x.csv"
        assert main([command, *config, "--out", str(out)]) == 2
        assert "limit lineshape takes one node" in capsys.readouterr().err
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

    @pytest.mark.parametrize("axis, derived", [("Omega", {"delta": -0.5}), ("omega_C", {}),
                                               ("delta", {})])
    def test_derived_delta_only_when_the_detuning_is_fixed(self, tmp_path, axis, derived):
        # fig4 sweeps omega_C: no single delta describes a map along a detuning axis
        out = tmp_path / "m.csv"
        config = sets("t=2", "omega=1", "omega_e=0", "Omega=1", "omega_a=0", "omega_C=0.5",
                      "k=1.5", f"axis1={axis}", "axis1_min=-1", "axis1_max=1", "axis1_count=3")
        assert main(["map2d", *config, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert sidecar["derived"] == derived

    def test_fig4_bytes_repeat_and_flags_are_counted(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["map2d", "--config", "fig4", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        header, rows = read_csv(outs[0])
        assert len(rows) == 200 * 200
        flags = column(header, rows, "singular_flag", cast=int)
        sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert sidecar["flag_counts"] == {"singular": sum(flags)}

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

    @pytest.mark.parametrize("quantity", ["R", "T", "xi", "Re_r", "Im_r"])
    def test_k_map_is_the_spectrum(self, tmp_path, quantity):
        # spectrum is the one-k-axis case of the same grid path
        spectrum, k_map = tmp_path / "s.csv", tmp_path / "m.csv"
        grid = ["k_min=0.2", "k_max=2.9", "k_count=301"]
        axis = ["axis1=k", "axis1_min=0.2", "axis1_max=2.9", "axis1_count=301", f"quantity={quantity}"]
        for out, command, keys in ((spectrum, "spectrum", grid), (k_map, "map2d", axis)):
            assert main([command, *sets(*FIG6A_NODES, *keys), "--out", str(out)]) == 0
        s_header, s_rows = read_csv(spectrum)
        m_header, m_rows = read_csv(k_map)
        assert column(s_header, s_rows, "k", str) == column(m_header, m_rows, "k", str)
        assert column(s_header, s_rows, quantity, str) == column(m_header, m_rows, quantity, str)

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


#: The bundled figures, each with the command that draws it.
FIGURES = [("spectrum", f) for f in ("fig3a", "fig3b", "fig5a", "fig5b", "fig6a", "fig7")] + [
    ("map2d", f) for f in ("fig4", "fig6b")]


def recorded_csvs(monkeypatch):
    """Every ``(out, header, columns)`` the CLI writes from now on, as it writes it."""
    written = []
    write = cli._write_csv

    def record(out, header, columns):
        size = write(out, header, columns)
        written.append((out, header, columns))
        return size

    monkeypatch.setattr(cli, "_write_csv", record)
    return written


class TestCsvWriter:
    """``_write_csv`` writes the bytes of the row-by-row reference writer."""

    def assert_reference_bytes(self, tmp_path, columns):
        out = tmp_path / "columns.csv"
        header = [f"c{i}" for i in range(len(columns))]
        cli._write_csv(out, header, columns)
        assert out.read_bytes() == reference_csv(header, columns)

    def test_repeats_inside_and_across_blocks(self, tmp_path):
        rng = np.random.default_rng(19)
        rows = 2 * cli._CSV_BLOCK + 123
        self.assert_reference_bytes(tmp_path, [
            rng.integers(0, 40, rows) / 8.0,
            rng.random(rows),  # every entry distinct
            np.r_[rng.random(cli._CSV_BLOCK), rng.integers(0, 5, rows - cli._CSV_BLOCK) * 0.1],
            np.repeat(rng.normal(size=rows // 97 + 1), 97)[:rows],  # runs across block edges
            np.tile(rng.normal(size=200), rows // 200 + 1)[:rows],
            rng.integers(0, 3, rows).astype(np.int8),
        ])

    def test_special_values_keep_their_bits(self, tmp_path):
        payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000], np.uint64).view(float)
        special = np.r_[0.0, -0.0, np.nan, payloads, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2250738585072009e-308, 1e300, -1e300, 0.1]
        big = np.array([2**53, 2**53 + 1, 2**53 + 2, 2**63 - 1, -(2**63), -(2**53) - 1], np.int64)
        ints = np.resize(big, len(special))
        self.assert_reference_bytes(tmp_path, [special, ints[::-1].copy()])  # all distinct
        self.assert_reference_bytes(tmp_path, [np.r_[special, special[::-1], special],
                                               np.r_[ints, ints, ints]])
        self.assert_reference_bytes(tmp_path, [np.r_[0.0, -0.0, 0.0, -0.0]])

    def test_integer_boolean_and_text_columns(self, tmp_path):
        rng = np.random.default_rng(7)
        words = ["", "site", "excited", "", "metastable"] * 4
        self.assert_reference_bytes(tmp_path, [
            rng.integers(-128, 128, 20).astype(np.int8), np.arange(20, dtype=np.int64) * 3,
            np.arange(20) % 3 == 0, np.array(words), np.array(words, dtype=object),
            [str(i) if i % 2 else "" for i in range(20)], np.zeros(20, np.int64),
        ])

    def test_empty_and_strided_columns(self, tmp_path):
        self.assert_reference_bytes(tmp_path, [np.array([]), np.array([], np.int8),
                                               np.array([], "U1"), []])
        rng = np.random.default_rng(3)
        r = rng.integers(0, 4, 3 * cli._CSV_BLOCK) * 0.5 + 1j * rng.random(3 * cli._CSV_BLOCK)
        self.assert_reference_bytes(tmp_path, [r.real, r.imag, r[::-1].real, np.abs(r) ** 2])

    @pytest.mark.parametrize("command, figure", FIGURES, ids=[f for _, f in FIGURES])
    def test_bundled_figures(self, tmp_path, monkeypatch, command, figure):
        written = recorded_csvs(monkeypatch)
        assert main([command, "--config", figure, "--out", str(tmp_path / "f.csv")]) == 0
        ((out, header, columns),) = written
        assert out.read_bytes() == reference_csv(header, columns)

    def test_quasibound_profile_and_modes_vector(self, tmp_path, monkeypatch):
        written = recorded_csvs(monkeypatch)
        assert main(["quasibound", *QB_SETS, *sets("profile_n=3"),
                     "--out", str(tmp_path / "qb.csv")]) == 0
        assert main(["modes", *sets(*FIG3A_NODE, "omega_e2=0.5", "Omega2=0.8", "Gamma2=0.05",
                                    "D=5", "N=40", "site=15", "mode_index=7"),
                     "--out", str(tmp_path / "modes.csv")]) == 0
        assert [out.name for out, _, _ in written] == ["qb.profile.csv", "qb.csv",
                                                      "modes.vector.csv", "modes.csv"]
        for out, header, columns in written:
            assert out.read_bytes() == reference_csv(header, columns)

    def test_whole_blocks_and_zero_row_files(self, tmp_path):
        rng = np.random.default_rng(5)
        for rows in (cli._CSV_BLOCK, 2 * cli._CSV_BLOCK):  # no partial block at the end
            self.assert_reference_bytes(tmp_path, [rng.random(rows), np.arange(rows) % 7 == 0,
                                                   np.array(["x"] * rows)])
        for columns in ([np.array([])], [np.array([], "U3"), np.array([], bool)], []):
            self.assert_reference_bytes(tmp_path, columns)
            assert (tmp_path / "columns.csv").read_bytes().count(b"\n") == 1  # the header alone

    def test_blocks_of_text_or_of_values_python_formats(self, tmp_path):
        rows = cli._CSV_BLOCK + 5
        words = np.array(["é", "", "kind,n", "a b", "ünïcode text longer than eight"] * rows)
        self.assert_reference_bytes(tmp_path, [words[:rows], words[::-1][:rows]])
        special = np.resize([np.nan, np.inf, -np.inf, 5e-324, 1e300, 2.5e-320], rows)
        self.assert_reference_bytes(tmp_path, [special, -special])

    def test_numeric_columns_split_by_pairs_and_text(self, tmp_path):
        # every numeric column of a block is formatted in one kernel call; the
        # text and pair columns between them must keep their places
        rng = np.random.default_rng(43)
        rows = 2 * cli._CSV_BLOCK // 3 + 29  # blocks of _CSV_BLOCK // m rows
        labels = np.array([str(i % 11) if i % 5 else "" for i in range(rows)])
        kind = np.resize(["site", "excited", "metastable"], rows)
        self.assert_reference_bytes(tmp_path, [  # quasibound's main CSV: text n, then numbers
            labels, *(rng.normal(size=rows) for _ in range(4)), rng.random(rows) * 1e-9,
            rng.random(rows)])
        self.assert_reference_bytes(tmp_path, [  # modes' .vector.csv: text, integer, two floats
            kind, np.arange(rows) // 3, rng.normal(size=rows), rng.normal(size=rows)])
        self.assert_reference_bytes(tmp_path, [
            rng.random(rows), ([0, 1], rng.random(rows) < 0.3), np.arange(rows, dtype=np.int64),
            kind, (rng.normal(size=7), rng.integers(0, 7, rows)), rng.random(rows) < 0.5,
            rng.integers(-99, 99, rows).astype(np.int8), labels])

    def test_a_block_edge_inside_a_run_of_numeric_columns(self, tmp_path):
        rng = np.random.default_rng(47)
        for m in (2, 3, 7):
            per_block = cli._CSV_BLOCK // m
            rows = 2 * per_block + per_block // 2 + 1
            assert rows % per_block
            self.assert_reference_bytes(tmp_path, [
                ([0, 1], rng.random(rows) < 0.5),
                *(np.repeat(rng.normal(size=rows // 97 + 1), 97)[:rows] for _ in range(m - 1)),
                rng.random(rows), np.array(["x"] * rows)])

    def test_no_numeric_column(self, tmp_path, caplog):
        rng = np.random.default_rng(53)
        rows = 2 * cli._CSV_BLOCK + 3
        words = np.array(["é", "", "kind,n", "ünïcode text longer than eight"])
        columns = [words[rng.integers(0, 4, rows)], ([0.5, np.nan, 2.0], rng.integers(0, 3, rows)),
                   (words, rng.integers(0, 4, rows)), ([0, 1], rng.random(rows) < 0.5)]
        with caplog.at_level(logging.DEBUG, logger="cavitychain.cli"):
            self.assert_reference_bytes(tmp_path, columns)
        # with no numbers to size them by, blocks are _CSV_BLOCK rows long
        assert caplog.records[-1].args[1:] == (rows, 0, 3 + 2, 3)

    def test_one_kernel_call_per_block(self, tmp_path, monkeypatch):
        calls = []

        def spy(x, out):
            calls.append(len(x))
            return number_cells(x, out)

        monkeypatch.setattr(csvtext, "number_cells", spy)
        assert main(["spectrum", "--config", "fig3a", "--out", str(tmp_path / "f.csv")]) == 0
        # 2,000 rows of 9 numbers: one call per block of _CSV_BLOCK numbers, not one per column
        assert len(calls) == -(-18000 // cli._CSV_BLOCK) and sum(calls) == 18000

    def test_unequal_columns_raise_before_writing(self, tmp_path):
        out = tmp_path / "short.csv"
        with pytest.raises(ValueError, match="unequal length"):
            cli._write_csv(out, ["a", "b"], [np.zeros(3), np.zeros(2)])
        with pytest.raises(ValueError, match="1 names for 2 columns"):
            cli._write_csv(out, ["a"], [np.zeros(3), np.zeros(3)])
        assert not out.exists()

    def test_complex_column_raises_before_writing(self, tmp_path):
        out = tmp_path / "complex.csv"
        with pytest.raises(TypeError, match="column 'r' has dtype complex128"):
            cli._write_csv(out, ["k", "r"], [np.zeros(3), np.zeros(3) + 1j])
        assert not out.exists()

    def test_text_holding_nul_raises_before_writing(self, tmp_path):
        out = tmp_path / "nul.csv"
        with pytest.raises(ValueError, match="column 'kind' holds a NUL character"):
            cli._write_csv(out, ["x", "kind"], [np.zeros(2), ["site", "node\0level"]])
        assert not out.exists()

    def test_pairs_with_repeats_inside_and_across_blocks(self, tmp_path):
        rng = np.random.default_rng(29)
        rows = 2 * cli._CSV_BLOCK + 77
        axis = rng.normal(size=61)
        self.assert_reference_bytes(tmp_path, [
            (axis, np.repeat(np.arange(61), rows // 61 + 1)[:rows]),  # runs across block edges
            (axis, np.tile(np.arange(61), rows // 61 + 1)[:rows]),
            (axis[::-1], rng.integers(0, 61, rows)),  # an unsorted index into a strided table
            ([0, 1], rng.random(rows) < 0.1),
            ([0, 1, 2], rng.integers(0, 3, rows).astype(np.int8)),
            (np.arange(5, dtype=np.uint8) * 50, rng.integers(0, 5, rows).astype(np.uint64)),
            rng.random(rows),
        ])

    def test_pair_tables_of_special_values_and_text(self, tmp_path):
        payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000], np.uint64).view(float)
        special = np.r_[0.0, -0.0, np.nan, payloads, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2250738585072009e-308, 1e300, -1e300, 0.1]
        index = np.random.default_rng(31).permutation(np.resize(np.arange(len(special)), 50))
        words = ["", "é", "ünïcode text longer than eight", "kind,n", "site", ""]
        self.assert_reference_bytes(tmp_path, [
            (special, index), (np.array(words), index % 6),
            (np.array(words, dtype=object), index[::-1] % 6), (words, np.zeros(50, int)),
        ])

    def test_empty_pairs(self, tmp_path):
        for table in ([1.5, 2.5], np.array([]), np.array(["a"])):
            self.assert_reference_bytes(tmp_path, [(table, np.array([], np.int64)), np.array([])])
            assert (tmp_path / "columns.csv").read_bytes().count(b"\n") == 1

    def test_bad_pair_raises_before_writing(self, tmp_path):
        out = tmp_path / "pair.csv"
        with pytest.raises(ValueError, match="column 'D' has an index of dtype float64"):
            cli._write_csv(out, ["k", "D"], [np.zeros(2), ([1.0, 2.0], np.array([0.0, 1.0]))])
        for table, index in (([1.0, 2.0], [0, -1]), ([1.0, 2.0], [2, 0]), (["a"], [True, False]),
                             ([], np.zeros(2, np.uint8)),
                             ([1.0, 2.0], np.array([0, 2**63 + 1], np.uint64))):
            with pytest.raises(ValueError, match=fr"'D' has an index outside \[0, {len(table)}\)"):
                cli._write_csv(out, ["k", "D"], [np.zeros(2), (table, index)])
        with pytest.raises(ValueError, match=r"unequal length \[3, 2\]"):
            cli._write_csv(out, ["k", "D"], [np.zeros(3), (np.zeros(5), [0, 4])])
        for column in (np.zeros((3, 2)), np.float64(1.0), (np.zeros(2), np.zeros((1, 3), int)),
                       ([[1.0, 2.0]], [0, 0, 0]), (np.zeros(2), 1)):
            with pytest.raises(ValueError, match="column 'D' is not one-dimensional"):
                cli._write_csv(out, ["k", "D"], [np.zeros(3), column])
        with pytest.raises(TypeError, match="column 'r' has dtype complex128"):
            cli._write_csv(out, ["r"], [([1j, 2.0], [0, 1])])
        with pytest.raises(ValueError, match="column 'kind' holds a NUL character"):
            cli._write_csv(out, ["kind"], [(["site", "node\0level"], [1, 0])])
        assert not out.exists()

    @pytest.mark.parametrize("axes", [
        ("omega_e2=0.5", "Omega2=0.8", "axis1=k", "axis1_min=0.1", "axis1_max=3",
         "axis1_count=37", "axis2=D", "axis2_min=1", "axis2_max=25", "axis2_count=25"),
        ("Gamma=0.1", "gamma=0.05", "quantity=T", "axis1=k", "axis1_min=0.02", "axis1_max=3.12",
         "axis1_count=60", "axis2=delta", "axis2_min=-2", "axis2_max=2", "axis2_count=50"),
    ], ids=["k-D", "k-delta-decay"])
    def test_two_axis_maps(self, tmp_path, monkeypatch, axes):
        written = recorded_csvs(monkeypatch)
        assert main(["map2d", *sets(*FIG3A_NODE, *axes), "--out", str(tmp_path / "m.csv")]) == 0
        ((out, header, columns),) = written
        assert isinstance(columns[0], tuple) and isinstance(columns[1], tuple)
        (first, _), (second, _) = columns[:2]
        grids = [np.repeat(first, len(second)), np.tile(second, len(first)), *columns[2:]]
        assert out.read_bytes() == reference_csv(header, grids)

    def test_debug_log_counts_the_numbers_formatted(self, tmp_path, caplog):
        out = tmp_path / "fig4.csv"
        argv = ["map2d", "--config", "fig4", "--out", str(out)]
        assert main(argv) == 0
        assert not [r for r in caplog.records if r.name == "cavitychain.cli"]
        assert main(argv + ["--log-level", "DEBUG"]) == 0
        (record,) = [r for r in caplog.records if r.name == "cavitychain.cli"]
        assert record.levelno == logging.DEBUG
        # the kernel formats and certifies the mapped R; Python formats each of the
        # 200 + 200 axis values and the 2 flag values once; one numeric column
        # takes _CSV_BLOCK rows a block
        assert record.args == ("fig4.csv", 40000, 40000, 402, -(-40000 // cli._CSV_BLOCK))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cavitychain.cli"):
            cli._write_csv(tmp_path / "special.csv", ["x", "n", "p"],
                           [[np.nan, 1.0, np.inf, 0.1, 1e-300], ["a"] * 5,
                            ([0.5, np.nan], [0, 1, 1, 0, 0])])
        assert caplog.records[-1].args == ("special.csv", 5, 5, 3 + 2, 1)


class TestOutputsWrittenInPlace:
    """Each output, written over whatever an earlier run left at its path."""

    @pytest.mark.parametrize("command, args, names", [
        ("spectrum", ["--config", "fig3a", *sets("k_count=300")], ["out.csv"]),
        ("quasibound", [*QB_SETS, *sets("profile_n=3")], ["out.csv", "out.profile.csv"]),
        ("modes", sets(*FIG3A_NODE, "N=40", "site=15", "mode_index=7"),
         ["out.csv", "out.vector.csv"]),
        ("oracle-check", ["--config", "oracle_check", *sets("draws=30", "wavepacket_check=false")],
         ["out.csv"]),
    ], ids=["spectrum", "quasibound-profile", "modes-vector", "oracle-check-report"])
    def test_a_longer_file_ends_at_the_new_bytes(self, tmp_path, capsys, command, args, names):
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        fresh.mkdir()
        over.mkdir()
        assert main([command, *args, "--out", str(fresh / "out.csv")]) == 0
        names = sorted([*names, "out.csv.meta.json"])
        assert sorted(path.name for path in fresh.iterdir()) == names
        rng = np.random.default_rng(41)
        for name in names:
            (over / name).write_bytes(rng.bytes(2 * (fresh / name).stat().st_size + 1000))
        assert main([command, *args, "--out", str(over / "out.csv")]) == 0

        def undated(data):
            return [line for line in data.splitlines(keepends=True) if b'"timestamp"' not in line]

        for name in names:
            new, expected = (over / name).read_bytes(), (fresh / name).read_bytes()
            if name.endswith(".meta.json"):  # only the timestamp may differ
                new, expected = undated(new), undated(expected)
            assert new == expected, name

    @pytest.mark.parametrize("command, args, solver, error", [
        ("spectrum", ["--config", "fig3a", *sets("k_count=50"), "--engine", "both"],
         (sweep, "solve_stationary"), OracleResidualError("lattice residual 1.0e-03")),
        ("map2d", ["--config", "fig6b", "--engine", "both"],
         (sweep, "solve_stationary"), OracleResidualError("lattice residual 1.0e-03")),
        ("quasibound", [*QB_SETS, *sets("profile_n=3")],
         (cli, "find_quasibound_modes"), UnverifiedRootError("the winding numbers [-1]")),
        ("modes", sets(*FIG3A_NODE, "N=40", "site=15", "mode_index=3"),
         (cli, "eigenmodes"), OracleResidualError("lattice residual 1.0e-03")),
        ("wavepacket", [*WP_SETS, *sets("sigma=8")],
         (cli, "propagate_wavepacket"), IntegratorDriftError("norm drift 1.0e-06")),
        ("oracle-check", ["--config", "oracle_check", *sets("draws=30", "wavepacket_check=false")],
         (sweep, "solve_stationary"), OracleResidualError("lattice residual 1.0e-03")),
    ], ids=["spectrum", "map2d", "quasibound", "modes", "wavepacket", "oracle-check"])
    def test_a_failing_oracle_leaves_the_earlier_outputs(self, tmp_path, capsys, monkeypatch,
                                                         command, args, solver, error):
        out = tmp_path / "out.csv"
        earlier = {out: b"k,R\n0.5,1\n", tmp_path / "out.csv.meta.json": b'{"engine": "both"}\n',
                   tmp_path / "out.profile.csv": b"j,Re_u\n",
                   tmp_path / "out.vector.csv": b"kind\n"}
        for path, data in earlier.items():
            path.write_bytes(data)

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(*solver, fail)
        assert main([command, *args, "--out", str(out)]) == 1
        assert str(error) in capsys.readouterr().err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == earlier

    @pytest.mark.parametrize("command, args, function", [
        ("spectrum", ["--config", "fig3a", *sets("k_count=50")], "cmd_grid"),
        ("map2d", ["--config", "fig6b", "--engine", "both"], "cmd_grid"),
        ("quasibound", [*QB_SETS, *sets("profile_n=3")], "cmd_quasibound"),
        ("modes", sets(*FIG3A_NODE, "N=40", "site=15", "mode_index=3"), "cmd_modes"),
        ("wavepacket", [*WP_SETS, *sets("sigma=8")], "cmd_wavepacket"),
        ("oracle-check", ["--config", "oracle_check", *sets("draws=30", "wavepacket_check=false")],
         "cmd_oracle_check"),
    ], ids=["spectrum", "map2d", "quasibound", "modes", "wavepacket", "oracle-check"])
    def test_commands_compute_and_main_writes(self, tmp_path, capsys, monkeypatch, command,
                                              args, function):
        # main calls the module's binding, so whatever rebinds cli.cmd_* sees the call
        command_function, listings = getattr(cli, function), []

        def wrapped(*call_args):
            result = command_function(*call_args)
            listings.append(list(tmp_path.iterdir()))
            return result

        monkeypatch.setattr(cli, function, wrapped)
        assert main([command, *args, "--out", str(tmp_path / "out.csv")]) == 0
        assert listings == [[]]
        files = json.loads((tmp_path / "out.csv.meta.json").read_text())["files"]
        assert files == {path.name[len("out"):]: path.stat().st_size
                         for path in tmp_path.iterdir() if path.suffix != ".json"}

    @pytest.mark.parametrize("n", [1, 2, 3], ids=["profile", "table", "sidecar"])
    def test_a_failed_write_leaves_the_later_files_and_the_sidecar_shows_the_tear(
            self, tmp_path, monkeypatch, n):
        out = tmp_path / "out.csv"
        assert main(["quasibound", *QB_SETS, *sets("profile_n=3"), "--out", str(out)]) == 0
        order = ["out.profile.csv", "out.csv", "out.csv.meta.json"]
        earlier = {name: (tmp_path / name).read_bytes() for name in order}
        open_output, opened = cli._open_output, []

        class Torn:
            """Writes half of what it is given, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        @contextlib.contextmanager
        def nth_fails(path):
            opened.append(path.name)
            with open_output(path) as fh:
                yield Torn(fh) if len(opened) == n else fh

        monkeypatch.setattr(cli, "_open_output", nth_fails)
        with pytest.raises(OSError):
            main(["quasibound", *sets(*FIG3A_NODE, "D=12", "profile_n=5"), "--out", str(out)])
        assert opened == order[:n]
        torn = order[n - 1]
        assert (tmp_path / torn).read_bytes() != earlier[torn]
        for name in order[n:]:
            assert (tmp_path / name).read_bytes() == earlier[name]
        if n < len(order):  # the earlier sidecar's count is not what the file now holds
            files = json.loads(earlier["out.csv.meta.json"])["files"]
            assert files[torn[len("out"):]] != (tmp_path / torn).stat().st_size
        else:
            with pytest.raises(json.JSONDecodeError):
                json.loads((tmp_path / torn).read_bytes())

    def test_the_sidecar_counts_the_bytes_a_fifo_received(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["spectrum", "--config", "fig3a", *sets("k_count=5000"),
                     "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        files = json.loads((tmp_path / "fifo.meta.json").read_text())["files"]
        assert files == {"": len(received[0])} and received[0].count(b"\n") == 5001

    @pytest.mark.parametrize("command, args, auxiliary", [
        ("quasibound", [*QB_SETS, *sets("profile_n=3")], "out.profile.csv"),
        ("modes", sets(*FIG3A_NODE, "N=40", "site=15", "mode_index=3"), "out.vector.csv"),
    ], ids=["quasibound-profile", "modes-vector"])
    def test_an_unwritable_auxiliary_file_leaves_the_earlier_outputs(self, tmp_path, command,
                                                                      args, auxiliary):
        # the auxiliary file is written first, so the table and the sidecar
        # of an earlier run stay whole; the OSError is not a package error
        out = tmp_path / "out.csv"
        earlier = {out: b"k,R\n0.5,1\n", tmp_path / "out.csv.meta.json": b"{}\n"}
        for path, data in earlier.items():
            path.write_bytes(data)
        (tmp_path / auxiliary).mkdir()
        with pytest.raises(IsADirectoryError):
            main([command, *args, "--out", str(out)])
        assert {path: path.read_bytes() for path in earlier} == earlier
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [out.name, "out.csv.meta.json", auxiliary])


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
        # 11 cells start from 2 (2 * 11 + 1) edge and 9 * 12 cut-line samples
        assert sidecar["mode_diagnostics"]["contour_samples"] > 2 * 23 + 9 * 12
        assert sidecar["mode_diagnostics"]["refinement_rounds"] >= 1
        assert sidecar["mode_diagnostics"]["box_searches"] == 0
        assert sidecar["mode_diagnostics"]["settle_ulps"] <= 16.0
        assert sidecar["mode_diagnostics"]["cut_shift"] == 0.5

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

    def test_sidecar_records_the_winding_count(self, tmp_path):
        # D = 10 cuts (0, pi) into 11 cells, one about each pi n / 10 for
        # n = 0..10; the argument principle counts the rows written, for the
        # fig3a pair and for the fig3a node facing the default two-level one
        for extra in (["omega_e2=1", "delta2=0", "Omega2=1", "g2=1"], []):
            out = tmp_path / f"winding-{len(extra)}.csv"
            assert main(["quasibound", *QB_SETS, *sets(*extra), "--out", str(out)]) == 0
            diagnostics = json.loads(out.with_name(out.name + ".meta.json").read_text())["mode_diagnostics"]
            _, rows = read_csv(out)
            assert diagnostics["cells"] == 11
            assert diagnostics["winding"] == diagnostics["window_roots"] == len(rows) > 0

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

    def test_sidecar_records_the_h_applications(self, tmp_path):
        out = tmp_path / "wp.csv"
        assert main(["wavepacket", *WP_PLACED, *sets("absorber_width=30"), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        sidecar = json.loads((tmp_path / "wp.csv.meta.json").read_text())
        applications = sidecar["h_applications"]
        # every step applies H once per Chebyshev term past the first
        assert isinstance(applications, int)
        assert applications % (len(rows) - 1) == 0
        assert applications > len(rows) - 1
        # absorbing layers: one expansion per sample
        assert sidecar["expansions"] == len(rows) - 1

    @pytest.mark.parametrize("extra, per_expansion", [
        ([], 12), (["Gamma=0.04", "gamma=0.04"], 12), (["kappa=0.01"], 12), (["Gamma=10"], 1),
    ], ids=["decay-free", "decaying-node", "kappa", "fast-decay"])
    def test_sidecar_records_the_expansions(self, tmp_path, extra, per_expansion):
        out = tmp_path / "wp.csv"
        assert main(["wavepacket", *WP_SETS, *sets("sigma=8", *extra), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        expansions = json.loads((tmp_path / "wp.csv.meta.json").read_text())["expansions"]
        assert expansions == math.ceil((len(rows) - 1) / per_expansion)

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


#: The range of each key ``oracle-check`` draws.
DRAW_RANGES = {
    "t": (0.5, 4.0), "omega": (-2.0, 2.0), "k": (0.05, math.pi - 0.05),
    **{key + suffix: bounds for suffix in ("", "2") for key, bounds in (
        ("omega_e", (-3.0, 3.0)), ("delta", (-3.0, 3.0)), ("Omega", (0.0, 3.0)),
        ("g", (0.6, 1.5)), ("Gamma", (0.0, 0.2)), ("gamma", (0.0, 0.2)))},
}


class TestOracleCheckCommand:
    @pytest.mark.parametrize("seed", [1, 7, 20240901])
    def test_draws_stay_in_their_ranges(self, seed):
        elastic = np.arange(3000) % 3 != 2
        params, flavor = cli._agreement_draws(np.random.default_rng(seed), elastic)
        assert set(params) == {*DRAW_RANGES, "D"}
        # each key fills its whole range and stays inside it
        for key, (lo, hi) in DRAW_RANGES.items():
            assert params[key].shape == (3000,)
            assert np.all((lo <= params[key]) & (params[key] < hi)), key
            assert params[key].min() < lo + 0.01 * (hi - lo), key
            assert params[key].max() > hi - 0.01 * (hi - lo), key
        assert set(flavor.tolist()) == {0, 1, 2}
        # a two-level node has Omega = 0; every other node has a control field
        assert np.all((params["Omega"] == 0.0) == (flavor == 1))
        assert 0.4 < np.mean(params["Omega2"] == 0.0) < 0.6
        # elastic draws have no decay, and the others decay on both nodes
        for key in ("Gamma", "gamma", "Gamma2", "gamma2"):
            assert np.all((params[key] == 0.0) == elastic), key
        assert params["D"].dtype.kind == "i" and set(params["D"].tolist()) == set(range(1, 9))

    def test_report_is_byte_identical_per_seed(self, tmp_path, capsys):
        reports = []
        for name, seed in (("a", 11), ("b", 11), ("c", 12)):
            out = tmp_path / f"{name}.txt"
            assert main(["oracle-check", "--config", "oracle_check", "--out", str(out),
                         *sets("draws=90", f"seed={seed}", "wavepacket_check=false")]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] != reports[2]
        assert capsys.readouterr().out.encode() == b"".join(reports)

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
             "--set", "draws=60", "--set", "wavepacket_check=false",
             "--set", "negative_control=r-sign", "--out", str(report)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL: 60 violation(s)" in out
        assert out == report.read_text()
        # every draw fails its deviation gate, in draw order
        failed = [int(line.split()[1]) for line in out.splitlines()
                  if line.startswith("  draw ") and ": deviation " in line]
        assert failed == list(range(60))

    def test_wavepacket_check_gates_on_the_packet_average(self, capsys, monkeypatch):
        assert main(["oracle-check", "--config", "oracle_check", *sets("draws=3")]) == 0
        out = capsys.readouterr().out
        assert "wavepacket check: |T_meas - <T>| = " in out and "(budget 1e-06)" in out
        # the gate has teeth: T_meas sits about 5e-10 from <T>
        monkeypatch.setattr(cli, "WAVEPACKET_GATE", 1e-11)
        assert main(["oracle-check", "--config", "oracle_check", *sets("draws=3")]) == 1
        assert "  wavepacket transmission deviation " in capsys.readouterr().out

    def test_packet_average_is_the_reference_and_the_carrier_is_not(self):
        # the default check: k0 = 2.2, sigma = 20 through a fig3a node on 631 sites
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
        lat = LatticeParams(omega=1.0, t=2.0)
        chain, wp = design_scattering_run((atom,), lat, 2.2, 20.0)
        T_meas = propagate_wavepacket(chain, wp).T_meas
        T_avg, outside = cli.packet_transmission(chain, wp)
        assert outside <= cli.OUTSIDE_TOL
        assert abs(T_meas - T_avg) <= cli.WAVEPACKET_GATE
        # negative control: the carrier's T(k0) misses the packet by about 1e-4
        _, s_k0, _ = chain_scatter(2.2, ((0, atom),), lat)
        assert abs(T_meas - abs(s_k0) ** 2) > cli.WAVEPACKET_GATE

    def test_packet_weight_outside_the_band_is_measured(self):
        # momentum spread 1 / (2 sigma) = 0.125 against pi - k0 = 0.14
        chain = ChainSpec(200, ((120, AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)),),
                          LatticeParams(omega=1.0, t=2.0))
        wp = WavepacketSpec(k0=3.0, sigma=4.0, x0=60, tmax=1.0)
        _, outside = cli.packet_transmission(chain, wp)
        assert 0.05 < outside < 0.5


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


class TestParser:
    def test_built_once_and_sets_do_not_leak_between_calls(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        runs = (("five", sets("k_count=5", "k_min=0.5")), ("seven", sets("k_count=7")),
                ("plain", []))
        for name, extra in runs:
            assert main(["spectrum", "--config", "fig3a", *extra,
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        counts = {name: len(read_csv(tmp_path / f"{name}.csv")[1]) for name, _ in runs}
        assert counts == {"five": 5, "seven": 7, "plain": 2000}
        k_min = float(load_config("fig3a")["k_min"])
        header, rows = read_csv(tmp_path / "seven.csv")
        assert column(header, rows, "k")[0] == k_min
        params = json.loads((tmp_path / "plain.csv.meta.json").read_text())["parameters"]
        assert params["k_count"] == 2000 and params["k_min"] == k_min
