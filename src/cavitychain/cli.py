"""Command line front end: parse flat key=value configs, dispatch, serialize.

Subcommands: spectrum, map2d, quasibound, wavepacket, oracle-check, modes.
Every command writes CSV with a mandatory header, LF newlines and floats at
17 significant digits (binary64 round-trips bit-exactly), plus a
``<out>.meta.json`` sidecar carrying the parameters, engine, tolerances,
tool version, git hash and timestamp.  Identical configs produce identical
CSV bytes; only the sidecar timestamp varies between runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import subprocess
import sys
import time
from importlib.resources import files as resource_files
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CavityChainError, ConfigError
from .model import SINGULAR_TOL, AtomParams, LatticeParams
from .oracle import (
    DRIFT_TOL,
    ChainSpec,
    WavepacketSpec,
    design_scattering_run,
    design_wavepacket,
    eigenmodes,
    propagate_wavepacket,
    solve_stationary,
    write_state_csv,
)
from .quasibound import bound_profile, find_quasibound_modes
from .scattering import TwoNodeConfig, single_node_scatter, two_node_scatter
from .sweep import (
    ORACLE_GATE,
    AxisSpec,
    SweepSpec,
    compare_engines,
    run_sweep,
    spectrum_rows,
)

_FLOAT_KEYS = {
    "t", "omega", "kappa",
    "omega_e", "delta", "omega_a", "omega_C", "Omega", "g", "Gamma", "gamma",
    "omega_e2", "delta2", "omega_a2", "omega_C2", "Omega2", "g2", "Gamma2", "gamma2",
    "k", "k_min", "k_max",
    "axis1_min", "axis1_max", "axis2_min", "axis2_max",
    "k0", "sigma", "tmax", "absorber_strength",
    "window_re_min", "window_re_max", "window_im_min", "window_im_max",
    "threshold", "singular_tol", "drift_tol",
}
_INT_KEYS = {
    "D", "k_count", "axis1_count", "axis2_count",
    "N", "site", "x0", "absorber_width",
    "profile_n", "mode_index",
    "draws", "seed", "workers",
}
_STR_KEYS = {"axis1", "axis2", "quantity", "engine", "limit", "negative_control"}
_BOOL_KEYS = {"wavepacket_check"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key=value`` lines; '#' starts a comment; blank lines ignored."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.partition("#")[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        raw[key.strip()] = value.strip()
    return raw


def load_config(name_or_path: str) -> dict[str, str]:
    """Read a config file; bare names fall back to the bundled fixtures."""
    path = Path(name_or_path)
    if path.exists():
        return parse_config_text(path.read_text(encoding="utf-8"))
    bundled = resource_files("cavitychain") / "configs" / f"{name_or_path}.cfg"
    if bundled.is_file():
        return parse_config_text(bundled.read_text(encoding="utf-8"))
    raise ConfigError(f"config {name_or_path!r} is neither a file nor a bundled fixture")


def coerce_config(raw: dict[str, str]) -> dict:
    """Type the raw strings and reject unknown keys."""
    cfg: dict = {}
    for key, value in raw.items():
        if key in _FLOAT_KEYS:
            try:
                cfg[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {value!r} is not a number") from exc
        elif key in _INT_KEYS:
            try:
                cfg[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {value!r} is not an integer") from exc
        elif key in _STR_KEYS:
            cfg[key] = value
        elif key in _BOOL_KEYS:
            if value.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"key {key!r}: {value!r} is not a boolean")
            cfg[key] = value.lower() in ("true", "1")
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    return cfg


def _reduce_delta(cfg: dict, suffix: str) -> float:
    """Detuning from either ``delta`` or the pair (omega_a, omega_C)."""
    d_key, a_key, c_key = f"delta{suffix}", f"omega_a{suffix}", f"omega_C{suffix}"
    has_pair = a_key in cfg or c_key in cfg
    if d_key in cfg and has_pair:
        raise ConfigError(f"give either {d_key} or the ({a_key}, {c_key}) pair, not both")
    if has_pair:
        return cfg.get(a_key, 0.0) - cfg.get(c_key, 0.0)
    return cfg.get(d_key, 0.0)


def _build_atom(cfg: dict, suffix: str = "") -> AtomParams:
    try:
        return AtomParams(
            omega_e=cfg.get(f"omega_e{suffix}", 0.0),
            delta=_reduce_delta(cfg, suffix),
            Omega=abs(cfg.get(f"Omega{suffix}", 0.0)),
            g=cfg.get(f"g{suffix}", 1.0),
            Gamma=cfg.get(f"Gamma{suffix}", 0.0),
            gamma=cfg.get(f"gamma{suffix}", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid node{suffix or ' 1'} parameters: {exc}") from exc


def _build_lattice(cfg: dict) -> LatticeParams:
    try:
        return LatticeParams(omega=cfg.get("omega", 0.0), t=cfg["t"])
    except KeyError as exc:
        raise ConfigError("missing required key 't'") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid lattice parameters: {exc}") from exc


def _has_second_node(cfg: dict) -> bool:
    if "D" in cfg:
        return True
    return any(k.endswith("2") and k in _FLOAT_KEYS for k in cfg)


def _validate(cfg: dict) -> None:
    """Construct every referenced domain object so invariants fire early."""
    if "t" in cfg:
        _build_lattice(cfg)
    _build_atom(cfg)
    if _has_second_node(cfg):
        _build_atom(cfg, "2")
        if cfg.get("D", 1) < 1:
            raise ConfigError(f"node separation D must be >= 1, got {cfg.get('D')}")
    for key in ("k", "k0", "k_min", "k_max"):
        if key in cfg and not 0.0 < cfg[key] < math.pi:
            raise ConfigError(f"{key} must lie in the open interval (0, pi)")


def _has_first_node(cfg: dict) -> bool:
    keys = ("omega_e", "delta", "omega_a", "omega_C", "Omega", "Gamma", "gamma")
    return any(key in cfg for key in keys) or "g" in cfg


def _flat_params(cfg: dict) -> dict:
    """Validated flat parameter dict consumed by the sweep engine."""
    lat = _build_lattice(cfg)
    params = {"t": lat.t, "omega": lat.omega}
    if _has_first_node(cfg):
        suffixes = ("", "2") if _has_second_node(cfg) else ("",)
        for suffix in suffixes:
            atom = _build_atom(cfg, suffix)
            for key in ("omega_e", "delta", "Omega", "g", "Gamma", "gamma"):
                params[f"{key}{suffix}"] = getattr(atom, key)
        if len(suffixes) == 2:
            params["D"] = int(cfg.get("D", 1))
    if "k" in cfg:
        params["k"] = cfg["k"]
    return params


@functools.cache
def _git_hash() -> str:
    """HEAD of this package's own source checkout, looked up once per process.

    'unknown' unless git's work tree is the one whose ``src/cavitychain`` is
    this package, so an installed copy never reports an unrelated repository.
    """
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False, cwd=here,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.splitlines()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() / "src" / here.name != here:
        return "unknown"
    return lines[1]


def _write_sidecar(out: Path, cfg: dict, engine: str, extra: dict | None = None) -> None:
    derived = {}
    for suffix in ("", "2"):
        if f"omega_a{suffix}" in cfg or f"omega_C{suffix}" in cfg:
            derived[f"delta{suffix}"] = _reduce_delta(cfg, suffix)
    payload = {
        "parameters": {k: cfg[k] for k in sorted(cfg)},
        "derived": derived,
        "engine": engine,
        "tolerances": {
            "singular_tol": cfg.get("singular_tol", SINGULAR_TOL),
            "oracle_gate": cfg.get("threshold", ORACLE_GATE),
            "drift_tol": cfg.get("drift_tol", DRIFT_TOL),
        },
        "tool_version": __version__,
        "git_hash": _git_hash(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        payload.update(extra)
    sidecar = out.with_name(out.name + ".meta.json")
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(out: Path, header: list[str], rows: list[list]) -> None:
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [_fmt(c) if isinstance(c, float) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")


def cmd_spectrum(cfg: dict, out: Path, engine: str) -> int:
    params = _flat_params(cfg)
    k_min = cfg.get("k_min", 0.01)
    k_max = cfg.get("k_max", math.pi - 0.01)
    count = cfg.get("k_count", 2000)
    if not k_min < k_max:
        raise ConfigError("k_min must be below k_max")
    k_values = np.linspace(k_min, k_max, count)
    run_engine = "analytic" if engine == "both" else engine
    rows = spectrum_rows(k_values, params, run_engine, cfg.get("limit"))
    table = [
        [
            row["k"], row["eps_k"],
            row["r"].real, row["r"].imag,
            row["s"].real, row["s"].imag,
            row["R"], row["T"], row["xi"],
            row["singular_flag"],
        ]
        for row in rows
    ]
    _write_csv(
        out,
        ["k", "eps_k", "Re_r", "Im_r", "Re_s", "Im_s", "R", "T", "xi", "singular_flag"],
        table,
    )
    extra = None
    if engine == "both":
        oracle_rows = spectrum_rows(k_values, params, "oracle", cfg.get("limit"))
        dev = max(
            max(abs(a["r"] - b["r"]), abs(a["s"] - b["s"]))
            for a, b in zip(rows, oracle_rows)
        )
        extra = {"max_engine_deviation": dev}
    _write_sidecar(out, cfg, engine, extra)
    return 0


def _map_axes(cfg: dict) -> tuple[AxisSpec, ...]:
    axes = []
    for slot in ("axis1", "axis2"):
        if slot not in cfg:
            continue
        name = cfg[slot]
        try:
            axes.append(
                AxisSpec(
                    name=name,
                    start=cfg[f"{slot}_min"],
                    stop=cfg[f"{slot}_max"],
                    count=cfg.get(f"{slot}_count", 100),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"missing {slot} bounds for axis {name!r}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if not axes:
        raise ConfigError("map2d needs at least axis1")
    return tuple(axes)


def cmd_map2d(cfg: dict, out: Path, engine: str, workers: int) -> int:
    params = _flat_params(cfg)
    if "omega_a" in cfg:
        params["omega_a"] = cfg["omega_a"]
    axes = _map_axes(cfg)
    for axis in axes:
        params.pop(axis.name, None)
        if axis.name == "omega_C":
            params.pop("delta", None)
    run_engine = "analytic" if engine == "both" else engine
    try:
        spec = SweepSpec(
            axes=axes,
            fixed=params,
            quantity=cfg.get("quantity", "R"),
            engine=run_engine,
            workers=workers,
            limit=cfg.get("limit"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = run_sweep(spec)
    header = [a.name for a in axes] + [spec.quantity, "singular_flag"]
    rows = []
    if len(axes) == 1:
        for i, v in enumerate(result.axis_values[0]):
            rows.append([float(v), float(result.values[i]), int(result.mask[i])])
    else:
        for i, v1 in enumerate(result.axis_values[0]):
            for j, v2 in enumerate(result.axis_values[1]):
                rows.append(
                    [float(v1), float(v2), float(result.values[i, j]), int(result.mask[i, j])]
                )
    _write_csv(out, header, rows)
    extra = None
    if engine == "both":
        comparison = compare_engines(spec)
        extra = {"max_engine_deviation": comparison.max_deviation}
    _write_sidecar(out, cfg, engine, extra)
    return 0


def cmd_quasibound(cfg: dict, out: Path) -> int:
    lat = _build_lattice(cfg)
    if "D" not in cfg:
        raise ConfigError("quasibound needs the node separation D")
    node_cfg = TwoNodeConfig(_build_atom(cfg), _build_atom(cfg, "2"), cfg["D"])
    modes, diagnostics = find_quasibound_modes(
        node_cfg,
        lat,
        re_window=(cfg.get("window_re_min", 0.0), cfg.get("window_re_max", math.pi)),
        im_window=(cfg.get("window_im_min", -0.5), cfg.get("window_im_max", 0.05)),
        return_diagnostics=True,
    )
    rows = [
        [
            m.n if m.n is not None else "",
            m.k.real, m.k.imag,
            m.E.real, m.E.imag,
            m.leakage, m.residual,
        ]
        for m in modes
    ]
    _write_csv(out, ["n", "Re_k", "Im_k", "Re_E", "Im_E", "leakage", "residual"], rows)
    if "profile_n" in cfg:
        profile = bound_profile(cfg["D"], cfg["profile_n"])
        prows = [[j, float(u), 0.0] for j, u in enumerate(profile)]
        _write_csv(out.with_name(out.stem + ".profile.csv"), ["j", "Re_u", "Im_u"], prows)
    _write_sidecar(out, cfg, "analytic", {"mode_diagnostics": diagnostics})
    return 0


def _build_chain(cfg: dict) -> ChainSpec:
    n = cfg.get("N", 400)
    site = cfg.get("site", n // 2)
    atoms: list[tuple[int, AtomParams]] = [(site, _build_atom(cfg))]
    if _has_second_node(cfg):
        atoms.append((site + cfg.get("D", 1), _build_atom(cfg, "2")))
    try:
        return ChainSpec(n, tuple(atoms), _build_lattice(cfg), kappa=cfg.get("kappa", 0.0))
    except CavityChainError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_wavepacket(cfg: dict, out: Path) -> int:
    spec = _build_chain(cfg)
    if "k0" not in cfg or "sigma" not in cfg:
        raise ConfigError("wavepacket needs k0 and sigma")
    if "x0" in cfg and "tmax" in cfg:
        wp = WavepacketSpec(
            k0=cfg["k0"], sigma=cfg["sigma"], x0=cfg["x0"], tmax=cfg["tmax"],
            absorber_width=cfg.get("absorber_width", 0),
            absorber_strength=cfg.get("absorber_strength", 0.2),
        )
    else:
        wp = design_wavepacket(spec, cfg["k0"], cfg["sigma"])
    result = propagate_wavepacket(spec, wp)
    rows = [[float(t), float(nrm)] for t, nrm in zip(result.times, result.norm_history)]
    _write_csv(out, ["time", "norm"], rows)
    _write_sidecar(
        out, cfg, "oracle",
        {
            "R_meas": result.R_meas,
            "T_meas": result.T_meas,
            "drift": result.drift,
            "absorbed_left": result.absorbed_left,
            "absorbed_right": result.absorbed_right,
        },
    )
    return 0


def cmd_modes(cfg: dict, out: Path) -> int:
    spec = _build_chain(cfg)
    modes = eigenmodes(spec)
    rows = [
        [i, m.energy.real, m.energy.imag, m.ipr, m.interior_weight]
        for i, m in enumerate(modes)
    ]
    _write_csv(out, ["index", "Re_E", "Im_E", "ipr", "interior_weight"], rows)
    if "mode_index" in cfg:
        idx = cfg["mode_index"]
        if not 0 <= idx < len(modes):
            raise ConfigError(f"mode_index {idx} outside 0..{len(modes) - 1}")
        write_state_csv(out.with_name(out.stem + ".vector.csv"), spec, modes[idx].vector)
    _write_sidecar(out, cfg, "oracle")
    return 0


def _agreement_draw(rng: np.random.Generator, with_decay: bool) -> tuple[dict, float]:
    """One random scattering configuration for the oracle gate."""
    flavor = rng.integers(0, 3)
    params = {
        "t": rng.uniform(0.5, 4.0),
        "omega": rng.uniform(-2.0, 2.0),
        "omega_e": rng.uniform(-3.0, 3.0),
        "delta": rng.uniform(-3.0, 3.0),
        "Omega": rng.uniform(0.0, 3.0) if flavor != 1 else 0.0,
        "g": rng.uniform(0.6, 1.5),
    }
    if with_decay:
        params["Gamma"] = rng.uniform(0.0, 0.2)
        params["gamma"] = rng.uniform(0.0, 0.2)
    if flavor == 2:
        params.update(
            {
                "omega_e2": rng.uniform(-3.0, 3.0),
                "delta2": rng.uniform(-3.0, 3.0),
                "Omega2": rng.uniform(0.0, 3.0) if rng.integers(0, 2) else 0.0,
                "g2": rng.uniform(0.6, 1.5),
                "D": int(rng.integers(1, 9)),
            }
        )
        if with_decay:
            params["Gamma2"] = rng.uniform(0.0, 0.2)
            params["gamma2"] = rng.uniform(0.0, 0.2)
    k = rng.uniform(0.05, math.pi - 0.05)
    return params, k


def _scatter_pair(params: dict, k: float, lat: LatticeParams):
    if "D" in params:
        cfg = TwoNodeConfig(_build_atom(params), _build_atom(params, "2"), params["D"])
        return two_node_scatter(k, cfg, lat)
    return single_node_scatter(k, _build_atom(params), lat)


def cmd_oracle_check(cfg: dict, out: Path | None) -> int:
    """Regression gate: analytic engine against the lattice solver.

    Exit status 0 when every deviation stays below the threshold, 1
    otherwise.  ``negative_control=r-sign`` flips the analytic reflection
    amplitude inside the comparison so the gate must fire; it exists to
    prove the check can fail.
    """
    rng = np.random.default_rng(cfg.get("seed", 20240901))
    draws = cfg.get("draws", 60)
    threshold = cfg.get("threshold", ORACLE_GATE)
    corrupt = cfg.get("negative_control", "") == "r-sign"
    from .sweep import _oracle_chain  # static chain layout shared with sweeps

    failures: list[str] = []
    worst: list[tuple[float, str]] = []
    for i in range(draws):
        with_decay = i % 3 == 2
        params, k = _agreement_draw(rng, with_decay)
        lat = LatticeParams(omega=params["omega"], t=params["t"])
        res = _scatter_pair(params, k, lat)
        r_a = -res.r if corrupt else res.r
        spec = _oracle_chain(params, lat)
        r_o, s_o = solve_stationary(spec, k)
        dev = max(abs(r_a - r_o), abs(res.s - s_o))
        label = f"draw {i} ({'decay' if with_decay else 'elastic'}, k={k:.4f})"
        worst.append((dev, label))
        if dev > threshold:
            failures.append(f"{label}: deviation {dev:.3e} > {threshold:.1e}")
        if not with_decay and abs(res.R + res.T - 1.0) > 1e-10:
            failures.append(f"{label}: flux violation {abs(res.R + res.T - 1.0):.3e}")

    wavepacket_line = "wavepacket check: skipped"
    if cfg.get("wavepacket_check", True):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
        lat = LatticeParams(omega=1.0, t=2.0)
        k0 = 2.2
        chain, wp = design_scattering_run((atom,), lat, k0, 20.0)
        result = propagate_wavepacket(chain, wp)
        expected = single_node_scatter(k0, atom, lat)
        dev_T = abs(result.T_meas - expected.T)
        wavepacket_line = (
            f"wavepacket check: |T_meas - T| = {dev_T:.4f} (budget 0.02), "
            f"drift {result.drift:.2e}"
        )
        if dev_T > 0.02:
            failures.append(f"wavepacket transmission deviation {dev_T:.4f} > 0.02")
        if result.drift > cfg.get("drift_tol", DRIFT_TOL):
            failures.append(f"wavepacket norm drift {result.drift:.3e}")

    worst.sort(key=lambda item: -item[0])
    lines = [
        f"oracle-check: {draws} draws against the lattice solver, threshold {threshold:.1e}",
        *(f"  worst offender: {label} deviation {dev:.3e}" for dev, label in worst[:5]),
        wavepacket_line,
    ]
    if failures:
        lines.append(f"FAIL: {len(failures)} violation(s)")
        lines.extend(f"  {f}" for f in failures)
    else:
        lines.append("PASS: all deviations below threshold")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if out is not None:
        out.write_text(report, encoding="utf-8")
        _write_sidecar(out, cfg, "both", {"failures": len(failures)})
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitychain",
        description="Single-photon transport in a coupled cavity array with embedded nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_out in (
        ("spectrum", True),
        ("map2d", True),
        ("quasibound", True),
        ("wavepacket", True),
        ("modes", True),
        ("oracle-check", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file path or bundled fixture name")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        p.add_argument("--out", required=needs_out, help="output CSV path")
        p.add_argument("--engine", choices=("analytic", "oracle", "both"))
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--log-level", default="WARNING", help="stderr log level",
                       choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    raw = load_config(args.config) if args.config else {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        raw[key.strip()] = value.strip()
    cfg = coerce_config(raw)
    _validate(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger(__package__).setLevel(args.log_level)
    try:
        cfg = _merge_config(args)
        engine = args.engine or cfg.get("engine", "analytic")
        if engine not in ("analytic", "oracle", "both"):
            raise ConfigError(f"engine must be analytic, oracle or both, got {engine!r}")
        workers = args.workers if args.workers is not None else cfg.get("workers", 1)
        out = Path(args.out) if args.out else None
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out, engine)
        if args.command == "map2d":
            return cmd_map2d(cfg, out, engine, workers)
        if args.command == "quasibound":
            return cmd_quasibound(cfg, out)
        if args.command == "wavepacket":
            return cmd_wavepacket(cfg, out)
        if args.command == "modes":
            return cmd_modes(cfg, out)
        return cmd_oracle_check(cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CavityChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
