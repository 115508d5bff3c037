"""Command line front end: parse flat key=value configs, dispatch, serialize.

Subcommands: spectrum, map2d, quasibound, wavepacket, oracle-check, modes.
``_COMMAND_KEYS`` lists the config keys each one reads; it rejects any other.
Every command writes CSV with a mandatory header, LF newlines and floats at
17 significant digits (binary64 round-trips bit-exactly), plus a
``<out>.meta.json`` sidecar carrying the parameters, engine, tolerances,
tool version, git hash, timestamp and the bytes written to each file.
Identical configs produce identical CSV bytes; only the sidecar timestamp
varies between runs.  Commands only compute; ``main`` writes what they
return in one place, auxiliary files first, then the main file, then the
sidecar, so a failure leaves every file after it as it was.  Every output
goes through ``_open_output``: an existing file is overwritten in place
and cut to length, and a write interrupted partway leaves only the new
bytes written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import stat
import subprocess
import sys
import time
from importlib.resources import files as resource_files
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from . import __version__
from .errors import CavityChainError, ConfigError, InsufficientChainError, LimitWindowError
from .model import SINGULAR_TOL, AtomParams, LatticeParams
from .oracle import (
    DRIFT_TOL,
    RESIDUAL_TOL,
    ChainSpec,
    WavepacketSpec,
    _gaussian_packet,
    check_packet_layout,
    design_scattering_run,
    design_wavepacket,
    eigenmodes,
    propagate_wavepacket,
)
from .quasibound import (
    DEFAULT_IM_WINDOW,
    DEFAULT_RE_WINDOW,
    bound_profile,
    find_quasibound_modes,
)
from .scattering import TwoNodeConfig, chain_scatter
from .sweep import (
    _NODE_KEYS,
    ORACLE_GATE,
    QUANTITIES,
    AxisSpec,
    Scenario,
    amplitudes,
    build_scenario,
    grid_amplitudes,
    quantity_value,
    reduce_delta,
)

_log = logging.getLogger(f"{__package__}.cli")  # not __main__ under python -m

#: Keys of the lattice and its nodes; every command but ``oracle-check`` reads them.
_CHAIN_KEYS = {"t": float, "omega": float, "D": int,
               **{key + suffix: float for key in _NODE_KEYS for suffix in ("", "2")}}
_LIMITS = ("high", "low")

#: The keys each command reads, each with its type or its tuple of allowed strings.
_COMMAND_KEYS = {
    "spectrum": {**_CHAIN_KEYS, "k_min": float, "k_max": float, "k_count": int,
                 "limit": _LIMITS},
    "map2d": {**_CHAIN_KEYS, "k": float, "quantity": QUANTITIES, "limit": _LIMITS,
              **{f"axis{i}{part}": kind for i in (1, 2) for part, kind
                 in (("", str), ("_min", float), ("_max", float), ("_count", int))}},
    "quasibound": {**_CHAIN_KEYS, "profile_n": int,
                   **{f"window_{part}_{end}": float for part in ("re", "im")
                      for end in ("min", "max")}},
    "wavepacket": {**_CHAIN_KEYS, "kappa": float, "N": int, "site": int, "k0": float,
                   "sigma": float, "x0": int, "tmax": float, "absorber_width": int,
                   "absorber_strength": float},
    "modes": {**_CHAIN_KEYS, "kappa": float, "N": int, "site": int, "mode_index": int},
    "oracle-check": {"draws": int, "seed": int, "negative_control": ("r-sign",),
                     "wavepacket_check": bool},
}


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


def coerce_config(raw: dict[str, str], command: str) -> dict:
    """Type the raw strings, reject keys ``command`` does not read, check momenta in (0, pi)."""
    keys = _COMMAND_KEYS[command]
    cfg: dict = {}
    for key, value in raw.items():
        kind = keys.get(key)
        if kind is None:
            if any(key in other for other in _COMMAND_KEYS.values()):
                raise ConfigError(f"{command} does not read the configuration key {key!r}")
            raise ConfigError(f"unknown configuration key {key!r}")
        if isinstance(kind, tuple):
            if value not in kind:
                raise ConfigError(f"key {key!r}: {value!r} is not one of {kind}")
            cfg[key] = value
        elif kind is bool:
            if value.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"key {key!r}: {value!r} is not a boolean")
            cfg[key] = value.lower() in ("true", "1")
        else:
            try:
                cfg[key] = kind(value)
            except ValueError as exc:
                noun = "an integer" if kind is int else "a number"
                raise ConfigError(f"key {key!r}: {value!r} is not {noun}") from exc
    for key in ("k", "k0", "k_min", "k_max"):
        if key in cfg and not 0.0 < cfg[key] < math.pi:
            raise ConfigError(f"{key} must lie in the open interval (0, pi)")
    return cfg


def _scenario(cfg: dict) -> Scenario:
    try:
        return build_scenario(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


@contextlib.contextmanager
def _open_output(out: Path) -> Iterator[BinaryIO]:
    """``out`` opened for writing from its start; cut at the last byte written.

    An existing regular file is overwritten in place, not truncated on open
    (on a filesystem that discards freed blocks, truncating a 350 KB CSV
    costs about ten times overwriting it), and cut at its current position
    when the writes end or raise, so it holds exactly the new bytes written
    so far, as after a ``"wb"`` open.  Any other path, a missing one or a
    FIFO, opens as ``"wb"`` opens it.
    """
    with open(out, "wb", opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666)) as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()


def _write_sidecar(out: Path, cfg: dict, engine: str, extra: dict) -> None:
    swept = {cfg.get("axis1"), cfg.get("axis2")}  # a swept detuning has no one derived value
    derived = {}
    for suffix in ("", "2"):
        given = f"omega_a{suffix}" in cfg or f"omega_C{suffix}" in cfg
        if given and not swept & {f"delta{suffix}", f"omega_C{suffix}"}:
            derived[f"delta{suffix}"] = reduce_delta(cfg, suffix)
    payload = {
        "parameters": {k: cfg[k] for k in sorted(cfg)},
        "derived": derived,
        "engine": engine,
        "tolerances": {
            "singular_tol": SINGULAR_TOL,
            "oracle_gate": ORACLE_GATE,
            "drift_tol": DRIFT_TOL,
            "oracle_residual_tol": RESIDUAL_TOL,
        },
        "tool_version": __version__,
        "git_hash": _git_hash(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **extra,
    }
    with _open_output(out.with_name(out.name + ".meta.json")) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


#: Rows per write of ``_write_csv``.
_CSV_BLOCK = 4096


def _write_csv(out: Path, header: list[str], columns: list) -> int:
    """Equal-length columns as rows: numbers as ``"%.17g" % v``, text as ``"%s" % v``.

    A column is an array or a pair ``(values, index)``, ``values[index]``.
    ``csvtext.write_csv`` checks them, opens the file with ``_open_output``
    and writes them ``_CSV_BLOCK`` rows at a time.  It is imported on the first CSV:
    compiled apart from cli, it adds nothing to start-up time or to the peak
    memory of compiling cli.  Returns the bytes written.
    """
    from .csvtext import write_csv

    rows, kernel, python, size = write_csv(out, header, columns, _CSV_BLOCK, _open_output)
    _log.debug("%s: %d rows, %d fields formatted by the kernel, %d numbers by Python's %%.17g",
               out.name, rows, kernel, python)
    return size


def _write_outputs(out: str | None, cfg: dict, files: list, engine: str, extra: dict,
                   status: int) -> int:
    """Write a command's auxiliary files, then its main file, then its sidecar; return ``status``.

    A file ``(suffix, header, columns)`` goes to ``out`` if its suffix is ""
    (the main file) and to ``out``'s stem plus its suffix if not; a header of
    None marks columns that are the file's bytes.  The sidecar's ``files``
    maps each suffix (``out``'s own for ``out``) to the bytes written.  No
    ``out``, no files.
    """
    if out is None:
        return status
    out, written = Path(out), {}
    for suffix, header, data in sorted(files, key=lambda file: file[0] == ""):
        path = out.with_name(out.stem + suffix) if suffix else out
        if header is None:
            with _open_output(path) as fh:
                size = fh.write(data)
        else:
            size = _write_csv(path, header, data)
        written[suffix or out.suffix] = size
    _write_sidecar(out, cfg, engine, {**extra, "files": written})
    return status


def _grid_axes(command: str, cfg: dict, engine: str) -> tuple[AxisSpec, ...]:
    """Axes of a spectrum (one k axis) or a map, once the whole config is checked.

    Checks up front what the computation would otherwise reject halfway, so
    every error raised while computing is a real one.
    """
    if command == "spectrum":
        bounds = [("k", cfg.get("k_min", 0.01), cfg.get("k_max", math.pi - 0.01),
                   cfg.get("k_count", 2000))]
    else:
        bounds = []
        for slot in ("axis1", "axis2"):
            if slot in cfg:
                if f"{slot}_min" not in cfg or f"{slot}_max" not in cfg:
                    raise ConfigError(f"missing {slot} bounds for axis {cfg[slot]!r}")
                bounds.append((cfg[slot], cfg[f"{slot}_min"], cfg[f"{slot}_max"],
                               cfg.get(f"{slot}_count", 100)))
        if not bounds:
            raise ConfigError("map2d needs at least axis1")
    try:
        axes = tuple(AxisSpec(*b) for b in bounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scenario = _scenario(cfg)
    names = [a.name for a in axes]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate axis names {names}")
    if "k" not in names and "k" not in cfg:
        raise ConfigError("no momentum: give k or a k axis")
    if "limit" in cfg and engine != "analytic":
        raise ConfigError("a limit lineshape has no lattice-oracle counterpart; "
                          "use --engine analytic")
    if "limit" in cfg and (len(scenario.nodes) > 1 or "D" in names):
        raise ConfigError("a limit lineshape takes one node; drop D and the keys of node 2")
    return axes


def cmd_grid(command: str, cfg: dict, engine: str) -> tuple:
    """``spectrum`` or ``map2d``: the amplitudes on the checked axes, in that command's columns."""
    axes = _grid_axes(command, cfg, engine)
    run_engine = "analytic" if engine == "both" else engine
    r, s, singular = grid_amplitudes(cfg, axes, run_engine, cfg.get("limit"))
    if command == "spectrum":
        k = axes[0].values()
        R, T = np.abs(r) ** 2, np.abs(s) ** 2
        header = ["k", "eps_k", "Re_r", "Im_r", "Re_s", "Im_s", "R", "T", "xi", "singular_flag"]
        columns = [k, cfg.get("omega", 0.0) - 2.0 * cfg["t"] * np.cos(k) - reduce_delta(cfg),
                   r.real, r.imag, s.real, s.imag, R, T, 1.0 - R - T, ([0, 1], singular)]
    else:
        quantity = cfg.get("quantity", "R")
        values = quantity_value(quantity, r, s)
        header = [a.name for a in axes] + [quantity, "singular_flag"]
        columns = [a.values() for a in axes]
        if len(axes) == 2:  # each axis value written once, gathered by its grid index
            columns = list(zip(columns, np.indices(values.shape).reshape(2, -1)))
        columns += [values.ravel(), ([0, 1], singular.ravel())]
    extra = {"flag_counts": {"singular": int(np.count_nonzero(singular))}}
    if engine == "both":
        r_o, s_o, _ = grid_amplitudes(cfg, axes, "oracle", None)
        if command == "spectrum":
            dev = np.maximum(np.abs(r - r_o), np.abs(s - s_o))
        else:
            dev = np.abs(values - quantity_value(quantity, r_o, s_o))
        extra["max_engine_deviation"] = float(dev.max())
    return [("", header, columns)], engine, extra, 0


def cmd_quasibound(cfg: dict) -> tuple:
    if "D" not in cfg:
        raise ConfigError("quasibound needs the node separation D")
    scenario = _scenario(cfg)
    (_, atom1), (_, atom2) = scenario.nodes
    re_window = (cfg.get("window_re_min", DEFAULT_RE_WINDOW[0]),
                 cfg.get("window_re_max", DEFAULT_RE_WINDOW[1]))
    im_window = (cfg.get("window_im_min", DEFAULT_IM_WINDOW[0]),
                 cfg.get("window_im_max", DEFAULT_IM_WINDOW[1]))
    try:
        profile = bound_profile(cfg["D"], cfg["profile_n"]) if "profile_n" in cfg else None
    except ValueError as exc:
        raise ConfigError(f"profile_n: {exc}") from exc
    try:  # an empty window raises before the search
        modes, diagnostics = find_quasibound_modes(
            TwoNodeConfig(atom1, atom2, cfg["D"]), scenario.lat,
            re_window=re_window, im_window=im_window, return_diagnostics=True,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    k, E = np.array([m.k for m in modes], complex), np.array([m.E for m in modes], complex)
    files = [("", ["n", "Re_k", "Im_k", "Re_E", "Im_E", "leakage", "residual"],
              [[str(m.n) if m.n is not None else "" for m in modes], k.real, k.imag,
               E.real, E.imag, [m.leakage for m in modes], [m.residual for m in modes]])]
    if profile is not None:
        files.append((".profile.csv", ["j", "Re_u", "Im_u"],
                      [np.arange(len(profile)), profile, np.zeros(len(profile))]))
    return files, "analytic", {"mode_diagnostics": diagnostics}, 0


def _build_chain(cfg: dict) -> ChainSpec:
    n = cfg.get("N", 400)
    site = cfg.get("site", n // 2)
    scenario = _scenario(cfg)
    atoms = tuple((site + x, atom) for x, atom in scenario.nodes)
    try:
        return ChainSpec(n, atoms, scenario.lat, kappa=cfg.get("kappa", 0.0))
    except (ValueError, CavityChainError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_wavepacket(cfg: dict) -> tuple:
    spec = _build_chain(cfg)
    if "k0" not in cfg or "sigma" not in cfg:
        raise ConfigError("wavepacket needs k0 and sigma")
    placed = ("x0" in cfg) + ("tmax" in cfg)
    if placed == 1:
        raise ConfigError("wavepacket takes x0 and tmax together or neither")
    if not placed and ("absorber_width" in cfg or "absorber_strength" in cfg):
        raise ConfigError("absorbing layers need an explicit x0 and tmax")
    try:
        if placed:
            wp = WavepacketSpec(
                k0=cfg["k0"], sigma=cfg["sigma"], x0=cfg["x0"], tmax=cfg["tmax"],
                absorber_width=cfg.get("absorber_width", 0),
                absorber_strength=cfg.get("absorber_strength", 0.2),
            )
        else:
            wp = design_wavepacket(spec, cfg["k0"], cfg["sigma"])
        check_packet_layout(spec, wp)
    except (ValueError, InsufficientChainError) as exc:
        raise ConfigError(str(exc)) from exc
    extra = dict(vars(propagate_wavepacket(spec, wp)))  # the sidecar takes all but the columns
    columns = [extra.pop("times"), extra.pop("norm_history")]
    return [("", ["time", "norm"], columns)], "oracle", extra, 0


def cmd_modes(cfg: dict) -> tuple:
    spec = _build_chain(cfg)
    idx = cfg.get("mode_index")
    if idx is not None and not 0 <= idx < spec.dimension:
        raise ConfigError(f"mode_index {idx} outside 0..{spec.dimension - 1}")
    modes = eigenmodes(spec)
    energy = np.array([m.energy for m in modes], complex)
    files = [("", ["index", "Re_E", "Im_E", "ipr", "interior_weight"],
              [np.arange(len(modes)), energy.real, energy.imag,
               [m.ipr for m in modes], [m.interior_weight for m in modes]])]
    if idx is not None:
        vector = modes[idx].vector
        files.append((".vector.csv", ["kind", "index", "re", "im"],
                      [["site"] * spec.n_sites + ["excited", "metastable"] * len(spec.sites),
                       np.r_[np.arange(spec.n_sites), np.repeat(spec.sites, 2)],
                       vector.real, vector.imag]))
    return files, "oracle", {}, 0


#: Range of each key of an ``oracle-check`` configuration, momentum k included.
_DRAW_RANGES = {
    "t": (0.5, 4.0), "omega": (-2.0, 2.0), "k": (0.05, math.pi - 0.05),
    **{key + suffix: bounds for suffix in ("", "2") for key, bounds in (
        ("omega_e", (-3.0, 3.0)), ("delta", (-3.0, 3.0)), ("Omega", (0.0, 3.0)),
        ("g", (0.6, 1.5)), ("Gamma", (0.0, 0.2)), ("gamma", (0.0, 0.2)))},
}


def _agreement_draws(rng: np.random.Generator, elastic: np.ndarray) -> tuple[dict, np.ndarray]:
    """One random scattering configuration per entry of ``elastic``, as arrays over the draws.

    Every key comes from one uniform block.  Flavour 1 makes node 1
    two-level (Omega = 0) and flavour 2 adds a second node D = 1..8 sites on,
    its Omega2 zero half the time; elastic draws have no decay.  Returns the
    keys, D and node 2's among them, and the flavour (0, 1 or 2) of each draw.
    """
    lo, hi = np.array(list(_DRAW_RANGES.values())).T
    params = dict(zip(_DRAW_RANGES, (lo + (hi - lo) * rng.random((elastic.size, len(lo)))).T))
    flavor = rng.integers(0, 3, elastic.size)
    params["Omega"][flavor == 1] = 0.0
    params["Omega2"][rng.integers(0, 2, elastic.size) == 0] = 0.0
    params["D"] = rng.integers(1, 9, elastic.size)
    for key in ("Gamma", "gamma", "Gamma2", "gamma2"):
        params[key][elastic] = 0.0
    return params, flavor


#: Largest |T_meas - <T>| the wavepacket check of ``oracle-check`` allows.
WAVEPACKET_GATE = 1e-6

#: Largest share of the packet's |Phi|^2 allowed outside the momenta (0, pi).
OUTSIDE_TOL = 1e-12


def packet_transmission(chain: ChainSpec, wp: WavepacketSpec) -> tuple[float, float]:
    """The packet-averaged transmission <T> and the share of |Phi|^2 outside (0, pi).

    Phi is the FFT of the initial packet zero-padded to L = 2N sites, and
    <T> = sum_b |Phi_b|^2 T(k_b) / sum_b |Phi_b|^2 over b = 1..L/2 - 1 with
    k_b = 2 pi b / L, T(k_b) from one ``chain_scatter`` call on the chain's
    nodes.  <T> is what the packet transmits; T(k0) is not.
    """
    L = 2 * chain.n_sites
    weight = np.abs(np.fft.fft(_gaussian_packet(chain, wp), L)) ** 2
    b = np.arange(1, L // 2)
    nodes = tuple((site - chain.origin, atom) for site, atom in chain.placements)
    _, s, _ = chain_scatter(2.0 * np.pi * b / L, nodes, chain.lat)
    inside = weight[b]
    outside = (weight[0] + weight[L // 2 :].sum()) / weight.sum()
    return float(np.sum(inside * np.abs(s) ** 2) / inside.sum()), float(outside)


def cmd_oracle_check(cfg: dict) -> tuple:
    """Regression gate: analytic engine against the lattice solver.

    Exit status 0 when every deviation stays below ORACLE_GATE, 1
    otherwise.  ``negative_control=r-sign`` flips the analytic reflection
    amplitude inside the comparison so the gate must fire; it exists to
    prove the check can fail.  The wavepacket check (``wavepacket_check``,
    on by default) propagates one packet through a fig3a node and holds its
    T_meas within WAVEPACKET_GATE of ``packet_transmission``'s <T>.
    """
    seed, draws = cfg.get("seed", 20240901), cfg.get("draws", 60)
    if draws < 1 or seed < 0:
        raise ConfigError(f"oracle-check needs draws >= 1 and seed >= 0, got {draws} and {seed}")
    elastic = np.arange(draws) % 3 != 2
    params, flavor = _agreement_draws(np.random.default_rng(seed), elastic)
    r_a, s_a, r_o, s_o = (np.empty(draws, complex) for _ in range(4))
    for two_nodes in (False, True):  # one stack of draws per node count
        group = np.flatnonzero((flavor == 2) == two_nodes)
        if group.size:
            stack = {key: value[group] for key, value in params.items()
                     if two_nodes or not (key == "D" or key.endswith("2"))}
            r_a[group], s_a[group], _ = amplitudes(stack, "analytic", None)
            r_o[group], s_o[group], _ = amplitudes(stack, "oracle", None)
    if "negative_control" in cfg:
        r_a = -r_a
    dev = np.maximum(abs(r_a - r_o), abs(s_a - s_o))
    flux_error = abs(abs(r_a) ** 2 + abs(s_a) ** 2 - 1.0)
    off, leaky = ~(dev <= ORACLE_GATE), elastic & ~(flux_error <= 1e-10)

    def label(i: int) -> str:
        return f"draw {i} ({'elastic' if elastic[i] else 'decay'}, k={params['k'][i]:.4f})"

    failures: list[str] = []
    for i in np.flatnonzero(off | leaky):
        if off[i]:
            failures.append(f"{label(i)}: deviation {dev[i]:.3e} > {ORACLE_GATE:.1e}")
        if leaky[i]:
            failures.append(f"{label(i)}: flux violation {flux_error[i]:.3e}")

    wavepacket_line = "wavepacket check: skipped"
    if cfg.get("wavepacket_check", True):
        atom = AtomParams(omega_e=1.0, delta=0.0, Omega=1.0)
        lat = LatticeParams(omega=1.0, t=2.0)
        chain, wp = design_scattering_run((atom,), lat, 2.2, 20.0)
        result = propagate_wavepacket(chain, wp)
        T_avg, outside = packet_transmission(chain, wp)
        dev_T = abs(result.T_meas - T_avg)
        wavepacket_line = (
            f"wavepacket check: |T_meas - <T>| = {dev_T:.2e} (budget {WAVEPACKET_GATE:.0e}), "
            f"drift {result.drift:.2e}"
        )
        if not outside <= OUTSIDE_TOL:
            failures.append(f"wavepacket momenta: {outside:.2e} of |Phi|^2 outside (0, pi) "
                            f"> {OUTSIDE_TOL:.0e}")
        if not dev_T <= WAVEPACKET_GATE:
            failures.append(f"wavepacket transmission deviation {dev_T:.2e} > {WAVEPACKET_GATE:.0e}")
        if result.drift > DRIFT_TOL:
            failures.append(f"wavepacket norm drift {result.drift:.3e}")

    lines = [
        f"oracle-check: {draws} draws against the lattice solver, threshold {ORACLE_GATE:.1e}",
        *(f"  worst offender: {label(i)} deviation {dev[i]:.3e}"
          for i in np.argsort(-dev, kind="stable")[:5]),
        wavepacket_line,
    ]
    if failures:
        lines.append(f"FAIL: {len(failures)} violation(s)")
        lines.extend(f"  {f}" for f in failures)
    else:
        lines.append("PASS: all deviations below threshold")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    return ([("", None, report.encode())], "both", {"failures": len(failures)},
            1 if failures else 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cavitychain",
        description="Single-photon transport in a coupled cavity array with embedded nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_out, engines in (
        ("spectrum", True, ("analytic", "oracle", "both")),
        ("map2d", True, ("analytic", "oracle", "both")),
        ("quasibound", True, ()),
        ("wavepacket", True, ()),
        ("modes", True, ()),
        ("oracle-check", False, ("both",)),  # always compares both engines
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file path or bundled fixture name")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        p.add_argument("--out", required=needs_out, help="output CSV path")
        if engines:
            p.add_argument("--engine", choices=engines, default=engines[0])
        p.add_argument("--workers", type=int, default=None,
                       help="accepted and ignored: sweeps run as one vectorised kernel call")
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
    return coerce_config(raw, args.command)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger(__package__).setLevel(args.log_level)
    try:
        cfg = _merge_config(args)
        if args.command in ("spectrum", "map2d"):
            run = cmd_grid(args.command, cfg, args.engine)
        else:  # looked up on each call, so a rebound cli.cmd_* is the one that runs
            run = {"quasibound": cmd_quasibound, "wavepacket": cmd_wavepacket,
                   "modes": cmd_modes, "oracle-check": cmd_oracle_check}[args.command](cfg)
    except (ConfigError, LimitWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CavityChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _write_outputs(args.out, cfg, *run)


if __name__ == "__main__":
    sys.exit(main())
