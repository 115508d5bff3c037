"""The four benchmark workloads.

Each workload builds its inputs from a seed, runs one *pass* of operations
through the package's public entry points, and checks every output against
the benchmark's own physics in :mod:`physics`.  A pass returns one record per
operation; records are plain data, so two passes can be compared for exact
equality and a verified pass stands for every later pass with the same
records.

The package is reached through module attributes at call time (for example
``oracle.solve_stationary``), so the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np

import physics as ph

# Imported by ``run.py`` once ``src`` is on the path.
from cavitychain import cli, model, oracle, quasibound

#: Agreement the package's closed forms must show with the benchmark's own.
CLOSED_FORM_TOL = 1e-9

#: Agreement the lattice solver must show with the closed forms.
ORACLE_TOL = 1e-8


class Failure(Exception):
    """An output failed its check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Failure(message)


# --- configs ---------------------------------------------------------------

def read_fixture(src: Path, name: str) -> dict:
    """Parse a bundled ``key = value`` fixture with the benchmark's own reader."""
    params: dict = {}
    for line in (src / "cavitychain" / "configs" / f"{name}.cfg").read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, value = (part.strip() for part in body.split("=", 1))
            params[key] = value
    return params


def _num(params: dict, key: str, default: float = 0.0):
    value = params.get(key, default)
    return value if isinstance(value, np.ndarray) else float(value)


def _node(params: dict, suffix: str = "") -> dict:
    if f"omega_a{suffix}" in params or f"omega_C{suffix}" in params:
        delta = _num(params, f"omega_a{suffix}") - _num(params, f"omega_C{suffix}")
    else:
        delta = _num(params, f"delta{suffix}")
    return ph.node(
        omega_e=_num(params, f"omega_e{suffix}"), delta=delta,
        Omega=_num(params, f"Omega{suffix}"), g=_num(params, f"g{suffix}", 1.0),
        Gamma=_num(params, f"Gamma{suffix}"), gamma=_num(params, f"gamma{suffix}"),
    )


def _decay_free(params: dict) -> bool:
    return all(_num(params, key) == 0.0 for key in ("Gamma", "gamma", "Gamma2", "gamma2"))


def _two_nodes(params: dict) -> bool:
    return "D" in params or any(
        key.endswith("2") and not key.startswith("axis") for key in params)


def expected_amplitudes(params: dict, k, point: dict | None = None):
    """(r, s, singular) from the benchmark's closed forms at momenta ``k``.

    ``point`` overrides parameters per grid point (map axes), as arrays.
    """
    p = dict(params)
    p.update(point or {})
    t, omega = _num(p, "t"), _num(p, "omega")
    n1 = _node(p)
    if "limit" in p:
        return ph.limit_lineshape(k, p["limit"], t, omega, n1)
    if _two_nodes(p):
        return ph.two_nodes(k, t, omega, n1, _node(p, "2"), np.rint(_num(p, "D")))
    return ph.one_node(k, t, omega, n1)


def check_spectrum(params: dict, table: np.ndarray) -> None:
    """Every row of a ``spectrum`` CSV against the closed forms."""
    k, eps, r_re, r_im, s_re, s_im, R, T, xi, flag = table.T
    count = int(params.get("k_count", 2000))
    grid = np.linspace(_num(params, "k_min", 0.01), _num(params, "k_max", math.pi - 0.01), count)
    _require(len(k) == count and np.allclose(k, grid, rtol=0, atol=1e-15),
             "spectrum k column is not the configured grid")
    r, s = r_re + 1j * r_im, s_re + 1j * s_im
    r_ref, s_ref, singular = expected_amplitudes(params, k)
    flagged = flag == 1
    _require(np.all((flag == 0) | flagged), "spectrum flag outside {0, 1}")
    _require(np.all(singular[flagged]), "row flagged where no potential denominator vanishes")
    dev = np.maximum(np.abs(r - r_ref), np.abs(s - s_ref))
    _require(np.all(dev <= CLOSED_FORM_TOL),
             f"amplitudes deviate from the closed forms by {np.nanmax(dev):.3e}")
    delta = _node(params)["delta"]
    E = ph.band_energy(k, _num(params, "t"), _num(params, "omega"))
    _require(np.allclose(eps, E - delta, rtol=0, atol=1e-12), "eps_k column is wrong")
    _require(np.allclose(R, np.abs(r) ** 2, rtol=0, atol=1e-12)
             and np.allclose(T, np.abs(s) ** 2, rtol=0, atol=1e-12)
             and np.allclose(xi, 1.0 - R - T, rtol=0, atol=1e-12),
             "R, T or xi column disagrees with the amplitudes")
    if "limit" in params:
        return
    if _decay_free(params):
        _require(np.all(np.abs(R + T - 1.0) <= 1e-10), "R + T != 1 on a decay-free spectrum")
    else:
        _require(np.all((xi > 0) & (xi < 1)), "loss ratio xi outside (0, 1) with decay")


def check_map(params: dict, header: list[str], table: np.ndarray) -> None:
    """Every row of a ``map2d`` CSV against the closed forms."""
    axes = [params[slot] for slot in ("axis1", "axis2") if slot in params]
    quantity = params.get("quantity", "R")
    _require(header == axes + [quantity, "singular_flag"], f"unexpected map header {header}")
    point = {name: table[:, i] for i, name in enumerate(axes)}
    k = point.pop("k", np.full(len(table), _num(params, "k")))
    r, s, singular = expected_amplitudes(params, k, point)
    value, flag = table[:, len(axes)], table[:, len(axes) + 1]
    flagged = flag == 1
    _require(np.all((flag == 0) | flagged), "map flag outside {0, 1}")
    _require(np.all(singular[flagged]), "map point flagged where no potential denominator vanishes")
    expected = {"R": np.abs(r) ** 2, "T": np.abs(s) ** 2}[quantity]
    dev = np.abs(value - expected)
    _require(np.all(dev <= CLOSED_FORM_TOL),
             f"map {quantity} deviates from the closed forms by {np.nanmax(dev):.3e}")


# --- workloads -------------------------------------------------------------

class Workload:
    """Base: a fixed list of operations, run once per pass."""

    name = ""

    def __init__(self, seed: int, src: Path, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.src = src
        self.workdir = workdir
        self.ops: list = []

    def run_pass(self, after_op=None) -> tuple[list, float]:
        """(records, seconds spent in the operations); ``after_op(seconds)``
        runs after each operation, outside the timed part."""
        records, busy = [], 0.0
        for op in self.ops:
            start = time.perf_counter()
            try:
                records.append(self.run_op(op))
            except Exception as exc:  # the op failed; the run goes on and counts it
                records.append({"error": f"{type(exc).__name__}: {exc}"})
            elapsed = time.perf_counter() - start
            busy += elapsed
            if after_op:
                after_op(elapsed)
        return records, busy

    def run_op(self, op):
        raise NotImplementedError

    def check_op(self, op, record) -> None:
        """Raise Failure when the record is wrong."""
        raise NotImplementedError

    def known_fault(self, op, record) -> bool:
        """True when the op fails by the known fault this workload keeps."""
        return False

    def check(self, records: list) -> tuple[int, list[str]]:
        """(failed operations, problems) for one pass."""
        failed, problems = 0, []
        for op, record in zip(self.ops, records):
            if "error" in record or self.known_fault(op, record):
                failed += 1
                continue
            try:
                self.check_op(op, record)
            except Failure as exc:
                problems.append(f"{self.describe(op)}: {exc}")
        return failed, problems

    def negative_controls(self, records: list) -> list[str]:
        """Names of the corrupted records that the checks failed to reject."""
        missed = []
        for label, op, bad in self.corruptions(records):
            try:
                self.check_op(op, bad)
            except Failure:
                continue
            missed.append(label)
        return missed

    def corruptions(self, records: list):
        raise NotImplementedError

    def describe(self, op) -> str:
        return str(op[0]) if isinstance(op, tuple) else str(op)


class _CliWorkload(Workload):
    """Operations that are ``cavitychain`` command lines."""

    def cli_op(self, label: str, command: str, config: str | None, overrides: dict,
               engine: str = "analytic") -> tuple:
        params = read_fixture(self.src, config) if config else {}
        params.update({key: str(value) for key, value in overrides.items()})
        out = self.workdir / f"{len(self.ops):02d}-{label}.csv"
        argv = [command, "--out", str(out), "--engine", engine, "--workers", "1"]
        if config:
            argv += ["--config", config]
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value}"]
        return (label, command, argv, params, out)

    def run_op(self, op) -> dict:
        _, command, argv, _, out = op
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(argv)
        sidecar = json.loads(out.with_name(out.name + ".meta.json").read_text())
        for volatile in ("timestamp", "git_hash"):
            sidecar.pop(volatile, None)
        return {"code": code, "stdout": stdout.getvalue(), "csv": out.read_text(),
                "sidecar": sidecar}

    def check_cli(self, op, record) -> None:
        _, command, _, params, _ = op
        _require(record["code"] == 0, f"exit code {record['code']}")
        if command == "oracle-check":
            return
        header, table = _read_csv_text(record["csv"])
        if command == "spectrum":
            check_spectrum(params, table)
        else:
            check_map(params, header, table)

    def corrupt_cli(self, record: dict, op) -> dict:
        """Sign-flip r (spectrum) or perturb the mapped quantity (map2d)."""
        header, table = _read_csv_text(record["csv"])
        table = table.copy()
        if op[1] == "spectrum":
            table[:, 2:4] *= -1.0
        else:
            table[len(table) // 2, -2] += 1e-6
        lines = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in table]
        return dict(record, csv="\n".join(lines) + "\n")


def _read_csv_text(text: str) -> tuple[list[str], np.ndarray]:
    header = text.split("\n", 1)[0].split(",")
    return header, np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def _random_node(rng: np.random.Generator, suffix: str = "", decay: bool = False) -> dict:
    node = {
        f"omega_e{suffix}": round(rng.uniform(-2.0, 2.0), 6),
        f"delta{suffix}": round(rng.uniform(-2.0, 2.0), 6),
        f"Omega{suffix}": round(rng.uniform(0.2, 2.0), 6),
        f"g{suffix}": round(rng.uniform(0.6, 1.5), 6),
    }
    if decay:
        node[f"Gamma{suffix}"] = round(rng.uniform(0.01, 0.2), 6)
        node[f"gamma{suffix}"] = round(rng.uniform(0.01, 0.2), 6)
    return node


def _random_lattice(rng: np.random.Generator) -> dict:
    return {"t": round(rng.uniform(0.5, 3.0), 6), "omega": round(rng.uniform(-1.0, 1.0), 6)}


FIGURES = (
    ("spectrum", "fig3a"), ("spectrum", "fig3b"), ("map2d", "fig4"),
    ("spectrum", "fig5a"), ("spectrum", "fig5b"), ("spectrum", "fig6a"),
    ("map2d", "fig6b"), ("spectrum", "fig7"),
)


class FigureSweeps(_CliWorkload):
    """Every bundled figure plus seeded spectra and a seeded map, analytic engine."""

    name = "figure-sweeps"

    def __init__(self, seed: int, src: Path, workdir: Path):
        super().__init__(seed, src, workdir)
        for command, fig in FIGURES:
            self.ops.append(self.cli_op(fig, command, fig, {}))
        rng = self.rng
        k_grid = {"k_min": 0.01, "k_max": 3.13, "k_count": 1000}
        self.ops.append(self.cli_op("one-node", "spectrum", None,
                                    {**_random_lattice(rng), **_random_node(rng), **k_grid}))
        self.ops.append(self.cli_op("two-node", "spectrum", None, {
            **_random_lattice(rng), **_random_node(rng), **_random_node(rng, "2"),
            "D": int(rng.integers(1, 31)), **k_grid}))
        self.ops.append(self.cli_op("decay", "spectrum", None,
                                    {**_random_lattice(rng), **_random_node(rng, decay=True),
                                     **k_grid}))
        node = _random_node(rng, decay=True)
        node.pop("delta")
        self.ops.append(self.cli_op("k-delta-map", "map2d", None, {
            **_random_lattice(rng), **node, "quantity": "T",
            "axis1": "k", "axis1_min": 0.02, "axis1_max": 3.12, "axis1_count": 60,
            "axis2": "delta", "axis2_min": -2.0, "axis2_max": 2.0, "axis2_count": 50}))

    def check_op(self, op, record) -> None:
        self.check_cli(op, record)

    def corruptions(self, records: list):
        for op, record in zip(self.ops, records):
            yield f"{op[0]} corrupted", op, self.corrupt_cli(record, op)


class OracleGate(_CliWorkload):
    """Lattice solver: seeded ``oracle-check`` draws, ``--engine both`` and long chains."""

    name = "oracle-gate"

    #: Chain sizes of the direct solves, each paired with a longer chain.
    CHAIN_SIZES = (200, 300, 400, 500)

    def __init__(self, seed: int, src: Path, workdir: Path):
        super().__init__(seed, src, workdir)
        rng = self.rng
        for i in range(2):
            self.ops.append(self.cli_op(f"gate{i}", "oracle-check", "oracle_check", {
                "wavepacket_check": "false", "draws": 1500,
                "seed": int(rng.integers(1, 2**31))}, engine="both"))
        for fig in ("fig3a", "fig3b", "fig6a", "fig7"):
            self.ops.append(self.cli_op(fig, "spectrum", fig, {}, engine="both"))
        self.ops.append(self.cli_op("fig6b", "map2d", "fig6b", {}, engine="both"))
        for n_sites in self.CHAIN_SIZES:
            for two in (False, True):
                self.ops.append(self._chain_op(rng, n_sites, two))

    def _chain_op(self, rng, n_sites: int, two: bool) -> tuple:
        lat = _random_lattice(rng)
        decay = bool(rng.integers(0, 2))
        nodes = [_random_node(rng, decay=decay)]
        D = int(rng.integers(1, 41)) if two else 0
        if two:
            nodes.append(_random_node(rng, decay=decay))
        k = float(rng.uniform(0.05, math.pi - 0.05))
        return ("chain", n_sites, lat, nodes, D, k)

    def run_op(self, op):
        if op[0] != "chain":
            return super().run_op(op)
        _, n_sites, lat, nodes, D, k = op
        lattice = model.LatticeParams(omega=lat["omega"], t=lat["t"])
        atoms = [model.AtomParams(**nd) for nd in nodes]
        amplitudes = []
        for n, first in ((n_sites, n_sites // 3), (n_sites + 61, n_sites // 3 + 29)):
            placements = tuple((first + i * D, atom) for i, atom in enumerate(atoms))
            spec = oracle.ChainSpec(n, placements, lattice)
            amplitudes.append(oracle.solve_stationary(spec, k))
        return {"amplitudes": amplitudes}

    def check_op(self, op, record) -> None:
        if op[0] != "chain":
            self.check_cli(op, record)
            if op[1] == "oracle-check":
                deviations = [float(x) for x in re.findall(r"deviation ([0-9.e+-]+)",
                                                            record["stdout"])]
                _require("PASS" in record["stdout"] and record["sidecar"]["failures"] == 0,
                         "oracle-check did not pass")
                _require(deviations and max(deviations) <= ORACLE_TOL,
                         f"oracle-check deviation {max(deviations or [np.inf]):.3e}")
            else:
                dev = record["sidecar"]["max_engine_deviation"]
                _require(dev <= ORACLE_TOL, f"engine deviation {dev:.3e}")
            return
        _, _, lat, nodes, D, k = op
        nds = [ph.node(**nd) for nd in nodes]
        if len(nds) == 1:
            r_ref, s_ref, _ = ph.one_node(k, lat["t"], lat["omega"], nds[0])
        else:
            r_ref, s_ref, _ = ph.two_nodes(k, lat["t"], lat["omega"], nds[0], nds[1], D)
        (r_a, s_a), (r_b, s_b) = record["amplitudes"]
        dev = max(abs(r_a - r_ref), abs(s_a - s_ref))
        _require(dev <= ORACLE_TOL, f"lattice (r, s) deviate from the closed forms by {dev:.3e}")
        spread = max(abs(r_a - r_b), abs(s_a - s_b))
        _require(spread <= ORACLE_TOL, f"lattice (r, s) change with N by {spread:.3e}")

    def corruptions(self, records: list):
        for op, record in zip(self.ops, records):
            if op[0] == "chain":
                bad = [(-r, s) for r, s in record["amplitudes"]]
                yield "chain r sign-flipped", op, {"amplitudes": bad}
            elif op[1] == "oracle-check":
                bad = record["stdout"].replace("PASS", "FAIL")
                yield "oracle-check report failed", op, dict(record, stdout=bad)
            else:
                yield f"{op[0]} corrupted", op, self.corrupt_cli(record, op)


class Wavepacket(Workload):
    """RK4 packets through the EIT window, off a mirror, through two nodes, with decay."""

    name = "wavepacket"

    #: Agreement of RK4 R and T with exact eigen-propagation.
    RT_TOL = 1e-6

    def __init__(self, seed: int, src: Path, workdir: Path):
        super().__init__(seed, src, workdir)
        rng = self.rng
        t, omega = 2.0, 1.0
        fig3a = {"omega_e": 1.0, "delta": 0.0, "Omega": 1.0}
        k_eit = math.acos((omega - fig3a["delta"]) / (2.0 * t))
        # Dressed level omega_+ = 1/2 + sqrt(5)/2 reflects perfectly.
        k_mirror = math.acos((omega - 0.5 - math.sqrt(1.25)) / (2.0 * t))
        jitter = [float(x) for x in rng.uniform(-0.01, 0.01, size=4)]
        self.ops = [
            ("eit", (fig3a,), k_eit + jitter[0], 1),
            ("mirror", (fig3a,), k_mirror + jitter[1], 1),
            ("two-node", (fig3a, fig3a), 1.40 + jitter[2], int(rng.integers(8, 13))),
            ("decay", ({**fig3a, "Gamma": 0.04, "gamma": 0.04},), k_eit + jitter[3], 1),
        ]
        self.t, self.omega, self.sigma = t, omega, 4.0

    def run_op(self, op) -> dict:
        _, nodes, k0, D = op
        lat = model.LatticeParams(omega=self.omega, t=self.t)
        atoms = tuple(model.AtomParams(**nd) for nd in nodes)
        spec, wp = oracle.design_scattering_run(atoms, lat, k0, self.sigma, D=D)
        res = oracle.propagate_wavepacket(spec, wp)
        return {"n_sites": spec.n_sites, "sites": list(spec.sites), "x0": wp.x0,
                "tmax": wp.tmax, "R": res.R_meas, "T": res.T_meas, "drift": res.drift,
                "steps": len(res.times) - 1}

    def check_op(self, op, record) -> None:
        _, nodes, k0, _ = op
        placements = [(site, ph.node(**nd)) for site, nd in zip(record["sites"], nodes)]
        R, T = ph.exact_scattering(record["n_sites"], placements, self.t, self.omega,
                                   k0, self.sigma, record["x0"], record["tmax"])
        if all(nd.get("Gamma", 0.0) == 0.0 for nd in nodes):
            _require(record["drift"] <= 1e-8, f"norm drift {record['drift']:.3e}")
        dev = max(abs(record["R"] - R), abs(record["T"] - T))
        _require(dev <= self.RT_TOL, f"R, T deviate from exact propagation by {dev:.3e}")

    def corruptions(self, records: list):
        for op, record in zip(self.ops, records):
            yield f"{op[0]} T perturbed", op, dict(record, T=record["T"] + 1e-4)


class TrappedModes(Workload):
    """Trapped-mode search for Lambda and two-level mirrors, and one eigenmode check."""

    name = "trapped-modes"

    LAMBDA = ({"omega_e": 1.0, "delta": 0.0, "Omega": 1.0}, 2.0, 1.0)
    TWO_LEVEL = ({"omega_e": 2.0, "delta": 0.0, "Omega": 0.0}, 1.0, 1.0)
    #: Separation at which the seed grid misses modes (the kept failure).
    FAULT_D = 100

    def __init__(self, seed: int, src: Path, workdir: Path):
        super().__init__(seed, src, workdir)
        # Opposite offsets keep the pass's cost independent of the seed.
        offset = int(self.rng.integers(0, 5))
        self.ops = [
            ("modes", "lambda", 16 + offset),
            ("modes", "two-level", 20 - offset),
            ("modes", "lambda", self.FAULT_D),
            ("modes", "two-level", self.FAULT_D),
            ("cavity", int(self.rng.integers(2, 5))),
        ]
        self._roots: dict = {}

    def _params(self, which: str):
        nd, t, omega = self.LAMBDA if which == "lambda" else self.TWO_LEVEL
        return nd, t, omega

    def run_op(self, op) -> dict:
        if op[0] == "modes":
            nd, t, omega = self._params(op[1])
            atom = model.AtomParams(**nd)
            cfg = quasibound.TwoNodeConfig(atom, atom, op[2])
            modes = quasibound.find_quasibound_modes(cfg, model.LatticeParams(omega=omega, t=t))
            return {"k": [m.k for m in modes], "E": [m.E for m in modes]}
        spec = self._cavity(op[1])
        modes = oracle.eigenmodes(spec)
        return {"energy": np.array([m.energy for m in modes]),
                "vectors": np.array([m.vector for m in modes]).T}

    # Criterion 9's near-perfect mirrors: g = 30, tuned to reflect at En + 1e-4.
    CAVITY_D, CAVITY_T, CAVITY_OMEGA = 10, 2.0, 1.0

    def _mirror(self, n: int) -> dict:
        E = self.CAVITY_OMEGA - 2.0 * self.CAVITY_T * math.cos(math.pi * n / self.CAVITY_D)
        E += 1e-4
        return {"omega_e": 0.2, "delta": E - 1.0 / (E - 0.2), "Omega": 1.0, "g": 30.0}

    def _cavity(self, n: int):
        atom = model.AtomParams(**self._mirror(n))
        lat = model.LatticeParams(omega=self.CAVITY_OMEGA, t=self.CAVITY_T)
        return oracle.ChainSpec(401, ((195, atom), (195 + self.CAVITY_D, atom)), lat)

    def window_roots(self, which: str, D: int) -> np.ndarray:
        if (which, D) not in self._roots:
            nd, t, omega = self._params(which)
            n = ph.node(**nd)
            roots = ph.trapped_mode_roots(n, n, D, t, omega)
            self._roots[which, D] = ph.window_roots(roots, (0.0, math.pi), (-0.5, 0.05), 1e-6)
        return self._roots[which, D]

    def _modes_match_roots(self, op, record) -> None:
        roots = self.window_roots(op[1], op[2])
        matched = set()
        for k in record["k"]:
            gaps = np.abs(roots - k)
            nearest = int(np.argmin(gaps)) if len(roots) else -1
            _require(nearest >= 0 and gaps[nearest] <= 1e-10,
                     f"mode k={k:.12g} is not a root of the trapped-mode polynomial")
            _require(nearest not in matched, f"mode k={k:.12g} reported twice")
            matched.add(nearest)

    def known_fault(self, op, record) -> bool:
        """The seed grid returns a strict subset of the roots at D = 100."""
        if op[0] != "modes" or op[2] != self.FAULT_D:
            return False
        try:
            self._modes_match_roots(op, record)
        except Failure:
            return False
        return len(record["k"]) < len(self.window_roots(op[1], op[2]))

    def check_op(self, op, record) -> None:
        if op[0] == "modes":
            roots = self.window_roots(op[1], op[2])
            self._modes_match_roots(op, record)
            _require(len(record["k"]) == len(roots),
                     f"{len(record['k'])} modes found, the polynomial has {len(roots)} window roots")
            return
        n = op[1]
        nd = ph.node(**self._mirror(n))
        H = ph.hamiltonian(401, [(195, nd), (195 + self.CAVITY_D, nd)],
                           self.CAVITY_T, self.CAVITY_OMEGA)
        E, V = record["energy"], record["vectors"]
        _require(len(E) == H.shape[0], "eigenmodes is missing modes")
        _require(np.all(np.diff(E.real) >= 0), "eigenmodes not sorted by energy")
        residual = np.max(np.linalg.norm(H @ V - V * E, axis=0))
        _require(residual <= 1e-9, f"eigenpair residual {residual:.3e}")
        kn = math.pi * n / self.CAVITY_D
        roots = ph.trapped_mode_roots(nd, nd, self.CAVITY_D, self.CAVITY_T, self.CAVITY_OMEGA)
        root = roots[np.argmin(np.abs(roots - kn))]
        E_root = self.CAVITY_OMEGA - 2.0 * self.CAVITY_T * np.cos(root)
        trapped = int(np.argmin(np.abs(E.real - E_root.real)))
        profile = np.zeros(H.shape[0])
        j = np.arange(self.CAVITY_D + 1)
        profile[195:195 + self.CAVITY_D + 1] = np.sin(math.pi * n * j / self.CAVITY_D)
        overlap = abs(np.vdot(V[:, trapped], profile)) ** 2 / np.dot(profile, profile)
        _require(overlap > 0.99, f"trapped eigenmode overlap {overlap:.4f} with sin(pi n j / D)")
        _require(abs(E[trapped].real - E_root.real) <= 1e-4 * self.CAVITY_T,
                 "trapped eigenmode energy is not the quasibound root's")

    def corruptions(self, records: list):
        for op, record in zip(self.ops, records):
            if op[0] == "modes" and op[2] != self.FAULT_D:
                yield f"{op[1]} D={op[2]} mode dropped", op, dict(record, k=record["k"][1:])
            elif op[0] == "cavity":
                bad = record["vectors"].copy()
                bad[:, len(record["energy"]) // 2] *= -1j
                bad[196, len(record["energy"]) // 2] += 1e-3
                yield "eigenvector perturbed", op, dict(record, vectors=bad)

    def describe(self, op) -> str:
        return " ".join(str(x) for x in op)


WORKLOADS = {cls.name: cls for cls in (FigureSweeps, OracleGate, Wavepacket, TrappedModes)}
