"""Deterministic parameter sweeps over the analytic and lattice engines.

A sweep walks a 1D or 2D linearly spaced grid, evaluates reflection and
transmission at every point with either the closed-form expressions or the
finite-lattice solver, and records a mask of the points where a potential
diverged (the stored value is then the analytic limit, R = 1).  Points are
independent pure evaluations, so the output is bitwise identical for any
worker count; work is partitioned statically by rows.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _version
from .errors import (
    CavityChainError,
    ResonanceDenominatorError,
    SingularPotentialError,
)
from .model import AtomParams, LatticeParams, dispersion_energy
from .oracle import ChainSpec, solve_stationary
from .scattering import (
    TwoNodeConfig,
    limit_scatter,
    single_node_scatter,
    two_node_scatter,
)

QUANTITIES = ("R", "T", "xi", "Re_r", "Im_r", "R+T")
ENGINES = ("analytic", "oracle")

#: Grid-point status codes stored in the sweep mask.
FLAG_OK = 0
FLAG_SINGULAR = 1
FLAG_RESONANCE = 2
FLAG_ERROR = 3

#: Parameters a sweep axis may vary.
AXIS_NAMES = ("k", "Omega", "omega_C", "delta", "omega_e", "D")

#: Default CI gate on analytic-vs-oracle deviation for decay-free sweeps.
ORACLE_GATE = 1e-8


@dataclass(frozen=True)
class AxisSpec:
    """One linearly spaced sweep axis."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; choose from {AXIS_NAMES}")
        if self.count < 1:
            raise ValueError(f"axis count must be >= 1, got {self.count}")
        if self.count > 1 and not self.start < self.stop:
            raise ValueError(f"axis needs start < stop, got [{self.start}, {self.stop}]")
        if self.name == "k" and not (0.0 < self.start < np.pi and 0.0 < self.stop < np.pi):
            raise ValueError(f"a k axis must lie in (0, pi), got [{self.start}, {self.stop}]")
        if self.name == "D" and self.start < 1:
            raise ValueError(f"a D axis must start at 1 or above, got {self.start}")

    def values(self) -> np.ndarray:
        vals = np.linspace(self.start, self.stop, self.count)
        if self.name == "D":
            if not np.allclose(vals, np.round(vals), atol=1e-9):
                raise ValueError("a D axis must land on integer separations")
            vals = np.round(vals)
        return vals


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: one or two axes over a set of fixed parameters.

    ``fixed`` uses the same keys as the run configuration: lattice (t,
    omega), first node (omega_e, delta, Omega, g, Gamma, gamma), optional
    second node (same keys with suffix 2) plus integer D, and k when k is
    not an axis.  The sign of Omega values is ignored (the potential depends
    on Omega squared only).
    """

    axes: tuple[AxisSpec, ...]
    fixed: dict[str, float] = field(default_factory=dict)
    quantity: str = "R"
    engine: str = "analytic"
    workers: int = 1
    limit: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep takes one or two axes")
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}; choose from {QUANTITIES}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.limit not in (None, "high", "low"):
            raise ValueError(f"limit must be 'high' or 'low', got {self.limit!r}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names {names}")


@dataclass(frozen=True)
class SweepResult:
    """Grid values plus the singular/error mask and run metadata."""

    axes: tuple[AxisSpec, ...]
    axis_values: tuple[np.ndarray, ...]
    values: np.ndarray
    mask: np.ndarray
    metadata: dict

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass(frozen=True)
class EngineComparison:
    """Worst analytic-vs-oracle deviation over a grid."""

    max_deviation: float
    at_indices: tuple[int, ...]
    at_values: tuple[float, ...]
    n_points: int


def _atom_from(params: dict, suffix: str = "") -> AtomParams:
    return AtomParams(
        omega_e=params.get(f"omega_e{suffix}", 0.0),
        delta=params.get(f"delta{suffix}", 0.0),
        Omega=abs(params.get(f"Omega{suffix}", 0.0)),
        g=params.get(f"g{suffix}", 1.0),
        Gamma=params.get(f"Gamma{suffix}", 0.0),
        gamma=params.get(f"gamma{suffix}", 0.0),
    )


_NODE_KEYS = ("omega_e", "delta", "Omega", "g", "Gamma", "gamma")


def _has_first_node(params: dict) -> bool:
    return any(key in params for key in _NODE_KEYS)


def _has_second_node(params: dict) -> bool:
    if "D" in params:
        return True
    return any(key.endswith("2") and key != "axis2" for key in params)


def _oracle_chain(params: dict, lat: LatticeParams) -> ChainSpec:
    buffer = 4
    first = buffer + 4
    if not _has_first_node(params):
        return ChainSpec(16, (), lat, buffer=buffer)
    if _has_second_node(params):
        D = int(round(params["D"]))
        atoms = (_atom_from(params), _atom_from(params, "2"))
        placements = ((first, atoms[0]), (first + D, atoms[1]))
        n = first + D + buffer + 4
    else:
        placements = ((first, _atom_from(params)),)
        n = first + buffer + 4
    return ChainSpec(max(16, n), placements, lat, buffer=buffer)


def evaluate_point(params: dict, engine: str, limit: str | None = None) -> tuple[complex, complex, int]:
    """Reflection and transmission amplitudes plus a status flag at one point.

    Never raises for per-point conditions: diverging potentials yield the
    limit (r, s) = (-1, 0) with FLAG_SINGULAR, an exact two-node trapped-mode
    hit yields the same limit with FLAG_RESONANCE, and any other evaluation
    error yields FLAG_ERROR.
    """
    if "omega_C" in params and "delta" not in params:
        params = dict(params)
        params["delta"] = params.get("omega_a", 0.0) - params.pop("omega_C")
    lat = LatticeParams(omega=params.get("omega", 0.0), t=params["t"])
    k = params["k"]
    try:
        if engine == "oracle":
            spec = _oracle_chain(params, lat)
            r, s = solve_stationary(spec, k)
            return r, s, FLAG_OK
        if not _has_first_node(params):
            dispersion_energy(k, lat)  # validate the momentum
            return 0.0 + 0.0j, 1.0 + 0.0j, FLAG_OK
        if limit is not None:
            res = limit_scatter(k, limit, _atom_from(params), lat)
        elif _has_second_node(params):
            cfg = TwoNodeConfig(_atom_from(params), _atom_from(params, "2"), int(round(params["D"])))
            res = two_node_scatter(k, cfg, lat)
        else:
            res = single_node_scatter(k, _atom_from(params), lat)
        return res.r, res.s, FLAG_SINGULAR if res.singular else FLAG_OK
    except SingularPotentialError:
        return -1.0 + 0.0j, 0.0j, FLAG_SINGULAR
    except ResonanceDenominatorError:
        return -1.0 + 0.0j, 0.0j, FLAG_RESONANCE
    except (CavityChainError, ValueError, np.linalg.LinAlgError):
        return -1.0 + 0.0j, 0.0j, FLAG_ERROR


def _quantity_value(quantity: str, r: complex, s: complex) -> float:
    if quantity == "R":
        return abs(r) ** 2
    if quantity == "T":
        return abs(s) ** 2
    if quantity == "xi":
        return 1.0 - abs(r) ** 2 - abs(s) ** 2
    if quantity == "Re_r":
        return r.real
    if quantity == "Im_r":
        return r.imag
    return abs(r) ** 2 + abs(s) ** 2


def _point_params(spec: SweepSpec, axis_vals: tuple[float, ...]) -> dict:
    params = dict(spec.fixed)
    for axis, value in zip(spec.axes, axis_vals):
        params[axis.name] = float(value)
    return params


def _sweep_rows(spec: SweepSpec, rows: list[int]) -> tuple[list[int], np.ndarray, np.ndarray]:
    grids = [axis.values() for axis in spec.axes]
    n_cols = len(grids[1]) if len(grids) == 2 else 1
    values = np.empty((len(rows), n_cols))
    mask = np.zeros((len(rows), n_cols), dtype=np.int8)
    for i, row in enumerate(rows):
        for j in range(n_cols):
            axis_vals = (grids[0][row],) if len(grids) == 1 else (grids[0][row], grids[1][j])
            r, s, flag = evaluate_point(_point_params(spec, axis_vals), spec.engine, spec.limit)
            values[i, j] = _quantity_value(spec.quantity, r, s)
            mask[i, j] = flag
    return rows, values, mask


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; output is bitwise independent of the worker count."""
    grids = tuple(axis.values() for axis in spec.axes)
    n_rows = len(grids[0])
    n_cols = len(grids[1]) if len(grids) == 2 else 1
    values = np.empty((n_rows, n_cols))
    mask = np.zeros((n_rows, n_cols), dtype=np.int8)

    if spec.workers == 1 or n_rows < 2 * spec.workers:
        _, values[:], mask[:] = _sweep_rows(spec, list(range(n_rows)))
    else:
        chunks = [list(range(start, n_rows, spec.workers)) for start in range(spec.workers)]
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            for rows, vals, flags in pool.map(_sweep_rows, [spec] * len(chunks), chunks):
                values[rows] = vals
                mask[rows] = flags

    if len(grids) == 1:
        values = values[:, 0]
        mask = mask[:, 0]
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("sweep produced a non-finite value that escaped the mask")
    metadata = {
        "engine": spec.engine,
        "quantity": spec.quantity,
        "limit": spec.limit,
        "fixed": dict(spec.fixed),
        "axes": [
            {"name": a.name, "start": a.start, "stop": a.stop, "count": a.count}
            for a in spec.axes
        ],
        "tool_version": _version,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return SweepResult(
        axes=spec.axes, axis_values=grids, values=values, mask=mask, metadata=metadata
    )


def compare_engines(spec: SweepSpec) -> EngineComparison:
    """Max |analytic - oracle| of the swept quantity over the grid."""
    from dataclasses import replace

    analytic = run_sweep(replace(spec, engine="analytic"))
    oracle = run_sweep(replace(spec, engine="oracle"))
    dev = np.abs(analytic.values - oracle.values)
    flat = int(np.argmax(dev))
    indices = np.unravel_index(flat, dev.shape)
    at_values = tuple(
        float(analytic.axis_values[d][indices[d]]) for d in range(len(indices))
    )
    return EngineComparison(
        max_deviation=float(dev[indices]),
        at_indices=tuple(int(i) for i in indices),
        at_values=at_values,
        n_points=int(dev.size),
    )


def spectrum_rows(
    k_values: np.ndarray,
    params: dict,
    engine: str = "analytic",
    limit: str | None = None,
) -> list[dict]:
    """Full per-momentum scattering record used by the spectrum command.

    Each row carries k, the energy offset eps_k = E(k) - delta, both complex
    amplitudes, R, T, xi and the singular flag.
    """
    lat = LatticeParams(omega=params.get("omega", 0.0), t=params["t"])
    if "omega_C" in params and "delta" not in params:
        params = dict(params)
        params["delta"] = params.get("omega_a", 0.0) - params.pop("omega_C")
    delta_ref = params.get("delta", 0.0)
    rows = []
    for k in k_values:
        point = dict(params)
        point["k"] = float(k)
        r, s, flag = evaluate_point(point, engine, limit)
        E = dispersion_energy(float(k), lat)
        rows.append(
            {
                "k": float(k),
                "eps_k": E - delta_ref,
                "r": r,
                "s": s,
                "R": abs(r) ** 2,
                "T": abs(s) ** 2,
                "xi": 1.0 - abs(r) ** 2 - abs(s) ** 2,
                "singular_flag": int(flag != FLAG_OK),
            }
        )
    return rows
