"""Deterministic parameter sweeps over the analytic and lattice engines.

``grid_amplitudes`` evaluates the reflection and transmission amplitudes
on a 1D or 2D linearly spaced grid, with either one call of the vectorised
transfer-matrix kernel over the whole grid or one finite-lattice solve per
point, plus the physical flag of each point: a diverging potential (the
amplitudes are then the analytic limit, r = -1) or an exact trapped-mode
hit.  Anything else that goes wrong raises.  ``build_scenario`` is the one
place where run-configuration keys become lattice and node parameters, and
``amplitudes`` the one way from them into either engine, for the sweeps and
the command line alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AtomParams, LatticeParams
from .oracle import ChainSpec, solve_stationary
from .scattering import FLAG_OK, chain_scatter

QUANTITIES = ("R", "T", "xi", "Re_r", "Im_r", "R+T")
ENGINES = ("analytic", "oracle")

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
        vals = np.linspace(self.start, self.stop, self.count)
        if self.name == "D" and not np.allclose(vals, np.round(vals), atol=1e-9):
            raise ValueError("a D axis must land on integer separations")

    def values(self) -> np.ndarray:
        vals = np.linspace(self.start, self.stop, self.count)
        return np.round(vals) if self.name == "D" else vals


#: Configuration keys of one node; the second node's carry the suffix 2.
_NODE_KEYS = ("omega_e", "delta", "omega_a", "omega_C", "Omega", "g", "Gamma", "gamma")

#: Keys an axis value replaces: a swept detuning overrides the other form.
_AXIS_REPLACES = {"delta": ("omega_a", "omega_C"), "omega_C": ("delta",)}


@dataclass(frozen=True)
class Scenario:
    """A lattice and its nodes as (site, atom) pairs, the first node at site 0."""

    lat: LatticeParams
    nodes: tuple[tuple, ...]


def reduce_delta(params: dict, suffix: str = ""):
    """Detuning from either ``delta`` or the pair (omega_a, omega_C)."""
    d_key, a_key, c_key = f"delta{suffix}", f"omega_a{suffix}", f"omega_C{suffix}"
    has_pair = a_key in params or c_key in params
    if d_key in params and has_pair:
        raise ValueError(f"give either {d_key} or the ({a_key}, {c_key}) pair, not both")
    if has_pair:
        return params.get(a_key, 0.0) - params.get(c_key, 0.0)
    return params.get(d_key, 0.0)


def _atom(params: dict, suffix: str) -> AtomParams:
    try:
        return AtomParams(
            omega_e=params.get(f"omega_e{suffix}", 0.0),
            delta=reduce_delta(params, suffix),
            Omega=abs(params.get(f"Omega{suffix}", 0.0)),
            g=params.get(f"g{suffix}", 1.0),
            Gamma=params.get(f"Gamma{suffix}", 0.0),
            gamma=params.get(f"gamma{suffix}", 0.0),
        )
    except ValueError as exc:
        raise ValueError(f"invalid node{suffix or ' 1'} parameters: {exc}") from exc


def build_scenario(params: dict) -> Scenario:
    """Lattice and nodes from run-configuration keys; values may be grid arrays.

    A second node, at site D (default 1), exists when D or any key of it is
    given; the first node exists when any node key is given.  Other keys are
    ignored.  Raises ValueError on a missing or invalid parameter.
    """
    if "t" not in params:
        raise ValueError("missing required key 't'")
    try:
        lat = LatticeParams(omega=params.get("omega", 0.0), t=params["t"])
    except ValueError as exc:
        raise ValueError(f"invalid lattice parameters: {exc}") from exc
    second = "D" in params or any(f"{key}2" in params for key in _NODE_KEYS)
    if not (second or any(key in params for key in _NODE_KEYS)):
        return Scenario(lat, ())
    nodes = [(0, _atom(params, ""))]
    if second:
        D = params.get("D", 1)
        if np.any(np.less(D, 1)):
            raise ValueError(f"node separation D must be >= 1, got {D}")
        nodes.append((D, _atom(params, "2")))
    return Scenario(lat, tuple(nodes))


def _oracle_chain(scenario: Scenario) -> ChainSpec:
    """Lattice-oracle chain of one point: first node at site 8, 8 sites past the last."""
    placements = tuple((8 + int(round(x)), atom) for x, atom in scenario.nodes)
    last = placements[-1][0] if placements else 8
    return ChainSpec(max(16, last + 8), placements, scenario.lat, buffer=4)


def amplitudes(params: dict, engine: str, limit: str | None):
    """(r, s, flag) over the broadcast shape of the array-valued ``params``.

    The one way from run-configuration keys to either engine.  The analytic
    engine is one kernel call; the oracle stays an independent lattice solve
    per point, never flags and has no limit lineshape.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "analytic":
        scenario = build_scenario(params)
        return chain_scatter(params["k"], scenario.nodes, scenario.lat, limit=limit)
    if limit is not None:
        raise ValueError("a limit lineshape has no lattice-oracle counterpart")
    shape = np.broadcast_shapes(*(np.shape(v) for v in params.values()))
    grids = {key: np.broadcast_to(v, shape) for key, v in params.items() if np.ndim(v)}
    r, s = np.empty(shape, complex), np.empty(shape, complex)
    for idx in np.ndindex(shape):
        point = {**params, **{key: float(v[idx]) for key, v in grids.items()}}
        r[idx], s[idx] = solve_stationary(_oracle_chain(build_scenario(point)), point["k"])
    return r, s, np.full(shape, FLAG_OK, dtype=np.int8)


def quantity_value(quantity: str, r, s):
    """One of ``QUANTITIES`` from the amplitudes r and s."""
    if quantity == "R":
        return np.abs(r) ** 2
    if quantity == "T":
        return np.abs(s) ** 2
    if quantity == "xi":
        return 1.0 - np.abs(r) ** 2 - np.abs(s) ** 2
    if quantity == "Re_r":
        return r.real
    if quantity == "Im_r":
        return r.imag
    return np.abs(r) ** 2 + np.abs(s) ** 2


def grid_amplitudes(fixed: dict, axes: tuple[AxisSpec, ...], engine: str, limit: str | None):
    """(r, s, flag) on the grid of ``axes`` over ``fixed``; the first axis runs along rows.

    ``fixed`` uses the run-configuration keys of ``build_scenario``, with k
    among them when k is not an axis; an axis value overrides the key of
    the same name and, for a detuning, the other form of it.  The whole
    grid is one ``amplitudes`` call.
    """
    grids = tuple(axis.values() for axis in axes)
    params = dict(fixed)
    for axis, grid in zip(axes, np.ix_(*grids)):
        for key in _AXIS_REPLACES.get(axis.name, ()):
            params.pop(key, None)
        params[axis.name] = grid
    shape = tuple(len(grid) for grid in grids)
    return tuple(np.broadcast_to(a, shape) for a in amplitudes(params, engine, limit))
