"""Shared random-draw utilities and a reference CSV writer for the test suite."""

from __future__ import annotations

import math

import numpy as np

from cavitychain import AtomParams, LatticeParams, TwoNodeConfig


def draw_lattice(rng: np.random.Generator) -> LatticeParams:
    return LatticeParams(omega=rng.uniform(-2.0, 2.0), t=rng.uniform(0.5, 4.0))


def draw_atom(
    rng: np.random.Generator,
    *,
    two_level: bool = False,
    decay: bool = False,
    g_range: tuple[float, float] = (0.6, 1.5),
) -> AtomParams:
    return AtomParams(
        omega_e=rng.uniform(-3.0, 3.0),
        delta=rng.uniform(-3.0, 3.0),
        Omega=0.0 if two_level else rng.uniform(0.0, 3.0),
        g=rng.uniform(*g_range),
        Gamma=rng.uniform(0.0, 0.2) if decay else 0.0,
        gamma=rng.uniform(0.0, 0.2) if decay else 0.0,
    )


def draw_momentum(rng: np.random.Generator) -> float:
    return rng.uniform(0.05, math.pi - 0.05)


def draw_two_node(
    rng: np.random.Generator, *, decay: bool = False, d_max: int = 12
) -> TwoNodeConfig:
    flavors = (False, True)
    return TwoNodeConfig(
        draw_atom(rng, two_level=rng.choice(flavors), decay=decay),
        draw_atom(rng, two_level=rng.choice(flavors), decay=decay),
        int(rng.integers(1, d_max + 1)),
    )


def reference_csv(header: list[str], columns: list) -> bytes:
    """The bytes of the row-by-row CSV writer: one ``fmt % row`` per row.

    Numbers go through ``%.17g`` and text (``O``, ``U`` and ``S`` columns)
    through ``%s``, every value formatted on its own.  A pair
    ``(values, index)`` is expanded to the column ``values[index]`` first.
    """
    cols = [np.take(c[0], c[1]) if isinstance(c, tuple) else np.asarray(c) for c in columns]
    fmt = ",".join("%s" if c.dtype.kind in "OUS" else "%.17g" for c in cols) + "\n"
    rows = zip(*(c.tolist() for c in cols))
    return "".join([",".join(header) + "\n", *(fmt % row for row in rows)]).encode("utf-8")
