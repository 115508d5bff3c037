"""Single-photon transport and trapping in a 1D coupled cavity array.

One vectorised reflection/transmission kernel for chains with any number of
embedded three-level nodes, an independent finite-lattice oracle, a
complex-momentum trapped-mode solver, and a deterministic parameter-sweep
engine with a CLI.
"""

from .errors import (
    CavityChainError,
    ConfigError,
    InsufficientChainError,
    IntegratorDriftError,
    LimitWindowError,
    NoSolutionError,
    OracleResidualError,
    PlacementError,
    UnverifiedRootError,
)
from .model import (
    AtomParams,
    LatticeParams,
    dispersion_energy,
    dispersion_energy_continued,
)
from .oracle import (
    ChainSpec,
    EigenMode,
    WavepacketResult,
    WavepacketSpec,
    design_wavepacket,
    eigenmodes,
    propagate_wavepacket,
    solve_stationary,
)
from .quasibound import (
    QuasiboundMode,
    bound_profile,
    find_quasibound_modes,
)
from .scattering import (
    TwoNodeConfig,
    chain_scatter,
    find_perfect_reflection,
)

__version__ = "0.1.0"
