"""Quantized 2x2 games on the 1-D Ising chain.

Pipeline: quantize a classical game (prisoner's dilemma or chicken) with an
entangling circuit, restrict the extended payoff table to one classical
strategy against the quantum one, map that 2x2 block to chain parameters
(J, h), and read the infinite-population strategy split off the closed-form
magnetization.  Exact chain oracles and a Nash analyzer cross-check every
step.
"""

from .catalog import (
    CHICKEN,
    PD,
    Block,
    ChickenPayoffs,
    PDPayoffs,
    StrategyBlock,
    extract_block,
    quantized_game,
)
from .equilibrium import BimatrixGame, MixedProfile, mixed_nash_symmetric_2x2, pure_nash
from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .ising import (
    IsingParams,
    couplings,
    magnetization,
    phase_transition_gamma,
    to_ising,
)
from .oracle import (
    ChainSpec,
    SampledEstimate,
    enumerate_magnetization,
    metropolis_magnetization,
    transfer_matrix_finite,
)

__version__ = "0.1.0"

__all__ = [
    "BimatrixGame",
    "Block",
    "CHICKEN",
    "ChainSpec",
    "ChickenPayoffs",
    "ConsistencyError",
    "IsingParams",
    "MixedProfile",
    "PD",
    "PDPayoffs",
    "ResourceLimitError",
    "SampledEstimate",
    "StrategyBlock",
    "ValidationError",
    "couplings",
    "enumerate_magnetization",
    "extract_block",
    "magnetization",
    "metropolis_magnetization",
    "mixed_nash_symmetric_2x2",
    "phase_transition_gamma",
    "pure_nash",
    "quantized_game",
    "to_ising",
    "transfer_matrix_finite",
    "__version__",
]
