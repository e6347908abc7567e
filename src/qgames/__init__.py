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
from .eisert import (
    C,
    D,
    Q,
    STRAIGHT,
    SWERVE,
    PayoffTemplate,
    Strategy,
    entangler,
    extended_matrix,
    strategy_operator,
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
    "C",
    "CHICKEN",
    "ChainSpec",
    "ChickenPayoffs",
    "ConsistencyError",
    "D",
    "IsingParams",
    "MixedProfile",
    "PD",
    "PDPayoffs",
    "PayoffTemplate",
    "Q",
    "ResourceLimitError",
    "STRAIGHT",
    "SWERVE",
    "SampledEstimate",
    "Strategy",
    "StrategyBlock",
    "ValidationError",
    "couplings",
    "entangler",
    "enumerate_magnetization",
    "extended_matrix",
    "extract_block",
    "magnetization",
    "metropolis_magnetization",
    "mixed_nash_symmetric_2x2",
    "phase_transition_gamma",
    "pure_nash",
    "quantized_game",
    "strategy_operator",
    "to_ising",
    "transfer_matrix_finite",
    "__version__",
]
