"""Validated payoffs of the two games and extraction of the 2x2
classical-vs-quantum strategy blocks.

Blocks come from the quantization circuit, never from closed-form matrices (the
tests hold those).  Each call weighs its game's 3x3 table once, at any gamma, and a
block is indexed from it; the circuit behind it is cached per strategy set and gamma
in `eisert`, so the blocks of one game share its runs.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import eisert
from .eisert import C, D, Q, STRAIGHT, SWERVE
from .equilibrium import BimatrixGame
from .errors import ValidationError, check_floats, real_array, unchecked

PD = "pd"
CHICKEN = "chicken"


@dataclass(frozen=True)
class PDPayoffs:
    """Prisoner's dilemma payoffs: reward r, temptation t, sucker s,
    punishment p, stored as floats (`errors.check_floats`), with t > r > p > s."""

    r: float
    t: float
    s: float
    p: float

    def __post_init__(self):
        check_floats(self, "payoffs must be finite")
        if not self.t > self.r:
            raise ValidationError(f"t > r violated (t={self.t}, r={self.r})")
        if not self.r > self.p:
            raise ValidationError(f"r > p violated (r={self.r}, p={self.p})")
        if not self.p > self.s:
            raise ValidationError(f"p > s violated (p={self.p}, s={self.s})")


@dataclass(frozen=True)
class ChickenPayoffs:
    """Chicken payoffs: reputation r, injury cost s, stored as floats.  Nominally s > r > 0;
    s == r is accepted with a warning so equal-payoff sweeps stay runnable."""

    r: float
    s: float

    def __post_init__(self):
        check_floats(self, "payoffs must be finite")
        if not self.r > 0:
            raise ValidationError(f"r > 0 violated (r={self.r})")
        if not self.s >= self.r:
            raise ValidationError(f"s > r violated (s={self.s}, r={self.r})")
        if self.s == self.r:
            warnings.warn(f"s == r == {self.s}: strict ordering s > r relaxed")


class Block(str, Enum):
    """Identity of a 2x2 restriction of the extended payoff matrix."""

    QVC = "QvC"
    QVD = "QvD"
    QVSWERVE = "QvSwerve"
    QVSTRAIGHT = "QvStraight"
    CLASSICAL_PD = "ClassicalPD"
    CLASSICAL_CHICKEN = "ClassicalChicken"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"unknown block {value!r}; expected one of {[b.value for b in cls]}")


# Row/column ordering of each block, matching how the 3x3 tables are reduced.
_BLOCK_STRATEGIES = {
    Block.QVC: (PD, (C, Q)),
    Block.QVD: (PD, (Q, D)),
    Block.CLASSICAL_PD: (PD, (C, D)),
    Block.QVSWERVE: (CHICKEN, (SWERVE, Q)),
    Block.QVSTRAIGHT: (CHICKEN, (Q, STRAIGHT)),
    Block.CLASSICAL_CHICKEN: (CHICKEN, (STRAIGHT, SWERVE)),
}


@dataclass(frozen=True)
class StrategyBlock:
    """Row-player payoffs of a 2x2 strategy restriction, (2, 2) or (G, 2, 2) along gamma."""

    row_payoffs: np.ndarray
    block_id: Block

    def __post_init__(self):
        m = real_array(self.row_payoffs)
        object.__setattr__(self, "row_payoffs", m)
        object.__setattr__(self, "block_id", Block(self.block_id))
        if m is None or m.shape[-2:] != (2, 2) or m.ndim > 3 or not np.isfinite(m).all():
            raise ValidationError("block must be a finite 2x2 matrix or a stack of them")

    @property
    def labels(self) -> tuple[str, str]:
        """Row/column strategy labels, in the block's ordering."""
        return tuple(s.label for s in _BLOCK_STRATEGIES[self.block_id][1])

    def as_game(self) -> BimatrixGame:
        """The block as a symmetric two-player game, of payoffs and labels it has checked."""
        if self.row_payoffs.ndim != 2:
            raise ValidationError("as_game takes one 2x2 block, not a stack along gamma")
        return unchecked(BimatrixGame, row=self.row_payoffs, labels=self.labels)


def _pd_cos_2gamma(p: PDPayoffs) -> float:
    """(r - p) / (t - s), from halved payoffs where t - s overflows."""
    den = p.t - p.s  # positive, since t > s
    if den <= sys.float_info.max:
        return (p.r - p.p) / den
    return (p.r / 2 - p.p / 2) / (p.t / 2 - p.s / 2)


# One row per game kind: payoff type, the row player's weights of the outcomes |00>, |01>,
# |10>, |11> (|0> cooperate or swerve, |1> defect or straight), 3x3 order, block whose field
# changes sign, and cos(2 gamma*) there in closed form, the bisection's check.
# Chicken's s / (2 r) is formed as (s / r) / 2: the same bits where 2 r is finite, and finite
# where it is not.
GAMES = {
    PD: (PDPayoffs, lambda p: (p.r, p.s, p.t, p.p), (C, D, Q), Block.QVD, _pd_cos_2gamma),
    CHICKEN: (ChickenPayoffs, lambda c: (0.0, -c.r, c.r, -c.s), (SWERVE, STRAIGHT, Q),
              Block.QVSTRAIGHT, lambda c: c.s / c.r / 2.0),
}


def _table(game_kind: str, payoffs, gamma) -> np.ndarray:
    """The row player's payoffs over the game's 3x3 strategy order: (3, 3) for a float gamma,
    (G, 3, 3) along a 1-D grid, fresh from one `extended_matrix` call on the payoffs' weights."""
    if game_kind not in GAMES:
        raise ValidationError(f"unknown game kind {game_kind!r}; expected one of {tuple(GAMES)}")
    payoff_type, weights, order, *_ = GAMES[game_kind]
    if not isinstance(payoffs, payoff_type):
        raise ValidationError(f"{game_kind} needs {payoff_type.__name__}, "
                              f"got {type(payoffs).__name__}")
    # keywords: perfbench/spans.py reads strategies and gamma by name, or as arguments 2 and 3
    return eisert.extended_matrix(weights(payoffs), strategies=order, gamma=gamma)


# Each block's rows and columns in its game's table, for `table[..., i, j]`.
_BLOCK_CELLS = {block: np.ix_(cells, cells)
                for block, (kind, strategies) in _BLOCK_STRATEGIES.items()
                for cells in [[GAMES[kind][2].index(s) for s in strategies]]}


def quantized_game(game_kind: str, payoffs, gamma: float) -> BimatrixGame:
    """Full 3x3 bimatrix over the classical pair plus the quantum strategy."""
    table = _table(game_kind, payoffs, gamma)
    if table.ndim != 2:
        raise ValidationError("quantized_game takes one gamma, not a grid")
    return unchecked(BimatrixGame, row=table, labels=tuple(s.label for s in GAMES[game_kind][2]))


def extract_block(game_kind: str, payoffs, block_id, gamma):
    """Row-player 2x2 block for one strategy pairing, computed by the circuit.

    The block's cells of its game's table: (2, 2) for a float gamma, and for a 1-D
    gamma grid the blocks stacked, (G, 2, 2).  A cell depends only on its own strategy
    pair, so these are the bits of a circuit run over the block's pair alone.
    """
    block_id = Block(block_id)
    kind_required, _ = _BLOCK_STRATEGIES[block_id]
    if game_kind != kind_required:
        raise ValidationError(f"block {block_id.value} belongs to game kind {kind_required!r}")
    i, j = _BLOCK_CELLS[block_id]
    return unchecked(StrategyBlock, row_payoffs=_table(game_kind, payoffs, gamma)[..., i, j],
                     block_id=block_id)  # a table of the shape and values it checks
