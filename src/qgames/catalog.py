"""Validated payoffs of the two games and extraction of the 2x2
classical-vs-quantum strategy blocks.

Blocks are always produced by running the quantization circuit, never by
transcribing closed-form matrices; the test suite holds the closed forms and
cross-checks the circuit against them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import eisert
from .eisert import C, D, Q, STRAIGHT, SWERVE, PayoffTemplate
from .equilibrium import BimatrixGame
from .errors import ValidationError

PD = "pd"
CHICKEN = "chicken"


@dataclass(frozen=True)
class PDPayoffs:
    """Prisoner's dilemma payoffs: reward r, temptation t, sucker s,
    punishment p, with t > r > p > s."""

    r: float
    t: float
    s: float
    p: float

    def __post_init__(self):
        vals = (self.r, self.t, self.s, self.p)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError("payoffs must be finite")
        if not self.t > self.r:
            raise ValidationError(f"t > r violated (t={self.t}, r={self.r})")
        if not self.r > self.p:
            raise ValidationError(f"r > p violated (r={self.r}, p={self.p})")
        if not self.p > self.s:
            raise ValidationError(f"p > s violated (p={self.p}, s={self.s})")


@dataclass(frozen=True)
class ChickenPayoffs:
    """Chicken payoffs: reputation r, injury cost s.  Nominally s > r > 0;
    s == r is accepted with a warning so equal-payoff sweeps stay runnable."""

    r: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.s)):
            raise ValidationError("payoffs must be finite")
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
        m = np.asarray(self.row_payoffs, dtype=float)
        object.__setattr__(self, "row_payoffs", m)
        object.__setattr__(self, "block_id", Block(self.block_id))
        if m.shape[-2:] != (2, 2) or m.ndim > 3 or not np.isfinite(m).all():
            raise ValidationError("block must be a finite 2x2 matrix or a stack of them")

    @property
    def labels(self) -> tuple[str, str]:
        """Row/column strategy labels, in the block's ordering."""
        return tuple(s.label for s in _BLOCK_STRATEGIES[self.block_id][1])

    def as_game(self) -> BimatrixGame:
        """The block as a symmetric two-player game (column = row transposed)."""
        if self.row_payoffs.ndim != 2:
            raise ValidationError("as_game takes one 2x2 block, not a stack along gamma")
        return BimatrixGame(self.row_payoffs, self.row_payoffs.T, self.labels)


def pd_templates(p: PDPayoffs) -> tuple[PayoffTemplate, PayoffTemplate]:
    """Outcome payoff templates (row player, column player); |0> means
    cooperate, |1> means defect."""
    row = PayoffTemplate(v00=p.r, v10=p.t, v01=p.s, v11=p.p)
    col = PayoffTemplate(v00=p.r, v10=p.s, v01=p.t, v11=p.p)
    return row, col


def chicken_templates(c: ChickenPayoffs) -> tuple[PayoffTemplate, PayoffTemplate]:
    """Outcome templates with |0> as swerve and |1> as straight."""
    row = PayoffTemplate(v00=0.0, v10=c.r, v01=-c.r, v11=-c.s)
    col = PayoffTemplate(v00=0.0, v10=-c.r, v01=c.r, v11=-c.s)
    return row, col


# One row per game kind: payoff type, templates, 3x3 order, block whose field changes sign,
# and cos(2 gamma*) at that sign change in closed form, the cross-check of the bisection.
GAMES = {
    PD: (PDPayoffs, pd_templates, (C, D, Q), Block.QVD, lambda p: (p.r - p.p) / (p.t - p.s)),
    CHICKEN: (ChickenPayoffs, chicken_templates, (SWERVE, STRAIGHT, Q), Block.QVSTRAIGHT,
              lambda c: c.s / (2.0 * c.r)),
}


def _templates_for(game_kind: str, payoffs):
    if game_kind not in GAMES:
        raise ValidationError(f"unknown game kind {game_kind!r}; expected one of {tuple(GAMES)}")
    payoff_type, templates, *_ = GAMES[game_kind]
    if not isinstance(payoffs, payoff_type):
        raise ValidationError(
            f"{game_kind} needs {payoff_type.__name__}, got {type(payoffs).__name__}"
        )
    return templates(payoffs)


def quantized_game(game_kind: str, payoffs, gamma: float) -> BimatrixGame:
    """Full 3x3 bimatrix over the classical pair plus the quantum strategy."""
    row_t, col_t = _templates_for(game_kind, payoffs)
    strategies = GAMES[game_kind][2]
    row, col = eisert.extended_matrix(row_t, col_t, strategies, gamma)
    return BimatrixGame(row, col, tuple(s.label for s in strategies))


def extract_block(game_kind: str, payoffs, block_id, gamma):
    """Row-player 2x2 block for one strategy pairing, computed by the circuit.

    A float gamma gives a (2, 2) block; a 1-D gamma grid gives one block
    stacked along the grid, (G, 2, 2), from one pass of the circuit.
    """
    block_id = Block(block_id)
    kind_required, strategies = _BLOCK_STRATEGIES[block_id]
    if game_kind != kind_required:
        raise ValidationError(f"block {block_id.value} belongs to game kind {kind_required!r}")
    row_t, col_t = _templates_for(game_kind, payoffs)
    row, _ = eisert.extended_matrix(row_t, col_t, strategies, gamma)
    return StrategyBlock(row, block_id)
