"""Validated payoffs of the two games and extraction of the 2x2
classical-vs-quantum strategy blocks.

Blocks come from the quantization circuit, never from closed-form matrices (the
tests hold those).  Each call reads its game's payoffs weighed over the one 3x3 strategy order
(C, D, Q) of `eisert.Strategy`, kept per weights and real gamma (`_scalar_table`), and a block is
indexed from that table; the circuit behind it reads eisert's import-time operator products and
caches its probabilities per gamma, so both games share its runs.
"""

import collections
import functools
import struct
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import eisert
from .eisert import _STRATEGIES, C, D, Q
from .equilibrium import BimatrixGame
from .errors import ValidationError, check_floats, real, real_array, unchecked

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
        return _BLOCKS[self.block_id].labels

    def as_game(self) -> BimatrixGame:
        """The block as a symmetric two-player game, of payoffs and labels it has checked."""
        if self.row_payoffs.ndim != 2:
            raise ValidationError("as_game takes one 2x2 block, not a stack along gamma")
        return unchecked(BimatrixGame, row=self.row_payoffs, labels=self.labels)


def _pd_cos_2gamma(p: PDPayoffs) -> float:
    """(r - p) / (t - s), from halved payoffs where t - s overflows."""
    den = p.t - p.s  # positive, since t > s
    if den < np.inf:
        return (p.r - p.p) / den
    return (p.r / 2 - p.p / 2) / (p.t / 2 - p.s / 2)


# One row per game kind: its payoff type, the row player's weights of the outcomes |00>, |01>,
# |10>, |11> (|0> cooperate or swerve, |1> defect or straight), the labels of _STRATEGIES, the
# transition block, whose field changes sign, and cos(2 gamma*) there in closed form, the
# bisection's check. Chicken's s / (2 r) is formed as (s / r) / 2: the same bits where 2 r is
# finite, and finite where it is not.
_Game = collections.namedtuple("_Game", "payoffs weights labels transition_block cos_2gamma")
GAMES = {
    PD: _Game(PDPayoffs, lambda p: (p.r, p.s, p.t, p.p), ("C", "D", "Q"), Block.QVD,
              _pd_cos_2gamma),
    CHICKEN: _Game(ChickenPayoffs, lambda c: (0.0, -c.r, c.r, -c.s), ("swerve", "straight", "Q"),
                   Block.QVSTRAIGHT, lambda c: c.s / c.r / 2.0),
}

# One row per block: its game kind, its row/column strategies `cells`, members of the one 3x3
# order _STRATEGIES (cooperate or swerve, defect or straight, quantum) and so their indices in
# it, their labels, and `index`, np.ix_(cells, cells), which reads them as `table[..., i, j]`.
_Block = collections.namedtuple("_Block", "game cells labels index")
_BLOCKS = {block: _Block(game, cells, tuple(GAMES[game].labels[i] for i in cells),
                         np.ix_(cells, cells))
           for block, game, cells in [
               (Block.QVC, PD, (C, Q)), (Block.QVD, PD, (Q, D)), (Block.CLASSICAL_PD, PD, (C, D)),
               (Block.QVSWERVE, CHICKEN, (C, Q)), (Block.QVSTRAIGHT, CHICKEN, (Q, D)),
               (Block.CLASSICAL_CHICKEN, CHICKEN, (D, C))]}


def _table(game_kind: str, payoffs, gamma) -> np.ndarray:
    """The row player's payoffs over the 3x3 strategy order _STRATEGIES: (3, 3) for a float gamma,
    (G, 3, 3) along a 1-D grid, from one `extended_matrix` call on the payoffs' weights: shared
    and read-only at a gamma `errors.real` reads (`_scalar_table`), fresh along a grid."""
    if game_kind not in GAMES:
        raise ValidationError(f"unknown game kind {game_kind!r}; expected one of {tuple(GAMES)}")
    game = GAMES[game_kind]
    if not isinstance(payoffs, game.payoffs):
        raise ValidationError(f"{game_kind} needs {game.payoffs.__name__}, "
                              f"got {type(payoffs).__name__}")
    if (x := real(gamma)) is not None:  # keyed on float64 bits, so -0.0 and 0.0 stay apart
        return _scalar_table(struct.pack("5d", *game.weights(payoffs), x))
    # keywords: perfbench/spans.py reads strategies and gamma by name, or as arguments 2 and 3
    return eisert.extended_matrix(game.weights(payoffs), strategies=_STRATEGIES, gamma=gamma)


@functools.lru_cache(maxsize=16)
def _scalar_table(key: bytes) -> np.ndarray:
    """The table at the four weights and the gamma whose float64 bits `key` packs, read-only; the
    last 16 are kept, so a hit runs neither `extended_matrix` nor its gamma check."""
    *w, x = struct.unpack("5d", key)
    table = eisert.extended_matrix(w, strategies=_STRATEGIES, gamma=x)
    table.flags.writeable = False
    return table


def quantized_game(game_kind: str, payoffs, gamma: float) -> BimatrixGame:
    """Full 3x3 bimatrix over the classical pair plus the quantum strategy, in a fresh array."""
    if (g := eisert.check_gamma(gamma)).ndim:  # refused before the circuit runs
        raise ValidationError("quantized_game takes one gamma, not a grid")
    table = _table(game_kind, payoffs, g)  # checks the game kind before GAMES is read
    return unchecked(BimatrixGame, row=table.copy(), labels=GAMES[game_kind].labels)


def extract_block(game_kind: str, payoffs, block_id, gamma):
    """Row-player 2x2 block for one strategy pairing, computed by the circuit.

    The block's cells of its game's table, copied out fresh: (2, 2) for a float gamma, and
    for a 1-D gamma grid the blocks stacked, (G, 2, 2).  A cell depends only on its own strategy
    pair, so these are the bits of a circuit run over the block's pair alone.
    """
    block_id = Block(block_id)
    row = _BLOCKS[block_id]
    if game_kind != row.game:
        raise ValidationError(f"block {block_id.value} belongs to game kind {row.game!r}")
    i, j = row.index
    return unchecked(StrategyBlock, row_payoffs=_table(game_kind, payoffs, gamma)[..., i, j],
                     block_id=block_id)  # a table of the shape and values it checks
