"""Finite symmetric games and the two equilibrium notions the analysis needs:
weak pure-Nash enumeration and the interior mixed point of a 2x2 game."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, real_array

# Payoffs downstream are products of trig factors, so best-response ties are
# detected with a tolerance rather than exact comparison.
BEST_RESPONSE_TOL = 1e-9


@dataclass(frozen=True)
class BimatrixGame:
    """A symmetric n-strategy-per-player game: the row player's payoff matrix plus labels."""

    row: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        row = real_array(self.row)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if n < 2:
            raise ValidationError("a game needs at least 2 strategies")
        if len(set(self.labels)) != n:
            raise ValidationError(f"strategy labels must be distinct, got {self.labels}")
        if row is not None and row.shape != (n, n):
            raise ValidationError(f"payoff matrix must be {n}x{n}, got {row.shape}")
        if row is None or not np.isfinite(row).all():
            raise ValidationError("payoffs must be finite")

    @property
    def n(self) -> int:
        return len(self.labels)

    def label_cell(self, cell):
        i, j = cell
        return (self.labels[i], self.labels[j])


def pure_nash(game: BimatrixGame):
    """All cells where both players weakly best-respond, in row-major order.

    Ties within BEST_RESPONSE_TOL count as best responses, so degenerate
    games report every tied cell rather than none.  Read on Python floats: the same IEEE compares
    as on the array, without NumPy's per-call cost on a small table.
    """
    rows = game.row.tolist()
    bars = [max(col) - BEST_RESPONSE_TOL for col in zip(*rows)]
    # best[i][j]: row i is a best response to column j; best[j][i] the same for the column player
    best = [[x >= bar for x, bar in zip(row, bars)] for row in rows]
    return [(i, j) for i, row in enumerate(best) for j, b in enumerate(row) if b and best[j][i]]


@dataclass(frozen=True)
class MixedProfile:
    """Symmetric mixed profile: both players put weight p on the first
    listed strategy."""

    p: float


def mixed_nash_symmetric_2x2(game: BimatrixGame):
    """Interior indifference equilibrium of a symmetric 2x2 game, or None.

    Solves for the opponent mix that makes both strategies payoff-equal.
    Returns None when no interior solution exists; a solution within
    BEST_RESPONSE_TOL of p=0 or p=1 is degenerate and also reported as None,
    with a warning.
    """
    if game.n != 2:
        raise ValidationError("mixed solver handles 2x2 games only")
    (a, b), (c, d) = game.row.tolist()
    den = (a - c) + (d - b)
    if not math.isfinite(den):  # overflowed; a quarter of each payoff is exact and p is scale-free
        a, b, c, d = (0.25 * x for x in (a, b, c, d))
        den = (a - c) + (d - b)
    if den == 0.0:
        warnings.warn("degenerate game: both strategies always tie, no unique mixed point")
        return None
    p = (d - b) / den
    if p <= BEST_RESPONSE_TOL or p >= 1.0 - BEST_RESPONSE_TOL:
        if abs(p) <= BEST_RESPONSE_TOL or abs(1.0 - p) <= BEST_RESPONSE_TOL:
            warnings.warn(f"indifference point p={p!r} sits on the boundary; degenerate")
        return None
    return MixedProfile(p)
