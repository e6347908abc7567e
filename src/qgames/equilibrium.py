"""Finite bimatrix games and the two equilibrium notions the analysis needs:
weak pure-Nash enumeration and the interior mixed point of a symmetric 2x2
game."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Payoffs downstream are products of trig factors, so best-response ties are
# detected with a tolerance rather than exact comparison.
BEST_RESPONSE_TOL = 1e-9


@dataclass(frozen=True)
class BimatrixGame:
    """An n-strategy-per-player game: row/col payoff matrices plus labels."""

    row: np.ndarray
    col: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        row = np.asarray(self.row, dtype=float)
        col = np.asarray(self.col, dtype=float)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if n < 2:
            raise ValidationError("a game needs at least 2 strategies")
        if len(set(self.labels)) != n:
            raise ValidationError(f"strategy labels must be distinct, got {self.labels}")
        if row.shape != (n, n) or col.shape != (n, n):
            raise ValidationError(
                f"payoff matrices must be {n}x{n}, got {row.shape} and {col.shape}"
            )
        if not (np.isfinite(row).all() and np.isfinite(col).all()):
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
    games report every tied cell rather than none.
    """
    r, c = game.row, game.col
    rbest = r.max(axis=0) - BEST_RESPONSE_TOL  # best row payoff per column, less the tie margin
    cbest = c.max(axis=1) - BEST_RESPONSE_TOL  # best column payoff per row, less the tie margin
    out = []
    for i in range(game.n):
        for j in range(game.n):
            if r[i, j] >= rbest[j] and c[i, j] >= cbest[i]:
                out.append((i, j))
    return out


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
    row, col = game.row.tolist(), game.col.tolist()
    # np.allclose(col, row.T, rtol=0.0, atol=BEST_RESPONSE_TOL) without its NumPy
    # overhead; payoffs are finite, so this is the same decision
    if any(abs(col[i][j] - row[j][i]) > BEST_RESPONSE_TOL for i in (0, 1) for j in (0, 1)):
        raise ValidationError("game is not symmetric (col payoffs != row payoffs transposed)")
    (a, b), (c, d) = game.row
    den = (a - c) + (d - b)
    if den == 0.0:
        warnings.warn("degenerate game: both strategies always tie, no unique mixed point")
        return None
    p = (d - b) / den
    if p <= BEST_RESPONSE_TOL or p >= 1.0 - BEST_RESPONSE_TOL:
        if abs(p) <= BEST_RESPONSE_TOL or abs(1.0 - p) <= BEST_RESPONSE_TOL:
            warnings.warn(f"indifference point p={p!r} sits on the boundary; degenerate")
        return None
    return MixedProfile(float(p))
