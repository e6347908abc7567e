"""Two-qubit game quantization.

The protocol: entangle |00> with a gate L(gamma), let each player act with a
local unitary O(theta, phi), disentangle with L^dag, and measure.  Payoffs
are the measurement probabilities weighted by a per-player payoff template.
gamma=0 reproduces the classical game, gamma=pi/2 is maximal entanglement.

The circuit runs as one vectorized pass over every ordered strategy pair
and, when gamma is a 1-D grid, over every gamma of the grid.  It returns
payoff arrays; `catalog` wraps them into games and blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ConsistencyError, ValidationError

#: Allowed parameter ranges of the two-parameter strategy family.
THETA_RANGE = (0.0, math.pi)
PHI_RANGE = (0.0, math.pi / 2)
GAMMA_RANGE = (0.0, math.pi / 2)

#: A final state whose norm drifts further from 1 means a non-unitary
#: operator slipped into the circuit: an internal defect.
NORM_DRIFT_TOL = 1e-10


@dataclass(frozen=True)
class Strategy:
    """A named point of the strategy family O(theta, phi)."""

    label: str
    theta: float
    phi: float


# The five named strategies the games use.  "Defect"/"straight" is O(pi, 0),
# i.e. [[0, 1], [-1, 0]]: the column-sign convention matters, a literal
# Pauli X would give gamma-independent defect-vs-quantum payoffs.
C = Strategy("C", 0.0, 0.0)
D = Strategy("D", math.pi, 0.0)
Q = Strategy("Q", 0.0, math.pi / 2)
SWERVE = Strategy("swerve", 0.0, 0.0)
STRAIGHT = Strategy("straight", math.pi, 0.0)


@dataclass(frozen=True)
class PayoffTemplate:
    """One player's payoff for each measured two-qubit outcome."""

    v00: float
    v10: float
    v01: float
    v11: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.v00, self.v10, self.v01, self.v11)):
            raise ValidationError("payoff template entries must be finite")

    @property
    def weights(self) -> np.ndarray:
        """The payoffs in the basis order |00>, |01>, |10>, |11> of a state."""
        return np.array([self.v00, self.v01, self.v10, self.v11])


def _check_range(name, value, lo, hi):
    if not (math.isfinite(value) and lo <= value <= hi):
        raise ValidationError(f"{name}={value!r} outside [{lo:.6g}, {hi:.6g}]")


def strategy_operator(theta: float, phi: float) -> np.ndarray:
    """Local strategy unitary
    [[e^{i phi} cos(theta/2), sin(theta/2)],
     [-sin(theta/2),          e^{-i phi} cos(theta/2)]].
    """
    _check_range("theta", theta, *THETA_RANGE)
    _check_range("phi", phi, *PHI_RANGE)
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    ph = complex(math.cos(phi), math.sin(phi))
    return np.array([[ph * c, s], [-s, ph.conjugate() * c]], dtype=complex)


def entangler(gamma) -> np.ndarray:
    """The 4x4 entangling gate: cos(gamma/2) on the diagonal, +i sin(gamma/2)
    linking |00> and |11>, -i sin(gamma/2) linking |01> and |10>.

    A float gamma gives one (4, 4) gate, a 1-D gamma grid a (G, 4, 4) stack.
    """
    g = np.asarray(gamma, dtype=float)
    if g.ndim > 1:
        raise ValidationError(f"gamma must be a float or a 1-D grid, got shape {g.shape}")
    lo, hi = GAMMA_RANGE
    bad = ~((g >= lo) & (g <= hi))  # NaN is out of range too
    if bad.any():
        raise ValidationError(f"gamma={float(g[bad][0])!r} outside [{lo!r}, {hi!r}]")
    c = np.cos(g / 2)
    s = np.sin(g / 2)
    lhat = np.zeros(g.shape + (4, 4), dtype=complex)
    lhat[..., 0, 0] = lhat[..., 1, 1] = lhat[..., 2, 2] = lhat[..., 3, 3] = c
    lhat[..., 0, 3] = lhat[..., 3, 0] = 1j * s
    lhat[..., 1, 2] = lhat[..., 2, 1] = -1j * s
    return lhat


def _circuit(row_ops, col_ops, gamma) -> np.ndarray:
    """Final states L^dag (O_i (x) O_j) L |00> for every row operator O_i and
    column operator O_j, shape (n, m, 4) for a float gamma and (G, n, m, 4)
    for a 1-D grid.

    One norm check covers every final state; drift (or NaN) means a
    non-unitary operator slipped in and raises ConsistencyError.
    """
    lhat = entangler(gamma)[..., None, None, :, :]
    n, m = len(row_ops), len(col_ops)
    cells = (row_ops[:, None, :, None, :, None] * col_ops[None, :, None, :, None, :]).reshape(
        n, m, 4, 4
    )
    psi0 = lhat[..., :, 0]  # L|00> is the first column of L
    chi = tensor.apply(tensor.adjoint(lhat), tensor.apply(cells, psi0))
    norm = (chi.conj() * chi).real.sum(axis=-1)
    drift = ~(np.abs(norm - 1.0) <= NORM_DRIFT_TOL)
    if drift.any():
        at = tuple(int(k) for k in np.argwhere(drift)[0])
        g = float(np.asarray(gamma, dtype=float)[at[:-2]])
        raise ConsistencyError(
            f"gamma={g!r}, cell ({at[-2]},{at[-1]}): state norm drifted to {float(norm[at])!r}"
        )
    return chi


def extended_matrix(
    row_template: PayoffTemplate,
    col_template: PayoffTemplate,
    strategies,
    gamma,
):
    """Expected payoffs (row, col) over every ordered strategy pair, each of
    shape (n, n) for a float gamma and (G, n, n) for a 1-D gamma grid, all
    from one pass of the circuit.
    """
    if not strategies:
        raise ValidationError("need at least one strategy")
    ops = np.array([strategy_operator(s.theta, s.phi) for s in strategies])
    chi = _circuit(ops, ops, gamma)
    w = (chi.conj() * chi).real
    return w @ row_template.weights, w @ col_template.weights
