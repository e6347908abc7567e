"""Two-qubit game quantization.

The protocol: entangle |00> with a gate L(gamma), let each player act with a
local unitary O(theta, phi), disentangle with L^dag, and measure.  Payoffs
are the measurement probabilities weighted by the row player's payoffs of the
outcomes |00>, |01>, |10>, |11>, in that basis order.  gamma=0 reproduces the
classical game, gamma=pi/2 is maximal entanglement.

Players pick from the paper's three strategies, the members C, D, Q of `Strategy`, whose
operator products are built once at import (`_CELLS`).  The circuit runs as one vectorized pass
over the nine ordered pairs of the one order (C, D, Q) and, when gamma is a 1-D grid, over every
gamma of the grid.  No payoff enters its probabilities, so `_probs` caches them per gamma bits
(16 runs of at most _CACHED_GAMMAS gammas, 9 cells of 32 bytes each: 4.7 MB), and each call
weighs them with its payoffs into a fresh array.
"""

from __future__ import annotations

import functools
import math
from enum import IntEnum

import numpy as np

from . import tensor
from .errors import ConsistencyError, ValidationError, real, real_array

GAMMA_RANGE = (0.0, math.pi / 2)

#: A final state whose norm drifts further from 1 means a non-unitary
#: operator slipped into the circuit: an internal defect.
NORM_DRIFT_TOL = 1e-10

#: Weighed by probabilities that sum to 1 within NORM_DRIFT_TOL, payoffs this small cannot overflow.
_SAFE_PAYOFF = 2.0**1023

#: A run over a longer gamma grid is not cached.
_CACHED_GAMMAS = 1024


class Strategy(IntEnum):
    """The strategies of both games, cooperate C = O(0, 0), defect D = O(pi, 0) and quantum
    Q = O(0, pi/2), cooperate read as swerve and defect as straight; each is the index of its
    operator in `_CELLS`."""

    C = 0
    D = 1
    Q = 2


#: The one strategy order of both games, rows and columns of every table.
_STRATEGIES = C, D, Q = tuple(Strategy)


def _strategy_operator(theta: float, phi: float) -> np.ndarray:
    """Local strategy unitary
    [[e^{i phi} cos(theta/2), sin(theta/2)],
     [-sin(theta/2),          e^{-i phi} cos(theta/2)]].
    """
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    ph = complex(math.cos(phi), math.sin(phi))
    return np.array([[ph * c, s], [-s, ph.conjugate() * c]], dtype=complex)


# In Strategy's order.  D is [[0, 1], [-1, 0]]: the column-sign convention matters, a literal
# Pauli X would give gamma-independent defect-vs-quantum payoffs.
_OPS = np.array([_strategy_operator(0.0, 0.0), _strategy_operator(math.pi, 0.0),
                 _strategy_operator(0.0, math.pi / 2)])
#: The products O_i (x) O_j of every ordered strategy pair, shape (3, 3, 4, 4), read-only.
_CELLS = (_OPS[:, None, :, None, :, None] * _OPS[None, :, None, :, None, :]).reshape(3, 3, 4, 4)
_CELLS.flags.writeable = False


def check_gamma(gamma) -> np.ndarray:
    """A float gamma or a 1-D gamma grid as a float array, every value in GAMMA_RANGE;
    a gamma not read as real, or its first value outside, is named in the ValidationError."""
    lo, hi = GAMMA_RANGE
    if (g := real_array(gamma)) is None:
        raise ValidationError(f"gamma={gamma!r} is not a real float or a 1-D grid")
    if g.ndim > 1:
        raise ValidationError(f"gamma must be a float or a 1-D grid, got shape {g.shape}")
    if g.ndim == 0 and lo <= g.item() <= hi:  # one float compare, not four NumPy calls
        return g
    ok = (g >= lo) & (g <= hi)  # NaN is out of range too
    if not ok.all():
        raise ValidationError(f"gamma={float(g[~ok][0])!r} outside [{lo!r}, {hi!r}]")
    return g


def _entangler(g: np.ndarray) -> np.ndarray:
    """The 4x4 entangling gate at a checked gamma: cos(gamma/2) on the diagonal,
    +i sin(gamma/2) linking |00> and |11>, -i sin(gamma/2) linking |01> and |10>.
    A 0-d gamma gives one (4, 4) gate, a 1-D gamma grid a (G, 4, 4) stack."""
    c = np.cos(g / 2)
    s = np.sin(g / 2)
    lhat = np.zeros(g.shape + (4, 4), dtype=complex)
    lhat[..., 0, 0] = lhat[..., 1, 1] = lhat[..., 2, 2] = lhat[..., 3, 3] = c
    lhat[..., 0, 3] = lhat[..., 3, 0] = 1j * s
    lhat[..., 1, 2] = lhat[..., 2, 1] = -1j * s
    return lhat


def _circuit(cells, g):
    """Final states L^dag (O_i (x) O_j) L |00> for every product of `cells`, an
    (n, n, 4, 4) stack as `_CELLS` holds them, and their squared amplitudes, read-only:
    shape (n, n, 4) each for a 0-d and (G, n, n, 4) for a 1-D `check_gamma` array.

    One norm check covers every final state; drift (or NaN) means a
    non-unitary operator slipped in and raises ConsistencyError.
    """
    lhat = _entangler(g)[..., None, None, :, :]
    psi0 = lhat[..., :, 0]  # L|00> is the first column of L
    chi = tensor.apply(tensor.adjoint(lhat), tensor.apply(cells, psi0))
    probs = (chi.conj() * chi).real
    probs.flags.writeable = False
    norm = probs.sum(axis=-1)
    drift = ~(np.abs(norm - 1.0) <= NORM_DRIFT_TOL)
    if drift.any():
        at = tuple(int(k) for k in np.argwhere(drift)[0])
        raise ConsistencyError(f"gamma={float(g[at[:-2]])!r}, cell ({at[-2]},{at[-1]}): "
                               f"state norm drifted to {float(norm[at])!r}")
    return chi, probs


@functools.lru_cache(maxsize=16)
def _probs(bits: bytes, shape) -> np.ndarray:
    """`_circuit`'s probabilities over `_CELLS` at the gamma of float64 `bits` and `shape`."""
    return _circuit(_CELLS, np.frombuffer(bits).reshape(shape))[1]


def extended_matrix(weights, strategies, gamma) -> np.ndarray:
    """Row player's expected payoffs over every ordered pair of `strategies`, which must be the
    members C, D, Q in that order (`_STRATEGIES`): shape (3, 3) for a float gamma and (G, 3, 3)
    for a 1-D gamma grid, from one cached pass of the circuit.  `weights` are the row player's
    payoffs of the outcomes |00>, |01>, |10>, |11>: four real scalars (`errors.real`), all finite.
    The protocol is symmetric under swapping the players, so the weights of a
    symmetric game give a symmetric game, which this one table defines
    (`equilibrium.BimatrixGame`).
    """
    try:
        w = [real(v) for v in weights]
    except TypeError:  # not iterable
        w = None
    if w is None or len(w) != 4 or None in w or not all(map(math.isfinite, w)):
        raise ValidationError(f"weights must be 4 finite real scalars, got {weights!r}")
    strategies = tuple(strategies) if np.iterable(strategies) else strategies  # read once
    # by identity: an int, a bool or a NumPy integer compares equal to a member but is not one
    if (not isinstance(strategies, tuple) or len(strategies) != 3
            or any(s is not t for s, t in zip(strategies, _STRATEGIES))):
        raise ValidationError(f"strategies must be (C, D, Q), got {strategies!r}")
    g = check_gamma(gamma)
    probs = (_probs if g.size <= _CACHED_GAMMAS else _probs.__wrapped__)(g.tobytes(), g.shape)
    if max(map(abs, w)) <= _SAFE_PAYOFF:
        return probs @ np.array(w)
    # a probability rounded above 1 can carry a payoff past the float max; the exact payoff
    # is a mean of the weights, so it is clipped to their range
    with np.errstate(over="ignore"):
        return np.clip(probs @ np.array(w), min(w), max(w))
