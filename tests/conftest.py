"""Shared test oracles: closed-form block matrices, the classical games,
the circuit's final state of one strategy pair, NumPy-scalar references for
the block -> (J, h, m) step, logit play of a block on a ring of players,
the finite chain's magnetization at 60 digits, and payoff generators.

The closed forms live here, outside the library, so the circuit-derived
blocks are always checked against an independent route.
"""

import math

import mpmath
import numpy as np

from qgames import BimatrixGame, ChickenPayoffs, PDPayoffs
from qgames.eisert import _circuit, strategy_operator


def qvc_closed_form(p: PDPayoffs, gamma: float) -> np.ndarray:
    """Cooperate-vs-quantum block, rows/cols ordered (C, Q)."""
    a1 = p.r * math.cos(gamma) ** 2 + p.p * math.sin(gamma) ** 2
    return np.array([[p.r, a1], [a1, p.r]])


def qvd_closed_form(p: PDPayoffs, gamma: float) -> np.ndarray:
    """Quantum-vs-defect block, rows/cols ordered (Q, D)."""
    cg2 = math.cos(gamma) ** 2
    sg2 = math.sin(gamma) ** 2
    return np.array(
        [[p.r, p.t * sg2 + p.s * cg2], [p.t * cg2 + p.s * sg2, p.p]]
    )


def qvswerve_closed_form(c: ChickenPayoffs, gamma: float) -> np.ndarray:
    """Swerve-vs-quantum block, rows/cols ordered (swerve, Q)."""
    a1 = -c.s * math.sin(gamma) ** 2
    return np.array([[0.0, a1], [a1, 0.0]])


def qvstraight_closed_form(c: ChickenPayoffs, gamma: float) -> np.ndarray:
    """Quantum-vs-straight block, rows/cols ordered (Q, straight)."""
    rc = c.r * math.cos(2 * gamma)
    return np.array([[0.0, -rc], [rc, -c.s]])


def classical_pd_matrix(p: PDPayoffs) -> np.ndarray:
    return np.array([[p.r, p.s], [p.t, p.p]])


def classical_chicken_matrix(c: ChickenPayoffs) -> np.ndarray:
    return np.array([[-c.s, c.r], [-c.r, 0.0]])


def classical_pd_game(p: PDPayoffs) -> BimatrixGame:
    """Classical prisoner's dilemma over (C, D); the column player's table
    is the row player's transposed."""
    m = classical_pd_matrix(p)
    return BimatrixGame(m, m.T, ("C", "D"))


def classical_chicken_game(c: ChickenPayoffs) -> BimatrixGame:
    """Classical chicken over (straight, swerve)."""
    m = classical_chicken_matrix(c)
    return BimatrixGame(m, m.T, ("straight", "swerve"))


def final_state(s1, s2, gamma) -> np.ndarray:
    """L^dag (O1 (x) O2) L |00> for two strategies through the library's
    circuit; a 1-D gamma grid gives one state per gamma."""
    o1 = strategy_operator(s1.theta, s1.phi)
    o2 = strategy_operator(s2.theta, s2.phi)
    return _circuit(o1[None], o2[None], gamma)[..., 0, 0, :]


def classical_magnetization(beta: float, J: float, h: float) -> float:
    """Direct evaluation of the infinite-chain formula; no overflow guard on
    purpose, so it stays an independent reference in moderate ranges."""
    x = beta * h
    return math.sinh(x) / math.sqrt(math.sinh(x) ** 2 + math.exp(-4.0 * beta * J))


def mpmath_finite_magnetization(n: int, J: float, h: float, beta: float) -> float:
    """Magnetization of the periodic N-site chain at 60 digits:
    (sh/root) (1 - r^N) / (1 + r^N) with r = lambda-/lambda+ of the transfer
    matrix.  Where r < 0, |r| is within 1e-60 of 1 at strong
    antiferromagnetic coupling, so |r|^N goes through log1p of 1 - |r|."""
    with mpmath.workdps(60):
        x = mpmath.mpf(beta) * mpmath.mpf(h)
        k = -2 * mpmath.mpf(beta) * mpmath.mpf(J)
        ch, sh = mpmath.cosh(x), mpmath.sinh(x)
        root = mpmath.sqrt(sh * sh + mpmath.exp(2 * k))
        r = -mpmath.expm1(2 * k) / (ch + root) ** 2
        if r < 0:
            t = n * mpmath.log1p(-2 * ch / (ch + root))  # N log|r|
            plus, minus = 1 + mpmath.exp(t), -mpmath.expm1(t)
            num, den = (plus, minus) if n % 2 else (minus, plus)
        else:
            num, den = 1 - r**n, 1 + r**n
        return float(sh / root * num / den)


def numpy_to_ising(block):
    """(J, h) of a block with to_ising's arithmetic on NumPy scalars, as the
    library did before it read the block as Python floats."""
    (a, b), (c, d) = np.asarray(block.row_payoffs, dtype=float)
    return ((a - c) + (d - b)) / 4.0, ((a - c) + (b - d)) / 4.0


def game_level_magnetization(row_payoffs, beta: float, n: int = 10) -> float:
    """Mean strategy of n players on a ring, each playing the symmetric 2x2
    game of `row_payoffs` with both neighbours under logit choice.  The block's
    first strategy counts +1, its second -1; J and h are never formed.

    A symmetric 2x2 game [[a, b], [c, d]] is a potential game with potential
    phi = [[a - c, 0], [0, d - b]] (Monderer & Shapley), so logit play has the
    stationary law exp(beta * sum over bonds of phi), enumerated here over
    all 2^n profiles.  Pairing each profile with its complement makes the
    mean exactly 0 when phi's diagonal entries are equal.
    """
    (a, b), (c, d) = np.asarray(row_payoffs, dtype=float)
    phi = np.array([[a - c, 0.0], [0.0, d - b]])
    profiles = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # 1 = second strategy
    exponent = beta * phi[profiles, np.roll(profiles, -1, axis=1)].sum(axis=1)
    w = np.exp(exponent - exponent.max())
    spin_mean = (1 - 2 * profiles).mean(axis=1)
    # profile 2^n - 1 - i is the complement of profile i, with the opposite mean
    return float(0.5 * ((w - w[::-1]) @ spin_mean) / w.sum())


def numpy_magnetization(J: float, h: float, beta: float) -> float:
    """magnetization as it was written on np.logaddexp: the reference for the
    bits of the libm-only form."""
    x = beta * h
    if x == 0.0:
        return math.copysign(0.0, h)
    t = abs(x)
    if t < 20.0:
        log_s = math.log(math.sinh(t))
    else:
        log_s = t - math.log(2.0) + math.log1p(-math.exp(-2.0 * t))
    log_den = 0.5 * float(np.logaddexp(2.0 * log_s, -4.0 * beta * J))
    return math.copysign(math.exp(min(log_s - log_den, 0.0)), x)


def random_pd(rng) -> PDPayoffs:
    """Random payoffs with strict ordering t > r > p > s and O(1) gaps."""
    s = rng.uniform(-1.0, 1.0)
    p = s + rng.uniform(0.1, 2.0)
    r = p + rng.uniform(0.1, 2.0)
    t = r + rng.uniform(0.1, 2.0)
    return PDPayoffs(r=r, t=t, s=s, p=p)


def random_chicken(rng, allow_equal=False) -> ChickenPayoffs:
    r = rng.uniform(0.1, 3.0)
    lo = 0.0 if allow_equal else 0.05
    s = r + rng.uniform(lo, 3.0)
    return ChickenPayoffs(r=r, s=s)
