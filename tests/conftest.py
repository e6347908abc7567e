"""Shared test oracles: closed-form block matrices, the classical games,
the strategies' angles and operator products, the entangling gate entry by entry, the
circuit's final state of one strategy pair, its payoffs built without a cache (and with exact int
weights), a fixture that counts circuit runs with the caches emptied,
NumPy-scalar references for
the block -> (J, h, m) step, logit play of a block on a ring of players,
the finite chain's magnetization at 60 digits, the one-midpoint-at-a-time
bisection, payoff generators, and the path of the qgames package under test in the
report header.

The closed forms live here, outside the library, so the circuit-derived
blocks are always checked against an independent route.
"""

import math
import os

import mpmath
import numpy as np
import pytest

import qgames
from qgames import BimatrixGame, ChickenPayoffs, PDPayoffs, catalog, eisert, ising
from qgames.eisert import (
    GAMMA_RANGE, C, D, Q, _circuit, _entangler, _strategy_operator, check_gamma,
)


def pytest_report_header(config):
    """Where qgames was imported from: pyproject.toml's `pythonpath = ["src"]` puts this
    checkout's src ahead of PYTHONPATH, so a run meant for another tree shows it here."""
    return f"qgames: {os.path.dirname(qgames.__file__)}"


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
    """Classical prisoner's dilemma over (C, D)."""
    m = classical_pd_matrix(p)
    return BimatrixGame(m, ("C", "D"))


def classical_chicken_game(c: ChickenPayoffs) -> BimatrixGame:
    """Classical chicken over (straight, swerve)."""
    m = classical_chicken_matrix(c)
    return BimatrixGame(m, ("straight", "swerve"))


def entangler(gamma) -> np.ndarray:
    """The entangling gate at a float gamma or a 1-D gamma grid, range-checked
    as the circuit checks it."""
    return _entangler(check_gamma(gamma))


def reference_entangler(g: np.ndarray) -> np.ndarray:
    """The entangling gate at a checked gamma, entry by entry: cos(gamma/2) on the diagonal,
    +i sin(gamma/2) linking |00> and |11>, -i sin(gamma/2) linking |01> and |10>.  The bits
    of eisert's `_entangler` are checked against it, and the circuit reference is built on it."""
    c = np.cos(g / 2)
    s = np.sin(g / 2)
    lhat = np.zeros(g.shape + (4, 4), dtype=complex)
    lhat[..., 0, 0] = lhat[..., 1, 1] = lhat[..., 2, 2] = lhat[..., 3, 3] = c
    lhat[..., 0, 3] = lhat[..., 3, 0] = 1j * s
    lhat[..., 1, 2] = lhat[..., 2, 1] = -1j * s
    return lhat


#: (theta, phi) of each strategy, read here so the references build their operators
#: apart from eisert's import-time product table.
ANGLES = {C: (0.0, 0.0), D: (math.pi, 0.0), Q: (0.0, math.pi / 2)}


def products(angles) -> np.ndarray:
    """O_i (x) O_j over every ordered pair of a sequence of (theta, phi) angle pairs,
    shape (n, n, 4, 4), each operator from eisert's formula."""
    ops = np.array([_strategy_operator(theta, phi) for theta, phi in angles])
    n = len(ops)
    return (ops[:, None, :, None, :, None] * ops[None, :, None, :, None, :]).reshape(n, n, 4, 4)


def final_state(s1, s2, gamma) -> np.ndarray:
    """L^dag (O1 (x) O2) L |00> through the library's circuit for two strategies, each a
    `Strategy` or a (theta, phi) pair of the strategy family; a 1-D gamma grid gives one
    state per gamma."""
    chi, _ = _circuit(products([ANGLES.get(s, s) for s in (s1, s2)]), check_gamma(gamma))
    return chi[..., 0, 1, :]


def uncached_extended_matrix(weights, strategies, gamma):
    """extended_matrix without its caches or its checks: the operators and their products
    built on this call from ANGLES, the gate from `reference_entangler`, applied with `@`
    apart from the library's `tensor`, the final state squared here and weighed by
    `np.array(weights)`."""
    cells = products([ANGLES[s] for s in strategies])
    lhat = reference_entangler(check_gamma(gamma))[..., None, None, :, :]
    chi = (lhat.conj().swapaxes(-1, -2) @ (cells @ lhat[..., :, 0, None]))[..., 0]
    return (chi.conj() * chi).real @ np.array(weights)


def object_weighed(exact, strategies, gamma):
    """The payoffs of exact int weights, in the basis order |00>, |01>, |10>, |11>,
    as an object-array weighing gives them (each product and sum rounded by Python), as
    float64: how int payoffs beyond int64 were once weighed."""
    return uncached_extended_matrix(np.array(exact, dtype=object), strategies, gamma).astype(float)


def clear_circuit_caches():
    """Empty eisert's probability cache and catalog's table cache."""
    eisert._probs.cache_clear()
    catalog._scalar_table.cache_clear()


@pytest.fixture
def circuit_passes(monkeypatch):
    """The checked gamma of every run of eisert._circuit, with the probability
    and table caches empty before and after the test."""
    passes = []
    run = eisert._circuit

    def counted(cells, g):
        passes.append(g)
        return run(cells, g)

    monkeypatch.setattr(eisert, "_circuit", counted)
    clear_circuit_caches()
    yield passes
    clear_circuit_caches()


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
    # -4 (beta J), as ising forms it: (-4 beta) J is -inf times 0 at beta = 1e308, J = 0
    log_den = 0.5 * float(np.logaddexp(2.0 * log_s, -4.0 * (beta * J)))
    return math.copysign(math.exp(min(log_s - log_den, 0.0)), x)


def _field_at(game_kind, payoffs, block_id, gamma):
    # ising.extract_block, not the catalog's, so a test's monkeypatch reaches it
    return ising.to_ising(ising.extract_block(game_kind, payoffs, block_id, gamma), 1.0).h


def reference_bisect(game_kind, payoffs, block_id):
    """phase_transition_bisect as a loop of one scalar circuit run per
    midpoint: the reference for the bits of the bisection whose circuit
    passes run the midpoints of a predicted path."""
    a, b = GAMMA_RANGE
    fa = _field_at(game_kind, payoffs, block_id, a)
    fb = _field_at(game_kind, payoffs, block_id, b)
    if fa == 0.0 and fb == 0.0:
        return None
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        return None
    while b - a > ising._BISECT_TOL:
        mid = 0.5 * (a + b)
        fm = _field_at(game_kind, payoffs, block_id, mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


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
