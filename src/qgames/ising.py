"""Mapping a 2x2 strategy block onto a 1-D spin chain.

The block's row payoffs determine a coupling J and a field h; the closed-form
infinite-chain magnetization

    m = sinh(beta*h) / sqrt(sinh(beta*h)**2 + exp(-4*beta*J))

then reads off the population split between the two strategies.  A sign
change of m along the entanglement axis is the phase transition where the
majority strategy flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Block, extract_block
from .eisert import GAMMA_RANGE
from .errors import ConsistencyError, ValidationError

_BISECT_TOL = 1e-10
_CROSSCHECK_TOL = 1e-9


@dataclass(frozen=True)
class IsingParams:
    """Chain coupling J, external field h, inverse temperature beta
    (Boltzmann constant absorbed into beta)."""

    J: float
    h: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.J) and math.isfinite(self.h) and math.isfinite(self.beta)):
            raise ValidationError("J, h, beta must be finite")
        if self.beta < 0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")


def couplings(row_payoffs) -> list[tuple[float, float]]:
    """(J, h) of each 2x2 block along the leading axis of a StrategyBlock's
    payoffs: one pair at one gamma, G pairs on a (G, 2, 2) stack.

    Shifting each column of the row player's payoffs by a constant keeps
    best responses, hence Nash equilibria; the shift that makes both columns
    antisymmetric turns [[a, b], [c, d]] into the two-site spin table
    [[J+h, -J+h], [-J-h, J-h]].  The (a-c) +/- (b-d) grouping keeps h exactly
    zero when the diagonal entries match and the off-diagonal ones match.
    Read as Python floats: NumPy's IEEE operations, bit for bit, without their overhead.
    """
    return [(((a - c) + (d - b)) / 4.0, ((a - c) + (b - d)) / 4.0)
            for (a, b), (c, d) in row_payoffs.reshape(-1, 2, 2).tolist()]


def to_ising(block, beta: float) -> IsingParams:
    """`couplings` of one 2x2 block, at inverse temperature beta."""
    if block.row_payoffs.ndim != 2:
        raise ValidationError("to_ising takes one 2x2 block, not a stack along gamma")
    ((J, h),) = couplings(block.row_payoffs)
    return IsingParams(J=J, h=h, beta=float(beta))


_LN2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y) in the steps of NumPy's npy_logaddexp, on libm's exp
    and log1p, so it returns np.logaddexp's bits without its overhead."""
    if x == y:  # also equal infinities, without an inf - inf
        return x + _LN2
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    if tmp <= 0:
        return y + math.log1p(math.exp(tmp))
    return tmp  # NaN


def magnetization(ip: IsingParams) -> float:
    """Infinite-chain magnetization, in [-1, 1].

    Below beta*|h| = 20, m = sign(h) * exp(log sinh|beta h| - 1/2 log(sinh^2
    + e^{-4 beta J})); an overflowed e^{-4 beta J} gives exp(-inf) = 0.
    From 20 on, m = sign(h) / sqrt(1 + e^t) with t = -4 beta J - 2 log
    sinh|beta h|, where beta*|h| and -2 beta J meet as 4 beta (-J - |h|/2)
    before either can overflow, so a balanced pair gives t of order 1
    without cancelling two huge exponents.
    """
    x = ip.beta * ip.h
    if x == 0.0:
        # signed zero keeps sign(m) == sign(h) even when beta*h underflows
        # or beta is -0.0
        return math.copysign(0.0, ip.h)
    if abs(x) < 20.0:
        log_s = math.log(math.sinh(abs(x)))
        # beta*J first: -4*beta alone overflows from beta ~ 4.5e307
        log_den = 0.5 * _logaddexp(2.0 * log_s, -4.0 * (ip.beta * ip.J))
        return math.copysign(math.exp(min(log_s - log_den, 0.0)), x)
    # log sinh|x| = |x| - log 2 + log1p(-e^{-2|x|})
    t = 4.0 * (ip.beta * (-ip.J - 0.5 * abs(ip.h))) + 2.0 * (_LN2 - math.log1p(-math.exp(-2.0 * abs(x))))
    return math.copysign(math.exp(-0.5 * _logaddexp(0.0, t)), x)


def _field_at(game_kind, payoffs, block_id, gamma: float) -> float:
    return to_ising(extract_block(game_kind, payoffs, block_id, gamma), 1.0).h


def phase_transition_bisect(game_kind, payoffs, block_id):
    """Zero of the field h(gamma) on [0, pi/2] by bisection, or None.

    h is affine in cos(2*gamma), hence monotone on the interval, so a sign
    change brackets exactly one root.  Blocks with h identically zero have
    no sign change and return None.
    """
    block_id = Block(block_id)
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
    while b - a > _BISECT_TOL:
        mid = 0.5 * (a + b)
        fm = _field_at(game_kind, payoffs, block_id, mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _analytic_transition(payoffs, block_id):
    if block_id is Block.QVD:
        arg = (payoffs.r - payoffs.p) / (payoffs.t - payoffs.s)
    elif block_id is Block.QVSTRAIGHT:
        arg = payoffs.s / (2.0 * payoffs.r)
    else:  # h is identically zero or independent of gamma: no crossing
        return None
    return None if arg > 1.0 else 0.5 * math.acos(arg)


def phase_transition_gamma(game_kind, payoffs, block_id):
    """Entanglement value where the field (hence the magnetization) changes
    sign, as the pair (closed form, bisection), or (None, None) when there is
    no crossing.

    The closed-form arccos value is cross-checked against bisection on the
    circuit-derived field; disagreement raises ConsistencyError.
    """
    block_id = Block(block_id)
    numeric = phase_transition_bisect(game_kind, payoffs, block_id)  # validates the inputs
    analytic = _analytic_transition(payoffs, block_id)
    if (analytic is None) != (numeric is None) or (
        analytic is not None and not abs(analytic - numeric) <= _CROSSCHECK_TOL
    ):
        raise ConsistencyError(
            f"transition mismatch for {block_id.value}: analytic={analytic!r}, bisect={numeric!r}"
        )
    return analytic, numeric
