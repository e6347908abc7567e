"""Mapping a 2x2 strategy block onto a 1-D spin chain.

The block's row payoffs determine a coupling J and a field h; the closed-form
infinite-chain magnetization

    m = sinh(beta*h) / sqrt(sinh(beta*h)**2 + exp(-4*beta*J))

then reads off the population split between the two strategies.  A sign
change of m along the entanglement axis is the phase transition where the
majority strategy flips.
"""

import math
from dataclasses import dataclass

from .catalog import GAMES, Block, ChickenPayoffs, PDPayoffs, StrategyBlock, extract_block
from .eisert import GAMMA_RANGE
from .errors import ConsistencyError, ValidationError, check_floats, unchecked

_BISECT_TOL = 1e-10
_CROSSCHECK_TOL = 1e-9


@dataclass(frozen=True)
class IsingParams:
    """Chain coupling J, external field h, inverse temperature beta (Boltzmann constant
    absorbed into beta), stored as floats, so every route reads the same numbers."""

    J: float
    h: float
    beta: float

    def __post_init__(self):
        check_floats(self, "J, h, beta must be finite")
        if self.beta < 0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")


def couplings(block: StrategyBlock) -> list[tuple[float, float]]:
    """(J, h) of each 2x2 block along the leading axis of a StrategyBlock's
    payoffs: one pair at one gamma, G pairs on a (G, 2, 2) stack.

    Shifting each column of the row player's payoffs by a constant keeps
    best responses, hence Nash equilibria; the shift that makes both columns
    antisymmetric turns [[a, b], [c, d]] into the two-site spin table
    [[J+h, -J+h], [-J-h, J-h]].  The (a-c) +/- (b-d) grouping keeps h exactly
    zero when the diagonal entries match and the off-diagonal ones match.
    Where a sum overflows, a pair comes from quarter payoffs, whose sums cannot.
    Read as Python floats: NumPy's IEEE operations, bit for bit, without their overhead.
    """
    if not isinstance(block, StrategyBlock):
        raise ValidationError(f"couplings takes a StrategyBlock, got {type(block).__name__}")
    pairs = []
    for a, b, c, d in block.row_payoffs.reshape(-1, 4).tolist():
        J, h = ((a - c) + (d - b)) / 4.0, ((a - c) + (b - d)) / 4.0
        if not (math.isfinite(J) and math.isfinite(h)):
            a, b, c, d = (0.25 * x for x in (a, b, c, d))
            J, h = (a - c) + (d - b), (a - c) + (b - d)
        pairs.append((J, h))
    return pairs


def to_ising(block, beta: float) -> IsingParams:
    """`couplings` of one 2x2 block, at inverse temperature beta."""
    pairs = couplings(block)  # rejects anything but a StrategyBlock
    if block.row_payoffs.ndim != 2:
        raise ValidationError("to_ising takes one 2x2 block, not a stack along gamma")
    (J, h), = pairs
    return IsingParams(J=J, h=h, beta=beta)


def curve_rows(block: StrategyBlock, betas) -> tuple[list[tuple[float, float]], list[float]]:
    """`couplings(block)`, and m at each (gamma, beta) row, gamma-major, one `magnetization`
    call a row. Each beta passes IsingParams' check once, in order; one params object, never
    handed out, is refilled with the checked floats for each row, without checking again."""
    pairs, ms = couplings(block), []
    betas = [IsingParams(0.0, 0.0, beta).beta for beta in betas]
    # ip never leaves curve_rows, and magnetization keeps no reference to it
    d = vars(ip := unchecked(IsingParams))
    for J, h in pairs:
        d["J"], d["h"] = J, h
        for beta in betas:
            d["beta"] = beta
            ms.append(magnetization(ip))
    return pairs, ms


_LN2 = math.log(2.0)


def magnetization(ip: IsingParams) -> float:
    """Infinite-chain magnetization, in [-1, 1].

    Below beta*|h| = 20, m = sign(h) * exp(log sinh|beta h| - 1/2 log(sinh^2
    + e^{-4 beta J})); an overflowed e^{-4 beta J} gives exp(-inf) = 0.
    From 20 on, m = sign(h) / sqrt(1 + e^t) with t = -4 beta J - 2 log
    sinh|beta h|, where beta*|h| and -2 beta J meet as 4 beta (-J - |h|/2)
    before either can overflow, so a balanced pair gives t of order 1
    without cancelling two huge exponents.
    """
    beta, J, h = ip.beta, ip.J, ip.h
    x = beta * h
    if x == 0.0:
        # signed zero keeps sign(m) == sign(h) even when beta*h underflows
        # or beta is -0.0
        return math.copysign(0.0, h)
    ax = abs(x)
    if ax < 20.0:
        log_s = math.log(math.sinh(ax))
        # beta*J first: -4*beta alone overflows from beta ~ 4.5e307
        a, b = 2.0 * log_s, -4.0 * (beta * J)
    else:  # m = sign(h) exp(0 - 1/2 log(e^0 + e^t)), b = t; log sinh|x| is |x| - log 2
        # + log1p(-e^{-2|x|}), whose last term, under 4.3e-18, is below half an ulp of log 2
        log_s = a = 0.0
        b = 4.0 * (beta * (-J - 0.5 * abs(h))) + 2.0 * _LN2
    # log(e^a + e^b) in the steps of NumPy's npy_logaddexp, on libm's exp and
    # log1p, so it keeps np.logaddexp's bits without its overhead
    if a == b:  # also equal infinities, without an inf - inf
        lse = a + _LN2
    elif (d := a - b) > 0:
        lse = a + math.log1p(math.exp(-d))
    else:  # d <= 0; a NaN d gives NaN here too
        lse = b + math.log1p(math.exp(d))
    # lse >= a = 2 log_s under monotone rounding, so m <= 1 needs no clamp
    return math.copysign(math.exp(log_s - 0.5 * lse), x)


def phase_transition_bisect(game_kind, payoffs, block_id):
    """Zero of the field h(gamma) on [0, pi/2] by bisection, or None.

    h is affine in cos(2*gamma), hence monotone on the interval, so a sign
    change brackets exactly one root.  Blocks with h identically zero have
    no sign change and return None.

    The endpoints read the games' cached circuit runs at 0 and pi/2.  Each circuit pass runs
    the midpoints the loop visits if h is affine in cos(2*gamma) on the current bracket; the
    loop walks them until its midpoint leaves that path, then predicts again from there.
    """
    a, b = GAMMA_RANGE
    fa = to_ising(extract_block(game_kind, payoffs, block_id, a), 1.0).h
    fb = to_ising(extract_block(game_kind, payoffs, block_id, b), 1.0).h
    if fa == 0.0 and fb == 0.0:
        return None
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        return None
    while b - a > _BISECT_TOL:
        ca, cb = math.cos(2.0 * a), math.cos(2.0 * b)
        root = ca + (cb - ca) / (1.0 - fb / fa)  # cos(2*gamma*); fb/fa < 0, so never NaN
        lo, hi, mids = a, b, []
        while hi - lo > _BISECT_TOL:  # cos(2*gamma) falls on [0, pi/2]
            mids.append(m := 0.5 * (lo + hi))
            lo, hi = (m, hi) if math.cos(2.0 * m) > root else (lo, m)
        pairs = couplings(extract_block(game_kind, payoffs, block_id, mids))
        for mid, (_, fm) in zip(mids, pairs):
            if mid != 0.5 * (a + b):  # the bisection left the predicted path
                break
            if fm == 0.0:
                return mid
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b, fb = mid, fm
    return 0.5 * (a + b)


def _unit_scaled(payoffs):
    """The payoffs times the power of two that puts the largest |payoff| in
    [0.5, 1), or the payoffs as given where that scaling would round one.

    gamma* depends only on payoff ratios, and an exact power-of-two scaling
    keeps every ratio, so both routes see the same game at full precision
    where subnormal payoffs would lose bits in every sum.
    """
    values = vars(payoffs)
    shift = -math.frexp(max(abs(v) for v in values.values()))[1]
    scaled = {k: math.ldexp(v, shift) for k, v in values.items()}
    if any(math.ldexp(scaled[k], -shift) != v for k, v in values.items()):
        return payoffs
    # exact, so the checks the caller's payoffs passed hold (and chicken's s == r warns once)
    return unchecked(type(payoffs), **scaled)


def phase_transition_gamma(game_kind, payoffs, block_id):
    """Entanglement value where the field (hence the magnetization) changes
    sign, as the pair (closed form, bisection), or (None, None) when there is
    no crossing.

    Both routes take the payoffs scaled by `_unit_scaled`. The closed-form
    arccos value is cross-checked against bisection on the circuit-derived
    field; disagreement raises ConsistencyError.
    """
    block_id = Block(block_id)
    if isinstance(payoffs, (PDPayoffs, ChickenPayoffs)):  # anything else fails validation below
        payoffs = _unit_scaled(payoffs)
    numeric = phase_transition_bisect(game_kind, payoffs, block_id)  # validates the inputs
    game = GAMES[game_kind]
    analytic = None
    if block_id is game.transition_block:  # any other block's h is zero or independent of gamma
        arg = game.cos_2gamma(payoffs)
        analytic = None if arg > 1.0 else 0.5 * math.acos(arg)
    if (analytic is None) != (numeric is None) or (
        analytic is not None and not abs(analytic - numeric) <= _CROSSCHECK_TOL
    ):
        raise ConsistencyError(
            f"transition mismatch for {block_id.value}: analytic={analytic!r}, bisect={numeric!r}"
        )
    return analytic, numeric
