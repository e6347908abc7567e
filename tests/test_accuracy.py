"""Accuracy of printed numbers against 60-digit references, in ulps scaled by the
inputs' own condition.

A value is held within c * (1 + kappa) ulps of its reference, where kappa is its
relative condition number in its inputs (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., ch. 1): rounding the inputs alone moves it by
about kappa ulps, so no float route can promise less.
"""

import math

import mpmath
import numpy as np

from qgames.ising import IsingParams, magnetization

#: Largest error / (1 + kappa), in ulps, allowed in `magnetization`'s weak-field branch.
WEAK_FIELD_ULPS = 8.0


def mp_magnetization_and_kappa(J: float, h: float, beta: float):
    """m = S / sqrt(S^2 + E) at 60 digits, with x = beta h, y = beta J, S = sinh x and
    E = e^{-4y}, and its condition number kappa = |x A| + |y B| + |x A + y B|, where
    q = E / (S^2 + E), A = coth(x) q and B = 2 q are m's log-derivatives in x and y."""
    with mpmath.workdps(60):
        x, y = mpmath.mpf(beta) * h, mpmath.mpf(beta) * J  # exact: 60 digits hold the products
        s, e = mpmath.sinh(x), mpmath.exp(-4 * y)
        q = e / (s * s + e)
        a, b = mpmath.cosh(x) / s * q, 2 * q
        return s / mpmath.sqrt(s * s + e), float(abs(x * a) + abs(y * b) + abs(x * a + y * b))


def test_weak_field_branch_is_within_8_ulps_per_unit_condition():
    """beta |h| < 20 and |m| < 0.5, on seeded draws with |J|, |h| <= 3 and beta log-uniform
    in [1e-3, 10^2.5].  From |m| = 0.5 on, the branch loses about 4 bits near saturation, a
    known defect left out here."""
    rng = np.random.default_rng(11)
    n = 3500
    draws = zip(rng.uniform(-3, 3, n).tolist(), rng.uniform(-3, 3, n).tolist(),
                (10.0 ** rng.uniform(-3, 2.5, n)).tolist())
    checked, worst = 0, (0.0, ())
    for J, h, beta in draws:
        if not abs(beta * h) < 20.0:
            continue
        want, kappa = mp_magnetization_and_kappa(J, h, beta)
        if not abs(want) < 0.5:
            continue
        got = magnetization(IsingParams(J, h, beta))
        ulps = float(abs(got - want)) / math.ulp(float(want)) / (1.0 + kappa)
        worst = max(worst, (ulps, (J, h, beta)))
        checked += 1
    assert checked >= 1500  # the band is not left empty by the filters
    assert worst[0] <= WEAK_FIELD_ULPS, worst
