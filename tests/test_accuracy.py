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
import pytest

from qgames.ising import IsingParams, magnetization

#: Largest error / (1 + kappa), in ulps, allowed in `magnetization` outside the saturation band.
ULPS_PER_CONDITION = 8.0

#: Largest error / (1 + kappa), in ulps, measured in the saturation band (beta |h| < 20,
#: |m| >= 0.5), where a known defect loses about 4 bits: 16.2 at SATURATION_POINT.
SATURATION_ULPS = 16.5
SATURATION_POINT = (-0.714224435202583, 2.068374604046931, 8.437271289244423)


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


@pytest.fixture(scope="module")
def draws():
    """(J, h, beta, m, kappa) of 3500 seeded draws with |J|, |h| <= 3 and beta log-uniform
    in [1e-3, 10^2.5], m and kappa at 60 digits."""
    rng = np.random.default_rng(11)
    n = 3500
    params = zip(rng.uniform(-3, 3, n).tolist(), rng.uniform(-3, 3, n).tolist(),
                 (10.0 ** rng.uniform(-3, 2.5, n)).tolist())
    return [(J, h, beta, *mp_magnetization_and_kappa(J, h, beta)) for J, h, beta in params]


def worst_error(points):
    """The largest error / (1 + kappa) of `magnetization`, in ulps of m, over
    (J, h, beta, m, kappa) points, with its (J, h, beta)."""
    worst = (0.0, ())
    for J, h, beta, want, kappa in points:
        got = magnetization(IsingParams(J, h, beta))
        ulps = float(abs(got - want)) / math.ulp(float(want)) / (1.0 + kappa)
        worst = max(worst, (ulps, (J, h, beta)))
    return worst


def test_strong_field_branch_is_within_8_ulps_per_unit_condition(draws):
    """beta |h| >= 20, where m = sign(h) / sqrt(1 + e^t)."""
    band = [p for p in draws if abs(p[2] * p[1]) >= 20.0]
    assert len(band) >= 500  # the band is not left empty by the filter
    worst = worst_error(band)
    assert worst[0] <= ULPS_PER_CONDITION, worst


def test_weak_field_branch_is_within_8_ulps_per_unit_condition(draws):
    """beta |h| < 20 and |m| < 0.5, where m = exp(log sinh|x| - lse/2)."""
    band = [p for p in draws if abs(p[2] * p[1]) < 20.0 and abs(p[3]) < 0.5]
    assert len(band) >= 1500
    worst = worst_error(band)
    assert worst[0] <= ULPS_PER_CONDITION, worst


def test_saturation_band_keeps_the_measured_bound_of_its_known_defect(draws):
    """beta |h| < 20 and |m| >= 0.5, on the seeded draws and SATURATION_POINT.  Known defect:
    the weak-field form m = exp(log sinh|x| - lse/2) takes a difference of two values near
    beta |h|, each rounded to about an ulp of beta |h|, and where |m| is near 1 that rounding
    stays in m.  The strong-field form keeps it under 2 ulps there, but moves printed bits,
    so this pins today's loss until a mend brings the band under ULPS_PER_CONDITION."""
    band = [p for p in draws if abs(p[2] * p[1]) < 20.0 and abs(p[3]) >= 0.5]
    assert len(band) >= 500
    band.append((*SATURATION_POINT, *mp_magnetization_and_kappa(*SATURATION_POINT)))
    worst = worst_error(band)
    assert worst[0] <= SATURATION_ULPS, worst
