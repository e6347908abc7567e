"""Independent checks of the infinite-chain magnetization formula.

Three routes onto the same finite periodic chain of N spins:

* exact enumeration of all 2**N configurations (N <= 24),
* the 2x2 transfer matrix, differentiated numerically so this route never
  writes down the closed-form magnetization it is meant to validate,
* seeded single-flip Metropolis sampling.

Enumeration and the transfer matrix must agree to ~1e-10; the transfer
matrix approaches the closed form as N grows (when the correlation length
fits inside the chain); Metropolis agrees statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .ising import IsingParams

MAX_ENUM_SITES = 24
_CHUNK_BITS = 20  # enumeration works in slices of at most 2**20 configurations
_FD_STEP = 1e-6   # central-difference step for the transfer-matrix derivative

# Extended precision for the transfer-matrix log-partition: a plain float64
# central difference has a ~5e-9 cancellation floor in the worst corners,
# above the 1e-10 agreement gate with enumeration.
_LD = np.longdouble


@dataclass(frozen=True)
class ChainSpec:
    """A periodic chain of N sites with fixed couplings."""

    N: int
    params: IsingParams

    def __post_init__(self):
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 2):
            raise ValidationError(f"N must be an integer >= 2, got {self.N!r}")


@dataclass(frozen=True)
class SampledEstimate:
    """Monte Carlo estimate with a batch-means standard error."""

    mean: float
    std_error: float
    samples: int
    seed: int


def enumerate_magnetization(spec: ChainSpec) -> float:
    """Exact mean magnetization by summing over every spin configuration.

    Boltzmann weights are rescaled by the running maximum exponent, so large
    beta*N*(|J|+|h|) cannot overflow; chunk order is fixed, which keeps the
    result deterministic.
    """
    n = spec.N
    if n > MAX_ENUM_SITES:
        raise ResourceLimitError(
            f"exact enumeration needs 2**N states; N={n} exceeds the limit of {MAX_ENUM_SITES}"
        )
    beta, J, h = spec.params.beta, spec.params.J, spec.params.h
    total = 1 << n
    step = min(total, 1 << _CHUNK_BITS)
    ks = np.arange(n, dtype=np.uint64)

    gmax = -math.inf
    z = 0.0
    mw = 0.0
    for lo in range(0, total, step):
        codes = np.arange(lo, lo + step, dtype=np.uint64)
        spins = (1 - 2 * ((codes[:, None] >> ks) & 1)).astype(np.int8)
        msum = spins.sum(axis=1, dtype=np.int64)
        bonds = (spins * np.roll(spins, -1, axis=1)).sum(axis=1, dtype=np.int64)
        logw = beta * J * bonds + beta * h * msum  # = -beta * energy
        cmax = float(logw.max())
        w = np.exp(logw - cmax)
        zc = float(w.sum())
        mwc = float((msum * w).sum())
        if cmax > gmax:
            scale = math.exp(gmax - cmax) if math.isfinite(gmax) else 0.0
            z = z * scale + zc
            mw = mw * scale + mwc
            gmax = cmax
        else:
            scale = math.exp(cmax - gmax)
            z += zc * scale
            mw += mwc * scale
    return (mw / n) / z


def _log_partition_per_site(n: int, beta_j, x):
    """(1/N) log Z as a function of x = beta*h, constant offsets dropped.

    Stable for both eigenvalue signs: the near-cancellation of lambda-^N
    against lambda+^N on the antiferromagnetic side goes through
    log1p/expm1 instead of raw subtraction.
    """
    ch = np.cosh(x)
    root = np.sqrt(np.sinh(x) ** 2 + np.exp(_LD(-4.0) * beta_j))
    if root <= ch:  # both eigenvalues non-negative
        corr = np.log1p(((ch - root) / (ch + root)) ** n)
    else:  # lambda- < 0: handle 1 + (lambda-/lambda+)^N carefully
        eta = _LD(2.0) * ch / (ch + root)  # = 1 - |lambda-/lambda+|
        if eta >= 1.0:  # ratio underflowed: the lambda- term is negligible
            corr = _LD(0.0)
        else:
            t = _LD(n) * np.log1p(-eta)
            corr = np.log1p(np.exp(t)) if n % 2 == 0 else np.log(-np.expm1(t))
    return np.log(ch + root) + corr / _LD(n)


def transfer_matrix_finite(spec: ChainSpec) -> float:
    """Exact finite-N magnetization from the 2x2 transfer matrix.

    Computed as the Richardson-extrapolated central difference of the
    per-site log partition with respect to beta*h, step 1e-6.  The numeric
    derivative keeps this route independent of the closed-form result.
    """
    beta_j = _LD(spec.params.beta) * _LD(spec.params.J)
    x0 = _LD(spec.params.beta) * _LD(spec.params.h)
    e = _LD(_FD_STEP)

    def f(x):
        return _log_partition_per_site(spec.N, beta_j, x)

    d1 = (f(x0 + e) - f(x0 - e)) / (2.0 * e)
    d2 = (f(x0 + e / 2) - f(x0 - e / 2)) / e
    return float((4.0 * d2 - d1) / 3.0)


def _metropolis_sweeps(spins, us, accept, out):
    """Run one uniform block of sweeps in place; record mean spin per sweep.

    accept[(s+1)//2 * 3 + (left+right+2)//2] is the acceptance probability
    for flipping a spin of value s with the given neighbour sum.
    """
    n = spins.shape[0]
    for t in range(us.shape[0]):
        for k in range(n):
            s = spins[k]
            left = spins[k - 1] if k > 0 else spins[n - 1]
            right = spins[k + 1] if k < n - 1 else spins[0]
            idx = ((s + 1) >> 1) * 3 + ((left + right + 2) >> 1)
            if us[t, k] < accept[idx]:
                spins[k] = -s
        # int64: an int8 sum wraps once |sum| > 127
        out[t] = spins.sum(dtype=np.int64) / n


try:  # compiled kernel when available; the pure-Python loop is identical
    from numba import njit

    _metropolis_kernel = njit(cache=False)(_metropolis_sweeps)
except ImportError:  # pragma: no cover - exercised only without numba
    _metropolis_kernel = _metropolis_sweeps

_SWEEP_CHUNK = 4096
_BATCHES = 32


def metropolis_magnetization(
    spec: ChainSpec, sweeps: int, burn_in: int, seed: int
) -> SampledEstimate:
    """Single-flip Metropolis estimate of the mean magnetization.

    Sites are proposed in fixed order 0..N-1 within a sweep; one uniform
    deviate per proposal is drawn from a PCG64 stream, so a given seed
    reproduces the trajectory exactly, with or without the compiled kernel.
    The standard error comes from 32 batch means (a plain standard error of
    the per-sweep values is used when there are too few samples to batch).
    """
    if not (sweeps > burn_in >= 0):
        raise ValidationError(f"need sweeps > burn_in >= 0, got sweeps={sweeps}, burn_in={burn_in}")
    n = spec.N
    beta, J, h = spec.params.beta, spec.params.J, spec.params.h

    accept = np.empty(6)
    for si, s in enumerate((-1, 1)):
        for ni, nsum in enumerate((-2, 0, 2)):
            delta_e = 2.0 * s * (J * nsum + h)
            accept[si * 3 + ni] = math.exp(-beta * delta_e) if delta_e > 0 else 1.0

    rng = np.random.default_rng(seed)
    spins = (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
    mags = np.empty(sweeps)
    done = 0
    while done < sweeps:
        block = min(_SWEEP_CHUNK, sweeps - done)
        us = rng.random((block, n))
        _metropolis_kernel(spins, us, accept, mags[done : done + block])
        done += block

    meas = mags[burn_in:]
    mean = float(meas.mean())
    if meas.size >= 2 * _BATCHES:
        batches = meas[: meas.size - meas.size % _BATCHES].reshape(_BATCHES, -1).mean(axis=1)
        se = float(batches.std(ddof=1) / math.sqrt(_BATCHES))
    elif meas.size >= 2:
        se = float(meas.std(ddof=1) / math.sqrt(meas.size))
    else:
        se = 0.0
    return SampledEstimate(mean=mean, std_error=se, samples=int(meas.size), seed=int(seed))
