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
_CHUNK_BITS = 20  # enumeration and Metropolis work in slices of at most 2**20 values
_FD_STEP = 1e-6   # central-difference step for the transfer-matrix derivative

# Extended precision for the transfer-matrix log-partition: a plain float64
# central difference has a ~5e-9 cancellation floor in the worst corners,
# above the 1e-10 agreement gate with enumeration.
_LD = np.longdouble
_LD_EXP_LIMIT = np.log(np.finfo(_LD).max)  # exp overflows long double from here on


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

    Each chunk's Boltzmann weights are scaled by its own maximum exponent,
    and the chunk sums are combined once against the largest of those, so
    large beta*N*(|J|+|h|) cannot overflow; chunk order is fixed, which keeps
    the result deterministic.  Exponents beyond float64 raise ValidationError.
    """
    n = spec.N
    if n > MAX_ENUM_SITES:
        raise ResourceLimitError(
            f"exact enumeration needs 2**N states; N={n} exceeds the limit of {MAX_ENUM_SITES}"
        )
    bj = float(spec.params.beta) * float(spec.params.J)
    bh = float(spec.params.beta) * float(spec.params.h)
    if not math.isfinite(n * (abs(bj) + abs(bh))):  # the all-up or all-down exponent
        raise ValidationError(f"enumeration overflows float64: beta*J={bj!r}, beta*h={bh!r}, N={n}")
    total = 1 << n
    step = min(total, 1 << _CHUNK_BITS)
    top = np.uint64(n - 1)
    one = np.uint64(1)

    parts = []  # (max exponent, Z, sum of m*W) of each chunk, weights scaled by the max
    for lo in range(0, total, step):
        # bit k of a code is 1 where spin k is down; a bond is broken where
        # a bit differs from its cyclic neighbour, i.e. in code ^ rotate(code)
        codes = np.arange(lo, lo + step, dtype=np.uint64)
        msum = n - 2 * np.bitwise_count(codes).astype(np.int64)
        rotated = (codes >> one) | ((codes & one) << top)
        bonds = n - 2 * np.bitwise_count(codes ^ rotated).astype(np.int64)
        logw = bj * bonds + bh * msum  # = -beta * energy
        cmax = float(logw.max())
        w = np.exp(logw - cmax)
        parts.append((cmax, float(w.sum()), float((msum * w).sum())))
    cmax, z, mw = np.array(parts).T
    scale = np.exp(cmax - cmax.max())
    return float((scale @ mw / n) / (scale @ z))


def _log_partition_per_site(n: int, beta_j, x):
    """(1/N) log Z as a function of x = beta*h, constant offsets dropped."""
    ch = np.cosh(x)
    s = np.sinh(x)  # s * s, not s ** 2: NumPy's scalar power warns on a finite square
    root = np.sqrt(s * s + np.exp(_LD(-4.0) * beta_j))
    return _log_eigen_sum(n, ch, root)


def _log_partition_wide(n: int, beta_j, x):
    """(1/N) log Z less |x|, for x where sinh(x)^2 + e^{-4 beta J} overflows
    long double: ch and root scaled by e^{-|x|}.  The caller adds sign(x),
    the derivative of |x|, back, so the large linear part never goes through
    the finite difference."""
    u = _LD(-2.0) * np.abs(x)
    ch = (_LD(1.0) + np.exp(u)) / _LD(2.0)
    root = np.sqrt((np.expm1(u) / _LD(2.0)) ** 2 + np.exp(_LD(-4.0) * beta_j + u))
    return _log_eigen_sum(n, ch, root)


def _log_eigen_sum(n: int, ch, root):
    """(1/N) log(lambda+^N + lambda-^N) for the eigenvalues ch +- root.

    Stable for both eigenvalue signs: the near-cancellation of lambda-^N
    against lambda+^N on the antiferromagnetic side goes through
    log1p/expm1 instead of raw subtraction.
    """
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


def _log_partition_strong_afm(n: int, beta_j, x):
    """(1/N) log Z where e^{-4 beta J} overflows long double, with ch and root
    scaled by e^{2 beta J} and x-independent terms dropped: then root^2 - ch^2
    = 1 to long-double precision, so lambda-/lambda+ = -(root + ch)^-2."""
    ch = np.cosh(x)
    log_root = np.log1p((np.sinh(x) * np.exp(_LD(2.0) * beta_j)) ** 2) / _LD(2.0)
    w = np.exp(np.log(ch) - log_root + _LD(2.0) * beta_j)  # ch / root
    lead = log_root + np.log1p(w)  # log(root + ch)
    v = _LD(2 * n) * lead  # -N log|lambda-/lambda+|
    if n % 2 == 0:
        return lead + np.log1p(np.exp(-v)) / _LD(n)
    # log(1 - e^{-v}) less log(2N) + 2 beta J: m -> tanh(x)/N as w underflows
    ratio = lead / w * -np.expm1(-v) / v if w else _LD(1.0)
    return lead + (np.log(ch) - log_root + np.log(ratio)) / _LD(n)


def transfer_matrix_finite(spec: ChainSpec) -> float:
    """Exact finite-N magnetization from the 2x2 transfer matrix.

    Computed as the Richardson-extrapolated central difference of the
    per-site log partition with respect to beta*h, step 1e-6.  The numeric
    derivative keeps this route independent of the closed-form result.
    Raises ValidationError where e^{-4 beta J} and cosh(beta*h) both
    overflow long double.
    """
    beta_j = _LD(spec.params.beta) * _LD(spec.params.J)
    x0 = _LD(spec.params.beta) * _LD(spec.params.h)
    e = _LD(_FD_STEP)

    # A form is chosen once for the whole stencil, and only where the plain
    # one overflows long double: the strong form where e^{-4 beta J} does,
    # the wide form where sinh(x)^2 + e^{-4 beta J} does at the stencil point
    # farthest from 0.  Nothing is left once the strong form's cosh(x) does.
    strong = _LD(-4.0) * beta_j >= _LD_EXP_LIMIT
    far = x0 + e if x0 >= 0 else x0 - e
    with np.errstate(over="ignore"):
        wide = not np.isfinite(
            np.cosh(far) if strong else np.sinh(far) ** 2 + np.exp(_LD(-4.0) * beta_j)
        )
    if strong and wide:
        raise ValidationError(
            f"transfer matrix overflows long double: beta*J={float(beta_j)!r}, "
            f"beta*h={float(x0)!r}"
        )
    if strong:
        log_z = _log_partition_strong_afm
    elif wide:
        log_z = _log_partition_wide
    else:
        log_z = _log_partition_per_site

    def f(x):
        return log_z(spec.N, beta_j, x)

    d1 = (f(x0 + e) - f(x0 - e)) / (2.0 * e)
    d2 = (f(x0 + e / 2) - f(x0 - e / 2)) / e
    m = (4.0 * d2 - d1) / 3.0
    return float(m + np.sign(x0) if wide else m)


def _metropolis_sweeps(spins, us, accept, out):
    """Run one uniform block of sweeps in place; record mean spin per sweep.

    accept[(s+1)//2 * 3 + (left+right+2)//2] is the acceptance probability
    for flipping a spin of value s with the given neighbour sum.  Sites are
    updated in order 0..N-1, so site k >= 1 sees the new value of its left
    neighbour.  Given its draw, its old value and its right neighbour (old,
    or the new site 0 for k = N-1), its new value is one of four maps of the
    left value: constant down, constant up, identity or negation.  A sweep
    then resolves as a prefix scan: the last constant map at or before k
    fixes the value, and the parity of the negations since then flips it.

    The scan runs on N-bit Python ints, bit k for site k (1 = up).  The six
    flip masks are packed once per block.  Per sweep, bitwise selects give
    every site's map, log2(N) shift-xors the parity of the negations, and
    one add carries each constant's value up its run of identities and
    negations; the carry stops at the next constant, whose bit is clear in
    the addend.  Every step is exact integer arithmetic on the same draws,
    so the trajectory equals that of proposing the sites one at a time, bit
    for bit.
    """
    n = spins.shape[0]
    top = n - 1
    full = (1 << n) - 1
    rest = full ^ 1  # every site but 0, whose left neighbour is the old site N-1
    shifts = [1 << i for i in range(top.bit_length())]  # prefix parity in log2(N) steps
    nbytes = (n + 7) // 8
    # masks[6t + c] has bit k set where draw t, k flips under accept[c]
    data = np.packbits(us[:, None, :] < accept[:, None], axis=-1, bitorder="little").tobytes()
    masks = [int.from_bytes(data[i : i + nbytes], "little") for i in range(0, len(data), nbytes)]

    bits = int.from_bytes(np.packbits(spins > 0, bitorder="little").tobytes(), "little")
    for t in range(us.shape[0]):
        f = masks[6 * t : 6 * t + 6]
        # site 0 sees the old values of both neighbours
        own = bits & 1
        first = own ^ (f[3 * own + (bits >> top) + ((bits >> 1) & 1)] & 1)
        right = (bits >> 1) | (first << top)
        # the new value when the left neighbour is down, and when it is up:
        # own ^ f[3*own + right] and own ^ f[3*own + right + 1], bit by bit
        lo, hi = f[0] ^ ((f[0] ^ f[1]) & right), f[3] ^ ((f[3] ^ f[4]) & right)
        down = bits ^ lo ^ ((lo ^ hi) & bits)
        lo, hi = f[1] ^ ((f[1] ^ f[2]) & right), f[4] ^ ((f[4] ^ f[5]) & right)
        up = bits ^ lo ^ ((lo ^ hi) & bits)
        free = (down ^ up) & rest  # identity or negation
        const = free ^ rest  # constant, besides site 0
        parity = down & free  # negations, then their prefix parity
        for shift in shifts:
            parity ^= parity << shift
        parity &= full
        # each constant's value less the parity at it, carried up its run of
        # identities and negations by one add, then the parity put back
        anchor = ((down ^ parity) & const) | first
        bits = ((((free + (anchor << 1)) ^ free) & free) | anchor) ^ parity
        out[t] = (2 * bits.bit_count() - n) / n
    up_bits = np.unpackbits(
        np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8), count=n, bitorder="little"
    )
    spins[:] = 2 * up_bits.astype(np.int8) - 1


_SWEEP_CHUNK = 4096
_BATCHES = 32


def metropolis_magnetization(
    spec: ChainSpec, sweeps: int, burn_in: int, seed: int
) -> SampledEstimate:
    """Single-flip Metropolis estimate of the mean magnetization.

    Sites are proposed in fixed order 0..N-1 within a sweep; one uniform
    deviate per proposal is drawn from a PCG64 stream, so a given seed
    reproduces the trajectory exactly.  The standard error comes from 32
    batch means (a plain standard error of the per-sweep values is used when
    there are too few samples to batch).
    """
    if not all(isinstance(v, (int, np.integer)) for v in (sweeps, burn_in, seed)):
        raise ValidationError(
            f"sweeps, burn_in and seed must be integers, got {sweeps!r}, {burn_in!r}, {seed!r}"
        )
    if not (sweeps > burn_in >= 0):
        raise ValidationError(f"need sweeps > burn_in >= 0, got sweeps={sweeps}, burn_in={burn_in}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
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
    # PCG64 draws the same values in any split, so the chunk size never
    # changes the estimate
    chunk = min(_SWEEP_CHUNK, max(1, (1 << _CHUNK_BITS) // n))
    while done < sweeps:
        block = min(chunk, sweeps - done)
        us = rng.random((block, n))
        _metropolis_sweeps(spins, us, accept, mags[done : done + block])
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
