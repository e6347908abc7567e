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

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .ising import IsingParams

MAX_ENUM_SITES = 24
_MAX_UPDATES_LOG2 = 32  # Metropolis's bound on N * sweeps: about 2 minutes at ~30 ns per update
_CHUNK_BITS = 20  # enumeration and Metropolis work in slices of at most 2**20 values
_FD_STEP = 1e-6   # central-difference step for the transfer-matrix derivative

# Extended precision for the transfer-matrix log-partition: a plain float64
# central difference has a ~5e-9 cancellation floor in the worst corners,
# above the 1e-10 agreement gate with enumeration.
_LD = np.longdouble
_SCALED_FROM = 20.0  # max(|beta*h|, -2 beta*J) from which the scaled log partition is used


@dataclass(frozen=True)
class ChainSpec:
    """A periodic chain of N sites with fixed couplings."""

    N: int
    params: IsingParams

    def __post_init__(self):
        # a bool is refused too: False and True are below 2
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 2):
            raise ValidationError(f"N must be an integer >= 2, got {self.N!r}")
        # a NumPy integer would wrap in the oracles' shifts and products
        object.__setattr__(self, "N", int(self.N))
        if not isinstance(self.params, IsingParams):
            raise ValidationError(f"params must be IsingParams, got {type(self.params).__name__}")


@dataclass(frozen=True)
class SampledEstimate:
    """Monte Carlo estimate with a batch-means standard error."""

    mean: float
    std_error: float
    samples: int
    seed: int


def enumerate_magnetization(spec: ChainSpec) -> float:
    """Exact mean magnetization by summing over every spin configuration.

    Every exponent is taken relative to the largest one, which sits at one
    of four (bond sum, spin sum) pairs: all up, all down, or as alternating
    as the ring allows.  The offsets from that pair are exact integers, so
    a huge beta*J cannot swamp a small beta*h, and no weight exceeds about
    1.  A weight depends only on the configuration's (spin sum, bond sum)
    class, so the exponent and its exp are evaluated once per class and
    gathered back to every configuration; the sums then run over all 2**N
    weights in a fixed chunk order, which keeps the result deterministic.
    Exponents beyond float64 raise ValidationError.
    """
    n = spec.N
    if n > MAX_ENUM_SITES:
        raise ResourceLimitError(
            f"exact enumeration needs 2**N states; N={n} exceeds the limit of {MAX_ENUM_SITES}"
        )
    bj = float(spec.params.beta) * float(spec.params.J)
    bh = float(spec.params.beta) * float(spec.params.h)
    if not math.isfinite(2 * n * (abs(bj) + abs(bh))):  # the largest offset exponent
        raise ValidationError(f"enumeration overflows float64: beta*J={bj!r}, beta*h={bh!r}, N={n}")
    alt, odd = n - 4 * (n // 2), n % 2
    b_top, m_top = max(
        [(n, n), (alt, odd), (alt, -odd), (n, -n)], key=lambda p: bj * p[0] + bh * p[1]
    )
    total = 1 << n
    step = min(total, 1 << _CHUNK_BITS)

    z = mw = 0.0
    for lo in range(0, total, step):
        msum, index, class_msum, class_bonds = _spin_and_bond_sums(n, lo, step)
        t = np.multiply(class_msum - m_top, bh)
        t += bj * (class_bonds - b_top)  # -beta * energy, less its max
        np.exp(t, out=t)
        w = t[index]
        z += float(w.sum())
        mw += float(np.multiply(msum, w, out=w).sum())
    return (mw / n) / z


@functools.lru_cache(maxsize=1)
def _spin_and_bond_sums(n: int, lo: int, step: int):
    """Spin sums and (spin sum, bond sum) classes of the codes lo .. lo+step-1
    of an N-site ring.

    Bit k of a code is 1 where spin k is down; a bond is broken where a bit
    differs from its cyclic neighbour, i.e. in code ^ rotate(code).  A code
    with d down spins and b broken bonds has class d * (N//2 + 1) + b/2.
    Returns each code's int8 spin sum and intp class, and each class's spin
    sum N - 2d and bond sum N - 2b, all read-only.  A class no code reaches
    (b = 0 iff d is 0 or N, else 2 <= b <= 2 min(d, N - d)) takes the all-up
    sums, so its exp is one already taken.  The last chunk is kept, so
    repeated calls at one N <= 20 (a single chunk) reuse it.
    """
    codes = np.arange(lo, lo + step, dtype=np.uint32)  # N <= 24
    rotated = (codes >> 1) | ((codes & 1) << (n - 1))
    down = np.bitwise_count(codes)
    width = n // 2 + 1
    index = np.multiply(down, width, dtype=np.intp)
    index += np.bitwise_count(codes ^ rotated) >> 1
    msum = n - 2 * down.astype(np.int8)
    d, half = np.divmod(np.arange((n + 1) * width), width)
    reached = ((half == 0) == ((d == 0) | (d == n))) & (half <= np.minimum(d, n - d))
    class_msum = np.where(reached, n - 2 * d, n)
    class_bonds = np.where(reached, n - 4 * half, n)
    for arr in (msum, index, class_msum, class_bonds):
        arr.flags.writeable = False
    return msum, index, class_msum, class_bonds


def _log_partition_per_site(n: int, beta_j, x):
    """(1/N) log Z as a function of x = beta*h, constant offsets dropped.

    Stable for both eigenvalue signs: the near-cancellation of lambda-^N
    against lambda+^N on the antiferromagnetic side goes through
    log1p/expm1 instead of raw subtraction.
    """
    ch = np.cosh(x)
    s = np.sinh(x)  # s * s, not s ** 2: NumPy's scalar power warns on a finite square
    root = np.sqrt(s * s + np.exp(_LD(-4.0) * beta_j))
    if root <= ch:  # both eigenvalues ch +- root non-negative
        corr = np.log1p(((ch - root) / (ch + root)) ** n)
    else:  # lambda- < 0: handle 1 + (lambda-/lambda+)^N carefully
        eta = _LD(2.0) * ch / (ch + root)  # = 1 - |lambda-/lambda+|
        if eta >= 1.0:  # ratio underflowed: the lambda- term is negligible
            corr = _LD(0.0)
        else:
            t = _LD(n) * np.log1p(-eta)
            corr = np.log1p(np.exp(t)) if n % 2 == 0 else np.log(-np.expm1(t))
    return np.log(ch + root) + corr / _LD(n)


def _log_partition_scaled(n: int, k, a0, s, y):
    """(1/N) log Z at x = s*(a0 + y), for k = -2 beta J and max(a0, k) >= 20.

    ch, sh and root are scaled by e^{-c}, with c = |x| where a0 >= k (the
    caller adds its slope s back) and c = k otherwise, and terms constant
    in y are dropped, so no large term goes through the central difference:
    where y is added to a large term, the sum is an exponent that makes its
    own contribution negligible.  The eigenvalue ratio |lambda-/lambda+| =
    |e^{2k} - 1| / (ch + root)^2 = e^{-v} needs no subtraction of the
    eigenvalues.
    """
    two, zero = _LD(2.0), _LD(0.0)
    u = a0 + s * y  # |x|, or -|x| where the stencil crosses 0: every use is even in it
    g = (a0 - k) + s * y  # |x| - k
    # t = |x| - c, t_y the part of t that varies with y, two_kc = 2(k - c),
    # d = c - max(k, 0)
    if a0 >= k:  # c = |x|
        t, t_y, two_kc, d = zero, zero, -two * g, g if k > 0 else u
    else:  # c = k > 0
        t, t_y, two_kc, d = g, s * y, zero, zero
    q = np.exp(-two * u)  # e^{-2|x|}
    ch = np.exp(t) * (1 + q) / two
    sh = np.exp(t) * -np.expm1(-two * u) / two
    log_root = np.log1p(sh * sh + np.expm1(two_kc)) / two
    w = ch / np.exp(log_root)  # ch / root
    lead = log_root + np.log1p(w)  # log(ch + root)
    if k == 0:  # lambda- = 0
        return lead
    v = two * (d + lead) - np.log(-np.expm1(-two * np.abs(k)))
    if k < 0 or n % 2 == 0:  # (lambda-/lambda+)^N = e^{-Nv}
        return lead + np.log1p(np.exp(-n * v)) / n
    # log(1 - e^{-Nv}) = log 2N + log(ch/root) + log(v root/2ch) + log((1 - e^{-Nv})/Nv),
    # with log(ch/root) less the constant t - t_y; ch/root = 0 and v = 0 are the limits
    corr = np.log(two * n) + t_y + np.log1p(q) - np.log(two) - log_root
    if w:
        corr += np.log(v / (two * w))
    if v:
        corr += np.log(-np.expm1(-n * v) / (n * v))
    return lead + corr / n


def transfer_matrix_finite(spec: ChainSpec) -> float:
    """Exact finite-N magnetization from the 2x2 transfer matrix.

    Computed as the Richardson-extrapolated central difference of the
    per-site log partition with respect to beta*h, step 1e-6.  The numeric
    derivative keeps this route independent of the closed-form result.
    Below max(|beta*h|, -2 beta*J) = 20 the log partition is the plain one;
    from 20 on it is the scaled form, so every finite input gives a value.
    """
    beta_j = _LD(spec.params.beta) * _LD(spec.params.J)
    x0 = _LD(spec.params.beta) * _LD(spec.params.h)
    e = _LD(_FD_STEP)
    k, a0, s = _LD(-2.0) * beta_j, np.abs(x0), np.sign(x0)
    scaled = max(a0, k) >= _SCALED_FROM

    def f(y):
        if scaled:
            return _log_partition_scaled(spec.N, k, a0, s, y)
        return _log_partition_per_site(spec.N, beta_j, x0 + y)

    d1 = (f(e) - f(-e)) / (2.0 * e)
    d2 = (f(e / 2) - f(-e / 2)) / e
    m = (4.0 * d2 - d1) / 3.0
    return float(m + s if scaled and a0 >= k else m)


def _metropolis_sweeps(bits, us, accept, out):
    """Run one uniform block of sweeps; record mean spin per sweep, return the new state.

    accept[(s+1)//2 * 3 + (left+right+2)//2] is the acceptance probability
    for flipping a spin of value s with the given neighbour sum.  Sites are
    updated in order 0..N-1, so site k >= 1 sees the new value of its left
    neighbour.  Given its draw, its old value and its right neighbour (old,
    or the new site 0 for k = N-1), its new value is one of four maps of the
    left value: constant down, constant up, copy or negation.  Acceptance
    is monotone in the neighbour sum, so a sweep's other maps are all
    copies (as for J >= 0) or all negations (J < 0); a table monotone in
    neither direction raises ConsistencyError.  Flipping the odd sites, the
    sublattice gauge transformation, turns each negation into a copy, since
    sites k-1 and k lie on different sublattices (site 0, which sees the old
    site N-1, is even).  A sweep then resolves as a prefix scan: the last
    constant at or before k fixes the value.

    The chain state `bits` and the scan are N-bit Python ints, bit k for
    site k (1 = up).  The flip masks are packed once per block, and only for
    the classes with 0 < accept < 1: the draws lie in [0, 1), so a class
    with accept >= 1 flips every site and one with accept <= 0 none.  Per
    sweep, bitwise selects give every site's map, and one add carries each
    constant's gauged value up its run of copies; the carry stops at the
    next constant, whose bit is clear in the addend.  The gauge mask (0, or
    the odd sites when negations occur) is XORed in before the add and out
    after it.  Every step is exact integer arithmetic on the same draws, so
    the trajectory equals that of proposing the sites one at a time, bit
    for bit.
    """
    sweeps, n = us.shape
    top = n - 1
    full = (1 << n) - 1
    rest = full ^ 1  # every site but 0, whose left neighbour is the old site N-1
    probs = accept.tolist()
    a0, a1, a2, a3, a4, a5 = probs
    if a0 <= a1 <= a2 and a3 >= a4 >= a5:  # no negation can occur
        gauge = 0
    elif a0 >= a1 >= a2 and a3 <= a4 <= a5:
        gauge = full // 3 << (1 - n % 2)  # the odd sites 1, 3, 5, ...
    else:
        raise ConsistencyError(f"acceptance is not monotone in the neighbour sum: {probs}")
    nbytes = (n + 7) // 8
    # cols[c] yields per sweep t the mask with bit k set where draw t, k flips under accept[c]
    cols = [itertools.repeat(full if a >= 1.0 else 0, sweeps) for a in probs]
    live = [c for c, a in enumerate(probs) if 0.0 < a < 1.0]
    data = np.packbits(us < accept[live, None, None], axis=-1, bitorder="little").tobytes()
    # data is laid out (live class, sweep, byte): one lazy C-level pipeline
    # turns it into ints, and each live class takes the next `sweeps` of them
    masks = map(int.from_bytes,
                map(operator.itemgetter(0), struct.iter_unpack(f"{nbytes}s", data)),
                itertools.repeat("little"))
    for c in live:
        cols[c] = list(itertools.islice(masks, sweeps))

    counts = []
    for f in zip(*cols):
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
        free = (down ^ up) & rest  # copy or negation
        const = free ^ rest  # constant, besides site 0
        # each constant's gauged value, carried up its run of copies by one
        # add, then the gauge taken off
        anchor = ((down ^ gauge) & const) | first
        bits = ((((free + (anchor << 1)) ^ free) & free) | anchor) ^ gauge
        counts.append(bits.bit_count())
    # 2c - n is an exact int64 and both divisions round correctly, so this
    # is the float (2c - n) / n of plain Python
    np.divide(np.multiply(counts, 2) - n, n, out=out)
    return bits


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
    there are too few samples to batch).  N and sweeps are capped at 2**24,
    and N * sweeps, the number of site updates, at 2**32.
    """
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in (sweeps, burn_in, seed)):
        raise ValidationError(
            f"sweeps, burn_in and seed must be integers, got {sweeps!r}, {burn_in!r}, {seed!r}"
        )
    # Python ints, so the bound on N * sweeps below cannot wrap
    sweeps, burn_in, seed = int(sweeps), int(burn_in), int(seed)
    if not (sweeps > burn_in >= 0):
        raise ValidationError(f"need sweeps > burn_in >= 0, got sweeps={sweeps}, burn_in={burn_in}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    n = spec.N
    if max(n, sweeps) > 1 << MAX_ENUM_SITES:
        raise ResourceLimitError(f"Metropolis takes N and sweeps up to 2**{MAX_ENUM_SITES}, "
                                 f"got N={n}, sweeps={sweeps}")
    if n * sweeps > 1 << _MAX_UPDATES_LOG2:
        raise ResourceLimitError(f"Metropolis takes N * sweeps up to 2**{_MAX_UPDATES_LOG2} "
                                 f"site updates, got N * sweeps = {n * sweeps}")
    beta, J, h = spec.params.beta, spec.params.J, spec.params.h

    accept = np.empty(6)
    for si, s in enumerate((-1, 1)):
        for ni, nsum in enumerate((-2, 0, 2)):
            # beta * delta_e, not the sign of delta_e alone: at beta = 0 an
            # infinite delta_e gives a NaN cost, and that class flips always
            cost = beta * (2.0 * s * (J * nsum + h))
            accept[si * 3 + ni] = math.exp(-cost) if cost > 0 else 1.0

    rng = np.random.default_rng(seed)
    bits = int.from_bytes(np.packbits(rng.integers(0, 2, size=n), bitorder="little").tobytes(), "little")
    mags = np.empty(sweeps)
    # PCG64 draws the same values in any split, so the chunk size never
    # changes the estimate
    chunk = min(_SWEEP_CHUNK, max(1, (1 << _CHUNK_BITS) // n))
    for done in range(0, sweeps, chunk):
        us = rng.random((min(chunk, sweeps - done), n))
        bits = _metropolis_sweeps(bits, us, accept, mags[done : done + chunk])

    meas = mags[burn_in:]
    mean = float(meas.mean())
    if meas.size >= 2 * _BATCHES:
        batches = meas[: meas.size - meas.size % _BATCHES].reshape(_BATCHES, -1).mean(axis=1)
        se = float(batches.std(ddof=1) / math.sqrt(_BATCHES))
    elif meas.size >= 2:
        se = float(meas.std(ddof=1) / math.sqrt(meas.size))
    else:
        se = 0.0
    return SampledEstimate(mean=mean, std_error=se, samples=int(meas.size), seed=seed)
