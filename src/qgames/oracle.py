"""Independent checks of the infinite-chain magnetization formula.

Three routes onto the same finite periodic chain of N spins:

* exact enumeration of all 2**N configurations (N <= 24),
* the 2x2 transfer matrix, its log partition differentiated by complex
  step in float64, so this route never writes down the closed-form
  magnetization it is meant to validate,
* seeded single-flip Metropolis sampling.

Enumeration and the transfer matrix must agree to 1e-10; the transfer
matrix approaches the closed form as N grows (when the correlation length
fits inside the chain); Metropolis agrees statistically.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .ising import IsingParams

MAX_ENUM_SITES = 24
_MAX_UPDATES_LOG2 = 32  # Metropolis's bound on N * sweeps: about 2 minutes at ~30 ns per update
_CHUNK_BITS = 20  # enumeration and Metropolis work in slices of at most 2**20 values
_EPS = 1e-20  # complex step of the transfer-matrix derivative
_BIG = 1e300  # bound on the transfer matrix's exponents, where exp is 0 or negligible
_LN2 = math.log(2.0)


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
    bj = spec.params.beta * spec.params.J
    bh = spec.params.beta * spec.params.h
    if not math.isfinite(2 * n * (abs(bj) + abs(bh))):  # the largest offset exponent
        raise ValidationError(f"enumeration overflows float64: beta*J={bj!r}, beta*h={bh!r}, N={n}")
    alt, odd = n - 4 * (n // 2), n % 2
    b_top, m_top = n, n
    for b, m in (alt, odd), (alt, -odd), (n, -n):
        # the sign of the difference, not two rounded exponents that can tie
        # when beta*J swamps beta*h
        if bj * (b - b_top) + bh * (m - m_top) > 0:
            b_top, m_top = b, m
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


def _log1p(z: complex) -> complex:
    """log(1 + z), accurate for small z, where cmath.log(1 + z) would round 1 + z."""
    return complex(math.log1p(z.real), math.atan2(z.imag, 1.0 + z.real))


def _expm1(z: complex) -> complex:
    """e^z - 1, accurate for small z."""
    a, b = z.real, z.imag
    return complex(math.expm1(a) * math.cos(b) - 2.0 * math.sin(b / 2.0) ** 2,
                   math.exp(a) * math.sin(b))


def _logaddexp(p: complex, q: complex) -> complex:
    """log(e^p + e^q), with only the smaller of the two exponentiated."""
    if p.real < q.real:
        p, q = q, p
    return p + _log1p(cmath.exp(q - p))


def _log_partition_scaled(n: int, k: float, a0: float, gap: float, s: float, y: complex):
    """(1/N) log Z at beta*h = s*a0 + y, less c = max(|x|, k), for k = -2 beta*J,
    a0 > 0 and gap = a0 - k; analytic in y, with |x| continued as a0 + s*y.

    The eigenvalues are e^{beta J} (ch +- root), with ch, sh = cosh, sinh(x)
    and root = sqrt(sh^2 + e^{2k}).  ch, sh and root are scaled by e^{-c}, so
    none overflows, and the ratio |lambda-/lambda+| = |e^{2k} - 1| /
    (ch + root)^2 = e^{-v} needs no subtraction of the eigenvalues.
    """
    u = a0 + s * y  # |x|
    g = gap + s * y  # |x| - k
    # t = |x| - c, two_kc = 2(k - c), d = c - max(k, 0)
    if gap >= 0.0:  # c = |x|
        t, two_kc, d = 0.0, -2.0 * g, g if k > 0.0 else u
    else:  # c = k > 0
        t, two_kc, d = g, 0.0, 0.0
    half_sh = _expm1(-2.0 * u) / -2.0  # sinh|x| e^{-|x|}, and cosh|x| e^{-|x|} = 1 - half_sh
    log_ch = t + _log1p(-half_sh)
    sh = cmath.exp(t) * half_sh
    if two_kc.real < -1.0:  # log(sh^2 + e^{two_kc}) as a log-sum, where log1p could meet -1
        log_root = _logaddexp(2.0 * cmath.log(sh), two_kc) / 2.0
    else:
        log_root = _log1p(sh * sh + _expm1(two_kc)) / 2.0
    lead = _logaddexp(log_ch, log_root)  # log(ch + root)
    if k == 0.0:  # lambda- = 0
        return lead
    a = 2.0 * abs(k)  # log(1 - e^{-a}) on whichever of log1p and expm1 keeps its bits
    v = 2.0 * (d + lead) - (math.log1p(-math.exp(-a)) if a > _LN2 else math.log(-math.expm1(-a)))
    if k < 0.0 or n % 2 == 0:  # (lambda-/lambda+)^N = e^{-Nv}
        corr = _log1p(cmath.exp(-n * v))
    elif abs(cmath.exp(log_ch - log_root)) >= 1e-150:  # (lambda-/lambda+)^N = -e^{-Nv}
        corr = cmath.log(-_expm1(-n * v))
    else:  # ch/root < 1e-150, where eps times Nv nears the subnormals:
        # 1 - e^{-Nv} = 2N (ch/root) (1 + O(ch/root)), the O term's slope as small
        corr = log_ch - log_root
    return lead + corr / n


def transfer_matrix_finite(spec: ChainSpec) -> float:
    """Exact finite-N magnetization from the 2x2 transfer matrix.

    The derivative of the per-site log partition with respect to beta*h,
    taken by complex step: Im f(x + i eps) / eps, eps = 1e-20, which is
    exact to O(eps^2) and has no subtractive cancellation (Squire & Trapp,
    SIAM Rev. 40, 110 (1998)), so float64 suffices.  The numeric
    derivative keeps this route independent of the closed-form result.
    beta*h, beta*J and |beta*h| + 2 beta*J are clamped at +-1e300, where
    their exponentials are 0 or negligible, so every finite input gives a
    value; a ring past 2**1000 sites is taken as one of 2**1000 or
    2**1000 + 1, by parity.
    """
    beta, J, h = spec.params.beta, spec.params.J, spec.params.h
    x0 = beta * h
    if x0 == 0.0:  # Z is even in beta*h, so m = 0 there, beta = 0 included
        return 0.0
    # gap = |beta*h| - k in one rounding, so a balanced chain keeps its bits;
    # where |h| + 2J overflows, its quarter does not, and beta may bring it back
    span = abs(h) + 2.0 * J
    gap = beta * span if math.isfinite(span) else 4.0 * (beta * (abs(h) / 4.0 + J / 2.0))
    k, gap = (max(-_BIG, min(v, _BIG)) for v in (-2.0 * (beta * J), gap))
    n = min(spec.N, (1 << 1000) + spec.N % 2)
    s = math.copysign(1.0, x0)
    f = _log_partition_scaled(n, k, min(abs(x0), _BIG), gap, s, _EPS * 1j)
    # add back the slope s of c = |x|; adding 0.0 turns -0.0 into 0.0
    return f.imag / _EPS + (s if gap >= 0.0 else 0.0)


def _metropolis_sweeps(bits, us, accept, out):
    """Run one uniform block of sweeps; record mean spin per sweep, return the new state.

    accept is the sampler's table: accept[(s+1)//2 * 3 + (left+right+2)//2]
    is the acceptance probability for flipping a spin of value s with the
    given neighbour sum.  Sites are updated in order 0..N-1, so site k >= 1
    sees the new value of its left neighbour.  Given its draw, its old value
    and its right neighbour (old, or the new site 0 for k = N-1), its new
    value is one of four maps of the left value: constant down, constant up,
    copy or negation.  Acceptance is monotone in the neighbour sum, so a
    sweep's other maps are all copies (J >= 0) or all negations (J < 0).
    Flipping the odd sites, the sublattice gauge transformation (Mattis, Phys. Lett. A 56, 421
    (1976)), turns each negation into a copy, since sites k-1 and k lie on different sublattices
    (site 0, which sees the old site N-1, is even).  A sweep then resolves
    as a prefix scan: the last constant at or before k fixes the value.

    The chain state `bits` and the scan are N-bit Python ints, bit k for
    site k (1 = up).  With f[c] the mask of sites whose draw u flips them,
    u < accept[c], a site with own bit b and neighbour-sum index i (left +
    right, in bits) takes f[i] if b = 0 and ~f[3+i] if b = 1, that is
    p[i] ^ (x[i] & bits) with p[i] = f[i] and x[i] = f[i] XNOR f[3+i].  A
    class i and its partner 3+i have opposite costs, so one of them accepts
    1.0, every draw flips it, and x[i] marks the draws below the other's
    acceptance: u < min(accept[i], accept[3+i]).  A column whose key is 0.0
    or 1.0 marks no site or every site; only the keys strictly between are
    compared against the draws and packed, once per block.  Per sweep, the
    three new-value masks n[i] give the new values under a down and an up
    left neighbour, n[right] and n[right + 1], and one add carries each
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
    a = accept.tolist()
    # only J < 0, where negations occur, has a down spin's acceptance falling
    # with the neighbour sum or an up spin's rising
    gauge = 0 if a[0] <= a[2] and a[3] >= a[5] else full // 3 << (1 - n % 2)  # odd sites
    keys = a[:3] + [min(pair) for pair in zip(a, a[3:])]
    live = list(dict.fromkeys(k for k in keys if 0.0 < k < 1.0))
    flips = np.packbits(us < np.array(live)[:, None, None], axis=-1, bitorder="little")
    # flips is (column, sweep, byte); viewing each sweep's bytes as one item reads them per column
    rows = flips.view(f"V{flips.shape[-1]}")[..., 0].tolist()
    packed = {k: list(map(int.from_bytes, c, itertools.repeat("little"))) for k, c in zip(live, rows)}
    cols = [packed[k] if k in packed else itertools.repeat(full if k else 0, sweeps) for k in keys]

    counts = []
    for p0, p1, p2, x0, x1, x2 in zip(*cols):
        # the new value of every site under neighbour-sum index 0, 1 and 2
        n0, n1, n2 = p0 ^ (x0 & bits), p1 ^ (x1 & bits), p2 ^ (x2 & bits)
        # site 0 sees the old values of both neighbours
        first = (n0, n1, n2)[(bits >> top) + ((bits >> 1) & 1)] & 1
        right = (bits >> 1) | (first << top)
        down = n0 ^ ((n0 ^ n1) & right)  # the new value under a down left neighbour
        up = n1 ^ ((n1 ^ n2) & right)  # and under an up one
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
    batch means (the per-sweep values when too few to batch), and is 0 when
    every measured sweep reads the same m.  N and sweeps are capped at 2**24,
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
    if meas.min() == meas.max():  # one sample or a frozen chain: no spread, not rounding noise
        se = 0.0
    elif meas.size >= 2 * _BATCHES:
        batches = meas[: meas.size - meas.size % _BATCHES].reshape(_BATCHES, -1).mean(axis=1)
        se = float(batches.std(ddof=1) / math.sqrt(_BATCHES))
    else:
        se = float(meas.std(ddof=1) / math.sqrt(meas.size))
    return SampledEstimate(mean=mean, std_error=se, samples=int(meas.size), seed=seed)
