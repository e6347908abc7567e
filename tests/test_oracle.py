import itertools
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import classical_magnetization, mpmath_finite_magnetization
from qgames import IsingParams, magnetization, oracle
from qgames.errors import ResourceLimitError, ValidationError
from qgames.oracle import (
    ChainSpec,
    enumerate_magnetization,
    metropolis_magnetization,
    transfer_matrix_finite,
)

# frozen reference: sinh(-0.75)/sqrt(sinh(-0.75)^2 + e) via mpmath, 40 digits
M_CLASSICAL_PD_POINT = -0.4463258856830062


def spec(n, J, h, beta):
    return ChainSpec(N=n, params=IsingParams(J=J, h=h, beta=beta))


def reference_enumeration(s):
    """Enumeration through an explicit (2**N, N) spin matrix, one chunk
    (N <= 20), in the same floating-point order as the library; its largest
    exponent is found by argmax over every configuration."""
    n, p = s.N, s.params
    codes = np.arange(1 << n, dtype=np.uint64)
    spins = (1 - 2 * ((codes[:, None] >> np.arange(n, dtype=np.uint64)) & 1)).astype(np.int8)
    msum = spins.sum(axis=1, dtype=np.int64)
    bonds = (spins * np.roll(spins, -1, axis=1)).sum(axis=1, dtype=np.int64)
    logw = p.beta * p.J * bonds + p.beta * p.h * msum
    top = logw.argmax()
    w = np.exp(p.beta * p.J * (bonds - bonds[top]) + p.beta * p.h * (msum - msum[top]))
    return (float((msum * w).sum()) / n) / float(w.sum())


def uncached_enumeration(s):
    """enumerate_magnetization's loop with the spin and bond sums built
    afresh, as int64, in every chunk: the cached int8 sums must give the
    same bits."""
    n = s.N
    bj = float(s.params.beta) * float(s.params.J)
    bh = float(s.params.beta) * float(s.params.h)
    alt, odd = n - 4 * (n // 2), n % 2
    b_top, m_top = n, n
    for b, m in (alt, odd), (alt, -odd), (n, -n):
        if bj * (b - b_top) + bh * (m - m_top) > 0:
            b_top, m_top = b, m
    total = 1 << n
    step = min(total, 1 << oracle._CHUNK_BITS)
    z = mw = 0.0
    for lo in range(0, total, step):
        codes = np.arange(lo, lo + step, dtype=np.uint64)
        msum = n - 2 * np.bitwise_count(codes).astype(np.int64)
        rotated = (codes >> 1) | ((codes & 1) << (n - 1))
        bonds = (n - b_top) - 2 * np.bitwise_count(codes ^ rotated).astype(np.int64)
        w = bh * (msum - m_top)
        w += bj * bonds
        np.exp(w, out=w)
        z += float(w.sum())
        mw += float((msum * w).sum())
    return (mw / n) / z


def reference_sweeps(spins, us, accept, out):
    """The sampler's sweeps proposed one site at a time, in order 0..N-1."""
    n = spins.shape[0]
    for t in range(us.shape[0]):
        for k in range(n):
            s = spins[k]
            left = spins[k - 1] if k > 0 else spins[n - 1]
            right = spins[k + 1] if k < n - 1 else spins[0]
            idx = ((s + 1) >> 1) * 3 + ((left + right + 2) >> 1)
            if us[t, k] < accept[idx]:
                spins[k] = -s
        out[t] = spins.sum(dtype=np.int64) / n


def reference_kernel(bits, us, accept, out):
    """reference_sweeps on the sampler's chain state, an N-bit int with bit k
    set where spin k is up; returns the new state."""
    n = us.shape[1]
    spins = np.array([1 if bits >> k & 1 else -1 for k in range(n)], dtype=np.int8)
    reference_sweeps(spins, us, accept, out)
    return sum(1 << k for k in range(n) if spins[k] > 0)


def record_acceptance(monkeypatch):
    """Route the sampler's sweeps through a spy; returns the list it fills
    with each block's acceptance vector."""
    seen = []
    kernel = oracle._metropolis_sweeps

    def recording(bits, us, accept, out):
        seen.append(accept.copy())
        return kernel(bits, us, accept, out)

    monkeypatch.setattr(oracle, "_metropolis_sweeps", recording)
    return seen


@pytest.mark.parametrize("params", [None, (0.1, 0.2, 1.0)])
def test_chain_spec_rejects_params_that_are_not_ising_params(params):
    with pytest.raises(ValidationError, match="params must be IsingParams"):
        ChainSpec(4, params)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16])
def test_numpy_integer_n_gives_the_plain_int_results(dtype):
    # 1 << np.int16(16) wraps to 0, and np.int32 cannot shift a uint64
    ip = IsingParams(0.3, 0.2, 1.0)
    plain, wide = ChainSpec(16, ip), ChainSpec(dtype(16), ip)
    assert type(wide.N) is int
    assert enumerate_magnetization(wide) == enumerate_magnetization(plain)
    assert transfer_matrix_finite(wide) == transfer_matrix_finite(plain)
    assert (metropolis_magnetization(wide, 200, 20, 0)
            == metropolis_magnetization(plain, 200, 20, 0))


def test_oracle_never_references_long_double():
    # float64 everywhere: long double is 80-bit on x86-64 Linux only, so it
    # would make the oracle's numbers depend on the platform
    source = Path(oracle.__file__).read_text()
    assert "longdouble" not in source and "float128" not in source


class TestEnumerate:
    def test_decoupled_spins_reduce_to_tanh(self):
        for n in (2, 3, 8):
            for beta, h in [(1.0, 1.0), (0.7, -2.0), (3.0, 0.2)]:
                got = enumerate_magnetization(spec(n, 0.0, h, beta))
                assert got == pytest.approx(math.tanh(beta * h), abs=1e-12)

    def test_zero_field_cancels_by_symmetry(self):
        for n in (2, 5, 10):
            got = enumerate_magnetization(spec(n, 0.8, 0.0, 1.3))
            assert got == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_transfer_matrix_at_n16(self):
        s = spec(16, -0.25, -0.75, 1.0)
        e = enumerate_magnetization(s)
        t = transfer_matrix_finite(s)
        assert e == pytest.approx(t, abs=1e-12)

    def test_gap_to_infinite_chain_shrinks(self):
        m_inf = M_CLASSICAL_PD_POINT
        gaps = [
            abs(enumerate_magnetization(spec(n, -0.25, -0.75, 1.0)) - m_inf)
            for n in (4, 8, 16)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("n", [*range(2, 17), 20])
    def test_equals_spin_matrix_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for J, h, beta in [(0.0, 0.0, 0.0), (-2.0, 2.0, 5.0), *rng.uniform(-2, 2, (2, 3))]:
            s = spec(n, J, h, abs(beta))
            assert enumerate_magnetization(s) == reference_enumeration(s)

    def test_multi_chunk_matches_reference(self, monkeypatch):
        # 8-value chunks; at beta = 5 with |J|, |h| near 2 most chunks hold
        # only weights hundreds of e-folds below the largest one
        monkeypatch.setattr(oracle, "_CHUNK_BITS", 3)
        rng = np.random.default_rng(77)
        for n in range(4, 13):
            strong = rng.choice([-1.0, 1.0], size=(2, 2)) * rng.uniform(1.8, 2.0, size=(2, 2))
            draws = [(J, h, 5.0) for J, h in strong]
            draws += [(J, h, abs(beta)) for J, h, beta in rng.uniform(-2, 2, (2, 3))]
            for J, h, beta in draws:
                s = spec(n, J, h, beta)
                assert enumerate_magnetization(s) == pytest.approx(
                    reference_enumeration(s), abs=1e-14
                )

    @pytest.mark.parametrize("n,J,h,beta", [
        (9, -1000.0, 1e-6, 1e5), (7, -1e6, 1e-9, 1e6),
        # all up and all down round to one exponent; the field picks all down
        (16, 1e20, -4.665494327264568, 7.422370891875762),
        (3, 1.7976931348623157e308, -1e20, 0.1),
    ])
    def test_huge_coupling_keeps_the_field(self, n, J, h, beta):
        # N*|beta*J| carries no bit of beta*h; the offsets from the largest
        # exponent are exact integers, so the field survives
        got = enumerate_magnetization(spec(n, J, h, beta))
        assert got == pytest.approx(mpmath_finite_magnetization(n, J, h, beta), abs=1e-15)

    def test_exponents_next_to_the_float64_limit(self):
        # 2N(|beta*J| + |beta*h|) bounds every offset exponent: just below
        # float64's limit the weights stay finite, just above it raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert enumerate_magnetization(spec(4, -1e307, 1e307, 1.0)) == 0.0
            with pytest.raises(ValidationError, match="overflow"):
                enumerate_magnetization(spec(4, -2e307, 1e307, 1.0))

    def test_too_many_sites_rejected(self):
        with pytest.raises(ResourceLimitError, match="N=30"):
            enumerate_magnetization(spec(30, 0.0, 1.0, 1.0))

    def test_chain_needs_two_sites(self):
        for n in (1, False, True, np.True_):  # a boolean N is refused too
            with pytest.raises(ValidationError, match="N must be an integer >= 2"):
                spec(n, 0.0, 1.0, 1.0)

    def test_overflowing_exponent_raises_before_numpy_warns(self):
        # beta*J = 1e309 is inf in float64; the weights would come out NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflow"):
                enumerate_magnetization(spec(4, 1e308, 0.5, 10.0))
            with pytest.raises(ValidationError, match="overflow"):
                enumerate_magnetization(spec(4, 0.5, -1e308, 10.0))


class TestEnumerationCache:
    """The per-N spin and bond sums come from a cache; the sums over them
    equal those built afresh bit for bit."""

    def test_cached_sums_are_read_only(self):
        enumerate_magnetization(spec(16, 0.3, -0.2, 1.0))
        msum, index, class_msum, class_bonds = oracle._spin_and_bond_sums(16, 0, 1 << 16)
        assert msum.dtype == np.int8 and index.dtype == np.intp
        assert class_msum.shape == class_bonds.shape == (17 * 9,)
        for arr in (msum, index, class_msum, class_bonds):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_classes_hold_each_code_sums(self):
        # the class of a code gives back its spin sum and its bond sum
        n = 11
        msum, index, class_msum, class_bonds = oracle._spin_and_bond_sums(n, 0, 1 << n)
        codes = np.arange(1 << n, dtype=np.uint64)
        spins = 1 - 2 * ((codes[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.int64)
        assert np.array_equal(class_msum[index], spins.sum(axis=1))
        assert np.array_equal(class_bonds[index], (spins * np.roll(spins, -1, axis=1)).sum(axis=1))
        assert np.array_equal(msum, spins.sum(axis=1))

    def test_alternating_lengths_equal_uncached_sums(self):
        rng = np.random.default_rng(19)
        for n in (16, 12, 16):
            for J, h, beta in rng.uniform(-2, 2, (4, 3)):
                s = spec(n, J, h, abs(beta) * 3)
                assert enumerate_magnetization(s) == uncached_enumeration(s)

    def test_two_chunks_equal_uncached_sums(self):
        for J, h, beta in [(-0.7, 0.4, 1.3), (1.5, -0.05, 2.0)]:
            s = spec(21, J, h, beta)
            assert enumerate_magnetization(s) == uncached_enumeration(s)

    def test_four_chunks_equal_uncached_sums(self):
        for J, h, beta in [(-0.7, 0.4, 1.3), (1.5, -0.05, 2.0)]:
            s = spec(22, J, h, beta)
            assert enumerate_magnetization(s) == uncached_enumeration(s)

    def test_classes_no_code_reaches_do_not_overflow(self):
        # at this antiferromagnetic point an empty class such as (all up,
        # N broken bonds) would have an exponent near +1e308 and exp would
        # overflow; the classes that occur stay at or below the largest one
        # (the float64-limit points are test_exponents_next_to_the_float64_limit's)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert enumerate_magnetization(spec(16, -1e306, 1e306, 1.0)) == 0.0

    def test_golden_oracle_point(self):
        s = spec(16, -0.25, 1.75, 2.0)
        golden = Path(__file__).parent / "golden" / "oracle.txt"
        row = next(r for r in golden.read_text().splitlines() if ",enumeration," in r)
        assert enumerate_magnetization(s) == uncached_enumeration(s) == float(row.split(",")[2])


class TestTransferMatrix:
    def test_agrees_with_enumeration_on_random_draws(self):
        rng = np.random.default_rng(21)
        for i in range(25):
            n = 2 + i % 11
            J, h = rng.uniform(-2, 2, size=2)
            beta = rng.uniform(0.0, 5.0)
            s = spec(n, J, h, beta)
            assert transfer_matrix_finite(s) == pytest.approx(
                enumerate_magnetization(s), abs=1e-10
            )

    def test_zero_field_is_exactly_zero(self):
        # Z is even in beta*h, so m is 0, and +0: the CLI prints "0", not "-0"
        for n in (2, 3, 7, 64, 513):
            for J, h, beta in itertools.product(
                (0.6, -1.0, 0.0, -1e4, 1e300), (0.0, -0.0), (0.0, 5.0, 1e300)
            ):
                m = transfer_matrix_finite(spec(n, J, h, beta))
                assert m == 0.0 and math.copysign(1.0, m) == 1.0

    def test_large_chain_approaches_closed_form(self):
        # points whose correlation length is far below 512 sites
        for J, h, beta in [(-0.25, 1.75, 2.0), (0.5, 0.8, 1.0), (-0.5, -0.4, 2.0)]:
            got = transfer_matrix_finite(spec(512, J, h, beta))
            assert got == pytest.approx(classical_magnetization(beta, J, h), abs=1e-8)

    @pytest.mark.parametrize(
        "n,J,h,beta,want",
        [
            (8, -1000.0, 0.001, 1000.0, 0.0),
            (7, -1000.0, 0.001, 1000.0, 0.1087991651365378),
            (5, -1e4, 3.0, 1.0, 0.19901095073734612),
        ],
    )
    def test_strong_antiferromagnet_matches_enumeration(self, n, J, h, beta, want):
        # e^{-4 beta J} overflows float64 here
        s = spec(n, J, h, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transfer_matrix_finite(s)
            exact = enumerate_magnetization(s)
        assert abs(exact - want) <= 1e-10
        assert abs(got - exact) <= 1e-10
        if n % 2:
            # one unpaired spin left to the field: m -> tanh(beta*h)/N
            assert abs(got - math.tanh(beta * h) / n) <= 1e-10

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("h", [20.0, -20.0])
    def test_strong_field_matches_enumeration(self, n, h):
        # cosh(beta*h) and sinh(beta*h)^2 overflow float64 here
        s = spec(n, 0.1, h, 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transfer_matrix_finite(s)
            exact = enumerate_magnetization(s)
        assert abs(got - exact) <= 1e-10

    def test_field_crossover_past_sinh_overflow_matches_enumeration(self):
        # beta*h just past where sinh^2 overflows, with e^{-4 beta J} close
        # to it, so the antiferromagnetic coupling still pulls m below 1
        for n in (7, 8):
            s = spec(n, -2.8389, 5.679, 1000.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = transfer_matrix_finite(s)
            exact = enumerate_magnetization(s)
            assert 0.85 < exact < 0.86
            assert abs(got - exact) <= 1e-10

    def test_finite_square_of_sinh_does_not_warn(self):
        # sinh(x)^2 at beta*h = 3000 is about e^6000, past float64; the scaled
        # form squares only sinh scaled by e^{-|beta*h|}
        s = spec(8, 0.1, 20.0, 150.0)
        with pytest.raises(OverflowError):
            math.sinh(3000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transfer_matrix_finite(s)
        assert got == 1.0  # the 60-digit mpmath value

    def test_strong_field_and_strong_antiferromagnet_is_finite(self):
        # e^{-4 beta J} and cosh(beta*h) both overflow float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transfer_matrix_finite(spec(8, -1e4, 2e4, 1.0))
        assert got == pytest.approx(0.44680851063829785, abs=1e-12)

    def test_root_one_ulp_above_cosh_drops_the_negative_eigenvalue(self):
        # at a vanishing antiferromagnetic J, lambda- = e^{beta J} (ch - root)
        # = e^{beta J} (1 - e^{-4 beta J}) / (ch + root) is about -2e-22, but
        # root = sqrt(sinh^2 + e^{-4 beta J}) rounds one ulp above cosh one
        # ulp of beta*h away, where ch - root would be 1e9 times too large;
        # the ratio lambda-/lambda+ is taken without that subtraction, so the
        # negligible lambda- drops out
        J, beta = -1.451416671187035e-19, 1.0
        h0 = 7.858013800881416
        h1 = math.nextafter(h0, math.inf)
        ch, sh = math.cosh(h1), math.sinh(h1)
        assert math.sqrt(sh * sh + math.exp(-4.0 * beta * J)) - ch == math.ulp(ch)
        for n in (9, 10):
            for h in (h0, h1):
                s = spec(n, J, h, beta)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = transfer_matrix_finite(s)
                assert abs(got - mpmath_finite_magnetization(n, J, h, beta)) <= 1e-13
                assert abs(got - enumerate_magnetization(s)) <= 1e-10

    @pytest.mark.parametrize("n, J, h, beta", [(3, 1e4, 1e-300, 2.0), (7, 0.6, -5e-324, 1e300)])
    def test_tiny_field_on_a_ferromagnet_is_within_an_ulp_of_one(self, n, J, h, beta):
        # m comes back as s + (m - s) with s = +-1, so a tiny m is lost to the ulp of 1 (the
        # relative error is unbounded, an open defect); the absolute error stays at 2**-52
        got = transfer_matrix_finite(spec(n, J, h, beta))
        assert abs(got - mpmath_finite_magnetization(n, J, h, beta)) <= 2.0**-52

    def test_tiny_field_on_random_ferromagnets_is_within_an_ulp_of_one(self):
        rng = np.random.default_rng(2626)
        for _ in range(400):
            n, J = int(rng.integers(2, 600)), 10.0 ** rng.uniform(-4, 4)
            beta = 10.0 ** rng.uniform(-3, 3)
            h = math.copysign(10.0 ** rng.uniform(-320, -300.5) / beta, rng.uniform(-1, 1))
            assert 0.0 < beta * abs(h) <= 1e-300
            got = transfer_matrix_finite(spec(n, J, h, beta))
            want = mpmath_finite_magnetization(n, J, h, beta)
            assert abs(got - want) <= 2.0**-52, (n, J, h, beta)

    def test_golden_row_is_the_exact_value_rounded(self):
        golden = Path(__file__).parent / "golden" / "oracle.txt"
        row = next(r for r in golden.read_text().splitlines() if ",transfer_matrix," in r)
        got = transfer_matrix_finite(spec(16, -0.25, 1.75, 2.0))
        assert got == float(row.split(",")[2]) == mpmath_finite_magnetization(16, -0.25, 1.75, 2.0)

    @pytest.mark.parametrize("J", [0.5, -0.5, 5.0])
    def test_ring_past_float64_sizes(self, J):
        # N beyond the float64 range is taken as 2**1000 sites, parity kept;
        # at these couplings that ring is at the infinite-chain value
        for n in (10**400, 10**400 + 1):
            got = transfer_matrix_finite(spec(n, J, 0.01, 1.0))
            assert got == transfer_matrix_finite(spec(2**1000 + n % 2, J, 0.01, 1.0))
            assert got == pytest.approx(classical_magnetization(1.0, J, 0.01), abs=1e-15)

    def test_gap_shrinks_as_chain_doubles(self):
        # near-critical enough that the finite-size gap stays above noise
        J, h, beta = 0.8, 0.05, 1.2
        m_inf = magnetization(IsingParams(J=J, h=h, beta=beta))
        gaps = [abs(transfer_matrix_finite(spec(n, J, h, beta)) - m_inf)
                for n in (8, 16, 32, 64, 128)]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6


@st.composite
def hard_chains(draw):
    """(N, J, h, beta) with |beta*J| and |beta*h| from 1e-3 to 1e4: the
    balanced crossover |beta*h| ~ -2 beta*J, a strong antiferromagnet or a
    strong field."""
    n = draw(st.one_of(st.integers(2, 64), st.just(512)))
    size = st.floats(-3, 4).map(lambda t: 10.0**t)
    sign = st.sampled_from([-1.0, 1.0])
    kind = draw(st.sampled_from(["balanced", "antiferromagnet", "field"]))
    if kind == "balanced":
        k = min(draw(size), 1e4)
        bj, bh = -k / 2, draw(sign) * (k + draw(st.floats(-5, 5)))
    elif kind == "antiferromagnet":
        bj, bh = -draw(size) / 2 - 5, draw(sign) * draw(size)
    else:
        bj, bh = draw(sign) * draw(size), draw(sign) * (draw(size) + 10)
    beta = draw(st.floats(0.5, 2))
    return n, bj / beta, bh / beta, beta


@settings(max_examples=300, deadline=None)
@given(hard_chains())
@example((7, -2.0, 1.0, 1000.0))   # -2 beta J in the thousands, odd N
@example((8, 0.1, 20.0, 150.0))    # beta*h = 3000
@example((8, -1e4, 2e4, 1.0))      # e^{-4 beta J} and cosh(beta*h) both overflow
@example((9, -2.8389, 5.679, 1000.0))  # balanced, past where sinh^2 overflows
def test_transfer_matrix_matches_mpmath(chain):
    n, J, h, beta = chain
    s = spec(n, J, h, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transfer_matrix_finite(s)
    assert abs(got - mpmath_finite_magnetization(n, J, h, beta)) <= 1e-13
    if n <= 12:
        assert abs(got - enumerate_magnetization(s)) <= 1e-10


@st.composite
def overflowing_chains(draw):
    """(N, J, h, beta) with beta from 1e250 to the float64 maximum and |J|,
    |h| from 1e-300 to 1e300, so beta*h, beta*J and beta*(|h| + 2J) often
    lie past the maximum; a quarter balanced (J = -|h|/2 to a few ulps), a
    twelfth at beta = 0 with |h| + 2J past the maximum, and a sixth with
    beta*J and beta*h from 1e-3 to 10 at beta near either end of float64,
    where 2 beta J, or |h| + 2J at a finite gap, can overflow."""
    n = draw(st.integers(2, 64))
    sign = st.sampled_from([-1.0, 1.0])
    size = st.floats(-300, 300).map(lambda t: 10.0**t)
    h = draw(sign) * draw(size)
    kind = draw(st.sampled_from(["free"] * 6 + ["balanced"] * 3 + ["zero beta"]
                                + ["reciprocal"] * 2))
    if kind == "zero beta":
        return n, draw(sign) * draw(st.floats(1e308, sys.float_info.max)), h, 0.0
    if kind == "reciprocal":
        beta = 10.0 ** draw(st.one_of(st.floats(-323, -300), st.floats(300, 308.25)))
        J, h = (draw(sign) * min(10.0 ** draw(st.floats(-3, 1)) / beta, sys.float_info.max)
                for _ in range(2))
        return n, J, h, beta
    if kind == "balanced":
        J = -abs(h) / 2 * (1 + draw(st.integers(-4, 4)) * 2.0**-52)
    else:
        J = draw(sign) * draw(size)
    return n, J, h, 10.0 ** draw(st.floats(250, 308.25))  # 10**308.25 = 1.78e308


@settings(max_examples=200, deadline=None, derandomize=True)
@given(overflowing_chains())
@example((16, -1.0, 2.0, 1e308))  # balanced, with beta*h past the maximum
@example((7, -1e10, 3e10, 1e300))  # odd N, antiferromagnet past the maximum
@example((5, 1e308, -1e308, 1.0))  # |h| + 2J past the maximum
@example((4, sys.float_info.max, 1.0, 0.0))  # beta = 0 with |h| + 2J past it
@example((8, 1e308, 1e308, 1e-308))  # |h| + 2J past the maximum at a gap of 3
@example((7, -1e308, 1.7e308, 1e-308))  # |h| + 2J past the negative maximum, gap -0.3
@example((8, 1e308, -1e308, 5e-324))  # the same at the smallest beta
@example((8, 1e-308, 1e-308, 1e308))  # 2 beta past the maximum, beta*J = 1
def test_transfer_matrix_past_float64_matches_mpmath(chain):
    n, J, h, beta = chain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transfer_matrix_finite(spec(n, J, h, beta))
    assert abs(got - mpmath_finite_magnetization(n, J, h, beta)) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(
    J=st.floats(-2, 2), h=st.floats(0.01, 2), beta=st.floats(0.05, 4),
    n=st.integers(2, 10),
)
def test_oracles_are_odd_in_the_field(J, h, beta, n):
    up = spec(n, J, h, beta)
    down = spec(n, J, -h, beta)
    assert enumerate_magnetization(up) == pytest.approx(
        -enumerate_magnetization(down), abs=1e-12
    )
    assert transfer_matrix_finite(up) == pytest.approx(
        -transfer_matrix_finite(down), abs=1e-12
    )


class TestMetropolis:
    def test_decoupled_spins_match_tanh(self):
        est = metropolis_magnetization(spec(128, 0.0, 1.0, 1.0), sweeps=100_000,
                                       burn_in=10_000, seed=3)
        assert est.std_error > 0
        assert abs(est.mean - math.tanh(1.0)) <= 3 * est.std_error

    def test_zero_field_hovers_near_zero(self):
        est = metropolis_magnetization(spec(64, 0.5, 0.0, 1.0), sweeps=20_000,
                                       burn_in=2_000, seed=4)
        assert abs(est.mean) <= 3 * est.std_error

    def test_matches_transfer_matrix_within_three_sigma(self):
        s = spec(128, -0.25, 1.75, 1.0)
        est = metropolis_magnetization(s, sweeps=30_000, burn_in=3_000, seed=5)
        assert abs(est.mean - transfer_matrix_finite(s)) <= 3 * est.std_error
        # chain is far longer than the correlation length here, so the
        # infinite-chain value is equally valid as a reference
        m_inf = magnetization(IsingParams(J=-0.25, h=1.75, beta=1.0))
        assert abs(est.mean - m_inf) <= 3 * est.std_error

    def test_same_seed_reproduces_exactly(self):
        s = spec(32, 0.3, 0.4, 1.1)
        a = metropolis_magnetization(s, sweeps=5_000, burn_in=500, seed=42)
        b = metropolis_magnetization(s, sweeps=5_000, burn_in=500, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        s = spec(32, 0.3, 0.4, 1.1)
        a = metropolis_magnetization(s, sweeps=5_000, burn_in=500, seed=1)
        b = metropolis_magnetization(s, sweeps=5_000, burn_in=500, seed=2)
        assert a.mean != b.mean

    def test_one_sample_has_zero_standard_error(self):
        est = metropolis_magnetization(ChainSpec(4, IsingParams(0.1, 0.2, 1.0)), 2, 1, 0)
        assert est.samples == 1
        assert est.std_error == 0.0

    @pytest.mark.parametrize("measured", [2, 3, 63, 64, 65, 100])
    def test_standard_error_keeps_its_bits_per_sweep_and_over_32_batches(self, monkeypatch,
                                                                           measured):
        # below 64 measured sweeps the standard error is the per-sweep one; from 64 on it
        # reads the means of 32 batches of the leading measured // 32 * 32 sweeps
        values = np.random.default_rng(measured).uniform(-1.0, 1.0, measured + 1)
        fed = iter(values)

        def stand_in(bits, us, accept, out):
            out[:] = list(itertools.islice(fed, len(out)))
            return bits

        monkeypatch.setattr(oracle, "_metropolis_sweeps", stand_in)
        est = metropolis_magnetization(spec(8, 0.3, 0.2, 1.0), measured + 1, 1, 0)
        meas = values[1:]
        if measured < 64:
            want = meas.std(ddof=1) / math.sqrt(measured)
        else:
            batches = meas[: measured - measured % 32].reshape(32, -1).mean(axis=1)
            want = batches.std(ddof=1) / math.sqrt(32)
        assert est.samples == measured
        assert float.hex(est.std_error) == float.hex(float(want))

    @pytest.mark.parametrize("n, sweeps", [((1 << 24) + 1, 2), (4, (1 << 24) + 1)])
    def test_chain_or_run_above_2_to_24_is_refused_before_any_draw(self, n, sweeps):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"up to 2\*\*24"):
                metropolis_magnetization(spec(n, 0.1, 0.2, 1.0), sweeps, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_runs_of_many_lengths_retain_under_128_kb(self):
        # 32 runs of 201 to 232 sweeps keep less than 128 KB once they return,
        # so no run leaves state behind that grows with the number of lengths
        s = spec(8, -0.3, 1.2, 1.0)
        metropolis_magnetization(s, 200, 10, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for sweeps in range(201, 233):
                metropolis_magnetization(s, sweeps, 10, 1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 17

    def test_overflowing_energy_at_zero_beta_accepts_every_flip(self, monkeypatch):
        # delta E = inf and beta = 0: exp(-beta * delta E) would be exp(nan)
        seen = record_acceptance(monkeypatch)
        metropolis_magnetization(spec(8, 1e308, 0.0, 0.0), 200, 20, 3)
        assert np.all(np.isfinite(seen[0]))
        assert np.all((seen[0] >= 0.0) & (seen[0] <= 1.0))
        assert np.all(seen[0] == 1.0)

    def test_site_updates_above_2_to_32_are_refused_before_any_draw(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"N \* sweeps up to 2\*\*32"):
                metropolis_magnetization(spec(1 << 16, 0.1, 0.2, 1.0), (1 << 16) + 1, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_numpy_integer_budget_cannot_wrap_the_update_bound(self):
        # 2**24 * np.int32(2**24) wraps to 0 in int32 and would pass the bound
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"N \* sweeps = 281474976710656"):
                metropolis_magnetization(spec(1 << 24, 0.1, 0.2, 1.0),
                                         np.int32(1 << 24), np.int32(1), np.int32(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_estimate_metadata(self):
        est = metropolis_magnetization(spec(16, 0.0, 0.5, 1.0), sweeps=1_000,
                                       burn_in=100, seed=9)
        assert est.samples == 900
        assert est.seed == 9

    def test_sweep_budget_validation(self):
        with pytest.raises(ValidationError, match="sweeps"):
            metropolis_magnetization(spec(16, 0.0, 0.5, 1.0), sweeps=100,
                                     burn_in=100, seed=0)
        with pytest.raises(ValidationError, match="sweeps"):
            metropolis_magnetization(spec(16, 0.0, 0.5, 1.0), sweeps=100,
                                     burn_in=-1, seed=0)

    @pytest.mark.parametrize("budget", [
        {"sweeps": 100.5, "burn_in": 10, "seed": 0},
        {"sweeps": 100, "burn_in": 10.0, "seed": 0},
        {"sweeps": 100, "burn_in": 10, "seed": -1},
        {"sweeps": 100, "burn_in": 10, "seed": 1.5},
        {"sweeps": True, "burn_in": False, "seed": True},
        {"sweeps": 100, "burn_in": 10, "seed": True},
    ])
    def test_non_integer_budget_and_bad_seed_rejected(self, budget):
        with pytest.raises(ValidationError, match="sweeps|seed"):
            metropolis_magnetization(spec(16, 0.0, 0.5, 1.0), **budget)

    def test_strong_field_n128_matches_transfer_matrix(self):
        # nearly all spins up: the per-sweep spin sum exceeds the int8 range
        s = spec(128, 0.5, 1.0, 2.0)
        est = metropolis_magnetization(s, sweeps=2_000, burn_in=200, seed=0)
        assert transfer_matrix_finite(s) == pytest.approx(0.99930, abs=1e-5)
        assert abs(est.mean - transfer_matrix_finite(s)) <= 5 * est.std_error

    def test_statistically_odd_in_field(self):
        up = metropolis_magnetization(spec(64, 0.4, 0.6, 1.0), sweeps=20_000,
                                      burn_in=2_000, seed=11)
        down = metropolis_magnetization(spec(64, 0.4, -0.6, 1.0), sweeps=20_000,
                                        burn_in=2_000, seed=12)
        assert abs(up.mean + down.mean) <= 3 * (up.std_error + down.std_error)


class TestMetropolisMatchesSequentialSweeps:
    """The bit-parallel sweep reproduces site-by-site proposals bit for bit."""

    @staticmethod
    def both(monkeypatch, s, sweeps, burn_in, seed):
        fast = metropolis_magnetization(s, sweeps, burn_in, seed)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_metropolis_sweeps", reference_kernel)
            slow = metropolis_magnetization(s, sweeps, burn_in, seed)
        return fast, slow

    @pytest.mark.parametrize("n, J, h, beta", [
        (2, 0.7, -0.3, 1.5),     # both neighbours of site 1 are the new site 0
        (2, -2.0, 0.1, 4.0),
        (3, 0.4, 0.9, 2.0),      # site 2's right neighbour is the new site 0
        (3, -1.5, -0.2, 3.5),
        (5, 1.0, 0.5, 0.0),      # beta = 0: every proposal is accepted
        (16, 2.0, 0.3, 2.5),     # beta*|J| >= 5: near-frozen ferromagnet
        (17, -2.0, -0.4, 3.0),   # and antiferromagnet, odd length
        (128, -0.3, 1.2, 1.0),
        (7, 0.5, -0.2, 1.2),     # around the byte boundary of the packed masks
        (8, -0.8, 0.6, 1.7),
        (9, 1.1, 0.3, 0.9),
        (63, -0.4, -0.9, 1.4),   # around the 64-bit word boundary
        (64, 0.9, 0.2, 1.1),
        (65, -1.2, 0.5, 0.8),
        (129, 0.3, -0.7, 2.2),
        (64, -2.0, 0.3, 3.0),    # near-frozen antiferromagnet: long negation runs
        (64, 1.0, 0.5, 0.0),     # beta = 0 at a full word
    ])
    def test_equals_reference(self, monkeypatch, n, J, h, beta):
        fast, slow = self.both(monkeypatch, spec(n, J, h, beta), 300, 30, 7)
        assert fast == slow

    @pytest.mark.parametrize("n, J, h, beta", [
        (16, 0.0, 0.0, 1.0),     # every class accepts always: nothing is packed
        (33, 0.7, 0.0, 1.2),     # h = 0: two classes with delta E = 0
        (64, 1.0, 0.5, 1e3),     # acceptances that underflow to exactly 0.0
    ])
    def test_constant_classes_equal_reference(self, monkeypatch, n, J, h, beta):
        fast, slow = self.both(monkeypatch, spec(n, J, h, beta), 300, 30, 7)
        assert fast == slow

    # (J, h, beta) where the sampler's table has a corner: every class
    # accepting 1.0, constant classes, exact zeros, and J < 0 with one side
    # of the table flat, where only the other side calls for the gauge
    CORNERS = {
        "beta0-overflow": (1e308, 1e308, 0.0),  # beta * inf is NaN: every class flips
        "beta0-overflow-afm": (-1e308, 1e308, 0.0),
        "h0": (0.7, 0.0, 1.2), "h0-afm": (-0.7, 0.0, 1.2),
        "J0": (0.0, 0.4, 1.3), "J0-negative-h": (-0.0, -0.4, 1.3),
        "underflow": (1.0, 0.5, 1e3), "underflow-afm": (-1.0, 0.5, 1e3),
        "afm-h-over-2J": (-0.5, 1.5, 1.0), "afm-h-at-2J": (-0.5, 1.0, 1.0),
        "afm-minus-h-over-2J": (-0.5, -1.5, 1.0), "afm-minus-h-at-2J": (-0.5, -1.0, 2.0),
    }
    SITES = [2, 3, 8, 64, 65, 129]  # one byte, the byte and word boundaries

    @pytest.mark.parametrize("n", SITES)
    @pytest.mark.parametrize("corner", list(CORNERS))
    def test_corners_equal_reference(self, monkeypatch, corner, n):
        fast, slow = self.both(monkeypatch, spec(n, *self.CORNERS[corner]), 40, 4, 3)
        assert fast == slow

    @pytest.mark.parametrize("draw", range(6))
    @pytest.mark.parametrize("n", SITES)
    def test_random_points_equal_reference(self, monkeypatch, n, draw):
        # one random (J, h, beta) and seed per case, so a failure names its point
        rng = np.random.default_rng([4100, n, draw])
        J, h = rng.uniform(-2, 2, size=2).tolist()
        s = spec(n, J, h, float(rng.uniform(0.0, 5.0)))
        fast, slow = self.both(monkeypatch, s, 40, 4, int(rng.integers(1000)))
        assert fast == slow

    @pytest.mark.parametrize("n", SITES)
    def test_kernel_equals_reference_on_sampler_tables_with_tied_draws(self, monkeypatch, n):
        # draws equal to a class's acceptance, where u < accept is false
        seen = record_acceptance(monkeypatch)
        for J, h, beta in [*self.CORNERS.values(), (0.4, -0.3, 1.1), (-0.9, 0.2, 0.8)]:
            metropolis_magnetization(spec(n, J, h, beta), 2, 1, 0)
        monkeypatch.undo()
        rng = np.random.default_rng(n)
        for accept in seen:
            us = rng.random((12, n))
            ties = [v for v in accept if v < 1.0] or [0.5]
            at = rng.random(us.shape) < 0.2
            us[at] = rng.choice(ties, at.sum())
            bits = int(rng.integers(0, 2, n) @ (1 << np.arange(n, dtype=object)))
            out, ref_out = np.empty(len(us)), np.empty(len(us))
            got = oracle._metropolis_sweeps(bits, us, accept, out)
            assert got == reference_kernel(bits, us, accept, ref_out)
            assert np.array_equal(out, ref_out)

    def test_zero_acceptance_point_has_exact_zeros(self, monkeypatch):
        seen = record_acceptance(monkeypatch)
        metropolis_magnetization(spec(64, 1.0, 0.5, 1e3), 10, 1, 0)
        assert (seen[0] == 0.0).sum() == 3 and (seen[0] == 1.0).sum() == 3

    def test_only_undecided_classes_are_packed(self, monkeypatch):
        shapes = []
        packbits = np.packbits

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return packbits(a, *args, **kwargs)

        monkeypatch.setattr(np, "packbits", spy)
        metropolis_magnetization(spec(16, 0.3, 0.2, 1.0), 50, 5, 1)
        assert [sh for sh in shapes if len(sh) == 3] == [(3, 50, 16)]  # 3 classes, not 6

    def test_random_draws_equal_reference(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.choice([2, 3, 4, 5, 7, 16, 33, 128]))
            J, h = rng.uniform(-2, 2, size=2)
            s = spec(n, J, h, rng.uniform(0.0, 5.0))
            fast, slow = self.both(monkeypatch, s, int(rng.integers(2, 80)), 1,
                                   int(rng.integers(1000)))
            assert fast == slow

    def test_chunk_boundaries_change_nothing(self, monkeypatch):
        s = spec(6, 0.6, -0.4, 1.3)
        default = metropolis_magnetization(s, 100, 10, 5)
        monkeypatch.setattr(oracle, "_SWEEP_CHUNK", 3)
        fast, slow = self.both(monkeypatch, s, 100, 10, 5)
        assert fast == slow == default

    def test_long_chain_chunks_are_bounded_by_values(self, monkeypatch):
        s = spec(1 << 17, 0.2, 0.1, 1.0)
        default = metropolis_magnetization(s, 10, 2, 3)
        shapes = []
        kernel = oracle._metropolis_sweeps

        def recording(bits, us, accept, out):
            shapes.append(us.shape)
            return kernel(bits, us, accept, out)

        monkeypatch.setattr(oracle, "_metropolis_sweeps", recording)
        assert metropolis_magnetization(s, 10, 2, 3) == default
        assert shapes == [(8, 1 << 17), (2, 1 << 17)]
        monkeypatch.setattr(oracle, "_SWEEP_CHUNK", 3)
        assert metropolis_magnetization(s, 10, 2, 3) == default
