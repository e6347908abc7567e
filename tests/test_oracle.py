import math
import warnings

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


@pytest.mark.parametrize("params", [None, (0.1, 0.2, 1.0)])
def test_chain_spec_rejects_params_that_are_not_ising_params(params):
    with pytest.raises(ValidationError, match="params must be IsingParams"):
        ChainSpec(4, params)


def test_long_double_is_x87_extended_precision():
    # a platform guard, not a skip: elsewhere the oracle's numbers change
    nmant = np.finfo(np.longdouble).nmant
    assert nmant >= 63, (
        f"oracle._LD = np.longdouble has a {nmant}-bit mantissa: the transfer matrix meets "
        "its 1e-10 gate against enumeration, and the golden transfer_matrix row, only with "
        "the 80-bit long double of x86-64 (a float64 long double misses both)"
    )


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

    @pytest.mark.parametrize("n,J,h,beta", [(9, -1000.0, 1e-6, 1e5), (7, -1e6, 1e-9, 1e6)])
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
        with pytest.raises(ValidationError):
            spec(1, 0.0, 1.0, 1.0)

    def test_overflowing_exponent_raises_before_numpy_warns(self):
        # beta*J = 1e309 is inf in float64; the weights would come out NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflow"):
                enumerate_magnetization(spec(4, 1e308, 0.5, 10.0))
            with pytest.raises(ValidationError, match="overflow"):
                enumerate_magnetization(spec(4, 0.5, -1e308, 10.0))


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
        for n in (2, 7, 64, 513):
            assert transfer_matrix_finite(spec(n, 0.6, 0.0, 2.0)) == 0.0

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
        # e^{-4 beta J} overflows long double here
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
        # cosh(beta*h) and sinh(beta*h)^2 overflow long double here
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
        # sinh(x)^2 at beta*h = 3000 is finite in long double but past where
        # NumPy's scalar power reports an overflow; the scaled form squares
        # only sinh scaled by e^{-|beta*h|}
        s = spec(8, 0.1, 20.0, 150.0)
        x = np.longdouble(3000.0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            np.sinh(x) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transfer_matrix_finite(s)
        assert got == 1.0  # the 60-digit mpmath value

    def test_strong_field_and_strong_antiferromagnet_is_finite(self):
        # e^{-4 beta J} and cosh(beta*h) both overflow long double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transfer_matrix_finite(spec(8, -1e4, 2e4, 1.0))
        assert got == pytest.approx(0.44680851063829785, abs=1e-12)

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
    """(N, J, h, beta) with |beta*J| and |beta*h| up to 1e4: the balanced
    crossover |beta*h| ~ -2 beta*J, a strong antiferromagnet or a strong
    field, each kind on both sides of the scaled form's threshold of 20."""
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transfer_matrix_finite(spec(n, J, h, beta))
    assert abs(got - mpmath_finite_magnetization(n, J, h, beta)) <= 1e-10


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
            m.setattr(oracle, "_metropolis_sweeps", reference_sweeps)
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

        def recording(spins, us, accept, out):
            shapes.append(us.shape)
            kernel(spins, us, accept, out)

        monkeypatch.setattr(oracle, "_metropolis_sweeps", recording)
        assert metropolis_magnetization(s, 10, 2, 3) == default
        assert shapes == [(8, 1 << 17), (2, 1 << 17)]
        monkeypatch.setattr(oracle, "_SWEEP_CHUNK", 3)
        assert metropolis_magnetization(s, 10, 2, 3) == default
