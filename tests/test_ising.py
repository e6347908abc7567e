import dataclasses
import math
import pickle
import sys
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    game_level_magnetization,
    numpy_magnetization,
    numpy_to_ising,
    random_chicken,
    random_pd,
    reference_bisect,
)
from qgames import catalog, cli, ising
from qgames import (
    Block,
    ChickenPayoffs,
    IsingParams,
    PDPayoffs,
    couplings,
    extract_block,
    magnetization,
    phase_transition_gamma,
    to_ising,
)
from qgames.catalog import GAMES, StrategyBlock
from qgames.equilibrium import BEST_RESPONSE_TOL, pure_nash
from qgames.errors import ConsistencyError, ValidationError
from qgames.ising import phase_transition_bisect
from qgames.oracle import ChainSpec, transfer_matrix_finite

PD_3501 = PDPayoffs(3, 5, 0, 1)

# high-precision references: sinh(beta*h)/sqrt(sinh(beta*h)^2 + e^{-4*beta*J})
# evaluated with mpmath at 40 digits
M_BETA2_QVD_MAX_ENTANGLED = 0.9867668811915064   # beta=2, J=-1/4, h=7/4
M_CLASSICAL_PD_POINT = -0.4463258856830062       # beta=1, J=-1/4, h=-3/4


def qvd_block(p, gamma):
    return extract_block("pd", p, Block.QVD, gamma)


def spin_table(block):
    """The two-site spin table [[J+h, -J+h], [-J-h, J-h]] of to_ising(block)."""
    ip = to_ising(block, 1.0)
    return np.array([[ip.J + ip.h, -ip.J + ip.h], [-ip.J - ip.h, ip.J - ip.h]])


class TestTransform:
    """to_ising's spin table is the block with each column shifted by a
    constant until both columns are antisymmetric."""

    def test_worked_example(self):
        blk = StrategyBlock([[3.0, 0.0], [5.0, 1.0]], Block.QVD)
        table = spin_table(blk)
        # column shifts -4 and -0.5
        assert np.array_equal(table - blk.row_payoffs, [[-4.0, -0.5], [-4.0, -0.5]])
        assert np.array_equal(table, [[-1.0, -0.5], [1.0, 0.5]])

    def test_constant_columns_collapse_to_zero(self):
        blk = StrategyBlock([[2.5, -1.0], [2.5, -1.0]], Block.QVC)
        assert np.array_equal(spin_table(blk), np.zeros((2, 2)))

    def test_columns_become_antisymmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            blk = qvd_block(random_pd(rng), rng.uniform(0, math.pi / 2))
            table = spin_table(blk)
            assert abs(table[0, 0] + table[1, 0]) <= 1e-12
            assert abs(table[0, 1] + table[1, 1]) <= 1e-12
            # and differs from the block by one constant per column
            shift = table - blk.row_payoffs
            assert np.max(np.abs(shift[0] - shift[1])) <= 1e-12

    def test_qvc_block_has_zero_field_part(self):
        p = PD_3501
        for gamma in (0.2, 0.9, 1.4):
            table = spin_table(extract_block("pd", p, Block.QVC, gamma))
            alpha1 = p.r * math.cos(gamma) ** 2 + p.p * math.sin(gamma) ** 2
            assert table[0, 0] == pytest.approx((p.r - alpha1) / 2, abs=1e-12)
            assert table[1, 1] == pytest.approx((p.r - alpha1) / 2, abs=1e-12)
            # equal diagonals and equal off-diagonals mean no field term
            assert table[0, 0] == table[1, 1]

    def test_transform_preserves_pure_nash(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = rng.uniform(-5, 5, size=(2, 2))
            blk = StrategyBlock(m, Block.QVD)
            table_blk = StrategyBlock(spin_table(blk), Block.QVD)
            assert pure_nash(blk.as_game()) == pure_nash(table_blk.as_game())


class TestToIsing:
    def test_qvd_coupling_and_field(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_pd(rng)
            for gamma in (0.0, 0.5, 1.1, math.pi / 2):
                ip = to_ising(qvd_block(p, gamma), 1.5)
                assert ip.beta == 1.5
                assert ip.J == pytest.approx((p.r + p.p - p.t - p.s) / 4, abs=1e-12)
                expected_h = (p.r - p.p + (p.s - p.t) * math.cos(2 * gamma)) / 4
                assert ip.h == pytest.approx(expected_h, abs=1e-12)

    def test_qvstraight_coupling_and_field(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = random_chicken(rng)
            for gamma in (0.0, 0.4, 1.0, math.pi / 2):
                ip = to_ising(extract_block("chicken", c, Block.QVSTRAIGHT, gamma), 1.0)
                assert ip.J == pytest.approx(-c.s / 4, abs=1e-12)
                expected_h = (c.s - 2 * c.r * math.cos(2 * gamma)) / 4
                assert ip.h == pytest.approx(expected_h, abs=1e-12)

    def test_zero_field_blocks_have_exactly_zero_field(self):
        p = PD_3501
        for gamma in (0.0, 0.3, 0.8, 1.2, math.pi / 2):
            ip = to_ising(extract_block("pd", p, Block.QVC, gamma), 2.0)
            assert ip.h == 0.0
            alpha1 = p.r * math.cos(gamma) ** 2 + p.p * math.sin(gamma) ** 2
            assert ip.J == pytest.approx((p.r - alpha1) / 2, abs=1e-12)

    def test_beta_must_be_nonnegative(self):
        with pytest.raises(ValidationError, match="beta"):
            to_ising(qvd_block(PD_3501, 0.5), -1.0)

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValidationError, match="J, h, beta must be finite"):
            IsingParams(math.nan, 0, 1)

    @pytest.mark.parametrize("args", [(1j, 1.0, 1.0), (1.0, 1j, 1.0), (1.0, 1.0, 1j),
                                      (1.0, 0.5 + 0j, 1.0), (1.0, np.array(1j), 1.0),
                                      (np.complex128(1.0), 1.0, 1.0),
                                      (1.0, np.complex128(0.5 + 1j), 1.0),
                                      (1.0, 1.0, np.complex128(2.0 + 0j))], ids=repr)
    def test_complex_params_rejected(self, args):
        with pytest.raises(ValidationError, match="J, h, beta must be finite"):
            IsingParams(*args)

    def test_params_keep_the_frozen_dataclass_protocol(self):
        ip = IsingParams(-0.25, 0.37, beta=2.0)
        assert ip == IsingParams(J=-0.25, h=0.37, beta=2.0) != IsingParams(-0.25, 0.37, 2.5)
        assert hash(ip) == hash(IsingParams(-0.25, 0.37, 2.0))
        assert repr(ip) == "IsingParams(J=-0.25, h=0.37, beta=2.0)"
        assert [f.name for f in dataclasses.fields(ip)] == ["J", "h", "beta"]
        assert dataclasses.astuple(ip) == (-0.25, 0.37, 2.0)
        assert pickle.loads(pickle.dumps(ip)) == ip
        assert dataclasses.replace(ip, beta=3.0) == IsingParams(-0.25, 0.37, 3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ip.J = 1.0
        with pytest.raises(ValidationError, match="beta must be >= 0, got -1.0"):
            dataclasses.replace(ip, beta=-1.0)
        with pytest.raises(TypeError):
            IsingParams(0.0, 0.0)


SIX_BLOCKS = [("pd", b) for b in (Block.QVC, Block.QVD, Block.CLASSICAL_PD)] + [
    ("chicken", b) for b in (Block.QVSWERVE, Block.QVSTRAIGHT, Block.CLASSICAL_CHICKEN)
]


class TestCouplings:
    """couplings reads (J, h) off a whole stack along gamma in one pass."""

    @pytest.mark.parametrize("kind,block_id", SIX_BLOCKS)
    def test_stack_matches_numpy_scalar_reference_bit_for_bit(self, kind, block_id):
        rng = np.random.default_rng(list(Block).index(block_id))
        for _ in range(2):
            payoffs = random_pd(rng) if kind == "pd" else random_chicken(rng)
            for grid in (np.linspace(0, math.pi / 2, 40), rng.uniform(0, math.pi / 2, 60)):
                pairs = couplings(extract_block(kind, payoffs, block_id, grid))
                assert len(pairs) == grid.size
                for (J, h), gamma in zip(pairs, grid):
                    one = extract_block(kind, payoffs, block_id, float(gamma))
                    want_J, want_h = numpy_to_ising(one)
                    assert_same_bits(J, want_J)
                    assert_same_bits(h, want_h)

    def test_pairs_whose_sums_overflow_come_from_quarter_payoffs(self):
        # entries up to 1.78e308: a pair keeps its bits where its sums are finite,
        # and is the quarter-payoff pair, finite and within a few ulps, where they are not
        big = sys.float_info.max
        rng = np.random.default_rng(2707)
        scales = 10.0 ** rng.uniform(306.0, 308.25, (4000, 1, 1))
        rows = rng.uniform(-1.0, 1.0, (4000, 2, 2)) * scales
        with np.errstate(all="ignore"):
            want = [numpy_to_ising(StrategyBlock(row, Block.QVD)) for row in rows]
        pairs = couplings(StrategyBlock(rows, Block.QVD))
        fallbacks = 0
        for row, (J, h), (want_J, want_h) in zip(rows, pairs, want):
            if abs(want_J) <= big and abs(want_h) <= big:
                assert_same_bits(J, want_J)
                assert_same_bits(h, want_h)
                continue
            fallbacks += 1
            (a, b), (c, d) = (0.25 * row).tolist()
            assert (J, h) == ((a - c) + (d - b), (a - c) + (b - d))
            (a, b), (c, d) = (mpmath.mpf(x) for x in row[0]), (mpmath.mpf(x) for x in row[1])
            assert abs(J - ((a - c) + (d - b)) / 4) <= 4 * sys.float_info.epsilon * abs(row).max()
            assert abs(h - ((a - c) + (b - d)) / 4) <= 4 * sys.float_info.epsilon * abs(row).max()
        assert 100 < fallbacks < len(rows) - 100

    def test_one_block_gives_one_pair(self):
        blk = qvd_block(PD_3501, 0.5)
        ip = to_ising(blk, 1.0)
        assert couplings(blk) == [(ip.J, ip.h)]

    @pytest.mark.parametrize("raw", [
        np.zeros((3, 2)),
        [[3.0, 0.0], [5.0, 1.0]],
        np.array([[math.nan, 0.0], [5.0, 1.0]]),
    ], ids=["wrong-shape", "nested-list", "nan-entry"])
    def test_anything_but_a_block_rejected(self, raw):
        with pytest.raises(ValidationError, match="StrategyBlock"):
            couplings(raw)

    def test_to_ising_rejects_a_stack(self):
        for grid in (np.array([0.1, 0.5]), np.array([])):  # an empty stack too
            stacked = extract_block("pd", PD_3501, Block.QVD, grid)
            with pytest.raises(ValidationError) as err:
                to_ising(stacked, 1.0)
            assert str(err.value) == "to_ising takes one 2x2 block, not a stack along gamma"


class TestGameLevelOracle:
    """The game -> Ising step against logit play of the block itself on a
    ring of players (conftest's game_level_magnetization), which never forms
    J or h.  Each player collects the field from its two games, so the ring
    is the chain at (J, 2h): same sign of m, larger magnitude."""

    def test_ring_is_the_chain_at_doubled_field(self):
        rng = np.random.default_rng(3077)
        grid = np.linspace(0.0, math.pi / 2, 200)
        n = 10
        for kind, blocks in (("pd", (Block.QVC, Block.QVD)),
                             ("chicken", (Block.QVSWERVE, Block.QVSTRAIGHT))):
            for _ in range(3):
                payoffs = random_pd(rng) if kind == "pd" else random_chicken(rng)
                for block_id in blocks:
                    stacked = extract_block(kind, payoffs, block_id, grid)
                    pairs = couplings(stacked)
                    for k in rng.choice(grid.size, size=3, replace=False):
                        beta = rng.uniform(0.1, 3.0)
                        J, h = pairs[k]
                        m_game = game_level_magnetization(stacked.row_payoffs[k], beta, n)
                        m_chain = transfer_matrix_finite(ChainSpec(n, IsingParams(J, 2.0 * h, beta)))
                        assert abs(m_game - m_chain) <= 1e-10, (kind, block_id, grid[k], beta)
                        assert np.sign(m_game) == np.sign(h), (kind, block_id, grid[k], beta)


class TestZeroTemperatureMajority:
    """The beta -> infinity limit of m against the block's symmetric pure
    equilibria.  At the per-player field (J, 2h) the limit is the Nash
    reading: one symmetric equilibrium (i, i) gives +1 for i = 0 and -1 for
    i = 1, two give sign(h), none gives 0.  At the paper's (J, h) it differs
    exactly where a strategy is dominant and J <= -|h|/2, where m tends to
    +-1/sqrt(5) or 0: the majority is then a sign only."""

    # (J + h/2, J + h) at gamma = pi/2, the margins of the two readings there
    AT_MAXIMAL_ENTANGLEMENT = {
        Block.QVD: lambda p: ((3 * p.r - 3 * p.s + p.p - p.t) / 8, (p.r - p.s) / 2),
        Block.QVSTRAIGHT: lambda c: ((2 * c.r - c.s) / 8, c.r / 2),
    }

    def test_limit_reads_the_symmetric_pure_equilibria(self):
        rng = np.random.default_rng(1806)
        grid = np.linspace(0.0, math.pi / 2, 21)
        cells = differing = 0
        for block_id in Block:
            kind = catalog._BLOCKS[block_id].game
            for _ in range(20):
                payoffs = random_pd(rng) if kind == "pd" else random_chicken(rng)
                stacked = extract_block(kind, payoffs, block_id, grid)
                pairs = couplings(stacked)
                if block_id in self.AT_MAXIMAL_ENTANGLEMENT:
                    J, h = pairs[-1]
                    assert (J + h / 2, J + h) == pytest.approx(
                        self.AT_MAXIMAL_ENTANGLEMENT[block_id](payoffs), abs=1e-12)
                for gamma, row, (J, h) in zip(grid, stacked.row_payoffs, pairs):
                    (a, b), (c, d) = row
                    if min(abs(a - c), abs(d - b), abs(h)) <= BEST_RESPONSE_TOL:
                        continue  # a best-response tie, or no field
                    game = StrategyBlock(row, block_id).as_game()
                    symmetric = [i for i, j in pure_nash(game) if i == j]
                    if len(symmetric) == 2:
                        want = math.copysign(1.0, h)
                    elif symmetric:
                        want = 1.0 - 2.0 * symmetric[0]
                    else:
                        want = 0.0
                    where = (block_id, payoffs, gamma)
                    assert magnetization(IsingParams(J, 2.0 * h, 1e300)) == want, where
                    differs = magnetization(IsingParams(J, h, 1e300)) != want
                    dominant = (a - c) * (d - b) < 0
                    assert differs == (dominant and J <= -abs(h) / 2), where
                    cells += 1
                    differing += differs
        assert 0 < differing < cells, (differing, cells)


class TestMagnetization:
    def test_zero_field_gives_exact_zero(self):
        for J in (-2.0, 0.0, 3.0):
            for beta in (0.0, 0.5, 100.0):
                assert magnetization(IsingParams(J=J, h=0.0, beta=beta)) == 0.0

    def test_zero_coupling_reduces_to_tanh(self):
        for beta, h in [(1.0, 1.0), (0.3, -2.0), (4.0, 0.25)]:
            m = magnetization(IsingParams(J=0.0, h=h, beta=beta))
            assert m == pytest.approx(math.tanh(beta * h), abs=1e-12)

    def test_frozen_high_precision_point(self):
        m = magnetization(IsingParams(J=-0.25, h=1.75, beta=2.0))
        assert m == pytest.approx(M_BETA2_QVD_MAX_ENTANGLED, abs=1e-12)

    def test_zero_beta_is_unbiased(self):
        assert magnetization(IsingParams(J=1.0, h=5.0, beta=0.0)) == 0.0

    def test_zero_carries_the_sign_of_the_field_at_negative_zero_beta(self):
        for beta in (-0.0, 0.0):
            for h in (-0.75, 1.75):
                m = magnetization(IsingParams(J=-0.25, h=h, beta=beta))
                assert m == 0.0
                assert math.copysign(1.0, m) == math.copysign(1.0, h)

    def test_extreme_arguments_do_not_overflow(self):
        with np.errstate(over="raise"):
            assert magnetization(IsingParams(J=1.0, h=1.0, beta=1e6)) == pytest.approx(1.0)
            assert magnetization(IsingParams(J=-400.0, h=1e-3, beta=1.0)) == pytest.approx(0.0, abs=1e-6)
            assert magnetization(IsingParams(J=300.0, h=-2.0, beta=5.0)) == pytest.approx(-1.0)

    @settings(max_examples=120, deadline=None)
    @given(
        J=st.floats(-50, 50), h=st.floats(-50, 50),
        beta=st.floats(0, 20, exclude_min=True),
    )
    def test_bounded_odd_and_signed(self, J, h, beta):
        m = magnetization(IsingParams(J=J, h=h, beta=beta))
        assert abs(m) <= 1.0
        assert magnetization(IsingParams(J=J, h=-h, beta=beta)) == -m
        if h != 0.0:
            assert math.copysign(1.0, m) == math.copysign(1.0, h)

    @settings(max_examples=80, deadline=None)
    @given(
        J=st.floats(-5, 5), beta=st.floats(0.01, 10),
        h1=st.floats(-10, 10), dh=st.floats(1e-6, 10),
    )
    def test_monotone_in_field(self, J, beta, h1, dh):
        m1 = magnetization(IsingParams(J=J, h=h1, beta=beta))
        m2 = magnetization(IsingParams(J=J, h=h1 + dh, beta=beta))
        assert m2 >= m1 - 1e-15


def mp_magnetization(J: float, h: float, beta: float) -> float:
    """The closed form at 40 digits; mpmath's exponent range has no overflow."""
    with mpmath.workdps(40):
        x = mpmath.mpf(beta) * mpmath.mpf(h)
        s = mpmath.sinh(x)
        return float(s / mpmath.sqrt(s * s + mpmath.exp(-4 * mpmath.mpf(beta) * mpmath.mpf(J))))


class TestMagnetizationAtHugeBeta:
    """beta up to the top of float64, where -4*beta or 2*log(sinh(beta*h))
    alone overflows although m is well defined."""

    @pytest.mark.parametrize("J, h, beta", [
        (0.0, 1.0, 1e308),          # -4*beta overflows and meets J = 0
        (0.0, -1e-307, 1e308),      # the same at beta*h = -10
        (1e-308, 1e-308, 1e308),    # beta*J = 1 although -4*beta overflows
        (-1e-308, 2e-308, 1e308),   # beta*J = -1 likewise
        (1.0, 1e8, 1e300),          # 2*log(sinh(beta*h)) overflows
        (-0.5, 1.0, 1e10),          # balanced, m = 1/sqrt(5): beta*|h| and -2 beta J
        (-0.5, 1.0, 1e15),          # must not cancel as two exponents of size beta
        (-0.5, 1.0, 1e300),
        (-0.5, 1.0, 1e308),         # 2*log(sinh(beta*h)) overflows as well
        (-2.0, -4.0, 1e308),        # beta*h itself overflows, still balanced
        (-0.5000000001, 1.0, 1e300),  # e^{-4 beta J} wins by e^{4e290}
    ])
    def test_matches_mpmath(self, J, h, beta):
        m = magnetization(IsingParams(J=J, h=h, beta=beta))
        assert m == pytest.approx(mp_magnetization(J, h, beta), rel=1e-12, abs=1e-300)
        assert math.copysign(1.0, m) == math.copysign(1.0, h)

    @settings(max_examples=200, deadline=None)
    @given(
        J=st.one_of(st.none(), st.floats(-1e308, 1e308)),
        h=st.floats(1e8, 1e308), negative=st.booleans(),
        beta=st.floats(1e300, 1.7e308),
    )
    def test_overflowing_field_matches_mpmath(self, J, h, negative, beta):
        # beta*|h| >= 1e308, so 2*log(sinh(beta*h)) overflows float64;
        # J = None is the balanced case -2J = |h|, where m is neither 0 nor 1
        h = -h if negative else h
        J = -abs(h) / 2 if J is None else J
        m = magnetization(IsingParams(J=J, h=h, beta=beta))
        assert m == pytest.approx(mp_magnetization(J, h, beta), rel=1e-12, abs=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(
        J=st.one_of(st.none(), st.floats(-10, 10)), h=st.floats(-10, 10),
        beta=st.floats(0, 1e4), offset=st.floats(-1e-3, 1e-3),
    )
    def test_moderate_strong_field_matches_mpmath(self, J, h, beta, offset):
        # beta*|h| >= 20 at ordinary J, h and beta, where the scaled form
        # replaced the log form; J = None puts -2J within offset/beta of |h|
        assume(abs(beta * h) >= 20.0)
        J = -0.5 * abs(h) + offset / beta if J is None else J
        m = magnetization(IsingParams(J=J, h=h, beta=beta))
        assert m == pytest.approx(mp_magnetization(J, h, beta), rel=1e-12, abs=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(
        J=st.floats(-1e308, 1e308), h=st.floats(-1e308, 1e308),
        beta=st.floats(0, 1.7e308),
    )
    def test_finite_odd_and_signed_at_any_scale(self, J, h, beta):
        m = magnetization(IsingParams(J=J, h=h, beta=beta))
        assert abs(m) <= 1.0  # NaN fails too
        assert magnetization(IsingParams(J=J, h=-h, beta=beta)) == -m
        assert math.copysign(1.0, m) == math.copysign(1.0, h)


def assert_same_bits(got, want):
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestNumpyForm:
    """`magnetization` must return the np.logaddexp form's bits, or the CSV changes."""

    @settings(max_examples=300, deadline=None)
    @given(
        J=st.floats(-1e6, 1e6), x=st.floats(-19.99, 19.99),
        beta=st.one_of(st.just(0.0), st.just(-0.0), st.floats(0, 1e6)),
    )
    def test_magnetization_matches_the_numpy_form(self, J, x, beta):
        # beta*|h| < 20, the range whose bits the CSVs keep
        h = x / beta if beta else x
        assume(math.isfinite(h) and abs(beta * h) < 20.0)
        got = magnetization(IsingParams(J=J, h=h, beta=beta))
        assert_same_bits(got, numpy_magnetization(J, h, beta))

    def test_magnetization_calls_no_numpy(self):
        # the module binds no NumPy module, so no ising function can reach one
        assert not [
            name for name, value in vars(ising).items()
            if isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "numpy"
        ]


_ASINH_1 = 0.881373587019543  # sinh of it is 1.0 exactly, so log sinh is +0.0
_UNDER_20 = math.nextafter(20.0, 0.0)


class TestWeakFieldEdges:
    """`magnetization` below beta*|h| = 20 runs npy_logaddexp's steps on libm; at each
    edge of that branch it must keep the bits of the np.logaddexp form."""

    @pytest.mark.parametrize("J, h, beta", [
        # the tie 2 log sinh|beta h| == -4 beta J, at log sinh below and above 0
        (-math.log(math.sinh(0.5)) / 2, 0.5, 1.0),
        (-math.log(math.sinh(3.0)) / 2, -3.0, 1.0),
        # the same tie at signed zeros: a = +0.0 against b = -0.0 or +0.0
        (0.0, _ASINH_1, 1.0), (-0.0, _ASINH_1, 1.0), (0.0, -_ASINH_1, 1.0),
        # e^{-4 beta J} lost against sinh^2: the exponent is exactly 0, m exactly 1
        (50.0, 1.0, 1.0), (50.0, -1.0, 1.0),
        # beta*|h| one ulp under 20, either sign of h and of the exponent difference
        (-10.0, _UNDER_20, 1.0), (0.3, _UNDER_20, 1.0), (10.0, -_UNDER_20, 1.0),
        (-10.0, _UNDER_20 / 2, 2.0), (-9.7, -_UNDER_20, 1.0),
        # negative h
        (0.4, -0.7, 1.3), (-0.4, -0.7, 1.3), (1.0, -5e-324, 1.0), (-2.0, -1e-300, 1e300),
        # beta = -0.0: the signed zero of m follows h
        (2.0, 1.5, -0.0), (-2.0, -1.5, -0.0),
        # beta*J near +-1e300, where e^{+-4 beta J} is far out of range
        (1e300, 1.0, 1.0), (-1e300, 1.0, 1.0), (1.0, 1e-300, 1e300), (-1.0, -1e-300, 1e300),
        (1e-8, 1e-308, 1e308), (-1e-8, 1e-308, 1e308),
    ])
    def test_edges_keep_the_numpy_bits(self, J, h, beta):
        x = beta * h
        assert x == 0.0 or abs(x) < 20.0
        assert_same_bits(magnetization(IsingParams(J, h, beta)), numpy_magnetization(J, h, beta))

    def test_the_edges_are_the_ones_named(self):
        log_s = math.log(math.sinh(0.5))
        assert 2.0 * log_s == -4.0 * (-log_s / 2)
        assert math.log(math.sinh(_ASINH_1)) == 0.0
        assert magnetization(IsingParams(50.0, 1.0, 1.0)) == 1.0
        assert 20.0 - _UNDER_20 == 2.0 ** -48  # one ulp of numbers in [16, 32)

    @pytest.mark.parametrize("J, h", [(0.0, 1e-308), (-0.0, 1e-308), (0.0, -1e-308), (-0.0, -1e-308)])
    def test_zero_coupling_at_the_largest_beta_keeps_the_numpy_bits(self, J, h):
        # -4 beta overflows to -inf at beta = 1e308, and -inf times J = 0 is
        # nan; -4 (beta J) is -0.0 or 0.0, so m is tanh(beta h), finite
        got = magnetization(IsingParams(J, h, 1e308))
        assert_same_bits(got, numpy_magnetization(J, h, 1e308))
        assert_same_bits(got, math.copysign(0.7615941559557649, h))


def strong_field_reference(J, h, beta):
    """m from beta*|h| = 20 on, copysign(exp(-0.5 * np.logaddexp(0.0, t)), x), with t
    formed as `ising` forms it, its log1p term (under half an ulp there) kept: the
    form whose bits the strong-field tail keeps."""
    x = beta * h
    t = 4.0 * (beta * (-J - 0.5 * abs(h))) + 2.0 * (math.log(2.0) - math.log1p(-math.exp(-2.0 * abs(x))))
    return math.copysign(math.exp(-0.5 * float(np.logaddexp(0.0, t))), x)


def zero_t_point(h):
    """(J, beta) at which t is exactly 0.0, found by solving beta*(-J - |h|/2) = -log(2)/2."""
    half_ln2 = -math.log(2.0) / 2.0
    J = -(half_ln2 + 0.5 * abs(h))
    return J, half_ln2 / (-J - 0.5 * abs(h))


class TestStrongFieldTail:
    """From beta*|h| = 20 on, `magnetization` shares the weak-field branch's log-add-exp;
    it must keep the bits of np.logaddexp(0.0, t)."""

    @pytest.mark.parametrize("J, h, beta", [
        # beta*|h| = 20 exactly, either sign of h and of J
        (0.3, 20.0, 1.0), (-0.3, -20.0, 1.0), (2.0, 10.0, 2.0), (-7.0, -40.0, 0.5),
        (0.0, 20.0, 1.0), (-0.0, -20.0, 1.0),
        # J = -|h|/2: the balanced pair, where t is 2 log 2 less a log1p
        (-10.0, 20.0, 1.0), (-10.0, -20.0, 1.0), (-20.0, 40.0, 3.0), (-0.5e300, 1e300, 1.0),
        # t = 0: a = b, the tie of the log-add-exp
        (*zero_t_point(40.0)[:1], 40.0, zero_t_point(40.0)[1]),
        (*zero_t_point(20.0)[:1], -20.0, zero_t_point(20.0)[1]),
        # t of either sign far out, and overflowing to +-inf
        (-50.0, 20.0, 1.0), (50.0, -20.0, 1.0), (1e308, 1e308, 1.0), (-1e308, -1e-300, 1e308),
    ])
    def test_edges_keep_the_logaddexp_bits(self, J, h, beta):
        assert abs(beta * h) >= 20.0
        assert_same_bits(magnetization(IsingParams(J, h, beta)), strong_field_reference(J, h, beta))

    def test_the_t_zero_points_are_ties(self):
        for h in (40.0, 20.0):
            J, beta = zero_t_point(h)
            assert abs(beta * h) >= 20.0
            t = 4.0 * (beta * (-J - 0.5 * h)) + 2.0 * (math.log(2.0) - math.log1p(-math.exp(-2.0 * h * beta)))
            assert t == 0.0

    def test_random_draws_over_wide_magnitudes(self):
        rng = np.random.default_rng(41)
        signs = rng.choice([-1.0, 1.0], size=(20000, 2)).tolist()
        powers = rng.uniform([-300, 0, -16], [300, 8, 3], size=(20000, 3)).tolist()
        for (s_h, s_j), (p_h, p_beta, p_j) in zip(signs, powers):
            h = s_h * 10.0 ** p_h
            beta = min(20.0 / abs(h) * 10.0 ** p_beta, 1.7e308)
            # J on both sides of -|h|/2, near it and far from it
            J = -0.5 * abs(h) * (1.0 + s_j * 10.0 ** p_j)
            if abs(beta * h) < 20.0 or not math.isfinite(J):
                continue
            assert_same_bits(magnetization(IsingParams(J, h, beta)), strong_field_reference(J, h, beta))


class TestCurve:
    """The gamma sweep, which `cli.cmd_curve` runs over to_ising and
    magnetization; each case reads the columns back from its CSV."""

    @staticmethod
    def sweep(tmp_path, block, beta, *grid_flags):
        out = tmp_path / "curve.csv"
        args = cli.build_parser().parse_args([
            "curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
            "--block", block, "--beta", repr(beta), *grid_flags, "--output", str(out),
        ])
        assert cli.cmd_curve(args) == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        gammas, _, J, h, m = rows.T
        return gammas, J, h, m

    def test_matches_numpy_scalar_reference(self, tmp_path):
        grid = np.linspace(0.0, math.pi / 2, 37)
        gammas, Js, hs, ms = self.sweep(
            tmp_path, "QvD", 2.0, "--gamma-stop", repr(math.pi / 2), "--gamma-steps", "37")
        assert np.array_equal(gammas, grid)
        for k, gamma in enumerate(grid):
            J, h = numpy_to_ising(extract_block("pd", PD_3501, Block.QVD, float(gamma)))
            assert_same_bits(Js[k], J)
            assert_same_bits(hs[k], h)
            assert_same_bits(ms[k], numpy_magnetization(J, h, 2.0))

    def test_crossing_near_transition_for_every_beta(self, tmp_path):
        gamma_star, _ = phase_transition_gamma("pd", PD_3501, Block.QVD)
        for beta in (0.5, 1.0, 2.0, 5.0, 50.0):
            gammas, _, _, m = self.sweep(
                tmp_path, "QvD", beta, "--gamma-stop", repr(math.pi / 2), "--gamma-steps", "200")
            step = gammas[1] - gammas[0]
            signs = np.sign(m)
            (idx,) = np.nonzero(signs[:-1] * signs[1:] < 0)
            assert idx.size == 1
            lo, hi = gammas[idx[0]], gammas[idx[0] + 1]
            assert lo - step <= gamma_star <= hi + step

    def test_zero_field_blocks_vanish_everywhere(self, tmp_path):
        _, _, h, m = self.sweep(
            tmp_path, "QvC", 2.0, "--gamma-stop", repr(math.pi / 2), "--gamma-steps", "60")
        assert np.array_equal(m, np.zeros(60))
        assert np.array_equal(h, np.zeros(60))

    def test_grid_validation(self, tmp_path):
        for flags, match in [
            (("--gamma-start", "0.5", "--gamma-stop", "0.4", "--gamma-steps", "2"), "increasing"),
            (("--gamma-start", "0.5", "--gamma-stop", "2.0"), "outside"),
            (("--gamma-start", "nan"), "outside"),
            (("--gamma-steps", "0"), ">= 1"),
        ]:
            with pytest.raises(ValidationError, match=match):
                self.sweep(tmp_path, "QvD", 1.0, *flags)

    @staticmethod
    def spy_rows(monkeypatch):
        """The (type, J, h, beta) of each `magnetization` argument, read as it is called:
        curve_rows refills one record, so a reference to it would read only its last row."""
        seen, run = [], ising.magnetization
        monkeypatch.setattr(ising, "magnetization",
                            lambda ip: seen.append((type(ip), ip.J, ip.h, ip.beta)) or run(ip))
        return seen

    @staticmethod
    def hex_rows(rows):
        """Each row's floats as float.hex strings, which tell -0.0 from 0.0."""
        return [tuple(map(float.hex, row)) for row in rows]

    def test_one_magnetization_call_per_row_on_the_checked_params(self, monkeypatch, capsys):
        seen = self.spy_rows(monkeypatch)
        betas = (0.5, -0.0, 3.0)
        assert cli.main(["curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0",
                         "--p", "1", "--block", "QvD", "--gamma-stop", "1",
                         "--gamma-steps", "7", "--beta=0.5,-0.0,3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        stacked = extract_block("pd", PD_3501, Block.QVD, np.linspace(0.0, 1.0, 7))
        want = [IsingParams(J, h, b) for J, h in couplings(stacked) for b in betas]
        assert len(seen) == len(rows) == 21
        assert all(t is ising._Row for t, *_ in seen)
        assert self.hex_rows(row[1:] for row in seen) == self.hex_rows(
            (w.J, w.h, w.beta) for w in want)
        assert all(type(v) is float for row in seen for v in row[1:])

    @pytest.mark.parametrize("betas, message", [
        ((1.0, -1.0), "beta must be >= 0, got -1.0"),
        ((2.0, math.nan, -1.0), "J, h, beta must be finite"),
        ((0.0, -math.inf, math.inf), "J, h, beta must be finite"),
        ((-2.0, math.nan), "beta must be >= 0, got -2.0"),
    ])
    def test_the_first_bad_beta_raises_its_message_before_any_row(self, monkeypatch, betas,
                                                                  message):
        monkeypatch.setattr(ising, "magnetization", lambda ip: pytest.fail("a row ran"))
        stacked = extract_block("pd", PD_3501, Block.QVD, np.linspace(0.0, 1.0, 3))
        with pytest.raises(ValidationError) as err:
            ising.curve_rows(stacked, betas)
        assert str(err.value) == message

    def test_rows_take_the_float_of_a_real_scalar_beta(self, monkeypatch):
        seen = self.spy_rows(monkeypatch)
        stacked = extract_block("pd", PD_3501, Block.QVD, np.linspace(0.0, 1.0, 3))
        betas = (np.float32(2.1), 3, np.array(0.5))
        pairs, ms = ising.curve_rows(stacked, betas)
        floats = [float(b) for b in betas]
        want = [IsingParams(J, h, b) for J, h in pairs for b in floats]
        assert self.hex_rows(row[1:] for row in seen) == self.hex_rows(
            (w.J, w.h, w.beta) for w in want)
        assert all(type(v) is float for row in seen for v in row[1:])
        assert ms == [magnetization(w) for w in want]

    # (J, h) rows: (1, +0.0); (0, -0.0) from signed-zero payoffs; (0, 1) and (0.5, -1), each
    # with betas either side of beta*|h| = 20; and one whose sums overflow (quarter payoffs)
    EDGE_ROWS = np.array([
        [[2.0, 0.0], [0.0, 2.0]],
        [[-0.0, -0.0], [0.0, 0.0]],
        [[1.0, 1.0], [-1.0, -1.0]],
        [[0.0, 0.0], [1.0, 3.0]],
        [[1.5e308, 1.5e308], [-1.5e308, 1.0]],
    ])
    EDGE_BETAS = (0.0, -0.0, 0.5, math.nextafter(20.0, 0.0), 20.0, 40.0, 1e300)

    @staticmethod
    def random_blocks(kind):
        """40 seeded payoff sets of `kind`, each on one of its three blocks over a random grid."""
        rng = np.random.default_rng(56 if kind == "pd" else 57)
        blocks = [b for k, b in SIX_BLOCKS if k == kind]
        for _ in range(40):
            payoffs = random_pd(rng) if kind == "pd" else random_chicken(rng)
            grid = rng.uniform(*ising.GAMMA_RANGE, rng.integers(1, 30))
            yield extract_block(kind, payoffs, blocks[rng.integers(3)], grid)

    @pytest.mark.parametrize("case", ["pd-default", "chicken-default", "edge-rows", "pd-random",
                                      "chicken-random"])
    def test_rows_are_the_bits_of_one_fresh_params_a_row(self, case):
        if case == "edge-rows":
            block, betas = StrategyBlock(self.EDGE_ROWS, Block.QVD), self.EDGE_BETAS
            pairs = couplings(block)
            assert [float.hex(h) for _, h in pairs[:2]] == [float.hex(0.0), float.hex(-0.0)]
            assert pairs[2:4] == [(0.0, 1.0), (0.5, -1.0)]
            (a, _), (c, _) = self.EDGE_ROWS[4].tolist()
            assert a - c == math.inf and all(map(math.isfinite, pairs[4]))
            cases = [(block, betas)]
        elif case.endswith("random"):
            betas = cli.DEFAULT_BETAS + (0.0, -0.0, math.nextafter(20.0, 0.0), 20.0, 1e300)
            cases = [(block, betas) for block in self.random_blocks(case.split("-")[0])]
        else:
            grid = np.linspace(*ising.GAMMA_RANGE, cli.DEFAULT_GAMMA_STEPS)
            if case == "pd-default":
                block = extract_block("pd", PD_3501, Block.QVD, grid)
            else:
                with pytest.warns(UserWarning):
                    block = extract_block("chicken", ChickenPayoffs(4, 4), Block.QVSTRAIGHT, grid)
            cases = [(block, cli.DEFAULT_BETAS)]
        for block, betas in cases:
            got_pairs, ms = ising.curve_rows(block, betas)
            want = [magnetization(IsingParams(J, h, b)) for J, h in couplings(block) for b in betas]
            assert got_pairs == couplings(block)
            assert ms == want and [m.hex() for m in ms] == [m.hex() for m in want]


class TestPhaseTransition:
    def test_pd_reference_point(self):
        got, _ = phase_transition_gamma("pd", PD_3501, Block.QVD)
        assert got == pytest.approx(0.5 * math.acos(2 / 5), abs=1e-15)
        assert got == pytest.approx(0.5796397403637043, abs=1e-9)

    def test_chicken_reference_point_is_pi_over_6(self):
        with pytest.warns(UserWarning):
            ch = ChickenPayoffs(4, 4)
        got, _ = phase_transition_gamma("chicken", ch, Block.QVSTRAIGHT)
        assert got == pytest.approx(math.pi / 6, abs=1e-9)

    def test_payoffs_of_the_other_game_rejected(self):
        with pytest.raises(ValidationError, match="pd needs PDPayoffs, got ChickenPayoffs"):
            phase_transition_gamma("pd", ChickenPayoffs(3, 4), Block.QVD)

    def test_chicken_without_transition(self):
        assert phase_transition_gamma("chicken", ChickenPayoffs(1, 3), Block.QVSTRAIGHT) == (None, None)

    def test_zero_field_blocks_have_no_transition(self):
        assert phase_transition_gamma("pd", PD_3501, Block.QVC) == (None, None)
        assert phase_transition_gamma("chicken", ChickenPayoffs(3, 4), Block.QVSWERVE) == (None, None)

    def test_classical_blocks_have_no_transition(self):
        assert phase_transition_gamma("pd", PD_3501, Block.CLASSICAL_PD) == (None, None)

    def test_pd_transition_always_exists(self):
        # ordering t > r > p > s forces (r-p)/(t-s) < 1
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = random_pd(rng)
            got, _ = phase_transition_gamma("pd", p, Block.QVD)
            assert got is not None
            assert got == pytest.approx(0.5 * math.acos((p.r - p.p) / (p.t - p.s)), abs=1e-12)

    def test_bisection_agrees_with_analytic(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_pd(rng)
            analytic, _ = phase_transition_gamma("pd", p, Block.QVD)
            numeric = phase_transition_bisect("pd", p, Block.QVD)
            assert abs(analytic - numeric) <= 1e-9
            assert phase_transition_gamma("pd", p, Block.QVD) == (
                analytic, numeric)

    def test_pair_without_transition(self):
        got = phase_transition_gamma("pd", PD_3501, Block.QVC)
        assert got == (None, None)

    @pytest.mark.parametrize("offset, fails", [(2e-9, True), (-2e-9, True), (5e-10, False),
                                               (-5e-10, False)])
    def test_cross_check_gate_is_1e_9(self, monkeypatch, capsys, offset, fails):
        # the bisection patched to sit off the closed form by just past or just inside the gate
        analytic, _ = phase_transition_gamma("pd", PD_3501, Block.QVD)
        monkeypatch.setattr(ising, "phase_transition_bisect", lambda *args: analytic + offset)
        argv = ["transition", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1"]
        if fails:
            with pytest.raises(ConsistencyError, match="transition mismatch for QvD"):
                phase_transition_gamma("pd", PD_3501, Block.QVD)
            assert cli.main(argv) == 3
            assert capsys.readouterr().err.startswith("internal consistency failure: transition")
        else:
            assert phase_transition_gamma("pd", PD_3501, Block.QVD) == (analytic, analytic + offset)
            assert cli.main(argv) == 0

    def test_closed_form_off_the_circuit_is_a_consistency_error(self, monkeypatch, capsys):
        # the row's closed form puts gamma* at pi/6, the circuit at acos(2/5)/2
        monkeypatch.setitem(catalog.GAMES, "pd", GAMES["pd"]._replace(cos_2gamma=lambda p: 0.5))
        with pytest.raises(ConsistencyError, match="transition mismatch for QvD"):
            phase_transition_gamma("pd", PD_3501, Block.QVD)
        argv = ["transition", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal consistency failure: transition mismatch for QvD")

    def test_closed_forms_keep_their_bits_where_the_old_quotients_are_finite(self):
        # (r - p) / (t - s) and s / (2 r), at payoff scales 1e-315 to 2.5e307
        pd_form, chicken_form = GAMES["pd"].cos_2gamma, GAMES["chicken"].cos_2gamma
        rng = np.random.default_rng(2708)
        for scale in (10.0 ** rng.uniform(-315.0, 307.4, 3000)).tolist():
            p = random_pd(rng)
            p = PDPayoffs(*(scale * x for x in (p.r, p.t, p.s, p.p)))
            c = random_chicken(rng)
            c = ChickenPayoffs(scale * c.r, scale * c.s)
            if p.t - p.s <= sys.float_info.max:
                assert_same_bits(pd_form(p), (p.r - p.p) / (p.t - p.s))
            assert_same_bits(chicken_form(c), c.s / (2.0 * c.r))

    def test_closed_forms_are_finite_where_the_old_quotients_overflow(self):
        # t - s or 2 r past the float64 maximum; mpmath gives the quotient
        big = sys.float_info.max
        pd_form, chicken_form = GAMES["pd"].cos_2gamma, GAMES["chicken"].cos_2gamma
        rng = np.random.default_rng(2709)
        for _ in range(500):
            t, s = rng.uniform(0.5, 1.0) * big, -rng.uniform(0.5, 1.0) * big
            pd = PDPayoffs(rng.uniform(0.01, 1.0) * t, t, s, rng.uniform(0.01, 1.0) * s)
            r, p = pd.r, pd.p
            want = (mpmath.mpf(r) - p) / (mpmath.mpf(t) - s)
            assert abs(pd_form(pd) - want) <= 2 * sys.float_info.epsilon
            r = rng.uniform(0.5, 1.0) * big
            c = ChickenPayoffs(r, rng.uniform(r, big))
            want = mpmath.mpf(c.s) / (2 * mpmath.mpf(c.r))
            assert abs(chicken_form(c) - want) <= 2 * sys.float_info.epsilon

    @pytest.mark.parametrize("kind, values", [
        ("pd", (3e-320, 5e-320, 0.0, 1e-320)),
        ("pd", (3e-315, 5e-315, 0.0, 1e-315)),
        ("chicken", (3e-320, 5e-320)),
        ("chicken", (5e-324, 5e-324)),
    ])
    def test_subnormal_payoffs_give_the_result_of_their_game_scaled_to_order_1(
            self, kind, values):
        # an exact power-of-two scaling keeps every payoff ratio, so both routes agree
        payoff_type, block = GAMES[kind].payoffs, GAMES[kind].transition_block
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # chicken's s == r
            tiny = payoff_type(*values)
            scaled = payoff_type(*(math.ldexp(v, 1070) for v in values))
        want = phase_transition_gamma(kind, scaled, block)
        assert phase_transition_gamma(kind, tiny, block) == want

    def test_payoffs_a_unit_scaling_would_round_are_used_as_given(self):
        pd = PDPayoffs(1e300, 2e300, 0.0, 1e-320)  # p would round to s = 0
        assert ising._unit_scaled(pd) is pd
        analytic, numeric = phase_transition_gamma("pd", pd, Block.QVD)
        assert analytic == pytest.approx(math.pi / 6, abs=1e-15)
        assert abs(analytic - numeric) <= 1e-9

    def test_unit_scaled_payoffs_are_the_ones_a_checked_rebuild_gives(self):
        # built unchecked: the scaling is exact, so every ordering the payoffs passed holds
        rng = np.random.default_rng(3907)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # s == r chicken draws
            for _ in range(300):
                scale = 10.0 ** rng.uniform(-300, 300)
                for p in (random_pd(rng), random_chicken(rng, allow_equal=True)):
                    p = type(p)(**{k: scale * v for k, v in vars(p).items()})
                    got = ising._unit_scaled(p)
                    assert type(got) is type(p) and vars(got) == vars(type(p)(**vars(got)))

    def test_chicken_s_equal_r_warns_once(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["transition", "--game", "chicken", "--r", "4", "--s", "4"]) == 0
        assert [str(w.message) for w in caught] == ["s == r == 4.0: strict ordering s > r relaxed"]
        assert "analytic gamma*:  0.52359877559829" in capsys.readouterr().out

    def test_boundary_transition_at_gamma_zero(self):
        # s exactly 2r puts the crossing at the edge of the interval
        ch = ChickenPayoffs(1.0, 2.0)
        assert phase_transition_gamma("chicken", ch, Block.QVSTRAIGHT)[0] == pytest.approx(0.0, abs=1e-9)


def _field_block(field):
    """An extract_block stand-in whose block has J = 0 and h = field(gamma)
    exactly: [[f, f], [-f, -f]], read from quarter payoffs where a sum overflows."""
    def extract(game_kind, payoffs, block_id, gamma):
        f = field(np.asarray(gamma, dtype=float))
        return StrategyBlock(np.stack([np.stack([f, f], -1), np.stack([-f, -f], -1)], -2), block_id)
    return extract


class TestPredictedPathBisection:
    """phase_transition_bisect evaluates, per circuit pass, the midpoints its
    loop visits if h is affine in cos(2*gamma); conftest's reference_bisect
    runs one scalar circuit per midpoint.  Both must return the same float,
    whether the prediction holds or not."""

    @pytest.mark.parametrize("kind,block_id", SIX_BLOCKS)
    def test_equals_the_one_midpoint_loop(self, kind, block_id):
        rng = np.random.default_rng(1500 + list(Block).index(block_id))
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # s == r chicken draws
            for _ in range(40):
                payoffs = random_pd(rng) if kind == "pd" else random_chicken(rng, allow_equal=True)
                got = phase_transition_bisect(kind, payoffs, block_id)
                want = reference_bisect(kind, payoffs, block_id)
                assert got == want or got is want is None, (payoffs, got, want)
                outcomes.add(want is None)
        # QvD always crosses; QvStraight draws both; the others never cross
        expected = {Block.QVD: {False}, Block.QVSTRAIGHT: {False, True}}.get(block_id, {True})
        assert outcomes == expected

    @pytest.mark.parametrize("r,s", [(1.0, 2.0), (4.0, 4.0), (1.0, 1.999)])
    def test_boundary_roots_and_equal_payoffs(self, r, s):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # s == r
            payoffs = ChickenPayoffs(r, s)
            got = phase_transition_bisect("chicken", payoffs, Block.QVSTRAIGHT)
            assert got == reference_bisect("chicken", payoffs, Block.QVSTRAIGHT)

    @pytest.mark.parametrize("root", [
        0.5 * (0.0 + math.pi / 2),            # the level-1 midpoint
        0.5 * (math.pi / 4 + math.pi / 2),    # the level-2 midpoint
        0.0,                                  # the left endpoint
        math.pi / 2,                          # the right endpoint
    ])
    def test_exact_zero_at_a_midpoint_is_returned(self, monkeypatch, root):
        monkeypatch.setattr(ising, "extract_block", _field_block(lambda g: g - root))
        got = phase_transition_bisect("pd", PD_3501, Block.QVD)
        assert got == root
        assert got == reference_bisect("pd", PD_3501, Block.QVD)

    @pytest.mark.parametrize("field", [
        lambda g, r: (g - r) ** 3,
        lambda g, r: np.tanh(40.0 * (r - g)),
        lambda g, r: g - r,
        # |fa| + |fb| beyond the float range, where the root is away from the ends
        lambda g, r: (g - r) / max(r, math.pi / 2 - r) * 1.7e308,
    ], ids=["cubic", "steep-tanh", "gamma-minus-root", "huge-linear"])
    @pytest.mark.parametrize("root", [1e-6, 0.3, 0.7853981, 1.2, 1.5707])
    def test_a_field_not_affine_in_cos_2gamma_keeps_the_reference_bits(
            self, monkeypatch, field, root):
        extract = _field_block(lambda g: field(g, root))
        got, runs = self._counted(monkeypatch, "pd", PD_3501, Block.QVD, extract)
        assert got == reference_bisect("pd", PD_3501, Block.QVD)
        assert abs(got - root) <= 1e-10
        # 2 endpoints and more than one pass: a wrong prediction was mended, and each
        # re-prediction from the current bracket's two fields needs at most 12 passes here
        assert 3 < runs <= 14

    @staticmethod
    def _counted(monkeypatch, kind, payoffs, block_id, extract=extract_block):
        """The bisection's result and the number of circuit runs it made."""
        calls = []

        def counted(*args):
            calls.append(args)
            return extract(*args)

        monkeypatch.setattr(ising, "extract_block", counted)
        return phase_transition_bisect(kind, payoffs, block_id), len(calls)

    @pytest.mark.parametrize("kind,payoffs,block_id,runs", [
        ("pd", PD_3501, Block.QVD, 3),                                  # a crossing
        ("chicken", ChickenPayoffs(1, 3), Block.QVSTRAIGHT, 2),         # no sign change
        ("pd", PD_3501, Block.QVC, 2),                                  # h identically zero
    ])
    def test_circuit_runs_per_bisection(self, monkeypatch, kind, payoffs, block_id, runs):
        assert self._counted(monkeypatch, kind, payoffs, block_id)[1] == runs

    @pytest.mark.parametrize("field", [
        lambda g, r: (g - r) ** 3,
        lambda g, r: np.tanh(40.0 * (r - g)),
        lambda g, r: g - r,
        lambda g, r: (g - r) / max(r, math.pi / 2 - r) * 1.7e308,
    ], ids=["cubic", "steep-tanh", "gamma-minus-root", "huge-linear"])
    @pytest.mark.parametrize("root", [1e-6, 0.3, 0.7853981, 1.2, 1.5707])
    def test_each_pass_starts_at_the_reference_bracket(self, monkeypatch, field, root):
        """Over one call's circuit passes no gamma runs twice, and each pass starts at
        the midpoint of reference_bisect's bracket after the midpoints earlier passes
        got right, walks that path and leaves it at most once."""
        extract, runs = _field_block(lambda g: field(g, root)), []

        def recorded(*args):
            runs.append(np.atleast_1d(args[3]).tolist())
            return extract(*args)

        monkeypatch.setattr(ising, "extract_block", recorded)
        phase_transition_bisect("pd", PD_3501, Block.QVD)
        passes = runs[2:]  # after the two endpoint reads
        runs.clear()
        reference_bisect("pd", PD_3501, Block.QVD)
        reference = [gamma for (gamma,) in runs[2:]]
        gammas = [gamma for run in passes for gamma in run]
        assert len(set(gammas)) == len(gammas)
        on_path, step = set(reference), 0  # step: reference midpoints the passes so far ran
        for run in passes:
            k = len(on_path.intersection(run))
            assert run[0] == reference[step]
            assert run[:k] == reference[step:step + k]
            step += k
        assert step == len(reference)
