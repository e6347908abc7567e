import math
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
)
from qgames import cli, ising
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
from qgames.catalog import StrategyBlock
from qgames.equilibrium import pure_nash
from qgames.errors import ValidationError
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
                pairs = couplings(extract_block(kind, payoffs, block_id, grid).row_payoffs)
                assert len(pairs) == grid.size
                for (J, h), gamma in zip(pairs, grid):
                    one = extract_block(kind, payoffs, block_id, float(gamma))
                    want_J, want_h = numpy_to_ising(one)
                    assert_same_bits(J, want_J)
                    assert_same_bits(h, want_h)

    def test_one_block_gives_one_pair(self):
        blk = qvd_block(PD_3501, 0.5)
        ip = to_ising(blk, 1.0)
        assert couplings(blk.row_payoffs) == [(ip.J, ip.h)]

    def test_to_ising_rejects_a_stack(self):
        stacked = extract_block("pd", PD_3501, Block.QVD, np.array([0.1, 0.5]))
        with pytest.raises(ValidationError, match="stack"):
            to_ising(stacked, 1.0)


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
                    pairs = couplings(stacked.row_payoffs)
                    for k in rng.choice(grid.size, size=3, replace=False):
                        beta = rng.uniform(0.1, 3.0)
                        J, h = pairs[k]
                        m_game = game_level_magnetization(stacked.row_payoffs[k], beta, n)
                        m_chain = transfer_matrix_finite(ChainSpec(n, IsingParams(J, 2.0 * h, beta)))
                        assert abs(m_game - m_chain) <= 1e-10, (kind, block_id, grid[k], beta)
                        assert np.sign(m_game) == np.sign(h), (kind, block_id, grid[k], beta)


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


class TestLogaddexp:
    """The libm form must return np.logaddexp's bits, or the CSV changes."""

    def test_random_pairs_over_wide_magnitudes(self):
        rng = np.random.default_rng(77)
        signs = rng.choice([-1.0, 1.0], size=(20000, 2))
        xy = signs * 10.0 ** rng.uniform(-320, 308, size=(20000, 2))
        # close pairs, where log1p(exp(-|x - y|)) carries the most bits
        close = xy[:, 0] * (1.0 + rng.uniform(-1e-3, 1e-3, size=20000))
        for (x, y), z in zip(xy.tolist(), close.tolist()):
            assert_same_bits(ising._logaddexp(x, y), float(np.logaddexp(x, y)))
            assert_same_bits(ising._logaddexp(x, z), float(np.logaddexp(x, z)))

    @pytest.mark.parametrize(
        "x,y",
        [
            (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (3.5, 3.5), (-700.0, -700.0),
            (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0), (1.0, -math.inf),
            (math.inf, math.inf), (-math.inf, -math.inf),
            (math.inf, -math.inf), (-math.inf, math.inf),
            (41.0, 0.0), (0.0, 41.0), (-3.0, 60.0), (800.0, -1e300), (1e300, 1e300 - 1e285),
            (5e-324, 0.0), (-5e-324, 5e-324), (2.2e-308, 1e-310), (1e-310, -1e-320),
        ],
    )
    def test_edges(self, x, y):
        assert_same_bits(ising._logaddexp(x, y), float(np.logaddexp(x, y)))

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

    def test_boundary_transition_at_gamma_zero(self):
        # s exactly 2r puts the crossing at the edge of the interval
        ch = ChickenPayoffs(1.0, 2.0)
        assert phase_transition_gamma("chicken", ch, Block.QVSTRAIGHT)[0] == pytest.approx(0.0, abs=1e-9)
