import functools
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ANGLES,
    classical_chicken_matrix,
    classical_pd_matrix,
    entangler,
    final_state,
    object_weighed,
    products,
    random_chicken,
    random_pd,
    reference_entangler,
    uncached_extended_matrix,
)
import qgames
from qgames import CHICKEN, PD, Block, ChickenPayoffs, IsingParams, PDPayoffs, extract_block
from qgames import BimatrixGame, magnetization, phase_transition_gamma, quantized_game, to_ising
from qgames import eisert
from qgames.catalog import _BLOCKS, _STRATEGIES, GAMES, StrategyBlock
from qgames.eisert import (
    C,
    D,
    Q,
    _strategy_operator,
    check_gamma,
    extended_matrix,
)
from qgames.errors import ConsistencyError, ValidationError, real, real_array
from qgames.oracle import (
    ChainSpec, enumerate_magnetization, metropolis_magnetization, transfer_matrix_finite,
)

PD_3501 = PDPayoffs(3, 5, 0, 1)
PD_ROW = GAMES[PD].weights(PD_3501)


def swapped(weights):
    """The players-swapped weights: the column player's payoffs of a symmetric game."""
    w00, w01, w10, w11 = weights
    return w00, w10, w01, w11


def probs(state):
    return (state.conj() * state).real


def payoff(chi, weights):
    """Expected payoff: squared amplitudes weighted by the outcomes' payoffs in basis order."""
    return float(probs(chi) @ np.array(weights))


class TestStrategyOperator:
    def test_cooperate_is_identity(self):
        assert np.allclose(_strategy_operator(*ANGLES[C]), np.eye(2), atol=1e-12)

    def test_quantum_is_i_times_z(self):
        expected = np.array([[1j, 0], [0, -1j]])
        assert np.allclose(_strategy_operator(*ANGLES[Q]), expected, atol=1e-12)

    def test_defect_has_antisymmetric_off_diagonal(self):
        # theta=pi, phi=0 gives [[0, 1], [-1, 0]]
        expected = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert np.allclose(_strategy_operator(*ANGLES[D]), expected, atol=1e-12)


class TestEntangler:
    def test_zero_angle_is_identity(self):
        assert np.allclose(entangler(0.0), np.eye(4), atol=1e-12)

    def test_maximal_entanglement_entries(self):
        l = entangler(math.pi / 2)
        v = 1 / math.sqrt(2)
        assert np.allclose(np.diag(l), [v, v, v, v], atol=1e-12)
        assert np.allclose([l[0, 3], l[3, 0]], [1j * v, 1j * v], atol=1e-12)
        assert np.allclose([l[1, 2], l[2, 1]], [-1j * v, -1j * v], atol=1e-12)

    def test_column_zero_entangles_00_with_11(self):
        gamma = 0.63
        out = entangler(gamma) @ np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array([math.cos(gamma / 2), 0, 0, 1j * math.sin(gamma / 2)])
        assert np.allclose(out, expected, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            entangler(2.0)
        with pytest.raises(ValidationError):
            entangler(math.nan)
        with pytest.raises(ValidationError):
            entangler(np.zeros((2, 2)))

    @pytest.mark.parametrize("gamma", [0.0, -0.0, 5e-324, 0.7, math.pi / 2, 1, np.float64(0.7),
                                       np.float32(0.5), np.array(0.7)], ids=repr)
    def test_check_gamma_returns_a_scalar_as_its_0d_float64_array(self, gamma):
        g = check_gamma(gamma)
        assert (type(g), g.shape, g.dtype) == (np.ndarray, (), np.float64)
        assert g.tobytes() == np.float64(gamma).tobytes()  # the probability cache's key
        if type(gamma) is np.ndarray:
            assert g is gamma

    @pytest.mark.parametrize("gamma, named", [
        (-5e-324, "-5e-324"), (-0.1, "-0.1"), (1.5707963267948968, "1.5707963267948968"),
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (np.array(2.0), "2.0"),
        (np.float64(math.nan), "nan"),
    ], ids=repr)
    def test_check_gamma_names_a_scalar_outside_the_range(self, gamma, named):
        with pytest.raises(ValidationError) as err:
            check_gamma(gamma)
        assert str(err.value) == f"gamma={named} outside [0.0, 1.5707963267948966]"

    @pytest.mark.parametrize("gamma", [0.0, -0.0, 5e-324, 0.7, math.pi / 2,
                                       np.linspace(0, math.pi / 2, 1025)],
                             ids=lambda g: f"grid{g.size}" if np.ndim(g) else repr(g))
    def test_gate_equals_the_entry_by_entry_reference(self, gamma):
        g = check_gamma(gamma)
        assert np.array_equal(entangler(gamma), reference_entangler(g))

    def test_grid_gives_a_stack_of_the_single_gates(self):
        grid = np.linspace(0, math.pi / 2, 9)
        stack = entangler(grid)
        assert stack.shape == (9, 4, 4)
        assert all(np.array_equal(stack[k], entangler(g)) for k, g in enumerate(grid))


class TestFinalState:
    def test_both_cooperate_returns_00(self):
        for gamma in (0.0, 0.4, math.pi / 2):
            w = probs(final_state(C, C, gamma))
            assert np.allclose(w, [1, 0, 0, 0], atol=1e-12)

    def test_both_quantum_is_00_up_to_phase(self):
        # symbolic expansion gives exactly -|00>
        chi = final_state(Q, Q, 0.8)
        assert np.allclose(probs(chi), [1, 0, 0, 0], atol=1e-12)
        assert np.allclose(chi, [-1, 0, 0, 0], atol=1e-12)

    def test_defect_vs_quantum_amplitudes(self):
        # symbolic expansion: -i cos(gamma)|10> + sin(gamma)|01>
        gamma = 0.7
        w = probs(final_state(D, Q, gamma))
        expected = [0.0, math.sin(gamma) ** 2, math.cos(gamma) ** 2, 0.0]
        assert np.allclose(w, expected, atol=1e-12)

    def test_grid_gives_one_state_per_gamma(self):
        grid = np.array([0.0, 0.7, 1.5])
        states = final_state(D, Q, grid)
        assert all(np.array_equal(states[k], final_state(D, Q, g)) for k, g in enumerate(grid))


class TestNormGate:
    """The circuit's one reduction over every final state's norm: an empty grid passes it, and
    a NaN norm or one past NORM_DRIFT_TOL raises, naming the first drifting (gamma, cell)."""

    def test_an_empty_grid_gives_an_empty_table(self, circuit_passes):
        assert extended_matrix(PD_ROW, _STRATEGIES, np.array([])).shape == (0, 3, 3)
        assert [g.shape for g in circuit_passes] == [(0,)]

    def test_a_nan_norm_names_its_gamma_and_the_first_cell(self):
        g = np.array([0.25, math.nan, 0.5])  # past check_gamma, which refuses a NaN
        with pytest.raises(ConsistencyError) as err:
            eisert._circuit(eisert._CELLS, g)
        assert str(err.value) == "gamma=nan, cell (0,0): state norm drifted to nan"

    @pytest.mark.parametrize("scale, message", [
        (1 + 1e-9, "gamma=0.25, cell (1,2): state norm drifted to 1.000000002"),
        (1 + 1e-12, None),  # a norm of about 1 + 2e-12, inside the tolerance
    ])
    def test_a_drift_past_the_tolerance_names_the_first_drifting_cell(self, scale, message):
        cells = eisert._CELLS.copy()
        cells[2, 0] *= scale
        cells[1, 2] *= scale  # before (2, 0) in row-major order
        g = check_gamma([0.25, 0.5])
        if message is None:
            assert eisert._circuit(cells, g)[1].shape == (2, 3, 3, 4)
            return
        with pytest.raises(ConsistencyError) as err:
            eisert._circuit(cells, g)
        assert str(err.value).startswith(message)


WEIGHTS_NOT_VALID = "weights must be 4 finite real scalars"


def with_weight(value, k):
    """PD_ROW's weights with `value` at basis position k."""
    return tuple(value if i == k else w for i, w in enumerate(PD_ROW))


class TestPayoff:
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, np.True_, [1.0]],
                             ids=repr)
    def test_a_weight_not_finite_real_is_rejected_at_each_position(self, value, k):
        with pytest.raises(ValidationError, match=WEIGHTS_NOT_VALID):
            extended_matrix(with_weight(value, k), _STRATEGIES, 0.5)

    @pytest.mark.parametrize("weights", [
        (1j, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.5 + 0j), (3.0, np.complex128(5.0), 0.0, 1.0),
        (3.0, 5.0, np.complex128(1j), 1.0), (3.0, 5.0, 0.0, np.array(1 + 0j)),
        (3.0, 0.0, 5.0), (3.0, 0.0, 5.0, 1.0, 1.0), (), 3.0, np.array(3.0), None,
    ], ids=repr)
    def test_complex_or_not_four_weights_rejected(self, weights):
        with pytest.raises(ValidationError, match=WEIGHTS_NOT_VALID):
            extended_matrix(weights, _STRATEGIES, 0.5)

    def test_pure_00_state_pays_the_00_entry(self):
        chi = np.array([1, 0, 0, 0], dtype=complex)
        assert payoff(chi, PD_ROW) == pytest.approx(3.0, abs=1e-12)

    def test_defect_vs_quantum_row_payoff(self):
        for gamma in (0.0, 0.3, 1.0, math.pi / 2):
            got = payoff(final_state(D, Q, gamma), PD_ROW)
            assert got == pytest.approx(5 * math.cos(gamma) ** 2, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        t1=st.floats(0, math.pi), p1=st.floats(0, math.pi / 2),
        t2=st.floats(0, math.pi), p2=st.floats(0, math.pi / 2),
        gamma=st.floats(0, math.pi / 2),
    )
    def test_payoff_is_convex_combination(self, t1, p1, t2, p2, gamma):
        weights = (3.0, 0.0, 5.0, 1.0)
        val = payoff(final_state((t1, p1), (t2, p2), gamma), weights)
        assert 0.0 - 1e-9 <= val <= 5.0 + 1e-9


STRATEGIES_NOT_VALID = "strategies must be (C, D, Q), got "
REFUSED_ORDERS = {
    "empty": (), "C": (C,), "C-D": (C, D), "Q-D": (Q, D), "D-C-Q": (D, C, Q), "Q-D-C": (Q, D, C),
    "C-C-D": (C, C, D), "C-D-Q-Q": (C, D, Q, Q), "ints": (0, 1, 2), "bools": (False, True, 2),
    "int64s": tuple(map(np.int64, range(3))), "a-member-alone": C, "names": "CDQ", "none": None,
}


def cells_of(table, strategies):
    """The cells of a tuple of strategies, in its order, of a (..., 3, 3) table over
    _STRATEGIES (each member is its own index)."""
    i = np.array(strategies)
    return table[..., i[:, None], i]


class TestExtendedMatrix:
    def test_maximally_entangled_pd_matrix(self):
        row = extended_matrix(PD_ROW, (C, D, Q), math.pi / 2)
        col = extended_matrix(swapped(PD_ROW), (C, D, Q), math.pi / 2)
        expected_row = np.array([[3, 0, 1], [5, 1, 0], [1, 5, 3]], dtype=float)
        assert np.max(np.abs(row - expected_row)) <= 1e-12
        assert np.max(np.abs(col - expected_row.T)) <= 1e-12

    def test_no_entanglement_makes_quantum_equal_cooperate(self):
        row = extended_matrix(PD_ROW, (C, D, Q), 0.0)
        c_i, q_i = 0, 2  # rows and columns in the order (C, D, Q)
        assert np.allclose(row[q_i], row[c_i], atol=1e-12)
        assert np.allclose(row[:, q_i], row[:, c_i], atol=1e-12)

    def test_chicken_swerve_vs_quantum_entry(self):
        ch = ChickenPayoffs(3, 4)
        row_t = GAMES[CHICKEN].weights(ch)
        for gamma in (0.0, 0.5, 1.2, math.pi / 2):
            row = extended_matrix(row_t, (C, D, Q), gamma)
            col = extended_matrix(swapped(row_t), (C, D, Q), gamma)
            sw, q = 0, 2  # rows and columns in the order (swerve, straight, Q)
            expected = -ch.s * math.sin(gamma) ** 2
            assert row[sw, q] == pytest.approx(expected, abs=1e-12)
            assert col[sw, q] == pytest.approx(expected, abs=1e-12)

    def test_classical_sector_is_gamma_independent(self):
        pd_expected = classical_pd_matrix(PD_3501)
        ch = ChickenPayoffs(3, 4)
        ch_expected = classical_chicken_matrix(ch)
        ch_row_t = GAMES[CHICKEN].weights(ch)
        for gamma in np.linspace(0, math.pi / 2, 25):
            row = cells_of(extended_matrix(PD_ROW, _STRATEGIES, gamma), (C, D))
            assert np.max(np.abs(row - pd_expected)) <= 1e-12
            row = cells_of(extended_matrix(ch_row_t, _STRATEGIES, gamma), (D, C))
            assert np.max(np.abs(row - ch_expected)) <= 1e-12

    def test_alpha_coefficient_identities_on_grid(self):
        r, t, s, p = 3.0, 5.0, 0.0, 1.0
        ch = ChickenPayoffs(3, 4)
        ch_row_t = GAMES[CHICKEN].weights(ch)
        for gamma in np.linspace(0, math.pi / 2, 101):
            cg2, sg2 = math.cos(gamma) ** 2, math.sin(gamma) ** 2
            row = extended_matrix(PD_ROW, (C, D, Q), gamma)
            assert row[0, 2] == pytest.approx(r * cg2 + p * sg2, abs=1e-12)  # (C,Q)
            assert row[2, 0] == pytest.approx(r * cg2 + p * sg2, abs=1e-12)  # (Q,C)
            assert row[2, 1] == pytest.approx(t * sg2 + s * cg2, abs=1e-12)  # (Q,D)
            assert row[1, 2] == pytest.approx(t * cg2 + s * sg2, abs=1e-12)  # (D,Q)
            ch_row = extended_matrix(ch_row_t, (C, D, Q), gamma)
            assert ch_row[2, 1] == pytest.approx(-ch.r * math.cos(2 * gamma), abs=1e-12)
            assert ch_row[1, 2] == pytest.approx(ch.r * math.cos(2 * gamma), abs=1e-12)

    def test_symmetric_weights_give_symmetric_game(self):
        # the column player's payoffs are the row player's with the last two axes swapped,
        # bit for bit: quantized_game builds them that way
        rng = np.random.default_rng(22)
        grid = np.linspace(0, math.pi / 2, 52)
        for game_kind, draw in ((PD, random_pd), (CHICKEN, random_chicken)):
            weights = GAMES[game_kind].weights
            for _ in range(50):
                row_w = weights(draw(rng))
                row = extended_matrix(row_w, _STRATEGIES, grid)
                col = extended_matrix(swapped(row_w), _STRATEGIES, grid)
                assert np.array_equal(col, row.swapaxes(-1, -2))

    def test_grid_gives_one_game_per_gamma(self):
        grid = np.linspace(0, math.pi / 2, 50)
        row = extended_matrix(PD_ROW, (C, D, Q), grid)
        col = extended_matrix(swapped(PD_ROW), (C, D, Q), grid)
        assert row.shape == col.shape == (grid.size, 3, 3)
        for k, gamma in enumerate(grid):
            one_row = extended_matrix(PD_ROW, (C, D, Q), float(gamma))
            one_col = extended_matrix(swapped(PD_ROW), (C, D, Q), float(gamma))
            assert np.array_equal(row[k], one_row)
            assert np.array_equal(col[k], one_col)

    # an int, a bool or a NumPy integer compares equal to a member but is not one; nor is
    # any order of the members but (C, D, Q), whole or in part
    @pytest.mark.parametrize("strategies", [
        *(pytest.param((C, D, entry), id=repr(entry))
          for entry in ["D", None, (math.pi, 0.0), 0, 1, True, np.int64(2)]),
        *(pytest.param(order, id=f"order-{name}") for name, order in REFUSED_ORDERS.items()),
    ])
    def test_an_entry_that_is_not_a_strategy_is_a_validation_error(self, strategies):
        with pytest.raises(ValidationError, match=re.escape(STRATEGIES_NOT_VALID)):
            extended_matrix(PD_ROW, strategies, 0.3)

    @pytest.mark.parametrize("kind,payoffs", [
        (CHICKEN, ChickenPayoffs(1.0, 1.7976931348623157e308)),
        (PD, PDPayoffs(1.0, 1.7976931348623157e308, -1.7976931348623157e308, 0.0)),
        (PD, PDPayoffs(9e307, 1e308, -9e307, 0.0)),
    ], ids=["chicken-max", "pd-max", "pd-above-half-max"])
    def test_a_payoff_near_the_float_max_stays_in_the_payoffs_range(self, kind, payoffs):
        """Classical cells have probabilities 1 + 2 ulps on 8 of the 200 default gammas; weighed
        with a payoff near the float max they once overflowed to -inf with a RuntimeWarning,
        failing `quantize` and each block that holds such a cell.  The exact payoff is a mean of the
        weights, so each cell is clipped to their range; other cells keep their bits."""
        values, grid = GAMES[kind].weights(payoffs), np.linspace(0.0, math.pi / 2, 200)
        with np.errstate(over="ignore"):
            plain = uncached_extended_matrix(values, _STRATEGIES, grid)
        inside = (plain >= min(values)) & (plain <= max(values))
        assert not inside.all()  # the rounding this guards against
        got = extended_matrix(values, _STRATEGIES, grid)
        assert got.min() == min(values) and got.max() <= max(values)
        assert np.array_equal(bits(got[inside]), bits(plain[inside]))
        for k, gamma in enumerate(grid):
            assert np.array_equal(bits(quantized_game(kind, payoffs, gamma).row), bits(got[k]))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


_RNG = np.random.default_rng(27)
# every block's strategy pair, every game's 3x3 order, one strategy alone and a repeated one
CELL_SETS = sorted({row.cells for row in _BLOCKS.values()} | {_STRATEGIES, (Q,), (C, C, D)})
CACHE_GAMMAS = [0.0, math.pi / 2, 5e-324, *_RNG.uniform(0.0, math.pi / 2, 5),
                np.linspace(0.0, math.pi / 2, 200)]
CACHE_WEIGHTS = [PD_ROW, GAMES[CHICKEN].weights(ChickenPayoffs(3, 4)),
                 *(tuple(_RNG.normal(0.0, 10.0, 4).tolist()) for _ in range(3))]


class TestProductTable:
    """The table reads its products from eisert._CELLS; the cells of every strategy tuple
    keep every bit of the uncached circuit run over that tuple alone."""

    def test_the_table_holds_each_pair_in_member_order_and_is_read_only(self):
        cells = eisert._CELLS
        assert np.array_equal(cells, products([ANGLES[s] for s in (C, D, Q)]))
        assert not cells.flags.writeable
        with pytest.raises(ValueError):
            cells[0, 0, 0, 0] = 0.0

    def test_payoffs_keep_every_bit(self):
        for weights in CACHE_WEIGHTS:
            for gamma in CACHE_GAMMAS:
                table = extended_matrix(weights, _STRATEGIES, gamma)
                for strategies in CELL_SETS:
                    want = uncached_extended_matrix(weights, strategies, gamma)
                    assert np.array_equal(bits(cells_of(table, strategies)), bits(want))

    # each order and each repeat picks its cells its own way; the 1025-gamma grid runs past
    # the cache bound
    @pytest.mark.parametrize("strategies", [
        s for n in (1, 2, 3) for s in itertools.product((C, D, Q), repeat=n)
    ], ids=lambda s: "-".join(x.name for x in s))
    def test_every_tuple_of_up_to_three_strategies_keeps_every_bit(self, strategies):
        for gamma in (0.0, -0.0, 5e-324, 0.7, math.pi / 2, np.linspace(0.0, math.pi / 2, 1025)):
            got = cells_of(extended_matrix(PD_ROW, _STRATEGIES, gamma), strategies)
            want = uncached_extended_matrix(PD_ROW, strategies, gamma)
            assert np.array_equal(bits(got), bits(want))

    def test_interleaved_gammas_leave_each_other_unchanged(self):
        eisert._probs.cache_clear()  # so each gamma's first call runs the circuit
        first = [extended_matrix(PD_ROW, _STRATEGIES, gamma) for gamma in CACHE_GAMMAS]
        order = np.random.default_rng(5).permutation(len(CACHE_GAMMAS)).tolist()
        for k in order + order[::-1]:
            got = extended_matrix(PD_ROW, _STRATEGIES, CACHE_GAMMAS[k])
            assert np.array_equal(bits(got), bits(first[k]))
            want = uncached_extended_matrix(PD_ROW, _STRATEGIES, CACHE_GAMMAS[k])
            assert np.array_equal(bits(got), bits(want))


# big ints past int64 in the basis order, read as floats; the uncached reference is given
# their floats, since the ints themselves weigh as an object array
BIG_INT_WEIGHTS = (2**64 + 1, -(2**70), 3, 1)


def same_payoffs(got, want):
    return got.dtype == want.dtype and np.array_equal(bits(got), bits(want))


class TestProbabilityCache:
    """eisert._probs holds the circuit's measured probabilities per gamma bits and
    shape: one run serves every set of weights, and each call weighs them into a
    fresh array with every bit of the uncached circuit."""

    def test_a_miss_and_a_hit_keep_every_bit(self, circuit_passes):
        for gamma in CACHE_GAMMAS:
            for weights in [*CACHE_WEIGHTS, BIG_INT_WEIGHTS] * 2:
                floats = [float(w) for w in weights]
                table = extended_matrix(weights, _STRATEGIES, gamma)
                assert same_payoffs(table, uncached_extended_matrix(floats, _STRATEGIES, gamma))
                for strategies in CELL_SETS:
                    want = uncached_extended_matrix(floats, strategies, gamma)
                    assert same_payoffs(cells_of(table, strategies), want)
            # the bits the exact ints gave when they weighed as an object array
            table = extended_matrix(BIG_INT_WEIGHTS, _STRATEGIES, gamma)
            for strategies in CELL_SETS:
                want = object_weighed(BIG_INT_WEIGHTS, strategies, gamma)
                assert same_payoffs(cells_of(table, strategies), want)
        assert len(circuit_passes) == len(CACHE_GAMMAS)

    @pytest.mark.parametrize("gamma", [0.7, np.linspace(0.0, 1.0, 9)], ids=["float", "grid"])
    def test_a_second_payoff_set_at_the_same_gamma_runs_no_circuit(self, circuit_passes, gamma):
        extended_matrix(PD_ROW, _STRATEGIES, gamma)
        got = extended_matrix(BIG_INT_WEIGHTS, _STRATEGIES, gamma)
        floats = [float(w) for w in BIG_INT_WEIGHTS]
        assert same_payoffs(got, uncached_extended_matrix(floats, _STRATEGIES, gamma))
        assert len(circuit_passes) == 1

    def test_one_gamma_holds_one_entry_whatever_the_weights(self, circuit_passes):
        # the order may come as any iterable of C, D, Q, read once
        for weights in [*CACHE_WEIGHTS, BIG_INT_WEIGHTS]:
            for strategies in (_STRATEGIES, [C, D, Q], iter((C, D, Q))):
                got = extended_matrix(weights, strategies, 0.7)
                floats = [float(w) for w in weights]
                assert same_payoffs(got, uncached_extended_matrix(floats, _STRATEGIES, 0.7))
        assert eisert._probs.cache_info().currsize == 1 and len(circuit_passes) == 1

    def test_negative_zero_and_zero_keep_separate_entries(self, circuit_passes):
        gammas = [0.0, -0.0, np.array([0.0]), np.array([-0.0]), -0.0, np.array([0.0])]
        for gamma in gammas:
            got = extended_matrix(PD_ROW, _STRATEGIES, gamma)
            assert same_payoffs(got, uncached_extended_matrix(PD_ROW, _STRATEGIES, gamma))
        assert [(np.shape(g), math.copysign(1.0, g.flat[0])) for g in circuit_passes] == [
            ((), 1.0), ((), -1.0), ((1,), 1.0), ((1,), -1.0)]
        assert eisert._probs.cache_info().currsize == 4

    def test_entries_are_read_only_and_each_result_is_fresh(self, circuit_passes):
        for gamma in (0.4, np.linspace(0.0, 1.0, 5)):
            want = uncached_extended_matrix(PD_ROW, _STRATEGIES, gamma)
            got = extended_matrix(PD_ROW, _STRATEGIES, gamma)
            got[...] = 99.0
            again = extended_matrix(PD_ROW, _STRATEGIES, gamma)
            assert same_payoffs(again, want) and not np.shares_memory(again, got)
            g = check_gamma(gamma)
            entry = eisert._probs(g.tobytes(), g.shape)  # a hit: the cached array
            assert not entry.flags.writeable
            with pytest.raises(ValueError):
                entry[...] = 0.0
        assert len(circuit_passes) == 2

    def test_a_consistency_error_is_not_cached(self, circuit_passes, monkeypatch):
        monkeypatch.setattr(eisert, "NORM_DRIFT_TOL", -1.0)  # every norm drifts
        with pytest.raises(ConsistencyError, match="state norm drifted"):
            extended_matrix(PD_ROW, _STRATEGIES, 0.9)
        assert eisert._probs.cache_info().currsize == 0
        monkeypatch.setattr(eisert, "NORM_DRIFT_TOL", 1e-10)
        for _ in range(2):
            got = extended_matrix(PD_ROW, _STRATEGIES, 0.9)
            assert same_payoffs(got, uncached_extended_matrix(PD_ROW, _STRATEGIES, 0.9))
        assert len(circuit_passes) == 2

    def test_the_cache_is_bounded_and_a_grid_above_the_cap_is_not_retained(self,
                                                                           circuit_passes):
        maxsize = eisert._probs.cache_info().maxsize
        # every entry at the cap: 4 float64 probabilities per cell, 9 cells per gamma, at most
        # about 5 MB
        assert maxsize is not None and maxsize * eisert._CACHED_GAMMAS * 9 * 4 * 8 <= 5e6
        for gamma in np.linspace(0.0, 1.0, maxsize + 4):
            extended_matrix(PD_ROW, _STRATEGIES, gamma)
        assert eisert._probs.cache_info().currsize == maxsize
        eisert._probs.cache_clear()
        at_cap = np.linspace(0.0, math.pi / 2, 1024)
        above = np.linspace(0.0, math.pi / 2, 1025)
        for grid, runs in ((at_cap, 1), (above, 2)):
            before = len(circuit_passes)
            for _ in range(2):
                got = extended_matrix(PD_ROW, _STRATEGIES, grid)
                assert same_payoffs(got, uncached_extended_matrix(PD_ROW, _STRATEGIES, grid))
            assert len(circuit_passes) - before == runs
        assert eisert._probs.cache_info().currsize == 1

    @pytest.mark.parametrize("gamma", [0.3, [0.1, 0.2], np.linspace(0.0, 1.0, 3000)],
                             ids=["float", "list", "above-the-cap"])
    def test_each_call_checks_gamma_once_on_a_miss_and_a_hit(self, circuit_passes,
                                                             monkeypatch, gamma):
        checks = []
        check = eisert.check_gamma
        monkeypatch.setattr(eisert, "check_gamma", lambda g: checks.append(g) or check(g))
        for calls in (1, 2):
            extended_matrix(PD_ROW, _STRATEGIES, gamma)
            assert len(checks) == calls


MP_GAMMAS = (0.0, math.pi / 2, 1e-8, math.pi / 2 - 1e-8)


def mp_kron(a, b):
    return mpmath.matrix([[a[i // 2, k // 2] * b[i % 2, k % 2] for k in range(4)]
                          for i in range(4)])


@functools.lru_cache(maxsize=None)
def mp_probabilities(strategies, gamma):
    """|<k| L^dag (O_i (x) O_j) L |00>|^2 of every ordered pair at 50 digits, from the
    float angles read exactly: L(gamma) = cos(gamma/2) + i sin(gamma/2) D (x) D with
    D = O(pi, 0), the Eisert-Wilkens-Lewenstein entangler."""
    with mpmath.workdps(50):
        def operator(theta, phi):
            c, s = mpmath.cos(mpmath.mpf(theta) / 2), mpmath.sin(mpmath.mpf(theta) / 2)
            return mpmath.matrix([[mpmath.expj(phi) * c, s], [-s, mpmath.expj(-phi) * c]])

        d = mpmath.matrix([[0, 1], [-1, 0]])
        half = mpmath.mpf(gamma) / 2
        ell = mpmath.cos(half) * mpmath.eye(4) + 1j * mpmath.sin(half) * mp_kron(d, d)
        psi0 = ell * mpmath.matrix([1, 0, 0, 0])
        ops = [operator(*ANGLES[s]) for s in strategies]
        return [[[abs(x) ** 2 for x in ell.H * (mp_kron(a, b) * psi0)] for b in ops]
                for a in ops]


def mp_payoffs(kind, payoffs, gamma):
    """The game's 3x3 row payoffs at 50 digits, in the order of catalog._STRATEGIES."""
    weights = [mpmath.mpf(w) for w in GAMES[kind].weights(payoffs)]
    with mpmath.workdps(50):
        return [[mpmath.fsum(p * w for p, w in zip(cell, weights)) for cell in row]
                for row in mp_probabilities(_STRATEGIES, gamma)]


@settings(derandomize=True, max_examples=25, deadline=None)
@example(low=-1.0, gaps=[1.0, 1.0, 1.0, 1.0], exponent=307.0)  # payoffs up to 3e307
@example(low=0.5, gaps=[0.01, 0.01, 0.01, 0.01], exponent=-300.0)
@given(low=st.floats(-1.0, 1.0), gaps=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       exponent=st.floats(-300.0, 307.0))
def test_payoffs_and_couplings_are_within_4_ulps_of_a_50_digit_circuit(low, gaps, exponent):
    """Every cell of both 3x3 games, and (J, h) of every block at a float gamma and
    along the grid of the four gammas, lies within 4 ulps of the largest |payoff|
    of the circuit run at 50 digits, at payoff scales 1e-300 to 1e307."""
    scale = 10.0 ** exponent
    s, p, r, t = (scale * x for x in np.cumsum([low, *gaps[:3]]).tolist())
    games = {PD: PDPayoffs(r=r, t=t, s=s, p=p),
             CHICKEN: ChickenPayoffs(scale * gaps[0], scale * (gaps[0] + gaps[3]))}
    grid = np.array(MP_GAMMAS)
    for kind, payoffs in games.items():
        tol = 4.0 * math.ulp(max(abs(v) for v in vars(payoffs).values()))
        refs = [mp_payoffs(kind, payoffs, gamma) for gamma in MP_GAMMAS]
        for gamma, ref in zip(MP_GAMMAS, refs):
            row = qgames.quantized_game(kind, payoffs, gamma).row
            assert all(abs(row[i, j] - ref[i][j]) <= tol for i in range(3) for j in range(3))
        for block, block_row in _BLOCKS.items():
            if block_row.game != kind:
                continue
            k, m = block_row.cells
            stacked = qgames.couplings(extract_block(kind, payoffs, block, grid))
            for gamma, ref, pair_on_grid in zip(MP_GAMMAS, refs, stacked):
                ip = to_ising(extract_block(kind, payoffs, block, gamma), 1.0)
                (a, b), (c, d) = (ref[k][k], ref[k][m]), (ref[m][k], ref[m][m])
                with mpmath.workdps(50):
                    want = (((a - c) + (d - b)) / 4, ((a - c) + (b - d)) / 4)
                for got in ((ip.J, ip.h), pair_on_grid):
                    assert all(abs(x - y) <= tol for x, y in zip(got, want)), (block, gamma)


# real scalars that are not Python floats: each must read as its float, bit for bit
REAL_SCALARS = [
    np.array(0.5), np.float64(0.5), np.float32(0.5), np.array(3), np.int64(3), 3,
    Fraction(1, 2), np.array(-0.0),
]


KERNEL_NAMES = ("C", "D", "Q", "Strategy", "extended_matrix")


def test_package_exports_the_pipeline_and_not_the_circuit_kernel():
    namespace = {}
    exec("from qgames import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qgames.__all__)
    assert all(getattr(qgames, name) is namespace[name] for name in qgames.__all__)
    for name in KERNEL_NAMES:
        assert not hasattr(qgames, name)
        assert hasattr(qgames.eisert, name)


@pytest.mark.parametrize("value", REAL_SCALARS, ids=repr)
def test_a_real_scalar_beta_or_payoff_reads_as_its_float(value):
    """to_ising's beta and a payoff given as any real scalar give the m and
    the payoff bits of float(value), at a float gamma and along a grid."""
    block = extract_block(PD, PD_3501, Block.QVD, 0.3)
    ip, ip_float = to_ising(block, value), to_ising(block, float(value))
    assert type(ip.beta) is float and ip == ip_float
    assert bits(magnetization(ip)) == bits(magnetization(ip_float))
    payoffs, floats = PDPayoffs(4, 5, -1, value), PDPayoffs(4, 5, -1, float(value))
    for gamma in (0.3, CACHE_GAMMAS[-1]):
        got = extract_block(PD, payoffs, Block.QVD, gamma).row_payoffs
        want = extract_block(PD, floats, Block.QVD, gamma).row_payoffs
        assert np.array_equal(bits(got), bits(want))
    transition = phase_transition_gamma(PD, payoffs, Block.QVD)
    assert transition == phase_transition_gamma(PD, floats, Block.QVD)


# REAL_SCALARS, an int a float holds only rounded, and one near the top of the float range
STORED_SCALARS = [*REAL_SCALARS, 2**64 + 1, 10**300]


def scalar_id(value):
    return f"int-{value:.3g}" if type(value) is int and value > 2**63 else repr(value)
PD_RANKS = {"t": 3, "r": 2, "p": 1, "s": 0}


def pd_around(value, field):
    """PDPayoffs arguments with `value` at `field` and floats spaced max(1, |x|) apart in
    the order t > r > p > s around x = real(value) at the others."""
    x = real(value)
    unit = max(1.0, abs(x))
    return {k: value if k == field else x + (rank - PD_RANKS[field]) * unit
            for k, rank in PD_RANKS.items()}


# site: (the value type built around a real scalar, the fields holding it, whether a
# scalar that is not above 0 fits there)
STORE_SITES = {
    "IsingParams": (lambda v: IsingParams(v, v, v), ("J", "h", "beta"), True),
    **{f"PDPayoffs-{f}": (lambda v, f=f: PDPayoffs(**pd_around(v, f)), (f,), True)
       for f in PD_RANKS},
    "ChickenPayoffs-r": (lambda v: ChickenPayoffs(r=v, s=2.0 * real(v)), ("r",), False),
    "ChickenPayoffs-s": (lambda v: ChickenPayoffs(r=real(v) / 2.0, s=v), ("s",), False),
}


@pytest.mark.parametrize("site,value", [
    pytest.param(site, value, id=f"{site}-{scalar_id(value)}")
    for site, (_, _, any_sign) in STORE_SITES.items() for value in STORED_SCALARS
    if any_sign or real(value) > 0
])
def test_a_value_type_stores_each_real_scalar_as_the_float_real_reads(site, value):
    """Every field of IsingParams and the payoffs is a float, and a field
    given a real scalar holds the bits of `errors.real` of it."""
    build, fields, _ = STORE_SITES[site]
    obj = build(value)
    assert all(type(v) is float for v in vars(obj).values())
    for name in fields:
        assert bits(getattr(obj, name)) == bits(real(value))


@pytest.mark.parametrize("value", STORED_SCALARS, ids=scalar_id)
def test_each_real_scalar_as_a_weight_gives_the_bits_of_its_float(value):
    """A weight given a real scalar, at all four basis positions or at each one, weighs
    as the float `errors.real` reads, at a float gamma and along a grid."""
    for weights, floats in [((value,) * 4, (real(value),) * 4),
                            *((with_weight(value, k), with_weight(real(value), k))
                              for k in range(4))]:
        for gamma in (0.3, CACHE_GAMMAS[-1]):
            got = extended_matrix(weights, (C, D, Q), gamma)
            assert same_payoffs(got, uncached_extended_matrix(floats, (C, D, Q), gamma))


@pytest.mark.parametrize("a", [
    np.linspace(0.0, 1.0, 7), np.frombuffer(np.linspace(0.0, 1.0, 7).tobytes()), np.array(0.7),
    np.empty(0), np.arange(12.0)[::3], np.arange(12.0).reshape(3, 4)[:, ::2],
], ids=["contiguous", "read-only", "0-d", "empty", "strided", "strided-2-D"])
def test_real_array_returns_a_float64_ndarray_as_it_is(a):
    """No copy and no new view: the grid or table a caller built is the one stored."""
    assert real_array(a) is a


CHAIN_ROUTES = {
    "magnetization": magnetization,
    "transfer_matrix_finite": lambda ip: transfer_matrix_finite(ChainSpec(9, ip)),
    "enumerate_magnetization": lambda ip: enumerate_magnetization(ChainSpec(9, ip)),
    "metropolis_magnetization": lambda ip: metropolis_magnetization(ChainSpec(9, ip), 200, 40, 7),
}


def outcome(route, args):
    """repr of what a route gives on IsingParams(*args), every bit of each float kept,
    or the error it raises."""
    try:
        return repr(route(IsingParams(*args)))
    except ValidationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("route", CHAIN_ROUTES.values(), ids=CHAIN_ROUTES)
@pytest.mark.parametrize("fields", [(0,), (1,), (2,), (0, 1, 2)], ids=["J", "h", "beta", "all"])
@pytest.mark.parametrize("value", STORED_SCALARS, ids=scalar_id)
def test_every_chain_route_reads_a_real_scalar_param_as_its_float(route, fields, value):
    """A real scalar J, h or beta, or all three, gives each route the bits (or the error)
    of its float: the routes compute on the params' floats, not in the caller's type, and
    a warning (an overflow in float32, say) fails the suite."""
    args, floats = [0.2, -0.3, 0.7], [0.2, -0.3, 0.7]
    for k in fields:
        args[k], floats[k] = value, real(value)
    assert outcome(route, args) == outcome(route, floats)


class TestParamsOfAnotherRealType:
    """Named cases of params given as NumPy float32 or as ints, each once computed in the
    caller's type."""

    def test_int_params_whose_products_leave_the_float_range_give_the_m_of_their_floats(self):
        # int * int stayed exact, and its float overflowed: OverflowError
        assert magnetization(IsingParams(0, 10**300, 10**300)) == 1.0

    def test_float32_params_give_the_m_the_oracles_read(self):
        # in float32 arithmetic: 0.9906495086064117
        args = tuple(map(np.float32, (0.3, 0.7, 2.1)))
        m = magnetization(IsingParams(*args))
        assert m == magnetization(IsingParams(*map(float, args))) == 0.9906495100271981

    def test_a_float32_beta_of_1e37_does_not_overflow(self):
        # float32 products overflowed, with a RuntimeWarning
        args = tuple(map(np.float32, (30.0, 70.0, 1e37)))
        ip, floats = IsingParams(*args), IsingParams(*map(float, args))
        assert bits(magnetization(ip)) == bits(magnetization(floats))
        spec, float_spec = ChainSpec(8, ip), ChainSpec(8, floats)
        assert metropolis_magnetization(spec, 50, 10, 3) == metropolis_magnetization(
            float_spec, 50, 10, 3)

    def test_int_payoffs_that_round_to_one_float_fail_the_ordering_check(self):
        # t = 2**53 + 1 rounds to 2**53 = r, so the circuit's game would have t == r
        with pytest.raises(ValidationError, match=re.escape(
                "t > r violated (t=9007199254740992.0, r=9007199254740992.0)")):
            PDPayoffs(2**53, 2**53 + 1, 0, 1)


NOT_REAL = [None, "3", b"3", [1.0], np.array([1.0]), 1j, np.complex64(1), np.clongdouble(1),
            np.array(1j), Decimal(1), 10**400]
SITES = {
    "IsingParams": (lambda v: IsingParams(v, 0, 1), "J, h, beta must be finite"),
    "to_ising": (lambda v: to_ising(extract_block(PD, PD_3501, Block.QVD, 0.3), v),
                 "J, h, beta must be finite"),
    "PDPayoffs": (lambda v: PDPayoffs(v, 5, 0, 1), "payoffs must be finite"),
    "ChickenPayoffs": (lambda v: ChickenPayoffs(1, v), "payoffs must be finite"),
    "extended_matrix-weights": (lambda v: extended_matrix((v, 0, 0, 0), _STRATEGIES, 0.5),
                                WEIGHTS_NOT_VALID),
    # a strategy slot of extended_matrix: only Q passes there, not a bool or an int equal to it
    "Strategy": (lambda v: extended_matrix(PD_ROW, (C, D, v), 0.5),
                 re.escape(STRATEGIES_NOT_VALID)),
    "StrategyBlock": (lambda v: StrategyBlock([[v, 0.0], [0.0, 0.0]], Block.QVD),
                      "block must be a finite 2x2 matrix"),
    "BimatrixGame": (lambda v: BimatrixGame([[v, 0.0], [0.0, 0.0]], ("a", "b")),
                     "payoffs must be finite"),
    "extract_block": (lambda v: extract_block(PD, PD_3501, Block.QVD, gamma=v),
                      GAMMA_NOT_REAL := "is not a real float or a 1-D grid"),
    "check_gamma": (check_gamma, GAMMA_NOT_REAL),
}


BOOLEAN_TABLE = np.array([[True, False], [False, True]])


# A one-element list or array is a valid 1-D gamma grid, so the gamma sites do not take those two.
@pytest.mark.parametrize("call,message,value", [
    pytest.param(call, message, value, id=f"{site}-{repr(value)[:16]}")
    for site, (call, message) in SITES.items() for value in NOT_REAL
    if not (message == GAMMA_NOT_REAL and np.ndim(value) == 1)
] + [
    pytest.param(call, message, value, id=f"{site}-{value!r}")
    for site, (call, message) in SITES.items() for value in (True, False)
    if site not in ("StrategyBlock", "BimatrixGame")  # NumPy reads a bool in a list as float
] + [
    pytest.param(check_gamma, GAMMA_NOT_REAL, np.True_, id="check_gamma-np.True_"),
    pytest.param(lambda t: StrategyBlock(t, Block.QVD), "block must be a finite 2x2 matrix",
                 BOOLEAN_TABLE, id="StrategyBlock-boolean-table"),
    pytest.param(lambda t: BimatrixGame(t, ("a", "b")), "payoffs must be finite",
                 BOOLEAN_TABLE, id="BimatrixGame-boolean-table"),
])
def test_int_beyond_the_float_range_is_a_validation_error(call, message, value):
    """An int beyond the float range, every other value that is not a real
    scalar (`errors.real`), a bool at a scalar site, and a boolean gamma or
    table are refused with the site's own message."""
    with pytest.raises(ValidationError, match=message):
        call(value)


@pytest.mark.parametrize("bad", [np.array([3.0]), np.complex64(3.0), np.complex128(3.0)], ids=repr)
@pytest.mark.parametrize("kind,block,payoffs", [
    (PD, Block.QVD, lambda v: PDPayoffs(v, 5, 0, 1)),
    (CHICKEN, Block.QVSTRAIGHT, lambda v: ChickenPayoffs(1, v)),
], ids=[PD, CHICKEN])
@pytest.mark.parametrize("run", [
    lambda kind, block, p: qgames.quantized_game(kind, p, 0.5),
    lambda kind, block, p: extract_block(kind, p, block, 0.5),
    lambda kind, block, p: extract_block(kind, p, block, [0.1, 0.5]),
    lambda kind, block, p: phase_transition_gamma(kind, p, block),
], ids=["quantized_game", "extract_block-float", "extract_block-grid", "phase_transition_gamma"])
def test_a_payoff_that_is_not_a_real_scalar_stops_the_pipeline(run, kind, block, payoffs, bad):
    """A one-element array or a NumPy complex payoff is refused where the payoffs
    are built, so no stage downstream meets it (such payoffs once constructed and
    then failed with struct.error, ValueError, TypeError or a ComplexWarning)."""
    with pytest.raises(ValidationError, match="payoffs must be finite"):
        run(kind, block, payoffs(bad))


@pytest.mark.parametrize("gamma", [
    [[0.1], [0.2, 0.3]], [0.1, "x"], 1j, 0.5 + 0j, {"a": 1},
    np.complex128(0.5 + 1j), np.complex128(0.5), np.array(0.5 + 1j), np.array([0.5 + 1j]),
], ids=repr)
@pytest.mark.parametrize("call", [
    check_gamma,
    lambda gamma: extract_block(PD, PD_3501, Block.QVD, gamma),
    lambda gamma: qgames.quantized_game(PD, PD_3501, gamma),
], ids=["check_gamma", "extract_block", "quantized_game"])
def test_a_gamma_that_is_not_real_is_a_validation_error_naming_it(call, gamma):
    """Ragged or non-numeric grids (NumPy's ValueError), complex or other
    objects (its TypeError) and NumPy complex values, which a float cast
    would read as their real part, are refused like an out-of-range gamma."""
    with pytest.raises(ValidationError, match=re.escape(f"gamma={gamma!r}")):
        call(gamma)
