import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classical_chicken_matrix, classical_pd_matrix, final_state
from qgames import ChickenPayoffs, PDPayoffs, chicken_templates, pd_templates
from qgames.eisert import (
    C,
    D,
    Q,
    STRAIGHT,
    SWERVE,
    PayoffTemplate,
    Strategy,
    entangler,
    extended_matrix,
    strategy_operator,
)
from qgames.errors import ValidationError

PD_3501 = PDPayoffs(3, 5, 0, 1)


def probs(state):
    return (state.conj() * state).real


def payoff(chi, template):
    """Expected payoff: squared amplitudes weighted by the outcome template."""
    return float(probs(chi) @ template.weights)


class TestStrategyOperator:
    def test_cooperate_is_identity(self):
        assert np.allclose(strategy_operator(0.0, 0.0), np.eye(2), atol=1e-12)

    def test_quantum_is_i_times_z(self):
        expected = np.array([[1j, 0], [0, -1j]])
        assert np.allclose(strategy_operator(0.0, math.pi / 2), expected, atol=1e-12)

    def test_defect_has_antisymmetric_off_diagonal(self):
        # theta=pi, phi=0 gives [[0, 1], [-1, 0]]
        expected = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert np.allclose(strategy_operator(math.pi, 0.0), expected, atol=1e-12)

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (3.2, 0.0), (0.0, -0.1), (0.0, 1.8)])
    def test_rejects_out_of_range_angles(self, theta, phi):
        with pytest.raises(ValidationError):
            strategy_operator(theta, phi)


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


class TestPayoff:
    def test_pure_00_state_pays_the_00_entry(self):
        row, _ = pd_templates(PD_3501)
        chi = np.array([1, 0, 0, 0], dtype=complex)
        assert payoff(chi, row) == pytest.approx(3.0, abs=1e-12)

    def test_defect_vs_quantum_row_payoff(self):
        row, _ = pd_templates(PD_3501)
        for gamma in (0.0, 0.3, 1.0, math.pi / 2):
            got = payoff(final_state(D, Q, gamma), row)
            assert got == pytest.approx(5 * math.cos(gamma) ** 2, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        t1=st.floats(0, math.pi), p1=st.floats(0, math.pi / 2),
        t2=st.floats(0, math.pi), p2=st.floats(0, math.pi / 2),
        gamma=st.floats(0, math.pi / 2),
    )
    def test_payoff_is_convex_combination(self, t1, p1, t2, p2, gamma):
        template = PayoffTemplate(v00=3.0, v10=5.0, v01=0.0, v11=1.0)
        val = payoff(final_state(Strategy("1", t1, p1), Strategy("2", t2, p2), gamma), template)
        assert 0.0 - 1e-9 <= val <= 5.0 + 1e-9


class TestExtendedMatrix:
    def test_maximally_entangled_pd_matrix(self):
        row_t, col_t = pd_templates(PD_3501)
        row, col = extended_matrix(row_t, col_t, (C, D, Q), math.pi / 2)
        expected_row = np.array([[3, 0, 1], [5, 1, 0], [1, 5, 3]], dtype=float)
        assert np.max(np.abs(row - expected_row)) <= 1e-12
        assert np.max(np.abs(col - expected_row.T)) <= 1e-12

    def test_no_entanglement_makes_quantum_equal_cooperate(self):
        row_t, col_t = pd_templates(PD_3501)
        row, _ = extended_matrix(row_t, col_t, (C, D, Q), 0.0)
        c_i, q_i = 0, 2  # rows and columns in the order (C, D, Q)
        assert np.allclose(row[q_i], row[c_i], atol=1e-12)
        assert np.allclose(row[:, q_i], row[:, c_i], atol=1e-12)

    def test_chicken_swerve_vs_quantum_entry(self):
        ch = ChickenPayoffs(3, 4)
        row_t, col_t = chicken_templates(ch)
        for gamma in (0.0, 0.5, 1.2, math.pi / 2):
            row, col = extended_matrix(row_t, col_t, (SWERVE, STRAIGHT, Q), gamma)
            sw, q = 0, 2  # rows and columns in the order (swerve, straight, Q)
            expected = -ch.s * math.sin(gamma) ** 2
            assert row[sw, q] == pytest.approx(expected, abs=1e-12)
            assert col[sw, q] == pytest.approx(expected, abs=1e-12)

    def test_classical_sector_is_gamma_independent(self):
        pd_expected = classical_pd_matrix(PD_3501)
        ch = ChickenPayoffs(3, 4)
        ch_expected = classical_chicken_matrix(ch)
        pd_row_t, pd_col_t = pd_templates(PD_3501)
        ch_row_t, ch_col_t = chicken_templates(ch)
        for gamma in np.linspace(0, math.pi / 2, 25):
            row, _ = extended_matrix(pd_row_t, pd_col_t, (C, D), gamma)
            assert np.max(np.abs(row - pd_expected)) <= 1e-12
            row, _ = extended_matrix(ch_row_t, ch_col_t, (STRAIGHT, SWERVE), gamma)
            assert np.max(np.abs(row - ch_expected)) <= 1e-12

    def test_alpha_coefficient_identities_on_grid(self):
        r, t, s, p = 3.0, 5.0, 0.0, 1.0
        row_t, col_t = pd_templates(PD_3501)
        ch = ChickenPayoffs(3, 4)
        ch_row_t, ch_col_t = chicken_templates(ch)
        for gamma in np.linspace(0, math.pi / 2, 101):
            cg2, sg2 = math.cos(gamma) ** 2, math.sin(gamma) ** 2
            row, _ = extended_matrix(row_t, col_t, (C, D, Q), gamma)
            assert row[0, 2] == pytest.approx(r * cg2 + p * sg2, abs=1e-12)  # (C,Q)
            assert row[2, 0] == pytest.approx(r * cg2 + p * sg2, abs=1e-12)  # (Q,C)
            assert row[2, 1] == pytest.approx(t * sg2 + s * cg2, abs=1e-12)  # (Q,D)
            assert row[1, 2] == pytest.approx(t * cg2 + s * sg2, abs=1e-12)  # (D,Q)
            ch_row, _ = extended_matrix(ch_row_t, ch_col_t, (SWERVE, STRAIGHT, Q), gamma)
            assert ch_row[2, 1] == pytest.approx(-ch.r * math.cos(2 * gamma), abs=1e-12)
            assert ch_row[1, 2] == pytest.approx(ch.r * math.cos(2 * gamma), abs=1e-12)

    def test_symmetric_templates_give_symmetric_game(self):
        row_t, col_t = pd_templates(PD_3501)
        row, col = extended_matrix(row_t, col_t, (C, D, Q), 0.9)
        assert np.max(np.abs(col - row.T)) <= 1e-12

    def test_grid_gives_one_game_per_gamma(self):
        row_t, col_t = pd_templates(PD_3501)
        grid = np.linspace(0, math.pi / 2, 50)
        row, col = extended_matrix(row_t, col_t, (C, D, Q), grid)
        assert row.shape == col.shape == (grid.size, 3, 3)
        for k, gamma in enumerate(grid):
            one_row, one_col = extended_matrix(row_t, col_t, (C, D, Q), float(gamma))
            assert np.array_equal(row[k], one_row)
            assert np.array_equal(col[k], one_col)

    def test_rejects_empty_strategy_list(self):
        row_t, col_t = pd_templates(PD_3501)
        with pytest.raises(ValidationError):
            extended_matrix(row_t, col_t, (), 0.5)
